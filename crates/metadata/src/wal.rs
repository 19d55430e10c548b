//! Write-ahead logging of metadata mutations (DESIGN.md §15).
//!
//! Every namespace/registry mutation the metadata server acknowledges is
//! first applied under the shard (or registry) lock and then — still
//! under that lock, *before* the response leaves the server — appended to
//! the [`glider_wal::Wal`] as one [`WalEntry`]. Entries record
//! **outcomes** (assigned ids, allocated locations), not requests, so
//! replay is deterministic: it restores exactly the ids and placements
//! the original execution chose, without re-running the allocator.
//!
//! Replay tolerates overlap with the snapshot: every restore primitive in
//! `glider-namespace` is idempotent, and entries referring to nodes a
//! later `Deleted` record removed resolve to `NotFound`, which replay
//! skips (the delete wins, exactly as it did live).
//!
//! [`wal_class`] is the durability contract: it names every
//! [`RequestBody`] variant and says whether the operation is WAL-logged
//! or explicitly waived. `cargo xtask check` fails the build when a new
//! request variant is added without extending that classification.

use bytes::{Bytes, BytesMut};
use glider_proto::codec::{self, Wire};
use glider_proto::message::RequestBody;
use glider_proto::types::{
    ActionSpec, BlockExtent, BlockId, BlockLocation, NodeId, NodeKind, ServerId, ServerKind,
    StorageClass,
};
use glider_proto::{GliderError, GliderResult};

/// One durable metadata mutation, recorded after it was applied in
/// memory and before it is acknowledged to the client.
#[derive(Debug, Clone, PartialEq)]
pub enum WalEntry {
    /// A server registration with its assigned id and block range.
    ServerRegistered {
        /// Assigned server id.
        server_id: ServerId,
        /// Data or active.
        kind: ServerKind,
        /// The class the server joined.
        class: StorageClass,
        /// Data-plane address.
        addr: String,
        /// Blocks contributed.
        capacity: u64,
        /// First id of the server's contiguous block range.
        first_block: BlockId,
    },
    /// A node creation, including any blocks allocated at create time
    /// (`KeyValue`/`Action` nodes get their single block up front) and
    /// their backup replica sets.
    NodeCreated {
        /// Absolute path.
        path: String,
        /// Assigned node id.
        id: NodeId,
        /// Node kind.
        kind: NodeKind,
        /// Effective storage class.
        class: StorageClass,
        /// Action parameters for `Action` nodes.
        action: Option<ActionSpec>,
        /// Blocks allocated at create time (empty for most kinds).
        extents: Vec<BlockExtent>,
        /// Backup replica sets for those blocks (replication factor > 1).
        backups: Vec<(BlockId, Vec<BlockLocation>)>,
    },
    /// Blocks appended to a node's chain (`AddBlock`/`AddBlocks`).
    ExtentsAdded {
        /// Owning node.
        node_id: NodeId,
        /// The appended extents in chain order.
        extents: Vec<BlockExtent>,
        /// Backup replica sets keyed by primary block id.
        backups: Vec<(BlockId, Vec<BlockLocation>)>,
    },
    /// Committed lengths (`CommitBlock`/`CommitBlocks`).
    Committed {
        /// Owning node.
        node_id: NodeId,
        /// `(block, len)` pairs in application order.
        commits: Vec<(BlockId, u64)>,
    },
    /// A `ReplaceBlock`: `old_block`'s chain slot now holds `extent`.
    Replaced {
        /// Owning node.
        node_id: NodeId,
        /// The abandoned block.
        old_block: BlockId,
        /// The replacement extent (len 0) with its backup set.
        extent: BlockExtent,
        /// Backups of the replacement primary.
        backups: Vec<BlockLocation>,
    },
    /// A recursive delete of the subtree at `path`.
    Deleted {
        /// Root of the removed subtree.
        path: String,
    },
    /// A backup replica set was (re)assigned to a primary block.
    BackupsSet {
        /// Owning node.
        node_id: NodeId,
        /// Primary block.
        block: BlockId,
        /// The new backup set (empty clears it).
        backups: Vec<BlockLocation>,
    },
    /// A backup was promoted to primary after its primary's server died;
    /// the committed length is preserved.
    Promoted {
        /// Owning node.
        node_id: NodeId,
        /// The dead primary.
        old_block: BlockId,
        /// The promoted backup's location.
        new_loc: BlockLocation,
    },
}

const TAG_SERVER_REGISTERED: u8 = 0;
const TAG_NODE_CREATED: u8 = 1;
const TAG_EXTENTS_ADDED: u8 = 2;
const TAG_COMMITTED: u8 = 3;
const TAG_REPLACED: u8 = 4;
const TAG_DELETED: u8 = 5;
const TAG_BACKUPS_SET: u8 = 6;
const TAG_PROMOTED: u8 = 7;

impl WalEntry {
    /// Serializes the entry to the bytes appended to the WAL.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = BytesMut::new();
        match self {
            WalEntry::ServerRegistered {
                server_id,
                kind,
                class,
                addr,
                capacity,
                first_block,
            } => {
                TAG_SERVER_REGISTERED.encode(&mut buf);
                server_id.encode(&mut buf);
                kind.encode(&mut buf);
                class.encode(&mut buf);
                addr.encode(&mut buf);
                capacity.encode(&mut buf);
                first_block.encode(&mut buf);
            }
            WalEntry::NodeCreated {
                path,
                id,
                kind,
                class,
                action,
                extents,
                backups,
            } => {
                TAG_NODE_CREATED.encode(&mut buf);
                path.encode(&mut buf);
                id.encode(&mut buf);
                kind.encode(&mut buf);
                class.encode(&mut buf);
                action.encode(&mut buf);
                extents.encode(&mut buf);
                backups.encode(&mut buf);
            }
            WalEntry::ExtentsAdded {
                node_id,
                extents,
                backups,
            } => {
                TAG_EXTENTS_ADDED.encode(&mut buf);
                node_id.encode(&mut buf);
                extents.encode(&mut buf);
                backups.encode(&mut buf);
            }
            WalEntry::Committed { node_id, commits } => {
                TAG_COMMITTED.encode(&mut buf);
                node_id.encode(&mut buf);
                commits.encode(&mut buf);
            }
            WalEntry::Replaced {
                node_id,
                old_block,
                extent,
                backups,
            } => {
                TAG_REPLACED.encode(&mut buf);
                node_id.encode(&mut buf);
                old_block.encode(&mut buf);
                extent.encode(&mut buf);
                backups.encode(&mut buf);
            }
            WalEntry::Deleted { path } => {
                TAG_DELETED.encode(&mut buf);
                path.encode(&mut buf);
            }
            WalEntry::BackupsSet {
                node_id,
                block,
                backups,
            } => {
                TAG_BACKUPS_SET.encode(&mut buf);
                node_id.encode(&mut buf);
                block.encode(&mut buf);
                backups.encode(&mut buf);
            }
            WalEntry::Promoted {
                node_id,
                old_block,
                new_loc,
            } => {
                TAG_PROMOTED.encode(&mut buf);
                node_id.encode(&mut buf);
                old_block.encode(&mut buf);
                new_loc.encode(&mut buf);
            }
        }
        buf.to_vec()
    }

    /// Deserializes an entry produced by [`WalEntry::encode`].
    ///
    /// # Errors
    ///
    /// Returns a protocol error for unknown tags or malformed bytes — a
    /// corrupt *payload* inside an intact WAL record means the log was
    /// written by an incompatible version, and recovery must stop rather
    /// than guess.
    pub fn decode(payload: &[u8]) -> GliderResult<WalEntry> {
        let mut buf = Bytes::copy_from_slice(payload);
        let tag = u8::decode(&mut buf).map_err(GliderError::from)?;
        let entry = match tag {
            TAG_SERVER_REGISTERED => WalEntry::ServerRegistered {
                server_id: ServerId::decode(&mut buf)?,
                kind: ServerKind::decode(&mut buf)?,
                class: StorageClass::decode(&mut buf)?,
                addr: String::decode(&mut buf)?,
                capacity: u64::decode(&mut buf)?,
                first_block: BlockId::decode(&mut buf)?,
            },
            TAG_NODE_CREATED => WalEntry::NodeCreated {
                path: String::decode(&mut buf)?,
                id: NodeId::decode(&mut buf)?,
                kind: NodeKind::decode(&mut buf)?,
                class: StorageClass::decode(&mut buf)?,
                action: Option::<ActionSpec>::decode(&mut buf)?,
                extents: Vec::<BlockExtent>::decode(&mut buf)?,
                backups: Vec::<(BlockId, Vec<BlockLocation>)>::decode(&mut buf)?,
            },
            TAG_EXTENTS_ADDED => WalEntry::ExtentsAdded {
                node_id: NodeId::decode(&mut buf)?,
                extents: Vec::<BlockExtent>::decode(&mut buf)?,
                backups: Vec::<(BlockId, Vec<BlockLocation>)>::decode(&mut buf)?,
            },
            TAG_COMMITTED => WalEntry::Committed {
                node_id: NodeId::decode(&mut buf)?,
                commits: Vec::<(BlockId, u64)>::decode(&mut buf)?,
            },
            TAG_REPLACED => WalEntry::Replaced {
                node_id: NodeId::decode(&mut buf)?,
                old_block: BlockId::decode(&mut buf)?,
                extent: BlockExtent::decode(&mut buf)?,
                backups: Vec::<BlockLocation>::decode(&mut buf)?,
            },
            TAG_DELETED => WalEntry::Deleted {
                path: String::decode(&mut buf)?,
            },
            TAG_BACKUPS_SET => WalEntry::BackupsSet {
                node_id: NodeId::decode(&mut buf)?,
                block: BlockId::decode(&mut buf)?,
                backups: Vec::<BlockLocation>::decode(&mut buf)?,
            },
            TAG_PROMOTED => WalEntry::Promoted {
                node_id: NodeId::decode(&mut buf)?,
                old_block: BlockId::decode(&mut buf)?,
                new_loc: BlockLocation::decode(&mut buf)?,
            },
            other => {
                return Err(GliderError::protocol(format!(
                    "unknown WAL entry tag {other}"
                )))
            }
        };
        if !buf.is_empty() {
            return Err(GliderError::protocol(format!(
                "{} trailing bytes after WAL entry",
                buf.len()
            )));
        }
        Ok(entry)
    }
}

/// Whether a request mutates durable metadata state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalClass {
    /// The operation's outcome is appended to the WAL before the ack.
    Logged,
    /// The operation is deliberately not logged (read-only, data-plane,
    /// or soft state rebuilt at runtime).
    Waived,
}

/// The durability classification of every request the protocol knows.
///
/// This function is deliberately written as a fully-spelled-out match:
/// `cargo xtask check` checks that every `RequestBody` variant appears
/// here, so adding a request without deciding its durability is a CI
/// failure, not a silent recovery gap.
pub fn wal_class(body: &RequestBody) -> WalClass {
    match body {
        // Namespace/registry mutations: logged as outcome entries.
        RequestBody::CreateNode { .. } => WalClass::Logged,
        RequestBody::DeleteNode { .. } => WalClass::Logged,
        RequestBody::AddBlock { .. } => WalClass::Logged,
        RequestBody::AddBlocks { .. } => WalClass::Logged,
        RequestBody::CommitBlock { .. } => WalClass::Logged,
        RequestBody::CommitBlocks { .. } => WalClass::Logged,
        RequestBody::ReplaceBlock { .. } => WalClass::Logged,
        RequestBody::RegisterServer { .. } => WalClass::Logged,
        // RepairNode mutates, but its effects are logged as the
        // `Promoted`/`BackupsSet` entries it generates.
        RequestBody::RepairNode { .. } => WalClass::Logged,
        // Read-only metadata operations.
        RequestBody::Hello { .. } => WalClass::Waived,
        RequestBody::LookupNode { .. } => WalClass::Waived,
        RequestBody::ListChildren { .. } => WalClass::Waived,
        RequestBody::NodeReplicas { .. } => WalClass::Waived,
        RequestBody::Stats => WalClass::Waived,
        RequestBody::DumpSpans { .. } => WalClass::Waived,
        RequestBody::MetricsSeries => WalClass::Waived,
        // Soft state: liveness is re-learned from heartbeats after a
        // restart; persisting it would only replay stale verdicts.
        RequestBody::Heartbeat { .. } => WalClass::Waived,
        // Data-plane operations never reach the metadata server.
        RequestBody::WriteBlock { .. } => WalClass::Waived,
        RequestBody::ReadBlock { .. } => WalClass::Waived,
        RequestBody::FreeBlocks { .. } => WalClass::Waived,
        RequestBody::ForwardChunk { .. } => WalClass::Waived,
        RequestBody::ReplicateBlock { .. } => WalClass::Waived,
        // Action lifecycle is served by active servers; the metadata
        // side of an action is its node (logged via CreateNode above).
        RequestBody::ActionCreate { .. } => WalClass::Waived,
        RequestBody::ActionDelete { .. } => WalClass::Waived,
        RequestBody::StreamOpen { .. } => WalClass::Waived,
        RequestBody::StreamChunk { .. } => WalClass::Waived,
        RequestBody::StreamChunkBatch { .. } => WalClass::Waived,
        RequestBody::StreamFetch { .. } => WalClass::Waived,
        RequestBody::StreamClose { .. } => WalClass::Waived,
    }
}

/// One node in a snapshot: everything needed to rebuild it with
/// [`glider_namespace::Namespace::restore_node`] +
/// [`glider_namespace::Namespace::restore_extents`].
#[derive(Debug, Clone, PartialEq)]
pub struct NodeRecord {
    /// Absolute path.
    pub path: String,
    /// Node id.
    pub id: NodeId,
    /// Node kind.
    pub kind: NodeKind,
    /// Storage class.
    pub class: StorageClass,
    /// Action parameters.
    pub action: Option<ActionSpec>,
    /// Block chain with committed lengths.
    pub blocks: Vec<BlockExtent>,
    /// Backup replica sets keyed by primary block id.
    pub backups: Vec<(BlockId, Vec<BlockLocation>)>,
}

impl Wire for NodeRecord {
    fn encode(&self, buf: &mut BytesMut) {
        self.path.encode(buf);
        self.id.encode(buf);
        self.kind.encode(buf);
        self.class.encode(buf);
        self.action.encode(buf);
        self.blocks.encode(buf);
        self.backups.encode(buf);
    }

    fn decode(buf: &mut Bytes) -> codec::CodecResult<Self> {
        Ok(NodeRecord {
            path: String::decode(buf)?,
            id: NodeId::decode(buf)?,
            kind: NodeKind::decode(buf)?,
            class: StorageClass::decode(buf)?,
            action: Option::<ActionSpec>::decode(buf)?,
            blocks: Vec::<BlockExtent>::decode(buf)?,
            backups: Vec::<(BlockId, Vec<BlockLocation>)>::decode(buf)?,
        })
    }
}

/// One registered server in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerRecord {
    /// Server id.
    pub id: ServerId,
    /// Data or active.
    pub kind: ServerKind,
    /// The class joined.
    pub class: StorageClass,
    /// Data-plane address.
    pub addr: String,
    /// Blocks contributed.
    pub capacity: u64,
    /// First block of the server's contiguous range.
    pub first_block: BlockId,
}

impl Wire for ServerRecord {
    fn encode(&self, buf: &mut BytesMut) {
        self.id.encode(buf);
        self.kind.encode(buf);
        self.class.encode(buf);
        self.addr.encode(buf);
        self.capacity.encode(buf);
        self.first_block.encode(buf);
    }

    fn decode(buf: &mut Bytes) -> codec::CodecResult<Self> {
        Ok(ServerRecord {
            id: ServerId::decode(buf)?,
            kind: ServerKind::decode(buf)?,
            class: StorageClass::decode(buf)?,
            addr: String::decode(buf)?,
            capacity: u64::decode(buf)?,
            first_block: BlockId::decode(buf)?,
        })
    }
}

/// A full-state snapshot: the registry plus every shard's nodes. Nodes
/// are ordered parents-before-children (by path depth) so restore can
/// apply them in sequence.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Every registered server.
    pub servers: Vec<ServerRecord>,
    /// Per shard: the id allocator's next value and the shard's nodes.
    pub shards: Vec<(u64, Vec<NodeRecord>)>,
}

impl Snapshot {
    /// Serializes the snapshot payload handed to
    /// [`glider_wal::Wal::install_snapshot`].
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = BytesMut::new();
        self.servers.encode(&mut buf);
        (self.shards.len() as u32).encode(&mut buf);
        for (next_id, nodes) in &self.shards {
            next_id.encode(&mut buf);
            nodes.encode(&mut buf);
        }
        buf.to_vec()
    }

    /// Deserializes a payload produced by [`Snapshot::encode`].
    ///
    /// # Errors
    ///
    /// Returns a protocol error on malformed bytes.
    pub fn decode(payload: &[u8]) -> GliderResult<Snapshot> {
        let mut buf = Bytes::copy_from_slice(payload);
        let servers = Vec::<ServerRecord>::decode(&mut buf).map_err(GliderError::from)?;
        let shard_count = u32::decode(&mut buf).map_err(GliderError::from)?;
        let mut shards = Vec::with_capacity(shard_count as usize);
        for _ in 0..shard_count {
            let next_id = u64::decode(&mut buf).map_err(GliderError::from)?;
            let nodes = Vec::<NodeRecord>::decode(&mut buf).map_err(GliderError::from)?;
            shards.push((next_id, nodes));
        }
        if !buf.is_empty() {
            return Err(GliderError::protocol(format!(
                "{} trailing bytes after snapshot",
                buf.len()
            )));
        }
        Ok(Snapshot { servers, shards })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loc(b: u64) -> BlockLocation {
        BlockLocation {
            block_id: BlockId(b),
            server_id: ServerId(2),
            addr: "srv".to_string(),
        }
    }

    fn sample_entries() -> Vec<WalEntry> {
        vec![
            WalEntry::ServerRegistered {
                server_id: ServerId(1),
                kind: ServerKind::Data,
                class: StorageClass::dram(),
                addr: "mem://d0".to_string(),
                capacity: 16,
                first_block: BlockId(1),
            },
            WalEntry::NodeCreated {
                path: "/kv".to_string(),
                id: NodeId(3),
                kind: NodeKind::KeyValue,
                class: StorageClass::dram(),
                action: None,
                extents: vec![BlockExtent {
                    loc: loc(1),
                    len: 0,
                }],
                backups: vec![(BlockId(1), vec![loc(9)])],
            },
            WalEntry::ExtentsAdded {
                node_id: NodeId(3),
                extents: vec![BlockExtent {
                    loc: loc(2),
                    len: 0,
                }],
                backups: vec![],
            },
            WalEntry::Committed {
                node_id: NodeId(3),
                commits: vec![(BlockId(1), 77), (BlockId(2), 0)],
            },
            WalEntry::Replaced {
                node_id: NodeId(3),
                old_block: BlockId(1),
                extent: BlockExtent {
                    loc: loc(5),
                    len: 0,
                },
                backups: vec![loc(6)],
            },
            WalEntry::BackupsSet {
                node_id: NodeId(3),
                block: BlockId(5),
                backups: vec![loc(7)],
            },
            WalEntry::Promoted {
                node_id: NodeId(3),
                old_block: BlockId(5),
                new_loc: loc(7),
            },
            WalEntry::Deleted {
                path: "/kv".to_string(),
            },
        ]
    }

    #[test]
    fn every_entry_round_trips() {
        for entry in sample_entries() {
            let bytes = entry.encode();
            let back = WalEntry::decode(&bytes).unwrap();
            assert_eq!(back, entry);
        }
    }

    #[test]
    fn truncated_and_garbage_payloads_are_errors() {
        for entry in sample_entries() {
            let bytes = entry.encode();
            for cut in 0..bytes.len() {
                assert!(
                    WalEntry::decode(&bytes[..cut]).is_err(),
                    "cut at {cut} decoded"
                );
            }
        }
        assert!(WalEntry::decode(&[0xff, 0, 0]).is_err(), "unknown tag");
        // Trailing bytes are rejected, not silently ignored.
        let mut bytes = WalEntry::Deleted {
            path: "/x".to_string(),
        }
        .encode();
        bytes.push(0);
        assert!(WalEntry::decode(&bytes).is_err());
    }

    #[test]
    fn snapshot_round_trips() {
        let snap = Snapshot {
            servers: vec![ServerRecord {
                id: ServerId(1),
                kind: ServerKind::Data,
                class: StorageClass::dram(),
                addr: "mem://d0".to_string(),
                capacity: 8,
                first_block: BlockId(1),
            }],
            shards: vec![
                (
                    (1 << 40) + 5,
                    vec![NodeRecord {
                        path: "/f".to_string(),
                        id: NodeId(2),
                        kind: NodeKind::File,
                        class: StorageClass::dram(),
                        action: None,
                        blocks: vec![BlockExtent {
                            loc: loc(1),
                            len: 42,
                        }],
                        backups: vec![(BlockId(1), vec![loc(3)])],
                    }],
                ),
                ((2 << 40) + 2, vec![]),
            ],
        };
        let bytes = snap.encode();
        assert_eq!(Snapshot::decode(&bytes).unwrap(), snap);
        assert!(Snapshot::decode(&bytes[..bytes.len() - 1]).is_err());
        assert_eq!(
            Snapshot::decode(&Snapshot::default().encode()).unwrap(),
            Snapshot::default()
        );
    }

    #[test]
    fn mutations_are_logged_reads_are_waived() {
        assert_eq!(
            wal_class(&RequestBody::CreateNode {
                path: "/x".to_string(),
                kind: NodeKind::File,
                storage_class: None,
                action: None,
            }),
            WalClass::Logged
        );
        assert_eq!(
            wal_class(&RequestBody::DeleteNode {
                path: "/x".to_string()
            }),
            WalClass::Logged
        );
        assert_eq!(
            wal_class(&RequestBody::LookupNode {
                path: "/x".to_string()
            }),
            WalClass::Waived
        );
        assert_eq!(
            wal_class(&RequestBody::Heartbeat {
                server_id: ServerId(1)
            }),
            WalClass::Waived
        );
        assert_eq!(wal_class(&RequestBody::Stats), WalClass::Waived);
    }
}
