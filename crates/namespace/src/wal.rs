//! Write-ahead logging of metadata mutations (DESIGN.md §15).
//!
//! Every namespace/registry mutation [`MetaService::apply`] acknowledges
//! is first applied under the shard (or registry) lock and then — still
//! under that lock, *before* the answer is returned — appended to the
//! `glider_wal::Wal` as one [`WalEntry`]. Entries record **outcomes**
//! (assigned ids, allocated locations), not requests, so replay is
//! deterministic: it restores exactly the ids and placements the original
//! execution chose, without re-running the allocator.
//!
//! The state has one *part* per lock: the registry, and each namespace
//! shard. Every record belongs to exactly one part and is appended under
//! that part's lock, so a [`Snapshot`] that reads the log's last LSN
//! while it holds a part's lock records that part's exact *cut*: the
//! part holds every record of its own up to the cut and none past it.
//! [`recover`] rebuilds the state through the mutators [`MetaService`]
//! calls ([`Namespace::create_with_id`],
//! [`ServerRegistry::register_with_ids`], [`Namespace::add_extents`],
//! [`Namespace::commit_block`], …), applying each record to its own part
//! only, and only past that part's cut. No record is applied twice, so
//! replay re-runs the live history, and a record the mutators refuse
//! means a corrupt log.
//!
//! Which requests are logged is the `wal` column of the op table
//! ([`glider_proto::op::Op::wal`]): every request row must state it, and
//! the crate's `tests/persist.rs` checks persist-before-ack by running
//! it: after every call of a seeded history through [`MetaService`], a
//! copy of the log must recover the live state, and every `Logged` row
//! must be seen to ack with a record.
//!
//! [`MetaService`]: crate::service::MetaService
//! [`MetaService::apply`]: crate::service::MetaService::apply

use crate::registry::ServerEntry;
use crate::{shard_of, Namespace, NodePath, ServerRegistry};
use bytes::{Bytes, BytesMut};
use glider_proto::codec::{self, Wire};
use glider_proto::types::{
    ActionSpec, BlockExtent, BlockId, BlockLocation, NodeId, NodeKind, ServerId, ServerKind,
    StorageClass,
};
use glider_proto::{GliderError, GliderResult};
use std::collections::HashSet;
use std::time::Instant;

glider_proto::wire_type! {
    /// One durable metadata mutation, recorded after it was applied in
    /// memory and before it is acknowledged to the client.
    #[derive(Debug, Clone, PartialEq)]
    pub enum WalEntry ("unknown WAL entry tag") {
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
        } = 0,
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
        } = 1,
        /// Blocks appended to a node's chain (`AddBlocks`).
        ExtentsAdded {
            /// Owning node.
            node_id: NodeId,
            /// The appended extents in chain order.
            extents: Vec<BlockExtent>,
            /// Backup replica sets keyed by primary block id.
            backups: Vec<(BlockId, Vec<BlockLocation>)>,
        } = 2,
        /// Committed lengths (`CommitBlocks`).
        Committed {
            /// Owning node.
            node_id: NodeId,
            /// `(block, len)` pairs in application order.
            commits: Vec<(BlockId, u64)>,
        } = 3,
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
        } = 4,
        /// A recursive delete of the subtree at `path`.
        Deleted {
            /// Root of the removed subtree.
            path: String,
        } = 5,
        /// A backup replica set was (re)assigned to a primary block.
        BackupsSet {
            /// Owning node.
            node_id: NodeId,
            /// Primary block.
            block: BlockId,
            /// The new backup set (empty clears it).
            backups: Vec<BlockLocation>,
        } = 6,
        /// A backup was promoted to primary after its primary's server died;
        /// the committed length is preserved.
        Promoted {
            /// Owning node.
            node_id: NodeId,
            /// The dead primary.
            old_block: BlockId,
            /// The promoted backup's location.
            new_loc: BlockLocation,
        } = 7,
    }
}

impl WalEntry {
    /// Serializes the entry to the bytes appended to the WAL.
    pub fn encode(&self) -> Vec<u8> {
        codec::to_bytes(self).to_vec()
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
        let entry = <WalEntry as Wire>::decode(&mut buf)?;
        if !buf.is_empty() {
            return Err(GliderError::protocol(format!(
                "{} trailing bytes after WAL entry",
                buf.len()
            )));
        }
        Ok(entry)
    }

    /// The variant name of the encoded entry `record`, for recovery errors.
    fn kind(record: &[u8]) -> &'static str {
        let tag = record.first().copied();
        let row = Self::ROWS.iter().find(|row| Some(row.1) == tag);
        row.map_or("undecodable", |row| row.0)
    }
}

glider_proto::wire_type! {
    /// One node in a snapshot: everything needed to rebuild it with
    /// [`Namespace::create_with_id`], [`Namespace::add_extents`],
    /// [`Namespace::commit_block`] and [`Namespace::set_backups`].
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
}

glider_proto::wire_type! {
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
}

/// Leads every snapshot payload. A snapshot written before per-part cuts
/// starts with its server count as a little-endian `u32`; read that way,
/// this tag counts 4 294 901 762 servers, more than any payload can hold,
/// so such a snapshot is refused, never read.
const SNAPSHOT_FORMAT: u32 = 0xffff_0002;

/// A full-state snapshot: the registry plus every shard's nodes, and the
/// cut of each of these parts. Nodes are ordered parents-before-children
/// (by path depth) so restore can apply them in sequence.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Each part's cut: the LSN of the last record the part holds. The
    /// registry's comes first, then shard `s`'s at index `1 + s`.
    pub cuts: Vec<u64>,
    /// Every registered server, in id order.
    pub servers: Vec<ServerRecord>,
    /// Per shard: the id allocator's next value and the shard's nodes.
    pub shards: Vec<(u64, Vec<NodeRecord>)>,
}

impl Snapshot {
    /// Serializes the snapshot payload handed to
    /// `glider_wal::Wal::install_snapshot`.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = BytesMut::new();
        SNAPSHOT_FORMAT.encode(&mut buf);
        self.cuts.encode(&mut buf);
        self.servers.encode(&mut buf);
        self.shards.encode(&mut buf);
        buf.to_vec()
    }

    /// Deserializes a payload produced by [`Snapshot::encode`].
    ///
    /// # Errors
    ///
    /// Returns a protocol error on malformed bytes, and on a payload
    /// without the format tag (a snapshot written before per-part cuts).
    pub fn decode(payload: &[u8]) -> GliderResult<Snapshot> {
        let mut buf = Bytes::copy_from_slice(payload);
        let tag = u32::decode(&mut buf).map_err(GliderError::from)?;
        if tag != SNAPSHOT_FORMAT {
            return Err(GliderError::protocol(format!(
                "snapshot format tag {tag:#x} is not {SNAPSHOT_FORMAT:#x}: a snapshot written \
                 before per-part cuts cannot be read"
            )));
        }
        let snap = Snapshot {
            cuts: Vec::decode(&mut buf)?,
            servers: Vec::decode(&mut buf)?,
            shards: Vec::decode(&mut buf)?,
        };
        if !buf.is_empty() {
            return Err(GliderError::protocol(format!(
                "{} trailing bytes after snapshot",
                buf.len()
            )));
        }
        Ok(snap)
    }

    /// One shard's part of a snapshot: the id allocator's next value and
    /// every node but the root, parents before children (by depth, then
    /// path) — the order [`recover`] re-links them in.
    pub fn shard(ns: &Namespace) -> (u64, Vec<NodeRecord>) {
        let mut nodes: Vec<NodeRecord> = ns
            .nodes()
            .filter(|n| !n.path.is_root())
            .map(|n| NodeRecord {
                path: n.path.as_str().to_string(),
                id: n.id,
                kind: n.kind,
                class: n.storage_class.clone(),
                action: n.action.clone(),
                blocks: n.blocks.clone(),
                backups: n.backups.iter().map(|(k, v)| (*k, v.clone())).collect(),
            })
            .collect();
        nodes.sort_by(|a, b| {
            (a.path.matches('/').count(), &a.path).cmp(&(b.path.matches('/').count(), &b.path))
        });
        (ns.next_id(), nodes)
    }
}

impl From<&ServerEntry> for ServerRecord {
    fn from(s: &ServerEntry) -> Self {
        ServerRecord {
            id: s.id,
            kind: s.kind,
            class: s.class.clone(),
            addr: s.addr.clone(),
            capacity: s.capacity,
            first_block: s.first_block,
        }
    }
}

/// Bits of a [`NodeId`] below the shard index: shard `s` mints node ids
/// from `(s << 40) + 1`.
const SHARD_ID_SHIFT: u32 = 40;

/// The namespace shard that minted `id`. An id no shard minted can map
/// past the last shard; callers range-check the index.
pub fn shard_of_id(id: NodeId) -> usize {
    (id.0 >> SHARD_ID_SHIFT) as usize
}

/// Rebuilds a metadata server's `shard_count` namespace shards and its
/// registry from the newest snapshot (if any) and the log past it, whose
/// records are numbered from `covered_lsn + 1` (`covered_lsn` is the
/// WAL's, 0 without a snapshot). With neither, the result is a fresh
/// server. Every recovered server's lease starts at `now`.
///
/// Each record runs through the mutators the live server called, on its
/// own part only, and only when its LSN is past that part's cut. Last,
/// the allocator's free lists are reconciled with the blocks the
/// namespace holds.
///
/// # Errors
///
/// - a protocol error for undecodable bytes, including a snapshot written
///   before per-part cuts,
/// - [`InvalidArgument`](glider_proto::ErrorCode::InvalidArgument) when
///   the snapshot or the log was written under a different shard count
///   (a node's path and id route to different shards), or when a part's
///   cut is below `covered_lsn` (the log no longer holds records that
///   part needs),
/// - the error of the first record a mutator refuses, with its code and
///   the record's LSN and kind: replay re-runs the live history, so such
///   a record means a corrupt log.
pub fn recover<'a>(
    now: Instant,
    shard_count: usize,
    snapshot: Option<&[u8]>,
    covered_lsn: u64,
    records: impl IntoIterator<Item = &'a [u8]>,
) -> GliderResult<(Vec<Namespace>, ServerRegistry)> {
    let mut state = Recovery {
        shards: (0..shard_count as u64)
            .map(|s| Namespace::with_id_base(s << SHARD_ID_SHIFT))
            .collect(),
        reg: ServerRegistry::new(),
        cuts: vec![0; shard_count + 1],
        now,
    };
    if let Some(payload) = snapshot {
        state.restore(Snapshot::decode(payload)?)?;
    }
    if let Some(part) = state.cuts.iter().position(|&cut| cut < covered_lsn) {
        return Err(GliderError::invalid(format!(
            "snapshot part {part} ends below LSN {covered_lsn}, after which the log resumes"
        )));
    }
    for (lsn, record) in (covered_lsn + 1..).zip(records) {
        let at = |kind: &str, e: GliderError| {
            GliderError::new(
                e.code(),
                format!("wal record {lsn} ({kind}): {}", e.message()),
            )
        };
        let entry = WalEntry::decode(record).map_err(|e| at("undecodable", e))?;
        state
            .replay(lsn, entry)
            .map_err(|e| at(WalEntry::kind(record), e))?;
    }
    let Recovery {
        shards, mut reg, ..
    } = state;
    let mut held = HashSet::new();
    for node in shards.iter().flat_map(Namespace::nodes) {
        let backups = node.backups.values().flatten();
        let blocks = node.blocks.iter().map(|e| &e.loc).chain(backups);
        held.extend(blocks.map(|l| l.block_id));
    }
    reg.reconcile(&held);
    Ok((shards, reg))
}

/// The state [`recover`] builds.
struct Recovery {
    shards: Vec<Namespace>,
    reg: ServerRegistry,
    /// Each part's cut, indexed as [`Snapshot::cuts`].
    cuts: Vec<u64>,
    /// When recovery runs: every server's lease starts here.
    now: Instant,
}

impl Recovery {
    /// Loads a snapshot into the fresh state: its cuts, every server,
    /// then every node.
    fn restore(&mut self, snap: Snapshot) -> GliderResult<()> {
        if snap.shards.len() != self.shards.len() || snap.cuts.len() != self.cuts.len() {
            return Err(GliderError::invalid(format!(
                "snapshot holds {} shards and {} cuts but the server is configured with {} \
                 shards",
                snap.shards.len(),
                snap.cuts.len(),
                self.shards.len()
            )));
        }
        self.cuts = snap.cuts;
        for s in snap.servers {
            self.reg.register_with_ids(
                self.now,
                s.id,
                s.first_block,
                s.kind,
                s.class,
                s.addr,
                s.capacity,
            )?;
        }
        for (shard, (next_id, nodes)) in snap.shards.into_iter().enumerate() {
            for rec in nodes {
                let minted = shard_of_id(rec.id);
                if minted != shard {
                    return Err(GliderError::invalid(format!(
                        "snapshot node {} ({}) sits in shard {shard} but its id maps to \
                         shard {minted}",
                        rec.id, rec.path
                    )));
                }
                self.create(rec)?;
            }
            self.shard(shard)?.observe_next_id(next_id);
        }
        Ok(())
    }

    /// Shard `idx`, or `NotFound` for an id minted elsewhere.
    fn shard(&mut self, idx: usize) -> GliderResult<&mut Namespace> {
        self.shards
            .get_mut(idx)
            .ok_or_else(|| GliderError::not_found(format!("shard {idx}")))
    }

    /// The shard holding node `id`.
    fn shard_for_id(&mut self, id: NodeId) -> GliderResult<&mut Namespace> {
        self.shard(shard_of_id(id))
    }

    /// Applies record `lsn` unless its part's cut already covers it.
    fn replay(&mut self, lsn: u64, entry: WalEntry) -> GliderResult<()> {
        let part = match &entry {
            WalEntry::ServerRegistered { .. } => 0,
            WalEntry::NodeCreated { path, .. } | WalEntry::Deleted { path } => {
                1 + shard_of(path, self.shards.len())
            }
            WalEntry::ExtentsAdded { node_id, .. }
            | WalEntry::Committed { node_id, .. }
            | WalEntry::Replaced { node_id, .. }
            | WalEntry::BackupsSet { node_id, .. }
            | WalEntry::Promoted { node_id, .. } => 1 + shard_of_id(*node_id),
        };
        if self.cuts.get(part).is_some_and(|&cut| lsn <= cut) {
            return Ok(());
        }
        self.apply(entry)
    }

    /// Creates a node under its recorded id and rebuilds its chain: a
    /// snapshot node and a `NodeCreated` record both come through here.
    fn create(&mut self, rec: NodeRecord) -> GliderResult<()> {
        let path = NodePath::parse(&rec.path)?;
        let by_path = shard_of(path.as_str(), self.shards.len());
        let by_id = shard_of_id(rec.id);
        if by_path != by_id {
            return Err(GliderError::invalid(format!(
                "node {} at {path} routes to shard {by_path} by path but to shard {by_id} by \
                 id: the log was written under another shard count",
                rec.id
            )));
        }
        let ns = self.shard(by_id)?;
        ns.create_with_id(rec.id, path, rec.kind, Some(rec.class), rec.action)?;
        extend(ns, rec.id, rec.blocks, rec.backups)
    }

    /// Applies one record through the live mutators.
    fn apply(&mut self, entry: WalEntry) -> GliderResult<()> {
        match entry {
            WalEntry::ServerRegistered {
                server_id,
                kind,
                class,
                addr,
                capacity,
                first_block,
            } => self.reg.register_with_ids(
                self.now,
                server_id,
                first_block,
                kind,
                class,
                addr,
                capacity,
            ),
            WalEntry::NodeCreated {
                path,
                id,
                kind,
                class,
                action,
                extents,
                backups,
            } => self.create(NodeRecord {
                path,
                id,
                kind,
                class,
                action,
                blocks: extents,
                backups,
            }),
            WalEntry::ExtentsAdded {
                node_id,
                extents,
                backups,
            } => extend(self.shard_for_id(node_id)?, node_id, extents, backups),
            WalEntry::Committed { node_id, commits } => {
                let ns = self.shard_for_id(node_id)?;
                for (block, len) in commits {
                    ns.commit_block(node_id, block, len)?;
                }
                Ok(())
            }
            WalEntry::Replaced {
                node_id,
                old_block,
                extent,
                backups,
            } => {
                let ns = self.shard_for_id(node_id)?;
                let new_block = extent.loc.block_id;
                ns.replace_extent(node_id, old_block, extent.loc)?;
                if backups.is_empty() {
                    return Ok(());
                }
                ns.set_backups(node_id, new_block, backups)
            }
            WalEntry::Deleted { path } => {
                let path = NodePath::parse(&path)?;
                let shard = shard_of(path.as_str(), self.shards.len());
                self.shard(shard)?.delete(&path).map(drop)
            }
            WalEntry::BackupsSet {
                node_id,
                block,
                backups,
            } => self
                .shard_for_id(node_id)?
                .set_backups(node_id, block, backups),
            WalEntry::Promoted {
                node_id,
                old_block,
                new_loc,
            } => self
                .shard_for_id(node_id)?
                .promote_extent(node_id, old_block, new_loc)
                .map(drop),
        }
    }
}

/// Appends `extents` to node `id`'s chain with the calls that built it
/// live: [`Namespace::add_extents`], [`Namespace::commit_block`] for each
/// committed length (a snapshot's chain; a logged append is uncommitted),
/// then [`Namespace::set_backups`]. A container takes no `add_extents`
/// call, not even an empty one, just as the live server makes none.
fn extend(
    ns: &mut Namespace,
    id: NodeId,
    extents: Vec<BlockExtent>,
    backups: Vec<(BlockId, Vec<BlockLocation>)>,
) -> GliderResult<()> {
    if !extents.is_empty() {
        ns.add_extents(id, extents.iter().map(|e| e.loc.clone()).collect())?;
    }
    for e in extents.into_iter().filter(|e| e.len > 0) {
        ns.commit_block(id, e.loc.block_id, e.len)?;
    }
    for (block, locs) in backups {
        ns.set_backups(id, block, locs)?;
    }
    Ok(())
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
        let err = WalEntry::decode(&[0xff, 0, 0]).unwrap_err();
        assert_eq!(err.message(), "unknown WAL entry tag 255");
        // Trailing bytes are rejected, not silently ignored.
        let mut bytes = WalEntry::Deleted {
            path: "/x".to_string(),
        }
        .encode();
        bytes.push(0);
        let err = WalEntry::decode(&bytes).unwrap_err();
        assert_eq!(err.message(), "1 trailing bytes after WAL entry");
    }

    fn sample_snapshot() -> Snapshot {
        Snapshot {
            cuts: vec![9, 7, 12],
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
        }
    }

    #[test]
    fn snapshot_round_trips() {
        let snap = sample_snapshot();
        let bytes = snap.encode();
        assert_eq!(Snapshot::decode(&bytes).unwrap(), snap);
        for cut in 0..bytes.len() {
            assert!(Snapshot::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        assert_eq!(
            Snapshot::decode(&Snapshot::default().encode()).unwrap(),
            Snapshot::default()
        );
    }

    /// The on-disk format, pinned: one encoding of every [`WalEntry`]
    /// variant (in `sample_entries` order) and one [`Snapshot`]. A change
    /// here breaks every log and snapshot already on disk.
    #[test]
    fn golden_encodings_are_pinned() {
        const ENTRIES: [&str; 8] = [
            "00010000000000000000040000006472616d080000006d656d3a2f2f64301000\
            0000000000000100000000000000",
            "01030000002f6b76030000000000000002040000006472616d00010000000100\
            0000000000000200000000000000030000007372760000000000000000010000\
            0001000000000000000100000009000000000000000200000000000000030000\
            00737276",
            "0203000000000000000100000002000000000000000200000000000000030000\
            00737276000000000000000000000000",
            "0303000000000000000200000001000000000000004d00000000000000020000\
            00000000000000000000000000",
            "0403000000000000000100000000000000050000000000000002000000000000\
            0003000000737276000000000000000001000000060000000000000002000000\
            0000000003000000737276",
            "0603000000000000000500000000000000010000000700000000000000020000\
            000000000003000000737276",
            "0703000000000000000500000000000000070000000000000002000000000000\
            0003000000737276",
            "05030000002f6b76",
        ];
        const SNAPSHOT: &str = "0200ffff03000000090000000000000007000000000000000c00000000000000\
            01000000010000000000000000040000006472616d080000006d656d3a2f2f64\
            3008000000000000000100000000000000020000000500000000010000010000\
            00020000002f66020000000000000000040000006472616d0001000000010000\
            00000000000200000000000000030000007372762a0000000000000001000000\
            0100000000000000010000000300000000000000020000000000000003000000\
            737276020000000002000000000000";
        let hex = |bytes: Vec<u8>| -> String { bytes.iter().map(|b| format!("{b:02x}")).collect() };
        let entries: Vec<String> = sample_entries().iter().map(|e| hex(e.encode())).collect();
        assert_eq!(entries, ENTRIES);
        assert_eq!(hex(sample_snapshot().encode()), SNAPSHOT);
    }

    /// `sample_snapshot` as the format before per-part cuts wrote it: no
    /// tag, no cuts, the server count first.
    const PRE_CUT_SNAPSHOT: &str =
        "01000000010000000000000000040000006472616d080000006d656d3a2f2f64\
        3008000000000000000100000000000000020000000500000000010000010000\
        00020000002f66020000000000000000040000006472616d0001000000010000\
        00000000000200000000000000030000007372762a0000000000000001000000\
        0100000000000000010000000300000000000000020000000000000003000000\
        737276020000000002000000000000";

    #[test]
    fn a_snapshot_from_before_per_part_cuts_is_refused() {
        let unhex = |hex: &str| -> Vec<u8> {
            let digits: Vec<u8> = hex.bytes().filter(u8::is_ascii_hexdigit).collect();
            digits
                .chunks(2)
                .map(|d| u8::from_str_radix(std::str::from_utf8(d).unwrap(), 16).unwrap())
                .collect()
        };
        for old in [unhex(PRE_CUT_SNAPSHOT), vec![0; 8]] {
            let err = Snapshot::decode(&old).unwrap_err();
            assert!(err.message().contains("before per-part cuts"), "{err}");
            let err = recover(Instant::now(), 2, Some(&old), 0, []).unwrap_err();
            assert!(err.message().contains("before per-part cuts"), "{err}");
        }
    }
}
