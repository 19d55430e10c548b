//! The Glider metadata server.
//!
//! Metadata servers (paper §4.1) administer the hierarchical namespace and
//! the fleet of blocks: storage servers register their capacity here, and
//! clients resolve paths, create/delete nodes, and ask for blocks to be
//! appended to node chains. Structure operations execute entirely at the
//! metadata server; data operations go directly to storage servers using
//! the locations returned from lookups.
//!
//! Glider's additions (§4.2/§5) are visible here as:
//!
//! - the **active storage class**: action nodes always allocate their
//!   single block (an *action slot*) from servers registered in the
//!   `active` class;
//! - **action bookkeeping**: creating an action node atomically reserves
//!   its slot so a client needs exactly one metadata round trip before
//!   talking to the active server (the paper's "each client only needs to
//!   contact the metadata server once").
//!
//! The server is a thin RPC shell over the pure structures in
//! `glider-namespace`. State is split for concurrency (λFS-style): the
//! block allocator ([`glider_namespace::ServerRegistry`]) has its own
//! mutex, and the namespace tree is sharded by top-level path component
//! using the same FNV-1a hash clients use for partition routing
//! ([`glider_namespace::shard_of`]), so clients working under distinct
//! top-level directories never contend on one lock. Shard locks are
//! always taken before the registry lock, and at most one shard lock is
//! held at a time, so the ordering is deadlock-free by construction.
//!
//! Batched allocation (`AddBlocks`) and batched commit (`CommitBlocks`)
//! are served under a single shard-lock acquisition; a batch that cannot
//! be applied rolls back atomically (allocated blocks return to the
//! registry, the chain is untouched).

pub mod wal;

use crate::wal::{NodeRecord, ServerRecord, Snapshot, WalEntry};
use futures::future::BoxFuture;
use glider_metrics::{MetricsRegistry, Tier};
use glider_namespace::{shard_of, Liveness, Namespace, NodePath, ServerRegistry};
use glider_net::rpc::{ConnCtx, RpcClient, RpcHandler, ServerHandle};
use glider_proto::message::{RequestBody, ResponseBody};
use glider_proto::types::{
    BlockExtent, BlockId, BlockLocation, NodeId, NodeKind, ReplicaExtent, ServerId, StorageClass,
};
use glider_proto::{ErrorCode, GliderError, GliderResult};
use glider_util::lockorder::{LockRank, OrderedMutex};
use glider_wal::{FsyncPolicy, Wal, WalOptions};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Default number of namespace shards per metadata server.
pub const DEFAULT_NAMESPACE_SHARDS: usize = 8;

/// Bits of a `NodeId` reserved below the shard index: shard `s` of a
/// server with id base `b` mints node ids in `b + (s << 40) + 1 ..`.
const SHARD_ID_SHIFT: u32 = 40;

/// Default heartbeat lease. Long enough that test clusters which never
/// send heartbeats stay `Live` for a whole test run; chaos setups shrink
/// it via [`MetadataOptions::with_lease`].
pub const DEFAULT_LEASE: Duration = Duration::from_secs(3);

/// A running metadata server.
///
/// Dropping the handle stops the server.
///
/// # Examples
///
/// ```no_run
/// # async fn demo() -> glider_proto::GliderResult<()> {
/// use glider_metadata::MetadataServer;
/// use glider_metrics::MetricsRegistry;
///
/// let metrics = MetricsRegistry::new();
/// let server = MetadataServer::start("127.0.0.1:0", metrics).await?;
/// println!("metadata at {}", server.addr());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MetadataServer {
    handle: ServerHandle,
    sweeper: tokio::task::JoinHandle<()>,
}

/// Tuning options for a metadata server.
#[derive(Debug, Clone)]
pub struct MetadataOptions {
    /// Storage-class fallback chain: when the keyed class has no free
    /// blocks, allocation retries on the mapped class (transitively).
    /// This is the paper's "preferred DRAM tier that falls back to an
    /// NVMe tier when full" (§4.1).
    pub class_fallbacks: std::collections::HashMap<StorageClass, StorageClass>,
    /// Base offset for the ids (server/block/node) this server assigns.
    /// When several metadata servers partition one namespace (paper §4.1
    /// footnote: "metadata servers may distribute their work by
    /// partitioning the namespaces"), distinct bases keep ids globally
    /// unique.
    pub id_base: u64,
    /// Number of independently locked namespace shards (≥ 1). Paths are
    /// routed to shards by their top-level component with the same hash
    /// clients use for partition routing, so one subtree is always served
    /// under one lock.
    pub namespace_shards: usize,
    /// Test hook: added latency before every block-allocation RPC
    /// (`AddBlock`/`AddBlocks`), applied outside any lock. Lets tests
    /// prove that client-side prefetching hides allocation latency.
    pub alloc_delay: Option<Duration>,
    /// Heartbeat lease (DESIGN.md §10): a storage/active server silent for
    /// one lease becomes `Suspect`, for two leases `Dead`. The background
    /// sweeper runs every quarter lease.
    pub lease: Duration,
    /// Durability: when set, every metadata mutation is written to a WAL
    /// in this directory before it is acknowledged, and the server
    /// recovers its namespace from snapshot + log on start (DESIGN.md
    /// §15). `None` (the default) keeps the pre-WAL purely-in-memory
    /// behavior.
    pub wal: Option<WalConfig>,
    /// Replicas per block (primary included). The default `1` means
    /// unreplicated — identical to the pre-replication behavior. With a
    /// factor of `f > 1`, every allocation returns a primary plus `f-1`
    /// backups on distinct servers, and block RPC answers switch to
    /// `ReplicatedBlocks`.
    pub replication_factor: u32,
}

/// WAL tuning for a metadata server (see [`MetadataOptions::wal`]).
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory holding segments and snapshots. Created if absent.
    pub dir: PathBuf,
    /// Flush policy; `Always` is the default (lose nothing).
    pub fsync: FsyncPolicy,
    /// Install a snapshot and compact the log once this many records
    /// accumulate past the previous snapshot.
    pub snapshot_every: u64,
}

impl WalConfig {
    /// A config with `Always` fsync and a 512-record snapshot cadence.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        WalConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::Always,
            snapshot_every: 512,
        }
    }
}

impl Default for MetadataOptions {
    fn default() -> Self {
        MetadataOptions {
            class_fallbacks: std::collections::HashMap::new(),
            id_base: 0,
            namespace_shards: DEFAULT_NAMESPACE_SHARDS,
            alloc_delay: None,
            lease: DEFAULT_LEASE,
            wal: None,
            replication_factor: 1,
        }
    }
}

impl MetadataOptions {
    /// Adds a fallback edge (`from` exhausted → allocate on `to`).
    #[must_use]
    pub fn with_fallback(mut self, from: StorageClass, to: StorageClass) -> Self {
        self.class_fallbacks.insert(from, to);
        self
    }

    /// Sets the id base (use `partition_index << 48`).
    #[must_use]
    pub fn with_id_base(mut self, base: u64) -> Self {
        self.id_base = base;
        self
    }

    /// Sets the namespace shard count, clamped to `1..=64`.
    #[must_use]
    pub fn with_namespace_shards(mut self, shards: usize) -> Self {
        self.namespace_shards = shards.clamp(1, 64);
        self
    }

    /// Injects latency before allocation RPCs (test hook).
    #[must_use]
    pub fn with_alloc_delay(mut self, delay: Duration) -> Self {
        self.alloc_delay = Some(delay);
        self
    }

    /// Sets the heartbeat lease (chaos tests shrink it to fail over in
    /// milliseconds instead of seconds).
    #[must_use]
    pub fn with_lease(mut self, lease: Duration) -> Self {
        self.lease = lease;
        self
    }

    /// Enables WAL-backed durability with `Always` fsync (see
    /// [`WalConfig::new`]).
    #[must_use]
    pub fn with_wal(mut self, dir: impl Into<PathBuf>) -> Self {
        self.wal = Some(WalConfig::new(dir));
        self
    }

    /// Enables WAL-backed durability with an explicit config.
    #[must_use]
    pub fn with_wal_config(mut self, config: WalConfig) -> Self {
        self.wal = Some(config);
        self
    }

    /// Sets the replication factor (primary included), clamped to `>= 1`.
    #[must_use]
    pub fn with_replication(mut self, factor: u32) -> Self {
        self.replication_factor = factor.max(1);
        self
    }
}

impl MetadataServer {
    /// Binds `addr` and starts serving the metadata plane with default
    /// options.
    ///
    /// # Errors
    ///
    /// Returns an error if the listener cannot be bound.
    pub async fn start(addr: &str, metrics: Arc<MetricsRegistry>) -> GliderResult<Self> {
        MetadataServer::start_with_options(addr, metrics, MetadataOptions::default()).await
    }

    /// Binds `addr` and starts serving with explicit [`MetadataOptions`].
    ///
    /// # Errors
    ///
    /// Returns an error if the listener cannot be bound.
    pub async fn start_with_options(
        addr: &str,
        metrics: Arc<MetricsRegistry>,
        options: MetadataOptions,
    ) -> GliderResult<Self> {
        let listener = glider_net::conn::bind(addr).await?;
        let shard_count = options.namespace_shards.clamp(1, 64);
        let mut plain_shards: Vec<Namespace> = (0..shard_count)
            .map(|s| Namespace::with_id_base(options.id_base + ((s as u64) << SHARD_ID_SHIFT)))
            .collect();
        let mut plain_reg = ServerRegistry::with_id_base(options.id_base);
        // Crash recovery: restore the newest snapshot, replay the log past
        // it, then reconcile the allocator's free lists against what the
        // recovered namespace actually holds.
        let wal = match &options.wal {
            None => None,
            Some(cfg) => {
                let (wal, replay) = Wal::open(WalOptions::new(&cfg.dir).with_fsync(cfg.fsync))
                    .map_err(|e| GliderError::unavailable(format!("wal open failed: {e}")))?;
                if let Some(snapshot) = &replay.snapshot {
                    restore_snapshot(
                        &mut plain_shards,
                        &mut plain_reg,
                        &Snapshot::decode(snapshot)?,
                    )?;
                }
                for record in &replay.records {
                    let entry = WalEntry::decode(record)?;
                    if let Err(e) =
                        apply_wal_entry(&mut plain_shards, &mut plain_reg, options.id_base, entry)
                    {
                        // NotFound means a later record (a delete, a
                        // replace) superseded this one, or the snapshot
                        // already covers it — exactly as it played out
                        // live. Anything else is real corruption.
                        if e.code() != ErrorCode::NotFound {
                            return Err(e);
                        }
                    }
                }
                for ns in &plain_shards {
                    for node in ns.nodes() {
                        for extent in &node.blocks {
                            plain_reg.mark_allocated(extent.loc.block_id);
                        }
                        for loc in node.backups.values().flatten() {
                            plain_reg.mark_allocated(loc.block_id);
                        }
                    }
                }
                Some(wal)
            }
        };
        let shards = plain_shards
            .into_iter()
            .map(|ns| OrderedMutex::new(LockRank::NamespaceShard, ns))
            .collect();
        let lease = options.lease;
        let handler = Arc::new(MetadataHandler {
            shards,
            reg: OrderedMutex::new(LockRank::Registry, plain_reg),
            wal,
            options,
            metrics: Arc::clone(&metrics),
        });
        // Lease sweeper: walks the registry every quarter lease, demoting
        // silent servers Suspect -> Dead, publishing the census so the
        // Stats RPC (answered from `metrics`) reports it, and logging each
        // transition into the flight recorder's structured event log so a
        // `DumpSpans` query can pin down *when* a server was demoted.
        let sweep_handler = Arc::clone(&handler);
        let sweeper = tokio::spawn(async move {
            let interval = (lease / 4).max(Duration::from_millis(10));
            loop {
                tokio::time::sleep(interval).await;
                let ((live, suspect, dead), transitions) =
                    sweep_handler.reg.lock().sweep_with_transitions(lease);
                sweep_handler
                    .metrics
                    .set_server_liveness(live, suspect, dead);
                for (addr, from, to) in transitions {
                    let kind = match to {
                        Liveness::Suspect => "server.suspect",
                        Liveness::Dead => "server.dead",
                        Liveness::Live => "server.live",
                    };
                    let op = match from {
                        Liveness::Live => "from-live",
                        Liveness::Suspect => "from-suspect",
                        Liveness::Dead => "from-dead",
                    };
                    glider_trace::structured_event(kind, op, &addr, 0, 0);
                }
                // Durability plane upkeep: re-replicate extents that lost
                // copies to dead servers, publish WAL/replication gauges,
                // and snapshot + compact the log when it grows.
                sweep_handler.maintenance().await;
            }
        });
        let handle = glider_net::rpc::serve(listener, handler, metrics, Tier::Storage);
        Ok(MetadataServer { handle, sweeper })
    }

    /// The dialable address of this server.
    pub fn addr(&self) -> &str {
        self.handle.addr()
    }

    /// Stops the server.
    pub fn shutdown(&self) {
        self.sweeper.abort();
        self.handle.shutdown();
    }
}

impl Drop for MetadataServer {
    fn drop(&mut self) {
        self.sweeper.abort();
    }
}

/// Allocates a block from `class`, walking the configured fallback chain
/// when a class is out of capacity.
fn allocate_with_fallback(
    reg: &mut ServerRegistry,
    fallbacks: &std::collections::HashMap<StorageClass, StorageClass>,
    class: &StorageClass,
) -> GliderResult<BlockLocation> {
    let mut current = class.clone();
    let mut hops = 0;
    loop {
        match reg.allocate(&current) {
            Ok(loc) => return Ok(loc),
            Err(e) if matches!(e.code(), ErrorCode::OutOfCapacity | ErrorCode::NotFound) => {
                match fallbacks.get(&current) {
                    // Cap hops to tolerate accidental fallback cycles.
                    Some(next) if hops < 8 => {
                        current = next.clone();
                        hops += 1;
                    }
                    _ => return Err(e),
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// Routes a WAL entry's node id back to the owning shard during replay
/// (same shard-bit arithmetic as the live handler).
fn replay_shard_mut(
    shards: &mut [Namespace],
    id_base: u64,
    id: NodeId,
) -> GliderResult<&mut Namespace> {
    let idx = (id.0.wrapping_sub(id_base) >> SHARD_ID_SHIFT) as usize;
    shards
        .get_mut(idx)
        .ok_or_else(|| GliderError::not_found(format!("node {id}")))
}

/// Applies one recovered WAL entry to the in-memory state. All the
/// namespace primitives used here are idempotent, so overlap between the
/// snapshot and the log is harmless; `NotFound` is the caller's signal
/// that a later entry superseded this one.
fn apply_wal_entry(
    shards: &mut [Namespace],
    reg: &mut ServerRegistry,
    id_base: u64,
    entry: WalEntry,
) -> GliderResult<()> {
    match entry {
        WalEntry::ServerRegistered {
            server_id,
            kind,
            class,
            addr,
            capacity,
            first_block,
        } => {
            reg.restore_register(server_id, kind, class, addr, capacity, first_block);
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
            let path = NodePath::parse(&path)?;
            let idx = shard_of(path.as_str(), shards.len());
            let ns = shards
                .get_mut(idx)
                .ok_or_else(|| GliderError::not_found(format!("shard for {path}")))?;
            ns.restore_node(path, id, kind, class, action)?;
            ns.restore_extents(id, extents)?;
            for (block, locs) in backups {
                ns.set_backups(id, block, locs)?;
            }
        }
        WalEntry::ExtentsAdded {
            node_id,
            extents,
            backups,
        } => {
            let ns = replay_shard_mut(shards, id_base, node_id)?;
            ns.restore_extents(node_id, extents)?;
            for (block, locs) in backups {
                ns.set_backups(node_id, block, locs)?;
            }
        }
        WalEntry::Committed { node_id, commits } => {
            let ns = replay_shard_mut(shards, id_base, node_id)?;
            for (block, len) in commits {
                ns.commit_block(node_id, block, len)?;
            }
        }
        WalEntry::Replaced {
            node_id,
            old_block,
            extent,
            backups,
        } => {
            let ns = replay_shard_mut(shards, id_base, node_id)?;
            let already = ns.get(node_id).is_some_and(|n| {
                n.blocks
                    .iter()
                    .any(|b| b.loc.block_id == extent.loc.block_id)
            });
            if !already {
                ns.replace_extent(node_id, old_block, extent.loc.clone())?;
                if let Some(node) = ns.get_mut(node_id) {
                    node.backups.remove(&old_block);
                }
            }
            ns.set_backups(node_id, extent.loc.block_id, backups)?;
        }
        WalEntry::Deleted { path } => {
            let path = NodePath::parse(&path)?;
            let idx = shard_of(path.as_str(), shards.len());
            let ns = shards
                .get_mut(idx)
                .ok_or_else(|| GliderError::not_found(format!("shard for {path}")))?;
            ns.delete(&path)?;
        }
        WalEntry::BackupsSet {
            node_id,
            block,
            backups,
        } => {
            let ns = replay_shard_mut(shards, id_base, node_id)?;
            ns.set_backups(node_id, block, backups)?;
        }
        WalEntry::Promoted {
            node_id,
            old_block,
            new_loc,
        } => {
            let ns = replay_shard_mut(shards, id_base, node_id)?;
            ns.promote_extent(node_id, old_block, new_loc)?;
        }
    }
    Ok(())
}

/// Restores a decoded snapshot into freshly-constructed shards/registry.
fn restore_snapshot(
    shards: &mut [Namespace],
    reg: &mut ServerRegistry,
    snap: &Snapshot,
) -> GliderResult<()> {
    if snap.shards.len() != shards.len() {
        return Err(GliderError::invalid(format!(
            "snapshot holds {} shards but the server is configured with {}",
            snap.shards.len(),
            shards.len()
        )));
    }
    for s in &snap.servers {
        reg.restore_register(
            s.id,
            s.kind,
            s.class.clone(),
            s.addr.clone(),
            s.capacity,
            s.first_block,
        );
    }
    for (ns, (next_id, nodes)) in shards.iter_mut().zip(&snap.shards) {
        // Nodes are stored parents-before-children, so plain iteration
        // re-links the tree.
        for rec in nodes {
            let path = NodePath::parse(&rec.path)?;
            ns.restore_node(
                path,
                rec.id,
                rec.kind,
                rec.class.clone(),
                rec.action.clone(),
            )?;
            ns.restore_extents(rec.id, rec.blocks.clone())?;
            for (block, locs) in &rec.backups {
                ns.set_backups(rec.id, *block, locs.clone())?;
            }
        }
        ns.observe_next_id(*next_id);
    }
    Ok(())
}

/// A pending replica copy: tell the server at `src_addr` to push the
/// first `len` bytes of `src_block` into `dst` (a freshly allocated
/// backup block on another server).
struct CopyPlan {
    src_addr: String,
    src_block: BlockId,
    dst: BlockLocation,
    len: u64,
}

struct MetadataHandler {
    /// Namespace shards, routed by top-level path component. Lock order:
    /// one shard, then (optionally) `reg` — never two shards at once. The
    /// ordering is declared via [`LockRank`] and enforced at runtime in
    /// debug builds (and statically by `cargo xtask check`).
    shards: Vec<OrderedMutex<Namespace>>,
    /// The block allocator, shared by every shard.
    reg: OrderedMutex<ServerRegistry>,
    /// The write-ahead log, when durability is enabled. Appends happen
    /// under the shard/registry lock that applied the mutation, before
    /// the ack; the WAL serializes internally.
    wal: Option<Wal>,
    options: MetadataOptions,
    /// The server's metrics registry; liveness census is pushed here so
    /// the uniformly-served Stats RPC reports it.
    metrics: Arc<MetricsRegistry>,
}

impl MetadataHandler {
    /// The shard owning `path` (same hash as client partition routing).
    /// `shard_of` reduces modulo the shard count, so the lookup cannot
    /// miss; the error arm keeps the dispatch path free of indexing.
    fn shard_for_path(&self, path: &NodePath) -> GliderResult<&OrderedMutex<Namespace>> {
        let idx = shard_of(path.as_str(), self.shards.len());
        self.shards
            .get(idx)
            .ok_or_else(|| GliderError::invalid(format!("no shard for path {}", path.as_str())))
    }

    /// The shard that minted `id`, recovered from the id's shard bits.
    fn shard_for_id(&self, id: NodeId) -> GliderResult<&OrderedMutex<Namespace>> {
        let rel = id.0.wrapping_sub(self.options.id_base);
        let idx = (rel >> SHARD_ID_SHIFT) as usize;
        self.shards
            .get(idx)
            .ok_or_else(|| GliderError::not_found(format!("node {id}")))
    }

    /// Appends the entry to the WAL (when durability is enabled) and
    /// refreshes the WAL gauges. Called while still holding the lock
    /// that applied the mutation, *before* the response is sent: an
    /// append/fsync failure turns into an error ack, so the client never
    /// sees a success the log does not hold.
    fn log(&self, entry: &WalEntry) -> GliderResult<()> {
        if let Some(wal) = &self.wal {
            wal.append(&entry.encode())
                .map_err(|e| GliderError::unavailable(format!("wal append failed: {e}")))?;
            let stats = wal.stats();
            self.metrics
                .set_wal_stats(stats.fsyncs, stats.appended_bytes);
        }
        Ok(())
    }

    /// Allocates up to `count` blocks of `class` and appends them to
    /// `node_id`'s chain, all under the already-held shard lock plus a
    /// single registry-lock acquisition. With a replication factor above
    /// one, each appended block also gets `factor - 1` backup replicas on
    /// distinct servers (fewer when capacity does not allow it — the
    /// under-replication gauge and the sweeper pick up the slack).
    /// Returns the extents plus the backup sets keyed by primary block.
    /// Errors only if *no* block can be allocated or the chain rejects
    /// the batch; either way the registry is restored exactly
    /// (all-or-nothing).
    #[allow(clippy::type_complexity)]
    fn add_blocks_locked(
        &self,
        ns: &mut Namespace,
        node_id: NodeId,
        class: &StorageClass,
        count: u32,
    ) -> GliderResult<(Vec<BlockExtent>, Vec<(BlockId, Vec<BlockLocation>)>)> {
        let factor = self.options.replication_factor.max(1);
        let mut reg = self.reg.lock();
        let mut locs: Vec<BlockLocation> = Vec::with_capacity(count as usize);
        for _ in 0..count {
            match allocate_with_fallback(&mut reg, &self.options.class_fallbacks, class) {
                Ok(loc) => locs.push(loc),
                Err(e) if locs.is_empty() => return Err(e),
                // Partial capacity: hand back what we got; the client asks
                // again (and gets a clean OutOfCapacity) when it is truly
                // exhausted.
                Err(_) => break,
            }
        }
        match ns.add_extents(node_id, locs.clone()) {
            Ok(extents) => {
                let mut backups = Vec::new();
                for extent in &extents {
                    let mut set: Vec<BlockLocation> = Vec::new();
                    let mut exclude = vec![extent.loc.server_id];
                    for _ in 1..factor {
                        match reg.allocate_excluding(class, &exclude) {
                            Ok(loc) => {
                                exclude.push(loc.server_id);
                                set.push(loc);
                            }
                            // Degraded: not enough distinct live servers.
                            // The write proceeds under-replicated rather
                            // than failing; the sweeper tops it up when
                            // capacity returns.
                            Err(_) => break,
                        }
                    }
                    if !set.is_empty() {
                        ns.set_backups(node_id, extent.loc.block_id, set.clone())?;
                        backups.push((extent.loc.block_id, set));
                    }
                }
                Ok((extents, backups))
            }
            Err(e) => {
                for loc in &locs {
                    reg.free(loc.block_id);
                }
                Err(e)
            }
        }
    }

    /// Pairs primaries with their backup sets for a `ReplicatedBlocks`
    /// answer.
    fn replica_view(
        extents: &[BlockExtent],
        backups: &[(BlockId, Vec<BlockLocation>)],
    ) -> Vec<ReplicaExtent> {
        extents
            .iter()
            .map(|extent| ReplicaExtent {
                extent: extent.clone(),
                backups: backups
                    .iter()
                    .find(|(block, _)| *block == extent.loc.block_id)
                    .map(|(_, locs)| locs.clone())
                    .unwrap_or_default(),
            })
            .collect()
    }

    /// Pushes the registry's liveness census into the metrics registry.
    fn publish_liveness(&self, reg: &ServerRegistry) {
        let (live, suspect, dead) = reg.liveness_counts();
        self.metrics.set_server_liveness(live, suspect, dead);
    }

    /// Restores `node_id`'s replica layout under the shard + registry
    /// locks: promotes a surviving backup for every primary whose server
    /// is gone (unregistered or `Dead` — `Suspect` servers may still come
    /// back, so their data is not given up), prunes dead backups, and
    /// allocates replacements up to the configured factor. Data movement
    /// happens *outside* the locks: the returned [`CopyPlan`]s tell
    /// [`MetadataHandler::run_copies`] which bytes to push where.
    fn repair_node_locked(
        &self,
        node_id: NodeId,
    ) -> GliderResult<(Vec<CopyPlan>, Vec<ReplicaExtent>)> {
        let factor = self.options.replication_factor.max(1);
        let mut ns = self.shard_for_id(node_id)?.lock();
        let (class, chain) = {
            let node = ns
                .get(node_id)
                .ok_or_else(|| GliderError::not_found(format!("node {node_id}")))?;
            (node.storage_class.clone(), node.blocks.clone())
        };
        let mut reg = self.reg.lock();
        let gone = |reg: &ServerRegistry, id: ServerId| {
            !reg.servers()
                .any(|s| s.id == id && s.liveness() != Liveness::Dead)
        };
        let mut plans = Vec::new();
        for extent in chain {
            let mut cur = extent;
            if gone(&reg, cur.loc.server_id) {
                let promoted = ns
                    .get(node_id)
                    .and_then(|n| n.backups.get(&cur.loc.block_id))
                    .and_then(|set| set.iter().find(|l| !gone(&reg, l.server_id)).cloned());
                if let Some(new_loc) = promoted {
                    let old_block = cur.loc.block_id;
                    cur = ns.promote_extent(node_id, old_block, new_loc.clone())?;
                    reg.free(old_block);
                    self.log(&WalEntry::Promoted {
                        node_id,
                        old_block,
                        new_loc,
                    })?;
                }
                // No live backup: the extent is stuck until its server
                // heartbeats back — the under-replication gauge keeps it
                // visible.
            }
            let before = ns
                .get(node_id)
                .and_then(|n| n.backups.get(&cur.loc.block_id).cloned())
                .unwrap_or_default();
            let (mut set, pruned): (Vec<BlockLocation>, Vec<BlockLocation>) = before
                .iter()
                .cloned()
                .partition(|l| !gone(&reg, l.server_id));
            for l in &pruned {
                reg.free(l.block_id);
            }
            let mut exclude: Vec<ServerId> = vec![cur.loc.server_id];
            exclude.extend(set.iter().map(|l| l.server_id));
            while (set.len() as u32) < factor.saturating_sub(1) {
                match reg.allocate_excluding(&class, &exclude) {
                    Ok(dst) => {
                        exclude.push(dst.server_id);
                        plans.push(CopyPlan {
                            src_addr: cur.loc.addr.clone(),
                            src_block: cur.loc.block_id,
                            dst: dst.clone(),
                            len: cur.len,
                        });
                        set.push(dst);
                    }
                    Err(_) => break,
                }
            }
            if set != before {
                ns.set_backups(node_id, cur.loc.block_id, set.clone())?;
                self.log(&WalEntry::BackupsSet {
                    node_id,
                    block: cur.loc.block_id,
                    backups: set,
                })?;
            }
        }
        let layout = ns.get(node_id).map(|n| n.replicas()).unwrap_or_default();
        Ok((plans, layout))
    }

    /// Executes replica copies planned by a repair: asks the server that
    /// holds each source block to push the committed bytes into the new
    /// backup. Failures are logged and left for the next sweep — the
    /// layout already points at the new backups, so a retry copies again.
    async fn run_copies(&self, plans: Vec<CopyPlan>) {
        for plan in plans {
            let outcome = async {
                let client = RpcClient::connect_intra_storage(&plan.src_addr).await?;
                client
                    .call_ok(RequestBody::ReplicateBlock {
                        src_block: plan.src_block,
                        dst: plan.dst.clone(),
                        len: plan.len,
                    })
                    .await
            }
            .await;
            match outcome {
                Ok(()) => {
                    glider_trace::structured_event(
                        "replica.copied",
                        "replicate-block",
                        &plan.src_addr,
                        0,
                        0,
                    );
                }
                Err(_) => {
                    glider_trace::structured_event(
                        "replica.copy_failed",
                        "replicate-block",
                        &plan.src_addr,
                        0,
                        0,
                    );
                }
            }
        }
    }

    /// Serves a `RepairNode` RPC: restore the factor, run the copies,
    /// answer with the post-repair layout.
    async fn repair_node(&self, node_id: NodeId) -> GliderResult<ResponseBody> {
        let (plans, layout) = self.repair_node_locked(node_id)?;
        self.run_copies(plans).await;
        Ok(ResponseBody::ReplicatedBlocks(layout))
    }

    /// Background durability upkeep, run by the lease sweeper every
    /// quarter lease: re-replicates extents that lost copies to dead
    /// servers, publishes the under-replication gauge, and snapshots +
    /// compacts the WAL once enough records accumulate.
    async fn maintenance(&self) {
        let factor = self.options.replication_factor.max(1);
        if factor > 1 {
            // Census + repair. Shard locks are taken one at a time, and
            // repair_node_locked re-takes them per node, so no ordering
            // hazard with the registry lock.
            let mut candidates: Vec<NodeId> = Vec::new();
            let dead: std::collections::HashSet<ServerId> = {
                let reg = self.reg.lock();
                reg.dead_servers().into_iter().collect()
            };
            for shard in &self.shards {
                let ns = shard.lock();
                for node in ns.nodes() {
                    if node.blocks.is_empty() {
                        continue;
                    }
                    let needs = node.blocks.iter().any(|b| {
                        let backups = node
                            .backups
                            .get(&b.loc.block_id)
                            .map(Vec::as_slice)
                            .unwrap_or_default();
                        dead.contains(&b.loc.server_id)
                            || (backups.len() as u32) < factor - 1
                            || backups.iter().any(|l| dead.contains(&l.server_id))
                    });
                    if needs {
                        candidates.push(node.id);
                    }
                }
            }
            let mut plans = Vec::new();
            let mut under = 0u64;
            for node_id in candidates {
                match self.repair_node_locked(node_id) {
                    Ok((p, layout)) => {
                        plans.extend(p);
                        under += layout
                            .iter()
                            .filter(|r| (r.backups.len() as u32) < factor - 1)
                            .count() as u64;
                    }
                    // The node may have been deleted since the census.
                    Err(_) => {}
                }
            }
            self.metrics.set_under_replicated(under);
            self.run_copies(plans).await;
        }
        if let Some(wal) = &self.wal {
            let stats = wal.stats();
            self.metrics
                .set_wal_stats(stats.fsyncs, stats.appended_bytes);
            let snapshot_every = self
                .options
                .wal
                .as_ref()
                .map(|c| c.snapshot_every)
                .unwrap_or(512);
            if stats.since_snapshot >= snapshot_every.max(1) {
                if let Err(e) = self.snapshot_now() {
                    glider_trace::structured_event("wal.snapshot_failed", &e.to_string(), "", 0, 0);
                }
            }
        }
    }

    /// Serializes the full metadata state and installs it as the WAL's
    /// snapshot, letting the log compact everything up to the cut. The
    /// cut LSN is captured *before* any state is read, so records that
    /// land mid-serialization stay in the log and replay idempotently
    /// over the snapshot.
    fn snapshot_now(&self) -> GliderResult<()> {
        let wal = match &self.wal {
            Some(wal) => wal,
            None => return Ok(()),
        };
        let cut_lsn = wal.last_lsn();
        let servers: Vec<ServerRecord> = {
            let reg = self.reg.lock();
            reg.servers()
                .map(|s| ServerRecord {
                    id: s.id,
                    kind: s.kind,
                    class: s.class.clone(),
                    addr: s.addr.clone(),
                    capacity: s.capacity,
                    first_block: s.first_block,
                })
                .collect()
        };
        let mut shards = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let ns = shard.lock();
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
            // Parents must precede children so restore can re-link the
            // tree by plain iteration: sort by depth, then path.
            nodes.sort_by(|a, b| {
                (a.path.matches('/').count(), &a.path).cmp(&(b.path.matches('/').count(), &b.path))
            });
            shards.push((ns.next_id(), nodes));
        }
        let snap = Snapshot { servers, shards };
        wal.install_snapshot(cut_lsn, &snap.encode())
            .map_err(|e| GliderError::unavailable(format!("wal snapshot failed: {e}")))
    }

    fn handle_sync(&self, body: RequestBody) -> GliderResult<ResponseBody> {
        match body {
            RequestBody::Hello { .. } => Ok(ResponseBody::Ok),
            RequestBody::RegisterServer {
                kind,
                storage_class,
                addr,
                capacity_blocks,
            } => {
                let mut reg = self.reg.lock();
                let (server_id, first_block_id) =
                    reg.register(kind, storage_class.clone(), addr.clone(), capacity_blocks)?;
                self.publish_liveness(&reg);
                self.log(&WalEntry::ServerRegistered {
                    server_id,
                    kind,
                    class: storage_class,
                    addr,
                    capacity: capacity_blocks,
                    first_block: first_block_id,
                })?;
                Ok(ResponseBody::Registered {
                    server_id,
                    first_block_id,
                })
            }
            RequestBody::Heartbeat { server_id } => {
                let mut reg = self.reg.lock();
                reg.heartbeat(server_id)?;
                self.publish_liveness(&reg);
                Ok(ResponseBody::Ok)
            }
            RequestBody::ReplaceBlock { node_id, block_id } => {
                let mut ns = self.shard_for_id(node_id)?.lock();
                let node = ns
                    .get(node_id)
                    .ok_or_else(|| GliderError::not_found(format!("node {node_id}")))?;
                if !node.blocks.iter().any(|b| b.loc.block_id == block_id) {
                    return Err(GliderError::not_found(format!(
                        "block {block_id} in node {node_id}"
                    )));
                }
                let class = node.storage_class.clone();
                let mut reg = self.reg.lock();
                // The writer could not reach the block's server: that is
                // liveness evidence, so stop allocating there before the
                // lease would notice.
                if let Some(owner) = reg.owner_of(block_id) {
                    reg.suspect(owner);
                    self.publish_liveness(&reg);
                }
                let loc = allocate_with_fallback(&mut reg, &self.options.class_fallbacks, &class)?;
                match ns.replace_extent(node_id, block_id, loc.clone()) {
                    Ok(extent) => {
                        // The dead block's capacity goes back to its owner;
                        // suspect servers are skipped by allocation, so it
                        // is only reused if the server heartbeats back.
                        reg.free(block_id);
                        // The old primary's backups covered data the writer
                        // is about to replay from scratch — drop them and
                        // give the replacement its own fresh set.
                        let old_backups = ns
                            .get_mut(node_id)
                            .and_then(|n| n.backups.remove(&block_id))
                            .unwrap_or_default();
                        for b in &old_backups {
                            reg.free(b.block_id);
                        }
                        let factor = self.options.replication_factor.max(1);
                        let mut set: Vec<BlockLocation> = Vec::new();
                        let mut exclude = vec![extent.loc.server_id];
                        for _ in 1..factor {
                            match reg.allocate_excluding(&class, &exclude) {
                                Ok(b) => {
                                    exclude.push(b.server_id);
                                    set.push(b);
                                }
                                Err(_) => break,
                            }
                        }
                        if !set.is_empty() {
                            ns.set_backups(node_id, extent.loc.block_id, set.clone())?;
                        }
                        self.log(&WalEntry::Replaced {
                            node_id,
                            old_block: block_id,
                            extent: extent.clone(),
                            backups: set.clone(),
                        })?;
                        if factor > 1 {
                            Ok(ResponseBody::ReplicatedBlocks(vec![ReplicaExtent {
                                extent,
                                backups: set,
                            }]))
                        } else {
                            Ok(ResponseBody::Block(extent))
                        }
                    }
                    Err(e) => {
                        reg.free(loc.block_id);
                        Err(e)
                    }
                }
            }
            RequestBody::CreateNode {
                path,
                kind,
                storage_class,
                action,
            } => {
                let path = NodePath::parse(&path)?;
                let mut ns = self.shard_for_path(&path)?.lock();
                let node_id = ns.create(path.clone(), kind, storage_class, action)?.id;
                // KeyValue and Action nodes get their single block up
                // front so clients reach storage with one metadata trip.
                let mut extents = Vec::new();
                let mut backups = Vec::new();
                if matches!(kind, NodeKind::KeyValue | NodeKind::Action) {
                    let class = ns
                        .get(node_id)
                        .ok_or_else(|| GliderError::not_found(format!("node {node_id}")))?
                        .storage_class
                        .clone();
                    match self.add_blocks_locked(&mut ns, node_id, &class, 1) {
                        Ok((e, b)) => {
                            extents = e;
                            backups = b;
                        }
                        Err(e) => {
                            // Roll back the node so the failure is atomic.
                            let _ = ns.delete(&path);
                            return Err(e);
                        }
                    }
                }
                let node = ns
                    .get(node_id)
                    .ok_or_else(|| GliderError::not_found(format!("node {node_id}")))?;
                let info = node.info();
                self.log(&WalEntry::NodeCreated {
                    path: path.as_str().to_string(),
                    id: node_id,
                    kind,
                    class: node.storage_class.clone(),
                    action: node.action.clone(),
                    extents,
                    backups,
                })?;
                Ok(ResponseBody::Node(info))
            }
            RequestBody::LookupNode { path } => {
                let path = NodePath::parse(&path)?;
                Ok(ResponseBody::Node(
                    self.shard_for_path(&path)?.lock().lookup(&path)?.info(),
                ))
            }
            RequestBody::DeleteNode { path } => {
                let path = NodePath::parse(&path)?;
                let mut ns = self.shard_for_path(&path)?.lock();
                let out = ns.delete(&path)?;
                // Return freed capacity to the allocator (backup replicas
                // ride along in `out.extents` as zero-length extents). The
                // client is responsible for releasing the actual
                // bytes/objects on the storage servers (FreeBlocks /
                // ActionDelete).
                {
                    let mut reg = self.reg.lock();
                    for extent in &out.extents {
                        reg.free(extent.loc.block_id);
                    }
                    for action in &out.actions {
                        for extent in &action.blocks {
                            reg.free(extent.loc.block_id);
                        }
                    }
                }
                self.log(&WalEntry::Deleted {
                    path: path.as_str().to_string(),
                })?;
                Ok(ResponseBody::Deleted {
                    info: out.info,
                    extents: out.extents,
                    actions: out.actions,
                })
            }
            RequestBody::ListChildren { path } => {
                let path = NodePath::parse(&path)?;
                if path.is_root() {
                    // Top-level directories are scattered across shards;
                    // merge every shard's root listing (locks taken one at
                    // a time, so no ordering hazard).
                    let mut names = Vec::new();
                    for shard in &self.shards {
                        names.extend(shard.lock().list_children(&path)?);
                    }
                    names.sort();
                    return Ok(ResponseBody::Children(names));
                }
                Ok(ResponseBody::Children(
                    self.shard_for_path(&path)?.lock().list_children(&path)?,
                ))
            }
            RequestBody::AddBlock { node_id } => {
                let mut ns = self.shard_for_id(node_id)?.lock();
                let class = ns
                    .get(node_id)
                    .ok_or_else(|| GliderError::not_found(format!("node {node_id}")))?
                    .storage_class
                    .clone();
                let (extents, backups) = self.add_blocks_locked(&mut ns, node_id, &class, 1)?;
                self.log(&WalEntry::ExtentsAdded {
                    node_id,
                    extents: extents.clone(),
                    backups: backups.clone(),
                })?;
                if self.options.replication_factor.max(1) > 1 {
                    return Ok(ResponseBody::ReplicatedBlocks(Self::replica_view(
                        &extents, &backups,
                    )));
                }
                Ok(ResponseBody::Block(extents.into_iter().next().ok_or_else(
                    || GliderError::new(ErrorCode::OutOfCapacity, "no block allocated"),
                )?))
            }
            RequestBody::AddBlocks { node_id, count } => {
                if count == 0 {
                    return Err(GliderError::invalid("AddBlocks count must be >= 1"));
                }
                // Cap runaway batches; the response says how many we gave.
                let count = count.min(4096);
                let mut ns = self.shard_for_id(node_id)?.lock();
                let class = ns
                    .get(node_id)
                    .ok_or_else(|| GliderError::not_found(format!("node {node_id}")))?
                    .storage_class
                    .clone();
                let (extents, backups) = self.add_blocks_locked(&mut ns, node_id, &class, count)?;
                self.log(&WalEntry::ExtentsAdded {
                    node_id,
                    extents: extents.clone(),
                    backups: backups.clone(),
                })?;
                if self.options.replication_factor.max(1) > 1 {
                    return Ok(ResponseBody::ReplicatedBlocks(Self::replica_view(
                        &extents, &backups,
                    )));
                }
                Ok(ResponseBody::Blocks(extents))
            }
            RequestBody::CommitBlock {
                node_id,
                block_id,
                len,
            } => {
                let mut ns = self.shard_for_id(node_id)?.lock();
                ns.commit_block(node_id, block_id, len)?;
                self.log(&WalEntry::Committed {
                    node_id,
                    commits: vec![(block_id, len)],
                })?;
                Ok(ResponseBody::Ok)
            }
            RequestBody::CommitBlocks { node_id, commits } => {
                let mut ns = self.shard_for_id(node_id)?.lock();
                // Validate the whole batch before applying any of it, so a
                // bad commit cannot leave the chain half-updated.
                let node = ns
                    .get(node_id)
                    .ok_or_else(|| GliderError::not_found(format!("node {node_id}")))?;
                for (block_id, _) in &commits {
                    if !node.blocks.iter().any(|b| b.loc.block_id == *block_id) {
                        return Err(GliderError::not_found(format!(
                            "block {block_id} in node {node_id}"
                        )));
                    }
                }
                for (block_id, len) in &commits {
                    // Pre-validated above; an error here still propagates
                    // cleanly rather than killing the server.
                    ns.commit_block(node_id, *block_id, *len)?;
                }
                self.log(&WalEntry::Committed { node_id, commits })?;
                Ok(ResponseBody::Ok)
            }
            RequestBody::NodeReplicas { node_id } => {
                let ns = self.shard_for_id(node_id)?.lock();
                let node = ns
                    .get(node_id)
                    .ok_or_else(|| GliderError::not_found(format!("node {node_id}")))?;
                Ok(ResponseBody::ReplicatedBlocks(node.replicas()))
            }
            other => Err(GliderError::new(
                ErrorCode::Unsupported,
                format!(
                    "operation {} is a data-plane op; send it to a storage server",
                    other.op_name()
                ),
            )),
        }
    }
}

impl RpcHandler for MetadataHandler {
    fn handle(
        self: Arc<Self>,
        ctx: ConnCtx,
        body: RequestBody,
    ) -> BoxFuture<'static, GliderResult<ResponseBody>> {
        Box::pin(async move {
            let _span = glider_trace::Span::child_of(ctx.span_context(), "meta.handle");
            // Repair moves data between storage servers, so it is served
            // async (locks are only held while planning).
            if let RequestBody::RepairNode { node_id } = body {
                return self.repair_node(node_id).await;
            }
            if let Some(delay) = self.options.alloc_delay {
                if matches!(
                    body,
                    RequestBody::AddBlock { .. } | RequestBody::AddBlocks { .. }
                ) {
                    tokio::time::sleep(delay).await;
                }
            }
            self.handle_sync(body)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glider_net::rpc::RpcClient;
    use glider_proto::types::{ActionSpec, BlockId, NodeKind, PeerTier, ServerKind, StorageClass};

    async fn setup() -> (MetadataServer, RpcClient) {
        setup_with_options(MetadataOptions::default()).await
    }

    async fn setup_with_options(options: MetadataOptions) -> (MetadataServer, RpcClient) {
        let metrics = MetricsRegistry::new();
        let server = MetadataServer::start_with_options("127.0.0.1:0", metrics, options)
            .await
            .unwrap();
        let client = RpcClient::connect(server.addr(), PeerTier::Compute, None)
            .await
            .unwrap();
        (server, client)
    }

    async fn register(client: &RpcClient, kind: ServerKind, class: StorageClass, cap: u64) {
        let resp = client
            .call(RequestBody::RegisterServer {
                kind,
                storage_class: class,
                addr: "127.0.0.1:1".to_string(),
                capacity_blocks: cap,
            })
            .await
            .unwrap();
        assert!(matches!(resp, ResponseBody::Registered { .. }));
    }

    async fn create_file(client: &RpcClient, path: &str) -> glider_proto::types::NodeInfo {
        match client
            .call(RequestBody::CreateNode {
                path: path.to_string(),
                kind: NodeKind::File,
                storage_class: None,
                action: None,
            })
            .await
            .unwrap()
        {
            ResponseBody::Node(i) => i,
            other => panic!("unexpected {other:?}"),
        }
    }

    async fn add_blocks(
        client: &RpcClient,
        node_id: NodeId,
        count: u32,
    ) -> GliderResult<Vec<glider_proto::types::BlockExtent>> {
        match client
            .call(RequestBody::AddBlocks { node_id, count })
            .await?
        {
            ResponseBody::Blocks(extents) => Ok(extents),
            other => panic!("unexpected {other:?}"),
        }
    }

    async fn setup_with_metrics(
        options: MetadataOptions,
    ) -> (MetadataServer, RpcClient, Arc<MetricsRegistry>) {
        let metrics = MetricsRegistry::new();
        let server =
            MetadataServer::start_with_options("127.0.0.1:0", Arc::clone(&metrics), options)
                .await
                .unwrap();
        let client = RpcClient::connect(server.addr(), PeerTier::Compute, None)
            .await
            .unwrap();
        (server, client, metrics)
    }

    async fn register_at(
        client: &RpcClient,
        kind: ServerKind,
        class: StorageClass,
        addr: &str,
        cap: u64,
    ) -> glider_proto::types::ServerId {
        match client
            .call(RequestBody::RegisterServer {
                kind,
                storage_class: class,
                addr: addr.to_string(),
                capacity_blocks: cap,
            })
            .await
            .unwrap()
        {
            ResponseBody::Registered { server_id, .. } => server_id,
            other => panic!("unexpected {other:?}"),
        }
    }

    fn temp_wal_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "glider-meta-wal-{}-{}-{}",
            tag,
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[tokio::test]
    async fn wal_recovery_survives_restart() {
        let dir = temp_wal_dir("recover");
        {
            let (server, client) =
                setup_with_options(MetadataOptions::default().with_wal(&dir)).await;
            register(&client, ServerKind::Data, StorageClass::dram(), 8).await;
            let f = create_file(&client, "/f").await;
            let got = add_blocks(&client, f.id, 2).await.unwrap();
            client
                .call_ok(RequestBody::CommitBlocks {
                    node_id: f.id,
                    commits: vec![(got[0].loc.block_id, 100), (got[1].loc.block_id, 50)],
                })
                .await
                .unwrap();
            create_file(&client, "/gone").await;
            client
                .call(RequestBody::DeleteNode {
                    path: "/gone".to_string(),
                })
                .await
                .unwrap();
            // Simulated kill -9: no clean shutdown protocol, the server is
            // simply dropped. Every acked mutation is already fsynced.
            server.shutdown();
        }
        let (_server, client) = setup_with_options(MetadataOptions::default().with_wal(&dir)).await;
        // The namespace replayed: /f is back with its chain and sizes.
        let after = match client
            .call(RequestBody::LookupNode {
                path: "/f".to_string(),
            })
            .await
            .unwrap()
        {
            ResponseBody::Node(i) => i,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(after.size, 150);
        assert_eq!(after.blocks.len(), 2);
        // The deleted node stayed deleted.
        let err = client
            .call(RequestBody::LookupNode {
                path: "/gone".to_string(),
            })
            .await
            .unwrap_err();
        assert_eq!(err.code(), ErrorCode::NotFound);
        // The allocator reconciled: exactly the 6 unallocated blocks
        // remain — no re-registration needed, no double allocation.
        let g = create_file(&client, "/g").await;
        let got = add_blocks(&client, g.id, 8).await.unwrap();
        assert_eq!(got.len(), 6, "allocator must skip recovered blocks");
        assert_eq!(
            add_blocks(&client, g.id, 1).await.unwrap_err().code(),
            ErrorCode::OutOfCapacity
        );
        // Recovered ids are never reissued.
        let f_id = after.id;
        assert_ne!(g.id, f_id);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[tokio::test]
    async fn replication_allocates_backups_on_distinct_servers() {
        let (_server, client) =
            setup_with_options(MetadataOptions::default().with_replication(2)).await;
        register_at(
            &client,
            ServerKind::Data,
            StorageClass::dram(),
            "127.0.0.1:7201",
            4,
        )
        .await;
        register_at(
            &client,
            ServerKind::Data,
            StorageClass::dram(),
            "127.0.0.1:7202",
            4,
        )
        .await;
        let f = create_file(&client, "/f").await;
        let got = match client
            .call(RequestBody::AddBlocks {
                node_id: f.id,
                count: 2,
            })
            .await
            .unwrap()
        {
            ResponseBody::ReplicatedBlocks(r) => r,
            other => panic!("factor > 1 must answer ReplicatedBlocks, got {other:?}"),
        };
        assert_eq!(got.len(), 2);
        for r in &got {
            assert_eq!(r.backups.len(), 1, "factor 2 = one backup");
            assert_ne!(
                r.backups[0].server_id, r.extent.loc.server_id,
                "backup must land on a distinct server"
            );
        }
        // NodeReplicas reports the same layout.
        let layout = match client
            .call(RequestBody::NodeReplicas { node_id: f.id })
            .await
            .unwrap()
        {
            ResponseBody::ReplicatedBlocks(r) => r,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(layout.len(), 2);
        assert!(layout.iter().all(|r| r.backups.len() == 1));
    }

    #[tokio::test]
    async fn replication_degrades_gracefully_on_one_server() {
        // Factor 2 with a single server: writes proceed unreplicated
        // rather than failing.
        let (_server, client) =
            setup_with_options(MetadataOptions::default().with_replication(2)).await;
        register(&client, ServerKind::Data, StorageClass::dram(), 4).await;
        let f = create_file(&client, "/f").await;
        let got = match client
            .call(RequestBody::AddBlock { node_id: f.id })
            .await
            .unwrap()
        {
            ResponseBody::ReplicatedBlocks(r) => r,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(got.len(), 1);
        assert!(got[0].backups.is_empty(), "no second server to back up on");
    }

    #[tokio::test]
    async fn heartbeat_lease_walks_live_suspect_dead() {
        let lease = Duration::from_millis(40);
        let (_server, client, metrics) =
            setup_with_metrics(MetadataOptions::default().with_lease(lease)).await;
        let server_id = register_at(
            &client,
            ServerKind::Data,
            StorageClass::dram(),
            "127.0.0.1:7001",
            4,
        )
        .await;
        assert_eq!(metrics.snapshot().servers_live, 1);

        // Heartbeats for servers the registry has never seen are rejected;
        // that is the signal a bounced server uses to re-register.
        let err = client
            .call_ok(RequestBody::Heartbeat {
                server_id: glider_proto::types::ServerId(9999),
            })
            .await
            .unwrap_err();
        assert_eq!(err.code(), ErrorCode::NotFound);

        // Silence: within a couple of leases the sweeper demotes the
        // server to Dead and the allocator refuses its blocks.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while metrics.snapshot().servers_dead != 1 {
            assert!(
                std::time::Instant::now() < deadline,
                "sweeper never demoted the silent server"
            );
            tokio::time::sleep(Duration::from_millis(10)).await;
        }
        let f = create_file(&client, "/f").await;
        assert_eq!(
            add_blocks(&client, f.id, 1).await.unwrap_err().code(),
            ErrorCode::OutOfCapacity
        );

        // A heartbeat re-admits it.
        client
            .call_ok(RequestBody::Heartbeat { server_id })
            .await
            .unwrap();
        let snap = metrics.snapshot();
        assert_eq!((snap.servers_live, snap.servers_dead), (1, 0));
        assert_eq!(add_blocks(&client, f.id, 1).await.unwrap().len(), 1);
    }

    #[tokio::test]
    async fn replace_block_moves_extent_to_live_server() {
        let (_server, client) = setup().await;
        // Two DRAM servers at distinct addresses (same-addr registration
        // supersedes, so they must differ).
        let s1 = register_at(
            &client,
            ServerKind::Data,
            StorageClass::dram(),
            "127.0.0.1:7101",
            2,
        )
        .await;
        let s2 = register_at(
            &client,
            ServerKind::Data,
            StorageClass::dram(),
            "127.0.0.1:7102",
            2,
        )
        .await;
        let f = create_file(&client, "/f").await;
        let got = add_blocks(&client, f.id, 2).await.unwrap();
        assert_eq!(got[0].loc.server_id, s1, "round-robin starts at s1");
        assert_eq!(got[1].loc.server_id, s2);
        client
            .call_ok(RequestBody::CommitBlocks {
                node_id: f.id,
                commits: got.iter().map(|b| (b.loc.block_id, 64)).collect(),
            })
            .await
            .unwrap();

        // Replace the first block: the writer reporting s1 unreachable
        // must get a fresh extent at the same chain position, uncommitted,
        // on the other (live) server.
        let old = got[0].loc.clone();
        let replaced = match client
            .call(RequestBody::ReplaceBlock {
                node_id: f.id,
                block_id: old.block_id,
            })
            .await
            .unwrap()
        {
            ResponseBody::Block(b) => b,
            other => panic!("unexpected {other:?}"),
        };
        assert_ne!(replaced.loc.block_id, old.block_id);
        assert_eq!(replaced.loc.server_id, s2, "suspect owner must be skipped");
        assert_eq!(replaced.len, 0);
        let after = match client
            .call(RequestBody::LookupNode {
                path: "/f".to_string(),
            })
            .await
            .unwrap()
        {
            ResponseBody::Node(i) => i,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(after.blocks.len(), 2);
        assert_eq!(after.blocks[0].loc.block_id, replaced.loc.block_id);
        assert_eq!(after.blocks[1].loc.block_id, got[1].loc.block_id);
        assert_eq!(after.size, 64, "only the surviving block stays committed");

        // A block that is not part of the node is NotFound, even though
        // the class is now out of live capacity.
        let err = client
            .call(RequestBody::ReplaceBlock {
                node_id: f.id,
                block_id: BlockId(u64::MAX),
            })
            .await
            .unwrap_err();
        assert_eq!(err.code(), ErrorCode::NotFound);
    }

    #[tokio::test]
    async fn create_lookup_delete_over_rpc() {
        let (_server, client) = setup().await;
        let resp = client
            .call(RequestBody::CreateNode {
                path: "/f".to_string(),
                kind: NodeKind::File,
                storage_class: None,
                action: None,
            })
            .await
            .unwrap();
        let info = match resp {
            ResponseBody::Node(info) => info,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(info.kind, NodeKind::File);
        assert!(info.blocks.is_empty());

        let resp = client
            .call(RequestBody::LookupNode {
                path: "/f".to_string(),
            })
            .await
            .unwrap();
        assert!(matches!(resp, ResponseBody::Node(i) if i.id == info.id));

        let resp = client
            .call(RequestBody::DeleteNode {
                path: "/f".to_string(),
            })
            .await
            .unwrap();
        assert!(matches!(resp, ResponseBody::Deleted { .. }));
        let err = client
            .call(RequestBody::LookupNode {
                path: "/f".to_string(),
            })
            .await
            .unwrap_err();
        assert_eq!(err.code(), ErrorCode::NotFound);
    }

    #[tokio::test]
    async fn action_create_reserves_slot_in_active_class() {
        let (_server, client) = setup().await;
        // No active servers yet: creating an action must fail cleanly and
        // leave the namespace unchanged.
        let err = client
            .call(RequestBody::CreateNode {
                path: "/a".to_string(),
                kind: NodeKind::Action,
                storage_class: None,
                action: Some(ActionSpec {
                    type_name: "merge".to_string(),
                    interleaved: true,
                    params: String::new(),
                }),
            })
            .await
            .unwrap_err();
        assert_eq!(err.code(), ErrorCode::NotFound); // class not found
        assert_eq!(
            client
                .call(RequestBody::LookupNode {
                    path: "/a".to_string()
                })
                .await
                .unwrap_err()
                .code(),
            ErrorCode::NotFound
        );

        register(&client, ServerKind::Active, StorageClass::active(), 2).await;
        let resp = client
            .call(RequestBody::CreateNode {
                path: "/a".to_string(),
                kind: NodeKind::Action,
                storage_class: None,
                action: Some(ActionSpec {
                    type_name: "merge".to_string(),
                    interleaved: true,
                    params: String::new(),
                }),
            })
            .await
            .unwrap();
        let info = match resp {
            ResponseBody::Node(info) => info,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(info.blocks.len(), 1);
        assert_eq!(info.action.as_ref().unwrap().type_name, "merge");
    }

    #[tokio::test]
    async fn slot_exhaustion_rolls_back_node() {
        let (_server, client) = setup().await;
        register(&client, ServerKind::Active, StorageClass::active(), 1).await;
        let mk = |path: &str| RequestBody::CreateNode {
            path: path.to_string(),
            kind: NodeKind::Action,
            storage_class: None,
            action: Some(ActionSpec {
                type_name: "t".to_string(),
                interleaved: false,
                params: String::new(),
            }),
        };
        client.call(mk("/a1")).await.unwrap();
        let err = client.call(mk("/a2")).await.unwrap_err();
        assert_eq!(err.code(), ErrorCode::OutOfCapacity);
        // The failed node must not linger.
        assert_eq!(
            client
                .call(RequestBody::LookupNode {
                    path: "/a2".to_string()
                })
                .await
                .unwrap_err()
                .code(),
            ErrorCode::NotFound
        );
        // Deleting /a1 releases the slot for reuse.
        client
            .call(RequestBody::DeleteNode {
                path: "/a1".to_string(),
            })
            .await
            .unwrap();
        client.call(mk("/a3")).await.unwrap();
    }

    #[tokio::test]
    async fn file_block_chain_via_rpc() {
        let (_server, client) = setup().await;
        register(&client, ServerKind::Data, StorageClass::dram(), 4).await;
        let info = create_file(&client, "/f").await;
        let b1 = match client
            .call(RequestBody::AddBlock { node_id: info.id })
            .await
            .unwrap()
        {
            ResponseBody::Block(b) => b,
            other => panic!("unexpected {other:?}"),
        };
        client
            .call_ok(RequestBody::CommitBlock {
                node_id: info.id,
                block_id: b1.loc.block_id,
                len: 100,
            })
            .await
            .unwrap();
        let after = match client
            .call(RequestBody::LookupNode {
                path: "/f".to_string(),
            })
            .await
            .unwrap()
        {
            ResponseBody::Node(i) => i,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(after.size, 100);
        assert_eq!(after.blocks.len(), 1);
    }

    #[tokio::test]
    async fn data_plane_ops_are_rejected() {
        let (_server, client) = setup().await;
        let err = client
            .call(RequestBody::ReadBlock {
                block_id: 1.into(),
                offset: 0,
                len: 1,
            })
            .await
            .unwrap_err();
        assert_eq!(err.code(), ErrorCode::Unsupported);
    }

    #[tokio::test]
    async fn keyvalue_gets_block_at_create() {
        let (_server, client) = setup().await;
        register(&client, ServerKind::Data, StorageClass::dram(), 4).await;
        let info = match client
            .call(RequestBody::CreateNode {
                path: "/kv".to_string(),
                kind: NodeKind::KeyValue,
                storage_class: None,
                action: None,
            })
            .await
            .unwrap()
        {
            ResponseBody::Node(i) => i,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(info.blocks.len(), 1);
        // A second block is refused.
        let err = client
            .call(RequestBody::AddBlock { node_id: info.id })
            .await
            .unwrap_err();
        assert_eq!(err.code(), ErrorCode::InvalidArgument);
    }

    #[tokio::test]
    async fn batched_add_blocks_allocates_up_to_count() {
        let (_server, client) = setup().await;
        register(&client, ServerKind::Data, StorageClass::dram(), 4).await;
        let info = create_file(&client, "/f").await;
        let got = add_blocks(&client, info.id, 3).await.unwrap();
        assert_eq!(got.len(), 3);
        // Only one block left: an oversized request returns the remainder
        // rather than failing (partial semantics).
        let got = add_blocks(&client, info.id, 8).await.unwrap();
        assert_eq!(got.len(), 1);
        // Truly exhausted: a clean OutOfCapacity.
        let err = add_blocks(&client, info.id, 1).await.unwrap_err();
        assert_eq!(err.code(), ErrorCode::OutOfCapacity);
        // count == 0 is rejected outright.
        let err = add_blocks(&client, info.id, 0).await.unwrap_err();
        assert_eq!(err.code(), ErrorCode::InvalidArgument);
        // The committed chain holds all four blocks, in allocation order.
        let after = match client
            .call(RequestBody::LookupNode {
                path: "/f".to_string(),
            })
            .await
            .unwrap()
        {
            ResponseBody::Node(i) => i,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(after.blocks.len(), 4);
    }

    #[tokio::test]
    async fn failed_add_blocks_batch_rolls_back_atomically() {
        let (_server, client) = setup().await;
        register(&client, ServerKind::Data, StorageClass::dram(), 4).await;
        // The KV node takes 1 of the 4 blocks at create.
        let kv = match client
            .call(RequestBody::CreateNode {
                path: "/kv".to_string(),
                kind: NodeKind::KeyValue,
                storage_class: None,
                action: None,
            })
            .await
            .unwrap()
        {
            ResponseBody::Node(i) => i,
            other => panic!("unexpected {other:?}"),
        };
        // A batch on a single-block node fails after allocation; the
        // blocks must all return to the registry and the chain must be
        // untouched.
        let err = add_blocks(&client, kv.id, 2).await.unwrap_err();
        assert_eq!(err.code(), ErrorCode::InvalidArgument);
        let kv_after = match client
            .call(RequestBody::LookupNode {
                path: "/kv".to_string(),
            })
            .await
            .unwrap()
        {
            ResponseBody::Node(i) => i,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(kv_after.blocks.len(), 1);
        // All 3 remaining blocks are still allocatable — nothing leaked.
        let f = create_file(&client, "/f").await;
        let got = add_blocks(&client, f.id, 3).await.unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(
            add_blocks(&client, f.id, 1).await.unwrap_err().code(),
            ErrorCode::OutOfCapacity
        );
    }

    #[tokio::test]
    async fn commit_blocks_batch_validates_before_applying() {
        let (_server, client) = setup().await;
        register(&client, ServerKind::Data, StorageClass::dram(), 4).await;
        let f = create_file(&client, "/f").await;
        let got = add_blocks(&client, f.id, 2).await.unwrap();
        client
            .call_ok(RequestBody::CommitBlocks {
                node_id: f.id,
                commits: vec![(got[0].loc.block_id, 100), (got[1].loc.block_id, 50)],
            })
            .await
            .unwrap();
        let after = match client
            .call(RequestBody::LookupNode {
                path: "/f".to_string(),
            })
            .await
            .unwrap()
        {
            ResponseBody::Node(i) => i,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(after.size, 150);
        // A batch containing an unknown block fails whole: the valid
        // commit ahead of it must not be applied.
        let err = client
            .call_ok(RequestBody::CommitBlocks {
                node_id: f.id,
                commits: vec![(got[0].loc.block_id, 4096), (BlockId(u64::MAX), 1)],
            })
            .await
            .unwrap_err();
        assert_eq!(err.code(), ErrorCode::NotFound);
        let after = match client
            .call(RequestBody::LookupNode {
                path: "/f".to_string(),
            })
            .await
            .unwrap()
        {
            ResponseBody::Node(i) => i,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(after.size, 150, "failed batch must not partially apply");
    }

    #[tokio::test]
    async fn singular_and_batched_rpcs_interoperate() {
        // Backward compatibility: a client may mix AddBlock/CommitBlock
        // with the batched forms on the same node.
        let (_server, client) = setup().await;
        register(&client, ServerKind::Data, StorageClass::dram(), 8).await;
        let f = create_file(&client, "/mixed").await;
        let b1 = match client
            .call(RequestBody::AddBlock { node_id: f.id })
            .await
            .unwrap()
        {
            ResponseBody::Block(b) => b,
            other => panic!("unexpected {other:?}"),
        };
        let batch = add_blocks(&client, f.id, 2).await.unwrap();
        client
            .call_ok(RequestBody::CommitBlock {
                node_id: f.id,
                block_id: b1.loc.block_id,
                len: 10,
            })
            .await
            .unwrap();
        client
            .call_ok(RequestBody::CommitBlocks {
                node_id: f.id,
                commits: batch.iter().map(|b| (b.loc.block_id, 20)).collect(),
            })
            .await
            .unwrap();
        let after = match client
            .call(RequestBody::LookupNode {
                path: "/mixed".to_string(),
            })
            .await
            .unwrap()
        {
            ResponseBody::Node(i) => i,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(after.blocks.len(), 3);
        assert_eq!(after.size, 50);
        assert_eq!(after.blocks[0].loc.block_id, b1.loc.block_id);
    }

    #[tokio::test]
    async fn shards_route_ids_and_merge_root_listing() {
        let (_server, client) =
            setup_with_options(MetadataOptions::default().with_namespace_shards(4)).await;
        register(&client, ServerKind::Data, StorageClass::dram(), 32).await;
        // Top-level dirs scatter across shards; ids must still route back
        // to the owning shard.
        let mut ids = Vec::new();
        for name in ["alpha", "beta", "gamma", "delta", "epsilon"] {
            client
                .call(RequestBody::CreateNode {
                    path: format!("/{name}"),
                    kind: NodeKind::Directory,
                    storage_class: None,
                    action: None,
                })
                .await
                .unwrap();
            let f = create_file(&client, &format!("/{name}/f")).await;
            ids.push(f.id);
        }
        // Node ids are unique across shards.
        let unique: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(unique.len(), ids.len());
        // Id-routed ops reach the right shard.
        for id in &ids {
            assert_eq!(add_blocks(&client, *id, 1).await.unwrap().len(), 1);
        }
        // An id from a shard range that does not exist is NotFound, not a
        // panic.
        let err = add_blocks(&client, NodeId(u64::MAX), 1).await.unwrap_err();
        assert_eq!(err.code(), ErrorCode::NotFound);
        // The root listing merges every shard, sorted.
        let names = match client
            .call(RequestBody::ListChildren {
                path: "/".to_string(),
            })
            .await
            .unwrap()
        {
            ResponseBody::Children(names) => names,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(names, vec!["alpha", "beta", "delta", "epsilon", "gamma"]);
    }

    #[tokio::test]
    async fn concurrent_subtrees_conserve_capacity() {
        // N tasks create/allocate/delete under distinct top-level dirs
        // through one server. Afterwards the allocator must hold exactly
        // its original capacity: nothing lost, nothing double-freed.
        const TASKS: usize = 8;
        const CAP: u64 = 64;
        let (server, client) = setup().await;
        register(&client, ServerKind::Data, StorageClass::dram(), CAP).await;
        let mut handles = Vec::new();
        for t in 0..TASKS {
            let addr = server.addr().to_string();
            handles.push(tokio::spawn(async move {
                let client = RpcClient::connect(&addr, PeerTier::Compute, None)
                    .await
                    .unwrap();
                for round in 0..3 {
                    let dir = format!("/task-{t}");
                    client
                        .call(RequestBody::CreateNode {
                            path: dir.clone(),
                            kind: NodeKind::Directory,
                            storage_class: None,
                            action: None,
                        })
                        .await
                        .unwrap();
                    let f = match client
                        .call(RequestBody::CreateNode {
                            path: format!("{dir}/f-{round}"),
                            kind: NodeKind::File,
                            storage_class: None,
                            action: None,
                        })
                        .await
                        .unwrap()
                    {
                        ResponseBody::Node(i) => i,
                        other => panic!("unexpected {other:?}"),
                    };
                    let got = match client
                        .call(RequestBody::AddBlocks {
                            node_id: f.id,
                            count: 4,
                        })
                        .await
                        .unwrap()
                    {
                        ResponseBody::Blocks(b) => b,
                        other => panic!("unexpected {other:?}"),
                    };
                    assert!(!got.is_empty());
                    client
                        .call_ok(RequestBody::CommitBlocks {
                            node_id: f.id,
                            commits: got.iter().map(|b| (b.loc.block_id, 1)).collect(),
                        })
                        .await
                        .unwrap();
                    client
                        .call(RequestBody::DeleteNode { path: dir })
                        .await
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.await.unwrap();
        }
        // Conservation: the full capacity is allocatable again, and not a
        // block more.
        let f = create_file(&client, "/final").await;
        let got = add_blocks(&client, f.id, CAP as u32).await.unwrap();
        assert_eq!(got.len(), CAP as usize, "allocator lost blocks");
        assert_eq!(
            add_blocks(&client, f.id, 1).await.unwrap_err().code(),
            ErrorCode::OutOfCapacity,
            "allocator gained phantom blocks"
        );
    }
}
