//! The metadata server's state machine.
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
//! [`MetaService::apply`] is the whole request surface, and knows nothing
//! of the transport: `glider-metadata` serves it over RPC, runs the lease
//! sweeper, and executes the [`CopyPlan`]s that repairs return. Nor does
//! it read the clock: `open`, `apply` and `sweep` take `now`, the instant
//! a lease starts or is judged at, so a test drives leases by advancing
//! its own `Instant`.
//!
//! State is split for concurrency (λFS-style): the block allocator
//! ([`ServerRegistry`]) has its own mutex, and the namespace tree is
//! sharded by top-level path component using the same FNV-1a hash
//! clients use for partition routing ([`shard_of`]), so clients working
//! under distinct top-level directories never contend on one lock.
//! Shard locks are always taken before the registry lock, and at most
//! one shard lock is held at a time, so the ordering is deadlock-free by
//! construction ([`crate::lockorder`] makes any other order a compile
//! error).
//!
//! Batched allocation (`AddBlocks`) and batched commit (`CommitBlocks`)
//! are served under a single shard-lock acquisition; a batch that cannot
//! be applied rolls back atomically (allocated blocks return to the
//! registry, the chain is untouched).

use crate::lockorder::{Locked, NamespaceShard, OrderedMutex, Registry, Unlocked};
use crate::registry::{Copies, MAX_SERVER_BLOCKS};
use crate::tree::Node;
use crate::wal::{recover, shard_of_id, ServerRecord, Snapshot, WalEntry};
use crate::{shard_of, Liveness, Namespace, NodePath, ServerRegistry};
use glider_metrics::{MetricsRegistry, Signal};
use glider_proto::message::{RequestBody, ResponseBody};
use glider_proto::types::{
    BlockExtent, BlockId, BlockLocation, NodeId, NodeKind, ReplicaExtent, ServerId, StorageClass,
};
use glider_proto::{ErrorCode, GliderError, GliderResult};
use glider_wal::{Wal, WalOptions, WalStats};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default number of namespace shards per metadata server.
pub const DEFAULT_NAMESPACE_SHARDS: usize = 8;

/// Records appended past the previous snapshot before the maintenance
/// tick installs a new one and compacts the log.
const SNAPSHOT_EVERY: u64 = 512;

/// The most blocks one `AddBlocks` allocates, and the most commits one
/// `CommitBlocks` may carry (the client batches 8).
const MAX_BATCH: u32 = 4096;

/// The most replicas per block, primary included.
const MAX_REPLICATION: u32 = 8;

/// The longest server address, storage-class name or action type name a
/// request may carry, in bytes.
const MAX_NAME_LEN: usize = 256;

/// The longest node path a request may carry, in bytes.
const MAX_PATH_LEN: usize = 4096;

/// The longest action parameter string a request may carry, in bytes.
const MAX_PARAMS_LEN: usize = 64 * 1024;

/// Default heartbeat lease. Long enough that test clusters which never
/// send heartbeats stay `Live` for a whole test run; chaos setups shrink
/// it via [`MetadataOptions::with_lease`].
pub const DEFAULT_LEASE: Duration = Duration::from_secs(3);

/// Tuning options for a metadata server.
#[derive(Debug, Clone)]
pub struct MetadataOptions {
    /// Storage-class fallback chain: when the keyed class has no free
    /// blocks, allocation retries on the mapped class (transitively).
    /// This is the paper's "preferred DRAM tier that falls back to an
    /// NVMe tier when full" (§4.1). Backups follow the same chain.
    pub class_fallbacks: HashMap<StorageClass, StorageClass>,
    /// Number of independently locked namespace shards (≥ 1). Paths are
    /// routed to shards by their top-level component with the same hash
    /// clients use for partition routing, so one subtree is always served
    /// under one lock.
    pub namespace_shards: usize,
    /// Test hook: added latency before every block-allocation RPC
    /// (`AddBlocks`), applied by the RPC shell outside any lock. Lets
    /// tests prove that client-side prefetching hides allocation latency.
    pub alloc_delay: Option<Duration>,
    /// Heartbeat lease (DESIGN.md §10): a storage/active server silent for
    /// one lease becomes `Suspect`, for two leases `Dead`. The background
    /// sweeper runs every quarter lease.
    pub lease: Duration,
    /// Durability: when set, every metadata mutation is written (and
    /// fsynced) to a WAL in this directory before it is acknowledged, and
    /// the server recovers its namespace from snapshot + log on start
    /// (DESIGN.md §15). `None` (the default) keeps the pre-WAL
    /// purely-in-memory behavior.
    pub wal: Option<PathBuf>,
    /// Replicas per block (primary included), at most 8. The default `1`
    /// means unreplicated — identical to the pre-replication behavior.
    /// With a factor of `f > 1`, every allocation returns a primary plus
    /// `f-1` backups on distinct servers, and block RPC answers switch to
    /// `ReplicatedBlocks`.
    pub replication_factor: u32,
}

impl Default for MetadataOptions {
    fn default() -> Self {
        MetadataOptions {
            class_fallbacks: HashMap::new(),
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

    /// Enables WAL-backed durability, logging into `dir`.
    #[must_use]
    pub fn with_wal(mut self, dir: impl Into<PathBuf>) -> Self {
        self.wal = Some(dir.into());
        self
    }

    /// Sets the replication factor (primary included), clamped to `1..=8`.
    #[must_use]
    pub fn with_replication(mut self, factor: u32) -> Self {
        self.replication_factor = factor.clamp(1, MAX_REPLICATION);
        self
    }
}

/// Allocates a block from `class` on a server not in `exclude`, walking
/// the `fallbacks` chain while a class is out of capacity or has no
/// server registered.
///
/// # Errors
///
/// The last class's error once the chain ends, or after 8 hops.
pub fn allocate_with_fallback(
    reg: &mut ServerRegistry,
    fallbacks: &HashMap<StorageClass, StorageClass>,
    class: &StorageClass,
    exclude: &[ServerId],
) -> GliderResult<BlockLocation> {
    let mut current = class;
    let mut hops = 0;
    loop {
        match reg.allocate_excluding(current, exclude) {
            Err(e) if matches!(e.code(), ErrorCode::OutOfCapacity | ErrorCode::NotFound) => {
                match fallbacks.get(current) {
                    // Cap hops to tolerate accidental fallback cycles.
                    Some(next) if hops < 8 => {
                        current = next;
                        hops += 1;
                    }
                    _ => return Err(e),
                }
            }
            result => return result,
        }
    }
}

/// A pending replica copy: tell the server at `src_addr` to push the
/// first `len` bytes of `src_block` into `dst` (a backup block on
/// another server), then report it with [`MetaService::copied`].
#[derive(Debug)]
pub struct CopyPlan {
    /// Address of the server holding the source block.
    pub src_addr: String,
    /// The block whose committed bytes are copied.
    pub src_block: BlockId,
    /// The new backup to copy into.
    pub dst: BlockLocation,
    /// Committed bytes to copy.
    pub len: u64,
}

/// The metadata server's state: namespace shards, block registry and the
/// optional WAL, behind [`MetaService::apply`].
#[derive(Debug)]
pub struct MetaService {
    /// Namespace shards, routed by top-level path component. Lock order:
    /// one shard, then (optionally) `reg` — never two shards at once. The
    /// levels' types declare it ([`NamespaceShard`] before [`Registry`]),
    /// so any other order does not compile.
    shards: Vec<OrderedMutex<NamespaceShard, Namespace>>,
    /// The block allocator, shared by every shard.
    reg: OrderedMutex<Registry, ServerRegistry>,
    /// The write-ahead log, when durability is enabled. Appends happen
    /// under the shard/registry lock that applied the mutation, before
    /// the ack; the WAL serializes internally.
    wal: Option<Wal>,
    options: MetadataOptions,
    /// The server's metrics registry; liveness census and WAL gauges are
    /// pushed here so the uniformly-served Stats RPC reports them.
    metrics: Arc<MetricsRegistry>,
}

/// Refuses, before anything is locked or mutated, a request whose WAL
/// record could exceed the log's record cap (`glider_wal::MAX_RECORD_LEN`,
/// 16 MiB), and a server registration over [`MAX_SERVER_BLOCKS`], whose
/// per-block registry state would be sized by the request alone. With
/// these bounds the largest record, an `ExtentsAdded` of 4 096 extents
/// with 7 backups each on 256-byte addresses, takes about 9 MiB.
fn check_bounds(body: &RequestBody) -> GliderResult<()> {
    let check = |what: &str, len: usize, max: usize| {
        if len > max {
            return Err(GliderError::invalid(format!(
                "{what} of {len} exceeds the limit of {max}"
            )));
        }
        Ok(())
    };
    match body {
        RequestBody::RegisterServer {
            storage_class,
            addr,
            capacity_blocks,
            ..
        } => {
            if *capacity_blocks > MAX_SERVER_BLOCKS {
                return Err(GliderError::invalid(format!(
                    "server capacity of {capacity_blocks} blocks exceeds the limit of \
                     {MAX_SERVER_BLOCKS}"
                )));
            }
            check("server address bytes", addr.len(), MAX_NAME_LEN)?;
            check("storage class bytes", storage_class.0.len(), MAX_NAME_LEN)
        }
        RequestBody::CreateNode {
            path,
            storage_class,
            action,
            ..
        } => {
            check("path bytes", path.len(), MAX_PATH_LEN)?;
            if let Some(class) = storage_class {
                check("storage class bytes", class.0.len(), MAX_NAME_LEN)?;
            }
            if let Some(spec) = action {
                check("action type bytes", spec.type_name.len(), MAX_NAME_LEN)?;
                check("action params bytes", spec.params.len(), MAX_PARAMS_LEN)?;
            }
            Ok(())
        }
        RequestBody::CommitBlocks { commits, .. } => {
            check("commits", commits.len(), MAX_BATCH as usize)
        }
        _ => Ok(()),
    }
}

/// Node `id` of `ns`, or `NotFound`.
fn node_in(ns: &Namespace, id: NodeId) -> GliderResult<&Node> {
    ns.get(id)
        .ok_or_else(|| GliderError::not_found(format!("node {id}")))
}

/// `NotFound` unless `block` is in `node`'s chain.
fn check_in_chain(node: &Node, block: BlockId) -> GliderResult<()> {
    if node.blocks.iter().any(|b| b.loc.block_id == block) {
        return Ok(());
    }
    let id = node.id;
    Err(GliderError::not_found(format!(
        "block {block} in node {id}"
    )))
}

/// `NotFound` unless `block` is in `node`'s chain, and `Unavailable`
/// when committing its first `len` bytes would ack bytes no live replica
/// holds: its primary's server is gone, and so is every backup that holds
/// them ([`Copies::holds`]). Repair copies only committed bytes,
/// so acked bytes not yet committed can be lost with their chain.
fn check_held(node: &Node, reg: &ServerRegistry, block: BlockId, len: u64) -> GliderResult<()> {
    check_in_chain(node, block)?;
    let primary = node.blocks.iter().find(|b| b.loc.block_id == block);
    if len == 0 || primary.is_some_and(|b| !reg.is_gone(b.loc.server_id)) {
        return Ok(());
    }
    let backups = node
        .backups
        .get(&block)
        .map(Vec::as_slice)
        .unwrap_or_default();
    if backups
        .iter()
        .any(|l| !reg.is_gone(l.server_id) && reg.copies().holds(l.block_id, len))
    {
        return Ok(());
    }
    Err(GliderError::unavailable(format!(
        "no live replica holds the {len} bytes of block {block}"
    )))
}

impl MetaService {
    /// Builds the service. With a WAL directory this is crash recovery
    /// ([`recover`] from the newest snapshot and the log past it, every
    /// recovered server's lease starting at `now`); without one, the same
    /// call builds a fresh state.
    ///
    /// # Errors
    ///
    /// `Unavailable` when the WAL cannot be opened, or what [`recover`]
    /// refuses.
    pub fn open(
        now: Instant,
        options: MetadataOptions,
        metrics: Arc<MetricsRegistry>,
    ) -> GliderResult<Self> {
        let shard_count = options.namespace_shards.clamp(1, 64);
        let (wal, (shards, reg)) = match &options.wal {
            None => (None, recover(now, shard_count, None, 0, [])?),
            Some(dir) => {
                let (wal, replay) = Wal::open(WalOptions::new(dir))
                    .map_err(|e| GliderError::unavailable(format!("wal open failed: {e}")))?;
                let state = recover(
                    now,
                    shard_count,
                    replay.snapshot.as_deref(),
                    replay.snapshot_lsn,
                    &replay.records,
                )?;
                (Some(wal), state)
            }
        };
        Ok(MetaService {
            shards: shards.into_iter().map(OrderedMutex::new).collect(),
            reg: OrderedMutex::new(reg),
            wal,
            options,
            metrics,
        })
    }

    /// The options the service was opened with.
    pub fn options(&self) -> &MetadataOptions {
        &self.options
    }

    /// Replicas per block, primary included (1 to 8).
    fn factor(&self) -> u32 {
        self.options.replication_factor.clamp(1, MAX_REPLICATION)
    }

    /// The shard owning `path` (same hash as client partition routing).
    /// `shard_of` reduces modulo the shard count, so the lookup cannot
    /// miss; the error arm keeps the dispatch path free of indexing.
    fn shard_for_path(
        &self,
        path: &NodePath,
    ) -> GliderResult<&OrderedMutex<NamespaceShard, Namespace>> {
        let idx = shard_of(path.as_str(), self.shards.len());
        self.shards
            .get(idx)
            .ok_or_else(|| GliderError::invalid(format!("no shard for path {}", path.as_str())))
    }

    /// The shard that minted `id`, recovered from the id's shard bits.
    fn shard_for_id(&self, id: NodeId) -> GliderResult<&OrderedMutex<NamespaceShard, Namespace>> {
        self.shards
            .get(shard_of_id(id))
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
            self.publish_wal(wal);
        }
        Ok(())
    }

    /// Pushes the WAL's fsync and byte counters into the metrics registry.
    fn publish_wal(&self, wal: &Wal) -> WalStats {
        let stats = wal.stats();
        self.metrics.set(Signal::WalFsyncs, stats.fsyncs);
        self.metrics.set(Signal::WalBytes, stats.appended_bytes);
        stats
    }

    /// Pushes the registry's liveness census into the metrics registry.
    fn publish_liveness(&self, reg: &ServerRegistry) {
        let (live, suspect, dead) = reg.liveness_counts();
        self.metrics.set(Signal::ServersLive, live);
        self.metrics.set(Signal::ServersSuspect, suspect);
        self.metrics.set(Signal::ServersDead, dead);
    }

    /// Tops `set` up to `factor - 1` backups of a primary on `primary`,
    /// each on a server that holds no other copy, walking the class
    /// fallback chain like a primary allocation. Stops short when no such
    /// server has a free block: the write proceeds under-replicated
    /// rather than failing, and the sweeper tops it up when capacity
    /// returns.
    fn top_up_backups(
        &self,
        reg: &mut ServerRegistry,
        class: &StorageClass,
        primary: ServerId,
        set: &mut Vec<BlockLocation>,
    ) {
        let want = self.factor() as usize - 1;
        let mut exclude: Vec<ServerId> = set.iter().map(|l| l.server_id).collect();
        exclude.push(primary);
        while set.len() < want {
            match allocate_with_fallback(reg, &self.options.class_fallbacks, class, &exclude) {
                Ok(loc) => {
                    exclude.push(loc.server_id);
                    set.push(loc);
                }
                Err(_) => break,
            }
        }
    }

    /// Allocates up to `count` blocks of `class` and appends them to
    /// `node_id`'s chain, all under the already-held shard lock (`ctx`)
    /// plus a single registry-lock acquisition. With a replication factor
    /// above one, each appended block also gets its backups
    /// ([`MetaService::top_up_backups`]). Returns the extents plus the
    /// backup sets keyed by primary block. Errors only if *no* block can
    /// be allocated or the chain rejects the batch; either way the
    /// registry is restored exactly (all-or-nothing).
    #[allow(clippy::type_complexity)]
    fn add_blocks_locked(
        &self,
        ctx: &mut Locked<'_, NamespaceShard>,
        ns: &mut Namespace,
        node_id: NodeId,
        class: &StorageClass,
        count: u32,
    ) -> GliderResult<(Vec<BlockExtent>, Vec<(BlockId, Vec<BlockLocation>)>)> {
        let (mut reg, _) = self.reg.lock(ctx);
        let mut locs: Vec<BlockLocation> = Vec::with_capacity(count as usize);
        for _ in 0..count {
            match allocate_with_fallback(&mut reg, &self.options.class_fallbacks, class, &[]) {
                Ok(loc) => locs.push(loc),
                Err(e) if locs.is_empty() => return Err(e),
                // Partial capacity: hand back what we got; the client asks
                // again (and gets a clean OutOfCapacity) when it is truly
                // exhausted.
                Err(_) => break,
            }
        }
        let extents = match ns.add_extents(node_id, locs.clone()) {
            Ok(extents) => extents,
            Err(e) => {
                for loc in &locs {
                    reg.free(loc.block_id);
                }
                return Err(e);
            }
        };
        let mut backups = Vec::new();
        for extent in &extents {
            let mut set = Vec::new();
            self.top_up_backups(&mut reg, class, extent.loc.server_id, &mut set);
            if !set.is_empty() {
                ns.set_backups(node_id, extent.loc.block_id, set.clone())?;
                backups.push((extent.loc.block_id, set));
            }
        }
        Ok((extents, backups))
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

    /// Walks the heartbeat leases at `now` (DESIGN.md §10): demotes
    /// silent servers Live → Suspect → Dead, publishes the census, and
    /// logs each transition into the flight recorder's structured event
    /// log, so a `DumpSpans` query can pin down *when* a server was
    /// demoted.
    pub fn sweep(&self, now: Instant) {
        let mut ctx = Locked::unlocked();
        let (mut reg, _) = self.reg.lock(&mut ctx);
        let (_, transitions) = reg.sweep_with_transitions(now, self.options.lease);
        self.publish_liveness(&reg);
        drop(reg);
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
    }

    /// Restores `node_id`'s replica layout under the shard + registry
    /// locks: promotes a surviving backup for every primary whose server
    /// is gone (unregistered or `Dead` — `Suspect` servers may still come
    /// back, so their data is not given up), prunes dead backups, and
    /// allocates replacements up to the configured factor. Every change
    /// is logged before this returns. Data movement happens *outside* the
    /// locks: the returned [`CopyPlan`]s say which bytes to push where —
    /// into every backup repair added that no copy of the committed bytes
    /// reached yet, a new one included unless nothing is committed
    /// ([`MetaService::copied`] records one that did) — and the layout is
    /// the node's replicas after the repair.
    ///
    /// # Errors
    ///
    /// `NotFound` for an unknown node, or a failed WAL append.
    pub fn repair_node_locked(
        &self,
        node_id: NodeId,
    ) -> GliderResult<(Vec<CopyPlan>, Vec<ReplicaExtent>)> {
        self.repair_node(&mut Locked::unlocked(), node_id)
    }

    /// [`MetaService::repair_node_locked`] under a caller's context that
    /// holds no lock.
    fn repair_node(
        &self,
        ctx: &mut Locked<'_, Unlocked>,
        node_id: NodeId,
    ) -> GliderResult<(Vec<CopyPlan>, Vec<ReplicaExtent>)> {
        let (mut ns, mut ctx) = self.shard_for_id(node_id)?.lock(ctx);
        let (class, chain) = {
            let node = node_in(&ns, node_id)?;
            (node.storage_class.clone(), node.blocks.clone())
        };
        let (mut reg, _) = self.reg.lock(&mut ctx);
        let mut plans = Vec::new();
        for extent in chain {
            let mut cur = extent;
            if reg.is_gone(cur.loc.server_id) {
                // Only a backup that holds every committed byte may take
                // the primary's place.
                let promoted = ns
                    .get(node_id)
                    .and_then(|n| n.backups.get(&cur.loc.block_id))
                    .and_then(|set| {
                        set.iter()
                            .find(|l| {
                                !reg.is_gone(l.server_id) && reg.copies().holds(l.block_id, cur.len)
                            })
                            .cloned()
                    });
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
                .partition(|l| !reg.is_gone(l.server_id));
            for l in &pruned {
                reg.free(l.block_id);
            }
            let kept = set.len();
            self.top_up_backups(&mut reg, &class, cur.loc.server_id, &mut set);
            for dst in set.iter().skip(kept) {
                reg.await_copy(dst.block_id);
            }
            // A copy into every backup that no confirmed copy of the
            // committed bytes reached: a new one (it holds 0 bytes, so
            // none while nothing is committed), one whose copy failed, or
            // one a commit grew the extent past (the writer's chain does
            // not name a backup repair added).
            plans.extend(
                set.iter()
                    .filter(|dst| !reg.copies().holds(dst.block_id, cur.len))
                    .map(|dst| CopyPlan {
                        src_addr: cur.loc.addr.clone(),
                        src_block: cur.loc.block_id,
                        dst: dst.clone(),
                        len: cur.len,
                    }),
            );
            if set != before {
                ns.set_backups(node_id, cur.loc.block_id, set.clone())?;
                self.log(&WalEntry::BackupsSet {
                    node_id,
                    block: cur.loc.block_id,
                    backups: set,
                })?;
            }
        }
        let layout = ns.get(node_id).map(Node::replicas).unwrap_or_default();
        Ok((plans, layout))
    }

    /// Durability upkeep, run by the lease sweeper every quarter lease:
    /// repairs every node whose extents lost copies to gone servers
    /// ([`ServerRegistry::is_gone`]: unregistered or dead), sit under
    /// the factor, or have a backup still short of the committed bytes
    /// ([`Copies::holds`]), publishes the under-replication and WAL
    /// gauges, and
    /// snapshots + compacts the WAL once enough records accumulate.
    /// Returns the replica copies the repairs planned, for the caller to
    /// run.
    pub fn maintenance(&self) -> Vec<CopyPlan> {
        let factor = self.factor();
        let mut plans = Vec::new();
        let mut ctx = Locked::unlocked();
        if factor > 1 {
            // Census + repair. The census reads `is_gone` once per
            // registered server (every other id is gone), then takes the
            // shard locks one at a time; repair_node re-takes them per
            // node, so no ordering hazard with the registry lock.
            let mut candidates: Vec<NodeId> = Vec::new();
            let (holding, copies): (HashSet<ServerId>, Copies) = {
                let (reg, _) = self.reg.lock(&mut ctx);
                let ids = reg.servers().map(|s| s.id);
                let holding = ids.filter(|&id| !reg.is_gone(id)).collect();
                (holding, reg.copies().clone())
            };
            let gone = |id: &ServerId| !holding.contains(id);
            for shard in &self.shards {
                let (ns, _) = shard.lock(&mut ctx);
                for node in ns.nodes() {
                    let needs = node.blocks.iter().any(|b| {
                        let backups = node
                            .backups
                            .get(&b.loc.block_id)
                            .map(Vec::as_slice)
                            .unwrap_or_default();
                        gone(&b.loc.server_id)
                            || (backups.len() as u32) < factor - 1
                            || backups
                                .iter()
                                .any(|l| gone(&l.server_id) || !copies.holds(l.block_id, b.len))
                    });
                    if needs {
                        candidates.push(node.id);
                    }
                }
            }
            let mut under = 0u64;
            for node_id in candidates {
                // The node may have been deleted since the census.
                if let Ok((p, layout)) = self.repair_node(&mut ctx, node_id) {
                    plans.extend(p);
                    under += layout
                        .iter()
                        .filter(|r| (r.backups.len() as u32) < factor - 1)
                        .count() as u64;
                }
            }
            self.metrics.set(Signal::UnderReplicated, under);
        }
        if let Some(wal) = &self.wal {
            if self.publish_wal(wal).since_snapshot >= SNAPSHOT_EVERY {
                if let Err(e) = self.snapshot_now() {
                    glider_trace::structured_event("wal.snapshot_failed", &e.to_string(), "", 0, 0);
                }
            }
        }
        plans
    }

    /// Records that `plan` ran: its backup holds the first `plan.len`
    /// bytes. Until this is called, every `maintenance` plans the copy
    /// again.
    pub fn copied(&self, plan: &CopyPlan) {
        let mut ctx = Locked::unlocked();
        let (mut reg, _) = self.reg.lock(&mut ctx);
        reg.confirm_copy(plan.dst.block_id, plan.len);
    }

    /// Reads the full state into a [`Snapshot`], one part at a time, with
    /// each part's exact cut: the WAL's last LSN, read while the part's
    /// lock is held. A part's records are appended under its lock, so
    /// none is in flight then: the part holds every record of its own up
    /// to the cut, and none past it. Without a WAL every cut is 0.
    pub fn capture(&self) -> Snapshot {
        let last_lsn = || self.wal.as_ref().map_or(0, Wal::last_lsn);
        let mut ctx = Locked::unlocked();
        let (registry_cut, mut servers) = {
            let (reg, _) = self.reg.lock(&mut ctx);
            let servers: Vec<ServerRecord> = reg.servers().map(ServerRecord::from).collect();
            (last_lsn(), servers)
        };
        servers.sort_by_key(|s| s.id.0);
        let mut cuts = vec![registry_cut];
        let shards = self
            .shards
            .iter()
            .map(|shard| {
                let (ns, _) = shard.lock(&mut ctx);
                cuts.push(last_lsn());
                Snapshot::shard(&ns)
            })
            .collect();
        Snapshot {
            cuts,
            servers,
            shards,
        }
    }

    /// Installs [`MetaService::capture`] as the WAL's snapshot at its
    /// smallest cut, letting the log compact every record below it. The
    /// records between the smallest cut and a part's own stay in the log,
    /// and replay skips them for that part. A no-op without a WAL.
    ///
    /// # Errors
    ///
    /// `Unavailable` when the snapshot cannot be written.
    pub fn snapshot_now(&self) -> GliderResult<()> {
        let Some(wal) = &self.wal else {
            return Ok(());
        };
        let snap = self.capture();
        let covered = snap.cuts.iter().copied().min().unwrap_or(0);
        wal.install_snapshot(covered, &snap.encode())
            .map_err(|e| GliderError::unavailable(format!("wal snapshot failed: {e}")))
    }

    /// Serves one metadata request arriving at `now` (a registration's or
    /// heartbeat's lease starts then): a mutation is applied under its
    /// locks and appended to the WAL before the answer is built. `RepairNode`
    /// (served by the RPC shell through
    /// [`MetaService::repair_node_locked`]) and data-plane ops answer
    /// `Unsupported`.
    ///
    /// # Errors
    ///
    /// The request's error answer; `InvalidArgument`, with nothing
    /// changed, for a request over the size bounds that keep its WAL
    /// record under the log's cap; `Unavailable` when the WAL append
    /// fails.
    pub fn apply(&self, now: Instant, body: RequestBody) -> GliderResult<ResponseBody> {
        check_bounds(&body)?;
        let mut ctx = Locked::unlocked();
        match body {
            RequestBody::Hello { .. } => Ok(ResponseBody::Ok),
            RequestBody::RegisterServer {
                kind,
                storage_class,
                addr,
                capacity_blocks,
            } => {
                let (mut reg, _) = self.reg.lock(&mut ctx);
                let (server_id, first_block_id) = reg.register(
                    now,
                    kind,
                    storage_class.clone(),
                    addr.clone(),
                    capacity_blocks,
                )?;
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
                let (mut reg, _) = self.reg.lock(&mut ctx);
                reg.heartbeat(now, server_id)?;
                self.publish_liveness(&reg);
                Ok(ResponseBody::Ok)
            }
            RequestBody::ReplaceBlock { node_id, block_id } => {
                let (mut ns, mut ctx) = self.shard_for_id(node_id)?.lock(&mut ctx);
                let node = node_in(&ns, node_id)?;
                check_in_chain(node, block_id)?;
                let class = node.storage_class.clone();
                let (mut reg, _) = self.reg.lock(&mut ctx);
                // The writer could not reach the block's server: that is
                // liveness evidence, so stop allocating there before the
                // lease would notice.
                if let Some(owner) = reg.owner_of(block_id) {
                    reg.suspect(owner);
                    self.publish_liveness(&reg);
                }
                let loc =
                    allocate_with_fallback(&mut reg, &self.options.class_fallbacks, &class, &[])?;
                let (extent, old_backups) = match ns.replace_extent(node_id, block_id, loc.clone())
                {
                    Ok(replaced) => replaced,
                    Err(e) => {
                        reg.free(loc.block_id);
                        return Err(e);
                    }
                };
                // The dead block's capacity goes back to its owner;
                // suspect servers are skipped by allocation, so it is only
                // reused if the server heartbeats back. The old primary's
                // backups covered data the writer is about to replay from
                // scratch — free them and give the replacement its own
                // fresh set.
                reg.free(block_id);
                for b in &old_backups {
                    reg.free(b.block_id);
                }
                let mut backups = Vec::new();
                self.top_up_backups(&mut reg, &class, extent.loc.server_id, &mut backups);
                if !backups.is_empty() {
                    ns.set_backups(node_id, extent.loc.block_id, backups.clone())?;
                }
                self.log(&WalEntry::Replaced {
                    node_id,
                    old_block: block_id,
                    extent: extent.clone(),
                    backups: backups.clone(),
                })?;
                if self.factor() > 1 {
                    return Ok(ResponseBody::ReplicatedBlocks(vec![ReplicaExtent {
                        extent,
                        backups,
                    }]));
                }
                Ok(ResponseBody::Block(extent))
            }
            RequestBody::CreateNode {
                path,
                kind,
                storage_class,
                action,
            } => {
                let path = NodePath::parse(&path)?;
                let (mut ns, mut ctx) = self.shard_for_path(&path)?.lock(&mut ctx);
                let next_id = ns.next_id();
                let node = ns.create(path.clone(), kind, storage_class, action)?;
                let (node_id, class) = (node.id, node.storage_class.clone());
                // KeyValue and Action nodes get their single block up
                // front so clients reach storage with one metadata trip.
                let mut extents = Vec::new();
                let mut backups = Vec::new();
                if matches!(kind, NodeKind::KeyValue | NodeKind::Action) {
                    match self.add_blocks_locked(&mut ctx, &mut ns, node_id, &class, 1) {
                        Ok((e, b)) => {
                            extents = e;
                            backups = b;
                        }
                        Err(e) => {
                            // Roll back the node and its id so the
                            // failure is atomic.
                            let _ = ns.delete(&path);
                            ns.rewind_next_id(next_id);
                            return Err(e);
                        }
                    }
                }
                let node = node_in(&ns, node_id)?;
                let info = node.info();
                self.log(&WalEntry::NodeCreated {
                    path: path.as_str().to_string(),
                    id: node_id,
                    kind,
                    class,
                    action: node.action.clone(),
                    extents,
                    backups,
                })?;
                Ok(ResponseBody::Node(info))
            }
            RequestBody::LookupNode { path } => {
                let path = NodePath::parse(&path)?;
                Ok(ResponseBody::Node(
                    self.shard_for_path(&path)?
                        .lock(&mut ctx)
                        .0
                        .lookup(&path)?
                        .info(),
                ))
            }
            RequestBody::DeleteNode { path } => {
                let path = NodePath::parse(&path)?;
                let (mut ns, mut ctx) = self.shard_for_path(&path)?.lock(&mut ctx);
                let out = ns.delete(&path)?;
                // Return freed capacity to the allocator (backup replicas
                // ride along in `out.extents` as zero-length extents). The
                // client is responsible for releasing the actual
                // bytes/objects on the storage servers (FreeBlocks /
                // ActionDelete).
                {
                    let (mut reg, _) = self.reg.lock(&mut ctx);
                    let actions = out.actions.iter().flat_map(|a| &a.blocks);
                    for extent in out.extents.iter().chain(actions) {
                        reg.free(extent.loc.block_id);
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
                        names.extend(shard.lock(&mut ctx).0.list_children(&path)?);
                    }
                    names.sort();
                    return Ok(ResponseBody::Children(names));
                }
                Ok(ResponseBody::Children(
                    self.shard_for_path(&path)?
                        .lock(&mut ctx)
                        .0
                        .list_children(&path)?,
                ))
            }
            RequestBody::AddBlocks { node_id, count } => {
                if count == 0 {
                    return Err(GliderError::invalid("AddBlocks count must be >= 1"));
                }
                let (mut ns, mut ctx) = self.shard_for_id(node_id)?.lock(&mut ctx);
                let class = node_in(&ns, node_id)?.storage_class.clone();
                // Cap runaway batches; the response says how many we gave.
                let (extents, backups) = self.add_blocks_locked(
                    &mut ctx,
                    &mut ns,
                    node_id,
                    &class,
                    count.min(MAX_BATCH),
                )?;
                self.log(&WalEntry::ExtentsAdded {
                    node_id,
                    extents: extents.clone(),
                    backups: backups.clone(),
                })?;
                if self.factor() > 1 {
                    return Ok(ResponseBody::ReplicatedBlocks(Self::replica_view(
                        &extents, &backups,
                    )));
                }
                Ok(ResponseBody::Blocks(extents))
            }
            RequestBody::CommitBlocks { node_id, commits } => {
                let (mut ns, mut ctx) = self.shard_for_id(node_id)?.lock(&mut ctx);
                // Validate the whole batch before applying any of it, so a
                // bad commit cannot leave the chain half-updated.
                let node = node_in(&ns, node_id)?;
                {
                    let (reg, _) = self.reg.lock(&mut ctx);
                    for (block_id, len) in &commits {
                        check_held(node, &reg, *block_id, *len)?;
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
                let (ns, _) = self.shard_for_id(node_id)?.lock(&mut ctx);
                Ok(ResponseBody::ReplicatedBlocks(
                    node_in(&ns, node_id)?.replicas(),
                ))
            }
            other => Err(GliderError::new(
                ErrorCode::Unsupported,
                format!(
                    "operation {} is a data-plane op; send it to a storage server",
                    other.op().name
                ),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glider_proto::types::{ActionSpec, ServerKind};

    #[test]
    fn the_largest_records_the_bounds_allow_fit_the_log() {
        let name = |c: &str| c.repeat(MAX_NAME_LEN);
        let loc = BlockLocation {
            block_id: BlockId(u64::MAX),
            server_id: ServerId(u64::MAX),
            addr: name("a"),
        };
        let extent = BlockExtent {
            loc: loc.clone(),
            len: u64::MAX,
        };
        let set = vec![loc.clone(); MAX_REPLICATION as usize - 1];
        let extents = vec![extent.clone(); MAX_BATCH as usize];
        let backups: Vec<_> = extents
            .iter()
            .map(|e| (e.loc.block_id, set.clone()))
            .collect();
        let node_id = NodeId(u64::MAX);
        let path = format!("/{}", "p".repeat(MAX_PATH_LEN - 1));
        let largest = [
            WalEntry::ExtentsAdded {
                node_id,
                extents,
                backups: backups.clone(),
            },
            WalEntry::NodeCreated {
                path: path.clone(),
                id: node_id,
                kind: NodeKind::Action,
                class: StorageClass(name("c")),
                action: Some(ActionSpec {
                    type_name: name("t"),
                    interleaved: true,
                    params: "x".repeat(MAX_PARAMS_LEN),
                }),
                extents: vec![extent.clone()],
                backups: backups[..1].to_vec(),
            },
            WalEntry::Committed {
                node_id,
                commits: vec![(BlockId(u64::MAX), u64::MAX); MAX_BATCH as usize],
            },
            WalEntry::Replaced {
                node_id,
                old_block: BlockId(u64::MAX),
                extent,
                backups: set.clone(),
            },
            WalEntry::BackupsSet {
                node_id,
                block: BlockId(u64::MAX),
                backups: set,
            },
            WalEntry::ServerRegistered {
                server_id: ServerId(u64::MAX),
                kind: ServerKind::Data,
                class: StorageClass(name("c")),
                addr: name("a"),
                capacity: u64::MAX,
                first_block: BlockId(u64::MAX),
            },
            WalEntry::Deleted { path },
        ];
        for entry in largest {
            let len = entry.encode().len();
            assert!(
                len <= glider_wal::MAX_RECORD_LEN as usize,
                "{} encodes to {len} bytes",
                format!("{entry:?}")
                    .split([' ', '{'])
                    .next()
                    .unwrap_or_default()
            );
        }
    }
}
