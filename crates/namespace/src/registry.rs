//! Storage-server membership and block allocation.
//!
//! Servers register into exactly one storage class (paper §4.1) and
//! contribute a fixed number of blocks (data servers) or action slots
//! (active servers). Allocation walks the servers of a class round-robin —
//! the uniform distribution policy Glider inherits from NodeKernel/Pocket
//! to avoid redistribution when scaling (§4.2 "Distributing actions").

use glider_proto::types::{BlockId, BlockLocation, ServerId, ServerKind, StorageClass};
use glider_proto::{ErrorCode, GliderError, GliderResult};
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::time::{Duration, Instant};

/// The most blocks one server may contribute. The registry keeps about
/// 9 bytes per block (its id in the free list and a free flag), so this
/// bounds one registration at about 144 MiB of metadata memory, and it
/// still covers 16 TiB of the default 1 MiB blocks.
pub const MAX_SERVER_BLOCKS: u64 = 1 << 24;

/// Health of a registered server, driven by its heartbeat lease
/// (DESIGN.md §10): servers are `Live` while beating, become `Suspect`
/// after one silent lease, and `Dead` after two. Suspect and Dead servers
/// are excluded from allocation; a Dead server that comes back re-registers
/// and supersedes its old entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Liveness {
    /// Heartbeating within its lease.
    Live,
    /// One lease with no heartbeat (or a client reported it unreachable).
    Suspect,
    /// Two leases with no heartbeat; treated as gone.
    Dead,
}

/// One liveness transition of a server: `(addr, from, to)`.
pub type Transition = (String, Liveness, Liveness);

/// One registered storage server.
#[derive(Debug, Clone)]
pub struct ServerEntry {
    /// Assigned id.
    pub id: ServerId,
    /// Data or active.
    pub kind: ServerKind,
    /// The single class this server joined.
    pub class: StorageClass,
    /// Data-plane address clients dial.
    pub addr: String,
    /// Total blocks contributed.
    pub capacity: u64,
    /// First id of the contiguous block range carved for this server
    /// (the range is `first_block .. first_block + capacity`). Persisted
    /// in the WAL so recovery can rebuild the free list exactly.
    pub first_block: BlockId,
    /// Free blocks in reuse order: allocation pops the front and a freed
    /// block goes to the back, so it is handed out last, which gives the
    /// client's `FreeBlocks` time to reach the storage server.
    free: VecDeque<BlockId>,
    /// Whether block `first_block + i` is in `free`, at index `i`: the
    /// membership test `free` itself would answer in a scan.
    is_free: Vec<bool>,
    liveness: Liveness,
    last_beat: Instant,
}

impl ServerEntry {
    /// Number of currently unallocated blocks on this server.
    pub fn free_blocks(&self) -> usize {
        self.free.len()
    }

    /// The free flag of `block`, or `None` outside the server's range.
    fn free_flag(&mut self, block: BlockId) -> Option<&mut bool> {
        let index = usize::try_from(block.0.checked_sub(self.first_block.0)?).ok()?;
        self.is_free.get_mut(index)
    }

    /// The server's current health.
    pub fn liveness(&self) -> Liveness {
        self.liveness
    }
}

/// Membership and allocation state for all storage servers.
///
/// # Examples
///
/// ```
/// use glider_namespace::ServerRegistry;
/// use glider_proto::types::{ServerKind, StorageClass};
/// use std::time::Instant;
///
/// // The registry reads no clock: the caller stamps each registration.
/// let mut reg = ServerRegistry::new();
/// let (id, _first) = reg.register(
///     Instant::now(),
///     ServerKind::Data,
///     StorageClass::dram(),
///     "127.0.0.1:9000".to_string(),
///     4,
/// )?;
/// let loc = reg.allocate(&StorageClass::dram())?;
/// assert_eq!(loc.server_id, id);
/// # Ok::<(), glider_proto::GliderError>(())
/// ```
#[derive(Debug, Default)]
pub struct ServerRegistry {
    /// Ordered, as are `classes` and `copies`: their iteration order
    /// reaches allocation, retirement and repair, and a seeded history
    /// replays only if no map iterates in a per-process order.
    servers: BTreeMap<ServerId, ServerEntry>,
    classes: BTreeMap<StorageClass, ClassState>,
    /// Each registered server's block range, keyed by its first block:
    /// ranges never overlap, so a block's owner is the entry at or below
    /// it, when the block falls inside that server's capacity.
    ranges: BTreeMap<u64, ServerId>,
    /// Not logged: a recovered registry trusts every backup.
    copies: Copies,
    next_server: u64,
    next_block: u64,
}

/// The backups that repair allocated, with the bytes a confirmed copy
/// put in each (0 until one is confirmed). A backup the writer's chain
/// wrote is not here.
#[derive(Debug, Default, Clone)]
pub struct Copies(BTreeMap<BlockId, u64>);

impl Copies {
    /// Whether backup `block` holds the first `len` bytes of its extent:
    /// false only for a block repair allocated that no confirmed copy of
    /// `len` bytes has reached.
    pub fn holds(&self, block: BlockId, len: u64) -> bool {
        self.0.get(&block).is_none_or(|&held| held >= len)
    }
}

#[derive(Debug, Default)]
struct ClassState {
    members: Vec<ServerId>,
    cursor: usize,
}

impl ServerRegistry {
    /// Creates an empty registry; server and block ids start at 1.
    pub fn new() -> Self {
        ServerRegistry {
            next_server: 1,
            next_block: 1,
            ..Default::default()
        }
    }

    /// Registers a server with `capacity` blocks into `class`; its lease
    /// starts at `now`.
    ///
    /// Returns the assigned server id and the first block id of the
    /// contiguous range assigned to its capacity.
    ///
    /// # Errors
    ///
    /// As [`ServerRegistry::register_with_ids`].
    pub fn register(
        &mut self,
        now: Instant,
        kind: ServerKind,
        class: StorageClass,
        addr: String,
        capacity: u64,
    ) -> GliderResult<(ServerId, BlockId)> {
        let (id, first_block) = (ServerId(self.next_server), BlockId(self.next_block));
        self.register_with_ids(now, id, first_block, kind, class, addr, capacity)?;
        Ok((id, first_block))
    }

    /// [`ServerRegistry::register`] under given ids: the server keeps `id`
    /// and the block range `first_block .. first_block + capacity`. This
    /// is the one insertion body the live path and WAL replay share. Every
    /// block starts free (replay takes the blocks the namespace holds back
    /// out with [`ServerRegistry::reconcile`]) and the id allocators move
    /// past the range. A server restarting on the same address supersedes
    /// its previous registration: the restarted process lost its blocks
    /// anyway, so the stale entry is retired rather than left to rot as
    /// Dead.
    ///
    /// # Errors
    ///
    /// - [`ErrorCode::InvalidArgument`] for a capacity of zero or over
    ///   [`MAX_SERVER_BLOCKS`], or ids past the end of their `u64` range
    ///   (only a corrupt replayed record carries those),
    /// - [`ErrorCode::AlreadyExists`] if `id` is registered.
    #[allow(clippy::too_many_arguments)]
    pub fn register_with_ids(
        &mut self,
        now: Instant,
        id: ServerId,
        first_block: BlockId,
        kind: ServerKind,
        class: StorageClass,
        addr: String,
        capacity: u64,
    ) -> GliderResult<()> {
        if capacity == 0 {
            return Err(GliderError::invalid("server capacity must be non-zero"));
        }
        if capacity > MAX_SERVER_BLOCKS {
            return Err(GliderError::invalid(format!(
                "server capacity of {capacity} blocks exceeds the limit of {MAX_SERVER_BLOCKS}"
            )));
        }
        let (Some(next_server), Some(end_block)) =
            (id.0.checked_add(1), first_block.0.checked_add(capacity))
        else {
            return Err(GliderError::invalid(format!(
                "server {} with blocks from {} overflows the id space",
                id.0, first_block.0
            )));
        };
        if self.servers.contains_key(&id) {
            return Err(GliderError::already_exists(format!("server {}", id.0)));
        }
        let stale: Vec<ServerId> = self
            .servers
            .values()
            .filter(|s| s.addr == addr)
            .map(|s| s.id)
            .collect();
        for sid in stale {
            self.retire(sid);
        }
        self.next_server = self.next_server.max(next_server);
        self.next_block = self.next_block.max(end_block);
        let free = (first_block.0..end_block).map(BlockId).collect();
        self.ranges.insert(first_block.0, id);
        self.servers.insert(
            id,
            ServerEntry {
                id,
                kind,
                class: class.clone(),
                addr,
                capacity,
                first_block,
                free,
                is_free: vec![true; capacity as usize],
                liveness: Liveness::Live,
                last_beat: now,
            },
        );
        self.classes.entry(class).or_default().members.push(id);
        Ok(())
    }

    /// Takes every block in `held` out of its owner's free list
    /// (recovery: the namespace holds these blocks), in one pass over
    /// each server's list. Blocks no server owns are ignored.
    pub fn reconcile(&mut self, held: &HashSet<BlockId>) {
        for &block in held {
            let owner = self.owner_of(block);
            let server = owner.and_then(|sid| self.servers.get_mut(&sid));
            if let Some(flag) = server.and_then(|s| s.free_flag(block)) {
                *flag = false;
            }
        }
        for server in self.servers.values_mut() {
            server.free.retain(|b| !held.contains(b));
        }
    }

    /// Allocates one block from `class`, round-robin across its live
    /// servers: [`ServerRegistry::allocate_excluding`] excluding none.
    ///
    /// # Errors
    ///
    /// As [`ServerRegistry::allocate_excluding`].
    pub fn allocate(&mut self, class: &StorageClass) -> GliderResult<BlockLocation> {
        self.allocate_excluding(class, &[])
    }

    /// Allocates one block from `class`, round-robin across its live
    /// servers that are **not** in `exclude`. Replica sets are built with
    /// this so every copy of a block lands on a distinct server — replicas
    /// on the primary's server would die with it, defeating the point.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorCode::NotFound`] for an unknown class and
    /// [`ErrorCode::OutOfCapacity`] when every non-excluded live server
    /// is full (or excluded).
    pub fn allocate_excluding(
        &mut self,
        class: &StorageClass,
        exclude: &[ServerId],
    ) -> GliderResult<BlockLocation> {
        let state = self
            .classes
            .get_mut(class)
            .ok_or_else(|| GliderError::not_found(format!("storage class {class}")))?;
        let n = state.members.len();
        for step in 0..n {
            let idx = (state.cursor + step) % n;
            let sid = state.members[idx];
            if exclude.contains(&sid) {
                continue;
            }
            let server = self.servers.get_mut(&sid).expect("member exists");
            // Suspect and Dead servers are excluded: handing a writer an
            // extent on a server that stopped heartbeating just converts a
            // liveness problem into a data-plane timeout.
            if server.liveness != Liveness::Live {
                continue;
            }
            if let Some(block_id) = server.free.pop_front() {
                if let Some(flag) = server.free_flag(block_id) {
                    *flag = false;
                }
                state.cursor = (idx + 1) % n;
                return Ok(BlockLocation {
                    block_id,
                    server_id: sid,
                    addr: server.addr.clone(),
                });
            }
        }
        Err(GliderError::new(
            ErrorCode::OutOfCapacity,
            format!("no free blocks in storage class {class}"),
        ))
    }

    /// Returns a block to its owning server's free list.
    ///
    /// Unknown blocks are ignored (frees are idempotent from the metadata
    /// server's perspective: a block may only be freed once because the
    /// caller removes the owning node first).
    pub fn free(&mut self, block_id: BlockId) {
        self.copies.0.remove(&block_id);
        let owner = self.owner_of(block_id);
        let Some(server) = owner.and_then(|sid| self.servers.get_mut(&sid)) else {
            return;
        };
        match server.free_flag(block_id) {
            Some(flag) if !*flag => *flag = true,
            _ => return,
        }
        server.free.push_back(block_id);
    }

    /// Marks `block` as a backup that repair allocated: it holds nothing
    /// until [`ServerRegistry::confirm_copy`] says a copy reached it.
    pub fn await_copy(&mut self, block: BlockId) {
        self.copies.0.insert(block, 0);
    }

    /// Records that a copy of the first `len` bytes of its extent reached
    /// `block`. Ignored unless `block` awaits copies.
    pub fn confirm_copy(&mut self, block: BlockId, len: u64) {
        if let Some(held) = self.copies.0.get_mut(&block) {
            *held = (*held).max(len);
        }
    }

    /// The backups that repair allocated, and what reached each.
    pub fn copies(&self) -> &Copies {
        &self.copies
    }

    /// Records a heartbeat: the server is (back to) `Live` and its lease
    /// restarts at `now`.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorCode::NotFound`] for an unregistered id — the
    /// server's cue to re-register (e.g. after its entry was retired while
    /// it was partitioned away).
    pub fn heartbeat(&mut self, now: Instant, id: ServerId) -> GliderResult<()> {
        let server = self
            .servers
            .get_mut(&id)
            .ok_or_else(|| GliderError::not_found(format!("server {}", id.0)))?;
        server.last_beat = now;
        server.liveness = Liveness::Live;
        Ok(())
    }

    /// Marks a server `Suspect` on client-reported evidence (a writer hit
    /// an unreachable extent). No-op for unknown servers; a `Dead` verdict
    /// is never softened.
    pub fn suspect(&mut self, id: ServerId) {
        if let Some(server) = self.servers.get_mut(&id) {
            if server.liveness == Liveness::Live {
                server.liveness = Liveness::Suspect;
            }
        }
    }

    /// Applies lease expiry at `now`: servers silent longer than `lease`
    /// become `Suspect`, longer than two leases `Dead`. Returns the resulting
    /// `(live, suspect, dead)` census and every liveness [`Transition`] it
    /// caused — the metadata server turns these into structured
    /// flight-recorder events, so a later trace dump can say exactly when
    /// a server went `Suspect`/`Dead`. Servers inside their lease keep
    /// their current state (a client-reported `Suspect` is only cleared by
    /// a heartbeat, not by the sweep).
    pub fn sweep_with_transitions(
        &mut self,
        now: Instant,
        lease: Duration,
    ) -> ((u64, u64, u64), Vec<Transition>) {
        let mut transitions = Vec::new();
        for server in self.servers.values_mut() {
            let silent = now.saturating_duration_since(server.last_beat);
            let from = server.liveness;
            if silent > lease.saturating_mul(2) {
                server.liveness = Liveness::Dead;
            } else if silent > lease && server.liveness == Liveness::Live {
                server.liveness = Liveness::Suspect;
            }
            if server.liveness != from {
                transitions.push((server.addr.clone(), from, server.liveness));
            }
        }
        (self.liveness_counts(), transitions)
    }

    /// The current `(live, suspect, dead)` census.
    pub fn liveness_counts(&self) -> (u64, u64, u64) {
        let mut counts = (0, 0, 0);
        for server in self.servers.values() {
            match server.liveness {
                Liveness::Live => counts.0 += 1,
                Liveness::Suspect => counts.1 += 1,
                Liveness::Dead => counts.2 += 1,
            }
        }
        counts
    }

    /// Removes a server (and its block ownership) from the registry.
    fn retire(&mut self, id: ServerId) {
        if let Some(entry) = self.servers.remove(&id) {
            if let Some(state) = self.classes.get_mut(&entry.class) {
                state.members.retain(|m| *m != id);
                state.cursor = if state.members.is_empty() {
                    0
                } else {
                    state.cursor % state.members.len()
                };
            }
            self.ranges.remove(&entry.first_block.0);
        }
    }

    /// The server a block was carved from, if it is still registered.
    pub fn owner_of(&self, block_id: BlockId) -> Option<ServerId> {
        let (first, sid) = self.ranges.range(..=block_id.0).next_back()?;
        let server = self.servers.get(sid)?;
        (block_id.0 - first < server.capacity).then_some(*sid)
    }

    /// Looks up a registered server.
    pub fn server(&self, id: ServerId) -> Option<&ServerEntry> {
        self.servers.get(&id)
    }

    /// Iterates over every registered server (snapshot capture, `fsck`).
    pub fn servers(&self) -> impl Iterator<Item = &ServerEntry> {
        self.servers.values()
    }

    /// Whether the blocks server `id` held are gone: it is unregistered
    /// (never was, or was retired when a restart re-registered its
    /// address) or `Dead`. A `Suspect` server may still come back, so its
    /// data is not given up. Replica repair and the maintenance census
    /// that picks what to repair both ask this.
    pub fn is_gone(&self, id: ServerId) -> bool {
        self.servers
            .get(&id)
            .is_none_or(|s| s.liveness == Liveness::Dead)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Free blocks across the servers of `class`.
    fn class_free(reg: &ServerRegistry, class: &StorageClass) -> usize {
        reg.servers()
            .filter(|s| s.class == *class)
            .map(ServerEntry::free_blocks)
            .sum()
    }

    fn reg_with(now: Instant, n_servers: u64, cap: u64) -> ServerRegistry {
        let mut reg = ServerRegistry::new();
        for i in 0..n_servers {
            reg.register(
                now,
                ServerKind::Data,
                StorageClass::dram(),
                format!("srv-{i}"),
                cap,
            )
            .unwrap();
        }
        reg
    }

    #[test]
    fn register_assigns_contiguous_blocks() {
        let t0 = Instant::now();
        let mut reg = ServerRegistry::new();
        let (s1, b1) = reg
            .register(t0, ServerKind::Data, StorageClass::dram(), "a".into(), 3)
            .unwrap();
        let (s2, b2) = reg
            .register(
                t0,
                ServerKind::Active,
                StorageClass::active(),
                "b".into(),
                2,
            )
            .unwrap();
        assert_ne!(s1, s2);
        assert_eq!(b1, BlockId(1));
        assert_eq!(b2, BlockId(4));
        assert_eq!(reg.server(s1).unwrap().free_blocks(), 3);
        assert_eq!(reg.server(s2).unwrap().addr, "b");
    }

    #[test]
    fn zero_capacity_rejected() {
        let t0 = Instant::now();
        let mut reg = ServerRegistry::new();
        assert!(reg
            .register(t0, ServerKind::Data, StorageClass::dram(), "a".into(), 0)
            .is_err());
    }

    /// What only a corrupt replayed record carries — an oversized
    /// capacity or ids at the end of their range — is an error, and
    /// changes nothing.
    #[test]
    fn oversized_capacity_and_overflowing_ids_are_refused() {
        let t0 = Instant::now();
        let mut reg = ServerRegistry::new();
        let mut restore = |id: u64, first: u64, capacity: u64| {
            let class = StorageClass::dram();
            reg.register_with_ids(
                t0,
                ServerId(id),
                BlockId(first),
                ServerKind::Data,
                class,
                "srv".into(),
                capacity,
            )
            .unwrap_err()
            .code()
        };
        for (id, first, capacity) in [
            (1, 1, MAX_SERVER_BLOCKS + 1),
            (1, 1, u64::MAX),
            (u64::MAX, 1, 4),
            (1, u64::MAX - 3, 4),
        ] {
            assert_eq!(restore(id, first, capacity), ErrorCode::InvalidArgument);
        }
        assert_eq!(reg.servers().count(), 0);
        assert_eq!(
            reg.register(t0, ServerKind::Data, StorageClass::dram(), "srv".into(), 4)
                .unwrap(),
            (ServerId(1), BlockId(1))
        );
    }

    #[test]
    fn allocation_round_robins_across_servers() {
        let t0 = Instant::now();
        let mut reg = reg_with(t0, 3, 10);
        let mut seen = Vec::new();
        for _ in 0..6 {
            seen.push(reg.allocate(&StorageClass::dram()).unwrap().server_id);
        }
        // Each server hit exactly twice, in rotation.
        assert_eq!(seen[0], seen[3]);
        assert_eq!(seen[1], seen[4]);
        assert_eq!(seen[2], seen[5]);
        assert_ne!(seen[0], seen[1]);
        assert_ne!(seen[1], seen[2]);
    }

    #[test]
    fn allocation_skips_full_servers() {
        let t0 = Instant::now();
        let mut reg = ServerRegistry::new();
        reg.register(
            t0,
            ServerKind::Data,
            StorageClass::dram(),
            "small".into(),
            1,
        )
        .unwrap();
        reg.register(t0, ServerKind::Data, StorageClass::dram(), "big".into(), 5)
            .unwrap();
        let mut allocated = Vec::new();
        for _ in 0..6 {
            allocated.push(reg.allocate(&StorageClass::dram()).unwrap());
        }
        assert!(reg.allocate(&StorageClass::dram()).is_err());
        let small_hits = allocated.iter().filter(|l| l.addr == "small").count();
        assert_eq!(small_hits, 1);
    }

    #[test]
    fn capacity_exhaustion_and_free_cycle() {
        let t0 = Instant::now();
        let mut reg = reg_with(t0, 1, 2);
        let a = reg.allocate(&StorageClass::dram()).unwrap();
        let _b = reg.allocate(&StorageClass::dram()).unwrap();
        let err = reg.allocate(&StorageClass::dram()).unwrap_err();
        assert_eq!(err.code(), ErrorCode::OutOfCapacity);
        reg.free(a.block_id);
        let c = reg.allocate(&StorageClass::dram()).unwrap();
        assert_eq!(c.block_id, a.block_id);
    }

    #[test]
    fn double_free_is_harmless() {
        let t0 = Instant::now();
        let mut reg = reg_with(t0, 1, 1);
        let a = reg.allocate(&StorageClass::dram()).unwrap();
        reg.free(a.block_id);
        reg.free(a.block_id);
        assert_eq!(class_free(&reg, &StorageClass::dram()), 1);
        reg.free(BlockId(999)); // unknown: ignored
    }

    #[test]
    fn unknown_class_is_not_found() {
        let t0 = Instant::now();
        let mut reg = reg_with(t0, 1, 1);
        let err = reg.allocate(&StorageClass::from("nvme")).unwrap_err();
        assert_eq!(err.code(), ErrorCode::NotFound);
    }

    #[test]
    fn heartbeat_unknown_server_is_not_found() {
        let t0 = Instant::now();
        let mut reg = reg_with(t0, 1, 1);
        assert!(reg.heartbeat(t0, ServerId(1)).is_ok());
        let err = reg.heartbeat(t0, ServerId(99)).unwrap_err();
        assert_eq!(err.code(), ErrorCode::NotFound);
    }

    #[test]
    fn sweep_walks_suspect_then_dead() {
        let t0 = Instant::now();
        let mut reg = reg_with(t0, 1, 1);
        let lease = Duration::from_secs(10);
        let at = |secs| t0 + Duration::from_secs(secs);
        assert_eq!(reg.sweep_with_transitions(at(10), lease).0, (1, 0, 0));
        assert_eq!(reg.sweep_with_transitions(at(11), lease).0, (0, 1, 0));
        assert_eq!(reg.sweep_with_transitions(at(20), lease).0, (0, 1, 0));
        assert_eq!(reg.sweep_with_transitions(at(21), lease).0, (0, 0, 1));
        // A heartbeat resurrects the server, and its lease restarts.
        reg.heartbeat(at(22), ServerId(1)).unwrap();
        assert_eq!(reg.liveness_counts(), (1, 0, 0));
        assert_eq!(reg.sweep_with_transitions(at(32), lease).0, (1, 0, 0));
    }

    #[test]
    fn sweep_reports_each_transition_once() {
        let t0 = Instant::now();
        let mut reg = reg_with(t0, 2, 1);
        let lease = Duration::from_secs(10);
        let at = |secs| t0 + Duration::from_secs(secs);
        reg.heartbeat(at(11), ServerId(2)).unwrap();
        let (census, transitions) = reg.sweep_with_transitions(at(11), lease);
        assert_eq!(census, (1, 1, 0));
        assert_eq!(transitions.len(), 1);
        let (ref addr, from, to) = transitions[0];
        assert_eq!(*addr, reg.server(ServerId(1)).unwrap().addr);
        assert_eq!((from, to), (Liveness::Live, Liveness::Suspect));
        // Re-sweeping with no further silence reports nothing new: the
        // server is already Suspect and server 2 is inside its lease.
        let (_, again) = reg.sweep_with_transitions(at(11), lease);
        assert!(again.is_empty(), "steady state reports no transitions");
        // Crossing two leases reports the Suspect -> Dead edge.
        reg.heartbeat(at(21), ServerId(2)).unwrap();
        let (census, transitions) = reg.sweep_with_transitions(at(21), lease);
        assert_eq!(census, (1, 0, 1));
        assert_eq!(transitions.len(), 1);
        assert_eq!(
            (transitions[0].1, transitions[0].2),
            (Liveness::Suspect, Liveness::Dead)
        );
    }

    #[test]
    fn allocation_skips_suspect_and_dead_servers() {
        let t0 = Instant::now();
        let mut reg = reg_with(t0, 2, 2);
        reg.suspect(ServerId(1));
        for _ in 0..2 {
            let loc = reg.allocate(&StorageClass::dram()).unwrap();
            assert_eq!(loc.server_id, ServerId(2), "suspect server was used");
        }
        // Server 2 is now full and server 1 is suspect: out of capacity
        // even though suspect blocks are nominally free.
        let err = reg.allocate(&StorageClass::dram()).unwrap_err();
        assert_eq!(err.code(), ErrorCode::OutOfCapacity);
        // Heartbeat re-admits server 1.
        reg.heartbeat(t0, ServerId(1)).unwrap();
        assert!(reg.allocate(&StorageClass::dram()).is_ok());
    }

    #[test]
    fn reregistration_supersedes_same_address() {
        let t0 = Instant::now();
        let mut reg = ServerRegistry::new();
        let (old_id, _) = reg
            .register(t0, ServerKind::Data, StorageClass::dram(), "srv".into(), 2)
            .unwrap();
        let old_block = reg.allocate(&StorageClass::dram()).unwrap().block_id;
        let (new_id, _) = reg
            .register(t0, ServerKind::Data, StorageClass::dram(), "srv".into(), 2)
            .unwrap();
        assert_ne!(old_id, new_id);
        assert!(reg.server(old_id).is_none(), "stale entry survives");
        assert_eq!(reg.liveness_counts(), (1, 0, 0));
        // The retired server's blocks are gone; freeing one is a no-op.
        reg.free(old_block);
        assert_eq!(class_free(&reg, &StorageClass::dram()), 2);
        // Round-robin still works with the replaced membership.
        assert_eq!(
            reg.allocate(&StorageClass::dram()).unwrap().server_id,
            new_id
        );
    }

    #[test]
    fn allocate_excluding_picks_distinct_servers() {
        let t0 = Instant::now();
        let mut reg = reg_with(t0, 3, 4);
        let primary = reg.allocate(&StorageClass::dram()).unwrap();
        let backup = reg
            .allocate_excluding(&StorageClass::dram(), &[primary.server_id])
            .unwrap();
        assert_ne!(primary.server_id, backup.server_id);
        // Excluding every server is out of capacity, not a panic.
        let all: Vec<ServerId> = reg.servers().map(|s| s.id).collect();
        let err = reg
            .allocate_excluding(&StorageClass::dram(), &all)
            .unwrap_err();
        assert_eq!(err.code(), ErrorCode::OutOfCapacity);
        // Unknown class stays typed.
        assert_eq!(
            reg.allocate_excluding(&StorageClass::from("nvme"), &[])
                .unwrap_err()
                .code(),
            ErrorCode::NotFound
        );
    }

    #[test]
    fn restore_register_rebuilds_and_is_idempotent() {
        let t0 = Instant::now();
        let mut reg = ServerRegistry::new();
        let restore = |reg: &mut ServerRegistry| {
            reg.register_with_ids(
                t0,
                ServerId(7),
                BlockId(10),
                ServerKind::Data,
                StorageClass::dram(),
                "srv".into(),
                3,
            )
        };
        restore(&mut reg).unwrap();
        // Registering a held id again is refused and changes nothing.
        assert_eq!(
            restore(&mut reg).unwrap_err().code(),
            ErrorCode::AlreadyExists
        );
        let entry = reg.server(ServerId(7)).unwrap();
        assert_eq!(entry.capacity, 3);
        assert_eq!(entry.first_block, BlockId(10));
        assert_eq!(entry.free_blocks(), 3);
        assert_eq!(reg.owner_of(BlockId(11)), Some(ServerId(7)));
        // Recovery takes namespace-held blocks back out of the free list;
        // a block no server owns is ignored.
        reg.reconcile(&HashSet::from([BlockId(10), BlockId(99)]));
        assert_eq!(reg.server(ServerId(7)).unwrap().free_blocks(), 2);
        // A held block is not free, so freeing it once returns it once.
        reg.free(BlockId(10));
        reg.free(BlockId(10));
        assert_eq!(reg.server(ServerId(7)).unwrap().free_blocks(), 3);
        reg.reconcile(&HashSet::from([BlockId(10)]));
        assert_eq!(
            reg.allocate(&StorageClass::dram()).unwrap().block_id,
            BlockId(11)
        );
        // Fresh ids continue past the recovered range.
        let (new_id, new_block) = reg
            .register(t0, ServerKind::Data, StorageClass::dram(), "srv2".into(), 1)
            .unwrap();
        assert_eq!((new_id, new_block), (ServerId(8), BlockId(13)));
    }

    #[test]
    fn gone_servers_are_unregistered_or_dead() {
        let t0 = Instant::now();
        let mut reg = reg_with(t0, 3, 1);
        assert!((1..=3).all(|id| !reg.is_gone(ServerId(id))));
        assert!(reg.is_gone(ServerId(9)), "never registered");
        // At 21 s, server 1 has been silent 21 s, server 2 11 s and
        // server 3 not at all.
        let at = |secs| t0 + Duration::from_secs(secs);
        reg.heartbeat(at(10), ServerId(2)).unwrap();
        reg.heartbeat(at(21), ServerId(3)).unwrap();
        reg.sweep_with_transitions(at(21), Duration::from_secs(10));
        assert!(reg.is_gone(ServerId(1)), "dead");
        assert!(!reg.is_gone(ServerId(2)), "suspect may come back");
        // Re-registering server 3's address retires its entry.
        let addr = reg.server(ServerId(3)).unwrap().addr.clone();
        let (new_id, _) = reg
            .register(t0, ServerKind::Data, StorageClass::dram(), addr, 1)
            .unwrap();
        assert!(reg.is_gone(ServerId(3)), "retired");
        assert!(!reg.is_gone(new_id));
    }

    #[test]
    fn classes_are_isolated() {
        let t0 = Instant::now();
        let mut reg = ServerRegistry::new();
        reg.register(t0, ServerKind::Data, StorageClass::dram(), "d".into(), 1)
            .unwrap();
        reg.register(
            t0,
            ServerKind::Active,
            StorageClass::active(),
            "a".into(),
            1,
        )
        .unwrap();
        let d = reg.allocate(&StorageClass::dram()).unwrap();
        let a = reg.allocate(&StorageClass::active()).unwrap();
        assert_eq!(d.addr, "d");
        assert_eq!(a.addr, "a");
        assert_eq!(class_free(&reg, &StorageClass::dram()), 0);
        assert_eq!(class_free(&reg, &StorageClass::active()), 0);
    }
}
