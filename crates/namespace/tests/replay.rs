//! Seeded replay property for `glider_namespace::wal::recover`: a live
//! four-shard namespace and registry are driven through every logged
//! mutation, and recovering from any snapshot, each of whose five parts
//! (the registry and four shards) has its own cut, plus the log past its
//! smallest cut must rebuild exactly the live state.
//!
//! Run one history with `GLIDER_REPLAY_SEED=<n> cargo test -p
//! glider-namespace --test replay`; every failure names its seed.
//!
//! The history follows the metadata server's allocation discipline: a
//! replaced or promoted primary's server is suspected first. Suspect and
//! Dead servers heartbeat back, so the blocks freed to them are handed
//! out again, and a node can get back a block id it held before.

use glider_namespace::wal::{recover, shard_of_id, NodeRecord, ServerRecord, Snapshot, WalEntry};
use glider_namespace::{shard_of, Liveness, Namespace, NodePath, ServerRegistry};
use glider_proto::types::{
    ActionSpec, BlockId, BlockLocation, NodeId, NodeKind, ServerId, ServerKind, StorageClass,
};
use glider_proto::{ErrorCode, GliderResult};
use glider_sim::{seeds, Lcg};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

const SHARDS: usize = 4;
/// The registry plus every shard.
const PARTS: usize = SHARDS + 1;
/// Records per history; the property recovers from every cut of it.
const ENTRIES: usize = 400;
/// Seeded skewed cut vectors per smallest cut.
const SKEWED: usize = 8;

/// The lease the history's servers are judged by.
const LEASE: Duration = Duration::from_secs(10);

/// One of `items`, or `None` when there are none.
fn pick<'a, T>(rng: &mut Lcg, items: &'a [T]) -> Option<&'a T> {
    (!items.is_empty()).then(|| &items[rng.below(items.len())])
}

/// The live side: the state the mutators build, and the log they write.
struct Live {
    shards: Vec<Namespace>,
    reg: ServerRegistry,
    /// Encoded `WalEntry`s in append order: `log[i]` has LSN `i + 1`.
    log: Vec<Vec<u8>>,
    /// `states[k]` is the state after `log[..k]`, without cuts.
    states: Vec<Snapshot>,
    /// Every primary block id each node has held.
    held: BTreeMap<NodeId, BTreeSet<BlockId>>,
    /// Times a node got back a primary block id it had held before.
    reuses: usize,
    rng: Lcg,
    /// The registry's clock: every registration and heartbeat is stamped
    /// with it, and a liveness step moves it past two leases.
    now: Instant,
}

/// The comparable state: servers in id order plus every shard's nodes.
fn capture(shards: &[Namespace], reg: &ServerRegistry) -> Snapshot {
    let mut servers: Vec<ServerRecord> = reg.servers().map(ServerRecord::from).collect();
    servers.sort_by_key(|s| s.id.0);
    Snapshot {
        cuts: Vec::new(),
        servers,
        shards: shards.iter().map(Snapshot::shard).collect(),
    }
}

fn class_of(kind: NodeKind) -> StorageClass {
    if kind == NodeKind::Action {
        StorageClass::active()
    } else {
        StorageClass::dram()
    }
}

impl Live {
    fn new(seed: u64) -> Live {
        let now = Instant::now();
        let (shards, reg) = recover(now, SHARDS, None, 0, []).unwrap();
        let states = vec![capture(&shards, &reg)];
        Live {
            shards,
            reg,
            log: Vec::new(),
            states,
            held: BTreeMap::new(),
            reuses: 0,
            rng: Lcg(seed),
            now,
        }
    }

    fn log(&mut self, entry: WalEntry) {
        let bytes = entry.encode();
        assert_eq!(WalEntry::decode(&bytes).unwrap(), entry);
        self.log.push(bytes);
        self.states.push(capture(&self.shards, &self.reg));
    }

    /// A snapshot in which part `p` holds the state after
    /// `log[..cuts[p]]`, as `MetaService::capture` writes one whose part
    /// locks were taken at those LSNs.
    fn snapshot_at(&self, cuts: &[u64]) -> Vec<u8> {
        let state = |part: usize| &self.states[cuts[part] as usize];
        Snapshot {
            cuts: cuts.to_vec(),
            servers: state(0).servers.clone(),
            shards: (0..SHARDS)
                .map(|s| state(1 + s).shards[s].clone())
                .collect(),
        }
        .encode()
    }

    /// Notes that `node` now holds primary `block`.
    fn hold(&mut self, node: NodeId, block: BlockId) {
        if !self.held.entry(node).or_default().insert(block) {
            self.reuses += 1;
        }
    }

    /// `(shard, id, kind, path)` of every node but the roots.
    fn nodes(&self) -> Vec<(usize, NodeId, NodeKind, NodePath)> {
        let mut out: Vec<_> = self
            .shards
            .iter()
            .enumerate()
            .flat_map(|(s, ns)| {
                ns.nodes()
                    .filter(|n| !n.path.is_root())
                    .map(move |n| (s, n.id, n.kind, n.path.clone()))
            })
            .collect();
        out.sort_by_key(|n| n.1 .0);
        out
    }

    /// `(node, primary)` for every chain block of a node, optionally only
    /// those with backups.
    fn primaries(&self, with_backups: bool) -> Vec<(NodeId, BlockLocation)> {
        let mut out = Vec::new();
        for ns in &self.shards {
            for node in ns.nodes() {
                for b in &node.blocks {
                    if !with_backups || node.backups.contains_key(&b.loc.block_id) {
                        out.push((node.id, b.loc.clone()));
                    }
                }
            }
        }
        out.sort_by_key(|(n, b)| (n.0, b.block_id.0));
        out
    }

    fn ns(&mut self, id: NodeId) -> &mut Namespace {
        &mut self.shards[shard_of_id(id)]
    }

    /// A backup for `primary` on another server, if capacity allows.
    fn backup(&mut self, class: &StorageClass, primary: &BlockLocation) -> Vec<BlockLocation> {
        if self.rng.below(2) == 0 {
            return Vec::new();
        }
        self.reg
            .allocate_excluding(class, &[primary.server_id])
            .into_iter()
            .collect()
    }

    /// One random mutation, logged only if it succeeds — a failed request
    /// is answered with an error and never logged.
    fn step(&mut self) {
        match self.rng.below(18) {
            16 | 17 => self.liveness(),
            0 => self.register(),
            1..=5 => self.create(),
            6..=8 => self.add_extents(),
            9..=11 => self.commit(),
            12 => self.replace(),
            13 => {
                let primaries = self.primaries(false);
                if let Some((node_id, primary)) = pick(&mut self.rng, &primaries).cloned() {
                    self.set_backups(node_id, &primary);
                }
            }
            14 => self.promote(),
            _ => self.delete(),
        }
    }

    /// Liveness, which no record carries: a Suspect or Dead server
    /// heartbeats back, or one server goes Dead (the clock moves past two
    /// leases, and every other server heartbeats before the sweep).
    fn liveness(&mut self) {
        let mut ids: Vec<ServerId> = self.reg.servers().map(|s| s.id).collect();
        ids.sort();
        let down: Vec<ServerId> = ids
            .iter()
            .copied()
            .filter(|&id| self.reg.server(id).unwrap().liveness() != Liveness::Live)
            .collect();
        if self.rng.below(2) == 0 {
            if let Some(&back) = pick(&mut self.rng, &down) {
                self.reg.heartbeat(self.now, back).unwrap();
            }
            return;
        }
        let Some(&victim) = pick(&mut self.rng, &ids) else {
            return;
        };
        self.now += LEASE * 3;
        for id in ids.into_iter().filter(|&id| id != victim) {
            self.reg.heartbeat(self.now, id).unwrap();
        }
        self.reg.sweep_with_transitions(self.now, LEASE);
    }

    fn register(&mut self) {
        // Few addresses, so re-registration supersedes a stale entry.
        let addr = format!("srv-{}", self.rng.below(6));
        let (kind, class) = if self.rng.below(4) == 0 {
            (ServerKind::Active, StorageClass::active())
        } else {
            (ServerKind::Data, StorageClass::dram())
        };
        let capacity = 2 + self.rng.below(5) as u64;
        let (server_id, first_block) = self
            .reg
            .register(self.now, kind, class.clone(), addr.clone(), capacity)
            .unwrap();
        self.log(WalEntry::ServerRegistered {
            server_id,
            kind,
            class,
            addr,
            capacity,
            first_block,
        });
    }

    fn create(&mut self) {
        let kind = [
            NodeKind::Directory,
            NodeKind::File,
            NodeKind::File,
            NodeKind::KeyValue,
            NodeKind::Action,
        ][self.rng.below(5)];
        let mut parents: Vec<NodePath> = self
            .nodes()
            .into_iter()
            .filter(|n| n.2 == NodeKind::Directory)
            .map(|n| n.3)
            .collect();
        parents.push(NodePath::root());
        let parent = pick(&mut self.rng, &parents).unwrap().as_str().to_string();
        let name = format!("n{}", self.rng.below(12));
        let path = NodePath::parse(&format!("{}/{name}", parent.trim_end_matches('/'))).unwrap();
        let class = class_of(kind);
        let action = (kind == NodeKind::Action).then(|| ActionSpec::new("merge", false));
        // KeyValue and Action nodes get their block at create. Allocating
        // it first skips a create the allocator would roll back.
        let single = matches!(kind, NodeKind::KeyValue | NodeKind::Action);
        let loc = if single {
            match self.reg.allocate(&class) {
                Ok(loc) => Some(loc),
                Err(_) => return,
            }
        } else {
            None
        };
        let shard = shard_of(path.as_str(), SHARDS);
        let ns = &mut self.shards[shard];
        let id = match ns.create(path.clone(), kind, Some(class.clone()), action.clone()) {
            Ok(node) => node.id,
            Err(_) => {
                if let Some(loc) = loc {
                    self.reg.free(loc.block_id);
                }
                return;
            }
        };
        let mut extents = Vec::new();
        let mut backups = Vec::new();
        if let Some(loc) = loc {
            self.hold(id, loc.block_id);
            extents = self.shards[shard]
                .add_extents(id, vec![loc.clone()])
                .unwrap();
            let set = self.backup(&class, &loc);
            if !set.is_empty() {
                self.shards[shard]
                    .set_backups(id, loc.block_id, set.clone())
                    .unwrap();
                backups.push((loc.block_id, set));
            }
        }
        self.log(WalEntry::NodeCreated {
            path: path.as_str().to_string(),
            id,
            kind,
            class,
            action,
            extents,
            backups,
        });
    }

    fn add_extents(&mut self) {
        let files: Vec<NodeId> = self
            .nodes()
            .into_iter()
            .filter(|n| n.2 == NodeKind::File)
            .map(|n| n.1)
            .collect();
        let Some(&node_id) = pick(&mut self.rng, &files) else {
            return;
        };
        let class = StorageClass::dram();
        let mut locs = Vec::new();
        for _ in 0..1 + self.rng.below(3) {
            match self.reg.allocate(&class) {
                Ok(loc) => locs.push(loc),
                Err(_) => break,
            }
        }
        if locs.is_empty() {
            return;
        }
        let extents = self.ns(node_id).add_extents(node_id, locs).unwrap();
        for e in &extents {
            self.hold(node_id, e.loc.block_id);
        }
        let mut backups = Vec::new();
        for e in &extents {
            let set = self.backup(&class, &e.loc);
            if !set.is_empty() {
                self.ns(node_id)
                    .set_backups(node_id, e.loc.block_id, set.clone())
                    .unwrap();
                backups.push((e.loc.block_id, set));
            }
        }
        self.log(WalEntry::ExtentsAdded {
            node_id,
            extents,
            backups,
        });
    }

    fn commit(&mut self) {
        let primaries = self.primaries(false);
        let Some((node_id, _)) = pick(&mut self.rng, &primaries).cloned() else {
            return;
        };
        let chain: Vec<BlockId> = primaries
            .iter()
            .filter(|(n, _)| *n == node_id)
            .map(|(_, b)| b.block_id)
            .collect();
        let mut commits = Vec::new();
        for _ in 0..1 + self.rng.below(3) {
            let block = *pick(&mut self.rng, &chain).unwrap();
            let len = self.rng.below(4096) as u64;
            self.ns(node_id).commit_block(node_id, block, len).unwrap();
            commits.push((block, len));
        }
        self.log(WalEntry::Committed { node_id, commits });
    }

    /// `ReplaceBlock`: the writer could not reach the block, so its server
    /// is suspected (not allocated from until it heartbeats back) before
    /// the replacement is allocated elsewhere.
    fn replace(&mut self) {
        let primaries = self.primaries(false);
        let Some((node_id, old)) = pick(&mut self.rng, &primaries).cloned() else {
            return;
        };
        let class = self.ns(node_id).get(node_id).unwrap().storage_class.clone();
        self.reg.suspect(old.server_id);
        let Ok(loc) = self.reg.allocate(&class) else {
            return;
        };
        self.hold(node_id, loc.block_id);
        let (extent, dropped) = self
            .ns(node_id)
            .replace_extent(node_id, old.block_id, loc.clone())
            .unwrap();
        self.reg.free(old.block_id);
        for b in dropped {
            self.reg.free(b.block_id);
        }
        let backups = self.backup(&class, &loc);
        if !backups.is_empty() {
            self.ns(node_id)
                .set_backups(node_id, loc.block_id, backups.clone())
                .unwrap();
        }
        self.log(WalEntry::Replaced {
            node_id,
            old_block: old.block_id,
            extent,
            backups,
        });
    }

    /// Gives a primary a fresh one-backup set, or clears its set.
    fn set_backups(&mut self, node_id: NodeId, primary: &BlockLocation) {
        let class = self.ns(node_id).get(node_id).unwrap().storage_class.clone();
        let old = self
            .ns(node_id)
            .get(node_id)
            .unwrap()
            .backups
            .get(&primary.block_id)
            .cloned()
            .unwrap_or_default();
        let backups = if old.is_empty() {
            match self.reg.allocate_excluding(&class, &[primary.server_id]) {
                Ok(loc) => vec![loc],
                Err(_) => return,
            }
        } else {
            Vec::new()
        };
        self.ns(node_id)
            .set_backups(node_id, primary.block_id, backups.clone())
            .unwrap();
        for b in old {
            self.reg.free(b.block_id);
        }
        self.log(WalEntry::BackupsSet {
            node_id,
            block: primary.block_id,
            backups,
        });
    }

    fn promote(&mut self) {
        let primaries = self.primaries(true);
        let Some((node_id, old)) = pick(&mut self.rng, &primaries).cloned() else {
            return;
        };
        // The primary's server is gone; its first backup takes over.
        self.reg.suspect(old.server_id);
        let new_loc = self.ns(node_id).get(node_id).unwrap().backups[&old.block_id][0].clone();
        self.hold(node_id, new_loc.block_id);
        self.ns(node_id)
            .promote_extent(node_id, old.block_id, new_loc.clone())
            .unwrap();
        self.reg.free(old.block_id);
        self.log(WalEntry::Promoted {
            node_id,
            old_block: old.block_id,
            new_loc,
        });
    }

    fn delete(&mut self) {
        let nodes = self.nodes();
        let Some((shard, _, _, path)) = pick(&mut self.rng, &nodes).cloned() else {
            return;
        };
        let out = self.shards[shard].delete(&path).unwrap();
        let actions = out.actions.iter().flat_map(|a| &a.blocks);
        for extent in out.extents.iter().chain(actions) {
            self.reg.free(extent.loc.block_id);
        }
        self.log(WalEntry::Deleted {
            path: path.as_str().to_string(),
        });
    }
}

/// Drives a history of [`ENTRIES`] records from `seed`.
fn history(seed: u64) -> Live {
    let mut live = Live::new(seed);
    while live.log.len() < ENTRIES {
        live.step();
    }
    live
}

fn records(log: &[Vec<u8>]) -> impl Iterator<Item = &[u8]> {
    log.iter().map(Vec::as_slice)
}

/// Registering, creating and allocating after recovery never hands out
/// a server id, node id or block the recovered state holds.
fn fresh_ids_stay_fresh(
    seed: u64,
    now: Instant,
    shards: &mut [Namespace],
    reg: &mut ServerRegistry,
) {
    let mut held_blocks = BTreeSet::new();
    let mut held_nodes = BTreeSet::new();
    for node in shards.iter().flat_map(Namespace::nodes) {
        held_nodes.insert(node.id);
        held_blocks.extend(node.blocks.iter().map(|b| b.loc.block_id));
        held_blocks.extend(node.backups.values().flatten().map(|l| l.block_id));
    }
    let ranges: Vec<(u64, u64)> = reg
        .servers()
        .map(|s| (s.first_block.0, s.first_block.0 + s.capacity))
        .collect();
    let held_servers: BTreeSet<ServerId> = reg.servers().map(|s| s.id).collect();
    // Allocate first: a new server would only add free blocks.
    for class in [StorageClass::dram(), StorageClass::active()] {
        while let Ok(loc) = reg.allocate(&class) {
            assert!(
                !held_blocks.contains(&loc.block_id),
                "seed {seed}: allocated held block {:?}",
                loc.block_id
            );
        }
    }
    let (id, first) = reg
        .register(
            now,
            ServerKind::Data,
            StorageClass::dram(),
            "srv-new".into(),
            4,
        )
        .unwrap();
    assert!(!held_servers.contains(&id), "seed {seed}: reissued {id:?}");
    for b in first.0..first.0 + 4 {
        assert!(
            !held_blocks.contains(&BlockId(b)) && !ranges.iter().any(|r| (r.0..r.1).contains(&b)),
            "seed {seed}: new server's block {b} overlaps a recovered range"
        );
    }
    for (s, ns) in shards.iter_mut().enumerate() {
        let name = (0..)
            .map(|i| format!("/fresh-{i}"))
            .find(|p| shard_of(p, SHARDS) == s)
            .unwrap();
        let node = ns
            .create(NodePath::parse(&name).unwrap(), NodeKind::File, None, None)
            .unwrap();
        assert!(
            !held_nodes.contains(&node.id),
            "seed {seed}: reissued {:?}",
            node.id
        );
    }
}

#[test]
fn replay_from_any_per_part_cut_rebuilds_the_live_state() {
    for seed in seeds([1]) {
        eprintln!("replay property: seed {seed}");
        let live = history(seed);
        let want = capture(&live.shards, &live.reg);
        let n = live.log.len() as u64;
        // Recovers from a snapshot with `cuts` and the log past the
        // smallest, and checks fresh ids when `fresh` (an allocation sweep
        // per cut vector would dominate the run time).
        let got = |cuts: &[u64], fresh: bool| {
            // The snapshot is installed at its smallest cut.
            let k = *cuts.iter().min().unwrap();
            let snapshot = live.snapshot_at(cuts);
            let tail = records(&live.log[k as usize..]);
            let (mut shards, mut reg) = recover(live.now, SHARDS, Some(&snapshot), k, tail)
                .unwrap_or_else(|e| panic!("seed {seed}: cuts {cuts:?}: {e}"));
            let state = capture(&shards, &reg);
            // A server's blocks are free unless a recovered node holds them.
            let held: BTreeSet<u64> = shards
                .iter()
                .flat_map(Namespace::nodes)
                .flat_map(|n| {
                    n.blocks
                        .iter()
                        .map(|e| &e.loc)
                        .chain(n.backups.values().flatten())
                })
                .map(|l| l.block_id.0)
                .collect();
            for server in reg.servers() {
                let first = server.first_block.0;
                let taken = held.range(first..first + server.capacity).count();
                assert_eq!(
                    server.free_blocks() + taken,
                    server.capacity as usize,
                    "seed {seed}: cuts {cuts:?}: free blocks of server {:?}",
                    server.id
                );
            }
            if fresh {
                fresh_ids_stay_fresh(seed, live.now, &mut shards, &mut reg);
            }
            state
        };
        let (mut shards, mut reg) = recover(live.now, SHARDS, None, 0, records(&live.log)).unwrap();
        assert_eq!(capture(&shards, &reg), want, "seed {seed}: log only");
        fresh_ids_stay_fresh(seed, live.now, &mut shards, &mut reg);
        let mut rng = Lcg(seed ^ 0x5eed);
        for k in 0..=n {
            assert_eq!(got(&[k; PARTS], true), want, "seed {seed}: cut {k}");
            for _ in 0..SKEWED {
                let low = rng.below(PARTS);
                let cuts: Vec<u64> = (0..PARTS)
                    .map(|p| {
                        if p == low {
                            k
                        } else {
                            k + rng.below((n - k) as usize + 1) as u64
                        }
                    })
                    .collect();
                assert_eq!(got(&cuts, false), want, "seed {seed}: cuts {cuts:?}");
            }
        }
        // A snapshot of a recovered state recovers it again.
        let (shards, reg) = recover(live.now, SHARDS, None, 0, records(&live.log)).unwrap();
        let mut once = capture(&shards, &reg);
        once.cuts = vec![n; PARTS];
        let (shards, reg) = recover(live.now, SHARDS, Some(&once.encode()), n, []).unwrap();
        assert_eq!(capture(&shards, &reg), want, "seed {seed}: recovered twice");
    }
}

#[test]
fn a_record_the_mutators_refuse_fails_recovery_naming_its_lsn() {
    let live = history(7);
    let n = live.log.len() as u64;
    let k = n / 2;
    let cuts = [k; PARTS];
    let snapshot = live.snapshot_at(&cuts);
    let fail = |extra: WalEntry| {
        let mut log = live.log[k as usize..].to_vec();
        log.push(extra.encode());
        let Err(err) = recover(live.now, SHARDS, Some(&snapshot), k, records(&log)) else {
            panic!("a log ending in {extra:?} recovered");
        };
        err
    };
    // A commit to a node no shard holds.
    let err = fail(WalEntry::Committed {
        node_id: NodeId(1 << 40 | 999_999),
        commits: vec![(BlockId(1), 1)],
    });
    assert_eq!(err.code(), ErrorCode::NotFound);
    let lsn = n + 1;
    assert!(
        err.message()
            .contains(&format!("wal record {lsn} (Committed)")),
        "{err}"
    );
    // A creation logged twice: the second copy is refused, not skipped.
    let alive: BTreeSet<NodeId> = live.nodes().into_iter().map(|n| n.1).collect();
    let first = live
        .log
        .iter()
        .map(|r| WalEntry::decode(r).unwrap())
        .find(|e| matches!(e, WalEntry::NodeCreated { id, .. } if alive.contains(id)))
        .unwrap();
    let err = fail(first);
    assert_eq!(err.code(), ErrorCode::AlreadyExists, "{err}");
    assert!(
        err.message()
            .contains(&format!("wal record {lsn} (NodeCreated)")),
        "{err}"
    );
    // A part whose cut is below the log's start lost the records between.
    let mut short = cuts;
    short[2] = k - 1;
    let err = refused(recover(
        live.now,
        SHARDS,
        Some(&live.snapshot_at(&short)),
        k,
        [],
    ));
    assert!(err.contains("after which the log resumes"), "{err}");
}

/// The `InvalidArgument` a refused recovery returns.
#[track_caller]
fn refused(result: GliderResult<(Vec<Namespace>, ServerRegistry)>) -> String {
    let Err(err) = result else {
        panic!("recovery must refuse this input");
    };
    assert_eq!(err.code(), ErrorCode::InvalidArgument, "{err}");
    err.to_string()
}

#[test]
fn replay_rejects_another_shard_count() {
    let live = history(7);
    let log = || records(&live.log);
    assert!(recover(live.now, SHARDS, None, 0, log()).is_ok());
    let err = refused(recover(live.now, 2, None, 0, log()));
    assert!(err.contains("by path but to shard"), "{err}");
    // A snapshot for another shard count, or with a node filed under a
    // shard its id does not map to, is refused too.
    let n = live.log.len() as u64;
    let snap = live.snapshot_at(&[n; PARTS]);
    refused(recover(live.now, 2, Some(&snap), n, []));
    let mut moved = Snapshot::decode(&snap).unwrap();
    // A leaf, so no node left behind misses its parent first.
    let (from, at) = (0..SHARDS)
        .find_map(|s| {
            let nodes = &moved.shards[s].1;
            let leaf = |n: &NodeRecord| {
                let prefix = format!("{}/", n.path);
                !nodes.iter().any(|m| m.path.starts_with(&prefix))
            };
            nodes.iter().position(leaf).map(|at| (s, at))
        })
        .unwrap();
    let node = moved.shards[from].1.remove(at);
    moved.shards[(from + 1) % SHARDS].1.insert(0, node);
    let err = refused(recover(live.now, SHARDS, Some(&moved.encode()), n, []));
    assert!(err.contains("its id maps to"), "{err}");
}

#[test]
fn history_covers_every_record_kind() {
    let live = history(1);
    let mut kinds = BTreeSet::new();
    let mut node_kinds = BTreeSet::new();
    for record in &live.log {
        let entry = WalEntry::decode(record).unwrap();
        if let WalEntry::NodeCreated { kind, .. } = &entry {
            node_kinds.insert(format!("{kind:?}"));
        }
        kinds.insert(
            format!("{entry:?}")
                .split([' ', '{'])
                .next()
                .unwrap()
                .to_string(),
        );
    }
    assert_eq!(kinds.len(), 8, "{kinds:?}");
    assert_eq!(node_kinds.len(), 4, "{node_kinds:?}");
    // Servers heartbeat back, so nodes get back block ids they held.
    assert!(live.reuses > 0, "no block id returned to a node");
}
