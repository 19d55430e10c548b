//! Persist-before-ack, checked by running it: a seeded history drives
//! the real `MetaService` (`apply`, `repair_node_locked` and
//! `maintenance`) over a WAL under its default `FsyncPolicy::Always`.
//! After every call, Ok or Err, the live log directory is copied, the
//! copy is opened with `MetaService::open`, and the recovered servers
//! and every shard's nodes and id allocator must equal the live ones (a
//! call that leaves the log's bytes as they were reuses the previous
//! recovery, which read nothing else). After an `Err`, the live state must also equal the
//! state before the call. An ack whose record was never appended, or was
//! appended without part of the mutation, fails the step that made it.
//!
//! The history runs in four configs: replication factor 1 and 2 × 1 and
//! 4 namespace shards, each with a `dram → nvme` fallback edge. Each runs
//! until `maintenance` has installed a snapshot, and then some, and must
//! see every `Logged` row of the op table ack with a record. Run one
//! history with `GLIDER_REPLAY_SEED=<n> cargo test -p glider-namespace
//! --test persist`; a failure names its seed, config, step and call.
//!
//! The allocator check is what makes a refused `KeyValue` or `Action`
//! create (its class is full) roll its node's id back with the node: a
//! burnt id no record holds would recover one lower than it runs live.
//!
//! Out of scope: an append that fails (its injection needs a disk that
//! can be made to fail), and fsync itself, which `glider-wal`'s crash
//! tests cover.

use glider_metrics::MetricsRegistry;
use glider_namespace::service::{MetaService, MetadataOptions};
use glider_namespace::wal::{NodeRecord, Snapshot};
use glider_proto::message::RequestBody;
use glider_proto::op::WalClass;
use glider_proto::types::{
    ActionSpec, BlockId, NodeId, NodeKind, ServerId, ServerKind, StorageClass,
};
use glider_sim::{seeds, Lcg, TempDir};
use std::collections::{BTreeMap, BTreeSet};
use std::ffi::OsString;
use std::path::Path;
use std::time::Instant;

/// Calls a history makes after `maintenance` installed its first
/// snapshot (once 512 records follow the last), so that recoveries read
/// a snapshot too.
const AFTER_SNAPSHOT: usize = 100;

/// The most calls a history may make before its first snapshot.
const MAX_STEPS: usize = 2000;

const KINDS: [NodeKind; 6] = [
    NodeKind::File,
    NodeKind::Directory,
    NodeKind::KeyValue,
    NodeKind::Table,
    NodeKind::Bag,
    NodeKind::Action,
];

/// One call into the service.
#[derive(Debug)]
enum Call {
    Apply(RequestBody),
    Repair(NodeId),
    Maintenance,
}

fn options(factor: u32, shards: usize, dir: &Path) -> MetadataOptions {
    MetadataOptions::default()
        .with_fallback(StorageClass::dram(), StorageClass::nvme())
        .with_replication(factor)
        .with_namespace_shards(shards)
        .with_wal(dir)
}

/// The LSN of the last record the service appended.
fn last_lsn(state: &Snapshot) -> u64 {
    state.cuts.iter().copied().max().unwrap_or(0)
}

/// Every node but the roots, across shards.
fn nodes(state: &Snapshot) -> impl Iterator<Item = &NodeRecord> {
    state.shards.iter().flat_map(|(_, nodes)| nodes)
}

/// How `got` differs from `want` in servers, every shard's id allocator
/// and nodes (the first few differences; empty when they are equal).
fn differences(got: &Snapshot, want: &Snapshot) -> Vec<String> {
    let mut out = Vec::new();
    if got.servers != want.servers {
        out.push(format!(
            "servers: got {:?}, want {:?}",
            got.servers, want.servers
        ));
    }
    for (s, ((got_next, got), (want_next, want))) in got.shards.iter().zip(&want.shards).enumerate()
    {
        if got_next != want_next {
            out.push(format!(
                "shard {s} next id: got {got_next}, want {want_next}"
            ));
        }
        if got == want {
            continue;
        }
        let by_id = |nodes: &[NodeRecord]| -> BTreeMap<NodeId, NodeRecord> {
            nodes.iter().map(|n| (n.id, n.clone())).collect()
        };
        let (got, want) = (by_id(got), by_id(want));
        for id in got.keys().chain(want.keys()).collect::<BTreeSet<_>>() {
            if got.get(id) != want.get(id) {
                out.push(format!(
                    "shard {s} node {id}: got {:?}, want {:?}",
                    got.get(id),
                    want.get(id)
                ));
            }
        }
    }
    if got.shards.len() != want.shards.len() {
        out.push(format!(
            "{} shards, want {}",
            got.shards.len(),
            want.shards.len()
        ));
    }
    out.truncate(4);
    out
}

/// A log directory's files, `(name, bytes)` in name order.
type LogFiles = Vec<(OsString, Vec<u8>)>;

/// One config's history.
struct History {
    seed: u64,
    factor: u32,
    shards: usize,
    dir: TempDir,
    svc: MetaService,
    /// The one instant every call and recovery happens at: no lease
    /// runs out, and liveness is no part of the logged state.
    now: Instant,
    rng: Lcg,
    /// Every server address registered so far.
    addrs: Vec<String>,
    /// Every server id assigned so far, retired ones included.
    server_ids: Vec<ServerId>,
    /// Names of the `Logged` ops seen to append a record and ack.
    covered: BTreeSet<&'static str>,
    /// The log files the last recovery read, and the state it recovered.
    last_recovery: Option<(LogFiles, Snapshot)>,
}

impl History {
    fn new(seed: u64, factor: u32, shards: usize) -> History {
        let dir = TempDir::new("glider-meta-persist");
        let now = Instant::now();
        let options = options(factor, shards, dir.path());
        let svc =
            MetaService::open(now, options, MetricsRegistry::new()).expect("open an empty log");
        History {
            seed,
            factor,
            shards,
            dir,
            svc,
            now,
            rng: Lcg(seed ^ (u64::from(factor) << 8) ^ shards as u64),
            addrs: Vec::new(),
            server_ids: Vec::new(),
            covered: BTreeSet::new(),
            last_recovery: None,
        }
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.rng.range(0, 100) < percent
    }

    fn pick<T: Clone>(&mut self, items: &[T]) -> Option<T> {
        (!items.is_empty()).then(|| items[self.rng.below(items.len())].clone())
    }

    /// Draws the next call against the state `now`.
    fn draw(&mut self, now: &Snapshot) -> Call {
        let all: Vec<&NodeRecord> = nodes(now).collect();
        let with_blocks: Vec<&NodeRecord> = all
            .iter()
            .copied()
            .filter(|n| !n.blocks.is_empty())
            .collect();
        // Files and bags take any number of blocks; the rest refuse some.
        let chains: Vec<&NodeRecord> = all
            .iter()
            .copied()
            .filter(|n| matches!(n.kind, NodeKind::File | NodeKind::Bag))
            .collect();
        // In percent: register 8, create 32, add blocks 20, commit 16,
        // replace 7, delete 6, heartbeat 3, repair 5, maintenance 3 (and
        // in place of a commit or replace while no node holds a block).
        let body = match self.rng.below(100) {
            0..=7 => self.register(),
            8..=39 => self.create(&all),
            40..=59 => {
                let node = match self.rng.below(10) {
                    0 => None,
                    1..=2 => self.pick(&all),
                    _ => self.pick(&chains),
                };
                RequestBody::AddBlocks {
                    node_id: node.map_or(NodeId(424_242), |n| n.id),
                    count: self.rng.range(0, 9) as u32,
                }
            }
            60..=75 => match self.pick(&with_blocks) {
                Some(node) => self.commit(node),
                None => return Call::Maintenance,
            },
            76..=82 => match self.pick(&with_blocks) {
                Some(node) => {
                    let block_id = if self.chance(10) {
                        BlockId(1 << 50)
                    } else {
                        self.pick(&node.blocks)
                            .map_or(BlockId(0), |e| e.loc.block_id)
                    };
                    RequestBody::ReplaceBlock {
                        node_id: node.id,
                        block_id,
                    }
                }
                None => return Call::Maintenance,
            },
            83..=88 => {
                let path = match self.pick(&all) {
                    Some(n) if !self.chance(10) => n.path.clone(),
                    _ if self.chance(50) => "/".to_string(),
                    _ => "/gone".to_string(),
                };
                RequestBody::DeleteNode { path }
            }
            89..=91 => {
                let at = self.rng.below(self.server_ids.len().max(1));
                let server_id = match self.server_ids.get(at).copied() {
                    Some(id) if !self.chance(10) => id,
                    _ => ServerId(9_999),
                };
                RequestBody::Heartbeat { server_id }
            }
            92..=96 => {
                // A node naming a retired server, while one does:
                // maintenance repairs those too, so a node drawn from all
                // of them seldom has anything left to repair.
                let registered: BTreeSet<ServerId> = now.servers.iter().map(|s| s.id).collect();
                let stale: Vec<&NodeRecord> = all
                    .iter()
                    .copied()
                    .filter(|n| {
                        let backups = n.backups.iter().flat_map(|(_, set)| set);
                        let mut locs = n.blocks.iter().map(|e| &e.loc).chain(backups);
                        locs.any(|l| !registered.contains(&l.server_id))
                    })
                    .collect();
                let pool = if stale.is_empty() { &all } else { &stale };
                return Call::Repair(match self.pick(pool) {
                    Some(n) if !self.chance(5) => n.id,
                    _ => NodeId(424_242),
                });
            }
            _ => return Call::Maintenance,
        };
        Call::Apply(body)
    }

    /// A dram, nvme or active server of 2 to 32 blocks; one in four
    /// reuses a registered address, which retires the server there.
    fn register(&mut self) -> RequestBody {
        let (kind, storage_class) = match self.rng.below(3) {
            0 => (ServerKind::Data, StorageClass::dram()),
            1 => (ServerKind::Data, StorageClass::nvme()),
            _ => (ServerKind::Active, StorageClass::active()),
        };
        let at = self.rng.below(self.addrs.len().max(1));
        let addr = match self.addrs.get(at).cloned() {
            Some(addr) if self.chance(25) => addr,
            _ => {
                let addr = format!("{storage_class}-{}", self.addrs.len());
                self.addrs.push(addr.clone());
                addr
            }
        };
        RequestBody::RegisterServer {
            kind,
            storage_class,
            addr,
            capacity_blocks: self.rng.range(2, 33),
        }
    }

    /// A node of any kind, under an existing container, a missing
    /// parent or a non-container, at a path that may be taken.
    fn create(&mut self, all: &[&NodeRecord]) -> RequestBody {
        let kind = KINDS[self.rng.below(KINDS.len())];
        let containers: Vec<String> = all
            .iter()
            .filter(|n| n.kind.is_container())
            .map(|n| n.path.clone())
            .collect();
        let parent = match self.rng.below(20) {
            0 => format!("/missing{}", self.rng.below(3)),
            1 => self.pick(all).map_or(String::new(), |n| n.path.clone()),
            2..=7 => String::new(),
            _ => self.pick(&containers).unwrap_or_default(),
        };
        let name = format!(
            "{}{}",
            ["a", "b", "c", "d"][self.rng.below(4)],
            self.rng.below(6)
        );
        let action = (kind == NodeKind::Action).then(|| ActionSpec {
            type_name: "merge".to_string(),
            interleaved: self.chance(50),
            params: format!("p{}", self.rng.below(100)),
        });
        let storage_class = match self.rng.below(10) {
            0 => Some(StorageClass::nvme()),
            1 => Some(StorageClass::from("ssd")),
            _ => None,
        };
        RequestBody::CreateNode {
            path: format!("{parent}/{name}"),
            kind,
            storage_class,
            action,
        }
    }

    /// Commits up to four of `node`'s blocks; one in six also names a
    /// block outside the chain, which refuses the whole batch.
    fn commit(&mut self, node: &NodeRecord) -> RequestBody {
        let mut commits = Vec::new();
        for _ in 0..self.rng.range(1, 5) {
            if let Some(extent) = self.pick(&node.blocks) {
                commits.push((extent.loc.block_id, self.rng.range(0, 4096)));
            }
        }
        if self.chance(16) {
            let at = self.rng.below(commits.len() + 1);
            commits.insert(at, (BlockId(1 << 50), 1));
        }
        RequestBody::CommitBlocks {
            node_id: node.id,
            commits,
        }
    }

    /// The state a fresh service recovers from a copy of the live log.
    /// Recovery reads nothing but the log's files, so while their bytes
    /// are those the previous recovery read (the call appended nothing
    /// and installed no snapshot), its state is the answer again.
    fn recovered(&mut self) -> Snapshot {
        let mut files: LogFiles = std::fs::read_dir(self.dir.path())
            .expect("list the live log")
            .map(|entry| {
                let entry = entry.expect("list the live log");
                let bytes = std::fs::read(entry.path()).expect("read the live log");
                (entry.file_name(), bytes)
            })
            .collect();
        files.sort();
        if let Some((read, state)) = &self.last_recovery {
            if *read == files {
                return state.clone();
            }
        }
        let copy = TempDir::new("glider-meta-persist-copy");
        for (name, bytes) in &files {
            std::fs::write(copy.join(name), bytes).expect("copy the log");
        }
        let options = options(self.factor, self.shards, copy.path());
        let svc = MetaService::open(self.now, options, MetricsRegistry::new())
            .unwrap_or_else(|e| panic!("seed {}: recovery refused the log: {e}", self.seed));
        let state = svc.capture();
        self.last_recovery = Some((files, state.clone()));
        state
    }

    /// Makes call `step` against the state `before` and checks the
    /// property after it; returns the state after the call.
    fn step(&mut self, step: usize, before: Snapshot) -> Snapshot {
        let call = self.draw(&before);
        let (ok, op) = match &call {
            Call::Apply(body) => (
                self.svc.apply(self.now, body.clone()).is_ok(),
                Some(body.op()),
            ),
            Call::Repair(node_id) => (self.svc.repair_node_locked(*node_id).is_ok(), None),
            Call::Maintenance => {
                self.svc.maintenance();
                (true, None)
            }
        };
        let live = self.svc.capture();
        let at = format!(
            "seed {} config (factor {}, {} shards) step {step} call {call:?}",
            self.seed, self.factor, self.shards
        );
        let appended = last_lsn(&live) > last_lsn(&before);
        if ok && appended {
            match (&call, op) {
                (_, Some(op)) => self.covered.insert(op.name),
                (Call::Repair(_), None) => self.covered.insert("repair-node"),
                _ => false,
            };
        }
        if let Call::Repair(_) = call {
            // Without backups a repair has nothing to promote or set.
            assert!(self.factor > 1 || !appended, "{at}: factor 1 repair logged");
        }
        if !ok {
            let changed = differences(&live, &before);
            assert!(changed.is_empty(), "{at}: refused but changed {changed:#?}");
        }
        for server in &live.servers {
            if !self.server_ids.contains(&server.id) {
                self.server_ids.push(server.id);
            }
        }
        let recovered = self.recovered();
        let lost = differences(&recovered, &live);
        assert!(lost.is_empty(), "{at}: recovered state differs {lost:#?}");
        live
    }
}

fn run(factor: u32, shards: usize) {
    for seed in seeds([1]) {
        eprintln!("persist property: seed {seed}, factor {factor}, {shards} shards");
        let mut history = History::new(seed, factor, shards);
        let at = format!("seed {seed} config (factor {factor}, {shards} shards)");
        let snapshot = history.dir.join("snapshot.bin");
        let mut state = history.svc.capture();
        let (mut step, mut after) = (0, 0);
        while after < AFTER_SNAPSHOT {
            assert!(step < MAX_STEPS, "{at}: no snapshot in {MAX_STEPS} calls");
            state = history.step(step, state);
            step += 1;
            after += usize::from(snapshot.exists());
        }
        eprintln!(
            "{at}: {step} calls, the first snapshot after call {}",
            step - after
        );
        // Every `Logged` row acked with a record at least once. A repair
        // logs only where there are backups to promote or set.
        let uncovered: Vec<&str> = RequestBody::OPS
            .iter()
            .filter(|op| op.wal == WalClass::Logged)
            .map(|op| op.name)
            .filter(|name| !history.covered.contains(name))
            .filter(|name| factor > 1 || *name != "repair-node")
            .collect();
        assert!(uncovered.is_empty(), "{at}: no logged ack of {uncovered:?}");
    }
}

#[test]
fn every_ack_survives_recovery_unreplicated_one_shard() {
    run(1, 1);
}

#[test]
fn every_ack_survives_recovery_unreplicated_four_shards() {
    run(1, 4);
}

#[test]
fn every_ack_survives_recovery_replicated_one_shard() {
    run(2, 1);
}

#[test]
fn every_ack_survives_recovery_replicated_four_shards() {
    run(2, 4);
}
