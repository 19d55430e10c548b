//! Chain replication, checked by running it: a seeded, single-thread
//! history drives one `MetaService` (replication factor 2 or 3, no log)
//! and a `DataService` per registered data server. The history serves
//! each request the way the storage shell does: it pays every charge and
//! sends every `DataStep::Forward` to the service at its address, and on
//! one hop in ten it loses the request before the peer sees it or the
//! reply after the peer served it.
//!
//! The history registers servers, creates files, allocates blocks,
//! writes each block's chunks down its replica chain, commits acked
//! prefixes, and runs `maintenance`'s `CopyPlan`s through
//! `ReplicateBlock` (with hop failures, so sometimes between two chunk
//! writes of one block). It loses a server by registering a new one at
//! the same address: the old one's blocks are gone, and the chains that
//! name it fail from then on. Two properties:
//!
//! - after every acked chain write, every replica in the chain holds the
//!   chunk's bytes;
//! - after repair (maintenance without hop failures, until it plans
//!   nothing), every committed extent has `factor` replicas on distinct
//!   servers that hold its committed bytes. The history checks this
//!   before every server loss and at its end.
//!
//! A writer gives a block up after a chunk fails twice, as the client
//! moves to a fresh block then. Run one history with
//! `GLIDER_REPLAY_SEED=<n> cargo test -p glider-blockstore --test chain`;
//! a failure names its seed, factor and step. A seed must give one
//! history: run twice in one process, every call's outcome must repeat.

use bytes::Bytes;
use glider_blockstore::{BlockStore, DataService, DataStep};
use glider_metrics::MetricsRegistry;
use glider_namespace::service::{CopyPlan, MetaService, MetadataOptions};
use glider_proto::message::{RequestBody, ResponseBody};
use glider_proto::types::{BlockLocation, NodeId, NodeKind, ServerKind, StorageClass};
use glider_proto::{GliderError, GliderResult};
use glider_sim::{seeds, Lcg};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Block size of every data server, in bytes.
const BLOCK: u64 = 256;

/// Blocks each data server contributes.
const CAPACITY: u64 = 48;

/// Calls one history makes.
const STEPS: usize = 1000;

/// The most blocks the history allocates, so capacity never runs out.
const MAX_EXTENTS: usize = 40;

/// Percent of forwarded hops lost, half before the peer and half after.
const HOP_FAULTS: u64 = 10;

/// Data servers by address.
type Servers = BTreeMap<String, DataService>;

/// Serves `body` at `addr` as the storage shell does, losing `faults`
/// percent of its forwards (recursively, so any hop of a chain).
fn send(
    servers: &Servers,
    rng: &mut Lcg,
    faults: u64,
    addr: &str,
    body: RequestBody,
) -> GliderResult<ResponseBody> {
    let svc = servers
        .get(addr)
        .ok_or_else(|| GliderError::unavailable(addr))?;
    let mut step = svc.apply(body);
    loop {
        step = match step {
            DataStep::Answer(answer) => return answer,
            DataStep::Charge { then, .. } => svc.after_charge(then),
            DataStep::Forward { to, request, then } => {
                let draw = rng.range(0, 100);
                let reply = if draw < faults / 2 {
                    Err(GliderError::unavailable("hop lost before the peer"))
                } else if draw < faults {
                    let _served = send(servers, rng, faults, &to, request);
                    Err(GliderError::unavailable("hop's reply lost"))
                } else {
                    send(servers, rng, faults, &to, request)
                };
                return svc.after_forward(then, reply);
            }
        }
    }
}

/// The writer's view of one allocated block.
#[derive(Debug)]
struct Extent {
    node: NodeId,
    /// Position in the node's chain.
    at: usize,
    /// The primary, then its backups, as allocated: the writer's chain.
    chain: Vec<BlockLocation>,
    /// The bytes written from offset 0 that the whole chain acked.
    acked: Vec<u8>,
    /// The committed length.
    committed: u64,
    /// A chunk failed twice; the writer gave the block up.
    broken: bool,
}

struct History {
    seed: u64,
    factor: u32,
    meta: MetaService,
    /// The one instant every request arrives at: no lease runs out here,
    /// a lost server is a re-registration.
    now: Instant,
    servers: Servers,
    rng: Lcg,
    metrics: std::sync::Arc<MetricsRegistry>,
    nodes: Vec<NodeId>,
    extents: Vec<Extent>,
    /// The step being made, for failure messages.
    step: usize,
    acked_writes: usize,
    losses: usize,
    copies: usize,
    /// Every call's outcome, in order.
    outcomes: Vec<String>,
}

impl History {
    fn new(seed: u64, factor: u32) -> History {
        let options = MetadataOptions::default()
            .with_replication(factor)
            .with_namespace_shards(2);
        let metrics = MetricsRegistry::new();
        let now = Instant::now();
        let meta =
            MetaService::open(now, options, MetricsRegistry::new()).expect("a fresh service");
        let mut history = History {
            seed,
            factor,
            meta,
            now,
            servers: Servers::new(),
            rng: Lcg(seed ^ (u64::from(factor) << 16)),
            metrics,
            nodes: Vec::new(),
            extents: Vec::new(),
            step: 0,
            acked_writes: 0,
            losses: 0,
            copies: 0,
            outcomes: Vec::new(),
        };
        for _ in 0..=factor {
            let addr = format!("data-{}", history.servers.len());
            history.register(addr);
        }
        history
    }

    fn at(&self) -> String {
        format!(
            "seed {} factor {} step {}",
            self.seed, self.factor, self.step
        )
    }

    fn below(&mut self, bound: usize) -> usize {
        self.rng.below(bound.max(1))
    }

    fn note<T: std::fmt::Debug>(&mut self, outcome: T) -> T {
        self.outcomes.push(format!("{outcome:?}"));
        outcome
    }

    /// `MetaService::apply` at the history's one instant.
    fn apply(&mut self, body: RequestBody) -> GliderResult<ResponseBody> {
        let outcome = self.meta.apply(self.now, body);
        self.note(outcome)
    }

    /// `MetaService::maintenance`'s plans.
    fn maintenance(&mut self) -> Vec<CopyPlan> {
        let plans = self.meta.maintenance();
        self.note(plans)
    }

    /// Registers a data server at `addr`. At a used address this is a
    /// restart that lost every block: the old registration is retired.
    fn register(&mut self, addr: String) {
        let body = RequestBody::RegisterServer {
            kind: ServerKind::Data,
            storage_class: StorageClass::dram(),
            addr: addr.clone(),
            capacity_blocks: CAPACITY,
        };
        let first = match self.apply(body) {
            Ok(ResponseBody::Registered { first_block_id, .. }) => first_block_id,
            other => panic!("{}: register {addr}: {other:?}", self.at()),
        };
        let store = BlockStore::new(BLOCK, first, CAPACITY);
        let svc = DataService::new(store, std::sync::Arc::clone(&self.metrics));
        self.servers.insert(addr, svc);
    }

    fn create(&mut self) {
        let body = RequestBody::CreateNode {
            path: format!("/f{}", self.nodes.len()),
            kind: NodeKind::File,
            storage_class: None,
            action: None,
        };
        match self.apply(body) {
            Ok(ResponseBody::Node(info)) => self.nodes.push(info.id),
            other => panic!("{}: create: {other:?}", self.at()),
        }
    }

    fn add_blocks(&mut self) {
        let at = self.below(self.nodes.len());
        let Some(&node) = self.nodes.get(at) else {
            return;
        };
        let count = self.rng.range(1, 3) as u32;
        let layout = match self.apply(RequestBody::AddBlocks {
            node_id: node,
            count,
        }) {
            Ok(ResponseBody::ReplicatedBlocks(layout)) => layout,
            other => panic!("{}: add blocks: {other:?}", self.at()),
        };
        let held = self.extents.iter().filter(|e| e.node == node).count();
        for (i, replica) in layout.into_iter().enumerate() {
            let mut chain = vec![replica.extent.loc];
            chain.extend(replica.backups);
            self.extents.push(Extent {
                node,
                at: held + i,
                chain,
                acked: Vec::new(),
                committed: 0,
                broken: false,
            });
        }
    }

    /// Writes the next chunk of an open block down its chain, retrying
    /// once; checks every replica after an ack.
    fn write(&mut self) {
        let open: Vec<usize> = (0..self.extents.len())
            .filter(|&i| !self.extents[i].broken && (self.extents[i].acked.len() as u64) < BLOCK)
            .collect();
        let Some(&i) = open.get(self.below(open.len())) else {
            return;
        };
        let offset = self.extents[i].acked.len() as u64;
        let len = self.rng.range(1, (BLOCK - offset).min(BLOCK / 4) + 1);
        let data: Vec<u8> = (0..len).map(|_| self.rng.byte()).collect();
        let chain = self.extents[i].chain.clone();
        for _attempt in 0..2 {
            let body = RequestBody::ForwardChunk {
                offset,
                chain: chain.clone(),
                data: Bytes::from(data.clone()),
            };
            let head = chain[0].addr.clone();
            let reply = send(&self.servers, &mut self.rng, HOP_FAULTS, &head, body);
            match self.note(reply) {
                Ok(ResponseBody::Written { n }) => {
                    assert_eq!(n, len, "{}: ack of {n} bytes for {len}", self.at());
                    for loc in &chain {
                        let held = self.servers.get(&loc.addr).map(|s| {
                            s.store()
                                .read(loc.block_id, offset, len)
                                .map(|b| b.to_vec())
                        });
                        assert!(
                            matches!(&held, Some(Ok(bytes)) if *bytes == data),
                            "{}: acked chunk [{offset}, {}) of {chain:?} is not on {loc:?}: {held:?}",
                            self.at(),
                            offset + len
                        );
                    }
                    self.extents[i].acked.extend_from_slice(&data);
                    self.acked_writes += 1;
                    return;
                }
                Ok(other) => panic!("{}: chain write answered {other:?}", self.at()),
                Err(_) => {}
            }
        }
        self.extents[i].broken = true;
    }

    /// Commits the acked prefix of a block that holds more than it has
    /// committed.
    fn commit(&mut self) {
        let due: Vec<usize> = (0..self.extents.len())
            .filter(|&i| self.extents[i].acked.len() as u64 > self.extents[i].committed)
            .collect();
        let Some(&i) = due.get(self.below(due.len())) else {
            return;
        };
        let e = &self.extents[i];
        let len = e.acked.len() as u64;
        let body = RequestBody::CommitBlocks {
            node_id: e.node,
            commits: vec![(e.chain[0].block_id, len)],
        };
        // Refused once a promotion took the block's place in the chain, or
        // once no live replica holds the bytes (a writer then replaces the
        // block and replays them).
        if self.apply(body).is_ok() {
            self.extents[i].committed = len;
        }
    }

    /// Runs `plans` through `ReplicateBlock` at their sources and reports
    /// each one that acked, as the metadata shell does.
    fn copy(&mut self, plans: Vec<CopyPlan>, faults: u64) {
        for plan in plans {
            let body = RequestBody::ReplicateBlock {
                src_block: plan.src_block,
                dst: plan.dst.clone(),
                len: plan.len,
            };
            let reply = send(&self.servers, &mut self.rng, faults, &plan.src_addr, body);
            if self.note(reply).is_ok() {
                self.meta.copied(&plan);
            }
            self.copies += 1;
        }
    }

    /// Maintenance without hop failures until it plans nothing, then the
    /// repaired-layout check.
    fn repair(&mut self) {
        for _round in 0..8 {
            let plans = self.maintenance();
            if plans.is_empty() {
                break;
            }
            self.copy(plans, 0);
        }
        self.check_repaired();
    }

    /// Every committed extent has `factor` replicas on distinct servers,
    /// each holding the committed bytes.
    fn check_repaired(&self) {
        let mut layouts = BTreeMap::new();
        for e in self.extents.iter().filter(|e| e.committed > 0) {
            let layout = layouts.entry(e.node).or_insert_with(|| {
                match self
                    .meta
                    .apply(self.now, RequestBody::NodeReplicas { node_id: e.node })
                {
                    Ok(ResponseBody::ReplicatedBlocks(layout)) => layout,
                    other => panic!("{}: layout of {}: {other:?}", self.at(), e.node),
                }
            });
            let replica = &layout[e.at];
            assert_eq!(
                replica.extent.len,
                e.committed,
                "{}: committed length of {replica:?}",
                self.at()
            );
            let holders: Vec<&BlockLocation> = std::iter::once(&replica.extent.loc)
                .chain(&replica.backups)
                .collect();
            let servers: BTreeSet<_> = holders.iter().map(|l| l.server_id).collect();
            assert!(
                holders.len() == self.factor as usize && servers.len() == holders.len(),
                "{}: {replica:?} does not have {} replicas on distinct servers",
                self.at(),
                self.factor
            );
            let want = &e.acked[..e.committed as usize];
            for loc in holders {
                let held = self.servers.get(&loc.addr).map(|s| {
                    s.store()
                        .read(loc.block_id, 0, e.committed)
                        .map(|b| b.to_vec())
                });
                assert!(
                    matches!(&held, Some(Ok(bytes)) if bytes == want),
                    "{}: replica {loc:?} of committed {replica:?} does not hold its bytes",
                    self.at()
                );
            }
        }
    }

    /// Repairs, checks, then restarts one server with none of its blocks.
    fn lose(&mut self) {
        self.repair();
        let addrs: Vec<String> = self.servers.keys().cloned().collect();
        let addr = addrs[self.below(addrs.len())].clone();
        self.register(addr);
        self.losses += 1;
    }

    fn step(&mut self) {
        match self.below(100) {
            0..=2 if self.servers.len() < self.factor as usize + 4 => {
                let addr = format!("data-{}", self.servers.len());
                self.register(addr);
            }
            3..=4 => self.lose(),
            5..=13 if self.nodes.len() < 8 => self.create(),
            14..=25 if self.extents.len() < MAX_EXTENTS => self.add_blocks(),
            26..=69 => self.write(),
            70..=84 => self.commit(),
            85..=99 => {
                let plans = self.maintenance();
                self.copy(plans, HOP_FAULTS);
            }
            _ => self.create(),
        }
    }
}

/// Runs one history; returns its calls' outcomes.
fn run(seed: u64, factor: u32) -> Vec<String> {
    let mut history = History::new(seed, factor);
    while history.step < STEPS {
        history.step();
        history.step += 1;
    }
    history.repair();
    let committed = history.extents.iter().filter(|e| e.committed > 0).count();
    eprintln!(
        "{}: {} acked chain writes, {} server losses, {} copies, {committed} committed extents",
        history.at(),
        history.acked_writes,
        history.losses,
        history.copies
    );
    assert!(
        history.acked_writes > 0 && history.losses > 0 && committed > 0,
        "{}: the history exercised nothing",
        history.at()
    );
    history.outcomes
}

/// The history that found the commit of lost bytes: after a backup's
/// server restarted, repair copied only the committed bytes; the
/// primary's server restarted next, and the writer then committed bytes
/// no live replica held (step 133).
#[test]
fn a_commit_no_live_replica_holds_is_refused_seed_5() {
    run(5, 2);
}

/// The registry's maps reach which server a block is allocated on,
/// retired from and repaired to: iterated in a per-process order, they
/// gave one seed a different history from run to run.
#[test]
fn a_seed_replays_its_history_factor_two() {
    for seed in seeds([1]) {
        let (first, second) = (run(seed, 2), run(seed, 2));
        let differ = first.iter().zip(&second).position(|(a, b)| a != b);
        if let Some(call) = differ {
            panic!(
                "seed {seed} factor 2: call {call} was {} and then {}",
                first[call], second[call]
            );
        }
        assert_eq!(first.len(), second.len(), "seed {seed} factor 2");
    }
}

#[test]
fn acked_chain_writes_and_repairs_hold_every_replica_factor_two() {
    for seed in seeds([1]) {
        run(seed, 2);
    }
}

#[test]
fn acked_chain_writes_and_repairs_hold_every_replica_factor_three() {
    for seed in seeds([1]) {
        run(seed, 3);
    }
}
