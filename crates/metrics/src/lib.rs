//! Measurement plane for the Glider reproduction.
//!
//! The paper's evaluation (§7) is framed around four key indicators:
//!
//! 1. the **amount of data transferred** between the compute (FaaS) tier and
//!    the storage tier (bytes through the network),
//! 2. the **number of transfers** (storage accesses),
//! 3. the **temporary storage utilization** (stored bytes, peak), and
//! 4. overall application performance (wall-clock, measured by harnesses).
//!
//! This crate provides [`MetricsRegistry`], a cheap, thread-safe counter
//! registry that every transport, server and emulated service reports into.
//! Transfers are tagged with the [`Tier`] of both endpoints so that
//! tier-crossing traffic (what the paper counts) can be separated from
//! intra-storage traffic (what near-data execution is allowed to do for
//! free, e.g. an action writing result files from inside the cluster).
//!
//! # Examples
//!
//! ```
//! use glider_metrics::{AccessKind, MetricsRegistry, Tier};
//!
//! let m = MetricsRegistry::new();
//! m.record_transfer(Tier::Compute, Tier::Storage, 1024);
//! m.record_access(AccessKind::ActionWrite);
//! m.storage_alloc(4096);
//!
//! let snap = m.snapshot();
//! assert_eq!(snap.tier_crossing_bytes(), 1024);
//! assert_eq!(snap.storage_accesses(), 1);
//! assert_eq!(snap.storage_peak, 4096);
//! ```

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

mod hist;
pub use hist::{
    bucket_bounds, bucket_index, HistogramSnapshot, LogHistogram, OpKind, HIST_BUCKETS,
};

/// Maximum retained free-form notes; older notes age out (counted).
pub const NOTES_CAPACITY: usize = 256;

/// Points retained per [`OpKind`] time-series ring (see
/// [`MetricsRegistry::sample_series_tick`]).
pub const SERIES_CAPACITY: usize = 128;

/// One sampled point of an operation kind's time series: the delta of
/// completed operations since the previous tick plus the cumulative
/// latency quantiles at sampling time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesPoint {
    /// Monotonic tick number (shared across kinds within a registry).
    pub seq: u64,
    /// Operations completed since the previous tick.
    pub count: u64,
    /// Cumulative p50 latency at sampling time, in ns.
    pub p50_ns: u64,
    /// Cumulative p99 latency at sampling time, in ns.
    pub p99_ns: u64,
}

/// The retained time series of one operation kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpSeries {
    /// Which operation the points describe.
    pub kind: OpKind,
    /// Points in ascending `seq` order, oldest first.
    pub points: Vec<SeriesPoint>,
}

#[derive(Debug)]
struct SeriesState {
    next_seq: u64,
    last_count: [u64; OpKind::COUNT],
    rings: [VecDeque<SeriesPoint>; OpKind::COUNT],
}

impl SeriesState {
    fn new() -> SeriesState {
        SeriesState {
            next_seq: 1,
            last_count: [0; OpKind::COUNT],
            rings: std::array::from_fn(|_| VecDeque::new()),
        }
    }
}

/// Locks a registry mutex, recovering a poisoned guard: the notes ring
/// and the series rings are valid after every individual push/pop, so
/// a panic elsewhere under the lock leaves nothing half-updated.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The architectural tier an endpoint belongs to.
///
/// The paper's data-shipping analysis counts bytes that cross the
/// compute/storage boundary; traffic between elements of the same tier
/// (e.g. action → data server) stays inside the storage cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Serverless workers / application clients (the FaaS side).
    Compute,
    /// The Glider ephemeral storage cluster (metadata, data, active servers).
    Storage,
    /// The emulated cloud object store (S3 stand-in) used by baselines.
    ObjectStore,
}

impl Tier {
    const COUNT: usize = Self::ALL.len();

    /// The dense index: declaration order, which `ALL` restates.
    fn index(self) -> usize {
        self as usize
    }

    /// All tiers, in index order.
    pub const ALL: [Tier; 3] = [Tier::Compute, Tier::Storage, Tier::ObjectStore];
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Tier::Compute => "compute",
            Tier::Storage => "storage",
            Tier::ObjectStore => "object-store",
        };
        f.write_str(s)
    }
}

/// The kind of logical storage access (one access = one open data operation
/// against the storage or object tier, regardless of how many network chunks
/// implement it). This is the paper's "number of transfers" indicator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Opening a read stream on a file/KV/bag node.
    FileRead,
    /// Opening a write stream on a file/KV/bag node.
    FileWrite,
    /// Opening a read stream on an action node.
    ActionRead,
    /// Opening a write stream on an action node.
    ActionWrite,
    /// An object GET against the object store.
    ObjectGet,
    /// An object PUT against the object store.
    ObjectPut,
    /// An object SELECT (server-side filtered GET).
    ObjectSelect,
    /// A metadata-plane RPC (lookup/create/delete).
    Metadata,
}

impl AccessKind {
    const COUNT: usize = Self::ALL.len();

    /// The dense index: declaration order, which `ALL` restates.
    fn index(self) -> usize {
        self as usize
    }

    /// All access kinds, in index order.
    pub const ALL: [AccessKind; 8] = [
        AccessKind::FileRead,
        AccessKind::FileWrite,
        AccessKind::ActionRead,
        AccessKind::ActionWrite,
        AccessKind::ObjectGet,
        AccessKind::ObjectPut,
        AccessKind::ObjectSelect,
        AccessKind::Metadata,
    ];

    /// Whether this access kind counts toward the paper's "storage accesses"
    /// indicator (data-plane accesses; metadata RPCs are reported separately).
    pub fn is_data_access(self) -> bool {
        !matches!(self, AccessKind::Metadata)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AccessKind::FileRead => "file-read",
            AccessKind::FileWrite => "file-write",
            AccessKind::ActionRead => "action-read",
            AccessKind::ActionWrite => "action-write",
            AccessKind::ObjectGet => "object-get",
            AccessKind::ObjectPut => "object-put",
            AccessKind::ObjectSelect => "object-select",
            AccessKind::Metadata => "metadata",
        };
        f.write_str(s)
    }
}

#[derive(Debug, Default)]
struct Gauge {
    current: AtomicU64,
    peak: AtomicU64,
}

impl Gauge {
    fn add(&self, n: u64) {
        let new = self.current.fetch_add(n, Ordering::Relaxed) + n;
        self.peak.fetch_max(new, Ordering::Relaxed);
    }

    fn sub(&self, n: u64) {
        // Saturating decrement: double-free accounting should not wrap.
        let mut cur = self.current.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(n);
            match self.current.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }
}

/// Thread-safe registry of the paper's evaluation indicators.
///
/// Cloning the `Arc` and recording counters is cheap enough to sit on the
/// per-chunk data path. See the [crate docs](self) for an overview.
#[derive(Debug)]
pub struct MetricsRegistry {
    transfers: [[AtomicU64; Tier::COUNT]; Tier::COUNT],
    transfer_ops: [[AtomicU64; Tier::COUNT]; Tier::COUNT],
    accesses: [AtomicU64; AccessKind::COUNT],
    storage: Gauge,
    object: Gauge,
    object_scanned: AtomicU64,
    latency: [LogHistogram; OpKind::COUNT],
    batch_occupancy: LogHistogram,
    queue: Gauge,
    mailbox_depth: LogHistogram,
    action_instances: Gauge,
    rpc_retries: AtomicU64,
    rpc_reconnects: AtomicU64,
    rpc_inflight: Gauge,
    transport_tcp_requests: AtomicU64,
    transport_mem_requests: AtomicU64,
    transport_other_requests: AtomicU64,
    pool_hits: AtomicU64,
    pool_misses: AtomicU64,
    streams_opened: AtomicU64,
    streams_open: Gauge,
    servers_live: AtomicU64,
    servers_suspect: AtomicU64,
    servers_dead: AtomicU64,
    wal_fsyncs: AtomicU64,
    wal_bytes: AtomicU64,
    replication_lag: Gauge,
    under_replicated: AtomicU64,
    notes: Mutex<VecDeque<String>>,
    notes_dropped: AtomicU64,
    // Last trace id whose latency landed in [kind][bucket]; 0 = none.
    // Last-write-wins: an exemplar points at *a* recent trace for the
    // bucket, not the slowest ever.
    exemplars: [[AtomicU64; HIST_BUCKETS]; OpKind::COUNT],
    series: Mutex<SeriesState>,
    sampler_claimed: AtomicBool,
}

impl MetricsRegistry {
    /// Creates a fresh registry behind an `Arc`.
    pub fn new() -> Arc<Self> {
        Arc::new(MetricsRegistry {
            transfers: Default::default(),
            transfer_ops: Default::default(),
            accesses: Default::default(),
            storage: Gauge::default(),
            object: Gauge::default(),
            object_scanned: AtomicU64::new(0),
            latency: Default::default(),
            batch_occupancy: LogHistogram::new(),
            queue: Gauge::default(),
            mailbox_depth: LogHistogram::new(),
            action_instances: Gauge::default(),
            rpc_retries: AtomicU64::new(0),
            rpc_reconnects: AtomicU64::new(0),
            rpc_inflight: Gauge::default(),
            transport_tcp_requests: AtomicU64::new(0),
            transport_mem_requests: AtomicU64::new(0),
            transport_other_requests: AtomicU64::new(0),
            pool_hits: AtomicU64::new(0),
            pool_misses: AtomicU64::new(0),
            streams_opened: AtomicU64::new(0),
            streams_open: Gauge::default(),
            servers_live: AtomicU64::new(0),
            servers_suspect: AtomicU64::new(0),
            servers_dead: AtomicU64::new(0),
            wal_fsyncs: AtomicU64::new(0),
            wal_bytes: AtomicU64::new(0),
            replication_lag: Gauge::default(),
            under_replicated: AtomicU64::new(0),
            notes: Mutex::new(VecDeque::new()),
            notes_dropped: AtomicU64::new(0),
            exemplars: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            series: Mutex::new(SeriesState::new()),
            sampler_claimed: AtomicBool::new(false),
        })
    }

    /// Records `bytes` moving from tier `from` to tier `to`.
    pub fn record_transfer(&self, from: Tier, to: Tier, bytes: u64) {
        self.transfers[from.index()][to.index()].fetch_add(bytes, Ordering::Relaxed);
        self.transfer_ops[from.index()][to.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one logical storage access.
    pub fn record_access(&self, kind: AccessKind) {
        self.accesses[kind.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Records `bytes` newly stored in the ephemeral storage tier.
    pub fn storage_alloc(&self, bytes: u64) {
        self.storage.add(bytes);
    }

    /// Records `bytes` released from the ephemeral storage tier.
    pub fn storage_free(&self, bytes: u64) {
        self.storage.sub(bytes);
    }

    /// Records `bytes` newly stored in the object store.
    pub fn object_alloc(&self, bytes: u64) {
        self.object.add(bytes);
    }

    /// Records `bytes` released from the object store.
    pub fn object_free(&self, bytes: u64) {
        self.object.sub(bytes);
    }

    /// Records `bytes` scanned server-side by an object SELECT (data the
    /// object service had to read even though it was not transferred).
    pub fn object_select_scanned(&self, bytes: u64) {
        self.object_scanned.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records the latency of one `kind` operation: one relaxed atomic
    /// add into the kind's histogram. Operations at or above the slow-op
    /// threshold ([`glider_trace::slow_op_threshold`]) are additionally
    /// reported, off the fast path.
    pub fn record_latency(&self, kind: OpKind, elapsed: Duration) {
        self.record_latency_traced(kind, elapsed, 0);
    }

    /// [`record_latency`](Self::record_latency), plus an **exemplar**:
    /// when `trace_id` is nonzero it is stored (last-write-wins, one
    /// relaxed store) against the histogram bucket the latency landed
    /// in, so a hot p99 bucket in `stats` points at a concrete trace
    /// that `glider-cli trace <id>` can reassemble.
    pub fn record_latency_traced(&self, kind: OpKind, elapsed: Duration, trace_id: u64) {
        let ns = elapsed.as_nanos().min(u64::MAX as u128) as u64;
        let bucket = bucket_index(ns);
        self.latency[kind.index()].record(ns);
        if trace_id != 0 {
            self.exemplars[kind.index()][bucket].store(trace_id, Ordering::Relaxed);
        }
        // Unset and `0` both mean "report nothing" here.
        if glider_trace::slow_op_threshold().is_some_and(|t| !t.is_zero() && elapsed >= t) {
            report_slow_op(kind, ns);
        }
    }

    /// Starts an RAII timer that records into `kind`'s histogram on drop.
    pub fn op_timer(&self, kind: OpKind) -> OpTimer<'_> {
        OpTimer {
            metrics: self,
            kind,
            start: Instant::now(),
        }
    }

    /// The latency histogram of one operation kind (e.g. for benches that
    /// want direct access to the live buckets).
    pub fn latency(&self, kind: OpKind) -> &LogHistogram {
        &self.latency[kind.index()]
    }

    /// Records how many frames one coalesced writer flush carried.
    pub fn record_batch_occupancy(&self, frames: u64) {
        self.batch_occupancy.record(frames);
    }

    /// Marks one invocation entering an action mailbox.
    pub fn queue_enter(&self) {
        self.queue.add(1);
    }

    /// Marks one invocation leaving an action mailbox.
    pub fn queue_exit(&self) {
        self.queue.sub(1);
    }

    /// Records the observed depth of one instance mailbox at enqueue time
    /// (how many invocations were already waiting). The distribution
    /// shows whether backpressure engages: a healthy pipeline hugs the
    /// low buckets, a saturated instance pushes toward the mailbox bound.
    pub fn record_mailbox_depth(&self, depth: u64) {
        self.mailbox_depth.record(depth);
    }

    /// Marks one action instance task starting on the executor.
    pub fn instance_started(&self) {
        self.action_instances.add(1);
    }

    /// Marks one action instance task finishing.
    pub fn instance_stopped(&self) {
        self.action_instances.sub(1);
    }

    /// Counts one RPC attempt that failed with a retryable error and was
    /// retried after backoff.
    pub fn rpc_retry(&self) {
        self.rpc_retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one successful transparent client reconnection (redial +
    /// handshake after a dead channel was detected).
    pub fn rpc_reconnect(&self) {
        self.rpc_reconnects.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks one RPC entering server-side dispatch (inflight gauge up).
    pub fn rpc_start(&self) {
        self.rpc_inflight.add(1);
    }

    /// Marks one RPC leaving server-side dispatch (inflight gauge down).
    pub fn rpc_end(&self) {
        self.rpc_inflight.sub(1);
    }

    /// Counts one request carried by the transport with the given scheme
    /// label (`"tcp"`, `"mem"`, anything else lands in an `other` bucket).
    pub fn transport_request(&self, scheme: &str) {
        let counter = match scheme {
            "tcp" => &self.transport_tcp_requests,
            "mem" => &self.transport_mem_requests,
            _ => &self.transport_other_requests,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one buffer-pool get satisfied from the freelist.
    pub fn pool_hit(&self) {
        self.pool_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one buffer-pool get that had to allocate.
    pub fn pool_miss(&self) {
        self.pool_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one logical stream opened over a multiplexed connection
    /// (and raises the open-streams gauge).
    pub fn stream_opened(&self) {
        self.streams_opened.fetch_add(1, Ordering::Relaxed);
        self.streams_open.add(1);
    }

    /// Lowers the open-streams gauge when a logical stream closes.
    pub fn stream_closed(&self) {
        self.streams_open.sub(1);
    }

    /// Publishes the metadata registry's current liveness census. Called
    /// by the metadata server after every heartbeat, sweep or
    /// (re-)registration, so the Stats RPC can report it.
    pub fn set_server_liveness(&self, live: u64, suspect: u64, dead: u64) {
        self.servers_live.store(live, Ordering::Relaxed);
        self.servers_suspect.store(suspect, Ordering::Relaxed);
        self.servers_dead.store(dead, Ordering::Relaxed);
    }

    /// Publishes the metadata WAL's cumulative fsync count and appended
    /// bytes (durability plane, DESIGN.md §15). Values come straight from
    /// the WAL's own counters, so this is a store, not an add.
    pub fn set_wal_stats(&self, fsyncs: u64, bytes: u64) {
        self.wal_fsyncs.store(fsyncs, Ordering::Relaxed);
        self.wal_bytes.store(bytes, Ordering::Relaxed);
    }

    /// Marks one replicated chunk entering chain-forwarding on a storage
    /// server (replication-lag gauge up: bytes acked locally but not yet
    /// by every downstream replica).
    pub fn replication_lag_enter(&self, bytes: u64) {
        self.replication_lag.add(bytes);
    }

    /// Marks one replicated chunk fully acknowledged by the downstream
    /// chain (replication-lag gauge down).
    pub fn replication_lag_exit(&self, bytes: u64) {
        self.replication_lag.sub(bytes);
    }

    /// Publishes the metadata sweeper's census of extents holding fewer
    /// backups than the configured replication factor.
    pub fn set_under_replicated(&self, extents: u64) {
        self.under_replicated.store(extents, Ordering::Relaxed);
    }

    /// Attaches a free-form note to the registry (harnesses use this to
    /// remember configuration alongside results). Retention is a ring:
    /// the newest [`NOTES_CAPACITY`] notes are kept, older ones age out
    /// and are counted in `notes_dropped`, so a long-running server
    /// cannot grow the buffer without bound.
    pub fn note(&self, s: impl Into<String>) {
        let mut notes = lock(&self.notes);
        notes.push_back(s.into());
        if notes.len() > NOTES_CAPACITY {
            notes.pop_front();
            self.notes_dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Samples one point of every operation kind's time series: the
    /// count delta since the previous tick plus cumulative p50/p99.
    /// Rings are bounded at [`SERIES_CAPACITY`] points (oldest age
    /// out). Called by a background ticker — see
    /// [`try_claim_sampler`](Self::try_claim_sampler).
    pub fn sample_series_tick(&self) {
        let mut series = lock(&self.series);
        let seq = series.next_seq;
        series.next_seq += 1;
        for kind in OpKind::ALL {
            let i = kind.index();
            let snap = self.latency[i].snapshot();
            let total = snap.count();
            let count = total.saturating_sub(series.last_count[i]);
            series.last_count[i] = total;
            if total == 0 {
                // Never-used kinds get no points; the wire payload and
                // `stats --watch` stay proportional to actual traffic.
                continue;
            }
            let point = SeriesPoint {
                seq,
                count,
                p50_ns: snap.p50(),
                p99_ns: snap.p99(),
            };
            let ring = &mut series.rings[i];
            ring.push_back(point);
            if ring.len() > SERIES_CAPACITY {
                ring.pop_front();
            }
        }
    }

    /// Claims the background-sampler role for this registry; only the
    /// first caller gets `true`, so embedding a registry in several
    /// servers of one process spawns exactly one ticker.
    pub fn try_claim_sampler(&self) -> bool {
        !self.sampler_claimed.swap(true, Ordering::AcqRel)
    }

    /// The retained time series of every operation kind that has seen
    /// traffic, oldest point first.
    pub fn series(&self) -> Vec<OpSeries> {
        let series = lock(&self.series);
        OpKind::ALL
            .iter()
            .filter_map(|&kind| {
                let ring = &series.rings[kind.index()];
                if ring.is_empty() {
                    return None;
                }
                Some(OpSeries {
                    kind,
                    points: ring.iter().copied().collect(),
                })
            })
            .collect()
    }

    /// Takes a consistent-enough snapshot of all counters.
    ///
    /// Counters are read individually with relaxed ordering, so a
    /// snapshot taken during traffic is *relaxed*, not atomic: it may
    /// split an in-flight operation (e.g. count its transfer but not yet
    /// its latency). For the harnesses, which snapshot while quiescent,
    /// it is exact. The notes mutex is taken exactly once.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut transfers = [[0u64; Tier::COUNT]; Tier::COUNT];
        let mut transfer_ops = [[0u64; Tier::COUNT]; Tier::COUNT];
        for f in 0..Tier::COUNT {
            for t in 0..Tier::COUNT {
                transfers[f][t] = self.transfers[f][t].load(Ordering::Relaxed);
                transfer_ops[f][t] = self.transfer_ops[f][t].load(Ordering::Relaxed);
            }
        }
        let mut accesses = [0u64; AccessKind::COUNT];
        for (i, a) in self.accesses.iter().enumerate() {
            accesses[i] = a.load(Ordering::Relaxed);
        }
        MetricsSnapshot {
            transfers,
            transfer_ops,
            accesses,
            storage_current: self.storage.current.load(Ordering::Relaxed),
            storage_peak: self.storage.peak.load(Ordering::Relaxed),
            object_current: self.object.current.load(Ordering::Relaxed),
            object_peak: self.object.peak.load(Ordering::Relaxed),
            object_scanned: self.object_scanned.load(Ordering::Relaxed),
            latency: std::array::from_fn(|i| self.latency[i].snapshot()),
            batch_occupancy: self.batch_occupancy.snapshot(),
            queue_current: self.queue.current.load(Ordering::Relaxed),
            queue_peak: self.queue.peak.load(Ordering::Relaxed),
            mailbox_depth: self.mailbox_depth.snapshot(),
            action_instances_current: self.action_instances.current.load(Ordering::Relaxed),
            action_instances_peak: self.action_instances.peak.load(Ordering::Relaxed),
            rpc_retries: self.rpc_retries.load(Ordering::Relaxed),
            rpc_reconnects: self.rpc_reconnects.load(Ordering::Relaxed),
            rpc_inflight_current: self.rpc_inflight.current.load(Ordering::Relaxed),
            rpc_inflight_peak: self.rpc_inflight.peak.load(Ordering::Relaxed),
            transport_tcp_requests: self.transport_tcp_requests.load(Ordering::Relaxed),
            transport_mem_requests: self.transport_mem_requests.load(Ordering::Relaxed),
            transport_other_requests: self.transport_other_requests.load(Ordering::Relaxed),
            pool_hits: self.pool_hits.load(Ordering::Relaxed),
            pool_misses: self.pool_misses.load(Ordering::Relaxed),
            streams_opened: self.streams_opened.load(Ordering::Relaxed),
            streams_open_current: self.streams_open.current.load(Ordering::Relaxed),
            streams_open_peak: self.streams_open.peak.load(Ordering::Relaxed),
            servers_live: self.servers_live.load(Ordering::Relaxed),
            servers_suspect: self.servers_suspect.load(Ordering::Relaxed),
            servers_dead: self.servers_dead.load(Ordering::Relaxed),
            wal_fsyncs: self.wal_fsyncs.load(Ordering::Relaxed),
            wal_bytes: self.wal_bytes.load(Ordering::Relaxed),
            replication_lag_current: self.replication_lag.current.load(Ordering::Relaxed),
            replication_lag_peak: self.replication_lag.peak.load(Ordering::Relaxed),
            under_replicated: self.under_replicated.load(Ordering::Relaxed),
            notes: lock(&self.notes).iter().cloned().collect(),
            notes_dropped: self.notes_dropped.load(Ordering::Relaxed),
            exemplars: std::array::from_fn(|k| {
                std::array::from_fn(|b| self.exemplars[k][b].load(Ordering::Relaxed))
            }),
        }
    }

    /// Resets every counter and gauge to zero.
    pub fn reset(&self) {
        for row in &self.transfers {
            for c in row {
                c.store(0, Ordering::Relaxed);
            }
        }
        for row in &self.transfer_ops {
            for c in row {
                c.store(0, Ordering::Relaxed);
            }
        }
        for c in &self.accesses {
            c.store(0, Ordering::Relaxed);
        }
        self.storage.current.store(0, Ordering::Relaxed);
        self.storage.peak.store(0, Ordering::Relaxed);
        self.object.current.store(0, Ordering::Relaxed);
        self.object.peak.store(0, Ordering::Relaxed);
        self.object_scanned.store(0, Ordering::Relaxed);
        for h in &self.latency {
            h.reset();
        }
        self.batch_occupancy.reset();
        self.queue.current.store(0, Ordering::Relaxed);
        self.queue.peak.store(0, Ordering::Relaxed);
        self.mailbox_depth.reset();
        self.action_instances.current.store(0, Ordering::Relaxed);
        self.action_instances.peak.store(0, Ordering::Relaxed);
        self.rpc_retries.store(0, Ordering::Relaxed);
        self.rpc_reconnects.store(0, Ordering::Relaxed);
        self.rpc_inflight.current.store(0, Ordering::Relaxed);
        self.rpc_inflight.peak.store(0, Ordering::Relaxed);
        self.transport_tcp_requests.store(0, Ordering::Relaxed);
        self.transport_mem_requests.store(0, Ordering::Relaxed);
        self.transport_other_requests.store(0, Ordering::Relaxed);
        self.pool_hits.store(0, Ordering::Relaxed);
        self.pool_misses.store(0, Ordering::Relaxed);
        self.streams_opened.store(0, Ordering::Relaxed);
        self.streams_open.current.store(0, Ordering::Relaxed);
        self.streams_open.peak.store(0, Ordering::Relaxed);
        self.servers_live.store(0, Ordering::Relaxed);
        self.servers_suspect.store(0, Ordering::Relaxed);
        self.servers_dead.store(0, Ordering::Relaxed);
        self.wal_fsyncs.store(0, Ordering::Relaxed);
        self.wal_bytes.store(0, Ordering::Relaxed);
        self.replication_lag.current.store(0, Ordering::Relaxed);
        self.replication_lag.peak.store(0, Ordering::Relaxed);
        self.under_replicated.store(0, Ordering::Relaxed);
        self.notes_dropped.store(0, Ordering::Relaxed);
        for row in &self.exemplars {
            for e in row {
                e.store(0, Ordering::Relaxed);
            }
        }
        *lock(&self.series) = SeriesState::new();
        // Swap the notes out under the lock; the old buffer deallocates
        // after the lock is released.
        let old_notes = std::mem::take(&mut *lock(&self.notes));
        drop(old_notes);
    }
}

/// RAII latency timer: records the elapsed time into its [`OpKind`]'s
/// histogram when dropped. Created by [`MetricsRegistry::op_timer`].
#[derive(Debug)]
pub struct OpTimer<'a> {
    metrics: &'a MetricsRegistry,
    kind: OpKind,
    start: Instant,
}

impl Drop for OpTimer<'_> {
    fn drop(&mut self) {
        self.metrics.record_latency(self.kind, self.start.elapsed());
    }
}

#[cold]
fn report_slow_op(kind: OpKind, ns: u64) {
    let message = format!("{} took {:.3} ms", kind.name(), ns as f64 / 1e6);
    if glider_trace::tracing_enabled() {
        glider_trace::structured_event("slow-op", &message, "", 0, 0);
    } else {
        eprintln!("[glider slow-op] {message}");
    }
}

/// A point-in-time copy of every indicator in a [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    transfers: [[u64; Tier::COUNT]; Tier::COUNT],
    transfer_ops: [[u64; Tier::COUNT]; Tier::COUNT],
    accesses: [u64; AccessKind::COUNT],
    /// Bytes currently held by the ephemeral storage tier.
    pub storage_current: u64,
    /// Peak bytes held by the ephemeral storage tier.
    pub storage_peak: u64,
    /// Bytes currently held by the object store.
    pub object_current: u64,
    /// Peak bytes held by the object store.
    pub object_peak: u64,
    /// Bytes scanned server-side by object SELECT operations.
    pub object_scanned: u64,
    /// Per-[`OpKind`] latency histograms (indexed by [`OpKind::index`]).
    pub latency: [HistogramSnapshot; OpKind::COUNT],
    /// Frames per coalesced writer-batch flush.
    pub batch_occupancy: HistogramSnapshot,
    /// Invocations currently waiting in action mailboxes.
    pub queue_current: u64,
    /// Peak mailbox occupancy across all action instances.
    pub queue_peak: u64,
    /// Distribution of per-instance mailbox depths observed at enqueue.
    pub mailbox_depth: HistogramSnapshot,
    /// Action instance tasks currently running on the executor.
    pub action_instances_current: u64,
    /// Peak concurrently-running action instance tasks.
    pub action_instances_peak: u64,
    /// RPC attempts retried after a retryable failure.
    pub rpc_retries: u64,
    /// Transparent client reconnections (redial + handshake).
    pub rpc_reconnects: u64,
    /// RPCs currently in server-side dispatch.
    pub rpc_inflight_current: u64,
    /// Peak concurrently-dispatched RPCs.
    pub rpc_inflight_peak: u64,
    /// Requests carried over TCP connections.
    pub transport_tcp_requests: u64,
    /// Requests carried over `mem://` connections.
    pub transport_mem_requests: u64,
    /// Requests carried over any other registered transport.
    pub transport_other_requests: u64,
    /// Buffer-pool gets satisfied from the freelist.
    pub pool_hits: u64,
    /// Buffer-pool gets that had to allocate.
    pub pool_misses: u64,
    /// Logical streams opened over multiplexed connections.
    pub streams_opened: u64,
    /// Logical streams currently open.
    pub streams_open_current: u64,
    /// Peak concurrently-open logical streams.
    pub streams_open_peak: u64,
    /// Registered servers currently heartbeating within their lease.
    pub servers_live: u64,
    /// Registered servers past one lease without a heartbeat.
    pub servers_suspect: u64,
    /// Registered servers past two leases without a heartbeat.
    pub servers_dead: u64,
    /// Cumulative fsyncs issued by the metadata WAL.
    pub wal_fsyncs: u64,
    /// Cumulative bytes appended to the metadata WAL.
    pub wal_bytes: u64,
    /// Bytes acked locally by a replica-chain head but not yet by every
    /// downstream replica (in-flight replication).
    pub replication_lag_current: u64,
    /// Peak in-flight replication bytes.
    pub replication_lag_peak: u64,
    /// Extents currently holding fewer backups than the configured
    /// replication factor (metadata sweeper census).
    pub under_replicated: u64,
    /// Free-form notes recorded during the run (newest
    /// [`NOTES_CAPACITY`] retained).
    pub notes: Vec<String>,
    /// Notes that aged out of the bounded ring.
    pub notes_dropped: u64,
    /// Last trace id seen per `[kind][bucket]` latency cell; 0 = none.
    pub exemplars: [[u64; HIST_BUCKETS]; OpKind::COUNT],
}

impl MetricsSnapshot {
    /// Bytes moved from `from` to `to`.
    pub fn transferred(&self, from: Tier, to: Tier) -> u64 {
        self.transfers[from.index()][to.index()]
    }

    /// Number of transfer operations (chunks/requests) from `from` to `to`.
    pub fn transfer_ops(&self, from: Tier, to: Tier) -> u64 {
        self.transfer_ops[from.index()][to.index()]
    }

    /// Total bytes crossing the compute boundary in either direction — the
    /// paper's "data transferred between compute and storage" indicator.
    /// Includes object-store traffic so baselines and Glider are comparable.
    pub fn tier_crossing_bytes(&self) -> u64 {
        let c = Tier::Compute.index();
        let mut total = 0;
        for other in [Tier::Storage.index(), Tier::ObjectStore.index()] {
            total += self.transfers[c][other] + self.transfers[other][c];
        }
        total
    }

    /// Bytes ingested by the compute tier (storage/object → compute).
    pub fn compute_ingress_bytes(&self) -> u64 {
        let c = Tier::Compute.index();
        self.transfers[Tier::Storage.index()][c] + self.transfers[Tier::ObjectStore.index()][c]
    }

    /// Bytes emitted by the compute tier (compute → storage/object).
    pub fn compute_egress_bytes(&self) -> u64 {
        let c = Tier::Compute.index();
        self.transfers[c][Tier::Storage.index()] + self.transfers[c][Tier::ObjectStore.index()]
    }

    /// Bytes moved inside the storage tier (near-data traffic).
    pub fn intra_storage_bytes(&self) -> u64 {
        let s = Tier::Storage.index();
        self.transfers[s][s]
    }

    /// Count of one access kind.
    pub fn accesses(&self, kind: AccessKind) -> u64 {
        self.accesses[kind.index()]
    }

    /// The latency histogram of one operation kind.
    pub fn op_latency(&self, kind: OpKind) -> &HistogramSnapshot {
        &self.latency[kind.index()]
    }

    /// The exemplar trace id for one `[kind][bucket]` latency cell, if a
    /// traced operation has landed there.
    pub fn exemplar(&self, kind: OpKind, bucket: usize) -> Option<u64> {
        match self.exemplars[kind.index()].get(bucket) {
            Some(&id) if id != 0 => Some(id),
            _ => None,
        }
    }

    /// Total data-plane storage accesses (the paper's "number of
    /// transfers" indicator; metadata RPCs excluded).
    pub fn storage_accesses(&self) -> u64 {
        AccessKind::ALL
            .iter()
            .filter(|k| k.is_data_access())
            .map(|k| self.accesses(*k))
            .sum()
    }

    /// Peak temporary storage utilization across both storage services.
    pub fn peak_utilization(&self) -> u64 {
        self.storage_peak + self.object_peak
    }

    /// Fraction of buffer-pool gets served from the freelist, in
    /// `[0.0, 1.0]`. Returns 0.0 before any get, so hit-rate assertions
    /// cannot pass vacuously.
    pub fn pool_hit_rate(&self) -> f64 {
        let total = self.pool_hits + self.pool_misses;
        if total == 0 {
            0.0
        } else {
            self.pool_hits as f64 / total as f64
        }
    }

    /// Requests carried across all registered transports.
    pub fn transport_requests_total(&self) -> u64 {
        self.transport_tcp_requests + self.transport_mem_requests + self.transport_other_requests
    }

    /// Computes the relative reduction of `ours` vs `baseline` as a
    /// percentage (e.g. 99.75 for the Table 2 transfer cut). Returns 0.0
    /// when the baseline is zero.
    pub fn reduction_pct(baseline: u64, ours: u64) -> f64 {
        if baseline == 0 {
            0.0
        } else {
            (1.0 - ours as f64 / baseline as f64) * 100.0
        }
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "metrics snapshot:")?;
        for from in Tier::ALL {
            for to in Tier::ALL {
                let b = self.transferred(from, to);
                if b > 0 {
                    writeln!(
                        f,
                        "  transfer {from} -> {to}: {} ({} ops)",
                        glider_fmt_bytes(b),
                        self.transfer_ops(from, to)
                    )?;
                }
            }
        }
        for kind in AccessKind::ALL {
            let n = self.accesses(kind);
            if n > 0 {
                writeln!(f, "  access {kind}: {n}")?;
            }
        }
        writeln!(
            f,
            "  storage: current {} peak {}",
            glider_fmt_bytes(self.storage_current),
            glider_fmt_bytes(self.storage_peak)
        )?;
        writeln!(
            f,
            "  object store: current {} peak {} scanned {}",
            glider_fmt_bytes(self.object_current),
            glider_fmt_bytes(self.object_peak),
            glider_fmt_bytes(self.object_scanned)
        )
    }
}

fn glider_fmt_bytes(b: u64) -> String {
    const KIB: u64 = 1024;
    const MIB: u64 = 1024 * KIB;
    const GIB: u64 = 1024 * MIB;
    if b >= GIB {
        format!("{:.2} GiB", b as f64 / GIB as f64)
    } else if b >= MIB {
        format!("{:.2} MiB", b as f64 / MIB as f64)
    } else if b >= KIB {
        format!("{:.2} KiB", b as f64 / KIB as f64)
    } else {
        format!("{b} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfers_accumulate_per_direction() {
        let m = MetricsRegistry::new();
        m.record_transfer(Tier::Compute, Tier::Storage, 100);
        m.record_transfer(Tier::Compute, Tier::Storage, 50);
        m.record_transfer(Tier::Storage, Tier::Compute, 10);
        m.record_transfer(Tier::Storage, Tier::Storage, 999);
        let s = m.snapshot();
        assert_eq!(s.transferred(Tier::Compute, Tier::Storage), 150);
        assert_eq!(s.transferred(Tier::Storage, Tier::Compute), 10);
        assert_eq!(s.transfer_ops(Tier::Compute, Tier::Storage), 2);
        assert_eq!(s.tier_crossing_bytes(), 160);
        assert_eq!(s.intra_storage_bytes(), 999);
        assert_eq!(s.compute_egress_bytes(), 150);
        assert_eq!(s.compute_ingress_bytes(), 10);
    }

    #[test]
    fn object_store_traffic_counts_as_crossing() {
        let m = MetricsRegistry::new();
        m.record_transfer(Tier::Compute, Tier::ObjectStore, 70);
        m.record_transfer(Tier::ObjectStore, Tier::Compute, 30);
        let s = m.snapshot();
        assert_eq!(s.tier_crossing_bytes(), 100);
    }

    fn assert_dense<T: Copy + fmt::Display>(all: &[T], index: fn(T) -> usize) {
        let mut names = std::collections::HashSet::new();
        for (i, item) in all.iter().enumerate() {
            assert_eq!(index(*item), i, "ALL is out of declaration order at {item}");
            assert!(names.insert(item.to_string()), "duplicate name {item}");
        }
    }

    #[test]
    fn tier_and_access_kind_indices_and_names_are_dense_and_unique() {
        assert_dense(&Tier::ALL, Tier::index);
        assert_dense(&AccessKind::ALL, AccessKind::index);
    }

    #[test]
    fn accesses_split_data_vs_metadata() {
        let m = MetricsRegistry::new();
        m.record_access(AccessKind::FileRead);
        m.record_access(AccessKind::ActionWrite);
        m.record_access(AccessKind::ObjectSelect);
        m.record_access(AccessKind::Metadata);
        let s = m.snapshot();
        assert_eq!(s.storage_accesses(), 3);
        assert_eq!(s.accesses(AccessKind::Metadata), 1);
    }

    #[test]
    fn gauge_tracks_peak() {
        let m = MetricsRegistry::new();
        m.storage_alloc(100);
        m.storage_alloc(200);
        m.storage_free(250);
        let s = m.snapshot();
        assert_eq!(s.storage_current, 50);
        assert_eq!(s.storage_peak, 300);
    }

    #[test]
    fn gauge_free_saturates() {
        let m = MetricsRegistry::new();
        m.storage_alloc(10);
        m.storage_free(100);
        assert_eq!(m.snapshot().storage_current, 0);
    }

    #[test]
    fn reset_clears_everything() {
        let m = MetricsRegistry::new();
        m.record_transfer(Tier::Compute, Tier::Storage, 1);
        m.record_access(AccessKind::FileRead);
        m.storage_alloc(5);
        m.object_alloc(7);
        m.object_select_scanned(3);
        m.note("hello");
        m.reset();
        let s = m.snapshot();
        assert_eq!(s.tier_crossing_bytes(), 0);
        assert_eq!(s.storage_accesses(), 0);
        assert_eq!(s.storage_peak, 0);
        assert_eq!(s.object_peak, 0);
        assert_eq!(s.object_scanned, 0);
        assert!(s.notes.is_empty());
    }

    #[test]
    fn notes_ring_is_bounded_and_counts_drops() {
        let m = MetricsRegistry::new();
        for i in 0..NOTES_CAPACITY + 10 {
            m.note(format!("note-{i}"));
        }
        let s = m.snapshot();
        assert_eq!(s.notes.len(), NOTES_CAPACITY);
        assert_eq!(s.notes_dropped, 10);
        // Oldest aged out, newest retained, order preserved.
        assert_eq!(s.notes.first().unwrap(), "note-10");
        assert_eq!(
            s.notes.last().unwrap(),
            &format!("note-{}", NOTES_CAPACITY + 9)
        );
        m.reset();
        assert_eq!(m.snapshot().notes_dropped, 0);
    }

    #[test]
    fn exemplars_attach_trace_to_latency_bucket() {
        let m = MetricsRegistry::new();
        // Untraced recordings leave no exemplar.
        m.record_latency(OpKind::BlockRead, Duration::from_micros(10));
        let s = m.snapshot();
        assert!(OpKind::ALL
            .iter()
            .all(|&k| (0..HIST_BUCKETS).all(|b| s.exemplar(k, b).is_none())));

        let elapsed = Duration::from_micros(10);
        let bucket = bucket_index(elapsed.as_nanos() as u64);
        m.record_latency_traced(OpKind::BlockRead, elapsed, 0xABCD);
        let s = m.snapshot();
        assert_eq!(s.exemplar(OpKind::BlockRead, bucket), Some(0xABCD));
        // Last write wins within a bucket.
        m.record_latency_traced(OpKind::BlockRead, elapsed, 0xEF01);
        assert_eq!(
            m.snapshot().exemplar(OpKind::BlockRead, bucket),
            Some(0xEF01)
        );
        // Other kinds and buckets stay clean.
        assert_eq!(m.snapshot().exemplar(OpKind::BlockWrite, bucket), None);
        m.reset();
        assert_eq!(m.snapshot().exemplar(OpKind::BlockRead, bucket), None);
    }

    #[test]
    fn series_ticks_record_deltas_and_stay_bounded() {
        let m = MetricsRegistry::new();
        assert!(m.series().is_empty(), "no traffic, no series");
        m.sample_series_tick();
        assert!(m.series().is_empty(), "idle ticks add no points");

        m.record_latency(OpKind::BlockWrite, Duration::from_micros(5));
        m.record_latency(OpKind::BlockWrite, Duration::from_micros(7));
        m.sample_series_tick();
        m.record_latency(OpKind::BlockWrite, Duration::from_micros(9));
        m.sample_series_tick();
        let series = m.series();
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].kind, OpKind::BlockWrite);
        let points = &series[0].points;
        assert_eq!(points.len(), 2);
        assert!(points[0].seq < points[1].seq);
        assert_eq!(points[0].count, 2, "first tick sees both recordings");
        assert_eq!(points[1].count, 1, "second tick sees only the delta");
        assert!(points[1].p99_ns >= points[1].p50_ns);

        // A kind with prior traffic keeps emitting points on idle ticks
        // (count 0), and the ring stays bounded.
        for _ in 0..SERIES_CAPACITY + 20 {
            m.sample_series_tick();
        }
        let series = m.series();
        assert_eq!(series[0].points.len(), SERIES_CAPACITY);
        assert_eq!(series[0].points.last().unwrap().count, 0);
        let seqs: Vec<u64> = series[0].points.iter().map(|p| p.seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn sampler_claim_is_once_per_registry() {
        let m = MetricsRegistry::new();
        assert!(m.try_claim_sampler());
        assert!(!m.try_claim_sampler());
        let other = MetricsRegistry::new();
        assert!(other.try_claim_sampler());
    }

    #[test]
    fn reduction_pct_matches_paper_math() {
        // Table 2: 10 GiB baseline vs 25.7 MiB with Glider = 99.75%.
        let baseline = 10 * 1024 * 1024 * 1024u64;
        let ours = (25.7 * 1024.0 * 1024.0) as u64;
        let pct = MetricsSnapshot::reduction_pct(baseline, ours);
        assert!((pct - 99.75).abs() < 0.01, "pct {pct}");
        assert_eq!(MetricsSnapshot::reduction_pct(0, 5), 0.0);
    }

    #[test]
    fn display_is_nonempty() {
        let m = MetricsRegistry::new();
        m.record_transfer(Tier::Compute, Tier::Storage, 1024 * 1024);
        let out = m.snapshot().to_string();
        assert!(out.contains("compute -> storage"));
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let m = MetricsRegistry::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        m.record_transfer(Tier::Compute, Tier::Storage, 1);
                    }
                });
            }
        });
        assert_eq!(
            m.snapshot().transferred(Tier::Compute, Tier::Storage),
            40_000
        );
    }

    #[test]
    fn fmt_bytes_uses_fractional_units() {
        assert_eq!(glider_fmt_bytes(0), "0 B");
        assert_eq!(glider_fmt_bytes(1023), "1023 B");
        assert_eq!(glider_fmt_bytes(1024), "1.00 KiB");
        // The old integer division printed 1535 B as "1 KiB".
        assert_eq!(glider_fmt_bytes(1535), "1.50 KiB");
        assert_eq!(glider_fmt_bytes(1024 * 1024 - 1), "1024.00 KiB");
        assert_eq!(glider_fmt_bytes(1024 * 1024), "1.00 MiB");
        assert_eq!(glider_fmt_bytes(3 * 1024 * 1024 / 2), "1.50 MiB");
        assert_eq!(glider_fmt_bytes(1024 * 1024 * 1024), "1.00 GiB");
    }

    #[test]
    fn latency_histograms_record_per_kind() {
        let m = MetricsRegistry::new();
        m.record_latency(OpKind::BlockWrite, Duration::from_micros(10));
        m.record_latency(OpKind::BlockWrite, Duration::from_micros(20));
        m.record_latency(OpKind::MetaLookupNode, Duration::from_nanos(100));
        let s = m.snapshot();
        assert_eq!(s.op_latency(OpKind::BlockWrite).count(), 2);
        assert_eq!(s.op_latency(OpKind::MetaLookupNode).count(), 1);
        assert_eq!(s.op_latency(OpKind::BlockRead).count(), 0);
        assert!(s.op_latency(OpKind::BlockWrite).p50() > 0);
    }

    #[test]
    fn op_timer_records_on_drop() {
        let m = MetricsRegistry::new();
        {
            let _t = m.op_timer(OpKind::ActionInvoke);
            std::thread::sleep(Duration::from_millis(1));
        }
        let s = m.snapshot();
        assert_eq!(s.op_latency(OpKind::ActionInvoke).count(), 1);
        assert!(s.op_latency(OpKind::ActionInvoke).p50() >= 1_000_000 / 2);
    }

    #[test]
    fn queue_gauge_and_batch_occupancy() {
        let m = MetricsRegistry::new();
        m.queue_enter();
        m.queue_enter();
        m.queue_exit();
        m.record_batch_occupancy(8);
        m.record_batch_occupancy(32);
        let s = m.snapshot();
        assert_eq!(s.queue_current, 1);
        assert_eq!(s.queue_peak, 2);
        assert_eq!(s.batch_occupancy.count(), 2);
        // Exit beyond zero saturates like the storage gauge.
        m.queue_exit();
        m.queue_exit();
        assert_eq!(m.snapshot().queue_current, 0);
    }

    #[test]
    fn instance_gauge_and_mailbox_depth_round_trip_and_reset() {
        let m = MetricsRegistry::new();
        m.instance_started();
        m.instance_started();
        m.instance_stopped();
        m.record_mailbox_depth(0);
        m.record_mailbox_depth(7);
        let s = m.snapshot();
        assert_eq!(
            (s.action_instances_current, s.action_instances_peak),
            (1, 2)
        );
        assert_eq!(s.mailbox_depth.count(), 2);
        // Stops beyond zero saturate like the other gauges.
        m.instance_stopped();
        m.instance_stopped();
        assert_eq!(m.snapshot().action_instances_current, 0);
        m.reset();
        let s = m.snapshot();
        assert_eq!(
            (s.action_instances_current, s.action_instances_peak),
            (0, 0)
        );
        assert!(s.mailbox_depth.is_empty());
    }

    #[test]
    fn rpc_health_counters_round_trip_and_reset() {
        let m = MetricsRegistry::new();
        m.rpc_retry();
        m.rpc_retry();
        m.rpc_reconnect();
        m.set_server_liveness(3, 1, 2);
        let s = m.snapshot();
        assert_eq!(s.rpc_retries, 2);
        assert_eq!(s.rpc_reconnects, 1);
        assert_eq!(
            (s.servers_live, s.servers_suspect, s.servers_dead),
            (3, 1, 2)
        );
        m.reset();
        let s = m.snapshot();
        assert_eq!(s.rpc_retries, 0);
        assert_eq!(s.rpc_reconnects, 0);
        assert_eq!(
            (s.servers_live, s.servers_suspect, s.servers_dead),
            (0, 0, 0)
        );
    }

    #[test]
    fn transport_plane_counters_round_trip_and_reset() {
        let m = MetricsRegistry::new();
        m.transport_request("tcp");
        m.transport_request("tcp");
        m.transport_request("mem");
        m.transport_request("rdma"); // unknown schemes land in `other`
        m.pool_hit();
        m.pool_hit();
        m.pool_hit();
        m.pool_miss();
        m.rpc_start();
        m.rpc_start();
        m.rpc_end();
        m.stream_opened();
        m.stream_opened();
        m.stream_closed();
        let s = m.snapshot();
        assert_eq!(s.transport_tcp_requests, 2);
        assert_eq!(s.transport_mem_requests, 1);
        assert_eq!(s.transport_other_requests, 1);
        assert_eq!(s.transport_requests_total(), 4);
        assert_eq!((s.pool_hits, s.pool_misses), (3, 1));
        assert!((s.pool_hit_rate() - 0.75).abs() < 1e-9);
        assert_eq!((s.rpc_inflight_current, s.rpc_inflight_peak), (1, 2));
        assert_eq!(s.streams_opened, 2);
        assert_eq!((s.streams_open_current, s.streams_open_peak), (1, 2));
        m.reset();
        let s = m.snapshot();
        assert_eq!(s.transport_requests_total(), 0);
        assert_eq!(s.pool_hit_rate(), 0.0, "empty pool stats read as 0, not 1");
        assert_eq!((s.rpc_inflight_current, s.rpc_inflight_peak), (0, 0));
        assert_eq!(s.streams_opened, 0);
        assert_eq!((s.streams_open_current, s.streams_open_peak), (0, 0));
    }

    #[test]
    fn durability_gauges_round_trip_and_reset() {
        let m = MetricsRegistry::new();
        m.set_wal_stats(7, 4096);
        m.replication_lag_enter(1000);
        m.replication_lag_enter(500);
        m.replication_lag_exit(1000);
        m.set_under_replicated(3);
        let s = m.snapshot();
        assert_eq!((s.wal_fsyncs, s.wal_bytes), (7, 4096));
        assert_eq!(s.replication_lag_current, 500);
        assert_eq!(s.replication_lag_peak, 1500);
        assert_eq!(s.under_replicated, 3);
        // Setters overwrite (WAL counters are cumulative at the source).
        m.set_wal_stats(9, 8192);
        assert_eq!(m.snapshot().wal_fsyncs, 9);
        m.reset();
        let s = m.snapshot();
        assert_eq!((s.wal_fsyncs, s.wal_bytes), (0, 0));
        assert_eq!((s.replication_lag_current, s.replication_lag_peak), (0, 0));
        assert_eq!(s.under_replicated, 0);
    }

    #[test]
    fn reset_clears_latency_and_queue() {
        let m = MetricsRegistry::new();
        m.record_latency(OpKind::QueueWait, Duration::from_micros(5));
        m.record_batch_occupancy(4);
        m.queue_enter();
        m.reset();
        let s = m.snapshot();
        assert!(s.op_latency(OpKind::QueueWait).is_empty());
        assert!(s.batch_occupancy.is_empty());
        assert_eq!(s.queue_current, 0);
        assert_eq!(s.queue_peak, 0);
    }
}
