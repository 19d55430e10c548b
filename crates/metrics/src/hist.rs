//! Lock-free log-scale latency histograms.
//!
//! A [`LogHistogram`] has 64 power-of-two buckets with nanosecond
//! resolution: bucket 0 holds the value 0 and bucket *i* ≥ 1 holds
//! values in `[2^(i-1), 2^i)` (the last bucket is open-ended). Recording
//! is exactly one relaxed atomic add — no locks, no allocation — so the
//! histograms can sit on every RPC dispatch and block operation.
//!
//! Percentiles come from [`HistogramSnapshot`]: log-scale buckets bound
//! any reported quantile to within 2× of the true value, which is the
//! usual trade for a fixed-size, mergeable structure (HdrHistogram makes
//! the same one at finer grain).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets; covers the full `u64` range in powers of two.
pub const HIST_BUCKETS: usize = 64;

/// The bucket a value lands in: 0 for 0, else `floor(log2(v)) + 1`,
/// clamped so the last bucket absorbs everything ≥ 2^62. Public so the
/// exemplar plane can attribute a trace id to the bucket its latency
/// landed in, and renderers can label buckets.
pub fn bucket_index(value: u64) -> usize {
    ((64 - value.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

/// Inclusive bounds `(lower, upper)` of a bucket.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    match index {
        0 => (0, 0),
        i if i >= HIST_BUCKETS - 1 => (1 << (HIST_BUCKETS - 2), u64::MAX),
        i => (1 << (i - 1), (1 << i) - 1),
    }
}

/// A fixed-size, lock-free latency histogram with power-of-two buckets.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Records one value (nanoseconds by convention): a single relaxed
    /// `fetch_add`, the entire data-path cost of the measurement plane.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Copies the bucket counts out. Concurrent recordings may or may not
    /// be included (relaxed reads), but no count is ever lost or split.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }

    /// Zeroes every bucket.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

/// A point-in-time copy of a [`LogHistogram`]; mergeable across
/// registries and serializable as its plain bucket counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: [u64; HIST_BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// Rebuilds a snapshot from raw bucket counts (e.g. decoded from the
    /// wire). Longer inputs are truncated, shorter ones zero-padded.
    pub fn from_bucket_counts(counts: &[u64]) -> HistogramSnapshot {
        let mut buckets = [0u64; HIST_BUCKETS];
        for (slot, &c) in buckets.iter_mut().zip(counts.iter()) {
            *slot = c;
        }
        HistogramSnapshot { buckets }
    }

    /// The raw bucket counts, for wire encoding.
    pub fn bucket_counts(&self) -> &[u64; HIST_BUCKETS] {
        &self.buckets
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.iter().fold(0u64, |a, &b| a.saturating_add(b))
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// The value at quantile `q` in `[0, 1]`, reported as the inclusive
    /// upper bound of the bucket containing that rank (a log-scale
    /// approximation: within 2× of the true value). 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                return bucket_bounds(i).1;
            }
        }
        bucket_bounds(HIST_BUCKETS - 1).1
    }

    /// Median (see [`HistogramSnapshot::percentile`]).
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.percentile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.percentile(0.999)
    }

    /// Upper bound of the highest occupied bucket; 0 when empty.
    pub fn max(&self) -> u64 {
        self.buckets
            .iter()
            .rposition(|&c| c > 0)
            .map(|i| bucket_bounds(i).1)
            .unwrap_or(0)
    }

    /// Adds `other`'s counts into `self`. Bucket-wise addition, so the
    /// merge is commutative and associative across any set of snapshots.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a = a.saturating_add(*b);
        }
    }
}

/// The operation classes Glider measures latency for.
///
/// Metadata verbs are split out (λFS-style per-RPC percentiles); the
/// data plane distinguishes block I/O from the action path, and the
/// action path separates invocation (RPC arrival to response) from the
/// queue wait and the handler's own run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// `CreateNode` metadata RPC.
    MetaCreateNode,
    /// `LookupNode` metadata RPC.
    MetaLookupNode,
    /// `DeleteNode` metadata RPC.
    MetaDeleteNode,
    /// `ListChildren` metadata RPC.
    MetaListChildren,
    /// `AddBlock` metadata RPC.
    MetaAddBlock,
    /// `AddBlocks` (batched allocation) metadata RPC.
    MetaAddBlocks,
    /// `CommitBlock` metadata RPC.
    MetaCommitBlock,
    /// `CommitBlocks` (batched commit) metadata RPC.
    MetaCommitBlocks,
    /// `RegisterServer` metadata RPC.
    MetaRegisterServer,
    /// `ReadBlock` on a data server.
    BlockRead,
    /// `WriteBlock` on a data server.
    BlockWrite,
    /// `FreeBlocks` on a data server.
    BlockFree,
    /// Action-plane control RPCs served by an active server (create,
    /// delete, stream open/close), measured at the dispatcher.
    ActionInvoke,
    /// One action handler method run inside an instance task.
    ActionHandlerRun,
    /// Time an invocation waited in an instance mailbox before running.
    QueueWait,
    /// One coalesced writer-batch flush (client or server writer task).
    WriterFlush,
    /// `StreamFetch` on an active server (pulling action output).
    ActionStreamRead,
    /// `StreamChunk`/`StreamChunkBatch` on an active server (pushing
    /// action input).
    ActionStreamWrite,
}

impl OpKind {
    /// Number of operation kinds.
    pub const COUNT: usize = Self::ALL.len();

    /// All kinds, in index order.
    pub const ALL: [OpKind; 18] = [
        OpKind::MetaCreateNode,
        OpKind::MetaLookupNode,
        OpKind::MetaDeleteNode,
        OpKind::MetaListChildren,
        OpKind::MetaAddBlock,
        OpKind::MetaAddBlocks,
        OpKind::MetaCommitBlock,
        OpKind::MetaCommitBlocks,
        OpKind::MetaRegisterServer,
        OpKind::BlockRead,
        OpKind::BlockWrite,
        OpKind::BlockFree,
        OpKind::ActionInvoke,
        OpKind::ActionHandlerRun,
        OpKind::QueueWait,
        OpKind::WriterFlush,
        OpKind::ActionStreamRead,
        OpKind::ActionStreamWrite,
    ];

    /// The dense index of this kind: its declaration order, which
    /// `ALL` restates.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The stable name used in stats tables and JSON.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::MetaCreateNode => "meta-create-node",
            OpKind::MetaLookupNode => "meta-lookup-node",
            OpKind::MetaDeleteNode => "meta-delete-node",
            OpKind::MetaListChildren => "meta-list-children",
            OpKind::MetaAddBlock => "meta-add-block",
            OpKind::MetaAddBlocks => "meta-add-blocks",
            OpKind::MetaCommitBlock => "meta-commit-block",
            OpKind::MetaCommitBlocks => "meta-commit-blocks",
            OpKind::MetaRegisterServer => "meta-register-server",
            OpKind::BlockRead => "block-read",
            OpKind::BlockWrite => "block-write",
            OpKind::BlockFree => "block-free",
            OpKind::ActionInvoke => "action-invoke",
            OpKind::ActionHandlerRun => "action-run",
            OpKind::QueueWait => "queue-wait",
            OpKind::WriterFlush => "writer-flush",
            OpKind::ActionStreamRead => "action-stream-read",
            OpKind::ActionStreamWrite => "action-stream-write",
        }
    }

    /// The kind whose stats-table name is `name`, if any.
    pub fn from_name(name: &str) -> Option<OpKind> {
        OpKind::ALL.iter().copied().find(|k| k.name() == name)
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_scheme_is_exhaustive_and_ordered() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
        // Bounds tile the u64 range without gaps.
        for i in 1..HIST_BUCKETS {
            let (lo, _) = bucket_bounds(i);
            let (_, prev_hi) = bucket_bounds(i - 1);
            assert_eq!(lo, prev_hi + 1, "gap before bucket {i}");
        }
        assert_eq!(bucket_bounds(HIST_BUCKETS - 1).1, u64::MAX);
    }

    #[test]
    fn percentiles_of_known_distribution() {
        let h = LogHistogram::new();
        // 90 fast ops (~1us) and 10 slow ones (~1ms).
        for _ in 0..90 {
            h.record(1_000);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        // 1000 lands in [512, 1024), upper bound 1023.
        assert_eq!(s.p50(), 1023);
        assert_eq!(s.p90(), 1023);
        // 1_000_000 lands in [2^19, 2^20), upper bound 2^20 - 1.
        assert_eq!(s.p99(), (1 << 20) - 1);
        assert_eq!(s.max(), (1 << 20) - 1);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let s = LogHistogram::new().snapshot();
        assert!(s.is_empty());
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p999(), 0);
        assert_eq!(s.max(), 0);
    }

    #[test]
    fn reset_clears_buckets() {
        let h = LogHistogram::new();
        h.record(5);
        h.reset();
        assert!(h.snapshot().is_empty());
    }

    #[test]
    fn snapshot_round_trips_through_bucket_counts() {
        let h = LogHistogram::new();
        for v in [0, 1, 7, 1 << 40, u64::MAX] {
            h.record(v);
        }
        let s = h.snapshot();
        let back = HistogramSnapshot::from_bucket_counts(&s.bucket_counts()[..]);
        assert_eq!(back, s);
        // Short inputs zero-pad, long inputs truncate.
        let short = HistogramSnapshot::from_bucket_counts(&[3, 1]);
        assert_eq!(short.count(), 4);
        let long = HistogramSnapshot::from_bucket_counts(&vec![1u64; HIST_BUCKETS + 8]);
        assert_eq!(long.count(), HIST_BUCKETS as u64);
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        // Mirror of the registry's counter test: 4 threads × 10k records
        // must all land.
        let h = LogHistogram::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1_000 + i);
                    }
                });
            }
        });
        assert_eq!(h.snapshot().count(), 40_000);
    }

    #[test]
    fn op_kind_indices_and_names_are_dense_and_unique() {
        let mut names = std::collections::HashSet::new();
        for (i, kind) in OpKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i, "ALL is out of declaration order");
            assert!(names.insert(kind.name()), "duplicate name {}", kind.name());
            assert_eq!(OpKind::from_name(kind.name()), Some(*kind));
        }
        assert_eq!(OpKind::from_name("bogus"), None);
    }

    /// Minimal LCG (Numerical Recipes constants), as in glider-proto's
    /// `batch_fuzz_smoke.rs`; a failing property names its seed.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // The low bits of a power-of-two-modulus LCG have short periods.
            self.0 >> 33
        }

        /// Any `u64`, spread over every magnitude (so every bucket).
        fn any_u64(&mut self) -> u64 {
            let wide = (self.next() << 33) | (self.next() << 2) | (self.next() & 3);
            wide >> (self.next() % 64)
        }

        fn counts(&mut self) -> HistogramSnapshot {
            let counts: Vec<u64> = (0..HIST_BUCKETS).map(|_| self.next() % 1_000_000).collect();
            HistogramSnapshot::from_bucket_counts(&counts)
        }
    }

    /// The boundary values a uniform draw essentially never produces;
    /// they pin the first and last buckets.
    const EDGES: [u64; 4] = [0, 1, u64::MAX - 1, u64::MAX];

    #[test]
    fn recorded_values_land_in_containing_bucket() {
        let mut rng = Lcg(1);
        let seeded = (0..4096).map(|_| rng.any_u64());
        for (case, v) in EDGES.into_iter().chain(seeded).enumerate() {
            let idx = bucket_index(v);
            let (lo, hi) = bucket_bounds(idx);
            assert!(
                lo <= v && v <= hi,
                "case {case}: {v} outside [{lo}, {hi}] (bucket {idx})"
            );
        }
    }

    fn assert_percentiles_monotone(values: &[u64], case: &str) {
        let h = LogHistogram::new();
        for &v in values {
            h.record(v);
        }
        let s = h.snapshot();
        assert!(s.p50() <= s.p90(), "{case}");
        assert!(s.p90() <= s.p99(), "{case}");
        assert!(s.p99() <= s.p999(), "{case}");
        assert!(s.p999() <= s.max(), "{case}");
        // And the quantile estimate never undershoots a true lower bound:
        // max() is the upper bound of the highest occupied bucket.
        let true_max = *values.iter().max().unwrap();
        assert!(s.max() >= true_max, "{case}");
    }

    #[test]
    fn percentiles_are_monotone() {
        assert_percentiles_monotone(&EDGES, "edges");
        assert_percentiles_monotone(&EDGES[..2], "low edges");
        assert_percentiles_monotone(&EDGES[2..], "high edges");
        for seed in 0..256 {
            let mut rng = Lcg(seed);
            let values: Vec<u64> = (0..1 + rng.next() % 199).map(|_| rng.any_u64()).collect();
            assert_percentiles_monotone(&values, &format!("seed {seed}"));
        }
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        for seed in 0..256 {
            let mut rng = Lcg(seed);
            let (a, b, c) = (rng.counts(), rng.counts(), rng.counts());
            // (a + b) + c
            let mut left = a.clone();
            left.merge(&b);
            left.merge(&c);
            // a + (b + c)
            let mut bc = b.clone();
            bc.merge(&c);
            let mut right = a.clone();
            right.merge(&bc);
            assert_eq!(&left, &right, "seed {seed}");
            // b + a == a + b
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            assert_eq!(ab, ba, "seed {seed}");
        }
    }
}
