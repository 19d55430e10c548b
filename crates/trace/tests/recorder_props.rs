//! Property tests for the flight-recorder rings (DESIGN.md §13).
//!
//! The retention contract under arbitrary workloads:
//! - sequence numbers in a snapshot are strictly increasing (merged
//!   churn + pinned view reads in close order);
//! - pinned spans (error, or duration ≥ slow threshold) survive any
//!   amount of fast-span churn up to the pinned ring's own capacity;
//! - the churn ring evicts oldest-first and every eviction is counted,
//!   so `retained + dropped == pushed` always holds.
//!
//! Each property runs as a seeded loop (std-only, so the crate tests
//! offline); a failing case names its seed, and `Lcg(seed)` replays it.

// Shared with glider-wal's property tests; `frac`/`byte` are unused here.
#[allow(dead_code)]
#[path = "../../wal/tests/common/lcg.rs"]
mod lcg;
use glider_trace::{FlightRecorder, SpanRecord};
use lcg::Lcg;
use std::time::Duration;

const SLOW_MS: u64 = 50;
const CASES: u64 = 256;

/// One recorded operation.
#[derive(Debug, Clone)]
struct Op {
    trace_id: u64,
    ms: u64,
    err: bool,
}

/// Trace ids 1..=8, durations 0..=100 ms, one op in five an error.
fn op(rng: &mut Lcg) -> Op {
    Op {
        trace_id: rng.range(1, 9),
        ms: rng.range(0, 101),
        err: rng.range(0, 5) == 0,
    }
}

fn ops(rng: &mut Lcg, lo: u64, hi: u64) -> Vec<Op> {
    (0..rng.range(lo, hi)).map(|_| op(rng)).collect()
}

fn push(rec: &FlightRecorder, op: &Op) {
    rec.push_span(&SpanRecord {
        name: "prop.op",
        trace_id: op.trace_id,
        span_id: op.trace_id * 1000 + op.ms,
        parent_span: 0,
        remote: false,
        duration: Duration::from_millis(op.ms),
        err: op.err,
    });
}

fn is_pinned(op: &Op) -> bool {
    op.err || op.ms >= SLOW_MS
}

#[test]
fn seq_strictly_increasing_and_accounting_balances() {
    for seed in 0..CASES {
        let mut rng = Lcg(seed);
        let ops = ops(&mut rng, 0, 300);
        let span_cap = rng.range(1, 32) as usize;
        let pinned_cap = rng.range(1, 32) as usize;

        let rec = FlightRecorder::with_capacity(span_cap, pinned_cap, 16)
            .with_slow_threshold(Duration::from_millis(SLOW_MS));
        for op in &ops {
            push(&rec, op);
        }
        let snap = rec.snapshot(0, 0);
        // Strictly increasing seq across the merged view.
        assert!(
            snap.spans.windows(2).all(|w| w[0].seq < w[1].seq),
            "seed {seed}"
        );
        // Nothing lost, nothing invented.
        assert_eq!(
            snap.spans.len() as u64 + snap.dropped_spans,
            ops.len() as u64,
            "seed {seed}"
        );
        // Ring bounds hold exactly.
        let pinned = snap.spans.iter().filter(|s| s.pinned).count();
        let fast = snap.spans.len() - pinned;
        assert!(fast <= span_cap && pinned <= pinned_cap, "seed {seed}");
        assert_eq!(
            fast,
            ops.iter().filter(|o| !is_pinned(o)).count().min(span_cap),
            "seed {seed}"
        );
        assert_eq!(
            pinned,
            ops.iter().filter(|o| is_pinned(o)).count().min(pinned_cap),
            "seed {seed}"
        );
    }
}

#[test]
fn pinned_spans_survive_fast_churn() {
    for seed in 0..CASES {
        let mut rng = Lcg(seed);
        let churn = rng.range(1, 500);
        let slow_ms = rng.range(SLOW_MS, 101);
        let err = rng.range(0, 2) == 1;

        let rec = FlightRecorder::with_capacity(2, 64, 16)
            .with_slow_threshold(Duration::from_millis(SLOW_MS));
        push(
            &rec,
            &Op {
                trace_id: 7,
                ms: slow_ms,
                err,
            },
        );
        for _ in 0..churn {
            push(
                &rec,
                &Op {
                    trace_id: 1,
                    ms: 0,
                    err: false,
                },
            );
        }
        let snap = rec.snapshot(7, 0);
        assert_eq!(
            snap.spans.len(),
            1,
            "the interesting span outlives churn (seed {seed})"
        );
        assert!(snap.spans[0].pinned, "seed {seed}");
    }
}

#[test]
fn eviction_is_oldest_first() {
    for seed in 0..CASES {
        let mut rng = Lcg(seed);
        let ops = ops(&mut rng, 1, 200);
        let span_cap = rng.range(1, 16) as usize;

        let rec = FlightRecorder::with_capacity(span_cap, 64, 16)
            .with_slow_threshold(Duration::from_millis(SLOW_MS));
        for op in &ops {
            push(&rec, op);
        }
        let fast_total = ops.iter().filter(|o| !is_pinned(o)).count();
        let snap = rec.snapshot(0, 0);
        let fast: Vec<_> = snap.spans.iter().filter(|s| !s.pinned).collect();
        // The survivors are exactly the newest fast spans, in order: the
        // i-th retained fast span matches the i-th of the last
        // `span_cap` generated fast ops.
        let expect: Vec<&Op> = ops
            .iter()
            .filter(|o| !is_pinned(o))
            .skip(fast_total.saturating_sub(span_cap))
            .collect();
        assert_eq!(fast.len(), expect.len(), "seed {seed}");
        for (got, want) in fast.iter().zip(expect) {
            assert_eq!(got.trace_id, want.trace_id, "seed {seed}");
            assert_eq!(got.duration, Duration::from_millis(want.ms), "seed {seed}");
        }
    }
}

#[test]
fn since_seq_pagination_never_re_reports() {
    for seed in 0..CASES {
        let mut rng = Lcg(seed);
        let ops = ops(&mut rng, 1, 100);

        let rec = FlightRecorder::with_capacity(256, 256, 16)
            .with_slow_threshold(Duration::from_millis(SLOW_MS));
        let mid = ops.len() / 2;
        for op in &ops[..mid] {
            push(&rec, op);
        }
        let first = rec.snapshot(0, 0);
        let cursor = rec.last_seq();
        for op in &ops[mid..] {
            push(&rec, op);
        }
        let second = rec.snapshot(0, cursor);
        assert!(second.spans.iter().all(|s| s.seq > cursor), "seed {seed}");
        assert_eq!(
            first.spans.len() + second.spans.len(),
            ops.len(),
            "seed {seed}"
        );
    }
}
