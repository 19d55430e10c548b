//! Property tests for the flight-recorder rings (DESIGN.md §13).
//!
//! The retention contract under arbitrary workloads:
//! - sequence numbers in a snapshot are strictly increasing (merged
//!   churn + pinned view reads in close order);
//! - pinned spans (error, or duration ≥ slow threshold) survive any
//!   amount of fast-span churn up to the pinned ring's own capacity;
//! - the churn ring evicts oldest-first and every eviction is counted,
//!   so `retained + dropped == pushed` always holds;
//! - the last two hold under concurrent closers too: the recorder keeps
//!   exactly the newest seqs, whichever thread or shard pushed them;
//! - seqs follow close order across shards: a span pushed after another
//!   push returned gets the higher seq, and an idle shard's old spans
//!   age out before a busy shard's newer ones.
//!
//! Each property runs as a seeded loop (std-only, so the crate tests
//! offline); a failing case names its seed, and `Lcg(seed)` replays it.

use glider_sim::Lcg;
use glider_trace::{FlightRecorder, SpanRecord};
use std::sync::{mpsc, Barrier};
use std::time::Duration;

const SLOW_MS: u64 = 50;
const CASES: u64 = 256;
/// A fast, error-free span: churn.
const FAST: Op = Op {
    trace_id: 1,
    ms: 0,
    err: false,
};

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

/// Closers racing into small recorders leave exactly the newest `cap`
/// seqs behind: eviction is FIFO by seq, not by who reached a lock
/// first. Every recorder starts its threads at one barrier so their
/// pushes overlap, and the last case runs more threads than cores so a
/// closer can be preempted between any two steps of a push.
#[test]
fn racing_closers_retain_exactly_the_newest_seqs() {
    const RECORDERS: usize = 20_000;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    for (seed, threads) in [2, 3, 4, cores + 1].into_iter().enumerate() {
        let mut rng = Lcg(seed as u64);
        let cap = rng.range(1, 9);
        let per_thread = rng.range(cap, 2 * cap + 1);
        let recs: Vec<FlightRecorder> = (0..RECORDERS)
            .map(|_| FlightRecorder::with_capacity(cap as usize, cap as usize, 1))
            .collect();
        let start = Barrier::new(threads);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for rec in &recs {
                        start.wait();
                        for _ in 0..per_thread {
                            push(rec, &FAST);
                        }
                    }
                });
            }
        });
        let pushed = threads as u64 * per_thread;
        let newest: Vec<u64> = (pushed - cap + 1..=pushed).collect();
        for (i, rec) in recs.iter().enumerate() {
            let snap = rec.snapshot(0, 0);
            let seqs: Vec<u64> = snap.spans.iter().map(|s| s.seq).collect();
            let at = format!("seed {seed}, {threads} threads, recorder {i}");
            assert_eq!(rec.last_seq(), pushed, "{at}");
            assert_eq!(seqs, newest, "{at}");
            assert_eq!(seqs.len() as u64 + snap.dropped_spans, pushed, "{at}");
        }
    }
}

/// Pinned spans closed on one thread outlive any churn other threads
/// push, on their own shards, into the same recorder.
#[test]
fn pinned_spans_survive_churn_from_other_threads() {
    for seed in 0..8 {
        let mut rng = Lcg(seed);
        let pins = rng.range(1, 9);
        let churners = rng.range(1, 4) as usize;
        let rec = FlightRecorder::with_capacity(2, 8, 16)
            .with_slow_threshold(Duration::from_millis(SLOW_MS));
        let start = Barrier::new(churners + 1);
        std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                // Error spans and slow spans, alternately.
                for i in 0..pins {
                    let ms = SLOW_MS * (i % 2);
                    let err = ms == 0;
                    push(
                        &rec,
                        &Op {
                            trace_id: 7,
                            ms,
                            err,
                        },
                    );
                }
            });
            for _ in 0..churners {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..5_000 {
                        push(&rec, &FAST);
                    }
                });
            }
        });
        let snap = rec.snapshot(0, 0);
        let kept = snap.spans.iter().filter(|s| s.trace_id == 7).count();
        assert_eq!(kept as u64, pins, "seed {seed}");
        assert!(
            snap.spans.iter().all(|s| s.pinned == (s.trace_id == 7)),
            "seed {seed}"
        );
        assert_eq!(snap.spans.len() as u64 - pins, 2, "seed {seed}");
    }
}

/// A cursor from `last_seq` splits the spans in two, whether the second
/// half comes from the same thread or from another one on another
/// shard: the second page holds exactly the second half, in order.
#[test]
fn since_seq_pagination_never_re_reports() {
    for seed in 0..CASES {
        for other_thread in [false, true] {
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
            let second_half = || ops[mid..].iter().for_each(|op| push(&rec, op));
            if other_thread {
                std::thread::scope(|s| {
                    s.spawn(second_half);
                });
            } else {
                second_half();
            }
            let second = rec.snapshot(0, cursor);
            let at = format!("seed {seed}, other thread {other_thread}");
            assert!(second.spans.iter().all(|s| s.seq > cursor), "{at}");
            assert_eq!(first.spans.len() + second.spans.len(), ops.len(), "{at}");
            let traces: Vec<u64> = second.spans.iter().map(|s| s.trace_id).collect();
            let want: Vec<u64> = ops[mid..].iter().map(|o| o.trace_id).collect();
            assert_eq!(traces, want, "{at}");
        }
    }
}

/// Two threads, each on its own shard, take turns pushing: a turn
/// starts when the other thread's turn has returned (a channel hands it
/// over), so its spans must outnumber every span of an earlier turn,
/// whichever shard is numbered first. Some turns end with a
/// `last_seq` read, so numbered and pending spans mix.
#[test]
fn a_later_turn_on_another_shard_gets_higher_seqs() {
    for seed in 0..32 {
        let mut rng = Lcg(seed);
        let turns: Vec<(u64, bool)> = (0..rng.range(2, 9))
            .map(|_| (rng.range(1, 40), rng.range(0, 3) == 0))
            .collect();
        let rec = FlightRecorder::with_capacity(1 << 10, 1, 1);
        let (to_a, inbox_a) = mpsc::channel();
        let (to_b, inbox_b) = mpsc::channel();
        to_a.send(0).unwrap();
        // Runs every turn handed over until the last, then hands on.
        let take_turns = |inbox: mpsc::Receiver<usize>, next: mpsc::Sender<usize>| {
            for turn in inbox {
                let Some(&(spans, read)) = turns.get(turn) else {
                    break;
                };
                let op = Op {
                    trace_id: turn as u64,
                    ms: 0,
                    err: false,
                };
                (0..spans).for_each(|_| push(&rec, &op));
                if read {
                    rec.last_seq();
                }
                if next.send(turn + 1).is_err() {
                    break;
                }
            }
        };
        std::thread::scope(|s| {
            s.spawn(|| take_turns(inbox_a, to_b));
            s.spawn(|| take_turns(inbox_b, to_a));
        });
        let pushed: u64 = turns.iter().map(|&(spans, _)| spans).sum();
        let snap = rec.snapshot(0, 0);
        let order: Vec<u64> = snap.spans.iter().map(|s| s.trace_id).collect();
        let want: Vec<u64> = (0..turns.len() as u64)
            .flat_map(|turn| std::iter::repeat_n(turn, turns[turn as usize].0 as usize))
            .collect();
        assert_eq!(order, want, "seed {seed}: seq order is turn order");
        assert_eq!(rec.last_seq(), pushed, "seed {seed}");
    }
}

/// With a small `span_cap`, the spans an idle shard holds lose to the
/// newer spans a busy shard pushes later, even when the idle shard
/// pushed more of them: retention goes by close time, not by count.
#[test]
fn an_idle_shard_loses_its_old_spans_to_a_busy_shards_new_ones() {
    for seed in 0..32 {
        let mut rng = Lcg(seed);
        let cap = rng.range(1, 9);
        let old = rng.range(1, 4 * cap);
        let new = rng.range(cap, 2 * cap + 1);
        let rec = FlightRecorder::with_capacity(cap as usize, cap as usize, 1);
        // Each burst on a thread (and so a shard) of its own, one after
        // the other.
        let burst = |trace_id, spans| {
            std::thread::scope(|s| {
                s.spawn(|| {
                    let op = Op {
                        trace_id,
                        ms: 0,
                        err: false,
                    };
                    (0..spans).for_each(|_| push(&rec, &op));
                });
            })
        };
        burst(1, old);
        burst(2, new);
        let snap = rec.snapshot(0, 0);
        let at = format!("seed {seed}: cap {cap}, {old} old, {new} new");
        assert!(snap.spans.iter().all(|s| s.trace_id == 2), "{at}");
        let seqs: Vec<u64> = snap.spans.iter().map(|s| s.seq).collect();
        let newest: Vec<u64> = (old + new - cap + 1..=old + new).collect();
        assert_eq!(seqs, newest, "{at}");
        assert_eq!(snap.dropped_spans, old + new - cap, "{at}");
    }
}
