//! The flight recorder: always-on, bounded retention of completed spans
//! and structured fault events (DESIGN.md §13).
//!
//! Every process keeps one [`FlightRecorder`] (installed via
//! [`crate::install_recorder`]); the `DumpSpans` RPC snapshots it over
//! the wire so a trace can be reassembled across processes after the
//! fact — a flight recorder, not a firehose.
//!
//! Retention is **tail-based**: the interesting spans of a workload are
//! the slow ones and the failed ones, and those are exactly the spans a
//! fixed-size FIFO would age out first under load. So the recorder keeps
//! two rings — a churn ring for ordinary spans and a pinned ring for
//! spans that closed over the slow threshold or with the error flag set.
//! Both rings are bounded; eviction counts are kept so a dump can say
//! how much history it lost.

use crate::SpanRecord;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// Default capacity of the churn ring (ordinary completed spans).
pub const DEFAULT_SPAN_CAPACITY: usize = 4096;
/// Default capacity of the pinned ring (slow / error spans).
pub const DEFAULT_PINNED_CAPACITY: usize = 1024;
/// Default capacity of the structured event log.
pub const DEFAULT_EVENT_CAPACITY: usize = 1024;
/// Default slow-span pin threshold, overridable per recorder and via
/// `GLIDER_SLOW_OP_MS` (see [`slow_op_threshold`]).
pub const DEFAULT_SLOW: Duration = Duration::from_millis(100);

/// Parses a `GLIDER_SLOW_OP_MS` value: a whole number of milliseconds,
/// where `0` means "off". Anything else (including the empty string)
/// is `None`, which callers treat like an unset variable.
pub fn parse_slow_op_ms(value: &str) -> Option<Duration> {
    value.trim().parse().ok().map(Duration::from_millis)
}

/// The process-wide slow-op threshold, read from `GLIDER_SLOW_OP_MS`
/// once. It is the single knob behind both slow-span pinning here and
/// the metrics slow-op reporter: unset (or unparsable) is `None` — the
/// recorder pins at its 100ms default and metrics reports nothing —
/// `0` switches both off, `N` sets both to `N` ms.
pub fn slow_op_threshold() -> Option<Duration> {
    static THRESHOLD: OnceLock<Option<Duration>> = OnceLock::new();
    *THRESHOLD.get_or_init(|| parse_slow_op_ms(&std::env::var("GLIDER_SLOW_OP_MS").ok()?))
}

/// One retained span, as kept by (and dumped from) the recorder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletedSpan {
    /// Monotonic per-recorder sequence number, assigned at close.
    pub seq: u64,
    /// The span's static name (e.g. `rpc.dispatch`).
    pub name: &'static str,
    /// The trace this span belongs to.
    pub trace_id: u64,
    /// This span's id.
    pub span_id: u64,
    /// The parent span's id; 0 for roots and remote continuations.
    pub parent_span: u64,
    /// True when the parent span lives in another process.
    pub remote: bool,
    /// Wall-clock duration of the span.
    pub duration: Duration,
    /// True when the span closed with [`crate::Span::set_error`] set.
    pub err: bool,
    /// True when retention pinned this span (slow or error).
    pub pinned: bool,
}

/// One structured fault event: a retry, a reconnect, a server-liveness
/// transition, pool/credit exhaustion. Fields that do not apply to a
/// given kind are empty / zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructuredEvent {
    /// Monotonic per-recorder sequence number (shared with spans).
    pub seq: u64,
    /// The event kind (e.g. `rpc.retry`, `server.liveness`).
    pub kind: String,
    /// The operation or transition the event describes.
    pub op: String,
    /// The server address involved, when known.
    pub addr: String,
    /// The attempt number, for retry/reconnect kinds.
    pub attempt: u64,
    /// The trace the event belongs to (0 when untraced).
    pub trace_id: u64,
}

/// A consistent view of the recorder, as served by `DumpSpans`.
#[derive(Debug, Clone, Default)]
pub struct RecorderSnapshot {
    /// Retained spans, in ascending `seq` order.
    pub spans: Vec<CompletedSpan>,
    /// Retained structured events, in ascending `seq` order.
    pub events: Vec<StructuredEvent>,
    /// Spans evicted (aged out of either ring) since recorder creation.
    pub dropped_spans: u64,
    /// Events evicted from the event log since recorder creation.
    pub dropped_events: u64,
}

/// Bounded in-memory retention of completed spans and fault events.
///
/// Pushes take one short per-ring mutex; the no-recorder hot path in
/// [`crate::tracing_enabled`] stays a single relaxed atomic load.
#[derive(Debug)]
pub struct FlightRecorder {
    seq: AtomicU64,
    slow: Duration,
    /// Span-name / event-kind prefixes echoed to stderr as they are
    /// recorded (`GLIDER_TRACE`); `None` echoes nothing, empty everything.
    echo: Option<Vec<String>>,
    dropped_spans: AtomicU64,
    dropped_events: AtomicU64,
    span_cap: usize,
    pinned_cap: usize,
    event_cap: usize,
    recent: Mutex<VecDeque<CompletedSpan>>,
    pinned: Mutex<VecDeque<CompletedSpan>>,
    events: Mutex<VecDeque<StructuredEvent>>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new()
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panic mid-push must not poison retention for the process.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl FlightRecorder {
    /// A recorder with default capacities, pinning spans at or over
    /// [`slow_op_threshold`] (100ms when that is unset).
    pub fn new() -> FlightRecorder {
        FlightRecorder::with_capacity(
            DEFAULT_SPAN_CAPACITY,
            DEFAULT_PINNED_CAPACITY,
            DEFAULT_EVENT_CAPACITY,
        )
        .with_slow_threshold(slow_op_threshold().unwrap_or(DEFAULT_SLOW))
    }

    /// A recorder with explicit ring capacities (each clamped to ≥ 1).
    pub fn with_capacity(span_cap: usize, pinned_cap: usize, event_cap: usize) -> FlightRecorder {
        FlightRecorder {
            seq: AtomicU64::new(1),
            slow: DEFAULT_SLOW,
            echo: None,
            dropped_spans: AtomicU64::new(0),
            dropped_events: AtomicU64::new(0),
            span_cap: span_cap.max(1),
            pinned_cap: pinned_cap.max(1),
            event_cap: event_cap.max(1),
            recent: Mutex::new(VecDeque::new()),
            pinned: Mutex::new(VecDeque::new()),
            events: Mutex::new(VecDeque::new()),
        }
    }

    /// Sets the slow-span pin threshold; spans at or over it are pinned.
    /// Zero disables slow pinning (error spans stay pinned).
    pub fn with_slow_threshold(mut self, threshold: Duration) -> FlightRecorder {
        self.slow = threshold;
        self
    }

    /// Also prints every span and event whose name starts with one of
    /// `prefixes` (all of them when empty) to stderr as it is recorded.
    pub(crate) fn with_echo(mut self, prefixes: Vec<String>) -> FlightRecorder {
        self.echo = Some(prefixes);
        self
    }

    fn echoes(&self, name: &str) -> bool {
        self.echo
            .as_ref()
            .is_some_and(|p| p.is_empty() || p.iter().any(|p| name.starts_with(p.as_str())))
    }

    /// Records one closed span, deciding its retention class.
    pub fn push_span(&self, record: &SpanRecord) {
        if self.echoes(record.name) {
            eprintln!(
                "[trace {:016x}] {} span={:016x} parent={:016x}{} {:?}",
                record.trace_id,
                record.name,
                record.span_id,
                record.parent_span,
                if record.remote { " remote" } else { "" },
                record.duration,
            );
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let pinned = record.err || (!self.slow.is_zero() && record.duration >= self.slow);
        let span = CompletedSpan {
            seq,
            name: record.name,
            trace_id: record.trace_id,
            span_id: record.span_id,
            parent_span: record.parent_span,
            remote: record.remote,
            duration: record.duration,
            err: record.err,
            pinned,
        };
        let (ring, cap) = if pinned {
            (&self.pinned, self.pinned_cap)
        } else {
            (&self.recent, self.span_cap)
        };
        let mut guard = lock(ring);
        guard.push_back(span);
        if guard.len() > cap {
            guard.pop_front();
            self.dropped_spans.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Appends one structured event to the bounded event log.
    pub fn record_event(&self, kind: &str, op: &str, addr: &str, attempt: u64, trace_id: u64) {
        if self.echoes(kind) {
            eprintln!("[trace {trace_id:016x}] {kind}: op={op} addr={addr} attempt={attempt}");
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let ev = StructuredEvent {
            seq,
            kind: kind.to_string(),
            op: op.to_string(),
            addr: addr.to_string(),
            attempt,
            trace_id,
        };
        let mut guard = lock(&self.events);
        guard.push_back(ev);
        if guard.len() > self.event_cap {
            guard.pop_front();
            self.dropped_events.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Snapshots retained spans and events, optionally filtered.
    ///
    /// `trace_id` 0 matches everything; otherwise only that trace's
    /// spans/events are returned. `since_seq` keeps only records with
    /// `seq > since_seq` (0 = from the beginning). Results are sorted by
    /// `seq`, so merged churn + pinned output reads in close order.
    pub fn snapshot(&self, trace_id: u64, since_seq: u64) -> RecorderSnapshot {
        let keep_span =
            |s: &&CompletedSpan| s.seq > since_seq && (trace_id == 0 || s.trace_id == trace_id);
        let mut spans: Vec<CompletedSpan> = lock(&self.recent)
            .iter()
            .filter(keep_span)
            .cloned()
            .collect();
        spans.extend(lock(&self.pinned).iter().filter(keep_span).cloned());
        spans.sort_by_key(|s| s.seq);
        let events: Vec<StructuredEvent> = lock(&self.events)
            .iter()
            .filter(|e| e.seq > since_seq && (trace_id == 0 || e.trace_id == trace_id))
            .cloned()
            .collect();
        RecorderSnapshot {
            spans,
            events,
            dropped_spans: self.dropped_spans.load(Ordering::Relaxed),
            dropped_events: self.dropped_events.load(Ordering::Relaxed),
        }
    }

    /// The highest sequence number assigned so far (0 = nothing yet);
    /// feed it back as `since_seq` for incremental dumps.
    pub fn last_seq(&self) -> u64 {
        self.seq.load(Ordering::Relaxed).saturating_sub(1)
    }

    /// Empties both span rings and the event log (tests, long-lived
    /// tools). Eviction counters keep running.
    pub fn clear(&self) {
        lock(&self.recent).clear();
        lock(&self.pinned).clear();
        lock(&self.events).clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(name: &'static str, trace_id: u64, ms: u64, err: bool) -> SpanRecord {
        SpanRecord {
            name,
            trace_id,
            span_id: crate::next_id(),
            parent_span: 0,
            remote: false,
            duration: Duration::from_millis(ms),
            err,
        }
    }

    #[test]
    fn fast_spans_age_out_fifo() {
        let rec =
            FlightRecorder::with_capacity(4, 4, 4).with_slow_threshold(Duration::from_secs(1));
        for i in 0..10u64 {
            rec.push_span(&record("t.op", i + 1, 0, false));
        }
        let snap = rec.snapshot(0, 0);
        assert_eq!(snap.spans.len(), 4);
        assert_eq!(snap.dropped_spans, 6);
        // The survivors are the newest four, in seq order.
        let traces: Vec<u64> = snap.spans.iter().map(|s| s.trace_id).collect();
        assert_eq!(traces, vec![7, 8, 9, 10]);
        let seqs: Vec<u64> = snap.spans.iter().map(|s| s.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted);
    }

    #[test]
    fn slow_and_error_spans_survive_churn() {
        let rec =
            FlightRecorder::with_capacity(2, 8, 4).with_slow_threshold(Duration::from_millis(50));
        rec.push_span(&record("t.slow", 1, 60, false));
        rec.push_span(&record("t.err", 2, 0, true));
        for i in 0..100u64 {
            rec.push_span(&record("t.fast", 10 + i, 0, false));
        }
        let snap = rec.snapshot(0, 0);
        assert!(snap.spans.iter().any(|s| s.name == "t.slow" && s.pinned));
        assert!(snap
            .spans
            .iter()
            .any(|s| s.name == "t.err" && s.pinned && s.err));
        // The churn ring still holds only its capacity of fast spans.
        assert_eq!(snap.spans.iter().filter(|s| !s.pinned).count(), 2);
    }

    #[test]
    fn snapshot_filters_by_trace_and_seq() {
        let rec = FlightRecorder::with_capacity(16, 16, 16);
        rec.push_span(&record("t.a", 7, 0, false));
        rec.push_span(&record("t.b", 8, 0, false));
        rec.record_event("t.ev", "op", "addr", 3, 7);
        let by_trace = rec.snapshot(7, 0);
        assert_eq!(by_trace.spans.len(), 1);
        assert_eq!(by_trace.spans[0].name, "t.a");
        assert_eq!(by_trace.events.len(), 1);
        let cutoff = by_trace.spans[0].seq;
        let later = rec.snapshot(0, cutoff);
        assert!(later.spans.iter().all(|s| s.seq > cutoff));
        assert_eq!(later.spans.len(), 1);
        assert_eq!(later.spans[0].name, "t.b");
    }

    #[test]
    fn event_log_is_bounded_and_counts_drops() {
        let rec = FlightRecorder::with_capacity(4, 4, 3);
        for i in 0..10u64 {
            rec.record_event("t.retry", "lookup-node", "mem://m", i, 0);
        }
        let snap = rec.snapshot(0, 0);
        assert_eq!(snap.events.len(), 3);
        assert_eq!(snap.dropped_events, 7);
        assert_eq!(snap.events.last().unwrap().attempt, 9);
    }

    #[test]
    fn echo_filter_matches_name_prefixes() {
        let rec = || FlightRecorder::with_capacity(4, 4, 4);
        assert!(!rec().echoes("rpc.dispatch"), "no echo unless asked for");
        assert!(rec().with_echo(vec![]).echoes("anything"), "empty = all");
        let some = rec().with_echo(vec!["rpc".into(), "action".into()]);
        assert!(some.echoes("rpc.dispatch"));
        assert!(some.echoes("action.queue"));
        assert!(!some.echoes("meta.handle"));
    }

    #[test]
    fn slow_op_ms_is_whole_milliseconds_or_unset() {
        let ms = |n| Some(Duration::from_millis(n));
        // Unparsable means `None`, which is also what an unset variable gives.
        for (value, want) in [("", None), ("fast", None), ("0", ms(0)), (" 250 ", ms(250))] {
            assert_eq!(parse_slow_op_ms(value), want, "GLIDER_SLOW_OP_MS={value:?}");
        }
    }

    #[test]
    fn zero_threshold_pins_errors_but_not_slow_spans() {
        let rec = FlightRecorder::with_capacity(4, 4, 4).with_slow_threshold(Duration::ZERO);
        rec.push_span(&record("t.ten-seconds", 1, 10_000, false));
        rec.push_span(&record("t.err", 2, 0, true));
        let spans = rec.snapshot(0, 0).spans;
        assert!(!spans[0].pinned, "0 switches slow pinning off");
        assert!(spans[1].pinned, "error spans stay pinned");
    }
}
