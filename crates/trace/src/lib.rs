//! Request tracing spans for Glider, with zero dependencies.
//!
//! This crate is a small, self-contained stand-in for the `tracing`
//! facade (the workspace builds in hermetic environments where external
//! crates are unavailable), shaped after the same concepts:
//!
//! - a [`Span`] measures one named unit of work and carries a
//!   [`SpanContext`] — a `(trace_id, span_id)` pair. The trace id is
//!   minted once at the root of a request and propagated across process
//!   boundaries in the RPC header, so every hop of one client operation
//!   shares it.
//! - there is one sink: the process-global [`FlightRecorder`]. While
//!   none is installed (the default), spans skip timing entirely:
//!   creating and dropping one costs a single relaxed atomic load plus
//!   the id arithmetic needed to keep wire trace ids flowing.
//! - [`init_from_env`] installs a recorder that also echoes to stderr
//!   when `GLIDER_TRACE` asks for it: off by default, `all` to echo
//!   everything, or a comma-separated list of span-name prefixes
//!   (`rpc,action` echoes the RPC layer and the action runtime). The
//!   prefixes select what is echoed; the recorder keeps every span.
//!
//! The span hierarchy Glider emits for one client call is documented in
//! DESIGN.md §Observability:
//!
//! ```text
//! client.call                 (root, client process)
//! └── rpc.dispatch            (remote: same trace id, new process)
//!     └── <server>.handle     (meta.handle / data.handle / active.handle)
//!         └── action.queue    (time spent waiting in the mailbox)
//!             └── action.run  (the handler method itself)
//! ```

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

mod recorder;

pub use recorder::{
    parse_slow_op_ms, slow_op_threshold, CompletedSpan, FlightRecorder, StructuredEvent,
};

// ---------------------------------------------------------------------------
// Ids and context
// ---------------------------------------------------------------------------

/// The identity of a span: which trace it belongs to and which span it is.
///
/// A zero `trace_id` means "no trace" ([`SpanContext::NONE`]); real ids
/// are never zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanContext {
    /// Shared by every span of one end-to-end request.
    pub trace_id: u64,
    /// Unique per span (within a process run).
    pub span_id: u64,
}

impl SpanContext {
    /// The absent context: no trace, no span.
    pub const NONE: SpanContext = SpanContext {
        trace_id: 0,
        span_id: 0,
    };

    /// True when this is [`SpanContext::NONE`].
    pub fn is_none(&self) -> bool {
        self.trace_id == 0
    }
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// SplitMix64: decorrelates the sequential counter so ids look random
/// without any external RNG.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A fresh non-zero trace/span id.
pub fn next_id() -> u64 {
    loop {
        let id = mix(NEXT_ID.fetch_add(1, Ordering::Relaxed));
        if id != 0 {
            return id;
        }
    }
}

// ---------------------------------------------------------------------------
// The sink
// ---------------------------------------------------------------------------

/// A closed span, as handed to [`FlightRecorder::push_span`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The span's static name (e.g. `rpc.dispatch`).
    pub name: &'static str,
    /// The trace this span belongs to.
    pub trace_id: u64,
    /// This span's id.
    pub span_id: u64,
    /// The parent span's id; 0 for roots and remote continuations.
    pub parent_span: u64,
    /// True when the span continues a trace that crossed a process (or
    /// connection) boundary, so its parent span lives elsewhere.
    pub remote: bool,
    /// Wall-clock time between span creation and drop.
    pub duration: Duration,
    /// True when the unit of work failed ([`Span::set_error`]); the
    /// flight recorder pins error spans so they survive ring churn.
    pub err: bool,
}

/// The hot-path gate: true exactly while `RECORDER` holds a recorder.
/// Stored only under the slot's write lock, so flag and slot cannot
/// disagree once a setter returns; the lock, not the flag, publishes the
/// recorder, so loads of the flag are relaxed. A poisoned lock is
/// recovered: the slot is one `Option` assignment, valid at every step.
static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDER: RwLock<Option<Arc<FlightRecorder>>> = RwLock::new(None);

/// Installs (or, with `None`, removes) the process-global flight
/// recorder. Later installations replace earlier ones; spans created
/// before the switch report to whatever is installed when they *close*.
/// While a recorder is installed every span is timed and recorded.
pub fn set_recorder(rec: Option<Arc<FlightRecorder>>) {
    let mut slot = RECORDER.write().unwrap_or_else(|e| e.into_inner());
    ENABLED.store(rec.is_some(), Ordering::Release);
    *slot = rec;
}

/// Returns the installed flight recorder, installing a fresh
/// default-capacity one when none is present. Server processes call this
/// at startup so the recorder is always-on; a second server starting in
/// the same process (the in-process cluster) shares the first one.
pub fn install_recorder() -> Arc<FlightRecorder> {
    let mut slot = RECORDER.write().unwrap_or_else(|e| e.into_inner());
    let rec = Arc::clone(slot.get_or_insert_with(|| Arc::new(FlightRecorder::new())));
    ENABLED.store(true, Ordering::Release);
    rec
}

/// Runs `f` on the installed recorder, if any, under the slot's read
/// lock: no `Arc` clone, and the only mutex taken is the ring's inside
/// `f`. The recorder never calls back into this module, so the read
/// lock is never re-entered. Lock-free while no recorder is installed.
fn with_recorder(f: impl FnOnce(&Arc<FlightRecorder>)) {
    if !tracing_enabled() {
        return;
    }
    if let Some(rec) = &*RECORDER.read().unwrap_or_else(|e| e.into_inner()) {
        f(rec);
    }
}

/// The installed flight recorder, if any.
pub fn recorder() -> Option<Arc<FlightRecorder>> {
    let mut found = None;
    with_recorder(|rec| found = Some(Arc::clone(rec)));
    found
}

/// True when a recorder is installed (one relaxed atomic load; the
/// hot-path check).
pub fn tracing_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Emits a structured event — retries, reconnects, liveness transitions,
/// pool/credit exhaustion, slow-op reports — into the flight recorder's
/// bounded event log. Fields that do not apply may be empty / zero.
/// Costs one relaxed atomic load when no recorder is installed.
pub fn structured_event(kind: &'static str, op: &str, addr: &str, attempt: u64, trace_id: u64) {
    with_recorder(|rec| rec.record_event(kind, op, addr, attempt, trace_id));
}

// ---------------------------------------------------------------------------
// Span
// ---------------------------------------------------------------------------

/// A named unit of work; reports its duration to the recorder on drop.
///
/// Spans always carry real ids (so trace ids can propagate on the wire
/// even while tracing is off) but only start a timer — and only report
/// on drop — when a recorder was installed at creation time.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    ctx: SpanContext,
    parent_span: u64,
    remote: bool,
    start: Option<Instant>,
    err: Cell<bool>,
}

impl Span {
    /// A span with a fresh span id in trace `trace_id`.
    fn new(name: &'static str, trace_id: u64, parent_span: u64, remote: bool) -> Span {
        let span_id = next_id();
        Span {
            name,
            ctx: SpanContext { trace_id, span_id },
            parent_span,
            remote,
            start: tracing_enabled().then(Instant::now),
            err: Cell::new(false),
        }
    }

    /// Starts a new trace: fresh trace id, no parent.
    pub fn root(name: &'static str) -> Span {
        Span::new(name, next_id(), 0, false)
    }

    /// Continues a trace that arrived over the wire. The parent span ran
    /// in another process, so the record is marked `remote` with no local
    /// parent. A zero `trace_id` (untraced peer) starts a fresh trace.
    pub fn remote(name: &'static str, trace_id: u64) -> Span {
        if trace_id == 0 {
            return Span::root(name);
        }
        Span::new(name, trace_id, 0, true)
    }

    /// A child span within the same process. With a [`SpanContext::NONE`]
    /// parent this degenerates to a fresh root.
    pub fn child_of(parent: SpanContext, name: &'static str) -> Span {
        if parent.is_none() {
            return Span::root(name);
        }
        Span::new(name, parent.trace_id, parent.span_id, false)
    }

    /// An inert span: no ids, no timing, nothing reported on drop.
    pub fn none() -> Span {
        Span {
            name: "",
            ctx: SpanContext::NONE,
            parent_span: 0,
            remote: false,
            start: None,
            err: Cell::new(false),
        }
    }

    /// Marks this span as failed: the flight recorder's tail-based
    /// retention pins error spans so they survive ring churn.
    pub fn set_error(&self) {
        self.err.set(true);
    }

    /// This span's context, for building children or wire propagation.
    pub fn context(&self) -> SpanContext {
        self.ctx
    }

    /// The trace id to propagate on the wire.
    pub fn trace_id(&self) -> u64 {
        self.ctx.trace_id
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else {
            return;
        };
        let record = SpanRecord {
            name: self.name,
            trace_id: self.ctx.trace_id,
            span_id: self.ctx.span_id,
            parent_span: self.parent_span,
            remote: self.remote,
            duration: start.elapsed(),
            err: self.err.get(),
        };
        with_recorder(|rec| rec.push_span(&record));
    }
}

/// Parses a `GLIDER_TRACE` value: `None` when tracing should stay off,
/// otherwise the span-name prefixes to echo (empty = everything).
fn parse_filter(value: &str) -> Option<Vec<String>> {
    match value.trim() {
        "" | "0" | "off" | "none" => None,
        "1" | "all" => Some(Vec::new()),
        list => Some(
            list.split(',')
                .map(|p| p.trim().to_string())
                .filter(|p| !p.is_empty())
                .collect(),
        ),
    }
}

/// Installs a stderr-echoing [`FlightRecorder`] when `GLIDER_TRACE`
/// enables tracing (a server started afterwards shares it through
/// [`install_recorder`]); leaves tracing off otherwise. Returns whether
/// a recorder was installed.
pub fn init_from_env() -> bool {
    let value = std::env::var("GLIDER_TRACE").unwrap_or_default();
    match parse_filter(&value) {
        Some(prefixes) => {
            set_recorder(Some(Arc::new(FlightRecorder::new().with_echo(prefixes))));
            true
        }
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // The recorder slot is process-global, so tests that install one
    // must not run concurrently with each other.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Runs `work` with a fresh recorder installed; returns the recorder,
    /// uninstalled again.
    fn recorded(work: impl FnOnce()) -> Arc<FlightRecorder> {
        let rec = Arc::new(FlightRecorder::with_capacity(64, 64, 64));
        set_recorder(Some(Arc::clone(&rec)));
        work();
        set_recorder(None);
        rec
    }

    #[test]
    fn ids_are_unique_and_nonzero() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let id = next_id();
            assert_ne!(id, 0);
            assert!(seen.insert(id), "duplicate id {id}");
        }
    }

    #[test]
    fn disabled_spans_report_nothing() {
        let _guard = serial();
        set_recorder(None);
        let root = Span::root("t.root");
        assert_ne!(root.trace_id(), 0, "ids flow even when tracing is off");
        // Installing after the fact must not resurrect the untimed span.
        let rec = recorded(|| drop(root));
        assert_eq!(rec.last_seq(), 0);
    }

    #[test]
    fn disabled_capture_is_one_flag_load() {
        let _guard = serial();
        set_recorder(None);
        // The acceptance bar for always-on tracing: with no recorder
        // installed, span capture costs one atomic flag load. Everything
        // downstream of that load must be skipped — observable as: no
        // timer is ever started (so drop returns before touching the
        // slot), and structured events return at the same flag.
        assert!(!tracing_enabled());
        let span = Span::root("t.cold");
        assert!(
            span.start.is_none(),
            "disabled spans must not even read the clock"
        );
        drop(span);
        structured_event("t.cold.event", "op", "addr", 1, 7);
        // Nothing was buffered anywhere: a recorder installed afterwards
        // starts empty.
        let rec = install_recorder();
        let snap = rec.snapshot(0, 0);
        assert!(snap.spans.is_empty() && snap.events.is_empty());
        set_recorder(None);
    }

    #[test]
    fn span_tree_links_parents_and_trace() {
        let _guard = serial();
        let mut trace = 0;
        let rec = recorded(|| {
            let root = Span::root("t.a");
            let child = Span::child_of(root.context(), "t.b");
            drop(Span::child_of(child.context(), "t.c"));
            trace = root.trace_id();
        });
        let spans = rec.snapshot(0, 0).spans;
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.trace_id == trace));
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        assert_eq!(by_name("t.a").parent_span, 0);
        assert_eq!(by_name("t.b").parent_span, by_name("t.a").span_id);
        assert_eq!(by_name("t.c").parent_span, by_name("t.b").span_id);
    }

    #[test]
    fn remote_spans_continue_the_wire_trace() {
        let _guard = serial();
        let rec = recorded(|| {
            drop(Span::remote("t.remote", 42));
            drop(Span::remote("t.fresh", 0));
        });
        let spans = rec.snapshot(0, 0).spans;
        assert_eq!((spans[0].name, spans[0].trace_id), ("t.remote", 42));
        assert!(spans[0].remote);
        assert_eq!(spans[1].name, "t.fresh");
        assert_ne!(spans[1].trace_id, 0);
        assert!(!spans[1].remote);
    }

    #[test]
    fn none_spans_are_inert() {
        let _guard = serial();
        let rec = recorded(|| {
            let span = Span::none();
            assert!(span.context().is_none());
            drop(span);
            // child_of(NONE) becomes a root.
            let orphan = Span::child_of(SpanContext::NONE, "t.orphan");
            assert_ne!(orphan.trace_id(), 0);
        });
        let spans = rec.snapshot(0, 0).spans;
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "t.orphan");
        assert_eq!(spans[0].parent_span, 0);
    }

    #[test]
    fn events_reach_the_recorder() {
        let _guard = serial();
        let rec = recorded(|| structured_event("t.slow-op", "write-block took 12ms", "", 0, 0));
        structured_event("t.slow-op", "dropped after uninstall", "", 0, 0);
        drop(Span::root("t.after-uninstall"));
        let snap = rec.snapshot(0, 0);
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events[0].kind, "t.slow-op");
        assert_eq!(snap.events[0].op, "write-block took 12ms");
        assert_eq!(rec.last_seq(), 1, "nothing is recorded after uninstall");
    }

    #[test]
    fn recorder_alone_enables_capture_and_error_pinning() {
        let _guard = serial();
        set_recorder(None);
        assert!(!tracing_enabled());
        let rec = install_recorder();
        assert!(tracing_enabled(), "recorder alone turns capture on");
        // install_recorder is get-or-create: same instance back.
        assert!(Arc::ptr_eq(&rec, &install_recorder()));
        rec.clear();

        let span = Span::root("t.fail");
        span.set_error();
        let trace = span.trace_id();
        drop(span);
        structured_event("t.retry", "write-block", "mem://9", 2, trace);
        set_recorder(None);
        assert!(!tracing_enabled(), "uninstall turns capture back off");

        let snap = rec.snapshot(trace, 0);
        assert_eq!(snap.spans.len(), 1);
        assert!(snap.spans[0].err && snap.spans[0].pinned);
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events[0].kind, "t.retry");
        assert_eq!(snap.events[0].addr, "mem://9");
        assert_eq!(snap.events[0].attempt, 2);
    }

    #[test]
    fn swapping_recorders_under_load_loses_no_seq() {
        let _guard = serial();
        // Rings that outsize the load: nothing is evicted, so a
        // recorder retains exactly the pushes it received.
        let big = || Arc::new(FlightRecorder::with_capacity(1 << 15, 1 << 15, 1));
        let (a, b) = (big(), big());
        let start = std::sync::Barrier::new(3);
        std::thread::scope(|s| {
            let close = || {
                start.wait();
                (0..10_000).for_each(|_| drop(Span::root("t.swap")));
            };
            let closers = [s.spawn(close), s.spawn(close)];
            start.wait();
            while !closers.iter().all(|c| c.is_finished()) {
                set_recorder(Some(Arc::clone(&a)));
                set_recorder(Some(Arc::clone(&b)));
                set_recorder(None);
            }
        });
        for rec in [a, b] {
            let seqs: Vec<u64> = rec.snapshot(0, 0).spans.iter().map(|s| s.seq).collect();
            assert!(seqs.windows(2).all(|w| w[0] < w[1]), "seqs increase");
            assert_eq!(seqs.len() as u64, rec.last_seq(), "one seq per push");
        }
    }

    #[test]
    fn filter_parsing_matches_env_conventions() {
        for off in ["", "off", "0", "none"] {
            assert_eq!(parse_filter(off), None);
        }
        assert_eq!(parse_filter("all"), Some(vec![]));
        assert_eq!(parse_filter("1"), Some(vec![]));
        // Level words are not special: `info` is a prefix like any other.
        let prefixes = |l: &[&str]| Some(l.iter().map(|p| p.to_string()).collect::<Vec<_>>());
        assert_eq!(parse_filter("info"), prefixes(&["info"]));
        assert_eq!(parse_filter("rpc, action"), prefixes(&["rpc", "action"]));
    }
}
