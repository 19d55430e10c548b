//! The observability plane alone: `obs-span`.

use super::{install_recorder, Scale};
use crate::harness::{Client, Verdict, Workload};
use crate::scratch::Scratch;
use crate::tracer::{span, Tracer};
use glider_bench_layers::hist::LogHistogram;
use glider_bench_layers::trace::{structured_event, FlightRecorder, Span};
use std::hint::black_box;
use std::io;
use std::sync::Arc;

/// Operations between two structured events (a retry, a reconnect).
const EVENT_EVERY: u64 = 64;
/// Operations between two recorder dumps (an operator polling
/// `glider trace`).
const SNAPSHOT_EVERY: u64 = 65_536;
/// Spans set-up pushes so the recorder's ring (4096 spans by default)
/// is full, and evicting on every push, before the first operation.
const PREFILL_SPANS: u64 = 4096;

/// Root span, child span and one histogram record per operation, with
/// an occasional structured event and recorder snapshot.
#[derive(Debug)]
pub struct ObsSpan {
    recorder: Arc<FlightRecorder>,
    hist: Arc<LogHistogram>,
}

#[derive(Debug)]
pub struct ObsClient {
    recorder: Arc<FlightRecorder>,
    hist: Arc<LogHistogram>,
    ops: u64,
    events: u64,
}

impl Client for ObsClient {
    fn op<T: Tracer>(&mut self, tr: &mut T) -> bool {
        self.ops += 1;
        let root = span(tr, "trace.root", || Span::root("client.call"));
        let child = span(tr, "trace.child_of", || {
            Span::child_of(root.context(), "rpc.dispatch")
        });
        span(tr, "metrics.record", || self.hist.record(self.ops));
        if self.ops.is_multiple_of(EVENT_EVERY) {
            self.events += 1;
            span(tr, "trace.structured_event", || {
                structured_event(
                    "rpc.retry",
                    "WriteBlock",
                    "mem://data-1",
                    2,
                    root.trace_id(),
                )
            });
        }
        if self.ops.is_multiple_of(SNAPSHOT_EVERY) {
            black_box(span(tr, "trace.snapshot", || self.recorder.snapshot(0, 0)));
        }
        span(tr, "trace.finish", || {
            drop(child);
            drop(root);
        });
        true
    }
}

impl Workload for ObsSpan {
    type Client = ObsClient;
    const THREADS: usize = 2;
    const SAMPLE_EVERY: u64 = 16;

    fn setup(_seed: u64, _scratch: &Scratch, _scale: Scale) -> io::Result<Self> {
        let recorder = install_recorder();
        for _ in 0..PREFILL_SPANS {
            drop(Span::root("client.call"));
        }
        Ok(ObsSpan {
            recorder,
            hist: Arc::new(LogHistogram::new()),
        })
    }

    fn clients(&self, n: usize) -> Vec<ObsClient> {
        (0..n)
            .map(|_| ObsClient {
                recorder: Arc::clone(&self.recorder),
                hist: Arc::clone(&self.hist),
                ops: 0,
                events: 0,
            })
            .collect()
    }

    /// The recorder numbered exactly the spans and events issued, and
    /// the histogram counted exactly the operations.
    fn verify(self, clients: Vec<ObsClient>) -> Verdict {
        let ops: u64 = clients.iter().map(|c| c.ops).sum();
        let events: u64 = clients.iter().map(|c| c.events).sum();
        let failed = (PREFILL_SPANS + 2 * ops + events).abs_diff(self.recorder.last_seq())
            + ops.abs_diff(self.hist.snapshot().count());
        Verdict { failed, wal: None }
    }
}
