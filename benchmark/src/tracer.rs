//! The benchmark's own span list. It wraps each call a workload makes
//! into a layer, from outside; `glider-trace` is itself a layer under
//! test and is not used for this. End-to-end numbers are measured with
//! [`NoTrace`], whose calls compile to nothing.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Spans one client thread may hold (48 B each). A traced repetition
/// ends early when its list is full, so memory stays bounded however
/// fast the operation is.
pub const MAX_SPANS_PER_CLIENT: usize = 1 << 20;
/// Spans per client written to `out/trace-<workload>.json`; the shares
/// are computed over all of them.
const MAX_SPANS_WRITTEN_PER_CLIENT: usize = 20_000;

const NO_PARENT: u32 = u32::MAX;

pub trait Tracer: Send {
    fn begin(&mut self, name: &'static str) -> u32;
    fn end(&mut self, span: u32);
    /// True once no further operation should be traced.
    fn full(&self) -> bool;
}

/// Runs `f` inside a span named `name` (`<layer>.<call>`).
#[inline(always)]
pub fn span<T: Tracer, R>(tr: &mut T, name: &'static str, f: impl FnOnce() -> R) -> R {
    let id = tr.begin(name);
    let result = f();
    tr.end(id);
    result
}

#[derive(Debug, Default)]
pub struct NoTrace;

impl Tracer for NoTrace {
    #[inline(always)]
    fn begin(&mut self, _name: &'static str) -> u32 {
        0
    }
    #[inline(always)]
    fn end(&mut self, _span: u32) {}
    #[inline(always)]
    fn full(&self) -> bool {
        false
    }
}

#[derive(Debug, Clone)]
struct SpanRecord {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    op: u64,
}

/// One client thread's spans, in the order they began.
#[derive(Debug)]
pub struct SpanList {
    epoch: Instant,
    spans: Vec<SpanRecord>,
    current: u32,
    op: u64,
}

impl SpanList {
    /// `epoch` is shared by the lists of one repetition so their
    /// timestamps are comparable.
    pub fn new(epoch: Instant) -> SpanList {
        SpanList {
            epoch,
            spans: Vec::with_capacity(MAX_SPANS_PER_CLIENT),
            current: NO_PARENT,
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

impl Tracer for SpanList {
    fn begin(&mut self, name: &'static str) -> u32 {
        if self.current == NO_PARENT {
            self.op += 1;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(SpanRecord {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.current,
            op: self.op,
        });
        self.current = id;
        id
    }

    fn end(&mut self, span: u32) {
        let now = self.now_ns();
        let record = &mut self.spans[span as usize];
        record.end_ns = now;
        self.current = record.parent;
    }

    fn full(&self) -> bool {
        // The harness asks on every sampled operation only: leave room
        // for the 16 operations of up to 16 spans until it asks again.
        self.spans.len() + 256 > MAX_SPANS_PER_CLIENT
    }
}

/// Self time (a span's duration minus the part its children cover) summed
/// by layer, the prefix of the span name before the first `.`. The root
/// span of each operation is named `op`; its self time is the harness's
/// own cost and the parts of an operation no layer call covers.
#[derive(Debug, Default, Clone)]
pub struct LayerShares {
    /// Layer → summed self time in ns.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Summed duration of the `op` root spans.
    pub op_ns: u64,
    pub ops: u64,
}

impl LayerShares {
    pub fn of(lists: &[SpanList]) -> LayerShares {
        let mut shares = LayerShares::default();
        for list in lists {
            let mut child_ns = vec![0u64; list.spans.len()];
            for span in &list.spans {
                if span.parent != NO_PARENT {
                    child_ns[span.parent as usize] += span.end_ns - span.start_ns;
                }
            }
            for (span, children) in list.spans.iter().zip(child_ns) {
                let duration = span.end_ns - span.start_ns;
                if span.parent == NO_PARENT {
                    shares.op_ns += duration;
                    shares.ops += 1;
                }
                let layer = span.name.split('.').next().unwrap_or(span.name);
                *shares.self_ns.entry(layer).or_default() += duration.saturating_sub(children);
            }
        }
        shares
    }

    /// `layer`'s share of all operation time, in percent.
    pub fn pct(&self, layer: &str) -> f64 {
        if self.op_ns == 0 {
            return 0.0;
        }
        100.0 * self.self_ns.get(layer).copied().unwrap_or(0) as f64 / self.op_ns as f64
    }
}

/// The head of each client's span list as one JSON document.
pub fn spans_json(workload: &str, lists: &[SpanList]) -> Json {
    let recorded: usize = lists.iter().map(|l| l.spans.len()).sum();
    let mut spans = Vec::new();
    for (client, list) in lists.iter().enumerate() {
        for (id, span) in list
            .spans
            .iter()
            .take(MAX_SPANS_WRITTEN_PER_CLIENT)
            .enumerate()
        {
            spans.push(Json::obj([
                ("client", Json::Num(client as f64)),
                ("id", Json::Num(id as f64)),
                (
                    "parent",
                    if span.parent == NO_PARENT {
                        Json::Null
                    } else {
                        Json::Num(f64::from(span.parent))
                    },
                ),
                ("op", Json::Num(span.op as f64)),
                ("name", Json::str(span.name)),
                ("start_ns", Json::Num(span.start_ns as f64)),
                ("end_ns", Json::Num(span.end_ns as f64)),
            ]));
        }
    }
    Json::obj([
        ("workload", Json::str(workload)),
        ("spans_recorded", Json::Num(recorded as f64)),
        ("spans_written", Json::Num(spans.len() as f64)),
        ("spans", Json::Arr(spans)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut list = SpanList::new(Instant::now());
        for _ in 0..2 {
            let op = list.begin("op");
            let outer = list.begin("wal.append");
            let inner = list.begin("wal.sync");
            list.end(inner);
            list.end(outer);
            span(&mut list, "trace.finish", || ());
            list.end(op);
        }
        // Fixed times, so the arithmetic is exact: op [0,100] holds
        // wal.append [10,70] (holding wal.sync [20,50]) and trace.finish
        // [70,90].
        for (i, (s, e)) in [(0, 100), (10, 70), (20, 50), (70, 90)].iter().enumerate() {
            for base in [0, 4] {
                list.spans[base + i].start_ns = *s;
                list.spans[base + i].end_ns = *e;
            }
        }
        assert_eq!(list.spans[2].parent, 1);
        assert_eq!(list.spans[3].parent, 0);
        assert_eq!((list.spans[3].op, list.spans[4].op), (1, 2));

        let shares = LayerShares::of(&[list]);
        assert_eq!((shares.ops, shares.op_ns), (2, 200));
        assert_eq!(shares.self_ns["wal"], 2 * (30 + 30));
        assert_eq!(shares.self_ns["trace"], 2 * 20);
        assert_eq!(shares.self_ns["op"], 2 * 20);
        assert_eq!(shares.pct("wal"), 60.0);
        assert_eq!(shares.pct("absent"), 0.0);
    }

    #[test]
    fn trace_document_lists_spans_with_parents() {
        let mut list = SpanList::new(Instant::now());
        let op = list.begin("op");
        span(&mut list, "metrics.record", || ());
        list.end(op);
        let doc = Json::parse(&spans_json("obs-span", &[list]).encode()).unwrap();
        assert_eq!(doc.get("spans_recorded").and_then(Json::as_f64), Some(2.0));
        let spans = doc.get("spans").unwrap().as_array();
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
        assert_eq!(spans[1].get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(
            spans[1].get("name").and_then(Json::as_str),
            Some("metrics.record")
        );
    }
}
