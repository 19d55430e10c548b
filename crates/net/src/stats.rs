//! Building and rendering the introspection RPC payloads.
//!
//! Every Glider server answers [`RequestBody::Stats`] from its
//! [`MetricsRegistry`] via [`build_stats`]; clients merge the payloads of
//! many servers ([`glider_proto::stats::StatsPayload::merge`]) and render
//! them with [`render_stats_table`] (human), [`render_stats_json`], or
//! [`render_stats_prom`] (Prometheus-style text exposition with
//! per-bucket trace exemplars).
//!
//! The same uniform path serves the flight-recorder plane:
//! [`build_span_dump`] snapshots the process [`FlightRecorder`] for
//! `DumpSpans`, [`build_series`] packages the registry's per-op
//! time-series rings and exemplar grid for `MetricsSeries`, and
//! [`render_trace_tree`] reassembles merged dumps from many servers into
//! one cross-process span tree with per-hop self-times and the critical
//! path highlighted.
//!
//! [`RequestBody::Stats`]: glider_proto::message::RequestBody::Stats
//! [`MetricsRegistry`]: glider_metrics::MetricsRegistry
//! [`FlightRecorder`]: glider_trace::FlightRecorder

use glider_metrics::{
    bucket_bounds, CountHist, HistogramSnapshot, MetricsRegistry, MetricsSnapshot, OpKind, Section,
    Signal, HIST_BUCKETS,
};
use glider_proto::dump::{
    ExemplarEntry, OpSeriesPayload, SeriesPayload, SpanDump, WireEvent, WireSeriesPoint, WireSpan,
};
use glider_proto::stats::{NamedValue, OpLatency, StatsPayload};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;

/// Builds the wire stats payload from a metrics snapshot: every
/// [`OpKind`] latency histogram, then every [`CountHist`] as a pseudo-op,
/// and the snapshot's [named values](MetricsSnapshot::named_values)
/// split into gauges and counters.
pub fn build_stats(snap: &MetricsSnapshot) -> StatsPayload {
    let latency = OpKind::ALL.map(|k| (k.name(), snap.op_latency(k)));
    let counts = CountHist::ALL.map(|h| (h.name(), snap.counts(h)));
    let mut payload = StatsPayload {
        ops: latency
            .into_iter()
            .chain(counts)
            .map(|(name, h)| OpLatency {
                name: name.to_string(),
                buckets: h.bucket_counts().to_vec(),
            })
            .collect(),
        ..StatsPayload::default()
    };
    for (section, name, value) in snap.named_values() {
        let values = match section {
            Section::Gauges => &mut payload.gauges,
            Section::Counters => &mut payload.counters,
        };
        values.push(NamedValue {
            name: name.to_string(),
            value,
        });
    }
    payload
}

/// Formats a nanosecond value with a readable unit.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Renders a stats payload as machine-readable JSON, one op per line.
///
/// Schema (version 1): `ops` is a list of
/// `{name, count, p50_ns, p90_ns, p99_ns, p999_ns, max_ns}` objects —
/// for the [`CountHist`] pseudo-ops (`writer-batch-frames`,
/// `mailbox-depth`) the `_ns` fields hold plain counts — followed by
/// flat `gauges` and `counters` objects.
pub fn render_stats_json(payload: &StatsPayload) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema_version\": 1,\n  \"ops\": [\n");
    for (i, op) in payload.ops.iter().enumerate() {
        let h = HistogramSnapshot::from_bucket_counts(&op.buckets);
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"count\": {}, \"p50_ns\": {}, \"p90_ns\": {}, \
             \"p99_ns\": {}, \"p999_ns\": {}, \"max_ns\": {}}}",
            op.name,
            h.count(),
            h.p50(),
            h.p90(),
            h.p99(),
            h.p999(),
            h.max()
        );
        out.push_str(if i + 1 < payload.ops.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ],\n");
    for (key, values) in [("gauges", &payload.gauges), ("counters", &payload.counters)] {
        let _ = write!(out, "  \"{key}\": {{");
        for (i, v) in values.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{}\": {}", v.name, v.value);
        }
        out.push_str(if key == "gauges" { "},\n" } else { "}\n" });
    }
    out.push_str("}\n");
    out
}

/// Renders a stats payload as a human-readable table. Ops with no
/// recordings are omitted; the name column is as wide as the longest
/// name in the payload.
pub fn render_stats_table(payload: &StatsPayload) -> String {
    const HIT_RATE: &str = "pool-hit-rate";
    let ops = payload.ops.iter().map(|o| &o.name);
    let values = payload.gauges.iter().chain(&payload.counters);
    let names = ops.chain(values.map(|v| &v.name));
    let w = names.map(String::len).fold(HIT_RATE.len(), usize::max);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<w$} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "op", "count", "p50", "p90", "p99", "p999", "max"
    );
    for op in &payload.ops {
        let h = HistogramSnapshot::from_bucket_counts(&op.buckets);
        if h.is_empty() {
            continue;
        }
        let counts = CountHist::ALL.iter().any(|c| c.name() == op.name);
        let fmt = |v: u64| if counts { v.to_string() } else { fmt_ns(v) };
        let _ = writeln!(
            out,
            "{:<w$} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
            op.name,
            h.count(),
            fmt(h.p50()),
            fmt(h.p90()),
            fmt(h.p99()),
            fmt(h.p999()),
            fmt(h.max())
        );
    }
    for (title, values) in [("gauges", &payload.gauges), ("counters", &payload.counters)] {
        let interesting: Vec<&NamedValue> = values.iter().filter(|v| v.value > 0).collect();
        if interesting.is_empty() {
            continue;
        }
        let _ = writeln!(out, "{title}:");
        for v in interesting {
            let _ = writeln!(out, "  {:<w$} {}", v.name, v.value);
        }
    }
    // Derived: buffer-pool hit rate, when the pool saw any traffic. JSON
    // output keeps the raw hit/miss counters instead (the ratio is
    // derivable and lossless there).
    let counter = |signal: Signal| {
        payload
            .counters
            .iter()
            .find(|v| v.name == signal.name())
            .map_or(0, |v| v.value)
    };
    let (hits, misses) = (counter(Signal::PoolHits), counter(Signal::PoolMisses));
    if hits + misses > 0 {
        let rate = 100.0 * hits as f64 / (hits + misses) as f64;
        let _ = writeln!(out, "  {HIT_RATE:<w$} {rate:.1}%");
    }
    out
}

/// Snapshots this process's flight recorder for a `DumpSpans` request.
///
/// `source` labels the dump with the answering server's address so a
/// merged cross-process dump can attribute every span. With no recorder
/// installed the dump is empty but still carries the source — the server
/// answered, it just retains nothing.
pub fn build_span_dump(source: &str, trace_id: u64, since_seq: u64) -> SpanDump {
    let mut dump = SpanDump {
        source: source.to_string(),
        spans: Vec::new(),
        events: Vec::new(),
        dropped_spans: 0,
        dropped_events: 0,
    };
    let Some(rec) = glider_trace::recorder() else {
        return dump;
    };
    let snap = rec.snapshot(trace_id, since_seq);
    dump.spans = snap
        .spans
        .iter()
        .map(|s| WireSpan {
            seq: s.seq,
            name: s.name.to_string(),
            trace_id: s.trace_id,
            span_id: s.span_id,
            parent_span: s.parent_span,
            remote: s.remote,
            duration_ns: s.duration.as_nanos().min(u128::from(u64::MAX)) as u64,
            err: s.err,
            pinned: s.pinned,
        })
        .collect();
    dump.events = snap
        .events
        .into_iter()
        .map(|e| WireEvent {
            seq: e.seq,
            kind: e.kind,
            op: e.op,
            addr: e.addr,
            attempt: e.attempt,
            trace_id: e.trace_id,
        })
        .collect();
    dump.dropped_spans = snap.dropped_spans;
    dump.dropped_events = snap.dropped_events;
    dump
}

/// Packages the registry's per-op time-series rings and the exemplar
/// grid for a `MetricsSeries` request. Only kinds that saw traffic ship
/// points; only non-zero exemplar cells ship entries.
pub fn build_series(source: &str, metrics: &MetricsRegistry) -> SeriesPayload {
    let series = metrics
        .series()
        .into_iter()
        .map(|s| OpSeriesPayload {
            name: s.kind.name().to_string(),
            points: s
                .points
                .into_iter()
                .map(|p| WireSeriesPoint {
                    seq: p.seq,
                    count: p.count,
                    p50_ns: p.p50_ns,
                    p99_ns: p.p99_ns,
                })
                .collect(),
        })
        .collect();
    let snap = metrics.snapshot();
    let mut exemplars = Vec::new();
    for kind in OpKind::ALL {
        for bucket in 0..HIST_BUCKETS {
            if let Some(trace_id) = snap.exemplar(kind, bucket) {
                exemplars.push(ExemplarEntry {
                    op: kind.name().to_string(),
                    bucket: bucket as u32,
                    trace_id,
                });
            }
        }
    }
    SeriesPayload {
        source: source.to_string(),
        series,
        exemplars,
    }
}

/// Renders a (usually merged) span dump as one cross-process tree.
///
/// Spans are indexed by id; spans whose parent id is 0 or absent from
/// the dump render as roots (a remote continuation whose parent aged out
/// still shows up instead of vanishing). Each line carries the span's
/// wall-clock duration and its **self time** — duration minus the summed
/// durations of its direct children, i.e. where inside the hop the time
/// actually went. The **critical path** (from the slowest root, always
/// descending into the slowest child) is marked with `*`.
pub fn render_trace_tree(dump: &SpanDump) -> String {
    let by_id: HashMap<u64, &WireSpan> = dump.spans.iter().map(|s| (s.span_id, s)).collect();
    let mut children: HashMap<u64, Vec<&WireSpan>> = HashMap::new();
    let mut roots: Vec<&WireSpan> = Vec::new();
    for s in &dump.spans {
        if s.parent_span != 0 && s.parent_span != s.span_id && by_id.contains_key(&s.parent_span) {
            children.entry(s.parent_span).or_default().push(s);
        } else {
            roots.push(s);
        }
    }
    for kids in children.values_mut() {
        kids.sort_by_key(|s| s.seq);
    }
    roots.sort_by_key(|s| s.seq);

    // Critical path: start at the slowest root, keep taking the slowest
    // child. The visited check makes corrupt parent links (cycles) a
    // rendering blemish instead of a hang.
    let mut critical: HashSet<u64> = HashSet::new();
    if let Some(root) = roots.iter().copied().max_by_key(|s| s.duration_ns) {
        let mut cur = root;
        while critical.insert(cur.span_id) {
            match children
                .get(&cur.span_id)
                .and_then(|kids| kids.iter().copied().max_by_key(|s| s.duration_ns))
            {
                Some(next) => cur = next,
                None => break,
            }
        }
    }

    let self_time = |s: &WireSpan| {
        let in_children: u64 = children
            .get(&s.span_id)
            .map_or(0, |kids| kids.iter().map(|k| k.duration_ns).sum());
        s.duration_ns.saturating_sub(in_children)
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "sources: {} ({} spans, {} events)",
        dump.source,
        dump.spans.len(),
        dump.events.len()
    );
    if dump.spans.is_empty() {
        out.push_str("no spans retained for this trace\n");
    }
    let mut rendered: HashSet<u64> = HashSet::new();
    let mut stack: Vec<(&WireSpan, usize)> = roots.iter().rev().map(|s| (*s, 0usize)).collect();
    while let Some((s, depth)) = stack.pop() {
        if !rendered.insert(s.span_id) {
            continue;
        }
        let marker = if critical.contains(&s.span_id) {
            "*"
        } else {
            " "
        };
        let mut tags = String::new();
        if s.remote {
            tags.push_str(" [remote]");
        }
        if s.err {
            tags.push_str(" [ERR]");
        }
        let label = format!("{}{}", "  ".repeat(depth), s.name);
        let _ = writeln!(
            out,
            "{marker} {label:<40} {:>10}  self {:>10}{tags}",
            fmt_ns(s.duration_ns),
            fmt_ns(self_time(s)),
        );
        if let Some(kids) = children.get(&s.span_id) {
            for k in kids.iter().rev() {
                stack.push((k, depth + 1));
            }
        }
    }
    if !dump.events.is_empty() {
        out.push_str("events:\n");
        for e in &dump.events {
            let _ = writeln!(
                out,
                "  seq={} {} op={} addr={} attempt={} trace=0x{:016x}",
                e.seq, e.kind, e.op, e.addr, e.attempt, e.trace_id
            );
        }
    }
    if dump.dropped_spans > 0 || dump.dropped_events > 0 {
        let _ = writeln!(
            out,
            "dropped before this dump: {} spans, {} events",
            dump.dropped_spans, dump.dropped_events
        );
    }
    out.push_str("* = critical path\n");
    out
}

/// Renders merged stats plus per-server series payloads as
/// Prometheus-style text exposition.
///
/// Latency histograms become one `glider_op_latency_ns` family with
/// cumulative `le` buckets taken from the log-histogram bounds (buckets
/// that saw no samples are elided — cumulative semantics make sparse
/// emission lossless); a bucket whose cell holds an exemplar gets an
/// OpenMetrics-style `# {trace_id="0x…"}` suffix, resolvable via
/// `glider-cli trace`. Gauges and counters ship as labelled
/// `glider_gauge` / `glider_counter` families. The [`CountHist`]
/// pseudo-ops are included; their `le` values are plain counts, not ns.
pub fn render_stats_prom(stats: &StatsPayload, series: &[SeriesPayload]) -> String {
    let mut exemplars: HashMap<(&str, usize), u64> = HashMap::new();
    for payload in series {
        for e in &payload.exemplars {
            exemplars
                .entry((e.op.as_str(), e.bucket as usize))
                .or_insert(e.trace_id);
        }
    }
    let mut out = String::new();
    out.push_str("# TYPE glider_op_latency_ns histogram\n");
    for op in &stats.ops {
        let total: u64 = op.buckets.iter().sum();
        if total == 0 {
            continue;
        }
        let mut cumulative = 0u64;
        for (i, &c) in op.buckets.iter().enumerate() {
            cumulative += c;
            let last = i + 1 == op.buckets.len();
            if c == 0 && !last {
                continue;
            }
            let le = if last {
                "+Inf".to_string()
            } else {
                bucket_bounds(i).1.to_string()
            };
            let _ = write!(
                out,
                "glider_op_latency_ns_bucket{{op=\"{}\",le=\"{le}\"}} {cumulative}",
                op.name
            );
            if let Some(&trace) = exemplars.get(&(op.name.as_str(), i)) {
                let _ = write!(out, " # {{trace_id=\"0x{trace:016x}\"}}");
            }
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "glider_op_latency_ns_count{{op=\"{}\"}} {total}",
            op.name
        );
    }
    out.push_str("# TYPE glider_gauge gauge\n");
    for g in &stats.gauges {
        let _ = writeln!(out, "glider_gauge{{name=\"{}\"}} {}", g.name, g.value);
    }
    out.push_str("# TYPE glider_counter counter\n");
    for c in &stats.counters {
        let _ = writeln!(out, "glider_counter{{name=\"{}\"}} {}", c.name, c.value);
    }
    out
}

/// Renders per-server `MetricsSeries` payloads as one live table
/// (`glider-cli stats --watch`).
///
/// For each op the *latest* point of every server is aggregated: counts
/// sum (cluster ops in the last tick), percentiles take the max (the
/// worst server is the one being debugged). A footer lists, per op, the
/// slowest bucket holding an exemplar and its trace id — paste that id
/// into `glider-cli trace` to pull the full cross-process tree.
pub fn render_series(payloads: &[SeriesPayload]) -> String {
    let mut out = String::new();
    let mut ops: BTreeMap<&str, (u64, u64, u64, usize)> = BTreeMap::new();
    for p in payloads {
        for s in &p.series {
            if let Some(pt) = s.points.last() {
                let agg = ops.entry(s.name.as_str()).or_insert((0, 0, 0, 0));
                agg.0 += pt.count;
                agg.1 = agg.1.max(pt.p50_ns);
                agg.2 = agg.2.max(pt.p99_ns);
                agg.3 += 1;
            }
        }
    }
    let _ = writeln!(
        out,
        "{:<22} {:>12} {:>10} {:>10} {:>6}",
        "op", "count/tick", "p50", "p99", "srcs"
    );
    for (name, (count, p50, p99, srcs)) in &ops {
        let _ = writeln!(
            out,
            "{name:<22} {count:>12} {:>10} {:>10} {srcs:>6}",
            fmt_ns(*p50),
            fmt_ns(*p99),
        );
    }
    let mut slowest: BTreeMap<&str, (u32, u64)> = BTreeMap::new();
    for p in payloads {
        for e in &p.exemplars {
            let entry = slowest
                .entry(e.op.as_str())
                .or_insert((e.bucket, e.trace_id));
            if e.bucket >= entry.0 {
                *entry = (e.bucket, e.trace_id);
            }
        }
    }
    if !slowest.is_empty() {
        out.push_str("exemplars (slowest bucket per op):\n");
        for (op, (bucket, trace)) in &slowest {
            let (_, hi) = bucket_bounds(*bucket as usize);
            let _ = writeln!(
                out,
                "  {op:<22} le<={:<10} trace 0x{trace:016x}",
                fmt_ns(hi)
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use glider_metrics::{AccessKind, MetricsRegistry, Tier};
    use std::time::Duration;

    fn sample_payload() -> StatsPayload {
        let m = MetricsRegistry::new();
        m.record_latency(OpKind::BlockWrite, Duration::from_micros(100));
        m.record_latency(OpKind::BlockWrite, Duration::from_micros(200));
        m.record_latency(OpKind::MetaLookupNode, Duration::from_nanos(500));
        m.record_count(CountHist::WriterBatchFrames, 16);
        m.add(Signal::Queue, 1);
        m.record_transfer(Tier::Compute, Tier::Storage, 4096);
        m.record_access(AccessKind::FileWrite);
        m.add(Signal::RpcRetries, 1);
        m.add(Signal::RpcReconnects, 1);
        m.set(Signal::ServersLive, 2);
        m.set(Signal::ServersDead, 1);
        m.add(Signal::TransportTcpRequests, 2);
        m.add(Signal::TransportMemRequests, 1);
        m.add(Signal::PoolHits, 1);
        m.add(Signal::PoolMisses, 1);
        m.add(Signal::StreamsOpened, 1);
        m.add(Signal::StreamsOpen, 1);
        m.add(Signal::RpcInflight, 1);
        m.add(Signal::ActionInstances, 1);
        m.record_count(CountHist::MailboxDepth, 3);
        m.set(Signal::WalFsyncs, 5);
        m.set(Signal::WalBytes, 2048);
        m.add(Signal::ReplicationLag, 777);
        m.set(Signal::UnderReplicated, 2);
        build_stats(&m.snapshot())
    }

    #[test]
    fn build_covers_every_op_kind_plus_batch() {
        let payload = sample_payload();
        assert_eq!(payload.ops.len(), OpKind::COUNT + 2);
        for kind in OpKind::ALL {
            assert!(
                payload.ops.iter().any(|o| o.name == kind.name()),
                "missing op {}",
                kind.name()
            );
        }
        assert!(payload.ops.iter().any(|o| o.name == "writer-batch-frames"));
        assert!(payload.ops.iter().any(|o| o.name == "mailbox-depth"));
        let write = payload
            .ops
            .iter()
            .find(|o| o.name == "block-write")
            .unwrap();
        assert_eq!(write.buckets.iter().sum::<u64>(), 2);
        let gauge = |n: &str| payload.gauges.iter().find(|v| v.name == n).unwrap().value;
        assert_eq!(gauge("queue-current"), 1);
        assert_eq!(gauge("queue-peak"), 1);
        let counter = |n: &str| payload.counters.iter().find(|v| v.name == n).unwrap().value;
        assert_eq!(counter("tier-crossing-bytes"), 4096);
        assert_eq!(counter("storage-accesses"), 1);
        assert_eq!(counter("rpc-retries"), 1);
        assert_eq!(counter("rpc-reconnects"), 1);
        assert_eq!(gauge("servers-live"), 2);
        assert_eq!(gauge("servers-dead"), 1);
        assert_eq!(counter("transport-tcp-requests"), 2);
        assert_eq!(counter("transport-mem-requests"), 1);
        assert_eq!(counter("pool-hits"), 1);
        assert_eq!(counter("pool-misses"), 1);
        assert_eq!(counter("streams-opened"), 1);
        assert_eq!(gauge("rpc-inflight-current"), 1);
        assert_eq!(gauge("rpc-inflight-peak"), 1);
        assert_eq!(gauge("streams-open-current"), 1);
        assert_eq!(gauge("streams-open-peak"), 1);
        assert_eq!(gauge("actions-instances-current"), 1);
        assert_eq!(gauge("actions-instances-peak"), 1);
        assert_eq!(counter("wal-fsyncs"), 5);
        assert_eq!(counter("wal-bytes"), 2048);
        assert_eq!(gauge("replication-lag"), 777);
        assert_eq!(gauge("replication-lag-peak"), 777);
        assert_eq!(gauge("under-replicated-extents"), 2);
        let depth = payload
            .ops
            .iter()
            .find(|o| o.name == "mailbox-depth")
            .unwrap();
        assert_eq!(depth.buckets.iter().sum::<u64>(), 1);
    }

    #[test]
    fn json_reports_percentiles_per_op() {
        let json = render_stats_json(&sample_payload());
        assert!(json.contains("\"schema_version\": 1"));
        // block-write saw two ~100-200us ops; its p50 must be non-zero.
        let line = json
            .lines()
            .find(|l| l.contains("\"block-write\""))
            .unwrap();
        assert!(line.contains("\"count\": 2"), "line: {line}");
        assert!(!line.contains("\"p50_ns\": 0"), "line: {line}");
        // Untouched ops are present with zero counts.
        let idle = json.lines().find(|l| l.contains("\"block-free\"")).unwrap();
        assert!(idle.contains("\"count\": 0"), "line: {idle}");
        assert!(json.contains("\"queue-peak\": 1"));
        assert!(json.contains("\"tier-crossing-bytes\": 4096"));
    }

    #[test]
    fn table_skips_empty_ops_and_scales_units() {
        let table = render_stats_table(&sample_payload());
        assert!(table.contains("block-write"));
        assert!(table.contains("meta-lookup-node"));
        assert!(!table.contains("block-free"), "empty ops are omitted");
        assert!(table.contains("us"), "microsecond ops print as us");
        assert!(table.contains("writer-batch-frames"));
        assert!(table.contains("queue-peak"));
        assert!(table.contains("transport-tcp-requests"));
        assert!(table.contains("pool-hit-rate"));
        assert!(table.contains("50.0%"), "1 hit / 1 miss renders as 50%");
    }

    #[test]
    fn table_values_share_one_column_under_long_names() {
        let table = render_stats_table(&sample_payload());
        let rows: Vec<&str> = table.lines().filter(|l| l.starts_with("  ")).collect();
        assert!(rows.iter().any(|l| l.contains("actions-instances-current")));
        assert!(rows.iter().any(|l| l.contains("under-replicated-extents")));
        let value_col = |l: &str| l.trim_end().rfind(' ').unwrap();
        let first = value_col(rows[0]);
        for row in &rows {
            assert_eq!(value_col(row), first, "misaligned row: {row:?}\n{table}");
        }
    }

    #[test]
    fn fmt_ns_picks_readable_units() {
        assert_eq!(fmt_ns(0), "0ns");
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(1_500), "1.50us");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
    }

    /// What a test span varies; an errored span is pinned.
    struct Span {
        seq: u64,
        name: &'static str,
        trace: u64,
        id: u64,
        parent: u64,
        remote: bool,
        ms: u64,
        err: bool,
    }

    fn span(s: Span) -> WireSpan {
        WireSpan {
            seq: s.seq,
            name: s.name.to_string(),
            trace_id: s.trace,
            span_id: s.id,
            parent_span: s.parent,
            remote: s.remote,
            duration_ns: s.ms * 1_000_000,
            err: s.err,
            pinned: s.err,
        }
    }

    #[test]
    fn trace_tree_renders_hierarchy_self_time_and_critical_path() {
        let dump = SpanDump {
            source: "mem://m,mem://d".to_string(),
            spans: vec![
                span(Span {
                    seq: 1,
                    name: "client.call",
                    trace: 7,
                    id: 1,
                    parent: 0,
                    remote: false,
                    ms: 10,
                    err: false,
                }),
                span(Span {
                    seq: 2,
                    name: "rpc.dispatch",
                    trace: 7,
                    id: 2,
                    parent: 1,
                    remote: true,
                    ms: 8,
                    err: false,
                }),
                span(Span {
                    seq: 3,
                    name: "data.handle",
                    trace: 7,
                    id: 3,
                    parent: 2,
                    remote: false,
                    ms: 6,
                    err: true,
                }),
                // Orphan: its parent aged out of every recorder; it must
                // render as a root, not vanish.
                span(Span {
                    seq: 4,
                    name: "writer.recover",
                    trace: 7,
                    id: 9,
                    parent: 100,
                    remote: false,
                    ms: 1,
                    err: false,
                }),
            ],
            events: vec![WireEvent {
                seq: 5,
                kind: "rpc.retry".to_string(),
                op: "block-write".to_string(),
                addr: "mem://d".to_string(),
                attempt: 1,
                trace_id: 7,
            }],
            dropped_spans: 2,
            dropped_events: 0,
        };
        let tree = render_trace_tree(&dump);
        let pos = |name: &str| tree.lines().position(|l| l.contains(name)).unwrap();
        assert!(pos("client.call") < pos("rpc.dispatch"));
        assert!(pos("rpc.dispatch") < pos("data.handle"));
        assert!(tree.contains("  rpc.dispatch"), "children are indented");
        for name in ["client.call", "rpc.dispatch", "data.handle"] {
            let line = tree.lines().find(|l| l.contains(name)).unwrap();
            assert!(
                line.starts_with('*'),
                "{name} is on the critical path: {line}"
            );
        }
        let orphan = tree.lines().find(|l| l.contains("writer.recover")).unwrap();
        assert!(orphan.starts_with(' '), "orphan is off the critical path");
        // Self time subtracts direct children: 10ms total - 8ms child.
        let call = tree.lines().find(|l| l.contains("client.call")).unwrap();
        assert!(call.contains("self"), "line: {call}");
        assert!(call.contains("2.00ms"), "line: {call}");
        assert!(tree
            .lines()
            .any(|l| l.contains("rpc.dispatch") && l.contains("[remote]")));
        assert!(tree
            .lines()
            .any(|l| l.contains("data.handle") && l.contains("[ERR]")));
        assert!(tree.contains("rpc.retry"));
        assert!(tree.contains("dropped before this dump: 2 spans"));
    }

    #[test]
    fn trace_tree_survives_empty_and_cyclic_dumps() {
        let empty = SpanDump {
            source: "mem://m".to_string(),
            spans: vec![],
            events: vec![],
            dropped_spans: 0,
            dropped_events: 0,
        };
        let tree = render_trace_tree(&empty);
        assert!(tree.contains("no spans retained"));
        assert!(tree.contains("mem://m"));
        // A corrupt parent cycle (a↔b) must not hang the renderer.
        let cyclic = SpanDump {
            source: "mem://m".to_string(),
            spans: vec![
                span(Span {
                    seq: 1,
                    name: "t.a",
                    trace: 7,
                    id: 1,
                    parent: 2,
                    remote: false,
                    ms: 5,
                    err: false,
                }),
                span(Span {
                    seq: 2,
                    name: "t.b",
                    trace: 7,
                    id: 2,
                    parent: 1,
                    remote: false,
                    ms: 5,
                    err: false,
                }),
            ],
            events: vec![],
            dropped_spans: 0,
            dropped_events: 0,
        };
        let _ = render_trace_tree(&cyclic);
    }

    #[test]
    fn span_dump_reflects_recorder_state() {
        // A trace nobody emitted (the rpc dispatch-span test may or may
        // not have installed the process-global recorder already): the
        // dump is empty but names its source.
        let before = build_span_dump("mem://m", 0xfeed_0001, 0);
        assert_eq!(before.source, "mem://m");
        assert!(before.spans.is_empty() && before.events.is_empty());

        let rec = glider_trace::install_recorder();
        rec.push_span(&glider_trace::SpanRecord {
            name: "t.stats.op",
            trace_id: 0xfeed_0001,
            span_id: glider_trace::next_id(),
            parent_span: 0,
            remote: false,
            duration: Duration::from_millis(1),
            err: false,
        });
        rec.record_event("t.stats.retry", "block-write", "mem://d", 2, 0xfeed_0001);
        let dump = build_span_dump("mem://m", 0xfeed_0001, 0);
        assert_eq!(dump.spans.len(), 1);
        assert_eq!(dump.spans[0].name, "t.stats.op");
        assert_eq!(dump.spans[0].duration_ns, 1_000_000);
        assert_eq!(dump.events.len(), 1);
        assert_eq!(dump.events[0].attempt, 2);
        // Unknown trace: nothing matches, dump stays well-formed.
        let none = build_span_dump("mem://m", 0xdead_beef, 0);
        assert!(none.spans.is_empty());
    }

    #[test]
    fn series_payload_carries_points_and_exemplars() {
        let m = MetricsRegistry::new();
        m.record_latency_traced(OpKind::BlockWrite, Duration::from_micros(100), 0xabc);
        m.sample_series_tick();
        let payload = build_series("mem://d", &m);
        assert_eq!(payload.source, "mem://d");
        let bw = payload
            .series
            .iter()
            .find(|s| s.name == "block-write")
            .expect("traffic produced a series");
        assert_eq!(bw.points.len(), 1);
        assert_eq!(bw.points[0].count, 1);
        assert!(payload
            .exemplars
            .iter()
            .any(|e| e.op == "block-write" && e.trace_id == 0xabc));
        // Untouched kinds ship neither points nor exemplars.
        assert!(payload.series.iter().all(|s| s.name != "block-free"));
    }

    #[test]
    fn prom_rendering_is_cumulative_and_carries_exemplars() {
        let m = MetricsRegistry::new();
        m.record_latency_traced(OpKind::BlockWrite, Duration::from_micros(100), 0xabc);
        m.record_latency(OpKind::BlockWrite, Duration::from_micros(200));
        m.set(Signal::ServersLive, 2);
        m.set(Signal::ServersSuspect, 1);
        m.add(Signal::RpcRetries, 1);
        let stats = build_stats(&m.snapshot());
        let series = vec![build_series("mem://d", &m)];
        let prom = render_stats_prom(&stats, &series);
        assert!(prom.contains("# TYPE glider_op_latency_ns histogram"));
        assert!(prom.contains("glider_op_latency_ns_bucket{op=\"block-write\",le=\""));
        assert!(prom.contains("glider_op_latency_ns_bucket{op=\"block-write\",le=\"+Inf\"} 2"));
        assert!(prom.contains("glider_op_latency_ns_count{op=\"block-write\"} 2"));
        assert!(
            prom.contains("# {trace_id=\"0x0000000000000abc\"}"),
            "exemplar suffix present: {prom}"
        );
        assert!(prom.contains("glider_gauge{name=\"servers-live\"} 2"));
        assert!(prom.contains("glider_counter{name=\"rpc-retries\"} 1"));
        // Empty ops are elided entirely.
        assert!(!prom.contains("op=\"block-free\""));
        // Cumulative buckets never decrease.
        let mut last = 0u64;
        for line in prom
            .lines()
            .filter(|l| l.contains("op=\"block-write\",le="))
        {
            let v: u64 = line
                .split("} ")
                .nth(1)
                .unwrap()
                .split_whitespace()
                .next()
                .unwrap()
                .parse()
                .unwrap();
            assert!(v >= last, "cumulative count decreased: {line}");
            last = v;
        }
    }

    #[test]
    fn series_table_aggregates_latest_points_across_sources() {
        let point = |seq, count, p50, p99| WireSeriesPoint {
            seq,
            count,
            p50_ns: p50,
            p99_ns: p99,
        };
        let payloads = vec![
            SeriesPayload {
                source: "mem://d1".to_string(),
                series: vec![OpSeriesPayload {
                    name: "block-write".to_string(),
                    points: vec![point(1, 10, 1_000, 5_000), point(2, 3, 2_000, 9_000)],
                }],
                exemplars: vec![ExemplarEntry {
                    op: "block-write".to_string(),
                    bucket: 12,
                    trace_id: 0x77,
                }],
            },
            SeriesPayload {
                source: "mem://d2".to_string(),
                series: vec![OpSeriesPayload {
                    name: "block-write".to_string(),
                    points: vec![point(5, 4, 8_000, 6_000)],
                }],
                exemplars: vec![],
            },
        ];
        let table = render_series(&payloads);
        let line = table
            .lines()
            .find(|l| l.starts_with("block-write"))
            .unwrap();
        // Latest points only: 3 + 4 ops; worst p50 is 8us, worst p99 9us.
        assert!(line.contains(" 7 "), "summed latest counts: {line}");
        assert!(line.contains("8.00us"), "max p50: {line}");
        assert!(line.contains("9.00us"), "max p99: {line}");
        assert!(line.trim_end().ends_with('2'), "two sources: {line}");
        assert!(table.contains("trace 0x0000000000000077"));
    }
}
