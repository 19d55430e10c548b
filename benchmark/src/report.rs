//! Turns one run's measurements into the human tables, the run record
//! and the one-line result the driver reads.

use crate::harness::{Outcome, REPETITIONS};
use crate::json::Json;
use crate::stats::Summary;

/// The benchmark's contract with its driver, compiled in: workload and
/// metric names, units, directions and regression bounds live in this
/// one file and nowhere in the code.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub better: String,
    /// Share of the parent's median the metric may worsen by; only
    /// end-to-end metrics have one.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    /// `(name, why)`.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    pub fn load() -> Spec {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
        let text = |item: &Json, key: &str| {
            item.get(key)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("BENCHMARK.json: missing string {key:?}"))
                .to_string()
        };
        let metrics = |key: &str| {
            doc.get(key)
                .map(Json::as_array)
                .unwrap_or_default()
                .iter()
                .map(|m| MetricSpec {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    better: text(m, "better"),
                    bound: m.get("bound").and_then(Json::as_f64),
                })
                .collect()
        };
        Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .expect("BENCHMARK.json: run_seconds"),
            workloads: doc
                .get("workloads")
                .map(Json::as_array)
                .unwrap_or_default()
                .iter()
                .map(|w| (text(w, "name"), text(w, "why")))
                .collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }
}

/// Where and on what a run was made; two records that differ here are
/// not comparable.
#[derive(Debug, Clone)]
pub struct Environment {
    pub nproc: usize,
    pub rustc: String,
    pub git_head: String,
    pub scratch_fs: String,
    pub scratch_dir: String,
}

pub struct Report<'a> {
    pub spec: &'a Spec,
    pub env: &'a Environment,
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub outcome: &'a Outcome,
    /// The per-layer probes of a traced run; empty for an untraced one.
    pub probes: &'a [(&'static str, f64)],
}

impl Report<'_> {
    /// Whether `BENCHMARK.json` lists the workload, so the driver holds
    /// later changes to its bounds.
    fn gated(&self) -> bool {
        self.spec
            .workloads
            .iter()
            .any(|(name, _)| name == self.workload)
    }

    fn end_to_end(&self, name: &str) -> &Summary {
        match name {
            "throughput_ops_s" => &self.outcome.throughput_ops_s,
            "latency_p50_us" => &self.outcome.latency_p50_us,
            "setup_s" => &self.outcome.setup_s,
            other => panic!("BENCHMARK.json names an end-to-end metric {other:?} the benchmark does not measure"),
        }
    }

    fn per_layer(&self, name: &str) -> f64 {
        let traced = self
            .outcome
            .traced
            .as_ref()
            .expect("per-layer metrics come from a traced run");
        let wal = self.outcome.wal.unwrap_or_default();
        if let Some(layer) = name
            .strip_prefix("share.")
            .and_then(|n| n.strip_suffix("_pct"))
        {
            // The root span of an operation is named `op`.
            return traced
                .shares
                .pct(if layer == "harness" { "op" } else { layer });
        }
        match name {
            "trace_overhead_pct" => traced.overhead_pct,
            "wal.fsyncs_per_ack" => wal.fsyncs_per_ack,
            "wal.bytes_per_user_byte" => wal.bytes_per_user_byte,
            "wal.disk_bytes_per_live_byte" => wal.disk_bytes_per_live_byte,
            probe => self
                .probes
                .iter()
                .find(|(n, _)| *n == probe)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("BENCHMARK.json names a per-layer metric {probe:?} the benchmark does not measure")),
        }
    }

    /// The line the driver reads: the end-to-end metrics of an untraced
    /// run, the per-layer metrics of a traced one.
    pub fn result_line(&self) -> String {
        let metric = |spec: &MetricSpec, value: f64| {
            (
                spec.name.clone(),
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(&spec.unit))]),
            )
        };
        let metrics: Vec<(String, Json)> = if self.outcome.traced.is_some() {
            self.spec
                .per_layer
                .iter()
                .map(|m| metric(m, self.per_layer(&m.name)))
                .collect()
        } else {
            self.spec
                .end_to_end
                .iter()
                .map(|m| metric(m, self.end_to_end(&m.name).median))
                .collect()
        };
        Json::obj([
            ("correct", Json::Bool(self.outcome.failed == 0)),
            ("attempted", Json::Num(self.outcome.attempted as f64)),
            ("failed", Json::Num(self.outcome.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .encode()
    }

    /// Everything needed to compare two runs without re-reading the code.
    pub fn record(&self) -> Json {
        let summary = |m: &MetricSpec, s: &Summary| {
            Json::obj([
                ("unit", Json::str(&m.unit)),
                ("better", Json::str(&m.better)),
                ("bound", m.bound.map_or(Json::Null, Json::Num)),
                ("median", Json::Num(s.median)),
                ("q1", Json::Num(s.q1)),
                ("q3", Json::Num(s.q3)),
                ("samples", Json::Num(s.raw.len() as f64)),
                ("raw", Json::nums(&s.raw)),
            ])
        };
        let mut end_to_end: Vec<(String, Json)> = self
            .spec
            .end_to_end
            .iter()
            .map(|m| (m.name.clone(), summary(m, self.end_to_end(&m.name))))
            .collect();
        let p99 = MetricSpec {
            name: "latency_p99_us".to_string(),
            unit: "us".to_string(),
            better: "lower".to_string(),
            bound: None,
        };
        end_to_end.push((
            p99.name.clone(),
            summary(&p99, &self.outcome.latency_p99_us),
        ));
        let per_layer = self.outcome.traced.as_ref().map_or(Json::Null, |_| {
            Json::Obj(
                self.spec
                    .per_layer
                    .iter()
                    .map(|m| {
                        let fields = [
                            ("unit", Json::str(&m.unit)),
                            ("better", Json::str(&m.better)),
                            ("value", Json::Num(self.per_layer(&m.name))),
                        ];
                        (m.name.clone(), Json::obj(fields))
                    })
                    .collect(),
            )
        });
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("gated", Json::Bool(self.gated())),
            ("claim", Json::Null),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("repetitions", Json::Num(REPETITIONS as f64)),
            ("client_threads", Json::Num(self.outcome.threads as f64)),
            ("nproc", Json::Num(self.env.nproc as f64)),
            ("rustc", Json::str(&self.env.rustc)),
            ("git_head", Json::str(&self.env.git_head)),
            ("scratch_fs", Json::str(&self.env.scratch_fs)),
            ("scratch_dir", Json::str(&self.env.scratch_dir)),
            ("attempted_ops", Json::Num(self.outcome.attempted as f64)),
            ("failed_ops", Json::Num(self.outcome.failed as f64)),
            (
                "latency_samples_per_repetition",
                Json::nums(&self.outcome.latency_samples),
            ),
            (
                "measurements_redone_for_steal",
                Json::Num(f64::from(self.outcome.redone)),
            ),
            ("end_to_end", Json::Obj(end_to_end)),
            ("per_layer", per_layer),
        ])
    }

    /// Every metric by name, with unit and direction.
    pub fn tables(&self) -> String {
        use std::fmt::Write;
        let o = self.outcome;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {}{}  seed {}  {} client thread(s) of {} cpu(s)  scratch on {}",
            self.workload,
            if self.gated() { "" } else { " (not gated)" },
            self.seed,
            o.threads,
            self.env.nproc,
            self.env.scratch_fs
        );
        let _ = writeln!(
            out,
            "{:<34} {:>16} {:>16} {:>16}  {:<8} {:<7} {:>6}  n",
            "end-to-end metric", "median", "q1", "q3", "unit", "better", "bound"
        );
        let mut row = |name: &str, unit: &str, better: &str, bound: Option<f64>, s: &Summary| {
            let bound = bound.map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0));
            let _ = writeln!(
                out,
                "{name:<34} {:>16.3} {:>16.3} {:>16.3}  {unit:<8} {better:<7} {bound:>6}  {}",
                s.median,
                s.q1,
                s.q3,
                s.raw.len()
            );
        };
        for m in &self.spec.end_to_end {
            row(
                &m.name,
                &m.unit,
                &m.better,
                m.bound,
                self.end_to_end(&m.name),
            );
        }
        row(
            "latency_p99_us (not gated)",
            "us",
            "lower",
            None,
            &o.latency_p99_us,
        );
        let _ = writeln!(
            out,
            "failed_ops / attempted_ops: {} / {}",
            o.failed, o.attempted
        );
        if o.redone > 0 {
            let _ = writeln!(
                out,
                "measurements made again because CPU time was stolen: {}",
                o.redone
            );
        }
        if let Some(traced) = &o.traced {
            let _ = writeln!(
                out,
                "-- per layer, from a traced repetition of {} ops ({:.0} ns/op traced)",
                traced.shares.ops,
                traced.shares.op_ns as f64 / traced.shares.ops.max(1) as f64
            );
            let _ = writeln!(
                out,
                "{:<34} {:>16}  {:<8} better",
                "layer metric", "value", "unit"
            );
            for m in &self.spec.per_layer {
                let _ = writeln!(
                    out,
                    "{:<34} {:>16.3}  {:<8} {}",
                    m.name,
                    self.per_layer(&m.name),
                    m.unit,
                    m.better
                );
            }
        }
        out
    }
}
