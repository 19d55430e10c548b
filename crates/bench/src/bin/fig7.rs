//! Regenerates **Fig. 7**: the distributed sort sweep.
//!
//! Paper: workers ∈ {1, 2, 4, 8, 16}, 1 GiB per worker, phases P1 (map/
//! shuffle) and P2 (sort/write) for the baseline and Glider. Expected
//! shape: Glider always faster overall; Glider P1 slightly slower (the
//! actions parse while receiving), Glider P2 much faster (up to 71%); at
//! the largest point the total is ~50% faster.
//!
//! Run: `cargo run -p glider-bench --release --bin fig7 [--scale f]`

use glider_analytics::sort::{run_baseline, run_glider, SortConfig};
use glider_bench::{print_row, print_rule, scale_from_args, scaled};
use glider_net::stats::{build_stats, render_stats_json};

fn main() {
    let scale = scale_from_args();
    let rt = glider_bench::runtime();
    rt.block_on(async move {
        let records = scaled(100_000, scale);
        println!(
            "Fig. 7 — distributed sort, {records} records (100 B each) per worker (scale {scale})"
        );
        let widths = [8, 10, 10, 10, 10, 12];
        print_row(
            &[
                "workers".into(),
                "system".into(),
                "P1".into(),
                "P2".into(),
                "total".into(),
                "records".into(),
            ],
            &widths,
        );
        print_rule(&widths);
        let mut last_glider_metrics = None;
        for workers in [1usize, 2, 4, 8, 16] {
            let cfg = SortConfig {
                workers,
                records_per_worker: records,
                ..SortConfig::default()
            };
            let base = run_baseline(&cfg).await.expect("baseline run");
            let glider = run_glider(&cfg).await.expect("glider run");
            assert_eq!(
                base.output_checksum, glider.output_checksum,
                "results must match"
            );
            for (name, outcome) in [("baseline", &base), ("glider", &glider)] {
                print_row(
                    &[
                        workers.to_string(),
                        name.into(),
                        format!(
                            "{:.3}s",
                            outcome.report.phase("P1").unwrap_or_default().as_secs_f64()
                        ),
                        format!(
                            "{:.3}s",
                            outcome.report.phase("P2").unwrap_or_default().as_secs_f64()
                        ),
                        format!("{:.3}s", outcome.report.elapsed.as_secs_f64()),
                        outcome.output_records.to_string(),
                    ],
                    &widths,
                );
            }
            let cut = (1.0
                - glider.report.elapsed.as_secs_f64() / base.report.elapsed.as_secs_f64())
                * 100.0;
            let p2_cut = (1.0
                - glider.report.phase("P2").unwrap_or_default().as_secs_f64()
                    / base
                        .report
                        .phase("P2")
                        .unwrap_or_default()
                        .as_secs_f64()
                        .max(1e-9))
                * 100.0;
            println!(
                "  w={workers}: total run-time cut {cut:.1}% (paper: 49.8% at 16), \
                 P2 cut {p2_cut:.1}% (paper: up to 71%)"
            );
            last_glider_metrics = Some(glider.report.metrics.clone());
        }

        // Per-op latency percentiles of the largest Glider run, in the
        // same schema as `glider stats --json`; redirect stdout to keep
        // them.
        if let Some(snapshot) = last_glider_metrics {
            println!("per-op latency of the largest Glider run (`glider stats --json` schema):");
            println!("{}", render_stats_json(&build_stats(&snapshot)));
        }
    });
}
