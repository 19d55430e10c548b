//! Fig. 5: streaming aggregation of random `(key, value)` pairs.
//!
//! Workers generate random numeric pairs over a fixed key cardinality and
//! the pairs must be reduced into one dictionary. The baseline stores all
//! generated pairs as files and runs an extra reducer worker that reads
//! them back (every byte crosses the compute boundary twice); Glider
//! pushes the reduction into an interleaved `merge` action, so the data
//! crosses once and storage holds only the aggregated dictionary — the
//! paper's 50% access cut and ~99.8% utilization cut.

use crate::kernels::StreamingAggregator;
use crate::report::WorkloadReport;
use bytes::Bytes;
use glider_core::{ActionSpec, Cluster, ClusterConfig, GliderError, GliderResult};
use glider_gen::PairGen;
use glider_util::Stopwatch;
use std::collections::HashMap;

/// Configuration of the Fig. 5 experiment.
#[derive(Debug, Clone)]
pub struct ReduceConfig {
    /// Number of generating workers (paper sweeps 1, 2, 5, 10).
    pub workers: usize,
    /// Pairs per worker (paper: 50M ≈ 1 GiB; scaled down by default).
    pub pairs_per_worker: usize,
    /// Distinct keys (paper: 1024).
    pub key_cardinality: u64,
    /// Generator seed.
    pub seed: u64,
}

impl Default for ReduceConfig {
    fn default() -> Self {
        ReduceConfig {
            workers: 5,
            pairs_per_worker: 200_000,
            key_cardinality: 1024,
            seed: 0x0F16_5EED,
        }
    }
}

/// Result of one reduce run.
#[derive(Debug)]
pub struct ReduceOutcome {
    /// Timings and indicator snapshot.
    pub report: WorkloadReport,
    /// Aggregated dictionary (for validation).
    pub dictionary: HashMap<i64, i64>,
    /// Bytes of pair data the workers emitted.
    pub emitted_bytes: u64,
}

/// Pair-generation batch size (pairs per write).
const BATCH: usize = 50_000;

/// Runs the data-shipping baseline: pair files plus a reducer worker.
///
/// # Errors
///
/// Propagates cluster and storage failures.
pub async fn run_baseline(cfg: &ReduceConfig) -> GliderResult<ReduceOutcome> {
    let cluster = Cluster::start(ClusterConfig::default()).await?;
    let setup = cluster.client().await?;
    setup.create_dir("/reduce").await?;
    cluster.metrics().reset();

    let sw = Stopwatch::start();
    // Stage 1: workers emit pair files.
    let mut tasks = Vec::new();
    for w in 0..cfg.workers {
        let store = cluster.client().await?;
        let cfg = cfg.clone();
        tasks.push(tokio::spawn(async move {
            let file = store.create_file(&format!("/reduce/in-{w}")).await?;
            let mut out = file.output_stream().await?;
            let mut gen = PairGen::new(cfg.seed + w as u64, cfg.key_cardinality);
            let mut remaining = cfg.pairs_per_worker;
            let mut emitted = 0u64;
            while remaining > 0 {
                let n = remaining.min(BATCH);
                let batch = gen.generate_pairs(n);
                emitted += batch.len() as u64;
                out.write(Bytes::from(batch)).await?;
                remaining -= n;
            }
            out.close().await?;
            Ok::<u64, GliderError>(emitted)
        }));
    }
    let mut emitted_bytes = 0;
    for t in tasks {
        emitted_bytes += t.await.expect("worker task panicked")?;
    }

    // Stage 2: a reducer worker reads everything back and aggregates.
    // The aggregation kernel parses `k,v` lines straight from the chunk
    // bytes (no String per record) into an open-addressing `i64` table.
    let reducer = cluster.client().await?;
    let mut agg = StreamingAggregator::new();
    for w in 0..cfg.workers {
        let file = reducer.lookup_file(&format!("/reduce/in-{w}")).await?;
        let mut reader = file.input_stream().await?;
        while let Some(chunk) = reader.next_chunk().await? {
            agg.push_chunk(&chunk);
        }
        agg.finish();
    }
    let dict = agg.into_map();
    // Write the aggregated result so the next stage can consume it.
    let mut entries: Vec<(i64, i64)> = dict.iter().map(|(k, v)| (*k, *v)).collect();
    entries.sort_unstable();
    let mut result = String::new();
    for (k, v) in &entries {
        result.push_str(&format!("{k},{v}\n"));
    }
    let result_file = reducer.create_file("/reduce/result").await?;
    result_file.write_all(Bytes::from(result)).await?;
    let elapsed = sw.elapsed();

    let mut report = WorkloadReport::new(
        format!("reduce baseline w={}", cfg.workers),
        elapsed,
        vec![],
        cluster.metrics().snapshot(),
    );
    report.fact("distinct_keys", dict.len());
    Ok(ReduceOutcome {
        report,
        dictionary: dict,
        emitted_bytes,
    })
}

/// Runs the Glider version: workers stream pairs into one interleaved
/// `merge` action; the aggregate is immediately available for the next
/// stage without a reducer worker.
///
/// # Errors
///
/// Propagates cluster and storage failures.
pub async fn run_glider(cfg: &ReduceConfig) -> GliderResult<ReduceOutcome> {
    let cluster = Cluster::start(ClusterConfig::default()).await?;
    let setup = cluster.client().await?;
    setup.create_dir("/reduce").await?;
    setup
        .create_action("/reduce/merger", ActionSpec::new("merge", true))
        .await?;
    cluster.metrics().reset();

    let sw = Stopwatch::start();
    let mut tasks = Vec::new();
    for w in 0..cfg.workers {
        let store = cluster.client().await?;
        let cfg = cfg.clone();
        tasks.push(tokio::spawn(async move {
            let action = store.lookup_action("/reduce/merger").await?;
            let mut out = action.output_stream().await?;
            let mut gen = PairGen::new(cfg.seed + w as u64, cfg.key_cardinality);
            let mut remaining = cfg.pairs_per_worker;
            let mut emitted = 0u64;
            while remaining > 0 {
                let n = remaining.min(BATCH);
                let batch = gen.generate_pairs(n);
                emitted += batch.len() as u64;
                out.write(Bytes::from(batch)).await?;
                remaining -= n;
            }
            out.close().await?; // barrier: aggregation of this stream done
            Ok::<u64, GliderError>(emitted)
        }));
    }
    let mut emitted_bytes = 0;
    for t in tasks {
        emitted_bytes += t.await.expect("worker task panicked")?;
    }
    let elapsed = sw.elapsed();

    // Validation read (outside the measured window, like the baseline's
    // next stage): the action already holds the aggregate.
    let report_snapshot = cluster.metrics().snapshot();
    let verify = cluster.client().await?;
    let action = verify.lookup_action("/reduce/merger").await?;
    let result = action.read_all().await?;
    let mut agg = StreamingAggregator::new();
    agg.push_chunk(&result);
    agg.finish();
    let dict = agg.into_map();

    let mut report = WorkloadReport::new(
        format!("reduce glider w={}", cfg.workers),
        elapsed,
        vec![],
        report_snapshot,
    );
    report.fact("distinct_keys", dict.len());
    Ok(ReduceOutcome {
        report,
        dictionary: dict,
        emitted_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ReduceConfig {
        ReduceConfig {
            workers: 3,
            pairs_per_worker: 20_000,
            key_cardinality: 256,
            seed: 11,
        }
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn both_sides_compute_the_same_dictionary() {
        let cfg = small();
        let base = run_baseline(&cfg).await.unwrap();
        let glider = run_glider(&cfg).await.unwrap();
        assert_eq!(base.dictionary.len(), 256);
        assert_eq!(base.dictionary, glider.dictionary);
        assert_eq!(base.emitted_bytes, glider.emitted_bytes);
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn glider_halves_transfers_and_collapses_utilization() {
        let cfg = small();
        let base = run_baseline(&cfg).await.unwrap();
        let glider = run_glider(&cfg).await.unwrap();
        // Paper Fig. 5: baseline moves the data twice (write + read back),
        // Glider once.
        let base_xfer = base.report.tier_crossing_bytes();
        let glider_xfer = glider.report.tier_crossing_bytes();
        assert!(
            glider_xfer as f64 <= base_xfer as f64 * 0.6,
            "glider {glider_xfer} vs baseline {base_xfer}"
        );
        // Paper §7.1: storage accesses cut by half.
        assert!(glider.report.storage_accesses() < base.report.storage_accesses());
        // Paper §7.1: utilization ~99.8% lower (full pair files vs a
        // small dictionary).
        assert!(
            glider.report.peak_utilization() < base.report.peak_utilization() / 20,
            "glider {} vs baseline {}",
            glider.report.peak_utilization(),
            base.report.peak_utilization()
        );
    }
}
