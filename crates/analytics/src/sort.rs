//! Fig. 7: distributed sort (§7.3).
//!
//! Sorting is the severe case of serverless shuffling: the temporary data
//! contains the full dataset. The baseline runs two worker stages over
//! files — map (P1) partitions input records to per-reducer files, reduce
//! (P2) reads them back, sorts, writes results — transferring the dataset
//! four times. Glider replaces the reduce stage with `sorter` actions:
//! the map stage streams partitions straight into the actions (which
//! parse in parallel with the mappers), and P2 sorts *inside* the storage
//! cluster, writing result files without shipping the data back — a 50%
//! cut in data movement and the paper's ~50% run-time reduction at 16
//! workers.

use crate::kernels;
use crate::report::WorkloadReport;
use bytes::Bytes;
use glider_core::{ActionSpec, Cluster, ClusterConfig, GliderError, GliderResult, StoreClient};
use glider_gen::{RecordGen, SORT_KEY_LEN, SORT_RECORD_LEN};
use glider_util::{ByteSize, Stopwatch};

/// Configuration of the Fig. 7 experiment.
#[derive(Debug, Clone)]
pub struct SortConfig {
    /// Number of map workers; the reduce side uses the same count (paper
    /// sweeps 1, 2, 4, 8, 16).
    pub workers: usize,
    /// Records per worker (paper: 1 GiB ≈ 10.7M records; scaled down).
    pub records_per_worker: usize,
    /// Generator seed.
    pub seed: u64,
}

impl Default for SortConfig {
    fn default() -> Self {
        SortConfig {
            workers: 4,
            records_per_worker: 50_000,
            seed: 0x50B7,
        }
    }
}

/// Result of one sort run.
#[derive(Debug)]
pub struct SortOutcome {
    /// Timings (phases `P1`, `P2`) and indicator snapshot.
    pub report: WorkloadReport,
    /// Total records in the sorted output.
    pub output_records: u64,
    /// Order-independent checksum of the output records (validation:
    /// equal to the input's and across implementations).
    pub output_checksum: u64,
}

/// Which reducer a record key belongs to: fixed first-byte ranges.
fn partition_of(key: &[u8], reducers: usize) -> usize {
    ((key[0] as usize) * reducers) / 256
}

async fn upload_inputs(store: &StoreClient, cfg: &SortConfig) -> GliderResult<u64> {
    store.create_dir("/sort").await?;
    store.create_dir("/sort/in").await?;
    store.create_dir("/sort/tmp").await?;
    store.create_dir("/sort/out").await?;
    let mut total = 0u64;
    for w in 0..cfg.workers {
        let mut gen = RecordGen::new(cfg.seed + w as u64);
        let data = gen.generate_records(cfg.records_per_worker);
        total += data.len() as u64;
        let file = store.create_file(&format!("/sort/in/{w}")).await?;
        file.write_all(Bytes::from(data)).await?;
    }
    Ok(total)
}

/// Reads, partitions and returns the partition buffers for one mapper.
///
/// Partitioning uses the radix kernel: the partition function depends
/// only on the first key byte, so each record-aligned region is scattered
/// with a count-then-copy pass instead of a per-record append.
async fn map_partitions(
    store: &StoreClient,
    worker: usize,
    reducers: usize,
) -> GliderResult<Vec<Vec<u8>>> {
    let file = store.lookup_file(&format!("/sort/in/{worker}")).await?;
    let mut reader = file.input_stream().await?;
    let mut buffers: Vec<Vec<u8>> = vec![Vec::new(); reducers];
    let mut carry: Vec<u8> = Vec::new();
    while let Some(chunk) = reader.next_chunk().await? {
        carry.extend_from_slice(&chunk);
        let full = (carry.len() / SORT_RECORD_LEN) * SORT_RECORD_LEN;
        kernels::radix_partition_into(&carry[..full], SORT_RECORD_LEN, &mut buffers);
        carry.drain(..full);
    }
    debug_assert!(carry.is_empty(), "input is record-aligned");
    Ok(buffers)
}

async fn validate_outputs(store: &StoreClient, reducers: usize) -> GliderResult<(u64, u64)> {
    let mut records = 0u64;
    let mut checksum = 0u64;
    for r in 0..reducers {
        let file = store.lookup_file(&format!("/sort/out/{r}")).await?;
        let data = file.read_all().await?;
        assert_eq!(data.len() % SORT_RECORD_LEN, 0, "output record-aligned");
        let mut prev: Option<Vec<u8>> = None;
        for rec in data.chunks(SORT_RECORD_LEN) {
            let key = rec[..SORT_KEY_LEN].to_vec();
            if let Some(p) = &prev {
                assert!(p <= &key, "output of reducer {r} must be sorted");
            }
            assert_eq!(partition_of(&key, reducers), r, "record in right range");
            prev = Some(key);
            records += 1;
        }
        checksum =
            checksum.wrapping_add(crate::text::multiset_checksum(data.chunks(SORT_RECORD_LEN)));
    }
    Ok((records, checksum))
}

/// Runs the data-shipping baseline sort (two worker stages over files).
///
/// # Errors
///
/// Propagates cluster and storage failures.
pub async fn run_baseline(cfg: &SortConfig) -> GliderResult<SortOutcome> {
    let cluster = Cluster::start(cluster_config(cfg)).await?;
    let setup = cluster.client().await?;
    upload_inputs(&setup, cfg).await?;
    cluster.metrics().reset();
    let reducers = cfg.workers;

    let mut sw = Stopwatch::start();
    // P1 (map): partition input into per-(worker, reducer) files.
    let mut tasks = Vec::new();
    for w in 0..cfg.workers {
        let store = cluster.client().await?;
        tasks.push(tokio::spawn(async move {
            let buffers = map_partitions(&store, w, reducers).await?;
            for (r, buf) in buffers.into_iter().enumerate() {
                let file = store.create_file(&format!("/sort/tmp/{w}-{r}")).await?;
                file.write_all(Bytes::from(buf)).await?;
            }
            Ok::<(), GliderError>(())
        }));
    }
    for t in tasks {
        t.await.expect("mapper panicked")?;
    }
    sw.lap("P1");

    // P2 (reduce): read the shuffle files back, sort, write results.
    let mut tasks = Vec::new();
    for r in 0..reducers {
        let store = cluster.client().await?;
        let workers = cfg.workers;
        tasks.push(tokio::spawn(async move {
            let mut data = Vec::new();
            for w in 0..workers {
                let file = store.lookup_file(&format!("/sort/tmp/{w}-{r}")).await?;
                let mut reader = file.input_stream().await?;
                while let Some(chunk) = reader.next_chunk().await? {
                    data.extend_from_slice(&chunk);
                }
            }
            // Radix-bucketed stable sort: byte-identical output to the
            // old index sort, without comparing across key-byte buckets.
            let sorted = kernels::sort_records_by_key(&data, SORT_RECORD_LEN, SORT_KEY_LEN);
            let out = store.create_file(&format!("/sort/out/{r}")).await?;
            out.write_all(Bytes::from(sorted)).await?;
            Ok::<(), GliderError>(())
        }));
    }
    for t in tasks {
        t.await.expect("reducer panicked")?;
    }
    sw.lap("P2");
    let elapsed = sw.elapsed();
    let snapshot = cluster.metrics().snapshot();

    let verify = cluster.client().await?;
    let (output_records, output_checksum) = validate_outputs(&verify, reducers).await?;
    let mut report = WorkloadReport::new(
        format!("sort baseline w={}", cfg.workers),
        elapsed,
        sw.laps().to_vec(),
        snapshot,
    );
    report.fact("output_records", output_records);
    Ok(SortOutcome {
        report,
        output_records,
        output_checksum,
    })
}

/// Runs the Glider sort: mappers stream partitions into `sorter` actions;
/// P2 sorts near data and writes results from inside the cluster.
///
/// # Errors
///
/// Propagates cluster and storage failures.
pub async fn run_glider(cfg: &SortConfig) -> GliderResult<SortOutcome> {
    let cluster = Cluster::start(cluster_config(cfg)).await?;
    let setup = cluster.client().await?;
    upload_inputs(&setup, cfg).await?;
    let reducers = cfg.workers;
    setup.create_dir("/sort/actions").await?;
    for r in 0..reducers {
        setup
            .create_action(
                &format!("/sort/actions/{r}"),
                ActionSpec::new("sorter", true).with_params(format!(
                    "out=/sort/out/{r};record={SORT_RECORD_LEN};key={SORT_KEY_LEN}"
                )),
            )
            .await?;
    }
    cluster.metrics().reset();

    let mut sw = Stopwatch::start();
    // P1 (map): stream partitions directly into the sorter actions.
    let mut tasks = Vec::new();
    for w in 0..cfg.workers {
        let store = cluster.client().await?;
        tasks.push(tokio::spawn(async move {
            let buffers = map_partitions(&store, w, reducers).await?;
            for (r, buf) in buffers.into_iter().enumerate() {
                let action = store.lookup_action(&format!("/sort/actions/{r}")).await?;
                let mut out = action.output_stream().await?;
                out.write(Bytes::from(buf)).await?;
                out.close().await?;
            }
            Ok::<(), GliderError>(())
        }));
    }
    for t in tasks {
        t.await.expect("mapper panicked")?;
    }
    sw.lap("P1");

    // P2: trigger each action to sort and write its result file from
    // inside the storage cluster (the driver only reads a tiny summary).
    let mut tasks = Vec::new();
    for r in 0..reducers {
        let store = cluster.client().await?;
        tasks.push(tokio::spawn(async move {
            let action = store.lookup_action(&format!("/sort/actions/{r}")).await?;
            let summary = action.read_all().await?;
            let text = String::from_utf8_lossy(&summary);
            if !text.starts_with("records=") {
                return Err(GliderError::protocol(format!(
                    "unexpected sorter summary: {text:?}"
                )));
            }
            Ok::<(), GliderError>(())
        }));
    }
    for t in tasks {
        t.await.expect("trigger panicked")?;
    }
    sw.lap("P2");
    let elapsed = sw.elapsed();
    let snapshot = cluster.metrics().snapshot();

    let verify = cluster.client().await?;
    let (output_records, output_checksum) = validate_outputs(&verify, reducers).await?;
    let mut report = WorkloadReport::new(
        format!("sort glider w={}", cfg.workers),
        elapsed,
        sw.laps().to_vec(),
        snapshot,
    );
    report.fact("output_records", output_records);
    Ok(SortOutcome {
        report,
        output_records,
        output_checksum,
    })
}

fn cluster_config(cfg: &SortConfig) -> ClusterConfig {
    // Capacity: inputs + shuffle + outputs, with headroom. The baseline's
    // shuffle creates workers² temporary files, each wasting a partial
    // tail block, so budget one extra block per file.
    let bytes = (cfg.workers * cfg.records_per_worker * SORT_RECORD_LEN) as u64;
    let blocks = (bytes * 4).div_ceil(ByteSize::mib(1).as_u64()).max(64)
        + 2 * (cfg.workers * cfg.workers) as u64
        + 4 * cfg.workers as u64;
    ClusterConfig::default()
        .with_data(1, blocks)
        .with_active(2, cfg.workers.max(8) as u64)
}

/// Expected input multiset checksum (for cross-validating outcomes).
pub fn input_checksum(cfg: &SortConfig) -> u64 {
    let mut checksum = 0u64;
    for w in 0..cfg.workers {
        let mut gen = RecordGen::new(cfg.seed + w as u64);
        let data = gen.generate_records(cfg.records_per_worker);
        checksum =
            checksum.wrapping_add(crate::text::multiset_checksum(data.chunks(SORT_RECORD_LEN)));
    }
    checksum
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SortConfig {
        SortConfig {
            workers: 3,
            records_per_worker: 3_000,
            seed: 21,
        }
    }

    #[test]
    fn partitioning_covers_all_reducers() {
        for reducers in [1, 2, 3, 7, 16] {
            assert_eq!(partition_of(&[0], reducers), 0);
            assert_eq!(partition_of(&[255], reducers), reducers - 1);
            for b in 0..=255u8 {
                let p = partition_of(&[b], reducers);
                assert!(p < reducers);
            }
        }
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn baseline_sorts_correctly() {
        let cfg = small();
        let out = run_baseline(&cfg).await.unwrap();
        assert_eq!(out.output_records as usize, 3 * cfg.records_per_worker);
        assert_eq!(out.output_checksum, input_checksum(&cfg));
        assert!(out.report.phase("P1").is_some());
        assert!(out.report.phase("P2").is_some());
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn glider_sorts_identically_with_less_movement() {
        let cfg = small();
        let base = run_baseline(&cfg).await.unwrap();
        let glider = run_glider(&cfg).await.unwrap();
        assert_eq!(glider.output_records, base.output_records);
        assert_eq!(glider.output_checksum, base.output_checksum);
        // Paper: Glider cuts data movement to half (reads input + writes
        // shuffle once; no read-back, results written near data).
        let b = base.report.tier_crossing_bytes();
        let g = glider.report.tier_crossing_bytes();
        assert!((g as f64) < (b as f64) * 0.65, "glider {g} vs baseline {b}");
    }
}
