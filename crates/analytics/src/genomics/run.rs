//! The two variant-calling pipelines (baseline on S3+SELECT, Glider on
//! actions) and their shared configuration.

use super::actions::genomics_registry;
use super::{call_variants, compute_ranges};
use crate::report::WorkloadReport;
use crate::text::multiset_checksum;
use bytes::Bytes;
use glider_core::{
    ActionSpec, Cluster, ClusterConfig, GliderError, GliderResult, MetricsRegistry, StoreClient,
};
use glider_faas::{FaasPlatform, FunctionConfig};
use glider_gen::generate_map_records;
use glider_objectstore::{ObjectClient, ObjectStore, ObjectStoreConfig, Predicate};
use glider_util::{ByteSize, Stopwatch};
use std::sync::Arc;

/// Configuration of the Fig. 9 experiment.
///
/// The paper's full run is `a=20 × q=35` (700 mappers) with `r ∈ {2,3}`
/// reducers per FASTA chunk; the x-axis of Fig. 9 sweeps scaled-down
/// configurations (`1×5,1`, `2×10,1`, `3×20,2`, `5×20,2`, `20×35,2-3`).
#[derive(Debug, Clone)]
pub struct GenomicsConfig {
    /// Number of FASTA (reference) chunks, `a`.
    pub fasta_chunks: usize,
    /// Number of FASTQ (reads) chunks, `q`.
    pub fastq_chunks: usize,
    /// Reducers per FASTA chunk, `r`.
    pub reducers_per_chunk: usize,
    /// Alignment records each of the `a×q` map tasks emits.
    pub records_per_map: usize,
    /// Position space per FASTA chunk.
    pub chunk_span: i64,
    /// Generator seed.
    pub seed: u64,
    /// Bandwidth cap for map functions in MiB/s (paper: 2 GiB Lambdas).
    pub map_bandwidth_mibps: Option<u64>,
    /// Bandwidth cap for reduce functions in MiB/s (paper: 8 GiB Lambdas).
    pub reduce_bandwidth_mibps: Option<u64>,
}

impl Default for GenomicsConfig {
    fn default() -> Self {
        GenomicsConfig {
            fasta_chunks: 2,
            fastq_chunks: 4,
            reducers_per_chunk: 2,
            records_per_map: 20_000,
            chunk_span: 1_000_000,
            seed: 0x6E_0E_5EED,
            map_bandwidth_mibps: None,
            reduce_bandwidth_mibps: None,
        }
    }
}

impl GenomicsConfig {
    /// A Fig. 9 x-axis point `a×q,r`.
    pub fn point(a: usize, q: usize, r: usize) -> Self {
        GenomicsConfig {
            fasta_chunks: a,
            fastq_chunks: q,
            reducers_per_chunk: r,
            ..GenomicsConfig::default()
        }
    }

    fn map_fn(&self) -> FunctionConfig {
        let mut cfg = FunctionConfig::default().with_memory(ByteSize::gib(2));
        if let Some(bw) = self.map_bandwidth_mibps {
            cfg = cfg.with_bandwidth_mibps(bw);
        }
        cfg
    }

    fn reduce_fn(&self) -> FunctionConfig {
        let mut cfg = FunctionConfig::default().with_memory(ByteSize::gib(8));
        if let Some(bw) = self.reduce_bandwidth_mibps {
            cfg = cfg.with_bandwidth_mibps(bw);
        }
        cfg
    }
}

/// Result of one variant-calling run.
#[derive(Debug)]
pub struct GenomicsOutcome {
    /// Timings (phases `map`, `ranges`, `reduce`) and indicator snapshot.
    pub report: WorkloadReport,
    /// Order-independent checksum of every `final_i-k` object's lines
    /// (validation: identical between baseline and Glider).
    pub variants_checksum: u64,
    /// Total variant lines called.
    pub total_variant_lines: u64,
    /// Serverless functions invoked.
    pub invocations: u64,
}

async fn collect_finals(s3: &ObjectClient) -> GliderResult<(u64, u64)> {
    let mut tagged: Vec<Vec<u8>> = Vec::new();
    let mut total_lines = 0u64;
    for key in s3.list("gen/final/").await? {
        let data = s3.get(&key).await?;
        for line in data.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
            let mut tag = key.as_bytes().to_vec();
            tag.push(b'|');
            tag.extend_from_slice(line);
            tagged.push(tag);
            total_lines += 1;
        }
    }
    Ok((
        multiset_checksum(tagged.iter().map(|v| v.as_slice())),
        total_lines,
    ))
}

/// Runs the data-shipping baseline (Fig. 8, left): mappers write S3
/// objects; samplers re-read them with SELECT to derive ranges; reducers
/// SELECT their range from every object, sort, and call variants.
///
/// # Errors
///
/// Propagates object store and FaaS failures.
pub async fn run_baseline(cfg: &GenomicsConfig) -> GliderResult<GenomicsOutcome> {
    let metrics = MetricsRegistry::new();
    let s3 = ObjectStore::new(ObjectStoreConfig::default(), Arc::clone(&metrics));
    let faas = FaasPlatform::new();

    let mut sw = Stopwatch::start();
    // ---- Map ----
    let mut map_inputs = Vec::new();
    for i in 0..cfg.fasta_chunks {
        for j in 0..cfg.fastq_chunks {
            map_inputs.push((i, j));
        }
    }
    {
        let s3 = s3.clone();
        let cfg = cfg.clone();
        faas.map_stage("map", cfg.map_fn(), map_inputs, 16, move |ctx, (i, j)| {
            let s3 = s3.client(ctx.throttle.clone());
            let cfg = cfg.clone();
            Box::pin(async move {
                let records =
                    generate_map_records(cfg.seed, i, j, cfg.records_per_map, cfg.chunk_span);
                ctx.memory.alloc(records.len() as u64)?;
                s3.put(&format!("gen/tmp/{i}-{j}"), Bytes::from(records))
                    .await
            })
        })
        .await?;
    }
    sw.lap("map");

    // ---- Ranges: one sampler function per FASTA chunk, re-reading the
    // intermediate objects with SELECT on the sample flag. ----
    let ranges: Vec<Vec<(i64, i64)>> = {
        let s3 = s3.clone();
        let cfg = cfg.clone();
        faas.map_stage(
            "sampler",
            cfg.map_fn(),
            (0..cfg.fasta_chunks).collect(),
            8,
            move |ctx, i| {
                let s3 = s3.client(ctx.throttle.clone());
                let cfg = cfg.clone();
                Box::pin(async move {
                    let mut samples = Vec::new();
                    for j in 0..cfg.fastq_chunks {
                        let picked = s3
                            .select(
                                &format!("gen/tmp/{i}-{j}"),
                                &Predicate::ColEq {
                                    col: 2,
                                    value: "s".to_string(),
                                },
                            )
                            .await?;
                        for line in picked.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
                            debug_assert!(crate::genomics::is_sample_bytes(line));
                            if let Some(pos) = crate::text::leading_i64(line) {
                                samples.push(pos);
                            }
                        }
                    }
                    Ok(compute_ranges(
                        &mut samples,
                        cfg.reducers_per_chunk,
                        cfg.chunk_span,
                    ))
                })
            },
        )
        .await?
    };
    sw.lap("ranges");

    // ---- Reduce: SELECT each reducer's range from every object. ----
    let mut reduce_inputs = Vec::new();
    for (i, chunk_ranges) in ranges.iter().enumerate() {
        for (k, (lo, hi)) in chunk_ranges.iter().enumerate() {
            reduce_inputs.push((i, k, *lo, *hi));
        }
    }
    {
        let s3 = s3.clone();
        let cfg = cfg.clone();
        faas.map_stage(
            "reduce",
            cfg.reduce_fn(),
            reduce_inputs,
            16,
            move |ctx, (i, k, lo, hi)| {
                let s3 = s3.client(ctx.throttle.clone());
                let cfg = cfg.clone();
                Box::pin(async move {
                    let mut positions = Vec::new();
                    for j in 0..cfg.fastq_chunks {
                        let rows = s3
                            .select(
                                &format!("gen/tmp/{i}-{j}"),
                                &Predicate::ColI64Range { col: 0, lo, hi },
                            )
                            .await?;
                        ctx.memory.alloc(rows.len() as u64)?;
                        for line in rows.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
                            if let Some(pos) = crate::text::leading_i64(line) {
                                positions.push(pos);
                            }
                        }
                    }
                    positions.sort_unstable();
                    let variants = call_variants(&positions);
                    s3.put(&format!("gen/final/{i}-{k}"), Bytes::from(variants))
                        .await
                })
            },
        )
        .await?;
    }
    sw.lap("reduce");
    let elapsed = sw.elapsed();
    let snapshot = metrics.snapshot();

    let (variants_checksum, total_variant_lines) = collect_finals(&s3.client(None)).await?;
    let mut report = WorkloadReport::new(
        format!(
            "genomics baseline {}x{},{}",
            cfg.fasta_chunks, cfg.fastq_chunks, cfg.reducers_per_chunk
        ),
        elapsed,
        sw.laps().to_vec(),
        snapshot,
    );
    report.fact("variant_lines", total_variant_lines);
    report.fact("invocations", faas.invocation_count());
    Ok(GenomicsOutcome {
        report,
        variants_checksum,
        total_variant_lines,
        invocations: faas.invocation_count(),
    })
}

/// Runs the Glider pipeline (Fig. 8, right): mappers stream into Sampler
/// actions, a Manager action computes ranges from the already-collected
/// samples, and Reader actions feed each reducer one sorted stream.
///
/// # Errors
///
/// Propagates cluster, object store and FaaS failures.
pub async fn run_glider(cfg: &GenomicsConfig) -> GliderResult<GenomicsOutcome> {
    let metrics = MetricsRegistry::new();
    // Enough slots for samplers + manager + readers, and blocks for the
    // intermediate files.
    let inter_bytes = (cfg.fasta_chunks * cfg.fastq_chunks * cfg.records_per_map * 20) as u64;
    let blocks = (inter_bytes * 3)
        .div_ceil(ByteSize::mib(1).as_u64())
        .max(64)
        + (cfg.fasta_chunks * cfg.fastq_chunks) as u64;
    let slots = (cfg.fasta_chunks * (1 + cfg.reducers_per_chunk) + 1) as u64 + 4;
    let cluster = Cluster::start_with_metrics(
        ClusterConfig::default()
            .with_data(2, blocks / 2 + 1)
            .with_active(2, slots / 2 + 1)
            .with_registry(genomics_registry()),
        Arc::clone(&metrics),
    )
    .await?;
    let s3 = ObjectStore::new(ObjectStoreConfig::default(), Arc::clone(&metrics));
    let faas = FaasPlatform::new();

    // Job deployment (unmeasured, like uploading Lambda code): directories
    // and the sampler/manager actions.
    let driver = cluster.client().await?;
    driver.create_dir_all("/gen/tmp").await?;
    driver.create_dir("/gen/reader").await?;
    driver.create_dir("/gen/sampler").await?;
    driver
        .create_action(
            "/gen/manager",
            ActionSpec::new("gen-manager", true).with_params(format!(
                "reducers={};span={}",
                cfg.reducers_per_chunk, cfg.chunk_span
            )),
        )
        .await?;
    for i in 0..cfg.fasta_chunks {
        driver.create_dir(&format!("/gen/tmp/{i}")).await?;
        driver
            .create_action(
                &format!("/gen/sampler/{i}"),
                ActionSpec::new("gen-sampler", true)
                    .with_params(format!("dir=/gen/tmp/{i};manager=/gen/manager;chunk={i}")),
            )
            .await?;
    }
    metrics.reset();

    let mut sw = Stopwatch::start();
    // ---- Map: stream records into the sampler actions. ----
    let mut map_inputs = Vec::new();
    for i in 0..cfg.fasta_chunks {
        for j in 0..cfg.fastq_chunks {
            map_inputs.push((i, j));
        }
    }
    {
        let client_config = cluster.client_config();
        let cfg = cfg.clone();
        faas.map_stage("map", cfg.map_fn(), map_inputs, 16, move |ctx, (i, j)| {
            let mut client_config = client_config.clone();
            client_config.throttle = ctx.throttle.clone();
            let cfg = cfg.clone();
            Box::pin(async move {
                let store = StoreClient::connect(client_config).await?;
                let records =
                    generate_map_records(cfg.seed, i, j, cfg.records_per_map, cfg.chunk_span);
                ctx.memory.alloc(records.len() as u64)?;
                let sampler = store.lookup_action(&format!("/gen/sampler/{i}")).await?;
                let mut out = sampler.output_stream().await?;
                out.write(Bytes::from(records)).await?;
                out.close().await?;
                Ok::<(), GliderError>(())
            })
        })
        .await?;
    }
    sw.lap("map");

    // ---- Ranges: samplers flush to the manager (intra-store); the
    // driver reads the ranges and deploys the reader actions. ----
    let mut flushes = Vec::new();
    for i in 0..cfg.fasta_chunks {
        let store = cluster.client().await?;
        flushes.push(tokio::spawn(async move {
            let sampler = store.lookup_action(&format!("/gen/sampler/{i}")).await?;
            let summary = sampler.read_all().await?;
            if !summary.starts_with(b"samples=") {
                return Err(GliderError::protocol("unexpected sampler summary"));
            }
            Ok::<(), GliderError>(())
        }));
    }
    for f in flushes {
        f.await.expect("sampler flush panicked")?;
    }
    let manager = driver.lookup_action("/gen/manager").await?;
    let ranges_text = String::from_utf8_lossy(&manager.read_all().await?).into_owned();
    let mut ranges: Vec<Vec<(i64, i64)>> = vec![Vec::new(); cfg.fasta_chunks];
    for line in ranges_text.lines() {
        let parts: Vec<&str> = line.split(',').collect();
        if let [chunk, _k, lo, hi] = parts[..] {
            let chunk: usize = chunk
                .parse()
                .map_err(|_| GliderError::protocol(format!("bad manager output line {line:?}")))?;
            ranges[chunk].push((
                lo.parse().map_err(|_| GliderError::protocol("bad lo"))?,
                hi.parse().map_err(|_| GliderError::protocol("bad hi"))?,
            ));
        }
    }
    for (i, chunk_ranges) in ranges.iter().enumerate() {
        for (k, (lo, hi)) in chunk_ranges.iter().enumerate() {
            driver
                .create_action(
                    &format!("/gen/reader/{i}-{k}"),
                    ActionSpec::new("gen-reader", false)
                        .with_params(format!("dir=/gen/tmp/{i};lo={lo};hi={hi}")),
                )
                .await?;
        }
    }
    sw.lap("ranges");

    // ---- Reduce: one sorted pre-filtered stream per reducer. ----
    let mut reduce_inputs = Vec::new();
    for (i, chunk_ranges) in ranges.iter().enumerate() {
        for k in 0..chunk_ranges.len() {
            reduce_inputs.push((i, k));
        }
    }
    {
        let client_config = cluster.client_config();
        let s3 = s3.clone();
        let cfg = cfg.clone();
        faas.map_stage(
            "reduce",
            cfg.reduce_fn(),
            reduce_inputs,
            16,
            move |ctx, (i, k)| {
                let mut client_config = client_config.clone();
                client_config.throttle = ctx.throttle.clone();
                let s3 = s3.client(ctx.throttle.clone());
                Box::pin(async move {
                    let store = StoreClient::connect(client_config).await?;
                    let reader = store.lookup_action(&format!("/gen/reader/{i}-{k}")).await?;
                    let mut input = reader.input_stream().await?;
                    let mut positions = Vec::new();
                    let mut scanner = crate::kernels::LineScanner::new();
                    while let Some(chunk) = input.next_chunk().await? {
                        ctx.memory.alloc(chunk.len() as u64)?;
                        scanner.push(&chunk, |line| {
                            if let Some(pos) = crate::text::leading_i64(line) {
                                positions.push(pos);
                            }
                        });
                    }
                    input.close().await?;
                    scanner.finish(|line| {
                        if let Some(pos) = crate::text::leading_i64(line) {
                            positions.push(pos);
                        }
                    });
                    // The reader action already delivers sorted data.
                    debug_assert!(positions.windows(2).all(|w| w[0] <= w[1]));
                    let variants = call_variants(&positions);
                    s3.put(&format!("gen/final/{i}-{k}"), Bytes::from(variants))
                        .await
                })
            },
        )
        .await?;
    }
    sw.lap("reduce");
    let elapsed = sw.elapsed();
    let snapshot = metrics.snapshot();

    let (variants_checksum, total_variant_lines) = collect_finals(&s3.client(None)).await?;
    let mut report = WorkloadReport::new(
        format!(
            "genomics glider {}x{},{}",
            cfg.fasta_chunks, cfg.fastq_chunks, cfg.reducers_per_chunk
        ),
        elapsed,
        sw.laps().to_vec(),
        snapshot,
    );
    report.fact("variant_lines", total_variant_lines);
    report.fact("invocations", faas.invocation_count());
    Ok(GenomicsOutcome {
        report,
        variants_checksum,
        total_variant_lines,
        invocations: faas.invocation_count(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> GenomicsConfig {
        GenomicsConfig {
            fasta_chunks: 2,
            fastq_chunks: 3,
            reducers_per_chunk: 2,
            records_per_map: 4_000,
            chunk_span: 50_000,
            seed: 99,
            map_bandwidth_mibps: None,
            reduce_bandwidth_mibps: None,
        }
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn baseline_and_glider_call_identical_variants() {
        let cfg = small();
        let base = run_baseline(&cfg).await.unwrap();
        let glider = run_glider(&cfg).await.unwrap();
        assert!(base.total_variant_lines > 0, "variants were called");
        assert_eq!(base.total_variant_lines, glider.total_variant_lines);
        assert_eq!(base.variants_checksum, glider.variants_checksum);
        // a*q mappers + a samplers + a*r reducers (baseline).
        assert_eq!(base.invocations, (2 * 3 + 2 + 2 * 2) as u64);
        // Glider needs no sampler functions.
        assert_eq!(glider.invocations, (2 * 3 + 2 * 2) as u64);
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn glider_avoids_the_sampling_read() {
        let cfg = small();
        let base = run_baseline(&cfg).await.unwrap();
        let glider = run_glider(&cfg).await.unwrap();
        // Baseline scans the full intermediate data for sampling AND for
        // every reducer's SELECT; Glider's only re-scan is the reader
        // actions', which stays inside the storage tier.
        assert!(base.report.metrics.object_scanned > 0);
        assert_eq!(glider.report.metrics.object_scanned, 0);
        // Intermediate data crosses the compute boundary fewer times with
        // Glider (paper: 3 transfers -> 2).
        let b = base.report.tier_crossing_bytes();
        let g = glider.report.tier_crossing_bytes();
        assert!((g as f64) < (b as f64), "glider {g} vs baseline {b}");
    }
}
