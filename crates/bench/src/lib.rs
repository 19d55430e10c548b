//! Benchmark harness support for the Glider reproduction.
//!
//! Every table and figure of the paper's evaluation has a binary in
//! `src/bin` that regenerates it (see EXPERIMENTS.md):
//!
//! | Binary | Paper artifact |
//! |--------|----------------|
//! | `table2` | Table 2 — ingest pipeline (Data-shipping / Glider / Glider RDMA) |
//! | `fig5`   | Fig. 5 — reduce sweep over worker counts |
//! | `fig6`   | Fig. 6 — action vs file bandwidth, buffer-size and action-count sweeps |
//! | `fig7`   | Fig. 7 — distributed sort, P1/P2 per worker count |
//! | `fig9`   | Fig. 9 — genomics variant calling across `a×q,r` points |
//! | `all`    | runs everything in sequence |
//!
//! Each binary accepts `--scale <f64>` (default 1.0, also the
//! `GLIDER_SCALE` environment variable) to grow or shrink the data sizes
//! while preserving the experiment's shape; the defaults complete on a
//! laptop in minutes.
//!
//! The performance gate of record is not here but in `BENCHMARK.json` →
//! `benchmark/` (README.md, "Performance gate").

pub mod chaos;

use bytes::Bytes;
use glider_core::{ActionSpec, Cluster, ClusterConfig, GliderResult, StoreClient};
use glider_util::stopwatch::gbps;
use glider_util::ByteSize;
use std::time::Duration;

/// Parses `--scale` from argv, falling back to `GLIDER_SCALE`, then 1.0.
pub fn scale_from_args() -> f64 {
    let args: Vec<String> = std::env::args().collect();
    for window in args.windows(2) {
        if window[0] == "--scale" {
            if let Ok(v) = window[1].parse::<f64>() {
                return v.max(0.01);
            }
        }
    }
    std::env::var("GLIDER_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .map(|v: f64| v.max(0.01))
        .unwrap_or(1.0)
}

/// Scales a count by the harness scale factor (at least 1).
pub fn scaled(base: usize, scale: f64) -> usize {
    ((base as f64 * scale) as usize).max(1)
}

/// Builds the multi-threaded runtime the harnesses run on.
///
/// # Panics
///
/// Panics if the runtime cannot be built.
pub fn runtime() -> tokio::runtime::Runtime {
    tokio::runtime::Builder::new_multi_thread()
        .enable_all()
        .build()
        .expect("tokio runtime")
}

/// Prints a row of fixed-width columns.
pub fn print_row(cols: &[String], widths: &[usize]) {
    let mut line = String::new();
    for (col, width) in cols.iter().zip(widths) {
        line.push_str(&format!("{col:<width$}  "));
    }
    println!("{}", line.trim_end());
}

/// Prints a separator under a header row.
pub fn print_rule(widths: &[usize]) {
    let total: usize = widths.iter().sum::<usize>() + widths.len() * 2;
    println!("{}", "-".repeat(total));
}

// ---------------------------------------------------------------------------
// Fig. 6 micro-benchmark machinery
// ---------------------------------------------------------------------------

/// A cluster prepared for bandwidth micro-benchmarks with a given stream
/// chunk ("buffer") size.
pub struct BwHarness {
    /// The cluster under test.
    pub cluster: Cluster,
    chunk: ByteSize,
}

impl BwHarness {
    /// Starts a cluster sized for `total` bytes of traffic with the given
    /// buffer size.
    ///
    /// # Errors
    ///
    /// Propagates cluster start failures.
    pub async fn start(total: ByteSize, chunk: ByteSize, actions: u64) -> GliderResult<Self> {
        let blocks = (total.as_u64() * 2).div_ceil(ByteSize::mib(1).as_u64()) + 16;
        let cluster = Cluster::start(
            ClusterConfig::default()
                .with_data(1, blocks)
                .with_active(1, actions.max(8)),
        )
        .await?;
        Ok(BwHarness { cluster, chunk })
    }

    /// A client using the harness buffer size.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub async fn client(&self) -> GliderResult<StoreClient> {
        let config = self.cluster.client_config().with_chunk_size(self.chunk);
        StoreClient::connect(config).await
    }

    /// Writes `total` bytes to a fresh file; returns achieved Gbit/s.
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub async fn file_write(&self, path: &str, total: ByteSize) -> GliderResult<f64> {
        let store = self.client().await?;
        let file = store.create_file(path).await?;
        let chunk = vec![0u8; self.chunk.as_usize()];
        let start = std::time::Instant::now();
        let mut out = file.output_stream().await?;
        let mut remaining = total.as_u64();
        while remaining > 0 {
            let n = remaining.min(chunk.len() as u64) as usize;
            out.write(Bytes::copy_from_slice(&chunk[..n])).await?;
            remaining -= n as u64;
        }
        out.close().await?;
        Ok(gbps(total.as_u64(), start.elapsed()))
    }

    /// Reads an existing file back fully; returns achieved Gbit/s.
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub async fn file_read(&self, path: &str) -> GliderResult<f64> {
        let store = self.client().await?;
        let file = store.lookup_file(path).await?;
        let start = std::time::Instant::now();
        let mut reader = file.input_stream().await?;
        let mut total = 0u64;
        while let Some(chunk) = reader.next_chunk().await? {
            total += chunk.len() as u64;
        }
        Ok(gbps(total, start.elapsed()))
    }

    /// Writes `total` bytes into a `null` action (empty `on_write`);
    /// returns achieved Gbit/s.
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub async fn action_write(&self, path: &str, total: ByteSize) -> GliderResult<f64> {
        let store = self.client().await?;
        let action = store
            .create_action(path, ActionSpec::new("null", false))
            .await?;
        let chunk = vec![0u8; self.chunk.as_usize()];
        let start = std::time::Instant::now();
        let mut out = action.output_stream().await?;
        let mut remaining = total.as_u64();
        while remaining > 0 {
            let n = remaining.min(chunk.len() as u64) as usize;
            out.write(Bytes::copy_from_slice(&chunk[..n])).await?;
            remaining -= n as u64;
        }
        out.close().await?;
        Ok(gbps(total.as_u64(), start.elapsed()))
    }

    /// Reads `total` bytes from a `null` action (empty `on_read` emitting
    /// zeros); returns achieved Gbit/s.
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub async fn action_read(&self, path: &str, total: ByteSize) -> GliderResult<f64> {
        let store = self.client().await?;
        let action = store
            .create_action(
                path,
                ActionSpec::new("null", false).with_params(format!("size={}", total.as_u64())),
            )
            .await?;
        let start = std::time::Instant::now();
        let mut reader = action.input_stream().await?;
        let mut got = 0u64;
        while let Some(chunk) = reader.next_chunk().await? {
            got += chunk.len() as u64;
        }
        reader.close().await?;
        debug_assert_eq!(got, total.as_u64());
        Ok(gbps(got, start.elapsed()))
    }

    /// Aggregate bandwidth of `n` parallel actions, each moving `per`
    /// bytes with a dedicated client (the Fig. 6 bottom experiment).
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub async fn parallel_action_write(&self, n: usize, per: ByteSize) -> GliderResult<f64> {
        let mut actions = Vec::new();
        for i in 0..n {
            let store = self.client().await?;
            let action = store
                .create_action(&format!("/scale-{i}"), ActionSpec::new("null", false))
                .await?;
            actions.push(action);
        }
        let chunk_len = self.chunk.as_usize();
        let start = std::time::Instant::now();
        let mut tasks = Vec::new();
        for action in actions {
            tasks.push(tokio::spawn(async move {
                let chunk = vec![0u8; chunk_len];
                let mut out = action.output_stream().await?;
                let mut remaining = per.as_u64();
                while remaining > 0 {
                    let n = remaining.min(chunk.len() as u64) as usize;
                    out.write(Bytes::copy_from_slice(&chunk[..n])).await?;
                    remaining -= n as u64;
                }
                out.close().await?;
                Ok::<(), glider_core::GliderError>(())
            }));
        }
        for t in tasks {
            t.await.expect("action writer panicked")?;
        }
        Ok(gbps(per.as_u64() * n as u64, start.elapsed()))
    }

    /// Aggregate bandwidth of `n` parallel file writers (the Fig. 6
    /// bottom comparison line).
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub async fn parallel_file_write(&self, n: usize, per: ByteSize) -> GliderResult<f64> {
        let mut files = Vec::new();
        for i in 0..n {
            let store = self.client().await?;
            files.push(store.create_file(&format!("/scale-file-{i}")).await?);
        }
        let chunk_len = self.chunk.as_usize();
        let start = std::time::Instant::now();
        let mut tasks = Vec::new();
        for file in files {
            tasks.push(tokio::spawn(async move {
                let chunk = vec![0u8; chunk_len];
                let mut out = file.output_stream().await?;
                let mut remaining = per.as_u64();
                while remaining > 0 {
                    let n = remaining.min(chunk.len() as u64) as usize;
                    out.write(Bytes::copy_from_slice(&chunk[..n])).await?;
                    remaining -= n as u64;
                }
                out.close().await?;
                Ok::<(), glider_core::GliderError>(())
            }));
        }
        for t in tasks {
            t.await.expect("file writer panicked")?;
        }
        Ok(gbps(per.as_u64() * n as u64, start.elapsed()))
    }
}

/// Formats a duration as seconds with milliseconds.
pub fn secs(d: Duration) -> String {
    format!("{:.3}s", d.as_secs_f64())
}

/// Formats bytes in binary units.
pub fn bytes_h(b: u64) -> String {
    ByteSize::bytes(b).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_clamps() {
        assert_eq!(scaled(10, 0.0001), 1);
        assert_eq!(scaled(10, 2.0), 20);
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn bandwidth_harness_round_trips() {
        let h = BwHarness::start(ByteSize::mib(2), ByteSize::kib(64), 4)
            .await
            .unwrap();
        let w = h.file_write("/f", ByteSize::mib(2)).await.unwrap();
        let r = h.file_read("/f").await.unwrap();
        let aw = h.action_write("/a", ByteSize::mib(2)).await.unwrap();
        let ar = h.action_read("/ar", ByteSize::mib(2)).await.unwrap();
        for v in [w, r, aw, ar] {
            assert!(v.is_finite() && v > 0.0);
        }
        let pw = h.parallel_action_write(2, ByteSize::mib(1)).await.unwrap();
        let pf = h.parallel_file_write(2, ByteSize::mib(1)).await.unwrap();
        assert!(pw > 0.0 && pf > 0.0);
    }
}
