//! Fault-tolerance of the RPC and data planes (DESIGN.md §10): a storage
//! server killed mid-stream is healed by the writer through extent
//! replacement, the lease sweeper reports it dead, and best-effort paths
//! (delete, lookup-cache eviction) degrade gracefully.
//!
//! Note: the first test installs a large process-global flight recorder
//! (so a 64 MiB run cannot age `writer.recover` out of the default
//! 4096-span ring) that the other tests' clusters then share; it only
//! asserts span *presence*, so their spans leaking in are harmless.

use bytes::Bytes;
use glider_core::{ByteSize, Cluster, ClusterConfig, ErrorCode, StoreClient};
use glider_trace::{set_recorder, FlightRecorder};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i.wrapping_mul(31) % 251) as u8).collect()
}

/// Poll the cluster metrics until at least one server is reported dead.
async fn await_dead(cluster: &Cluster, deadline: Duration) {
    let start = Instant::now();
    loop {
        if cluster.metrics().snapshot().servers_dead >= 1 {
            return;
        }
        assert!(
            start.elapsed() < deadline,
            "no server reported dead within {deadline:?}"
        );
        tokio::time::sleep(Duration::from_millis(20)).await;
    }
}

/// Killing one of two data servers mid-stream: the writer replaces the
/// affected extents on the survivor, the stream completes, the data reads
/// back intact, and the recovery left a trace span.
#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn writer_survives_storage_server_death_mid_stream() {
    let rec = Arc::new(FlightRecorder::with_capacity(1 << 20, 1024, 1024));
    set_recorder(Some(Arc::clone(&rec)));
    let lease = Duration::from_millis(300);
    let cluster = Cluster::start(
        ClusterConfig::default()
            .with_block_size(ByteSize::kib(64))
            .with_data(2, 256)
            .with_lease(lease),
    )
    .await
    .unwrap();
    let store = cluster.client().await.unwrap();

    let total = 1024 * 1024;
    let data = Bytes::from(pattern(total));
    let file = store.create_file("/chaos").await.unwrap();
    let mut out = file.output_stream().await.unwrap();

    // First quarter-block: the current extent is still open (uncommitted),
    // so no data is lost when its server dies.
    out.write(data.slice(0..16 * 1024)).await.unwrap();
    cluster.data_servers()[0].shutdown();

    let mut off = 16 * 1024;
    while off < total {
        let end = (off + 32 * 1024).min(total);
        out.write(data.slice(off..end)).await.unwrap();
        off = end;
    }
    let written = out.close().await.unwrap();
    assert_eq!(written, total as u64);

    // Every byte survived via replacement on the live server.
    let back = file.read_all().await.unwrap();
    assert_eq!(back.len(), total);
    assert_eq!(back, data, "read-back differs after mid-stream failover");

    // The recovery is visible in the trace tree.
    assert!(
        rec.snapshot(0, 0)
            .spans
            .iter()
            .any(|s| s.name == "writer.recover"),
        "no writer.recover span recorded"
    );

    // The lease sweeper notices the silent server.
    await_dead(&cluster, Duration::from_secs(10)).await;
}

/// Deleting a node whose blocks live on an unreachable server still
/// removes the node: block release is best-effort (the data was ephemeral
/// and died with the server anyway).
#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn delete_succeeds_with_unreachable_storage_server() {
    let cluster = Cluster::start(
        ClusterConfig::default()
            .with_block_size(ByteSize::kib(16))
            .with_data(1, 64),
    )
    .await
    .unwrap();
    let store = cluster.client().await.unwrap();
    let file = store.create_file("/doomed").await.unwrap();
    file.write_all(Bytes::from(pattern(64 * 1024)))
        .await
        .unwrap();

    cluster.data_servers()[0].shutdown();
    tokio::time::sleep(Duration::from_millis(50)).await;

    store.delete("/doomed").await.unwrap();
    assert_eq!(
        store.lookup("/doomed").await.unwrap_err().code(),
        ErrorCode::NotFound
    );
}

/// An authoritative NotFound evicts the stale lookup-cache entry, so a
/// later re-creation under the same path is observed fresh.
#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn authoritative_not_found_evicts_lookup_cache_entry() {
    let cluster = Cluster::start(
        ClusterConfig::default()
            .with_block_size(ByteSize::kib(16))
            .with_data(1, 64),
    )
    .await
    .unwrap();
    let ttl = Duration::from_millis(50);
    let a = StoreClient::connect(cluster.client_config().with_lookup_cache_ttl(Some(ttl)))
        .await
        .unwrap();
    let b = cluster.client().await.unwrap();

    let f = b.create_file("/ghost").await.unwrap();
    f.write_all(Bytes::from_static(b"old")).await.unwrap();
    assert_eq!(a.lookup("/ghost").await.unwrap().size, 3);

    // Another client deletes the node behind a's back.
    b.delete("/ghost").await.unwrap();
    tokio::time::sleep(ttl + Duration::from_millis(20)).await;
    assert_eq!(
        a.lookup("/ghost").await.unwrap_err().code(),
        ErrorCode::NotFound
    );

    // Re-create under the same path: a sees the fresh node, not a ghost.
    let f2 = b.create_file("/ghost").await.unwrap();
    f2.write_all(Bytes::from_static(b"fresh")).await.unwrap();
    assert_eq!(a.lookup("/ghost").await.unwrap().size, 5);
}

/// The issue's acceptance scenario, gated behind GLIDER_CHAOS=1 because of
/// its size: one of two DRAM servers is killed mid-way through a 64 MiB
/// FileWriter stream; the stream completes via re-allocation and the dead
/// server is reported non-live within two lease periods.
#[tokio::test(flavor = "multi_thread", worker_threads = 8)]
async fn chaos_kill_one_of_two_servers_mid_64mib_stream() {
    if std::env::var("GLIDER_CHAOS").as_deref() != Ok("1") {
        eprintln!("skipping chaos test; set GLIDER_CHAOS=1 to run");
        return;
    }
    let lease = Duration::from_millis(500);
    let cluster = Cluster::start(
        ClusterConfig::default()
            .with_block_size(ByteSize::mib(1))
            .with_data(2, 96)
            .with_lease(lease),
    )
    .await
    .unwrap();
    let store = cluster.client().await.unwrap();

    let total = 64 * 1024 * 1024;
    let data = Bytes::from(pattern(total));
    let file = store.create_file("/chaos64").await.unwrap();
    let mut out = file.output_stream().await.unwrap();

    out.write(data.slice(0..256 * 1024)).await.unwrap();
    cluster.data_servers()[0].shutdown();
    let killed_at = Instant::now();
    // Watch for the sweeper's verdict concurrently with the stream so the
    // "within two lease periods" bound is measured from the kill, not from
    // whenever the 64 MiB write happens to finish.
    let metrics = std::sync::Arc::clone(cluster.metrics());
    let dead_at = tokio::spawn(async move {
        loop {
            if metrics.snapshot().servers_dead >= 1 {
                return Instant::now();
            }
            tokio::time::sleep(Duration::from_millis(20)).await;
        }
    });

    let mut off = 256 * 1024;
    while off < total {
        let end = (off + 1024 * 1024).min(total);
        out.write(data.slice(off..end)).await.unwrap();
        off = end;
    }
    assert_eq!(out.close().await.unwrap(), total as u64);

    // Non-live within two lease periods of going silent (plus sweep and
    // scheduling slack).
    let dead_at = tokio::time::timeout(Duration::from_secs(30), dead_at)
        .await
        .expect("no server reported dead within 30s")
        .unwrap();
    assert!(
        dead_at - killed_at <= 2 * lease + Duration::from_secs(1),
        "server reported dead only after {:?}",
        dead_at - killed_at
    );

    let back = file.read_all().await.unwrap();
    assert_eq!(back.len(), total);
    assert_eq!(back, data, "read-back differs after chaos failover");
}
