//! Ablation: TCP vs the in-process RDMA-simulation transport for
//! action traffic (the substitution behind Table 2's "Glider (RDMA)"
//! row — see DESIGN.md §4).

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use glider_core::{ActionSpec, Cluster, ClusterConfig};
use glider_util::ByteSize;
use std::sync::atomic::{AtomicU64, Ordering};

static UNIQUE: AtomicU64 = AtomicU64::new(0);

const TRANSFER: u64 = 4 * 1024 * 1024;

fn bench_transport(c: &mut Criterion) {
    let rt = glider_bench::runtime();
    let mut group = c.benchmark_group("transport");
    group.throughput(Throughput::Bytes(TRANSFER));
    group.sample_size(10);

    for rdma in [false, true] {
        let cluster = rt.block_on(async {
            Cluster::start(
                ClusterConfig::default()
                    .with_active(1, 256)
                    .with_rdma_sim(rdma),
            )
            .await
            .expect("cluster")
        });
        let name = if rdma { "rdma_sim" } else { "tcp" };
        let payload = Bytes::from(vec![0u8; TRANSFER as usize]);
        group.bench_with_input(
            BenchmarkId::new("action_write_4MiB", name),
            &rdma,
            |b, _| {
                b.to_async(&rt).iter(|| {
                    let cluster = &cluster;
                    let payload = payload.clone();
                    async move {
                        // The client is a storage-tier peer here so that it
                        // is *allowed* on the mem:// fabric (workers are
                        // not): this isolates the fabric cost.
                        let config = cluster
                            .client_config()
                            .with_chunk_size(ByteSize::kib(256))
                            .intra_storage();
                        let store = glider_core::StoreClient::connect(config)
                            .await
                            .expect("client");
                        let path = format!("/t-{}", UNIQUE.fetch_add(1, Ordering::Relaxed));
                        let action = store
                            .create_action(&path, ActionSpec::new("null", false))
                            .await
                            .expect("create");
                        action.write_all(payload).await.expect("write");
                        store.delete(&path).await.expect("cleanup");
                    }
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_transport);
criterion_main!(benches);
