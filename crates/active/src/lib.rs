//! The active storage server (paper §4.2/§5).
//!
//! Active servers are storage servers whose blocks are *action slots*:
//! they register into the dedicated `active` storage class, and instead of
//! storing bytes they host an action manager that creates, executes and
//! deletes action objects. Network handling is decoupled from action
//! execution exactly as in the paper: the RPC layer enqueues data tasks on
//! per-stream queues, and per-instance executor tasks (the paper's "action
//! threads") consume them.
//!
//! Every action object receives a store client connected to the same
//! namespace (paper §6.2), so near-data operators can read and write other
//! ephemeral nodes from *inside* the storage cluster — those transfers
//! are metered as intra-storage traffic, which is the whole point of
//! shipping code to data.
//!
//! Listening on a `mem://` address puts the server on the in-process
//! RDMA-simulation fabric (see `glider-net`), used by the Table 2
//! "Glider (RDMA)" configuration for intra-storage links.

use futures::future::BoxFuture;
use glider_actions::{spawner, ActionExecutor, ActionManager, ActionRegistry};
use glider_client::{ClientConfig, StoreClient};
use glider_metrics::{MetricsRegistry, Tier};
use glider_net::rpc::{ConnCtx, RpcClient, RpcHandler, ServerHandle};
use glider_proto::message::{RequestBody, ResponseBody};
use glider_proto::types::{ServerId, ServerKind, StorageClass};
use glider_proto::{GliderError, GliderResult};
use glider_util::ByteSize;
use std::sync::Arc;
use std::time::Duration;

/// Default liveness heartbeat interval: a third of the metadata server's
/// default lease (mirrors `glider_storage::DEFAULT_HEARTBEAT_INTERVAL`;
/// the storage crate is not a dependency of this one).
pub const DEFAULT_HEARTBEAT_INTERVAL: Duration = Duration::from_secs(1);

/// Configuration for an active storage server.
#[derive(Clone)]
pub struct ActiveServerConfig {
    /// Address to listen on (`host:port`, or `mem://name` for the
    /// RDMA-simulation fabric).
    pub listen_addr: String,
    /// Metadata server to register with.
    pub metadata_addr: String,
    /// Number of action slots contributed (the storage space's size).
    pub slots: u64,
    /// Deployed action definitions available on this server.
    pub registry: Arc<ActionRegistry>,
    /// Block size of the cluster (for the actions' internal store client).
    pub block_size: ByteSize,
    /// Interval between liveness heartbeats to the metadata server. Must
    /// stay below the metadata lease.
    pub heartbeat_interval: Duration,
}

impl ActiveServerConfig {
    /// An active server on an ephemeral TCP port with the built-in action
    /// library deployed.
    pub fn new(metadata_addr: impl Into<String>, slots: u64) -> Self {
        ActiveServerConfig {
            listen_addr: "127.0.0.1:0".to_string(),
            metadata_addr: metadata_addr.into(),
            slots,
            registry: Arc::new(ActionRegistry::with_builtins()),
            block_size: ByteSize::mib(1),
            heartbeat_interval: DEFAULT_HEARTBEAT_INTERVAL,
        }
    }

    /// Sets the heartbeat interval (chaos tests shrink it along with the
    /// metadata lease).
    #[must_use]
    pub fn with_heartbeat_interval(mut self, interval: Duration) -> Self {
        self.heartbeat_interval = interval;
        self
    }

    /// Listens on the in-process RDMA-simulation fabric instead of TCP.
    #[must_use]
    pub fn on_rdma_sim(mut self, name: impl Into<String>) -> Self {
        self.listen_addr = format!("mem://{}", name.into());
        self
    }

    /// Uses a custom action registry (e.g. with workload-specific actions
    /// deployed on top of the builtins).
    #[must_use]
    pub fn with_registry(mut self, registry: Arc<ActionRegistry>) -> Self {
        self.registry = registry;
        self
    }

    /// Sets the cluster block size for the actions' store client.
    #[must_use]
    pub fn with_block_size(mut self, block_size: ByteSize) -> Self {
        self.block_size = block_size;
        self
    }
}

impl std::fmt::Debug for ActiveServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActiveServerConfig")
            .field("listen_addr", &self.listen_addr)
            .field("metadata_addr", &self.metadata_addr)
            .field("slots", &self.slots)
            .field("actions", &self.registry.names())
            .finish()
    }
}

/// A running active storage server. Dropping the handle stops it.
#[derive(Debug)]
pub struct ActiveServer {
    handle: ServerHandle,
    server_id: ServerId,
    manager: Arc<ActionManager>,
    heartbeat: tokio::task::JoinHandle<()>,
}

impl ActiveServer {
    /// Binds, registers with the metadata server, and starts serving
    /// action operations.
    ///
    /// # Errors
    ///
    /// Returns an error if binding or registration fails.
    pub async fn start(
        config: ActiveServerConfig,
        metrics: Arc<MetricsRegistry>,
    ) -> GliderResult<Self> {
        let listener = glider_net::conn::bind(&config.listen_addr).await?;
        let addr = listener.local_addr().to_string();

        let meta = RpcClient::connect_intra_storage(&config.metadata_addr).await?;
        let resp = meta
            .call(RequestBody::RegisterServer {
                kind: ServerKind::Active,
                storage_class: StorageClass::active(),
                addr: addr.clone(),
                capacity_blocks: config.slots,
            })
            .await?;
        let server_id = match resp {
            ResponseBody::Registered { server_id, .. } => server_id,
            other => {
                return Err(GliderError::protocol(format!(
                    "unexpected register response: {other:?}"
                )))
            }
        };

        // The store client handed to every action (paper §6.2). It belongs
        // to the storage tier: its traffic is intra-storage.
        let store = StoreClient::connect(
            ClientConfig::new(&config.metadata_addr)
                .intra_storage()
                .with_block_size(config.block_size)
                .with_metrics(Arc::clone(&metrics)),
        )
        .await?;

        // Instance tasks run on a dedicated core-sized worker pool (the
        // paper's network/action thread split); the serving runtime keeps
        // only connection loops and RPC dispatch.
        let manager = Arc::new(ActionManager::new(
            Arc::clone(&config.registry),
            config.slots as usize,
            Some(Arc::new(store)),
            Some(Arc::clone(&metrics)),
            spawner(Some(ActionExecutor::new())),
        ));
        let handler = Arc::new(ActiveHandler {
            manager: Arc::clone(&manager),
        });
        let handle = glider_net::rpc::serve(listener, handler, metrics, Tier::Storage);
        // Same lease-refresh loop as data storage servers (DESIGN.md §10):
        // failures are retried by the RPC layer, and an entry the registry
        // retired can only be healed by restarting the server.
        let interval = config.heartbeat_interval;
        let heartbeat = tokio::spawn(async move {
            loop {
                tokio::time::sleep(interval).await;
                let _ = meta.call_ok(RequestBody::Heartbeat { server_id }).await;
            }
        });
        Ok(ActiveServer {
            handle,
            server_id,
            manager,
            heartbeat,
        })
    }

    /// The dialable data-plane address.
    pub fn addr(&self) -> &str {
        self.handle.addr()
    }

    /// The id the metadata server assigned.
    pub fn server_id(&self) -> ServerId {
        self.server_id
    }

    /// The action manager (diagnostics).
    pub fn manager(&self) -> &Arc<ActionManager> {
        &self.manager
    }

    /// Stops the server.
    pub fn shutdown(&self) {
        self.heartbeat.abort();
        self.handle.shutdown();
    }
}

impl Drop for ActiveServer {
    fn drop(&mut self) {
        self.heartbeat.abort();
    }
}

struct ActiveHandler {
    manager: Arc<ActionManager>,
}

impl RpcHandler for ActiveHandler {
    fn handle(
        self: Arc<Self>,
        ctx: ConnCtx,
        body: RequestBody,
    ) -> BoxFuture<'static, GliderResult<ResponseBody>> {
        Box::pin(async move {
            let span = glider_trace::Span::child_of(ctx.span_context(), "active.handle");
            self.manager.serve(span.context(), body).await
        })
    }

    /// Streaming fast path: the first poll of the same `serve`, on the
    /// connection task (no spawn), so a push whose queue has room and a
    /// fetch whose chunk is ready are answered here, and the payload
    /// `Bytes` is the receive buffer's slice end to end. A request that
    /// would wait comes back for the dispatched path.
    fn try_handle_sync(
        self: Arc<Self>,
        _ctx: ConnCtx,
        body: RequestBody,
    ) -> Result<GliderResult<ResponseBody>, RequestBody> {
        self.manager.try_serve(body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use glider_metadata::MetadataServer;
    use glider_proto::types::ActionSpec;
    use glider_proto::ErrorCode;
    use glider_storage::{StorageServer, StorageServerConfig};

    struct TestCluster {
        _meta: MetadataServer,
        _data: StorageServer,
        _active: ActiveServer,
        store: StoreClient,
        metrics: Arc<MetricsRegistry>,
    }

    async fn cluster() -> TestCluster {
        let metrics = MetricsRegistry::new();
        let meta = MetadataServer::start("127.0.0.1:0", Arc::clone(&metrics))
            .await
            .unwrap();
        let data = StorageServer::start(
            StorageServerConfig::dram(meta.addr(), 64, 64 * 1024),
            Arc::clone(&metrics),
        )
        .await
        .unwrap();
        let active = ActiveServer::start(
            ActiveServerConfig::new(meta.addr(), 4).with_block_size(ByteSize::kib(64)),
            Arc::clone(&metrics),
        )
        .await
        .unwrap();
        let store = StoreClient::connect(
            ClientConfig::new(meta.addr())
                .with_block_size(ByteSize::kib(64))
                .with_chunk_size(ByteSize::kib(16))
                .with_metrics(Arc::clone(&metrics)),
        )
        .await
        .unwrap();
        TestCluster {
            _meta: meta,
            _data: data,
            _active: active,
            store,
            metrics,
        }
    }

    #[tokio::test]
    async fn counter_action_end_to_end() {
        let c = cluster().await;
        let action = c
            .store
            .create_action("/count", ActionSpec::new("counter", false))
            .await
            .unwrap();
        let n = action
            .write_all(Bytes::from(vec![7u8; 100_000]))
            .await
            .unwrap();
        assert_eq!(n, 100_000);
        let result = action.read_all().await.unwrap();
        assert_eq!(result, b"100000");
        // Transfer metering: 100 KB crossed compute->storage.
        let snap = c.metrics.snapshot();
        assert_eq!(snap.transferred(Tier::Compute, Tier::Storage), 100_000);
        assert_eq!(snap.accesses(glider_metrics::AccessKind::ActionWrite), 1);
        assert_eq!(snap.accesses(glider_metrics::AccessKind::ActionRead), 1);
    }

    #[tokio::test]
    async fn merge_action_with_concurrent_interleaved_writers() {
        let c = cluster().await;
        let action = c
            .store
            .create_action("/merge", ActionSpec::new("merge", true))
            .await
            .unwrap();
        let mut tasks = Vec::new();
        for w in 0..4i64 {
            let action = action.clone();
            tasks.push(tokio::spawn(async move {
                let mut out = action.output_stream().await.unwrap();
                for k in 0..100i64 {
                    out.write_all(format!("{k},{w}\n").as_bytes())
                        .await
                        .unwrap();
                }
                out.close().await.unwrap();
            }));
        }
        for t in tasks {
            t.await.unwrap();
        }
        let result = String::from_utf8(action.read_all().await.unwrap()).unwrap();
        let lines: Vec<&str> = result.lines().collect();
        assert_eq!(lines.len(), 100);
        // Every key accumulated 0+1+2+3 = 6.
        assert_eq!(lines[0], "0,6");
        assert_eq!(lines[99], "99,6");
    }

    #[tokio::test]
    async fn filter_action_reads_backing_file_near_data() {
        let c = cluster().await;
        let file = c.store.create_file("/input.txt").await.unwrap();
        file.write_all(Bytes::from_static(
            b"keep this line MATCH\ndrop this one\nanother MATCH here\n",
        ))
        .await
        .unwrap();
        c.metrics.reset(); // isolate the filtered read
        let action = c
            .store
            .create_action(
                "/filtered",
                ActionSpec::new("filter", false).with_params("src=/input.txt;pattern=MATCH"),
            )
            .await
            .unwrap();
        let out = String::from_utf8(action.read_all().await.unwrap()).unwrap();
        assert_eq!(out, "keep this line MATCH\nanother MATCH here\n");
        // The full file moved only inside the storage tier; the client
        // ingested just the matching lines.
        let snap = c.metrics.snapshot();
        assert!(
            snap.intra_storage_bytes() >= 54,
            "{}",
            snap.intra_storage_bytes()
        );
        assert_eq!(
            snap.transferred(Tier::Storage, Tier::Compute),
            out.len() as u64
        );
    }

    #[tokio::test]
    async fn action_errors_surface_to_client() {
        let c = cluster().await;
        // Unknown type fails create and rolls back the namespace entry.
        let err = c
            .store
            .create_action("/bad", ActionSpec::new("no-such-type", false))
            .await
            .unwrap_err();
        assert_eq!(err.code(), ErrorCode::UnknownActionType);
        assert_eq!(
            c.store.lookup("/bad").await.unwrap_err().code(),
            ErrorCode::NotFound
        );
        // Filter on a missing backing file fails the read stream.
        let action = c
            .store
            .create_action(
                "/f2",
                ActionSpec::new("filter", false).with_params("src=/nope;pattern=x"),
            )
            .await
            .unwrap();
        let err = action.read_all().await.unwrap_err();
        assert_eq!(err.code(), ErrorCode::NotFound);
    }

    #[tokio::test]
    async fn delete_node_finalizes_action_object() {
        let c = cluster().await;
        c.store
            .create_action("/tmp-action", ActionSpec::new("counter", false))
            .await
            .unwrap();
        assert_eq!(c._active.manager().instance_count(), 1);
        c.store.delete("/tmp-action").await.unwrap();
        assert_eq!(c._active.manager().instance_count(), 0);
        // Slot is reusable.
        c.store
            .create_action("/tmp-action-2", ActionSpec::new("counter", false))
            .await
            .unwrap();
    }

    #[tokio::test]
    async fn rdma_sim_fabric_works_end_to_end() {
        let metrics = MetricsRegistry::new();
        let meta = MetadataServer::start("127.0.0.1:0", Arc::clone(&metrics))
            .await
            .unwrap();
        let active = ActiveServer::start(
            ActiveServerConfig::new(meta.addr(), 2).on_rdma_sim("active-test-rdma"),
            Arc::clone(&metrics),
        )
        .await
        .unwrap();
        assert!(active.addr().starts_with("mem://"));
        let store =
            StoreClient::connect(ClientConfig::new(meta.addr()).with_metrics(Arc::clone(&metrics)))
                .await
                .unwrap();
        let action = store
            .create_action("/c", ActionSpec::new("counter", false))
            .await
            .unwrap();
        action.write_all(Bytes::from_static(b"abc")).await.unwrap();
        assert_eq!(action.read_all().await.unwrap(), b"3");
    }
}
