//! The Glider metadata server: the RPC shell over
//! [`glider_namespace::service`], whose [`MetaService::apply`] answers
//! every request. The shell adds what needs a runtime: the listener, the
//! clock, the lease sweeper (every quarter lease: [`MetaService::sweep`],
//! then [`MetaService::maintenance`]), the replica copies that repairs
//! plan, and the test-only `alloc_delay` before `AddBlocks`.

use futures::future::BoxFuture;
use glider_metrics::{MetricsRegistry, Tier};
use glider_namespace::service::{CopyPlan, MetaService};
use glider_net::rpc::{ConnCtx, RpcClient, RpcHandler, ServerHandle};
use glider_proto::message::{RequestBody, ResponseBody};
use glider_proto::GliderResult;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use glider_namespace::service::MetadataOptions;

/// A running metadata server.
///
/// Dropping the handle stops the server.
///
/// # Examples
///
/// ```no_run
/// # async fn demo() -> glider_proto::GliderResult<()> {
/// use glider_metadata::MetadataServer;
/// use glider_metrics::MetricsRegistry;
///
/// let metrics = MetricsRegistry::new();
/// let server = MetadataServer::start("127.0.0.1:0", metrics).await?;
/// println!("metadata at {}", server.addr());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MetadataServer {
    handle: ServerHandle,
    sweeper: tokio::task::JoinHandle<()>,
}

impl MetadataServer {
    /// Binds `addr` and starts serving the metadata plane with default
    /// options.
    ///
    /// # Errors
    ///
    /// Returns an error if the listener cannot be bound.
    pub async fn start(addr: &str, metrics: Arc<MetricsRegistry>) -> GliderResult<Self> {
        MetadataServer::start_with_options(addr, metrics, MetadataOptions::default()).await
    }

    /// Binds `addr` and starts serving with explicit [`MetadataOptions`].
    ///
    /// # Errors
    ///
    /// Returns an error if the listener cannot be bound, or the WAL cannot
    /// be opened or recovered ([`MetaService::open`]).
    pub async fn start_with_options(
        addr: &str,
        metrics: Arc<MetricsRegistry>,
        options: MetadataOptions,
    ) -> GliderResult<Self> {
        let listener = glider_net::conn::bind(addr).await?;
        let service = MetaService::open(Instant::now(), options, Arc::clone(&metrics))?;
        let shell = Arc::new(Shell(service));
        let sweep = Arc::clone(&shell);
        let sweeper = tokio::spawn(async move {
            let interval = (sweep.0.options().lease / 4).max(Duration::from_millis(10));
            loop {
                tokio::time::sleep(interval).await;
                sweep.0.sweep(Instant::now());
                run_copies(&sweep.0, sweep.0.maintenance()).await;
            }
        });
        let handle = glider_net::rpc::serve(listener, shell, metrics, Tier::Storage);
        Ok(MetadataServer { handle, sweeper })
    }

    /// The dialable address of this server.
    pub fn addr(&self) -> &str {
        self.handle.addr()
    }

    /// Stops the server.
    pub fn shutdown(&self) {
        self.sweeper.abort();
        self.handle.shutdown();
    }
}

impl Drop for MetadataServer {
    fn drop(&mut self) {
        self.sweeper.abort();
    }
}

/// Executes replica copies planned by a repair: asks the server that
/// holds each source block to push the committed bytes into the new
/// backup, and reports each copy that acked ([`MetaService::copied`]).
/// Failures are logged and left for the next sweep, which plans every
/// unreported copy again.
async fn run_copies(svc: &MetaService, plans: Vec<CopyPlan>) {
    for plan in plans {
        let outcome = async {
            let client = RpcClient::connect_intra_storage(&plan.src_addr).await?;
            client
                .call_ok(RequestBody::ReplicateBlock {
                    src_block: plan.src_block,
                    dst: plan.dst.clone(),
                    len: plan.len,
                })
                .await
        }
        .await;
        let kind = match outcome {
            Ok(()) => {
                svc.copied(&plan);
                "replica.copied"
            }
            Err(_) => "replica.copy_failed",
        };
        glider_trace::structured_event(kind, "replicate-block", &plan.src_addr, 0, 0);
    }
}

/// [`MetaService`] behind the RPC listener.
struct Shell(MetaService);

impl RpcHandler for Shell {
    fn handle(
        self: Arc<Self>,
        ctx: ConnCtx,
        body: RequestBody,
    ) -> BoxFuture<'static, GliderResult<ResponseBody>> {
        Box::pin(async move {
            let _span = glider_trace::Span::child_of(ctx.span_context(), "meta.handle");
            // Repair moves data between storage servers, so it is served
            // async (locks are only held while planning).
            if let RequestBody::RepairNode { node_id } = body {
                let (plans, layout) = self.0.repair_node_locked(node_id)?;
                run_copies(&self.0, plans).await;
                return Ok(ResponseBody::ReplicatedBlocks(layout));
            }
            if let Some(delay) = self.0.options().alloc_delay {
                if matches!(body, RequestBody::AddBlocks { .. }) {
                    tokio::time::sleep(delay).await;
                }
            }
            self.0.apply(Instant::now(), body)
        })
    }
}

#[cfg(test)]
mod tests {
    //! Over-RPC smoke tests. The request semantics are tested on
    //! `MetaService::apply` directly, in `glider-namespace`.

    use super::*;
    use glider_metrics::Signal;
    use glider_proto::types::{
        BlockExtent, NodeId, NodeInfo, NodeKind, PeerTier, ServerId, ServerKind, StorageClass,
    };
    use glider_proto::ErrorCode;

    async fn setup() -> (MetadataServer, RpcClient) {
        let (server, client, _) = setup_with_metrics(MetadataOptions::default()).await;
        (server, client)
    }

    async fn setup_with_metrics(
        options: MetadataOptions,
    ) -> (MetadataServer, RpcClient, Arc<MetricsRegistry>) {
        let metrics = MetricsRegistry::new();
        let server =
            MetadataServer::start_with_options("127.0.0.1:0", Arc::clone(&metrics), options)
                .await
                .unwrap();
        let client = RpcClient::connect(server.addr(), PeerTier::Compute, None)
            .await
            .unwrap();
        (server, client, metrics)
    }

    async fn register_at(client: &RpcClient, addr: &str, cap: u64) -> ServerId {
        match client
            .call(RequestBody::RegisterServer {
                kind: ServerKind::Data,
                storage_class: StorageClass::dram(),
                addr: addr.to_string(),
                capacity_blocks: cap,
            })
            .await
            .unwrap()
        {
            ResponseBody::Registered { server_id, .. } => server_id,
            other => panic!("unexpected {other:?}"),
        }
    }

    async fn create_file(client: &RpcClient, path: &str) -> NodeInfo {
        match client
            .call(RequestBody::CreateNode {
                path: path.to_string(),
                kind: NodeKind::File,
                storage_class: None,
                action: None,
            })
            .await
            .unwrap()
        {
            ResponseBody::Node(i) => i,
            other => panic!("unexpected {other:?}"),
        }
    }

    async fn add_blocks(
        client: &RpcClient,
        node_id: NodeId,
        count: u32,
    ) -> GliderResult<Vec<BlockExtent>> {
        match client
            .call(RequestBody::AddBlocks { node_id, count })
            .await?
        {
            ResponseBody::Blocks(extents) => Ok(extents),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[tokio::test]
    async fn heartbeat_lease_walks_live_suspect_dead() {
        let lease = Duration::from_millis(40);
        let (_server, client, metrics) =
            setup_with_metrics(MetadataOptions::default().with_lease(lease)).await;
        let server_id = register_at(&client, "127.0.0.1:7001", 4).await;
        assert_eq!(metrics.snapshot().current(Signal::ServersLive), 1);

        // Heartbeats for servers the registry has never seen are rejected;
        // that is the signal a bounced server uses to re-register.
        let err = client
            .call_ok(RequestBody::Heartbeat {
                server_id: ServerId(9999),
            })
            .await
            .unwrap_err();
        assert_eq!(err.code(), ErrorCode::NotFound);

        // Silence: within a couple of leases the sweeper demotes the
        // server to Dead and the allocator refuses its blocks.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while metrics.snapshot().current(Signal::ServersDead) != 1 {
            assert!(
                std::time::Instant::now() < deadline,
                "sweeper never demoted the silent server"
            );
            tokio::time::sleep(Duration::from_millis(10)).await;
        }
        let f = create_file(&client, "/f").await;
        assert_eq!(
            add_blocks(&client, f.id, 1).await.unwrap_err().code(),
            ErrorCode::OutOfCapacity
        );

        // A heartbeat re-admits it.
        client
            .call_ok(RequestBody::Heartbeat { server_id })
            .await
            .unwrap();
        let snap = metrics.snapshot();
        assert_eq!(snap.current(Signal::ServersLive), 1);
        assert_eq!(snap.current(Signal::ServersDead), 0);
        assert_eq!(add_blocks(&client, f.id, 1).await.unwrap().len(), 1);
    }

    #[tokio::test]
    async fn create_lookup_delete_over_rpc() {
        let (_server, client) = setup().await;
        let resp = client
            .call(RequestBody::CreateNode {
                path: "/f".to_string(),
                kind: NodeKind::File,
                storage_class: None,
                action: None,
            })
            .await
            .unwrap();
        let info = match resp {
            ResponseBody::Node(info) => info,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(info.kind, NodeKind::File);
        assert!(info.blocks.is_empty());

        let resp = client
            .call(RequestBody::LookupNode {
                path: "/f".to_string(),
            })
            .await
            .unwrap();
        assert!(matches!(resp, ResponseBody::Node(i) if i.id == info.id));

        let resp = client
            .call(RequestBody::DeleteNode {
                path: "/f".to_string(),
            })
            .await
            .unwrap();
        assert!(matches!(resp, ResponseBody::Deleted { .. }));
        let err = client
            .call(RequestBody::LookupNode {
                path: "/f".to_string(),
            })
            .await
            .unwrap_err();
        assert_eq!(err.code(), ErrorCode::NotFound);
    }

    #[tokio::test]
    async fn repair_node_over_rpc_restores_the_factor() {
        let options = MetadataOptions::default().with_replication(2);
        let (_server, client, _) = setup_with_metrics(options).await;
        register_at(&client, "127.0.0.1:7801", 4).await;
        let f = create_file(&client, "/f").await;
        // One server: the block is written unreplicated.
        match client
            .call(RequestBody::AddBlocks {
                node_id: f.id,
                count: 1,
            })
            .await
            .unwrap()
        {
            ResponseBody::ReplicatedBlocks(r) => assert!(r[0].backups.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
        let s2 = register_at(&client, "127.0.0.1:7802", 4).await;
        // Nothing listens at the source address, so the copy fails and is
        // left for the next sweep; the answer already names the backup.
        let layout = match client
            .call(RequestBody::RepairNode { node_id: f.id })
            .await
            .unwrap()
        {
            ResponseBody::ReplicatedBlocks(r) => r,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(layout.len(), 1);
        assert_eq!(layout[0].backups.len(), 1);
        assert_eq!(layout[0].backups[0].server_id, s2);
    }
}
