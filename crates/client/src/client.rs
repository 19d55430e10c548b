//! The [`StoreClient`]: namespace operations and connection pooling.

use crate::action::ActionNode;
use crate::config::ClientConfig;
use crate::file::FileNode;
use crate::kv::KeyValueNode;
use glider_metrics::AccessKind;
use glider_net::rpc::{RpcClient, RpcStream};
use glider_net::BytesPool;
use glider_proto::dump::{SeriesPayload, SpanDump, WireEvent};
use glider_proto::message::{RequestBody, ResponseBody};
use glider_proto::stats::StatsPayload;
use glider_proto::types::{
    ActionSpec, BlockId, NodeInfo, NodeKind, PeerTier, ReplicaExtent, StorageClass,
};
use glider_proto::{ErrorCode, GliderError, GliderResult};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// The top-level client object (paper Table 1, *StoreClient*): connects to
/// a namespace and creates, looks up, and deletes data nodes by path.
///
/// Cloning is cheap; clones share the metadata connection and the
/// data-server connection pool.
///
/// # Examples
///
/// ```no_run
/// # async fn demo() -> glider_proto::GliderResult<()> {
/// use glider_client::{ClientConfig, StoreClient};
///
/// let store = StoreClient::connect(ClientConfig::new("127.0.0.1:9000")).await?;
/// store.create_dir("/job").await?;
/// let file = store.create_file("/job/part-0").await?;
/// let mut w = file.output_stream().await?;
/// w.write(bytes::Bytes::from_static(b"hello")).await?;
/// w.close().await?;
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct StoreClient {
    inner: Arc<Inner>,
}

struct Inner {
    /// One metadata connection per namespace partition (exactly one when
    /// unpartitioned).
    metas: Vec<RpcClient>,
    config: ClientConfig,
    pool: Mutex<HashMap<String, RpcClient>>,
    /// One flow-controlled logical stream per data server, multiplexed
    /// over the pooled connection; the block streams (file/bag readers
    /// and writers) issue their data-plane RPCs on it.
    stream_pool: Mutex<HashMap<String, Arc<RpcStream>>>,
    /// Chunk-sized buffers for action record batches: each acked batch
    /// returns its buffer here, so a steady-state writer packs records
    /// into recycled memory instead of allocating per batch.
    record_pool: Arc<BytesPool>,
    /// Recent `LookupNode` answers, keyed by path. Bounded staleness: a
    /// mutation through this client evicts eagerly; the configured TTL
    /// covers mutations from other clients.
    lookup_cache: Mutex<HashMap<String, (NodeInfo, Instant)>>,
}

/// Canonical lookup-cache key for `path`: trailing slashes are stripped
/// so `/job/` and `/job` share one entry. Without this, a delete issued
/// with a trailing slash missed the cache entry written by a slash-less
/// lookup, and the ghost answered lookups until the TTL expired.
fn cache_key(path: &str) -> String {
    let trimmed = path.trim_end_matches('/');
    if trimmed.is_empty() {
        "/".to_string()
    } else {
        trimmed.to_string()
    }
}

impl StoreClient {
    /// Connects to the namespace's metadata server.
    ///
    /// # Errors
    ///
    /// Returns an error if the metadata server is unreachable.
    pub async fn connect(config: ClientConfig) -> GliderResult<Self> {
        let addrs: Vec<String> = if config.metadata_partitions.is_empty() {
            vec![config.metadata_addr.clone()]
        } else {
            config.metadata_partitions.clone()
        };
        let mut metas = Vec::with_capacity(addrs.len());
        for addr in &addrs {
            metas.push(
                RpcClient::connect_with_metrics(addr, config.tier, None, config.metrics.clone())
                    .await?,
            );
        }
        // Enough free buffers for a full send window of batches plus the
        // ones being packed while acks are in flight.
        let record_pool = match &config.metrics {
            Some(metrics) => BytesPool::with_metrics(
                config.chunk_size.as_usize(),
                config.window * 2,
                Arc::clone(metrics),
            ),
            None => BytesPool::new(config.chunk_size.as_usize(), config.window * 2),
        };
        Ok(StoreClient {
            inner: Arc::new(Inner {
                metas,
                config,
                pool: Mutex::new(HashMap::new()),
                stream_pool: Mutex::new(HashMap::new()),
                record_pool,
                lookup_cache: Mutex::new(HashMap::new()),
            }),
        })
    }

    /// The shared buffer pool for action record batches.
    pub(crate) fn record_pool(&self) -> &Arc<BytesPool> {
        &self.inner.record_pool
    }

    /// Number of metadata partitions this client routes across.
    pub fn partition_count(&self) -> usize {
        self.inner.metas.len()
    }

    /// The client configuration.
    pub fn config(&self) -> &ClientConfig {
        &self.inner.config
    }

    /// Counts one storage access when this is a compute-tier client with
    /// metrics attached (the paper counts accesses between application
    /// workers and storage; intra-storage traffic is free).
    pub(crate) fn count_access(&self, kind: AccessKind) {
        if self.inner.config.tier == PeerTier::Compute {
            if let Some(m) = &self.inner.config.metrics {
                m.record_access(kind);
            }
        }
    }

    /// Issues a metadata RPC against the partition owning `path`,
    /// counting the access. Mutating requests evict `path` (and, for
    /// deletes, its whole subtree) from the lookup cache so later lookups
    /// through this client observe the change.
    pub(crate) async fn meta_call(
        &self,
        path: &str,
        body: RequestBody,
    ) -> GliderResult<ResponseBody> {
        self.count_access(AccessKind::Metadata);
        let invalidates = matches!(
            body,
            RequestBody::CreateNode { .. }
                | RequestBody::DeleteNode { .. }
                | RequestBody::AddBlocks { .. }
                | RequestBody::CommitBlocks { .. }
                | RequestBody::ReplaceBlock { .. }
        );
        let subtree = matches!(body, RequestBody::DeleteNode { .. });
        // The metadata server's namespace shards route by the same
        // function, so a client's partition is also the path's shard.
        let idx = glider_namespace::shard_of(path, self.inner.metas.len());
        let Some(meta) = self.inner.metas.get(idx) else {
            return Err(GliderError::protocol(format!(
                "metadata partition {idx} out of range"
            )));
        };
        let resp = meta.call(body).await;
        if invalidates {
            // Invalidate on *every* outcome, success or error: a failed
            // RPC may still have mutated server state (e.g. an ack lost
            // to a crash), so a stale positive entry is never safe to
            // keep. Keys are normalized so `delete("/f/")` evicts the
            // entry cached by `lookup("/f")`.
            let key = cache_key(path);
            let mut cache = self.inner.lookup_cache.lock();
            cache.remove(&key);
            if subtree {
                let prefix = if key == "/" {
                    "/".to_string()
                } else {
                    format!("{key}/")
                };
                cache.retain(|p, _| !p.starts_with(&prefix));
            }
        }
        resp
    }

    /// Returns (or establishes) the pooled data-plane connection to `addr`.
    ///
    /// # Errors
    ///
    /// Returns an error if dialing fails.
    pub(crate) async fn data_conn(&self, addr: &str) -> GliderResult<RpcClient> {
        if let Some(conn) = self.inner.pool.lock().get(addr) {
            return Ok(conn.clone());
        }
        let conn = RpcClient::connect_with_metrics(
            addr,
            self.inner.config.tier,
            self.inner.config.throttle.clone(),
            self.inner.config.metrics.clone(),
        )
        .await?;
        // Racing connects may both dial; last insert wins, both work.
        self.inner
            .pool
            .lock()
            .insert(addr.to_string(), conn.clone());
        Ok(conn)
    }

    /// Returns (or opens) the cached logical stream to `addr`, with the
    /// configured window as its credit allowance. The stream rides the
    /// pooled connection and survives its reconnects.
    ///
    /// # Errors
    ///
    /// Returns an error if dialing fails.
    pub(crate) async fn data_stream(&self, addr: &str) -> GliderResult<Arc<RpcStream>> {
        if let Some(stream) = self.inner.stream_pool.lock().get(addr) {
            return Ok(Arc::clone(stream));
        }
        let conn = self.data_conn(addr).await?;
        let window = u32::try_from(self.inner.config.window).unwrap_or(u32::MAX);
        let stream = Arc::new(conn.open_stream(window));
        // Racing openers may both open; last insert wins, both work (a
        // superseded stream stays valid for the calls already on it).
        self.inner
            .stream_pool
            .lock()
            .insert(addr.to_string(), Arc::clone(&stream));
        Ok(stream)
    }

    fn expect_node(resp: ResponseBody) -> GliderResult<NodeInfo> {
        match resp {
            ResponseBody::Node(info) => Ok(info),
            other => Err(GliderError::protocol(format!(
                "expected node response, got {other:?}"
            ))),
        }
    }

    /// Creates a node of `kind` at `path` with an optional storage class.
    ///
    /// # Errors
    ///
    /// Propagates metadata-server errors (missing parent, duplicate path,
    /// exhausted capacity, ...).
    pub async fn create_node(
        &self,
        path: &str,
        kind: NodeKind,
        storage_class: Option<StorageClass>,
    ) -> GliderResult<NodeInfo> {
        let resp = self
            .meta_call(
                path,
                RequestBody::CreateNode {
                    path: path.to_string(),
                    kind,
                    storage_class,
                    action: None,
                },
            )
            .await?;
        Self::expect_node(resp)
    }

    /// Creates a file node and returns its proxy.
    ///
    /// # Errors
    ///
    /// See [`StoreClient::create_node`].
    pub async fn create_file(&self, path: &str) -> GliderResult<FileNode> {
        let info = self.create_node(path, NodeKind::File, None).await?;
        Ok(FileNode::new(self.clone(), path.to_string(), info))
    }

    /// Creates a file node in a specific storage class.
    ///
    /// # Errors
    ///
    /// See [`StoreClient::create_node`].
    pub async fn create_file_in_class(
        &self,
        path: &str,
        class: StorageClass,
    ) -> GliderResult<FileNode> {
        let info = self.create_node(path, NodeKind::File, Some(class)).await?;
        Ok(FileNode::new(self.clone(), path.to_string(), info))
    }

    /// Creates a bag node (unordered multi-writer append) and returns a
    /// file-style proxy (bags share the file stream interface).
    ///
    /// # Errors
    ///
    /// See [`StoreClient::create_node`].
    pub async fn create_bag(&self, path: &str) -> GliderResult<FileNode> {
        let info = self.create_node(path, NodeKind::Bag, None).await?;
        Ok(FileNode::new(self.clone(), path.to_string(), info))
    }

    /// Creates a key-value node and returns its proxy.
    ///
    /// # Errors
    ///
    /// See [`StoreClient::create_node`].
    pub async fn create_kv(&self, path: &str) -> GliderResult<KeyValueNode> {
        let info = self.create_node(path, NodeKind::KeyValue, None).await?;
        Ok(KeyValueNode::new(self.clone(), path.to_string(), info))
    }

    /// Creates a directory node.
    ///
    /// # Errors
    ///
    /// See [`StoreClient::create_node`].
    pub async fn create_dir(&self, path: &str) -> GliderResult<()> {
        self.create_node(path, NodeKind::Directory, None).await?;
        Ok(())
    }

    /// Creates a table node (a container of key-value nodes).
    ///
    /// # Errors
    ///
    /// See [`StoreClient::create_node`].
    pub async fn create_table(&self, path: &str) -> GliderResult<()> {
        self.create_node(path, NodeKind::Table, None).await?;
        Ok(())
    }

    /// Creates a directory and all missing ancestors (idempotent).
    ///
    /// # Errors
    ///
    /// Propagates unexpected metadata errors.
    pub async fn create_dir_all(&self, path: &str) -> GliderResult<()> {
        let mut prefix = String::new();
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            prefix.push('/');
            prefix.push_str(comp);
            match self.create_dir(&prefix).await {
                Ok(()) => {}
                Err(e) if e.code() == ErrorCode::AlreadyExists => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Creates an action node, instantiates its object on the active
    /// server (running `on_create`), and returns the proxy.
    ///
    /// This performs the paper's two-step flow behind one call: the
    /// metadata server reserves the slot, then the client issues
    /// `ActionCreate` on the owning active server.
    ///
    /// # Errors
    ///
    /// Rolls the node back and returns the error if instantiation fails
    /// (unknown type, failing `on_create`).
    pub async fn create_action(&self, path: &str, spec: ActionSpec) -> GliderResult<ActionNode> {
        let resp = self
            .meta_call(
                path,
                RequestBody::CreateNode {
                    path: path.to_string(),
                    kind: NodeKind::Action,
                    storage_class: None,
                    action: Some(spec.clone()),
                },
            )
            .await?;
        let info = Self::expect_node(resp)?;
        let slot = info.single_block()?.clone();
        let conn = self.data_conn(&slot.loc.addr).await?;
        let created = conn
            .call_ok(RequestBody::ActionCreate {
                node_id: info.id,
                block_id: slot.loc.block_id,
                spec,
            })
            .await;
        if let Err(e) = created {
            // Roll back the namespace entry; ignore secondary failures.
            let _ = self
                .meta_call(
                    path,
                    RequestBody::DeleteNode {
                        path: path.to_string(),
                    },
                )
                .await;
            return Err(e);
        }
        Ok(ActionNode::new(self.clone(), path.to_string(), info))
    }

    /// Looks up any node.
    ///
    /// Served from the client's lookup cache when a fresh entry exists
    /// (see [`ClientConfig::lookup_cache_ttl`]); cache hits do not issue
    /// an RPC and are not counted as metadata accesses.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorCode::NotFound`] for unknown paths.
    pub async fn lookup(&self, path: &str) -> GliderResult<NodeInfo> {
        let ttl = self.inner.config.lookup_cache_ttl;
        let key = cache_key(path);
        if let Some(ttl) = ttl {
            if let Some((info, at)) = self.inner.lookup_cache.lock().get(&key) {
                if at.elapsed() < ttl {
                    return Ok(info.clone());
                }
            }
        }
        let resp = self
            .meta_call(
                path,
                RequestBody::LookupNode {
                    path: path.to_string(),
                },
            )
            .await;
        let resp = match resp {
            Ok(resp) => resp,
            Err(e) => {
                // The metadata server is authoritative: a NotFound must
                // evict any cached (possibly still "fresh") entry, or a
                // raised TTL could resurrect the ghost.
                if e.code() == ErrorCode::NotFound {
                    self.inner.lookup_cache.lock().remove(&key);
                }
                return Err(e);
            }
        };
        let info = Self::expect_node(resp)?;
        if ttl.is_some() {
            self.inner
                .lookup_cache
                .lock()
                .insert(key, (info.clone(), Instant::now()));
        }
        Ok(info)
    }

    /// Looks up a file or bag node and returns its proxy.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorCode::WrongNodeKind`] for other node kinds.
    pub async fn lookup_file(&self, path: &str) -> GliderResult<FileNode> {
        let info = self.lookup(path).await?;
        if !matches!(info.kind, NodeKind::File | NodeKind::Bag) {
            return Err(GliderError::new(
                ErrorCode::WrongNodeKind,
                format!("{path} is a {} node, not a file/bag", info.kind),
            ));
        }
        Ok(FileNode::new(self.clone(), path.to_string(), info))
    }

    /// Looks up an action node and returns its proxy.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorCode::WrongNodeKind`] for other node kinds.
    pub async fn lookup_action(&self, path: &str) -> GliderResult<ActionNode> {
        let info = self.lookup(path).await?;
        if info.kind != NodeKind::Action {
            return Err(GliderError::new(
                ErrorCode::WrongNodeKind,
                format!("{path} is a {} node, not an action", info.kind),
            ));
        }
        Ok(ActionNode::new(self.clone(), path.to_string(), info))
    }

    /// Looks up a key-value node and returns its proxy.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorCode::WrongNodeKind`] for other node kinds.
    pub async fn lookup_kv(&self, path: &str) -> GliderResult<KeyValueNode> {
        let info = self.lookup(path).await?;
        if info.kind != NodeKind::KeyValue {
            return Err(GliderError::new(
                ErrorCode::WrongNodeKind,
                format!("{path} is a {} node, not a key-value", info.kind),
            ));
        }
        Ok(KeyValueNode::new(self.clone(), path.to_string(), info))
    }

    /// Lists child names of a container node.
    ///
    /// # Errors
    ///
    /// Propagates metadata errors.
    pub async fn list(&self, path: &str) -> GliderResult<Vec<String>> {
        // Listing the root of a partitioned namespace merges the roots
        // of every partition.
        if path.trim_end_matches('/').is_empty() && self.inner.metas.len() > 1 {
            let mut merged = Vec::new();
            for meta in &self.inner.metas {
                self.count_access(AccessKind::Metadata);
                match meta
                    .call(RequestBody::ListChildren {
                        path: "/".to_string(),
                    })
                    .await?
                {
                    ResponseBody::Children(names) => merged.extend(names),
                    other => {
                        return Err(GliderError::protocol(format!(
                            "expected children response, got {other:?}"
                        )))
                    }
                }
            }
            merged.sort();
            return Ok(merged);
        }
        match self
            .meta_call(
                path,
                RequestBody::ListChildren {
                    path: path.to_string(),
                },
            )
            .await?
        {
            ResponseBody::Children(names) => Ok(names),
            other => Err(GliderError::protocol(format!(
                "expected children response, got {other:?}"
            ))),
        }
    }

    /// Deletes the node at `path` (recursively), releasing its blocks on
    /// data servers and finalizing its actions (`on_delete`) on active
    /// servers.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorCode::NotFound`] for unknown paths. Block release on
    /// unreachable storage servers is best-effort: the namespace entry and
    /// the allocator's bookkeeping are already updated by the metadata
    /// server, and an unreachable server's data dies with it — so a
    /// release failure is logged, not returned. Action finalization
    /// failures (a live server refusing `on_delete`) are still surfaced.
    pub async fn delete(&self, path: &str) -> GliderResult<()> {
        let resp = self
            .meta_call(
                path,
                RequestBody::DeleteNode {
                    path: path.to_string(),
                },
            )
            .await?;
        let (extents, actions) = match resp {
            ResponseBody::Deleted {
                extents, actions, ..
            } => (extents, actions),
            other => {
                return Err(GliderError::protocol(format!(
                    "expected deleted response, got {other:?}"
                )))
            }
        };
        // Group data blocks per owning server and free them.
        let mut per_server: HashMap<String, Vec<glider_proto::types::BlockId>> = HashMap::new();
        for extent in extents {
            per_server
                .entry(extent.loc.addr.clone())
                .or_default()
                .push(extent.loc.block_id);
        }
        for (addr, block_ids) in per_server {
            let freed = match self.data_conn(&addr).await {
                Ok(conn) => conn.call_ok(RequestBody::FreeBlocks { block_ids }).await,
                Err(e) => Err(e),
            };
            if let Err(e) = freed {
                eprintln!("[glider client] delete {path}: could not free blocks on {addr}: {e}");
            }
        }
        // Finalize removed action objects.
        for action in actions {
            let slot = action.single_block()?;
            let conn = self.data_conn(&slot.loc.addr).await?;
            match conn
                .call_ok(RequestBody::ActionDelete { node_id: action.id })
                .await
            {
                Ok(()) => {}
                // The object may already be gone (e.g. create rollback).
                Err(e) if e.code() == ErrorCode::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Fetches the server-side observability snapshot (latency histograms,
    /// gauges, counters) from every metadata partition and merges them.
    ///
    /// When the cluster shares one metrics registry (the in-process
    /// `Cluster` and `glider-cli serve` do), the metadata server's answer
    /// already covers block and action operations too.
    ///
    /// # Errors
    ///
    /// Propagates RPC failures from any partition.
    pub async fn stats(&self) -> GliderResult<StatsPayload> {
        let mut merged = StatsPayload::default();
        for meta in &self.inner.metas {
            match meta.call(RequestBody::Stats).await? {
                ResponseBody::Stats(payload) => merged.merge(&payload),
                other => {
                    return Err(GliderError::protocol(format!(
                        "expected stats response, got {other:?}"
                    )))
                }
            }
        }
        Ok(merged)
    }

    /// Reassembles a distributed trace (DESIGN.md §13).
    ///
    /// Fans `DumpSpans { trace_id }` out to every metadata partition and
    /// every pooled data/active connection, merges the answers (spans
    /// dedup by `(trace_id, span_id)`), and folds in this process's own
    /// flight recorder — the `client.call` roots live client-side.
    /// Unreachable servers degrade the dump instead of failing it: each
    /// one contributes a synthetic `dump.unreachable` event naming its
    /// address, and every probe is bounded by the metadata op-class
    /// deadline, so a severed `mem://` endpoint can delay the answer but
    /// never hang it.
    pub async fn trace(&self, trace_id: u64) -> GliderResult<SpanDump> {
        let mut merged = glider_net::build_span_dump("client", trace_id, 0);
        let mut targets: Vec<(String, RpcClient)> = self
            .inner
            .metas
            .iter()
            .map(|m| (m.addr().to_string(), m.clone()))
            .collect();
        {
            let pool = self.inner.pool.lock();
            for (addr, conn) in pool.iter() {
                if targets.iter().all(|(a, _)| a != addr) {
                    targets.push((addr.clone(), conn.clone()));
                }
            }
        }
        for (addr, conn) in targets {
            match conn
                .call(RequestBody::DumpSpans {
                    trace_id,
                    since_seq: 0,
                })
                .await
            {
                Ok(ResponseBody::Spans(dump)) => merged.merge(&dump),
                Ok(other) => {
                    return Err(GliderError::protocol(format!(
                        "expected span dump, got {other:?}"
                    )))
                }
                Err(_) => merged.events.push(WireEvent {
                    seq: 0,
                    kind: "dump.unreachable".to_string(),
                    op: "dump-spans".to_string(),
                    addr,
                    attempt: 0,
                    trace_id,
                }),
            }
        }
        Ok(merged)
    }

    /// Fetches the replica layout of the node at `path`: each committed
    /// extent's primary location plus its backup replicas. Backup lists
    /// are empty when the cluster runs unreplicated. Used by
    /// `glider-cli fsck` to verify replica counts and checksums.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorCode::NotFound`] for unknown paths.
    pub async fn node_replicas(&self, path: &str) -> GliderResult<Vec<ReplicaExtent>> {
        let info = self.lookup(path).await?;
        match self
            .meta_call(path, RequestBody::NodeReplicas { node_id: info.id })
            .await?
        {
            ResponseBody::ReplicatedBlocks(layout) => Ok(layout),
            other => Err(GliderError::protocol(format!(
                "expected replicated-blocks response, got {other:?}"
            ))),
        }
    }

    /// Asks the metadata server to repair the node at `path`: promote
    /// backups over dead primaries, prune dead backups, and re-replicate
    /// up to the configured factor. Returns the repaired layout. This is
    /// the RPC behind `glider-cli fsck --repair`; the background sweeper
    /// runs the same repair on its own schedule.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorCode::NotFound`] for unknown paths.
    pub async fn repair_node(&self, path: &str) -> GliderResult<Vec<ReplicaExtent>> {
        let info = self.lookup(path).await?;
        match self
            .meta_call(path, RequestBody::RepairNode { node_id: info.id })
            .await?
        {
            ResponseBody::ReplicatedBlocks(layout) => Ok(layout),
            other => Err(GliderError::protocol(format!(
                "expected replicated-blocks response, got {other:?}"
            ))),
        }
    }

    /// Reads `[offset, offset+len)` of one block directly from the data
    /// server at `addr`. Verification-plane helper for `glider-cli fsck`,
    /// which checks each replica's bytes independently — regular reads go
    /// through [`FileNode::input_stream`](crate::FileNode::input_stream).
    ///
    /// # Errors
    ///
    /// Propagates connection and read failures.
    pub async fn read_block(
        &self,
        addr: &str,
        block_id: BlockId,
        offset: u64,
        len: u64,
    ) -> GliderResult<bytes::Bytes> {
        self.count_access(AccessKind::FileRead);
        let conn = self.data_conn(addr).await?;
        match conn
            .call(RequestBody::ReadBlock {
                block_id,
                offset,
                len,
            })
            .await?
        {
            ResponseBody::Data { bytes, .. } => Ok(bytes),
            other => Err(GliderError::protocol(format!(
                "expected data response, got {other:?}"
            ))),
        }
    }

    /// Fetches the per-op time-series rings and exemplar grid
    /// (`MetricsSeries`) from every metadata partition, one payload per
    /// answering server. Data/active servers are not queried separately:
    /// in the shared-registry deployments (`Cluster`, `glider-cli serve`)
    /// the metadata answer already covers them, and asking twice would
    /// double-count every tick.
    ///
    /// # Errors
    ///
    /// Propagates RPC failures from any partition.
    pub async fn series(&self) -> GliderResult<Vec<SeriesPayload>> {
        let mut out = Vec::new();
        for meta in &self.inner.metas {
            match meta.call(RequestBody::MetricsSeries).await? {
                ResponseBody::Series(payload) => out.push(payload),
                other => {
                    return Err(GliderError::protocol(format!(
                        "expected series response, got {other:?}"
                    )))
                }
            }
        }
        Ok(out)
    }
}

impl std::fmt::Debug for StoreClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreClient")
            .field("metadata_addr", &self.inner.config.metadata_addr)
            .field("tier", &self.inner.config.tier)
            .field("pooled_conns", &self.inner.pool.lock().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::cache_key;
    use glider_sim::{seeds, Lcg};

    /// The residual bug behind ISSUE 9 satellite (a): the lookup cache
    /// was keyed by the raw path string, so `delete("/job/")` failed to
    /// evict the entry written by `lookup("/job")` and the ghost lived
    /// until the TTL expired. Every cache touchpoint now goes through
    /// one canonical key.
    #[test]
    fn cache_keys_normalize_trailing_slashes() {
        assert_eq!(cache_key("/job"), "/job");
        assert_eq!(cache_key("/job/"), "/job");
        assert_eq!(cache_key("/job//"), "/job");
        assert_eq!(cache_key("/a/b/c/"), "/a/b/c");
        assert_eq!(cache_key("/"), "/");
        assert_eq!(cache_key("//"), "/");
        assert_eq!(cache_key(""), "/");

        // Any number of trailing slashes collapses to the same key, so a
        // mutation through one spelling always evicts the others.
        const NAME: &[u8] = b"abcXYZ019._-";
        for seed in seeds(1..=8) {
            let mut rng = Lcg(seed);
            for case in 0..32 {
                let mut path = String::new();
                for _ in 0..rng.range(1, 5) {
                    path.push('/');
                    for _ in 0..rng.range(1, 13) {
                        path.push(char::from(NAME[rng.below(NAME.len())]));
                    }
                }
                let spelled = format!("{path}{}", "/".repeat(rng.below(4)));
                assert_eq!(
                    cache_key(&spelled),
                    cache_key(&path),
                    "seed {seed} case {case}: {spelled:?}"
                );
            }
        }
    }
}
