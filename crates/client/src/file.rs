//! File/bag node proxies and their streams.

use crate::client::StoreClient;
use bytes::Bytes;
use futures::future::BoxFuture;
use futures::stream::{FuturesOrdered, StreamExt};
use glider_metrics::AccessKind;
use glider_proto::message::{RequestBody, ResponseBody};
use glider_proto::types::{BlockExtent, BlockId, BlockLocation, NodeId, NodeInfo, ReplicaExtent};
use glider_proto::{GliderError, GliderResult};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use tokio::task::JoinHandle;

/// Proxy to a `File` or `Bag` node.
///
/// Files are byte streams over a chain of blocks. Bags share this proxy:
/// each concurrent writer grows its own sub-chain, and readers observe the
/// concatenation — the unordered multi-writer append semantics of
/// NodeKernel's `Bag` type.
#[derive(Debug, Clone)]
pub struct FileNode {
    store: StoreClient,
    path: String,
    info: NodeInfo,
}

impl FileNode {
    pub(crate) fn new(store: StoreClient, path: String, info: NodeInfo) -> Self {
        FileNode { store, path, info }
    }

    /// The node's namespace path.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// The node id.
    pub fn node_id(&self) -> NodeId {
        self.info.id
    }

    /// The node's size as of the last lookup.
    pub fn size(&self) -> u64 {
        self.info.size
    }

    /// Re-reads the node's metadata (size and block chain).
    ///
    /// # Errors
    ///
    /// Returns [`glider_proto::ErrorCode::NotFound`] if deleted meanwhile.
    pub async fn refresh(&mut self) -> GliderResult<()> {
        self.info = self.store.lookup(&self.path).await?;
        Ok(())
    }

    /// Opens a (windowed) write stream appending to this node.
    ///
    /// Counts one `file-write` storage access.
    ///
    /// # Errors
    ///
    /// Currently infallible; kept fallible for parity with reads.
    pub async fn output_stream(&self) -> GliderResult<FileWriter> {
        self.store.count_access(AccessKind::FileWrite);
        Ok(FileWriter::new(
            self.store.clone(),
            self.path.clone(),
            self.info.id,
        ))
    }

    /// Opens a (windowed) read stream over the whole node.
    ///
    /// Counts one `file-read` storage access.
    ///
    /// # Errors
    ///
    /// Fails if the node vanished.
    pub async fn input_stream(&self) -> GliderResult<FileReader> {
        self.input_range(0, u64::MAX).await
    }

    /// Opens a read stream over `[offset, offset+len)` of the node
    /// (clamped to the node size). Range reads power near-data operators
    /// that shuffle slices of intermediate files.
    ///
    /// # Errors
    ///
    /// Fails if the node vanished.
    pub async fn input_range(&self, offset: u64, len: u64) -> GliderResult<FileReader> {
        self.store.count_access(AccessKind::FileRead);
        let info = self.store.lookup(&self.path).await?;
        Ok(FileReader::new(self.store.clone(), &info, offset, len))
    }

    /// Convenience: writes `data` in one stream and closes it.
    ///
    /// # Errors
    ///
    /// Propagates stream errors.
    pub async fn write_all(&self, data: Bytes) -> GliderResult<u64> {
        let mut w = self.output_stream().await?;
        w.write(data).await?;
        w.close().await
    }

    /// Convenience: reads the whole node into memory (small files only).
    ///
    /// # Errors
    ///
    /// Propagates stream errors.
    pub async fn read_all(&self) -> GliderResult<Vec<u8>> {
        let mut r = self.input_stream().await?;
        r.read_to_end().await
    }
}

struct CurrentBlock {
    block_id: BlockId,
    written: u64,
}

/// Per-block write-side bookkeeping, kept until every write of the block
/// has been acknowledged. The retained pieces are what makes replaying a
/// block onto a replacement extent possible when its server dies mid-
/// stream (DESIGN.md §10); `Bytes` pieces are refcounted slices, so
/// retention clones handles, not payloads.
struct BlockState {
    extent: BlockExtent,
    /// The owning server's address, shared by every chunk future of this
    /// block instead of cloning the `String` per chunk.
    addr: Arc<str>,
    /// Full forwarding chain — primary first, then backups — when the
    /// extent is replicated. `None` at replication factor 1, which keeps
    /// the unreplicated write path on plain `WriteBlock`.
    chain: Option<Arc<Vec<BlockLocation>>>,
    /// Every piece written to this block, as `(offset, data)`.
    pieces: Vec<(u64, Bytes)>,
    /// Write RPCs issued but not yet reaped.
    outstanding: usize,
    /// `Some(final_len)` once the writer rotated past (or closed on) this
    /// block; its commit is queued when `outstanding` reaches zero.
    sealed: Option<u64>,
}

/// Cap on recovery rounds per stream, so a cluster with no live capacity
/// fails the writer instead of looping. One round heals every casualty of
/// one outage (all blocks that failed inside the drained window), so the
/// cap counts distinct outages, not blocks.
const MAX_RECOVERIES: u32 = 16;

/// A pending-op completion: which block's write it was (`None` for
/// metadata ops) and how it ended.
type OpResult = (Option<BlockId>, GliderResult<()>);

/// Windowed, block-aware write stream for file/bag nodes.
///
/// The writer splits data into chunks, keeps up to `window` write
/// operations in flight, and hides the metadata plane behind the data
/// plane: blocks are allocated in `AddBlocks` batches prefetched while the
/// current block streams (so rotations don't stall on the metadata
/// server), and block commits are coalesced into `CommitBlocks` batches
/// flushed on window pressure and on [`FileWriter::close`].
///
/// A block's commit is only queued after every write of that block has
/// been acknowledged. If a write fails with a transport error, the writer
/// asks the metadata server for a replacement extent (`ReplaceBlock`) on a
/// live server and replays the block's retained pieces there — a storage
/// server dying mid-stream costs a recovery round trip, not the stream.
pub struct FileWriter {
    store: StoreClient,
    path: String,
    node_id: NodeId,
    cur: Option<CurrentBlock>,
    /// Write-side state of every block with unacknowledged writes.
    blocks: HashMap<BlockId, BlockState>,
    /// Blocks already allocated and ready to stream into (with their
    /// backup replicas when the cluster replicates).
    ready: VecDeque<ReplicaExtent>,
    /// In-flight background `AddBlocks` batch, if any.
    alloc: Option<JoinHandle<GliderResult<Vec<ReplicaExtent>>>>,
    /// Filled-block commits not yet sent (coalesced into `CommitBlocks`).
    commits: Vec<(BlockId, u64)>,
    pending: FuturesOrdered<BoxFuture<'static, OpResult>>,
    total: u64,
    /// Extent replacements performed by this stream (bounded by
    /// [`MAX_RECOVERIES`]).
    recoveries: u32,
    /// Servers that failed a write this stream; extents there are skipped
    /// at rotation (an in-flight prefetch can still deliver some).
    dead_addrs: std::collections::HashSet<String>,
}

/// One chunk write against a data server, issued on the per-server
/// logical stream (credit-gated, multiplexed over the pooled connection).
///
/// With a replication chain the chunk goes to the primary as a
/// `ForwardChunk`, which the primary persists and relays down the chain;
/// its ack means every replica holds the bytes (DESIGN.md §15). Without
/// one it is a plain `WriteBlock`.
async fn write_piece(
    store: StoreClient,
    addr: Arc<str>,
    block_id: BlockId,
    offset: u64,
    data: Bytes,
    chain: Option<Arc<Vec<BlockLocation>>>,
) -> GliderResult<()> {
    let stream = store.data_stream(&addr).await?;
    let body = match &chain {
        Some(chain) => RequestBody::ForwardChunk {
            offset,
            chain: chain.as_ref().clone(),
            data,
        },
        None => RequestBody::WriteBlock {
            block_id,
            offset,
            data,
        },
    };
    match stream.call(body).await? {
        ResponseBody::Written { .. } => Ok(()),
        other => Err(GliderError::protocol(format!(
            "expected written response, got {other:?}"
        ))),
    }
}

/// Builds the forwarding chain for a freshly allocated extent, dropping
/// backups on servers this stream already saw die (forwarding to them
/// would fail the whole chunk; the metadata sweeper re-replicates).
/// `None` when no live backups remain — the write degrades to plain
/// `WriteBlock` instead of failing.
fn chain_of(
    re: &ReplicaExtent,
    dead_addrs: &std::collections::HashSet<String>,
) -> Option<Arc<Vec<BlockLocation>>> {
    let live: Vec<&BlockLocation> = re
        .backups
        .iter()
        .filter(|b| !dead_addrs.contains(&b.addr))
        .collect();
    if live.is_empty() {
        return None;
    }
    let mut chain = Vec::with_capacity(1 + live.len());
    chain.push(re.extent.loc.clone());
    chain.extend(live.into_iter().cloned());
    Some(Arc::new(chain))
}

impl FileWriter {
    fn new(store: StoreClient, path: String, node_id: NodeId) -> Self {
        FileWriter {
            store,
            path,
            node_id,
            cur: None,
            blocks: HashMap::new(),
            ready: VecDeque::new(),
            alloc: None,
            commits: Vec::new(),
            pending: FuturesOrdered::new(),
            total: 0,
            recoveries: 0,
            dead_addrs: std::collections::HashSet::new(),
        }
    }

    async fn reap_to(&mut self, max_pending: usize) -> GliderResult<()> {
        while self.pending.len() > max_pending {
            let Some((tag, res)) = self.pending.next().await else {
                break;
            };
            match (tag, res) {
                (Some(block_id), Ok(())) => self.write_ok(block_id),
                (Some(block_id), Err(e)) if e.is_retryable() => {
                    self.recover(block_id, e).await?;
                }
                (_, Err(e)) => return Err(e),
                (None, Ok(())) => {}
            }
        }
        Ok(())
    }

    /// Accounts an acknowledged write; queues the block's commit once it
    /// is sealed and fully acknowledged.
    fn write_ok(&mut self, block_id: BlockId) {
        // A missing entry is a stale ack for an extent that was since
        // replaced and re-keyed; the replayed writes cover it.
        let Some(state) = self.blocks.get_mut(&block_id) else {
            return;
        };
        state.outstanding -= 1;
        if state.outstanding == 0 {
            if let Some(len) = state.sealed {
                if let Some(state) = self.blocks.remove(&block_id) {
                    self.queue_commit(&state.extent, len);
                }
            }
        }
    }

    /// Retires the writer's current block: commit immediately if all its
    /// writes are acknowledged, otherwise leave a sealed marker for
    /// [`FileWriter::write_ok`].
    fn seal(&mut self, cur: CurrentBlock) -> GliderResult<()> {
        let outstanding = self
            .blocks
            .get(&cur.block_id)
            .map(|s| s.outstanding)
            .ok_or_else(|| {
                GliderError::protocol(format!(
                    "sealed block {} is not tracked by this writer",
                    cur.block_id
                ))
            })?;
        if outstanding == 0 {
            if let Some(state) = self.blocks.remove(&cur.block_id) {
                self.queue_commit(&state.extent, cur.written);
            }
        } else if let Some(state) = self.blocks.get_mut(&cur.block_id) {
            state.sealed = Some(cur.written);
        }
        Ok(())
    }

    /// Handles a transport-failed write: drains the whole window so every
    /// casualty of this outage joins one recovery round, then replaces
    /// each failed block's extent and replays its retained pieces.
    async fn recover(&mut self, first_failed: BlockId, cause: GliderError) -> GliderResult<()> {
        let span = glider_trace::Span::root("writer.recover");
        glider_trace::structured_event(
            "writer.recover",
            &format!("block {first_failed} write failed: {cause}"),
            "",
            0,
            span.trace_id(),
        );
        let mut failed = vec![first_failed];
        while let Some((tag, res)) = self.pending.next().await {
            match (tag, res) {
                (Some(b), Ok(())) => self.write_ok(b),
                (Some(b), Err(e)) if e.is_retryable() => {
                    if !failed.contains(&b) {
                        failed.push(b);
                    }
                }
                (_, Err(e)) => return Err(e),
                (None, Ok(())) => {}
            }
        }
        self.recoveries += 1;
        if self.recoveries > MAX_RECOVERIES {
            return Err(GliderError::unavailable(format!(
                "writer for node {} exceeded {MAX_RECOVERIES} recovery rounds (last: {cause})",
                self.node_id
            )));
        }
        for block_id in failed {
            self.replace_and_replay(block_id).await?;
        }
        Ok(())
    }

    /// Swaps a failed block for a fresh extent on a live server (same
    /// chain position, length reset) and replays the retained pieces.
    async fn replace_and_replay(&mut self, old: BlockId) -> GliderResult<()> {
        let resp = self
            .store
            .meta_call(
                &self.path,
                RequestBody::ReplaceBlock {
                    node_id: self.node_id,
                    block_id: old,
                },
            )
            .await?;
        let replica = match resp {
            ResponseBody::Block(extent) => ReplicaExtent {
                extent,
                backups: Vec::new(),
            },
            ResponseBody::ReplicatedBlocks(mut layout) if !layout.is_empty() => layout.remove(0),
            other => {
                return Err(GliderError::protocol(format!(
                    "expected block response, got {other:?}"
                )))
            }
        };
        let mut state = self.blocks.remove(&old).ok_or_else(|| {
            GliderError::protocol(format!("recovering block {old} is not tracked"))
        })?;
        // Prefetched-but-unwritten extents on the dead server would fail
        // the same way; drop them. They stay in the chain as zero-length
        // extents, exactly like unused prefetches at close.
        let dead_addr = Arc::clone(&state.addr);
        self.ready
            .retain(|b| b.extent.loc.addr.as_str() != &*dead_addr);
        self.dead_addrs.insert(dead_addr.to_string());
        state.chain = chain_of(&replica, &self.dead_addrs);
        let extent = replica.extent;
        let new_id = extent.loc.block_id;
        state.addr = Arc::<str>::from(extent.loc.addr.as_str());
        state.extent = extent;
        state.outstanding = state.pieces.len();
        for (offset, piece) in state.pieces.clone() {
            let store = self.store.clone();
            let conn_addr = Arc::clone(&state.addr);
            let chain = state.chain.clone();
            self.pending.push_back(Box::pin(async move {
                let res = write_piece(store, conn_addr, new_id, offset, piece, chain).await;
                (Some(new_id), res)
            }));
        }
        if let Some(cur) = &mut self.cur {
            if cur.block_id == old {
                cur.block_id = new_id;
            }
        }
        self.blocks.insert(new_id, state);
        Ok(())
    }

    /// Queues the commit for a finished block: coalesced when
    /// `commit_batch > 1`, otherwise one `CommitBlock` RPC right away.
    fn queue_commit(&mut self, extent: &BlockExtent, len: u64) {
        let block_id = extent.loc.block_id;
        if self.store.config().commit_batch <= 1 {
            let store = self.store.clone();
            let path = self.path.clone();
            let node_id = self.node_id;
            self.pending.push_back(Box::pin(async move {
                let res = store
                    .meta_call(
                        &path,
                        RequestBody::CommitBlock {
                            node_id,
                            block_id,
                            len,
                        },
                    )
                    .await
                    .map(|_| ());
                (None, res)
            }));
            return;
        }
        self.commits.push((block_id, len));
        if self.commits.len() >= self.store.config().commit_batch {
            self.flush_commits();
        }
    }

    /// Sends every coalesced commit as a single `CommitBlocks` RPC.
    fn flush_commits(&mut self) {
        if self.commits.is_empty() {
            return;
        }
        let commits = std::mem::take(&mut self.commits);
        let store = self.store.clone();
        let path = self.path.clone();
        let node_id = self.node_id;
        self.pending.push_back(Box::pin(async move {
            let res = store
                .meta_call(&path, RequestBody::CommitBlocks { node_id, commits })
                .await
                .map(|_| ());
            (None, res)
        }));
    }

    /// Starts a background `AddBlocks` batch if prefetching is on and no
    /// batch is already in flight.
    fn spawn_alloc(&mut self) {
        let count = self.store.config().prefetch_blocks;
        if count == 0 || self.alloc.is_some() {
            return;
        }
        let store = self.store.clone();
        let path = self.path.clone();
        let node_id = self.node_id;
        self.alloc = Some(tokio::spawn(async move {
            match store
                .meta_call(&path, RequestBody::AddBlocks { node_id, count })
                .await?
            {
                // Unreplicated clusters answer plain extents; replicated
                // ones answer each extent with its backup locations.
                ResponseBody::Blocks(extents) => Ok(extents
                    .into_iter()
                    .map(|extent| ReplicaExtent {
                        extent,
                        backups: Vec::new(),
                    })
                    .collect()),
                ResponseBody::ReplicatedBlocks(layout) => Ok(layout),
                other => Err(GliderError::protocol(format!(
                    "expected blocks response, got {other:?}"
                ))),
            }
        }));
    }

    async fn await_alloc(&mut self) -> GliderResult<Vec<ReplicaExtent>> {
        let Some(handle) = self.alloc.take() else {
            return Err(GliderError::protocol("no allocation batch in flight"));
        };
        handle
            .await
            .map_err(|e| GliderError::protocol(format!("allocation task failed: {e}")))?
    }

    /// Allocates synchronously — the legacy one-`AddBlock`-per-rotation
    /// path used when prefetching is disabled.
    async fn alloc_one(&mut self) -> GliderResult<ReplicaExtent> {
        let resp = self
            .store
            .meta_call(
                &self.path,
                RequestBody::AddBlock {
                    node_id: self.node_id,
                },
            )
            .await?;
        match resp {
            ResponseBody::Block(extent) => Ok(ReplicaExtent {
                extent,
                backups: Vec::new(),
            }),
            ResponseBody::ReplicatedBlocks(mut layout) if !layout.is_empty() => {
                Ok(layout.remove(0))
            }
            other => Err(GliderError::protocol(format!(
                "expected block response, got {other:?}"
            ))),
        }
    }

    async fn rotate(&mut self) -> GliderResult<()> {
        if let Some(cur) = self.cur.take() {
            self.seal(cur)?;
        }
        let replica = if self.store.config().prefetch_blocks == 0 {
            self.alloc_one().await?
        } else {
            // Bound the skip loop: if every server this stream knows about
            // has failed, allocation keeps delivering unusable extents and
            // the stream must fail instead of draining the cluster.
            let mut skipped = 0u32;
            loop {
                if skipped > 256 {
                    return Err(GliderError::unavailable(format!(
                        "writer for node {} found no extent on a live server",
                        self.node_id
                    )));
                }
                if self.ready.is_empty() {
                    // First rotation (or the prefetch fell behind): start
                    // a batch if none is running, then wait for it.
                    self.spawn_alloc();
                    let batch = self.await_alloc().await?;
                    self.ready.extend(batch);
                }
                let Some(replica) = self.ready.pop_front() else {
                    return Err(GliderError::unavailable(format!(
                        "AddBlocks for node {} returned no extents; allocation",
                        self.node_id
                    )));
                };
                // Refill in the background while this block streams so
                // the next rotation pops without waiting.
                if self.ready.is_empty() {
                    self.spawn_alloc();
                }
                // A batch allocated before a server died can deliver
                // extents on it; skip those (they stay in the chain as
                // zero-length extents). Once the metadata server knows,
                // fresh batches come from live servers only.
                if self.dead_addrs.contains(&replica.extent.loc.addr) {
                    skipped += 1;
                    continue;
                }
                break replica;
            }
        };
        let chain = chain_of(&replica, &self.dead_addrs);
        let extent = replica.extent;
        let addr = Arc::<str>::from(extent.loc.addr.as_str());
        let block_id = extent.loc.block_id;
        self.blocks.insert(
            block_id,
            BlockState {
                extent,
                addr,
                chain,
                pieces: Vec::new(),
                outstanding: 0,
                sealed: None,
            },
        );
        self.cur = Some(CurrentBlock {
            block_id,
            written: 0,
        });
        Ok(())
    }

    /// Appends `data`, splitting it into block-aligned chunk operations
    /// and pipelining up to the configured window.
    ///
    /// # Errors
    ///
    /// Propagates allocation failures and non-transport write failures.
    /// Transport failures (a dying storage server) are healed in place by
    /// replacing the extent and replaying the block, up to a per-stream
    /// recovery budget.
    // glider: hot-path (per-chunk file write: split, pipeline, reap)
    pub async fn write(&mut self, mut data: Bytes) -> GliderResult<()> {
        let block_size = self.store.config().block_size.as_u64();
        let chunk_size = self.store.config().chunk_size.as_u64();
        let window = self.store.config().window;
        while !data.is_empty() {
            let need_rotate = match &self.cur {
                None => true,
                Some(cur) => cur.written >= block_size,
            };
            if need_rotate {
                self.rotate().await?;
            }
            let (block_id, offset) = match &self.cur {
                Some(cur) => (cur.block_id, cur.written),
                None => {
                    return Err(GliderError::protocol(
                        "writer lost its current block after rotation",
                    ))
                }
            };
            let n = (data.len() as u64).min(block_size - offset).min(chunk_size);
            let piece = data.split_to(n as usize);
            let Some(state) = self.blocks.get_mut(&block_id) else {
                return Err(GliderError::protocol(format!( // glider: alloc-ok (invariant-violation error path, never reached per op)
                    "current block {block_id} is not tracked"
                )));
            };
            state.pieces.push((offset, piece.clone())); // glider: alloc-ok (Bytes refcount bump; piece retained for replay)
            state.outstanding += 1;
            let conn_addr = Arc::clone(&state.addr);
            let chain = state.chain.clone(); // glider: alloc-ok (short replica chain copied per chunk, bounded by replication factor)
            let store = self.store.clone(); // glider: alloc-ok (Arc refcount bump on the store handle)
            self.pending.push_back(Box::pin(async move { // glider: alloc-ok (one pinned future per windowed in-flight chunk)
                let res = write_piece(store, conn_addr, block_id, offset, piece, chain).await;
                (Some(block_id), res)
            }));
            if let Some(cur) = &mut self.cur {
                cur.written += n;
            }
            self.total += n;
            self.reap_to(window.saturating_sub(1)).await?;
        }
        Ok(())
    }
    // glider: end-hot-path

    /// Appends a byte slice (copied).
    ///
    /// # Errors
    ///
    /// See [`FileWriter::write`].
    pub async fn write_all(&mut self, data: &[u8]) -> GliderResult<()> {
        self.write(Bytes::copy_from_slice(data)).await
    }

    /// Flushes outstanding operations, commits the final block, and
    /// returns the total bytes written by this stream.
    ///
    /// Prefetched blocks this stream never wrote stay in the chain with
    /// length zero — readers skip them and deleting the node frees them.
    ///
    /// # Errors
    ///
    /// Surfaces any failed in-flight operation.
    pub async fn close(mut self) -> GliderResult<u64> {
        if let Some(cur) = self.cur.take() {
            self.seal(cur)?;
        }
        // Writes drain first: a block's commit is only queued once every
        // write of it has been acknowledged (or replayed elsewhere), so a
        // server death during close still heals before commit.
        self.reap_to(0).await?;
        self.flush_commits();
        self.reap_to(0).await?;
        // Drain a still-running prefetch so its task doesn't outlive the
        // stream. Its blocks were never written, so an allocation failure
        // here is not a stream failure.
        if let Some(handle) = self.alloc.take() {
            let _ = handle.await;
        }
        Ok(self.total)
    }

    /// Bytes accepted so far.
    pub fn bytes_written(&self) -> u64 {
        self.total
    }
}

impl std::fmt::Debug for FileWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileWriter")
            .field("node_id", &self.node_id)
            .field("total", &self.total)
            .field("in_flight", &self.pending.len())
            .finish()
    }
}

struct ReadOp {
    /// Shared with every other op on the same extent instead of one
    /// `String` clone per chunk.
    addr: Arc<str>,
    block_id: BlockId,
    offset: u64,
    len: u64,
}

/// Windowed read stream over a file/bag node (optionally a byte range).
pub struct FileReader {
    store: StoreClient,
    ops: std::vec::IntoIter<ReadOp>,
    pending: FuturesOrdered<BoxFuture<'static, GliderResult<Bytes>>>,
    /// Total bytes the planned ops will deliver (pre-sizes buffers).
    planned: u64,
    total: u64,
}

impl FileReader {
    fn new(store: StoreClient, info: &NodeInfo, start: u64, len: u64) -> Self {
        let chunk_size = store.config().chunk_size.as_u64().max(1);
        let mut ops = Vec::new();
        let mut planned = 0u64;
        let mut node_off = 0u64; // absolute offset of the current extent
        let end = start.saturating_add(len);
        for extent in &info.blocks {
            let ext_start = node_off;
            let ext_end = node_off + extent.len;
            node_off = ext_end;
            let lo = start.max(ext_start);
            let hi = end.min(ext_end);
            if lo >= hi {
                continue;
            }
            let addr = Arc::<str>::from(extent.loc.addr.as_str());
            // Split the in-extent range into chunk-size operations.
            let mut pos = lo;
            while pos < hi {
                let n = (hi - pos).min(chunk_size);
                ops.push(ReadOp {
                    addr: Arc::clone(&addr),
                    block_id: extent.loc.block_id,
                    offset: pos - ext_start,
                    len: n,
                });
                pos += n;
            }
            planned += hi - lo;
        }
        FileReader {
            store,
            ops: ops.into_iter(),
            pending: FuturesOrdered::new(),
            planned,
            total: 0,
        }
    }

    fn fill_window(&mut self) {
        let window = self.store.config().window;
        while self.pending.len() < window {
            let Some(op) = self.ops.next() else { break };
            let store = self.store.clone();
            self.pending.push_back(Box::pin(async move {
                let stream = store.data_stream(&op.addr).await?;
                match stream
                    .call(RequestBody::ReadBlock {
                        block_id: op.block_id,
                        offset: op.offset,
                        len: op.len,
                    })
                    .await?
                {
                    ResponseBody::Data { bytes, .. } => Ok(bytes),
                    other => Err(GliderError::protocol(format!(
                        "expected data response, got {other:?}"
                    ))),
                }
            }));
        }
    }

    /// Returns the next chunk in file order, or `None` at the end of the
    /// planned range.
    ///
    /// # Errors
    ///
    /// Propagates read failures.
    pub async fn next_chunk(&mut self) -> GliderResult<Option<Bytes>> {
        self.fill_window();
        match self.pending.next().await {
            Some(result) => {
                let bytes = result?;
                self.total += bytes.len() as u64;
                self.fill_window();
                Ok(Some(bytes))
            }
            None => Ok(None),
        }
    }

    /// Reads the remaining range into memory.
    ///
    /// The output is pre-sized from the planned op lengths, so the bytes
    /// land in one allocation instead of growing by doubling.
    ///
    /// # Errors
    ///
    /// Propagates read failures.
    pub async fn read_to_end(&mut self) -> GliderResult<Vec<u8>> {
        let remaining = self.planned.saturating_sub(self.total);
        let mut out = Vec::with_capacity(remaining as usize);
        while let Some(chunk) = self.next_chunk().await? {
            out.extend_from_slice(&chunk);
        }
        Ok(out)
    }

    /// Bytes delivered so far.
    pub fn bytes_read(&self) -> u64 {
        self.total
    }
}

impl std::fmt::Debug for FileReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileReader")
            .field("total", &self.total)
            .field("in_flight", &self.pending.len())
            .finish()
    }
}
