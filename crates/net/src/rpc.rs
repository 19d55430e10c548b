//! Multiplexing RPC client and server over framed connections.
//!
//! Two multiplexing mechanisms stack here:
//!
//! - **Request ids** let any number of calls share one connection;
//!   responses are matched by id regardless of arrival order.
//! - **Logical streams** ([`RpcClient::open_stream`]) add per-stream
//!   flow control on top: every call on a stream consumes one *credit*
//!   from the stream's window, and the server grants a credit back when
//!   it admits the request ([`Frame::Credit`]). A slow consumer
//!   backpressures only its own stream — bulk block writes cannot starve
//!   a neighbouring metadata stream of the shared connection. Stream 0
//!   is the un-flow-controlled legacy stream every plain call uses.

use crate::conn::{connect, BoundListener, FrameRx, FrameTx, TaggedFrame};
use crate::retry::{op_class, JitterRng, RetryPolicy};
use crate::stats::{build_series, build_span_dump, build_stats};
use futures::future::BoxFuture;
use glider_metrics::{MetricsRegistry, OpKind, Tier};
use glider_proto::frame::{Frame, LEGACY_STREAM};
use glider_proto::message::{Request, RequestBody, Response, ResponseBody};
use glider_proto::types::PeerTier;
use glider_proto::{ErrorCode, GliderError, GliderResult};
use glider_trace::{Span, SpanContext};
use glider_util::TokenBucket;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tokio::sync::{mpsc, oneshot, Semaphore};
use tokio::task::JoinSet;

/// Maps the wire-level peer tier to the metrics tier.
pub fn tier_of(peer: PeerTier) -> Tier {
    match peer {
        PeerTier::Compute => Tier::Compute,
        PeerTier::Storage => Tier::Storage,
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

type Pending = Arc<Mutex<Option<HashMap<u64, oneshot::Sender<GliderResult<ResponseBody>>>>>>;

/// A multiplexing, self-healing RPC client.
///
/// Cloning is cheap; all clones share one *supervised* connection. Any
/// number of [`RpcClient::call`]s may be in flight concurrently —
/// responses are matched by request id. This is what lets the client
/// library keep a window of data operations outstanding ("batched async
/// operations", paper §7.2).
///
/// Fault tolerance (DESIGN.md §10):
/// - every call runs under a per-class deadline from the client's
///   [`RetryPolicy`];
/// - idempotent calls that fail with a transient error are retried with
///   full-jitter backoff up to the retry budget;
/// - a dropped connection fails its in-flight calls with
///   [`ErrorCode::Closed`], then the next call redials with backoff and
///   re-runs the `Hello` handshake — a bounced server is a blip, not a
///   poisoned client.
///
/// An optional [`TokenBucket`] throttles bulk payload bytes in both
/// directions, modelling the limited bandwidth of serverless workers.
#[derive(Debug, Clone)]
pub struct RpcClient {
    inner: Arc<ClientInner>,
}

/// One live connection: the writer queue plus the in-flight table. The
/// table is set to `None` permanently when the reader exits, which is how
/// callers detect a dead channel.
#[derive(Debug)]
struct Channel {
    req_tx: mpsc::Sender<(u32, Request)>,
    pending: Pending,
}

impl Channel {
    fn is_open(&self) -> bool {
        !self.req_tx.is_closed() && self.pending.lock().is_some()
    }
}

/// Client-side flow-control state of one logical stream. Lives in the
/// client's stream table (not the channel), so a reconnect keeps the
/// stream and its window.
#[derive(Debug)]
struct StreamState {
    /// Available credits. Calls `forget` acquired permits; permits come
    /// back via server [`Frame::Credit`] grants (or refunds below).
    sem: Semaphore,
    /// Credits consumed but not yet granted back. The refund paths
    /// (reader death, send-on-dead-channel) drain this instead of
    /// guessing, so a permit is never restored twice.
    outstanding: AtomicU32,
}

impl StreamState {
    /// Waits up to `deadline` for one credit and consumes it.
    async fn acquire_credit(&self, deadline: Duration, addr: &str) -> GliderResult<()> {
        match tokio::time::timeout(deadline, self.sem.acquire()).await {
            Ok(Ok(permit)) => {
                permit.forget();
                self.outstanding.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Ok(Err(_)) => Err(GliderError::closed(format!("stream to {addr}"))),
            Err(_) => {
                // The stream's whole credit window sat exhausted for a
                // full op deadline: the flight-recorder event is how a
                // post-hoc dump distinguishes a slow server from a
                // starved window.
                glider_trace::structured_event("credit.exhausted", "stream", addr, 0, 0);
                Err(GliderError::timeout(format!(
                    "stream credit to {addr} after {deadline:?}"
                )))
            }
        }
    }

    /// Applies a server grant: the server admitted `credits` requests.
    fn grant(&self, credits: u32) {
        let _ = self
            .outstanding
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(credits))
            });
        self.sem.add_permits(credits as usize);
    }

    /// Refunds one credit whose request provably never reached the
    /// server (send on a dead channel). A no-op when the credit was
    /// already restored by [`StreamState::refund_all`].
    fn refund_one(&self) {
        let taken = self
            .outstanding
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1))
            .is_ok();
        if taken {
            self.sem.add_permits(1);
        }
    }

    /// Refunds every outstanding credit. Called when a connection's
    /// reader dies: no more grants can arrive on that channel, and
    /// without the refund a failed-over stream would start with a
    /// permanently shrunken window (or deadlock at zero).
    fn refund_all(&self) {
        let n = self.outstanding.swap(0, Ordering::Relaxed);
        if n > 0 {
            self.sem.add_permits(n as usize);
        }
    }
}

/// The client's logical streams, shared with each generation's reader
/// task (which applies credit grants and refunds on death).
type StreamMap = Arc<Mutex<HashMap<u32, Arc<StreamState>>>>;

#[derive(Debug)]
struct ClientInner {
    addr: String,
    tier: PeerTier,
    throttle: Option<Arc<TokenBucket>>,
    metrics: Option<Arc<MetricsRegistry>>,
    policy: RetryPolicy,
    next_id: AtomicU64,
    /// The current channel; swapped atomically on reconnection.
    chan: Mutex<Arc<Channel>>,
    /// Serializes redials so concurrent callers heal the connection once.
    redial: tokio::sync::Mutex<()>,
    /// Open logical streams (flow-control state outlives reconnects).
    streams: StreamMap,
    /// Stream ids are client-unique; 0 is the legacy stream.
    next_stream_id: AtomicU32,
}

impl RpcClient {
    /// Connects to `addr` and performs the `Hello` handshake declaring
    /// `tier`.
    ///
    /// # Errors
    ///
    /// Returns an error if the dial or the handshake fails.
    pub async fn connect(
        addr: &str,
        tier: PeerTier,
        throttle: Option<Arc<TokenBucket>>,
    ) -> GliderResult<Self> {
        RpcClient::connect_with_metrics(addr, tier, throttle, None).await
    }

    /// Like [`RpcClient::connect`], but also records client-side transport
    /// indicators (writer batch occupancy, flush latency, retry and
    /// reconnect counts) into `metrics`.
    ///
    /// # Errors
    ///
    /// See [`RpcClient::connect`].
    pub async fn connect_with_metrics(
        addr: &str,
        tier: PeerTier,
        throttle: Option<Arc<TokenBucket>>,
        metrics: Option<Arc<MetricsRegistry>>,
    ) -> GliderResult<Self> {
        RpcClient::connect_with_options(addr, tier, throttle, metrics, RetryPolicy::default()).await
    }

    /// Fully parameterized connect: custom [`RetryPolicy`] for deadlines,
    /// retry budget, and reconnection behavior.
    ///
    /// # Errors
    ///
    /// See [`RpcClient::connect`]. The *initial* dial is not retried, so
    /// misconfigured addresses fail fast with their real error.
    pub async fn connect_with_options(
        addr: &str,
        tier: PeerTier,
        throttle: Option<Arc<TokenBucket>>,
        metrics: Option<Arc<MetricsRegistry>>,
        policy: RetryPolicy,
    ) -> GliderResult<Self> {
        let next_id = AtomicU64::new(1);
        let streams: StreamMap = Arc::new(Mutex::new(HashMap::new()));
        let handshake_deadline = policy.metadata_deadline;
        let chan =
            dial_channel(addr, tier, &metrics, &next_id, &streams, handshake_deadline).await?;
        Ok(RpcClient {
            inner: Arc::new(ClientInner {
                addr: addr.to_string(),
                tier,
                throttle,
                metrics,
                policy,
                next_id,
                chan: Mutex::new(Arc::new(chan)),
                redial: tokio::sync::Mutex::new(()),
                streams,
                next_stream_id: AtomicU32::new(1),
            }),
        })
    }

    /// Connects from inside the storage tier (actions, servers). Intra-
    /// storage connections are never throttled and are metered as
    /// storage→storage traffic by the receiving server.
    ///
    /// # Errors
    ///
    /// See [`RpcClient::connect`].
    pub async fn connect_intra_storage(addr: &str) -> GliderResult<Self> {
        RpcClient::connect(addr, PeerTier::Storage, None).await
    }

    /// The address this client dialed.
    pub fn addr(&self) -> &str {
        &self.inner.addr
    }

    /// The client's fault-tolerance policy.
    pub fn policy(&self) -> &RetryPolicy {
        &self.inner.policy
    }

    /// Issues one RPC and awaits its response. Error responses from the
    /// server are converted back into [`GliderError`]s.
    ///
    /// The call runs in a fresh `client.call` root span whose trace id
    /// rides the request header, so the server-side spans of this
    /// operation join the same trace.
    ///
    /// # Errors
    ///
    /// Returns the server-reported error, [`ErrorCode::Timeout`] when the
    /// per-class deadline elapsed, or [`ErrorCode::Closed`] when the
    /// connection dropped and could not be healed. Idempotent operations
    /// have transient failures retried within the policy's budget first.
    pub async fn call(&self, body: RequestBody) -> GliderResult<ResponseBody> {
        self.call_traced(SpanContext::NONE, body).await
    }

    /// Like [`RpcClient::call`], but the `client.call` span becomes a
    /// child of `parent` (pass [`SpanContext::NONE`] to start a fresh
    /// trace). This is how intra-storage hops — an action reading blocks
    /// on behalf of a client request — keep the originating trace id.
    ///
    /// # Errors
    ///
    /// See [`RpcClient::call`].
    pub async fn call_traced(
        &self,
        parent: SpanContext,
        body: RequestBody,
    ) -> GliderResult<ResponseBody> {
        self.call_inner(parent, LEGACY_STREAM, None, body).await
    }

    /// Opens a new logical stream with `window` credits (clamped to at
    /// least 1) over this client's connection. Calls on the stream are
    /// flow-controlled: at most `window` of them can be awaiting server
    /// admission at once, independently of other streams. The stream
    /// survives reconnects — its window travels with the client, not the
    /// connection.
    pub fn open_stream(&self, window: u32) -> RpcStream {
        let window = window.max(1);
        let id = self.inner.next_stream_id.fetch_add(1, Ordering::Relaxed);
        let state = Arc::new(StreamState {
            sem: Semaphore::new(window as usize),
            outstanding: AtomicU32::new(0),
        });
        self.inner.streams.lock().insert(id, Arc::clone(&state));
        if let Some(m) = &self.inner.metrics {
            m.stream_opened();
        }
        RpcStream {
            client: self.clone(),
            id,
            state,
        }
    }

    async fn call_inner(
        &self,
        parent: SpanContext,
        stream: u32,
        flow: Option<&StreamState>,
        body: RequestBody,
    ) -> GliderResult<ResponseBody> {
        // child_of(NONE) degenerates to a root, so both entry points share
        // this path; the span closes (and reports) when the call returns.
        let span = Span::child_of(parent, "client.call");
        let trace_id = span.trace_id();
        let op = body.op_name();
        // Throttle pacing is intentional latency and therefore sits
        // outside the deadline window, once per call (retried idempotent
        // ops never carry outbound payloads).
        if let Some(bucket) = &self.inner.throttle {
            let out = body.payload_len();
            if out > 0 {
                bucket.acquire(out).await;
            }
        }
        let policy = &self.inner.policy;
        let deadline = policy.deadline(op_class(&body));
        let idempotent = body.is_idempotent();
        let mut rng = JitterRng::seeded(trace_id ^ self.inner.next_id.load(Ordering::Relaxed));
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            let err = match self.ensure_channel().await {
                Ok(chan) => {
                    // One credit per attempt on flow-controlled streams;
                    // the server grants it back at admission. Credits
                    // whose request never left (dead channel) are
                    // refunded below, the rest on reader death.
                    if let Some(state) = flow {
                        state.acquire_credit(deadline, &self.inner.addr).await?;
                    }
                    let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
                    let attempt_res = channel_call(
                        &chan,
                        id,
                        trace_id,
                        stream,
                        body.clone(),
                        deadline,
                        &self.inner.addr,
                    )
                    .await;
                    if let (Some(state), Err(e)) = (flow, &attempt_res) {
                        if e.code() == ErrorCode::Closed {
                            state.refund_one();
                        }
                    }
                    match attempt_res {
                        Ok(resp) => {
                            if let Some(bucket) = &self.inner.throttle {
                                let inn = resp.payload_len();
                                if inn > 0 {
                                    bucket.acquire(inn).await;
                                }
                            }
                            // Server-reported errors surface here; they
                            // never trigger a redial (the transport is
                            // fine) but retryable ones re-enter the loop.
                            match resp.into_result() {
                                Ok(body) => return Ok(body),
                                Err(e) => e,
                            }
                        }
                        Err(e) => e,
                    }
                }
                Err(e) => e,
            };
            if !idempotent || !err.is_retryable() || !policy.allows(attempts) {
                return Err(err);
            }
            if let Some(m) = &self.inner.metrics {
                m.rpc_retry();
            }
            // Feed the flight recorder's event log so a post-hoc dump
            // shows which op was re-issued, against whom, how many times.
            glider_trace::structured_event(
                "rpc.retry",
                op,
                &self.inner.addr,
                u64::from(attempts),
                trace_id,
            );
            // A short-lived span per retry, so the trace tree shows how
            // often (and why) a call was re-issued.
            drop(Span::child_of(span.context(), "client.retry"));
            tokio::time::sleep(policy.backoff(attempts, &mut rng)).await;
        }
    }

    /// Issues an RPC that must answer [`ResponseBody::Ok`].
    ///
    /// # Errors
    ///
    /// Returns [`ErrorCode::Protocol`] for any other success body, or the
    /// server's error.
    pub async fn call_ok(&self, body: RequestBody) -> GliderResult<()> {
        match self.call(body).await? {
            ResponseBody::Ok => Ok(()),
            other => Err(GliderError::protocol(format!(
                "expected Ok response, got {other:?}"
            ))),
        }
    }

    /// Returns a healthy channel, redialing (with backoff and a fresh
    /// handshake) if the current one died. Redials are serialized so a
    /// burst of concurrent calls heals the connection exactly once.
    async fn ensure_channel(&self) -> GliderResult<Arc<Channel>> {
        {
            let chan = Arc::clone(&self.inner.chan.lock());
            if chan.is_open() {
                return Ok(chan);
            }
        }
        let _guard = self.inner.redial.lock().await;
        let chan = Arc::clone(&self.inner.chan.lock());
        if chan.is_open() {
            return Ok(chan); // another caller already healed it
        }
        let policy = &self.inner.policy;
        let mut rng =
            JitterRng::seeded(self.inner.next_id.fetch_add(1, Ordering::Relaxed) ^ 0x9E37_79B9);
        let mut last = GliderError::closed(format!("rpc to {}", self.inner.addr));
        for attempt in 1..=policy.reconnect_attempts.max(1) {
            match dial_channel(
                &self.inner.addr,
                self.inner.tier,
                &self.inner.metrics,
                &self.inner.next_id,
                &self.inner.streams,
                policy.metadata_deadline,
            )
            .await
            {
                Ok(chan) => {
                    let chan = Arc::new(chan);
                    *self.inner.chan.lock() = Arc::clone(&chan);
                    if let Some(m) = &self.inner.metrics {
                        m.rpc_reconnect();
                    }
                    glider_trace::structured_event(
                        "rpc.reconnect",
                        "dial",
                        &self.inner.addr,
                        u64::from(attempt),
                        0,
                    );
                    return Ok(chan);
                }
                Err(e) => last = e,
            }
            if attempt < policy.reconnect_attempts {
                tokio::time::sleep(policy.backoff(attempt, &mut rng)).await;
            }
        }
        Err(GliderError::new(
            ErrorCode::Closed,
            format!(
                "rpc to {} closed; reconnect failed: {last}",
                self.inner.addr
            ),
        ))
    }
}

/// A flow-controlled logical stream over an [`RpcClient`]'s connection.
/// Created by [`RpcClient::open_stream`]; dropping it closes the stream.
///
/// Calls behave exactly like [`RpcClient::call`] (same deadlines,
/// retries, transparent reconnection) plus the credit window: a call
/// first waits — within the op deadline — for one of the stream's
/// credits, and the server returns the credit when it admits the
/// request. The stream id rides the frame header (wire format v2).
#[derive(Debug)]
pub struct RpcStream {
    client: RpcClient,
    id: u32,
    state: Arc<StreamState>,
}

impl RpcStream {
    /// This stream's wire id (never 0 — that is the legacy stream).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Issues one RPC on this stream. See [`RpcClient::call`].
    ///
    /// # Errors
    ///
    /// As [`RpcClient::call`], plus [`ErrorCode::Timeout`] when no
    /// stream credit became available within the op deadline.
    pub async fn call(&self, body: RequestBody) -> GliderResult<ResponseBody> {
        self.call_traced(SpanContext::NONE, body).await
    }

    /// Issues one traced RPC on this stream. See [`RpcClient::call_traced`].
    ///
    /// # Errors
    ///
    /// See [`RpcStream::call`].
    pub async fn call_traced(
        &self,
        parent: SpanContext,
        body: RequestBody,
    ) -> GliderResult<ResponseBody> {
        self.client
            .call_inner(parent, self.id, Some(&self.state), body)
            .await
    }
}

impl Drop for RpcStream {
    fn drop(&mut self) {
        self.client.inner.streams.lock().remove(&self.id);
        if let Some(m) = &self.client.inner.metrics {
            m.stream_closed();
        }
    }
}

/// Dials `addr`, spawns the connection's writer/reader tasks, and performs
/// the `Hello` handshake. Used for the initial connect and every redial.
async fn dial_channel(
    addr: &str,
    tier: PeerTier,
    metrics: &Option<Arc<MetricsRegistry>>,
    next_id: &AtomicU64,
    streams: &StreamMap,
    handshake_deadline: Duration,
) -> GliderResult<Channel> {
    let (tx, rx) = connect(addr).await?;
    let pending: Pending = Arc::new(Mutex::new(Some(HashMap::new())));
    let (req_tx, req_rx) = mpsc::channel::<(u32, Request)>(256);

    tokio::spawn(writer_task(tx, req_rx, metrics.clone()));
    tokio::spawn(reader_task(rx, Arc::clone(&pending), Arc::clone(streams)));

    let chan = Channel { req_tx, pending };
    let id = next_id.fetch_add(1, Ordering::Relaxed);
    let resp = channel_call(
        &chan,
        id,
        0,
        LEGACY_STREAM,
        RequestBody::Hello { tier },
        handshake_deadline,
        addr,
    )
    .await?;
    match resp.into_result()? {
        ResponseBody::Ok => Ok(chan),
        other => Err(GliderError::protocol(format!(
            "unexpected handshake response: {other:?}"
        ))),
    }
}

/// One attempt of one RPC on one channel, bounded by `deadline`. Returns
/// the raw response body — converting server-reported errors is left to
/// the caller so transport failures and semantic failures stay distinct.
async fn channel_call(
    chan: &Channel,
    id: u64,
    trace_id: u64,
    stream: u32,
    body: RequestBody,
    deadline: Duration,
    addr: &str,
) -> GliderResult<ResponseBody> {
    let op = body.op_name();
    let (done_tx, done_rx) = oneshot::channel();
    {
        let mut guard = chan.pending.lock();
        match guard.as_mut() {
            Some(map) => {
                map.insert(id, done_tx);
            }
            None => return Err(GliderError::closed(format!("rpc to {addr}"))),
        }
    }
    if chan
        .req_tx
        .send((stream, Request { id, trace_id, body }))
        .await
        .is_err()
    {
        chan.pending.lock().as_mut().map(|m| m.remove(&id));
        return Err(GliderError::closed(format!("rpc to {addr}")));
    }
    match tokio::time::timeout(deadline, done_rx).await {
        Err(_) => {
            // Deadline elapsed: withdraw the waiter so a straggling
            // response cannot leak a pending-table entry.
            chan.pending.lock().as_mut().map(|m| m.remove(&id));
            Err(GliderError::timeout(format!(
                "{op} rpc to {addr} after {deadline:?}"
            )))
        }
        Ok(Err(_)) => Err(GliderError::closed(format!("rpc to {addr}"))),
        Ok(Ok(res)) => res,
    }
}

/// Most frames coalesced into one vectored write by the writer loops.
///
/// The paper's batched-async-operations window (§7.2) makes clients keep
/// many small data operations in flight, so the writer's queue regularly
/// holds bursts; draining them into a single write amortizes the syscall.
const WRITE_BATCH_FRAMES: usize = 32;

/// Payload-byte bound for one coalesced write, so batching never delays a
/// bulk transfer behind an ever-growing vectored write.
const WRITE_BATCH_BYTES: u64 = 1024 * 1024;

/// Starting from `first` (obtained by a blocking `recv`), opportunistically
/// drains already-queued items into `batch` with `try_recv`, stopping at
/// the frame-count and payload-byte bounds so one vectored write stays a
/// bounded unit of work.
fn collect_batch<T: Into<Frame>>(
    first: (u32, T),
    rx: &mut mpsc::Receiver<(u32, T)>,
    batch: &mut Vec<TaggedFrame>,
) {
    let (stream, first) = first;
    let first = first.into();
    let mut bytes = first.payload_len();
    batch.push((stream, first));
    while batch.len() < WRITE_BATCH_FRAMES && bytes < WRITE_BATCH_BYTES {
        match rx.try_recv() {
            Ok((stream, item)) => {
                let frame = item.into();
                bytes += frame.payload_len();
                batch.push((stream, frame));
            }
            Err(_) => break,
        }
    }
}

async fn writer_task(
    mut tx: FrameTx,
    mut req_rx: mpsc::Receiver<(u32, Request)>,
    metrics: Option<Arc<MetricsRegistry>>,
) {
    let mut batch: Vec<TaggedFrame> = Vec::with_capacity(WRITE_BATCH_FRAMES);
    while let Some(req) = req_rx.recv().await {
        collect_batch(req, &mut req_rx, &mut batch);
        let frames = batch.len() as u64;
        let start = Instant::now();
        if tx.send_batch(&mut batch).await.is_err() {
            break;
        }
        if let Some(m) = &metrics {
            m.record_batch_occupancy(frames);
            m.record_latency(OpKind::WriterFlush, start.elapsed());
        }
    }
}

async fn reader_task(mut rx: FrameRx, pending: Pending, streams: StreamMap) {
    loop {
        match rx.recv_tagged().await {
            Ok(Some((_stream, Frame::Response(resp)))) => {
                let waiter = pending.lock().as_mut().and_then(|m| m.remove(&resp.id));
                if let Some(w) = waiter {
                    let _ = w.send(Ok(resp.body));
                }
            }
            Ok(Some((_stream, Frame::Credit { stream_id, credits }))) => {
                let state = streams.lock().get(&stream_id).cloned();
                if let Some(state) = state {
                    state.grant(credits);
                }
                // Grants for already-closed streams just vanish.
            }
            Ok(Some((_stream, Frame::Request(_)))) => {
                // Servers never send requests; drop and keep reading.
            }
            Ok(None) | Err(_) => break,
        }
    }
    // Fail everything still in flight and refuse new calls.
    let map = pending.lock().take();
    if let Some(map) = map {
        for (_, w) in map {
            let _ = w.send(Err(GliderError::new(
                ErrorCode::Closed,
                "connection closed with request in flight",
            )));
        }
    }
    // No further grants can arrive on this connection: refund every
    // outstanding credit so streams fail over with their full window
    // instead of deadlocking at zero.
    for state in streams.lock().values() {
        state.refund_all();
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// Per-request context passed to handlers.
#[derive(Debug, Clone, Copy)]
pub struct ConnCtx {
    /// The tier the peer declared in its handshake.
    pub peer: PeerTier,
    /// A server-unique id for the connection.
    pub conn_id: u64,
    /// The end-to-end trace id of this request (0 when untraced).
    pub trace_id: u64,
    /// The span id of the server's `rpc.dispatch` span, for handlers to
    /// parent their own spans under.
    pub parent_span: u64,
}

impl ConnCtx {
    /// The dispatch span's context, for building handler child spans.
    pub fn span_context(&self) -> SpanContext {
        SpanContext {
            trace_id: self.trace_id,
            span_id: self.parent_span,
        }
    }
}

/// The latency class a request is recorded under; `None` for requests
/// that are not measured (handshake, stats introspection).
fn op_kind(body: &RequestBody) -> Option<OpKind> {
    Some(match body {
        RequestBody::CreateNode { .. } => OpKind::MetaCreateNode,
        RequestBody::LookupNode { .. } => OpKind::MetaLookupNode,
        RequestBody::DeleteNode { .. } => OpKind::MetaDeleteNode,
        RequestBody::ListChildren { .. } => OpKind::MetaListChildren,
        RequestBody::AddBlock { .. } => OpKind::MetaAddBlock,
        RequestBody::AddBlocks { .. } => OpKind::MetaAddBlocks,
        // Replacement is an allocation with a swap; it shares the
        // add-block latency class rather than growing the OpKind set.
        RequestBody::ReplaceBlock { .. } => OpKind::MetaAddBlock,
        RequestBody::CommitBlock { .. } => OpKind::MetaCommitBlock,
        RequestBody::CommitBlocks { .. } => OpKind::MetaCommitBlocks,
        RequestBody::RegisterServer { .. } => OpKind::MetaRegisterServer,
        RequestBody::WriteBlock { .. } => OpKind::BlockWrite,
        RequestBody::ReadBlock { .. } => OpKind::BlockRead,
        RequestBody::FreeBlocks { .. } => OpKind::BlockFree,
        // Replication writes are block writes with a forwarding hop; the
        // repair/introspection pair ride the metadata classes they extend.
        RequestBody::ForwardChunk { .. } | RequestBody::ReplicateBlock { .. } => OpKind::BlockWrite,
        RequestBody::NodeReplicas { .. } => OpKind::MetaLookupNode,
        RequestBody::RepairNode { .. } => OpKind::MetaAddBlock,
        RequestBody::ActionCreate { .. }
        | RequestBody::ActionDelete { .. }
        | RequestBody::StreamOpen { .. }
        | RequestBody::StreamClose { .. } => OpKind::ActionInvoke,
        // The streaming hot path is split out from action control so the
        // sweep can see record-push and fetch latencies on their own.
        RequestBody::StreamChunk { .. } | RequestBody::StreamChunkBatch { .. } => {
            OpKind::ActionStreamWrite
        }
        RequestBody::StreamFetch { .. } => OpKind::ActionStreamRead,
        // Handshake, introspection (Stats, DumpSpans, MetricsSeries), and
        // liveness beacons are not measured as operations (heartbeats
        // would drown real metadata latencies, and the observability
        // plane must not perturb the histograms it reports).
        RequestBody::Hello { .. }
        | RequestBody::Stats
        | RequestBody::DumpSpans { .. }
        | RequestBody::MetricsSeries
        | RequestBody::Heartbeat { .. } => return None,
    })
}

/// Server-side request dispatch.
///
/// `handle` is given an owned `Arc<Self>` so the returned future can be
/// `'static` and run on its own task (long-blocking operations such as
/// action stream fetches must not stall the connection).
pub trait RpcHandler: Send + Sync + 'static {
    /// Handles one request and produces a response body.
    fn handle(
        self: Arc<Self>,
        ctx: ConnCtx,
        body: RequestBody,
    ) -> BoxFuture<'static, GliderResult<ResponseBody>>;

    /// Shared-nothing fast path: handle `body` synchronously on the
    /// connection task, skipping the per-request spawn. Return
    /// `Ok(result)` to answer immediately, or give `body` back with
    /// `Err(body)` to fall through to [`RpcHandler::handle`].
    ///
    /// Implementations must not block or await: this runs on the
    /// connection's read loop, so only lock-free or short-critical-
    /// section work belongs here (DRAM-tier block reads/writes against a
    /// sharded map, say). The default declines everything.
    fn try_handle_sync(
        self: Arc<Self>,
        _ctx: ConnCtx,
        body: RequestBody,
    ) -> Result<GliderResult<ResponseBody>, RequestBody> {
        Err(body)
    }
}

/// Handle to a running RPC server. Aborts the accept loop (and through it
/// every connection task) when shut down or dropped.
#[derive(Debug)]
pub struct ServerHandle {
    addr: String,
    accept_task: tokio::task::JoinHandle<()>,
}

impl ServerHandle {
    /// The dialable address of the server.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Stops accepting and tears down all connection tasks.
    pub fn shutdown(&self) {
        self.accept_task.abort();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.accept_task.abort();
    }
}

/// Starts serving `listener` with `handler`.
///
/// `server_tier` is the tier of this server for transfer metering (always
/// [`Tier::Storage`] for Glider servers); payload bytes of inbound requests
/// and outbound responses are recorded against the peer's declared tier.
pub fn serve(
    listener: BoundListener,
    handler: Arc<dyn RpcHandler>,
    metrics: Arc<MetricsRegistry>,
    server_tier: Tier,
) -> ServerHandle {
    let addr = listener.local_addr().to_string();
    let source: Arc<str> = Arc::from(addr.as_str());
    let accept_task = tokio::spawn(accept_loop(listener, handler, metrics, server_tier, source));
    ServerHandle { addr, accept_task }
}

async fn accept_loop(
    mut listener: BoundListener,
    handler: Arc<dyn RpcHandler>,
    metrics: Arc<MetricsRegistry>,
    server_tier: Tier,
    source: Arc<str>,
) {
    let mut conns = JoinSet::new();
    let conn_ids = AtomicU64::new(1);
    loop {
        tokio::select! {
            accepted = listener.accept() => {
                match accepted {
                    Ok((tx, rx)) => {
                        let conn_id = conn_ids.fetch_add(1, Ordering::Relaxed);
                        conns.spawn(connection_task(
                            tx,
                            rx,
                            Arc::clone(&handler),
                            Arc::clone(&metrics),
                            server_tier,
                            conn_id,
                            Arc::clone(&source),
                        ));
                    }
                    Err(_) => break,
                }
            }
            // Reap finished connection tasks so the set does not grow.
            Some(_) = conns.join_next(), if !conns.is_empty() => {}
        }
    }
}

/// Whether `body` is an introspection request every server answers
/// uniformly from its own registry and flight recorder (handlers never
/// see these).
fn is_introspection(body: &RequestBody) -> bool {
    matches!(
        body,
        RequestBody::Stats | RequestBody::DumpSpans { .. } | RequestBody::MetricsSeries
    )
}

/// Answers one introspection request. `DumpSpans` is idempotent by
/// construction: it reads a snapshot keyed by `(trace_id, since_seq)`
/// and mutates nothing, so a retried dump returns the same (or a
/// strictly newer) view.
fn introspect(body: &RequestBody, metrics: &MetricsRegistry, source: &str) -> ResponseBody {
    match body {
        RequestBody::Stats => ResponseBody::Stats(build_stats(&metrics.snapshot())),
        RequestBody::DumpSpans {
            trace_id,
            since_seq,
        } => ResponseBody::Spans(build_span_dump(source, *trace_id, *since_seq)),
        RequestBody::MetricsSeries => ResponseBody::Series(build_series(source, metrics)),
        // Guarded by is_introspection; answering with a protocol error
        // (not a panic) keeps the connection task total.
        other => ResponseBody::from_error(&GliderError::protocol(format!(
            "{} is not an introspection request",
            other.op_name()
        ))),
    }
}

async fn connection_task(
    tx: FrameTx,
    mut rx: FrameRx,
    handler: Arc<dyn RpcHandler>,
    metrics: Arc<MetricsRegistry>,
    server_tier: Tier,
    conn_id: u64,
    source: Arc<str>,
) {
    // Every request on this connection arrived over the same transport.
    let transport = rx.scheme();

    // Handshake: the first request must be Hello.
    let (hello_id, peer) = match rx.recv_tagged().await {
        Ok(Some((
            _,
            Frame::Request(Request {
                id,
                body: RequestBody::Hello { tier },
                ..
            }),
        ))) => (id, tier),
        _ => return,
    };

    let (resp_tx, resp_rx) = mpsc::channel::<(u32, Frame)>(256);
    let writer = tokio::spawn(response_writer(
        tx,
        resp_rx,
        Arc::clone(&metrics),
        server_tier,
        tier_of(peer),
    ));

    let _ = resp_tx
        .send((
            LEGACY_STREAM,
            Frame::Response(Response {
                id: hello_id,
                body: ResponseBody::Ok,
            }),
        ))
        .await;

    let peer_tier = tier_of(peer);
    let mut requests = JoinSet::new();
    loop {
        tokio::select! {
            frame = rx.recv_tagged() => {
                match frame {
                    Ok(Some((stream, Frame::Request(req)))) => {
                        metrics.transport_request(transport);
                        let inbound = req.body.payload_len();
                        if inbound > 0 {
                            metrics.record_transfer(peer_tier, server_tier, inbound);
                        }
                        // Flow control: replenish the stream's window as
                        // soon as the request is admitted — the credit
                        // bounds queued requests, not their execution.
                        if stream != LEGACY_STREAM {
                            let _ = resp_tx
                                .send((stream, Frame::Credit { stream_id: stream, credits: 1 }))
                                .await;
                        }
                        // Introspection (Stats, DumpSpans, MetricsSeries)
                        // is answered here, uniformly for every server,
                        // from the connection's own registry and the
                        // process flight recorder; handlers never see it.
                        if is_introspection(&req.body) {
                            let resp_tx = resp_tx.clone();
                            let metrics = Arc::clone(&metrics);
                            let source = Arc::clone(&source);
                            requests.spawn(async move {
                                let body = introspect(&req.body, &metrics, &source);
                                let frame = Frame::Response(Response { id: req.id, body });
                                let _ = resp_tx.send((stream, frame)).await;
                            });
                            continue;
                        }
                        let kind = op_kind(&req.body);
                        metrics.rpc_start();
                        // Shared-nothing fast path: let the handler answer
                        // on the connection task when it can do so without
                        // blocking. Skipped while tracing is on — the slow
                        // path owns the rpc.dispatch span, and the fast
                        // path must not emit a duplicate.
                        let req = if glider_trace::tracing_enabled() {
                            req
                        } else {
                            let Request { id, trace_id, body } = req;
                            let ctx = ConnCtx {
                                peer,
                                conn_id,
                                trace_id,
                                parent_span: 0,
                            };
                            let start = Instant::now();
                            match Arc::clone(&handler).try_handle_sync(ctx, body) {
                                Ok(result) => {
                                    let body = match result {
                                        Ok(body) => body,
                                        Err(err) => ResponseBody::from_error(&err),
                                    };
                                    if let Some(kind) = kind {
                                        metrics.record_latency_traced(
                                            kind,
                                            start.elapsed(),
                                            trace_id,
                                        );
                                    }
                                    metrics.rpc_end();
                                    let frame = Frame::Response(Response { id, body });
                                    let _ = resp_tx.send((stream, frame)).await;
                                    continue;
                                }
                                // Declined: dispatch below with the body
                                // handed back.
                                Err(body) => Request { id, trace_id, body },
                            }
                        };
                        spawn_dispatch(
                            &mut requests,
                            Arc::clone(&handler),
                            resp_tx.clone(),
                            Arc::clone(&metrics),
                            stream,
                            req,
                            kind,
                            peer,
                            conn_id,
                        );
                    }
                    Ok(Some((_, Frame::Response(_)))) | Ok(Some((_, Frame::Credit { .. }))) => {
                        // Clients never send responses, and servers do not
                        // consume credit; ignore.
                    }
                    Ok(None) | Err(_) => break,
                }
            }
            Some(_) = requests.join_next(), if !requests.is_empty() => {}
        }
    }
    drop(resp_tx);
    // Let in-flight requests finish before closing the writer.
    while requests.join_next().await.is_some() {}
    let _ = writer.await;
}

/// Slow-path dispatch: one spawned task per request, with the server half
/// of the trace span created inside the task (so span lifetime matches
/// handler execution exactly).
#[allow(clippy::too_many_arguments)]
fn spawn_dispatch(
    requests: &mut JoinSet<()>,
    handler: Arc<dyn RpcHandler>,
    resp_tx: mpsc::Sender<(u32, Frame)>,
    metrics: Arc<MetricsRegistry>,
    stream: u32,
    req: Request,
    kind: Option<OpKind>,
    peer: PeerTier,
    conn_id: u64,
) {
    requests.spawn(async move {
        // The server half of the trace: continues the trace id carried
        // in the request header.
        let span = Span::remote("rpc.dispatch", req.trace_id);
        let ctx = ConnCtx {
            peer,
            conn_id,
            trace_id: span.trace_id(),
            parent_span: span.context().span_id,
        };
        let start = Instant::now();
        let body = match handler.handle(ctx, req.body).await {
            Ok(body) => body,
            Err(err) => ResponseBody::from_error(&err),
        };
        // Latency is recorded server-side only, so in-process setups
        // sharing one registry do not double-count an op per hop. The
        // trace id rides along as the histogram bucket's exemplar.
        if let Some(kind) = kind {
            metrics.record_latency_traced(kind, start.elapsed(), ctx.trace_id);
        }
        metrics.rpc_end();
        drop(span);
        let frame = Frame::Response(Response { id: req.id, body });
        let _ = resp_tx.send((stream, frame)).await;
    });
}

async fn response_writer(
    mut tx: FrameTx,
    mut resp_rx: mpsc::Receiver<(u32, Frame)>,
    metrics: Arc<MetricsRegistry>,
    server_tier: Tier,
    peer_tier: Tier,
) {
    let mut batch: Vec<TaggedFrame> = Vec::with_capacity(WRITE_BATCH_FRAMES);
    while let Some(resp) = resp_rx.recv().await {
        collect_batch(resp, &mut resp_rx, &mut batch);
        for (_, frame) in &batch {
            let outbound = frame.payload_len();
            if outbound > 0 {
                metrics.record_transfer(server_tier, peer_tier, outbound);
            }
        }
        let frames = batch.len() as u64;
        let start = Instant::now();
        if tx.send_batch(&mut batch).await.is_err() {
            break;
        }
        metrics.record_batch_occupancy(frames);
        metrics.record_latency(OpKind::WriterFlush, start.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use glider_proto::types::BlockId;

    /// Echo-style handler: Writes report their length, Reads return zeros,
    /// everything else gets Ok.
    struct TestHandler;

    impl RpcHandler for TestHandler {
        fn handle(
            self: Arc<Self>,
            _ctx: ConnCtx,
            body: RequestBody,
        ) -> BoxFuture<'static, GliderResult<ResponseBody>> {
            Box::pin(async move {
                match body {
                    RequestBody::WriteBlock { data, .. } => Ok(ResponseBody::Written {
                        n: data.len() as u64,
                    }),
                    RequestBody::ReadBlock { len, .. } => Ok(ResponseBody::Data {
                        seq: 0,
                        bytes: Bytes::from(vec![0u8; len as usize]),
                        eof: true,
                    }),
                    RequestBody::LookupNode { path } => {
                        Err(GliderError::not_found(format!("node {path}")))
                    }
                    _ => Ok(ResponseBody::Ok),
                }
            })
        }
    }

    async fn start(addr: &str) -> (ServerHandle, Arc<MetricsRegistry>) {
        let metrics = MetricsRegistry::new();
        let listener = crate::conn::bind(addr).await.unwrap();
        let handle = serve(
            listener,
            Arc::new(TestHandler),
            Arc::clone(&metrics),
            Tier::Storage,
        );
        (handle, metrics)
    }

    #[tokio::test]
    async fn call_round_trip_over_tcp() {
        let (server, metrics) = start("127.0.0.1:0").await;
        let client = RpcClient::connect(server.addr(), PeerTier::Compute, None)
            .await
            .unwrap();
        let resp = client
            .call(RequestBody::WriteBlock {
                block_id: BlockId(1),
                offset: 0,
                data: Bytes::from_static(b"hello world"),
            })
            .await
            .unwrap();
        assert_eq!(resp, ResponseBody::Written { n: 11 });
        let snap = metrics.snapshot();
        assert_eq!(snap.transferred(Tier::Compute, Tier::Storage), 11);
    }

    #[tokio::test]
    async fn call_round_trip_over_mem() {
        let (server, metrics) = start("mem://rpc-test-mem").await;
        let client = RpcClient::connect_intra_storage(server.addr())
            .await
            .unwrap();
        let resp = client
            .call(RequestBody::ReadBlock {
                block_id: BlockId(1),
                offset: 0,
                len: 100,
            })
            .await
            .unwrap();
        match resp {
            ResponseBody::Data { bytes, eof, .. } => {
                assert_eq!(bytes.len(), 100);
                assert!(eof);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Intra-storage traffic is metered storage->storage.
        let snap = metrics.snapshot();
        assert_eq!(snap.intra_storage_bytes(), 100);
        assert_eq!(snap.tier_crossing_bytes(), 0);
    }

    #[tokio::test]
    async fn server_errors_surface_as_glider_errors() {
        let (server, _metrics) = start("127.0.0.1:0").await;
        let client = RpcClient::connect(server.addr(), PeerTier::Compute, None)
            .await
            .unwrap();
        let err = client
            .call(RequestBody::LookupNode {
                path: "/missing".to_string(),
            })
            .await
            .unwrap_err();
        assert_eq!(err.code(), ErrorCode::NotFound);
    }

    #[tokio::test]
    async fn many_concurrent_calls_multiplex() {
        let (server, _metrics) = start("127.0.0.1:0").await;
        let client = RpcClient::connect(server.addr(), PeerTier::Compute, None)
            .await
            .unwrap();
        let mut joins = Vec::new();
        for i in 0..64u64 {
            let c = client.clone();
            joins.push(tokio::spawn(async move {
                let resp = c
                    .call(RequestBody::ReadBlock {
                        block_id: BlockId(i),
                        offset: 0,
                        len: i,
                    })
                    .await
                    .unwrap();
                match resp {
                    ResponseBody::Data { bytes, .. } => assert_eq!(bytes.len() as u64, i),
                    other => panic!("unexpected {other:?}"),
                }
            }));
        }
        for j in joins {
            j.await.unwrap();
        }
    }

    #[tokio::test]
    async fn bursty_writes_batch_without_loss() {
        let (server, metrics) = start("127.0.0.1:0").await;
        let client = RpcClient::connect(server.addr(), PeerTier::Compute, None)
            .await
            .unwrap();
        // 256 concurrent 1 KiB writes: far more than one writer batch, so
        // the loops must coalesce correctly without dropping or double-
        // counting frames.
        let mut joins = Vec::new();
        for i in 0..256u64 {
            let c = client.clone();
            joins.push(tokio::spawn(async move {
                let resp = c
                    .call(RequestBody::WriteBlock {
                        block_id: BlockId(i),
                        offset: 0,
                        data: Bytes::from(vec![i as u8; 1024]),
                    })
                    .await
                    .unwrap();
                assert_eq!(resp, ResponseBody::Written { n: 1024 });
            }));
        }
        for j in joins {
            j.await.unwrap();
        }
        let snap = metrics.snapshot();
        assert_eq!(snap.transferred(Tier::Compute, Tier::Storage), 256 * 1024);
    }

    #[tokio::test]
    async fn shutdown_closes_connections() {
        let (server, _metrics) = start("127.0.0.1:0").await;
        let client = RpcClient::connect(server.addr(), PeerTier::Compute, None)
            .await
            .unwrap();
        client
            .call(RequestBody::AddBlock { node_id: 1.into() })
            .await
            .unwrap();
        server.shutdown();
        // The abort propagates asynchronously: poll until the connection
        // observably fails instead of sleeping a fixed (flaky) interval.
        let mut last = None;
        for _ in 0..200 {
            match client
                .call(RequestBody::AddBlock { node_id: 1.into() })
                .await
            {
                Ok(_) => tokio::time::sleep(std::time::Duration::from_millis(5)).await,
                Err(err) => {
                    last = Some(err);
                    break;
                }
            }
        }
        let err = last.expect("server kept answering after shutdown");
        assert_eq!(err.code(), ErrorCode::Closed);
    }

    #[tokio::test]
    async fn bounced_server_heals_transparently() {
        // Bounce a mem:// server: the dropped connection must fail fast,
        // then the next calls redial, re-handshake, and succeed — without
        // rebuilding the client.
        let addr = "mem://rpc-test-bounce";
        let (server, _metrics) = start(addr).await;
        let client_metrics = MetricsRegistry::new();
        let client = RpcClient::connect_with_metrics(
            addr,
            PeerTier::Compute,
            None,
            Some(Arc::clone(&client_metrics)),
        )
        .await
        .unwrap();
        client
            .call(RequestBody::AddBlock { node_id: 1.into() })
            .await
            .unwrap();
        server.shutdown();
        drop(server);
        // Wait until the old connection observably died.
        for _ in 0..200 {
            if client
                .call(RequestBody::AddBlock { node_id: 1.into() })
                .await
                .is_err()
            {
                break;
            }
            tokio::time::sleep(Duration::from_millis(5)).await;
        }
        // Server comes back on the same address.
        let (server2, _metrics2) = start(addr).await;
        // The poll above may leave the client mid-backoff; give the dial a
        // few chances (each call redials internally).
        let mut healed = false;
        for _ in 0..50 {
            if client
                .call(RequestBody::AddBlock { node_id: 1.into() })
                .await
                .is_ok()
            {
                healed = true;
                break;
            }
            tokio::time::sleep(Duration::from_millis(10)).await;
        }
        assert!(healed, "client did not heal after the server came back");
        assert!(
            client_metrics.snapshot().rpc_reconnects > 0,
            "reconnect was not counted"
        );
        drop(server2);
    }

    #[tokio::test]
    async fn idempotent_calls_retry_within_budget() {
        // A handler that fails the first two lookups with a retryable
        // error, then succeeds: the client must absorb the failures.
        struct Flaky(AtomicU64);
        impl RpcHandler for Flaky {
            fn handle(
                self: Arc<Self>,
                _ctx: ConnCtx,
                body: RequestBody,
            ) -> BoxFuture<'static, GliderResult<ResponseBody>> {
                Box::pin(async move {
                    match body {
                        RequestBody::LookupNode { .. } => {
                            if self.0.fetch_add(1, Ordering::Relaxed) < 2 {
                                Err(GliderError::unavailable("lookup shard"))
                            } else {
                                Ok(ResponseBody::Ok)
                            }
                        }
                        // Non-idempotent ops surface the error untouched.
                        RequestBody::CommitBlock { .. } => {
                            Err(GliderError::unavailable("commit path"))
                        }
                        _ => Ok(ResponseBody::Ok),
                    }
                })
            }
        }
        let metrics = MetricsRegistry::new();
        let listener = crate::conn::bind("127.0.0.1:0").await.unwrap();
        let server = serve(
            listener,
            Arc::new(Flaky(AtomicU64::new(0))),
            Arc::clone(&metrics),
            Tier::Storage,
        );
        let client_metrics = MetricsRegistry::new();
        let client = RpcClient::connect_with_metrics(
            server.addr(),
            PeerTier::Compute,
            None,
            Some(Arc::clone(&client_metrics)),
        )
        .await
        .unwrap();
        client
            .call(RequestBody::LookupNode { path: "/x".into() })
            .await
            .expect("idempotent lookup should retry past transient errors");
        assert_eq!(client_metrics.snapshot().rpc_retries, 2);
        // Non-idempotent: the typed retryable error reaches the caller.
        let err = client
            .call(RequestBody::CommitBlock {
                node_id: 1.into(),
                block_id: BlockId(1),
                len: 1,
            })
            .await
            .unwrap_err();
        assert_eq!(err.code(), ErrorCode::Unavailable);
        assert!(err.is_retryable(), "caller keeps the retryable signal");
        assert_eq!(client_metrics.snapshot().rpc_retries, 2, "no auto-retry");
    }

    #[tokio::test]
    async fn deadline_times_out_stalled_calls() {
        // A handler that never answers reads: the per-class deadline must
        // convert the stall into ErrorCode::Timeout.
        struct Stall;
        impl RpcHandler for Stall {
            fn handle(
                self: Arc<Self>,
                _ctx: ConnCtx,
                body: RequestBody,
            ) -> BoxFuture<'static, GliderResult<ResponseBody>> {
                Box::pin(async move {
                    if matches!(body, RequestBody::ReadBlock { .. }) {
                        futures::future::pending::<()>().await;
                    }
                    Ok(ResponseBody::Ok)
                })
            }
        }
        let metrics = MetricsRegistry::new();
        let listener = crate::conn::bind("127.0.0.1:0").await.unwrap();
        let server = serve(
            listener,
            Arc::new(Stall),
            Arc::clone(&metrics),
            Tier::Storage,
        );
        let policy = RetryPolicy {
            data_deadline: Duration::from_millis(50),
            max_attempts: 2,
            ..RetryPolicy::default()
        };
        let client =
            RpcClient::connect_with_options(server.addr(), PeerTier::Compute, None, None, policy)
                .await
                .unwrap();
        let start = Instant::now();
        let err = client
            .call(RequestBody::ReadBlock {
                block_id: BlockId(1),
                offset: 0,
                len: 1,
            })
            .await
            .unwrap_err();
        assert_eq!(err.code(), ErrorCode::Timeout);
        // Two attempts of 50ms plus one bounded backoff.
        assert!(start.elapsed() < Duration::from_secs(2));
    }

    #[tokio::test]
    async fn stats_rpc_reports_server_histograms() {
        let (server, metrics) = start("127.0.0.1:0").await;
        let client = RpcClient::connect(server.addr(), PeerTier::Compute, None)
            .await
            .unwrap();
        for i in 0..10u64 {
            client
                .call(RequestBody::WriteBlock {
                    block_id: BlockId(i),
                    offset: 0,
                    data: Bytes::from_static(b"x"),
                })
                .await
                .unwrap();
        }
        let resp = client.call(RequestBody::Stats).await.unwrap();
        let payload = match resp {
            ResponseBody::Stats(p) => p,
            other => panic!("unexpected {other:?}"),
        };
        let write = payload
            .ops
            .iter()
            .find(|o| o.name == OpKind::BlockWrite.name())
            .unwrap();
        assert_eq!(write.buckets.iter().sum::<u64>(), 10);
        // The write latencies also landed in the server registry directly.
        let snap = metrics.snapshot();
        assert_eq!(snap.op_latency(OpKind::BlockWrite).count(), 10);
        assert!(snap.op_latency(OpKind::BlockWrite).p50() > 0);
        // Hello and Stats themselves are not measured as ops.
        assert_eq!(snap.op_latency(OpKind::BlockRead).count(), 0);
        // Response flushes were batched and timed.
        assert!(snap.batch_occupancy.count() > 0);
        assert!(snap.op_latency(OpKind::WriterFlush).count() > 0);
    }

    #[tokio::test]
    async fn client_metrics_observe_writer_batches() {
        let (server, _metrics) = start("127.0.0.1:0").await;
        let client_metrics = MetricsRegistry::new();
        let client = RpcClient::connect_with_metrics(
            server.addr(),
            PeerTier::Compute,
            None,
            Some(Arc::clone(&client_metrics)),
        )
        .await
        .unwrap();
        client
            .call(RequestBody::AddBlock { node_id: 1.into() })
            .await
            .unwrap();
        let snap = client_metrics.snapshot();
        assert!(snap.batch_occupancy.count() > 0);
        assert!(snap.op_latency(OpKind::WriterFlush).count() > 0);
        // The client does not record op latency; servers do.
        assert_eq!(snap.op_latency(OpKind::MetaAddBlock).count(), 0);
    }

    #[tokio::test]
    async fn dispatch_spans_continue_the_client_trace() {
        // The flight recorder is process-global and shared with
        // `stats::span_dump_reflects_recorder_state` (get-or-create, and
        // never uninstalled here, so neither test pulls it from under the
        // other); give this test its own server so other tests' spans
        // cannot interleave ids we assert on (they may still add
        // unrelated records).
        let rec = glider_trace::install_recorder();
        let since = rec.last_seq();
        let (server, _metrics) = start("127.0.0.1:0").await;
        let client = RpcClient::connect(server.addr(), PeerTier::Compute, None)
            .await
            .unwrap();
        client
            .call(RequestBody::AddBlock { node_id: 9.into() })
            .await
            .unwrap();
        let spans = rec.snapshot(0, since).spans;
        // Find a client.call whose trace also has an rpc.dispatch.
        let linked = spans.iter().filter(|s| s.name == "client.call").any(|c| {
            spans
                .iter()
                .any(|d| d.name == "rpc.dispatch" && d.trace_id == c.trace_id && d.remote)
        });
        assert!(linked, "no linked client.call/rpc.dispatch pair: {spans:?}");
    }

    #[tokio::test]
    async fn throttled_client_is_paced() {
        let (server, _metrics) = start("127.0.0.1:0").await;
        // 1 MiB/s with 64 KiB burst; sending 256 KiB should take >= ~180ms.
        let bucket = Arc::new(TokenBucket::new(1024 * 1024, 64 * 1024));
        let client = RpcClient::connect(server.addr(), PeerTier::Compute, Some(bucket))
            .await
            .unwrap();
        let start = std::time::Instant::now();
        let data = Bytes::from(vec![7u8; 256 * 1024]);
        client
            .call(RequestBody::WriteBlock {
                block_id: BlockId(1),
                offset: 0,
                data,
            })
            .await
            .unwrap();
        // One more tiny call to pay the debt.
        client
            .call(RequestBody::WriteBlock {
                block_id: BlockId(1),
                offset: 0,
                data: Bytes::from_static(b"x"),
            })
            .await
            .unwrap();
        assert!(start.elapsed() >= std::time::Duration::from_millis(150));
    }

    #[tokio::test]
    async fn stream_calls_round_trip_on_both_transports() {
        for addr in ["127.0.0.1:0", "mem://rpc-test-stream"] {
            let (server, _metrics) = start(addr).await;
            let client_metrics = MetricsRegistry::new();
            let client = RpcClient::connect_with_metrics(
                server.addr(),
                PeerTier::Compute,
                None,
                Some(Arc::clone(&client_metrics)),
            )
            .await
            .unwrap();
            let stream = client.open_stream(4);
            assert_ne!(stream.id(), 0, "stream ids never collide with legacy");
            for i in 0..16u64 {
                let resp = stream
                    .call(RequestBody::WriteBlock {
                        block_id: BlockId(i),
                        offset: 0,
                        data: Bytes::from(vec![i as u8; 64]),
                    })
                    .await
                    .unwrap();
                assert_eq!(resp, ResponseBody::Written { n: 64 });
            }
            let snap = client_metrics.snapshot();
            assert_eq!(snap.streams_opened, 1);
            assert_eq!(snap.streams_open_current, 1);
            drop(stream);
            assert_eq!(client_metrics.snapshot().streams_open_current, 0);
        }
    }

    #[tokio::test]
    async fn stream_window_replenishes_past_its_size() {
        // Window of 1: every call needs the credit from the previous one
        // back before it may send. 32 sequential calls prove the server
        // grants credit per admission (a lost grant would deadlock here,
        // caught by the data deadline).
        let (server, _metrics) = start("mem://rpc-test-window").await;
        let client = RpcClient::connect(server.addr(), PeerTier::Compute, None)
            .await
            .unwrap();
        let stream = client.open_stream(1);
        for i in 0..32u64 {
            stream
                .call(RequestBody::ReadBlock {
                    block_id: BlockId(i),
                    offset: 0,
                    len: 8,
                })
                .await
                .unwrap();
        }
    }

    #[tokio::test]
    async fn streams_and_legacy_calls_interleave() {
        let (server, _metrics) = start("127.0.0.1:0").await;
        let client = RpcClient::connect(server.addr(), PeerTier::Compute, None)
            .await
            .unwrap();
        let mut joins = Vec::new();
        for s in 0..4u64 {
            let stream = Arc::new(client.open_stream(2));
            for i in 0..16u64 {
                let stream = Arc::clone(&stream);
                joins.push(tokio::spawn(async move {
                    let resp = stream
                        .call(RequestBody::WriteBlock {
                            block_id: BlockId(s * 100 + i),
                            offset: 0,
                            data: Bytes::from(vec![s as u8; 32]),
                        })
                        .await
                        .unwrap();
                    assert_eq!(resp, ResponseBody::Written { n: 32 });
                }));
            }
        }
        // Legacy (stream 0) traffic rides the same connection unthrottled.
        for i in 0..16u64 {
            let c = client.clone();
            joins.push(tokio::spawn(async move {
                c.call(RequestBody::AddBlock {
                    node_id: (i + 1).into(),
                })
                .await
                .unwrap();
            }));
        }
        for j in joins {
            j.await.unwrap();
        }
    }

    #[tokio::test]
    async fn sync_fast_path_answers_without_spawning() {
        // A handler that answers writes synchronously and declines the
        // rest: both paths must produce correct responses, and the
        // inflight gauge must return to zero either way.
        struct SyncWrites;
        impl RpcHandler for SyncWrites {
            fn handle(
                self: Arc<Self>,
                _ctx: ConnCtx,
                body: RequestBody,
            ) -> BoxFuture<'static, GliderResult<ResponseBody>> {
                Box::pin(async move {
                    match body {
                        RequestBody::WriteBlock { .. } => {
                            panic!("writes must take the sync path")
                        }
                        _ => Ok(ResponseBody::Ok),
                    }
                })
            }
            fn try_handle_sync(
                self: Arc<Self>,
                _ctx: ConnCtx,
                body: RequestBody,
            ) -> Result<GliderResult<ResponseBody>, RequestBody> {
                match body {
                    RequestBody::WriteBlock { data, .. } => Ok(Ok(ResponseBody::Written {
                        n: data.len() as u64,
                    })),
                    other => Err(other),
                }
            }
        }
        let metrics = MetricsRegistry::new();
        let listener = crate::conn::bind("mem://rpc-test-sync").await.unwrap();
        let server = serve(
            listener,
            Arc::new(SyncWrites),
            Arc::clone(&metrics),
            Tier::Storage,
        );
        let client = RpcClient::connect(server.addr(), PeerTier::Compute, None)
            .await
            .unwrap();
        let resp = client
            .call(RequestBody::WriteBlock {
                block_id: BlockId(1),
                offset: 0,
                data: Bytes::from_static(b"sync"),
            })
            .await
            .unwrap();
        assert_eq!(resp, ResponseBody::Written { n: 4 });
        // Declined bodies fall through to the async handler.
        let resp = client
            .call(RequestBody::AddBlock { node_id: 1.into() })
            .await
            .unwrap();
        assert_eq!(resp, ResponseBody::Ok);
        let snap = metrics.snapshot();
        assert_eq!(snap.rpc_inflight_current, 0);
        assert!(snap.rpc_inflight_peak >= 1);
        assert_eq!(snap.transport_mem_requests, 2, "hello is not counted");
        assert_eq!(snap.op_latency(OpKind::BlockWrite).count(), 1);
    }

    #[tokio::test]
    async fn stream_window_survives_reconnect() {
        // Kill the server mid-stream: outstanding credit must be refunded
        // when the connection dies, so the stream still has its full
        // window against the replacement server.
        let addr = "mem://rpc-test-stream-bounce";
        let (server, _metrics) = start(addr).await;
        let client = RpcClient::connect(addr, PeerTier::Compute, None)
            .await
            .unwrap();
        let stream = client.open_stream(1);
        stream
            .call(RequestBody::AddBlock { node_id: 1.into() })
            .await
            .unwrap();
        server.shutdown();
        drop(server);
        // Drain the dying connection (legacy traffic, no credit at risk).
        for _ in 0..200 {
            if client
                .call(RequestBody::AddBlock { node_id: 1.into() })
                .await
                .is_err()
            {
                break;
            }
            tokio::time::sleep(Duration::from_millis(5)).await;
        }
        let (server2, _metrics2) = start(addr).await;
        // With a window of 1, a leaked credit would make every call here
        // time out. Several calls must succeed back-to-back.
        let mut healed = 0;
        for i in 0..50u64 {
            if stream
                .call(RequestBody::AddBlock {
                    node_id: (i + 1).into(),
                })
                .await
                .is_ok()
            {
                healed += 1;
                if healed >= 3 {
                    break;
                }
            } else {
                tokio::time::sleep(Duration::from_millis(10)).await;
            }
        }
        assert!(healed >= 3, "stream did not heal with its window intact");
        drop(server2);
    }
}
