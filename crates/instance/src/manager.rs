//! The action manager: instances, slots and open streams of one active
//! server (paper §5: "an action manager object that handles the creation,
//! execution, and deletion of action objects").
//!
//! The manager is a table and needs no runtime. It starts each
//! [`Instance`] through a [`Spawn`] function its owner passes in: the
//! server's action pool or the caller's runtime in production, a
//! one-thread poller in tests.
//!
//! - **One slot rule.** A node, and one of the `slots`, stay taken from
//!   its create until its instance has stopped. The instance frees them
//!   itself, through its stop hook, before it answers the delete (or the
//!   failed create), and also if it is dropped unfinished. So a second
//!   instance of a node, or one over `slots`, cannot start while
//!   `on_delete` still runs. Once its delete has begun a node is no
//!   longer addressable: opens and deletes answer `NotFound`, creates
//!   `AlreadyExists`.
//! - **A cancelled delete leaks nothing.** The delete takes the node's
//!   handle out of the table. If its caller drops it after the `Delete`
//!   is queued, the instance still runs `on_delete` and stops; if before,
//!   the handle drops with it, and the instance stops once its in-flight
//!   methods end (every handle gone).
//! - **One lock on each read side.** A read stream's receiver, the
//!   method's result and the next seq sit behind one `std::sync::Mutex`.
//!   Seqs are assigned under it, so concurrent windowed fetches get dense,
//!   distinct seqs, and every fetcher waiting on the stream parks its own
//!   waker ([`mod@crate::channel`]), so each is woken.
//! - **One path per request.** [`ActionManager::serve`] answers every
//!   action request. The connection loop's synchronous fast path,
//!   [`ActionManager::try_serve`], is that future's first poll: a stream
//!   request that would wait has had no effect yet, so it is dropped and
//!   its body handed back for the async path.

use crate::action::{ActionContext, StoreAccess};
use crate::channel::Receiver;
use crate::instance::{reply, Enqueued, Instance, InstanceHandle, Invocation, MAILBOX_DEPTH};
use crate::registry::ActionRegistry;
use crate::stream::{ActionInputStream, ActionOutputStream, InputPusher};
use bytes::Bytes;
use glider_metrics::MetricsRegistry;
use glider_proto::message::{RequestBody, ResponseBody};
use glider_proto::types::{ActionSpec, NodeId, StreamDir, StreamId};
use glider_proto::{ErrorCode, GliderError, GliderResult};
use glider_trace::SpanContext;
use std::collections::HashMap;
use std::future::{poll_fn, Future};
use std::pin::pin;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::task::{ready, Context, Poll, Waker};

/// Starts an instance: the manager hands each new [`Instance`] to this
/// function, which must poll it to completion (or drop it).
pub type Spawn = Arc<dyn Fn(Instance) + Send + Sync>;

/// Queue depth for write streams (client → action), in push requests: a
/// `StreamChunk` or a whole `StreamChunkBatch` each, so a stream holds at
/// most this many frames' payloads.
const INPUT_QUEUE_DEPTH: usize = 64;
/// Queue depth (chunks) for read streams (action → client).
const OUTPUT_QUEUE_DEPTH: usize = 16;

/// No code runs user callbacks under these locks, so a poisoned lock
/// still holds a consistent table.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[derive(Default)]
struct Table {
    /// Every node whose instance has not stopped; `None` once its delete
    /// has taken the handle.
    nodes: HashMap<NodeId, Option<InstanceHandle>>,
    streams: HashMap<StreamId, Stream>,
    last_stream: u64,
}

enum Stream {
    Write {
        node_id: NodeId,
        pusher: InputPusher,
        done: Receiver<GliderResult<()>>,
    },
    Read {
        node_id: NodeId,
        side: Arc<Mutex<ReadSide>>,
    },
}

impl Stream {
    fn node_id(&self) -> NodeId {
        match self {
            Stream::Write { node_id, .. } | Stream::Read { node_id, .. } => *node_id,
        }
    }
}

struct ReadSide {
    rx: Receiver<Bytes>,
    done: Receiver<GliderResult<()>>,
    /// The method's result, once the data has ended: every later fetch
    /// answers it.
    end: Option<GliderResult<()>>,
    next_seq: u64,
}

impl ReadSide {
    // glider: hot-path (action stream fetch, under the read side's lock)
    /// The next chunk with its seq, or the end with the chunk count. A
    /// pending poll changes nothing but the parked wakers.
    fn poll_fetch(&mut self, cx: &mut Context<'_>) -> Poll<GliderResult<(u64, Bytes, bool)>> {
        let end = match &self.end {
            Some(end) => end.clone(), // glider: alloc-ok (the method's result, once per fetch past the end, not per chunk)
            None => {
                if let Some(bytes) = ready!(self.rx.poll_recv(cx)) {
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    return Poll::Ready(Ok((seq, bytes, false)));
                }
                let end = ready!(self.done.poll_recv(cx))
                    .unwrap_or_else(|| Err(GliderError::closed("action instance")));
                self.end = Some(end.clone()); // glider: alloc-ok (kept once per stream, at its end)
                end
            }
        };
        Poll::Ready(end.map(|()| (self.next_seq, Bytes::new(), true)))
    }
    // glider: end-hot-path
}

/// Manages the action objects and streams of one active server.
///
/// The manager owns:
///
/// - the **action registry** (deployed definitions),
/// - the **instances** table (node id → running instance),
/// - the **slots** budget (how many actions this storage space hosts),
/// - the **open streams** table that the RPC layer drives.
pub struct ActionManager {
    registry: Arc<ActionRegistry>,
    slots: usize,
    store: Option<Arc<dyn StoreAccess>>,
    metrics: Option<Arc<MetricsRegistry>>,
    spawn: Spawn,
    /// Shared with each instance's stop hook, which frees its node.
    table: Arc<Mutex<Table>>,
}

impl ActionManager {
    /// Creates a manager hosting at most `slots` concurrent actions,
    /// starting each instance with `spawn`.
    pub fn new(
        registry: Arc<ActionRegistry>,
        slots: usize,
        store: Option<Arc<dyn StoreAccess>>,
        metrics: Option<Arc<MetricsRegistry>>,
        spawn: Spawn,
    ) -> Self {
        ActionManager {
            registry,
            slots,
            store,
            metrics,
            spawn,
            table: Arc::default(),
        }
    }

    fn table(&self) -> MutexGuard<'_, Table> {
        lock(&self.table)
    }

    /// The registry of deployed action definitions.
    pub fn registry(&self) -> &Arc<ActionRegistry> {
        &self.registry
    }

    /// Number of action instances that have not stopped (each holds a
    /// slot).
    pub fn instance_count(&self) -> usize {
        self.table().nodes.len()
    }

    /// Instantiates an action object into `node_id` and runs `on_create`.
    ///
    /// # Errors
    ///
    /// - [`ErrorCode::AlreadyExists`] if the node's instance has not
    ///   stopped,
    /// - [`ErrorCode::OutOfCapacity`] when all slots are taken,
    /// - [`ErrorCode::UnknownActionType`] for unregistered types,
    /// - any error returned by the action's `on_create` (the instance
    ///   then stops and frees its slot before the answer).
    pub async fn create_action(&self, node_id: NodeId, spec: ActionSpec) -> GliderResult<()> {
        let action = self.registry.instantiate(&spec)?;
        let ctx = ActionContext::new(node_id, spec.interleaved, self.store.clone());
        let (mut instance, handle, mut created) =
            Instance::new(action, ctx, self.metrics.clone(), MAILBOX_DEPTH);
        {
            let mut table = self.table();
            if table.nodes.contains_key(&node_id) {
                return Err(GliderError::already_exists(format!(
                    "action object in node {node_id}"
                )));
            }
            if table.nodes.len() >= self.slots {
                return Err(GliderError::new(
                    ErrorCode::OutOfCapacity,
                    format!("all {} action slots are in use", self.slots),
                ));
            }
            table.nodes.insert(node_id, Some(handle));
        }
        let table = Arc::downgrade(&self.table);
        instance.on_stop(Box::new(move || {
            if let Some(table) = table.upgrade() {
                lock(&table).nodes.remove(&node_id);
            }
        }));
        (self.spawn)(instance);
        // A panicking on_create arrives as ActionFailed; `None` only if
        // the instance was dropped before it answered (its pool shut down).
        created
            .recv()
            .await
            .unwrap_or_else(|| Err(GliderError::closed("action instance during create")))
    }

    /// Removes the action object of `node_id`, running `on_delete` after
    /// in-flight methods finish, under the caller's trace `parent`
    /// ([`SpanContext::NONE`] for none). The node and its slot are free
    /// when this returns.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorCode::NotFound`] when the node hosts no object, or
    /// its delete has already begun.
    pub async fn delete_action(&self, parent: SpanContext, node_id: NodeId) -> GliderResult<()> {
        let handle = self
            .table()
            .nodes
            .get_mut(&node_id)
            .and_then(Option::take)
            .ok_or_else(|| GliderError::not_found(format!("action object in node {node_id}")))?;
        let (done_tx, mut done_rx) = reply();
        handle
            .enqueue_traced(Enqueued::new(parent), Invocation::Delete { done: done_tx })
            .await?;
        drop(handle);
        done_rx
            .recv()
            .await
            .unwrap_or_else(|| Err(GliderError::closed("action instance during delete")))
    }

    /// Opens an I/O stream against `node_id`, queueing the corresponding
    /// method invocation. Its `action.queue`/`action.run` spans become
    /// children of `parent` ([`SpanContext::NONE`] for none).
    ///
    /// # Errors
    ///
    /// Returns [`ErrorCode::NotFound`] when the node hosts no object (or
    /// its delete has begun).
    pub async fn open_stream(
        &self,
        parent: SpanContext,
        node_id: NodeId,
        dir: StreamDir,
    ) -> GliderResult<StreamId> {
        let handle = self
            .table()
            .nodes
            .get(&node_id)
            .cloned()
            .flatten()
            .ok_or_else(|| GliderError::not_found(format!("action object in node {node_id}")))?;
        let (done, done_rx) = reply();
        let (inv, stream) = match dir {
            StreamDir::Write => {
                let (input, pusher) = ActionInputStream::new(INPUT_QUEUE_DEPTH);
                let stream = Stream::Write {
                    node_id,
                    pusher,
                    done: done_rx,
                };
                (Invocation::Write { input, done }, stream)
            }
            StreamDir::Read => {
                let (output, rx) = ActionOutputStream::new(OUTPUT_QUEUE_DEPTH);
                let side = ReadSide {
                    rx,
                    done: done_rx,
                    end: None,
                    next_seq: 0,
                };
                let stream = Stream::Read {
                    node_id,
                    side: Arc::new(Mutex::new(side)),
                };
                (Invocation::Read { output, done }, stream)
            }
        };
        handle.enqueue_traced(Enqueued::new(parent), inv).await?;
        drop(handle);
        let mut table = self.table();
        table.last_stream += 1;
        let stream_id = StreamId(table.last_stream);
        table.streams.insert(stream_id, stream);
        Ok(stream_id)
    }

    /// Pushes one chunk on a write stream, waiting for queue capacity
    /// (this is the backpressure that keeps large transfers bounded).
    ///
    /// # Errors
    ///
    /// - [`ErrorCode::NotFound`] for unknown streams,
    /// - [`ErrorCode::WrongNodeKind`] for read streams,
    /// - [`ErrorCode::Closed`] when the consuming method already finished.
    pub async fn push_chunk(&self, stream_id: StreamId, seq: u64, data: Bytes) -> GliderResult<()> {
        let pusher = self.write_pusher(stream_id)?;
        pusher.push(seq, data).await
    }

    /// Pushes a record batch on a write stream: `count` length-prefixed
    /// records packed in `data` (see [`glider_proto::batch`]), occupying
    /// sequence numbers `seq .. seq + count`. The batch is one queue
    /// entry, so it waits for room like [`ActionManager::push_chunk`] and
    /// is queued whole.
    ///
    /// # Errors
    ///
    /// - [`ErrorCode::NotFound`] for unknown streams,
    /// - [`ErrorCode::WrongNodeKind`] for read streams,
    /// - [`ErrorCode::Protocol`] for a malformed batch,
    /// - [`ErrorCode::Closed`] when the consuming method already finished.
    pub async fn push_chunk_batch(
        &self,
        stream_id: StreamId,
        seq: u64,
        count: u32,
        data: Bytes,
    ) -> GliderResult<()> {
        let pusher = self.write_pusher(stream_id)?;
        pusher.push_batch(seq, count, data).await
    }

    fn write_pusher(&self, stream_id: StreamId) -> GliderResult<InputPusher> {
        match self.table().streams.get(&stream_id) {
            Some(Stream::Write { pusher, .. }) => Ok(pusher.clone()),
            Some(Stream::Read { .. }) => Err(GliderError::new(
                ErrorCode::WrongNodeKind,
                "cannot push chunks on a read stream",
            )),
            None => Err(GliderError::not_found(format!("stream {stream_id}"))),
        }
    }

    /// Push requests queued on a write stream and not yet taken by its
    /// method (diagnostics); `None` for anything but an open write stream.
    pub fn queued(&self, stream_id: StreamId) -> Option<usize> {
        match self.table().streams.get(&stream_id) {
            Some(Stream::Write { pusher, .. }) => Some(pusher.queued()),
            _ => None,
        }
    }

    fn read_side(&self, stream_id: StreamId) -> GliderResult<Arc<Mutex<ReadSide>>> {
        match self.table().streams.get(&stream_id) {
            Some(Stream::Read { side, .. }) => Ok(Arc::clone(side)),
            Some(Stream::Write { .. }) => Err(GliderError::new(
                ErrorCode::WrongNodeKind,
                "cannot fetch from a write stream",
            )),
            None => Err(GliderError::not_found(format!("stream {stream_id}"))),
        }
    }

    /// Fetches the next chunk from a read stream, waiting until the action
    /// produces data or its method finishes.
    ///
    /// Returns `(seq, bytes, eof)`. `seq` is the chunk's position within
    /// the stream, assigned under the stream's lock so concurrent windowed
    /// fetches can be reassembled by the client; on `eof == true` the bytes
    /// are empty, `seq` equals the total chunk count, and the producing
    /// method has completed successfully.
    ///
    /// # Errors
    ///
    /// - [`ErrorCode::NotFound`] for unknown streams,
    /// - [`ErrorCode::WrongNodeKind`] for write streams,
    /// - the action's error if its `on_read` failed.
    pub async fn fetch(
        &self,
        stream_id: StreamId,
        _max_len: u64,
    ) -> GliderResult<(u64, Bytes, bool)> {
        let side = self.read_side(stream_id)?;
        poll_fn(|cx| lock(&side).poll_fetch(cx)).await
    }

    /// Closes a stream. For write streams this signals end-of-input and
    /// waits for the action method to complete (write barrier, so a
    /// successful close means the action has fully consumed the data).
    ///
    /// # Errors
    ///
    /// - [`ErrorCode::NotFound`] for unknown streams,
    /// - the action's error if its `on_write` failed.
    pub async fn close_stream(&self, stream_id: StreamId) -> GliderResult<()> {
        let entry = self
            .table()
            .streams
            .remove(&stream_id)
            .ok_or_else(|| GliderError::not_found(format!("stream {stream_id}")))?;
        match entry {
            Stream::Write {
                pusher, mut done, ..
            } => {
                pusher.finish();
                done.recv()
                    .await
                    .unwrap_or_else(|| Err(GliderError::closed("action instance during write")))
            }
            // Dropping the receiver cancels the producer; the instance
            // forgives the `Closed` its writes then meet.
            Stream::Read { .. } => Ok(()),
        }
    }

    /// Number of currently open streams (diagnostics).
    pub fn open_streams(&self) -> usize {
        self.table().streams.len()
    }

    /// Drops every stream attached to `node_id` (used when a client
    /// vanishes or a node is force-deleted).
    pub fn abort_streams_of(&self, node_id: NodeId) {
        self.table()
            .streams
            .retain(|_, stream| stream.node_id() != node_id);
    }

    /// Answers one request of the active server: `Hello`, the action
    /// lifecycle (`ActionCreate`, `ActionDelete`, which first drops the
    /// node's streams) and the stream requests. `parent` is the caller's
    /// trace: a delete's and an open's queued invocation run under it.
    ///
    /// # Errors
    ///
    /// The manager call's error, or [`ErrorCode::Unsupported`] naming any
    /// other request.
    pub async fn serve(
        &self,
        parent: SpanContext,
        body: RequestBody,
    ) -> GliderResult<ResponseBody> {
        match body {
            RequestBody::Hello { .. } => Ok(ResponseBody::Ok),
            RequestBody::ActionCreate { node_id, spec, .. } => {
                self.create_action(node_id, spec).await?;
                Ok(ResponseBody::Ok)
            }
            RequestBody::ActionDelete { node_id } => {
                self.abort_streams_of(node_id);
                self.delete_action(parent, node_id).await?;
                Ok(ResponseBody::Ok)
            }
            RequestBody::StreamOpen { node_id, dir } => {
                let stream_id = self.open_stream(parent, node_id, dir).await?;
                Ok(ResponseBody::StreamOpened { stream_id })
            }
            // glider: hot-path (action stream requests, answered by `try_serve` when ready)
            RequestBody::StreamChunk {
                stream_id,
                seq,
                data,
            } => {
                self.push_chunk(stream_id, seq, data).await?;
                Ok(ResponseBody::Ok)
            }
            RequestBody::StreamChunkBatch {
                stream_id,
                seq,
                count,
                data,
            } => {
                self.push_chunk_batch(stream_id, seq, count, data).await?;
                Ok(ResponseBody::Ok)
            }
            RequestBody::StreamFetch { stream_id, max_len } => {
                let (seq, bytes, eof) = self.fetch(stream_id, max_len).await?;
                Ok(ResponseBody::Data { seq, bytes, eof })
            }
            // glider: end-hot-path
            RequestBody::StreamClose { stream_id } => {
                self.close_stream(stream_id).await?;
                Ok(ResponseBody::Ok)
            }
            other => Err(GliderError::new(
                ErrorCode::Unsupported,
                format!("active servers do not support {}", other.op().name),
            )),
        }
    }

    /// The first poll of [`ActionManager::serve`], for the connection
    /// loop's synchronous fast path: no spawn, and the payload `Bytes` is
    /// the receive buffer's slice end to end. A push whose queue has room,
    /// a fetch whose chunk or end is ready, and every error are answered
    /// now; a fetch waits out the read side's short critical section.
    ///
    /// # Errors
    ///
    /// Hands the body back, its payload shared and not copied, when a
    /// push or fetch would wait: it has had no effect, so the caller runs
    /// [`ActionManager::serve`]. Every other request is handed back
    /// untouched, since dropping a pending create, delete, open or close
    /// would lose its effect.
    pub fn try_serve(&self, body: RequestBody) -> Result<GliderResult<ResponseBody>, RequestBody> {
        if !matches!(
            body,
            RequestBody::StreamChunk { .. }
                | RequestBody::StreamChunkBatch { .. }
                | RequestBody::StreamFetch { .. }
        ) {
            return Err(body);
        }
        let serving = pin!(self.serve(SpanContext::NONE, body.clone()));
        match serving.poll(&mut Context::from_waker(Waker::noop())) {
            Poll::Ready(answer) => Ok(answer),
            Poll::Pending => Err(body),
        }
    }
}

impl std::fmt::Debug for ActionManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActionManager")
            .field("slots", &self.slots)
            .field("instances", &self.instance_count())
            .field("open_streams", &self.open_streams())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glider_proto::types::{BlockId, PeerTier};
    use glider_sim::Wakes;
    use std::pin::Pin;

    /// A manager whose instances one thread polls between the polls of
    /// the call it runs.
    struct Host {
        m: ActionManager,
        spawned: Arc<Mutex<Vec<Instance>>>,
    }

    fn host(slots: usize) -> Host {
        let spawned: Arc<Mutex<Vec<Instance>>> = Arc::default();
        let queue = Arc::clone(&spawned);
        let spawn: Spawn = Arc::new(move |instance| lock(&queue).push(instance));
        let registry = Arc::new(ActionRegistry::with_builtins());
        Host {
            m: ActionManager::new(registry, slots, None, None, spawn),
            spawned,
        }
    }

    impl Host {
        /// Polls every instance once; drops those that stopped.
        fn settle(&self) {
            let mut instances = std::mem::take(&mut *lock(&self.spawned));
            let cx = &mut Context::from_waker(Waker::noop());
            instances.retain_mut(|instance| Pin::new(instance).poll(cx).is_pending());
            lock(&self.spawned).append(&mut instances);
        }

        fn run<F: Future>(&self, future: F) -> F::Output {
            let mut future = pin!(future);
            for _ in 0..1000 {
                let cx = &mut Context::from_waker(Waker::noop());
                if let Poll::Ready(out) = future.as_mut().poll(cx) {
                    return out;
                }
                self.settle();
            }
            panic!("the call never completed");
        }

        fn create(&self, node: u64, spec: ActionSpec) -> GliderResult<()> {
            self.run(self.m.create_action(NodeId(node), spec))
        }

        fn counter(&self, node: u64) {
            self.create(node, ActionSpec::new("counter", false))
                .unwrap();
        }

        fn open(&self, node: u64, dir: StreamDir) -> StreamId {
            self.run(self.m.open_stream(SpanContext::NONE, NodeId(node), dir))
                .unwrap()
        }

        fn push(&self, sid: StreamId, seq: u64, data: &'static [u8]) {
            self.run(self.m.push_chunk(sid, seq, Bytes::from_static(data)))
                .unwrap();
        }

        fn read_all(&self, node: u64) -> Vec<u8> {
            let sid = self.open(node, StreamDir::Read);
            let mut out = Vec::new();
            let mut expect_seq = 0;
            loop {
                let (seq, bytes, eof) = self.run(self.m.fetch(sid, 1 << 20)).unwrap();
                assert_eq!(seq, expect_seq);
                out.extend_from_slice(&bytes);
                if eof {
                    break;
                }
                expect_seq += 1;
            }
            self.run(self.m.close_stream(sid)).unwrap();
            out
        }
    }

    fn code<T: std::fmt::Debug>(result: GliderResult<T>) -> ErrorCode {
        result.unwrap_err().code()
    }

    #[test]
    fn counter_round_trip() {
        let h = host(2);
        h.counter(1);
        let sid = h.open(1, StreamDir::Write);
        h.push(sid, 0, b"hello ");
        h.push(sid, 1, b"world");
        h.run(h.m.close_stream(sid)).unwrap();
        assert_eq!(h.read_all(1), b"11");
        assert_eq!(h.m.open_streams(), 0);
    }

    #[test]
    fn slot_capacity_enforced() {
        let h = host(1);
        h.counter(1);
        let err = h.create(2, ActionSpec::new("counter", false));
        assert_eq!(code(err), ErrorCode::OutOfCapacity);
        h.run(h.m.delete_action(SpanContext::NONE, NodeId(1)))
            .unwrap();
        h.counter(2);
    }

    #[test]
    fn duplicate_create_and_missing_delete() {
        let h = host(4);
        h.counter(1);
        let err = h.create(1, ActionSpec::new("counter", false));
        assert_eq!(code(err), ErrorCode::AlreadyExists);
        let err = h.run(h.m.delete_action(SpanContext::NONE, NodeId(9)));
        assert_eq!(code(err), ErrorCode::NotFound);
    }

    #[test]
    fn unknown_type_fails_create() {
        let h = host(4);
        let err = h.create(1, ActionSpec::new("not-a-type", false));
        assert_eq!(code(err), ErrorCode::UnknownActionType);
        assert_eq!(h.m.instance_count(), 0);
    }

    #[test]
    fn a_failed_create_frees_its_node_before_answering() {
        let h = host(1);
        let bad = ActionSpec::new("merge-ckpt", false).with_params("ckpt=/c");
        // No store: on_create fails, and the instance stops first.
        assert_eq!(code(h.create(1, bad)), ErrorCode::Unsupported);
        assert_eq!(h.m.instance_count(), 0);
        h.counter(1);
    }

    #[test]
    fn stream_direction_is_enforced() {
        let h = host(4);
        h.counter(1);
        let w = h.open(1, StreamDir::Write);
        let r = h.open(1, StreamDir::Read);
        assert_eq!(code(h.run(h.m.fetch(w, 10))), ErrorCode::WrongNodeKind);
        let push = h.m.push_chunk(r, 0, Bytes::new());
        assert_eq!(code(h.run(push)), ErrorCode::WrongNodeKind);
        assert_eq!(h.m.queued(r), None);
        h.run(h.m.close_stream(w)).unwrap();
        h.run(h.m.close_stream(r)).unwrap();
        assert_eq!(code(h.run(h.m.close_stream(w))), ErrorCode::NotFound);
    }

    #[test]
    fn streams_on_missing_action_fail() {
        let h = host(4);
        let err = h.run(h.m.open_stream(SpanContext::NONE, NodeId(5), StreamDir::Write));
        assert_eq!(code(err), ErrorCode::NotFound);
        let push = h.m.push_chunk(StreamId(77), 0, Bytes::new());
        assert_eq!(code(h.run(push)), ErrorCode::NotFound);
    }

    #[test]
    fn merge_action_aggregates_multiple_writers() {
        let h = host(4);
        h.create(1, ActionSpec::new("merge", true)).unwrap();
        // Two concurrent writers, interleaved on the same action.
        let s1 = h.open(1, StreamDir::Write);
        let s2 = h.open(1, StreamDir::Write);
        h.push(s1, 0, b"1,10\n2,5\n");
        h.push(s2, 0, b"1,7\n3,1\n");
        h.run(h.m.close_stream(s1)).unwrap();
        h.run(h.m.close_stream(s2)).unwrap();
        assert_eq!(h.read_all(1), b"1,17\n2,5\n3,1\n");
    }

    #[test]
    fn interleaved_sorter_never_tears_records() {
        // Regression: network chunks are not record-aligned; interleaved
        // writers must not interleave mid-record.
        let h = host(4);
        let spec = ActionSpec::new("sorter", true).with_params("record=4;key=4");
        h.create(1, spec).unwrap();
        // Two writers, each sending 10 records of 4 bytes in awkward
        // 6-byte chunks, polled in turn.
        let mut expected: Vec<Vec<u8>> = Vec::new();
        let mut writers = Vec::new();
        for w in 0..2u8 {
            let mut payload = Vec::new();
            for r in 0..10u8 {
                let rec = [b'A' + w, r, r, r];
                expected.push(rec.to_vec());
                payload.extend_from_slice(&rec);
            }
            let sid = h.open(1, StreamDir::Write);
            let m = &h.m;
            writers.push(Box::pin(async move {
                for (seq, chunk) in (0..).zip(payload.chunks(6)) {
                    m.push_chunk(sid, seq, Bytes::copy_from_slice(chunk))
                        .await
                        .unwrap();
                }
                m.close_stream(sid).await.unwrap();
            }));
        }
        h.run(poll_fn(|cx| {
            writers.retain_mut(|w| w.as_mut().poll(cx).is_pending());
            if writers.is_empty() {
                Poll::Ready(())
            } else {
                Poll::Pending
            }
        }));
        let got: Vec<Vec<u8>> = h.read_all(1).chunks(4).map(<[u8]>::to_vec).collect();
        expected.sort();
        // Sorted, and exactly the input multiset (no torn records).
        assert_eq!(got, expected);
    }

    fn batch(records: &[&[u8]]) -> (u32, Bytes) {
        let mut b = glider_proto::batch::RecordBatchBuilder::new();
        for r in records {
            b.push(r);
        }
        b.finish()
    }

    #[test]
    fn batch_push_round_trips() {
        let h = host(2);
        h.counter(1);
        let sid = h.open(1, StreamDir::Write);
        let (count, data) = batch(&[b"hello ", b"world"]);
        h.run(h.m.push_chunk_batch(sid, 0, count, data)).unwrap();
        h.run(h.m.close_stream(sid)).unwrap();
        assert_eq!(h.read_all(1), b"11");
    }

    fn chunk(stream_id: StreamId, seq: u64, data: &'static [u8]) -> RequestBody {
        RequestBody::StreamChunk {
            stream_id,
            seq,
            data: Bytes::from_static(data),
        }
    }

    fn fetch(stream_id: StreamId) -> RequestBody {
        RequestBody::StreamFetch {
            stream_id,
            max_len: 1 << 20,
        }
    }

    #[test]
    fn serve_reaches_every_manager_call() {
        let h = host(1);
        let serve = |body| h.run(h.m.serve(SpanContext::NONE, body));
        let hello = RequestBody::Hello {
            tier: PeerTier::Compute,
        };
        assert_eq!(serve(hello).unwrap(), ResponseBody::Ok);
        let create = RequestBody::ActionCreate {
            node_id: NodeId(1),
            block_id: BlockId(7),
            spec: ActionSpec::new("counter", false),
        };
        assert_eq!(serve(create).unwrap(), ResponseBody::Ok);
        assert_eq!(h.m.instance_count(), 1);
        let open = |dir| match serve(RequestBody::StreamOpen {
            node_id: NodeId(1),
            dir,
        }) {
            Ok(ResponseBody::StreamOpened { stream_id }) => stream_id,
            other => panic!("open answered {other:?}"),
        };
        let w = open(StreamDir::Write);
        assert_eq!(serve(chunk(w, 0, b"abc")).unwrap(), ResponseBody::Ok);
        let (count, data) = batch(&[b"d", b"e"]);
        let pushed = serve(RequestBody::StreamChunkBatch {
            stream_id: w,
            seq: 1,
            count,
            data,
        });
        assert_eq!(pushed.unwrap(), ResponseBody::Ok);
        assert_eq!(h.m.queued(w), Some(2), "one entry per request");
        let close = RequestBody::StreamClose { stream_id: w };
        assert_eq!(serve(close).unwrap(), ResponseBody::Ok);
        let r = open(StreamDir::Read);
        let Ok(ResponseBody::Data {
            seq: 0,
            bytes,
            eof: false,
        }) = serve(fetch(r))
        else {
            panic!("the first fetch takes the count");
        };
        assert_eq!(&bytes[..], b"5");
        // The delete drops the node's open read stream first.
        let delete = RequestBody::ActionDelete { node_id: NodeId(1) };
        assert_eq!(serve(delete).unwrap(), ResponseBody::Ok);
        assert_eq!((h.m.instance_count(), h.m.open_streams()), (0, 0));
        let write = RequestBody::WriteBlock {
            block_id: BlockId(1),
            offset: 0,
            data: Bytes::new(),
        };
        let err = serve(write).unwrap_err();
        assert_eq!(err.code(), ErrorCode::Unsupported);
        assert!(err.message().contains("write-block"), "{err}");
    }

    #[test]
    fn try_serve_answers_ready_stream_requests_and_hands_back_the_rest() {
        let h = host(2);
        h.counter(1);
        let sid = h.open(1, StreamDir::Write);
        let lifecycle = [
            RequestBody::ActionCreate {
                node_id: NodeId(2),
                block_id: BlockId(2),
                spec: ActionSpec::new("counter", false),
            },
            RequestBody::ActionDelete { node_id: NodeId(1) },
            RequestBody::StreamOpen {
                node_id: NodeId(1),
                dir: StreamDir::Read,
            },
            RequestBody::StreamClose { stream_id: sid },
        ];
        for body in lifecycle {
            assert_eq!(h.m.try_serve(body.clone()), Err(body), "handed back");
        }
        assert_eq!((h.m.instance_count(), h.m.open_streams()), (1, 1));
        assert_eq!(
            h.m.try_serve(chunk(sid, 0, b"abc")),
            Ok(Ok(ResponseBody::Ok))
        );
        let (count, data) = batch(&[b"de"]);
        let batch = RequestBody::StreamChunkBatch {
            stream_id: sid,
            seq: 1,
            count,
            data,
        };
        assert_eq!(h.m.try_serve(batch), Ok(Ok(ResponseBody::Ok)));
        assert_eq!(h.m.queued(sid), Some(2));
        // Errors are answered on the fast path too.
        let gone = h.m.try_serve(chunk(StreamId(99), 0, b""));
        assert_eq!(code(gone.unwrap()), ErrorCode::NotFound);
        let wrong = h.m.try_serve(fetch(sid));
        assert_eq!(code(wrong.unwrap()), ErrorCode::WrongNodeKind);
        h.run(h.m.close_stream(sid)).unwrap();
        // The read side answers once the action has produced.
        let rid = h.open(1, StreamDir::Read);
        assert_eq!(
            h.m.try_serve(fetch(rid)),
            Err(fetch(rid)),
            "not produced yet"
        );
        let mut out = Vec::new();
        loop {
            match h.m.try_serve(fetch(rid)) {
                Ok(Ok(ResponseBody::Data { bytes, eof, .. })) => {
                    out.extend_from_slice(&bytes);
                    if eof {
                        break;
                    }
                }
                Ok(other) => panic!("unexpected answer: {other:?}"),
                Err(_) => h.settle(),
            }
        }
        assert_eq!(out, b"5");
        h.run(h.m.close_stream(rid)).unwrap();
    }

    #[test]
    fn a_full_queue_hands_back_a_whole_batch() {
        let h = host(1);
        h.counter(1);
        let sid = h.open(1, StreamDir::Write);
        for seq in 0..INPUT_QUEUE_DEPTH as u64 {
            let pushed = h.m.try_serve(chunk(sid, seq, b"x"));
            assert_eq!(pushed, Ok(Ok(ResponseBody::Ok)));
        }
        let (count, data) = batch(&[b"y", b"z"]);
        let batch = RequestBody::StreamChunkBatch {
            stream_id: sid,
            seq: INPUT_QUEUE_DEPTH as u64,
            count,
            data,
        };
        assert_eq!(h.m.try_serve(batch.clone()), Err(batch));
        assert_eq!(h.m.queued(sid), Some(INPUT_QUEUE_DEPTH), "nothing queued");
    }

    #[test]
    fn abort_streams_of_drops_entries() {
        let h = host(4);
        h.counter(1);
        let _w = h.open(1, StreamDir::Write);
        let _r = h.open(1, StreamDir::Read);
        assert_eq!(h.m.open_streams(), 2);
        h.m.abort_streams_of(NodeId(1));
        assert_eq!(h.m.open_streams(), 0);
    }

    #[test]
    fn a_node_stays_taken_until_its_instance_stops() {
        let h = host(1);
        h.counter(1);
        let w = h.open(1, StreamDir::Write);
        let mut delete = pin!(h.m.delete_action(SpanContext::NONE, NodeId(1)));
        let cx = &mut Context::from_waker(Waker::noop());
        assert!(delete.as_mut().poll(cx).is_pending());
        h.settle();
        // on_delete waits for the open write: the node and the slot hold.
        assert!(delete.as_mut().poll(cx).is_pending());
        assert_eq!(h.m.instance_count(), 1);
        let err = h.create(1, ActionSpec::new("counter", false));
        assert_eq!(code(err), ErrorCode::AlreadyExists);
        let err = h.create(2, ActionSpec::new("counter", false));
        assert_eq!(code(err), ErrorCode::OutOfCapacity);
        let err = h.run(h.m.open_stream(SpanContext::NONE, NodeId(1), StreamDir::Read));
        assert_eq!(code(err), ErrorCode::NotFound, "no longer addressable");
        let err = h.run(h.m.delete_action(SpanContext::NONE, NodeId(1)));
        assert_eq!(code(err), ErrorCode::NotFound, "its delete has begun");
        h.run(h.m.close_stream(w)).unwrap();
        h.run(delete).unwrap();
        assert_eq!(h.m.instance_count(), 0, "free when the delete returns");
        h.counter(2);
    }

    #[test]
    fn a_cancelled_delete_does_not_leak_the_slot() {
        let h = host(1);
        h.counter(1);
        let w = h.open(1, StreamDir::Write);
        {
            let mut delete = pin!(h.m.delete_action(SpanContext::NONE, NodeId(1)));
            let cx = &mut Context::from_waker(Waker::noop());
            assert!(delete.as_mut().poll(cx).is_pending());
        }
        assert_eq!(h.m.instance_count(), 1);
        h.run(h.m.close_stream(w)).unwrap();
        h.settle();
        assert_eq!(
            h.m.instance_count(),
            0,
            "on_delete ran and the slot is free"
        );
        h.counter(1);
    }

    #[test]
    fn every_fetcher_waiting_on_a_read_stream_is_woken() {
        let h = host(1);
        h.counter(1);
        // Serial: the read queues behind the open write.
        let w = h.open(1, StreamDir::Write);
        let r = h.open(1, StreamDir::Read);
        let counts = [(); 2].map(|()| Wakes::default());
        let tasks = counts.each_ref().map(Wakes::task);
        let mut first = pin!(h.m.fetch(r, 1 << 20));
        let mut second = pin!(h.m.fetch(r, 1 << 20));
        let [a, b] = tasks.each_ref().map(|t| t.waker());
        assert!(first
            .as_mut()
            .poll(&mut Context::from_waker(a))
            .is_pending());
        assert!(second
            .as_mut()
            .poll(&mut Context::from_waker(b))
            .is_pending());
        h.run(h.m.close_stream(w)).unwrap();
        h.settle();
        let woken = counts.each_ref().map(Wakes::count);
        assert!(woken.iter().all(|&n| n > 0), "wakes: {woken:?}");
        let cx = &mut Context::from_waker(a);
        let Poll::Ready(Ok((0, chunk, false))) = first.as_mut().poll(cx) else {
            panic!("the first fetcher takes seq 0");
        };
        assert_eq!(&chunk[..], b"0");
        let Poll::Ready(Ok((1, _, true))) = second.as_mut().poll(&mut Context::from_waker(b))
        else {
            panic!("the second fetcher sees the end at seq 1");
        };
    }
}
