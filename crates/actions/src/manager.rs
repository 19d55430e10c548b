//! The action manager: instances, slots and open streams of one active
//! server (paper §5: "an action manager object that handles the creation,
//! execution, and deletion of action objects").

use crate::exec::ActionExecutor;
use crate::registry::ActionRegistry;
use crate::runtime::spawn_instance_on;
use bytes::Bytes;
use glider_instance::{
    reply, ActionContext, ActionInputStream, ActionOutputStream, Enqueued, InputPusher,
    InstanceHandle, Invocation, Receiver, StoreAccess, TryPush, TryRecvError,
};
use glider_metrics::MetricsRegistry;
use glider_proto::types::{ActionSpec, NodeId, StreamDir, StreamId};
use glider_proto::{ErrorCode, GliderError, GliderResult};
use glider_trace::SpanContext;
use glider_util::IdGen;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Queue depth (chunks) for write streams (client → action).
const INPUT_QUEUE_DEPTH: usize = 64;
/// Queue depth (chunks) for read streams (action → client).
const OUTPUT_QUEUE_DEPTH: usize = 16;

enum StreamEntry {
    Write {
        node_id: NodeId,
        pusher: InputPusher,
        done: Receiver<GliderResult<()>>,
    },
    Read {
        node_id: NodeId,
        data: Arc<tokio::sync::Mutex<ReadSide>>,
    },
}

struct ReadSide {
    rx: Receiver<Bytes>,
    done: DoneState,
    next_seq: u64,
}

enum DoneState {
    Pending(Receiver<GliderResult<()>>),
    Finished(GliderResult<()>),
}

impl ReadSide {
    async fn result(&mut self) -> GliderResult<()> {
        if let DoneState::Pending(rx) = &mut self.done {
            let result = rx
                .recv()
                .await
                .unwrap_or_else(|| Err(GliderError::closed("action instance")));
            self.done = DoneState::Finished(result);
        }
        match &self.done {
            DoneState::Finished(r) => r.clone(),
            DoneState::Pending(_) => unreachable!("resolved above"),
        }
    }
}

/// Manages the action objects and streams of one active server.
///
/// The manager owns:
///
/// - the **action registry** (deployed definitions),
/// - the **instances** table (node id → running executor),
/// - the **slots** budget (how many actions this storage space hosts),
/// - the **open streams** table that the RPC layer drives.
///
/// # Examples
///
/// ```
/// # let rt = tokio::runtime::Builder::new_current_thread().build().unwrap();
/// # rt.block_on(async {
/// use glider_actions::{ActionManager, ActionRegistry};
/// use glider_proto::types::{ActionSpec, NodeId, StreamDir};
/// use bytes::Bytes;
/// use std::sync::Arc;
///
/// let manager = ActionManager::new(Arc::new(ActionRegistry::with_builtins()), 4, None, None);
/// manager
///     .create_action(NodeId(1), ActionSpec::new("counter", false))
///     .await
///     .unwrap();
/// let sid = manager.open_stream(NodeId(1), StreamDir::Write).await.unwrap();
/// manager.push_chunk(sid, 0, Bytes::from_static(b"hello")).await.unwrap();
/// manager.close_stream(sid).await.unwrap();
/// # });
/// ```
pub struct ActionManager {
    registry: Arc<ActionRegistry>,
    slots: usize,
    store: Option<Arc<dyn StoreAccess>>,
    metrics: Option<Arc<MetricsRegistry>>,
    executor: Option<ActionExecutor>,
    instances: Mutex<HashMap<NodeId, InstanceHandle>>,
    streams: Mutex<HashMap<StreamId, StreamEntry>>,
    stream_ids: IdGen,
}

impl ActionManager {
    /// Creates a manager hosting at most `slots` concurrent actions.
    /// Instance tasks share the caller's runtime; see
    /// [`ActionManager::with_executor`] for the dedicated pool.
    pub fn new(
        registry: Arc<ActionRegistry>,
        slots: usize,
        store: Option<Arc<dyn StoreAccess>>,
        metrics: Option<Arc<MetricsRegistry>>,
    ) -> Self {
        ActionManager {
            registry,
            slots,
            store,
            metrics,
            executor: None,
            instances: Mutex::new(HashMap::new()),
            streams: Mutex::new(HashMap::new()),
            stream_ids: IdGen::new(),
        }
    }

    /// Routes instance tasks onto a dedicated action worker pool, keeping
    /// compute-heavy methods off the network threads (paper §4's thread
    /// split).
    #[must_use]
    pub fn with_executor(mut self, executor: ActionExecutor) -> Self {
        self.executor = Some(executor);
        self
    }

    /// The registry of deployed action definitions.
    pub fn registry(&self) -> &Arc<ActionRegistry> {
        &self.registry
    }

    /// Number of live action instances.
    pub fn instance_count(&self) -> usize {
        self.instances.lock().len()
    }

    /// Instantiates an action object into `node_id` and runs `on_create`.
    ///
    /// # Errors
    ///
    /// - [`ErrorCode::AlreadyExists`] if the node already hosts an object,
    /// - [`ErrorCode::OutOfCapacity`] when all slots are taken,
    /// - [`ErrorCode::UnknownActionType`] for unregistered types,
    /// - any error returned by the action's `on_create`.
    pub async fn create_action(&self, node_id: NodeId, spec: ActionSpec) -> GliderResult<()> {
        let action = self.registry.instantiate(&spec)?;
        let ctx = ActionContext::new(node_id, spec.interleaved, self.store.clone());
        let mut created_rx = {
            let mut instances = self.instances.lock();
            if instances.contains_key(&node_id) {
                return Err(GliderError::already_exists(format!(
                    "action object in node {node_id}"
                )));
            }
            if instances.len() >= self.slots {
                return Err(GliderError::new(
                    ErrorCode::OutOfCapacity,
                    format!("all {} action slots are in use", self.slots),
                ));
            }
            let (handle, created_rx) =
                spawn_instance_on(self.executor.as_ref(), action, ctx, self.metrics.clone());
            instances.insert(node_id, handle);
            created_rx
        };
        // A panicking on_create arrives as ActionFailed; `None` only if
        // the instance was dropped before it answered (its pool shut down).
        let created = created_rx
            .recv()
            .await
            .unwrap_or_else(|| Err(GliderError::closed("action instance during create")));
        if created.is_err() {
            self.instances.lock().remove(&node_id);
        }
        created
    }

    /// Removes the action object of `node_id`, running `on_delete` after
    /// in-flight methods finish.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorCode::NotFound`] when the node hosts no object.
    pub async fn delete_action(&self, node_id: NodeId) -> GliderResult<()> {
        self.delete_action_traced(SpanContext::NONE, node_id).await
    }

    /// [`ActionManager::delete_action`] continuing the caller's trace.
    ///
    /// # Errors
    ///
    /// See [`ActionManager::delete_action`].
    pub async fn delete_action_traced(
        &self,
        parent: SpanContext,
        node_id: NodeId,
    ) -> GliderResult<()> {
        let handle =
            self.instances.lock().remove(&node_id).ok_or_else(|| {
                GliderError::not_found(format!("action object in node {node_id}"))
            })?;
        let (done_tx, mut done_rx) = reply();
        handle
            .enqueue_traced(Enqueued::new(parent), Invocation::Delete { done: done_tx })
            .await?;
        done_rx
            .recv()
            .await
            .unwrap_or_else(|| Err(GliderError::closed("action instance during delete")))
    }

    /// Opens an I/O stream against `node_id`, queueing the corresponding
    /// method invocation.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorCode::NotFound`] when the node hosts no object.
    pub async fn open_stream(&self, node_id: NodeId, dir: StreamDir) -> GliderResult<StreamId> {
        self.open_stream_traced(SpanContext::NONE, node_id, dir)
            .await
    }

    /// [`ActionManager::open_stream`] continuing the caller's trace: the
    /// queued method invocation's `action.queue`/`action.run` spans become
    /// children of `parent`.
    ///
    /// # Errors
    ///
    /// See [`ActionManager::open_stream`].
    pub async fn open_stream_traced(
        &self,
        parent: SpanContext,
        node_id: NodeId,
        dir: StreamDir,
    ) -> GliderResult<StreamId> {
        let handle = self
            .instances
            .lock()
            .get(&node_id)
            .cloned()
            .ok_or_else(|| GliderError::not_found(format!("action object in node {node_id}")))?;
        let stream_id = StreamId(self.stream_ids.next_id());
        match dir {
            StreamDir::Write => {
                let (input, pusher) = ActionInputStream::new(INPUT_QUEUE_DEPTH);
                let (done_tx, done_rx) = reply();
                let inv = Invocation::Write {
                    input,
                    done: done_tx,
                };
                handle.enqueue_traced(Enqueued::new(parent), inv).await?;
                self.streams.lock().insert(
                    stream_id,
                    StreamEntry::Write {
                        node_id,
                        pusher,
                        done: done_rx,
                    },
                );
            }
            StreamDir::Read => {
                let (output, rx) = ActionOutputStream::new(OUTPUT_QUEUE_DEPTH);
                let (done_tx, done_rx) = reply();
                let inv = Invocation::Read {
                    output,
                    done: done_tx,
                };
                handle.enqueue_traced(Enqueued::new(parent), inv).await?;
                self.streams.lock().insert(
                    stream_id,
                    StreamEntry::Read {
                        node_id,
                        data: Arc::new(tokio::sync::Mutex::new(ReadSide {
                            rx,
                            done: DoneState::Pending(done_rx),
                            next_seq: 0,
                        })),
                    },
                );
            }
        }
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
    /// sequence numbers `seq .. seq + count`. Waits for queue capacity
    /// like [`ActionManager::push_chunk`].
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

    /// Non-blocking [`ActionManager::push_chunk`] for the connection
    /// loop's sync fast path. `None` means the stream's queue is full and
    /// the caller must retry on the async path; `Some` is a final result.
    pub fn try_push_chunk(
        &self,
        stream_id: StreamId,
        seq: u64,
        data: Bytes,
    ) -> Option<GliderResult<()>> {
        let pusher = match self.write_pusher(stream_id) {
            Ok(p) => p,
            Err(e) => return Some(Err(e)),
        };
        match pusher.try_push(seq, data) {
            Ok(TryPush::Pushed) => Some(Ok(())),
            Ok(TryPush::Full) => None,
            Err(e) => Some(Err(e)),
        }
    }

    /// Non-blocking [`ActionManager::push_chunk_batch`]: all-or-nothing,
    /// `None` means retry on the async path.
    pub fn try_push_chunk_batch(
        &self,
        stream_id: StreamId,
        seq: u64,
        count: u32,
        data: Bytes,
    ) -> Option<GliderResult<()>> {
        let pusher = match self.write_pusher(stream_id) {
            Ok(p) => p,
            Err(e) => return Some(Err(e)),
        };
        match pusher.try_push_batch(seq, count, data) {
            Ok(TryPush::Pushed) => Some(Ok(())),
            Ok(TryPush::Full) => None,
            Err(e) => Some(Err(e)),
        }
    }

    fn write_pusher(&self, stream_id: StreamId) -> GliderResult<InputPusher> {
        let streams = self.streams.lock();
        match streams.get(&stream_id) {
            Some(StreamEntry::Write { pusher, .. }) => Ok(pusher.clone()),
            Some(StreamEntry::Read { .. }) => Err(GliderError::new(
                ErrorCode::WrongNodeKind,
                "cannot push chunks on a read stream",
            )),
            None => Err(GliderError::not_found(format!("stream {stream_id}"))),
        }
    }

    /// Fetches the next chunk from a read stream, waiting until the action
    /// produces data or its method finishes.
    ///
    /// Returns `(seq, bytes, eof)`. `seq` is the chunk's position within
    /// the stream, assigned under the stream lock so concurrent windowed
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
        let side = {
            let streams = self.streams.lock();
            match streams.get(&stream_id) {
                Some(StreamEntry::Read { data, .. }) => Arc::clone(data),
                Some(StreamEntry::Write { .. }) => {
                    return Err(GliderError::new(
                        ErrorCode::WrongNodeKind,
                        "cannot fetch from a write stream",
                    ))
                }
                None => return Err(GliderError::not_found(format!("stream {stream_id}"))),
            }
        };
        let mut side = side.lock().await;
        match side.rx.recv().await {
            Some(bytes) => {
                let seq = side.next_seq;
                side.next_seq += 1;
                Ok((seq, bytes, false))
            }
            None => {
                side.result().await?;
                Ok((side.next_seq, Bytes::new(), true))
            }
        }
    }

    /// Non-blocking [`ActionManager::fetch`] for the connection loop's
    /// sync fast path: serves a chunk (or a settled EOF) only when it is
    /// already available. `None` means the caller must go through the
    /// async path — data not ready, stream unknown or contended, or an
    /// EOF whose method result has not settled yet.
    pub fn try_fetch(&self, stream_id: StreamId) -> Option<GliderResult<(u64, Bytes, bool)>> {
        let side = {
            let streams = self.streams.lock();
            match streams.get(&stream_id) {
                Some(StreamEntry::Read { data, .. }) => Arc::clone(data),
                // Wrong-direction and not-found errors are produced on
                // the async path.
                _ => return None,
            }
        };
        let mut side = side.try_lock().ok()?;
        match side.rx.try_recv() {
            Ok(bytes) => {
                let seq = side.next_seq;
                side.next_seq += 1;
                Some(Ok((seq, bytes, false)))
            }
            Err(TryRecvError::Disconnected) => {
                if let DoneState::Pending(rx) = &mut side.done {
                    match rx.try_recv() {
                        Ok(result) => side.done = DoneState::Finished(result),
                        Err(TryRecvError::Disconnected) => {
                            side.done =
                                DoneState::Finished(Err(GliderError::closed("action instance")));
                        }
                        // The method finished producing but its result is
                        // still in flight; settle it on the async path.
                        Err(TryRecvError::Empty) => return None,
                    }
                }
                match &side.done {
                    DoneState::Finished(Ok(())) => Some(Ok((side.next_seq, Bytes::new(), true))),
                    DoneState::Finished(Err(e)) => Some(Err(e.clone())),
                    DoneState::Pending(_) => unreachable!("settled above"),
                }
            }
            Err(TryRecvError::Empty) => None,
        }
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
            .streams
            .lock()
            .remove(&stream_id)
            .ok_or_else(|| GliderError::not_found(format!("stream {stream_id}")))?;
        match entry {
            StreamEntry::Write {
                pusher, mut done, ..
            } => {
                pusher.finish();
                done.recv()
                    .await
                    .unwrap_or_else(|| Err(GliderError::closed("action instance during write")))
            }
            StreamEntry::Read { .. } => {
                // Dropping the receiver cancels the producer; the runtime
                // treats the resulting Closed error as benign.
                Ok(())
            }
        }
    }

    /// Number of currently open streams (diagnostics).
    pub fn open_streams(&self) -> usize {
        self.streams.lock().len()
    }

    /// Drops every stream attached to `node_id` (used when a client
    /// vanishes or a node is force-deleted).
    pub fn abort_streams_of(&self, node_id: NodeId) {
        self.streams.lock().retain(|_, entry| match entry {
            StreamEntry::Write { node_id: n, .. } | StreamEntry::Read { node_id: n, .. } => {
                *n != node_id
            }
        });
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

    fn manager(slots: usize) -> ActionManager {
        ActionManager::new(Arc::new(ActionRegistry::with_builtins()), slots, None, None)
    }

    async fn read_all(m: &ActionManager, node: NodeId) -> Vec<u8> {
        let sid = m.open_stream(node, StreamDir::Read).await.unwrap();
        let mut out = Vec::new();
        let mut expect_seq = 0;
        loop {
            let (seq, bytes, eof) = m.fetch(sid, 1 << 20).await.unwrap();
            assert_eq!(seq, expect_seq);
            out.extend_from_slice(&bytes);
            if eof {
                break;
            }
            expect_seq += 1;
        }
        m.close_stream(sid).await.unwrap();
        out
    }

    #[tokio::test]
    async fn counter_round_trip() {
        let m = manager(2);
        m.create_action(NodeId(1), ActionSpec::new("counter", false))
            .await
            .unwrap();
        let sid = m.open_stream(NodeId(1), StreamDir::Write).await.unwrap();
        m.push_chunk(sid, 0, Bytes::from_static(b"hello "))
            .await
            .unwrap();
        m.push_chunk(sid, 1, Bytes::from_static(b"world"))
            .await
            .unwrap();
        m.close_stream(sid).await.unwrap();
        assert_eq!(read_all(&m, NodeId(1)).await, b"11");
        assert_eq!(m.open_streams(), 0);
    }

    #[tokio::test]
    async fn slot_capacity_enforced() {
        let m = manager(1);
        m.create_action(NodeId(1), ActionSpec::new("counter", false))
            .await
            .unwrap();
        let err = m
            .create_action(NodeId(2), ActionSpec::new("counter", false))
            .await
            .unwrap_err();
        assert_eq!(err.code(), ErrorCode::OutOfCapacity);
        m.delete_action(NodeId(1)).await.unwrap();
        m.create_action(NodeId(2), ActionSpec::new("counter", false))
            .await
            .unwrap();
    }

    #[tokio::test]
    async fn duplicate_create_and_missing_delete() {
        let m = manager(4);
        m.create_action(NodeId(1), ActionSpec::new("counter", false))
            .await
            .unwrap();
        let err = m
            .create_action(NodeId(1), ActionSpec::new("counter", false))
            .await
            .unwrap_err();
        assert_eq!(err.code(), ErrorCode::AlreadyExists);
        let err = m.delete_action(NodeId(9)).await.unwrap_err();
        assert_eq!(err.code(), ErrorCode::NotFound);
    }

    #[tokio::test]
    async fn unknown_type_fails_create() {
        let m = manager(4);
        let err = m
            .create_action(NodeId(1), ActionSpec::new("not-a-type", false))
            .await
            .unwrap_err();
        assert_eq!(err.code(), ErrorCode::UnknownActionType);
        assert_eq!(m.instance_count(), 0);
    }

    #[tokio::test]
    async fn stream_direction_is_enforced() {
        let m = manager(4);
        m.create_action(NodeId(1), ActionSpec::new("counter", false))
            .await
            .unwrap();
        let w = m.open_stream(NodeId(1), StreamDir::Write).await.unwrap();
        let r = m.open_stream(NodeId(1), StreamDir::Read).await.unwrap();
        assert_eq!(
            m.fetch(w, 10).await.unwrap_err().code(),
            ErrorCode::WrongNodeKind
        );
        assert_eq!(
            m.push_chunk(r, 0, Bytes::new()).await.unwrap_err().code(),
            ErrorCode::WrongNodeKind
        );
        m.close_stream(w).await.unwrap();
        m.close_stream(r).await.unwrap();
        assert_eq!(
            m.close_stream(w).await.unwrap_err().code(),
            ErrorCode::NotFound
        );
    }

    #[tokio::test]
    async fn streams_on_missing_action_fail() {
        let m = manager(4);
        let err = m
            .open_stream(NodeId(5), StreamDir::Write)
            .await
            .unwrap_err();
        assert_eq!(err.code(), ErrorCode::NotFound);
        assert_eq!(
            m.push_chunk(StreamId(77), 0, Bytes::new())
                .await
                .unwrap_err()
                .code(),
            ErrorCode::NotFound
        );
    }

    #[tokio::test]
    async fn merge_action_aggregates_multiple_writers() {
        let m = manager(4);
        m.create_action(NodeId(1), ActionSpec::new("merge", true))
            .await
            .unwrap();
        // Two concurrent writers, interleaved on the same action.
        let s1 = m.open_stream(NodeId(1), StreamDir::Write).await.unwrap();
        let s2 = m.open_stream(NodeId(1), StreamDir::Write).await.unwrap();
        m.push_chunk(s1, 0, Bytes::from_static(b"1,10\n2,5\n"))
            .await
            .unwrap();
        m.push_chunk(s2, 0, Bytes::from_static(b"1,7\n3,1\n"))
            .await
            .unwrap();
        m.close_stream(s1).await.unwrap();
        m.close_stream(s2).await.unwrap();
        let out = read_all(&m, NodeId(1)).await;
        assert_eq!(String::from_utf8(out).unwrap(), "1,17\n2,5\n3,1\n");
    }

    #[tokio::test]
    async fn interleaved_sorter_never_tears_records() {
        // Regression: network chunks are not record-aligned; interleaved
        // writers must not interleave mid-record.
        let m = manager(4);
        m.create_action(
            NodeId(1),
            ActionSpec::new("sorter", true).with_params("record=4;key=4"),
        )
        .await
        .unwrap();
        // Two writers, each sending 10 records of 4 bytes in awkward
        // 6-byte chunks.
        let mut expected: Vec<Vec<u8>> = Vec::new();
        let mut handles = Vec::new();
        for w in 0..2u8 {
            let mut payload = Vec::new();
            for r in 0..10u8 {
                let rec = [b'A' + w, r, r, r];
                expected.push(rec.to_vec());
                payload.extend_from_slice(&rec);
            }
            let sid = m.open_stream(NodeId(1), StreamDir::Write).await.unwrap();
            let mgr = &m;
            handles.push(async move {
                for (i, chunk) in payload.chunks(6).enumerate() {
                    mgr.push_chunk(sid, i as u64, Bytes::copy_from_slice(chunk))
                        .await
                        .unwrap();
                }
                mgr.close_stream(sid).await.unwrap();
            });
        }
        futures::future::join_all(handles).await;
        let out = read_all(&m, NodeId(1)).await;
        assert_eq!(out.len(), 80);
        let mut got: Vec<Vec<u8>> = out.chunks(4).map(|c| c.to_vec()).collect();
        let sorted_expected = {
            let mut e = expected.clone();
            e.sort();
            e
        };
        assert_eq!(got.clone().len(), 20);
        // Output is sorted...
        let mut check = got.clone();
        check.sort();
        assert_eq!(got, check, "sorter output must be sorted");
        // ...and is exactly the input multiset (no torn records).
        got.sort();
        assert_eq!(got, sorted_expected);
    }

    #[tokio::test]
    async fn batch_push_round_trips() {
        let m = manager(2);
        m.create_action(NodeId(1), ActionSpec::new("counter", false))
            .await
            .unwrap();
        let sid = m.open_stream(NodeId(1), StreamDir::Write).await.unwrap();
        let mut b = glider_proto::batch::RecordBatchBuilder::new();
        b.push(b"hello ");
        b.push(b"world");
        let (count, data) = b.finish();
        m.push_chunk_batch(sid, 0, count, data).await.unwrap();
        m.close_stream(sid).await.unwrap();
        assert_eq!(read_all(&m, NodeId(1)).await, b"11");
    }

    #[tokio::test]
    async fn try_paths_serve_ready_work_and_fall_back() {
        let m = manager(2);
        m.create_action(NodeId(1), ActionSpec::new("counter", false))
            .await
            .unwrap();
        let sid = m.open_stream(NodeId(1), StreamDir::Write).await.unwrap();
        assert!(matches!(
            m.try_push_chunk(sid, 0, Bytes::from_static(b"abc")),
            Some(Ok(()))
        ));
        let mut b = glider_proto::batch::RecordBatchBuilder::new();
        b.push(b"de");
        let (count, data) = b.finish();
        assert!(matches!(
            m.try_push_chunk_batch(sid, 1, count, data),
            Some(Ok(()))
        ));
        m.close_stream(sid).await.unwrap();
        // Unknown streams are settled synchronously.
        let err = m
            .try_push_chunk(StreamId(99), 0, Bytes::new())
            .unwrap()
            .unwrap_err();
        assert_eq!(err.code(), ErrorCode::NotFound);
        assert!(m.try_fetch(StreamId(99)).is_none(), "async path reports it");
        // The read side serves synchronously once the action has produced.
        let rid = m.open_stream(NodeId(1), StreamDir::Read).await.unwrap();
        let mut out = Vec::new();
        loop {
            match m.try_fetch(rid) {
                Some(Ok((_, bytes, eof))) => {
                    out.extend_from_slice(&bytes);
                    if eof {
                        break;
                    }
                }
                Some(Err(e)) => panic!("unexpected error: {e}"),
                None => tokio::time::sleep(std::time::Duration::from_millis(1)).await,
            }
        }
        assert_eq!(out, b"5");
        m.close_stream(rid).await.unwrap();
    }

    #[tokio::test]
    async fn pool_backed_manager_round_trips() {
        let m = manager(2).with_executor(ActionExecutor::with_workers(2));
        m.create_action(NodeId(1), ActionSpec::new("counter", false))
            .await
            .unwrap();
        let sid = m.open_stream(NodeId(1), StreamDir::Write).await.unwrap();
        m.push_chunk(sid, 0, Bytes::from_static(b"near-data"))
            .await
            .unwrap();
        m.close_stream(sid).await.unwrap();
        assert_eq!(read_all(&m, NodeId(1)).await, b"9");
        m.delete_action(NodeId(1)).await.unwrap();
        assert_eq!(m.instance_count(), 0);
    }

    #[tokio::test]
    async fn abort_streams_of_drops_entries() {
        let m = manager(4);
        m.create_action(NodeId(1), ActionSpec::new("counter", false))
            .await
            .unwrap();
        let _w = m.open_stream(NodeId(1), StreamDir::Write).await.unwrap();
        let _r = m.open_stream(NodeId(1), StreamDir::Read).await.unwrap();
        assert_eq!(m.open_streams(), 2);
        m.abort_streams_of(NodeId(1));
        assert_eq!(m.open_streams(), 0);
    }
}
