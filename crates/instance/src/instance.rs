//! One action instance as one future (paper §4.2 "Actions and
//! concurrency").
//!
//! An [`Instance`] owns its action, its mailbox's receiving end and the
//! futures of its in-flight methods. Whoever polls it (a task on the
//! action pool, or a test's loop) is its only thread, so methods of one
//! instance never run in parallel. Serial mode is interleaved mode with a
//! window of one, and both follow one admission rule:
//!
//! - admit from the mailbox while fewer methods are in flight than the
//!   window allows (one, or unbounded with interleaving on), and poll
//!   every in-flight method in admission order: with interleaving,
//!   methods take turns at their await points, Orleans-style;
//! - stop admitting at `Delete`, and run `on_delete` once the last
//!   in-flight method has completed;
//! - when the instance stops (after `on_delete`, after a failed
//!   `on_create`, once every handle is gone, or when it is dropped
//!   unfinished), run its [`Instance::on_stop`] hook, close the mailbox
//!   and answer every invocation still in it with `Closed`;
//! - run every poll of `on_create`, of a method and of `on_delete` inside
//!   `catch_unwind`: a panic fails only its own caller, with
//!   `ActionFailed`.

use crate::action::{Action, ActionContext, BoxFuture};
use crate::channel::{channel, Receiver, Sender, TrySendError};
use crate::stream::{ActionInputStream, ActionOutputStream};
use glider_metrics::{CountHist, MetricsRegistry, OpKind, Signal};
use glider_proto::types::NodeId;
use glider_proto::{ErrorCode, GliderError, GliderResult};
use glider_trace::{Span, SpanContext};
use std::any::Any;
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::Instant;

/// Mailbox depth for queued method invocations.
pub const MAILBOX_DEPTH: usize = 1024;

/// Where an invocation's result goes: a channel of capacity one, answered
/// exactly once. The waiter's end sees `None` only if the instance was
/// dropped before it answered (its pool shutting down).
pub type Reply = Sender<GliderResult<()>>;

/// A reply channel: the instance's end and the waiter's end.
pub fn reply() -> (Reply, Receiver<GliderResult<()>>) {
    channel(1)
}

/// Tracing/timing context that rides the mailbox alongside each
/// [`Invocation`]: an `action.queue` span (child of the server's handler
/// span) that is open exactly while the invocation waits in the mailbox,
/// and the enqueue timestamp feeding the `queue-wait` histogram.
#[derive(Debug)]
pub struct Enqueued {
    span: Span,
    at: Instant,
}

impl Enqueued {
    /// Context for an invocation enqueued on behalf of a traced request.
    /// A [`SpanContext::NONE`] parent yields a detached (span-less) entry.
    pub fn new(parent: SpanContext) -> Enqueued {
        let span = if parent.is_none() {
            Span::none()
        } else {
            Span::child_of(parent, "action.queue")
        };
        Enqueued {
            span,
            at: Instant::now(),
        }
    }

    /// Context for an invocation with no originating trace (internal or
    /// test enqueues); still timed for the queue-wait histogram.
    pub fn detached() -> Enqueued {
        Enqueued {
            span: Span::none(),
            at: Instant::now(),
        }
    }

    /// Marks the invocation dequeued: records the queue wait, releases
    /// its `queue` gauge unit, closes the `action.queue` span, and opens
    /// the `action.run` span under it.
    fn dequeued(self, metrics: Option<&MetricsRegistry>) -> Span {
        if let Some(m) = metrics {
            m.record_latency(OpKind::QueueWait, self.at.elapsed());
            m.sub(Signal::Queue, 1);
        }
        let parent = self.span.context();
        if parent.is_none() {
            Span::none()
        } else {
            Span::child_of(parent, "action.run")
        }
    }
}

/// A method invocation queued on an instance.
#[derive(Debug)]
pub enum Invocation {
    /// Run `on_write` consuming `input`.
    Write {
        /// The stream the client writes into.
        input: ActionInputStream,
        /// Completion signal (write barrier for the client's close).
        done: Reply,
    },
    /// Run `on_read` producing into `output`.
    Read {
        /// The stream the client reads from.
        output: ActionOutputStream,
        /// Completion signal.
        done: Reply,
    },
    /// Run `on_delete` and stop the instance.
    Delete {
        /// Completion signal.
        done: Reply,
    },
}

impl Invocation {
    fn into_done(self) -> Reply {
        match self {
            Invocation::Write { done, .. }
            | Invocation::Read { done, .. }
            | Invocation::Delete { done } => done,
        }
    }
}

/// Handle for enqueueing invocations on a running instance.
///
/// Each queued invocation holds one unit of the `queue` gauge from its
/// enqueue until the instance dequeues it, runs it or answers it
/// `Closed`.
#[derive(Debug, Clone)]
pub struct InstanceHandle {
    tx: Sender<(Enqueued, Invocation)>,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl InstanceHandle {
    /// Enqueues an invocation with no originating trace.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorCode::Closed`] if the instance has stopped.
    pub async fn enqueue(&self, inv: Invocation) -> GliderResult<()> {
        self.enqueue_traced(Enqueued::detached(), inv).await
    }

    /// Enqueues an invocation carrying its tracing/timing context,
    /// waiting while the mailbox is full.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorCode::Closed`] if the instance has stopped.
    pub async fn enqueue_traced(&self, queued: Enqueued, inv: Invocation) -> GliderResult<()> {
        self.queue_unit();
        let sent = self.tx.send((queued, inv)).await;
        self.settle(sent.is_ok())
    }

    /// Enqueues without waiting, handing the invocation back when the
    /// mailbox is full or the instance has stopped.
    ///
    /// # Errors
    ///
    /// [`TrySendError::Full`] or [`TrySendError::Closed`], with the
    /// invocation intact.
    pub fn try_enqueue(
        &self,
        queued: Enqueued,
        inv: Invocation,
    ) -> Result<(), TrySendError<Box<(Enqueued, Invocation)>>> {
        self.queue_unit();
        let sent = self.tx.try_send((queued, inv));
        let _ = self.settle(sent.is_ok());
        sent.map_err(|e| match e {
            TrySendError::Full(back) => TrySendError::Full(Box::new(back)),
            TrySendError::Closed(back) => TrySendError::Closed(Box::new(back)),
        })
    }

    /// Takes the invocation's `queue` unit before it can reach the
    /// mailbox, so the instance's release never precedes it.
    fn queue_unit(&self) {
        if let Some(m) = &self.metrics {
            m.add(Signal::Queue, 1);
            m.record_count(CountHist::MailboxDepth, self.tx.len() as u64);
        }
    }

    /// Gives the unit back when the invocation never reached the mailbox.
    fn settle(&self, sent: bool) -> GliderResult<()> {
        if sent {
            return Ok(());
        }
        if let Some(m) = &self.metrics {
            m.sub(Signal::Queue, 1);
        }
        Err(GliderError::new(
            ErrorCode::Closed,
            "action instance stopped",
        ))
    }

    /// Number of invocations currently queued in the instance's mailbox
    /// (feeds the mailbox-depth histogram).
    pub fn mailbox_depth(&self) -> usize {
        self.tx.len()
    }
}

/// A method the instance admitted and has not finished.
struct Method {
    name: &'static str,
    future: BoxFuture<'static, GliderResult<()>>,
    done: Reply,
    span: Span,
    started: Instant,
}

/// `on_read`, then a flush of what it left buffered.
fn read(
    action: Arc<dyn Action>,
    ctx: ActionContext,
    mut output: ActionOutputStream,
) -> BoxFuture<'static, GliderResult<()>> {
    Box::pin(async move {
        let mut result = action.on_read(&mut output, &ctx).await;
        if result.is_ok() {
            result = output.flush().await;
        }
        // A reader that walked away mid-stream is not an action failure;
        // a `Closed` of the method's own (a store stream, say) is.
        if matches!(&result, Err(e) if e.code() == ErrorCode::Closed) && output.reader_gone() {
            result = Ok(());
        }
        drop(output); // close the data channel -> EOF for the client
        result
    })
}

impl Method {
    /// Records the run, closes its span and answers the caller. The
    /// future is dropped first: a panicked `on_read` closes its output
    /// before the reader learns why.
    fn finish(self, outcome: Outcome, metrics: Option<&MetricsRegistry>) {
        let Method {
            name,
            future,
            done,
            span,
            started,
        } = self;
        drop(future);
        if let Some(m) = metrics {
            m.record_latency(OpKind::ActionHandlerRun, started.elapsed());
        }
        drop(span);
        let _ = done.try_send(result(outcome, name));
    }
}

/// What one guarded poll ended with: the future's output, or its panic.
type Outcome = Result<GliderResult<()>, Box<dyn Any + Send>>;

/// The caller's answer: a panic becomes [`ErrorCode::ActionFailed`]
/// naming the method.
fn result(outcome: Outcome, method: &str) -> GliderResult<()> {
    outcome.unwrap_or_else(|panic| {
        let message = panic
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "opaque panic payload".to_string());
        Err(GliderError::new(
            ErrorCode::ActionFailed,
            format!("action {method} panicked: {message}"),
        ))
    })
}

/// Polls `future` once inside `catch_unwind`. A future that panicked
/// must not be polled again; every caller drops it.
fn guarded(
    future: &mut BoxFuture<'static, GliderResult<()>>,
    cx: &mut Context<'_>,
) -> Poll<Outcome> {
    match catch_unwind(AssertUnwindSafe(|| future.as_mut().poll(cx))) {
        Ok(Poll::Pending) => Poll::Pending,
        Ok(Poll::Ready(result)) => Poll::Ready(Ok(result)),
        Err(panic) => Poll::Ready(Err(panic)),
    }
}

enum Phase {
    Creating(BoxFuture<'static, GliderResult<()>>),
    Running,
    Deleting(BoxFuture<'static, GliderResult<()>>),
    Stopped,
}

/// One action instance: a future that runs `on_create`, then the
/// admission rule of this module's docs, then `on_delete`, and completes
/// when the instance has stopped.
///
/// `metrics` (when provided) receives the `actions-instances` gauge, the
/// queue-wait and action-run histograms, and storage-utilization samples
/// of [`Action::state_size`] after every method.
pub struct Instance {
    action: Arc<dyn Action>,
    ctx: ActionContext,
    metrics: Option<Arc<MetricsRegistry>>,
    mailbox: Receiver<(Enqueued, Invocation)>,
    /// The most methods in flight: one, or unbounded with interleaving.
    window: usize,
    phase: Phase,
    created: Option<Reply>,
    /// Taken at `Delete`: admission has stopped.
    deleting: Option<Reply>,
    /// Cleared once every handle is gone and the mailbox is empty.
    mailbox_open: bool,
    /// In admission order.
    running: Vec<Method>,
    /// `on_create` succeeded, so the instance counts in the gauge.
    live: bool,
    /// The last [`Action::state_size`] sample, held in the gauge.
    state_bytes: u64,
    /// Runs once, first thing when the instance stops.
    on_stop: Option<Box<dyn FnOnce() + Send>>,
}

impl Instance {
    /// An instance of `action` with a mailbox of `mailbox_depth`
    /// invocations, its handle, and the waiter's end of `on_create`'s
    /// result. Nothing runs until the instance is polled.
    pub fn new(
        action: Arc<dyn Action>,
        ctx: ActionContext,
        metrics: Option<Arc<MetricsRegistry>>,
        mailbox_depth: usize,
    ) -> (Instance, InstanceHandle, Receiver<GliderResult<()>>) {
        let (tx, mailbox) = channel(mailbox_depth);
        let (created, created_rx) = reply();
        let create = {
            let (action, ctx) = (Arc::clone(&action), ctx.clone());
            Box::pin(async move { action.on_create(&ctx).await })
        };
        let handle = InstanceHandle {
            tx,
            metrics: metrics.clone(),
        };
        let instance = Instance {
            window: if ctx.interleaved { usize::MAX } else { 1 },
            action,
            ctx,
            metrics,
            mailbox,
            phase: Phase::Creating(create),
            created: Some(created),
            deleting: None,
            mailbox_open: true,
            running: Vec::new(),
            live: false,
            state_bytes: 0,
            on_stop: None,
        };
        (instance, handle, created_rx)
    }

    /// The node this instance lives in.
    pub fn node_id(&self) -> NodeId {
        self.ctx.node_id
    }

    /// Sets what runs once when the instance stops, before any waiter
    /// hears of the stop: before the delete's or the failed create's
    /// answer, and also when the instance is dropped unfinished. The
    /// action manager frees the node's slot here.
    pub fn on_stop(&mut self, hook: Box<dyn FnOnce() + Send>) {
        self.on_stop = Some(hook);
    }

    /// Acks `on_create`: a live instance starts admitting, a failed one
    /// stops.
    fn created(&mut self, result: GliderResult<()>) {
        if result.is_ok() {
            // Before the ack, so callers observe the gauge raised as soon
            // as create returns.
            if let Some(m) = &self.metrics {
                m.add(Signal::ActionInstances, 1);
            }
            self.live = true;
            self.sample();
            self.phase = Phase::Running;
        } else {
            self.stop();
        }
        if let Some(created) = self.created.take() {
            let _ = created.try_send(result);
        }
    }

    /// Runs the admission rule until nothing more can happen now.
    /// `Ready` means the phase changed.
    fn turn(&mut self, cx: &mut Context<'_>) -> Poll<()> {
        loop {
            self.admit(cx);
            let finished = self.poll_running(cx);
            if self.running.is_empty() {
                if self.deleting.is_some() {
                    let (action, ctx) = (Arc::clone(&self.action), self.ctx.clone());
                    self.phase =
                        Phase::Deleting(Box::pin(async move { action.on_delete(&ctx).await }));
                    return Poll::Ready(());
                }
                if !self.mailbox_open {
                    self.stop();
                    return Poll::Ready(());
                }
            }
            if !finished {
                return Poll::Pending;
            }
        }
    }

    /// Admits from the mailbox while the window has room and no `Delete`
    /// has arrived.
    fn admit(&mut self, cx: &mut Context<'_>) {
        while self.deleting.is_none() && self.mailbox_open && self.running.len() < self.window {
            let (queued, inv) = match self.mailbox.poll_recv(cx) {
                Poll::Pending => return,
                Poll::Ready(None) => {
                    self.mailbox_open = false;
                    return;
                }
                Poll::Ready(Some(next)) => next,
            };
            let span = queued.dequeued(self.metrics.as_deref());
            let (action, ctx) = (Arc::clone(&self.action), self.ctx.clone());
            let (name, future, done): (_, BoxFuture<'static, _>, _) = match inv {
                Invocation::Delete { done } => {
                    self.deleting = Some(done);
                    continue;
                }
                Invocation::Write { mut input, done } => (
                    "on_write",
                    Box::pin(async move { action.on_write(&mut input, &ctx).await }),
                    done,
                ),
                Invocation::Read { output, done } => ("on_read", read(action, ctx, output), done),
            };
            self.running.push(Method {
                name,
                future,
                done,
                span,
                started: Instant::now(),
            });
        }
    }

    /// Polls every in-flight method once, in admission order; finishes
    /// those that completed. Returns whether any did.
    fn poll_running(&mut self, cx: &mut Context<'_>) -> bool {
        let mut finished = false;
        let mut at = 0;
        while let Some(method) = self.running.get_mut(at) {
            match guarded(&mut method.future, cx) {
                Poll::Pending => at += 1,
                Poll::Ready(outcome) => {
                    let method = self.running.remove(at);
                    method.finish(outcome, self.metrics.as_deref());
                    self.sample();
                    finished = true;
                }
            }
        }
        finished
    }

    /// Moves the storage-utilization gauge to the action's state size.
    fn sample(&mut self) {
        let Some(m) = &self.metrics else { return };
        // User code: a panic keeps the last sample.
        let now =
            catch_unwind(AssertUnwindSafe(|| self.action.state_size())).unwrap_or(self.state_bytes);
        if now > self.state_bytes {
            m.storage_alloc(now - self.state_bytes);
        } else if now < self.state_bytes {
            m.storage_free(self.state_bytes - now);
        }
        self.state_bytes = now;
    }

    /// Runs the stop hook, releases the gauges, closes the mailbox and
    /// answers every invocation still in it with `Closed`.
    fn stop(&mut self) {
        self.phase = Phase::Stopped;
        if let Some(hook) = self.on_stop.take() {
            hook();
        }
        if let Some(m) = &self.metrics {
            if self.state_bytes > 0 {
                m.storage_free(self.state_bytes);
            }
            if self.live {
                m.sub(Signal::ActionInstances, 1);
            }
        }
        self.state_bytes = 0;
        self.live = false;
        for (queued, inv) in self.mailbox.close() {
            drop(queued.dequeued(self.metrics.as_deref()));
            let _ = inv
                .into_done()
                .try_send(Err(GliderError::closed("action instance")));
        }
    }
}

impl Future for Instance {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        loop {
            match &mut this.phase {
                Phase::Creating(create) => {
                    let Poll::Ready(outcome) = guarded(create, cx) else {
                        return Poll::Pending;
                    };
                    this.created(result(outcome, "on_create"));
                }
                Phase::Running => {
                    if this.turn(cx).is_pending() {
                        return Poll::Pending;
                    }
                }
                Phase::Deleting(delete) => {
                    let Poll::Ready(outcome) = guarded(delete, cx) else {
                        return Poll::Pending;
                    };
                    // Stopped before the ack, so callers observe the
                    // gauges released as soon as delete returns.
                    this.stop();
                    if let Some(done) = this.deleting.take() {
                        let _ = done.try_send(result(outcome, "on_delete"));
                    }
                }
                Phase::Stopped => return Poll::Ready(()),
            }
        }
    }
}

impl Drop for Instance {
    /// An instance dropped unfinished (its pool shutting down) still
    /// stops: its hook runs and its gauges are released.
    fn drop(&mut self) {
        if !matches!(self.phase, Phase::Stopped) {
            self.stop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::ActionCell;
    use crate::ready;
    use crate::stream::InputPusher;
    use bytes::Bytes;
    use glider_proto::types::NodeId;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::task::Waker;

    fn start(
        action: Arc<dyn Action>,
        interleaved: bool,
        metrics: Option<Arc<MetricsRegistry>>,
    ) -> (Instance, InstanceHandle, Receiver<GliderResult<()>>) {
        let ctx = ActionContext::new(NodeId(1), interleaved, None);
        Instance::new(action, ctx, metrics, 8)
    }

    /// Polls the instance once; whether it has stopped.
    fn poll(instance: &mut Instance) -> bool {
        let mut cx = Context::from_waker(Waker::noop());
        Pin::new(instance).poll(&mut cx).is_ready()
    }

    /// Counts bytes written; read returns the count in decimal.
    #[derive(Default)]
    struct Counter {
        total: ActionCell<u64>,
        max_concurrent: AtomicU64,
        running: AtomicU64,
    }

    impl Action for Counter {
        fn on_write<'a>(
            &'a self,
            input: &'a mut ActionInputStream,
            _ctx: &'a ActionContext,
        ) -> BoxFuture<'a, GliderResult<()>> {
            Box::pin(async move {
                let now = self.running.fetch_add(1, Ordering::SeqCst) + 1;
                self.max_concurrent.fetch_max(now, Ordering::SeqCst);
                while let Some(chunk) = input.next_chunk().await? {
                    self.total.with(|t| *t += chunk.len() as u64);
                }
                self.running.fetch_sub(1, Ordering::SeqCst);
                Ok(())
            })
        }

        fn on_read<'a>(
            &'a self,
            output: &'a mut ActionOutputStream,
            _ctx: &'a ActionContext,
        ) -> BoxFuture<'a, GliderResult<()>> {
            Box::pin(async move {
                let total = self.total.get();
                output.write_all(total.to_string().as_bytes()).await
            })
        }

        fn state_size(&self) -> u64 {
            self.total.get()
        }
    }

    fn write(
        handle: &InstanceHandle,
        chunks: &[&'static [u8]],
    ) -> (InputPusher, Receiver<GliderResult<()>>) {
        let (input, pusher) = ActionInputStream::new(8);
        let (done, done_rx) = reply();
        ready(handle.enqueue(Invocation::Write { input, done })).unwrap();
        for (seq, chunk) in (0..).zip(chunks) {
            ready(pusher.push(seq, Bytes::from_static(chunk))).unwrap();
        }
        (pusher, done_rx)
    }

    fn delete(handle: &InstanceHandle) -> Receiver<GliderResult<()>> {
        let (done, done_rx) = reply();
        ready(handle.enqueue(Invocation::Delete { done })).unwrap();
        done_rx
    }

    /// Reads the action's output to its end.
    fn read(instance: &mut Instance, handle: &InstanceHandle) -> Vec<u8> {
        let (output, mut rx) = ActionOutputStream::new(8);
        let (done, mut done_rx) = reply();
        ready(handle.enqueue(Invocation::Read { output, done })).unwrap();
        poll(instance);
        let mut out = Vec::new();
        while let Ok(chunk) = rx.try_recv() {
            out.extend_from_slice(&chunk);
        }
        done_rx.try_recv().unwrap().unwrap();
        out
    }

    #[test]
    fn write_then_read_sees_state() {
        let (mut instance, handle, mut created) = start(Arc::new(Counter::default()), false, None);
        poll(&mut instance);
        created.try_recv().unwrap().unwrap();
        let (pusher, mut done) = write(&handle, &[b"hello", b"world"]);
        pusher.finish();
        poll(&mut instance);
        done.try_recv().unwrap().unwrap();
        assert_eq!(read(&mut instance, &handle), b"10");
    }

    #[test]
    fn serial_instance_never_interleaves() {
        let counter = Arc::new(Counter::default());
        let (mut instance, handle, _created) = start(counter.clone(), false, None);
        // Open two write streams; feed the second before the first closes.
        let (p1, mut d1) = write(&handle, &[b"a"]);
        let (p2, mut d2) = write(&handle, &[b"b"]);
        poll(&mut instance);
        assert_eq!(handle.mailbox_depth(), 1, "second write should be queued");
        p2.finish();
        poll(&mut instance);
        assert!(d2.try_recv().is_err(), "queued behind the first");
        p1.finish();
        poll(&mut instance);
        d1.try_recv().unwrap().unwrap();
        d2.try_recv().unwrap().unwrap();
        assert_eq!(handle.mailbox_depth(), 0);
        assert_eq!(
            counter.max_concurrent.load(Ordering::SeqCst),
            1,
            "methods must not overlap"
        );
        assert_eq!(read(&mut instance, &handle), b"2");
    }

    #[test]
    fn interleaved_instance_overlaps_methods() {
        let counter = Arc::new(Counter::default());
        let (mut instance, handle, _created) = start(counter.clone(), true, None);
        let (p1, mut d1) = write(&handle, &[b"a"]);
        let (p2, mut d2) = write(&handle, &[b"b"]);
        poll(&mut instance);
        // Both methods are in flight, taking turns.
        assert_eq!(
            counter.max_concurrent.load(Ordering::SeqCst),
            2,
            "methods should interleave"
        );
        p2.finish();
        poll(&mut instance);
        d2.try_recv().unwrap().unwrap();
        p1.finish();
        poll(&mut instance);
        d1.try_recv().unwrap().unwrap();
        assert_eq!(read(&mut instance, &handle), b"2");
    }

    #[test]
    fn delete_runs_on_delete_and_stops_instance() {
        struct DeleteProbe(AtomicBool);
        impl Action for DeleteProbe {
            fn on_delete<'a>(&'a self, _ctx: &'a ActionContext) -> BoxFuture<'a, GliderResult<()>> {
                Box::pin(async move {
                    self.0.store(true, Ordering::SeqCst);
                    Ok(())
                })
            }
        }
        let probe = Arc::new(DeleteProbe(AtomicBool::new(false)));
        let (mut instance, handle, _created) = start(probe.clone(), false, None);
        let mut done = delete(&handle);
        assert!(poll(&mut instance), "the instance stops at its delete");
        done.try_recv().unwrap().unwrap();
        assert!(probe.0.load(Ordering::SeqCst));
        // Instance is gone; further invocations fail at once.
        let (done, _) = reply();
        let err = ready(handle.enqueue(Invocation::Delete { done })).unwrap_err();
        assert_eq!(err.code(), ErrorCode::Closed);
    }

    #[test]
    fn interleaved_delete_waits_for_in_flight_methods() {
        let (mut instance, handle, _created) = start(Arc::new(Counter::default()), true, None);
        let (p1, mut d1) = write(&handle, &[b"xyz"]);
        let mut del = delete(&handle);
        assert!(!poll(&mut instance));
        // Delete must not have completed while a write is open.
        assert!(del.try_recv().is_err());
        p1.finish();
        assert!(poll(&mut instance));
        d1.try_recv().unwrap().unwrap();
        del.try_recv().unwrap().unwrap();
    }

    #[test]
    fn invocations_behind_a_delete_are_answered_closed() {
        let metrics = MetricsRegistry::new();
        let (mut instance, handle, _created) = start(
            Arc::new(Counter::default()),
            false,
            Some(Arc::clone(&metrics)),
        );
        let (p1, mut d1) = write(&handle, &[b"ab"]);
        let mut del = delete(&handle);
        // Enqueued after the delete, as by an open_stream that fetched
        // the handle before the delete removed it.
        let (_p2, mut stranded) = write(&handle, &[b"late"]);
        assert_eq!(metrics.snapshot().current(Signal::Queue), 3);
        p1.finish();
        assert!(poll(&mut instance));
        d1.try_recv().unwrap().unwrap();
        del.try_recv().unwrap().unwrap();
        let err = stranded.try_recv().unwrap().unwrap_err();
        assert_eq!(err.code(), ErrorCode::Closed);
        let s = metrics.snapshot();
        assert_eq!(s.current(Signal::Queue), 0);
        assert_eq!(s.current(Signal::ActionInstances), 0);
    }

    #[test]
    fn queue_wait_and_run_latency_feed_histograms() {
        let metrics = MetricsRegistry::new();
        let (mut instance, handle, _created) = start(
            Arc::new(Counter::default()),
            false,
            Some(Arc::clone(&metrics)),
        );
        let (pusher, mut done) = write(&handle, &[b"abc"]);
        poll(&mut instance);
        std::thread::sleep(std::time::Duration::from_millis(1));
        pusher.finish();
        poll(&mut instance);
        done.try_recv().unwrap().unwrap();
        let s = metrics.snapshot();
        assert_eq!(s.op_latency(OpKind::QueueWait).count(), 1);
        assert_eq!(s.op_latency(OpKind::ActionHandlerRun).count(), 1);
        assert!(s.op_latency(OpKind::ActionHandlerRun).p50() > 0);
    }

    #[test]
    fn instance_gauge_follows_create_and_delete() {
        let metrics = MetricsRegistry::new();
        let (mut instance, handle, mut created) = start(
            Arc::new(Counter::default()),
            false,
            Some(Arc::clone(&metrics)),
        );
        poll(&mut instance);
        created.try_recv().unwrap().unwrap();
        assert_eq!(metrics.snapshot().current(Signal::ActionInstances), 1);
        let mut done = delete(&handle);
        poll(&mut instance);
        done.try_recv().unwrap().unwrap();
        // Released before the delete's ack.
        assert_eq!(metrics.snapshot().current(Signal::ActionInstances), 0);
        assert_eq!(metrics.snapshot().peak(Signal::ActionInstances), 1);
    }

    #[test]
    fn failing_on_create_reports_error_and_closes_the_mailbox() {
        struct FailCreate;
        impl Action for FailCreate {
            fn on_create<'a>(&'a self, _ctx: &'a ActionContext) -> BoxFuture<'a, GliderResult<()>> {
                Box::pin(async { Err(GliderError::invalid("nope")) })
            }
        }
        let metrics = MetricsRegistry::new();
        let (mut instance, handle, mut created) =
            start(Arc::new(FailCreate), false, Some(Arc::clone(&metrics)));
        let (_pusher, mut stranded) = write(&handle, &[]);
        assert!(poll(&mut instance));
        let err = created.try_recv().unwrap().unwrap_err();
        assert_eq!(err.code(), ErrorCode::InvalidArgument);
        assert_eq!(
            stranded.try_recv().unwrap().unwrap_err().code(),
            ErrorCode::Closed
        );
        let s = metrics.snapshot();
        assert_eq!(
            (s.current(Signal::Queue), s.peak(Signal::ActionInstances)),
            (0, 0)
        );
    }

    /// Panics in `on_create` or in `on_delete`, as chosen.
    struct PanicIn(&'static str);

    impl Action for PanicIn {
        fn on_create<'a>(&'a self, _ctx: &'a ActionContext) -> BoxFuture<'a, GliderResult<()>> {
            Box::pin(async move {
                assert_ne!(self.0, "on_create", "user code exploded");
                Ok(())
            })
        }

        fn on_delete<'a>(&'a self, _ctx: &'a ActionContext) -> BoxFuture<'a, GliderResult<()>> {
            Box::pin(async move {
                assert_ne!(self.0, "on_delete", "user code exploded");
                Ok(())
            })
        }
    }

    #[test]
    fn a_panicking_on_create_fails_create_with_action_failed() {
        let (mut instance, _handle, mut created) =
            start(Arc::new(PanicIn("on_create")), false, None);
        assert!(poll(&mut instance));
        let err = created.try_recv().unwrap().unwrap_err();
        assert_eq!(err.code(), ErrorCode::ActionFailed);
        assert!(err.message().contains("on_create panicked"), "{err}");
    }

    #[test]
    fn a_panicking_on_delete_fails_delete_and_still_releases_the_gauges() {
        let metrics = MetricsRegistry::new();
        let (mut instance, handle, _created) = start(
            Arc::new(PanicIn("on_delete")),
            true,
            Some(Arc::clone(&metrics)),
        );
        let mut done = delete(&handle);
        let (_pusher, mut stranded) = write(&handle, &[]);
        assert!(poll(&mut instance));
        let err = done.try_recv().unwrap().unwrap_err();
        assert_eq!(err.code(), ErrorCode::ActionFailed);
        assert!(err.message().contains("on_delete panicked"), "{err}");
        assert_eq!(
            stranded.try_recv().unwrap().unwrap_err().code(),
            ErrorCode::Closed
        );
        let s = metrics.snapshot();
        assert_eq!(
            (s.current(Signal::ActionInstances), s.current(Signal::Queue)),
            (0, 0)
        );
    }

    #[test]
    fn state_size_feeds_utilization_gauge() {
        let metrics = MetricsRegistry::new();
        let (mut instance, handle, _created) = start(
            Arc::new(Counter::default()),
            false,
            Some(Arc::clone(&metrics)),
        );
        let (pusher, mut done) = write(&handle, &[b"0123456789"]);
        pusher.finish();
        poll(&mut instance);
        done.try_recv().unwrap().unwrap();
        assert_eq!(metrics.snapshot().storage_current, 10);
        // Delete releases the gauge before its ack.
        let mut done = delete(&handle);
        poll(&mut instance);
        done.try_recv().unwrap().unwrap();
        assert_eq!(metrics.snapshot().storage_current, 0);
        assert_eq!(metrics.snapshot().storage_peak, 10);
    }

    #[test]
    fn panicking_method_fails_invocation_but_not_instance() {
        #[derive(Default)]
        struct PanicOnce {
            fired: AtomicBool,
            total: ActionCell<u64>,
        }
        impl Action for PanicOnce {
            fn on_write<'a>(
                &'a self,
                input: &'a mut ActionInputStream,
                _ctx: &'a ActionContext,
            ) -> BoxFuture<'a, GliderResult<()>> {
                Box::pin(async move {
                    let first = !self.fired.swap(true, Ordering::SeqCst);
                    assert!(!first, "user code exploded");
                    while let Some(chunk) = input.next_chunk().await? {
                        self.total.with(|t| *t += chunk.len() as u64);
                    }
                    Ok(())
                })
            }
            fn on_read<'a>(
                &'a self,
                output: &'a mut ActionOutputStream,
                _ctx: &'a ActionContext,
            ) -> BoxFuture<'a, GliderResult<()>> {
                Box::pin(async move {
                    output
                        .write_all(self.total.get().to_string().as_bytes())
                        .await
                })
            }
        }
        let (mut instance, handle, _created) = start(Arc::new(PanicOnce::default()), false, None);
        // First write panics; the waiter sees ActionFailed.
        let (p1, mut d1) = write(&handle, &[b"boom"]);
        p1.finish();
        poll(&mut instance);
        let err = d1.try_recv().unwrap().unwrap_err();
        assert_eq!(err.code(), ErrorCode::ActionFailed);
        assert!(err.message().contains("panicked"));
        // The instance survives and keeps serving.
        let (p2, mut d2) = write(&handle, &[b"fine"]);
        p2.finish();
        poll(&mut instance);
        d2.try_recv().unwrap().unwrap();
        assert_eq!(read(&mut instance, &handle), b"4");
    }

    #[test]
    fn method_errors_reach_the_waiter() {
        struct FailWrite;
        impl Action for FailWrite {
            fn on_write<'a>(
                &'a self,
                _input: &'a mut ActionInputStream,
                _ctx: &'a ActionContext,
            ) -> BoxFuture<'a, GliderResult<()>> {
                Box::pin(async { Err(GliderError::new(ErrorCode::ActionFailed, "boom")) })
            }
        }
        let (mut instance, handle, _created) = start(Arc::new(FailWrite), false, None);
        let (_pusher, mut done) = write(&handle, &[]);
        poll(&mut instance);
        let err = done.try_recv().unwrap().unwrap_err();
        assert_eq!(err.code(), ErrorCode::ActionFailed);
        assert_eq!(err.message(), "boom");
    }

    #[test]
    fn the_instance_stops_when_every_handle_is_gone() {
        let (mut instance, handle, _created) = start(Arc::new(Counter::default()), true, None);
        let (pusher, mut done) = write(&handle, &[b"x"]);
        drop(handle);
        assert!(!poll(&mut instance), "in-flight methods still finish");
        pusher.finish();
        assert!(poll(&mut instance));
        done.try_recv().unwrap().unwrap();
    }

    /// A read that fails `Closed` after writing `head`, or walks into a
    /// gone reader with `head` and then a second chunk.
    struct ClosedRead {
        own_error: bool,
    }

    impl Action for ClosedRead {
        fn on_read<'a>(
            &'a self,
            output: &'a mut ActionOutputStream,
            _ctx: &'a ActionContext,
        ) -> BoxFuture<'a, GliderResult<()>> {
            Box::pin(async move {
                output.write(Bytes::from_static(b"head")).await?;
                if self.own_error {
                    // A store stream of the method's own, closed under it.
                    return Err(GliderError::closed("store stream"));
                }
                output.write(Bytes::from_static(b"more")).await
            })
        }
    }

    fn read_into(
        instance: &mut Instance,
        handle: &InstanceHandle,
    ) -> (Receiver<Bytes>, Receiver<GliderResult<()>>) {
        let (output, rx) = ActionOutputStream::new(1);
        let (done, done_rx) = reply();
        ready(handle.enqueue(Invocation::Read { output, done })).unwrap();
        poll(instance);
        (rx, done_rx)
    }

    #[test]
    fn a_reader_that_walks_away_is_not_an_action_failure() {
        let (mut instance, handle, _created) =
            start(Arc::new(ClosedRead { own_error: false }), false, None);
        let (rx, mut done) = read_into(&mut instance, &handle);
        assert!(done.try_recv().is_err(), "blocked on the full output");
        drop(rx);
        poll(&mut instance);
        done.try_recv().unwrap().unwrap();
    }

    #[test]
    fn a_store_error_closed_reaches_an_attached_reader() {
        let (mut instance, handle, _created) =
            start(Arc::new(ClosedRead { own_error: true }), false, None);
        let (mut rx, mut done) = read_into(&mut instance, &handle);
        assert_eq!(&rx.try_recv().unwrap()[..], b"head");
        let err = done.try_recv().unwrap().unwrap_err();
        assert_eq!(err.code(), ErrorCode::Closed);
        assert!(err.message().contains("store stream"), "{err}");
    }

    #[test]
    fn the_stop_hook_runs_before_the_delete_is_answered_and_on_drop() {
        let stopped = Arc::new(AtomicBool::new(false));
        let hook = |flag: &Arc<AtomicBool>| -> Box<dyn FnOnce() + Send> {
            let flag = Arc::clone(flag);
            Box::new(move || flag.store(true, Ordering::SeqCst))
        };
        let (mut instance, handle, _created) = start(Arc::new(Counter::default()), false, None);
        instance.on_stop(hook(&stopped));
        assert_eq!(instance.node_id(), NodeId(1));
        let mut done = delete(&handle);
        poll(&mut instance);
        assert!(stopped.load(Ordering::SeqCst));
        done.try_recv().unwrap().unwrap();

        let metrics = MetricsRegistry::new();
        let dropped = Arc::new(AtomicBool::new(false));
        let (mut instance, handle, _created) = start(
            Arc::new(Counter::default()),
            false,
            Some(Arc::clone(&metrics)),
        );
        instance.on_stop(hook(&dropped));
        poll(&mut instance);
        let (_pusher, mut stranded) = write(&handle, &[b"x"]);
        drop(instance);
        assert!(dropped.load(Ordering::SeqCst), "dropped unfinished");
        assert_eq!(
            stranded.try_recv().unwrap().unwrap_err().code(),
            ErrorCode::Closed
        );
        let s = metrics.snapshot();
        assert_eq!(
            (s.current(Signal::ActionInstances), s.current(Signal::Queue)),
            (0, 0)
        );
    }
}
