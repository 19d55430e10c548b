//! One bounded async channel on `std::sync::Mutex` and `Waker`.
//!
//! Every queue of the instance path is this channel: the mailbox, each
//! stream's chunk queue, and each reply (a channel of capacity one). It
//! needs no runtime: a blocked [`Sender::send`] or [`Receiver::recv`]
//! parks its task's `Waker`, and the other side wakes it.
//!
//! - **Bounded.** At most `capacity` values wait. [`Sender::try_send`]
//!   refuses a value it cannot queue and hands it back.
//! - **Closing.** The channel closes when the receiver drops or calls
//!   [`Receiver::close`], which hands back what was still queued, so the
//!   receiver can answer it. A send after that fails with the value. The
//!   receiver sees the end (`None`) once every sender has dropped and the
//!   queue is empty.
//! - **Shared receivers.** A receiver behind a lock may be polled by
//!   several tasks (two fetchers of one read stream): each parks its own
//!   waker, and a send or the last sender's drop wakes them all.

use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::task::{Context, Poll, Waker};

/// Creates a channel holding at most `capacity` values (at least one).
pub fn channel<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            capacity: capacity.max(1),
            senders: 1,
            closed: false,
            receivers: Vec::new(),
            blocked: Vec::new(),
        }),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

struct Shared<T> {
    state: Mutex<State<T>>,
}

struct State<T> {
    queue: VecDeque<T>,
    capacity: usize,
    /// Live [`Sender`] handles; the receiver sees the end at zero.
    senders: usize,
    /// The receiver dropped or closed: every send fails.
    closed: bool,
    /// Tasks parked on an empty queue through the receiver.
    receivers: Vec<Waker>,
    /// Senders' tasks, parked on a full queue.
    blocked: Vec<Waker>,
}

impl<T> Shared<T> {
    /// No code runs user callbacks under this lock, so a poisoned lock
    /// still holds a consistent queue.
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T> State<T> {
    fn room(&self) -> usize {
        self.capacity.saturating_sub(self.queue.len())
    }
}

/// Parks `waker` in `parked` unless it is there already.
fn park(parked: &mut Vec<Waker>, waker: &Waker) {
    if !parked.iter().any(|w| w.will_wake(waker)) {
        parked.push(waker.clone());
    }
}

/// Why [`Sender::try_send`] handed its value back.
#[derive(Debug, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The queue is full; the value may be sent later.
    Full(T),
    /// The receiver is gone; the value can never be delivered.
    Closed(T),
}

/// Why [`Receiver::try_recv`] returned nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// Nothing is queued, and a sender may still send.
    Empty,
    /// Nothing is queued, and every sender has dropped.
    Disconnected,
}

/// The sending half. Cloning adds a sender; the receiver sees the end
/// when the last one drops.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Sender<T> {
    /// Queues `value` if there is room, waking the receiver.
    ///
    /// # Errors
    ///
    /// Hands `value` back as [`TrySendError::Full`] or
    /// [`TrySendError::Closed`].
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        self.offer(value, None)
    }

    /// Queues `value` if there is room; on a full queue parks `park_on_full`
    /// under the same lock, so no receive slips past it.
    fn offer(&self, value: T, park_on_full: Option<&Waker>) -> Result<(), TrySendError<T>> {
        let mut state = self.shared.lock();
        if state.closed {
            return Err(TrySendError::Closed(value));
        }
        if state.room() == 0 {
            if let Some(waker) = park_on_full {
                park(&mut state.blocked, waker);
            }
            return Err(TrySendError::Full(value));
        }
        state.queue.push_back(value);
        let receivers = std::mem::take(&mut state.receivers);
        drop(state);
        receivers.into_iter().for_each(Waker::wake);
        Ok(())
    }

    /// Queues `value`, waiting while the queue is full. The future's
    /// output is `Err(value)` when the receiver is gone.
    pub fn send(&self, value: T) -> Send<'_, T> {
        Send {
            sender: self,
            value: Some(value),
        }
    }

    /// Values queued now.
    pub fn len(&self) -> usize {
        self.shared.lock().queue.len()
    }

    /// Whether nothing is queued now.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the receiver is gone: every later send fails.
    pub fn is_closed(&self) -> bool {
        self.shared.lock().closed
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.lock().senders += 1;
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.shared.lock();
        state.senders -= 1;
        let receivers = if state.senders == 0 {
            std::mem::take(&mut state.receivers)
        } else {
            Vec::new()
        };
        drop(state);
        receivers.into_iter().for_each(Waker::wake);
    }
}

impl<T> std::fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.shared.lock();
        f.debug_struct("Sender")
            .field("queued", &state.queue.len())
            .field("capacity", &state.capacity)
            .field("closed", &state.closed)
            .finish()
    }
}

/// The future of [`Sender::send`].
#[must_use = "a send does nothing unless polled"]
pub struct Send<'a, T> {
    sender: &'a Sender<T>,
    value: Option<T>,
}

// The value is moved in and out, never pinned in place.
impl<T> Unpin for Send<'_, T> {}

impl<T> Future for Send<'_, T> {
    type Output = Result<(), T>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let Some(value) = self.value.take() else {
            return Poll::Ready(Ok(()));
        };
        match self.sender.offer(value, Some(cx.waker())) {
            Ok(()) => Poll::Ready(Ok(())),
            Err(TrySendError::Closed(value)) => Poll::Ready(Err(value)),
            Err(TrySendError::Full(value)) => {
                self.value = Some(value);
                Poll::Pending
            }
        }
    }
}

/// The receiving half.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Receiver<T> {
    /// Takes the next value, waiting while the queue is empty. `None`
    /// once every sender has dropped (or the channel was closed) and the
    /// queue is empty.
    pub fn recv(&mut self) -> Recv<'_, T> {
        Recv { receiver: self }
    }

    /// [`Receiver::recv`] as a poll, for a hand-written future.
    pub fn poll_recv(&mut self, cx: &mut Context<'_>) -> Poll<Option<T>> {
        match self.take(Some(cx.waker())) {
            Ok(value) => Poll::Ready(Some(value)),
            Err(TryRecvError::Disconnected) => Poll::Ready(None),
            Err(TryRecvError::Empty) => Poll::Pending,
        }
    }

    /// Takes the next value if one is queued.
    ///
    /// # Errors
    ///
    /// [`TryRecvError::Empty`] or [`TryRecvError::Disconnected`].
    pub fn try_recv(&mut self) -> Result<T, TryRecvError> {
        self.take(None)
    }

    /// Pops the next value, waking blocked senders; on an empty, open
    /// queue parks `park_on_empty` beside any other parked waker, under
    /// the same lock, so no send slips past it.
    fn take(&self, park_on_empty: Option<&Waker>) -> Result<T, TryRecvError> {
        let mut state = self.shared.lock();
        if let Some(value) = state.queue.pop_front() {
            let blocked = std::mem::take(&mut state.blocked);
            drop(state);
            blocked.into_iter().for_each(Waker::wake);
            return Ok(value);
        }
        if state.senders == 0 || state.closed {
            return Err(TryRecvError::Disconnected);
        }
        if let Some(waker) = park_on_empty {
            park(&mut state.receivers, waker);
        }
        Err(TryRecvError::Empty)
    }

    /// Values queued now.
    pub fn len(&self) -> usize {
        self.shared.lock().queue.len()
    }

    /// Whether nothing is queued now.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Refuses every later send and hands back what was still queued, in
    /// order. Blocked senders wake to find the channel closed.
    pub fn close(&mut self) -> Vec<T> {
        let mut state = self.shared.lock();
        state.closed = true;
        let queued: Vec<T> = state.queue.drain(..).collect();
        let blocked = std::mem::take(&mut state.blocked);
        drop(state);
        blocked.into_iter().for_each(Waker::wake);
        queued
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        // Dropped outside the lock: a queued value may own another
        // channel's sender.
        drop(self.close());
    }
}

impl<T> std::fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.shared.lock();
        f.debug_struct("Receiver")
            .field("queued", &state.queue.len())
            .field("capacity", &state.capacity)
            .field("senders", &state.senders)
            .finish()
    }
}

/// The future of [`Receiver::recv`].
#[must_use = "a receive does nothing unless polled"]
pub struct Recv<'a, T> {
    receiver: &'a mut Receiver<T>,
}

impl<T> Future for Recv<'_, T> {
    type Output = Option<T>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Option<T>> {
        self.receiver.poll_recv(cx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glider_sim::{TaskWaker, Wakes};

    /// A task's waker and the count of its wakes.
    fn counter() -> (Wakes, TaskWaker) {
        let wakes = Wakes::default();
        let task = wakes.task();
        (wakes, task)
    }

    #[test]
    fn values_arrive_in_order_and_the_end_follows_the_last_sender() {
        let (tx, mut rx) = channel(4);
        let tx2 = tx.clone();
        tx.try_send(1).unwrap();
        tx2.try_send(2).unwrap();
        assert_eq!((tx.len(), rx.len()), (2, 2));
        drop(tx);
        assert_eq!(rx.try_recv(), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(tx2);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn try_send_refuses_when_full_and_hands_the_value_back() {
        let (tx, mut rx) = channel(1);
        tx.try_send("a").unwrap();
        assert_eq!(tx.try_send("b"), Err(TrySendError::Full("b")));
        assert_eq!(rx.try_recv(), Ok("a"));
        tx.try_send("b").unwrap();
        drop(rx);
        assert_eq!(tx.try_send("c"), Err(TrySendError::Closed("c")));
    }

    #[test]
    fn a_blocked_send_is_woken_by_a_receive_and_then_completes() {
        let (tx, mut rx) = channel(1);
        tx.try_send(1).unwrap();
        let (count, waker) = counter();
        let mut cx = Context::from_waker(waker.waker());
        let mut send = tx.send(2);
        assert!(Pin::new(&mut send).poll(&mut cx).is_pending());
        assert!(Pin::new(&mut send).poll(&mut cx).is_pending());
        assert_eq!(count.count(), 0);
        assert_eq!(rx.try_recv(), Ok(1));
        assert_eq!(count.count(), 1, "one parked waker, woken once");
        assert_eq!(Pin::new(&mut send).poll(&mut cx), Poll::Ready(Ok(())));
        assert_eq!(rx.try_recv(), Ok(2));
    }

    #[test]
    fn a_blocked_send_fails_with_its_value_when_the_receiver_closes() {
        let (tx, mut rx) = channel(1);
        tx.try_send(1).unwrap();
        let (count, waker) = counter();
        let mut cx = Context::from_waker(waker.waker());
        let mut send = tx.send(2);
        assert!(Pin::new(&mut send).poll(&mut cx).is_pending());
        assert_eq!(rx.close(), vec![1]);
        assert_eq!(count.count(), 1);
        assert_eq!(Pin::new(&mut send).poll(&mut cx), Poll::Ready(Err(2)));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn a_parked_receiver_is_woken_by_a_send_and_by_the_last_drop() {
        let (tx, mut rx) = channel::<u8>(2);
        let (count, waker) = counter();
        let mut cx = Context::from_waker(waker.waker());
        assert!(rx.poll_recv(&mut cx).is_pending());
        tx.try_send(7).unwrap();
        assert_eq!(count.count(), 1);
        assert_eq!(rx.poll_recv(&mut cx), Poll::Ready(Some(7)));
        assert!(rx.poll_recv(&mut cx).is_pending());
        let tx2 = tx.clone();
        drop(tx);
        assert_eq!(count.count(), 1, "a sender remains");
        drop(tx2);
        assert_eq!(count.count(), 2);
        assert_eq!(rx.poll_recv(&mut cx), Poll::Ready(None));
    }

    #[test]
    fn every_task_parked_on_a_shared_receiver_is_woken() {
        let (tx, mut rx) = channel::<u8>(2);
        let (first, first_waker) = counter();
        let (second, second_waker) = counter();
        assert!(rx
            .poll_recv(&mut Context::from_waker(first_waker.waker()))
            .is_pending());
        assert!(rx
            .poll_recv(&mut Context::from_waker(second_waker.waker()))
            .is_pending());
        tx.try_send(1).unwrap();
        assert_eq!((first.count(), second.count()), (1, 1));
        assert_eq!(rx.try_recv(), Ok(1));
        assert!(rx
            .poll_recv(&mut Context::from_waker(first_waker.waker()))
            .is_pending());
        assert!(!tx.is_closed());
        drop(tx);
        assert_eq!((first.count(), second.count()), (2, 1));
    }

    #[test]
    fn dropping_the_receiver_drops_what_was_queued() {
        let (tx, rx) = channel(2);
        let (inner_tx, mut inner_rx) = channel::<()>(1);
        tx.try_send(inner_tx).unwrap();
        drop(rx);
        assert_eq!(inner_rx.try_recv(), Err(TryRecvError::Disconnected));
        assert!(tx.is_closed());
        assert!(format!("{tx:?}").contains("closed: true"));
    }
}
