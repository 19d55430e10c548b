//! The action instance: the paper's core contribution (§3–§5) with no
//! async runtime.
//!
//! - [`Action`] is the paper's *Action Object* with its four optional
//!   methods (Table 1), run with an [`ActionContext`] and keeping state in
//!   [`ActionCell`]s; [`StoreAccess`] is the store client actions reach
//!   other nodes with (§6.2).
//! - [`ActionInputStream`]/[`ActionOutputStream`] are the per-stream task
//!   queues between the network side and a method (§4.2 "Accessing
//!   actions"), and [`LineReader`] is Listing 1's `input.lines()`.
//! - An [`Instance`] is one action instance as one future: whoever polls
//!   it runs the paper's concurrency model. At any time only one method
//!   of an instance runs; with interleaving on, methods take turns at
//!   await points (Orleans-style, §4.2); `on_delete` waits for the
//!   in-flight methods; a panic fails only its own caller.
//!
//! - The [`ActionManager`] is the active server's table of instances,
//!   slots and open streams (§5): it creates, feeds and deletes instances,
//!   and starts each through a [`Spawn`] function its owner passes in.
//!   A node and its slot stay taken until the node's instance has
//!   stopped.
//! - The [`ActionRegistry`] maps deployed action names to factories, and
//!   [`builtin`] holds the actions the paper's evaluation runs: filter
//!   (Table 2), merge (Fig. 5), sorter (Fig. 7), and null, counter and
//!   cache. [`MemStore`] is an in-memory [`StoreAccess`] they run over in
//!   tests.
//!
//! Every queue among them is one bounded [`mod@channel`]: the mailbox, each
//! stream, and each reply (capacity one). None of it needs an async
//! runtime; the server shell (`glider-actions`) spawns each instance on
//! its action pool.

// Runs every action method of the active server: errors, never aborts.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )
)]

pub mod action;
pub mod builtin;
pub mod channel;
pub mod instance;
pub mod manager;
pub mod memstore;
pub mod registry;
pub mod stream;

pub use action::{Action, ActionCell, ActionContext, BoxFuture, ByteSink, ByteStream, StoreAccess};
pub use channel::{channel, Receiver, Sender, TryRecvError, TrySendError};
pub use instance::{reply, Enqueued, Instance, InstanceHandle, Invocation, Reply, MAILBOX_DEPTH};
pub use manager::{ActionManager, Spawn};
pub use memstore::MemStore;
pub use registry::{ActionFactory, ActionRegistry};
pub use stream::{ActionInputStream, ActionOutputStream, InputPusher, LineReader};

/// Polls `future` once; every future a unit test runs this way must be
/// ready without waiting.
#[cfg(test)]
pub(crate) fn ready<F: std::future::Future>(future: F) -> F::Output {
    use std::task::{Context, Poll, Waker};
    match std::pin::pin!(future).poll(&mut Context::from_waker(Waker::noop())) {
        Poll::Ready(output) => output,
        Poll::Pending => panic!("the future waits"),
    }
}
