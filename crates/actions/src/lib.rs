//! Storage actions: ephemeral, stateful, near-data computation.
//!
//! This crate is the active server's action runtime (paper §3–§5): it
//! keeps only the [`ActionExecutor`] pool and the spawn
//! ([`runtime::spawner`]). Everything else lives in `glider-instance`,
//! with no async runtime, and is re-exported here under its old paths:
//! the [`Action`] trait (the paper's *Action Object* with its four
//! optional methods, Table 1), the server-side I/O streams actions consume
//! and produce, the [`ActionRegistry`] and the [`builtin`] actions, the
//! [`ActionManager`] that creates, feeds and deletes instances (§5), and
//! the [`glider_instance::Instance`] future that runs one action instance
//! with the paper's concurrency model:
//!
//! - **Single-threaded-like execution** — at any time only one method runs
//!   on a given action. Each instance is one future, polled by one task,
//!   so methods of one action never run in parallel.
//! - **Interleaving** (Orleans-style, §4.2) — when enabled at creation, a
//!   method that is waiting for more stream I/O yields its turn to another
//!   method of the same action. Serial mode is the same admission rule
//!   with a window of one method.
//!
//! The paper decouples action execution from network workers through task
//! queues; here the queues are the bounded channels inside
//! [`stream::ActionInputStream`]/[`stream::ActionOutputStream`], and the
//! "network worker" is the RPC layer of the active server feeding them.
//! The [`exec::ActionExecutor`] completes the split: instance tasks run on
//! a dedicated work-stealing pool sized to the machine's cores, so many
//! instances execute in parallel (each still single-threaded) while the
//! network threads stay responsive.
//!
//! Actions also receive a store client to reach other storage nodes from
//! inside the cluster (§6.2) — abstracted as [`StoreAccess`] so this crate
//! stays independent of the concrete client implementation.

pub mod exec;
pub mod runtime;

pub use exec::ActionExecutor;
pub use glider_instance::{action, builtin, manager, registry, stream};
pub use glider_instance::{
    Action, ActionCell, ActionContext, ActionInputStream, ActionManager, ActionOutputStream,
    ActionRegistry, ByteSink, ByteStream, LineReader, Spawn, StoreAccess,
};
pub use runtime::spawner;
