//! The [`Action`] trait and its execution context.

use crate::stream::{ActionInputStream, ActionOutputStream};
use bytes::Bytes;
use glider_proto::types::NodeId;
use glider_proto::{ErrorCode, GliderError, GliderResult};
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A boxed, `Send` future borrowing for `'a`: what every object-safe
/// method here returns.
pub type BoxFuture<'a, T> = Pin<Box<dyn Future<Output = T> + Send + 'a>>;

/// A chunked byte reader over another storage node (object-safe).
pub trait ByteStream: Send {
    /// Returns the next chunk, or `None` at end of data.
    fn next_chunk(&mut self) -> BoxFuture<'_, GliderResult<Option<Bytes>>>;
}

/// A chunked byte writer into another storage node (object-safe).
pub trait ByteSink: Send {
    /// Appends one chunk.
    fn write(&mut self, data: Bytes) -> BoxFuture<'_, GliderResult<()>>;
    /// Flushes and finalizes the target node.
    fn close(&mut self) -> BoxFuture<'_, GliderResult<()>>;
}

/// Store operations available to actions from inside the storage cluster.
///
/// The paper gives every action object "a store client, by default, to
/// access other storage nodes, including other actions, and construct data
/// processing patterns within the ephemeral store" (§6.2). This trait is
/// that client, reduced to an object-safe surface; the concrete
/// implementation lives in `glider-client` and is injected by the active
/// server. Traffic through it is intra-storage and does not count against
/// the compute/storage boundary.
pub trait StoreAccess: Send + Sync {
    /// Creates a file node and opens a chunked writer to it.
    fn create_file<'a>(&'a self, path: &'a str) -> BoxFuture<'a, GliderResult<Box<dyn ByteSink>>>;
    /// Opens a chunked reader over an existing file node.
    fn open_read<'a>(&'a self, path: &'a str) -> BoxFuture<'a, GliderResult<Box<dyn ByteStream>>>;
    /// Opens a chunked reader over `[offset, offset+len)` of a file node
    /// (range reads power near-data shuffle operators).
    fn open_read_range<'a>(
        &'a self,
        path: &'a str,
        offset: u64,
        len: u64,
    ) -> BoxFuture<'a, GliderResult<Box<dyn ByteStream>>>;
    /// Reads a whole node into memory (small data only).
    fn read_all<'a>(&'a self, path: &'a str) -> BoxFuture<'a, GliderResult<Bytes>>;
    /// Deletes a node.
    fn delete<'a>(&'a self, path: &'a str) -> BoxFuture<'a, GliderResult<()>>;
    /// Lists child names of a container node.
    fn list<'a>(&'a self, path: &'a str) -> BoxFuture<'a, GliderResult<Vec<String>>>;
    /// Opens a write stream to another *action* node (for reduction trees).
    fn open_action_write<'a>(
        &'a self,
        path: &'a str,
    ) -> BoxFuture<'a, GliderResult<Box<dyn ByteSink>>>;
    /// Opens a read stream from another *action* node.
    fn open_action_read<'a>(
        &'a self,
        path: &'a str,
    ) -> BoxFuture<'a, GliderResult<Box<dyn ByteStream>>>;
}

/// Everything an action method can see about its environment.
#[derive(Clone)]
pub struct ActionContext {
    /// The node this action object lives in.
    pub node_id: NodeId,
    /// Whether interleaving was requested at creation.
    pub interleaved: bool,
    store: Option<Arc<dyn StoreAccess>>,
}

impl ActionContext {
    /// Builds a context (used by the server and by unit tests).
    pub fn new(node_id: NodeId, interleaved: bool, store: Option<Arc<dyn StoreAccess>>) -> Self {
        ActionContext {
            node_id,
            interleaved,
            store,
        }
    }

    /// The store client for reaching other storage nodes.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorCode::Unsupported`] when the hosting server provided
    /// no store access (e.g. bare instance tests).
    pub fn store(&self) -> GliderResult<&Arc<dyn StoreAccess>> {
        self.store.as_ref().ok_or_else(|| {
            GliderError::new(
                ErrorCode::Unsupported,
                "no store access configured for this action",
            )
        })
    }
}

impl std::fmt::Debug for ActionContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActionContext")
            .field("node_id", &self.node_id)
            .field("interleaved", &self.interleaved)
            .field("has_store", &self.store.is_some())
            .finish()
    }
}

/// User-defined stateful near-data computation (the paper's *Action
/// Object*, Table 1).
///
/// All four methods are optional, mirroring the paper's interface:
///
/// - [`Action::on_create`] / [`Action::on_delete`] run when the action
///   object is instantiated into / removed from its node; defaults do
///   nothing.
/// - [`Action::on_write`] runs once per write stream opened on the action;
///   the default drains and discards the input.
/// - [`Action::on_read`] runs once per read stream; the default produces
///   an empty stream.
///
/// Methods take `&self`: exclusive execution is guaranteed by the
/// [`crate::Instance`] (one future per instance, one method at a time
/// unless interleaving is on), not by `&mut`.
/// Keep state in [`ActionCell`] fields — uncontended by construction, and
/// consistent between await points under interleaving.
///
/// # Examples
///
/// The paper's Listing 1 merge action, in Rust:
///
/// ```
/// use glider_instance::{Action, ActionCell, ActionContext, BoxFuture};
/// use glider_instance::stream::{ActionInputStream, ActionOutputStream, LineReader};
/// use std::collections::HashMap;
///
/// #[derive(Default)]
/// struct MergeAction {
///     result: ActionCell<HashMap<u64, i64>>,
/// }
///
/// impl Action for MergeAction {
///     fn on_write<'a>(
///         &'a self,
///         input: &'a mut ActionInputStream,
///         _ctx: &'a ActionContext,
///     ) -> BoxFuture<'a, glider_proto::GliderResult<()>> {
///         Box::pin(async move {
///             let mut lines = LineReader::new(input);
///             while let Some(line) = lines.next_line().await? {
///                 if let Some((k, v)) = line.split_once(',') {
///                     let (k, v): (u64, i64) = (k.parse().unwrap_or(0), v.parse().unwrap_or(0));
///                     self.result.with(|m| *m.entry(k).or_insert(0) += v);
///                 }
///             }
///             Ok(())
///         })
///     }
///
///     fn on_read<'a>(
///         &'a self,
///         output: &'a mut ActionOutputStream,
///         _ctx: &'a ActionContext,
///     ) -> BoxFuture<'a, glider_proto::GliderResult<()>> {
///         Box::pin(async move {
///             let mut entries: Vec<(u64, i64)> =
///                 self.result.with(|m| m.iter().map(|(k, v)| (*k, *v)).collect());
///             entries.sort_unstable();
///             for (k, v) in entries {
///                 output.write_all(format!("{k},{v}\n").as_bytes()).await?;
///             }
///             Ok(())
///         })
///     }
/// }
/// ```
pub trait Action: Send + Sync + 'static {
    /// Runs when the action object is instantiated into its node.
    fn on_create<'a>(&'a self, ctx: &'a ActionContext) -> BoxFuture<'a, GliderResult<()>> {
        let _ = ctx;
        Box::pin(async { Ok(()) })
    }

    /// Runs when the action object is removed from its node.
    fn on_delete<'a>(&'a self, ctx: &'a ActionContext) -> BoxFuture<'a, GliderResult<()>> {
        let _ = ctx;
        Box::pin(async { Ok(()) })
    }

    /// Runs once per write stream; consume the client's data from `input`.
    ///
    /// The default implementation drains and discards the stream.
    ///
    /// # Errors
    ///
    /// An error fails the client's close with
    /// [`ErrorCode::ActionFailed`].
    fn on_write<'a>(
        &'a self,
        input: &'a mut ActionInputStream,
        ctx: &'a ActionContext,
    ) -> BoxFuture<'a, GliderResult<()>> {
        let _ = ctx;
        Box::pin(async move {
            while input.next_chunk().await?.is_some() {}
            Ok(())
        })
    }

    /// Runs once per read stream; produce the client's data into `output`.
    ///
    /// The default implementation produces an empty stream.
    ///
    /// # Errors
    ///
    /// An error fails the client's pending fetch with
    /// [`ErrorCode::ActionFailed`].
    fn on_read<'a>(
        &'a self,
        output: &'a mut ActionOutputStream,
        ctx: &'a ActionContext,
    ) -> BoxFuture<'a, GliderResult<()>> {
        let _ = (output, ctx);
        Box::pin(async { Ok(()) })
    }

    /// An estimate of the bytes of state this action currently holds,
    /// sampled by the instance after every method for the storage-
    /// utilization indicator (§7.1: actions "only store the aggregated
    /// data"). The default reports no state.
    fn state_size(&self) -> u64 {
        0
    }
}

/// Interior-mutable state holder for action fields.
///
/// Actions keep state in `ActionCell`s because methods take `&self` (see
/// [`Action`]). The cell is a thin `std::sync::Mutex` wrapper: the
/// instance's exclusivity guarantee means the lock is uncontended; it
/// exists to satisfy the borrow checker, not to synchronize. The guard
/// never leaves the cell's methods, so it cannot be held across an
/// `.await`. A method that panics inside [`ActionCell::with`] fails only
/// its own invocation; the cell ignores the lock's poison and later
/// methods see the value as the panic left it.
///
/// # Examples
///
/// ```
/// use glider_instance::ActionCell;
///
/// let counter: ActionCell<u64> = ActionCell::default();
/// counter.with(|c| *c += 10);
/// assert_eq!(counter.get(), 10);
/// ```
#[derive(Debug, Default)]
pub struct ActionCell<T>(Mutex<T>);

impl<T> ActionCell<T> {
    /// Wraps an initial value.
    pub fn new(value: T) -> Self {
        ActionCell(Mutex::new(value))
    }

    fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `f` with exclusive access to the value.
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        f(&mut self.lock())
    }

    /// Replaces the value, returning the old one.
    pub fn replace(&self, value: T) -> T {
        std::mem::replace(&mut self.lock(), value)
    }

    /// Consumes the cell, returning the value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Clone> ActionCell<T> {
    /// Returns a clone of the value.
    pub fn get(&self) -> T {
        self.lock().clone()
    }
}

impl<T: Default> ActionCell<T> {
    /// Takes the value, leaving the default in its place.
    pub fn take(&self) -> T {
        std::mem::take(&mut self.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ready;

    #[test]
    fn action_cell_basics() {
        let cell = ActionCell::new(vec![1, 2]);
        cell.with(|v| v.push(3));
        assert_eq!(cell.get(), vec![1, 2, 3]);
        assert_eq!(cell.replace(vec![9]), vec![1, 2, 3]);
        assert_eq!(cell.take(), vec![9]);
        assert_eq!(cell.get(), Vec::<i32>::new());
        assert_eq!(cell.into_inner(), Vec::<i32>::new());
    }

    #[test]
    fn action_cell_survives_a_panic_inside_with() {
        let cell = ActionCell::new(1);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cell.with(|v| {
                *v = 2;
                panic!("user code exploded");
            })
        }));
        assert!(panicked.is_err());
        assert_eq!(cell.get(), 2, "the value as the panic left it");
        cell.with(|v| *v += 1);
        assert_eq!(cell.into_inner(), 3);
    }

    #[test]
    fn context_without_store_reports_unsupported() {
        let ctx = ActionContext::new(NodeId(1), false, None);
        let err = match ctx.store() {
            Err(e) => e,
            Ok(_) => panic!("expected missing store"),
        };
        assert_eq!(err.code(), ErrorCode::Unsupported);
        assert!(format!("{ctx:?}").contains("has_store: false"));
    }

    struct Noop;
    impl Action for Noop {}

    #[test]
    fn default_methods_are_benign() {
        let a = Noop;
        let ctx = ActionContext::new(NodeId(1), false, None);
        ready(a.on_create(&ctx)).unwrap();
        ready(a.on_delete(&ctx)).unwrap();
        assert_eq!(a.state_size(), 0);
        // Default on_write drains a stream to EOF.
        let (mut input, pusher) = ActionInputStream::new(8);
        ready(pusher.push(0, Bytes::from_static(b"ignored"))).unwrap();
        pusher.finish();
        ready(a.on_write(&mut input, &ctx)).unwrap();
        assert!(ready(input.next_chunk()).unwrap().is_none());
        // Default on_read produces nothing.
        let (mut output, mut taker) = ActionOutputStream::new(8);
        ready(a.on_read(&mut output, &ctx)).unwrap();
        drop(output);
        assert!(ready(taker.recv()).is_none());
    }
}
