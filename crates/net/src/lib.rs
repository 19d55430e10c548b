//! Network substrate for the Glider reproduction.
//!
//! Two transports carry the framed protocol of `glider-proto`:
//!
//! - **TCP** (`"host:port"` addresses) — the normal cluster fabric. The
//!   paper's testbed reaches ~45 Gbps over TCP; we run over loopback.
//! - **`mem://` endpoints** — an in-process, zero-copy channel transport
//!   that models the paper's RDMA-enabled fast path ("Glider (RDMA)" in
//!   Table 2). Frames move as `Bytes` handles without serialization or
//!   syscalls. It is intended for storage-tier components, mirroring the
//!   paper's point that the high-performance network is *unavailable to
//!   serverless workers*.
//!
//! On top sits a small multiplexing RPC layer ([`rpc`]): a client may keep
//! many requests in flight (the paper's "asynchronous operations done in
//! batches to always keep data transfers in flight"), and the server spawns
//! one task per request so long-blocking operations (action stream fetches)
//! do not stall the connection.
//!
//! All servers meter bulk payload bytes into a
//! [`glider_metrics::MetricsRegistry`], tagged with the tier the peer
//! declared in its `Hello` handshake.

pub mod conn;
pub mod fault;
pub mod pool;
pub mod rpc;
pub mod stats;

pub use conn::{bind, connect, BoundListener, FrameRx, FrameTx, TaggedFrame};
pub use fault::{clear_faults, inject_faults, FaultConfig};
/// Deadlines, retry budgets and jittered backoff, beside the session in
/// `glider-proto`.
pub use glider_proto::retry;
pub use pool::BytesPool;
pub use retry::{JitterRng, RetryPolicy};
pub use rpc::{serve, ConnCtx, RpcClient, RpcHandler, RpcStream, ServerHandle};
pub use stats::{
    build_series, build_span_dump, build_stats, render_series, render_stats_json,
    render_stats_prom, render_stats_table, render_trace_tree,
};
