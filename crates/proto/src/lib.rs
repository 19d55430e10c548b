//! Wire protocol for the Glider reproduction.
//!
//! Glider (like Apache Crail / NodeKernel, which it extends) splits its RPC
//! surface into a *metadata plane* (namespace structure, block allocation,
//! server registry) and a *data plane* (block reads/writes against data
//! servers, action streams against active servers). This crate defines:
//!
//! - a compact hand-rolled binary codec ([`codec`]),
//! - the shared id/enum vocabulary ([`types`]),
//! - the request/response messages of both planes ([`message`]), each an
//!   op table ([`op`]) that also carries every request's retry, deadline,
//!   latency and WAL class,
//! - length-prefixed framing with out-of-band bulk payloads ([`frame`]),
//! - the connection protocol as plain data — request ids, credit windows,
//!   the handshake and write batching ([`session`]) — and the retry
//!   decision: deadlines, the budget and jittered backoff ([`retry`]),
//! - the workspace-wide error type ([`error::GliderError`]).
//!
//! The codec is deliberately dependency-free (no serde): the protocol is an
//! artifact of the system being reproduced and is kept explicit.
//!
//! Bulk `Bytes` payloads (`WriteBlock`, `StreamChunk`, `Data`) are framed
//! *out-of-band*: headers carry only the payload length and transports
//! send the payload as its own I/O slice
//! ([`frame::encode_frame_header_tagged`]),
//! so the hot data path never copies payload bytes into an encode buffer
//! and decodes them as zero-copy slices of the receive buffer.
//!
//! # Examples
//!
//! ```
//! use glider_proto::message::{Request, RequestBody};
//! use glider_proto::frame::{encode_frame, decode_frame, Frame};
//! use bytes::BytesMut;
//!
//! let req = Request {
//!     id: 7,
//!     trace_id: 0,
//!     body: RequestBody::LookupNode { path: "/tmp/x".into() },
//! };
//! let mut buf = BytesMut::new();
//! encode_frame(&Frame::Request(req.clone()), &mut buf);
//! let decoded = decode_frame(&mut buf).unwrap().unwrap();
//! assert_eq!(decoded, Frame::Request(req));
//! ```

pub mod batch;
pub mod codec;
pub mod dump;
pub mod error;
pub mod frame;
pub mod message;
pub mod op;
// Both run on every connection of both planes: errors, never abort.
#[cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )
)]
pub mod retry;
#[cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )
)]
pub mod session;
pub mod stats;
pub mod types;

pub use error::{ErrorCode, GliderError, GliderResult};
