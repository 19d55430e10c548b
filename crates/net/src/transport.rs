//! The pluggable transport registry.
//!
//! A [`Transport`] turns addresses into framed connections: `dial` opens
//! the client side, `bind` the server side, both speaking the
//! [`FrameTx`]/[`FrameRx`] interface from [`crate::conn`]. Scheme
//! dispatch is data-driven — [`TRANSPORTS`] lists every implementation
//! and [`transport_for`] picks by address — so an RDMA-sim or io_uring
//! backend is one new impl plus one registry entry, with no call-site
//! changes. `cargo xtask check` checks that every `impl Transport` in
//! this crate appears in the registry initializer.
//!
//! Fault injection deliberately lives *outside* the transports, as a
//! wrapper on the connection halves (see [`crate::conn`] and
//! [`crate::fault`]), so chaos tests exercise whichever backend carries
//! the traffic.

use crate::conn::{self, BoundListener, FrameRx, FrameTx, MEM_LABEL, MEM_SCHEME, TCP_LABEL};
use futures::future::BoxFuture;
use futures::FutureExt;
use glider_proto::{GliderError, GliderResult};
use std::fmt;

/// A connection-oriented transport: one way of turning an address into a
/// framed, bidirectional byte stream.
///
/// Implementations are stateless unit structs registered in
/// [`TRANSPORTS`]; per-connection state lives in the returned halves.
pub trait Transport: Send + Sync + fmt::Debug {
    /// Stable scheme label (metrics, diagnostics): `"tcp"`, `"mem"`, …
    fn scheme(&self) -> &'static str;

    /// Whether this transport claims `addr`. The registry is scanned in
    /// order, so claims should be prefix-exact (TCP, the schemeless
    /// fallback, is last).
    fn matches(&self, addr: &str) -> bool;

    /// Opens the client side of a connection to `addr`.
    fn dial<'a>(&'a self, addr: &'a str) -> BoxFuture<'a, GliderResult<(FrameTx, FrameRx)>>;

    /// Binds a listener at `addr`.
    fn bind<'a>(&'a self, addr: &'a str) -> BoxFuture<'a, GliderResult<BoundListener>>;
}

/// The in-process `mem://` transport (RDMA simulation): bounded channels
/// with a process-global name registry.
#[derive(Debug)]
pub struct MemTransport;

impl Transport for MemTransport {
    fn scheme(&self) -> &'static str {
        MEM_LABEL
    }

    fn matches(&self, addr: &str) -> bool {
        addr.starts_with(MEM_SCHEME)
    }

    fn dial<'a>(&'a self, addr: &'a str) -> BoxFuture<'a, GliderResult<(FrameTx, FrameRx)>> {
        conn::dial_mem(addr).boxed()
    }

    fn bind<'a>(&'a self, addr: &'a str) -> BoxFuture<'a, GliderResult<BoundListener>> {
        conn::bind_mem(addr).boxed()
    }
}

/// The TCP transport. Claims every schemeless `host:port` address, so it
/// must stay last in [`TRANSPORTS`].
#[derive(Debug)]
pub struct TcpTransport;

impl Transport for TcpTransport {
    fn scheme(&self) -> &'static str {
        TCP_LABEL
    }

    fn matches(&self, addr: &str) -> bool {
        !addr.contains("://")
    }

    fn dial<'a>(&'a self, addr: &'a str) -> BoxFuture<'a, GliderResult<(FrameTx, FrameRx)>> {
        conn::dial_tcp(addr).boxed()
    }

    fn bind<'a>(&'a self, addr: &'a str) -> BoxFuture<'a, GliderResult<BoundListener>> {
        conn::bind_tcp(addr).boxed()
    }
}

/// Every registered transport, in claim order. `cargo xtask check`
/// cross-checks this list against the `impl Transport` blocks in the
/// crate, so adding a backend without registering it fails the build.
pub static TRANSPORTS: [&'static dyn Transport; 2] = [&MemTransport, &TcpTransport];

/// Resolves the transport claiming `addr`.
///
/// # Errors
///
/// Returns an invalid-argument error for an address whose scheme no
/// registered transport claims (e.g. `rdma://…` today).
pub fn transport_for(addr: &str) -> GliderResult<&'static dyn Transport> {
    TRANSPORTS
        .iter()
        .copied()
        .find(|t| t.matches(addr))
        .ok_or_else(|| GliderError::invalid(format!("no transport for address {addr:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_dispatches_by_scheme() {
        assert_eq!(transport_for("mem://x").unwrap().scheme(), MEM_LABEL);
        assert_eq!(transport_for("127.0.0.1:0").unwrap().scheme(), TCP_LABEL);
        assert_eq!(transport_for("node-3:7001").unwrap().scheme(), TCP_LABEL);
        assert!(transport_for("rdma://x").is_err());
        assert!(transport_for("iouring://x").is_err());
    }

    #[test]
    fn tcp_is_the_schemeless_fallback_and_stays_last() {
        let last = TRANSPORTS[TRANSPORTS.len() - 1];
        assert_eq!(last.scheme(), TCP_LABEL);
        // Every non-TCP transport must be scheme-prefixed, otherwise it
        // could shadow the fallback.
        for t in &TRANSPORTS[..TRANSPORTS.len() - 1] {
            assert!(!t.matches("127.0.0.1:0"), "{} claims raw TCP", t.scheme());
        }
    }

    #[tokio::test]
    async fn dial_through_trait_object_round_trips() {
        let t = transport_for("mem://transport-test-1").unwrap();
        let mut listener = t.bind("mem://transport-test-1").await.unwrap();
        let server = tokio::spawn(async move {
            let (mut tx, mut rx) = listener.accept().await.unwrap();
            let frame = rx.recv().await.unwrap().unwrap();
            tx.send(frame).await.unwrap();
        });
        let (mut tx, mut rx) = t.dial("mem://transport-test-1").await.unwrap();
        let frame = glider_proto::frame::Frame::Request(glider_proto::message::Request {
            id: 1,
            trace_id: 0,
            body: glider_proto::message::RequestBody::Stats,
        });
        tx.send(frame.clone()).await.unwrap();
        assert_eq!(rx.recv().await.unwrap().unwrap(), frame);
        server.await.unwrap();
    }
}
