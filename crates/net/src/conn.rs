//! Framed connections over the registered transports.
//!
//! Addresses are either `host:port` (TCP) or `mem://<name>` (the in-process
//! RDMA-simulation transport; see the [crate docs](crate)). Scheme
//! dispatch lives in [`crate::transport`]: [`bind`] and [`connect`] look
//! the address's transport up in the registry, so new backends (io_uring,
//! RDMA-sim) plug in without touching this module.
//!
//! Every frame travels with a logical *stream tag* (see
//! `glider_proto::frame`): [`FrameTx::send_tagged`] /
//! [`FrameRx::recv_tagged`] expose it, while the untagged [`FrameTx::send`]
//! / [`FrameRx::recv`] operate on the legacy stream 0. Fault injection is
//! a transport-layer wrapper here — the [`FaultConfig`] hooks apply
//! uniformly to whichever transport carries the connection, not to one
//! concrete backend.

use crate::fault::FaultConfig;
use bytes::{Bytes, BytesMut};
use glider_proto::frame::{decode_frame_tagged, encode_frame_header_tagged, Frame, LEGACY_STREAM};
use glider_proto::{ErrorCode, GliderError, GliderResult};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::IoSlice;
use std::ops::Range;
use std::sync::Arc;
use tokio::io::{AsyncReadExt, AsyncWrite, AsyncWriteExt};
use tokio::net::tcp::{OwnedReadHalf, OwnedWriteHalf};
use tokio::net::{TcpListener, TcpStream};
use tokio::sync::mpsc;

/// Scheme prefix selecting the in-memory transport.
pub const MEM_SCHEME: &str = "mem://";

/// Stable scheme label of the TCP transport (metrics, diagnostics).
pub const TCP_LABEL: &str = "tcp";

/// Stable scheme label of the in-memory transport (metrics, diagnostics).
pub const MEM_LABEL: &str = "mem";

/// A frame together with the logical stream it belongs to. Stream
/// [`LEGACY_STREAM`] (0) is un-multiplexed traffic.
pub type TaggedFrame = (u32, Frame);

/// Bounded depth of in-memory connections, providing backpressure roughly
/// equivalent to a TCP send window.
const MEM_CHANNEL_DEPTH: usize = 64;

/// Initial capacity of per-connection encode/receive buffers.
const IO_BUF_INIT: usize = 64 * 1024;

/// A receive buffer whose capacity outgrew this threshold is replaced with
/// a fresh [`IO_BUF_INIT`]-sized one as soon as it drains, so one large
/// frame does not pin its high-water allocation for the connection's
/// lifetime (decoded payloads keep the old allocation alive only as long
/// as the application holds them).
const RECV_BUF_RECLAIM: usize = 256 * 1024;

/// Sending half of a framed connection.
///
/// Fault injection wraps the transport: when a [`FaultConfig`] is
/// attached (the client side of `mem://` connections today), its send
/// faults are applied here before the inner transport sees the frame.
#[derive(Debug)]
pub struct FrameTx {
    pub(crate) inner: TxInner,
    pub(crate) faults: Option<Arc<FaultConfig>>,
}

#[derive(Debug)]
pub(crate) enum TxInner {
    Tcp {
        io: OwnedWriteHalf,
        buf: BytesMut,
        /// Reusable per-batch staging: `(header range into buf, payload)`.
        /// Cleared after every batch so payload refcounts drop promptly;
        /// kept allocated so the steady-state write path performs no
        /// per-batch `Vec` growth.
        parts: Vec<(Range<usize>, Option<Bytes>)>,
    },
    Mem {
        tx: mpsc::Sender<TaggedFrame>,
    },
}

/// Receiving half of a framed connection (see [`FrameTx`] on faults).
#[derive(Debug)]
pub struct FrameRx {
    pub(crate) inner: RxInner,
    pub(crate) faults: Option<Arc<FaultConfig>>,
}

#[derive(Debug)]
pub(crate) enum RxInner {
    Tcp { io: OwnedReadHalf, buf: BytesMut },
    Mem { rx: mpsc::Receiver<TaggedFrame> },
}

/// Outcome of applying send-side faults to one frame.
enum SendFault {
    /// No fault: hand the frame to the transport.
    Deliver,
    /// The frame vanishes without trace (blackhole / drop-next).
    Swallow,
}

/// Applies the send-side fault sequence (sever, injected error, delay,
/// blackhole/drop) shared by every transport.
async fn apply_send_faults(faults: &FaultConfig) -> GliderResult<SendFault> {
    if faults.is_severed() {
        return Err(GliderError::closed("connection (injected sever)"));
    }
    if faults.count_send_and_check_error() {
        return Err(GliderError::new(
            ErrorCode::Io,
            "injected fault: send error",
        ));
    }
    if let Some(delay) = faults.send_delay() {
        tokio::time::sleep(delay).await;
    }
    if faults.is_blackhole() || faults.take_drop_send() {
        return Ok(SendFault::Swallow);
    }
    Ok(SendFault::Deliver)
}

impl FrameTx {
    /// The scheme label of the transport carrying this connection.
    pub fn scheme(&self) -> &'static str {
        match &self.inner {
            TxInner::Tcp { .. } => TCP_LABEL,
            TxInner::Mem { .. } => MEM_LABEL,
        }
    }

    /// Sends one frame on the legacy stream 0.
    ///
    /// On TCP the header and any bulk payload are written as separate I/O
    /// slices in one vectored write — payload bytes are never copied into
    /// a staging buffer.
    ///
    /// # Errors
    ///
    /// Returns an error when the peer has closed the connection or the
    /// underlying I/O fails.
    pub async fn send(&mut self, frame: Frame) -> GliderResult<()> {
        self.send_tagged(LEGACY_STREAM, frame).await
    }

    /// Sends one frame tagged with logical stream `stream`.
    ///
    /// # Errors
    ///
    /// Returns an error when the peer has closed the connection or the
    /// underlying I/O fails.
    pub async fn send_tagged(&mut self, stream: u32, frame: Frame) -> GliderResult<()> {
        if let Some(faults) = self.faults.clone() {
            match apply_send_faults(&faults).await? {
                SendFault::Deliver => {}
                SendFault::Swallow => return Ok(()),
            }
        }
        self.inner.send_raw(stream, frame).await
    }

    /// Sends every frame in `frames` (draining the vector), coalescing the
    /// whole batch into a single vectored write on TCP so a burst of
    /// queued frames costs one syscall instead of one per frame.
    ///
    /// # Errors
    ///
    /// Returns an error when the peer has closed the connection or the
    /// underlying I/O fails; the batch may then be partially transmitted.
    pub async fn send_batch(&mut self, frames: &mut Vec<TaggedFrame>) -> GliderResult<()> {
        if self.faults.is_some() {
            // Faulted connections take the per-frame path so drop/error
            // faults keep their one-frame granularity.
            for (stream, frame) in frames.drain(..) {
                self.send_tagged(stream, frame).await?;
            }
            return Ok(());
        }
        self.inner.send_batch_raw(frames).await
    }
}

// glider: hot-path (frame send: header staging + vectored write)
impl TxInner {
    async fn send_raw(&mut self, stream: u32, frame: Frame) -> GliderResult<()> {
        match self {
            TxInner::Tcp { io, buf, .. } => {
                buf.clear();
                let payload = encode_frame_header_tagged(&frame, stream, buf);
                let header: &[u8] = buf;
                match &payload {
                    Some(p) if !p.is_empty() => {
                        write_all_vectored(io, &[header, p]).await?;
                    }
                    _ => io.write_all(header).await?,
                }
                Ok(())
            }
            TxInner::Mem { tx } => tx
                .send((stream, frame))
                .await
                .map_err(|_| GliderError::closed("connection")),
        }
    }

    async fn send_batch_raw(&mut self, frames: &mut Vec<TaggedFrame>) -> GliderResult<()> {
        match self {
            TxInner::Tcp { io, buf, parts } => {
                buf.clear();
                parts.clear();
                // All headers are staged contiguously in `buf`; payloads
                // ride out-of-band as reference-counted `Bytes`.
                for (stream, frame) in frames.drain(..) {
                    let start = buf.len();
                    let payload = encode_frame_header_tagged(&frame, stream, buf);
                    parts.push((start..buf.len(), payload));
                }
                let mut slices: Vec<&[u8]> = Vec::with_capacity(parts.len() * 2); // glider: alloc-ok (one slice list per flush of a whole batch, not per frame)
                for (header, payload) in parts.iter() {
                    // A Range<usize> clone, not a buffer copy:
                    let Some(header) = buf.get(header.clone()) else { // glider: alloc-ok (Range clone for slicing, no allocation)
                        return Err(GliderError::protocol("frame header range out of bounds"));
                    };
                    slices.push(header);
                    if let Some(p) = payload {
                        if !p.is_empty() {
                            slices.push(p);
                        }
                    }
                }
                let res = write_all_vectored(io, &slices).await;
                drop(slices);
                // Drop the payload refcounts now rather than at the next
                // batch: the receiver may want sole ownership (buffer
                // pools reclaim via `Bytes::try_into_mut`).
                parts.clear();
                res?;
                Ok(())
            }
            TxInner::Mem { tx } => {
                for tagged in frames.drain(..) {
                    tx.send(tagged)
                        .await
                        .map_err(|_| GliderError::closed("connection"))?;
                }
                Ok(())
            }
        }
    }
}

/// Writes every byte of `parts` to `io`, preferring one vectored write per
/// syscall and falling back to sequential [`AsyncWriteExt::write_all`]
/// when the transport does not support vectored I/O.
async fn write_all_vectored(io: &mut OwnedWriteHalf, parts: &[&[u8]]) -> std::io::Result<()> {
    if !io.is_write_vectored() {
        for part in parts {
            io.write_all(part).await?;
        }
        return Ok(());
    }
    // Index of the first unfinished part and the bytes of it already sent.
    let mut idx = 0;
    let mut offset = 0;
    let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(parts.len()); // glider: alloc-ok (one IoSlice list per flush; it borrows `parts`, so it cannot outlive the call)
    while let Some(part) = parts.get(idx) {
        if part.len() == offset {
            idx += 1;
            offset = 0;
            continue;
        }
        let Some(unsent) = part.get(offset..) else {
            return Err(std::io::ErrorKind::InvalidInput.into());
        };
        slices.clear();
        slices.push(IoSlice::new(unsent));
        slices.extend(parts.iter().skip(idx + 1).map(|p| IoSlice::new(p)));
        let mut written = io.write_vectored(&slices).await?;
        if written == 0 {
            return Err(std::io::ErrorKind::WriteZero.into());
        }
        while written > 0 {
            let Some(part) = parts.get(idx) else {
                break;
            };
            let remaining = part.len() - offset;
            if written >= remaining {
                written -= remaining;
                idx += 1;
                offset = 0;
            } else {
                offset += written;
                written = 0;
            }
        }
    }
    Ok(())
}
// glider: end-hot-path

impl FrameRx {
    /// The scheme label of the transport carrying this connection.
    pub fn scheme(&self) -> &'static str {
        match &self.inner {
            RxInner::Tcp { .. } => TCP_LABEL,
            RxInner::Mem { .. } => MEM_LABEL,
        }
    }

    /// Receives the next frame, dropping its stream tag, or `None` when
    /// the peer closed cleanly.
    ///
    /// # Errors
    ///
    /// Returns an error on malformed frames or transport failures.
    pub async fn recv(&mut self) -> GliderResult<Option<Frame>> {
        Ok(self.recv_tagged().await?.map(|(_, frame)| frame))
    }

    /// Receives the next frame together with its logical stream tag, or
    /// `None` when the peer closed cleanly.
    ///
    /// # Errors
    ///
    /// Returns an error on malformed frames or transport failures.
    pub async fn recv_tagged(&mut self) -> GliderResult<Option<TaggedFrame>> {
        let FrameRx { inner, faults } = self;
        loop {
            let tagged = match faults {
                Some(f) => {
                    if f.is_severed() {
                        return Err(GliderError::closed("connection (injected sever)"));
                    }
                    tokio::select! {
                        tagged = inner.recv_raw() => tagged?,
                        _ = f.severed_wait() => {
                            return Err(GliderError::closed("connection (injected sever)"));
                        }
                    }
                }
                None => inner.recv_raw().await?,
            };
            match tagged {
                None => return Ok(None),
                Some(tagged) => {
                    if let Some(f) = faults {
                        if f.is_blackhole() || f.take_drop_recv() {
                            continue; // swallowed in flight
                        }
                    }
                    return Ok(Some(tagged));
                }
            }
        }
    }
}

impl RxInner {
    async fn recv_raw(&mut self) -> GliderResult<Option<TaggedFrame>> {
        match self {
            RxInner::Tcp { io, buf } => loop {
                if let Some(tagged) = decode_frame_tagged(buf).map_err(GliderError::from)? {
                    // Don't let one oversized frame pin its high-water
                    // capacity for the rest of the connection.
                    if buf.is_empty() && buf.capacity() > RECV_BUF_RECLAIM {
                        *buf = BytesMut::with_capacity(IO_BUF_INIT);
                    }
                    return Ok(Some(tagged));
                }
                let n = io.read_buf(buf).await?;
                if n == 0 {
                    if buf.is_empty() {
                        return Ok(None);
                    }
                    return Err(GliderError::new(
                        ErrorCode::Protocol,
                        "connection closed mid-frame",
                    ));
                }
            },
            RxInner::Mem { rx } => Ok(rx.recv().await),
        }
    }
}

pub(crate) fn tcp_pair(stream: TcpStream) -> (FrameTx, FrameRx) {
    stream.set_nodelay(true).ok();
    let (r, w) = stream.into_split();
    (
        FrameTx {
            inner: TxInner::Tcp {
                io: w,
                buf: BytesMut::with_capacity(IO_BUF_INIT),
                parts: Vec::new(),
            },
            faults: None,
        },
        FrameRx {
            inner: RxInner::Tcp {
                io: r,
                buf: BytesMut::with_capacity(IO_BUF_INIT),
            },
            faults: None,
        },
    )
}

pub(crate) struct MemConn {
    pub(crate) to_client: mpsc::Sender<TaggedFrame>,
    pub(crate) from_client: mpsc::Receiver<TaggedFrame>,
}

type MemRegistry = Mutex<HashMap<String, mpsc::UnboundedSender<MemConn>>>;

fn mem_registry() -> &'static MemRegistry {
    static REGISTRY: std::sync::OnceLock<Arc<MemRegistry>> = std::sync::OnceLock::new();
    REGISTRY.get_or_init(|| Arc::new(Mutex::new(HashMap::new())))
}

/// A bound listener on either transport.
#[derive(Debug)]
pub struct BoundListener(ListenerInner);

#[derive(Debug)]
enum ListenerInner {
    Tcp {
        listener: TcpListener,
        addr: String,
    },
    Mem {
        name: String,
        rx: mpsc::UnboundedReceiver<MemConn>,
    },
}

impl BoundListener {
    /// The dialable address of this listener (`host:port` or `mem://name`).
    pub fn local_addr(&self) -> &str {
        match &self.0 {
            ListenerInner::Tcp { addr, .. } => addr,
            ListenerInner::Mem { name, .. } => name,
        }
    }

    /// The scheme label of this listener's transport.
    pub fn scheme(&self) -> &'static str {
        match &self.0 {
            ListenerInner::Tcp { .. } => TCP_LABEL,
            ListenerInner::Mem { .. } => MEM_LABEL,
        }
    }

    /// Accepts the next inbound connection.
    ///
    /// # Errors
    ///
    /// Returns an error on socket failures or when a `mem://` listener has
    /// been removed from the registry.
    pub async fn accept(&mut self) -> GliderResult<(FrameTx, FrameRx)> {
        match &mut self.0 {
            ListenerInner::Tcp { listener, .. } => {
                let (stream, _) = listener.accept().await?;
                Ok(tcp_pair(stream))
            }
            ListenerInner::Mem { rx, name } => {
                let conn = rx
                    .recv()
                    .await
                    .ok_or_else(|| GliderError::closed(format!("mem listener {name}")))?;
                Ok((
                    FrameTx {
                        inner: TxInner::Mem { tx: conn.to_client },
                        faults: None,
                    },
                    FrameRx {
                        inner: RxInner::Mem {
                            rx: conn.from_client,
                        },
                        faults: None,
                    },
                ))
            }
        }
    }
}

impl Drop for BoundListener {
    fn drop(&mut self) {
        if let ListenerInner::Mem { name, .. } = &self.0 {
            mem_registry().lock().remove(name);
        }
    }
}

/// Binds a TCP listener (the `Transport` impl for TCP routes here).
pub(crate) async fn bind_tcp(addr: &str) -> GliderResult<BoundListener> {
    let listener = TcpListener::bind(addr).await?;
    let local = listener.local_addr()?;
    Ok(BoundListener(ListenerInner::Tcp {
        listener,
        addr: local.to_string(),
    }))
}

/// Registers a `mem://` listener (the `Transport` impl for mem routes
/// here).
pub(crate) async fn bind_mem(addr: &str) -> GliderResult<BoundListener> {
    let name = addr.strip_prefix(MEM_SCHEME).unwrap_or_default();
    if name.is_empty() {
        return Err(GliderError::invalid("mem:// address needs a name"));
    }
    let (tx, rx) = mpsc::unbounded_channel();
    let mut reg = mem_registry().lock();
    if reg.contains_key(addr) {
        return Err(GliderError::already_exists(format!("mem endpoint {addr}")));
    }
    reg.insert(addr.to_string(), tx);
    Ok(BoundListener(ListenerInner::Mem {
        name: addr.to_string(),
        rx,
    }))
}

/// Dials a TCP endpoint (the `Transport` impl for TCP routes here).
pub(crate) async fn dial_tcp(addr: &str) -> GliderResult<(FrameTx, FrameRx)> {
    let stream = TcpStream::connect(addr).await?;
    Ok(tcp_pair(stream))
}

/// Dials a `mem://` endpoint (the `Transport` impl for mem routes here),
/// attaching any registered fault configuration to the client-side
/// halves: outbound faults on the tx half, inbound on the rx half.
pub(crate) async fn dial_mem(addr: &str) -> GliderResult<(FrameTx, FrameRx)> {
    let faults = crate::fault::lookup_faults(addr);
    if faults
        .as_deref()
        .is_some_and(crate::fault::FaultConfig::is_crashed)
    {
        // The simulated process is dead (kill -9): refuse the dial like
        // a connection-refused socket would, until a restart.
        return Err(GliderError::unavailable(format!(
            "mem endpoint {addr} crashed"
        )));
    }
    let accept_tx = {
        let reg = mem_registry().lock();
        reg.get(addr)
            .cloned()
            .ok_or_else(|| GliderError::not_found(format!("mem endpoint {addr}")))?
    };
    let (c2s_tx, c2s_rx) = mpsc::channel(MEM_CHANNEL_DEPTH);
    let (s2c_tx, s2c_rx) = mpsc::channel(MEM_CHANNEL_DEPTH);
    accept_tx
        .send(MemConn {
            to_client: s2c_tx,
            from_client: c2s_rx,
        })
        .map_err(|_| GliderError::closed(format!("mem endpoint {addr}")))?;
    Ok((
        FrameTx {
            inner: TxInner::Mem { tx: c2s_tx },
            faults: faults.clone(),
        },
        FrameRx {
            inner: RxInner::Mem { rx: s2c_rx },
            faults,
        },
    ))
}

/// Binds a listener at `addr`, dispatching on the address scheme through
/// the transport registry (see [`crate::transport`]).
///
/// Use `"127.0.0.1:0"` for an ephemeral TCP port or `"mem://<name>"` for
/// the in-memory transport.
///
/// # Errors
///
/// Returns an error if the scheme is unknown, the TCP bind fails or the
/// `mem://` name is taken.
pub async fn bind(addr: &str) -> GliderResult<BoundListener> {
    crate::transport::transport_for(addr)?.bind(addr).await
}

/// Dials `addr` on the appropriate transport (scheme-dispatched through
/// the registry in [`crate::transport`]).
///
/// # Errors
///
/// Returns an error for unknown schemes, [`ErrorCode::NotFound`] for
/// unknown `mem://` endpoints and I/O errors for TCP failures.
pub async fn connect(addr: &str) -> GliderResult<(FrameTx, FrameRx)> {
    crate::transport::transport_for(addr)?.dial(addr).await
}

#[cfg(test)]
mod tests {
    use super::*;
    use glider_proto::message::{Request, RequestBody};
    use glider_proto::types::{BlockId, PeerTier};

    fn hello(id: u64) -> Frame {
        Frame::Request(Request {
            id,
            trace_id: 0,
            body: RequestBody::Hello {
                tier: PeerTier::Compute,
            },
        })
    }

    fn write_frame(id: u64, len: usize, fill: u8) -> Frame {
        Frame::Request(Request {
            id,
            trace_id: 0,
            body: RequestBody::WriteBlock {
                block_id: BlockId(id),
                offset: 0,
                data: Bytes::from(vec![fill; len]),
            },
        })
    }

    #[tokio::test]
    async fn tcp_round_trip() {
        let mut listener = bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().to_string();
        let server = tokio::spawn(async move {
            let (mut tx, mut rx) = listener.accept().await.unwrap();
            let frame = rx.recv().await.unwrap().unwrap();
            tx.send(frame).await.unwrap();
        });
        let (mut tx, mut rx) = connect(&addr).await.unwrap();
        assert_eq!(tx.scheme(), TCP_LABEL);
        assert_eq!(rx.scheme(), TCP_LABEL);
        tx.send(hello(1)).await.unwrap();
        let echoed = rx.recv().await.unwrap().unwrap();
        assert_eq!(echoed, hello(1));
        server.await.unwrap();
    }

    #[tokio::test]
    async fn mem_round_trip_and_name_cleanup() {
        let addr = "mem://conn-test-1";
        let mut listener = bind(addr).await.unwrap();
        assert_eq!(listener.local_addr(), addr);
        assert_eq!(listener.scheme(), MEM_LABEL);
        let server = tokio::spawn(async move {
            let (mut tx, mut rx) = listener.accept().await.unwrap();
            let frame = rx.recv().await.unwrap().unwrap();
            tx.send(frame).await.unwrap();
            listener // keep alive until client done
        });
        let (mut tx, mut rx) = connect(addr).await.unwrap();
        assert_eq!(tx.scheme(), MEM_LABEL);
        tx.send(hello(2)).await.unwrap();
        assert_eq!(rx.recv().await.unwrap().unwrap(), hello(2));
        let listener = server.await.unwrap();
        drop(listener);
        // Name is released on drop.
        assert!(connect(addr).await.is_err());
        let again = bind(addr).await.unwrap();
        drop(again);
    }

    #[tokio::test]
    async fn stream_tags_survive_both_transports() {
        for addr_spec in ["127.0.0.1:0", "mem://conn-test-tags"] {
            let mut listener = bind(addr_spec).await.unwrap();
            let addr = listener.local_addr().to_string();
            let server = tokio::spawn(async move {
                let (mut tx, mut rx) = listener.accept().await.unwrap();
                // Echo each frame back on its own stream tag.
                for _ in 0..3 {
                    let (stream, frame) = rx.recv_tagged().await.unwrap().unwrap();
                    tx.send_tagged(stream, frame).await.unwrap();
                }
            });
            let (mut tx, mut rx) = connect(&addr).await.unwrap();
            tx.send_tagged(0, hello(1)).await.unwrap();
            tx.send_tagged(7, hello(2)).await.unwrap();
            tx.send_tagged(u32::MAX, write_frame(3, 64, 0xAB))
                .await
                .unwrap();
            assert_eq!(rx.recv_tagged().await.unwrap().unwrap(), (0, hello(1)));
            assert_eq!(rx.recv_tagged().await.unwrap().unwrap(), (7, hello(2)));
            assert_eq!(
                rx.recv_tagged().await.unwrap().unwrap(),
                (u32::MAX, write_frame(3, 64, 0xAB))
            );
            server.await.unwrap();
        }
    }

    #[tokio::test]
    async fn credit_frames_cross_the_wire() {
        let mut listener = bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().to_string();
        let server = tokio::spawn(async move {
            let (mut tx, _rx) = listener.accept().await.unwrap();
            tx.send(Frame::Credit {
                stream_id: 5,
                credits: 8,
            })
            .await
            .unwrap();
        });
        let (_tx, mut rx) = connect(&addr).await.unwrap();
        let (stream, frame) = rx.recv_tagged().await.unwrap().unwrap();
        assert_eq!(stream, 5);
        assert_eq!(
            frame,
            Frame::Credit {
                stream_id: 5,
                credits: 8
            }
        );
        server.await.unwrap();
    }

    #[tokio::test]
    async fn tcp_batch_send_round_trips() {
        let mut listener = bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().to_string();
        let server = tokio::spawn(async move {
            let (_tx, mut rx) = listener.accept().await.unwrap();
            let mut got = Vec::new();
            for _ in 0..6 {
                got.push(rx.recv_tagged().await.unwrap().unwrap());
            }
            got
        });
        let (mut tx, _rx) = connect(&addr).await.unwrap();
        // Mix of payload-free, small- and large-payload frames — and both
        // legacy and tagged streams — in one batch.
        let mut batch: Vec<TaggedFrame> = vec![
            (0, hello(0)),
            (1, write_frame(1, 0, 0)),
            (0, write_frame(2, 1, 0xAA)),
            (3, write_frame(3, 64 * 1024, 0xBB)),
            (0, hello(4)),
            (9, write_frame(5, 1024 * 1024, 0xCC)),
        ];
        let expect = batch.clone();
        tx.send_batch(&mut batch).await.unwrap();
        assert!(batch.is_empty(), "send_batch drains the queue");
        assert_eq!(server.await.unwrap(), expect);
    }

    #[tokio::test]
    async fn mem_batch_send_round_trips() {
        let addr = "mem://conn-test-batch";
        let mut listener = bind(addr).await.unwrap();
        let server = tokio::spawn(async move {
            let (_tx, mut rx) = listener.accept().await.unwrap();
            let a = rx.recv().await.unwrap().unwrap();
            let b = rx.recv().await.unwrap().unwrap();
            (a, b)
        });
        let (mut tx, _rx) = connect(addr).await.unwrap();
        let mut batch = vec![(0, write_frame(1, 16, 1)), (0, hello(2))];
        let expect = (batch[0].1.clone(), batch[1].1.clone());
        tx.send_batch(&mut batch).await.unwrap();
        assert_eq!(server.await.unwrap(), expect);
    }

    #[tokio::test]
    async fn tcp_large_frame_round_trips_and_reclaims_capacity() {
        let mut listener = bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().to_string();
        // 8 MiB forces many partial vectored writes and grows the receive
        // buffer far past the reclaim threshold.
        let big = write_frame(9, 8 * 1024 * 1024, 0x5A);
        let expect = big.clone();
        let server = tokio::spawn(async move {
            let (mut tx, mut rx) = listener.accept().await.unwrap();
            let frame = rx.recv().await.unwrap().unwrap();
            tx.send(frame).await.unwrap();
            // After the oversized frame drained, the buffer was reset.
            match &rx.inner {
                RxInner::Tcp { buf, .. } => assert!(
                    buf.capacity() <= RECV_BUF_RECLAIM,
                    "receive buffer kept {} bytes of capacity",
                    buf.capacity()
                ),
                RxInner::Mem { .. } => unreachable!(),
            }
        });
        let (mut tx, mut rx) = connect(&addr).await.unwrap();
        tx.send(big).await.unwrap();
        let echoed = rx.recv().await.unwrap().unwrap();
        assert_eq!(echoed, expect);
        server.await.unwrap();
    }

    #[tokio::test]
    async fn mem_duplicate_bind_rejected() {
        let addr = "mem://conn-test-dup";
        let _l = bind(addr).await.unwrap();
        assert!(bind(addr).await.is_err());
    }

    #[tokio::test]
    async fn mem_bad_names_rejected() {
        assert!(bind("mem://").await.is_err());
        assert!(connect("mem://does-not-exist").await.is_err());
    }

    #[tokio::test]
    async fn unknown_schemes_are_rejected() {
        assert!(bind("rdma://nope").await.is_err());
        assert!(connect("rdma://nope").await.is_err());
    }

    #[tokio::test]
    async fn faults_apply_at_the_wrapper_layer() {
        // The fault hooks live on the connection halves, not inside a
        // transport: a drop token swallows a frame before the inner
        // transport sees it, and sever fails both directions.
        let addr = "mem://conn-test-faults";
        let faults = crate::fault::inject_faults(addr);
        let mut listener = bind(addr).await.unwrap();
        let server = tokio::spawn(async move {
            let (_tx, mut rx) = listener.accept().await.unwrap();
            rx.recv().await.unwrap().unwrap()
        });
        let (mut tx, mut rx) = connect(addr).await.unwrap();
        assert!(tx.faults.is_some(), "client tx carries the fault wrapper");
        faults.drop_next_sends(1);
        tx.send(hello(1)).await.unwrap(); // swallowed
        tx.send(hello(2)).await.unwrap(); // delivered
        assert_eq!(server.await.unwrap(), hello(2));
        faults.sever();
        assert!(tx.send(hello(3)).await.is_err());
        assert!(rx.recv().await.is_err());
        faults.heal();
        crate::fault::clear_faults(addr);
    }

    #[tokio::test]
    async fn clean_close_yields_none() {
        let mut listener = bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().to_string();
        let server = tokio::spawn(async move {
            let (_tx, mut rx) = listener.accept().await.unwrap();
            assert!(rx.recv().await.unwrap().is_none());
        });
        let (tx, _rx) = connect(&addr).await.unwrap();
        drop(tx);
        drop(_rx);
        server.await.unwrap();
    }
}
