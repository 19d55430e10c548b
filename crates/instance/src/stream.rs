//! Server-side I/O streams connecting actions to clients.
//!
//! These are the paper's per-stream *task queues* (§4.2 "Accessing
//! actions"): the network side pushes data tasks in, the action method
//! consumes or populates the stream, and bounded channels
//! ([`mod@crate::channel`]) provide the backpressure that keeps large
//! transfers memory-bounded.
//!
//! A write stream's queue holds one entry per push request: a chunk, or a
//! whole record batch. So a batch is queued whole or not at all, and its
//! successor cannot overtake its tail.

use crate::channel::{channel, Receiver, Sender};
use bytes::{Bytes, BytesMut};
use glider_proto::batch::unpack_records;
use glider_proto::{GliderError, GliderResult};
use std::collections::BTreeMap;

/// Default size at which [`ActionOutputStream::write_all`] flushes its
/// internal buffer.
pub const OUTPUT_CHUNK_SIZE: usize = 64 * 1024;

/// The readable end handed to [`crate::Action::on_write`].
///
/// Chunks pushed by the network side may arrive slightly out of order
/// (requests are handled concurrently); the stream reassembles them by
/// sequence number so the method always observes the client's byte order.
#[derive(Debug)]
pub struct ActionInputStream {
    rx: Receiver<(u64, Entry)>,
    pending: BTreeMap<u64, Bytes>,
    next_seq: u64,
    bytes_received: u64,
    done: bool,
}

/// The writing side used by the server's network layer to feed an
/// [`ActionInputStream`]. Dropping every pusher signals end-of-stream.
#[derive(Debug, Clone)]
pub struct InputPusher {
    tx: Sender<(u64, Entry)>,
}

/// One push request as it waits in the queue, under its first seq.
#[derive(Debug)]
enum Entry {
    Chunk(Bytes),
    /// A batch's records, at consecutive seqs.
    Batch(Vec<Bytes>),
}

impl ActionInputStream {
    /// Creates a stream with an internal queue of `capacity` entries.
    pub fn new(capacity: usize) -> (Self, InputPusher) {
        let (tx, rx) = channel(capacity);
        (
            ActionInputStream {
                rx,
                pending: BTreeMap::new(),
                next_seq: 0,
                bytes_received: 0,
                done: false,
            },
            InputPusher { tx },
        )
    }

    /// Returns the next in-order chunk, or `None` once the client closed
    /// the stream and all chunks were delivered.
    ///
    /// # Errors
    ///
    /// [`glider_proto::ErrorCode::Protocol`] when a pushed chunk reuses a
    /// seq: one already delivered, or one already waiting (a batch's
    /// records count one seq each). Pushes are never retried, so only a
    /// faulty client sends one, and delivering it would break the
    /// client's byte order.
    pub async fn next_chunk(&mut self) -> GliderResult<Option<Bytes>> {
        loop {
            if let Some(chunk) = self.pending.remove(&self.next_seq) {
                self.next_seq += 1;
                self.bytes_received += chunk.len() as u64;
                return Ok(Some(chunk));
            }
            if self.done {
                // A gap at EOF means the client vanished mid-stream; skip
                // each gap, so the method still observes every chunk
                // that arrived, in order, and finishes.
                let Some((seq, chunk)) = self.pending.pop_first() else {
                    return Ok(None);
                };
                self.next_seq = seq + 1;
                self.bytes_received += chunk.len() as u64;
                return Ok(Some(chunk));
            }
            match self.rx.recv().await {
                Some((seq, Entry::Chunk(data))) => self.file(seq, data)?,
                Some((seq, Entry::Batch(records))) => {
                    for (seq, record) in (seq..).zip(records) {
                        self.file(seq, record)?;
                    }
                }
                None => self.done = true,
            }
        }
    }

    /// Files chunk `seq` until its turn comes, refusing a seq that was
    /// delivered or is waiting already.
    fn file(&mut self, seq: u64, chunk: Bytes) -> GliderResult<()> {
        if seq < self.next_seq || self.pending.contains_key(&seq) {
            return Err(GliderError::protocol(format!(
                "input stream chunk {seq} reuses a seq (next to deliver: {})",
                self.next_seq
            )));
        }
        self.pending.insert(seq, chunk);
        Ok(())
    }

    /// Reads the entire stream into one buffer (small transfers only).
    ///
    /// # Errors
    ///
    /// Propagates [`ActionInputStream::next_chunk`] errors.
    pub async fn read_all(&mut self) -> GliderResult<Vec<u8>> {
        let mut out = Vec::new();
        while let Some(chunk) = self.next_chunk().await? {
            out.extend_from_slice(&chunk);
        }
        Ok(out)
    }

    /// Total bytes delivered so far.
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received
    }
}

impl InputPusher {
    // glider: hot-path (action stream push: one queue entry per request)
    /// Enqueues one chunk, waiting when the stream's queue is full.
    ///
    /// # Errors
    ///
    /// Returns [`glider_proto::ErrorCode::Closed`] when the consuming
    /// method has finished (its stream was dropped).
    pub async fn push(&self, seq: u64, data: Bytes) -> GliderResult<()> {
        self.send(seq, Entry::Chunk(data)).await
    }

    /// Enqueues a record batch: `count` length-prefixed records packed in
    /// `data` (see [`glider_proto::batch`]), occupying sequence numbers
    /// `seq .. seq + count`. Each record is a zero-copy slice of `data`,
    /// and the batch is one queue entry: it waits whole, or is queued
    /// whole.
    ///
    /// # Errors
    ///
    /// - [`glider_proto::ErrorCode::Protocol`] for a malformed batch,
    /// - [`glider_proto::ErrorCode::Closed`] when the consuming method has
    ///   finished.
    pub async fn push_batch(&self, seq: u64, count: u32, data: Bytes) -> GliderResult<()> {
        // One `Vec` of record slices per batch request, not per record,
        // built by `unpack_records`.
        let records = unpack_records(count, data)?;
        self.send(seq, Entry::Batch(records)).await
    }

    async fn send(&self, seq: u64, entry: Entry) -> GliderResult<()> {
        self.tx
            .send((seq, entry))
            .await
            .map_err(|_| GliderError::closed("action input stream"))
    }
    // glider: end-hot-path

    /// Push requests queued and not yet taken by the method.
    pub fn queued(&self) -> usize {
        self.tx.len()
    }

    /// Signals end-of-stream by consuming this pusher.
    pub fn finish(self) {
        // Dropping the last sender closes the channel.
    }
}

/// The writable end handed to [`crate::Action::on_read`].
///
/// Small writes are coalesced into [`OUTPUT_CHUNK_SIZE`] chunks; the
/// instance flushes after the method returns. Readers pull chunks through
/// the paired receiver with natural backpressure.
#[derive(Debug)]
pub struct ActionOutputStream {
    tx: Sender<Bytes>,
    buf: BytesMut,
    bytes_sent: u64,
}

impl ActionOutputStream {
    /// Creates a stream with an internal queue of `capacity` chunks.
    /// Returns the stream and the receiver the network side drains.
    pub fn new(capacity: usize) -> (Self, Receiver<Bytes>) {
        let (tx, rx) = channel(capacity);
        (
            ActionOutputStream {
                tx,
                buf: BytesMut::with_capacity(OUTPUT_CHUNK_SIZE),
                bytes_sent: 0,
            },
            rx,
        )
    }

    /// Sends one chunk as-is (flushing buffered bytes first to preserve
    /// order).
    ///
    /// # Errors
    ///
    /// Returns [`glider_proto::ErrorCode::Closed`] when the client closed
    /// its read stream.
    pub async fn write(&mut self, data: Bytes) -> GliderResult<()> {
        self.flush().await?;
        self.bytes_sent += data.len() as u64;
        self.tx
            .send(data)
            .await
            .map_err(|_| GliderError::closed("action output stream"))
    }

    /// Appends bytes, coalescing into [`OUTPUT_CHUNK_SIZE`] chunks.
    ///
    /// # Errors
    ///
    /// See [`ActionOutputStream::write`].
    pub async fn write_all(&mut self, data: &[u8]) -> GliderResult<()> {
        self.buf.extend_from_slice(data);
        while self.buf.len() >= OUTPUT_CHUNK_SIZE {
            let chunk = self.buf.split_to(OUTPUT_CHUNK_SIZE).freeze();
            self.bytes_sent += chunk.len() as u64;
            self.tx
                .send(chunk)
                .await
                .map_err(|_| GliderError::closed("action output stream"))?;
        }
        Ok(())
    }

    /// Flushes any buffered bytes as a final (possibly small) chunk.
    ///
    /// # Errors
    ///
    /// See [`ActionOutputStream::write`].
    pub async fn flush(&mut self) -> GliderResult<()> {
        if !self.buf.is_empty() {
            let chunk = self.buf.split().freeze();
            self.bytes_sent += chunk.len() as u64;
            self.tx
                .send(chunk)
                .await
                .map_err(|_| GliderError::closed("action output stream"))?;
        }
        Ok(())
    }

    /// Total bytes sent (including still-buffered bytes already counted at
    /// flush time).
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent + self.buf.len() as u64
    }

    /// Whether the reader is gone (its receiver dropped): every later
    /// write fails `Closed`.
    pub fn reader_gone(&self) -> bool {
        self.tx.is_closed()
    }
}

/// Buffered line reader over an [`ActionInputStream`] (the paper's
/// `input.lines()` wrapper from Listing 1).
///
/// # Examples
///
/// ```
/// use bytes::Bytes;
/// use glider_instance::stream::{ActionInputStream, LineReader};
/// # use std::future::Future;
/// # use std::task::{Context, Poll, Waker};
/// # // Every chunk is queued before the read, so no poll waits.
/// # fn ready<F: Future>(f: F) -> F::Output {
/// #     match std::pin::pin!(f).poll(&mut Context::from_waker(Waker::noop())) {
/// #         Poll::Ready(v) => v,
/// #         Poll::Pending => unreachable!(),
/// #     }
/// # }
///
/// let (mut input, pusher) = ActionInputStream::new(4);
/// ready(pusher.push(0, Bytes::from_static(b"one\ntw"))).unwrap();
/// ready(pusher.push(1, Bytes::from_static(b"o\nthree"))).unwrap();
/// pusher.finish();
///
/// let mut lines = LineReader::new(&mut input);
/// assert_eq!(ready(lines.next_line()).unwrap().as_deref(), Some("one"));
/// assert_eq!(ready(lines.next_line()).unwrap().as_deref(), Some("two"));
/// assert_eq!(ready(lines.next_line()).unwrap().as_deref(), Some("three"));
/// assert_eq!(ready(lines.next_line()).unwrap(), None);
/// ```
#[derive(Debug)]
pub struct LineReader<'a> {
    stream: &'a mut ActionInputStream,
    buf: Vec<u8>,
    pos: usize,
    eof: bool,
}

impl<'a> LineReader<'a> {
    /// Wraps a stream.
    pub fn new(stream: &'a mut ActionInputStream) -> Self {
        LineReader {
            stream,
            buf: Vec::new(),
            pos: 0,
            eof: false,
        }
    }

    /// Returns the next line without its terminator, or `None` at EOF.
    /// A final unterminated line is returned as-is. Invalid UTF-8 is
    /// replaced lossily.
    ///
    /// # Errors
    ///
    /// Propagates stream errors.
    pub async fn next_line(&mut self) -> GliderResult<Option<String>> {
        loop {
            let rest = self.buf.get(self.pos..).unwrap_or_default();
            if let Some(nl) = rest.iter().position(|&b| b == b'\n') {
                let line = String::from_utf8_lossy(rest.get(..nl).unwrap_or_default()).into_owned();
                self.pos += nl + 1;
                self.compact();
                return Ok(Some(line));
            }
            if self.eof {
                if rest.is_empty() {
                    return Ok(None);
                }
                let line = String::from_utf8_lossy(rest).into_owned();
                self.pos = self.buf.len();
                return Ok(Some(line));
            }
            match self.stream.next_chunk().await? {
                Some(chunk) => self.buf.extend_from_slice(&chunk),
                None => self.eof = true,
            }
        }
    }

    fn compact(&mut self) {
        // Avoid unbounded growth when lines are consumed incrementally.
        if self.pos > 64 * 1024 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ready;
    use glider_proto::ErrorCode;
    use std::future::Future;
    use std::task::{Context, Poll, Waker};

    #[test]
    fn in_order_chunks_flow_through() {
        let (mut input, pusher) = ActionInputStream::new(4);
        ready(pusher.push(0, Bytes::from_static(b"a"))).unwrap();
        ready(pusher.push(1, Bytes::from_static(b"b"))).unwrap();
        pusher.finish();
        assert_eq!(&ready(input.next_chunk()).unwrap().unwrap()[..], b"a");
        assert_eq!(&ready(input.next_chunk()).unwrap().unwrap()[..], b"b");
        assert!(ready(input.next_chunk()).unwrap().is_none());
        assert_eq!(input.bytes_received(), 2);
        // Further reads keep returning EOF.
        assert!(ready(input.next_chunk()).unwrap().is_none());
    }

    #[test]
    fn out_of_order_chunks_are_reassembled() {
        let (mut input, pusher) = ActionInputStream::new(8);
        ready(pusher.push(2, Bytes::from_static(b"c"))).unwrap();
        ready(pusher.push(0, Bytes::from_static(b"a"))).unwrap();
        ready(pusher.push(1, Bytes::from_static(b"b"))).unwrap();
        pusher.finish();
        assert_eq!(ready(input.read_all()).unwrap(), b"abc");
    }

    #[test]
    fn a_gap_at_eof_skips_to_the_next_chunk() {
        let (mut input, pusher) = ActionInputStream::new(8);
        ready(pusher.push(0, Bytes::from_static(b"a"))).unwrap();
        ready(pusher.push(2, Bytes::from_static(b"c"))).unwrap();
        pusher.finish();
        assert_eq!(ready(input.read_all()).unwrap(), b"ac");
    }

    #[test]
    fn every_gap_at_eof_is_skipped() {
        let (mut input, pusher) = ActionInputStream::new(8);
        for (seq, chunk) in [(5, b"e"), (0, b"a"), (2, b"c"), (3, b"d")] {
            ready(pusher.push(seq, Bytes::from_static(chunk))).unwrap();
        }
        pusher.finish();
        assert_eq!(ready(input.read_all()).unwrap(), b"acde");
        assert_eq!(input.bytes_received(), 4);
    }

    #[test]
    fn a_stale_or_duplicate_seq_is_refused_not_delivered() {
        let push = |pusher: &InputPusher, seq, chunk: &'static [u8]| {
            ready(pusher.push(seq, Bytes::from_static(chunk))).unwrap();
        };
        // Seq 0 again after it was delivered.
        let (mut input, pusher) = ActionInputStream::new(8);
        push(&pusher, 0, b"a");
        assert_eq!(&ready(input.next_chunk()).unwrap().unwrap()[..], b"a");
        for (seq, chunk) in [(0, b"X"), (1, b"b"), (2, b"c"), (2, b"Y")] {
            push(&pusher, seq, chunk);
        }
        pusher.finish();
        let err = ready(input.read_all()).unwrap_err();
        assert_eq!(err.code(), ErrorCode::Protocol, "{err}");
        // Seq 2 twice while it waits behind seq 1.
        let (mut input, pusher) = ActionInputStream::new(8);
        for (seq, chunk) in [(0, b"a"), (2, b"c"), (2, b"Y"), (1, b"b")] {
            push(&pusher, seq, chunk);
        }
        pusher.finish();
        assert_eq!(&ready(input.next_chunk()).unwrap().unwrap()[..], b"a");
        let err = ready(input.next_chunk()).unwrap_err();
        assert_eq!(err.code(), ErrorCode::Protocol, "{err}");
        // A batch whose last record repeats a waiting seq.
        let (mut input, pusher) = ActionInputStream::new(8);
        push(&pusher, 2, b"c");
        let (count, data) = batch(&[b"a", b"b", b"c"]);
        ready(pusher.push_batch(0, count, data)).unwrap();
        pusher.finish();
        let err = ready(input.read_all()).unwrap_err();
        assert_eq!(err.code(), ErrorCode::Protocol, "{err}");
    }

    #[test]
    fn push_backpressure_blocks_until_consumed() {
        let (mut input, pusher) = ActionInputStream::new(1);
        ready(pusher.push(0, Bytes::from_static(b"x"))).unwrap();
        // The queue (capacity 1) is full; the next push must wait.
        let mut cx = Context::from_waker(Waker::noop());
        let mut pending = std::pin::pin!(pusher.push(1, Bytes::from_static(b"y")));
        assert!(pending.as_mut().poll(&mut cx).is_pending());
        assert_eq!(&ready(input.next_chunk()).unwrap().unwrap()[..], b"x");
        assert!(matches!(
            pending.as_mut().poll(&mut cx),
            Poll::Ready(Ok(()))
        ));
        assert_eq!(&ready(input.next_chunk()).unwrap().unwrap()[..], b"y");
    }

    #[test]
    fn push_after_consumer_drop_is_closed() {
        let (input, pusher) = ActionInputStream::new(1);
        drop(input);
        let err = ready(pusher.push(0, Bytes::from_static(b"x"))).unwrap_err();
        assert_eq!(err.code(), ErrorCode::Closed);
    }

    fn batch(records: &[&[u8]]) -> (u32, Bytes) {
        let mut b = glider_proto::batch::RecordBatchBuilder::new();
        for r in records {
            b.push(r);
        }
        b.finish()
    }

    #[test]
    fn push_batch_delivers_records_in_order() {
        let (mut input, pusher) = ActionInputStream::new(8);
        let (count, data) = batch(&[b"one", b"two", b"three"]);
        ready(pusher.push_batch(0, count, data)).unwrap();
        pusher.finish();
        assert_eq!(ready(input.read_all()).unwrap(), b"onetwothree");
        assert_eq!(input.bytes_received(), 11);
    }

    #[test]
    fn push_batch_interleaves_with_singular_chunks() {
        // A batch occupies seq .. seq + count, so singular pushes slot in
        // around it.
        let (mut input, pusher) = ActionInputStream::new(8);
        let (count, data) = batch(&[b"b", b"c"]);
        ready(pusher.push_batch(1, count, data)).unwrap();
        ready(pusher.push(0, Bytes::from_static(b"a"))).unwrap();
        ready(pusher.push(3, Bytes::from_static(b"d"))).unwrap();
        pusher.finish();
        assert_eq!(ready(input.read_all()).unwrap(), b"abcd");
    }

    #[test]
    fn a_batch_is_one_queue_entry() {
        let (mut input, pusher) = ActionInputStream::new(2);
        ready(pusher.push(0, Bytes::from_static(b"x"))).unwrap();
        // Three records, one free entry: the batch is queued whole.
        let (count, data) = batch(&[b"y", b"z", b"w"]);
        ready(pusher.push_batch(1, count, data)).unwrap();
        assert_eq!(pusher.queued(), 2);
        // The queue is full: the next batch waits whole, and its first
        // poll leaves nothing behind.
        {
            let (count, data) = batch(&[b"v"]);
            let mut cx = Context::from_waker(Waker::noop());
            let mut waiting = std::pin::pin!(pusher.push_batch(4, count, data));
            assert!(waiting.as_mut().poll(&mut cx).is_pending());
            assert_eq!(pusher.queued(), 2);
            assert_eq!(&ready(input.next_chunk()).unwrap().unwrap()[..], b"x");
            assert!(matches!(
                waiting.as_mut().poll(&mut cx),
                Poll::Ready(Ok(()))
            ));
        }
        pusher.finish();
        assert_eq!(ready(input.read_all()).unwrap(), b"yzwv");
        assert_eq!(input.bytes_received(), 5);
        let (count, data) = batch(&[b"late"]);
        let err = ready(pusher_of_closed().push_batch(0, count, data)).unwrap_err();
        assert_eq!(err.code(), ErrorCode::Closed);
    }

    fn pusher_of_closed() -> InputPusher {
        let (input, pusher) = ActionInputStream::new(2);
        drop(input);
        pusher
    }

    #[test]
    fn push_batch_rejects_malformed_data() {
        let (_input, pusher) = ActionInputStream::new(4);
        let malformed = Bytes::from_static(b"\x05\x00\x00\x00ab");
        let err = ready(pusher.push_batch(0, 2, malformed)).unwrap_err();
        assert_eq!(err.code(), ErrorCode::Protocol);
        assert_eq!(pusher.queued(), 0);
    }

    #[test]
    fn output_coalesces_small_writes() {
        let (mut out, mut rx) = ActionOutputStream::new(8);
        for _ in 0..10 {
            ready(out.write_all(b"0123456789")).unwrap();
        }
        assert_eq!(out.bytes_sent(), 100);
        ready(out.flush()).unwrap();
        drop(out);
        let chunks: Vec<Bytes> = std::iter::from_fn(|| ready(rx.recv())).collect();
        assert_eq!(chunks.len(), 1, "small writes should coalesce");
        assert_eq!(chunks.iter().map(Bytes::len).sum::<usize>(), 100);
    }

    #[test]
    fn output_write_flushes_buffer_first() {
        let (mut out, mut rx) = ActionOutputStream::new(8);
        ready(out.write_all(b"head")).unwrap();
        ready(out.write(Bytes::from_static(b"tail"))).unwrap();
        drop(out);
        assert_eq!(&ready(rx.recv()).unwrap()[..], b"head");
        assert_eq!(&ready(rx.recv()).unwrap()[..], b"tail");
        assert!(ready(rx.recv()).is_none());
    }

    #[test]
    fn output_large_write_all_splits_chunks() {
        let (mut out, mut rx) = ActionOutputStream::new(8);
        let data = vec![7u8; OUTPUT_CHUNK_SIZE * 2 + 10];
        ready(out.write_all(&data)).unwrap();
        ready(out.flush()).unwrap();
        drop(out);
        let sizes: Vec<usize> = std::iter::from_fn(|| ready(rx.recv()))
            .map(|c| c.len())
            .collect();
        assert_eq!(sizes, vec![OUTPUT_CHUNK_SIZE, OUTPUT_CHUNK_SIZE, 10]);
    }

    #[test]
    fn output_write_after_reader_drop_is_closed() {
        let (mut out, rx) = ActionOutputStream::new(1);
        assert!(!out.reader_gone());
        drop(rx);
        assert!(out.reader_gone());
        let err = ready(out.write(Bytes::from_static(b"x"))).unwrap_err();
        assert_eq!(err.code(), ErrorCode::Closed);
    }

    #[test]
    fn line_reader_handles_split_lines_and_tail() {
        let (mut input, pusher) = ActionInputStream::new(8);
        ready(pusher.push(0, Bytes::from_static(b"alpha\nbe"))).unwrap();
        ready(pusher.push(1, Bytes::from_static(b"ta\n"))).unwrap();
        ready(pusher.push(2, Bytes::from_static(b"tail-no-newline"))).unwrap();
        pusher.finish();
        let mut lines = LineReader::new(&mut input);
        assert_eq!(ready(lines.next_line()).unwrap().as_deref(), Some("alpha"));
        assert_eq!(ready(lines.next_line()).unwrap().as_deref(), Some("beta"));
        assert_eq!(
            ready(lines.next_line()).unwrap().as_deref(),
            Some("tail-no-newline")
        );
        assert_eq!(ready(lines.next_line()).unwrap(), None);
        assert_eq!(ready(lines.next_line()).unwrap(), None);
    }

    #[test]
    fn line_reader_empty_stream() {
        let (mut input, pusher) = ActionInputStream::new(1);
        pusher.finish();
        let mut lines = LineReader::new(&mut input);
        assert_eq!(ready(lines.next_line()).unwrap(), None);
    }

    #[test]
    fn line_reader_compacts_without_losing_data() {
        let (mut input, pusher) = ActionInputStream::new(4);
        // Feed > 64 KiB of lines to trigger compaction.
        let line = "x".repeat(1000);
        let mut blob = String::new();
        for _ in 0..100 {
            blob.push_str(&line);
            blob.push('\n');
        }
        ready(pusher.push(0, Bytes::from(blob))).unwrap();
        pusher.finish();
        let mut lines = LineReader::new(&mut input);
        let mut count = 0;
        while let Some(l) = ready(lines.next_line()).unwrap() {
            assert_eq!(l.len(), 1000);
            count += 1;
        }
        assert_eq!(count, 100);
    }
}
