//! Length-prefixed record batching for action streams.
//!
//! Action pipelines move many small records (CSV lines, key/value pairs,
//! fixed-size sort records); pushing each one as its own `StreamChunk`
//! RPC costs a full frame, a sequence number, and a pooled buffer per
//! record. The `StreamChunkBatch` request instead packs many records into
//! one bulk payload with a tiny per-record header:
//!
//! ```text
//! [u32 len LE][len bytes] [u32 len LE][len bytes] ...
//! ```
//!
//! [`RecordBatchBuilder`] packs records into a (possibly pooled) buffer on
//! the sending side; [`RecordBatchIter`] walks a complete batch payload on
//! the receiving side, yielding each record as a zero-copy slice of the
//! batch `Bytes`; [`RecordDeframer`] reassembles records from arbitrarily
//! fragmented byte streams (an action reading its input as records rather
//! than raw chunks), slicing zero-copy whenever a record lies inside one
//! fragment and copying only records that straddle fragment boundaries.

use crate::codec::{CodecError, CodecResult};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::collections::VecDeque;

/// Bytes of per-record framing overhead (the `u32` length prefix).
pub const RECORD_HEADER_LEN: usize = 4;

/// Packs length-prefixed records into one contiguous batch payload.
#[derive(Debug, Default)]
pub struct RecordBatchBuilder {
    buf: BytesMut,
    count: u32,
}

impl RecordBatchBuilder {
    /// Creates an empty builder with a fresh buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty builder packing into `buf` (typically a buffer
    /// leased from a `BytesPool`, so steady-state batching allocates
    /// nothing).
    pub fn with_buffer(mut buf: BytesMut) -> Self {
        buf.clear();
        Self { buf, count: 0 }
    }

    /// Appends one record to the batch.
    pub fn push(&mut self, record: &[u8]) {
        self.buf.put_u32_le(record.len() as u32);
        self.buf.put_slice(record);
        self.count += 1;
    }

    /// Number of records packed so far.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Packed payload size in bytes, including per-record headers.
    pub fn payload_len(&self) -> usize {
        self.buf.len()
    }

    /// True when no record has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Finishes the batch, returning the record count and the packed
    /// payload ready for a `StreamChunkBatch` request.
    pub fn finish(self) -> (u32, Bytes) {
        (self.count, self.buf.freeze())
    }
}

/// Iterates the records of one complete batch payload.
///
/// Each yielded record is a zero-copy slice of the batch `Bytes` (shared
/// refcount, no memcpy), so the receive buffer a batch was decoded from
/// backs the records all the way into the consuming action.
#[derive(Debug, Clone)]
pub struct RecordBatchIter {
    data: Bytes,
}

impl RecordBatchIter {
    /// Creates an iterator over the packed records in `data`.
    pub fn new(data: Bytes) -> Self {
        Self { data }
    }

    /// Remaining unparsed payload bytes.
    pub fn remaining(&self) -> usize {
        self.data.len()
    }
}

impl Iterator for RecordBatchIter {
    type Item = CodecResult<Bytes>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.data.is_empty() {
            return None;
        }
        if self.data.len() < RECORD_HEADER_LEN {
            self.data = Bytes::new();
            return Some(Err(CodecError("truncated record header in batch".into())));
        }
        let len = u32::from_le_bytes(self.data[..RECORD_HEADER_LEN].try_into().unwrap()) as usize;
        if self.data.len() < RECORD_HEADER_LEN + len {
            let remain = self.data.len() - RECORD_HEADER_LEN;
            self.data = Bytes::new();
            return Some(Err(CodecError(format!(
                "truncated record in batch: header says {len} bytes, {remain} remain"
            ))));
        }
        self.data.advance(RECORD_HEADER_LEN);
        Some(Ok(self.data.split_to(len)))
    }
}

/// Splits a complete batch payload into its records.
///
/// Convenience wrapper over [`RecordBatchIter`] that also checks the
/// payload holds exactly `count` records.
///
/// # Errors
///
/// Returns a [`CodecError`] when a record header or body is truncated or
/// when the payload holds a different number of records than `count`
/// claims.
pub fn unpack_records(count: u32, data: Bytes) -> CodecResult<Vec<Bytes>> {
    let records = RecordBatchIter::new(data).collect::<CodecResult<Vec<_>>>()?;
    if records.len() != count as usize {
        return Err(CodecError(format!(
            "batch count mismatch: header says {count}, payload holds {}",
            records.len()
        )));
    }
    Ok(records)
}

/// Reassembles length-prefixed records from a fragmented byte stream.
///
/// Fragments are pushed in arrival order; [`RecordDeframer::next_record`]
/// yields each complete record as soon as its bytes are buffered. A record
/// fully contained in one fragment comes back as a zero-copy slice of that
/// fragment; only records straddling a fragment boundary are stitched
/// together with a copy.
#[derive(Debug, Default)]
pub struct RecordDeframer {
    frags: VecDeque<Bytes>,
    buffered: usize,
}

impl RecordDeframer {
    /// Creates an empty deframer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds the next stream fragment to the deframer.
    pub fn push(&mut self, fragment: Bytes) {
        if fragment.is_empty() {
            return;
        }
        self.buffered += fragment.len();
        self.frags.push_back(fragment);
    }

    /// Total bytes buffered but not yet yielded.
    pub fn buffered(&self) -> usize {
        self.buffered
    }

    /// Pops the next complete record, or `None` when more fragments are
    /// needed. Call repeatedly after each [`RecordDeframer::push`]: one
    /// fragment can complete several records.
    pub fn next_record(&mut self) -> Option<Bytes> {
        if self.buffered < RECORD_HEADER_LEN {
            return None;
        }
        let len = self.peek_len();
        if self.buffered < RECORD_HEADER_LEN + len {
            return None;
        }
        self.skip(RECORD_HEADER_LEN);
        Some(self.take(len))
    }

    /// True when every buffered byte has been consumed — a cleanly ended
    /// stream must leave the deframer empty, anything else is a torn
    /// trailing record.
    pub fn is_empty(&self) -> bool {
        self.buffered == 0
    }

    fn peek_len(&self) -> usize {
        let mut hdr = [0u8; RECORD_HEADER_LEN];
        let mut filled = 0;
        for frag in &self.frags {
            let take = (RECORD_HEADER_LEN - filled).min(frag.len());
            hdr[filled..filled + take].copy_from_slice(&frag[..take]);
            filled += take;
            if filled == RECORD_HEADER_LEN {
                break;
            }
        }
        u32::from_le_bytes(hdr) as usize
    }

    fn skip(&mut self, mut n: usize) {
        self.buffered -= n;
        while n > 0 {
            let head = self.frags.front_mut().expect("skip past buffered bytes");
            if head.len() > n {
                head.advance(n);
                return;
            }
            n -= head.len();
            self.frags.pop_front();
        }
    }

    fn take(&mut self, n: usize) -> Bytes {
        if n == 0 {
            return Bytes::new();
        }
        self.buffered -= n;
        let head = self.frags.front_mut().expect("take past buffered bytes");
        if head.len() >= n {
            // Fast path: the record lies inside one fragment — slice it
            // zero-copy.
            let record = head.split_to(n);
            if head.is_empty() {
                self.frags.pop_front();
            }
            return record;
        }
        // Slow path: the record straddles fragments; stitch with one copy.
        let mut out = BytesMut::with_capacity(n);
        let mut left = n;
        while left > 0 {
            let head = self.frags.front_mut().expect("take past buffered bytes");
            if head.len() > left {
                out.put_slice(&head.split_to(left));
                left = 0;
            } else {
                left -= head.len();
                out.put_slice(head);
                self.frags.pop_front();
            }
        }
        out.freeze()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glider_sim::Lcg;

    fn pack(records: &[&[u8]]) -> (u32, Bytes) {
        let mut b = RecordBatchBuilder::new();
        for r in records {
            b.push(r);
        }
        b.finish()
    }

    #[test]
    fn builder_packs_length_prefixed_records() {
        let (count, data) = pack(&[b"hi", b"!", b""]);
        assert_eq!(count, 3);
        assert_eq!(
            &data[..],
            b"\x02\x00\x00\x00hi\x01\x00\x00\x00!\x00\x00\x00\x00"
        );
    }

    #[test]
    fn iter_round_trips_and_is_zero_copy() {
        let (count, data) = pack(&[b"hello", b"", b"world"]);
        let records = unpack_records(count, data.clone()).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(&records[0][..], b"hello");
        assert!(records[1].is_empty());
        assert_eq!(&records[2][..], b"world");
        // Zero-copy: the record slices alias the batch allocation.
        let base = data.as_ptr() as usize;
        let rec = records[2].as_ptr() as usize;
        assert!(rec > base && rec < base + data.len());
    }

    #[test]
    fn iter_rejects_truncated_batches() {
        let (_, data) = pack(&[b"hello"]);
        // Truncated body.
        let torn = data.slice(..data.len() - 1);
        assert!(RecordBatchIter::new(torn).any(|r| r.is_err()));
        // Truncated header.
        let torn = data.slice(..2);
        assert!(RecordBatchIter::new(torn).any(|r| r.is_err()));
        // Count mismatch.
        assert!(unpack_records(2, data).is_err());
    }

    #[test]
    fn builder_reuses_a_leased_buffer() {
        let mut lease = BytesMut::with_capacity(64);
        lease.put_slice(b"stale");
        let mut b = RecordBatchBuilder::with_buffer(lease);
        assert!(b.is_empty());
        b.push(b"x");
        let (count, data) = b.finish();
        assert_eq!(count, 1);
        assert_eq!(&data[..], b"\x01\x00\x00\x00x");
    }

    #[test]
    fn deframer_handles_split_headers_and_bodies() {
        let (_, data) = pack(&[b"hello", b"world!"]);
        let mut d = RecordDeframer::new();
        // Feed one byte at a time: every header and body is split.
        for i in 0..data.len() {
            d.push(data.slice(i..i + 1));
        }
        assert_eq!(&d.next_record().unwrap()[..], b"hello");
        assert_eq!(&d.next_record().unwrap()[..], b"world!");
        assert!(d.next_record().is_none());
        assert!(d.is_empty());
    }

    #[test]
    fn deframer_fast_path_slices_zero_copy() {
        let (_, data) = pack(&[b"abcdef"]);
        let mut d = RecordDeframer::new();
        d.push(data.clone());
        let rec = d.next_record().unwrap();
        assert_eq!(&rec[..], b"abcdef");
        let base = data.as_ptr() as usize;
        assert_eq!(rec.as_ptr() as usize, base + RECORD_HEADER_LEN);
    }

    /// Up to 15 records of up to 63 arbitrary bytes each.
    fn any_records(rng: &mut Lcg) -> Vec<Vec<u8>> {
        (0..rng.below(16))
            .map(|_| (0..rng.below(64)).map(|_| rng.below(256) as u8).collect())
            .collect()
    }

    /// Any records, packed then refragmented at arbitrary boundaries,
    /// deframe back to exactly the original records.
    #[test]
    fn deframer_survives_arbitrary_fragmentation() {
        for seed in 0..256 {
            let mut rng = Lcg(seed);
            let records = any_records(&mut rng);
            let mut b = RecordBatchBuilder::new();
            for r in &records {
                b.push(r);
            }
            let (_, data) = b.finish();
            let mut offsets: Vec<usize> = (0..rng.below(8))
                .map(|_| rng.below(data.len() + 1))
                .collect();
            offsets.push(0);
            offsets.push(data.len());
            offsets.sort_unstable();
            let mut d = RecordDeframer::new();
            let mut out = Vec::new();
            for pair in offsets.windows(2) {
                d.push(data.slice(pair[0]..pair[1]));
                while let Some(rec) = d.next_record() {
                    out.push(rec.to_vec());
                }
            }
            assert_eq!(out, records, "seed {seed}");
            assert!(d.is_empty(), "seed {seed}");
        }
    }

    /// Batches round-trip through the complete-payload iterator.
    #[test]
    fn iter_round_trips_any_batch() {
        for seed in 0..256 {
            let records = any_records(&mut Lcg(seed));
            let mut b = RecordBatchBuilder::new();
            for r in &records {
                b.push(r);
            }
            let (count, data) = b.finish();
            assert_eq!(count as usize, records.len(), "seed {seed}");
            let back = unpack_records(count, data).unwrap();
            let back: Vec<Vec<u8>> = back.iter().map(|r| r.to_vec()).collect();
            assert_eq!(back, records, "seed {seed}");
        }
    }
}
