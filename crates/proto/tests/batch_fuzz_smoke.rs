//! Dependency-free fuzz smoke for the record batching layer.
//!
//! A deterministic LCG drives a few thousand adversarial inputs through
//! [`RecordBatchIter`]/[`unpack_records`] and [`RecordDeframer`]:
//! truncated headers and bodies, counts that disagree with the payload,
//! zero-count batches with leftover bytes, random garbage, and valid
//! batches refragmented at hostile boundaries. The contract under test
//! is *error, not panic*: malformed wire input must surface as a
//! `CodecError` (or as bytes parked in the deframer) and never as a
//! panic, wraparound, or runaway allocation. Seeds are fixed, so a
//! failure reproduces exactly.

use bytes::Bytes;
use glider_proto::batch::{
    unpack_records, RecordBatchBuilder, RecordBatchIter, RecordDeframer, RECORD_HEADER_LEN,
};
use glider_sim::Lcg;

/// `len` seeded bytes.
fn bytes(rng: &mut Lcg, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.byte()).collect()
}

fn build_batch(rng: &mut Lcg, max_records: usize, max_len: usize) -> (u32, Bytes) {
    let mut b = RecordBatchBuilder::new();
    for _ in 0..rng.below(max_records + 1) {
        let len = rng.below(max_len + 1);
        let record = bytes(rng, len);
        b.push(&record);
    }
    b.finish()
}

/// Drains an iterator, counting records until the first error; returns
/// `(records, saw_error)`. Panics in here are the failure under test.
fn drain(data: Bytes) -> (usize, bool) {
    let mut n = 0;
    for r in RecordBatchIter::new(data) {
        match r {
            Ok(_) => n += 1,
            Err(_) => return (n, true),
        }
    }
    (n, false)
}

#[test]
fn truncated_batches_error_instead_of_panicking() {
    let mut rng = Lcg(0x5eed_0001);
    for _ in 0..2000 {
        let (count, data) = build_batch(&mut rng, 8, 32);
        if data.is_empty() {
            continue;
        }
        // Cut the payload anywhere strictly inside; unless the cut lands
        // exactly on a record boundary, iteration must end in an error —
        // and a boundary cut must then fail the count check instead.
        let cut = rng.below(data.len());
        let torn = data.slice(..cut);
        let (records, saw_error) = drain(torn.clone());
        assert!(records as u32 <= count);
        if !saw_error {
            assert!(
                unpack_records(count, torn).is_err(),
                "a clean-boundary truncation must fail the count check"
            );
        }
    }
}

#[test]
fn count_mismatches_are_rejected() {
    let mut rng = Lcg(0x5eed_0002);
    for _ in 0..2000 {
        let (count, data) = build_batch(&mut rng, 8, 32);
        // Any claimed count other than the real one must error, including
        // zero-count claims over a non-empty payload.
        let lie = (count + 1 + rng.below(4) as u32) % (count + 5);
        if lie == count {
            continue;
        }
        assert!(
            unpack_records(lie, data.clone()).is_err(),
            "count {lie} accepted for a {count}-record payload"
        );
    }
    // The degenerate zero cases hold exactly.
    assert!(unpack_records(0, Bytes::new()).unwrap().is_empty());
    assert!(unpack_records(1, Bytes::new()).is_err());
}

#[test]
fn random_garbage_never_panics_the_iterator() {
    let mut rng = Lcg(0x5eed_0003);
    for _ in 0..2000 {
        let len = rng.below(200);
        let garbage = Bytes::from(bytes(&mut rng, len));
        // Most garbage has a wild length prefix; all of it must come out
        // as records + at most one error, with no panic.
        let _ = drain(garbage.clone());
        let _ = unpack_records(rng.below(16) as u32, garbage);
    }
}

#[test]
fn flipped_length_prefixes_error_or_reframe_but_never_panic() {
    let mut rng = Lcg(0x5eed_0004);
    for _ in 0..2000 {
        let (_, data) = build_batch(&mut rng, 6, 24);
        if data.len() < RECORD_HEADER_LEN {
            continue;
        }
        // Corrupt one byte — often a length prefix, sometimes a body
        // byte. The result may still parse (body corruption, or a length
        // that happens to re-frame the tail), but must never panic and
        // must never yield more payload bytes than exist.
        let mut raw = data.to_vec();
        let at = rng.below(raw.len());
        raw[at] ^= 1 << rng.below(8);
        let corrupted = Bytes::from(raw);
        let total = corrupted.len();
        let mut yielded = 0;
        for r in RecordBatchIter::new(corrupted) {
            match r {
                Ok(rec) => yielded += RECORD_HEADER_LEN + rec.len(),
                Err(_) => break,
            }
        }
        assert!(yielded <= total, "iterator yielded bytes out of thin air");
    }
}

#[test]
fn deframer_survives_hostile_fragmentation() {
    let mut rng = Lcg(0x5eed_0005);
    for _ in 0..500 {
        let (count, data) = build_batch(&mut rng, 8, 32);
        // Refragment at random boundaries, including empty fragments.
        let mut d = RecordDeframer::new();
        let mut fed = 0;
        let mut records = 0;
        while fed < data.len() {
            let n = rng.below(data.len() - fed + 1);
            d.push(data.slice(fed..fed + n));
            fed += n;
            while d.next_record().is_some() {
                records += 1;
            }
        }
        while d.next_record().is_some() {
            records += 1;
        }
        assert_eq!(records, count);
        assert!(d.is_empty(), "clean stream must drain the deframer");
    }
}

#[test]
fn deframer_parks_torn_trailing_records_without_panicking() {
    let mut rng = Lcg(0x5eed_0006);
    for _ in 0..500 {
        let (_, data) = build_batch(&mut rng, 4, 16);
        if data.is_empty() {
            continue;
        }
        let cut = 1 + rng.below(data.len() - 1).min(data.len() - 1);
        let mut d = RecordDeframer::new();
        d.push(data.slice(..cut));
        while d.next_record().is_some() {}
        // A giant bogus length prefix in the tail just waits for bytes
        // that never come; either way the deframer reports the tear.
        if cut < data.len() {
            assert!(
                !d.is_empty() || record_boundary(&data, cut),
                "torn tail at {cut} vanished silently"
            );
        }
    }
}

/// True when `cut` lands exactly between records of a packed payload.
fn record_boundary(data: &Bytes, cut: usize) -> bool {
    let mut at = 0;
    while at < data.len() {
        if at == cut {
            return true;
        }
        let len = u32::from_le_bytes(data[at..at + RECORD_HEADER_LEN].try_into().unwrap());
        at += RECORD_HEADER_LEN + len as usize;
    }
    at == cut
}
