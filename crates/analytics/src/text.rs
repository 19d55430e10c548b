//! Text helpers shared by the workloads: a word counter over chunk
//! streams, a record-key parser and an order-independent checksum.
//!
//! Splitting a chunk stream into lines is the `LineScanner` kernel
//! ([`crate::kernels`]); [`WordCounter`] delegates to its `count_words`
//! kernel too. Both are property-tested there against scalar loops.

use crate::kernels;

/// Counts whitespace-separated words in a byte chunk stream, tolerating
/// words split across chunk boundaries.
#[derive(Debug, Default)]
pub struct WordCounter {
    count: u64,
    in_word: bool,
}

impl WordCounter {
    /// Creates a counter.
    pub fn new() -> Self {
        WordCounter::default()
    }

    /// Feeds a chunk ([`kernels::count_words`]: classify, then count, one
    /// 128-byte block at a time).
    pub fn push(&mut self, chunk: &[u8]) {
        let (added, in_word) = kernels::count_words(chunk, self.in_word);
        self.count += added;
        self.in_word = in_word;
    }

    /// Total words seen.
    pub fn count(&self) -> u64 {
        self.count
    }
}

/// Parses the leading decimal integer (up to the first `,` or the end) of
/// a record line without allocating.
pub fn leading_i64(line: &[u8]) -> Option<i64> {
    let end = line.iter().position(|&b| b == b',').unwrap_or(line.len());
    if end == 0 || end > 18 {
        return None;
    }
    let mut value: i64 = 0;
    for &b in &line[..end] {
        if !b.is_ascii_digit() {
            return None;
        }
        value = value * 10 + i64::from(b - b'0');
    }
    Some(value)
}

/// Order-independent checksum of items (for validating that two
/// implementations produced the same multiset of records/lines).
pub fn multiset_checksum<'a>(items: impl Iterator<Item = &'a [u8]>) -> u64 {
    items
        .map(|item| {
            // FNV-1a per item, combined by wrapping addition (commutative).
            let mut hash: u64 = 0xcbf29ce484222325;
            for &b in item {
                hash ^= b as u64;
                hash = hash.wrapping_mul(0x100000001b3);
            }
            hash
        })
        .fold(0u64, |acc, h| acc.wrapping_add(h))
}

#[cfg(test)]
mod tests {
    use super::*;
    use glider_sim::{seeds, Lcg};

    #[test]
    fn word_counter_across_chunks() {
        let mut w = WordCounter::new();
        w.push(b"hello wor");
        w.push(b"ld  and");
        w.push(b" more\n");
        assert_eq!(w.count(), 4);
        let mut empty = WordCounter::new();
        empty.push(b"   \n\t ");
        assert_eq!(empty.count(), 0);
    }

    #[test]
    fn leading_i64_parses_and_rejects() {
        assert_eq!(leading_i64(b"123,rest"), Some(123));
        assert_eq!(leading_i64(b"0"), Some(0));
        assert_eq!(leading_i64(b",x"), None);
        assert_eq!(leading_i64(b"12a,x"), None);
        assert_eq!(leading_i64(b""), None);
        assert_eq!(leading_i64(b"99999999999999999999999,x"), None); // too long
    }

    #[test]
    fn multiset_checksum_is_order_independent() {
        let a: Vec<&[u8]> = vec![b"one", b"two", b"three"];
        let b: Vec<&[u8]> = vec![b"three", b"one", b"two"];
        let c: Vec<&[u8]> = vec![b"one", b"two", b"four"];
        assert_eq!(
            multiset_checksum(a.iter().copied()),
            multiset_checksum(b.iter().copied())
        );
        assert_ne!(
            multiset_checksum(a.iter().copied()),
            multiset_checksum(c.iter().copied())
        );
    }

    /// Appending a byte to any one record changes the checksum. It is
    /// not cryptographic, but a single-record change must be caught.
    #[test]
    fn multiset_checksum_detects_any_single_change() {
        for seed in seeds(1..=8) {
            let mut rng = Lcg(seed);
            for case in 0..4 {
                let count = rng.range(2, 20);
                let mut records: Vec<Vec<u8>> = (0..count)
                    .map(|_| {
                        let len = rng.range(4, 8);
                        (0..len).map(|_| rng.byte()).collect()
                    })
                    .collect();
                let original = multiset_checksum(records.iter().map(Vec::as_slice));
                let i = rng.below(records.len());
                records[i].push(0xFF);
                assert_ne!(
                    original,
                    multiset_checksum(records.iter().map(Vec::as_slice)),
                    "seed {seed} case {case}: record {i} grew a byte"
                );
            }
        }
    }
}
