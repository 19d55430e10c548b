//! CRC32 (IEEE 802.3 polynomial, reflected) implemented in safe Rust.
//!
//! The workspace forbids `unsafe_code` and the WAL crate is deliberately
//! dependency-free, so the checksum is a slicing-by-16 kernel: sixteen
//! 256-entry `u32` tables (16 KiB, built in a `const fn` into one
//! `static`) fold sixteen input bytes per step, where a one-table
//! bytewise walk makes one dependent lookup per byte.
//!
//! Only the first word of a step depends on the CRC carried in from the
//! previous one. The step folds the other three words first, as a tree
//! of independent lookups, and XORs the carried word's four lookups in
//! last, so the carried value passes through one lookup level and two
//! XORs per sixteen bytes rather than waiting at the end of a linear
//! chain of fifteen. A tail of fewer than sixteen bytes takes one
//! 8-byte step (tables 0–7), one 4-byte step (tables 0–3) and at most
//! three bytewise steps against table 0, so [`Crc32::update`] streams
//! across arbitrary splits. The polynomial and bit order match zlib's
//! `crc32()`, which pins the on-disk format to a well-known reference
//! (check value: `crc32(b"123456789") == 0xCBF4_3926`).

/// Bytes folded per step of the main loop, and the number of tables.
const SLICES: usize = 16;

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][n]` is the CRC
/// state after byte `n` followed by `k` zero bytes.
const fn build_tables() -> [[u32; 256]; SLICES] {
    let mut tables = [[0u32; 256]; SLICES];
    let mut n = 0usize;
    while n < 256 {
        let mut c = n as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][n] = c;
        n += 1;
    }
    let mut k = 1usize;
    while k < SLICES {
        let mut n = 0usize;
        while n < 256 {
            let prev = tables[k - 1][n];
            tables[k][n] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            n += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; SLICES] = build_tables();

/// The four table lookups for one little-endian word whose last byte
/// is `last` positions from the end of its step, XORed as a two-level
/// tree.
#[inline(always)]
fn fold(word: u32, last: usize) -> u32 {
    (TABLES[last + 3][usize::from(word as u8)] ^ TABLES[last + 2][usize::from((word >> 8) as u8)])
        ^ (TABLES[last + 1][usize::from((word >> 16) as u8)]
            ^ TABLES[last][usize::from((word >> 24) as u8)])
}

/// The little-endian word at `bytes[at..at + 4]`.
#[inline(always)]
fn word(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
}

/// CRC32 of `data` in one shot.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.finish()
}

/// Incremental CRC32, for callers that stream data in pieces
/// (e.g. `fsck` checksumming a block extent chunk by chunk).
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    pub fn update(&mut self, data: &[u8]) {
        let mut c = self.state;
        let mut blocks = data.chunks_exact(SLICES);
        for b in &mut blocks {
            // Words 1..3 do not depend on `c`: fold them first, so the
            // carried value meets one lookup level and two XORs.
            let rest = fold(word(b, 4), 8) ^ (fold(word(b, 8), 4) ^ fold(word(b, 12), 0));
            c = fold(word(b, 0) ^ c, 12) ^ rest;
        }
        let mut tail = blocks.remainder();
        if let Some((b, more)) = tail.split_first_chunk::<8>() {
            c = fold(word(b, 0) ^ c, 4) ^ fold(word(b, 4), 0);
            tail = more;
        }
        if let Some((b, more)) = tail.split_first_chunk::<4>() {
            c = fold(word(b, 0) ^ c, 0);
            tail = more;
        }
        for &byte in tail {
            c = TABLES[0][usize::from((c ^ u32::from(byte)) as u8)] ^ (c >> 8);
        }
        self.state = c;
    }

    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use glider_sim::Lcg;

    /// The one-table bytewise walk: the oracle for the sliced kernel.
    fn bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &byte in data {
            c = TABLES[0][((c ^ u32::from(byte)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    fn fill(rng: &mut Lcg, buf: &mut [u8]) {
        for byte in buf {
            *byte = rng.byte();
        }
    }

    #[test]
    fn fixed_vectors_match_zlib() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xFF; 32]), 0xFF6C_AB0B);
    }

    /// Every remainder size on both sides of the 16-byte loop.
    #[test]
    fn every_short_length_matches_the_oracle() {
        let mut rng = Lcg(0x5EED);
        let mut backing = [0u8; 80];
        fill(&mut rng, &mut backing);
        for len in 0..=backing.len() {
            let data = &backing[..len];
            assert_eq!(crc32(data), bytewise(data), "len {len}");
        }
    }

    /// 4 000 random buffers at every start offset 0..16 of one backing
    /// array: neither length nor alignment may matter.
    #[test]
    fn random_buffers_at_every_alignment_match_the_oracle() {
        for seed in 0..250u64 {
            let mut rng = Lcg(seed);
            let mut backing = [0u8; 1024 + 16];
            fill(&mut rng, &mut backing);
            for start in 0..16usize {
                let len = rng.range(0, 1025) as usize;
                let data = &backing[start..start + len];
                assert_eq!(
                    crc32(data),
                    bytewise(data),
                    "seed {seed} start {start} len {len}"
                );
            }
        }
    }

    #[test]
    fn streaming_over_random_splits_matches_one_shot() {
        for seed in 0..500u64 {
            let mut rng = Lcg(seed);
            let mut data = vec![0u8; rng.range(0, 1025) as usize];
            fill(&mut rng, &mut data);
            let mut cuts: Vec<usize> = (0..rng.range(1, 6))
                .map(|_| rng.range(0, data.len() as u64 + 1) as usize)
                .collect();
            cuts.sort_unstable();
            let mut crc = Crc32::new();
            let mut from = 0;
            for &cut in &cuts {
                crc.update(&data[from..cut]);
                from = cut;
            }
            crc.update(&data[from..]);
            assert_eq!(crc.finish(), bytewise(&data), "seed {seed} cuts {cuts:?}");
        }
    }

    /// Two updates split at every point of 48 bytes: each half ends in
    /// every mix of 16-, 8-, 4- and 1-byte steps, and the second starts
    /// from a state the first left mid-stream.
    #[test]
    fn streaming_split_at_every_point_matches_one_shot() {
        let mut rng = Lcg(0x7A11);
        let mut data = [0u8; 48];
        fill(&mut rng, &mut data);
        let expected = bytewise(&data);
        assert_eq!(crc32(&data), expected);
        for cut in 0..=data.len() {
            let mut crc = Crc32::new();
            crc.update(&data[..cut]);
            crc.update(&data[cut..]);
            assert_eq!(crc.finish(), expected, "cut {cut}");
        }
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let base = crc32(b"glider");
        let mut data = *b"glider";
        data[2] ^= 0x01;
        assert_ne!(crc32(&data), base);
    }
}
