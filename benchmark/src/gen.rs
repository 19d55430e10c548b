//! Seeded input generation. Everything a workload feeds into a layer
//! comes from [`SplitMix64`] keyed by `--seed`, so the same seed gives
//! byte-identical inputs on every run and machine.

/// SplitMix64 (Steele, Lea, Flood 2014): one add and two multiply-xorshift
/// rounds per output. `glider_util::textgen` needs `rand`, which does not
/// resolve offline, so the benchmark carries its own generator.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for one named input stream of one run, so adding a
    /// stream never shifts the values another stream sees.
    pub fn stream(seed: u64, name: &str, lane: u64) -> SplitMix64 {
        let mix = seed ^ lane.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ checksum(name.as_bytes());
        let mut rng = SplitMix64(mix);
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; the modulo bias is below 2^-40 for every `n`
    /// used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn fill(&mut self, out: &mut [u8]) {
        let mut chunks = out.chunks_exact_mut(8);
        for chunk in chunks.by_ref() {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let tail = self.next_u64().to_le_bytes();
        let rest = chunks.into_remainder();
        let n = rest.len();
        rest.copy_from_slice(&tail[..n]);
    }
}

/// `len` bytes of lowercase words of 1–10 letters, separated by single
/// spaces with a newline after roughly every twelfth word (lines of
/// about 80 bytes). The last byte is always `\n`.
pub fn text(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + 16);
    while out.len() < len {
        let mut r = rng.next_u64();
        let word_len = 1 + (r % 10) as usize;
        r >>= 4;
        for _ in 0..word_len {
            out.push(b'a' + ((r & 31) % 26) as u8);
            r >>= 5;
        }
        out.push(if r.is_multiple_of(12) { b'\n' } else { b' ' });
    }
    out.truncate(len);
    if let Some(last) = out.last_mut() {
        *last = b'\n';
    }
    out
}

/// About `len` bytes of `key,value\n` lines with keys uniform in
/// `[0, distinct_keys)` and values in `[-1000, 1000)`. Ends on a line
/// boundary, so the buffer can be cycled without splicing two lines.
pub fn kv_lines(rng: &mut SplitMix64, len: usize, distinct_keys: u64) -> Vec<u8> {
    use std::io::Write;
    let mut out = Vec::with_capacity(len + 32);
    while out.len() < len {
        let r = rng.next_u64();
        let key = r % distinct_keys;
        let value = ((r >> 40) % 2000) as i64 - 1000;
        writeln!(out, "{key},{value}").expect("write to Vec");
    }
    out
}

/// `records` sort records of `record_len` random bytes each (the sort
/// key is the record's prefix, as in the paper's sort workload).
pub fn sort_records(rng: &mut SplitMix64, records: usize, record_len: usize) -> Vec<u8> {
    let mut out = vec![0u8; records * record_len];
    rng.fill(&mut out);
    out
}

/// `n` namespace paths over `top_level` first components, the shape
/// `shard_of` routes on.
pub fn paths(rng: &mut SplitMix64, n: usize, top_level: u64) -> Vec<String> {
    (0..n)
        .map(|_| {
            let r = rng.next_u64();
            format!("/job{}/shuffle/part-{}", r % top_level, (r >> 32) % 100_000)
        })
        .collect()
}

/// FNV-1a over a byte stream; used to compare generated inputs between
/// runs without holding two copies.
pub fn checksum(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_inputs(seed: u64) -> Vec<u64> {
        vec![
            checksum(&text(&mut SplitMix64::stream(seed, "text", 0), 1 << 16)),
            checksum(&kv_lines(
                &mut SplitMix64::stream(seed, "kv", 0),
                1 << 16,
                1000,
            )),
            checksum(&sort_records(
                &mut SplitMix64::stream(seed, "sort", 0),
                500,
                100,
            )),
            checksum(
                paths(&mut SplitMix64::stream(seed, "paths", 0), 100, 64)
                    .concat()
                    .as_bytes(),
            ),
        ]
    }

    #[test]
    fn same_seed_same_inputs_different_seed_different_inputs() {
        assert_eq!(all_inputs(7), all_inputs(7));
        for (a, b) in all_inputs(7).iter().zip(all_inputs(8)) {
            assert_ne!(*a, b);
        }
    }

    #[test]
    fn lanes_and_names_are_independent_streams() {
        let a = SplitMix64::stream(1, "x", 0).next_u64();
        assert_ne!(a, SplitMix64::stream(1, "x", 1).next_u64());
        assert_ne!(a, SplitMix64::stream(1, "y", 0).next_u64());
    }

    #[test]
    fn generators_keep_their_shape() {
        let t = text(&mut SplitMix64::stream(3, "shape", 0), 4096);
        assert_eq!(t.len(), 4096);
        assert_eq!(t.last(), Some(&b'\n'));
        assert!(t
            .iter()
            .all(|b| b.is_ascii_lowercase() || *b == b' ' || *b == b'\n'));

        let kv = kv_lines(&mut SplitMix64::stream(3, "shape", 0), 4096, 50);
        assert_eq!(kv.last(), Some(&b'\n'));
        for line in kv.split(|b| *b == b'\n').filter(|l| !l.is_empty()) {
            let line = std::str::from_utf8(line).unwrap();
            let (k, v) = line.split_once(',').unwrap();
            assert!(k.parse::<i64>().unwrap() < 50);
            assert!((-1000..1000).contains(&v.parse::<i64>().unwrap()));
        }

        let mut buf = [0u8; 13];
        SplitMix64::stream(3, "shape", 0).fill(&mut buf);
        assert!(buf.iter().any(|b| *b != 0));
    }
}
