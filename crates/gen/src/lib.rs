//! Seeded synthetic inputs for the paper's experiments.
//!
//! The paper evaluates on Wikipedia text dumps, random numeric pairs,
//! gensort-style sort datasets and genome alignments. They are reproduced
//! here as deterministic generators that keep the properties the
//! experiments depend on:
//!
//! - [`TextGen`]: prose-like lines, a chosen fraction of which carry
//!   [`FILTER_MARKER`] (Table 2's filter selectivity);
//! - [`PairGen`]: `key,value` lines over a fixed key cardinality (Fig. 5);
//! - [`RecordGen`]: fixed-width sort records with uniform keys (Fig. 7);
//! - [`generate_map_records`]: one genomics mapper's alignment records
//!   (Fig. 9).
//!
//! Every generator draws from [`SplitMix64`], the benchmark's generator,
//! so one seed gives byte-identical inputs on every run and machine.
//!
//! ```
//! use glider_gen::{TextGen, FILTER_MARKER};
//!
//! let text = TextGen::new(42, 0.5).generate_bytes(4096);
//! assert!(text.len() >= 4096 && text.ends_with(b"\n"));
//! let marker = FILTER_MARKER.as_bytes();
//! assert!(text.windows(marker.len()).any(|w| w == marker));
//! ```

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )
)]

use std::io::Write;

/// SplitMix64 (Steele, Lea, Flood 2014): one add and two multiply-xorshift
/// rounds per output. The same stream as `benchmark/src/gen.rs`'s, so an
/// input moved between the two does not change.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for one named input stream of one run, so adding a
    /// stream never shifts the values another stream sees.
    pub fn stream(seed: u64, name: &str, lane: u64) -> SplitMix64 {
        let mix = seed ^ lane.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ fnv1a(name.as_bytes());
        let mut rng = SplitMix64(mix);
        rng.next_u64();
        rng
    }

    /// The next draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` (`n` > 0); the modulo bias is below 2^-40 for
    /// every `n` used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fills `out` with draws, little-endian, eight bytes per draw.
    pub fn fill(&mut self, out: &mut [u8]) {
        let mut chunks = out.chunks_exact_mut(8);
        for chunk in chunks.by_ref() {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let tail = self.next_u64().to_le_bytes();
        for (byte, draw) in chunks.into_remainder().iter_mut().zip(tail) {
            *byte = draw;
        }
    }

    /// True with probability `p`: a 53-bit draw below `p`, so 0 is never
    /// and 1 is always.
    fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
    }
}

/// FNV-1a, which keys [`SplitMix64::stream`] by its name.
fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// A small vocabulary used to synthesize prose-like lines.
const VOCAB: &[&str] = &[
    "serverless",
    "function",
    "storage",
    "ephemeral",
    "data",
    "stream",
    "action",
    "stateful",
    "compute",
    "near",
    "shuffle",
    "aggregate",
    "block",
    "namespace",
    "metadata",
    "kernel",
    "tenant",
    "elastic",
    "pipeline",
    "transfer",
    "network",
    "latency",
    "bandwidth",
    "worker",
    "stage",
    "reduce",
    "map",
    "sort",
    "genome",
    "variant",
    "cloud",
    "object",
];

/// Marker token in the lines that pass the Table 2 filter. It is upper
/// case and the vocabulary is not, so no line carries it by chance.
pub const FILTER_MARKER: &str = "GLIDERHIT";

/// Generates line-oriented text where a chosen fraction of lines carry
/// [`FILTER_MARKER`].
#[derive(Debug)]
pub struct TextGen {
    rng: SplitMix64,
    selectivity: f64,
}

impl TextGen {
    /// Creates a generator; `selectivity` is the fraction of lines carrying
    /// the filter marker (clamped to `[0, 1]`).
    pub fn new(seed: u64, selectivity: f64) -> Self {
        TextGen {
            rng: SplitMix64::stream(seed, "marker-text", 0),
            selectivity: selectivity.clamp(0.0, 1.0),
        }
    }

    /// Appends one line of 6–12 vocabulary words, then the marker with
    /// probability `selectivity`, then `\n`.
    fn line(&mut self, out: &mut Vec<u8>) {
        let words = 6 + self.rng.below(7);
        for i in 0..words {
            if i > 0 {
                out.push(b' ');
            }
            if let Some(word) = VOCAB.get(self.rng.below(VOCAB.len() as u64) as usize) {
                out.extend_from_slice(word.as_bytes());
            }
        }
        if self.rng.chance(self.selectivity) {
            out.push(b' ');
            out.extend_from_slice(FILTER_MARKER.as_bytes());
        }
        out.push(b'\n');
    }

    /// Generates whole lines until there are at least `min_bytes`.
    pub fn generate_bytes(&mut self, min_bytes: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(min_bytes + 128);
        while out.len() < min_bytes {
            self.line(&mut out);
        }
        out
    }
}

/// Generates `key,value` CSV lines with keys uniform in
/// `0..key_cardinality` and values spanning the full `i64` range, matching
/// the Fig. 5 workload (1024 distinct integer keys, Java `Long` values).
#[derive(Debug)]
pub struct PairGen {
    rng: SplitMix64,
    key_cardinality: u64,
}

impl PairGen {
    /// Creates a pair generator with the given key cardinality (0 is taken
    /// as 1).
    pub fn new(seed: u64, key_cardinality: u64) -> Self {
        PairGen {
            rng: SplitMix64::stream(seed, "pairs", 0),
            key_cardinality: key_cardinality.max(1),
        }
    }

    /// Generates `n` `key,value\n` lines into one buffer.
    pub fn generate_pairs(&mut self, n: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(n * 24);
        for _ in 0..n {
            let key = self.rng.below(self.key_cardinality);
            let value = self.rng.next_u64() as i64;
            // Writing into a `Vec` cannot fail.
            let _ = writeln!(out, "{key},{value}");
        }
        out
    }
}

/// The fixed record width of the sort workload (paper §7.3 uses
/// gensort-style datasets: 100-byte records with 10-byte keys).
pub const SORT_RECORD_LEN: usize = 100;
/// The key width within a sort record.
pub const SORT_KEY_LEN: usize = 10;

/// Generates fixed-width binary sort records with uniform random keys.
#[derive(Debug)]
pub struct RecordGen {
    rng: SplitMix64,
}

impl RecordGen {
    /// Creates a record generator.
    pub fn new(seed: u64) -> Self {
        RecordGen {
            rng: SplitMix64::stream(seed, "records", 0),
        }
    }

    /// Generates `n` records (`n * SORT_RECORD_LEN` bytes). Keys are
    /// uniform random bytes; payloads are printable ASCII (`' '..='~'`).
    pub fn generate_records(&mut self, n: usize) -> Vec<u8> {
        let mut out = vec![0u8; n * SORT_RECORD_LEN];
        for record in out.chunks_exact_mut(SORT_RECORD_LEN) {
            self.rng.fill(record);
            let (_key, payload) = record.split_at_mut(SORT_KEY_LEN);
            for byte in payload {
                *byte = b' ' + *byte % 95;
            }
        }
        out
    }
}

/// One in `SAMPLE_RATE` alignment records carries the sample flag the
/// genomics pipeline derives its reducer ranges from.
pub const SAMPLE_RATE: usize = 100;

/// Generates the alignment records one mapper `(fasta_chunk, fastq_chunk)`
/// emits: CSV lines `pos,read_id,flag` with positions uniform in
/// `[0, span)` and every [`SAMPLE_RATE`]-th record flagged `s` (the others
/// `.`).
pub fn generate_map_records(
    seed: u64,
    fasta_chunk: usize,
    fastq_chunk: usize,
    records: usize,
    span: i64,
) -> Vec<u8> {
    let lane = ((fasta_chunk as u64) << 32) ^ fastq_chunk as u64;
    let mut rng = SplitMix64::stream(seed, "genomics", lane);
    let span = span.max(1) as u64;
    let mut out = Vec::with_capacity(records * 20);
    for n in 0..records {
        let pos = rng.below(span);
        let read_id = rng.next_u64() as u32;
        let flag = if (n + 1) % SAMPLE_RATE == 0 { 's' } else { '.' };
        // Writing into a `Vec` cannot fail.
        let _ = writeln!(out, "{pos},{read_id:08x},{flag}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(bytes: &[u8]) -> Vec<&[u8]> {
        bytes
            .split(|&b| b == b'\n')
            .filter(|l| !l.is_empty())
            .collect()
    }

    fn has_marker(line: &[u8]) -> bool {
        let marker = FILTER_MARKER.as_bytes();
        line.windows(marker.len()).any(|w| w == marker)
    }

    /// At least `n` lines of marker text (lines average under 100
    /// bytes), as `(lines, lines with the marker)`.
    fn marker_count(seed: u64, selectivity: f64, n: usize) -> (usize, usize) {
        let text = TextGen::new(seed, selectivity).generate_bytes(n * 100);
        let all = lines(&text);
        assert!(all.len() >= n, "{} lines", all.len());
        (all.len(), all.iter().filter(|l| has_marker(l)).count())
    }

    #[test]
    fn the_stream_is_pinned_to_the_benchmarks() {
        // Drawn from `benchmark/src/gen.rs`'s `SplitMix64` for the same
        // `(seed, name, lane)`.
        let draws = |seed, name, lane| {
            let mut rng = SplitMix64::stream(seed, name, lane);
            (0..4).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(
            draws(1, "text", 0),
            [
                8796472853332099899,
                8221873905027398161,
                8203577026747703013,
                15578232594394734818
            ]
        );
        assert_eq!(
            draws(7, "kv", 3),
            [
                15097177264541400109,
                5480667812965400206,
                13631585324254736278,
                15249440818151034974
            ]
        );
        assert_eq!(
            draws(0, "", 0),
            [
                1156539639830188822,
                6107907394010225435,
                3199123669689638002,
                7288325018142838421
            ]
        );
        let mut rng = SplitMix64::stream(42, "fill", 1);
        let mut buf = [0u8; 13];
        rng.fill(&mut buf);
        assert_eq!(
            buf,
            [85, 244, 229, 8, 245, 163, 190, 218, 130, 31, 65, 114, 100]
        );
        assert_eq!(rng.below(1000), 783);
    }

    #[test]
    fn the_marker_rate_lies_within_five_sigma_of_the_selectivity() {
        // Lines carry the marker independently, so the count is
        // binomial(n, p): a 5σ miss has odds under 1 in 10^6.
        for (seed, p) in [(1, 0.0025), (2, 0.25)] {
            let (n, hits) = marker_count(seed, p, 100_000);
            let mean = n as f64 * p;
            let sigma = (n as f64 * p * (1.0 - p)).sqrt();
            assert!(
                (hits as f64 - mean).abs() <= 5.0 * sigma,
                "selectivity {p}: {hits} of {n} lines carry the marker, {mean} ± {}",
                5.0 * sigma
            );
        }
    }

    #[test]
    fn selectivity_zero_marks_no_line_and_one_marks_every_line() {
        assert_eq!(marker_count(3, 0.0, 1000).1, 0);
        let (n, hits) = marker_count(3, 1.0, 1000);
        assert_eq!(hits, n);
        // Out-of-range selectivities clamp.
        assert_eq!(marker_count(3, -1.0, 1000).1, 0);
        let (n, hits) = marker_count(3, 7.0, 1000);
        assert_eq!(hits, n);
    }

    #[test]
    fn text_is_whole_lines_of_six_to_twelve_words() {
        let text = TextGen::new(4, 0.5).generate_bytes(50_000);
        assert!(text.len() >= 50_000);
        assert_eq!(text.last(), Some(&b'\n'));
        for line in lines(&text) {
            let words = line.split(|&b| b == b' ').count() - usize::from(has_marker(line));
            assert!((6..=12).contains(&words), "{words} words");
        }
    }

    #[test]
    fn every_generator_is_deterministic_per_seed() {
        let text = |seed| TextGen::new(seed, 0.1).generate_bytes(10_000);
        let pairs = |seed| PairGen::new(seed, 16).generate_pairs(500);
        let records = |seed| RecordGen::new(seed).generate_records(64);
        let genomics = |seed| generate_map_records(seed, 2, 3, 500, 10_000);
        for seed in [7, 8] {
            assert_eq!(text(seed), text(seed));
            assert_eq!(pairs(seed), pairs(seed));
            assert_eq!(records(seed), records(seed));
            assert_eq!(genomics(seed), genomics(seed));
        }
        assert_ne!(text(7), text(8));
        assert_ne!(pairs(7), pairs(8));
        assert_ne!(records(7), records(8));
        assert_ne!(genomics(7), genomics(8));
        // A mapper's chunks are streams of their own.
        assert_ne!(
            generate_map_records(1, 2, 3, 500, 10_000),
            generate_map_records(1, 2, 4, 500, 10_000)
        );
        assert_ne!(
            generate_map_records(1, 2, 3, 500, 10_000),
            generate_map_records(1, 3, 2, 500, 10_000)
        );
    }

    #[test]
    fn pairs_parse_with_keys_below_the_cardinality_and_both_signs() {
        let buf = PairGen::new(3, 16).generate_pairs(1000);
        let (mut negative, mut positive) = (0, 0);
        let mut keys = std::collections::BTreeSet::new();
        for line in lines(&buf) {
            let line = std::str::from_utf8(line).unwrap();
            let (k, v) = line.split_once(',').unwrap();
            let k: u64 = k.parse().unwrap();
            let v: i64 = v.parse().unwrap();
            assert!(k < 16, "key {k}");
            keys.insert(k);
            if v < 0 {
                negative += 1;
            } else {
                positive += 1;
            }
        }
        assert_eq!(negative + positive, 1000);
        assert_eq!(keys.len(), 16, "1000 draws reach every key");
        assert!(negative > 300 && positive > 300, "{negative} / {positive}");
        // A zero cardinality is one key.
        let buf = PairGen::new(3, 0).generate_pairs(10);
        assert!(lines(&buf).iter().all(|l| l.starts_with(b"0,")));
    }

    #[test]
    fn records_are_fixed_width_with_printable_payloads() {
        let data = RecordGen::new(5).generate_records(256);
        assert_eq!(data.len(), 256 * SORT_RECORD_LEN);
        let mut keys = std::collections::BTreeSet::new();
        for record in data.chunks(SORT_RECORD_LEN) {
            let (key, payload) = record.split_at(SORT_KEY_LEN);
            keys.insert(key);
            assert!(payload.iter().all(|b| (b' '..=b'~').contains(b)));
        }
        assert_eq!(keys.len(), 256, "10-byte random keys do not collide");
        assert!(RecordGen::new(5).generate_records(0).is_empty());
    }

    #[test]
    fn every_sample_rate_th_genomics_record_is_flagged_and_positions_are_in_the_span() {
        let records = 10 * SAMPLE_RATE + 7;
        for span in [1, 1000, 10_000] {
            let text = generate_map_records(1, 0, 5, records, span);
            let text = std::str::from_utf8(&text).unwrap();
            let lines: Vec<&str> = text.lines().collect();
            assert_eq!(lines.len(), records);
            for (n, line) in lines.iter().enumerate() {
                let fields: Vec<&str> = line.split(',').collect();
                assert_eq!(fields.len(), 3, "{line}");
                let pos: i64 = fields[0].parse().unwrap();
                assert!((0..span).contains(&pos), "{pos} outside 0..{span}");
                assert_eq!(fields[1].len(), 8);
                assert!(u32::from_str_radix(fields[1], 16).is_ok());
                let flagged = (n + 1) % SAMPLE_RATE == 0;
                assert_eq!(fields[2], if flagged { "s" } else { "." }, "record {n}");
            }
        }
        // A span below one puts every record at position 0.
        let text = generate_map_records(1, 0, 0, 10, 0);
        assert!(lines(&text).iter().all(|l| l.starts_with(b"0,")));
    }
}
