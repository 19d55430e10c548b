//! `LineScanner` and `LineFilter` against their oracles: seeded and
//! fixed texts, cut at every single point and at seeded multi-point cuts
//! with 1-byte (and empty) chunks, must split like `split` on `\n` and
//! filter like `str::contains`. Table 2's own input, `glider-gen`'s
//! marker text, must filter like a window search.

use glider_gen::{TextGen, FILTER_MARKER};
use glider_kernels::{LineFilter, LineScanner};
use glider_sim::Lcg;

/// The lines `LineScanner` must produce: `split` on `\n`, less the empty
/// piece after a final `\n` (or of an empty text).
fn oracle_lines(text: &[u8]) -> Vec<&[u8]> {
    let mut lines: Vec<&[u8]> = text.split(|b| *b == b'\n').collect();
    if lines.last().is_some_and(|l| l.is_empty()) {
        lines.pop();
    }
    lines
}

/// What `LineFilter` must keep: the oracle lines `str::contains`
/// accepts, each followed by `\n`.
fn oracle_kept(text: &[u8], pattern: &str) -> Vec<u8> {
    let mut kept = Vec::new();
    for line in oracle_lines(text) {
        if std::str::from_utf8(line).expect("ASCII").contains(pattern) {
            kept.extend_from_slice(line);
            kept.push(b'\n');
        }
    }
    kept
}

/// Feeds `text`, cut at the ascending offsets `cuts`, to a `LineScanner`
/// and a `LineFilter` for `pattern`, and compares both with their
/// oracles.
fn assert_scans_like_oracles(text: &[u8], cuts: &[usize], pattern: &str, case: &str) {
    let mut scanner = LineScanner::new();
    let mut filter = LineFilter::new(pattern.as_bytes());
    let (mut lines, mut kept) = (Vec::new(), Vec::new());
    let mut from = 0;
    for &to in cuts.iter().chain([&text.len()]) {
        scanner.push(&text[from..to], |l| lines.push(l.to_vec()));
        filter.push_chunk(&text[from..to], &mut kept);
        from = to;
    }
    scanner.finish(|l| lines.push(l.to_vec()));
    filter.finish(&mut kept);
    let text_str = String::from_utf8_lossy(text);
    let at = format!("{case}: {text_str:?} cut at {cuts:?}");
    assert_eq!(lines, oracle_lines(text), "{at}");
    assert_eq!(
        kept,
        oracle_kept(text, pattern),
        "{at}, pattern {pattern:?}"
    );
}

/// Patterns over the seeded texts' alphabet: empty, one byte, ones that
/// need two words, and one longer than any line.
const PATTERNS: [&str; 6] = ["", "a", "ab", "b a", "aba", "abababababababab"];

/// Fixed texts (empty lines, no final `\n`, only newlines) and seeded
/// ones over `a`, `b`, space and `\n`: short lines, so most patterns
/// straddle some cut.
fn texts() -> Vec<Vec<u8>> {
    let fixed: [&[u8]; 6] = [
        b"",
        b"\n",
        b"\n\n",
        b"a\nbc\n\nd",
        b"one\ntwo split across\nchunks\nand a tail",
        b"ab\n\naba\nb a b\n",
    ];
    let mut texts: Vec<Vec<u8>> = fixed.iter().map(|t| t.to_vec()).collect();
    for seed in 0..96 {
        let mut rng = Lcg(seed);
        let len = rng.range(0, 48);
        texts.push(
            (0..len)
                .map(|_| b"ab \n"[rng.range(0, 4) as usize])
                .collect(),
        );
    }
    texts
}

#[test]
fn scanner_and_filter_match_oracles_at_every_cut() {
    for (t, text) in texts().iter().enumerate() {
        for cut in 0..=text.len() {
            for pattern in PATTERNS {
                assert_scans_like_oracles(text, &[cut], pattern, &format!("text {t}"));
            }
        }
    }
}

#[test]
fn scanner_and_filter_match_oracles_at_seeded_cuts() {
    for (t, text) in texts().iter().enumerate() {
        for seed in 0..16 {
            let mut rng = Lcg(seed);
            // Chunks of 0 to 9 bytes, a third of them exactly 1.
            let mut cuts = Vec::new();
            let mut at = 0;
            loop {
                at += match rng.range(0, 3) {
                    0 => 1,
                    _ => rng.range(0, 10) as usize,
                };
                if at >= text.len() {
                    break;
                }
                cuts.push(at);
            }
            let pattern = PATTERNS[rng.range(0, PATTERNS.len() as u64) as usize];
            let case = format!("text {t}, seed {seed}");
            assert_scans_like_oracles(text, &cuts, pattern, &case);
        }
    }
}

/// Table 2's filter over its input: at least 10^5 lines of marker text
/// at 0.25 % selectivity, fed in 16 KiB chunks as storage reads them,
/// keep byte for byte the lines a window search finds the marker in.
/// Selectivity 0 keeps nothing and 1 keeps the whole text.
#[test]
fn the_filter_keeps_table_two_marker_lines_like_a_window_search() {
    let marker = FILTER_MARKER.as_bytes();
    let filter = |text: &[u8]| {
        let mut filter = LineFilter::new(marker);
        let mut kept = Vec::new();
        for chunk in text.chunks(16 * 1024) {
            filter.push_chunk(chunk, &mut kept);
        }
        filter.finish(&mut kept);
        kept
    };
    let lines = |text: &[u8]| text.iter().filter(|&&b| b == b'\n').count();

    let text = TextGen::new(1, 0.0025).generate_bytes(10_000_000);
    assert!(lines(&text) >= 100_000, "{} lines", lines(&text));
    let mut oracle = Vec::new();
    for line in oracle_lines(&text) {
        if line.windows(marker.len()).any(|w| w == marker) {
            oracle.extend_from_slice(line);
            oracle.push(b'\n');
        }
    }
    let kept = filter(&text);
    assert!(lines(&kept) > 0, "the text carries the marker");
    assert_eq!(kept, oracle);

    assert!(filter(&TextGen::new(2, 0.0).generate_bytes(1_000_000)).is_empty());
    let all = TextGen::new(3, 1.0).generate_bytes(1_000_000);
    assert_eq!(filter(&all), all);
}
