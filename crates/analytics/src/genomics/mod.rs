//! Fig. 9: serverless genomics variant calling (§7.4).
//!
//! The paper's pipeline aligns FASTQ sequencing reads against FASTA
//! reference chunks with `a × q` Lambda mappers, shuffles the per-chunk
//! intermediate alignments to `r` reducers per chunk (ranges chosen by
//! sampling), and aggregates variants. The baseline stores intermediate
//! files in S3 and shuffles with **S3 SELECT**; Glider routes mapper
//! output through **Sampler** actions (which persist the data on
//! ephemeral files *and* sample it on the fly), computes ranges in a
//! **Manager** action, and serves each reducer one sorted, pre-filtered
//! stream from a **Reader** action — eliminating the baseline's extra
//! full read of the intermediate data.
//!
//! Real genome data is proprietary-scale (3 GiB FASTA + 5.25 GiB FASTQ);
//! we generate FASTA/FASTQ-shaped synthetic alignments with the same
//! structural knobs (`a`, `q`, `r`, records per map task, position space
//! per chunk) — see DESIGN.md §4. The *map computation itself* is
//! simplified to producing the intermediate data, exactly as the paper
//! does ("we simplify the map computation to focus on the data shuffle").
//!
//! Both implementations share the record generator
//! ([`glider_gen::generate_map_records`]), the sampling rule (every
//! [`SAMPLE_RATE`]-th record is flagged), the range computation and the
//! variant caller, so their final outputs must be byte-identical —
//! asserted in tests.

pub mod actions;
pub mod run;

pub use glider_gen::SAMPLE_RATE;
pub use run::{run_baseline, run_glider, GenomicsConfig, GenomicsOutcome};

/// Minimum reads covering a position for it to be called a variant.
pub const MIN_READS: u64 = 2;

/// Parses the position (first CSV field) of an alignment record line.
pub fn parse_pos(line: &str) -> Option<i64> {
    line.split(',').next()?.trim().parse().ok()
}

/// Whether a record line carries the sample flag.
pub fn is_sample(line: &str) -> bool {
    line.split(',').nth(2).map(str::trim) == Some("s")
}

/// Byte-level variant of [`is_sample`] for hot paths (the flag is the
/// final field, so a flagged record line ends with `,s`).
pub fn is_sample_bytes(line: &[u8]) -> bool {
    line.ends_with(b",s")
}

/// Computes `r` reducer ranges over `[0, span)` from sampled positions
/// (quantile boundaries), identically for the baseline and Glider.
pub fn compute_ranges(samples: &mut Vec<i64>, reducers: usize, span: i64) -> Vec<(i64, i64)> {
    samples.sort_unstable();
    let r = reducers.max(1);
    let mut bounds = Vec::with_capacity(r + 1);
    bounds.push(0i64);
    for k in 1..r {
        let b = if samples.is_empty() {
            (span * k as i64) / r as i64
        } else {
            samples[(samples.len() * k) / r]
        };
        let prev = *bounds.last().expect("non-empty");
        bounds.push(b.clamp(prev, span));
    }
    bounds.push(span);
    bounds.windows(2).map(|w| (w[0], w[1])).collect()
}

/// Aggregates sorted positions into called variants: every position with
/// at least [`MIN_READS`] covering reads yields a `pos,count` line.
///
/// # Panics
///
/// Debug-asserts that positions arrive sorted.
pub fn call_variants(sorted_positions: &[i64]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < sorted_positions.len() {
        let pos = sorted_positions[i];
        let mut count = 0u64;
        while i < sorted_positions.len() && sorted_positions[i] == pos {
            debug_assert!(i == 0 || sorted_positions[i - 1] <= pos, "positions sorted");
            count += 1;
            i += 1;
        }
        if count >= MIN_READS {
            out.extend_from_slice(format!("{pos},{count}\n").as_bytes());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use glider_gen::generate_map_records;

    #[test]
    fn map_records_are_deterministic_and_flagged() {
        let a = generate_map_records(1, 2, 3, 1000, 10_000);
        let b = generate_map_records(1, 2, 3, 1000, 10_000);
        assert_eq!(a, b);
        let c = generate_map_records(1, 2, 4, 1000, 10_000);
        assert_ne!(a, c);
        let text = String::from_utf8(a).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1000);
        let flagged = lines.iter().filter(|l| is_sample(l)).count();
        assert_eq!(flagged, 1000 / SAMPLE_RATE);
        for line in &lines {
            let pos = parse_pos(line).unwrap();
            assert!((0..10_000).contains(&pos));
        }
    }

    #[test]
    fn ranges_partition_the_span() {
        let mut samples: Vec<i64> = (0..1000).map(|i| i * 10).collect();
        let ranges = compute_ranges(&mut samples, 4, 10_000);
        assert_eq!(ranges.len(), 4);
        assert_eq!(ranges[0].0, 0);
        assert_eq!(ranges[3].1, 10_000);
        for w in ranges.windows(2) {
            assert_eq!(w[0].1, w[1].0, "contiguous");
            assert!(w[0].0 <= w[0].1, "ordered");
        }
        // Quantiles of a uniform sample split roughly evenly.
        assert!((ranges[0].1 - 2_500).abs() < 300, "{:?}", ranges);
    }

    #[test]
    fn ranges_with_no_samples_split_evenly() {
        let mut empty = Vec::new();
        let ranges = compute_ranges(&mut empty, 4, 1000);
        assert_eq!(ranges, vec![(0, 250), (250, 500), (500, 750), (750, 1000)]);
        let single = compute_ranges(&mut vec![5, 1, 9], 1, 1000);
        assert_eq!(single, vec![(0, 1000)]);
    }

    #[test]
    fn variant_calling_thresholds() {
        let positions = vec![1, 1, 2, 3, 3, 3, 9];
        let out = String::from_utf8(call_variants(&positions)).unwrap();
        assert_eq!(out, "1,2\n3,3\n");
        assert!(call_variants(&[]).is_empty());
        assert!(call_variants(&[7]).is_empty());
    }
}
