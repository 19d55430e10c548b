//! Order statistics over small sample sets.

/// Sorts in place (NaN-free input) and returns the value at quantile `q`
/// in `[0, 1]`, interpolating linearly between neighbours — the
/// "inclusive" method, so `q = 0.5` is the usual median.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    samples.sort_unstable_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (samples.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    samples[lo] + (samples[hi] - samples[lo]) * (pos - lo as f64)
}

pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Median, quartiles and count of one metric's repetitions, plus the
/// raw values in the order they were measured.
#[derive(Debug, Clone)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub raw: Vec<f64>,
}

impl Summary {
    pub fn of(raw: Vec<f64>) -> Summary {
        let mut sorted = raw.clone();
        Summary {
            median: quantile(&mut sorted, 0.5),
            q1: quantile(&mut sorted, 0.25),
            q3: quantile(&mut sorted, 0.75),
            raw,
        }
    }
}

/// The `q` percentile of integer samples (nearest rank, no
/// interpolation: a latency that was actually observed). Sorts in place.
pub fn percentile_ns(samples: &mut [u64], q: f64) -> u64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    samples.sort_unstable();
    let rank = (q.clamp(0.0, 1.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles() {
        assert_eq!(median(&mut [3.0]), 3.0);
        assert_eq!(median(&mut [4.0, 1.0]), 2.5);
        assert_eq!(median(&mut [9.0, 1.0, 5.0]), 5.0);
        let s = Summary::of(vec![5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.0, 3.0, 4.0));
        assert_eq!(s.raw, vec![5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(quantile(&mut [0.0, 10.0], 0.25), 2.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile_ns(&mut v, 0.50), 50);
        assert_eq!(percentile_ns(&mut v, 0.99), 99);
        assert_eq!(percentile_ns(&mut v, 1.0), 100);
        assert_eq!(percentile_ns(&mut v, 0.0), 1);
        assert_eq!(percentile_ns(&mut [7], 0.99), 7);
    }
}
