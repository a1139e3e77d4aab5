//! Sample statistics: nearest-rank percentiles (the repository's
//! `cpx_obs` definition) and the tail rule for which percentile a
//! sample count supports.

use cpx_obs::{nearest_rank_index, percentile_sorted};

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank `q`-th percentile of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, q)
}

/// Median (nearest-rank p50).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The highest whole percentile with at least [`TAIL_SAMPLES`] of `n`
/// samples strictly beyond its nearest-rank sample, or `None` when no
/// percentile has that many beyond it.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (1..=99)
        .rev()
        .find(|&q| n > 0 && n - 1 - nearest_rank_index(n, q as f64) >= TAIL_SAMPLES)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(10), None);
        // 11 samples: only the lowest one has ten beyond it.
        assert_eq!(tail_percentile(11), Some(4));
        // 100 samples support p90 (samples 91..100 lie beyond it), not p91.
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(1000), Some(99));
        // The rule is monotone in the sample count.
        let mut last = 0;
        for n in 11..2000 {
            let q = tail_percentile(n).expect("11+ samples support a percentile");
            assert!(q >= last, "n={n}");
            let beyond = n - 1 - nearest_rank_index(n, q as f64);
            assert!(beyond >= TAIL_SAMPLES, "n={n} q={q}");
            last = q;
        }
    }

    #[test]
    fn percentiles_are_observed_samples() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
    }
}
