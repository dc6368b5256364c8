//! Order statistics over raw samples.
//!
//! Percentiles are taken from the raw samples, never from
//! `oov-obs` histograms: those report a bucket's lower bound, up to
//! 6.25% below the true value, which is most of a 10% regression bound.

/// Nearest-rank percentile (`p` in 0–100) of `sorted`, which must be
/// sorted ascending and non-empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a small set of repeated measurements (mean of the middle
/// two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean; zero for no values.
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// The highest percentile with at least ten samples beyond it needs
/// `10 / (1 - p/100)` samples: 1000 for p99.
pub fn min_samples_for(p: f64) -> usize {
    (10.0 / (1.0 - p / 100.0)).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_come_from_raw_samples() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&v, 100.0), 1000.0);
        // An `oov-obs` histogram reports 990 as its bucket's lower
        // bound; the raw sample is exact.
        let h = oov_obs::bucket_lo(oov_obs::bucket_index(990));
        assert!(h < 990 && 990 - h > 20, "bucket lower bound {h}");
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(min_samples_for(99.0), 1000);
        assert_eq!(min_samples_for(50.0), 20);
    }
}
