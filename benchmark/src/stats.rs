//! Percentiles and medians, and the rule for which tail percentile a
//! sample is large enough to support.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail percentiles a timing may be reported at, highest first.
const TAIL_LADDER: [f64; 4] = [0.99, 0.95, 0.90, 0.75];

/// Samples a percentile needs beyond it before it is reported.
const MIN_BEYOND: usize = 10;

/// The highest percentile of the ladder that still has at least ten
/// samples beyond it in a sample of `n` — or `None` when even p75 has
/// not (fewer than 40 samples), in which case only the median is
/// reported.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|q| n - (q * n as f64).ceil() as usize >= MIN_BEYOND)
}

/// Median of unordered values (mean of the two middle ones when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let sample: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sample, 0.50), 50);
        assert_eq!(percentile(&sample, 0.99), 99);
        assert_eq!(percentile(&sample, 1.0), 100);
        assert_eq!(percentile(&sample, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        // 60 samples: the median is the 30th, p75 the 45th.
        let sample: Vec<u64> = (1..=60).collect();
        assert_eq!(percentile(&sample, 0.50), 30);
        assert_eq!(percentile(&sample, 0.75), 45);
    }

    #[test]
    fn the_tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_quantile(39), None);
        assert_eq!(tail_quantile(40), Some(0.75));
        assert_eq!(tail_quantile(60), Some(0.75));
        assert_eq!(tail_quantile(99), Some(0.75));
        assert_eq!(tail_quantile(100), Some(0.90));
        assert_eq!(tail_quantile(200), Some(0.95));
        assert_eq!(tail_quantile(999), Some(0.95));
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(1_000_000), Some(0.99));
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }
}
