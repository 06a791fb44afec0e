//! Order statistics shared by every workload: medians, nearest-rank
//! percentiles and the tail rule that picks which percentile a run reports.

/// Median of `values` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile `p` (in `(0, 100]`): the smallest sample with at
/// least `p`% of the samples at or below it.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let sorted = sorted(values);
    (!sorted.is_empty()).then(|| sorted[rank(sorted.len(), p) - 1])
}

/// How many of `n` samples lie strictly beyond the nearest-rank `p`-th
/// percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The percentiles a tail is reported at, highest first.
pub const TAIL_CANDIDATES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// The tail rule: the highest candidate percentile with at least `min_beyond`
/// samples beyond it, or `None` when not even the median qualifies.
pub fn reportable_tail(n: usize, min_beyond: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .find(|&p| samples_beyond(n, p) >= min_beyond)
}

fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 90.0), Some(90.0));
        assert_eq!(percentile(&values, 50.0), Some(50.0));
        assert_eq!(percentile(&values, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond_the_percentile() {
        // 100 samples: p90 leaves exactly 10 beyond it, p95 only 5.
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(100, 95.0), 5);
        assert_eq!(reportable_tail(100, 10), Some(90.0));
        // 99 samples: rank(90) = 90 leaves 9, so only the median qualifies.
        assert_eq!(reportable_tail(99, 10), Some(50.0));
        // 200 samples: p95 leaves 10.
        assert_eq!(reportable_tail(200, 10), Some(95.0));
        // 1000 samples: p99 leaves 10.
        assert_eq!(reportable_tail(1000, 10), Some(99.0));
        // Too few for any percentile.
        assert_eq!(reportable_tail(15, 10), None);
    }
}
