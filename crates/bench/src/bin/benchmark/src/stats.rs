//! Order statistics with the sample-size rule of the benchmark: a
//! percentile is reported only when at least [`MIN_TAIL`] samples lie
//! beyond it.

/// Samples that must lie beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank percentile (`pct` in whole percent) of ascending data.
///
/// # Panics
///
/// Panics on empty data.
#[must_use]
pub fn percentile(sorted: &[f64], pct: usize) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (pct * sorted.len()).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// Samples strictly beyond the nearest-rank `pct` percentile of `n`.
#[must_use]
pub fn tail(n: usize, pct: usize) -> usize {
    n - (pct * n).div_ceil(100).max(1).min(n)
}

/// The fewest samples for which the `pct` percentile has [`MIN_TAIL`]
/// samples beyond it.
#[must_use]
pub fn min_samples(pct: usize) -> usize {
    (1..)
        .find(|&n| tail(n, pct) >= MIN_TAIL)
        .expect("some n suffices")
}

/// Sorts in place and returns the median.
#[must_use]
pub fn median(values: &mut [f64]) -> f64 {
    sort(values);
    percentile(values, 50)
}

pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_a_hundred_samples_for_ten_beyond() {
        assert_eq!(min_samples(90), 100);
        assert_eq!(tail(100, 90), 10);
        assert_eq!(tail(99, 90), 9);
        assert_eq!(min_samples(50), 20);
        let data: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&data, 90), 90.0);
        assert_eq!(
            data.iter().filter(|&&v| v > percentile(&data, 90)).count(),
            10
        );
        assert_eq!(percentile(&data, 50), 50.0);
        assert_eq!(percentile(&[3.0], 90), 3.0);
    }

    #[test]
    fn median_sorts() {
        let mut v = vec![5.0, 1.0, 3.0];
        assert_eq!(median(&mut v), 3.0);
        assert_eq!(v, vec![1.0, 3.0, 5.0]);
    }
}
