//! Order statistics with the benchmark's tail rule: a percentile is only
//! reported when at least [`MIN_BEYOND`] samples lie beyond it, so a tail
//! figure never rests on a handful of outliers.

/// Fewest samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Samples of `n` that lie beyond the nearest-rank `q` percentile.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// 1-based nearest rank of quantile `q` (in `(0, 1]`) among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// The nearest-rank `q` percentile of `values`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() || samples_beyond(values.len(), q) < MIN_BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.get(rank(sorted.len(), q) - 1).copied()
}

/// The median of `values` (mean of the middle two for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let hi = sorted.get(n / 2).copied().unwrap_or(0.0);
    if n % 2 == 1 {
        return hi;
    }
    let lo = sorted.get((n / 2).wrapping_sub(1)).copied().unwrap_or(hi);
    (lo + hi) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_a_hundred_samples() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert_eq!(percentile(&v, 0.9), None);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(percentile(&v, 0.9), Some(90.0));
    }

    #[test]
    fn p50_needs_twenty_samples() {
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), None);
        let v: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(10.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
