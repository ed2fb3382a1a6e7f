//! Order statistics for latency samples.

use std::fmt;

/// Samples that must lie strictly beyond a percentile before the benchmark
/// names it: a p99 needs at least 1000 samples, a p95 at least 200.
pub const MIN_BEYOND: usize = 10;

/// Why a percentile was refused.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TailRefused {
    /// The requested quantile in `(0, 1)`.
    pub q: f64,
    /// Samples available.
    pub n: usize,
    /// Samples that would lie beyond the nearest-rank position.
    pub beyond: usize,
}

impl fmt::Display for TailRefused {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p{} refused: {} samples, only {} beyond it (need {MIN_BEYOND})",
            self.q * 100.0,
            self.n,
            self.beyond
        )
    }
}

impl std::error::Error for TailRefused {}

/// Nearest-rank percentile of `samples` at quantile `q`, refused unless at
/// least [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, TailRefused> {
    assert!(q > 0.0 && q < 1.0, "quantile must lie in (0, 1)");
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(TailRefused { q, n, beyond });
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (0..199).map(f64::from).collect();
        let err = percentile(&xs, 0.95).unwrap_err();
        assert_eq!(err.beyond, 9);
        let xs: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.95).unwrap(), 189.0);
        let xs: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(percentile(&xs, 0.99).is_err());
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99).unwrap(), 989.0);
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn nearest_rank_is_order_free() {
        let xs: Vec<f64> = (0..40).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5).unwrap(), 19.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
