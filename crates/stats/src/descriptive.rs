//! Descriptive statistics: moments and quantiles.

/// Summary statistics of a sample.
///
/// Variance uses the unbiased (n-1) estimator; skewness and excess kurtosis
/// use the standard moment-ratio estimators.
///
/// # Example
///
/// ```
/// use stats::Summary;
///
/// let s = Summary::from_slice(&[1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(s.mean, 2.5);
/// assert_eq!(s.min, 1.0);
/// assert_eq!(s.max, 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Unbiased sample variance.
    pub variance: f64,
    /// Sample standard deviation (sqrt of `variance`).
    pub std: f64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
    /// Moment skewness (0 for symmetric distributions).
    pub skewness: f64,
    /// Excess kurtosis (0 for a Gaussian).
    pub excess_kurtosis: f64,
}

impl Summary {
    /// Computes the summary of a sample.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty.
    pub fn from_slice(xs: &[f64]) -> Summary {
        assert!(!xs.is_empty(), "Summary of empty sample");
        let n = xs.len();
        let nf = n as f64;
        let mean = xs.iter().sum::<f64>() / nf;
        let mut m2 = 0.0;
        let mut m3 = 0.0;
        let mut m4 = 0.0;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &x in xs {
            let d = x - mean;
            let d2 = d * d;
            m2 += d2;
            m3 += d2 * d;
            m4 += d2 * d2;
            min = min.min(x);
            max = max.max(x);
        }
        let variance = if n > 1 { m2 / (nf - 1.0) } else { 0.0 };
        let std = variance.sqrt();
        let (skewness, excess_kurtosis) = if m2 > 0.0 && n > 2 {
            let s2 = m2 / nf; // biased variance for moment ratios
            let skew = (m3 / nf) / s2.powf(1.5);
            let kurt = (m4 / nf) / (s2 * s2) - 3.0;
            (skew, kurt)
        } else {
            (0.0, 0.0)
        };
        Summary {
            n,
            mean,
            variance,
            std,
            min,
            max,
            skewness,
            excess_kurtosis,
        }
    }
}

/// Sample mean.
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of empty sample");
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Linear-interpolated sample quantile, `q` in `[0, 1]`.
///
/// Uses the common "type 7" (Excel/NumPy default) definition.
///
/// # Panics
///
/// Panics if `xs` is empty or `q` is outside `[0, 1]`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile level out of range");
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-finite sample"));
    quantile_sorted(&sorted, q)
}

/// [`quantile`] on data that is already sorted ascending (no copy).
///
/// # Panics
///
/// Panics on empty input or out-of-range `q`.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile level out of range");
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let h = q * (n as f64 - 1.0);
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(n - 1);
    let frac = h - lo as f64;
    sorted[lo] + frac * (sorted[hi] - sorted[lo])
}

/// Median (the 0.5 quantile).
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::from_slice(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Unbiased variance of this classic sample is 32/7.
        assert!((s.variance - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    fn single_point_sample() {
        let s = Summary::from_slice(&[42.0]);
        assert_eq!(s.mean, 42.0);
        assert_eq!(s.variance, 0.0);
        assert_eq!(s.skewness, 0.0);
    }

    #[test]
    fn constant_sample_has_zero_moments() {
        let s = Summary::from_slice(&[3.0; 10]);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.skewness, 0.0);
        assert_eq!(s.excess_kurtosis, 0.0);
    }

    #[test]
    fn right_skewed_sample_has_positive_skew() {
        // Exponential-ish sample.
        let xs: Vec<f64> = (1..100).map(|i| (i as f64 / 10.0).exp()).collect();
        assert!(Summary::from_slice(&xs).skewness > 1.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(quantile(&xs, 0.5), 2.5);
        assert_eq!(median(&xs), 2.5);
        assert!((quantile(&xs, 1.0 / 3.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_unsorted_input() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
    }

    #[test]
    #[should_panic]
    fn empty_summary_panics() {
        Summary::from_slice(&[]);
    }

    #[test]
    #[should_panic]
    fn quantile_out_of_range_panics() {
        quantile(&[1.0], 1.5);
    }
}
