//! Statistical timing corners.
//!
//! The paper's Fig. 7 shows why low-Vdd statistical static timing analysis
//! (SSTA) is hard: delay distributions stop being Gaussian, so the usual
//! `µ + kσ` corner misestimates the true yield point. This module computes
//! both the Gaussian corner and the empirical percentile corner and reports
//! their disagreement — a scalar "SSTA error" for any sampled metric.

use crate::descriptive::{quantile, Summary};
use crate::gaussian;

/// Gaussian vs empirical corner comparison at a given sigma level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CornerReport {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub sigma: f64,
    /// Sigma level `k` of the corner.
    pub k: f64,
    /// The Gaussian-assumption corner `µ + kσ`.
    pub gaussian_corner: f64,
    /// The empirical corner: the sample quantile at `Φ(k)`.
    pub percentile_corner: f64,
    /// Relative error of the Gaussian corner against the empirical one:
    /// `(gaussian - percentile) / (percentile - mean)`. Zero for Gaussian
    /// data; negative when the Gaussian corner *underestimates* the true
    /// upper tail (the dangerous direction for timing sign-off).
    pub corner_error: f64,
}

/// The smallest sample [`upper_corner`] accepts: below it, tail quantiles
/// would be meaningless.
pub const MIN_SAMPLES: usize = 100;

/// Computes the upper `k`-sigma corner report of a sample.
///
/// # Panics
///
/// Panics if the sample has fewer than [`MIN_SAMPLES`] points or `k <= 0`.
pub fn upper_corner(samples: &[f64], k: f64) -> CornerReport {
    assert!(
        samples.len() >= MIN_SAMPLES,
        "corner analysis needs >= {MIN_SAMPLES} samples"
    );
    assert!(k > 0.0, "sigma level must be positive");
    let s = Summary::from_slice(samples);
    let p = gaussian::cdf(k);
    let percentile_corner = quantile(samples, p);
    let gaussian_corner = s.mean + k * s.std;
    let spread = percentile_corner - s.mean;
    let corner_error = if spread.abs() > 0.0 {
        (gaussian_corner - percentile_corner) / spread
    } else {
        0.0
    };
    CornerReport {
        mean: s.mean,
        sigma: s.std,
        k,
        gaussian_corner,
        percentile_corner,
        corner_error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sampler;

    #[test]
    fn gaussian_data_has_tiny_corner_error() {
        let mut s = Sampler::from_seed(5);
        let xs: Vec<f64> = (0..60_000).map(|_| s.normal(10.0, 1.0)).collect();
        let r = upper_corner(&xs, 3.0);
        assert!((r.gaussian_corner - 13.0).abs() < 0.1);
        assert!(r.corner_error.abs() < 0.05, "error = {}", r.corner_error);
    }

    #[test]
    fn right_skewed_data_underestimates_the_tail() {
        // Lognormal: the true 3σ percentile sits far above µ + 3σ.
        let mut s = Sampler::from_seed(6);
        let xs: Vec<f64> = (0..60_000).map(|_| (s.normal(0.0, 0.6)).exp()).collect();
        let r = upper_corner(&xs, 3.0);
        assert!(
            r.gaussian_corner < r.percentile_corner,
            "gaussian {} must sit below the true corner {}",
            r.gaussian_corner,
            r.percentile_corner
        );
        assert!(r.corner_error < -0.1, "error = {}", r.corner_error);
    }

    #[test]
    fn one_sigma_corner_matches_84th_percentile() {
        let mut s = Sampler::from_seed(7);
        let xs: Vec<f64> = (0..40_000).map(|_| s.normal(0.0, 2.0)).collect();
        let r = upper_corner(&xs, 1.0);
        assert!((r.percentile_corner - 2.0).abs() < 0.1);
    }

    #[test]
    #[should_panic]
    fn tiny_samples_rejected() {
        upper_corner(&[1.0; 50], 3.0);
    }
}
