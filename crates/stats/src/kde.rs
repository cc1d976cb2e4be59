//! Gaussian kernel density estimation.
//!
//! The smooth "probability density" curves of the paper's Figs. 5, 7, 8 and 9
//! are regenerated with a Gaussian KDE using Silverman's rule-of-thumb
//! bandwidth.

use crate::descriptive::{quantile, Summary};
use crate::gaussian;

/// A Gaussian kernel density estimate over a sample.
///
/// # Example
///
/// ```
/// use stats::kde::Kde;
/// use stats::Sampler;
///
/// let mut s = Sampler::from_seed(1);
/// let xs: Vec<f64> = (0..2000).map(|_| s.normal(0.0, 1.0)).collect();
/// let kde = Kde::from_sample(&xs);
/// // Density near the mode of a standard normal is ~0.399.
/// assert!((kde.density(0.0) - 0.399).abs() < 0.05);
/// ```
#[derive(Debug, Clone)]
pub struct Kde {
    xs: Vec<f64>,
    bandwidth: f64,
}

impl Kde {
    /// Builds a KDE with Silverman's rule-of-thumb bandwidth
    /// `0.9 * min(std, IQR/1.34) * n^(-1/5)`.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty.
    pub fn from_sample(xs: &[f64]) -> Self {
        assert!(!xs.is_empty(), "KDE of empty sample");
        let s = Summary::from_slice(xs);
        let iqr = quantile(xs, 0.75) - quantile(xs, 0.25);
        let scale = if iqr > 0.0 {
            s.std.min(iqr / 1.34)
        } else {
            s.std
        };
        let scale = if scale > 0.0 {
            scale
        } else {
            s.mean.abs().max(1.0) * 1e-9
        };
        let bandwidth = 0.9 * scale * (xs.len() as f64).powf(-0.2);
        Kde {
            xs: xs.to_vec(),
            bandwidth,
        }
    }

    /// Density estimate at `x`.
    pub fn density(&self, x: f64) -> f64 {
        let h = self.bandwidth;
        let s: f64 = self.xs.iter().map(|&xi| gaussian::pdf((x - xi) / h)).sum();
        s / (self.xs.len() as f64 * h)
    }

    /// Evaluates the density on `n` evenly spaced points covering the sample
    /// range padded by 3 bandwidths; returns `(x, density)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn curve(&self, n: usize) -> Vec<(f64, f64)> {
        assert!(n >= 2, "curve needs at least two points");
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &x in &self.xs {
            lo = lo.min(x);
            hi = hi.max(x);
        }
        lo -= 3.0 * self.bandwidth;
        hi += 3.0 * self.bandwidth;
        (0..n)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (n - 1) as f64;
                (x, self.density(x))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sampler;

    #[test]
    fn density_is_nonnegative_and_normalized() {
        let mut s = Sampler::from_seed(3);
        let xs: Vec<f64> = (0..500).map(|_| s.normal(5.0, 2.0)).collect();
        let kde = Kde::from_sample(&xs);
        let curve = kde.curve(400);
        let mut integral = 0.0;
        for w in curve.windows(2) {
            let dx = w[1].0 - w[0].0;
            integral += 0.5 * (w[0].1 + w[1].1) * dx;
            assert!(w[0].1 >= 0.0);
        }
        assert!((integral - 1.0).abs() < 0.02, "integral {integral}");
    }

    #[test]
    fn bimodal_sample_shows_two_modes() {
        let mut s = Sampler::from_seed(11);
        let mut xs: Vec<f64> = (0..1000).map(|_| s.normal(-3.0, 0.5)).collect();
        xs.extend((0..1000).map(|_| s.normal(3.0, 0.5)));
        let kde = Kde::from_sample(&xs);
        // Valley at 0 should be far below the modes.
        assert!(kde.density(0.0) < 0.3 * kde.density(3.0));
        assert!(kde.density(0.0) < 0.3 * kde.density(-3.0));
    }

    #[test]
    fn constant_sample_gets_tiny_bandwidth_without_panic() {
        let kde = Kde::from_sample(&[7.0; 20]);
        assert!(kde.density(7.0) > 0.0);
    }

    #[test]
    #[should_panic]
    fn empty_sample_panics() {
        Kde::from_sample(&[]);
    }
}
