//! Bivariate statistics and confidence ellipses.
//!
//! Paper Fig. 4 overlays 1σ/2σ/3σ confidence ellipses of the
//! (Ion, log10 Ioff) joint distribution predicted by the VS and golden
//! models. An ellipse at "k-sigma" is the contour of the fitted bivariate
//! Gaussian that would contain the same probability mass as the ±kσ interval
//! of a 1-D Gaussian. The contour maps a circle through the covariance's
//! lower-triangular Cholesky factor `L` (`L Lᵀ = Σ`), which for a 2×2
//! covariance is three closed-form entries.

use numerics::NumericsError;

/// Mean and covariance of a bivariate sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bivariate {
    /// Mean of the first coordinate.
    pub mean_x: f64,
    /// Mean of the second coordinate.
    pub mean_y: f64,
    /// Variance of the first coordinate (unbiased).
    pub var_x: f64,
    /// Variance of the second coordinate (unbiased).
    pub var_y: f64,
    /// Covariance (unbiased).
    pub cov_xy: f64,
}

impl Bivariate {
    /// Estimates bivariate moments from paired samples.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or have fewer than 2 points.
    pub fn from_samples(xs: &[f64], ys: &[f64]) -> Bivariate {
        assert_eq!(xs.len(), ys.len(), "paired samples must match in length");
        assert!(xs.len() >= 2, "need at least two points");
        let n = xs.len() as f64;
        let mx = xs.iter().sum::<f64>() / n;
        let my = ys.iter().sum::<f64>() / n;
        let mut sxx = 0.0;
        let mut syy = 0.0;
        let mut sxy = 0.0;
        for (&x, &y) in xs.iter().zip(ys) {
            sxx += (x - mx) * (x - mx);
            syy += (y - my) * (y - my);
            sxy += (x - mx) * (y - my);
        }
        Bivariate {
            mean_x: mx,
            mean_y: my,
            var_x: sxx / (n - 1.0),
            var_y: syy / (n - 1.0),
            cov_xy: sxy / (n - 1.0),
        }
    }

    /// Pearson correlation coefficient.
    pub fn correlation(&self) -> f64 {
        let d = (self.var_x * self.var_y).sqrt();
        if d == 0.0 {
            0.0
        } else {
            self.cov_xy / d
        }
    }

    /// The covariance's Cholesky factor `[l00, l10, l11]`: the lower
    /// triangle of `L` with `L Lᵀ = [[var_x, cov_xy], [cov_xy, var_y]]`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::NotPositiveDefinite`] at the first diagonal
    /// whose squared entry is not strictly positive and finite.
    fn cholesky(&self) -> Result<[f64; 3], NumericsError> {
        let root = |s: f64, index| {
            if s <= 0.0 || !s.is_finite() {
                Err(NumericsError::NotPositiveDefinite { index })
            } else {
                Ok(s.sqrt())
            }
        };
        let l00 = root(self.var_x, 0)?;
        let l10 = self.cov_xy / l00;
        let l11 = root(self.var_y - l10 * l10, 1)?;
        Ok([l00, l10, l11])
    }

    /// Points of the k-sigma confidence ellipse, as `n_points` (x, y) pairs.
    ///
    /// The contour encloses the same probability as ±kσ of a 1-D Gaussian
    /// (e.g. 68.27% for k=1): the Mahalanobis radius is
    /// `r² = -2 ln(1 - P(k))` for a 2-D Gaussian.
    ///
    /// # Errors
    ///
    /// Returns an error when the covariance matrix is not positive definite
    /// (degenerate sample).
    ///
    /// # Panics
    ///
    /// Panics if `k_sigma <= 0` or `n_points < 3`.
    pub fn confidence_ellipse(
        &self,
        k_sigma: f64,
        n_points: usize,
    ) -> Result<Vec<(f64, f64)>, NumericsError> {
        assert!(k_sigma > 0.0, "k_sigma must be positive");
        assert!(n_points >= 3, "an ellipse needs at least 3 points");
        // Probability mass within ±kσ of a 1-D Gaussian.
        let p = crate::gaussian::cdf(k_sigma) - crate::gaussian::cdf(-k_sigma);
        // Mahalanobis radius for that mass in 2-D (chi-square with 2 dof).
        let r = (-2.0 * (1.0 - p).ln()).sqrt();
        let [l00, l10, l11] = self.cholesky()?;
        let pts = (0..n_points)
            .map(|i| {
                let th = 2.0 * std::f64::consts::PI * i as f64 / n_points as f64;
                let z = [r * th.cos(), r * th.sin()];
                // v = L z, each row summed from zero.
                let mut v = [0.0; 2];
                v[0] += l00 * z[0];
                v[1] += l10 * z[0];
                v[1] += l11 * z[1];
                (self.mean_x + v[0], self.mean_y + v[1])
            })
            .collect();
        Ok(pts)
    }

    /// Squared Mahalanobis distance of a point from the mean.
    ///
    /// # Errors
    ///
    /// Returns an error when the covariance matrix is not positive definite
    /// (degenerate sample).
    pub fn mahalanobis2(&self, x: f64, y: f64) -> Result<f64, NumericsError> {
        let [l00, l10, l11] = self.cholesky()?;
        let d = [x - self.mean_x, y - self.mean_y];
        // Σ v = d: forward substitution with L, then back with Lᵀ.
        let w0 = d[0] / l00;
        let w1 = (d[1] - l10 * w0) / l11;
        let v1 = w1 / l11;
        let v0 = (w0 - l10 * v1) / l00;
        Ok(d[0] * v0 + d[1] * v1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sampler;

    fn correlated_sample(n: usize, rho: f64, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut s = Sampler::from_seed(seed);
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for _ in 0..n {
            let z1 = s.standard_normal();
            let z2 = s.standard_normal();
            xs.push(z1);
            ys.push(rho * z1 + (1.0 - rho * rho).sqrt() * z2);
        }
        (xs, ys)
    }

    #[test]
    fn recovers_correlation() {
        let (xs, ys) = correlated_sample(20_000, 0.6, 31);
        let b = Bivariate::from_samples(&xs, &ys);
        assert!(
            (b.correlation() - 0.6).abs() < 0.03,
            "rho = {}",
            b.correlation()
        );
        assert!((b.var_x - 1.0).abs() < 0.05);
        assert!((b.var_y - 1.0).abs() < 0.05);
    }

    #[test]
    fn one_sigma_ellipse_contains_expected_mass() {
        let (xs, ys) = correlated_sample(20_000, 0.4, 57);
        let b = Bivariate::from_samples(&xs, &ys);
        let p = crate::gaussian::cdf(1.0) - crate::gaussian::cdf(-1.0); // 0.6827
        let r2 = -2.0 * (1.0 - p).ln();
        let inside = xs
            .iter()
            .zip(&ys)
            .filter(|&(&x, &y)| b.mahalanobis2(x, y).unwrap() <= r2)
            .count() as f64
            / xs.len() as f64;
        assert!((inside - p).abs() < 0.02, "coverage {inside} vs {p}");
    }

    #[test]
    fn ellipse_points_lie_on_contour() {
        let (xs, ys) = correlated_sample(5000, -0.3, 77);
        let b = Bivariate::from_samples(&xs, &ys);
        let pts = b.confidence_ellipse(2.0, 64).unwrap();
        assert_eq!(pts.len(), 64);
        let p = crate::gaussian::cdf(2.0) - crate::gaussian::cdf(-2.0);
        let r2 = -2.0 * (1.0 - p).ln();
        for (x, y) in pts {
            let m2 = b.mahalanobis2(x, y).unwrap();
            assert!((m2 - r2).abs() < 1e-6 * r2.max(1.0), "m2={m2}, r2={r2}");
        }
    }

    #[test]
    fn nested_ellipses_grow() {
        let (xs, ys) = correlated_sample(2000, 0.2, 91);
        let b = Bivariate::from_samples(&xs, &ys);
        let span = |pts: &[(f64, f64)]| {
            pts.iter().map(|p| p.0).fold(f64::NEG_INFINITY, f64::max)
                - pts.iter().map(|p| p.0).fold(f64::INFINITY, f64::min)
        };
        let e1 = b.confidence_ellipse(1.0, 64).unwrap();
        let e3 = b.confidence_ellipse(3.0, 64).unwrap();
        assert!(span(&e3) > span(&e1) * 1.5);
    }

    #[test]
    fn degenerate_sample_is_an_error() {
        let b = Bivariate::from_samples(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]); // perfectly correlated
        assert!(b.confidence_ellipse(1.0, 16).is_err());
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        Bivariate::from_samples(&[1.0, 2.0], &[1.0]);
    }
}
