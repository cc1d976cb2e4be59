//! Quantile-quantile analysis against the standard normal.
//!
//! Paper Figs. 7(d-f) and 9(f) use QQ plots to show how circuit delay and
//! SRAM noise margins deviate from Gaussian at low supply voltages. This
//! module produces the plot data and a scalar linearity metric so the bench
//! harness can report "how non-Gaussian" a distribution is.

use crate::gaussian;

/// One point of a normal QQ plot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QqPoint {
    /// Theoretical standard normal quantile.
    pub theoretical: f64,
    /// Observed sample quantile.
    pub sample: f64,
}

/// QQ-plot data plus goodness-of-linearity diagnostics.
#[derive(Debug, Clone)]
pub struct QqPlot {
    /// Ordered plot points.
    pub points: Vec<QqPoint>,
    /// Pearson correlation between theoretical and sample quantiles
    /// (1.0 for a perfectly Gaussian sample; lower means heavier deviation).
    pub linearity_r: f64,
    /// Slope of the least-squares line (estimates the sample std).
    pub slope: f64,
    /// Intercept of the least-squares line (estimates the sample mean).
    pub intercept: f64,
}

impl QqPlot {
    /// Builds normal QQ data using the Blom plotting positions
    /// `p_i = (i - 3/8) / (n + 1/4)`.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() < 3`.
    pub fn from_sample(xs: &[f64]) -> QqPlot {
        assert!(xs.len() >= 3, "QQ plot needs at least 3 points");
        let n = xs.len();
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-finite sample"));
        let points: Vec<QqPoint> = sorted
            .iter()
            .enumerate()
            .map(|(i, &x)| QqPoint {
                theoretical: gaussian::inv_cdf((i as f64 + 1.0 - 0.375) / (n as f64 + 0.25)),
                sample: x,
            })
            .collect();

        // Least squares y = a + b t over the plot points.
        let nf = n as f64;
        let mt = points.iter().map(|p| p.theoretical).sum::<f64>() / nf;
        let ms = points.iter().map(|p| p.sample).sum::<f64>() / nf;
        let mut stt = 0.0;
        let mut sts = 0.0;
        let mut sss = 0.0;
        for p in &points {
            let dt = p.theoretical - mt;
            let ds = p.sample - ms;
            stt += dt * dt;
            sts += dt * ds;
            sss += ds * ds;
        }
        let slope = if stt > 0.0 { sts / stt } else { 0.0 };
        let intercept = ms - slope * mt;
        let linearity_r = if stt > 0.0 && sss > 0.0 {
            sts / (stt.sqrt() * sss.sqrt())
        } else {
            0.0
        };
        QqPlot {
            points,
            linearity_r,
            slope,
            intercept,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sampler;

    #[test]
    fn gaussian_sample_is_linear() {
        let mut s = Sampler::from_seed(21);
        let xs: Vec<f64> = (0..3000).map(|_| s.normal(2.0, 0.3)).collect();
        let qq = QqPlot::from_sample(&xs);
        assert!(qq.linearity_r > 0.999, "r = {}", qq.linearity_r);
        assert!((qq.slope - 0.3).abs() < 0.03, "slope {}", qq.slope);
        assert!(
            (qq.intercept - 2.0).abs() < 0.03,
            "intercept {}",
            qq.intercept
        );
    }

    #[test]
    fn lognormal_sample_bends() {
        let mut s = Sampler::from_seed(22);
        let xs: Vec<f64> = (0..3000).map(|_| s.normal(0.0, 1.0).exp()).collect();
        let qq = QqPlot::from_sample(&xs);
        assert!(
            qq.linearity_r < 0.99,
            "lognormal should be visibly non-linear, r = {}",
            qq.linearity_r
        );
    }

    #[test]
    fn points_are_sorted() {
        let xs = [3.0, 1.0, 2.0, 5.0, 4.0];
        let qq = QqPlot::from_sample(&xs);
        for w in qq.points.windows(2) {
            assert!(w[0].theoretical < w[1].theoretical);
            assert!(w[0].sample <= w[1].sample);
        }
    }

    #[test]
    #[should_panic]
    fn tiny_sample_panics() {
        QqPlot::from_sample(&[1.0, 2.0]);
    }
}
