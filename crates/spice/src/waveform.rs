//! Time-dependent source waveforms.

/// Waveform of an independent source.
#[derive(Debug, Clone, PartialEq)]
pub enum Waveform {
    /// Constant value.
    Dc(f64),
    /// Periodic trapezoidal pulse (SPICE `PULSE`).
    Pulse {
        /// Initial value.
        v1: f64,
        /// Pulsed value.
        v2: f64,
        /// Delay before the first edge, s.
        delay: f64,
        /// Rise time, s (must be > 0).
        rise: f64,
        /// Fall time, s (must be > 0).
        fall: f64,
        /// Pulse width at `v2`, s.
        width: f64,
        /// Period, s (`0` or `inf` means single-shot).
        period: f64,
    },
    /// Piecewise-linear waveform: sorted `(time, value)` pairs; constant
    /// extrapolation outside the range.
    Pwl(Vec<(f64, f64)>),
}

impl Waveform {
    /// Constant source.
    pub fn dc(v: f64) -> Waveform {
        Waveform::Dc(v)
    }

    /// A single low-to-high step at `t0` with the given rise time.
    pub fn step(v_low: f64, v_high: f64, t0: f64, rise: f64) -> Waveform {
        Waveform::Pwl(vec![(t0, v_low), (t0 + rise, v_high)])
    }

    /// Value at time `t`. DC analysis reads the value at `t = 0`.
    pub fn value(&self, t: f64) -> f64 {
        match self {
            Waveform::Dc(v) => *v,
            Waveform::Pulse {
                v1,
                v2,
                delay,
                rise,
                fall,
                width,
                period,
            } => {
                if t < *delay {
                    return *v1;
                }
                let mut tau = t - delay;
                if *period > 0.0 && period.is_finite() {
                    tau %= period;
                }
                if tau < *rise {
                    v1 + (v2 - v1) * tau / rise
                } else if tau < rise + width {
                    *v2
                } else if tau < rise + width + fall {
                    v2 + (v1 - v2) * (tau - rise - width) / fall
                } else {
                    *v1
                }
            }
            Waveform::Pwl(points) => {
                if points.is_empty() {
                    return 0.0;
                }
                if t <= points[0].0 {
                    return points[0].1;
                }
                if t >= points[points.len() - 1].0 {
                    return points[points.len() - 1].1;
                }
                for w in points.windows(2) {
                    let (t0, v0) = w[0];
                    let (t1, v1) = w[1];
                    if t >= t0 && t <= t1 {
                        if t1 == t0 {
                            return v1;
                        }
                        return v0 + (v1 - v0) * (t - t0) / (t1 - t0);
                    }
                }
                points[points.len() - 1].1
            }
        }
    }

    /// Times at which the waveform has slope discontinuities within
    /// `[0, tstop]`; the transient engine aligns steps to these.
    pub fn breakpoints(&self, tstop: f64) -> Vec<f64> {
        match self {
            Waveform::Dc(_) => vec![],
            Waveform::Pulse {
                delay,
                rise,
                fall,
                width,
                period,
                ..
            } => {
                let mut out = Vec::new();
                let mut base = *delay;
                loop {
                    for t in [
                        base,
                        base + rise,
                        base + rise + width,
                        base + rise + width + fall,
                    ] {
                        if t <= tstop {
                            out.push(t);
                        }
                    }
                    if *period > 0.0 && period.is_finite() && base + period <= tstop {
                        base += period;
                    } else {
                        break;
                    }
                }
                out
            }
            Waveform::Pwl(points) => points
                .iter()
                .map(|p| p.0)
                .filter(|&t| t >= 0.0 && t <= tstop)
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_is_constant() {
        let w = Waveform::dc(1.5);
        assert_eq!(w.value(0.0), 1.5);
        assert_eq!(w.value(1e9), 1.5);
        assert!(w.breakpoints(1.0).is_empty());
    }

    #[test]
    fn pulse_shape() {
        let w = Waveform::Pulse {
            v1: 0.0,
            v2: 1.0,
            delay: 1.0,
            rise: 0.1,
            fall: 0.2,
            width: 0.5,
            period: 0.0,
        };
        assert_eq!(w.value(0.5), 0.0);
        assert!((w.value(1.05) - 0.5).abs() < 1e-12); // mid-rise
        assert_eq!(w.value(1.3), 1.0); // flat top
        assert!((w.value(1.7) - 0.5).abs() < 1e-12); // mid-fall
        assert_eq!(w.value(3.0), 0.0);
        assert_eq!(w.value(0.0), 0.0);
    }

    #[test]
    fn pulse_periodicity() {
        let w = Waveform::Pulse {
            v1: 0.0,
            v2: 1.0,
            delay: 0.0,
            rise: 0.1,
            fall: 0.1,
            width: 0.3,
            period: 1.0,
        };
        assert!((w.value(0.2) - w.value(1.2)).abs() < 1e-12);
        assert!((w.value(0.45) - w.value(2.45)).abs() < 1e-12);
    }

    #[test]
    fn pwl_interpolates_and_extrapolates() {
        let w = Waveform::Pwl(vec![(1.0, 0.0), (2.0, 2.0)]);
        assert_eq!(w.value(0.0), 0.0);
        assert_eq!(w.value(1.5), 1.0);
        assert_eq!(w.value(5.0), 2.0);
    }

    #[test]
    fn step_constructor() {
        let w = Waveform::step(0.0, 0.9, 1e-9, 10e-12);
        assert_eq!(w.value(0.0), 0.0);
        assert_eq!(w.value(2e-9), 0.9);
        assert!((w.value(1e-9 + 5e-12) - 0.45).abs() < 1e-9);
    }

    #[test]
    fn breakpoints_cover_edges() {
        let w = Waveform::Pulse {
            v1: 0.0,
            v2: 1.0,
            delay: 1e-9,
            rise: 0.1e-9,
            fall: 0.1e-9,
            width: 0.5e-9,
            period: 0.0,
        };
        let bp = w.breakpoints(10e-9);
        assert_eq!(bp.len(), 4);
        assert!((bp[0] - 1e-9).abs() < 1e-21);
    }
}
