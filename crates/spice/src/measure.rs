//! Waveform measurements: level crossings.

use numerics::roots::linear_crossing;

/// Which edge of a signal to look for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edge {
    /// Low-to-high crossing.
    Rising,
    /// High-to-low crossing.
    Falling,
    /// Either direction.
    Any,
}

/// All level crossings of a sampled waveform, as `(time, rising)` pairs,
/// linearly interpolated between samples.
///
/// # Panics
///
/// Panics if `times` and `values` differ in length.
pub fn crossings(times: &[f64], values: &[f64], level: f64) -> Vec<(f64, bool)> {
    assert_eq!(times.len(), values.len(), "waveform length mismatch");
    let mut out = Vec::new();
    for i in 1..times.len() {
        let (y0, y1) = (values[i - 1], values[i]);
        if (y0 - level).signum() != (y1 - level).signum() && y0 != y1 {
            if let Some(t) = linear_crossing(times[i - 1], y0, times[i], y1, level) {
                out.push((t, y1 > y0));
            }
        }
    }
    out
}

/// Time of the first crossing of `level` at or after `t_min`, on the given
/// edge. Returns `None` if no such crossing exists.
pub fn cross_time(
    times: &[f64],
    values: &[f64],
    level: f64,
    edge: Edge,
    t_min: f64,
) -> Option<f64> {
    crossings(times, values, level)
        .into_iter()
        .find(|&(t, rising)| {
            t >= t_min
                && match edge {
                    Edge::Rising => rising,
                    Edge::Falling => !rising,
                    Edge::Any => true,
                }
        })
        .map(|(t, _)| t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> (Vec<f64>, Vec<f64>) {
        // 0..1 V over 0..10 ns.
        let times: Vec<f64> = (0..=10).map(|i| i as f64 * 1e-9).collect();
        let values: Vec<f64> = (0..=10).map(|i| i as f64 * 0.1).collect();
        (times, values)
    }

    #[test]
    fn single_rising_crossing() {
        let (t, v) = ramp();
        let c = crossings(&t, &v, 0.55);
        assert_eq!(c.len(), 1);
        assert!(c[0].1);
        assert!((c[0].0 - 5.5e-9).abs() < 1e-15);
    }

    #[test]
    fn edge_filtering() {
        // Triangle: up then down.
        let t: Vec<f64> = (0..=20).map(|i| i as f64).collect();
        let v: Vec<f64> = (0..=20)
            .map(|i| if i <= 10 { i as f64 } else { 20.0 - i as f64 })
            .collect();
        assert!((cross_time(&t, &v, 5.0, Edge::Rising, 0.0).unwrap() - 5.0).abs() < 1e-12);
        assert!((cross_time(&t, &v, 5.0, Edge::Falling, 0.0).unwrap() - 15.0).abs() < 1e-12);
        assert_eq!(cross_time(&t, &v, 5.0, Edge::Rising, 6.0), None);
        assert!((cross_time(&t, &v, 5.0, Edge::Any, 6.0).unwrap() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn missing_crossing_returns_none() {
        let (t, v) = ramp();
        assert_eq!(cross_time(&t, &v, 2.0, Edge::Any, 0.0), None);
    }
}
