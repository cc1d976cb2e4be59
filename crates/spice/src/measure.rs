//! Waveform measurements: crossings, propagation delay, averages.

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

/// Propagation delay from the input's crossing of `level` (given edge) to
/// the output's next crossing of `level` (any edge).
///
/// Returns `None` when either crossing is missing — e.g. a functional
/// failure in a Monte Carlo sample.
pub fn prop_delay(
    times: &[f64],
    input: &[f64],
    output: &[f64],
    level: f64,
    input_edge: Edge,
) -> Option<f64> {
    let t_in = cross_time(times, input, level, input_edge, 0.0)?;
    let t_out = cross_time(times, output, level, Edge::Any, t_in)?;
    Some(t_out - t_in)
}

/// Trapezoidal time-average of a waveform.
///
/// # Panics
///
/// Panics if the waveform has fewer than 2 points or mismatched lengths.
pub fn average(times: &[f64], values: &[f64]) -> f64 {
    assert_eq!(times.len(), values.len(), "waveform length mismatch");
    assert!(times.len() >= 2, "average needs at least two samples");
    let mut integral = 0.0;
    for i in 1..times.len() {
        integral += 0.5 * (values[i] + values[i - 1]) * (times[i] - times[i - 1]);
    }
    integral / (times[times.len() - 1] - times[0])
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
    fn delay_between_shifted_ramps() {
        let t: Vec<f64> = (0..=100).map(|i| i as f64 * 0.1e-9).collect();
        let vin: Vec<f64> = t.iter().map(|&x| (x / 5e-9).min(1.0)).collect();
        let vout: Vec<f64> = t
            .iter()
            .map(|&x| ((x - 2e-9) / 5e-9).clamp(0.0, 1.0))
            .collect();
        let d = prop_delay(&t, &vin, &vout, 0.5, Edge::Rising).unwrap();
        assert!((d - 2e-9).abs() < 1e-12, "delay = {d}");
    }

    #[test]
    fn missing_crossing_returns_none() {
        let (t, v) = ramp();
        assert_eq!(cross_time(&t, &v, 2.0, Edge::Any, 0.0), None);
        let flat = vec![0.0; t.len()];
        assert_eq!(prop_delay(&t, &v, &flat, 0.5, Edge::Rising), None);
    }

    #[test]
    fn average_of_ramp() {
        let (t, v) = ramp();
        assert!((average(&t, &v) - 0.5).abs() < 1e-12);
    }
}
