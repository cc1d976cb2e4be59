//! 1-D root finding on sampled data: the linear threshold crossing that
//! `spice::measure` interpolates between two waveform samples.

/// Linear interpolation of the crossing `y(x) = level` between two samples.
///
/// Returns `None` if the segment does not cross the level (or is degenerate).
///
/// ```
/// let x = numerics::roots::linear_crossing(0.0, 0.0, 1.0, 2.0, 1.0);
/// assert_eq!(x, Some(0.5));
/// ```
pub fn linear_crossing(x0: f64, y0: f64, x1: f64, y1: f64, level: f64) -> Option<f64> {
    let d0 = y0 - level;
    let d1 = y1 - level;
    if d0 == 0.0 {
        return Some(x0);
    }
    if d1 == 0.0 {
        return Some(x1);
    }
    if d0.signum() == d1.signum() || y1 == y0 {
        return None;
    }
    Some(x0 + (x1 - x0) * (level - y0) / (y1 - y0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossing_interpolation() {
        assert_eq!(linear_crossing(0.0, 0.0, 2.0, 4.0, 1.0), Some(0.5));
        assert_eq!(linear_crossing(0.0, 0.0, 1.0, 0.5, 1.0), None);
        // Exact hit at the left sample.
        assert_eq!(linear_crossing(1.0, 1.0, 2.0, 3.0, 1.0), Some(1.0));
    }
}
