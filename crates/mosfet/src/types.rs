//! Shared device types: polarity, geometry, physical constants, and unit
//! conversion helpers.
//!
//! Everything inside the workspace is SI (meters, volts, amps, F/m²,
//! m²/(V·s), m/s). The helpers here convert from the units compact-model
//! literature quotes (nm, µF/cm², cm²/V·s, cm/s) at the boundary.

/// Thermal voltage `kT/q` at 300 K, in volts.
pub const PHI_T: f64 = 0.025_852;

/// Device polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Polarity {
    /// n-channel device.
    Nmos,
    /// p-channel device.
    Pmos,
}

impl Polarity {
    /// Voltage/current folding sign: `+1` for NMOS, `-1` for PMOS.
    pub fn sign(self) -> f64 {
        match self {
            Polarity::Nmos => 1.0,
            Polarity::Pmos => -1.0,
        }
    }
}

impl std::fmt::Display for Polarity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Polarity::Nmos => write!(f, "NMOS"),
            Polarity::Pmos => write!(f, "PMOS"),
        }
    }
}

/// Drawn device geometry (width and channel length), in meters.
///
/// # Example
///
/// ```
/// use mosfet::Geometry;
///
/// let g = Geometry::from_nm(600.0, 40.0);
/// assert!((g.w - 600e-9).abs() < 1e-18);
/// assert!((g.area() - 2.4e-14).abs() < 1e-22);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Geometry {
    /// Channel width in meters.
    pub w: f64,
    /// Channel length in meters.
    pub l: f64,
}

impl Geometry {
    /// Creates a geometry from SI widths/lengths.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is not strictly positive.
    pub fn new(w: f64, l: f64) -> Self {
        assert!(
            w > 0.0 && l > 0.0,
            "geometry must be positive, got W={w}, L={l}"
        );
        Geometry { w, l }
    }

    /// Creates a geometry from nanometer dimensions.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is not strictly positive.
    pub fn from_nm(w_nm: f64, l_nm: f64) -> Self {
        Geometry::new(w_nm * 1e-9, l_nm * 1e-9)
    }

    /// Gate area `W * L` in m².
    pub fn area(&self) -> f64 {
        self.w * self.l
    }

    /// Width in nanometers (for display).
    pub fn w_nm(&self) -> f64 {
        self.w * 1e9
    }

    /// Length in nanometers (for display).
    pub fn l_nm(&self) -> f64 {
        self.l * 1e9
    }
}

impl std::fmt::Display for Geometry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.0}nm/{:.0}nm", self.w_nm(), self.l_nm())
    }
}

/// Unit conversion helpers.
pub mod units {
    /// Nanometers to meters.
    pub fn nm(v: f64) -> f64 {
        v * 1e-9
    }

    /// µF/cm² to F/m² (gate capacitance per area).
    pub fn uf_per_cm2(v: f64) -> f64 {
        v * 1e-2
    }

    /// cm²/(V·s) to m²/(V·s) (mobility).
    pub fn cm2_per_vs(v: f64) -> f64 {
        v * 1e-4
    }

    /// cm/s to m/s (injection velocity).
    pub fn cm_per_s(v: f64) -> f64 {
        v * 1e-2
    }

    /// fF/µm to F/m (overlap capacitance per width).
    pub fn ff_per_um(v: f64) -> f64 {
        v * 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn polarity_signs() {
        assert_eq!(Polarity::Nmos.sign(), 1.0);
        assert_eq!(Polarity::Pmos.sign(), -1.0);
        assert_eq!(Polarity::Nmos.to_string(), "NMOS");
    }

    #[test]
    fn geometry_constructors_agree() {
        let a = Geometry::new(600e-9, 40e-9);
        let b = Geometry::from_nm(600.0, 40.0);
        assert!((a.w - b.w).abs() < 1e-20);
        assert!((a.l - b.l).abs() < 1e-20);
        assert!((a.w_nm() - 600.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn zero_width_rejected() {
        Geometry::new(0.0, 40e-9);
    }

    #[test]
    fn unit_conversions() {
        assert!((units::uf_per_cm2(1.3) - 0.013).abs() < 1e-15);
        assert!((units::cm2_per_vs(250.0) - 0.025).abs() < 1e-15);
        assert!((units::cm_per_s(1.0e7) - 1.0e5).abs() < 1e-9);
        assert!((units::nm(40.0) - 4e-8).abs() < 1e-22);
        assert!((units::ff_per_um(0.3) - 0.3e-9).abs() < 1e-22);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Geometry::from_nm(600.0, 40.0).to_string(), "600nm/40nm");
    }
}
