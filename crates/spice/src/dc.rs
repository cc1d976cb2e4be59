//! DC result types.
//!
//! The solver itself lives in [`crate::session::Session`]; elaborate a
//! session once and run [`crate::Session::dc_owned`] /
//! [`crate::Session::dc_sweep_owned`] against it.

use crate::netlist::NodeId;

/// A solved DC operating point.
///
/// Accessor naming: scalar-per-node results use the singular (`voltage`),
/// trace-per-node results (sweep, transient, AC) use the plural
/// (`voltages`).
#[derive(Debug, Clone)]
pub struct DcResult {
    x: Vec<f64>,
    nn: usize,
}

impl DcResult {
    pub(crate) fn new(x: Vec<f64>, nn: usize) -> Self {
        DcResult { x, nn }
    }

    /// Voltage of a node (0 for ground).
    #[must_use]
    pub fn voltage(&self, node: NodeId) -> f64 {
        node.unknown().map_or(0.0, |i| self.x[i])
    }

    /// Branch current of the `k`-th voltage source (by addition order, see
    /// [`crate::Circuit::vsource_index`]). SPICE convention: positive
    /// current flows
    /// *into* the positive terminal (so a supply delivering power reports a
    /// negative current).
    #[must_use]
    pub fn vsource_current(&self, k: usize) -> f64 {
        self.x[self.nn + k]
    }

    /// The raw unknown vector (node voltages then branch currents) — the
    /// start [`crate::Session::dc_owned_from`] takes, and the point
    /// [`crate::Circuit::linearize`] linearizes at.
    #[must_use]
    pub fn raw(&self) -> &[f64] {
        &self.x
    }
}

/// Result of a DC sweep: one operating point per swept value.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// The swept source values.
    pub values: Vec<f64>,
    /// The operating points, aligned with `values`.
    pub points: Vec<DcResult>,
}

impl SweepResult {
    /// Voltage trace of a node across the sweep.
    #[must_use]
    pub fn voltages(&self, node: NodeId) -> Vec<f64> {
        self.points.iter().map(|p| p.voltage(node)).collect()
    }

    /// Branch-current trace of the `k`-th voltage source across the sweep.
    #[must_use]
    pub fn vsource_currents(&self, k: usize) -> Vec<f64> {
        self.points.iter().map(|p| p.vsource_current(k)).collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::netlist::Circuit;
    use crate::session::Session;
    use crate::waveform::Waveform;

    #[test]
    fn divider_op() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let m = c.node("m");
        c.vsource("V1", a, Circuit::GROUND, Waveform::dc(1.0));
        c.resistor("R1", a, m, 2e3);
        c.resistor("R2", m, Circuit::GROUND, 1e3);
        let mut s = Session::elaborate(c).unwrap();
        let op = s.dc_owned().unwrap();
        assert!((op.voltage(m) - 1.0 / 3.0).abs() < 1e-6);
        assert!((op.voltage(Circuit::GROUND)).abs() < 1e-12);
        // Source current = -1/3 mA (delivering).
        assert!((op.vsource_current(0) + 1.0 / 3.0e3).abs() < 1e-9);
    }

    #[test]
    fn capacitor_is_open_in_dc() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let m = c.node("m");
        c.vsource("V1", a, Circuit::GROUND, Waveform::dc(1.0));
        c.resistor("R1", a, m, 1e3);
        c.capacitor("C1", m, Circuit::GROUND, 1e-12);
        let op = Session::elaborate(c).unwrap().dc_owned().unwrap();
        // No DC path to ground through C: node follows the source.
        assert!((op.voltage(m) - 1.0).abs() < 1e-3);
    }

    #[test]
    fn sweep_tracks_source_and_reports_currents() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let m = c.node("m");
        c.vsource("Vin", a, Circuit::GROUND, Waveform::dc(0.0));
        c.resistor("R1", a, m, 1e3);
        c.resistor("R2", m, Circuit::GROUND, 1e3);
        let mut s = Session::elaborate(c).unwrap();
        let sweep = s.dc_sweep_owned("Vin", &[0.0, 0.5, 1.0, 2.0], &[]).unwrap();
        let vm = sweep.voltages(m);
        for (v, vin) in vm.iter().zip(&sweep.values) {
            assert!((v - vin / 2.0).abs() < 1e-6);
        }
        let im = sweep.vsource_currents(0);
        for (i, vin) in im.iter().zip(&sweep.values) {
            assert!((i + vin / 2e3).abs() < 1e-8);
        }
        // The session still has its original source value afterwards.
        assert_eq!(s.dc_owned().unwrap().voltage(a), 0.0);
    }

    #[test]
    fn empty_sweep_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.vsource("V1", a, Circuit::GROUND, Waveform::dc(1.0));
        c.resistor("R1", a, Circuit::GROUND, 1.0);
        let mut s = Session::elaborate(c).unwrap();
        assert!(s.dc_sweep_owned("V1", &[], &[]).is_err());
        assert!(s.dc_sweep_owned("nope", &[1.0], &[]).is_err());
    }

    #[test]
    fn guess_does_not_change_linear_answer() {
        // A plain linear circuit: the guess must not change the answer.
        let mut c = Circuit::new();
        let a = c.node("a");
        c.vsource("V1", a, Circuit::GROUND, Waveform::dc(1.0));
        c.resistor("R1", a, Circuit::GROUND, 1e3);
        let mut s = Session::elaborate(c).unwrap();
        let op1 = s.dc_owned().unwrap();
        let op2 = s.dc_owned_with_guess(&[(a, -5.0)]).unwrap();
        assert!((op1.voltage(a) - op2.voltage(a)).abs() < 1e-9);
    }
}
