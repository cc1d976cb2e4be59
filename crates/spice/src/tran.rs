//! Transient analysis options and results.
//!
//! The integration loop (fixed base step with waveform-breakpoint
//! alignment, trapezoidal with backward-Euler restarts, recursive step
//! halving) lives in [`crate::session::Session::tran_owned`], which starts
//! from the t = 0 operating point a DC entry point returned (a guessed
//! [`crate::Session::dc_owned_with_guess`] selects the state of bistable
//! circuits). The charge companion it assembles every step and the charge
//! state it carries between steps ([`crate::engine::TranState`]) are in
//! [`crate::engine`], built from the same per-element linearization as DC
//! and AC analysis.

use crate::netlist::NodeId;

/// Options for a transient analysis ([`crate::Session::tran_owned`]).
#[derive(Debug, Clone)]
pub struct TranOptions {
    /// Simulation end time, s.
    pub tstop: f64,
    /// Base time step, s.
    pub dt: f64,
}

impl TranOptions {
    /// Creates options with the given stop time and base step.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < dt <= tstop`.
    pub fn new(tstop: f64, dt: f64) -> Self {
        assert!(dt > 0.0 && dt <= tstop, "need 0 < dt <= tstop");
        TranOptions { tstop, dt }
    }
}

/// A transient waveform set: all unknowns at every accepted time point.
#[derive(Debug, Clone)]
pub struct TranResult {
    times: Vec<f64>,
    snapshots: Vec<Vec<f64>>,
    nn: usize,
}

impl TranResult {
    pub(crate) fn new(times: Vec<f64>, snapshots: Vec<Vec<f64>>, nn: usize) -> Self {
        TranResult {
            times,
            snapshots,
            nn,
        }
    }

    /// The accepted time points, s.
    #[must_use]
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Number of stored points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True when no points were stored (cannot happen for a successful run).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Voltage waveform of a node (plural: one value per time point, in
    /// line with [`crate::dc::SweepResult::voltages`]).
    #[must_use]
    pub fn voltages(&self, node: NodeId) -> Vec<f64> {
        match node.unknown() {
            None => vec![0.0; self.len()],
            Some(i) => self.snapshots.iter().map(|x| x[i]).collect(),
        }
    }

    /// Branch-current waveform of the `k`-th voltage source.
    #[must_use]
    pub fn vsource_currents(&self, k: usize) -> Vec<f64> {
        self.snapshots.iter().map(|x| x[self.nn + k]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Circuit;
    use crate::session::Session;
    use crate::waveform::Waveform;

    /// The transient of `c` from its DC operating point.
    fn tran(c: Circuit, opts: &TranOptions) -> TranResult {
        let mut s = Session::elaborate(c).unwrap();
        let op = s.dc_owned().unwrap();
        s.tran_owned(&op, opts).unwrap()
    }

    /// RC charging: v(t) = V (1 - exp(-t/RC)).
    #[test]
    fn rc_step_response_matches_analytic() {
        let r = 1e3;
        let c = 1e-9;
        let tau = r * c;
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource(
            "V1",
            vin,
            Circuit::GROUND,
            Waveform::step(0.0, 1.0, 0.0, 1e-12),
        );
        ckt.resistor("R1", vin, out, r);
        ckt.capacitor("C1", out, Circuit::GROUND, c);
        let res = tran(ckt, &TranOptions::new(5.0 * tau, tau / 100.0));
        let v = res.voltages(out);
        for (i, &t) in res.times().iter().enumerate() {
            let expected = 1.0 - (-t / tau).exp();
            assert!(
                (v[i] - expected).abs() < 5e-3,
                "t={t:.3e}: {} vs {}",
                v[i],
                expected
            );
        }
    }

    /// RC discharge through trapezoidal integration conserves monotonicity
    /// (no ringing artifacts).
    #[test]
    fn rc_response_is_monotone() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource(
            "V1",
            vin,
            Circuit::GROUND,
            Waveform::step(0.0, 1.0, 1e-9, 1e-12),
        );
        ckt.resistor("R1", vin, out, 1e3);
        ckt.capacitor("C1", out, Circuit::GROUND, 1e-12);
        let res = tran(ckt, &TranOptions::new(10e-9, 0.05e-9));
        let v = res.voltages(out);
        for w in v.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "ringing: {} -> {}", w[0], w[1]);
        }
        assert!(v[res.len() - 1] > 0.99);
    }

    /// A floating RC divider: two series capacitors divide a step by the
    /// inverse capacitance ratio.
    #[test]
    fn capacitive_divider() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let mid = ckt.node("mid");
        ckt.vsource(
            "V1",
            vin,
            Circuit::GROUND,
            Waveform::step(0.0, 1.0, 0.1e-9, 1e-12),
        );
        ckt.capacitor("C1", vin, mid, 3e-12);
        ckt.capacitor("C2", mid, Circuit::GROUND, 1e-12);
        let res = tran(ckt, &TranOptions::new(1e-9, 0.01e-9));
        let v = res.voltages(mid);
        // Divider: C1/(C1+C2) = 0.75 right after the step.
        let last = v[res.len() - 1];
        assert!((last - 0.75).abs() < 0.02, "divider = {last}");
    }

    #[test]
    fn pulse_source_waveform_is_tracked() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.vsource(
            "V1",
            a,
            Circuit::GROUND,
            Waveform::Pulse {
                v1: 0.0,
                v2: 1.0,
                delay: 1e-9,
                rise: 0.1e-9,
                fall: 0.1e-9,
                width: 1e-9,
                period: 0.0,
            },
        );
        ckt.resistor("R1", a, Circuit::GROUND, 1e3);
        let res = tran(ckt, &TranOptions::new(4e-9, 0.05e-9));
        let v = res.voltages(a);
        let t = res.times();
        // Before the pulse, 0; on the flat top, 1.
        let idx_before = t.iter().position(|&x| x > 0.5e-9).unwrap();
        assert!(v[idx_before].abs() < 1e-9);
        let idx_top = t.iter().position(|&x| x > 1.6e-9).unwrap();
        assert!((v[idx_top] - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn bad_options_panic() {
        TranOptions::new(1e-9, 0.0);
    }
}
