//! AC small-signal analysis.
//!
//! Linearizes the circuit at its DC operating point into conductance and
//! capacitance matrices `(G, C)`, then solves `(G + jωC) x = b` across a
//! frequency sweep with a unit-magnitude excitation on one voltage source —
//! the analysis the paper's Table IV runs on the SRAM cell ("SRAM AC").
//! Both matrices come from [`crate::engine`]'s one linearization of every
//! element: `G` is the DC Newton matrix at the operating point (the
//! resistive stamps plus the gmin floor) and `C` the charge partials
//! `∂q/∂v` that the transient companion scales by `1/h` or `2/h`.
//!
//! Run it through [`crate::Session::ac_owned`] at an operating point a DC
//! entry point returned; a Monte Carlo loop that resamples devices between
//! sweeps solves each sample's operating point from the previous one's
//! ([`crate::Session::dc_owned_from`]) first. The session caches one
//! workspace for every sweep: one pair of real `(G, C)` matrices refilled
//! in place per linearization ([`Circuit::linearize_into`]), and one
//! complex matrix, one factorization, and one right-hand side reused for
//! every frequency point ([`CMatrix::assign_gc`] +
//! [`numerics::complex::CLu`], the DC solver's LU kernel over complex
//! scalars) — the sweep hot loop performs no allocation beyond the
//! returned solution vectors.

use crate::engine::{charge_stamp, stamp_resistive, GMIN_FLOOR};
use crate::error::SpiceError;
use crate::netlist::{Circuit, NodeId};
use numerics::complex::{CLu, CMatrix, C64};
use numerics::Matrix;

/// Result of an AC sweep: complex node voltages per frequency.
#[derive(Debug, Clone)]
pub struct AcResult {
    freqs: Vec<f64>,
    /// Unknown vectors of all frequency points, concatenated (point `k`
    /// occupies `k*n..(k+1)*n`) — one allocation per sweep.
    solutions: Vec<C64>,
    /// Unknowns per frequency point.
    n: usize,
}

impl AcResult {
    /// Swept frequencies, Hz.
    #[must_use]
    pub fn freqs(&self) -> &[f64] {
        &self.freqs
    }

    /// Complex voltage trace of a node across the sweep (0 for ground;
    /// plural, in line with [`crate::dc::SweepResult::voltages`]).
    #[must_use]
    pub fn voltages(&self, node: NodeId) -> Vec<C64> {
        match node.unknown() {
            None => vec![C64::ZERO; self.freqs.len()],
            Some(i) => self.solutions.chunks_exact(self.n).map(|x| x[i]).collect(),
        }
    }

    /// Voltage magnitude trace of a node across the sweep.
    #[must_use]
    pub fn magnitudes(&self, node: NodeId) -> Vec<f64> {
        self.voltages(node).into_iter().map(C64::abs).collect()
    }
}

/// Small-signal matrices at an operating point.
#[derive(Debug, Clone)]
pub struct Linearized {
    /// Conductance matrix (includes voltage-source branch rows).
    pub g: Matrix,
    /// Capacitance matrix (zero in the branch rows).
    pub c: Matrix,
    nn: usize,
}

impl Linearized {
    /// Allocates zeroed small-signal matrices sized for `circuit` — the
    /// storage [`Circuit::linearize_into`] refills per operating point.
    #[must_use]
    pub fn for_circuit(circuit: &Circuit) -> Self {
        let n = circuit.n_unknowns();
        Linearized {
            g: Matrix::zeros(n, n),
            c: Matrix::zeros(n, n),
            nn: circuit.node_count() - 1,
        }
    }
}

impl Circuit {
    /// Linearizes every element at the operating-point unknown vector
    /// `x_op` (as returned by [`crate::dc::DcResult::raw`]).
    pub fn linearize(&self, x_op: &[f64]) -> Linearized {
        let mut lin = Linearized::for_circuit(self);
        self.linearize_into(x_op, &mut lin);
        lin
    }

    /// [`Circuit::linearize`] into existing storage — no allocation. The
    /// Monte Carlo hot path: one [`Linearized`] is refilled per sample.
    ///
    /// # Panics
    ///
    /// Panics if `lin` was not sized for this circuit (see
    /// [`Linearized::for_circuit`]).
    pub fn linearize_into(&self, x_op: &[f64], lin: &mut Linearized) {
        let nn = self.node_count() - 1;
        let n = self.n_unknowns();
        assert!(
            lin.g.rows() == n && lin.c.rows() == n && lin.nn == nn,
            "linearize_into: storage sized for order {} (nn {}), circuit has {n} ({nn})",
            lin.g.rows(),
            lin.nn,
        );
        lin.g.fill_zero();
        lin.c.fill_zero();
        // `G` is the DC Newton matrix at `x_op` (the right-hand side is
        // dropped) and `C` holds the charge partials.
        let mut branch = nn;
        for e in self.elements() {
            stamp_resistive(
                e,
                x_op,
                &mut branch,
                0.0,
                1.0,
                |i, j, v| lin.g[(i, j)] += v,
                |_, _| {},
            );
            if let Some(ch) = charge_stamp(e, x_op, true) {
                ch.write_partials(1.0, |i, j, v| lin.c[(i, j)] += v);
            }
        }
        // Gmin floor on node diagonals (matches the DC assembly).
        for i in 0..nn {
            lin.g[(i, i)] += GMIN_FLOOR;
        }
    }
}

/// Reusable AC sweep scratch: real `(G, C)` linearization storage plus the
/// complex system `(G + jωC)`, its LU factorization, and the right-hand
/// side, all allocated once and refilled per operating point / frequency.
/// [`crate::Session`] caches one and routes every
/// [`crate::Session::ac_owned`] sweep through it.
#[derive(Debug)]
pub(crate) struct AcWorkspace {
    lin: Linearized,
    /// Assembled `G + jωC` for the current frequency point.
    m: CMatrix,
    /// Reused complex LU storage (initialized on the first point).
    lu: Option<CLu>,
    /// Unit-excitation right-hand side.
    b: Vec<C64>,
    /// Solution scratch for the current point.
    x: Vec<C64>,
}

impl AcWorkspace {
    /// Allocates a workspace sized for `circuit`.
    pub(crate) fn for_circuit(circuit: &Circuit) -> Self {
        let n = circuit.n_unknowns();
        AcWorkspace {
            lin: Linearized::for_circuit(circuit),
            m: CMatrix::zeros(n),
            lu: None,
            b: vec![C64::ZERO; n],
            x: vec![C64::ZERO; n],
        }
    }

    /// Linearizes `circuit` at `x_op`, applies a unit AC excitation to the
    /// voltage source named `source`, and solves at every frequency —
    /// refilling this workspace's storage instead of allocating.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidArgument`] for an empty frequency list
    /// or a frequency that is not finite and positive,
    /// [`SpiceError::BadNetlist`] for an unknown source, and
    /// [`SpiceError::SingularSystem`] for a singular frequency point.
    ///
    /// # Panics
    ///
    /// Panics if the workspace was sized for a different circuit layout
    /// (see [`AcWorkspace::for_circuit`]).
    pub(crate) fn sweep(
        &mut self,
        circuit: &Circuit,
        x_op: &[f64],
        source: &str,
        freqs: &[f64],
    ) -> Result<AcResult, SpiceError> {
        if freqs.is_empty() || !freqs.iter().all(|&f| f > 0.0 && f.is_finite()) {
            return Err(SpiceError::InvalidArgument {
                context: "AC sweep needs finite positive frequencies".into(),
            });
        }
        let src_idx = circuit.vsource_index(source)?;
        circuit.linearize_into(x_op, &mut self.lin);
        self.b.iter_mut().for_each(|v| *v = C64::ZERO);
        self.b[self.lin.nn + src_idx] = C64::ONE;
        let n = self.b.len();
        let mut solutions = Vec::with_capacity(freqs.len() * n);
        for &f in freqs {
            let omega = 2.0 * std::f64::consts::PI * f;
            self.m.assign_gc(&self.lin.g, &self.lin.c, omega);
            let singular = |e| SpiceError::SingularSystem {
                context: format!("AC point at {f:.3e} Hz: {e}"),
            };
            let lu = match self.lu.as_mut() {
                Some(lu) => {
                    lu.refactor(&self.m).map_err(singular)?;
                    lu
                }
                None => self.lu.insert(CLu::factor(&self.m).map_err(singular)?),
            };
            lu.solve_into(&self.b, &mut self.x).map_err(singular)?;
            solutions.extend_from_slice(&self.x);
        }
        Ok(AcResult {
            freqs: freqs.to_vec(),
            solutions,
            n,
        })
    }
}

/// Logarithmically spaced frequency points (decade sweep), starting at
/// `f_start` and always ending exactly at `f_stop` — for non-integer decade
/// spans the last regular point past `f_stop` is replaced by `f_stop`
/// itself, so the sweep covers its full range.
///
/// # Panics
///
/// Panics unless `0 < f_start < f_stop` and `points_per_decade > 0`.
pub fn log_sweep(f_start: f64, f_stop: f64, points_per_decade: usize) -> Vec<f64> {
    assert!(f_start > 0.0 && f_stop > f_start && points_per_decade > 0);
    let decades = (f_stop / f_start).log10();
    let n = (decades * points_per_decade as f64).ceil() as usize + 1;
    let mut freqs: Vec<f64> = (0..n)
        .map(|i| f_start * 10f64.powf(i as f64 / points_per_decade as f64))
        // Strictly below f_stop with a relative guard, so an integer-decade
        // span does not emit a rounding-level near-duplicate of the stop.
        .filter(|&f| f < f_stop * (1.0 - 1e-9))
        .collect();
    freqs.push(f_stop);
    freqs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use crate::waveform::Waveform;
    use mosfet::{vs::VsModel, Geometry};

    #[test]
    fn rc_lowpass_bode() {
        let r = 1e3;
        let c = 1e-9;
        let fc = 1.0 / (2.0 * std::f64::consts::PI * r * c);
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource("V1", vin, Circuit::GROUND, Waveform::dc(0.0));
        ckt.resistor("R1", vin, out, r);
        ckt.capacitor("C1", out, Circuit::GROUND, c);
        let mut s = Session::elaborate(ckt).unwrap();
        let op = s.dc_owned().unwrap();
        let res = s
            .ac_owned(&op, "V1", &[fc / 100.0, fc, fc * 100.0])
            .unwrap();
        let mag = res.magnitudes(out);
        let phase = res.voltages(out)[1].arg();
        assert!((mag[0] - 1.0).abs() < 1e-3, "passband |H| = {}", mag[0]);
        assert!(
            (mag[1] - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-3,
            "|H(fc)| = {}",
            mag[1]
        );
        assert!(mag[2] < 0.011, "stopband |H| = {}", mag[2]);
        assert!(
            (phase + std::f64::consts::FRAC_PI_4).abs() < 1e-3,
            "phase(fc) = {phase}"
        );
    }

    #[test]
    fn inverter_small_signal_gain_rolls_off() {
        // Bias an inverter near its switching threshold; low-frequency gain
        // is well above 1 and falls at high frequency.
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource("VDD", vdd, Circuit::GROUND, Waveform::dc(0.9));
        ckt.vsource("VIN", vin, Circuit::GROUND, Waveform::dc(0.42));
        ckt.mosfet(
            "MP",
            out,
            vin,
            vdd,
            vdd,
            Box::new(VsModel::nominal_pmos_40nm(Geometry::from_nm(600.0, 40.0))),
        );
        ckt.mosfet(
            "MN",
            out,
            vin,
            Circuit::GROUND,
            Circuit::GROUND,
            Box::new(VsModel::nominal_nmos_40nm(Geometry::from_nm(300.0, 40.0))),
        );
        ckt.capacitor("CL", out, Circuit::GROUND, 1e-15);
        let mut s = Session::elaborate(ckt).unwrap();
        let op = s.dc_owned().unwrap();
        let res = s.ac_owned(&op, "VIN", &[1e6, 1e12]).unwrap();
        let mag = res.magnitudes(out);
        assert!(mag[0] > 2.0, "low-frequency gain = {}", mag[0]);
        assert!(mag[1] < 0.5 * mag[0], "gain must roll off: {mag:?}");
    }

    #[test]
    fn log_sweep_spacing() {
        let f = log_sweep(1e3, 1e6, 10);
        assert_eq!(f.len(), 31);
        assert!((f[10] / f[0] - 10.0).abs() < 1e-9);
        // Integer decade span: ends exactly at the stop, no near-duplicate.
        assert_eq!(*f.last().unwrap(), 1e6);
        assert!(f[29] < 1e6 * 0.95);
    }

    #[test]
    fn log_sweep_reaches_stop_on_non_integer_spans() {
        // Regression: 1e3 -> 5e5 spans 2.699 decades; the old endpoint
        // filter dropped the final generated point and topped out at
        // ~3.98e5 Hz, never reaching the requested stop.
        let f = log_sweep(1e3, 5e5, 10);
        assert_eq!(f[0], 1e3);
        assert_eq!(*f.last().unwrap(), 5e5);
        for w in f.windows(2) {
            assert!(w[1] > w[0], "not ascending: {} -> {}", w[0], w[1]);
        }
        // The regular grid is intact below the clamped endpoint.
        assert!((f[10] / f[0] - 10.0).abs() < 1e-9);
        // A fractional-decade stop lands between the last two grid points.
        assert!(f[f.len() - 2] < 5e5 && f[f.len() - 2] > 3.9e5);
    }

    /// Every frequency must be finite and positive: a NaN or infinite
    /// one is an argument error, not a singular system. On an RC low-pass
    /// `G + jωC` at such an ω is NaN, which the LU would report as a
    /// singular pivot.
    #[test]
    fn rejects_bad_arguments() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let out = ckt.node("out");
        ckt.vsource("V1", a, Circuit::GROUND, Waveform::dc(1.0));
        ckt.resistor("R1", a, out, 1e3);
        ckt.capacitor("C1", out, Circuit::GROUND, 1e-9);
        let mut s = Session::elaborate(ckt).unwrap();
        let op = s.dc_owned().unwrap();
        for freqs in [
            &[][..],
            &[-1.0],
            &[1e6, 0.0],
            &[f64::NAN],
            &[1e6, f64::INFINITY],
            &[f64::NEG_INFINITY],
        ] {
            assert!(
                matches!(
                    s.ac_owned(&op, "V1", freqs),
                    Err(SpiceError::InvalidArgument { .. })
                ),
                "{freqs:?}"
            );
        }
        assert!(matches!(
            s.ac_owned(&op, "nope", &[1.0]),
            Err(SpiceError::BadNetlist { .. })
        ));
    }

    #[test]
    #[should_panic]
    fn log_sweep_validates() {
        log_sweep(0.0, 1e3, 10);
    }
}
