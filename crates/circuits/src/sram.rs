//! 6T SRAM cell: butterfly curves and static noise margin (paper Fig. 9).
//!
//! The butterfly plot overlays the voltage transfer curves of the two
//! half-cells; the static noise margin (SNM) is the side of the largest
//! square that fits inside either eye (Seevinck's maximal-square criterion).
//!
//! * **HOLD**: word line low — each half-cell is just its inverter.
//! * **READ**: word line high, both bit lines precharged to `Vdd` — the
//!   access transistor fights the pull-down, squashing the low level and
//!   shrinking the eyes (the classic read-stability hazard the paper uses
//!   as its most variation-sensitive benchmark).
//!
//! [`SnmBench`] traces both transfer curves at once: the two half-cells
//! share one input source in one circuit, so one DC sweep of that input
//! solves both outputs at every point, its first point started with both
//! outputs at the supply rail.

use crate::cells::DeviceFactory;
use mosfet::Geometry;
use spice::{Circuit, Session, SpiceError, Waveform};

/// Transistor sizing of the 6T cell.
#[derive(Debug, Clone, Copy)]
pub struct SramSizing {
    /// Pull-down NMOS width, m (paper: 150 nm).
    pub w_pd: f64,
    /// Pull-up PMOS width, m.
    pub w_pu: f64,
    /// Pass-gate (access) NMOS width, m.
    pub w_pg: f64,
    /// Channel length, m (paper: 40 nm).
    pub l: f64,
}

impl Default for SramSizing {
    fn default() -> Self {
        SramSizing {
            w_pd: 150e-9,
            w_pu: 80e-9,
            w_pg: 100e-9,
            l: 40e-9,
        }
    }
}

/// One butterfly curve: `(v_l, v_r)` samples in the storage-node plane.
pub type ButterflyCurve = Vec<(f64, f64)>;

/// Static analysis mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnmMode {
    /// Word line low: pure cross-coupled inverters.
    Hold,
    /// Word line high, bit lines at `Vdd`.
    Read,
}

/// The six device models of one cell instance (drawn once per Monte Carlo
/// sample so both half-cells see independent mismatch).
pub struct SramDevices {
    /// Pull-down NMOS of the left and right half-cells.
    pub pd: [Box<dyn mosfet::MosfetModel>; 2],
    /// Pull-up PMOS of the left and right half-cells.
    pub pu: [Box<dyn mosfet::MosfetModel>; 2],
    /// Access NMOS of the left and right half-cells.
    pub pg: [Box<dyn mosfet::MosfetModel>; 2],
}

impl SramDevices {
    /// Draws all six devices from a factory.
    pub fn draw(sz: SramSizing, f: &mut dyn DeviceFactory) -> Self {
        let gn = Geometry::new(sz.w_pd, sz.l);
        let gp = Geometry::new(sz.w_pu, sz.l);
        let ga = Geometry::new(sz.w_pg, sz.l);
        SramDevices {
            pd: [f.nmos(gn), f.nmos(gn)],
            pu: [f.pmos(gp), f.pmos(gp)],
            pg: [f.nmos(ga), f.nmos(ga)],
        }
    }

    /// Swaps these six devices into a session elaborated from
    /// [`full_cell`], under the instance names it gives them. Returns the
    /// number swapped.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::BadNetlist`] if the session is not a full cell.
    pub fn swap_into(self, session: &mut Session) -> Result<usize, SpiceError> {
        let SramDevices {
            pd: [pd1, pd2],
            pu: [pu1, pu2],
            pg: [pg1, pg2],
        } = self;
        session.swap_devices([
            ("PD1", pd1),
            ("PD2", pd2),
            ("PU1", pu1),
            ("PU2", pu2),
            ("PG1", pg1),
            ("PG2", pg2),
        ])
    }
}

/// Builds the butterfly circuit: both half-cells on one input `VIN`.
/// Half-cell `k`'s pull-up `PUk` and pull-down `PDk` drive `outk`, and
/// in READ so does its access device `PGk`, from the bit line `bl` under
/// the word line `wl`, both driven at `vdd_value`. Returns the circuit,
/// the outputs `[out0, out1]`, and the guess of the sweep's first point
/// (input at 0 V): every node but the input at `vdd_value`.
fn butterfly_circuit(
    devices: &SramDevices,
    vdd_value: f64,
    mode: SnmMode,
) -> (Circuit, [spice::NodeId; 2], Vec<(spice::NodeId, f64)>) {
    let mut c = Circuit::new();
    let gnd = Circuit::GROUND;
    let [vdd, vin, out0, out1] = ["vdd", "vin", "out0", "out1"].map(|n| c.node(n));
    c.vsource("VDD", vdd, gnd, Waveform::dc(vdd_value));
    c.vsource("VIN", vin, gnd, Waveform::dc(0.0));
    let mut rails = vec![vdd, out0, out1];
    let lines = (mode == SnmMode::Read).then(|| {
        let [bl, wl] = ["bl", "wl"].map(|n| c.node(n));
        c.vsource("VBL", bl, gnd, Waveform::dc(vdd_value));
        c.vsource("VWL", wl, gnd, Waveform::dc(vdd_value));
        rails.extend([bl, wl]);
        (bl, wl)
    });
    for (k, out) in [out0, out1].into_iter().enumerate() {
        let name = |device| format!("{device}{k}");
        c.mosfet(&name("PU"), out, vin, vdd, vdd, devices.pu[k].clone_box());
        c.mosfet(&name("PD"), out, vin, gnd, gnd, devices.pd[k].clone_box());
        if let Some((bl, wl)) = lines {
            c.mosfet(&name("PG"), bl, wl, out, gnd, devices.pg[k].clone_box());
        }
    }
    let guess = rails.into_iter().map(|n| (n, vdd_value)).collect();
    (c, [out0, out1], guess)
}

/// Largest square inscribed in one eye. Every point `(x0, y0)` of
/// `corner_curve` is a candidate bottom-left corner, and its square grows
/// until the top-right corner meets `bound_curve`, read as the
/// piecewise-linear `y_bound` through its points in ascending `x`,
/// constant beyond its first and last points. The side is the first root
/// of `g(s) = y_bound(x0 + s) − (y0 + s)` ([`square_side`]), capped at
/// `v_max`.
fn lobe_snm(corner_curve: &[(f64, f64)], bound_curve: &[(f64, f64)], v_max: f64) -> f64 {
    let mut bound = bound_curve.to_vec();
    bound.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite voltages"));
    corner_curve
        .iter()
        .filter_map(|&(x0, y0)| square_side(&bound, x0, y0))
        .fold(0.0, |best, s| best.max(s.min(v_max)))
}

/// The first root of `g(s) = y_bound(x0 + s) − (y0 + s)` over `bound`
/// (sorted by `x`; see [`lobe_snm`]), in closed form: `g` is linear
/// between breakpoints, so the walk goes right from `x0` to the first
/// breakpoint where `g ≤ 0` and solves the segment that ends there. Equal
/// `x` values make a vertical segment, a jump of `y_bound`, whose root is
/// its `x`. `None` for a corner outside the eye (`g(0) ≤ 0`) and for an
/// empty `bound`.
fn square_side(bound: &[(f64, f64)], x0: f64, y0: f64) -> Option<f64> {
    let (&first, &last) = (bound.first()?, bound.last()?);
    // `y_bound(x0)`, and the breakpoints from `x0` on.
    let (y_start, ahead) = if x0 <= first.0 {
        (first.1, bound)
    } else if x0 >= last.0 {
        (last.1, &[][..])
    } else {
        let i = bound.partition_point(|p| p.0 < x0);
        let ((xa, ya), (xb, yb)) = (bound[i - 1], bound[i]);
        (ya + (yb - ya) * (x0 - xa) / (xb - xa), &bound[i..])
    };
    let (mut p, mut gp) = ((x0, y_start), y_start - y0);
    if gp <= 0.0 {
        return None;
    }
    for &q in ahead {
        let gq = q.1 - y0 - (q.0 - x0);
        if gq <= 0.0 {
            return Some(p.0 - x0 + (q.0 - p.0) * gp / (gp - gq));
        }
        (p, gp) = (q, gq);
    }
    // Right of the last point `y_bound` stays at `last.1`.
    Some(last.1 - y0)
}

/// Static noise margin of a butterfly: the smaller of the two maximal
/// squares inscribed in the eyes.
///
/// `curve1` and `curve2` are the outputs of [`SnmBench::curves`], both in
/// the `(v_l, v_r)` plane.
pub fn snm(curve1: &[(f64, f64)], curve2: &[(f64, f64)], vdd: f64) -> f64 {
    let (eye1, eye2) = eye_margins(curve1, curve2, vdd);
    eye1.min(eye2)
}

/// The two per-eye maximal-square margins of a butterfly, *before* the
/// `min` that defines the SNM: `(upper-left eye, lower-right eye)`.
///
/// The SNM is a minimum of these two, which makes it non-smooth exactly at
/// the symmetric nominal point where both eyes are equal — a gradient of
/// the SNM there mixes the two eyes' (different) sensitivities and aims
/// nowhere useful. Rare-event machinery that needs a smooth objective
/// (e.g. fitting an importance-sampling shift toward one failure mode)
/// should target a single eye through this function; the left/right
/// device symmetry of the cell makes the two eye margins exchangeable in
/// distribution, so single-eye tail probabilities convert to SNM tail
/// probabilities by inclusion–exclusion.
pub fn eye_margins(curve1: &[(f64, f64)], curve2: &[(f64, f64)], vdd: f64) -> (f64, f64) {
    // Upper-left eye: curve 1 hugs its lower-left boundary (for a given
    // v_l, curve 1's v_r sits just above the metastable level while curve 2
    // crosses the top of the region), so corners walk along curve 1 growing
    // squares up-right until they hit curve 2. The assignment matters —
    // taking `max` over both assignments (as this function once did)
    // collapses both margins to the *larger* eye, which made the measured
    // SNM grow with mismatch asymmetry instead of shrink.
    let eye1 = lobe_snm(curve1, curve2, vdd);
    // Lower-right eye: mirror the butterfly across the diagonal, which
    // maps it onto the upper-left eye with the curve roles swapped. Using
    // the mirrored construction (rather than swapping the assignment on
    // the raw curves) keeps the two evaluations exactly symmetric in
    // their sampling grids: a mismatch-free cell yields bit-identical
    // margins instead of differing by interpolation error through the
    // steep VTC transition.
    let m1: Vec<(f64, f64)> = curve1.iter().map(|&(x, y)| (y, x)).collect();
    let m2: Vec<(f64, f64)> = curve2.iter().map(|&(x, y)| (y, x)).collect();
    let eye2 = lobe_snm(&m2, &m1, vdd);
    (eye1, eye2)
}

/// Builds the full 6T cell (both halves cross-coupled, bit lines and word
/// line driven) and returns `(circuit, node_l, node_r)`. The cell is wired
/// for READ: word line high, both bit lines at `Vdd`.
pub fn full_cell(devices: &SramDevices, vdd_value: f64) -> (Circuit, spice::NodeId, spice::NodeId) {
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let l = c.node("l");
    let r = c.node("r");
    let bl = c.node("bl");
    let blb = c.node("blb");
    let wl = c.node("wl");
    c.vsource("VDD", vdd, Circuit::GROUND, Waveform::dc(vdd_value));
    c.vsource("VBL", bl, Circuit::GROUND, Waveform::dc(vdd_value));
    c.vsource("VBLB", blb, Circuit::GROUND, Waveform::dc(vdd_value));
    c.vsource("VWL", wl, Circuit::GROUND, Waveform::dc(vdd_value));
    // Left half-cell: inverter input r, output l.
    c.mosfet("PU1", l, r, vdd, vdd, devices.pu[0].clone_box());
    c.mosfet(
        "PD1",
        l,
        r,
        Circuit::GROUND,
        Circuit::GROUND,
        devices.pd[0].clone_box(),
    );
    c.mosfet("PG1", bl, wl, l, Circuit::GROUND, devices.pg[0].clone_box());
    // Right half-cell: inverter input l, output r.
    c.mosfet("PU2", r, l, vdd, vdd, devices.pu[1].clone_box());
    c.mosfet(
        "PD2",
        r,
        l,
        Circuit::GROUND,
        Circuit::GROUND,
        devices.pd[1].clone_box(),
    );
    c.mosfet(
        "PG2",
        blb,
        wl,
        r,
        Circuit::GROUND,
        devices.pg[1].clone_box(),
    );
    (c, l, r)
}

/// One DC sample of the full cell, the sample `statvs serve` runs for
/// its `sram6t_dc` template: swap `devices` into `session` (a
/// [`full_cell`] elaboration), solve from `start` through
/// [`Session::dc_owned_from`] with the `(l, 0)`/`(r, vdd)` guess, and
/// return v(r).
///
/// `start` is a full unknown vector of the cell, such as the nominal
/// cell's operating point. When Newton fails from there, or lands in the
/// other storage state, the sample runs the guessed solve of
/// [`Session::dc_owned_with_guess`] instead. Newton from `start` gets at
/// most 50 iterations: about 0.3% of paper-spec draws send it into a
/// damping limit cycle, and for them the guessed solve's own plain Newton
/// from the guess also gives up after 50 before gmin stepping converges,
/// so such a sample costs about 135 iterations, against 4 for a typical
/// one. The solve never departs from the session's previous operating
/// point, so the result is a pure function of the devices and `start`
/// whatever the session solved before — what lets disjoint shards run on
/// different sessions merge bit-identically.
///
/// # Errors
///
/// Propagates swap and DC-solve failures, and
/// [`SpiceError::InvalidArgument`] for a `start` of the wrong length.
pub fn dc_sample_from(
    session: &mut Session,
    devices: SramDevices,
    start: &[f64],
    l: spice::NodeId,
    r: spice::NodeId,
    vdd: f64,
) -> Result<f64, SpiceError> {
    devices.swap_into(session)?;
    let op = session.dc_owned_from(start, &[(l, 0.0), (r, vdd)])?;
    Ok(op.voltage(r))
}

/// A persistent SNM Monte Carlo bench: both half-cells in one circuit,
/// elaborated once into one session; every sample swaps freshly drawn
/// devices in place and traces both transfer curves with one sweep of
/// their shared input through [`Session::dc_sweep_owned`], each point a
/// Newton solve of both outputs together. The first point starts from the
/// guess that puts the supply, the READ bit and word lines and both
/// outputs at `Vdd`, near the answer at an input of 0 V: all guessed
/// values are equal, so the guess places the start and selects no state.
/// A sample therefore depends on its devices alone, not on the samples
/// before it. Later points start from a cubic Hermite prediction over
/// the slopes `dx/dv` of the points before them, read from the LU of each
/// point's own converged Newton system. A READ sample takes 31 Newton
/// solves, 71.4 iterations and 428.5 device evaluations on average over
/// paper-spec draws.
#[derive(Debug)]
pub struct SnmBench {
    session: Session,
    outs: [spice::NodeId; 2],
    /// The first point's guess: every node but the input at `vdd`.
    guess: Vec<(spice::NodeId, f64)>,
    /// The input values of a sweep, from 0 V to `vdd`.
    values: Vec<f64>,
    vdd: f64,
    mode: SnmMode,
}

impl SnmBench {
    /// Builds the butterfly session with devices drawn from `f`.
    ///
    /// # Errors
    ///
    /// Propagates elaboration failures.
    pub fn new(
        sz: SramSizing,
        vdd: f64,
        mode: SnmMode,
        n_points: usize,
        f: &mut dyn DeviceFactory,
    ) -> Result<Self, SpiceError> {
        let (c, outs, guess) = butterfly_circuit(&SramDevices::draw(sz, f), vdd, mode);
        Ok(SnmBench {
            session: Session::elaborate(c)?,
            outs,
            guess,
            values: (0..n_points)
                .map(|i| vdd * i as f64 / (n_points - 1) as f64)
                .collect(),
            vdd,
            mode,
        })
    }

    /// Draws six devices, in the order of [`SramDevices::draw`], and swaps
    /// them into the butterfly: four in HOLD, which has no access devices,
    /// and six in READ.
    ///
    /// # Errors
    ///
    /// Never fails for benches built by [`SnmBench::new`]; propagates
    /// unknown-instance errors otherwise.
    pub fn resample(
        &mut self,
        sz: SramSizing,
        f: &mut dyn DeviceFactory,
    ) -> Result<(), SpiceError> {
        let SramDevices {
            pd: [pd0, pd1],
            pu: [pu0, pu1],
            pg: [pg0, pg1],
        } = SramDevices::draw(sz, f);
        let s = &mut self.session;
        s.swap_devices([("PD0", pd0), ("PU0", pu0), ("PD1", pd1), ("PU1", pu1)])?;
        if self.mode == SnmMode::Read {
            s.swap_devices([("PG0", pg0), ("PG1", pg1)])?;
        }
        Ok(())
    }

    /// Traces both butterfly curves on the current devices.
    ///
    /// Curve 1 is the left half-cell's VTC `(v_r, v_l = f1(v_r))`
    /// re-expressed in the `(v_l, v_r)` plane; curve 2 is the right
    /// half-cell's VTC `(v_l, v_r = f2(v_l))` directly. Plotting both in the
    /// `(v_l, v_r)` plane gives the butterfly.
    ///
    /// # Errors
    ///
    /// Propagates sweep failures.
    pub fn curves(&mut self) -> Result<(ButterflyCurve, ButterflyCurve), SpiceError> {
        let sweep = self
            .session
            .dc_sweep_owned("VIN", &self.values, &self.guess)?;
        let [out0, out1] = self.outs.map(|out| sweep.voltages(out));
        let curve1 = out0.into_iter().zip(self.values.iter().copied()).collect();
        let curve2 = self.values.iter().copied().zip(out1).collect();
        Ok((curve1, curve2))
    }

    /// Static noise margin of the current sample.
    ///
    /// # Errors
    ///
    /// Propagates sweep failures.
    pub fn snm(&mut self) -> Result<f64, SpiceError> {
        let (c1, c2) = self.curves()?;
        Ok(snm(&c1, &c2, self.vdd))
    }

    /// Per-eye margins of the current sample (see [`eye_margins`]); the
    /// SNM is their minimum.
    ///
    /// # Errors
    ///
    /// Propagates sweep failures.
    pub fn eye_margins(&mut self) -> Result<(f64, f64), SpiceError> {
        let (c1, c2) = self.curves()?;
        Ok(eye_margins(&c1, &c2, self.vdd))
    }
}

/// A persistent read-disturb AC bench on the full 6T cell: elaborated once,
/// resampled in place per Monte Carlo trial. Every
/// `resample`→[`ReadDisturbBench::run`] iteration starts its operating
/// point from the cell the bench was built with ([`Session::dc_owned_from`])
/// and sweeps through the session's one AC workspace
/// ([`Session::ac_owned`]), amortizing the guessed DC solve and all
/// linearization/complex-system allocation across the batch. A sample
/// depends on its devices and on the devices the bench was built with,
/// never on the samples before it.
#[derive(Debug)]
pub struct ReadDisturbBench {
    session: Session,
    /// The "l low" operating point of the cell the bench was built with:
    /// every sample's Newton start.
    start: Vec<f64>,
    l: spice::NodeId,
    r: spice::NodeId,
    vdd: f64,
}

impl ReadDisturbBench {
    /// Builds the full cell with devices drawn from `f` and solves its "l
    /// low" operating point from the guess, the start of every sample.
    ///
    /// # Errors
    ///
    /// Propagates elaboration failures and that solve's failures.
    pub fn new(sz: SramSizing, vdd: f64, f: &mut dyn DeviceFactory) -> Result<Self, SpiceError> {
        let devices = SramDevices::draw(sz, f);
        let (c, l, r) = full_cell(&devices, vdd);
        let mut session = Session::elaborate(c)?;
        let start = session.dc_owned_with_guess(&[(l, 0.0), (r, vdd)])?;
        Ok(ReadDisturbBench {
            session,
            start: start.raw().to_vec(),
            l,
            r,
            vdd,
        })
    }

    /// Swaps six freshly drawn devices into the cell.
    ///
    /// # Errors
    ///
    /// Never fails for benches built by [`ReadDisturbBench::new`].
    pub fn resample(
        &mut self,
        sz: SramSizing,
        f: &mut dyn DeviceFactory,
    ) -> Result<(), SpiceError> {
        SramDevices::draw(sz, f).swap_into(&mut self.session)?;
        Ok(())
    }

    /// Per-frequency transfer magnitudes from a bit-line perturbation into
    /// the low storage node (the paper's Table IV "SRAM AC" workload), at
    /// the "l low" operating point: [`Session::dc_owned_from`] the bench's
    /// construction point, which keeps a result only in the state the
    /// guess selects and otherwise falls back to the guessed solve.
    ///
    /// # Errors
    ///
    /// Propagates operating-point and AC-solve failures.
    pub fn run(&mut self, freqs: &[f64]) -> Result<Vec<f64>, SpiceError> {
        let guess = [(self.l, 0.0), (self.r, self.vdd)];
        let op = self.session.dc_owned_from(&self.start, &guess)?;
        let ac = self.session.ac_owned(&op, "VBL", freqs)?;
        Ok(ac.magnitudes(self.l))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::{NominalBsimFactory, NominalVsFactory, VsMismatch};
    use mosfet::{Bias, ChargeEval, Charges, DcEval, MosfetModel, Polarity};
    use stats::Sampler;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    const VDD: f64 = 0.9;

    /// The butterfly of two ideal steep inverters.
    fn ideal_butterfly() -> (ButterflyCurve, ButterflyCurve) {
        let steep = |x: f64| VDD / (1.0 + ((x - VDD / 2.0) / 0.005).exp());
        let n = 200;
        let c2: Vec<(f64, f64)> = (0..n)
            .map(|i| {
                let x = VDD * i as f64 / (n - 1) as f64;
                (x, steep(x))
            })
            .collect();
        let c1: Vec<(f64, f64)> = c2.iter().map(|&(x, y)| (y, x)).collect();
        (c1, c2)
    }

    /// Ideal steep inverters: SNM should approach Vdd/2.
    #[test]
    fn snm_of_ideal_butterfly() {
        let (c1, c2) = ideal_butterfly();
        let s = snm(&c1, &c2, VDD);
        assert!((s - VDD / 2.0).abs() < 0.05, "ideal SNM = {s}");
    }

    /// The SNM of one freshly built bench.
    fn measure_snm(mode: SnmMode, n_points: usize, f: &mut dyn DeviceFactory) -> f64 {
        let mut bench = SnmBench::new(SramSizing::default(), VDD, mode, n_points, f).unwrap();
        bench.snm().unwrap()
    }

    #[test]
    fn hold_snm_in_expected_range() {
        let mut f = NominalVsFactory;
        let s = measure_snm(SnmMode::Hold, 61, &mut f);
        // Paper Fig. 9(e): hold SNM ~0.26-0.36 V.
        assert!((0.15..0.45).contains(&s), "hold SNM = {s}");
    }

    #[test]
    fn read_snm_smaller_than_hold() {
        let mut f = NominalVsFactory;
        let hold = measure_snm(SnmMode::Hold, 61, &mut f);
        let read = measure_snm(SnmMode::Read, 61, &mut f);
        assert!(read < hold, "read {read} must be below hold {hold}");
        assert!(read > 0.02, "read SNM = {read} collapsed");
    }

    #[test]
    fn bsim_kit_gives_comparable_margins() {
        let mut f = NominalBsimFactory;
        let hold = measure_snm(SnmMode::Hold, 61, &mut f);
        let read = measure_snm(SnmMode::Read, 61, &mut f);
        assert!((0.15..0.45).contains(&hold), "hold = {hold}");
        assert!(read < hold);
    }

    #[test]
    fn read_mode_squashes_low_level() {
        let curves = |mode| {
            let mut bench =
                SnmBench::new(SramSizing::default(), VDD, mode, 41, &mut NominalVsFactory).unwrap();
            bench.curves().unwrap()
        };
        let (_, hold_curve) = curves(SnmMode::Hold);
        let (_, read_curve) = curves(SnmMode::Read);
        // At v_l = Vdd the half-cell output is low; in READ the access
        // transistor pulls it up from 0.
        let hold_low = hold_curve.last().unwrap().1;
        let read_low = read_curve.last().unwrap().1;
        assert!(hold_low < 0.02);
        assert!(read_low > hold_low + 0.02, "read low = {read_low}");
    }

    #[test]
    fn full_cell_is_bistable() {
        let mut f = NominalVsFactory;
        let devices = SramDevices::draw(SramSizing::default(), &mut f);
        let (c, l, r) = full_cell(&devices, VDD);
        let mut s = Session::elaborate(c).unwrap();
        let op0 = s.dc_owned_with_guess(&[(l, 0.0), (r, VDD)]).unwrap();
        assert!(op0.voltage(l) < 0.35 * VDD, "l = {}", op0.voltage(l));
        assert!(op0.voltage(r) > 0.75 * VDD);
        let op1 = s.dc_owned_with_guess(&[(l, VDD), (r, 0.0)]).unwrap();
        assert!(op1.voltage(l) > 0.75 * VDD);
        assert!(op1.voltage(r) < 0.35 * VDD);
    }

    /// A sample depends on its devices and start alone: on a session that
    /// last solved a BSIM cell into the opposite state it returns the bits
    /// of a fresh elaboration's sample.
    #[test]
    fn sample_from_a_start_forgets_the_session_history() {
        let sz = SramSizing::default();
        let (c, l, r) = full_cell(&SramDevices::draw(sz, &mut NominalVsFactory), VDD);
        let start = Session::elaborate(c.clone())
            .unwrap()
            .dc_owned_with_guess(&[(l, 0.0), (r, VDD)])
            .unwrap()
            .raw()
            .to_vec();
        let bsim = || SramDevices::draw(sz, &mut NominalBsimFactory);
        let mut fresh = Session::elaborate(c).unwrap();
        let want = dc_sample_from(&mut fresh, bsim(), &start, l, r, VDD).unwrap();
        let (c, l, r) = full_cell(&bsim(), VDD);
        let mut s = Session::elaborate(c).unwrap();
        s.dc_owned_with_guess(&[(l, VDD), (r, 0.0)]).unwrap();
        let got = dc_sample_from(&mut s, bsim(), &start, l, r, VDD).unwrap();
        assert_eq!(got.to_bits(), want.to_bits());
        assert!(got > 0.75 * VDD);
    }

    /// A butterfly of steep inverters, the right one's switching threshold
    /// shifted by `dvm`.
    fn shifted_butterfly(dvm: f64) -> (ButterflyCurve, ButterflyCurve) {
        let steep = |vm: f64, x: f64| VDD / (1.0 + ((x - vm) / 0.01).exp());
        let n = 201;
        let c2: Vec<(f64, f64)> = (0..n)
            .map(|i| {
                let x = VDD * i as f64 / (n - 1) as f64;
                (x, steep(VDD / 2.0 + dvm, x))
            })
            .collect();
        let c1: Vec<(f64, f64)> = (0..n)
            .map(|i| {
                let x = VDD * i as f64 / (n - 1) as f64;
                (steep(VDD / 2.0, x), x)
            })
            .collect();
        (c1, c2)
    }

    /// Regression for the eye-assignment bug: shifting one inverter's
    /// switching threshold must shrink one eye and grow the other, and the
    /// SNM (the min) must *degrade*. The old `max`-over-assignments code
    /// returned the larger eye for both, so asymmetry improved the
    /// reported SNM.
    #[test]
    fn threshold_mismatch_splits_the_eyes() {
        let (c1, c2) = shifted_butterfly(0.0);
        let (e1, e2) = eye_margins(&c1, &c2, VDD);
        let s0 = snm(&c1, &c2, VDD);
        assert!((e1 - e2).abs() < 1e-3, "symmetric butterfly: {e1} vs {e2}");
        for dvm in [0.05, -0.05, 0.1] {
            let (c1, c2) = shifted_butterfly(dvm);
            let (e1, e2) = eye_margins(&c1, &c2, VDD);
            let (grown, shrunk) = if dvm > 0.0 { (e1, e2) } else { (e2, e1) };
            assert!(
                grown > s0 + 0.2 * dvm.abs(),
                "eye must grow: {grown} vs {s0}"
            );
            assert!(
                shrunk < s0 - 0.5 * dvm.abs(),
                "eye must shrink: {shrunk} vs {s0}"
            );
            let s = snm(&c1, &c2, VDD);
            assert!(s < s0, "asymmetry must degrade the SNM: {s} vs {s0}");
            assert_eq!(s, e1.min(e2));
        }
    }

    #[test]
    fn eye_margins_decompose_the_snm() {
        let sz = SramSizing::default();
        let mut f = NominalVsFactory;
        let mut bench = SnmBench::new(sz, VDD, SnmMode::Read, 41, &mut f).unwrap();
        let (e1, e2) = bench.eye_margins().unwrap();
        let s = bench.snm().unwrap();
        assert_eq!(e1.min(e2), s, "SNM is exactly the smaller eye");
        // A nominal (mismatch-free) cell is left/right symmetric, so the
        // two eyes agree to sweep resolution.
        assert!((e1 - e2).abs() < 1e-6, "eyes {e1} vs {e2}");
        assert!(e1 > 0.0 && e2 > 0.0);
    }

    #[test]
    fn snm_bench_nominal_resample_keeps_the_snm() {
        let sz = SramSizing::default();
        let mut f = NominalVsFactory;
        let mut bench = SnmBench::new(sz, VDD, SnmMode::Read, 41, &mut f).unwrap();
        let s1 = bench.snm().unwrap();
        // Nominal resample: same devices, same SNM, no re-elaboration.
        bench.resample(sz, &mut f).unwrap();
        let s2 = bench.snm().unwrap();
        assert!((s1 - s2).abs() < 1e-6, "{s1} vs {s2}");
    }

    /// A sample carries nothing over from the samples before it: drawn
    /// after a different sample, it gives the bits of the same draw on a
    /// fresh bench, butterfly and SNM, in READ and in HOLD.
    #[test]
    fn snm_bench_sample_forgets_the_samples_before_it() {
        let sz = SramSizing::default();
        let draw = |i| VsMismatch(Sampler::from_seed(1).stream(i));
        let sample = |bench: &mut SnmBench| {
            let (c1, c2) = bench.curves().unwrap();
            let snm = snm(&c1, &c2, VDD);
            let points = c1.iter().chain(&c2).flat_map(|&(x, y)| [x, y]);
            points.chain([snm]).map(f64::to_bits).collect::<Vec<_>>()
        };
        for mode in [SnmMode::Read, SnmMode::Hold] {
            let want = sample(&mut SnmBench::new(sz, VDD, mode, 31, &mut draw(3)).unwrap());
            let mut bench = SnmBench::new(sz, VDD, mode, 31, &mut draw(8)).unwrap();
            assert_ne!(sample(&mut bench), want, "{mode:?}: two draws must differ");
            bench.resample(sz, &mut draw(3)).unwrap();
            assert_eq!(sample(&mut bench), want, "{mode:?}");
        }
    }

    /// One half-cell of the butterfly in a circuit of its own, the bench's
    /// construction before both halves shared one session: `PU` and `PD`,
    /// plus `PG` from a bit line under a word line in READ, drive `out`
    /// from `VIN`. Returns the circuit and `out`.
    fn half_cell_circuit(
        pd: &dyn MosfetModel,
        pu: &dyn MosfetModel,
        pg: &dyn MosfetModel,
        mode: SnmMode,
    ) -> (Circuit, spice::NodeId) {
        let mut c = Circuit::new();
        let gnd = Circuit::GROUND;
        let [vdd, vin, out] = ["vdd", "vin", "out"].map(|n| c.node(n));
        c.vsource("VDD", vdd, gnd, Waveform::dc(VDD));
        c.vsource("VIN", vin, gnd, Waveform::dc(0.0));
        c.mosfet("PU", out, vin, vdd, vdd, pu.clone_box());
        c.mosfet("PD", out, vin, gnd, gnd, pd.clone_box());
        if mode == SnmMode::Read {
            let [bl, wl] = ["bl", "wl"].map(|n| c.node(n));
            c.vsource("VBL", bl, gnd, Waveform::dc(VDD));
            c.vsource("VWL", wl, gnd, Waveform::dc(VDD));
            c.mosfet("PG", bl, wl, out, gnd, pg.clone_box());
        }
        (c, out)
    }

    /// The butterfly of `devices` on two half-cell sessions, the reference
    /// for [`SnmBench::curves`]: each half-cell's input swept on its own,
    /// its first point from zero.
    fn two_half_cell_curves(
        devices: &SramDevices,
        mode: SnmMode,
        n_points: usize,
    ) -> (ButterflyCurve, ButterflyCurve) {
        let values: Vec<f64> = (0..n_points)
            .map(|i| VDD * i as f64 / (n_points - 1) as f64)
            .collect();
        let [vtc0, vtc1] = [0, 1].map(|k| {
            let (pd, pu, pg) = (&devices.pd[k], &devices.pu[k], &devices.pg[k]);
            let (c, out) = half_cell_circuit(pd.as_ref(), pu.as_ref(), pg.as_ref(), mode);
            let mut s = Session::elaborate(c).unwrap();
            s.dc_sweep_owned("VIN", &values, &[]).unwrap().voltages(out)
        });
        let curve1 = vtc0.into_iter().zip(values.iter().copied()).collect();
        let curve2 = values.iter().copied().zip(vtc1).collect();
        (curve1, curve2)
    }

    /// A device that counts its `eval_dc` calls, one per Newton stamp.
    #[derive(Debug)]
    struct Counted {
        inner: Box<dyn MosfetModel>,
        evals: Arc<AtomicUsize>,
    }

    impl MosfetModel for Counted {
        fn polarity(&self) -> Polarity {
            self.inner.polarity()
        }

        fn geometry(&self) -> Geometry {
            self.inner.geometry()
        }

        fn ids(&self, bias: Bias) -> f64 {
            self.inner.ids(bias)
        }

        fn charges(&self, bias: Bias) -> Charges {
            self.inner.charges(bias)
        }

        fn name(&self) -> &'static str {
            self.inner.name()
        }

        fn clone_box(&self) -> Box<dyn MosfetModel> {
            Box::new(Counted {
                inner: self.inner.clone_box(),
                evals: Arc::clone(&self.evals),
            })
        }

        fn eval_dc(&self, bias: Bias) -> DcEval {
            self.evals.fetch_add(1, Ordering::Relaxed);
            self.inner.eval_dc(bias)
        }

        fn eval_charges(&self, bias: Bias) -> ChargeEval {
            self.inner.eval_charges(bias)
        }
    }

    /// Wraps every device a factory draws in a [`Counted`] on one counter.
    struct Counting(Box<dyn DeviceFactory>, Arc<AtomicUsize>);

    impl Counting {
        fn counted(&self, inner: Box<dyn MosfetModel>) -> Box<dyn MosfetModel> {
            let evals = Arc::clone(&self.1);
            Box::new(Counted { inner, evals })
        }
    }

    impl DeviceFactory for Counting {
        fn nmos(&mut self, geom: Geometry) -> Box<dyn MosfetModel> {
            let inner = self.0.nmos(geom);
            self.counted(inner)
        }

        fn pmos(&mut self, geom: Geometry) -> Box<dyn MosfetModel> {
            let inner = self.0.pmos(geom);
            self.counted(inner)
        }

        fn family(&self) -> &'static str {
            self.0.family()
        }
    }

    /// One sweep of both half-cells traces the butterfly of two half-cell
    /// sessions, the construction it replaced: on the nominal cell and 16
    /// paper-spec draws, in READ and HOLD, every curve point within 1e-12 V
    /// of the reference and the SNM within 1e-13 V. The two halves share
    /// one damping scale and one convergence test there, so their Newton
    /// paths differ in the last iteration. Started at the rail, the sweep
    /// takes at most 0.95 (READ) and 0.96 (HOLD) times the reference's
    /// device evaluations.
    #[test]
    fn butterfly_sweep_matches_two_half_cell_sessions() {
        let sz = SramSizing::default();
        let evals = Arc::new(AtomicUsize::new(0));
        let counting = |draw: u64| {
            let f: Box<dyn DeviceFactory> = match draw {
                0 => Box::new(NominalVsFactory),
                i => Box::new(VsMismatch(Sampler::from_seed(1).stream(i))),
            };
            Counting(f, Arc::clone(&evals))
        };
        for (mode, bound) in [(SnmMode::Read, 0.95), (SnmMode::Hold, 0.96)] {
            let mut bench = SnmBench::new(sz, VDD, mode, 31, &mut NominalVsFactory).unwrap();
            let (mut got_evals, mut want_evals) = (0, 0);
            for draw in 0..=16 {
                let what = format!("{mode:?} draw {draw}");
                bench.resample(sz, &mut counting(draw)).unwrap();
                evals.store(0, Ordering::Relaxed);
                let (c1, c2) = bench.curves().unwrap();
                got_evals += evals.swap(0, Ordering::Relaxed);
                let devices = SramDevices::draw(sz, &mut counting(draw));
                let (r1, r2) = two_half_cell_curves(&devices, mode, 31);
                want_evals += evals.swap(0, Ordering::Relaxed);
                for (got, want) in [(&c1, &r1), (&c2, &r2)] {
                    assert_eq!(got.len(), want.len(), "{what}");
                    for (&(gx, gy), &(wx, wy)) in got.iter().zip(want.iter()) {
                        let gap = (gx - wx).abs().max((gy - wy).abs());
                        assert!(gap <= 1e-12, "{what}: ({gx}, {gy}) vs ({wx}, {wy})");
                    }
                }
                let (got, want) = (snm(&c1, &c2, VDD), snm(&r1, &r2, VDD));
                assert!((got - want).abs() <= 1e-13, "{what}: SNM {got} vs {want}");
            }
            assert!(
                got_evals as f64 <= bound * want_evals as f64,
                "{mode:?}: {got_evals} vs the reference's {want_evals} evaluations"
            );
        }
    }

    #[test]
    fn read_disturb_bench_nominal_resample_keeps_the_transfer() {
        let sz = SramSizing::default();
        let mut f = NominalVsFactory;
        let freqs = [1e6, 1e9];
        let mut bench = ReadDisturbBench::new(sz, VDD, &mut f).unwrap();
        let a = bench.run(&freqs).unwrap();
        bench.resample(sz, &mut f).unwrap();
        let b = bench.run(&freqs).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn read_disturb_transfer_rolls_off() {
        let mut f = NominalVsFactory;
        let mut bench = ReadDisturbBench::new(SramSizing::default(), VDD, &mut f).unwrap();
        let mags = bench.run(&[1e6, 1e9, 1e13]).unwrap();
        // Finite low-frequency coupling from the bit line into the cell,
        // rolling off at very high frequency... through the access device
        // the node is resistively divided, so the transfer must stay below 1.
        assert!(
            mags[0] > 1e-4 && mags[0] < 1.0,
            "low-f transfer = {}",
            mags[0]
        );
        assert!(
            mags[2] < 1.05 * mags[0],
            "transfer should not grow unboundedly: {mags:?}"
        );
    }

    /// Linear interpolation on `(t, v)` samples sorted ascending by `t`,
    /// clamped at the ends: the `y_bound` of [`lobe_snm_by_bisection`].
    fn interp(pts: &[(f64, f64)], t: f64) -> f64 {
        if pts.is_empty() {
            return 0.0;
        }
        if t <= pts[0].0 {
            return pts[0].1;
        }
        if t >= pts[pts.len() - 1].0 {
            return pts[pts.len() - 1].1;
        }
        for w in pts.windows(2) {
            if t >= w[0].0 && t <= w[1].0 {
                let (t0, v0) = w[0];
                let (t1, v1) = w[1];
                if t1 == t0 {
                    return v1;
                }
                return v0 + (v1 - v0) * (t - t0) / (t1 - t0);
            }
        }
        pts[pts.len() - 1].1
    }

    /// The square fit [`lobe_snm`] replaced, its reference: 40 bisection
    /// steps on `g` for every corner.
    fn lobe_snm_by_bisection(
        corner_curve: &[(f64, f64)],
        bound_curve: &[(f64, f64)],
        v_max: f64,
    ) -> f64 {
        let mut bound = bound_curve.to_vec();
        bound.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite voltages"));
        let mut best = 0.0_f64;
        for &(x0, y0) in corner_curve {
            // Grow the square until the top-right corner hits the bound curve:
            // find the largest s with y0 + s <= y_bound(x0 + s).
            let g = |s: f64| interp(&bound, x0 + s) - (y0 + s);
            if g(0.0) <= 0.0 {
                continue; // corner not inside this eye
            }
            // Bisection on the monotone-decreasing g.
            let mut lo = 0.0;
            let mut hi = v_max;
            if g(hi) > 0.0 {
                best = best.max(hi);
                continue;
            }
            for _ in 0..40 {
                let mid = 0.5 * (lo + hi);
                if g(mid) > 0.0 {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            best = best.max(lo);
        }
        best
    }

    /// Both eye margins of a butterfly by the reference square fit, with
    /// the construction of [`eye_margins`].
    fn eye_margins_by_bisection(c1: &[(f64, f64)], c2: &[(f64, f64)], vdd: f64) -> (f64, f64) {
        let mirror =
            |c: &[(f64, f64)]| -> Vec<(f64, f64)> { c.iter().map(|&(x, y)| (y, x)).collect() };
        (
            lobe_snm_by_bisection(c1, c2, vdd),
            lobe_snm_by_bisection(&mirror(c2), &mirror(c1), vdd),
        )
    }

    /// `got` within the reference bisection's last bracket, `v_max·2⁻⁴⁰`,
    /// plus rounding.
    fn assert_near_bisection(got: f64, want: f64, v_max: f64, what: &str) {
        let tol = v_max * 2f64.powi(-40) + 1e-15;
        assert!(
            (got - want).abs() <= tol,
            "{what}: {got} vs bisection {want}"
        );
    }

    /// The exact square of every corner is the limit the bisection
    /// converges to: both eyes of 200 paper-spec READ and 200 HOLD
    /// butterflies and of the synthetic ones above, and one-lobe cases
    /// whose squares end in each kind of piece of the bound curve.
    #[test]
    fn exact_squares_match_the_bisection_reference() {
        let sz = SramSizing::default();
        for mode in [SnmMode::Read, SnmMode::Hold] {
            let mut bench = SnmBench::new(sz, VDD, mode, 31, &mut NominalVsFactory).unwrap();
            for i in 0..200 {
                bench
                    .resample(sz, &mut VsMismatch(Sampler::from_seed(1).stream(i)))
                    .unwrap();
                let (c1, c2) = bench.curves().unwrap();
                let (e1, e2) = eye_margins(&c1, &c2, VDD);
                let (r1, r2) = eye_margins_by_bisection(&c1, &c2, VDD);
                assert!(r1 > 0.0 && r2 > 0.0, "{mode:?} draw {i}: no eye");
                assert_near_bisection(e1, r1, VDD, &format!("{mode:?} draw {i}, eye 1"));
                assert_near_bisection(e2, r2, VDD, &format!("{mode:?} draw {i}, eye 2"));
            }
        }
        let mut synthetic = vec![("ideal", ideal_butterfly())];
        for dvm in [0.0, 0.05, -0.05, 0.1] {
            synthetic.push(("threshold-shifted", shifted_butterfly(dvm)));
        }
        for (name, (c1, c2)) in synthetic {
            let (e1, e2) = eye_margins(&c1, &c2, VDD);
            let (r1, r2) = eye_margins_by_bisection(&c1, &c2, VDD);
            assert_near_bisection(e1, r1, VDD, name);
            assert_near_bisection(e2, r2, VDD, name);
        }

        /// A case: corner, bound curve in any order, `v_max`, exact side.
        type Lobe<'a> = (&'a str, (f64, f64), &'a [(f64, f64)], f64, f64);
        let cases: [Lobe; 8] = [
            (
                "corner left of the curve, root on a segment",
                (0.0, 0.1),
                &[(0.6, 0.0), (0.2, 0.8)],
                VDD,
                11.0 / 30.0,
            ),
            (
                "corner left of the curve, root left of it",
                (0.0, 0.0),
                &[(0.5, 0.3), (0.9, 0.0)],
                VDD,
                0.3,
            ),
            (
                "square past the last point",
                (0.0, 0.0),
                &[(0.0, 0.9), (0.1, 0.85)],
                VDD,
                0.85,
            ),
            ("one-point curve", (0.0, 0.1), &[(0.4, 0.6)], VDD, 0.5),
            (
                "square capped at v_max",
                (0.0, 0.0),
                &[(0.0, 0.9), (0.1, 0.85)],
                0.5,
                0.5,
            ),
            (
                "root on a jump",
                (0.1, 0.1),
                &[(0.9, 0.0), (0.3, 0.7), (0.0, 0.9), (0.3, 0.2)],
                VDD,
                0.2,
            ),
            (
                "corner on a jump",
                (0.3, 0.1),
                &[(0.9, 0.0), (0.3, 0.7), (0.0, 0.9), (0.3, 0.2)],
                VDD,
                0.075,
            ),
            (
                "corner outside the eye",
                (0.5, 0.9),
                &[(0.9, 0.0), (0.0, 0.9)],
                VDD,
                0.0,
            ),
        ];
        for (what, corner, bound, v_max, side) in cases {
            let got = lobe_snm(&[corner], bound, v_max);
            assert!((got - side).abs() <= 1e-15, "{what}: {got} vs {side}");
            assert_near_bisection(
                got,
                lobe_snm_by_bisection(&[corner], bound, v_max),
                v_max,
                what,
            );
        }
        // An empty bound curve: no square, no panic.
        assert_eq!(lobe_snm(&[(0.1, 0.2), (0.5, 0.0)], &[], VDD), 0.0);
        assert_eq!(eye_margins(&[], &[], VDD), (0.0, 0.0));
    }

    #[test]
    fn interp_clamps_and_interpolates() {
        let pts = [(0.0, 0.0), (1.0, 2.0)];
        assert_eq!(interp(&pts, -1.0), 0.0);
        assert_eq!(interp(&pts, 0.5), 1.0);
        assert_eq!(interp(&pts, 2.0), 2.0);
    }
}
