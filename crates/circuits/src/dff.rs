//! Master-slave D flip-flop from NMOS-only pass transistors (paper Fig. 8).
//!
//! Topology (positive-edge triggered):
//!
//! ```text
//! d --M1(clkb)-- n1 --INV1-- n2 --M3(clk)-- n4 --INV3-- q_int --BUF-- q
//!                 ^                          ^
//!                 M2(clk)--INV2--n2          M4(clkb)--INV4--q_int
//! ```
//!
//! While `clk` is low the master is transparent (M1 on) and the slave holds
//! (M4 on); on the rising edge the master latches (M2 on) and the slave
//! opens (M3 on), presenting the captured value at `q`.
//!
//! NMOS-only passes degrade the internal high level to roughly
//! `Vdd - VT(body)`; the latch inverters are therefore N-skewed (strong
//! pull-down) so the degraded high is read robustly — the standard design
//! practice for pass-transistor latches. The output buffer uses the paper's
//! stated P/N = 600 nm/300 nm sizing and restores full swing.
//!
//! The setup time is measured exactly as the paper describes: repeated
//! transient simulations varying the data-to-clock delay, binary-searching
//! the pass/fail boundary — ~20x more SPICE runs per sample than a
//! combinational cell. The bench owns one elaborated [`Session`]: every
//! search candidate re-targets the data edge in place
//! ([`DffBench::set_setup`]) instead of rebuilding and re-elaborating the
//! netlist, and Monte Carlo samples swap device models in place through
//! [`DffBench::resample`].

use crate::cells::{add_inverter, add_pass_nmos, resample_devices, DeviceFactory, InverterSizing};
use spice::{Circuit, NodeId, Session, SpiceError, TranOptions, Waveform};

/// Device sizing of the flip-flop.
#[derive(Debug, Clone, Copy)]
pub struct DffSizing {
    /// Latch inverter sizing (N-skewed by default).
    pub latch_inv: InverterSizing,
    /// Output buffer sizing (paper: P/N = 600/300 at L = 40 nm).
    pub buffer_inv: InverterSizing,
    /// Pass transistor width, m.
    pub pass_w: f64,
    /// Channel length, m.
    pub l: f64,
}

impl Default for DffSizing {
    fn default() -> Self {
        DffSizing {
            latch_inv: InverterSizing::from_nm(150.0, 300.0, 40.0),
            buffer_inv: InverterSizing::from_nm(600.0, 300.0, 40.0),
            pass_w: 300e-9,
            l: 40e-9,
        }
    }
}

/// A constructed D flip-flop bench with ideal complementary clocks, owning
/// a persistent simulation session.
#[derive(Debug)]
pub struct DffBench {
    session: Session,
    vdd_value: f64,
    t_clk_edge: f64,
}

/// Clock rising edge instant within the bench window.
const T_CLK: f64 = 500e-12;
/// Signal edge rate.
const T_EDGE: f64 = 15e-12;
/// Time after the clock edge at which Q is checked.
const T_CHECK: f64 = 350e-12;

/// The data waveform of a setup measurement: a rising edge `t_setup`
/// before the clock edge.
fn setup_wave(vdd: f64, t_setup: f64) -> Waveform {
    Waveform::step(0.0, vdd, T_CLK - t_setup, T_EDGE)
}

impl DffBench {
    /// Builds the flip-flop capturing a rising data edge that occurs
    /// `t_setup` before the clock rising edge.
    ///
    /// The FF initializes with `d = 0` flowing through the transparent
    /// master (clk low), so a successful capture flips `q` from 0 to 1.
    pub fn new(sz: DffSizing, vdd_value: f64, t_setup: f64, f: &mut dyn DeviceFactory) -> Self {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let d = c.node("d");
        c.vsource("VDD", vdd, Circuit::GROUND, Waveform::dc(vdd_value));
        c.vsource("VD", d, Circuit::GROUND, setup_wave(vdd_value, t_setup));
        let clk = c.node("clk");
        let clkb = c.node("clkb");
        let n1 = c.node("n1");
        let n2 = c.node("n2");
        let n3 = c.node("n3");
        let n4 = c.node("n4");
        let q_int = c.node("q_int");
        let n5 = c.node("n5");
        let q = c.node("q");
        c.vsource(
            "VCLK",
            clk,
            Circuit::GROUND,
            Waveform::step(0.0, vdd_value, T_CLK, T_EDGE),
        );
        c.vsource(
            "VCLKB",
            clkb,
            Circuit::GROUND,
            Waveform::step(vdd_value, 0.0, T_CLK, T_EDGE),
        );

        // Master latch.
        add_pass_nmos(&mut c, "M1", d, n1, clkb, sz.pass_w, sz.l, f);
        add_inverter(&mut c, "INV1", n1, n2, vdd, sz.latch_inv, f);
        add_inverter(&mut c, "INV2", n2, n3, vdd, sz.latch_inv, f);
        add_pass_nmos(&mut c, "M2", n3, n1, clk, sz.pass_w, sz.l, f);

        // Slave latch.
        add_pass_nmos(&mut c, "M3", n2, n4, clk, sz.pass_w, sz.l, f);
        add_inverter(&mut c, "INV3", n4, q_int, vdd, sz.latch_inv, f);
        add_inverter(&mut c, "INV4", q_int, n5, vdd, sz.latch_inv, f);
        add_pass_nmos(&mut c, "M4", n5, n4, clkb, sz.pass_w, sz.l, f);

        // Full-swing output buffer (paper sizing).
        add_inverter(&mut c, "BUF", q_int, q, vdd, sz.buffer_inv, f);

        DffBench {
            session: Session::elaborate(c).expect("bench netlist is well-formed"),
            vdd_value,
            t_clk_edge: T_CLK,
        }
    }

    /// Re-targets the data edge to `t_setup` before the clock edge —
    /// in-place, no re-elaboration. Used by the setup-time binary search.
    pub fn set_setup(&mut self, t_setup: f64) {
        self.session
            .set_source("VD", setup_wave(self.vdd_value, t_setup))
            .expect("bench always creates VD");
    }

    /// Redraws every MOSFET from the factory in place; returns the number
    /// of devices swapped.
    pub fn resample(&mut self, f: &mut dyn DeviceFactory) -> usize {
        resample_devices(&mut self.session, f)
    }

    /// The node guesses of every transient's t = 0 operating point: `d=0`
    /// through the transparent master, clock low, Q=0. A complete,
    /// self-consistent guess keeps Newton away from the metastable branch
    /// of the bistable latches, which otherwise defeats continuation for a
    /// few percent of mismatch samples. NMOS passes only reach about
    /// `Vdd - VT`, so the slave's internal guesses sit at `0.5·Vdd`, its
    /// switching point. VS devices still settle at Q=0 from there; the
    /// BSIM-like devices mostly settle at the slave's unstable equilibrium.
    fn start_guess(&self) -> Vec<(NodeId, f64)> {
        let vdd = self.vdd_value;
        let node = |n: &str| {
            self.session
                .circuit()
                .find_node(n)
                .expect("bench creates all nodes")
        };
        vec![
            (node("n1"), 0.0),
            (node("n2"), vdd),
            (node("n3"), 0.0),
            (node("n4"), 0.5 * vdd),
            (node("q_int"), 0.0),
            (node("n5"), 0.5 * vdd),
            (node("q"), vdd),
        ]
    }

    /// Runs the transient from the operating point
    /// [`Session::dc_owned_with_guess`] solves from the start guess, and
    /// reports whether Q captured the '1'.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures.
    pub fn captures(&mut self, dt: f64) -> Result<bool, SpiceError> {
        // Q is read at q_int: a captured '1' drives n4 low and q_int high
        // (the buffer output q inverts it).
        let q_int = self
            .session
            .circuit()
            .find_node("q_int")
            .expect("bench always creates q_int");
        let op = self.session.dc_owned_with_guess(&self.start_guess())?;
        let opts = TranOptions::new(self.t_clk_edge + T_CHECK, dt);
        let res = self.session.tran_owned(&op, &opts)?;
        let v_q_int = res.voltages(q_int);
        let v_final = *v_q_int.last().expect("non-empty transient");
        Ok(v_final > 0.5 * self.vdd_value)
    }
}

/// Binary-searches the minimum setup time for correct capture, re-using the
/// bench's single elaboration for every candidate (the device mismatch is
/// whatever the bench currently holds — resample before calling for Monte
/// Carlo).
///
/// # Errors
///
/// Returns an error when even the maximum candidate fails (non-functional
/// sample) or the simulator fails.
pub fn setup_time(
    bench: &mut DffBench,
    t_max: f64,
    resolution: f64,
    dt: f64,
) -> Result<f64, SpiceError> {
    // Pass/fail boundary: fails at 0 (data arrives with the clock), passes
    // at t_max.
    bench.set_setup(t_max);
    if !bench.captures(dt)? {
        return Err(SpiceError::NoConvergence {
            analysis: "setup time",
            detail: format!("capture fails even with {t_max:.3e} s of setup"),
        });
    }
    let mut lo = 0.0;
    let mut hi = t_max;
    while hi - lo > resolution {
        let mid = 0.5 * (lo + hi);
        bench.set_setup(mid);
        if bench.captures(dt)? {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Ok(0.5 * (lo + hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::{NominalVsFactory, VsMismatch};
    use stats::Sampler;

    const DT: f64 = 4e-12;

    /// Every VS mismatch draw starts its transients at Q=0 (`q_int` low,
    /// `n5` high), a stable state, rather than at the slave latch's
    /// unstable equilibrium between the two.
    #[test]
    fn vs_bench_starts_at_q0_under_mismatch() {
        let mut bench = DffBench::new(DffSizing::default(), 0.9, 250e-12, &mut NominalVsFactory);
        let node = |b: &DffBench, n: &str| b.session.circuit().find_node(n).unwrap();
        let (q_int, n5) = (node(&bench, "q_int"), node(&bench, "n5"));
        for i in 0..24 {
            bench.resample(&mut VsMismatch(Sampler::from_seed(2013).stream(i)));
            // The DC solve `captures` starts every transient from.
            let guess = bench.start_guess();
            let op = bench.session.dc_owned_with_guess(&guess).unwrap();
            let (q, n5) = (op.voltage(q_int), op.voltage(n5));
            assert!(q < 1e-3 && n5 > 0.85, "draw {i}: q_int {q} V, n5 {n5} V");
        }
    }

    #[test]
    fn captures_with_generous_setup() {
        let mut f = NominalVsFactory;
        let mut bench = DffBench::new(DffSizing::default(), 0.9, 250e-12, &mut f);
        assert!(bench.captures(DT).unwrap(), "generous setup must capture");
    }

    #[test]
    fn fails_with_no_setup() {
        let mut f = NominalVsFactory;
        // Data arriving 50 ps AFTER the clock edge cannot be captured.
        let mut bench = DffBench::new(DffSizing::default(), 0.9, -50e-12, &mut f);
        assert!(!bench.captures(DT).unwrap(), "late data must not capture");
    }

    #[test]
    fn setup_time_is_finite_and_positive() {
        let mut f = NominalVsFactory;
        let mut bench = DffBench::new(DffSizing::default(), 0.9, 250e-12, &mut f);
        let ts = setup_time(&mut bench, 250e-12, 2e-12, DT).unwrap();
        assert!(
            ts > 1e-12 && ts < 200e-12,
            "setup time = {ts:.3e} out of expected range"
        );
    }
}
