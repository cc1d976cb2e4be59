//! Fanout-of-3 delay testbenches (paper Figs. 5 and 7).
//!
//! The bench drives the device under test with a shaped pulse and loads it
//! with three copies of itself (true gate loading, not a lumped capacitor),
//! then measures the average of the rising- and falling-edge propagation
//! delays at the 50% level.
//!
//! A bench owns one elaborated [`Session`]: Monte Carlo loops call
//! [`DelayBench::resample`] + [`DelayBench::measure_delay`] per sample —
//! the netlist is never rebuilt, and each transient starts from a
//! [`Session::dc_owned`] operating point, the continuation ladder from
//! zero, so a sample depends on its devices alone.

use crate::cells::{add_inverter, add_nand2, resample_devices, DeviceFactory, InverterSizing};
use spice::measure::{cross_time, Edge};
use spice::{Circuit, NodeId, Session, SpiceError, TranOptions, Waveform};

/// Which gate the bench instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateKind {
    /// CMOS inverter.
    Inverter,
    /// 2-input NAND with one input tied high.
    Nand2,
}

/// A constructed delay testbench.
#[derive(Debug)]
pub struct DelayBench {
    session: Session,
    input: NodeId,
    output: NodeId,
    vdd_value: f64,
}

/// Timing parameters of the stimulus.
const T_DELAY: f64 = 50e-12;
const T_EDGE: f64 = 15e-12;
const T_WIDTH: f64 = 400e-12;

impl DelayBench {
    /// Builds a fanout-of-3 bench for the given gate, sizing, and supply,
    /// and elaborates it into a persistent session.
    ///
    /// The DUT output drives three identical gates; each load gate's output
    /// carries a small wire capacitance so its devices see realistic
    /// waveforms.
    pub fn fo3(
        kind: GateKind,
        sz: InverterSizing,
        vdd_value: f64,
        f: &mut dyn DeviceFactory,
    ) -> Self {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let input = c.node("in");
        let output = c.node("out");
        c.vsource("VDD", vdd, Circuit::GROUND, Waveform::dc(vdd_value));
        c.vsource(
            "VIN",
            input,
            Circuit::GROUND,
            Waveform::Pulse {
                v1: 0.0,
                v2: vdd_value,
                delay: T_DELAY,
                rise: T_EDGE,
                fall: T_EDGE,
                width: T_WIDTH,
                period: 0.0,
            },
        );
        let add_gate =
            |c: &mut Circuit, name: &str, a: NodeId, out: NodeId, f: &mut dyn DeviceFactory| {
                match kind {
                    GateKind::Inverter => add_inverter(c, name, a, out, vdd, sz, f),
                    GateKind::Nand2 => add_nand2(c, name, a, vdd, out, vdd, sz, f),
                }
            };
        add_gate(&mut c, "DUT", input, output, f);
        for k in 0..3 {
            let lo = c.node(&format!("load{k}"));
            add_gate(&mut c, &format!("L{k}"), output, lo, f);
            // Small wire load on each fanout gate's own output.
            c.capacitor(&format!("CW{k}"), lo, Circuit::GROUND, 0.2e-15);
        }
        DelayBench {
            session: Session::elaborate(c).expect("bench netlist is well-formed"),
            input,
            output,
            vdd_value,
        }
    }

    /// The underlying session (leakage analysis, custom stimuli).
    pub fn session_mut(&mut self) -> &mut Session {
        &mut self.session
    }

    /// Supply voltage the bench was built for.
    pub fn vdd(&self) -> f64 {
        self.vdd_value
    }

    /// Redraws every MOSFET of the bench from the factory in place (no
    /// re-elaboration); returns the number of devices swapped.
    pub fn resample(&mut self, f: &mut dyn DeviceFactory) -> usize {
        resample_devices(&mut self.session, f)
    }

    /// Runs the transient from the [`Session::dc_owned`] operating point,
    /// solved from zero, and returns the average of the rising- and
    /// falling-edge propagation delays (50% crossings), in seconds. The
    /// delay depends on the bench's devices alone.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures; returns
    /// [`SpiceError::NoConvergence`]-style errors when an edge is missing
    /// (functional failure under extreme mismatch).
    pub fn measure_delay(&mut self, dt: f64) -> Result<f64, SpiceError> {
        let tstop = T_DELAY + 2.0 * T_EDGE + 2.0 * T_WIDTH;
        let op = self.session.dc_owned()?;
        let res = self.session.tran_owned(&op, &TranOptions::new(tstop, dt))?;
        let t = res.times();
        let vin = res.voltages(self.input);
        let vout = res.voltages(self.output);
        let half = self.vdd_value / 2.0;
        let miss = |which: &str| SpiceError::NoConvergence {
            analysis: "delay measurement",
            detail: format!("missing {which} crossing"),
        };
        // Input rising edge -> output falling.
        let t_in_r =
            cross_time(t, &vin, half, Edge::Rising, 0.0).ok_or_else(|| miss("input rising"))?;
        let t_out_f = cross_time(t, &vout, half, Edge::Falling, t_in_r)
            .ok_or_else(|| miss("output falling"))?;
        // Input falling edge -> output rising.
        let t_in_f = cross_time(t, &vin, half, Edge::Falling, t_in_r)
            .ok_or_else(|| miss("input falling"))?;
        let t_out_r = cross_time(t, &vout, half, Edge::Rising, t_in_f)
            .ok_or_else(|| miss("output rising"))?;
        let tphl = t_out_f - t_in_r;
        let tplh = t_out_r - t_in_f;
        Ok(0.5 * (tphl + tplh))
    }

    /// Default transient step for delay runs: fine enough for ps accuracy.
    pub fn default_dt(&self) -> f64 {
        1.5e-12
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::{NominalBsimFactory, NominalVsFactory};

    #[test]
    fn inverter_fo3_delay_in_ps_range() {
        let mut f = NominalVsFactory;
        let mut bench = DelayBench::fo3(
            GateKind::Inverter,
            InverterSizing::from_nm(600.0, 300.0, 40.0),
            0.9,
            &mut f,
        );
        let dt = bench.default_dt();
        let d = bench.measure_delay(dt).unwrap();
        assert!(d > 0.5e-12 && d < 50e-12, "delay = {d:.3e}");
    }

    #[test]
    fn bigger_inverter_is_not_slower() {
        // With pure FO3 self-loading, delay is roughly size-independent;
        // it must certainly not grow with drive strength.
        let mut f = NominalVsFactory;
        let small = DelayBench::fo3(
            GateKind::Inverter,
            InverterSizing::from_nm(300.0, 150.0, 40.0),
            0.9,
            &mut f,
        )
        .measure_delay(1.5e-12)
        .unwrap();
        let large = DelayBench::fo3(
            GateKind::Inverter,
            InverterSizing::from_nm(1200.0, 600.0, 40.0),
            0.9,
            &mut f,
        )
        .measure_delay(1.5e-12)
        .unwrap();
        assert!(large < 1.6 * small, "small={small:.3e}, large={large:.3e}");
    }

    #[test]
    fn nand2_fo3_delay_measurable_at_low_vdd() {
        let mut f = NominalBsimFactory;
        for vdd in [0.9, 0.7, 0.55] {
            let mut bench = DelayBench::fo3(
                GateKind::Nand2,
                InverterSizing::from_nm(300.0, 300.0, 40.0),
                vdd,
                &mut f,
            );
            let d = bench.measure_delay(2e-12).unwrap();
            assert!(d > 0.5e-12 && d < 500e-12, "vdd={vdd}: delay = {d:.3e}");
        }
    }

    #[test]
    fn delay_grows_as_vdd_drops() {
        let mut f = NominalVsFactory;
        let sz = InverterSizing::from_nm(300.0, 300.0, 40.0);
        let d09 = DelayBench::fo3(GateKind::Nand2, sz, 0.9, &mut f)
            .measure_delay(2e-12)
            .unwrap();
        let d055 = DelayBench::fo3(GateKind::Nand2, sz, 0.55, &mut f)
            .measure_delay(2e-12)
            .unwrap();
        assert!(d055 > 1.4 * d09, "0.9V: {d09:.3e}, 0.55V: {d055:.3e}");
    }

    #[test]
    fn resampled_bench_reuses_elaboration() {
        let mut f = NominalVsFactory;
        let mut bench = DelayBench::fo3(
            GateKind::Inverter,
            InverterSizing::from_nm(600.0, 300.0, 40.0),
            0.9,
            &mut f,
        );
        let d1 = bench.measure_delay(2e-12).unwrap();
        // Nominal factory: resampling swaps in identical devices, so the
        // measured delay reproduces exactly on the same session.
        let n = bench.resample(&mut f);
        assert_eq!(n, 8, "DUT + 3 loads, 2 devices each");
        let d2 = bench.measure_delay(2e-12).unwrap();
        assert_eq!(d1, d2);
    }
}
