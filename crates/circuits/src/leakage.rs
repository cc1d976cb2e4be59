//! Leakage and frequency extraction (paper Fig. 6).
//!
//! For a fanout-of-3 inverter bench, the paper plots total static leakage
//! against operating frequency (1/delay) across 5000 Monte Carlo samples.
//! Leakage is the supply current at a static input state; we average the
//! input-low and input-high states (both states occur in operation).

use crate::delay::DelayBench;
use spice::{SpiceError, Waveform};

/// One leakage/frequency sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeakageFrequency {
    /// Mean static supply leakage, A.
    pub leakage: f64,
    /// Operating frequency 1/delay, Hz.
    pub frequency: f64,
    /// The underlying FO3 delay, s.
    pub delay: f64,
}

/// Measures leakage (both static input states) and frequency (1/FO3-delay)
/// on an existing bench — the Monte Carlo path: resample the bench, then
/// call this per sample. Every DC solve is [`spice::Session::dc_owned`],
/// the continuation ladder from zero, so a sample depends on the bench's
/// devices alone. The bench's pulse stimulus is restored afterwards.
///
/// # Errors
///
/// Propagates DC/transient failures from the simulator.
pub fn leakage_frequency_of(bench: &mut DelayBench) -> Result<LeakageFrequency, SpiceError> {
    let dt = bench.default_dt();
    let vdd = bench.vdd();
    let delay = bench.measure_delay(dt)?;

    // Static leakage at both input states, on the same elaboration. The
    // pulse stimulus must be restored even when a solve fails — the bench
    // is reused across Monte Carlo trials, and one extreme sample must not
    // corrupt every later measurement.
    let session = bench.session_mut();
    let vdd_idx = session.circuit().vsource_index("VDD")?;
    let pulse = session.circuit().vsource_waveform("VIN")?.clone();
    let static_currents = (|| {
        session.set_source("VIN", Waveform::dc(0.0))?;
        let i_low = session.dc_owned()?.vsource_current(vdd_idx).abs();
        session.set_source("VIN", Waveform::dc(vdd))?;
        let i_high = session.dc_owned()?.vsource_current(vdd_idx).abs();
        Ok::<_, SpiceError>((i_low, i_high))
    })();
    session
        .set_source("VIN", pulse)
        .expect("bench always creates VIN");
    let (i_low, i_high) = static_currents?;

    Ok(LeakageFrequency {
        leakage: 0.5 * (i_low + i_high),
        frequency: 1.0 / delay,
        delay,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::{DeviceFactory, InverterSizing, NominalBsimFactory, NominalVsFactory};
    use crate::delay::GateKind;

    fn inverter_fo3(f: &mut dyn DeviceFactory) -> LeakageFrequency {
        let sz = InverterSizing::from_nm(600.0, 300.0, 40.0);
        leakage_frequency_of(&mut DelayBench::fo3(GateKind::Inverter, sz, 0.9, f)).unwrap()
    }

    #[test]
    fn nominal_leakage_and_frequency_are_physical() {
        let lf = inverter_fo3(&mut NominalVsFactory);
        // Leakage: nA..µA scale for these widths; frequency: tens of GHz.
        assert!(
            lf.leakage > 1e-12 && lf.leakage < 1e-5,
            "leak = {:.3e}",
            lf.leakage
        );
        assert!(
            lf.frequency > 1e9 && lf.frequency < 2e12,
            "freq = {:.3e}",
            lf.frequency
        );
        assert!((lf.frequency * lf.delay - 1.0).abs() < 1e-12);
    }

    #[test]
    fn both_model_families_agree_on_scale() {
        let a = inverter_fo3(&mut NominalVsFactory);
        let b = inverter_fo3(&mut NominalBsimFactory);
        // Same order of magnitude in frequency (the models are fit-matched
        // later; nominal defaults are just close).
        let ratio = a.frequency / b.frequency;
        assert!((0.2..5.0).contains(&ratio), "freq ratio = {ratio}");
    }

    #[test]
    fn repeated_measurement_on_one_bench_is_stable() {
        let mut f = NominalVsFactory;
        let mut bench = DelayBench::fo3(
            GateKind::Inverter,
            InverterSizing::from_nm(600.0, 300.0, 40.0),
            0.9,
            &mut f,
        );
        let a = leakage_frequency_of(&mut bench).unwrap();
        // The stimulus was restored, so a second pass reproduces.
        let b = leakage_frequency_of(&mut bench).unwrap();
        assert_eq!(a, b);
    }
}
