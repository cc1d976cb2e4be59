//! Table IV microbenchmark: one Monte Carlo sample of each paper workload
//! (NAND2 transient, DFF transient, SRAM AC) per model family, all through
//! persistent sessions with in-place device resampling — the SRAM AC
//! samples run on the batched path (`ReadDisturbBench::run`: Newton from
//! the bench's construction operating point, then `Session::ac_owned`), so
//! consecutive samples amortize the guessed operating-point solve and
//! reuse one AC workspace.
//!
//! The `repro table4` experiment measures the full-scale wall-clock totals;
//! this bench gives statistically robust per-sample numbers.

use circuits::cells::InverterSizing;
use circuits::delay::{DelayBench, GateKind};
use circuits::dff::{DffBench, DffSizing};
use circuits::sram::{ReadDisturbBench, SramSizing};
use mosfet::{bsim::BsimParams, vs::VsParams, MismatchSpec};
use stats::Sampler;
use vsbench::microbench::{maybe_write_json, measure};
use vscore::mc::McFactory;

fn factory(family: &str, seed: u64) -> McFactory {
    let spec = MismatchSpec::from_paper_units(2.3, 3.71, 3.71, 944.0, 0.29);
    match family {
        "vs" => McFactory::vs(
            VsParams::nmos_40nm(),
            VsParams::pmos_40nm(),
            spec,
            spec,
            Sampler::from_seed(seed),
        ),
        _ => McFactory::bsim(
            BsimParams::nmos_40nm(),
            BsimParams::pmos_40nm(),
            spec,
            spec,
            Sampler::from_seed(seed),
        ),
    }
}

fn main() {
    let mut results = Vec::new();
    for family in ["vs", "bsim"] {
        {
            let mut f0 = factory(family, 0);
            let mut bench = DelayBench::fo3(
                GateKind::Nand2,
                InverterSizing::from_nm(300.0, 300.0, 40.0),
                0.9,
                &mut f0,
            );
            let mut seed = 0;
            results.push(measure(
                &format!("table4_{family}/nand2_tran_sample"),
                || {
                    seed += 1;
                    let mut f = factory(family, seed);
                    bench.resample(&mut f);
                    // Extreme mismatch draws may fail functionally; that
                    // is part of the measured workload, not a bench error.
                    let _ = bench.measure_delay(2e-12);
                },
            ));
        }
        {
            let mut f0 = factory(family, 0);
            let mut bench = DffBench::new(DffSizing::default(), 0.9, 150e-12, &mut f0);
            let mut seed = 0;
            results.push(measure(&format!("table4_{family}/dff_tran_sample"), || {
                seed += 1;
                let mut f = factory(family, seed);
                bench.resample(&mut f);
                let _ = bench.captures(4e-12);
            }));
        }
        {
            let freqs = spice::ac::log_sweep(1e6, 1e11, 5);
            let mut f0 = factory(family, 0);
            let mut bench =
                ReadDisturbBench::new(SramSizing::default(), 0.9, &mut f0).expect("well-formed");
            let mut seed = 0;
            results.push(measure(&format!("table4_{family}/sram_ac_sample"), || {
                seed += 1;
                let mut f = factory(family, seed);
                bench
                    .resample(SramSizing::default(), &mut f)
                    .expect("known instances");
                let _ = bench.run(&freqs);
            }));
        }
    }
    maybe_write_json(&results);
}
