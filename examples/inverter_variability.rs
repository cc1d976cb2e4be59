//! Circuit-level Monte Carlo: delay variability of a fanout-of-3 inverter.
//!
//! Builds the paper's Fig. 5 workload at a reduced sample count and prints
//! the delay distribution from both the statistical VS model and the golden
//! kit, plus a textual histogram.
//!
//! Run with `cargo run --release --example inverter_variability`.

use statvs::circuits::cells::InverterSizing;
use statvs::circuits::delay::{DelayBench, GateKind};
use statvs::stats::histogram::Histogram;
use statvs::stats::{Sampler, Summary};
use statvs::vscore::mc::{McFactory, ParallelRunner, VecSink};
use statvs::vscore::pipeline::{extract_statistical_vs_model, ExtractionConfig};

const N_SAMPLES: usize = 150;
const VDD: f64 = 0.9;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = ExtractionConfig {
        mc_samples: 600,
        ..ExtractionConfig::default()
    };
    let report = extract_statistical_vs_model(&config)?;
    let sz = InverterSizing::from_nm(600.0, 300.0, 40.0);

    for family in ["vs (statistical)", "bsim (golden kit)"] {
        // A factory template per family; each Monte Carlo sample re-arms it
        // with that sample's deterministically derived stream.
        let template = if family.starts_with("vs") {
            McFactory::vs(
                report.nmos.fit.params,
                report.pmos.fit.params,
                report.nmos.extracted,
                report.pmos.extracted,
                Sampler::from_seed(0),
            )
        } else {
            McFactory::bsim(
                report.kit.nmos.params,
                report.kit.pmos.params,
                report.nmos.truth,
                report.pmos.truth,
                Sampler::from_seed(0),
            )
        };
        // Shard samples across every available core: each worker
        // elaborates its own bench once, then swaps freshly drawn devices
        // into the live session per sample instead of rebuilding netlists.
        // The histogram and skewness need the whole sample, so the delays
        // stream into an explicit buffer.
        let mut delays = VecSink::new();
        let outcome = ParallelRunner::new(100).run_streaming_range(
            0,
            N_SAMPLES,
            |_, setup| {
                let mut f = template.clone();
                f.set_sampler(setup.clone());
                Ok::<_, statvs::spice::SpiceError>(DelayBench::fo3(
                    GateKind::Inverter,
                    sz,
                    VDD,
                    &mut f,
                ))
            },
            |bench, sampler, _| {
                let mut f = template.clone();
                f.set_sampler(sampler.clone());
                bench.resample(&mut f);
                let dt = bench.default_dt();
                bench.measure_delay(dt)
            },
            &mut delays,
        )?;
        if outcome.failures > 0 {
            println!("({} functional failures skipped)", outcome.failures);
        }
        if outcome.observed == 0 {
            return Err(format!("{family}: every Monte Carlo sample failed").into());
        }
        let delays = delays.into_values();
        let s = Summary::from_slice(&delays);
        println!(
            "\n{family}: mean {:.2} ps, σ {:.3} ps ({:.1}% of mean), skew {:+.2}",
            s.mean * 1e12,
            s.std * 1e12,
            100.0 * s.std / s.mean,
            s.skewness
        );
        // ASCII histogram.
        let h = Histogram::from_data(&delays, 12);
        let max_count = *h.counts().iter().max().unwrap_or(&1) as f64;
        for (i, &c) in h.counts().iter().enumerate() {
            let bar = "#".repeat((40.0 * c as f64 / max_count).round() as usize);
            println!("  {:6.2} ps | {bar}", h.bin_center(i) * 1e12);
        }
    }
    Ok(())
}
