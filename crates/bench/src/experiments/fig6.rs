//! Fig. 6 — total leakage vs frequency (1/delay) scatter for an INV FO3
//! bench, VS vs kit (5000 Monte Carlo samples).
//!
//! This is the repo's canonical streaming experiment: each
//! `(leakage, frequency)` pair flows straight from the Monte Carlo run
//! into an incremental CSV file and two constant-size moment accumulators
//! through [`vscore::mc::ParallelRunner::run_streaming_range`] — no
//! per-sample buffering, so the scatter scales to paper-size (and larger)
//! sample counts in O(workers) memory.

use super::ExpResult;
use crate::report::{eng, TextTable};
use crate::ExperimentContext;
use circuits::cells::InverterSizing;
use circuits::delay::{DelayBench, GateKind};
use circuits::leakage::leakage_frequency_of;
use stats::Welford;
use std::fs;
use std::io::BufWriter;
use vscore::mc::{CsvSink, Sink};

/// Streaming moments of the scatter: one [`Welford`] per axis, fed record
/// by record — the spread/mean metrics the report quotes need nothing else.
#[derive(Default)]
struct ScatterMoments {
    leak: Welford,
    freq: Welford,
}

impl Sink<(f64, f64)> for ScatterMoments {
    fn observe(&mut self, _index: usize, (leak, freq): (f64, f64)) {
        self.leak.push(leak);
        self.freq.push(freq);
    }
}

/// Regenerates the leakage/frequency scatter.
pub fn run(ctx: &ExperimentContext) -> ExpResult {
    let n = ctx.samples(5000);
    // The 1x inverter (paper Fig. 5's smallest size): small devices carry
    // the largest per-device σ, which is what produces the paper's ~37x
    // leakage spread. Note the extreme-spread metrics (max/min, max-min)
    // grow with sample count; reduced-scale runs report smaller spreads.
    let sz = InverterSizing::from_nm(300.0, 150.0, 40.0);
    let mut table = TextTable::new(&[
        "model",
        "leakage spread (x)",
        "freq spread (% of mean)",
        "mean freq",
        "fails",
    ]);
    let mut report = format!("Fig. 6 — leakage vs frequency scatter, INV FO3, {n} MC samples\n\n");

    for family in ["bsim", "vs"] {
        fs::create_dir_all(&ctx.out_dir)?;
        let csv_path = ctx.out_dir.join(format!("fig6_scatter_{family}.csv"));
        let file = BufWriter::new(fs::File::create(&csv_path)?);
        let mut sink = (
            CsvSink::with_header(file, &["sample", "leakage_a", "frequency_hz"]),
            ScatterMoments::default(),
        );
        // One elaborated bench per worker; samples swap devices in place.
        // Records stream to the CSV file and the moment sinks in sample-
        // index order as rounds complete.
        let out = ctx
            .runner(0xf16_6000)
            .run_streaming_range(
                0,
                n,
                |_, setup| {
                    let mut f = ctx.factory(family, setup.clone());
                    Ok::<_, spice::SpiceError>(DelayBench::fo3(
                        GateKind::Inverter,
                        sz,
                        ctx.vdd(),
                        &mut f,
                    ))
                },
                |bench, sampler, _| {
                    let mut f = ctx.factory(family, sampler.clone());
                    bench.resample(&mut f);
                    leakage_frequency_of(bench).map(|lf| (lf.leakage, lf.frequency))
                },
                &mut sink,
            )
            .expect("bench elaboration is infallible");
        let (_, moments) = sink;
        let leak_spread = moments.leak.max() / moments.leak.min();
        // Paper quotes "impact of within-die variation on frequency" as the
        // full spread relative to the mean.
        let freq_spread_pct =
            100.0 * (moments.freq.max() - moments.freq.min()) / moments.freq.mean();
        table.row(vec![
            family.to_string(),
            format!("{leak_spread:.1}"),
            format!("{freq_spread_pct:.1}"),
            eng(moments.freq.mean(), "Hz"),
            out.failures.to_string(),
        ]);
        report.push_str(&format!(
            "{family}: leakage spread {leak_spread:.1}x (paper: ~37x), frequency spread {freq_spread_pct:.1}% of mean (paper: 45-50%)\n"
        ));
    }
    report.push('\n');
    report.push_str(&table.render());
    report.push_str("\nCSV: fig6_scatter_bsim.csv, fig6_scatter_vs.csv (streamed incrementally)\n");
    Ok(report)
}
