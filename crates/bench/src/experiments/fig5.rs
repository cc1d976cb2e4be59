//! Fig. 5 — INV FO3 delay probability densities for three sizes, VS vs kit
//! (2500 Monte Carlo runs each, Vdd = 0.9 V).

use super::ExpResult;
use crate::report::{eng, write_csv, TextTable};
use crate::ExperimentContext;
use circuits::cells::InverterSizing;
use circuits::delay::{DelayBench, GateKind};
use stats::kde::Kde;
use stats::Summary;
use vscore::mc::VecSink;

/// Collects Monte Carlo delay samples for one gate/size/model combination.
///
/// The samples shard across a [`vscore::mc::ParallelRunner`]: every worker
/// elaborates its own persistent bench once, then each sample swaps freshly
/// drawn devices in place ([`DelayBench::resample`]) with a sampler stream
/// derived purely from `(seed, sample index)` and re-runs the transient
/// from a DC solve that starts from zero — no per-sample netlist rebuild,
/// and the delays are bit-identical for any worker count.
///
/// Functional failures (missing output edges under extreme mismatch) are
/// skipped, matching standard Monte Carlo practice; the skip count is
/// returned so reports can surface it.
pub fn delay_samples(
    ctx: &ExperimentContext,
    kind: GateKind,
    sz: InverterSizing,
    vdd: f64,
    n: usize,
    family: &str,
    seed_salt: u64,
) -> (Vec<f64>, usize) {
    let mut delays = VecSink::new();
    let out = ctx
        .runner(seed_salt)
        .run_streaming_range(
            0,
            n,
            |_, setup| {
                let mut f = ctx.factory(family, setup.clone());
                Ok::<_, spice::SpiceError>(DelayBench::fo3(kind, sz, vdd, &mut f))
            },
            |bench, sampler, _| {
                let mut f = ctx.factory(family, sampler.clone());
                bench.resample(&mut f);
                let dt = bench.default_dt();
                bench.measure_delay(dt)
            },
            &mut delays,
        )
        .expect("bench elaboration is infallible for well-formed sizings");
    (delays.into_values(), out.failures)
}

/// Regenerates the delay PDFs of Fig. 5.
pub fn run(ctx: &ExperimentContext) -> ExpResult {
    let n = ctx.samples(2500);
    let sizes = InverterSizing::paper_fig5_sizes();
    let size_labels = ["300/150", "600/300", "1200/600"];
    let mut table = TextTable::new(&[
        "P/N size (nm)",
        "model",
        "mean delay",
        "sigma",
        "sigma/mean (%)",
        "fails",
    ]);
    let mut report =
        format!("Fig. 5 — INV FO3 delay PDFs, {n} MC samples per size/model, Vdd=0.9V\n\n");
    let mut worst_sigma_ratio = 1.0_f64;

    for (si, (&sz, label)) in sizes.iter().zip(size_labels).enumerate() {
        let mut sigmas = [0.0; 2];
        for (mi, family) in ["bsim", "vs"].into_iter().enumerate() {
            let (samples, failures) = delay_samples(
                ctx,
                GateKind::Inverter,
                sz,
                ctx.vdd(),
                n,
                family,
                si as u64 * 100,
            );
            let s = Summary::from_slice(&samples);
            sigmas[mi] = s.std;
            // KDE curve for the PDF plot.
            let kde = Kde::from_sample(&samples);
            write_csv(
                &ctx.out_dir,
                &format!("fig5_pdf_{}_{}.csv", label.replace('/', "x"), family),
                &["delay_s", "density"],
                kde.curve(160).into_iter().map(|(x, y)| vec![x, y]),
            )?;
            table.row(vec![
                label.to_string(),
                family.to_string(),
                eng(s.mean, "s"),
                eng(s.std, "s"),
                format!("{:.2}", 100.0 * s.std / s.mean),
                failures.to_string(),
            ]);
        }
        let ratio = (sigmas[1] / sigmas[0]).max(sigmas[0] / sigmas[1]);
        worst_sigma_ratio = worst_sigma_ratio.max(ratio);
    }
    report.push_str(&table.render());
    report.push_str(&format!(
        "\nshape: VS and kit PDFs overlay; worst σ(delay) ratio across sizes = {worst_sigma_ratio:.3}\nCSV: fig5_pdf_<size>_<model>.csv\n"
    ));
    Ok(report)
}
