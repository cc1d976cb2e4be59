//! Fig. 8 — D flip-flop setup-time distribution (250 Monte Carlo samples,
//! each requiring a binary search of transient simulations — the workload
//! where the compact VS model's speed advantage compounds).

use super::ExpResult;
use crate::report::{eng, write_csv, TextTable};
use crate::ExperimentContext;
use circuits::dff::{setup_time, DffBench, DffSizing};
use stats::kde::Kde;
use stats::Summary;
use vscore::mc::VecSink;

/// Transient step for the setup search (coarser than delay benches; the
/// pass/fail decision tolerates it).
const DT: f64 = 4e-12;
/// Binary-search window and resolution.
const T_MAX: f64 = 250e-12;
const RESOLUTION: f64 = 2e-12;

/// Regenerates the setup-time PDF.
pub fn run(ctx: &ExperimentContext) -> ExpResult {
    let n = ctx.samples(250);
    let mut table = TextTable::new(&["model", "mean setup", "sigma", "min", "max", "fails"]);
    let mut report = format!(
        "Fig. 8 — DFF setup time, {n} MC samples, binary search to {} resolution\n\n",
        eng(RESOLUTION, "s")
    );

    for family in ["bsim", "vs"] {
        // One elaborated flip-flop session per worker. Each sample swaps a
        // fresh mismatch draw in place; the binary search then re-targets
        // only the data waveform — the same devices serve every candidate
        // setup time without a single rebuild (pre-session code had to
        // reconstruct the netlist from an identically seeded factory at
        // every probe). Sharding is deterministic: sample `i` draws from
        // the `(seed, i)` stream on every worker count.
        let mut setup_times = VecSink::new();
        let out = ctx
            .runner(0xd1f_f000)
            .run_streaming_range(
                0,
                n,
                |_, setup| {
                    let mut f = ctx.factory(family, setup.clone());
                    Ok::<_, spice::SpiceError>(DffBench::new(
                        DffSizing::default(),
                        ctx.vdd(),
                        T_MAX,
                        &mut f,
                    ))
                },
                |bench, sampler, _| {
                    let mut f = ctx.factory(family, sampler.clone());
                    bench.resample(&mut f);
                    setup_time(bench, T_MAX, RESOLUTION, DT)
                },
                &mut setup_times,
            )
            .expect("bench elaboration is infallible");
        let failures = out.failures;
        let samples = setup_times.into_values();
        let s = Summary::from_slice(&samples);
        let kde = Kde::from_sample(&samples);
        write_csv(
            &ctx.out_dir,
            &format!("fig8_setup_pdf_{family}.csv"),
            &["setup_s", "density"],
            kde.curve(120).into_iter().map(|(x, y)| vec![x, y]),
        )?;
        write_csv(
            &ctx.out_dir,
            &format!("fig8_setup_samples_{family}.csv"),
            &["setup_s"],
            samples.iter().map(|&x| vec![x]),
        )?;
        table.row(vec![
            family.to_string(),
            eng(s.mean, "s"),
            eng(s.std, "s"),
            eng(s.min, "s"),
            eng(s.max, "s"),
            failures.to_string(),
        ]);
    }
    report.push_str(&table.render());
    report.push_str(
        "\nshape: both models yield overlapping setup-time PDFs in the tens-of-ps range\n\
         (paper Fig. 8c: ~15-50 ps). Each sample costs ~20x the SPICE runs of a\n\
         combinational cell — the paper's argument for ultra-compact models.\n\
         CSV: fig8_setup_pdf_<model>.csv, fig8_setup_samples_<model>.csv\n",
    );
    Ok(report)
}
