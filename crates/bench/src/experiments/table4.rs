//! Table IV — Monte Carlo runtime and model-state comparison between the
//! statistical VS model and the BSIM-like kit.
//!
//! The paper compares a Verilog-A VS implementation against BSIM4's
//! optimized C, reporting 4.2x runtime and 8.7x memory advantages. Here both
//! models run inside the *same* simulator and are differentiated the *same*
//! way: each writes its core equations once, generic over plain and dual
//! numbers, and every Newton stamp, transient charge stamp and AC
//! linearization takes one exact `eval_dc`/`eval_charges` evaluation —
//! the simulator-side counterpart of the Verilog-A compiler's automatic
//! differentiation. The comparison therefore isolates the models
//! themselves: evaluation cost (the VS model is ~2x fewer floating-point
//! operations and transcendentals, and its dual evaluation carries that
//! ratio over) and per-instance state (`size_of` the model structs).
//! Absolute ratios are therefore smaller than the paper's cross-runtime
//! numbers; the *direction* (VS cheaper on both axes) is the reproduced
//! claim.

use super::ExpResult;
use crate::report::TextTable;
use crate::ExperimentContext;
use circuits::cells::InverterSizing;
use circuits::delay::{DelayBench, GateKind};
use circuits::dff::{DffBench, DffSizing};
use circuits::sram::{ReadDisturbBench, SramSizing};
use std::time::Instant;
use vscore::mc::VecSink;

/// Runs one family's workload through the parallel executor (one
/// persistent session per worker: elaborate once, swap devices per
/// sample, results kept in a `VecSink`); returns (elapsed wall-clock
/// seconds, completed runs).
///
/// Both families run on the same worker count, so the VS-vs-kit runtime
/// ratio — the reproduced claim — is unaffected by the sharding.
///
/// # Errors
///
/// Propagates worker-setup (bench construction) failures; per-sample
/// failures are only counted against `completed`.
fn run_workload(
    ctx: &ExperimentContext,
    family: &str,
    cell: &str,
    n: usize,
) -> Result<(f64, usize), spice::SpiceError> {
    let t0 = Instant::now();
    let runner = ctx.runner(0x7ab4);
    let done = match cell {
        "nand2" => runner
            .run_streaming_range(
                0,
                n,
                |_, setup| {
                    let mut f = ctx.factory(family, setup.clone());
                    Ok::<_, spice::SpiceError>(DelayBench::fo3(
                        GateKind::Nand2,
                        InverterSizing::from_nm(300.0, 300.0, 40.0),
                        ctx.vdd(),
                        &mut f,
                    ))
                },
                |b, sampler, _| {
                    let mut f = ctx.factory(family, sampler.clone());
                    b.resample(&mut f);
                    b.measure_delay(2e-12)
                },
                &mut VecSink::new(),
            )
            .map(|o| o.observed),
        "dff" => runner
            .run_streaming_range(
                0,
                n,
                |_, setup| {
                    let mut f = ctx.factory(family, setup.clone());
                    Ok::<_, spice::SpiceError>(DffBench::new(
                        DffSizing::default(),
                        ctx.vdd(),
                        150e-12,
                        &mut f,
                    ))
                },
                |b, sampler, _| {
                    let mut f = ctx.factory(family, sampler.clone());
                    b.resample(&mut f);
                    b.captures(4e-12)
                },
                &mut VecSink::new(),
            )
            .map(|o| o.observed),
        _ => {
            // The paper's "SRAM AC": small-signal sweep of the read-
            // disturb transfer, 26 log-spaced points per sample, on the
            // batched AC path — each worker's ReadDisturbBench starts every
            // sample's operating point from its construction cell's
            // (Session::dc_owned_from), then sweeps through one reused AC
            // workspace (Session::ac_owned).
            let sram_freqs = spice::ac::log_sweep(1e6, 1e11, 5);
            let sz = SramSizing::default();
            // Every worker builds its bench from the same draw, so a
            // sample's start does not depend on the worker count.
            let construction = stats::Sampler::from_seed(ctx.seed);
            runner
                .run_streaming_range(
                    0,
                    n,
                    |_, _| {
                        // Retry construction draws whose cell does not
                        // converge.
                        let mut last_err = None;
                        for attempt in 0..8 {
                            let mut f = ctx.factory(family, construction.stream(attempt));
                            match ReadDisturbBench::new(sz, ctx.vdd(), &mut f) {
                                Ok(b) => return Ok(b),
                                Err(e) => last_err = Some(e),
                            }
                        }
                        Err(last_err.expect("eight attempts made"))
                    },
                    |b, sampler, _| {
                        let mut f = ctx.factory(family, sampler.clone());
                        b.resample(sz, &mut f)?;
                        b.run(&sram_freqs)
                    },
                    &mut VecSink::new(),
                )
                .map(|o| o.observed)
        }
    }?;
    Ok((t0.elapsed().as_secs_f64(), done))
}

/// Regenerates the runtime/state comparison.
pub fn run(ctx: &ExperimentContext) -> ExpResult {
    let workloads = [
        ("NAND2", "nand2", "tran", ctx.samples(2000)),
        ("DFF", "dff", "tran", ctx.samples(250)),
        ("SRAM", "sram", "AC", ctx.samples(2000)),
    ];
    let mut table = TextTable::new(&[
        "cell",
        "analysis",
        "samples",
        "VS us/sample",
        "VS wall",
        "kit us/sample",
        "kit wall",
        "speedup",
    ]);
    let mut report = String::from(
        "Table IV — Monte Carlo runtime comparison (same simulator, both models)\n\
         per completed sample, and the wall time of all samples\n\n",
    );
    let mut speedups = Vec::new();
    for (label, cell, analysis, n) in workloads {
        let (t_vs, done_vs) = run_workload(ctx, "vs", cell, n)?;
        let (t_kit, done_kit) = run_workload(ctx, "bsim", cell, n)?;
        let (us_vs, us_kit) = (1e6 * t_vs / done_vs as f64, 1e6 * t_kit / done_kit as f64);
        let speedup = us_kit / us_vs;
        speedups.push(speedup);
        table.row(vec![
            label.to_string(),
            analysis.to_string(),
            n.to_string(),
            three_digits(us_vs),
            format!("{}ms", three_digits(1e3 * t_vs)),
            three_digits(us_kit),
            format!("{}ms", three_digits(1e3 * t_kit)),
            format!("{speedup:.2}x"),
        ]);
    }
    report.push_str(&table.render());

    // Per-instance model state (the paper's memory axis, normalized to the
    // shared simulator: only the device-model state differs).
    let vs_bytes = std::mem::size_of::<mosfet::vs::VsModel>();
    let kit_bytes = std::mem::size_of::<mosfet::bsim::BsimModel>();
    report.push_str(&format!(
        "\nper-instance model state: VS {vs_bytes} B, kit {kit_bytes} B\n\
         mean runtime advantage of the VS model: {:.2}x (paper: 4.2x across\n\
         Verilog-A-vs-C runtimes; within one runtime the model-only gap is smaller)\n",
        speedups.iter().sum::<f64>() / speedups.len() as f64
    ));
    Ok(report)
}

/// `x` rounded to three significant digits and printed without an
/// exponent: `61.2`, `0.0473`, `12300`. A time that is not finite and
/// positive, such as the time per sample of a run where none completed,
/// prints as `n/a`.
fn three_digits(x: f64) -> String {
    if !(x.is_finite() && x > 0.0) {
        return "n/a".into();
    }
    let magnitude = x.log10().floor() as i32;
    let unit = 10f64.powi(magnitude - 2);
    let decimals = usize::try_from(2 - magnitude).unwrap_or(0);
    format!("{:.decimals$}", (x / unit).round() * unit)
}

#[cfg(test)]
mod tests {
    use super::three_digits;

    #[test]
    fn times_print_to_three_significant_digits() {
        for (x, want) in [
            (61.23, "61.2"),
            (0.047_349, "0.0473"),
            (5.0, "5.00"),
            (999.7, "1000"),
            (12_345.6, "12300"),
            (f64::INFINITY, "n/a"),
            (0.0, "n/a"),
        ] {
            assert_eq!(three_digits(x), want, "{x}");
        }
    }
}
