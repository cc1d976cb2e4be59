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
        "VS runtime",
        "kit runtime",
        "speedup",
    ]);
    let mut report =
        String::from("Table IV — Monte Carlo runtime comparison (same simulator, both models)\n\n");
    let mut speedups = Vec::new();
    for (label, cell, analysis, n) in workloads {
        let (t_vs, _) = run_workload(ctx, "vs", cell, n)?;
        let (t_kit, _) = run_workload(ctx, "bsim", cell, n)?;
        let speedup = t_kit / t_vs;
        speedups.push(speedup);
        table.row(vec![
            label.to_string(),
            analysis.to_string(),
            n.to_string(),
            format!("{:.2}s", t_vs),
            format!("{:.2}s", t_kit),
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
