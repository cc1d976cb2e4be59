//! Fig. 9 — 6T SRAM butterfly curves and READ/HOLD static noise margins
//! (2500 Monte Carlo samples), including the slightly non-Gaussian HOLD SNM
//! distribution. The SNM loops run through the streaming pipeline: a
//! t-digest sketch reports the 5th-percentile yield margin in O(δ) memory —
//! and, being mergeable, lets independent shards of a scaled-up run
//! combine their tail estimates (see `examples/fleet_merge.rs`) — fanned
//! out next to the explicit sample buffer the KDE/QQ curves need.

use super::ExpResult;
use crate::report::{write_csv, TextTable};
use crate::ExperimentContext;
use circuits::sram::{SnmBench, SnmMode, SramSizing};
use stats::kde::Kde;
use stats::qq::QqPlot;
use stats::Summary;
use vscore::mc::{TDigest, VecSink};

/// Regenerates butterfly curves and SNM distributions.
pub fn run(ctx: &ExperimentContext) -> ExpResult {
    let n = ctx.samples(2500);
    let sz = SramSizing::default();
    let mut table = TextTable::new(&[
        "mode",
        "model",
        "mean SNM (mV)",
        "sigma (mV)",
        "p5 SNM (mV)",
        "skewness",
        "QQ r",
        "fails",
    ]);
    let mut report =
        format!("Fig. 9 — 6T SRAM butterfly and SNM, {n} MC samples per mode/model\n\n");

    // Nominal butterfly curves (the characteristic pattern of Fig. 9a/d)
    // plus a handful of Monte Carlo traces from the VS model.
    for (mode, tag) in [(SnmMode::Read, "read"), (SnmMode::Hold, "hold")] {
        let mut f = ctx.vs_factory(ctx.seed ^ 0x5afe);
        // Half-cell sessions elaborate once; each trace swaps fresh devices.
        let mut bench = SnmBench::new(sz, ctx.vdd(), mode, 61, &mut f)?;
        for trace in 0..6 {
            if trace > 0 {
                bench.resample(sz, &mut f)?;
            }
            let (c1, c2) = bench.curves()?;
            write_csv(
                &ctx.out_dir,
                &format!("fig9_butterfly_{tag}_vs_trace{trace}.csv"),
                &["v_l", "v_r_curve1", "v_r_curve2"],
                c1.iter()
                    .zip(&c2)
                    .map(|(&(x1, y1), &(_, y2))| vec![x1, y1, y2]),
            )?;
        }
    }

    for (mode, tag) in [(SnmMode::Read, "read"), (SnmMode::Hold, "hold")] {
        for family in ["bsim", "vs"] {
            // The butterfly session elaborates once per worker; every
            // sample swaps freshly drawn devices in place and re-sweeps
            // both half-cells at once, the first point from the rail. A
            // non-convergent construction draw retries with a fresh one
            // (as the sequential loop did by rolling to the next trial) —
            // the initial devices are overwritten by the first sample
            // anyway.
            //
            // SNM records stream into a t-digest for the 5th-percentile
            // yield figure (O(δ) memory at any sample count, and mergeable
            // with other runs' digests) next to an explicit VecSink — the
            // KDE curve, QQ plot, and skewness are genuinely whole-sample
            // statistics.
            let mut sink = (VecSink::new(), TDigest::new(100.0));
            let out = ctx.runner(0x54a8).run_streaming_range(
                0,
                n,
                |_, setup| {
                    let mut last_err = None;
                    for attempt in 0..8 {
                        let mut f = ctx.factory(family, setup.fork(attempt));
                        match SnmBench::new(sz, ctx.vdd(), mode, 61, &mut f) {
                            Ok(b) => return Ok(b),
                            Err(e) => last_err = Some(e),
                        }
                    }
                    Err(last_err.expect("eight attempts made"))
                },
                |bench, sampler, _| {
                    let mut f = ctx.factory(family, sampler.clone());
                    bench.resample(sz, &mut f)?;
                    bench.snm()
                },
                &mut sink,
            )?;
            let failures = out.failures;
            let (values, sketch) = sink;
            let p5 = sketch.quantile(0.05).unwrap_or(f64::NAN);
            let samples = values.into_values();
            let s = Summary::from_slice(&samples);
            let kde = Kde::from_sample(&samples);
            let qq = QqPlot::from_sample(&samples);
            write_csv(
                &ctx.out_dir,
                &format!("fig9_snm_pdf_{tag}_{family}.csv"),
                &["snm_v", "density"],
                kde.curve(140).into_iter().map(|(x, y)| vec![x, y]),
            )?;
            if tag == "hold" {
                write_csv(
                    &ctx.out_dir,
                    &format!("fig9_qq_hold_{family}.csv"),
                    &["normal_quantile", "snm_quantile_v"],
                    qq.points.iter().map(|p| vec![p.theoretical, p.sample]),
                )?;
            }
            table.row(vec![
                tag.to_uppercase(),
                family.to_string(),
                format!("{:.1}", s.mean * 1e3),
                format!("{:.2}", s.std * 1e3),
                format!("{:.1}", p5 * 1e3),
                format!("{:+.3}", s.skewness),
                format!("{:.5}", qq.linearity_r),
                failures.to_string(),
            ]);
        }
    }
    report.push_str(&table.render());
    report.push_str(
        "\nshape: READ SNM well below HOLD SNM; VS matches the kit on both; the HOLD\n\
         SNM QQ plot shows the slight non-Gaussianity of paper Fig. 9(f).\n\
         CSV: fig9_butterfly_*.csv, fig9_snm_pdf_*.csv, fig9_qq_hold_*.csv\n",
    );
    Ok(report)
}
