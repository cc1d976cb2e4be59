//! Fig. 7 — NAND2 FO3 delay PDFs and QQ plots at Vdd = 0.9 / 0.7 / 0.55 V:
//! the statistical VS model must capture the growing non-Gaussianity at low
//! supply voltage even though all its variation parameters are Gaussian.

use super::fig5::delay_samples;
use super::ExpResult;
use crate::report::{eng, write_csv, TextTable};
use crate::ExperimentContext;
use circuits::cells::InverterSizing;
use circuits::delay::GateKind;
use stats::corners::{upper_corner, MIN_SAMPLES};
use stats::kde::Kde;
use stats::qq::QqPlot;
use stats::Summary;

/// Regenerates the low-Vdd delay distributions.
pub fn run(ctx: &ExperimentContext) -> ExpResult {
    let n = ctx.samples(2500);
    let sz = InverterSizing::from_nm(300.0, 300.0, 40.0);
    let supplies = [0.9, 0.7, 0.55];
    let mut table = TextTable::new(&[
        "Vdd (V)",
        "model",
        "mean",
        "sigma",
        "skewness",
        "QQ linearity r",
        "3σ corner err (%)",
        "fails",
    ]);
    let mut report =
        format!("Fig. 7 — NAND2 FO3 delay distributions, {n} MC samples per point\n\n");
    let mut vs_skews = Vec::new();
    let mut kit_skews = Vec::new();

    for (vi, &vdd) in supplies.iter().enumerate() {
        for family in ["bsim", "vs"] {
            let (samples, failures) = delay_samples(
                ctx,
                GateKind::Nand2,
                sz,
                vdd,
                n,
                family,
                7000 + vi as u64 * 10,
            );
            let s = Summary::from_slice(&samples);
            let qq = QqPlot::from_sample(&samples);
            let kde = Kde::from_sample(&samples);
            let tag = format!("{}mv_{family}", (vdd * 1000.0) as u32);
            write_csv(
                &ctx.out_dir,
                &format!("fig7_pdf_{tag}.csv"),
                &["delay_s", "density"],
                kde.curve(160).into_iter().map(|(x, y)| vec![x, y]),
            )?;
            write_csv(
                &ctx.out_dir,
                &format!("fig7_qq_{tag}.csv"),
                &["normal_quantile", "delay_quantile_s"],
                qq.points.iter().map(|p| vec![p.theoretical, p.sample]),
            )?;
            // Reduced-scale runs can leave too few samples for a 3σ
            // corner; the table says so instead of aborting the run.
            let corner_err = if samples.len() >= MIN_SAMPLES {
                format!("{:+.1}", 100.0 * upper_corner(&samples, 3.0).corner_error)
            } else {
                "n/a".to_string()
            };
            table.row(vec![
                format!("{vdd}"),
                family.to_string(),
                eng(s.mean, "s"),
                eng(s.std, "s"),
                format!("{:+.3}", s.skewness),
                format!("{:.5}", qq.linearity_r),
                corner_err,
                failures.to_string(),
            ]);
            if family == "vs" {
                vs_skews.push(s.skewness);
            } else {
                kit_skews.push(s.skewness);
            }
        }
    }
    report.push_str(&table.render());
    report.push_str(&format!(
        "\nshape: skewness grows as Vdd drops (kit: {kit_skews:.3?}; VS: {vs_skews:.3?}) —\n\
         the QQ plot bends away from linear at 0.7V and strongly at 0.55V, with the VS model\n\
         tracking the kit despite purely Gaussian input parameters (paper Fig. 7d-f).\n\
         CSV: fig7_pdf_<vdd>_<model>.csv, fig7_qq_<vdd>_<model>.csv\n"
    ));
    Ok(report)
}
