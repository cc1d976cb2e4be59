//! `highsigma` — 6T SRAM READ-SNM failure probability at the 5σ design
//! point via two-phase importance sampling.
//!
//! Production sign-off asks for failure probabilities near 1e-7 (5σ),
//! where the fig9 Monte Carlo sees nothing: at 5×10⁴ samples the expected
//! hit count below a 5σ threshold is ~0.01, so the plain estimator is
//! exactly zero almost surely. This experiment rides the rare-event
//! engine instead:
//!
//! 1. **Explore.** A plain Monte Carlo pass over pinned mismatch draws
//!    (`McFactory::set_pinned` replays explicit standardized vectors)
//!    estimates the SNM mean and sigma of the cell — the body statistics
//!    that anchor the report and the histogram ranges.
//! 2. **Fit the shift.** The SNM is `min(eye1, eye2)` of the two
//!    butterfly eyes. At the symmetric nominal point the two eyes tie,
//!    so the gradient of their min mixes both eyes' sensitivities and
//!    aims at the useless common mode; *eye 1 alone* is smooth with a
//!    clean antisymmetric gradient (one half-cell weak, the other
//!    strong). The worst-case direction is therefore the steepest
//!    descent of eye 1, probed by central differences and refined by a
//!    damped fixed-radius iteration (the worst-case-distance search of
//!    high-sigma yield analysis). The **5σ design point** is the
//!    radius-5 point of the standardized mismatch space along that
//!    direction, and the failure threshold is the eye margin *at* the
//!    design point — failure demands a ≥ 5σ input-space excursion, and
//!    the proposal mean sits exactly on the failure boundary, so about
//!    half the weighted samples hit the tail.
//! 3. **Importance-sample.** `ParallelRunner::run_streaming_range` draws
//!    every mismatch dimension from the mean-shifted proposal (via
//!    `McFactory::set_proposal_shifts`), streaming `(eye1, log w)`
//!    records into a `WeightedMoments` tail estimator and a
//!    `WeightedHistogram` of the reweighted *nominal* eye-margin
//!    distribution.
//!
//! The single-eye tail converts to the SNM tail by symmetry: the cell's
//! left/right halves draw from identical device specs, so the two eye
//! margins are exchangeable and `P(SNM < t) = 2·P(eye1 < t) − P(both)`.
//! The both-eyes term needs two simultaneous ~5σ degradations pulling in
//! opposite mismatch directions and is negligible at this depth, so the
//! report quotes `p ≈ 2·p₁` (an upper bound, tight to `O(P(both))`).
//!
//! The report carries the failure-probability estimate with its 95% CI,
//! the Kish ESS diagnostic, and the measured variance-reduction factor
//! against the plain-MC binomial bound `p(1−p)/n` on the same budget.
//! Two calibration readouts fall out for free: the design-point margin
//! against the Gaussian extrapolation `μ − 5σ` (how Gaussian the SNM
//! left tail is along the dominant failure mode), and `p₁` against the
//! analytic halfspace mass `Φ̄(5)` (how curved the failure boundary is).

use super::ExpResult;
use crate::report::{write_csv, TextTable};
use crate::ExperimentContext;
use circuits::sram::{SnmBench, SnmMode, SramSizing};
use stats::Welford;
use std::sync::Arc;
use vscore::mc::{WeightedHistogram, WeightedMoments};

/// Butterfly sweep resolution — shared by every phase so exploratory
/// statistics, probe evaluations, and IS samples measure the same metric.
const SWEEP_POINTS: usize = 41;

/// Runs the 5σ SNM yield experiment.
pub fn run(ctx: &ExperimentContext) -> ExpResult {
    let sz = SramSizing::default();
    let mode = SnmMode::Read;
    let n_explore = ctx.samples(2000);
    let n_is = ctx.samples(50_000);
    let mut report = format!(
        "highsigma — 6T SRAM READ SNM failure probability at the 5-sigma threshold\n\
         two-phase importance sampling: {n_explore} exploratory + {n_is} weighted samples\n\n"
    );

    // ---- Phase 1: exploratory plain MC over pinned draws --------------
    // A probe bench on the calling thread evaluates chosen points of the
    // standardized mismatch space; feeding it freshly drawn vectors *is*
    // plain Monte Carlo, while recording the vectors for the shift fit.
    let mut probe_f = ctx.vs_factory(ctx.seed ^ 0x9c0be5);
    let mut probe = SnmBench::new(sz, ctx.vdd(), mode, SWEEP_POINTS, &mut probe_f)?;
    // Dimensionality of one resample, discovered by counting draws.
    probe_f.clear_draw_mode();
    probe.resample(sz, &mut probe_f)?;
    let dims = probe_f.draws_taken();
    let mut eval_margins = |pt: &[f64]| -> Result<(f64, f64), spice::SpiceError> {
        probe_f.set_pinned(Arc::from(pt));
        probe.resample(sz, &mut probe_f)?;
        probe.eye_margins()
    };

    let mut draw_stream = stats::Sampler::from_seed(ctx.seed ^ 0xe589);
    let mut snm_stats = Welford::new();
    let mut explore_failures = 0usize;
    for _ in 0..n_explore {
        let v: Vec<f64> = (0..dims).map(|_| draw_stream.standard_normal()).collect();
        match eval_margins(&v) {
            Ok((e1, e2)) => snm_stats.push(e1.min(e2)),
            Err(_) => explore_failures += 1,
        }
    }
    let (mu, sigma) = (snm_stats.mean(), snm_stats.std());
    if !(sigma > 0.0) {
        return Err("exploratory pass produced zero SNM variance".into());
    }
    // Gaussian extrapolation of the 5-sigma margin level, reported for
    // contrast only: the measured tail is far lighter than Gaussian, so
    // the actual 5-sigma design-point margin sits well above this.
    let gauss_5s = mu - 5.0 * sigma;

    // ---- Phase 2: fit the proposal shift ------------------------------
    // Worst-case direction of *eye 1* (smooth, unlike min-of-eyes) by
    // central-difference gradient probes. The SNM itself is useless for
    // this: at the symmetric nominal point the two eyes tie, so the
    // gradient of their min mixes both eyes' sensitivities and aims at
    // the common mode. Eye 1 alone has a clean antisymmetric gradient.
    let normalize = |v: &mut [f64]| -> f64 {
        let n = v.iter().map(|d| d * d).sum::<f64>().sqrt();
        if n > 0.0 {
            for d in v.iter_mut() {
                *d /= n;
            }
        }
        n
    };
    // Steepest-descent direction at the origin, then damped fixed-radius
    // refinement: re-probe the gradient at the current design point and
    // blend it in, tracking the direction with the lowest margin (the
    // worst-case-distance iteration of high-sigma yield analysis — the
    // response is sublinear, so the origin gradient alone overestimates
    // which mode stays worst at radius 5).
    let mut direction = eye_gradient(&mut eval_margins, &vec![0.0; dims])?;
    for d in &mut direction {
        *d = -*d;
    }
    if !(normalize(&mut direction) > 0.0) {
        return Err("eye-margin gradient vanished at nominal; cannot aim the proposal".into());
    }
    // The 5-sigma design point: the radius-5 point of the standardized
    // mismatch space along the fitted worst-case direction. The failure
    // threshold is the eye margin *at* that point, so a failing cell
    // requires a >= 5-sigma input-space excursion — the standard
    // high-sigma formulation. It is self-calibrating: the proposal mean
    // sits exactly on the failure boundary (about half the weighted
    // samples hit the tail), with no ray search whose failure to bracket
    // would leave the proposal aimed short of — or absurdly beyond — the
    // threshold.
    let beta_star = 5.0;
    let scale_dir = |u: &[f64], beta: f64| -> Vec<f64> { u.iter().map(|d| beta * d).collect() };
    let mut best_margin = eval_margins(&scale_dir(&direction, beta_star))?.0;
    for _ in 0..3 {
        let mut g = eye_gradient(&mut eval_margins, &scale_dir(&direction, beta_star))?;
        let gn = normalize(&mut g);
        if !(gn > 0.0) {
            break;
        }
        let mut blended: Vec<f64> = direction.iter().zip(&g).map(|(u, gi)| u - gi).collect();
        if !(normalize(&mut blended) > 0.0) {
            break;
        }
        let margin = eval_margins(&scale_dir(&blended, beta_star))?.0;
        if margin < best_margin {
            best_margin = margin;
            direction = blended;
        } else {
            break;
        }
    }
    let design_point = scale_dir(&direction, beta_star);
    let threshold = best_margin;
    if !(threshold > 0.0 && threshold < mu) {
        return Err(format!(
            "margin at the 5-sigma design point ({threshold:.4} V) is outside \
             (0, mean = {mu:.4} V); the fitted direction does not degrade the eye"
        )
        .into());
    }
    let shifts: Arc<[f64]> = design_point.into();

    // ---- Phase 3: weighted tail estimation ----------------------------
    let hist_lo = (threshold - 3.0 * sigma).max(0.0);
    let hist_hi = mu + 4.0 * sigma;
    let mut sinks = (
        WeightedMoments::below(threshold),
        WeightedHistogram::new(hist_lo, hist_hi, 44),
    );
    let is_out = ctx.runner(0x15b0).run_streaming_range(
        0,
        n_is,
        |_, setup| build_bench(ctx, sz, mode, setup),
        |bench, sampler, _| {
            let mut f = ctx.factory("vs", sampler.clone());
            f.set_proposal_shifts(shifts.clone());
            bench.resample(sz, &mut f)?;
            let eye1 = bench.eye_margins()?.0;
            Ok((eye1, f.take_log_weight()))
        },
        &mut sinks,
    )?;
    let (moments, hist) = sinks;

    // Symmetrize the single-eye tail into the SNM tail (module docs):
    // p = 2·p1 − P(both) ≈ 2·p1, so the estimate, its standard error, and
    // the CI all scale by 2, and the estimator variance by 4.
    let p1 = moments.estimate();
    let p = 2.0 * p1;
    let se = 2.0 * moments.std_error();
    let half95 = 2.0 * moments.ci_half_width(1.96);
    let ci_excludes_zero = p - half95 > 0.0;
    // Plain MC on the same budget: binomial per-sample variance p(1-p).
    let plain_var = p * (1.0 - p);
    let vrf = plain_var / (4.0 * moments.variance());
    let expected_plain_hits = p * n_is as f64;
    let gaussian_p = stats::gaussian::tail(5.0);

    write_csv(
        &ctx.out_dir,
        "highsigma_weighted_hist.csv",
        &[
            "eye_margin_v",
            "proposal_count",
            "nominal_mass",
            "nominal_density",
        ],
        hist.counts()
            .iter()
            .zip(hist.masses())
            .zip(hist.nominal_density())
            .enumerate()
            .map(|(i, ((&c, mass), dens))| vec![hist.bin_center(i), c as f64, mass, dens]),
    )?;
    write_csv(
        &ctx.out_dir,
        "highsigma_summary.csv",
        &[
            "threshold_v",
            "p_fail",
            "p_one_eye",
            "std_error",
            "ci95_half",
            "vrf",
            "ess",
            "beta",
            "gauss_mu_minus_5sigma",
            "samples",
        ],
        std::iter::once(vec![
            threshold,
            p,
            p1,
            se,
            half95,
            vrf,
            moments.ess(),
            beta_star,
            gauss_5s,
            n_is as f64,
        ]),
    )?;

    let mut table = TextTable::new(&["quantity", "value"]);
    table.row(vec![
        "exploratory mean SNM (mV)".into(),
        format!("{:.2}", mu * 1e3),
    ]);
    table.row(vec![
        "exploratory sigma (mV)".into(),
        format!("{:.3}", sigma * 1e3),
    ]);
    table.row(vec![
        "threshold: margin at 5-sigma design point (mV)".into(),
        format!("{:.2}", threshold * 1e3),
    ]);
    table.row(vec![
        "Gaussian-extrapolated mu - 5 sigma (mV)".into(),
        format!("{:.2}", gauss_5s * 1e3),
    ]);
    table.row(vec![
        "design-point radius beta".into(),
        format!("{beta_star:.1}"),
    ]);
    table.row(vec!["mismatch dimensions".into(), dims.to_string()]);
    table.row(vec!["P(eye1 < threshold)".into(), format!("{p1:.3e}")]);
    table.row(vec!["P(SNM < threshold) = 2 p1".into(), format!("{p:.3e}")]);
    table.row(vec![
        "95% CI".into(),
        format!("[{:.3e}, {:.3e}]", (p - half95).max(0.0), p + half95),
    ]);
    table.row(vec![
        "CI excludes zero".into(),
        if ci_excludes_zero { "yes" } else { "NO" }.into(),
    ]);
    table.row(vec![
        "variance reduction vs plain MC".into(),
        format!("{vrf:.1}x"),
    ]);
    table.row(vec![
        "expected plain-MC hits at this budget".into(),
        format!("{expected_plain_hits:.2e}"),
    ]);
    table.row(vec![
        "Kish ESS (raw weights)".into(),
        format!("{:.1}", moments.ess()),
    ]);
    table.row(vec![
        "tail hits under proposal".into(),
        format!("{:.0}", moments.raw_sum()),
    ]);
    table.row(vec![
        "Gaussian reference tail(5)".into(),
        format!("{gaussian_p:.3e}"),
    ]);
    table.row(vec![
        "failures (explore / IS)".into(),
        format!("{} / {}", explore_failures, is_out.failures),
    ]);
    report.push_str(&table.render());
    report.push_str(&format!(
        "\nshape: the weighted estimator resolves a ~1e-7 failure probability with a CI\n\
         that excludes zero at a budget where plain MC expects {expected_plain_hits:.2} hits.\n\
         Calibration: the design-point margin ({:.1} mV) against the Gaussian\n\
         extrapolation mu - 5 sigma ({:.1} mV) measures the tail's Gaussianity along\n\
         the dominant failure mode; p1/tail(5) = {:.2} measures the failure-boundary\n\
         curvature. CSV: highsigma_weighted_hist.csv, highsigma_summary.csv\n",
        threshold * 1e3,
        gauss_5s * 1e3,
        p1 / gaussian_p,
    ));
    Ok(report)
}

/// Central-difference gradient of the eye-1 margin at a standardized
/// mismatch point. The half-step of 0.5 sigma trades interpolation noise
/// in the piecewise-linear butterfly curves against curvature error.
fn eye_gradient(
    eval_margins: &mut impl FnMut(&[f64]) -> Result<(f64, f64), spice::SpiceError>,
    pt: &[f64],
) -> Result<Vec<f64>, spice::SpiceError> {
    let h = 0.5;
    let mut g = vec![0.0; pt.len()];
    for (i, gi) in g.iter_mut().enumerate() {
        let mut up = pt.to_vec();
        up[i] += h;
        let mut dn = pt.to_vec();
        dn[i] -= h;
        *gi = (eval_margins(&up)?.0 - eval_margins(&dn)?.0) / (2.0 * h);
    }
    Ok(g)
}

/// The fig9-style worker bench constructor: retry non-convergent
/// construction draws with fresh forks (initial devices are overwritten by
/// the first sample anyway).
fn build_bench(
    ctx: &ExperimentContext,
    sz: SramSizing,
    mode: SnmMode,
    setup: &mut stats::Sampler,
) -> Result<SnmBench, spice::SpiceError> {
    let mut last_err = None;
    for attempt in 0..8 {
        let mut f = ctx.factory("vs", setup.fork(attempt));
        match SnmBench::new(sz, ctx.vdd(), mode, SWEEP_POINTS, &mut f) {
            Ok(b) => return Ok(b),
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.expect("eight attempts made"))
}
