//! Statistical-correctness battery for the importance-sampling engine.
//!
//! Three families of checks, all against *analytic* ground truth:
//!
//! * **Closed-form tails.** A shifted-normal proposal estimating `Φ̄(t)`
//!   (known to ~1e-14 via `gaussian::tail`) must land near the truth at
//!   budgets where plain MC would see a handful of hits or none.
//! * **Frequentist calibration.** Over many seeded repeats, the nominal
//!   95% confidence interval must cover the true value at roughly its
//!   advertised rate — an estimator whose CI is too narrow (wrong
//!   variance formula) or biased (wrong weight) fails loudly here.
//! * **Degenerate reduction.** The nominal proposal is plain Monte Carlo
//!   *to the bit*: same draw stream, all log-weights exactly `+0.0`, and
//!   identical weighted-sink bytes as feeding unit weights by hand.
//!
//! CI runs this file under its own named step so a statistical regression
//! surfaces as `importance_sampling`, mirroring the `parallel_mc`
//! precedent.

use stats::gaussian;
use stats::sink::Sink;
use stats::{GaussianProposal, MergeableSink, Sampler, WeightedHistogram, WeightedMoments};

/// One IS estimate of `Φ̄(t)` with a mean-`shift` unit-scale proposal.
fn estimate_tail(seed: u64, n: usize, shift: f64, t: f64) -> WeightedMoments {
    let proposal = GaussianProposal::new(shift, 1.0);
    let mut m = WeightedMoments::above(t);
    let mut s = Sampler::from_seed(seed);
    for i in 0..n {
        let (x, log_w) = proposal.draw_weighted(&mut s);
        m.observe(i, (x, log_w));
    }
    m
}

/// The 3σ tail against its closed form: truth within a few standard
/// errors, and a relative error plain MC could not reach at this budget
/// (Φ̄(3)·n ≈ 27 expected hits → ~19% relative noise; IS gets ~2%).
#[test]
fn shifted_proposal_recovers_the_3_sigma_tail() {
    let truth = gaussian::tail(3.0);
    let m = estimate_tail(1, 20_000, 3.0, 3.0);
    assert!((m.estimate() / truth - 1.0).abs() < 0.08);
    assert!((m.estimate() - truth).abs() < 4.0 * m.std_error());
    assert!(m.ci_half_width(1.96) < 0.1 * truth, "CI resolves the tail");
}

/// The 5σ tail (~2.9e-7): at n = 40k plain MC expects 0.01 hits — the
/// estimate would be exactly zero almost surely. The mean-5 proposal
/// resolves it to a few percent.
#[test]
fn shifted_proposal_recovers_the_5_sigma_tail() {
    let truth = gaussian::tail(5.0);
    let m = estimate_tail(2, 40_000, 5.0, 5.0);
    assert!((m.estimate() / truth - 1.0).abs() < 0.15);
    assert!((m.estimate() - truth).abs() < 4.0 * m.std_error());
    // The raw hit count confirms the proposal aims at the tail: about
    // half the draws land above t.
    assert!(m.raw_sum() > 0.4 * m.count() as f64);
}

/// Frequentist calibration: the 95% CI must cover the true tail at
/// roughly its advertised rate over seeded repeats. The floor is 0.90
/// rather than 0.95 because 200 Bernoulli(0.95) trials fluctuate (three
/// sigma is ~4.6%); an estimator with a broken variance would cover far
/// less.
#[test]
fn confidence_intervals_are_calibrated() {
    let truth = gaussian::tail(3.0);
    let repeats = 200;
    let covered = (0..repeats)
        .filter(|&r| {
            let m = estimate_tail(1000 + r, 2000, 3.0, 3.0);
            (m.estimate() - truth).abs() <= m.ci_half_width(1.96)
        })
        .count();
    let rate = covered as f64 / repeats as f64;
    assert!(
        rate >= 0.90,
        "95% CI covered the truth only {covered}/{repeats} times"
    );
    assert!(rate <= 1.0);
}

/// Self-normalized weights must sum to 1 within 1e-12 — the consistency
/// identity `Σ(wᵢ/Σw) = 1` holds to rounding because the total weight is
/// accumulated exactly.
#[test]
fn normalized_weights_sum_to_one() {
    let proposal = GaussianProposal::new(2.0, 1.3);
    let mut s = Sampler::from_seed(40);
    let weights: Vec<f64> = (0..10_000)
        .map(|_| proposal.log_weight(proposal.draw(&mut s)).exp())
        .collect();
    let mut m = WeightedMoments::new();
    for (i, &w) in weights.iter().enumerate() {
        m.observe(i, (0.0, w.ln()));
    }
    let total = m.total_weight();
    let normalized: f64 = weights.iter().map(|w| w / total).sum();
    assert!(
        (normalized - 1.0).abs() < 1e-12,
        "normalized weight sum drifted: {normalized:.17}"
    );
}

/// ESS behaves like a proposal-quality diagnostic: it equals n for the
/// nominal proposal (all weights exactly 1) and collapses as the shift
/// grows.
#[test]
fn ess_tracks_proposal_aggressiveness() {
    let n = 5000usize;
    let ess_of = |shift: f64| {
        let proposal = GaussianProposal::new(shift, 1.0);
        let mut m = WeightedMoments::new();
        let mut s = Sampler::from_seed(17);
        for i in 0..n {
            let (x, log_w) = proposal.draw_weighted(&mut s);
            m.observe(i, (x, log_w));
        }
        m.ess()
    };
    let nominal = ess_of(0.0);
    assert!((nominal - n as f64).abs() < 1e-9, "unit weights: ESS = n");
    let mild = ess_of(1.0);
    let aggressive = ess_of(3.0);
    assert!(
        mild < nominal && aggressive < mild,
        "{nominal} {mild} {aggressive}"
    );
    assert!(
        aggressive < 0.05 * n as f64,
        "e^9 weight variance collapses ESS"
    );
}

/// Degenerate reduction, stream level: the nominal proposal draws the
/// plain sampler stream bit-for-bit with every log-weight exactly +0.0.
#[test]
fn nominal_proposal_is_plain_mc_bitwise() {
    let proposal = GaussianProposal::nominal();
    let mut a = Sampler::from_seed(77);
    let mut b = Sampler::from_seed(77);
    for _ in 0..2000 {
        let (x, log_w) = proposal.draw_weighted(&mut a);
        assert_eq!(x.to_bits(), b.standard_normal().to_bits());
        assert_eq!(log_w.to_bits(), 0.0f64.to_bits());
    }
}

/// Degenerate reduction, sink level: weighted sinks fed nominal-proposal
/// records serialize to the same bytes as the identical workload with
/// hand-written unit weights — shift = 0 changes *nothing*.
#[test]
fn nominal_proposal_sink_bytes_match_unit_weights() {
    let proposal = GaussianProposal::nominal();
    let values: Vec<f64> = {
        let mut s = Sampler::from_seed(9);
        (0..3000).map(|_| s.standard_normal()).collect()
    };
    let mut via_proposal = (
        WeightedMoments::above(1.0),
        WeightedHistogram::new(-4.0, 4.0, 32),
    );
    {
        let mut s = Sampler::from_seed(9);
        for i in 0..values.len() {
            via_proposal.observe(i, proposal.draw_weighted(&mut s));
        }
    }
    let mut unit = (
        WeightedMoments::above(1.0),
        WeightedHistogram::new(-4.0, 4.0, 32),
    );
    for (i, &v) in values.iter().enumerate() {
        unit.observe(i, (v, 0.0));
    }
    assert_eq!(via_proposal.0.to_bytes(), unit.0.to_bytes());
    assert_eq!(via_proposal.1.to_bytes(), unit.1.to_bytes());
    // And the estimator is exactly the plain-MC hit fraction.
    let hits = values.iter().filter(|&&v| v > 1.0).count();
    assert_eq!(via_proposal.0.estimate(), hits as f64 / values.len() as f64);
}

/// The weighted histogram's mass column estimates the *nominal* density
/// even where only the proposal has samples: the far-tail bins of a
/// shifted run must integrate to the analytic tail probability.
#[test]
fn weighted_histogram_reconstructs_the_nominal_tail_mass() {
    let proposal = GaussianProposal::new(4.0, 1.0);
    let mut h = WeightedHistogram::new(4.0, 8.0, 16);
    let mut m = WeightedMoments::above(4.0);
    let mut s = Sampler::from_seed(3);
    let n = 40_000usize;
    for i in 0..n {
        let (x, log_w) = proposal.draw_weighted(&mut s);
        h.observe(i, (x, log_w));
        m.observe(i, (x, log_w));
    }
    // Mass landing in [4, 8] / n estimates P(4 < Z < 8) ≈ Φ̄(4).
    let tail_mass = h.total_mass() / n as f64;
    // Out-of-range values clamp into edge bins, so subtract the below-4
    // clamp bin's overcount by comparing against the moments estimator,
    // which uses the exact indicator: they see the same records, so the
    // comparison isolates the binning.
    let truth = gaussian::tail(4.0);
    assert!((m.estimate() / truth - 1.0).abs() < 0.1);
    // The clamped histogram necessarily overcounts (bin 0 swallows all
    // below-range mass — roughly half the proposal draws), so only the
    // *interior* bins are density estimates. Check bin 1 (≈ [4.25, 4.5])
    // against the analytic bin probability.
    let bin_mass = h.masses()[1] / n as f64;
    let analytic = gaussian::tail(4.25) - gaussian::tail(4.5);
    assert!(
        (bin_mass / analytic - 1.0).abs() < 0.15,
        "bin mass {bin_mass:.3e} vs analytic {analytic:.3e}"
    );
    assert!(tail_mass > truth, "clamped total includes below-range mass");
}

/// Scaled (σ > 1) proposals carry the correct weight too: a pure scale
/// proposal recovers a central probability.
#[test]
fn scaled_proposal_recovers_a_central_probability() {
    // P(|Z| < 1) via values drawn from N(0, 2²).
    let proposal = GaussianProposal::new(0.0, 2.0);
    let mut inside = WeightedMoments::below(1.0);
    let mut s = Sampler::from_seed(12);
    let n = 30_000;
    for i in 0..n {
        let (x, log_w) = proposal.draw_weighted(&mut s);
        // P(Z < 1) − P(Z < −1) assembled from two one-sided estimators
        // would need two sinks; fold |x| instead: P(|Z| < 1).
        inside.observe(i, (x.abs(), log_w));
    }
    let truth = 1.0 - 2.0 * gaussian::tail(1.0);
    assert!((inside.estimate() / truth - 1.0).abs() < 0.05);
}
