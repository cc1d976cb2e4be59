//! Monte Carlo engines.
//!
//! Two levels, mirroring the paper's validation:
//!
//! * **Device level** — sample mismatch, evaluate the electrical metrics
//!   (Table III, Figs. 3-4).
//! * **Circuit level** — [`McFactory`] implements
//!   [`circuits::DeviceFactory`], drawing an independent
//!   [`mosfet::VariationDelta`] per transistor instance so that benchmark
//!   netlists (INV, NAND2, DFF, SRAM) see uncorrelated within-die mismatch
//!   (Figs. 5-9).
//!
//! Either level shards across threads with [`ParallelRunner`] (see
//! [`parallel`]): each worker owns its elaborated sessions, each sample
//! draws from a stream derived purely from `(seed, sample index)`, and the
//! outcome is bit-identical for any worker count. A run has one entry
//! point, [`ParallelRunner::run_streaming_range`], and results leave it one
//! way — streamed to a [`Sink`] (quantile sketch, histogram, incremental
//! CSV, moments, or an explicit [`VecSink`] buffer), which holds O(workers)
//! sample memory however long the run. A whole experiment is the range at
//! offset 0; a disjoint range is a shard, so independent processes/machines
//! combine their [`MergeableSink`] sketches ([`TDigest`], [`Histogram`],
//! [`WelfordSink`], and the importance-sampling [`WeightedMoments`] and
//! [`WeightedHistogram`] fed `(value, log_weight)` records) afterwards. A
//! caller that wants to stop once an estimate is pinned down runs
//! consecutive ranges into one sink and tests the estimate between them.
//! `ARCHITECTURE.md` at the repo root diagrams the data flow.
//!
//! # Example
//!
//! A parallel device-level variance estimate (the circuit-level loops in
//! `vsbench` follow the same shape with benches as worker state):
//!
//! ```
//! use mosfet::{vs::VsParams, Geometry, MismatchSpec, Polarity};
//! use vscore::mc::{ParallelRunner, WelfordSink};
//! use vscore::metrics::DeviceMetrics;
//! use vscore::sensitivity::{VariedModel, VsBuilder};
//!
//! let builder = VsBuilder {
//!     params: VsParams::nmos_40nm(),
//!     polarity: Polarity::Nmos,
//!     geom: Geometry::from_nm(600.0, 40.0),
//! };
//! let spec = MismatchSpec::from_paper_units(2.3, 3.71, 3.71, 944.0, 0.29);
//! let mut idsat = WelfordSink::new();
//! ParallelRunner::new(42)
//!     .workers(2)
//!     .run_streaming_range(
//!         0,
//!         64,
//!         |_w, _s| Ok::<(), std::convert::Infallible>(()),
//!         |(), sampler, _i| {
//!             let delta = spec.sample(builder.geometry(), || sampler.standard_normal());
//!             Ok(DeviceMetrics::evaluate(builder.build(delta).as_ref(), 0.9).idsat)
//!         },
//!         &mut idsat,
//!     )
//!     .unwrap();
//! assert_eq!(idsat.moments().count(), 64);
//! assert!(idsat.moments().std() > 0.0);
//! ```

pub mod parallel;
pub mod shard;

pub use parallel::{ParallelRunner, StreamOutcome};
pub use shard::{plan_shards, Shard};
// The sink vocabulary consumed by `ParallelRunner`, re-exported so Monte
// Carlo call sites need a single import path.
pub use stats::histogram::Histogram;
pub use stats::importance::{
    ExactSum, GaussianProposal, Statistic, WeightedHistogram, WeightedMoments,
};
pub use stats::sink::{CodecError, CsvSink, MergeableSink, Sink, VecSink, WelfordSink};
pub use stats::tdigest::TDigest;

use crate::metrics::DeviceMetrics;
use crate::sensitivity::VariedModel;
use circuits::cells::DeviceFactory;
use mosfet::{
    bsim::{BsimModel, BsimParams},
    vs::{VsModel, VsParams},
    Geometry, MismatchSpec, MosfetModel, Polarity,
};
use stats::{Sampler, Welford};

/// Draws `n` mismatch samples and evaluates the metrics for each.
pub fn device_metric_samples(
    builder: &dyn VariedModel,
    spec: &MismatchSpec,
    vdd: f64,
    n: usize,
    sampler: &mut Sampler,
) -> Vec<DeviceMetrics> {
    let geom = builder.geometry();
    (0..n)
        .map(|_| {
            let delta = spec.sample(geom, || sampler.standard_normal());
            DeviceMetrics::evaluate(builder.build(delta).as_ref(), vdd)
        })
        .collect()
}

/// Streaming moment accumulators for the three metric columns — one pass
/// over the samples, no per-column buffers.
fn column_moments(samples: &[DeviceMetrics]) -> [Welford; 3] {
    let mut acc = [Welford::new(); 3];
    for s in samples {
        let row = s.as_array();
        for (w, &x) in acc.iter_mut().zip(&row) {
            w.push(x);
        }
    }
    acc
}

/// Sample variances of `[Idsat, log10 Ioff, Cgg]`.
///
/// # Panics
///
/// Panics if `samples` has fewer than 2 entries.
pub fn variances(samples: &[DeviceMetrics]) -> [f64; 3] {
    assert!(samples.len() >= 2, "need at least two samples");
    column_moments(samples).map(|w| w.variance())
}

/// Sample means of `[Idsat, log10 Ioff, Cgg]`.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn means(samples: &[DeviceMetrics]) -> [f64; 3] {
    assert!(!samples.is_empty(), "need at least one sample");
    column_moments(samples).map(|w| w.mean())
}

/// Which model family a factory instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelFamily {
    /// The statistical Virtual Source model (fitted parameters + extracted
    /// mismatch).
    Vs,
    /// The golden BSIM-like kit (nominal parameters + foundry truth).
    Bsim,
}

/// Where an [`McFactory`]'s standard-normal mismatch draws come from.
///
/// The default is the factory's internal [`Sampler`]. The rare-event
/// engine swaps in the two other sources: per-dimension mean-shifted
/// proposals for importance sampling (accumulating the exact
/// log-likelihood-ratio weight as draws happen), and pinned literal
/// values for derivative probing of the metric surface.
#[derive(Debug, Clone)]
enum DrawMode {
    /// Plain Monte Carlo: each draw is `sampler.standard_normal()`.
    Random,
    /// Importance sampling: draw `k` comes from `N(shifts[k], 1)` via the
    /// factory sampler, and the exact log-weight of the shifted proposal
    /// accumulates into the factory's pending log-weight.
    Shifted(std::sync::Arc<[f64]>),
    /// Deterministic probing: draw `k` *is* `values[k]`, no randomness.
    Pinned(std::sync::Arc<[f64]>),
}

/// A sampling device factory for circuit-level Monte Carlo.
///
/// Every call to [`DeviceFactory::nmos`]/[`DeviceFactory::pmos`] draws an
/// independent mismatch vector — the within-die assumption of the paper.
/// Construct with [`MismatchSpec::default`] (all zeros) for nominal devices.
///
/// For rare-event runs the factory's standard-normal draws can be
/// redirected: [`McFactory::set_proposal_shifts`] turns every subsequent
/// draw into a mean-shifted importance-sampling proposal (with the exact
/// log-likelihood weight accumulated and collected via
/// [`McFactory::take_log_weight`]), and [`McFactory::set_pinned`] replaces
/// draws with literal values for finite-difference probing of a metric
/// surface. [`McFactory::draws_taken`] counts draws in any mode, which is
/// how an experiment discovers the mismatch dimensionality of a bench.
#[derive(Debug, Clone)]
pub struct McFactory {
    family: ModelFamily,
    vs_nmos: VsParams,
    vs_pmos: VsParams,
    bsim_nmos: BsimParams,
    bsim_pmos: BsimParams,
    spec_nmos: MismatchSpec,
    spec_pmos: MismatchSpec,
    sampler: Sampler,
    mode: DrawMode,
    draws: usize,
    log_weight: f64,
}

impl McFactory {
    /// Factory for the statistical VS model.
    pub fn vs(
        nmos: VsParams,
        pmos: VsParams,
        spec_nmos: MismatchSpec,
        spec_pmos: MismatchSpec,
        sampler: Sampler,
    ) -> Self {
        McFactory {
            family: ModelFamily::Vs,
            vs_nmos: nmos,
            vs_pmos: pmos,
            bsim_nmos: BsimParams::nmos_40nm(),
            bsim_pmos: BsimParams::pmos_40nm(),
            spec_nmos,
            spec_pmos,
            sampler,
            mode: DrawMode::Random,
            draws: 0,
            log_weight: 0.0,
        }
    }

    /// Factory for the golden kit.
    pub fn bsim(
        nmos: BsimParams,
        pmos: BsimParams,
        spec_nmos: MismatchSpec,
        spec_pmos: MismatchSpec,
        sampler: Sampler,
    ) -> Self {
        McFactory {
            family: ModelFamily::Bsim,
            vs_nmos: VsParams::nmos_40nm(),
            vs_pmos: VsParams::pmos_40nm(),
            bsim_nmos: nmos,
            bsim_pmos: pmos,
            spec_nmos,
            spec_pmos,
            sampler,
            mode: DrawMode::Random,
            draws: 0,
            log_weight: 0.0,
        }
    }

    /// Replaces the internal sampler with an externally derived stream —
    /// the [`ParallelRunner`] path: clone a factory template per worker,
    /// then hand each sample its own [`Sampler::stream`]-derived sampler.
    pub fn set_sampler(&mut self, sampler: Sampler) {
        self.sampler = sampler;
    }

    /// Redirects subsequent standard-normal draws through mean-shifted
    /// unit-variance importance-sampling proposals: draw `k` comes from
    /// `N(shifts[k], 1)`, and the exact log-likelihood-ratio weight of the
    /// shifted proposal accumulates until [`McFactory::take_log_weight`]
    /// collects it. Resets the draw counter and pending log-weight, so the
    /// next device build starts the shift vector from dimension 0.
    ///
    /// The shift vector must cover every draw the bench makes — a draw
    /// beyond `shifts.len()` panics, catching a mismatch between the
    /// fitted shift direction and the bench's actual dimensionality
    /// instead of silently recycling shifts.
    pub fn set_proposal_shifts(&mut self, shifts: std::sync::Arc<[f64]>) {
        assert!(
            shifts.iter().all(|s| s.is_finite()),
            "proposal shifts must be finite"
        );
        self.mode = DrawMode::Shifted(shifts);
        self.draws = 0;
        self.log_weight = 0.0;
    }

    /// Replaces subsequent draws with literal pinned values: draw `k`
    /// returns exactly `values[k]` — no randomness, log-weight stays zero.
    /// This is the finite-difference probe mode: evaluate a bench at a
    /// chosen point of the mismatch space (e.g. `±h·e_k` around nominal)
    /// to estimate the gradient of the metric surface. Resets the draw
    /// counter; draws beyond `values.len()` panic.
    pub fn set_pinned(&mut self, values: std::sync::Arc<[f64]>) {
        assert!(
            values.iter().all(|v| v.is_finite()),
            "pinned draw values must be finite"
        );
        self.mode = DrawMode::Pinned(values);
        self.draws = 0;
        self.log_weight = 0.0;
    }

    /// Restores plain random draws from the internal sampler.
    pub fn clear_draw_mode(&mut self) {
        self.mode = DrawMode::Random;
        self.draws = 0;
        self.log_weight = 0.0;
    }

    /// Collects the log-likelihood-ratio weight accumulated since the last
    /// mode change or collection, and rearms for the next sample: the draw
    /// counter returns to 0 (the shift vector restarts at dimension 0) and
    /// the pending log-weight clears. Always exactly `0.0` in random and
    /// pinned modes and for all-zero shifts — the degenerate IS run *is*
    /// plain MC, to the bit.
    pub fn take_log_weight(&mut self) -> f64 {
        self.draws = 0;
        std::mem::replace(&mut self.log_weight, 0.0)
    }

    /// Standard-normal draws consumed since the last mode change or
    /// [`McFactory::take_log_weight`] — the probe for a bench's mismatch
    /// dimensionality (e.g. one 6T SRAM resample = 6 devices × 5
    /// parameters = 30 draws).
    pub fn draws_taken(&self) -> usize {
        self.draws
    }

    /// One standard-normal-equivalent draw routed through the active
    /// `DrawMode`.
    fn draw(&mut self) -> f64 {
        let k = self.draws;
        self.draws += 1;
        match &self.mode {
            DrawMode::Random => self.sampler.standard_normal(),
            DrawMode::Shifted(shifts) => {
                assert!(
                    k < shifts.len(),
                    "bench drew dimension {k} but the proposal shift vector has {} entries",
                    shifts.len()
                );
                let shift = shifts[k];
                let x = shift + self.sampler.standard_normal();
                // Exact log-likelihood ratio of N(0,1) over N(shift,1):
                // ((x-shift)² - x²)/2 — identically 0.0 for a zero shift,
                // so degenerate IS reduces to plain MC bit-exactly.
                let z = x - shift;
                self.log_weight += 0.5 * (z * z - x * x);
                x
            }
            DrawMode::Pinned(values) => {
                assert!(
                    k < values.len(),
                    "bench drew dimension {k} but only {} pinned values were supplied",
                    values.len()
                );
                values[k]
            }
        }
    }
}

impl DeviceFactory for McFactory {
    fn nmos(&mut self, geom: Geometry) -> Box<dyn MosfetModel> {
        let spec = self.spec_nmos;
        let delta = spec.sample(geom, || self.draw());
        match self.family {
            ModelFamily::Vs => Box::new(VsModel::with_variation(
                self.vs_nmos,
                Polarity::Nmos,
                geom,
                delta,
            )),
            ModelFamily::Bsim => Box::new(BsimModel::with_variation(
                self.bsim_nmos,
                Polarity::Nmos,
                geom,
                delta,
            )),
        }
    }

    fn pmos(&mut self, geom: Geometry) -> Box<dyn MosfetModel> {
        let spec = self.spec_pmos;
        let delta = spec.sample(geom, || self.draw());
        match self.family {
            ModelFamily::Vs => Box::new(VsModel::with_variation(
                self.vs_pmos,
                Polarity::Pmos,
                geom,
                delta,
            )),
            ModelFamily::Bsim => Box::new(BsimModel::with_variation(
                self.bsim_pmos,
                Polarity::Pmos,
                geom,
                delta,
            )),
        }
    }

    fn family(&self) -> &'static str {
        match self.family {
            ModelFamily::Vs => "vs",
            ModelFamily::Bsim => "bsim",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sensitivity::VsBuilder;

    const VDD: f64 = 0.9;

    #[test]
    fn metric_sampling_statistics_follow_spec() {
        let builder = VsBuilder {
            params: VsParams::nmos_40nm(),
            polarity: Polarity::Nmos,
            geom: Geometry::from_nm(600.0, 40.0),
        };
        let spec = MismatchSpec::from_paper_units(2.3, 3.71, 3.71, 944.0, 0.29);
        let mut sampler = Sampler::from_seed(3);
        let samples = device_metric_samples(&builder, &spec, VDD, 3000, &mut sampler);
        let v = variances(&samples);
        let predicted = crate::bpv::predict_variances(&builder, &spec, VDD);
        // Monte Carlo variance matches linear propagation within ~15%.
        for (mc, lin) in v.iter().zip(&predicted) {
            assert!(
                (mc / lin - 1.0).abs() < 0.2,
                "MC {mc:.3e} vs linear {lin:.3e}"
            );
        }
    }

    #[test]
    fn zero_spec_is_deterministic() {
        let builder = VsBuilder {
            params: VsParams::nmos_40nm(),
            polarity: Polarity::Nmos,
            geom: Geometry::from_nm(600.0, 40.0),
        };
        let mut sampler = Sampler::from_seed(1);
        let samples =
            device_metric_samples(&builder, &MismatchSpec::default(), VDD, 5, &mut sampler);
        let v = variances(&samples);
        assert!(v.iter().all(|&x| x.abs() < 1e-30));
    }

    #[test]
    fn factory_produces_distinct_devices() {
        let spec = MismatchSpec::from_paper_units(2.3, 3.71, 3.71, 944.0, 0.29);
        let mut f = McFactory::vs(
            VsParams::nmos_40nm(),
            VsParams::pmos_40nm(),
            spec,
            spec,
            Sampler::from_seed(11),
        );
        let g = Geometry::from_nm(300.0, 40.0);
        let a = f.nmos(g);
        let b = f.nmos(g);
        let bias = mosfet::Bias {
            vgs: VDD,
            vds: VDD,
            vbs: 0.0,
        };
        assert_ne!(a.ids(bias), b.ids(bias), "instances must be independent");
        assert_eq!(f.family(), "vs");
    }

    #[test]
    fn reseeded_factories_reproduce() {
        let spec = MismatchSpec::from_paper_units(2.3, 3.71, 3.71, 944.0, 0.29);
        let mk = || {
            McFactory::bsim(
                BsimParams::nmos_40nm(),
                BsimParams::pmos_40nm(),
                spec,
                spec,
                Sampler::from_seed(42),
            )
        };
        let g = Geometry::from_nm(300.0, 40.0);
        let bias = mosfet::Bias {
            vgs: VDD,
            vds: VDD,
            vbs: 0.0,
        };
        let mut f1 = mk();
        let mut f2 = mk();
        assert_eq!(f1.nmos(g).ids(bias), f2.nmos(g).ids(bias));
        assert_eq!(f1.family(), "bsim");
    }

    #[test]
    fn zero_shift_proposal_draws_are_bit_identical_to_plain_mc() {
        let spec = MismatchSpec::from_paper_units(2.3, 3.71, 3.71, 944.0, 0.29);
        let mk = || {
            McFactory::vs(
                VsParams::nmos_40nm(),
                VsParams::pmos_40nm(),
                spec,
                spec,
                Sampler::from_seed(77),
            )
        };
        let g = Geometry::from_nm(300.0, 40.0);
        let bias = mosfet::Bias {
            vgs: VDD,
            vds: VDD,
            vbs: 0.0,
        };
        let mut plain = mk();
        let mut shifted = mk();
        shifted.set_proposal_shifts(std::sync::Arc::from(vec![0.0; 10]));
        let a = plain.nmos(g).ids(bias);
        let b = shifted.nmos(g).ids(bias);
        assert_eq!(a.to_bits(), b.to_bits(), "degenerate IS must be plain MC");
        assert_eq!(shifted.draws_taken(), 5, "one device = 5 mismatch draws");
        assert_eq!(shifted.take_log_weight().to_bits(), 0.0f64.to_bits());
        assert_eq!(shifted.draws_taken(), 0, "collection rearms the counter");
    }

    #[test]
    fn shifted_draws_accumulate_the_exact_log_weight() {
        let spec = MismatchSpec::from_paper_units(2.3, 3.71, 3.71, 944.0, 0.29);
        let mut f = McFactory::vs(
            VsParams::nmos_40nm(),
            VsParams::pmos_40nm(),
            spec,
            spec,
            Sampler::from_seed(5),
        );
        let shifts: Vec<f64> = vec![1.5, -0.5, 0.0, 2.0, 0.25];
        // Reconstruct the expected weight from the same normal stream.
        let mut ref_sampler = Sampler::from_seed(5);
        let mut want = 0.0;
        for &b in &shifts {
            let x = b + ref_sampler.standard_normal();
            want += 0.5 * ((x - b) * (x - b) - x * x);
        }
        f.set_proposal_shifts(std::sync::Arc::from(shifts));
        let _ = f.nmos(Geometry::from_nm(300.0, 40.0));
        assert_eq!(f.take_log_weight().to_bits(), want.to_bits());
        // Second collection without new draws is exactly zero.
        assert_eq!(f.take_log_weight(), 0.0);
    }

    #[test]
    fn pinned_draws_are_deterministic_probes() {
        let spec = MismatchSpec::from_paper_units(2.3, 3.71, 3.71, 944.0, 0.29);
        let mut f = McFactory::vs(
            VsParams::nmos_40nm(),
            VsParams::pmos_40nm(),
            spec,
            spec,
            Sampler::from_seed(1),
        );
        let g = Geometry::from_nm(300.0, 40.0);
        let bias = mosfet::Bias {
            vgs: VDD,
            vds: VDD,
            vbs: 0.0,
        };
        f.set_pinned(std::sync::Arc::from(vec![0.0; 5]));
        let nominal = f.nmos(g).ids(bias);
        f.set_pinned(std::sync::Arc::from(vec![0.0; 5]));
        let again = f.nmos(g).ids(bias);
        assert_eq!(nominal.to_bits(), again.to_bits(), "pinned probes repeat");
        assert_eq!(f.take_log_weight(), 0.0, "probing carries no weight");
        // A Vt0 perturbation moves the current; random draws resume after.
        f.set_pinned(std::sync::Arc::from(vec![3.0, 0.0, 0.0, 0.0, 0.0]));
        let perturbed = f.nmos(g).ids(bias);
        assert_ne!(nominal, perturbed);
        f.clear_draw_mode();
        let random = f.nmos(g).ids(bias);
        assert_ne!(random, nominal);
    }

    #[test]
    #[should_panic(expected = "pinned values were supplied")]
    fn exhausting_pinned_values_panics() {
        let spec = MismatchSpec::from_paper_units(2.3, 3.71, 3.71, 944.0, 0.29);
        let mut f = McFactory::vs(
            VsParams::nmos_40nm(),
            VsParams::pmos_40nm(),
            spec,
            spec,
            Sampler::from_seed(1),
        );
        f.set_pinned(std::sync::Arc::from(vec![0.0; 4])); // one draw short
        let _ = f.nmos(Geometry::from_nm(300.0, 40.0));
    }

    #[test]
    fn means_and_variances_have_matching_shapes() {
        let builder = VsBuilder {
            params: VsParams::nmos_40nm(),
            polarity: Polarity::Nmos,
            geom: Geometry::from_nm(300.0, 40.0),
        };
        let mut sampler = Sampler::from_seed(2);
        let samples = device_metric_samples(
            &builder,
            &MismatchSpec::from_paper_units(2.3, 3.71, 3.71, 944.0, 0.29),
            VDD,
            100,
            &mut sampler,
        );
        let m = means(&samples);
        assert!(m[0] > 0.0 && m[1] < 0.0 && m[2] > 0.0);
    }
}
