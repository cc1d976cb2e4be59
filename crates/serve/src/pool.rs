//! Circuit templates and the execution engine.
//!
//! Every experiment the server accepts targets a **circuit template**: a
//! named, pre-registered workload listed in a static table. The
//! `sram6t_dc` template's cell — a [`full_cell`] of nominal VS devices —
//! is built, elaborated and solved from its `(l, 0)`/`(r, VDD)` guess
//! once at server startup, so a cell that cannot elaborate or converge
//! fails the boot. Each job runs its shard through
//! [`ParallelRunner::run_streaming_range`](vscore::mc::ParallelRunner::run_streaming_range),
//! whose setup closure elaborates the job's own [`spice::Session`] from
//! that cell; per sample, the devices are drawn and [`dc_sample_from`]
//! swaps them in and starts Newton from the nominal cell's operating
//! point, falling back to the guessed solve. No session outlives its job.
//!
//! Determinism is the protocol's backbone: every sample is a pure function
//! of `(seed, index)` (device draws from the sample's own stream, solves
//! from a start fixed by the template), so two servers handed disjoint
//! shards of one experiment produce sketch bytes that merge to the same
//! state as a single local run over the union — the property the loopback
//! e2e test pins.

use crate::store::{ExperimentSpec, RunFailure, RunResult};
use circuits::cells::NominalVsFactory;
use circuits::sram::{dc_sample_from, full_cell, SramDevices, SramSizing};
use mosfet::{vs::VsParams, Geometry, MismatchSpec, Polarity};
use spice::{Circuit, NodeId, Session, SpiceError};
use stats::histogram::Histogram;
use stats::sink::{Sink, WelfordSink};
use stats::{GaussianProposal, Sampler, TDigest, WeightedHistogram, WeightedMoments};
use vscore::mc::{McFactory, ParallelRunner};
use vscore::metrics::DeviceMetrics;
use vscore::sensitivity::{VariedModel, VsBuilder};

/// Supply voltage shared by the built-in templates (the paper's 0.9 V).
const VDD: f64 = 0.9;

/// The paper-units mismatch specification every built-in template draws
/// from (Table II: `A_VT` 2.3 mV·µm, `A_alpha2/3` 3.71 %·µm, `A_beta`
/// 944 %·µm on a 0.29 correlation).
fn paper_spec() -> MismatchSpec {
    MismatchSpec::from_paper_units(2.3, 3.71, 3.71, 944.0, 0.29)
}

/// The circuit-level Monte Carlo device factory for the VS model at the
/// paper's 40 nm operating point. The embedded sampler seed is irrelevant:
/// every sample replaces it with the pure `(seed, index)` stream.
fn vs_factory() -> McFactory {
    McFactory::vs(
        VsParams::nmos_40nm(),
        VsParams::pmos_40nm(),
        paper_spec(),
        paper_spec(),
        Sampler::from_seed(0),
    )
}

/// Static description of one registered template, served by
/// `GET /circuits`.
#[derive(Debug, Clone)]
pub struct TemplateInfo {
    /// Stable template id, used as the spec's `circuit` field.
    pub id: &'static str,
    /// What one sample computes.
    pub description: &'static str,
    /// The analysis kinds the template supports (spec `analysis` field).
    pub analyses: &'static [&'static str],
    /// Physical unit of the scalar metric.
    pub unit: &'static str,
    /// Default `(lo, hi, bins)` for the histogram sink, chosen to bracket
    /// the metric's distribution.
    pub default_histogram: (f64, f64, usize),
}

/// The template registry, in registration order; [`Engine::execute`]
/// dispatches on the same ids.
static TEMPLATES: [TemplateInfo; 3] = [
    TemplateInfo {
        id: "sram6t_dc",
        description: "6T SRAM cell DC operating point under within-die \
                      mismatch; metric = right storage node voltage",
        analyses: &["dc"],
        unit: "V",
        default_histogram: (0.0, VDD, 64),
    },
    TemplateInfo {
        id: "device_idsat",
        description: "single 600nm/40nm NMOS saturation current under \
                      Pelgrom mismatch; metric = Idsat",
        analyses: &["dc"],
        unit: "A",
        default_histogram: (0.0, 2e-3, 64),
    },
    TemplateInfo {
        id: "gauss_tail",
        description: "standard-normal tail probability P(Z > threshold) \
                      by mean-shift importance sampling; metric = Z \
                      under the proposal, with exact log-weights",
        analyses: &["is"],
        unit: "1",
        default_histogram: (-4.0, 8.0, 48),
    },
];

/// The execution engine: the template registry plus the `sram6t_dc`
/// cell every SRAM job elaborates its session from, and that cell's
/// operating point every SRAM sample starts from. One engine is shared
/// (behind `Arc`) by every server worker thread.
pub struct Engine {
    /// The 6T cell of nominal VS devices, wired by [`full_cell`].
    cell: Circuit,
    /// Its left and right storage nodes.
    l: NodeId,
    r: NodeId,
    /// The cell's solution vector in the `(l, 0)`/`(r, VDD)` state.
    op: Vec<f64>,
}

impl Engine {
    /// Builds the engine, elaborates the SRAM cell once and solves its
    /// nominal operating point. Startup is the right time to surface
    /// these errors: a server that cannot build its circuits must fail to
    /// boot, not fail its first request.
    ///
    /// # Errors
    ///
    /// Propagates [`SpiceError`] from elaborating or solving the cell.
    pub fn new() -> Result<Self, SpiceError> {
        let devices = SramDevices::draw(SramSizing::default(), &mut NominalVsFactory);
        let (cell, l, r) = full_cell(&devices, VDD);
        let op = Session::elaborate(cell.clone())?
            .dc_owned_with_guess(&[(l, 0.0), (r, VDD)])?
            .raw()
            .to_vec();
        Ok(Engine { cell, l, r, op })
    }

    /// The registered templates, in registration order.
    pub fn templates(&self) -> impl Iterator<Item = &TemplateInfo> {
        TEMPLATES.iter()
    }

    /// Looks a template up by id.
    #[must_use]
    pub fn template(&self, id: &str) -> Option<&TemplateInfo> {
        TEMPLATES.iter().find(|t| t.id == id)
    }

    /// Executes one experiment shard to completion, streaming into the
    /// spec's requested sinks. Per-sample solver failures (extreme
    /// mismatch draws that do not converge) are counted, not fatal —
    /// exactly as every Monte Carlo path in this workspace counts them.
    ///
    /// # Errors
    ///
    /// A [`RunFailure`] when the shard cannot run at all, classified for
    /// the coordinator: an unknown template (already rejected at spec
    /// validation, so only a registry drift can reach here) is fatal —
    /// re-issuing the identical shard anywhere fails the same way — while
    /// a session elaboration failure is transient (another worker, or a
    /// later attempt, can succeed).
    pub fn execute(&self, spec: &ExperimentSpec) -> Result<RunResult, RunFailure> {
        match spec.circuit.as_str() {
            "sram6t_dc" => self.execute_sram(spec),
            "device_idsat" => Ok(execute_device_idsat(spec)),
            "gauss_tail" => Ok(execute_gauss_tail(spec)),
            other => Err(RunFailure::fatal(format!(
                "unknown circuit template `{other}`"
            ))),
        }
    }

    /// The SRAM template: the job elaborates its own session from the
    /// engine's cell in the runner's setup closure, and every sample
    /// starts from the engine's nominal operating point, which the
    /// template alone fixes, so it stays a pure function of
    /// `(seed, index)` — what makes shards posted to different servers
    /// merge bit-identically with a single run.
    fn execute_sram(&self, spec: &ExperimentSpec) -> Result<RunResult, RunFailure> {
        let sz = SramSizing::default();
        let factory = vs_factory();
        let sample = |session: &mut Session, sampler: &mut Sampler, _i: usize| {
            let mut f = factory.clone();
            f.set_sampler(sampler.clone());
            let devices = SramDevices::draw(sz, &mut f);
            dc_sample_from(session, devices, &self.op, self.l, self.r, VDD)
        };

        let mut sinks = SinkSet::for_spec(spec);
        let outcome = ParallelRunner::new(spec.seed)
            .workers(1)
            .run_streaming_range(
                spec.offset,
                spec.len,
                |_, _| Session::elaborate(self.cell.clone()),
                sample,
                &mut sinks,
            )
            .map_err(|e| RunFailure::transient(format!("session elaboration failed: {e}")))?;
        Ok(RunResult::collect(
            outcome.observed as u64,
            outcome.failures as u64,
            spec,
            sinks,
        ))
    }
}

/// The device-level template: no session, every sample evaluates a
/// mismatch-drawn VS device directly (the `fleet_merge` example's
/// workload).
fn execute_device_idsat(spec: &ExperimentSpec) -> RunResult {
    let builder = VsBuilder {
        params: VsParams::nmos_40nm(),
        polarity: Polarity::Nmos,
        geom: Geometry::from_nm(600.0, 40.0),
    };
    let mismatch = paper_spec();
    let sample = move |(): &mut (), sampler: &mut Sampler, _i: usize| {
        let delta = mismatch.sample(builder.geometry(), || sampler.standard_normal());
        Ok::<f64, SpiceError>(DeviceMetrics::evaluate(builder.build(delta).as_ref(), VDD).idsat)
    };
    let mut sinks = SinkSet::for_spec(spec);
    let outcome = ParallelRunner::new(spec.seed)
        .workers(1)
        .run_streaming_range(spec.offset, spec.len, |_, _| Ok(()), sample, &mut sinks)
        .expect("device workload setup is infallible");
    RunResult::collect(
        outcome.observed as u64,
        outcome.failures as u64,
        spec,
        sinks,
    )
}

/// The importance-sampled template: every sample draws from the spec's
/// mean-shift/scale Gaussian proposal and carries the exact
/// log-likelihood-ratio weight; the weighted sinks estimate nominal
/// `N(0, 1)` statistics. Each `(value, log-weight)` record is a pure
/// function of `(seed, index)`, so disjoint shards merge bit-identically
/// with a single run over the union — the same determinism contract as
/// the circuit templates, extended through the weighted codec.
fn execute_gauss_tail(spec: &ExperimentSpec) -> RunResult {
    let (shift, scale) = spec.proposal;
    let proposal = GaussianProposal::new(shift, scale);
    let mut sinks = ImportanceSinkSet::for_spec(spec);
    let outcome = ParallelRunner::new(spec.seed)
        .workers(1)
        .run_streaming_range(
            spec.offset,
            spec.len,
            |_, _| Ok::<(), SpiceError>(()),
            |(), sampler, _i| Ok(proposal.draw_weighted(sampler)),
            &mut sinks,
        )
        .expect("gauss_tail workload setup is infallible");
    RunResult::collect_weighted(
        outcome.observed as u64,
        outcome.failures as u64,
        spec,
        sinks,
    )
}

/// The per-run weighted sink bundle for importance-sampled templates:
/// the tail estimator always (it feeds the run report), the weighted
/// histogram only when its payload is requested.
pub struct ImportanceSinkSet {
    /// Always-on nominal-tail estimator `P(X > threshold)`.
    pub moments: WeightedMoments,
    /// Weighted histogram of the nominal distribution, when requested.
    pub histogram: Option<WeightedHistogram>,
}

impl ImportanceSinkSet {
    /// Builds the bundle a spec asked for.
    #[must_use]
    pub fn for_spec(spec: &ExperimentSpec) -> Self {
        let (lo, hi, bins) = spec.histogram;
        ImportanceSinkSet {
            moments: WeightedMoments::above(spec.threshold),
            histogram: spec
                .want_whistogram
                .then(|| WeightedHistogram::new(lo, hi, bins)),
        }
    }
}

impl Sink<(f64, f64)> for ImportanceSinkSet {
    fn observe(&mut self, index: usize, record: (f64, f64)) {
        self.moments.observe(index, record);
        if let Some(h) = &mut self.histogram {
            h.observe(index, record);
        }
    }

    fn finish(&mut self) {
        Sink::finish(&mut self.moments);
        if let Some(h) = &mut self.histogram {
            Sink::finish(h);
        }
    }
}

/// The per-run sink bundle: moments always (they feed the run report),
/// histogram and t-digest only when the spec requests those payloads.
/// One concrete type avoids a combinatorial explosion of tuple sinks.
pub struct SinkSet {
    /// Always-on moment accumulator.
    pub welford: WelfordSink,
    /// Fixed-bin histogram, when requested.
    pub histogram: Option<Histogram>,
    /// Mergeable quantile sketch, when requested.
    pub tdigest: Option<TDigest>,
}

impl SinkSet {
    /// Builds the bundle a spec asked for.
    #[must_use]
    pub fn for_spec(spec: &ExperimentSpec) -> Self {
        let (lo, hi, bins) = spec.histogram;
        SinkSet {
            welford: WelfordSink::new(),
            histogram: spec.want_histogram.then(|| Histogram::new(lo, hi, bins)),
            tdigest: spec
                .want_tdigest
                .then(|| TDigest::new(spec.tdigest_compression)),
        }
    }
}

impl Sink for SinkSet {
    fn observe(&mut self, index: usize, value: f64) {
        self.welford.observe(index, value);
        if let Some(h) = &mut self.histogram {
            h.observe(index, value);
        }
        if let Some(d) = &mut self.tdigest {
            d.observe(index, value);
        }
    }

    fn finish(&mut self) {
        self.welford.finish();
        if let Some(h) = &mut self.histogram {
            Sink::finish(h);
        }
        if let Some(d) = &mut self.tdigest {
            d.finish();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ExperimentSpec;
    use stats::sink::{MergeableSink, VecSink};

    fn spec(circuit: &str, seed: u64, offset: usize, len: usize) -> ExperimentSpec {
        ExperimentSpec {
            circuit: circuit.to_string(),
            analysis: "dc".to_string(),
            seed,
            offset,
            len,
            total: None,
            want_welford: true,
            want_histogram: true,
            want_tdigest: true,
            histogram: (0.0, 1.0, 16),
            tdigest_compression: 100.0,
            proposal: (0.0, 1.0),
            threshold: 3.0,
            want_wmoments: false,
            want_whistogram: false,
        }
    }

    fn is_spec(seed: u64, offset: usize, len: usize) -> ExperimentSpec {
        ExperimentSpec {
            circuit: "gauss_tail".to_string(),
            analysis: "is".to_string(),
            seed,
            offset,
            len,
            total: None,
            want_welford: false,
            want_histogram: false,
            want_tdigest: false,
            histogram: (-4.0, 8.0, 48),
            tdigest_compression: 100.0,
            proposal: (4.0, 1.0),
            threshold: 4.0,
            want_wmoments: true,
            want_whistogram: true,
        }
    }

    #[test]
    fn registry_exposes_both_templates() {
        let engine = Engine::new().expect("templates elaborate");
        let ids: Vec<_> = engine.templates().map(|t| t.id).collect();
        assert_eq!(ids, vec!["sram6t_dc", "device_idsat", "gauss_tail"]);
        assert!(engine.template("sram6t_dc").is_some());
        assert!(engine.template("nope").is_none());
        // `execute` dispatches on the ids the registry lists.
        for t in engine.templates() {
            assert!(engine.execute(&spec(t.id, 1, 0, 2)).is_ok(), "{}", t.id);
        }
    }

    #[test]
    fn device_shards_merge_to_the_single_run() {
        let engine = Engine::new().expect("templates elaborate");
        let a = engine.execute(&spec("device_idsat", 7, 0, 300)).unwrap();
        let b = engine.execute(&spec("device_idsat", 7, 300, 200)).unwrap();
        let whole = engine.execute(&spec("device_idsat", 7, 0, 500)).unwrap();

        let mut h = Histogram::from_bytes(&a.histogram_bytes.clone().unwrap()).unwrap();
        h.try_merge_from(&Histogram::from_bytes(&b.histogram_bytes.clone().unwrap()).unwrap())
            .unwrap();
        let href = Histogram::from_bytes(&whole.histogram_bytes.clone().unwrap()).unwrap();
        assert_eq!(h.counts(), href.counts());
        assert_eq!(a.observed + b.observed, whole.observed);
    }

    #[test]
    fn weighted_shards_merge_bit_identically_to_the_single_run() {
        let engine = Engine::new().expect("templates elaborate");
        // Three uneven partitions of the same 900-sample experiment.
        let whole = engine.execute(&is_spec(21, 0, 900)).unwrap();
        let a = engine.execute(&is_spec(21, 0, 137)).unwrap();
        let b = engine.execute(&is_spec(21, 137, 563)).unwrap();
        let c = engine.execute(&is_spec(21, 700, 200)).unwrap();

        let mut m = WeightedMoments::from_bytes(a.wmoments_bytes.as_ref().unwrap()).unwrap();
        for shard in [&b, &c] {
            m.try_merge_from(
                &WeightedMoments::from_bytes(shard.wmoments_bytes.as_ref().unwrap()).unwrap(),
            )
            .unwrap();
        }
        assert_eq!(m.to_bytes(), whole.wmoments_bytes.clone().unwrap());

        let mut h = WeightedHistogram::from_bytes(a.whistogram_bytes.as_ref().unwrap()).unwrap();
        for shard in [&b, &c] {
            h.try_merge_from(
                &WeightedHistogram::from_bytes(shard.whistogram_bytes.as_ref().unwrap()).unwrap(),
            )
            .unwrap();
        }
        assert_eq!(h.to_bytes(), whole.whistogram_bytes.clone().unwrap());

        // And the merged estimator resolves the analytic 4-sigma tail.
        let truth = stats::gaussian::tail(4.0);
        assert!((m.estimate() / truth - 1.0).abs() < 0.3);
        assert_eq!(whole.mean, m.estimate());
        // Mismatched thresholds refuse to merge instead of corrupting.
        let mut other = engine.execute(&is_spec(21, 0, 10)).unwrap();
        other.wmoments_bytes = None;
        let mut wrong = is_spec(21, 0, 10);
        wrong.threshold = 3.0;
        let wrong = engine.execute(&wrong).unwrap();
        assert!(m
            .try_merge_from(
                &WeightedMoments::from_bytes(wrong.wmoments_bytes.as_ref().unwrap()).unwrap()
            )
            .is_err());
    }

    /// A shard's result is a pure function of its spec: re-executing it
    /// after the engine ran another seed at another offset returns the
    /// same result, bit for bit.
    #[test]
    fn sram_shards_are_pure_functions_of_the_spec() {
        let engine = Engine::new().expect("templates elaborate");
        let first = engine.execute(&spec("sram6t_dc", 3, 0, 8)).unwrap();
        engine.execute(&spec("sram6t_dc", 4, 64, 8)).unwrap();
        let again = engine.execute(&spec("sram6t_dc", 3, 0, 8)).unwrap();
        assert_eq!(first, again);
        assert_eq!(first.observed + first.failures, 8);
    }

    /// Starting from the nominal operating point moves a served sample by
    /// solver tolerance only: over 2,000 paper-spec cells it lands in the
    /// storage state of the guessed solve, within 1e-5 V of it.
    #[test]
    fn nominal_start_agrees_with_the_guessed_solve() {
        let engine = Engine::new().expect("templates elaborate");
        let (l, r) = (engine.l, engine.r);
        let factory = vs_factory();
        let draw = |sampler: &Sampler| {
            let mut f = factory.clone();
            f.set_sampler(sampler.clone());
            SramDevices::draw(SramSizing::default(), &mut f)
        };
        let sample = |session: &mut Session, sampler: &mut Sampler, _i: usize| {
            let from = dc_sample_from(session, draw(sampler), &engine.op, l, r, VDD)?;
            draw(sampler).swap_into(session)?;
            let guessed = session.dc_owned_with_guess(&[(l, 0.0), (r, VDD)])?;
            Ok::<_, SpiceError>((from, guessed.voltage(r)))
        };
        let mut pairs = VecSink::new();
        let outcome = ParallelRunner::new(19)
            .workers(1)
            .run_streaming_range(
                0,
                2_000,
                |_, _| Session::elaborate(engine.cell.clone()),
                sample,
                &mut pairs,
            )
            .expect("the cell elaborates");
        assert_eq!((outcome.observed, outcome.failures), (2_000, 0));
        for &(i, (from, guessed)) in pairs.records() {
            assert_eq!(from > VDD / 2.0, guessed > VDD / 2.0, "sample {i}");
            assert!(
                (from - guessed).abs() <= 1e-5,
                "sample {i}: {from} vs {guessed}"
            );
        }
    }

    #[test]
    fn unknown_template_is_an_error_not_a_panic() {
        let engine = Engine::new().expect("templates elaborate");
        let err = engine.execute(&spec("nope", 1, 0, 10)).unwrap_err();
        assert!(err.message.contains("unknown circuit template"));
        assert!(!err.retryable, "a registry miss recurs on every retry");
    }
}
