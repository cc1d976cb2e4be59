//! Circuit templates and the pooled-`Session` execution engine.
//!
//! Every experiment the server accepts targets a **circuit template**: a
//! named, pre-registered workload whose topology is elaborated once at
//! server startup into a master [`spice::Session`]. Job execution checks a
//! worker session out of the template's pool (replicating from the master
//! via [`Session::replicate`] only when the pool is empty), runs the
//! requested shard through
//! [`ParallelRunner::run_streaming_range`](vscore::mc::ParallelRunner::run_streaming_range)
//! — per sample: draw the devices, then [`cold_dc_sample`] swaps them in
//! and cold-starts the DC solve from the cell's two-node guess — and
//! returns the session for the next job, so a long-running server pays
//! netlist validation and MNA elaboration once per template, not once per
//! request.
//!
//! Determinism is the protocol's backbone: every sample is a pure function
//! of `(seed, index)` (device draws from the sample's own stream,
//! cold-started solves), so two servers handed disjoint shards of one
//! experiment produce sketch bytes that merge to the same state as a
//! single local run over the union — the property the loopback e2e test
//! pins.

use crate::store::{ExperimentSpec, RunFailure, RunResult};
use circuits::sram::{cold_dc_sample, full_cell, SramDevices, SramSizing};
use mosfet::{vs::VsParams, Geometry, MismatchSpec, Polarity};
use spice::{NodeId, Session, SpiceError};
use stats::histogram::Histogram;
use stats::sink::{Sink, WelfordSink};
use stats::{GaussianProposal, Sampler, TDigest, WeightedHistogram, WeightedMoments};
use std::sync::Mutex;
use vscore::mc::{McFactory, ParallelRunner};
use vscore::metrics::DeviceMetrics;
use vscore::sensitivity::{VariedModel, VsBuilder};

/// Supply voltage shared by the built-in templates (the paper's 0.9 V).
const VDD: f64 = 0.9;

/// Cap on idle pooled sessions per template; replicas beyond this are
/// dropped at check-in instead of accumulating without bound.
const MAX_IDLE_SESSIONS: usize = 8;

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

/// The SRAM template's runtime: master session, metric node ids, and the
/// pool of idle replicas. Boxed inside [`TemplateRuntime`] so session-less
/// template variants stay small.
struct SramRuntime {
    master: Session,
    l: NodeId,
    r: NodeId,
    idle: Mutex<Vec<Session>>,
}

/// Per-template runtime state: the master session (elaborated once at
/// startup) plus the idle-worker pool.
enum TemplateRuntime {
    /// 6T SRAM cell DC operating point; pooled sessions.
    SramDc(Box<SramRuntime>),
    /// Device-level Idsat Monte Carlo; no circuit session needed.
    DeviceIdsat,
    /// Standard-normal tail probability by mean-shift importance
    /// sampling; pure stats, no circuit session needed.
    GaussTail,
}

/// One registered template: the static description plus runtime state.
struct Template {
    info: TemplateInfo,
    runtime: TemplateRuntime,
}

/// The execution engine: the template registry with its session pools.
/// One engine is shared (behind `Arc`) by every server worker thread.
pub struct Engine {
    templates: Vec<Template>,
}

impl Engine {
    /// Builds the engine, elaborating each template's master session.
    /// Startup is the right time to pay (and surface) elaboration cost:
    /// a server that cannot build its circuits must fail to boot, not
    /// fail its first request.
    ///
    /// # Errors
    ///
    /// Propagates [`SpiceError`] from master-session elaboration.
    pub fn new() -> Result<Self, SpiceError> {
        let sz = SramSizing::default();
        let mut f = vs_factory();
        let devices = SramDevices::draw(sz, &mut f);
        let (circuit, l, r) = full_cell(&devices, VDD);
        let master = Session::elaborate(circuit)?;
        Ok(Engine {
            templates: vec![
                Template {
                    info: TemplateInfo {
                        id: "sram6t_dc",
                        description: "6T SRAM cell DC operating point under within-die \
                                      mismatch; metric = right storage node voltage",
                        analyses: &["dc"],
                        unit: "V",
                        default_histogram: (0.0, VDD, 64),
                    },
                    runtime: TemplateRuntime::SramDc(Box::new(SramRuntime {
                        master,
                        l,
                        r,
                        idle: Mutex::new(Vec::new()),
                    })),
                },
                Template {
                    info: TemplateInfo {
                        id: "device_idsat",
                        description: "single 600nm/40nm NMOS saturation current under \
                                      Pelgrom mismatch; metric = Idsat",
                        analyses: &["dc"],
                        unit: "A",
                        default_histogram: (0.0, 2e-3, 64),
                    },
                    runtime: TemplateRuntime::DeviceIdsat,
                },
                Template {
                    info: TemplateInfo {
                        id: "gauss_tail",
                        description: "standard-normal tail probability P(Z > threshold) \
                                      by mean-shift importance sampling; metric = Z \
                                      under the proposal, with exact log-weights",
                        analyses: &["is"],
                        unit: "1",
                        default_histogram: (-4.0, 8.0, 48),
                    },
                    runtime: TemplateRuntime::GaussTail,
                },
            ],
        })
    }

    /// The registered templates, in registration order.
    pub fn templates(&self) -> impl Iterator<Item = &TemplateInfo> {
        self.templates.iter().map(|t| &t.info)
    }

    /// Looks a template up by id.
    #[must_use]
    pub fn template(&self, id: &str) -> Option<&TemplateInfo> {
        self.templates
            .iter()
            .find(|t| t.info.id == id)
            .map(|t| &t.info)
    }

    /// Idle pooled sessions per template (template id, idle count) — a
    /// health metric.
    #[must_use]
    pub fn pool_sizes(&self) -> Vec<(&'static str, usize)> {
        self.templates
            .iter()
            .map(|t| {
                let idle = match &t.runtime {
                    TemplateRuntime::SramDc(rt) => {
                        let idle = &rt.idle;
                        idle.lock().expect("no poisoned locks").len()
                    }
                    TemplateRuntime::DeviceIdsat | TemplateRuntime::GaussTail => 0,
                };
                (t.info.id, idle)
            })
            .collect()
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
    /// a session replication failure is transient (another worker, or a
    /// later attempt with a less loaded pool, can succeed).
    pub fn execute(&self, spec: &ExperimentSpec) -> Result<RunResult, RunFailure> {
        let template = self
            .templates
            .iter()
            .find(|t| t.info.id == spec.circuit)
            .ok_or_else(|| {
                RunFailure::fatal(format!("unknown circuit template `{}`", spec.circuit))
            })?;
        match &template.runtime {
            TemplateRuntime::SramDc(rt) => {
                self.execute_sram(spec, &rt.master, rt.l, rt.r, &rt.idle)
            }
            TemplateRuntime::DeviceIdsat => Ok(execute_device_idsat(spec)),
            TemplateRuntime::GaussTail => Ok(execute_gauss_tail(spec)),
        }
    }

    fn execute_sram(
        &self,
        spec: &ExperimentSpec,
        master: &Session,
        l: NodeId,
        r: NodeId,
        idle: &Mutex<Vec<Session>>,
    ) -> Result<RunResult, RunFailure> {
        // Check a worker session out of the pool; replicate from the
        // master only when the pool is dry (first request, or more
        // concurrent jobs than ever before).
        let pooled = idle.lock().expect("no poisoned locks").pop();
        let session = match pooled {
            Some(s) => s,
            None => master
                .replicate()
                .map_err(|e| RunFailure::transient(format!("session replication failed: {e}")))?,
        };

        let sz = SramSizing::default();
        let factory = vs_factory();
        let cell = Mutex::new(session);
        let sample = |(): &mut (), sampler: &mut Sampler, _i: usize| {
            let mut f = factory.clone();
            f.set_sampler(sampler.clone());
            let devices = SramDevices::draw(sz, &mut f);
            // Cold-start every sample from the guess, so it stays a pure
            // function of `(seed, index)` — what makes shards posted to
            // different servers merge bit-identically with a single run.
            let mut session = cell.lock().expect("no poisoned locks");
            cold_dc_sample(&mut session, devices, l, r, VDD)
        };

        let mut sinks = SinkSet::for_spec(spec);
        let outcome = ParallelRunner::new(spec.seed)
            .workers(1)
            .run_streaming_range(
                spec.offset,
                spec.len,
                |_, _| Ok::<(), SpiceError>(()),
                sample,
                &mut sinks,
            )
            .expect("SRAM shard setup is infallible");

        // Return the session for the next job (bounded pool).
        let session = cell.into_inner().expect("no poisoned locks");
        let mut pool = idle.lock().expect("no poisoned locks");
        if pool.len() < MAX_IDLE_SESSIONS {
            pool.push(session);
        }
        drop(pool);

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
    use stats::sink::MergeableSink;

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

    #[test]
    fn sram_pool_reuses_sessions_across_jobs() {
        let engine = Engine::new().expect("templates elaborate");
        assert_eq!(
            engine.pool_sizes(),
            vec![("sram6t_dc", 0), ("device_idsat", 0), ("gauss_tail", 0)]
        );
        let r1 = engine.execute(&spec("sram6t_dc", 3, 0, 8)).unwrap();
        assert_eq!(
            engine.pool_sizes()[0],
            ("sram6t_dc", 1),
            "the session returned to the pool"
        );
        let r2 = engine.execute(&spec("sram6t_dc", 3, 0, 8)).unwrap();
        // A pooled (reused) session reproduces the fresh session's run
        // bit-for-bit: every sample is cold-started pure (seed, i).
        assert_eq!(r1.welford_bytes, r2.welford_bytes);
        assert_eq!(r1.histogram_bytes, r2.histogram_bytes);
        assert_eq!(engine.pool_sizes()[0], ("sram6t_dc", 1));
    }

    #[test]
    fn unknown_template_is_an_error_not_a_panic() {
        let engine = Engine::new().expect("templates elaborate");
        let err = engine.execute(&spec("nope", 1, 0, 10)).unwrap_err();
        assert!(err.message.contains("unknown circuit template"));
        assert!(!err.retryable, "a registry miss recurs on every retry");
    }
}
