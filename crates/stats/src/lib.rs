//! Statistics toolkit for Monte Carlo device and circuit analysis.
//!
//! Everything the paper's validation section needs to *characterize*
//! distributions lives here:
//!
//! * [`sampler`] — seeded RNG plumbing and in-house Gaussian sampling
//!   (Box-Muller, so no extra distribution crates are required), including
//!   the deterministic stream-splitting ([`Sampler::fork`] /
//!   [`Sampler::stream`]) that the parallel Monte Carlo executor relies on.
//! * [`descriptive`] — mean / variance / skewness / kurtosis / quantiles.
//! * [`welford`] — streaming mean/variance accumulation with exact
//!   [`Welford::merge`], for sharded and unbounded Monte Carlo runs.
//! * [`sink`] — streaming result sinks (`Sink` trait, incremental CSV
//!   records, `WelfordSink` moments, opt-in `VecSink` buffering) — the one
//!   way results leave the parallel executor's `run_streaming_range`, so
//!   million-sample sweeps hold O(workers) memory instead of buffering
//!   every value; plus the [`sink::MergeableSink`] trait (merge + byte
//!   round-trip) that lets independent runs combine their sketches.
//! * [`tdigest`] — the mergeable t-digest quantile sketch (Dunning &
//!   Ertl), the workspace's streaming quantile estimator.
//! * [`importance`] — the rare-event engine: shifted/scaled Gaussian
//!   proposals with exact log-likelihood-ratio weights, weighted
//!   mergeable sinks ([`WeightedMoments`], [`WeightedHistogram`]) whose
//!   exact-sum accumulators make shard merges bit-identical across
//!   partitionings, and the Kish ESS diagnostic.
//! * [`gaussian`] — the standard normal pdf / cdf / inverse cdf, plus a
//!   high-precision tail probability [`gaussian::tail`] good to ~1e-14
//!   relative error for validating 5σ+ importance-sampling estimates.
//! * [`histogram`] — fixed-bin histograms with density normalization.
//! * [`kde`] — Gaussian kernel density estimates (the smooth PDF curves in
//!   paper Figs. 5, 7, 8, 9).
//! * [`qq`] — quantile-quantile data against the standard normal (Figs. 7/9),
//!   with a linearity metric to quantify non-Gaussianity.
//! * [`ellipse`] — bivariate mean/covariance and 1/2/3-sigma confidence
//!   ellipses (Fig. 4).
//! * [`codec`] — the compact `[tag, version]` byte encoding behind every
//!   mergeable sketch's wire format, with typed [`codec::CodecError`]s.
//! * [`artifact`] — the persistent artifact container: framed,
//!   checksummed, sealed files of sketch payloads for resumable campaigns
//!   and replay caches.
//!
//! `ARCHITECTURE.md` at the repo root shows how these pieces feed the
//! parallel Monte Carlo executor (`vscore::mc`).
//!
//! # Example
//!
//! ```
//! use stats::sampler::Sampler;
//! use stats::descriptive::Summary;
//!
//! let mut s = Sampler::from_seed(7);
//! let xs: Vec<f64> = (0..4000).map(|_| s.normal(10.0, 2.0)).collect();
//! let sum = Summary::from_slice(&xs);
//! assert!((sum.mean - 10.0).abs() < 0.2);
//! assert!((sum.std - 2.0).abs() < 0.2);
//! ```

pub mod artifact;
pub mod codec;
pub mod corners;
pub mod descriptive;
pub mod ellipse;
pub mod gaussian;
pub mod histogram;
pub mod importance;
pub mod kde;
pub mod qq;
pub mod sampler;
pub mod sink;
pub mod tdigest;
pub mod welford;

pub use descriptive::Summary;
pub use importance::{ExactSum, GaussianProposal, Statistic, WeightedHistogram, WeightedMoments};
pub use sampler::Sampler;
pub use sink::{MergeableSink, Sink};
pub use tdigest::TDigest;
pub use welford::Welford;
