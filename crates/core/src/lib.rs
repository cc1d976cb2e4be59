//! The statistical Virtual Source model: the paper's contribution.
//!
//! This crate implements the complete flow of *"Statistical Modeling with
//! the Virtual Source MOSFET Model"* (Yu et al., DATE 2013):
//!
//! 1. [`kit`] — the "golden" design kit facade: nominal BSIM-like devices
//!    plus hidden foundry-truth mismatch; it emits nominal I-V data and
//!    Monte Carlo metric variances, exactly the artifacts a real proprietary
//!    kit exposes to a modeling team.
//! 2. [`fit`] — nominal VS parameter extraction against the kit's I-V
//!    curves via Levenberg-Marquardt (paper Fig. 1).
//! 3. [`metrics`] — the chosen electrical metrics
//!    `e_i = {Idsat, log10 Ioff, Cgg@Vdd}` (Gaussian-friendly, per
//!    Section III of the paper).
//! 4. [`sensitivity`] — finite-difference sensitivities `∂e_i/∂p_j` of the
//!    VS model with respect to the statistical parameter set.
//! 5. [`bpv`] — **backward propagation of variance**: the stacked system of
//!    paper Eq. (10), solved jointly across geometries (non-negative least
//!    squares) and per-geometry (paper Fig. 2), with the `α2 = α3` LER
//!    constraint and directly-measured `σ_Cinv`.
//! 6. [`mc`] — Monte Carlo engines: device-level metric sampling, the
//!    circuit-level [`mc::McFactory`] that plugs sampled devices into the
//!    benchmark circuits, and [`mc::ParallelRunner`] — the deterministic,
//!    work-sharded executor that spreads either level across every
//!    available core with bit-identical results for any worker count.
//!
//! `ARCHITECTURE.md` at the repo root diagrams the crate graph and the
//! parallel Monte Carlo data flow.
//!
//! # Quickstart
//!
//! ```no_run
//! use vscore::pipeline::{extract_statistical_vs_model, ExtractionConfig};
//!
//! let report = extract_statistical_vs_model(&ExtractionConfig::default())
//!     .expect("extraction converges");
//! println!("extracted NMOS alphas: {:?}", report.nmos.extracted.to_paper_units());
//! ```

pub mod bpv;
pub mod fit;
pub mod kit;
pub mod mc;
pub mod metrics;
pub mod pipeline;
pub mod sensitivity;
pub mod verilog_a;

pub use kit::GoldenKit;
pub use metrics::DeviceMetrics;
