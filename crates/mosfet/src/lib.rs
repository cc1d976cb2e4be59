//! Compact MOSFET models for statistical circuit simulation.
//!
//! Two independent transistor models, sharing one trait:
//!
//! * [`vs`] — the MIT **Virtual Source (VS)** model (Khakifirooz et al.,
//!   IEEE TED 2009): an ultra-compact, charge-based description of
//!   quasi-ballistic transport. This is the model the paper extends
//!   statistically.
//! * [`bsim`] — a **BSIM4-like drift-diffusion velocity-saturation** model
//!   standing in for the paper's proprietary 40-nm industrial design kit
//!   (the "golden" reference). It is deliberately a different physical
//!   formulation, so VS-vs-golden comparisons exercise real model mismatch.
//!
//! Both models write their core equations once, generic over
//! [`dual::Scalar`]: evaluated on `f64` they give currents and charges,
//! evaluated on [`dual::Dual`] numbers they give the exact conductances and
//! capacitances a circuit simulator stamps ([`MosfetModel::eval_dc`],
//! [`MosfetModel::eval_charges`]) — the automatic differentiation a
//! Verilog-A compiler performs for the paper's implementation.
//!
//! Per-instance mismatch enters through [`variation::VariationDelta`]
//! (additive perturbations of the statistical parameter set of Table I of
//! the paper: `VT0`, `Leff`, `Weff`, `µ`, `Cinv`), generated from a Pelgrom
//! area-scaling [`variation::MismatchSpec`].
//!
//! Model instances are plain data behind the `Send + Sync`
//! [`MosfetModel`] trait, so elaborated circuits cross thread boundaries
//! freely (see `ARCHITECTURE.md` at the repo root for where this crate
//! sits in the workspace).
//!
//! # Example
//!
//! ```
//! use mosfet::{vs::VsModel, Bias, Geometry, MosfetModel, Polarity};
//!
//! let nmos = VsModel::nominal_nmos_40nm(Geometry::from_nm(600.0, 40.0));
//! let id = nmos.ids(Bias { vgs: 0.9, vds: 0.9, vbs: 0.0 });
//! assert!(id > 0.0);
//! assert_eq!(nmos.polarity(), Polarity::Nmos);
//! ```

pub mod bsim;
pub mod dual;
pub mod model;
pub mod types;
pub mod variation;
pub mod vs;

pub use model::{Bias, ChargeEval, Charges, DcEval, MosfetModel};
pub use types::{Geometry, Polarity, PHI_T};
pub use variation::{MismatchSpec, StatParam, VariationDelta};
