//! A session-based SPICE-class circuit simulator built on modified nodal
//! analysis.
//!
//! The paper validates its statistical VS model with SPICE-level Monte Carlo
//! on standard cells, a D flip-flop, and a 6T SRAM cell — thousands of
//! solves of the *same topology* with resampled device parameters. The
//! crate is organized around that workload:
//!
//! 1. **Build** a [`Circuit`]: netlists of resistors, capacitors,
//!    independent sources, and compact-model MOSFETs (any
//!    [`mosfet::MosfetModel`]).
//! 2. **Elaborate once** into a [`Session`]: validation, node/branch
//!    layout, the Newton unknown order (see [`engine`]), workspace and LU
//!    scratch allocation all happen a single time.
//! 3. **Run many analyses** against the session — [`Session::dc_owned`],
//!    [`Session::dc_sweep_owned`], [`Session::tran_owned`] and
//!    [`Session::ac_owned`] each return their result by value; the session
//!    keeps no results of its own. AC and transient runs take the
//!    [`DcResult`] a DC entry point returned, so only the DC entry points
//!    choose where Newton starts.
//! 4. **Resample in place** for Monte Carlo: [`Session::swap_devices`] /
//!    [`Session::swap_all_mosfets`] replace MOSFET instances without
//!    re-parsing or re-elaborating. [`Session::dc_owned_from`] starts
//!    Newton from a caller-held vector (served samples pass the nominal
//!    cell's operating point, AC Monte Carlo its bench's construction
//!    cell's, with their guess); [`Session::dc_owned`] and a guessed solve
//!    start from nothing, and no DC entry point reads what an earlier
//!    call left in the session. Every DC entry point
//!    gets its operating point from one solve: plain Newton from the
//!    starts it names, then one continuation ladder, and once the starts
//!    fail, exactly the solve without them (see [`session`]).
//!    [`Session::dc_batch`] solves a list of mismatch lanes one after
//!    another through the same DC solver, leaving the session's devices
//!    as it found them. Every AC sweep reuses one cached complex
//!    workspace.
//!
//! Analyses: nonlinear DC operating point (damped Newton-Raphson with gmin
//! and source-stepping continuation), DC sweeps whose first point starts
//! from the caller's node guess (a butterfly puts its outputs at the
//! supply rail there) and whose later points start from a cubic Hermite
//! prediction over the slopes `dx/dv` of the two before it, read from
//! each point's converged Newton LU (butterfly curves, VTCs), transient
//! (trapezoidal with backward-Euler startup, charge-conserving companion
//! models), AC small-signal sweeps, plus [`measure`] helpers (level
//! crossings and the first crossing after a time). All of them read one
//! linearization of every element, in [`engine`].
//!
//! Accessor naming across result types: scalar-per-node accessors are
//! singular ([`DcResult::voltage`]); trace accessors are plural
//! ([`SweepResult::voltages`], [`TranResult::voltages`],
//! [`ac::AcResult::magnitudes`]).
//!
//! # Example
//!
//! ```
//! use spice::{Circuit, Session, Waveform};
//!
//! # fn main() -> Result<(), spice::SpiceError> {
//! // A resistive divider: 1 V across two 1 kΩ resistors.
//! let mut c = Circuit::new();
//! let vin = c.node("in");
//! let mid = c.node("mid");
//! c.vsource("V1", vin, Circuit::GROUND, Waveform::dc(1.0));
//! c.resistor("R1", vin, mid, 1e3);
//! c.resistor("R2", mid, Circuit::GROUND, 1e3);
//!
//! // Elaborate once; run as many analyses as needed.
//! let mut s = Session::elaborate(c)?;
//! let op = s.dc_owned()?;
//! assert!((op.voltage(mid) - 0.5).abs() < 1e-9);
//! let sweep = s.dc_sweep_owned("V1", &[0.0, 1.0, 2.0], &[])?;
//! assert!((sweep.voltages(mid)[2] - 1.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```
//!
//! The pre-0.2 one-shot methods on `Circuit` (`dc_op`, `dc_sweep`, `tran`,
//! `ac_sweep`, and the singular trace accessors) were deprecated in 0.2
//! and removed in 0.3; elaborate a [`Session`] instead.
//!
//! Sessions are `Send`: each worker of the parallel Monte Carlo executor
//! in the `vscore` crate elaborates its own session from a cloned
//! [`Circuit`] in its setup closure. `ARCHITECTURE.md` at the
//! repo root diagrams the crate graph, the session lifecycle, and the
//! parallel Monte Carlo data flow.

pub mod ac;
pub mod dc;
pub mod elements;
pub mod engine;
pub mod error;
pub mod measure;
pub mod netlist;
pub mod parser;
pub mod session;
pub mod tran;
pub mod waveform;

/// The numerics epoch as a literal, for [`NUMERICS_EPOCH`] and
/// [`ENGINE_FINGERPRINT`].
macro_rules! numerics_epoch {
    () => {
        3
    };
}

/// Bumped by every change that can move the bits of a result `serve`
/// returns or a store keeps (replay-cache entries, campaign shards) —
/// device derivatives, stamp order, solver tolerances, solver start points
/// — even by one ulp. A change that moves only results nothing serves or
/// stores, such as transients or extraction outputs, keeps the epoch.
/// Epoch 1: exact dual-number device derivatives replaced forward
/// differences. Epoch 2: served `sram6t_dc` samples start Newton from the
/// nominal cell's operating point instead of a two-node guess. Epoch 3:
/// each Newton iteration factors only the unknowns no grounded voltage
/// source pins (see [`engine`]), which rounds served `sram6t_dc` results
/// differently in the last bits.
pub const NUMERICS_EPOCH: u32 = numerics_epoch!();

/// Identity of the engine that computes results: the workspace version
/// and [`NUMERICS_EPOCH`]. Every stored artifact's key includes it
/// (serve's replay-cache entries and fleet's campaign shards), so bytes
/// another engine computed are recomputed rather than served or merged.
pub const ENGINE_FINGERPRINT: &str = concat!(
    "statvs-",
    env!("CARGO_PKG_VERSION"),
    "+numerics.",
    numerics_epoch!()
);

pub use dc::{DcResult, SweepResult};
pub use error::SpiceError;
pub use netlist::{Circuit, NodeId};
pub use session::Session;
pub use tran::{TranOptions, TranResult};
pub use waveform::Waveform;
