//! # statvs — Statistical Virtual Source MOSFET modeling
//!
//! A full reproduction of *"Statistical Modeling with the Virtual Source
//! MOSFET Model"* (Yu et al., DATE 2013) as a Rust workspace. This facade
//! crate re-exports the individual subsystem crates:
//!
//! * [`numerics`] — dense/complex linear algebra, NNLS, threshold
//!   crossings, Levenberg-Marquardt with Marquardt scaling.
//! * [`stats`] — sampling, estimators, KDE, QQ, confidence ellipses, SSTA
//!   corner analysis.
//! * [`mosfet`] — the Virtual Source compact model and the BSIM4-like
//!   golden baseline, with per-instance mismatch.
//! * [`spice`] — a **session-based** MNA circuit simulator: build a
//!   `Circuit`, elaborate it once into a `spice::Session`, then run any
//!   number of DC / sweep / transient / AC analyses against it, resampling
//!   MOSFETs in place (`Session::swap_devices`) between Monte Carlo
//!   samples. SPICE-netlist parsing included.
//! * [`circuits`] — benchmark cells: INV/NAND2 FO3, D flip-flop
//!   (setup time), 6T SRAM (butterfly, SNM, AC read disturb). Every bench
//!   owns a persistent session and exposes `resample(..)` for in-place
//!   Monte Carlo.
//! * [`vscore`] — the statistical modeling flow itself: Pelgrom scaling,
//!   backward propagation of variance (BPV, under the paper's Eq. (9)
//!   independence assumption),
//!   staged nominal fitting with CV correction, Monte Carlo, Verilog-A
//!   export.
//! * [`serve`] — simulation-as-a-service: the `statvs serve` HTTP server
//!   for registered circuit templates, with a shard-oriented protocol
//!   whose returned sketch bytes merge bit-identically across servers
//!   (zero external dependencies: in-repo HTTP/1.1 and JSON codecs).
//! * [`fleet`] — the client half of that protocol: the `statvs fleet`
//!   coordinator that shards a campaign across serve workers, re-issues
//!   shards lost to killed or stalled workers, and merges the returned
//!   sketch bytes into a result byte-identical to a single-process run.
//!
//! # Simulation model
//!
//! The paper's validation is circuit-level Monte Carlo: thousands of solves
//! of the *same topology* with resampled device parameters. The workspace
//! is shaped around that loop — **elaborate once, run many analyses, swap
//! devices in place** — so the netlist is parsed and the MNA layout, the
//! workspace, and the LU scratch are allocated a single time per topology,
//! and a sample's DC solve can start Newton close to its answer: from a
//! point the experiment fixes (served SRAM samples start from the nominal
//! cell's operating point, AC Monte Carlo from its bench's construction
//! cell's), or, for a sweep point, from a cubic Hermite prediction over
//! the points before it and their slopes `dx/dv`, which each point's own
//! converged Newton system gives. No solve reads what an earlier one left
//! in the session.
//!
//! Samples shard across cores through `vscore::mc::ParallelRunner`: each
//! worker elaborates its own session in the runner's setup closure,
//! each sample draws from a stream derived purely from the seed and the
//! sample index, and every result streams into a `stats::sink::Sink` in
//! sample-index order — deterministic (bit-identical sample sets and
//! sketches) for any worker count; a caller can stop on
//! confidence-interval width between consecutive sample ranges.
//! `ARCHITECTURE.md` at the repo root diagrams the crate graph, the
//! session lifecycle, and the parallel Monte Carlo data flow.
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs` for the end-to-end flow: calibrate a golden
//! kit, fit the nominal VS model, extract mismatch coefficients with BPV,
//! and validate with Monte Carlo. `examples/netlist_sim.rs` shows the
//! session API driven from a parsed SPICE netlist.

pub use circuits;
pub use fleet;
pub use mosfet;
pub use numerics;
pub use serve;
pub use spice;
pub use stats;
pub use vscore;
