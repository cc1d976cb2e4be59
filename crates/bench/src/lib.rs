//! Benchmark harness: regenerates every table and figure of the paper.
//!
//! Each experiment in [`experiments`] is a pure function from an
//! [`ExperimentContext`] (shared extraction products + output directory +
//! sample budget) to a text report, writing CSV series alongside. The
//! `repro` binary dispatches to them:
//!
//! ```text
//! cargo run --release -p vsbench --bin repro -- all
//! cargo run --release -p vsbench --bin repro -- fig5 --fast
//! ```
//!
//! | command  | paper artifact | content |
//! |----------|----------------|---------|
//! | `fig1`   | Fig. 1  | VS-vs-kit I-V overlay after nominal fit |
//! | `fig2`   | Fig. 2  | per-geometry vs joint BPV solution error |
//! | `table2` | Table II | extracted Pelgrom coefficients α1..α5 |
//! | `fig3`   | Fig. 3  | Idsat σ/µ vs width + parameter contributions |
//! | `table3` | Table III | device-level σ: VS vs golden kit |
//! | `fig4`   | Fig. 4  | Ion/Ioff scatter + confidence ellipses |
//! | `fig5`   | Fig. 5  | INV FO3 delay PDFs at 3 sizes |
//! | `fig6`   | Fig. 6  | leakage vs frequency scatter |
//! | `fig7`   | Fig. 7  | NAND2 delay PDFs + QQ at 0.9/0.7/0.55 V |
//! | `fig8`   | Fig. 8  | DFF setup-time PDF |
//! | `fig9`   | Fig. 9  | SRAM butterfly + READ/HOLD SNM PDFs + QQ |
//! | `table4` | Table IV | Monte Carlo runtime/memory, VS vs kit |
//! | `highsigma` | extension | 5σ SRAM SNM failure probability via two-phase importance sampling |
//!
//! Circuit-level Monte Carlo loops shard across cores through
//! `vscore::mc::ParallelRunner` (override the worker count with
//! `STATVS_MC_THREADS`). Every sample draws the same mismatch devices and
//! starts every solve from a point the experiment fixes, so `repro` writes
//! the same files for any worker count (only `table4.txt`'s wall-clock
//! columns differ). `ARCHITECTURE.md` at the repo root diagrams the data
//! flow.

pub mod context;
pub mod experiments;
pub mod microbench;
pub mod report;

pub use context::ExperimentContext;
