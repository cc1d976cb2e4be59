//! Dense numerical kernels for compact-model extraction and circuit simulation.
//!
//! This crate implements, from scratch, the numerical substrate required by the
//! statistical Virtual Source MOSFET modeling flow:
//!
//! * [`Matrix`] — a small dense row-major matrix with the usual arithmetic.
//! * [`lu`] — LU decomposition with partial pivoting, one kernel over real
//!   and complex systems (the workhorse of the MNA circuit solver: DC and
//!   transient Newton, and the AC sweep).
//! * [`complex`] — the complex scalar and matrix of AC analysis.
//! * [`qr`] — Householder QR and linear least squares (used to solve the
//!   stacked backward-propagation-of-variance system).
//! * [`nnls`] — non-negative least squares via an active-set method
//!   (variances must not go negative during BPV extraction).
//! * [`roots`] — the linear threshold crossing between two samples (the
//!   delay measurements of `spice::measure`).
//! * [`lm`] — Levenberg-Marquardt nonlinear least squares (nominal VS
//!   parameter extraction against the golden kit, paper Fig. 1), with its
//!   forward-difference Jacobian in [`jacobian`].
//!
//! Two numerical searches live with their callers instead: the D
//! flip-flop setup-time search bisects a pass/fail capture predicate
//! (`circuits::dff::setup_time`), and the Eq. (10) sensitivities are
//! central differences in `vscore::sensitivity`.
//!
//! `ARCHITECTURE.md` at the repo root places this crate at the base of the
//! workspace's crate graph.
//!
//! # Example
//!
//! ```
//! use numerics::Matrix;
//!
//! // Solve a small linear system A x = b.
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
//! let b = vec![1.0, 2.0];
//! let x = numerics::lu::solve(&a, &b).expect("non-singular");
//! let r = &a.matvec(&x);
//! assert!((r[0] - 1.0).abs() < 1e-12 && (r[1] - 2.0).abs() < 1e-12);
//! ```

pub mod complex;
pub mod error;
pub mod jacobian;
pub mod lm;
pub mod lu;
pub mod matrix;
pub mod nnls;
pub mod qr;
pub mod roots;

pub use error::NumericsError;
pub use matrix::Matrix;

/// Euclidean norm of a slice.
///
/// ```
/// assert_eq!(numerics::norm2(&[3.0, 4.0]), 5.0);
/// ```
pub fn norm2(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Infinity norm (maximum absolute entry) of a slice; `0.0` for empty input.
///
/// ```
/// assert_eq!(numerics::norm_inf(&[1.0, -7.0, 2.0]), 7.0);
/// ```
pub fn norm_inf(v: &[f64]) -> f64 {
    v.iter().fold(0.0_f64, |m, x| m.max(x.abs()))
}

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norms_and_dot() {
        assert_eq!(norm2(&[]), 0.0);
        assert_eq!(norm_inf(&[]), 0.0);
        assert!((dot(&[1.0, 2.0], &[3.0, 4.0]) - 11.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic]
    fn dot_length_mismatch_panics() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }
}
