//! LU decomposition with partial pivoting, over real and complex systems.
//!
//! This is the linear solver behind the MNA circuit simulator: every
//! Newton-Raphson iteration solves `J dx = -f` with the real Jacobian
//! factored here, and the AC sweep solves `(G + jωC) x = b` at every
//! frequency point with the same kernel over [`C64`]. The factorization is
//! kept as a reusable object ([`Lu`]) so repeated solves against the same
//! matrix do not refactor, and [`Lu::refactor`] re-eliminates a same-order
//! matrix into the existing storage.
//!
//! One elimination and one substitution serve both scalars. A [`Scalar`]
//! supplies only what the two differ in: the size pivots are selected on,
//! and how a column's multipliers divide by its pivot.

use crate::complex::C64;
use crate::{Matrix, NumericsError};
use std::ops::{Mul, Sub};

/// A scalar an [`Lu`] factors over: `f64` for DC and transient Newton,
/// [`C64`] for the AC sweep.
pub trait Scalar: Copy + PartialEq + Sub<Output = Self> + Mul<Output = Self> {
    /// The additive identity; a zero multiplier skips its row update.
    const ZERO: Self;

    /// The size pivots are selected on (strict `>` within a column) and
    /// tested against the singularity threshold.
    fn pivot_size(self) -> f64;

    /// What the factorization stores for a column's pivot `p`: every
    /// multiplier of the column and the back-substitution row of `p` go
    /// through [`Scalar::over_pivot`] with it.
    fn stored_pivot(p: Self) -> Self;

    /// `self / p`, given `p`'s [`Scalar::stored_pivot`].
    fn over_pivot(self, stored: Self) -> Self;
}

/// Real pivots are selected on `abs` and divided by directly, so DC and
/// transient results keep the bits of a textbook elimination.
impl Scalar for f64 {
    const ZERO: f64 = 0.0;

    fn pivot_size(self) -> f64 {
        self.abs()
    }

    fn stored_pivot(p: f64) -> f64 {
        p
    }

    fn over_pivot(self, stored: f64) -> f64 {
        self / stored
    }
}

/// Sized for the AC sweep (hundreds of factorizations of a small dense
/// matrix per Monte Carlo sample): pivots are selected on the cheap
/// [`C64::norm1`] instead of `hypot`, and each column stores its pivot's
/// reciprocal, so multipliers and back substitution multiply instead of
/// running a full complex division per row.
impl Scalar for C64 {
    const ZERO: C64 = C64::ZERO;

    fn pivot_size(self) -> f64 {
        self.norm1()
    }

    fn stored_pivot(p: C64) -> C64 {
        p.recip()
    }

    fn over_pivot(self, stored: C64) -> C64 {
        self * stored
    }
}

/// A dense row-major matrix [`Lu::factor`] and [`Lu::refactor`] take:
/// [`Matrix`] over `f64` and [`crate::complex::CMatrix`] over [`C64`]. The
/// scalar is an associated type, so `Lu::factor(&m)` infers its
/// instantiation from `m`.
pub trait Dense {
    /// The entry type.
    type Scalar: Scalar;

    /// `(rows, columns)`.
    fn shape(&self) -> (usize, usize);

    /// The entries, row by row.
    fn entries(&self) -> &[Self::Scalar];
}

impl Dense for Matrix {
    type Scalar = f64;

    fn shape(&self) -> (usize, usize) {
        (self.rows(), self.cols())
    }

    fn entries(&self) -> &[f64] {
        self.as_slice()
    }
}

/// An LU factorization `P A = L U` with partial pivoting: `Lu<f64>` for
/// real systems, [`crate::complex::CLu`] (`Lu<C64>`) for complex ones.
///
/// # Example
///
/// ```
/// use numerics::{lu::Lu, Matrix};
///
/// # fn main() -> Result<(), numerics::NumericsError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
/// let f = Lu::factor(&a)?;
/// let x = f.solve(&[3.0, 5.0])?;
/// assert!((x[0] - 0.8).abs() < 1e-12);
/// assert!((x[1] - 1.4).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lu<T> {
    /// Matrix order.
    n: usize,
    /// Combined L (below diagonal, unit diagonal implied) and U (on/above),
    /// row-major.
    lu: Vec<T>,
    /// Row permutation: `perm[i]` is the original row stored at position `i`.
    perm: Vec<usize>,
    /// Each column's [`Scalar::stored_pivot`] of U's diagonal entry.
    pivots: Vec<T>,
}

/// Absolute pivot threshold: a column whose largest
/// [`Scalar::pivot_size`] is not above it, or is not finite, makes the
/// matrix singular.
const PIVOT_TOL: f64 = 1e-300;

/// The elimination kernel behind [`Lu::factor`] and [`Lu::refactor`]:
/// factors the row-major `n`×`n` slice `lu` in place, filling `perm` and
/// `pivots`.
fn eliminate<T: Scalar>(
    lu: &mut [T],
    n: usize,
    perm: &mut [usize],
    pivots: &mut [T],
) -> Result<(), NumericsError> {
    debug_assert_eq!(lu.len(), n * n);
    debug_assert_eq!(perm.len(), n);
    debug_assert_eq!(pivots.len(), n);
    for (i, p) in perm.iter_mut().enumerate() {
        *p = i;
    }
    for k in 0..n {
        // Find pivot row.
        let mut p = k;
        let mut pmax = lu[k * n + k].pivot_size();
        for i in (k + 1)..n {
            let v = lu[i * n + k].pivot_size();
            if v > pmax {
                pmax = v;
                p = i;
            }
        }
        if !(pmax > PIVOT_TOL) || !pmax.is_finite() {
            return Err(NumericsError::SingularMatrix { pivot: k });
        }
        if p != k {
            for j in 0..n {
                lu.swap(k * n + j, p * n + j);
            }
            perm.swap(k, p);
        }
        let pivot = T::stored_pivot(lu[k * n + k]);
        pivots[k] = pivot;
        for i in (k + 1)..n {
            let m = lu[i * n + k].over_pivot(pivot);
            lu[i * n + k] = m;
            if m != T::ZERO {
                for j in (k + 1)..n {
                    let ukj = lu[k * n + j];
                    lu[i * n + j] = lu[i * n + j] - m * ukj;
                }
            }
        }
    }
    Ok(())
}

impl<T: Scalar> Lu<T> {
    /// Factors a square matrix.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] for non-square input and
    /// [`NumericsError::SingularMatrix`] when a pivot underflows.
    pub fn factor<M: Dense<Scalar = T>>(a: &M) -> Result<Self, NumericsError> {
        let (rows, cols) = a.shape();
        if rows != cols {
            return Err(NumericsError::DimensionMismatch {
                context: format!("LU of non-square {rows}x{cols} matrix"),
            });
        }
        let mut f = Lu {
            n: rows,
            lu: a.entries().to_vec(),
            perm: vec![0; rows],
            pivots: vec![T::ZERO; rows],
        };
        eliminate(&mut f.lu, f.n, &mut f.perm, &mut f.pivots)?;
        Ok(f)
    }

    /// Re-factors a same-order matrix into this object's existing storage —
    /// no allocation. This is the hot path of repeated solves: the circuit
    /// simulator refactors the Jacobian every Newton iteration, and an AC
    /// sweep refactors `G + jωC` (assembled with
    /// [`crate::complex::CMatrix::assign_gc`]) at every frequency point.
    ///
    /// On error the factorization is left in an unusable state; call
    /// `refactor` again with a valid matrix before solving.
    ///
    /// # Errors
    ///
    /// Same as [`Lu::factor`], plus [`NumericsError::DimensionMismatch`]
    /// when `a`'s order differs from the stored one.
    pub fn refactor<M: Dense<Scalar = T>>(&mut self, a: &M) -> Result<(), NumericsError> {
        let n = self.n;
        let (rows, cols) = a.shape();
        if rows != n || cols != n {
            return Err(NumericsError::DimensionMismatch {
                context: format!("refactor of {rows}x{cols} matrix into order-{n} LU"),
            });
        }
        self.lu.copy_from_slice(a.entries());
        eliminate(&mut self.lu, n, &mut self.perm, &mut self.pivots)
    }

    /// Solves `A x = b` using the stored factorization.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if `b.len()` does not
    /// match the matrix order.
    pub fn solve(&self, b: &[T]) -> Result<Vec<T>, NumericsError> {
        let mut x = vec![T::ZERO; self.n];
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// [`Lu::solve`] into caller-provided storage — no allocation. `x` must
    /// have the factorization's order.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if `b` or `x` does not
    /// match the matrix order.
    pub fn solve_into(&self, b: &[T], x: &mut [T]) -> Result<(), NumericsError> {
        let n = self.n;
        if b.len() != n || x.len() != n {
            return Err(NumericsError::DimensionMismatch {
                context: format!(
                    "rhs length {} / out length {} for order-{} LU",
                    b.len(),
                    x.len(),
                    n
                ),
            });
        }
        let lu = &self.lu[..];
        // Apply permutation: y = P b.
        for (xi, &p) in x.iter_mut().zip(&self.perm) {
            *xi = b[p];
        }
        // Forward substitution with unit-lower L.
        for i in 1..n {
            let mut s = x[i];
            for j in 0..i {
                s = s - lu[i * n + j] * x[j];
            }
            x[i] = s;
        }
        // Back substitution with U.
        for i in (0..n).rev() {
            let mut s = x[i];
            for j in (i + 1)..n {
                s = s - lu[i * n + j] * x[j];
            }
            x[i] = s.over_pivot(self.pivots[i]);
        }
        Ok(())
    }
}

/// One-shot solve of `A x = b` (factor + solve).
///
/// # Errors
///
/// Propagates factorization/solve errors; see [`Lu::factor`] and [`Lu::solve`].
pub fn solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, NumericsError> {
    Lu::factor(a)?.solve(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{CLu, CMatrix};

    #[test]
    fn solves_known_system() {
        let a = Matrix::from_rows(&[&[3.0, 2.0, -1.0], &[2.0, -2.0, 4.0], &[-1.0, 0.5, -1.0]]);
        let x = solve(&a, &[1.0, -2.0, 0.0]).unwrap();
        // Known solution (1, -2, -2).
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] + 2.0).abs() < 1e-12);
        assert!((x[2] + 2.0).abs() < 1e-12);
    }

    #[test]
    fn detects_singular() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(
            Lu::factor(&a),
            Err(NumericsError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Lu::factor(&a),
            Err(NumericsError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn rhs_length_checked() {
        let a = Matrix::identity(2);
        let f = Lu::factor(&a).unwrap();
        assert!(f.solve(&[1.0]).is_err());
        let mut out = vec![0.0; 3];
        assert!(f.solve_into(&[1.0, 2.0], &mut out).is_err());
    }

    #[test]
    fn refactor_reuses_storage_and_matches_factor() {
        let a = Matrix::from_rows(&[&[3.0, 2.0, -1.0], &[2.0, -2.0, 4.0], &[-1.0, 0.5, -1.0]]);
        let b = Matrix::from_rows(&[&[0.0, 1.0, 0.0], &[1.0, 0.0, 2.0], &[0.0, 3.0, 1.0]]);
        let mut f = Lu::factor(&a).unwrap();
        f.refactor(&b).unwrap();
        let fresh = Lu::factor(&b).unwrap();
        let rhs = [1.0, -1.0, 2.0];
        let mut x = vec![0.0; 3];
        f.solve_into(&rhs, &mut x).unwrap();
        let want = fresh.solve(&rhs).unwrap();
        for (got, want) in x.iter().zip(&want) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
        let ax = b.matvec(&x);
        for (l, r) in ax.iter().zip(&rhs) {
            assert!((l - r).abs() < 1e-12);
        }
        // Order mismatch is rejected.
        assert!(f.refactor(&Matrix::identity(2)).is_err());
    }

    #[test]
    fn refactor_recovers_after_singular_input() {
        let good = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 2.0]]);
        let singular = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        let mut f = Lu::factor(&good).unwrap();
        assert!(f.refactor(&singular).is_err());
        f.refactor(&good).unwrap();
        let x = f.solve(&[4.0, 6.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12 && (x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = solve(&a, &[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-14);
        assert!((x[1] - 2.0).abs() < 1e-14);
    }

    /// A dense well-conditioned complex system for the complex tests.
    fn test_matrix(scale: f64) -> CMatrix {
        let mut m = CMatrix::zeros(3);
        *m.at_mut(0, 0) = C64::new(3.0 * scale, 1.0);
        *m.at_mut(0, 1) = C64::new(1.0, -2.0);
        *m.at_mut(0, 2) = C64::new(0.5, 0.0);
        *m.at_mut(1, 0) = C64::new(0.0, 1.0);
        *m.at_mut(1, 1) = C64::new(-2.0, 2.0 * scale);
        *m.at_mut(1, 2) = C64::new(1.0, 1.0);
        *m.at_mut(2, 0) = C64::new(1.0, 0.0);
        *m.at_mut(2, 1) = C64::new(0.0, -1.0);
        *m.at_mut(2, 2) = C64::new(4.0 * scale, -1.0);
        m
    }

    fn residual(a: &CMatrix, x: &[C64], b: &[C64]) -> f64 {
        let n = a.order();
        let mut worst = 0.0_f64;
        for i in 0..n {
            let mut s = C64::ZERO;
            for j in 0..n {
                s += a.at(i, j) * x[j];
            }
            worst = worst.max((s - b[i]).abs());
        }
        worst
    }

    #[test]
    fn complex_solve_known_system() {
        // (1+j) x + y = 2 ; x - y = j  => solve and verify by substitution.
        let mut m = CMatrix::zeros(2);
        *m.at_mut(0, 0) = C64::new(1.0, 1.0);
        *m.at_mut(0, 1) = C64::ONE;
        *m.at_mut(1, 0) = C64::ONE;
        *m.at_mut(1, 1) = -C64::ONE;
        let b = [C64::new(2.0, 0.0), C64::imag(1.0)];
        let x = CLu::factor(&m).unwrap().solve(&b).unwrap();
        assert!(residual(&m, &x, &b) < 1e-12);
    }

    #[test]
    fn complex_singular_detected() {
        assert!(matches!(
            CLu::factor(&CMatrix::zeros(2)),
            Err(NumericsError::SingularMatrix { pivot: 0 })
        ));
    }

    #[test]
    fn clu_solves_with_small_residual() {
        let a = test_matrix(1.0);
        let b = [C64::new(1.0, 0.0), C64::new(0.0, 1.0), C64::new(-2.0, 3.0)];
        let f = CLu::factor(&a).unwrap();
        let x = f.solve(&b).unwrap();
        assert!(residual(&a, &x, &b) < 1e-12);
    }

    #[test]
    fn clu_refactor_reuses_storage_and_recovers_from_singular() {
        let a = test_matrix(1.0);
        let b = [C64::ONE, C64::imag(1.0), C64::new(1.0, 1.0)];
        let mut f = CLu::factor(&a).unwrap();
        // Refactor with a different matrix: solutions track the new system.
        let a2 = test_matrix(-2.5);
        f.refactor(&a2).unwrap();
        let mut x = vec![C64::ZERO; 3];
        f.solve_into(&b, &mut x).unwrap();
        assert!(residual(&a2, &x, &b) < 1e-12);
        // A singular refactor errors, then a valid one recovers.
        assert!(f.refactor(&CMatrix::zeros(3)).is_err());
        f.refactor(&a).unwrap();
        f.solve_into(&b, &mut x).unwrap();
        assert!(residual(&a, &x, &b) < 1e-12);
        // Order mismatches are rejected everywhere.
        assert!(f.refactor(&CMatrix::zeros(2)).is_err());
        assert!(f.solve(&[C64::ONE]).is_err());
        let mut short = vec![C64::ZERO; 2];
        assert!(f.solve_into(&b, &mut short).is_err());
    }

    #[test]
    fn clu_pivots_on_magnitude() {
        // Leading zero forces a row swap, as in the real LU.
        let mut a = CMatrix::zeros(2);
        *a.at_mut(0, 1) = C64::ONE;
        *a.at_mut(1, 0) = C64::new(0.0, 1.0);
        let b = [C64::new(2.0, 0.0), C64::new(0.0, 3.0)];
        let x = CLu::factor(&a).unwrap().solve(&b).unwrap();
        assert!((x[0] - C64::new(3.0, 0.0)).abs() < 1e-14);
        assert!((x[1] - C64::new(2.0, 0.0)).abs() < 1e-14);
    }
}
