//! Minimal complex arithmetic and complex linear solves for AC analysis.
//!
//! The AC small-signal analysis solves `(G + jωC) x = b` per frequency
//! point; this module provides the complex scalar type, a dense complex
//! matrix, and LU solvers over it. Kept deliberately small — only what the
//! simulator needs (the allowed dependency list has no complex-number
//! crate).
//!
//! Two solve shapes:
//!
//! * [`CMatrix::solve`] — one-shot, consuming: convenient for a single
//!   system.
//! * [`CLu`] — a reusable factorization object mirroring [`crate::lu::Lu`]:
//!   [`CLu::refactor`] re-eliminates a same-order matrix into the existing
//!   storage and [`CLu::solve_into`] writes into a caller-provided vector,
//!   so a frequency sweep factors and solves hundreds of points with zero
//!   allocation (pair with [`CMatrix::assign_gc`]).

use crate::NumericsError;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

/// A complex number with `f64` components.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct C64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl C64 {
    /// Zero.
    pub const ZERO: C64 = C64 { re: 0.0, im: 0.0 };
    /// One.
    pub const ONE: C64 = C64 { re: 1.0, im: 0.0 };

    /// Creates a complex number.
    pub fn new(re: f64, im: f64) -> C64 {
        C64 { re, im }
    }

    /// A purely real value.
    pub fn real(re: f64) -> C64 {
        C64 { re, im: 0.0 }
    }

    /// A purely imaginary value.
    pub fn imag(im: f64) -> C64 {
        C64 { re: 0.0, im }
    }

    /// Magnitude `|z|`.
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Phase in radians.
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// The 1-norm `|re| + |im|` — a cheap magnitude surrogate (within a
    /// factor of √2 of [`C64::abs`], zero iff the value is zero) used for
    /// pivot selection, where only relative size matters and `hypot`'s
    /// careful scaling is wasted work.
    pub fn norm1(self) -> f64 {
        self.re.abs() + self.im.abs()
    }

    /// Reciprocal `1/z` via Smith's algorithm.
    pub fn recip(self) -> C64 {
        C64::ONE / self
    }

    /// True when both components are finite.
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl Add for C64 {
    type Output = C64;
    fn add(self, o: C64) -> C64 {
        C64::new(self.re + o.re, self.im + o.im)
    }
}

impl AddAssign for C64 {
    fn add_assign(&mut self, o: C64) {
        self.re += o.re;
        self.im += o.im;
    }
}

impl Sub for C64 {
    type Output = C64;
    fn sub(self, o: C64) -> C64 {
        C64::new(self.re - o.re, self.im - o.im)
    }
}

impl Mul for C64 {
    type Output = C64;
    fn mul(self, o: C64) -> C64 {
        C64::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

impl Div for C64 {
    type Output = C64;
    fn div(self, o: C64) -> C64 {
        // Smith's algorithm for robust complex division.
        if o.re.abs() >= o.im.abs() {
            let r = o.im / o.re;
            let d = o.re + o.im * r;
            C64::new((self.re + self.im * r) / d, (self.im - self.re * r) / d)
        } else {
            let r = o.re / o.im;
            let d = o.re * r + o.im;
            C64::new((self.re * r + self.im) / d, (self.im * r - self.re) / d)
        }
    }
}

impl Neg for C64 {
    type Output = C64;
    fn neg(self) -> C64 {
        C64::new(-self.re, -self.im)
    }
}

/// A dense row-major complex matrix (only what AC analysis needs).
#[derive(Debug, Clone, PartialEq)]
pub struct CMatrix {
    n: usize,
    data: Vec<C64>,
}

impl CMatrix {
    /// Creates an `n x n` zero matrix.
    pub fn zeros(n: usize) -> CMatrix {
        CMatrix {
            n,
            data: vec![C64::ZERO; n * n],
        }
    }

    /// Matrix order.
    pub fn order(&self) -> usize {
        self.n
    }

    /// Element access.
    pub fn at(&self, i: usize, j: usize) -> C64 {
        self.data[i * self.n + j]
    }

    /// Mutable element access.
    pub fn at_mut(&mut self, i: usize, j: usize) -> &mut C64 {
        &mut self.data[i * self.n + j]
    }

    /// Builds `G + jω C` from two real matrices of equal order.
    ///
    /// # Panics
    ///
    /// Panics if the matrices are not square with equal order.
    pub fn from_gc(g: &crate::Matrix, c: &crate::Matrix, omega: f64) -> CMatrix {
        let n = g.rows();
        let mut m = CMatrix::zeros(n);
        m.assign_gc(g, c, omega);
        m
    }

    /// Overwrites this matrix with `G + jω C` — the non-allocating variant
    /// of [`CMatrix::from_gc`] a frequency sweep calls once per point.
    ///
    /// # Panics
    ///
    /// Panics if the real matrices are not square of this matrix's order.
    pub fn assign_gc(&mut self, g: &crate::Matrix, c: &crate::Matrix, omega: f64) {
        let n = self.n;
        assert!(
            g.is_square() && c.is_square() && g.rows() == n && c.rows() == n,
            "assign_gc: G is {}x{}, C is {}x{}, target order {}",
            g.rows(),
            g.cols(),
            c.rows(),
            c.cols(),
            n
        );
        for i in 0..n {
            let (gr, cr) = (g.row(i), c.row(i));
            let dst = &mut self.data[i * n..(i + 1) * n];
            for j in 0..n {
                dst[j] = C64::new(gr[j], omega * cr[j]);
            }
        }
    }

    /// Solves `A x = b` by LU with partial pivoting, consuming the matrix.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::SingularMatrix`] on pivot breakdown and
    /// [`NumericsError::DimensionMismatch`] on rhs length mismatch.
    pub fn solve(self, b: &[C64]) -> Result<Vec<C64>, NumericsError> {
        if b.len() != self.n {
            return Err(NumericsError::DimensionMismatch {
                context: format!("complex solve: rhs {} for order {}", b.len(), self.n),
            });
        }
        CLu::factor_owned(self)?.solve(b)
    }
}

/// The elimination kernel shared by every [`CLu`] entry point: factors `lu`
/// in place (combined unit-lower L and upper U), filling `perm`.
///
/// Two hot-loop choices, sized for the AC-sweep workload (hundreds of
/// factorizations of a small dense matrix per Monte Carlo sample): pivots
/// are selected on the cheap [`C64::norm1`] instead of `hypot`, and each
/// column's multipliers use one precomputed pivot reciprocal instead of a
/// full complex division per row.
fn eliminate(
    lu: &mut CMatrix,
    perm: &mut [usize],
    inv_diag: &mut [C64],
) -> Result<(), NumericsError> {
    let n = lu.n;
    for (i, p) in perm.iter_mut().enumerate() {
        *p = i;
    }
    for k in 0..n {
        // Pivot on the 1-norm (order-of-magnitude selection only).
        let mut p = k;
        let mut pmax = lu.at(k, k).norm1();
        for i in (k + 1)..n {
            let v = lu.at(i, k).norm1();
            if v > pmax {
                pmax = v;
                p = i;
            }
        }
        if !(pmax > 1e-300) || !pmax.is_finite() {
            return Err(NumericsError::SingularMatrix { pivot: k });
        }
        if p != k {
            for j in 0..n {
                let tmp = lu.at(k, j);
                *lu.at_mut(k, j) = lu.at(p, j);
                *lu.at_mut(p, j) = tmp;
            }
            perm.swap(k, p);
        }
        let inv_pivot = lu.at(k, k).recip();
        inv_diag[k] = inv_pivot;
        for i in (k + 1)..n {
            let m = lu.at(i, k) * inv_pivot;
            if m != C64::ZERO {
                for j in (k + 1)..n {
                    let v = lu.at(k, j);
                    *lu.at_mut(i, j) = lu.at(i, j) - m * v;
                }
            }
            *lu.at_mut(i, k) = m;
        }
    }
    Ok(())
}

/// A complex LU factorization `P A = L U` with partial pivoting, mirroring
/// [`crate::lu::Lu`]: the factorization owns reusable storage, so repeated
/// same-order systems refactor and solve without allocating.
///
/// # Example
///
/// ```
/// use numerics::complex::{C64, CLu, CMatrix};
///
/// # fn main() -> Result<(), numerics::NumericsError> {
/// let mut a = CMatrix::zeros(2);
/// *a.at_mut(0, 0) = C64::new(0.0, 1.0); // j x + y = 1
/// *a.at_mut(0, 1) = C64::ONE;
/// *a.at_mut(1, 0) = C64::ONE; //            x - y = 0
/// *a.at_mut(1, 1) = -C64::ONE;
/// let mut f = CLu::factor(&a)?;
/// let mut x = vec![C64::ZERO; 2];
/// f.solve_into(&[C64::ONE, C64::ZERO], &mut x)?;
/// assert!((x[0] - x[1]).abs() < 1e-12); // x = y
///
/// // Same storage, new matrix: no allocation.
/// *a.at_mut(0, 0) = C64::new(0.0, 2.0);
/// f.refactor(&a)?;
/// f.solve_into(&[C64::ONE, C64::ZERO], &mut x)?;
/// assert!((x[0] * C64::new(1.0, 2.0) - C64::ONE).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CLu {
    /// Combined L (below diagonal, unit diagonal implied) and U (on/above).
    lu: CMatrix,
    /// Row permutation: `perm[i]` is the original row stored at position `i`.
    perm: Vec<usize>,
    /// Reciprocals of U's diagonal, saved during elimination so every
    /// back-substitution multiplies instead of dividing.
    inv_diag: Vec<C64>,
}

impl CLu {
    /// Factors a complex matrix into fresh storage.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::SingularMatrix`] when a pivot underflows.
    pub fn factor(a: &CMatrix) -> Result<Self, NumericsError> {
        CLu::factor_owned(a.clone())
    }

    /// [`CLu::factor`] taking ownership of the matrix — no copy.
    ///
    /// # Errors
    ///
    /// Same as [`CLu::factor`].
    pub fn factor_owned(mut a: CMatrix) -> Result<Self, NumericsError> {
        let mut perm: Vec<usize> = (0..a.n).collect();
        let mut inv_diag = vec![C64::ZERO; a.n];
        eliminate(&mut a, &mut perm, &mut inv_diag)?;
        Ok(CLu {
            lu: a,
            perm,
            inv_diag,
        })
    }

    /// Re-factors a same-order matrix into this object's existing storage —
    /// no allocation. This is the hot path of a frequency sweep: assemble
    /// `G + jωC` with [`CMatrix::assign_gc`], refactor, solve.
    ///
    /// On error the factorization is left in an unusable state; call
    /// `refactor` again with a valid matrix before solving.
    ///
    /// # Errors
    ///
    /// Same as [`CLu::factor`], plus [`NumericsError::DimensionMismatch`]
    /// when `a`'s order differs from the stored one.
    pub fn refactor(&mut self, a: &CMatrix) -> Result<(), NumericsError> {
        let n = self.lu.n;
        if a.n != n {
            return Err(NumericsError::DimensionMismatch {
                context: format!("refactor of order-{} matrix into order-{} CLu", a.n, n),
            });
        }
        self.lu.data.copy_from_slice(&a.data);
        eliminate(&mut self.lu, &mut self.perm, &mut self.inv_diag)
    }

    /// Solves `A x = b` using the stored factorization.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if `b.len()` does not
    /// match the matrix order.
    pub fn solve(&self, b: &[C64]) -> Result<Vec<C64>, NumericsError> {
        let mut x = vec![C64::ZERO; self.lu.n];
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// [`CLu::solve`] into caller-provided storage — no allocation. `x`
    /// must have the factorization's order.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if `b` or `x` does not
    /// match the matrix order.
    pub fn solve_into(&self, b: &[C64], x: &mut [C64]) -> Result<(), NumericsError> {
        let n = self.lu.n;
        if b.len() != n || x.len() != n {
            return Err(NumericsError::DimensionMismatch {
                context: format!(
                    "rhs length {} / out length {} for order-{} CLu",
                    b.len(),
                    x.len(),
                    n
                ),
            });
        }
        // Apply permutation: y = P b.
        for (xi, &p) in x.iter_mut().zip(&self.perm) {
            *xi = b[p];
        }
        // Forward substitution with unit-lower L.
        for i in 1..n {
            let mut s = x[i];
            for j in 0..i {
                s = s - self.lu.at(i, j) * x[j];
            }
            x[i] = s;
        }
        // Back substitution with U (pivot reciprocals cached at factor
        // time, so the sweep hot loop never divides).
        for i in (0..n).rev() {
            let mut s = x[i];
            for j in (i + 1)..n {
                s = s - self.lu.at(i, j) * x[j];
            }
            x[i] = s * self.inv_diag[i];
        }
        Ok(())
    }

    /// Order of the factored matrix.
    pub fn order(&self) -> usize {
        self.lu.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_identities() {
        let a = C64::new(3.0, 4.0);
        let b = C64::new(-1.0, 2.0);
        assert_eq!(a.abs(), 5.0);
        assert_eq!((a + b) - b, a);
        let prod = a * b;
        assert_eq!(prod, C64::new(-11.0, 2.0));
        let q = prod / b;
        assert!((q.re - a.re).abs() < 1e-12 && (q.im - a.im).abs() < 1e-12);
        assert_eq!(-a, C64::new(-3.0, -4.0));
        assert!(a.is_finite());
    }

    #[test]
    fn division_is_robust_for_small_denominators() {
        let a = C64::new(1.0, 0.0);
        let tiny = C64::new(1e-200, 1e-200);
        let q = a / tiny;
        assert!(q.is_finite() || q.abs() > 1e150);
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
        let m2 = m.clone();
        let x = m.solve(&b).unwrap();
        for i in 0..2 {
            let mut s = C64::ZERO;
            for j in 0..2 {
                s += m2.at(i, j) * x[j];
            }
            assert!((s - b[i]).abs() < 1e-12, "row {i}: {s:?} vs {:?}", b[i]);
        }
    }

    #[test]
    fn from_gc_builds_impedance_matrix() {
        let g = crate::Matrix::from_diag(&[2.0]);
        let c = crate::Matrix::from_diag(&[1e-9]);
        let m = CMatrix::from_gc(&g, &c, 1e9);
        assert_eq!(m.at(0, 0), C64::new(2.0, 1.0));
    }

    #[test]
    fn assign_gc_overwrites_previous_contents() {
        let g = crate::Matrix::from_diag(&[2.0, 3.0]);
        let c = crate::Matrix::from_diag(&[1e-9, 2e-9]);
        let mut m = CMatrix::zeros(2);
        *m.at_mut(0, 1) = C64::new(7.0, 7.0); // stale garbage
        m.assign_gc(&g, &c, 1e9);
        assert_eq!(m.at(0, 0), C64::new(2.0, 1.0));
        assert_eq!(m.at(1, 1), C64::new(3.0, 2.0));
        assert_eq!(m.at(0, 1), C64::ZERO);
    }

    #[test]
    #[should_panic]
    fn assign_gc_checks_order() {
        let g = crate::Matrix::from_diag(&[2.0]);
        let c = crate::Matrix::from_diag(&[1e-9]);
        CMatrix::zeros(2).assign_gc(&g, &c, 1.0);
    }

    #[test]
    fn singular_detected() {
        let m = CMatrix::zeros(2);
        assert!(m.solve(&[C64::ONE, C64::ONE]).is_err());
    }

    /// A dense well-conditioned complex system for the CLu tests.
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
    fn clu_matches_consuming_solve() {
        let a = test_matrix(1.0);
        let b = [C64::new(1.0, 0.0), C64::new(0.0, 1.0), C64::new(-2.0, 3.0)];
        let f = CLu::factor(&a).unwrap();
        let x = f.solve(&b).unwrap();
        assert!(residual(&a, &x, &b) < 1e-12);
        let x2 = a.clone().solve(&b).unwrap();
        for (l, r) in x.iter().zip(&x2) {
            assert!((*l - *r).abs() < 1e-12);
        }
        assert_eq!(f.order(), 3);
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
