//! Minimal complex arithmetic for AC analysis.
//!
//! The AC small-signal analysis solves `(G + jωC) x = b` per frequency
//! point; this module provides the complex scalar type and a dense complex
//! matrix. Kept deliberately small — only what the simulator needs (the
//! allowed dependency list has no complex-number crate).
//!
//! The systems are factored by [`CLu`], the crate's one LU ([`Lu`]) over
//! [`C64`]: [`CLu::refactor`] re-eliminates a same-order matrix into the
//! existing storage and [`CLu::solve_into`] writes into a caller-provided
//! vector, so a frequency sweep factors and solves hundreds of points with
//! zero allocation (pair with [`CMatrix::assign_gc`]).

use crate::lu::{Dense, Lu};
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
}

impl Dense for CMatrix {
    type Scalar = C64;

    fn shape(&self) -> (usize, usize) {
        (self.n, self.n)
    }

    fn entries(&self) -> &[C64] {
        &self.data
    }
}

/// The complex LU factorization `P A = L U` of the AC sweep: [`Lu`] over
/// [`C64`], the kernel that factors the DC solver's real Jacobians.
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
pub type CLu = Lu<C64>;

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
}
