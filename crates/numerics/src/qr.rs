//! Householder QR decomposition and linear least squares.
//!
//! The stacked BPV system of the paper (Eq. (10)) is an overdetermined
//! linear system in the squared Pelgrom coefficients; it is solved here by QR
//! rather than normal equations for numerical robustness.

use crate::{Matrix, NumericsError};

/// A Householder QR factorization of an `m x n` matrix with `m >= n`.
///
/// The factorization is stored in compact form: the upper triangle holds `R`,
/// the lower part holds the Householder vectors.
///
/// # Example
///
/// ```
/// use numerics::{qr::Qr, Matrix};
///
/// # fn main() -> Result<(), numerics::NumericsError> {
/// // Overdetermined fit: best line through (0,1), (1,2), (2,2.9).
/// let a = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0]]);
/// let x = Qr::factor(&a)?.solve_least_squares(&[1.0, 2.0, 2.9])?;
/// assert!((x[1] - 0.95).abs() < 1e-9); // slope ~ 0.95
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Qr {
    /// Compact factorization storage.
    qr: Matrix,
    /// Scalar factors of the Householder reflectors (diagonal R entries).
    rdiag: Vec<f64>,
}

impl Qr {
    /// Factors an `m x n` matrix with `m >= n`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if `m < n`.
    pub fn factor(a: &Matrix) -> Result<Self, NumericsError> {
        let (m, n) = (a.rows(), a.cols());
        if m < n {
            return Err(NumericsError::DimensionMismatch {
                context: format!("QR requires rows >= cols, got {m}x{n}"),
            });
        }
        let mut qr = a.clone();
        let mut rdiag = vec![0.0; n];

        for k in 0..n {
            // Norm of column k below the diagonal.
            let mut nrm = 0.0_f64;
            for i in k..m {
                nrm = nrm.hypot(qr[(i, k)]);
            }
            if nrm != 0.0 {
                if qr[(k, k)] < 0.0 {
                    nrm = -nrm;
                }
                for i in k..m {
                    qr[(i, k)] /= nrm;
                }
                qr[(k, k)] += 1.0;
                // Apply transformation to remaining columns.
                for j in (k + 1)..n {
                    let mut s = 0.0;
                    for i in k..m {
                        s += qr[(i, k)] * qr[(i, j)];
                    }
                    s = -s / qr[(k, k)];
                    for i in k..m {
                        let vik = qr[(i, k)];
                        qr[(i, j)] += s * vik;
                    }
                }
            }
            rdiag[k] = -nrm;
        }
        Ok(Qr { qr, rdiag })
    }

    /// Returns `true` if `R` has full column rank (no zero diagonal).
    pub fn is_full_rank(&self) -> bool {
        self.rdiag.iter().all(|&d| d != 0.0)
    }

    /// Solves the least-squares problem `min ||A x - b||_2`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if `b.len()` differs from
    /// the row count, and [`NumericsError::SingularMatrix`] when `A` is rank
    /// deficient.
    pub fn solve_least_squares(&self, b: &[f64]) -> Result<Vec<f64>, NumericsError> {
        let (m, n) = (self.qr.rows(), self.qr.cols());
        if b.len() != m {
            return Err(NumericsError::DimensionMismatch {
                context: format!("rhs length {} for {}x{} QR", b.len(), m, n),
            });
        }
        if !self.is_full_rank() {
            return Err(NumericsError::SingularMatrix { pivot: 0 });
        }
        let mut y = b.to_vec();
        // Compute Q^T b.
        for k in 0..n {
            let mut s = 0.0;
            for i in k..m {
                s += self.qr[(i, k)] * y[i];
            }
            if self.qr[(k, k)] != 0.0 {
                s = -s / self.qr[(k, k)];
                for i in k..m {
                    y[i] += s * self.qr[(i, k)];
                }
            }
        }
        // Back substitution: R x = (Q^T b)[0..n].
        let mut x = vec![0.0; n];
        for k in (0..n).rev() {
            let mut s = y[k];
            for j in (k + 1)..n {
                s -= self.qr[(k, j)] * x[j];
            }
            x[k] = s / self.rdiag[k];
        }
        Ok(x)
    }
}

/// One-shot linear least-squares solve `min ||A x - b||_2` via QR.
///
/// # Errors
///
/// See [`Qr::factor`] and [`Qr::solve_least_squares`].
pub fn lstsq(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, NumericsError> {
    Qr::factor(a)?.solve_least_squares(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_solve_matches_lu() {
        let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]);
        let b = [9.0, 8.0];
        let x_qr = lstsq(&a, &b).unwrap();
        let x_lu = crate::lu::solve(&a, &b).unwrap();
        for (p, q) in x_qr.iter().zip(&x_lu) {
            assert!((p - q).abs() < 1e-12);
        }
    }

    #[test]
    fn overdetermined_matches_normal_equations() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]]);
        let b = [1.0, 2.2, 2.8, 4.1];
        let x = lstsq(&a, &b).unwrap();
        // Solve (A^T A) x = A^T b directly.
        let atb = a.matvec_t(&b);
        let x_ne = crate::lu::solve(&a.gram(), &atb).unwrap();
        for (p, q) in x.iter().zip(&x_ne) {
            assert!((p - q).abs() < 1e-10);
        }
    }

    #[test]
    fn residual_is_orthogonal_to_columns() {
        let a = Matrix::from_rows(&[&[2.0, 0.5], &[1.0, -1.0], &[0.0, 3.0], &[1.0, 1.0]]);
        let b = [1.0, 0.0, 2.0, -1.0];
        let x = lstsq(&a, &b).unwrap();
        let ax = a.matvec(&x);
        let r: Vec<f64> = b.iter().zip(&ax).map(|(bi, axi)| bi - axi).collect();
        // A^T r should be ~ 0 at the least-squares optimum.
        let atr = a.matvec_t(&r);
        assert!(crate::norm_inf(&atr) < 1e-10);
    }

    #[test]
    fn rank_deficiency_is_reported() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
        let qr = Qr::factor(&a).unwrap();
        assert!(!qr.is_full_rank());
        assert!(qr.solve_least_squares(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn underdetermined_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(Qr::factor(&a).is_err());
    }
}
