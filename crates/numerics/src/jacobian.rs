//! Forward-difference Jacobians for Levenberg-Marquardt ([`crate::lm`]).

use crate::Matrix;

/// Relative step of [`jacobian_fwd`]: `sqrt(eps)` is the textbook-optimal
/// scale for forward differences.
const REL_STEP: f64 = 1.49e-8;

/// Forward-difference Jacobian of `f: R^n -> R^m` reusing a precomputed
/// `f0 = f(x)`. The result is `m x n`, and column `j` steps `x_j` by
/// `REL_STEP * max(|x_j|, 1)` so the step stays meaningful near zero.
///
/// It costs `n` extra evaluations (central differences would cost `2n`)
/// at first-order accuracy; Levenberg-Marquardt already holds the
/// residual at `x`.
pub fn jacobian_fwd<F>(mut f: F, x: &[f64], f0: &[f64]) -> Matrix
where
    F: FnMut(&[f64]) -> Vec<f64>,
{
    let n = x.len();
    let m = f0.len();
    let mut jac = Matrix::zeros(m, n);
    let mut xp = x.to_vec();
    for j in 0..n {
        let h = REL_STEP * x[j].abs().max(1.0);
        xp[j] = x[j] + h;
        let fp = f(&xp);
        debug_assert_eq!(fp.len(), m, "jacobian_fwd: inconsistent output length");
        for i in 0..m {
            jac[(i, j)] = (fp[i] - f0[i]) / h;
        }
        xp[j] = x[j];
    }
    jac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_jacobian_close_to_analytic() {
        let f = |x: &[f64]| vec![x[0] * x[1], x[0].exp()];
        let x = [1.0, 2.0];
        let f0 = f(&x);
        let jf = jacobian_fwd(f, &x, &f0);
        // d(x0 x1) = (x1, x0); d(exp x0) = (exp x0, 0).
        let exact = Matrix::from_rows(&[&[2.0, 1.0], &[1.0_f64.exp(), 0.0]]);
        assert!((&jf - &exact).norm_max() < 1e-6);
    }
}
