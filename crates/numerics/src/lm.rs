//! Levenberg-Marquardt nonlinear least squares.
//!
//! The nominal VS model is extracted by fitting its 8 free DC parameters to
//! I-V data generated by the golden kit (paper Fig. 1). Rust's crate
//! ecosystem is thin on robust nonlinear fitting, so this is a from-scratch
//! implementation with:
//!
//! * forward-difference Jacobians (residuals are cheap),
//! * multiplicative damping with Nielsen's update strategy,
//! * optional box constraints enforced by projection,
//! * convergence on gradient, step, and relative cost reduction.

use crate::{jacobian, lu, NumericsError};

/// Options controlling the Levenberg-Marquardt iteration.
#[derive(Debug, Clone)]
pub struct LmOptions {
    /// Maximum number of outer iterations.
    pub max_iter: usize,
    /// Stop when the infinity norm of the gradient falls below this.
    pub g_tol: f64,
    /// Stop when the relative step size falls below this.
    pub x_tol: f64,
    /// Stop when the relative cost reduction falls below this.
    pub f_tol: f64,
    /// Initial damping scale (multiplied by the largest diagonal of J^T J).
    pub tau: f64,
    /// Optional lower bounds (per parameter).
    pub lower: Option<Vec<f64>>,
    /// Optional upper bounds (per parameter).
    pub upper: Option<Vec<f64>>,
}

impl Default for LmOptions {
    fn default() -> Self {
        LmOptions {
            max_iter: 200,
            g_tol: 1e-10,
            x_tol: 1e-12,
            f_tol: 1e-12,
            tau: 1e-3,
            lower: None,
            upper: None,
        }
    }
}

/// Why the iteration stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LmStatus {
    /// Gradient tolerance reached (first-order optimality).
    GradientConverged,
    /// Step-size tolerance reached.
    StepConverged,
    /// Relative cost reduction tolerance reached.
    CostConverged,
    /// Iteration budget exhausted (result may still be usable).
    MaxIterations,
}

/// Result of a Levenberg-Marquardt fit.
#[derive(Debug, Clone)]
pub struct LmResult {
    /// Best parameter vector found.
    pub x: Vec<f64>,
    /// Final cost `0.5 * ||r||^2`.
    pub cost: f64,
    /// Final residual vector.
    pub residuals: Vec<f64>,
    /// Number of iterations performed.
    pub iterations: usize,
    /// Number of residual-function evaluations.
    pub n_evals: usize,
    /// Termination reason.
    pub status: LmStatus,
}

fn project(x: &mut [f64], opts: &LmOptions) {
    if let Some(lo) = &opts.lower {
        for (xi, &l) in x.iter_mut().zip(lo) {
            if *xi < l {
                *xi = l;
            }
        }
    }
    if let Some(hi) = &opts.upper {
        for (xi, &u) in x.iter_mut().zip(hi) {
            if *xi > u {
                *xi = u;
            }
        }
    }
}

/// Minimizes `0.5 * ||f(x)||^2` starting from `x0`.
///
/// `f` maps parameters to a residual vector (length may exceed the parameter
/// count). Returns the best iterate with diagnostics.
///
/// # Errors
///
/// Returns [`NumericsError::InvalidArgument`] when `x0` is empty, bounds have
/// the wrong length, or the initial residual is non-finite. Linear-algebra
/// failures inside the damped normal equations propagate as their own errors
/// (they are retried with more damping first).
///
/// # Example
///
/// ```
/// use numerics::lm::{levenberg_marquardt, LmOptions};
///
/// # fn main() -> Result<(), numerics::NumericsError> {
/// // Fit y = a * exp(b t) to exact data; recover (a, b) = (2, -1).
/// let ts: Vec<f64> = (0..20).map(|i| i as f64 * 0.1).collect();
/// let ys: Vec<f64> = ts.iter().map(|t| 2.0 * (-t).exp()).collect();
/// let res = levenberg_marquardt(
///     |p| ts.iter().zip(&ys).map(|(t, y)| p[0] * (p[1] * t).exp() - y).collect(),
///     &[1.0, 0.0],
///     LmOptions::default(),
/// )?;
/// assert!((res.x[0] - 2.0).abs() < 1e-6);
/// assert!((res.x[1] + 1.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
pub fn levenberg_marquardt<F>(
    mut f: F,
    x0: &[f64],
    opts: LmOptions,
) -> Result<LmResult, NumericsError>
where
    F: FnMut(&[f64]) -> Vec<f64>,
{
    let n = x0.len();
    if n == 0 {
        return Err(NumericsError::InvalidArgument {
            context: "empty parameter vector".into(),
        });
    }
    for (name, b) in [("lower", &opts.lower), ("upper", &opts.upper)] {
        if let Some(b) = b {
            if b.len() != n {
                return Err(NumericsError::InvalidArgument {
                    context: format!("{name} bounds length {} != {}", b.len(), n),
                });
            }
        }
    }

    let mut x = x0.to_vec();
    project(&mut x, &opts);
    let mut r = f(&x);
    let mut n_evals = 1usize;
    if r.iter().any(|v| !v.is_finite()) {
        return Err(NumericsError::InvalidArgument {
            context: "initial residual is not finite".into(),
        });
    }
    let mut cost = 0.5 * crate::dot(&r, &r);

    let mut jac = jacobian::jacobian_fwd(&mut f, &x, &r);
    n_evals += n;
    let mut jtj = jac.gram();
    let mut g = jac.matvec_t(&r);

    // With Marquardt diagonal scaling the damping parameter is
    // dimensionless.
    let mut mu = opts.tau;
    let mut nu = 2.0;
    let mut status = LmStatus::MaxIterations;
    let mut iterations = 0;

    for iter in 0..opts.max_iter {
        iterations = iter + 1;
        if crate::norm_inf(&g) < opts.g_tol {
            status = LmStatus::GradientConverged;
            break;
        }
        // Solve (J^T J + mu D) dx = -g with Marquardt scaling D =
        // diag(J^T J) (floored), increasing mu on failure. Diagonal scaling
        // keeps badly scaled parameter vectors (volts next to velocities)
        // converging at the same rate.
        let d_floor = (0..n).map(|i| jtj[(i, i)]).fold(0.0_f64, f64::max) * 1e-12 + 1e-300;
        let mut dx = loop {
            let mut a = jtj.clone();
            for i in 0..n {
                a[(i, i)] += mu * jtj[(i, i)].max(d_floor);
            }
            let rhs: Vec<f64> = g.iter().map(|v| -v).collect();
            match lu::solve(&a, &rhs) {
                Ok(dx) => break dx,
                Err(_) => {
                    mu *= 10.0;
                    nu = 2.0;
                    if mu > 1e30 {
                        return Err(NumericsError::NoConvergence {
                            algorithm: "levenberg-marquardt",
                            iterations: iter,
                            residual: cost,
                        });
                    }
                }
            }
        };

        let mut x_new: Vec<f64> = x.iter().zip(&dx).map(|(xi, di)| xi + di).collect();
        project(&mut x_new, &opts);
        // Recompute the effective step after projection.
        for (di, (xn, xi)) in dx.iter_mut().zip(x_new.iter().zip(&x)) {
            *di = xn - xi;
        }

        let step_norm = crate::norm2(&dx);
        let x_norm = crate::norm2(&x).max(1e-30);
        if step_norm < opts.x_tol * x_norm {
            status = LmStatus::StepConverged;
            break;
        }

        let r_new = f(&x_new);
        n_evals += 1;
        let cost_new = if r_new.iter().all(|v| v.is_finite()) {
            0.5 * crate::dot(&r_new, &r_new)
        } else {
            f64::INFINITY
        };

        // Gain ratio: actual vs predicted reduction.
        let mut predicted = 0.0;
        for i in 0..n {
            predicted += dx[i] * (mu * jtj[(i, i)].max(d_floor) * dx[i] - g[i]);
        }
        predicted *= 0.5;
        let actual = cost - cost_new;
        let rho = if predicted > 0.0 {
            actual / predicted
        } else {
            -1.0
        };

        if rho > 0.0 && cost_new < cost {
            let rel_reduction = actual / cost.max(1e-300);
            x = x_new;
            r = r_new;
            cost = cost_new;
            jac = jacobian::jacobian_fwd(&mut f, &x, &r);
            n_evals += n;
            jtj = jac.gram();
            g = jac.matvec_t(&r);
            mu *= (1.0_f64 / 3.0).max(1.0 - (2.0 * rho - 1.0).powi(3));
            nu = 2.0;
            if rel_reduction < opts.f_tol {
                status = LmStatus::CostConverged;
                break;
            }
        } else {
            mu *= nu;
            nu *= 2.0;
            if mu > 1e30 {
                status = LmStatus::StepConverged;
                break;
            }
        }
    }

    Ok(LmResult {
        x,
        cost,
        residuals: r,
        iterations,
        n_evals,
        status,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_rosenbrock_valley() {
        // Rosenbrock as residuals: r = (10(y - x^2), 1 - x); minimum at (1, 1).
        let res = levenberg_marquardt(
            |p| vec![10.0 * (p[1] - p[0] * p[0]), 1.0 - p[0]],
            &[-1.2, 1.0],
            LmOptions::default(),
        )
        .unwrap();
        assert!((res.x[0] - 1.0).abs() < 1e-6, "{:?}", res.x);
        assert!((res.x[1] - 1.0).abs() < 1e-6);
        assert!(res.cost < 1e-12);
    }

    #[test]
    fn linear_problem_converges_immediately() {
        // r = A x - b with the LS optimum at x = (1, 2).
        let res = levenberg_marquardt(
            |p| vec![p[0] - 1.0, p[1] - 2.0, 0.5 * (p[0] - 1.0)],
            &[10.0, -5.0],
            LmOptions::default(),
        )
        .unwrap();
        assert!((res.x[0] - 1.0).abs() < 1e-8);
        assert!((res.x[1] - 2.0).abs() < 1e-8);
    }

    #[test]
    fn respects_bounds() {
        // Unconstrained optimum at x = -3; lower bound at 0.
        let res = levenberg_marquardt(
            |p| vec![p[0] + 3.0],
            &[5.0],
            LmOptions {
                lower: Some(vec![0.0]),
                ..LmOptions::default()
            },
        )
        .unwrap();
        assert!(
            res.x[0].abs() < 1e-9,
            "clamped solution should sit at 0, got {}",
            res.x[0]
        );
    }

    #[test]
    fn exponential_fit_with_noiseless_data() {
        let ts: Vec<f64> = (0..30).map(|i| i as f64 * 0.05).collect();
        let ys: Vec<f64> = ts.iter().map(|t| 3.0 * (-2.0 * t).exp() + 0.5).collect();
        let res = levenberg_marquardt(
            |p| {
                ts.iter()
                    .zip(&ys)
                    .map(|(t, y)| p[0] * (p[1] * t).exp() + p[2] - y)
                    .collect()
            },
            &[1.0, -1.0, 0.0],
            LmOptions::default(),
        )
        .unwrap();
        assert!((res.x[0] - 3.0).abs() < 1e-5, "{:?}", res);
        assert!((res.x[1] + 2.0).abs() < 1e-5);
        assert!((res.x[2] - 0.5).abs() < 1e-5);
    }

    #[test]
    fn rejects_empty_parameters() {
        assert!(levenberg_marquardt(|_| vec![], &[], LmOptions::default()).is_err());
    }

    #[test]
    fn rejects_bad_bounds_length() {
        let opts = LmOptions {
            lower: Some(vec![0.0, 0.0]),
            ..LmOptions::default()
        };
        assert!(levenberg_marquardt(|p| vec![p[0]], &[1.0], opts).is_err());
    }

    #[test]
    fn rejects_non_finite_initial_residual() {
        assert!(levenberg_marquardt(|_| vec![f64::NAN], &[1.0], LmOptions::default()).is_err());
    }

    #[test]
    fn reports_eval_counts() {
        let res = levenberg_marquardt(|p| vec![p[0] - 1.0], &[0.0], LmOptions::default()).unwrap();
        assert!(res.n_evals >= 2);
        assert!(res.iterations >= 1);
    }
}
