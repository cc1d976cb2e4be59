//! Error type shared by the numerical routines.

use std::fmt;

/// Errors produced by the numerical kernels.
#[derive(Debug, Clone, PartialEq)]
pub enum NumericsError {
    /// A matrix was singular (or numerically singular) during factorization.
    SingularMatrix {
        /// Pivot index at which breakdown was detected.
        pivot: usize,
    },
    /// A covariance matrix was not positive definite.
    NotPositiveDefinite {
        /// Diagonal index at which breakdown was detected.
        index: usize,
    },
    /// Matrix/vector dimensions were inconsistent.
    DimensionMismatch {
        /// Human-readable description of the mismatch.
        context: String,
    },
    /// An iterative method failed to converge within its iteration budget.
    NoConvergence {
        /// Name of the algorithm that failed.
        algorithm: &'static str,
        /// Number of iterations performed.
        iterations: usize,
        /// Residual or error measure at the final iterate.
        residual: f64,
    },
    /// Invalid argument (empty input, non-finite value, bad tolerance, ...).
    InvalidArgument {
        /// Human-readable description.
        context: String,
    },
}

impl fmt::Display for NumericsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumericsError::SingularMatrix { pivot } => {
                write!(f, "singular matrix detected at pivot {pivot}")
            }
            NumericsError::NotPositiveDefinite { index } => {
                write!(f, "matrix not positive definite at diagonal {index}")
            }
            NumericsError::DimensionMismatch { context } => {
                write!(f, "dimension mismatch: {context}")
            }
            NumericsError::NoConvergence {
                algorithm,
                iterations,
                residual,
            } => write!(
                f,
                "{algorithm} failed to converge after {iterations} iterations (residual {residual:.3e})"
            ),
            NumericsError::InvalidArgument { context } => {
                write!(f, "invalid argument: {context}")
            }
        }
    }
}

impl std::error::Error for NumericsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty() {
        let errors = [
            NumericsError::SingularMatrix { pivot: 3 },
            NumericsError::NotPositiveDefinite { index: 1 },
            NumericsError::DimensionMismatch {
                context: "3x2 vs 4".into(),
            },
            NumericsError::NoConvergence {
                algorithm: "lm",
                iterations: 100,
                residual: 1.0,
            },
            NumericsError::InvalidArgument {
                context: "empty".into(),
            },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }
}
