//! Forward-mode automatic differentiation over the three terminal voltages.
//!
//! The paper's Verilog-A implementation gets exact conductances from the
//! compiler's automatic differentiation; this module does the same for the
//! Rust models. Each model writes its core equations once, generic over
//! [`Scalar`]: instantiated at `f64` they are the plain current/charge
//! evaluation, instantiated at [`Dual`] every intermediate carries its
//! partials with respect to `(vgs, vds, vbs)` and the result is the value
//! together with its exact Jacobian row.
//!
//! The value part of every [`Dual`] operation is the very `f64` operation
//! the plain instantiation performs, so the value of a dual evaluation is
//! bit-identical to the plain one.

use std::ops::{Add, Div, Mul, Neg, Sub};

/// A number the model equations are evaluated on: `f64` for plain values,
/// [`Dual`] for values carrying partials.
///
/// Branches in the equations compare [`Scalar::value`], so a dual
/// evaluation takes the same guarded branch as the plain one. Generic
/// code keeps the scalar on the left of a plain `f64` (`x * c`, `x + c`,
/// bit-identical to `c * x`, `c + x`) and lifts a constant with
/// [`Scalar::constant`] where it must lead (`constant(c) - x`).
pub trait Scalar:
    Copy
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + Add<f64, Output = Self>
    + Sub<f64, Output = Self>
    + Mul<f64, Output = Self>
    + Div<f64, Output = Self>
{
    /// A constant (zero partials).
    fn constant(v: f64) -> Self;
    /// The plain value.
    fn value(self) -> f64;
    /// `1 / self`.
    fn recip(self) -> Self;
    /// `e^self`.
    fn exp(self) -> Self;
    /// `ln(1 + self)`.
    fn ln_1p(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Hyperbolic tangent.
    fn tanh(self) -> Self;
    /// `self^p` for a constant exponent.
    fn powf(self, p: f64) -> Self;
    /// `max(self, c)` for a constant floor.
    fn max(self, c: f64) -> Self;
    /// `min(self, c)` for a constant ceiling.
    fn min(self, c: f64) -> Self;
    /// `self` clamped to the constant range `[lo, hi]`.
    fn clamp(self, lo: f64, hi: f64) -> Self;
}

impl Scalar for f64 {
    #[inline]
    fn constant(v: f64) -> Self {
        v
    }
    #[inline]
    fn value(self) -> f64 {
        self
    }
    #[inline]
    fn recip(self) -> Self {
        f64::recip(self)
    }
    #[inline]
    fn exp(self) -> Self {
        f64::exp(self)
    }
    #[inline]
    fn ln_1p(self) -> Self {
        f64::ln_1p(self)
    }
    #[inline]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline]
    fn tanh(self) -> Self {
        f64::tanh(self)
    }
    #[inline]
    fn powf(self, p: f64) -> Self {
        f64::powf(self, p)
    }
    #[inline]
    fn max(self, c: f64) -> Self {
        f64::max(self, c)
    }
    #[inline]
    fn min(self, c: f64) -> Self {
        f64::min(self, c)
    }
    #[inline]
    fn clamp(self, lo: f64, hi: f64) -> Self {
        f64::clamp(self, lo, hi)
    }
}

/// A value with its partials `[∂/∂vgs, ∂/∂vds, ∂/∂vbs]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dual {
    /// The value.
    pub v: f64,
    /// Partials with respect to `(vgs, vds, vbs)`.
    pub d: [f64; 3],
}

impl Dual {
    /// A value with the given partials.
    #[inline]
    pub fn new(v: f64, d: [f64; 3]) -> Self {
        Dual { v, d }
    }

    /// The chain rule through a scalar function: the result has value
    /// `v` and partials `self.d * slope`.
    #[inline]
    fn chain(self, v: f64, slope: f64) -> Self {
        Dual {
            v,
            d: [self.d[0] * slope, self.d[1] * slope, self.d[2] * slope],
        }
    }
}

impl Scalar for Dual {
    #[inline]
    fn constant(v: f64) -> Self {
        Dual { v, d: [0.0; 3] }
    }
    #[inline]
    fn value(self) -> f64 {
        self.v
    }
    #[inline]
    fn recip(self) -> Self {
        let r = self.v.recip();
        self.chain(r, -r * r)
    }
    #[inline]
    fn exp(self) -> Self {
        let e = self.v.exp();
        self.chain(e, e)
    }
    #[inline]
    fn ln_1p(self) -> Self {
        self.chain(self.v.ln_1p(), 1.0 / (1.0 + self.v))
    }
    #[inline]
    fn sqrt(self) -> Self {
        let s = self.v.sqrt();
        self.chain(s, 0.5 / s)
    }
    #[inline]
    fn tanh(self) -> Self {
        let t = self.v.tanh();
        self.chain(t, 1.0 - t * t)
    }
    #[inline]
    fn powf(self, p: f64) -> Self {
        let r = self.v.powf(p);
        // p·v^(p-1), from the power already computed where v ≠ 0.
        let slope = if self.v == 0.0 {
            p * self.v.powf(p - 1.0)
        } else {
            p * r / self.v
        };
        self.chain(r, slope)
    }
    #[inline]
    fn max(self, c: f64) -> Self {
        if self.v > c {
            self
        } else {
            Dual::constant(c)
        }
    }
    #[inline]
    fn min(self, c: f64) -> Self {
        if self.v < c {
            self
        } else {
            Dual::constant(c)
        }
    }
    #[inline]
    fn clamp(self, lo: f64, hi: f64) -> Self {
        // `f64::clamp`'s branches: NaN passes through.
        if self.v < lo {
            Dual::constant(lo)
        } else if self.v > hi {
            Dual::constant(hi)
        } else {
            self
        }
    }
}

impl Add for Dual {
    type Output = Dual;
    #[inline]
    fn add(self, o: Dual) -> Dual {
        Dual {
            v: self.v + o.v,
            d: [self.d[0] + o.d[0], self.d[1] + o.d[1], self.d[2] + o.d[2]],
        }
    }
}

impl Sub for Dual {
    type Output = Dual;
    #[inline]
    fn sub(self, o: Dual) -> Dual {
        Dual {
            v: self.v - o.v,
            d: [self.d[0] - o.d[0], self.d[1] - o.d[1], self.d[2] - o.d[2]],
        }
    }
}

impl Mul for Dual {
    type Output = Dual;
    #[inline]
    fn mul(self, o: Dual) -> Dual {
        Dual {
            v: self.v * o.v,
            d: [
                self.d[0] * o.v + o.d[0] * self.v,
                self.d[1] * o.v + o.d[1] * self.v,
                self.d[2] * o.v + o.d[2] * self.v,
            ],
        }
    }
}

impl Div for Dual {
    type Output = Dual;
    #[inline]
    fn div(self, o: Dual) -> Dual {
        let v = self.v / o.v;
        let inv = 1.0 / o.v;
        Dual {
            v,
            d: [
                (self.d[0] - v * o.d[0]) * inv,
                (self.d[1] - v * o.d[1]) * inv,
                (self.d[2] - v * o.d[2]) * inv,
            ],
        }
    }
}

impl Neg for Dual {
    type Output = Dual;
    #[inline]
    fn neg(self) -> Dual {
        Dual {
            v: -self.v,
            d: [-self.d[0], -self.d[1], -self.d[2]],
        }
    }
}

impl Add<f64> for Dual {
    type Output = Dual;
    #[inline]
    fn add(self, c: f64) -> Dual {
        Dual {
            v: self.v + c,
            d: self.d,
        }
    }
}

impl Sub<f64> for Dual {
    type Output = Dual;
    #[inline]
    fn sub(self, c: f64) -> Dual {
        Dual {
            v: self.v - c,
            d: self.d,
        }
    }
}

impl Mul<f64> for Dual {
    type Output = Dual;
    #[inline]
    fn mul(self, c: f64) -> Dual {
        self.chain(self.v * c, c)
    }
}

impl Div<f64> for Dual {
    type Output = Dual;
    #[inline]
    fn div(self, c: f64) -> Dual {
        self.chain(self.v / c, 1.0 / c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `f(x) = x·e^x / (1 + √x)` — a product, a quotient, `exp` and
    /// `sqrt` — against its analytic derivative.
    #[test]
    fn chain_rule_matches_the_analytic_derivative() {
        let f = |x: Dual| x * x.exp() / (x.sqrt() + 1.0);
        for &x0 in &[0.1, 0.7, 2.5] {
            let x = Dual::new(x0, [1.0, 0.0, 0.0]);
            let y = f(x);
            let s = x0.sqrt();
            let expect = ((1.0 + x0) * x0.exp() * (1.0 + s) - x0 * x0.exp() * 0.5 / s)
                / ((1.0 + s) * (1.0 + s));
            assert!((y.d[0] - expect).abs() < 1e-12 * expect.abs(), "x = {x0}");
            assert_eq!(y.d[1], 0.0);
            assert_eq!(y.v, x0 * x0.exp() / (1.0 + x0.sqrt()));
        }
    }

    #[test]
    fn values_are_the_plain_f64_operations() {
        let a = Dual::new(0.37, [1.0, 2.0, 3.0]);
        let b = Dual::new(-1.9, [0.5, -1.0, 0.25]);
        assert_eq!((a * b).v, 0.37 * -1.9);
        assert_eq!((a / b).v, 0.37 / -1.9);
        assert_eq!((Dual::constant(2.0) - a).v, 2.0 - 0.37);
        assert_eq!(b.recip().v, 1.0 / -1.9);
        assert_eq!(a.powf(1.8).v, 0.37f64.powf(1.8));
        assert_eq!(b.exp().ln_1p().v, (-1.9f64).exp().ln_1p());
        assert_eq!(b.tanh().v, (-1.9f64).tanh());
    }

    #[test]
    fn quotient_and_power_partials() {
        let x = Dual::new(1.5, [1.0, 0.0, 0.0]);
        let y = Dual::new(0.5, [0.0, 1.0, 0.0]);
        let q = x / y;
        assert!((q.d[0] - 2.0).abs() < 1e-15);
        assert!((q.d[1] + 6.0).abs() < 1e-14);
        let p = x.powf(1.8);
        assert!((p.d[0] - 1.8 * 1.5f64.powf(0.8)).abs() < 1e-14);
        let r = y.recip();
        assert!((r.d[1] + 4.0).abs() < 1e-14);
    }

    #[test]
    fn clamps_cut_the_partials() {
        let x = Dual::new(0.5, [1.0, 1.0, 1.0]);
        assert_eq!(x.max(1.0), Dual::constant(1.0));
        assert_eq!(x.max(0.0), x);
        assert_eq!(x.min(0.0), Dual::constant(0.0));
        assert_eq!(x.clamp(0.0, 1.0), x);
        assert_eq!(
            Dual::new(2.0, [1.0; 3]).clamp(0.0, 1.0),
            Dual::constant(1.0)
        );
    }
}
