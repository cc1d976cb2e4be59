//! The compact-model trait, the single device-differentiation site
//! ([`MosfetModel::eval_dc`] / [`MosfetModel::eval_charges`]), and the
//! polarity/drain-source folding shared by every model implementation.

use crate::dual::{Dual, Scalar};
use crate::types::{Geometry, Polarity};

/// Terminal bias relative to the source, in volts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Bias {
    /// Gate-source voltage.
    pub vgs: f64,
    /// Drain-source voltage.
    pub vds: f64,
    /// Bulk-source voltage.
    pub vbs: f64,
}

/// Terminal charges in coulombs. `qg + qd + qs + qb == 0` (charge
/// conservation) holds for every model in this crate.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Charges {
    /// Gate charge.
    pub qg: f64,
    /// Drain charge.
    pub qd: f64,
    /// Source charge.
    pub qs: f64,
    /// Bulk charge.
    pub qb: f64,
}

impl Charges {
    /// The charges in terminal order `[qg, qd, qs, qb]`.
    pub fn terminals(self) -> [f64; 4] {
        [self.qg, self.qd, self.qs, self.qb]
    }

    fn from_terminals([qg, qd, qs, qb]: [f64; 4]) -> Self {
        Charges { qg, qd, qs, qb }
    }
}

/// Drain current and its partials at one bias point — what a Newton stamp
/// and an AC linearization need from a device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DcEval {
    /// Drain current, A (as [`MosfetModel::ids`]).
    pub ids: f64,
    /// Transconductance `∂Id/∂Vgs`, S.
    pub gm: f64,
    /// Output conductance `∂Id/∂Vds`, S.
    pub gds: f64,
    /// Body transconductance `∂Id/∂Vbs`, S.
    pub gmb: f64,
}

/// Terminal charges and their partials at one bias point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChargeEval {
    /// The charges (as [`MosfetModel::charges`]).
    pub q: Charges,
    /// `dq[t] = [∂q/∂Vgs, ∂q/∂Vds, ∂q/∂Vbs]` of terminal `t`, in the
    /// order of [`Charges::terminals`], F.
    pub dq: [[f64; 3]; 4],
}

impl ChargeEval {
    fn from_duals(q: [Dual; 4]) -> Self {
        ChargeEval {
            q: Charges::from_terminals(q.map(|t| t.v)),
            dq: q.map(|t| t.d),
        }
    }
}

/// Voltage step of the default forward differences (V).
const FD_STEP: f64 = 1e-6;

/// `bias` with each of `vgs`, `vds`, `vbs` in turn raised by [`FD_STEP`].
fn stepped(bias: Bias) -> [Bias; 3] {
    [
        Bias {
            vgs: bias.vgs + FD_STEP,
            ..bias
        },
        Bias {
            vds: bias.vds + FD_STEP,
            ..bias
        },
        Bias {
            vbs: bias.vbs + FD_STEP,
            ..bias
        },
    ]
}

/// A compact MOSFET model instance: fixed parameters + geometry +
/// per-instance mismatch, evaluated at arbitrary bias.
///
/// Implementations must be *smooth* in all terminal voltages (the circuit
/// simulator's Newton iteration needs their partials) and must satisfy
/// source/drain symmetry: swapping drain and source negates the current.
///
/// The simulator takes every partial it needs through [`eval_dc`] and
/// [`eval_charges`]. Both models in this crate override them with an
/// exact forward-mode evaluation of their core equations
/// ([`crate::dual`]); the defaults take forward differences of [`ids`]
/// and [`charges`] with a 1 µV step, so an implementor that only provides
/// values (a wrapper, a test double) still simulates.
///
/// [`eval_dc`]: MosfetModel::eval_dc
/// [`eval_charges`]: MosfetModel::eval_charges
/// [`ids`]: MosfetModel::ids
/// [`charges`]: MosfetModel::charges
pub trait MosfetModel: Send + Sync + std::fmt::Debug {
    /// Device polarity.
    fn polarity(&self) -> Polarity;

    /// Device geometry.
    fn geometry(&self) -> Geometry;

    /// Drain terminal current in amps (positive into the drain for NMOS in
    /// forward operation).
    fn ids(&self, bias: Bias) -> f64;

    /// Terminal charges in coulombs.
    fn charges(&self, bias: Bias) -> Charges;

    /// Short human-readable model name ("vs", "bsim").
    fn name(&self) -> &'static str;

    /// Clones the model instance into a box (object-safe `Clone`).
    fn clone_box(&self) -> Box<dyn MosfetModel>;

    /// Drain current and its partials `gm`, `gds`, `gmb` at `bias`.
    ///
    /// Default: forward differences of [`MosfetModel::ids`], one 1 µV step
    /// per terminal voltage (four `ids` calls). Overrides must return
    /// `ids` bit-identical to [`MosfetModel::ids`].
    fn eval_dc(&self, bias: Bias) -> DcEval {
        let ids = self.ids(bias);
        let [gm, gds, gmb] = stepped(bias).map(|db| (self.ids(db) - ids) / FD_STEP);
        DcEval { ids, gm, gds, gmb }
    }

    /// Terminal charges and their partials at `bias`.
    ///
    /// Default: forward differences of [`MosfetModel::charges`], one 1 µV
    /// step per terminal voltage.
    fn eval_charges(&self, bias: Bias) -> ChargeEval {
        let q = self.charges(bias);
        let mut dq = [[0.0; 3]; 4];
        for (k, db) in stepped(bias).into_iter().enumerate() {
            let qp = self.charges(db).terminals();
            for (t, q0) in q.terminals().into_iter().enumerate() {
                dq[t][k] = (qp[t] - q0) / FD_STEP;
            }
        }
        ChargeEval { q, dq }
    }
}

impl Clone for Box<dyn MosfetModel> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Canonical (NMOS-like, `vds >= 0`) bias produced by [`fold`].
#[derive(Debug, Clone, Copy)]
pub struct Folded {
    /// Gate-source voltage in the canonical frame.
    pub vgs: f64,
    /// Drain-source voltage in the canonical frame (always `>= 0`).
    pub vds: f64,
    /// Bulk-source voltage in the canonical frame.
    pub vbs: f64,
    /// `true` when drain and source were exchanged (`vds < 0` originally).
    pub swapped: bool,
    /// Polarity sign that was applied (`+1` NMOS, `-1` PMOS).
    pub sign: f64,
}

/// Folds an arbitrary bias into the canonical NMOS-like frame.
///
/// PMOS terminal voltages are negated; if the (folded) `vds` is negative,
/// drain and source are exchanged so the core equations only ever see
/// `vds >= 0`. [`Folded::unfold_current`] and [`Folded::unfold_charges`]
/// restore the physical sign conventions.
pub fn fold(polarity: Polarity, bias: Bias) -> Folded {
    let s = polarity.sign();
    let (vgs, vds, vbs) = (s * bias.vgs, s * bias.vds, s * bias.vbs);
    if vds >= 0.0 {
        Folded {
            vgs,
            vds,
            vbs,
            swapped: false,
            sign: s,
        }
    } else {
        // Exchange drain and source: the new source is the old drain.
        Folded {
            vgs: vgs - vds,
            vds: -vds,
            vbs: vbs - vds,
            swapped: true,
            sign: s,
        }
    }
}

impl Folded {
    /// The canonical-frame voltages `(vgs, vds, vbs)` as duals seeded with
    /// their partials with respect to the *physical* bias — the fold's own
    /// Jacobian, so a core evaluated on them differentiates through it.
    pub(crate) fn seeds(&self) -> (Dual, Dual, Dual) {
        let s = self.sign;
        if self.swapped {
            (
                Dual::new(self.vgs, [s, -s, 0.0]),
                Dual::new(self.vds, [0.0, -s, 0.0]),
                Dual::new(self.vbs, [0.0, -s, s]),
            )
        } else {
            (
                Dual::new(self.vgs, [s, 0.0, 0.0]),
                Dual::new(self.vds, [0.0, s, 0.0]),
                Dual::new(self.vbs, [0.0, 0.0, s]),
            )
        }
    }

    /// Sign mapping a canonical-frame drain current to the physical frame.
    fn current_sign(&self) -> f64 {
        let swap_sign = if self.swapped { -1.0 } else { 1.0 };
        self.sign * swap_sign
    }

    /// Maps a canonical-frame drain current back to the physical frame.
    pub fn unfold_current(&self, id_canonical: f64) -> f64 {
        self.current_sign() * id_canonical
    }

    /// [`Folded::unfold_current`] for a dual current from [`Folded::seeds`].
    pub(crate) fn unfold_dc(&self, id_canonical: Dual) -> DcEval {
        let k = self.current_sign();
        let [gm, gds, gmb] = id_canonical.d.map(|d| k * d);
        DcEval {
            ids: k * id_canonical.v,
            gm,
            gds,
            gmb,
        }
    }

    /// Maps canonical-frame charges back to the physical frame.
    pub fn unfold_charges(&self, q: Charges) -> Charges {
        Charges::from_terminals(self.unfold_terminals(q.terminals()))
    }

    /// [`Folded::unfold_charges`] for dual charges from [`Folded::seeds`].
    pub(crate) fn unfold_charge_eval(&self, q: [Dual; 4]) -> ChargeEval {
        ChargeEval::from_duals(self.unfold_terminals(q))
    }

    fn unfold_terminals<T: Scalar>(&self, [qg, qd, qs, qb]: [T; 4]) -> [T; 4] {
        let (qd, qs) = if self.swapped { (qs, qd) } else { (qd, qs) };
        [qg, qd, qs, qb].map(|q| q * self.sign)
    }
}

/// Smooth channel-charge partition between source and drain.
///
/// Returns the drain share of the (negative) channel charge: 1/2 in the
/// linear region, trending to 2/5 (the classic "40/60" split) deep in
/// saturation, blended smoothly by the saturation function `fsat in [0, 1]`.
pub fn drain_partition<T: Scalar>(fsat: T) -> T {
    T::constant(0.5) - fsat.clamp(0.0, 1.0) * 0.1
}

/// Canonical-frame terminal charges `[qg, qd, qs, qb]` of a channel
/// charge magnitude `qch` split `pd : 1 - pd` between drain and source,
/// plus the gate-source and gate-drain overlap charges of capacitance
/// `covw` each; no bulk charge. Shared by both models.
pub(crate) fn terminal_charges<T: Scalar>(qch: T, pd: T, covw: f64, vgs: T, vds: T) -> [T; 4] {
    let vgd = vgs - vds;
    [
        qch + vgs * covw + vgd * covw,
        -pd * qch - vgd * covw,
        -(T::constant(1.0) - pd) * qch - vgs * covw,
        T::constant(0.0),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_nmos_forward_is_identity() {
        let f = fold(
            Polarity::Nmos,
            Bias {
                vgs: 0.9,
                vds: 0.5,
                vbs: -0.1,
            },
        );
        assert!(!f.swapped);
        assert_eq!(f.vgs, 0.9);
        assert_eq!(f.vds, 0.5);
        assert_eq!(f.vbs, -0.1);
        assert_eq!(f.unfold_current(1.0), 1.0);
    }

    #[test]
    fn fold_nmos_reverse_swaps_terminals() {
        let f = fold(
            Polarity::Nmos,
            Bias {
                vgs: 0.9,
                vds: -0.5,
                vbs: 0.0,
            },
        );
        assert!(f.swapped);
        // New gate-source voltage is vgd = vgs - vds.
        assert!((f.vgs - 1.4).abs() < 1e-15);
        assert!((f.vds - 0.5).abs() < 1e-15);
        assert_eq!(f.unfold_current(1.0), -1.0);
    }

    #[test]
    fn fold_pmos_negates() {
        let f = fold(
            Polarity::Pmos,
            Bias {
                vgs: -0.9,
                vds: -0.5,
                vbs: 0.0,
            },
        );
        assert!(!f.swapped);
        assert!((f.vgs - 0.9).abs() < 1e-15);
        assert!((f.vds - 0.5).abs() < 1e-15);
        assert_eq!(f.unfold_current(2.0), -2.0);
    }

    #[test]
    fn unfold_charges_swaps_and_signs() {
        let f = fold(
            Polarity::Nmos,
            Bias {
                vgs: 0.0,
                vds: -1.0,
                vbs: 0.0,
            },
        );
        let q = Charges {
            qg: 1.0,
            qd: -0.4,
            qs: -0.6,
            qb: 0.0,
        };
        let u = f.unfold_charges(q);
        assert_eq!(u.qd, -0.6);
        assert_eq!(u.qs, -0.4);
        assert_eq!(u.qg, 1.0);
    }

    #[test]
    fn partition_limits() {
        assert_eq!(drain_partition(0.0), 0.5);
        assert!((drain_partition(1.0) - 0.4).abs() < 1e-15);
        // Clamped outside [0, 1].
        assert_eq!(drain_partition(2.0), 0.4);
        assert_eq!(drain_partition(-1.0), 0.5);
    }
}
