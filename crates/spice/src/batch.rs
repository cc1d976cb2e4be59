//! Batched K-lane DC stamping and Newton iteration.
//!
//! One pass over the circuit topology writes K MNA systems (one per Monte
//! Carlo lane) into lane-major [`BMatrix`] storage, then a batched Newton
//! loop factors and solves all active lanes through
//! [`numerics::blu::BLu`]. Per-lane state (iterate, damping, convergence,
//! failure) is fully independent: the sharing is *traversal and layout*,
//! never arithmetic, so lane `l` performs exactly the floating-point
//! operation sequence of a scalar [`crate::engine::newton`] solve from the
//! same starting point — the bit-identity contract
//! [`crate::session::Session::dc_batch`] exposes and the
//! `batch_equivalence` suite pins.
//!
//! Static elements (resistors, sources) evaluate once per element and
//! stamp into every active lane; MOSFETs evaluate per lane through the
//! lane's own model and the scalar path's stamp
//! ([`crate::engine::MosStamp`]), so the device is differentiated at one
//! site for both paths.

use crate::elements::Element;
use crate::engine::{volt, MosStamp, GMIN_FLOOR, I_TOL, KCL_TOL, MAX_DV, MAX_NEWTON, V_TOL};
use crate::error::SpiceError;
use crate::netlist::Circuit;
use mosfet::{Bias, MosfetModel};
use numerics::blu::{BLu, BMatrix};

/// Scratch space for batched DC Newton solves, reused across batches by
/// [`crate::session::Session`]. All per-lane vectors are lane-major: lane
/// `l` of an `n`-unknown system occupies `[l*n, (l+1)*n)`.
#[derive(Debug)]
pub(crate) struct BatchWorkspace {
    n: usize,
    nn: usize,
    k: usize,
    a: BMatrix,
    b: Vec<f64>,
    blu: BLu,
    x: Vec<f64>,
    x_new: Vec<f64>,
    active: Vec<bool>,
    check: Vec<bool>,
}

impl BatchWorkspace {
    /// Allocates storage for `k` lanes of an `n`-unknown, `nn`-node system.
    pub(crate) fn new(n: usize, nn: usize, k: usize) -> Result<Self, SpiceError> {
        Ok(BatchWorkspace {
            n,
            nn,
            k,
            a: BMatrix::zeros(n, k)?,
            b: vec![0.0; k * n],
            blu: BLu::new(n, k)?,
            x: vec![0.0; k * n],
            x_new: vec![0.0; k * n],
            active: vec![false; k],
            check: vec![false; k],
        })
    }

    /// Whether this workspace fits a `k`-lane batch of an `n`-unknown system.
    pub(crate) fn fits(&self, n: usize, k: usize) -> bool {
        self.n == n && self.k == k
    }
}

/// Assembles the DC companion-model system for every lane where `active`
/// is `true`, in one pass over the topology. `mos[m][l]` is MOSFET `m`
/// (in element order) of lane `l`. Per lane, the element visit
/// order — and therefore every floating-point accumulation — matches the
/// scalar [`crate::engine::assemble`] exactly.
#[allow(clippy::too_many_arguments)]
fn assemble_batch(
    circuit: &Circuit,
    mos: &[Vec<&dyn MosfetModel>],
    xs: &[f64],
    gmin: f64,
    source_scale: f64,
    active: &[bool],
    a: &mut BMatrix,
    b: &mut [f64],
    nn: usize,
) {
    let n = a.order();
    // Active-lane iteration is allocation-free: `assemble_batch` runs once
    // per Newton iteration, so even one scratch `Vec` here would churn.
    let lanes = move || (0..active.len()).filter(|&l| active[l]);
    for l in lanes() {
        a.zero_lane(l);
        b[l * n..(l + 1) * n].iter_mut().for_each(|v| *v = 0.0);
    }

    // Conductance floor on every node keeps gates/floating nodes pinned.
    for l in lanes() {
        let lane = a.lane_mut(l);
        for i in 0..nn {
            lane[i * n + i] += GMIN_FLOOR + gmin;
        }
    }

    let mut v_idx = 0usize; // voltage-source branch counter
    let mut m_idx = 0usize; // mosfet counter

    for e in circuit.elements() {
        match e {
            Element::Resistor {
                a: na, b: nb, r, ..
            } => {
                let g = 1.0 / r;
                let (iu, ju) = (na.unknown(), nb.unknown());
                for l in lanes() {
                    let lane = a.lane_mut(l);
                    if let Some(i) = iu {
                        lane[i * n + i] += g;
                    }
                    if let Some(j) = ju {
                        lane[j * n + j] += g;
                    }
                    if let (Some(i), Some(j)) = (iu, ju) {
                        lane[i * n + j] -= g;
                        lane[j * n + i] -= g;
                    }
                }
            }
            Element::Capacitor { .. } => {} // open in DC
            Element::Vsource { pos, neg, wave, .. } => {
                let row = nn + v_idx;
                let val = wave.value(0.0) * source_scale;
                let (pu, nu) = (pos.unknown(), neg.unknown());
                for l in lanes() {
                    let lane = a.lane_mut(l);
                    if let Some(i) = pu {
                        lane[i * n + row] += 1.0;
                        lane[row * n + i] += 1.0;
                    }
                    if let Some(j) = nu {
                        lane[j * n + row] -= 1.0;
                        lane[row * n + j] -= 1.0;
                    }
                    b[l * n + row] = val;
                }
                v_idx += 1;
            }
            Element::Isource { pos, neg, wave, .. } => {
                // Current into pos = current leaving neg.
                let i_ab = wave.value(0.0) * source_scale;
                let (nu, pu) = (neg.unknown(), pos.unknown());
                for l in lanes() {
                    if let Some(i) = nu {
                        b[l * n + i] -= i_ab;
                    }
                    if let Some(j) = pu {
                        b[l * n + j] += i_ab;
                    }
                }
            }
            Element::Mosfet { d, g, s, b: nb, .. } => {
                let models = &mos[m_idx];
                let bulk_tied = nb == s;
                let nodes = [d.unknown(), g.unknown(), s.unknown(), nb.unknown()];
                for l in lanes() {
                    let x = &xs[l * n..(l + 1) * n];
                    let vd = volt(x, *d);
                    let vg = volt(x, *g);
                    let vs = volt(x, *s);
                    let vb = volt(x, *nb);
                    let bias = Bias {
                        vgs: vg - vs,
                        vds: vd - vs,
                        vbs: vb - vs,
                    };
                    let lane = a.lane_mut(l);
                    let rhs = &mut b[l * n..(l + 1) * n];
                    MosStamp::new(models[l], bias, bulk_tied).write(
                        nodes,
                        |i, j, v| lane[i * n + j] += v,
                        |i, v| rhs[i] += v,
                    );
                }
                m_idx += 1;
            }
        }
    }
}

/// Batched damped Newton-Raphson: all lanes start from `x0` and iterate
/// together; each lane converges, fails, or exhausts the budget on its
/// own (per-lane failure isolation). Returns one result per lane, where
/// `Ok` holds the lane's solution vector and every error carries the same
/// message the scalar [`crate::engine::newton`] would produce at the same
/// iteration.
pub(crate) fn newton_batch(
    circuit: &Circuit,
    mos: &[Vec<&dyn MosfetModel>],
    x0: &[f64],
    ws: &mut BatchWorkspace,
) -> Vec<Result<Vec<f64>, SpiceError>> {
    let (n, nn, k) = (ws.n, ws.nn, ws.k);
    debug_assert_eq!(x0.len(), n);
    for l in 0..k {
        ws.x[l * n..(l + 1) * n].copy_from_slice(x0);
    }
    ws.active.iter_mut().for_each(|a| *a = true);
    let mut done: Vec<Option<Result<Vec<f64>, SpiceError>>> = (0..k).map(|_| None).collect();

    for iter in 0..MAX_NEWTON {
        if !ws.active.iter().any(|&a| a) {
            break;
        }
        assemble_batch(
            circuit, mos, &ws.x, 0.0, 1.0, &ws.active, &mut ws.a, &mut ws.b, nn,
        );
        ws.blu
            .refactor_batch(&ws.a, &ws.active)
            .expect("batch workspace dimensions are consistent by construction");
        // Lanes whose Jacobian is singular fail exactly like scalar Newton.
        for l in 0..k {
            if ws.active[l] && !ws.blu.lane_ok(l) {
                let e = ws.blu.lane_status(l).clone().unwrap_err();
                done[l] = Some(Err(SpiceError::SingularSystem {
                    context: format!("newton iteration {iter}: {e}"),
                }));
                ws.active[l] = false;
            }
        }
        ws.blu
            .solve_batch(&ws.b, &mut ws.x_new, &ws.active)
            .expect("failed lanes were deactivated above");
        // Per-lane damped update, convergence, and divergence checks —
        // the exact scalar Newton sequence on each lane's own state.
        ws.check.iter_mut().for_each(|c| *c = false);
        for l in 0..k {
            if !ws.active[l] {
                continue;
            }
            let x = &mut ws.x[l * n..(l + 1) * n];
            let x_new = &ws.x_new[l * n..(l + 1) * n];
            let mut max_dv = 0.0_f64;
            let mut max_di = 0.0_f64;
            for i in 0..n {
                let d = x_new[i] - x[i];
                if i < nn {
                    max_dv = max_dv.max(d.abs());
                } else {
                    max_di = max_di.max(d.abs());
                }
            }
            let scale = if max_dv > MAX_DV {
                MAX_DV / max_dv
            } else {
                1.0
            };
            for i in 0..n {
                x[i] += scale * (x_new[i] - x[i]);
            }
            if !x.iter().all(|v| v.is_finite()) {
                done[l] = Some(Err(SpiceError::NoConvergence {
                    analysis: "newton",
                    detail: format!("non-finite iterate at iteration {iter}"),
                }));
                ws.active[l] = false;
                continue;
            }
            if scale == 1.0 && max_dv < V_TOL && max_di < I_TOL {
                done[l] = Some(Ok(x.to_vec()));
                ws.active[l] = false;
                continue;
            }
            // Weak-convergence escape candidate: a stalled but possibly
            // current-consistent iterate — verified below via the KCL
            // residual, matching the scalar escape.
            if scale == 1.0 && max_dv < 1e-4 && iter > 20 {
                ws.check[l] = true;
            }
        }
        if ws.check.iter().any(|&c| c) {
            // Re-assemble only the candidate lanes at their updated
            // iterates; their storage is rebuilt next iteration anyway.
            assemble_batch(
                circuit, mos, &ws.x, 0.0, 1.0, &ws.check, &mut ws.a, &mut ws.b, nn,
            );
            for l in 0..k {
                if !ws.check[l] {
                    continue;
                }
                let lane = ws.a.lane(l);
                let x = &ws.x[l * n..(l + 1) * n];
                let mut worst = 0.0_f64;
                for i in 0..nn {
                    let mut s = -ws.b[l * n + i];
                    for j in 0..n {
                        s += lane[i * n + j] * x[j];
                    }
                    worst = worst.max(s.abs());
                }
                if worst < KCL_TOL {
                    done[l] = Some(Ok(x.to_vec()));
                    ws.active[l] = false;
                }
            }
        }
    }

    done.into_iter()
        .map(|d| {
            d.unwrap_or_else(|| {
                Err(SpiceError::NoConvergence {
                    analysis: "newton",
                    detail: format!("no convergence in {MAX_NEWTON} iterations"),
                })
            })
        })
        .collect()
}
