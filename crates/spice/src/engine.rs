//! MNA assembly, the one linearization of every element, and the damped
//! Newton-Raphson solver.
//!
//! The unknown vector is `x = [v_1 .. v_{N-1}, i_1 .. i_M]`: node voltages
//! (ground eliminated) followed by voltage-source branch currents. Every
//! element is linearized here, once, in two parts that DC, transient and
//! AC analysis all read:
//!
//! * the **resistive stamp** (`stamp_resistive`): conductances and
//!   constant currents — resistors, voltage-source incidence and values,
//!   current sources, and each MOSFET's channel current through
//!   [`MosfetModel::eval_dc`]; capacitors are open;
//! * the **charge stamp** (`charge_stamp`): the charges of an element's
//!   charge terminals and their partials `∂q/∂v` — a linear capacitor is
//!   the two-terminal charge `±c·(v_a − v_b)`, a MOSFET's four terminal
//!   charges come from [`MosfetModel::eval_charges`].
//!
//! [`assemble`] writes the resistive stamp and, in transient mode, the
//! charge-conserving companion `i = k·(q − q_prev) + i_const` of every
//! charge terminal, so each Newton iteration solves the linear system
//! `A(x_k) · x_{k+1} = b(x_k)`. The AC linearization
//! ([`Circuit::linearize_into`]) takes `G` from the same resistive stamp
//! and `C` from the same charge partials, and [`TranState`] keeps one
//! charge and one current per charge terminal between time steps.
//!
//! A voltage source with exactly one grounded terminal pins its other
//! node to its value, unless a second such source pins the same node.
//! [`Workspace::new`] orders the unknowns once, free unknowns first, then
//! the pinned nodes, then their branch currents, and [`assemble`] writes
//! the system in that order. A Newton iteration factors only the free
//! block: the pinned columns, times the source values, move to the
//! right-hand side, each pinned node takes its source value, and each
//! eliminated branch current is recovered from its node's KCL row. That is
//! the step the full MNA solve takes, so damping, convergence and every
//! result read the full unknown vector as before. The 6T SRAM cell factors
//! 2 unknowns instead of 10, a READ half-cell 1 instead of 9. AC analysis
//! keeps the full system. The same elimination, with the last iteration's
//! LU and the unit vector at a source's branch row as the right-hand side,
//! gives the slope `dx/dv` from which a DC sweep predicts its next point.

use crate::elements::Element;
use crate::error::SpiceError;
use crate::netlist::{Circuit, NodeId};
use mosfet::{Bias, MosfetModel};
use numerics::{lu::Lu, Matrix, NumericsError};

/// Conductance floor from every node to ground (numerical safety net).
pub(crate) const GMIN_FLOOR: f64 = 1e-12;
/// Maximum Newton voltage update per iteration (V) — exponential device
/// damping.
const MAX_DV: f64 = 0.12;
/// Node-voltage convergence tolerance (V).
const V_TOL: f64 = 1e-7;
/// Branch-current convergence tolerance (A).
const I_TOL: f64 = 1e-10;
/// Newton iteration budget of a source-stepping rung, the DC start
/// policy's last resort, and of a transient step, which halves its step
/// when the budget runs out.
pub(crate) const MAX_NEWTON: usize = 400;

/// The factor that caps a step whose largest node-voltage change is
/// `max_dv` at [`MAX_DV`]: each Newton update, and the predicted start of
/// a DC sweep point, moves by this factor times its full step.
pub(crate) fn step_scale(max_dv: f64) -> f64 {
    if max_dv > MAX_DV {
        MAX_DV / max_dv
    } else {
        1.0
    }
}

/// Transient integration method for the current step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Integrator {
    /// Backward Euler (L-stable; used for the first step and after
    /// waveform breakpoints).
    BackwardEuler,
    /// Trapezoidal rule (second order; the default).
    Trapezoidal,
}

impl Integrator {
    /// The coefficient `k` of the charge companion
    /// `i = k·(q − q_prev) + i_const` of one charge terminal over a step of
    /// size `h`.
    fn k(self, h: f64) -> f64 {
        match self {
            Integrator::BackwardEuler => 1.0 / h,
            Integrator::Trapezoidal => 2.0 / h,
        }
    }

    /// The constant `i_const` of that companion, for a terminal whose
    /// current at the previous step was `i_prev`.
    fn i_const(self, i_prev: f64) -> f64 {
        match self {
            Integrator::BackwardEuler => 0.0,
            Integrator::Trapezoidal => -i_prev,
        }
    }

    /// The current of one charge terminal at the end of an accepted step
    /// of size `h` over which its charge moved by `dq`.
    fn current(self, h: f64, dq: f64, i_prev: f64) -> f64 {
        match self {
            Integrator::BackwardEuler => dq / h,
            Integrator::Trapezoidal => 2.0 * dq / h - i_prev,
        }
    }
}

/// Dynamic (charge-storage) state carried between transient steps: the
/// charge and the charging current of every charge terminal (see the
/// module docs) at the previous accepted step, in element order.
#[derive(Debug, Clone, Default)]
pub struct TranState {
    q: Vec<f64>,
    i: Vec<f64>,
}

impl TranState {
    /// Refills the state with the charges at the solved operating point
    /// `x` and zero currents, reusing the buffers' capacity.
    pub(crate) fn init(&mut self, circuit: &Circuit, x: &[f64]) {
        self.q.clear();
        for e in circuit.elements() {
            if let Some(ch) = charge_stamp(e, x, false) {
                self.q.extend_from_slice(&ch.q[..ch.len]);
            }
        }
        self.i.clear();
        self.i.resize(self.q.len(), 0.0);
    }

    /// Advances the state in place to the end of an accepted step of size
    /// `h` taken by `method`, whose solution is `x`.
    pub(crate) fn advance(&mut self, circuit: &Circuit, x: &[f64], h: f64, method: Integrator) {
        let mut slot = 0;
        for e in circuit.elements() {
            let Some(ch) = charge_stamp(e, x, false) else {
                continue;
            };
            for &q in &ch.q[..ch.len] {
                self.i[slot] = method.current(h, q - self.q[slot], self.i[slot]);
                self.q[slot] = q;
                slot += 1;
            }
        }
    }
}

/// What kind of system to assemble.
#[derive(Debug, Clone, Copy)]
pub enum Mode<'a> {
    /// DC: capacitors open, charges ignored.
    Dc {
        /// Extra conductance from every node to ground (continuation).
        gmin: f64,
        /// Scale factor on all independent sources (continuation).
        source_scale: f64,
    },
    /// Transient step ending at time `t` with step size `h`.
    Tran {
        /// Integration method for this step.
        method: Integrator,
        /// Step size (s).
        h: f64,
        /// Time at the *end* of the step (s).
        t: f64,
        /// Dynamic state at the beginning of the step.
        state: &'a TranState,
    },
}

/// Scratch space reused across Newton iterations, time steps, and — through
/// [`crate::session::Session`] — across entire analyses and Monte Carlo
/// samples. Holds the ordered MNA system (see the module docs), its free
/// block and the LU factorization storage, so the hot loop performs no
/// per-iteration allocation.
#[derive(Debug)]
pub struct Workspace {
    n: usize,
    nn: usize,
    /// Position of each unknown in the ordered system: free unknowns at
    /// `0..nf`, pinned node `k` at `nf + k`, its branch current at
    /// `nf + np + k`.
    at: Vec<usize>,
    /// Number of free unknowns.
    nf: usize,
    /// Number of pinned nodes.
    np: usize,
    /// The system in the ordered layout.
    a: Matrix,
    b: Vec<f64>,
    /// The free block of `a`, and `b`'s free rows less the pinned columns
    /// times the source values: the system the LU solves.
    a_ff: Matrix,
    b_f: Vec<f64>,
    /// Reused LU factorization storage (order `nf` once initialized).
    lu: Option<Lu<f64>>,
    /// The solution in the ordered layout.
    x_sys: Vec<f64>,
    /// Newton update scratch, in the unknown vector's layout.
    x_new: Vec<f64>,
}

/// The voltage sources that pin a node: `(node, branch)` unknown indices
/// of each source with exactly one grounded terminal, in element order,
/// leaving out every node two such sources pin.
fn pinned_sources(circuit: &Circuit) -> Vec<(usize, usize)> {
    let nn = circuit.node_count() - 1;
    let mut pins = Vec::new();
    let mut branch = nn;
    for e in circuit.elements() {
        if let Element::Vsource { pos, neg, .. } = e {
            if let (Some(p), None) | (None, Some(p)) = (pos.unknown(), neg.unknown()) {
                pins.push((p, branch));
            }
            branch += 1;
        }
    }
    let mut times = vec![0usize; nn];
    for &(p, _) in &pins {
        times[p] += 1;
    }
    pins.retain(|&(p, _)| times[p] == 1);
    pins
}

impl Workspace {
    /// Allocates a workspace for the circuit and orders its unknowns (see
    /// the module docs).
    pub fn new(circuit: &Circuit) -> Self {
        Self::ordered(circuit, &pinned_sources(circuit))
    }

    /// A workspace that eliminates the `(node, branch)` pairs of `pins`.
    fn ordered(circuit: &Circuit, pins: &[(usize, usize)]) -> Self {
        let n = circuit.n_unknowns();
        let np = pins.len();
        let nf = n - 2 * np;
        let mut at = vec![usize::MAX; n];
        for (k, &(node, branch)) in pins.iter().enumerate() {
            at[node] = nf + k;
            at[branch] = nf + np + k;
        }
        let free = at.iter_mut().filter(|slot| **slot == usize::MAX);
        for (next, slot) in free.enumerate() {
            *slot = next;
        }
        Workspace {
            n,
            nn: circuit.node_count() - 1,
            at,
            nf,
            np,
            a: Matrix::zeros(n, n),
            b: vec![0.0; n],
            a_ff: Matrix::zeros(nf, nf),
            b_f: vec![0.0; nf],
            lu: None,
            x_sys: vec![0.0; n],
            x_new: vec![0.0; n],
        }
    }

    /// Number of unknowns.
    pub fn n_unknowns(&self) -> usize {
        self.n
    }

    /// A workspace that eliminates nothing, so every Newton iteration
    /// factors the full MNA system: the reference the reduced solve is
    /// tested against.
    #[cfg(test)]
    pub(crate) fn unreduced(circuit: &Circuit) -> Self {
        Self::ordered(circuit, &[])
    }

    /// Number of free unknowns: the order of the system each Newton
    /// iteration factors.
    #[cfg(test)]
    pub(crate) fn n_free(&self) -> usize {
        self.nf
    }

    /// Solves the assembled system into the update scratch: factors the
    /// free block and [`substitute`]s the assembled right-hand side.
    fn solve(&mut self) -> Result<(), SpiceError> {
        let Workspace {
            at,
            nf,
            np,
            a,
            b,
            a_ff,
            b_f,
            lu,
            x_sys,
            x_new,
            ..
        } = self;
        for i in 0..*nf {
            for j in 0..*nf {
                a_ff[(i, j)] = a[(i, j)];
            }
        }
        let lu = match lu {
            Some(lu) => {
                lu.refactor(a_ff)?;
                lu
            }
            None => lu.insert(Lu::factor(a_ff)?),
        };
        substitute((*nf, *np), a, |row| b[row], lu, b_f, x_sys)?;
        for (xi, &at) in x_new.iter_mut().zip(at.iter()) {
            *xi = x_sys[at];
        }
        Ok(())
    }

    /// Writes `dx/dv` into `dx`, in the unknown vector's layout: the
    /// change of the solution per volt of the voltage source whose branch
    /// current is unknown `branch`. It [`substitute`]s the unit vector at
    /// that source's branch row into the system and LU the last Newton
    /// iteration left: a source that pins its node moves that node by
    /// `1 / a[branch row, node]` (±1), which enters the free right-hand
    /// side through the node's column, and a source that pins nothing has
    /// a free branch row. No device is evaluated and nothing is
    /// refactored. That system is within `V_TOL` of the returned point
    /// (after the weak-convergence escape `a` is the returned point's and
    /// the LU one iteration older), so the slope is deterministic and
    /// first-order accurate.
    ///
    /// # Panics
    ///
    /// Panics when no Newton iteration has factored the system yet.
    pub(crate) fn sensitivity(&mut self, branch: usize, dx: &mut [f64]) {
        let Workspace {
            at,
            nf,
            np,
            a,
            b_f,
            lu,
            x_sys,
            ..
        } = self;
        let lu = lu.as_ref().expect("a Newton iteration factored the system");
        let unit = at[branch];
        let rhs = |row| if row == unit { 1.0 } else { 0.0 };
        substitute((*nf, *np), a, rhs, lu, b_f, x_sys).expect("the LU has the free block's order");
        for (d, &at) in dx.iter_mut().zip(at.iter()) {
            *d = x_sys[at];
        }
    }
}

/// Solves the ordered system `a·x = r` (see the module docs), `r` read
/// row by row from `rhs`, with `lu` the factorization of its free block
/// of order `nf`: sets each of the `np` pinned nodes from its source's
/// branch row, solves the free block with the pinned columns moved to the
/// right-hand side (in `b_f`), and recovers each eliminated branch
/// current from its pinned node's KCL row.
fn substitute(
    (nf, np): (usize, usize),
    a: &Matrix,
    rhs: impl Fn(usize) -> f64,
    lu: &Lu<f64>,
    b_f: &mut [f64],
    x: &mut [f64],
) -> Result<(), NumericsError> {
    // A source's branch row reads `±v = value`.
    for k in 0..np {
        let row = nf + np + k;
        x[nf + k] = rhs(row) / a[(row, nf + k)];
    }
    for i in 0..nf {
        let mut s = rhs(i);
        for k in 0..np {
            s -= a[(i, nf + k)] * x[nf + k];
        }
        b_f[i] = s;
    }
    lu.solve_into(b_f, &mut x[..nf])?;
    // The pinned node's KCL row holds its source's branch current with
    // coefficient ±1, and no other eliminated one.
    for k in 0..np {
        let row = nf + k;
        let mut s = rhs(row);
        for j in 0..nf + np {
            s -= a[(row, j)] * x[j];
        }
        x[nf + np + k] = s / a[(row, nf + np + k)];
    }
    Ok(())
}

/// Voltage of `node` under the unknown vector `x` (0 for ground).
fn volt(x: &[f64], node: NodeId) -> f64 {
    node.unknown().map_or(0.0, |i| x[i])
}

/// The bias of a MOSFET with drain, gate, source and bulk nodes `d`, `g`,
/// `s`, `b` under the unknown vector `x`.
fn mos_bias(x: &[f64], d: NodeId, g: NodeId, s: NodeId, b: NodeId) -> Bias {
    let vs = volt(x, s);
    Bias {
        vgs: volt(x, g) - vs,
        vds: volt(x, d) - vs,
        vbs: volt(x, b) - vs,
    }
}

/// DC companion-model values of one MOSFET at a bias point: the stamp the
/// Newton loop writes into the conductance block and right-hand side.
struct MosStamp {
    gm: f64,
    gds: f64,
    gmb: f64,
    /// `gm + gds + gmb` — the source-column entry.
    gsum: f64,
    /// Linearization constant `Id - gm·vgs - gds·vds - gmb·vbs`.
    ieq: f64,
}

impl MosStamp {
    /// The companion model of `model` at `bias`, from one
    /// [`MosfetModel::eval_dc`] — the device's single differentiation
    /// site. A bulk tied to the source contributes no `gmb`.
    fn new(model: &dyn MosfetModel, bias: Bias, bulk_tied: bool) -> Self {
        let ev = model.eval_dc(bias);
        let gmb = if bulk_tied { 0.0 } else { ev.gmb };
        MosStamp {
            gm: ev.gm,
            gds: ev.gds,
            gmb,
            gsum: ev.gm + ev.gds + gmb,
            ieq: ev.ids - ev.gm * bias.vgs - ev.gds * bias.vds - gmb * bias.vbs,
        }
    }

    /// Writes the stamp for terminal unknowns `[d, g, s, b]`: conductances
    /// through `add(row, col, value)`, the linearization constant through
    /// `rhs(row, value)`. Row `d` carries `+Id` (current leaving node `d`
    /// into the channel), row `s` carries `-Id`.
    fn write(
        &self,
        [du, gu, su, bu]: [Option<usize>; 4],
        mut add: impl FnMut(usize, usize, f64),
        mut rhs: impl FnMut(usize, f64),
    ) {
        // dI/dv_g = gm, dI/dv_d = gds, dI/dv_b = gmb,
        // dI/dv_s = -(gm + gds + gmb).
        for (row, sign) in [(du, 1.0), (su, -1.0)] {
            let Some(i) = row else { continue };
            if let Some(j) = gu {
                add(i, j, sign * self.gm);
            }
            if let Some(j) = du {
                add(i, j, sign * self.gds);
            }
            if let Some(j) = bu {
                add(i, j, sign * self.gmb);
            }
            if let Some(j) = su {
                add(i, j, -sign * self.gsum);
            }
            rhs(i, -sign * self.ieq);
        }
    }
}

/// Writes the resistive part of element `e` linearized at `x`:
/// conductances through `add(row, col, value)` and constant currents
/// through `rhs(row, value)`, where a current leaving a node is negative.
/// A resistor stamps its conductance, a voltage source its branch
/// incidence and value into row `*branch` (which it then advances), a
/// current source its current, and a MOSFET its [`MosStamp`]. Sources take
/// their value at `time`, scaled by `source_scale`. Capacitors are open:
/// they are all charge (see [`charge_stamp`]).
#[inline]
pub(crate) fn stamp_resistive(
    e: &Element,
    x: &[f64],
    branch: &mut usize,
    time: f64,
    source_scale: f64,
    mut add: impl FnMut(usize, usize, f64),
    mut rhs: impl FnMut(usize, f64),
) {
    match e {
        Element::Resistor { a, b, r, .. } => {
            let g = 1.0 / r;
            let (a, b) = (a.unknown(), b.unknown());
            if let Some(i) = a {
                add(i, i, g);
            }
            if let Some(j) = b {
                add(j, j, g);
            }
            if let (Some(i), Some(j)) = (a, b) {
                add(i, j, -g);
                add(j, i, -g);
            }
        }
        Element::Capacitor { .. } => {}
        Element::Vsource { pos, neg, wave, .. } => {
            let row = *branch;
            *branch += 1;
            if let Some(i) = pos.unknown() {
                add(i, row, 1.0);
                add(row, i, 1.0);
            }
            if let Some(j) = neg.unknown() {
                add(j, row, -1.0);
                add(row, j, -1.0);
            }
            rhs(row, wave.value(time) * source_scale);
        }
        Element::Isource { pos, neg, wave, .. } => {
            // Current into pos = current leaving neg.
            let i = wave.value(time) * source_scale;
            if let Some(row) = neg.unknown() {
                rhs(row, -i);
            }
            if let Some(row) = pos.unknown() {
                rhs(row, i);
            }
        }
        Element::Mosfet {
            d, g, s, b, model, ..
        } => {
            let nodes = [d.unknown(), g.unknown(), s.unknown(), b.unknown()];
            MosStamp::new(model.as_ref(), mos_bias(x, *d, *g, *s, *b), b == s)
                .write(nodes, add, rhs);
        }
    }
}

/// The charges of one element's charge terminals at a linearization
/// point, and their partials: `dq[t][u] = ∂q_t/∂v_u`, the derivative of
/// terminal `t`'s charge with respect to terminal `u`'s node voltage.
pub(crate) struct ChargeStamp {
    /// The terminal nodes; the first `len` are used.
    nodes: [NodeId; 4],
    len: usize,
    q: [f64; 4],
    dq: [[f64; 4]; 4],
}

impl ChargeStamp {
    /// Writes `k·∂q_t/∂v_u` through `add(row, col, value)` for every
    /// terminal pair off ground.
    #[inline(always)]
    pub(crate) fn write_partials(&self, k: f64, mut add: impl FnMut(usize, usize, f64)) {
        for t in 0..self.len {
            let Some(row) = self.nodes[t].unknown() else {
                continue;
            };
            for u in 0..self.len {
                if let Some(col) = self.nodes[u].unknown() {
                    add(row, col, k * self.dq[t][u]);
                }
            }
        }
    }
}

/// The charge stamp of element `e` at `x`, or `None` for an element that
/// stores no charge. A capacitor has terminals `[a, b]` with charges
/// `±c·(v_a − v_b)`; a MOSFET has `[g, d, s, b]`, from one
/// [`MosfetModel::eval_charges`], with no `∂q/∂v_bs` when the bulk is tied
/// to the source. With `partials` false the MOSFET's charges come from
/// [`MosfetModel::charges`] alone and `dq` is left zero: the form the
/// transient state reads, which needs no derivative.
// Always inlined, like `ChargeStamp::write_partials`, so that no caller
// builds the whole stamp in memory: each reads only part of it, and an
// out-of-line stamp made transient assembly about 10% slower.
#[inline(always)]
pub(crate) fn charge_stamp(e: &Element, x: &[f64], partials: bool) -> Option<ChargeStamp> {
    match e {
        Element::Capacitor { a, b, c, .. } => {
            let c = *c;
            let q = c * (volt(x, *a) - volt(x, *b));
            Some(ChargeStamp {
                nodes: [*a, *b, Circuit::GROUND, Circuit::GROUND],
                len: 2,
                q: [q, -q, 0.0, 0.0],
                dq: [[c, -c, 0.0, 0.0], [-c, c, 0.0, 0.0], [0.0; 4], [0.0; 4]],
            })
        }
        Element::Mosfet {
            d, g, s, b, model, ..
        } => {
            let bias = mos_bias(x, *d, *g, *s, *b);
            let (q, dq) = if partials {
                let ev = model.eval_charges(bias);
                let dq = ev.dq.map(|[cg, cd, cb]| {
                    let cb = if b == s { 0.0 } else { cb };
                    [cg, cd, -(cg + cd + cb), cb]
                });
                (ev.q, dq)
            } else {
                (model.charges(bias), [[0.0; 4]; 4])
            };
            Some(ChargeStamp {
                nodes: [*g, *d, *s, *b],
                len: 4,
                q: q.terminals(),
                dq,
            })
        }
        _ => None,
    }
}

/// Assembles the companion-model MNA system at linearization point `x`,
/// in the workspace's unknown order: the gmin floor, then each element's
/// resistive stamp and, in transient mode, the companion of each of its
/// charge terminals.
pub fn assemble(circuit: &Circuit, x: &[f64], mode: &Mode<'_>, ws: &mut Workspace) {
    let Workspace { nn, at, a, b, .. } = ws;
    a.fill_zero();
    b.iter_mut().for_each(|v| *v = 0.0);

    let (gmin, source_scale, time) = match mode {
        Mode::Dc {
            gmin, source_scale, ..
        } => (*gmin, *source_scale, 0.0),
        Mode::Tran { t, .. } => (0.0, 1.0, *t),
    };

    // Conductance floor on every node keeps gates/floating nodes pinned.
    for &i in &at[..*nn] {
        a[(i, i)] += GMIN_FLOOR + gmin;
    }

    let mut add = |i: usize, j: usize, v: f64| a[(at[i], at[j])] += v;
    let mut rhs = |i: usize, v: f64| b[at[i]] += v;
    let mut branch = *nn;
    let mut slot = 0; // charge-terminal index into the transient state
    for e in circuit.elements() {
        stamp_resistive(e, x, &mut branch, time, source_scale, &mut add, &mut rhs);
        let Mode::Tran {
            method, h, state, ..
        } = mode
        else {
            continue;
        };
        let Some(ch) = charge_stamp(e, x, true) else {
            continue;
        };
        let k = method.k(*h);
        ch.write_partials(k, &mut add);
        let v = ch.nodes.map(|n| volt(x, n));
        for t in 0..ch.len {
            let Some(row) = ch.nodes[t].unknown() else {
                continue;
            };
            // i_t = k (q_t(v) - q_prev) + i_const, linearized at x.
            let i_const = method.i_const(state.i[slot + t]);
            let lin_at_x: f64 = (0..ch.len).map(|u| ch.dq[t][u] * v[u]).sum();
            rhs(
                row,
                -(k * (ch.q[t] - state.q[slot + t]) + i_const - k * lin_at_x),
            );
        }
        slot += ch.len;
    }
}

/// KCL residual of the node equations at `x`: assembles the companion
/// system at `x` and returns `max_i |(A x - b)_i|` over the node rows —
/// the net current error at each node in amps.
fn kcl_residual(circuit: &Circuit, x: &[f64], mode: &Mode<'_>, ws: &mut Workspace) -> f64 {
    assemble(circuit, x, mode, ws);
    let mut worst = 0.0_f64;
    for &row in &ws.at[..ws.nn] {
        let mut s = -ws.b[row];
        for (&col, &xj) in ws.at.iter().zip(x) {
            s += ws.a[(row, col)] * xj;
        }
        worst = worst.max(s.abs());
    }
    worst
}

/// KCL current acceptance threshold (A) for weakly-converged iterates.
const KCL_TOL: f64 = 1e-10;

/// Newton-Raphson with per-iteration voltage damping, at most `max_iter`
/// iterations.
///
/// Convergence is declared on the update norm (the classic SPICE criterion)
/// or, for iterates whose updates stall above `V_TOL` while the node
/// equations are already satisfied to sub-nA level, on the KCL residual —
/// the standard remedy for subthreshold regions where conductances approach
/// the gmin floor and the dx criterion becomes meaningless.
///
/// The budget is the caller's. A run with a fallback after it gives up
/// early: a start the damped iteration cannot converge from tends to
/// oscillate under the damping cap, often in a two-step limit cycle,
/// rather than diverge, and spends every iteration it is given there.
/// Source-stepping rungs and transient steps get `MAX_NEWTON` (400).
///
/// # Errors
///
/// Returns [`SpiceError::SingularSystem`] if the Jacobian cannot be factored
/// and [`SpiceError::NoConvergence`] when `max_iter` iterations pass
/// without convergence.
pub fn newton(
    circuit: &Circuit,
    x0: &[f64],
    mode: &Mode<'_>,
    max_iter: usize,
    ws: &mut Workspace,
) -> Result<Vec<f64>, SpiceError> {
    let mut x = x0.to_vec();
    for iter in 0..max_iter {
        assemble(circuit, &x, mode, ws);
        ws.solve().map_err(|e| SpiceError::SingularSystem {
            context: format!("newton iteration {iter}: {e}"),
        })?;
        // Damped update.
        let mut max_dv = 0.0_f64;
        let mut max_di = 0.0_f64;
        for i in 0..ws.n {
            let d = ws.x_new[i] - x[i];
            if i < ws.nn {
                max_dv = max_dv.max(d.abs());
            } else {
                max_di = max_di.max(d.abs());
            }
        }
        let scale = step_scale(max_dv);
        for i in 0..ws.n {
            x[i] += scale * (ws.x_new[i] - x[i]);
        }
        if !x.iter().all(|v| v.is_finite()) {
            return Err(SpiceError::NoConvergence {
                analysis: "newton",
                detail: format!("non-finite iterate at iteration {iter}"),
            });
        }
        if scale == 1.0 && max_dv < V_TOL && max_di < I_TOL {
            return Ok(x);
        }
        // Weak-convergence escape: a stalled but current-consistent iterate.
        if scale == 1.0 && max_dv < 1e-4 && iter > 20 {
            let r = kcl_residual(circuit, &x, mode, ws);
            if r < KCL_TOL {
                return Ok(x);
            }
        }
    }
    Err(SpiceError::NoConvergence {
        analysis: "newton",
        detail: format!("no convergence in {max_iter} iterations"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use crate::waveform::Waveform;
    use mosfet::{vs::VsModel, Geometry};

    #[test]
    fn divider_assembles_and_solves() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let m = c.node("m");
        c.vsource("V1", a, Circuit::GROUND, Waveform::dc(2.0));
        c.resistor("R1", a, m, 1e3);
        c.resistor("R2", m, Circuit::GROUND, 1e3);
        let mut ws = Workspace::new(&c);
        let x = newton(
            &c,
            &vec![0.0; ws.n_unknowns()],
            &Mode::Dc {
                gmin: 0.0,
                source_scale: 1.0,
            },
            MAX_NEWTON,
            &mut ws,
        )
        .unwrap();
        assert!((x[a.unknown().unwrap()] - 2.0).abs() < 1e-6);
        assert!((x[m.unknown().unwrap()] - 1.0).abs() < 1e-6);
        // Branch current: 2 V across 2 kΩ = 1 mA, flowing out of the source
        // positive terminal (so the MNA branch current is -1 mA).
        assert!((x[2] + 1e-3).abs() < 1e-9);
    }

    #[test]
    fn isource_into_resistor() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.isource("I1", a, Circuit::GROUND, Waveform::dc(1e-3));
        c.resistor("R1", a, Circuit::GROUND, 1e3);
        let mut ws = Workspace::new(&c);
        let x = newton(
            &c,
            &[0.0],
            &Mode::Dc {
                gmin: 0.0,
                source_scale: 1.0,
            },
            MAX_NEWTON,
            &mut ws,
        )
        .unwrap();
        assert!((x[0] - 1.0).abs() < 1e-6, "v = {}", x[0]);
    }

    #[test]
    fn floating_node_is_held_by_gmin_floor() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let f = c.node("floating");
        c.vsource("V1", a, Circuit::GROUND, Waveform::dc(1.0));
        c.resistor("R1", a, Circuit::GROUND, 1e3);
        c.resistor("R2", f, a, 1e3); // f connects only through R2
        let mut ws = Workspace::new(&c);
        let x = newton(
            &c,
            &vec![0.0; ws.n_unknowns()],
            &Mode::Dc {
                gmin: 0.0,
                source_scale: 1.0,
            },
            MAX_NEWTON,
            &mut ws,
        )
        .unwrap();
        // No current path: the floating node floats to ~v(a).
        assert!((x[f.unknown().unwrap()] - 1.0).abs() < 1e-3);
    }

    /// DC, transient and AC analysis read one linearization: at an
    /// inverter's operating point (driven through a source resistor, with a
    /// load capacitor), the DC Newton matrix is the AC `G` in the
    /// workspace's unknown order. The block each Newton iteration factors
    /// is `G`'s free block, the pinned columns enter its right-hand side as
    /// `G_fp·V`, and a backward-Euler step adds exactly `C_ff/h` to it. The
    /// KCL residual is the full system's.
    #[test]
    fn analyses_share_one_linearization() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vin = c.node("in");
        let gate = c.node("gate");
        let out = c.node("out");
        c.vsource("VDD", vdd, Circuit::GROUND, Waveform::dc(0.9));
        c.vsource("VIN", vin, Circuit::GROUND, Waveform::dc(0.42));
        c.resistor("RS", vin, gate, 1e3);
        let geom = |w| Geometry::from_nm(w, 40.0);
        c.mosfet(
            "MP",
            out,
            gate,
            vdd,
            vdd,
            Box::new(VsModel::nominal_pmos_40nm(geom(600.0))),
        );
        c.mosfet(
            "MN",
            out,
            gate,
            Circuit::GROUND,
            Circuit::GROUND,
            Box::new(VsModel::nominal_nmos_40nm(geom(300.0))),
        );
        c.capacitor("CL", out, Circuit::GROUND, 1e-15);
        let mut session = Session::elaborate(c.clone()).unwrap();
        let x = session.dc_owned().unwrap().raw().to_vec();

        let lin = c.linearize(&x);
        let mut ws = Workspace::new(&c);
        // `gate` and `out` are free; `vdd`, `in` and both branch currents
        // leave the factored system.
        assert_eq!((ws.nf, ws.np), (2, 2));
        let free = [gate, out].map(|n| n.unknown().unwrap());
        let pinned = [(vdd, 0.9), (vin, 0.42)].map(|(n, v)| (n.unknown().unwrap(), v));
        let dc = Mode::Dc {
            gmin: 0.0,
            source_scale: 1.0,
        };
        assemble(&c, &x, &dc, &mut ws);
        ws.solve().unwrap();
        let (a_dc, b_dc, a_ff, b_f) = (ws.a.clone(), ws.b.clone(), ws.a_ff.clone(), ws.b_f.clone());
        let at = ws.at.clone();
        let close = |got: f64, want: f64, scale: f64| (got - want).abs() <= 1e-12 * scale;

        for i in 0..ws.n {
            for j in 0..ws.n {
                // Only the floor's place in the sum differs.
                let (g, a) = (lin.g[(i, j)], a_dc[(at[i], at[j])]);
                assert!(close(g, a, a.abs()), "G[{i},{j}] {g} vs DC {a}");
            }
        }
        for &i in &free {
            for &j in &free {
                assert_eq!(a_ff[(at[i], at[j])], a_dc[(at[i], at[j])]);
            }
            let g_fp_v: f64 = pinned.iter().map(|&(p, v)| lin.g[(i, p)] * v).sum();
            let (got, want) = (b_f[at[i]], b_dc[at[i]] - g_fp_v);
            let scale = b_dc[at[i]].abs().max(g_fp_v.abs());
            assert!(
                close(got, want, scale),
                "b_f[{i}] {got} vs b - G_fp V {want}"
            );
        }
        // At the operating point the step returns it: the pinned nodes at
        // their source values, the branch currents from their KCL rows.
        for (i, (got, want)) in ws.x_new.iter().zip(&x).enumerate() {
            assert!(
                close(*got, *want, want.abs().max(1e-9)),
                "x[{i}] {got} vs {want}"
            );
        }
        for &(p, v) in &pinned {
            assert_eq!(ws.x_new[p], v);
        }
        let mut state = TranState::default();
        state.init(&c, &x);
        let h = 1e-12;
        let be = Mode::Tran {
            method: Integrator::BackwardEuler,
            h,
            t: h,
            state: &state,
        };
        assemble(&c, &x, &be, &mut ws);
        ws.solve().unwrap();
        for &i in &free {
            for &j in &free {
                let (step, want) = (
                    ws.a_ff[(at[i], at[j])] - a_ff[(at[i], at[j])],
                    lin.c[(i, j)] / h,
                );
                let scale = ws.a_ff[(at[i], at[j])]
                    .abs()
                    .max(a_ff[(at[i], at[j])].abs());
                assert!(
                    close(step, want, scale),
                    "BE - DC [{i},{j}] {step} vs C/h {want}"
                );
            }
        }
        // The capacitor and both MOSFETs do reach `C`.
        let [gt, o] = free;
        assert!(lin.c[(o, o)] > 1e-15 && lin.c[(gt, gt)] > 0.0);

        // The KCL residual of the weak-convergence escape reads the node
        // rows of the ordered system, also where a floating source's
        // branch row sits among them: the full system's, bit for bit.
        let mut f = c.clone();
        let b = f.node("b");
        f.vsource("VF", b, out, Waveform::dc(0.1));
        f.resistor("RB", b, Circuit::GROUND, 1e4);
        let mut off = Session::elaborate(f.clone())
            .unwrap()
            .dc_owned()
            .unwrap()
            .raw()
            .to_vec();
        off[free[1]] += 0.01;
        let full = kcl_residual(&f, &off, &dc, &mut Workspace::unreduced(&f));
        assert!(full > 1e-6);
        let reduced = kcl_residual(&f, &off, &dc, &mut Workspace::new(&f));
        assert_eq!(reduced.to_bits(), full.to_bits());
    }
}
