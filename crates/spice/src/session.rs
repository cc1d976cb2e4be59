//! Session-based simulation: elaborate once, run many analyses.
//!
//! [`Session`] is the primary analysis surface of this crate. It takes
//! ownership of a finished [`Circuit`], elaborates it once (validation,
//! node/branch layout, workspace and LU scratch allocation), and then runs
//! any number of analyses against that fixed topology:
//!
//! * every analysis returns its result by value — [`Session::dc_owned`],
//!   [`Session::dc_sweep_owned`], [`Session::tran_owned`],
//!   [`Session::ac_owned`] — so nothing a session computes outlives the
//!   circuit state it was computed on, and no analysis reads what an
//!   earlier one left behind: a result depends on the circuit's devices
//!   and sources and on the call's arguments alone;
//! * only the DC entry points choose where Newton starts, and they all get
//!   their operating point from one solve: plain Newton from the entry
//!   point's starts, in order, then one continuation ladder. The starts
//!   are the caller's vector for [`Session::dc_owned_from`]; for a sweep
//!   point after the first, a prediction from the slopes `dx/dv` of the
//!   points before it (a cubic Hermite through the two before it), then
//!   the previous point; none for [`Session::dc_owned`],
//!   [`Session::dc_owned_with_guess`] and a sweep's first point, which
//!   is the guessed solve with the sweep's guess (a butterfly places its
//!   outputs at the supply there). Once its starts fail, a solve is
//!   exactly the same call without them. A start, and every ladder rung
//!   before source stepping, gets at most 50 Newton iterations, so a start
//!   Newton cycles from costs little;
//! * [`Session::ac_owned`] and [`Session::tran_owned`] take the
//!   [`DcResult`] a DC entry point returned: the AC sweep linearizes at
//!   it, the transient starts from it. They choose no start;
//! * [`Session::swap_devices`] / [`Session::swap_all_mosfets`] resample
//!   MOSFET instances *in place* — the Monte Carlo fast path: no re-parse,
//!   no re-elaboration; a Monte Carlo loop that wants Newton to start near
//!   the answer passes a start it fixes itself, such as a nominal
//!   circuit's operating point, to [`Session::dc_owned_from`]; every AC
//!   sweep reuses one cached complex workspace;
//! * [`Session::set_source`] retargets a stimulus (setup/hold searches,
//!   sweeps) without rebuilding the netlist.

use crate::ac::{AcResult, AcWorkspace};
use crate::dc::{DcResult, SweepResult};
use crate::elements::Element;
use crate::engine::{newton, step_scale, Integrator, Mode, TranState, Workspace, MAX_NEWTON};
use crate::error::SpiceError;
use crate::netlist::{Circuit, NodeId};
use crate::tran::{TranOptions, TranResult};
use crate::waveform::Waveform;
use mosfet::MosfetModel;
use std::collections::HashMap;

/// Gmin continuation ladder (largest first).
const GMIN_STEPS: [f64; 7] = [1e-3, 1e-4, 1e-5, 1e-6, 1e-8, 1e-10, 1e-12];
/// Source-stepping ladder.
const SOURCE_STEPS: [f64; 8] = [0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 0.95, 1.0];
/// Newton iteration budget of a run the DC start policy can fall back
/// from: each start of [`Session::solve_dc`], and in [`Session::ladder`]
/// the plain Newton, each gmin rung and the final Newton after them.
/// Converging runs of these kinds take at most 24 iterations over the
/// paper's experiments and the served samples. A start the damped
/// iteration cannot converge from oscillates under the damping cap
/// instead, often in a two-step limit cycle, and would spend all of
/// `MAX_NEWTON` (400) there before its fallback ran.
const MAX_NEWTON_WITH_FALLBACK: usize = 50;
/// The DC operating-point mode: no gmin shunt, every source at full value.
const DC: Mode<'static> = Mode::Dc {
    gmin: 0.0,
    source_scale: 1.0,
};
/// Maximum binary step-halving depth on transient Newton failure.
const MAX_HALVINGS: usize = 10;

/// A persistent simulation session: one elaborated circuit, reusable
/// scratch, many analyses.
///
/// # Example
///
/// ```
/// use spice::{Circuit, Session, Waveform};
///
/// # fn main() -> Result<(), spice::SpiceError> {
/// let mut c = Circuit::new();
/// let vin = c.node("in");
/// let mid = c.node("mid");
/// c.vsource("V1", vin, Circuit::GROUND, Waveform::dc(1.0));
/// c.resistor("R1", vin, mid, 1e3);
/// c.resistor("R2", mid, Circuit::GROUND, 1e3);
///
/// let mut s = Session::elaborate(c)?;
/// let op = s.dc_owned()?;
/// assert!((op.voltage(mid) - 0.5).abs() < 1e-9);
/// // Same elaboration, different stimulus: no rebuild.
/// s.set_source("V1", Waveform::dc(2.0))?;
/// let op2 = s.dc_owned()?;
/// assert!((op2.voltage(mid) - 1.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Session {
    circuit: Circuit,
    ws: Workspace,
    /// Number of node-voltage unknowns (nodes minus ground).
    nn: usize,
    /// Element index of every MOSFET, by instance name.
    mos_by_name: HashMap<String, usize>,
    /// Transient charge state, reused across runs.
    state: TranState,
    /// AC sweep scratch (linearization + complex system), allocated on the
    /// first AC request and reused for every sweep after that.
    ac_ws: Option<AcWorkspace>,
}

impl Session {
    /// Validates and elaborates a circuit into a ready session.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::BadNetlist`] for invalid netlists (e.g. empty,
    /// or duplicate MOSFET instance names).
    pub fn elaborate(circuit: Circuit) -> Result<Self, SpiceError> {
        circuit.validate()?;
        let mut mos_by_name = HashMap::new();
        for (idx, e) in circuit.elements().iter().enumerate() {
            if let Element::Mosfet { name, .. } = e {
                if mos_by_name.insert(name.clone(), idx).is_some() {
                    return Err(SpiceError::BadNetlist {
                        context: format!("duplicate MOSFET instance name {name}"),
                    });
                }
            }
        }
        let ws = Workspace::new(&circuit);
        let nn = circuit.node_count() - 1;
        Ok(Session {
            circuit,
            ws,
            nn,
            mos_by_name,
            state: TranState::default(),
            ac_ws: None,
        })
    }

    /// The elaborated circuit (read-only: the session owns the layout, so
    /// structural edits go through [`Session::swap_devices`] and
    /// [`Session::set_source`]).
    #[must_use]
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    // ---- analyses --------------------------------------------------------

    /// DC operating point: the continuation ladder from zero.
    ///
    /// # Errors
    ///
    /// Propagates convergence and singularity errors.
    pub fn dc_owned(&mut self) -> Result<DcResult, SpiceError> {
        self.dc_owned_with_guess(&[])
    }

    /// DC operating point seeded with node-voltage guesses, which select
    /// the state of bistable circuits: the continuation ladder from the
    /// guess, then from zero. An empty guess is [`Session::dc_owned`].
    ///
    /// # Errors
    ///
    /// Propagates convergence and singularity errors.
    pub fn dc_owned_with_guess(&mut self, guess: &[(NodeId, f64)]) -> Result<DcResult, SpiceError> {
        let x = self.solve_dc(None, guess)?;
        Ok(DcResult::new(x, self.nn))
    }

    /// DC operating point from a caller-held start vector, such as a
    /// nominal circuit's solution: plain Newton from `start`, accepted in
    /// the stable state `guess` selects. Otherwise the solve is exactly
    /// [`Session::dc_owned_with_guess`], after at most 50 Newton
    /// iterations from `start`.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidArgument`] when `start` does not have
    /// one entry per circuit unknown, and propagates convergence and
    /// singularity errors.
    pub fn dc_owned_from(
        &mut self,
        start: &[f64],
        guess: &[(NodeId, f64)],
    ) -> Result<DcResult, SpiceError> {
        self.check_unknowns(start, "start vector")?;
        let x = self.solve_dc(Some(start), guess)?;
        Ok(DcResult::new(x, self.nn))
    }

    /// DC sweep of the named voltage source over `values`. The first point
    /// is exactly [`Session::dc_owned_with_guess`] with `guess` at
    /// `values[0]`: the continuation ladder from the guess-built vector,
    /// then from zero, or from zero alone for an empty guess. A guess that
    /// places the first point near its answer saves the ramp from zero,
    /// such as a butterfly's outputs at the supply where the input is 0 V.
    /// Every later point ignores the guess, whose basin test would reject
    /// an output the sweep moves: it runs plain Newton from a prediction,
    /// then from the point before it, then the ladder from zero. The
    /// second point is predicted on the tangent line at the first, every
    /// later one by the cubic Hermite through the two points before it,
    /// each point's slope `dx/dv` read from the LU its last Newton
    /// iteration factored; the prediction's step is capped like a Newton
    /// step, and a repeated value gives none. The source's waveform is
    /// restored afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidArgument`] for an empty sweep or a
    /// value that is not finite, [`SpiceError::BadNetlist`] for an
    /// unknown source, all before any solve, and propagates convergence
    /// errors.
    pub fn dc_sweep_owned(
        &mut self,
        source: &str,
        values: &[f64],
        guess: &[(NodeId, f64)],
    ) -> Result<SweepResult, SpiceError> {
        if values.is_empty() {
            return Err(SpiceError::InvalidArgument {
                context: "empty sweep".into(),
            });
        }
        if let Some(v) = values.iter().find(|v| !v.is_finite()) {
            return Err(SpiceError::InvalidArgument {
                context: format!("sweep value {v} is not finite"),
            });
        }
        let branch = self.nn + self.circuit.vsource_index(source)?;
        let saved = self.circuit.vsource_waveform(source)?.clone();
        let result = self.sweep_points(source, branch, values, guess);
        self.circuit
            .set_vsource(source, saved)
            .expect("source existed above");
        result
    }

    /// AC small-signal sweep at the operating point `op`, which a DC entry
    /// point returned for this circuit: linearize there, apply a unit
    /// excitation on `source`, and solve at each frequency through one
    /// cached complex workspace. The sweep solves no operating point.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidArgument`] when `op` does not have one
    /// entry per circuit unknown or a frequency is not finite and
    /// positive, [`SpiceError::BadNetlist`] for an unknown source, and
    /// propagates singular frequency points.
    pub fn ac_owned(
        &mut self,
        op: &DcResult,
        source: &str,
        freqs: &[f64],
    ) -> Result<AcResult, SpiceError> {
        self.check_unknowns(op.raw(), "operating point")?;
        let ws = self
            .ac_ws
            .get_or_insert_with(|| AcWorkspace::for_circuit(&self.circuit));
        ws.sweep(&self.circuit, op.raw(), source, freqs)
    }

    // ---- in-place mutation ----------------------------------------------

    /// Replaces the waveform of an existing voltage source (sweeps, setup
    /// and hold searches) without re-elaboration.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::BadNetlist`] when the source is missing.
    pub fn set_source(&mut self, name: &str, wave: Waveform) -> Result<(), SpiceError> {
        self.circuit.set_vsource(name, wave)
    }

    /// Replaces the compact model of one MOSFET instance in place. The
    /// node/branch layout, workspace, and LU scratch all stay valid.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::BadNetlist`] when no MOSFET has that name.
    pub fn swap_device(
        &mut self,
        name: &str,
        mut model: Box<dyn MosfetModel>,
    ) -> Result<(), SpiceError> {
        let idx = self.mos_index(name)?;
        self.exchange_models([(idx, &mut model)]);
        Ok(())
    }

    /// Element index of the MOSFET named `name`.
    fn mos_index(&self, name: &str) -> Result<usize, SpiceError> {
        self.mos_by_name
            .get(name)
            .copied()
            .ok_or_else(|| SpiceError::BadNetlist {
                context: format!("no MOSFET named {name}"),
            })
    }

    /// Exchanges each model with the circuit's model at its element index,
    /// in iteration order.
    fn exchange_models<'a>(
        &mut self,
        swaps: impl IntoIterator<Item = (usize, &'a mut Box<dyn MosfetModel>)>,
    ) {
        for (idx, model) in swaps {
            match &mut self.circuit.elements_mut()[idx] {
                Element::Mosfet { model: slot, .. } => std::mem::swap(slot, model),
                _ => unreachable!("mos_by_name only indexes MOSFETs"),
            }
        }
    }

    /// Replaces several MOSFET models in place; returns the number swapped.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::BadNetlist`] on the first unknown instance
    /// name (earlier swaps in the batch remain applied).
    pub fn swap_devices<I, S>(&mut self, swaps: I) -> Result<usize, SpiceError>
    where
        I: IntoIterator<Item = (S, Box<dyn MosfetModel>)>,
        S: AsRef<str>,
    {
        let mut n = 0;
        for (name, model) in swaps {
            self.swap_device(name.as_ref(), model)?;
            n += 1;
        }
        Ok(n)
    }

    /// Resamples every MOSFET in the circuit: `f` receives each instance's
    /// name and current model and returns the replacement. Returns the
    /// number of devices swapped. This is the circuit-level Monte Carlo
    /// inner loop — pair it with a mismatch-sampling factory.
    pub fn swap_all_mosfets<F>(&mut self, mut f: F) -> usize
    where
        F: FnMut(&str, &dyn MosfetModel) -> Box<dyn MosfetModel>,
    {
        let mut n = 0;
        for e in self.circuit.elements_mut() {
            if let Element::Mosfet { name, model, .. } = e {
                *model = f(name, model.as_ref());
                n += 1;
            }
        }
        n
    }

    /// Does nothing: a session keeps no state between solves besides its
    /// devices and sources. Kept because the repository benchmark
    /// (`statbench/`) still calls it; it goes with the next change to the
    /// benchmark.
    pub fn invalidate_warm_start(&mut self) {}

    /// Solves the DC operating point of several Monte Carlo lanes, one
    /// after another.
    ///
    /// Each lane is a set of device swaps applied *for that lane only* —
    /// the session's own circuit is left unchanged (unlike
    /// [`Session::swap_devices`]). A lane names no start: lane `i` is
    /// bit-identical to swapping its devices into the session and calling
    /// [`Session::dc_owned_with_guess`] with `guess` (an empty guess for
    /// `None`). A lane that does not converge fails alone, never the
    /// batch.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidArgument`] for an empty batch and
    /// [`SpiceError::BadNetlist`] when any lane names an unknown MOSFET —
    /// both checked before any swap or solve. Per-lane convergence failures
    /// are reported in the corresponding entry of the returned vector.
    ///
    /// # Example
    ///
    /// ```
    /// use mosfet::{vs::VsModel, Geometry, MosfetModel};
    /// use spice::{Circuit, Session, Waveform};
    ///
    /// # fn main() -> Result<(), spice::SpiceError> {
    /// // A diode-connected NMOS under a 10 kΩ load.
    /// let mut c = Circuit::new();
    /// let vdd = c.node("vdd");
    /// let d = c.node("d");
    /// c.vsource("VDD", vdd, Circuit::GROUND, Waveform::dc(0.9));
    /// c.resistor("RL", vdd, d, 10e3);
    /// let dev = |w_nm| VsModel::nominal_nmos_40nm(Geometry::from_nm(w_nm, 40.0));
    /// c.mosfet("MN", d, d, Circuit::GROUND, Circuit::GROUND, Box::new(dev(300.0)));
    /// let mut s = Session::elaborate(c)?;
    ///
    /// // Two Monte Carlo lanes: nominal and a wider (stronger) device.
    /// let lanes = vec![
    ///     vec![("MN", dev(300.0).clone_box())],
    ///     vec![("MN", dev(600.0).clone_box())],
    /// ];
    /// let ops = s.dc_batch(lanes, None)?;
    /// let v_nom = ops[0].as_ref().unwrap().voltage(d);
    /// let v_wide = ops[1].as_ref().unwrap().voltage(d);
    /// assert!(v_wide < v_nom); // stronger pulldown sits lower
    /// # Ok(())
    /// # }
    /// ```
    pub fn dc_batch<S>(
        &mut self,
        lanes: Vec<Vec<(S, Box<dyn MosfetModel>)>>,
        guess: Option<&[(NodeId, f64)]>,
    ) -> Result<Vec<Result<DcResult, SpiceError>>, SpiceError>
    where
        S: AsRef<str>,
    {
        if lanes.is_empty() {
            return Err(SpiceError::InvalidArgument {
                context: "dc_batch requires at least one lane".into(),
            });
        }
        // Resolve every lane's names before any swap, so an unknown device
        // fails the batch with the session untouched.
        let mut resolved = lanes
            .into_iter()
            .map(|lane| {
                lane.into_iter()
                    .map(|(name, model)| Ok((self.mos_index(name.as_ref())?, model)))
                    .collect::<Result<Vec<_>, SpiceError>>()
            })
            .collect::<Result<Vec<_>, SpiceError>>()?;
        let guess = guess.unwrap_or_default();
        let mut results = Vec::with_capacity(resolved.len());
        for lane in &mut resolved {
            self.exchange_models(lane.iter_mut().map(|(idx, model)| (*idx, model)));
            results.push(self.dc_owned_with_guess(guess));
            // Swapping back in reverse order restores the session's own
            // models even when a lane names a device twice.
            self.exchange_models(lane.iter_mut().rev().map(|(idx, model)| (*idx, model)));
        }
        Ok(results)
    }

    // ---- analysis engines -----------------------------------------------

    /// The one DC solve behind every DC entry point. Plain Newton runs from
    /// each start in order, each for at most [`MAX_NEWTON_WITH_FALLBACK`]
    /// iterations, and the first result in the stable state `guess`
    /// selects ([`basin_matches`]) is the operating point. Once every start
    /// has failed, the solve is exactly the one without starts: the
    /// [`Session::ladder`] from the guess-built vector, zero for an empty
    /// guess, and for a non-empty guess then the ladder from zero, because
    /// a guess can park the continuation in a basin that this circuit no
    /// longer has (mismatch destroyed one latch state). A bad start or
    /// guess is never worse than none, and a start Newton cycles from costs
    /// at most 50 iterations.
    fn solve_dc<'a>(
        &mut self,
        starts: impl IntoIterator<Item = &'a [f64]>,
        guess: &[(NodeId, f64)],
    ) -> Result<Vec<f64>, SpiceError> {
        let started = starts.into_iter().find_map(|x0| {
            let limit = MAX_NEWTON_WITH_FALLBACK;
            let x = newton(&self.circuit, x0, &DC, limit, &mut self.ws).ok()?;
            basin_matches(&x, guess).then_some(x)
        });
        if let Some(x) = started {
            return Ok(x);
        }
        let zero = vec![0.0; self.circuit.n_unknowns()];
        if guess.is_empty() {
            return self.ladder(&zero);
        }
        let mut x0 = zero.clone();
        for &(node, v) in guess {
            if let Some(i) = node.unknown() {
                x0[i] = v;
            }
        }
        self.ladder(&x0).or_else(|_| self.ladder(&zero))
    }

    /// The continuation ladder from `x0`: plain Newton; then gmin stepping,
    /// a shunt conductance on every node tightened rung by rung, and a
    /// final plain Newton; then source stepping, every independent source
    /// ramped up to its full value. Each of the three starts from `x0`.
    /// Every Newton run before source stepping has a fallback, so it gets
    /// [`MAX_NEWTON_WITH_FALLBACK`] iterations; source stepping, the last
    /// resort, gets `MAX_NEWTON` per rung.
    fn ladder(&mut self, x0: &[f64]) -> Result<Vec<f64>, SpiceError> {
        let limit = MAX_NEWTON_WITH_FALLBACK;
        if let Ok(x) = newton(&self.circuit, x0, &DC, limit, &mut self.ws) {
            return Ok(x);
        }
        let relaxed = GMIN_STEPS.iter().try_fold(x0.to_vec(), |x, &gmin| {
            let mode = Mode::Dc {
                gmin,
                source_scale: 1.0,
            };
            newton(&self.circuit, &x, &mode, limit, &mut self.ws)
        });
        if let Ok(x) = relaxed.and_then(|x| newton(&self.circuit, &x, &DC, limit, &mut self.ws)) {
            return Ok(x);
        }
        SOURCE_STEPS
            .iter()
            .try_fold(x0.to_vec(), |x, &source_scale| {
                let mode = Mode::Dc {
                    gmin: 0.0,
                    source_scale,
                };
                newton(&self.circuit, &x, &mode, MAX_NEWTON, &mut self.ws).map_err(|e| {
                    SpiceError::NoConvergence {
                        analysis: "dc op",
                        detail: format!("source stepping stuck at scale {source_scale}: {e}"),
                    }
                })
            })
    }

    /// The points of [`Session::dc_sweep_owned`] of the source whose branch
    /// current is unknown `branch`. Point 0 is solved with `guess` and no
    /// start; point `k ≥ 1` with no guess, from [`hermite_start`] over the
    /// points before it, then from point `k − 1`. Each point but the last
    /// leaves its slope `dx/dv` ([`Workspace::sensitivity`]) for the
    /// points after it.
    fn sweep_points(
        &mut self,
        source: &str,
        branch: usize,
        values: &[f64],
        guess: &[(NodeId, f64)],
    ) -> Result<SweepResult, SpiceError> {
        let n = self.circuit.n_unknowns();
        let [mut start, mut t_before, mut t_prev] = [(); 3].map(|()| vec![0.0; n]);
        let mut points: Vec<DcResult> = Vec::with_capacity(values.len());
        for (k, &v) in values.iter().enumerate() {
            self.circuit.set_vsource(source, Waveform::dc(v))?;
            let prev = k
                .checked_sub(1)
                .map(|j| (values[j], points[j].raw(), &t_prev[..]));
            let before = k
                .checked_sub(2)
                .map(|j| (values[j], points[j].raw(), &t_before[..]));
            let predicted =
                prev.and_then(|prev| hermite_start(before, prev, v, self.nn, &mut start));
            let x_prev = prev.map(|(_, x, _)| x);
            let point_guess = if k == 0 { guess } else { &[] };
            let x = self.solve_dc(predicted.into_iter().chain(x_prev), point_guess)?;
            if k + 1 < values.len() {
                std::mem::swap(&mut t_before, &mut t_prev);
                self.ws.sensitivity(branch, &mut t_prev);
            }
            points.push(DcResult::new(x, self.nn));
        }
        Ok(SweepResult {
            values: values.to_vec(),
            points,
        })
    }

    /// Transient analysis from the t = 0 operating point `op`, which a DC
    /// entry point returned for this circuit (a guess selects the state of
    /// bistable circuits there): breakpoint-aligned fixed grid, trapezoidal
    /// integration with backward-Euler restarts, recursive step halving on
    /// Newton failure. The run solves no operating point.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidArgument`] when `op` does not have one
    /// entry per circuit unknown, and propagates convergence errors of a
    /// step that still fails after the maximum halving depth.
    pub fn tran_owned(
        &mut self,
        op: &DcResult,
        opts: &TranOptions,
    ) -> Result<TranResult, SpiceError> {
        self.check_unknowns(op.raw(), "operating point")?;
        let mut x = op.raw().to_vec();
        self.state.init(&self.circuit, &x);

        // Every source breakpoint after t=0: the time grid includes them,
        // and integration restarts with BE after crossing one.
        let breakpoints: Vec<f64> = self
            .circuit
            .elements()
            .iter()
            .filter_map(|e| match e {
                Element::Vsource { wave, .. } | Element::Isource { wave, .. } => {
                    Some(wave.breakpoints(opts.tstop))
                }
                _ => None,
            })
            .flatten()
            .filter(|&bp| bp > 0.0)
            .collect();

        // The time grid: multiples of dt plus the breakpoints.
        let n_steps = (opts.tstop / opts.dt).ceil() as usize;
        let mut grid: Vec<f64> = (1..=n_steps)
            .map(|k| (k as f64 * opts.dt).min(opts.tstop))
            .chain(breakpoints.iter().copied())
            .collect();
        grid.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        grid.dedup_by(|a, b| (*a - *b).abs() < 1e-18);

        let mut times = Vec::with_capacity(grid.len() + 1);
        let mut snapshots = Vec::with_capacity(grid.len() + 1);
        times.push(0.0);
        snapshots.push(x.clone());

        let mut t_prev = 0.0;
        let mut restart = true;
        for &t in &grid {
            let h = t - t_prev;
            if h <= 0.0 {
                continue;
            }
            let method = if restart {
                Integrator::BackwardEuler
            } else {
                Integrator::Trapezoidal
            };
            self.advance(&mut x, t_prev, t, method, 0)?;
            times.push(t);
            snapshots.push(x.clone());
            // Restart integration right after crossing a breakpoint.
            restart = breakpoints
                .iter()
                .any(|&bp| bp > t_prev + 1e-18 && bp <= t + 1e-18);
            t_prev = t;
        }

        Ok(TranResult::new(times, snapshots, self.nn))
    }

    /// One integration step from `t0` to `t1`, with recursive halving.
    fn advance(
        &mut self,
        x: &mut Vec<f64>,
        t0: f64,
        t1: f64,
        method: Integrator,
        depth: usize,
    ) -> Result<(), SpiceError> {
        let h = t1 - t0;
        let mode = Mode::Tran {
            method,
            h,
            t: t1,
            state: &self.state,
        };
        match newton(&self.circuit, x, &mode, MAX_NEWTON, &mut self.ws) {
            Ok(x_new) => {
                self.state.advance(&self.circuit, &x_new, h, method);
                *x = x_new;
                Ok(())
            }
            Err(e) => {
                if depth >= MAX_HALVINGS {
                    return Err(SpiceError::NoConvergence {
                        analysis: "transient",
                        detail: format!("step at t={t1:.3e} failed after halving: {e}"),
                    });
                }
                let tm = 0.5 * (t0 + t1);
                // Sub-steps restart with BE for robustness.
                self.advance(x, t0, tm, Integrator::BackwardEuler, depth + 1)?;
                self.advance(x, tm, t1, Integrator::BackwardEuler, depth + 1)
            }
        }
    }

    /// Rejects an unknown vector `x`, named `what` in the error, that does
    /// not have one entry per circuit unknown.
    fn check_unknowns(&self, x: &[f64], what: &str) -> Result<(), SpiceError> {
        let n = self.circuit.n_unknowns();
        if x.len() == n {
            return Ok(());
        }
        Err(SpiceError::InvalidArgument {
            context: format!("{what} length {} for {n}-unknown circuit", x.len()),
        })
    }
}

/// The start of a DC sweep point at source value `v`, predicted from the
/// points before it, each a source value, solution and slope `dx/dv`:
/// the tangent line at `(v1, x1, t1)` without `before`, otherwise the
/// cubic Hermite through `before = (v2, x2, t2)` and `(v1, x1, t1)`. With
/// `g = v1 − v2` and `s = (v − v2)/g` that is
/// `h00·x2 + h10·g·t2 + h01·x1 + h11·g·t1`, whose step from `x1` is
/// `h00·(x2 − x1) + g·(h10·t2 + h11·t1)` because `h00 + h01 = 1`. The
/// step's largest change among the `nn` node voltages is capped like a
/// Newton step's ([`step_scale`]), branch currents scaled with it. Writes
/// the start into `start` and returns it, or `None` when the step is not
/// finite (a repeated sweep value), so the point starts from `x1`.
fn hermite_start<'a>(
    before: Option<(f64, &[f64], &[f64])>,
    (v1, x1, t1): (f64, &[f64], &[f64]),
    v: f64,
    nn: usize,
    start: &'a mut [f64],
) -> Option<&'a [f64]> {
    match before {
        None => {
            for (d, t) in start.iter_mut().zip(t1) {
                *d = (v - v1) * t;
            }
        }
        Some((v2, x2, t2)) => {
            let g = v1 - v2;
            let s = (v - v2) / g;
            let h00 = (2.0 * s - 3.0) * s * s + 1.0;
            let h10 = ((s - 2.0) * s + 1.0) * s;
            let h11 = (s - 1.0) * s * s;
            for (i, d) in start.iter_mut().enumerate() {
                *d = h00 * (x2[i] - x1[i]) + g * (h10 * t2[i] + h11 * t1[i]);
            }
        }
    }
    if !start.iter().all(|d| d.is_finite()) {
        return None;
    }
    let max_dv = start[..nn].iter().fold(0.0_f64, |m, d| m.max(d.abs()));
    let scale = step_scale(max_dv);
    for (d, x) in start.iter_mut().zip(x1) {
        *d = x + scale * *d;
    }
    Some(start)
}

/// True when the solved unknown vector `x` lies in the stable state the
/// guess selects: every guessed node must sit within half the guess span
/// (max minus min guessed value) of its guessed voltage. A flipped latch
/// node is a full span away, a merely disturbed one (e.g. the read-upset
/// low node of an SRAM cell) well under half. A guess naming fewer than
/// two distinct values carries no basin information and always matches.
fn basin_matches(x: &[f64], guess: &[(NodeId, f64)]) -> bool {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(_, v) in guess {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let span = hi - lo;
    if !(span > 0.0) {
        return true;
    }
    guess.iter().all(|&(node, v)| match node.unknown() {
        Some(i) => (x[i] - v).abs() <= 0.5 * span,
        None => true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waveform::Waveform;
    use mosfet::bsim::BsimModel;
    use mosfet::vs::{VsModel, VsParams};
    use mosfet::{Bias, ChargeEval, Charges, DcEval, Geometry, MismatchSpec, Polarity};
    use stats::Sampler;
    use std::sync::{Arc, Mutex};

    fn divider() -> (Circuit, NodeId, NodeId) {
        let mut c = Circuit::new();
        let a = c.node("a");
        let m = c.node("m");
        c.vsource("V1", a, Circuit::GROUND, Waveform::dc(1.0));
        c.resistor("R1", a, m, 2e3);
        c.resistor("R2", m, Circuit::GROUND, 1e3);
        (c, a, m)
    }

    fn inverter(vdd_v: f64, vin_v: f64) -> (Circuit, NodeId) {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vin = c.node("in");
        let out = c.node("out");
        c.vsource("VDD", vdd, Circuit::GROUND, Waveform::dc(vdd_v));
        c.vsource("VIN", vin, Circuit::GROUND, Waveform::dc(vin_v));
        c.mosfet(
            "MP",
            out,
            vin,
            vdd,
            vdd,
            Box::new(VsModel::nominal_pmos_40nm(Geometry::from_nm(600.0, 40.0))),
        );
        c.mosfet(
            "MN",
            out,
            vin,
            Circuit::GROUND,
            Circuit::GROUND,
            Box::new(VsModel::nominal_nmos_40nm(Geometry::from_nm(300.0, 40.0))),
        );
        (c, out)
    }

    #[test]
    fn analyses_return_results_by_value() {
        let (c, a, m) = divider();
        let mut s = Session::elaborate(c).unwrap();
        let op = s.dc_owned().unwrap();
        assert!((op.voltage(m) - 1.0 / 3.0).abs() < 1e-6);
        assert!((op.voltage(a) - 1.0).abs() < 1e-6);
        // An empty guess is the plain solve.
        let again = s.dc_owned_with_guess(&[]).unwrap();
        assert!((again.voltage(m) - op.voltage(m)).abs() < 1e-12);
        assert!(matches!(
            s.dc_sweep_owned("V1", &[], &[]),
            Err(SpiceError::InvalidArgument { .. })
        ));
        assert!(s.dc_sweep_owned("nope", &[1.0], &[]).is_err());
    }

    #[test]
    fn sweep_restores_source_waveform() {
        let (c, a, m) = divider();
        let mut s = Session::elaborate(c).unwrap();
        let sweep = s.dc_sweep_owned("V1", &[0.0, 0.6, 3.0], &[]).unwrap();
        let vm = sweep.voltages(m);
        for (v, vin) in vm.iter().zip(&sweep.values) {
            assert!((v - vin / 3.0).abs() < 1e-6);
        }
        // The original 1 V DC value is restored.
        let op = s.dc_owned().unwrap();
        assert!((op.voltage(a) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn warm_started_resolve_matches_fresh_elaboration() {
        // Solve, swap in a slightly different device, re-solve from the
        // previous operating point; a fresh cold session on the same
        // swapped netlist must agree.
        let (c, out) = inverter(0.9, 0.45);
        let mut warm = Session::elaborate(c.clone()).unwrap();
        let before = warm.dc_owned().unwrap();
        let weaker = VsModel::nominal_nmos_40nm(Geometry::from_nm(240.0, 40.0));
        warm.swap_device("MN", Box::new(weaker.clone())).unwrap();
        let v_warm = warm.dc_owned_from(before.raw(), &[]).unwrap().voltage(out);

        let mut cold_c = c;
        // Rebuild the same swapped netlist from scratch.
        let mut cold = {
            cold_c.set_vsource("VIN", Waveform::dc(0.45)).unwrap();
            let mut s = Session::elaborate(cold_c).unwrap();
            s.swap_device("MN", Box::new(weaker)).unwrap();
            s
        };
        let v_cold = cold.dc_owned().unwrap().voltage(out);
        assert!(
            (v_warm - v_cold).abs() < 1e-6,
            "warm {v_warm} vs cold {v_cold}"
        );
    }

    #[test]
    fn swap_device_changes_solution_in_place() {
        let (c, out) = inverter(0.9, 0.0);
        let mut s = Session::elaborate(c).unwrap();
        let hi = s.dc_owned().unwrap().voltage(out);
        assert!(hi > 0.85, "inverter high = {hi}");
        // Swap the PMOS for a much weaker device: the high level persists
        // (statics), but the operating point genuinely re-solves.
        s.swap_device(
            "MP",
            Box::new(VsModel::nominal_pmos_40nm(Geometry::from_nm(80.0, 40.0))),
        )
        .unwrap();
        let hi2 = s.dc_owned().unwrap().voltage(out);
        assert!(hi2 > 0.8);
        assert_ne!(hi, hi2);
        assert!(s
            .swap_device(
                "NOPE",
                Box::new(VsModel::nominal_pmos_40nm(Geometry::from_nm(80.0, 40.0)))
            )
            .is_err());
    }

    #[test]
    fn swap_all_mosfets_counts_devices() {
        let (c, _) = inverter(0.9, 0.45);
        let mut s = Session::elaborate(c).unwrap();
        let is_mosfet = |e: &&Element| matches!(e, Element::Mosfet { .. });
        assert_eq!(s.circuit().elements().iter().filter(is_mosfet).count(), 2);
        let n = s.swap_all_mosfets(|_, old| old.clone_box());
        assert_eq!(n, 2);
    }

    #[test]
    fn duplicate_mosfet_names_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let g = Geometry::from_nm(300.0, 40.0);
        c.vsource("V1", a, Circuit::GROUND, Waveform::dc(0.9));
        c.mosfet(
            "M1",
            a,
            a,
            Circuit::GROUND,
            Circuit::GROUND,
            Box::new(VsModel::nominal_nmos_40nm(g)),
        );
        c.mosfet(
            "M1",
            a,
            a,
            Circuit::GROUND,
            Circuit::GROUND,
            Box::new(VsModel::nominal_nmos_40nm(g)),
        );
        assert!(Session::elaborate(c).is_err());
    }

    #[test]
    fn empty_circuit_rejected_at_elaboration() {
        assert!(Session::elaborate(Circuit::new()).is_err());
    }

    #[test]
    fn tran_runs_through_session() {
        let r = 1e3;
        let cap = 1e-9;
        let tau = r * cap;
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource(
            "V1",
            vin,
            Circuit::GROUND,
            Waveform::step(0.0, 1.0, 0.0, 1e-12),
        );
        ckt.resistor("R1", vin, out, r);
        ckt.capacitor("C1", out, Circuit::GROUND, cap);
        let mut s = Session::elaborate(ckt).unwrap();
        let op = s.dc_owned().unwrap();
        let opts = TranOptions::new(5.0 * tau, tau / 100.0);
        let res = s.tran_owned(&op, &opts).unwrap();
        let v = res.voltages(out);
        for (i, &t) in res.times().iter().enumerate() {
            let expected = 1.0 - (-t / tau).exp();
            assert!((v[i] - expected).abs() < 5e-3, "t={t:.3e}");
        }
        // A second run on the same session gives the same answer (state
        // buffers are reused, not stale).
        let res2 = s.tran_owned(&op, &opts).unwrap();
        let v2 = res2.voltages(out);
        for (a, b) in v.iter().zip(&v2) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    /// An asymmetric cross-coupled inverter pair (latch): two stable
    /// states with distinct small-signal transfers.
    fn latch() -> (Circuit, NodeId, NodeId) {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("VDD", vdd, Circuit::GROUND, Waveform::dc(0.9));
        let nmos = |w| Box::new(VsModel::nominal_nmos_40nm(Geometry::from_nm(w, 40.0)));
        let pmos = |w| Box::new(VsModel::nominal_pmos_40nm(Geometry::from_nm(w, 40.0)));
        // Inverter 1 (input a, output b) is stronger than inverter 2.
        c.mosfet("MP1", b, a, vdd, vdd, pmos(600.0));
        c.mosfet("MN1", b, a, Circuit::GROUND, Circuit::GROUND, nmos(300.0));
        c.mosfet("MP2", a, b, vdd, vdd, pmos(300.0));
        c.mosfet("MN2", a, b, Circuit::GROUND, Circuit::GROUND, nmos(150.0));
        (c, a, b)
    }

    /// Newton from a start, accepted only in the state the guess selects.
    /// A start in the latch's other state converges there and is
    /// discarded, so the sweep is the one at the guessed solve of a fresh
    /// session.
    #[test]
    fn warm_start_in_the_other_state_is_repinned_by_the_guess() {
        let (c, a, b) = latch();
        let freqs = [1e9];
        let sweep = |s: &mut Session, start: Option<Vec<f64>>, guess: &[(NodeId, f64)]| {
            let op = match start {
                Some(start) => s.dc_owned_from(&start, guess),
                None => s.dc_owned_with_guess(guess),
            };
            s.ac_owned(&op.unwrap(), "VDD", &freqs).unwrap()
        };
        // Solve the "a high" state...
        let mut s = Session::elaborate(c.clone()).unwrap();
        let op = s.dc_owned_with_guess(&[(a, 0.9), (b, 0.0)]).unwrap();
        assert!(op.voltage(a) > 0.6, "latch must latch: {}", op.voltage(a));
        // ...then request the opposite basin from it: Newton converges
        // (to the wrong state) and the result must be discarded.
        let guess = [(a, 0.0), (b, 0.9)];
        let got = sweep(&mut s, Some(op.raw().to_vec()), &guess);
        let want = sweep(&mut Session::elaborate(c.clone()).unwrap(), None, &guess);
        for node in [a, b] {
            let (x, y) = (got.magnitudes(node)[0], want.magnitudes(node)[0]);
            assert!((x - y).abs() < 1e-9 * y.max(1e-12), "{x} vs {y}");
        }
        // The check is not vacuous: the two states have visibly different
        // transfers in this asymmetric latch.
        let mut flipped = Session::elaborate(c).unwrap();
        let other = sweep(&mut flipped, None, &[(a, 0.9), (b, 0.0)]);
        assert!(
            (other.magnitudes(a)[0] - want.magnitudes(a)[0]).abs() > 1e-3 * want.magnitudes(a)[0],
            "states indistinguishable: the repin test proves nothing"
        );
    }

    const VDD: f64 = 0.9;

    /// A 6T SRAM cell of nominal VS devices wired for READ (word line and
    /// both bit lines at `VDD`): a bistable circuit with supply branches.
    fn sram_cell() -> (Circuit, NodeId, NodeId) {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let l = c.node("l");
        let r = c.node("r");
        let bl = c.node("bl");
        let blb = c.node("blb");
        let wl = c.node("wl");
        for (name, node) in [("VDD", vdd), ("VBL", bl), ("VBLB", blb), ("VWL", wl)] {
            c.vsource(name, node, Circuit::GROUND, Waveform::dc(VDD));
        }
        let nmos = |w| Box::new(VsModel::nominal_nmos_40nm(Geometry::from_nm(w, 40.0)));
        let pmos = |w| Box::new(VsModel::nominal_pmos_40nm(Geometry::from_nm(w, 40.0)));
        let gnd = Circuit::GROUND;
        c.mosfet("PU1", l, r, vdd, vdd, pmos(80.0));
        c.mosfet("PD1", l, r, gnd, gnd, nmos(150.0));
        c.mosfet("PG1", bl, wl, l, gnd, nmos(100.0));
        c.mosfet("PU2", r, l, vdd, vdd, pmos(80.0));
        c.mosfet("PD2", r, l, gnd, gnd, nmos(150.0));
        c.mosfet("PG2", blb, wl, r, gnd, nmos(100.0));
        (c, l, r)
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// Started from the cell's other stable state, Newton converges in the
    /// wrong basin, and the guessed ladder must take over exactly.
    #[test]
    fn dc_owned_from_falls_back_to_the_exact_guessed_solve() {
        let (c, l, r) = sram_cell();
        let guess = [(l, 0.0), (r, VDD)];
        let want = Session::elaborate(c.clone())
            .unwrap()
            .dc_owned_with_guess(&guess)
            .unwrap();
        let flipped = Session::elaborate(c.clone())
            .unwrap()
            .dc_owned_with_guess(&[(l, VDD), (r, 0.0)])
            .unwrap();
        assert!(flipped.voltage(r) < 0.35 * VDD, "the cell must latch");
        let mut s = Session::elaborate(c).unwrap();
        let got = s.dc_owned_from(flipped.raw(), &guess).unwrap();
        assert_eq!(bits(got.raw()), bits(want.raw()));
        assert!(got.voltage(r) > 0.75 * VDD);
    }

    #[test]
    fn dc_owned_from_rejects_a_start_of_the_wrong_length() {
        let (c, l, r) = sram_cell();
        let guess = [(l, 0.0), (r, VDD)];
        let mut s = Session::elaborate(c).unwrap();
        let n = s.circuit().n_unknowns();
        for len in [n - 1, n + 1] {
            assert!(matches!(
                s.dc_owned_from(&vec![0.0; len], &guess),
                Err(SpiceError::InvalidArgument { .. })
            ));
        }
    }

    #[test]
    fn dc_owned_from_an_operating_point_returns_it() {
        let (c, l, r) = sram_cell();
        let guess = [(l, 0.0), (r, VDD)];
        let op = Session::elaborate(c.clone())
            .unwrap()
            .dc_owned_with_guess(&guess)
            .unwrap();
        let got = Session::elaborate(c)
            .unwrap()
            .dc_owned_from(op.raw(), &guess)
            .unwrap();
        assert!((got.voltage(r) - op.voltage(r)).abs() <= 1e-12);
    }

    /// Resample → Newton from the previous sample's operating point → AC:
    /// the sweep matches a cold solve of the same devices.
    #[test]
    fn warm_started_ac_matches_cold_ac_after_swaps() {
        let (c, out) = inverter(0.9, 0.42);
        let freqs = [1e6, 1e9, 1e11];
        let mut warm = Session::elaborate(c.clone()).unwrap();
        let mut previous = warm.dc_owned().unwrap();
        let mut reference = Session::elaborate(c).unwrap();
        for w_nm in [300.0, 280.0, 320.0, 260.0] {
            let dev = VsModel::nominal_nmos_40nm(Geometry::from_nm(w_nm, 40.0));
            warm.swap_device("MN", Box::new(dev.clone())).unwrap();
            reference.swap_device("MN", Box::new(dev)).unwrap();
            let op = warm.dc_owned_from(previous.raw(), &[]).unwrap();
            let a = warm.ac_owned(&op, "VIN", &freqs).unwrap();
            previous = op;
            let op = reference.dc_owned().unwrap();
            let b = reference.ac_owned(&op, "VIN", &freqs).unwrap();
            for (x, y) in a.magnitudes(out).iter().zip(b.magnitudes(out)) {
                assert!((x - y).abs() < 1e-6 * y.max(1e-12), "{x} vs {y}");
            }
        }
    }

    #[test]
    fn ac_runs_through_session() {
        let r = 1e3;
        let cap = 1e-9;
        let fc = 1.0 / (2.0 * std::f64::consts::PI * r * cap);
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource("V1", vin, Circuit::GROUND, Waveform::dc(0.0));
        ckt.resistor("R1", vin, out, r);
        ckt.capacitor("C1", out, Circuit::GROUND, cap);
        let mut s = Session::elaborate(ckt).unwrap();
        let op = s.dc_owned().unwrap();
        let res = s.ac_owned(&op, "V1", &[fc]).unwrap();
        let mag = res.magnitudes(out);
        assert!((mag[0] - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-3);
        assert!(s.ac_owned(&op, "V1", &[]).is_err());
        assert!(s.ac_owned(&op, "nope", &[1.0]).is_err());
    }

    /// A half-cell of [`sram_cell`] with its input driven by `VIN`: the
    /// HOLD inverter, plus in READ the pass gate from a bit line at `VDD`.
    fn half_cell(read: bool) -> (Circuit, NodeId) {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vin = c.node("vin");
        let out = c.node("out");
        c.vsource("VDD", vdd, Circuit::GROUND, Waveform::dc(VDD));
        c.vsource("VIN", vin, Circuit::GROUND, Waveform::dc(0.0));
        let nmos = |w| Box::new(VsModel::nominal_nmos_40nm(Geometry::from_nm(w, 40.0)));
        let pmos = |w| Box::new(VsModel::nominal_pmos_40nm(Geometry::from_nm(w, 40.0)));
        let gnd = Circuit::GROUND;
        c.mosfet("PU", out, vin, vdd, vdd, pmos(80.0));
        c.mosfet("PD", out, vin, gnd, gnd, nmos(150.0));
        if read {
            let bl = c.node("bl");
            let wl = c.node("wl");
            c.vsource("VBL", bl, gnd, Waveform::dc(VDD));
            c.vsource("VWL", wl, gnd, Waveform::dc(VDD));
            c.mosfet("PG", bl, wl, out, gnd, nmos(100.0));
        }
        (c, out)
    }

    /// The master-slave D flip-flop of the paper's Fig. 8 (NMOS pass
    /// gates, N-skewed latch inverters, a 600/300 nm output buffer) holding
    /// Q=1 with `d` low, and its initial-state guess: the clock edge at
    /// 500 ps flips Q to 0. In this state every node is driven at DC. In
    /// the opposite one the slave input sits near `VDD` on pass-gate
    /// leakage alone, a DC value set to only about 1e-12 relative:
    /// reordering the element stamps moves the full MNA solution there by
    /// 2e-13, and the reduced solve lands 2e-12 to 4e-12 away.
    fn dff() -> (Circuit, Vec<(NodeId, f64)>, NodeId) {
        let mut c = Circuit::new();
        let [vdd, d, clk, clkb, n1, n2, n3, n4, q_int, n5, q] = [
            "vdd", "d", "clk", "clkb", "n1", "n2", "n3", "n4", "q_int", "n5", "q",
        ]
        .map(|n| c.node(n));
        let gnd = Circuit::GROUND;
        let edge = |from, to| Waveform::step(from, to, 500e-12, 15e-12);
        c.vsource("VDD", vdd, gnd, Waveform::dc(VDD));
        c.vsource("VD", d, gnd, Waveform::dc(0.0));
        c.vsource("VCLK", clk, gnd, edge(0.0, VDD));
        c.vsource("VCLKB", clkb, gnd, edge(VDD, 0.0));
        let nmos = |w| Box::new(VsModel::nominal_nmos_40nm(Geometry::from_nm(w, 40.0)));
        let pmos = |w| Box::new(VsModel::nominal_pmos_40nm(Geometry::from_nm(w, 40.0)));
        let mut pass = |name: &str, from, to, gate| {
            c.mosfet(name, from, gate, to, gnd, nmos(300.0));
        };
        pass("M1", d, n1, clkb);
        pass("M2", n3, n1, clk);
        pass("M3", n2, n4, clk);
        pass("M4", n5, n4, clkb);
        for (name, input, output, wp) in [
            ("INV1", n1, n2, 150.0),
            ("INV2", n2, n3, 150.0),
            ("INV3", n4, q_int, 150.0),
            ("INV4", q_int, n5, 150.0),
            ("BUF", q_int, q, 600.0),
        ] {
            c.mosfet(&format!("{name}.MP"), output, input, vdd, vdd, pmos(wp));
            c.mosfet(&format!("{name}.MN"), output, input, gnd, gnd, nmos(300.0));
        }
        let guess = vec![
            (n1, 0.0),
            (n2, VDD),
            (n3, 0.0),
            (n4, 0.0),
            (q_int, VDD),
            (n5, 0.0),
            (q, 0.0),
        ];
        (c, guess, q_int)
    }

    /// A model that logs the bias of every `eval_dc` call, so a solve's
    /// log is its Newton path, iterate by iterate.
    #[derive(Debug)]
    struct Recording {
        inner: Box<dyn MosfetModel>,
        log: Arc<Mutex<Vec<f64>>>,
    }

    impl MosfetModel for Recording {
        fn polarity(&self) -> Polarity {
            self.inner.polarity()
        }

        fn geometry(&self) -> Geometry {
            self.inner.geometry()
        }

        fn ids(&self, bias: Bias) -> f64 {
            self.inner.ids(bias)
        }

        fn charges(&self, bias: Bias) -> Charges {
            self.inner.charges(bias)
        }

        fn name(&self) -> &'static str {
            self.inner.name()
        }

        fn clone_box(&self) -> Box<dyn MosfetModel> {
            Box::new(Recording {
                inner: self.inner.clone_box(),
                log: Arc::clone(&self.log),
            })
        }

        fn eval_dc(&self, bias: Bias) -> DcEval {
            let mut log = self.log.lock().expect("no test thread panics holding it");
            log.extend([bias.vgs, bias.vds, bias.vbs]);
            self.inner.eval_dc(bias)
        }

        fn eval_charges(&self, bias: Bias) -> ChargeEval {
            self.inner.eval_charges(bias)
        }
    }

    /// Runs `analysis` on a session of `c` that solves through `ws`, every
    /// MOSFET wrapped in a [`Recording`]. Returns the result and the log,
    /// three biases per device evaluation.
    fn recorded<T>(
        c: &Circuit,
        ws: Workspace,
        analysis: impl Fn(&mut Session) -> T,
    ) -> (T, Vec<f64>) {
        let mut s = Session::elaborate(c.clone()).unwrap();
        s.ws = ws;
        let log = Arc::new(Mutex::new(Vec::new()));
        s.swap_all_mosfets(|_, m| {
            Box::new(Recording {
                inner: m.clone_box(),
                log: Arc::clone(&log),
            })
        });
        let result = analysis(&mut s);
        let path = std::mem::take(&mut *log.lock().expect("no test thread panics holding it"));
        (result, path)
    }

    /// Every entry of `got` within 1e-12 of the reference `want`,
    /// relative to the largest magnitude at its index over all vectors.
    fn assert_agrees(got: &[Vec<f64>], want: &[Vec<f64>], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        let mut scale = vec![0.0_f64; want.first().map_or(0, Vec::len)];
        for x in got.iter().chain(want) {
            assert_eq!(x.len(), scale.len(), "{what}");
            for (s, v) in scale.iter_mut().zip(x) {
                *s = s.max(v.abs());
            }
        }
        for (k, (g, w)) in got.iter().zip(want).enumerate() {
            for (i, ((g, w), s)) in g.iter().zip(w).zip(&scale).enumerate() {
                assert!(
                    (g - w).abs() <= 1e-12 * s,
                    "{what}: vector {k}, entry {i}: {g} vs reference {w}"
                );
            }
        }
    }

    /// Runs `analysis` on a session of `c` and on its full-MNA reference,
    /// a session whose workspace eliminates nothing, and requires the same
    /// outcome. Both take the same Newton path: the same number of device
    /// evaluations, at biases within 1e-12 of each other (relative to the
    /// largest bias), so the same iterations and damping. Both return the
    /// same number of unknown vectors, each unknown within 1e-12 relative
    /// to its largest magnitude over the run, or errors of the same kind.
    /// Returns the reduced result.
    fn against_full_mna<F>(
        c: &Circuit,
        what: &str,
        analysis: F,
    ) -> Result<Vec<Vec<f64>>, SpiceError>
    where
        F: Fn(&mut Session) -> Result<Vec<Vec<f64>>, SpiceError>,
    {
        let (got, path) = recorded(c, Workspace::new(c), &analysis);
        let (want, full_path) = recorded(c, Workspace::unreduced(c), &analysis);
        assert_eq!(path.len(), full_path.len(), "{what}: device evaluations");
        // One vector per bias voltage, so all share one scale.
        let each = |p: Vec<f64>| p.into_iter().map(|v| vec![v]).collect::<Vec<_>>();
        assert_agrees(
            &each(path),
            &each(full_path),
            &format!("{what}: Newton path"),
        );
        match (&got, &want) {
            (Ok(got), Ok(want)) => assert_agrees(got, want, what),
            (Err(g), Err(w)) => assert_eq!(
                std::mem::discriminant(g),
                std::mem::discriminant(w),
                "{what}: {g} vs full MNA {w}"
            ),
            _ => panic!("{what}: {got:?} vs full MNA {want:?}"),
        }
        got
    }

    /// Newton on the free unknowns takes the full MNA solve's steps: DC
    /// solves, a sweep and a transient follow a full-MNA reference
    /// Newton's path and agree with it unknown by unknown, branch currents
    /// included, on circuits with pinned nodes, a floating source, nothing
    /// free, and a node two sources pin (singular either way).
    #[test]
    fn reduced_newton_matches_the_full_mna_reference() {
        let (cell, l, r) = sram_cell();
        let guess = [(l, 0.0), (r, VDD)];
        let raw = |op: DcResult| vec![op.raw().to_vec()];
        let nominal = against_full_mna(&cell, "6T cell from the guess", |s| {
            s.dc_owned_with_guess(&guess).map(raw)
        })
        .unwrap();
        // A served sample: skewed devices, Newton from the nominal start.
        let weak = VsModel::nominal_nmos_40nm(Geometry::from_nm(120.0, 40.0));
        against_full_mna(&cell, "6T cell from the nominal start", |s| {
            s.swap_device("PD2", Box::new(weak.clone()))?;
            s.dc_owned_from(&nominal[0], &guess).map(raw)
        })
        .unwrap();

        let (read, _) = half_cell(true);
        let values: Vec<f64> = (0..31).map(|i| VDD * f64::from(i) / 30.0).collect();
        against_full_mna(&read, "READ half-cell sweep", |s| {
            let sweep = s.dc_sweep_owned("VIN", &values, &[])?;
            Ok(sweep.points.iter().map(|p| p.raw().to_vec()).collect())
        })
        .unwrap();

        let (ff, ic, q_int) = dff();
        let steps = against_full_mna(&ff, "DFF transient", |s| {
            let op = s.dc_owned_with_guess(&ic)?;
            let res = s.tran_owned(&op, &TranOptions::new(850e-12, 4e-12))?;
            let nodes: Vec<_> = (1..s.circuit.node_count())
                .map(|i| res.voltages(NodeId(i)))
                .collect();
            let currents: Vec<_> = (0..s.circuit.n_vsources())
                .map(|k| res.vsource_currents(k))
                .collect();
            // One vector per time point: `[t, v_1 .., i_1 ..]`.
            Ok((0..res.len())
                .map(|p| {
                    std::iter::once(res.times()[p])
                        .chain(nodes.iter().chain(&currents).map(|trace| trace[p]))
                        .collect()
                })
                .collect())
        })
        .unwrap();
        assert!(steps.len() > 200, "{} time points", steps.len());
        let q = 1 + q_int.unknown().unwrap();
        let (first, last) = (&steps[0], &steps[steps.len() - 1]);
        assert!(first[q] > 0.8 * VDD && last[q] < 0.2 * VDD, "Q must flip");

        // A floating source: its branch current stays a free unknown.
        let mut c = Circuit::new();
        let [a, b, m] = ["a", "b", "m"].map(|n| c.node(n));
        c.vsource("V1", a, Circuit::GROUND, Waveform::dc(VDD));
        c.vsource("V2", b, a, Waveform::dc(-0.3));
        c.resistor("R1", b, m, 2e3);
        let nmos = VsModel::nominal_nmos_40nm(Geometry::from_nm(300.0, 40.0));
        c.mosfet("MN", m, m, Circuit::GROUND, Circuit::GROUND, Box::new(nmos));
        against_full_mna(&c, "floating source", |s| s.dc_owned().map(raw)).unwrap();

        // Every unknown pinned or eliminated: nothing left to factor.
        let mut c = Circuit::new();
        let [a, b] = ["a", "b"].map(|n| c.node(n));
        c.vsource("V1", a, Circuit::GROUND, Waveform::dc(1.0));
        c.vsource("V2", b, Circuit::GROUND, Waveform::dc(0.4));
        c.resistor("R1", a, b, 1e3);
        assert_eq!(Workspace::new(&c).n_free(), 0);
        let op = against_full_mna(&c, "all-pinned divider", |s| s.dc_owned().map(raw)).unwrap();
        assert_eq!(op[0][..2], [1.0, 0.4]);

        // Two grounded sources on one node: neither is eliminated.
        let mut c = Circuit::new();
        let a = c.node("a");
        c.vsource("V1", a, Circuit::GROUND, Waveform::dc(1.0));
        c.vsource("V2", a, Circuit::GROUND, Waveform::dc(1.0));
        c.resistor("R1", a, Circuit::GROUND, 1e3);
        assert_eq!(Workspace::new(&c).n_free(), 3);
        assert!(against_full_mna(&c, "doubly pinned node", |s| s.dc_owned().map(raw)).is_err());
        for mut ws in [Workspace::new(&c), Workspace::unreduced(&c)] {
            let singular = newton(&c, &[0.0; 3], &DC, MAX_NEWTON, &mut ws);
            assert!(matches!(singular, Err(SpiceError::SingularSystem { .. })));
        }
    }

    /// Each Newton iteration of a Monte Carlo sample factors what no
    /// grounded source pins: the half-cells' output node, the cell's two
    /// storage nodes.
    #[test]
    fn sram_newton_systems_hold_only_the_storage_nodes() {
        for (read, name) in [(false, "HOLD"), (true, "READ")] {
            let (c, _) = half_cell(read);
            assert_eq!(Workspace::new(&c).n_free(), 1, "{name} half-cell");
        }
        let (cell, _, _) = sram_cell();
        assert_eq!(cell.n_unknowns(), 10);
        assert_eq!(Workspace::new(&cell).n_free(), 2);
    }

    /// The guessed or warm DC solve before one start policy, the reference
    /// for [`Session::solve_dc`]: plain Newton from the guess-built vector,
    /// from `warm` (the last operating point, which sessions then kept) or
    /// from zero, then gmin stepping, then source stepping, then — for a
    /// guessed or warm entry whose basin may no longer exist for this
    /// sample — one cold retry of the whole procedure.
    fn reference_solve_dc_vec(
        s: &mut Session,
        guess: Option<&[(NodeId, f64)]>,
        warm: Option<&[f64]>,
    ) -> Result<Vec<f64>, SpiceError> {
        let n = s.circuit.n_unknowns();
        let mut x0 = vec![0.0; n];
        match (guess, warm) {
            (Some(g), _) => {
                for &(node, v) in g {
                    if let Some(i) = node.unknown() {
                        x0[i] = v;
                    }
                }
            }
            (None, Some(w)) => x0.copy_from_slice(w),
            (None, None) => {}
        }
        if let Ok(x) = newton(&s.circuit, &x0, &DC, MAX_NEWTON, &mut s.ws) {
            return Ok(x);
        }
        let start = if guess.is_some() { x0 } else { vec![0.0; n] };
        let mut x = start.clone();
        let mut ok = true;
        for &gmin in &GMIN_STEPS {
            let mode = Mode::Dc {
                gmin,
                source_scale: 1.0,
            };
            match newton(&s.circuit, &x, &mode, MAX_NEWTON, &mut s.ws) {
                Ok(next) => x = next,
                Err(_) => {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            if let Ok(fin) = newton(&s.circuit, &x, &DC, MAX_NEWTON, &mut s.ws) {
                return Ok(fin);
            }
        }
        let mut x = start;
        let mut stepping_failed = None;
        for &scale in &SOURCE_STEPS {
            let mode = Mode::Dc {
                gmin: 0.0,
                source_scale: scale,
            };
            match newton(&s.circuit, &x, &mode, MAX_NEWTON, &mut s.ws) {
                Ok(next) => x = next,
                Err(e) => {
                    stepping_failed = Some((scale, e));
                    break;
                }
            }
        }
        let Some((scale, e)) = stepping_failed else {
            return Ok(x);
        };
        if guess.is_some() || warm.is_some() {
            return reference_solve_dc_vec(s, None, None);
        }
        Err(SpiceError::NoConvergence {
            analysis: "dc op",
            detail: format!("source stepping stuck at scale {scale}: {e}"),
        })
    }

    /// The start-or-guess DC solve before one start policy, the reference
    /// for [`Session::dc_owned_from`]: plain Newton from `start`, accepted
    /// in the stable state `guess` selects, otherwise
    /// [`reference_solve_dc_vec`] with the guess.
    fn reference_start_or_guess(
        s: &mut Session,
        start: &[f64],
        guess: &[(NodeId, f64)],
    ) -> Result<Vec<f64>, SpiceError> {
        if let Ok(x) = newton(&s.circuit, start, &DC, MAX_NEWTON, &mut s.ws) {
            if basin_matches(&x, guess) {
                return Ok(x);
            }
        }
        reference_solve_dc_vec(s, (!guess.is_empty()).then_some(guess), None)
    }

    /// The start of a DC sweep point before the Hermite prediction, the
    /// secant through the two points before it, `(v2, x2)` and `(v1, x1)`:
    /// `x1 + r·(x1 − x2)` with `r = (v − v1)/(v1 − v2)`, its largest change
    /// among the `nn` node voltages capped like a Newton step's. `None`
    /// when `r` is not finite (a repeated sweep value).
    fn secant_start(
        (v2, x2): (f64, &[f64]),
        (v1, x1): (f64, &[f64]),
        v: f64,
        nn: usize,
    ) -> Option<Vec<f64>> {
        let r = (v - v1) / (v1 - v2);
        if !r.is_finite() {
            return None;
        }
        let step: Vec<f64> = x1.iter().zip(x2).map(|(a, b)| r * (a - b)).collect();
        let max_dv = step[..nn].iter().fold(0.0_f64, |m, d| m.max(d.abs()));
        let scale = step_scale(max_dv);
        Some(x1.iter().zip(&step).map(|(x, d)| x + scale * d).collect())
    }

    /// How [`reference_sweep`] predicts a point's start.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Prediction {
        /// None: every point starts from the one before it.
        None,
        /// The earlier [`secant_start`], from the third point on.
        Secant,
        /// [`hermite_start`] from the second point on, over the slopes
        /// [`Workspace::sensitivity`] reads after each point's own Newton.
        Hermite,
    }

    /// The sweep loops before one start policy, the references for
    /// [`Session::dc_sweep_owned`]. Every point runs plain Newton from the
    /// start `prediction` gives, if any, then from the previous point (the
    /// first from zero), and when that fails the cold continuation ladder
    /// of [`reference_solve_dc_vec`]. A non-empty `guess` replaces the
    /// first point's solve with the guessed [`reference_solve_dc_vec`].
    /// With [`Prediction::None`] and no guess this is the loop before
    /// predicted starts. Returns each point's unknown vector.
    fn reference_sweep(
        s: &mut Session,
        source: &str,
        values: &[f64],
        prediction: Prediction,
        guess: &[(NodeId, f64)],
    ) -> Result<Vec<Vec<f64>>, SpiceError> {
        let saved = s.circuit.vsource_waveform(source)?.clone();
        let branch = s.nn + s.circuit.vsource_index(source)?;
        let zero = vec![0.0; s.circuit.n_unknowns()];
        let [mut start, mut t_before, mut t_prev] = [(); 3].map(|()| zero.clone());
        let mut points: Vec<Vec<f64>> = Vec::with_capacity(values.len());
        for (k, &v) in values.iter().enumerate() {
            s.circuit.set_vsource(source, Waveform::dc(v))?;
            let predicted = match (prediction, points.as_slice()) {
                (Prediction::Secant, [.., before, prev]) => {
                    secant_start((values[k - 2], before), (values[k - 1], prev), v, s.nn)
                }
                (Prediction::Hermite, [prev]) => {
                    let prev = (values[0], prev.as_slice(), t_prev.as_slice());
                    hermite_start(None, prev, v, s.nn, &mut start).map(<[f64]>::to_vec)
                }
                (Prediction::Hermite, [.., before, prev]) => {
                    let before = (values[k - 2], before.as_slice(), t_before.as_slice());
                    let prev = (values[k - 1], prev.as_slice(), t_prev.as_slice());
                    hermite_start(Some(before), prev, v, s.nn, &mut start).map(<[f64]>::to_vec)
                }
                _ => None,
            };
            let prev = points.last().unwrap_or(&zero);
            let x = if k == 0 && !guess.is_empty() {
                reference_solve_dc_vec(s, Some(guess), None)?
            } else {
                let solved = predicted
                    .iter()
                    .chain([prev])
                    .find_map(|x0| newton(&s.circuit, x0, &DC, MAX_NEWTON, &mut s.ws).ok());
                match solved {
                    Some(x) => x,
                    None => reference_solve_dc_vec(s, None, None)?,
                }
            };
            if prediction == Prediction::Hermite {
                std::mem::swap(&mut t_before, &mut t_prev);
                s.ws.sensitivity(branch, &mut t_prev);
            }
            points.push(x);
        }
        s.circuit.set_vsource(source, saved)?;
        Ok(points)
    }

    /// `c` with every MOSFET redrawn as a VS device under the paper's
    /// Table II Pelgrom mismatch, from stream `i` of a seeded sampler.
    fn paper_draw(c: &Circuit, i: u64) -> Circuit {
        let spec = MismatchSpec::from_paper_units(2.3, 3.71, 3.71, 944.0, 0.29);
        let mut normal = Sampler::from_seed(2013).stream(i);
        let mut s = Session::elaborate(c.clone()).unwrap();
        s.swap_all_mosfets(|_, m| {
            let params = match m.polarity() {
                Polarity::Nmos => VsParams::nmos_40nm(),
                Polarity::Pmos => VsParams::pmos_40nm(),
            };
            let delta = spec.sample(m.geometry(), || normal.standard_normal());
            Box::new(VsModel::with_variation(
                params,
                m.polarity(),
                m.geometry(),
                delta,
            ))
        });
        s.circuit
    }

    /// Sweeps `VIN` of `c` over `values` through
    /// [`Session::dc_sweep_owned`], with the earlier secant start, and
    /// point by point. Requires every unknown of every point of the first
    /// two to agree with the point-by-point sweep within 1e-12 relative to
    /// its largest magnitude over the sweep, and returns the device
    /// evaluations of the three: `(predicted, secant, point by point)`.
    fn sweep_against_reference(c: &Circuit, values: &[f64], what: &str) -> (usize, usize, usize) {
        let (got, evals) = recorded(c, Workspace::new(c), |s| {
            let sweep = s.dc_sweep_owned("VIN", values, &[])?;
            assert_eq!(sweep.values, values, "{what}");
            Ok::<Vec<Vec<f64>>, SpiceError>(sweep.points.iter().map(|p| p.raw().to_vec()).collect())
        });
        let reference = |prediction| {
            recorded(c, Workspace::new(c), |s| {
                reference_sweep(s, "VIN", values, prediction, &[])
            })
        };
        let (secant, secant_evals) = reference(Prediction::Secant);
        let (want, want_evals) = reference(Prediction::None);
        let want = want.unwrap();
        assert_agrees(&got.unwrap(), &want, what);
        assert_agrees(&secant.unwrap(), &want, &format!("{what}, secant"));
        (
            evals.len() / 3,
            secant_evals.len() / 3,
            want_evals.len() / 3,
        )
    }

    /// A sweep point starts from the Hermite prediction over the points
    /// before it. It lands where a start from the previous point lands. It
    /// never takes more device evaluations than the earlier secant start,
    /// and strictly fewer on the 31-point grids; over the nominal and
    /// eight paper-spec draws it takes at most 0.65 (READ) and 0.70 (HOLD)
    /// times the point-by-point reference's. Repeated values (the
    /// Hermite's `s` infinite or NaN), uneven and descending grids, and
    /// one- and two-point sweeps agree too.
    #[test]
    fn predicted_sweeps_match_the_point_by_point_reference() {
        let grid: Vec<f64> = (0..31).map(|i| VDD * f64::from(i) / 30.0).collect();
        for (read, name, bound) in [(true, "READ", 0.65), (false, "HOLD", 0.70)] {
            let (nominal, _) = half_cell(read);
            let (mut evals, mut reference) = (0, 0);
            for draw in 0..9 {
                let c = match draw {
                    0 => nominal.clone(),
                    i => paper_draw(&nominal, i),
                };
                let what = format!("{name} half-cell, draw {draw}");
                let (e, secant, r) = sweep_against_reference(&c, &grid, &what);
                assert!(
                    e < secant,
                    "{what}: {e} vs the secant's {secant} evaluations"
                );
                evals += e;
                reference += r;
            }
            assert!(
                evals as f64 <= bound * reference as f64,
                "{name}: {evals} vs {reference} evaluations"
            );
        }

        // The VS and BSIM-like inverters of `tests/mosfet_circuits.rs` on
        // their VTC grid (the load capacitor there is open at DC).
        let (vs, _) = inverter(VDD, 0.0);
        let mut s = Session::elaborate(vs.clone()).unwrap();
        s.swap_all_mosfets(|_, m| -> Box<dyn MosfetModel> {
            match m.polarity() {
                Polarity::Nmos => Box::new(BsimModel::nominal_nmos_40nm(m.geometry())),
                Polarity::Pmos => Box::new(BsimModel::nominal_pmos_40nm(m.geometry())),
            }
        });
        let vtc: Vec<f64> = (0..=45).map(|i| f64::from(i) * 0.02).collect();
        for (c, name) in [(vs, "VS inverter"), (s.circuit, "BSIM-like inverter")] {
            let (e, secant, _) = sweep_against_reference(&c, &vtc, name);
            assert!(
                e <= secant,
                "{name}: {e} vs the secant's {secant} evaluations"
            );
        }

        let (read, _) = half_cell(true);
        let descending: Vec<f64> = grid.iter().rev().copied().collect();
        for (values, name) in [
            (&[0.0, 0.3, 0.3, 0.6, 0.6, 0.6, 0.9][..], "repeated values"),
            (
                &[0.0, 0.01, 0.05, 0.06, 0.2, 0.41, 0.45, 0.47, 0.9],
                "uneven grid",
            ),
            (&descending, "descending grid"),
            (&[0.45], "one point"),
            (&[0.0, 0.9], "two points"),
        ] {
            let (e, secant, _) = sweep_against_reference(&read, values, name);
            assert!(
                e <= secant,
                "{name}: {e} vs the secant's {secant} evaluations"
            );
            if values.len() == grid.len() {
                assert!(
                    e < secant,
                    "{name}: {e} vs the secant's {secant} evaluations"
                );
            }
        }
    }

    /// The predicted start reproduces a cubic in `v` to 1e-14 from two of
    /// its points and their slopes, on uniform, uneven and descending
    /// grids, and the tangent line reproduces a line. The node step is
    /// capped at `MAX_DV`, branch currents scaled with it but never
    /// capping, and a repeated value gives no prediction.
    #[test]
    fn hermite_start_is_exact_on_cubics_and_capped() {
        // Two node voltages and a branch current, each cubic in `v`.
        let x = |v: f64| {
            [
                0.7 - 0.4 * v + 0.9 * v * v - 1.1 * v.powi(3),
                0.2 + 0.3 * v - 0.8 * v * v + 0.6 * v.powi(3),
                -3e-5 + 2e-5 * v + 4e-5 * v * v - 7e-5 * v.powi(3),
            ]
        };
        let t = |v: f64| {
            [
                -0.4 + 1.8 * v - 3.3 * v * v,
                0.3 - 1.6 * v + 1.8 * v * v,
                2e-5 + 8e-5 * v - 21e-5 * v * v,
            ]
        };
        let mut start = [0.0; 3];
        for (v2, v1, v, grid) in [
            (0.42, 0.45, 0.48, "uniform"),
            (0.3, 0.31, 0.35, "uneven"),
            (0.61, 0.58, 0.55, "descending"),
            (0.5, 0.46, 0.45, "descending, uneven"),
        ] {
            let got = hermite_start(
                Some((v2, &x(v2), &t(v2))),
                (v1, &x(v1), &t(v1)),
                v,
                2,
                &mut start,
            )
            .unwrap();
            for (g, w) in got.iter().zip(x(v)) {
                assert!((g - w).abs() <= 1e-14, "{grid}: {got:?} vs {:?}", x(v));
            }
        }
        let line = |v: f64| [0.1 + 0.5 * v, 0.8 - 0.3 * v, 1e-4 * v];
        let slope = [0.5, -0.3, 1e-4];
        for v in [0.36, 0.25] {
            let got = hermite_start(None, (0.3, &line(0.3), &slope), v, 2, &mut start).unwrap();
            for (g, w) in got.iter().zip(line(v)) {
                assert!(
                    (g - w).abs() <= 1e-15,
                    "tangent line: {got:?} vs {:?}",
                    line(v)
                );
            }
        }

        // A 0.2 V node step is capped at 0.12 V, the other node and the
        // branch current scaled by the same 0.6.
        let (x1, t1) = ([0.3, 0.2, 1e-3], [2.0, 0.5, 10.0]);
        let capped = hermite_start(None, (0.5, &x1, &t1), 0.6, 2, &mut start).unwrap();
        for (g, w) in capped.iter().zip([0.42, 0.23, 1e-3 + 0.6]) {
            assert!((g - w).abs() < 1e-15, "{capped:?}");
        }
        // A branch current's step caps nothing.
        let t1 = [0.1, -0.2, 50.0];
        let uncapped = hermite_start(None, (0.5, &x1, &t1), 0.6, 2, &mut start).unwrap();
        for (g, w) in uncapped.iter().zip([0.31, 0.18, 1e-3 + 5.0]) {
            assert!((g - w).abs() < 1e-15, "{uncapped:?}");
        }
        // Through two points at one value, `s` is infinite or NaN.
        let (x2, t2) = ([0.1, 0.1, 0.0], [1.0, 1.0, 0.0]);
        for v in [0.6, 0.5] {
            let repeated = hermite_start(Some((0.5, &x2, &t2)), (0.5, &x1, &t1), v, 2, &mut start);
            assert_eq!(repeated, None, "v = {v}");
        }
    }

    /// The slope `dx/dv` of the swept source at each converged sweep point,
    /// read from the LU the point's last Newton iteration factored, agrees
    /// with central differences `(x(v+δ) − x(v−δ))/2δ` of fresh DC solves,
    /// branch currents included. It does on both workspaces: the reduced
    /// one, where the half-cells' `VIN` pins its node, and the unreduced
    /// one, where every source's branch row is free. More cases: a floating
    /// swept source, whose branch row is free in both, and the all-pinned
    /// divider, which has no free unknown. (A node two grounded sources pin
    /// has no operating point: its MNA system is singular.)
    ///
    /// With δ = 1e-5 V the truncation error `x'''·δ²/6` stays under 1e-8
    /// even at the steep middle of the READ transfer curve, and the fresh
    /// solves' convergence error, about 1e-13 V after their quadratic last
    /// step, adds under 1e-8. The slope itself comes from a Jacobian within
    /// `V_TOL` of the point, which moves it by about 1e-6 relative. So
    /// every entry must agree within 1e-5 of its largest magnitude over the
    /// sweep.
    #[test]
    fn sweep_sensitivity_matches_central_differences() {
        const DELTA: f64 = 1e-5;
        let check = |c: &Circuit, source: &str, values: &[f64], what: &str| {
            let fresh = |v: f64| {
                let mut s = Session::elaborate(c.clone()).unwrap();
                s.set_source(source, Waveform::dc(v)).unwrap();
                s.dc_owned().unwrap().raw().to_vec()
            };
            let differences: Vec<Vec<f64>> = values
                .iter()
                .map(|&v| {
                    let (hi, lo) = (fresh(v + DELTA), fresh(v - DELTA));
                    hi.iter()
                        .zip(&lo)
                        .map(|(h, l)| (h - l) / (2.0 * DELTA))
                        .collect()
                })
                .collect();
            let layouts = [
                (Workspace::new(c), "reduced"),
                (Workspace::unreduced(c), "unreduced"),
            ];
            for (ws, layout) in layouts {
                let mut s = Session::elaborate(c.clone()).unwrap();
                s.ws = ws;
                let branch = s.nn + c.vsource_index(source).unwrap();
                let slopes: Vec<Vec<f64>> = (1..=values.len())
                    .map(|k| {
                        // A sweep's last point leaves its LU behind.
                        s.dc_sweep_owned(source, &values[..k], &[]).unwrap();
                        let mut t = vec![0.0; c.n_unknowns()];
                        s.ws.sensitivity(branch, &mut t);
                        t
                    })
                    .collect();
                let mut scale = vec![0.0_f64; c.n_unknowns()];
                for t in slopes.iter().chain(&differences) {
                    for (m, v) in scale.iter_mut().zip(t) {
                        *m = m.max(v.abs());
                    }
                }
                for (k, (t, d)) in slopes.iter().zip(&differences).enumerate() {
                    for (i, ((t, d), m)) in t.iter().zip(d).zip(&scale).enumerate() {
                        assert!(
                            (t - d).abs() <= 1e-5 * m,
                            "{what}, {layout}: point {k}, unknown {i}: {t} vs {d}"
                        );
                    }
                }
            }
        };

        let grid: Vec<f64> = (0..31).map(|i| VDD * f64::from(i) / 30.0).collect();
        for (read, name) in [(true, "READ"), (false, "HOLD")] {
            let (nominal, _) = half_cell(read);
            for draw in 0..9 {
                let c = match draw {
                    0 => nominal.clone(),
                    i => paper_draw(&nominal, i),
                };
                check(&c, "VIN", &grid, &format!("{name} half-cell, draw {draw}"));
            }
        }

        // `V2` floats on top of `V1`: it pins nothing.
        let mut c = Circuit::new();
        let [a, b, m] = ["a", "b", "m"].map(|n| c.node(n));
        c.vsource("V1", a, Circuit::GROUND, Waveform::dc(VDD));
        c.vsource("V2", b, a, Waveform::dc(0.0));
        c.resistor("R1", b, m, 2e3);
        let nmos = VsModel::nominal_nmos_40nm(Geometry::from_nm(300.0, 40.0));
        c.mosfet("MN", m, m, Circuit::GROUND, Circuit::GROUND, Box::new(nmos));
        let below: Vec<f64> = grid.iter().map(|v| v - VDD).collect();
        check(&c, "V2", &below, "floating source");

        let mut c = Circuit::new();
        let [a, b] = ["a", "b"].map(|n| c.node(n));
        c.vsource("V1", a, Circuit::GROUND, Waveform::dc(1.0));
        c.vsource("V2", b, Circuit::GROUND, Waveform::dc(0.4));
        c.resistor("R1", a, b, 1e3);
        assert_eq!(Workspace::new(&c).n_free(), 0);
        check(&c, "V2", &grid, "all-pinned divider");
    }

    /// A sweep carries nothing over from the sweeps before it: a READ
    /// half-cell draw swept on a session that just swept another draw over
    /// another grid gives the bits of the same sweep on a fresh session.
    #[test]
    fn a_sweep_forgets_the_sweeps_before_it() {
        let (read, _) = half_cell(true);
        let grid: Vec<f64> = (0..31).map(|i| VDD * f64::from(i) / 30.0).collect();
        let other = [0.9, 0.8, 0.62, 0.5, 0.47, 0.2, 0.0];
        let sweep = |s: &mut Session, values: &[f64]| -> Vec<u64> {
            let res = s.dc_sweep_owned("VIN", values, &[]).unwrap();
            res.points.iter().flat_map(|p| bits(p.raw())).collect()
        };
        let draw = paper_draw(&read, 3);
        let want = sweep(&mut Session::elaborate(draw.clone()).unwrap(), &grid);
        let mut s = Session::elaborate(paper_draw(&read, 5)).unwrap();
        sweep(&mut s, &other);
        let models = draw.elements().iter().filter_map(|e| match e {
            Element::Mosfet { name, model, .. } => Some((name.clone(), model.clone_box())),
            _ => None,
        });
        assert_eq!(s.swap_devices(models).unwrap(), 3);
        assert_eq!(sweep(&mut s, &grid), want);
    }

    /// A sweep's guess places its first point and no other. On the READ
    /// half-cell, with a guess whose basin test rejects every point whose
    /// output has left `VDD`, the first point has the bits of
    /// [`Session::dc_owned_with_guess`] at the first value, and the whole
    /// sweep takes the reference loop's Newton path, which uses the guess
    /// there alone. An empty guess gives the sweep without one, the
    /// reference loop's bits and device log. An unusable guess, a NaN
    /// output, gives the guess-less sweep's bits: its log is that sweep's
    /// behind the three failed iterations of the ladder from the guess
    /// (plain Newton, the first gmin rung and the first source step).
    #[test]
    fn sweep_guess_places_only_the_first_point() {
        let (read, out) = half_cell(true);
        let node = |name| read.find_node(name).unwrap();
        let guess = [(node("vdd"), VDD), (node("vin"), 0.0), (out, VDD)];
        let grid: Vec<f64> = (0..31).map(|i| VDD * f64::from(i) / 30.0).collect();
        let sweep = |s: &mut Session, guess: &[(NodeId, f64)]| -> Vec<u64> {
            let res = s.dc_sweep_owned("VIN", &grid, guess).unwrap();
            res.points.iter().flat_map(|p| bits(p.raw())).collect()
        };
        let reference = |s: &mut Session, guess: &[(NodeId, f64)]| -> Vec<u64> {
            let points = reference_sweep(s, "VIN", &grid, Prediction::Hermite, guess).unwrap();
            points.iter().flat_map(|p| bits(p)).collect()
        };

        let mut s = Session::elaborate(read.clone()).unwrap();
        s.set_source("VIN", Waveform::dc(grid[0])).unwrap();
        let first = bits(s.dc_owned_with_guess(&guess).unwrap().raw());
        let swept = sweep(&mut Session::elaborate(read.clone()).unwrap(), &guess);
        assert_eq!(swept[..first.len()], first, "first point");
        let guessless = sweep(&mut Session::elaborate(read.clone()).unwrap(), &[]);
        assert_ne!(swept[..first.len()], guessless[..first.len()]);

        assert_same_solve(
            &read,
            "guessed sweep",
            0,
            |s| sweep(s, &guess),
            |s| reference(s, &guess),
        );
        assert_same_solve(
            &read,
            "empty guess",
            0,
            |s| sweep(s, &[]),
            |s| reference(s, &[]),
        );
        assert_same_solve(
            &read,
            "NaN guess",
            3 * 3,
            |s| sweep(s, &[(out, f64::NAN)]),
            |s| sweep(s, &[]),
        );
    }

    /// A sweep value that is not finite is [`SpiceError::InvalidArgument`]
    /// before any device evaluation, first or later in the sweep.
    #[test]
    fn non_finite_sweep_values_are_rejected_before_any_solve() {
        let (read, _) = half_cell(true);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for values in [
                vec![bad],
                vec![bad, 0.3],
                vec![0.0, bad],
                vec![0.0, 0.3, bad],
            ] {
                let (result, log) = recorded(&read, Workspace::new(&read), |s| {
                    s.dc_sweep_owned("VIN", &values, &[]).map(|_| ())
                });
                assert!(
                    matches!(result, Err(SpiceError::InvalidArgument { .. })),
                    "{values:?}: {result:?}"
                );
                assert!(log.is_empty(), "{values:?}: {} evaluations", log.len() / 3);
            }
        }
    }

    /// Every complex node voltage of an AC sweep, real and imaginary parts.
    fn ac_values(s: &Session, ac: &AcResult) -> Vec<f64> {
        (1..s.circuit.node_count())
            .flat_map(|i| ac.voltages(NodeId(i)))
            .flat_map(|v| [v.re, v.im])
            .collect()
    }

    /// The times, node voltages and source currents of a transient.
    fn tran_values(s: &Session, res: &TranResult) -> Vec<f64> {
        let nodes = (1..s.circuit.node_count()).flat_map(|i| res.voltages(NodeId(i)));
        let currents = (0..s.circuit.n_vsources()).flat_map(|k| res.vsource_currents(k));
        res.times()
            .iter()
            .copied()
            .chain(nodes)
            .chain(currents)
            .collect()
    }

    /// Runs `run` and `reference` on fresh sessions of `c`, every MOSFET
    /// wrapped in a [`Recording`], and requires the same bits and a `run`
    /// log that is `skipped` device evaluations followed by `reference`'s
    /// log, bit for bit.
    fn assert_same_solve(
        c: &Circuit,
        what: &str,
        skipped: usize,
        run: impl Fn(&mut Session) -> Vec<u64>,
        reference: impl Fn(&mut Session) -> Vec<u64>,
    ) {
        let (got, log) = recorded(c, Workspace::new(c), run);
        let (want, want_log) = recorded(c, Workspace::new(c), reference);
        assert_eq!(got, want, "{what}");
        let evals = |log: &[f64]| log.len() / 3;
        assert_eq!(
            evals(&log),
            skipped + evals(&want_log),
            "{what}: device evaluations"
        );
        assert_eq!(
            bits(&log[3 * skipped..]),
            bits(&want_log),
            "{what}: Newton path"
        );
    }

    /// Newton from a start it cannot use, a vector of NaNs, fails at its
    /// first iterate. From there every DC entry point's solve is exactly
    /// the same call without the start: the same result, and one failed
    /// iteration's device evaluations followed by the start-less call's. A
    /// served 6T sample whose start Newton cycles from falls back the same
    /// way after 50 failed iterations, and the guessed solve it falls back
    /// to gives its own plain Newton 50 before gmin stepping. A sweep point
    /// takes its starts in order.
    #[test]
    fn failed_starts_fall_back_to_the_start_less_solve() {
        let unusable = |s: &Session| vec![f64::NAN; s.circuit.n_unknowns()];

        let (inv, _) = inverter(VDD, 0.42);
        let (ff, _, _) = dff();
        for (c, what, skipped) in [(&inv, "inverter", 2), (&ff, "DFF", 14)] {
            assert_same_solve(
                c,
                &format!("dc_owned_from on the {what}"),
                skipped,
                |s| bits(s.dc_owned_from(&unusable(s), &[]).unwrap().raw()),
                |s| bits(s.dc_owned().unwrap().raw()),
            );
        }

        let (cell, l, r) = sram_cell();
        for guess in [&[(l, 0.0), (r, VDD)][..], &[]] {
            assert_same_solve(
                &cell,
                &format!("dc_owned_from on the 6T cell, guess {guess:?}"),
                6,
                |s| bits(s.dc_owned_from(&unusable(s), guess).unwrap().raw()),
                |s| bits(s.dc_owned_with_guess(guess).unwrap().raw()),
            );
        }

        // A served sample whose start Newton cycles from: from the nominal
        // cell's operating point, Newton on this paper-spec draw falls into
        // a damping limit cycle, two capped steps that undo each other. It
        // stops after 50 iterations, six device evaluations each, not the
        // 400 a run with no fallback gets. The guessed call's own plain
        // Newton cycles from the guess too, and also stops at 50 before
        // gmin stepping.
        let guess = [(l, 0.0), (r, VDD)];
        let mut nominal = Session::elaborate(cell.clone()).unwrap();
        let nominal = nominal.dc_owned_with_guess(&guess).unwrap().raw().to_vec();
        let cycling = paper_draw(&cell, 1566);
        let cycle = 6 * MAX_NEWTON_WITH_FALLBACK;
        let guessed = |s: &mut Session| bits(s.dc_owned_with_guess(&guess).unwrap().raw());
        assert_same_solve(
            &cycling,
            "dc_owned_from on a 6T draw Newton cycles from",
            cycle,
            |s| bits(s.dc_owned_from(&nominal, &guess).unwrap().raw()),
            guessed,
        );
        assert_same_solve(
            &cycling,
            "the guessed solve of that draw",
            cycle,
            guessed,
            |s| {
                let limit = MAX_NEWTON_WITH_FALLBACK;
                let mut x0 = vec![0.0; s.circuit.n_unknowns()];
                for &(node, v) in &guess {
                    x0[node.unknown().unwrap()] = v;
                }
                let relaxed = GMIN_STEPS.iter().try_fold(x0, |x, &gmin| {
                    let mode = Mode::Dc {
                        gmin,
                        source_scale: 1.0,
                    };
                    newton(&s.circuit, &x, &mode, limit, &mut s.ws)
                });
                let x = relaxed.and_then(|x| newton(&s.circuit, &x, &DC, limit, &mut s.ws));
                bits(&x.unwrap())
            },
        );

        // A READ half-cell sweep point from `[unusable, previous point]`:
        // one failed iteration, then Newton from the previous point.
        let (read, _) = half_cell(true);
        let grid: Vec<f64> = (0..31).map(|i| VDD * f64::from(i) / 30.0).collect();
        let sweep = Session::elaborate(read.clone())
            .unwrap()
            .dc_sweep_owned("VIN", &grid, &[])
            .unwrap();
        let prev = sweep.points[14].raw();
        let at = |s: &mut Session| s.set_source("VIN", Waveform::dc(grid[15])).unwrap();
        assert_same_solve(
            &read,
            "READ half-cell sweep point",
            3,
            |s| {
                at(s);
                let nan = unusable(s);
                bits(&s.solve_dc([nan.as_slice(), prev], &[]).unwrap())
            },
            |s| {
                at(s);
                bits(&newton(&s.circuit, prev, &DC, MAX_NEWTON_WITH_FALLBACK, &mut s.ws).unwrap())
            },
        );
    }

    /// One start policy takes the Newton runs of the policies it replaced,
    /// whose code the references above keep, on every path but a
    /// guess-less solve whose start fails: the same bits and the same
    /// device evaluations. The cases: the 6T cell from its guess, served
    /// samples (mismatch draws from the nominal operating point), a
    /// flipped-state start that falls back to the guess, the latch's other
    /// state re-pinned by the guess, the inverter after a swap from the
    /// operating point before it, the DFF's guessed t = 0 operating point,
    /// and READ and HOLD half-cell sweeps of the nominal and eight
    /// paper-spec draws.
    #[test]
    fn start_policy_matches_the_reference_policies() {
        let (cell, l, r) = sram_cell();
        let guess = [(l, 0.0), (r, VDD)];
        assert_same_solve(
            &cell,
            "6T cell from its guess",
            0,
            |s| bits(s.dc_owned_with_guess(&guess).unwrap().raw()),
            |s| bits(&reference_solve_dc_vec(s, Some(&guess), None).unwrap()),
        );
        let solved = |guess: &[(NodeId, f64)]| {
            let mut s = Session::elaborate(cell.clone()).unwrap();
            s.dc_owned_with_guess(guess).unwrap().raw().to_vec()
        };
        let nominal = solved(&guess);
        let flipped = solved(&[(l, VDD), (r, 0.0)]);
        let from =
            |s: &mut Session, start: &[f64]| bits(s.dc_owned_from(start, &guess).unwrap().raw());
        let reference_from = |s: &mut Session, start: &[f64]| {
            bits(&reference_start_or_guess(s, start, &guess).unwrap())
        };
        for (i, c) in (1..=8).map(|i| (i, paper_draw(&cell, i))) {
            assert_same_solve(
                &c,
                &format!("served sample, draw {i}"),
                0,
                |s| from(s, &nominal),
                |s| reference_from(s, &nominal),
            );
        }
        assert_same_solve(
            &cell,
            "flipped-state start",
            0,
            |s| from(s, &flipped),
            |s| reference_from(s, &flipped),
        );

        let (latch, a, b) = latch();
        let (high, low) = ([(a, VDD), (b, 0.0)], [(a, 0.0), (b, VDD)]);
        assert_same_solve(
            &latch,
            "the other state re-pinned on the latch",
            0,
            |s| {
                let op = s.dc_owned_with_guess(&high).unwrap();
                bits(s.dc_owned_from(op.raw(), &low).unwrap().raw())
            },
            |s| {
                let x = reference_solve_dc_vec(s, Some(&high), None).unwrap();
                bits(&reference_start_or_guess(s, &x, &low).unwrap())
            },
        );

        // The swap is made before recording: the re-solve starts from the
        // nominal inverter's operating point.
        let (inv, _) = inverter(VDD, 0.45);
        let before = Session::elaborate(inv.clone())
            .unwrap()
            .dc_owned()
            .unwrap()
            .raw()
            .to_vec();
        let mut swapped = Session::elaborate(inv).unwrap();
        let weaker = VsModel::nominal_nmos_40nm(Geometry::from_nm(240.0, 40.0));
        swapped.swap_device("MN", Box::new(weaker)).unwrap();
        assert_same_solve(
            &swapped.circuit,
            "inverter after a swap, from the operating point before it",
            0,
            |s| bits(s.dc_owned_from(&before, &[]).unwrap().raw()),
            |s| bits(&reference_solve_dc_vec(s, None, Some(&before)).unwrap()),
        );

        let (ff, ic, _) = dff();
        assert_same_solve(
            &ff,
            "DFF from its guess",
            0,
            |s| bits(s.dc_owned_with_guess(&ic).unwrap().raw()),
            |s| bits(&reference_solve_dc_vec(s, Some(&ic), None).unwrap()),
        );

        let grid: Vec<f64> = (0..31).map(|i| VDD * f64::from(i) / 30.0).collect();
        for (read, name) in [(true, "READ"), (false, "HOLD")] {
            let (nominal, _) = half_cell(read);
            for draw in 0..9 {
                let c = match draw {
                    0 => nominal.clone(),
                    i => paper_draw(&nominal, i),
                };
                assert_same_solve(
                    &c,
                    &format!("{name} half-cell sweep, draw {draw}"),
                    0,
                    |s| {
                        let sweep = s.dc_sweep_owned("VIN", &grid, &[]).unwrap();
                        sweep.points.iter().flat_map(|p| bits(p.raw())).collect()
                    },
                    |s| {
                        let points =
                            reference_sweep(s, "VIN", &grid, Prediction::Hermite, &[]).unwrap();
                        points.iter().flat_map(|p| bits(p)).collect()
                    },
                );
            }
        }
    }

    /// AC and transient runs take the caller's operating point and choose
    /// no start. At one operating point they give the same bits after the
    /// session solved the circuit's other stable state, from which a run
    /// that started Newton would land elsewhere. An operating point of the
    /// wrong length is [`SpiceError::InvalidArgument`] before any device
    /// evaluation.
    #[test]
    fn ac_and_tran_take_the_callers_operating_point() {
        let freqs = [1e6, 1e9];
        let opts = TranOptions::new(850e-12, 4e-12);
        let (latch, a, b) = latch();
        let (ff, ic, q_int) = dff();
        // The flip-flop with its slave latch in the other state.
        let flipped: Vec<_> = ic
            .iter()
            .enumerate()
            .map(|(i, &(n, v))| (n, if i < 3 { v } else { VDD - v }))
            .collect();
        for (c, guess, other_guess, state, what) in [
            (
                latch,
                vec![(a, 0.0), (b, VDD)],
                vec![(a, VDD), (b, 0.0)],
                a,
                "latch",
            ),
            (ff, ic, flipped, q_int, "DFF"),
        ] {
            let mut s = Session::elaborate(c.clone()).unwrap();
            let op = s.dc_owned_with_guess(&guess).unwrap();
            let run = |s: &mut Session| {
                let ac = s.ac_owned(&op, "VDD", &freqs).unwrap();
                let tran = s.tran_owned(&op, &opts).unwrap();
                (bits(&ac_values(s, &ac)), bits(&tran_values(s, &tran)))
            };
            let first = run(&mut s);
            let other = s.dc_owned_with_guess(&other_guess).unwrap();
            let gap = (other.voltage(state) - op.voltage(state)).abs();
            assert!(gap > 0.5 * VDD, "{what}: the other state is {gap} V away");
            assert!(
                run(&mut s) == first,
                "{what}: the other state's solve moved the runs"
            );

            let (errors, log) = recorded(&c, Workspace::new(&c), |s| {
                let wrong = DcResult::new(vec![0.0; s.circuit.n_unknowns() + 1], s.nn);
                [
                    s.ac_owned(&wrong, "VDD", &freqs).err(),
                    s.tran_owned(&wrong, &opts).err(),
                ]
            });
            for e in errors {
                assert!(
                    matches!(e, Some(SpiceError::InvalidArgument { .. })),
                    "{what}: {e:?}"
                );
            }
            assert!(log.is_empty(), "{what}: the wrong length cost a solve");
        }
    }
}
