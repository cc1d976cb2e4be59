//! DC Newton solves, the layer under every SRAM Monte Carlo sample:
//!
//! * `read_half_cell_sweep_point`: the READ half-cell (inverter plus pass
//!   gate from a bit line at `Vdd`) at the steepest point of its 31-point
//!   SNM sweep, Newton started from the previous point's operating point;
//! * `sram6t_from_nominal`: the 6T cell with one mismatch draw swapped in,
//!   Newton started from the nominal cell's operating point, the solve
//!   `statvs serve` runs per `sram6t_dc` sample;
//! * `sram6t_fallback`: the same solve on a paper-spec draw whose Newton
//!   from the nominal operating point falls into a damping limit cycle,
//!   as about 0.3% of served draws do: 50 failed iterations, then the
//!   guessed solve, whose plain Newton from the guess fails after 50 more
//!   before gmin stepping converges;
//! * `read_half_cell_sweep`: one whole 31-point sweep of a paper-spec
//!   draw of the READ half-cell through `Session::dc_sweep_owned`, half
//!   of an `SnmBench` READ sample: the first point from zero, every later
//!   one from the cubic Hermite prediction over the two before it (the
//!   second from the tangent line at the first), their slopes read from
//!   each point's converged Newton LU.
//!
//! The first three solve through `Session::dc_owned_from`, so every call
//! repeats the same Newton iterations on the same devices; so does every
//! sweep, whose first point starts from zero.
//!
//! Run `cargo bench -p vsbench --bench newton_solve -- --json ../../BENCH_newton_solve.json`
//! to refresh the baseline at the repo root.

use circuits::cells::{DeviceFactory, NominalVsFactory};
use circuits::sram::{full_cell, SramDevices, SramSizing};
use mosfet::{vs::VsParams, Geometry, MismatchSpec};
use spice::{Circuit, Session, Waveform};
use stats::Sampler;
use vsbench::microbench::{maybe_write_json, measure};
use vscore::mc::McFactory;

const VDD: f64 = 0.9;
/// Points of the SNM sweep, as the READ SNM Monte Carlo traces it.
const SWEEP_POINTS: usize = 31;

/// VS devices with the paper's Pelgrom mismatch, drawn from `sampler`.
fn paper_spec(sampler: Sampler) -> McFactory {
    let spec = MismatchSpec::from_paper_units(2.3, 3.71, 3.71, 944.0, 0.29);
    McFactory::vs(
        VsParams::nmos_40nm(),
        VsParams::pmos_40nm(),
        spec,
        spec,
        sampler,
    )
}

/// The READ half-cell with its input on `VIN`.
fn read_half_cell(f: &mut dyn DeviceFactory) -> Circuit {
    let sz = SramSizing::default();
    let mut c = Circuit::new();
    let [vdd, vin, out, bl, wl] = ["vdd", "vin", "out", "bl", "wl"].map(|n| c.node(n));
    let gnd = Circuit::GROUND;
    c.vsource("VDD", vdd, gnd, Waveform::dc(VDD));
    c.vsource("VIN", vin, gnd, Waveform::dc(0.0));
    c.vsource("VBL", bl, gnd, Waveform::dc(VDD));
    c.vsource("VWL", wl, gnd, Waveform::dc(VDD));
    c.mosfet(
        "PU",
        out,
        vin,
        vdd,
        vdd,
        f.pmos(Geometry::new(sz.w_pu, sz.l)),
    );
    c.mosfet(
        "PD",
        out,
        vin,
        gnd,
        gnd,
        f.nmos(Geometry::new(sz.w_pd, sz.l)),
    );
    c.mosfet("PG", bl, wl, out, gnd, f.nmos(Geometry::new(sz.w_pg, sz.l)));
    c
}

fn main() {
    let mut results = Vec::new();
    let values: Vec<f64> = (0..SWEEP_POINTS)
        .map(|i| VDD * i as f64 / (SWEEP_POINTS - 1) as f64)
        .collect();

    {
        let mut s = Session::elaborate(read_half_cell(&mut NominalVsFactory)).expect("well-formed");
        let out = s.circuit().find_node("out").expect("built above");
        let sweep = s.dc_sweep_owned("VIN", &values).expect("nominal sweep");
        // The steepest step of the transfer curve: the most iterations.
        let vout = sweep.voltages(out);
        let k = (1..SWEEP_POINTS)
            .max_by(|&a, &b| {
                let step = |k: usize| (vout[k] - vout[k - 1]).abs();
                step(a).total_cmp(&step(b))
            })
            .expect("non-empty sweep");
        let start = sweep.points[k - 1].raw().to_vec();
        s.set_source("VIN", Waveform::dc(values[k]))
            .expect("VIN exists");
        results.push(measure("newton_solve/read_half_cell_sweep_point", || {
            s.dc_owned_from(&start, &[]).expect("converges");
        }));
    }

    {
        let (c, l, r) = full_cell(
            &SramDevices::draw(SramSizing::default(), &mut NominalVsFactory),
            VDD,
        );
        let guess = [(l, 0.0), (r, VDD)];
        let mut s = Session::elaborate(c).expect("well-formed");
        let nominal = s.dc_owned_with_guess(&guess).expect("nominal cell solves");
        let start = nominal.raw().to_vec();
        let draws = [
            ("newton_solve/sram6t_from_nominal", Sampler::from_seed(1)),
            (
                "newton_solve/sram6t_fallback",
                Sampler::from_seed(3).stream(176),
            ),
        ];
        for (label, sampler) in draws {
            SramDevices::draw(SramSizing::default(), &mut paper_spec(sampler))
                .swap_into(&mut s)
                .expect("known instances");
            results.push(measure(label, || {
                s.dc_owned_from(&start, &guess).expect("converges");
            }));
        }
    }

    {
        let mut s = Session::elaborate(read_half_cell(&mut paper_spec(Sampler::from_seed(1))))
            .expect("well-formed");
        results.push(measure("newton_solve/read_half_cell_sweep", || {
            s.dc_sweep_owned("VIN", &values).expect("converges");
        }));
    }

    maybe_write_json(&results);
}
