//! DC Newton solves, the layer under every SRAM Monte Carlo sample:
//!
//! * `sram6t_from_nominal`: the 6T cell with one mismatch draw swapped in,
//!   Newton started from the nominal cell's operating point, the solve
//!   `statvs serve` runs per `sram6t_dc` sample;
//! * `sram6t_fallback`: the same solve on a paper-spec draw whose Newton
//!   from the nominal operating point falls into a damping limit cycle,
//!   as about 0.3% of served draws do: 50 failed iterations, then the
//!   guessed solve, whose plain Newton from the guess fails after 50 more
//!   before gmin stepping converges;
//! * `read_butterfly_sweep`: the whole sweep of one `SnmBench` READ
//!   sample, `SnmBench::curves` on a fixed paper-spec draw: 31 points of
//!   both half-cells at once through `Session::dc_sweep_owned`, the first
//!   from the guess that puts both outputs at the supply rail, every later
//!   one from the cubic Hermite prediction over the two before it (the
//!   second from the tangent line at the first), their slopes read from
//!   each point's converged Newton LU.
//!
//! The first two solve through `Session::dc_owned_from`, so every call
//! repeats the same Newton iterations on the same devices; so does every
//! sweep, whose first point starts from the same guess.
//!
//! Run `cargo bench -p vsbench --bench newton_solve -- --json ../../BENCH_newton_solve.json`
//! to refresh the baseline at the repo root.

use circuits::cells::NominalVsFactory;
use circuits::sram::{full_cell, SnmBench, SnmMode, SramDevices, SramSizing};
use mosfet::{vs::VsParams, MismatchSpec};
use spice::Session;
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

fn main() {
    let mut results = Vec::new();

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
        let sz = SramSizing::default();
        let mut bench = SnmBench::new(
            sz,
            VDD,
            SnmMode::Read,
            SWEEP_POINTS,
            &mut paper_spec(Sampler::from_seed(1)),
        )
        .expect("well-formed");
        results.push(measure("newton_solve/read_butterfly_sweep", || {
            bench.curves().expect("converges");
        }));
    }

    maybe_write_json(&results);
}
