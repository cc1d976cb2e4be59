//! Equivalence suite: a persistent [`Session`] (reused workspace, AC
//! scratch, in-place device swaps) must reproduce one-shot throwaway
//! sessions — and, for AC, an independent per-point reference solver — on
//! real circuits: the parsed inverter-chain netlist of
//! `examples/netlist_sim.rs` and a 6T SRAM cell. Property tests cover
//! `swap_devices` + re-solve (DC) and resample → Newton from the nominal
//! cell's operating point → `ac_owned` (AC) against fresh elaborations
//! across random mismatch draws.

use mosfet::{vs::VsModel, Geometry, MosfetModel, StatParam, VariationDelta};
use numerics::complex::{CLu, CMatrix, C64};
use spice::{parser, Circuit, NodeId, Session, TranOptions, Waveform};

/// The three-stage inverter chain from `examples/netlist_sim.rs`.
const NETLIST: &str = "
* three-stage inverter chain, VS 40nm models
VDD vdd 0 DC 0.9
VIN in 0 PULSE(0 0.9 100p 15p 15p 600p 2n)

* stage 1
MP1 n1 in vdd vdd vsp W=600n L=40n
MN1 n1 in 0 0 vsn W=300n L=40n
C1 n1 0 0.5f

* stage 2
MP2 n2 n1 vdd vdd vsp W=600n L=40n
MN2 n2 n1 0 0 vsn W=300n L=40n
C2 n2 0 0.5f

* stage 3
MP3 out n2 vdd vdd vsp W=600n L=40n
MN3 out n2 0 0 vsn W=300n L=40n
CL out 0 1f
.end
";

const VDD: f64 = 0.9;

/// Newton converges the update norm below 1e-7 V; solves from different
/// starts may approach the fixed point along different paths.
const TOL_V: f64 = 1e-6;

fn chain() -> Circuit {
    parser::parse(NETLIST).expect("bundled netlist parses")
}

/// One-shot reference: a fresh throwaway session per call, cold-started —
/// what the deprecated `Circuit::*` shims used to do.
fn one_shot(c: &Circuit) -> Session {
    Session::elaborate(c.clone()).expect("reference circuit elaborates")
}

/// Independent per-point AC reference: linearize at `x_op`, then build and
/// solve a fresh `G + jωC` system per frequency — the pre-workspace
/// architecture, kept here as the oracle for the workspace path.
fn ac_reference_per_point(c: &Circuit, x_op: &[f64], source: &str, freqs: &[f64]) -> Vec<Vec<C64>> {
    let lin = c.linearize(x_op);
    let n = lin.g.rows();
    let nn = c.node_count() - 1;
    let src_idx = c.vsource_index(source).expect("source exists");
    let mut b = vec![C64::ZERO; n];
    b[nn + src_idx] = C64::ONE;
    freqs
        .iter()
        .map(|&f| {
            let omega = 2.0 * std::f64::consts::PI * f;
            CLu::factor(&CMatrix::from_gc(&lin.g, &lin.c, omega))
                .and_then(|f| f.solve(&b))
                .expect("reference AC point solves")
        })
        .collect()
}

/// A 6T SRAM cell wired for READ (word line high, bit lines at Vdd),
/// mirroring `circuits::sram::full_cell`.
fn sram_cell(deltas: &[VariationDelta; 6]) -> (Circuit, NodeId, NodeId) {
    let gn = Geometry::from_nm(150.0, 40.0);
    let gp = Geometry::from_nm(80.0, 40.0);
    let ga = Geometry::from_nm(100.0, 40.0);
    let nmos = |d: VariationDelta, g| -> Box<dyn MosfetModel> {
        Box::new(VsModel::with_variation(
            mosfet::vs::VsParams::nmos_40nm(),
            mosfet::Polarity::Nmos,
            g,
            d,
        ))
    };
    let pmos = |d: VariationDelta| -> Box<dyn MosfetModel> {
        Box::new(VsModel::with_variation(
            mosfet::vs::VsParams::pmos_40nm(),
            mosfet::Polarity::Pmos,
            gp,
            d,
        ))
    };
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let l = c.node("l");
    let r = c.node("r");
    let bl = c.node("bl");
    let blb = c.node("blb");
    let wl = c.node("wl");
    c.vsource("VDD", vdd, Circuit::GROUND, Waveform::dc(VDD));
    c.vsource("VBL", bl, Circuit::GROUND, Waveform::dc(VDD));
    c.vsource("VBLB", blb, Circuit::GROUND, Waveform::dc(VDD));
    c.vsource("VWL", wl, Circuit::GROUND, Waveform::dc(VDD));
    c.mosfet("PU1", l, r, vdd, vdd, pmos(deltas[0]));
    c.mosfet(
        "PD1",
        l,
        r,
        Circuit::GROUND,
        Circuit::GROUND,
        nmos(deltas[1], gn),
    );
    c.mosfet("PG1", bl, wl, l, Circuit::GROUND, nmos(deltas[2], ga));
    c.mosfet("PU2", r, l, vdd, vdd, pmos(deltas[3]));
    c.mosfet(
        "PD2",
        r,
        l,
        Circuit::GROUND,
        Circuit::GROUND,
        nmos(deltas[4], gn),
    );
    c.mosfet("PG2", blb, wl, r, Circuit::GROUND, nmos(deltas[5], ga));
    (c, l, r)
}

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

fn all_nodes(c: &Circuit) -> Vec<NodeId> {
    // Probe every interned node by walking the element terminals.
    let mut v: Vec<NodeId> = c.elements().iter().flat_map(|e| e.nodes()).collect();
    v.sort();
    v.dedup();
    v
}

#[test]
fn chain_dc_matches_one_shot() {
    let c = chain();
    let reference = one_shot(&c).dc_owned().unwrap();
    let mut s = Session::elaborate(c).unwrap();
    // Run twice: the second solve reads nothing the first left behind.
    for pass in 0..2 {
        let op = s.dc_owned().unwrap();
        assert_eq!(bits(op.raw()), bits(reference.raw()), "pass {pass}");
    }
}

#[test]
fn chain_sweep_matches_one_shot() {
    let c = chain();
    let values: Vec<f64> = (0..19).map(|i| VDD * i as f64 / 18.0).collect();
    let reference = one_shot(&c).dc_sweep_owned("VIN", &values, &[]).unwrap();
    let mut s = Session::elaborate(c.clone()).unwrap();
    // Precede the sweep with an unrelated solve.
    let _ = s.dc_owned().unwrap();
    let out = c.find_node("out").unwrap();
    let sweep = s.dc_sweep_owned("VIN", &values, &[]).unwrap();
    assert_eq!(bits(&sweep.voltages(out)), bits(&reference.voltages(out)));
}

#[test]
fn chain_tran_matches_one_shot() {
    let c = chain();
    let opts = TranOptions::new(1.2e-9, 3e-12);
    let mut fresh = one_shot(&c);
    let op = fresh.dc_owned().unwrap();
    let reference = fresh.tran_owned(&op, &opts).unwrap();
    let mut s = Session::elaborate(c.clone()).unwrap();
    // Precede the transient with other runs so the session state is "hot".
    let _ = s.dc_owned().unwrap();
    let op = s.dc_owned().unwrap();
    let res = s.tran_owned(&op, &opts).unwrap();
    assert_eq!(res.times(), reference.times());
    let out = c.find_node("out").unwrap();
    assert_eq!(bits(&res.voltages(out)), bits(&reference.voltages(out)));
}

// ---- AC equivalence: workspace path vs per-point reference -------------

#[test]
fn chain_ac_matches_reference_per_point() {
    // A non-integer decade span, so the sweep exercises the clamped
    // log_sweep endpoint too.
    let c = chain();
    let freqs = spice::ac::log_sweep(1e6, 5e10, 4);
    assert_eq!(*freqs.last().unwrap(), 5e10);

    let op = one_shot(&c).dc_owned().unwrap();
    let reference = ac_reference_per_point(&c, op.raw(), "VIN", &freqs);

    let mut s = Session::elaborate(c.clone()).unwrap();
    let op = s.dc_owned().unwrap();
    let ac = s.ac_owned(&op, "VIN", &freqs).unwrap();
    // Repeat at a re-solve, through the same (now used) workspace:
    // identical sweep.
    let op = s.dc_owned().unwrap();
    let ac2 = s.ac_owned(&op, "VIN", &freqs).unwrap();
    for &node in &all_nodes(&c) {
        let Some(i) = node.unknown() else { continue };
        for (k, point) in reference.iter().enumerate() {
            for probe in [&ac, &ac2] {
                let got = probe.voltages(node)[k];
                let want = point[i];
                assert!(
                    (got - want).abs() < 1e-9 * want.abs().max(1e-9),
                    "node {node:?}, {} Hz: {:?} vs {:?}",
                    freqs[k],
                    got,
                    want
                );
            }
        }
    }
}

#[test]
fn sram_dc_and_ac_match_one_shot() {
    let deltas = [VariationDelta::default(); 6];
    let (c, l, r) = sram_cell(&deltas);
    let guess = [(l, 0.0), (r, VDD)];
    let reference_op = one_shot(&c).dc_owned_with_guess(&guess).unwrap();
    let freqs = [1e6, 1e9];
    let reference_ac = ac_reference_per_point(&c, reference_op.raw(), "VBL", &freqs);

    let mut s = Session::elaborate(c.clone()).unwrap();
    let op = s.dc_owned_with_guess(&guess).unwrap();
    assert!((op.voltage(l) - reference_op.voltage(l)).abs() < TOL_V);
    assert!((op.voltage(r) - reference_op.voltage(r)).abs() < TOL_V);
    let ac = s.ac_owned(&op, "VBL", &freqs).unwrap();
    let li = l.unknown().unwrap();
    for (a, point) in ac.magnitudes(l).iter().zip(&reference_ac) {
        let b = point[li].abs();
        // The AC solution is linear in the operating point; tiny op-point
        // differences are amplified through subthreshold conductances.
        assert!((a - b).abs() < 1e-3 * b.max(1e-9), "{a} vs {b}");
    }
}

/// SplitMix64: a tiny deterministic generator for test-case sampling.
struct TestRng(u64);

impl TestRng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + (hi - lo) * u
    }
}

/// Random threshold-voltage deltas for all six cell devices.
fn random_deltas(rng: &mut TestRng) -> [VariationDelta; 6] {
    let mut deltas = [VariationDelta::default(); 6];
    for d in &mut deltas {
        *d = VariationDelta::single(StatParam::Vt0, rng.range(-0.04, 0.04));
    }
    deltas
}

/// The six `(name, model)` swaps matching [`sram_cell`]'s instances.
fn cell_swaps(c_fresh: &Circuit) -> Vec<(String, Box<dyn MosfetModel>)> {
    let mut swaps = Vec::new();
    for e in c_fresh.elements() {
        if let spice::elements::Element::Mosfet { name, model, .. } = e {
            swaps.push((name.clone(), model.clone_box()));
        }
    }
    swaps
}

/// Property: swapping devices into a live session and re-solving equals a
/// fresh elaboration of the netlist built with those devices, bit for bit —
/// across many random mismatch draws.
#[test]
fn swapped_session_equals_fresh_elaboration_property() {
    let mut rng = TestRng(0xe95_0051);
    let nominal = [VariationDelta::default(); 6];
    let (c0, l, r) = sram_cell(&nominal);
    let mut session = Session::elaborate(c0).unwrap();
    let guess = [(l, 0.0), (r, VDD)];

    for trial in 0..12 {
        let deltas = random_deltas(&mut rng);
        // In-place swap on the persistent session...
        let (c_fresh, _, _) = sram_cell(&deltas);
        assert_eq!(session.swap_devices(cell_swaps(&c_fresh)).unwrap(), 6);
        let swapped = session.dc_owned_with_guess(&guess).unwrap();
        // ...must match a fresh elaboration of the same netlist.
        let fresh = Session::elaborate(c_fresh)
            .unwrap()
            .dc_owned_with_guess(&guess)
            .unwrap();
        assert_eq!(bits(swapped.raw()), bits(fresh.raw()), "trial {trial}");
    }
}

/// Property: the AC Monte Carlo path (`swap_devices`, Newton from the
/// nominal cell's operating point with the guess, then `ac_owned` through
/// the reused workspace) equals the per-point reference computed on a
/// fresh cold elaboration of the same devices — the paper's "SRAM AC"
/// Monte Carlo inner loop, across random mismatch draws.
#[test]
fn sram_ac_from_the_nominal_point_equals_per_point_reference_across_resamples() {
    let mut rng = TestRng(0xac_5eed);
    let nominal = [VariationDelta::default(); 6];
    let (c0, l, r) = sram_cell(&nominal);
    let mut session = Session::elaborate(c0).unwrap();
    let guess = [(l, 0.0), (r, VDD)];
    let start = session.dc_owned_with_guess(&guess).unwrap();
    // Non-integer decade span ending exactly at the stop frequency.
    let freqs = spice::ac::log_sweep(1e6, 4e10, 3);
    assert_eq!(*freqs.last().unwrap(), 4e10);
    let li = l.unknown().unwrap();

    for trial in 0..8 {
        let deltas = random_deltas(&mut rng);
        let (c_fresh, _, _) = sram_cell(&deltas);
        assert_eq!(session.swap_devices(cell_swaps(&c_fresh)).unwrap(), 6);
        let op = session.dc_owned_from(start.raw(), &guess).unwrap();
        let ac = session.ac_owned(&op, "VBL", &freqs).unwrap();

        // Reference: cold guessed operating point + per-point solves on an
        // independent elaboration of the same sample.
        let cold_op = Session::elaborate(c_fresh.clone())
            .unwrap()
            .dc_owned_with_guess(&guess)
            .unwrap();
        let reference = ac_reference_per_point(&c_fresh, cold_op.raw(), "VBL", &freqs);

        for (k, point) in reference.iter().enumerate() {
            let got = ac.magnitudes(l)[k];
            let want = point[li].abs();
            // The two operating points differ at the Newton tolerance;
            // the linearization amplifies that through subthreshold
            // conductances, hence the relative 1e-3 band (as for the DC+AC
            // one-shot comparison above).
            assert!(
                (got - want).abs() < 1e-3 * want.max(1e-9),
                "trial {trial}, {} Hz: {got} vs {want}",
                freqs[k]
            );
        }
    }
}
