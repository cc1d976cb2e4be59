//! Integration tests: compact models inside the MNA engine.
//!
//! These exercise the full nonlinear DC and transient paths with both the
//! VS and BSIM-like models, on the smallest meaningful circuit (a CMOS
//! inverter) — the building block of every benchmark in the paper.

use mosfet::{bsim::BsimModel, vs::VsModel, Geometry, MosfetModel};
use spice::{Circuit, Session, TranOptions, Waveform};

const VDD: f64 = 0.9;

/// Builds a CMOS inverter driving a load capacitor; returns (circuit, in, out).
fn inverter(
    nmos: Box<dyn MosfetModel>,
    pmos: Box<dyn MosfetModel>,
    cload: f64,
) -> (Circuit, spice::NodeId, spice::NodeId) {
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let vin = c.node("in");
    let out = c.node("out");
    c.vsource("VDD", vdd, Circuit::GROUND, Waveform::dc(VDD));
    c.vsource("VIN", vin, Circuit::GROUND, Waveform::dc(0.0));
    c.mosfet("MP", out, vin, vdd, vdd, pmos);
    c.mosfet("MN", out, vin, Circuit::GROUND, Circuit::GROUND, nmos);
    c.capacitor("CL", out, Circuit::GROUND, cload);
    (c, vin, out)
}

fn vs_pair() -> (Box<dyn MosfetModel>, Box<dyn MosfetModel>) {
    (
        Box::new(VsModel::nominal_nmos_40nm(Geometry::from_nm(300.0, 40.0))),
        Box::new(VsModel::nominal_pmos_40nm(Geometry::from_nm(600.0, 40.0))),
    )
}

fn bsim_pair() -> (Box<dyn MosfetModel>, Box<dyn MosfetModel>) {
    (
        Box::new(BsimModel::nominal_nmos_40nm(Geometry::from_nm(300.0, 40.0))),
        Box::new(BsimModel::nominal_pmos_40nm(Geometry::from_nm(600.0, 40.0))),
    )
}

#[test]
fn inverter_dc_rails_vs_model() {
    let (n, p) = vs_pair();
    let (c, _vin, out) = inverter(n, p, 1e-15);
    // Input low -> output at VDD.
    let op = Session::elaborate(c).unwrap().dc_owned().unwrap();
    assert!(
        (op.voltage(out) - VDD).abs() < 0.02,
        "out = {}",
        op.voltage(out)
    );
}

#[test]
fn inverter_vtc_is_monotone_and_switches_vs_model() {
    let (n, p) = vs_pair();
    let (c, _vin, out) = inverter(n, p, 1e-15);
    let vals: Vec<f64> = (0..=45).map(|i| i as f64 * 0.02).collect();
    let sweep = Session::elaborate(c)
        .unwrap()
        .dc_sweep_owned("VIN", &vals, &[])
        .unwrap();
    let vout = sweep.voltages(out);
    // Monotone decreasing.
    for w in vout.windows(2) {
        assert!(
            w[1] <= w[0] + 1e-6,
            "VTC not monotone: {} -> {}",
            w[0],
            w[1]
        );
    }
    // Full swing.
    assert!(vout[0] > 0.95 * VDD);
    assert!(vout[vout.len() - 1] < 0.05 * VDD);
    // Switching threshold in a sensible window (0.3..0.6 of VDD).
    let vm_idx = vout.iter().position(|&v| v < VDD / 2.0).unwrap();
    let vm = vals[vm_idx];
    assert!((0.25 * VDD..0.75 * VDD).contains(&vm), "Vm = {vm}");
}

#[test]
fn inverter_vtc_bsim_model() {
    let (n, p) = bsim_pair();
    let (c, _vin, out) = inverter(n, p, 1e-15);
    let vals: Vec<f64> = (0..=45).map(|i| i as f64 * 0.02).collect();
    let sweep = Session::elaborate(c)
        .unwrap()
        .dc_sweep_owned("VIN", &vals, &[])
        .unwrap();
    let vout = sweep.voltages(out);
    assert!(vout[0] > 0.95 * VDD);
    assert!(vout[vout.len() - 1] < 0.05 * VDD);
}

#[test]
fn inverter_transient_switches_both_models() {
    for (label, (n, p)) in [("vs", vs_pair()), ("bsim", bsim_pair())] {
        let (mut c, _vin, out) = inverter(n, p, 2e-15);
        c.set_vsource(
            "VIN",
            Waveform::Pulse {
                v1: 0.0,
                v2: VDD,
                delay: 50e-12,
                rise: 10e-12,
                fall: 10e-12,
                width: 500e-12,
                period: 0.0,
            },
        )
        .unwrap();
        let mut s = Session::elaborate(c).unwrap();
        let op = s.dc_owned().unwrap();
        let res = s.tran_owned(&op, &TranOptions::new(1.2e-9, 2e-12)).unwrap();
        let vout = res.voltages(out);
        let t = res.times();
        // Starts high.
        assert!(vout[0] > 0.95 * VDD, "{label}: v(0) = {}", vout[0]);
        // Falls after the input rises.
        let fall =
            spice::measure::cross_time(t, &vout, VDD / 2.0, spice::measure::Edge::Falling, 0.0);
        assert!(fall.is_some(), "{label}: output never fell");
        let tf = fall.unwrap();
        assert!(tf > 50e-12 && tf < 300e-12, "{label}: fall at {tf:.3e}");
        // Rises again after the input falls.
        let rise =
            spice::measure::cross_time(t, &vout, VDD / 2.0, spice::measure::Edge::Rising, tf);
        assert!(rise.is_some(), "{label}: output never recovered");
        // Delay, from the input's rising crossing to the output's next
        // crossing, is in the ps range for these loads.
        let vin = res.voltages(s.circuit().find_node("in").unwrap());
        let t_in =
            spice::measure::cross_time(t, &vin, VDD / 2.0, spice::measure::Edge::Rising, 0.0)
                .unwrap();
        let t_out =
            spice::measure::cross_time(t, &vout, VDD / 2.0, spice::measure::Edge::Any, t_in)
                .unwrap();
        let delay = t_out - t_in;
        assert!(
            delay > 0.2e-12 && delay < 100e-12,
            "{label}: delay = {delay:.3e}"
        );
    }
}

#[test]
fn inverter_supply_current_spikes_during_switching() {
    let (n, p) = vs_pair();
    let (mut c, _vin, _out) = inverter(n, p, 2e-15);
    c.set_vsource(
        "VIN",
        Waveform::Pulse {
            v1: 0.0,
            v2: VDD,
            delay: 100e-12,
            rise: 20e-12,
            fall: 20e-12,
            width: 400e-12,
            period: 0.0,
        },
    )
    .unwrap();
    let mut s = Session::elaborate(c).unwrap();
    let op = s.dc_owned().unwrap();
    let res = s.tran_owned(&op, &TranOptions::new(1e-9, 2e-12)).unwrap();
    let idd = res.vsource_currents(0); // VDD source is first
    let t = res.times();
    // Quiescent current (before the edge) is tiny; switching current is not.
    let i_quiet = idd
        .iter()
        .zip(t)
        .filter(|&(_, &tt)| tt < 80e-12)
        .map(|(i, _)| i.abs())
        .fold(0.0_f64, f64::max);
    let i_peak = idd.iter().map(|i| i.abs()).fold(0.0_f64, f64::max);
    assert!(
        i_peak > 20.0 * i_quiet,
        "peak {i_peak:.3e} vs quiet {i_quiet:.3e}"
    );
}

#[test]
fn nmos_iv_through_simulator_matches_model() {
    // A single NMOS with drain driven by a source: the simulator's branch
    // current must equal the model's ids.
    let geom = Geometry::from_nm(600.0, 40.0);
    let model = VsModel::nominal_nmos_40nm(geom);
    let direct = model.ids(mosfet::Bias {
        vgs: 0.9,
        vds: 0.6,
        vbs: 0.0,
    });

    let mut c = Circuit::new();
    let d = c.node("d");
    let g = c.node("g");
    c.vsource("VD", d, Circuit::GROUND, Waveform::dc(0.6));
    c.vsource("VG", g, Circuit::GROUND, Waveform::dc(0.9));
    c.mosfet(
        "M1",
        d,
        g,
        Circuit::GROUND,
        Circuit::GROUND,
        Box::new(model),
    );
    let op = Session::elaborate(c).unwrap().dc_owned().unwrap();
    // The drain source supplies the drain current: i(VD) = -Id.
    let i_vd = op.vsource_current(0);
    assert!(
        (i_vd + direct).abs() < 1e-9 + 1e-6 * direct.abs(),
        "sim {i_vd:.6e} vs model {direct:.6e}"
    );
}

#[test]
fn bistable_latch_respects_initial_guess() {
    // Two cross-coupled inverters: the DC guess picks the state.
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let q = c.node("q");
    let qb = c.node("qb");
    c.vsource("VDD", vdd, Circuit::GROUND, Waveform::dc(VDD));
    let g = Geometry::from_nm(150.0, 40.0);
    let gp = Geometry::from_nm(300.0, 40.0);
    c.mosfet(
        "MP1",
        q,
        qb,
        vdd,
        vdd,
        Box::new(VsModel::nominal_pmos_40nm(gp)),
    );
    c.mosfet(
        "MN1",
        q,
        qb,
        Circuit::GROUND,
        Circuit::GROUND,
        Box::new(VsModel::nominal_nmos_40nm(g)),
    );
    c.mosfet(
        "MP2",
        qb,
        q,
        vdd,
        vdd,
        Box::new(VsModel::nominal_pmos_40nm(gp)),
    );
    c.mosfet(
        "MN2",
        qb,
        q,
        Circuit::GROUND,
        Circuit::GROUND,
        Box::new(VsModel::nominal_nmos_40nm(g)),
    );

    let mut s = Session::elaborate(c).unwrap();
    let op_q1 = s.dc_owned_with_guess(&[(q, VDD), (qb, 0.0)]).unwrap();
    assert!(op_q1.voltage(q) > 0.8 * VDD, "q = {}", op_q1.voltage(q));
    assert!(op_q1.voltage(qb) < 0.2 * VDD);

    let op_q0 = s.dc_owned_with_guess(&[(q, 0.0), (qb, VDD)]).unwrap();
    assert!(op_q0.voltage(q) < 0.2 * VDD, "q = {}", op_q0.voltage(q));
    assert!(op_q0.voltage(qb) > 0.8 * VDD);
}
