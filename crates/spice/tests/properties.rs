//! Property-style tests for the circuit simulator: randomized inputs from
//! a small in-file PRNG (deterministic, seeded), checked against analytic
//! circuit theory. Runs through the session API.

use spice::{Circuit, Session, TranOptions, Waveform};

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

    fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A random series resistor ladder from a source to ground: node voltages
/// must follow the analytic divider formula.
fn ladder(resistors: &[f64], v: f64) -> (Circuit, Vec<spice::NodeId>) {
    let mut c = Circuit::new();
    let top = c.node("n0");
    c.vsource("V1", top, Circuit::GROUND, Waveform::dc(v));
    let mut nodes = vec![top];
    let mut prev = top;
    for (i, &r) in resistors.iter().enumerate() {
        let next = if i + 1 == resistors.len() {
            Circuit::GROUND
        } else {
            c.node(&format!("n{}", i + 1))
        };
        c.resistor(&format!("R{i}"), prev, next, r);
        if next != Circuit::GROUND {
            nodes.push(next);
        }
        prev = next;
    }
    (c, nodes)
}

#[test]
fn resistor_ladder_matches_divider_formula() {
    let mut rng = TestRng(0x1adde5);
    for _ in 0..48 {
        let n_r = 2 + rng.index(4);
        let rs: Vec<f64> = (0..n_r).map(|_| rng.range(10.0, 1e6)).collect();
        let v = rng.range(-5.0, 5.0);
        let (c, nodes) = ladder(&rs, v);
        let op = Session::elaborate(c)
            .expect("ladder is well-formed")
            .dc_owned()
            .expect("linear circuit solves");
        let r_total: f64 = rs.iter().sum();
        // Voltage at node k is v * (remaining resistance below k) / total.
        let mut below = r_total;
        // The GMIN floor (1e-12 S per node) perturbs high-impedance ladders
        // by up to ~n * R * gmin * |v|.
        let tol = 1e-6 * v.abs().max(1.0) + 10.0 * r_total * 1e-12 * v.abs();
        for (k, &node) in nodes.iter().enumerate() {
            let expected = v * below / r_total;
            let got = op.voltage(node);
            assert!(
                (got - expected).abs() < tol,
                "node {k}: {got} vs {expected}"
            );
            below -= rs[k];
        }
        // Source current = -v / r_total, up to the simulator's GMIN floor
        // (1e-12 S from every node to ground).
        let gmin_leak = 10.0 * v.abs() * 1e-12;
        assert!(
            (op.vsource_current(0) + v / r_total).abs()
                < 1e-9 * (v.abs() / r_total).max(1e-12) + gmin_leak
        );
    }
}

#[test]
fn superposition_holds_for_two_sources() {
    let mut rng = TestRng(0x5afe2);
    for _ in 0..32 {
        let v1 = rng.range(-2.0, 2.0);
        let v2 = rng.range(-2.0, 2.0);
        let r1 = rng.range(100.0, 10e3);
        let r2 = rng.range(100.0, 10e3);
        let r3 = rng.range(100.0, 10e3);
        // Two sources driving a common node through r1/r2, r3 to ground.
        let run = |a: f64, b: f64| {
            let mut c = Circuit::new();
            let na = c.node("a");
            let nb = c.node("b");
            let mid = c.node("mid");
            c.vsource("VA", na, Circuit::GROUND, Waveform::dc(a));
            c.vsource("VB", nb, Circuit::GROUND, Waveform::dc(b));
            c.resistor("R1", na, mid, r1);
            c.resistor("R2", nb, mid, r2);
            c.resistor("R3", mid, Circuit::GROUND, r3);
            Session::elaborate(c)
                .expect("well-formed")
                .dc_owned()
                .expect("linear")
                .voltage(mid)
        };
        let both = run(v1, v2);
        let only1 = run(v1, 0.0);
        let only2 = run(0.0, v2);
        assert!((both - (only1 + only2)).abs() < 1e-8);
    }
}

#[test]
fn rc_transient_settles_to_source_value() {
    let mut rng = TestRng(0x7c1e4);
    for _ in 0..12 {
        let r = rng.range(100.0, 100e3);
        let c_val = rng.range(1e-13, 1e-10);
        let v = rng.range(0.1, 3.0);
        let tau = r * c_val;
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource(
            "V1",
            vin,
            Circuit::GROUND,
            Waveform::step(0.0, v, 0.0, tau / 100.0),
        );
        ckt.resistor("R1", vin, out, r);
        ckt.capacitor("C1", out, Circuit::GROUND, c_val);
        let mut s = Session::elaborate(ckt).expect("well-formed");
        let op = s.dc_owned().expect("operating point");
        let res = s
            .tran_owned(&op, &TranOptions::new(8.0 * tau, tau / 40.0))
            .expect("transient");
        let vo = res.voltages(out);
        let last = vo[vo.len() - 1];
        assert!(
            (last - v).abs() < 1e-3 * v,
            "settled to {last}, expected {v}"
        );
        // Energy sanity: output never overshoots the source (RC is monotone).
        assert!(vo.iter().all(|&x| x <= v * (1.0 + 1e-6)));
    }
}

#[test]
fn ac_rc_matches_transfer_function() {
    let mut rng = TestRng(0xac0);
    for _ in 0..24 {
        let r = rng.range(100.0, 100e3);
        let c_val = rng.range(1e-13, 1e-10);
        let decade = rng.index(5) as i32 - 2;
        let fc = 1.0 / (2.0 * std::f64::consts::PI * r * c_val);
        let f = fc * 10f64.powi(decade);
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource("V1", vin, Circuit::GROUND, Waveform::dc(0.0));
        ckt.resistor("R1", vin, out, r);
        ckt.capacitor("C1", out, Circuit::GROUND, c_val);
        let mut s = Session::elaborate(ckt).expect("well-formed");
        let op = s.dc_owned().expect("operating point");
        let res = s.ac_owned(&op, "V1", &[f]).expect("ac");
        let mag = res.magnitudes(out)[0];
        let expected = 1.0 / (1.0 + (f / fc).powi(2)).sqrt();
        assert!(
            (mag - expected).abs() < 1e-3,
            "|H({f:.3e})| = {mag} vs {expected}"
        );
    }
}
