//! Property-style tests shared by both compact models, on randomized bias
//! points and geometries from a small in-file PRNG (deterministic, seeded).
//!
//! These check the *contract* of [`mosfet::MosfetModel`]: smoothness,
//! source/drain symmetry, monotonicity, charge conservation, and exact
//! derivatives from `eval_dc`/`eval_charges` — on both the VS model and
//! the BSIM-like kit.

use mosfet::{
    bsim::BsimModel, vs::VsModel, Bias, ChargeEval, Charges, DcEval, Geometry, MosfetModel,
    Polarity, StatParam, VariationDelta,
};

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

    fn geometry(&mut self) -> Geometry {
        Geometry::from_nm(self.range(80.0, 2000.0), self.range(30.0, 120.0))
    }
}

fn models(geom: Geometry) -> Vec<Box<dyn MosfetModel>> {
    vec![
        Box::new(VsModel::nominal_nmos_40nm(geom)),
        Box::new(VsModel::nominal_pmos_40nm(geom)),
        Box::new(BsimModel::nominal_nmos_40nm(geom)),
        Box::new(BsimModel::nominal_pmos_40nm(geom)),
    ]
}

#[test]
fn source_drain_symmetry_everywhere() {
    let mut rng = TestRng(0x20);
    for _ in 0..64 {
        let geom = rng.geometry();
        let vgs = rng.range(-1.0, 1.0);
        let vds = rng.range(0.01, 1.0);
        for m in models(geom) {
            let s = m.polarity().sign();
            let fwd = m.ids(Bias {
                vgs: s * vgs,
                vds: s * vds,
                vbs: 0.0,
            });
            // Swap source and drain: new vgs is vgd, new vds is -vds, the
            // bulk follows the new source.
            let rev = m.ids(Bias {
                vgs: s * (vgs - vds),
                vds: -s * vds,
                vbs: -s * vds,
            });
            let scale = fwd.abs().max(1e-15);
            assert!(
                (fwd + rev).abs() < 1e-8 * scale,
                "{}: fwd={fwd}, rev={rev}",
                m.name()
            );
        }
    }
}

#[test]
fn current_sign_follows_vds() {
    let mut rng = TestRng(0x21);
    for _ in 0..64 {
        let geom = rng.geometry();
        let vgs = rng.range(0.0, 1.0);
        let vds = rng.range(0.01, 1.0);
        for m in models(geom) {
            let s = m.polarity().sign();
            let id = m.ids(Bias {
                vgs: s * vgs,
                vds: s * vds,
                vbs: 0.0,
            });
            assert!(s * id >= 0.0, "{}: wrong current sign", m.name());
        }
    }
}

#[test]
fn charge_conservation_everywhere() {
    let mut rng = TestRng(0x22);
    for _ in 0..64 {
        let geom = rng.geometry();
        let vgs = rng.range(-1.0, 1.0);
        let vds = rng.range(-1.0, 1.0);
        let vbs = rng.range(-0.3, 0.05);
        for m in models(geom) {
            let q = m.charges(Bias { vgs, vds, vbs });
            let total = q.qg + q.qd + q.qs + q.qb;
            let scale = q.qg.abs().max(1e-20);
            assert!(total.abs() < 1e-10 * scale, "{}: sum = {total}", m.name());
        }
    }
}

#[test]
fn monotone_in_gate_drive() {
    let mut rng = TestRng(0x23);
    for _ in 0..64 {
        let geom = rng.geometry();
        // Start above the GIDL regime: with gate-induced drain leakage in
        // the kit model, Id(vgs) is genuinely non-monotone right at vgs ~ 0
        // under high vds (the classic GIDL hump), so monotonicity is a
        // channel-conduction property.
        let vgs = rng.range(0.1, 0.85);
        let dv = rng.range(0.01, 0.1);
        let vds = rng.range(0.05, 1.0);
        for m in models(geom) {
            let s = m.polarity().sign();
            let i1 = s * m.ids(Bias {
                vgs: s * vgs,
                vds: s * vds,
                vbs: 0.0,
            });
            let i2 = s * m.ids(Bias {
                vgs: s * (vgs + dv),
                vds: s * vds,
                vbs: 0.0,
            });
            assert!(i2 > i1, "{}: not monotone in vgs", m.name());
        }
    }
}

#[test]
fn gummel_smoothness_no_conductance_jumps() {
    let mut rng = TestRng(0x24);
    for _ in 0..16 {
        let geom = rng.geometry();
        let vgs = rng.range(0.2, 1.0);
        // The output conductance g = dI/dVds must vary gradually: a kink in
        // I(Vds) would show as a step in g between adjacent fine-grid cells.
        for m in models(geom) {
            let s = m.polarity().sign();
            let n = 400;
            let h = 1.0 / n as f64;
            let id = |k: usize| {
                s * m.ids(Bias {
                    vgs: s * vgs,
                    vds: s * (k as f64 * h),
                    vbs: 0.0,
                })
            };
            let g: Vec<f64> = (0..n).map(|k| (id(k + 1) - id(k)) / h).collect();
            let g_max = g.iter().fold(0.0_f64, |a, &b| a.max(b.abs())).max(1e-18);
            for k in 1..n {
                let jump = (g[k] - g[k - 1]).abs();
                assert!(
                    jump < 0.35 * g_max,
                    "{}: conductance jump at vds={} ({} of g_max)",
                    m.name(),
                    k as f64 * h,
                    jump / g_max
                );
            }
        }
    }
}

#[test]
fn vt_variation_moves_both_models_in_same_direction() {
    let mut rng = TestRng(0x25);
    for _ in 0..64 {
        let geom = rng.geometry();
        let dvt = rng.range(-0.05, 0.05);
        if dvt.abs() <= 1e-4 {
            continue;
        }
        let delta = VariationDelta::single(StatParam::Vt0, dvt);
        let bias = Bias {
            vgs: 0.9,
            vds: 0.9,
            vbs: 0.0,
        };
        let vs_base = VsModel::nominal_nmos_40nm(geom).ids(bias);
        let vs_var = VsModel::with_variation(
            mosfet::vs::VsParams::nmos_40nm(),
            Polarity::Nmos,
            geom,
            delta,
        )
        .ids(bias);
        let kit_base = BsimModel::nominal_nmos_40nm(geom).ids(bias);
        let kit_var = BsimModel::with_variation(
            mosfet::bsim::BsimParams::nmos_40nm(),
            Polarity::Nmos,
            geom,
            delta,
        )
        .ids(bias);
        // Higher VT -> lower current, in both models.
        assert_eq!(vs_var < vs_base, dvt > 0.0);
        assert_eq!(kit_var < kit_base, dvt > 0.0);
    }
}

#[test]
fn cgg_is_positive_and_grows_with_area() {
    let mut rng = TestRng(0x26);
    for _ in 0..64 {
        let w = rng.range(200.0, 1000.0);
        let l = rng.range(40.0, 80.0);
        let small = VsModel::nominal_nmos_40nm(Geometry::from_nm(w, l));
        let big = VsModel::nominal_nmos_40nm(Geometry::from_nm(2.0 * w, l));
        let bias = Bias {
            vgs: 0.9,
            vds: 0.0,
            vbs: 0.0,
        };
        let c_small = small.eval_charges(bias).dq[0][0];
        let c_big = big.eval_charges(bias).dq[0][0];
        assert!(c_small > 0.0);
        assert!(c_big > 1.5 * c_small);
    }
}

/// Both models, both polarities, nominal and with mismatch.
fn derivative_models() -> Vec<Box<dyn MosfetModel>> {
    let g = Geometry::from_nm(600.0, 40.0);
    let delta = VariationDelta {
        dvt0: 0.021,
        dleff: -1.3e-9,
        dmu: -5e-4,
        ..VariationDelta::zero()
    };
    let mut out = models(g);
    out.push(Box::new(VsModel::with_variation(
        mosfet::vs::VsParams::nmos_40nm(),
        Polarity::Nmos,
        g,
        delta,
    )));
    out.push(Box::new(BsimModel::with_variation(
        mosfet::bsim::BsimParams::pmos_40nm(),
        Polarity::Pmos,
        g,
        delta,
    )));
    out
}

/// Physical biases (polarity sign applied) over a grid that covers both
/// `vds` signs (the source/drain fold), forward and reverse body bias, and
/// gate drives from -3.5 V to 4 V, which push the VS model's
/// `softplus`/`logistic` arguments past both ±35 guards. `|vds| >= 10 mV`
/// keeps the grid off the fold itself.
fn derivative_biases(sign: f64) -> Vec<Bias> {
    let mut out = Vec::new();
    for i in 0..=60 {
        let vgs = -3.5 + 0.125 * f64::from(i);
        for vds in [
            -1.5, -0.9, -0.5, -0.2, -0.05, -0.01, 0.01, 0.05, 0.2, 0.5, 0.9, 1.5,
        ] {
            for vbs in [-0.4, -0.1, 0.0, 0.3] {
                out.push(Bias {
                    vgs: sign * vgs,
                    vds: sign * vds,
                    vbs: sign * vbs,
                });
            }
        }
    }
    out
}

/// `bias` with `dv` added to terminal voltage `k` (vgs, vds, vbs).
fn nudge(bias: Bias, k: usize, dv: f64) -> Bias {
    let mut b = bias;
    match k {
        0 => b.vgs += dv,
        1 => b.vds += dv,
        _ => b.vbs += dv,
    }
    b
}

/// Central difference of `f` along terminal voltage `k`.
fn central(f: impl Fn(Bias) -> f64, bias: Bias, k: usize) -> f64 {
    const H: f64 = 1e-6;
    (f(nudge(bias, k, H)) - f(nudge(bias, k, -H))) / (2.0 * H)
}

#[test]
fn eval_dc_partials_match_central_differences() {
    for m in derivative_models() {
        for bias in derivative_biases(m.polarity().sign()) {
            let ev = m.eval_dc(bias);
            let exact = [ev.gm, ev.gds, ev.gmb];
            let scale = exact.iter().map(|g| g.abs()).sum::<f64>();
            for (k, &g) in exact.iter().enumerate() {
                let fd = central(|b| m.ids(b), bias, k);
                assert!(
                    (g - fd).abs() <= 1e-6 * scale,
                    "{} {:?} at {bias:?}: d/dv{k} exact {g:e}, central {fd:e}",
                    m.name(),
                    m.polarity()
                );
            }
        }
    }
}

/// At vds = 0 exactly, both models branch (VS: `fsat(0) = 0`; BSIM: the
/// channel conductance limit); the exact `gds` must still be the
/// linear-region conductance, which Newton needs to start from a flat
/// guess.
#[test]
fn eval_dc_at_zero_vds_is_the_linear_region_conductance() {
    const H: f64 = 1e-7;
    for m in derivative_models() {
        let s = m.polarity().sign();
        for vgs in [0.3, 0.6, 0.9] {
            for vbs in [-0.2, 0.0] {
                let bias = Bias {
                    vgs: s * vgs,
                    vds: 0.0,
                    vbs: s * vbs,
                };
                let gds = m.eval_dc(bias).gds;
                // One-sided slope into the device's forward region.
                let fd = (m.ids(nudge(bias, 1, s * H)) - m.ids(bias)) / (s * H);
                assert!(
                    gds > 0.0 && (gds - fd).abs() < 1e-4 * gds,
                    "{} {:?} at {bias:?}: gds {gds:e}, forward difference {fd:e}",
                    m.name(),
                    m.polarity()
                );
            }
        }
    }
}

#[test]
fn eval_charges_partials_match_central_differences() {
    for m in derivative_models() {
        for bias in derivative_biases(m.polarity().sign()) {
            let ev = m.eval_charges(bias);
            for (t, row) in ev.dq.iter().enumerate() {
                let scale = row.iter().map(|c| c.abs()).sum::<f64>();
                for (k, &c) in row.iter().enumerate() {
                    let fd = central(|b| m.charges(b).terminals()[t], bias, k);
                    assert!(
                        (c - fd).abs() <= 1e-6 * scale,
                        "{} {:?} at {bias:?}: dq{t}/dv{k} exact {c:e}, central {fd:e}",
                        m.name(),
                        m.polarity()
                    );
                }
            }
        }
    }
}

#[test]
fn eval_values_are_bit_identical_to_plain_evaluation() {
    for m in derivative_models() {
        for bias in derivative_biases(m.polarity().sign()) {
            assert_eq!(m.eval_dc(bias).ids.to_bits(), m.ids(bias).to_bits());
            let (q, plain) = (m.eval_charges(bias).q, m.charges(bias));
            assert_eq!(
                q.terminals().map(f64::to_bits),
                plain.terminals().map(f64::to_bits)
            );
        }
    }
}

/// A model that provides values only, like a counting wrapper or a test
/// double: it inherits the trait's default derivatives.
#[derive(Debug, Clone)]
struct ValuesOnly(VsModel);

impl MosfetModel for ValuesOnly {
    fn polarity(&self) -> Polarity {
        self.0.polarity()
    }
    fn geometry(&self) -> Geometry {
        self.0.geometry()
    }
    fn ids(&self, bias: Bias) -> f64 {
        self.0.ids(bias)
    }
    fn charges(&self, bias: Bias) -> Charges {
        self.0.charges(bias)
    }
    fn name(&self) -> &'static str {
        "values-only"
    }
    fn clone_box(&self) -> Box<dyn MosfetModel> {
        Box::new(self.clone())
    }
}

#[test]
fn default_eval_takes_forward_differences() {
    // The forward differences circuit stamps took before the models
    // differentiated themselves: a 1 µV step per terminal voltage.
    const STEP: f64 = 1e-6;
    let m = ValuesOnly(VsModel::nominal_pmos_40nm(Geometry::from_nm(600.0, 40.0)));
    for bias in derivative_biases(-1.0) {
        let id0 = m.ids(bias);
        let d = |k: usize| (m.ids(nudge(bias, k, STEP)) - id0) / STEP;
        let expected = DcEval {
            ids: id0,
            gm: d(0),
            gds: d(1),
            gmb: d(2),
        };
        assert_eq!(m.eval_dc(bias), expected);

        let q0 = m.charges(bias).terminals();
        let mut dq = [[0.0; 3]; 4];
        for k in 0..3 {
            let qp = m.charges(nudge(bias, k, STEP)).terminals();
            for t in 0..4 {
                dq[t][k] = (qp[t] - q0[t]) / STEP;
            }
        }
        let expected = ChargeEval {
            q: m.charges(bias),
            dq,
        };
        assert_eq!(m.eval_charges(bias), expected);
    }
}
