//! The `Session::dc_batch` contract suite.
//!
//! `Session::dc_batch` promises that lane `i` of a K-lane batch is
//! **bit-identical** to running the scalar path sequentially: swap lane
//! `i`'s devices, solve with the batch's guess. These tests pin that
//! promise on a hand-built 6T SRAM cell under random mismatch draws, for
//! K ∈ {1, 4, 8} with a guess and for empty and absent guesses — plus
//! per-lane failure isolation and typed validation that leaves the session
//! untouched.
//!
//! Self-contained by design: mismatch normals come from a hand-rolled
//! splitmix64 + Box-Muller generator keyed purely by `(seed, lane index)`,
//! so the scalar reference and the batched run draw identical devices
//! without sharing any mutable generator state.

use mosfet::vs::VsModel;
use mosfet::{Bias, Charges, Geometry, MismatchSpec, MosfetModel, Polarity};
use spice::{Circuit, NodeId, Session, SpiceError, Waveform};

const VDD: f64 = 0.9;

// ---------------------------------------------------------------------------
// Deterministic mismatch draws: splitmix64 + Box-Muller, keyed by (seed, i)
// ---------------------------------------------------------------------------

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn uniform(state: &mut u64) -> f64 {
    // 53 random bits in [0, 1).
    (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
}

fn standard_normal(state: &mut u64) -> f64 {
    let u1 = uniform(state).max(f64::MIN_POSITIVE);
    let u2 = uniform(state);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

fn spec() -> MismatchSpec {
    MismatchSpec::from_paper_units(2.3, 3.71, 3.71, 944.0, 0.29)
}

// ---------------------------------------------------------------------------
// The cell: a 6T SRAM in hold state (word line low), built inline
// ---------------------------------------------------------------------------

const PD_GEOM: Geometry = Geometry {
    w: 260e-9,
    l: 40e-9,
};
const PU_GEOM: Geometry = Geometry {
    w: 130e-9,
    l: 40e-9,
};
const PG_GEOM: Geometry = Geometry {
    w: 180e-9,
    l: 40e-9,
};

/// Transistor names in the order lane draws list them.
const NAMES: [&str; 6] = ["PD1", "PD2", "PU1", "PU2", "PG1", "PG2"];

fn nominal(name: &str) -> Box<dyn MosfetModel> {
    match name {
        "PD1" | "PD2" => Box::new(VsModel::nominal_nmos_40nm(PD_GEOM)),
        "PU1" | "PU2" => Box::new(VsModel::nominal_pmos_40nm(PU_GEOM)),
        _ => Box::new(VsModel::nominal_nmos_40nm(PG_GEOM)),
    }
}

/// The 6T cell with nominal devices; returns `(circuit, l, r)`.
fn cell() -> (Circuit, NodeId, NodeId) {
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
    c.vsource("VWL", wl, Circuit::GROUND, Waveform::dc(0.0));
    c.mosfet(
        "PD1",
        l,
        r,
        Circuit::GROUND,
        Circuit::GROUND,
        nominal("PD1"),
    );
    c.mosfet(
        "PD2",
        r,
        l,
        Circuit::GROUND,
        Circuit::GROUND,
        nominal("PD2"),
    );
    c.mosfet("PU1", l, r, vdd, vdd, nominal("PU1"));
    c.mosfet("PU2", r, l, vdd, vdd, nominal("PU2"));
    c.mosfet("PG1", bl, wl, l, Circuit::GROUND, nominal("PG1"));
    c.mosfet("PG2", blb, wl, r, Circuit::GROUND, nominal("PG2"));
    (c, l, r)
}

/// One lane's mismatch draw: six varied devices, a pure function of
/// `(seed, lane index)`.
fn draw(seed: u64, lane: usize) -> Vec<(&'static str, Box<dyn MosfetModel>)> {
    let mut st = seed ^ (lane as u64).wrapping_mul(0x2545_f491_4f6c_dd1d);
    let sp = spec();
    NAMES
        .iter()
        .map(|&name| {
            let (geom, polarity, params) = match name {
                "PD1" | "PD2" => (PD_GEOM, Polarity::Nmos, mosfet::vs::VsParams::nmos_40nm()),
                "PU1" | "PU2" => (PU_GEOM, Polarity::Pmos, mosfet::vs::VsParams::pmos_40nm()),
                _ => (PG_GEOM, Polarity::Nmos, mosfet::vs::VsParams::nmos_40nm()),
            };
            let delta = sp.sample(geom, || standard_normal(&mut st));
            let model: Box<dyn MosfetModel> =
                Box::new(VsModel::with_variation(params, polarity, geom, delta));
            (name, model)
        })
        .collect()
}

fn bits(op: &spice::DcResult) -> Vec<u64> {
    op.raw().iter().map(|x| x.to_bits()).collect()
}

/// Scalar reference for one lane: swap the lane's devices, solve from the
/// node guess.
fn scalar_cold(s: &mut Session, seed: u64, lane: usize, guess: &[(NodeId, f64)]) -> Vec<u64> {
    s.swap_devices(draw(seed, lane)).expect("known names");
    bits(&s.dc_owned_with_guess(guess).expect("scalar converges"))
}

// ---------------------------------------------------------------------------
// Bit-identity: cold starts
// ---------------------------------------------------------------------------

#[test]
fn cold_start_lanes_are_bit_identical_to_scalar() {
    let seed = 0xc01d_5eed;
    let (c, l, r) = cell();
    let mut scalar = Session::elaborate(c).expect("valid cell");
    let guess = [(l, 0.0), (r, VDD)];
    let (c, _, _) = cell();
    let mut batched = Session::elaborate(c).expect("valid cell");
    for k in [1usize, 4, 8] {
        let reference: Vec<Vec<u64>> = (0..k)
            .map(|i| scalar_cold(&mut scalar, seed, i, &guess))
            .collect();
        let lanes: Vec<_> = (0..k).map(|i| draw(seed, i)).collect();
        let ops = batched.dc_batch(lanes, Some(&guess)).expect("valid batch");
        assert_eq!(ops.len(), k);
        for (i, op) in ops.iter().enumerate() {
            let op = op.as_ref().expect("batched lane converges");
            assert_eq!(
                bits(op),
                reference[i],
                "cold-start lane {i} of K = {k} diverged from the scalar path"
            );
        }
    }
}

/// A lane without a guess, empty or absent, is `dc_owned` on its devices:
/// the continuation ladder from zero, whatever the session solved before
/// the batch.
#[test]
fn guessless_lanes_equal_scalar_dc_owned() {
    let seed = 0xe1e1_0000;
    let (c, l, r) = cell();
    let mut scalar = Session::elaborate(c).expect("valid cell");
    let k = 8;
    let reference: Vec<Option<Vec<u64>>> = (0..k)
        .map(|i| {
            scalar.swap_devices(draw(seed, i)).expect("known names");
            scalar.dc_owned().ok().map(|op| bits(&op))
        })
        .collect();
    assert!(reference.iter().any(Option::is_some), "no lane converges");
    let (c, _, _) = cell();
    let mut batched = Session::elaborate(c).expect("valid cell");
    for guess in [Some(&[][..]), None] {
        // A solve in one stored state first, which no lane may read.
        batched
            .dc_owned_with_guess(&[(l, 0.0), (r, VDD)])
            .expect("nominal converges");
        let lanes: Vec<_> = (0..k).map(|i| draw(seed, i)).collect();
        let ops = batched.dc_batch(lanes, guess).expect("valid batch");
        for (i, op) in ops.iter().enumerate() {
            assert_eq!(
                op.as_ref().ok().map(bits),
                reference[i],
                "guess {guess:?}: lane {i} diverged from the scalar path"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Per-lane failure isolation
// ---------------------------------------------------------------------------

/// A model whose current is NaN at every bias — a poisoned draw that can
/// never converge.
#[derive(Debug, Clone)]
struct NanModel;

impl MosfetModel for NanModel {
    fn polarity(&self) -> Polarity {
        Polarity::Nmos
    }
    fn geometry(&self) -> Geometry {
        PD_GEOM
    }
    fn ids(&self, _bias: Bias) -> f64 {
        f64::NAN
    }
    fn charges(&self, _bias: Bias) -> Charges {
        Charges::default()
    }
    fn name(&self) -> &'static str {
        "nan"
    }
    fn clone_box(&self) -> Box<dyn MosfetModel> {
        Box::new(self.clone())
    }
}

#[test]
fn failed_lane_is_isolated_and_neighbors_stay_bit_identical() {
    let seed = 0xbad_1a2e;
    let (c, l, r) = cell();
    let mut scalar = Session::elaborate(c).expect("valid cell");
    let guess = [(l, 0.0), (r, VDD)];
    let (c, _, _) = cell();
    let mut batched = Session::elaborate(c).expect("valid cell");

    let k = 4;
    let poisoned = 2usize;
    let reference: Vec<Option<Vec<u64>>> = (0..k)
        .map(|i| (i != poisoned).then(|| scalar_cold(&mut scalar, seed, i, &guess)))
        .collect();
    let lanes: Vec<Vec<(&str, Box<dyn MosfetModel>)>> = (0..k)
        .map(|i| {
            let mut lane = draw(seed, i);
            if i == poisoned {
                lane[0] = ("PD1", Box::new(NanModel));
            }
            lane
        })
        .collect();
    let ops = batched.dc_batch(lanes, Some(&guess)).expect("valid batch");
    for (i, op) in ops.iter().enumerate() {
        if i == poisoned {
            assert!(op.is_err(), "NaN lane must fail, not poison the batch");
        } else {
            assert_eq!(
                bits(op.as_ref().expect("healthy lane converges")),
                *reference[i].as_ref().expect("scalar reference"),
                "lane {i} next to a failed lane drifted"
            );
        }
    }

    // The batch never touches the session's own devices: a nominal solve
    // afterwards matches a fresh session's nominal solve bit for bit.
    let after = batched
        .dc_owned_with_guess(&guess)
        .expect("nominal converges");
    let (c, _, _) = cell();
    let mut fresh = Session::elaborate(c).expect("valid cell");
    let expected = fresh
        .dc_owned_with_guess(&guess)
        .expect("nominal converges");
    assert_eq!(
        bits(&after),
        bits(&expected),
        "dc_batch mutated the circuit"
    );
}

// ---------------------------------------------------------------------------
// Typed validation of the batch APIs
// ---------------------------------------------------------------------------

#[test]
fn empty_batches_and_unknown_names_are_typed_errors() {
    let (c, l, r) = cell();
    let mut s = Session::elaborate(c).expect("valid cell");
    let err = s
        .dc_batch(Vec::<Vec<(&str, Box<dyn MosfetModel>)>>::new(), None)
        .expect_err("K = 0 must be rejected");
    assert!(
        matches!(err, SpiceError::InvalidArgument { .. }),
        "unexpected error for K = 0: {err}"
    );
    let err = s
        .dc_batch(vec![vec![("NOPE", nominal("PD1"))]], None)
        .expect_err("unknown device must be rejected");
    assert!(
        matches!(err, SpiceError::BadNetlist { .. }),
        "unexpected error for unknown name: {err}"
    );

    // A bad name in a later lane fails the batch before any lane is
    // swapped in: the session's devices stay as they were.
    let err = s
        .dc_batch(vec![draw(7, 0), vec![("NOPE", nominal("PD1"))]], None)
        .expect_err("unknown device in lane 1 must be rejected");
    assert!(
        matches!(err, SpiceError::BadNetlist { .. }),
        "unexpected error for unknown name in lane 1: {err}"
    );
    let guess = [(l, 0.0), (r, VDD)];
    let after = s.dc_owned_with_guess(&guess).expect("nominal converges");
    let (c, _, _) = cell();
    let mut fresh = Session::elaborate(c).expect("valid cell");
    let expected = fresh
        .dc_owned_with_guess(&guess)
        .expect("nominal converges");
    assert_eq!(
        bits(&after),
        bits(&expected),
        "rejected batch mutated the circuit"
    );
}
