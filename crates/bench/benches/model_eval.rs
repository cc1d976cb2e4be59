//! Compact-model evaluation cost: VS vs the BSIM-like kit.
//!
//! The microscopic root of the paper's Table IV runtime claim — the VS
//! model needs fewer operations per (I, Q) evaluation than a full-featured
//! BSIM4-class model — plus the exact DC evaluation (current and its three
//! conductances) every circuit stamp runs.

use mosfet::{bsim::BsimModel, vs::VsModel, Bias, Geometry, MosfetModel};
use vsbench::microbench::{maybe_write_json, measure};

fn main() {
    let geom = Geometry::from_nm(600.0, 40.0);
    let vs = VsModel::nominal_nmos_40nm(geom);
    let kit = BsimModel::nominal_nmos_40nm(geom);
    let biases: Vec<Bias> = (0..64)
        .map(|i| Bias {
            vgs: (i % 8) as f64 * 0.12,
            vds: (i / 8) as f64 * 0.12,
            vbs: 0.0,
        })
        .collect();

    let mut results = Vec::new();
    let mut sink = 0.0_f64;
    results.push(measure("ids_eval_64pts/vs", || {
        for &bias in &biases {
            sink += vs.ids(bias);
        }
    }));
    results.push(measure("ids_eval_64pts/bsim", || {
        for &bias in &biases {
            sink += kit.ids(bias);
        }
    }));
    // One exact current-plus-conductances evaluation: what a Newton
    // stamp costs per MOSFET.
    results.push(measure("dc_eval_64pts/vs", || {
        for &bias in &biases {
            sink += vs.eval_dc(bias).gm;
        }
    }));
    results.push(measure("dc_eval_64pts/bsim", || {
        for &bias in &biases {
            sink += kit.eval_dc(bias).gm;
        }
    }));
    results.push(measure("charge_eval_64pts/vs", || {
        for &bias in &biases {
            sink += vs.charges(bias).qg;
        }
    }));
    results.push(measure("charge_eval_64pts/bsim", || {
        for &bias in &biases {
            sink += kit.charges(bias).qg;
        }
    }));
    // Keep the accumulator observable so the model calls are not dead code.
    assert!(sink.is_finite());

    maybe_write_json(&results);
}
