//! Driving the simulator from a SPICE-format netlist.
//!
//! Parses a ring-oscillator-style chain of inverters written as plain SPICE
//! text (using the built-in `vsn`/`vsp` Virtual Source model cards), runs a
//! transient, and measures the stage delays.
//!
//! Run with `cargo run --release --example netlist_sim`.

use statvs::spice::measure::{cross_time, Edge};
use statvs::spice::{parser, Session, TranOptions};

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

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let parsed = parser::parse(NETLIST)?;
    println!(
        "parsed netlist: {} nodes, {} elements",
        parsed.node_count(),
        parsed.elements().len()
    );

    // Elaborate once; the session owns the layout and scratch for any
    // number of analyses on this topology.
    let mut session = Session::elaborate(parsed)?;
    let op = session.dc_owned()?;
    let result = session.tran_owned(&op, &TranOptions::new(1.2e-9, 1.5e-12))?;
    let circuit = session.circuit();
    let t = result.times();
    let vdd_half = 0.45;

    // Stage-by-stage 50% crossing times for the first input edge.
    let mut t_prev = cross_time(
        t,
        &result.voltages(circuit.find_node("in").expect("in")),
        vdd_half,
        Edge::Rising,
        0.0,
    )
    .expect("input edge");
    for (stage, node) in ["n1", "n2", "out"].iter().enumerate() {
        let v = result.voltages(circuit.find_node(node).expect("stage node"));
        let t_cross = cross_time(t, &v, vdd_half, Edge::Any, t_prev).expect("stage switches");
        println!(
            "stage {}: {} crosses 50% at {:.1} ps (stage delay {:.2} ps)",
            stage + 1,
            node,
            t_cross * 1e12,
            (t_cross - t_prev) * 1e12
        );
        t_prev = t_cross;
    }

    // Supply current integral -> dynamic charge per edge.
    let idd = result.vsource_currents(0);
    let q: f64 = t
        .windows(2)
        .zip(idd.windows(2))
        .map(|(tw, iw)| 0.5 * (iw[0] + iw[1]).abs() * (tw[1] - tw[0]))
        .sum();
    println!("total supply charge over the window: {:.2} fC", q * 1e15);
    Ok(())
}
