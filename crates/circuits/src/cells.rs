//! Standard-cell primitives and the device factory abstraction.

use mosfet::{bsim::BsimModel, vs::VsModel, Geometry, MosfetModel, Polarity};
use spice::{Circuit, NodeId, Session};

/// Supplies MOSFET model instances while a netlist is being built.
///
/// Monte Carlo loops implement this with a sampling factory that draws a
/// fresh [`mosfet::VariationDelta`] per device; the nominal factories below
/// return unperturbed devices. Taking `&mut self` lets sampling factories
/// advance their RNG per instance.
pub trait DeviceFactory {
    /// Creates an NMOS instance of the given geometry.
    fn nmos(&mut self, geom: Geometry) -> Box<dyn MosfetModel>;
    /// Creates a PMOS instance of the given geometry.
    fn pmos(&mut self, geom: Geometry) -> Box<dyn MosfetModel>;
    /// Short family label for reports ("vs", "bsim").
    fn family(&self) -> &'static str;
}

/// Factory producing nominal (mismatch-free) Virtual Source devices.
#[derive(Debug, Clone, Default)]
pub struct NominalVsFactory;

impl DeviceFactory for NominalVsFactory {
    fn nmos(&mut self, geom: Geometry) -> Box<dyn MosfetModel> {
        Box::new(VsModel::nominal_nmos_40nm(geom))
    }

    fn pmos(&mut self, geom: Geometry) -> Box<dyn MosfetModel> {
        Box::new(VsModel::nominal_pmos_40nm(geom))
    }

    fn family(&self) -> &'static str {
        "vs"
    }
}

/// Factory producing nominal devices from the BSIM-like golden kit.
#[derive(Debug, Clone, Default)]
pub struct NominalBsimFactory;

impl DeviceFactory for NominalBsimFactory {
    fn nmos(&mut self, geom: Geometry) -> Box<dyn MosfetModel> {
        Box::new(BsimModel::nominal_nmos_40nm(geom))
    }

    fn pmos(&mut self, geom: Geometry) -> Box<dyn MosfetModel> {
        Box::new(BsimModel::nominal_pmos_40nm(geom))
    }

    fn family(&self) -> &'static str {
        "bsim"
    }
}

/// Test factory: VS devices with the paper's Table II Pelgrom mismatch,
/// drawn from one seeded stream.
#[cfg(test)]
pub(crate) struct VsMismatch(pub(crate) stats::Sampler);

#[cfg(test)]
impl VsMismatch {
    fn draw(
        &mut self,
        params: mosfet::vs::VsParams,
        polarity: Polarity,
        geom: Geometry,
    ) -> Box<dyn MosfetModel> {
        let spec = mosfet::MismatchSpec::from_paper_units(2.3, 3.71, 3.71, 944.0, 0.29);
        let delta = spec.sample(geom, || self.0.standard_normal());
        Box::new(VsModel::with_variation(params, polarity, geom, delta))
    }
}

#[cfg(test)]
impl DeviceFactory for VsMismatch {
    fn nmos(&mut self, geom: Geometry) -> Box<dyn MosfetModel> {
        self.draw(mosfet::vs::VsParams::nmos_40nm(), Polarity::Nmos, geom)
    }

    fn pmos(&mut self, geom: Geometry) -> Box<dyn MosfetModel> {
        self.draw(mosfet::vs::VsParams::pmos_40nm(), Polarity::Pmos, geom)
    }

    fn family(&self) -> &'static str {
        "vs"
    }
}

/// PMOS/NMOS widths and channel length of an inverter (or gate), in meters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InverterSizing {
    /// PMOS width, m.
    pub wp: f64,
    /// NMOS width, m.
    pub wn: f64,
    /// Channel length, m.
    pub l: f64,
}

impl InverterSizing {
    /// Sizing from nanometer dimensions.
    pub fn from_nm(wp: f64, wn: f64, l: f64) -> Self {
        InverterSizing {
            wp: wp * 1e-9,
            wn: wn * 1e-9,
            l: l * 1e-9,
        }
    }

    /// The paper's Fig. 5 sizes: P/N = 300/150, 600/300, 1200/600 at L=40 nm.
    pub fn paper_fig5_sizes() -> [InverterSizing; 3] {
        [
            InverterSizing::from_nm(300.0, 150.0, 40.0),
            InverterSizing::from_nm(600.0, 300.0, 40.0),
            InverterSizing::from_nm(1200.0, 600.0, 40.0),
        ]
    }

    /// Scales both widths by a factor.
    pub fn scaled(&self, k: f64) -> InverterSizing {
        InverterSizing {
            wp: self.wp * k,
            wn: self.wn * k,
            l: self.l,
        }
    }
}

/// Resamples every MOSFET of an elaborated session from a device factory,
/// preserving each instance's polarity and geometry — the Monte Carlo inner
/// loop: one elaboration, thousands of in-place device swaps.
///
/// Returns the number of devices swapped.
pub fn resample_devices(session: &mut Session, f: &mut dyn DeviceFactory) -> usize {
    session.swap_all_mosfets(|_, old| match old.polarity() {
        Polarity::Nmos => f.nmos(old.geometry()),
        Polarity::Pmos => f.pmos(old.geometry()),
    })
}

/// Adds a CMOS inverter. Bulk terminals tie to the rails.
pub fn add_inverter(
    c: &mut Circuit,
    name: &str,
    input: NodeId,
    output: NodeId,
    vdd: NodeId,
    sz: InverterSizing,
    f: &mut dyn DeviceFactory,
) {
    c.mosfet(
        &format!("{name}.MP"),
        output,
        input,
        vdd,
        vdd,
        f.pmos(Geometry::new(sz.wp, sz.l)),
    );
    c.mosfet(
        &format!("{name}.MN"),
        output,
        input,
        Circuit::GROUND,
        Circuit::GROUND,
        f.nmos(Geometry::new(sz.wn, sz.l)),
    );
}

/// Adds a 2-input CMOS NAND gate (series NMOS stack `a` above `b`,
/// parallel PMOS). The internal stack node is interned as `{name}.x`.
pub fn add_nand2(
    c: &mut Circuit,
    name: &str,
    a: NodeId,
    b: NodeId,
    output: NodeId,
    vdd: NodeId,
    sz: InverterSizing,
    f: &mut dyn DeviceFactory,
) {
    let x = c.node(&format!("{name}.x"));
    c.mosfet(
        &format!("{name}.MPA"),
        output,
        a,
        vdd,
        vdd,
        f.pmos(Geometry::new(sz.wp, sz.l)),
    );
    c.mosfet(
        &format!("{name}.MPB"),
        output,
        b,
        vdd,
        vdd,
        f.pmos(Geometry::new(sz.wp, sz.l)),
    );
    c.mosfet(
        &format!("{name}.MNA"),
        output,
        a,
        x,
        Circuit::GROUND,
        f.nmos(Geometry::new(sz.wn, sz.l)),
    );
    c.mosfet(
        &format!("{name}.MNB"),
        x,
        b,
        Circuit::GROUND,
        Circuit::GROUND,
        f.nmos(Geometry::new(sz.wn, sz.l)),
    );
}

/// Adds an NMOS pass transistor (used by the DFF benchmark).
pub fn add_pass_nmos(
    c: &mut Circuit,
    name: &str,
    from: NodeId,
    to: NodeId,
    gate: NodeId,
    w: f64,
    l: f64,
    f: &mut dyn DeviceFactory,
) {
    c.mosfet(
        name,
        from,
        gate,
        to,
        Circuit::GROUND,
        f.nmos(Geometry::new(w, l)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use spice::Waveform;

    const VDD: f64 = 0.9;

    #[test]
    fn inverter_inverts() {
        let mut f = NominalVsFactory;
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vin = c.node("in");
        let out = c.node("out");
        c.vsource("VDD", vdd, Circuit::GROUND, Waveform::dc(VDD));
        c.vsource("VIN", vin, Circuit::GROUND, Waveform::dc(0.0));
        add_inverter(
            &mut c,
            "X1",
            vin,
            out,
            vdd,
            InverterSizing::from_nm(600.0, 300.0, 40.0),
            &mut f,
        );
        let mut s = Session::elaborate(c).unwrap();
        let lo = s.dc_owned().unwrap().voltage(out);
        assert!(lo > 0.95 * VDD);
        s.set_source("VIN", Waveform::dc(VDD)).unwrap();
        let hi = s.dc_owned().unwrap().voltage(out);
        assert!(hi < 0.05 * VDD);
    }

    #[test]
    fn nand2_truth_table() {
        let mut f = NominalBsimFactory;
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let a = c.node("a");
        let b = c.node("b");
        let out = c.node("out");
        c.vsource("VDD", vdd, Circuit::GROUND, Waveform::dc(VDD));
        c.vsource("VA", a, Circuit::GROUND, Waveform::dc(0.0));
        c.vsource("VB", b, Circuit::GROUND, Waveform::dc(0.0));
        add_nand2(
            &mut c,
            "X1",
            a,
            b,
            out,
            vdd,
            InverterSizing::from_nm(300.0, 300.0, 40.0),
            &mut f,
        );
        let mut s = Session::elaborate(c).unwrap();
        for (va, vb, expect_high) in [
            (0.0, 0.0, true),
            (VDD, 0.0, true),
            (0.0, VDD, true),
            (VDD, VDD, false),
        ] {
            s.set_source("VA", Waveform::dc(va)).unwrap();
            s.set_source("VB", Waveform::dc(vb)).unwrap();
            let v = s.dc_owned().unwrap().voltage(out);
            if expect_high {
                assert!(v > 0.9 * VDD, "a={va}, b={vb}: out = {v}");
            } else {
                assert!(v < 0.1 * VDD, "a={va}, b={vb}: out = {v}");
            }
        }
    }

    #[test]
    fn pass_nmos_degrades_high_level_dynamically() {
        // Charging a capacitor through an NMOS pass stalls near Vdd - VT on
        // circuit timescales (subthreshold conduction would close the rest
        // of the gap only after microseconds).
        let mut f = NominalVsFactory;
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let src = c.node("src");
        let dst = c.node("dst");
        c.vsource("VDD", vdd, Circuit::GROUND, Waveform::dc(VDD));
        c.vsource(
            "VS",
            src,
            Circuit::GROUND,
            Waveform::step(0.0, VDD, 0.05e-9, 10e-12),
        );
        add_pass_nmos(&mut c, "MP1", src, dst, vdd, 300e-9, 40e-9, &mut f);
        c.capacitor("CL", dst, Circuit::GROUND, 5e-15);
        let mut s = Session::elaborate(c).unwrap();
        let op = s.dc_owned().unwrap();
        let res = s
            .tran_owned(&op, &spice::TranOptions::new(2e-9, 4e-12))
            .unwrap();
        let v = *res.voltages(dst).last().unwrap();
        assert!(v > 0.25 && v < VDD - 0.15, "degraded high = {v}");
    }

    #[test]
    fn resample_preserves_polarity_and_geometry() {
        let mut f = NominalVsFactory;
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vin = c.node("in");
        let out = c.node("out");
        c.vsource("VDD", vdd, Circuit::GROUND, Waveform::dc(VDD));
        c.vsource("VIN", vin, Circuit::GROUND, Waveform::dc(0.0));
        add_inverter(
            &mut c,
            "X1",
            vin,
            out,
            vdd,
            InverterSizing::from_nm(600.0, 300.0, 40.0),
            &mut f,
        );
        let mut s = Session::elaborate(c).unwrap();
        // Resample into the other model family: polarity/geometry carry over.
        let n = resample_devices(&mut s, &mut NominalBsimFactory);
        assert_eq!(n, 2);
        for e in s.circuit().elements() {
            if let spice::elements::Element::Mosfet { model, .. } = e {
                assert_eq!(model.name(), "bsim");
                assert!(model.geometry().l_nm() > 39.0);
            }
        }
        // The swapped netlist still inverts.
        let lo = s.dc_owned().unwrap().voltage(out);
        assert!(lo > 0.95 * VDD);
    }

    #[test]
    fn fig5_sizes_match_paper() {
        let s = InverterSizing::paper_fig5_sizes();
        assert!((s[0].wp - 300e-9).abs() < 1e-15);
        assert!((s[1].wn - 300e-9).abs() < 1e-15);
        assert!((s[2].wp - 1200e-9).abs() < 1e-15);
        let scaled = s[0].scaled(2.0);
        assert!((scaled.wp - 600e-9).abs() < 1e-15);
        assert_eq!(scaled.l, s[0].l);
    }

    #[test]
    fn factories_report_family() {
        assert_eq!(NominalVsFactory.family(), "vs");
        assert_eq!(NominalBsimFactory.family(), "bsim");
    }
}
