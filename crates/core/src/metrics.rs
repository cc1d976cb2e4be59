//! Electrical performance metrics for statistical extraction.
//!
//! The paper selects `e_i = {Idsat, log10(Ioff), Cgg@Vdd}`: metrics that are
//! near-Gaussian under Gaussian process variations (Section III). `Ioff`
//! itself is lognormal — hence the log — and mid-transition drain currents
//! are excluded altogether.

use mosfet::{Bias, MosfetModel};

/// The three extraction metrics at a given supply voltage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceMetrics {
    /// Saturation drain current magnitude at `|Vgs| = |Vds| = Vdd`, A.
    pub idsat: f64,
    /// `log10` of the off-current magnitude at `Vgs = 0, |Vds| = Vdd`.
    pub log10_ioff: f64,
    /// Gate capacitance `∂Qg/∂Vgs` at `|Vgs| = Vdd, Vds = 0`, F: the exact
    /// partial from [`MosfetModel::eval_charges`].
    pub cgg: f64,
}

impl DeviceMetrics {
    /// Evaluates all three metrics for a model at the given supply.
    pub fn evaluate(model: &dyn MosfetModel, vdd: f64) -> DeviceMetrics {
        let s = model.polarity().sign();
        let idsat = model
            .ids(Bias {
                vgs: s * vdd,
                vds: s * vdd,
                vbs: 0.0,
            })
            .abs();
        let ioff = model
            .ids(Bias {
                vgs: 0.0,
                vds: s * vdd,
                vbs: 0.0,
            })
            .abs()
            .max(1e-30);
        let cgg = model
            .eval_charges(Bias {
                vgs: s * vdd,
                vds: 0.0,
                vbs: 0.0,
            })
            .dq[0][0];
        DeviceMetrics {
            idsat,
            log10_ioff: ioff.log10(),
            cgg,
        }
    }

    /// The metrics as an array in the fixed order `[Idsat, log10 Ioff, Cgg]`.
    pub fn as_array(&self) -> [f64; 3] {
        [self.idsat, self.log10_ioff, self.cgg]
    }

    /// Metric names aligned with [`DeviceMetrics::as_array`].
    pub const NAMES: [&'static str; 3] = ["Idsat", "log10Ioff", "Cgg@Vdd"];
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosfet::{bsim::BsimModel, vs::VsModel, Geometry};

    const VDD: f64 = 0.9;

    #[test]
    fn vs_nmos_metrics_are_physical() {
        let m = VsModel::nominal_nmos_40nm(Geometry::from_nm(600.0, 40.0));
        let e = DeviceMetrics::evaluate(&m, VDD);
        assert!(e.idsat > 1e-5 && e.idsat < 1e-2, "idsat = {}", e.idsat);
        assert!(
            e.log10_ioff < -5.0 && e.log10_ioff > -13.0,
            "ioff = {}",
            e.log10_ioff
        );
        assert!(e.cgg > 1e-17 && e.cgg < 1e-13, "cgg = {}", e.cgg);
    }

    #[test]
    fn pmos_metrics_use_folded_polarity() {
        let m = VsModel::nominal_pmos_40nm(Geometry::from_nm(600.0, 40.0));
        let e = DeviceMetrics::evaluate(&m, VDD);
        assert!(e.idsat > 0.0);
        assert!(e.cgg > 0.0);
    }

    #[test]
    fn kit_and_vs_metrics_same_scale() {
        let g = Geometry::from_nm(600.0, 40.0);
        let vs = DeviceMetrics::evaluate(&VsModel::nominal_nmos_40nm(g), VDD);
        let kit = DeviceMetrics::evaluate(&BsimModel::nominal_nmos_40nm(g), VDD);
        let r = vs.idsat / kit.idsat;
        assert!((0.3..3.0).contains(&r), "Idsat ratio = {r}");
    }

    #[test]
    fn array_round_trip() {
        let m = VsModel::nominal_nmos_40nm(Geometry::from_nm(300.0, 40.0));
        let e = DeviceMetrics::evaluate(&m, VDD);
        let a = e.as_array();
        assert_eq!(a[0], e.idsat);
        assert_eq!(a[1], e.log10_ioff);
        assert_eq!(a[2], e.cgg);
        assert_eq!(DeviceMetrics::NAMES.len(), 3);
    }
}
