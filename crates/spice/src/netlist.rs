//! Netlist construction: nodes, elements, and the circuit builder API.

use crate::elements::Element;
use crate::error::SpiceError;
use crate::waveform::Waveform;
use mosfet::MosfetModel;
use std::collections::HashMap;

/// A circuit node handle. Node 0 is ground.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// Index of this node's voltage among the MNA unknowns, or `None` for
    /// ground — the mapping into raw unknown vectors such as
    /// [`crate::dc::DcResult::raw`] and the solution rows of the
    /// [`crate::ac::Linearized`] matrices.
    #[must_use]
    pub fn unknown(self) -> Option<usize> {
        if self.0 == 0 {
            None
        } else {
            Some(self.0 - 1)
        }
    }
}

/// A circuit under construction: an interned node table plus a list of
/// elements. Analyses ([`crate::dc`], [`crate::tran`]) borrow the circuit
/// immutably, so one netlist can be re-solved cheaply (e.g. in Monte Carlo
/// loops the netlist is rebuilt per sample only because device models
/// change).
#[derive(Debug, Clone)]
pub struct Circuit {
    /// Number of nodes, ground included.
    n_nodes: usize,
    by_name: HashMap<String, NodeId>,
    elements: Vec<Element>,
}

impl Circuit {
    /// The ground node (reference, 0 V).
    pub const GROUND: NodeId = NodeId(0);

    /// Creates an empty circuit (ground pre-registered).
    pub fn new() -> Self {
        let mut c = Circuit {
            n_nodes: 1,
            by_name: HashMap::new(),
            elements: Vec::new(),
        };
        c.by_name.insert("0".to_string(), NodeId(0));
        c.by_name.insert("gnd".to_string(), NodeId(0));
        c
    }

    /// Interns a node by name, creating it on first use.
    pub fn node(&mut self, name: &str) -> NodeId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = NodeId(self.n_nodes);
        self.n_nodes += 1;
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Looks up an existing node by name.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.by_name.get(name).copied()
    }

    /// Number of nodes including ground.
    pub fn node_count(&self) -> usize {
        self.n_nodes
    }

    /// The elements added so far.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Mutable element access for [`crate::session::Session`]'s in-place
    /// device swaps — crate-private so external code cannot invalidate an
    /// elaborated layout.
    pub(crate) fn elements_mut(&mut self) -> &mut [Element] {
        &mut self.elements
    }

    /// The waveform of the voltage source named `name`.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::BadNetlist`] when the source is missing.
    pub fn vsource_waveform(&self, name: &str) -> Result<&Waveform, SpiceError> {
        for e in &self.elements {
            if let Element::Vsource { name: n, wave, .. } = e {
                if n == name {
                    return Ok(wave);
                }
            }
        }
        Err(SpiceError::BadNetlist {
            context: format!("no voltage source named {name}"),
        })
    }

    /// Adds a resistor.
    ///
    /// # Panics
    ///
    /// Panics if `r <= 0`.
    pub fn resistor(&mut self, name: &str, a: NodeId, b: NodeId, r: f64) -> &mut Self {
        assert!(r > 0.0, "resistor {name} must have positive resistance");
        self.elements.push(Element::Resistor {
            name: name.to_string(),
            a,
            b,
            r,
        });
        self
    }

    /// Adds a capacitor.
    ///
    /// # Panics
    ///
    /// Panics if `c <= 0`.
    pub fn capacitor(&mut self, name: &str, a: NodeId, b: NodeId, c: f64) -> &mut Self {
        assert!(c > 0.0, "capacitor {name} must have positive capacitance");
        self.elements.push(Element::Capacitor {
            name: name.to_string(),
            a,
            b,
            c,
        });
        self
    }

    /// Adds an independent voltage source.
    pub fn vsource(&mut self, name: &str, pos: NodeId, neg: NodeId, wave: Waveform) -> &mut Self {
        self.elements.push(Element::Vsource {
            name: name.to_string(),
            pos,
            neg,
            wave,
        });
        self
    }

    /// Adds an independent current source pushing current into `pos`.
    pub fn isource(&mut self, name: &str, pos: NodeId, neg: NodeId, wave: Waveform) -> &mut Self {
        self.elements.push(Element::Isource {
            name: name.to_string(),
            pos,
            neg,
            wave,
        });
        self
    }

    /// Adds a MOSFET with the given compact model instance.
    pub fn mosfet(
        &mut self,
        name: &str,
        d: NodeId,
        g: NodeId,
        s: NodeId,
        b: NodeId,
        model: Box<dyn MosfetModel>,
    ) -> &mut Self {
        self.elements.push(Element::Mosfet {
            name: name.to_string(),
            d,
            g,
            s,
            b,
            model,
        });
        self
    }

    /// Index of the voltage source named `name` among the voltage sources
    /// (its branch-current position), plus a sanity check that it exists.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::BadNetlist`] when the source is missing.
    pub fn vsource_index(&self, name: &str) -> Result<usize, SpiceError> {
        let mut idx = 0;
        for e in &self.elements {
            if let Element::Vsource { name: n, .. } = e {
                if n == name {
                    return Ok(idx);
                }
                idx += 1;
            }
        }
        Err(SpiceError::BadNetlist {
            context: format!("no voltage source named {name}"),
        })
    }

    /// Replaces the waveform of an existing voltage source (used by sweeps
    /// and the setup-time search).
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::BadNetlist`] when the source is missing.
    pub fn set_vsource(&mut self, name: &str, wave: Waveform) -> Result<(), SpiceError> {
        for e in &mut self.elements {
            if let Element::Vsource {
                name: n, wave: w, ..
            } = e
            {
                if n == name {
                    *w = wave;
                    return Ok(());
                }
            }
        }
        Err(SpiceError::BadNetlist {
            context: format!("no voltage source named {name}"),
        })
    }

    /// Number of voltage sources (each contributes one branch unknown).
    pub(crate) fn n_vsources(&self) -> usize {
        self.elements
            .iter()
            .filter(|e| matches!(e, Element::Vsource { .. }))
            .count()
    }

    /// Total number of MNA unknowns: node voltages (minus ground) + branch
    /// currents.
    pub(crate) fn n_unknowns(&self) -> usize {
        (self.node_count() - 1) + self.n_vsources()
    }

    /// Validates the netlist: at least one element must exist.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::BadNetlist`] for empty netlists.
    pub fn validate(&self) -> Result<(), SpiceError> {
        if self.elements.is_empty() {
            return Err(SpiceError::BadNetlist {
                context: "circuit has no elements".into(),
            });
        }
        Ok(())
    }
}

impl Default for Circuit {
    /// [`Circuit::new`]: an empty circuit with ground registered.
    fn default() -> Self {
        Circuit::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_registers_ground() {
        let mut c = Circuit::default();
        let a = c.node("a");
        assert_eq!(a.unknown(), Some(0));
        assert_eq!(c.node_count(), 2);
        assert_eq!(c.node("gnd"), Circuit::GROUND);
    }

    #[test]
    fn node_interning_is_idempotent() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let a2 = c.node("a");
        assert_eq!(a, a2);
        assert_eq!(c.node_count(), 2);
    }

    #[test]
    fn ground_aliases() {
        let mut c = Circuit::new();
        assert_eq!(c.node("0"), Circuit::GROUND);
        assert_eq!(c.node("gnd"), Circuit::GROUND);
        assert_eq!(Circuit::GROUND.unknown(), None);
    }

    #[test]
    fn unknown_indices_skip_ground() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        assert_eq!(a.unknown(), Some(0));
        assert_eq!(b.unknown(), Some(1));
    }

    #[test]
    fn vsource_index_counts_only_vsources() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.resistor("R1", a, Circuit::GROUND, 1.0);
        c.vsource("V1", a, Circuit::GROUND, Waveform::dc(1.0));
        c.vsource("V2", a, Circuit::GROUND, Waveform::dc(2.0));
        assert_eq!(c.vsource_index("V1").unwrap(), 0);
        assert_eq!(c.vsource_index("V2").unwrap(), 1);
        assert!(c.vsource_index("V3").is_err());
        assert_eq!(c.n_vsources(), 2);
        assert_eq!(c.n_unknowns(), 3);
    }

    #[test]
    fn set_vsource_replaces_waveform() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.vsource("V1", a, Circuit::GROUND, Waveform::dc(1.0));
        c.set_vsource("V1", Waveform::dc(2.0)).unwrap();
        if let Element::Vsource { wave, .. } = &c.elements()[0] {
            assert_eq!(wave.value(0.0), 2.0);
        } else {
            panic!("expected vsource");
        }
    }

    #[test]
    fn empty_circuit_fails_validation() {
        assert!(Circuit::new().validate().is_err());
    }

    #[test]
    #[should_panic]
    fn negative_resistance_panics() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.resistor("R1", a, Circuit::GROUND, -1.0);
    }
}
