//! The netlist graph and its builder-style construction API.
//!
//! A [`Netlist`] is a flat sea of gates with:
//!
//! - **nets** (single-driver wires, optionally named),
//! - **cells** (a [`CellKind`] plus ordered input nets and one output net),
//! - **primary inputs/outputs**, and
//! - **module tags**: every cell carries a [`ModuleId`] naming the
//!   hierarchical block it belongs to (e.g. `aes/sbox_3` or `trojan1`).
//!   Tags drive the Table-I statistics and the placement grouping in
//!   `emtrust-layout`.
//!
//! Construction is done by mutating methods (`input`, `gate`, `dff`, the
//! per-kind helpers) that append to the netlist and return ids, following
//! the builder-pattern guidance for complex values.

use crate::cell::CellKind;
use crate::level::Levels;
use crate::NetlistError;

/// Identifier of a net (wire) within one [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub(crate) u32);

/// Identifier of a cell (gate instance) within one [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub(crate) u32);

/// Identifier of a module tag within one [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModuleId(pub(crate) u32);

impl NetId {
    /// The raw index (stable for the lifetime of the netlist).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl CellId {
    /// The raw index (stable for the lifetime of the netlist).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl ModuleId {
    /// The raw index (stable for the lifetime of the netlist).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What drives a net.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetSource {
    /// Nothing drives the net yet (illegal in a validated netlist).
    Undriven,
    /// A constant logic value.
    Const(bool),
    /// A primary input.
    Input,
    /// The output pin of a cell.
    Cell(CellId),
}

#[derive(Debug, Clone)]
pub(crate) struct Net {
    pub(crate) name: Option<String>,
    pub(crate) source: NetSource,
}

/// A gate instance.
#[derive(Debug, Clone)]
pub struct Cell {
    pub(crate) kind: CellKind,
    pub(crate) inputs: Vec<NetId>,
    pub(crate) output: NetId,
    pub(crate) module: ModuleId,
}

impl Cell {
    /// The gate kind.
    pub fn kind(&self) -> CellKind {
        self.kind
    }

    /// Ordered input nets.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// The output net.
    pub fn output(&self) -> NetId {
        self.output
    }

    /// The module tag the cell belongs to.
    pub fn module(&self) -> ModuleId {
        self.module
    }
}

/// A flat gate-level netlist with module tags.
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    nets: Vec<Net>,
    cells: Vec<Cell>,
    inputs: Vec<(String, NetId)>,
    outputs: Vec<(String, NetId)>,
    modules: Vec<String>,
    module_stack: Vec<ModuleId>,
    const0: NetId,
    const1: NetId,
}

impl Netlist {
    /// Creates an empty netlist named `name`, with constant-0/1 nets
    /// pre-allocated and the root module tag `""`.
    pub fn new(name: impl Into<String>) -> Self {
        let nets = vec![
            Net {
                name: Some("const0".into()),
                source: NetSource::Const(false),
            },
            Net {
                name: Some("const1".into()),
                source: NetSource::Const(true),
            },
        ];
        Self {
            name: name.into(),
            nets,
            cells: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            modules: vec![String::new()],
            module_stack: vec![ModuleId(0)],
            const0: NetId(0),
            const1: NetId(1),
        }
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The constant-false net.
    pub fn const0(&self) -> NetId {
        self.const0
    }

    /// The constant-true net.
    pub fn const1(&self) -> NetId {
        self.const1
    }

    /// A constant net for `value`.
    pub fn constant(&self, value: bool) -> NetId {
        if value {
            self.const1
        } else {
            self.const0
        }
    }

    // ---- module tagging ------------------------------------------------

    /// Enters a sub-module scope: subsequent cells are tagged
    /// `parent/name`. Returns the new tag.
    pub fn push_module(&mut self, name: &str) -> ModuleId {
        let parent = &self.modules[self.module_stack.last().unwrap().index()];
        let full = if parent.is_empty() {
            name.to_string()
        } else {
            format!("{parent}/{name}")
        };
        let id = match self.modules.iter().position(|m| *m == full) {
            Some(i) => ModuleId(i as u32),
            None => {
                self.modules.push(full);
                ModuleId((self.modules.len() - 1) as u32)
            }
        };
        self.module_stack.push(id);
        id
    }

    /// Leaves the current sub-module scope.
    ///
    /// # Panics
    ///
    /// Panics if called more times than [`Netlist::push_module`].
    pub fn pop_module(&mut self) {
        assert!(
            self.module_stack.len() > 1,
            "pop_module without matching push_module"
        );
        self.module_stack.pop();
    }

    /// The currently active module tag.
    pub fn current_module(&self) -> ModuleId {
        *self.module_stack.last().unwrap()
    }

    /// Full path of a module tag.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn module_path(&self, id: ModuleId) -> &str {
        &self.modules[id.index()]
    }

    /// All module tags (index = [`ModuleId`]).
    pub fn module_paths(&self) -> impl Iterator<Item = (ModuleId, &str)> {
        self.modules
            .iter()
            .enumerate()
            .map(|(i, p)| (ModuleId(i as u32), p.as_str()))
    }

    // ---- net / port construction ----------------------------------------

    /// Allocates a fresh unnamed, undriven net (used for forward
    /// references, e.g. feedback through flip-flops).
    pub fn fresh_net(&mut self) -> NetId {
        self.nets.push(Net {
            name: None,
            source: NetSource::Undriven,
        });
        NetId((self.nets.len() - 1) as u32)
    }

    /// Adds a primary input named `name` and returns its net.
    pub fn input(&mut self, name: impl Into<String>) -> NetId {
        let name = name.into();
        self.nets.push(Net {
            name: Some(name.clone()),
            source: NetSource::Input,
        });
        let id = NetId((self.nets.len() - 1) as u32);
        self.inputs.push((name, id));
        id
    }

    /// Adds a bus of `width` primary inputs named `name[i]`, LSB first.
    pub fn input_bus(&mut self, name: &str, width: usize) -> Vec<NetId> {
        (0..width)
            .map(|i| self.input(format!("{name}[{i}]")))
            .collect()
    }

    /// Marks `net` as the primary output `name`.
    pub fn mark_output(&mut self, name: impl Into<String>, net: NetId) {
        self.outputs.push((name.into(), net));
    }

    /// Marks a bus of primary outputs named `name[i]`, LSB first.
    pub fn mark_output_bus(&mut self, name: &str, nets: &[NetId]) {
        for (i, &n) in nets.iter().enumerate() {
            self.mark_output(format!("{name}[{i}]"), n);
        }
    }

    // ---- gate construction ----------------------------------------------

    /// Appends a gate of `kind` over `inputs`, returning its output net.
    ///
    /// # Errors
    ///
    /// - [`NetlistError::ArityMismatch`] if `inputs.len() != kind.arity()`,
    /// - [`NetlistError::UnknownNet`] if any input id is out of range.
    pub fn try_gate(&mut self, kind: CellKind, inputs: &[NetId]) -> Result<NetId, NetlistError> {
        if inputs.len() != kind.arity() {
            return Err(NetlistError::ArityMismatch {
                kind,
                expected: kind.arity(),
                actual: inputs.len(),
            });
        }
        for &i in inputs {
            if i.index() >= self.nets.len() {
                return Err(NetlistError::UnknownNet { net: i.0 });
            }
        }
        let out = self.fresh_net();
        let cell_id = CellId(self.cells.len() as u32);
        self.cells.push(Cell {
            kind,
            inputs: inputs.to_vec(),
            output: out,
            module: self.current_module(),
        });
        self.nets[out.index()].source = NetSource::Cell(cell_id);
        Ok(out)
    }

    /// Appends a gate, panicking on misuse (the ergonomic path for
    /// generators whose arity is statically correct).
    ///
    /// # Panics
    ///
    /// Panics on the conditions [`Netlist::try_gate`] reports as errors.
    pub fn gate(&mut self, kind: CellKind, inputs: &[NetId]) -> NetId {
        self.try_gate(kind, inputs)
            .expect("invalid gate construction")
    }

    /// Inverter.
    pub fn not(&mut self, a: NetId) -> NetId {
        self.gate(CellKind::Inv, &[a])
    }

    /// Buffer.
    pub fn buf(&mut self, a: NetId) -> NetId {
        self.gate(CellKind::Buf, &[a])
    }

    /// 2-input AND.
    pub fn and2(&mut self, a: NetId, b: NetId) -> NetId {
        self.gate(CellKind::And2, &[a, b])
    }

    /// 2-input NAND.
    pub fn nand2(&mut self, a: NetId, b: NetId) -> NetId {
        self.gate(CellKind::Nand2, &[a, b])
    }

    /// 2-input OR.
    pub fn or2(&mut self, a: NetId, b: NetId) -> NetId {
        self.gate(CellKind::Or2, &[a, b])
    }

    /// 2-input NOR.
    pub fn nor2(&mut self, a: NetId, b: NetId) -> NetId {
        self.gate(CellKind::Nor2, &[a, b])
    }

    /// 2-input XOR.
    pub fn xor2(&mut self, a: NetId, b: NetId) -> NetId {
        self.gate(CellKind::Xor2, &[a, b])
    }

    /// 2-input XNOR.
    pub fn xnor2(&mut self, a: NetId, b: NetId) -> NetId {
        self.gate(CellKind::Xnor2, &[a, b])
    }

    /// 2:1 mux: `sel ? d1 : d0`.
    pub fn mux2(&mut self, d0: NetId, d1: NetId, sel: NetId) -> NetId {
        self.gate(CellKind::Mux2, &[d0, d1, sel])
    }

    /// Rising-edge D flip-flop; returns `q`.
    pub fn dff(&mut self, d: NetId) -> NetId {
        self.gate(CellKind::Dff, &[d])
    }

    /// A flip-flop whose `d` is supplied later via
    /// [`Netlist::connect_dff_d`]; returns `(q, placeholder_d)`.
    ///
    /// Needed for feedback (state machines, LFSRs) where `d` depends on `q`.
    pub fn dff_deferred(&mut self) -> (NetId, DeferredD) {
        let placeholder = self.fresh_net();
        let q = self.gate(CellKind::Dff, &[placeholder]);
        let cell = match self.nets[q.index()].source {
            NetSource::Cell(c) => c,
            _ => unreachable!("dff output must be cell-driven"),
        };
        (q, DeferredD { cell })
    }

    /// Resolves a deferred flip-flop input to `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is out of range.
    pub fn connect_dff_d(&mut self, deferred: DeferredD, d: NetId) {
        assert!(d.index() < self.nets.len(), "unknown net");
        self.cells[deferred.cell.index()].inputs[0] = d;
    }

    /// Rewires input pin `pin` of `cell` to `net`.
    ///
    /// This is the netlist-editing primitive hardware-Trojan insertion
    /// uses: tap an existing wire, route it through malicious logic, and
    /// reconnect. Note that careless rewiring can create combinational
    /// cycles; [`Netlist::validate`] will catch them.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownNet`] if `net` is out of range, or
    /// [`NetlistError::ArityMismatch`] if `pin` exceeds the cell's arity.
    pub fn rewire_input(
        &mut self,
        cell: CellId,
        pin: usize,
        net: NetId,
    ) -> Result<(), NetlistError> {
        if net.index() >= self.nets.len() {
            return Err(NetlistError::UnknownNet { net: net.0 });
        }
        let kind = self.cells[cell.index()].kind;
        if pin >= kind.arity() {
            return Err(NetlistError::ArityMismatch {
                kind,
                expected: kind.arity(),
                actual: pin + 1,
            });
        }
        self.cells[cell.index()].inputs[pin] = net;
        Ok(())
    }

    /// Reduces a slice of nets with XOR (balanced tree). Returns `const0`
    /// for an empty slice.
    pub fn xor_many(&mut self, nets: &[NetId]) -> NetId {
        self.reduce_tree(nets, Self::xor2, self.const0)
    }

    /// Reduces a slice of nets with OR (balanced tree). Returns `const0`
    /// for an empty slice.
    pub fn or_many(&mut self, nets: &[NetId]) -> NetId {
        self.reduce_tree(nets, Self::or2, self.const0)
    }

    /// Reduces a slice of nets with AND (balanced tree). Returns `const1`
    /// for an empty slice.
    pub fn and_many(&mut self, nets: &[NetId]) -> NetId {
        self.reduce_tree(nets, Self::and2, self.const1)
    }

    fn reduce_tree(
        &mut self,
        nets: &[NetId],
        op: fn(&mut Self, NetId, NetId) -> NetId,
        empty: NetId,
    ) -> NetId {
        match nets {
            [] => empty,
            [one] => *one,
            _ => {
                let mut layer = nets.to_vec();
                while layer.len() > 1 {
                    let mut next = Vec::with_capacity(layer.len().div_ceil(2));
                    for pair in layer.chunks(2) {
                        next.push(if pair.len() == 2 {
                            op(self, pair[0], pair[1])
                        } else {
                            pair[0]
                        });
                    }
                    layer = next;
                }
                layer[0]
            }
        }
    }

    // ---- inspection ------------------------------------------------------

    /// Number of cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Number of nets (including the two constants).
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Primary inputs as `(name, net)` pairs, in declaration order.
    pub fn primary_inputs(&self) -> &[(String, NetId)] {
        &self.inputs
    }

    /// Primary outputs as `(name, net)` pairs, in declaration order.
    pub fn primary_outputs(&self) -> &[(String, NetId)] {
        &self.outputs
    }

    /// The cell with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// Iterates over all cells with their ids.
    pub fn cells(&self) -> impl Iterator<Item = (CellId, &Cell)> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| (CellId(i as u32), c))
    }

    /// The driver of `net`.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    pub fn net_source(&self, net: NetId) -> &NetSource {
        &self.nets[net.index()].source
    }

    /// The optional name of `net`.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    pub fn net_name(&self, net: NetId) -> Option<&str> {
        self.nets[net.index()].name.as_deref()
    }

    /// Counts cells of a particular kind.
    pub fn count_kind(&self, kind: CellKind) -> usize {
        self.cells.iter().filter(|c| c.kind == kind).count()
    }

    /// Validates structural sanity: every cell input driven, no
    /// combinational cycles, all primary outputs driven. Returns the
    /// levelization the cycle check computed, so a caller that needs an
    /// evaluation order does not levelize twice.
    ///
    /// # Errors
    ///
    /// - [`NetlistError::UndrivenNet`] for a floating cell input or output
    ///   port,
    /// - [`NetlistError::CombinationalCycle`] if levelization fails.
    pub fn validate(&self) -> Result<Levels, NetlistError> {
        for cell in &self.cells {
            for &i in &cell.inputs {
                if matches!(self.nets[i.index()].source, NetSource::Undriven) {
                    return Err(NetlistError::UndrivenNet {
                        net: i.0,
                        name: self.nets[i.index()].name.clone(),
                    });
                }
            }
        }
        for (_, net) in &self.outputs {
            if matches!(self.nets[net.index()].source, NetSource::Undriven) {
                return Err(NetlistError::UndrivenNet {
                    net: net.0,
                    name: self.nets[net.index()].name.clone(),
                });
            }
        }
        crate::level::levelize(self)
    }
}

/// Token for a flip-flop created with [`Netlist::dff_deferred`] whose data
/// input is still unresolved.
#[derive(Debug)]
#[must_use = "a deferred flip-flop input must be connected"]
pub struct DeferredD {
    pub(crate) cell: CellId,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_exist_up_front() {
        let n = Netlist::new("t");
        assert_eq!(n.net_source(n.const0()), &NetSource::Const(false));
        assert_eq!(n.net_source(n.const1()), &NetSource::Const(true));
        assert_eq!(n.constant(true), n.const1());
    }

    #[test]
    fn build_and_count() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let b = n.input("b");
        let x = n.xor2(a, b);
        n.mark_output("x", x);
        assert_eq!(n.cell_count(), 1);
        assert_eq!(n.primary_inputs().len(), 2);
        assert_eq!(n.primary_outputs().len(), 1);
        assert!(n.validate().is_ok());
    }

    #[test]
    fn arity_is_checked() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        assert!(matches!(
            n.try_gate(CellKind::And2, &[a]),
            Err(NetlistError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn unknown_net_is_rejected() {
        let mut n = Netlist::new("t");
        let bogus = NetId(999);
        assert!(matches!(
            n.try_gate(CellKind::Inv, &[bogus]),
            Err(NetlistError::UnknownNet { net: 999 })
        ));
    }

    #[test]
    fn undriven_input_fails_validation() {
        let mut n = Netlist::new("t");
        let floating = n.fresh_net();
        let _ = n.not(floating);
        assert!(matches!(
            n.validate(),
            Err(NetlistError::UndrivenNet { .. })
        ));
    }

    #[test]
    fn deferred_dff_enables_feedback() {
        // A 1-bit toggle: q' = !q.
        let mut n = Netlist::new("toggle");
        let (q, d) = n.dff_deferred();
        let nq = n.not(q);
        n.connect_dff_d(d, nq);
        n.mark_output("q", q);
        assert!(n.validate().is_ok());
    }

    #[test]
    fn module_tags_nest() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        n.push_module("aes");
        n.push_module("sbox");
        let x = n.not(a);
        n.pop_module();
        let y = n.not(x);
        n.pop_module();
        let z = n.not(y);
        let cells: Vec<_> = n.cells().map(|(_, c)| c.module()).collect();
        assert_eq!(n.module_path(cells[0]), "aes/sbox");
        assert_eq!(n.module_path(cells[1]), "aes");
        assert_eq!(n.module_path(cells[2]), "");
        let _ = z;
    }

    #[test]
    fn pushing_same_module_twice_reuses_tag() {
        let mut n = Netlist::new("t");
        let m1 = n.push_module("x");
        n.pop_module();
        let m2 = n.push_module("x");
        n.pop_module();
        assert_eq!(m1, m2);
    }

    #[test]
    #[should_panic(expected = "pop_module")]
    fn pop_root_module_panics() {
        let mut n = Netlist::new("t");
        n.pop_module();
    }

    #[test]
    fn reduce_trees() {
        let mut n = Netlist::new("t");
        let bus = n.input_bus("a", 5);
        let x = n.xor_many(&bus);
        let o = n.or_many(&bus);
        let a = n.and_many(&bus);
        n.mark_output("x", x);
        n.mark_output("o", o);
        n.mark_output("a", a);
        assert_eq!(n.count_kind(CellKind::Xor2), 4);
        assert_eq!(n.count_kind(CellKind::Or2), 4);
        assert_eq!(n.count_kind(CellKind::And2), 4);
        assert!(n.validate().is_ok());
    }

    #[test]
    fn empty_reductions_give_identities() {
        let mut n = Netlist::new("t");
        assert_eq!(n.xor_many(&[]), n.const0());
        assert_eq!(n.or_many(&[]), n.const0());
        assert_eq!(n.and_many(&[]), n.const1());
    }

    #[test]
    fn single_net_reduction_is_identity() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        assert_eq!(n.xor_many(&[a]), a);
        assert_eq!(n.cell_count(), 0);
    }

    #[test]
    fn input_bus_names_are_indexed() {
        let mut n = Netlist::new("t");
        let bus = n.input_bus("d", 3);
        assert_eq!(n.net_name(bus[0]), Some("d[0]"));
        assert_eq!(n.net_name(bus[2]), Some("d[2]"));
    }
}
