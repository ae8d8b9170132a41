//! # emtrust-netlist
//!
//! Gate-level netlist substrate for the `emtrust` reproduction of
//! *"Runtime Trust Evaluation and Hardware Trojan Detection Using On-Chip
//! EM Sensors"* (DAC 2020).
//!
//! The paper's device under test is a synthesized 180 nm AES-128 netlist
//! carrying four hardware Trojans. This crate provides everything needed to
//! build and reason about such netlists without a vendor flow:
//!
//! - [`cell`] — the gate vocabulary ([`cell::CellKind`]) and its boolean
//!   semantics,
//! - [`library`] — a 180 nm-class electrical characterization (effective
//!   capacitance, leakage, area) per gate, consumed by the power model,
//! - [`graph`] — the [`graph::Netlist`] itself: nets, cells, ports, module
//!   tags, and a builder-style construction API,
//! - [`level`] — topological levelization (combinational depth per cell,
//!   cycle detection); the depth staggers switching times in the power
//!   model,
//! - [`stats`] — gate-count statistics per module (regenerates paper
//!   Table I),
//! - [`synth`] — a from-scratch combinational synthesizer (truth table →
//!   reduced ordered BDD → MUX2 netlist) used to emit the AES S-box.
//!
//! # Examples
//!
//! Build a tiny majority gate and count its cells:
//!
//! ```
//! use emtrust_netlist::graph::Netlist;
//! use emtrust_netlist::cell::CellKind;
//!
//! let mut n = Netlist::new("majority");
//! let a = n.input("a");
//! let b = n.input("b");
//! let c = n.input("c");
//! let ab = n.and2(a, b);
//! let bc = n.and2(b, c);
//! let ca = n.and2(c, a);
//! let t = n.or2(ab, bc);
//! let m = n.or2(t, ca);
//! n.mark_output("m", m);
//! assert_eq!(n.cell_count(), 5);
//! assert_eq!(n.count_kind(CellKind::And2), 3);
//! ```

pub mod cell;
pub mod graph;
pub mod level;
pub mod library;
pub mod stats;
pub mod synth;

pub use cell::CellKind;
pub use graph::{CellId, ModuleId, NetId, Netlist};

use std::error::Error;
use std::fmt;

/// Errors produced while constructing or analyzing netlists.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetlistError {
    /// A gate was given the wrong number of input nets.
    ArityMismatch {
        /// The gate kind.
        kind: CellKind,
        /// Inputs the kind requires.
        expected: usize,
        /// Inputs actually supplied.
        actual: usize,
    },
    /// A net id does not exist in this netlist.
    UnknownNet {
        /// The offending id (raw index).
        net: u32,
    },
    /// A net used as a cell input has no driver.
    UndrivenNet {
        /// The offending id (raw index).
        net: u32,
        /// Net name if one was assigned.
        name: Option<String>,
    },
    /// The combinational logic contains a cycle (levelization failed).
    CombinationalCycle {
        /// A cell known to participate in the cycle (raw index).
        cell: u32,
    },
    /// A truth table had an inconsistent or unsupported shape.
    BadTruthTable {
        /// Human-readable description of the violation.
        what: &'static str,
    },
    /// A module path or primary port name was reused.
    DuplicateName {
        /// The conflicting name.
        name: String,
    },
    /// An evaluation order put a cell below the level of the one before
    /// it, so the levels would not form one run each.
    DecreasingLevel {
        /// The offending cell (raw index).
        cell: u32,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::ArityMismatch {
                kind,
                expected,
                actual,
            } => write!(
                f,
                "gate {kind:?} takes {expected} inputs but {actual} were supplied"
            ),
            NetlistError::UnknownNet { net } => write!(f, "net #{net} does not exist"),
            NetlistError::UndrivenNet { net, name } => match name {
                Some(n) => write!(f, "net #{net} ({n}) has no driver"),
                None => write!(f, "net #{net} has no driver"),
            },
            NetlistError::CombinationalCycle { cell } => {
                write!(f, "combinational cycle through cell #{cell}")
            }
            NetlistError::BadTruthTable { what } => write!(f, "bad truth table: {what}"),
            NetlistError::DuplicateName { name } => {
                write!(f, "name {name:?} is already in use")
            }
            NetlistError::DecreasingLevel { cell } => {
                write!(f, "cell #{cell} is evaluated after a deeper cell")
            }
        }
    }
}

impl Error for NetlistError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_nonempty() {
        let errors = [
            NetlistError::ArityMismatch {
                kind: CellKind::And2,
                expected: 2,
                actual: 3,
            },
            NetlistError::UnknownNet { net: 7 },
            NetlistError::UndrivenNet {
                net: 3,
                name: Some("x".into()),
            },
            NetlistError::UndrivenNet { net: 3, name: None },
            NetlistError::CombinationalCycle { cell: 1 },
            NetlistError::BadTruthTable { what: "empty" },
            NetlistError::DuplicateName { name: "clk".into() },
            NetlistError::DecreasingLevel { cell: 4 },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NetlistError>();
    }
}
