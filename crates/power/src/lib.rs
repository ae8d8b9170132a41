//! # emtrust-power
//!
//! Switching activity → transient supply current. This crate is the
//! reproduction's substitute for the paper's Hspice transistor-level
//! transient simulation (§IV-A, method of \[18\]):
//!
//! - every output toggle reported by `emtrust-sim` deposits a charge
//!   impulse `Q = C_eff·V_DD` at `t = cycle·T + (level + ½)·τ_gate` (the
//!   levelized switching time); the toggles of one (cycle, level) are
//!   summed into one charge bin first and deposited once
//!   ([`model::ChargeTable`]),
//! - every flip-flop draws its clock-load charge at each edge (the clock
//!   tree),
//! - a state-independent leakage floor runs underneath, extensible per
//!   cycle (Trojan T2's leakage-current channel injects here),
//! - an optional per-cell **weight vector** lets the EM solver obtain the
//!   flux-weighted current `Σ_c k_c·I_c(t)` in a single pass, without ever
//!   materializing per-cell waveforms.
//!
//! The result is a [`trace::CurrentTrace`]: uniformly sampled current in
//! amperes at `samples_per_cycle × f_clk`.

pub mod model;
pub mod tech;
pub mod trace;

pub use model::{ChargeBins, ChargeTable, CurrentModel};
pub use tech::ClockConfig;
pub use trace::CurrentTrace;

use std::error::Error;
use std::fmt;

/// Errors produced by the power model.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PowerError {
    /// A configuration value was out of range.
    InvalidParameter {
        /// Description of the violated constraint.
        what: &'static str,
    },
    /// A weight or leakage vector had the wrong length.
    LengthMismatch {
        /// Expected length.
        expected: usize,
        /// Supplied length.
        actual: usize,
    },
    /// The netlist could not be levelized into toggle sources.
    Netlist(emtrust_netlist::NetlistError),
}

impl fmt::Display for PowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PowerError::InvalidParameter { what } => write!(f, "invalid parameter: {what}"),
            PowerError::LengthMismatch { expected, actual } => {
                write!(f, "length mismatch: expected {expected}, got {actual}")
            }
            PowerError::Netlist(e) => write!(f, "netlist: {e}"),
        }
    }
}

impl Error for PowerError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PowerError::Netlist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<emtrust_netlist::NetlistError> for PowerError {
    fn from(e: emtrust_netlist::NetlistError) -> Self {
        PowerError::Netlist(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        assert!(PowerError::InvalidParameter { what: "x" }
            .to_string()
            .contains("x"));
        assert!(PowerError::LengthMismatch {
            expected: 1,
            actual: 2
        }
        .to_string()
        .contains("expected 1"));
        let cycle = emtrust_netlist::NetlistError::CombinationalCycle { cell: 3 };
        assert!(PowerError::from(cycle).to_string().contains("cycle"));
    }
}
