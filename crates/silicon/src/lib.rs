#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented
    )
)]

//! # emtrust-silicon
//!
//! The "fabricated chip": everything that separates the paper's Section V
//! (measurements on real 180 nm silicon) from its Section IV
//! (simulation). Since no fab run is reachable from a software
//! reproduction, the measurement-chain non-idealities are modelled
//! explicitly:
//!
//! - [`variation`] — per-chip process variation: every cell's switched
//!   charge and leakage deviates from nominal (die-to-die offset plus
//!   within-die random component),
//! - [`scope`] — the oscilloscope front-end: bandwidth, input-referred
//!   noise (cabling/preamp included) and 8-bit quantization,
//! - [`chip`] — [`chip::FabricatedChip`]: a netlist placed in the
//!   [`chip::reference_design`], carrying both measurement channels
//!   (on-chip sensor through `Sensor In`/`Sensor Out`, external probe over
//!   the package). [`FabricatedChip::fabricate`] gives it one specific
//!   variation draw and oscilloscope front-ends;
//!   [`FabricatedChip::ideal`] is the simulation's die, with neither.
//!
//! The paper's empirical deltas reproduce through these models: the
//! external probe loses several dB going from simulation to silicon
//! (cable/preamp noise against an already weak signal), while the on-chip
//! sensor's SNR is essentially unchanged.

pub mod chip;
pub mod scope;
pub mod variation;

pub use chip::{Channel, FabricatedChip};
pub use scope::Oscilloscope;
pub use variation::ProcessVariation;

use std::error::Error;
use std::fmt;

/// Errors produced by the silicon model.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SiliconError {
    /// A configuration value was out of range.
    InvalidParameter {
        /// Description of the violated constraint.
        what: &'static str,
    },
    /// Forwarded from the EM pipeline.
    Em(emtrust_em::EmError),
    /// Forwarded from the layout substrate.
    Layout(emtrust_layout::LayoutError),
}

impl fmt::Display for SiliconError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SiliconError::InvalidParameter { what } => write!(f, "invalid parameter: {what}"),
            SiliconError::Em(e) => write!(f, "em pipeline: {e}"),
            SiliconError::Layout(e) => write!(f, "layout: {e}"),
        }
    }
}

impl Error for SiliconError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SiliconError::Em(e) => Some(e),
            SiliconError::Layout(e) => Some(e),
            _ => None,
        }
    }
}

impl From<emtrust_em::EmError> for SiliconError {
    fn from(e: emtrust_em::EmError) -> Self {
        SiliconError::Em(e)
    }
}

impl From<emtrust_layout::LayoutError> for SiliconError {
    fn from(e: emtrust_layout::LayoutError) -> Self {
        SiliconError::Layout(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_and_chain() {
        assert!(SiliconError::InvalidParameter { what: "x" }
            .to_string()
            .contains("x"));
        let e: SiliconError = emtrust_em::EmError::InvalidParameter { what: "grid" }.into();
        assert!(e.to_string().contains("em pipeline"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
