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

//! # emtrust-layout
//!
//! Physical substrate for the on-chip EM sensor framework: the die, the
//! placement of every cell, and — the paper's key artifact — the
//! **one-way spiral EM sensor** occupying the topmost metal layer plus
//! the **external probe** it is compared against.
//!
//! - [`geometry`] — points, segments and rectangles in micrometres,
//! - [`floorplan`] — die sizing and a deterministic row placer that puts
//!   the AES core in the main region and each Trojan in the east strip
//!   (paper Fig. 3 shows the four Trojans beside the AES), plus the pad
//!   ring (VDD, VSS, `Sensor In`, `Sensor Out`),
//! - [`spiral`] — the on-chip sensor: a square spiral from the die centre
//!   to the corner covering the entire circuit (paper Fig. 2(b)), with the
//!   coil width respecting the technology's minimum-width rule,
//! - [`probe`] — a LANGER-style external probe: several stacked turns of
//!   the same diameter (paper Fig. 2(a)) at package standoff height.
//!
//! Everything downstream (the EM coupling kernels in `emtrust-em`) is
//! computed *from these geometries*, so the on-chip-vs-external SNR gap
//! emerges from physics rather than assumption.

pub mod floorplan;
pub mod geometry;
pub mod probe;
pub mod spiral;

pub use floorplan::{Die, Floorplan, PadKind};
pub use probe::ExternalProbe;
pub use spiral::SpiralSensor;

use std::error::Error;
use std::fmt;

/// Errors produced by the layout substrate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LayoutError {
    /// The die is too small to hold the netlist at the requested
    /// utilization.
    DieTooSmall {
        /// Required core area in µm².
        required_um2: f64,
        /// Available core area in µm².
        available_um2: f64,
    },
    /// A geometric parameter was out of range.
    InvalidParameter {
        /// Description of the violated constraint.
        what: &'static str,
    },
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::DieTooSmall {
                required_um2,
                available_um2,
            } => write!(
                f,
                "die too small: need {required_um2:.0} um2, have {available_um2:.0} um2"
            ),
            LayoutError::InvalidParameter { what } => write!(f, "invalid parameter: {what}"),
        }
    }
}

impl Error for LayoutError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        let e = LayoutError::DieTooSmall {
            required_um2: 100.0,
            available_um2: 50.0,
        };
        assert!(e.to_string().contains("die too small"));
        let e = LayoutError::InvalidParameter { what: "turns" };
        assert!(e.to_string().contains("turns"));
    }
}
