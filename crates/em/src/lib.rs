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

//! # emtrust-em
//!
//! The electromagnetic solver of the reproduction — the substitute for the
//! paper's layout-level EM simulation flow (reference \[18\]: transient currents on the
//! extracted current-distribution network → field computation → induced
//! electromotive force on each probe).
//!
//! Physics pipeline:
//!
//! 1. Every standard cell is a small vertical current loop (its supply
//!    loop); at coil distances it acts as a **magnetic dipole** whose
//!    moment is proportional to the cell's instantaneous current
//!    ([`dipole`]).
//! 2. For a coil (the on-chip spiral or the external probe), the **mutual
//!    inductance** `M(x, y)` between a dipole at a die position and the
//!    whole coil is the sum over turns of the vector-potential line
//!    integral `∮ A·dl` — computed once per die position into a
//!    [`coupling::CouplingMap`].
//! 3. Faraday's law: `emf(t) = −d/dt Σ_cells M(x_c, y_c)·I_c(t)`. The
//!    weighted sum is produced in one pass by `emtrust-power`'s weighted
//!    synthesis; [`emf`] differentiates it ([`emf::VoltageTrace`]).
//! 4. [`noise`] adds the environment noise each probe sees (the external
//!    probe is "inevitably disturbed by environmental noises […] while the
//!    proposed on-chip EM sensor is less affected", §IV-B), and [`snr`]
//!    evaluates Eq. 2/Eq. 3.
//!
//! [`pipeline::EmSensor`] wires the full chain together for a placed
//! netlist and a coil. [`EmSensor::new`] is the one constructor that
//! compiles the design's charge table; every other coil over the same
//! design (a die's external probe, an array's later tiles) comes from
//! [`EmSensor::for_coil`], which reweights that table.

pub mod array;
pub mod coil;
pub mod coupling;
pub mod dipole;
pub mod emf;
pub mod noise;
pub mod pipeline;
pub mod snr;

pub use array::{EmArray, EmTile};
pub use coil::Coil;
pub use coupling::CouplingMap;
pub use emf::VoltageTrace;
pub use noise::NoiseModel;
pub use pipeline::EmSensor;

use std::error::Error;
use std::fmt;

/// Errors produced by the EM solver.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EmError {
    /// A geometric or numeric parameter was out of range.
    InvalidParameter {
        /// Description of the violated constraint.
        what: &'static str,
    },
    /// Forwarded error from the power model.
    Power(emtrust_power::PowerError),
    /// Forwarded error from the layout substrate.
    Layout(emtrust_layout::LayoutError),
}

impl fmt::Display for EmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmError::InvalidParameter { what } => write!(f, "invalid parameter: {what}"),
            EmError::Power(e) => write!(f, "power model: {e}"),
            EmError::Layout(e) => write!(f, "layout: {e}"),
        }
    }
}

impl Error for EmError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EmError::Power(e) => Some(e),
            EmError::Layout(e) => Some(e),
            _ => None,
        }
    }
}

impl From<emtrust_power::PowerError> for EmError {
    fn from(e: emtrust_power::PowerError) -> Self {
        EmError::Power(e)
    }
}

impl From<emtrust_layout::LayoutError> for EmError {
    fn from(e: emtrust_layout::LayoutError) -> Self {
        EmError::Layout(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_and_chain() {
        let e = EmError::InvalidParameter { what: "grid" };
        assert!(e.to_string().contains("grid"));
        let e: EmError = emtrust_power::PowerError::InvalidParameter { what: "x" }.into();
        assert!(e.to_string().contains("power model"));
        assert!(std::error::Error::source(&e).is_some());
        let e: EmError = emtrust_layout::LayoutError::InvalidParameter { what: "y" }.into();
        assert!(e.to_string().contains("layout"));
    }
}
