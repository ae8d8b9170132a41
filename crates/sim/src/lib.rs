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

//! # emtrust-sim
//!
//! Cycle-based logic simulation with switching-activity capture for the
//! `emtrust` reproduction of the DAC 2020 on-chip EM sensor paper.
//!
//! The EM side channel is driven by *which cells toggle, and when within
//! the clock cycle*. The simulator therefore does two things:
//!
//! 1. **Functional simulation** — two-phase, cycle-based: on each
//!    [`engine::Simulator::step`] the flip-flops capture their `d` inputs,
//!    then the combinational cloud settles in levelized order. Zero-delay
//!    semantics; glitches below the cycle resolution are not modelled
//!    (documented substitution — the detectors operate on aggregate charge
//!    per transition window, which single-transition-per-cycle preserves).
//!    A netlist compiles once into an [`engine::Program`], which a
//!    simulator runs on [`LANES`] independent lanes per machine word:
//!    up to 64 encryptions at the cost of about one.
//! 2. **Activity capture** — every output toggle of a cycle is handed to
//!    an [`engine::ToggleSink`] as an [`activity::ToggleEvent`], from a
//!    reused scratch buffer; storing the events in an
//!    [`activity::ActivityTrace`] is one such sink. The power model turns
//!    each event into a current pulse at `t = cycle·T + level·τ_gate`.
//!
//! # Examples
//!
//! Simulate a toggle flip-flop for four cycles:
//!
//! ```
//! use emtrust_netlist::graph::Netlist;
//! use emtrust_sim::engine::Simulator;
//!
//! let mut n = Netlist::new("toggle");
//! let (q, d) = n.dff_deferred();
//! let nq = n.not(q);
//! n.connect_dff_d(d, nq);
//! n.mark_output("q", q);
//!
//! let mut sim = Simulator::new(&n)?;
//! sim.settle(); // propagate the initial state through the inverter
//! let mut values = Vec::new();
//! for _ in 0..4 {
//!     sim.step();
//!     values.push(sim.value(q));
//! }
//! assert_eq!(values, [true, false, true, false]);
//! # Ok::<(), emtrust_netlist::NetlistError>(())
//! ```

pub mod activity;
pub mod engine;

pub use activity::{ActivityTrace, CycleActivity, ToggleActivity, ToggleEvent};
pub use engine::{Program, Simulator, ToggleSink, LANES};
