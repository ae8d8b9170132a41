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
//! 2. **Activity capture** — each clock edge hands the toggles of every
//!    live lane at once to the one sink of
//!    [`engine::Simulator::step_words`] as [`engine::ToggleWords`]: per
//!    lane and word of 64 sources (the program's [`engine::Sources`]:
//!    flip-flops, then gates in evaluation order), which toggled and
//!    their new values, from reused scratch. A word that every lane
//!    toggled alike, each source in all lanes or in none and with one new
//!    value, is marked shared and stored once; that is read off the
//!    toggle masks alone. The power model bins those bits into per-level
//!    charge and [`activity::ToggleActivity`] counts them per cell, each
//!    doing a shared word's work once for all lanes, with no event object
//!    in between. A recording ([`engine::Simulator::step`] after
//!    `start_recording`) stores the same words, one lane's per cycle, in
//!    an [`activity::ActivityTrace`], and decodes them into
//!    [`activity::ToggleEvent`]s on demand; the power model bins them
//!    like streamed words, and its per-event oracle turns each event into
//!    a current pulse at `t = cycle·T + level·τ_gate`.
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
pub use engine::{Cone, ConeState, LaneState, Program, Simulator, Sources, ToggleWords, LANES};
