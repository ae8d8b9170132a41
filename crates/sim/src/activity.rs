//! Switching-activity traces.
//!
//! A [`ToggleEvent`] is one output transition of one cell during one clock
//! cycle, annotated with the cell's combinational level. The power model
//! turns each event into a current pulse at
//! `t = cycle·T_clk + level·τ_gate`, which is how the within-cycle current
//! profile (and hence the EM spectrum) arises.
//!
//! Level convention: flip-flop `q` transitions are level 0 (they fire at
//! the clock edge); a combinational cell at levelization depth `d` reports
//! level `d + 1`.

use crate::engine::{ToggleWords, LANES};
use emtrust_netlist::graph::CellId;

/// One output transition of one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ToggleEvent {
    /// The toggling cell.
    pub cell: CellId,
    /// Switching slot within the cycle (0 = at the clock edge).
    pub level: u32,
    /// `true` for a rising output edge, `false` for falling.
    pub rising: bool,
}

/// All toggles of one clock cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleActivity {
    cycle: u64,
    events: Vec<ToggleEvent>,
}

impl CycleActivity {
    /// Creates an empty record for clock cycle `cycle`.
    pub fn new(cycle: u64) -> Self {
        Self {
            cycle,
            events: Vec::new(),
        }
    }

    /// Creates the record of clock cycle `cycle` holding `events`.
    pub(crate) fn from_events(cycle: u64, events: Vec<ToggleEvent>) -> Self {
        Self { cycle, events }
    }

    /// The clock cycle index this record belongs to.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Appends an event.
    pub fn push(&mut self, event: ToggleEvent) {
        self.events.push(event);
    }

    /// The recorded events, in evaluation order.
    pub fn events(&self) -> &[ToggleEvent] {
        &self.events
    }

    /// Number of toggles this cycle.
    pub fn toggle_count(&self) -> usize {
        self.events.len()
    }
}

/// A multi-cycle switching-activity trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ActivityTrace {
    cycles: Vec<CycleActivity>,
}

impl ActivityTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one cycle of activity.
    pub fn push_cycle(&mut self, cycle: CycleActivity) {
        self.cycles.push(cycle);
    }

    /// The recorded cycles in order.
    pub fn cycles(&self) -> &[CycleActivity] {
        &self.cycles
    }

    /// Number of recorded cycles.
    pub fn cycle_count(&self) -> usize {
        self.cycles.len()
    }

    /// Total toggles across all cycles.
    pub fn total_toggles(&self) -> usize {
        self.cycles.iter().map(CycleActivity::toggle_count).sum()
    }

    /// Mean toggles per cycle (0 for an empty trace).
    pub fn mean_toggles_per_cycle(&self) -> f64 {
        if self.cycles.is_empty() {
            0.0
        } else {
            self.total_toggles() as f64 / self.cycles.len() as f64
        }
    }

    /// Concatenates another trace after this one. Its cycles are
    /// renumbered to continue this trace's clock, so a trace assembled
    /// block by block counts up by one per cycle, as one recording over
    /// all the blocks would.
    pub fn extend_from(&mut self, other: ActivityTrace) {
        let next = self.cycles.last().map(|c| c.cycle + 1);
        let start = self.cycles.len();
        self.cycles.extend(other.cycles);
        if let Some(next) = next {
            for (cycle, c) in (next..).zip(&mut self.cycles[start..]) {
                c.cycle = cycle;
            }
        }
    }
}

/// Per-cell toggle totals aggregated over one or more
/// [`ActivityTrace`]s — the register-level feature export the
/// attribution layer consumes.
///
/// Where an [`ActivityTrace`] answers *when* the design switched (cycle
/// by cycle, event by event), a `ToggleActivity` answers *who* switched
/// and *how often*: one counter per cell, indexed by
/// [`CellId::index`], plus the cycle total the counts were accumulated
/// over. Dividing the two gives each cell's toggle rate — the
/// switching-activity feature that, combined with the EM array's
/// per-tile margin map, localizes a Trojan down to individual
/// registers.
///
/// Accumulation is pure counting in absorption order, so the aggregate
/// is deterministic whenever the simulation that produced the traces
/// is (and the two-phase engine is: same netlist, same stimulus, same
/// recording → bit-identical traces).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ToggleActivity {
    /// Toggle totals indexed by [`CellId::index`]; grows on demand.
    counts: Vec<u64>,
    /// Cycles absorbed so far.
    cycles: u64,
}

impl ToggleActivity {
    /// An empty aggregate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Aggregates one trace (equivalent to `new()` + [`Self::absorb`]).
    pub fn from_trace(trace: &ActivityTrace) -> Self {
        let mut agg = Self::new();
        agg.absorb(trace);
        agg
    }

    /// Accumulates a trace's toggles into the per-cell counters.
    pub fn absorb(&mut self, trace: &ActivityTrace) {
        for cycle in trace.cycles() {
            for event in cycle.events() {
                self.count(event.cell.index(), 1);
            }
            self.cycles += 1;
        }
    }

    /// Accumulates one clock edge of every live lane, straight from the
    /// simulator's bits: a shared block is counted once, times the
    /// lanes. A stream absorbed edge by edge equals [`Self::from_trace`]
    /// of its lanes' recordings, absorbed one after another.
    pub fn absorb_words(&mut self, words: ToggleWords<'_>) {
        let sources = words.sources().events();
        let lanes = words.lanes();
        let mut count = |b: usize, mut t: u64, by: u64| {
            while t != 0 {
                let i = t.trailing_zeros() as usize;
                t &= t - 1;
                self.count(sources[b * LANES + i].cell.index(), by);
            }
        };
        for lane in 0..lanes {
            let (toggled, _) = words.rows(lane);
            for (b, (&t, &shared)) in toggled.iter().zip(words.shared()).enumerate() {
                match (shared, lane) {
                    (false, _) => count(b, t, 1),
                    (true, 0) => count(b, t, lanes as u64),
                    (true, _) => {}
                }
            }
        }
        self.cycles += lanes as u64;
    }

    fn count(&mut self, idx: usize, by: u64) {
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += by;
    }

    /// Adds another aggregate's counts and cycles, as if its cycles had
    /// been absorbed here.
    pub fn merge(&mut self, other: &ToggleActivity) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.cycles += other.cycles;
    }

    /// Cycles absorbed so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Highest cell index observed plus one (cells beyond this simply
    /// never toggled).
    pub fn cell_count(&self) -> usize {
        self.counts.len()
    }

    /// Total toggles of one cell (zero for cells never seen).
    pub fn toggle_count(&self, cell: CellId) -> u64 {
        self.counts.get(cell.index()).copied().unwrap_or(0)
    }

    /// Total toggles of the cell at `index` (zero for cells never
    /// seen) — for callers that carry plain indices.
    pub fn toggle_count_at(&self, index: usize) -> u64 {
        self.counts.get(index).copied().unwrap_or(0)
    }

    /// Total toggles across every cell.
    pub fn total_toggles(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Mean toggles per cycle across the whole design (0 before any
    /// cycle is absorbed).
    pub fn mean_toggles_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.total_toggles() as f64 / self.cycles as f64
        }
    }

    /// One cell's toggles per absorbed cycle (0 before any cycle is
    /// absorbed).
    pub fn rate(&self, cell: CellId) -> f64 {
        self.rate_at(cell.index())
    }

    /// Toggle rate of the cell at `index`.
    pub fn rate_at(&self, index: usize) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.toggle_count_at(index) as f64 / self.cycles as f64
        }
    }
}

impl FromIterator<CycleActivity> for ActivityTrace {
    fn from_iter<T: IntoIterator<Item = CycleActivity>>(iter: T) -> Self {
        Self {
            cycles: iter.into_iter().collect(),
        }
    }
}

impl Extend<CycleActivity> for ActivityTrace {
    fn extend<T: IntoIterator<Item = CycleActivity>>(&mut self, iter: T) {
        self.cycles.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cell: u32, level: u32) -> ToggleEvent {
        // CellId's constructor is crate-private to emtrust-netlist; build
        // one through a real netlist.
        let mut n = emtrust_netlist::graph::Netlist::new("t");
        let a = n.input("a");
        let mut last = a;
        for _ in 0..=cell {
            last = n.not(last);
        }
        let id = match n.net_source(last) {
            emtrust_netlist::graph::NetSource::Cell(c) => *c,
            _ => unreachable!(),
        };
        ToggleEvent {
            cell: id,
            level,
            rising: true,
        }
    }

    #[test]
    fn cycle_activity_accumulates() {
        let mut c = CycleActivity::new(3);
        assert_eq!(c.cycle(), 3);
        c.push(ev(0, 0));
        c.push(ev(1, 2));
        assert_eq!(c.toggle_count(), 2);
        assert_eq!(c.events()[1].level, 2);
    }

    #[test]
    fn trace_statistics() {
        let mut t = ActivityTrace::new();
        let mut c0 = CycleActivity::new(0);
        c0.push(ev(0, 0));
        let mut c1 = CycleActivity::new(1);
        c1.push(ev(0, 0));
        c1.push(ev(1, 1));
        t.push_cycle(c0);
        t.push_cycle(c1);
        assert_eq!(t.cycle_count(), 2);
        assert_eq!(t.total_toggles(), 3);
        assert!((t.mean_toggles_per_cycle() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_statistics() {
        let t = ActivityTrace::new();
        assert_eq!(t.total_toggles(), 0);
        assert_eq!(t.mean_toggles_per_cycle(), 0.0);
    }

    #[test]
    fn traces_concatenate() {
        let mut a = ActivityTrace::new();
        a.push_cycle(CycleActivity::new(0));
        let mut b = ActivityTrace::new();
        b.push_cycle(CycleActivity::new(1));
        a.extend_from(b);
        assert_eq!(a.cycle_count(), 2);
        assert_eq!(a.cycles()[1].cycle(), 1);
        // Appended cycles continue the clock, whatever they were numbered.
        let mut c = ActivityTrace::new();
        c.push_cycle(CycleActivity::new(24));
        c.push_cycle(CycleActivity::new(25));
        a.extend_from(c);
        let cycles: Vec<u64> = a.cycles().iter().map(CycleActivity::cycle).collect();
        assert_eq!(cycles, [0, 1, 2, 3]);
        // An empty trace takes the other's numbering as it is.
        let mut d = ActivityTrace::new();
        d.extend_from(a);
        assert_eq!(d.cycles()[3].cycle(), 3);
    }

    /// A small sequential design plus a seeded stimulus driver, for the
    /// `ToggleActivity` invariant tests: an input-fed XOR chain into a
    /// couple of flip-flops gives level-0 and combinational events.
    fn recorded_trace(seed: u64, cycles: usize) -> ActivityTrace {
        use emtrust_netlist::graph::Netlist;
        use rand::{Rng, SeedableRng};
        let mut n = Netlist::new("toggles");
        let a = n.input("a");
        let b = n.input("b");
        let x = n.xor2(a, b);
        let y = n.not(x);
        let q0 = n.dff(x);
        let q1 = n.dff(y);
        let z = n.and2(q0, q1);
        n.mark_output("z", z);
        let mut sim = crate::engine::Simulator::new(&n).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        sim.start_recording();
        for _ in 0..cycles {
            sim.set_input(a, rng.gen());
            sim.set_input(b, rng.gen());
            sim.step();
        }
        sim.take_recording()
    }

    #[test]
    fn toggle_activity_counts_are_monotone_in_cycles() {
        // Absorbing more cycles can only grow every counter: per-cell
        // counts, the total, and the cycle count are all monotone.
        let trace = recorded_trace(11, 48);
        let mut agg = ToggleActivity::new();
        let mut prev_counts: Vec<u64> = Vec::new();
        let mut prev_total = 0u64;
        let mut prev_cycles = 0u64;
        for cycle in trace.cycles() {
            let mut one = ActivityTrace::new();
            one.push_cycle(cycle.clone());
            agg.absorb(&one);
            assert!(agg.cycles() > prev_cycles);
            assert!(agg.total_toggles() >= prev_total);
            for (i, &p) in prev_counts.iter().enumerate() {
                assert!(
                    agg.toggle_count_at(i) >= p,
                    "cell {i} count shrank after absorbing a cycle"
                );
            }
            prev_counts = (0..agg.cell_count())
                .map(|i| agg.toggle_count_at(i))
                .collect();
            prev_total = agg.total_toggles();
            prev_cycles = agg.cycles();
        }
        assert_eq!(agg.cycles(), trace.cycle_count() as u64);
    }

    #[test]
    fn toggle_activity_is_deterministic_under_seed_replay() {
        // The same seeded stimulus must reproduce the aggregate bit for
        // bit; a different seed must not (the stimulus actually matters).
        let a = ToggleActivity::from_trace(&recorded_trace(7, 64));
        let b = ToggleActivity::from_trace(&recorded_trace(7, 64));
        assert_eq!(a, b);
        let c = ToggleActivity::from_trace(&recorded_trace(8, 64));
        assert_ne!(a, c, "a different stimulus seed should change the counts");
    }

    #[test]
    fn toggle_activity_statistics_are_consistent() {
        let trace = recorded_trace(3, 32);
        let agg = ToggleActivity::from_trace(&trace);
        // Per-cell counts sum to the total, which matches the trace's
        // own event count; the mean is exactly total / cycles.
        let summed: u64 = (0..agg.cell_count()).map(|i| agg.toggle_count_at(i)).sum();
        assert_eq!(summed, agg.total_toggles());
        assert_eq!(agg.total_toggles(), trace.total_toggles() as u64);
        assert_eq!(agg.cycles(), trace.cycle_count() as u64);
        let mean = agg.total_toggles() as f64 / agg.cycles() as f64;
        assert!((agg.mean_toggles_per_cycle() - mean).abs() < 1e-12);
        assert!((agg.mean_toggles_per_cycle() - trace.mean_toggles_per_cycle()).abs() < 1e-12);
        // Rates are counts over cycles, and unseen cells read zero.
        for i in 0..agg.cell_count() {
            let expect = agg.toggle_count_at(i) as f64 / agg.cycles() as f64;
            assert!((agg.rate_at(i) - expect).abs() < 1e-12);
        }
        assert_eq!(agg.toggle_count_at(agg.cell_count() + 5), 0);
        assert_eq!(agg.rate_at(agg.cell_count() + 5), 0.0);
    }

    #[test]
    fn toggle_activity_accumulates_across_traces() {
        // from_trace + absorb equals absorbing both traces in order, and
        // an empty aggregate reads all-zero statistics.
        let t1 = recorded_trace(1, 16);
        let t2 = recorded_trace(2, 16);
        let mut a = ToggleActivity::from_trace(&t1);
        a.absorb(&t2);
        let mut b = ToggleActivity::new();
        assert_eq!(b.mean_toggles_per_cycle(), 0.0);
        assert_eq!(b.total_toggles(), 0);
        b.absorb(&t1);
        b.absorb(&t2);
        assert_eq!(a, b);
        assert_eq!(a.cycles(), 32);
    }

    #[test]
    fn merged_aggregates_equal_one_absorption() {
        let (t1, t2) = (recorded_trace(4, 16), recorded_trace(5, 9));
        let mut whole = ToggleActivity::from_trace(&t1);
        whole.absorb(&t2);
        let mut merged = ToggleActivity::from_trace(&t2);
        merged.merge(&ToggleActivity::from_trace(&t1));
        assert_eq!(merged, whole);
        let mut empty = ToggleActivity::new();
        empty.merge(&whole);
        assert_eq!(empty, whole);
    }

    #[test]
    fn trace_collects_from_iterator() {
        let t: ActivityTrace = (0..4).map(CycleActivity::new).collect();
        assert_eq!(t.cycle_count(), 4);
        let mut t2 = ActivityTrace::new();
        t2.extend((0..2).map(CycleActivity::new));
        assert_eq!(t2.cycle_count(), 2);
    }
}
