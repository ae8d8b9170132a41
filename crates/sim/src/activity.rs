//! Switching-activity traces.
//!
//! A [`ToggleEvent`] is one output transition of one cell during one clock
//! cycle, annotated with the cell's combinational level. The power model
//! turns each event into a current pulse at
//! `t = cycle·T_clk + level·τ_gate`, which is how the within-cycle current
//! profile (and hence the EM spectrum) arises.
//!
//! An [`ActivityTrace`] stores a recorded lane's toggles as the packed
//! words of a one-lane edge ([`ToggleWords`]): per cycle, one toggled and
//! one value bit per source of the program's [`Sources`], 64 sources a
//! word, in one flat buffer. A [`CycleActivity`] decodes its cycle's
//! events from those words on demand, in serial event order.
//!
//! Level convention: flip-flop `q` transitions are level 0 (they fire at
//! the clock edge); a combinational cell at levelization depth `d` reports
//! level `d + 1`.

use crate::engine::{Sources, ToggleWords, LANES};
use emtrust_netlist::graph::CellId;
use std::sync::Arc;

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

/// One recorded clock cycle: a view of its toggled and value words in an
/// [`ActivityTrace`].
#[derive(Debug, Clone, Copy)]
pub struct CycleActivity<'a> {
    cycle: u64,
    sources: &'a Sources,
    toggled: &'a [u64],
    values: &'a [u64],
}

impl<'a> CycleActivity<'a> {
    /// The clock cycle index this record belongs to.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The cycle's toggles as events, decoded from its words in serial
    /// event order: source by source, flip-flops first.
    pub fn events(&self) -> Events<'a> {
        Events {
            sources: self.sources.events(),
            toggled: self.toggled.iter(),
            values: self.values.iter(),
            next_base: 0,
            base: 0,
            t: 0,
            v: 0,
        }
    }

    /// Number of toggles this cycle.
    pub fn toggle_count(&self) -> usize {
        self.toggled.iter().map(|t| t.count_ones() as usize).sum()
    }

    /// The cycle as the words of a one-lane clock edge, for
    /// [`ToggleWords`] sinks such as the power model's binning.
    pub fn words(&self) -> ToggleWords<'a> {
        ToggleWords::one_lane(self.sources, self.toggled, self.values)
    }
}

/// The events of a [`CycleActivity`], decoded one set toggle bit at a
/// time ([`CycleActivity::events`]).
#[derive(Debug, Clone)]
pub struct Events<'a> {
    sources: &'a [ToggleEvent],
    toggled: std::slice::Iter<'a, u64>,
    values: std::slice::Iter<'a, u64>,
    /// The first source of the next word.
    next_base: usize,
    /// The current word: its first source, its toggles not yet decoded
    /// and its values.
    base: usize,
    t: u64,
    v: u64,
}

impl Iterator for Events<'_> {
    type Item = ToggleEvent;

    fn next(&mut self) -> Option<ToggleEvent> {
        while self.t == 0 {
            (self.t, self.v) = (*self.toggled.next()?, *self.values.next()?);
            self.base = self.next_base;
            self.next_base += LANES;
        }
        let i = self.t.trailing_zeros();
        self.t &= self.t - 1;
        Some(ToggleEvent {
            rising: self.v >> i & 1 != 0,
            ..self.sources[self.base + i as usize]
        })
    }
}

/// A multi-cycle switching-activity trace: one lane's recording.
///
/// Each cycle keeps the lane's toggled words, then its value words, a
/// shared block's packed words as [`ToggleWords`] hands them out and an
/// unshared one's gathered from its masks: `2·⌈sources/64⌉` words a cycle
/// in one buffer for the whole trace (316 on the golden AES chip, against
/// about 4 250 12-byte events).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ActivityTrace {
    /// The sources the bits stand for; `None` before the first cycle.
    sources: Option<Arc<Sources>>,
    /// Words per cycle and kind (toggled, values).
    blocks: usize,
    /// The clock cycle of the first recorded cycle.
    first: u64,
    cycles: usize,
    /// Per cycle: `blocks` toggled words, then `blocks` value words.
    words: Vec<u64>,
}

impl ActivityTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one clock edge, clock cycle `cycle` of a program with
    /// sources `sources`, to the traces of its live lanes, `traces[j]`
    /// lane `j`'s: a shared block's packed words to every trace, and each
    /// lane's own words of any other block, gathered from its masks. An
    /// empty trace starts at `cycle`.
    pub(crate) fn push_edge(
        traces: &mut [ActivityTrace],
        sources: &Arc<Sources>,
        cycle: u64,
        words: &ToggleWords<'_>,
    ) {
        let blocks = sources.len().div_ceil(LANES);
        for trace in traces.iter_mut() {
            if trace.sources.is_none() {
                trace.blocks = blocks;
                trace.first = cycle;
                trace.sources = Some(Arc::clone(sources));
            }
            trace.words.resize(trace.words.len() + 2 * blocks, 0);
            trace.cycles += 1;
        }
        let (toggled0, values0) = words.lane0();
        for (b, &shared) in words.shared().iter().enumerate() {
            let gathered = (!shared).then(|| words.gather(b));
            for (lane, trace) in traces.iter_mut().enumerate() {
                let at = trace.words.len() - 2 * blocks + b;
                (trace.words[at], trace.words[at + blocks]) = match &gathered {
                    Some((toggled, values)) => (toggled[lane], values[lane]),
                    None => (toggled0[b], values0[b]),
                };
            }
        }
    }

    /// Releases the capacity recording reserved beyond the trace's cycles.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.words.shrink_to_fit();
    }

    /// The sources of the program the trace was recorded on (`None` for
    /// a trace with no cycle).
    pub fn sources(&self) -> Option<&Sources> {
        self.sources.as_deref()
    }

    /// Cycle `k` of the trace.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.cycle_count()`.
    pub fn cycle(&self, k: usize) -> CycleActivity<'_> {
        assert!(
            k < self.cycles,
            "cycle {k} of a {}-cycle trace",
            self.cycles
        );
        let sources = self
            .sources
            .as_deref()
            .unwrap_or_else(|| unreachable!("a trace with a cycle has its sources"));
        let at = 2 * self.blocks * k;
        let (toggled, values) = self.words[at..at + 2 * self.blocks].split_at(self.blocks);
        CycleActivity {
            cycle: self.first + k as u64,
            sources,
            toggled,
            values,
        }
    }

    /// The recorded cycles in order.
    pub fn cycles(&self) -> impl ExactSizeIterator<Item = CycleActivity<'_>> + Clone + '_ {
        (0..self.cycles).map(|k| self.cycle(k))
    }

    /// Number of recorded cycles.
    pub fn cycle_count(&self) -> usize {
        self.cycles
    }

    /// Total toggles across all cycles.
    pub fn total_toggles(&self) -> usize {
        self.cycles().map(|c| c.toggle_count()).sum()
    }

    /// Mean toggles per cycle (0 for an empty trace).
    pub fn mean_toggles_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.total_toggles() as f64 / self.cycles as f64
        }
    }

    /// Concatenates another trace after this one. Its cycles are
    /// renumbered to continue this trace's clock, so a trace assembled
    /// block by block counts up by one per cycle, as one recording over
    /// all the blocks would. An empty trace takes the other as it is.
    ///
    /// # Panics
    ///
    /// Panics if both traces have cycles, recorded on programs with
    /// different sources.
    pub fn extend_from(&mut self, other: ActivityTrace) {
        if other.cycles == 0 {
            return;
        }
        if self.cycles == 0 {
            *self = other;
            return;
        }
        assert_eq!(
            self.sources().map(Sources::digest),
            other.sources().map(Sources::digest),
            "traces of different netlists"
        );
        self.words.extend(other.words);
        self.cycles += other.cycles;
    }

    /// Keeps the first `cycles` cycles and drops the rest (nothing if the
    /// trace is no longer).
    pub fn truncate(&mut self, cycles: usize) {
        if cycles < self.cycles {
            self.words.truncate(2 * self.blocks * cycles);
            self.cycles = cycles;
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
    /// simulator's bits: a shared block's toggles are counted once, times
    /// the lanes, and each source of any other block counts the live
    /// lanes in its toggled mask. A stream absorbed edge by edge equals
    /// [`Self::from_trace`] of its lanes' recordings, absorbed one after
    /// another.
    pub fn absorb_words(&mut self, words: ToggleWords<'_>) {
        let sources = words.sources().events();
        let lanes = words.lanes();
        let (toggled0, _) = words.lane0();
        for (b, &shared) in words.shared().iter().enumerate() {
            if shared {
                let mut t = toggled0[b];
                while t != 0 {
                    let i = t.trailing_zeros() as usize;
                    t &= t - 1;
                    self.count(sources[b * LANES + i].cell.index(), lanes as u64);
                }
                continue;
            }
            let (masks, _) = words.masks(b);
            let block = &sources[b * LANES..sources.len().min((b + 1) * LANES)];
            for (source, &mask) in block.iter().zip(masks) {
                if mask != 0 {
                    self.count(source.cell.index(), u64::from(mask.count_ones()));
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A toggle flip-flop: every cycle its `q` (level 0) and the
    /// inverter that feeds it back (level 1) toggle, in opposite
    /// directions.
    fn toggle_flop() -> emtrust_netlist::graph::Netlist {
        let mut n = emtrust_netlist::graph::Netlist::new("toggle");
        let (q, d) = n.dff_deferred();
        let nq = n.not(q);
        n.connect_dff_d(d, nq);
        n.mark_output("q", q);
        n
    }

    /// `cycles` recorded cycles of `n` after `skip` unrecorded ones.
    fn record(n: &emtrust_netlist::graph::Netlist, skip: usize, cycles: usize) -> ActivityTrace {
        let mut sim = crate::engine::Simulator::new(n).unwrap();
        sim.settle();
        sim.run(skip);
        sim.start_recording();
        sim.run(cycles);
        sim.take_recording()
    }

    #[test]
    fn cycles_decode_their_events() {
        let trace = record(&toggle_flop(), 0, 3);
        for (k, cycle) in trace.cycles().enumerate() {
            assert_eq!(cycle.cycle(), k as u64);
            assert_eq!(cycle.toggle_count(), 2);
            let events: Vec<(u32, bool)> = cycle.events().map(|e| (e.level, e.rising)).collect();
            // q rises out of reset, then alternates; the inverter follows.
            let rising = k % 2 == 0;
            assert_eq!(events, [(0, rising), (1, !rising)], "cycle {k}");
            let words = cycle.words();
            assert_eq!((words.lanes(), words.shared()), (1, &[true][..]));
            assert_eq!(words.events(0), cycle.events().collect::<Vec<_>>());
        }
    }

    #[test]
    fn trace_statistics() {
        let t = record(&toggle_flop(), 0, 3);
        assert_eq!(t.cycle_count(), 3);
        assert_eq!(t.total_toggles(), 6);
        assert!((t.mean_toggles_per_cycle() - 2.0).abs() < 1e-12);
        assert_eq!(t.sources().map(Sources::len), Some(2));
    }

    #[test]
    fn empty_trace_statistics() {
        let t = ActivityTrace::new();
        assert_eq!(t.total_toggles(), 0);
        assert_eq!(t.mean_toggles_per_cycle(), 0.0);
        assert_eq!(t.cycles().len(), 0);
        assert!(t.sources().is_none());
    }

    #[test]
    fn traces_concatenate() {
        let n = toggle_flop();
        let mut a = record(&n, 0, 2);
        a.extend_from(ActivityTrace::new());
        assert_eq!(a.cycle_count(), 2);
        // Appended cycles continue the clock, whatever they were numbered.
        let b = record(&n, 24, 2);
        assert_eq!(b.cycle(0).cycle(), 24);
        a.extend_from(b.clone());
        let cycles: Vec<u64> = a.cycles().map(|c| c.cycle()).collect();
        assert_eq!(cycles, [0, 1, 2, 3]);
        let events = |t: &ActivityTrace, k: usize| t.cycle(k).events().collect::<Vec<_>>();
        assert_eq!(events(&a, 3), events(&b, 1));
        // An empty trace takes the other's numbering as it is.
        let mut d = ActivityTrace::new();
        d.extend_from(b);
        assert_eq!(d.cycle(1).cycle(), 25);
        // A prefix keeps its cycles' words.
        let mut prefix = a.clone();
        prefix.truncate(3);
        prefix.truncate(5);
        assert_eq!(prefix.cycle_count(), 3);
        assert_eq!(events(&prefix, 2), events(&a, 2));
        assert_eq!(prefix.total_toggles(), 6);
    }

    #[test]
    #[should_panic(expected = "different netlists")]
    fn traces_of_different_netlists_do_not_concatenate() {
        let mut other = emtrust_netlist::graph::Netlist::new("inv");
        let a = other.input("a");
        let y = other.not(a);
        other.mark_output("y", y);
        let mut trace = record(&toggle_flop(), 0, 1);
        trace.extend_from(record(&other, 0, 1));
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
        let mut prev = ToggleActivity::new();
        for k in 1..=trace.cycle_count() {
            let mut prefix = trace.clone();
            prefix.truncate(k);
            let agg = ToggleActivity::from_trace(&prefix);
            assert!(agg.cycles() > prev.cycles());
            assert!(agg.total_toggles() >= prev.total_toggles());
            for i in 0..prev.cell_count() {
                assert!(
                    agg.toggle_count_at(i) >= prev.toggle_count_at(i),
                    "cell {i} count shrank after absorbing a cycle"
                );
            }
            prev = agg;
        }
        let agg = prev;
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
}
