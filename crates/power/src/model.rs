//! The activity → current synthesis model.
//!
//! Every toggle of clock cycle `k` at switching level `l` lands at the
//! same instant, `t = k·T + (l + ½)·τ`, so synthesis runs in two steps:
//!
//! 1. **Bin.** A compiled [`ChargeTable`] holds each toggle source's
//!    deposit amplitude `(q·w)/dt` per output edge, set-major across the
//!    weight sets, in the simulator's source order (flip-flops in id
//!    order, then gates in evaluation order; see
//!    [`emtrust_sim::Sources`]). [`ChargeTable::bin_words`] sums one
//!    clock edge's toggle bits of every live lane ([`ToggleWords`]) into
//!    one [`ChargeBins`] entry per (lane, level, weight set), level run
//!    by level run, does the work of the blocks the lanes share once and
//!    folds the others source by source into every lane at once. Every
//!    bin adds its toggles in serial event order; the clock edge opens
//!    the level-0 bin. A stored [`ActivityTrace`] keeps the same words,
//!    one lane's per cycle, and [`ChargeTable::bin_trace`] bins them with
//!    the same kernel.
//! 2. **Render.** [`ChargeTable::render`] deposits each bin once, split
//!    linearly over the two samples around its instant, over each set's
//!    leakage floor, then adds the per-cycle extra leakage.
//!
//! A cycle's bins depend only on its own toggles, so the bins of a
//! stream (binned cycle by cycle while the simulator runs) and of a
//! stored [`ActivityTrace`] are the same bits, and windows render
//! serially in cycle order. One deposit per bin instead of one per
//! event rounds differently from the per-event renderer
//! ([`CurrentModel::synthesize_reference`]); the difference is a few
//! ulps of the bin sums, bounded by the tests at 1e-12 of the trace's
//! peak.

use crate::tech::ClockConfig;
use crate::trace::CurrentTrace;
use crate::PowerError;
use emtrust_netlist::cell::CellKind;
use emtrust_netlist::graph::{CellId, Netlist};
use emtrust_netlist::level::levelize;
use emtrust_netlist::library::Library;
use emtrust_sim::activity::ActivityTrace;
use emtrust_sim::{Sources, ToggleWords, LANES};

/// Fraction of a flip-flop's `C_eff` switched by its clock pins every
/// edge, data-independent (the clock tree's contribution).
const CLOCK_LOAD_FRACTION: f64 = 0.35;

/// Falling output transitions move slightly less supply charge than
/// rising ones (PMOS/NMOS asymmetry).
const FALL_CHARGE_FRACTION: f64 = 0.85;

/// The edge factor by a toggle's new value: a falling edge (0) moves
/// [`FALL_CHARGE_FRACTION`] of the amplitude, a rising one (1) all of it.
const EDGE: [f64; 2] = [FALL_CHARGE_FRACTION, 1.0];

/// Synthesizes transient current from switching activity.
///
/// # Examples
///
/// ```
/// use emtrust_netlist::graph::Netlist;
/// use emtrust_netlist::library::Library;
/// use emtrust_power::{ClockConfig, CurrentModel};
/// use emtrust_sim::engine::Simulator;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut n = Netlist::new("toggle");
/// let (q, d) = n.dff_deferred();
/// let nq = n.not(q);
/// n.connect_dff_d(d, nq);
/// n.mark_output("q", q);
///
/// let mut sim = Simulator::new(&n)?;
/// sim.settle();
/// sim.start_recording();
/// sim.run(4);
/// let activity = sim.take_recording();
///
/// let model = CurrentModel::new(Library::generic_180nm(), ClockConfig::reference());
/// let trace = model.synthesize_with(&n, &activity, None, None, 1)?;
/// assert_eq!(trace.len(), 4 * 64);
/// assert!(trace.total_charge_c() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CurrentModel {
    library: Library,
    clock: ClockConfig,
}

impl CurrentModel {
    /// Creates a model over a characterized library and clock config.
    pub fn new(library: Library, clock: ClockConfig) -> Self {
        Self { library, clock }
    }

    /// The clock configuration.
    pub fn clock(&self) -> ClockConfig {
        self.clock
    }

    /// The cell library.
    pub fn library(&self) -> &Library {
        &self.library
    }

    /// Compiles the charge table of `netlist` for `weight_sets` (one
    /// output current per set; `None` weighs every cell 1). Owners that
    /// synthesize many traces under fixed weights compile once and keep
    /// the table.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::LengthMismatch`] if a weight vector doesn't
    /// cover every cell, [`PowerError::InvalidParameter`] for an empty
    /// weight-set list, and [`PowerError::Netlist`] if the netlist does
    /// not levelize.
    pub fn charge_table(
        &self,
        netlist: &Netlist,
        weight_sets: &[Option<&[f64]>],
    ) -> Result<ChargeTable, PowerError> {
        let sources = Sources::new(netlist, &levelize(netlist)?)?;
        ChargeTable::build(self, netlist, weight_sets, Rows::of(&sources))
    }

    /// The charge table of `activity`, recorded on `netlist`, in the
    /// source order of its recording: a trace with no cycle has none, and
    /// takes the netlist's.
    fn recording_table(
        &self,
        netlist: &Netlist,
        activity: &ActivityTrace,
        weight_sets: &[Option<&[f64]>],
    ) -> Result<ChargeTable, PowerError> {
        let Some(sources) = activity.sources() else {
            return self.charge_table(netlist, weight_sets);
        };
        if sources.len() != netlist.cell_count() {
            return Err(PowerError::LengthMismatch {
                expected: netlist.cell_count(),
                actual: sources.len(),
            });
        }
        ChargeTable::build(self, netlist, weight_sets, Rows::of(sources))
    }

    /// Synthesizes the supply-current waveform for `activity` recorded on
    /// `netlist`, with the bin step fanned across `workers` threads in
    /// cycle chunks ([`ChargeTable::bin_trace`]). Each cycle's bins depend
    /// only on its own toggles, so the waveform is bit-identical for every
    /// `workers` value.
    ///
    /// - `weights`: optional per-cell factors (indexed by
    ///   [`emtrust_netlist::graph::CellId::index`]); when given, each
    ///   cell's contribution is scaled by its weight. Passing the EM
    ///   coupling kernel here yields the flux-weighted current whose time
    ///   derivative is the sensor emf.
    /// - `extra_leakage_a`: optional per-cycle additional leakage current
    ///   in amperes (Trojan T2's leakage channel), one entry per recorded
    ///   cycle. Applied with weight 1 (or the mean weight when weighting).
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::LengthMismatch`] if `weights` doesn't cover
    /// every cell, `extra_leakage_a` doesn't cover every cycle or
    /// `activity` was recorded on a netlist of another size.
    pub fn synthesize_with(
        &self,
        netlist: &Netlist,
        activity: &ActivityTrace,
        weights: Option<&[f64]>,
        extra_leakage_a: Option<&[f64]>,
        workers: usize,
    ) -> Result<CurrentTrace, PowerError> {
        let table = self.recording_table(netlist, activity, &[weights])?;
        let bins = table.bin_trace(activity, workers);
        let mut traces = table.render(&bins, extra_leakage_a)?;
        Ok(traces.swap_remove(0))
    }

    /// Synthesizes one waveform **per weight vector** from a single pass
    /// over the activity's words: the sensor-array path, one simulation
    /// pass, N coupling kernels, N flux-weighted currents.
    ///
    /// The bins of every set are summed in the same pass, so the `k`-th
    /// output is bit-identical to `synthesize_with(netlist, activity,
    /// Some(weight_sets[k]), extra_leakage_a, workers)`.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::LengthMismatch`] if any weight vector doesn't
    /// cover every cell, `extra_leakage_a` doesn't cover every cycle or
    /// `activity` was recorded on a netlist of another size, and
    /// [`PowerError::InvalidParameter`] for an empty weight-set list.
    pub fn synthesize_multi(
        &self,
        netlist: &Netlist,
        activity: &ActivityTrace,
        weight_sets: &[&[f64]],
        extra_leakage_a: Option<&[f64]>,
        workers: usize,
    ) -> Result<Vec<CurrentTrace>, PowerError> {
        let sets: Vec<Option<&[f64]>> = weight_sets.iter().map(|w| Some(*w)).collect();
        let table = self.recording_table(netlist, activity, &sets)?;
        let bins = table.bin_trace(activity, workers);
        table.render(&bins, extra_leakage_a)
    }

    /// The per-event oracle: netlist/library lookups, a charge division
    /// and one deposit on every event the recording decodes, one weight
    /// set, serial. It shares only the model with the binned path (the
    /// instant of a level-`l` toggle in its cycle), not the table or the
    /// bins.
    ///
    /// Kept public for two jobs: tests bound the binned renderer against
    /// it, and `exp_throughput` times it as the before side of the
    /// hot-path ratio recorded in `BENCH_parallel.json`.
    ///
    /// # Errors
    ///
    /// Same as [`Self::synthesize_with`].
    pub fn synthesize_reference(
        &self,
        netlist: &Netlist,
        activity: &ActivityTrace,
        weights: Option<&[f64]>,
        extra_leakage_a: Option<&[f64]>,
    ) -> Result<CurrentTrace, PowerError> {
        if let Some(w) = weights {
            if w.len() != netlist.cell_count() {
                return Err(PowerError::LengthMismatch {
                    expected: netlist.cell_count(),
                    actual: w.len(),
                });
            }
        }
        if let Some(l) = extra_leakage_a {
            if l.len() != activity.cycle_count() {
                return Err(PowerError::LengthMismatch {
                    expected: activity.cycle_count(),
                    actual: l.len(),
                });
            }
        }
        let spc = self.clock.samples_per_cycle();
        let fs = self.clock.sample_rate_hz();
        let dt = 1.0 / fs;
        let tau = self.library.gate_delay_s();
        let weight_of = |cell: CellId| -> f64 { weights.map_or(1.0, |w| w[cell.index()]) };
        let leakage_a: f64 = netlist
            .cells()
            .map(|(id, c)| weight_of(id) * self.library.electrical(c.kind()).leakage_na * 1e-9)
            .sum();
        let mut output = vec![leakage_a; activity.cycle_count() * spc];
        let clock_charge_weighted: f64 = netlist
            .cells()
            .filter(|(_, c)| c.kind() == CellKind::Dff)
            .map(|(id, _)| {
                let q = self.library.charge_per_transition_c(CellKind::Dff) * CLOCK_LOAD_FRACTION;
                weight_of(id) * q
            })
            .sum();
        let mean_weight = weights.map_or(1.0, mean);

        for (k, cycle) in activity.cycles().enumerate() {
            let base = k * spc;
            deposit(&mut output, dt, base, tau * 0.5, clock_charge_weighted);
            for event in cycle.events() {
                let kind = netlist.cell(event.cell).kind();
                let q0 = self.library.charge_per_transition_c(kind);
                let q = if event.rising {
                    q0
                } else {
                    q0 * FALL_CHARGE_FRACTION
                };
                let t = (event.level as f64 + 0.5) * tau;
                deposit(&mut output, dt, base, t, q * weight_of(event.cell));
            }
            if let Some(extra) = extra_leakage_a {
                let add = extra[k] * mean_weight;
                if add != 0.0 {
                    for v in &mut output[base..base + spc] {
                        *v += add;
                    }
                }
            }
        }
        Ok(CurrentTrace::new(output, fs))
    }
}

/// The mean of a weight vector (1 for an empty one).
fn mean(w: &[f64]) -> f64 {
    if w.is_empty() {
        1.0
    } else {
        w.iter().sum::<f64>() / w.len() as f64
    }
}

/// A netlist's deposit amplitudes under a fixed list of weight sets,
/// compiled once: the per-source amplitudes `(q·w)/dt` set-major (one
/// toggle's amplitudes for every set share a cache line)
/// in the simulator's source order, plus each set's leakage floor,
/// clock-edge amplitude and mean weight. (The tables that
/// [`CurrentModel::synthesize_with`] and
/// [`CurrentModel::synthesize_multi`] compile for one recording take
/// that order from the recording's [`Sources`] and skip the
/// levelization.)
///
/// Build it with [`CurrentModel::charge_table`]; bin a simulated edge's
/// toggle bits with [`Self::bin_words`], a whole recording with
/// [`Self::bin_trace`]; render the currents with [`Self::render`].
#[derive(Debug, Clone)]
pub struct ChargeTable {
    /// Each cell kind's library data, and per cell its index in it.
    kinds: Vec<KindCharge>,
    cell_kind: Vec<u8>,
    /// The source order of the amplitude rows.
    rows: Rows,
    /// The clock-load charge of one flip-flop per edge.
    clock_q: f64,
    sets: usize,
    /// `amps[source·sets + s]`: the rising-edge amplitude `(q·w)/dt`; a
    /// falling edge moves [`FALL_CHARGE_FRACTION`] of it. (Storing both
    /// edges' products instead doubles the table for no measured gain.)
    amps: Vec<f64>,
    /// Per set: the clock edge's amplitude, which opens the level-0 bin.
    clock_amp: Vec<f64>,
    /// Per set: the static leakage floor in amperes.
    leakage_a: Vec<f64>,
    /// Per set: the weight applied to the per-cycle extra leakage.
    mean_weight: Vec<f64>,
    samples_per_cycle: usize,
    sample_rate_hz: f64,
    gate_delay_s: f64,
}

/// The order of a [`ChargeTable`]'s amplitude rows: the simulator's
/// source order, which [`ChargeTable::bin_words`] needs.
#[derive(Debug, Clone)]
struct Rows {
    /// Per cell: its source index, the row of its amplitudes.
    source_of: Vec<u32>,
    /// Per level `l`: one past its last source ([`Sources::level_ends`]).
    level_ends: Vec<usize>,
    /// The [`Sources::digest`] of the order.
    digest: u64,
}

impl Rows {
    fn of(sources: &Sources) -> Self {
        let mut source_of = vec![0; sources.len()];
        for (source, event) in sources.events().iter().enumerate() {
            source_of[event.cell.index()] = source as u32;
        }
        Rows {
            source_of,
            level_ends: sources.level_ends().to_vec(),
            digest: sources.digest(),
        }
    }

    /// Cell `cell`'s amplitude row.
    fn row(&self, cell: usize) -> usize {
        self.source_of[cell] as usize
    }
}

/// One cell kind's library data, as the table weighs it.
#[derive(Debug, Clone, Copy)]
struct KindCharge {
    kind: CellKind,
    q0: f64,
    leakage_na: f64,
    flop: bool,
}

impl ChargeTable {
    fn build(
        model: &CurrentModel,
        netlist: &Netlist,
        weight_sets: &[Option<&[f64]>],
        rows: Rows,
    ) -> Result<Self, PowerError> {
        let library = &model.library;
        // The library is searched once per kind, not once per cell.
        let mut kinds: Vec<KindCharge> = Vec::new();
        let mut cell_kind = Vec::with_capacity(netlist.cell_count());
        for (_, c) in netlist.cells() {
            let kind = c.kind();
            let index = match kinds.iter().position(|k| k.kind == kind) {
                Some(index) => index,
                None => {
                    kinds.push(KindCharge {
                        kind,
                        q0: library.charge_per_transition_c(kind),
                        leakage_na: library.electrical(kind).leakage_na,
                        flop: kind == CellKind::Dff,
                    });
                    kinds.len() - 1
                }
            };
            // A library characterizes far fewer than 256 kinds.
            cell_kind.push(index as u8);
        }
        let mut table = Self {
            kinds,
            cell_kind,
            rows,
            clock_q: library.charge_per_transition_c(CellKind::Dff) * CLOCK_LOAD_FRACTION,
            sets: 0,
            amps: Vec::new(),
            clock_amp: Vec::new(),
            leakage_a: Vec::new(),
            mean_weight: Vec::new(),
            samples_per_cycle: model.clock.samples_per_cycle(),
            sample_rate_hz: model.clock.sample_rate_hz(),
            gate_delay_s: library.gate_delay_s(),
        };
        table.reweight(weight_sets)?;
        Ok(table)
    }

    /// Recompiles the weighted part of the table for new weight sets
    /// (for example after process variation rescaled a sensor's
    /// weights); the result is the same bits as a fresh
    /// [`CurrentModel::charge_table`] with these sets.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::LengthMismatch`] if a weight vector doesn't
    /// cover every cell, and [`PowerError::InvalidParameter`] for an
    /// empty weight-set list; the table is unchanged then.
    pub fn reweight(&mut self, weight_sets: &[Option<&[f64]>]) -> Result<(), PowerError> {
        if weight_sets.is_empty() {
            return Err(PowerError::InvalidParameter {
                what: "a charge table needs at least one weight set",
            });
        }
        let cells = self.cell_kind.len();
        for w in weight_sets.iter().flatten() {
            if w.len() != cells {
                return Err(PowerError::LengthMismatch {
                    expected: cells,
                    actual: w.len(),
                });
            }
        }
        let fs = self.sample_rate_hz;
        let sets = weight_sets.len();
        self.amps.clear();
        self.amps.resize(cells * sets, 0.0);
        let mut leakage_a = vec![0.0; sets];
        let mut clock_q = vec![0.0; sets];
        let mut weight_sum = vec![0.0; sets];
        // One pass over the cells, every set at once; each set's sums
        // still add its cells in cell order.
        for (cell, &kind) in self.cell_kind.iter().enumerate() {
            let c = &self.kinds[usize::from(kind)];
            let row = self.rows.row(cell) * sets;
            for (s, amp) in self.amps[row..row + sets].iter_mut().enumerate() {
                let w = weight_sets[s].map_or(1.0, |w| w[cell]);
                *amp = (c.q0 * w) * fs;
                leakage_a[s] += w * c.leakage_na * 1e-9;
                if c.flop {
                    clock_q[s] += w * self.clock_q;
                }
                weight_sum[s] += w;
            }
        }
        self.leakage_a = leakage_a;
        self.clock_amp = clock_q.iter().map(|q| q * fs).collect();
        self.mean_weight = weight_sets
            .iter()
            .zip(&weight_sum)
            .map(|(w, sum)| match w {
                Some(w) if !w.is_empty() => sum / w.len() as f64,
                _ => 1.0,
            })
            .collect();
        self.sets = sets;
        Ok(())
    }

    /// Number of cells the table covers.
    pub fn cells(&self) -> usize {
        self.cell_kind.len()
    }

    /// Empty bins for this table's weight sets.
    pub fn bins(&self) -> ChargeBins {
        ChargeBins {
            sets: self.sets,
            starts: Vec::new(),
            sums: Vec::new(),
        }
    }

    /// Sums a cycle's toggles into `bins` group by group of sets, with
    /// `group8` or `group1` given the group's first set. The sets are
    /// binned in groups of a fixed width, so that a run of same-level
    /// toggles sums in registers rather than through memory; each set
    /// still adds its toggles in serial event order.
    #[inline(always)]
    fn bin_groups<B: ?Sized>(
        &self,
        bins: &mut B,
        group8: impl Fn(&mut B, usize),
        group1: impl Fn(&mut B, usize),
    ) {
        let mut first = 0;
        while first + 8 <= self.sets {
            group8(bins, first);
            first += 8;
        }
        while first < self.sets {
            group1(bins, first);
            first += 1;
        }
    }

    /// Appends one simulated clock edge to every live lane's bins, from
    /// the edge's toggle bits: `bins[j]` is lane `j`'s. In each lane the
    /// clock edge opens the level-0 bin, then every toggled source adds
    /// its amplitudes to its level's bin, in source order: lane `j`'s
    /// bins are each level's left fold of [`ToggleWords::events`] of
    /// lane `j`, bit for bit.
    ///
    /// Per level, the blocks every lane shares ([`ToggleWords::shared`])
    /// up to the first that they do not are summed once, into one
    /// accumulator. From there each lane has its own: a shared block's
    /// amplitudes are read once and added to every lane's, and every
    /// other block is folded source by source from its masks
    /// ([`ToggleWords::masks`]): each source's falling and rising
    /// deposits are made once, and its new value in each lane picks the
    /// one that lane adds. No lane's own words are gathered.
    ///
    /// # Panics
    ///
    /// Panics if the table was compiled for another netlist than the
    /// words' program, or `bins` does not hold one entry per live lane.
    pub fn bin_words(&self, words: ToggleWords<'_>, bins: &mut [ChargeBins]) {
        assert!(
            self.rows.digest == words.sources().digest(),
            "charge table was compiled for another netlist"
        );
        let level_ends = &self.rows.level_ends;
        assert_eq!(
            bins.len(),
            words.lanes(),
            "one charge bin run per live lane"
        );
        let mut starts = [0; LANES];
        for (start, bins) in starts.iter_mut().zip(bins.iter_mut()) {
            *start = bins.open(&self.clock_amp);
        }
        let starts = &starts[..bins.len()];
        self.bin_groups(
            bins,
            |bins, first| self.bin_words_group::<8>(level_ends, &words, bins, starts, first),
            |bins, first| self.bin_words_group::<1>(level_ends, &words, bins, starts, first),
        );
    }

    /// Adds the toggles `t` of source word `b`, new values `v`, to `acc`
    /// for sets `first..first + N`, in source order.
    #[inline(always)]
    fn add_word<const N: usize>(
        &self,
        acc: &mut [f64; N],
        b: usize,
        mut t: u64,
        v: u64,
        first: usize,
    ) {
        while t != 0 {
            let i = t.trailing_zeros() as usize;
            t &= t - 1;
            let deposit = self.deposit::<N>(b * LANES + i, (v >> i & 1) as usize, first);
            for (a, d) in acc.iter_mut().zip(deposit) {
                *a += d;
            }
        }
    }

    /// What a toggle of amplitude row `row` with new value `rising`
    /// deposits in sets `first..first + N`: its amplitudes times its
    /// edge factor (multiplying by 1 is exact, so a rising edge adds its
    /// amplitude).
    #[inline(always)]
    fn deposit<const N: usize>(&self, row: usize, rising: usize, first: usize) -> [f64; N] {
        let base = row * self.sets + first;
        let edge = EDGE[rising];
        let mut deposit = [0.0; N];
        for (d, &amp) in deposit.iter_mut().zip(&self.amps[base..base + N]) {
            *d = amp * edge;
        }
        deposit
    }

    /// [`Self::bin_words`] for sets `first..first + N` of the edge whose
    /// level-0 bin starts at `starts[j]` in lane `j`'s bins.
    #[inline(always)]
    fn bin_words_group<const N: usize>(
        &self,
        level_ends: &[usize],
        words: &ToggleWords<'_>,
        bins: &mut [ChargeBins],
        starts: &[usize],
        first: usize,
    ) {
        let (sets, lanes, shared) = (self.sets, words.lanes(), words.shared());
        let (toggled0, values0) = words.lane0();
        let mut acc = [[0.0; N]; LANES];
        let mut lo = 0;
        for (level, &hi) in level_ends.iter().enumerate() {
            let run = lo..hi;
            lo = hi;
            if run.is_empty() {
                continue;
            }
            let (first_word, last_word) = (run.start / LANES, (run.end - 1) / LANES);
            let in_level = |b: usize, mut t: u64| {
                if b == first_word {
                    t &= u64::MAX << (run.start % LANES);
                }
                if b == last_word {
                    t &= u64::MAX >> (LANES - 1 - (run.end - 1) % LANES);
                }
                t
            };
            let mut common = [0.0; N];
            if level == 0 {
                common.copy_from_slice(&self.clock_amp[first..first + N]);
            }
            let mut any = false;
            let mut b = first_word;
            while b <= last_word && shared[b] {
                let t = in_level(b, toggled0[b]);
                any |= t != 0;
                self.add_word(&mut common, b, t, values0[b], first);
                b += 1;
            }
            if b > last_word {
                if any {
                    for (bins, &start) in bins.iter_mut().zip(starts) {
                        bins.store(start + level * sets, sets, first, &common);
                    }
                }
                continue;
            }
            let acc = &mut acc[..lanes];
            acc.fill(common);
            // Bit `j`: lane `j`'s bin at this level holds a toggle.
            let mut touched = if any { u64::MAX } else { 0 };
            while b <= last_word {
                if shared[b] {
                    let mut t = in_level(b, toggled0[b]);
                    if t != 0 {
                        touched = u64::MAX;
                    }
                    let v = values0[b];
                    while t != 0 {
                        let i = t.trailing_zeros() as usize;
                        t &= t - 1;
                        let deposit =
                            self.deposit::<N>(b * LANES + i, (v >> i & 1) as usize, first);
                        for acc in acc.iter_mut() {
                            for (a, d) in acc.iter_mut().zip(deposit) {
                                *a += d;
                            }
                        }
                    }
                    b += 1;
                    continue;
                }
                // Source by source: both edges' deposits once, then the
                // one its new value picks into every lane it toggled in.
                // Each lane still adds its toggles in source order.
                let (masks, news) = words.masks(b);
                let base = b * LANES;
                for i in run.start.max(base) - base..run.end.min(base + LANES) - base {
                    let mut lanes = masks[i];
                    if lanes == 0 {
                        continue;
                    }
                    touched |= lanes;
                    let rising = news[i];
                    let edges = [0, 1].map(|edge| self.deposit::<N>(base + i, edge, first));
                    while lanes != 0 {
                        let j = lanes.trailing_zeros() as usize;
                        lanes &= lanes - 1;
                        let deposit = &edges[(rising >> j & 1) as usize];
                        for (a, d) in acc[j].iter_mut().zip(deposit) {
                            *a += d;
                        }
                    }
                }
                b += 1;
            }
            for (lane, ((bins, &start), acc)) in bins.iter_mut().zip(starts).zip(acc).enumerate() {
                if touched >> lane & 1 != 0 {
                    bins.store(start + level * sets, sets, first, acc);
                }
            }
        }
    }

    /// Bins every cycle of a stored recording, each as a one-lane edge
    /// of [`Self::bin_words`], so a stored cycle bins to the same bits as
    /// the streamed edge it was recorded from. With `workers > 1` the
    /// cycles are split into one chunk per worker and the chunks' bins
    /// concatenated in order; bins are per cycle, so the result is the
    /// same bits for every `workers`.
    ///
    /// # Panics
    ///
    /// Panics if the table was compiled for another netlist than the one
    /// `activity` was recorded on.
    pub fn bin_trace(&self, activity: &ActivityTrace, workers: usize) -> ChargeBins {
        let cycles = activity.cycle_count();
        let bin = |range: std::ops::Range<usize>| {
            let mut bins = self.bins();
            for k in range {
                self.bin_words(activity.cycle(k).words(), std::slice::from_mut(&mut bins));
            }
            bins
        };
        let chunk = cycles.div_ceil(workers.max(1)).max(1);
        if chunk >= cycles {
            return bin(0..cycles);
        }
        let parts = emtrust_dsp::parallel::chunked_map(cycles, chunk, workers, |r| vec![bin(r)]);
        let mut bins = self.bins();
        for part in parts {
            bins.append(part);
        }
        bins
    }

    /// Renders one current per weight set: the set's leakage floor, one
    /// deposit per bin at `k·spc + (l + ½)·τ/dt` (split linearly over the
    /// two nearest samples, charge-conserving), then the cycle's extra
    /// leakage times the set's mean weight.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::InvalidParameter`] if `bins` were made for
    /// another number of weight sets, and [`PowerError::LengthMismatch`]
    /// if `extra_leakage_a` doesn't cover every binned cycle.
    pub fn render(
        &self,
        bins: &ChargeBins,
        extra_leakage_a: Option<&[f64]>,
    ) -> Result<Vec<CurrentTrace>, PowerError> {
        if bins.sets != self.sets {
            return Err(PowerError::InvalidParameter {
                what: "charge bins were made for another number of weight sets",
            });
        }
        let cycles = bins.cycles();
        if let Some(l) = extra_leakage_a {
            if l.len() != cycles {
                return Err(PowerError::LengthMismatch {
                    expected: cycles,
                    actual: l.len(),
                });
            }
        }
        let spc = self.samples_per_cycle;
        let n_samples = cycles * spc;
        let dt = 1.0 / self.sample_rate_hz;
        let levels = (0..cycles).map(|k| bins.cycle(k).len()).max().unwrap_or(0) / self.sets;
        let offsets: Vec<(usize, f64)> = (0..levels)
            .map(|l| {
                let pos = ((l as f64 + 0.5) * self.gate_delay_s) / dt;
                (pos.floor() as usize, pos - pos.floor())
            })
            .collect();
        let traces = (0..self.sets)
            .map(|s| {
                let mut out = vec![self.leakage_a[s]; n_samples];
                for k in 0..cycles {
                    let base = k * spc;
                    let level_sums = bins.cycle(k).iter().skip(s).step_by(self.sets);
                    for (&amp, &(idx, frac)) in level_sums.zip(&offsets) {
                        if amp == 0.0 {
                            continue;
                        }
                        let idx = base + idx;
                        if idx < n_samples {
                            out[idx] += amp * (1.0 - frac);
                        }
                        if idx + 1 < n_samples {
                            out[idx + 1] += amp * frac;
                        }
                    }
                    if let Some(extra) = extra_leakage_a {
                        let add = extra[k] * self.mean_weight[s];
                        if add != 0.0 {
                            for v in &mut out[base..base + spc] {
                                *v += add;
                            }
                        }
                    }
                }
                CurrentTrace::new(out, self.sample_rate_hz)
            })
            .collect();
        Ok(traces)
    }
}

/// Per-cycle charge bins: for every cycle, one summed deposit amplitude
/// per (switching level, weight set), level-major. A cycle's bins span
/// its levels up to the highest one that toggled (at least level 0,
/// which holds the clock edge).
///
/// Made by [`ChargeTable::bins`] and filled by [`ChargeTable::bin_words`]
/// or [`ChargeTable::bin_trace`]; an encryption's bins are about 200
/// values per set, where its events would be tens of thousands.
#[derive(Debug, Clone, PartialEq)]
pub struct ChargeBins {
    sets: usize,
    /// Per cycle: the offset of its level-0 bin in `sums`.
    starts: Vec<usize>,
    /// `sums[start + level·sets + s]`.
    sums: Vec<f64>,
}

impl ChargeBins {
    /// Opens the next cycle with the clock edge's level-0 bins
    /// `clock_amp` and returns where it starts in `sums`.
    fn open(&mut self, clock_amp: &[f64]) -> usize {
        let start = self.sums.len();
        self.starts.push(start);
        self.sums.extend_from_slice(clock_amp);
        start
    }

    /// Writes `values` to sets `first..` of the `sets` bins from `bin`,
    /// growing the open cycle over the levels up to them (the levels in
    /// between stay 0).
    fn store(&mut self, bin: usize, sets: usize, first: usize, values: &[f64]) {
        if bin + sets > self.sums.len() {
            self.sums.resize(bin + sets, 0.0);
        }
        self.sums[bin + first..bin + first + values.len()].copy_from_slice(values);
    }

    /// Releases the capacity binning reserved beyond the bins' cycles,
    /// for bins that are kept.
    pub fn shrink_to_fit(&mut self) {
        self.starts.shrink_to_fit();
        self.sums.shrink_to_fit();
    }

    /// Number of binned cycles.
    pub fn cycles(&self) -> usize {
        self.starts.len()
    }

    /// Cycle `k`'s bins, level-major: `[level·sets + s]`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.cycles()`.
    pub fn cycle(&self, k: usize) -> &[f64] {
        let end = self.starts.get(k + 1).copied().unwrap_or(self.sums.len());
        &self.sums[self.starts[k]..end]
    }

    /// Appends another run of cycles after this one's (the bins of the
    /// next block of a window).
    ///
    /// # Panics
    ///
    /// Panics if `other` has another number of weight sets.
    pub fn append(&mut self, other: ChargeBins) {
        assert_eq!(self.sets, other.sets, "appending bins of another table");
        let offset = self.sums.len();
        self.starts.extend(other.starts.iter().map(|s| s + offset));
        self.sums.extend(other.sums);
    }
}

/// Deposits a charge impulse at `t` seconds into the cycle starting at
/// sample `base`, as current split linearly over the two nearest samples
/// (charge-conserving).
fn deposit(samples: &mut [f64], dt: f64, base: usize, t: f64, charge_c: f64) {
    if samples.is_empty() || charge_c == 0.0 {
        return;
    }
    let pos = t / dt;
    let idx = base + pos.floor() as usize;
    let frac = pos - pos.floor();
    let amp = charge_c / dt;
    if idx < samples.len() {
        samples[idx] += amp * (1.0 - frac);
    }
    if idx + 1 < samples.len() {
        samples[idx + 1] += amp * frac;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emtrust_netlist::graph::Netlist;
    use emtrust_sim::engine::Simulator;
    use emtrust_sim::ToggleEvent;

    /// A table's amplitudes in cell order, the rows the tables that
    /// `CurrentModel::synthesize_*` compiled for a recording kept
    /// (`Rows::Cells`) while recordings stored one event per toggle.
    fn cell_rows(table: &ChargeTable) -> Vec<f64> {
        let sets = table.sets;
        let mut amps = vec![0.0; table.amps.len()];
        for (cell, row) in amps.chunks_exact_mut(sets).enumerate() {
            let at = table.rows.row(cell) * sets;
            row.copy_from_slice(&table.amps[at..at + sets]);
        }
        amps
    }

    /// The event walk that binned a stored cycle while recordings stored
    /// one event per toggle, kept as the oracle of the word kernel: the
    /// clock edge opens the level-0 bin, then every event adds its
    /// amplitudes (`amps`, in cell order) to its level's bin, in the order
    /// given.
    fn bin_cycle(table: &ChargeTable, amps: &[f64], events: &[ToggleEvent], bins: &mut ChargeBins) {
        let start = bins.open(&table.clock_amp);
        table.bin_groups(
            bins,
            |bins, first| bin_events_group::<8>(table, amps, events, bins, start, first),
            |bins, first| bin_events_group::<1>(table, amps, events, bins, start, first),
        );
    }

    /// [`bin_cycle`] for sets `first..first + N` of the cycle whose
    /// level-0 bin starts at `start`.
    fn bin_events_group<const N: usize>(
        table: &ChargeTable,
        amps: &[f64],
        events: &[ToggleEvent],
        bins: &mut ChargeBins,
        start: usize,
        first: usize,
    ) {
        let sets = table.sets;
        let mut level = 0;
        let mut at = start + first;
        let mut acc = [0.0; N];
        acc.copy_from_slice(&bins.sums[at..at + N]);
        for e in events {
            if e.level != level {
                bins.sums[at..at + N].copy_from_slice(&acc);
                level = e.level;
                let bin = start + level as usize * sets;
                if bin + sets > bins.sums.len() {
                    bins.sums.resize(bin + sets, 0.0);
                }
                at = bin + first;
                acc.copy_from_slice(&bins.sums[at..at + N]);
            }
            let base = e.cell.index() * sets + first;
            let edge = EDGE[usize::from(e.rising)];
            for (a, &amp) in acc.iter_mut().zip(&amps[base..base + N]) {
                *a += amp * edge;
            }
        }
        bins.sums[at..at + N].copy_from_slice(&acc);
    }

    /// [`bin_cycle`] over every cycle of `cycles`, each a list of events.
    fn bin_events(table: &ChargeTable, cycles: &[Vec<ToggleEvent>]) -> ChargeBins {
        let amps = cell_rows(table);
        let mut bins = table.bins();
        for events in cycles {
            bin_cycle(table, &amps, events, &mut bins);
        }
        bins
    }

    /// A recording's cycles, decoded into events.
    fn decoded(activity: &ActivityTrace) -> Vec<Vec<ToggleEvent>> {
        activity.cycles().map(|c| c.events().collect()).collect()
    }

    fn toggle_netlist() -> Netlist {
        let mut n = Netlist::new("toggle");
        let (q, d) = n.dff_deferred();
        let nq = n.not(q);
        n.connect_dff_d(d, nq);
        n.mark_output("q", q);
        n
    }

    fn record(n: &Netlist, cycles: usize) -> ActivityTrace {
        let mut sim = Simulator::new(n).unwrap();
        sim.settle();
        sim.start_recording();
        sim.run(cycles);
        sim.take_recording()
    }

    fn model() -> CurrentModel {
        CurrentModel::new(Library::generic_180nm(), ClockConfig::reference())
    }

    #[test]
    fn trace_length_matches_cycles_times_spc() {
        let n = toggle_netlist();
        let act = record(&n, 5);
        let t = model().synthesize_with(&n, &act, None, None, 1).unwrap();
        assert_eq!(t.len(), 5 * 64);
        assert_eq!(t.sample_rate_hz(), 640e6);
    }

    #[test]
    fn charge_accounting_is_conserved() {
        let n = toggle_netlist();
        let act = record(&n, 4);
        let t = model().synthesize_with(&n, &act, None, None, 1).unwrap();
        let lib = Library::generic_180nm();
        // Expected: per cycle, clock load + dff toggle + inverter toggle
        // (alternating rise/fall) + leakage.
        let q_dff = lib.charge_per_transition_c(CellKind::Dff);
        let q_inv = lib.charge_per_transition_c(CellKind::Inv);
        let clock = 4.0 * q_dff * CLOCK_LOAD_FRACTION;
        // 2 rising + 2 falling for each of dff and inv over 4 cycles.
        let data = 2.0 * (q_dff + q_inv) * (1.0 + FALL_CHARGE_FRACTION);
        let leak = (0.35e-9 + 0.05e-9) * t.duration_s();
        let expect = clock + data + leak;
        assert!(
            (t.total_charge_c() - expect).abs() < 0.05 * expect,
            "charge {} vs expected {}",
            t.total_charge_c(),
            expect
        );
    }

    #[test]
    fn more_activity_means_more_charge() {
        // A 4-flop toggle bank vs a single toggle flop.
        let mut big = Netlist::new("bank");
        for _ in 0..4 {
            let (q, d) = big.dff_deferred();
            let nq = big.not(q);
            big.connect_dff_d(d, nq);
            big.mark_output("q", q);
        }
        let small = toggle_netlist();
        let act_big = record(&big, 4);
        let act_small = record(&small, 4);
        let m = model();
        let tb = m.synthesize_with(&big, &act_big, None, None, 1).unwrap();
        let ts = m
            .synthesize_with(&small, &act_small, None, None, 1)
            .unwrap();
        assert!(tb.total_charge_c() > 2.0 * ts.total_charge_c());
    }

    #[test]
    fn weights_scale_contributions() {
        let n = toggle_netlist();
        let act = record(&n, 4);
        let m = model();
        let unweighted = m.synthesize_with(&n, &act, None, None, 1).unwrap();
        let w = vec![0.5; n.cell_count()];
        let weighted = m.synthesize_with(&n, &act, Some(&w), None, 1).unwrap();
        assert!(
            (weighted.total_charge_c() - 0.5 * unweighted.total_charge_c()).abs()
                < 1e-6 * unweighted.total_charge_c()
        );
    }

    #[test]
    fn zero_weights_leave_only_nothing() {
        let n = toggle_netlist();
        let act = record(&n, 2);
        let w = vec![0.0; n.cell_count()];
        let t = model()
            .synthesize_with(&n, &act, Some(&w), None, 1)
            .unwrap();
        assert!(t.samples().iter().all(|&x| x.abs() < 1e-18));
    }

    #[test]
    fn extra_leakage_raises_the_floor() {
        let n = toggle_netlist();
        let act = record(&n, 4);
        let m = model();
        let base = m.synthesize_with(&n, &act, None, None, 1).unwrap();
        let extra = vec![1e-6; 4]; // 1 µA for every cycle
        let with = m.synthesize_with(&n, &act, None, Some(&extra), 1).unwrap();
        let delta = with.total_charge_c() - base.total_charge_c();
        let expect = 1e-6 * with.duration_s();
        assert!((delta - expect).abs() < 0.01 * expect);
    }

    #[test]
    fn wrong_vector_lengths_are_rejected() {
        let n = toggle_netlist();
        let act = record(&n, 2);
        let m = model();
        assert!(matches!(
            m.synthesize_with(&n, &act, Some(&[1.0]), None, 1),
            Err(PowerError::LengthMismatch { .. })
        ));
        assert!(matches!(
            m.synthesize_with(&n, &act, None, Some(&[0.0]), 1),
            Err(PowerError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn clock_pulse_lands_at_cycle_start() {
        let n = toggle_netlist();
        let act = record(&n, 1);
        let t = model().synthesize_with(&n, &act, None, None, 1).unwrap();
        // The biggest sample should be among the first few of the cycle
        // (clock edge + level-0/1 toggles near the edge).
        let (max_idx, _) = t
            .samples()
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        assert!(max_idx < 8, "peak at sample {max_idx}");
    }

    #[test]
    fn chunked_synthesis_is_bit_identical_for_any_worker_count() {
        // 200 cycles bin in one chunk per worker.
        let n = toggle_netlist();
        let act = record(&n, 200);
        let m = model();
        let reference = m.synthesize_with(&n, &act, None, None, 1).unwrap();
        for workers in [2, 3, 8] {
            let par = m.synthesize_with(&n, &act, None, None, workers).unwrap();
            assert_eq!(par.len(), reference.len());
            for (a, b) in par.samples().iter().zip(reference.samples()) {
                assert_eq!(a.to_bits(), b.to_bits(), "workers={workers}");
            }
        }
    }

    #[test]
    fn single_chunk_synthesis_matches_legacy_serial_numerics() {
        let n = toggle_netlist();
        let act = record(&n, 12);
        let m = model();
        let serial = m.synthesize_with(&n, &act, None, None, 1).unwrap();
        let par = m.synthesize_with(&n, &act, None, None, 8).unwrap();
        for (a, b) in par.samples().iter().zip(serial.samples()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn multi_synthesis_is_bit_identical_to_separate_calls() {
        let n = toggle_netlist();
        let act = record(&n, 200); // bins in one chunk per worker
        let m = model();
        let w_half = vec![0.5; n.cell_count()];
        let w_ramp: Vec<f64> = (0..n.cell_count()).map(|i| 0.1 + i as f64).collect();
        let w_one = vec![1.0; n.cell_count()];
        let extra = vec![1e-6; 200];
        let sets: Vec<&[f64]> = vec![&w_half, &w_ramp, &w_one];
        for workers in [1, 4] {
            let multi = m
                .synthesize_multi(&n, &act, &sets, Some(&extra), workers)
                .unwrap();
            assert_eq!(multi.len(), 3);
            for (set, got) in sets.iter().zip(&multi) {
                let alone = m
                    .synthesize_with(&n, &act, Some(set), Some(&extra), workers)
                    .unwrap();
                assert_eq!(got.len(), alone.len());
                for (a, b) in got.samples().iter().zip(alone.samples()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "workers={workers}");
                }
            }
        }
    }

    #[test]
    fn multi_synthesis_single_chunk_matches_too() {
        let n = toggle_netlist();
        let act = record(&n, 12);
        let m = model();
        let w = vec![0.25; n.cell_count()];
        let multi = m.synthesize_multi(&n, &act, &[&w], None, 1).unwrap();
        let alone = m.synthesize_with(&n, &act, Some(&w), None, 1).unwrap();
        for (a, b) in multi[0].samples().iter().zip(alone.samples()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn multi_synthesis_rejects_bad_input() {
        let n = toggle_netlist();
        let act = record(&n, 2);
        let m = model();
        assert!(matches!(
            m.synthesize_multi(&n, &act, &[], None, 1),
            Err(PowerError::InvalidParameter { .. })
        ));
        let short = [1.0];
        assert!(matches!(
            m.synthesize_multi(&n, &act, &[&short], None, 1),
            Err(PowerError::LengthMismatch { .. })
        ));
    }

    /// The largest sample difference between two traces relative to the
    /// peak |sample| of `reference`, and the relative total-charge gap.
    fn gap_to(reference: &CurrentTrace, got: &CurrentTrace) -> (f64, f64) {
        assert_eq!(got.len(), reference.len());
        let peak = reference
            .samples()
            .iter()
            .fold(0.0f64, |m, x| m.max(x.abs()));
        let worst = got
            .samples()
            .iter()
            .zip(reference.samples())
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
        let (qa, qb) = (got.total_charge_c(), reference.total_charge_c());
        (worst / peak, (qa - qb).abs() / qb.abs())
    }

    #[test]
    fn binned_synthesis_stays_within_1e_12_of_the_per_event_reference() {
        let n = toggle_netlist();
        let m = model();
        let w_ramp: Vec<f64> = (0..n.cell_count()).map(|i| 0.3 + 0.7 * i as f64).collect();
        for cycles in [12usize, 200] {
            let act = record(&n, cycles);
            let extra: Vec<f64> = (0..cycles).map(|k| 1e-7 * k as f64).collect();
            type Variant<'a> = (Option<&'a [f64]>, Option<&'a [f64]>);
            let variants: [Variant<'_>; 3] = [
                (None, None),
                (Some(&w_ramp), None),
                (Some(&w_ramp), Some(&extra)),
            ];
            for (weights, leak) in variants {
                let fast = m.synthesize_with(&n, &act, weights, leak, 1).unwrap();
                let reference = m.synthesize_reference(&n, &act, weights, leak).unwrap();
                let (sample_gap, charge_gap) = gap_to(&reference, &fast);
                assert!(sample_gap <= 1e-12, "cycles={cycles}: {sample_gap:e}");
                assert!(charge_gap <= 1e-12, "cycles={cycles}: {charge_gap:e}");
            }
        }
    }

    /// A design with toggles on many levels: a free-running 3-bit
    /// counter and two random inputs feed an XOR/NAND ladder whose
    /// outputs are registered again.
    fn ladder_netlist() -> (Netlist, [emtrust_netlist::graph::NetId; 2]) {
        let mut n = Netlist::new("ladder");
        let a = n.input("a");
        let b = n.input("b");
        let (q0, d0) = n.dff_deferred();
        let (q1, d1) = n.dff_deferred();
        let (q2, d2) = n.dff_deferred();
        let nq0 = n.not(q0);
        let c1 = n.xor2(q1, q0);
        let carry = n.and2(q1, q0);
        let c2 = n.xor2(q2, carry);
        n.connect_dff_d(d0, nq0);
        n.connect_dff_d(d1, c1);
        n.connect_dff_d(d2, c2);
        let mut x = n.xor2(a, q0);
        for i in 0..10 {
            let y = if i % 2 == 0 {
                n.xor2(x, b)
            } else {
                n.nand2(x, q2)
            };
            x = n.xor2(y, if i % 3 == 0 { q1 } else { a });
        }
        let r = n.dff(x);
        n.mark_output("r", r);
        (n, [a, b])
    }

    fn record_ladder(
        n: &Netlist,
        ins: [emtrust_netlist::graph::NetId; 2],
        cycles: usize,
        seed: u64,
    ) -> ActivityTrace {
        let mut sim = Simulator::new(n).unwrap();
        sim.settle();
        sim.start_recording();
        let mut x = seed | 1;
        for _ in 0..cycles {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            sim.set_input(ins[0], x & 1 != 0);
            sim.set_input(ins[1], x & 2 != 0);
            sim.step();
        }
        sim.take_recording()
    }

    #[test]
    fn bins_sum_in_serial_event_order() {
        // Weights spanning twelve decades make the sums order-sensitive:
        // each bin must be the left fold of its events in stream order,
        // bit for bit, starting from the clock edge at level 0.
        let (n, ins) = ladder_netlist();
        let act = record_ladder(&n, ins, 24, 5);
        let w: Vec<f64> = (0..n.cell_count())
            .map(|i| 10f64.powi((i * 7 % 13) as i32 - 6) * (1.0 + i as f64 / 7.0))
            .collect();
        let table = model().charge_table(&n, &[Some(&w)]).unwrap();
        let bins = table.bin_trace(&act, 1);
        let amp = |e: &ToggleEvent| {
            table.amps[table.rows.row(e.cell.index())]
                * if e.rising { 1.0 } else { FALL_CHARGE_FRACTION }
        };
        let mut reordered = false;
        for (k, cycle) in decoded(&act).iter().enumerate() {
            let got = bins.cycle(k);
            for (level, &sum) in got.iter().enumerate() {
                let events = cycle.iter().filter(|e| e.level as usize == level);
                let start = if level == 0 { table.clock_amp[0] } else { 0.0 };
                let forward = events.clone().fold(start, |acc, e| acc + amp(e));
                let backward = events.rev().fold(start, |acc, e| acc + amp(e));
                assert_eq!(sum.to_bits(), forward.to_bits(), "cycle {k} level {level}");
                reordered |= forward.to_bits() != backward.to_bits();
            }
        }
        assert!(reordered, "the weights must make summation order visible");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        #[test]
        fn binned_renderer_is_bounded_by_the_per_event_oracle(
            seed in 1u64..u64::MAX,
            sets in 1usize..=8,
            cycles_pick in 0usize..4,
            leak_pick in 0u8..2,
        ) {
            let cycles = [1usize, 12, 65, 200][cycles_pick];
            let (n, ins) = ladder_netlist();
            let act = record_ladder(&n, ins, cycles, seed);
            let mut x = seed;
            let mut next = || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 11) as f64 / (1u64 << 53) as f64
            };
            let weight_sets: Vec<Vec<f64>> = (0..sets)
                .map(|_| (0..n.cell_count()).map(|_| 0.01 + 2.0 * next()).collect())
                .collect();
            let leak: Vec<f64> = (0..cycles)
                .map(|_| if next() < 0.5 { 0.0 } else { 1e-4 * next() })
                .collect();
            let leak = (leak_pick == 1).then_some(leak.as_slice());
            let refs: Vec<&[f64]> = weight_sets.iter().map(Vec::as_slice).collect();
            let m = model();
            let binned = m.synthesize_multi(&n, &act, &refs, leak, 1).unwrap();
            for (w, got) in refs.iter().zip(&binned) {
                let oracle = m.synthesize_reference(&n, &act, Some(w), leak).unwrap();
                let (sample_gap, charge_gap) = gap_to(&oracle, got);
                proptest::prop_assert!(sample_gap <= 1e-12, "sample gap {:e}", sample_gap);
                proptest::prop_assert!(charge_gap <= 1e-12, "charge gap {:e}", charge_gap);
            }
        }
    }

    /// One AES core for the word-sink tests, generated once.
    fn aes() -> &'static emtrust_aes::AesHarness {
        static AES: std::sync::OnceLock<emtrust_aes::AesHarness> = std::sync::OnceLock::new();
        AES.get_or_init(emtrust_aes::AesHarness::new)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2))]

        #[test]
        fn word_sink_bins_and_counts_equal_the_recorded_events(seed in 1u64..u64::MAX) {
            use emtrust_aes::netlist::{run_encryptions, run_encryptions_stepped};
            use emtrust_sim::ToggleActivity;
            let aes = aes();
            let n = aes.netlist();
            let mut x = seed;
            let mut next = || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            // Weights over twelve decades make each bin's summation
            // order visible in its bits.
            let weight_sets: Vec<Vec<f64>> = (0..8)
                .map(|_| {
                    (0..n.cell_count())
                        .map(|_| 10f64.powi((next() % 13) as i32 - 6) * (1.0 + (next() % 97) as f64 / 7.0))
                        .collect()
                })
                .collect();
            for lanes in [1usize, 2, 16, 64] {
                // Three encryptions per lane, each from the state the one
                // before left: first one plaintext in every lane (every
                // block shared), then lanes that draw from three
                // plaintexts (equal plaintexts after unequal states),
                // then one plaintext per lane.
                let rounds: Vec<Vec<[u8; 16]>> = [1, 3, lanes]
                    .into_iter()
                    .map(|distinct| {
                        let pool: Vec<[u8; 16]> = (0..distinct)
                            .map(|_| (u128::from(next()) << 64 | u128::from(next())).to_le_bytes())
                            .collect();
                        (0..lanes).map(|_| pool[next() as usize % distinct]).collect()
                    })
                    .collect();
                let key = (u128::from(next()) << 64 | u128::from(next())).to_le_bytes();
                for sets in [1usize, 8] {
                    let refs: Vec<Option<&[f64]>> =
                        weight_sets[..sets].iter().map(|w| Some(w.as_slice())).collect();
                    let table = model().charge_table(n, &refs).unwrap();
                    let amps = cell_rows(&table);
                    let mut sim = aes.simulator().unwrap();
                    let mut words_bins = vec![table.bins(); lanes];
                    let mut events_bins = vec![table.bins(); lanes];
                    let mut counts = ToggleActivity::new();
                    let mut shared = 0;
                    for pts in &rounds {
                        let _ = run_encryptions_stepped(&mut sim, aes.ports(), key, pts, |s| {
                            s.step_words(|words| {
                                table.bin_words(words, &mut words_bins);
                                for (lane, bins) in events_bins.iter_mut().enumerate() {
                                    bin_cycle(&table, &amps, &words.events(lane), bins);
                                }
                                counts.absorb_words(words);
                                shared += words.shared().iter().filter(|&&s| s).count();
                            })
                        });
                    }
                    proptest::prop_assert!(shared > 0, "no block was shared");
                    proptest::prop_assert_eq!(&words_bins, &events_bins);
                    let mut recorder = aes.simulator().unwrap();
                    let mut recordings = vec![ActivityTrace::new(); lanes];
                    for pts in &rounds {
                        recorder.start_recording();
                        let _ = run_encryptions(&mut recorder, aes.ports(), key, pts);
                        for (all, trace) in recordings.iter_mut().zip(recorder.take_lane_recordings()) {
                            all.extend_from(trace);
                        }
                    }
                    let mut expected = ToggleActivity::new();
                    for (bins, recorded) in words_bins.iter().zip(&recordings) {
                        proptest::prop_assert_eq!(bins, &table.bin_trace(recorded, 1));
                        expected.absorb(recorded);
                    }
                    proptest::prop_assert_eq!(&counts, &expected);
                    proptest::prop_assert_eq!(counts.cell_count(), expected.cell_count());
                }
            }
        }
    }

    /// A random sequential netlist and its inputs: up to 6 inputs, 24
    /// flip-flops and 160 gates of every combinational kind, each gate
    /// reading nets made before it and each flop any net.
    fn random_netlist(
        rng: &mut rand::rngs::StdRng,
    ) -> (Netlist, Vec<emtrust_netlist::graph::NetId>) {
        use emtrust_netlist::cell::ALL_KINDS;
        use rand::Rng;
        let mut n = Netlist::new("random");
        let inputs = n.input_bus("i", rng.gen_range(1..=6));
        let mut nets = inputs.clone();
        let flops: Vec<_> = (0..rng.gen_range(0..=24))
            .map(|_| n.dff_deferred())
            .collect();
        nets.extend(flops.iter().map(|(q, _)| *q));
        let kinds: Vec<CellKind> = ALL_KINDS
            .into_iter()
            .filter(|k| !k.is_sequential() && k.arity() > 0)
            .collect();
        for _ in 0..rng.gen_range(1..=160) {
            let kind = kinds[rng.gen_range(0..kinds.len())];
            let ins: Vec<_> = (0..kind.arity())
                .map(|_| nets[rng.gen_range(0..nets.len())])
                .collect();
            let y = n.gate(kind, &ins);
            nets.push(y);
        }
        for (_, d) in flops {
            let net = nets[rng.gen_range(0..nets.len())];
            n.connect_dff_d(d, net);
        }
        n.mark_output("y", nets[nets.len() - 1]);
        (n, inputs)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        #[test]
        fn stored_words_bin_and_decode_like_the_event_walk(
            seed in 1u64..u64::MAX,
            lanes in 1usize..=LANES,
            sets in 1usize..=9,
            workers in 1usize..=8,
            cycles in 1usize..=40,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let (n, inputs) = random_netlist(&mut rng);
            // Each edge's lanes draw their inputs from a pool of 1 to
            // `lanes` words, so some edges share every block and others
            // few.
            let stimulus: Vec<Vec<u128>> = (0..cycles)
                .map(|_| {
                    let pool: Vec<u128> = (0..rng.gen_range(1..=lanes))
                        .map(|_| u128::from(rng.gen::<u64>()))
                        .collect();
                    (0..lanes).map(|_| pool[rng.gen_range(0..pool.len())]).collect()
                })
                .collect();
            let mut recorder = Simulator::new(&n).unwrap();
            let mut streamer = Simulator::new(&n).unwrap();
            recorder.start_recording();
            let mut streamed: Vec<Vec<Vec<ToggleEvent>>> = vec![Vec::new(); lanes];
            for words in &stimulus {
                recorder.set_bus_lanes(&inputs, words);
                recorder.step();
                streamer.set_bus_lanes(&inputs, words);
                streamer.step_words(|words| {
                    for (lane, cycles) in streamed.iter_mut().enumerate() {
                        cycles.push(words.events(lane));
                    }
                });
            }
            let traces = recorder.take_lane_recordings();
            proptest::prop_assert_eq!(traces.len(), lanes);
            // Weights over twelve decades make each bin's summation order
            // visible in its bits.
            let weight_sets: Vec<Vec<f64>> = (0..sets)
                .map(|_| {
                    (0..n.cell_count())
                        .map(|_| 10f64.powi(rng.gen_range(0..13) - 6) * (1.0 + rng.gen::<f64>()))
                        .collect()
                })
                .collect();
            let refs: Vec<Option<&[f64]>> = weight_sets.iter().map(|w| Some(w.as_slice())).collect();
            let multi: Vec<&[f64]> = weight_sets.iter().map(Vec::as_slice).collect();
            let table = model().charge_table(&n, &refs).unwrap();
            for (lane, (trace, events)) in traces.iter().zip(&streamed).enumerate() {
                proptest::prop_assert_eq!(&decoded(trace), events, "lane {}", lane);
                let expected = bin_events(&table, events);
                proptest::prop_assert_eq!(&table.bin_trace(trace, workers), &expected, "lane {}", lane);
                let currents = model().synthesize_multi(&n, trace, &multi, None, workers).unwrap();
                for (got, want) in currents.iter().zip(table.render(&expected, None).unwrap()) {
                    let same = got.len() == want.len()
                        && got.samples().iter().zip(want.samples()).all(|(a, b)| a.to_bits() == b.to_bits());
                    proptest::prop_assert!(same, "lane {}: synthesize_multi", lane);
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(3))]

        /// The multi-lane fold against each lane's own recording, binned
        /// as one-lane edges (where every block is shared and no mask is
        /// read) and counted event by event.
        #[test]
        fn folded_lanes_bin_and_count_like_their_own_recordings(
            seed in 1u64..u64::MAX,
            lanes in 1usize..=LANES,
        ) {
            use emtrust_aes::netlist::{run_encryptions, run_encryptions_stepped};
            use emtrust_sim::ToggleActivity;
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let aes = aes();
            let n = aes.netlist();
            // Two encryptions per lane, the second from the state the
            // first left. Each draws its lanes' plaintexts from a pool
            // of 2 to `lanes`, so some lanes encrypt equal plaintexts
            // and others distinct ones: the key schedule's blocks are
            // shared, the data path's mostly not.
            let block = |rng: &mut rand::rngs::StdRng| {
                (u128::from(rng.gen::<u64>()) << 64 | u128::from(rng.gen::<u64>())).to_le_bytes()
            };
            let pools: Vec<Vec<[u8; 16]>> = (0..2)
                .map(|_| (0..rng.gen_range(2..=lanes.max(2))).map(|_| block(&mut rng)).collect())
                .collect();
            let key = block(&mut rng);
            let rounds: Vec<Vec<[u8; 16]>> = pools
                .iter()
                .map(|pool| {
                    (0..lanes).map(|_| pool[rng.gen_range(0..pool.len())]).collect()
                })
                .collect();
            // Weights over twelve decades make each bin's summation order
            // visible in its bits. One table per set count: 1, the 8 of
            // one register group, and 9, which adds a lone set.
            let weight_sets: Vec<Vec<f64>> = (0..9)
                .map(|_| {
                    (0..n.cell_count())
                        .map(|_| 10f64.powi(rng.gen_range(0..13) - 6) * (1.0 + rng.gen::<f64>()))
                        .collect()
                })
                .collect();
            let refs: Vec<Option<&[f64]>> = weight_sets.iter().map(|w| Some(w.as_slice())).collect();
            let tables: Vec<ChargeTable> = [1, 8, 9]
                .into_iter()
                .map(|sets| model().charge_table(n, &refs[..sets]).unwrap())
                .collect();
            let mut sim = aes.simulator().unwrap();
            let mut bins: Vec<Vec<ChargeBins>> = tables.iter().map(|t| vec![t.bins(); lanes]).collect();
            let mut counts = ToggleActivity::new();
            let mut mixed = 0;
            for pts in &rounds {
                let _ = run_encryptions_stepped(&mut sim, aes.ports(), key, pts, |s| {
                    s.step_words(|words| {
                        for (table, bins) in tables.iter().zip(&mut bins) {
                            table.bin_words(words, bins);
                        }
                        counts.absorb_words(words);
                        let shared = words.shared();
                        mixed += usize::from(shared.contains(&true) && shared.contains(&false));
                    })
                });
            }
            let distinct = rounds.iter().any(|pts| pts.iter().any(|pt| *pt != pts[0]));
            proptest::prop_assert!(mixed > 0 || !distinct, "no edge mixed shared and unshared blocks");
            let mut recorder = aes.simulator().unwrap();
            let mut recordings = vec![ActivityTrace::new(); lanes];
            for pts in &rounds {
                recorder.start_recording();
                let _ = run_encryptions(&mut recorder, aes.ports(), key, pts);
                for (all, trace) in recordings.iter_mut().zip(recorder.take_lane_recordings()) {
                    all.extend_from(trace);
                }
            }
            for (table, bins) in tables.iter().zip(&bins) {
                for (lane, (bins, recorded)) in bins.iter().zip(&recordings).enumerate() {
                    let sets = table.sets;
                    proptest::prop_assert_eq!(bins, &table.bin_trace(recorded, 1), "{} sets, lane {}", sets, lane);
                }
            }
            let mut expected = ToggleActivity::new();
            for recorded in &recordings {
                expected.absorb(recorded);
            }
            proptest::prop_assert_eq!(&counts, &expected);
        }
    }

    #[test]
    #[should_panic(expected = "another netlist")]
    fn binding_a_table_of_another_netlist_is_refused() {
        let (ladder, _) = ladder_netlist();
        let table = model().charge_table(&toggle_netlist(), &[None]).unwrap();
        let mut bins = table.bins();
        let mut sim = Simulator::new(&ladder).unwrap();
        sim.step_words(|words| table.bin_words(words, std::slice::from_mut(&mut bins)));
    }

    #[test]
    fn reference_path_rejects_bad_input_like_the_fast_path() {
        let n = toggle_netlist();
        let act = record(&n, 2);
        let m = model();
        assert!(matches!(
            m.synthesize_reference(&n, &act, Some(&[1.0]), None),
            Err(PowerError::LengthMismatch { .. })
        ));
        assert!(matches!(
            m.synthesize_reference(&n, &act, None, Some(&[0.0])),
            Err(PowerError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn deposit_conserves_charge_between_samples() {
        let mut s = vec![0.0; 4];
        deposit(&mut s, 1.0, 0, 1.25, 2.0);
        assert!((s[1] - 1.5).abs() < 1e-12);
        assert!((s[2] - 0.5).abs() < 1e-12);
        assert!((s.iter().sum::<f64>() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn deposit_at_the_edge_is_safe() {
        let mut s = vec![0.0; 2];
        deposit(&mut s, 1.0, 0, 5.0, 1.0); // beyond the buffer
        assert!(s.iter().all(|&x| x == 0.0));
        deposit(&mut s, 1.0, 1, 0.5, 1.0); // second half lands past the end
        assert!((s[1] - 0.5).abs() < 1e-12);
    }
}
