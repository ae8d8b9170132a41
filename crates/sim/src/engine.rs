//! The cycle-based simulation engine.
//!
//! A netlist is compiled once into a [`Program`]: flat arrays that hold,
//! in evaluation order, each combinational cell's 3-input truth table,
//! its input and output net indices, plus the flip-flop list and the
//! program's [`Sources`]. A [`Simulator`] runs a
//! program word-parallel: every net holds a `u64` whose bit *j* is the
//! net's value in **lane** *j*, one independent copy of the circuit. A
//! cell evaluates all [`LANES`] lanes with a handful of bitwise ops, and
//! its toggles are the mask `(old ^ new) & live`.
//!
//! The single-trace API is lane 0: [`Simulator::set_input`] and
//! [`Simulator::set_bus`] broadcast to every lane, [`Simulator::value`]
//! and [`Simulator::bus`] read lane 0, and a fresh simulator has lane 0
//! as its only live lane. [`Simulator::set_bus_lanes`] drives different
//! values per lane and makes those lanes live;
//! [`Simulator::take_lane_recordings`] returns one [`ActivityTrace`] per
//! live lane. Every lane's event stream is bit-identical to a serial run
//! of the same stimulus.
//!
//! An edge hands every live lane's toggles over at once as
//! [`ToggleWords`], from reused scratch, in blocks of 64 sources. A block
//! that every lane toggled alike is **shared**: one packed word pair,
//! one bit per source for "toggled" and one for its new value, stands
//! for every lane, and a sink does its work once for all the lanes. Any
//! other block stays as the kernel made it: per source, the mask of
//! lanes it toggled in and its new values. [`Simulator::step_words`]
//! streams the edges to the caller; [`Simulator::step`] with a recording
//! in progress gathers each live lane's own words of the unshared blocks
//! and appends them to that lane's [`ActivityTrace`].
//!
//! A [`Cone`] is the part of a circuit that some flops' next state
//! depends on ([`Program::cone`]). [`Simulator::step_cone`] runs it
//! forward alone, [`Simulator::cone_state`] snapshots its flops in lane
//! 0 and [`Simulator::load_cone`] puts one snapshot into each lane: the
//! way a history-carrying block of state is carried across lanes that
//! otherwise each replay from their own stimulus.

use crate::activity::{ActivityTrace, ToggleEvent};
use emtrust_netlist::graph::{CellId, NetId, Netlist};
use emtrust_netlist::level::Levels;
use emtrust_netlist::NetlistError;
use std::borrow::Cow;
use std::sync::Arc;

/// Lanes per simulator: one independent circuit copy per bit of a `u64`.
pub const LANES: usize = 64;

/// A netlist's toggle sources in the order a [`Simulator`] emits them:
/// every flip-flop in id order (level 0), then every combinational cell
/// in evaluation order (level `depth + 1`). Levels never decrease along
/// the order, so each level's sources form one run.
///
/// A [`Program`] holds its sources, and every [`ActivityTrace`] recorded
/// on it shares them. The power model lays its per-source data out in
/// the same order, computed from the netlist or a recording's sources,
/// and checks it against the words it bins by [`Self::digest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sources {
    /// Per source: the event it emits when it toggles, falling edge.
    events: Vec<ToggleEvent>,
    /// Per level `l`: one past the last level-`l` source.
    level_ends: Vec<usize>,
    /// FNV-1a over the netlist's cell count and every source's cell and
    /// level.
    digest: u64,
    /// Per block of 64 sources: `true`. The shared flags of a one-lane
    /// edge, where every block is shared.
    one_lane: Vec<bool>,
}

impl Sources {
    /// The sources of `netlist` under its levelization `levels`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DecreasingLevel`] if the evaluation order
    /// puts a cell below the level of the one before it.
    pub fn new(netlist: &Netlist, levels: &Levels) -> Result<Self, NetlistError> {
        let flops = netlist
            .cells()
            .filter(|(_, c)| c.kind().is_sequential())
            .map(|(cell, _)| (cell, 0));
        let gates = levels
            .eval_order()
            .iter()
            .map(|&cell| (cell, levels.level_of(cell) + 1));
        Self::from_order(netlist.cell_count(), flops.chain(gates))
    }

    /// The sources `(cell, level)` in emission order, of a netlist with
    /// `cells` cells.
    fn from_order(
        cells: usize,
        order: impl Iterator<Item = (CellId, u32)>,
    ) -> Result<Self, NetlistError> {
        const PRIME: u64 = 0x0000_0100_0000_01B3;
        let mix = |h: u64, x: u64| (h ^ x).wrapping_mul(PRIME);
        let mut digest = mix(0xCBF2_9CE4_8422_2325, cells as u64);
        let mut events = Vec::new();
        let mut level_ends: Vec<usize> = Vec::new();
        for (cell, level) in order {
            let l = level as usize;
            if l + 1 < level_ends.len() {
                return Err(NetlistError::DecreasingLevel {
                    cell: cell.index() as u32,
                });
            }
            // Levels with no source get empty runs.
            level_ends.resize(l + 1, events.len());
            events.push(ToggleEvent {
                cell,
                level,
                rising: false,
            });
            level_ends[l] = events.len();
            digest = mix(mix(digest, cell.index() as u64), u64::from(level));
        }
        let one_lane = vec![true; events.len().div_ceil(LANES)];
        Ok(Self {
            events,
            level_ends,
            digest,
            one_lane,
        })
    }

    /// Number of sources.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the netlist has no cell.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Per source, in order: the falling-edge event it emits.
    pub fn events(&self) -> &[ToggleEvent] {
        &self.events
    }

    /// Per level `l`: one past the last level-`l` source; level `l` is
    /// sources `level_ends[l - 1]..level_ends[l]` (from 0 for level 0).
    pub fn level_ends(&self) -> &[usize] {
        &self.level_ends
    }

    /// A fingerprint of the order: two netlists whose sources differ in
    /// any cell or level, or whose cell counts differ, almost surely get
    /// different digests.
    pub fn digest(&self) -> u64 {
        self.digest
    }
}

/// Every live lane's toggles of one clock edge, in blocks of 64 sources:
/// bit `i` of block `b` stands for source `64·b + i` of [`Self::sources`].
///
/// A block is **shared** when it toggled the same way in every live
/// lane: each source toggled in all of them or in none, with one new
/// value. A shared block is one packed word pair ([`Self::lane0`]): bit
/// `i` of its toggled word is set if source `64·b + i` toggled, and the
/// same bit of its value word is the new value (1: a rising edge); the
/// pair stands for every lane, so a sink can do the block's work once.
/// Any other block is laid out per source ([`Self::masks`]), as the
/// simulator evaluates it: a source's toggled mask has bit `j` set if it
/// toggled in live lane `j` (never a dead lane's bit), and its value
/// mask's bit `j` is its new value in lane `j`. No lane's own words of
/// such a block exist; [`Self::events`] and a recording gather them.
/// The flags are read off the toggle masks alone; a single live lane
/// shares every block.
#[derive(Debug, Clone, Copy)]
pub struct ToggleWords<'a> {
    sources: &'a Sources,
    lanes: usize,
    /// Per block: lane 0's toggled and value words; current in a shared
    /// block, stale in any other.
    toggled: &'a [u64],
    values: &'a [u64],
    /// The unshared blocks' masks, 64 per block in block order: each
    /// source's toggled lanes and new values (empty on a one-lane edge).
    lane_toggled: &'a [u64],
    lane_values: &'a [u64],
    /// Per block: where its masks start in `lane_toggled`, in blocks;
    /// current in an unshared block, stale in a shared one.
    slots: &'a [u32],
    /// Per block: whether it is shared.
    shared: &'a [bool],
}

impl<'a> ToggleWords<'a> {
    /// The words of a one-lane edge, every block shared.
    pub(crate) fn one_lane(sources: &'a Sources, toggled: &'a [u64], values: &'a [u64]) -> Self {
        Self {
            sources,
            lanes: 1,
            toggled,
            values,
            lane_toggled: &[],
            lane_values: &[],
            slots: &[],
            shared: &sources.one_lane[..toggled.len()],
        }
    }

    /// The sources the bits stand for.
    pub fn sources(&self) -> &'a Sources {
        self.sources
    }

    /// Number of live lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Per block of 64 sources: whether it is shared by every lane.
    pub fn shared(&self) -> &'a [bool] {
        self.shared
    }

    /// Per block, the packed toggled and value words that stand for every
    /// lane; only a shared block's are current.
    pub fn lane0(&self) -> (&'a [u64], &'a [u64]) {
        (self.toggled, self.values)
    }

    /// Unshared block `b`'s masks: at index `i`, the live lanes source
    /// `64·b + i` toggled in and its new value in each lane (0 past the
    /// last source). A shared block's are stale.
    ///
    /// # Panics
    ///
    /// May panic if block `b` is shared.
    pub fn masks(&self, b: usize) -> (&'a [u64; LANES], &'a [u64; LANES]) {
        let at = self.slots[b] as usize * LANES..(self.slots[b] as usize + 1) * LANES;
        let block = |masks: &'a [u64]| -> &'a [u64; LANES] {
            masks[at.clone()]
                .try_into()
                .unwrap_or_else(|_| unreachable!())
        };
        (block(self.lane_toggled), block(self.lane_values))
    }

    /// Every live lane's own toggled and value words of unshared block
    /// `b`, lane `j`'s at index `j` (the entries past the live lanes are
    /// garbage): the block's masks, transposed.
    pub(crate) fn gather(&self, b: usize) -> ([u64; LANES], [u64; LANES]) {
        let need = self.lanes.next_power_of_two();
        let (toggled, values) = self.masks(b);
        let mut rows = [*toggled, *values];
        for row in &mut rows {
            transpose64(row, need);
        }
        let [toggled, values] = rows;
        (toggled, values)
    }

    /// Lane `lane`'s toggles as events, in serial event order: the order
    /// [`crate::CycleActivity::events`] decodes a recorded cycle's in.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= self.lanes()`.
    pub fn events(&self, lane: usize) -> Vec<ToggleEvent> {
        assert!(lane < self.lanes, "lane {lane} is not live");
        let mut events = Vec::new();
        for b in 0..self.shared.len() {
            let (mut t, v) = if self.shared[b] {
                (self.toggled[b], self.values[b])
            } else {
                let (toggled, values) = self.gather(b);
                (toggled[lane], values[lane])
            };
            while t != 0 {
                let i = t.trailing_zeros();
                t &= t - 1;
                events.push(ToggleEvent {
                    rising: v >> i & 1 != 0,
                    ..self.sources.events[b * LANES + i as usize]
                });
            }
        }
        events
    }
}

/// One combinational cell of a [`Program`]: the data the kernel touches
/// on every evaluation.
#[derive(Debug, Clone, Copy)]
struct Gate {
    /// Input net indices; unused pins repeat pin 0.
    ins: [u32; 3],
    /// Output net index.
    out: u32,
    /// Truth table: bit `a | b << 1 | c << 2` is the output for inputs
    /// `(a, b, c)`.
    table: u8,
}

/// One flip-flop of a [`Program`].
#[derive(Debug, Clone, Copy)]
struct Flop {
    d: u32,
    q: u32,
}

/// A netlist compiled for simulation: validated, levelized and laid out
/// as flat arrays in evaluation order.
///
/// Compiling costs a validation and a levelization pass; owners that
/// spawn many simulators over one netlist compile once and hand the
/// program to [`Simulator::with_program`].
#[derive(Debug, Clone)]
pub struct Program {
    /// Combinational cells in evaluation order.
    gates: Vec<Gate>,
    /// Flip-flops in id order.
    flops: Vec<Flop>,
    /// Every flop, then every gate: the order toggles are emitted in.
    sources: Arc<Sources>,
    /// Whether each net is a primary input.
    is_input: Vec<bool>,
    const1: u32,
    cell_count: usize,
}

impl Program {
    /// Compiles `netlist`.
    ///
    /// # Errors
    ///
    /// Propagates any structural error from [`Netlist::validate`],
    /// including [`NetlistError::CombinationalCycle`] from levelization.
    pub fn compile(netlist: &Netlist) -> Result<Self, NetlistError> {
        let levels = netlist.validate()?;
        let sources = Sources::new(netlist, &levels)?;
        let flops = netlist
            .cells()
            .filter(|(_, c)| c.kind().is_sequential())
            .map(|(_, c)| Flop {
                d: c.inputs()[0].index() as u32,
                q: c.output().index() as u32,
            })
            .collect();
        let mut gates = Vec::with_capacity(levels.eval_order().len());
        for &id in levels.eval_order() {
            let cell = netlist.cell(id);
            let kind = cell.kind();
            let pins = cell.inputs();
            let mut table = 0u8;
            for row in 0..8u8 {
                let bits = [row & 1 != 0, row & 2 != 0, row & 4 != 0];
                if kind.eval(&bits[..pins.len()]) {
                    table |= 1 << row;
                }
            }
            let pin = |i: usize| pins.get(i).unwrap_or(&pins[0]).index() as u32;
            let out = cell.output().index() as u32;
            gates.push(Gate {
                ins: [pin(0), pin(1), pin(2)],
                out,
                table,
            });
        }
        let mut is_input = vec![false; netlist.net_count()];
        for (_, net) in netlist.primary_inputs() {
            is_input[net.index()] = true;
        }
        Ok(Self {
            gates,
            flops,
            sources: Arc::new(sources),
            is_input,
            const1: netlist.const1().index() as u32,
            cell_count: netlist.cell_count(),
        })
    }

    /// The toggle sources, in the order the simulator emits them.
    pub fn sources(&self) -> &Sources {
        &self.sources
    }

    fn net_count(&self) -> usize {
        self.is_input.len()
    }

    /// The cell of every flop, in the program's flop order (id order).
    fn flop_cells(&self) -> impl Iterator<Item = CellId> + '_ {
        self.sources.events[..self.flops.len()]
            .iter()
            .map(|e| e.cell)
    }

    /// The sequential fan-in of the flops `seeds`: the seeds, every flop
    /// whose output reaches one of its members' `d` pins through gates,
    /// repeated to a fixed point, and the gates in between, in
    /// evaluation order. Its next state reads only its own flops and
    /// primary inputs, so [`Simulator::step_cone`] can run it forward
    /// without the rest of the circuit.
    ///
    /// # Panics
    ///
    /// Panics if a seed is not a flop of this program.
    pub fn cone(&self, seeds: &[CellId]) -> Cone {
        let cells: Vec<CellId> = self.flop_cells().collect();
        let mut flop_of = vec![u32::MAX; self.net_count()];
        for (i, f) in self.flops.iter().enumerate() {
            flop_of[f.q as usize] = i as u32;
        }
        let mut gate_of = vec![u32::MAX; self.net_count()];
        for (i, g) in self.gates.iter().enumerate() {
            gate_of[g.out as usize] = i as u32;
        }
        let mut in_flops = vec![false; self.flops.len()];
        let mut in_gates = vec![false; self.gates.len()];
        let mut nets: Vec<u32> = Vec::new();
        for seed in seeds {
            let found = cells.binary_search(seed);
            assert!(found.is_ok(), "cone seed {seed:?} is not a flop");
            let i = found.unwrap_or_default();
            if !std::mem::replace(&mut in_flops[i], true) {
                nets.push(self.flops[i].d);
            }
        }
        while let Some(net) = nets.pop() {
            let (f, g) = (flop_of[net as usize], gate_of[net as usize]);
            if f != u32::MAX && !std::mem::replace(&mut in_flops[f as usize], true) {
                nets.push(self.flops[f as usize].d);
            } else if g != u32::MAX && !std::mem::replace(&mut in_gates[g as usize], true) {
                nets.extend(self.gates[g as usize].ins);
            }
        }
        fn members(set: &[bool]) -> impl Iterator<Item = usize> + '_ {
            (0..set.len()).filter(|&i| set[i])
        }
        Cone {
            cells: members(&in_flops).map(|i| cells[i]).collect(),
            flops: members(&in_flops).map(|i| self.flops[i]).collect(),
            gates: members(&in_gates).map(|i| self.gates[i]).collect(),
        }
    }

    /// The flops outside `cone` whose next state reads its state: those
    /// whose `d` pin a cone flop's output reaches through gates.
    pub fn readers(&self, cone: &Cone) -> Vec<CellId> {
        let mut reads = vec![false; self.net_count()];
        for f in &cone.flops {
            reads[f.q as usize] = true;
        }
        for g in &self.gates {
            if g.ins.iter().any(|&i| reads[i as usize]) {
                reads[g.out as usize] = true;
            }
        }
        // The cone's flops are the only flops whose outputs are marked.
        self.flop_cells()
            .zip(&self.flops)
            .filter(|(_, f)| !reads[f.q as usize] && reads[f.d as usize])
            .map(|(cell, _)| cell)
            .collect()
    }
}

/// A set of flops closed under sequential fan-in, with the gates that
/// compute its next state ([`Program::cone`]), copied out of its
/// program so that stepping it touches nothing else.
#[derive(Debug, Clone, Default)]
pub struct Cone {
    /// Each member flop's cell, ascending.
    cells: Vec<CellId>,
    /// The member flops, in the same order.
    flops: Vec<Flop>,
    /// The gates in the members' fan-in, in evaluation order.
    gates: Vec<Gate>,
}

impl Cone {
    /// The member flops' cells, ascending.
    pub fn flops(&self) -> &[CellId] {
        &self.cells
    }

    /// Number of gates in the members' fan-in.
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Whether the cone holds no flop (and so no gate).
    pub fn is_empty(&self) -> bool {
        self.flops.is_empty()
    }

    /// Whether a member flop or gate reads one of `nets` directly: the
    /// cone's next state depends on a net outside it only through such a
    /// read.
    pub fn reads_any(&self, nets: &[NetId]) -> bool {
        let Some(top) = nets.iter().map(|n| n.index()).max() else {
            return false;
        };
        let mut wanted = vec![false; top + 1];
        for n in nets {
            wanted[n.index()] = true;
        }
        let read = |net: u32| wanted.get(net as usize).copied().unwrap_or(false);
        self.flops.iter().any(|f| read(f.d))
            || self.gates.iter().any(|g| g.ins.into_iter().any(read))
    }
}

/// Lane 0's values of a [`Cone`]'s flops ([`Simulator::cone_state`]):
/// bit `k % 64` of word `k / 64` is member `k`'s output.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConeState(Vec<u64>);

/// A simulator's lanes at one moment ([`Simulator::lane_state`]): every
/// net's word, the live lanes and the cycle count, tied to the program
/// they were simulated on.
#[derive(Debug, Clone)]
pub struct LaneState {
    /// The program's sources, which identify it.
    sources: Arc<Sources>,
    words: Vec<u64>,
    live: usize,
    cycle: u64,
}

/// Evaluates a 3-input truth table on 64 lanes at once. MUX2 (`0xCA`)
/// and XOR2 (`0x66`), the kinds the AES core is built from, take a
/// direct formula; any other table goes through a mux tree over the
/// inputs with the table's bits as all-zero/all-one leaves.
#[inline(always)]
fn lut3(table: u8, a: u64, b: u64, c: u64) -> u64 {
    match table {
        0xCA => return a ^ ((a ^ b) & c),
        0x66 => return a ^ b,
        _ => {}
    }
    let leaf = |row: u8| u64::from(table >> row & 1).wrapping_neg();
    let mux = |sel: u64, lo: u64, hi: u64| lo ^ ((lo ^ hi) & sel);
    let low = mux(b, mux(a, leaf(0), leaf(1)), mux(a, leaf(2), leaf(3)));
    let high = mux(b, mux(a, leaf(4), leaf(5)), mux(a, leaf(6), leaf(7)));
    mux(c, low, high)
}

/// Transposes a 64×64 bit matrix in place as far as its first `need`
/// rows go, `need` a power of two: afterwards bit `i` of `rows[j]`, for
/// `j < need`, is what bit `j` of `rows[i]` was, and the other rows are
/// garbage. A stage at least as wide as `need` updates only the rows the
/// later stages read, so 16 rows cost about 40 % of the full 64. Each
/// width is compiled with its own constant bounds, which keeps the full
/// transpose as fast as a fixed 64-row one.
fn transpose64(rows: &mut [u64; 64], need: usize) {
    match need {
        1 => transpose_rows::<1>(rows),
        2 => transpose_rows::<2>(rows),
        4 => transpose_rows::<4>(rows),
        8 => transpose_rows::<8>(rows),
        16 => transpose_rows::<16>(rows),
        32 => transpose_rows::<32>(rows),
        _ => transpose_rows::<64>(rows),
    }
}

#[inline(always)]
fn transpose_rows<const NEED: usize>(rows: &mut [u64; 64]) {
    let mut width = 32;
    let mut mask: u64 = 0x0000_0000_FFFF_FFFF;
    while width != 0 {
        if width >= NEED {
            for k in 0..width {
                let t = ((rows[k] >> width) ^ rows[k + width]) & mask;
                rows[k] ^= t << width;
            }
        } else {
            let mut k = 0;
            while k < NEED {
                let t = ((rows[k] >> width) ^ rows[k + width]) & mask;
                rows[k] ^= t << width;
                rows[k + width] ^= t;
                k = (k + width + 1) & !width;
            }
        }
        width >>= 1;
        mask ^= mask << width;
    }
}

/// Phases 2 (every flop's `q` takes its captured `d`) and 3 (the
/// combinational cells settle in level order). `record` sees every
/// source in event order, with the live lanes it toggled in and its new
/// value.
#[inline(always)]
fn evaluate(
    program: &Program,
    staged: &[u64],
    words: &mut [u64],
    live: u64,
    mut record: impl FnMut(u64, u64),
) {
    for (&new, f) in staged.iter().zip(&program.flops) {
        let q = &mut words[f.q as usize];
        record((*q ^ new) & live, new);
        *q = new;
    }
    for g in &program.gates {
        let [a, b, c] = g.ins.map(|i| words[i as usize]);
        let new = lut3(g.table, a, b, c);
        let out = &mut words[g.out as usize];
        record((*out ^ new) & live, new);
        *out = new;
    }
}

/// A two-phase, cycle-based, 64-lane simulator over a borrowed
/// [`Netlist`].
///
/// Each [`Simulator::step`] models one rising clock edge followed by
/// combinational settling, in every lane at once:
///
/// 1. all flip-flops capture the `d` value settled at the end of the
///    previous cycle,
/// 2. the combinational cells evaluate once in levelized order.
///
/// Primary inputs are set with [`Simulator::set_input`] /
/// [`Simulator::set_bus`] (all lanes) or [`Simulator::set_bus_lanes`]
/// (one value per lane) and take effect in the combinational phase of
/// the next `step`. Recording captures the toggles of the live lanes
/// only; lane 0 is live unless `set_bus_lanes` says otherwise.
#[derive(Debug)]
pub struct Simulator<'a> {
    netlist: &'a Netlist,
    program: Cow<'a, Program>,
    /// Net values, one bit per lane.
    words: Vec<u64>,
    staged: Vec<u64>,
    /// Live lanes: `0..live`.
    live: usize,
    recording: bool,
    /// One trace per lane; only live lanes grow while recording.
    traces: Vec<ActivityTrace>,
    /// Per block of 64 sources: lane 0's packed toggled and value words
    /// (scratch).
    toggled: Vec<u64>,
    values: Vec<u64>,
    /// The unshared blocks' per-source masks of live lanes toggled and
    /// new values, in block order, and per block where its masks start
    /// (scratch).
    lane_toggled: Vec<u64>,
    lane_values: Vec<u64>,
    slots: Vec<u32>,
    /// Per block: whether every live lane toggled it alike (scratch).
    shared: Vec<bool>,
    cycle: u64,
}

impl<'a> Simulator<'a> {
    /// Compiles `netlist` and creates a simulator; all nets start at
    /// logic 0 (constants excepted).
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError::CombinationalCycle`] from levelization
    /// and any structural error from [`Netlist::validate`].
    pub fn new(netlist: &'a Netlist) -> Result<Self, NetlistError> {
        let program = Program::compile(netlist)?;
        Ok(Self::from_parts(netlist, Cow::Owned(program)))
    }

    /// Creates a simulator running a program compiled from `netlist`;
    /// only the lane state is allocated.
    ///
    /// # Panics
    ///
    /// Panics if `program` was not compiled from a netlist of
    /// `netlist`'s size.
    pub fn with_program(netlist: &'a Netlist, program: &'a Program) -> Self {
        assert!(
            program.net_count() == netlist.net_count()
                && program.cell_count == netlist.cell_count(),
            "program was compiled from another netlist"
        );
        Self::from_parts(netlist, Cow::Borrowed(program))
    }

    fn from_parts(netlist: &'a Netlist, program: Cow<'a, Program>) -> Self {
        let mut words = vec![0; program.net_count()];
        words[program.const1 as usize] = !0;
        let staged = vec![0; program.flops.len()];
        Self {
            netlist,
            program,
            words,
            staged,
            live: 1,
            recording: false,
            traces: vec![ActivityTrace::new(); LANES],
            toggled: Vec::new(),
            values: Vec::new(),
            lane_toggled: Vec::new(),
            lane_values: Vec::new(),
            slots: Vec::new(),
            shared: Vec::new(),
            cycle: 0,
        }
    }

    /// The netlist under simulation.
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// Number of clock edges applied so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Current logic value of `net` in lane 0.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    pub fn value(&self, net: NetId) -> bool {
        self.words[net.index()] & 1 != 0
    }

    /// Current logic values of `net` in every lane: bit `j` is lane `j`'s.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    pub fn value_lanes(&self, net: NetId) -> u64 {
        self.words[net.index()]
    }

    /// Sets a primary-input net to `value` in every lane (effective next
    /// `step`).
    ///
    /// # Panics
    ///
    /// Panics if `net` is not a primary input.
    pub fn set_input(&mut self, net: NetId, value: bool) {
        self.check_input(net);
        self.words[net.index()] = if value { !0 } else { 0 };
    }

    fn check_input(&self, net: NetId) {
        assert!(
            self.program.is_input[net.index()],
            "set_input on a non-input net"
        );
    }

    /// Sets an LSB-first bus of primary inputs from the low bits of
    /// `word`, in every lane.
    ///
    /// # Panics
    ///
    /// Panics if any net is not a primary input or the bus is wider than
    /// 128 bits.
    pub fn set_bus(&mut self, nets: &[NetId], word: u128) {
        assert!(nets.len() <= 128, "bus wider than 128 bits");
        for (i, &n) in nets.iter().enumerate() {
            self.set_input(n, word >> i & 1 != 0);
        }
    }

    /// Drives an LSB-first bus of primary inputs with one word per lane
    /// — `words[j]` into lane `j`, zero into the lanes beyond — and makes
    /// lanes `0..words.len()` the live ones.
    ///
    /// # Panics
    ///
    /// Panics if any net is not a primary input, the bus is wider than
    /// 128 bits, or `words` is empty or longer than [`LANES`].
    pub fn set_bus_lanes(&mut self, nets: &[NetId], words: &[u128]) {
        assert!(nets.len() <= 128, "bus wider than 128 bits");
        assert!(
            (1..=LANES).contains(&words.len()),
            "set_bus_lanes takes 1 to {LANES} lane words"
        );
        for (i, &n) in nets.iter().enumerate() {
            self.check_input(n);
            self.words[n.index()] = words
                .iter()
                .enumerate()
                .fold(0u64, |acc, (lane, w)| acc | ((w >> i & 1) as u64) << lane);
        }
        self.live = words.len();
    }

    /// Reads an LSB-first bus of lane 0 into the low bits of a `u128`.
    ///
    /// # Panics
    ///
    /// Panics if the bus is wider than 128 bits.
    pub fn bus(&self, nets: &[NetId]) -> u128 {
        self.bus_lane(nets, 0)
    }

    /// Reads an LSB-first bus of `lane` into the low bits of a `u128`.
    ///
    /// # Panics
    ///
    /// Panics if the bus is wider than 128 bits or `lane >= LANES`.
    pub fn bus_lane(&self, nets: &[NetId], lane: usize) -> u128 {
        assert!(nets.len() <= 128, "bus wider than 128 bits");
        assert!(lane < LANES, "lane {lane} out of range");
        nets.iter().enumerate().fold(0u128, |acc, (i, &n)| {
            acc | u128::from(self.words[n.index()] >> lane & 1) << i
        })
    }

    /// Starts recording switching activity of every live lane into fresh
    /// traces.
    pub fn start_recording(&mut self) {
        self.clear_traces();
        self.recording = true;
    }

    /// Stops recording and returns lane 0's trace (empty if recording
    /// was never started).
    pub fn take_recording(&mut self) -> ActivityTrace {
        self.recording = false;
        let mut trace = std::mem::take(&mut self.traces[0]);
        trace.shrink_to_fit();
        self.clear_traces();
        trace
    }

    /// Stops recording and returns one trace per live lane, lane 0 first
    /// (empty traces if recording was never started).
    pub fn take_lane_recordings(&mut self) -> Vec<ActivityTrace> {
        self.recording = false;
        let traces = self.traces[..self.live]
            .iter_mut()
            .map(|trace| {
                trace.shrink_to_fit();
                std::mem::take(trace)
            })
            .collect();
        self.clear_traces();
        traces
    }

    fn clear_traces(&mut self) {
        self.traces.fill_with(ActivityTrace::new);
    }

    /// Whether a recording is in progress.
    pub fn is_recording(&self) -> bool {
        self.recording
    }

    /// Settles the combinational logic with the current inputs *without* a
    /// clock edge and without recording activity. Useful to establish a
    /// consistent pre-clock state after setting initial inputs.
    pub fn settle(&mut self) {
        let words = &mut self.words;
        for g in &self.program.gates {
            let [a, b, c] = g.ins.map(|i| words[i as usize]);
            words[g.out as usize] = lut3(g.table, a, b, c);
        }
    }

    /// Applies one rising clock edge, then settles combinational logic.
    /// Records the live lanes' toggles if a recording is in progress.
    pub fn step(&mut self) {
        if self.recording {
            let mut traces = std::mem::take(&mut self.traces);
            let (sources, cycle) = (Arc::clone(&self.program.sources), self.cycle);
            self.step_words(|words| {
                ActivityTrace::push_edge(&mut traces[..words.lanes()], &sources, cycle, &words);
            });
            self.traces = traces;
            return;
        }
        self.capture();
        evaluate(&self.program, &self.staged, &mut self.words, 0, |_, _| {});
        self.cycle += 1;
    }

    /// Applies one rising clock edge like [`Self::step`] and hands the
    /// edge's [`ToggleWords`], every live lane's toggles with the blocks
    /// they share, to `sink`. Nothing is stored, so no recording needs to
    /// be in progress.
    pub fn step_words(&mut self, mut sink: impl FnMut(ToggleWords<'_>)) {
        self.capture();
        if self.live == 1 {
            self.emit_lane0(&mut sink);
        } else {
            self.emit_lanes(&mut sink);
        }
        self.cycle += 1;
    }

    /// Phase 1: every flip-flop captures its `d`.
    fn capture(&mut self) {
        for (s, f) in self.staged.iter_mut().zip(&self.program.flops) {
            *s = self.words[f.d as usize];
        }
    }

    /// Applies one rising clock edge to `cone`, a cone of this
    /// simulator's program, in lane 0 alone, then settles its gates;
    /// nothing is recorded. Afterwards the cone's nets read 0 in every
    /// other lane and every net outside the cone keeps its value, so a
    /// simulator stepped this way is read only through lane 0 of the cone
    /// ([`Self::cone_state`]). One lane costs a table lookup per gate,
    /// well under the 64-lane kernel's generic mux tree.
    pub fn step_cone(&mut self, cone: &Cone) {
        let words = &mut self.words;
        let staged = &mut self.staged[..cone.flops.len()];
        for (s, f) in staged.iter_mut().zip(&cone.flops) {
            *s = words[f.d as usize] & 1;
        }
        for (&s, f) in staged.iter().zip(&cone.flops) {
            words[f.q as usize] = s;
        }
        for g in &cone.gates {
            let [a, b, c] = g.ins.map(|i| words[i as usize] & 1);
            words[g.out as usize] = u64::from(g.table) >> (a | b << 1 | c << 2) & 1;
        }
        self.cycle += 1;
    }

    /// Lane 0's values of `cone`'s flops.
    pub fn cone_state(&self, cone: &Cone) -> ConeState {
        let mut bits = vec![0u64; cone.flops.len().div_ceil(LANES)];
        for (k, f) in cone.flops.iter().enumerate() {
            let q = self.words[f.q as usize];
            bits[k / LANES] |= (q & 1) << (k % LANES);
        }
        ConeState(bits)
    }

    /// Every lane's net values, the live lanes and the cycle count: all a
    /// later [`Self::restore`] needs to put a simulator of the same
    /// program where this one is. The flops' captured values are not
    /// state: the next edge captures them anew.
    pub fn lane_state(&self) -> LaneState {
        LaneState {
            sources: Arc::clone(&self.program.sources),
            words: self.words.clone(),
            live: self.live,
            cycle: self.cycle,
        }
    }

    /// Puts every lane's nets, the live lanes and the cycle count back to
    /// `state`; a recording in progress goes on recording.
    ///
    /// # Panics
    ///
    /// Panics if `state` was taken from a simulator of another program
    /// (one compiled separately counts as another).
    pub fn restore(&mut self, state: &LaneState) {
        assert!(
            Arc::ptr_eq(&state.sources, &self.program.sources),
            "lane state of another program"
        );
        self.words.copy_from_slice(&state.words);
        self.live = state.live;
        self.cycle = state.cycle;
    }

    /// Loads `states[j]` into lane `j`'s `cone` flops, then settles the
    /// combinational logic ([`Self::settle`]); an empty cone or no state
    /// loads and settles nothing.
    ///
    /// At a clock-edge boundary whose inputs have not changed since the
    /// edge, every net is a fixed point of the flops and the inputs. If
    /// no flop outside the cone reads the cone ([`Program::readers`]),
    /// each loaded lane then holds exactly the nets of a simulator that
    /// reached its flops itself.
    ///
    /// # Panics
    ///
    /// Panics if there are more than [`LANES`] states or a state was not
    /// taken from `cone`.
    pub fn load_cone(&mut self, cone: &Cone, states: &[ConeState]) {
        if cone.is_empty() || states.is_empty() {
            return;
        }
        assert!(states.len() <= LANES, "load_cone takes 1 to {LANES} states");
        let words = cone.flops.len().div_ceil(LANES);
        assert!(
            states.iter().all(|s| s.0.len() == words),
            "cone state of another cone"
        );
        let lanes = u64::MAX >> (LANES - states.len());
        for (k, f) in cone.flops.iter().enumerate() {
            let bits = states.iter().enumerate().fold(0u64, |acc, (j, s)| {
                acc | (s.0[k / LANES] >> (k % LANES) & 1) << j
            });
            let q = &mut self.words[f.q as usize];
            *q = (*q & !lanes) | bits;
        }
        self.settle();
    }

    /// Evaluates lane 0 as the only live lane — a campaign's power-on
    /// block and every one-lane [`Self::step`] recording — packing each
    /// source's toggle and new value into one bit per source as it goes:
    /// no per-source mask is stored. One lane shares every block. Sending
    /// one lane through [`Self::emit_lanes`] instead costs about 1.4–1.5×
    /// as much per encryption on the all-Trojan chip with T1 armed
    /// (586–621 µs against 395–426 µs with a sink that only counts words,
    /// best of 5 runs of 400 encryptions, quiet-phase pairs on a 2-vCPU
    /// host).
    fn emit_lane0(&mut self, sink: &mut impl FnMut(ToggleWords<'_>)) {
        let (toggled, values) = (&mut self.toggled, &mut self.values);
        toggled.clear();
        values.clear();
        let (mut t, mut v, mut k) = (0u64, 0u64, 0u32);
        evaluate(
            &self.program,
            &self.staged,
            &mut self.words,
            1,
            |tog, new| {
                t |= (tog & 1) << k;
                v |= (new & 1) << k;
                k += 1;
                if k == 64 {
                    toggled.push(t);
                    values.push(v);
                    (t, v, k) = (0, 0, 0);
                }
            },
        );
        if k > 0 {
            toggled.push(t);
            values.push(v);
        }
        sink(ToggleWords::one_lane(
            &self.program.sources,
            toggled,
            values,
        ));
    }

    /// Evaluates every lane, gathering each block of 64 sources'
    /// toggled-live-lane masks and new values as it goes. A block is
    /// shared when every source's mask is empty or all the live lanes and
    /// its new value is one bit for all of them; then lane 0's bits stand
    /// for every lane and are packed from the masks' low bits. Any other
    /// block's masks are copied out as they are: no lane's own words are
    /// gathered. Then the whole edge goes to the sink.
    fn emit_lanes(&mut self, sink: &mut impl FnMut(ToggleWords<'_>)) {
        let lanes = self.live;
        let live = u64::MAX >> (LANES - lanes);
        let blocks = self.program.sources.len().div_ceil(LANES);
        let (toggled, values) = (&mut self.toggled, &mut self.values);
        toggled.resize(blocks, 0);
        values.resize(blocks, 0);
        let (masks, news) = (&mut self.lane_toggled, &mut self.lane_values);
        masks.clear();
        news.clear();
        // Room for every block up front, so that no later edge grows it.
        masks.reserve(blocks * LANES);
        news.reserve(blocks * LANES);
        let slots = &mut self.slots;
        slots.resize(blocks, 0);
        let shared = &mut self.shared;
        shared.clear();
        shared.resize(blocks, false);
        let (mut t, mut v) = ([0u64; LANES], [0u64; LANES]);
        let (mut b, mut k) = (0, 0);
        let mut flush = |t: &[u64; LANES], v: &[u64; LANES], b: usize| {
            // A mask is empty or all the live lanes exactly when each of
            // its live bits equals the next one up; so must the rising
            // bits be.
            let mut d = 0u64;
            for (&tog, &new) in t.iter().zip(v) {
                let rising = new & tog;
                d |= (tog ^ (tog >> 1)) | (rising ^ (rising >> 1));
            }
            shared[b] = d & (live >> 1) == 0;
            if shared[b] {
                let lane0 = |rows: &[u64; LANES]| {
                    rows.iter()
                        .enumerate()
                        .fold(0, |word, (k, &row)| word | (row & 1) << k)
                };
                (toggled[b], values[b]) = (lane0(t), lane0(v));
            } else {
                slots[b] = (masks.len() / LANES) as u32;
                masks.extend_from_slice(t);
                news.extend_from_slice(v);
            }
        };
        evaluate(
            &self.program,
            &self.staged,
            &mut self.words,
            live,
            |tog, new| {
                t[k] = tog;
                v[k] = new;
                k += 1;
                if k == LANES {
                    flush(&t, &v, b);
                    (b, k) = (b + 1, 0);
                }
            },
        );
        if k > 0 {
            // The rows past the last source stand for no source.
            t[k..].fill(0);
            v[k..].fill(0);
            flush(&t, &v, b);
        }
        sink(ToggleWords {
            sources: &self.program.sources,
            lanes,
            toggled: &self.toggled,
            values: &self.values,
            lane_toggled: &self.lane_toggled,
            lane_values: &self.lane_values,
            slots: &self.slots,
            shared: &self.shared,
        });
    }

    /// Runs `n` clock cycles.
    pub fn run(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Resets all state: nets to 0 in every lane, cycle counter to 0,
    /// lane 0 the only live lane. Any in-progress recording is discarded.
    pub fn reset(&mut self) {
        self.words.fill(0);
        self.words[self.program.const1 as usize] = !0;
        self.staged.fill(0);
        self.cycle = 0;
        self.live = 1;
        self.recording = false;
        self.clear_traces();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emtrust_netlist::cell::ALL_KINDS;
    use emtrust_netlist::graph::{NetSource, Netlist};

    fn counter2() -> (Netlist, Vec<NetId>) {
        // 2-bit binary counter: q0' = !q0; q1' = q1 ^ q0.
        let mut n = Netlist::new("counter2");
        let (q0, d0) = n.dff_deferred();
        let (q1, d1) = n.dff_deferred();
        let nq0 = n.not(q0);
        let x = n.xor2(q1, q0);
        n.connect_dff_d(d0, nq0);
        n.connect_dff_d(d1, x);
        n.mark_output("q0", q0);
        n.mark_output("q1", q1);
        (n, vec![q0, q1])
    }

    fn flop_of(n: &Netlist, q: NetId) -> CellId {
        match n.net_source(q) {
            NetSource::Cell(c) => *c,
            _ => unreachable!(),
        }
    }

    /// `counter2` plus a register `r` that samples `q1 & a` for an input
    /// `a`, and an output gate `y = q0 ^ r` that no flop reads.
    fn counter_with_reader() -> (Netlist, [NetId; 4], NetId) {
        let (mut n, bus) = counter2();
        let a = n.input("a");
        let (r, dr) = n.dff_deferred();
        let sample = n.and2(bus[1], a);
        n.connect_dff_d(dr, sample);
        let y = n.xor2(bus[0], r);
        n.mark_output("y", y);
        (n, [bus[0], bus[1], r, y], a)
    }

    #[test]
    fn cones_close_over_fan_in_and_readers_are_found() {
        let (n, [q0, q1, r, _], _) = counter_with_reader();
        let program = Program::compile(&n).unwrap();
        let [f0, f1, fr] = [q0, q1, r].map(|q| flop_of(&n, q));
        let low = program.cone(&[f0]);
        assert_eq!(low.flops(), [f0]);
        assert_eq!(low.gate_count(), 1, "the inverter");
        assert_eq!(program.readers(&low), [f1], "q1 ^ q0 reads q0");
        let counter = program.cone(&[f1, f1]);
        assert_eq!(counter.flops(), [f0, f1]);
        assert_eq!(counter.gate_count(), 2, "the inverter and the xor");
        assert_eq!(program.readers(&counter), [fr]);
        let all = program.cone(&[fr]);
        assert_eq!(all.flops(), [f0, f1, fr]);
        assert_eq!(all.gate_count(), 3, "y is in no flop's fan-in");
        assert!(program.readers(&all).is_empty());
        assert!(program.cone(&[]).is_empty());
    }

    #[test]
    fn a_restored_simulator_steps_on_like_the_one_it_was_taken_from() {
        let (n, [q0, q1, r, y], a) = counter_with_reader();
        let program = Program::compile(&n).unwrap();
        let mut sim = Simulator::with_program(&n, &program);
        sim.set_bus_lanes(&[a], &[1, 0, 1]);
        sim.run(5);
        let state = sim.lane_state();
        let mut restored = Simulator::with_program(&n, &program);
        restored.run(2);
        restored.restore(&state);
        assert_eq!(restored.cycle(), 5);
        let edge = |s: &mut Simulator<'_>| {
            let mut events = Vec::new();
            s.step_words(|w| events = (0..w.lanes()).map(|lane| w.events(lane)).collect());
            events
        };
        for step in 0..4 {
            for net in [q0, q1, r, y] {
                assert_eq!(restored.value_lanes(net), sim.value_lanes(net), "{step}");
            }
            let events = edge(&mut sim);
            assert_eq!(events.len(), 3, "three live lanes");
            assert_eq!(edge(&mut restored), events, "step {step}");
        }
        assert_eq!(restored.cycle(), sim.cycle());
    }

    #[test]
    #[should_panic(expected = "lane state of another program")]
    fn a_lane_state_restores_only_into_its_own_program() {
        let (n, _, _) = counter_with_reader();
        let state = Simulator::new(&n).unwrap().lane_state();
        Simulator::new(&n).unwrap().restore(&state);
    }

    #[test]
    fn a_stepped_cone_follows_the_full_circuit_and_loads_per_lane() {
        let (n, [q0, q1, r, y], a) = counter_with_reader();
        let program = Program::compile(&n).unwrap();
        let cone = program.cone(&[flop_of(&n, q1)]);
        let mut full = Simulator::with_program(&n, &program);
        let mut alone = Simulator::with_program(&n, &program);
        let (mut states, mut counts) = (Vec::new(), Vec::new());
        for step in 0..6 {
            full.set_input(a, step % 3 == 0);
            full.step();
            alone.step_cone(&cone);
            assert_eq!(
                alone.cone_state(&cone),
                full.cone_state(&cone),
                "step {step}"
            );
            states.push(full.cone_state(&cone));
            counts.push(full.bus(&[q0, q1]));
        }
        assert_eq!(alone.cycle(), 6);
        assert_eq!(counts[1..5], [1, 2, 3, 0], "the counter counts");
        // Lane j takes the counter state after step j + 1; r and the
        // input keep their values, and `y` settles to each lane's q0 ^ r.
        let mut loaded = Simulator::with_program(&n, &program);
        loaded.set_input(a, true);
        loaded.settle();
        loaded.run(3);
        let (r_before, kept) = (loaded.value_lanes(r), loaded.bus_lane(&[q0, q1], 4));
        assert_ne!(r_before, 0);
        loaded.load_cone(&cone, &states[1..5]);
        assert_eq!(loaded.value_lanes(r), r_before);
        for (lane, &count) in counts[1..5].iter().enumerate() {
            assert_eq!(loaded.bus_lane(&[q0, q1], lane), count, "lane {lane}");
            let expect = (count & 1) as u64 ^ (r_before >> lane & 1);
            assert_eq!(loaded.value_lanes(y) >> lane & 1, expect, "lane {lane}");
        }
        assert_eq!(
            loaded.bus_lane(&[q0, q1], 4),
            kept,
            "lanes beyond the states keep theirs"
        );
    }

    #[test]
    #[should_panic(expected = "not a flop")]
    fn cone_seeds_must_be_flops() {
        let (n, [.., y], _) = counter_with_reader();
        let program = Program::compile(&n).unwrap();
        let _ = program.cone(&[flop_of(&n, y)]);
    }

    #[test]
    fn word_kernel_matches_every_kind_on_every_row() {
        // Lane j carries input row j % 8, so one evaluation covers the
        // whole truth table of a kind.
        let row = |bit: u32| (0..64u32).fold(0u64, |w, j| w | u64::from((j % 8) >> bit & 1) << j);
        let (a, b, c) = (row(0), row(1), row(2));
        for kind in ALL_KINDS.into_iter().filter(|k| !k.is_sequential()) {
            let mut n = Netlist::new("one");
            let ins = n.input_bus("i", kind.arity());
            let y = n.gate(kind, &ins);
            n.mark_output("y", y);
            let program = Program::compile(&n).unwrap();
            let word = lut3(program.gates[0].table, a, b, c);
            for lane in 0..64 {
                let bits = [lane & 1 != 0, lane & 2 != 0, lane & 4 != 0];
                let expect = kind.eval(&bits[..kind.arity()]);
                assert_eq!(word >> lane & 1 != 0, expect, "{kind:?} lane {lane}");
            }
        }
    }

    #[test]
    fn transpose_matches_the_bitwise_definition() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut rows = [0u64; 64];
        for r in &mut rows {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *r = x;
        }
        for need in (0..7).map(|p| 1 << p) {
            let mut t = rows;
            transpose64(&mut t, need);
            for (lane, &col) in t[..need].iter().enumerate() {
                for (i, &row) in rows.iter().enumerate() {
                    assert_eq!(col >> i & 1, row >> lane & 1, "{need}: lane {lane} row {i}");
                }
            }
        }
    }

    #[test]
    fn counter_counts() {
        let (n, bus) = counter2();
        let mut sim = Simulator::new(&n).unwrap();
        sim.settle();
        let mut seen = Vec::new();
        for _ in 0..5 {
            sim.step();
            seen.push(sim.bus(&bus));
        }
        assert_eq!(seen, [1, 2, 3, 0, 1]);
    }

    #[test]
    fn combinational_logic_follows_inputs() {
        let mut n = Netlist::new("xor");
        let a = n.input("a");
        let b = n.input("b");
        let x = n.xor2(a, b);
        n.mark_output("x", x);
        let mut sim = Simulator::new(&n).unwrap();
        sim.set_input(a, true);
        sim.set_input(b, false);
        sim.step();
        assert!(sim.value(x));
        sim.set_input(b, true);
        sim.step();
        assert!(!sim.value(x));
    }

    #[test]
    fn settle_propagates_without_clock() {
        let mut n = Netlist::new("inv");
        let a = n.input("a");
        let y = n.not(a);
        n.mark_output("y", y);
        let mut sim = Simulator::new(&n).unwrap();
        assert!(!sim.value(y));
        sim.settle();
        assert!(sim.value(y), "inverter of 0 must settle to 1");
        assert_eq!(sim.cycle(), 0, "settle must not advance the clock");
    }

    #[test]
    fn recording_captures_toggles_with_levels() {
        let (n, _) = counter2();
        let mut sim = Simulator::new(&n).unwrap();
        sim.settle();
        sim.start_recording();
        sim.step(); // 00 -> 01: q0 rises, nq0 falls, xor rises.
        let trace = sim.take_recording();
        assert_eq!(trace.cycle_count(), 1);
        let events: Vec<ToggleEvent> = trace.cycle(0).events().collect();
        // q0 toggles (level 0), inverter (level 1), xor (level 1).
        assert_eq!(events.len(), 3);
        assert!(events.iter().any(|e| e.level == 0 && e.rising));
        assert_eq!(events.iter().filter(|e| e.level == 1).count(), 2);
    }

    #[test]
    fn lanes_record_their_own_stimulus() {
        // Lane j drives a = j & 1: only the odd lanes see the inverter
        // fall, and each lane's trace is its own.
        let mut n = Netlist::new("inv");
        let a = n.input("a");
        let y = n.not(a);
        n.mark_output("y", y);
        let mut sim = Simulator::new(&n).unwrap();
        sim.settle();
        let words: Vec<u128> = (0..5).map(|j| j & 1).collect();
        sim.set_bus_lanes(&[a], &words);
        sim.start_recording();
        sim.step();
        let traces = sim.take_lane_recordings();
        assert_eq!(traces.len(), 5);
        for (lane, trace) in traces.iter().enumerate() {
            assert_eq!(trace.total_toggles(), lane & 1, "lane {lane}");
            assert_eq!(sim.bus_lane(&[y], lane), 1 - (lane as u128 & 1));
        }
        assert!(!sim.is_recording());
    }

    #[test]
    fn lanes_share_a_block_only_with_the_same_toggles_and_values() {
        // One flop sampling a per-lane input: lanes whose flop toggles
        // with opposite edges do not share its block, lanes whose flops
        // fall together do.
        let mut n = Netlist::new("sample");
        let a = n.input("a");
        let r = n.dff(a);
        n.mark_output("r", r);
        let mut sim = Simulator::new(&n).unwrap();
        let mut seen = Vec::new();
        for inputs in [[0, 1], [1, 0], [1, 1], [0, 0]] {
            sim.set_bus_lanes(&[a], &inputs);
            sim.step_words(|words| {
                let events: Vec<Vec<bool>> = (0..words.lanes())
                    .map(|lane| words.events(lane).iter().map(|e| e.rising).collect())
                    .collect();
                seen.push((words.shared()[0], events));
            });
        }
        let expected = [
            (false, vec![vec![], vec![true]]),
            (false, vec![vec![true], vec![false]]),
            (false, vec![vec![], vec![true]]),
            (true, vec![vec![false], vec![false]]),
        ];
        assert_eq!(seen, expected);
    }

    #[test]
    fn dead_lanes_compute_but_do_not_record() {
        let mut n = Netlist::new("inv");
        let a = n.input("a");
        let y = n.not(a);
        n.mark_output("y", y);
        let mut sim = Simulator::new(&n).unwrap();
        sim.settle();
        sim.set_bus_lanes(&[a], &[0, 1]);
        sim.start_recording();
        sim.step();
        let first: Vec<usize> = sim
            .take_lane_recordings()
            .iter()
            .map(ActivityTrace::total_toggles)
            .collect();
        assert_eq!(first, [0, 1]);
        sim.set_bus(&[a], 1); // a broadcast keeps both lanes live
        sim.start_recording();
        sim.step();
        let second: Vec<usize> = sim
            .take_lane_recordings()
            .iter()
            .map(ActivityTrace::total_toggles)
            .collect();
        assert_eq!(second, [1, 0], "lane 1 was already low");
        assert_eq!(sim.bus_lane(&[y], 63), 0, "dead lanes still evaluate");
    }

    #[test]
    fn no_recording_means_empty_trace() {
        let (n, _) = counter2();
        let mut sim = Simulator::new(&n).unwrap();
        sim.step();
        let trace = sim.take_recording();
        assert_eq!(trace.cycle_count(), 0);
        assert!(!sim.is_recording());
    }

    #[test]
    fn reset_restores_initial_state() {
        let (n, bus) = counter2();
        let mut sim = Simulator::new(&n).unwrap();
        sim.settle();
        sim.run(3);
        assert_ne!(sim.bus(&bus), 0);
        sim.reset();
        assert_eq!(sim.bus(&bus), 0);
        assert_eq!(sim.cycle(), 0);
    }

    #[test]
    fn bus_round_trip() {
        let mut n = Netlist::new("pass");
        let ins = n.input_bus("a", 8);
        let outs: Vec<NetId> = ins.clone();
        n.mark_output_bus("y", &outs);
        let mut sim = Simulator::new(&n).unwrap();
        sim.set_bus(&ins, 0xA5);
        assert_eq!(sim.bus(&ins), 0xA5);
        sim.set_bus_lanes(&ins, &[0x01, 0xFE, 0x5A]);
        assert_eq!(sim.bus(&ins), 0x01);
        assert_eq!(sim.bus_lane(&ins, 1), 0xFE);
        assert_eq!(sim.bus_lane(&ins, 2), 0x5A);
        assert_eq!(sim.bus_lane(&ins, 3), 0, "lanes beyond the words read 0");
    }

    #[test]
    fn constants_hold_their_values() {
        let mut n = Netlist::new("c");
        let c1 = n.const1();
        let c0 = n.const0();
        let x = n.and2(c1, c1);
        n.mark_output("x", x);
        let mut sim = Simulator::new(&n).unwrap();
        sim.settle();
        assert!(sim.value(c1));
        assert!(!sim.value(c0));
        assert!(sim.value(x));
        sim.run(2);
        assert!(sim.value(c1));
        assert_eq!(sim.bus_lane(&[c1], 63), 1, "constants hold in every lane");
    }

    #[test]
    fn compiled_program_is_shared_between_simulators() {
        let (n, bus) = counter2();
        let program = Program::compile(&n).unwrap();
        let mut a = Simulator::with_program(&n, &program);
        let mut b = Simulator::with_program(&n, &program);
        a.settle();
        b.settle();
        a.run(3);
        b.run(1);
        assert_eq!((a.bus(&bus), b.bus(&bus)), (3, 1));
        assert_eq!(program.sources().len(), 4, "two flops, two gates");
    }

    #[test]
    fn source_levels_never_decrease() {
        let (n, _) = counter2();
        let ids: Vec<CellId> = n.cells().map(|(id, _)| id).collect();
        // A level with no source gets an empty run.
        let order = [(ids[0], 0), (ids[1], 2), (ids[2], 2)];
        let sources = Sources::from_order(4, order.into_iter()).unwrap();
        assert_eq!(sources.level_ends(), [1, 1, 3]);
        let order = [(ids[0], 0), (ids[1], 2), (ids[2], 1)];
        assert_eq!(
            Sources::from_order(4, order.into_iter()),
            Err(NetlistError::DecreasingLevel {
                cell: ids[2].index() as u32
            })
        );
        let program = Program::compile(&n).unwrap();
        let levels: Vec<u32> = program.sources().events().iter().map(|e| e.level).collect();
        assert_eq!(levels, [0, 0, 1, 1]);
        assert_eq!(program.sources().level_ends(), [2, 4]);
    }

    #[test]
    #[should_panic(expected = "another netlist")]
    fn program_from_another_netlist_is_rejected() {
        let (n, _) = counter2();
        let mut other = Netlist::new("inv");
        let a = other.input("a");
        let y = other.not(a);
        other.mark_output("y", y);
        let program = Program::compile(&other).unwrap();
        let _ = Simulator::with_program(&n, &program);
    }

    #[test]
    #[should_panic(expected = "non-input")]
    fn set_input_rejects_internal_nets() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let y = n.not(a);
        n.mark_output("y", y);
        let mut sim = Simulator::new(&n).unwrap();
        sim.set_input(y, true);
    }

    #[test]
    #[should_panic(expected = "lane words")]
    fn set_bus_lanes_rejects_more_than_64_lanes() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        n.mark_output("a", a);
        let mut sim = Simulator::new(&n).unwrap();
        sim.set_bus_lanes(&[a], &[0; LANES + 1]);
    }

    #[test]
    fn simulator_rejects_cyclic_netlists() {
        let mut n = Netlist::new("loop");
        let a = n.input("a");
        let x1 = n.not(a);
        let x2 = n.not(x1);
        let first = match n.net_source(x1) {
            NetSource::Cell(c) => *c,
            _ => unreachable!(),
        };
        n.rewire_input(first, 0, x2).unwrap();
        assert!(Simulator::new(&n).is_err());
    }

    #[test]
    fn cycle_counter_advances() {
        let (n, _) = counter2();
        let mut sim = Simulator::new(&n).unwrap();
        sim.run(7);
        assert_eq!(sim.cycle(), 7);
    }
}
