//! Topological levelization of the combinational logic.
//!
//! Two consumers rely on levels:
//!
//! - the cycle-based simulator evaluates cells in level order (one pass per
//!   clock cycle),
//! - the power model staggers switching times by depth: a cell at level `d`
//!   switches at `t ≈ t_clk + d·τ_gate`, which gives the aggregate current
//!   waveform its realistic within-cycle profile — and that profile is what
//!   the EM detectors observe.
//!
//! Flip-flop outputs, primary inputs and constants are level-0 sources;
//! each combinational cell sits one past its deepest input.

use crate::graph::{CellId, NetId, NetSource, Netlist};
use crate::NetlistError;

/// Result of levelizing a netlist.
#[derive(Debug, Clone)]
pub struct Levels {
    /// Level of each cell, indexed by [`CellId::index`]. Flip-flops are
    /// level 0.
    cell_levels: Vec<u32>,
    /// Combinational cells in evaluation (topological) order.
    order: Vec<CellId>,
    /// Maximum level of any cell.
    max_level: u32,
}

impl Levels {
    /// Level of `cell`.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    pub fn level_of(&self, cell: CellId) -> u32 {
        self.cell_levels[cell.index()]
    }

    /// Combinational cells in a valid evaluation order (flip-flops
    /// excluded).
    pub fn eval_order(&self) -> &[CellId] {
        &self.order
    }

    /// The critical combinational depth.
    pub fn max_level(&self) -> u32 {
        self.max_level
    }

    /// Per-cell levels, indexed by [`CellId::index`].
    pub fn cell_levels(&self) -> &[u32] {
        &self.cell_levels
    }
}

/// Levelizes `netlist`.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] if combinational logic
/// feeds back on itself without passing through a flip-flop.
pub fn levelize(netlist: &Netlist) -> Result<Levels, NetlistError> {
    const NONE: u32 = u32::MAX;
    let n_cells = netlist.cell_count();
    let comb = |c: CellId| !netlist.cell(c).kind().is_sequential();
    // Per net: the combinational cell driving it, or `NONE` for primary
    // inputs, constants and flip-flop outputs (the level-0 sources).
    let comb_driver: Vec<u32> = (0..netlist.net_count() as u32)
        .map(|net| match netlist.net_source(NetId(net)) {
            NetSource::Cell(c) if comb(*c) => c.0,
            _ => NONE,
        })
        .collect();
    // Kahn's algorithm over combinational cells only. The combinational
    // cells that read each cell's output are kept flat: cell c's readers
    // are `fanout[fanout_start[c]..fanout_start[c + 1]]`, in cell-id then
    // pin order.
    let mut indegree = vec![0u32; n_cells];
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(n_cells * 2);
    for (id, cell) in netlist.cells().filter(|&(id, _)| comb(id)) {
        for &input in cell.inputs() {
            let src = comb_driver[input.index()];
            if src != NONE {
                indegree[id.index()] += 1;
                edges.push((src, id.0));
            }
        }
    }
    let mut fanout_start = vec![0usize; n_cells + 1];
    for &(src, _) in &edges {
        fanout_start[src as usize + 1] += 1;
    }
    for c in 0..n_cells {
        fanout_start[c + 1] += fanout_start[c];
    }
    let mut fill = fanout_start.clone();
    let mut fanout = vec![0u32; edges.len()];
    for (src, id) in edges {
        fanout[fill[src as usize]] = id;
        fill[src as usize] += 1;
    }

    // The queue, once drained, is the evaluation order.
    let mut cell_levels = vec![0u32; n_cells];
    let mut order: Vec<CellId> = netlist
        .cells()
        .filter(|&(id, _)| comb(id) && indegree[id.index()] == 0)
        .map(|(id, _)| id)
        .collect();
    let mut head = 0;
    while head < order.len() {
        let id = order[head];
        head += 1;
        cell_levels[id.index()] = netlist
            .cell(id)
            .inputs()
            .iter()
            .map(|&i| match comb_driver[i.index()] {
                NONE => 0,
                c => cell_levels[c as usize] + 1,
            })
            .max()
            .unwrap_or(0);
        for &f in &fanout[fanout_start[id.index()]..fanout_start[id.index() + 1]] {
            indegree[f as usize] -= 1;
            if indegree[f as usize] == 0 {
                order.push(CellId(f));
            }
        }
    }

    let combinational_total = netlist
        .cells()
        .filter(|(_, c)| !c.kind().is_sequential())
        .count();
    if order.len() != combinational_total {
        // Some combinational cell never reached indegree 0: a cycle.
        let stuck = netlist
            .cells()
            .find(|(id, c)| !c.kind().is_sequential() && indegree[id.index()] > 0)
            .map(|(id, _)| id.0)
            .unwrap_or(0);
        return Err(NetlistError::CombinationalCycle { cell: stuck });
    }

    let max_level = cell_levels.iter().copied().max().unwrap_or(0);
    Ok(Levels {
        cell_levels,
        order,
        max_level,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Netlist;

    #[test]
    fn chain_has_increasing_levels() {
        let mut n = Netlist::new("chain");
        let a = n.input("a");
        let x1 = n.not(a);
        let x2 = n.not(x1);
        let x3 = n.not(x2);
        n.mark_output("y", x3);
        let levels = levelize(&n).unwrap();
        assert_eq!(levels.max_level(), 2);
        let order = levels.eval_order();
        assert_eq!(order.len(), 3);
        // Evaluation order must respect dependencies.
        let pos = |c: CellId| order.iter().position(|&x| x == c).unwrap();
        assert!(pos(order[0]) < pos(order[2]));
    }

    #[test]
    fn dff_breaks_cycles() {
        let mut n = Netlist::new("toggle");
        let (q, d) = n.dff_deferred();
        let nq = n.not(q);
        n.connect_dff_d(d, nq);
        let levels = levelize(&n).unwrap();
        // The inverter reads a flop output → level 0.
        assert_eq!(levels.max_level(), 0);
        assert_eq!(levels.eval_order().len(), 1);
    }

    #[test]
    fn pure_combinational_cycle_is_detected() {
        // Build not(not(x)) and then rewire the first inverter's input to
        // the second inverter's output: a two-gate combinational loop.
        let mut n = Netlist::new("loop");
        let a = n.input("a");
        let x1 = n.not(a);
        let x2 = n.not(x1);
        let first_inv = match n.net_source(x1) {
            crate::graph::NetSource::Cell(c) => *c,
            _ => unreachable!(),
        };
        n.rewire_input(first_inv, 0, x2).unwrap();
        assert!(matches!(
            levelize(&n),
            Err(NetlistError::CombinationalCycle { .. })
        ));
        assert!(n.validate().is_err());
    }

    #[test]
    fn empty_netlist_levelizes() {
        let n = Netlist::new("empty");
        let levels = levelize(&n).unwrap();
        assert_eq!(levels.max_level(), 0);
        assert!(levels.eval_order().is_empty());
    }

    #[test]
    fn diamond_levels() {
        let mut n = Netlist::new("diamond");
        let a = n.input("a");
        let l = n.not(a);
        let r = n.buf(a);
        let j = n.and2(l, r);
        n.mark_output("j", j);
        let levels = levelize(&n).unwrap();
        let join_cell = match n.net_source(j) {
            crate::graph::NetSource::Cell(c) => *c,
            _ => unreachable!(),
        };
        assert_eq!(levels.level_of(join_cell), 1);
        assert_eq!(levels.max_level(), 1);
    }

    /// Kahn's algorithm with one fanout list per cell, in the same queue
    /// discipline as [`levelize`]: the reference its flat fanout must
    /// reproduce exactly.
    fn levelize_reference(netlist: &Netlist) -> (Vec<u32>, Vec<CellId>) {
        let n = netlist.cell_count();
        let comb = |c: CellId| !netlist.cell(c).kind().is_sequential();
        let mut indegree = vec![0u32; n];
        let mut fanout: Vec<Vec<CellId>> = vec![Vec::new(); n];
        for (id, cell) in netlist.cells().filter(|&(id, _)| comb(id)) {
            for &input in cell.inputs() {
                if let NetSource::Cell(src) = netlist.net_source(input) {
                    if comb(*src) {
                        indegree[id.index()] += 1;
                        fanout[src.index()].push(id);
                    }
                }
            }
        }
        let mut queue: Vec<CellId> = netlist
            .cells()
            .map(|(id, _)| id)
            .filter(|&id| comb(id) && indegree[id.index()] == 0)
            .collect();
        let mut levels = vec![0u32; n];
        let mut head = 0;
        while head < queue.len() {
            let id = queue[head];
            head += 1;
            levels[id.index()] = netlist
                .cell(id)
                .inputs()
                .iter()
                .map(|&i| match netlist.net_source(i) {
                    NetSource::Cell(c) if comb(*c) => levels[c.index()] + 1,
                    _ => 0,
                })
                .max()
                .unwrap_or(0);
            for &f in &fanout[id.index()] {
                indegree[f.index()] -= 1;
                if indegree[f.index()] == 0 {
                    queue.push(f);
                }
            }
        }
        (levels, queue)
    }

    #[test]
    fn flat_fanout_levelizes_like_per_cell_lists() {
        use crate::cell::ALL_KINDS;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        for _ in 0..8 {
            let mut n = Netlist::new("random");
            let mut nets = n.input_bus("i", 4);
            let deferred: Vec<_> = (0..6).map(|_| n.dff_deferred()).collect();
            nets.extend(deferred.iter().map(|(q, _)| *q));
            for _ in 0..300 {
                let kind = ALL_KINDS[rng.gen_range(0..ALL_KINDS.len())];
                let ins: Vec<NetId> = (0..kind.arity())
                    .map(|_| nets[rng.gen_range(0..nets.len())])
                    .collect();
                let out = if kind.is_sequential() {
                    n.dff(ins[0])
                } else {
                    n.gate(kind, &ins)
                };
                nets.push(out);
            }
            for (_, d) in deferred {
                let net = nets[rng.gen_range(0..nets.len())];
                n.connect_dff_d(d, net);
            }
            let levels = levelize(&n).unwrap();
            let (reference, order) = levelize_reference(&n);
            assert_eq!(levels.cell_levels(), reference.as_slice());
            assert_eq!(levels.eval_order(), order.as_slice());
            assert_eq!(levels.max_level(), reference.iter().copied().max().unwrap());
        }
    }

    #[test]
    fn levels_vector_matches_cell_count() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let b = n.not(a);
        let _ = n.dff(b);
        let levels = levelize(&n).unwrap();
        assert_eq!(levels.cell_levels().len(), 2);
    }
}
