//! The word-parallel engine against a one-`bool`-per-net reference.
//!
//! The reference evaluates every cell through `CellKind::eval` in
//! `levelize` order, one circuit at a time — the semantics the compiled
//! kernel must reproduce in every lane: the same events in the same
//! order, the same levels and edges, the same ciphertexts.

use emtrust_aes::netlist::{
    block_to_word, run_encryption_with, run_encryptions, word_to_block, AesPorts, CYCLES_PER_BLOCK,
};
use emtrust_aes::reference::Aes128;
use emtrust_netlist::graph::{CellId, NetId, Netlist};
use emtrust_netlist::level::levelize;
use emtrust_sim::{ToggleEvent, LANES};
use emtrust_trojan::digital::ALL_DIGITAL_TROJANS;
use emtrust_trojan::ProtectedChip;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

/// The reference engine: one `bool` per net.
struct Reference<'n> {
    netlist: &'n Netlist,
    /// Combinational cells in evaluation order, with `level + 1`.
    order: Vec<(CellId, u32)>,
    /// Flip-flops in id order: (cell, d, q).
    flops: Vec<(CellId, NetId, NetId)>,
    nets: Vec<bool>,
}

impl<'n> Reference<'n> {
    fn new(netlist: &'n Netlist) -> Self {
        let levels = levelize(netlist).unwrap();
        let order = levels
            .eval_order()
            .iter()
            .map(|&c| (c, levels.level_of(c) + 1))
            .collect();
        let flops = netlist
            .cells()
            .filter(|(_, c)| c.kind().is_sequential())
            .map(|(id, c)| (id, c.inputs()[0], c.output()))
            .collect();
        let mut nets = vec![false; netlist.net_count()];
        nets[netlist.const1().index()] = true;
        Self {
            netlist,
            order,
            flops,
            nets,
        }
    }

    fn set_bus(&mut self, nets: &[NetId], word: u128) {
        for (i, n) in nets.iter().enumerate() {
            self.nets[n.index()] = word >> i & 1 != 0;
        }
    }

    /// One clock edge: flops capture, then every cell settles in order.
    fn step(&mut self) -> Vec<ToggleEvent> {
        let mut events = Vec::new();
        let mut drive = |nets: &mut Vec<bool>, net: NetId, new: bool, cell, level| {
            if nets[net.index()] != new {
                nets[net.index()] = new;
                events.push(ToggleEvent {
                    cell,
                    level,
                    rising: new,
                });
            }
        };
        let captured: Vec<bool> = self.flops.iter().map(|f| self.nets[f.1.index()]).collect();
        for (&(cell, _, q), new) in self.flops.iter().zip(captured) {
            drive(&mut self.nets, q, new, cell, 0);
        }
        for &(cell, level) in &self.order {
            let c = self.netlist.cell(cell);
            let ins: Vec<bool> = c.inputs().iter().map(|n| self.nets[n.index()]).collect();
            drive(&mut self.nets, c.output(), c.kind().eval(&ins), cell, level);
        }
        events
    }

    /// One encryption in `run_encryption_with`'s protocol: per-cycle
    /// events, the ciphertext, and `sense`'s value after every edge.
    fn encrypt(
        &mut self,
        ports: &AesPorts,
        key: [u8; 16],
        pt: [u8; 16],
        sense: Option<NetId>,
    ) -> (Vec<Vec<ToggleEvent>>, [u8; 16], Vec<bool>) {
        self.set_bus(&ports.key, block_to_word(key));
        self.set_bus(&ports.pt, block_to_word(pt));
        let mut cycles = Vec::new();
        let mut sensed = Vec::new();
        for edge in 0..CYCLES_PER_BLOCK {
            self.nets[ports.start.index()] = edge == 0;
            cycles.push(self.step());
            sensed.extend(sense.map(|n| self.nets[n.index()]));
        }
        let ct = ports.ct.iter().enumerate().fold(0u128, |acc, (i, n)| {
            acc | u128::from(self.nets[n.index()]) << i
        });
        (cycles, word_to_block(ct), sensed)
    }
}

fn golden() -> &'static ProtectedChip {
    static CHIP: OnceLock<ProtectedChip> = OnceLock::new();
    CHIP.get_or_init(ProtectedChip::golden)
}

/// Lane j warms up with plaintext j and records plaintext j + 1; the
/// reference encrypts the whole chain serially. Every lane's trace,
/// ciphertext and FIPS-197 ciphertext agree.
fn check_lanes(lanes: usize, seed: u64) {
    let chip = golden();
    let ports = chip.aes_ports();
    let mut rng = StdRng::seed_from_u64(seed);
    let key: [u8; 16] = rng.gen();
    let chain: Vec<[u8; 16]> = (0..=lanes).map(|_| rng.gen()).collect();

    let mut sim = chip.simulator().unwrap();
    run_encryptions(&mut sim, ports, key, &chain[..lanes]);
    sim.start_recording();
    let cts = run_encryptions(&mut sim, ports, key, &chain[1..]);
    let traces = sim.take_lane_recordings();
    assert_eq!(traces.len(), lanes);

    let mut reference = Reference::new(chip.netlist());
    reference.encrypt(ports, key, chain[0], None);
    let fips = Aes128::new(key);
    for (lane, (trace, ct)) in traces.iter().zip(&cts).enumerate() {
        let pt = chain[lane + 1];
        let (cycles, expect_ct, _) = reference.encrypt(ports, key, pt, None);
        assert_eq!(trace.cycle_count(), CYCLES_PER_BLOCK);
        for (c, (got, want)) in trace.cycles().zip(&cycles).enumerate() {
            let got: Vec<ToggleEvent> = got.events().collect();
            assert_eq!(&got, want, "{lanes} lanes: lane {lane} cycle {c}");
        }
        assert_eq!(*ct, expect_ct, "{lanes} lanes: lane {lane}");
        assert_eq!(*ct, fips.encrypt_block(pt), "{lanes} lanes: lane {lane}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn every_lane_matches_the_reference(lanes in 1usize..=LANES, seed in 0u64..u64::MAX) {
        check_lanes(lanes, seed);
    }
}

#[test]
fn lane_counts_at_the_kernel_boundaries_match_the_reference() {
    // The one-lane kernel, the narrowest transposed width, a full word.
    for (seed, lanes) in [1, 2, LANES].into_iter().enumerate() {
        check_lanes(lanes, seed as u64);
    }
}

#[test]
fn one_armed_lane_matches_the_reference_for_every_trojan() {
    let chip = ProtectedChip::with_all_trojans();
    let ports = chip.aes_ports();
    let key: [u8; 16] = *b"lane-oracle-key!";
    let plaintexts: [[u8; 16]; 3] = [[0x11; 16], *b"one armed lane..", [0xA5; 16]];
    for kind in ALL_DIGITAL_TROJANS {
        let trojan = chip.trojan_ports(kind).unwrap();
        let mut sim = chip.simulator().unwrap();
        chip.disarm_all(&mut sim);
        chip.arm(&mut sim, kind, true);
        let mut reference = Reference::new(chip.netlist());
        for t in chip.trojan_kinds() {
            let trigger = chip.trojan_ports(t).unwrap().trigger;
            reference.nets[trigger.index()] = t == kind;
        }
        for (i, &pt) in plaintexts.iter().enumerate() {
            sim.start_recording();
            let mut sensed = Vec::new();
            let ct = run_encryption_with(&mut sim, ports, key, pt, |s| {
                sensed.extend(trojan.leak_sense.map(|n| s.value(n)));
            });
            let trace = sim.take_recording();
            let (cycles, expect_ct, expect_sensed) =
                reference.encrypt(ports, key, pt, trojan.leak_sense);
            for (c, (got, want)) in trace.cycles().zip(&cycles).enumerate() {
                let got: Vec<ToggleEvent> = got.events().collect();
                assert_eq!(&got, want, "{kind} block {i} cycle {c}");
            }
            assert_eq!(trace.cycle_count(), cycles.len());
            assert_eq!(ct, expect_ct, "{kind} block {i}");
            assert_eq!(ct, Aes128::new(key).encrypt_block(pt), "{kind} block {i}");
            assert_eq!(sensed, expect_sensed, "{kind} block {i}: leak sense");
            assert_eq!(sensed.is_empty(), trojan.leak_sense.is_none());
        }
    }
}
