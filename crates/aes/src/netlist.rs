//! Gate-level AES-128 netlist generator.
//!
//! Architecture: iterative, one round per clock cycle, matching the compact
//! ASIC AES cores the paper's class of test chips use:
//!
//! - 128-bit state register, 128-bit round-key register, 4-bit round
//!   counter,
//! - 16 BDD-synthesized S-boxes for SubBytes plus 4 for the on-the-fly key
//!   schedule,
//! - ShiftRows as pure wiring, MixColumns as an XOR network with a
//!   last-round bypass mux,
//! - a control truth table (round counter → Rcon byte, `advance`, `last`,
//!   `done`) synthesized through the same BDD path.
//!
//! Protocol: drive `pt`/`key`, pulse `start` high for one cycle, then clock
//! 10 more cycles; `done` rises and `ct` holds the ciphertext. Eleven
//! edges per block in total (see [`run_encryption`]).
//!
//! Bit convention: bus index `8·b + i` is bit `i` (LSB) of block byte `b`,
//! so a 128-bit bus equals `u128::from_le_bytes(block)`.

use crate::reference::RCON;
use crate::sbox::sbox_truth_table;
use emtrust_netlist::graph::{NetId, Netlist};
use emtrust_netlist::synth::{BddSynthesizer, TruthTable};
use emtrust_netlist::NetlistError;
use emtrust_sim::engine::{Program, Simulator};
use std::sync::OnceLock;

/// The primary ports of a generated AES-128 core.
#[derive(Debug, Clone)]
pub struct AesPorts {
    /// Load strobe: latch `pt`/`key` and begin a new encryption.
    pub start: NetId,
    /// Plaintext input bus (128 bits, see module docs for bit order).
    pub pt: Vec<NetId>,
    /// Key input bus (128 bits).
    pub key: Vec<NetId>,
    /// Ciphertext output bus — the state register (128 bits).
    pub ct: Vec<NetId>,
    /// High once the encryption has completed.
    pub done: NetId,
    /// The 4-bit round counter (exposed for observability and for the
    /// Trojan generators, which tap architectural state).
    pub round: Vec<NetId>,
}

/// Converts a block to the 128-bit bus word (little-endian bytes).
pub fn block_to_word(block: [u8; 16]) -> u128 {
    u128::from_le_bytes(block)
}

/// Converts a 128-bit bus word back to a block.
pub fn word_to_block(word: u128) -> [u8; 16] {
    word.to_le_bytes()
}

/// Builds an AES-128 core into `netlist` under the module tag `aes`.
///
/// # Panics
///
/// Panics only on internal inconsistencies (the S-box and control truth
/// tables are statically well-formed).
pub fn build_aes(netlist: &mut Netlist) -> AesPorts {
    netlist.push_module("aes");

    let start = netlist.input("start");
    let pt = netlist.input_bus("pt", 128);
    let key = netlist.input_bus("key", 128);

    // Registers.
    let mut state_q = Vec::with_capacity(128);
    let mut state_d = Vec::with_capacity(128);
    let mut key_q = Vec::with_capacity(128);
    let mut key_d = Vec::with_capacity(128);
    netlist.push_module("state_reg");
    for _ in 0..128 {
        let (q, d) = netlist.dff_deferred();
        state_q.push(q);
        state_d.push(d);
    }
    netlist.pop_module();
    netlist.push_module("key_reg");
    for _ in 0..128 {
        let (q, d) = netlist.dff_deferred();
        key_q.push(q);
        key_d.push(d);
    }
    netlist.pop_module();
    netlist.push_module("ctrl");
    let mut round_q = Vec::with_capacity(4);
    let mut round_d = Vec::with_capacity(4);
    for _ in 0..4 {
        let (q, d) = netlist.dff_deferred();
        round_q.push(q);
        round_d.push(d);
    }

    // Control table: round -> (rcon[0..8], advance[8], last[9], done[10]).
    let ctrl_tt = TruthTable::from_fn(4, 11, |r| {
        let rcon = if (1..=10).contains(&r) {
            RCON[r] as u64
        } else {
            0
        };
        let advance = u64::from((1..=10).contains(&r));
        let last = u64::from(r == 10);
        let done = u64::from(r == 11);
        rcon | advance << 8 | last << 9 | done << 10
    })
    .expect("control table is well-formed");
    let ctrl = BddSynthesizer::from_truth_table(&ctrl_tt)
        .emit(netlist, &round_q)
        .expect("control emission");
    let rcon_bits = &ctrl[0..8];
    let advance = ctrl[8];
    let last = ctrl[9];
    let done = ctrl[10];

    // Round counter increment (ripple): r0'=!r0, carries through ANDs.
    let inc0 = netlist.not(round_q[0]);
    let c01 = round_q[0];
    let inc1 = netlist.xor2(round_q[1], c01);
    let c12 = netlist.and2(round_q[0], round_q[1]);
    let inc2 = netlist.xor2(round_q[2], c12);
    let c23 = netlist.and2(c12, round_q[2]);
    let inc3 = netlist.xor2(round_q[3], c23);
    let inc = [inc0, inc1, inc2, inc3];
    // d_round = start ? 1 : (advance ? round+1 : round).
    for i in 0..4 {
        let adv = netlist.mux2(round_q[i], inc[i], advance);
        let init = netlist.constant(i == 0);
        let d = netlist.mux2(adv, init, start);
        netlist.connect_dff_d(round_d.remove(0), d);
    }
    netlist.pop_module(); // ctrl

    // SubBytes: 16 S-boxes on the state register.
    let sbox = BddSynthesizer::from_truth_table(&sbox_truth_table().expect("s-box table"));
    let mut sub = vec![netlist.const0(); 128];
    for b in 0..16 {
        netlist.push_module(&format!("sbox{b}"));
        let ins: Vec<NetId> = (0..8).map(|i| state_q[8 * b + i]).collect();
        let outs = sbox.emit(netlist, &ins).expect("s-box emission");
        for i in 0..8 {
            sub[8 * b + i] = outs[i];
        }
        netlist.pop_module();
    }

    // ShiftRows: pure wiring — out[r + 4c] = in[r + 4((c + r) % 4)].
    let mut shifted = vec![netlist.const0(); 128];
    for r in 0..4 {
        for c in 0..4 {
            let src = r + 4 * ((c + r) % 4);
            let dst = r + 4 * c;
            for i in 0..8 {
                shifted[8 * dst + i] = sub[8 * src + i];
            }
        }
    }

    // MixColumns XOR network.
    netlist.push_module("mixcols");
    let mut mixed = vec![netlist.const0(); 128];
    for c in 0..4 {
        let byte =
            |r: usize| -> Vec<NetId> { (0..8).map(|i| shifted[8 * (4 * c + r) + i]).collect() };
        let cols: [Vec<NetId>; 4] = [byte(0), byte(1), byte(2), byte(3)];
        let xt: Vec<Vec<NetId>> = cols.iter().map(|b| emit_xtime(netlist, b)).collect();
        for r in 0..4 {
            for i in 0..8 {
                // out_r = xtime(s_r) ^ xtime(s_{r+1}) ^ s_{r+1} ^ s_{r+2} ^ s_{r+3}
                let terms = [
                    xt[r][i],
                    xt[(r + 1) % 4][i],
                    cols[(r + 1) % 4][i],
                    cols[(r + 2) % 4][i],
                    cols[(r + 3) % 4][i],
                ];
                mixed[8 * (4 * c + r) + i] = netlist.xor_many(&terms);
            }
        }
    }
    netlist.pop_module();

    // Last-round bypass: rows only (no MixColumns in round 10).
    netlist.push_module("bypass");
    let pre_ark: Vec<NetId> = (0..128)
        .map(|i| netlist.mux2(mixed[i], shifted[i], last))
        .collect();
    netlist.pop_module();

    // Key schedule: next round key from key_q and the Rcon byte.
    netlist.push_module("ksch");
    // RotWord(w3) = bytes [13, 14, 15, 12]; SubWord via 4 S-boxes.
    let mut subword = Vec::with_capacity(32);
    for (j, src_byte) in [13usize, 14, 15, 12].iter().enumerate() {
        netlist.push_module(&format!("sbox{j}"));
        let ins: Vec<NetId> = (0..8).map(|i| key_q[8 * src_byte + i]).collect();
        let outs = sbox.emit(netlist, &ins).expect("key-schedule s-box");
        subword.extend(outs);
        netlist.pop_module();
    }
    // t = SubWord(RotWord(w3)) ^ Rcon (Rcon XORs into byte 0 only).
    let mut t: Vec<NetId> = subword;
    for i in 0..8 {
        t[i] = netlist.xor2(t[i], rcon_bits[i]);
    }
    // w0' = w0 ^ t; w_i' = w_i ^ w_{i-1}' for i in 1..4.
    let mut next_key = vec![netlist.const0(); 128];
    for i in 0..32 {
        next_key[i] = netlist.xor2(key_q[i], t[i]);
    }
    for w in 1..4 {
        for i in 0..32 {
            let idx = 32 * w + i;
            next_key[idx] = netlist.xor2(key_q[idx], next_key[32 * (w - 1) + i]);
        }
    }
    netlist.pop_module();

    // AddRoundKey with the *next* round key (computed this cycle).
    netlist.push_module("ark");
    let round_out: Vec<NetId> = (0..128)
        .map(|i| netlist.xor2(pre_ark[i], next_key[i]))
        .collect();
    netlist.pop_module();

    // Load path: state <- pt ^ key (initial AddRoundKey).
    netlist.push_module("load");
    let load_state: Vec<NetId> = (0..128).map(|i| netlist.xor2(pt[i], key[i])).collect();
    netlist.pop_module();

    // Register input muxes.
    netlist.push_module("state_mux");
    for i in 0..128 {
        let adv = netlist.mux2(state_q[i], round_out[i], advance);
        let d = netlist.mux2(adv, load_state[i], start);
        netlist.connect_dff_d(state_d.remove(0), d);
    }
    netlist.pop_module();
    netlist.push_module("key_mux");
    for i in 0..128 {
        let adv = netlist.mux2(key_q[i], next_key[i], advance);
        let d = netlist.mux2(adv, key[i], start);
        netlist.connect_dff_d(key_d.remove(0), d);
    }
    netlist.pop_module();

    netlist.mark_output_bus("ct", &state_q);
    netlist.mark_output("done", done);
    netlist.pop_module(); // aes

    AesPorts {
        start,
        pt,
        key,
        ct: state_q,
        done,
        round: round_q,
    }
}

/// Emits the GF(2⁸) `xtime` of an 8-bit bus (3 XOR gates).
fn emit_xtime(netlist: &mut Netlist, byte: &[NetId]) -> Vec<NetId> {
    debug_assert_eq!(byte.len(), 8);
    let s7 = byte[7];
    vec![
        s7,
        netlist.xor2(byte[0], s7),
        byte[1],
        netlist.xor2(byte[2], s7),
        netlist.xor2(byte[3], s7),
        byte[4],
        byte[5],
        byte[6],
    ]
}

/// Drives one full encryption on a running simulator: 12 clock edges
/// (input propagation + load + 10 rounds). Returns the ciphertext block.
///
/// Inputs set before an edge settle through the combinational cloud during
/// that edge's cycle and are captured at the *next* edge (standard
/// synchronous timing), hence the one-cycle lead-in.
///
/// The simulator may be recording activity; the 12 cycles of this block
/// will be appended to the recording.
pub fn run_encryption(
    sim: &mut Simulator<'_>,
    ports: &AesPorts,
    key: [u8; 16],
    pt: [u8; 16],
) -> [u8; 16] {
    run_encryption_with(sim, ports, key, pt, |_| {})
}

/// Like [`run_encryption`], invoking `observe` after every clock edge —
/// the hook through which the measurement pipeline samples analog side
/// state (e.g. Trojan T2's leakage-sense net) cycle by cycle.
pub fn run_encryption_with(
    sim: &mut Simulator<'_>,
    ports: &AesPorts,
    key: [u8; 16],
    pt: [u8; 16],
    mut observe: impl FnMut(&Simulator<'_>),
) -> [u8; 16] {
    run_encryption_stepped(sim, ports, key, pt, |s| {
        s.step();
        observe(s);
    })
}

/// Like [`run_encryption`], with every clock edge applied by `step`
/// instead of [`Simulator::step`]: the hook through which a caller
/// streams each edge's [`ToggleWords`](emtrust_sim::ToggleWords) into
/// its own sink with [`Simulator::step_words`].
pub fn run_encryption_stepped<'a>(
    sim: &mut Simulator<'a>,
    ports: &AesPorts,
    key: [u8; 16],
    pt: [u8; 16],
    step: impl FnMut(&mut Simulator<'a>),
) -> [u8; 16] {
    drive_encryption(sim, ports, key, pt, step);
    debug_assert!(sim.value(ports.done), "done must be high after 12 edges");
    word_to_block(sim.bus(&ports.ct))
}

/// Drives one encryption's inputs around the 12 clock edges that `step`
/// applies, and reads nothing back: the stimulus of
/// [`run_encryption_stepped`] for a `step` that advances only part of
/// the circuit ([`Simulator::step_cone`]).
pub fn drive_encryption<'a>(
    sim: &mut Simulator<'a>,
    ports: &AesPorts,
    key: [u8; 16],
    pt: [u8; 16],
    mut step: impl FnMut(&mut Simulator<'a>),
) {
    sim.set_bus(&ports.key, block_to_word(key));
    sim.set_bus(&ports.pt, block_to_word(pt));
    sim.set_input(ports.start, true);
    step(sim); // lead-in: load values settle on the register d-pins
    sim.set_input(ports.start, false);
    for _ in 1..CYCLES_PER_BLOCK {
        step(sim); // load edge (state <- pt ^ key, round <- 1), 10 rounds
    }
}

/// Drives one encryption per lane: `plaintexts[j]` in lane `j`, all
/// under `key`, lanes `0..plaintexts.len()` live. The same 12 clock edges
/// as [`run_encryption`]; a recording in progress gains 12 cycles per
/// live lane. Returns the ciphertexts in lane order.
///
/// Each lane continues from its own register state, so lane `j`'s events
/// equal a serial run of `plaintexts[j]` from that state.
///
/// # Panics
///
/// Panics if `plaintexts` is empty or longer than [`LANES`](emtrust_sim::LANES).
pub fn run_encryptions(
    sim: &mut Simulator<'_>,
    ports: &AesPorts,
    key: [u8; 16],
    plaintexts: &[[u8; 16]],
) -> Vec<[u8; 16]> {
    run_encryptions_stepped(sim, ports, key, plaintexts, Simulator::step)
}

/// [`run_encryptions`] with every clock edge applied by `step` (see
/// [`run_encryption_stepped`]).
///
/// # Panics
///
/// Panics if `plaintexts` is empty or longer than [`LANES`](emtrust_sim::LANES).
pub fn run_encryptions_stepped<'a>(
    sim: &mut Simulator<'a>,
    ports: &AesPorts,
    key: [u8; 16],
    plaintexts: &[[u8; 16]],
    mut step: impl FnMut(&mut Simulator<'a>),
) -> Vec<[u8; 16]> {
    let words: Vec<u128> = plaintexts.iter().map(|&pt| block_to_word(pt)).collect();
    sim.set_bus(&ports.key, block_to_word(key));
    sim.set_bus_lanes(&ports.pt, &words);
    sim.set_input(ports.start, true);
    step(sim); // lead-in
    sim.set_input(ports.start, false);
    for _ in 1..CYCLES_PER_BLOCK {
        step(sim); // load edge + 10 rounds
    }
    (0..plaintexts.len())
        .map(|lane| word_to_block(sim.bus_lane(&ports.ct, lane)))
        .collect()
}

/// Number of clock edges one encryption takes (lead-in + load + 10 rounds).
pub const CYCLES_PER_BLOCK: usize = 12;

/// An owned AES core: netlist plus ports, ready to spawn simulators.
#[derive(Debug)]
pub struct AesHarness {
    netlist: Netlist,
    ports: AesPorts,
    /// The netlist compiled for simulation, on first use.
    program: OnceLock<Result<Program, NetlistError>>,
}

impl AesHarness {
    /// Generates a standalone AES-128 netlist.
    pub fn new() -> Self {
        let mut netlist = Netlist::new("aes128");
        let ports = build_aes(&mut netlist);
        Self {
            netlist,
            ports,
            program: OnceLock::new(),
        }
    }

    /// The generated netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The core's ports.
    pub fn ports(&self) -> &AesPorts {
        &self.ports
    }

    /// Spawns a fresh simulator over the netlist. The netlist is
    /// compiled on the first call; later calls only allocate lane state.
    ///
    /// # Errors
    ///
    /// Propagates structural errors from compilation (none occur for the
    /// generated core; the signature keeps the contract honest).
    pub fn simulator(&self) -> Result<Simulator<'_>, NetlistError> {
        let program = self
            .program
            .get_or_init(|| Program::compile(&self.netlist))
            .as_ref()
            .map_err(Clone::clone)?;
        Ok(Simulator::with_program(&self.netlist, program))
    }

    /// Encrypts one block on a fresh simulator (convenience for tests).
    ///
    /// # Errors
    ///
    /// Propagates simulator construction errors.
    pub fn encrypt_block(&self, key: [u8; 16], pt: [u8; 16]) -> Result<[u8; 16], NetlistError> {
        let mut sim = self.simulator()?;
        Ok(run_encryption(&mut sim, &self.ports, key, pt))
    }
}

impl Default for AesHarness {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::Aes128;
    use rand::{Rng, SeedableRng};

    const FIPS_KEY: [u8; 16] = [
        0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f,
        0x3c,
    ];
    const FIPS_PT: [u8; 16] = [
        0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07,
        0x34,
    ];

    #[test]
    fn word_block_round_trip() {
        let block: [u8; 16] = core::array::from_fn(|i| (i * 17) as u8);
        assert_eq!(word_to_block(block_to_word(block)), block);
        assert_eq!(
            block_to_word([1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
            1
        );
    }

    #[test]
    fn netlist_validates_and_has_expected_scale() {
        let aes = AesHarness::new();
        assert!(aes.netlist().validate().is_ok());
        let cells = aes.netlist().cell_count();
        assert!(
            (4_000..40_000).contains(&cells),
            "AES core cell count out of expected range: {cells}"
        );
        // 128 state + 128 key + 4 round counter flops.
        use emtrust_netlist::cell::CellKind;
        assert_eq!(aes.netlist().count_kind(CellKind::Dff), 260);
    }

    #[test]
    fn netlist_matches_fips_vector() {
        let aes = AesHarness::new();
        let ct = aes.encrypt_block(FIPS_KEY, FIPS_PT).unwrap();
        let expect = Aes128::new(FIPS_KEY).encrypt_block(FIPS_PT);
        assert_eq!(ct, expect);
        assert_eq!(ct[0], 0x39);
    }

    #[test]
    fn netlist_matches_reference_on_random_blocks() {
        let aes = AesHarness::new();
        let mut sim = aes.simulator().unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for _ in 0..8 {
            let key: [u8; 16] = rng.gen();
            let pt: [u8; 16] = rng.gen();
            let hw = run_encryption(&mut sim, aes.ports(), key, pt);
            let sw = Aes128::new(key).encrypt_block(pt);
            assert_eq!(hw, sw, "key {key:02x?} pt {pt:02x?}");
        }
    }

    #[test]
    fn back_to_back_encryptions_are_independent() {
        let aes = AesHarness::new();
        let mut sim = aes.simulator().unwrap();
        let a = run_encryption(&mut sim, aes.ports(), FIPS_KEY, FIPS_PT);
        let b = run_encryption(&mut sim, aes.ports(), FIPS_KEY, [0u8; 16]);
        let c = run_encryption(&mut sim, aes.ports(), FIPS_KEY, FIPS_PT);
        assert_eq!(a, c, "state must fully reload between blocks");
        assert_ne!(a, b);
    }

    #[test]
    fn done_goes_high_only_at_the_end() {
        let aes = AesHarness::new();
        let mut sim = aes.simulator().unwrap();
        sim.set_bus(&aes.ports().key, block_to_word(FIPS_KEY));
        sim.set_bus(&aes.ports().pt, block_to_word(FIPS_PT));
        sim.set_input(aes.ports().start, true);
        sim.step(); // lead-in
        sim.set_input(aes.ports().start, false);
        for cycle in 0..11 {
            assert!(!sim.value(aes.ports().done), "done early at cycle {cycle}");
            sim.step();
        }
        assert!(sim.value(aes.ports().done));
    }

    #[test]
    fn state_register_tracks_reference_rounds() {
        let aes = AesHarness::new();
        let reference = Aes128::new(FIPS_KEY);
        let mut sim = aes.simulator().unwrap();
        sim.set_bus(&aes.ports().key, block_to_word(FIPS_KEY));
        sim.set_bus(&aes.ports().pt, block_to_word(FIPS_PT));
        sim.set_input(aes.ports().start, true);
        sim.step(); // lead-in
        sim.set_input(aes.ports().start, false);
        sim.step(); // load edge
                    // After the load edge the state register holds the round-0 state.
        assert_eq!(
            word_to_block(sim.bus(&aes.ports().ct)),
            reference.state_after_round(FIPS_PT, 0)
        );
        for r in 1..=10 {
            sim.step();
            assert_eq!(
                word_to_block(sim.bus(&aes.ports().ct)),
                reference.state_after_round(FIPS_PT, r),
                "round {r}"
            );
        }
    }

    #[test]
    fn activity_is_recorded_during_encryption() {
        let aes = AesHarness::new();
        let mut sim = aes.simulator().unwrap();
        sim.start_recording();
        let _ = run_encryption(&mut sim, aes.ports(), FIPS_KEY, FIPS_PT);
        let trace = sim.take_recording();
        assert_eq!(trace.cycle_count(), CYCLES_PER_BLOCK);
        // An AES round flips roughly half the state plus the S-box cloud —
        // thousands of toggles per cycle.
        assert!(
            trace.mean_toggles_per_cycle() > 500.0,
            "suspiciously low activity: {}",
            trace.mean_toggles_per_cycle()
        );
    }

    #[test]
    fn module_tags_cover_the_design() {
        use emtrust_netlist::stats::module_stats;
        let aes = AesHarness::new();
        let total = module_stats(aes.netlist(), "aes").total;
        assert_eq!(total, aes.netlist().cell_count());
        assert!(module_stats(aes.netlist(), "aes/sbox0").total > 100);
        assert!(module_stats(aes.netlist(), "aes/ksch").total > 400);
        assert!(module_stats(aes.netlist(), "aes/mixcols").total > 300);
    }
}
