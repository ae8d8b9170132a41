//! The four digital hardware Trojans as netlist generators.
//!
//! All four follow the paper's threat model: they tap architectural state
//! of the AES core (key bus, `start` strobe), stay dormant until an
//! explicit trigger input rises, and then produce the side effects the
//! detectors must catch. Sizes target the paper's Table-I percentages.

use emtrust_aes::netlist::AesPorts;
use emtrust_netlist::cell::CellKind;
use emtrust_netlist::graph::{NetId, Netlist};

/// The cell kind T1's antenna output stage uses.
pub const PAD_DRIVER_KIND: CellKind = CellKind::PadDriver;

/// Which of the paper's digital Trojans to insert.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum TrojanKind {
    /// AM-radio key leaker at ≈750 kHz (paper Trojan 1).
    T1AmLeaker,
    /// Leakage-current key leaker (paper Trojan 2).
    T2LeakageLeaker,
    /// CDMA spread-spectrum key leaker (paper Trojan 3).
    T3CdmaLeaker,
    /// Performance degrader: extra flipping registers (paper Trojan 4).
    T4PowerDegrader,
}

/// All four digital Trojans in paper order.
pub const ALL_DIGITAL_TROJANS: [TrojanKind; 4] = [
    TrojanKind::T1AmLeaker,
    TrojanKind::T2LeakageLeaker,
    TrojanKind::T3CdmaLeaker,
    TrojanKind::T4PowerDegrader,
];

impl TrojanKind {
    /// The module tag the Trojan's cells are placed under.
    pub fn module_tag(self) -> &'static str {
        match self {
            TrojanKind::T1AmLeaker => "trojan1",
            TrojanKind::T2LeakageLeaker => "trojan2",
            TrojanKind::T3CdmaLeaker => "trojan3",
            TrojanKind::T4PowerDegrader => "trojan4",
        }
    }

    /// The paper's Table-I size relative to the AES core, in percent.
    pub fn paper_percent(self) -> f64 {
        match self {
            TrojanKind::T1AmLeaker => 5.01,
            TrojanKind::T2LeakageLeaker => 8.44,
            TrojanKind::T3CdmaLeaker => 0.76,
            TrojanKind::T4PowerDegrader => 8.44,
        }
    }

    /// Paper row label (`T1`..`T4`).
    pub fn label(self) -> &'static str {
        match self {
            TrojanKind::T1AmLeaker => "T1",
            TrojanKind::T2LeakageLeaker => "T2",
            TrojanKind::T3CdmaLeaker => "T3",
            TrojanKind::T4PowerDegrader => "T4",
        }
    }
}

impl std::fmt::Display for TrojanKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Ports of an inserted digital Trojan.
#[derive(Debug, Clone)]
pub struct TrojanPorts {
    /// The Trojan inserted.
    pub kind: TrojanKind,
    /// External trigger input (paper's "manageable" activation signal).
    pub trigger: NetId,
    /// The covert-channel output net, where the Trojan has one (T1's
    /// modulated antenna node, T3's spread bit).
    pub leak: Option<NetId>,
    /// For T2: the net whose *low* state opens the leakage-current path
    /// between the inverter pair. The power model adds extra leakage while
    /// `leak_sense` is low and `trigger` is high.
    pub leak_sense: Option<NetId>,
}

/// Inserts Trojan `kind` into `netlist`, tapping the AES core at `aes`.
pub fn insert_trojan(netlist: &mut Netlist, aes: &AesPorts, kind: TrojanKind) -> TrojanPorts {
    match kind {
        TrojanKind::T1AmLeaker => insert_t1_am_leaker(netlist, aes),
        TrojanKind::T2LeakageLeaker => insert_t2_leakage_leaker(netlist, aes),
        TrojanKind::T3CdmaLeaker => insert_t3_cdma_leaker(netlist, aes),
        TrojanKind::T4PowerDegrader => insert_t4_power_degrader(netlist, aes),
    }
}

/// A `width`-bit circulating shift register that loads `load_data` while
/// `load` is high, shifts while `shift_en` is high, and holds otherwise.
/// Returns the register outputs (bit 0 is the serial tap).
fn circulating_register(
    netlist: &mut Netlist,
    load: NetId,
    shift_en: NetId,
    load_data: &[NetId],
    width: usize,
) -> Vec<NetId> {
    let mut qs = Vec::with_capacity(width);
    let mut ds = Vec::with_capacity(width);
    for _ in 0..width {
        let (q, d) = netlist.dff_deferred();
        qs.push(q);
        ds.push(d);
    }
    for (i, d) in ds.into_iter().enumerate() {
        let next = qs[(i + 1) % width];
        let shifted = netlist.mux2(qs[i], next, shift_en);
        let loaded = netlist.mux2(shifted, load_data[i % load_data.len()], load);
        netlist.connect_dff_d(d, loaded);
    }
    qs
}

/// A bank of `count` toggle flip-flops that flip every cycle while
/// `enable` is high. Returns the flop outputs.
fn toggle_bank(netlist: &mut Netlist, enable: NetId, count: usize) -> Vec<NetId> {
    (0..count)
        .map(|_| {
            let (q, d) = netlist.dff_deferred();
            let nq = netlist.not(q);
            let toggled = netlist.mux2(q, nq, enable);
            netlist.connect_dff_d(d, toggled);
            q
        })
        .collect()
}

/// **Trojan 1 — AM radio key leaker (≈5 % of the AES core).**
///
/// A divide-by-7 counter toggles a carrier flop (≈714 kHz at the 10 MHz
/// reference clock — the paper's 750 kHz band). A 32-bit key serializer
/// is loaded on `start` and advances one bit per carrier period;
/// `carrier ∧ key_bit ∧ trigger` amplitude-modulates a bank of
/// antenna-driver toggle flops, sized to radiate strongly enough for a
/// radio receiver — the drivers burst at the clock rate under the
/// ≈714 kHz on-off envelope, adding the low-frequency energy of paper
/// Fig. 6 (i).
pub fn insert_t1_am_leaker(netlist: &mut Netlist, aes: &AesPorts) -> TrojanPorts {
    netlist.push_module("trojan1");
    let trigger = netlist.input("trojan1_trigger");

    // Divide-by-7 counter: counts 0..=6, wraps.
    let (c0, d0) = netlist.dff_deferred();
    let (c1, d1) = netlist.dff_deferred();
    let (c2, d2) = netlist.dff_deferred();
    let wrap_raw = netlist.and2(c1, c2); // count == 6 (binary 110)
    let nc0 = netlist.not(c0);
    let wrap = netlist.and2(wrap_raw, nc0);
    let nwrap = netlist.not(wrap);
    // increment with wrap-to-zero.
    let i0 = netlist.not(c0);
    let i1 = netlist.xor2(c1, c0);
    let carry01 = netlist.and2(c0, c1);
    let i2 = netlist.xor2(c2, carry01);
    let n0 = netlist.and2(i0, nwrap);
    let n1 = netlist.and2(i1, nwrap);
    let n2 = netlist.and2(i2, nwrap);
    netlist.connect_dff_d(d0, n0);
    netlist.connect_dff_d(d1, n1);
    netlist.connect_dff_d(d2, n2);

    // Carrier flop toggles on wrap: f = clk / 14.
    let (carrier, dc) = netlist.dff_deferred();
    let ncar = netlist.not(carrier);
    let car_next = netlist.mux2(carrier, ncar, wrap);
    netlist.connect_dff_d(dc, car_next);

    // Key serializer, 32 bits, advances one bit per carrier period. The
    // key is captured once (first `start` strobe) and then cycles
    // continuously so successive bits leak across encryption blocks.
    let (loaded_q, loaded_d) = netlist.dff_deferred();
    let sticky = netlist.or2(loaded_q, aes.start);
    netlist.connect_dff_d(loaded_d, sticky);
    let not_loaded = netlist.not(loaded_q);
    let load_once = netlist.and2(aes.start, not_loaded);
    let sr = circulating_register(netlist, load_once, wrap, &aes.key[..32], 32);
    let key_bit = sr[0];

    // AM modulation and antenna output stage: a toggle bank bursts at
    // clock rate while the carrier is high and the key bit is 1, and pad
    // drivers push the bursts onto the antenna load — that large switched
    // capacitance is what makes T1 loud enough for a radio receiver.
    let armed = netlist.and2(key_bit, trigger);
    let modulated = netlist.and2(carrier, armed);
    let drivers = toggle_bank(netlist, modulated, 110);
    for &q in drivers.iter().take(32) {
        let _ = netlist.gate(crate::digital::PAD_DRIVER_KIND, &[q]);
    }

    netlist.pop_module();
    TrojanPorts {
        kind: TrojanKind::T1AmLeaker,
        trigger,
        leak: Some(modulated),
        leak_sense: None,
    }
}

/// **Trojan 2 — leakage-current key leaker (≈8.4 % of the AES core).**
///
/// A 256-bit circulating shift register captures the key on `start` and,
/// once triggered, shifts every cycle past a two-inverter sensing pair:
/// whenever the register's low bit is 0 a leakage path opens between the
/// PMOS of the first inverter and the NMOS of the second (paper §IV-A).
/// The dynamic shifting dominates the EM signature (Fig. 6 (j)); the
/// leakage itself is injected by the power model via [`TrojanPorts::leak_sense`].
pub fn insert_t2_leakage_leaker(netlist: &mut Netlist, aes: &AesPorts) -> TrojanPorts {
    netlist.push_module("trojan2");
    let trigger = netlist.input("trojan2_trigger");
    let sr = circulating_register(netlist, aes.start, trigger, &aes.key, 256);
    // The inverter pair on the serial tap.
    let inv1 = netlist.not(sr[0]);
    let _inv2 = netlist.not(inv1);
    netlist.pop_module();
    TrojanPorts {
        kind: TrojanKind::T2LeakageLeaker,
        trigger,
        leak: None,
        leak_sense: Some(sr[0]),
    }
}

/// **Trojan 3 — CDMA key leaker (≈0.76 % of the AES core).**
///
/// The smallest and stealthiest Trojan: a compact 8-bit maximal LFSR
/// provides the spreading sequence; an 8-bit key snippet circulates
/// slowly (one bit per 16 cycles); `spread = lfsr₀ ⊕ key_bit` drives a
/// single covert output flop. Most of its area is a *static* capture
/// buffer that latches key material once and then holds — it leaks over
/// "multiple clock cycles to leak a single bit" (paper §IV-A) with
/// minimal switching, which is exactly why Fig. 6 finds it the hardest
/// to see.
pub fn insert_t3_cdma_leaker(netlist: &mut Netlist, aes: &AesPorts) -> TrojanPorts {
    netlist.push_module("trojan3");
    let trigger = netlist.input("trojan3_trigger");

    // Static capture buffer: 8 bits of key latched at start, then held.
    // Near-zero switching after the first load.
    for i in 0..8 {
        let (q, d) = netlist.dff_deferred();
        let held = netlist.mux2(q, aes.key[i], aes.start);
        netlist.connect_dff_d(d, held);
    }

    // 8-bit Fibonacci LFSR, taps 8, 6, 5, 4 (maximal length).
    let mut qs = Vec::with_capacity(8);
    let mut ds = Vec::with_capacity(8);
    for _ in 0..8 {
        let (q, d) = netlist.dff_deferred();
        qs.push(q);
        ds.push(d);
    }
    let t1 = netlist.xor2(qs[7], qs[5]);
    let t2 = netlist.xor2(qs[4], qs[3]);
    let feedback_raw = netlist.xor2(t1, t2);
    // Ensure the LFSR self-starts from the all-zero reset state.
    let any = netlist.or_many(&qs);
    let none = netlist.not(any);
    let feedback = netlist.or2(feedback_raw, none);
    // The spreading sequence re-seeds at every `start` so the covert
    // receiver can synchronize its despreading to the encryption.
    const LFSR_SEED: u8 = 0xa5;
    for (i, d) in ds.into_iter().enumerate() {
        let next = if i == 0 { feedback } else { qs[i - 1] };
        let shifted = netlist.mux2(qs[i], next, trigger);
        let seed_bit = netlist.constant(LFSR_SEED >> i & 1 != 0);
        let seeded = netlist.mux2(shifted, seed_bit, aes.start);
        netlist.connect_dff_d(d, seeded);
    }

    // Slow 4-bit cycle counter: key bit advances when it wraps.
    let mut cq = Vec::with_capacity(4);
    let mut cd = Vec::with_capacity(4);
    for _ in 0..4 {
        let (q, d) = netlist.dff_deferred();
        cq.push(q);
        cd.push(d);
    }
    let c01 = netlist.and2(cq[0], cq[1]);
    let c012 = netlist.and2(c01, cq[2]);
    let wrap = netlist.and2(c012, cq[3]);
    let i0 = netlist.not(cq[0]);
    let i1 = netlist.xor2(cq[1], cq[0]);
    let i2 = netlist.xor2(cq[2], c01);
    let i3 = netlist.xor2(cq[3], c012);
    for (i, d) in cd.into_iter().enumerate() {
        let inc = [i0, i1, i2, i3][i];
        let nxt = netlist.mux2(cq[i], inc, trigger);
        // Counter also re-synchronizes at `start`.
        let cleared = netlist.mux2(nxt, netlist.const0(), aes.start);
        netlist.connect_dff_d(d, cleared);
    }

    // 8-bit key snippet, one bit per counter wrap.
    let snippet = circulating_register(netlist, aes.start, wrap, &aes.key[..8], 8);

    // Spread and emit through a ganged output pad stage (the covert
    // CDMA channel leaves the chip; the channel needs drive strength to
    // survive the off-chip link, and those four ganged pads toggling
    // at chip rate are the Trojan's only significant radiators — hence
    // its tiny signature).
    let spread_raw = netlist.xor2(qs[0], snippet[0]);
    let spread = netlist.and2(spread_raw, trigger);
    let (leak_q, leak_d) = netlist.dff_deferred();
    netlist.connect_dff_d(leak_d, spread);
    for _ in 0..4 {
        let _ = netlist.gate(PAD_DRIVER_KIND, &[leak_q]);
    }

    netlist.pop_module();
    TrojanPorts {
        kind: TrojanKind::T3CdmaLeaker,
        trigger,
        leak: Some(leak_q),
        leak_sense: None,
    }
}

/// **Trojan 4 — performance degrader (≈8.4 % of the AES core).**
///
/// A bank of toggle registers that all flip every cycle once triggered,
/// "increasing the power consumption by introducing more flipping
/// registers after activation" (paper §IV-A). Purely parasitic — no
/// covert channel, only the side-channel footprint.
pub fn insert_t4_power_degrader(netlist: &mut Netlist, aes: &AesPorts) -> TrojanPorts {
    let _ = aes; // taps nothing — pure payload
    netlist.push_module("trojan4");
    let trigger = netlist.input("trojan4_trigger");
    let _bank = toggle_bank(netlist, trigger, 284);
    netlist.pop_module();
    TrojanPorts {
        kind: TrojanKind::T4PowerDegrader,
        trigger,
        leak: None,
        leak_sense: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emtrust_aes::netlist::{build_aes, run_encryption};
    use emtrust_aes::reference::Aes128;
    use emtrust_netlist::stats::module_stats;
    use emtrust_sim::engine::Simulator;

    const KEY: [u8; 16] = [
        0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f,
        0x3c,
    ];
    const PT: [u8; 16] = [
        0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07,
        0x34,
    ];

    fn chip_with(kind: TrojanKind) -> (emtrust_netlist::graph::Netlist, AesPorts, TrojanPorts) {
        let mut n = emtrust_netlist::graph::Netlist::new("chip");
        let aes = build_aes(&mut n);
        let ports = insert_trojan(&mut n, &aes, kind);
        (n, aes, ports)
    }

    #[test]
    fn all_trojans_validate_and_match_paper_sizes() {
        for kind in ALL_DIGITAL_TROJANS {
            let (n, _, _) = chip_with(kind);
            assert!(n.validate().is_ok(), "{kind} netlist invalid");
            let aes_count = module_stats(&n, "aes").total as f64;
            let trojan_count = module_stats(&n, kind.module_tag()).total as f64;
            let pct = 100.0 * trojan_count / aes_count;
            let target = kind.paper_percent();
            assert!(
                (pct - target).abs() / target < 0.45,
                "{kind}: {pct:.2}% vs paper {target}%"
            );
        }
    }

    #[test]
    fn dormant_trojans_do_not_corrupt_encryption() {
        for kind in ALL_DIGITAL_TROJANS {
            let (n, aes, _) = chip_with(kind);
            let mut sim = Simulator::new(&n).unwrap();
            let ct = run_encryption(&mut sim, &aes, KEY, PT);
            assert_eq!(ct, Aes128::new(KEY).encrypt_block(PT), "{kind}");
        }
    }

    #[test]
    fn triggered_trojans_do_not_corrupt_encryption() {
        // These Trojans leak — they never alter the ciphertext.
        for kind in ALL_DIGITAL_TROJANS {
            let (n, aes, t) = chip_with(kind);
            let mut sim = Simulator::new(&n).unwrap();
            sim.set_input(t.trigger, true);
            let ct = run_encryption(&mut sim, &aes, KEY, PT);
            assert_eq!(ct, Aes128::new(KEY).encrypt_block(PT), "{kind}");
        }
    }

    #[test]
    fn trojans_are_quiet_until_triggered() {
        for kind in [TrojanKind::T1AmLeaker, TrojanKind::T4PowerDegrader] {
            let (n, aes, t) = chip_with(kind);
            let mut sim = Simulator::new(&n).unwrap();
            // Dormant: run a block, count trojan toggles.
            sim.start_recording();
            let _ = run_encryption(&mut sim, &aes, KEY, PT);
            let dormant = sim.take_recording();
            // Triggered.
            sim.set_input(t.trigger, true);
            sim.start_recording();
            let _ = run_encryption(&mut sim, &aes, KEY, PT);
            let active = sim.take_recording();
            let count_trojan = |trace: &emtrust_sim::ActivityTrace| {
                trace
                    .cycles()
                    .flat_map(|c| c.events())
                    .filter(|e| {
                        n.module_path(n.cell(e.cell).module())
                            .starts_with(kind.module_tag())
                    })
                    .count()
            };
            let quiet = count_trojan(&dormant);
            let loud = count_trojan(&active);
            assert!(loud > quiet + 50, "{kind}: dormant={quiet}, active={loud}");
        }
    }

    #[test]
    fn t4_bank_toggles_every_cycle_when_armed() {
        let (n, _aes, t) = chip_with(TrojanKind::T4PowerDegrader);
        let mut sim = Simulator::new(&n).unwrap();
        sim.set_input(t.trigger, true);
        sim.step(); // trigger propagates
        sim.start_recording();
        sim.step();
        sim.step();
        let trace = sim.take_recording();
        for cycle in trace.cycles() {
            let t4_flops = cycle
                .events()
                .filter(|e| {
                    e.level == 0
                        && n.module_path(n.cell(e.cell).module())
                            .starts_with("trojan4")
                })
                .count();
            assert_eq!(t4_flops, 284, "all bank flops must flip each cycle");
        }
    }

    #[test]
    fn t1_carrier_divides_the_clock() {
        let (n, _aes, t) = chip_with(TrojanKind::T1AmLeaker);
        let mut sim = Simulator::new(&n).unwrap();
        sim.set_input(t.trigger, true);
        // Find the carrier: the modulated leak output follows carrier when
        // key bit is 1; easier to just verify the leak net toggles with a
        // period of 14 cycles once the key register holds ones.
        // Load an all-ones key.
        let (aes_ports,) = (_aes,);
        sim.set_bus(&aes_ports.key, u128::MAX);
        sim.set_input(aes_ports.start, true);
        sim.step();
        sim.set_input(aes_ports.start, false);
        let leak = t.leak.expect("t1 exposes its modulated node");
        let mut transitions = 0;
        let mut last = sim.value(leak);
        for _ in 0..140 {
            sim.step();
            let v = sim.value(leak);
            if v != last {
                transitions += 1;
                last = v;
            }
        }
        // Carrier period 14 cycles -> 10 full periods in 140 cycles ->
        // 20 transitions when fully modulated.
        assert!(
            (16..=24).contains(&transitions),
            "modulated node transitions: {transitions}"
        );
    }

    #[test]
    fn t3_lfsr_produces_a_balanced_spread_sequence() {
        let (n, _aes, t) = chip_with(TrojanKind::T3CdmaLeaker);
        let mut sim = Simulator::new(&n).unwrap();
        sim.set_input(t.trigger, true);
        let leak = t.leak.unwrap();
        let mut ones = 0;
        let total = 512;
        for _ in 0..total {
            sim.step();
            ones += u32::from(sim.value(leak));
        }
        // A maximal LFSR sequence is balanced; allow wide tolerance.
        assert!(
            (150..=360).contains(&ones),
            "spread sequence unbalanced: {ones}/{total}"
        );
    }

    #[test]
    fn t2_exposes_its_leakage_sense_net() {
        let (n, aes, t) = chip_with(TrojanKind::T2LeakageLeaker);
        let sense = t.leak_sense.expect("t2 has a leakage sense net");
        let mut sim = Simulator::new(&n).unwrap();
        sim.set_input(t.trigger, true);
        // Load the key, then observe the sense net vary as bits circulate.
        sim.set_bus(&aes.key, emtrust_aes::netlist::block_to_word(KEY));
        sim.set_input(aes.start, true);
        sim.step();
        sim.set_input(aes.start, false);
        let mut seen_low = false;
        let mut seen_high = false;
        for _ in 0..300 {
            sim.step();
            if sim.value(sense) {
                seen_high = true;
            } else {
                seen_low = true;
            }
        }
        assert!(seen_low && seen_high, "sense net must track key bits");
    }

    #[test]
    fn trojan_metadata_is_consistent() {
        for kind in ALL_DIGITAL_TROJANS {
            assert!(kind.paper_percent() > 0.0);
            assert!(kind.module_tag().starts_with("trojan"));
            assert_eq!(format!("{kind}"), kind.label());
        }
    }
}
