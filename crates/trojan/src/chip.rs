//! The fabricated test chip of paper Fig. 3: one AES-128 core plus the
//! four digital Trojans, each with its own trigger control.

use crate::digital::{insert_trojan, TrojanKind, TrojanPorts, ALL_DIGITAL_TROJANS};
use emtrust_aes::netlist::{
    block_to_word, build_aes, drive_encryption, run_encryption, run_encryptions, AesPorts,
};
use emtrust_netlist::graph::{CellId, Netlist};
use emtrust_netlist::NetlistError;
use emtrust_sim::engine::{Cone, ConeState, LaneState, Program, Simulator};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// An AES-128 core with a selectable set of inserted Trojans, matching the
/// silicon the paper fabricates (AES + four Trojans on one die, plus
/// trigger control pads).
#[derive(Debug)]
pub struct ProtectedChip {
    netlist: Netlist,
    aes: AesPorts,
    trojans: BTreeMap<TrojanKind, TrojanPorts>,
    /// The netlist compiled for simulation, on first use.
    program: OnceLock<Result<Program, NetlistError>>,
    /// The Trojans' state cone and what it and the rest read, on first
    /// use.
    cone: OnceLock<StateCone>,
    /// The cone's entry states from power-on ([`Self::cone_entries`]).
    memo: Mutex<ConeMemo>,
    /// The lanes after a repeated warm-up ([`Self::warm_up`]).
    warm: Mutex<WarmMemo>,
}

/// The Trojans' state cone ([`ProtectedChip::state_cone`]) and the two
/// facts that decide which of the chip's memos may hold.
#[derive(Debug)]
struct StateCone {
    cone: Cone,
    /// Whether the cone reads a plaintext net: its entry states then
    /// depend on the plaintexts and are never kept.
    reads_plaintext: bool,
    /// Whether a flop outside the cone reads a Trojan's trigger, so that
    /// its state after a warm-up depends on the armed Trojan: the
    /// warm-up's lanes are then never kept.
    rest_reads_a_trigger: bool,
}

/// The state cone's entry states from power-on under one key: per armed
/// Trojan (`None`: every Trojan dormant), the state before each block,
/// as many blocks as the longest stream has asked for.
#[derive(Debug, Default)]
struct ConeMemo {
    key: [u8; 16],
    runs: BTreeMap<Option<TrojanKind>, Vec<ConeState>>,
}

/// One warm-up's lanes: the key and plaintexts of the last request, and
/// the lanes they left once a request repeated them.
#[derive(Debug, Default)]
struct WarmMemo {
    last: Option<([u8; 16], Vec<[u8; 16]>)>,
    lanes: Option<LaneState>,
}

impl ProtectedChip {
    /// Builds a chip carrying the given Trojans.
    pub fn with_trojans(kinds: &[TrojanKind]) -> Self {
        let mut netlist = Netlist::new("protected_aes");
        let aes = build_aes(&mut netlist);
        let mut trojans = BTreeMap::new();
        for &kind in kinds {
            trojans.insert(kind, insert_trojan(&mut netlist, &aes, kind));
        }
        Self {
            netlist,
            aes,
            trojans,
            program: OnceLock::new(),
            cone: OnceLock::new(),
            memo: Mutex::default(),
            warm: Mutex::default(),
        }
    }

    /// Builds the paper's full test chip: all four digital Trojans.
    pub fn with_all_trojans() -> Self {
        Self::with_trojans(&ALL_DIGITAL_TROJANS)
    }

    /// Builds a golden (Trojan-free) chip.
    pub fn golden() -> Self {
        Self::with_trojans(&[])
    }

    /// The combined netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The AES core's ports.
    pub fn aes_ports(&self) -> &AesPorts {
        &self.aes
    }

    /// The ports of an inserted Trojan, if present.
    pub fn trojan_ports(&self, kind: TrojanKind) -> Option<&TrojanPorts> {
        self.trojans.get(&kind)
    }

    /// The Trojans carried by this chip.
    pub fn trojan_kinds(&self) -> impl Iterator<Item = TrojanKind> + '_ {
        self.trojans.keys().copied()
    }

    /// Spawns a simulator over the chip. The netlist is compiled on the
    /// first call; later calls only allocate lane state.
    ///
    /// # Errors
    ///
    /// Propagates structural errors from compilation.
    pub fn simulator(&self) -> Result<Simulator<'_>, NetlistError> {
        Ok(Simulator::with_program(&self.netlist, self.program()?))
    }

    fn program(&self) -> Result<&Program, NetlistError> {
        self.program
            .get_or_init(|| Program::compile(&self.netlist))
            .as_ref()
            .map_err(Clone::clone)
    }

    /// The Trojans' state cone: the smallest set of flops that holds
    /// every Trojan flop, the sequential fan-in of each member
    /// ([`Program::cone`]) and every flop that reads a member
    /// ([`Program::readers`]). No flop outside it depends on its state,
    /// so the rest of the chip forgets its history with every encryption
    /// just as a Trojan-free core does, and the cone alone carries a
    /// campaign's past from block to block. On a netlist where it grew
    /// to every flop, that would still hold. A golden chip's cone is
    /// empty.
    ///
    /// # Errors
    ///
    /// Propagates structural errors from compilation.
    pub fn state_cone(&self) -> Result<&Cone, NetlistError> {
        Ok(&self.cone_facts()?.cone)
    }

    /// [`Self::state_cone`], whether it reads a plaintext net and whether
    /// a flop outside it reads a trigger.
    fn cone_facts(&self) -> Result<&StateCone, NetlistError> {
        let program = self.program()?;
        Ok(self.cone.get_or_init(|| {
            let mut seeds: Vec<CellId> = self
                .netlist
                .cells()
                .filter(|(_, c)| c.kind().is_sequential())
                .filter(|(_, c)| {
                    let top = self.netlist.module_path(c.module()).split('/').next();
                    self.trojans.keys().any(|k| top == Some(k.module_tag()))
                })
                .map(|(id, _)| id)
                .collect();
            loop {
                let cone = program.cone(&seeds);
                let readers = program.readers(&cone);
                if readers.is_empty() {
                    // No flop outside the cone reads it, so the sequential
                    // fan-in of the rest stays outside it too.
                    let rest: Vec<CellId> = self
                        .netlist
                        .cells()
                        .filter(|(id, c)| {
                            c.kind().is_sequential() && cone.flops().binary_search(id).is_err()
                        })
                        .map(|(id, _)| id)
                        .collect();
                    let triggers: Vec<_> = self.trojans.values().map(|p| p.trigger).collect();
                    return StateCone {
                        reads_plaintext: cone.reads_any(&self.aes.pt),
                        rest_reads_a_trigger: program.cone(&rest).reads_any(&triggers),
                        cone,
                    };
                }
                seeds.extend(readers);
            }
        }))
    }

    /// The state cone's entry state before each block of a stream that
    /// encrypts `plaintexts` in order under `key` from power-on with only
    /// `armed` triggered ([`Self::power_on`]): one state per plaintext,
    /// the first the power-on state. A golden chip's are empty.
    ///
    /// The states come from a serial pass of the cone alone
    /// ([`Simulator::step_cone`]) on the calling thread. When the cone
    /// reads no plaintext net (on every chip built here it reads only the
    /// key, the start strobe and the triggers), they depend only on the
    /// key, `armed` and the block's index, so the chip keeps them, for
    /// one key at a time (another key replaces them), per armed Trojan,
    /// as many as the longest stream asked for: about 100 B per block on
    /// the all-Trojan chip. A later stream reads them back and passes
    /// only over the blocks beyond; it resumes from the last kept state,
    /// loaded into a powered-on simulator with the key on its inputs. A
    /// cone that reads a plaintext net is passed over from power-on
    /// every time.
    ///
    /// # Errors
    ///
    /// Propagates structural errors from compilation.
    ///
    /// # Panics
    ///
    /// Panics if the chip does not carry `armed`.
    pub fn cone_entries(
        &self,
        key: [u8; 16],
        armed: Option<TrojanKind>,
        plaintexts: &[[u8; 16]],
    ) -> Result<Vec<ConeState>, NetlistError> {
        let StateCone {
            cone,
            reads_plaintext,
            ..
        } = self.cone_facts()?;
        let n = plaintexts.len();
        if cone.is_empty() || n == 0 {
            return Ok(vec![ConeState::default(); n]);
        }
        if *reads_plaintext {
            let mut sim = self.power_on(armed)?;
            return Ok(self.cone_pass(&mut sim, cone, key, plaintexts));
        }
        // Every update leaves each run a correct prefix of its states, so
        // a guard poisoned by a panic (an unknown `armed`) holds valid
        // data.
        let mut memo = self.memo.lock().unwrap_or_else(PoisonError::into_inner);
        if memo.key != key {
            *memo = ConeMemo {
                key,
                runs: BTreeMap::new(),
            };
        }
        let kept = memo.runs.entry(armed).or_default();
        let done = kept.len();
        if done < n {
            let mut sim = self.power_on(armed)?;
            // The power-on state is not settled, unlike a block
            // boundary, so a pass resumes only after the first block.
            let from = if done >= 2 {
                sim.set_bus(&self.aes.key, block_to_word(key));
                sim.load_cone(cone, &kept[done - 1..]);
                done - 1
            } else {
                0
            };
            let fresh = self.cone_pass(&mut sim, cone, key, &plaintexts[from..]);
            kept.extend(fresh.into_iter().skip(done - from));
        }
        Ok(kept[..n].to_vec())
    }

    /// The state before each of `plaintexts`, stepping `cone` alone on
    /// `sim` through every block but the last.
    fn cone_pass(
        &self,
        sim: &mut Simulator<'_>,
        cone: &Cone,
        key: [u8; 16],
        plaintexts: &[[u8; 16]],
    ) -> Vec<ConeState> {
        let mut states = vec![sim.cone_state(cone)];
        for &pt in &plaintexts[..plaintexts.len() - 1] {
            drive_encryption(sim, &self.aes, key, pt, |s| s.step_cone(cone));
            states.push(sim.cone_state(cone));
        }
        states
    }

    /// A simulator at power-on with every Trojan disarmed except `armed`,
    /// which is triggered.
    ///
    /// # Errors
    ///
    /// Propagates structural errors from compilation.
    ///
    /// # Panics
    ///
    /// Panics if the chip does not carry `armed`.
    pub fn power_on(&self, armed: Option<TrojanKind>) -> Result<Simulator<'_>, NetlistError> {
        let mut sim = self.simulator()?;
        self.trigger_only(&mut sim, armed);
        Ok(sim)
    }

    /// Disarms every Trojan except `armed`, which is triggered.
    fn trigger_only(&self, sim: &mut Simulator<'_>, armed: Option<TrojanKind>) {
        self.disarm_all(sim);
        if let Some(kind) = armed {
            self.arm(sim, kind, true);
        }
    }

    /// A simulator powered on with only `armed` triggered
    /// ([`Self::power_on`]) that has encrypted `warmups[j]` under `key`
    /// in lane `j`, lanes `0..warmups.len()` live, and whether its lanes
    /// were restored from the chip's memo rather than simulated.
    ///
    /// No flop outside the state cone reads the cone or a trigger (the
    /// chip checks the triggers on its compiled program), so each of
    /// them holds what the warm-up leaves whichever Trojan was armed
    /// during it. The cone's flops of a restored simulator hold another
    /// campaign's states: load the cone ([`Simulator::load_cone`]) before
    /// reading it.
    ///
    /// The chip keeps the lanes of one warm-up, and only once a request
    /// repeats the key and plaintexts of the request before it; a
    /// request for them after that restores the lanes. A stream whose
    /// warm-ups never repeat copies nothing. The lanes hold a word per
    /// net, about 108 KB on the all-Trojan chip. The memo is taken out of
    /// its lock for the warm-up, so a concurrent request finds it empty
    /// and simulates. A chip on which a flop outside the cone reads a
    /// trigger keeps nothing.
    ///
    /// # Errors
    ///
    /// Propagates structural errors from compilation.
    ///
    /// # Panics
    ///
    /// Panics if the chip does not carry `armed`, or `warmups` is empty
    /// or longer than [`emtrust_sim::LANES`].
    pub fn warm_up(
        &self,
        key: [u8; 16],
        armed: Option<TrojanKind>,
        warmups: &[[u8; 16]],
    ) -> Result<(Simulator<'_>, bool), NetlistError> {
        let mut sim = self.power_on(armed)?;
        if self.cone_facts()?.rest_reads_a_trigger {
            let _ = run_encryptions(&mut sim, &self.aes, key, warmups);
            return Ok((sim, false));
        }
        let mut memo = std::mem::take(&mut *self.lock_warm());
        let repeat = memo
            .last
            .as_ref()
            .is_some_and(|(k, w)| *k == key && w == warmups);
        let restored = match memo.lanes.as_ref().filter(|_| repeat) {
            Some(lanes) => {
                sim.restore(lanes);
                // The kept lanes carry the triggers of the campaign that
                // warmed them up.
                self.trigger_only(&mut sim, armed);
                true
            }
            None => {
                let _ = run_encryptions(&mut sim, &self.aes, key, warmups);
                if repeat {
                    memo.lanes = Some(sim.lane_state());
                } else {
                    memo = WarmMemo {
                        last: Some((key, warmups.to_vec())),
                        lanes: None,
                    };
                }
                false
            }
        };
        *self.lock_warm() = memo;
        Ok((sim, restored))
    }

    fn lock_warm(&self) -> MutexGuard<'_, WarmMemo> {
        // The memo is only ever replaced whole, so a panic while the lock
        // was held leaves a complete one.
        self.warm.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Arms (`true`) or disarms (`false`) a Trojan's trigger on a running
    /// simulator.
    ///
    /// # Panics
    ///
    /// Panics if the chip does not carry `kind`.
    pub fn arm(&self, sim: &mut Simulator<'_>, kind: TrojanKind, on: bool) {
        let ports = self
            .trojans
            .get(&kind)
            .unwrap_or_else(|| panic!("chip does not carry {kind}"));
        sim.set_input(ports.trigger, on);
    }

    /// Disarms every Trojan on the chip.
    pub fn disarm_all(&self, sim: &mut Simulator<'_>) {
        for ports in self.trojans.values() {
            sim.set_input(ports.trigger, false);
        }
    }

    /// Runs one encryption (12 clock edges) and returns the ciphertext.
    pub fn encrypt(&self, sim: &mut Simulator<'_>, key: [u8; 16], pt: [u8; 16]) -> [u8; 16] {
        run_encryption(sim, &self.aes, key, pt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emtrust_aes::reference::Aes128;
    use emtrust_netlist::stats::module_stats;

    const KEY: [u8; 16] = *b"emtrust-test-key";
    const PT: [u8; 16] = *b"block-under-test";

    #[test]
    fn full_chip_validates() {
        let chip = ProtectedChip::with_all_trojans();
        assert!(chip.netlist().validate().is_ok());
        assert_eq!(chip.trojan_kinds().count(), 4);
    }

    #[test]
    fn golden_chip_has_no_trojan_cells() {
        let chip = ProtectedChip::golden();
        for kind in ALL_DIGITAL_TROJANS {
            assert_eq!(module_stats(chip.netlist(), kind.module_tag()).total, 0);
            assert!(chip.trojan_ports(kind).is_none());
        }
    }

    #[test]
    fn chip_encrypts_correctly_with_any_trigger_combination() {
        let chip = ProtectedChip::with_all_trojans();
        let expect = Aes128::new(KEY).encrypt_block(PT);
        let mut sim = chip.simulator().unwrap();
        // All dormant.
        assert_eq!(chip.encrypt(&mut sim, KEY, PT), expect);
        // Arm everything.
        for kind in ALL_DIGITAL_TROJANS {
            chip.arm(&mut sim, kind, true);
        }
        assert_eq!(chip.encrypt(&mut sim, KEY, PT), expect);
        chip.disarm_all(&mut sim);
        assert_eq!(chip.encrypt(&mut sim, KEY, PT), expect);
    }

    #[test]
    fn arming_one_trojan_raises_only_its_activity() {
        let chip = ProtectedChip::with_all_trojans();
        let mut sim = chip.simulator().unwrap();
        // One unrecorded encryption so every Trojan has absorbed its
        // start-strobe key load; then observe idle cycles.
        let _ = chip.encrypt(&mut sim, KEY, PT);
        chip.arm(&mut sim, TrojanKind::T4PowerDegrader, true);
        sim.step(); // trigger propagates
        sim.start_recording();
        sim.run(10);
        let trace = sim.take_recording();
        let tagged = |prefix: &str| {
            trace
                .cycles()
                .flat_map(|c| c.events())
                .filter(|e| {
                    chip.netlist()
                        .module_path(chip.netlist().cell(e.cell).module())
                        .starts_with(prefix)
                })
                .count()
        };
        assert!(tagged("trojan4") > 1000, "armed trojan must toggle");
        // T2's shift register only moves when its own trigger is up; in
        // idle cycles a dormant Trojan is silent (T1's free-running carrier
        // divider excepted — that is its cover behaviour).
        assert!(tagged("trojan2") < 10, "dormant trojan must stay quiet");
        assert!(tagged("trojan3") < 10, "dormant trojan must stay quiet");
    }

    #[test]
    fn state_cone_is_the_trojan_flops() {
        let chip = ProtectedChip::with_all_trojans();
        let netlist = chip.netlist();
        let trojan_flops: Vec<CellId> = netlist
            .cells()
            .filter(|(_, c)| c.kind().is_sequential())
            .filter(|(_, c)| netlist.module_path(c.module()).starts_with("trojan"))
            .map(|(id, _)| id)
            .collect();
        let cone = chip.state_cone().unwrap();
        assert_eq!(cone.flops(), trojan_flops);
        assert_eq!(cone.flops().len(), 716);
        assert!(cone.gate_count() > 0);
        assert!(ProtectedChip::golden().state_cone().unwrap().is_empty());
    }

    #[test]
    fn cone_pass_tracks_the_full_simulation_at_every_block_boundary() {
        use emtrust_aes::netlist::drive_encryption;
        let chip = ProtectedChip::with_all_trojans();
        let cone = chip.state_cone().unwrap();
        let armed = std::iter::once(None).chain(ALL_DIGITAL_TROJANS.map(Some));
        for kind in armed {
            let mut full = chip.simulator().unwrap();
            let mut alone = chip.simulator().unwrap();
            for sim in [&mut full, &mut alone] {
                chip.disarm_all(sim);
                if let Some(kind) = kind {
                    chip.arm(sim, kind, true);
                }
            }
            let mut seen = std::collections::BTreeSet::new();
            for block in 0..24u8 {
                let state = full.cone_state(cone);
                assert_eq!(alone.cone_state(cone), state, "{kind:?}, block {block}");
                seen.insert(format!("{state:?}"));
                let pt = [block.wrapping_mul(59); 16];
                let _ = chip.encrypt(&mut full, KEY, pt);
                drive_encryption(&mut alone, chip.aes_ports(), KEY, pt, |s| s.step_cone(cone));
            }
            assert_eq!(alone.cone_state(cone), full.cone_state(cone), "{kind:?}");
            assert!(seen.len() > 1, "{kind:?}: the Trojan state never moved");
        }
    }

    #[test]
    fn state_cone_reads_the_key_strobe_and_triggers_but_no_plaintext() {
        let chip = ProtectedChip::with_all_trojans();
        let cone = chip.state_cone().unwrap();
        let ports = chip.aes_ports();
        assert!(!cone.reads_any(&ports.pt));
        assert!(cone.reads_any(&ports.key));
        assert!(cone.reads_any(&[ports.start]));
        for kind in ALL_DIGITAL_TROJANS {
            let trigger = chip.trojan_ports(kind).unwrap().trigger;
            assert!(cone.reads_any(&[trigger]), "{kind:?}");
        }
        assert!(!cone.reads_any(&[]));
    }

    /// The cone's state before each of `plaintexts`, from one full
    /// simulation from power-on.
    fn serial_entries(
        chip: &ProtectedChip,
        key: [u8; 16],
        armed: Option<TrojanKind>,
        plaintexts: &[[u8; 16]],
    ) -> Vec<ConeState> {
        let cone = chip.state_cone().unwrap();
        let mut sim = chip.power_on(armed).unwrap();
        plaintexts
            .iter()
            .map(|&pt| {
                let entry = sim.cone_state(cone);
                let _ = chip.encrypt(&mut sim, key, pt);
                entry
            })
            .collect()
    }

    #[test]
    fn cone_entries_equal_a_fresh_serial_pass_through_the_memo() {
        const OTHER: [u8; 16] = *b"another test key";
        let chip = ProtectedChip::with_all_trojans();
        let t1 = Some(TrojanKind::T1AmLeaker);
        let t2 = Some(TrojanKind::T2LeakageLeaker);
        // Each request after the first reads the memo: a longer one
        // resumes past its end (from power-on while it holds only the
        // power-on state), another Trojan or key gets its own states, and
        // the plaintexts never matter.
        let requests = [
            (KEY, t1, 1, 0x11),
            (KEY, t1, 2, 0x22),
            (KEY, t1, 5, 0x33),
            (KEY, t1, 24, 0x44),
            (KEY, None, 24, 0x55),
            (KEY, t2, 3, 0x66),
            (KEY, t1, 9, 0x77),
            (OTHER, t1, 9, 0x88),
            (OTHER, t1, 30, 0x99),
            (KEY, t1, 24, 0xAA),
        ];
        for (key, armed, n, seed) in requests {
            let plaintexts: Vec<[u8; 16]> = (0..n)
                .map(|i| [seed ^ (i as u8).wrapping_mul(29); 16])
                .collect();
            let got = chip.cone_entries(key, armed, &plaintexts).unwrap();
            let expected = serial_entries(&chip, key, armed, &plaintexts);
            assert_eq!(got, expected, "{armed:?}, {n} blocks, seed {seed:#x}");
        }
        let golden = ProtectedChip::golden();
        let entries = golden.cone_entries(KEY, None, &[PT; 3]).unwrap();
        assert_eq!(entries, vec![ConeState::default(); 3]);
    }

    /// Every cell's output in the first `lanes` lanes of `sim`.
    fn outputs(sim: &Simulator<'_>, lanes: usize) -> Vec<u64> {
        let live = u64::MAX >> (64 - lanes);
        sim.netlist()
            .cells()
            .map(|(_, c)| sim.value_lanes(c.output()) & live)
            .collect()
    }

    /// [`outputs`] after loading `states` into `cone`.
    fn nets_with_cone(sim: &mut Simulator<'_>, cone: &Cone, states: &[ConeState]) -> Vec<u64> {
        sim.load_cone(cone, states);
        outputs(sim, states.len())
    }

    #[test]
    fn a_restored_warm_up_holds_the_simulated_lanes_whichever_trojan_warmed_it() {
        let chip = ProtectedChip::with_all_trojans();
        let cone = chip.state_cone().unwrap();
        assert!(!chip.cone_facts().unwrap().rest_reads_a_trigger);
        let warmups: Vec<[u8; 16]> = (0..5u8).map(|i| [i.wrapping_mul(71); 16]).collect();
        let armed: Vec<Option<TrojanKind>> = std::iter::once(None)
            .chain(ALL_DIGITAL_TROJANS.map(Some))
            .collect();
        // Warmed up and kept under T3, restored under every other kind.
        for _ in 0..2 {
            let (_, restored) = chip
                .warm_up(KEY, Some(TrojanKind::T3CdmaLeaker), &warmups)
                .unwrap();
            assert!(!restored);
        }
        for &kind in armed.iter().chain(armed.iter().rev()) {
            let entries = chip.cone_entries(KEY, kind, &[PT; 5]).unwrap();
            let (mut got, restored) = chip.warm_up(KEY, kind, &warmups).unwrap();
            assert!(restored, "{kind:?}");
            let mut simulated = chip.power_on(kind).unwrap();
            let _ = run_encryptions(&mut simulated, chip.aes_ports(), KEY, &warmups);
            assert_eq!(got.cycle(), simulated.cycle());
            assert_eq!(
                nets_with_cone(&mut got, cone, &entries),
                nets_with_cone(&mut simulated, cone, &entries),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn the_warm_memo_keeps_a_warm_up_only_once_it_repeats() {
        const OTHER: [u8; 16] = *b"another test key";
        let chip = ProtectedChip::golden();
        let kept = |chip: &ProtectedChip| chip.lock_warm().lanes.is_some();
        let round = |i: u8| -> Vec<[u8; 16]> {
            (0..64u8)
                .map(|j| [i.wrapping_mul(64).wrapping_add(j); 16])
                .collect()
        };
        // 64-lane rounds of distinct plaintexts never repeat: none is kept.
        for i in 0..4 {
            let (_, restored) = chip.warm_up(KEY, None, &round(i)).unwrap();
            assert!(!restored);
            assert!(!kept(&chip), "round {i}");
        }
        let requests = [
            (KEY, PT, false, false),
            (KEY, PT, false, true),
            (KEY, PT, true, true),
            // Another key, then the first again: each misses and drops the
            // kept lanes.
            (OTHER, PT, false, false),
            (KEY, PT, false, false),
            (KEY, [0x11; 16], false, false),
            (KEY, [0x11; 16], false, true),
            (KEY, [0x11; 16], true, true),
        ];
        for (i, (key, pt, hit, keeps)) in requests.into_iter().enumerate() {
            let (sim, restored) = chip.warm_up(key, None, &[pt; 3]).unwrap();
            assert_eq!((restored, kept(&chip)), (hit, keeps), "request {i}");
            let mut fresh = chip.power_on(None).unwrap();
            let _ = run_encryptions(&mut fresh, chip.aes_ports(), key, &[pt; 3]);
            assert_eq!(outputs(&sim, 3), outputs(&fresh, 3), "request {i}");
        }
    }

    #[test]
    #[should_panic(expected = "does not carry")]
    fn arming_a_missing_trojan_panics() {
        let chip = ProtectedChip::golden();
        let mut sim = chip.simulator().unwrap();
        chip.arm(&mut sim, TrojanKind::T1AmLeaker, true);
    }

    #[test]
    fn table_one_shape_holds_on_the_combined_chip() {
        let chip = ProtectedChip::with_all_trojans();
        let aes_total = module_stats(chip.netlist(), "aes").total;
        let t3 = module_stats(chip.netlist(), "trojan3").total;
        let t2 = module_stats(chip.netlist(), "trojan2").total;
        let t4 = module_stats(chip.netlist(), "trojan4").total;
        let t1 = module_stats(chip.netlist(), "trojan1").total;
        assert!(t3 < t1 && t1 < t2, "T3 < T1 < T2 ordering");
        // T2 and T4 are both ~8.4 % in the paper.
        let ratio = t2 as f64 / t4 as f64;
        assert!((0.5..=2.0).contains(&ratio));
        assert!(aes_total > 10 * t2, "AES dominates the die");
    }
}
