//! The fabricated test chip of paper Fig. 3: one AES-128 core plus the
//! four digital Trojans, each with its own trigger control.

use crate::digital::{insert_trojan, TrojanKind, TrojanPorts, ALL_DIGITAL_TROJANS};
use emtrust_aes::netlist::{build_aes, run_encryption, AesPorts};
use emtrust_netlist::graph::{CellId, Netlist};
use emtrust_netlist::NetlistError;
use emtrust_sim::engine::{Cone, Program, Simulator};
use std::collections::BTreeMap;
use std::sync::OnceLock;

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
    /// The Trojans' state cone, on first use.
    cone: OnceLock<Cone>,
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
                    return cone;
                }
                seeds.extend(readers);
            }
        }))
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
                .iter()
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
