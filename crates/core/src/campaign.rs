//! The one simulation loop behind every acquisition path.
//!
//! A [`Campaign`] powers a chip on, disarms every Trojan except the one
//! under test, and streams back-to-back encryptions under one key. Each
//! clock edge's toggles go straight from the simulator into the charge
//! bins of a [`ChargeTable`] (and, when attribution asks, into per-cell
//! toggle counts); no event is stored.
//!
//! Every chip takes the same path. Its flops split in two:
//!
//! - The chip's **state cone** ([`ProtectedChip::state_cone`]): every
//!   Trojan flop, closed under sequential fan-in and under the flops that
//!   read it. It carries history — T1's counter free-runs even while
//!   dormant, so a Trojan's state at block *i* depends on every earlier
//!   encryption — but it reads only primary inputs and its own state, so
//!   it runs forward on its own: a serial pass on the calling thread
//!   steps the cone alone on lane 0 and records each block's entry state
//!   ([`ProtectedChip::cone_entries`]). The cone reads the key, the start
//!   strobe and the triggers but no plaintext net (the chip checks this
//!   on its compiled program), so its trajectory from power-on depends
//!   only on the key and the armed Trojan. The chip keeps it, for one key
//!   at a time: a campaign with a warm-up reads entries `1..=n`, one from
//!   power-on `0..n`, and only blocks past the kept end are passed over.
//!   Every campaign under one key after the first runs no pass at all. A
//!   golden chip's cone is empty and has no pass.
//! - Everything else, the AES core: no flop of it reads the cone or a
//!   trigger, and its state after an encryption is a pure function of
//!   the key and that encryption's plaintext.
//!
//! The blocks then stream in rounds of at most [`LANES`], each round on
//! one simulator on the calling thread, one block per lane: the pool fans
//! out whole traces, never a campaign's lanes (EXPERIMENTS.md, "Which
//! thread paths pay"). Lane *i* warms up with its predecessor plaintext,
//! which puts the core in its serial state, then loads its entry state
//! of the cone and settles: at a block boundary every combinational net
//! is a fixed point of the flops and the inputs, so the lane now holds
//! the serial simulation's nets exactly. It then streams its own
//! plaintext, sampling T2's leakage-sense net per lane when T2 is armed.
//! A campaign from power-on runs its first block alone on lane 0, from
//! the power-on state. A netlist whose cone grew to every flop would
//! load every flop and stay exact.
//!
//! A round's warm-up therefore leaves the same core whichever Trojan is
//! armed, and the chip keeps it ([`ProtectedChip::warm_up`]): once a
//! request repeats the key and warm-up plaintexts of the one before, the
//! chip keeps the lanes it left, and later requests restore them instead
//! of encrypting, then trigger their own Trojan and load their cone
//! states as above. An array round's golden campaign and T1 campaign
//! warm up; T2–T4 restore (`campaign.warm_memo.hits` and `.misses` count
//! each round). Rounds whose warm-ups never repeat, such as a stream of
//! fresh plaintexts, keep nothing.
//!
//! Lanes that encrypt one plaintext from one state toggle alike, except
//! where their cone states differ and in what those states reach. Each
//! clock edge hands all lanes' toggles to one sink, which bins and counts
//! a block of 64 sources that every lane toggled alike once
//! ([`ChargeTable::bin_words`], [`ToggleActivity::absorb_words`]).
//! Whether a block is shared is read off the toggle masks alone, never
//! off the plaintexts. A cycle's bins depend only on that cycle's
//! toggles, and each lane still adds its own in serial event order,
//! shared or not, so the blocks' bins are bit-identical whatever the
//! width, and equal the bins of a stored serial recording.

use crate::acquisition::T2_LEAK_CURRENT_A;
use crate::TrustError;
use emtrust_aes::netlist::{run_encryptions, run_encryptions_stepped};
use emtrust_power::{ChargeBins, ChargeTable};
use emtrust_sim::{Cone, ConeState, Simulator, ToggleActivity, LANES};
use emtrust_telemetry as telemetry;
use emtrust_trojan::{ProtectedChip, TrojanKind};

/// One streamed encryption.
#[derive(Debug)]
pub(crate) struct Block {
    pub(crate) bins: ChargeBins,
    /// Per-cycle T2 leakage current, when T2 is armed.
    pub(crate) leak: Option<Vec<f64>>,
}

/// A chip under a stream of encryptions (see the module docs).
pub(crate) struct Campaign<'c> {
    chip: &'c ProtectedChip,
    key: [u8; 16],
    armed: Option<TrojanKind>,
    /// The block encrypted, unrecorded, before the first recorded one;
    /// `None` records from the power-on state.
    warmup: Option<[u8; 16]>,
}

impl<'c> Campaign<'c> {
    /// A campaign on `chip` with only `armed` triggered.
    pub(crate) fn new(
        chip: &'c ProtectedChip,
        key: [u8; 16],
        armed: Option<TrojanKind>,
        warmup: Option<[u8; 16]>,
    ) -> Self {
        Self {
            chip,
            key,
            armed,
            warmup,
        }
    }

    /// Streams `plaintexts` in order, binning each block with `table` and
    /// adding its toggles to `toggles` when given. The blocks are
    /// simulated in rounds (span `simulate`); each round goes to `sink`
    /// with the index of its first block before the next one is
    /// simulated.
    pub(crate) fn record(
        &self,
        plaintexts: &[[u8; 16]],
        table: &ChargeTable,
        mut toggles: Option<&mut ToggleActivity>,
        mut sink: impl FnMut(usize, Vec<Block>) -> Result<(), TrustError>,
    ) -> Result<(), TrustError> {
        let cone = self.chip.state_cone()?;
        let mut entries: Option<Vec<ConeState>> = None;
        let mut prev = self.warmup;
        for (r, round) in plaintexts.chunks(LANES).enumerate() {
            let blocks = {
                let _span = telemetry::span("simulate");
                let entries = match &mut entries {
                    Some(entries) => entries,
                    None => entries.insert(self.entries(plaintexts)?),
                };
                let entries = &entries[r * LANES..][..round.len()];
                self.replay(prev, round, cone, entries, table, toggles.as_deref_mut())?
            };
            prev = round.last().copied();
            sink(r * LANES, blocks)?;
        }
        Ok(())
    }

    /// Streams `plaintexts` into one window's bins, whose cycles count up
    /// from the first block's, plus the window's T2 leakage when armed.
    pub(crate) fn record_window(
        &self,
        plaintexts: &[[u8; 16]],
        table: &ChargeTable,
    ) -> Result<(ChargeBins, Option<Vec<f64>>), TrustError> {
        let mut bins = table.bins();
        let mut leak: Option<Vec<f64>> = None;
        self.record(plaintexts, table, None, |_, blocks| {
            for block in blocks {
                bins.append(block.bins);
                if let Some(block_leak) = block.leak {
                    leak.get_or_insert_with(Vec::new).extend(block_leak);
                }
            }
            Ok(())
        })?;
        Ok((bins, leak))
    }

    /// Each block's entry state of the chip's state cone, from the
    /// chip's memo ([`ProtectedChip::cone_entries`]): entries `1..=n` of
    /// the stream from power-on after a warm-up, `0..n` without one.
    fn entries(&self, plaintexts: &[[u8; 16]]) -> Result<Vec<ConeState>, TrustError> {
        let stream: Vec<[u8; 16]> = self
            .warmup
            .into_iter()
            .chain(plaintexts.iter().copied())
            .collect();
        let mut entries = self.chip.cone_entries(self.key, self.armed, &stream)?;
        Ok(entries.split_off(usize::from(self.warmup.is_some())))
    }

    /// Streams `blocks` side by side on a fresh simulator, after warming
    /// each lane up with its predecessor and loading its block's entry
    /// state of `cone` from `entries`; `prev` precedes the first block
    /// (`None`: it runs alone from power-on, where the cone is in its
    /// power-on state). A warm-up from power-on is read from the chip's
    /// memo when it keeps it ([`ProtectedChip::warm_up`]), counting
    /// `campaign.warm_memo.hits`, and is simulated otherwise, counting
    /// `campaign.warm_memo.misses`. Each pass has its own span: the
    /// power-on block (`power_on`), the warm-up (`warm_up`) and the
    /// streamed round (`record`).
    fn replay(
        &self,
        prev: Option<[u8; 16]>,
        blocks: &[[u8; 16]],
        cone: &Cone,
        entries: &[ConeState],
        table: &ChargeTable,
        mut toggles: Option<&mut ToggleActivity>,
    ) -> Result<Vec<Block>, TrustError> {
        let Some((_, predecessors)) = blocks.split_last() else {
            return Ok(Vec::new());
        };
        let Some(prev) = prev else {
            let (mut sim, mut out) = {
                let _span = telemetry::span("power_on");
                let mut sim = self.chip.power_on(self.armed)?;
                let out = self.lanes(&mut sim, &blocks[..1], table, toggles.as_deref_mut());
                (sim, out)
            };
            if !predecessors.is_empty() {
                {
                    let _span = telemetry::span("warm_up");
                    let _ =
                        run_encryptions(&mut sim, self.chip.aes_ports(), self.key, predecessors);
                    sim.load_cone(cone, &entries[1..]);
                }
                let _span = telemetry::span("record");
                out.extend(self.lanes(&mut sim, &blocks[1..], table, toggles));
            }
            return Ok(out);
        };
        let warmups: Vec<[u8; 16]> = std::iter::once(prev)
            .chain(predecessors.iter().copied())
            .collect();
        let mut sim = {
            let _span = telemetry::span("warm_up");
            let (mut sim, restored) = self.chip.warm_up(self.key, self.armed, &warmups)?;
            telemetry::counter(
                if restored {
                    "campaign.warm_memo.hits"
                } else {
                    "campaign.warm_memo.misses"
                },
                1,
            );
            sim.load_cone(cone, entries);
            sim
        };
        let _span = telemetry::span("record");
        Ok(self.lanes(&mut sim, blocks, table, toggles))
    }

    /// One streamed encryption per lane, sampling T2's leakage-sense net
    /// in every lane when T2 is armed.
    fn lanes(
        &self,
        sim: &mut Simulator<'c>,
        blocks: &[[u8; 16]],
        table: &ChargeTable,
        mut toggles: Option<&mut ToggleActivity>,
    ) -> Vec<Block> {
        let leak_sense = self
            .armed
            .and_then(|k| self.chip.trojan_ports(k))
            .and_then(|p| p.leak_sense);
        let mut bins = vec![table.bins(); blocks.len()];
        let mut leak = leak_sense.map_or(Vec::new(), |_| vec![Vec::new(); blocks.len()]);
        let _ = run_encryptions_stepped(sim, self.chip.aes_ports(), self.key, blocks, |s| {
            s.step_words(|words| {
                table.bin_words(words, &mut bins);
                if let Some(toggles) = toggles.as_deref_mut() {
                    toggles.absorb_words(words);
                }
            });
            if let Some(net) = leak_sense {
                let sense = s.value_lanes(net);
                for (lane, leak) in leak.iter_mut().enumerate() {
                    // The leakage path opens while the sense bit is low.
                    let open = sense >> lane & 1 == 0;
                    leak.push(if open { T2_LEAK_CURRENT_A } else { 0.0 });
                }
            }
        });
        let mut leak = leak.into_iter();
        bins.into_iter()
            .map(|bins| Block {
                bins,
                leak: leak.next(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emtrust_aes::netlist::run_encryption_with;
    use emtrust_netlist::library::Library;
    use emtrust_power::{ClockConfig, CurrentModel, CurrentTrace};
    use emtrust_sim::ActivityTrace;

    const KEY: [u8; 16] = *b"campaign-key-16B";

    fn plaintexts(n: usize) -> Vec<[u8; 16]> {
        (0..n).map(|i| [(i * 37 % 251) as u8; 16]).collect()
    }

    fn model() -> CurrentModel {
        CurrentModel::new(Library::generic_180nm(), ClockConfig::reference())
    }

    /// Two distinct weight sets over every cell of `chip`.
    fn weight_sets(chip: &ProtectedChip) -> Vec<Vec<f64>> {
        let n = chip.netlist().cell_count();
        (0..2)
            .map(|s| {
                (0..n)
                    .map(|i| 0.2 + ((i * (s + 3)) % 17) as f64 / 17.0)
                    .collect()
            })
            .collect()
    }

    fn table(chip: &ProtectedChip, sets: &[Vec<f64>]) -> ChargeTable {
        let sets: Vec<Option<&[f64]>> = sets.iter().map(|w| Some(w.as_slice())).collect();
        model().charge_table(chip.netlist(), &sets).unwrap()
    }

    /// `synthesize_multi` over a stored recording.
    fn stored(
        chip: &ProtectedChip,
        sets: &[Vec<f64>],
        activity: &ActivityTrace,
        leak: Option<&[f64]>,
    ) -> Vec<CurrentTrace> {
        let refs: Vec<&[f64]> = sets.iter().map(Vec::as_slice).collect();
        model()
            .synthesize_multi(chip.netlist(), activity, &refs, leak, 1)
            .unwrap()
    }

    fn assert_same_bits(got: &[CurrentTrace], expected: &[CurrentTrace], what: &str) {
        assert_eq!(got.len(), expected.len(), "{what}");
        for (g, e) in got.iter().zip(expected) {
            assert_eq!(g.len(), e.len(), "{what}");
            let same = g
                .samples()
                .iter()
                .zip(e.samples())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "{what}: streamed bins render other bits");
        }
    }

    /// One simulator, one recording per block, on lane 0, sampling T2's
    /// leakage-sense net when `armed` is T2.
    fn serial(
        chip: &ProtectedChip,
        key: [u8; 16],
        pts: &[[u8; 16]],
        armed: Option<TrojanKind>,
        warmup: Option<[u8; 16]>,
    ) -> Vec<(ActivityTrace, Option<Vec<f64>>)> {
        let mut sim = chip.simulator().unwrap();
        chip.disarm_all(&mut sim);
        if let Some(kind) = armed {
            chip.arm(&mut sim, kind, true);
        }
        if let Some(pt) = warmup {
            let _ = run_encryption_with(&mut sim, chip.aes_ports(), key, pt, |_| {});
        }
        let sense = armed
            .and_then(|k| chip.trojan_ports(k))
            .and_then(|p| p.leak_sense);
        pts.iter()
            .map(|&pt| {
                sim.start_recording();
                let mut leak = Vec::new();
                let _ = run_encryption_with(&mut sim, chip.aes_ports(), key, pt, |s| {
                    if let Some(net) = sense {
                        leak.push(if s.value(net) { 0.0 } else { T2_LEAK_CURRENT_A });
                    }
                });
                (sim.take_recording(), sense.map(|_| leak))
            })
            .collect()
    }

    #[test]
    fn streamed_windows_render_like_one_serial_recording() {
        let chip = ProtectedChip::golden();
        let sets = weight_sets(&chip);
        let table = table(&chip, &sets);
        let pts = plaintexts(130);
        // One simulator from power-on, one recording over every block;
        // a window of n blocks is its first 12·n cycles.
        let mut sim = chip.simulator().unwrap();
        sim.start_recording();
        for &pt in &pts {
            let _ = run_encryption_with(&mut sim, chip.aes_ports(), KEY, pt, |_| {});
        }
        let recording = sim.take_recording();
        for n in [1, 63, 64, 65, 130] {
            let mut prefix = recording.clone();
            prefix.truncate(12 * n);
            let expected = stored(&chip, &sets, &prefix, None);
            let (bins, leak) = Campaign::new(&chip, KEY, None, None)
                .record_window(&pts[..n], &table)
                .unwrap();
            assert!(leak.is_none());
            assert_eq!(bins.cycles(), 12 * n);
            let got = table.render(&bins, None).unwrap();
            assert_same_bits(&got, &expected, &format!("{n} blocks"));
        }
    }

    #[test]
    fn streamed_blocks_and_toggles_match_the_serial_recording() {
        let chip = ProtectedChip::golden();
        let sets = weight_sets(&chip);
        let table = table(&chip, &sets);
        let warmup = Some([0xA5; 16]);
        // Distinct plaintexts, and one plaintext in every lane (where the
        // lanes share every block).
        for pts in [plaintexts(70), vec![[0x5A; 16]; 70]] {
            streams_like_the_serial_recording(&chip, &sets, &table, &pts, warmup);
        }
    }

    fn streams_like_the_serial_recording(
        chip: &ProtectedChip,
        sets: &[Vec<f64>],
        table: &ChargeTable,
        pts: &[[u8; 16]],
        warmup: Option<[u8; 16]>,
    ) {
        let expected = serial(chip, KEY, pts, None, warmup);
        let mut all = ActivityTrace::new();
        for (activity, _) in &expected {
            all.extend_from(activity.clone());
        }
        let expected_toggles = ToggleActivity::from_trace(&all);
        let mut got = Vec::new();
        let mut toggles = ToggleActivity::new();
        Campaign::new(chip, KEY, None, warmup)
            .record(pts, table, Some(&mut toggles), |first, blocks| {
                assert_eq!(first, got.len());
                got.extend(blocks);
                Ok(())
            })
            .unwrap();
        assert_eq!(got.len(), expected.len());
        for (i, (block, (activity, _))) in got.iter().zip(&expected).enumerate() {
            assert_eq!(block.bins, table.bin_trace(activity, 1), "block {i}");
            let rendered = table.render(&block.bins, None).unwrap();
            let what = format!("block {i}");
            assert_same_bits(&rendered, &stored(chip, sets, activity, None), &what);
        }
        assert_eq!(toggles, expected_toggles);
        assert_eq!(toggles.cell_count(), expected_toggles.cell_count());
    }

    #[test]
    fn each_armed_trojan_streams_like_its_serial_recording() {
        // 70 distinct blocks cross a 64-lane round; the cone carries T1's
        // free-running counter and every Trojan's key state across it.
        // 33 blocks of one plaintext stream 33 lanes wide: every block the
        // lanes' cone states leave alike is shared.
        let chip = ProtectedChip::with_all_trojans();
        let sets = weight_sets(&chip);
        let table = table(&chip, &sets);
        let kinds = emtrust_trojan::digital::ALL_DIGITAL_TROJANS.map(Some);
        for pts in [plaintexts(70), vec![[0x5A; 16]; 33]] {
            for warmup in [None, Some([0x3C; 16])] {
                for armed in std::iter::once(None).chain(kinds) {
                    let campaign = Campaign::new(&chip, KEY, armed, warmup);
                    assert_streams_like_serial(&campaign, &sets, &table, &pts);
                }
            }
        }
    }

    #[test]
    fn restored_warm_ups_stream_like_their_serial_recordings() {
        // One plaintext warmed up under each kind in turn: from the third
        // campaign under one key on, the chip restores the lanes that
        // another kind's warm-up left.
        const OTHER: [u8; 16] = *b"another key, 16B";
        let chip = ProtectedChip::with_all_trojans();
        let sets = weight_sets(&chip);
        let table = table(&chip, &sets);
        let [t1, t2, t3, t4] = emtrust_trojan::digital::ALL_DIGITAL_TROJANS.map(Some);
        let orders = [
            vec![None, t1, t2, t3, t4],
            vec![t4, t3, t2, t1, None],
            vec![t2, None, t2, t4, t1, t3],
        ];
        let pts = vec![[0x5A; 16]; 16];
        let warmup = Some(pts[0]);
        for armed in orders.concat() {
            let campaign = Campaign::new(&chip, KEY, armed, warmup);
            assert_streams_like_serial(&campaign, &sets, &table, &pts);
        }
        // A key change misses; its own repeats restore.
        for armed in [t1, t2, None] {
            let campaign = Campaign::new(&chip, OTHER, armed, warmup);
            assert_streams_like_serial(&campaign, &sets, &table, &pts);
        }
        // The golden chip's cone is empty: a restore loads nothing.
        let golden = ProtectedChip::golden();
        let sets = weight_sets(&golden);
        let table = self::table(&golden, &sets);
        for _ in 0..3 {
            let campaign = Campaign::new(&golden, KEY, None, warmup);
            assert_streams_like_serial(&campaign, &sets, &table, &pts);
        }
    }

    /// Asserts that `campaign` streams `pts` into the bins, T2 leakage and
    /// toggle counts of its serial recording.
    fn assert_streams_like_serial(
        campaign: &Campaign<'_>,
        sets: &[Vec<f64>],
        table: &ChargeTable,
        pts: &[[u8; 16]],
    ) {
        let Campaign {
            chip,
            key,
            armed,
            warmup,
        } = *campaign;
        let what = format!(
            "{} blocks, {armed:?}, warm-up {}, key {key:?}",
            pts.len(),
            warmup.is_some()
        );
        let expected = serial(chip, key, pts, armed, warmup);
        let mut got = Vec::new();
        let mut toggles = ToggleActivity::new();
        campaign
            .record(pts, table, Some(&mut toggles), |first, blocks| {
                assert_eq!(first, got.len(), "{what}");
                got.extend(blocks);
                Ok(())
            })
            .unwrap();
        assert_eq!(got.len(), expected.len(), "{what}");
        let mut all = ActivityTrace::new();
        for (i, (block, (activity, leak))) in got.iter().zip(&expected).enumerate() {
            assert_eq!(&block.leak, leak, "{what}, block {i}");
            assert_eq!(leak.is_some(), armed == Some(TrojanKind::T2LeakageLeaker));
            assert_eq!(
                block.bins,
                table.bin_trace(activity, 1),
                "{what}, block {i}"
            );
            all.extend_from(activity.clone());
        }
        let (block, (activity, leak)) = (&got[pts.len() - 1], &expected[pts.len() - 1]);
        let rendered = table.render(&block.bins, block.leak.as_deref()).unwrap();
        let reference = stored(chip, sets, activity, leak.as_deref());
        assert_same_bits(&rendered, &reference, &what);
        let expected_toggles = ToggleActivity::from_trace(&all);
        assert_eq!(toggles, expected_toggles, "{what}");
        assert_eq!(
            toggles.cell_count(),
            expected_toggles.cell_count(),
            "{what}"
        );
    }

    #[test]
    fn entries_read_from_the_memo_equal_a_fresh_serial_pass() {
        let chip = ProtectedChip::with_all_trojans();
        let cone = chip.state_cone().unwrap();
        let pts = plaintexts(20);
        let armed = Some(TrojanKind::T1AmLeaker);
        for warmup in [None, Some([0x3C; 16]), None] {
            let campaign = Campaign::new(&chip, KEY, armed, warmup);
            let expected: Vec<ConeState> = {
                let mut sim = chip.power_on(armed).unwrap();
                if let Some(pt) = warmup {
                    let _ = run_encryption_with(&mut sim, chip.aes_ports(), KEY, pt, |_| {});
                }
                pts.iter()
                    .map(|&pt| {
                        let entry = sim.cone_state(cone);
                        let _ = run_encryption_with(&mut sim, chip.aes_ports(), KEY, pt, |_| {});
                        entry
                    })
                    .collect()
            };
            assert_eq!(
                campaign.entries(&pts).unwrap(),
                expected,
                "warm-up {warmup:?}"
            );
        }
    }
}
