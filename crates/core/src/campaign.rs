//! The one simulation loop behind every acquisition path.
//!
//! A [`Campaign`] powers a chip on, disarms every Trojan except the one
//! under test, and records back-to-back encryptions under one key. Its
//! only decision is lane width:
//!
//! - A Trojan-free chip with nothing armed is **replayable**: its state
//!   after an encryption is a pure function of the key and that
//!   encryption's plaintext. The blocks are then split into one chunk per
//!   pool worker, at most [`LANES`] blocks each, and every chunk runs on
//!   its own simulator, one block per lane. Lane *i* warms up with its
//!   predecessor plaintext, then records its own, which reproduces the
//!   serial event stream exactly.
//! - A Trojan-carrying chip is not: T1's counter free-runs even while
//!   dormant, so trace *i* depends on every earlier encryption. It runs
//!   sequentially on one live lane of the same engine, sampling T2's
//!   leakage-sense net every cycle when T2 is armed.
//!
//! The recorded blocks are therefore bit-identical whatever the width
//! and the worker count.

use crate::acquisition::T2_LEAK_CURRENT_A;
use crate::parallel::ParallelConfig;
use crate::TrustError;
use emtrust_aes::netlist::{run_encryption_with, run_encryptions};
use emtrust_sim::{ActivityTrace, Simulator, LANES};
use emtrust_telemetry as telemetry;
use emtrust_trojan::{ProtectedChip, TrojanKind};

/// One recorded encryption. Its cycles carry the clock index of the
/// simulator that recorded it.
pub(crate) struct Recorded {
    pub(crate) activity: ActivityTrace,
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
    parallel: ParallelConfig,
}

impl<'c> Campaign<'c> {
    /// A campaign on `chip` with only `armed` triggered, simulating on
    /// `parallel`'s workers when replayable.
    pub(crate) fn new(
        chip: &'c ProtectedChip,
        key: [u8; 16],
        armed: Option<TrojanKind>,
        warmup: Option<[u8; 16]>,
        parallel: ParallelConfig,
    ) -> Self {
        Self {
            chip,
            key,
            armed,
            warmup,
            parallel,
        }
    }

    fn replayable(&self) -> bool {
        self.armed.is_none() && self.chip.trojan_kinds().next().is_none()
    }

    /// A powered-on simulator with only `armed` triggered.
    fn power_on(&self) -> Result<Simulator<'c>, TrustError> {
        let mut sim = self.chip.simulator()?;
        self.chip.disarm_all(&mut sim);
        if let Some(kind) = self.armed {
            self.chip.arm(&mut sim, kind, true);
        }
        Ok(sim)
    }

    /// Records `plaintexts` in order. The blocks are simulated in rounds
    /// (span `simulate`); each round goes to `sink` with the index of its
    /// first block before the next one is simulated, so at most one
    /// round of activity is alive at a time.
    pub(crate) fn record(
        &self,
        plaintexts: &[[u8; 16]],
        mut sink: impl FnMut(usize, Vec<Recorded>) -> Result<(), TrustError>,
    ) -> Result<(), TrustError> {
        if !self.replayable() {
            let mut sim = self.power_on()?;
            if let Some(pt) = self.warmup {
                let _ = run_encryption_with(&mut sim, self.chip.aes_ports(), self.key, pt, |_| {});
            }
            for (b, batch) in plaintexts.chunks(LANES).enumerate() {
                let recorded = {
                    let _span = telemetry::span("simulate");
                    batch.iter().map(|&pt| self.encrypt(&mut sim, pt)).collect()
                };
                sink(b * LANES, recorded)?;
            }
            return Ok(());
        }
        let workers = self
            .parallel
            .workers
            .clamp(1, emtrust_dsp::parallel::host_parallelism());
        let width = plaintexts.len().div_ceil(workers).clamp(1, LANES);
        let pool = self.parallel.with_chunk_size(width);
        let mut before = self.warmup;
        for (r, round) in plaintexts.chunks(width * workers).enumerate() {
            let recorded = {
                let _span = telemetry::span("simulate");
                pool.try_map_chunks(round.len(), |range| {
                    let prev = range.start.checked_sub(1).map(|i| round[i]).or(before);
                    self.replay(prev, &round[range])
                })?
            };
            before = round.last().copied();
            sink(r * width * workers, recorded)?;
        }
        Ok(())
    }

    /// Records `plaintexts`, concatenated into one window trace whose
    /// cycles count up from the first block's. The blocks' cycles are
    /// moved into the window, never copied.
    pub(crate) fn record_window(
        &self,
        plaintexts: &[[u8; 16]],
    ) -> Result<(ActivityTrace, Option<Vec<f64>>), TrustError> {
        let mut activity = ActivityTrace::new();
        let mut leak: Option<Vec<f64>> = None;
        self.record(plaintexts, |_, recorded| {
            for block in recorded {
                activity.extend_from(block.activity);
                if let Some(block_leak) = block.leak {
                    leak.get_or_insert_with(Vec::new).extend(block_leak);
                }
            }
            Ok(())
        })?;
        Ok((activity, leak))
    }

    /// One recorded encryption on lane 0 of a sequential simulator.
    fn encrypt(&self, sim: &mut Simulator<'c>, pt: [u8; 16]) -> Recorded {
        let leak_sense = self
            .armed
            .and_then(|k| self.chip.trojan_ports(k))
            .and_then(|p| p.leak_sense);
        sim.start_recording();
        let mut leak = Vec::new();
        let _ = run_encryption_with(sim, self.chip.aes_ports(), self.key, pt, |s| {
            if let Some(net) = leak_sense {
                // The leakage path opens while the sense bit is low.
                leak.push(if s.value(net) { 0.0 } else { T2_LEAK_CURRENT_A });
            }
        });
        Recorded {
            activity: sim.take_recording(),
            leak: leak_sense.map(|_| leak),
        }
    }

    /// Records `blocks` of a replayable campaign side by side on a fresh
    /// simulator, after warming each lane up with its predecessor; `prev`
    /// precedes the first block (`None`: it runs alone from power-on).
    fn replay(
        &self,
        prev: Option<[u8; 16]>,
        blocks: &[[u8; 16]],
    ) -> Result<Vec<Recorded>, TrustError> {
        let mut sim = self.power_on()?;
        let (mut out, rest, prev) = match prev {
            Some(prev) => (Vec::with_capacity(blocks.len()), blocks, prev),
            None => (self.lanes(&mut sim, &blocks[..1]), &blocks[1..], blocks[0]),
        };
        if let Some((_, predecessors)) = rest.split_last() {
            let warmups: Vec<[u8; 16]> = std::iter::once(prev)
                .chain(predecessors.iter().copied())
                .collect();
            let _ = run_encryptions(&mut sim, self.chip.aes_ports(), self.key, &warmups);
            out.extend(self.lanes(&mut sim, rest));
        }
        Ok(out)
    }

    /// One recorded encryption per lane.
    fn lanes(&self, sim: &mut Simulator<'c>, blocks: &[[u8; 16]]) -> Vec<Recorded> {
        sim.start_recording();
        let _ = run_encryptions(sim, self.chip.aes_ports(), self.key, blocks);
        sim.take_lane_recordings()
            .into_iter()
            .map(|activity| Recorded {
                activity,
                leak: None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: [u8; 16] = *b"campaign-key-16B";

    fn plaintexts(n: usize) -> Vec<[u8; 16]> {
        (0..n).map(|i| [(i * 37 % 251) as u8; 16]).collect()
    }

    /// One simulator, one recording per block, on lane 0.
    fn serial(
        chip: &ProtectedChip,
        pts: &[[u8; 16]],
        warmup: Option<[u8; 16]>,
    ) -> Vec<ActivityTrace> {
        let mut sim = chip.simulator().unwrap();
        chip.disarm_all(&mut sim);
        if let Some(pt) = warmup {
            let _ = run_encryption_with(&mut sim, chip.aes_ports(), KEY, pt, |_| {});
        }
        pts.iter()
            .map(|&pt| {
                sim.start_recording();
                let _ = run_encryption_with(&mut sim, chip.aes_ports(), KEY, pt, |_| {});
                sim.take_recording()
            })
            .collect()
    }

    #[test]
    fn windows_equal_one_serial_recording_cycle_for_cycle() {
        let chip = ProtectedChip::golden();
        for (n, workers) in [(1, 1), (65, 1), (65, 3)] {
            let pts = plaintexts(n);
            let parallel = ParallelConfig::serial().with_workers(workers);
            let (window, leak) = Campaign::new(&chip, KEY, None, None, parallel)
                .record_window(&pts)
                .unwrap();
            // One simulator from power-on, one recording over every block.
            let mut sim = chip.simulator().unwrap();
            sim.start_recording();
            for &pt in &pts {
                let _ = run_encryption_with(&mut sim, chip.aes_ports(), KEY, pt, |_| {});
            }
            let expected = sim.take_recording();
            assert!(leak.is_none());
            assert_eq!(window, expected, "{n} blocks, {workers} workers");
            let cycles: Vec<u64> = window.cycles().iter().map(|c| c.cycle()).collect();
            assert_eq!(cycles, (0..cycles.len() as u64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn replayed_blocks_match_serial_events_at_any_worker_count() {
        let chip = ProtectedChip::golden();
        let pts = plaintexts(70);
        let warmup = Some([0xA5; 16]);
        let expected = serial(&chip, &pts, warmup);
        for workers in [1, 2, 4] {
            let parallel = ParallelConfig::serial().with_workers(workers);
            let mut got = Vec::new();
            Campaign::new(&chip, KEY, None, warmup, parallel)
                .record(&pts, |first, recorded| {
                    assert_eq!(first, got.len());
                    got.extend(recorded.into_iter().map(|r| r.activity));
                    Ok(())
                })
                .unwrap();
            assert_eq!(got.len(), expected.len());
            for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
                let events = |t: &ActivityTrace| -> Vec<_> {
                    t.cycles().iter().map(|c| c.events().to_vec()).collect()
                };
                assert_eq!(events(g), events(e), "block {i}, {workers} workers");
            }
        }
    }
}
