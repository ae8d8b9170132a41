//! The acquisition path rebuilt from each layer's public functions, one
//! span per layer call.
//!
//! Every formula here mirrors the program: the noise-seed mix of
//! `TestBench::collect_with` and `SensorArray::collect_with_activity`,
//! the `seed ^ chip_id` / `seed·31 ^ chip_id` split of
//! `FabricatedChip::measure_with`, the A2 injection of `EmSensor::emf_with`
//! and the per-tile noise salt of `EmArray::measure_multi`. The workloads
//! compare every replayed trace bit for bit with the program's, so a
//! drifted formula fails the run instead of skewing the ledger.

use crate::ledger::Ledger;
use emtrust::acquisition::T2_LEAK_CURRENT_A;
use emtrust_aes::netlist::run_encryption_with;
use emtrust_aes::Aes128;
use emtrust_em::array::EmArray;
use emtrust_em::coil::Coil;
use emtrust_em::emf::emf_from_weighted_current;
use emtrust_em::noise::NoiseModel;
use emtrust_em::pipeline::{EmSensor, PointCurrentSource};
use emtrust_layout::floorplan::{Die, Floorplan};
use emtrust_layout::spiral::SpiralSensor;
use emtrust_netlist::library::Library;
use emtrust_power::{ClockConfig, CurrentModel, CurrentTrace};
use emtrust_silicon::{Oscilloscope, ProcessVariation};
use emtrust_sim::{ActivityTrace, Simulator};
use emtrust_trojan::{ProtectedChip, TrojanKind};

/// The per-trace noise seed of a campaign (`TestBench::collect_with` at
/// attempt 0, `SensorArray::collect_with_activity`).
pub fn trace_seed(campaign: u64, index: usize) -> u64 {
    campaign ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// `EmArray::measure_multi`'s per-tile noise salt.
fn tile_salt(tile: usize) -> u64 {
    (tile as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
}

/// One recorded stretch of encryptions.
pub struct Recorded {
    pub activity: ActivityTrace,
    /// Per-cycle T2 leakage current, when T2 is armed.
    pub leak: Option<Vec<f64>>,
}

/// Places a chip the way every bench does (generic 180 nm library, 0.7
/// utilisation).
pub fn place(ledger: &mut Ledger, chip: &ProtectedChip) -> Result<Floorplan, String> {
    ledger.span("layout.place", 0, || {
        let library = Library::generic_180nm();
        let die = Die::for_netlist(chip.netlist(), &library, 0.7).map_err(|e| e.to_string())?;
        Floorplan::place(chip.netlist(), &library, die).map_err(|e| e.to_string())
    })
}

/// A fresh simulator with every Trojan disarmed except `armed`, warmed
/// up with `warmup` when given.
pub fn simulator<'c>(
    ledger: &mut Ledger,
    chip: &'c ProtectedChip,
    key: [u8; 16],
    armed: Option<TrojanKind>,
    warmup: Option<[u8; 16]>,
) -> Result<Simulator<'c>, String> {
    ledger.span("sim", 0, || {
        let mut sim = chip.simulator().map_err(|e| e.to_string())?;
        chip.disarm_all(&mut sim);
        if let Some(kind) = armed {
            chip.arm(&mut sim, kind, true);
        }
        if let Some(pt) = warmup {
            let _ = run_encryption_with(&mut sim, chip.aes_ports(), key, pt, |_| {});
        }
        Ok(sim)
    })
}

/// Records back-to-back encryptions of `plaintexts` on `sim` (the inner
/// loop of the program's acquisition), returning the activity and the
/// ciphertexts.
pub fn record(
    sim: &mut Simulator<'_>,
    chip: &ProtectedChip,
    key: [u8; 16],
    plaintexts: &[[u8; 16]],
    armed: Option<TrojanKind>,
) -> (Recorded, Vec<[u8; 16]>) {
    let leak_sense = armed
        .and_then(|k| chip.trojan_ports(k))
        .and_then(|p| p.leak_sense);
    sim.start_recording();
    let mut leak = Vec::new();
    let ciphertexts = plaintexts
        .iter()
        .map(|&pt| {
            run_encryption_with(sim, chip.aes_ports(), key, pt, |s| {
                if let Some(net) = leak_sense {
                    // The leakage path opens while the sense bit is low.
                    leak.push(if s.value(net) { 0.0 } else { T2_LEAK_CURRENT_A });
                }
            })
        })
        .collect();
    let recorded = Recorded {
        activity: sim.take_recording(),
        leak: leak_sense.is_some().then_some(leak),
    };
    (recorded, ciphertexts)
}

/// Checks netlist ciphertexts against the FIPS-197 reference.
pub fn check_ciphertexts(
    key: [u8; 16],
    plaintexts: &[[u8; 16]],
    ciphertexts: &[[u8; 16]],
) -> Result<(), String> {
    let reference = Aes128::new(key);
    for (pt, ct) in plaintexts.iter().zip(ciphertexts) {
        if reference.encrypt_block(*pt) != *ct {
            return Err(format!(
                "netlist ciphertext of {pt:02x?} differs from FIPS-197"
            ));
        }
    }
    Ok(())
}

/// [`record`] as one `sim` span (one item per encryption), with the
/// ciphertexts checked.
pub fn encrypt(
    ledger: &mut Ledger,
    sim: &mut Simulator<'_>,
    chip: &ProtectedChip,
    key: [u8; 16],
    plaintexts: &[[u8; 16]],
    armed: Option<TrojanKind>,
) -> Result<Recorded, String> {
    let (recorded, ciphertexts) = ledger.span("sim", plaintexts.len() as u64, || {
        record(sim, chip, key, plaintexts, armed)
    });
    ledger.count("sim.toggles", recorded.activity.total_toggles() as u64);
    check_ciphertexts(key, plaintexts, &ciphertexts)?;
    Ok(recorded)
}

/// Rebuilds a fabricated die's on-chip sensor from its parts, as
/// `FabricatedChip::fabricate` assembles it: placement, the coil's
/// coupling kernel, then the die's process variation on the weights.
pub fn fabricated_sensor(
    l: &mut Ledger,
    chip: &ProtectedChip,
    die: u64,
) -> Result<EmSensor, String> {
    let floorplan = place(l, chip)?;
    let mut sensor = l.span("em.build", 0, || {
        let coil = Coil::OnChip(SpiralSensor::for_die(floorplan.die()).map_err(|e| e.to_string())?);
        EmSensor::new(coil, chip.netlist(), &floorplan, reference_model())
            .map_err(|e| e.to_string())
    })?;
    l.span("silicon.variation", 0, || {
        let factors = ProcessVariation::nominal().factors(die, chip.netlist().cell_count());
        sensor.scale_weights(&factors).map_err(|e| e.to_string())
    })?;
    Ok(sensor)
}

/// The power model every bench builds: generic 180 nm library at the
/// reference clock.
pub fn reference_model() -> CurrentModel {
    CurrentModel::new(Library::generic_180nm(), ClockConfig::reference())
}

/// One measurement channel taken apart into its layers: current
/// synthesis, emf (with analog injections), environment noise and, on a
/// fabricated die, the oscilloscope front-end.
pub struct Channel<'a> {
    pub sensor: &'a EmSensor,
    /// The front-end and the die's serial number, on fabricated dies.
    pub scope: Option<(&'a Oscilloscope, u64)>,
}

impl Channel<'_> {
    /// Measures `recorded` (covering `items` encryptions) with noise seed
    /// `seed`, bit-identical to the program's measurement.
    pub fn measure(
        &self,
        ledger: &mut Ledger,
        chip: &ProtectedChip,
        recorded: &Recorded,
        injections: &[PointCurrentSource],
        seed: u64,
        items: u64,
    ) -> Result<Vec<f64>, String> {
        let sensor = self.sensor;
        let mut weighted = ledger
            .span("power", items, || {
                sensor.model().synthesize_with(
                    chip.netlist(),
                    &recorded.activity,
                    Some(sensor.weights()),
                    recorded.leak.as_deref(),
                    1,
                )
            })
            .map_err(|e| e.to_string())?;
        let mut emf = ledger.span("em.emf", items, || {
            for src in injections {
                let m = sensor.coupling().at(src.location_um.0, src.location_um.1);
                if m == 0.0 || src.samples.is_empty() {
                    continue;
                }
                let scaled: Vec<f64> = src.samples.iter().map(|&i| i * m).collect();
                weighted.add_assign(&CurrentTrace::new(scaled, weighted.sample_rate_hz()));
            }
            emf_from_weighted_current(&weighted)
        });
        let noise_seed = self.scope.map_or(seed, |(_, die)| seed ^ die);
        ledger.span("em.noise", items, || {
            NoiseModel::environment_for(sensor.coil(), noise_seed).add_to(&mut emf)
        });
        Ok(match self.scope {
            Some((scope, die)) => ledger
                .span("silicon.scope", items, || {
                    scope.acquire(&emf, seed.wrapping_mul(31) ^ die)
                })
                .into_samples(),
            None => emf.into_samples(),
        })
    }
}

/// Measures one encryption on every tile of `array`: one shared
/// synthesis pass over all weight sets, then per-tile emf and noise.
pub fn measure_array(
    ledger: &mut Ledger,
    array: &EmArray,
    chip: &ProtectedChip,
    recorded: &Recorded,
    seed: u64,
) -> Result<Vec<Vec<f64>>, String> {
    let tiles = array.tiles();
    let model = tiles.first().ok_or("empty sensor array")?.sensor().model();
    let weight_sets: Vec<&[f64]> = tiles.iter().map(|t| t.sensor().weights()).collect();
    let currents = ledger
        .span("power", 1, || {
            model.synthesize_multi(
                chip.netlist(),
                &recorded.activity,
                &weight_sets,
                recorded.leak.as_deref(),
                1,
            )
        })
        .map_err(|e| e.to_string())?;
    let mut emfs: Vec<_> = ledger.span("em.emf", 1, || {
        currents.iter().map(emf_from_weighted_current).collect()
    });
    ledger.span("em.noise", 1, || {
        for (t, (tile, emf)) in tiles.iter().zip(&mut emfs).enumerate() {
            NoiseModel::environment_for(tile.sensor().coil(), seed ^ tile_salt(t)).add_to(emf);
        }
    });
    Ok(emfs.into_iter().map(|e| e.into_samples()).collect())
}

/// Whether two traces are bit-identical.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(p, q)| p.to_bits() == q.to_bits())
}

/// Whether two trace lists are bit-identical.
pub fn same_traces(a: &[Vec<f64>], b: &[Vec<f64>]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same_bits(x, y))
}
