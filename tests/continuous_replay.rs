//! `collect_continuous` against a serial replay of the same window.
//!
//! The program simulates a window's blocks side by side, one per lane.
//! The replay runs them one after another on one simulator and measures
//! the recording layer by layer — current synthesis, emf, environment
//! noise — as the end-to-end benchmark's replay does. The two must agree
//! bit for bit on both sides of the 64-lane word boundary.

use emtrust::{ParallelConfig, TestBench};
use emtrust_aes::netlist::{run_encryption_with, CYCLES_PER_BLOCK};
use emtrust_aes::Aes128;
use emtrust_em::coil::Coil;
use emtrust_em::emf::emf_from_weighted_current;
use emtrust_em::noise::NoiseModel;
use emtrust_em::pipeline::EmSensor;
use emtrust_layout::spiral::SpiralSensor;
use emtrust_silicon::chip::reference_design;
use emtrust_silicon::Channel;
use emtrust_trojan::ProtectedChip;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const KEY: [u8; 16] = *b"continuous-key!!";

/// The simulation bench's on-chip channel, rebuilt from its parts.
fn onchip_sensor(chip: &ProtectedChip) -> EmSensor {
    let (floorplan, model) = reference_design(chip.netlist()).unwrap();
    let coil = Coil::OnChip(SpiralSensor::for_die(floorplan.die()).unwrap());
    EmSensor::new(coil, chip.netlist(), &floorplan, model).unwrap()
}

/// One simulator from power-on, one recording over every block, then
/// synthesis, emf and noise with the window seed.
fn serial_replay(chip: &ProtectedChip, sensor: &EmSensor, n_blocks: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sim = chip.simulator().unwrap();
    chip.disarm_all(&mut sim);
    sim.start_recording();
    for _ in 0..n_blocks {
        let pt: [u8; 16] = rng.gen();
        let ct = run_encryption_with(&mut sim, chip.aes_ports(), KEY, pt, |_| {});
        assert_eq!(ct, Aes128::new(KEY).encrypt_block(pt));
    }
    let activity = sim.take_recording();
    let weighted = sensor
        .model()
        .synthesize_with(chip.netlist(), &activity, Some(sensor.weights()), None, 1)
        .unwrap();
    let mut emf = emf_from_weighted_current(&weighted);
    NoiseModel::environment_for(sensor.coil(), seed).add_to(&mut emf);
    emf.into_samples()
}

#[test]
fn continuous_windows_match_a_serial_replay_across_the_word_boundary() {
    let chip = ProtectedChip::golden();
    let sensor = onchip_sensor(&chip);
    let bench = TestBench::simulation(&chip)
        .unwrap()
        .with_parallel(ParallelConfig::serial());
    let samples_per_block = CYCLES_PER_BLOCK * bench.clock().samples_per_cycle();
    for n_blocks in [1, 63, 64, 65, 130] {
        let seed = 0xC0 + n_blocks as u64;
        let program = bench
            .collect_continuous(KEY, n_blocks, None, Channel::OnChipSensor, seed)
            .unwrap();
        let replayed = serial_replay(&chip, &sensor, n_blocks, seed);
        assert_eq!(program.samples().len(), n_blocks * samples_per_block);
        assert_eq!(replayed.len(), program.samples().len(), "{n_blocks} blocks");
        let first_difference = program
            .samples()
            .iter()
            .zip(&replayed)
            .position(|(p, r)| p.to_bits() != r.to_bits());
        assert_eq!(first_difference, None, "{n_blocks} blocks");
    }
}
