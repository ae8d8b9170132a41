//! Quickstart: protect an AES chip with the on-chip EM sensor framework
//! and catch a hardware Trojan the moment it activates.
//!
//! Run with: `cargo run --release --example quickstart`

use emtrust::acquisition::{Stimulus, TestBench};
use emtrust::fingerprint::{FingerprintConfig, GoldenFingerprint};
use emtrust::{DetectionPipeline, EuclideanDetector};
use emtrust_silicon::Channel;
use emtrust_trojan::{ProtectedChip, TrojanKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let key = *b"quickstart key!!";

    // 1. The chip under test: an AES-128 core that, unknown to its user,
    //    carries the paper's T4 power-degrader Trojan.
    println!("building the protected AES chip (gate-level netlist)...");
    let chip = ProtectedChip::with_trojans(&[TrojanKind::T4PowerDegrader]);
    println!(
        "  {} cells, of which the Trojan is {}",
        chip.netlist().cell_count(),
        emtrust_netlist::stats::module_stats(chip.netlist(), "trojan4").total
    );

    // 2. The measurement setup: spiral sensor on the top metal layer,
    //    simulation-grade measurement chain (paper §IV).
    println!("placing the die and computing the EM coupling kernel...");
    let bench = TestBench::simulation(&chip)?;

    // 3. Fingerprint the golden behaviour (Trojan dormant). Runtime
    //    self-test replays one known stimulus block, so the golden spread
    //    reflects only measurement noise.
    println!("collecting 32 golden traces and fitting the fingerprint...");
    let stimulus = Stimulus::Fixed(*b"self-test block!");
    let golden = bench.collect_with(key, stimulus, 32, None, Channel::OnChipSensor, 1)?;
    let fingerprint = GoldenFingerprint::fit(&golden, FingerprintConfig::default())?;
    println!("  Eq. 1 threshold: {:.4}", fingerprint.threshold());

    // 4. Runtime monitoring: the Trojan activates mid-stream.
    let mut monitor = DetectionPipeline::builder()
        .detector(Box::new(EuclideanDetector::new(fingerprint)))
        .build();
    println!("monitoring... (Trojan activates after trace 8)");
    let clean = bench.collect_with(key, stimulus, 8, None, Channel::OnChipSensor, 2)?;
    for trace in clean.traces() {
        let outcome = monitor.try_ingest_trace(trace)?;
        assert!(outcome.alarm.is_none(), "no false alarms");
    }
    let infected = bench.collect_with(
        key,
        stimulus,
        8,
        Some(TrojanKind::T4PowerDegrader),
        Channel::OnChipSensor,
        3,
    )?;
    for trace in infected.traces() {
        if let Some(alarm) = monitor.try_ingest_trace(trace)?.alarm {
            let score = &alarm.verdicts[0].score;
            println!(
                "  ALARM: trace {} distance {:.4} > threshold {:.4} (correlation id {})",
                alarm.index, score.statistic, score.threshold, alarm.correlation_id
            );
        }
    }
    println!(
        "{} traces ingested, {} alarms — every Trojan-active trace flagged.",
        monitor.traces_seen(),
        monitor.alarms().len()
    );
    assert_eq!(monitor.alarms().len(), 8);
    Ok(())
}
