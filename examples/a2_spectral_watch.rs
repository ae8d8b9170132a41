//! Spectral watch for analog Trojans: an A2-style charge-pump Trojan is
//! invisible to power fingerprinting, but its fast-flipping trigger wire
//! betrays it in the frequency domain (paper §III-E / Fig. 4).
//!
//! Run with: `cargo run --release --example a2_spectral_watch`

use emtrust::acquisition::TestBench;
use emtrust::fingerprint::{FingerprintConfig, GoldenFingerprint};
use emtrust::spectral::{SpectralConfig, SpectralDetector};
use emtrust::{DetectionPipeline, EuclideanDetector, ScoreDetail, SpectralWindowDetector};
use emtrust_silicon::Channel;
use emtrust_trojan::{A2Trojan, ProtectedChip};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let key = *b"spectral watch k";
    println!("installing an A2-style analog Trojan (6 transistors)...");
    let chip = ProtectedChip::golden();
    let mut bench = TestBench::simulation(&chip)?.with_a2(A2Trojan::new(10e6));

    // Fit both detectors on golden windows (A2 dormant).
    println!("fitting time-domain and spectral detectors on golden data...");
    let golden_traces = bench.collect(key, 16, None, Channel::OnChipSensor, 1)?;
    let fingerprint = GoldenFingerprint::fit(&golden_traces, FingerprintConfig::default())?;
    let golden_window = bench.collect_continuous(key, 48, None, Channel::OnChipSensor, 2)?;
    let spectral = SpectralDetector::fit(&golden_window, SpectralConfig::default())?;
    let mut monitor = DetectionPipeline::builder()
        .detector(Box::new(EuclideanDetector::new(fingerprint)))
        .detector(Box::new(SpectralWindowDetector::new(spectral)))
        .build();

    // Dormant: both detectors stay quiet.
    let quiet = bench.collect_continuous(key, 48, None, Channel::OnChipSensor, 3)?;
    assert!(monitor.ingest_window(&quiet).alarm.is_none());
    println!("A2 dormant: spectrum clean.");

    // The trigger wire starts flipping.
    bench.arm_a2(true)?;
    let window = bench.collect_continuous(key, 48, None, Channel::OnChipSensor, 4)?;
    let Some(alarm) = monitor.ingest_window(&window).alarm else {
        panic!("the spectral detector must catch the A2 trigger");
    };
    for vote in alarm.verdicts.iter().filter(|v| v.suspected) {
        if let ScoreDetail::Spectral { anomalies } = &vote.score.detail {
            let top = &anomalies[0];
            println!(
                "A2 triggering: {} anomalous spots, strongest at {:.2} MHz \
                 (correlation id {})",
                anomalies.len(),
                top.frequency_hz / 1e6,
                alarm.correlation_id
            );
        }
    }
    println!(
        "Alarm raised from the trigger's harmonic comb — no logic corruption\n\
         ever occurred, yet the chip is flagged before the payload can fire."
    );
    Ok(())
}
