//! Composable detection: three detectors — time-domain Euclidean,
//! reference-based spectral, and reference-free spectral-persistence —
//! voting through one fusion policy in a [`DetectionPipeline`].
//!
//! And-fusion over the window domain shows the value of composition:
//! the spectral detector flags the A2 trigger instantly but alone, and
//! the alarm fires only once the persistence run corroborates it —
//! a one-off spectral glitch never alarms.
//!
//! Run with: `cargo run --release --example detector_pipeline`

use emtrust::acquisition::TestBench;
use emtrust::detector::{EuclideanDetector, SpectralWindowDetector};
use emtrust::fingerprint::{FingerprintConfig, GoldenFingerprint};
use emtrust::persistence::{PersistenceConfig, SpectralPersistenceDetector};
use emtrust::spectral::{SpectralConfig, SpectralDetector};
use emtrust::{DetectionPipeline, FusionPolicy};
use emtrust_silicon::Channel;
use emtrust_trojan::{A2Trojan, ProtectedChip};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let key = *b"pipeline demo k!";
    let chip = ProtectedChip::golden();
    let mut bench = TestBench::simulation(&chip)?.with_a2(A2Trojan::new(10e6));

    // Golden material for the two reference-based detectors; the
    // persistence detector learns its baseline from live windows.
    println!("fitting the euclidean and spectral references...");
    let golden_traces = bench.collect(key, 16, None, Channel::OnChipSensor, 1)?;
    let fingerprint = GoldenFingerprint::fit(&golden_traces, FingerprintConfig::default())?;
    let golden_window = bench.collect_continuous(key, 48, None, Channel::OnChipSensor, 2)?;
    let spectral = SpectralDetector::fit(&golden_window, SpectralConfig::default())?;

    let mut pipeline = DetectionPipeline::builder()
        .detector(Box::new(EuclideanDetector::new(fingerprint)))
        .detector(Box::new(SpectralWindowDetector::new(spectral)))
        .detector(Box::new(SpectralPersistenceDetector::new(
            PersistenceConfig::default(),
        )))
        .fusion(FusionPolicy::And)
        .build();
    println!(
        "pipeline: {:?} fused by {}",
        pipeline.detector_names(),
        pipeline.fusion().label()
    );

    // Quiet operation doubles as the persistence warm-up.
    let warmup = PersistenceConfig::default().warmup_windows;
    for seed in 0..u64::from(warmup) {
        let quiet = bench.collect_continuous(key, 48, None, Channel::OnChipSensor, 10 + seed)?;
        assert!(pipeline.ingest_window(&quiet).alarm.is_none());
    }
    println!("{warmup} quiet windows absorbed: baseline learned, no alarms.");

    // The A2 trigger wire starts flipping and stays parked.
    bench.arm_a2(true)?;
    for k in 1..=6u64 {
        let armed = bench.collect_continuous(key, 48, None, Channel::OnChipSensor, 100 + k)?;
        let outcome = pipeline.ingest_window(&armed);
        let votes: Vec<String> = outcome
            .votes
            .iter()
            .map(|v| format!("{}={}", v.detector, v.suspected))
            .collect();
        match outcome.alarm {
            Some(alarm) => {
                println!("armed window {k}: {} -> ALARM {alarm:?}", votes.join(" "));
                println!(
                    "every window detector corroborates — the spectral spike \
                     persisted long enough to rule out a glitch."
                );
                return Ok(());
            }
            None => println!("armed window {k}: {} -> no alarm yet", votes.join(" ")),
        }
    }
    Err("the fused pipeline never alarmed".into())
}
