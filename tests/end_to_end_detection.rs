//! End-to-end integration: netlist → simulation → placement → EM physics
//! → detection, across every crate in the workspace.

use emtrust::acquisition::{Stimulus, TestBench};
use emtrust::detector::EuclideanDetector;
use emtrust::fingerprint::{FingerprintConfig, GoldenFingerprint};
use emtrust::DetectionPipeline;
use emtrust_silicon::Channel;
use emtrust_trojan::{ProtectedChip, TrojanKind};

const KEY: [u8; 16] = *b"integration key!";
const STIMULUS: Stimulus = Stimulus::Fixed(*b"integration blk!");

#[test]
fn trojan_is_caught_at_runtime_through_the_onchip_sensor() {
    let chip = ProtectedChip::with_trojans(&[TrojanKind::T4PowerDegrader]);
    let bench = TestBench::simulation(&chip).expect("bench");

    let golden = bench
        .collect_with(KEY, STIMULUS, 16, None, Channel::OnChipSensor, 11)
        .expect("golden traces");
    let fp = GoldenFingerprint::fit(&golden, FingerprintConfig::default()).expect("fingerprint");
    let mut monitor = DetectionPipeline::builder()
        .detector(Box::new(EuclideanDetector::new(fp)))
        .build();

    // Healthy operation: no alarms.
    let clean = bench
        .collect_with(KEY, STIMULUS, 6, None, Channel::OnChipSensor, 12)
        .expect("clean traces");
    for t in clean.traces() {
        assert!(monitor.ingest_trace(t).alarm.is_none());
    }

    // Trojan activates.
    let infected = bench
        .collect_with(
            KEY,
            STIMULUS,
            6,
            Some(TrojanKind::T4PowerDegrader),
            Channel::OnChipSensor,
            13,
        )
        .expect("infected traces");
    let mut alarms = 0;
    for t in infected.traces() {
        if let Some(alarm) = monitor.ingest_trace(t).alarm {
            let score = &alarm.verdicts[0].score;
            assert!(score.statistic > score.threshold);
            alarms += 1;
        }
    }
    assert_eq!(alarms, 6, "every Trojan-active trace must alarm");
    assert!((monitor.alarm_rate() - 0.5).abs() < 1e-9);
}

#[test]
fn detection_works_on_the_fabricated_chip_as_well() {
    let chip = ProtectedChip::with_trojans(&[TrojanKind::T2LeakageLeaker]);
    let bench = TestBench::silicon(&chip, 3).expect("silicon bench");
    let golden = bench
        .collect_with(KEY, STIMULUS, 12, None, Channel::OnChipSensor, 21)
        .expect("golden");
    // Raw feature space: the silicon T2 signature is broad-band, which
    // a handful of PCA components can dilute.
    let config = FingerprintConfig {
        pca_components: None,
        ..FingerprintConfig::default()
    };
    let fp = GoldenFingerprint::fit(&golden, config).expect("fingerprint");
    let armed = bench
        .collect_with(
            KEY,
            STIMULUS,
            6,
            Some(TrojanKind::T2LeakageLeaker),
            Channel::OnChipSensor,
            22,
        )
        .expect("armed");
    let mut monitor = DetectionPipeline::builder()
        .detector(Box::new(EuclideanDetector::new(fp)))
        .build();
    let flagged = monitor.ingest_batch(armed.traces()).alarms.len();
    assert!(
        flagged >= 5,
        "T2 must be visible on silicon through the sensor ({flagged}/6 flagged)"
    );
}

#[test]
fn golden_chip_raises_no_alarms_across_benches() {
    let chip = ProtectedChip::golden();
    for bench in [
        TestBench::simulation(&chip).expect("sim"),
        TestBench::silicon(&chip, 9).expect("silicon"),
    ] {
        let golden = bench
            .collect_with(KEY, STIMULUS, 12, None, Channel::OnChipSensor, 31)
            .expect("golden");
        let fp =
            GoldenFingerprint::fit(&golden, FingerprintConfig::default()).expect("fingerprint");
        let fresh = bench
            .collect_with(KEY, STIMULUS, 6, None, Channel::OnChipSensor, 32)
            .expect("fresh");
        let mut monitor = DetectionPipeline::builder()
            .detector(Box::new(EuclideanDetector::new(fp)))
            .build();
        let batch = monitor.ingest_batch(fresh.traces());
        assert_eq!(batch.clean(), fresh.len());
        assert!(batch.alarms.is_empty(), "golden chip must not alarm");
    }
}
