//! Integration of the spectral detector and the fabricated-chip model:
//! A2 detection end to end, chip-to-chip variation, and the measurement
//! chain's reproducibility guarantees.

use emtrust::acquisition::TestBench;
use emtrust::spectral::{SpectralConfig, SpectralDetector};
use emtrust_silicon::Channel;
use emtrust_trojan::{A2Trojan, ProtectedChip, TrojanKind};

const KEY: [u8; 16] = *b"spectral-silicon";

#[test]
fn a2_trigger_is_caught_in_the_frequency_domain() {
    let chip = ProtectedChip::golden();
    let mut bench = TestBench::simulation(&chip)
        .expect("bench")
        .with_a2(A2Trojan::new(10e6));
    let golden = bench
        .collect_continuous(KEY, 24, None, Channel::OnChipSensor, 1)
        .expect("golden window");
    let det = SpectralDetector::fit(&golden, SpectralConfig::default()).expect("detector");

    // Dormant: clean.
    let dormant = bench
        .collect_continuous(KEY, 24, None, Channel::OnChipSensor, 2)
        .expect("dormant window");
    assert!(!det.trojan_suspected(&dormant).expect("compare"));

    // Triggering: the fast-flipping wire shows up.
    bench.arm_a2(true).expect("A2 installed above");
    let armed = bench
        .collect_continuous(KEY, 24, None, Channel::OnChipSensor, 3)
        .expect("armed window");
    let anomalies = det.compare(&armed).expect("compare");
    assert!(!anomalies.is_empty(), "A2 trigger must be visible");
    // Anomalies sit on the 5 MHz odd-harmonic comb of the trigger.
    for a in anomalies.iter().take(3) {
        let harmonic = (a.frequency_hz / 5e6).round();
        assert!(
            (a.frequency_hz - harmonic * 5e6).abs() < 2e6 && harmonic as u64 % 2 == 1,
            "anomaly at {:.2} MHz off the comb",
            a.frequency_hz / 1e6
        );
    }
}

#[test]
fn t4_floods_the_spectrum_more_than_t3() {
    // Fig. 6 (i)-(l): register-bank Trojans raise many spots; T3 is
    // nearly invisible.
    let chip = ProtectedChip::with_all_trojans();
    let bench = TestBench::silicon(&chip, 1).expect("bench");
    let golden = bench
        .collect_continuous(KEY, 24, None, Channel::OnChipSensor, 5)
        .expect("golden");
    let det = SpectralDetector::fit(&golden, SpectralConfig::default()).expect("detector");
    let spots = |kind: TrojanKind, seed: u64| {
        let armed = bench
            .collect_continuous(KEY, 24, Some(kind), Channel::OnChipSensor, seed)
            .expect("armed");
        det.compare(&armed).expect("compare").len()
    };
    let t4 = spots(TrojanKind::T4PowerDegrader, 6);
    let t3 = spots(TrojanKind::T3CdmaLeaker, 7);
    assert!(t4 > t3, "T4 spots {t4} must exceed T3 spots {t3}");
}

#[test]
fn different_dies_measure_differently_but_reproducibly() {
    let chip = ProtectedChip::golden();
    let bench_a = TestBench::silicon(&chip, 100).expect("bench a");
    let bench_a2 = TestBench::silicon(&chip, 100).expect("bench a again");
    let bench_b = TestBench::silicon(&chip, 101).expect("bench b");
    let collect = |b: &TestBench<'_>| {
        b.collect(KEY, 1, None, Channel::OnChipSensor, 9)
            .expect("trace")
            .traces()[0]
            .clone()
    };
    let a = collect(&bench_a);
    let a2 = collect(&bench_a2);
    let b = collect(&bench_b);
    assert_eq!(a, a2, "same die, same seed: identical measurement");
    assert_ne!(a, b, "different dies differ (process variation)");
}

#[test]
fn scope_quantization_is_visible_in_the_output() {
    let chip = ProtectedChip::golden();
    let bench = TestBench::silicon(&chip, 1).expect("bench");
    let set = bench
        .collect(KEY, 1, None, Channel::OnChipSensor, 9)
        .expect("trace");
    let trace = &set.traces()[0];
    // 12-bit ADC over ±100 µV: every sample is a multiple of the LSB.
    let lsb = 2.0 * 100e-6 / 4096.0;
    for &v in trace.iter().take(200) {
        let steps = v / lsb;
        assert!(
            (steps - steps.round()).abs() < 1e-6,
            "sample {v} is not quantized"
        );
    }
}
