//! The staged detection pipeline: fusion-policy truth tables, seeded
//! property tests, and three detectors fused side by side.

use emtrust::acquisition::TestBench;
use emtrust::detector::EuclideanDetector;
use emtrust::fingerprint::{FingerprintConfig, GoldenFingerprint};
use emtrust::persistence::{PersistenceConfig, SpectralPersistenceDetector};
use emtrust::spectral::{SpectralConfig, SpectralDetector};
use emtrust::{DetectionPipeline, FusionPolicy, SpectralWindowDetector};
use emtrust_silicon::Channel;
use emtrust_trojan::{A2Trojan, ProtectedChip};
use proptest::prelude::*;

const KEY: [u8; 16] = *b"pipeline test k!";

// ---------------------------------------------------------------------
// Fusion truth tables
// ---------------------------------------------------------------------

#[test]
fn or_fusion_truth_table() {
    let or = FusionPolicy::Or;
    assert!(!or.decide(&[]));
    assert!(!or.decide(&[false]));
    assert!(or.decide(&[true]));
    assert!(or.decide(&[false, true, false]));
    assert!(or.decide(&[true, true]));
}

#[test]
fn and_fusion_truth_table() {
    let and = FusionPolicy::And;
    assert!(!and.decide(&[]));
    assert!(and.decide(&[true]));
    assert!(!and.decide(&[true, false]));
    assert!(and.decide(&[true, true, true]));
    assert!(!and.decide(&[false, false]));
}

#[test]
fn majority_fusion_is_strict() {
    let maj = FusionPolicy::Majority;
    assert!(!maj.decide(&[]));
    assert!(maj.decide(&[true]));
    // Exactly half is not a majority.
    assert!(!maj.decide(&[true, false]));
    assert!(maj.decide(&[true, true, false]));
    assert!(!maj.decide(&[true, false, false]));
    assert!(!maj.decide(&[true, true, false, false]));
}

#[test]
fn weighted_fusion_sums_suspected_weights_inclusively() {
    let w = FusionPolicy::Weighted {
        weights: vec![2.0, 1.0],
        threshold: 2.0,
    };
    assert!(w.decide(&[true, false]), "2.0 >= 2.0 alarms (inclusive)");
    assert!(!w.decide(&[false, true]));
    assert!(w.decide(&[true, true]));
    // Votes beyond the weight list carry weight zero.
    assert!(!w.decide(&[false, false, true]));
    // The empty vote set never alarms, whatever the threshold.
    let zero = FusionPolicy::Weighted {
        weights: vec![],
        threshold: 0.0,
    };
    assert!(!zero.decide(&[]));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn fusion_policies_match_their_counting_predicates(
        raw in proptest::collection::vec(0u8..=1, 0..8),
    ) {
        let votes: Vec<bool> = raw.iter().map(|&v| v == 1).collect();
        let suspected = votes.iter().filter(|&&v| v).count();
        prop_assert_eq!(FusionPolicy::Or.decide(&votes), suspected > 0);
        prop_assert_eq!(
            FusionPolicy::And.decide(&votes),
            !votes.is_empty() && suspected == votes.len()
        );
        prop_assert_eq!(
            FusionPolicy::Majority.decide(&votes),
            2 * suspected > votes.len()
        );
        // Unit weights reduce Weighted to a count threshold.
        let k_of_n = FusionPolicy::Weighted {
            weights: vec![1.0; votes.len()],
            threshold: 2.0,
        };
        prop_assert_eq!(k_of_n.decide(&votes), !votes.is_empty() && suspected >= 2);
    }

    #[test]
    fn flipping_a_vote_to_suspected_never_clears_an_alarm(
        raw in proptest::collection::vec(0u8..=1, 1..8),
        flip in 0usize..8,
        threshold in 0.5f64..4.0,
    ) {
        let votes: Vec<bool> = raw.iter().map(|&v| v == 1).collect();
        let mut more = votes.clone();
        let flip = flip % more.len();
        more[flip] = true;
        let policies = [
            FusionPolicy::Or,
            FusionPolicy::And,
            FusionPolicy::Majority,
            FusionPolicy::Weighted {
                weights: vec![1.0; votes.len()],
                threshold,
            },
        ];
        for policy in policies {
            prop_assert!(
                !policy.decide(&votes) || policy.decide(&more),
                "{} lost its alarm when vote {} turned suspected",
                policy.label(),
                flip
            );
        }
    }
}

// ---------------------------------------------------------------------
// Three detectors side by side under different fusion policies
// ---------------------------------------------------------------------

/// Euclidean + reference-based spectral + reference-free persistence in
/// one pipeline, under the given window-domain fusion policy.
fn three_detector_pipeline(
    fp: &GoldenFingerprint,
    spectral: &SpectralDetector,
    fusion: FusionPolicy,
) -> DetectionPipeline {
    DetectionPipeline::builder()
        .detector(Box::new(EuclideanDetector::new(fp.clone())))
        .detector(Box::new(SpectralWindowDetector::new(spectral.clone())))
        .detector(Box::new(SpectralPersistenceDetector::new(
            PersistenceConfig::default(),
        )))
        .fusion(fusion)
        .build()
}

#[test]
fn or_and_and_fusion_gate_the_same_three_detector_evidence_differently() {
    let chip = ProtectedChip::golden();
    let mut bench = TestBench::simulation(&chip)
        .expect("bench")
        .with_a2(A2Trojan::new(10e6));
    let golden_traces = bench
        .collect(KEY, 16, None, Channel::OnChipSensor, 1)
        .expect("golden traces");
    let fp = GoldenFingerprint::fit(&golden_traces, FingerprintConfig::default()).expect("fit");
    let golden_window = bench
        .collect_continuous(KEY, 48, None, Channel::OnChipSensor, 2)
        .expect("golden window");
    let spectral = SpectralDetector::fit(&golden_window, SpectralConfig::default()).expect("fit");

    let mut or_pipe = three_detector_pipeline(&fp, &spectral, FusionPolicy::Or);
    let mut and_pipe = three_detector_pipeline(&fp, &spectral, FusionPolicy::And);
    assert_eq!(
        or_pipe.detector_names(),
        ["euclidean", "spectral", "spectral_persistence"]
    );

    // Quiet warm-up: the persistence detector learns the chip's own
    // lines, nobody alarms.
    let warmup = PersistenceConfig::default().warmup_windows;
    for seed in 0..u64::from(warmup) {
        let quiet = bench
            .collect_continuous(KEY, 48, None, Channel::OnChipSensor, 10 + seed)
            .expect("quiet window");
        assert!(or_pipe
            .try_ingest_window(&quiet)
            .expect("or")
            .alarm
            .is_none());
        assert!(and_pipe
            .try_ingest_window(&quiet)
            .expect("and")
            .alarm
            .is_none());
    }

    // The A2 trigger starts flipping and stays parked.
    bench.arm_a2(true).expect("arm");
    let mut or_first = None;
    let mut and_first = None;
    for k in 1..=6u32 {
        let armed = bench
            .collect_continuous(KEY, 48, None, Channel::OnChipSensor, 100 + u64::from(k))
            .expect("armed window");
        if or_pipe
            .try_ingest_window(&armed)
            .expect("or")
            .alarm
            .is_some()
            && or_first.is_none()
        {
            or_first = Some(k);
        }
        if and_pipe
            .try_ingest_window(&armed)
            .expect("and")
            .alarm
            .is_some()
            && and_first.is_none()
        {
            and_first = Some(k);
        }
    }
    assert_eq!(
        or_first,
        Some(1),
        "Or-fusion alarms on the first armed window (spectral alone suffices)"
    );
    assert_eq!(
        and_first,
        Some(PersistenceConfig::default().persistence_windows),
        "And-fusion waits until the persistence run corroborates the spectral vote"
    );
}
