//! The baseline contract: the empty-`GoldenContext` truth table across
//! all four detectors, rolling-statistics properties (batch-statistics
//! convergence, never-arms-early), and the bit-identity guarantee of
//! [`BaselineSource::Golden`] against a direct `fit`.

use emtrust::acquisition::TestBench;
use emtrust::detector::Detector;
use emtrust::persistence::{PersistenceConfig, SpectralPersistenceDetector};
use emtrust::sanitize::TraceSanitizer;
use emtrust::spectral::SpectralConfig;
use emtrust::{
    BaselineSource, ConsensusConfig, ConsensusDetector, DetectionPipeline, DetectorReadiness,
    EuclideanDetector, FingerprintConfig, GoldenContext, RollingBaseline, SelfCalibratingConfig,
    SpectralWindowDetector,
};
use emtrust_silicon::Channel;
use emtrust_trojan::{ProtectedChip, TrojanKind};
use proptest::prelude::*;

const KEY: [u8; 16] = *b"baseline test k!";

// ---------------------------------------------------------------------
// Empty-golden-context truth table
// ---------------------------------------------------------------------

/// Every detector's answer to "fit me with no golden material" and "fit
/// me reference-free", plus the readiness it reports at each step. This
/// is the behavior the boolean `is_fitted` used to blur: the two
/// golden-hungry detectors refuse an empty context outright (and stay
/// honestly unready), while the two reference-free detectors accept any
/// source.
#[test]
fn empty_golden_context_truth_table() {
    let selfcal = BaselineSource::self_calibrating(SelfCalibratingConfig::default());
    let warmup = SelfCalibratingConfig::default().warmup as u32;

    // Euclidean: refuses an empty context, supports self-calibration.
    let mut d = EuclideanDetector::from_config(FingerprintConfig::default());
    assert_eq!(d.readiness(), DetectorReadiness::NeedsGoldenTraces);
    assert!(d.fit(&GoldenContext::new()).is_err());
    assert_eq!(
        d.readiness(),
        DetectorReadiness::NeedsGoldenTraces,
        "a failed fit must leave the detector honestly unready"
    );
    assert!(d.fit_baseline(&selfcal).is_ok());
    assert_eq!(
        d.readiness(),
        DetectorReadiness::Calibrating {
            seen: 0,
            required: warmup
        }
    );

    // Spectral window: refuses an empty context (it wants a continuous
    // golden window, and says so), supports self-calibration.
    let mut d = SpectralWindowDetector::from_config(SpectralConfig::default());
    assert_eq!(d.readiness(), DetectorReadiness::NeedsGoldenWindow);
    assert!(d.fit(&GoldenContext::new()).is_err());
    assert_eq!(d.readiness(), DetectorReadiness::NeedsGoldenWindow);
    assert!(d.fit_baseline(&selfcal).is_ok());
    assert_eq!(
        d.readiness(),
        DetectorReadiness::Calibrating {
            seen: 0,
            required: warmup
        }
    );

    // Spectral persistence: reference-free by construction — an empty
    // context is a valid (re)fit and either baseline source works; the
    // warm-up whitelist keeps it in Calibrating until it has watched
    // enough windows.
    let mut d = SpectralPersistenceDetector::new(PersistenceConfig::default());
    assert!(matches!(
        d.readiness(),
        DetectorReadiness::Calibrating { seen: 0, .. }
    ));
    assert!(d.fit(&GoldenContext::new()).is_ok());
    assert!(d.fit_baseline(&selfcal).is_ok());
    assert!(!d.readiness().is_ready());

    // Consensus: a stateless spatial vote over per-tile margins —
    // always ready, any source fits.
    let mut d = ConsensusDetector::new(ConsensusConfig::default()).expect("consensus");
    assert_eq!(d.readiness(), DetectorReadiness::Ready);
    assert!(d.fit(&GoldenContext::new()).is_ok());
    assert!(d.fit_baseline(&selfcal).is_ok());
    assert_eq!(d.readiness(), DetectorReadiness::Ready);

    // The labels telemetry and artifacts key on are stable.
    assert_eq!(
        DetectorReadiness::NeedsGoldenTraces.label(),
        "needs_golden_traces"
    );
    assert_eq!(
        DetectorReadiness::NeedsGoldenWindow.label(),
        "needs_golden_window"
    );
    assert_eq!(
        DetectorReadiness::Calibrating {
            seen: 0,
            required: 1
        }
        .label(),
        "calibrating"
    );
    assert_eq!(DetectorReadiness::Ready.label(), "ready");
}

// ---------------------------------------------------------------------
// Rolling-statistics properties
// ---------------------------------------------------------------------

/// Mirrors `emtrust_dsp::stats::median`: upper-middle element on even
/// lengths, so the property comparison is exact rather than approximate.
fn med(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    v[v.len() / 2]
}

/// Deterministic stationary traffic: a fixed waveform plus small
/// hash-derived jitter, so every proptest case is reproducible.
fn stationary_rows(n: usize, dims: usize, base: f64, jitter: f64, seed: u64) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            (0..dims)
                .map(|d| {
                    let h = (((i * dims + d + 1) as f64) * (seed + 1) as f64 * 12.9898).sin()
                        * 43758.5453;
                    base + (d as f64 * 0.3).sin().abs() + jitter * (h.fract() - 0.5)
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On stationary clean traffic the rolling baseline (a) never arms
    /// before the warm-up ring fills, scoring nothing in the meantime,
    /// and (b) arms to exactly the batch robust statistics — same
    /// scale, same per-dimension median centre, same median + k × MAD
    /// threshold — computed independently here.
    #[test]
    fn rolling_baseline_matches_batch_statistics_and_never_arms_early(
        warmup in 2usize..12,
        dims in 2usize..10,
        base in 0.5f64..2.0,
        jitter in 0.01f64..0.2,
        seed in 0u64..512,
    ) {
        let rows = stationary_rows(warmup, dims, base, jitter, seed);
        let cfg = SelfCalibratingConfig { warmup, ..SelfCalibratingConfig::default() };
        let mut rb = RollingBaseline::new(cfg).expect("valid config");
        for (i, row) in rows.iter().enumerate() {
            prop_assert!(!rb.is_armed(), "must not arm before the ring fills");
            prop_assert!(rb.threshold().is_err(), "no threshold during warm-up");
            prop_assert!(rb.distance(row).is_err(), "no distance during warm-up");
            let armed = rb.observe(row).expect("finite observation");
            prop_assert_eq!(armed, i + 1 == warmup, "arms exactly when the ring fills");
        }
        prop_assert!(rb.is_armed());

        // Batch statistics over the same rows, computed from scratch.
        let scale = rows
            .iter()
            .map(|r| r.iter().map(|x| x * x).sum::<f64>().sqrt())
            .sum::<f64>()
            / warmup as f64;
        let center: Vec<f64> = (0..dims)
            .map(|d| med(&rows.iter().map(|r| r[d] / scale).collect::<Vec<_>>()))
            .collect();
        let distances: Vec<f64> = rows
            .iter()
            .map(|r| {
                r.iter()
                    .zip(&center)
                    .map(|(&x, &c)| (x / scale - c).powi(2))
                    .sum::<f64>()
                    .sqrt()
            })
            .collect();
        let md = med(&distances);
        let mad = med(&distances.iter().map(|&d| (d - md).abs()).collect::<Vec<_>>());
        let expected = (md + cfg.mad_multiplier * mad).max(f64::MIN_POSITIVE);

        let m = rb.model().expect("armed baselines expose their model");
        prop_assert!((m.scale - scale).abs() <= 1e-12 * scale.abs());
        prop_assert_eq!(m.center.len(), dims);
        for (got, want) in m.center.iter().zip(&center) {
            prop_assert!((got - want).abs() <= 1e-12);
        }
        prop_assert!((m.median_distance - md).abs() <= 1e-12);
        prop_assert!((m.mad_distance - mad).abs() <= 1e-12);
        prop_assert!((m.threshold - expected).abs() <= 1e-12);
    }
}

// ---------------------------------------------------------------------
// Golden bit-identity
// ---------------------------------------------------------------------

/// `BaselineSource::Golden` is a pass-through: a pipeline fitted
/// through it must reproduce a directly-fitted pipeline's verdicts,
/// votes and alarms bit for bit on the same mixed clean/Trojan batch.
#[test]
fn golden_baseline_source_is_bit_identical_to_direct_fit() {
    let chip = ProtectedChip::with_all_trojans();
    let bench = TestBench::simulation(&chip).expect("bench");
    let golden = bench
        .collect(KEY, 16, None, Channel::OnChipSensor, 11)
        .expect("golden collection");
    let suspects = bench
        .collect(
            KEY,
            8,
            Some(TrojanKind::T2LeakageLeaker),
            Channel::OnChipSensor,
            11,
        )
        .expect("suspect collection");
    let mixed: Vec<Vec<f64>> = golden
        .traces()
        .iter()
        .chain(suspects.traces())
        .cloned()
        .collect();

    let build = || {
        DetectionPipeline::builder()
            .detector(Box::new(EuclideanDetector::from_config(
                FingerprintConfig::default(),
            )))
            .sanitizer(TraceSanitizer::default())
            .build()
    };
    let ctx = GoldenContext::new().with_traces(&golden);

    let mut direct = build();
    direct.fit(&ctx).expect("direct fit");
    let mut via_source = build();
    via_source
        .fit_baseline(&BaselineSource::golden(ctx))
        .expect("fit via baseline source");
    assert!(!via_source.is_self_calibrating());
    assert!(via_source.calibration_state().is_armed());
    assert_eq!(
        via_source.detector_readiness(),
        vec![DetectorReadiness::Ready]
    );

    let a = direct.ingest_batch(&mixed);
    let b = via_source.ingest_batch(&mixed);
    assert_eq!(a.outcomes.len(), b.outcomes.len());
    assert_eq!(a.alarms.len(), b.alarms.len());
    let mut alarms = 0usize;
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(x.verdict, y.verdict);
        assert_eq!(x.health, y.health);
        assert_eq!(x.alarm.is_some(), y.alarm.is_some());
        alarms += usize::from(x.alarm.is_some());
        assert_eq!(x.votes.len(), y.votes.len());
        for (vx, vy) in x.votes.iter().zip(&y.votes) {
            assert_eq!(vx.detector, vy.detector);
            assert_eq!(vx.suspected, vy.suspected);
            assert_eq!(
                vx.score.statistic.to_bits(),
                vy.score.statistic.to_bits(),
                "statistics must agree bit for bit"
            );
            assert_eq!(vx.score.threshold.to_bits(), vy.score.threshold.to_bits());
        }
    }
    assert!(alarms > 0, "the Trojan half of the batch must alarm");
}
