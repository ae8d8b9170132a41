#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented
    )
)]

//! **Robustness — sensor fault-injection sweep**: drives the golden
//! (Trojan-free) chip through every [`FaultKind`] at three intensities
//! with the sanitized monitor in front of the fingerprint, and writes
//! `BENCH_faults.json` with the per-scenario accounting. The claims the
//! artifact carries, all asserted here before the file is written:
//!
//! - **zero panics** — every scenario runs under `catch_unwind`;
//! - **100 % accounting** — every collected trace ends up exactly one
//!   of clean / degraded / rejected;
//! - **no silent detector drift** — with no faults installed, the
//!   sanitized monitor raises bit-identical alarms to the plain one and
//!   [`TestBench::collect_robust`] returns the exact `collect` set;
//! - **bounded false-alarm inflation** — at the default intensity
//!   (0.5) every fault family keeps the golden-trace false-alarm rate
//!   within 2× of the clean baseline (the sanitizer either rejects the
//!   corruption or the surviving distortion stays under the Eq. 1
//!   threshold);
//! - **graceful recovery** — a transient glitch storm is cleared by
//!   retry + external-probe fallback with zero finally-rejected traces.

use emtrust::acquisition::{RetryPolicy, Stimulus, TestBench};
use emtrust::faults::{FaultKind, FaultPlan, FaultSpec};
use emtrust::fingerprint::{FingerprintConfig, GoldenFingerprint};
use emtrust::sanitize::{SanitizerConfig, TraceSanitizer};
use emtrust::telemetry::sink::{json_escape, json_number};
use emtrust::{DetectionPipeline, EuclideanDetector};
use emtrust_bench::{ArtifactDoc, OrExit, Report, EXPERIMENT_KEY};
use emtrust_silicon::Channel;
use emtrust_trojan::ProtectedChip;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

const N_GOLDEN: usize = 16;
const N_SUSPECT: usize = 8;
const INTENSITIES: [f64; 3] = [0.25, 0.5, 1.0];
const DEFAULT_INTENSITY: f64 = 0.5;
const GOLDEN_SEED: u64 = 0xFA01;
const SUSPECT_SEED: u64 = 0xFA02;
const FAULT_SEED: u64 = 0xFA57;

struct Scenario {
    fault: &'static str,
    intensity: f64,
    clean: usize,
    degraded: usize,
    rejected: usize,
    alarms: usize,
    health: &'static str,
    accounted: bool,
    panicked: bool,
}

impl Scenario {
    fn scored(&self) -> usize {
        self.clean + self.degraded
    }

    fn false_alarm_rate(&self) -> f64 {
        if self.scored() == 0 {
            0.0
        } else {
            self.alarms as f64 / self.scored() as f64
        }
    }
}

fn sanitizer() -> TraceSanitizer {
    TraceSanitizer::new(SanitizerConfig {
        // Golden-trace energy varies only with measurement noise; a
        // channel whose energy halves or doubles is reporting its own
        // pathology, not the chip's.
        energy_bounds: Some((0.45, 2.0)),
        ..SanitizerConfig::default()
    })
}

/// The paper's time-domain monitor, optionally behind the sanitizer.
fn fitted_monitor(fp: &GoldenFingerprint, sanitized: bool) -> DetectionPipeline {
    let builder =
        DetectionPipeline::builder().detector(Box::new(EuclideanDetector::new(fp.clone())));
    if sanitized {
        builder.sanitizer(sanitizer()).build()
    } else {
        builder.build()
    }
}

fn run_scenario(
    fp: &GoldenFingerprint,
    traces: &[Vec<f64>],
    fault: &'static str,
    intensity: f64,
) -> Scenario {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut monitor = fitted_monitor(fp, true);
        let batch = monitor.ingest_batch(traces);
        let accounted = batch.clean() + batch.degraded() + batch.rejected() == traces.len()
            && monitor.traces_seen() + monitor.traces_rejected() == traces.len() as u64;
        (
            batch.clean(),
            batch.degraded(),
            batch.rejected(),
            batch.alarms.len(),
            monitor.health().label(),
            accounted,
        )
    }));
    match outcome {
        Ok((clean, degraded, rejected, alarms, health, accounted)) => Scenario {
            fault,
            intensity,
            clean,
            degraded,
            rejected,
            alarms,
            health,
            accounted,
            panicked: false,
        },
        Err(_) => Scenario {
            fault,
            intensity,
            clean: 0,
            degraded: 0,
            rejected: 0,
            alarms: 0,
            health: "unknown",
            accounted: false,
            panicked: true,
        },
    }
}

fn main() {
    let mut report = Report::from_env("exp_faults");
    let chip = ProtectedChip::golden();
    let mut bench = TestBench::simulation(&chip).or_exit("simulation bench");
    let config = FingerprintConfig {
        // Simulation traces carry minimal interference (the silicon
        // benches exercise PCA denoising), and the margin leaves Eq. 1
        // head-room so sanitizer-degraded but scoreable traces do not
        // trip on fitting noise alone.
        pca_components: None,
        threshold_margin: 1.25,
        ..FingerprintConfig::default()
    };
    // Golden fit and every suspect campaign replay one shared stimulus
    // (the paper's fixed-operation assumption): only the measurement
    // noise — and the injected faults — differ between campaigns.
    let block: [u8; 16] = StdRng::seed_from_u64(GOLDEN_SEED ^ 0x97).gen();
    let stimulus = Stimulus::Fixed(block);
    let golden = bench
        .collect_with(
            EXPERIMENT_KEY,
            stimulus,
            N_GOLDEN,
            None,
            Channel::OnChipSensor,
            GOLDEN_SEED,
        )
        .or_exit("golden collection");
    let fp = GoldenFingerprint::fit(&golden, config).or_exit("golden fit");

    // Clean baseline: the same suspect campaign the sweep corrupts, run
    // uncorrupted through the plain monitor.
    let clean_suspects = bench
        .collect_with(
            EXPERIMENT_KEY,
            stimulus,
            N_SUSPECT,
            None,
            Channel::OnChipSensor,
            SUSPECT_SEED,
        )
        .or_exit("clean suspects");
    let mut plain = fitted_monitor(&fp, false);
    plain
        .try_ingest_batch(clean_suspects.traces())
        .or_exit("clean baseline ingest");
    let baseline_alarms = plain.alarms().len();
    let baseline_far = baseline_alarms as f64 / N_SUSPECT as f64;

    // Faults-disabled equivalence: the sanitizer must be a pure screen —
    // same clean traces, bit-identical alarms.
    let mut screened = fitted_monitor(&fp, true);
    let clean_batch = screened.ingest_batch(clean_suspects.traces());
    let clean_bit_identical = screened.alarms() == plain.alarms() && clean_batch.rejected() == 0;
    assert!(
        clean_bit_identical,
        "sanitized monitor must not change clean-run alarms"
    );
    let plain_collect = bench
        .collect(
            EXPERIMENT_KEY,
            N_SUSPECT,
            None,
            Channel::OnChipSensor,
            SUSPECT_SEED,
        )
        .or_exit("plain collection");
    let robust = bench
        .collect_robust(
            EXPERIMENT_KEY,
            N_SUSPECT,
            None,
            Channel::OnChipSensor,
            SUSPECT_SEED,
            &sanitizer(),
            RetryPolicy::default(),
        )
        .or_exit("robust clean collection");
    let robust_matches_collect = robust.set == plain_collect && robust.retries == 0;
    assert!(
        robust_matches_collect,
        "collect_robust without faults must reproduce collect exactly"
    );

    // The sweep: every fault family × every intensity, on-chip channel
    // only, one fresh monitor per scenario.
    let mut scenarios = Vec::new();
    for kind in FaultKind::ALL {
        for intensity in INTENSITIES {
            let plan = FaultPlan::new(FAULT_SEED)
                .with(FaultSpec::new(kind, intensity).on_channel(Channel::OnChipSensor));
            bench.set_faults(Some(plan));
            let suspects = bench
                .collect_with(
                    EXPERIMENT_KEY,
                    stimulus,
                    N_SUSPECT,
                    None,
                    Channel::OnChipSensor,
                    SUSPECT_SEED,
                )
                .or_exit("faulted collection");
            scenarios.push(run_scenario(
                &fp,
                suspects.traces(),
                kind.label(),
                intensity,
            ));
        }
    }
    bench.set_faults(None);

    for s in &scenarios {
        assert!(!s.panicked, "{} @ {} panicked", s.fault, s.intensity);
        assert!(s.accounted, "{} @ {} lost traces", s.fault, s.intensity);
        if s.intensity == DEFAULT_INTENSITY {
            assert!(
                s.false_alarm_rate() <= 2.0 * baseline_far + 1e-12,
                "{} @ {}: false-alarm rate {:.3} exceeds 2x baseline {:.3}",
                s.fault,
                s.intensity,
                s.false_alarm_rate(),
                baseline_far
            );
        }
    }

    // Recovery: a transient glitch storm (50 % strike probability) on
    // the on-chip channel; retries re-roll the strikes and anything
    // still rejected falls back to the external probe.
    let storm = FaultPlan::new(FAULT_SEED ^ 0x5709).with(
        FaultSpec::new(FaultKind::GlitchBurst, 0.8)
            .with_probability(0.5)
            .on_channel(Channel::OnChipSensor),
    );
    bench.set_faults(Some(storm));
    let recovery = bench
        .collect_robust(
            EXPERIMENT_KEY,
            N_SUSPECT,
            None,
            Channel::OnChipSensor,
            SUSPECT_SEED,
            &sanitizer(),
            RetryPolicy {
                max_attempts: 4,
                fallback: Some(Channel::ExternalProbe),
                max_reject_fraction: 0.5,
                ..RetryPolicy::default()
            },
        )
        .or_exit("recovery collection");
    bench.set_faults(None);
    assert!(
        recovery.retries > 0,
        "the storm must actually strike some first acquisitions"
    );
    assert_eq!(
        recovery.rejected(),
        0,
        "retry + fallback must clear a transient glitch storm"
    );

    let rows: Vec<Vec<String>> = scenarios
        .iter()
        .map(|s| {
            vec![
                s.fault.to_string(),
                format!("{:.2}", s.intensity),
                s.clean.to_string(),
                s.degraded.to_string(),
                s.rejected.to_string(),
                s.alarms.to_string(),
                format!("{:.3}", s.false_alarm_rate()),
                s.health.to_string(),
            ]
        })
        .collect();
    report.table(
        "Fault sweep (golden chip, on-chip sensor)",
        &[
            "fault",
            "intensity",
            "clean",
            "degraded",
            "rejected",
            "alarms",
            "FAR",
            "health",
        ],
        &rows,
    );
    report.table(
        "Clean baseline and recovery",
        &["metric", "value"],
        &[
            vec!["baseline alarms".into(), baseline_alarms.to_string()],
            vec!["baseline FAR".into(), format!("{baseline_far:.3}")],
            vec![
                "clean bit-identical".into(),
                clean_bit_identical.to_string(),
            ],
            vec![
                "robust == collect".into(),
                robust_matches_collect.to_string(),
            ],
            vec!["storm retries".into(), recovery.retries.to_string()],
            vec!["storm fallbacks".into(), recovery.fallbacks.to_string()],
            vec![
                "storm backoff (us)".into(),
                recovery.backoff_total_us.to_string(),
            ],
            vec!["storm rejected".into(), recovery.rejected().to_string()],
        ],
    );
    report.scalar("baseline_false_alarm_rate", baseline_far);
    report.scalar("scenarios", scenarios.len() as f64);
    report.scalar("storm_retries", recovery.retries as f64);

    let scenario_json: Vec<String> = scenarios
        .iter()
        .map(|s| {
            format!(
                "    {{\"fault\": \"{}\", \"intensity\": {}, \"traces\": {N_SUSPECT}, \
                 \"clean\": {}, \"degraded\": {}, \"rejected\": {}, \"scored\": {}, \
                 \"alarms\": {}, \"false_alarm_rate\": {}, \"health\": \"{}\", \
                 \"accounted\": {}, \"panicked\": {}}}",
                json_escape(s.fault),
                json_number(s.intensity),
                s.clean,
                s.degraded,
                s.rejected,
                s.scored(),
                s.alarms,
                json_number(s.false_alarm_rate()),
                json_escape(s.health),
                s.accounted,
                s.panicked
            )
        })
        .collect();
    ArtifactDoc::new("fault_injection_sweep")
        .field_u64("n_golden", N_GOLDEN as u64)
        .field_u64("n_suspect", N_SUSPECT as u64)
        .field_f64("default_intensity", DEFAULT_INTENSITY)
        .field_raw(
            "baseline",
            format!(
                "{{\"scored\": {N_SUSPECT}, \"alarms\": {baseline_alarms}, \
                 \"false_alarm_rate\": {}}}",
                json_number(baseline_far)
            ),
        )
        .field_bool("clean_bit_identical", clean_bit_identical)
        .field_bool("robust_matches_collect", robust_matches_collect)
        .field_array("scenarios", &scenario_json)
        .field_raw(
            "recovery",
            format!(
                "{{\"retries\": {}, \"fallbacks\": {}, \"backoff_total_us\": {}, \
                 \"rejected\": {}}}",
                recovery.retries,
                recovery.fallbacks,
                recovery.backoff_total_us,
                recovery.rejected()
            ),
        )
        .write("BENCH_faults.json", &mut report);
    report.finish();
}
