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

//! Golden-model-free Trojan detection: the same four Trojans, zero
//! golden traces.
//!
//! The paper's pipeline fits on golden material collected from a
//! known-clean chip. This experiment removes that requirement entirely:
//! a self-calibrating pipeline ([`BaselineSource::SelfCalibrating`])
//! learns a rolling robust baseline — per-dimension median centre,
//! `median + k × MAD` threshold — from its first live traces and then
//! screens each Trojan with no reference model at all. A golden-fitted
//! pipeline runs beside it on the same material, so the artifact can
//! report the *false-alarm gap*: what reference-freedom costs on clean
//! traffic.
//!
//! Gates (asserted here and by `check_bench_schema` on
//! `BENCH_reference_free.json`): at least 3 of 4 Trojans detected, zero
//! alarms during the warm-up, and a provenance attestation that zero
//! golden traces were consulted.

use emtrust::acquisition::{TestBench, TraceSet};
use emtrust::baseline::{BaselineSource, SelfCalibratingConfig};
use emtrust::detector::{EuclideanDetector, GoldenContext};
use emtrust::fingerprint::FingerprintConfig;
use emtrust::pipeline::DetectionPipeline;
use emtrust::telemetry::sink::json_number;
use emtrust::TrustError;
use emtrust_bench::{ArtifactDoc, OrExit, Report, EXPERIMENT_KEY};
use emtrust_silicon::Channel;
use emtrust_trojan::{ProtectedChip, TrojanKind};

const N_WARMUP: usize = 16;
const N_EVAL: usize = 16;
const N_SUSPECT: usize = 16;
const MAD_MULTIPLIER: f64 = 8.0;

const TROJANS: [TrojanKind; 4] = [
    TrojanKind::T1AmLeaker,
    TrojanKind::T2LeakageLeaker,
    TrojanKind::T3CdmaLeaker,
    TrojanKind::T4PowerDegrader,
];

struct Screening {
    kind: TrojanKind,
    selfcal_alarm_rate: f64,
    golden_alarm_rate: f64,
    detected: bool,
}

/// A fresh self-calibrating pipeline warmed on `warmup` clean traces.
/// Returns the pipeline and the alarms raised *during* the warm-up
/// (the never-arms-early contract says this must be zero).
fn warmed_selfcal_pipeline(warmup: &[Vec<f64>]) -> Result<(DetectionPipeline, usize), TrustError> {
    let mut pipeline = DetectionPipeline::builder()
        .detector(Box::new(EuclideanDetector::from_config(
            FingerprintConfig::default(),
        )))
        .build();
    pipeline.fit_baseline(&BaselineSource::self_calibrating(SelfCalibratingConfig {
        warmup: N_WARMUP,
        mad_multiplier: MAD_MULTIPLIER,
        ..SelfCalibratingConfig::default()
    }))?;
    let batch = pipeline.ingest_batch(warmup).all_scored()?;
    let warmup_alarms = batch.outcomes.iter().filter(|o| o.alarm.is_some()).count();
    Ok((pipeline, warmup_alarms))
}

/// Fraction of the batch that raised a fused alarm.
fn alarm_rate(pipeline: &mut DetectionPipeline, traces: &[Vec<f64>]) -> Result<f64, TrustError> {
    let batch = pipeline.ingest_batch(traces).all_scored()?;
    let alarms = batch.outcomes.iter().filter(|o| o.alarm.is_some()).count();
    Ok(alarms as f64 / traces.len().max(1) as f64)
}

fn main() {
    let mut report = Report::from_env("exp_reference_free");
    let chip = ProtectedChip::with_all_trojans();
    let bench = TestBench::simulation(&chip).or_exit("bench");

    // One clean campaign covers both the self-calibrating warm-up and
    // the clean evaluation; the golden comparison pipeline fits on the
    // same first N_WARMUP traces, so the two pipelines see identical
    // material and differ only in how they turn it into a baseline.
    let clean = bench
        .collect(
            EXPERIMENT_KEY,
            N_WARMUP + N_EVAL,
            None,
            Channel::OnChipSensor,
            42,
        )
        .or_exit("clean collection");
    let warmup = &clean.traces()[..N_WARMUP];
    let eval = &clean.traces()[N_WARMUP..];

    let (mut selfcal, warmup_alarms) = warmed_selfcal_pipeline(warmup).or_exit("self-cal warm-up");
    assert!(
        selfcal.calibration_state().is_armed(),
        "the rolling baseline must arm after {N_WARMUP} clean traces"
    );
    assert!(
        warmup_alarms == 0,
        "nothing may alarm during the warm-up (got {warmup_alarms})"
    );

    let golden_set = TraceSet::new(warmup.to_vec(), clean.sample_rate_hz()).or_exit("golden set");
    let fit_golden_pipeline = || -> Result<DetectionPipeline, TrustError> {
        let mut pipeline = DetectionPipeline::builder()
            .detector(Box::new(EuclideanDetector::from_config(
                FingerprintConfig {
                    pca_components: None,
                    ..FingerprintConfig::default()
                },
            )))
            .build();
        pipeline.fit(&GoldenContext::new().with_traces(&golden_set))?;
        Ok(pipeline)
    };
    let mut golden = fit_golden_pipeline().or_exit("golden fit");

    let selfcal_far = alarm_rate(&mut selfcal, eval).or_exit("self-cal clean eval");
    let golden_far = alarm_rate(&mut golden, eval).or_exit("golden clean eval");
    let false_alarm_gap = selfcal_far - golden_far;

    // Suspect campaigns reuse the clean seed (fixed plaintext, same
    // noise draws): the excess each pipeline sees is purely the armed
    // Trojan's switching current. Every Trojan gets fresh pipelines so
    // one screening's drift tracking cannot leak into the next.
    let mut screenings = Vec::new();
    for kind in TROJANS {
        let suspects = bench
            .collect(
                EXPERIMENT_KEY,
                N_SUSPECT,
                Some(kind),
                Channel::OnChipSensor,
                42,
            )
            .or_exit("suspect collection");
        let (mut selfcal, _) = warmed_selfcal_pipeline(warmup).or_exit("self-cal warm-up");
        let mut golden = fit_golden_pipeline().or_exit("golden fit");
        let selfcal_alarm_rate =
            alarm_rate(&mut selfcal, suspects.traces()).or_exit("self-cal screening");
        let golden_alarm_rate =
            alarm_rate(&mut golden, suspects.traces()).or_exit("golden screening");
        screenings.push(Screening {
            kind,
            selfcal_alarm_rate,
            golden_alarm_rate,
            detected: selfcal_alarm_rate >= 0.5,
        });
    }

    let detected = screenings.iter().filter(|s| s.detected).count();
    assert!(
        detected >= 3,
        "at least 3 of 4 Trojans must be detected with zero golden traces (got {detected})"
    );

    report.table(
        "Reference-free screening (zero golden traces)",
        &[
            "trojan",
            "self-cal alarm rate",
            "golden alarm rate",
            "detected",
        ],
        &screenings
            .iter()
            .map(|s| {
                vec![
                    format!("{:?}", s.kind),
                    format!("{:.2}", s.selfcal_alarm_rate),
                    format!("{:.2}", s.golden_alarm_rate),
                    if s.detected { "yes" } else { "NO" }.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    report.scalar("detected", detected as f64);
    report.scalar("false_alarm_rate_selfcal", selfcal_far);
    report.scalar("false_alarm_rate_golden", golden_far);
    report.scalar("false_alarm_gap", false_alarm_gap);

    let trojan_json: Vec<String> = screenings
        .iter()
        .map(|s| {
            format!(
                "    {{\"trojan\": \"{:?}\", \"alarm_rate_selfcal\": {}, \
                 \"alarm_rate_golden\": {}, \"detected\": {}}}",
                s.kind,
                json_number(s.selfcal_alarm_rate),
                json_number(s.golden_alarm_rate),
                s.detected,
            )
        })
        .collect();

    ArtifactDoc::new("reference_free")
        .field_u64("n_warmup", N_WARMUP as u64)
        .field_u64("n_eval", N_EVAL as u64)
        .field_u64("n_suspect_per_trojan", N_SUSPECT as u64)
        .field_u64("golden_traces_used", 0)
        .field_bool("reference_free", true)
        .field_f64("mad_multiplier", MAD_MULTIPLIER)
        .field_u64("warmup_alarms", warmup_alarms as u64)
        .field_u64("detected", detected as u64)
        .field_f64("false_alarm_rate_selfcal", selfcal_far)
        .field_f64("false_alarm_rate_golden", golden_far)
        .field_f64("false_alarm_gap", false_alarm_gap)
        .field_array("trojans", &trojan_json)
        .write("BENCH_reference_free.json", &mut report);
    report.finish();
}
