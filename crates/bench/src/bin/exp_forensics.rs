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

//! **Observability — decision forensics end to end**: proves that an
//! armed-Trojan alarm can be reconstructed after the fact from the
//! observability plane alone, without re-running the campaign.
//!
//! Two campaigns feed one decision log:
//!
//! 1. **A2 trigger flight recording** — a spectral monitor watches
//!    dormant continuous windows (the frozen pre-context), the A2
//!    Trojan's trigger wire starts flipping for exactly one window (the
//!    alarm), then the chip goes dormant again (the post-context). The
//!    alarm's flight window must contain the triggering
//!    [`DecisionRecord`] at the right offset, carrying the alarm's
//!    correlation id and a positive spectral margin.
//! 2. **Array localization campaign** — a 2×2 sensor array evaluates a
//!    register-bank Trojan; the campaign's array-level record carries
//!    one margin per tile.
//!
//! Artifacts:
//!
//! - `BENCH_forensics.json` — machine-checked proof summary
//!   (`check_bench_schema` gates every claim in CI);
//! - `TELEMETRY_decisions.jsonl` — the combined decision log, one JSON
//!   record per line (`check_bench_schema --jsonl` validates it).
//!
//! [`DecisionRecord`]: emtrust::telemetry::DecisionRecord

use emtrust::acquisition::TestBench;
use emtrust::array::SensorArray;
use emtrust::fingerprint::{FingerprintConfig, GoldenFingerprint};
use emtrust::sanitize::TraceSanitizer;
use emtrust::spectral::{SpectralConfig, SpectralDetector};
use emtrust::telemetry::{
    self, decisions_jsonl, DecisionRecord, FlightRecorderConfig, ForensicsConfig, InMemoryRecorder,
    LabelSet,
};
use emtrust::{DetectionPipeline, EuclideanDetector, SpectralWindowDetector};
use emtrust_bench::{write_artifact, ArtifactDoc, OrExit, Report, EXPERIMENT_KEY, TROJANS};
use emtrust_silicon::Channel;
use emtrust_trojan::{A2Trojan, ProtectedChip};
use std::sync::Arc;

const N_GOLDEN: usize = 12;
const WINDOW_BLOCKS: usize = 24;
const PRE_WINDOWS: usize = 3;
const POST_WINDOWS: usize = 2;
const ARRAY_GOLDEN: usize = 8;
const ARRAY_SUSPECT: usize = 4;

fn main() {
    let mut report = Report::from_env("exp_forensics");

    // ---- Campaign 1: A2 trigger caught by the flight recorder. ----
    let chip = ProtectedChip::golden();
    let mut bench = TestBench::simulation(&chip)
        .or_exit("simulation bench")
        .with_a2(A2Trojan::new(10e6)); // trigger flips at clk/2 = 5 MHz

    let golden = bench
        .collect(EXPERIMENT_KEY, N_GOLDEN, None, Channel::OnChipSensor, 0xF0)
        .or_exit("golden traces");
    let fp = GoldenFingerprint::fit(&golden, FingerprintConfig::default()).or_exit("golden fit");
    let golden_window = bench
        .collect_continuous(
            EXPERIMENT_KEY,
            WINDOW_BLOCKS,
            None,
            Channel::OnChipSensor,
            0xF1,
        )
        .or_exit("dormant window");
    let detector =
        SpectralDetector::fit(&golden_window, SpectralConfig::default()).or_exit("spectral fit");

    let registry = Arc::new(InMemoryRecorder::new());
    telemetry::install(registry.clone());
    let mut monitor = DetectionPipeline::builder()
        .detector(Box::new(EuclideanDetector::new(fp)))
        .detector(Box::new(SpectralWindowDetector::new(detector)))
        .sanitizer(TraceSanitizer::default())
        .labels(LabelSet::new().with("chip_id", "chip0"))
        .forensics(ForensicsConfig {
            flight: FlightRecorderConfig {
                pre: PRE_WINDOWS,
                post: POST_WINDOWS,
                max_windows: 8,
            },
            ..ForensicsConfig::default()
        })
        .build();

    // Pre-context: the chip is dormant; re-observing the fit window is
    // guaranteed clean, so the flight recorder's ring holds only quiet
    // records when the trigger fires.
    for _ in 0..PRE_WINDOWS {
        let outcome = monitor.ingest_window(&golden_window);
        assert!(outcome.alarm.is_none(), "dormant window must not alarm");
    }

    // The trigger wire starts flipping: same stimulus, same noise seed —
    // the only spectral difference is the Trojan's activity.
    bench.arm_a2(true).or_exit("A2 installed above");
    let triggering = bench
        .collect_continuous(
            EXPERIMENT_KEY,
            WINDOW_BLOCKS,
            None,
            Channel::OnChipSensor,
            0xF1,
        )
        .or_exit("triggering window");
    bench.arm_a2(false).or_exit("A2 installed above");
    let alarm = monitor
        .ingest_window(&triggering)
        .alarm
        .or_exit("the A2 trigger window must alarm");
    let correlation_id = alarm.correlation_id;

    // Post-context: dormant again; the window seals once it fills.
    for _ in 0..POST_WINDOWS {
        monitor.ingest_window(&golden_window);
    }
    // One defective trace for schema coverage of rejected records
    // (outside the flight window — it seals before this record).
    let mut bad = golden.traces()[0].clone();
    bad[7] = f64::NAN;
    monitor.ingest_trace(&bad);
    monitor.seal_flight_windows();

    // The proof: the alarm's flight window reconstructs the incident.
    let flight = monitor
        .flight_windows()
        .iter()
        .find(|w| w.correlation_id == correlation_id)
        .or_exit("a flight window must exist for the alarm");
    let trigger = flight
        .trigger_record()
        .or_exit("flight window must hold its trigger");
    assert_eq!(flight.trigger, PRE_WINDOWS, "pre-context must be frozen");
    assert_eq!(
        flight.records.len(),
        PRE_WINDOWS + 1 + POST_WINDOWS,
        "pre + trigger + post"
    );
    assert!(trigger.fused_alarm);
    assert_eq!(trigger.correlation_id, Some(correlation_id));
    assert_eq!(trigger.domain, "window");
    assert_eq!(trigger.labels.get("chip_id"), Some("chip0"));
    let spectral_margin = trigger
        .detectors
        .iter()
        .find(|d| d.suspected)
        .map(|d| d.margin)
        .or_exit("the trigger record must carry the firing detector's margin");
    assert!(
        spectral_margin > 0.0,
        "the firing detector's margin must be positive"
    );
    assert!(
        flight.records[..PRE_WINDOWS].iter().all(|r| !r.fused_alarm),
        "pre-context must be quiet"
    );
    let rejected = monitor
        .decisions()
        .iter()
        .filter(|r| r.verdict == "rejected")
        .count();
    assert_eq!(rejected, 1, "the NaN trace must log a rejected record");

    report.table(
        "A2 flight recording",
        &["metric", "value"],
        &[
            vec!["pre-context windows".into(), PRE_WINDOWS.to_string()],
            vec!["post-context windows".into(), POST_WINDOWS.to_string()],
            vec!["alarm correlation id".into(), correlation_id.to_string()],
            vec!["flight records".into(), flight.records.len().to_string()],
            vec!["trigger offset".into(), flight.trigger.to_string()],
            vec![
                "trigger spectral margin".into(),
                format!("{spectral_margin:+.3}"),
            ],
            vec![
                "decision records".into(),
                monitor.decisions().len().to_string(),
            ],
        ],
    );
    report.scalar("correlation_id", correlation_id as f64);
    report.scalar("trigger_margin", spectral_margin);

    // ---- Campaign 2: array localization with per-tile forensics. ----
    let trojan_chip = ProtectedChip::with_all_trojans();
    let mut array = SensorArray::builder(&trojan_chip)
        .with_grid(2, 2)
        .or_exit("grid")
        .with_turns(8)
        .or_exit("turns")
        .with_fingerprint(FingerprintConfig {
            pca_components: None,
            ..FingerprintConfig::default()
        })
        .with_chip_id("chip0")
        .with_forensics(ForensicsConfig::default())
        .build()
        .or_exit("array build");
    let array_golden = array
        .collect(EXPERIMENT_KEY, ARRAY_GOLDEN, None, 42)
        .or_exit("array golden");
    array.fit_golden(&array_golden).or_exit("array fit");
    let suspects = array
        .collect(EXPERIMENT_KEY, ARRAY_SUSPECT, Some(TROJANS[0]), 42)
        .or_exit("array suspects");
    let verdict = array.attribute(&suspects, None).or_exit("array attribute");
    telemetry::uninstall();

    let campaign = array
        .decisions()
        .last()
        .or_exit("the campaign must log an array record");
    assert_eq!(campaign.domain, "array");
    assert_eq!(campaign.fused_alarm, verdict.alarmed());
    assert_eq!(
        campaign.tiles.len(),
        array.len(),
        "one margin per tile required"
    );
    assert!(verdict.alarmed(), "the armed Trojan campaign must alarm");

    let tile_rows: Vec<Vec<String>> = campaign
        .tiles
        .iter()
        .map(|t| {
            vec![
                format!("r{}c{}", t.row, t.col),
                format!("{:+.4}", t.margin),
                format!("{:.2}", t.alarm_rate),
            ]
        })
        .collect();
    report.table(
        "Array campaign per-tile margins",
        &["tile", "margin", "alarm rate"],
        &tile_rows,
    );

    // ---- Artifacts. ----
    let mut all_records: Vec<DecisionRecord> = monitor.decisions().to_vec();
    all_records.extend(array.decisions().iter().cloned());
    write_artifact("TELEMETRY_decisions.jsonl", &decisions_jsonl(&all_records));

    let tiles_json: Vec<String> = campaign
        .tiles
        .iter()
        .map(|t| {
            format!(
                "    {{\"row\": {}, \"col\": {}, \"margin\": {}, \"alarm_rate\": {}}}",
                t.row,
                t.col,
                emtrust::telemetry::sink::json_number(t.margin),
                emtrust::telemetry::sink::json_number(t.alarm_rate)
            )
        })
        .collect();
    let doc = ArtifactDoc::new("forensics")
        .field_u64("n_golden", N_GOLDEN as u64)
        .field_u64("window_blocks", WINDOW_BLOCKS as u64)
        .field_u64("pre_windows", PRE_WINDOWS as u64)
        .field_u64("post_windows", POST_WINDOWS as u64)
        .field_u64("correlation_id", correlation_id)
        .field_u64("flight_records", flight.records.len() as u64)
        .field_u64("trigger_offset", flight.trigger as u64)
        .field_f64("trigger_margin", spectral_margin)
        .field_bool("trigger_alarmed", trigger.fused_alarm)
        .field_u64("decision_count", all_records.len() as u64)
        .field_u64("rejected_count", rejected as u64)
        .field_u64("array_rows", array.rows() as u64)
        .field_u64("array_cols", array.cols() as u64)
        .field_bool("array_alarmed", verdict.alarmed())
        .field_array("tiles", &tiles_json);
    write_artifact("BENCH_forensics.json", &doc.to_json());
    report.note("\nwrote BENCH_forensics.json, TELEMETRY_decisions.jsonl");
    report.finish();
}
