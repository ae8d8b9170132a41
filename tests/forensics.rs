//! Decision forensics across the real pipeline: every scored trace must
//! leave a replayable [`DecisionRecord`], alarms must be reconstructible
//! from their flight windows, the JSONL export must round-trip the log,
//! and hostile label cardinality must never grow the registry past its
//! cap (the overflow bucket absorbs the excess without panicking).
//!
//! [`DecisionRecord`]: emtrust::telemetry::DecisionRecord

use emtrust::acquisition::{Stimulus, TestBench};
use emtrust::telemetry::{
    self, decisions_jsonl, FlightRecorderConfig, ForensicsConfig, InMemoryRecorder, LabelSet,
    Recorder,
};
use emtrust::{DetectionPipeline, EuclideanDetector, FingerprintConfig, GoldenFingerprint};
use emtrust_silicon::Channel;
use emtrust_trojan::{ProtectedChip, TrojanKind};
use proptest::prelude::*;
use std::sync::{Arc, Mutex, MutexGuard};

const KEY: [u8; 16] = *b"forensics test!!";
const STIMULUS: Stimulus = Stimulus::Fixed(*b"forensics block!");

/// The global recorder is process state: tests that install one are
/// serialized through this lock (poison-tolerant so one failure doesn't
/// cascade).
static RECORDER_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    RECORDER_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn decision_log_reconstructs_a_trojan_replay() {
    let _guard = lock();
    let registry = Arc::new(InMemoryRecorder::new());
    telemetry::install(registry.clone());

    let chip = ProtectedChip::with_trojans(&[TrojanKind::T4PowerDegrader]);
    let bench = TestBench::simulation(&chip).expect("bench");
    let golden = bench
        .collect_with(KEY, STIMULUS, 12, None, Channel::OnChipSensor, 51)
        .expect("golden");
    let fp = GoldenFingerprint::fit(&golden, FingerprintConfig::default()).expect("fit");
    let mut monitor = DetectionPipeline::builder()
        .detector(Box::new(EuclideanDetector::new(fp)))
        .labels(LabelSet::new().with("chip_id", "chip-e2e"))
        .forensics(ForensicsConfig {
            flight: FlightRecorderConfig {
                pre: 2,
                post: 1,
                max_windows: 16,
            },
            ..ForensicsConfig::default()
        })
        .build();

    let clean = bench
        .collect_with(KEY, STIMULUS, 3, None, Channel::OnChipSensor, 52)
        .expect("clean");
    for t in clean.traces() {
        assert!(monitor.ingest_trace(t).alarm.is_none());
    }
    let infected = bench
        .collect_with(
            KEY,
            STIMULUS,
            3,
            Some(TrojanKind::T4PowerDegrader),
            Channel::OnChipSensor,
            53,
        )
        .expect("infected");
    let raised = monitor.ingest_batch(infected.traces()).alarms;
    monitor.seal_flight_windows();
    telemetry::uninstall();
    assert!(!raised.is_empty(), "the armed Trojan must alarm");

    // One record per scored trace, each labeled with the chip id.
    let decisions = monitor.decisions();
    assert_eq!(
        decisions.len(),
        clean.traces().len() + infected.traces().len()
    );
    assert!(decisions
        .iter()
        .all(|r| r.labels.get("chip_id") == Some("chip-e2e")));

    // Fused records carry the exact correlation ids the alarms were
    // assigned, in order.
    let fused_ids: Vec<u64> = decisions
        .iter()
        .filter(|r| r.fused_alarm)
        .filter_map(|r| r.correlation_id)
        .collect();
    let alarm_ids: Vec<u64> = monitor.alarms().iter().map(|a| a.correlation_id).collect();
    assert_eq!(fused_ids, alarm_ids);

    // Every alarm froze a flight window whose trigger record is the
    // alarm's own decision.
    for id in &alarm_ids {
        let window = monitor
            .flight_windows()
            .iter()
            .find(|w| w.correlation_id == *id)
            .unwrap_or_else(|| panic!("no flight window for correlation id {id}"));
        let trigger = window.trigger_record().expect("sealed window");
        assert!(trigger.fused_alarm);
        assert_eq!(trigger.correlation_id, Some(*id));
        assert!(window.records[..window.trigger]
            .iter()
            .all(|r| !r.fused_alarm));
    }

    // The global recorder mirrored the decision stream, and the JSONL
    // export round-trips every record on its own line.
    assert_eq!(registry.decisions().len(), decisions.len());
    let jsonl = decisions_jsonl(decisions);
    assert_eq!(jsonl.lines().count(), decisions.len());
    for (line, rec) in jsonl.lines().zip(decisions) {
        assert_eq!(line, rec.to_json());
        assert!(line.contains("\"domain\":\"trace\""));
    }

    // Labeled series reached the registry under the chip's label.
    let snap = registry.snapshot();
    let labeled: Vec<&str> = snap
        .labeled_counters
        .iter()
        .filter(|(_, family)| family.keys().any(|l| l.get("chip_id") == Some("chip-e2e")))
        .map(|(name, _)| name.as_str())
        .collect();
    assert!(
        !labeled.is_empty(),
        "expected chip-labeled counter families, got {:?}",
        snap.labeled_counters.keys().collect::<Vec<_>>()
    );
}

#[test]
fn ten_thousand_distinct_labels_stay_bounded() {
    // Hostile cardinality: 10k+ distinct label values against a small
    // cap must neither grow the family past cap+overflow nor lose
    // updates. No global install needed — the registry is exercised
    // directly, so this runs in parallel with the e2e test.
    const CAP: usize = 64;
    const DISTINCT: u64 = 10_500;
    let registry = InMemoryRecorder::new().with_series_cap(CAP);
    for i in 0..DISTINCT {
        let labels = LabelSet::new().with("chip_id", format!("chip-{i}"));
        registry.counter_with("fleet.traces", &labels, 1);
        registry.observe_with("fleet.distance", &labels, i as f64);
    }
    let snap = registry.snapshot();
    let family = &snap.labeled_counters["fleet.traces"];
    assert_eq!(family.len(), CAP + 1, "cap plus the overflow bucket");
    let overflow = family[&LabelSet::overflow()];
    assert_eq!(overflow, DISTINCT - CAP as u64, "no update may be lost");
    assert_eq!(snap.labeled_histograms["fleet.distance"].len(), CAP + 1);
    assert_eq!(snap.series_overflowed, 2 * (DISTINCT - CAP as u64));
}

/// Maps a numeric seed onto a deliberately hostile label value: quote,
/// backslash, newline, and multibyte prefixes exercise the sink escaping
/// paths while the numeric suffix controls distinctness.
fn hostile_value(seed: u32) -> String {
    const PREFIXES: [&str; 6] = ["", "\"", "\\", "\n", "tile-µ", "r\"c\\n"];
    format!("{}{}", PREFIXES[(seed % 6) as usize], seed / 6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary label values (including empty strings, quotes,
    /// newlines, backslashes, UTF-8) against a tiny cap: the family
    /// never exceeds cap+1 series, no update is lost, and neither the
    /// registry nor the Prometheus sink panics.
    #[test]
    fn hostile_label_values_never_breach_the_cap(
        seeds in proptest::collection::vec(0u32..5000, 1..200),
        cap in 1usize..8,
    ) {
        let values: Vec<String> = seeds.iter().map(|&s| hostile_value(s)).collect();
        let registry = InMemoryRecorder::new().with_series_cap(cap);
        for v in &values {
            let labels = LabelSet::new().with("tile", v.clone());
            registry.counter_with("prop.updates", &labels, 1);
        }
        let snap = registry.snapshot();
        let family = &snap.labeled_counters["prop.updates"];
        prop_assert!(family.len() <= cap + 1, "family {} > cap {cap}+1", family.len());
        let total: u64 = family.values().sum();
        prop_assert_eq!(total, values.len() as u64, "updates must never be lost");
        let distinct: std::collections::BTreeSet<&String> = values.iter().collect();
        let expected_overflow = distinct.len().saturating_sub(cap) as u64;
        // Every update whose label set arrived after the cap filled is
        // routed (and counted) — re-hits of routed sets count again.
        prop_assert!(snap.series_overflowed >= expected_overflow);
        let sinks = emtrust::telemetry::sink::prometheus_text(&snap);
        prop_assert!(sinks.contains("emtrust_prop_updates"));
    }
}
