//! Telemetry across the real pipeline: a Trojan-active replay must raise
//! alarms whose decision records and flight windows hold the offending
//! observation, the registry must capture every stage, and installing a
//! recorder must not perturb the detection results (bit-identical across
//! worker counts).

use emtrust::acquisition::{Stimulus, TestBench};
use emtrust::telemetry::{self, ForensicsConfig, InMemoryRecorder, ManualClock};
use emtrust::{
    DetectionPipeline, EuclideanDetector, FingerprintConfig, GoldenFingerprint, ParallelConfig,
};
use emtrust_silicon::Channel;
use emtrust_trojan::{ProtectedChip, TrojanKind};
use std::sync::{Arc, Mutex, MutexGuard};

const KEY: [u8; 16] = *b"telemetry test!!";
const STIMULUS: Stimulus = Stimulus::Fixed(*b"telemetry block!");

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
fn trojan_replay_raises_alarms_with_forensic_context() {
    let _guard = lock();
    let registry = Arc::new(InMemoryRecorder::new());
    telemetry::install(registry.clone());

    let chip = ProtectedChip::with_trojans(&[TrojanKind::T4PowerDegrader]);
    let bench = TestBench::simulation(&chip).expect("bench");
    let golden = bench
        .collect_with(KEY, STIMULUS, 12, None, Channel::OnChipSensor, 31)
        .expect("golden");
    let fp = GoldenFingerprint::fit(&golden, FingerprintConfig::default()).expect("fit");
    let mut monitor = DetectionPipeline::builder()
        .detector(Box::new(EuclideanDetector::new(fp)))
        .forensics(ForensicsConfig::default())
        .build();

    let clean = bench
        .collect_with(KEY, STIMULUS, 3, None, Channel::OnChipSensor, 32)
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
            33,
        )
        .expect("infected");
    let raised = monitor.ingest_batch(infected.traces()).alarms;
    monitor.seal_flight_windows();
    telemetry::uninstall();

    assert!(!raised.is_empty(), "the armed Trojan must alarm");
    let fused: Vec<_> = monitor
        .decisions()
        .iter()
        .filter(|r| r.fused_alarm)
        .collect();
    assert_eq!(fused.len(), monitor.alarms().len());

    // Every alarm's decision record and flight window hold its own
    // offending distance.
    for (alarm, record) in monitor.alarms().iter().zip(fused) {
        assert_eq!(record.correlation_id, Some(alarm.correlation_id));
        assert_eq!(record.index, Some(alarm.index));
        let distance = alarm.verdicts[0].score.statistic;
        assert_eq!(record.detectors[0].statistic.to_bits(), distance.to_bits());
        assert!(record.to_json().contains("\"domain\":\"trace\""));
        let window = monitor
            .flight_windows()
            .iter()
            .find(|w| w.correlation_id == alarm.correlation_id)
            .expect("every alarm freezes a flight window");
        let trigger = window.trigger_record().expect("sealed window");
        assert_eq!(trigger.detectors[0].statistic.to_bits(), distance.to_bits());
    }

    // Correlation ids: unique and strictly monotonic in alarm order.
    let ids: Vec<u64> = monitor.alarms().iter().map(|a| a.correlation_id).collect();
    assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids {ids:?}");

    // The registry saw every stage of the pipeline.
    let snap = registry.snapshot();
    for span in ["collect", "fit", "ingest_batch"] {
        assert!(
            snap.spans
                .keys()
                .any(|k| k == span || k.starts_with(&format!("{span}."))),
            "span {span:?} missing; got {:?}",
            snap.spans.keys().collect::<Vec<_>>()
        );
    }
    assert!(snap.counters["monitor.alarms"] >= raised.len() as u64);
    assert!(snap.counters["monitor.traces"] >= monitor.traces_seen());
    assert!(snap.histograms.contains_key("monitor.distance"));

    // Both sinks render the captured run.
    let prom = emtrust::telemetry::sink::prometheus_text(&snap);
    assert!(prom.contains("emtrust_monitor_alarms"));
    let jsonl = emtrust::telemetry::sink::events_jsonl(&registry.events());
    assert!(jsonl.lines().any(|l| l.contains("\"kind\":\"alarm\"")));
    assert!(jsonl.lines().any(|l| l.contains("correlation_id")));
}

#[test]
fn collection_stays_bit_identical_with_a_recorder_installed() {
    let _guard = lock();
    let chip = ProtectedChip::golden();

    // Reference: serial, telemetry disabled.
    telemetry::uninstall();
    let reference = TestBench::simulation(&chip)
        .unwrap()
        .with_parallel(ParallelConfig::serial())
        .collect(KEY, 5, None, Channel::OnChipSensor, 77)
        .unwrap();

    // Recorded: manual clock (deterministic ticks, no wall time in any
    // recorded value), multiple worker counts.
    let registry = Arc::new(InMemoryRecorder::with_clock(Box::new(ManualClock::new(10))));
    telemetry::install(registry.clone());
    for workers in [1usize, 2, 8] {
        let set = TestBench::simulation(&chip)
            .unwrap()
            .with_parallel(ParallelConfig::serial().with_workers(workers))
            .collect(KEY, 5, None, Channel::OnChipSensor, 77)
            .unwrap();
        assert_eq!(set, reference, "workers={workers}");
    }
    TestBench::simulation(&chip)
        .unwrap()
        .collect_continuous(KEY, 2, None, Channel::OnChipSensor, 78)
        .unwrap();
    telemetry::uninstall();

    // The Trojan-free (replayable) branch attributes its simulation
    // time; the inline single-worker run nests it under `collect`. The
    // continuous path attributes its encryption loop the same way.
    let snap = registry.snapshot();
    for span in ["collect.simulate", "collect_continuous.simulate"] {
        assert!(
            snap.spans.contains_key(span),
            "collect must record {span}; got {:?}",
            snap.spans.keys().collect::<Vec<_>>()
        );
    }

    // The pool reported per-worker chunk timings for the fanned-out runs.
    assert!(snap.counters["pool.chunks"] > 0);
    assert!(
        snap.histograms
            .keys()
            .any(|k| k.starts_with("pool.worker.")),
        "per-worker timings missing; got {:?}",
        snap.histograms.keys().collect::<Vec<_>>()
    );
}

#[test]
fn correlation_ids_stay_unique_across_concurrent_monitors() {
    // No recorder needed: ids are process-global and always drawn.
    let ids: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    (0..32)
                        .map(|_| telemetry::next_correlation_id())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), ids.len(), "ids must be unique");
}
