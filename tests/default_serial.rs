//! Serial by default: with no worker count named anywhere, acquisition,
//! fitting and batch ingest run inline on the caller's thread. Threads
//! start only where a caller names a pool, and a pipeline does not
//! inherit its fingerprint's pool.
//!
//! The one test lives in its own binary, so no other test fans out while
//! its recorder is installed.

use emtrust::telemetry::{self, InMemoryRecorder};
use emtrust::{
    DetectionPipeline, EuclideanDetector, FingerprintConfig, GoldenFingerprint, ParallelConfig,
    TestBench, TraceSet,
};
use emtrust_silicon::Channel;
use emtrust_trojan::ProtectedChip;
use std::sync::Arc;

const KEY: [u8; 16] = *b"serial default!!";
const N_TRACES: usize = 8;

#[test]
fn defaults_start_no_worker_threads() {
    let chip = ProtectedChip::golden();
    let bench = TestBench::simulation(&chip).unwrap();
    let golden = bench
        .collect(KEY, N_TRACES, None, Channel::OnChipSensor, 1)
        .unwrap();
    let fanned = FingerprintConfig {
        parallel: ParallelConfig::serial().with_workers(2),
        ..FingerprintConfig::default()
    };
    let fp = GoldenFingerprint::fit(&golden, fanned).unwrap();

    // 32 chunks of the pool's 4 items, so that a fanned-out fit or batch
    // hands worker 1 some of them before worker 0 drains the queue.
    let many: Vec<Vec<f64>> = golden.traces().iter().cycle().take(128).cloned().collect();
    let many = TraceSet::new(many, golden.sample_rate_hz()).unwrap();

    let registry = Arc::new(InMemoryRecorder::new());
    telemetry::install(registry.clone());
    TestBench::simulation(&chip)
        .unwrap()
        .collect(KEY, N_TRACES, None, Channel::OnChipSensor, 2)
        .unwrap();
    GoldenFingerprint::fit(&many, FingerprintConfig::default()).unwrap();
    let mut pipeline = DetectionPipeline::builder()
        .detector(Box::new(EuclideanDetector::new(fp)))
        .build();
    pipeline.ingest_batch(many.traces()).all_scored().unwrap();
    telemetry::uninstall();

    let snap = registry.snapshot();
    let workers: Vec<&String> = snap
        .histograms
        .keys()
        .filter(|k| k.starts_with("pool.worker.") && k.ends_with(".chunk_ns"))
        .collect();
    assert!(
        workers.iter().any(|k| *k == "pool.worker.0.chunk_ns"),
        "the recorder must see the inline pool; got {workers:?}"
    );
    assert!(
        workers.iter().all(|k| *k == "pool.worker.0.chunk_ns"),
        "a default configuration fanned out: {workers:?}"
    );
}
