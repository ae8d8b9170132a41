//! A campaign never enters the worker pool: on a 2-worker bench, only the
//! measurement of whole traces is chunked. A batch of 16 traces counts the
//! pool's 4-trace measurement chunks and nothing else, and a window of 48
//! or 96 blocks (one or two words of simulator lanes), measured as one
//! trace, counts none.
//!
//! The one test lives in its own binary, so no other test fans out while
//! its recorder is installed.

use emtrust::telemetry::{self, InMemoryRecorder};
use emtrust::{ParallelConfig, TestBench};
use emtrust_silicon::Channel;
use emtrust_trojan::ProtectedChip;
use std::sync::Arc;

const KEY: [u8; 16] = *b"campaign serial!";

#[test]
fn campaigns_simulate_outside_the_pool() {
    let chip = ProtectedChip::golden();
    let bench = TestBench::simulation(&chip)
        .unwrap()
        .with_parallel(ParallelConfig::serial().with_workers(2));
    let chunks = |run: &dyn Fn()| {
        let registry = Arc::new(InMemoryRecorder::new());
        telemetry::install(registry.clone());
        run();
        telemetry::uninstall();
        registry
            .snapshot()
            .counters
            .get("pool.chunks")
            .copied()
            .unwrap_or(0)
    };
    let batch = chunks(&|| {
        bench
            .collect(KEY, 16, None, Channel::OnChipSensor, 1)
            .unwrap();
    });
    assert_eq!(batch, 16usize.div_ceil(4) as u64, "collect of 16 traces");
    for n_blocks in [48, 96] {
        let window = chunks(&|| {
            bench
                .collect_continuous(KEY, n_blocks, None, Channel::OnChipSensor, 2)
                .unwrap();
        });
        assert_eq!(window, 0, "collect_continuous of {n_blocks} blocks");
    }
}
