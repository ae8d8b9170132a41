//! Serial vs. parallel benchmarks for the acquisition → fingerprint →
//! batch-evaluation engine. Each group sweeps the worker count so
//! `cargo bench` doubles as the speedup report (`exp_throughput` writes
//! the machine-readable version to `BENCH_parallel.json`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use emtrust::acquisition::TestBench;
use emtrust::fingerprint::{FingerprintConfig, GoldenFingerprint};
use emtrust::parallel::ParallelConfig;
use emtrust::{DetectionPipeline, EuclideanDetector};
use emtrust_bench::EXPERIMENT_KEY;
use emtrust_silicon::Channel;
use emtrust_trojan::ProtectedChip;

const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];

fn parallel_collect(c: &mut Criterion) {
    let chip = ProtectedChip::golden();
    let n_traces = 8usize;
    let mut g = c.benchmark_group("parallel_collect");
    g.sample_size(10);
    g.throughput(Throughput::Elements(n_traces as u64));
    for workers in WORKER_SWEEP {
        let bench = TestBench::simulation(&chip)
            .expect("bench")
            .with_parallel(ParallelConfig::default().with_workers(workers));
        g.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, _| {
            b.iter(|| {
                bench
                    .collect(EXPERIMENT_KEY, n_traces, None, Channel::OnChipSensor, 42)
                    .unwrap()
            })
        });
    }
    g.finish();
}

fn parallel_fit(c: &mut Criterion) {
    // Fit cost is dominated by feature extraction plus the O(n²) Eq. 1
    // pair scan, both fanned across the pool.
    let chip = ProtectedChip::golden();
    let golden = TestBench::simulation(&chip)
        .expect("bench")
        .collect(EXPERIMENT_KEY, 24, None, Channel::OnChipSensor, 7)
        .expect("golden set");
    let mut g = c.benchmark_group("parallel_fit");
    g.sample_size(10);
    g.throughput(Throughput::Elements(golden.len() as u64));
    for workers in WORKER_SWEEP {
        let config = FingerprintConfig {
            parallel: ParallelConfig::default().with_workers(workers),
            ..FingerprintConfig::default()
        };
        g.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, _| {
            b.iter(|| GoldenFingerprint::fit(&golden, config).unwrap())
        });
    }
    g.finish();
}

fn parallel_ingest_batch(c: &mut Criterion) {
    let chip = ProtectedChip::golden();
    let bench = TestBench::simulation(&chip).expect("bench");
    let golden = bench
        .collect(EXPERIMENT_KEY, 16, None, Channel::OnChipSensor, 7)
        .expect("golden set");
    let suspects = bench
        .collect(EXPERIMENT_KEY, 16, None, Channel::OnChipSensor, 8)
        .expect("suspect set");
    let fp = GoldenFingerprint::fit(&golden, FingerprintConfig::default()).expect("fit");
    let mut g = c.benchmark_group("parallel_ingest_batch");
    g.sample_size(10);
    g.throughput(Throughput::Elements(suspects.len() as u64));
    for workers in WORKER_SWEEP {
        let mut pipeline = DetectionPipeline::builder()
            .detector(Box::new(EuclideanDetector::new(fp.clone())))
            .parallel(ParallelConfig::default().with_workers(workers))
            .build();
        g.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, _| {
            b.iter(|| pipeline.ingest_batch(suspects.traces()))
        });
    }
    g.finish();
}

criterion_group!(
    parallel,
    parallel_collect,
    parallel_fit,
    parallel_ingest_batch
);
criterion_main!(parallel);
