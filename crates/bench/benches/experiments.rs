//! Criterion benchmarks: one per regenerated table/figure, measuring the
//! cost of the pipeline stage that dominates each experiment.

use criterion::{criterion_group, criterion_main, Criterion};
use emtrust::acquisition::TestBench;
use emtrust::euclidean::distance_panel;
use emtrust::fingerprint::{FingerprintConfig, GoldenFingerprint};
use emtrust::spectral::{SpectralConfig, SpectralDetector};
use emtrust::{DetectionPipeline, EuclideanDetector};
use emtrust_bench::{measure_snr, EXPERIMENT_KEY};
use emtrust_netlist::library::Library;
use emtrust_netlist::stats::design_summary;
use emtrust_silicon::Channel;
use emtrust_trojan::{ProtectedChip, TrojanKind};

fn table1_gate_counts(c: &mut Criterion) {
    let mut g = c.benchmark_group("table1");
    g.sample_size(10);
    g.bench_function("build_and_count_protected_chip", |b| {
        b.iter(|| {
            let chip = ProtectedChip::with_all_trojans();
            design_summary(chip.netlist(), &Library::generic_180nm())
        })
    });
    g.finish();
}

fn snr_simulation(c: &mut Criterion) {
    let chip = ProtectedChip::golden();
    let bench = TestBench::simulation(&chip).expect("bench");
    let mut g = c.benchmark_group("snr");
    g.sample_size(10);
    // A fresh seed per iteration, as in every timed collection of these
    // benches: a bench keeps fixed-stimulus campaigns, so a repeated one
    // would time kept work instead of a simulation.
    let mut seed = 1;
    g.bench_function("simulation_onchip_8_blocks", |b| {
        b.iter(|| {
            seed += 1;
            measure_snr(&bench, Channel::OnChipSensor, 8, seed).unwrap()
        })
    });
    g.finish();
}

fn snr_silicon(c: &mut Criterion) {
    let chip = ProtectedChip::golden();
    let bench = TestBench::silicon(&chip, 1).expect("bench");
    let mut g = c.benchmark_group("snr");
    g.sample_size(10);
    let mut seed = 1;
    g.bench_function("silicon_onchip_8_blocks", |b| {
        b.iter(|| {
            seed += 1;
            measure_snr(&bench, Channel::OnChipSensor, 8, seed).unwrap()
        })
    });
    g.finish();
}

fn euclidean_detection(c: &mut Criterion) {
    let chip = ProtectedChip::golden();
    let bench = TestBench::simulation(&chip).expect("bench");
    let golden = bench
        .collect(EXPERIMENT_KEY, 16, None, Channel::OnChipSensor, 1)
        .expect("golden traces");
    let fp = GoldenFingerprint::fit(&golden, FingerprintConfig::default()).expect("fit");
    let probe = golden.traces()[0].clone();
    let mut pipeline = DetectionPipeline::builder()
        .detector(Box::new(EuclideanDetector::new(fp)))
        .build();
    let mut g = c.benchmark_group("euclidean");
    g.sample_size(10);
    g.bench_function("fit_16_traces", |b| {
        b.iter(|| GoldenFingerprint::fit(&golden, FingerprintConfig::default()).unwrap())
    });
    g.bench_function("ingest_one_trace", |b| {
        b.iter(|| pipeline.ingest_trace(&probe))
    });
    g.finish();
}

fn a2_spectral_detection(c: &mut Criterion) {
    let chip = ProtectedChip::golden();
    let bench = TestBench::simulation(&chip).expect("bench");
    let window = bench
        .collect_continuous(EXPERIMENT_KEY, 16, None, Channel::OnChipSensor, 1)
        .expect("window");
    let det = SpectralDetector::fit(&window, SpectralConfig::default()).expect("fit");
    let mut g = c.benchmark_group("spectral");
    g.sample_size(10);
    g.bench_function("fit_16_blocks", |b| {
        b.iter(|| SpectralDetector::fit(&window, SpectralConfig::default()).unwrap())
    });
    g.bench_function("compare_window", |b| {
        b.iter(|| det.compare(&window).unwrap())
    });
    g.finish();
}

fn fig6_panels(c: &mut Criterion) {
    let chip = ProtectedChip::with_trojans(&[TrojanKind::T4PowerDegrader]);
    let bench = TestBench::silicon(&chip, 1).expect("bench");
    let mut g = c.benchmark_group("fig6");
    g.sample_size(10);
    g.bench_function("histogram_panel_t4_8_traces", |b| {
        b.iter(|| {
            distance_panel(
                &bench,
                EXPERIMENT_KEY,
                TrojanKind::T4PowerDegrader,
                8,
                Channel::OnChipSensor,
                20,
                1,
            )
            .unwrap()
        })
    });
    g.bench_function("spectrum_window_8_blocks", |b| {
        b.iter(|| {
            bench
                .collect_continuous(EXPERIMENT_KEY, 8, None, Channel::OnChipSensor, 1)
                .unwrap()
        })
    });
    g.finish();
}

criterion_group!(
    experiments,
    table1_gate_counts,
    snr_simulation,
    snr_silicon,
    euclidean_detection,
    a2_spectral_detection,
    fig6_panels
);
criterion_main!(experiments);
