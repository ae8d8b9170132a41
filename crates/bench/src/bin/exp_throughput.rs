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

//! Throughput of the parallel acquisition engine: golden-set collect+fit
//! at 1/2/4/8 workers, where the pool fans out the traces' measurements,
//! features and projections (the 32-trace campaign simulates, like the
//! Eq. 1 scan, on the calling thread), plus the hot-path before/after
//! ratio (scalar
//! reference kernels vs. the SoA/table fast paths for multi-sensor
//! synthesis and the Eq. 1 distance scan). Prints tables and writes the
//! machine-readable record to `BENCH_parallel.json` in the working
//! directory; CI's `perf` job feeds that artifact to
//! `check_bench_regression`.

use emtrust::acquisition::TestBench;
use emtrust::fingerprint::{FingerprintConfig, GoldenFingerprint};
use emtrust::parallel::ParallelConfig;
use emtrust_bench::{ArtifactDoc, OrExit, Report, EXPERIMENT_KEY};
use emtrust_dsp::distance;
use emtrust_netlist::library::Library;
use emtrust_power::{ClockConfig, CurrentModel};
use emtrust_silicon::Channel;
use emtrust_sim::engine::Simulator;
use emtrust_trojan::ProtectedChip;
use std::time::Instant;

const N_TRACES: usize = 32;

/// Worker counts of the collect+fit measurement; the first is serial.
const WORKERS: [usize; 4] = [1, 2, 4, 8];
/// Weight sets in the multi-sensor hot-path measurement (a 2×2 array).
const HOT_SETS: usize = 4;
/// Timing repeats of each hot-path stage; the minimum is recorded
/// (least-noise estimator). A synthesis pass takes about a millisecond,
/// so only a long run of repeats finds its floor on a busy host.
const HOT_REPEATS: usize = 60;
/// Rounds of the collect+fit measurement. Each round times every worker
/// count once, back to back and starting one count later than the last
/// round, so a slow host phase slows all counts alike; each count's
/// minimum over the rounds is recorded.
const ROUNDS: u64 = 40;
/// Golden-set shape for the Eq. 1 scan: vectors × window samples.
const HOT_VECS: usize = 32;
const HOT_WINDOW: usize = 256;

/// Minimum wall-clock seconds of `before` and of `after` over
/// [`HOT_REPEATS`] rounds that run the two back to back, so a slow host
/// phase slows both sides of their ratio alike.
fn best_of_pair(mut before: impl FnMut(), mut after: impl FnMut()) -> (f64, f64) {
    let mut best = (f64::INFINITY, f64::INFINITY);
    for _ in 0..HOT_REPEATS {
        let t0 = Instant::now();
        before();
        let t1 = Instant::now();
        after();
        best.0 = best.0.min((t1 - t0).as_secs_f64());
        best.1 = best.1.min(t1.elapsed().as_secs_f64());
    }
    best
}

/// Measures the synthesis + scoring hot paths before (scalar reference
/// kernels, one pass per sensor) and after (shared event walk with
/// amplitude tables, SoA distance scan). Returns the JSON fragment for
/// the artifact's `hot_path` field.
fn hot_path_ratio(report: &mut Report) -> String {
    // A real AES encryption supplies the event stream.
    let aes = emtrust_aes::AesHarness::new();
    let mut sim = Simulator::new(aes.netlist()).or_exit("sim");
    sim.start_recording();
    let _ = emtrust_aes::netlist::run_encryption(&mut sim, aes.ports(), [1; 16], [2; 16]);
    let activity = sim.take_recording();
    let model = CurrentModel::new(Library::generic_180nm(), ClockConfig::reference());

    // Deterministic synthetic coupling kernels — the timing only cares
    // that every cell carries a distinct nonzero weight per set.
    let n_cells = aes.netlist().cell_count();
    let weight_sets: Vec<Vec<f64>> = (0..HOT_SETS)
        .map(|s| {
            (0..n_cells)
                .map(|i| 0.2 + ((i * (s + 3)) % 17) as f64 / 17.0)
                .collect()
        })
        .collect();
    let set_refs: Vec<&[f64]> = weight_sets.iter().map(Vec::as_slice).collect();

    // Before: one full scalar-renderer pass per sensor. After: one
    // shared event walk deposits into all sensors.
    let (synth_before_s, synth_after_s) = best_of_pair(
        || {
            for w in &weight_sets {
                let _ = model
                    .synthesize_reference(aes.netlist(), &activity, Some(w), None)
                    .or_exit("reference synthesis");
            }
        },
        || {
            let _ = model
                .synthesize_multi(aes.netlist(), &activity, &set_refs, None, 1)
                .or_exit("multi synthesis");
        },
    );

    // Equivalence cross-check while we are here: one deposit per charge
    // bin rounds differently from one per event, so the binned path must
    // stay within 1e-12 of the reference trace's peak.
    let fast = model
        .synthesize_multi(aes.netlist(), &activity, &set_refs, None, 1)
        .or_exit("multi synthesis");
    for (w, got) in weight_sets.iter().zip(&fast) {
        let reference = model
            .synthesize_reference(aes.netlist(), &activity, Some(w), None)
            .or_exit("reference synthesis");
        let peak = reference
            .samples()
            .iter()
            .fold(0.0f64, |m, x| m.max(x.abs()));
        let worst = got
            .samples()
            .iter()
            .zip(reference.samples())
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
        assert_eq!(got.len(), reference.len());
        assert!(
            worst <= 1e-12 * peak,
            "binned synthesis strays {:e} of the peak from the reference",
            worst / peak
        );
    }

    // Eq. 1 golden-distance scan over windows of the synthesized trace.
    let samples = fast[0].samples();
    let golden: Vec<Vec<f64>> = (0..HOT_VECS)
        .map(|v| {
            (0..HOT_WINDOW)
                .map(|i| samples[(v * HOT_WINDOW + i) % samples.len()])
                .collect()
        })
        .collect();
    let (scan_before_s, scan_after_s) = best_of_pair(
        || {
            let _ = distance::eq1_threshold_reference(&golden).or_exit("reference scan");
        },
        || {
            let _ = distance::eq1_threshold(&golden).or_exit("scan");
        },
    );
    let th_before = distance::eq1_threshold_reference(&golden).or_exit("reference scan");
    let th_after = distance::eq1_threshold(&golden).or_exit("scan");
    assert!(
        (th_before - th_after).abs() <= 1e-9 * th_before.abs().max(1e-300),
        "lane-kernel threshold {th_after} drifted from reference {th_before}"
    );

    let before_s = synth_before_s + scan_before_s;
    let after_s = synth_after_s + scan_after_s;
    let ratio = before_s / after_s;
    report.table(
        &format!("Hot-path before/after ({HOT_SETS}-sensor synthesis + Eq. 1 scan)"),
        &["stage", "before s", "after s", "ratio"],
        &[
            vec![
                "synthesize".into(),
                format!("{synth_before_s:.4}"),
                format!("{synth_after_s:.4}"),
                format!("{:.2}x", synth_before_s / synth_after_s),
            ],
            vec![
                "eq1 scan".into(),
                format!("{scan_before_s:.4}"),
                format!("{scan_after_s:.4}"),
                format!("{:.2}x", scan_before_s / scan_after_s),
            ],
            vec![
                "combined".into(),
                format!("{before_s:.4}"),
                format!("{after_s:.4}"),
                format!("{ratio:.2}x"),
            ],
        ],
    );
    report.scalar("hot_path_ratio", ratio);
    format!(
        "{{\"sensors\": {HOT_SETS}, \"synth_before_seconds\": {synth_before_s:.6}, \
         \"synth_after_seconds\": {synth_after_s:.6}, \
         \"scan_before_seconds\": {scan_before_s:.6}, \
         \"scan_after_seconds\": {scan_after_s:.6}, \
         \"before_seconds\": {before_s:.6}, \"after_seconds\": {after_s:.6}, \
         \"ratio\": {ratio:.4}}}"
    )
}

fn main() {
    let mut report = Report::from_env("exp_throughput");
    let chip = ProtectedChip::golden();
    let setups = WORKERS.map(|workers| {
        let pool = ParallelConfig::serial().with_workers(workers);
        let bench = TestBench::simulation(&chip)
            .or_exit("bench")
            .with_parallel(pool);
        let config = FingerprintConfig {
            parallel: pool,
            ..FingerprintConfig::default()
        };
        (bench, config)
    });
    let mut elapsed = [f64::INFINITY; WORKERS.len()];
    for round in 0..ROUNDS {
        // Each round collects under its own seed (so its own plaintext):
        // a bench keeps its fixed-stimulus campaigns, and a repeated one
        // would time a measurement of kept blocks, not a simulation.
        let mut serial_threshold = None;
        for k in 0..WORKERS.len() {
            let i = (k + round as usize) % WORKERS.len();
            let (bench, config) = &setups[i];
            let t0 = Instant::now();
            let set = bench
                .collect(
                    EXPERIMENT_KEY,
                    N_TRACES,
                    None,
                    Channel::OnChipSensor,
                    42 + round,
                )
                .or_exit("collect");
            let fp = GoldenFingerprint::fit(&set, *config).or_exit("fit");
            elapsed[i] = elapsed[i].min(t0.elapsed().as_secs_f64());
            // Determinism cross-check while we are here: every worker
            // count must reproduce the serial threshold bit for bit.
            let threshold = fp.threshold().to_bits();
            assert_eq!(
                *serial_threshold.get_or_insert(threshold),
                threshold,
                "threshold must not depend on the worker count"
            );
        }
    }
    let serial_s = elapsed[0];
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for (workers, elapsed) in WORKERS.into_iter().zip(elapsed) {
        let tps = N_TRACES as f64 / elapsed;
        let speedup = serial_s / elapsed;
        report.scalar(&format!("workers_{workers}_seconds"), elapsed);
        rows.push(vec![
            workers.to_string(),
            format!("{elapsed:.2}"),
            format!("{tps:.2}"),
            format!("{speedup:.2}x"),
        ]);
        json_rows.push(format!(
            "    {{\"workers\": {workers}, \"seconds\": {elapsed:.4}, \
             \"traces_per_sec\": {tps:.4}, \"speedup\": {speedup:.4}}}"
        ));
    }
    report.table(
        &format!("Golden-set collect+fit throughput ({N_TRACES} traces)"),
        &["workers", "seconds", "traces/s", "speedup"],
        &rows,
    );
    let hot_path = hot_path_ratio(&mut report);
    let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
    ArtifactDoc::new("golden_collect_fit")
        .field_u64("n_traces", N_TRACES as u64)
        .field_u64("host_cpus", host_cpus as u64)
        .field_array("results", &json_rows)
        .field_raw("hot_path", hot_path)
        .write("BENCH_parallel.json", &mut report);
    report.finish();
}
