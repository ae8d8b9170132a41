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

//! **Observability — telemetry overhead and alarm forensics**: replays
//! the Table-1 Trojan sweep (golden fit, all four digital Trojans, one
//! spectral window) twice — once with no recorder installed (the
//! `NullRecorder` fast path) and once under the full
//! [`InMemoryRecorder`] — and writes:
//!
//! - `BENCH_telemetry.json` — per-stage latency breakdown, recorder
//!   overhead, alarm summary and the fused-alarm decision records;
//! - `TELEMETRY_prometheus.txt` — the Prometheus text-exposition
//!   snapshot of the fully-labeled forensic run;
//! - `TELEMETRY_events.jsonl` — the structured event log (one JSON
//!   object per line; every alarm appears with its correlation id);
//! - `TELEMETRY_profile.folded` — flamegraph-compatible folded stacks
//!   of the span-tree profile.
//!
//! Four passes over the identical sweep pin the overhead envelope. Each
//! runs once as a warm-up and then in [`ROUNDS`] timed rounds whose pass
//! order rotates every round, so no pass always runs first or last; the
//! reported seconds are each pass's median:
//!
//! 1. no recorder, no labels — the `NullRecorder` fast-path baseline;
//! 2. recorder installed, unlabeled — the legacy `overhead_pct`;
//! 3. labels configured but **no recorder** — the disabled path must
//!    stay within 2 % of pass 1 (every labeled probe short-circuits on
//!    one relaxed atomic load);
//! 4. recorder + labels + decision forensics + flight recorder — the
//!    fully-enabled plane must stay within 5 % of pass 1.
//!
//! The disabled path is the paper's "no runtime performance
//! degradation" claim applied to our own instrumentation.
//!
//! [`InMemoryRecorder`]: emtrust::telemetry::InMemoryRecorder

use emtrust::acquisition::TestBench;
use emtrust::fingerprint::{FingerprintConfig, GoldenFingerprint};
use emtrust::parallel::ParallelConfig;
use emtrust::spectral::{SpectralConfig, SpectralDetector};
use emtrust::telemetry::sink::{events_jsonl, json_escape, json_number, prometheus_text};
use emtrust::telemetry::{self, ForensicsConfig, InMemoryRecorder, LabelSet, SpanProfile};
use emtrust::{
    DetectionPipeline, DetectorDomain, EuclideanDetector, SpectralWindowDetector, TrustError,
};
use emtrust_bench::{
    standard_chip, write_artifact, ArtifactDoc, OrExit, Report, EXPERIMENT_KEY, TROJANS,
};
use emtrust_dsp::stats::median;
use emtrust_silicon::Channel;
use emtrust_trojan::ProtectedChip;
use std::sync::Arc;
use std::time::Instant;

const N_GOLDEN: usize = 16;
const N_SUSPECT_PER_TROJAN: usize = 4;
const WINDOW_BLOCKS: usize = 24;
const WORKERS: usize = 2;
/// Timed rounds per pass, after one untimed warm-up round.
const ROUNDS: usize = 9;

/// One configuration of the sweep: whether a recorder is installed,
/// whether the pipeline carries identity labels, and whether it keeps
/// decision forensics.
#[derive(Debug, Clone, Copy)]
struct Pass {
    name: &'static str,
    recorder: bool,
    labeled: bool,
    forensic: bool,
}

/// The four passes, in their first-round order.
const PASSES: [Pass; 4] = [
    Pass {
        name: "null",
        recorder: false,
        labeled: false,
        forensic: false,
    },
    Pass {
        name: "recorded",
        recorder: true,
        labeled: false,
        forensic: false,
    },
    Pass {
        name: "disabled-labeled",
        recorder: false,
        labeled: true,
        forensic: false,
    },
    Pass {
        name: "forensic",
        recorder: true,
        labeled: true,
        forensic: true,
    },
];

/// One pass's wall time in every timed round, plus the pipeline and
/// recorder of its latest run.
#[derive(Default)]
struct PassRuns {
    seconds: Vec<f64>,
    pipeline: Option<DetectionPipeline>,
    registry: Option<Arc<InMemoryRecorder>>,
}

impl PassRuns {
    fn median_seconds(&self) -> f64 {
        median(&self.seconds)
    }

    fn pipeline(&self) -> &DetectionPipeline {
        self.pipeline.as_ref().or_exit("every pass ran")
    }
}

/// One full Table-1 sweep: fit on golden traces, screen every Trojan's
/// suspect batch through the paper's two-detector pipeline, then one
/// spectral window with the noisiest register-bank Trojan armed.
/// `labeled` stamps a `chip_id` identity label on the pipeline;
/// `forensic` additionally enables the decision log and alarm flight
/// recorder.
fn run_sweep(
    chip: &ProtectedChip,
    labeled: bool,
    forensic: bool,
) -> Result<DetectionPipeline, TrustError> {
    let pool = ParallelConfig::default().with_workers(WORKERS);
    let bench = TestBench::simulation(chip)?.with_parallel(pool);
    let config = FingerprintConfig {
        pca_components: None,
        parallel: pool,
        ..FingerprintConfig::default()
    };
    let golden = bench.collect(EXPERIMENT_KEY, N_GOLDEN, None, Channel::OnChipSensor, 0x7E1)?;
    let fp = GoldenFingerprint::fit(&golden, config)?;
    let golden_window = bench.collect_continuous(
        EXPERIMENT_KEY,
        WINDOW_BLOCKS,
        None,
        Channel::OnChipSensor,
        0x7E2,
    )?;
    let detector = SpectralDetector::fit(&golden_window, SpectralConfig::default())?;
    let mut builder = DetectionPipeline::builder()
        .detector(Box::new(EuclideanDetector::new(fp)))
        .detector(Box::new(SpectralWindowDetector::new(detector)))
        .parallel(pool);
    if labeled {
        builder = builder.labels(LabelSet::new().with("chip_id", "chip0"));
    }
    if forensic {
        builder = builder.forensics(ForensicsConfig::default());
    }
    let mut monitor = builder.build();
    for (i, kind) in TROJANS.into_iter().enumerate() {
        let suspects = bench.collect(
            EXPERIMENT_KEY,
            N_SUSPECT_PER_TROJAN,
            Some(kind),
            Channel::OnChipSensor,
            0x7E3 + i as u64,
        )?;
        monitor.ingest_batch(suspects.traces()).all_scored()?;
    }
    let armed_window = bench.collect_continuous(
        EXPERIMENT_KEY,
        WINDOW_BLOCKS,
        Some(TROJANS[3]),
        Channel::OnChipSensor,
        0x7E2,
    )?;
    if monitor.ingest_window(&armed_window).verdict.is_rejected() {
        return Err(TrustError::InvalidParameter {
            what: "the pipeline rejected the armed monitoring window",
        });
    }
    Ok(monitor)
}

/// Runs one pass once: installs a fresh recorder if the pass wants one,
/// times the sweep, and uninstalls it again.
fn run_pass(
    chip: &ProtectedChip,
    pass: Pass,
) -> (f64, DetectionPipeline, Option<Arc<InMemoryRecorder>>) {
    let registry = pass.recorder.then(|| Arc::new(InMemoryRecorder::new()));
    match &registry {
        Some(r) => telemetry::install(r.clone()),
        None => telemetry::uninstall(),
    }
    let t0 = Instant::now();
    let swept = run_sweep(chip, pass.labeled, pass.forensic);
    let seconds = t0.elapsed().as_secs_f64();
    telemetry::uninstall();
    let mut pipeline = swept.or_exit(&format!("{} sweep", pass.name));
    if pass.forensic {
        pipeline.seal_flight_windows();
    }
    (seconds, pipeline, registry)
}

fn main() {
    let mut report = Report::from_env("exp_telemetry");
    let chip = standard_chip();

    // Round 0 warms every pass up untimed; round r starts at pass r mod 4.
    let mut runs: [PassRuns; 4] = std::array::from_fn(|_| PassRuns::default());
    for round in 0..=ROUNDS {
        for k in 0..PASSES.len() {
            let i = (round + k) % PASSES.len();
            let (seconds, pipeline, registry) = run_pass(&chip, PASSES[i]);
            let run = &mut runs[i];
            if round > 0 {
                run.seconds.push(seconds);
            }
            run.pipeline = Some(pipeline);
            run.registry = registry;
        }
    }
    let [null_run, recorded_run, disabled_run, forensic_run] = &runs;
    let null_seconds = null_run.median_seconds();
    let recorded_seconds = recorded_run.median_seconds();
    let disabled_seconds = disabled_run.median_seconds();
    let forensic_seconds = forensic_run.median_seconds();
    let null_monitor = null_run.pipeline();
    let monitor = recorded_run.pipeline();
    let disabled_monitor = disabled_run.pipeline();
    let forensic_monitor = forensic_run.pipeline();
    let registry = recorded_run.registry.as_ref().or_exit("recorded pass");
    let forensic_registry = forensic_run.registry.as_ref().or_exit("forensic pass");

    // Every pass must detect identically — telemetry observes, it never
    // steers.
    for (other, name) in [
        (monitor, "recorded"),
        (disabled_monitor, "disabled-labeled"),
        (forensic_monitor, "forensic"),
    ] {
        assert_eq!(
            null_monitor.alarms(),
            other.alarms(),
            "{name} run must raise exactly the alarms of the null run"
        );
    }
    assert!(
        !monitor.alarms().is_empty(),
        "the Trojan sweep must raise alarms"
    );

    let overhead_pct = 100.0 * (recorded_seconds - null_seconds) / null_seconds;
    let disabled_overhead_pct = 100.0 * (disabled_seconds - null_seconds) / null_seconds;
    let forensics_overhead_pct = 100.0 * (forensic_seconds - null_seconds) / null_seconds;
    let snapshot = registry.snapshot();
    let forensic_snapshot = forensic_registry.snapshot();

    let mut stage_rows = Vec::new();
    let mut stage_json = Vec::new();
    for (path, h) in &snapshot.spans {
        stage_rows.push(vec![
            path.clone(),
            h.count.to_string(),
            format!("{:.3}", h.sum / 1e6),
            format!("{:.3}", h.mean() / 1e6),
            format!("{:.3}", h.max / 1e6),
        ]);
        stage_json.push(format!(
            "    {{\"span\": \"{}\", \"count\": {}, \"total_ns\": {}, \
             \"mean_ns\": {}, \"max_ns\": {}}}",
            json_escape(path),
            h.count,
            json_number(h.sum),
            json_number(h.mean()),
            json_number(h.max)
        ));
    }
    report.table(
        "Per-stage latency breakdown (recorded pass)",
        &["span", "count", "total ms", "mean ms", "max ms"],
        &stage_rows,
    );

    // The alarm summary and its records both come from the forensic
    // pass, so the correlation ids agree.
    let alarms = forensic_monitor.alarms();
    let time_domain = alarms
        .iter()
        .filter(|a| a.domain == DetectorDomain::PerEncryption)
        .count();
    let spectral = alarms.len() - time_domain;
    let first_correlation_id = alarms[0].correlation_id;
    report.table(
        "Sweep summary",
        &["metric", "value"],
        &[
            vec!["null pass (s)".into(), format!("{null_seconds:.3}")],
            vec!["recorded pass (s)".into(), format!("{recorded_seconds:.3}")],
            vec!["recorder overhead".into(), format!("{overhead_pct:+.2}%")],
            vec![
                "disabled labeled pass (s)".into(),
                format!("{disabled_seconds:.3}"),
            ],
            vec![
                "disabled overhead".into(),
                format!("{disabled_overhead_pct:+.2}%"),
            ],
            vec!["forensic pass (s)".into(), format!("{forensic_seconds:.3}")],
            vec![
                "forensic overhead".into(),
                format!("{forensics_overhead_pct:+.2}%"),
            ],
            vec!["timed rounds per pass".into(), ROUNDS.to_string()],
            vec!["alarms".into(), alarms.len().to_string()],
            vec!["  time-domain".into(), time_domain.to_string()],
            vec!["  spectral".into(), spectral.to_string()],
            vec![
                "first correlation id".into(),
                first_correlation_id.to_string(),
            ],
            vec![
                "decision records".into(),
                forensic_monitor.decisions().len().to_string(),
            ],
            vec![
                "flight windows".into(),
                forensic_monitor.flight_windows().len().to_string(),
            ],
        ],
    );
    report.scalar("null_seconds", null_seconds);
    report.scalar("recorded_seconds", recorded_seconds);
    report.scalar("overhead_pct", overhead_pct);
    report.scalar("disabled_overhead_pct", disabled_overhead_pct);
    report.scalar("forensics_overhead_pct", forensics_overhead_pct);
    report.scalar("alarm_count", alarms.len() as f64);

    // Span-tree profile of the fully-enabled pass: hottest self-time
    // nodes, plus the folded-stacks artifact for flamegraph tooling.
    let profile = SpanProfile::from_snapshot(&forensic_snapshot);
    let hot_rows: Vec<Vec<String>> = profile
        .hottest(6)
        .into_iter()
        .map(|n| {
            vec![
                n.path.clone(),
                n.count.to_string(),
                format!("{:.3}", n.total_ns / 1e6),
                format!("{:.3}", n.self_ns / 1e6),
            ]
        })
        .collect();
    report.table(
        "Hottest spans by self time (forensic pass)",
        &["span", "calls", "total ms", "self ms"],
        &hot_rows,
    );

    let forensics: Vec<String> = forensic_monitor
        .decisions()
        .iter()
        .filter(|r| r.fused_alarm)
        .map(|r| format!("    {}", r.to_json()))
        .collect();
    let labeled_series: usize = forensic_snapshot
        .labeled_counters
        .values()
        .map(|f| f.len())
        .sum::<usize>()
        + forensic_snapshot
            .labeled_gauges
            .values()
            .map(|f| f.len())
            .sum::<usize>()
        + forensic_snapshot
            .labeled_histograms
            .values()
            .map(|f| f.len())
            .sum::<usize>();
    let doc = ArtifactDoc::new("telemetry_table1_sweep")
        .field_u64("n_golden", N_GOLDEN as u64)
        .field_u64("n_suspect_per_trojan", N_SUSPECT_PER_TROJAN as u64)
        .field_u64("rounds", ROUNDS as u64)
        .field_f64("null_seconds", null_seconds)
        .field_f64("recorded_seconds", recorded_seconds)
        .field_f64("overhead_pct", overhead_pct)
        .field_f64("disabled_seconds", disabled_seconds)
        .field_f64("disabled_overhead_pct", disabled_overhead_pct)
        .field_f64("forensic_seconds", forensic_seconds)
        .field_f64("forensics_overhead_pct", forensics_overhead_pct)
        .field_u64("decision_count", forensic_monitor.decisions().len() as u64)
        .field_u64(
            "flight_window_count",
            forensic_monitor.flight_windows().len() as u64,
        )
        .field_u64("labeled_series", labeled_series as u64)
        .field_u64("series_overflowed", forensic_snapshot.series_overflowed)
        .field_array("stages", &stage_json)
        .field_raw(
            "alarms",
            format!(
                "{{\"total\": {}, \"time_domain\": {time_domain}, \
                 \"spectral\": {spectral}, \"first_correlation_id\": {first_correlation_id}}}",
                alarms.len()
            ),
        )
        .field_array("forensics", &forensics);
    write_artifact("BENCH_telemetry.json", &doc.to_json());
    // The exposition artifact comes from the fully-enabled pass so the
    // labeled series, quantiles, and self-metrics all appear; the
    // unlabeled pass-2 snapshot is still what the stage table reads.
    write_artifact(
        "TELEMETRY_prometheus.txt",
        &prometheus_text(&forensic_snapshot),
    );
    write_artifact(
        "TELEMETRY_events.jsonl",
        &events_jsonl(&forensic_registry.events()),
    );
    write_artifact("TELEMETRY_profile.folded", &profile.folded());
    report.note(
        "\nwrote BENCH_telemetry.json, TELEMETRY_prometheus.txt, \
         TELEMETRY_events.jsonl, TELEMETRY_profile.folded",
    );
    report.finish();
}
