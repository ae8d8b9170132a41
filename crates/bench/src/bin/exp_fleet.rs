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

//! **Robustness — fleet ingestion under transport chaos**: drives 10 000
//! chips through the sharded fleet service behind a seeded
//! transport-fault schedule (drops, duplicates, reorders, delays,
//! chip-id corruption) plus a cohort of poisoned chips that trip their
//! circuit breakers, and writes `BENCH_fleet.json`. The claims the
//! artifact carries, all asserted here before the file is written:
//!
//! - **zero panics** — the whole chaos run executes under
//!   `catch_unwind`;
//! - **bounded queues** — no shard queue is ever observed deeper than
//!   its capacity (+1 transient slot for a send racing the worker's
//!   drain);
//! - **quarantine works** — the poisoned cohort trips breakers and has
//!   admissions refused, while every trace that reached a pipeline is
//!   accounted for;
//! - **no cross-chip leakage** — in a controlled side-run, healthy
//!   chips' per-chip accounting and health are bit-identical with and
//!   without a quarantined neighbour on the same shard;
//! - **ingest latency** — per-call p50/p99/max latency and sustained
//!   traces/sec are measured and published (the schema gate bounds
//!   p99);
//! - **baseline footprint** — the floats one store's rolling baselines
//!   retain, counted on a serial run at `fleet_replay`'s shape, so the
//!   count is exact on every host (the schema gate pins it to one
//!   trace's 96 RMS features per retained trace).

use emtrust::faults::{TransportFaultKind, TransportFaultSpec, TransportPlan};
use emtrust::telemetry::LabelSet;
use emtrust_bench::{ArtifactDoc, Report};
use emtrust_fleet::{
    BaselineMode, BreakerConfig, ChaosTransport, FleetConfig, FleetService, FleetSummary,
    PipelineStore, StoreConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

const N_CHIPS: usize = 10_000;
const N_POISONED: usize = 20;
const ROUNDS: usize = 4;
const BATCH: usize = 2;
const TRACE_LEN: usize = 64;
const PLAN_SEED: u64 = 0xF1EE7;
/// The baseline-footprint run: `fleet_replay`'s chips per cycle, trace
/// length and batch size, and rounds enough to fill every ring.
const FOOTPRINT_CHIPS: usize = 1024;
const FOOTPRINT_TRACE_LEN: usize = 768;
const FOOTPRINT_ROUNDS: u64 = 3;

fn clean_batch(chip: u64, round: u64, n: usize, len: usize) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(chip.wrapping_mul(0x9E37_79B9).wrapping_add(round));
    (0..n)
        .map(|_| {
            (0..len)
                .map(|j| (j as f64 / 7.0).sin() + 0.02 * rng.gen_range(-1.0..1.0))
                .collect()
        })
        .collect()
}

fn scale_config() -> FleetConfig {
    FleetConfig {
        shards: 8,
        queue_capacity: 512,
        golden_traces: 4,
        store: StoreConfig {
            baseline_window: 8,
            capacity: 512,
            cold_capacity: 2048,
        },
        seed: PLAN_SEED,
        ..FleetConfig::default()
    }
}

fn chaos_plan() -> TransportPlan {
    TransportPlan::new(PLAN_SEED)
        .with(TransportFaultSpec::new(TransportFaultKind::BatchDrop, 1.0).with_probability(0.05))
        .with(
            TransportFaultSpec::new(TransportFaultKind::BatchDuplicate, 1.0).with_probability(0.05),
        )
        .with(TransportFaultSpec::new(TransportFaultKind::BatchReorder, 1.0).with_probability(0.05))
        .with(TransportFaultSpec::new(TransportFaultKind::BatchDelay, 0.5).with_probability(0.2))
        .with(
            TransportFaultSpec::new(TransportFaultKind::ChipIdCorruption, 1.0)
                .with_probability(0.02),
        )
}

struct ScaleOutcome {
    summary: FleetSummary,
    chaos: emtrust_fleet::ChaosStats,
    latencies_us: Vec<u64>,
    max_depth: usize,
    elapsed_s: f64,
    traces_offered: u64,
}

/// The 10k-chip chaos run. Chip-major order: each chip bursts all its
/// rounds, the realistic shape for fleet check-ins and the one that
/// exercises LRU churn hardest (every chip displaces an older one).
fn run_scale() -> Result<ScaleOutcome, String> {
    let service = FleetService::new(scale_config()).map_err(|e| e.to_string())?;
    let mut link = ChaosTransport::new(chaos_plan());
    let mut latencies_us: Vec<u64> = Vec::with_capacity(N_CHIPS * ROUNDS);
    let mut max_depth = 0usize;
    let mut traces_offered = 0u64;
    let started = Instant::now();
    for chip in 0..N_CHIPS as u64 {
        let chip_id = format!("chip-{chip:05}");
        for round in 0..ROUNDS as u64 {
            let batch = clean_batch(chip, round, BATCH, TRACE_LEN);
            traces_offered += batch.len() as u64;
            let t0 = Instant::now();
            let receipts = link
                .deliver(&service, &chip_id, &batch)
                .map_err(|e| e.to_string())?;
            latencies_us.push(t0.elapsed().as_micros() as u64);
            for r in &receipts {
                max_depth = max_depth.max(r.depth);
            }
        }
    }
    // Poison storm: a cohort floods rejectable batches round after
    // round. The pacing beat lets the shard workers feed rejection
    // streaks back into the breakers, so trips — and then refusals —
    // land while the storm is still running.
    for round in 0..12u64 {
        for chip in 0..N_POISONED as u64 {
            let chip_id = format!("chip-{chip:05}");
            let batch = vec![vec![f64::NAN; TRACE_LEN]; 3];
            traces_offered += batch.len() as u64;
            let t0 = Instant::now();
            let receipts = link
                .deliver(&service, &chip_id, &batch)
                .map_err(|e| e.to_string())?;
            latencies_us.push(t0.elapsed().as_micros() as u64);
            for r in &receipts {
                max_depth = max_depth.max(r.depth);
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
        let _ = round;
    }
    for r in link.flush(&service).map_err(|e| e.to_string())? {
        max_depth = max_depth.max(r.depth);
    }
    let elapsed_s = started.elapsed().as_secs_f64();
    let chaos = link.stats();
    let summary = service.finish().map_err(|e| e.to_string())?;
    Ok(ScaleOutcome {
        summary,
        chaos,
        latencies_us,
        max_depth,
        elapsed_s,
        traces_offered,
    })
}

/// Controlled leakage probe: the same healthy workload with and without
/// a poisoned neighbour; healthy chips must come out bit-identical.
fn run_leakage_probe(poison: bool) -> Result<FleetSummary, String> {
    let cfg = FleetConfig {
        shards: 2,
        queue_capacity: 256, // never sheds: comparison is timing-free
        golden_traces: 4,
        store: StoreConfig {
            baseline_window: 8,
            capacity: 64, // > chip count: no eviction-order coupling
            ..StoreConfig::default()
        },
        breaker: BreakerConfig {
            trip_after: 6,
            ..BreakerConfig::default()
        },
        ..FleetConfig::default()
    };
    let service = FleetService::new(cfg).map_err(|e| e.to_string())?;
    let chips = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot"];
    for round in 0..12u64 {
        for (c, chip) in chips.iter().enumerate() {
            let receipt = service
                .ingest(chip, clean_batch(c as u64 + 1, round, BATCH, TRACE_LEN))
                .map_err(|e| e.to_string())?;
            if !receipt.verdict.accepted() {
                return Err(format!("healthy {chip} refused in round {round}"));
            }
        }
        if poison {
            let _ = service
                .ingest("poison", vec![vec![f64::NAN; TRACE_LEN]; 3])
                .map_err(|e| e.to_string())?;
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    }
    service.finish().map_err(|e| e.to_string())
}

/// The floats a golden-mode store's rolling baselines retain after
/// [`FOOTPRINT_CHIPS`] chips each send [`FOOTPRINT_ROUNDS`] batches of
/// 4 traces, through the default store (512 hot chips, 8-trace rings):
/// one store driven on this thread, so the count depends on nothing
/// but the traces.
fn baseline_footprint() -> Result<usize, String> {
    let cfg = FleetConfig::default();
    let mut store = PipelineStore::new(
        cfg.store,
        cfg.golden_traces,
        BaselineMode::Golden,
        LabelSet::new(),
    );
    for chip in 0..FOOTPRINT_CHIPS as u64 {
        let chip_id = format!("chip-{chip:05}");
        for round in 0..FOOTPRINT_ROUNDS {
            let batch = clean_batch(chip, round, 4, FOOTPRINT_TRACE_LEN);
            store.ingest(&chip_id, &batch).map_err(|e| e.to_string())?;
        }
    }
    Ok(store.baseline_floats())
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn fail(report: Report, what: &str) -> ! {
    drop(report);
    eprintln!("exp_fleet: {what}");
    std::process::exit(1)
}

fn main() {
    let mut report = Report::from_env("exp_fleet");

    // Zero-panic gate: the whole chaos run under catch_unwind.
    let outcome = catch_unwind(AssertUnwindSafe(run_scale));
    let zero_panics = outcome.is_ok();
    let scale = match outcome {
        Ok(Ok(scale)) => scale,
        Ok(Err(e)) => fail(report, &format!("scale run failed: {e}")),
        Err(_) => fail(report, "scale run panicked"),
    };

    let cfg = scale_config();
    let queue_capacity = cfg.queue_capacity;
    // +1: a send may land between the worker's recv and its depth
    // decrement; the transient overshoot is bounded by one.
    let bounded_queue =
        scale.max_depth <= queue_capacity + 1 && scale.summary.peak_depth <= queue_capacity + 1;

    let mut latencies = scale.latencies_us.clone();
    latencies.sort_unstable();
    let p50_us = percentile(&latencies, 0.50);
    let p99_us = percentile(&latencies, 0.99);
    let max_us = latencies.last().copied().unwrap_or(0);
    let delivered_traces =
        scale.summary.total_scored() + scale.summary.shards.iter().map(|s| s.rejected).sum::<u64>();
    let traces_per_sec = if scale.elapsed_s > 0.0 {
        delivered_traces as f64 / scale.elapsed_s
    } else {
        0.0
    };

    let chips_tracked = scale.summary.chips.len();
    let poisoned_quarantined = scale
        .summary
        .chips
        .iter()
        .filter(|c| c.breaker_trips > 0)
        .count();

    // Leakage probe: bit-identical healthy accounting with and without
    // the quarantined neighbour.
    let clean_run = match run_leakage_probe(false) {
        Ok(s) => s,
        Err(e) => fail(report, &format!("leakage probe (clean): {e}")),
    };
    let stormy_run = match run_leakage_probe(true) {
        Ok(s) => s,
        Err(e) => fail(report, &format!("leakage probe (poisoned): {e}")),
    };
    let victim_tripped = stormy_run
        .chip("poison")
        .map(|c| c.breaker_trips >= 1)
        .unwrap_or(false);
    let leakage_bit_identical = victim_tripped
        && stormy_run.quarantined >= 1
        && clean_run.chips.iter().all(|a| {
            stormy_run
                .chip(&a.chip_id)
                .is_some_and(|b| a.stats == b.stats && a.health == b.health && !b.quarantined)
        });

    let baseline_floats = match baseline_footprint() {
        Ok(floats) => floats,
        Err(e) => fail(report, &format!("baseline footprint run: {e}")),
    };

    // Hard gates — the artifact only exists if the claims hold.
    if !zero_panics {
        fail(report, "panic observed");
    }
    if !bounded_queue {
        fail(
            report,
            &format!(
                "queue depth {} / peak {} exceeded capacity {}",
                scale.max_depth, scale.summary.peak_depth, queue_capacity
            ),
        );
    }
    if !leakage_bit_identical {
        fail(report, "quarantine leaked into healthy chips");
    }
    if chips_tracked < N_CHIPS - 100 {
        fail(
            report,
            &format!("only {chips_tracked} chips tracked of {N_CHIPS}"),
        );
    }
    if poisoned_quarantined == 0 {
        fail(report, "no poisoned chip ever tripped its breaker");
    }
    if scale.summary.quarantined == 0 {
        fail(report, "no admission was ever refused at a breaker");
    }

    report.table(
        "Fleet chaos run (10k chips)",
        &["metric", "value"],
        &[
            vec!["chips offered".into(), N_CHIPS.to_string()],
            vec!["chips tracked".into(), chips_tracked.to_string()],
            vec!["traces offered".into(), scale.traces_offered.to_string()],
            vec!["traces delivered".into(), delivered_traces.to_string()],
            vec!["traces/sec".into(), format!("{traces_per_sec:.0}")],
            vec!["p50 ingest (us)".into(), p50_us.to_string()],
            vec!["p99 ingest (us)".into(), p99_us.to_string()],
            vec!["max ingest (us)".into(), max_us.to_string()],
            vec!["max queue depth".into(), scale.max_depth.to_string()],
            vec![
                "peak queue depth".into(),
                scale.summary.peak_depth.to_string(),
            ],
            vec!["admitted".into(), scale.summary.admitted.to_string()],
            vec!["throttled".into(), scale.summary.throttled.to_string()],
            vec!["shed".into(), scale.summary.shed.to_string()],
            vec![
                "quarantine refusals".into(),
                scale.summary.quarantined.to_string(),
            ],
            vec![
                "breaker trips (chips)".into(),
                poisoned_quarantined.to_string(),
            ],
            vec!["alarms".into(), scale.summary.total_alarms().to_string()],
        ],
    );
    report.table(
        "Baseline footprint (one serial store)",
        &["metric", "value"],
        &[
            vec!["chips".into(), FOOTPRINT_CHIPS.to_string()],
            vec!["trace length".into(), FOOTPRINT_TRACE_LEN.to_string()],
            vec!["baseline floats".into(), baseline_floats.to_string()],
            vec![
                "floats per chip".into(),
                (baseline_floats / FOOTPRINT_CHIPS).to_string(),
            ],
        ],
    );
    report.table(
        "Transport chaos accounting",
        &["metric", "value"],
        &[
            vec!["offered".into(), scale.chaos.offered.to_string()],
            vec!["dropped".into(), scale.chaos.dropped.to_string()],
            vec!["duplicated".into(), scale.chaos.duplicated.to_string()],
            vec!["reordered".into(), scale.chaos.reordered.to_string()],
            vec!["corrupted".into(), scale.chaos.corrupted.to_string()],
            vec!["delivered".into(), scale.chaos.delivered.to_string()],
            vec![
                "simulated delay (us)".into(),
                scale.chaos.delay_us.to_string(),
            ],
        ],
    );
    report.scalar("traces_per_sec", traces_per_sec);
    report.scalar("p99_ingest_us", p99_us as f64);
    report.scalar("max_queue_depth", scale.max_depth as f64);

    let store_totals: (u64, u64, u64, usize, usize) = scale.summary.shards.iter().fold(
        (0, 0, 0, 0, 0),
        |(fits, refits, evictions, hot, cold), s| {
            (
                fits + s.fits,
                refits + s.refits,
                evictions + s.evictions,
                hot + s.hot,
                cold + s.cold,
            )
        },
    );

    ArtifactDoc::new("fleet_ingestion")
        .field_u64("n_chips", N_CHIPS as u64)
        .field_u64("n_poisoned", N_POISONED as u64)
        .field_u64("rounds", ROUNDS as u64)
        .field_u64("batch_traces", BATCH as u64)
        .field_u64("shards", cfg.shards as u64)
        .field_u64("queue_capacity", queue_capacity as u64)
        .field_u64("chips_tracked", chips_tracked as u64)
        .field_u64("traces_offered", scale.traces_offered)
        .field_u64("traces_delivered", delivered_traces)
        .field_f64("elapsed_s", scale.elapsed_s)
        .field_f64("traces_per_sec", traces_per_sec)
        .field_u64("p50_ingest_us", p50_us)
        .field_u64("p99_ingest_us", p99_us)
        .field_u64("max_ingest_us", max_us)
        .field_u64("max_queue_depth", scale.max_depth as u64)
        .field_bool("bounded_queue", bounded_queue)
        .field_bool("zero_panics", zero_panics)
        .field_bool("leakage_bit_identical", leakage_bit_identical)
        .field_raw(
            "admissions",
            format!(
                "{{\"admitted\": {}, \"throttled\": {}, \"shed\": {}, \"quarantined\": {}}}",
                scale.summary.admitted,
                scale.summary.throttled,
                scale.summary.shed,
                scale.summary.quarantined
            ),
        )
        .field_raw(
            "transport",
            format!(
                "{{\"offered\": {}, \"dropped\": {}, \"duplicated\": {}, \"reordered\": {}, \
                 \"corrupted\": {}, \"delivered\": {}, \"delay_us\": {}}}",
                scale.chaos.offered,
                scale.chaos.dropped,
                scale.chaos.duplicated,
                scale.chaos.reordered,
                scale.chaos.corrupted,
                scale.chaos.delivered,
                scale.chaos.delay_us
            ),
        )
        .field_raw(
            "store",
            format!(
                "{{\"fits\": {}, \"refits\": {}, \"evictions\": {}, \"hot\": {}, \"cold\": {}}}",
                store_totals.0, store_totals.1, store_totals.2, store_totals.3, store_totals.4
            ),
        )
        .field_raw(
            "baseline",
            format!(
                "{{\"chips\": {FOOTPRINT_CHIPS}, \"trace_len\": {FOOTPRINT_TRACE_LEN}, \
                 \"floats\": {baseline_floats}}}"
            ),
        )
        .field_raw(
            "breakers",
            format!(
                "{{\"tripped_chips\": {poisoned_quarantined}, \"refusals\": {}}}",
                scale.summary.quarantined
            ),
        )
        .field_f64("alarm_rate", {
            let scored = scale.summary.total_scored();
            if scored == 0 {
                0.0
            } else {
                scale.summary.total_alarms() as f64 / scored as f64
            }
        })
        .field_raw(
            "leakage_probe",
            format!(
                "{{\"healthy_chips\": {}, \"victim_tripped\": {victim_tripped}, \
                 \"bit_identical\": {leakage_bit_identical}}}",
                clean_run.chips.len()
            ),
        )
        .write("BENCH_fleet.json", &mut report);
    report.finish();
}
