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

//! Register-level Trojan attribution under leave-one-Trojan-out.
//!
//! Localizes each digital Trojan on a 4×2 sensor array at region and
//! cell granularity and owns the combined `BENCH_localization.json`
//! artifact. The protocol:
//!
//! 1. **Collect + localize** — the 4×2 array collects a golden campaign
//!    (keeping its accumulated switching activity), then arms each
//!    Trojan in turn and attributes the campaign with
//!    [`SensorArray::attribute`]: the per-tile margin map localizes the
//!    excess (hit@k over placement regions), and the
//!    [`CellEvidence`] — golden vs. suspect toggle activity under the
//!    *same* stimulus — scores every placed cell.
//! 2. **Leave-one-Trojan-out** — for each held-out Trojan, a
//!    [`LogisticModel`](emtrust::learned::LogisticModel) trains on the
//!    other three Trojans' labeled cells and re-ranks the held-out
//!    attribution; the ranking is scored with Precision@k, Recall@k,
//!    AUROC and IoU. Training is seeded and randomness-free, so the
//!    artifact is bit-identical across runs and worker counts.
//!
//! Gates (also enforced by `check_bench_schema` on the artifact):
//! every Trojan localizes within the top-3 regions, at least two at
//! rank 1, and the held-out AUROC exceeds 0.9 on at least 3 of the 4
//! Trojans. The per-fold top-ranked cells are exported to
//! `BENCH_attribution_cells.jsonl`.

use emtrust::acquisition::TestBench;
use emtrust::array::SensorArray;
use emtrust::attribution::CellEvidence;
use emtrust::fingerprint::FingerprintConfig;
use emtrust::telemetry::sink::{json_escape, json_number};
use emtrust_bench::attribution::{leave_one_out, LabeledAttribution, PRECISION_K, RECALL_K};
use emtrust_bench::{write_jsonl, ArtifactDoc, OrExit, Report, EXPERIMENT_KEY, TROJANS};
use emtrust_silicon::Channel;
use emtrust_trojan::TrojanKind;
use std::time::Instant;

const ROWS: usize = 4;
const COLS: usize = 2;
const TURNS: usize = 8;
const N_GOLDEN: usize = 32;
const N_SUSPECT: usize = 16;
/// Held-out AUROC must exceed this…
const AUROC_GATE: f64 = 0.9;
/// …on at least this many of the four folds.
const AUROC_PASSING_GATE: usize = 3;
/// Ranked cells exported per fold.
const EXPORT_TOP_K: usize = 50;

struct RegionOutcome {
    kind: TrojanKind,
    top_region: String,
    rank: Option<usize>,
    alarm_rate: f64,
    centroid_um: (f64, f64),
}

fn main() {
    let mut report = Report::from_env("exp_attribution");
    let chip = emtrust_trojan::ProtectedChip::with_all_trojans();
    // Raw per-tile energy features (no PCA): T3's CDMA leak is an
    // order of magnitude weaker than the other Trojans and a per-tile
    // PCA basis projects it away.
    let fingerprint = FingerprintConfig {
        pca_components: None,
        ..FingerprintConfig::default()
    };
    let mut array = SensorArray::builder(&chip)
        .with_grid(ROWS, COLS)
        .or_exit("grid")
        .with_turns(TURNS)
        .or_exit("turns")
        .with_fingerprint(fingerprint)
        .build()
        .or_exit("array build");
    let sensors = array.len();

    // Golden campaign (keeping its switching activity), timed against
    // the single-coil path on the same trace count and seed.
    let t0 = Instant::now();
    let (golden, golden_activity) = array
        .collect_with_activity(EXPERIMENT_KEY, N_GOLDEN, None, 42)
        .or_exit("golden collection");
    let array_seconds = t0.elapsed().as_secs_f64();

    let single_bench = TestBench::simulation(&chip).or_exit("single-coil bench");
    let t0 = Instant::now();
    let _single = single_bench
        .collect(EXPERIMENT_KEY, N_GOLDEN, None, Channel::OnChipSensor, 42)
        .or_exit("single-coil collection");
    let single_seconds = t0.elapsed().as_secs_f64();
    let per_sensor_overhead_pct = 100.0 * (array_seconds / sensors as f64 / single_seconds - 1.0);

    array.fit_golden(&golden).or_exit("golden fit");

    // Arm each Trojan in turn; suspect campaigns reuse the golden seed
    // so the per-tile excess and the per-cell toggle excess are purely
    // the armed Trojan's switching, not data-dependent AES energy.
    let mut regions = Vec::new();
    let mut folds = Vec::new();
    for kind in TROJANS {
        let (suspects, activity) = array
            .collect_with_activity(EXPERIMENT_KEY, N_SUSPECT, Some(kind), 42)
            .or_exit("suspect collection");
        let evidence = CellEvidence {
            baseline: &golden_activity,
            suspect: &activity,
        };
        let attribution = array
            .attribute(&suspects, Some(&evidence))
            .or_exit("attribution");
        let alarm_rate =
            attribution.heat().iter().map(|h| h.alarm_rate).sum::<f64>() / sensors as f64;
        regions.push(RegionOutcome {
            kind,
            top_region: attribution.top_region().unwrap_or("<none>").to_string(),
            rank: attribution.region_rank(kind.module_tag()),
            alarm_rate,
            centroid_um: attribution.centroid_um().unwrap_or((f64::NAN, f64::NAN)),
        });
        folds.push(LabeledAttribution { kind, attribution });
    }

    // Region-level gates: hit@3 for every Trojan, hit@1 for two.
    let hit1 = regions.iter().filter(|a| a.rank == Some(0)).count();
    let hit3 = regions
        .iter()
        .filter(|a| a.rank.is_some_and(|r| r < 3))
        .count();
    assert!(
        hit3 == TROJANS.len(),
        "every Trojan must localize within the top-3 regions"
    );
    assert!(
        hit1 >= 2,
        "at least two Trojans must localize at rank 1 (got {hit1})"
    );

    // Cell-level leave-one-Trojan-out.
    let folds = leave_one_out(&folds).or_exit("leave-one-Trojan-out");
    let auroc_passing = folds.iter().filter(|f| f.auroc > AUROC_GATE).count();
    assert!(
        auroc_passing >= AUROC_PASSING_GATE,
        "held-out AUROC must exceed {AUROC_GATE} on at least {AUROC_PASSING_GATE} of \
         {} Trojans (got {auroc_passing})",
        TROJANS.len()
    );

    report.table(
        &format!("Region localization on a {ROWS}x{COLS} sensor array"),
        &[
            "trojan",
            "placed region",
            "top region",
            "rank",
            "alarm rate",
        ],
        &regions
            .iter()
            .map(|a| {
                vec![
                    format!("{:?}", a.kind),
                    a.kind.module_tag().to_string(),
                    a.top_region.clone(),
                    a.rank.map_or("-".into(), |r| (r + 1).to_string()),
                    format!("{:.2}", a.alarm_rate),
                ]
            })
            .collect::<Vec<_>>(),
    );
    report.table(
        "Cell-level attribution, leave-one-Trojan-out",
        &[
            "held-out",
            "cells",
            "true",
            &format!("P@{PRECISION_K}"),
            &format!("P@{RECALL_K}"),
            &format!("R@{RECALL_K}"),
            "AUROC",
            "IoU",
        ],
        &folds
            .iter()
            .map(|f| {
                vec![
                    format!("{:?}", f.kind),
                    f.cells.to_string(),
                    f.true_cells.to_string(),
                    format!("{:.3}", f.precision_at_10),
                    format!("{:.3}", f.precision_at_50),
                    format!("{:.3}", f.recall_at_50),
                    format!("{:.4}", f.auroc),
                    format!("{:.3}", f.iou),
                ]
            })
            .collect::<Vec<_>>(),
    );
    report.scalar("hit_at_1", hit1 as f64);
    report.scalar("hit_at_3", hit3 as f64);
    report.scalar("auroc_passing", auroc_passing as f64);
    report.scalar("per_sensor_overhead_pct", per_sensor_overhead_pct);

    let trojan_json: Vec<String> = regions
        .iter()
        .map(|a| {
            format!(
                "    {{\"trojan\": \"{:?}\", \"region\": \"{}\", \"top_region\": \"{}\", \
                 \"rank\": {}, \"hit1\": {}, \"hit3\": {}, \"alarm_rate\": {}, \
                 \"centroid_x_um\": {}, \"centroid_y_um\": {}}}",
                a.kind,
                json_escape(a.kind.module_tag()),
                json_escape(&a.top_region),
                a.rank.map_or("null".into(), |r| (r + 1).to_string()),
                a.rank == Some(0),
                a.rank.is_some_and(|r| r < 3),
                json_number(a.alarm_rate),
                json_number(a.centroid_um.0),
                json_number(a.centroid_um.1),
            )
        })
        .collect();
    let attribution_json: Vec<String> = folds.iter().map(|f| f.to_json()).collect();

    let cell_lines: Vec<String> = folds
        .iter()
        .flat_map(|f| f.top_cells_jsonl(chip.netlist(), EXPORT_TOP_K))
        .collect();
    write_jsonl("BENCH_attribution_cells.jsonl", &cell_lines);
    report.note("\nwrote BENCH_attribution_cells.jsonl");

    ArtifactDoc::new("localization")
        .field_u64("rows", ROWS as u64)
        .field_u64("cols", COLS as u64)
        .field_u64("sensors", sensors as u64)
        .field_u64("turns", TURNS as u64)
        .field_u64("n_golden", N_GOLDEN as u64)
        .field_u64("n_suspect_per_trojan", N_SUSPECT as u64)
        .field_u64("hit_at_1", hit1 as u64)
        .field_u64("hit_at_3", hit3 as u64)
        .field_f64("single_seconds", single_seconds)
        .field_f64("array_seconds", array_seconds)
        .field_f64("per_sensor_overhead_pct", per_sensor_overhead_pct)
        .field_array("trojans", &trojan_json)
        .field_f64("auroc_gate", AUROC_GATE)
        .field_u64("auroc_passing", auroc_passing as u64)
        .field_array("attribution", &attribution_json)
        .write("BENCH_localization.json", &mut report);
    report.finish();
}
