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

//! Schema checker for the machine-readable bench artifacts — CI runs
//! this against `BENCH_telemetry.json` (and optionally
//! `BENCH_parallel.json`) after the experiment binaries, so a drifting
//! field name or a NaN-turned-null fails the build, not a downstream
//! dashboard.
//!
//! Usage: `check_bench_schema <file.json>... [--jsonl <file.jsonl>...]`
//! — exits 0 when every file validates, 1 with a per-file reason
//! otherwise. Files after `--jsonl` are validated as decision logs
//! (`TELEMETRY_decisions.jsonl`): one JSON [`DecisionRecord`] per line,
//! every record carrying its domain, verdict, detector margins and
//! health state, and at least one fused alarm in the log.
//!
//! [`DecisionRecord`]: emtrust::telemetry::DecisionRecord

use emtrust_bench::json::Value;

fn expect<'a>(v: &'a Value, key: &str, what: &str) -> Result<&'a Value, String> {
    v.get(key)
        .ok_or_else(|| format!("missing key \"{key}\" ({what})"))
}

fn expect_number(v: &Value, key: &str) -> Result<f64, String> {
    expect(v, key, "number")?
        .as_f64()
        .ok_or_else(|| format!("\"{key}\" must be a number"))
}

fn expect_u64(v: &Value, key: &str) -> Result<u64, String> {
    expect(v, key, "integer")?
        .as_u64()
        .ok_or_else(|| format!("\"{key}\" must be a non-negative integer"))
}

fn expect_str<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    expect(v, key, "string")?
        .as_str()
        .ok_or_else(|| format!("\"{key}\" must be a string"))
}

fn expect_array<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    expect(v, key, "array")?
        .as_array()
        .ok_or_else(|| format!("\"{key}\" must be an array"))
}

/// Provenance fields every bench artifact carries. `git_rev` must be a
/// commit hash: 7–40 lowercase hex characters. The writer falls back to
/// `git rev-parse HEAD` when `EMTRUST_GIT_REV` is unset, so a committed
/// artifact carrying a placeholder such as `"unknown"` or `"dev"` means
/// it was generated outside a real checkout.
fn check_provenance(doc: &Value) -> Result<(), String> {
    expect_str(doc, "benchmark")?;
    expect_u64(doc, "timestamp_unix")?;
    let rev = expect_str(doc, "git_rev")?;
    let is_hash = (7..=40).contains(&rev.len())
        && rev
            .bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b));
    if !is_hash {
        return Err(format!(
            "\"git_rev\" {rev:?} must be a commit hash (7-40 lowercase hex characters)"
        ));
    }
    Ok(())
}

fn check_telemetry(doc: &Value) -> Result<(), String> {
    check_provenance(doc)?;
    expect_u64(doc, "n_golden")?;
    expect_u64(doc, "n_suspect_per_trojan")?;
    expect_number(doc, "null_seconds")?;
    expect_number(doc, "recorded_seconds")?;
    expect_number(doc, "overhead_pct")?;
    expect_number(doc, "disabled_seconds")?;
    let disabled = expect_number(doc, "disabled_overhead_pct")?;
    if disabled > 2.0 {
        return Err(format!(
            "\"disabled_overhead_pct\" {disabled} exceeds the 2% disabled-path budget"
        ));
    }
    expect_number(doc, "forensic_seconds")?;
    let forensic = expect_number(doc, "forensics_overhead_pct")?;
    if forensic > 5.0 {
        return Err(format!(
            "\"forensics_overhead_pct\" {forensic} exceeds the 5% fully-enabled budget"
        ));
    }
    if expect_u64(doc, "decision_count")? == 0 {
        return Err("\"decision_count\" must be > 0 — the forensic pass must log decisions".into());
    }
    if expect_u64(doc, "flight_window_count")? == 0 {
        return Err(
            "\"flight_window_count\" must be > 0 — alarms must freeze flight windows".into(),
        );
    }
    if expect_u64(doc, "labeled_series")? == 0 {
        return Err("\"labeled_series\" must be > 0 — the labeled pass must emit series".into());
    }
    expect_u64(doc, "series_overflowed")?;
    let stages = expect_array(doc, "stages")?;
    if stages.is_empty() {
        return Err("\"stages\" must not be empty".into());
    }
    for (i, stage) in stages.iter().enumerate() {
        (|| {
            expect_str(stage, "span")?;
            expect_u64(stage, "count")?;
            expect_number(stage, "total_ns")?;
            expect_number(stage, "mean_ns")?;
            expect_number(stage, "max_ns")?;
            Ok::<(), String>(())
        })()
        .map_err(|e| format!("stages[{i}]: {e}"))?;
    }
    let alarms = expect(doc, "alarms", "object")?;
    expect_u64(alarms, "time_domain")?;
    expect_u64(alarms, "spectral")?;
    let first_id = expect_u64(alarms, "first_correlation_id")?;
    let total = expect_u64(alarms, "total")?;
    if total == 0 {
        return Err("\"alarms.total\" must be > 0 — the Trojan sweep must alarm".into());
    }
    // One fused-alarm decision record per alarm.
    let forensics = expect_array(doc, "forensics")?;
    for (i, record) in forensics.iter().enumerate() {
        (|| {
            expect_u64(record, "correlation_id")?;
            if !expect_bool(record, "fused_alarm")? {
                return Err("\"fused_alarm\" must be true".into());
            }
            if expect_array(record, "detectors")?.is_empty() {
                return Err("\"detectors\" must not be empty".into());
            }
            Ok::<(), String>(())
        })()
        .map_err(|e| format!("forensics[{i}]: {e}"))?;
    }
    if forensics.len() as u64 != total {
        return Err("one fused-alarm decision record per alarm required".into());
    }
    let record_id = expect_u64(&forensics[0], "correlation_id")?;
    if record_id != first_id {
        return Err(format!(
            "\"alarms.first_correlation_id\" {first_id} must equal the first record's id {record_id}"
        ));
    }
    Ok(())
}

fn check_parallel(doc: &Value) -> Result<(), String> {
    check_provenance(doc)?;
    expect_u64(doc, "n_traces")?;
    let host_cpus = expect_u64(doc, "host_cpus")?;
    let tuned = expect(doc, "auto_tuned", "object")?;
    let tuned_workers = expect_u64(tuned, "workers")?;
    if expect_u64(tuned, "chunk_size")? == 0 {
        return Err("\"auto_tuned.chunk_size\" must be positive".into());
    }
    if tuned_workers == 0 || tuned_workers > host_cpus {
        return Err(format!(
            "\"auto_tuned.workers\" {tuned_workers} must be in 1..={host_cpus} (host_cpus)"
        ));
    }
    let results = expect_array(doc, "results")?;
    if results.is_empty() {
        return Err("\"results\" must not be empty".into());
    }
    for (i, row) in results.iter().enumerate() {
        (|| {
            expect_u64(row, "workers")?;
            let effective = expect_u64(row, "effective_workers")?;
            if effective == 0 || effective > host_cpus {
                return Err(format!(
                    "\"effective_workers\" {effective} must be in 1..={host_cpus} (host_cpus)"
                ));
            }
            expect_number(row, "seconds")?;
            expect_number(row, "traces_per_sec")?;
            expect_number(row, "speedup")?;
            Ok::<(), String>(())
        })()
        .map_err(|e| format!("results[{i}]: {e}"))?;
    }
    let hot = expect(doc, "hot_path", "object")?;
    expect_u64(hot, "sensors")?;
    for key in [
        "synth_before_seconds",
        "synth_after_seconds",
        "scan_before_seconds",
        "scan_after_seconds",
        "before_seconds",
        "after_seconds",
    ] {
        if expect_number(hot, key)? <= 0.0 {
            return Err(format!("\"hot_path.{key}\" must be positive"));
        }
    }
    if expect_number(hot, "ratio")? <= 0.0 {
        return Err("\"hot_path.ratio\" must be positive".into());
    }
    Ok(())
}

fn expect_bool(v: &Value, key: &str) -> Result<bool, String> {
    expect(v, key, "bool")?
        .as_bool()
        .ok_or_else(|| format!("\"{key}\" must be a boolean"))
}

fn check_faults(doc: &Value) -> Result<(), String> {
    check_provenance(doc)?;
    expect_u64(doc, "n_golden")?;
    expect_u64(doc, "n_suspect")?;
    let default_intensity = expect_number(doc, "default_intensity")?;
    let baseline = expect(doc, "baseline", "object")?;
    expect_u64(baseline, "scored")?;
    expect_u64(baseline, "alarms")?;
    let baseline_far = expect_number(baseline, "false_alarm_rate")?;
    if !expect_bool(doc, "clean_bit_identical")? {
        return Err("\"clean_bit_identical\" must be true — the sanitizer changed alarms".into());
    }
    if !expect_bool(doc, "robust_matches_collect")? {
        return Err("\"robust_matches_collect\" must be true".into());
    }
    let scenarios = expect_array(doc, "scenarios")?;
    if scenarios.is_empty() {
        return Err("\"scenarios\" must not be empty".into());
    }
    for (i, s) in scenarios.iter().enumerate() {
        (|| {
            expect_str(s, "fault")?;
            let intensity = expect_number(s, "intensity")?;
            let traces = expect_u64(s, "traces")?;
            let clean = expect_u64(s, "clean")?;
            let degraded = expect_u64(s, "degraded")?;
            let rejected = expect_u64(s, "rejected")?;
            expect_u64(s, "scored")?;
            expect_u64(s, "alarms")?;
            let far = expect_number(s, "false_alarm_rate")?;
            expect_str(s, "health")?;
            if expect_bool(s, "panicked")? {
                return Err("\"panicked\" must be false".into());
            }
            if !expect_bool(s, "accounted")? || clean + degraded + rejected != traces {
                return Err("every trace must be accounted clean/degraded/rejected".into());
            }
            if intensity == default_intensity && far > 2.0 * baseline_far + 1e-12 {
                return Err(format!(
                    "default-intensity false-alarm rate {far} exceeds 2x baseline {baseline_far}"
                ));
            }
            Ok::<(), String>(())
        })()
        .map_err(|e| format!("scenarios[{i}]: {e}"))?;
    }
    let recovery = expect(doc, "recovery", "object")?;
    expect_u64(recovery, "retries")?;
    expect_u64(recovery, "fallbacks")?;
    expect_u64(recovery, "backoff_total_us")?;
    if expect_u64(recovery, "rejected")? != 0 {
        return Err("\"recovery.rejected\" must be 0 — the storm must clear".into());
    }
    Ok(())
}

/// `BENCH_fleet.json`: the fleet ingestion service's chaos-run gates —
/// zero panics, bounded queue depth, quarantine isolation, and a sane
/// p99 ingest latency at 10k-chip scale.
fn check_fleet(doc: &Value) -> Result<(), String> {
    check_provenance(doc)?;
    let n_chips = expect_u64(doc, "n_chips")?;
    if n_chips < 10_000 {
        return Err(format!("\"n_chips\" {n_chips} is below the 10k-chip floor"));
    }
    expect_u64(doc, "n_poisoned")?;
    expect_u64(doc, "rounds")?;
    expect_u64(doc, "batch_traces")?;
    expect_u64(doc, "shards")?;
    let capacity = expect_u64(doc, "queue_capacity")?;
    let tracked = expect_u64(doc, "chips_tracked")?;
    if tracked + 100 < n_chips {
        return Err(format!(
            "\"chips_tracked\" {tracked} lost more than 100 of {n_chips} chips"
        ));
    }
    let offered = expect_u64(doc, "traces_offered")?;
    let delivered = expect_u64(doc, "traces_delivered")?;
    if delivered > 2 * offered {
        return Err(format!(
            "\"traces_delivered\" {delivered} exceeds duplication bound for {offered} offered"
        ));
    }
    expect_number(doc, "elapsed_s")?;
    if expect_number(doc, "traces_per_sec")? <= 0.0 {
        return Err("\"traces_per_sec\" must be positive".into());
    }
    expect_u64(doc, "p50_ingest_us")?;
    let p99 = expect_u64(doc, "p99_ingest_us")?;
    if p99 > 100_000 {
        return Err(format!(
            "\"p99_ingest_us\" {p99} exceeds the 100ms sanity ceiling"
        ));
    }
    expect_u64(doc, "max_ingest_us")?;
    let max_depth = expect_u64(doc, "max_queue_depth")?;
    if max_depth > capacity + 1 {
        return Err(format!(
            "\"max_queue_depth\" {max_depth} exceeds queue_capacity {capacity} (+1 transient)"
        ));
    }
    if !expect_bool(doc, "bounded_queue")? {
        return Err("\"bounded_queue\" must be true".into());
    }
    if !expect_bool(doc, "zero_panics")? {
        return Err("\"zero_panics\" must be true".into());
    }
    if !expect_bool(doc, "leakage_bit_identical")? {
        return Err(
            "\"leakage_bit_identical\" must be true — quarantine leaked into healthy chips".into(),
        );
    }
    let admissions = expect(doc, "admissions", "object")?;
    expect_u64(admissions, "admitted")?;
    expect_u64(admissions, "throttled")?;
    expect_u64(admissions, "shed")?;
    expect_u64(admissions, "quarantined")?;
    let transport = expect(doc, "transport", "object")?;
    for key in [
        "offered",
        "dropped",
        "duplicated",
        "reordered",
        "corrupted",
        "delivered",
        "delay_us",
    ] {
        expect_u64(transport, key)?;
    }
    let store = expect(doc, "store", "object")?;
    for key in ["fits", "refits", "evictions", "hot", "cold"] {
        expect_u64(store, key)?;
    }
    let breakers = expect(doc, "breakers", "object")?;
    if expect_u64(breakers, "tripped_chips")? == 0 {
        return Err("\"breakers.tripped_chips\" must be > 0 — the poison cohort must trip".into());
    }
    expect_u64(breakers, "refusals")?;
    expect_number(doc, "alarm_rate")?;
    let probe = expect(doc, "leakage_probe", "object")?;
    expect_u64(probe, "healthy_chips")?;
    if !expect_bool(probe, "victim_tripped")? {
        return Err("\"leakage_probe.victim_tripped\" must be true".into());
    }
    if !expect_bool(probe, "bit_identical")? {
        return Err("\"leakage_probe.bit_identical\" must be true".into());
    }
    Ok(())
}

fn check_localization(doc: &Value) -> Result<(), String> {
    check_provenance(doc)?;
    let rows = expect_u64(doc, "rows")?;
    let cols = expect_u64(doc, "cols")?;
    if expect_u64(doc, "sensors")? != rows * cols {
        return Err("\"sensors\" must equal rows * cols".into());
    }
    expect_u64(doc, "turns")?;
    expect_u64(doc, "n_golden")?;
    expect_u64(doc, "n_suspect_per_trojan")?;
    expect_number(doc, "single_seconds")?;
    expect_number(doc, "array_seconds")?;
    expect_number(doc, "per_sensor_overhead_pct")?;
    let hit1 = expect_u64(doc, "hit_at_1")?;
    let hit3 = expect_u64(doc, "hit_at_3")?;
    let trojans = expect_array(doc, "trojans")?;
    if trojans.len() != 4 {
        return Err("\"trojans\" must cover all four digital Trojans".into());
    }
    for (i, t) in trojans.iter().enumerate() {
        (|| {
            expect_str(t, "trojan")?;
            expect_str(t, "region")?;
            expect_str(t, "top_region")?;
            expect_bool(t, "hit1")?;
            expect_bool(t, "hit3")?;
            expect_number(t, "alarm_rate")?;
            expect_number(t, "centroid_x_um")?;
            expect_number(t, "centroid_y_um")?;
            Ok::<(), String>(())
        })()
        .map_err(|e| format!("trojans[{i}]: {e}"))?;
    }
    if hit3 != trojans.len() as u64 {
        return Err(format!(
            "\"hit_at_3\" {hit3} — every Trojan must localize within the top-3 regions"
        ));
    }
    if hit1 < 2 {
        return Err(format!(
            "\"hit_at_1\" {hit1} — at least two Trojans must localize at rank 1"
        ));
    }
    // Cell-level attribution section (leave-one-Trojan-out).
    let auroc_gate = expect_number(doc, "auroc_gate")?;
    let auroc_passing = expect_u64(doc, "auroc_passing")?;
    let attribution = expect_array(doc, "attribution")?;
    if attribution.len() != 4 {
        return Err("\"attribution\" must hold one fold per digital Trojan".into());
    }
    let mut passing = 0u64;
    for (i, fold) in attribution.iter().enumerate() {
        (|| {
            expect_str(fold, "trojan")?;
            expect_str(fold, "region")?;
            let cells = expect_u64(fold, "cells")?;
            let true_cells = expect_u64(fold, "true_cells")?;
            if true_cells == 0 || true_cells >= cells {
                return Err("\"true_cells\" must be a non-empty strict subset of cells".into());
            }
            for key in [
                "precision_at_10",
                "precision_at_50",
                "recall_at_50",
                "auroc",
                "iou",
            ] {
                let v = expect_number(fold, key)?;
                if !(0.0..=1.0).contains(&v) {
                    return Err(format!("\"{key}\" {v} must lie in [0, 1]"));
                }
            }
            if expect_number(fold, "auroc")? > auroc_gate {
                passing += 1;
            }
            Ok::<(), String>(())
        })()
        .map_err(|e| format!("attribution[{i}]: {e}"))?;
    }
    if passing != auroc_passing {
        return Err(format!(
            "\"auroc_passing\" {auroc_passing} disagrees with the folds (counted {passing})"
        ));
    }
    if auroc_passing < 3 {
        return Err(format!(
            "\"auroc_passing\" {auroc_passing} — held-out AUROC must exceed {auroc_gate} \
             on at least 3 of 4 Trojans"
        ));
    }
    Ok(())
}

fn check_reference_free(doc: &Value) -> Result<(), String> {
    check_provenance(doc)?;
    expect_u64(doc, "n_warmup")?;
    expect_u64(doc, "n_eval")?;
    expect_u64(doc, "n_suspect_per_trojan")?;
    expect_number(doc, "mad_multiplier")?;
    if expect_u64(doc, "golden_traces_used")? != 0 {
        return Err("\"golden_traces_used\" must be 0 — the experiment is reference-free".into());
    }
    if !expect_bool(doc, "reference_free")? {
        return Err("\"reference_free\" must be true".into());
    }
    if expect_u64(doc, "warmup_alarms")? != 0 {
        return Err("\"warmup_alarms\" must be 0 — nothing may alarm while calibrating".into());
    }
    expect_number(doc, "false_alarm_rate_selfcal")?;
    expect_number(doc, "false_alarm_rate_golden")?;
    expect_number(doc, "false_alarm_gap")?;
    let detected = expect_u64(doc, "detected")?;
    let trojans = expect_array(doc, "trojans")?;
    if trojans.len() != 4 {
        return Err("\"trojans\" must cover all four digital Trojans".into());
    }
    let mut detected_rows = 0u64;
    for (i, t) in trojans.iter().enumerate() {
        (|| {
            expect_str(t, "trojan")?;
            expect_number(t, "alarm_rate_selfcal")?;
            expect_number(t, "alarm_rate_golden")?;
            detected_rows += u64::from(expect_bool(t, "detected")?);
            Ok::<(), String>(())
        })()
        .map_err(|e| format!("trojans[{i}]: {e}"))?;
    }
    if detected != detected_rows {
        return Err(format!(
            "\"detected\" {detected} disagrees with the per-Trojan rows ({detected_rows})"
        ));
    }
    if detected < 3 {
        return Err(format!(
            "\"detected\" {detected} — at least 3 of 4 Trojans must be caught with zero golden traces"
        ));
    }
    Ok(())
}

fn check_forensics(doc: &Value) -> Result<(), String> {
    check_provenance(doc)?;
    expect_u64(doc, "n_golden")?;
    expect_u64(doc, "window_blocks")?;
    let pre = expect_u64(doc, "pre_windows")?;
    let post = expect_u64(doc, "post_windows")?;
    expect_u64(doc, "correlation_id")?;
    let records = expect_u64(doc, "flight_records")?;
    let trigger = expect_u64(doc, "trigger_offset")?;
    if records != pre + 1 + post {
        return Err(format!(
            "\"flight_records\" {records} must equal pre + trigger + post ({})",
            pre + 1 + post
        ));
    }
    if trigger != pre {
        return Err(format!(
            "\"trigger_offset\" {trigger} must equal \"pre_windows\" {pre} — \
             the pre-context must be fully frozen"
        ));
    }
    if !expect_bool(doc, "trigger_alarmed")? {
        return Err("\"trigger_alarmed\" must be true".into());
    }
    if expect_number(doc, "trigger_margin")? <= 0.0 {
        return Err("\"trigger_margin\" must be positive — the firing detector's evidence".into());
    }
    if expect_u64(doc, "decision_count")? == 0 {
        return Err("\"decision_count\" must be > 0".into());
    }
    if expect_u64(doc, "rejected_count")? == 0 {
        return Err("\"rejected_count\" must be > 0 — the defective trace must log".into());
    }
    let rows = expect_u64(doc, "array_rows")?;
    let cols = expect_u64(doc, "array_cols")?;
    if !expect_bool(doc, "array_alarmed")? {
        return Err("\"array_alarmed\" must be true — the armed campaign must alarm".into());
    }
    let tiles = expect_array(doc, "tiles")?;
    if tiles.len() as u64 != rows * cols {
        return Err("one \"tiles\" entry per array tile required".into());
    }
    for (i, t) in tiles.iter().enumerate() {
        (|| {
            expect_u64(t, "row")?;
            expect_u64(t, "col")?;
            expect_number(t, "margin")?;
            expect_number(t, "alarm_rate")?;
            Ok::<(), String>(())
        })()
        .map_err(|e| format!("tiles[{i}]: {e}"))?;
    }
    Ok(())
}

/// Validates one decision-log line, returning whether it carries a
/// fused alarm.
fn check_decision_line(rec: &Value) -> Result<bool, String> {
    let domain = expect_str(rec, "domain")?;
    if !matches!(domain, "trace" | "window" | "array" | "fleet") {
        return Err(format!("unknown decision domain \"{domain}\""));
    }
    let verdict = expect_str(rec, "verdict")?;
    if verdict == "rejected" {
        expect_str(rec, "reject_reason")?;
    }
    expect_str(rec, "health")?;
    let detectors = expect_array(rec, "detectors")?;
    for (i, d) in detectors.iter().enumerate() {
        (|| {
            expect_str(d, "detector")?;
            expect_number(d, "statistic")?;
            expect_number(d, "threshold")?;
            expect_number(d, "margin")?;
            expect_bool(d, "suspected")?;
            Ok::<(), String>(())
        })()
        .map_err(|e| format!("detectors[{i}]: {e}"))?;
    }
    let fused = expect_bool(rec, "fused_alarm")?;
    if fused && domain != "array" {
        expect_u64(rec, "correlation_id")?;
    }
    if let Some(tiles) = rec.get("tiles") {
        let tiles = tiles
            .as_array()
            .ok_or_else(|| "\"tiles\" must be an array".to_string())?;
        for (i, t) in tiles.iter().enumerate() {
            (|| {
                expect_u64(t, "row")?;
                expect_u64(t, "col")?;
                expect_number(t, "margin")?;
                expect_number(t, "alarm_rate")?;
                Ok::<(), String>(())
            })()
            .map_err(|e| format!("tiles[{i}]: {e}"))?;
        }
    }
    Ok(fused)
}

fn check_jsonl_file(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read failed: {e}"))?;
    let mut records = 0usize;
    let mut alarmed = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec = Value::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let fused = check_decision_line(&rec).map_err(|e| format!("line {}: {e}", i + 1))?;
        records += 1;
        alarmed += usize::from(fused);
    }
    if records == 0 {
        return Err("the decision log must not be empty".into());
    }
    if alarmed == 0 {
        return Err("the decision log must contain at least one fused alarm".into());
    }
    Ok(())
}

fn check_file(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read failed: {e}"))?;
    let doc = Value::parse(&text).map_err(|e| e.to_string())?;
    match expect_str(&doc, "benchmark")? {
        "telemetry_table1_sweep" => check_telemetry(&doc),
        "golden_collect_fit" => check_parallel(&doc),
        "fault_injection_sweep" => check_faults(&doc),
        "fleet_ingestion" => check_fleet(&doc),
        "localization" => check_localization(&doc),
        "reference_free" => check_reference_free(&doc),
        "forensics" => check_forensics(&doc),
        other => Err(format!("unknown benchmark kind \"{other}\"")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut jsonl = false;
    let mut failed = false;
    let mut checked = 0usize;
    for arg in &args {
        if arg == "--jsonl" {
            jsonl = true;
            continue;
        }
        checked += 1;
        let result = if jsonl {
            check_jsonl_file(arg)
        } else {
            check_file(arg)
        };
        match result {
            Ok(()) => println!("{arg}: ok"),
            Err(e) => {
                eprintln!("{arg}: FAIL — {e}");
                failed = true;
            }
        }
    }
    if checked == 0 {
        eprintln!("usage: check_bench_schema <file.json>... [--jsonl <file.jsonl>...]");
        std::process::exit(2);
    }
    std::process::exit(if failed { 1 } else { 0 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn provenance(rev: &str) -> Result<(), String> {
        let doc =
            format!("{{\"benchmark\": \"x\", \"timestamp_unix\": 1, \"git_rev\": \"{rev}\"}}");
        check_provenance(&Value::parse(&doc).expect("valid JSON"))
    }

    #[test]
    fn placeholder_revisions_are_rejected() {
        for rev in ["dev", "unknown", ""] {
            assert!(provenance(rev).is_err(), "{rev:?} must be rejected");
        }
        // Too short, too long, or not lowercase hex.
        for rev in ["86169e", &"a".repeat(41), "86169E1", "86169g1"] {
            assert!(provenance(rev).is_err(), "{rev:?} must be rejected");
        }
    }

    #[test]
    fn commit_hashes_are_accepted() {
        assert!(provenance("86169e1").is_ok());
        assert!(provenance("0d45ae531ae9479eedf75cb5121b8f5a6042bde7").is_ok());
    }
}
