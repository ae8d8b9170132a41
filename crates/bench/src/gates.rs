//! Declarative gates over the bench artifacts: every check
//! `check_bench_schema` and `check_bench_regression` make is a [`Row`] —
//! field paths (`a.b`; `xs[]` fans out over an array, `k?` may be
//! missing), a JSON [`Ty`]pe and a [`Bound`] that may name another field
//! (`results[].effective_workers ≤ host_cpus`; its `[]` is the row's own
//! element). Rules that need a sum or a count are named [`Invariant`]s.
//! To add a gate, add a row to its table, e.g. `row("p95_ingest_us",
//! U64, Le(lit(50_000.0)))`: the mutant test in `tests/gates.rs` then
//! proves it can fail. Unknown extra fields are allowed.

use crate::json::Value;
use Bound::*;
use Ty::*;

/// The JSON type a gated field must have; `U64` is a non-negative integer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[rustfmt::skip]
pub enum Ty { U64, Num, Str, Bool, Array, Object }

impl Ty {
    /// Whether `v` has this type.
    pub fn admits(self, v: &Value) -> bool {
        match self {
            U64 => v.as_u64().is_some(),
            Num => v.as_f64().is_some(),
            Str => v.as_str().is_some(),
            Bool => v.as_bool().is_some(),
            Array => v.as_array().is_some(),
            Object => v.as_object().is_some(),
        }
    }
}

/// A comparison's right-hand side: `scale · field + add` (an array field
/// counts its elements), or `add` alone.
#[derive(Debug, Clone, Copy)]
pub struct Operand(&'static str, f64, f64);

/// The literal `value`.
pub const fn lit(value: f64) -> Operand {
    lin(0.0, "", value)
}
/// The value of `field`.
pub const fn at(field: &'static str) -> Operand {
    lin(1.0, field, 0.0)
}
/// `scale · field + add`.
pub const fn lin(scale: f64, field: &'static str, add: f64) -> Operand {
    Operand(field, scale, add)
}

/// What a gated value must satisfy once its type is right: nothing
/// more, a comparison, lie in `[0, 1]`, be the given boolean, be a
/// non-empty array or one of `n` elements, be one of the listed strings,
/// or be a commit hash (7–40 lowercase hex characters, so an artifact
/// generated outside a real checkout, `"unknown"` or `"dev"`, fails).
#[derive(Debug, Clone, Copy)]
#[rustfmt::skip]
pub enum Bound {
    Any, Gt(Operand), Ge(Operand), Le(Operand), Lt(Operand), Eq(Operand),
    Unit, Is(bool), NonEmpty, Len(usize), OneOf(&'static [&'static str]), CommitHash,
}

impl Bound {
    /// The comparison's right-hand side at element `idx` of `doc`, else NaN.
    pub fn rhs(&self, doc: &Value, idx: &[usize]) -> Result<f64, String> {
        let (Gt(o) | Ge(o) | Le(o) | Lt(o) | Eq(o)) = *self else {
            return Ok(f64::NAN);
        };
        let Operand(field, scale, add) = o;
        if field.is_empty() {
            return Ok(add);
        }
        let x = match resolve(doc, field, idx)?.as_slice() {
            [(_, _, Some(v))] => v.as_f64().or(v.as_array().map(|a| a.len() as f64)),
            _ => None,
        };
        Ok(scale * x.ok_or(format!("\"{field}\" must be Num"))? + add)
    }

    /// Whether `v` at element `idx` of `doc` meets the bound; `Err` says how.
    fn meet(&self, v: &Value, doc: &Value, idx: &[usize]) -> Result<(), String> {
        let rhs = self.rhs(doc, idx)?;
        let (x, s, a) = (v.as_f64().unwrap_or(f64::NAN), v.as_str(), v.as_array());
        let hex = |s: &str| s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
        let cmp = |op: &str, Operand(field, ..)| match field {
            "" => format!("{op} {rhs}"),
            field => format!("{op} {field} = {rhs}"),
        };
        let (met, want) = match *self {
            Gt(o) => (x > rhs, cmp(">", o)),
            Ge(o) => (x >= rhs, cmp("≥", o)),
            Le(o) => (x <= rhs, cmp("≤", o)),
            Lt(o) => (x < rhs, cmp("<", o)),
            Eq(o) => (x == rhs, cmp("==", o)),
            other => (
                match other {
                    Unit => (0.0..=1.0).contains(&x),
                    Is(b) => v.as_bool() == Some(b),
                    NonEmpty => a.is_some_and(|a| !a.is_empty()),
                    Len(n) => a.is_some_and(|a| a.len() == n),
                    OneOf(set) => s.is_some_and(|s| set.contains(&s)),
                    CommitHash => s.is_some_and(|s| (7..=40).contains(&s.len()) && hex(s)),
                    _ => true,
                },
                format!("{other:?}"),
            ),
        };
        met.then_some(())
            .ok_or(format!("{} must be {want}", show(v)))
    }
}

/// One gate: each of the whitespace-separated `paths` has type `ty` and
/// meets `bound`, wherever the optional `when` guard holds.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    paths: &'static str,
    pub ty: Ty,
    pub bound: Bound,
    when: Option<(&'static str, Bound)>,
}

/// An unguarded row.
#[rustfmt::skip]
pub const fn row(paths: &'static str, ty: Ty, bound: Bound) -> Row {
    Row { paths, ty, bound, when: None }
}

/// Where a path leads: concrete path (`xs[3].k`), indices bound, value (`None` if missing).
pub type Site<'a> = (String, Vec<usize>, Option<&'a Value>);

impl Row {
    /// This row, applied only where the same element's `path` meets `bound`.
    pub const fn when(mut self, path: &'static str, bound: Bound) -> Row {
        self.when = Some((path, bound));
        self
    }

    /// The row's field paths.
    pub fn paths(&self) -> impl Iterator<Item = &'static str> {
        self.paths.split_whitespace()
    }

    /// The sites of `path` (one of [`Self::paths`]) in `doc` this row
    /// applies to, or the first missing or mistyped container on the way.
    pub fn sites<'a>(&self, doc: &'a Value, path: &str) -> Result<Vec<Site<'a>>, String> {
        let mut sites = resolve(doc, path, &[])?;
        if let Some((guard, bound)) = self.when {
            sites.retain(|(_, idx, _)| match resolve(doc, guard, idx).as_deref() {
                Ok([(_, _, Some(g))]) => bound.meet(g, doc, idx).is_ok(),
                _ => false,
            });
        }
        Ok(sites)
    }

    fn check(&self, doc: &Value, failures: &mut Vec<String>) {
        let guard = self.when.map(|(g, _)| format!(" (guarded by {g})"));
        for path in self.paths() {
            let sites = self.sites(doc, path).map_err(|e| failures.push(e));
            for (path, idx, value) in sites.unwrap_or_default() {
                let verdict = match value {
                    None => Err("is missing".to_string()),
                    Some(v) if !self.ty.admits(v) => Err(format!("must be {:?}", self.ty)),
                    Some(v) => self.bound.meet(v, doc, &idx),
                };
                let guard = guard.as_deref().unwrap_or_default();
                failures.extend(verdict.err().map(|f| format!("\"{path}\" {f}{guard}")));
            }
        }
    }
}

/// A named rule over several fields: the number it derives must meet the bound.
pub type Invariant = (&'static str, Bound, fn(&Value) -> Option<f64>);

/// The rows and invariants a document must meet; `name` is its `benchmark`.
#[derive(Debug, Clone, Copy)]
pub struct Table {
    pub name: &'static str,
    pub rows: &'static [Row],
    pub invariants: &'static [Invariant],
}

impl Table {
    /// Every failure of `doc`, each naming its path or invariant.
    pub fn check(&self, doc: &Value) -> Vec<String> {
        let mut failures = Vec::new();
        for row in self.rows {
            row.check(doc, &mut failures);
        }
        for (name, bound, value) in self.invariants {
            let verdict = value(doc).ok_or("cannot be derived".to_string());
            let verdict = verdict.and_then(|x| bound.meet(&Value::Number(x), doc, &[]));
            failures.extend(verdict.err().map(|f| format!("{name}: {f}")));
        }
        failures
    }
}

/// Reads and parses one JSON document, or says why it cannot.
pub fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: read failed: {e}"))?;
    Value::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Checks a bench artifact: [`PROVENANCE`], then the [`SCHEMAS`] table
/// its `benchmark` field names.
pub fn check_artifact(doc: &Value) -> Vec<String> {
    let mut failures = PROVENANCE.check(doc);
    if let Some(kind) = doc.get("benchmark").and_then(Value::as_str) {
        match SCHEMAS.iter().find(|t| t.name == kind) {
            Some(table) => failures.extend(table.check(doc)),
            None => failures.push(format!("unknown benchmark kind \"{kind}\"")),
        }
    }
    failures
}

/// Checks a decision log (`TELEMETRY_decisions.jsonl`, one JSON
/// `DecisionRecord` per line) against [`DECISION_LOG`], as the document
/// `{"records": [...]}`.
pub fn check_decision_log(text: &str) -> Vec<String> {
    let lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let parsed = lines.map(|(i, l)| Value::parse(l).map_err(|e| format!("line {}: {e}", i + 1)));
    match parsed.collect::<Result<Vec<_>, _>>() {
        Ok(r) => DECISION_LOG.check(&Value::Object(vec![("records".into(), Value::Array(r))])),
        Err(e) => vec![e],
    }
}

/// The numbers at `path`, one per site, or the first site that is none.
pub fn numbers(doc: &Value, path: &str) -> Result<Vec<f64>, String> {
    let sites = resolve(doc, path, &[])?.into_iter();
    let number = |(p, _, v): Site| {
        v.and_then(Value::as_f64)
            .ok_or(format!("\"{p}\" must be Num"))
    };
    sites.map(number).collect()
}

/// Resolves `path` into its sites. `xs[]` fans out over every element
/// unless `bind` fixes the index; a missing `k?` yields no site.
fn resolve<'a>(doc: &'a Value, path: &str, bind: &[usize]) -> Result<Vec<Site<'a>>, String> {
    let mut sites = vec![(String::new(), Vec::new(), Some(doc))];
    for seg in path.split('.') {
        let (key, fan) = seg.strip_suffix("[]").map_or((seg, false), |k| (k, true));
        let (key, optional) = key.strip_suffix('?').map_or((key, false), |k| (k, true));
        let mut next = Vec::new();
        for (at, idx, v) in sites {
            let here = [at.as_str(), key].join(if at.is_empty() { "" } else { "." });
            let v = v.ok_or(format!("\"{at}\" is missing"))?;
            v.as_object().ok_or(format!("\"{at}\" must be Object"))?;
            match (v.get(key), fan) {
                (None, _) if optional => {}
                (child, false) | (child @ None, true) => next.push((here, idx, child)),
                (Some(child), true) => {
                    let items = child
                        .as_array()
                        .ok_or(format!("\"{here}\" must be Array"))?;
                    for i in bind.get(idx.len()).map_or(0..items.len(), |&i| i..i + 1) {
                        let idx = [idx.as_slice(), &[i]].concat();
                        next.push((format!("{here}[{i}]"), idx, items.get(i)));
                    }
                }
            }
        }
        sites = next;
    }
    Ok(sites)
}

fn show(v: &Value) -> String {
    match v {
        Value::Number(n) => n.to_string(),
        Value::Str(s) => format!("{s:?}"),
        Value::Bool(b) => b.to_string(),
        Value::Array(items) => format!("[{} items]", items.len()),
        other => format!("{other:?}"),
    }
}

fn num(v: &Value, key: &str) -> Option<f64> {
    v.get(key)?.as_f64()
}

/// How many elements of the array `key` satisfy `pred`.
fn count(doc: &Value, key: &str, pred: impl Fn(&Value) -> bool) -> Option<f64> {
    Some(doc.get(key)?.as_array()?.iter().filter(|v| pred(v)).count() as f64)
}

fn flag(v: &Value, key: &str) -> bool {
    v.get(key) == Some(&Value::Bool(true))
}

/// Minimum allowed speedup for any `workers > 1` row.
pub const MIN_SPEEDUP: f64 = 0.95;
/// Minimum allowed hot-path before/after ratio.
pub const MIN_HOT_RATIO: f64 = 1.3;

const POS: Bound = Gt(lit(0.0));

/// Provenance every bench artifact carries.
#[rustfmt::skip]
pub const PROVENANCE: Table = Table { name: "provenance", rows: &[
    row("benchmark", Str, Any), row("timestamp_unix", U64, Any), row("git_rev", Str, CommitHash),
], invariants: &[] };

/// One table per artifact kind, applied by `check_bench_schema` after
/// [`PROVENANCE`].
#[rustfmt::skip]
pub const SCHEMAS: &[Table] = &[
    Table { name: "telemetry_table1_sweep", rows: &[
        row("n_golden n_suspect_per_trojan series_overflowed stages[].count", U64, Any),
        row("null_seconds recorded_seconds disabled_seconds forensic_seconds", Num, Any),
        row("disabled_overhead_pct", Num, Le(lit(2.0))), // disabled-path budget
        row("forensics_overhead_pct", Num, Le(lit(5.0))), // fully-enabled budget
        row("decision_count flight_window_count labeled_series", U64, POS),
        row("stages", Array, NonEmpty), row("stages[].span", Str, Any),
        row("overhead_pct stages[].total_ns stages[].mean_ns stages[].max_ns", Num, Any),
        row("alarms", Object, Any), row("alarms.total", U64, POS), // the sweep must alarm
        row("alarms.time_domain alarms.spectral alarms.first_correlation_id", U64, Any),
        row("forensics", Array, Any), row("forensics[].correlation_id", U64, Any),
        row("forensics[].fused_alarm", Bool, Is(true)),
        row("forensics[].detectors", Array, NonEmpty),
    ], invariants: &[
        ("one_record_per_alarm", Eq(at("forensics")), |d| num(d.get("alarms")?, "total")),
        ("first_record_is_the_first_alarm", Eq(at("alarms.first_correlation_id")), |d| {
            num(d.get("forensics")?.as_array()?.first()?, "correlation_id")
        }),
    ] },
    Table { name: "golden_collect_fit", rows: &[
        row("n_traces host_cpus", U64, Any), row("auto_tuned hot_path", Object, Any),
        row("auto_tuned.workers results[].effective_workers", U64, Ge(lit(1.0))),
        row("auto_tuned.workers results[].effective_workers", U64, Le(at("host_cpus"))),
        row("auto_tuned.chunk_size", U64, POS),
        row("results", Array, NonEmpty), row("results[].workers", U64, Any),
        row("results[].seconds results[].traces_per_sec results[].speedup", Num, Any),
        row("hot_path.sensors", U64, Any),
        row("hot_path.synth_before_seconds hot_path.synth_after_seconds", Num, POS),
        row("hot_path.scan_before_seconds hot_path.scan_after_seconds", Num, POS),
        row("hot_path.before_seconds hot_path.after_seconds hot_path.ratio", Num, POS),
    ], invariants: &[] },
    Table { name: "fault_injection_sweep", rows: &[
        row("n_golden n_suspect baseline.scored baseline.alarms", U64, Any),
        row("default_intensity baseline.false_alarm_rate", Num, Any),
        row("baseline recovery", Object, Any),
        row("clean_bit_identical robust_matches_collect", Bool, Is(true)),
        row("scenarios", Array, NonEmpty), row("scenarios[].fault scenarios[].health", Str, Any),
        row("scenarios[].intensity scenarios[].false_alarm_rate", Num, Any),
        row("scenarios[].traces scenarios[].clean scenarios[].degraded", U64, Any),
        row("scenarios[].rejected scenarios[].scored scenarios[].alarms", U64, Any),
        row("scenarios[].false_alarm_rate", Num, Le(lin(2.0, "baseline.false_alarm_rate", 1e-12)))
            .when("scenarios[].intensity", Eq(at("default_intensity"))), // ≤ 2× the baseline
        row("scenarios[].panicked", Bool, Is(false)), row("scenarios[].accounted", Bool, Is(true)),
        row("recovery.retries recovery.fallbacks recovery.backoff_total_us", U64, Any),
        row("recovery.rejected", U64, Eq(lit(0.0))), // the storm must clear
    ], invariants: &[
        ("scenarios_not_accounted", Eq(lit(0.0)), |d| {
            let sum = |s: &_| Some(num(s, "clean")? + num(s, "degraded")? + num(s, "rejected")?);
            count(d, "scenarios", |s| sum(s) != num(s, "traces"))
        }),
    ] },
    Table { name: "fleet_ingestion", rows: &[
        row("n_chips", U64, Ge(lit(10_000.0))), // the 10k-chip floor
        row("n_poisoned rounds batch_traces shards queue_capacity traces_offered", U64, Any),
        row("chips_tracked", U64, Ge(lin(1.0, "n_chips", -100.0))), // at most 100 chips lost
        row("traces_delivered", U64, Le(lin(2.0, "traces_offered", 0.0))), // ≤ 2× duplication
        row("elapsed_s alarm_rate", Num, Any), row("traces_per_sec", Num, POS),
        row("p50_ingest_us max_ingest_us leakage_probe.healthy_chips", U64, Any),
        row("p99_ingest_us", U64, Le(lit(100_000.0))), // the 100 ms sanity ceiling
        row("max_queue_depth", U64, Le(lin(1.0, "queue_capacity", 1.0))), // +1 in transit
        row("bounded_queue zero_panics leakage_bit_identical", Bool, Is(true)),
        row("admissions transport store breakers leakage_probe", Object, Any),
        row("admissions.admitted admissions.throttled admissions.shed", U64, Any),
        row("admissions.quarantined transport.offered transport.dropped", U64, Any),
        row("transport.duplicated transport.reordered transport.corrupted", U64, Any),
        row("transport.delivered transport.delay_us store.fits store.refits", U64, Any),
        row("store.evictions store.hot store.cold breakers.refusals", U64, Any),
        row("breakers.tripped_chips", U64, POS), // the poison cohort must trip
        row("leakage_probe.victim_tripped leakage_probe.bit_identical", Bool, Is(true)),
    ], invariants: &[] },
    Table { name: "localization", rows: &[
        row("rows cols sensors turns n_golden n_suspect_per_trojan", U64, Any),
        row("single_seconds array_seconds per_sensor_overhead_pct auroc_gate", Num, Any),
        row("hit_at_1", U64, Ge(lit(2.0))), // at least two Trojans at rank 1
        row("hit_at_3", U64, Eq(at("trojans"))), // every Trojan within the top 3
        row("trojans attribution", Array, Len(4)),
        row("trojans[].trojan trojans[].region trojans[].top_region", Str, Any),
        row("trojans[].hit1 trojans[].hit3", Bool, Any),
        row("trojans[].alarm_rate trojans[].centroid_x_um trojans[].centroid_y_um", Num, Any),
        row("auroc_passing", U64, Ge(lit(3.0))), // held-out AUROC > auroc_gate on ≥ 3 of 4
        row("attribution[].trojan attribution[].region", Str, Any),
        row("attribution[].cells", U64, Any), row("attribution[].true_cells", U64, POS),
        row("attribution[].true_cells", U64, Lt(at("attribution[].cells"))),
        row("attribution[].precision_at_10 attribution[].precision_at_50", Num, Unit),
        row("attribution[].recall_at_50 attribution[].auroc attribution[].iou", Num, Unit),
    ], invariants: &[
        ("sensors_tile_the_grid", Eq(at("sensors")), |d| Some(num(d, "rows")? * num(d, "cols")?)),
        ("auroc_passing_counts_the_folds", Eq(at("auroc_passing")), |d| {
            let gate = num(d, "auroc_gate")?;
            count(d, "attribution", |f| num(f, "auroc").is_some_and(|a| a > gate))
        }),
    ] },
    Table { name: "reference_free", rows: &[
        row("n_warmup n_eval n_suspect_per_trojan", U64, Any),
        row("mad_multiplier false_alarm_rate_selfcal false_alarm_rate_golden", Num, Any),
        row("false_alarm_gap trojans[].alarm_rate_selfcal trojans[].alarm_rate_golden", Num, Any),
        row("golden_traces_used", U64, Eq(lit(0.0))), // the run is reference-free
        row("reference_free", Bool, Is(true)), row("trojans", Array, Len(4)),
        row("warmup_alarms", U64, Eq(lit(0.0))), // nothing alarms while calibrating
        row("detected", U64, Ge(lit(3.0))), // at least 3 of 4 Trojans
        row("trojans[].trojan", Str, Any),
        row("trojans[].detected", Bool, Any),
    ], invariants: &[
        ("detected_counts_the_rows", Eq(at("detected")), |d| {
            count(d, "trojans", |t| flag(t, "detected"))
        }),
    ] },
    Table { name: "forensics", rows: &[
        row("n_golden window_blocks pre_windows post_windows", U64, Any),
        row("correlation_id flight_records array_rows array_cols", U64, Any),
        row("trigger_offset", U64, Eq(at("pre_windows"))), // the pre-context is fully frozen
        row("trigger_alarmed array_alarmed", Bool, Is(true)),
        row("trigger_margin", Num, POS), // the firing detector's evidence
        row("decision_count rejected_count", U64, POS), // the defective trace logs too
        row("tiles", Array, Any), row("tiles[].row tiles[].col", U64, Any),
        row("tiles[].margin tiles[].alarm_rate", Num, Any),
    ], invariants: &[
        ("flight_records_span_the_window", Eq(at("flight_records")), |d| {
            Some(num(d, "pre_windows")? + 1.0 + num(d, "post_windows")?)
        }),
        ("one_tile_per_array_cell", Eq(at("tiles")), |d| {
            Some(num(d, "array_rows")? * num(d, "array_cols")?)
        }),
    ] },
];

/// The decision log's rules (see [`check_decision_log`]).
#[rustfmt::skip]
pub const DECISION_LOG: Table = Table { name: "decision_log", rows: &[
    row("records[].domain", Str, OneOf(&["trace", "window", "array", "fleet"])),
    row("records[].verdict records[].health", Str, Any),
    row("records[].reject_reason", Str, Any).when("records[].verdict", OneOf(&["rejected"])),
    row("records[].detectors records[].tiles?", Array, Any),
    row("records[].detectors[].detector", Str, Any),
    row("records[].detectors[].statistic records[].detectors[].threshold", Num, Any),
    row("records[].detectors[].margin", Num, Any),
    row("records[].detectors[].suspected records[].fused_alarm", Bool, Any),
    row("records[].tiles?[].row records[].tiles?[].col", U64, Any),
    row("records[].tiles?[].margin records[].tiles?[].alarm_rate", Num, Any),
], invariants: &[
    ("fused_alarms_without_a_correlation_id", Eq(lit(0.0)), |d| count(d, "records", |r| {
        let array = r.get("domain").and_then(Value::as_str) == Some("array");
        let id = r.get("correlation_id").and_then(Value::as_u64);
        flag(r, "fused_alarm") && !array && id.is_none()
    })),
    ("fused_alarms", Ge(lit(1.0)), |d| count(d, "records", |r| flag(r, "fused_alarm"))),
] };

/// What `check_bench_regression` demands of both the current run and
/// the baseline.
#[rustfmt::skip]
pub const RUN: Table = Table { name: "regression_run", rows: &[
    row("benchmark", Str, OneOf(&["golden_collect_fit"])), row("host_cpus", U64, Any),
], invariants: &[] };

/// The floors `check_bench_regression` holds the current run to. The
/// pool's host clamp keeps oversubscription from regressing below 1×, so
/// a `workers > 1` speedup under the floor is a scaling bug; the
/// hot-path ratio shows the cached charge bins keep paying for
/// themselves.
#[rustfmt::skip]
pub const REGRESSION: Table = Table { name: "regression", rows: &[
    row("results[].speedup", Num, Ge(lit(MIN_SPEEDUP))).when("results[].workers", Gt(lit(1.0))),
    row("hot_path.ratio", Num, Ge(lit(MIN_HOT_RATIO))),
], invariants: &[] };

#[cfg(test)]
mod tests {
    use super::*;

    fn provenance(rev: &str) -> Vec<String> {
        let doc =
            format!("{{\"benchmark\": \"x\", \"timestamp_unix\": 1, \"git_rev\": \"{rev}\"}}");
        PROVENANCE.check(&Value::parse(&doc).expect("valid JSON"))
    }

    #[test]
    fn placeholder_revisions_are_rejected() {
        for rev in ["dev", "unknown", ""] {
            assert_eq!(provenance(rev).len(), 1, "{rev:?} must be rejected");
        }
        // Too short, too long, or not lowercase hex.
        for rev in ["86169e", &"a".repeat(41), "86169E1", "86169g1"] {
            assert_eq!(provenance(rev).len(), 1, "{rev:?} must be rejected");
        }
    }

    #[test]
    fn commit_hashes_are_accepted() {
        assert!(provenance("86169e1").is_empty());
        assert!(provenance("0d45ae531ae9479eedf75cb5121b8f5a6042bde7").is_empty());
    }

    #[test]
    fn paths_fan_out_bind_and_name_their_element() {
        let doc = Value::parse(r#"{"n": 2, "xs": [{"k": 1, "m": 3}, {"k": 3, "m": 3}], "o": {}}"#)
            .expect("valid JSON");
        let fails = |r: Row| {
            let mut failures = Vec::new();
            r.check(&doc, &mut failures);
            failures
        };
        assert_eq!(
            fails(row("xs[].k", U64, Le(at("n")))),
            ["\"xs[1].k\" 3 must be ≤ n = 2"]
        );
        assert_eq!(fails(row("xs[].k", U64, Lt(at("xs[].m")))).len(), 1);
        assert!(fails(row("xs[].k", U64, Le(lin(2.0, "n", -1.0)))).is_empty());
        let guarded = row("xs[].m", U64, Eq(lit(0.0))).when("xs[].k", Gt(lit(1.0)));
        assert_eq!(
            fails(guarded),
            ["\"xs[1].m\" 3 must be == 0 (guarded by xs[].k)"]
        );
        assert!(fails(row("o.k?", U64, Any)).is_empty());
        assert_eq!(fails(row("o.k", U64, Any)), ["\"o.k\" is missing"]);
        assert_eq!(fails(row("n.k", U64, Any)), ["\"n\" must be Object"]);
        assert_eq!(
            fails(row("n xs[].k", Str, Any)).len(),
            3,
            "every path of a row"
        );
        assert_eq!(numbers(&doc, "xs[].m"), Ok(vec![3.0, 3.0]));
    }
}
