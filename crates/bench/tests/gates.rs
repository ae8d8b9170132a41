//! Every gate can fail. The committed artifacts pass every table; then,
//! for every row of every table, mutants of them — the field removed,
//! given the wrong type, or moved to the nearest value past its bound —
//! must each fail with a message naming the mutated field's path, and
//! one mutant per invariant must fail with a message naming it.

use emtrust::telemetry::sink::json_escape;
use emtrust_bench::gates::{
    self, Bound, Row, Table, Ty, DECISION_LOG, PROVENANCE, REGRESSION, RUN, SCHEMAS,
};
use emtrust_bench::json::Value;
use std::path::PathBuf;

/// Every committed bench artifact `check_bench_schema` validates.
const ARTIFACTS: [&str; 8] = [
    "BENCH_parallel.json",
    "BENCH_telemetry.json",
    "BENCH_forensics.json",
    "BENCH_faults.json",
    "BENCH_fleet.json",
    "BENCH_localization.json",
    "BENCH_reference_free.json",
    "BENCH_baseline.json",
];
const DECISIONS: &str = "TELEMETRY_decisions.jsonl";
/// The committed `BENCH_parallel.json` sits below the speedup floor (its
/// timed pass is too short to scale on a 2-CPU host), so the regression
/// tables are proven on the baseline run, checked against itself.
const REGRESSION_RUN: &str = "BENCH_baseline.json";

fn read(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn parse(text: &str) -> Value {
    Value::parse(text).expect("committed artifacts are valid JSON")
}

/// A table and the committed document it is proven on.
struct Case {
    table: Table,
    file: &'static str,
    doc: Value,
}

fn cases() -> Vec<Case> {
    let mut cases = Vec::new();
    for file in ARTIFACTS {
        let doc = parse(&read(file));
        let kind = doc.get("benchmark").and_then(Value::as_str);
        let table = *SCHEMAS
            .iter()
            .find(|t| Some(t.name) == kind)
            .expect("known kind");
        cases.push(Case {
            table: PROVENANCE,
            file,
            doc: doc.clone(),
        });
        cases.push(Case { table, file, doc });
    }
    let records = read(DECISIONS)
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(parse)
        .collect();
    let doc = Value::Object(vec![("records".into(), Value::Array(records))]);
    cases.push(Case {
        table: DECISION_LOG,
        file: DECISIONS,
        doc,
    });
    for table in [RUN, REGRESSION] {
        let doc = parse(&read(REGRESSION_RUN));
        cases.push(Case {
            table,
            file: REGRESSION_RUN,
            doc,
        });
    }
    cases
}

/// The member of `v` at the concrete path (`a.b[3].c`; `""` is `v`).
fn slot<'a>(mut v: &'a mut Value, path: &str) -> &'a mut Value {
    for seg in path.split('.').filter(|s| !s.is_empty()) {
        let (key, index) = match seg.split_once('[') {
            Some((key, i)) => (
                key,
                Some(i.trim_end_matches(']').parse::<usize>().expect("index")),
            ),
            None => (seg, None),
        };
        let Value::Object(members) = v else {
            panic!("{path}: {key} is not in an object")
        };
        v = &mut members
            .iter_mut()
            .find(|(k, _)| k == key)
            .expect("member")
            .1;
        if let Some(i) = index {
            let Value::Array(items) = v else {
                panic!("{path}: {key} is not an array")
            };
            v = &mut items[i];
        }
    }
    v
}

/// `doc` with the field at the concrete `path` set to `value`, or
/// removed when `value` is `None`.
fn edit(doc: &Value, path: &str, value: Option<Value>) -> Value {
    let mut doc = doc.clone();
    let (parent, key) = path.rsplit_once('.').unwrap_or(("", path));
    let Value::Object(members) = slot(&mut doc, parent) else {
        panic!("{path}")
    };
    let at = members.iter().position(|(k, _)| k == key).expect("member");
    match value {
        Some(v) => members[at].1 = v,
        None => drop(members.remove(at)),
    }
    doc
}

fn wrong_type(ty: Ty) -> Value {
    match ty {
        Ty::U64 => Value::Number(0.5),
        Ty::Num => Value::Str("0".into()),
        Ty::Str => Value::Number(0.0),
        Ty::Bool => Value::Str("true".into()),
        Ty::Array => Value::Object(Vec::new()),
        Ty::Object => Value::Array(Vec::new()),
    }
}

/// The nearest values of the row's type that break its bound, `rhs`
/// being the bound's evaluated operand.
fn breaking(row: &Row, v: &Value, rhs: f64) -> Vec<Value> {
    let int = row.ty == Ty::U64;
    let num = |x: f64, y: f64| vec![Value::Number(if int { x } else { y })];
    match row.bound {
        Bound::Any => Vec::new(),
        Bound::Gt(_) => num(rhs.floor(), rhs),
        Bound::Ge(_) => num(rhs.ceil() - 1.0, rhs.next_down()),
        Bound::Le(_) => num(rhs.floor() + 1.0, rhs.next_up()),
        Bound::Lt(_) => num(rhs.ceil(), rhs),
        Bound::Eq(_) => num(rhs + 1.0, rhs.next_up()),
        Bound::Unit => vec![
            Value::Number(0f64.next_down()),
            Value::Number(1f64.next_up()),
        ],
        Bound::Is(b) => vec![Value::Bool(!b)],
        Bound::NonEmpty => vec![Value::Array(Vec::new())],
        Bound::Len(n) => vec![Value::Array(v.as_array().expect("array")[..n - 1].to_vec())],
        Bound::OneOf(_) => vec![Value::Str("bogus".into())],
        Bound::CommitHash => {
            let rev = v.as_str().expect("string");
            let last = rev.len() - 1;
            vec![
                Value::Str(rev[..6].into()),
                Value::Str(format!("{}g", &rev[..last])),
            ]
        }
    }
}

/// Breaks the invariant `name` in `doc`.
fn break_invariant(name: &str, doc: &mut Value) {
    let bump = |v: &mut Value| *v = Value::Number(v.as_f64().expect("number") + 1.0);
    let pop = |v: &mut Value| {
        if let Value::Array(items) = v {
            items.pop();
        }
    };
    let records = |doc: &mut Value| match slot(doc, "records") {
        Value::Array(records) => records.clone(),
        _ => panic!("records"),
    };
    match name {
        "one_record_per_alarm" => pop(slot(doc, "forensics")),
        "first_record_is_the_first_alarm" => bump(slot(doc, "alarms.first_correlation_id")),
        "scenarios_not_accounted" => bump(slot(doc, "scenarios[0].clean")),
        "sensors_tile_the_grid" => bump(slot(doc, "sensors")),
        "auroc_passing_counts_the_folds" => {
            *slot(doc, "attribution[0].auroc") = slot(doc, "auroc_gate").clone();
        }
        "detected_counts_the_rows" => *slot(doc, "trojans[0].detected") = Value::Bool(false),
        "flight_records_span_the_window" => bump(slot(doc, "post_windows")),
        "one_tile_per_array_cell" => pop(slot(doc, "tiles")),
        "fused_alarms_without_a_correlation_id" => {
            let i = records(doc)
                .iter()
                .position(|r| {
                    r.get("fused_alarm") == Some(&Value::Bool(true))
                        && r.get("domain").and_then(Value::as_str) != Some("array")
                })
                .expect("a fused alarm outside the array domain");
            *doc = edit(doc, &format!("records[{i}].correlation_id"), None);
        }
        "fused_alarms" => {
            for i in 0..records(doc).len() {
                *slot(doc, &format!("records[{i}].fused_alarm")) = Value::Bool(false);
            }
        }
        other => panic!("invariant {other} has no mutant"),
    }
}

/// A mutated document and the text its failure must contain.
struct Mutant {
    needle: String,
    doc: Value,
}

fn mutants(case: &Case) -> Vec<Mutant> {
    let mut out = Vec::new();
    for row in case.table.rows {
        for path in row.paths() {
            let sites = row
                .sites(&case.doc, path)
                .expect("committed artifacts resolve");
            let Some((site, idx, Some(value))) = sites.last() else {
                panic!(
                    "{} row {path} has no site in {}",
                    case.table.name, case.file
                );
            };
            let mut push = |v| {
                let doc = edit(&case.doc, site, v);
                out.push(Mutant {
                    needle: format!("\"{site}\""),
                    doc,
                });
            };
            if !path.ends_with('?') {
                push(None);
            }
            push(Some(wrong_type(row.ty)));
            let rhs = row.bound.rhs(&case.doc, idx).expect("operand");
            for v in breaking(row, value, rhs) {
                assert!(
                    row.ty.admits(&v),
                    "{path}: a bound mutant must keep the type"
                );
                push(Some(v));
            }
        }
    }
    for (name, ..) in case.table.invariants {
        let mut doc = case.doc.clone();
        break_invariant(name, &mut doc);
        out.push(Mutant {
            needle: name.to_string(),
            doc,
        });
    }
    out
}

#[test]
fn committed_artifacts_pass_every_table() {
    let cases = cases();
    for case in &cases {
        let failures = case.table.check(&case.doc);
        assert!(
            failures.is_empty(),
            "{} on {}: {failures:?}",
            case.table.name,
            case.file
        );
    }
    for file in ARTIFACTS {
        assert_eq!(
            gates::check_artifact(&parse(&read(file))),
            Vec::<String>::new(),
            "{file}"
        );
    }
    assert_eq!(
        gates::check_decision_log(&read(DECISIONS)),
        Vec::<String>::new()
    );
    for table in SCHEMAS {
        assert!(
            cases.iter().any(|c| c.table.name == table.name),
            "{} is unproven",
            table.name
        );
    }
}

#[test]
fn every_row_and_invariant_can_fail() {
    let mut survivors = Vec::new();
    for case in cases() {
        for m in mutants(&case) {
            let failures = case.table.check(&m.doc);
            if !failures.iter().any(|f| f.contains(&m.needle)) {
                survivors.push(format!(
                    "{} on {} ({}): {failures:?}",
                    case.table.name, case.file, m.needle
                ));
            }
        }
    }
    assert!(
        survivors.is_empty(),
        "mutants that passed:\n{}",
        survivors.join("\n")
    );
}

#[test]
fn a_new_row_is_proven_like_the_rest() {
    const FLEET: Table = Table {
        name: "fleet_ingestion",
        rows: &[gates::row(
            "p50_ingest_us",
            Ty::U64,
            Bound::Le(gates::lit(100.0)),
        )],
        invariants: &[],
    };
    let case = Case {
        table: FLEET,
        file: "BENCH_fleet.json",
        doc: parse(&read("BENCH_fleet.json")),
    };
    let mutants = mutants(&case);
    assert_eq!(
        mutants.len(),
        3,
        "removed, mistyped, and one past the bound"
    );
    assert_eq!(
        mutants[2].doc.get("p50_ingest_us"),
        Some(&Value::Number(101.0))
    );
    assert!(mutants.iter().all(|m| !FLEET.check(&m.doc).is_empty()));
}

fn to_json(v: &Value) -> String {
    let list = |items: Vec<String>| items.join(",");
    match v {
        Value::Null => "null".into(),
        Value::Bool(b) => b.to_string(),
        Value::Number(n) => n.to_string(),
        Value::Str(s) => format!("\"{}\"", json_escape(s)),
        Value::Array(items) => format!("[{}]", list(items.iter().map(to_json).collect())),
        Value::Object(members) => format!(
            "{{{}}}",
            list(
                members
                    .iter()
                    .map(|(k, v)| format!("\"{}\":{}", json_escape(k), to_json(v)))
                    .collect()
            )
        ),
    }
}

/// Writes every mutant to `<cargo target tmp>/gate-mutants`, one file
/// each, plus `index.tsv` (file, checker, expected text), so another
/// build of the two checkers can be run on the same set:
/// `cargo test -p emtrust-bench --test gates -- --ignored`. Files in
/// the `regression` rows are the current run of
/// `check_bench_regression <file> BENCH_baseline.json`; `jsonl` rows go
/// to `check_bench_schema --jsonl`; the rest to `check_bench_schema`.
#[test]
#[ignore = "writes the mutant set to disk; run on demand"]
fn export_mutants() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("gate-mutants");
    std::fs::create_dir_all(&dir).expect("mutant directory");
    let mut index = String::new();
    for (c, case) in cases().iter().enumerate() {
        let checker = match case.table.name {
            "regression_run" | "regression" => "regression",
            "decision_log" => "jsonl",
            _ => "schema",
        };
        for (m, mutant) in mutants(case).iter().enumerate() {
            let name = format!(
                "{c:02}-{}-{m:03}.json{}",
                case.table.name,
                if checker == "jsonl" { "l" } else { "" }
            );
            let text = match (&mutant.doc.get("records"), checker) {
                (Some(Value::Array(records)), "jsonl") => {
                    records.iter().map(|r| to_json(r) + "\n").collect()
                }
                _ => to_json(&mutant.doc),
            };
            std::fs::write(dir.join(&name), text).expect("mutant file");
            index += &format!("{name}\t{checker}\t{}\n", mutant.needle);
        }
    }
    std::fs::write(dir.join("index.tsv"), index).expect("index");
}
