#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]

//! Performance-regression gate for `BENCH_parallel.json`, run by CI's
//! `perf` job after `exp_throughput` against the committed
//! `BENCH_baseline.json`: both runs must pass [`gates::RUN`] and the
//! current one [`gates::REGRESSION`] (`workers > 1` speedups ≥ 0.95×, a
//! hot-path ratio ≥ 1.3×). On hosts with the same CPU count it may also
//! be at most 15 % slower than the baseline; across hosts wall clocks do
//! not compare, so that rule is skipped with a note.
//!
//! Usage: `check_bench_regression <current.json> <baseline.json>` —
//! exits 0 when every gate holds, 1 with per-gate reasons otherwise.

use emtrust_bench::gates::{self, REGRESSION, RUN};
use emtrust_bench::json::Value;

/// Maximum slowdown vs. a same-host baseline: throughput ≥ baseline / MAX_SLOWDOWN.
const MAX_SLOWDOWN: f64 = 1.15;

/// The same-host throughput rule; `Ok(Some(note))` when hosts differ.
fn throughput_vs_baseline(current: &Value, baseline: &Value) -> Result<Option<String>, String> {
    let cpus = |doc: &Value| doc.get("host_cpus").and_then(Value::as_u64).unwrap_or(0);
    let (c, b) = (cpus(current), cpus(baseline));
    let note = format!("current host has {c} CPUs, baseline ran on {b}");
    if c != b {
        return Ok(Some(format!(
            "note: wall-clock comparison skipped — {note}"
        )));
    }
    let best = |doc| gates::numbers(doc, "results[].traces_per_sec").map(|t| t.into_iter());
    let (cur, base) = (
        best(current)?.fold(0.0, f64::max),
        best(baseline)?.fold(0.0, f64::max),
    );
    let pct = (MAX_SLOWDOWN - 1.0) * 100.0;
    let slow = format!("throughput {cur:.2} traces/s is more than {pct:.0}% slower than {base:.2}");
    (base > 0.0 && cur >= base / MAX_SLOWDOWN)
        .then_some(None)
        .ok_or(slow)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [current_path, baseline_path] = args.as_slice() else {
        eprintln!("usage: check_bench_regression <current.json> <baseline.json>");
        std::process::exit(2);
    };
    let mut failures = Vec::new();
    match (gates::load(current_path), gates::load(baseline_path)) {
        (Ok(current), Ok(baseline)) => {
            let base = RUN.check(&baseline);
            let base = base.into_iter().map(|e| format!("{baseline_path}: {e}"));
            failures.extend(RUN.check(&current).into_iter().chain(base));
            let comparable = failures.is_empty();
            failures.extend(REGRESSION.check(&current));
            match throughput_vs_baseline(&current, &baseline) {
                _ if !comparable => {}
                Ok(note) => note.into_iter().for_each(|n| println!("{n}")),
                Err(e) => failures.push(e),
            }
        }
        (c, b) => failures.extend(c.err().into_iter().chain(b.err())),
    }
    for f in &failures {
        eprintln!("{current_path}: FAIL — {f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
    println!("{current_path}: ok (vs {baseline_path})");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(host_cpus: u64, traces_per_sec: f64) -> Value {
        Value::parse(&format!(
            r#"{{"host_cpus": {host_cpus}, "results": [{{"traces_per_sec": 1.0}}, {{"traces_per_sec": {traces_per_sec}}}]}}"#
        ))
        .expect("valid JSON")
    }

    #[test]
    fn same_host_slowdown_past_fifteen_percent_fails() {
        // A 16 % slowdown takes 1.16x the time per trace: 100/1.16 traces/s.
        let baseline = run(2, 100.0);
        assert!(throughput_vs_baseline(&run(2, 100.0 / 1.16), &baseline).is_err());
        assert_eq!(
            throughput_vs_baseline(&run(2, 100.0 / 1.14), &baseline),
            Ok(None)
        );
    }

    #[test]
    fn different_hosts_skip_the_comparison_with_a_note() {
        let note = throughput_vs_baseline(&run(2, 1.0), &run(1, 100.0));
        assert_eq!(
            note,
            Ok(Some(
                "note: wall-clock comparison skipped — current host has 2 CPUs, baseline ran on 1"
                    .into()
            ))
        );
    }
}
