#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]

//! Schema checker for the machine-readable bench artifacts, run by CI
//! on the committed artifacts and on each experiment's fresh one: each
//! document's `benchmark` field picks its table in [`gates::SCHEMAS`];
//! files after `--jsonl` are decision logs (`TELEMETRY_decisions.jsonl`)
//! checked against [`gates::DECISION_LOG`].
//!
//! Usage: `check_bench_schema <file.json>... [--jsonl <file.jsonl>...]`
//! — exits 0 when every file passes, 1 with one line per failure, 2
//! without a file.

use emtrust_bench::gates;

fn main() {
    let (mut jsonl, mut failed, mut checked) = (false, false, 0);
    for arg in std::env::args().skip(1) {
        if arg == "--jsonl" {
            jsonl = true;
            continue;
        }
        checked += 1;
        let failures = if jsonl {
            let text = std::fs::read_to_string(&arg).map_err(|e| format!("read failed: {e}"));
            text.map_or_else(|e| vec![e], |text| gates::check_decision_log(&text))
        } else {
            gates::load(&arg).map_or_else(|e| vec![e], |doc| gates::check_artifact(&doc))
        };
        if failures.is_empty() {
            println!("{arg}: ok");
        }
        for e in &failures {
            eprintln!("{arg}: FAIL — {e}");
        }
        failed |= !failures.is_empty();
    }
    if checked == 0 {
        eprintln!("usage: check_bench_schema <file.json>... [--jsonl <file.jsonl>...]");
        std::process::exit(2);
    }
    std::process::exit(i32::from(failed));
}
