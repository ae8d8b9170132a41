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

//! **E6 — Figure 6 (a)–(h)**: pairwise Euclidean-distance histograms for
//! T1..T4, measured on the fabricated chip with the external probe
//! (panels a–d, overlapping) and the on-chip sensor (panels e–h,
//! separable peaks).

use emtrust::acquisition::TestBench;
use emtrust::euclidean::distance_panel;
use emtrust_bench::OrExit;
use emtrust_bench::{print_histogram, standard_chip, Report, EXPERIMENT_KEY, TROJANS};
use emtrust_silicon::Channel;

fn main() {
    let mut report = Report::from_env("exp_fig6_histograms");
    let chip = standard_chip();
    let bench = TestBench::silicon(&chip, 1).or_exit("silicon bench");
    let n_traces = 60;
    let bins = 24;

    let mut summary = Vec::new();
    // Per panel: probe, Trojan label and distribution overlap.
    let mut overlaps = Vec::new();
    for (channel, tag) in [
        (Channel::ExternalProbe, "external probe (panels a-d)"),
        (Channel::OnChipSensor, "on-chip sensor (panels e-h)"),
    ] {
        if report.is_text() {
            println!("\n==== {tag} ====");
        }
        for kind in TROJANS {
            let panel = distance_panel(
                &bench,
                EXPERIMENT_KEY,
                kind,
                n_traces,
                channel,
                bins,
                0xF16 ^ kind.label().len() as u64,
            )
            .or_exit("panel");
            if report.is_text() {
                println!("\n-- {} --", kind.label());
                print_histogram("golden (red stripes)", &panel.golden, 40);
                print_histogram("trojan activated (blue stripes)", &panel.trojan, 40);
            }
            let probe = tag.split(' ').next().or_exit("probe tag").to_string();
            report.scalar(
                &format!("{}_{}_overlap", probe, kind.label().to_lowercase()),
                panel.overlap,
            );
            overlaps.push((probe.clone(), kind.label(), panel.overlap));
            summary.push(vec![
                probe,
                kind.label().to_string(),
                format!("{:.3}", panel.overlap),
                format!("{:+.1}%", 100.0 * panel.peak_shift),
            ]);
        }
    }

    report.table(
        "Fig. 6 (a)-(h) summary — distribution overlap and peak shift",
        &["Probe", "Trojan", "Overlap", "Peak shift"],
        &summary,
    );
    // The probe's panels as "T2 (0.001), T4 (0.000)", split at the
    // overlap below which two distributions count as separated.
    const SEPARATED: f64 = 0.05;
    let panels = |probe: &str, separated: bool| {
        let listed: Vec<String> = overlaps
            .iter()
            .filter(|o| o.0 == probe && (o.2 <= SEPARATED) == separated)
            .map(|o| format!("{} ({:.3})", o.1, o.2))
            .collect();
        if listed.is_empty() {
            "none".to_string()
        } else {
            listed.join(", ")
        }
    };
    let marginal = overlaps
        .iter()
        .filter(|o| o.0 == "on-chip")
        .max_by(|a, b| a.2.total_cmp(&b.2))
        .map_or_else(|| "none".to_string(), |o| format!("{} ({:.3})", o.1, o.2));
    report.note(format!(
        "\nShape check (paper vs measured; separated = overlap <= {SEPARATED}):\n\
         - paper: the external probe separates no Trojan\n  \
           measured: separates {}; overlaps {}\n\
         - paper: the on-chip sensor separates the peaks, T3 (smallest Trojan) the most \
           marginal case\n  \
           measured: separates {}; overlaps {}; most marginal: {marginal}",
        panels("external", true),
        panels("external", false),
        panels("on-chip", true),
        panels("on-chip", false),
    ));
    report.finish();
}
