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

//! # emtrust-bench
//!
//! Experiment harnesses and Criterion benchmarks regenerating **every
//! table and figure** of the DAC 2020 paper. Each `exp_*` binary prints
//! the rows/series the paper reports, next to the paper's published
//! values where it gives any:
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `exp_table1` | Table I — Trojan sizes vs. the AES design |
//! | `exp_snr_sim` | §IV-B — simulated on-chip vs. external SNR |
//! | `exp_distances_sim` | §IV-C — Euclidean distances ref ↔ T1..T4 |
//! | `exp_a2_spectrum` | Fig. 4 — A2 activation peak in the spectrum |
//! | `exp_snr_silicon` | §V-A — measured SNR on the fabricated chip |
//! | `exp_fig6_histograms` | Fig. 6 (a)–(h) — distance histograms per probe |
//! | `exp_fig6_spectra` | Fig. 6 (i)–(l) — on-chip sensor spectra per Trojan |
//! | `exp_layout` | Fig. 2/3 — sensor, probe and protected-layout geometry |
//!
//! The Criterion benches (`cargo bench`) measure the cost of each
//! pipeline stage and run the ablations DESIGN.md calls out (PCA on/off,
//! coil turns, probe standoff, acquisition rate).
//!
//! Every `exp_*` binary accepts `--json` and `--quiet` (see [`report`]);
//! `exp_telemetry` replays the Table-1 sweep under the telemetry
//! recorder and writes `BENCH_telemetry.json`, which
//! `check_bench_schema` validates in CI against its table in [`gates`],
//! using the dependency-free [`json`] parser.

pub mod attribution;
pub mod gates;
pub mod json;
pub mod report;

pub use report::{
    git_rev, unix_timestamp, write_artifact, write_jsonl, ArtifactDoc, OrExit, OutputMode, Report,
};

use emtrust::acquisition::TestBench;
use emtrust::TrustError;
use emtrust_dsp::histogram::Histogram;
use emtrust_em::emf::VoltageTrace;
use emtrust_em::snr::{snr_report, SnrReport};
use emtrust_silicon::Channel;
use emtrust_trojan::{ProtectedChip, TrojanKind};

/// The fixed AES key every experiment uses (arbitrary but stable).
pub const EXPERIMENT_KEY: [u8; 16] = [
    0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c,
];

/// Number of encryption blocks in a continuous monitoring window — long
/// enough for sub-100 kHz spectral resolution at the reference clock.
pub const SPECTRAL_BLOCKS: usize = 96;

/// All four digital Trojans, in paper order.
pub const TROJANS: [TrojanKind; 4] = [
    TrojanKind::T1AmLeaker,
    TrojanKind::T2LeakageLeaker,
    TrojanKind::T3CdmaLeaker,
    TrojanKind::T4PowerDegrader,
];

/// Runs the paper's §V-A two-step SNR protocol on a bench: collect noise
/// with the chip idle, then signal with encryptions running.
///
/// # Errors
///
/// Propagates acquisition errors.
pub fn measure_snr(
    bench: &TestBench<'_>,
    channel: Channel,
    blocks: usize,
    seed: u64,
) -> Result<SnrReport, TrustError> {
    let signal = bench.collect_continuous(EXPERIMENT_KEY, blocks, None, channel, seed)?;
    let noise = bench.collect_noise(signal.len(), channel, seed ^ 0xF00D);
    Ok(snr_report(&signal, &noise))
}

/// Prints a two-column table with a title.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let widths: Vec<usize> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r.get(i).map_or(0, String::len))
                .chain(std::iter::once(h.len()))
                .max()
                .unwrap_or(0)
        })
        .collect();
    let line = |cells: Vec<String>| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        println!("  {}", padded.join("  "));
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Renders a histogram as an ASCII bar series (the Fig. 6 panel format).
pub fn print_histogram(label: &str, histogram: &Histogram, max_width: usize) {
    let peak = histogram.counts().iter().copied().max().unwrap_or(0).max(1);
    println!("  {label}:");
    for (i, &c) in histogram.counts().iter().enumerate() {
        if c == 0 {
            continue;
        }
        let bar = "#".repeat((c as usize * max_width).div_ceil(peak as usize));
        println!(
            "    {:>8.4} | {:<width$} {}",
            histogram.bin_center(i),
            bar,
            c,
            width = max_width
        );
    }
}

/// Prints a spectrum as `(frequency, magnitude)` series limited to
/// `max_hz`, downsampled to at most `max_rows` rows (peak-preserving).
pub fn print_spectrum_series(
    label: &str,
    trace: &VoltageTrace,
    max_hz: f64,
    max_rows: usize,
) -> Result<(), TrustError> {
    use emtrust_dsp::spectrum::Spectrum;
    use emtrust_dsp::window::Window;
    let spec = Spectrum::welch(trace.samples(), trace.sample_rate_hz(), Window::Hann, 4)?;
    let in_range: Vec<(f64, f64)> = spec
        .freqs_hz()
        .iter()
        .zip(spec.magnitudes())
        .filter(|(f, _)| **f <= max_hz)
        .map(|(f, m)| (*f, *m))
        .collect();
    let chunk = in_range.len().div_ceil(max_rows.max(1)).max(1);
    println!("  {label} (bin peak per {chunk} bins):");
    for group in in_range.chunks(chunk) {
        let (f, m) = group.iter().fold(
            (0.0, 0.0),
            |acc, &(f, m)| if m > acc.1 { (f, m) } else { acc },
        );
        println!("    {:>12.0} Hz  {:.4e} V", f, m);
    }
    Ok(())
}

/// Builds the standard chip-under-test for experiments needing Trojans.
pub fn standard_chip() -> ProtectedChip {
    ProtectedChip::with_all_trojans()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snr_protocol_runs_on_a_small_workload() {
        let chip = ProtectedChip::golden();
        let bench = TestBench::simulation(&chip).unwrap();
        let report = measure_snr(&bench, Channel::OnChipSensor, 2, 1).unwrap();
        assert!(report.snr_db > 10.0, "on-chip SNR {:.2} dB", report.snr_db);
    }

    #[test]
    fn table_printer_handles_ragged_rows() {
        print_table(
            "t",
            &["a", "b"],
            &[vec!["1".into()], vec!["22".into(), "333".into()]],
        );
    }

    #[test]
    fn histogram_printer_runs() {
        let h = Histogram::from_values(&[0.1, 0.2, 0.2, 0.9], 0.0, 1.0, 10).unwrap();
        print_histogram("demo", &h, 20);
    }

    #[test]
    fn spectrum_printer_runs() {
        let t = VoltageTrace::new(
            (0..4096)
                .map(|i| (2.0 * std::f64::consts::PI * 10e6 * i as f64 / 640e6).sin())
                .collect(),
            640e6,
        );
        print_spectrum_series("demo", &t, 50e6, 16).unwrap();
    }
}
