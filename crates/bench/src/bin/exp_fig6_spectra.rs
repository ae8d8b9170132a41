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

//! **E7 — Figure 6 (i)–(l)**: on-chip sensor spectra of the fabricated
//! chip with each Trojan activated vs. the original circuit.
//!
//! Paper findings reproduced here: T1 adds low-frequency energy (its
//! ≈750 kHz AM carrier), T2 and T4 raise many spots (T4 ≥ T2, both are
//! register banks), T3's spots are not clearly distinguishable.

use emtrust::acquisition::TestBench;
use emtrust::spectral::{SpectralConfig, SpectralDetector};
use emtrust_bench::OrExit;
use emtrust_bench::{
    print_spectrum_series, standard_chip, Report, EXPERIMENT_KEY, SPECTRAL_BLOCKS,
};
use emtrust_dsp::spectrum::Spectrum;
use emtrust_dsp::window::Window;
use emtrust_silicon::Channel;

fn main() {
    let mut report = Report::from_env("exp_fig6_spectra");
    let chip = standard_chip();
    let bench = TestBench::silicon(&chip, 1).or_exit("silicon bench");

    let golden = bench
        .collect_continuous(
            EXPERIMENT_KEY,
            SPECTRAL_BLOCKS,
            None,
            Channel::OnChipSensor,
            0x6C,
        )
        .or_exit("golden window");
    let detector = SpectralDetector::fit(&golden, SpectralConfig::default()).or_exit("detector");

    if report.is_text() {
        println!("== E7 — on-chip sensor spectra (paper Fig. 6 i-l) ==");
        print_spectrum_series("original circuit (red)", &golden, 40e6, 20).or_exit("golden series");
    }

    let band_energy = |trace: &emtrust_em::emf::VoltageTrace, lo: f64, hi: f64| -> f64 {
        Spectrum::welch(trace.samples(), trace.sample_rate_hz(), Window::Hann, 4)
            .map(|s| s.band_energy(lo, hi))
            .unwrap_or(0.0)
    };
    // T1's ≈714 kHz AM envelope shows up both directly at low frequency
    // and as sidebands around the clock line (10 MHz ± n·714 kHz); the
    // 9.2–9.4 MHz window isolates the first lower sideband away from the
    // block-rate comb (833 kHz spacing).
    let golden_low = band_energy(&golden, 9.2e6, 9.4e6);

    let mut rows = Vec::new();
    // Per Trojan: its label, anomalous spots and sideband energy ratio.
    let mut measured = Vec::new();
    for kind in emtrust_bench::TROJANS {
        let armed = bench
            .collect_continuous(
                EXPERIMENT_KEY,
                SPECTRAL_BLOCKS,
                Some(kind),
                Channel::OnChipSensor,
                0x6C,
            )
            .or_exit("armed window");
        if report.is_text() {
            println!("\n-- panel: {} activated (blue) --", kind.label());
            print_spectrum_series("trojan activated", &armed, 40e6, 20).or_exit("armed series");
        }
        let anomalies = detector.compare(&armed).or_exit("compare");
        let sideband = band_energy(&armed, 9.2e6, 9.4e6) / golden_low.max(1e-300);
        measured.push((kind.label(), anomalies.len(), sideband));
        report.scalar(
            &format!("{}_anomalous_spots", kind.label().to_lowercase()),
            anomalies.len() as f64,
        );
        rows.push(vec![
            kind.label().to_string(),
            anomalies.len().to_string(),
            anomalies
                .first()
                .map(|a| format!("{:.2} MHz", a.frequency_hz / 1e6))
                .unwrap_or_else(|| "-".to_string()),
            format!("{sideband:.2}x"),
        ]);
    }

    report.table(
        "Fig. 6 (i)-(l) summary",
        &[
            "Trojan",
            "Anomalous spots",
            "Strongest spot",
            "AM sideband (9.2-9.4 MHz) energy vs golden",
        ],
        &rows,
    );
    let of = |label: &str| {
        measured
            .iter()
            .find(|m| m.0 == label)
            .map_or((0, 0.0), |m| (m.1, m.2))
    };
    let ((t1_spots, t1_sideband), (t2_spots, _), (t3_spots, _), (t4_spots, _)) =
        (of("T1"), of("T2"), of("T3"), of("T4"));
    report.note(format!(
        "\nShape check (paper vs measured):\n\
         - paper: T1 adds energy from its AM carrier; measured: {t1_sideband:.2}x the golden\n  \
           energy in the first sideband of the clock line, {t1_spots} anomalous spots\n\
         - paper: T2 and T4 raise many spots, T4 >= T2; measured: T2 {t2_spots}, T4 {t4_spots} \
           (T4 >= T2: {})\n\
         - paper: T3 is not clearly visible; measured: {t3_spots} anomalous spots",
        if t4_spots >= t2_spots { "yes" } else { "no" },
    ));
    report.finish();
}
