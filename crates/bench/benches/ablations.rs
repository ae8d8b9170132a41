//! Ablation studies over the design choices DESIGN.md calls out. Each
//! group also *prints* the quality metric it probes, so `cargo bench`
//! doubles as the ablation report; a name filter (`cargo bench --bench
//! ablations -- coupling_map`) skips the reports, and their set-up, of
//! the benchmarks it leaves out:
//!
//! - `ablation_pca` — detection distance with and without PCA (§III-D),
//! - `ablation_coil_turns` — sensor coupling vs. spiral turn count (the
//!   paper's future-work knob),
//! - `ablation_probe_height` — external-probe coupling vs. standoff
//!   ("signal intensity is closely related to the distance"),
//! - `ablation_samples_per_cycle` — acquisition rate vs. detection,
//! - `coupling_map` — build cost of each coil's gridded kernel on a
//!   630 µm die (the all-Trojan chip's size), probe map included,
//! - `welch` — one `spectral_watch` window's Welch spectrum (36 864
//!   samples, 4 Hann segments padded to 16 384 points): the per-segment
//!   complex-FFT reference, the one-shot `Spectrum::welch` and a kept
//!   `WelchPlan`; the report prints the plan's largest distance from the
//!   reference, relative to its peak bin.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use emtrust::acquisition::TestBench;
use emtrust::euclidean::trojan_distance_study;
use emtrust::fingerprint::FingerprintConfig;
use emtrust_bench::EXPERIMENT_KEY;
use emtrust_dsp::fft::{fft_in_place, next_power_of_two, Complex};
use emtrust_dsp::spectrum::{Spectrum, WelchPlan};
use emtrust_dsp::window::Window;
use emtrust_em::coil::Coil;
use emtrust_em::coupling::CouplingMap;
use emtrust_layout::floorplan::Die;
use emtrust_layout::probe::ExternalProbe;
use emtrust_layout::spiral::SpiralSensor;
use emtrust_silicon::Channel;
use emtrust_trojan::{ProtectedChip, TrojanKind};

fn ablation_pca(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_pca");
    g.sample_size(10);
    let configs: Vec<_> = [
        ("with_pca8", FingerprintConfig::default()),
        (
            "without_pca",
            FingerprintConfig {
                pca_components: None,
                ..FingerprintConfig::default()
            },
        ),
    ]
    .into_iter()
    .filter(|(label, _)| g.selects(label))
    .collect();
    if configs.is_empty() {
        return;
    }
    let chip = ProtectedChip::with_trojans(&[TrojanKind::T4PowerDegrader]);
    let bench = TestBench::silicon(&chip, 1).expect("bench");
    for (label, config) in configs {
        // Report the quality metric once.
        let rows = trojan_distance_study(
            &bench,
            EXPERIMENT_KEY,
            &[TrojanKind::T4PowerDegrader],
            12,
            Channel::OnChipSensor,
            config,
            7,
        )
        .expect("study");
        println!(
            "ablation_pca/{label}: T4 distance {:.4}, threshold {:.4}, margin {:.1}x",
            rows[0].centroid_distance,
            rows[0].threshold,
            rows[0].centroid_distance / rows[0].threshold
        );
        g.bench_function(label, |b| {
            b.iter(|| {
                trojan_distance_study(
                    &bench,
                    EXPERIMENT_KEY,
                    &[TrojanKind::T4PowerDegrader],
                    8,
                    Channel::OnChipSensor,
                    config,
                    7,
                )
                .unwrap()
            })
        });
    }
    g.finish();
}

fn ablation_coil_turns(c: &mut Criterion) {
    let die = Die::square(600.0).expect("die");
    let mut g = c.benchmark_group("ablation_coil_turns");
    g.sample_size(10);
    for turns in [5usize, 10, 20, 40] {
        if !g.selects(turns) {
            continue;
        }
        let coil: Coil = SpiralSensor::with_turns(die, turns).expect("spiral").into();
        let map = CouplingMap::build(&coil, die).expect("map");
        println!(
            "ablation_coil_turns/{turns}: mean |M| = {:.3e} H (more turns, more flux linkage)",
            map.mean_abs()
        );
        g.bench_with_input(BenchmarkId::from_parameter(turns), &turns, |b, &t| {
            b.iter(|| {
                let coil: Coil = SpiralSensor::with_turns(die, t).unwrap().into();
                CouplingMap::build(&coil, die).unwrap()
            })
        });
    }
    g.finish();
}

fn ablation_probe_height(c: &mut Criterion) {
    let die = Die::square(600.0).expect("die");
    let mut g = c.benchmark_group("ablation_probe_height");
    g.sample_size(10);
    for z_um in [100.0f64, 300.0, 1000.0, 3000.0] {
        if !g.selects(z_um as u64) {
            continue;
        }
        let probe = ExternalProbe::over_die(die)
            .with_standoff(z_um)
            .expect("probe");
        let coil: Coil = probe.into();
        let map = CouplingMap::build(&coil, die).expect("map");
        println!(
            "ablation_probe_height/{z_um}um: mean |M| = {:.3e} H (coupling falls with distance)",
            map.mean_abs()
        );
        g.bench_with_input(BenchmarkId::from_parameter(z_um as u64), &z_um, |b, &z| {
            b.iter(|| {
                let coil: Coil = ExternalProbe::over_die(die)
                    .with_standoff(z)
                    .unwrap()
                    .into();
                CouplingMap::build(&coil, die).unwrap()
            })
        });
    }
    g.finish();
}

fn ablation_samples_per_cycle(c: &mut Criterion) {
    use emtrust_netlist::library::Library;
    use emtrust_power::{ClockConfig, CurrentModel};
    use emtrust_sim::engine::Simulator;

    // Current-synthesis cost and waveform fidelity vs. acquisition rate.
    let mut g = c.benchmark_group("ablation_samples_per_cycle");
    g.sample_size(10);
    let rates: Vec<usize> = [16, 64, 256]
        .into_iter()
        .filter(|&s| g.selects(s))
        .collect();
    if rates.is_empty() {
        return;
    }
    let aes = emtrust_aes::AesHarness::new();
    let mut sim = Simulator::new(aes.netlist()).expect("sim");
    sim.start_recording();
    let _ = emtrust_aes::netlist::run_encryption(&mut sim, aes.ports(), [1; 16], [2; 16]);
    let activity = sim.take_recording();

    for spc in rates {
        let model = CurrentModel::new(
            Library::generic_180nm(),
            ClockConfig::new(10e6, spc).expect("clock"),
        );
        let trace = model
            .synthesize_with(aes.netlist(), &activity, None, None, 1)
            .expect("trace");
        println!(
            "ablation_samples_per_cycle/{spc}: peak current {:.3e} A over {} samples",
            trace.samples().iter().fold(0.0f64, |m, &x| m.max(x)),
            trace.len()
        );
        g.bench_with_input(BenchmarkId::from_parameter(spc), &spc, |b, &s| {
            let model =
                CurrentModel::new(Library::generic_180nm(), ClockConfig::new(10e6, s).unwrap());
            b.iter(|| {
                model
                    .synthesize_with(aes.netlist(), &activity, None, None, 1)
                    .unwrap()
            })
        });
    }
    g.finish();
}

fn coupling_map(c: &mut Criterion) {
    let die = Die::square(630.0).expect("die");
    let mut g = c.benchmark_group("coupling_map");
    g.sample_size(10);
    let coils: [(&str, Coil); 2] = [
        ("spiral", SpiralSensor::for_die(die).expect("spiral").into()),
        ("probe", ExternalProbe::over_die(die).into()),
    ];
    for (label, coil) in coils {
        g.bench_function(label, |b| {
            b.iter(|| CouplingMap::build(&coil, die).unwrap())
        });
    }
    g.finish();
}

const WELCH_LEN: usize = 36_864;
const WELCH_SEGMENTS: usize = 4;
const WELCH_FS: f64 = 640e6;

/// Welch magnitudes as `Spectrum::welch` computed them before it was
/// planned: per segment, a Hann table for the taper and another for the
/// coherent gain, a full complex FFT of the zero-padded real segment, and
/// `Complex::abs` per bin.
fn reference_welch(signal: &[f64]) -> Vec<f64> {
    let seg_len = 2 * signal.len() / (WELCH_SEGMENTS + 1);
    let n = next_power_of_two(seg_len);
    let mut acc = vec![0.0; n / 2 + 1];
    let mut count = 0.0;
    let mut start = 0;
    while start + seg_len <= signal.len() {
        let taper = Window::Hann.coefficients(n);
        let mut bins: Vec<Complex> = signal[start..start + seg_len]
            .iter()
            .zip(&taper)
            .map(|(x, w)| Complex::from(x * w))
            .collect();
        bins.resize(n, Complex::ZERO);
        let gain = Window::Hann.coefficients(n).iter().sum::<f64>() / n as f64;
        fft_in_place(&mut bins).unwrap();
        let scale = 2.0 / (n as f64 * gain);
        for (k, (a, c)) in acc.iter_mut().zip(&bins).enumerate() {
            let edge = k == 0 || k == n / 2;
            *a += c.abs() * if edge { scale / 2.0 } else { scale };
        }
        count += 1.0;
        start += seg_len / 2;
    }
    acc.iter_mut().for_each(|a| *a /= count);
    acc
}

fn welch(c: &mut Criterion) {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    // A clock line and a weak trigger line over noise.
    let signal: Vec<f64> = (0..WELCH_LEN)
        .map(|i| {
            let t = i as f64 / WELCH_FS;
            (2.0 * std::f64::consts::PI * 10e6 * t).sin()
                + 0.05 * (2.0 * std::f64::consts::PI * 25e6 * t).sin()
                + 0.1 * rng.gen_range(-1.0..1.0)
        })
        .collect();
    let plan = WelchPlan::new(WELCH_LEN, WELCH_FS, Window::Hann, WELCH_SEGMENTS).expect("plan");
    let mut g = c.benchmark_group("welch");
    g.sample_size(20);
    if g.selects("plan") {
        let reference = reference_welch(&signal);
        let planned = plan.estimate(&signal).expect("estimate");
        let peak = reference.iter().fold(0.0f64, |m, &x| m.max(x));
        let gap = planned
            .magnitudes()
            .iter()
            .zip(&reference)
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
        println!(
            "welch/plan: max |plan − reference| / peak = {:.2e}",
            gap / peak
        );
    }
    g.bench_function("reference", |b| b.iter(|| reference_welch(&signal)));
    g.bench_function("spectrum_welch", |b| {
        b.iter(|| Spectrum::welch(&signal, WELCH_FS, Window::Hann, WELCH_SEGMENTS).unwrap())
    });
    g.bench_function("plan", |b| b.iter(|| plan.estimate(&signal).unwrap()));
    g.finish();
}

criterion_group!(
    ablations,
    ablation_pca,
    ablation_coil_turns,
    ablation_probe_height,
    ablation_samples_per_cycle,
    coupling_map,
    welch
);
criterion_main!(ablations);
