//! A Welch estimate counts one `fft.transforms` per segment, whichever
//! transform length carries it: the telemetry artifacts read that count.
//!
//! The one test lives in its own binary, so no other test transforms
//! while its recorder is installed.

use emtrust_dsp::spectrum::{Spectrum, WelchPlan};
use emtrust_dsp::window::Window;
use emtrust_telemetry::InMemoryRecorder;
use std::sync::Arc;

#[test]
fn welch_counts_one_transform_per_segment() {
    let signal: Vec<f64> = (0..36_864).map(|i| (i as f64 * 0.01).sin()).collect();
    let plan = WelchPlan::new(signal.len(), 640e6, Window::Hann, 4).unwrap();

    let registry = Arc::new(InMemoryRecorder::new());
    emtrust_telemetry::install(registry.clone());
    plan.estimate(&signal).unwrap();
    plan.estimate(&signal).unwrap();
    Spectrum::welch(&signal, 640e6, Window::Hann, 4).unwrap();
    Spectrum::compute(&signal[..1], 640e6, Window::Hann).unwrap();
    emtrust_telemetry::uninstall();

    // Two plan estimates and one `welch` of 4 segments, one `compute`.
    let snap = registry.snapshot();
    assert_eq!(snap.counters.get("fft.transforms"), Some(&13));
}
