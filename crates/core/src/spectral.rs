//! The frequency-domain detector (paper §III-E, §IV-D, Fig. 4, Fig. 6 i–l).
//!
//! The golden chip's EM spectrum concentrates at the clock frequency and
//! its harmonics. A Trojan's fast-flipping trigger either
//!
//! - boosts the magnitude of an existing spot (`T = g`), or
//! - adds a new spot (`T ≠ g`).
//!
//! The detector fits the golden spectrum once and then compares suspect
//! spectra bin-wise with a noise-calibrated margin.

use crate::TrustError;
use emtrust_dsp::sliding::SlidingDft;
use emtrust_dsp::spectrum::Spectrum;
use emtrust_dsp::stats::median;
use emtrust_dsp::window::Window;
use emtrust_em::emf::VoltageTrace;

/// How a spectral anomaly manifests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnomalyKind {
    /// A spot the golden spectrum already has grew (`T = g`).
    BoostedSpot,
    /// A spot absent from the golden spectrum appeared (`T ≠ g`).
    NewSpot,
}

/// One anomalous frequency spot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpectralAnomaly {
    /// Spot frequency in hertz.
    pub frequency_hz: f64,
    /// Golden magnitude at that bin.
    pub golden_magnitude: f64,
    /// Suspect magnitude at that bin.
    pub suspect_magnitude: f64,
    /// Classification per the paper's `T = g` / `T ≠ g` cases.
    pub kind: AnomalyKind,
}

/// Configuration for the spectral comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpectralConfig {
    /// Welch segments for spectrum estimation.
    pub welch_segments: usize,
    /// Analysis window.
    pub window: Window,
    /// A bin is anomalous when the suspect magnitude exceeds
    /// `margin_ratio × golden + absolute_floor`.
    pub margin_ratio: f64,
    /// Multiple of the golden noise floor added to the decision margin.
    pub floor_multiplier: f64,
    /// Restrict the comparison to frequencies at or below this bound
    /// (`None` = the full Nyquist range). The paper's Fig. 4 inspects the
    /// band around the clock line and its low harmonics.
    pub analysis_band_hz: Option<f64>,
}

impl Default for SpectralConfig {
    fn default() -> Self {
        Self {
            welch_segments: 4,
            window: Window::Hann,
            margin_ratio: 1.6,
            floor_multiplier: 5.0,
            analysis_band_hz: None,
        }
    }
}

/// A fitted spectral detector.
#[derive(Debug, Clone)]
pub struct SpectralDetector {
    golden: Spectrum,
    noise_floor: f64,
    config: SpectralConfig,
}

impl SpectralDetector {
    /// Fits the detector on a golden continuous trace.
    ///
    /// # Errors
    ///
    /// Propagates spectrum-estimation errors (empty/too-short traces).
    pub fn fit(golden: &VoltageTrace, config: SpectralConfig) -> Result<Self, TrustError> {
        let spectrum = Spectrum::welch(
            golden.samples(),
            golden.sample_rate_hz(),
            config.window,
            config.welch_segments,
        )?;
        let noise_floor = median(spectrum.magnitudes());
        Ok(Self {
            golden: spectrum,
            noise_floor,
            config,
        })
    }

    /// The golden spectrum.
    pub fn golden_spectrum(&self) -> &Spectrum {
        &self.golden
    }

    /// The estimated golden noise floor (median bin magnitude).
    pub fn noise_floor(&self) -> f64 {
        self.noise_floor
    }

    /// Estimates a suspect window's spectrum with the detector's own
    /// Welch settings, after checking the sample rate against the golden
    /// trace's. The estimate is a one-shot [`WelchPlan`], bit for bit
    /// the one a [`DetectionPipeline`] makes with the plan it keeps.
    ///
    /// [`DetectionPipeline`]: crate::DetectionPipeline
    /// [`WelchPlan`]: emtrust_dsp::spectrum::WelchPlan
    ///
    /// # Errors
    ///
    /// - [`TrustError::InvalidParameter`] if the suspect trace's sample
    ///   rate differs from the golden trace's,
    /// - forwarded spectrum-estimation errors.
    pub fn suspect_spectrum(&self, suspect: &VoltageTrace) -> Result<Spectrum, TrustError> {
        if (suspect.sample_rate_hz() - self.golden.sample_rate_hz()).abs()
            > 1e-6 * self.golden.sample_rate_hz()
        {
            return Err(TrustError::InvalidParameter {
                what: "suspect sample rate must match the golden trace",
            });
        }
        Ok(Spectrum::welch(
            suspect.samples(),
            suspect.sample_rate_hz(),
            self.config.window,
            self.config.welch_segments,
        )?)
    }

    /// Compares a suspect trace's spectrum against the golden spectrum,
    /// returning every anomalous spot (strongest first).
    ///
    /// # Errors
    ///
    /// - [`TrustError::InvalidParameter`] if the suspect trace's sample
    ///   rate differs from the golden trace's,
    /// - forwarded spectrum-estimation errors.
    pub fn compare(&self, suspect: &VoltageTrace) -> Result<Vec<SpectralAnomaly>, TrustError> {
        let spec = self.suspect_spectrum(suspect)?;
        Ok(self.compare_spectrum(&spec))
    }

    /// Compares an already-estimated suspect spectrum against the golden
    /// spectrum, returning every anomalous spot (strongest first). This
    /// is the pure decision stage of [`Self::compare`]; the caller is
    /// responsible for estimating the spectrum at a matching sample rate
    /// (see [`Self::suspect_spectrum`]).
    pub fn compare_spectrum(&self, spec: &Spectrum) -> Vec<SpectralAnomaly> {
        let mut n = spec.magnitudes().len().min(self.golden.magnitudes().len());
        if let Some(band) = self.config.analysis_band_hz {
            let in_band = self
                .golden
                .freqs_hz()
                .iter()
                .take_while(|&&f| f <= band)
                .count();
            n = n.min(in_band);
        }
        let floor = self.config.floor_multiplier * self.noise_floor;
        let mut anomalies: Vec<SpectralAnomaly> = (1..n)
            .filter_map(|i| {
                let g = self.golden.magnitudes()[i];
                let s = spec.magnitudes()[i];
                if s > self.config.margin_ratio * g + floor {
                    // `T = g` when the golden spectrum already had a real
                    // spot of comparable scale there; `T ≠ g` when the
                    // suspect line rises out of what was floor.
                    let kind = if g > 2.0 * self.noise_floor && g > 0.2 * s {
                        AnomalyKind::BoostedSpot
                    } else {
                        AnomalyKind::NewSpot
                    };
                    Some(SpectralAnomaly {
                        frequency_hz: self.golden.freqs_hz()[i],
                        golden_magnitude: g,
                        suspect_magnitude: s,
                        kind,
                    })
                } else {
                    None
                }
            })
            .collect();
        anomalies.sort_by(|a, b| {
            b.suspect_magnitude
                .partial_cmp(&a.suspect_magnitude)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        anomalies
    }

    /// Convenience verdict: does the suspect trace contain any anomaly?
    ///
    /// # Errors
    ///
    /// Same as [`SpectralDetector::compare`].
    pub fn trojan_suspected(&self, suspect: &VoltageTrace) -> Result<bool, TrustError> {
        Ok(!self.compare(suspect)?.is_empty())
    }

    /// The configuration used at fit time.
    pub fn config(&self) -> SpectralConfig {
        self.config
    }
}

/// Anomalies found in one analysis window of a streamed trace.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowAnomalies {
    /// Index one past the window's last sample in the scanned trace
    /// (the window covers `end_sample - window_len .. end_sample`).
    pub end_sample: usize,
    /// Anomalous spots in that window, strongest first.
    pub anomalies: Vec<SpectralAnomaly>,
}

/// A streaming spectral detector over continuous acquisitions.
///
/// [`SpectralDetector`] re-estimates a Welch spectrum per suspect trace —
/// fine for block captures, wasteful for a continuous stream that should
/// be re-checked every few microseconds. `SpectralStream` instead slides a
/// rectangular window across the trace with an incremental DFT
/// ([`SlidingDft`], `O(window)` bin updates per sample instead of an
/// `O(window log window)` FFT per hop) and runs the same bin-wise decision
/// stage on every hop, so an anomaly is localized to the window where it
/// first appears.
#[derive(Debug, Clone)]
pub struct SpectralStream {
    detector: SpectralDetector,
    window_len: usize,
    hop: usize,
}

impl SpectralStream {
    /// Fits a streaming detector on a golden continuous trace: the golden
    /// baseline is the average of every hop's sliding-window magnitude
    /// spectrum, and the noise floor its median bin.
    ///
    /// `config.window` and `config.welch_segments` are ignored — the
    /// sliding estimator is inherently rectangular-windowed and averages
    /// across hops instead of Welch segments; the margin, floor and band
    /// settings apply unchanged.
    ///
    /// # Errors
    ///
    /// - [`TrustError::InvalidParameter`] if `hop == 0` or the golden
    ///   trace is shorter than one window,
    /// - forwarded [`SlidingDft`] errors for an invalid `window_len`.
    pub fn fit(
        golden: &VoltageTrace,
        window_len: usize,
        hop: usize,
        config: SpectralConfig,
    ) -> Result<Self, TrustError> {
        if hop == 0 {
            return Err(TrustError::InvalidParameter {
                what: "hop must be at least one sample",
            });
        }
        if golden.samples().len() < window_len {
            return Err(TrustError::InvalidParameter {
                what: "golden trace is shorter than the analysis window",
            });
        }
        let fs = golden.sample_rate_hz();
        let mut dft = SlidingDft::new(window_len)?;
        let mut sum: Vec<f64> = Vec::new();
        let mut freqs: Vec<f64> = Vec::new();
        let mut windows = 0usize;
        for_each_window(&mut dft, golden.samples(), hop, |d| {
            let spec = d.spectrum(fs)?;
            if sum.is_empty() {
                sum = spec.magnitudes().to_vec();
                freqs = spec.freqs_hz().to_vec();
            } else {
                for (a, m) in sum.iter_mut().zip(spec.magnitudes()) {
                    *a += m;
                }
            }
            windows += 1;
            Ok(())
        })?;
        for a in sum.iter_mut() {
            *a /= windows as f64;
        }
        let golden_spectrum = Spectrum::from_one_sided_parts(freqs, sum, fs)?;
        // The absolute floor term must be calibrated on the bins that are
        // actually compared: an EM trace's high-frequency emphasis would
        // otherwise push the whole-axis median far above the quiet
        // low-frequency bins where trigger lines appear.
        let in_band = match config.analysis_band_hz {
            Some(band) => golden_spectrum
                .freqs_hz()
                .iter()
                .take_while(|&&f| f <= band)
                .count()
                .max(1),
            None => golden_spectrum.magnitudes().len(),
        };
        let noise_floor = median(&golden_spectrum.magnitudes()[..in_band]);
        Ok(Self {
            detector: SpectralDetector {
                golden: golden_spectrum,
                noise_floor,
                config,
            },
            window_len,
            hop,
        })
    }

    /// Scans a suspect trace, returning every window that contains at
    /// least one anomalous spot (in stream order). An empty result means
    /// the whole trace stayed within the golden margins.
    ///
    /// # Errors
    ///
    /// Returns [`TrustError::InvalidParameter`] if the suspect trace's
    /// sample rate differs from the golden trace's.
    pub fn scan(&self, suspect: &VoltageTrace) -> Result<Vec<WindowAnomalies>, TrustError> {
        let fs = self.detector.golden.sample_rate_hz();
        if (suspect.sample_rate_hz() - fs).abs() > 1e-6 * fs {
            return Err(TrustError::InvalidParameter {
                what: "suspect sample rate must match the golden trace",
            });
        }
        let mut dft = SlidingDft::new(self.window_len)?;
        let mut flagged = Vec::new();
        let mut end = self.window_len;
        let hop = self.hop;
        for_each_window(&mut dft, suspect.samples(), hop, |d| {
            let anomalies = self.detector.compare_spectrum(&d.spectrum(fs)?);
            if !anomalies.is_empty() {
                flagged.push(WindowAnomalies {
                    end_sample: end,
                    anomalies,
                });
            }
            end += hop;
            Ok(())
        })?;
        Ok(flagged)
    }

    /// The fitted per-window detector (golden spectrum, noise floor).
    pub fn detector(&self) -> &SpectralDetector {
        &self.detector
    }

    /// The analysis window length in samples.
    pub fn window_len(&self) -> usize {
        self.window_len
    }

    /// The hop between analyzed windows in samples.
    pub fn hop(&self) -> usize {
        self.hop
    }
}

/// Streams `samples` through `dft`, invoking `emit` at the first full
/// window and every `hop` samples thereafter.
fn for_each_window(
    dft: &mut SlidingDft,
    samples: &[f64],
    hop: usize,
    mut emit: impl FnMut(&SlidingDft) -> Result<(), TrustError>,
) -> Result<(), TrustError> {
    let window_len = dft.window_len();
    for (i, &x) in samples.iter().enumerate() {
        dft.push(x);
        if i + 1 >= window_len && (i + 1 - window_len).is_multiple_of(hop) {
            emit(dft)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone_trace(freqs: &[(f64, f64)], fs: f64, n: usize, noise: f64, seed: u64) -> VoltageTrace {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let samples: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                freqs
                    .iter()
                    .map(|&(f, a)| a * (2.0 * std::f64::consts::PI * f * t).sin())
                    .sum::<f64>()
                    + noise * rng.gen_range(-1.0..1.0)
            })
            .collect();
        VoltageTrace::new(samples, fs)
    }

    const FS: f64 = 640e6;
    const CLOCK: f64 = 10e6;

    fn golden() -> VoltageTrace {
        // Clock line + 2nd harmonic, as the paper describes.
        tone_trace(&[(CLOCK, 1.0), (2.0 * CLOCK, 0.4)], FS, 16384, 0.01, 1)
    }

    #[test]
    fn identical_spectrum_raises_nothing() {
        let det = SpectralDetector::fit(&golden(), SpectralConfig::default()).unwrap();
        let fresh = tone_trace(&[(CLOCK, 1.0), (2.0 * CLOCK, 0.4)], FS, 16384, 0.01, 2);
        assert!(det.compare(&fresh).unwrap().is_empty());
        assert!(!det.trojan_suspected(&fresh).unwrap());
    }

    #[test]
    fn new_spot_is_flagged_as_t_neq_g() {
        let det = SpectralDetector::fit(&golden(), SpectralConfig::default()).unwrap();
        // A2-style trigger line at 25 MHz, absent from the golden spectrum.
        let suspect = tone_trace(
            &[(CLOCK, 1.0), (2.0 * CLOCK, 0.4), (25e6, 0.3)],
            FS,
            16384,
            0.01,
            3,
        );
        let anomalies = det.compare(&suspect).unwrap();
        assert!(!anomalies.is_empty());
        let top = anomalies[0];
        assert_eq!(top.kind, AnomalyKind::NewSpot);
        assert!(
            (top.frequency_hz - 25e6).abs() < 2.0 * det.golden_spectrum().resolution_hz(),
            "spot at {}",
            top.frequency_hz
        );
    }

    #[test]
    fn boosted_clock_line_is_flagged_as_t_eq_g() {
        let det = SpectralDetector::fit(&golden(), SpectralConfig::default()).unwrap();
        let suspect = tone_trace(&[(CLOCK, 2.5), (2.0 * CLOCK, 0.4)], FS, 16384, 0.01, 4);
        let anomalies = det.compare(&suspect).unwrap();
        assert!(anomalies.iter().any(|a| a.kind == AnomalyKind::BoostedSpot
            && (a.frequency_hz - CLOCK).abs() < 2.0 * det.golden_spectrum().resolution_hz()));
    }

    #[test]
    fn mismatched_sample_rates_are_rejected() {
        let det = SpectralDetector::fit(&golden(), SpectralConfig::default()).unwrap();
        let wrong = tone_trace(&[(CLOCK, 1.0)], FS / 2.0, 4096, 0.01, 5);
        assert!(det.compare(&wrong).is_err());
    }

    #[test]
    fn noise_floor_is_estimated_from_the_median() {
        let det = SpectralDetector::fit(&golden(), SpectralConfig::default()).unwrap();
        assert!(det.noise_floor() > 0.0);
        // The clock line towers over the floor.
        let clock_mag = det.golden_spectrum().magnitude_at(CLOCK).unwrap();
        assert!(clock_mag > 20.0 * det.noise_floor());
    }

    #[test]
    fn analysis_band_limits_the_comparison() {
        let config = SpectralConfig {
            analysis_band_hz: Some(20e6),
            ..SpectralConfig::default()
        };
        let det = SpectralDetector::fit(&golden(), config).unwrap();
        // An out-of-band line is ignored; an in-band one is caught.
        let out_of_band = tone_trace(
            &[(CLOCK, 1.0), (2.0 * CLOCK, 0.4), (50e6, 0.5)],
            FS,
            16384,
            0.01,
            8,
        );
        assert!(det.compare(&out_of_band).unwrap().is_empty());
        let in_band = tone_trace(
            &[(CLOCK, 1.0), (2.0 * CLOCK, 0.4), (15e6, 0.5)],
            FS,
            16384,
            0.01,
            9,
        );
        assert!(!det.compare(&in_band).unwrap().is_empty());
    }

    #[test]
    fn compare_splits_into_spectrum_and_decision_stages() {
        let det = SpectralDetector::fit(&golden(), SpectralConfig::default()).unwrap();
        let suspect = tone_trace(
            &[(CLOCK, 1.0), (2.0 * CLOCK, 0.4), (25e6, 0.3)],
            FS,
            16384,
            0.01,
            3,
        );
        let spec = det.suspect_spectrum(&suspect).unwrap();
        assert_eq!(det.compare_spectrum(&spec), det.compare(&suspect).unwrap());
    }

    #[test]
    fn streaming_scan_of_a_clean_trace_raises_nothing() {
        let stream = SpectralStream::fit(&golden(), 1024, 512, SpectralConfig::default()).unwrap();
        let fresh = tone_trace(&[(CLOCK, 1.0), (2.0 * CLOCK, 0.4)], FS, 16384, 0.01, 12);
        assert!(stream.scan(&fresh).unwrap().is_empty());
    }

    #[test]
    fn streaming_scan_localizes_a_mid_trace_burst() {
        let stream = SpectralStream::fit(&golden(), 1024, 512, SpectralConfig::default()).unwrap();
        // Golden-looking trace with a 25 MHz intruder line only in the
        // second half (an intermittently-armed trigger).
        let n = 16384;
        let burst_start = n / 2;
        let base = tone_trace(&[(CLOCK, 1.0), (2.0 * CLOCK, 0.4)], FS, n, 0.01, 13);
        let samples: Vec<f64> = base
            .samples()
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                if i >= burst_start {
                    v + 0.5 * (2.0 * std::f64::consts::PI * 25e6 * i as f64 / FS).sin()
                } else {
                    v
                }
            })
            .collect();
        let suspect = VoltageTrace::new(samples, FS);
        let flagged = stream.scan(&suspect).unwrap();
        assert!(!flagged.is_empty(), "the burst must be caught");
        for w in &flagged {
            assert!(
                w.end_sample > burst_start,
                "window ending at {} flagged before the burst",
                w.end_sample
            );
            assert!(!w.anomalies.is_empty());
        }
        // The burst is present once windows fully cover it.
        let fully_covered = flagged
            .iter()
            .any(|w| w.end_sample >= burst_start + stream.window_len());
        assert!(fully_covered);
    }

    #[test]
    fn streaming_detector_reuses_the_bin_wise_decision() {
        let stream = SpectralStream::fit(&golden(), 1024, 512, SpectralConfig::default()).unwrap();
        assert_eq!(stream.window_len(), 1024);
        assert_eq!(stream.hop(), 512);
        let det = stream.detector();
        assert!(det.noise_floor() > 0.0);
        // The averaged golden baseline keeps the clock line on its bin.
        let clock_mag = det.golden_spectrum().magnitude_at(CLOCK).unwrap();
        assert!(clock_mag > 20.0 * det.noise_floor());
    }

    #[test]
    fn streaming_fit_and_scan_reject_bad_input() {
        let g = golden();
        assert!(SpectralStream::fit(&g, 1024, 0, SpectralConfig::default()).is_err());
        assert!(SpectralStream::fit(&g, 1000, 512, SpectralConfig::default()).is_err());
        let short = tone_trace(&[(CLOCK, 1.0)], FS, 256, 0.01, 14);
        assert!(SpectralStream::fit(&short, 1024, 512, SpectralConfig::default()).is_err());
        let stream = SpectralStream::fit(&g, 1024, 512, SpectralConfig::default()).unwrap();
        let wrong_rate = tone_trace(&[(CLOCK, 1.0)], FS / 2.0, 4096, 0.01, 15);
        assert!(stream.scan(&wrong_rate).is_err());
    }

    #[test]
    fn anomalies_are_sorted_by_magnitude() {
        let det = SpectralDetector::fit(&golden(), SpectralConfig::default()).unwrap();
        let suspect = tone_trace(
            &[(CLOCK, 1.0), (2.0 * CLOCK, 0.4), (25e6, 0.5), (47e6, 0.2)],
            FS,
            16384,
            0.01,
            6,
        );
        let anomalies = det.compare(&suspect).unwrap();
        for w in anomalies.windows(2) {
            assert!(w[0].suspect_magnitude >= w[1].suspect_magnitude);
        }
    }
}
