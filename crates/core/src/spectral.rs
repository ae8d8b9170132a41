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
