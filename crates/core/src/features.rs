//! Trace → feature-vector reduction, and the shared [`FeatureFrame`]
//! every pipeline stage reads from.
//!
//! Raw sensor traces (hundreds of samples per encryption) are reduced to
//! an energy profile before fingerprinting: the RMS of consecutive sample
//! bins. This keeps the data-dependent within-cycle structure the
//! detectors need while making PCA tractable and the comparison robust to
//! sample-level phase jitter.
//!
//! [`FeatureFrame`] is the "compute once, read everywhere" contract of
//! the [`pipeline`](crate::pipeline): the sanitizer's energy screen, the
//! Euclidean detector's projection, and both spectral detectors' FFT all
//! used to recompute the same transforms per consumer; the pipeline now
//! materializes each transform exactly once per trace and hands every
//! consumer the same frame.

use crate::TrustError;
use emtrust_dsp::spectrum::Spectrum;

/// Default bin width (samples per feature) — 8 samples at 640 MS/s is
/// one eighth of a 10 MHz clock cycle.
pub const DEFAULT_RMS_BIN: usize = 8;

/// Reduces a trace to per-bin RMS features.
///
/// A trailing partial bin is included (RMS over the remaining samples).
///
/// # Errors
///
/// Returns [`TrustError::InvalidParameter`] if `bin == 0` or `samples`
/// is empty.
///
/// # Examples
///
/// ```
/// use emtrust::features::bin_rms;
///
/// let f = bin_rms(&[3.0, -4.0, 0.0, 5.0], 2)?;
/// assert_eq!(f.len(), 2);
/// assert!((f[0] - (12.5f64).sqrt()).abs() < 1e-12);
/// # Ok::<(), emtrust::TrustError>(())
/// ```
pub fn bin_rms(samples: &[f64], bin: usize) -> Result<Vec<f64>, TrustError> {
    if bin == 0 {
        return Err(TrustError::InvalidParameter {
            what: "bin width must be positive",
        });
    }
    if samples.is_empty() {
        return Err(TrustError::InvalidParameter {
            what: "trace must be non-empty",
        });
    }
    Ok(samples
        .chunks(bin)
        .map(|c| (c.iter().map(|x| x * x).sum::<f64>() / c.len() as f64).sqrt())
        .collect())
}

/// L2 norm of a vector.
pub fn l2_norm(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// The transforms of one observation, computed once and shared by every
/// pipeline stage (see module docs).
///
/// A frame starts as the raw samples and is enriched stage by stage:
/// the featurizer fills the slots the registered detectors declared in
/// their [`FeaturePlan`](crate::detector::FeaturePlan), and each
/// consumer reads the slot instead of recomputing the transform. Slots
/// the active configuration does not need stay `None`.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureFrame<'a> {
    samples: &'a [f64],
    sample_rate_hz: Option<f64>,
    rms: Option<Vec<f64>>,
    energy_ratio: Option<f64>,
    projection: Option<Vec<f64>>,
    spectrum: Option<Spectrum>,
}

impl<'a> FeatureFrame<'a> {
    /// A frame holding only the raw samples (per-encryption trace).
    pub fn new(samples: &'a [f64]) -> Self {
        Self {
            samples,
            sample_rate_hz: None,
            rms: None,
            energy_ratio: None,
            projection: None,
            spectrum: None,
        }
    }

    /// A frame for a continuous monitoring window sampled at
    /// `sample_rate_hz`.
    pub fn window(samples: &'a [f64], sample_rate_hz: f64) -> Self {
        Self {
            sample_rate_hz: Some(sample_rate_hz),
            ..Self::new(samples)
        }
    }

    /// The raw samples.
    pub fn samples(&self) -> &'a [f64] {
        self.samples
    }

    /// The sample rate — `Some` only for continuous windows.
    pub fn sample_rate_hz(&self) -> Option<f64> {
        self.sample_rate_hz
    }

    /// The per-bin RMS energy features ([`bin_rms`]), if computed.
    pub fn rms(&self) -> Option<&[f64]> {
        self.rms.as_deref()
    }

    /// Feature-energy ratio relative to the golden scale, if computed.
    pub fn energy_ratio(&self) -> Option<f64> {
        self.energy_ratio
    }

    /// The detection-space projection (scale + optional PCA), if
    /// computed.
    pub fn projection(&self) -> Option<&[f64]> {
        self.projection.as_deref()
    }

    /// The Welch spectrum of a continuous window, if computed.
    pub fn spectrum(&self) -> Option<&Spectrum> {
        self.spectrum.as_ref()
    }

    /// Consumes the frame, handing back its RMS energy features (if
    /// computed) without a copy.
    pub fn into_rms(self) -> Option<Vec<f64>> {
        self.rms
    }

    /// Stores the RMS energy features.
    pub fn set_rms(&mut self, rms: Vec<f64>) {
        self.rms = Some(rms);
    }

    /// Stores the energy ratio.
    pub fn set_energy_ratio(&mut self, ratio: f64) {
        self.energy_ratio = Some(ratio);
    }

    /// Stores the detection-space projection.
    pub fn set_projection(&mut self, projection: Vec<f64>) {
        self.projection = Some(projection);
    }

    /// Stores the Welch spectrum.
    pub fn set_spectrum(&mut self, spectrum: Spectrum) {
        self.spectrum = Some(spectrum);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bin_rms_reduces_length() {
        let f = bin_rms(&[1.0; 64], 8).unwrap();
        assert_eq!(f.len(), 8);
        assert!(f.iter().all(|&x| (x - 1.0).abs() < 1e-12));
    }

    #[test]
    fn partial_trailing_bin_is_kept() {
        let f = bin_rms(&[2.0; 10], 4).unwrap();
        assert_eq!(f.len(), 3);
        assert!((f[2] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn amplitude_scaling_scales_features() {
        let base: Vec<f64> = (0..32).map(|i| (i as f64 * 0.3).sin()).collect();
        let loud: Vec<f64> = base.iter().map(|x| 2.0 * x).collect();
        let fb = bin_rms(&base, 8).unwrap();
        let fl = bin_rms(&loud, 8).unwrap();
        for (a, b) in fb.iter().zip(&fl) {
            assert!((2.0 * a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn degenerate_inputs_are_rejected() {
        assert!(bin_rms(&[], 4).is_err());
        assert!(bin_rms(&[1.0], 0).is_err());
    }

    #[test]
    fn l2_norm_is_euclidean_length() {
        assert!((l2_norm(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
        assert_eq!(l2_norm(&[]), 0.0);
    }
}
