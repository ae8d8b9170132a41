//! One-sided magnitude spectra and Welch averaging.
//!
//! The spectral detector (paper §III-E, Fig. 4, Fig. 6 i–l) works on the
//! magnitude spectrum of the sensor trace: the clock fundamental and its
//! harmonics dominate, and Trojans either add lines (`T ≠ g`) or boost
//! existing ones (`T = g`).
//!
//! Every spectrum is estimated through a [`WelchPlan`]: the window
//! coefficients, their coherent gain, the real-input twiddles and the
//! frequency axis are computed once per signal shape, and each segment
//! costs one half-length complex FFT. [`Spectrum::compute`] and
//! [`Spectrum::welch`] are one-shot plans; a caller that estimates many
//! windows of one shape keeps its plan.

use crate::fft::{fft_in_place, next_power_of_two, Complex};
use crate::window::Window;
use crate::DspError;

/// A one-sided magnitude spectrum with its frequency axis.
#[derive(Debug, Clone, PartialEq)]
pub struct Spectrum {
    freqs_hz: Vec<f64>,
    magnitudes: Vec<f64>,
    sample_rate_hz: f64,
}

impl Spectrum {
    /// Computes the one-sided magnitude spectrum of `signal` sampled at
    /// `sample_rate_hz`, after applying `window` and zero-padding to a
    /// power of two.
    ///
    /// Magnitudes are normalized by `N/2` and the window's coherent gain so
    /// a full-scale sine of amplitude `A` reads `≈ A` in its bin. This is
    /// a one-segment [`WelchPlan`], built and used once.
    ///
    /// # Errors
    ///
    /// - [`DspError::EmptyInput`] if `signal` is empty,
    /// - [`DspError::InvalidParameter`] if `sample_rate_hz <= 0`.
    ///
    /// # Examples
    ///
    /// ```
    /// # fn main() -> Result<(), emtrust_dsp::DspError> {
    /// use emtrust_dsp::spectrum::Spectrum;
    /// use emtrust_dsp::window::Window;
    ///
    /// let fs = 1000.0;
    /// let signal: Vec<f64> = (0..1024)
    ///     .map(|i| (2.0 * std::f64::consts::PI * 125.0 * i as f64 / fs).sin())
    ///     .collect();
    /// let spec = Spectrum::compute(&signal, fs, Window::Rectangular)?;
    /// let peak = spec.dominant_peak().expect("nonempty");
    /// assert!((peak.frequency_hz - 125.0).abs() < 1.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn compute(signal: &[f64], sample_rate_hz: f64, window: Window) -> Result<Self, DspError> {
        Self::welch(signal, sample_rate_hz, window, 1)
    }

    /// Welch-style averaged spectrum: splits `signal` into `segments`
    /// half-overlapping pieces, computes a windowed spectrum of each and
    /// averages the magnitudes. Reduces the variance of the estimate, which
    /// matters when hunting small Trojan lines in noise. This builds a
    /// [`WelchPlan`] and uses it once; keep the plan to estimate many
    /// signals of one shape.
    ///
    /// # Errors
    ///
    /// - [`DspError::InvalidParameter`] if `segments == 0` or the signal is
    ///   too short to split,
    /// - errors from [`Spectrum::compute`] on degenerate inputs.
    pub fn welch(
        signal: &[f64],
        sample_rate_hz: f64,
        window: Window,
        segments: usize,
    ) -> Result<Self, DspError> {
        WelchPlan::new(signal.len(), sample_rate_hz, window, segments)?.estimate(signal)
    }

    /// The frequency axis in hertz.
    pub fn freqs_hz(&self) -> &[f64] {
        &self.freqs_hz
    }

    /// Magnitude per bin (same length as [`Self::freqs_hz`]).
    pub fn magnitudes(&self) -> &[f64] {
        &self.magnitudes
    }

    /// The sample rate the spectrum was computed at.
    pub fn sample_rate_hz(&self) -> f64 {
        self.sample_rate_hz
    }

    /// Frequency resolution (bin spacing) in hertz.
    pub fn resolution_hz(&self) -> f64 {
        if self.freqs_hz.len() < 2 {
            self.sample_rate_hz
        } else {
            self.freqs_hz[1] - self.freqs_hz[0]
        }
    }

    /// Magnitude at the bin nearest `freq_hz`, or `None` if out of range.
    pub fn magnitude_at(&self, freq_hz: f64) -> Option<f64> {
        let idx = self.bin_of(freq_hz)?;
        Some(self.magnitudes[idx])
    }

    /// Index of the bin nearest `freq_hz`, or `None` if out of range.
    pub fn bin_of(&self, freq_hz: f64) -> Option<usize> {
        if freq_hz < 0.0 || freq_hz > *self.freqs_hz.last()? + self.resolution_hz() / 2.0 {
            return None;
        }
        let idx = (freq_hz / self.resolution_hz()).round() as usize;
        if idx < self.magnitudes.len() {
            Some(idx)
        } else {
            None
        }
    }

    /// The largest non-DC bin.
    pub fn dominant_peak(&self) -> Option<SpectralPeak> {
        self.peaks(1).into_iter().next()
    }

    /// The `k` largest local maxima (excluding DC), descending by magnitude.
    pub fn peaks(&self, k: usize) -> Vec<SpectralPeak> {
        let mut candidates: Vec<SpectralPeak> = (1..self.magnitudes.len().saturating_sub(1))
            .filter(|&i| {
                self.magnitudes[i] >= self.magnitudes[i - 1]
                    && self.magnitudes[i] >= self.magnitudes[i + 1]
            })
            .map(|i| SpectralPeak {
                bin: i,
                frequency_hz: self.freqs_hz[i],
                magnitude: self.magnitudes[i],
            })
            .collect();
        candidates.sort_by(|a, b| {
            b.magnitude
                .partial_cmp(&a.magnitude)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        candidates.truncate(k);
        candidates
    }

    /// Sum of magnitudes over `[lo_hz, hi_hz]` — band energy, used to detect
    /// T1's low-frequency AM carrier contribution.
    pub fn band_energy(&self, lo_hz: f64, hi_hz: f64) -> f64 {
        self.freqs_hz
            .iter()
            .zip(&self.magnitudes)
            .filter(|(f, _)| **f >= lo_hz && **f <= hi_hz)
            .map(|(_, m)| m * m)
            .sum()
    }
}

/// A local maximum in a [`Spectrum`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpectralPeak {
    /// Bin index.
    pub bin: usize,
    /// Center frequency of the bin in hertz.
    pub frequency_hz: f64,
    /// Normalized magnitude.
    pub magnitude: f64,
}

/// A reusable Welch estimator for one signal shape: signal length,
/// sample rate, window kind and segment count.
///
/// The shape fixes the segment geometry. One segment spans the whole
/// signal, windowed over its own length and zero-padded to a power of
/// two. Several segments overlap by half; each is zero-padded to a power
/// of two `N` *before* it is windowed, so the window spans all `N`
/// points, of which only the first carry signal.
///
/// The plan holds everything that does not depend on the samples: the
/// window coefficients over the signal-carrying points and the window's
/// coherent gain, the split-step twiddles `e^{−2πik/N}` and the frequency
/// axis. [`Self::estimate`] then packs each real segment's even and odd
/// samples into one `N/2`-point complex FFT and splits its bins into the
/// `N/2 + 1` bins of the real transform. The tables never change after
/// construction, so one plan serves any number of threads.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), emtrust_dsp::DspError> {
/// use emtrust_dsp::spectrum::{Spectrum, WelchPlan};
/// use emtrust_dsp::window::Window;
///
/// let fs = 1024.0;
/// let signal: Vec<f64> = (0..4096)
///     .map(|i| (2.0 * std::f64::consts::PI * 64.0 * i as f64 / fs).sin())
///     .collect();
/// let plan = WelchPlan::new(signal.len(), fs, Window::Hann, 4)?;
/// let spec = plan.estimate(&signal)?;
/// assert_eq!(spec, Spectrum::welch(&signal, fs, Window::Hann, 4)?);
/// let peak = spec.dominant_peak().expect("nonempty");
/// assert!((peak.frequency_hz - 64.0).abs() <= spec.resolution_hz());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct WelchPlan {
    signal_len: usize,
    sample_rate_hz: f64,
    window: Window,
    segments: usize,
    segment_len: usize,
    hop: usize,
    segment_count: usize,
    window_len: usize,
    fft_len: usize,
    /// The first `segment_len` coefficients of a `window_len`-point window.
    coefficients: Vec<f64>,
    coherent_gain: f64,
    /// `e^{−2πik/N}` for `k` in `0..N/2` (one entry when `N == 1`).
    twiddles: Vec<Complex>,
    freqs_hz: Vec<f64>,
}

impl WelchPlan {
    /// Plans Welch estimates of `signal_len`-sample signals at
    /// `sample_rate_hz`, in `segments` half-overlapping `window`ed
    /// segments.
    ///
    /// # Errors
    ///
    /// - [`DspError::InvalidParameter`] if `segments == 0`, if several
    ///   segments are asked of a signal too short to split, or if
    ///   `sample_rate_hz <= 0`,
    /// - [`DspError::EmptyInput`] if one segment is asked of an empty
    ///   signal.
    pub fn new(
        signal_len: usize,
        sample_rate_hz: f64,
        window: Window,
        segments: usize,
    ) -> Result<Self, DspError> {
        if segments == 0 {
            return Err(DspError::InvalidParameter {
                what: "segment count must be positive",
            });
        }
        let (segment_len, window_len) = if segments == 1 {
            if signal_len == 0 {
                return Err(DspError::EmptyInput);
            }
            (signal_len, signal_len)
        } else {
            // Half-overlapping segments: hop = len / (segments + 1).
            let segment_len = 2 * signal_len / (segments + 1);
            if segment_len < 2 {
                return Err(DspError::InvalidParameter {
                    what: "signal too short for the requested segment count",
                });
            }
            (segment_len, next_power_of_two(segment_len))
        };
        if sample_rate_hz <= 0.0 {
            return Err(DspError::InvalidParameter {
                what: "sample rate must be positive",
            });
        }
        let hop = (segment_len / 2).max(1);
        let fft_len = next_power_of_two(window_len);

        let mut coefficients = window.coefficients(window_len);
        let coherent_gain = (coefficients.iter().sum::<f64>() / window_len as f64).max(1e-12);
        coefficients.truncate(segment_len);
        coefficients.shrink_to_fit();

        let twiddles = (0..(fft_len / 2).max(1))
            .map(|k| {
                Complex::from_polar_unit(-2.0 * std::f64::consts::PI * k as f64 / fft_len as f64)
            })
            .collect();
        let df = sample_rate_hz / fft_len as f64;
        let freqs_hz = (0..fft_len / 2 + 1).map(|k| k as f64 * df).collect();
        Ok(Self {
            signal_len,
            sample_rate_hz,
            window,
            segments,
            segment_len,
            hop,
            segment_count: (signal_len - segment_len) / hop + 1,
            window_len,
            fft_len,
            coefficients,
            coherent_gain,
            twiddles,
            freqs_hz,
        })
    }

    /// Whether this plan estimates signals of the given shape.
    pub fn matches(
        &self,
        signal_len: usize,
        sample_rate_hz: f64,
        window: Window,
        segments: usize,
    ) -> bool {
        self.signal_len == signal_len
            && self.sample_rate_hz == sample_rate_hz
            && self.window == window
            && self.segments == segments
    }

    /// The averaged one-sided magnitude spectrum of `signal`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] if `signal` is not the
    /// planned length.
    pub fn estimate(&self, signal: &[f64]) -> Result<Spectrum, DspError> {
        if signal.len() != self.signal_len {
            return Err(DspError::LengthMismatch {
                expected: self.signal_len,
                actual: signal.len(),
            });
        }
        let n = self.fft_len;
        let m = self.twiddles.len();
        // Normalized by N/2 and the coherent gain; DC and Nyquist are not
        // doubled.
        let scale = 2.0 / (self.window_len as f64 * self.coherent_gain);
        let edge_scale = scale / 2.0;
        let mut magnitudes = vec![0.0; self.freqs_hz.len()];
        let mut z = vec![Complex::ZERO; m];
        for s in 0..self.segment_count {
            let start = s * self.hop;
            let segment = &signal[start..start + self.segment_len];
            // Even samples in the real parts, odd ones in the imaginary.
            for (zi, (x, w)) in z
                .iter_mut()
                .zip(segment.chunks(2).zip(self.coefficients.chunks(2)))
            {
                *zi = Complex::new(x[0] * w[0], x.get(1).map_or(0.0, |&x1| x1 * w[1]));
            }
            z[self.segment_len.div_ceil(2)..].fill(Complex::ZERO);
            fft_in_place(&mut z)?;

            // Split: with E and O the transforms of the even and odd
            // samples, Z[k] = E[k] + i·O[k] and X[k] = E[k] + W^k·O[k].
            magnitudes[0] += (z[0].re + z[0].im).abs() * edge_scale;
            if n >= 2 {
                magnitudes[m] += (z[0].re - z[0].im).abs() * edge_scale;
            }
            for k in 1..m {
                let a = z[k];
                let b = z[m - k].conj();
                let even = a + b;
                let odd = a - b;
                // odd / i = (odd.im, −odd.re)
                let x = even + self.twiddles[k] * Complex::new(odd.im, -odd.re);
                magnitudes[k] += x.norm_sqr().sqrt() * (0.5 * scale);
            }
        }
        let count = self.segment_count as f64;
        for mag in magnitudes.iter_mut() {
            *mag /= count;
        }
        Ok(Spectrum {
            freqs_hz: self.freqs_hz.clone(),
            magnitudes,
            sample_rate_hz: self.sample_rate_hz,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::tests::naive_dft;
    use proptest::prelude::*;

    const WINDOWS: [Window; 4] = [
        Window::Rectangular,
        Window::Hann,
        Window::Hamming,
        Window::Blackman,
    ];

    /// The estimator `WelchPlan` replaced, kept as the reference: each
    /// segment builds its own window table, is zero-padded, windowed
    /// over the padded length, transformed by a full complex FFT, and its
    /// magnitudes taken with `Complex::abs`.
    fn reference_welch(
        signal: &[f64],
        fs: f64,
        window: Window,
        segments: usize,
    ) -> Result<Spectrum, DspError> {
        fn one(signal: &[f64], fs: f64, window: Window) -> Result<Spectrum, DspError> {
            if signal.is_empty() {
                return Err(DspError::EmptyInput);
            }
            if fs <= 0.0 {
                return Err(DspError::InvalidParameter {
                    what: "sample rate must be positive",
                });
            }
            let coeffs = window.coefficients(signal.len());
            let gain = (coeffs.iter().sum::<f64>() / signal.len() as f64).max(1e-12);
            let n = next_power_of_two(signal.len());
            let mut bins: Vec<Complex> = signal
                .iter()
                .zip(&coeffs)
                .map(|(x, w)| Complex::from(x * w))
                .collect();
            bins.resize(n, Complex::ZERO);
            fft_in_place(&mut bins)?;
            let scale = 2.0 / (signal.len() as f64 * gain);
            let magnitudes = bins[..n / 2 + 1]
                .iter()
                .enumerate()
                .map(|(k, c)| {
                    let s = if k == 0 || 2 * k == n {
                        scale / 2.0
                    } else {
                        scale
                    };
                    c.abs() * s
                })
                .collect();
            let df = fs / n as f64;
            Ok(Spectrum {
                freqs_hz: (0..n / 2 + 1).map(|k| k as f64 * df).collect(),
                magnitudes,
                sample_rate_hz: fs,
            })
        }
        if segments == 0 {
            return Err(DspError::InvalidParameter {
                what: "segment count must be positive",
            });
        }
        if segments == 1 {
            return one(signal, fs, window);
        }
        let seg_len = 2 * signal.len() / (segments + 1);
        if seg_len < 2 {
            return Err(DspError::InvalidParameter {
                what: "signal too short for the requested segment count",
            });
        }
        let padded = next_power_of_two(seg_len);
        let mut acc: Option<Spectrum> = None;
        let mut count = 0.0;
        let mut start = 0;
        while start + seg_len <= signal.len() {
            let mut seg = signal[start..start + seg_len].to_vec();
            seg.resize(padded, 0.0);
            let s = one(&seg, fs, window)?;
            match &mut acc {
                None => acc = Some(s),
                Some(a) => {
                    for (m, x) in a.magnitudes.iter_mut().zip(&s.magnitudes) {
                        *m += x;
                    }
                }
            }
            count += 1.0;
            start += seg_len / 2;
        }
        let mut out = acc.expect("at least one segment fits");
        for m in out.magnitudes.iter_mut() {
            *m /= count;
        }
        Ok(out)
    }

    /// Largest bin distance between two spectra over one axis, relative
    /// to the reference's peak magnitude.
    fn relative_gap(a: &Spectrum, reference: &Spectrum) -> f64 {
        assert_eq!(a.freqs_hz(), reference.freqs_hz());
        let peak = reference.magnitudes().iter().fold(0.0f64, |m, &x| m.max(x));
        let gap = a
            .magnitudes()
            .iter()
            .zip(reference.magnitudes())
            .fold(0.0f64, |m, (x, y)| m.max((x - y).abs()));
        if peak > 0.0 {
            gap / peak
        } else {
            gap
        }
    }

    fn noisy(n: usize, seed: u64) -> Vec<f64> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| (i as f64 * 0.37).sin() + 0.3 * rng.gen_range(-1.0..1.0))
            .collect()
    }

    fn tone(freq: f64, fs: f64, n: usize, amp: f64) -> Vec<f64> {
        (0..n)
            .map(|i| amp * (2.0 * std::f64::consts::PI * freq * i as f64 / fs).sin())
            .collect()
    }

    #[test]
    fn sine_amplitude_is_recovered() {
        let fs = 1024.0;
        // Bin-aligned tone: 64 Hz with 1024 samples at 1024 Hz.
        let s = tone(64.0, fs, 1024, 2.5);
        let spec = Spectrum::compute(&s, fs, Window::Rectangular).unwrap();
        let m = spec.magnitude_at(64.0).unwrap();
        assert!((m - 2.5).abs() < 1e-9, "magnitude {m}");
    }

    #[test]
    fn dominant_peak_finds_the_tone() {
        let fs = 2048.0;
        let s = tone(300.0, fs, 2048, 1.0);
        let spec = Spectrum::compute(&s, fs, Window::Hann).unwrap();
        let p = spec.dominant_peak().unwrap();
        assert!((p.frequency_hz - 300.0).abs() <= spec.resolution_hz());
    }

    #[test]
    fn two_tones_give_two_peaks() {
        let fs = 4096.0;
        let mut s = tone(256.0, fs, 4096, 1.0);
        for (x, y) in s.iter_mut().zip(tone(1024.0, fs, 4096, 0.5)) {
            *x += y;
        }
        let spec = Spectrum::compute(&s, fs, Window::Hann).unwrap();
        let peaks = spec.peaks(2);
        assert_eq!(peaks.len(), 2);
        assert!((peaks[0].frequency_hz - 256.0).abs() <= spec.resolution_hz());
        assert!((peaks[1].frequency_hz - 1024.0).abs() <= spec.resolution_hz());
    }

    #[test]
    fn band_energy_concentrates_around_tone() {
        let fs = 1024.0;
        let s = tone(128.0, fs, 1024, 1.0);
        let spec = Spectrum::compute(&s, fs, Window::Rectangular).unwrap();
        let in_band = spec.band_energy(120.0, 136.0);
        let out_band = spec.band_energy(300.0, 400.0);
        assert!(in_band > 100.0 * (out_band + 1e-12));
    }

    #[test]
    fn frequency_axis_spans_zero_to_nyquist() {
        let spec = Spectrum::compute(&vec![0.0; 256], 1000.0, Window::Rectangular).unwrap();
        assert_eq!(spec.freqs_hz()[0], 0.0);
        let last = *spec.freqs_hz().last().unwrap();
        assert!((last - 500.0).abs() < 1e-9);
        assert_eq!(spec.magnitudes().len(), 129);
    }

    #[test]
    fn rejects_empty_and_bad_rate() {
        assert!(Spectrum::compute(&[], 1.0, Window::Rectangular).is_err());
        assert!(Spectrum::compute(&[1.0], 0.0, Window::Rectangular).is_err());
        assert!(Spectrum::compute(&[1.0], -5.0, Window::Rectangular).is_err());
    }

    #[test]
    fn welch_reduces_noise_variance() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let fs = 4096.0;
        let n = 8192;
        let signal: Vec<f64> = (0..n)
            .map(|i| {
                tone(512.0, fs, 1, 1.0)[0] * 0.0
                    + (2.0 * std::f64::consts::PI * 512.0 * i as f64 / fs).sin()
                    + rng.gen_range(-1.0..1.0)
            })
            .collect();
        let single = Spectrum::compute(&signal, fs, Window::Hann).unwrap();
        let averaged = Spectrum::welch(&signal, fs, Window::Hann, 8).unwrap();
        // Noise-floor variance: compare the spread of magnitudes away from
        // the tone.
        let floor_var = |s: &Spectrum| {
            let vals: Vec<f64> = s
                .freqs_hz()
                .iter()
                .zip(s.magnitudes())
                .filter(|(f, _)| **f > 1000.0 && **f < 1800.0)
                .map(|(_, m)| *m)
                .collect();
            crate::stats::variance(&vals)
        };
        assert!(floor_var(&averaged) < floor_var(&single));
    }

    #[test]
    fn welch_with_one_segment_equals_compute() {
        let fs = 512.0;
        let s = tone(64.0, fs, 512, 1.0);
        let a = Spectrum::compute(&s, fs, Window::Hann).unwrap();
        let b = Spectrum::welch(&s, fs, Window::Hann, 1).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn welch_rejects_zero_segments_and_short_signals() {
        assert!(Spectrum::welch(&[1.0; 64], 1.0, Window::Hann, 0).is_err());
        assert!(Spectrum::welch(&[1.0, 2.0], 1.0, Window::Hann, 5).is_err());
    }

    #[test]
    fn bin_of_out_of_range_is_none() {
        let spec = Spectrum::compute(&vec![0.0; 64], 100.0, Window::Rectangular).unwrap();
        assert!(spec.bin_of(-1.0).is_none());
        assert!(spec.bin_of(51.0).is_none());
        assert!(spec.bin_of(25.0).is_some());
    }

    #[test]
    fn plan_coefficients_are_bit_identical_to_the_window() {
        for window in WINDOWS {
            for (len, segments) in [(36_864, 4), (1000, 1), (7, 2), (1, 1), (4096, 8)] {
                let plan = WelchPlan::new(len, 1.0, window, segments).unwrap();
                let full = window.coefficients(plan.window_len);
                assert_eq!(plan.coefficients.len(), plan.segment_len);
                for (a, b) in plan.coefficients.iter().zip(&full) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{window:?} len {len}");
                }
            }
        }
    }

    #[test]
    fn plan_coherent_gain_is_the_mean_coefficient() {
        let rect = WelchPlan::new(128, 1.0, Window::Rectangular, 1).unwrap();
        assert_eq!(rect.coherent_gain, 1.0);
        let hann = WelchPlan::new(4096, 1.0, Window::Hann, 1).unwrap();
        assert!((hann.coherent_gain - 0.5).abs() < 1e-3);
        // Several segments: the gain is the padded window's, not the
        // signal-carrying part's.
        let padded = WelchPlan::new(36_864, 1.0, Window::Hann, 4).unwrap();
        assert_eq!((padded.segment_len, padded.window_len), (14_745, 16_384));
        let full = Window::Hann.coefficients(16_384);
        assert_eq!(
            padded.coherent_gain.to_bits(),
            (full.iter().sum::<f64>() / 16_384.0).to_bits()
        );
    }

    #[test]
    fn plan_geometry_follows_the_signal_shape() {
        let one = WelchPlan::new(100, 1.0, Window::Hann, 1).unwrap();
        assert_eq!(
            (
                one.segment_len,
                one.window_len,
                one.fft_len,
                one.segment_count
            ),
            (100, 100, 128, 1)
        );
        let four = WelchPlan::new(36_864, 640e6, Window::Hann, 4).unwrap();
        assert_eq!(four.fft_len, 16_384);
        assert_eq!(four.segment_count, 4);
        assert!(four.matches(36_864, 640e6, Window::Hann, 4));
        assert!(!four.matches(36_863, 640e6, Window::Hann, 4));
        assert!(!four.matches(36_864, 320e6, Window::Hann, 4));
        assert!(!four.matches(36_864, 640e6, Window::Hamming, 4));
        assert!(!four.matches(36_864, 640e6, Window::Hann, 3));
    }

    #[test]
    fn plan_matches_the_reference_on_the_spectral_watch_window() {
        let signal = noisy(36_864, 3);
        let plan = WelchPlan::new(signal.len(), 640e6, Window::Hann, 4).unwrap();
        let fast = plan.estimate(&signal).unwrap();
        let slow = reference_welch(&signal, 640e6, Window::Hann, 4).unwrap();
        assert!(relative_gap(&fast, &slow) < 1e-12);
    }

    #[test]
    fn plan_matches_the_naive_dft_at_small_sizes() {
        for window in WINDOWS {
            for len in 1..=40 {
                for segments in 1..=3 {
                    let signal = noisy(len, len as u64);
                    let Ok(plan) = WelchPlan::new(len, 8.0, window, segments) else {
                        continue;
                    };
                    let spec = plan.estimate(&signal).unwrap();
                    let n = plan.fft_len;
                    let scale = 2.0 / (plan.window_len as f64 * plan.coherent_gain);
                    let mut expected = vec![0.0; n / 2 + 1];
                    for s in 0..plan.segment_count {
                        let start = s * (plan.segment_len / 2).max(1);
                        let mut padded: Vec<f64> = signal[start..start + plan.segment_len]
                            .iter()
                            .zip(&plan.coefficients)
                            .map(|(x, w)| x * w)
                            .collect();
                        padded.resize(n, 0.0);
                        for (k, c) in naive_dft(&padded)[..n / 2 + 1].iter().enumerate() {
                            let edge = k == 0 || 2 * k == n;
                            expected[k] += c.abs() * if edge { scale / 2.0 } else { scale };
                        }
                    }
                    let count = plan.segment_count as f64;
                    let peak = expected.iter().fold(0.0f64, |m, &x| m.max(x / count));
                    for (got, want) in spec.magnitudes().iter().zip(&expected) {
                        assert!(
                            (got - want / count).abs() <= 1e-12 * peak.max(1.0),
                            "{window:?} len {len} segments {segments}: {got} vs {}",
                            want / count
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn reused_plan_gives_the_bits_of_a_fresh_one() {
        let plan = WelchPlan::new(4096, 1e6, Window::Blackman, 3).unwrap();
        for seed in 0..3 {
            let signal = noisy(4096, seed);
            let reused = plan.estimate(&signal).unwrap();
            let fresh = WelchPlan::new(4096, 1e6, Window::Blackman, 3)
                .unwrap()
                .estimate(&signal)
                .unwrap();
            assert_eq!(reused.freqs_hz(), fresh.freqs_hz());
            for (a, b) in reused.magnitudes().iter().zip(fresh.magnitudes()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn plan_rejects_a_signal_of_another_length() {
        let plan = WelchPlan::new(64, 1.0, Window::Hann, 2).unwrap();
        assert_eq!(
            plan.estimate(&[0.0; 63]).unwrap_err(),
            DspError::LengthMismatch {
                expected: 64,
                actual: 63
            }
        );
    }

    proptest! {
        #[test]
        fn real_input_split_tracks_the_complex_transform(
            signal in proptest::collection::vec(-100.0f64..100.0, 1..=4096),
            segments in 1usize..=8,
            window in 0usize..4,
        ) {
            let window = WINDOWS[window];
            let fast = WelchPlan::new(signal.len(), 640e6, window, segments)
                .and_then(|plan| plan.estimate(&signal));
            let slow = reference_welch(&signal, 640e6, window, segments);
            match (fast, slow) {
                (Ok(fast), Ok(slow)) => {
                    let gap = relative_gap(&fast, &slow);
                    prop_assert!(gap < 1e-12, "gap {gap:e}");
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (a, b) => prop_assert!(false, "{a:?} vs {b:?}"),
            }
        }
    }
}
