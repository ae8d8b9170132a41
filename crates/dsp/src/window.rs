//! Analysis windows for spectral estimation.
//!
//! The spectral detector (paper §III-E) compares EM spectra between a golden
//! reference and the running chip; windowing controls the leakage between
//! bins so that a weak Trojan line next to the strong clock line remains
//! visible.

/// The window function applied before a spectral transform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum Window {
    /// No tapering (all ones).
    #[default]
    Rectangular,
    /// Hann window, `0.5 − 0.5·cos(2πn/(N−1))`.
    Hann,
    /// Hamming window, `0.54 − 0.46·cos(2πn/(N−1))`.
    Hamming,
    /// Blackman window (three-term).
    Blackman,
}

impl Window {
    /// Returns the window coefficients for length `n`.
    ///
    /// For `n == 0` the result is empty; for `n == 1` it is `[1.0]` for all
    /// window kinds (the limit of each formula).
    ///
    /// # Examples
    ///
    /// ```
    /// use emtrust_dsp::window::Window;
    ///
    /// let w = Window::Hann.coefficients(4);
    /// assert_eq!(w.len(), 4);
    /// assert!(w[0].abs() < 1e-12); // Hann tapers to zero at the edges
    /// ```
    pub fn coefficients(self, n: usize) -> Vec<f64> {
        if n == 0 {
            return Vec::new();
        }
        if n == 1 {
            return vec![1.0];
        }
        let denom = (n - 1) as f64;
        (0..n)
            .map(|i| {
                let x = 2.0 * std::f64::consts::PI * i as f64 / denom;
                match self {
                    Window::Rectangular => 1.0,
                    Window::Hann => 0.5 - 0.5 * x.cos(),
                    Window::Hamming => 0.54 - 0.46 * x.cos(),
                    Window::Blackman => 0.42 - 0.5 * x.cos() + 0.08 * (2.0 * x).cos(),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rectangular_is_all_ones() {
        assert!(Window::Rectangular
            .coefficients(16)
            .iter()
            .all(|&w| (w - 1.0).abs() < 1e-15));
    }

    #[test]
    fn windows_are_symmetric() {
        for w in [Window::Hann, Window::Hamming, Window::Blackman] {
            let c = w.coefficients(33);
            for i in 0..c.len() {
                assert!((c[i] - c[c.len() - 1 - i]).abs() < 1e-12, "{w:?} at {i}");
            }
        }
    }

    #[test]
    fn windows_peak_at_one_in_the_middle() {
        for w in [Window::Hann, Window::Hamming] {
            let c = w.coefficients(65);
            assert!((c[32] - 1.0).abs() < 1e-12, "{w:?}");
        }
    }

    #[test]
    fn hann_tapers_to_zero() {
        let c = Window::Hann.coefficients(64);
        assert!(c[0].abs() < 1e-12);
        assert!(c[63].abs() < 1e-12);
    }

    #[test]
    fn degenerate_lengths() {
        for w in [
            Window::Rectangular,
            Window::Hann,
            Window::Hamming,
            Window::Blackman,
        ] {
            assert!(w.coefficients(0).is_empty());
            assert_eq!(w.coefficients(1), vec![1.0]);
        }
    }
}
