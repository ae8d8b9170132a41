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

//! # emtrust-dsp
//!
//! Signal-processing and statistics substrate for the `emtrust` runtime
//! trust-evaluation framework (DAC 2020, "Runtime Trust Evaluation and
//! Hardware Trojan Detection Using On-Chip EM Sensors").
//!
//! Everything here is implemented from scratch so the reproduction carries
//! no numerical black boxes:
//!
//! - [`fft`] — iterative radix-2 FFT over an internal [`fft::Complex`] type,
//! - [`spectrum`] — one-sided magnitude spectra and Welch averaging,
//! - [`window`] — standard analysis windows,
//! - [`stats`] — RMS / SNR / normalization helpers (paper Eq. 2 and Eq. 3),
//! - [`distance`] — Euclidean metrics and the paper's Eq. 1 threshold,
//! - [`pca`] — principal component analysis via a Jacobi eigensolver,
//! - [`matrix`] — the small dense symmetric-matrix support PCA needs,
//! - [`histogram`] — fixed-bin histograms (paper Fig. 6 panels a–h),
//! - [`parallel`] — deterministic chunked execution on scoped threads,
//!   the substrate of every multi-core hot path in the workspace.
//!
//! # Examples
//!
//! Compute the SNR of a noisy sine the way the paper does (RMS ratio in dB):
//!
//! ```
//! use emtrust_dsp::stats::{rms, snr_db};
//!
//! let signal: Vec<f64> = (0..1024)
//!     .map(|i| (2.0 * std::f64::consts::PI * i as f64 / 64.0).sin())
//!     .collect();
//! let noise = vec![0.01; 1024];
//! let snr = snr_db(rms(&signal), rms(&noise));
//! assert!((snr - 36.98).abs() < 0.1);
//! ```

pub mod distance;
pub mod fft;
pub mod histogram;
pub mod matrix;
pub mod parallel;
pub mod pca;
pub mod spectrum;
pub mod stats;
pub mod window;

use std::error::Error;
use std::fmt;

/// Errors produced by the DSP substrate.
///
/// All public fallible functions in this crate return `Result<_, DspError>`.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DspError {
    /// The input length is not a power of two where one is required.
    NotPowerOfTwo {
        /// Offending length.
        len: usize,
    },
    /// The input was empty where at least one element is required.
    EmptyInput,
    /// Two inputs that must agree in length do not.
    LengthMismatch {
        /// Length of the first input.
        expected: usize,
        /// Length of the second input.
        actual: usize,
    },
    /// A numeric parameter was out of its documented range.
    InvalidParameter {
        /// Human-readable description of the violated constraint.
        what: &'static str,
    },
    /// An iterative solver failed to converge.
    NoConvergence {
        /// Name of the algorithm that failed.
        algorithm: &'static str,
        /// Iterations performed before giving up.
        iterations: usize,
    },
}

impl fmt::Display for DspError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DspError::NotPowerOfTwo { len } => {
                write!(f, "input length {len} is not a power of two")
            }
            DspError::EmptyInput => write!(f, "input is empty"),
            DspError::LengthMismatch { expected, actual } => {
                write!(f, "length mismatch: expected {expected}, got {actual}")
            }
            DspError::InvalidParameter { what } => write!(f, "invalid parameter: {what}"),
            DspError::NoConvergence {
                algorithm,
                iterations,
            } => write!(
                f,
                "{algorithm} did not converge after {iterations} iterations"
            ),
        }
    }
}

impl Error for DspError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_nonempty_and_lowercase() {
        let errors = [
            DspError::NotPowerOfTwo { len: 3 },
            DspError::EmptyInput,
            DspError::LengthMismatch {
                expected: 4,
                actual: 5,
            },
            DspError::InvalidParameter {
                what: "k must be > 0",
            },
            DspError::NoConvergence {
                algorithm: "jacobi",
                iterations: 100,
            },
        ];
        for e in errors {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DspError>();
    }
}
