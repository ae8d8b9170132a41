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

//! # emtrust
//!
//! Runtime trust evaluation and hardware Trojan detection using on-chip
//! EM sensors — a full reproduction of the DAC 2020 paper of the same
//! name (He, Guo, Ma, Liu, Zhao, Jin).
//!
//! The framework continuously measures a circuit's EM radiation through a
//! spiral sensor on the top metal layer (or, for comparison, an external
//! probe), and analyses the traces in a trusted software module:
//!
//! - **time domain** ([`euclidean`]): traces are reduced to energy
//!   features, optionally PCA-projected, and compared against a golden
//!   fingerprint with the paper's Eq. 1 threshold
//!   `EDth = max‖Di − Dj‖₂` over the Trojan-free set;
//! - **frequency domain** ([`spectral`]): the EM spectrum is compared
//!   bin-wise against the golden spectrum to catch fast-flipping analog
//!   Trojan triggers (A2), either boosting an existing spot (`T = g`) or
//!   adding a new one (`T ≠ g`).
//!
//! - **reference-free** ([`persistence`]): a self-referencing
//!   spectral-persistence detector whitelists the chip's own spectral
//!   lines during a warm-up phase and alarms when a fresh line persists
//!   across consecutive windows — no golden model required.
//!
//! Detection runs as a staged pipeline
//! ([`pipeline::DetectionPipeline`]): every observation is sanitized,
//! featurized once into a shared [`features::FeatureFrame`], scored by
//! every registered [`detector::Detector`], and the per-detector votes
//! are fused into one alarm decision by a [`fusion::FusionPolicy`].
//!
//! [`acquisition::TestBench`] assembles the full experiment: the
//! Trojan-carrying AES chip (`emtrust-trojan`), the measurement physics
//! (`emtrust-em`), and optionally the fabricated-chip non-idealities
//! (`emtrust-silicon`). The paper's runtime monitor is a pipeline with
//! a [`detector::EuclideanDetector`], an optional
//! [`detector::SpectralWindowDetector`], and
//! [`fusion::FusionPolicy::Or`]; its fused alarms are
//! [`pipeline::PipelineAlarm`]s. A sensor array localizes them through
//! [`array::SensorArray::attribute`], which returns an
//! [`attribution::Attribution`].
//!
//! Every pipeline stage is instrumented through [`telemetry`]
//! (re-exported from `emtrust-telemetry`): install a
//! [`telemetry::Recorder`] to capture hierarchical timing spans,
//! counters, and distance histograms; alarms carry correlation ids, and
//! a pipeline built with [`pipeline::PipelineBuilder::forensics`] keeps a
//! [`telemetry::DecisionRecord`] per observation plus the alarm
//! [`telemetry::FlightRecorder`]. With no
//! recorder installed every instrumentation point costs a single relaxed
//! atomic load.
//!
//! # Examples
//!
//! Fit a fingerprint on golden traces and ingest a suspect trace through
//! the detection pipeline (tiny synthetic workload for speed; the
//! examples directory runs the real AES):
//!
//! ```
//! use emtrust::fingerprint::{FingerprintConfig, GoldenFingerprint};
//! use emtrust::acquisition::TraceSet;
//! use emtrust::{DetectionPipeline, EuclideanDetector};
//!
//! // 16 golden traces and one suspect with 30 % more energy.
//! let golden: Vec<Vec<f64>> = (0..16)
//!     .map(|i| (0..64).map(|j| ((i * 7 + j) as f64 * 0.37).sin()).collect())
//!     .collect();
//! let suspect: Vec<f64> = golden[0].iter().map(|x| 1.3 * x).collect();
//!
//! let set = TraceSet::new(golden, 640e6)?;
//! let fp = GoldenFingerprint::fit(&set, FingerprintConfig::default())?;
//! let mut pipeline = DetectionPipeline::builder()
//!     .detector(Box::new(EuclideanDetector::new(fp)))
//!     .build();
//! let outcome = pipeline.ingest_trace(&suspect);
//! assert!(outcome.alarm.is_some());
//! # Ok::<(), emtrust::TrustError>(())
//! ```

pub use emtrust_faults as faults;
pub use emtrust_telemetry as telemetry;

pub mod acquisition;
pub mod array;
pub mod attribution;
pub mod baseline;
mod campaign;
pub mod detector;
pub mod error;
pub mod euclidean;
pub mod features;
pub mod fingerprint;
pub mod fusion;
pub mod health;
pub mod learned;
pub mod parallel;
pub mod persistence;
pub mod pipeline;
pub mod power_baseline;
pub mod sanitize;
pub mod spectral;

pub use acquisition::{RetryPolicy, RobustCollection, TestBench, TraceReport, TraceSet};
pub use array::{
    ArrayBuilder, ArrayConfig, ConsensusConfig, ConsensusDetector, Localizer, RegionScore,
    SensorArray, TileScore,
};
pub use attribution::{Attribution, CellEvidence, CellFeatures, CellScore};
pub use baseline::{
    BaselineSource, CalibrationState, DetectorReadiness, RobustModel, RollingBaseline,
    SelfCalibratingConfig,
};
pub use detector::{
    Detector, DetectorDomain, DetectorVerdict, EuclideanDetector, GoldenContext, Score,
    ScoreDetail, SpectralWindowDetector,
};
pub use error::Error;
pub use features::FeatureFrame;
pub use fingerprint::{FingerprintConfig, GoldenFingerprint};
pub use fusion::FusionPolicy;
pub use health::{HealthConfig, HealthTracker, HealthTransition, SensorHealth};
pub use learned::{LearnedConfig, LearnedDetector, LogisticModel, TrainSpec};
pub use parallel::ParallelConfig;
pub use persistence::{PersistenceConfig, SpectralPersistenceDetector};
pub use pipeline::{
    BatchOutcome, DetectionPipeline, DetectorConfig, PipelineAlarm, PipelineBuilder, TraceOutcome,
    WindowOutcome,
};
pub use sanitize::{SanitizerConfig, TraceDefect, TraceSanitizer, TraceVerdict};
pub use spectral::SpectralDetector;

use std::fmt;

/// Errors produced by the trust-evaluation framework.
#[derive(Debug)]
#[non_exhaustive]
pub enum TrustError {
    /// A configuration or input value was out of range.
    InvalidParameter {
        /// Description of the violated constraint.
        what: &'static str,
    },
    /// A trace carried a NaN or ±Inf sample (corrupted acquisition).
    NonFiniteSample {
        /// Index of the offending trace in its set.
        trace: usize,
        /// Index of the first non-finite sample inside that trace.
        sample: usize,
    },
    /// A trace's length disagreed with the rest of its set.
    TraceLengthMismatch {
        /// Index of the offending trace in its set.
        trace: usize,
        /// Length of the set's first trace.
        expected: usize,
        /// Length of the offending trace.
        actual: usize,
    },
    /// Re-acquisition could not bring the rejected-trace fraction under
    /// the retry policy's bound: the sensor channel is effectively down.
    SensorFault {
        /// Traces still rejected after every attempt.
        rejected: usize,
        /// Traces requested.
        total: usize,
    },
    /// Forwarded from the DSP substrate.
    Dsp(emtrust_dsp::DspError),
    /// Forwarded from the EM pipeline.
    Em(emtrust_em::EmError),
    /// Forwarded from the silicon model.
    Silicon(emtrust_silicon::SiliconError),
    /// Forwarded from netlist construction or simulation.
    Netlist(emtrust_netlist::NetlistError),
    /// Forwarded from the layout substrate.
    Layout(emtrust_layout::LayoutError),
}

impl fmt::Display for TrustError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrustError::InvalidParameter { what } => write!(f, "invalid parameter: {what}"),
            TrustError::NonFiniteSample { trace, sample } => {
                write!(f, "trace {trace} sample {sample} is not finite")
            }
            TrustError::TraceLengthMismatch {
                trace,
                expected,
                actual,
            } => write!(
                f,
                "trace {trace} has {actual} samples, set expects {expected}"
            ),
            TrustError::SensorFault { rejected, total } => write!(
                f,
                "sensor fault: {rejected}/{total} traces still rejected after retries"
            ),
            TrustError::Dsp(e) => write!(f, "dsp: {e}"),
            TrustError::Em(e) => write!(f, "em: {e}"),
            TrustError::Silicon(e) => write!(f, "silicon: {e}"),
            TrustError::Netlist(e) => write!(f, "netlist: {e}"),
            TrustError::Layout(e) => write!(f, "layout: {e}"),
        }
    }
}

impl std::error::Error for TrustError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrustError::Dsp(e) => Some(e),
            TrustError::Em(e) => Some(e),
            TrustError::Silicon(e) => Some(e),
            TrustError::Netlist(e) => Some(e),
            TrustError::Layout(e) => Some(e),
            _ => None,
        }
    }
}

impl From<emtrust_dsp::DspError> for TrustError {
    fn from(e: emtrust_dsp::DspError) -> Self {
        TrustError::Dsp(e)
    }
}

impl From<emtrust_em::EmError> for TrustError {
    fn from(e: emtrust_em::EmError) -> Self {
        TrustError::Em(e)
    }
}

impl From<emtrust_silicon::SiliconError> for TrustError {
    fn from(e: emtrust_silicon::SiliconError) -> Self {
        TrustError::Silicon(e)
    }
}

impl From<emtrust_netlist::NetlistError> for TrustError {
    fn from(e: emtrust_netlist::NetlistError) -> Self {
        TrustError::Netlist(e)
    }
}

impl From<emtrust_layout::LayoutError> for TrustError {
    fn from(e: emtrust_layout::LayoutError) -> Self {
        TrustError::Layout(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_and_chain() {
        let e = TrustError::InvalidParameter { what: "traces" };
        assert!(e.to_string().contains("traces"));
        let e: TrustError = emtrust_dsp::DspError::EmptyInput.into();
        assert!(e.to_string().contains("dsp"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TrustError>();
    }
}
