//! The pluggable [`Detector`] trait and the built-in implementations.
//!
//! The paper's trusted data-analysis module runs two fixed detectors;
//! this module turns the detector set into an open axis. A detector is
//! anything that can
//!
//! 1. [`fit`](Detector::fit) itself on golden material (or nothing at
//!    all — see [`crate::persistence`] for a reference-free detector),
//! 2. [`score`](Detector::score) a shared [`FeatureFrame`] into a
//!    scalar test statistic plus a threshold, and
//! 3. turn that score into a boolean [`verdict`](Detector::verdict).
//!
//! The [`DetectionPipeline`](crate::pipeline::DetectionPipeline)
//! computes each trace's features once, fans `score` across its worker
//! pool (scores are pure), applies the per-detector verdicts, and fuses
//! them with a [`FusionPolicy`](crate::fusion::FusionPolicy). Stateful
//! detectors update themselves serially afterwards through
//! [`absorb`](Detector::absorb), so parallel batch runs stay
//! bit-identical to serial ones.

use crate::acquisition::TraceSet;
use crate::baseline::{BaselineSource, DetectorReadiness, RollingBaseline};
use crate::features::{bin_rms, FeatureFrame};
use crate::fingerprint::{FingerprintConfig, GoldenFingerprint};
use crate::health::SensorHealth;
use crate::spectral::{SpectralAnomaly, SpectralConfig, SpectralDetector};
use crate::TrustError;
use emtrust_dsp::stats::median;
use emtrust_dsp::window::Window;
use emtrust_em::emf::VoltageTrace;
use emtrust_telemetry as telemetry;
use std::fmt;

/// The kind of observation a detector consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectorDomain {
    /// One fixed-length trace per encryption (the paper's time-domain
    /// Eq. 1 path).
    PerEncryption,
    /// A continuous monitoring window with a sample rate (the paper's
    /// frequency-domain A2 path).
    ContinuousWindow,
}

impl DetectorDomain {
    /// Stable label for telemetry and artifacts.
    pub fn label(&self) -> &'static str {
        match self {
            DetectorDomain::PerEncryption => "per_encryption",
            DetectorDomain::ContinuousWindow => "continuous_window",
        }
    }
}

/// The feature slots a detector reads from the shared [`FeatureFrame`].
/// The pipeline's featurizer fills the union of the registered
/// detectors' plans, exactly once per observation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FeaturePlan {
    /// Needs the detection-space projection (RMS features → scale →
    /// optional PCA), supplied by a [`Detector::projector`].
    pub needs_projection: bool,
    /// Needs the Welch spectrum, estimated per the first registered
    /// [`Detector::welch_spec`].
    pub needs_spectrum: bool,
}

/// Welch-estimation settings a spectral detector contributes to the
/// shared featurizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WelchSpec {
    /// Analysis window.
    pub window: Window,
    /// Number of Welch segments.
    pub segments: usize,
    /// Required window sample rate (`None` = any). Set by
    /// reference-based detectors whose golden spectrum pins the rate.
    pub expected_rate_hz: Option<f64>,
}

/// Golden material offered to [`Detector::fit`]. Each detector takes
/// what it needs and errors if a required slot is absent; a
/// reference-free detector ignores the context entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct GoldenContext<'a> {
    /// Golden per-encryption traces (time-domain fitting).
    pub traces: Option<&'a TraceSet>,
    /// A golden continuous window (spectral fitting).
    pub window: Option<&'a VoltageTrace>,
}

impl<'a> GoldenContext<'a> {
    /// An empty context (only reference-free detectors can fit on it).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds golden per-encryption traces.
    pub fn with_traces(mut self, traces: &'a TraceSet) -> Self {
        self.traces = Some(traces);
        self
    }

    /// Adds a golden continuous window.
    pub fn with_window(mut self, window: &'a VoltageTrace) -> Self {
        self.window = Some(window);
        self
    }
}

/// Detector-specific evidence attached to a [`Score`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ScoreDetail {
    /// No structured evidence beyond the statistic itself.
    None,
    /// The spectral detector's anomalous spots, strongest first.
    Spectral {
        /// Every anomalous spot found in the window.
        anomalies: Vec<SpectralAnomaly>,
    },
    /// The spectral-persistence detector's run bookkeeping.
    Persistence {
        /// Hot bins outside the self-referenced baseline this window,
        /// ascending.
        fresh_bins: Vec<usize>,
        /// Longest consecutive-window run over those bins, this window
        /// included.
        longest_run: u32,
    },
}

/// One detector's scalar judgement of one observation.
#[derive(Debug, Clone, PartialEq)]
pub struct Score {
    /// The test statistic (Euclidean distance, anomaly count,
    /// persistence run length, …).
    pub statistic: f64,
    /// The decision threshold in effect.
    pub threshold: f64,
    /// Detector-specific evidence.
    pub detail: ScoreDetail,
}

/// One detector's vote on one observation, as recorded in pipeline
/// outcomes and alarms.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorVerdict {
    /// [`Detector::name`] of the voting detector.
    pub detector: &'static str,
    /// Whether the detector voted suspected.
    pub suspected: bool,
    /// The score behind the vote.
    pub score: Score,
}

/// A pluggable detection algorithm (see module docs).
///
/// `score` must be pure (no interior mutation, no randomness): the
/// pipeline calls it from worker threads and requires bit-identical
/// results for every worker count. State updates belong in `absorb`,
/// which the pipeline calls serially, in observation order, after the
/// fused decision.
pub trait Detector: fmt::Debug + Send + Sync {
    /// Short stable identifier ("euclidean", "spectral", …).
    fn name(&self) -> &'static str;

    /// The observation domain this detector votes on.
    fn domain(&self) -> DetectorDomain;

    /// The feature slots this detector reads.
    fn feature_plan(&self) -> FeaturePlan;

    /// Fits the detector on golden material. Reference-free detectors
    /// reset their state and succeed on any context.
    ///
    /// # Errors
    ///
    /// [`TrustError::InvalidParameter`] if the context lacks a required
    /// slot; forwarded fitting errors otherwise.
    fn fit(&mut self, ctx: &GoldenContext<'_>) -> Result<(), TrustError>;

    /// Fits the detector from a [`BaselineSource`]. The `Golden` arm
    /// delegates to [`Self::fit`] bit-identically; the default
    /// `SelfCalibrating` arm errors — detectors that can learn their
    /// baseline from live traffic override this (and feed the learned
    /// state through [`Self::calibrate`]).
    ///
    /// # Errors
    ///
    /// Forwarded [`Self::fit`] errors for `Golden`;
    /// [`TrustError::InvalidParameter`] for an unsupported
    /// `SelfCalibrating` source.
    fn fit_baseline(&mut self, source: &BaselineSource<'_>) -> Result<(), TrustError> {
        match source {
            BaselineSource::Golden(ctx) => self.fit(ctx),
            BaselineSource::SelfCalibrating(_) => Err(TrustError::InvalidParameter {
                what: "detector does not support a self-calibrating baseline",
            }),
        }
    }

    /// Whether the detector is ready to score.
    fn is_fitted(&self) -> bool;

    /// The detector's explicit readiness judgement. The default derives
    /// it from [`Self::is_fitted`], assuming the per-encryption golden
    /// requirement; detectors with a window requirement or a
    /// self-calibrating warm-up override this to tell the truth.
    fn readiness(&self) -> DetectorReadiness {
        if self.is_fitted() {
            DetectorReadiness::Ready
        } else {
            DetectorReadiness::NeedsGoldenTraces
        }
    }

    /// Serial self-calibration hook, called by the pipeline after
    /// [`Self::absorb`] with the current sensor-health state. Detectors
    /// fitted from a [`BaselineSource::SelfCalibrating`] feed their
    /// rolling baseline here, and must skip the update when the sensor
    /// is not [`SensorHealth::Healthy`] — a faulty channel must never
    /// poison the learned normal. The default does nothing.
    fn calibrate(&mut self, frame: &FeatureFrame<'_>, score: &Score, health: SensorHealth) {
        let _ = (frame, score, health);
    }

    /// Scores one observation. Pure — see the trait docs.
    ///
    /// # Errors
    ///
    /// [`TrustError::InvalidParameter`] if the detector is unfitted or
    /// the frame lacks a slot its [`Self::feature_plan`] declared;
    /// forwarded scoring errors otherwise.
    fn score(&self, frame: &FeatureFrame<'_>) -> Result<Score, TrustError>;

    /// Turns a score into a suspected/clean vote. The default rule is
    /// `statistic > threshold` (the paper's strict Eq. 1 comparison).
    fn verdict(&self, score: &Score) -> bool {
        score.statistic > score.threshold
    }

    /// Serial post-decision state update for stateful detectors. The
    /// default does nothing.
    fn absorb(&mut self, frame: &FeatureFrame<'_>, score: &Score) {
        let _ = (frame, score);
    }

    /// The fitted projection this detector can lend the shared
    /// featurizer (the first registered provider wins).
    fn projector(&self) -> Option<&GoldenFingerprint> {
        None
    }

    /// The Welch settings this detector can lend the shared featurizer
    /// (the first registered provider wins).
    fn welch_spec(&self) -> Option<WelchSpec> {
        None
    }
}

/// The paper's Eq. 1 time-domain detector behind the [`Detector`]
/// trait: Euclidean distance of the projected trace to the golden
/// centroid, against the `EDth` threshold.
///
/// Fitted from a [`BaselineSource::SelfCalibrating`] instead, the
/// detector learns a [`RollingBaseline`] from live traffic: raw RMS
/// features (no golden PCA exists without golden traces) against the
/// rolling robust centre, with the `median + k × MAD` threshold. During
/// the warm-up it scores a benign `0 / 1` so it can never vote
/// suspected before arming.
#[derive(Debug, Clone)]
pub struct EuclideanDetector {
    config: FingerprintConfig,
    fingerprint: Option<GoldenFingerprint>,
    selfcal: Option<RollingBaseline>,
}

impl EuclideanDetector {
    /// Wraps an already-fitted fingerprint.
    pub fn new(fingerprint: GoldenFingerprint) -> Self {
        Self {
            config: fingerprint.config(),
            fingerprint: Some(fingerprint),
            selfcal: None,
        }
    }

    /// An unfitted detector that will fit itself from a
    /// [`GoldenContext`]'s traces (or from live traffic through a
    /// self-calibrating [`BaselineSource`]).
    pub fn from_config(config: FingerprintConfig) -> Self {
        Self {
            config,
            fingerprint: None,
            selfcal: None,
        }
    }

    /// The fitted fingerprint, if any (`None` in self-calibrating
    /// mode — there is no golden model to expose).
    pub fn fingerprint(&self) -> Option<&GoldenFingerprint> {
        self.fingerprint.as_ref()
    }

    /// The rolling baseline, when fitted from a self-calibrating
    /// source.
    pub fn rolling_baseline(&self) -> Option<&RollingBaseline> {
        self.selfcal.as_ref()
    }
}

impl Detector for EuclideanDetector {
    fn name(&self) -> &'static str {
        "euclidean"
    }

    fn domain(&self) -> DetectorDomain {
        DetectorDomain::PerEncryption
    }

    fn feature_plan(&self) -> FeaturePlan {
        FeaturePlan {
            // Self-calibrating mode scores raw RMS features — there is
            // no golden projection to request from the featurizer.
            needs_projection: self.selfcal.is_none(),
            needs_spectrum: false,
        }
    }

    fn fit(&mut self, ctx: &GoldenContext<'_>) -> Result<(), TrustError> {
        let traces = ctx.traces.ok_or(TrustError::InvalidParameter {
            what: "euclidean detector needs golden traces to fit",
        })?;
        self.fingerprint = Some(GoldenFingerprint::fit(traces, self.config)?);
        self.selfcal = None;
        Ok(())
    }

    fn fit_baseline(&mut self, source: &BaselineSource<'_>) -> Result<(), TrustError> {
        match source {
            BaselineSource::Golden(ctx) => self.fit(ctx),
            BaselineSource::SelfCalibrating(cfg) => {
                self.fingerprint = None;
                self.selfcal = Some(RollingBaseline::new(*cfg)?);
                Ok(())
            }
        }
    }

    fn is_fitted(&self) -> bool {
        self.fingerprint.is_some() || self.selfcal.is_some()
    }

    fn readiness(&self) -> DetectorReadiness {
        if self.fingerprint.is_some() {
            return DetectorReadiness::Ready;
        }
        match &self.selfcal {
            Some(rb) if rb.is_armed() => DetectorReadiness::Ready,
            Some(rb) => DetectorReadiness::Calibrating {
                seen: rb.seen().min(u64::from(u32::MAX)) as u32,
                required: rb.required().min(u32::MAX as usize) as u32,
            },
            None => DetectorReadiness::NeedsGoldenTraces,
        }
    }

    fn score(&self, frame: &FeatureFrame<'_>) -> Result<Score, TrustError> {
        if let Some(rb) = &self.selfcal {
            if !rb.is_armed() {
                // Warm-up: benign by construction (0 < 1 never votes).
                return Ok(Score {
                    statistic: 0.0,
                    threshold: 1.0,
                    detail: ScoreDetail::None,
                });
            }
            telemetry::counter("fingerprint.evaluations", 1);
            let feats = bin_rms(frame.samples(), rb.config().rms_bin)?;
            return Ok(Score {
                statistic: rb.distance(&feats)?,
                threshold: rb.threshold()?,
                detail: ScoreDetail::None,
            });
        }
        let fp = self
            .fingerprint
            .as_ref()
            .ok_or(TrustError::InvalidParameter {
                what: "euclidean detector is not fitted",
            })?;
        telemetry::counter("fingerprint.evaluations", 1);
        let projection = frame.projection().ok_or(TrustError::InvalidParameter {
            what: "feature frame is missing the projection",
        })?;
        let distance = fp.distance_of_projection(projection)?;
        Ok(Score {
            statistic: distance,
            threshold: fp.threshold(),
            detail: ScoreDetail::None,
        })
    }

    fn calibrate(&mut self, frame: &FeatureFrame<'_>, score: &Score, health: SensorHealth) {
        let Some(rb) = &mut self.selfcal else {
            return;
        };
        // Health gate: an unhealthy channel must not shape the normal.
        if health != SensorHealth::Healthy {
            telemetry::counter("baseline.calibrate_skips", 1);
            return;
        }
        // Verdict gate: once armed, suspected observations are kept out
        // of the drift tracking so an attacker cannot walk the centre.
        if rb.is_armed() && score.statistic > score.threshold {
            telemetry::counter("baseline.calibrate_skips", 1);
            return;
        }
        let update =
            bin_rms(frame.samples(), rb.config().rms_bin).and_then(|feats| rb.observe(&feats));
        if update.is_err() {
            telemetry::counter("baseline.calibrate_skips", 1);
        }
    }

    fn projector(&self) -> Option<&GoldenFingerprint> {
        self.fingerprint.as_ref()
    }
}

/// The paper's frequency-domain A2 detector behind the [`Detector`]
/// trait: bin-wise comparison of the window's Welch spectrum against
/// the golden spectrum. The statistic is the anomalous-spot count
/// against a threshold of zero, so any spot votes suspected.
///
/// Fitted from a [`BaselineSource::SelfCalibrating`] instead, the
/// detector collects a warm-up ring of live windows and synthesizes its
/// own golden window as the per-sample median across the ring (a robust
/// estimate: a single glitched window cannot shape it), then fits the
/// inner [`SpectralDetector`] on that. The synthesized reference is
/// frozen at arming — spectra do not drift-track.
#[derive(Debug, Clone)]
pub struct SpectralWindowDetector {
    config: SpectralConfig,
    detector: Option<SpectralDetector>,
    selfcal: Option<WindowWarmup>,
}

/// Warm-up ring of a self-calibrating [`SpectralWindowDetector`].
#[derive(Debug, Clone)]
struct WindowWarmup {
    required: usize,
    ring: Vec<Vec<f64>>,
    sample_rate_hz: Option<f64>,
}

impl SpectralWindowDetector {
    /// Wraps an already-fitted spectral detector.
    pub fn new(detector: SpectralDetector) -> Self {
        Self {
            config: detector.config(),
            detector: Some(detector),
            selfcal: None,
        }
    }

    /// An unfitted detector that will fit itself from a
    /// [`GoldenContext`]'s window (or from live traffic through a
    /// self-calibrating [`BaselineSource`]).
    pub fn from_config(config: SpectralConfig) -> Self {
        Self {
            config,
            detector: None,
            selfcal: None,
        }
    }

    /// The fitted inner detector, if any.
    pub fn inner(&self) -> Option<&SpectralDetector> {
        self.detector.as_ref()
    }

    /// Fits the inner detector on the per-sample median of the warm-up
    /// ring. A failed fit restarts the warm-up instead of wedging.
    fn arm_from_warmup(&mut self) {
        let Some(w) = &self.selfcal else {
            return;
        };
        let (Some(rate), Some(len)) = (w.sample_rate_hz, w.ring.first().map(Vec::len)) else {
            return;
        };
        let mut column = Vec::with_capacity(w.ring.len());
        let mut samples = Vec::with_capacity(len);
        for i in 0..len {
            column.clear();
            column.extend(w.ring.iter().map(|r| r[i]));
            samples.push(median(&column));
        }
        let synthetic = VoltageTrace::new(samples, rate);
        match SpectralDetector::fit(&synthetic, self.config) {
            Ok(det) => self.detector = Some(det),
            Err(_) => {
                telemetry::counter("baseline.calibrate_skips", 1);
                if let Some(w) = &mut self.selfcal {
                    w.ring.clear();
                }
            }
        }
    }
}

impl Detector for SpectralWindowDetector {
    fn name(&self) -> &'static str {
        "spectral"
    }

    fn domain(&self) -> DetectorDomain {
        DetectorDomain::ContinuousWindow
    }

    fn feature_plan(&self) -> FeaturePlan {
        FeaturePlan {
            needs_projection: false,
            needs_spectrum: true,
        }
    }

    fn fit(&mut self, ctx: &GoldenContext<'_>) -> Result<(), TrustError> {
        let window = ctx.window.ok_or(TrustError::InvalidParameter {
            what: "spectral detector needs a golden window to fit",
        })?;
        self.detector = Some(SpectralDetector::fit(window, self.config)?);
        self.selfcal = None;
        Ok(())
    }

    fn fit_baseline(&mut self, source: &BaselineSource<'_>) -> Result<(), TrustError> {
        match source {
            BaselineSource::Golden(ctx) => self.fit(ctx),
            BaselineSource::SelfCalibrating(cfg) => {
                cfg.validate()?;
                self.detector = None;
                self.selfcal = Some(WindowWarmup {
                    required: cfg.warmup,
                    ring: Vec::with_capacity(cfg.warmup),
                    sample_rate_hz: None,
                });
                Ok(())
            }
        }
    }

    fn is_fitted(&self) -> bool {
        self.detector.is_some() || self.selfcal.is_some()
    }

    fn readiness(&self) -> DetectorReadiness {
        if self.detector.is_some() {
            return DetectorReadiness::Ready;
        }
        match &self.selfcal {
            Some(w) => DetectorReadiness::Calibrating {
                seen: w.ring.len().min(u32::MAX as usize) as u32,
                required: w.required.min(u32::MAX as usize) as u32,
            },
            None => DetectorReadiness::NeedsGoldenWindow,
        }
    }

    fn score(&self, frame: &FeatureFrame<'_>) -> Result<Score, TrustError> {
        let Some(det) = self.detector.as_ref() else {
            if self.selfcal.is_some() {
                // Warm-up: zero spots against the zero threshold never
                // votes suspected (the verdict comparison is strict).
                return Ok(Score {
                    statistic: 0.0,
                    threshold: 0.0,
                    detail: ScoreDetail::Spectral {
                        anomalies: Vec::new(),
                    },
                });
            }
            return Err(TrustError::InvalidParameter {
                what: "spectral detector is not fitted",
            });
        };
        let spectrum = frame.spectrum().ok_or(TrustError::InvalidParameter {
            what: "feature frame is missing the spectrum",
        })?;
        let anomalies = det.compare_spectrum(spectrum);
        Ok(Score {
            statistic: anomalies.len() as f64,
            threshold: 0.0,
            detail: ScoreDetail::Spectral { anomalies },
        })
    }

    fn calibrate(&mut self, frame: &FeatureFrame<'_>, _score: &Score, health: SensorHealth) {
        if self.detector.is_some() {
            return;
        }
        let Some(w) = &mut self.selfcal else {
            return;
        };
        if health != SensorHealth::Healthy {
            telemetry::counter("baseline.calibrate_skips", 1);
            return;
        }
        let samples = frame.samples();
        let rate = frame.sample_rate_hz();
        let compatible = match (w.ring.first(), w.sample_rate_hz, rate) {
            (None, _, Some(_)) => true,
            (Some(first), Some(expected), Some(actual)) => {
                first.len() == samples.len() && (actual - expected).abs() <= 1e-6 * expected
            }
            _ => false,
        };
        if !compatible || samples.iter().any(|x| !x.is_finite()) {
            telemetry::counter("baseline.calibrate_skips", 1);
            return;
        }
        w.sample_rate_hz = rate;
        w.ring.push(samples.to_vec());
        if w.ring.len() >= w.required {
            self.arm_from_warmup();
        }
    }

    fn welch_spec(&self) -> Option<WelchSpec> {
        if let Some(d) = self.detector.as_ref() {
            return Some(WelchSpec {
                window: self.config.window,
                segments: self.config.welch_segments,
                expected_rate_hz: Some(d.golden_spectrum().sample_rate_hz()),
            });
        }
        // Calibrating: lend the configured Welch settings with no rate
        // pin, so the pipeline can featurize warm-up windows.
        self.selfcal.as_ref().map(|_| WelchSpec {
            window: self.config.window,
            segments: self.config.welch_segments,
            expected_rate_hz: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spectral::SpectralConfig;

    fn synthetic_set(n: usize, amplitude: f64, seed: u64) -> TraceSet {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        TraceSet::new(
            (0..n)
                .map(|_| {
                    (0..256)
                        .map(|j| {
                            amplitude * ((j as f64 / 7.0).sin() + 0.02 * rng.gen_range(-1.0..1.0))
                        })
                        .collect()
                })
                .collect(),
            640e6,
        )
        .unwrap()
    }

    #[test]
    fn euclidean_detector_matches_the_fingerprint() {
        let golden = synthetic_set(16, 1.0, 1);
        let fp = GoldenFingerprint::fit(&golden, FingerprintConfig::default()).unwrap();
        let det = EuclideanDetector::new(fp.clone());
        assert!(det.is_fitted());
        let suspect_set = synthetic_set(1, 1.4, 3);
        let t = &suspect_set.traces()[0];
        let mut frame = FeatureFrame::new(t);
        frame.set_projection(fp.project(t).unwrap());
        let score = det.score(&frame).unwrap();
        let distance = fp.distance(t).unwrap();
        assert_eq!(score.statistic, distance);
        assert_eq!(score.threshold, fp.threshold());
        assert_eq!(det.verdict(&score), distance > fp.threshold());
    }

    #[test]
    fn euclidean_detector_fits_from_context() {
        let golden = synthetic_set(16, 1.0, 1);
        let mut det = EuclideanDetector::from_config(FingerprintConfig::default());
        assert!(!det.is_fitted());
        let frame = FeatureFrame::new(&[0.0]);
        assert!(det.score(&frame).is_err());
        assert!(det.fit(&GoldenContext::new()).is_err());
        det.fit(&GoldenContext::new().with_traces(&golden)).unwrap();
        assert!(det.is_fitted());
        assert!(det.projector().is_some());
    }

    #[test]
    fn spectral_detector_scores_the_shared_spectrum() {
        let fs = 640e6;
        let tone = |freqs: &[(f64, f64)], seed: u64| {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            VoltageTrace::new(
                (0..16384)
                    .map(|i| {
                        let t = i as f64 / fs;
                        freqs
                            .iter()
                            .map(|&(f, a)| a * (2.0 * std::f64::consts::PI * f * t).sin())
                            .sum::<f64>()
                            + 0.01 * rng.gen_range(-1.0..1.0)
                    })
                    .collect(),
                fs,
            )
        };
        let golden = tone(&[(10e6, 1.0)], 1);
        let inner = SpectralDetector::fit(&golden, SpectralConfig::default()).unwrap();
        let det = SpectralWindowDetector::new(inner.clone());
        let spec = det.welch_spec().unwrap();
        assert_eq!(spec.expected_rate_hz, Some(fs));

        let suspect = tone(&[(10e6, 1.0), (25e6, 0.4)], 2);
        let spectrum = inner.suspect_spectrum(&suspect).unwrap();
        let mut frame = FeatureFrame::window(suspect.samples(), fs);
        frame.set_spectrum(spectrum);
        let score = det.score(&frame).unwrap();
        assert!(det.verdict(&score));
        let expected = inner.compare(&suspect).unwrap();
        assert_eq!(score.statistic, expected.len() as f64);
        match &score.detail {
            ScoreDetail::Spectral { anomalies } => assert_eq!(anomalies, &expected),
            other => panic!("expected spectral detail, got {other:?}"),
        }
    }

    #[test]
    fn domain_labels_are_stable() {
        assert_eq!(DetectorDomain::PerEncryption.label(), "per_encryption");
        assert_eq!(
            DetectorDomain::ContinuousWindow.label(),
            "continuous_window"
        );
    }
}
