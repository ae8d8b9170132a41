//! The staged detection pipeline: sanitize → featurize → detect → fuse
//! → health/alarm.
//!
//! [`DetectionPipeline`] owns an ordered set of pluggable
//! [`Detector`]s, a [`FusionPolicy`], an optional [`TraceSanitizer`],
//! and the sensor-health state machine, and runs every observation
//! through the same five stages:
//!
//! 1. **sanitize** — structural screening before anything is computed;
//!    rejected observations feed the health tracker and never alarm;
//! 2. **featurize** — the [`FeatureFrame`] is filled once per
//!    observation with the union of the registered detectors' feature
//!    plans (RMS features, energy ratio, projection, Welch spectrum);
//! 3. **detect** — every detector of the observation's domain scores
//!    the shared frame (pure, fanned across the worker pool in batch
//!    paths);
//! 4. **fuse** — the per-detector votes reduce to one alarm decision
//!    per the fusion policy, and stateful detectors absorb the
//!    observation serially;
//! 5. **health/alarm** — counters, telemetry, the alarm log, and the
//!    health tracker are updated in observation order.
//!
//! Batch entry points fan stages 2–3 across a [`ParallelConfig`] worker
//! pool with chunk layouts independent of the worker count, so results
//! are bit-identical for every worker count. The paper's runtime
//! monitor is a pipeline with an
//! [`EuclideanDetector`](crate::detector::EuclideanDetector), an optional
//! [`SpectralWindowDetector`](crate::detector::SpectralWindowDetector),
//! and [`FusionPolicy::Or`].
//!
//! ```no_run
//! # use emtrust::{DetectionPipeline, EuclideanDetector, FusionPolicy, SpectralWindowDetector};
//! # fn demo(fp: emtrust::fingerprint::GoldenFingerprint,
//! #         det: emtrust::spectral::SpectralDetector) {
//! let pipeline = DetectionPipeline::builder()
//!     .detector(Box::new(EuclideanDetector::new(fp)))
//!     .detector(Box::new(SpectralWindowDetector::new(det)))
//!     .fusion(FusionPolicy::Or)
//!     .build();
//! # let _ = pipeline;
//! # }
//! ```

use crate::baseline::{BaselineSource, CalibrationState};
use crate::detector::{Detector, DetectorDomain, DetectorVerdict, GoldenContext, Score, WelchSpec};
use crate::features::FeatureFrame;
use crate::fingerprint::GoldenFingerprint;
use crate::fusion::FusionPolicy;
use crate::health::{HealthConfig, HealthTracker, SensorHealth};
use crate::parallel::ParallelConfig;
use crate::sanitize::{SanitizerConfig, TraceDefect, TraceSanitizer, TraceVerdict};
use crate::TrustError;
use emtrust_dsp::spectrum::WelchPlan;
use emtrust_dsp::DspError;
use emtrust_em::emf::VoltageTrace;
use emtrust_telemetry::{
    self as telemetry, DecisionRecord, DetectorDecision, FieldValue, FlightRecorder, FlightWindow,
    ForensicsConfig, FrameDigest, LabelSet,
};

/// A fused alarm raised by the pipeline.
///
/// The `correlation_id` is forensic metadata: [`PartialEq`] ignores it,
/// so replayed runs compare equal alarm for alarm.
#[derive(Debug, Clone)]
pub struct PipelineAlarm {
    /// The domain the fused decision belongs to.
    pub domain: DetectorDomain,
    /// Ingest index of the offending observation (trace or window
    /// counter, per domain).
    pub index: u64,
    /// Every detector's vote behind the fused decision, in registration
    /// order.
    pub verdicts: Vec<DetectorVerdict>,
    /// Process-unique forensic correlation id.
    pub correlation_id: u64,
}

impl PartialEq for PipelineAlarm {
    /// Detection-level equality: ignores the per-run `correlation_id`.
    fn eq(&self, other: &Self) -> bool {
        self.domain == other.domain && self.index == other.index && self.verdicts == other.verdicts
    }
}

/// The pipeline's outcome for one per-encryption trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceOutcome {
    /// The sanitizer's classification ([`TraceVerdict::Clean`] when no
    /// sanitizer is installed).
    pub verdict: TraceVerdict,
    /// Ingest index, when the trace was scored (`None` for rejected
    /// traces).
    pub index: Option<u64>,
    /// Per-detector votes, in registration order (empty when rejected).
    pub votes: Vec<DetectorVerdict>,
    /// The fused alarm, if one fired.
    pub alarm: Option<PipelineAlarm>,
    /// Sensor health after absorbing this trace's outcome.
    pub health: SensorHealth,
    /// The trace's per-bin RMS features, when it was scored and its
    /// feature plan computed them: the frame's own vector, moved out,
    /// so a caller that keeps them pays no second extraction.
    pub rms: Option<Vec<f64>>,
}

/// The pipeline's outcome for one continuous monitoring window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowOutcome {
    /// The sanitizer's classification of the window.
    pub verdict: TraceVerdict,
    /// Window ingest index, when the window was scored.
    pub index: Option<u64>,
    /// Per-detector votes, in registration order (empty when rejected
    /// or when no window detector is registered).
    pub votes: Vec<DetectorVerdict>,
    /// The fused alarm, if one fired.
    pub alarm: Option<PipelineAlarm>,
    /// Sensor health after absorbing this window's outcome.
    pub health: SensorHealth,
}

/// The pipeline's outcome for a batch of per-encryption traces.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutcome {
    /// One outcome per input trace, in trace order.
    pub outcomes: Vec<TraceOutcome>,
    /// The fused alarms the batch raised, in trace order.
    pub alarms: Vec<PipelineAlarm>,
}

impl BatchOutcome {
    /// Number of traces the sanitizer passed as clean.
    pub fn clean(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.verdict.is_clean())
            .count()
    }

    /// Number of traces scored despite mild defects.
    pub fn degraded(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.verdict.is_degraded())
            .count()
    }

    /// Number of traces excluded from scoring.
    pub fn rejected(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.verdict.is_rejected())
            .count()
    }

    /// The batch itself when every trace was scored — for campaigns
    /// whose every trace must be scoreable (a sensor-array campaign, an
    /// experiment's clean run).
    ///
    /// # Errors
    ///
    /// [`TrustError::InvalidParameter`] if any trace was rejected.
    pub fn all_scored(self) -> Result<Self, TrustError> {
        if self.rejected() > 0 {
            return Err(TrustError::InvalidParameter {
                what: "a batch that must score in full has rejected traces",
            });
        }
        Ok(self)
    }
}

/// Builder for [`DetectionPipeline`].
#[derive(Debug, Default)]
pub struct PipelineBuilder {
    detectors: Vec<Box<dyn Detector>>,
    fusion: FusionPolicy,
    sanitizer: Option<TraceSanitizer>,
    health: Option<HealthConfig>,
    parallel: ParallelConfig,
    labels: LabelSet,
    forensics: Option<ForensicsConfig>,
}

impl PipelineBuilder {
    /// Registers a detector. Registration order is vote order and
    /// featurizer-provider precedence.
    pub fn detector(mut self, detector: Box<dyn Detector>) -> Self {
        self.detectors.push(detector);
        self
    }

    /// Sets the fusion policy (default: [`FusionPolicy::Or`]).
    pub fn fusion(mut self, fusion: FusionPolicy) -> Self {
        self.fusion = fusion;
        self
    }

    /// Installs a trace sanitizer. A sanitizer without an expected
    /// length inherits it from the first registered projection
    /// provider, so mis-sized traces are rejected before scoring.
    pub fn sanitizer(mut self, sanitizer: TraceSanitizer) -> Self {
        self.sanitizer = Some(sanitizer);
        self
    }

    /// Replaces the sensor-health configuration.
    pub fn health_config(mut self, config: HealthConfig) -> Self {
        self.health = Some(config);
        self
    }

    /// Sets the worker pool batch paths fan across (default:
    /// [`ParallelConfig::serial`]).
    pub fn parallel(mut self, parallel: ParallelConfig) -> Self {
        self.parallel = parallel;
        self
    }

    /// Attaches identity labels (`chip_id`, `tile`, …) to every metric
    /// series and decision record this pipeline emits.
    pub fn labels(mut self, labels: LabelSet) -> Self {
        self.labels = labels;
        self
    }

    /// Enables decision forensics: a [`DecisionRecord`] per ingested
    /// observation (bounded log) and the alarm [`FlightRecorder`].
    /// Without this the pipeline allocates no forensic state, keeping
    /// the NullRecorder fast path untouched.
    pub fn forensics(mut self, config: ForensicsConfig) -> Self {
        self.forensics = Some(config);
        self
    }

    /// Assembles the pipeline.
    pub fn build(self) -> DetectionPipeline {
        let projector = self.detectors.iter().find_map(|d| d.projector());
        // A sanitizer without an expected length inherits it from the
        // projection provider.
        let sanitizer = self
            .sanitizer
            .map(|s| match (s.config().expected_len, projector) {
                (None, Some(fp)) => s.with_expected_len(fp.expected_trace_len()),
                _ => s,
            });
        // Per-detector label sets are fixed at build time so the hot
        // path never re-renders them.
        let labels_for = |domain: DetectorDomain| -> Vec<LabelSet> {
            self.detectors
                .iter()
                .filter(|d| d.domain() == domain)
                .map(|d| self.labels.with("detector", d.name()))
                .collect()
        };
        let trace_detector_labels = labels_for(DetectorDomain::PerEncryption);
        let window_detector_labels = labels_for(DetectorDomain::ContinuousWindow);
        DetectionPipeline {
            detectors: self.detectors,
            fusion: self.fusion,
            sanitizer,
            health: self
                .health
                .map_or_else(HealthTracker::default, HealthTracker::new),
            parallel: self.parallel,
            labels: self.labels,
            trace_detector_labels,
            window_detector_labels,
            forensics: self.forensics.map(PipelineForensics::new),
            self_calibrating: false,
            traces_seen: 0,
            traces_rejected: 0,
            traces_degraded: 0,
            windows_seen: 0,
            windows_rejected: 0,
            alarms: Vec::new(),
            welch_plan: None,
        }
    }
}

/// Forensic state a pipeline only carries when
/// [`PipelineBuilder::forensics`] enabled it.
#[derive(Debug)]
struct PipelineForensics {
    flight: FlightRecorder,
    decisions: Vec<DecisionRecord>,
    decisions_dropped: u64,
    max_decisions: usize,
}

impl PipelineForensics {
    fn new(config: ForensicsConfig) -> Self {
        Self {
            flight: FlightRecorder::new(config.flight),
            decisions: Vec::new(),
            decisions_dropped: 0,
            max_decisions: config.max_decisions,
        }
    }
}

/// One trace after the pure (parallel-safe) stages: either rejected
/// (by the sanitizer, or because it could not be featurized or scored)
/// or scored. [`DetectionPipeline::absorb_trace`] turns it into a
/// [`TraceOutcome`] serially.
#[derive(Debug)]
enum ScreenedTrace<'a> {
    Rejected(TraceDefect),
    Scored {
        /// The sanitizer's `Clean` or `Degraded` verdict.
        verdict: TraceVerdict,
        frame: FeatureFrame<'a>,
        scores: Vec<Score>,
    },
}

/// The staged detection pipeline (see module docs).
#[derive(Debug)]
pub struct DetectionPipeline {
    detectors: Vec<Box<dyn Detector>>,
    fusion: FusionPolicy,
    sanitizer: Option<TraceSanitizer>,
    health: HealthTracker,
    parallel: ParallelConfig,
    labels: LabelSet,
    trace_detector_labels: Vec<LabelSet>,
    window_detector_labels: Vec<LabelSet>,
    forensics: Option<PipelineForensics>,
    /// Whether the pipeline was fitted from a self-calibrating baseline
    /// source; gates the calibration-state stamp on decision records so
    /// golden pipelines stay byte-identical.
    self_calibrating: bool,
    traces_seen: u64,
    traces_rejected: u64,
    traces_degraded: u64,
    windows_seen: u64,
    windows_rejected: u64,
    alarms: Vec<PipelineAlarm>,
    /// The Welch plan for the last window shape seen; rebuilt by
    /// [`Self::ingest_window`] when the window length, sample rate or
    /// shared [`WelchSpec`] changes.
    welch_plan: Option<WelchPlan>,
}

impl DetectionPipeline {
    /// Starts building a pipeline.
    pub fn builder() -> PipelineBuilder {
        PipelineBuilder::default()
    }

    /// Fits every registered detector on the golden context, in
    /// registration order.
    ///
    /// # Errors
    ///
    /// The first detector's fitting error (later detectors are left
    /// unfitted).
    pub fn fit(&mut self, ctx: &GoldenContext<'_>) -> Result<(), TrustError> {
        let _span = telemetry::span("pipeline_fit");
        for d in &mut self.detectors {
            d.fit(ctx)?;
        }
        self.self_calibrating = false;
        Ok(())
    }

    /// Fits every registered detector from a [`BaselineSource`], in
    /// registration order. The `Golden` arm is exactly [`Self::fit`];
    /// the `SelfCalibrating` arm puts every detector into its warm-up —
    /// the pipeline then runs the calibration state machine
    /// ([`Self::calibration_state`]): observations feed the rolling
    /// baselines through the serial calibrate hook (gated on sensor
    /// health) until every detector reports ready, and nothing can
    /// alarm before that.
    ///
    /// # Errors
    ///
    /// The first detector's fitting error (later detectors are left
    /// unfitted), or [`TrustError::InvalidParameter`] if a registered
    /// detector cannot self-calibrate.
    pub fn fit_baseline(&mut self, source: &BaselineSource<'_>) -> Result<(), TrustError> {
        match source {
            BaselineSource::Golden(ctx) => self.fit(ctx),
            BaselineSource::SelfCalibrating(_) => {
                let _span = telemetry::span("pipeline_fit");
                for d in &mut self.detectors {
                    d.fit_baseline(source)?;
                }
                self.self_calibrating = true;
                Ok(())
            }
        }
    }

    /// Whether every registered detector is ready to score.
    pub fn is_fitted(&self) -> bool {
        self.detectors.iter().all(|d| d.is_fitted())
    }

    /// Whether the pipeline was fitted from a self-calibrating
    /// (golden-model-free) baseline source.
    pub fn is_self_calibrating(&self) -> bool {
        self.self_calibrating
    }

    /// The calibration state machine's judgement: `Armed` once every
    /// registered detector reports [`DetectorReadiness::Ready`],
    /// `Calibrating` (with the ready count) before that. Meaningful for
    /// golden pipelines too — an unfitted detector keeps the pipeline
    /// out of `Armed`.
    ///
    /// [`DetectorReadiness::Ready`]: crate::baseline::DetectorReadiness
    pub fn calibration_state(&self) -> CalibrationState {
        let total = self.detectors.len();
        let ready = self
            .detectors
            .iter()
            .filter(|d| d.readiness().is_ready())
            .count();
        if ready == total {
            CalibrationState::Armed
        } else {
            CalibrationState::Calibrating { ready, total }
        }
    }

    /// Per-detector readiness, in registration order.
    pub fn detector_readiness(&self) -> Vec<crate::baseline::DetectorReadiness> {
        self.detectors.iter().map(|d| d.readiness()).collect()
    }

    /// The registered detectors, in registration (vote) order.
    pub fn detectors(&self) -> &[Box<dyn Detector>] {
        &self.detectors
    }

    /// Names of the registered detectors, in registration order.
    pub fn detector_names(&self) -> Vec<&'static str> {
        self.detectors.iter().map(|d| d.name()).collect()
    }

    /// The fusion policy in effect.
    pub fn fusion(&self) -> &FusionPolicy {
        &self.fusion
    }

    /// The shared projection provider: the first registered detector
    /// lending a fitted fingerprint.
    pub fn projector(&self) -> Option<&GoldenFingerprint> {
        self.detectors.iter().find_map(|d| d.projector())
    }

    /// The shared Welch settings: the first registered detector lending
    /// a spec.
    fn welch_spec(&self) -> Option<WelchSpec> {
        self.detectors.iter().find_map(|d| d.welch_spec())
    }

    // ---------------------------------------------------------------
    // Pure stages (parallel-safe).
    // ---------------------------------------------------------------

    /// Whether any per-encryption detector needs the projection slot.
    fn trace_plan_needs_projection(&self) -> bool {
        self.detectors
            .iter()
            .filter(|d| d.domain() == DetectorDomain::PerEncryption)
            .any(|d| d.feature_plan().needs_projection)
    }

    /// The pure per-trace pass: RMS features → energy screen →
    /// projection → scores, with each transform computed exactly once.
    /// Never fails — a trace that cannot be featurized or scored comes
    /// back [`ScreenedTrace::Rejected`].
    fn screen_and_score<'a>(&self, samples: &'a [f64]) -> ScreenedTrace<'a> {
        // Stage A: RMS features, shared by the energy screen and the
        // projection. Errors are deferred: the sanitizer may reject the
        // trace for a more specific structural reason first.
        let fp = self.projector();
        let rms = fp.map(|f| f.features(samples));
        let ratio = match (&rms, fp) {
            (Some(Ok(feats)), Some(f)) => Some(f.energy_ratio_of_features(feats)),
            _ => None,
        };
        let verdict = match &self.sanitizer {
            Some(s) => s.inspect_scaled(samples, ratio),
            None => TraceVerdict::Clean,
        };
        if let TraceVerdict::Rejected { reason } = verdict {
            return ScreenedTrace::Rejected(reason);
        }
        // Stage B: projection and scoring on the shared frame.
        match self.featurize_and_score(samples, rms, ratio) {
            Ok((frame, scores)) => ScreenedTrace::Scored {
                verdict,
                frame,
                scores,
            },
            Err(e) => ScreenedTrace::Rejected(Self::evaluation_defect(&e)),
        }
    }

    /// Stage B of [`Self::screen_and_score`]: fills the frame from the
    /// stage-A features and scores every per-encryption detector.
    fn featurize_and_score<'a>(
        &self,
        samples: &'a [f64],
        rms: Option<Result<Vec<f64>, TrustError>>,
        ratio: Option<f64>,
    ) -> Result<(FeatureFrame<'a>, Vec<Score>), TrustError> {
        let mut frame = FeatureFrame::new(samples);
        if let Some(r) = ratio {
            frame.set_energy_ratio(r);
        }
        if self.trace_plan_needs_projection() {
            let (Some(fp), Some(rms)) = (self.projector(), rms) else {
                return Err(TrustError::InvalidParameter {
                    what: "no projection provider registered for the feature plan",
                });
            };
            let rms = rms?;
            let projection = fp.project_features(&rms)?;
            frame.set_rms(rms);
            frame.set_projection(projection);
        }
        let scores = self
            .detectors
            .iter()
            .filter(|d| d.domain() == DetectorDomain::PerEncryption)
            .map(|d| d.score(&frame))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((frame, scores))
    }

    /// Readies the Welch plan for `window`: checks the sample rate
    /// against a reference-based detector's pin, and rebuilds the plan
    /// when the window's shape or the shared [`WelchSpec`] changed since
    /// the last window.
    fn plan_window(&mut self, window: &VoltageTrace) -> Result<(), TrustError> {
        let spec = self.welch_spec().ok_or(TrustError::InvalidParameter {
            what: "no Welch-spec provider registered for the feature plan",
        })?;
        let fs = window.sample_rate_hz();
        if let Some(expected_hz) = spec.expected_rate_hz {
            if (fs - expected_hz).abs() > 1e-6 * expected_hz {
                return Err(TrustError::InvalidParameter {
                    what: "suspect sample rate must match the golden trace",
                });
            }
        }
        let len = window.samples().len();
        let current = self
            .welch_plan
            .as_ref()
            .is_some_and(|p| p.matches(len, fs, spec.window, spec.segments));
        if !current {
            self.welch_plan = Some(WelchPlan::new(len, fs, spec.window, spec.segments)?);
        }
        Ok(())
    }

    /// The pure window pass: the Welch spectrum is computed once, with
    /// the plan [`Self::plan_window`] readied, and every window detector
    /// scores it.
    fn featurize_window<'a>(
        &self,
        window: &'a VoltageTrace,
    ) -> Result<(FeatureFrame<'a>, Vec<Score>), TrustError> {
        let plan = self
            .welch_plan
            .as_ref()
            .ok_or(TrustError::InvalidParameter {
                what: "no Welch plan readied for the window",
            })?;
        let spectrum = plan.estimate(window.samples())?;
        let mut frame = FeatureFrame::window(window.samples(), window.sample_rate_hz());
        frame.set_spectrum(spectrum);
        let scores = self
            .detectors
            .iter()
            .filter(|d| d.domain() == DetectorDomain::ContinuousWindow)
            .map(|d| d.score(&frame))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((frame, scores))
    }

    /// Maps an evaluation failure to the defect it is reported as.
    fn evaluation_defect(e: &TrustError) -> TraceDefect {
        match e {
            TrustError::Dsp(DspError::LengthMismatch { expected, actual }) => {
                TraceDefect::WrongLength {
                    expected: *expected,
                    actual: *actual,
                }
            }
            _ => TraceDefect::EvaluationFailed,
        }
    }

    // ---------------------------------------------------------------
    // Serial stages.
    // ---------------------------------------------------------------

    /// Books one rejected trace.
    fn record_rejected(&mut self, reason: &TraceDefect) {
        self.traces_rejected += 1;
        telemetry::counter("monitor.trace_rejects", 1);
        if !self.labels.is_empty() {
            telemetry::counter_with("monitor.trace_rejects", &self.labels, 1);
        }
        telemetry::event(
            "trace_rejected",
            &[("reason", FieldValue::from(reason.label()))],
        );
    }

    /// Books one rejected continuous window.
    fn record_window_rejected(&mut self, reason: &TraceDefect) {
        self.windows_rejected += 1;
        telemetry::counter("monitor.window_rejects", 1);
        if !self.labels.is_empty() {
            telemetry::counter_with("monitor.window_rejects", &self.labels, 1);
        }
        telemetry::event(
            "window_rejected",
            &[("reason", FieldValue::from(reason.label()))],
        );
    }

    // ---------------------------------------------------------------
    // Decision forensics.
    // ---------------------------------------------------------------

    /// Whether decision records should be built for this observation:
    /// either the pipeline carries forensic state or a global recorder
    /// wants them. With neither, the check costs one branch and one
    /// relaxed atomic load — the NullRecorder fast path.
    #[inline]
    fn forensics_active(&self) -> bool {
        self.forensics.is_some() || telemetry::is_enabled()
    }

    /// Builds the decision skeleton for one scored observation.
    fn scored_decision(
        &self,
        domain: &str,
        index: u64,
        votes: &[DetectorVerdict],
        alarm: Option<&PipelineAlarm>,
        digest: FrameDigest,
    ) -> DecisionRecord {
        let mut rec = DecisionRecord::new(domain);
        rec.index = Some(index);
        rec.labels = self.labels.clone();
        rec.detectors = votes
            .iter()
            .map(|v| {
                DetectorDecision::new(
                    v.detector,
                    v.score.statistic,
                    v.score.threshold,
                    v.suspected,
                )
            })
            .collect();
        rec.fused_alarm = alarm.is_some();
        rec.correlation_id = alarm.map(|a| a.correlation_id);
        rec.digest = Some(digest);
        if self.self_calibrating {
            rec.calibration = Some(self.calibration_state().label().to_string());
        }
        rec
    }

    /// Builds the decision record for one rejected observation.
    fn rejected_decision(&self, domain: &str, reason: &TraceDefect) -> DecisionRecord {
        let mut rec = DecisionRecord::new(domain);
        rec.verdict = "rejected".to_string();
        rec.reject_reason = Some(reason.label().to_string());
        rec.labels = self.labels.clone();
        if self.self_calibrating {
            rec.calibration = Some(self.calibration_state().label().to_string());
        }
        rec
    }

    /// Emits the labeled per-detector margin series for one scored
    /// observation (only when identity labels are set — unlabeled
    /// pipelines keep the legacy exposition byte-compatible).
    fn emit_labeled_votes(&self, domain: DetectorDomain, decisions: &[DetectorDecision]) {
        if self.labels.is_empty() {
            return;
        }
        let per_detector = match domain {
            DetectorDomain::PerEncryption => &self.trace_detector_labels,
            DetectorDomain::ContinuousWindow => &self.window_detector_labels,
        };
        for (d, labels) in decisions.iter().zip(per_detector) {
            telemetry::observe_with("detector.margin", labels, d.margin);
        }
    }

    /// Finalizes and commits one decision record: the global recorder
    /// sees it first, then the pipeline's own forensic log and flight
    /// recorder (when enabled).
    fn commit_decision(&mut self, mut rec: DecisionRecord) {
        rec.health = self.health.state().label().to_string();
        if rec.health_transition.is_some() && !self.labels.is_empty() {
            telemetry::counter_with("monitor.health_transitions", &self.labels, 1);
        }
        telemetry::decision(&rec);
        if let Some(f) = &mut self.forensics {
            f.flight.record(&rec);
            if f.decisions.len() < f.max_decisions {
                f.decisions.push(rec);
            } else {
                f.decisions_dropped += 1;
            }
        }
    }

    /// Captures the `(from, to)` labels of a health transition that
    /// happened between `transitions_before` and now.
    fn transition_since(&self, transitions_before: usize) -> Option<(String, String)> {
        if self.health.transitions().len() > transitions_before {
            self.health
                .last_transition()
                .map(|t| (t.from.label().to_string(), t.to.label().to_string()))
        } else {
            None
        }
    }

    /// Collects the per-detector votes of one domain for a score list.
    fn votes_for(&self, domain: DetectorDomain, scores: &[Score]) -> Vec<DetectorVerdict> {
        self.detectors
            .iter()
            .filter(|d| d.domain() == domain)
            .zip(scores)
            .map(|(d, s)| DetectorVerdict {
                detector: d.name(),
                suspected: d.verdict(s),
                score: s.clone(),
            })
            .collect()
    }

    /// Runs the serial absorb and calibrate hooks of one domain's
    /// detectors. The calibrate hook receives the current sensor-health
    /// state so self-calibrating baselines can gate their updates (a
    /// no-op for golden-fitted detectors).
    fn absorb_hooks(&mut self, domain: DetectorDomain, frame: &FeatureFrame<'_>, scores: &[Score]) {
        let health = self.health.state();
        let mut scores = scores.iter();
        for d in self.detectors.iter_mut().filter(|d| d.domain() == domain) {
            if let Some(s) = scores.next() {
                d.absorb(frame, s);
                d.calibrate(frame, s, health);
            }
        }
    }

    /// Fuses one domain's votes; on alarm, draws the correlation id,
    /// emits telemetry, and appends to the alarm log.
    fn fuse(
        &mut self,
        domain: DetectorDomain,
        index: u64,
        votes: &[DetectorVerdict],
    ) -> Option<PipelineAlarm> {
        if !self.fusion.decide(votes.iter().map(|v| v.suspected)) {
            return None;
        }
        let alarm = PipelineAlarm {
            domain,
            index,
            verdicts: votes.to_vec(),
            correlation_id: telemetry::next_correlation_id(),
        };
        telemetry::counter("monitor.alarms", 1);
        if !self.labels.is_empty() {
            telemetry::counter_with("monitor.alarms", &self.labels, 1);
        }
        self.emit_alarm_event(&alarm);
        self.alarms.push(alarm.clone());
        Some(alarm)
    }

    /// Emits the alarm telemetry event: `time_domain` for trace alarms,
    /// `spectral` for window alarms whose primary vote carries spectral
    /// anomalies, and one named after the primary detector otherwise.
    fn emit_alarm_event(&self, alarm: &PipelineAlarm) {
        let primary = alarm
            .verdicts
            .iter()
            .find(|v| v.suspected)
            .or_else(|| alarm.verdicts.first());
        let Some(primary) = primary else {
            return;
        };
        match alarm.domain {
            DetectorDomain::PerEncryption => telemetry::event(
                "alarm",
                &[
                    ("kind", FieldValue::from("time_domain")),
                    ("correlation_id", FieldValue::U64(alarm.correlation_id)),
                    ("trace_index", FieldValue::U64(alarm.index)),
                    ("distance", FieldValue::F64(primary.score.statistic)),
                    ("threshold", FieldValue::F64(primary.score.threshold)),
                ],
            ),
            DetectorDomain::ContinuousWindow => {
                if let crate::detector::ScoreDetail::Spectral { anomalies } = &primary.score.detail
                {
                    if let Some(top) = anomalies.first() {
                        telemetry::event(
                            "alarm",
                            &[
                                ("kind", FieldValue::from("spectral")),
                                ("correlation_id", FieldValue::U64(alarm.correlation_id)),
                                ("frequency_hz", FieldValue::F64(top.frequency_hz)),
                                ("spot_count", FieldValue::U64(anomalies.len() as u64)),
                            ],
                        );
                        return;
                    }
                }
                telemetry::event(
                    "alarm",
                    &[
                        ("kind", FieldValue::from(primary.detector)),
                        ("correlation_id", FieldValue::U64(alarm.correlation_id)),
                        ("window_index", FieldValue::U64(alarm.index)),
                        ("statistic", FieldValue::F64(primary.score.statistic)),
                        ("threshold", FieldValue::F64(primary.score.threshold)),
                    ],
                )
            }
        }
    }

    /// Turns one screened trace into its outcome: counters, fusion,
    /// alarm bookkeeping, health — the serial tail of the trace paths.
    fn absorb_trace(&mut self, screened: ScreenedTrace<'_>) -> TraceOutcome {
        let (verdict, index, votes, alarm, rec, rms) = match screened {
            ScreenedTrace::Rejected(reason) => {
                self.record_rejected(&reason);
                let rec = self
                    .forensics_active()
                    .then(|| self.rejected_decision("trace", &reason));
                (
                    TraceVerdict::Rejected { reason },
                    None,
                    Vec::new(),
                    None,
                    rec,
                    None,
                )
            }
            ScreenedTrace::Scored {
                verdict,
                frame,
                scores,
            } => {
                if verdict.is_degraded() {
                    self.traces_degraded += 1;
                    telemetry::counter("monitor.trace_degraded", 1);
                }
                let index = self.traces_seen;
                self.traces_seen += 1;
                telemetry::counter("monitor.traces", 1);
                if !self.labels.is_empty() {
                    telemetry::counter_with("monitor.traces", &self.labels, 1);
                }
                if let Some(s) = scores.first() {
                    telemetry::observe("monitor.distance", s.statistic);
                }
                let votes = self.votes_for(DetectorDomain::PerEncryption, &scores);
                let digest = self
                    .forensics_active()
                    .then(|| FrameDigest::of(frame.samples()));
                self.absorb_hooks(DetectorDomain::PerEncryption, &frame, &scores);
                let alarm = self.fuse(DetectorDomain::PerEncryption, index, &votes);
                let rec = digest.map(|digest| {
                    let mut rec =
                        self.scored_decision("trace", index, &votes, alarm.as_ref(), digest);
                    rec.verdict = if verdict.is_degraded() {
                        "degraded"
                    } else {
                        "clean"
                    }
                    .to_string();
                    self.emit_labeled_votes(DetectorDomain::PerEncryption, &rec.detectors);
                    rec
                });
                (verdict, Some(index), votes, alarm, rec, frame.into_rms())
            }
        };
        let transitions_before = self.health.transitions().len();
        let health = self.health.observe(verdict.is_rejected());
        if let Some(mut rec) = rec {
            rec.health_transition = self.transition_since(transitions_before);
            self.commit_decision(rec);
        }
        TraceOutcome {
            verdict,
            index,
            votes,
            alarm,
            health,
            rms,
        }
    }

    // ---------------------------------------------------------------
    // Entry points.
    // ---------------------------------------------------------------

    /// Ingests one trace: screen, featurize once, score every
    /// per-encryption detector, fuse, update health. Never fails —
    /// traces that cannot be scored (sanitizer defects, wrong length,
    /// unfitted detector) come back [`TraceVerdict::Rejected`].
    pub fn ingest_trace(&mut self, samples: &[f64]) -> TraceOutcome {
        let _span = telemetry::span("ingest_trace");
        let screened = self.screen_and_score(samples);
        self.absorb_trace(screened)
    }

    /// Ingests a batch. The pure stages (screen, featurize, score) fan
    /// across the worker pool with a chunk layout independent of the
    /// worker count; outcomes are absorbed serially in trace order, so
    /// the result is exactly what [`Self::ingest_trace`] on each trace
    /// in order would produce.
    pub fn ingest_batch(&mut self, traces: &[Vec<f64>]) -> BatchOutcome {
        let _span = telemetry::span("ingest_batch");
        let screened: Vec<ScreenedTrace<'_>> = self
            .parallel
            .map(traces.len(), |i| self.screen_and_score(&traces[i]));
        let mut outcomes = Vec::with_capacity(traces.len());
        let mut alarms = Vec::new();
        for s in screened {
            let outcome = self.absorb_trace(s);
            if let Some(a) = &outcome.alarm {
                alarms.push(a.clone());
            }
            outcomes.push(outcome);
        }
        BatchOutcome { outcomes, alarms }
    }

    /// Screens a continuous window: structural checks without the
    /// per-encryption length gate, plus the sample-rate gate when a
    /// reference-based spectral detector pins the rate.
    fn screen_window(&self, window: &VoltageTrace) -> TraceVerdict {
        let Some(s) = &self.sanitizer else {
            return TraceVerdict::Clean;
        };
        let windowed = TraceSanitizer::new(SanitizerConfig {
            expected_len: None,
            ..s.config()
        });
        let mut v = windowed.inspect(window.samples());
        if !v.is_rejected() {
            if let Some(expected_hz) = self.welch_spec().and_then(|w| w.expected_rate_hz) {
                let actual_hz = window.sample_rate_hz();
                if (actual_hz - expected_hz).abs() > 1e-6 * expected_hz {
                    v = TraceVerdict::Rejected {
                        reason: TraceDefect::SampleRateMismatch {
                            expected_hz,
                            actual_hz,
                        },
                    };
                }
            }
        }
        v
    }

    /// Ingests a continuous window: structural screening and the
    /// sample-rate gate, then the spectrum is computed once and every
    /// window detector scores it. Rejected windows (screened out, or
    /// unscoreable) skip scoring, feed the health tracker, and never
    /// alarm. Without a registered window detector the window is
    /// screened but not counted. Never fails.
    pub fn ingest_window(&mut self, window: &VoltageTrace) -> WindowOutcome {
        let _span = telemetry::span("ingest_window");
        let has_window_detector = self
            .detectors
            .iter()
            .any(|d| d.domain() == DetectorDomain::ContinuousWindow);
        let (verdict, scored) = match self.screen_window(window) {
            v if v.is_rejected() || !has_window_detector => (v, None),
            v => match self
                .plan_window(window)
                .and_then(|()| self.featurize_window(window))
            {
                Ok(scored) => (v, Some(scored)),
                Err(_) => (
                    TraceVerdict::Rejected {
                        reason: TraceDefect::EvaluationFailed,
                    },
                    None,
                ),
            },
        };
        if let TraceVerdict::Rejected { reason } = &verdict {
            self.record_window_rejected(reason);
        }
        let transitions_before = self.health.transitions().len();
        let health = self.health.observe(verdict.is_rejected());
        let health_transition = self.transition_since(transitions_before);
        let mut outcome = WindowOutcome {
            verdict,
            index: None,
            votes: Vec::new(),
            alarm: None,
            health,
        };
        let rec = match (&outcome.verdict, scored) {
            (TraceVerdict::Rejected { reason }, _) => self
                .forensics_active()
                .then(|| self.rejected_decision("window", reason)),
            (_, Some((frame, scores))) => {
                let index = self.windows_seen;
                self.windows_seen += 1;
                telemetry::counter("monitor.windows", 1);
                if !self.labels.is_empty() {
                    telemetry::counter_with("monitor.windows", &self.labels, 1);
                }
                let votes = self.votes_for(DetectorDomain::ContinuousWindow, &scores);
                let digest = self
                    .forensics_active()
                    .then(|| FrameDigest::of(window.samples()));
                self.absorb_hooks(DetectorDomain::ContinuousWindow, &frame, &scores);
                let alarm = self.fuse(DetectorDomain::ContinuousWindow, index, &votes);
                let rec = digest.map(|digest| {
                    let rec = self.scored_decision("window", index, &votes, alarm.as_ref(), digest);
                    self.emit_labeled_votes(DetectorDomain::ContinuousWindow, &rec.detectors);
                    rec
                });
                outcome.index = Some(index);
                outcome.votes = votes;
                outcome.alarm = alarm;
                rec
            }
            (_, None) => None,
        };
        if let Some(mut rec) = rec {
            rec.health_transition = health_transition;
            self.commit_decision(rec);
        }
        outcome
    }

    // ---------------------------------------------------------------
    // Accessors.
    // ---------------------------------------------------------------

    /// All fused alarms raised so far, in order.
    pub fn alarms(&self) -> &[PipelineAlarm] {
        &self.alarms
    }

    /// Clears the alarm log.
    pub fn acknowledge_alarms(&mut self) {
        self.alarms.clear();
    }

    /// Number of per-encryption traces scored (rejected traces are
    /// excluded — see [`Self::traces_rejected`]).
    pub fn traces_seen(&self) -> u64 {
        self.traces_seen
    }

    /// Number of traces the sanitizer rejected.
    pub fn traces_rejected(&self) -> u64 {
        self.traces_rejected
    }

    /// Number of traces scored despite mild defects.
    pub fn traces_degraded(&self) -> u64 {
        self.traces_degraded
    }

    /// Number of continuous windows scored.
    pub fn windows_seen(&self) -> u64 {
        self.windows_seen
    }

    /// Number of continuous windows the sanitizer rejected.
    pub fn windows_rejected(&self) -> u64 {
        self.windows_rejected
    }

    /// Total traces offered to the pipeline, scored or rejected.
    pub fn traces_ingested(&self) -> u64 {
        self.traces_seen + self.traces_rejected
    }

    /// Fraction of scored traces whose fused per-encryption decision
    /// alarmed.
    pub fn alarm_rate(&self) -> f64 {
        if self.traces_seen == 0 {
            return 0.0;
        }
        let fused = self
            .alarms
            .iter()
            .filter(|a| a.domain == DetectorDomain::PerEncryption)
            .count();
        fused as f64 / self.traces_seen as f64
    }

    /// Current sensor-health judgement.
    pub fn health(&self) -> SensorHealth {
        self.health.state()
    }

    /// The health tracker (rejection-rate EWMA, transition log).
    pub fn health_tracker(&self) -> &HealthTracker {
        &self.health
    }

    /// Length of the current unbroken run of rejected traces — the
    /// quarantine signal the fleet's per-chip circuit breaker trips on
    /// (see [`HealthTracker::consecutive_rejections`]).
    pub fn consecutive_rejections(&self) -> u64 {
        self.health.consecutive_rejections()
    }

    /// The installed sanitizer, if any.
    pub fn sanitizer(&self) -> Option<&TraceSanitizer> {
        self.sanitizer.as_ref()
    }

    /// The bounded label set stamped on this pipeline's metrics and
    /// decision records (empty unless configured at build time).
    pub fn labels(&self) -> &LabelSet {
        &self.labels
    }

    /// Whether a local forensics store (decision log + flight recorder)
    /// was configured at build time.
    pub fn forensics_enabled(&self) -> bool {
        self.forensics.is_some()
    }

    /// Decision records retained locally, oldest first (empty unless
    /// forensics was configured).
    pub fn decisions(&self) -> &[DecisionRecord] {
        self.forensics.as_ref().map_or(&[], |f| &f.decisions)
    }

    /// Decision records dropped after the local log filled.
    pub fn decisions_dropped(&self) -> u64 {
        self.forensics.as_ref().map_or(0, |f| f.decisions_dropped)
    }

    /// Sealed alarm flight windows, oldest first (empty unless
    /// forensics was configured).
    pub fn flight_windows(&self) -> &[FlightWindow] {
        self.forensics.as_ref().map_or(&[], |f| f.flight.windows())
    }

    /// Seals every still-open flight window (call at end of campaign so
    /// windows whose post-context never filled become visible).
    pub fn seal_flight_windows(&mut self) {
        if let Some(f) = &mut self.forensics {
            f.flight.flush();
        }
    }

    /// Flight windows dropped after the recorder's window cap filled.
    pub fn flight_windows_dropped(&self) -> u64 {
        self.forensics
            .as_ref()
            .map_or(0, |f| f.flight.windows_dropped())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acquisition::TraceSet;
    use crate::detector::{EuclideanDetector, ScoreDetail, SpectralWindowDetector};
    use crate::fingerprint::FingerprintConfig;
    use crate::spectral::{SpectralConfig, SpectralDetector};
    use emtrust_dsp::spectrum::Spectrum;
    use emtrust_dsp::window::Window;
    use emtrust_telemetry::FlightRecorderConfig;

    fn synthetic_set(n: usize, amplitude: f64, seed: u64) -> TraceSet {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        TraceSet::new(
            (0..n)
                .map(|_| {
                    (0..256)
                        .map(|j| {
                            amplitude * ((j as f64 / 9.0).sin() + 0.02 * rng.gen_range(-1.0..1.0))
                        })
                        .collect()
                })
                .collect(),
            640e6,
        )
        .unwrap()
    }

    fn euclidean_pipeline() -> DetectionPipeline {
        let golden = synthetic_set(32, 1.0, 1);
        let fp = GoldenFingerprint::fit(&golden, FingerprintConfig::default()).unwrap();
        DetectionPipeline::builder()
            .detector(Box::new(EuclideanDetector::new(fp)))
            .build()
    }

    #[test]
    fn clean_traces_do_not_alarm() {
        let mut p = euclidean_pipeline();
        for t in synthetic_set(8, 1.0, 2).traces() {
            let o = p.ingest_trace(t);
            assert!(o.alarm.is_none());
            assert_eq!(o.votes.len(), 1);
            assert!(!o.votes[0].suspected);
        }
        assert_eq!(p.traces_seen(), 8);
        assert_eq!(p.alarm_rate(), 0.0);
    }

    #[test]
    fn anomalous_traces_raise_fused_alarms() {
        let mut p = euclidean_pipeline();
        // A clean trace first: alarm indices count every scored trace.
        assert!(p
            .ingest_trace(&synthetic_set(1, 1.0, 4).traces()[0])
            .alarm
            .is_none());
        for (i, t) in synthetic_set(4, 1.4, 3).traces().iter().enumerate() {
            let o = p.ingest_trace(t);
            let alarm = o.alarm.expect("anomaly must alarm");
            assert_eq!(alarm.domain, DetectorDomain::PerEncryption);
            assert_eq!(alarm.index, i as u64 + 1);
            assert_eq!(alarm.verdicts.len(), 1);
            assert!(alarm.verdicts[0].suspected);
        }
        assert!((p.alarm_rate() - 0.8).abs() < 1e-12);
        assert_eq!(p.alarms().len(), 4);
        p.acknowledge_alarms();
        assert!(p.alarms().is_empty());
    }

    #[test]
    fn batch_matches_serial_ingest() {
        let golden = synthetic_set(32, 1.0, 1);
        let fp = GoldenFingerprint::fit(&golden, FingerprintConfig::default()).unwrap();
        let traces: Vec<Vec<f64>> = synthetic_set(6, 1.0, 2)
            .traces()
            .iter()
            .chain(synthetic_set(2, 1.4, 3).traces())
            .cloned()
            .collect();
        let mut serial = DetectionPipeline::builder()
            .detector(Box::new(EuclideanDetector::new(fp.clone())))
            .build();
        let serial_outcomes: Vec<TraceOutcome> =
            traces.iter().map(|t| serial.ingest_trace(t)).collect();
        let mut batched = DetectionPipeline::builder()
            .detector(Box::new(EuclideanDetector::new(fp.clone())))
            .build();
        let batch = batched.ingest_batch(&traces);
        assert_eq!(batch.outcomes, serial_outcomes);
        assert_eq!(serial.alarms(), batched.alarms());

        // The sanitized batch path reports per trace, exactly as the
        // sanitized per-trace path does, with one trace rejected.
        let mut faulty = traces.clone();
        faulty[1][0] = f64::INFINITY;
        let sanitized = || {
            DetectionPipeline::builder()
                .detector(Box::new(EuclideanDetector::new(fp.clone())))
                .sanitizer(TraceSanitizer::default())
                .build()
        };
        let mut serial = sanitized();
        let serial_outcomes: Vec<TraceOutcome> =
            faulty.iter().map(|t| serial.ingest_trace(t)).collect();
        let mut batched = sanitized();
        let batch = batched.ingest_batch(&faulty);
        assert_eq!(batch.outcomes, serial_outcomes);
        assert_eq!(batch.rejected(), 1);
        assert_eq!(batch.clean(), 7);
        assert_eq!(batch.alarms.len(), 2);
        assert_eq!(serial.alarms(), batched.alarms());
        assert_eq!(serial.traces_seen(), batched.traces_seen());
    }

    #[test]
    fn identically_built_pipelines_agree_alarm_for_alarm() {
        let golden = synthetic_set(32, 1.0, 1);
        let fp = GoldenFingerprint::fit(&golden, FingerprintConfig::default()).unwrap();
        let traces: Vec<Vec<f64>> = synthetic_set(6, 1.0, 2)
            .traces()
            .iter()
            .chain(synthetic_set(2, 1.4, 3).traces())
            .cloned()
            .collect();
        let build = || {
            DetectionPipeline::builder()
                .detector(Box::new(EuclideanDetector::new(fp.clone())))
                .build()
        };
        let (mut first, mut second) = (build(), build());
        let a = first.ingest_batch(&traces);
        let b = second.ingest_batch(&traces);
        assert_eq!(a, b);
        assert_eq!(a.alarms.len(), 2);
        assert_eq!(first.alarms(), second.alarms());
        assert_eq!(first.alarm_rate(), second.alarm_rate());
        assert_eq!(first.traces_seen(), second.traces_seen());

        // A sanitizer is a pure screen: on clean input it changes no
        // alarm and rejects nothing.
        let mut sanitized = DetectionPipeline::builder()
            .detector(Box::new(EuclideanDetector::new(fp.clone())))
            .sanitizer(TraceSanitizer::default())
            .build();
        let c = sanitized.ingest_batch(&traces);
        assert_eq!(c.alarms, a.alarms);
        assert_eq!(sanitized.alarms(), first.alarms());
        assert_eq!(sanitized.traces_rejected(), 0);
        assert_eq!(sanitized.health(), SensorHealth::Healthy);
    }

    #[test]
    fn correlation_ids_are_unique_and_monotonic_across_pipelines() {
        let mut a = euclidean_pipeline();
        let mut b = euclidean_pipeline();
        let mut ids = Vec::new();
        for seed in 0..3 {
            for p in [&mut a, &mut b] {
                let set = synthetic_set(1, 1.5, 40 + seed);
                if let Some(alarm) = p.ingest_trace(&set.traces()[0]).alarm {
                    ids.push(alarm.correlation_id);
                }
            }
        }
        assert_eq!(ids.len(), 6);
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids {ids:?}");
    }

    #[test]
    fn pipeline_alarm_equality_ignores_the_correlation_id() {
        let alarm = |index: u64, correlation_id: u64| PipelineAlarm {
            domain: DetectorDomain::PerEncryption,
            index,
            verdicts: Vec::new(),
            correlation_id,
        };
        assert_eq!(alarm(1, 10), alarm(1, 99));
        assert_ne!(alarm(1, 10), alarm(2, 10));
        let mut window = alarm(1, 10);
        window.domain = DetectorDomain::ContinuousWindow;
        assert_ne!(window, alarm(1, 10));
    }

    /// A continuous window sampled at `rate`: a 10 MHz tone plus, when
    /// `spot` is set, a 25 MHz line — the narrow-band spot an armed A2
    /// trigger adds to the spectrum.
    fn tone_window(rate: f64, spot: bool, seed: u64) -> VoltageTrace {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let tone = |f: f64, i: usize| (2.0 * std::f64::consts::PI * f * i as f64 / 640e6).sin();
        VoltageTrace::new(
            (0..16384)
                .map(|i| {
                    tone(10e6, i)
                        + if spot { 0.4 * tone(25e6, i) } else { 0.0 }
                        + 0.01 * rng.gen_range(-1.0..1.0)
                })
                .collect(),
            rate,
        )
    }

    fn spectral_pipeline(sanitizer: Option<TraceSanitizer>) -> DetectionPipeline {
        let det = SpectralDetector::fit(&tone_window(640e6, false, 1), SpectralConfig::default())
            .unwrap();
        let fp = GoldenFingerprint::fit(&synthetic_set(4, 1.0, 1), FingerprintConfig::default())
            .unwrap();
        let mut builder = DetectionPipeline::builder()
            .detector(Box::new(EuclideanDetector::new(fp)))
            .detector(Box::new(SpectralWindowDetector::new(det)));
        if let Some(s) = sanitizer {
            builder = builder.sanitizer(s);
        }
        builder.build()
    }

    #[test]
    fn spectral_window_alarms_on_a_new_spot() {
        let mut p = spectral_pipeline(None);
        let quiet = p.ingest_window(&tone_window(640e6, false, 2));
        assert_eq!(quiet.index, Some(0));
        assert!(quiet.alarm.is_none());
        let armed = p.ingest_window(&tone_window(640e6, true, 3));
        let alarm = armed.alarm.expect("the new spot must alarm");
        assert_eq!(alarm.domain, DetectorDomain::ContinuousWindow);
        assert_eq!(alarm.index, 1);
        let vote = alarm
            .verdicts
            .iter()
            .find(|v| v.detector == "spectral")
            .expect("spectral vote");
        assert!(vote.suspected);
        let ScoreDetail::Spectral { anomalies } = &vote.score.detail else {
            panic!("the spectral vote must carry its anomalies");
        };
        assert!(!anomalies.is_empty());
        assert_eq!(p.windows_seen(), 2);
        assert_eq!(p.alarms().len(), 1);
        p.acknowledge_alarms();
        assert!(p.alarms().is_empty());
    }

    #[test]
    fn window_plan_follows_the_window_length() {
        let mut p = spectral_pipeline(None);
        let long = tone_window(640e6, false, 2);
        let short = VoltageTrace::new(
            tone_window(640e6, true, 3).samples()[..12_000].to_vec(),
            640e6,
        );
        for (i, window) in [&long, &short, &long].into_iter().enumerate() {
            let o = p.ingest_window(window);
            assert_eq!(o.index, Some(i as u64));
            let plan = p
                .welch_plan
                .as_ref()
                .expect("an ingested window readies a plan");
            assert!(plan.matches(window.samples().len(), 640e6, Window::Hann, 4));
            let (frame, _) = p.featurize_window(window).unwrap();
            let fresh = Spectrum::welch(window.samples(), 640e6, Window::Hann, 4).unwrap();
            let kept = frame.spectrum().unwrap();
            assert_eq!(kept.freqs_hz(), fresh.freqs_hz());
            for (a, b) in kept.magnitudes().iter().zip(fresh.magnitudes()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn window_ingest_without_a_window_detector_is_a_no_op() {
        let mut p = euclidean_pipeline();
        let window = VoltageTrace::new(vec![0.0; 1024], 640e6);
        let o = p.ingest_window(&window);
        assert!(o.verdict.is_clean());
        assert_eq!(o.index, None);
        assert!(o.votes.is_empty());
        assert!(o.alarm.is_none());
        assert_eq!(p.windows_seen(), 0);
        assert_eq!(p.windows_rejected(), 0);
    }

    #[test]
    fn sanitized_window_path_rejects_rate_mismatch_and_corruption() {
        let mut p = spectral_pipeline(Some(TraceSanitizer::default()));
        // Clean window at the golden rate: scored, no alarm.
        let o = p.ingest_window(&tone_window(640e6, false, 2));
        assert!(o.verdict.is_clean());
        assert!(o.alarm.is_none());
        // A wrong sample rate is screened before the detector errors.
        let o = p.ingest_window(&tone_window(1280e6, false, 2));
        assert!(matches!(
            o.verdict,
            TraceVerdict::Rejected {
                reason: TraceDefect::SampleRateMismatch { .. }
            }
        ));
        assert!(o.alarm.is_none());
        // A corrupted window is screened structurally, even one that
        // carries the spot.
        let mut corrupt = tone_window(640e6, true, 3);
        corrupt.samples_mut()[7] = f64::NAN;
        let o = p.ingest_window(&corrupt);
        assert!(o.verdict.is_rejected());
        assert!(o.alarm.is_none());
        assert_eq!(p.windows_rejected(), 2);
        assert_eq!(p.windows_seen(), 1);
        assert!(p.alarms().is_empty());
        // Without a sanitizer the rate mismatch surfaces at scoring: the
        // window still comes back rejected, counted, and silent.
        let mut bare = spectral_pipeline(None);
        let o = bare.ingest_window(&tone_window(1280e6, false, 2));
        assert!(matches!(
            o.verdict,
            TraceVerdict::Rejected {
                reason: TraceDefect::EvaluationFailed
            }
        ));
        assert!(o.alarm.is_none());
        assert_eq!(bare.windows_rejected(), 1);
        assert_eq!(bare.windows_seen(), 0);
        assert!(bare.alarms().is_empty());
    }

    #[test]
    fn sanitized_path_rejects_without_counting() {
        let golden = synthetic_set(32, 1.0, 1);
        let fp = GoldenFingerprint::fit(&golden, FingerprintConfig::default()).unwrap();
        let mut p = DetectionPipeline::builder()
            .detector(Box::new(EuclideanDetector::new(fp)))
            .sanitizer(TraceSanitizer::default())
            .build();
        // The sanitizer inherited the fit length.
        assert_eq!(p.sanitizer().unwrap().config().expected_len, Some(256));
        let clean = synthetic_set(1, 1.0, 2).traces()[0].clone();
        let o = p.ingest_trace(&clean);
        assert!(o.verdict.is_clean());
        assert!(o.alarm.is_none());
        let mut bad = clean.clone();
        bad[10] = f64::NAN;
        let o = p.ingest_trace(&bad);
        assert!(matches!(
            o.verdict,
            TraceVerdict::Rejected {
                reason: TraceDefect::NonFinite { .. }
            }
        ));
        assert!(o.votes.is_empty());
        assert_eq!(o.index, None);
        let o = p.ingest_trace(&clean[..100]);
        assert!(matches!(
            o.verdict,
            TraceVerdict::Rejected {
                reason: TraceDefect::WrongLength { .. }
            }
        ));
        assert_eq!(p.traces_seen(), 1);
        assert_eq!(p.traces_rejected(), 2);
        assert_eq!(p.traces_ingested(), 3);
        assert_eq!(p.alarm_rate(), 0.0);
        assert!(p.alarms().is_empty());
    }

    #[test]
    fn fusion_policy_gates_the_alarm() {
        let golden = synthetic_set(32, 1.0, 1);
        let fp = GoldenFingerprint::fit(&golden, FingerprintConfig::default()).unwrap();
        let trojan = synthetic_set(1, 1.4, 3).traces()[0].clone();
        // Or: the single suspected vote alarms.
        let mut p = DetectionPipeline::builder()
            .detector(Box::new(EuclideanDetector::new(fp.clone())))
            .fusion(FusionPolicy::Or)
            .build();
        assert!(p.ingest_trace(&trojan).alarm.is_some());
        // And over a second detector whose head-room no trace can
        // exceed: the same vote cannot alarm alone.
        let deaf = GoldenFingerprint::fit(
            &golden,
            FingerprintConfig {
                threshold_margin: 1e6,
                ..FingerprintConfig::default()
            },
        )
        .unwrap();
        let mut p = DetectionPipeline::builder()
            .detector(Box::new(EuclideanDetector::new(fp)))
            .detector(Box::new(EuclideanDetector::new(deaf)))
            .fusion(FusionPolicy::And)
            .build();
        let o = p.ingest_trace(&trojan);
        assert!(o.votes[0].suspected, "the detector still votes suspected");
        assert!(!o.votes[1].suspected, "the second detector votes clean");
        assert!(o.alarm.is_none(), "fusion withholds the alarm");
    }

    #[test]
    fn pipeline_fit_refits_every_detector() {
        let golden = synthetic_set(32, 1.0, 1);
        let mut p = DetectionPipeline::builder()
            .detector(Box::new(EuclideanDetector::from_config(
                FingerprintConfig::default(),
            )))
            .build();
        assert!(!p.is_fitted());
        // An unfitted pipeline cannot score: the trace comes back
        // rejected, counted, and silent.
        let o = p.ingest_trace(&golden.traces()[0]);
        assert!(matches!(
            o.verdict,
            TraceVerdict::Rejected {
                reason: TraceDefect::EvaluationFailed
            }
        ));
        assert!(o.alarm.is_none());
        assert_eq!(p.traces_rejected(), 1);
        assert_eq!(p.traces_seen(), 0);
        p.fit(&GoldenContext::new().with_traces(&golden)).unwrap();
        assert!(p.is_fitted());
        assert!(p.projector().is_some());
        let o = p.ingest_trace(&synthetic_set(1, 1.0, 2).traces()[0]);
        assert!(o.verdict.is_clean());
        assert_eq!(o.index, Some(0));
    }

    fn forensic_pipeline(config: ForensicsConfig) -> DetectionPipeline {
        let golden = synthetic_set(32, 1.0, 1);
        let fp = GoldenFingerprint::fit(&golden, FingerprintConfig::default()).unwrap();
        DetectionPipeline::builder()
            .detector(Box::new(EuclideanDetector::new(fp)))
            .sanitizer(TraceSanitizer::default())
            .labels(LabelSet::new().with("chip_id", "chip-7"))
            .forensics(config)
            .build()
    }

    #[test]
    fn forensics_logs_scored_and_rejected_decisions() {
        let mut p = forensic_pipeline(ForensicsConfig::default());
        let clean = synthetic_set(3, 1.0, 2);
        for t in clean.traces() {
            p.ingest_trace(t);
        }
        let mut bad = clean.traces()[0].clone();
        bad[5] = f64::NAN;
        p.ingest_trace(&bad);
        for t in synthetic_set(2, 1.4, 3).traces() {
            p.ingest_trace(t);
        }
        let recs = p.decisions();
        assert_eq!(recs.len(), 6);
        for r in &recs[..3] {
            assert_eq!(r.domain, "trace");
            assert_eq!(r.verdict, "clean");
            assert!(!r.fused_alarm);
            assert!(r.correlation_id.is_none());
            assert_eq!(r.detectors.len(), 1);
            assert!(r.detectors[0].margin < 0.0, "clean margin must be < 0");
            assert_eq!(r.labels.get("chip_id"), Some("chip-7"));
            assert!(r.digest.is_some());
        }
        assert_eq!(recs[3].verdict, "rejected");
        assert_eq!(recs[3].reject_reason.as_deref(), Some("non_finite"));
        assert!(recs[3].detectors.is_empty());
        for (r, a) in recs[4..].iter().zip(p.alarms()) {
            assert!(r.fused_alarm);
            assert!(r.detectors[0].suspected);
            assert!(r.detectors[0].margin > 0.0, "alarm margin must be > 0");
            assert_eq!(r.correlation_id, Some(a.correlation_id));
        }
        assert_eq!(p.decisions_dropped(), 0);
    }

    #[test]
    fn flight_recorder_freezes_context_around_the_alarm() {
        let mut p = forensic_pipeline(ForensicsConfig {
            flight: FlightRecorderConfig {
                pre: 2,
                post: 1,
                max_windows: 4,
            },
            ..ForensicsConfig::default()
        });
        let clean = synthetic_set(3, 1.0, 2);
        for t in clean.traces() {
            p.ingest_trace(t);
        }
        p.ingest_trace(&synthetic_set(1, 1.4, 3).traces()[0]);
        p.ingest_trace(&clean.traces()[0]); // fills the post-context
        let windows = p.flight_windows();
        assert_eq!(windows.len(), 1);
        let w = &windows[0];
        assert_eq!(w.records.len(), 4, "2 pre + trigger + 1 post");
        assert_eq!(w.trigger, 2);
        let trigger = w.trigger_record().expect("trigger record");
        assert!(trigger.fused_alarm);
        assert_eq!(w.correlation_id, p.alarms()[0].correlation_id);
        assert_eq!(trigger.correlation_id, Some(w.correlation_id));
        assert!(!w.records[0].fused_alarm, "pre-context is clean");
    }

    #[test]
    fn seal_exposes_windows_with_unfilled_post_context() {
        let mut p = forensic_pipeline(ForensicsConfig::default());
        for t in synthetic_set(2, 1.0, 2).traces() {
            p.ingest_trace(t);
        }
        // Alarm as the very last observation: no post-context follows.
        p.ingest_trace(&synthetic_set(1, 1.4, 3).traces()[0]);
        assert!(p.flight_windows().is_empty());
        p.seal_flight_windows();
        assert_eq!(p.flight_windows().len(), 1);
        assert!(p.flight_windows()[0]
            .trigger_record()
            .is_some_and(|r| r.fused_alarm));
    }

    #[test]
    fn health_transitions_land_in_decision_records() {
        let mut p = forensic_pipeline(ForensicsConfig::default());
        let mut bad = synthetic_set(1, 1.0, 2).traces()[0].clone();
        bad[0] = f64::NAN;
        let states: Vec<SensorHealth> = (0..40).map(|_| p.ingest_trace(&bad).health).collect();
        assert!(states.contains(&SensorHealth::Degraded));
        assert_eq!(p.health(), SensorHealth::SensorFault);
        assert_eq!(p.traces_rejected(), 40);
        assert_eq!(p.traces_seen(), 0);
        let transitions: Vec<_> = p
            .decisions()
            .iter()
            .filter_map(|r| r.health_transition.clone())
            .collect();
        assert!(
            transitions.contains(&("healthy".to_string(), "degraded".to_string())),
            "sustained rejections must record the healthy→degraded edge"
        );
        let last = p.decisions().last().expect("records kept");
        assert_eq!(last.health, p.health().label());
    }
}
