//! Trace sanitization: measurement-quality screening before scoring.
//!
//! The pipeline runs post-deployment for the chip's whole lifetime, so
//! the scoring path must assume the sensor channel *will* eventually
//! misbehave — a saturated ADC, a dropped transfer window, a dead
//! channel. Scoring such a trace would not crash, but worse: its inflated
//! Euclidean distance masquerades as a Trojan detection. The sanitizer
//! classifies each trace **before** it reaches the fingerprint:
//!
//! - [`TraceVerdict::Clean`] — scored normally;
//! - [`TraceVerdict::Degraded`] — scored, but flagged (mild defects);
//! - [`TraceVerdict::Rejected`] — excluded from scoring *and* from
//!   [`alarm_rate`](crate::DetectionPipeline::alarm_rate) bookkeeping, and
//!   fed to the sensor-health state machine instead.
//!
//! Every check is a pure function of the samples (plus the optional
//! golden energy ratio), so sanitized runs replay deterministically.

/// A concrete defect the sanitizer can attribute to a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum TraceDefect {
    /// The trace carries no samples at all.
    Empty,
    /// NaN or ±Inf samples (corrupted transfer, uninitialized memory).
    NonFinite {
        /// Number of non-finite samples.
        count: usize,
    },
    /// The trace length does not match the fingerprint's fit length.
    WrongLength {
        /// Expected sample count.
        expected: usize,
        /// Observed sample count.
        actual: usize,
    },
    /// The window's sample rate does not match the golden spectrum's.
    SampleRateMismatch {
        /// Expected rate in hertz.
        expected_hz: f64,
        /// Observed rate in hertz.
        actual_hz: f64,
    },
    /// Many samples pinned exactly at the extreme values — ADC clipping.
    Saturated {
        /// Fraction of samples at the positive or negative extreme.
        pinned_fraction: f64,
    },
    /// Every sample holds one value — a dead sensor channel.
    Flatline,
    /// A long run of identical consecutive samples — dropout or a
    /// partially dead channel.
    DeadSamples {
        /// Length of the longest identical run.
        longest_run: usize,
    },
    /// Crest factor (peak / RMS) far beyond the physical waveform's —
    /// glitch bursts or ESD spikes.
    GlitchSuspected {
        /// Observed crest factor.
        crest_factor: f64,
    },
    /// The trace's energy is implausibly far from the golden scale —
    /// amplifier gain fault, not circuit activity.
    EnergyOutOfRange {
        /// Energy ratio relative to the golden fit scale.
        ratio: f64,
    },
    /// The samples never approach zero — a stuck ADC bit or a biased
    /// front-end (a faithful EM trace crosses zero constantly).
    StuckRange {
        /// Smallest |sample| relative to the peak.
        floor_ratio: f64,
    },
    /// Adjacent samples repeat bit-identically far beyond chance — a
    /// jittering sampling clock re-reads held values (a continuous-valued
    /// channel essentially never emits the exact same value twice in a
    /// row).
    RepeatedSamples {
        /// Fraction of adjacent sample pairs that are bit-identical.
        duplicate_fraction: f64,
    },
    /// Scoring failed for a reason the structural checks could not
    /// anticipate (forwarded per-trace evaluation error).
    EvaluationFailed,
}

impl TraceDefect {
    /// Stable snake_case label (telemetry fields, JSON artifacts).
    pub fn label(&self) -> &'static str {
        match self {
            TraceDefect::Empty => "empty",
            TraceDefect::NonFinite { .. } => "non_finite",
            TraceDefect::WrongLength { .. } => "wrong_length",
            TraceDefect::SampleRateMismatch { .. } => "sample_rate_mismatch",
            TraceDefect::Saturated { .. } => "saturated",
            TraceDefect::Flatline => "flatline",
            TraceDefect::DeadSamples { .. } => "dead_samples",
            TraceDefect::GlitchSuspected { .. } => "glitch_suspected",
            TraceDefect::EnergyOutOfRange { .. } => "energy_out_of_range",
            TraceDefect::StuckRange { .. } => "stuck_range",
            TraceDefect::RepeatedSamples { .. } => "repeated_samples",
            TraceDefect::EvaluationFailed => "evaluation_failed",
        }
    }
}

/// The sanitizer's classification of one trace.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceVerdict {
    /// No defect found; scored normally.
    Clean,
    /// Mild defects; scored, but flagged and counted.
    Degraded {
        /// Every mild defect found, in check order.
        reasons: Vec<TraceDefect>,
    },
    /// Severe defect; excluded from scoring and alarm bookkeeping.
    Rejected {
        /// The first severe defect found.
        reason: TraceDefect,
    },
}

impl TraceVerdict {
    /// Whether the trace was rejected.
    pub fn is_rejected(&self) -> bool {
        matches!(self, TraceVerdict::Rejected { .. })
    }

    /// Whether the trace is clean.
    pub fn is_clean(&self) -> bool {
        matches!(self, TraceVerdict::Clean)
    }

    /// Whether the trace is degraded (scored but flagged).
    pub fn is_degraded(&self) -> bool {
        matches!(self, TraceVerdict::Degraded { .. })
    }

    /// Stable label for telemetry and artifacts.
    pub fn label(&self) -> &'static str {
        match self {
            TraceVerdict::Clean => "clean",
            TraceVerdict::Degraded { .. } => "degraded",
            TraceVerdict::Rejected { .. } => "rejected",
        }
    }
}

/// Thresholds for the structural checks.
///
/// The defaults are calibrated against the simulated EM substrate: clean
/// traces (impulsive per-edge spikes, crest factor well under 12, unique
/// float values, zero crossings every cycle) classify `Clean`, while the
/// `emtrust::faults` taxonomy at its default intensity trips the matching
/// detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SanitizerConfig {
    /// Required trace length (`None` = any; the pipeline fills this from
    /// the fingerprint's fit length).
    pub expected_len: Option<usize>,
    /// Reject when at least this fraction of samples sits exactly at the
    /// positive/negative extreme value…
    pub saturation_reject_fraction: f64,
    /// …and at least this many samples are pinned. Continuous-valued
    /// measurements repeat their exact extreme essentially never (a clean
    /// trace pins exactly two samples: its own min and max), while a
    /// clipped impulsive trace pins every spike tip — so the count, not
    /// the run length, is the discriminator.
    pub saturation_min_pinned: usize,
    /// Degrade when the longest identical-sample run exceeds this
    /// fraction of the trace.
    pub dead_run_degrade_fraction: f64,
    /// Reject when the longest identical-sample run exceeds this
    /// fraction of the trace.
    pub dead_run_reject_fraction: f64,
    /// Degrade when the crest factor exceeds this.
    pub crest_degrade: f64,
    /// Reject when the crest factor exceeds this.
    pub crest_reject: f64,
    /// Reject when the smallest |sample| exceeds this fraction of the
    /// peak (samples never approach zero: stuck ADC bit / bias fault).
    /// A faithful EM trace rings down toward zero between switching
    /// edges, so its floor sits orders of magnitude under the peak; the
    /// stuck-bit fault model pins the floor at ≥ 3 % of the peak.
    pub zero_floor_ratio: f64,
    /// Reject when at least this fraction of adjacent sample pairs is
    /// bit-identical. Dropout and flatline are caught by the run checks
    /// first; what this screen isolates is *scattered* repetition — the
    /// clock-jitter signature (≥ 16 % of pairs at every sweep intensity,
    /// vs. exactly zero on a clean continuous-valued trace).
    pub duplicate_reject_fraction: f64,
    /// Accept only energy ratios (trace feature norm / golden scale)
    /// inside these bounds (`None` disables the screen).
    pub energy_bounds: Option<(f64, f64)>,
}

impl Default for SanitizerConfig {
    fn default() -> Self {
        Self {
            expected_len: None,
            saturation_reject_fraction: 0.01,
            saturation_min_pinned: 4,
            dead_run_degrade_fraction: 1.0 / 64.0,
            dead_run_reject_fraction: 1.0 / 16.0,
            crest_degrade: 12.0,
            crest_reject: 20.0,
            zero_floor_ratio: 0.02,
            duplicate_reject_fraction: 0.05,
            energy_bounds: None,
        }
    }
}

/// The trace-quality screen (see module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSanitizer {
    config: SanitizerConfig,
}

impl TraceSanitizer {
    /// A sanitizer with the given thresholds.
    pub fn new(config: SanitizerConfig) -> Self {
        Self { config }
    }

    /// The thresholds in effect.
    pub fn config(&self) -> SanitizerConfig {
        self.config
    }

    /// Overrides the expected trace length (the pipeline calls this with
    /// the fingerprint's fit length).
    pub fn with_expected_len(mut self, expected_len: usize) -> Self {
        self.config.expected_len = Some(expected_len);
        self
    }

    /// Classifies one trace from its samples alone (no golden context).
    pub fn inspect(&self, samples: &[f64]) -> TraceVerdict {
        self.inspect_scaled(samples, None)
    }

    /// Classifies one trace, additionally screening `energy_ratio`
    /// (trace feature norm relative to the golden scale) against the
    /// configured bounds when both are present.
    pub fn inspect_scaled(&self, samples: &[f64], energy_ratio: Option<f64>) -> TraceVerdict {
        let cfg = &self.config;
        let len = samples.len();
        if len == 0 {
            return TraceVerdict::Rejected {
                reason: TraceDefect::Empty,
            };
        }
        let non_finite = samples.iter().filter(|x| !x.is_finite()).count();
        if non_finite > 0 {
            return TraceVerdict::Rejected {
                reason: TraceDefect::NonFinite { count: non_finite },
            };
        }
        if let Some(expected) = cfg.expected_len {
            if len != expected {
                return TraceVerdict::Rejected {
                    reason: TraceDefect::WrongLength {
                        expected,
                        actual: len,
                    },
                };
            }
        }

        // One pass: extremes, energy, pinned counts/runs, identical runs.
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut min_abs = f64::INFINITY;
        let mut sum_sq = 0.0;
        for &x in samples {
            min = min.min(x);
            max = max.max(x);
            min_abs = min_abs.min(x.abs());
            sum_sq += x * x;
        }
        if min == max {
            return TraceVerdict::Rejected {
                reason: TraceDefect::Flatline,
            };
        }
        let mut longest_equal_run = 1usize;
        let mut equal_run = 1usize;
        let mut duplicates = 0usize;
        let mut pinned = 0usize;
        for (i, &x) in samples.iter().enumerate() {
            if i > 0 {
                if x == samples[i - 1] {
                    equal_run += 1;
                    duplicates += 1;
                } else {
                    equal_run = 1;
                }
                longest_equal_run = longest_equal_run.max(equal_run);
            }
            if x == min || x == max {
                pinned += 1;
            }
        }

        let run_frac = longest_equal_run as f64 / len as f64;
        if run_frac >= cfg.dead_run_reject_fraction {
            return TraceVerdict::Rejected {
                reason: TraceDefect::DeadSamples {
                    longest_run: longest_equal_run,
                },
            };
        }
        let pinned_fraction = pinned as f64 / len as f64;
        if pinned_fraction >= cfg.saturation_reject_fraction && pinned >= cfg.saturation_min_pinned
        {
            return TraceVerdict::Rejected {
                reason: TraceDefect::Saturated { pinned_fraction },
            };
        }
        let peak = min.abs().max(max.abs());
        let rms = (sum_sq / len as f64).sqrt();
        let crest = if rms > 0.0 { peak / rms } else { 0.0 };
        if crest >= cfg.crest_reject {
            return TraceVerdict::Rejected {
                reason: TraceDefect::GlitchSuspected {
                    crest_factor: crest,
                },
            };
        }
        if peak > 0.0 && min_abs > cfg.zero_floor_ratio * peak {
            return TraceVerdict::Rejected {
                reason: TraceDefect::StuckRange {
                    floor_ratio: min_abs / peak,
                },
            };
        }
        let duplicate_fraction = duplicates as f64 / (len - 1).max(1) as f64;
        if duplicate_fraction >= cfg.duplicate_reject_fraction {
            return TraceVerdict::Rejected {
                reason: TraceDefect::RepeatedSamples { duplicate_fraction },
            };
        }
        if let (Some((lo, hi)), Some(ratio)) = (cfg.energy_bounds, energy_ratio) {
            if ratio < lo || ratio > hi {
                return TraceVerdict::Rejected {
                    reason: TraceDefect::EnergyOutOfRange { ratio },
                };
            }
        }

        let mut reasons = Vec::new();
        if run_frac >= cfg.dead_run_degrade_fraction {
            reasons.push(TraceDefect::DeadSamples {
                longest_run: longest_equal_run,
            });
        }
        if crest >= cfg.crest_degrade {
            reasons.push(TraceDefect::GlitchSuspected {
                crest_factor: crest,
            });
        }
        if reasons.is_empty() {
            TraceVerdict::Clean
        } else {
            TraceVerdict::Degraded { reasons }
        }
    }
}

impl Default for TraceSanitizer {
    fn default() -> Self {
        Self::new(SanitizerConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_trace() -> Vec<f64> {
        // Impulsive-ish waveform with noise: decaying spikes per "cycle".
        (0..768)
            .map(|i| {
                let phase = (i % 64) as f64;
                let spike = (-phase / 6.0).exp() * if (i / 64) % 2 == 0 { 1.0 } else { -1.0 };
                spike + 0.01 * ((i as f64 * 0.7371).sin())
            })
            .collect()
    }

    fn sanitizer() -> TraceSanitizer {
        TraceSanitizer::default()
    }

    #[test]
    fn clean_traces_pass() {
        assert_eq!(sanitizer().inspect(&clean_trace()), TraceVerdict::Clean);
    }

    #[test]
    fn empty_and_non_finite_and_wrong_length_reject() {
        let s = sanitizer();
        assert!(matches!(
            s.inspect(&[]),
            TraceVerdict::Rejected {
                reason: TraceDefect::Empty
            }
        ));
        let mut t = clean_trace();
        t[5] = f64::NAN;
        t[9] = f64::INFINITY;
        assert!(matches!(
            s.inspect(&t),
            TraceVerdict::Rejected {
                reason: TraceDefect::NonFinite { count: 2 }
            }
        ));
        let s = s.with_expected_len(100);
        assert!(matches!(
            s.inspect(&clean_trace()),
            TraceVerdict::Rejected {
                reason: TraceDefect::WrongLength { expected: 100, .. }
            }
        ));
    }

    #[test]
    fn flatline_and_dead_runs_reject() {
        let s = sanitizer();
        assert!(matches!(
            s.inspect(&[0.25; 512]),
            TraceVerdict::Rejected {
                reason: TraceDefect::Flatline
            }
        ));
        let mut t = clean_trace();
        let n = t.len();
        for x in &mut t[100..100 + n / 8] {
            *x = 0.0;
        }
        assert!(matches!(
            s.inspect(&t),
            TraceVerdict::Rejected {
                reason: TraceDefect::DeadSamples { .. }
            }
        ));
    }

    #[test]
    fn short_dead_runs_only_degrade() {
        let s = sanitizer();
        let mut t = clean_trace();
        let run = t.len() / 32; // between degrade (1/64) and reject (1/16)
        for x in &mut t[200..200 + run] {
            *x = 0.0;
        }
        match s.inspect(&t) {
            TraceVerdict::Degraded { reasons } => {
                assert!(matches!(reasons[0], TraceDefect::DeadSamples { .. }));
            }
            other => panic!("expected degraded, got {other:?}"),
        }
    }

    #[test]
    fn clipping_rejects_as_saturated() {
        let s = sanitizer();
        let mut t = clean_trace();
        let peak = t.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
        let clip = 0.5 * peak;
        for x in &mut t {
            *x = x.clamp(-clip, clip);
        }
        assert!(matches!(
            s.inspect(&t),
            TraceVerdict::Rejected {
                reason: TraceDefect::Saturated { .. }
            }
        ));
    }

    #[test]
    fn glitch_spikes_reject_on_crest_factor() {
        let s = sanitizer();
        let mut t = clean_trace();
        let peak = t.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
        t[300] = 40.0 * peak;
        assert!(matches!(
            s.inspect(&t),
            TraceVerdict::Rejected {
                reason: TraceDefect::GlitchSuspected { .. }
            }
        ));
    }

    #[test]
    fn biased_baseline_rejects_as_stuck_range() {
        let s = sanitizer();
        let t: Vec<f64> = clean_trace()
            .iter()
            .map(|x| x.signum() * (x.abs() + 0.2))
            .collect();
        assert!(matches!(
            s.inspect(&t),
            TraceVerdict::Rejected {
                reason: TraceDefect::StuckRange { .. }
            }
        ));
    }

    #[test]
    fn scattered_repeats_reject_as_repeated_samples() {
        let s = sanitizer();
        // Jitter model: every few samples re-read the held previous value.
        let mut t = clean_trace();
        for i in (1..t.len()).step_by(8) {
            t[i] = t[i - 1];
        }
        assert!(matches!(
            s.inspect(&t),
            TraceVerdict::Rejected {
                reason: TraceDefect::RepeatedSamples { .. }
            }
        ));
    }

    #[test]
    fn energy_screen_uses_the_provided_ratio() {
        let cfg = SanitizerConfig {
            energy_bounds: Some((0.5, 2.0)),
            ..SanitizerConfig::default()
        };
        let s = TraceSanitizer::new(cfg);
        let t = clean_trace();
        assert_eq!(s.inspect_scaled(&t, Some(1.0)), TraceVerdict::Clean);
        assert!(matches!(
            s.inspect_scaled(&t, Some(3.0)),
            TraceVerdict::Rejected {
                reason: TraceDefect::EnergyOutOfRange { .. }
            }
        ));
        // No ratio supplied: the screen cannot fire.
        assert_eq!(s.inspect_scaled(&t, None), TraceVerdict::Clean);
    }

    #[test]
    fn defect_labels_are_stable() {
        assert_eq!(TraceDefect::Empty.label(), "empty");
        assert_eq!(TraceDefect::Flatline.label(), "flatline");
        assert_eq!(
            TraceDefect::Saturated {
                pinned_fraction: 0.5
            }
            .label(),
            "saturated"
        );
        assert_eq!(TraceVerdict::Clean.label(), "clean");
        assert_eq!(
            TraceVerdict::Rejected {
                reason: TraceDefect::Empty
            }
            .label(),
            "rejected"
        );
    }
}
