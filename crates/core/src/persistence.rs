//! A reference-free spectral-persistence detector.
//!
//! The reference-based detectors need golden material — Trojan-free
//! traces or a golden spectrum — which post-deployment monitors do not
//! always have. Related work ("Reference-Free Spectral Analysis of EM
//! Side-Channels for Always-on Hardware Trojan Detection") shows the
//! A2-style trigger signature can be caught *self-referentially*: the
//! legitimate spectrum's strong lines (clock and harmonics) are stable
//! fixtures, so the detector can learn them from the chip's **own**
//! early windows and then watch for a *new* line that both rises out of
//! the noise floor and **persists** across consecutive windows — a
//! transient glitch dies within a window or two, a parked fast-flipping
//! trigger does not.
//!
//! [`SpectralPersistenceDetector`] implements that check behind the
//! [`Detector`] trait:
//!
//! 1. **warm-up** — for the first `warmup_windows` windows, every bin
//!    that is *hot* (magnitude above `floor_multiplier ×` the
//!    spectrum's own median) joins the baseline whitelist; nothing can
//!    alarm yet;
//! 2. **watch** — afterwards, each non-baseline hot bin extends a
//!    per-bin consecutive-window run; the statistic is the longest such
//!    run (current window included) and the detector votes suspected
//!    once it reaches `persistence_windows`.
//!
//! Everything is a pure function of the window sequence, so replays are
//! deterministic; scoring is read-only and the run bookkeeping happens
//! in the serial [`absorb`](Detector::absorb) stage.

use crate::baseline::{BaselineSource, DetectorReadiness};
use crate::detector::{
    Detector, DetectorDomain, FeaturePlan, GoldenContext, Score, ScoreDetail, WelchSpec,
};
use crate::features::FeatureFrame;
use crate::TrustError;
use emtrust_dsp::spectrum::Spectrum;
use emtrust_dsp::stats::median;
use emtrust_dsp::window::Window;

/// Configuration of the self-referencing persistence check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PersistenceConfig {
    /// A bin is *hot* when its magnitude exceeds this multiple of the
    /// spectrum's own median magnitude (a robust per-window noise-floor
    /// estimate — no golden reference involved).
    pub floor_multiplier: f64,
    /// Windows spent learning the baseline whitelist before the
    /// detector can vote suspected.
    pub warmup_windows: u32,
    /// Consecutive windows a non-baseline bin must stay hot (current
    /// window included) to vote suspected.
    pub persistence_windows: u32,
    /// Hysteresis on the warm-up whitelist: baseline learning uses
    /// `whitelist_ratio × floor_multiplier` as its floor, so the skirt
    /// bins of a legitimate line that hover *near* the watch floor are
    /// whitelisted instead of flickering hot later. Must be in
    /// `(0, 1]`; `1.0` disables the hysteresis.
    pub whitelist_ratio: f64,
    /// Welch segments used when this detector is the pipeline's
    /// spectrum provider (a registered reference-based spectral
    /// detector takes precedence).
    pub welch_segments: usize,
    /// Analysis window for the same case.
    pub window: Window,
}

impl Default for PersistenceConfig {
    fn default() -> Self {
        Self {
            floor_multiplier: 8.0,
            warmup_windows: 4,
            persistence_windows: 3,
            whitelist_ratio: 0.5,
            welch_segments: 4,
            window: Window::Hann,
        }
    }
}

/// The reference-free spectral-persistence detector (see module docs).
#[derive(Debug, Clone)]
pub struct SpectralPersistenceDetector {
    config: PersistenceConfig,
    /// Windows absorbed so far (warm-up bookkeeping).
    windows_absorbed: u32,
    /// Bins whitelisted during warm-up (the chip's own legitimate
    /// lines).
    baseline: Vec<bool>,
    /// Per-bin consecutive-hot-window run counts, *excluding* the
    /// current window (scoring projects the current window on top).
    runs: Vec<u32>,
}

impl SpectralPersistenceDetector {
    /// A fresh detector (warm-up starts at the first absorbed window).
    pub fn new(config: PersistenceConfig) -> Self {
        Self {
            config,
            windows_absorbed: 0,
            baseline: Vec::new(),
            runs: Vec::new(),
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> PersistenceConfig {
        self.config
    }

    /// Whether the detector is still learning its baseline whitelist.
    pub fn in_warmup(&self) -> bool {
        self.windows_absorbed < self.config.warmup_windows
    }

    /// Windows absorbed so far.
    pub fn windows_absorbed(&self) -> u32 {
        self.windows_absorbed
    }

    /// Number of bins currently whitelisted as legitimate lines.
    pub fn baseline_bins(&self) -> usize {
        self.baseline.iter().filter(|&&b| b).count()
    }

    /// Hot-bin mask of one spectrum: magnitude above `multiplier ×` the
    /// spectrum's own median. The DC bin is never hot.
    fn hot_bins_at(&self, spectrum: &Spectrum, multiplier: f64) -> Vec<bool> {
        let mags = spectrum.magnitudes();
        let floor = multiplier * median(mags);
        mags.iter()
            .enumerate()
            .map(|(i, &m)| i > 0 && m > floor)
            .collect()
    }

    /// The watch-phase hot mask (the `floor_multiplier` floor).
    fn hot_bins(&self, spectrum: &Spectrum) -> Vec<bool> {
        self.hot_bins_at(spectrum, self.config.floor_multiplier)
    }

    /// The warm-up whitelist mask (the lower hysteresis floor).
    fn whitelist_bins(&self, spectrum: &Spectrum) -> Vec<bool> {
        self.hot_bins_at(
            spectrum,
            self.config.whitelist_ratio * self.config.floor_multiplier,
        )
    }
}

impl Detector for SpectralPersistenceDetector {
    fn name(&self) -> &'static str {
        "spectral_persistence"
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

    /// Reference-free: resets the learned state and succeeds on any
    /// context (the golden material, if present, is ignored). The
    /// readiness contract makes the warm-up explicit — after a reset
    /// [`Detector::readiness`] reports `Calibrating`, not `Ready`.
    fn fit(&mut self, _ctx: &GoldenContext<'_>) -> Result<(), TrustError> {
        self.windows_absorbed = 0;
        self.baseline.clear();
        self.runs.clear();
        Ok(())
    }

    /// Reference-free: both baseline sources reset the learned state
    /// (the detector has always calibrated itself from live windows).
    fn fit_baseline(&mut self, source: &BaselineSource<'_>) -> Result<(), TrustError> {
        match source {
            BaselineSource::Golden(ctx) => self.fit(ctx),
            BaselineSource::SelfCalibrating(cfg) => {
                cfg.validate()?;
                self.fit(&GoldenContext::new())
            }
        }
    }

    /// Always fitted — the baseline is learned on the fly.
    fn is_fitted(&self) -> bool {
        true
    }

    /// `Calibrating` while the warm-up whitelist is still learning —
    /// the truth the boolean `is_fitted` hides.
    fn readiness(&self) -> DetectorReadiness {
        if self.in_warmup() {
            DetectorReadiness::Calibrating {
                seen: self.windows_absorbed,
                required: self.config.warmup_windows,
            }
        } else {
            DetectorReadiness::Ready
        }
    }

    fn score(&self, frame: &FeatureFrame<'_>) -> Result<Score, TrustError> {
        let spectrum = frame.spectrum().ok_or(TrustError::InvalidParameter {
            what: "feature frame is missing the spectrum",
        })?;
        let threshold = f64::from(self.config.persistence_windows);
        if self.in_warmup() {
            return Ok(Score {
                statistic: 0.0,
                threshold,
                detail: ScoreDetail::Persistence {
                    fresh_bins: Vec::new(),
                    longest_run: 0,
                },
            });
        }
        let mut fresh_bins = Vec::new();
        let mut longest_run = 0u32;
        for (i, &h) in self.hot_bins(spectrum).iter().enumerate() {
            if !h || self.baseline.get(i).copied().unwrap_or(false) {
                continue;
            }
            fresh_bins.push(i);
            // The run if this window is counted on top of the history.
            let projected = self.runs.get(i).copied().unwrap_or(0) + 1;
            longest_run = longest_run.max(projected);
        }
        Ok(Score {
            statistic: f64::from(longest_run),
            threshold,
            detail: ScoreDetail::Persistence {
                fresh_bins,
                longest_run,
            },
        })
    }

    /// Votes suspected once the run *reaches* the persistence bound
    /// (inclusive — `statistic ≥ threshold`, unlike the default strict
    /// comparison).
    fn verdict(&self, score: &Score) -> bool {
        score.statistic >= score.threshold
    }

    /// During warm-up, whitelists the frame's hot bins at the lower
    /// floor. Afterwards extends the run of each fresh hot bin that
    /// `score`, this detector's score of `frame`, lists, and ends every
    /// other run: the watch-phase mask is built once per window, in
    /// [`Detector::score`].
    fn absorb(&mut self, frame: &FeatureFrame<'_>, score: &Score) {
        let Some(spectrum) = frame.spectrum() else {
            return;
        };
        let bins = spectrum.magnitudes().len();
        if self.baseline.len() < bins {
            self.baseline.resize(bins, false);
            self.runs.resize(bins, 0);
        }
        if self.in_warmup() {
            for (i, &w) in self.whitelist_bins(spectrum).iter().enumerate() {
                if w {
                    self.baseline[i] = true;
                }
            }
        } else {
            let fresh = match &score.detail {
                ScoreDetail::Persistence { fresh_bins, .. } => fresh_bins.as_slice(),
                _ => &[],
            };
            let mut fresh = fresh.iter().peekable();
            for (i, run) in self.runs[..bins].iter_mut().enumerate() {
                *run = if fresh.next_if_eq(&&i).is_some() {
                    *run + 1
                } else {
                    0
                };
            }
        }
        self.windows_absorbed += 1;
    }

    fn welch_spec(&self) -> Option<WelchSpec> {
        Some(WelchSpec {
            window: self.config.window,
            segments: self.config.welch_segments,
            expected_rate_hz: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FS: f64 = 640e6;

    fn tone_window(freqs: &[(f64, f64)], seed: u64) -> Vec<f64> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..8192)
            .map(|i| {
                let t = i as f64 / FS;
                freqs
                    .iter()
                    .map(|&(f, a)| a * (2.0 * std::f64::consts::PI * f * t).sin())
                    .sum::<f64>()
                    + 0.01 * rng.gen_range(-1.0..1.0)
            })
            .collect()
    }

    /// Scores a window then absorbs it, like the pipeline does.
    fn step(det: &mut SpectralPersistenceDetector, samples: &[f64]) -> (Score, bool) {
        let spectrum = Spectrum::welch(
            samples,
            FS,
            det.config().window,
            det.config().welch_segments,
        )
        .unwrap();
        let mut frame = FeatureFrame::window(samples, FS);
        frame.set_spectrum(spectrum);
        let score = det.score(&frame).unwrap();
        let suspected = det.verdict(&score);
        det.absorb(&frame, &score);
        (score, suspected)
    }

    #[test]
    fn warmup_whitelists_the_chips_own_lines() {
        let mut det = SpectralPersistenceDetector::new(PersistenceConfig::default());
        assert!(det.in_warmup());
        for seed in 0..4 {
            let (_, suspected) = step(&mut det, &tone_window(&[(10e6, 1.0), (20e6, 0.4)], seed));
            assert!(!suspected, "warm-up must not alarm");
        }
        assert!(!det.in_warmup());
        assert!(det.baseline_bins() > 0);
        // The whitelisted lines stay silent forever after.
        for seed in 10..20 {
            let (score, suspected) =
                step(&mut det, &tone_window(&[(10e6, 1.0), (20e6, 0.4)], seed));
            assert!(!suspected);
            assert_eq!(score.statistic, 0.0);
        }
    }

    #[test]
    fn persistent_new_line_alarms_after_the_run_bound() {
        let mut det = SpectralPersistenceDetector::new(PersistenceConfig::default());
        for seed in 0..4 {
            step(&mut det, &tone_window(&[(10e6, 1.0)], seed));
        }
        // A new line appears far from the legitimate one's leakage
        // skirt and stays parked.
        let mut first_alarm = None;
        for k in 0..5u32 {
            let (score, suspected) = step(
                &mut det,
                &tone_window(&[(10e6, 1.0), (100e6, 0.4)], 100 + u64::from(k)),
            );
            assert_eq!(score.statistic, f64::from(k + 1), "run grows per window");
            if suspected && first_alarm.is_none() {
                first_alarm = Some(k + 1);
            }
        }
        assert_eq!(
            first_alarm,
            Some(PersistenceConfig::default().persistence_windows),
            "must alarm exactly when the run reaches the bound"
        );
    }

    #[test]
    fn transient_glitch_never_reaches_the_bound() {
        let mut det = SpectralPersistenceDetector::new(PersistenceConfig::default());
        for seed in 0..4 {
            step(&mut det, &tone_window(&[(10e6, 1.0)], seed));
        }
        // The spur flickers: present one window, gone the next.
        for k in 0..8u64 {
            let freqs: &[(f64, f64)] = if k % 2 == 0 {
                &[(10e6, 1.0), (100e6, 0.4)]
            } else {
                &[(10e6, 1.0)]
            };
            let (_, suspected) = step(&mut det, &tone_window(freqs, 200 + k));
            assert!(!suspected, "an intermittent spur must not alarm");
        }
    }

    #[test]
    fn fit_resets_the_learned_state() {
        let mut det = SpectralPersistenceDetector::new(PersistenceConfig::default());
        for seed in 0..6 {
            step(&mut det, &tone_window(&[(10e6, 1.0)], seed));
        }
        assert!(!det.in_warmup());
        det.fit(&GoldenContext::new()).unwrap();
        assert!(det.in_warmup());
        assert_eq!(det.windows_absorbed(), 0);
        assert_eq!(det.baseline_bins(), 0);
        assert!(det.is_fitted(), "reference-free: always fitted");
    }

    #[test]
    fn replays_are_deterministic() {
        let run = || {
            let mut det = SpectralPersistenceDetector::new(PersistenceConfig::default());
            let mut stats = Vec::new();
            for seed in 0..8 {
                let (score, suspected) =
                    step(&mut det, &tone_window(&[(10e6, 1.0), (31e6, 0.3)], seed));
                stats.push((score.statistic.to_bits(), suspected));
            }
            stats
        };
        assert_eq!(run(), run());
    }
}
