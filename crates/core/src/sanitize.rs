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
//!
//! # Cost: about one serial energy sum
//!
//! The one order-bound statistic is the energy `Σ x²`: one accumulator
//! added in sample order, so the RMS and the crest factor keep their
//! bits. Everything else is order-free — the extremes, the smallest
//! `|x|`, how many samples sit exactly on an extreme, how many adjacent
//! pairs are bit-identical and the longest run of identical samples —
//! so none of it waits on a serial chain:
//!
//! - The extremes ride along in the energy pass as `<`/`>` selects in
//!   four independent lanes, not `f64::min`, whose NaN handling chains
//!   every step to the one before. Their chains hide under the energy
//!   sum's.
//! - The pinned count takes a second pass of integer adds. The same pass
//!   compares each adjacent pair and packs the outcomes of 64 pairs into
//!   one equality mask, so the duplicate count is the masks' popcount
//!   and the longest run of identical samples comes off the masks too:
//!   the runs inside a mask, plus the top run of one mask carried into
//!   the bottom run of the next. The pass costs a fraction of the first
//!   (about 0.45 µs against 0.6 µs on a 768-sample trace, x86-64).
//!
//! Two facts make the lanes and the masks exact:
//!
//! - NaN never matters. Any NaN or ±inf sample makes the energy
//!   non-finite, and only then are non-finite samples counted; a trace
//!   with any is rejected before an extreme or a count is read.
//! - A ±0.0 extreme may come out with either sign, but every use reads
//!   it through `abs` or `==`, which ignore the sign.
//!
//! No sample is visited a third time. A quantized trace, whose ADC codes
//! repeat some adjacent pairs on every trace, screens at the cost of a
//! continuous-valued one.

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
        let Some(SampleStats {
            sum_sq,
            min,
            max,
            min_abs,
            pinned,
            duplicates,
            longest_equal_run,
        }) = SampleStats::measure(samples)
        else {
            return TraceVerdict::Rejected {
                reason: TraceDefect::Empty,
            };
        };
        // Any NaN or ±inf sample makes the energy non-finite; a finite
        // energy proves there is none to count.
        if !sum_sq.is_finite() {
            let non_finite = samples.iter().filter(|x| !x.is_finite()).count();
            if non_finite > 0 {
                return TraceVerdict::Rejected {
                    reason: TraceDefect::NonFinite { count: non_finite },
                };
            }
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
        if min == max {
            return TraceVerdict::Rejected {
                reason: TraceDefect::Flatline,
            };
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

/// Independent accumulators per order-free statistic (see module docs).
const LANES: usize = 4;

/// Adjacent pairs per equality mask, one bit each.
const BLOCK: usize = u64::BITS as usize;
const HALF: usize = BLOCK / 2;

/// What one trace's screen reads off its samples. Only `sum_sq` is
/// order-bound; the rest are meaningless when `sum_sq` is not finite.
struct SampleStats {
    /// `Σ x²`, added in sample order.
    sum_sq: f64,
    min: f64,
    max: f64,
    /// Smallest `|x|`.
    min_abs: f64,
    /// Samples equal to `min` or to `max`.
    pinned: usize,
    /// Adjacent pairs that compare equal.
    duplicates: usize,
    /// Samples in the longest run of adjacent samples that compare
    /// equal (1 when no pair does).
    longest_equal_run: usize,
}

impl SampleStats {
    /// Measures a trace in two passes (`None` when it is empty). The
    /// first adds the energy serially and keeps the extremes in
    /// [`LANES`] lanes of `<`/`>` selects; the second counts pinned
    /// samples and packs each block of [`BLOCK`] adjacent pairs into an
    /// equality mask, which yields the duplicates and the longest run.
    fn measure(samples: &[f64]) -> Option<Self> {
        let &first = samples.first()?;
        let mut sum_sq = 0.0;
        let mut lo = [first; LANES];
        let mut hi = [first; LANES];
        let mut floor = [first.abs(); LANES];
        let chunks = samples.chunks_exact(LANES);
        let tail = chunks.remainder();
        let mut extremes = |j: usize, x: f64| {
            lo[j] = if x < lo[j] { x } else { lo[j] };
            hi[j] = if x > hi[j] { x } else { hi[j] };
            let a = x.abs();
            floor[j] = if a < floor[j] { a } else { floor[j] };
        };
        for c in chunks {
            for &x in c {
                sum_sq += x * x;
            }
            for (j, &x) in c.iter().enumerate() {
                extremes(j, x);
            }
        }
        for (j, &x) in tail.iter().enumerate() {
            sum_sq += x * x;
            extremes(j, x);
        }
        let (mut min, mut max, mut min_abs) = (first, first, first.abs());
        for j in 0..LANES {
            min = if lo[j] < min { lo[j] } else { min };
            max = if hi[j] > max { hi[j] } else { max };
            min_abs = if floor[j] < min_abs {
                floor[j]
            } else {
                min_abs
            };
        }

        // `rest[i]` follows `samples[i]`.
        let rest = &samples[1..];
        let mut pinned = usize::from((first == min) | (first == max));
        let mut runs = EqualRuns::default();
        // Counts the pinned samples of `cur` and sets bit `j` when
        // `cur[j] == prev[j]`: no bit past `cur`'s last pair.
        let mut mask = |cur: &[f64], prev: &[f64]| {
            let mut bits = 0u64;
            for (j, (&x, &p)) in cur.iter().zip(prev).enumerate() {
                pinned += usize::from((x == min) | (x == max));
                bits |= u64::from(x == p) << j;
            }
            bits
        };
        let (cur, cur_tail) = rest.as_chunks::<BLOCK>();
        let prev = samples.as_chunks::<BLOCK>().0;
        for (c, p) in cur.iter().zip(prev) {
            // Two halves of fixed length unroll into two short chains
            // of ORs; one chain of 64 ran about 1.7x slower (x86-64).
            let (c, p) = (c.as_chunks::<HALF>().0, p.as_chunks::<HALF>().0);
            runs.push(mask(&c[0], &p[0]) | mask(&c[1], &p[1]) << HALF);
        }
        runs.push(mask(cur_tail, &samples[rest.len() - cur_tail.len()..]));
        Some(Self {
            sum_sq,
            min,
            max,
            min_abs,
            pinned,
            duplicates: runs.ones,
            longest_equal_run: runs.longest() + 1,
        })
    }
}

/// The set bits of a sequence of equality masks, read in pair order
/// (bit 0 of the first mask first): how many, and the longest run.
#[derive(Default)]
struct EqualRuns {
    ones: usize,
    /// The longest run that has ended.
    longest: usize,
    /// The run still open at the top of the last mask.
    open: usize,
}

impl EqualRuns {
    fn push(&mut self, mask: u64) {
        let ones = mask.count_ones() as usize;
        self.ones += ones;
        if ones == BLOCK {
            self.open += BLOCK;
            return;
        }
        // The open run ends in this mask's bottom run; a run inside the
        // mask is no longer than its popcount, so only a mask with more
        // ones than the longest run can hold a longer one.
        self.longest = self.longest.max(self.open + mask.trailing_ones() as usize);
        if ones > self.longest {
            self.longest = self.longest.max(longest_ones(mask));
        }
        self.open = mask.leading_ones() as usize;
    }

    /// The longest run of set bits over every mask pushed.
    fn longest(&self) -> usize {
        self.longest.max(self.open)
    }
}

/// The longest run of set bits in `mask`: each step clears the lowest
/// bit of every run, so the loop takes as many steps as the longest run
/// is long.
fn longest_ones(mut mask: u64) -> usize {
    let mut len = 0;
    while mask != 0 {
        mask &= mask << 1;
        len += 1;
    }
    len
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The reference screen: a `filter` count of the non-finite
    /// samples, one `f64::min`/`f64::max` chain with the energy sum,
    /// then a branchy pass for runs, duplicates and pinned samples. The
    /// lane-based screen must match it bit for bit.
    fn reference_verdict(
        cfg: &SanitizerConfig,
        samples: &[f64],
        energy_ratio: Option<f64>,
    ) -> TraceVerdict {
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

    /// Length of the longest run of adjacent samples that compare equal,
    /// walked sample by sample: the oracle for the equality masks.
    fn longest_equal_run(samples: &[f64]) -> usize {
        let mut longest = 1;
        let mut run = 1;
        for (x, prev) in samples[1..].iter().zip(samples) {
            run = if x == prev { run + 1 } else { 1 };
            longest = longest.max(run);
        }
        longest
    }

    /// The pinned and duplicate counts as the second pass took them
    /// before it built equality masks: four lanes of integer adds.
    fn lane_counts(samples: &[f64], min: f64, max: f64) -> (usize, usize) {
        let rest = &samples[1..];
        let mut pinned = [0usize; LANES];
        let mut duplicates = [0usize; LANES];
        let mut counts = |j: usize, x: f64, prev: f64| {
            pinned[j] += usize::from((x == min) | (x == max));
            duplicates[j] += usize::from(x == prev);
        };
        let cur = rest.chunks_exact(LANES);
        let cur_tail = cur.remainder();
        let prev_tail = &samples[rest.len() - cur_tail.len()..rest.len()];
        for (c, p) in cur.zip(samples.chunks_exact(LANES)) {
            for (j, (&x, &prev)) in c.iter().zip(p).enumerate() {
                counts(j, x, prev);
            }
        }
        for (j, (&x, &prev)) in cur_tail.iter().zip(prev_tail).enumerate() {
            counts(j, x, prev);
        }
        let first = samples[0];
        (
            usize::from((first == min) | (first == max)) + pinned.iter().sum::<usize>(),
            duplicates.iter().sum(),
        )
    }

    /// Holds what the masks yield to the walk and the lane counts.
    fn assert_masks_match_walk(t: &[f64]) -> SampleStats {
        let stats = SampleStats::measure(t).expect("non-empty");
        assert_eq!(
            stats.longest_equal_run,
            longest_equal_run(t),
            "longest run of {} samples: {t:?}",
            t.len()
        );
        assert_eq!(
            (stats.pinned, stats.duplicates),
            lane_counts(t, stats.min, stats.max),
            "pinned and duplicates of {} samples: {t:?}",
            t.len()
        );
        stats
    }

    /// A trace that stresses the equality masks: 1–200 or 700–800
    /// samples on a few quantization levels (signed zeros among them),
    /// held runs laid across 64-pair block edges, some all-equal, some
    /// runs broken by NaN.
    fn blocky_trace(rng: &mut StdRng) -> Vec<f64> {
        let len = if rng.gen_range(0..2u32) == 0 {
            rng.gen_range(1..201usize)
        } else {
            rng.gen_range(700..801usize)
        };
        let levels = rng.gen_range(1..5usize);
        let level = |rng: &mut StdRng| match rng.gen_range(0..levels + 1) {
            0 => 0.0,
            1 => -0.0,
            k => (k as f64 - 2.5) * 0.75,
        };
        let mut t: Vec<f64> = (0..len).map(|_| level(rng)).collect();
        if rng.gen_range(0..8u32) == 0 {
            let v = level(rng);
            t.iter_mut().for_each(|x| *x = v);
        }
        for _ in 0..rng.gen_range(0..4u32) {
            // Sample `64 k` opens pair `64 k`, the first of block `k`.
            let edge = BLOCK * rng.gen_range(0..len / BLOCK + 1);
            let from = edge.saturating_sub(rng.gen_range(0..80usize));
            let to = (edge + rng.gen_range(0..150usize)).min(len);
            let v = level(rng);
            t[from..to].iter_mut().for_each(|x| *x = v);
        }
        for _ in 0..rng.gen_range(0..3u32) {
            let i = rng.gen_range(0..len);
            t[i] = if rng.gen_range(0..2u32) == 0 {
                f64::NAN
            } else {
                -t[i]
            };
        }
        t
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]
        #[test]
        fn equality_masks_match_the_walk_and_the_lane_counts(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            assert_masks_match_walk(&blocky_trace(&mut rng));
        }
    }

    #[test]
    fn all_equal_traces_are_one_run_across_every_block_edge() {
        for len in [1, 2, 3, 63, 64, 65, 66, 127, 128, 129, 130, 767, 768] {
            for v in [0.0, -0.0, 0.5] {
                let t = vec![v; len];
                let stats = assert_masks_match_walk(&t);
                assert_eq!(stats.longest_equal_run, len);
                assert_eq!(stats.duplicates, len - 1);
                assert_eq!(stats.pinned, len);
            }
        }
    }

    #[test]
    fn a_run_straddling_a_block_edge_counts_once_in_samples() {
        let mut t: Vec<f64> = (0..300).map(|i| i as f64).collect();
        // Samples 60–139 open pairs 60–138: blocks 0, 1 and 2.
        t[60..140].iter_mut().for_each(|x| *x = -1.0);
        // A shorter run ending on the trace's last sample.
        t[290..].iter_mut().for_each(|x| *x = 7.0);
        let stats = assert_masks_match_walk(&t);
        assert_eq!(stats.longest_equal_run, 80);
        assert_eq!(stats.duplicates, 79 + 9);
        t[100] = f64::NAN;
        assert_eq!(assert_masks_match_walk(&t).longest_equal_run, 40);
    }

    /// Every payload float as its bits, so `-0.0 != 0.0` and NaN equals
    /// itself: equal keys mean bit-identical verdicts.
    fn defect_bits(d: &TraceDefect) -> (&'static str, u64, u64) {
        match *d {
            TraceDefect::NonFinite { count } => ("non_finite", count as u64, 0),
            TraceDefect::WrongLength { expected, actual } => {
                ("wrong_length", expected as u64, actual as u64)
            }
            TraceDefect::SampleRateMismatch {
                expected_hz,
                actual_hz,
            } => ("rate", expected_hz.to_bits(), actual_hz.to_bits()),
            TraceDefect::Saturated { pinned_fraction } => {
                ("saturated", pinned_fraction.to_bits(), 0)
            }
            TraceDefect::DeadSamples { longest_run } => ("dead", longest_run as u64, 0),
            TraceDefect::GlitchSuspected { crest_factor } => ("glitch", crest_factor.to_bits(), 0),
            TraceDefect::EnergyOutOfRange { ratio } => ("energy", ratio.to_bits(), 0),
            TraceDefect::StuckRange { floor_ratio } => ("stuck", floor_ratio.to_bits(), 0),
            TraceDefect::RepeatedSamples { duplicate_fraction } => {
                ("repeated", duplicate_fraction.to_bits(), 0)
            }
            ref other => (other.label(), 0, 0),
        }
    }

    fn verdict_bits(v: &TraceVerdict) -> (&'static str, Vec<(&'static str, u64, u64)>) {
        match v {
            TraceVerdict::Clean => ("clean", Vec::new()),
            TraceVerdict::Degraded { reasons } => {
                ("degraded", reasons.iter().map(defect_bits).collect())
            }
            TraceVerdict::Rejected { reason } => ("rejected", vec![defect_bits(reason)]),
        }
    }

    fn assert_matches_reference(s: &TraceSanitizer, t: &[f64], ratio: Option<f64>) -> TraceVerdict {
        let got = s.inspect_scaled(t, ratio);
        let want = reference_verdict(&s.config(), t, ratio);
        assert_eq!(
            verdict_bits(&got),
            verdict_bits(&want),
            "screen and reference disagree on {t:?} (ratio {ratio:?})"
        );
        got
    }

    /// A random trace with the defects the screen looks for mixed in.
    fn hostile_trace(rng: &mut StdRng) -> Vec<f64> {
        let len = match rng.gen_range(0..6u32) {
            0 => rng.gen_range(0..4usize),
            1 => rng.gen_range(4..40usize),
            _ => rng.gen_range(700..840usize),
        };
        let scale = [1e-3, 1.0, 1e3, 1e160][rng.gen_range(0..4usize)];
        let mut t: Vec<f64> = (0..len)
            .map(|i| {
                let phase = (i % 64) as f64;
                let spike = (-phase / 6.0).exp() * if (i / 64) % 2 == 0 { 1.0 } else { -1.0 };
                scale * (spike + rng.gen_range(-0.05..0.05))
            })
            .collect();
        if len == 0 {
            return t;
        }
        for _ in 0..rng.gen_range(0..4u32) {
            match rng.gen_range(0..9u32) {
                // Non-finite samples.
                0 => {
                    let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
                    for _ in 0..rng.gen_range(1..4u32) {
                        let i = rng.gen_range(0..len);
                        t[i] = bad[rng.gen_range(0..3usize)];
                    }
                }
                // Signed zeros, sometimes as the trace's only extreme.
                1 => {
                    for _ in 0..rng.gen_range(1..16u32) {
                        let i = rng.gen_range(0..len);
                        t[i] = if rng.gen_range(0..2u32) == 0 {
                            0.0
                        } else {
                            -0.0
                        };
                    }
                    if rng.gen_range(0..2u32) == 0 {
                        for x in &mut t {
                            *x = x.abs();
                        }
                        // `abs` clears every sign; put some back on the zeros.
                        for x in &mut t {
                            if *x == 0.0 && rng.gen_range(0..2u32) == 0 {
                                *x = -0.0;
                            }
                        }
                    }
                }
                // A run of one held value.
                2 => {
                    let run = rng.gen_range(1..len.clamp(2, 80));
                    let at = rng.gen_range(0..len);
                    let v = t[at];
                    for x in t.iter_mut().skip(at).take(run) {
                        *x = v;
                    }
                }
                // Clipped plateaus at both rails.
                3 => {
                    let peak = t.iter().fold(0.0f64, |m, x| m.max(x.abs()));
                    let clip = peak * rng.gen_range(0.2..0.9);
                    for x in &mut t {
                        *x = x.clamp(-clip, clip);
                    }
                }
                // Scattered re-reads of the previous sample.
                4 => {
                    let every = rng.gen_range(2..12usize);
                    for i in (1..len).step_by(every) {
                        t[i] = t[i - 1];
                    }
                }
                // A flatline.
                5 => {
                    let v = [0.0, -0.0, 0.25, -3.0][rng.gen_range(0..4usize)];
                    t.iter_mut().for_each(|x| *x = v);
                }
                // A glitch spike.
                6 => {
                    let i = rng.gen_range(0..len);
                    t[i] *= rng.gen_range(5.0..60.0);
                }
                // A biased baseline (stuck bit).
                7 => {
                    let bias = scale * rng.gen_range(0.0..0.3);
                    for x in &mut t {
                        *x = x.signum() * (x.abs() + bias);
                    }
                }
                // Coarse quantization: many repeats, pinned codes.
                _ => {
                    let step = scale * rng.gen_range(0.01..0.3);
                    for x in &mut t {
                        *x = (*x / step).round() * step;
                    }
                }
            }
        }
        t
    }

    /// One seeded oracle case: a hostile trace, a config with the
    /// length gate and the energy bounds each on or off, and an energy
    /// ratio inside, outside or absent.
    fn oracle_case(seed: u64) -> TraceVerdict {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = hostile_trace(&mut rng);
        let cfg = SanitizerConfig {
            expected_len: match rng.gen_range(0..3u32) {
                0 => None,
                1 => Some(t.len()),
                _ => Some(768),
            },
            energy_bounds: if rng.gen_range(0..2u32) == 0 {
                None
            } else {
                Some((0.5, 2.0))
            },
            ..SanitizerConfig::default()
        };
        let ratio = match rng.gen_range(0..3u32) {
            0 => None,
            1 => Some(rng.gen_range(0.8..1.2)),
            _ => Some(rng.gen_range(0.0..4.0)),
        };
        assert_matches_reference(&TraceSanitizer::new(cfg), &t, ratio)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]
        #[test]
        fn lane_screen_matches_the_reference_bit_for_bit(seed in 0u64..u64::MAX) {
            oracle_case(seed);
        }
    }

    #[test]
    fn oracle_cases_reach_every_verdict() {
        let mut seen = std::collections::BTreeMap::new();
        for seed in 0..2048 {
            let label = match oracle_case(seed) {
                TraceVerdict::Rejected { reason } => reason.label(),
                TraceVerdict::Degraded { reasons } => reasons[0].label(),
                TraceVerdict::Clean => "clean",
            };
            *seen.entry(label).or_insert(0usize) += 1;
        }
        for label in [
            "clean",
            "empty",
            "non_finite",
            "wrong_length",
            "saturated",
            "flatline",
            "dead_samples",
            "glitch_suspected",
            "energy_out_of_range",
            "stuck_range",
            "repeated_samples",
        ] {
            assert!(
                seen.contains_key(label),
                "no case reached {label}: {seen:?}"
            );
        }
    }

    #[test]
    fn signed_zero_extremes_keep_every_verdict_bit() {
        // Non-negative traces whose minimum is zero, with the zeros'
        // signs in every order: the lane minimum may keep either
        // sign; the pinned count and every payload may not move.
        let base: Vec<f64> = (0..96).map(|i| ((i * 37 % 23) as f64) * 0.125).collect();
        let zeros: Vec<usize> = base
            .iter()
            .enumerate()
            .filter(|(_, &x)| x == 0.0)
            .map(|(i, _)| i)
            .collect();
        assert!(zeros.len() >= 4);
        let mut verdicts = Vec::new();
        for signs in 0u32..1 << zeros.len() {
            let mut t = base.clone();
            for (k, &i) in zeros.iter().enumerate() {
                t[i] = if signs >> k & 1 == 1 { -0.0 } else { 0.0 };
            }
            let mut negated: Vec<f64> = t.iter().map(|x| -x).collect();
            let s = sanitizer();
            verdicts.push(verdict_bits(&assert_matches_reference(&s, &t, None)));
            assert_matches_reference(&s, &negated, None);
            // The all-zero trace of mixed signs is flat.
            negated
                .iter_mut()
                .for_each(|x| *x = if *x > 0.0 { 0.0 } else { -0.0 });
            assert_eq!(
                assert_matches_reference(&s, &negated, None),
                TraceVerdict::Rejected {
                    reason: TraceDefect::Flatline
                }
            );
            let stats = SampleStats::measure(&t).expect("non-empty");
            assert_eq!(stats.min, 0.0);
            let at_max = t.iter().filter(|&&x| x == stats.max).count();
            assert_eq!(stats.pinned, zeros.len() + at_max);
        }
        assert!(verdicts.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn twelve_bit_front_end_traces_match_the_reference() -> Result<(), crate::TrustError> {
        // The on-chip scope channel at 12 bits repeats about 29 % of
        // adjacent samples on clean traces, so every trace's equality
        // masks hold many runs.
        use crate::TestBench;
        use emtrust_silicon::Channel;
        use emtrust_trojan::ProtectedChip;
        let chip = ProtectedChip::golden();
        let bench = TestBench::silicon(&chip, 1)?;
        let set = bench.collect([0x2b; 16], 6, None, Channel::OnChipSensor, 3)?;
        let loosened = TraceSanitizer::new(SanitizerConfig {
            duplicate_reject_fraction: 0.5,
            saturation_reject_fraction: 0.05,
            ..SanitizerConfig::default()
        });
        for t in set.traces() {
            let repeats = t.windows(2).filter(|w| w[0] == w[1]).count();
            assert!(repeats * 10 > t.len(), "{repeats} repeats in {}", t.len());
            assert!(assert_matches_reference(&sanitizer(), t, None).is_rejected());
            assert!(!assert_matches_reference(&loosened, t, None).is_rejected());
            for ratio in [None, Some(0.9), Some(3.0)] {
                assert_matches_reference(&loosened, t, ratio);
            }
        }
        Ok(())
    }

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
