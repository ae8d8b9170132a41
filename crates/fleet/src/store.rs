//! Sharded fingerprint store: bounded hot per-chip pipelines with LRU
//! eviction and graceful cold-start.
//!
//! Each shard worker owns one [`PipelineStore`]. The store holds at
//! most `capacity` *hot* chips — each a fitted
//! [`DetectionPipeline`] plus a rolling
//! baseline of its most recent clean traces. When a new chip arrives at
//! a full store the least-recently-used hot chip is evicted to a
//! bounded *cold* map that retains its baseline and cumulative
//! counters; if that chip returns, its fingerprint is **re-fitted**
//! from the retained baseline instead of erroring or re-warming from
//! scratch. A chip never seen before bootstraps gracefully: its first
//! `golden_traces` clean traces become its golden set, after which the
//! fingerprint is fitted and scoring begins.
//!
//! In [`BaselineMode::Golden`] the baseline keeps each trace's raw RMS
//! features, all a fit reads: an eighth of the samples at the
//! fingerprint's 8-sample bins. A warming chip extracts them once on
//! arrival; a scored trace hands over the features its pipeline already
//! extracted. [`BaselineMode::SelfCalibrating`] keeps the samples,
//! which a revival replays through the chip's live pipeline.
//!
//! All state is per-chip — nothing a poisoned neighbour does can
//! perturb another chip's baseline, fingerprint or counters, which is
//! what makes the fleet's quarantine-isolation guarantee bit-exact.

use std::collections::{HashMap, VecDeque};

use emtrust::features::bin_rms;
use emtrust::telemetry::LabelSet;
use emtrust::{
    BaselineSource, DetectionPipeline, EuclideanDetector, FingerprintConfig, GoldenFingerprint,
    SelfCalibratingConfig, SensorHealth, TraceSanitizer,
};

use crate::config::{BaselineMode, StoreConfig};
use crate::FleetError;

/// What happened to one chip's batch inside the store.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipBatchOutcome {
    /// Traces scored against the chip's fitted fingerprint.
    pub scored: usize,
    /// Traces absorbed into the warm-up baseline (fingerprint not yet
    /// fitted when they arrived).
    pub warmup: usize,
    /// Traces rejected (sanitizer refusal, non-finite samples, length
    /// mismatch against the chip's baseline).
    pub rejected: usize,
    /// Fused alarms this batch raised.
    pub alarms: usize,
    /// The chip's consecutive-rejection streak after this batch — the
    /// circuit breaker's input signal.
    pub consecutive_rejections: u64,
    /// Whether every trace in the batch was rejected (a failed
    /// half-open probe).
    pub fully_rejected: bool,
    /// Sensor health after the batch (`Healthy` while still warming).
    pub health: SensorHealth,
    /// Whether this batch completed the chip's fingerprint fit.
    pub fitted_now: bool,
}

/// Cumulative per-chip accounting, surviving eviction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChipStats {
    /// Traces scored.
    pub scored: u64,
    /// Traces rejected.
    pub rejected: u64,
    /// Alarms raised.
    pub alarms: u64,
    /// Whether the chip is currently hot (resident pipeline).
    pub hot: bool,
}

struct ChipEntry {
    /// `None` while the chip is still warming up its baseline.
    pipeline: Option<DetectionPipeline>,
    baseline: Baseline,
    last_used: u64,
    streak: u64,
    stats: ChipStats,
    labels: LabelSet,
}

struct ColdRecord {
    baseline: Baseline,
    streak: u64,
    stats: ChipStats,
    evicted_at: u64,
}

/// A chip's rolling clean-trace baseline: one row per accepted trace,
/// newest at the back — its raw RMS features in golden mode, its
/// samples in self-calibrating mode (see the module docs).
#[derive(Default)]
struct Baseline {
    rows: VecDeque<Vec<f64>>,
    /// Sample count of the traces the rows came from.
    trace_len: usize,
}

impl Baseline {
    /// Whether a trace is non-empty and as long as the baseline's
    /// traces.
    fn same_length(&self, trace: &[f64]) -> bool {
        !trace.is_empty() && (self.rows.is_empty() || self.trace_len == trace.len())
    }

    /// Whether a trace can join the baseline: finite samples and a
    /// length agreeing with what the baseline already holds.
    fn compatible(&self, trace: &[f64]) -> bool {
        self.same_length(trace) && trace.iter().all(|s| s.is_finite())
    }

    /// Appends the row of a `trace_len`-sample trace, keeping the
    /// newest `window` rows.
    fn push(&mut self, row: Vec<f64>, trace_len: usize, window: usize) {
        self.trace_len = trace_len;
        self.rows.push_back(row);
        while self.rows.len() > window {
            self.rows.pop_front();
        }
    }

    /// Floats the rows hold.
    fn floats(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }
}

/// One shard's bounded chip-pipeline cache.
pub struct PipelineStore {
    config: StoreConfig,
    golden_traces: usize,
    mode: BaselineMode,
    shard_labels: LabelSet,
    hot: HashMap<String, ChipEntry>,
    cold: HashMap<String, ColdRecord>,
    clock: u64,
    evictions: u64,
    cold_drops: u64,
    fits: u64,
    refits: u64,
}

impl PipelineStore {
    /// An empty store for one shard. `golden_traces` is the clean-trace
    /// count that completes a cold-start (the warm-up length under
    /// [`BaselineMode::SelfCalibrating`]); `shard_labels` is stamped on
    /// every per-chip pipeline's metrics.
    pub fn new(
        config: StoreConfig,
        golden_traces: usize,
        mode: BaselineMode,
        shard_labels: LabelSet,
    ) -> Self {
        PipelineStore {
            config,
            golden_traces: golden_traces.max(2),
            mode,
            shard_labels,
            hot: HashMap::new(),
            cold: HashMap::new(),
            clock: 0,
            evictions: 0,
            cold_drops: 0,
            fits: 0,
            refits: 0,
        }
    }

    /// The baseline mode every chip entry is built with.
    pub fn mode(&self) -> BaselineMode {
        self.mode
    }

    /// Hot chips currently resident.
    pub fn hot_len(&self) -> usize {
        self.hot.len()
    }

    /// Cold records currently retained.
    pub fn cold_len(&self) -> usize {
        self.cold.len()
    }

    /// LRU evictions performed.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Cold records dropped because the cold map itself overflowed.
    pub fn cold_drops(&self) -> u64 {
        self.cold_drops
    }

    /// First-time fingerprint fits (cold starts completed).
    pub fn fits(&self) -> u64 {
        self.fits
    }

    /// Re-fits of returning evicted chips.
    pub fn refits(&self) -> u64 {
        self.refits
    }

    /// Floats the rolling baselines of every hot and cold chip retain:
    /// `golden_traces`-to-`baseline_window` rows per chip, each a
    /// trace's RMS features in golden mode and its samples in
    /// self-calibrating mode.
    pub fn baseline_floats(&self) -> usize {
        let hot = self.hot.values().map(|e| e.baseline.floats());
        let cold = self.cold.values().map(|r| r.baseline.floats());
        hot.chain(cold).sum()
    }

    /// Cumulative stats for every chip the store has ever seen (hot and
    /// cold), in unspecified order.
    pub fn chip_stats(&self) -> Vec<(String, ChipStats)> {
        let mut out: Vec<(String, ChipStats)> = self
            .hot
            .iter()
            .map(|(id, e)| (id.clone(), e.stats))
            .chain(self.cold.iter().map(|(id, r)| {
                let mut s = r.stats;
                s.hot = false;
                (id.clone(), s)
            }))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Runs one chip's batch through its pipeline, warming up, fitting
    /// or re-fitting as needed.
    pub fn ingest(
        &mut self,
        chip_id: &str,
        traces: &[Vec<f64>],
    ) -> Result<ChipBatchOutcome, FleetError> {
        self.clock += 1;
        if !self.hot.contains_key(chip_id) {
            self.make_room();
            let entry = match self.cold.remove(chip_id) {
                Some(rec) => self.revive(chip_id, rec)?,
                None => {
                    let labels = self.shard_labels.with("chip", chip_id);
                    // Self-calibrating mode protects a brand-new chip
                    // immediately: its pipeline exists from the first
                    // trace and arms itself from live traffic.
                    let pipeline = match self.mode {
                        BaselineMode::Golden => None,
                        BaselineMode::SelfCalibrating => {
                            Some(build_selfcal_pipeline(self.golden_traces, labels.clone())?)
                        }
                    };
                    ChipEntry {
                        pipeline,
                        baseline: Baseline::default(),
                        last_used: 0,
                        streak: 0,
                        stats: ChipStats {
                            hot: true,
                            ..ChipStats::default()
                        },
                        labels,
                    }
                }
            };
            self.hot.insert(chip_id.to_string(), entry);
        }
        let golden_traces = self.golden_traces;
        let baseline_window = self.config.baseline_window;
        let golden = self.mode == BaselineMode::Golden;
        let clock = self.clock;
        let entry = match self.hot.get_mut(chip_id) {
            Some(e) => e,
            // Unreachable: inserted above. Kept total to honour the
            // crate-wide no-panic gate.
            None => {
                return Err(FleetError::InvalidConfig {
                    what: "store lost a freshly inserted chip entry",
                })
            }
        };
        entry.last_used = clock;

        let mut out = ChipBatchOutcome {
            scored: 0,
            warmup: 0,
            rejected: 0,
            alarms: 0,
            consecutive_rejections: entry.streak,
            fully_rejected: false,
            health: SensorHealth::Healthy,
            fitted_now: false,
        };

        let mut fit_wanted = false;
        for trace in traces {
            match &mut entry.pipeline {
                Some(pipeline) => {
                    let was_armed = pipeline.calibration_state().is_armed();
                    let mut o = pipeline.ingest_trace(trace);
                    if o.index.is_some() {
                        let armed = pipeline.calibration_state().is_armed();
                        if pipeline.is_self_calibrating() && !was_armed {
                            // Still warming the rolling baseline; the
                            // trace that completes it arms the chip.
                            out.warmup += 1;
                            if armed {
                                out.fitted_now = true;
                                self.fits += 1;
                            }
                        } else {
                            out.scored += 1;
                        }
                        entry.stats.scored += 1;
                        // The pipeline's sanitizer has already rejected
                        // every non-finite trace; only the length is
                        // left to check. A golden chip keeps the
                        // features its pipeline extracted.
                        debug_assert!(trace.iter().all(|s| s.is_finite()));
                        if entry.baseline.same_length(trace) {
                            let row = if golden {
                                o.rms.take()
                            } else {
                                Some(trace.to_vec())
                            };
                            if let Some(row) = row {
                                entry.baseline.push(row, trace.len(), baseline_window);
                            }
                        }
                    } else {
                        out.rejected += 1;
                        entry.stats.rejected += 1;
                    }
                    if o.alarm.is_some() {
                        out.alarms += 1;
                        entry.stats.alarms += 1;
                    }
                    entry.streak = pipeline.consecutive_rejections();
                    out.health = o.health;
                }
                None => {
                    // Only a golden chip warms without a pipeline.
                    let row = entry
                        .baseline
                        .compatible(trace)
                        .then(|| golden_features(trace));
                    if let Some(Ok(row)) = row {
                        entry.baseline.push(row, trace.len(), baseline_window);
                        out.warmup += 1;
                        entry.stats.scored += 1;
                        entry.streak = 0;
                        if entry.baseline.rows.len() >= golden_traces {
                            fit_wanted = true;
                        }
                    } else {
                        out.rejected += 1;
                        entry.stats.rejected += 1;
                        entry.streak += 1;
                    }
                }
            }
            if fit_wanted && entry.pipeline.is_none() {
                let labels = entry.labels.clone();
                entry.pipeline = Some(build_pipeline(&mut entry.baseline, labels)?);
                out.fitted_now = true;
                self.fits += 1;
            }
        }

        out.consecutive_rejections = entry.streak;
        out.fully_rejected = !traces.is_empty() && out.rejected == traces.len();
        Ok(out)
    }

    /// Rebuilds a returning chip's entry from its cold record —
    /// re-fitting the fingerprint from the retained baseline in golden
    /// mode, replaying the baseline into a fresh rolling warm-up in
    /// self-calibrating mode.
    fn revive(&mut self, chip_id: &str, rec: ColdRecord) -> Result<ChipEntry, FleetError> {
        let labels = self.shard_labels.with("chip", chip_id);
        let mut baseline = rec.baseline;
        let pipeline = match self.mode {
            BaselineMode::Golden => {
                if baseline.rows.len() >= 2 {
                    self.refits += 1;
                    Some(build_pipeline(&mut baseline, labels.clone())?)
                } else {
                    None
                }
            }
            BaselineMode::SelfCalibrating => {
                let mut pipeline = build_selfcal_pipeline(self.golden_traces, labels.clone())?;
                if !baseline.rows.is_empty() {
                    self.refits += 1;
                    for trace in &baseline.rows {
                        let _ = pipeline.ingest_trace(trace);
                    }
                }
                Some(pipeline)
            }
        };
        let mut stats = rec.stats;
        stats.hot = true;
        Ok(ChipEntry {
            pipeline,
            baseline,
            last_used: 0,
            streak: rec.streak,
            stats,
            labels,
        })
    }

    /// Evicts the least-recently-used hot chip if the store is full,
    /// demoting it to the bounded cold map.
    fn make_room(&mut self) {
        if self.hot.len() < self.config.capacity {
            return;
        }
        // Ids are unique, so the least `(last_used, id)` is one chip;
        // only its id is cloned.
        let victim = self
            .hot
            .iter()
            .min_by(|(a, x), (b, y)| (x.last_used, a).cmp(&(y.last_used, b)))
            .map(|(id, _)| id.clone());
        let Some(victim) = victim else { return };
        if let Some(entry) = self.hot.remove(&victim) {
            self.evictions += 1;
            emtrust::telemetry::counter("fleet.store_evictions", 1);
            let mut stats = entry.stats;
            stats.hot = false;
            self.demote_cold(
                victim,
                ColdRecord {
                    baseline: entry.baseline,
                    streak: entry.streak,
                    stats,
                    evicted_at: self.clock,
                },
            );
        }
    }

    fn demote_cold(&mut self, chip_id: String, rec: ColdRecord) {
        if self.cold.len() >= self.config.cold_capacity {
            let oldest = self
                .cold
                .iter()
                .min_by(|(a, x), (b, y)| (x.evicted_at, a).cmp(&(y.evicted_at, b)))
                .map(|(id, _)| id.clone());
            if let Some(oldest) = oldest {
                self.cold.remove(&oldest);
                self.cold_drops += 1;
            }
        }
        self.cold.insert(chip_id, rec);
    }
}

/// The fingerprint settings of every golden chip. PCA is disabled:
/// fleet-scale per-chip fits trade the projection's compaction for
/// constant-time cold starts.
fn golden_config() -> FingerprintConfig {
    FingerprintConfig {
        pca_components: None,
        threshold_margin: 1.25,
        ..FingerprintConfig::default()
    }
}

/// A warming golden chip's baseline row: the trace's raw RMS features,
/// as its fitted pipeline will extract them.
fn golden_features(trace: &[f64]) -> Result<Vec<f64>, emtrust::TrustError> {
    bin_rms(trace, golden_config().rms_bin)
}

/// Fits a golden fingerprint from the baseline's features and wraps it
/// in a fresh per-chip pipeline.
fn build_pipeline(
    baseline: &mut Baseline,
    labels: LabelSet,
) -> Result<DetectionPipeline, FleetError> {
    let _span = emtrust::telemetry::span("fit");
    let fingerprint = GoldenFingerprint::from_features(
        baseline.rows.make_contiguous(),
        baseline.trace_len,
        golden_config(),
    )?;
    Ok(DetectionPipeline::builder()
        .detector(Box::new(EuclideanDetector::new(fingerprint)))
        .sanitizer(TraceSanitizer::default())
        .labels(labels)
        .build())
}

/// Wraps a self-calibrating Euclidean detector in a fresh per-chip
/// pipeline: the rolling baseline arms after `warmup` live traces and
/// no golden material is ever consulted.
fn build_selfcal_pipeline(
    warmup: usize,
    labels: LabelSet,
) -> Result<DetectionPipeline, FleetError> {
    let cfg = SelfCalibratingConfig {
        warmup,
        ..SelfCalibratingConfig::default()
    };
    let mut pipeline = DetectionPipeline::builder()
        .detector(Box::new(EuclideanDetector::from_config(
            FingerprintConfig::default(),
        )))
        .sanitizer(TraceSanitizer::default())
        .labels(labels)
        .build();
    pipeline.fit_baseline(&BaselineSource::self_calibrating(cfg))?;
    Ok(pipeline)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_trace(seed: u64) -> Vec<f64> {
        (0..64)
            .map(|i| (i as f64 * 0.2).sin() + ((seed as f64) * 1e-4) * (i as f64 * 0.05).cos())
            .collect()
    }

    /// Like [`clean_trace`] but with hash-derived jitter, so rolling
    /// robust statistics see a non-degenerate spread.
    fn noisy_trace(seed: u64) -> Vec<f64> {
        (0..64)
            .map(|i| {
                let h = ((i as f64 + 1.0) * (seed as f64 + 1.0) * 12.9898).sin() * 43758.5453;
                (i as f64 * 0.2).sin() + 0.01 * (h - h.floor() - 0.5)
            })
            .collect()
    }

    fn store_with_mode(capacity: usize, mode: BaselineMode) -> PipelineStore {
        PipelineStore::new(
            StoreConfig {
                capacity,
                baseline_window: 6,
                cold_capacity: 8,
            },
            3,
            mode,
            LabelSet::new().with("shard", "0"),
        )
    }

    fn store(capacity: usize) -> PipelineStore {
        store_with_mode(capacity, BaselineMode::Golden)
    }

    fn warm(store: &mut PipelineStore, chip: &str) {
        for round in 0..3 {
            let out = store.ingest(chip, &[clean_trace(round)]).unwrap();
            assert_eq!(out.rejected, 0);
        }
    }

    #[test]
    fn cold_start_fits_after_golden_traces() {
        let mut s = store(4);
        let o1 = s.ingest("a", &[clean_trace(0), clean_trace(1)]).unwrap();
        assert_eq!(o1.warmup, 2);
        assert!(!o1.fitted_now);
        let o2 = s.ingest("a", &[clean_trace(2), clean_trace(3)]).unwrap();
        assert!(o2.fitted_now, "third clean trace completes the fit");
        assert_eq!(o2.warmup + o2.scored, 2);
        assert_eq!(s.fits(), 1);
        let o3 = s.ingest("a", &[clean_trace(4)]).unwrap();
        assert_eq!(o3.scored, 1);
    }

    #[test]
    fn rejected_traces_grow_the_streak_and_clean_ones_reset_it() {
        let mut s = store(4);
        warm(&mut s, "a");
        let nan = vec![f64::NAN; 64];
        let out = s.ingest("a", &[nan.clone(), nan.clone()]).unwrap();
        assert_eq!(out.rejected, 2);
        assert!(out.fully_rejected);
        assert_eq!(out.consecutive_rejections, 2);
        let out = s.ingest("a", &[clean_trace(9)]).unwrap();
        assert_eq!(out.consecutive_rejections, 0);
        assert!(!out.fully_rejected);
    }

    #[test]
    fn warmup_rejections_also_count_toward_the_streak() {
        let mut s = store(4);
        let nan = vec![f64::NAN; 64];
        let out = s.ingest("a", &[nan.clone(), nan]).unwrap();
        assert_eq!(out.consecutive_rejections, 2);
        assert!(out.fully_rejected);
    }

    /// The hot chips and the cold ones, each sorted by id.
    fn residency(s: &PipelineStore) -> (Vec<String>, Vec<String>) {
        let (hot, cold): (Vec<_>, Vec<_>) = s.chip_stats().into_iter().partition(|(_, st)| st.hot);
        let ids = |v: Vec<(String, ChipStats)>| v.into_iter().map(|(id, _)| id).collect();
        (ids(hot), ids(cold))
    }

    #[test]
    fn lru_eviction_demotes_and_revival_refits() {
        let mut s = store(2);
        warm(&mut s, "a");
        warm(&mut s, "b");
        assert_eq!(s.hot_len(), 2);
        // Touch "b" so "a" is the LRU victim.
        s.ingest("b", &[clean_trace(10)]).unwrap();
        warm(&mut s, "c");
        assert_eq!(s.hot_len(), 2);
        assert_eq!(s.evictions(), 1);
        assert_eq!(s.cold_len(), 1);
        assert_eq!(
            residency(&s),
            (vec!["b".into(), "c".into()], vec!["a".into()])
        );
        // "a" returns: re-fitted from its retained baseline, scoring
        // immediately (no warm-up). "b", last used before "c", goes.
        let out = s.ingest("a", &[clean_trace(11)]).unwrap();
        assert_eq!(out.scored, 1);
        assert_eq!(out.warmup, 0);
        assert_eq!(s.refits(), 1);
        assert_eq!(
            residency(&s),
            (vec!["a".into(), "c".into()], vec!["b".into()])
        );
        // Touch "a"; the next newcomer evicts "c", then "a" in turn.
        s.ingest("a", &[clean_trace(12)]).unwrap();
        warm(&mut s, "d");
        assert_eq!(
            residency(&s),
            (vec!["a".into(), "d".into()], vec!["b".into(), "c".into()])
        );
        s.ingest("e", &[clean_trace(0)]).unwrap();
        assert_eq!(
            residency(&s),
            (
                vec!["d".into(), "e".into()],
                vec!["a".into(), "b".into(), "c".into()]
            )
        );
        assert_eq!(s.evictions(), 4);
        // Its cumulative stats survived the round-trips.
        let stats = s.chip_stats();
        let a = stats.iter().find(|(id, _)| id == "a").unwrap();
        assert_eq!(a.1.scored, 5);
    }

    #[test]
    fn cold_map_is_bounded() {
        let mut s = store(1);
        for i in 0..12usize {
            warm(&mut s, &format!("chip-{i:02}"));
            // Each newcomer evicts its predecessor; the cold map keeps
            // the 8 most recently evicted and drops the oldest first.
            let expect_cold: Vec<String> = (i.saturating_sub(8)..i)
                .map(|k| format!("chip-{k:02}"))
                .collect();
            assert_eq!(residency(&s), (vec![format!("chip-{i:02}")], expect_cold));
            assert_eq!(s.cold_drops(), i.saturating_sub(8) as u64);
        }
        assert_eq!(s.hot_len(), 1);
        assert_eq!(s.cold_len(), 8);
        assert_eq!(s.evictions(), 11);
    }

    /// The fingerprint `GoldenFingerprint::fit` gives on a trace set of
    /// `traces`, with the store's settings.
    fn fit_on_traces(traces: &[Vec<f64>]) -> GoldenFingerprint {
        let set = emtrust::TraceSet::new(traces.to_vec(), 640e6).unwrap();
        GoldenFingerprint::fit(&set, golden_config()).unwrap()
    }

    /// Asserts that hot chip `chip`'s fingerprint is bit-equal to
    /// [`fit_on_traces`] on `traces`.
    fn assert_fitted_on(s: &PipelineStore, chip: &str, traces: &[Vec<f64>]) {
        let got = s.hot[chip].pipeline.as_ref().and_then(|p| p.projector());
        let got = got.expect("a fitted golden chip");
        let want = fit_on_traces(traces);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            got.scale().to_bits(),
            want.scale().to_bits(),
            "{chip} scale"
        );
        assert_eq!(
            bits(got.centroid()),
            bits(want.centroid()),
            "{chip} centroid"
        );
        assert_eq!(got.threshold().to_bits(), want.threshold().to_bits());
        assert_eq!(got.expected_trace_len(), want.expected_trace_len());
        assert_eq!(got.golden_count(), traces.len());
    }

    #[test]
    fn fits_and_refits_from_features_equal_fits_from_traces() {
        let t: Vec<Vec<f64>> = (0..9).map(noisy_trace).collect();
        let mut s = store(2);
        // Cold start: the third clean trace completes the fit.
        assert!(!s.ingest("a", &t[..2]).unwrap().fitted_now);
        assert!(s.ingest("a", &t[2..3]).unwrap().fitted_now);
        assert_fitted_on(&s, "a", &t[..3]);
        // Each trace keeps its 8 features, an eighth of its 64 samples.
        assert_eq!(s.baseline_floats(), 3 * 8);
        // Scored rounds fill the 6-trace ring with t2..t7.
        assert_eq!(s.ingest("a", &t[3..5]).unwrap().scored, 2);
        assert_eq!(s.ingest("a", &t[5..8]).unwrap().scored, 3);
        assert_eq!(s.baseline_floats(), 6 * 8);
        // An LRU eviction, then a revival refit from the retained ring.
        warm(&mut s, "b");
        warm(&mut s, "c");
        assert_eq!(residency(&s).1, ["a"]);
        assert_eq!(s.ingest("a", &t[8..9]).unwrap().scored, 1);
        assert_eq!(s.refits(), 1);
        assert_fitted_on(&s, "a", &t[2..8]);
        assert_eq!(s.baseline_floats(), (6 + 3 + 3) * 8);
    }

    #[test]
    fn warmup_refuses_bad_traces_and_counts_them_in_the_streak() {
        let t: Vec<Vec<f64>> = (0..3).map(noisy_trace).collect();
        let with = |k: usize, x: f64| {
            let mut bad = t[0].clone();
            bad[k] = x;
            bad
        };
        let mut s = store(4);
        let out = s.ingest("a", &t[..1]).unwrap();
        assert_eq!((out.warmup, out.consecutive_rejections), (1, 0));
        // NaN and ±inf samples and an empty trace, before and after a
        // clean one, then traces shorter and longer than the first.
        let bad = [with(5, f64::NAN), with(0, f64::INFINITY)];
        let out = s.ingest("a", &bad).unwrap();
        assert_eq!((out.rejected, out.consecutive_rejections), (2, 2));
        assert!(out.fully_rejected);
        let bad = [with(63, f64::NEG_INFINITY), Vec::new()];
        let out = s.ingest("a", &bad).unwrap();
        assert_eq!((out.rejected, out.consecutive_rejections), (2, 4));
        let out = s.ingest("a", &t[1..2]).unwrap();
        assert_eq!((out.warmup, out.consecutive_rejections), (1, 0));
        let bad = [t[2][..32].to_vec(), [t[2].as_slice(), &[0.5]].concat()];
        let out = s.ingest("a", &bad).unwrap();
        assert_eq!((out.rejected, out.consecutive_rejections), (2, 2));
        assert_eq!(s.baseline_floats(), 2 * 8);
        // The fit reads the three clean traces and nothing else.
        let out = s.ingest("a", &t[2..3]).unwrap();
        assert!(out.fitted_now);
        assert_eq!(out.consecutive_rejections, 0);
        assert_fitted_on(&s, "a", &t);
        let stats = s.chip_stats();
        assert_eq!((stats[0].1.scored, stats[0].1.rejected), (3, 6));
    }

    #[test]
    fn length_mismatch_is_rejected_during_warmup() {
        let mut s = store(4);
        let out = s.ingest("a", &[clean_trace(0), vec![1.0; 32]]).unwrap();
        assert_eq!(out.warmup, 1);
        assert_eq!(out.rejected, 1);
    }

    #[test]
    fn self_calibrating_chip_is_protected_without_golden_fit() {
        // A 6-trace warm-up keeps the MAD-based threshold away from the
        // degenerate tiny-spread regime.
        let mut s = PipelineStore::new(
            StoreConfig {
                capacity: 4,
                baseline_window: 6,
                cold_capacity: 8,
            },
            6,
            BaselineMode::SelfCalibrating,
            LabelSet::new().with("shard", "0"),
        );
        assert_eq!(s.mode(), BaselineMode::SelfCalibrating);
        // Warm-up traces flow through the live pipeline; the sixth one
        // arms the rolling baseline.
        let warmup: Vec<Vec<f64>> = (0..6).map(noisy_trace).collect();
        let out = s.ingest("a", &warmup).unwrap();
        assert_eq!(out.warmup, 6);
        assert!(out.fitted_now);
        assert_eq!(s.fits(), 1);
        // Armed: clean traffic scores without alarming.
        let out = s.ingest("a", &[noisy_trace(6)]).unwrap();
        assert_eq!(out.scored, 1);
        assert_eq!(out.alarms, 0);
        // A gross deviation alarms against the self-learned baseline.
        let hot: Vec<f64> = noisy_trace(7).iter().map(|x| 3.0 * x).collect();
        let out = s.ingest("a", &[hot]).unwrap();
        assert_eq!(out.alarms, 1);
    }

    #[test]
    fn self_calibrating_revival_replays_the_retained_baseline() {
        let mut s = store_with_mode(1, BaselineMode::SelfCalibrating);
        for round in 0..4 {
            s.ingest("a", &[clean_trace(round)]).unwrap();
        }
        // Evict "a" by introducing "b".
        s.ingest("b", &[clean_trace(0)]).unwrap();
        assert_eq!(s.evictions(), 1);
        // A self-calibrating chip keeps its samples for the replay.
        assert_eq!(s.baseline_floats(), (4 + 1) * 64);
        // "a" returns armed: its retained baseline re-warmed the fresh
        // rolling statistics, so scoring resumes immediately.
        let out = s.ingest("a", &[clean_trace(5)]).unwrap();
        assert_eq!(out.scored, 1);
        assert_eq!(out.warmup, 0);
        assert_eq!(s.refits(), 1);
    }
}
