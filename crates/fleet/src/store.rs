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
//! All state is per-chip — nothing a poisoned neighbour does can
//! perturb another chip's baseline, fingerprint or counters, which is
//! what makes the fleet's quarantine-isolation guarantee bit-exact.

use std::collections::{HashMap, VecDeque};

use emtrust::telemetry::LabelSet;
use emtrust::{
    BaselineSource, DetectionPipeline, EuclideanDetector, FingerprintConfig, GoldenFingerprint,
    SelfCalibratingConfig, SensorHealth, TraceSanitizer, TraceSet,
};

use crate::config::{BaselineMode, StoreConfig};
use crate::FleetError;

/// Nominal acquisition rate stamped on refit golden sets — matches the
/// 640 MHz convention used across the suite's benches.
pub const SAMPLE_RATE_HZ: f64 = 640e6;

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
    /// Rolling clean-trace baseline, newest at the back.
    baseline: VecDeque<Vec<f64>>,
    last_used: u64,
    streak: u64,
    stats: ChipStats,
    labels: LabelSet,
}

struct ColdRecord {
    baseline: VecDeque<Vec<f64>>,
    streak: u64,
    stats: ChipStats,
    evicted_at: u64,
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
                        baseline: VecDeque::new(),
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
                    let o = pipeline.ingest_trace(trace);
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
                        // left to check.
                        debug_assert!(trace.iter().all(|s| s.is_finite()));
                        if same_length(&entry.baseline, trace) {
                            push_baseline(&mut entry.baseline, trace, baseline_window);
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
                    if baseline_compatible(&entry.baseline, trace) {
                        push_baseline(&mut entry.baseline, trace, baseline_window);
                        out.warmup += 1;
                        entry.stats.scored += 1;
                        entry.streak = 0;
                        if entry.baseline.len() >= golden_traces {
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
                entry.pipeline = Some(build_pipeline(&entry.baseline, labels)?);
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
        let baseline = rec.baseline;
        let pipeline = match self.mode {
            BaselineMode::Golden => {
                if baseline.len() >= 2 {
                    self.refits += 1;
                    Some(build_pipeline(&baseline, labels.clone())?)
                } else {
                    None
                }
            }
            BaselineMode::SelfCalibrating => {
                let mut pipeline = build_selfcal_pipeline(self.golden_traces, labels.clone())?;
                if !baseline.is_empty() {
                    self.refits += 1;
                    for trace in &baseline {
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

/// Whether a trace can join the chip's baseline: finite samples and a
/// length agreeing with what the baseline already holds.
fn baseline_compatible(baseline: &VecDeque<Vec<f64>>, trace: &[f64]) -> bool {
    same_length(baseline, trace) && trace.iter().all(|s| s.is_finite())
}

/// Whether a trace is non-empty and as long as the baseline's traces.
fn same_length(baseline: &VecDeque<Vec<f64>>, trace: &[f64]) -> bool {
    !trace.is_empty()
        && baseline
            .front()
            .is_none_or(|first| first.len() == trace.len())
}

/// Appends a copy of `trace` to the rolling baseline, keeping the
/// newest `window` traces. Once the window is full the evicted trace's
/// buffer holds the copy, so a full ring allocates nothing.
fn push_baseline(baseline: &mut VecDeque<Vec<f64>>, trace: &[f64], window: usize) {
    let recycled = if baseline.len() >= window {
        baseline.pop_front()
    } else {
        None
    };
    match recycled {
        Some(mut buf) => {
            buf.clear();
            buf.extend_from_slice(trace);
            baseline.push_back(buf);
        }
        None => baseline.push_back(trace.to_vec()),
    }
    while baseline.len() > window {
        baseline.pop_front();
    }
}

/// Fits a golden fingerprint from the baseline and wraps it in a fresh
/// per-chip pipeline. PCA is disabled: fleet-scale per-chip fits trade
/// the projection's compaction for constant-time cold starts.
fn build_pipeline(
    baseline: &VecDeque<Vec<f64>>,
    labels: LabelSet,
) -> Result<DetectionPipeline, FleetError> {
    let golden = TraceSet::new(baseline.iter().cloned().collect(), SAMPLE_RATE_HZ)?;
    let config = FingerprintConfig {
        pca_components: None,
        threshold_margin: 1.25,
        ..FingerprintConfig::default()
    };
    let fingerprint = GoldenFingerprint::fit(&golden, config)?;
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

    #[test]
    fn baseline_ring_keeps_the_newest_traces_in_order() {
        // The ring as it was: push a copy, then drop from the front.
        fn reference(ring: &mut VecDeque<Vec<f64>>, trace: &[f64], window: usize) {
            ring.push_back(trace.to_vec());
            while ring.len() > window {
                ring.pop_front();
            }
        }
        for window in [1, 2, 8] {
            let mut ring = VecDeque::new();
            let mut want = VecDeque::new();
            for k in 0..3 * window as u64 + 2 {
                let t = noisy_trace(k);
                push_baseline(&mut ring, &t, window);
                reference(&mut want, &t, window);
                let bits = |r: &VecDeque<Vec<f64>>| -> Vec<Vec<u64>> {
                    r.iter()
                        .map(|t| t.iter().map(|x| x.to_bits()).collect())
                        .collect()
                };
                assert_eq!(bits(&ring), bits(&want), "window {window}, push {k}");
                assert_eq!(ring.len(), (k as usize + 1).min(window));
            }
        }
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
        // "a" returns armed: its retained baseline re-warmed the fresh
        // rolling statistics, so scoring resumes immediately.
        let out = s.ingest("a", &[clean_trace(5)]).unwrap();
        assert_eq!(out.scored, 1);
        assert_eq!(out.warmup, 0);
        assert_eq!(s.refits(), 1);
    }
}
