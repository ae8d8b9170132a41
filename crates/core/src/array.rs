//! Multi-sensor EM array with spatial Trojan localization.
//!
//! The paper's single spiral answers *whether* the chip radiates like its
//! golden self; it cannot say *where* the excess comes from. This module
//! tiles the die into an `rows × cols` grid of sub-spirals
//! ([`emtrust_em::array::EmArray`]), runs one [`DetectionPipeline`] per
//! sub-sensor, and fuses the per-tile anomaly margins into a heat map
//! whose score-weighted centroid is mapped back through the
//! [`Floorplan`]'s placement regions — attributing an alarm to the
//! nearest placed module (`trojan1` … `trojan4`, or the AES core
//! itself).
//!
//! Cost discipline: the array shares **one** logic simulation and **one**
//! switching-current synthesis pass per encryption across all `N`
//! sensors; only the per-tile flux weighting, noise, and scoring
//! multiply with `N`. Scoring fans over the same worker pool the
//! single-sensor path uses, and every result is bit-identical for every
//! worker count.
//!
//! The array also works **without any golden model**:
//! [`SensorArray::fit_reference_free`] gives every tile a
//! self-calibrating pipeline (see [`crate::baseline`]) and campaign
//! verdicts come from the [`ConsensusDetector`] — a Trojan's coupling
//! is spatially concentrated near its payload, while sensor faults and
//! global drift lift every tile together, so the `max − median` margin
//! asymmetry separates the two with no reference traces at all.
//!
//! Everything is fronted by [`ArrayConfig`]/[`ArrayBuilder`] — the same
//! consuming-builder idiom as [`DetectionPipeline::builder`] — rather
//! than positional constructors, and every campaign verdict is an
//! [`Attribution`]:
//!
//! ```no_run
//! # use emtrust::array::SensorArray;
//! # fn demo(chip: &emtrust_trojan::ProtectedChip) -> Result<(), emtrust::TrustError> {
//! let mut array = SensorArray::builder(chip).with_grid(4, 2)?.build()?;
//! let golden = array.collect(*b"sixteen byte key", 24, None, 42)?;
//! array.fit_golden(&golden)?;
//! # Ok(())
//! # }
//! ```

use crate::acquisition::TraceSet;
use crate::attribution::{self, Attribution, CellEvidence};
use crate::baseline::{BaselineSource, CalibrationState, DetectorReadiness, SelfCalibratingConfig};
use crate::campaign::{Block, Campaign};
use crate::detector::{
    Detector, DetectorDomain, DetectorVerdict, EuclideanDetector, FeaturePlan, GoldenContext,
    Score, ScoreDetail,
};
use crate::features::FeatureFrame;
use crate::fingerprint::{FingerprintConfig, GoldenFingerprint};
use crate::parallel::ParallelConfig;
use crate::pipeline::{DetectionPipeline, DetectorConfig};
use crate::TrustError;
use emtrust_dsp::stats::median;
use emtrust_em::array::EmArray;
use emtrust_em::emf::VoltageTrace;
use emtrust_layout::floorplan::Floorplan;
use emtrust_power::ClockConfig;
use emtrust_silicon::chip::reference_design;
use emtrust_sim::ToggleActivity;
use emtrust_telemetry::{self as telemetry, DecisionRecord, ForensicsConfig, LabelSet, TileMargin};
use emtrust_trojan::{ProtectedChip, TrojanKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Mutex, MutexGuard};

/// Geometry and detection knobs of a [`SensorArray`], with defaults
/// matching the single-sensor path wherever they overlap.
#[derive(Debug, Clone)]
pub struct ArrayConfig {
    /// Grid rows (south to north).
    pub rows: usize,
    /// Grid columns (west to east).
    pub cols: usize,
    /// Turns per sub-spiral (the single-sensor default is 20; smaller
    /// tiles tolerate fewer turns before the metal-pitch rule bites).
    pub turns: usize,
    /// Per-tile fingerprint fitting configuration.
    pub fingerprint: FingerprintConfig,
    /// Worker pool shared by collection and scoring.
    pub parallel: ParallelConfig,
    /// Identity labels (`chip_id`, …) stamped on every tile pipeline's
    /// metric series and on array decision records; each tile pipeline
    /// additionally gets its own `tile=rXcY` pair.
    pub labels: LabelSet,
    /// Enables the array's campaign decision log (one
    /// [`DecisionRecord`] with per-tile margins per [`SensorArray::attribute`]).
    pub forensics: Option<ForensicsConfig>,
    /// Cross-sensor consensus knobs, used when the array is fitted
    /// reference-free ([`SensorArray::fit_reference_free`]).
    pub consensus: ConsensusConfig,
}

impl Default for ArrayConfig {
    fn default() -> Self {
        Self {
            rows: 2,
            cols: 2,
            turns: 12,
            fingerprint: FingerprintConfig::default(),
            parallel: ParallelConfig::serial(),
            labels: LabelSet::new(),
            forensics: None,
            consensus: ConsensusConfig::default(),
        }
    }
}

/// Fluent constructor for [`SensorArray`] — obtained from
/// [`SensorArray::builder`], which takes the one required ingredient
/// (the chip under test).
#[derive(Debug)]
#[must_use = "a builder does nothing until .build() is called"]
pub struct ArrayBuilder<'c> {
    chip: &'c ProtectedChip,
    config: ArrayConfig,
}

impl<'c> ArrayBuilder<'c> {
    /// Sets the grid shape.
    ///
    /// # Errors
    ///
    /// [`TrustError::InvalidParameter`] if either dimension is zero.
    pub fn with_grid(mut self, rows: usize, cols: usize) -> Result<Self, TrustError> {
        if rows == 0 || cols == 0 {
            return Err(TrustError::InvalidParameter {
                what: "array grid needs at least one row and one column",
            });
        }
        self.config.rows = rows;
        self.config.cols = cols;
        Ok(self)
    }

    /// Sets the per-sub-spiral turn count.
    ///
    /// # Errors
    ///
    /// [`TrustError::InvalidParameter`] if `turns` is zero (the
    /// metal-pitch rule is checked later, against the actual tile size,
    /// at build time).
    pub fn with_turns(mut self, turns: usize) -> Result<Self, TrustError> {
        if turns == 0 {
            return Err(TrustError::InvalidParameter {
                what: "sub-spiral needs at least one turn",
            });
        }
        self.config.turns = turns;
        Ok(self)
    }

    /// Sets the per-tile fingerprint configuration.
    pub fn with_fingerprint(mut self, config: FingerprintConfig) -> Self {
        self.config.fingerprint = config;
        self
    }

    /// Sets the worker pool shared by collection and scoring.
    pub fn with_parallel(mut self, parallel: ParallelConfig) -> Self {
        self.config.parallel = parallel;
        self
    }

    /// Stamps a `chip_id` identity label on every tile pipeline and on
    /// array decision records.
    pub fn with_chip_id(mut self, chip_id: &str) -> Self {
        self.config.labels = self.config.labels.with("chip_id", chip_id);
        self
    }

    /// Enables the array's campaign decision log and per-tile pipeline
    /// forensics.
    pub fn with_forensics(mut self, config: ForensicsConfig) -> Self {
        self.config.forensics = Some(config);
        self
    }

    /// Sets the cross-sensor consensus knobs used by the
    /// reference-free fit path.
    ///
    /// # Errors
    ///
    /// [`TrustError::InvalidParameter`] if the configuration is out of
    /// range.
    pub fn with_consensus(mut self, config: ConsensusConfig) -> Result<Self, TrustError> {
        config.validate()?;
        self.config.consensus = config;
        Ok(self)
    }

    /// Places the chip, tiles the die, and builds every sub-sensor's
    /// coupling machinery. Detection pipelines are created later, by
    /// [`SensorArray::fit_golden`].
    ///
    /// # Errors
    ///
    /// Propagates placement errors and tile-coil design-rule violations
    /// (too many turns for the tile size).
    pub fn build(self) -> Result<SensorArray<'c>, TrustError> {
        let (floorplan, model) = reference_design(self.chip.netlist())?;
        let clock = model.clock();
        let array = EmArray::build(
            self.chip.netlist(),
            &floorplan,
            model,
            self.config.rows,
            self.config.cols,
            self.config.turns,
        )?;
        Ok(SensorArray {
            chip: self.chip,
            floorplan,
            clock,
            array,
            config: self.config,
            pipelines: Vec::new(),
            self_calibrating: false,
            campaigns: 0,
            decisions: Vec::new(),
            decisions_dropped: 0,
            noise: Mutex::default(),
        })
    }
}

/// Knobs of the [`ConsensusDetector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConsensusConfig {
    /// Alarm threshold on the spatial-excess statistic (hottest tile
    /// margin minus the median tile margin). A Trojan perturbs tiles
    /// asymmetrically; sensor faults and global drift lift every tile
    /// together, leaving this statistic near zero.
    pub margin_threshold: f64,
    /// Minimum tile count for a meaningful spatial vote (a single tile
    /// has no spatial contrast).
    pub min_tiles: usize,
}

impl Default for ConsensusConfig {
    fn default() -> Self {
        Self {
            margin_threshold: 0.25,
            min_tiles: 2,
        }
    }
}

impl ConsensusConfig {
    /// Checks every invariant the consensus detector relies on.
    ///
    /// # Errors
    ///
    /// [`TrustError::InvalidParameter`] naming the violated bound.
    pub fn validate(&self) -> Result<(), TrustError> {
        if !(self.margin_threshold.is_finite() && self.margin_threshold > 0.0) {
            return Err(TrustError::InvalidParameter {
                what: "consensus margin_threshold must be positive and finite",
            });
        }
        if self.min_tiles < 2 {
            return Err(TrustError::InvalidParameter {
                what: "consensus needs at least two tiles for spatial contrast",
            });
        }
        Ok(())
    }
}

/// Cross-sensor consensus detector: votes on the *spatial asymmetry* of
/// a heat map rather than on any single tile's score.
///
/// It consumes a [`FeatureFrame`] whose samples are the per-tile
/// relative margins of one campaign and computes `max − median` over
/// them. A Trojan couples most strongly into the tiles nearest its
/// payload, so its excess is spatially concentrated and the statistic
/// is large; a drifting supply, a temperature ramp, or a common-mode
/// sensor fault lifts every tile together and the statistic stays near
/// zero. This makes the detector reference-free — it needs no golden
/// material, only the geometric prior that real die area is shared.
#[derive(Debug, Clone)]
pub struct ConsensusDetector {
    config: ConsensusConfig,
}

impl ConsensusDetector {
    /// A consensus detector with the given knobs.
    ///
    /// # Errors
    ///
    /// [`TrustError::InvalidParameter`] if the configuration is out of
    /// range.
    pub fn new(config: ConsensusConfig) -> Result<Self, TrustError> {
        config.validate()?;
        Ok(Self { config })
    }

    /// The configuration in effect.
    pub fn config(&self) -> ConsensusConfig {
        self.config
    }
}

impl Detector for ConsensusDetector {
    fn name(&self) -> &'static str {
        "consensus"
    }

    fn domain(&self) -> DetectorDomain {
        DetectorDomain::PerEncryption
    }

    fn feature_plan(&self) -> FeaturePlan {
        FeaturePlan::default()
    }

    fn fit(&mut self, _ctx: &GoldenContext<'_>) -> Result<(), TrustError> {
        // Reference-free: nothing to learn, any context (even an empty
        // one) fits.
        Ok(())
    }

    fn fit_baseline(&mut self, source: &BaselineSource<'_>) -> Result<(), TrustError> {
        if let BaselineSource::SelfCalibrating(cfg) = source {
            cfg.validate()?;
        }
        Ok(())
    }

    fn is_fitted(&self) -> bool {
        true
    }

    fn readiness(&self) -> DetectorReadiness {
        DetectorReadiness::Ready
    }

    fn score(&self, frame: &FeatureFrame<'_>) -> Result<Score, TrustError> {
        let margins = frame.samples();
        if margins.len() < self.config.min_tiles {
            return Err(TrustError::InvalidParameter {
                what: "consensus frame holds fewer tile margins than min_tiles",
            });
        }
        if margins.iter().any(|m| !m.is_finite()) {
            return Err(TrustError::InvalidParameter {
                what: "consensus tile margins must be finite",
            });
        }
        let max = margins.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Ok(Score {
            statistic: max - median(margins),
            threshold: self.config.margin_threshold,
            detail: ScoreDetail::None,
        })
    }
}

/// One tile's entry in the localization heat map.
#[derive(Debug, Clone, PartialEq)]
pub struct TileScore {
    /// Grid row of the tile (0 = southmost).
    pub row: usize,
    /// Grid column of the tile (0 = westmost).
    pub col: usize,
    /// Tile centre on the die, in µm.
    pub center_um: (f64, f64),
    /// Mean positive relative Euclidean margin over the tile's suspect
    /// traces: `max(0, (distance − EDth) / |EDth|)` averaged per trace.
    pub margin: f64,
    /// Fraction of the tile's suspect traces that raised a fused alarm.
    pub alarm_rate: f64,
}

/// One floorplan region in the localization ranking.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionScore {
    /// Region name as placed (`"aes"`, `"trojan1"`, …).
    pub region: String,
    /// Distance from the anomaly centroid to the region, in µm (zero if
    /// the centroid lies inside it).
    pub distance_um: f64,
}

/// Fuses per-tile anomaly scores into a die location.
///
/// Two steps: **common-mode removal** (subtract the median tile score,
/// clamp at zero — a Trojan whose payload loads the whole supply net,
/// like T2's leak, lifts every tile; only the spatial excess above that
/// common mode carries location information) and a **score-weighted
/// centroid** of the surviving tiles' centres.
#[derive(Debug, Clone)]
pub struct Localizer {
    centers: Vec<(f64, f64)>,
}

impl Localizer {
    /// A localizer over the given tile centres (µm, tile order).
    pub fn new(centers: Vec<(f64, f64)>) -> Self {
        Self { centers }
    }

    /// Removes the common mode: subtracts the median score and clamps
    /// at zero.
    pub fn whiten(scores: &[f64]) -> Vec<f64> {
        if scores.is_empty() {
            return Vec::new();
        }
        let mut sorted = scores.to_vec();
        sorted.sort_by(f64::total_cmp);
        let mid = sorted.len() / 2;
        let median = if sorted.len().is_multiple_of(2) {
            (sorted[mid - 1] + sorted[mid]) / 2.0
        } else {
            sorted[mid]
        };
        scores.iter().map(|s| (s - median).max(0.0)).collect()
    }

    /// The score-weighted centroid of the whitened heat map, in µm.
    /// `None` if the score vector does not match the tile count or no
    /// tile carries excess energy.
    pub fn centroid(&self, scores: &[f64]) -> Option<(f64, f64)> {
        if scores.len() != self.centers.len() {
            return None;
        }
        let w = Self::whiten(scores);
        let total: f64 = w.iter().sum();
        if total <= 1e-12 {
            return None;
        }
        let x = w
            .iter()
            .zip(&self.centers)
            .map(|(wi, c)| wi * c.0)
            .sum::<f64>()
            / total;
        let y = w
            .iter()
            .zip(&self.centers)
            .map(|(wi, c)| wi * c.1)
            .sum::<f64>()
            / total;
        Some((x, y))
    }

    /// Ranks the floorplan's regions nearest-first from the localized
    /// centroid. Empty when [`Self::centroid`] is undefined.
    pub fn rank(&self, scores: &[f64], floorplan: &Floorplan) -> Vec<RegionScore> {
        match self.centroid(scores) {
            Some((x, y)) => floorplan
                .regions_by_distance(x, y)
                .into_iter()
                .map(|(name, d)| RegionScore {
                    region: name.to_string(),
                    distance_um: d,
                })
                .collect(),
            None => Vec::new(),
        }
    }
}

/// One trace's samples on every tile, in tile order.
type TileSamples = Vec<Vec<f64>>;

/// The environment noise of one campaign seed: per trace index, each
/// tile's draw as [`EmArray::noise`] makes it. Suspect campaigns replay
/// the golden campaign's seed, so they add the kept draws to their own
/// noiseless emf instead of drawing them again; the sums round exactly
/// as fresh draws added in place do.
///
/// It holds one campaign: a new seed or trace length replaces it, and a
/// longer campaign at the same key extends it.
#[derive(Debug, Default)]
struct NoiseMemo {
    /// Campaign seed and samples per trace of the kept draws.
    key: Option<(u64, usize)>,
    /// Per trace index, each tile's samples added.
    traces: Vec<TileSamples>,
}

impl NoiseMemo {
    /// Forgets the draws of any other seed, before a campaign at `seed`
    /// draws its own, so two campaigns' draws are never held at once.
    fn forget_unless(&mut self, seed: u64) {
        if self.key.is_some_and(|(kept, _)| kept != seed) {
            *self = Self::default();
        }
    }

    /// The kept draws of trace `index` under `key`, if held.
    fn get(&self, key: (u64, usize), index: usize) -> Option<&[Vec<f64>]> {
        if self.key != Some(key) {
            return None;
        }
        self.traces.get(index).map(Vec::as_slice)
    }

    /// Keeps the fresh draws of trace `index` under `key`, replacing the
    /// draws of any other key. Only the draws that continue the kept
    /// traces are kept, so the memo always holds traces `0..n`.
    fn keep(&mut self, key: (u64, usize), index: usize, draws: TileSamples) {
        if self.key != Some(key) {
            self.key = Some(key);
            self.traces.clear();
        }
        if index == self.traces.len() {
            self.traces.push(draws);
        }
    }
}

/// Adds each tile's noise draw to its noiseless emf, sample by sample.
fn add_noise(emfs: &mut [VoltageTrace], draws: &[Vec<f64>]) {
    for (emf, draw) in emfs.iter_mut().zip(draws) {
        for (x, n) in emf.samples_mut().iter_mut().zip(draw) {
            *x += n;
        }
    }
}

/// The assembled multi-sensor experiment: one chip, one shared
/// simulation/synthesis path, `rows × cols` sub-sensors each feeding its
/// own detection pipeline.
#[derive(Debug)]
pub struct SensorArray<'c> {
    chip: &'c ProtectedChip,
    floorplan: Floorplan,
    clock: ClockConfig,
    array: EmArray,
    config: ArrayConfig,
    /// One pipeline per tile, in tile order; empty until
    /// [`Self::fit_golden`] or [`Self::fit_reference_free`].
    pipelines: Vec<DetectionPipeline>,
    /// Whether the tile pipelines learn their baselines from live
    /// traffic ([`Self::fit_reference_free`]).
    self_calibrating: bool,
    /// Campaigns evaluated so far (indexes the decision log).
    campaigns: u64,
    /// Bounded campaign decision log (empty unless forensics enabled).
    decisions: Vec<DecisionRecord>,
    /// Campaign records dropped after the log filled.
    decisions_dropped: u64,
    /// The environment noise of the last campaign seed measured.
    noise: Mutex<NoiseMemo>,
}

impl<'c> SensorArray<'c> {
    /// Starts a fluent builder over the chip under test.
    pub fn builder(chip: &'c ProtectedChip) -> ArrayBuilder<'c> {
        ArrayBuilder {
            chip,
            config: ArrayConfig::default(),
        }
    }

    /// Grid rows.
    pub fn rows(&self) -> usize {
        self.array.rows()
    }

    /// Grid columns.
    pub fn cols(&self) -> usize {
        self.array.cols()
    }

    /// Number of sub-sensors.
    pub fn len(&self) -> usize {
        self.array.len()
    }

    /// Whether the array has no sensors (never true once built).
    pub fn is_empty(&self) -> bool {
        self.array.is_empty()
    }

    /// The chip under test.
    pub fn chip(&self) -> &ProtectedChip {
        self.chip
    }

    /// The floorplan in use.
    pub fn floorplan(&self) -> &Floorplan {
        &self.floorplan
    }

    /// The clock configuration.
    pub fn clock(&self) -> ClockConfig {
        self.clock
    }

    /// The configuration the array was built with.
    pub fn config(&self) -> &ArrayConfig {
        &self.config
    }

    /// The underlying EM array (tile geometry, coupling maps).
    pub fn em_array(&self) -> &EmArray {
        &self.array
    }

    /// The per-tile pipelines (empty until [`Self::fit_golden`]).
    pub fn pipelines(&self) -> &[DetectionPipeline] {
        &self.pipelines
    }

    /// Whether [`Self::fit_golden`] or [`Self::fit_reference_free`] has
    /// run.
    pub fn is_fitted(&self) -> bool {
        self.pipelines.len() == self.array.len()
    }

    /// Whether the tile pipelines learn their baselines from live
    /// traffic.
    pub fn is_self_calibrating(&self) -> bool {
        self.self_calibrating
    }

    /// Aggregated calibration state across every tile pipeline:
    /// `Armed` once each tile's pipeline is armed, `Calibrating` (with
    /// the armed-tile count) before that. A golden-fitted array is
    /// `Armed` immediately.
    pub fn calibration_state(&self) -> CalibrationState {
        let total = self.pipelines.len();
        let ready = self
            .pipelines
            .iter()
            .filter(|p| p.calibration_state().is_armed())
            .count();
        if total > 0 && ready == total {
            CalibrationState::Armed
        } else {
            CalibrationState::Calibrating { ready, total }
        }
    }

    /// A localizer over this array's tile centres.
    pub fn localizer(&self) -> Localizer {
        Localizer::new(
            self.array
                .tiles()
                .iter()
                .map(|t| {
                    let c = t.center();
                    (c.x, c.y)
                })
                .collect(),
        )
    }

    /// Collects `n_traces` single-encryption traces **per tile** with the
    /// fixed stimulus derived from `seed` — one logic simulation and one
    /// current-synthesis pass per encryption, shared by every tile.
    ///
    /// Seeds mirror the single-sensor bench exactly (campaign seed ⊕
    /// trace-index mix for the noise, `seed ^ 0x97` for the plaintext),
    /// and tile 0's noise salt is zero — so a `1 × 1` array with the
    /// single-sensor turn count reproduces
    /// [`crate::acquisition::TestBench::collect`] bit for bit.
    ///
    /// The array keeps the environment noise of its last campaign seed:
    /// a campaign at that seed (the suspect campaigns that replay the
    /// golden one) adds the kept draws instead of drawing them again and
    /// counts `array.noise_memo.hits`; one that draws counts
    /// `array.noise_memo.misses`. The traces are the same bits either way.
    ///
    /// # Errors
    ///
    /// Propagates simulation and measurement errors.
    pub fn collect(
        &self,
        key: [u8; 16],
        n_traces: usize,
        armed: Option<TrojanKind>,
        seed: u64,
    ) -> Result<Vec<TraceSet>, TrustError> {
        self.collect_inner(key, n_traces, armed, seed, None)
    }

    /// [`Self::collect`], additionally returning the campaign's
    /// accumulated [`ToggleActivity`] — the switching-activity side of
    /// [`CellEvidence`] for cell-level attribution. The trace sets are
    /// bit-identical to [`Self::collect`]'s; the counts are taken from
    /// the same toggle stream the charge bins are, and equal
    /// [`ToggleActivity::from_trace`] of a recording of the campaign.
    ///
    /// # Errors
    ///
    /// Propagates simulation and measurement errors.
    pub fn collect_with_activity(
        &self,
        key: [u8; 16],
        n_traces: usize,
        armed: Option<TrojanKind>,
        seed: u64,
    ) -> Result<(Vec<TraceSet>, ToggleActivity), TrustError> {
        let mut toggles = ToggleActivity::new();
        let sets = self.collect_inner(key, n_traces, armed, seed, Some(&mut toggles))?;
        Ok((sets, toggles))
    }

    fn collect_inner(
        &self,
        key: [u8; 16],
        n_traces: usize,
        armed: Option<TrojanKind>,
        seed: u64,
        toggles: Option<&mut ToggleActivity>,
    ) -> Result<Vec<TraceSet>, TrustError> {
        let _span = telemetry::span("array.collect");
        telemetry::counter("array.traces", (n_traces * self.array.len()) as u64);
        let pt: [u8; 16] = StdRng::seed_from_u64(seed ^ 0x97).gen();
        // The memo is taken for the campaign, so the pool reads it
        // without a lock; a concurrent campaign finds it empty.
        let mut memo = std::mem::take(&mut *self.lock_noise());
        memo.forget_unless(seed);
        let mut drew = false;
        let mut per_tile: Vec<Vec<Vec<f64>>> = (0..self.array.len())
            .map(|_| Vec::with_capacity(n_traces))
            .collect();
        let campaign = Campaign::new(self.chip, key, armed, Some(pt));
        let table = self.array.charge_table();
        let recorded = campaign.record(&vec![pt; n_traces], table, toggles, |first, blocks| {
            // Each simulated round's measurements fan out across the
            // pool; every toggle was binned once for all tiles as it
            // streamed out of the simulator, so each trace only renders
            // and adds its noise.
            let per_trace = self.config.parallel.try_map(blocks.len(), |j| {
                self.measure_block(&blocks[j], &memo, seed, first + j)
            })?;
            // Transpose trace-major → tile-major.
            for (j, (tiles, fresh)) in per_trace.into_iter().enumerate() {
                if let Some((len, draws)) = fresh {
                    drew = true;
                    memo.keep((seed, len), first + j, draws);
                }
                for (t, samples) in tiles.into_iter().enumerate() {
                    per_tile[t].push(samples);
                }
            }
            Ok(())
        });
        *self.lock_noise() = memo;
        recorded?;
        if n_traces > 0 {
            let outcome = if drew {
                "array.noise_memo.misses"
            } else {
                "array.noise_memo.hits"
            };
            telemetry::counter(outcome, 1);
        }
        per_tile
            .into_iter()
            .map(|ts| TraceSet::new(ts, self.clock.sample_rate_hz()))
            .collect()
    }

    /// Measures trace `index` of the campaign at `seed` on every tile:
    /// the block's noiseless emf plus the memo's draws when it keeps
    /// them, or else fresh draws, which come back with the trace length
    /// for the memo to keep.
    fn measure_block(
        &self,
        Block { bins, leak }: &Block,
        memo: &NoiseMemo,
        seed: u64,
        index: usize,
    ) -> Result<(TileSamples, Option<(usize, TileSamples)>), TrustError> {
        let mut tiles = self.array.emf_multi(bins, leak.as_deref(), &[])?;
        let len = tiles.first().map_or(0, VoltageTrace::len);
        let fresh = match memo.get((seed, len), index) {
            Some(kept) => {
                add_noise(&mut tiles, kept);
                None
            }
            None => {
                let trace_seed = seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let draws = self.array.noise(trace_seed, len);
                add_noise(&mut tiles, &draws);
                Some((len, draws))
            }
        };
        let samples = tiles.into_iter().map(VoltageTrace::into_samples).collect();
        Ok((samples, fresh))
    }

    fn lock_noise(&self) -> MutexGuard<'_, NoiseMemo> {
        // The memo is only ever replaced whole, so a panic while the
        // lock was held leaves a complete one.
        self.noise.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Fits one golden fingerprint and one detection pipeline per tile.
    ///
    /// # Errors
    ///
    /// [`TrustError::InvalidParameter`] unless `golden` holds exactly
    /// one trace set per tile; forwarded fitting errors otherwise.
    pub fn fit_golden(&mut self, golden: &[TraceSet]) -> Result<(), TrustError> {
        let _span = telemetry::span("array.fit");
        if golden.len() != self.array.len() {
            return Err(TrustError::InvalidParameter {
                what: "fit_golden needs one golden trace set per tile",
            });
        }
        let mut pipelines = Vec::with_capacity(golden.len());
        for (t, set) in golden.iter().enumerate() {
            let fp = GoldenFingerprint::fit(set, self.config.fingerprint)?;
            let tile = &self.array.tiles()[t];
            let labels = self
                .config
                .labels
                .with("tile", format!("r{}c{}", tile.row(), tile.col()));
            let mut builder = DetectionPipeline::builder()
                .detector(Box::new(EuclideanDetector::new(fp)))
                .parallel(self.config.parallel)
                .labels(labels);
            if let Some(cfg) = self.config.forensics.clone() {
                builder = builder.forensics(cfg);
            }
            pipelines.push(builder.build());
        }
        self.pipelines = pipelines;
        self.self_calibrating = false;
        Ok(())
    }

    /// Fits one **self-calibrating** pipeline per tile — no golden
    /// material is consulted. Each tile's Euclidean detector learns a
    /// rolling robust baseline from the live traffic fed through
    /// [`Self::calibrate`] (or scored through [`Self::attribute`]), and
    /// campaign verdicts come from the [`ConsensusDetector`]'s
    /// spatial-asymmetry vote instead of any single tile's alarm.
    ///
    /// # Errors
    ///
    /// [`TrustError::InvalidParameter`] if the baseline or consensus
    /// configuration is out of range.
    pub fn fit_reference_free(&mut self, cfg: SelfCalibratingConfig) -> Result<(), TrustError> {
        let _span = telemetry::span("array.fit");
        cfg.validate()?;
        self.config.consensus.validate()?;
        let source = BaselineSource::SelfCalibrating(cfg);
        let mut pipelines = Vec::with_capacity(self.array.len());
        for tile in self.array.tiles() {
            let labels = self
                .config
                .labels
                .with("tile", format!("r{}c{}", tile.row(), tile.col()));
            let mut builder = DetectionPipeline::builder()
                .detector_config(&DetectorConfig::Euclidean(self.config.fingerprint))?
                .parallel(self.config.parallel)
                .labels(labels);
            if let Some(fcfg) = self.config.forensics.clone() {
                builder = builder.forensics(fcfg);
            }
            let mut pipeline = builder.build();
            pipeline.fit_baseline(&source)?;
            pipelines.push(pipeline);
        }
        self.pipelines = pipelines;
        self.self_calibrating = true;
        Ok(())
    }

    /// Feeds one clean campaign (one trace set per tile, as returned by
    /// [`Self::collect`]) through the tile pipelines purely to advance
    /// their rolling baselines — no verdict is produced and no campaign
    /// decision is logged. Use after [`Self::fit_reference_free`] until
    /// [`Self::calibration_state`] reports `Armed`.
    ///
    /// # Errors
    ///
    /// [`TrustError::InvalidParameter`] if the array is unfitted or the
    /// set count mismatches; forwarded scoring errors otherwise.
    pub fn calibrate(&mut self, clean: &[TraceSet]) -> Result<(), TrustError> {
        let _span = telemetry::span("array.calibrate");
        if !self.is_fitted() {
            return Err(TrustError::InvalidParameter {
                what: "array is not fitted: call fit_golden or fit_reference_free first",
            });
        }
        if clean.len() != self.array.len() {
            return Err(TrustError::InvalidParameter {
                what: "calibrate needs one clean trace set per tile",
            });
        }
        for (pipeline, set) in self.pipelines.iter_mut().zip(clean) {
            pipeline.ingest_batch(set.traces()).all_scored()?;
        }
        Ok(())
    }

    /// Scores one suspect campaign and attributes the excess energy:
    /// the region tier always, and — when `evidence` carries the
    /// campaign's switching activity (from
    /// [`Self::collect_with_activity`]) — a ranked per-cell suspicion
    /// tier.
    ///
    /// The cell tier is computed on top of the region tier, without
    /// touching the pipelines.
    ///
    /// # Errors
    ///
    /// [`TrustError::InvalidParameter`] if the array is unfitted, the
    /// set count mismatches, a tile's set holds no trace, or the
    /// evidence is degenerate; forwarded scoring errors otherwise.
    pub fn attribute(
        &mut self,
        suspects: &[TraceSet],
        evidence: Option<&CellEvidence<'_>>,
    ) -> Result<Attribution, TrustError> {
        let regions = self.evaluate_inner(suspects)?;
        let Some(ev) = evidence else {
            return Ok(regions);
        };
        let centers: Vec<(f64, f64)> = self
            .array
            .tiles()
            .iter()
            .map(|t| {
                let c = t.center();
                (c.x, c.y)
            })
            .collect();
        let cells = attribution::score_cells(
            self.chip.netlist(),
            &self.floorplan,
            &centers,
            regions.heat(),
            regions.centroid_um(),
            ev,
        )?;
        Ok(regions.with_cells(cells))
    }

    /// The tile and region tiers of [`Self::attribute`]: scores every
    /// tile, takes and logs the campaign decision, and ranks the
    /// floorplan regions. The cell tier is left empty.
    fn evaluate_inner(&mut self, suspects: &[TraceSet]) -> Result<Attribution, TrustError> {
        let _span = telemetry::span("array.evaluate");
        if !self.is_fitted() {
            return Err(TrustError::InvalidParameter {
                what: "array is not fitted: call fit_golden or fit_reference_free first",
            });
        }
        if suspects.len() != self.array.len() {
            return Err(TrustError::InvalidParameter {
                what: "attribute needs one suspect trace set per tile",
            });
        }
        // An empty campaign carries no evidence, so it gets no verdict.
        if suspects.iter().any(TraceSet::is_empty) {
            return Err(TrustError::InvalidParameter {
                what: "attribute needs at least one suspect trace per tile",
            });
        }
        let mut heat = Vec::with_capacity(self.array.len());
        let mut alarmed = false;
        for (t, set) in suspects.iter().enumerate() {
            let batch = self.pipelines[t].ingest_batch(set.traces()).all_scored()?;
            let mut margin_sum = 0.0;
            let mut alarms = 0usize;
            let mut scored = 0usize;
            for outcome in &batch.outcomes {
                // The Euclidean detector is registered first on every
                // tile; its relative margin is the heat-map currency.
                if let Some(vote) = outcome.votes.first() {
                    let thr = vote.score.threshold;
                    let rel = if thr.abs() > f64::EPSILON {
                        (vote.score.statistic - thr) / thr.abs()
                    } else {
                        vote.score.statistic
                    };
                    margin_sum += rel.max(0.0);
                    scored += 1;
                }
                if outcome.alarm.is_some() {
                    alarms += 1;
                }
            }
            alarmed |= alarms > 0;
            let tile = &self.array.tiles()[t];
            let c = tile.center();
            heat.push(TileScore {
                row: tile.row(),
                col: tile.col(),
                center_um: (c.x, c.y),
                margin: if scored > 0 {
                    margin_sum / scored as f64
                } else {
                    0.0
                },
                alarm_rate: if scored > 0 {
                    alarms as f64 / scored as f64
                } else {
                    0.0
                },
            });
        }
        let scores: Vec<f64> = heat.iter().map(|h| h.margin).collect();
        // Reference-free arrays decide by spatial consensus: single-tile
        // alarms are advisory (their thresholds are self-learned), the
        // asymmetry of the heat map is the campaign verdict.
        let mut consensus = None;
        if self.self_calibrating && scores.len() >= self.config.consensus.min_tiles {
            let det = ConsensusDetector::new(self.config.consensus)?;
            let score = det.score(&FeatureFrame::new(&scores))?;
            let suspected = det.verdict(&score);
            alarmed = suspected;
            consensus = Some(DetectorVerdict {
                detector: det.name(),
                suspected,
                score,
            });
        }
        let localizer = self.localizer();
        let centroid_um = localizer.centroid(&scores);
        let regions = localizer.rank(&scores, &self.floorplan);
        let index = self.campaigns;
        self.campaigns += 1;
        if self.config.forensics.is_some() || telemetry::is_enabled() {
            let mut rec = DecisionRecord::new("array");
            rec.index = Some(index);
            rec.labels = self.config.labels.clone();
            rec.verdict = if alarmed { "alarmed" } else { "clean" }.to_string();
            rec.fused_alarm = alarmed;
            if self.self_calibrating {
                rec.calibration = Some(self.calibration_state().label().to_string());
            }
            rec.tiles = heat
                .iter()
                .map(|h| TileMargin {
                    row: h.row,
                    col: h.col,
                    margin: h.margin,
                    alarm_rate: h.alarm_rate,
                })
                .collect();
            telemetry::decision(&rec);
            if let Some(cfg) = &self.config.forensics {
                if self.decisions.len() < cfg.max_decisions {
                    self.decisions.push(rec);
                } else {
                    self.decisions_dropped += 1;
                }
            }
        }
        Ok(Attribution::from_parts(
            heat,
            centroid_um,
            regions,
            alarmed,
            consensus,
        ))
    }

    /// Campaign decision records, oldest first (one per
    /// [`Self::attribute`]; empty unless forensics was enabled).
    pub fn decisions(&self) -> &[DecisionRecord] {
        &self.decisions
    }

    /// Campaign records dropped after the decision log filled.
    pub fn decisions_dropped(&self) -> u64 {
        self.decisions_dropped
    }

    /// Campaigns evaluated so far.
    pub fn campaigns(&self) -> u64 {
        self.campaigns
    }
}

#[cfg(test)]
#[deny(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use emtrust_trojan::TrojanKind::{T1AmLeaker, T2LeakageLeaker, T3CdmaLeaker, T4PowerDegrader};

    const KEY: [u8; 16] = *b"sixteen byte key";

    /// One campaign: armed Trojan, traces, seed, and whether the toggle
    /// counts are asked for too.
    type Step = (Option<TrojanKind>, usize, u64, bool);

    fn collect_step(
        array: &SensorArray<'_>,
        (armed, n_traces, seed, activity): Step,
    ) -> Result<Vec<TraceSet>, TrustError> {
        if activity {
            Ok(array.collect_with_activity(KEY, n_traces, armed, seed)?.0)
        } else {
            array.collect(KEY, n_traces, armed, seed)
        }
    }

    #[test]
    fn kept_noise_measures_like_a_fresh_array() -> Result<(), TrustError> {
        let chip = ProtectedChip::with_all_trojans();
        let build = |workers| {
            SensorArray::builder(&chip)
                .with_grid(2, 2)?
                .with_turns(8)?
                .with_parallel(ParallelConfig::serial().with_workers(workers))
                .build()
        };
        // Each step with the traces the memo holds after it.
        let steps: [(Step, usize); 9] = [
            // A golden campaign and the four armed ones that replay it.
            ((None, 3, 42, false), 3),
            ((Some(T1AmLeaker), 3, 42, true), 3),
            ((Some(T2LeakageLeaker), 3, 42, false), 3),
            ((Some(T3CdmaLeaker), 3, 42, true), 3),
            ((Some(T4PowerDegrader), 3, 42, false), 3),
            // A longer campaign at the same seed extends the memo, a
            // shorter one reads a prefix of it.
            ((None, 5, 42, true), 5),
            ((Some(T1AmLeaker), 2, 42, false), 5),
            // A new seed replaces it, and so does the old one after it.
            ((None, 2, 7, false), 2),
            ((Some(T2LeakageLeaker), 4, 42, true), 4),
        ];
        // The reference forgets its noise before every campaign, like a
        // freshly built array.
        let reference = build(1)?;
        let mut fresh = Vec::new();
        for (step, _) in steps {
            *reference.lock_noise() = NoiseMemo::default();
            fresh.push(collect_step(&reference, step)?);
        }
        for workers in [1, 2] {
            let array = build(workers)?;
            for ((step, kept), expected) in steps.iter().zip(&fresh) {
                let got = collect_step(&array, *step)?;
                assert!(got == *expected, "{step:?} at {workers} workers");
                let memo = array.lock_noise();
                assert_eq!(memo.key.map(|k| k.0), Some(step.2));
                assert_eq!(memo.traces.len(), *kept, "{step:?} at {workers} workers");
            }
        }
        Ok(())
    }

    #[test]
    fn noise_memo_keys_on_the_seed_and_the_trace_length() {
        let draws = |x: f64| vec![vec![x; 4], vec![-x; 4]];
        let mut memo = NoiseMemo::default();
        assert!(memo.get((1, 4), 0).is_none());
        memo.keep((1, 4), 0, draws(0.5));
        assert_eq!(memo.get((1, 4), 0), Some(&draws(0.5)[..]));
        assert!(memo.get((1, 5), 0).is_none());
        assert!(memo.get((2, 4), 0).is_none());
        assert!(memo.get((1, 4), 1).is_none());
        // Only draws that continue the kept traces are kept.
        memo.keep((1, 4), 2, draws(0.7));
        assert!(memo.get((1, 4), 2).is_none());
        memo.keep((1, 4), 1, draws(0.6));
        assert_eq!(memo.get((1, 4), 1), Some(&draws(0.6)[..]));
        // Another length at the same seed replaces the memo.
        memo.keep((1, 5), 0, draws(0.8));
        assert!(memo.get((1, 4), 0).is_none());
        assert_eq!(memo.traces.len(), 1);
        // Only another seed is forgotten before a campaign.
        memo.forget_unless(1);
        assert_eq!(memo.get((1, 5), 0), Some(&draws(0.8)[..]));
        memo.forget_unless(2);
        assert_eq!((memo.key, memo.traces.len()), (None, 0));
    }

    #[test]
    fn an_empty_suspect_campaign_gets_no_verdict() -> Result<(), TrustError> {
        let chip = ProtectedChip::golden();
        let mut array = SensorArray::builder(&chip).with_grid(2, 1)?.build()?;
        let golden = array.collect(KEY, 4, None, 42)?;
        array.fit_golden(&golden)?;
        let rate = golden[0].sample_rate_hz();
        let empty = vec![TraceSet::new(Vec::new(), rate)?; array.len()];
        assert!(matches!(
            array.attribute(&empty, None),
            Err(TrustError::InvalidParameter { .. })
        ));
        // One empty tile is refused too, and nothing was scored.
        let mut one_empty = array.collect(KEY, 2, None, 42)?;
        one_empty[1] = TraceSet::new(Vec::new(), rate)?;
        assert!(array.attribute(&one_empty, None).is_err());
        assert_eq!(array.campaigns(), 0);
        Ok(())
    }

    #[test]
    fn config_defaults_are_sane() {
        let c = ArrayConfig::default();
        assert_eq!((c.rows, c.cols), (2, 2));
        assert!(c.turns > 0);
        assert!(c.forensics.is_none());
    }

    #[test]
    fn builder_validates_grid_and_turns() {
        let chip = ProtectedChip::golden();
        assert!(SensorArray::builder(&chip).with_grid(0, 2).is_err());
        assert!(SensorArray::builder(&chip).with_grid(2, 0).is_err());
        assert!(SensorArray::builder(&chip).with_turns(0).is_err());
        assert!(SensorArray::builder(&chip).with_grid(3, 1).is_ok());
    }

    #[test]
    fn whitening_removes_the_common_mode() {
        let scores = [0.4, 0.5, 0.4, 2.4];
        let w = Localizer::whiten(&scores);
        assert_eq!(w[0], 0.0);
        assert!((w[3] - 1.95).abs() < 1e-12);
        // An all-equal heat map whitens to nothing.
        assert!(Localizer::whiten(&[0.7; 4]).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn centroid_weights_toward_the_hot_tile() {
        let l = Localizer::new(vec![(0.0, 0.0), (100.0, 0.0), (0.0, 100.0), (100.0, 100.0)]);
        // All cold: undefined.
        assert!(l.centroid(&[0.1; 4]).is_none());
        // One hot tile: centroid lands on it.
        assert_eq!(l.centroid(&[0.0, 0.0, 0.0, 3.0]), Some((100.0, 100.0)));
        // Two equally hot tiles: midpoint.
        assert_eq!(l.centroid(&[0.0, 2.0, 0.0, 2.0]), Some((100.0, 50.0)));
        // Mismatched score vector: undefined.
        assert!(l.centroid(&[1.0; 3]).is_none());
    }

    #[test]
    fn attribution_ranking_helpers() {
        let v = Attribution::from_parts(
            Vec::new(),
            Some((1.0, 2.0)),
            vec![
                RegionScore {
                    region: "trojan2".into(),
                    distance_um: 0.0,
                },
                RegionScore {
                    region: "aes".into(),
                    distance_um: 12.0,
                },
            ],
            true,
            None,
        );
        assert_eq!(v.top_region(), Some("trojan2"));
        assert_eq!(v.region_rank("aes"), Some(1));
        assert!(v.hit_at("trojan2", 1));
        assert!(!v.hit_at("aes", 1));
        assert!(v.hit_at("aes", 3));
        assert!(!v.hit_at("trojan4", 9));
    }

    #[test]
    fn unfitted_array_refuses_to_evaluate() -> Result<(), TrustError> {
        let chip = ProtectedChip::golden();
        let mut array = SensorArray::builder(&chip).with_grid(1, 1)?.build()?;
        assert!(!array.is_fitted());
        assert!(!array.is_self_calibrating());
        assert!(!array.calibration_state().is_armed());
        assert!(array.attribute(&[], None).is_err());
        assert!(array.calibrate(&[]).is_err());
        // Wrong golden arity is rejected too.
        assert!(array.fit_golden(&[]).is_err());
        Ok(())
    }

    #[test]
    fn consensus_config_bounds_are_enforced() {
        assert!(ConsensusConfig::default().validate().is_ok());
        assert!(ConsensusConfig {
            margin_threshold: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(ConsensusConfig {
            margin_threshold: f64::NAN,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(ConsensusConfig {
            min_tiles: 1,
            ..Default::default()
        }
        .validate()
        .is_err());
        let chip = ProtectedChip::golden();
        assert!(SensorArray::builder(&chip)
            .with_consensus(ConsensusConfig {
                min_tiles: 0,
                ..Default::default()
            })
            .is_err());
    }

    #[test]
    fn consensus_votes_on_asymmetry_not_level() -> Result<(), TrustError> {
        let det = ConsensusDetector::new(ConsensusConfig::default())?;
        assert!(det.is_fitted());
        assert!(det.readiness().is_ready());
        // A concentrated excess trips the vote…
        let hot = [0.02, 0.05, 0.03, 1.4];
        let score = det.score(&FeatureFrame::new(&hot))?;
        // dsp's median takes the upper-middle element on even lengths.
        assert!((score.statistic - (1.4 - 0.05)).abs() < 1e-12);
        assert!(det.verdict(&score));
        // …a uniform lift (global drift, supply ramp) does not, however
        // large.
        let drifted = [3.0, 3.1, 3.0, 3.05];
        let score = det.score(&FeatureFrame::new(&drifted))?;
        assert!(!det.verdict(&score));
        // Degenerate inputs are rejected.
        assert!(det.score(&FeatureFrame::new(&[1.0])).is_err());
        assert!(det.score(&FeatureFrame::new(&[1.0, f64::NAN])).is_err());
        Ok(())
    }

    #[test]
    fn consensus_is_reference_free() -> Result<(), TrustError> {
        use crate::baseline::SelfCalibratingConfig;
        let mut det = ConsensusDetector::new(ConsensusConfig::default())?;
        // Fits on an empty golden context and on a self-calibrating
        // source alike.
        det.fit(&GoldenContext::new())?;
        det.fit_baseline(&BaselineSource::golden(GoldenContext::new()))?;
        det.fit_baseline(&BaselineSource::self_calibrating(
            SelfCalibratingConfig::default(),
        ))?;
        assert!(det
            .fit_baseline(&BaselineSource::self_calibrating(SelfCalibratingConfig {
                warmup: 0,
                ..Default::default()
            }))
            .is_err());
        Ok(())
    }

    #[test]
    fn reference_free_array_arms_after_warmup() -> Result<(), TrustError> {
        let chip = ProtectedChip::golden();
        let mut array = SensorArray::builder(&chip).with_grid(2, 1)?.build()?;
        let cfg = SelfCalibratingConfig {
            warmup: 2,
            ..Default::default()
        };
        array.fit_reference_free(cfg)?;
        assert!(array.is_fitted());
        assert!(array.is_self_calibrating());
        assert_eq!(
            array.calibration_state(),
            CalibrationState::Calibrating { ready: 0, total: 2 }
        );
        let clean = array.collect(*b"sixteen byte key", 2, None, 7)?;
        array.calibrate(&clean)?;
        assert!(array.calibration_state().is_armed());
        // A clean campaign after arming carries a consensus vote and no
        // alarm.
        let probe = array.collect(*b"sixteen byte key", 1, None, 8)?;
        let verdict = array.attribute(&probe, None)?;
        let consensus = verdict.consensus().ok_or(TrustError::InvalidParameter {
            what: "expected a consensus vote on a reference-free array",
        })?;
        assert_eq!(consensus.detector, "consensus");
        assert!(!verdict.alarmed());
        // No cell evidence was supplied, so the cell tier is empty.
        assert!(verdict.cell_scores().is_empty());
        Ok(())
    }
}
