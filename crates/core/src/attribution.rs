//! Register-level Trojan attribution: the structured [`Attribution`]
//! result and its rank metrics.
//!
//! The PR 5 localization stops at placement-region granularity — "the
//! excess energy sits nearest `trojan3`". The scan-chain literature's
//! useful deliverable is finer: a **per-register suspicion vector**
//! scored with Precision@k / Recall@k / AUROC / IoU, so a silicon
//! validation team knows *which cells* to image first. This module is
//! that surface:
//!
//! - [`Attribution`] — the result of
//!   [`SensorArray::attribute`](crate::array::SensorArray::attribute):
//!   the region tier (typed [`RegionScore`] ranking, heat map,
//!   centroid, alarm) plus a cell tier ranking every placed cell, read
//!   as [`CellScore`]s, with `hit_at`, `precision_at`, `recall_at`,
//!   `auroc` and `iou` as methods on the result instead of ad-hoc
//!   free-floating helpers.
//! - [`CellEvidence`] — the switching-activity ingredient: a baseline
//!   and a suspect [`ToggleActivity`] from the same stimulus, as
//!   returned by `SensorArray::collect_with_activity`.
//! - Rank metrics ([`precision_at_k`], [`recall_at_k`], [`auroc`],
//!   [`iou_at_k`]) as plain free functions over ranked truth labels, so
//!   the `emtrust-bench` leave-one-Trojan-out harness can score model
//!   outputs without round-tripping through an `Attribution`.
//!
//! Per-cell features fuse two independent physics: **where** the EM
//! excess sits (the whitened per-tile margin map and its centroid) and
//! **what** switched more than the baseline says it should (toggle-rate
//! excess per cell). A dormant payload barely toggles, but its trigger
//! counts every cycle; a whole-die supply leak lifts every tile, but no
//! cell's toggle rate moves. The default suspicion score multiplies
//! activity excess with spatial weight; a
//! [`LogisticModel`](crate::learned::LogisticModel) trains on the raw
//! [`CellFeatures`] when labeled material exists (the bench's
//! leave-one-Trojan-out protocol).

use crate::array::{Localizer, RegionScore, TileScore};
use crate::detector::DetectorVerdict;
use crate::TrustError;
use emtrust_layout::floorplan::Floorplan;
use emtrust_netlist::{CellId, CellKind, ModuleId, Netlist};
use emtrust_sim::ToggleActivity;
use std::cmp::Ordering;
use std::sync::Arc;

/// Switching-activity evidence for cell-level attribution: the same
/// stimulus observed with the chip in its baseline (golden or
/// calibration) state and in the suspect state.
#[derive(Debug, Clone, Copy)]
pub struct CellEvidence<'a> {
    /// Accumulated toggle activity of the baseline campaign.
    pub baseline: &'a ToggleActivity,
    /// Accumulated toggle activity of the suspect campaign.
    pub suspect: &'a ToggleActivity,
}

impl CellEvidence<'_> {
    /// Checks both activities cover at least one cycle (rates would
    /// otherwise be meaningless zeros).
    ///
    /// # Errors
    ///
    /// [`TrustError::InvalidParameter`] on an empty activity.
    pub fn validate(&self) -> Result<(), TrustError> {
        if self.baseline.cycles() == 0 || self.suspect.cycles() == 0 {
            return Err(TrustError::InvalidParameter {
                what: "cell evidence needs at least one recorded cycle on both sides",
            });
        }
        Ok(())
    }

    /// [`Self::validate`], and checks that neither activity counts a
    /// cell past the end of `netlist` — evidence recorded on another
    /// design.
    ///
    /// # Errors
    ///
    /// [`TrustError::InvalidParameter`] on an empty or foreign activity.
    pub(crate) fn validate_for(&self, netlist: &Netlist) -> Result<(), TrustError> {
        self.validate()?;
        let cells = netlist.cell_count();
        if self.baseline.cell_count() > cells || self.suspect.cell_count() > cells {
            return Err(TrustError::InvalidParameter {
                what: "cell evidence counts cells the array's netlist does not have",
            });
        }
        Ok(())
    }
}

/// The per-cell feature vector behind a [`CellScore`] — the exact
/// inputs the learned attribution model trains on (see DESIGN.md §12
/// for the schema).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellFeatures {
    /// Whitened margin of the cell's nearest sensor tile, normalized to
    /// the hottest tile (`[0, 1]`; 0 when the whole map is cold).
    pub tile_margin: f64,
    /// The cell's toggle rate in the suspect campaign
    /// (toggles / cycle).
    pub activity_rate: f64,
    /// Toggle-rate excess over the baseline campaign
    /// (suspect − baseline; negative when the cell quieted down).
    pub activity_excess: f64,
    /// `exp(−d/σ)` proximity to the anomaly centroid, with σ the tile
    /// pitch (0 when the campaign localized nothing).
    pub centroid_proximity: f64,
}

impl CellFeatures {
    /// Feature dimensionality.
    pub const DIMS: usize = 4;

    /// The features as a model-input row, in declaration order.
    pub fn to_vec(&self) -> Vec<f64> {
        vec![
            self.tile_margin,
            self.activity_rate,
            self.activity_excess,
            self.centroid_proximity,
        ]
    }
}

/// One cell's entry in the attribution ranking.
#[derive(Debug, Clone, PartialEq)]
pub struct CellScore {
    /// The cell in the netlist.
    pub cell: CellId,
    /// Gate kind of the cell.
    pub kind: CellKind,
    /// The cell's module tag; its full path (`"trojan3/trigger"`, …) is
    /// [`Netlist::module_path`].
    pub module: ModuleId,
    /// Top-level placement region the cell belongs to (`"aes"`,
    /// `"trojan1"`, …) — matches the [`RegionScore`] names. One name is
    /// shared by every cell of the region.
    pub region: Arc<str>,
    /// Placed location on the die, in µm.
    pub location_um: (f64, f64),
    /// The feature vector behind the score.
    pub features: CellFeatures,
    /// Suspicion score (higher = more suspect). The default combination
    /// multiplies positive activity excess with spatial weight;
    /// [`Attribution::rescore_cells`] replaces it with a learned
    /// model's probability.
    pub suspicion: f64,
}

/// The array's structured judgement of one suspect campaign: the tile
/// tier (heat map, centroid, alarm), the region tier (ranked
/// [`RegionScore`]s) and — when [`CellEvidence`] was supplied — the
/// cell tier (ranked cells, read as [`CellScore`]s).
///
/// Rankings are stored sorted; metrics are methods on the result.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    heat: Vec<TileScore>,
    centroid_um: Option<(f64, f64)>,
    regions: Vec<RegionScore>,
    cells: Option<CellTier>,
    alarmed: bool,
    consensus: Option<DetectorVerdict>,
}

/// The cell tier of an [`Attribution`]: what a campaign decided about
/// each cell, in id order, and the rank order. A [`CellScore`] is built
/// from it, and from the array's [`CellMap`], only when it is read.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CellTier {
    map: Arc<CellMap>,
    /// Per tile, its whitened margin normalized to the hottest tile.
    tile_weight: Vec<f64>,
    /// Per cell, its suspect toggle rate, rate excess and suspicion.
    scores: Vec<[f64; 3]>,
    /// Cell indices, most suspect first.
    order: Vec<u32>,
}

impl Attribution {
    /// Assembles a result from the already-ranked region tier (regions
    /// nearest-first as the [`Localizer`] emits them), with an empty
    /// cell tier.
    pub(crate) fn from_parts(
        heat: Vec<TileScore>,
        centroid_um: Option<(f64, f64)>,
        regions: Vec<RegionScore>,
        alarmed: bool,
        consensus: Option<DetectorVerdict>,
    ) -> Self {
        Self {
            heat,
            centroid_um,
            regions,
            cells: None,
            alarmed,
            consensus,
        }
    }

    /// Sets the cell tier (as [`score_cells`] returns it).
    pub(crate) fn with_cells(mut self, cells: CellTier) -> Self {
        self.cells = Some(cells);
        self
    }

    /// Per-tile scores, in tile (row-major) order.
    pub fn heat(&self) -> &[TileScore] {
        &self.heat
    }

    /// Score-weighted centroid of the common-mode-removed heat map, in
    /// µm. `None` when no tile carries excess energy (clean campaign).
    pub fn centroid_um(&self) -> Option<(f64, f64)> {
        self.centroid_um
    }

    /// Whether the campaign is judged suspected.
    pub fn alarmed(&self) -> bool {
        self.alarmed
    }

    /// The cross-sensor consensus vote, on reference-free arrays.
    pub fn consensus(&self) -> Option<&DetectorVerdict> {
        self.consensus.as_ref()
    }

    /// Ranked regions, nearest-to-centroid first. Empty when the
    /// campaign is clean.
    pub fn regions(&self) -> impl Iterator<Item = &RegionScore> {
        self.regions.iter()
    }

    /// The ranked region slice (rank order).
    pub fn region_scores(&self) -> &[RegionScore] {
        &self.regions
    }

    /// Ranked cells, most suspect first, each built as it is read (take
    /// the top `k` with `cells().take(k)`). Empty unless the campaign was
    /// attributed with [`CellEvidence`].
    pub fn cells(&self) -> impl Iterator<Item = CellScore> + '_ {
        self.cells.iter().flat_map(move |tier| {
            tier.order
                .iter()
                .map(move |&i| tier.score(i as usize, self.centroid_um))
        })
    }

    /// The arg-max region — the localization's best guess.
    pub fn top_region(&self) -> Option<&str> {
        self.regions.first().map(|r| r.region.as_str())
    }

    /// Zero-based rank of `region` in the localization (0 = best).
    pub fn region_rank(&self, region: &str) -> Option<usize> {
        self.regions.iter().position(|r| r.region == region)
    }

    /// Whether `region` ranks within the top `k` (`hit@k`).
    pub fn hit_at(&self, region: &str, k: usize) -> bool {
        self.region_rank(region).is_some_and(|r| r < k)
    }

    /// Replaces every cell's suspicion with `score(cell)`, called in rank
    /// order, and re-ranks — the hook the learned attribution model plugs
    /// into.
    pub fn rescore_cells(&mut self, mut score: impl FnMut(&CellScore) -> f64) {
        let centroid_um = self.centroid_um;
        let Some(tier) = &mut self.cells else {
            return;
        };
        let suspicion: Vec<(usize, f64)> = tier
            .order
            .iter()
            .map(|&i| (i as usize, score(&tier.score(i as usize, centroid_um))))
            .collect();
        for (i, s) in suspicion {
            tier.scores[i][2] = s;
        }
        tier.order = rank_order(tier.scores.len(), |i| tier.scores[i][2]);
    }

    /// Ranked truth labels: `truth(cell)` per cell, in rank order.
    fn ranked_truth(&self, truth: &mut impl FnMut(&CellScore) -> bool) -> Vec<bool> {
        self.cells().map(|c| truth(&c)).collect()
    }

    /// The suspicion scores, in rank order.
    fn ranked_suspicion(&self) -> Vec<f64> {
        self.cells.as_ref().map_or(Vec::new(), |tier| {
            tier.order
                .iter()
                .map(|&i| tier.scores[i as usize][2])
                .collect()
        })
    }

    /// Precision@k of the cell ranking against a truth predicate.
    pub fn precision_at(&self, k: usize, mut truth: impl FnMut(&CellScore) -> bool) -> f64 {
        precision_at_k(&self.ranked_truth(&mut truth), k)
    }

    /// Recall@k of the cell ranking against a truth predicate.
    pub fn recall_at(&self, k: usize, mut truth: impl FnMut(&CellScore) -> bool) -> f64 {
        recall_at_k(&self.ranked_truth(&mut truth), k)
    }

    /// AUROC of the cell suspicion scores against a truth predicate
    /// (`None` when the truth is single-class).
    pub fn auroc(&self, mut truth: impl FnMut(&CellScore) -> bool) -> Option<f64> {
        let labels = self.ranked_truth(&mut truth);
        auroc(&self.ranked_suspicion(), &labels)
    }

    /// IoU (Jaccard) of the top-`|truth|` cells against the truth set —
    /// the natural operating point where predicted and true set sizes
    /// match.
    pub fn iou(&self, mut truth: impl FnMut(&CellScore) -> bool) -> f64 {
        let labels = self.ranked_truth(&mut truth);
        let k = labels.iter().filter(|&&l| l).count();
        iou_at_k(&labels, k)
    }
}

impl CellTier {
    /// Cell `i`'s entry in the ranking, as [`score_cells`] scored it.
    fn score(&self, i: usize, centroid_um: Option<(f64, f64)>) -> CellScore {
        let site = &self.map.sites[i];
        let [activity_rate, activity_excess, suspicion] = self.scores[i];
        CellScore {
            cell: site.cell,
            kind: site.kind,
            module: site.module,
            region: Arc::clone(&self.map.region_of[site.module.index()]),
            location_um: site.location_um,
            features: CellFeatures {
                tile_margin: self.tile_margin(site),
                activity_rate,
                activity_excess,
                centroid_proximity: self.map.proximity(site, centroid_um),
            },
            suspicion,
        }
    }

    /// The weight of the cell's nearest tile.
    fn tile_margin(&self, site: &Site) -> f64 {
        self.tile_weight
            .get(site.nearest_tile as usize)
            .map_or(0.0, |&w| w)
    }
}

/// The rank order of two `(suspicion, cell index)` pairs: descending
/// suspicion under `total_cmp`, then ascending index.
fn rank_cmp(a: (f64, usize), b: (f64, usize)) -> Ordering {
    b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1))
}

/// Precision@k over ranked truth labels (`ranked_truth[i]` = whether
/// the rank-`i` item is truly positive). The denominator is the
/// *effective* k (`min(k, len)`); 0.0 when `k` is zero or the ranking
/// is empty.
pub fn precision_at_k(ranked_truth: &[bool], k: usize) -> f64 {
    let k = k.min(ranked_truth.len());
    if k == 0 {
        return 0.0;
    }
    let hits = ranked_truth[..k].iter().filter(|&&t| t).count();
    hits as f64 / k as f64
}

/// Recall@k over ranked truth labels: the fraction of true positives
/// ranked within the top `k`. 0.0 when the truth set is empty.
pub fn recall_at_k(ranked_truth: &[bool], k: usize) -> f64 {
    let total = ranked_truth.iter().filter(|&&t| t).count();
    if total == 0 {
        return 0.0;
    }
    let k = k.min(ranked_truth.len());
    let hits = ranked_truth[..k].iter().filter(|&&t| t).count();
    hits as f64 / total as f64
}

/// IoU (Jaccard index) of the top-`k` set against the truth set over
/// ranked truth labels. 0.0 when both sets are empty.
pub fn iou_at_k(ranked_truth: &[bool], k: usize) -> f64 {
    let total = ranked_truth.iter().filter(|&&t| t).count();
    let k = k.min(ranked_truth.len());
    let hits = ranked_truth[..k].iter().filter(|&&t| t).count();
    let union = total + k - hits;
    if union == 0 {
        return 0.0;
    }
    hits as f64 / union as f64
}

/// AUROC via the rank-sum (Mann–Whitney) estimator with average ranks
/// for ties — exactly the probability a random positive outscores a
/// random negative, ties counted half.
///
/// `None` when the slices mismatch, are empty, or the truth is
/// single-class (the metric is undefined there, not zero).
pub fn auroc(scores: &[f64], truth: &[bool]) -> Option<f64> {
    if scores.len() != truth.len() || scores.is_empty() {
        return None;
    }
    if scores.iter().any(|s| !s.is_finite()) {
        return None;
    }
    let n_pos = truth.iter().filter(|&&t| t).count();
    let n_neg = truth.len() - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return None;
    }
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
    // Average 1-based ranks within tie groups, accumulating the
    // positives' rank sum.
    let mut rank_sum_pos = 0.0;
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && scores[order[j + 1]] == scores[order[i]] {
            j += 1;
        }
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for &idx in &order[i..=j] {
            if truth[idx] {
                rank_sum_pos += avg_rank;
            }
        }
        i = j + 1;
    }
    let n_pos_f = n_pos as f64;
    Some((rank_sum_pos - n_pos_f * (n_pos_f + 1.0) / 2.0) / (n_pos_f * n_neg as f64))
}

/// What the cell tier reads of an array's design that no campaign
/// changes, kept once per array and shared with every [`Attribution`]
/// that ranks cells: the tile centres, each placed cell's id, kind,
/// module, location and nearest tile, each module's placement region and
/// the tile pitch.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CellMap {
    /// Tile centres on the die, in µm, in tile order.
    tile_centers: Vec<(f64, f64)>,
    /// Per cell, in id order.
    sites: Vec<Site>,
    /// Per module, its top-level placement region, one shared name per
    /// region.
    region_of: Vec<Arc<str>>,
    /// Proximity length scale: the mean nearest-neighbour tile pitch
    /// (a single-tile array has no pitch; proximity saturates at 1).
    pitch: Option<f64>,
    /// Whether every cell location is finite.
    finite_sites: bool,
}

/// A placed cell, as the cell tier reads it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Site {
    cell: CellId,
    kind: CellKind,
    module: ModuleId,
    location_um: (f64, f64),
    /// The index of its nearest tile centre.
    nearest_tile: u32,
}

impl CellMap {
    /// Maps every placed cell of `netlist` onto the tiles centred at
    /// `tile_centers`.
    ///
    /// # Errors
    ///
    /// [`TrustError::InvalidParameter`] when the floorplan does not cover
    /// the netlist or there is no tile.
    pub(crate) fn new(
        netlist: &Netlist,
        floorplan: &Floorplan,
        tile_centers: Vec<(f64, f64)>,
    ) -> Result<Self, TrustError> {
        let locations = floorplan.locations();
        if locations.len() != netlist.cell_count() {
            return Err(TrustError::InvalidParameter {
                what: "floorplan does not cover the netlist",
            });
        }
        let sites: Vec<Site> = netlist
            .cells()
            .zip(locations)
            .map(|((cell, c), loc)| {
                let nearest_tile = nearest_index(&tile_centers, (loc.x, loc.y))
                    .and_then(|t| u32::try_from(t).ok())
                    .ok_or(TrustError::InvalidParameter {
                        what: "a cell map needs at least one tile",
                    })?;
                Ok(Site {
                    cell,
                    kind: c.kind(),
                    module: c.module(),
                    location_um: (loc.x, loc.y),
                    nearest_tile,
                })
            })
            .collect::<Result<_, TrustError>>()?;
        let mut names: Vec<Arc<str>> = Vec::new();
        let region_of = netlist
            .module_paths()
            .map(|(_, path)| {
                let tag = match path.split('/').next() {
                    Some(tag) if !tag.is_empty() => tag,
                    _ => "aes",
                };
                match names.iter().find(|n| &***n == tag) {
                    Some(name) => Arc::clone(name),
                    None => {
                        names.push(Arc::from(tag));
                        Arc::clone(&names[names.len() - 1])
                    }
                }
            })
            .collect();
        Ok(Self {
            pitch: mean_nearest_distance(&tile_centers),
            finite_sites: sites
                .iter()
                .all(|s| s.location_um.0.is_finite() && s.location_um.1.is_finite()),
            tile_centers,
            sites,
            region_of,
        })
    }

    /// Tile centres on the die, in µm, in tile order.
    pub(crate) fn tile_centers(&self) -> &[(f64, f64)] {
        &self.tile_centers
    }

    /// `exp(−d/σ)` of the cell's distance `d` to the anomaly centroid,
    /// with σ the pitch (1 without a pitch, 0 without a centroid).
    fn proximity(&self, site: &Site, centroid_um: Option<(f64, f64)>) -> f64 {
        let (x, y) = site.location_um;
        match (centroid_um, self.pitch) {
            (Some((cx, cy)), Some(p)) if p > 0.0 => {
                let d = ((x - cx).powi(2) + (y - cy).powi(2)).sqrt();
                (-d / p).exp()
            }
            (Some(_), _) => 1.0,
            (None, _) => 0.0,
        }
    }
}

/// Scores every placed cell of `map` from the tile heat map and the
/// toggle evidence (checked by [`CellEvidence::validate_for`]) and ranks
/// them, in one pass over the cells. Only the cells whose suspicion is
/// not `+0.0` are sorted ([`rank_order`]), and no [`CellScore`] is built.
pub(crate) fn score_cells(
    map: &Arc<CellMap>,
    heat: &[TileScore],
    centroid_um: Option<(f64, f64)>,
    evidence: &CellEvidence<'_>,
) -> CellTier {
    // Whitened tile margins, normalized to the hottest tile.
    let margins: Vec<f64> = heat.iter().map(|h| h.margin).collect();
    let whitened = Localizer::whiten(&margins);
    let max_w = whitened.iter().copied().fold(0.0_f64, f64::max);
    let tile_weight: Vec<f64> = whitened
        .iter()
        .map(|&w| if max_w > 0.0 { w / max_w } else { 0.0 })
        .collect();
    let mut tier = CellTier {
        map: Arc::clone(map),
        tile_weight,
        scores: Vec::with_capacity(map.sites.len()),
        order: Vec::new(),
    };
    // Whitened margins are never negative, so with finite weights and
    // locations the spatial term is finite and not negative.
    let finite = map.finite_sites
        && tier.tile_weight.iter().all(|w| w.is_finite())
        && centroid_um.is_none_or(|(x, y)| x.is_finite() && y.is_finite());
    for (i, site) in map.sites.iter().enumerate() {
        let suspect_rate = evidence.suspect.rate_at(i);
        let excess = suspect_rate - evidence.baseline.rate_at(i);
        // Default heuristic: a cell is suspect when it toggles more than
        // its baseline says it should, weighted up when the EM excess
        // points at it. The floor keeps pure activity evidence alive on
        // a cold map (and vice versa the spatial term never resurrects a
        // cell with zero excess — a supply-wide leak moves no toggles).
        let suspicion = suspicion(excess, finite, || {
            0.5 * tier.tile_margin(site) + 0.5 * map.proximity(site, centroid_um)
        });
        tier.scores.push([suspect_rate, excess, suspicion]);
    }
    tier.order = rank_order(tier.scores.len(), |i| tier.scores[i][2]);
    tier
}

/// The default suspicion `max(excess, 0) · (0.25 + spatial)`. When the
/// spatial term is known to be finite and not negative, a zero weight
/// times `0.25 + spatial` is that same signed zero, so `spatial` (and its
/// `exp`) is only worked out for a positive excess.
fn suspicion(excess: f64, spatial_finite: bool, spatial: impl FnOnce() -> f64) -> f64 {
    let weight = excess.max(0.0);
    if weight > 0.0 || !spatial_finite {
        weight * (0.25 + spatial())
    } else {
        weight
    }
}

/// The indices `0..n` in rank order ([`rank_cmp`]) of `suspicion(i)`.
/// Only the cells above and below `+0.0` are sorted: in that order every
/// cell that is exactly `+0.0` sits between the two groups, in id order,
/// since the id is the tie-break and `total_cmp` puts `-0.0` below
/// `+0.0`.
fn rank_order(n: usize, suspicion: impl Fn(usize) -> f64) -> Vec<u32> {
    let sign = |i: usize| suspicion(i).total_cmp(&0.0);
    let by_rank = |&a: &u32, &b: &u32| {
        let (a, b) = (a as usize, b as usize);
        rank_cmp((suspicion(a), a), (suspicion(b), b))
    };
    let mut order = Vec::with_capacity(n);
    let mut below = Vec::new();
    for i in 0..n {
        match sign(i) {
            Ordering::Greater => order.push(i as u32),
            Ordering::Less => below.push(i as u32),
            Ordering::Equal => {}
        }
    }
    order.sort_unstable_by(by_rank);
    order.extend((0..n).filter(|&i| sign(i).is_eq()).map(|i| i as u32));
    below.sort_unstable_by(by_rank);
    order.extend(below);
    order
}

/// Index of the nearest point to `p` (`None` on an empty set).
fn nearest_index(points: &[(f64, f64)], p: (f64, f64)) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, c) in points.iter().enumerate() {
        let d2 = (c.0 - p.0).powi(2) + (c.1 - p.1).powi(2);
        if best.is_none_or(|(_, b)| d2 < b) {
            best = Some((i, d2));
        }
    }
    best.map(|(i, _)| i)
}

/// Mean nearest-neighbour distance (`None` below two points).
fn mean_nearest_distance(points: &[(f64, f64)]) -> Option<f64> {
    if points.len() < 2 {
        return None;
    }
    let mut sum = 0.0;
    for (i, a) in points.iter().enumerate() {
        let mut best = f64::INFINITY;
        for (j, b) in points.iter().enumerate() {
            if i != j {
                let d = ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt();
                best = best.min(d);
            }
        }
        sum += best;
    }
    Some(sum / points.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::SensorArray;
    use emtrust_trojan::digital::ALL_DIGITAL_TROJANS;
    use emtrust_trojan::{ProtectedChip, TrojanKind};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const KEY: [u8; 16] = *b"sixteen byte key";

    /// Descending suspicion, with the cell id as a total tie-break so the
    /// ranking is deterministic: the full sort the cell tier once ran.
    fn sort_cells(cells: &mut [CellScore]) {
        cells
            .sort_by(|a, b| rank_cmp((a.suspicion, a.cell.index()), (b.suspicion, b.cell.index())));
    }

    /// The cell tier as it was scored before [`CellMap`]: every cell in
    /// id order with its nearest tile, region and the pitch worked out
    /// anew, then the whole list sorted by [`sort_cells`].
    fn reference_cells(
        netlist: &Netlist,
        floorplan: &Floorplan,
        tile_centers: &[(f64, f64)],
        heat: &[TileScore],
        centroid_um: Option<(f64, f64)>,
        evidence: &CellEvidence<'_>,
    ) -> Vec<CellScore> {
        let locations = floorplan.locations();
        let margins: Vec<f64> = heat.iter().map(|h| h.margin).collect();
        let whitened = Localizer::whiten(&margins);
        let max_w = whitened.iter().copied().fold(0.0_f64, f64::max);
        let tile_weight: Vec<f64> = whitened
            .iter()
            .map(|&w| if max_w > 0.0 { w / max_w } else { 0.0 })
            .collect();
        let pitch = mean_nearest_distance(tile_centers);
        let mut names: Vec<Arc<str>> = Vec::new();
        let region_of: Vec<Arc<str>> = netlist
            .module_paths()
            .map(|(_, path)| {
                let tag = match path.split('/').next() {
                    Some(tag) if !tag.is_empty() => tag,
                    _ => "aes",
                };
                match names.iter().find(|n| &***n == tag) {
                    Some(name) => Arc::clone(name),
                    None => {
                        names.push(Arc::from(tag));
                        Arc::clone(&names[names.len() - 1])
                    }
                }
            })
            .collect();
        let mut cells = Vec::with_capacity(netlist.cell_count());
        for (id, cell) in netlist.cells() {
            let loc = locations[id.index()];
            let tile = nearest_index(tile_centers, (loc.x, loc.y));
            let suspect_rate = evidence.suspect.rate_at(id.index());
            let excess = suspect_rate - evidence.baseline.rate_at(id.index());
            let proximity = match (centroid_um, pitch) {
                (Some((cx, cy)), Some(p)) if p > 0.0 => {
                    let d = ((loc.x - cx).powi(2) + (loc.y - cy).powi(2)).sqrt();
                    (-d / p).exp()
                }
                (Some(_), _) => 1.0,
                (None, _) => 0.0,
            };
            let features = CellFeatures {
                tile_margin: tile.map_or(0.0, |t| tile_weight[t]),
                activity_rate: suspect_rate,
                activity_excess: excess,
                centroid_proximity: proximity,
            };
            let spatial = 0.5 * features.tile_margin + 0.5 * features.centroid_proximity;
            let suspicion = excess.max(0.0) * (0.25 + spatial);
            cells.push(CellScore {
                cell: id,
                kind: cell.kind(),
                module: cell.module(),
                region: Arc::clone(&region_of[cell.module().index()]),
                location_um: (loc.x, loc.y),
                features,
                suspicion,
            });
        }
        sort_cells(&mut cells);
        cells
    }

    /// A cell score with every float as its bits.
    fn bits(c: &CellScore) -> (CellId, CellKind, ModuleId, &str, [u64; 7]) {
        let f = &c.features;
        (
            c.cell,
            c.kind,
            c.module,
            &c.region,
            [
                c.location_um.0,
                c.location_um.1,
                f.tile_margin,
                f.activity_rate,
                f.activity_excess,
                f.centroid_proximity,
                c.suspicion,
            ]
            .map(f64::to_bits),
        )
    }

    /// Asserts two rankings hold the same cells, bit for bit, in the
    /// same order.
    fn assert_same_ranking(got: &[CellScore], want: &[CellScore], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (rank, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(bits(g), bits(w), "{what}: rank {rank}");
        }
    }

    /// Asserts `got`'s cell tier equals the oracle's `want`, read whole
    /// and as the top `k` for `k` up to past the end; then that rescoring
    /// both with a score that counts its calls ranks alike.
    fn assert_matches_the_oracle(mut got: Attribution, mut want: Vec<CellScore>, what: &str) {
        let cells: Vec<CellScore> = got.cells().collect();
        assert_same_ranking(&cells, &want, what);
        for k in [0, 1, 10, want.len(), want.len() + 7] {
            let top: Vec<CellScore> = got.cells().take(k).collect();
            assert_same_ranking(
                &top,
                &want[..k.min(want.len())],
                &format!("{what}, top {k}"),
            );
        }
        // Ties, signed zeros and negatives, called in rank order.
        let rescore = || {
            let mut calls = 0u32;
            move |c: &CellScore| {
                calls += 1;
                match calls % 4 {
                    0 => -0.0,
                    1 => 0.0,
                    2 => c.features.activity_excess - 0.5 * c.features.tile_margin,
                    _ => c.features.centroid_proximity,
                }
            }
        };
        got.rescore_cells(rescore());
        let mut score = rescore();
        for c in &mut want {
            c.suspicion = score(c);
        }
        sort_cells(&mut want);
        let cells: Vec<CellScore> = got.cells().collect();
        assert_same_ranking(&cells, &want, &format!("{what}, rescored"));
        let truth = |c: &CellScore| c.suspicion > 0.0;
        let labels: Vec<bool> = want.iter().map(truth).collect();
        let scores: Vec<f64> = want.iter().map(|c| c.suspicion).collect();
        let auroc = got.auroc(truth).map(f64::to_bits);
        assert_eq!(
            auroc,
            super::auroc(&scores, &labels).map(f64::to_bits),
            "{what}"
        );
    }

    #[test]
    fn cell_tier_matches_the_full_sort_on_armed_and_clean_campaigns() -> Result<(), TrustError> {
        let chip = ProtectedChip::with_all_trojans();
        let mut array = SensorArray::builder(&chip)
            .with_grid(2, 2)?
            .with_turns(8)?
            .build()?;
        let centers: Vec<(f64, f64)> = array
            .em_array()
            .tiles()
            .iter()
            .map(|t| (t.center().x, t.center().y))
            .collect();
        let (golden, golden_activity) = array.collect_with_activity(KEY, 4, None, 42)?;
        array.fit_golden(&golden)?;
        let mut campaigns = vec![("clean", array.collect_with_activity(KEY, 4, None, 43)?)];
        for kind in ALL_DIGITAL_TROJANS {
            campaigns.push((
                kind.label(),
                array.collect_with_activity(KEY, 4, Some(kind), 42)?,
            ));
        }
        for (what, (suspects, activity)) in &campaigns {
            let evidence = CellEvidence {
                baseline: &golden_activity,
                suspect: activity,
            };
            let got = array.attribute(suspects, Some(&evidence))?;
            if *what == "clean" {
                assert!(
                    got.centroid_um().is_none(),
                    "a clean campaign has no centroid"
                );
            } else {
                assert!(got.centroid_um().is_some(), "{what} localizes");
            }
            assert!(got.cells().any(|c| c.suspicion > 0.0), "{what}");
            let want = reference_cells(
                chip.netlist(),
                array.floorplan(),
                &centers,
                got.heat(),
                got.centroid_um(),
                &evidence,
            );
            assert_matches_the_oracle(got, want, what);
        }
        Ok(())
    }

    #[test]
    fn cell_tier_matches_the_full_sort_without_pitch_or_heat() -> Result<(), TrustError> {
        let chip = ProtectedChip::with_all_trojans();
        let array = SensorArray::builder(&chip).with_grid(1, 1)?.build()?;
        let (_, baseline) = array.collect_with_activity(KEY, 2, None, 5)?;
        let (_, suspect) =
            array.collect_with_activity(KEY, 2, Some(TrojanKind::T3CdmaLeaker), 5)?;
        let evidence = CellEvidence {
            baseline: &baseline,
            suspect: &suspect,
        };
        let tile = |center_um: (f64, f64), margin: f64| TileScore {
            row: 0,
            col: 0,
            center_um,
            margin,
            alarm_rate: 0.0,
        };
        let one = vec![(150.0, 220.0)];
        let four = vec![
            (100.0, 100.0),
            (300.0, 100.0),
            (100.0, 300.0),
            (300.0, 300.0),
        ];
        let hot: Vec<TileScore> = four
            .iter()
            .zip([0.1, 0.3, 0.2, 2.5])
            .map(|(&c, m)| tile(c, m))
            .collect();
        let cold: Vec<TileScore> = four.iter().map(|&c| tile(c, 0.4)).collect();
        let cases = [
            // One tile has no pitch: proximity saturates at 1.
            (
                "1x1 with a centroid",
                &one,
                vec![tile(one[0], 0.9)],
                Some((120.0, 80.0)),
            ),
            (
                "1x1 without a centroid",
                &one,
                vec![tile(one[0], 0.9)],
                None,
            ),
            ("a hot 2x2 map", &four, hot, Some((280.0, 290.0))),
            // A cold map weighs every tile 0.
            ("a cold 2x2 map", &four, cold.clone(), Some((200.0, 200.0))),
            ("a cold 2x2 map without a centroid", &four, cold, None),
        ];
        for (what, centers, heat, centroid) in cases {
            let map = Arc::new(CellMap::new(
                chip.netlist(),
                array.floorplan(),
                centers.clone(),
            )?);
            let tier = score_cells(&map, &heat, centroid, &evidence);
            let want = reference_cells(
                chip.netlist(),
                array.floorplan(),
                centers,
                &heat,
                centroid,
                &evidence,
            );
            let got = Attribution::from_parts(heat, centroid, Vec::new(), false, None);
            assert_eq!(got.centroid_um(), centroid, "{what}");
            let got = got.with_cells(tier);
            assert!(got.cells().any(|c| c.suspicion > 0.0), "{what}");
            assert_matches_the_oracle(got, want, what);
        }
        Ok(())
    }

    #[test]
    fn suspicion_skips_the_spatial_term_only_where_it_cannot_matter() {
        let excesses = [-0.0, 0.0, -1.0, 1e-300, -1e-300, 2.5, f64::NEG_INFINITY];
        for excess in excesses {
            for spatial in [0.0, -0.0, 0.3, 1.0] {
                let want = excess.max(0.0) * (0.25 + spatial);
                let got = suspicion(excess, true, || spatial);
                assert_eq!(got.to_bits(), want.to_bits(), "{excess:?}, {spatial:?}");
            }
            // A spatial term that is not finite is always worked out.
            for spatial in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let want = excess.max(0.0) * (0.25 + spatial);
                let got = suspicion(excess, false, || spatial);
                assert_eq!(got.to_bits(), want.to_bits(), "{excess:?}, {spatial:?}");
            }
        }
        let mut called = false;
        let _ = suspicion(-0.0, true, || {
            called = true;
            0.5
        });
        assert!(!called, "a zero weight needs no spatial term");
    }

    #[test]
    fn rank_order_matches_sort_cells() {
        let chip = ProtectedChip::golden();
        let netlist = chip.netlist();
        let ranked = |suspicion: &[f64]| -> (Vec<usize>, Vec<usize>) {
            let mut cells: Vec<CellScore> = suspicion
                .iter()
                .zip(netlist.cells())
                .map(|(&s, (id, cell))| CellScore {
                    cell: id,
                    kind: cell.kind(),
                    module: cell.module(),
                    region: Arc::from("aes"),
                    location_um: (0.0, 0.0),
                    features: CellFeatures {
                        tile_margin: 0.0,
                        activity_rate: 0.0,
                        activity_excess: 0.0,
                        centroid_proximity: 0.0,
                    },
                    suspicion: s,
                })
                .collect();
            sort_cells(&mut cells);
            let want = cells.iter().map(|c| c.cell.index()).collect();
            let got = rank_order(suspicion.len(), |i| suspicion[i]);
            (got.into_iter().map(|i| i as usize).collect(), want)
        };
        let nan = f64::NAN;
        // A -0.0 before a +0.0, ties, both NaN signs and both infinities.
        let fixed = [
            -0.0,
            0.0,
            1.5,
            -2.0,
            0.0,
            nan,
            -nan,
            1.5,
            -0.0,
            f64::INFINITY,
            0.0,
            -2.0,
            f64::NEG_INFINITY,
            1e-300,
            -1e-300,
            0.0,
        ];
        let (got, want) = ranked(&fixed);
        assert_eq!(got, want);
        let palette = [0.0, -0.0, 0.0, 0.0, 1.0, -1.0, 0.25, nan, -nan, 3.0, -0.5];
        let mut rng = StdRng::seed_from_u64(9);
        for len in [0, 1, 2, 7, 64, 300] {
            let suspicion: Vec<f64> = (0..len)
                .map(|_| palette[rng.gen_range(0..palette.len())])
                .collect();
            let (got, want) = ranked(&suspicion);
            assert_eq!(got, want, "{suspicion:?}");
        }
    }

    #[test]
    fn precision_and_recall_at_k() {
        let ranked = [true, false, true, false, false, true];
        assert!((precision_at_k(&ranked, 1) - 1.0).abs() < 1e-12);
        assert!((precision_at_k(&ranked, 2) - 0.5).abs() < 1e-12);
        assert!((precision_at_k(&ranked, 3) - 2.0 / 3.0).abs() < 1e-12);
        // k past the end clamps to the effective length.
        assert!((precision_at_k(&ranked, 100) - 0.5).abs() < 1e-12);
        assert_eq!(precision_at_k(&ranked, 0), 0.0);
        assert_eq!(precision_at_k(&[], 5), 0.0);

        assert!((recall_at_k(&ranked, 1) - 1.0 / 3.0).abs() < 1e-12);
        assert!((recall_at_k(&ranked, 3) - 2.0 / 3.0).abs() < 1e-12);
        assert!((recall_at_k(&ranked, 6) - 1.0).abs() < 1e-12);
        assert_eq!(recall_at_k(&[false, false], 2), 0.0);
    }

    #[test]
    fn iou_matches_hand_computation() {
        let ranked = [true, false, true, false, false, true];
        // top-3 = {0,1,2}, truth = {0,2,5}: ∩ = 2, ∪ = 4.
        assert!((iou_at_k(&ranked, 3) - 0.5).abs() < 1e-12);
        // Perfect top-k.
        assert!((iou_at_k(&[true, true, false], 2) - 1.0).abs() < 1e-12);
        assert_eq!(iou_at_k(&[], 0), 0.0);
        assert_eq!(iou_at_k(&[false], 0), 0.0);
    }

    #[test]
    fn auroc_handles_separation_ties_and_degeneracy() {
        // Perfect separation.
        let s = [0.9, 0.8, 0.2, 0.1];
        let t = [true, true, false, false];
        assert!((auroc(&s, &t).unwrap() - 1.0).abs() < 1e-12);
        // Perfectly wrong.
        let t_inv = [false, false, true, true];
        assert!((auroc(&s, &t_inv).unwrap() - 0.0).abs() < 1e-12);
        // All tied: chance.
        assert!((auroc(&[0.5; 4], &t).unwrap() - 0.5).abs() < 1e-12);
        // One positive mid-pack: AUROC = fraction of negatives below.
        let s2 = [0.1, 0.4, 0.3, 0.9];
        let t2 = [false, true, false, false];
        assert!((auroc(&s2, &t2).unwrap() - 2.0 / 3.0).abs() < 1e-12);
        // Degenerate inputs.
        assert!(auroc(&[], &[]).is_none());
        assert!(auroc(&[1.0], &[true]).is_none());
        assert!(auroc(&[1.0, 2.0], &[true]).is_none());
        assert!(auroc(&[f64::NAN, 2.0], &[true, false]).is_none());
    }

    #[test]
    fn geometry_helpers() {
        assert_eq!(nearest_index(&[], (0.0, 0.0)), None);
        let pts = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)];
        assert_eq!(nearest_index(&pts, (1.0, 1.0)), Some(0));
        assert_eq!(nearest_index(&pts, (9.0, 1.0)), Some(1));
        assert_eq!(mean_nearest_distance(&pts[..1]), None);
        let p = mean_nearest_distance(&pts).unwrap();
        assert!((p - 10.0).abs() < 1e-12);
    }
}
