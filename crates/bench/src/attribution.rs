//! Leave-one-Trojan-out (LOTO) evaluation of register-level
//! attribution.
//!
//! The scan-chain exemplars score per-register suspicion vectors with
//! Precision@k / Recall@k / AUROC / IoU under a leave-one-design-out
//! protocol, so the classifier is never graded on a Trojan it saw in
//! training. This module is the `emtrust` counterpart over the four
//! paper Trojans:
//!
//! 1. attribute each Trojan's campaign at cell granularity
//!    ([`emtrust::array::SensorArray::attribute`] with
//!    [`CellEvidence`](emtrust::attribution::CellEvidence)), keeping
//!    the raw per-cell feature vectors;
//! 2. for each held-out Trojan, train a
//!    [`LogisticModel`] on the *other three* Trojans' labeled cells
//!    (label = "belongs to that Trojan's placement module") with
//!    class-balanced descent — a Trojan's cells are a sliver of the
//!    die;
//! 3. re-rank the held-out attribution by the model's probability and
//!    score the ranking.
//!
//! Training is seeded and free of randomness (see
//! [`emtrust::learned`]), so every fold — and hence the whole
//! `BENCH_localization.json` attribution section — is bit-identical
//! across runs and worker counts.

use emtrust::attribution::Attribution;
use emtrust::learned::{LogisticModel, TrainSpec};
use emtrust::telemetry::sink::{json_escape, json_number};
use emtrust::TrustError;
use emtrust_netlist::Netlist;
use emtrust_trojan::TrojanKind;

/// Ranking depths reported per fold.
pub const PRECISION_K: usize = 10;
/// The deeper operating point (Precision@k and Recall@k).
pub const RECALL_K: usize = 50;

/// One Trojan's attributed campaign, labeled with its ground truth:
/// a cell is truly Trojan iff its placement region is the armed
/// Trojan's module tag.
#[derive(Debug, Clone)]
pub struct LabeledAttribution {
    /// The armed Trojan.
    pub kind: TrojanKind,
    /// The campaign's cell-level attribution.
    pub attribution: Attribution,
}

impl LabeledAttribution {
    /// The placement-region tag that marks a cell as truly Trojan.
    pub fn truth_tag(&self) -> &'static str {
        self.kind.module_tag()
    }

    /// Number of truly-Trojan cells.
    pub fn true_cells(&self) -> usize {
        let tag = self.truth_tag();
        self.attribution
            .cells()
            .filter(|c| &*c.region == tag)
            .count()
    }

    /// The labeled training rows: one `(features, is_trojan)` pair per
    /// cell.
    fn rows(&self) -> impl Iterator<Item = (Vec<f64>, bool)> + '_ {
        let tag = self.truth_tag();
        self.attribution
            .cells()
            .map(move |c| (c.features.to_vec(), &*c.region == tag))
    }
}

/// Rank metrics of one held-out fold.
#[derive(Debug, Clone)]
pub struct FoldMetrics {
    /// The held-out Trojan the model never trained on.
    pub kind: TrojanKind,
    /// Cells in the held-out attribution.
    pub cells: usize,
    /// Truly-Trojan cells among them.
    pub true_cells: usize,
    /// Precision@[`PRECISION_K`] of the learned ranking.
    pub precision_at_10: f64,
    /// Precision@[`RECALL_K`].
    pub precision_at_50: f64,
    /// Recall@[`RECALL_K`].
    pub recall_at_50: f64,
    /// AUROC of the learned suspicion scores (0 when undefined —
    /// never the case with both classes placed).
    pub auroc: f64,
    /// IoU of the top-`|truth|` cells against the truth set.
    pub iou: f64,
    /// The held-out attribution re-ranked by the fold's model (for
    /// top-k export).
    pub ranked: Attribution,
}

impl FoldMetrics {
    /// The fold as a pre-rendered JSON object for the
    /// `BENCH_localization.json` attribution section.
    pub fn to_json(&self) -> String {
        format!(
            "    {{\"trojan\": \"{:?}\", \"region\": \"{}\", \"cells\": {}, \
             \"true_cells\": {}, \"precision_at_10\": {}, \"precision_at_50\": {}, \
             \"recall_at_50\": {}, \"auroc\": {}, \"iou\": {}}}",
            self.kind,
            json_escape(self.kind.module_tag()),
            self.cells,
            self.true_cells,
            json_number(self.precision_at_10),
            json_number(self.precision_at_50),
            json_number(self.recall_at_50),
            json_number(self.auroc),
            json_number(self.iou),
        )
    }

    /// JSONL records of the fold's top-`k` ranked cells (one object per
    /// line, for `report::write_jsonl`), with module paths resolved in
    /// `netlist`.
    pub fn top_cells_jsonl(&self, netlist: &Netlist, k: usize) -> Vec<String> {
        let tag = self.kind.module_tag();
        self.ranked
            .cells()
            .take(k)
            .enumerate()
            .map(|(rank, c)| {
                format!(
                    "{{\"held_out\": \"{:?}\", \"rank\": {}, \"cell\": {}, \
                     \"kind\": \"{:?}\", \"module\": \"{}\", \"region\": \"{}\", \
                     \"is_trojan\": {}, \"suspicion\": {}, \"x_um\": {}, \"y_um\": {}}}",
                    self.kind,
                    rank + 1,
                    c.cell.index(),
                    c.kind,
                    json_escape(netlist.module_path(c.module)),
                    json_escape(&c.region),
                    &*c.region == tag,
                    json_number(c.suspicion),
                    json_number(c.location_um.0),
                    json_number(c.location_um.1),
                )
            })
            .collect()
    }
}

/// The gradient-descent spec every LOTO fold trains with:
/// class-balanced (positives are rare), defaults otherwise — and, like
/// all [`LogisticModel`] training, fully deterministic.
pub fn loto_train_spec() -> TrainSpec {
    TrainSpec {
        balance: true,
        ..TrainSpec::default()
    }
}

/// Runs the full leave-one-Trojan-out protocol: one fold per labeled
/// attribution, each trained on all the others.
///
/// # Errors
///
/// [`TrustError::InvalidParameter`] below two folds or when a fold's
/// training set degenerates (no cells, single class); forwarded
/// training errors otherwise.
pub fn leave_one_out(folds: &[LabeledAttribution]) -> Result<Vec<FoldMetrics>, TrustError> {
    if folds.len() < 2 {
        return Err(TrustError::InvalidParameter {
            what: "leave-one-out needs at least two labeled attributions",
        });
    }
    let spec = loto_train_spec();
    let mut out = Vec::with_capacity(folds.len());
    for (h, held) in folds.iter().enumerate() {
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for (k, fold) in folds.iter().enumerate() {
            if k == h {
                continue;
            }
            for (row, label) in fold.rows() {
                features.push(row);
                labels.push(label);
            }
        }
        let model = LogisticModel::train(&features, &labels, spec)?;
        let mut ranked = held.attribution.clone();
        ranked.rescore_cells(|c| model.predict(&c.features.to_vec()).unwrap_or(0.0));
        let tag = held.truth_tag();
        let truth = |c: &emtrust::attribution::CellScore| &*c.region == tag;
        out.push(FoldMetrics {
            kind: held.kind,
            cells: ranked.cells().count(),
            true_cells: held.true_cells(),
            precision_at_10: ranked.precision_at(PRECISION_K, truth),
            precision_at_50: ranked.precision_at(RECALL_K, truth),
            recall_at_50: ranked.recall_at(RECALL_K, truth),
            auroc: ranked.auroc(truth).unwrap_or(0.0),
            iou: ranked.iou(truth),
            ranked,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leave_one_out_rejects_degenerate_inputs() {
        assert!(leave_one_out(&[]).is_err());
    }
}
