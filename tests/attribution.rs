//! Cell-level attribution: end-to-end on the placed chip, and
//! bit-identity of the scores — and of the learned re-ranking — across
//! runs and worker counts.

use emtrust::array::SensorArray;
use emtrust::attribution::{Attribution, CellEvidence};
use emtrust::fingerprint::FingerprintConfig;
use emtrust::learned::{LogisticModel, TrainSpec};
use emtrust::ParallelConfig;
use emtrust_trojan::{ProtectedChip, TrojanKind};

const KEY: [u8; 16] = *b"sixteen byte key";
const KIND: TrojanKind = TrojanKind::T4PowerDegrader;

/// Runs the full campaign — golden with activity, fit, armed suspect
/// with activity, attribute — on a fresh array with the given
/// parallelism.
fn attributed_campaign(parallel: ParallelConfig) -> Attribution {
    let chip = ProtectedChip::with_all_trojans();
    let mut array = SensorArray::builder(&chip)
        .with_grid(4, 2)
        .unwrap()
        .with_turns(8)
        .unwrap()
        .with_fingerprint(FingerprintConfig {
            pca_components: None,
            ..FingerprintConfig::default()
        })
        .with_parallel(parallel)
        .build()
        .unwrap();
    let (golden, golden_activity) = array.collect_with_activity(KEY, 12, None, 42).unwrap();
    array.fit_golden(&golden).unwrap();
    // Suspect campaign reuses the golden seed so the per-cell toggle
    // excess is purely the armed Trojan's switching.
    let (suspects, activity) = array.collect_with_activity(KEY, 8, Some(KIND), 42).unwrap();
    let evidence = CellEvidence {
        baseline: &golden_activity,
        suspect: &activity,
    };
    array.attribute(&suspects, Some(&evidence)).unwrap()
}

#[test]
fn armed_trojan_attributes_to_its_own_cells() {
    let chip = ProtectedChip::with_all_trojans();
    let cell_count = chip.netlist().cell_count();
    let attribution = attributed_campaign(ParallelConfig::default());

    assert!(attribution.alarmed(), "armed Trojan must alarm");
    assert!(attribution.hit_at(KIND.module_tag(), 3));

    // One score per placed cell, ranked by descending suspicion.
    let cells: Vec<_> = attribution.cells().collect();
    assert_eq!(cells.len(), cell_count);
    assert!(cells
        .windows(2)
        .all(|w| w[0].suspicion >= w[1].suspicion || w[1].suspicion.is_nan()));

    // The top of the ranking is the armed Trojan's own placement.
    let tag = KIND.module_tag();
    assert!(
        attribution.cells().take(10).all(|c| &*c.region == tag),
        "top-10 cells must sit in {tag}"
    );
    let truth = |c: &emtrust::attribution::CellScore| &*c.region == tag;
    assert!((attribution.precision_at(10, truth) - 1.0).abs() < 1e-12);
    let auroc = attribution.auroc(truth).unwrap();
    assert!(auroc > 0.9, "AUROC {auroc} too low");
}

#[test]
fn attribution_and_learned_reranking_are_bit_identical_across_worker_counts() {
    let serial = attributed_campaign(ParallelConfig::serial());
    let fanned = attributed_campaign(ParallelConfig::default().with_workers(4));

    // Raw attribution: same cells, same features, same suspicion — bit
    // for bit, regardless of the measurement fan-out.
    let (a, b): (Vec<_>, Vec<_>) = (serial.cells().collect(), fanned.cells().collect());
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.cell, y.cell);
        assert_eq!(x.features.to_vec(), y.features.to_vec());
        assert_eq!(x.suspicion.to_bits(), y.suspicion.to_bits());
    }

    // Learned re-ranking: training is seeded, full-batch and
    // fixed-order, so the model — and the ranking it induces — must be
    // bit-identical too.
    let spec = TrainSpec {
        balance: true,
        ..TrainSpec::default()
    };
    let tag = KIND.module_tag();
    let train = |att: &Attribution| {
        let rows: Vec<Vec<f64>> = att.cells().map(|c| c.features.to_vec()).collect();
        let labels: Vec<bool> = att.cells().map(|c| &*c.region == tag).collect();
        LogisticModel::train(&rows, &labels, spec).unwrap()
    };
    let (ma, mb) = (train(&serial), train(&fanned));
    assert_eq!(ma.bias().to_bits(), mb.bias().to_bits());
    for (wa, wb) in ma.weights().iter().zip(mb.weights()) {
        assert_eq!(wa.to_bits(), wb.to_bits());
    }

    let mut ra = serial.clone();
    let mut rb = fanned.clone();
    ra.rescore_cells(|c| ma.predict(&c.features.to_vec()).unwrap_or(0.0));
    rb.rescore_cells(|c| mb.predict(&c.features.to_vec()).unwrap_or(0.0));
    for (x, y) in ra.cells().zip(rb.cells()) {
        assert_eq!(x.cell, y.cell);
        assert_eq!(x.suspicion.to_bits(), y.suspicion.to_bits());
    }
}
