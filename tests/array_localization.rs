//! Multi-sensor array: coupling-map partition invariants, parity with
//! the single-sensor `TestBench` + `DetectionPipeline` path, and a
//! localization smoke test.

use emtrust::acquisition::TestBench;
use emtrust::array::{Localizer, SensorArray};
use emtrust::fingerprint::{FingerprintConfig, GoldenFingerprint};
use emtrust::telemetry::ForensicsConfig;
use emtrust::{DetectionPipeline, EuclideanDetector, TraceSet};
use emtrust_em::array::EmArray;
use emtrust_em::pipeline::EmPipelineConfig;
use emtrust_layout::floorplan::{Die, Floorplan};
use emtrust_layout::spiral::SpiralSensor;
use emtrust_netlist::library::Library;
use emtrust_power::{ClockConfig, CurrentModel};
use emtrust_silicon::Channel;
use emtrust_trojan::{ProtectedChip, TrojanKind};

const KEY: [u8; 16] = *b"sixteen byte key";

fn placed_chip(chip: &ProtectedChip) -> (Floorplan, CurrentModel) {
    let library = Library::generic_180nm();
    let die = Die::for_netlist(chip.netlist(), &library, 0.7).unwrap();
    let floorplan = Floorplan::place(chip.netlist(), &library, die).unwrap();
    let model = CurrentModel::new(library, ClockConfig::reference());
    (floorplan, model)
}

#[test]
fn one_by_one_tile_weights_equal_the_full_die_coil() {
    let chip = ProtectedChip::golden();
    let (floorplan, model) = placed_chip(&chip);
    let array = EmArray::build(chip.netlist(), &floorplan, model.clone(), 1, 1, 20).unwrap();
    let single = EmPipelineConfig::default()
        .with_model(model)
        .build(chip.netlist(), &floorplan)
        .unwrap();
    assert_eq!(array.tiles()[0].sensor().weights(), single.weights());
}

#[test]
fn partitioned_tile_weights_track_the_full_die_coil() {
    let chip = ProtectedChip::golden();
    let (floorplan, model) = placed_chip(&chip);
    let array = EmArray::build(chip.netlist(), &floorplan, model.clone(), 2, 2, 10).unwrap();
    let single = EmPipelineConfig::default()
        .with_model(model)
        .build(chip.netlist(), &floorplan)
        .unwrap();
    // Coupling weights are signed (the flux reverses outside a
    // winding), so the partition is compared in magnitude: per-cell sum
    // of |coupling| over the tiles against the full-die coil's
    // |coupling|.
    let full: Vec<f64> = single.weights().iter().map(|w| w.abs()).collect();
    let n = full.len();
    let mut summed = vec![0.0; n];
    for tile in array.tiles() {
        for (s, w) in summed.iter_mut().zip(tile.sensor().weights()) {
            *s += w.abs();
        }
    }
    // The sub-coils partition the die. Three invariants follow:
    // overall magnitude of the summed coupling stays within a band of
    // the full coil's (same die, same physics, different winding
    // geometry), every cell the full coil sees is covered by some tile,
    // and each cell couples most strongly to the tile that contains it.
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let ratio = mean(&summed) / mean(&full);
    assert!(
        (0.1..=10.0).contains(&ratio),
        "summed/full magnitude ratio out of band: {ratio}"
    );
    for (i, (&s, &f)) in summed.iter().zip(&full).enumerate() {
        if f > 0.0 {
            assert!(s > 0.0, "cell {i} couples to the full coil but no tile");
        }
    }
    // Locality holds in aggregate (per-cell the kernel zero-crosses
    // throughout the winding band, so pointwise argmax is noise): over
    // the cells placed inside a tile, that tile's own coil must couple
    // more total magnitude than any other tile's coil.
    for (t, tile) in array.tiles().iter().enumerate() {
        let cells: Vec<usize> = floorplan
            .locations()
            .iter()
            .enumerate()
            .filter(|(_, p)| tile.rect().distance_to(**p) == 0.0)
            .map(|(i, _)| i)
            .collect();
        assert!(!cells.is_empty(), "tile {t} holds no cells");
        let coupled = |u: usize| -> f64 {
            let w = array.tiles()[u].sensor().weights();
            cells.iter().map(|&i| w[i].abs()).sum()
        };
        let own = coupled(t);
        for u in 0..array.len() {
            if u != t {
                assert!(
                    own > coupled(u),
                    "tile {t}'s own coil ({own:e}) outcoupled by tile {u}'s \
                     ({:e}) over its cells",
                    coupled(u)
                );
            }
        }
    }
}

#[test]
fn sub_coil_turns_never_double_count_a_die_position() {
    let chip = ProtectedChip::golden();
    let (floorplan, _) = placed_chip(&chip);
    let die = floorplan.die();
    let coils: Vec<SpiralSensor> = die
        .tiles(2, 3)
        .unwrap()
        .into_iter()
        .map(|rect| SpiralSensor::with_turns(Die { core: rect }, 8).unwrap())
        .collect();
    let (w, h) = (die.core.width(), die.core.height());
    for i in 0..40 {
        for j in 0..40 {
            let x = die.core.min.x + w * i as f64 / 39.0;
            let y = die.core.min.y + h * j as f64 / 39.0;
            let enclosing = coils.iter().filter(|c| c.turns_enclosing(x, y) > 0).count();
            assert!(
                enclosing <= 1,
                "({x:.1}, {y:.1}) um enclosed by {enclosing} sub-coils"
            );
        }
    }
}

#[test]
fn one_by_one_array_is_bit_identical_to_the_legacy_single_sensor_path() {
    let chip = ProtectedChip::with_trojans(&[TrojanKind::T4PowerDegrader]);
    let bench = TestBench::simulation(&chip).unwrap();
    let mut array = SensorArray::builder(&chip)
        .with_grid(1, 1)
        .unwrap()
        .with_turns(20)
        .unwrap()
        .build()
        .unwrap();

    // Same campaign seeds on both paths: the raw traces must agree bit
    // for bit — golden, clean suspects, and Trojan-armed suspects alike.
    let legacy_golden = bench
        .collect(KEY, 12, None, Channel::OnChipSensor, 42)
        .unwrap();
    let array_golden = array.collect(KEY, 12, None, 42).unwrap();
    assert_eq!(array_golden.len(), 1);
    assert_eq!(legacy_golden.traces(), array_golden[0].traces());

    let armed = Some(TrojanKind::T4PowerDegrader);
    let legacy_bad = bench
        .collect(KEY, 8, armed, Channel::OnChipSensor, 44)
        .unwrap();
    let array_bad = array.collect(KEY, 8, armed, 44).unwrap();
    assert_eq!(legacy_bad.traces(), array_bad[0].traces());

    // And the verdicts must agree alarm for alarm with a single-sensor
    // pipeline driven by the same fingerprint configuration.
    let fp = GoldenFingerprint::fit(&legacy_golden, FingerprintConfig::default()).unwrap();
    let mut monitor = DetectionPipeline::builder()
        .detector(Box::new(EuclideanDetector::new(fp)))
        .build();
    let legacy_alarms = monitor.ingest_batch(legacy_bad.traces()).alarms.len();
    array.fit_golden(&array_golden).unwrap();
    let verdict = array.attribute(&array_bad, None).unwrap();
    assert_eq!(verdict.heat().len(), 1);
    let array_alarms = (verdict.heat()[0].alarm_rate * 8.0).round() as usize;
    assert_eq!(array_alarms, legacy_alarms);
    assert_eq!(verdict.alarmed(), legacy_alarms > 0);
    assert!((monitor.alarm_rate() - verdict.heat()[0].alarm_rate).abs() < 1e-12);
}

#[test]
fn localizer_is_undefined_on_a_flat_heat_map_and_array_stays_quiet_when_clean() {
    let chip = ProtectedChip::with_all_trojans();
    let mut array = SensorArray::builder(&chip)
        .with_grid(2, 2)
        .unwrap()
        .with_turns(8)
        .unwrap()
        .build()
        .unwrap();
    let golden = array.collect(KEY, 12, None, 42).unwrap();
    array.fit_golden(&golden).unwrap();
    // Same seed, no Trojan armed: the suspect campaign replays the
    // golden one, so no tile may alarm and no excess may localize.
    let clean = array.collect(KEY, 8, None, 42).unwrap();
    let verdict = array.attribute(&clean, None).unwrap();
    assert!(!verdict.alarmed());
    assert!(verdict.centroid_um().is_none());
    assert!(verdict.region_scores().is_empty());
    assert_eq!(verdict.top_region(), None);
    // The localizer itself says "no location" for an all-equal map.
    assert!(Localizer::new(vec![(0.0, 0.0); 4])
        .centroid(&[1.0; 4])
        .is_none());
}

#[test]
fn wrong_length_tile_set_fails_the_campaign_without_an_alarm() {
    let chip = ProtectedChip::golden();
    let mut array = SensorArray::builder(&chip)
        .with_grid(2, 1)
        .unwrap()
        .with_turns(8)
        .unwrap()
        .with_forensics(ForensicsConfig::default())
        .build()
        .unwrap();
    let golden = array.collect(KEY, 12, None, 42).unwrap();
    array.fit_golden(&golden).unwrap();
    // Tile 0's traces are cut short: its pipeline cannot score them.
    let mut sets = array.collect(KEY, 4, None, 43).unwrap();
    let short: Vec<Vec<f64>> = sets[0].traces().iter().map(|t| t[..100].to_vec()).collect();
    sets[0] = TraceSet::new(short, sets[0].sample_rate_hz()).unwrap();
    assert!(array.calibrate(&sets).is_err());
    assert!(array.attribute(&sets, None).is_err());
    assert_eq!(array.campaigns(), 0);
    assert!(array.decisions().is_empty());
    assert!(array.pipelines().iter().all(|p| p.alarms().is_empty()));
}

#[test]
fn armed_trojan_localizes_to_its_placement_region() {
    let chip = ProtectedChip::with_all_trojans();
    let mut array = SensorArray::builder(&chip)
        .with_grid(4, 2)
        .unwrap()
        .with_turns(8)
        .unwrap()
        .build()
        .unwrap();
    let golden = array.collect(KEY, 16, None, 42).unwrap();
    array.fit_golden(&golden).unwrap();
    let kind = TrojanKind::T4PowerDegrader;
    let suspects = array.collect(KEY, 8, Some(kind), 44).unwrap();
    let verdict = array.attribute(&suspects, None).unwrap();
    assert!(verdict.alarmed(), "armed Trojan must raise tile alarms");
    let (cx, cy) = verdict.centroid_um().expect("excess energy must localize");
    let die = array.floorplan().die();
    assert!(die
        .core
        .contains(emtrust_layout::geometry::Point::new(cx, cy)));
    assert!(
        verdict.hit_at(kind.module_tag(), 3),
        "{} not in top-3 of {:?}",
        kind.module_tag(),
        verdict.region_scores()
    );
}
