//! A chip restores a repeated warm-up instead of simulating it: in an
//! array round the golden and T1 campaigns warm up, T2–T4 restore the
//! lanes T1's warm-up left, and every campaign measures the same bits as
//! one whose warm-up was simulated.
//!
//! The tests install a recorder, so they take one lock and live in their
//! own binary: no other test counts while a recorder is installed.

use emtrust::acquisition::{TestBench, TraceSet};
use emtrust::array::SensorArray;
use emtrust::telemetry::{self, InMemoryRecorder};
use emtrust_silicon::Channel;
use emtrust_sim::ToggleActivity;
use emtrust_trojan::digital::ALL_DIGITAL_TROJANS;
use emtrust_trojan::{ProtectedChip, TrojanKind};
use std::sync::{Arc, Mutex, MutexGuard};

const KEY: [u8; 16] = *b"sixteen byte key";
const OTHER: [u8; 16] = *b"another key, 16B";

static RECORDER_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    RECORDER_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `run` under a fresh recorder and returns what it made with the
/// `(misses, hits)` of the warm memo.
fn counted<T>(run: impl FnOnce() -> T) -> (T, (u64, u64)) {
    let registry = Arc::new(InMemoryRecorder::new());
    telemetry::install(registry.clone());
    let out = run();
    telemetry::uninstall();
    let counters = registry.snapshot().counters;
    let count = |name: &str| counters.get(name).copied().unwrap_or(0);
    (
        out,
        (
            count("campaign.warm_memo.misses"),
            count("campaign.warm_memo.hits"),
        ),
    )
}

fn array(chip: &ProtectedChip) -> SensorArray<'_> {
    SensorArray::builder(chip)
        .with_grid(1, 1)
        .unwrap()
        .build()
        .unwrap()
}

/// The golden campaign, then each Trojan armed in turn.
fn kinds() -> Vec<Option<TrojanKind>> {
    std::iter::once(None)
        .chain(ALL_DIGITAL_TROJANS.map(Some))
        .collect()
}

type Campaign = (Vec<TraceSet>, ToggleActivity);

#[test]
fn a_round_warms_up_twice_and_restores_three_times() {
    let _guard = lock();
    let chip = ProtectedChip::with_all_trojans();
    let array = array(&chip);
    let collect = |key, armed| array.collect_with_activity(key, 2, armed, 42).unwrap();
    let (_, round) = counted(|| {
        for armed in kinds() {
            collect(KEY, armed);
        }
    });
    assert_eq!(
        round,
        (2, 3),
        "(misses, hits) of a golden and four armed campaigns"
    );
    let (_, next) = counted(|| {
        collect(KEY, Some(TrojanKind::T2LeakageLeaker));
        collect(OTHER, Some(TrojanKind::T2LeakageLeaker));
        collect(KEY, None);
    });
    assert_eq!(next, (2, 1), "a key change misses and drops the kept lanes");

    // Windows of fresh plaintexts: each 64-lane round after the first
    // warms up on plaintexts no request before it used, so none repeats
    // and none is kept.
    let bench = TestBench::simulation(&chip).unwrap();
    let (_, windows) = counted(|| {
        for _ in 0..2 {
            bench
                .collect_continuous(KEY, 130, None, Channel::OnChipSensor, 7)
                .unwrap();
        }
    });
    assert_eq!(windows, (4, 0), "(misses, hits) of two 130-block windows");
}

#[test]
fn restored_campaigns_measure_like_simulated_ones_on_two_threads() {
    let _guard = lock();
    // The reference simulates every warm-up: a campaign under another key
    // between two requests keeps any warm-up from repeating.
    let reference_chip = ProtectedChip::with_all_trojans();
    let reference_array = array(&reference_chip);
    let (reference, (_, hits)) = counted(|| {
        kinds()
            .into_iter()
            .map(|armed| {
                reference_array
                    .collect_with_activity(OTHER, 2, armed, 42)
                    .unwrap();
                reference_array
                    .collect_with_activity(KEY, 2, armed, 42)
                    .unwrap()
            })
            .collect::<Vec<Campaign>>()
    });
    assert_eq!(hits, 0, "the reference restores nothing");

    // Two threads collect on one chip, in opposite orders, twice over,
    // after two campaigns left the chip keeping the warm-up: the first
    // campaign to take the memo restores it.
    let chip = ProtectedChip::with_all_trojans();
    let arrays = [array(&chip), array(&chip)];
    for armed in [None, None] {
        arrays[0].collect(KEY, 2, armed, 42).unwrap();
    }
    let orders = [kinds(), kinds().into_iter().rev().collect()];
    let (results, (misses, hits)) = counted(|| {
        std::thread::scope(|s| {
            let handles: Vec<_> = arrays
                .iter()
                .zip(&orders)
                .map(|(array, order)| {
                    s.spawn(move || {
                        let mut out = Vec::new();
                        for armed in order.iter().chain(order) {
                            let got = array.collect_with_activity(KEY, 2, *armed, 42).unwrap();
                            out.push((*armed, got));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect::<Vec<(Option<TrojanKind>, Campaign)>>()
        })
    });
    assert_eq!(misses + hits, 20, "one warm-up per campaign");
    assert!(hits > 0, "the first campaign restored its warm-up");
    for (armed, (sets, toggles)) in &results {
        let k = kinds().iter().position(|k| k == armed).unwrap();
        let (want_sets, want_toggles) = &reference[k];
        assert_eq!(sets, want_sets, "{armed:?}: traces");
        assert_eq!(toggles, want_toggles, "{armed:?}: toggle counts");
    }
}
