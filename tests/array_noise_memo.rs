//! A sensor array draws a campaign seed's environment noise once: the
//! golden campaign of a round draws it, the four armed campaigns that
//! replay its seed add the kept draws, and a new seed draws again.
//!
//! The one test lives in its own binary, so no other test counts while
//! its recorder is installed.

use emtrust::array::SensorArray;
use emtrust::telemetry::{self, InMemoryRecorder};
use emtrust_trojan::digital::ALL_DIGITAL_TROJANS;
use emtrust_trojan::ProtectedChip;
use std::sync::Arc;

const KEY: [u8; 16] = *b"sixteen byte key";

#[test]
fn a_round_draws_its_noise_once() {
    let chip = ProtectedChip::with_all_trojans();
    let array = SensorArray::builder(&chip)
        .with_grid(2, 2)
        .unwrap()
        .with_turns(8)
        .unwrap()
        .build()
        .unwrap();
    let counts = |run: &dyn Fn()| {
        let registry = Arc::new(InMemoryRecorder::new());
        telemetry::install(registry.clone());
        run();
        telemetry::uninstall();
        let counters = registry.snapshot().counters;
        let count = |name: &str| counters.get(name).copied().unwrap_or(0);
        (
            count("array.noise_memo.misses"),
            count("array.noise_memo.hits"),
        )
    };
    let round = counts(&|| {
        array.collect(KEY, 2, None, 42).unwrap();
        for kind in ALL_DIGITAL_TROJANS {
            array.collect_with_activity(KEY, 2, Some(kind), 42).unwrap();
        }
    });
    assert_eq!(
        round,
        (1, 4),
        "(misses, hits) of a golden and four armed campaigns"
    );
    let new_seed = counts(&|| {
        array.collect(KEY, 2, None, 43).unwrap();
    });
    assert_eq!(new_seed, (1, 0), "(misses, hits) of a new seed");
}
