//! Fleet ingestion service: end-to-end robustness contract.
//!
//! - bounded queues: observed depth never exceeds capacity (+1 transient
//!   slot for a send racing the worker's decrement);
//! - bulkhead isolation: a quarantined chip's neighbours on the same
//!   shard score bit-identically with and without it present;
//! - LRU eviction and cold-start: evicted chips re-fit from their
//!   retained baseline, brand-new chips warm up gracefully;
//! - transport chaos replays bit-identically under a seeded plan.

use emtrust::faults::{TransportFaultKind, TransportFaultSpec, TransportPlan};
use emtrust_fleet::{
    AdmissionVerdict, BreakerConfig, ChaosTransport, FleetConfig, FleetService, FleetSummary,
    StoreConfig,
};
use emtrust_suite::emtrust;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TRACE_LEN: usize = 128;

fn clean_batch(chip_seed: u64, round: u64, n: usize) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(chip_seed.wrapping_mul(31).wrapping_add(round));
    (0..n)
        .map(|_| {
            (0..TRACE_LEN)
                .map(|j| (j as f64 / 7.0).sin() + 0.02 * rng.gen_range(-1.0..1.0))
                .collect()
        })
        .collect()
}

fn nan_batch(n: usize) -> Vec<Vec<f64>> {
    vec![vec![f64::NAN; TRACE_LEN]; n]
}

fn config(shards: usize) -> FleetConfig {
    FleetConfig {
        shards,
        queue_capacity: 16,
        golden_traces: 4,
        store: StoreConfig {
            baseline_window: 8,
            capacity: 64,
            ..StoreConfig::default()
        },
        breaker: BreakerConfig {
            trip_after: 6,
            ..BreakerConfig::default()
        },
        ..FleetConfig::default()
    }
}

/// Runs a fixed clean workload for `chips`, optionally interleaving a
/// poisoned chip, and returns the summary.
fn run_fleet(chips: &[&str], poison: Option<&str>) -> FleetSummary {
    let mut cfg = config(2);
    // Sized so nothing is ever shed: the bit-identity comparison below
    // must only exercise the quarantine bulkhead, not timing.
    cfg.queue_capacity = 256;
    let service = FleetService::new(cfg).expect("service");
    for round in 0..12u64 {
        for (c, chip) in chips.iter().enumerate() {
            let batch = clean_batch(c as u64 + 1, round, 2);
            let receipt = service.ingest(chip, batch).expect("ingest");
            assert!(receipt.verdict.accepted(), "{chip} round {round}");
        }
        if let Some(bad) = poison {
            // Repeatedly-rejected traces: trips the breaker mid-run.
            let _ = service.ingest(bad, nan_batch(3)).expect("ingest poison");
            // The breaker is fed back by the shard worker; give it a
            // beat so the trip lands while the run is still going.
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    }
    service.finish().expect("finish")
}

#[test]
fn queue_depth_stays_bounded_and_nothing_panics() {
    let cfg = config(1);
    let capacity = cfg.queue_capacity;
    let service = FleetService::new(cfg).expect("service");
    for round in 0..200u64 {
        let chip = format!("chip-{}", round % 20);
        let receipt = service
            .ingest(&chip, clean_batch(round % 20, round, 1))
            .expect("ingest");
        assert!(
            receipt.depth <= capacity + 1,
            "depth {} blew past capacity {capacity}",
            receipt.depth
        );
    }
    let summary = service.finish().expect("finish");
    assert!(summary.peak_depth <= capacity + 1);
    assert_eq!(summary.shed + summary.admitted + summary.throttled, 200);
}

#[test]
fn poisoned_chip_is_quarantined_and_neighbours_are_untouched() {
    let chips = ["alpha", "bravo", "charlie", "delta"];
    let clean = run_fleet(&chips, None);
    let stormy = run_fleet(&chips, Some("poison"));

    let victim = stormy.chip("poison").expect("poison chip tracked");
    assert!(
        victim.breaker_trips >= 1,
        "breaker never tripped: {victim:?}"
    );
    assert!(stormy.quarantined >= 1, "no admissions were refused");

    // Bulkhead: every healthy chip's accounting is bit-identical with
    // and without the quarantined neighbour sharing its shard.
    for chip in chips {
        let a = clean.chip(chip).expect("clean run");
        let b = stormy.chip(chip).expect("stormy run");
        assert_eq!(a.stats, b.stats, "leakage into {chip}");
        assert_eq!(a.health, b.health, "health leakage into {chip}");
        assert!(!b.quarantined, "{chip} wrongly quarantined");
    }
}

#[test]
fn quarantined_chip_recovers_through_a_half_open_probe() {
    let mut cfg = config(1);
    cfg.breaker.trip_after = 4;
    cfg.breaker.probe_base = 1;
    cfg.breaker.probe_cap = 4;
    let service = FleetService::new(cfg).expect("service");
    // Warm + poison until quarantined.
    for round in 0..4u64 {
        service.ingest("x", clean_batch(1, round, 2)).expect("warm");
    }
    let mut saw_refusal = false;
    for _ in 0..30 {
        let r = service.ingest("x", nan_batch(2)).expect("poison");
        if r.verdict == AdmissionVerdict::Quarantined {
            saw_refusal = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    assert!(saw_refusal, "chip never quarantined");
    // Clean batches again: a half-open probe eventually closes the
    // breaker and traffic flows.
    let mut readmitted = 0;
    for round in 100..160u64 {
        let r = service
            .ingest("x", clean_batch(1, round, 2))
            .expect("recover");
        if r.verdict.accepted() {
            readmitted += 1;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    assert!(readmitted > 10, "chip never recovered: {readmitted}");
    let summary = service.finish().expect("finish");
    let x = summary.chip("x").expect("x tracked");
    assert!(!x.quarantined, "breaker should have closed again");
    assert!(x.breaker_trips >= 1);
}

/// Offers `batch` until the shard queue takes it. A shed batch never
/// reaches the store, so the producer resends it after a short back-off,
/// as a client of a full queue would; what is then counted is eviction
/// alone, however slowly the shard drains.
fn ingest_unshed(service: &FleetService, chip: &str, batch: Vec<Vec<f64>>) {
    while service.ingest(chip, batch.clone()).expect("ingest").verdict == AdmissionVerdict::Shed {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

#[test]
fn lru_eviction_refits_returning_chips() {
    let mut cfg = config(1);
    cfg.store.capacity = 4;
    cfg.store.cold_capacity = 64;
    let service = FleetService::new(cfg).expect("service");
    // 12 chips through a 4-slot store: heavy eviction...
    for round in 0..6u64 {
        for c in 0..12u64 {
            ingest_unshed(&service, &format!("chip-{c}"), clean_batch(c, round, 2));
        }
    }
    // ...then the first chip returns.
    for round in 100..103u64 {
        ingest_unshed(&service, "chip-0", clean_batch(0, round, 2));
    }
    let summary = service.finish().expect("finish");
    let shard = &summary.shards[0];
    assert!(shard.evictions > 0, "no evictions at capacity 4");
    assert!(shard.refits > 0, "returning chip did not re-fit");
    assert!(shard.hot <= 4);
    let chip0 = summary.chip("chip-0").expect("chip-0 tracked");
    assert_eq!(chip0.stats.scored, 18, "traces lost across eviction");
}

#[test]
fn transport_chaos_is_survived_and_replays_bit_identically() {
    let run = || {
        let mut cfg = config(2);
        // No shedding: replay comparison must be timing-independent.
        cfg.queue_capacity = 256;
        let service = FleetService::new(cfg).expect("service");
        let plan = TransportPlan::new(0xC4405)
            .with(TransportFaultSpec::new(TransportFaultKind::BatchDrop, 1.0).with_probability(0.2))
            .with(
                TransportFaultSpec::new(TransportFaultKind::BatchDuplicate, 1.0)
                    .with_probability(0.2),
            )
            .with(
                TransportFaultSpec::new(TransportFaultKind::BatchReorder, 1.0)
                    .with_probability(0.2),
            )
            .with(
                TransportFaultSpec::new(TransportFaultKind::BatchDelay, 0.6).with_probability(0.4),
            )
            .with(
                TransportFaultSpec::new(TransportFaultKind::ChipIdCorruption, 1.0)
                    .with_probability(0.1),
            );
        let mut link = ChaosTransport::new(plan);
        for round in 0..16u64 {
            for c in 0..6u64 {
                link.deliver(&service, &format!("chip-{c}"), &clean_batch(c, round, 2))
                    .expect("deliver");
            }
        }
        link.flush(&service).expect("flush");
        let stats = link.stats();
        (stats, service.finish().expect("finish"))
    };
    let (s1, f1) = run();
    let (s2, f2) = run();
    assert_eq!(s1, s2, "chaos accounting diverged between replays");
    assert_eq!(f1.chips, f2.chips, "fleet outcome diverged between replays");
    assert!(s1.dropped > 0 && s1.duplicated > 0, "plan too tame: {s1:?}");
    assert!(
        s1.delivered >= s1.offered - s1.dropped,
        "deliveries unaccounted: {s1:?}"
    );
}
