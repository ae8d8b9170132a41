//! Chaos suite: randomized fault plans thrown at the hardened ingestion
//! path. The properties under test are the robustness contract of the
//! fault/sanitize/health stack, not detection quality:
//!
//! - no fault plan, at any intensity or composition, panics the monitor;
//! - every ingested trace is accounted for (clean + degraded + rejected);
//! - fault realizations and monitor outcomes replay bit-identically;
//! - sensor-health transitions only ever step to adjacent states.

use emtrust::faults::{FaultKind, FaultPlan, FaultSpec};
use emtrust::fingerprint::{FingerprintConfig, GoldenFingerprint};
use emtrust::health::SensorHealth;
use emtrust::sanitize::{TraceDefect, TraceSanitizer, TraceVerdict};
use emtrust::{DetectionPipeline, EuclideanDetector, TraceSet};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N_TRACES: usize = 12;
const TRACE_LEN: usize = 256;

/// Synthetic clean traces: a smooth tone plus per-trace noise, enough
/// spread for a meaningful Eq. 1 threshold.
fn clean_traces(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            (0..TRACE_LEN)
                .map(|j| (j as f64 / 9.0).sin() + 0.02 * rng.gen_range(-1.0..1.0))
                .collect()
        })
        .collect()
}

fn fitted_monitor() -> DetectionPipeline {
    let golden = TraceSet::new(clean_traces(32, 1), 640e6).expect("golden set");
    let fp = GoldenFingerprint::fit(&golden, FingerprintConfig::default()).expect("fit");
    DetectionPipeline::builder()
        .detector(Box::new(EuclideanDetector::new(fp)))
        .sanitizer(TraceSanitizer::default())
        .build()
}

/// Builds a random 1–3 entry plan from one seed (kinds, intensities and
/// probabilities all derived deterministically).
fn random_plan(seed: u64) -> FaultPlan {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A05);
    let n_entries = rng.gen_range(1..4usize);
    let mut plan = FaultPlan::new(seed);
    for _ in 0..n_entries {
        let kind = FaultKind::ALL[rng.gen_range(0..FaultKind::ALL.len())];
        let spec = FaultSpec::new(kind, rng.gen_range(0.05..1.0))
            .with_probability(rng.gen_range(0.3..1.0));
        plan = plan.with(spec);
    }
    plan
}

fn corrupt(plan: &FaultPlan, seed: u64) -> Vec<Vec<f64>> {
    clean_traces(N_TRACES, seed)
        .into_iter()
        .enumerate()
        .map(|(i, mut t)| {
            plan.apply(i as u64, 0, None, &mut t, 640e6);
            t
        })
        .collect()
}

fn adjacent(a: SensorHealth, b: SensorHealth) -> bool {
    !matches!(
        (a, b),
        (SensorHealth::Healthy, SensorHealth::SensorFault)
            | (SensorHealth::SensorFault, SensorHealth::Healthy)
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn chaos_plans_never_panic_and_account_for_every_trace(seed in 0u64..u64::MAX) {
        let plan = random_plan(seed);
        let traces = corrupt(&plan, 2);

        // Bit-identical fault realization on replay.
        let replay = corrupt(&plan, 2);
        for (a, b) in traces.iter().flatten().zip(replay.iter().flatten()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }

        let mut monitor = fitted_monitor();
        let batch = monitor.ingest_batch(&traces);

        // 100 % accounting: every trace is exactly one of the three.
        prop_assert_eq!(batch.outcomes.len(), N_TRACES);
        prop_assert_eq!(batch.clean() + batch.degraded() + batch.rejected(), N_TRACES);
        prop_assert_eq!(
            monitor.traces_seen() + monitor.traces_rejected(),
            N_TRACES as u64
        );
        prop_assert_eq!(monitor.traces_rejected(), batch.rejected() as u64);

        // Health transitions only ever step to adjacent states.
        for t in monitor.health_tracker().transitions() {
            prop_assert!(adjacent(t.from, t.to), "jump {:?} -> {:?}", t.from, t.to);
        }

        // The whole monitor outcome replays bit-identically.
        let mut second = fitted_monitor();
        let batch2 = second.ingest_batch(&replay);
        prop_assert_eq!(batch.outcomes, batch2.outcomes);
        prop_assert_eq!(monitor.alarms(), second.alarms());
        prop_assert_eq!(monitor.health(), second.health());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// `ingest_batch` rejected accounting: however a batch mixes
    /// clean traces with unconditionally-rejectable ones (NaN bodies,
    /// empty traces), `rejected()` counts exactly the bad ones and the
    /// monitor's cumulative counters agree across batches.
    #[test]
    fn rejected_accounting_is_exact_under_mixed_batches(
        seed in 0u64..u64::MAX,
        n_batches in 1usize..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBADACC);
        let mut monitor = fitted_monitor();
        let mut expected_rejected = 0u64;
        let mut expected_total = 0u64;
        for batch_no in 0..n_batches {
            let n = rng.gen_range(1..10usize);
            let mut traces = clean_traces(n, seed.wrapping_add(batch_no as u64));
            let mut bad_here = 0usize;
            for t in traces.iter_mut() {
                if rng.gen_bool(0.4) {
                    bad_here += 1;
                    if rng.gen_bool(0.5) {
                        *t = vec![f64::NAN; TRACE_LEN];
                    } else {
                        *t = Vec::new();
                    }
                }
            }
            let report = monitor.ingest_batch(&traces);
            prop_assert_eq!(report.outcomes.len(), n);
            prop_assert!(report.rejected() >= bad_here, "bad traces must be rejected");
            prop_assert_eq!(
                report.clean() + report.degraded() + report.rejected(),
                n
            );
            expected_rejected += report.rejected() as u64;
            expected_total += n as u64;
            prop_assert_eq!(monitor.traces_rejected(), expected_rejected);
            prop_assert_eq!(
                monitor.traces_seen() + monitor.traces_rejected(),
                expected_total
            );
        }
    }

    /// A quarantine→recovery storm — alternating runs of rejected and
    /// clean traces of random lengths — never makes the health state
    /// machine jump a state, and the consecutive-rejection streak the
    /// fleet's circuit breakers key on resets on the first clean trace.
    #[test]
    fn health_stays_adjacent_through_quarantine_recovery_storms(
        seed in 0u64..u64::MAX,
        phases in 2usize..8,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5701A);
        let mut monitor = fitted_monitor();
        let mut seen = vec![monitor.health()];
        for phase in 0..phases {
            let poisoned = phase % 2 == 0;
            let len = rng.gen_range(1..24usize);
            if poisoned {
                for _ in 0..len {
                    seen.push(monitor.ingest_trace(&[f64::NAN; 16]).health);
                }
                prop_assert_eq!(
                    monitor.health_tracker().consecutive_rejections(),
                    len as u64
                );
            } else {
                for t in clean_traces(len, seed ^ phase as u64) {
                    seen.push(monitor.ingest_trace(&t).health);
                }
                prop_assert_eq!(monitor.health_tracker().consecutive_rejections(), 0);
            }
        }
        for w in seen.windows(2) {
            prop_assert!(adjacent(w[0], w[1]), "jump {:?} -> {:?}", w[0], w[1]);
        }
        for t in monitor.health_tracker().transitions() {
            prop_assert!(adjacent(t.from, t.to), "jump {:?} -> {:?}", t.from, t.to);
        }
    }
}

#[test]
fn every_fault_kind_at_full_intensity_is_survived() {
    for kind in FaultKind::ALL {
        let plan = FaultPlan::single(9, kind, 1.0);
        let traces = corrupt(&plan, 3);
        let mut monitor = fitted_monitor();
        let batch = monitor.ingest_batch(&traces);
        assert_eq!(
            batch.clean() + batch.degraded() + batch.rejected(),
            N_TRACES,
            "accounting broke under {}",
            kind.label()
        );
    }
}

#[test]
fn nan_corruption_is_rejected_as_non_finite() {
    let plan = FaultPlan::single(4, FaultKind::NanCorruption, 0.5);
    let traces = corrupt(&plan, 5);
    let mut monitor = fitted_monitor();
    let batch = monitor.ingest_batch(&traces);
    assert_eq!(batch.rejected(), N_TRACES);
    for r in &batch.outcomes {
        assert!(matches!(
            r.verdict,
            TraceVerdict::Rejected {
                reason: TraceDefect::NonFinite { .. }
            }
        ));
    }
    assert!(monitor.alarms().is_empty());
}

#[test]
fn sustained_flatline_walks_health_down_and_recovery_walks_it_back() {
    let mut monitor = fitted_monitor();
    let flat = vec![0.25; TRACE_LEN];
    let mut seen = vec![monitor.health()];
    for _ in 0..32 {
        seen.push(monitor.ingest_trace(&flat).health);
    }
    assert_eq!(monitor.health(), SensorHealth::SensorFault);
    assert!(seen.contains(&SensorHealth::Degraded));
    for t in clean_traces(64, 6) {
        seen.push(monitor.ingest_trace(&t).health);
    }
    assert_eq!(monitor.health(), SensorHealth::Healthy);
    for w in seen.windows(2) {
        assert!(adjacent(w[0], w[1]), "jump {:?} -> {:?}", w[0], w[1]);
    }
}

#[test]
fn per_trace_failures_do_not_abort_the_batch() {
    let mut traces = clean_traces(5, 7);
    traces[2] = vec![f64::NAN; TRACE_LEN];
    traces[4] = vec![]; // empty trace
    let mut monitor = fitted_monitor();
    let batch = monitor.ingest_batch(&traces);
    assert_eq!(batch.outcomes.len(), 5);
    assert_eq!(batch.rejected(), 2);
    assert_eq!(batch.clean(), 3);
    assert!(batch.outcomes[2].verdict.is_rejected());
    assert!(batch.outcomes[4].verdict.is_rejected());
    assert_eq!(monitor.traces_seen(), 3);
}
