//! Determinism guarantees of the parallel acquisition and evaluation
//! engine: for every worker count, traces, verdicts, and alarms are
//! bit-identical to the serial run, in the same order.

use emtrust::acquisition::Stimulus;
use emtrust::{
    DetectionPipeline, EuclideanDetector, FingerprintConfig, GoldenFingerprint, ParallelConfig,
    PipelineAlarm, TestBench,
};
use emtrust_silicon::Channel;
use emtrust_trojan::{ProtectedChip, TrojanKind};
use proptest::prelude::*;

const KEY: [u8; 16] = *b"sixteen byte key";

fn pool(workers: usize) -> ParallelConfig {
    ParallelConfig::serial().with_workers(workers)
}

/// The paper's time-domain monitor: one Euclidean detector, Or-fused.
fn euclidean_pipeline(fp: GoldenFingerprint) -> DetectionPipeline {
    DetectionPipeline::builder()
        .detector(Box::new(EuclideanDetector::new(fp)))
        .build()
}

#[test]
fn golden_collection_is_bit_identical_for_1_2_8_workers() {
    let chip = ProtectedChip::golden();
    let reference = TestBench::simulation(&chip)
        .unwrap()
        .with_parallel(pool(1))
        .collect(KEY, 6, None, Channel::OnChipSensor, 11)
        .unwrap();
    for workers in [2, 8] {
        let set = TestBench::simulation(&chip)
            .unwrap()
            .with_parallel(pool(workers))
            .collect(KEY, 6, None, Channel::OnChipSensor, 11)
            .unwrap();
        assert_eq!(set, reference, "workers={workers}");
    }
}

#[test]
fn armed_trojan_and_random_stimulus_stay_deterministic() {
    // On the all-Trojan die the state cone runs forward serially and the
    // blocks stream on the pool's workers; 65 traces cross a 64-lane
    // round, so the cone's state is carried across rounds and chunks.
    let chip = ProtectedChip::with_all_trojans();
    let collect = |workers: usize| {
        TestBench::simulation(&chip)
            .unwrap()
            .with_parallel(pool(workers))
            .collect_with(
                KEY,
                Stimulus::RandomPerTrace,
                65,
                Some(TrojanKind::T2LeakageLeaker),
                Channel::OnChipSensor,
                7,
            )
            .unwrap()
    };
    let reference = collect(1);
    assert_eq!(reference.len(), 65);
    for workers in [2, 8] {
        assert_eq!(collect(workers), reference, "workers={workers}");
    }
}

#[test]
fn continuous_collection_is_bit_identical_for_1_2_8_workers() {
    // 65 blocks cross the 64-lane word boundary of the simulation, so
    // the window's charge bins come from several simulator chunks.
    let chip = ProtectedChip::golden();
    let reference = TestBench::simulation(&chip)
        .unwrap()
        .with_parallel(pool(1))
        .collect_continuous(KEY, 65, None, Channel::OnChipSensor, 3)
        .unwrap();
    for workers in [2, 8] {
        let trace = TestBench::simulation(&chip)
            .unwrap()
            .with_parallel(pool(workers))
            .collect_continuous(KEY, 65, None, Channel::OnChipSensor, 3)
            .unwrap();
        assert_eq!(trace.samples(), reference.samples(), "workers={workers}");
    }
}

#[test]
fn monitor_raises_the_same_alarms_in_the_same_order_for_1_2_8_workers() {
    let chip = ProtectedChip::golden();
    let bench = TestBench::simulation(&chip).unwrap().with_parallel(pool(1));
    let golden = bench
        .collect(KEY, 8, None, Channel::OnChipSensor, 1)
        .unwrap();
    // Suspects: clean traces plus scaled-up anomalies, interleaved.
    let clean = bench
        .collect(KEY, 4, None, Channel::OnChipSensor, 2)
        .unwrap();
    let mut suspects: Vec<Vec<f64>> = Vec::new();
    for (i, t) in clean.traces().iter().enumerate() {
        suspects.push(t.clone());
        if i % 2 == 0 {
            suspects.push(t.iter().map(|x| 1.5 * x).collect());
        }
    }

    let mut reference: Option<Vec<PipelineAlarm>> = None;
    for workers in [1, 2, 8] {
        let config = FingerprintConfig {
            parallel: pool(workers),
            ..FingerprintConfig::default()
        };
        let fp = GoldenFingerprint::fit(&golden, config).unwrap();
        let mut monitor = euclidean_pipeline(fp);
        let raised = monitor.ingest_batch(&suspects).alarms;
        assert!(!raised.is_empty(), "anomalies must alarm");
        assert_eq!(monitor.traces_seen(), suspects.len() as u64);
        assert_eq!(monitor.alarms(), raised.as_slice());
        match &reference {
            None => reference = Some(raised),
            Some(r) => assert_eq!(&raised, r, "workers={workers}"),
        }
    }
}

#[test]
fn batch_ingest_matches_serial_ingest_exactly() {
    let chip = ProtectedChip::golden();
    let bench = TestBench::simulation(&chip).unwrap().with_parallel(pool(1));
    let golden = bench
        .collect(KEY, 8, None, Channel::OnChipSensor, 1)
        .unwrap();
    let clean = bench
        .collect(KEY, 3, None, Channel::OnChipSensor, 9)
        .unwrap();
    let mut suspects: Vec<Vec<f64>> = clean.traces().to_vec();
    suspects.push(clean.traces()[0].iter().map(|x| 1.4 * x).collect());

    let fp = GoldenFingerprint::fit(&golden, FingerprintConfig::default()).unwrap();
    let mut serial = euclidean_pipeline(fp.clone());
    for t in &suspects {
        let _ = serial.ingest_trace(t);
    }
    let mut batched = euclidean_pipeline(fp);
    let _ = batched.ingest_batch(&suspects);
    assert_eq!(batched.alarms(), serial.alarms());
    assert_eq!(batched.traces_seen(), serial.traces_seen());
}

#[test]
fn workers_one_is_a_degenerate_pool() {
    // `ParallelConfig::serial()` must behave exactly like the default
    // pool — and both must accept a clamped zero worker count.
    let cfg = ParallelConfig::default();
    assert!(cfg.workers >= 1);
    assert_eq!(pool(0).workers, 1);
    let chip = ProtectedChip::golden();
    let serial = TestBench::simulation(&chip)
        .unwrap()
        .with_parallel(ParallelConfig::serial())
        .collect(KEY, 3, None, Channel::OnChipSensor, 5)
        .unwrap();
    let pooled = TestBench::simulation(&chip)
        .unwrap()
        .collect(KEY, 3, None, Channel::OnChipSensor, 5)
        .unwrap();
    assert_eq!(serial, pooled);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn ingest_batch_agrees_with_per_trace_ingest(
        seed in 0u64..1000,
        n in 1usize..12,
        gain in 0.5f64..2.0,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let golden: Vec<Vec<f64>> = (0..16)
            .map(|_| {
                (0..256)
                    .map(|j| (j as f64 / 7.0).sin() + 0.02 * rng.gen_range(-1.0..1.0))
                    .collect()
            })
            .collect();
        let set = emtrust::TraceSet::new(golden, 640e6).unwrap();
        let fp = GoldenFingerprint::fit(&set, FingerprintConfig::default()).unwrap();
        let batch: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                (0..256)
                    .map(|j| gain * ((j as f64 / 7.0).sin() + 0.02 * rng.gen_range(-1.0..1.0)))
                    .collect()
            })
            .collect();
        let mut batched = DetectionPipeline::builder()
            .detector(Box::new(EuclideanDetector::new(fp.clone())))
            .parallel(ParallelConfig::default().with_workers(4))
            .build();
        let outcomes = batched.ingest_batch(&batch).outcomes;
        prop_assert_eq!(outcomes.len(), batch.len());
        let mut serial = euclidean_pipeline(fp);
        for (o, t) in outcomes.iter().zip(&batch) {
            let single = serial.ingest_trace(t);
            prop_assert_eq!(o.votes.len(), single.votes.len());
            for (v, s) in o.votes.iter().zip(&single.votes) {
                prop_assert_eq!(v.score.statistic.to_bits(), s.score.statistic.to_bits());
            }
            prop_assert_eq!(&o.alarm, &single.alarm);
        }
        prop_assert_eq!(batched.alarms(), serial.alarms());
    }
}
