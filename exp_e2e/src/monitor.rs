//! `monitor`: paper §V runtime monitoring on fabricated dies.

use crate::ledger::Ledger;
use crate::replay::{self, Channel};
use crate::stats::Digest;
use crate::workload::{Metric, Op, Workload};
use crate::{derive, plaintext, KEY, TROJANS};
use emtrust::acquisition::{Stimulus, TestBench, TraceSet};
use emtrust::fingerprint::{FingerprintConfig, GoldenFingerprint};
use emtrust::{
    BatchOutcome, DetectionPipeline, EuclideanDetector, ParallelConfig, SanitizerConfig,
    TraceSanitizer,
};
use emtrust_em::pipeline::EmSensor;
use emtrust_silicon::{Channel as Probe, Oscilloscope};
use emtrust_trojan::{ProtectedChip, TrojanKind};
use std::time::Instant;

/// Golden traces each die's fingerprint is fitted on.
const FIT_TRACES: usize = 64;
/// Traces per streamed batch (one op).
const BATCH: usize = 16;
/// Ops 0–4 stream the Trojan-free die; ops 5–9 the all-Trojan die,
/// dormant and then with T1–T4 armed in turn.
const CYCLE: u64 = 10;
const GOLDEN_OPS: u64 = 5;

const MIN_DETECTION_RATE: f64 = 0.9;
const MAX_FALSE_ALARM_RATE: f64 = 0.05;

const STREAM_PT: u64 = 1;
const STREAM_DIE: u64 = 2;
const STREAM_FIT: u64 = 3;
const STREAM_OP: u64 = 4;

/// The default screen, loosened where it assumes unquantized samples.
/// The 12-bit on-chip scope channel quantizes clean traces so coarsely
/// that about 29 % of adjacent samples repeat (the clock-jitter screen
/// rejects at 5 %) and a trace's peak code can recur on 1 % of its
/// samples (the clipping screen rejects at 1 %).
fn sanitizer() -> TraceSanitizer {
    TraceSanitizer::new(SanitizerConfig {
        duplicate_reject_fraction: 0.5,
        saturation_reject_fraction: 0.05,
        ..SanitizerConfig::default()
    })
}

pub struct Chips {
    golden: ProtectedChip,
    trojan: ProtectedChip,
}

impl Chips {
    pub fn new() -> Self {
        Self {
            golden: ProtectedChip::golden(),
            trojan: ProtectedChip::with_all_trojans(),
        }
    }
}

/// One fabricated die under monitoring.
struct Die<'c> {
    chip: &'c ProtectedChip,
    id: u64,
    bench: TestBench<'c>,
    pipeline: DetectionPipeline,
    /// The die's on-chip channel rebuilt from its parts (traced runs).
    replay: Option<(EmSensor, Oscilloscope)>,
}

impl Die<'_> {
    /// Replays one campaign of `n` traces the way `collect_with` takes
    /// it with a fixed stimulus: one simulator, one warm-up encryption.
    fn replay(
        &self,
        l: &mut Ledger,
        pt: [u8; 16],
        armed: Option<TrojanKind>,
        n: usize,
        seed: u64,
    ) -> Result<Vec<Vec<f64>>, String> {
        let (sensor, scope) = self.replay.as_ref().ok_or("die has no replay channel")?;
        let channel = Channel {
            sensor,
            scope: Some((scope, self.id)),
        };
        let mut sim = replay::simulator(l, self.chip, KEY, armed, Some(pt))?;
        (0..n)
            .map(|i| {
                let rec = replay::encrypt(l, &mut sim, self.chip, KEY, &[pt], armed)?;
                channel.measure(l, self.chip, &rec, &[], replay::trace_seed(seed, i), 1)
            })
            .collect()
    }

    /// Acquires a campaign through the program; when tracing, also
    /// replays it layer by layer and checks the two agree bit for bit.
    fn acquire(
        &self,
        ledger: Option<&mut Ledger>,
        pt: [u8; 16],
        armed: Option<TrojanKind>,
        n: usize,
        seed: u64,
    ) -> Result<TraceSet, String> {
        let collect = || {
            self.bench
                .collect_with(
                    KEY,
                    Stimulus::Fixed(pt),
                    n,
                    armed,
                    Probe::OnChipSensor,
                    seed,
                )
                .map_err(|e| e.to_string())
        };
        let Some(l) = ledger else {
            return collect();
        };
        let program = l.reference("acquisition", n as u64, collect)?;
        let replayed = l.segment(|l| self.replay(l, pt, armed, n, seed))?;
        if !replay::same_traces(program.traces(), &replayed) {
            return Err(format!(
                "replayed {armed:?} traces differ from the program's"
            ));
        }
        Ok(program)
    }
}

pub struct Monitor<'c> {
    seed: u64,
    pt: [u8; 16],
    dies: [Die<'c>; 2],
    digest: Digest,
    clean: (u64, u64),
    /// (alarmed traces, traces) per Trojan, in [`TROJANS`] order.
    armed: [(u64, u64); 4],
    rejected: u64,
    /// Latency of each Trojan-free batch of the current cycle, waiting to
    /// be paired with the all-Trojan batch at the same position.
    golden_ms: [f64; GOLDEN_OPS as usize],
}

impl<'c> Monitor<'c> {
    pub fn setup(
        chips: &'c Chips,
        seed: u64,
        mut ledger: Option<&mut Ledger>,
    ) -> Result<Self, String> {
        let serial = ParallelConfig::serial();
        let pt = plaintext(derive(seed, STREAM_PT, 0));
        let mut digest = Digest::default();
        let mut build = |i: u64, chip: &'c ProtectedChip| -> Result<Die<'c>, String> {
            crate::check_ciphertexts(chip, &[pt], &mut digest)?;
            let id = derive(seed, STREAM_DIE, i) % 1_000_000;
            let fabricate = || TestBench::silicon(chip, id).map_err(|e| e.to_string());
            let bench = match ledger.as_deref_mut() {
                Some(l) => l.reference("silicon.fabricate", 0, fabricate)?,
                None => fabricate()?,
            }
            .with_parallel(serial);
            let replay = match ledger.as_deref_mut() {
                Some(l) => Some((
                    l.segment(|l| replay::fabricated_sensor(l, chip, id))?,
                    Oscilloscope::onchip_channel(),
                )),
                None => None,
            };
            let mut die = Die {
                chip,
                id,
                bench,
                pipeline: DetectionPipeline::builder().build(),
                replay,
            };
            let golden = die.acquire(
                ledger.as_deref_mut(),
                pt,
                None,
                FIT_TRACES,
                derive(seed, STREAM_FIT, i),
            )?;
            let config = FingerprintConfig {
                // Raw RMS features: T3's weak CDMA leak is projected
                // away by a handful of PCA components on silicon.
                pca_components: None,
                parallel: serial,
                ..FingerprintConfig::default()
            };
            let fit = || GoldenFingerprint::fit(&golden, config).map_err(|e| e.to_string());
            let fingerprint = match ledger.as_deref_mut() {
                Some(l) => {
                    l.count("core.fingerprint.fits", 1);
                    l.segment(|l| l.span("core.fingerprint", FIT_TRACES as u64, fit))?
                }
                None => fit()?,
            };
            die.pipeline = DetectionPipeline::builder()
                .detector(Box::new(EuclideanDetector::new(fingerprint)))
                .sanitizer(sanitizer())
                .parallel(serial)
                .build();
            Ok(die)
        };
        let dies = [build(0, &chips.golden)?, build(1, &chips.trojan)?];
        Ok(Self {
            seed,
            pt,
            dies,
            digest,
            clean: (0, 0),
            armed: [(0, 0); 4],
            rejected: 0,
            golden_ms: [0.0; GOLDEN_OPS as usize],
        })
    }
}

impl Workload for Monitor<'_> {
    fn cycle_len(&self) -> u64 {
        CYCLE
    }

    fn detect_span(&self) -> &'static str {
        "core.pipeline"
    }

    fn op(&mut self, index: u64, mut ledger: Option<&mut Ledger>) -> Result<Op, String> {
        let pos = index % CYCLE;
        let (die, armed) = match pos.checked_sub(GOLDEN_OPS + 1) {
            None => (usize::from(pos == GOLDEN_OPS), None),
            Some(k) => (1, TROJANS.get(k as usize).copied()),
        };
        let seed = derive(self.seed, STREAM_OP, index);
        let t0 = Instant::now();
        let die = &mut self.dies[die];
        let set = die.acquire(ledger.as_deref_mut(), self.pt, armed, BATCH, seed)?;
        let pipeline = &mut die.pipeline;
        let outcome: BatchOutcome = match ledger {
            Some(l) => l.segment(|l| {
                l.span("core.pipeline", BATCH as u64, || {
                    pipeline.ingest_batch(set.traces())
                })
            }),
            None => pipeline.ingest_batch(set.traces()),
        };
        let batch_ms = t0.elapsed().as_secs_f64() * 1e3;
        pipeline.acknowledge_alarms();
        // A Trojan-free batch costs about twice an all-Trojan one, and a
        // median over both kinds falls in the gap between them, where it
        // jumps with either kind's tail. A latency sample is therefore a
        // pair: the Trojan-free batch and the all-Trojan batch at the same
        // position of the cycle.
        let latency_ms = match (pos as usize).checked_sub(GOLDEN_OPS as usize) {
            None => {
                self.golden_ms[pos as usize] = batch_ms;
                None
            }
            Some(k) => self.golden_ms.get(k).map(|g| g + batch_ms),
        };

        let mut failures = Vec::new();
        let rejected = outcome.rejected();
        let scored = outcome
            .outcomes
            .iter()
            .filter(|o| o.index.is_some())
            .count();
        if outcome.outcomes.len() != BATCH || scored + rejected != BATCH {
            failures.push(format!(
                "op {index}: {scored} scored + {rejected} rejected of {BATCH} delivered"
            ));
        }
        for o in outcome.outcomes.iter().filter(|o| o.verdict.is_rejected()) {
            failures.push(format!("op {index}: clean trace rejected: {:?}", o.verdict));
        }
        self.rejected += rejected as u64;
        let alarms = outcome.alarms.len() as u64;
        match armed.and_then(|k| TROJANS.iter().position(|&t| t == k)) {
            Some(k) => {
                self.armed[k].0 += alarms;
                self.armed[k].1 += BATCH as u64;
            }
            None => {
                self.clean.0 += alarms;
                self.clean.1 += BATCH as u64;
            }
        }
        if index < CYCLE {
            for o in &outcome.outcomes {
                self.digest.bool(o.alarm.is_some());
                self.digest.str(o.verdict.label());
            }
        }
        Ok(Op {
            traces: BATCH as u64,
            latency_ms,
            failures,
        })
    }

    fn checks(&self) -> Vec<String> {
        let mut failures = Vec::new();
        for (kind, &(alarms, traces)) in TROJANS.iter().zip(&self.armed) {
            if traces > 0 && (alarms as f64) < MIN_DETECTION_RATE * traces as f64 {
                failures.push(format!("{kind:?} detected on {alarms} of {traces} traces"));
            }
        }
        let (alarms, traces) = self.clean;
        if alarms as f64 > MAX_FALSE_ALARM_RATE * traces as f64 {
            failures.push(format!("{alarms} false alarms on {traces} clean traces"));
        }
        failures
    }

    fn digest(&self) -> u64 {
        self.digest.value()
    }

    fn time_to_detect_ops(&self) -> f64 {
        // Every armed batch is its own episode, detected within its op.
        f64::from(u8::from(self.armed.iter().any(|&(a, _)| a > 0)))
    }

    fn extras(&self, _ledger: Option<&Ledger>) -> Vec<Metric> {
        let rate = |(a, t): (u64, u64)| crate::ledger::ratio(a as f64, t);
        let mut out = vec![
            Metric::new("clean.false_alarm_rate", rate(self.clean), "ratio"),
            Metric::new("core.pipeline.rejected", self.rejected as f64, "count"),
        ];
        let all = self
            .armed
            .iter()
            .fold(self.clean, |(a, t), &(x, y)| (a + x, t + y));
        out.push(Metric::new("core.pipeline.alarm_rate", rate(all), "ratio"));
        for (kind, &counts) in TROJANS.iter().zip(&self.armed) {
            out.push(Metric::new(
                format!("detection_rate.{kind:?}"),
                rate(counts),
                "ratio",
            ));
        }
        out
    }
}
