//! `spectral_watch`: an A2 analog Trojan watched through long continuous
//! windows, as in `examples/detector_pipeline.rs`.

use crate::ledger::Ledger;
use crate::replay::{self, Channel};
use crate::stats::Digest;
use crate::workload::{Metric, Op, Workload};
use crate::{derive, KEY};
use emtrust::acquisition::TestBench;
use emtrust::detector::SpectralWindowDetector;
use emtrust::persistence::{PersistenceConfig, SpectralPersistenceDetector};
use emtrust::spectral::{SpectralConfig, SpectralDetector};
use emtrust::{DetectionPipeline, FusionPolicy, ParallelConfig, TraceSanitizer, WindowOutcome};
use emtrust_em::coil::Coil;
use emtrust_em::emf::VoltageTrace;
use emtrust_em::pipeline::{EmSensor, PointCurrentSource};
use emtrust_layout::spiral::SpiralSensor;
use emtrust_silicon::Channel as Probe;
use emtrust_trojan::{A2Trojan, ProtectedChip};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Encryption blocks per window: 48 × 12 cycles × 64 samples = 36 864
/// samples, long enough for the Welch spectrum to resolve the A2 comb.
const BLOCKS: usize = 48;
/// Ops 0–3 of a cycle are quiet windows, ops 4–9 armed ones. An armed
/// segment that ends without an alarm fails its last op, so the fused
/// pipeline must alarm within 6 armed windows. With 4-window segments,
/// one seed of about forty tried ended a segment without an alarm.
const QUIET: u64 = 4;
const CYCLE: u64 = 10;
/// The A2 trigger toggles at the reference clock's 10 MHz.
const A2_CLOCK_HZ: f64 = 10e6;

const STREAM_GOLDEN: u64 = 1;
const STREAM_WARMUP: u64 = 2;
const STREAM_OP: u64 = 3;

pub struct Chips {
    golden: ProtectedChip,
}

impl Chips {
    pub fn new() -> Self {
        Self {
            golden: ProtectedChip::golden(),
        }
    }
}

/// `collect_continuous`'s plaintexts: one fresh block per encryption,
/// drawn from the window seed.
fn window_plaintexts(seed: u64) -> Vec<[u8; 16]> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..BLOCKS).map(|_| rng.gen()).collect()
}

pub struct SpectralWatch<'c> {
    chip: &'c ProtectedChip,
    seed: u64,
    bench: TestBench<'c>,
    pipeline: DetectionPipeline,
    /// The bench's on-chip channel rebuilt from its parts (traced runs).
    replay: Option<EmSensor>,
    digest: Digest,
    quiet_windows: u64,
    /// Armed windows to the first alarm, per armed segment.
    detections: Vec<u64>,
    /// Whether the current armed segment has alarmed.
    segment_alarmed: bool,
}

impl<'c> SpectralWatch<'c> {
    pub fn setup(
        chips: &'c Chips,
        seed: u64,
        mut ledger: Option<&mut Ledger>,
    ) -> Result<Self, String> {
        let chip = &chips.golden;
        let serial = ParallelConfig::serial();
        let mut digest = Digest::default();
        crate::check_ciphertexts(
            chip,
            &window_plaintexts(derive(seed, STREAM_OP, 0)),
            &mut digest,
        )?;
        let bench = TestBench::simulation(chip)
            .map_err(|e| e.to_string())?
            .with_parallel(serial)
            .with_a2(A2Trojan::new(A2_CLOCK_HZ));
        let replay = match ledger.as_deref_mut() {
            Some(l) => Some(l.segment(|l| {
                let floorplan = replay::place(l, chip)?;
                l.span("em.build", 0, || {
                    let coil = Coil::OnChip(
                        SpiralSensor::for_die(floorplan.die()).map_err(|e| e.to_string())?,
                    );
                    EmSensor::new(coil, chip.netlist(), &floorplan, replay::reference_model())
                        .map_err(|e| e.to_string())
                })
            })?),
            None => None,
        };
        let mut w = Self {
            chip,
            seed,
            bench,
            pipeline: DetectionPipeline::builder().build(),
            replay,
            digest,
            quiet_windows: 0,
            detections: Vec::new(),
            segment_alarmed: false,
        };
        let golden = w.acquire(ledger.as_deref_mut(), derive(seed, STREAM_GOLDEN, 0))?;
        let fit =
            || SpectralDetector::fit(&golden, SpectralConfig::default()).map_err(|e| e.to_string());
        let spectral = match ledger.as_deref_mut() {
            Some(l) => {
                l.count("core.fingerprint.fits", 1);
                l.segment(|l| l.span("core.fingerprint", BLOCKS as u64, fit))?
            }
            None => fit()?,
        };
        let persistence = PersistenceConfig::default();
        w.pipeline = DetectionPipeline::builder()
            .detector(Box::new(SpectralWindowDetector::new(spectral)))
            .detector(Box::new(SpectralPersistenceDetector::new(persistence)))
            .fusion(FusionPolicy::And)
            .sanitizer(TraceSanitizer::default())
            .parallel(serial)
            .build();
        // The persistence detector learns the chip's own lines from its
        // first quiet windows.
        for i in 0..u64::from(persistence.warmup_windows) {
            let window = w.acquire(ledger.as_deref_mut(), derive(seed, STREAM_WARMUP, i))?;
            let outcome = w.ingest(ledger.as_deref_mut(), &window);
            if outcome.alarm.is_some() {
                return Err(format!("alarm on quiet warm-up window {i}"));
            }
            w.digest.str(outcome.verdict.label());
        }
        Ok(w)
    }

    /// One window through the program; when tracing, also replayed layer
    /// by layer and checked bit for bit.
    fn acquire(&self, ledger: Option<&mut Ledger>, seed: u64) -> Result<VoltageTrace, String> {
        let collect = || {
            self.bench
                .collect_continuous(KEY, BLOCKS, None, Probe::OnChipSensor, seed)
                .map_err(|e| e.to_string())
        };
        let Some(l) = ledger else {
            return collect();
        };
        let program = l.reference("acquisition", BLOCKS as u64, collect)?;
        let replayed = l.segment(|l| self.replay(l, seed))?;
        if !replay::same_bits(program.samples(), &replayed) {
            return Err("replayed window differs from the program's".into());
        }
        Ok(program)
    }

    /// `collect_continuous` rebuilt: one simulator, no warm-up, one
    /// recording over every block, then one measurement with the A2
    /// injection when armed.
    fn replay(&self, l: &mut Ledger, seed: u64) -> Result<Vec<f64>, String> {
        let sensor = self.replay.as_ref().ok_or("no replay channel")?;
        let mut sim = replay::simulator(l, self.chip, KEY, None, None)?;
        let rec = replay::encrypt(l, &mut sim, self.chip, KEY, &window_plaintexts(seed), None)?;
        let injections: Vec<PointCurrentSource> = match self.bench.a2() {
            Some(a2) if a2.is_triggering() => {
                let clock = self.bench.clock();
                let n = rec.activity.cycle_count() * clock.samples_per_cycle();
                vec![PointCurrentSource {
                    location_um: a2.location_um(),
                    samples: l.span("em.emf", 0, || {
                        a2.current_samples(n, clock.sample_rate_hz())
                    }),
                }]
            }
            _ => Vec::new(),
        };
        let channel = Channel {
            sensor,
            scope: None,
        };
        channel.measure(l, self.chip, &rec, &injections, seed, BLOCKS as u64)
    }

    fn ingest(&mut self, ledger: Option<&mut Ledger>, window: &VoltageTrace) -> WindowOutcome {
        let pipeline = &mut self.pipeline;
        let outcome = match ledger {
            Some(l) => l.segment(|l| {
                l.span("core.pipeline", BLOCKS as u64, || {
                    pipeline.ingest_window(window)
                })
            }),
            None => pipeline.ingest_window(window),
        };
        pipeline.acknowledge_alarms();
        outcome
    }
}

impl Workload for SpectralWatch<'_> {
    fn cycle_len(&self) -> u64 {
        CYCLE
    }

    fn detect_span(&self) -> &'static str {
        "core.pipeline"
    }

    fn op(&mut self, index: u64, mut ledger: Option<&mut Ledger>) -> Result<Op, String> {
        let pos = index % CYCLE;
        let armed = pos >= QUIET;
        self.bench.arm_a2(armed).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let window = self.acquire(ledger.as_deref_mut(), derive(self.seed, STREAM_OP, index))?;
        let outcome = self.ingest(ledger, &window);
        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;

        let mut failures = Vec::new();
        if window.samples().iter().any(|x| !x.is_finite()) {
            failures.push(format!("op {index}: non-finite sample"));
        }
        if outcome.verdict.is_rejected() {
            failures.push(format!(
                "op {index}: window rejected: {:?}",
                outcome.verdict
            ));
        }
        let alarmed = outcome.alarm.is_some();
        if armed {
            if pos == QUIET {
                self.segment_alarmed = false;
            }
            if alarmed && !self.segment_alarmed {
                self.segment_alarmed = true;
                self.detections.push(pos - QUIET + 1);
            }
            if pos == CYCLE - 1 && !self.segment_alarmed {
                failures.push(format!(
                    "op {index}: A2 armed for {} windows without an alarm",
                    CYCLE - QUIET
                ));
            }
        } else {
            self.quiet_windows += 1;
            if alarmed {
                failures.push(format!("op {index}: alarm on a quiet window"));
            }
        }
        if index < CYCLE {
            self.digest.bool(alarmed);
            self.digest.str(outcome.verdict.label());
            for v in &outcome.votes {
                self.digest.bool(v.suspected);
            }
        }
        Ok(Op {
            traces: BLOCKS as u64,
            latency_ms: Some(latency_ms),
            failures,
        })
    }

    fn digest(&self) -> u64 {
        self.digest.value()
    }

    fn time_to_detect_ops(&self) -> f64 {
        let n = self.detections.len() as u64;
        crate::ledger::ratio(self.detections.iter().sum::<u64>() as f64, n)
    }

    fn extras(&self, _ledger: Option<&Ledger>) -> Vec<Metric> {
        vec![
            Metric::new("quiet_windows", self.quiet_windows as f64, "count"),
            Metric::new(
                "armed_segments_detected",
                self.detections.len() as f64,
                "count",
            ),
            Metric::new(
                "core.pipeline.windows",
                self.pipeline.windows_seen() as f64,
                "count",
            ),
            Metric::new(
                "core.pipeline.rejected",
                self.pipeline.windows_rejected() as f64,
                "count",
            ),
        ]
    }
}
