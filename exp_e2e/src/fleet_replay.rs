//! `fleet_replay`: real traces from fabricated dies replayed through the
//! fleet ingestion service.

use crate::ledger::{ratio, Ledger};
use crate::replay::{self, Channel};
use crate::stats::{self, Digest};
use crate::workload::{self, Metric, Op, Workload};
use crate::{derive, plaintext, KEY, TROJANS};
use emtrust::telemetry::LabelSet;
use emtrust_aes::netlist::run_encryption;
use emtrust_fleet::{
    AdmissionVerdict, BaselineMode, FleetConfig, FleetService, FleetSummary, PipelineStore,
};
use emtrust_silicon::{Channel as Probe, FabricatedChip, Oscilloscope, ProcessVariation};
use emtrust_trojan::{ProtectedChip, TrojanKind};
use std::time::{Duration, Instant};

const DIES: u64 = 2;
/// Dormant traces per die; a chip takes 32 consecutive ones from a
/// seeded offset, so no chip sees the same trace twice.
const POOL_DORMANT: usize = 40;
/// Armed traces per die and Trojan: two rounds of one armed chip.
const POOL_ARMED: usize = 8;
const BATCH: usize = 4;
const ROUNDS: u64 = 8;
/// One chip in ten switches to armed traces for its last two rounds.
const ARMED_EVERY: u64 = 10;
const ARMED_ROUNDS: u64 = 2;
/// Chips per service lifetime (one cycle). Above the store's 512 hot
/// slots, so every cycle evicts. The unit tests keep one armed chip.
const CHIPS_PER_CYCLE: u64 = if cfg!(test) { ARMED_EVERY } else { 1024 };
/// How long the producer backs off after a `Throttled` admission, per
/// batch queued at or above the throttle watermark. A fixed 200 µs pause
/// let the queue fill and shed batches whenever a busy host slowed the
/// shard below one batch per pause; growing the pause with the depth
/// holds the queue near the watermark.
const THROTTLE_PAUSE: Duration = Duration::from_micros(200);

const STREAM_PT: u64 = 1;
const STREAM_DIE: u64 = 2;
const STREAM_POOL: u64 = 3;
const STREAM_OFFSET: u64 = 4;

/// The on-chip channel's front-end at 16 bits. The stock 12-bit channel
/// repeats about 29 % of adjacent samples on clean traces, which the
/// fleet store's default sanitizer rejects as clock jitter.
fn front_end() -> Result<Oscilloscope, String> {
    let stock = Oscilloscope::onchip_channel();
    Oscilloscope::new(
        stock.bandwidth_hz(),
        stock.input_noise_rms_v(),
        16,
        stock.full_scale_v(),
    )
    .map_err(|e| e.to_string())
}

/// One shard, otherwise the service defaults: 256-batch queue, throttle
/// at half full, 8 golden traces per chip, 512 hot chips per shard.
fn config() -> FleetConfig {
    FleetConfig {
        shards: 1,
        ..FleetConfig::default()
    }
}

pub struct Chips {
    trojan: ProtectedChip,
}

impl Chips {
    pub fn new() -> Self {
        Self {
            trojan: ProtectedChip::with_all_trojans(),
        }
    }
}

/// One die's pre-acquired traces.
struct Pool {
    dormant: Vec<Vec<f64>>,
    /// Per Trojan, in [`TROJANS`] order.
    armed: Vec<Vec<Vec<f64>>>,
}

pub struct FleetReplay {
    seed: u64,
    pools: Vec<Pool>,
    service: Option<FleetService>,
    /// The same batches run serially through one store (traced runs).
    store: Option<PipelineStore>,
    cycle_started: Instant,
    /// Traces in accepted batches this cycle.
    delivered: u64,
    /// Chips that received armed traces this cycle.
    armed_chips: Vec<String>,
    /// Whether the current chip's armed rounds have alarmed yet.
    chip_alarmed: bool,
    digest: Digest,
    throttled: u64,
    shed: u64,
    fits: u64,
    evictions: u64,
    peak_depth: usize,
    cycles: u64,
    drain_ns: u64,
    service_ns: u64,
    /// Armed batches to the first alarm, per armed chip (traced runs).
    detections: Vec<u64>,
    /// Wall time of each admission call, in microseconds (traced runs).
    admit_us: Vec<f64>,
}

impl FleetReplay {
    pub fn setup(
        chips: &Chips,
        seed: u64,
        mut ledger: Option<&mut Ledger>,
    ) -> Result<Self, String> {
        let chip = &chips.trojan;
        let pt = plaintext(derive(seed, STREAM_PT, 0));
        let mut digest = Digest::default();
        crate::check_ciphertexts(chip, &[pt], &mut digest)?;
        let scope = front_end()?;
        let mut pools = Vec::new();
        for d in 0..DIES {
            let id = derive(seed, STREAM_DIE, d) % 1_000_000;
            let fabricate = || {
                let mut fab =
                    FabricatedChip::fabricate(chip.netlist(), id, ProcessVariation::nominal())
                        .map_err(|e| e.to_string())?;
                fab.set_scope(Probe::OnChipSensor, scope.clone());
                Ok::<_, String>(fab)
            };
            let (fab, sensor) = match ledger.as_deref_mut() {
                Some(l) => (
                    l.reference("silicon.fabricate", 0, fabricate)?,
                    Some(l.segment(|l| replay::fabricated_sensor(l, chip, id))?),
                ),
                None => (fabricate()?, None),
            };
            let die = Die {
                chip,
                pt,
                fab: &fab,
                replay: sensor.as_ref().map(|s| Channel {
                    sensor: s,
                    scope: Some((&scope, id)),
                }),
            };
            let mut campaign = |k: u64, armed: Option<TrojanKind>, n: usize| {
                let seed = derive(seed, STREAM_POOL, d * 8 + k);
                die.acquire(ledger.as_deref_mut(), armed, n, seed, &mut digest)
            };
            let dormant = campaign(0, None, POOL_DORMANT)?;
            let armed = (1..)
                .zip(TROJANS)
                .map(|(k, kind)| campaign(k, Some(kind), POOL_ARMED))
                .collect::<Result<_, _>>()?;
            pools.push(Pool { dormant, armed });
        }
        Ok(Self {
            seed,
            pools,
            service: None,
            store: None,
            cycle_started: Instant::now(),
            delivered: 0,
            armed_chips: Vec::new(),
            chip_alarmed: false,
            digest,
            throttled: 0,
            shed: 0,
            fits: 0,
            evictions: 0,
            peak_depth: 0,
            cycles: 0,
            drain_ns: 0,
            service_ns: 0,
            detections: Vec::new(),
            admit_us: Vec::new(),
        })
    }

    /// Round `round` of chip `chip` in cycle `cycle`, and the Trojan
    /// armed in it.
    fn batch(&self, cycle: u64, chip: u64, round: u64) -> (Vec<Vec<f64>>, Option<TrojanKind>) {
        let pool = &self.pools[(chip % DIES) as usize];
        let armed = (chip % ARMED_EVERY == ARMED_EVERY - 1 && round >= ROUNDS - ARMED_ROUNDS)
            .then(|| (chip / ARMED_EVERY) as usize % TROJANS.len());
        let offset = derive(self.seed, STREAM_OFFSET, (cycle << 32) | chip) as usize;
        let batch = (0..BATCH)
            .map(|j| {
                let t = round as usize * BATCH + j;
                match armed {
                    Some(k) => pool.armed[k][t % POOL_ARMED].clone(),
                    None => pool.dormant[offset.wrapping_add(t) % POOL_DORMANT].clone(),
                }
            })
            .collect();
        (batch, armed.map(|k| TROJANS[k]))
    }
}

/// A fabricated die the pool is acquired from.
struct Die<'a> {
    chip: &'a ProtectedChip,
    pt: [u8; 16],
    fab: &'a FabricatedChip,
    replay: Option<Channel<'a>>,
}

impl Die<'_> {
    /// The benchmark's acquisition loop: the serial branch of
    /// `TestBench::collect_with` with the die's own measurement call.
    fn measure(
        &self,
        armed: Option<TrojanKind>,
        n: usize,
        seed: u64,
    ) -> Result<(Vec<Vec<f64>>, u64), String> {
        let mut sim = self.chip.simulator().map_err(|e| e.to_string())?;
        self.chip.disarm_all(&mut sim);
        if let Some(kind) = armed {
            self.chip.arm(&mut sim, kind, true);
        }
        let _ = run_encryption(&mut sim, self.chip.aes_ports(), KEY, self.pt);
        let mut toggles = 0;
        let traces = (0..n)
            .map(|i| {
                let (rec, ct) = replay::record(&mut sim, self.chip, KEY, &[self.pt], armed);
                replay::check_ciphertexts(KEY, &[self.pt], &ct)?;
                toggles += rec.activity.total_toggles() as u64;
                let trace = self
                    .fab
                    .measure_with(
                        self.chip.netlist(),
                        &rec.activity,
                        Probe::OnChipSensor,
                        rec.leak.as_deref(),
                        &[],
                        replay::trace_seed(seed, i),
                        1,
                    )
                    .map_err(|e| e.to_string())?;
                Ok(trace.into_samples())
            })
            .collect::<Result<_, String>>()?;
        Ok((traces, toggles))
    }

    fn replay(
        &self,
        l: &mut Ledger,
        armed: Option<TrojanKind>,
        n: usize,
        seed: u64,
    ) -> Result<Vec<Vec<f64>>, String> {
        let channel = self.replay.as_ref().ok_or("die has no replay channel")?;
        let mut sim = replay::simulator(l, self.chip, KEY, armed, Some(self.pt))?;
        (0..n)
            .map(|i| {
                let rec = replay::encrypt(l, &mut sim, self.chip, KEY, &[self.pt], armed)?;
                channel.measure(l, self.chip, &rec, &[], replay::trace_seed(seed, i), 1)
            })
            .collect()
    }

    fn acquire(
        &self,
        ledger: Option<&mut Ledger>,
        armed: Option<TrojanKind>,
        n: usize,
        seed: u64,
        digest: &mut Digest,
    ) -> Result<Vec<Vec<f64>>, String> {
        let (traces, toggles) = match ledger {
            None => self.measure(armed, n, seed)?,
            Some(l) => {
                let program =
                    l.reference("acquisition", n as u64, || self.measure(armed, n, seed))?;
                let replayed = l.segment(|l| self.replay(l, armed, n, seed))?;
                if !replay::same_traces(&program.0, &replayed) {
                    return Err(format!(
                        "replayed {armed:?} pool traces differ from the program's"
                    ));
                }
                program
            }
        };
        digest.u64(toggles);
        Ok(traces)
    }
}

impl Workload for FleetReplay {
    fn cycle_len(&self) -> u64 {
        CHIPS_PER_CYCLE * ROUNDS
    }

    fn detect_span(&self) -> &'static str {
        "fleet.store"
    }

    /// The shard thread goes on scoring queued batches between ops; the
    /// epochs are short enough for the probes around them alone.
    fn probe_between_ops(&self) -> bool {
        false
    }

    fn op(&mut self, index: u64, ledger: Option<&mut Ledger>) -> Result<Op, String> {
        let cycle = index / self.cycle_len();
        let chip = index % self.cycle_len() / ROUNDS;
        let round = index % ROUNDS;
        if self.service.is_none() {
            self.service = Some(FleetService::new(config()).map_err(|e| e.to_string())?);
            self.cycle_started = Instant::now();
            if ledger.is_some() {
                let cfg = config();
                self.store = Some(PipelineStore::new(
                    cfg.store,
                    cfg.golden_traces,
                    BaselineMode::Golden,
                    LabelSet::new(),
                ));
            }
        }
        let chip_id = format!("chip-{chip:05}");
        let (batch, armed) = self.batch(cycle, chip, round);
        let (service, store) = (
            self.service.as_ref().ok_or("no service")?,
            self.store.as_mut(),
        );
        let (receipt, replayed) = match (ledger, store) {
            (Some(l), Some(store)) => l.segment(|l| {
                let outcome = l.span("fleet.store", BATCH as u64, || {
                    store.ingest(&chip_id, &batch)
                });
                let t0 = Instant::now();
                let receipt = l.span("fleet.admit", BATCH as u64, || {
                    service.ingest(&chip_id, batch)
                });
                self.admit_us.push(t0.elapsed().as_secs_f64() * 1e6);
                (receipt, Some(outcome))
            }),
            _ => (service.ingest(&chip_id, batch), None),
        };
        let receipt = receipt.map_err(|e| e.to_string())?;

        let mut failures = Vec::new();
        let alarms = match replayed {
            Some(Ok(outcome)) => outcome.alarms,
            Some(Err(e)) => {
                failures.push(format!("op {index}: serial store replay: {e}"));
                0
            }
            None => 0,
        };
        match receipt.verdict {
            AdmissionVerdict::Admitted => {}
            AdmissionVerdict::Throttled => {
                let above = receipt.depth.saturating_sub(config().throttle_depth()) + 1;
                std::thread::sleep(THROTTLE_PAUSE.saturating_mul(above as u32));
            }
            refused => failures.push(format!("op {index}: {chip_id} batch {}", refused.label())),
        }
        if receipt.verdict.accepted() {
            self.delivered += BATCH as u64;
        }
        if armed.is_some() {
            let first_armed = round == ROUNDS - ARMED_ROUNDS;
            if first_armed {
                self.armed_chips.push(chip_id);
                self.chip_alarmed = false;
            }
            if alarms > 0 && !self.chip_alarmed {
                self.chip_alarmed = true;
                self.detections.push(round - (ROUNDS - ARMED_ROUNDS) + 1);
            }
        }
        Ok(Op {
            traces: BATCH as u64,
            latency_ms: None,
            failures,
        })
    }

    /// Drains the cycle's service. The fleet's op is this whole epoch:
    /// a single admission call takes about a microsecond and its median
    /// flips between runs with how often the shard thread holds the
    /// queue, while an epoch's time from the first admission to the
    /// drained summary repeats.
    fn end_cycle(&mut self, cycle: u64, mut ledger: Option<&mut Ledger>) -> Result<Op, String> {
        let Some(service) = self.service.take() else {
            return Ok(Op::default());
        };
        let t0 = Instant::now();
        let summary: FleetSummary = match ledger.as_deref_mut() {
            Some(l) => l.segment(|l| l.span("fleet.drain", 0, || service.finish())),
            None => service.finish(),
        }
        .map_err(|e| e.to_string())?;
        self.drain_ns += t0.elapsed().as_nanos() as u64;
        let epoch = self.cycle_started.elapsed();
        self.service_ns += epoch.as_nanos() as u64;
        self.cycles += 1;

        let mut failures = Vec::new();
        let accounted: u64 = summary
            .chips
            .iter()
            .map(|c| c.stats.scored + c.stats.rejected)
            .sum();
        if accounted != self.delivered {
            failures.push(format!(
                "cycle {cycle}: {accounted} traces scored or rejected of {} delivered",
                self.delivered
            ));
        }
        for id in &self.armed_chips {
            if summary.chip(id).is_none_or(|c| c.stats.alarms == 0) {
                failures.push(format!("cycle {cycle}: armed {id} raised no alarm"));
            }
        }
        if let Some(store) = self.store.take() {
            let serial = store.chip_stats();
            let sharded: Vec<_> = summary
                .chips
                .iter()
                .map(|c| (c.chip_id.clone(), c.stats))
                .collect();
            if serial != sharded {
                failures.push(format!(
                    "cycle {cycle}: the serial store replay disagrees with the service"
                ));
            }
            if let Some(l) = ledger {
                l.count("core.fingerprint.fits", store.fits());
            }
        }
        let shard = summary.shards.first().ok_or("service reported no shard")?;
        self.throttled += summary.throttled;
        self.shed += summary.shed;
        self.fits += shard.fits;
        self.evictions += shard.evictions;
        self.peak_depth = self.peak_depth.max(summary.peak_depth);
        if cycle == 0 {
            for c in &summary.chips {
                self.digest.str(&c.chip_id);
                self.digest.u64(c.stats.scored);
                self.digest.u64(c.stats.rejected);
                self.digest.u64(c.stats.alarms);
            }
            // Admitted and throttled split by timing; their sum does not.
            for n in [
                summary.admitted + summary.throttled,
                summary.shed,
                summary.quarantined,
                shard.fits,
                shard.refits,
                shard.evictions,
            ] {
                self.digest.u64(n);
            }
        }
        self.delivered = 0;
        self.armed_chips.clear();
        Ok(Op {
            traces: 0,
            latency_ms: Some(epoch.as_secs_f64() * 1e3),
            failures,
        })
    }

    fn digest(&self) -> u64 {
        self.digest.value()
    }

    fn time_to_detect_ops(&self) -> f64 {
        ratio(
            self.detections.iter().sum::<u64>() as f64,
            self.detections.len() as u64,
        )
    }

    fn extras(&self, ledger: Option<&Ledger>) -> Vec<Metric> {
        let mut out = vec![
            Metric::new("fleet.throttled", self.throttled as f64, "count"),
            Metric::new("fleet.shed", self.shed as f64, "count"),
            Metric::new("fleet.fits", self.fits as f64, "count"),
            Metric::new("fleet.evictions", self.evictions as f64, "count"),
            Metric::new("fleet.peak_depth", self.peak_depth as f64, "count"),
            Metric::new("fleet.cycles", self.cycles as f64, "count"),
            Metric::new(
                "fleet.drain_ms",
                ratio(self.drain_ns as f64 / 1e6, self.cycles),
                "ms",
            ),
        ];
        if let Some(l) = ledger {
            let store = l.get("fleet.store");
            out.push(Metric::new(
                "fleet.store_ns_per_trace",
                store.ns_per_item(),
                "ns",
            ));
            out.push(Metric::new(
                "fleet.admit_ns_per_trace",
                l.get("fleet.admit").ns_per_item(),
                "ns",
            ));
            out.push(Metric::new(
                "fleet.admit_p50_us",
                stats::median(&self.admit_us).unwrap_or(0.0),
                "us",
            ));
            out.extend(workload::tail_metrics(
                "fleet.admit_tail_us",
                "us",
                &self.admit_us,
            ));
            // Service wall time beyond the store's own work: admission,
            // queueing, the shard thread and the drain.
            out.push(Metric::new(
                "fleet.handoff_ns_per_trace",
                ratio(self.service_ns as f64 - store.ns as f64, store.items),
                "ns",
            ));
        }
        out
    }
}
