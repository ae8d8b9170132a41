//! The fleet ingestion service: thread-per-shard workers behind bounded
//! queues, with admission control, per-chip circuit breakers and
//! deadline-budgeted dispatch.
//!
//! ```text
//!            ┌───────────────── FleetService::ingest ─────────────────┐
//!            │ chip_key(chip_id) % shards                             │
//!            ▼                                                        │
//!   ┌─ circuit breaker ─┐   open    ┌──────────────┐                  │
//!   │ per-chip, bulkhead ├─────────▶│ Quarantined  │ (no queue slot)  │
//!   └─────────┬─────────┘           └──────────────┘                  │
//!             │ closed / half-open probe                              │
//!             ▼                                                       │
//!   ┌─ bounded queue ───┐   full after deadline budget                │
//!   │ try_send + jitter ├───────────┬─────────────────────────────────┘
//!   └─────────┬─────────┘           ▼
//!             │             healthy chip → Shed (newest batch dropped)
//!             │             follow-up chip → blocking send (never shed)
//!             ▼
//!     shard worker thread → PipelineStore → per-chip DetectionPipeline
//! ```
//!
//! Every refusal — shed or quarantine — leaves a `fleet`-domain
//! decision record in the telemetry plane, so operators can answer
//! "why did chip X's batch disappear" from forensics alone.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

use emtrust::telemetry::{self, DecisionRecord, LabelSet};
use emtrust::{RetryPolicy, SensorHealth};

use crate::breaker::{BreakerState, CircuitBreaker};
use crate::chip_key;
use crate::config::FleetConfig;
use crate::store::{ChipStats, PipelineStore};
use crate::FleetError;

/// Admission control's verdict for one batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionVerdict {
    /// Enqueued below the throttle watermark.
    Admitted,
    /// Enqueued, but the shard queue is above its high-watermark — the
    /// caller should slow down.
    Throttled,
    /// Refused: the queue stayed full through the deadline budget and
    /// the chip is healthy, so its newest batch was dropped.
    Shed,
    /// Refused at the circuit breaker: the chip is quarantined and the
    /// batch never consumed a queue slot.
    Quarantined,
}

impl AdmissionVerdict {
    /// Stable snake_case label for metrics and forensics.
    pub fn label(&self) -> &'static str {
        match self {
            AdmissionVerdict::Admitted => "admitted",
            AdmissionVerdict::Throttled => "throttled",
            AdmissionVerdict::Shed => "shed",
            AdmissionVerdict::Quarantined => "quarantined",
        }
    }

    /// Whether the batch actually reached a shard queue.
    pub fn accepted(&self) -> bool {
        matches!(
            self,
            AdmissionVerdict::Admitted | AdmissionVerdict::Throttled
        )
    }
}

/// What happened to one `ingest` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestReceipt {
    /// The admission verdict.
    pub verdict: AdmissionVerdict,
    /// Shard the chip hashes to.
    pub shard: usize,
    /// Dispatch attempts made (1 = first try succeeded).
    pub attempts: u32,
    /// Jittered backoff charged against the deadline budget, in
    /// microseconds.
    pub backoff_total_us: u64,
    /// Shard queue depth observed right after this call.
    pub depth: usize,
}

/// One chip's final accounting in a [`FleetSummary`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChipStatus {
    /// The chip id as ingested (corrupted ids appear as their own
    /// chips — exactly what the transport fault model intends).
    pub chip_id: String,
    /// Shard the chip hashes to.
    pub shard: usize,
    /// Cumulative per-chip trace accounting from the store.
    pub stats: ChipStats,
    /// Breaker trips over the chip's lifetime.
    pub breaker_trips: u64,
    /// Admissions refused while quarantined.
    pub breaker_refusals: u64,
    /// Whether the chip ended the run quarantined (breaker not closed).
    pub quarantined: bool,
    /// Last sensor-health state the worker observed.
    pub health: SensorHealth,
}

/// One shard's final accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// Shard index.
    pub shard: usize,
    /// Highest queue depth ever observed.
    pub peak_depth: usize,
    /// Batches the worker drained and processed.
    pub processed_batches: u64,
    /// Traces scored across the shard's chips.
    pub scored: u64,
    /// Traces rejected across the shard's chips.
    pub rejected: u64,
    /// Fused alarms across the shard's chips.
    pub alarms: u64,
    /// LRU evictions the shard's store performed.
    pub evictions: u64,
    /// Returning-chip re-fits the shard's store performed.
    pub refits: u64,
    /// Cold-start fits the shard's store performed.
    pub fits: u64,
    /// Hot chips resident at shutdown.
    pub hot: usize,
    /// Cold records retained at shutdown.
    pub cold: usize,
}

/// The whole fleet's final accounting, produced by
/// [`FleetService::finish`].
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSummary {
    /// Per-chip statuses, sorted by chip id.
    pub chips: Vec<ChipStatus>,
    /// Per-shard snapshots, in shard order.
    pub shards: Vec<ShardSnapshot>,
    /// Batches admitted below the watermark.
    pub admitted: u64,
    /// Batches admitted above the watermark.
    pub throttled: u64,
    /// Batches shed.
    pub shed: u64,
    /// Batches refused at a circuit breaker.
    pub quarantined: u64,
    /// Highest queue depth observed on any shard.
    pub peak_depth: usize,
}

impl FleetSummary {
    /// Total traces scored across the fleet.
    pub fn total_scored(&self) -> u64 {
        self.shards.iter().map(|s| s.scored).sum()
    }

    /// Total fused alarms across the fleet.
    pub fn total_alarms(&self) -> u64 {
        self.shards.iter().map(|s| s.alarms).sum()
    }

    /// The status of one chip, if it was ever admitted.
    pub fn chip(&self, chip_id: &str) -> Option<&ChipStatus> {
        self.chips.iter().find(|c| c.chip_id == chip_id)
    }
}

struct Job {
    chip_id: Arc<str>,
    traces: Vec<Vec<f64>>,
}

struct ChipControl {
    /// The chip's id, interned once: every batch's [`Job`] shares it.
    id: Arc<str>,
    breaker: CircuitBreaker,
    health: SensorHealth,
    submitted: u64,
}

#[derive(Default)]
struct ShardCounters {
    admitted: AtomicU64,
    throttled: AtomicU64,
    shed: AtomicU64,
    quarantined: AtomicU64,
    processed_batches: AtomicU64,
}

struct ShardShared {
    depth: AtomicUsize,
    peak_depth: AtomicUsize,
    control: Mutex<HashMap<String, ChipControl>>,
    counters: ShardCounters,
    /// The trace buffers of the batches the worker is done with, handed
    /// back so that `ingest`, on the producer thread that allocated
    /// them, frees them.
    spent: Mutex<Spent>,
}

/// Finished batches' trace buffers.
type Spent = Vec<Vec<Vec<f64>>>;

impl ShardShared {
    fn lock_control(&self) -> MutexGuard<'_, HashMap<String, ChipControl>> {
        // A worker panic mid-update is survivable: breaker/health state
        // is monotone bookkeeping, so poison recovery is safe.
        self.control.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_spent(&self) -> MutexGuard<'_, Spent> {
        // The list only ever holds buffers to free.
        self.spent.lock().unwrap_or_else(|e| e.into_inner())
    }
}

struct StoreReport {
    chip_stats: Vec<(String, ChipStats)>,
    evictions: u64,
    refits: u64,
    fits: u64,
    hot: usize,
    cold: usize,
    scored: u64,
    rejected: u64,
    alarms: u64,
}

struct Shard {
    tx: Option<SyncSender<Job>>,
    shared: Arc<ShardShared>,
    handle: Option<JoinHandle<StoreReport>>,
    /// The producers' side of `shared.spent`: swapped with it, then
    /// emptied with the worker's list unlocked, so the worker never waits
    /// on a free and neither list is reallocated.
    freeing: Mutex<Spent>,
}

/// The fleet ingestion service. Cheap to share across producer threads
/// (`ingest` takes `&self`); consumed by [`FleetService::finish`].
pub struct FleetService {
    cfg: FleetConfig,
    shards: Vec<Shard>,
    dispatch_policy: RetryPolicy,
}

impl FleetService {
    /// Validates `cfg` and spawns one worker thread per shard.
    pub fn new(cfg: FleetConfig) -> Result<Self, FleetError> {
        cfg.validate()?;
        let dispatch_policy = cfg.dispatch.retry_policy();
        let mut shards = Vec::with_capacity(cfg.shards);
        for shard_index in 0..cfg.shards {
            let (tx, rx) = sync_channel::<Job>(cfg.queue_capacity);
            let shared = Arc::new(ShardShared {
                depth: AtomicUsize::new(0),
                peak_depth: AtomicUsize::new(0),
                control: Mutex::new(HashMap::new()),
                counters: ShardCounters::default(),
                spent: Mutex::new(Vec::new()),
            });
            let worker_shared = Arc::clone(&shared);
            let store_cfg = cfg.store;
            let golden_traces = cfg.golden_traces;
            let baseline_mode = cfg.baseline_mode;
            let handle = std::thread::Builder::new()
                .name(format!("fleet-shard-{shard_index}"))
                .spawn(move || {
                    shard_worker(
                        shard_index,
                        store_cfg,
                        golden_traces,
                        baseline_mode,
                        worker_shared,
                        rx,
                    )
                })
                .map_err(|_| FleetError::ShardDown { shard: shard_index })?;
            shards.push(Shard {
                tx: Some(tx),
                shared,
                handle: Some(handle),
                freeing: Mutex::new(Vec::new()),
            });
        }
        Ok(FleetService {
            cfg,
            shards,
            dispatch_policy,
        })
    }

    /// The validated configuration the service runs with.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// Shard index `chip_id` hashes to.
    pub fn shard_of(&self, chip_id: &str) -> usize {
        (chip_key(chip_id) % self.cfg.shards as u64) as usize
    }

    /// Admits one batch of traces for `chip_id`, returning how the
    /// admission went. Never panics and never blocks indefinitely —
    /// except for chips in health follow-up, whose batches block until
    /// a queue slot frees (they are never shed).
    pub fn ingest(
        &self,
        chip_id: &str,
        traces: Vec<Vec<f64>>,
    ) -> Result<IngestReceipt, FleetError> {
        let shard_index = self.shard_of(chip_id);
        let shard = &self.shards[shard_index];
        // Free the shard's finished batches here, where they were
        // allocated: a buffer freed on the worker thread costs the
        // allocator a cross-thread return.
        {
            let mut freeing = shard.freeing.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::swap(&mut *shard.shared.lock_spent(), &mut *freeing);
            freeing.clear();
        }
        // Only the refusal and throttle paths label their metrics, so
        // an admitted batch builds no label set.
        let labels = || {
            LabelSet::new()
                .with("shard", shard_index.to_string())
                .with("chip", chip_id)
        };

        // 1. Circuit breaker — the bulkhead. Refusal consumes no queue
        //    slot and no dispatch budget.
        let (follow_up, submitted, last_health, id) = {
            let mut control = shard.shared.lock_control();
            // A known chip is found without allocating its id.
            let chip = match control.get_mut(chip_id) {
                Some(chip) => chip,
                None => control
                    .entry(chip_id.to_string())
                    .or_insert_with(|| ChipControl {
                        id: Arc::from(chip_id),
                        breaker: CircuitBreaker::new(self.cfg.breaker),
                        health: SensorHealth::Healthy,
                        submitted: 0,
                    }),
            };
            if !chip.breaker.admit() {
                shard
                    .shared
                    .counters
                    .quarantined
                    .fetch_add(1, Ordering::Relaxed);
                drop(control);
                let labels = labels();
                telemetry::counter_with("fleet.quarantine_refusals", &labels, 1);
                self.forensics(&labels, "quarantined", "circuit_open");
                return Ok(IngestReceipt {
                    verdict: AdmissionVerdict::Quarantined,
                    shard: shard_index,
                    attempts: 0,
                    backoff_total_us: 0,
                    depth: shard.shared.depth.load(Ordering::Relaxed),
                });
            }
            chip.submitted += 1;
            (
                chip.health.needs_followup(),
                chip.submitted,
                chip.health,
                Arc::clone(&chip.id),
            )
        };

        // 2. Dispatch under a deadline budget with jittered retry.
        let tx = shard
            .tx
            .as_ref()
            .ok_or(FleetError::ShardDown { shard: shard_index })?;
        let mut job = Job {
            chip_id: id,
            traces,
        };
        let mut attempts: u32 = 0;
        let mut backoff_total_us: u64 = 0;
        let seed = self
            .cfg
            .seed
            .wrapping_add(chip_key(chip_id))
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ submitted;
        // The depth slot is reserved *before* each send and rolled back
        // on failure: if the increment came after the send, the worker
        // could consume the job and decrement first, driving the
        // counter below zero.
        let mut depth;
        loop {
            attempts += 1;
            depth = shard.shared.depth.fetch_add(1, Ordering::Relaxed) + 1;
            match tx.try_send(job) {
                Ok(()) => break,
                Err(TrySendError::Disconnected(_)) => {
                    shard.shared.depth.fetch_sub(1, Ordering::Relaxed);
                    return Err(FleetError::ShardDown { shard: shard_index });
                }
                Err(TrySendError::Full(returned)) => {
                    shard.shared.depth.fetch_sub(1, Ordering::Relaxed);
                    job = returned;
                    let out_of_budget = attempts > self.cfg.dispatch.retry_max
                        || backoff_total_us >= self.cfg.dispatch.deadline_us;
                    if out_of_budget {
                        if follow_up {
                            // Never shed a chip under health follow-up:
                            // block until the shard drains.
                            depth = shard.shared.depth.fetch_add(1, Ordering::Relaxed) + 1;
                            if tx.send(job).is_err() {
                                shard.shared.depth.fetch_sub(1, Ordering::Relaxed);
                                return Err(FleetError::ShardDown { shard: shard_index });
                            }
                            break;
                        }
                        shard.shared.counters.shed.fetch_add(1, Ordering::Relaxed);
                        let labels = labels();
                        telemetry::counter_with("fleet.shed", &labels, 1);
                        self.forensics_health(
                            &labels,
                            "shed",
                            "queue_full_past_deadline",
                            last_health,
                        );
                        return Ok(IngestReceipt {
                            verdict: AdmissionVerdict::Shed,
                            shard: shard_index,
                            attempts,
                            backoff_total_us,
                            depth: shard.shared.depth.load(Ordering::Relaxed),
                        });
                    }
                    let backoff = self.dispatch_policy.backoff_us(attempts, seed);
                    backoff_total_us = backoff_total_us.saturating_add(backoff);
                    // Yield real time (bounded) so the worker can
                    // drain; the nominal jittered wait is *recorded*
                    // against the budget, mirroring RetryPolicy.
                    std::thread::sleep(std::time::Duration::from_micros(backoff.min(1_000)));
                }
            }
        }

        shard.shared.peak_depth.fetch_max(depth, Ordering::Relaxed);
        if backoff_total_us > 0 {
            telemetry::observe("fleet.dispatch_backoff_us", backoff_total_us as f64);
        }
        let verdict = if depth >= self.cfg.throttle_depth() {
            shard
                .shared
                .counters
                .throttled
                .fetch_add(1, Ordering::Relaxed);
            telemetry::counter_with("fleet.throttled", &labels(), 1);
            AdmissionVerdict::Throttled
        } else {
            shard
                .shared
                .counters
                .admitted
                .fetch_add(1, Ordering::Relaxed);
            AdmissionVerdict::Admitted
        };
        Ok(IngestReceipt {
            verdict,
            shard: shard_index,
            attempts,
            backoff_total_us,
            depth,
        })
    }

    fn forensics(&self, labels: &LabelSet, verdict: &str, reason: &str) {
        self.forensics_health(labels, verdict, reason, SensorHealth::Healthy);
    }

    fn forensics_health(
        &self,
        labels: &LabelSet,
        verdict: &str,
        reason: &str,
        health: SensorHealth,
    ) {
        let mut rec = DecisionRecord::new("fleet");
        rec.verdict = verdict.to_string();
        rec.reject_reason = Some(reason.to_string());
        rec.labels = labels.clone();
        rec.health = health.label().to_string();
        telemetry::decision(&rec);
    }

    /// Drains every shard, joins the workers and merges their reports.
    pub fn finish(mut self) -> Result<FleetSummary, FleetError> {
        let mut shards_out = Vec::with_capacity(self.shards.len());
        let mut chips: Vec<ChipStatus> = Vec::new();
        let mut admitted = 0u64;
        let mut throttled = 0u64;
        let mut shed = 0u64;
        let mut quarantined = 0u64;
        let mut peak_depth = 0usize;
        for (shard_index, mut shard) in self.shards.drain(..).enumerate() {
            drop(shard.tx.take()); // closes the queue; worker drains and exits
            let report = match shard.handle.take() {
                Some(handle) => handle
                    .join()
                    .map_err(|_| FleetError::ShardDown { shard: shard_index })?,
                None => return Err(FleetError::ShardDown { shard: shard_index }),
            };
            let shared = &shard.shared;
            admitted += shared.counters.admitted.load(Ordering::Relaxed);
            throttled += shared.counters.throttled.load(Ordering::Relaxed);
            shed += shared.counters.shed.load(Ordering::Relaxed);
            quarantined += shared.counters.quarantined.load(Ordering::Relaxed);
            let shard_peak = shared.peak_depth.load(Ordering::Relaxed);
            peak_depth = peak_depth.max(shard_peak);
            let control = shard.shared.lock_control();
            for (chip_id, stats) in report.chip_stats {
                let (trips, refusals, open, health) = control
                    .get(&chip_id)
                    .map(|c| {
                        (
                            c.breaker.lifetime_trips(),
                            c.breaker.refusals(),
                            c.breaker.state() != BreakerState::Closed,
                            c.health,
                        )
                    })
                    .unwrap_or((0, 0, false, SensorHealth::Healthy));
                chips.push(ChipStatus {
                    chip_id,
                    shard: shard_index,
                    stats,
                    breaker_trips: trips,
                    breaker_refusals: refusals,
                    quarantined: open,
                    health,
                });
            }
            drop(control);
            shards_out.push(ShardSnapshot {
                shard: shard_index,
                peak_depth: shard_peak,
                processed_batches: shared.counters.processed_batches.load(Ordering::Relaxed),
                scored: report.scored,
                rejected: report.rejected,
                alarms: report.alarms,
                evictions: report.evictions,
                refits: report.refits,
                fits: report.fits,
                hot: report.hot,
                cold: report.cold,
            });
        }
        chips.sort_by(|a, b| a.chip_id.cmp(&b.chip_id));
        Ok(FleetSummary {
            chips,
            shards: shards_out,
            admitted,
            throttled,
            shed,
            quarantined,
            peak_depth,
        })
    }
}

impl Drop for FleetService {
    fn drop(&mut self) {
        // finish() drains `shards`; on an un-finished drop, close the
        // queues and detach — workers exit once their queues drain.
        for shard in &mut self.shards {
            drop(shard.tx.take());
        }
        for shard in &mut self.shards {
            if let Some(handle) = shard.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

fn shard_worker(
    shard_index: usize,
    store_cfg: crate::config::StoreConfig,
    golden_traces: usize,
    baseline_mode: crate::config::BaselineMode,
    shared: Arc<ShardShared>,
    rx: Receiver<Job>,
) -> StoreReport {
    let shard_labels = LabelSet::new().with("shard", shard_index.to_string());
    let mut store = PipelineStore::new(
        store_cfg,
        golden_traces,
        baseline_mode,
        shard_labels.clone(),
    );
    let mut scored = 0u64;
    let mut rejected = 0u64;
    let mut alarms = 0u64;
    while let Ok(job) = rx.recv() {
        shared.depth.fetch_sub(1, Ordering::Relaxed);
        match store.ingest(&job.chip_id, &job.traces) {
            Ok(outcome) => {
                scored += (outcome.scored + outcome.warmup) as u64;
                rejected += outcome.rejected as u64;
                alarms += outcome.alarms as u64;
                telemetry::counter_with("fleet.traces", &shard_labels, job.traces.len() as u64);
                let mut control = shared.lock_control();
                if let Some(chip) = control.get_mut(&*job.chip_id) {
                    let was_open = chip.breaker.state() != BreakerState::Closed;
                    chip.breaker
                        .record(outcome.consecutive_rejections, outcome.fully_rejected);
                    chip.health = outcome.health;
                    if !was_open && chip.breaker.state() == BreakerState::Open {
                        let labels = shard_labels.with("chip", &*job.chip_id);
                        telemetry::counter_with("fleet.breaker_trips", &labels, 1);
                        let mut rec = DecisionRecord::new("fleet");
                        rec.verdict = "quarantined".to_string();
                        rec.reject_reason = Some("breaker_tripped".to_string());
                        rec.labels = labels;
                        rec.health = outcome.health.label().to_string();
                        telemetry::decision(&rec);
                    }
                }
            }
            Err(_) => {
                // A fit failure (e.g. degenerate baseline) must not
                // kill the shard: count it and keep draining.
                rejected += job.traces.len() as u64;
                telemetry::counter_with("fleet.store_errors", &shard_labels, 1);
            }
        }
        shared.lock_spent().push(job.traces);
        // Counted once the batch's breaker feedback is in, so a reader
        // that sees the count also sees the breaker it updated.
        shared
            .counters
            .processed_batches
            .fetch_add(1, Ordering::Release);
    }
    StoreReport {
        chip_stats: store.chip_stats(),
        evictions: store.evictions(),
        refits: store.refits(),
        fits: store.fits(),
        hot: store.hot_len(),
        cold: store.cold_len(),
        scored,
        rejected,
        alarms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(seed: u64) -> Vec<f64> {
        (0..64)
            .map(|i| (i as f64 * 0.2).sin() + (seed as f64 * 1e-4) * (i as f64 * 0.05).cos())
            .collect()
    }

    fn small_config() -> FleetConfig {
        FleetConfig {
            shards: 2,
            queue_capacity: 8,
            golden_traces: 3,
            store: crate::config::StoreConfig {
                baseline_window: 4,
                capacity: 16,
                ..Default::default()
            },
            breaker: crate::config::BreakerConfig {
                trip_after: 4,
                ..Default::default()
            },
            ..FleetConfig::default()
        }
    }

    /// Blocks until every shard worker has finished (breaker feedback
    /// included) every batch its queue accepted.
    fn wait_for_workers(service: &FleetService) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        for shard in &service.shards {
            let c = &shard.shared.counters;
            let accepted = c.admitted.load(Ordering::Relaxed) + c.throttled.load(Ordering::Relaxed);
            while c.processed_batches.load(Ordering::Acquire) < accepted {
                assert!(std::time::Instant::now() < deadline, "shard worker stalled");
                std::thread::yield_now();
            }
        }
    }

    #[test]
    fn clean_fleet_admits_everything_and_reports_per_chip() {
        let service = FleetService::new(small_config()).unwrap();
        for round in 0..6u64 {
            for chip in ["alpha", "bravo", "charlie"] {
                let r = service
                    .ingest(chip, vec![trace(round), trace(round + 100)])
                    .unwrap();
                assert!(r.verdict.accepted(), "{chip} round {round}: {r:?}");
            }
            // A round never fills a queue once the last one has drained,
            // however slowly the workers run.
            wait_for_workers(&service);
        }
        let summary = service.finish().unwrap();
        assert_eq!(summary.chips.len(), 3);
        assert_eq!(summary.shed, 0);
        assert_eq!(summary.quarantined, 0);
        assert_eq!(summary.total_scored(), 36);
        for chip in &summary.chips {
            assert_eq!(chip.stats.scored, 12, "{}", chip.chip_id);
            assert!(!chip.quarantined);
        }
        assert!(summary.peak_depth <= 8 + 1);
    }

    #[test]
    fn poisoned_chip_trips_its_breaker_and_is_quarantined() {
        let service = FleetService::new(small_config()).unwrap();
        // Warm the chip so a fitted pipeline exists to reject traces.
        for round in 0..3u64 {
            service.ingest("victim", vec![trace(round)]).unwrap();
        }
        let nan_batch = || vec![vec![f64::NAN; 64]; 2];
        let mut refused = 0;
        for _ in 0..40 {
            let r = service.ingest("victim", nan_batch()).unwrap();
            if r.verdict == AdmissionVerdict::Quarantined {
                refused += 1;
            } else {
                // Let the worker feed the breaker back before the next
                // admission decision.
                wait_for_workers(&service);
            }
        }
        assert!(refused > 0, "breaker never tripped");
        let summary = service.finish().unwrap();
        let victim = summary.chip("victim").unwrap();
        assert!(victim.breaker_trips >= 1);
        assert!(victim.breaker_refusals >= 1);
        assert!(summary.quarantined >= 1);
    }

    #[test]
    fn shard_of_is_stable() {
        let service = FleetService::new(small_config()).unwrap();
        assert_eq!(service.shard_of("x"), service.shard_of("x"));
        assert!(service.shard_of("x") < 2);
        drop(service);
    }

    #[test]
    fn finish_is_clean_on_an_idle_service() {
        let service = FleetService::new(small_config()).unwrap();
        let summary = service.finish().unwrap();
        assert!(summary.chips.is_empty());
        assert_eq!(summary.peak_depth, 0);
    }
}
