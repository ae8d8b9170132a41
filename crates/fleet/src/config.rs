//! Fleet service configuration: shard topology, queue bounds, breaker
//! thresholds, dispatch deadlines and fingerprint-store sizing.
//!
//! Every knob is validated up front by [`FleetConfig::validate`] so a
//! bad deployment fails at construction, not mid-ingest.

use crate::FleetError;
use emtrust::RetryPolicy;

/// Per-chip circuit-breaker thresholds (see [`crate::breaker`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Trip to `Open` once a chip's pipeline reports this many
    /// *consecutive* rejected traces.
    pub trip_after: u64,
    /// Base quarantine wait, in admission ticks, before the first
    /// half-open probe.
    pub probe_base: u64,
    /// Ceiling on the exponentially growing quarantine wait.
    pub probe_cap: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            trip_after: 8,
            probe_base: 2,
            probe_cap: 32,
        }
    }
}

/// Shard dispatch budget: how hard to try pushing a batch into a full
/// shard queue before giving up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DispatchConfig {
    /// Total simulated-time budget per batch, in microseconds. Retry
    /// backoff is charged against this; once exhausted the batch is
    /// shed (healthy chips) or the send blocks (follow-up chips).
    pub deadline_us: u64,
    /// Maximum re-dispatch attempts after the first try.
    pub retry_max: u32,
    /// Base backoff between dispatch attempts, in microseconds.
    pub retry_base_us: u64,
    /// Ceiling on any single backoff step, in microseconds.
    pub retry_cap_us: u64,
    /// Jitter fraction in `[0, 1]`: each step is drawn uniformly from
    /// `nominal * [1 - jitter, 1 + jitter)`.
    pub retry_jitter: f64,
}

impl DispatchConfig {
    /// The backoff schedule of re-dispatch attempts.
    pub(crate) fn retry_policy(&self) -> RetryPolicy {
        RetryPolicy {
            max_attempts: self.retry_max.saturating_add(1).max(1),
            backoff_base_us: self.retry_base_us,
            backoff_cap_us: self.retry_cap_us,
            backoff_jitter: self.retry_jitter,
            fallback: None,
            max_reject_fraction: 1.0,
        }
    }
}

impl Default for DispatchConfig {
    fn default() -> Self {
        DispatchConfig {
            deadline_us: 20_000,
            retry_max: 3,
            retry_base_us: 50,
            retry_cap_us: 5_000,
            retry_jitter: 0.5,
        }
    }
}

/// Sharded fingerprint-store sizing (see [`crate::store`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Hot per-chip pipelines held per shard before LRU eviction.
    pub capacity: usize,
    /// Rolling-baseline traces retained per chip for (re-)fitting.
    pub baseline_window: usize,
    /// Cold records (evicted chips' baselines + counters) retained per
    /// shard; beyond this the oldest cold record is dropped entirely.
    pub cold_capacity: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            capacity: 512,
            baseline_window: 8,
            cold_capacity: 4096,
        }
    }
}

/// Where a fleet chip's baseline comes from (see
/// [`emtrust::baseline`](emtrust::BaselineSource) for the underlying
/// contract).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum BaselineMode {
    /// Cold-start collects each new chip's first `golden_traces` clean
    /// traces as its golden set, then fits a per-chip fingerprint.
    #[default]
    Golden,
    /// Golden-model-free: each new chip gets a self-calibrating
    /// pipeline immediately and learns a rolling robust baseline from
    /// its own live traffic (`golden_traces` becomes the warm-up
    /// length). No golden fit ever happens.
    SelfCalibrating,
}

impl BaselineMode {
    /// Stable label for telemetry and artifacts.
    pub fn label(&self) -> &'static str {
        match self {
            BaselineMode::Golden => "golden",
            BaselineMode::SelfCalibrating => "self_calibrating",
        }
    }
}

/// Top-level fleet service configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Number of shard workers (threads), each owning a bounded queue
    /// and a slice of the fingerprint store.
    pub shards: usize,
    /// Bounded depth of each shard's MPSC queue, in batches.
    pub queue_capacity: usize,
    /// Fraction of `queue_capacity` above which admissions are still
    /// accepted but flagged [`crate::AdmissionVerdict::Throttled`].
    pub throttle_watermark: f64,
    /// Per-chip circuit-breaker thresholds.
    pub breaker: BreakerConfig,
    /// Shard dispatch deadline/retry budget.
    pub dispatch: DispatchConfig,
    /// Fingerprint-store sizing.
    pub store: StoreConfig,
    /// Seed for every deterministic choice the service makes (dispatch
    /// jitter). Two services with equal seeds and equal inputs behave
    /// bit-identically.
    pub seed: u64,
    /// Clean traces a new chip must contribute before its golden
    /// fingerprint is fitted (graceful cold-start). Must be ≥ 2 — the
    /// fingerprint fit refuses smaller baselines. Under
    /// [`BaselineMode::SelfCalibrating`] this is the rolling baseline's
    /// warm-up length instead.
    pub golden_traces: usize,
    /// Where per-chip baselines come from.
    pub baseline_mode: BaselineMode,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            shards: 4,
            queue_capacity: 256,
            throttle_watermark: 0.5,
            breaker: BreakerConfig::default(),
            dispatch: DispatchConfig::default(),
            store: StoreConfig::default(),
            seed: 0xF1EE_7000,
            golden_traces: 8,
            baseline_mode: BaselineMode::default(),
        }
    }
}

impl FleetConfig {
    /// Checks every invariant the service relies on.
    pub fn validate(&self) -> Result<(), FleetError> {
        if self.shards == 0 {
            return Err(FleetError::InvalidConfig {
                what: "shards must be >= 1",
            });
        }
        if self.queue_capacity == 0 {
            return Err(FleetError::InvalidConfig {
                what: "queue_capacity must be >= 1",
            });
        }
        if !(0.0..=1.0).contains(&self.throttle_watermark) {
            return Err(FleetError::InvalidConfig {
                what: "throttle_watermark must be in [0, 1]",
            });
        }
        if self.breaker.trip_after == 0 {
            return Err(FleetError::InvalidConfig {
                what: "breaker.trip_after must be >= 1",
            });
        }
        if self.breaker.probe_base == 0 || self.breaker.probe_cap < self.breaker.probe_base {
            return Err(FleetError::InvalidConfig {
                what: "breaker probe window must satisfy 1 <= probe_base <= probe_cap",
            });
        }
        if !(0.0..=1.0).contains(&self.dispatch.retry_jitter) {
            return Err(FleetError::InvalidConfig {
                what: "dispatch.retry_jitter must be in [0, 1]",
            });
        }
        if self.store.capacity == 0 {
            return Err(FleetError::InvalidConfig {
                what: "store.capacity must be >= 1",
            });
        }
        if self.store.baseline_window < 2 {
            return Err(FleetError::InvalidConfig {
                what: "store.baseline_window must be >= 2",
            });
        }
        if self.golden_traces < 2 || self.golden_traces > self.store.baseline_window {
            return Err(FleetError::InvalidConfig {
                what: "golden_traces must be in [2, store.baseline_window]",
            });
        }
        Ok(())
    }

    /// Queue depth at or above which admissions report `Throttled`.
    pub fn throttle_depth(&self) -> usize {
        let raw = (self.queue_capacity as f64 * self.throttle_watermark).ceil() as usize;
        raw.clamp(1, self.queue_capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        let cfg = FleetConfig::default();
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.baseline_mode, BaselineMode::Golden);
        assert_eq!(BaselineMode::Golden.label(), "golden");
        assert_eq!(BaselineMode::SelfCalibrating.label(), "self_calibrating");
        assert!(FleetConfig {
            baseline_mode: BaselineMode::SelfCalibrating,
            ..FleetConfig::default()
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn a_vanishing_retry_jitter_validates_and_backs_off_on_schedule() {
        let mut cfg = FleetConfig::default();
        cfg.dispatch.retry_jitter = 1e-17;
        assert!(cfg.validate().is_ok());
        let policy = cfg.dispatch.retry_policy();
        let schedule: Vec<u64> = (1..=4).map(|a| policy.backoff_us(a, 7)).collect();
        assert_eq!(schedule, vec![50, 100, 200, 400]);
    }

    #[test]
    fn every_bound_is_enforced() {
        let base = FleetConfig::default();
        let cases: Vec<(&str, FleetConfig)> = vec![
            ("shards", {
                let mut c = base.clone();
                c.shards = 0;
                c
            }),
            ("queue_capacity", {
                let mut c = base.clone();
                c.queue_capacity = 0;
                c
            }),
            ("throttle_watermark", {
                let mut c = base.clone();
                c.throttle_watermark = 1.5;
                c
            }),
            ("trip_after", {
                let mut c = base.clone();
                c.breaker.trip_after = 0;
                c
            }),
            ("probe window", {
                let mut c = base.clone();
                c.breaker.probe_cap = c.breaker.probe_base - 1;
                c
            }),
            ("retry_jitter", {
                let mut c = base.clone();
                c.dispatch.retry_jitter = -0.1;
                c
            }),
            ("store capacity", {
                let mut c = base.clone();
                c.store.capacity = 0;
                c
            }),
            ("baseline_window", {
                let mut c = base.clone();
                c.store.baseline_window = 1;
                c
            }),
            ("golden_traces", {
                let mut c = base.clone();
                c.golden_traces = 1;
                c
            }),
            ("golden_traces vs window", {
                let mut c = base.clone();
                c.golden_traces = c.store.baseline_window + 1;
                c
            }),
            ("self-calibrating warmup", {
                let mut c = base.clone();
                c.baseline_mode = BaselineMode::SelfCalibrating;
                c.golden_traces = 1;
                c
            }),
        ];
        for (label, cfg) in cases {
            assert!(
                matches!(cfg.validate(), Err(crate::FleetError::InvalidConfig { .. })),
                "expected {label} to be rejected"
            );
        }
    }

    #[test]
    fn throttle_depth_is_clamped_and_scaled() {
        let mut cfg = FleetConfig {
            queue_capacity: 100,
            throttle_watermark: 0.5,
            ..FleetConfig::default()
        };
        assert_eq!(cfg.throttle_depth(), 50);
        cfg.throttle_watermark = 0.0;
        assert_eq!(cfg.throttle_depth(), 1);
        cfg.throttle_watermark = 1.0;
        assert_eq!(cfg.throttle_depth(), 100);
    }
}
