//! Trace acquisition: driving the Trojan-carrying AES chip and measuring
//! it through either the simulation pipeline (paper §IV) or the
//! fabricated-chip pipeline (paper §V).

use crate::campaign::{Block, Campaign};
use crate::parallel::ParallelConfig;
use crate::sanitize::{TraceSanitizer, TraceVerdict};
use crate::TrustError;
use emtrust_em::coil::Coil;
use emtrust_em::emf::VoltageTrace;
use emtrust_em::pipeline::{EmSensor, PointCurrentSource};
use emtrust_faults::FaultPlan;
use emtrust_layout::floorplan::{Die, Floorplan};
use emtrust_layout::probe::ExternalProbe;
use emtrust_layout::spiral::SpiralSensor;
use emtrust_netlist::library::Library;
use emtrust_power::{ChargeBins, ChargeTable, ClockConfig, CurrentModel};
use emtrust_silicon::{Channel, FabricatedChip, ProcessVariation};
use emtrust_telemetry as telemetry;
use emtrust_trojan::{A2Trojan, ProtectedChip, TrojanKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Extra leakage current drawn while Trojan T2's sense bit is low and its
/// trigger is high, in amperes (the PMOS–NMOS leakage path of §IV-A).
pub const T2_LEAK_CURRENT_A: f64 = 2.0e-5;

/// The plaintext stimulus policy during collection.
///
/// The paper's fingerprinting assumes "the users know how the circuit
/// will operate": detection campaigns replay a fixed stimulus so the
/// golden spread reflects only noise, while characterization sweeps may
/// randomize per trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stimulus {
    /// Replay one fixed plaintext block for every trace.
    Fixed([u8; 16]),
    /// Draw a fresh random plaintext per trace (seeded).
    RandomPerTrace,
}

/// A set of equal-length measured traces (volts).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSet {
    traces: Vec<Vec<f64>>,
    sample_rate_hz: f64,
}

impl TraceSet {
    /// Wraps raw traces, validating shape and sample values.
    ///
    /// # Errors
    ///
    /// - [`TrustError::InvalidParameter`] if the sample rate is not
    ///   positive,
    /// - [`TrustError::TraceLengthMismatch`] naming the first trace whose
    ///   length disagrees with the set's,
    /// - [`TrustError::NonFiniteSample`] naming the first NaN/±Inf sample.
    pub fn new(traces: Vec<Vec<f64>>, sample_rate_hz: f64) -> Result<Self, TrustError> {
        let expected = traces.first().map_or(0, Vec::len);
        for (ti, t) in traces.iter().enumerate() {
            if t.len() != expected {
                return Err(TrustError::TraceLengthMismatch {
                    trace: ti,
                    expected,
                    actual: t.len(),
                });
            }
            if let Some(si) = t.iter().position(|x| !x.is_finite()) {
                return Err(TrustError::NonFiniteSample {
                    trace: ti,
                    sample: si,
                });
            }
        }
        Self::from_raw(traces, sample_rate_hz)
    }

    /// Wraps traces that may legitimately carry corrupted samples —
    /// fault-injection campaigns and raw sensor dumps headed for the
    /// sanitizer. Only the sample rate and the shared length are
    /// validated; finiteness is deliberately not.
    ///
    /// # Errors
    ///
    /// [`TrustError::InvalidParameter`] if the traces are ragged or the
    /// sample rate is not positive.
    pub fn from_raw(traces: Vec<Vec<f64>>, sample_rate_hz: f64) -> Result<Self, TrustError> {
        if sample_rate_hz <= 0.0 {
            return Err(TrustError::InvalidParameter {
                what: "sample rate must be positive",
            });
        }
        if let Some(first) = traces.first() {
            if traces.iter().any(|t| t.len() != first.len()) {
                return Err(TrustError::InvalidParameter {
                    what: "traces must share one length",
                });
            }
        }
        Ok(Self {
            traces,
            sample_rate_hz,
        })
    }

    /// The traces.
    pub fn traces(&self) -> &[Vec<f64>] {
        &self.traces
    }

    /// Number of traces.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// The acquisition sample rate.
    pub fn sample_rate_hz(&self) -> f64 {
        self.sample_rate_hz
    }
}

/// Re-acquisition policy for [`TestBench::collect_robust`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total acquisition attempts per trace, the first included (≥ 1).
    pub max_attempts: u32,
    /// Backoff before the first retry, in microseconds; doubles per
    /// retry round (jittered and capped — see [`Self::backoff_us`]).
    /// The bench is simulated, so the wait is *recorded*
    /// (`backoff_total_us`, `acquire.backoff_us`) rather than slept —
    /// a hardware bench would sleep it to let a transient clear.
    pub backoff_base_us: u64,
    /// Ceiling on any single backoff round, in microseconds. Without a
    /// cap the doubling schedule reaches minutes within a dozen rounds;
    /// with one, a long outage costs a bounded, predictable wait per
    /// retry.
    pub backoff_cap_us: u64,
    /// Full jitter fraction in `[0, 1]`: each round's wait is drawn
    /// uniformly from `nominal × [1 − jitter, 1 + jitter)` with a
    /// deterministic RNG keyed on the campaign seed and the attempt, so
    /// replays are bit-identical while concurrent campaigns never
    /// synchronize their retry storms. `0.0` restores the fixed
    /// schedule.
    pub backoff_jitter: f64,
    /// Alternate measurement channel to try for traces still rejected
    /// after every retry (the paper's chips expose both the on-chip
    /// sensor and an external probe).
    pub fallback: Option<Channel>,
    /// Maximum tolerated fraction of finally-rejected traces before the
    /// collection fails with [`TrustError::SensorFault`]. `1.0` never
    /// fails.
    pub max_reject_fraction: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            backoff_base_us: 100,
            backoff_cap_us: 5_000_000,
            backoff_jitter: 0.5,
            fallback: None,
            max_reject_fraction: 1.0,
        }
    }
}

impl RetryPolicy {
    /// The backoff charged before retry round `attempt` (1-based) of a
    /// campaign keyed by `seed`, in microseconds: exponential doubling
    /// from [`Self::backoff_base_us`], jittered by
    /// [`Self::backoff_jitter`], capped at [`Self::backoff_cap_us`].
    /// Pure in `(policy, attempt, seed)`, so a replayed campaign charges
    /// the exact same schedule.
    pub fn backoff_us(&self, attempt: u32, seed: u64) -> u64 {
        let exp = u64::from(attempt.saturating_sub(1)).min(20);
        let nominal = self.backoff_base_us.saturating_mul(1u64 << exp);
        let jitter = self.backoff_jitter.clamp(0.0, 1.0);
        if jitter == 0.0 {
            return nominal.min(self.backoff_cap_us);
        }
        let mut rng = StdRng::seed_from_u64(
            seed ^ (u64::from(attempt).wrapping_add(1)).wrapping_mul(0xA24B_AED4_963E_E407),
        );
        let factor = rng.gen_range((1.0 - jitter)..(1.0 + jitter));
        let jittered = (nominal as f64 * factor).round() as u64;
        jittered.min(self.backoff_cap_us)
    }
}

/// Per-trace outcome of a robust collection.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReport {
    /// Trace index within the campaign.
    pub index: usize,
    /// Final sanitizer verdict for the trace that was kept.
    pub verdict: TraceVerdict,
    /// Acquisition attempts spent on this trace (1 = first try passed).
    pub attempts: u32,
    /// Channel the kept trace was measured on.
    pub channel: Channel,
}

/// The result of [`TestBench::collect_robust`]: the kept traces plus a
/// full per-trace accounting of retries and fallbacks.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustCollection {
    /// The kept traces (one per requested index, rejected ones
    /// included — `reports` says which to trust).
    pub set: TraceSet,
    /// Per-trace outcomes, in trace order.
    pub reports: Vec<TraceReport>,
    /// Total re-acquisition attempts across all traces.
    pub retries: u64,
    /// Traces whose kept measurement came from the fallback channel.
    pub fallbacks: u64,
    /// Total backoff the policy charged, in microseconds (recorded, not
    /// slept — see [`RetryPolicy::backoff_base_us`]).
    pub backoff_total_us: u64,
}

impl RobustCollection {
    /// Number of traces whose final verdict is still rejected.
    pub fn rejected(&self) -> usize {
        self.reports
            .iter()
            .filter(|r| r.verdict.is_rejected())
            .count()
    }
}

/// Which measurement backend the bench uses.
#[derive(Debug)]
enum Backend {
    /// Paper §IV: EM pipeline plus environment noise only.
    Simulation {
        onchip: EmSensor,
        external: EmSensor,
    },
    /// Paper §V: process variation, package and oscilloscope included.
    Silicon(FabricatedChip),
}

/// The assembled experiment: a Trojan-carrying chip, its floorplan, both
/// measurement channels, and (optionally) an A2 analog Trojan.
#[derive(Debug)]
pub struct TestBench<'c> {
    chip: &'c ProtectedChip,
    floorplan: Floorplan,
    backend: Backend,
    clock: ClockConfig,
    a2: Option<A2Trojan>,
    parallel: ParallelConfig,
    faults: Option<FaultPlan>,
}

impl<'c> TestBench<'c> {
    /// Builds the simulation bench (paper §IV): default die, spiral
    /// sensor, external probe, reference clock.
    ///
    /// # Errors
    ///
    /// Propagates layout and EM-pipeline construction errors.
    pub fn simulation(chip: &'c ProtectedChip) -> Result<Self, TrustError> {
        let library = Library::generic_180nm();
        let die = Die::for_netlist(chip.netlist(), &library, 0.7)?;
        let floorplan = Floorplan::place(chip.netlist(), &library, die)?;
        let clock = ClockConfig::reference();
        let model = CurrentModel::new(library, clock);
        let onchip = EmSensor::new(
            Coil::OnChip(SpiralSensor::for_die(die).map_err(TrustError::Layout)?),
            chip.netlist(),
            &floorplan,
            model.clone(),
        )?;
        let external = EmSensor::new(
            Coil::External(ExternalProbe::over_die(die)),
            chip.netlist(),
            &floorplan,
            model,
        )?;
        Ok(Self {
            chip,
            floorplan,
            backend: Backend::Simulation { onchip, external },
            clock,
            a2: None,
            parallel: ParallelConfig::default(),
            faults: None,
        })
    }

    /// Builds the fabricated-chip bench (paper §V) for die number
    /// `chip_id` with nominal process variation.
    ///
    /// # Errors
    ///
    /// Propagates silicon-model construction errors.
    pub fn silicon(chip: &'c ProtectedChip, chip_id: u64) -> Result<Self, TrustError> {
        let fab = FabricatedChip::fabricate(chip.netlist(), chip_id, ProcessVariation::nominal())?;
        let floorplan = fab.floorplan().clone();
        Ok(Self {
            chip,
            floorplan,
            backend: Backend::Silicon(fab),
            clock: ClockConfig::reference(),
            a2: None,
            parallel: ParallelConfig::default(),
            faults: None,
        })
    }

    /// Installs an A2-style analog Trojan. If the Trojan is at the
    /// default origin it is placed near the middle of the core area.
    pub fn with_a2(mut self, a2: A2Trojan) -> Self {
        let placed = if a2.location_um() == (0.0, 0.0) {
            let c = self.floorplan.die().center();
            a2.with_location(c.x * 0.8, c.y * 1.1)
        } else {
            a2
        };
        self.a2 = Some(placed);
        self
    }

    /// Arms or disarms the installed A2 Trojan's fast-flipping trigger.
    ///
    /// # Errors
    ///
    /// [`TrustError::InvalidParameter`] if no A2 Trojan is installed.
    pub fn arm_a2(&mut self, on: bool) -> Result<(), TrustError> {
        match self.a2.as_mut() {
            Some(a2) => {
                a2.set_triggering(on);
                Ok(())
            }
            None => Err(TrustError::InvalidParameter {
                what: "no A2 trojan installed",
            }),
        }
    }

    /// The chip under test.
    pub fn chip(&self) -> &ProtectedChip {
        self.chip
    }

    /// The floorplan in use.
    pub fn floorplan(&self) -> &Floorplan {
        &self.floorplan
    }

    /// The clock configuration.
    pub fn clock(&self) -> ClockConfig {
        self.clock
    }

    /// The installed A2 Trojan, if any.
    pub fn a2(&self) -> Option<&A2Trojan> {
        self.a2.as_ref()
    }

    /// Sets the parallel execution policy used by the `collect*` methods.
    ///
    /// The policy only affects wall-clock time: every collection result is
    /// bit-identical for every worker count (noise seeds derive from the
    /// campaign seed and the trace index, never from worker identity).
    pub fn with_parallel(mut self, parallel: ParallelConfig) -> Self {
        self.parallel = parallel;
        self
    }

    /// The parallel execution policy.
    pub fn parallel(&self) -> ParallelConfig {
        self.parallel
    }

    /// Installs a fault-injection plan: every subsequent `collect*` call
    /// corrupts its digitized traces per the plan's schedule, replayably
    /// (see [`FaultPlan`]). Faulted sets are wrapped with
    /// [`TraceSet::from_raw`] so deliberately corrupted samples reach
    /// the sanitizer instead of erroring out of collection.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Installs or removes the fault-injection plan in place.
    pub fn set_faults(&mut self, plan: Option<FaultPlan>) {
        self.faults = plan;
    }

    /// The installed fault-injection plan, if any.
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Collects `n_traces` single-encryption traces with a fixed random
    /// stimulus derived from `seed` (the detection-campaign default),
    /// Trojan `armed` (if any) triggered throughout.
    ///
    /// # Errors
    ///
    /// Propagates simulation and measurement errors.
    pub fn collect(
        &self,
        key: [u8; 16],
        n_traces: usize,
        armed: Option<TrojanKind>,
        channel: Channel,
        seed: u64,
    ) -> Result<TraceSet, TrustError> {
        let pt: [u8; 16] = StdRng::seed_from_u64(seed ^ 0x97).gen();
        self.collect_with(key, Stimulus::Fixed(pt), n_traces, armed, channel, seed)
    }

    /// Collects `n_traces` single-encryption traces under an explicit
    /// stimulus policy.
    ///
    /// # Errors
    ///
    /// Propagates simulation and measurement errors.
    pub fn collect_with(
        &self,
        key: [u8; 16],
        stimulus: Stimulus,
        n_traces: usize,
        armed: Option<TrojanKind>,
        channel: Channel,
        seed: u64,
    ) -> Result<TraceSet, TrustError> {
        self.collect_attempt(key, stimulus, n_traces, armed, channel, seed, 0)
    }

    /// One acquisition pass at re-acquisition ordinal `attempt`.
    ///
    /// Attempt 0 reproduces [`Self::collect_with`] exactly (the noise
    /// seed mix leaves the legacy seeds untouched); attempt `k > 0`
    /// draws fresh, still-deterministic measurement noise per trace, so
    /// a retry re-measures instead of replaying the same corruption.
    #[allow(clippy::too_many_arguments)]
    fn collect_attempt(
        &self,
        key: [u8; 16],
        stimulus: Stimulus,
        n_traces: usize,
        armed: Option<TrojanKind>,
        channel: Channel,
        seed: u64,
        attempt: u32,
    ) -> Result<TraceSet, TrustError> {
        let _span = telemetry::span("collect");
        telemetry::counter("acquire.traces", n_traces as u64);
        let mut rng = StdRng::seed_from_u64(seed);

        // Warm-up block (unrecorded): brings the registers to the steady
        // post-encryption state so every recorded trace starts alike. All
        // plaintexts are drawn up front, in trace order, so the stimulus
        // stream is independent of how the work is later chunked.
        let warmup: [u8; 16] = match stimulus {
            Stimulus::Fixed(block) => block,
            Stimulus::RandomPerTrace => rng.gen(),
        };
        let plaintexts: Vec<[u8; 16]> = (0..n_traces)
            .map(|_| match stimulus {
                Stimulus::Fixed(block) => block,
                Stimulus::RandomPerTrace => rng.gen(),
            })
            .collect();
        // Per-trace noise seed: campaign seed, trace index, and attempt
        // ordinal only — never worker identity — so parallel runs are
        // bit-identical to serial, and attempt 0 matches the legacy
        // (pre-retry) seeds exactly.
        let trace_seed = |i: usize| {
            seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ u64::from(attempt).wrapping_mul(0xA24B_AED4_963E_E407)
        };
        // The fault plan corrupts the digitized record in place, keyed on
        // (trace, attempt) so retries re-roll transient strikes.
        let corrupt = |i: usize, samples: &mut Vec<f64>| {
            if let Some(plan) = &self.faults {
                plan.apply(
                    i as u64,
                    attempt,
                    Some(channel),
                    samples,
                    self.clock.sample_rate_hz(),
                );
            }
        };

        // Each simulated round's measurements fan out across the pool.
        let campaign = Campaign::new(self.chip, key, armed, Some(warmup), self.parallel);
        let mut traces = Vec::with_capacity(n_traces);
        campaign.record(
            &plaintexts,
            self.charge_table(channel),
            None,
            |first, blocks| {
                let batch = self
                    .parallel
                    .try_map(blocks.len(), |j| -> Result<_, TrustError> {
                        let i = first + j;
                        let Block { bins, leak } = &blocks[j];
                        let trace =
                            self.measure_bins(bins, leak.as_deref(), channel, trace_seed(i))?;
                        let mut samples = trace.into_samples();
                        corrupt(i, &mut samples);
                        Ok(samples)
                    })?;
                traces.extend(batch);
                Ok(())
            },
        )?;
        if self.faults.is_some() {
            // Injected faults may legitimately produce NaN/Inf samples;
            // the sanitizer downstream is the component that judges them.
            TraceSet::from_raw(traces, self.clock.sample_rate_hz())
        } else {
            TraceSet::new(traces, self.clock.sample_rate_hz())
        }
    }

    /// Collects one long continuous trace spanning `n_blocks` back-to-back
    /// encryptions — the runtime-monitoring format the spectral detector
    /// needs (frequency resolution `f_clk·samples_per_cycle / N`).
    ///
    /// # Errors
    ///
    /// Propagates simulation and measurement errors.
    pub fn collect_continuous(
        &self,
        key: [u8; 16],
        n_blocks: usize,
        armed: Option<TrojanKind>,
        channel: Channel,
        seed: u64,
    ) -> Result<VoltageTrace, TrustError> {
        let _span = telemetry::span("collect_continuous");
        telemetry::counter("acquire.blocks", n_blocks as u64);
        let mut rng = StdRng::seed_from_u64(seed);
        let plaintexts: Vec<[u8; 16]> = (0..n_blocks).map(|_| rng.gen()).collect();
        // The blocks are binned as they are simulated (on the pool's
        // workers when replayable); the window renders once, in order.
        let (bins, leak) = Campaign::new(self.chip, key, armed, None, self.parallel)
            .record_window(&plaintexts, self.charge_table(channel))?;
        let mut trace = self.measure_bins(&bins, leak.as_deref(), channel, seed)?;
        if let Some(plan) = &self.faults {
            let fs = trace.sample_rate_hz();
            plan.apply(0, 0, Some(channel), trace.samples_mut(), fs);
        }
        Ok(trace)
    }

    /// The paper's noise-measurement step (§V-A step 1): the chip is
    /// powered but idle; the returned trace is pure measurement noise.
    pub fn collect_noise(&self, n_samples: usize, channel: Channel, seed: u64) -> VoltageTrace {
        match &self.backend {
            Backend::Simulation { .. } => self.sensor(channel).measure_noise(n_samples, seed),
            Backend::Silicon(fab) => fab.measure_noise(channel, n_samples, seed),
        }
    }

    /// Collects like [`Self::collect`], but screens every trace through
    /// `sanitizer` and degrades gracefully instead of handing corrupted
    /// data to the fingerprint:
    ///
    /// 1. **Retry with backoff** — rejected traces are re-acquired up to
    ///    `policy.max_attempts` times; each round re-measures with fresh
    ///    (still deterministic) noise and re-rolls transient fault
    ///    strikes, with exponential backoff recorded per round.
    /// 2. **Channel fallback** — traces still rejected are re-measured on
    ///    `policy.fallback`; between the two channels' verdicts the
    ///    better one wins, ties keeping the primary.
    /// 3. **Sensor-fault escalation** — if more than
    ///    `policy.max_reject_fraction` of the campaign is still rejected,
    ///    the collection fails with [`TrustError::SensorFault`].
    ///
    /// With no faults present this is bit-identical to [`Self::collect`]:
    /// every trace passes on attempt 0 with the legacy noise seeds.
    ///
    /// # Errors
    ///
    /// [`TrustError::SensorFault`] per rule 3, plus forwarded
    /// simulation/measurement errors.
    #[allow(clippy::too_many_arguments)]
    pub fn collect_robust(
        &self,
        key: [u8; 16],
        n_traces: usize,
        armed: Option<TrojanKind>,
        channel: Channel,
        seed: u64,
        sanitizer: &TraceSanitizer,
        policy: RetryPolicy,
    ) -> Result<RobustCollection, TrustError> {
        let _span = telemetry::span("collect_robust");
        let pt: [u8; 16] = StdRng::seed_from_u64(seed ^ 0x97).gen();
        let stimulus = Stimulus::Fixed(pt);
        let first = self.collect_attempt(key, stimulus, n_traces, armed, channel, seed, 0)?;
        let rate = first.sample_rate_hz();
        let mut traces = first.traces().to_vec();
        let mut verdicts: Vec<TraceVerdict> = traces.iter().map(|t| sanitizer.inspect(t)).collect();
        let mut attempts = vec![1u32; n_traces];
        let mut channels = vec![channel; n_traces];
        let mut retries = 0u64;
        let mut fallbacks = 0u64;
        let mut backoff_total_us = 0u64;

        for attempt in 1..policy.max_attempts {
            let pending: Vec<usize> = (0..n_traces)
                .filter(|&i| verdicts[i].is_rejected())
                .collect();
            if pending.is_empty() {
                break;
            }
            let backoff = policy.backoff_us(attempt, seed);
            backoff_total_us = backoff_total_us.saturating_add(backoff);
            telemetry::counter("acquire.backoff_us", backoff);
            telemetry::counter("acquire.retries", pending.len() as u64);
            retries += pending.len() as u64;
            let again =
                self.collect_attempt(key, stimulus, n_traces, armed, channel, seed, attempt)?;
            for &i in &pending {
                traces[i] = again.traces()[i].clone();
                verdicts[i] = sanitizer.inspect(&traces[i]);
                attempts[i] += 1;
            }
        }

        if let Some(fb) = policy.fallback {
            let pending: Vec<usize> = (0..n_traces)
                .filter(|&i| verdicts[i].is_rejected())
                .collect();
            if !pending.is_empty() && fb != channel {
                let alt = self.collect_attempt(key, stimulus, n_traces, armed, fb, seed, 0)?;
                let rank = |v: &TraceVerdict| match v {
                    TraceVerdict::Clean => 0,
                    TraceVerdict::Degraded { .. } => 1,
                    TraceVerdict::Rejected { .. } => 2,
                };
                for &i in &pending {
                    let fresh = &alt.traces()[i];
                    let v = sanitizer.inspect(fresh);
                    attempts[i] += 1;
                    if rank(&v) < rank(&verdicts[i]) {
                        traces[i] = fresh.clone();
                        verdicts[i] = v;
                        channels[i] = fb;
                        fallbacks += 1;
                        telemetry::counter("acquire.fallbacks", 1);
                    }
                }
            }
        }

        let rejected = verdicts.iter().filter(|v| v.is_rejected()).count();
        if rejected as f64 > policy.max_reject_fraction * n_traces as f64 {
            return Err(TrustError::SensorFault {
                rejected,
                total: n_traces,
            });
        }
        let reports: Vec<TraceReport> = verdicts
            .into_iter()
            .enumerate()
            .map(|(i, verdict)| TraceReport {
                index: i,
                verdict,
                attempts: attempts[i],
                channel: channels[i],
            })
            .collect();
        let set = TraceSet::from_raw(traces, rate)?;
        Ok(RobustCollection {
            set,
            reports,
            retries,
            fallbacks,
            backoff_total_us,
        })
    }

    /// `channel`'s EM sensor (before any scope front-end).
    fn sensor(&self, channel: Channel) -> &EmSensor {
        match (&self.backend, channel) {
            (Backend::Simulation { onchip, .. }, Channel::OnChipSensor) => onchip,
            (Backend::Simulation { external, .. }, Channel::ExternalProbe) => external,
            (Backend::Silicon(fab), _) => fab.sensor(channel),
        }
    }

    /// The charge table of `channel`'s sensor.
    fn charge_table(&self, channel: Channel) -> &ChargeTable {
        self.sensor(channel).charge_table()
    }

    fn measure_bins(
        &self,
        bins: &ChargeBins,
        extra_leakage: Option<&[f64]>,
        channel: Channel,
        seed: u64,
    ) -> Result<VoltageTrace, TrustError> {
        let injections = self.a2_injections(bins.cycles());
        match &self.backend {
            Backend::Simulation { .. } => {
                Ok(self
                    .sensor(channel)
                    .measure(bins, extra_leakage, &injections, seed)?)
            }
            Backend::Silicon(fab) => {
                Ok(fab.measure(bins, channel, extra_leakage, &injections, seed)?)
            }
        }
    }

    fn a2_injections(&self, cycles: usize) -> Vec<PointCurrentSource> {
        match &self.a2 {
            Some(a2) if a2.is_triggering() => {
                let n = cycles * self.clock.samples_per_cycle();
                vec![PointCurrentSource {
                    location_um: a2.location_um(),
                    samples: a2.current_samples(n, self.clock.sample_rate_hz()),
                }]
            }
            _ => Vec::new(),
        }
    }
}

#[cfg(test)]
#[deny(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    const KEY: [u8; 16] = *b"sixteen byte key";

    #[test]
    fn trace_set_validation() -> Result<(), TrustError> {
        assert!(TraceSet::new(vec![vec![1.0], vec![1.0, 2.0]], 1.0).is_err());
        assert!(TraceSet::new(vec![vec![1.0]], 0.0).is_err());
        let s = TraceSet::new(vec![vec![1.0, 2.0]; 3], 10.0)?;
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.sample_rate_hz(), 10.0);
        Ok(())
    }

    #[test]
    fn trace_set_distinguishes_shape_and_value_defects() {
        assert!(matches!(
            TraceSet::new(vec![vec![1.0], vec![1.0, 2.0]], 1.0),
            Err(TrustError::TraceLengthMismatch {
                trace: 1,
                expected: 1,
                actual: 2
            })
        ));
        assert!(matches!(
            TraceSet::new(vec![vec![1.0, f64::NAN]], 1.0),
            Err(TrustError::NonFiniteSample {
                trace: 0,
                sample: 1
            })
        ));
        // The raw constructor admits corrupted values but not bad shapes.
        assert!(TraceSet::from_raw(vec![vec![1.0, f64::NAN]], 1.0).is_ok());
        assert!(TraceSet::from_raw(vec![vec![1.0], vec![1.0, 2.0]], 1.0).is_err());
        assert!(TraceSet::from_raw(vec![vec![1.0]], 0.0).is_err());
    }

    #[test]
    fn backoff_schedule_is_jittered_capped_and_deterministic() {
        // Pin the exact schedule for one seed: full-jitter exponential
        // doubling from 100 µs, capped at 350 µs. The values are a
        // regression anchor for the seeded-RNG derivation — any change
        // to the keying or the draw breaks replayability of recorded
        // campaigns.
        let policy = RetryPolicy {
            backoff_base_us: 100,
            backoff_cap_us: 350,
            backoff_jitter: 0.5,
            ..RetryPolicy::default()
        };
        let schedule: Vec<u64> = (1..=6).map(|a| policy.backoff_us(a, 0xBACC)).collect();
        assert_eq!(schedule, vec![149, 289, 350, 350, 350, 350]);
        // Deterministic: the same (policy, attempt, seed) replays.
        let replay: Vec<u64> = (1..=6).map(|a| policy.backoff_us(a, 0xBACC)).collect();
        assert_eq!(schedule, replay);
        // A different campaign seed draws a different (still capped)
        // schedule.
        let other: Vec<u64> = (1..=6).map(|a| policy.backoff_us(a, 0xBACD)).collect();
        assert_ne!(schedule, other);
        assert!(other.iter().all(|&b| b <= 350));
        // Zero jitter restores the fixed doubling schedule.
        let fixed = RetryPolicy {
            backoff_jitter: 0.0,
            ..policy
        };
        let plain: Vec<u64> = (1..=4).map(|a| fixed.backoff_us(a, 0xBACC)).collect();
        assert_eq!(plain, vec![100, 200, 350, 350]);
    }

    #[test]
    fn backoff_jitter_stays_within_the_advertised_band() {
        let policy = RetryPolicy::default();
        for seed in 0..200u64 {
            let b = policy.backoff_us(1, seed);
            // nominal 100 µs, jitter 0.5 → [50, 150).
            assert!((50..150).contains(&b), "attempt 1 backoff {b}");
        }
        // The overflow guard still applies under the cap.
        let b = policy.backoff_us(64, 7);
        assert!(b <= policy.backoff_cap_us);
    }

    #[test]
    fn faulted_collection_replays_and_keeps_untouched_samples_identical() -> Result<(), TrustError>
    {
        use emtrust_faults::FaultKind;
        let chip = ProtectedChip::golden();
        let clean_bench = TestBench::simulation(&chip)?;
        let clean = clean_bench.collect(KEY, 2, None, Channel::OnChipSensor, 7)?;
        let plan = FaultPlan::single(5, FaultKind::NanCorruption, 0.5);
        let bench = TestBench::simulation(&chip)?.with_faults(plan);
        let a = bench.collect(KEY, 2, None, Channel::OnChipSensor, 7)?;
        let b = bench.collect(KEY, 2, None, Channel::OnChipSensor, 7)?;
        let flat = |s: &TraceSet| -> Vec<u64> {
            s.traces().iter().flatten().map(|x| x.to_bits()).collect()
        };
        assert_eq!(flat(&a), flat(&b), "faulted collection must replay");
        assert!(a.traces().iter().flatten().any(|x| !x.is_finite()));
        // The fault corrupts a handful of samples; every other sample is
        // bit-identical to the legacy (attempt 0) collection.
        let differing = flat(&clean)
            .iter()
            .zip(flat(&a).iter())
            .filter(|(c, f)| c != f)
            .count();
        assert!(
            (1..20).contains(&differing),
            "differing samples {differing}"
        );
        Ok(())
    }

    #[test]
    fn robust_collection_without_faults_matches_collect_exactly() -> Result<(), TrustError> {
        let chip = ProtectedChip::golden();
        let bench = TestBench::simulation(&chip)?;
        let plain = bench.collect(KEY, 3, None, Channel::OnChipSensor, 9)?;
        let robust = bench.collect_robust(
            KEY,
            3,
            None,
            Channel::OnChipSensor,
            9,
            &TraceSanitizer::default(),
            RetryPolicy::default(),
        )?;
        assert_eq!(robust.set, plain);
        assert_eq!(robust.retries, 0);
        assert_eq!(robust.fallbacks, 0);
        assert_eq!(robust.backoff_total_us, 0);
        assert!(robust
            .reports
            .iter()
            .all(|r| r.attempts == 1 && r.verdict.is_clean()));
        Ok(())
    }

    #[test]
    fn robust_collection_falls_back_to_the_external_probe() -> Result<(), TrustError> {
        use emtrust_faults::{FaultKind, FaultSpec};
        let chip = ProtectedChip::golden();
        // Persistent flatline on the on-chip channel only: retries cannot
        // clear it, the external-probe fallback can.
        let plan = FaultPlan::new(3)
            .with(FaultSpec::new(FaultKind::Flatline, 1.0).on_channel(Channel::OnChipSensor));
        let bench = TestBench::simulation(&chip)?.with_faults(plan);
        let policy = RetryPolicy {
            max_attempts: 2,
            fallback: Some(Channel::ExternalProbe),
            ..Default::default()
        };
        let robust = bench.collect_robust(
            KEY,
            2,
            None,
            Channel::OnChipSensor,
            4,
            &TraceSanitizer::default(),
            policy,
        )?;
        assert_eq!(robust.rejected(), 0);
        assert_eq!(robust.fallbacks, 2);
        assert_eq!(robust.retries, 2);
        assert!(robust.backoff_total_us > 0);
        assert!(robust
            .reports
            .iter()
            .all(|r| r.channel == Channel::ExternalProbe && r.attempts == 3));
        Ok(())
    }

    #[test]
    fn robust_collection_escalates_to_sensor_fault() -> Result<(), TrustError> {
        use emtrust_faults::FaultKind;
        let chip = ProtectedChip::golden();
        let plan = FaultPlan::single(3, FaultKind::Flatline, 1.0);
        let bench = TestBench::simulation(&chip)?.with_faults(plan);
        let policy = RetryPolicy {
            max_attempts: 2,
            max_reject_fraction: 0.25,
            ..Default::default()
        };
        let outcome = bench.collect_robust(
            KEY,
            2,
            None,
            Channel::OnChipSensor,
            4,
            &TraceSanitizer::default(),
            policy,
        );
        assert!(matches!(
            outcome,
            Err(TrustError::SensorFault {
                rejected: 2,
                total: 2
            })
        ));
        Ok(())
    }

    #[test]
    fn simulation_bench_collects_consistent_traces() -> Result<(), TrustError> {
        let chip = ProtectedChip::golden();
        let bench = TestBench::simulation(&chip)?;
        let set = bench.collect(KEY, 3, None, Channel::OnChipSensor, 1)?;
        assert_eq!(set.len(), 3);
        // 12 cycles × 64 samples per encryption.
        assert_eq!(set.traces()[0].len(), 12 * 64);
        // Traces carry signal.
        assert!(emtrust_dsp::stats::rms(&set.traces()[0]) > 1e-8);
        Ok(())
    }

    #[test]
    fn onchip_channel_outweighs_external() -> Result<(), TrustError> {
        let chip = ProtectedChip::golden();
        let bench = TestBench::simulation(&chip)?;
        let on = bench.collect(KEY, 2, None, Channel::OnChipSensor, 1)?;
        let ext = bench.collect(KEY, 2, None, Channel::ExternalProbe, 1)?;
        let rms = |s: &TraceSet| emtrust_dsp::stats::rms(&s.traces()[0]);
        assert!(rms(&on) > 3.0 * rms(&ext));
        Ok(())
    }

    #[test]
    fn armed_t4_changes_the_measurement() -> Result<(), TrustError> {
        let chip = ProtectedChip::with_trojans(&[TrojanKind::T4PowerDegrader]);
        let bench = TestBench::simulation(&chip)?;
        let golden = bench.collect(KEY, 2, None, Channel::OnChipSensor, 1)?;
        let armed = bench.collect(
            KEY,
            2,
            Some(TrojanKind::T4PowerDegrader),
            Channel::OnChipSensor,
            1,
        )?;
        let rms = |s: &TraceSet| emtrust_dsp::stats::rms(&s.traces()[0]);
        assert!(rms(&armed) > 1.02 * rms(&golden));
        Ok(())
    }

    #[test]
    fn continuous_collection_spans_blocks() -> Result<(), TrustError> {
        let chip = ProtectedChip::golden();
        let bench = TestBench::simulation(&chip)?;
        let trace = bench.collect_continuous(KEY, 4, None, Channel::OnChipSensor, 2)?;
        assert_eq!(trace.len(), 4 * 12 * 64);
        Ok(())
    }

    #[test]
    fn noise_collection_is_pure_noise() -> Result<(), TrustError> {
        let chip = ProtectedChip::golden();
        let bench = TestBench::simulation(&chip)?;
        let noise = bench.collect_noise(4096, Channel::OnChipSensor, 3);
        let rms = noise.rms_v();
        let expect = emtrust_em::noise::ONCHIP_ENV_NOISE_RMS_V;
        assert!((rms - expect).abs() < 0.2 * expect, "noise rms {rms}");
        Ok(())
    }

    #[test]
    fn a2_installation_places_and_arms() -> Result<(), TrustError> {
        let chip = ProtectedChip::golden();
        let mut bench = TestBench::simulation(&chip)?.with_a2(A2Trojan::new(10e6));
        match bench.a2() {
            Some(a2) => assert_ne!(a2.location_um(), (0.0, 0.0)),
            None => unreachable!("with_a2 must install the Trojan"),
        }
        bench.arm_a2(true)?;
        assert!(bench.a2().is_some_and(|a2| a2.is_triggering()));
        let armed = bench.collect_continuous(KEY, 2, None, Channel::OnChipSensor, 4)?;
        bench.arm_a2(false)?;
        let dormant = bench.collect_continuous(KEY, 2, None, Channel::OnChipSensor, 4)?;
        // Same seed, so noise cancels sample-wise: the armed-minus-dormant
        // residual is exactly the A2 injection's EM contribution. Total RMS
        // is not a sound discriminator here — the 5 MHz trigger is
        // phase-locked to the clock, so its cross-term with the AES signal
        // can carry either sign.
        let injected: Vec<f64> = armed
            .samples()
            .iter()
            .zip(dormant.samples())
            .map(|(a, d)| a - d)
            .collect();
        let injected_rms = emtrust_dsp::stats::rms(&injected);
        assert!(
            injected_rms > 0.02 * dormant.rms_v(),
            "armed A2 must inject measurable energy: {injected_rms:.3e} vs floor {:.3e}",
            0.02 * dormant.rms_v()
        );
        Ok(())
    }

    #[test]
    fn silicon_bench_measures_through_the_scope() -> Result<(), TrustError> {
        let chip = ProtectedChip::golden();
        let bench = TestBench::silicon(&chip, 1)?;
        let set = bench.collect(KEY, 2, None, Channel::OnChipSensor, 5)?;
        assert_eq!(set.len(), 2);
        assert!(emtrust_dsp::stats::rms(&set.traces()[0]) > 1e-8);
        Ok(())
    }
}
