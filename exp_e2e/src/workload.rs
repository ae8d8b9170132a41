//! The run loop the four workloads share: repeated set-up, a first cycle
//! that opens with two untimed warm-up ops, then a fixed number of timed
//! cycles, and the metrics computed from what the loop saw.
//!
//! In an untraced run every set-up and every timed cycle is bracketed by
//! host-speed probes ([`crate::probe`]), and its wall and CPU times are
//! scaled by them to quiet-host time before the medians are taken.

use crate::ledger::{ratio, Ledger};
use crate::probe::{self, Probe, Sample};
use crate::{procfs, stats};
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Untimed ops run after set-up, before the clock starts.
pub const WARMUP_OPS: u64 = 2;

/// Replayed acquisition spans, compared against the program's
/// `acquisition` reference calls.
const ACQUISITION_SPANS: [&str; 5] = ["sim", "power", "em.emf", "em.noise", "silicon.scope"];

/// How the layer spans must add up against the traced wall clock.
const RECONCILE_TOLERANCE_PCT: f64 = 5.0;

/// What one op did.
#[derive(Debug, Default)]
pub struct Op {
    /// Encryptions (or, for the fleet, delivered traces) the op carried.
    pub traces: u64,
    /// The op's latency, when it is an `op_p50_ms` sample: the calls
    /// that make up one op of the workload, timed by the workload.
    pub latency_ms: Option<f64>,
    /// Failed correctness checks; any entry fails the op.
    pub failures: Vec<String>,
}

pub trait Workload {
    /// Ops per cycle. Every cycle runs the same mix of ops, so cycles
    /// can be compared with each other.
    fn cycle_len(&self) -> u64;

    /// The span the workload's detection calls are recorded under.
    fn detect_span(&self) -> &'static str;

    /// Whether a host-speed probe may run between two ops of a cycle, its
    /// time taken out of the cycle's. Not where other threads go on
    /// working between ops: pausing one of them would change the cycle.
    fn probe_between_ops(&self) -> bool {
        true
    }

    /// Runs op `index` of the workload's deterministic op stream.
    fn op(&mut self, index: u64, ledger: Option<&mut Ledger>) -> Result<Op, String>;

    /// Closes cycle `cycle` (also a partial last cycle). The returned op
    /// carries the cycle's failed checks and, for a workload whose op is
    /// a whole cycle, its latency.
    fn end_cycle(&mut self, _cycle: u64, _ledger: Option<&mut Ledger>) -> Result<Op, String> {
        Ok(Op::default())
    }

    /// Workload-level checks over every op run; each entry is a failure.
    fn checks(&self) -> Vec<String> {
        Vec::new()
    }

    /// Digest of the set-up and the first cycle's decisions.
    fn digest(&self) -> u64;

    /// Mean ops from the start of an armed episode to its first alarm.
    fn time_to_detect_ops(&self) -> f64;

    /// Workload-specific ledger entries.
    fn extras(&self, _ledger: Option<&Ledger>) -> Vec<Metric> {
        Vec::new()
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Timed cycles after the first one, which holds the warm-up ops. A
    /// count, not a duration, so a faster commit runs the same ops.
    pub cycles: u64,
    /// Wall seconds after which the timed region ends even if cycles
    /// remain: a bound on the run's length on a host far slower than the
    /// one the cycle count was sized on, never reached on that one.
    pub max_timed_s: f64,
    pub trace: bool,
}

#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub digest: u64,
    /// The metrics of the result line: end-to-end, or per-layer when
    /// tracing.
    pub metrics: Vec<Metric>,
    /// Everything else worth printing.
    pub ledger: Vec<Metric>,
}

/// `count / seconds`, or 0 for an empty interval.
fn per_second(count: u64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        count as f64 / seconds
    } else {
        0.0
    }
}

/// A probe that took exactly the nominal time: scales nothing.
const QUIET: Sample = Sample {
    wall_s: probe::NOMINAL_S,
    cpu_s: probe::NOMINAL_S,
};

/// One complete cycle of the timed region.
#[derive(Debug)]
struct Cycle {
    wall_s: f64,
    cpu_s: f64,
    traces: u64,
    latencies_ms: Vec<f64>,
    /// The probes that bracket or interrupt the cycle, averaged.
    probe: Sample,
}

impl Cycle {
    fn new() -> Self {
        Self {
            wall_s: 0.0,
            cpu_s: 0.0,
            traces: 0,
            latencies_ms: Vec::new(),
            probe: QUIET,
        }
    }
}

/// The three timing metrics over `cycles`: the median cycle's throughput
/// and CPU time per trace, and the median op latency. With `scaled`, each
/// cycle's times are first scaled to quiet-host time by its probes.
fn timing(cycles: &[Cycle], scaled: bool) -> [f64; 3] {
    let probe = |c: &Cycle| if scaled { c.probe } else { QUIET };
    let median = |v: Vec<f64>| stats::median(&v).unwrap_or(0.0);
    [
        median(
            cycles
                .iter()
                .map(|c| per_second(c.traces, c.wall_s * probe(c).wall_scale()))
                .collect(),
        ),
        median(
            cycles
                .iter()
                .flat_map(|c| {
                    let s = probe(c).wall_scale();
                    c.latencies_ms.iter().map(move |l| l * s)
                })
                .collect(),
        ),
        median(
            cycles
                .iter()
                .map(|c| ratio(c.cpu_s * probe(c).cpu_scale() * 1e6, c.traces))
                .collect(),
        ),
    ]
}

#[derive(Debug, Default)]
struct Loop {
    ops: u64,
    failed: u64,
    failures: Vec<String>,
    /// Traces of the timed ops.
    timed_traces: u64,
    /// Traces of every op.
    traces: u64,
    /// Wall time of the timed region, probes excluded.
    wall_s: f64,
    latencies_ms: Vec<f64>,
    cycles: Vec<Cycle>,
}

impl Loop {
    fn fail(&mut self, failures: Vec<String>) {
        if !failures.is_empty() {
            self.failed += 1;
            self.failures.extend(failures);
        }
    }
}

/// A timed cycle in progress.
struct Open {
    start: Instant,
    cpu_start_s: f64,
    cycle: Cycle,
    /// The probes that bracket or interrupt the cycle.
    probes: Vec<Sample>,
    /// Wall and CPU seconds of the probes run inside the cycle, which are
    /// taken out of its times.
    inside: (f64, f64),
}

/// Runs the workload's ops. With a probe, one runs before the first timed
/// cycle, after every timed cycle and, where the workload allows it,
/// between the ops of a timed cycle; no probe counts in a cycle's times.
fn drive<W: Workload>(
    w: &mut W,
    cfg: &RunConfig,
    mut ledger: Option<&mut Ledger>,
    mut probe: Option<&mut Probe>,
) -> Result<Loop, String> {
    let mut lp = Loop::default();
    let cycle = w.cycle_len().max(1);
    let mut clock: Option<Instant> = None;
    // Wall seconds spent probing since the clock started.
    let mut probe_s = 0.0;
    // The probe after the last cycle, which also opens the next one.
    let mut last_probe: Option<Sample> = None;
    let mut current: Option<Open> = None;
    let mut index = 0u64;
    loop {
        if index == WARMUP_OPS {
            clock = Some(Instant::now());
        }
        if index.is_multiple_of(cycle) && clock.is_some() {
            let mut probes = Vec::new();
            if let Some(p) = probe.as_deref_mut() {
                let before = match last_probe {
                    Some(s) => s,
                    None => {
                        let s = p.run()?;
                        probe_s += s.wall_s;
                        s
                    }
                };
                probes.push(before);
            }
            current = Some(Open {
                start: Instant::now(),
                cpu_start_s: procfs::cpu_s()?,
                cycle: Cycle::new(),
                probes,
                inside: (0.0, 0.0),
            });
        }
        if let Some(l) = ledger.as_deref_mut() {
            l.open_op();
        }
        let result = w.op(index, ledger.as_deref_mut());
        if let Some(l) = ledger.as_deref_mut() {
            l.close_op();
        }
        lp.ops += 1;
        match result {
            Ok(op) => {
                lp.traces += op.traces;
                if clock.is_some() {
                    lp.timed_traces += op.traces;
                    lp.latencies_ms.extend(op.latency_ms);
                }
                if let Some(o) = &mut current {
                    o.cycle.traces += op.traces;
                    o.cycle.latencies_ms.extend(op.latency_ms);
                }
                lp.fail(op.failures);
            }
            Err(e) => lp.fail(vec![e]),
        }
        index += 1;
        if !index.is_multiple_of(cycle) {
            if let (Some(p), Some(o), true) =
                (probe.as_deref_mut(), &mut current, w.probe_between_ops())
            {
                let s = p.run()?;
                probe_s += s.wall_s;
                o.inside.0 += s.wall_s;
                o.inside.1 += s.cpu_s;
                o.probes.push(s);
            }
            continue;
        }
        match w.end_cycle(index / cycle - 1, ledger.as_deref_mut()) {
            Ok(op) => {
                // A cycle-long op is a latency sample only when the whole
                // cycle ran inside the timed region.
                if let Some(o) = &mut current {
                    lp.latencies_ms.extend(op.latency_ms);
                    o.cycle.latencies_ms.extend(op.latency_ms);
                }
                lp.fail(op.failures);
            }
            Err(e) => lp.fail(vec![e]),
        }
        if let Some(mut o) = current.take() {
            o.cycle.wall_s = o.start.elapsed().as_secs_f64() - o.inside.0;
            o.cycle.cpu_s = procfs::cpu_s()? - o.cpu_start_s - o.inside.1;
            if let Some(p) = probe.as_deref_mut() {
                let after = p.run()?;
                probe_s += after.wall_s;
                o.probes.push(after);
                last_probe = Some(after);
            }
            o.cycle.probe = Sample::mean(&o.probes).unwrap_or(QUIET);
            lp.cycles.push(o.cycle);
        }
        let timed_s = clock.map_or(0.0, |t| t.elapsed().as_secs_f64()) - probe_s;
        if lp.cycles.len() as u64 >= cfg.cycles || timed_s >= cfg.max_timed_s {
            break;
        }
    }
    lp.wall_s = clock.map_or(0.0, |t| t.elapsed().as_secs_f64()) - probe_s;
    for f in w.checks() {
        lp.fail(vec![f]);
    }
    Ok(lp)
}

/// Runs a workload built by `setup` (which gets the ledger when tracing).
pub fn run<W: Workload>(
    cfg: &RunConfig,
    mut setup: impl FnMut(Option<&mut Ledger>) -> Result<W, String>,
) -> Result<Outcome, String> {
    if cfg.trace {
        let mut ledger = Ledger::default();
        let mut w = setup(Some(&mut ledger))?;
        let setup_bytes: u64 = ledger.spans().map(|(_, s)| s.bytes).sum();
        let lp = drive(&mut w, cfg, Some(&mut ledger), None)?;
        Ok(traced_outcome(&w, lp, &ledger, setup_bytes))
    } else {
        let mut probe = Probe::new();
        let mut setups = Vec::with_capacity(SETUP_REPEATS);
        let mut kept: Option<W> = None;
        let mut before = probe.run()?;
        for _ in 0..SETUP_REPEATS {
            // Drop the previous set-up first so peak memory holds one.
            drop(kept.take());
            let t0 = Instant::now();
            let w = setup(None)?;
            let setup_s = t0.elapsed().as_secs_f64();
            let after = probe.run()?;
            setups.push((setup_s, Sample::mean(&[before, after]).unwrap_or(QUIET)));
            before = after;
            kept = Some(w);
        }
        let mut w = kept.ok_or("no set-up ran")?;
        let lp = drive(&mut w, cfg, None, Some(&mut probe))?;
        untraced_outcome(&w, lp, &setups)
    }
}

/// The end-to-end metrics from quiet-host times, and in the ledger the
/// same metrics from the measured times with the probes that scaled them.
fn untraced_outcome<W: Workload>(
    w: &W,
    lp: Loop,
    setups: &[(f64, Sample)],
) -> Result<Outcome, String> {
    let setup_s = |scaled: bool| {
        let times: Vec<f64> = setups
            .iter()
            .map(|(s, p)| if scaled { s * p.wall_scale() } else { *s })
            .collect();
        stats::median(&times).unwrap_or(0.0)
    };
    let [traces_per_s, op_p50_ms, cpu_us_per_trace] = timing(&lp.cycles, true);
    let metrics = vec![
        Metric::new("setup_s", setup_s(true), "s"),
        Metric::new("traces_per_s", traces_per_s, "1/s"),
        Metric::new("op_p50_ms", op_p50_ms, "ms"),
        Metric::new("cpu_us_per_trace", cpu_us_per_trace, "us"),
        Metric::new("peak_rss_mb", procfs::peak_rss_kib()? as f64 / 1024.0, "MB"),
    ];
    let [raw_traces_per_s, raw_op_p50_ms, raw_cpu_us_per_trace] = timing(&lp.cycles, false);
    let probes: Vec<Sample> = setups
        .iter()
        .map(|(_, p)| *p)
        .chain(lp.cycles.iter().map(|c| c.probe))
        .collect();
    let median_scale = |f: fn(&Sample) -> f64| {
        stats::median(&probes.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let mut ledger = vec![
        Metric::new("timed_s", lp.wall_s, "s"),
        Metric::new("timed_traces", lp.timed_traces as f64, "count"),
        Metric::new("timed_cycles", lp.cycles.len() as f64, "count"),
        // The measured figures the metrics were scaled from.
        Metric::new("raw.setup_s", setup_s(false), "s"),
        Metric::new("raw.traces_per_s", raw_traces_per_s, "1/s"),
        Metric::new("raw.op_p50_ms", raw_op_p50_ms, "ms"),
        Metric::new("raw.cpu_us_per_trace", raw_cpu_us_per_trace, "us"),
        Metric::new(
            "raw.timed.traces_per_s",
            per_second(lp.timed_traces, lp.wall_s),
            "1/s",
        ),
        Metric::new(
            "probe.wall_scale",
            median_scale(Sample::wall_scale),
            "ratio",
        ),
        Metric::new("probe.cpu_scale", median_scale(Sample::cpu_scale), "ratio"),
        Metric::new("latency_samples", lp.latencies_ms.len() as f64, "count"),
    ];
    ledger.extend(tail_metrics("op_tail_ms", "ms", &lp.latencies_ms));
    for (i, (s, _)) in setups.iter().enumerate() {
        ledger.push(Metric::new(format!("raw.setup_s.{i}"), *s, "s"));
    }
    ledger.extend(w.extras(None));
    Ok(Outcome {
        attempted: lp.ops,
        failed: lp.failed,
        failures: lp.failures,
        digest: w.digest(),
        metrics,
        ledger,
    })
}

/// A tail latency with its percentile and the sample count beyond it.
pub fn tail_metrics(name: &str, unit: &'static str, samples: &[f64]) -> Vec<Metric> {
    match stats::tail(samples) {
        Some(t) => vec![
            Metric::new(name, t.value, unit),
            Metric::new(format!("{name}.percentile"), t.percentile, "%"),
            Metric::new(format!("{name}.beyond"), t.beyond as f64, "count"),
        ],
        None => Vec::new(),
    }
}

fn traced_outcome<W: Workload>(w: &W, mut lp: Loop, l: &Ledger, setup_bytes: u64) -> Outcome {
    let sim = l.get("sim");
    let power = l.get("power");
    let emf = l.get("em.emf");
    let noise = l.get("em.noise");
    let detect = l.get(w.detect_span());
    let reference = l.get_reference("acquisition");
    let toggles = l.counter("sim.toggles");
    let replayed_acq: u64 = ACQUISITION_SPANS.iter().map(|s| l.get(s).ns).sum();
    let span_ns = l.span_ns();
    let segment_ns = l.segment_ns();
    let reconciled = 100.0 * ratio(span_ns as f64, segment_ns);
    let untraced_ns = (segment_ns + reference.ns).saturating_sub(replayed_acq);
    let overhead = 100.0 * (ratio(segment_ns as f64, untraced_ns) - 1.0);
    let op_bytes = l.spans().map(|(_, s)| s.bytes).sum::<u64>() - setup_bytes;
    let op_ms = l.op_ms();
    let op_tail =
        stats::tail(&op_ms).map_or_else(|| op_ms.iter().copied().fold(0.0, f64::max), |t| t.value);
    if (reconciled - 100.0).abs() > RECONCILE_TOLERANCE_PCT {
        lp.fail(vec![format!(
            "layer self times add up to {reconciled:.1} % of the traced wall clock"
        )]);
    }
    let metrics = vec![
        Metric::new("sim.ns_per_trace", sim.ns_per_item(), "ns"),
        Metric::new(
            "sim.toggles_per_trace",
            ratio(toggles as f64, sim.items),
            "count",
        ),
        Metric::new("sim.ns_per_toggle", ratio(sim.ns as f64, toggles), "ns"),
        Metric::new("sim.allocs_per_trace", sim.allocs_per_item(), "count"),
        Metric::new("power.ns_per_trace", power.ns_per_item(), "ns"),
        Metric::new("power.ns_per_toggle", ratio(power.ns as f64, toggles), "ns"),
        Metric::new("power.allocs_per_trace", power.allocs_per_item(), "count"),
        Metric::new("em.emf_ns_per_trace", emf.ns_per_item(), "ns"),
        Metric::new("em.noise_ns_per_trace", noise.ns_per_item(), "ns"),
        Metric::new(
            "em.allocs_per_trace",
            ratio((emf.allocs + noise.allocs) as f64, emf.items),
            "count",
        ),
        Metric::new("em.build_ms", l.get("em.build").ms_per_call(), "ms"),
        Metric::new("layout.place_ms", l.get("layout.place").ms_per_call(), "ms"),
        Metric::new(
            "core.acquisition.ns_per_trace",
            reference.ns_per_item(),
            "ns",
        ),
        Metric::new(
            "core.acquisition.overhead_ns_per_trace",
            ratio(reference.ns as f64 - replayed_acq as f64, reference.items),
            "ns",
        ),
        Metric::new("detect.ns_per_trace", detect.ns_per_item(), "ns"),
        Metric::new("detect.allocs_per_trace", detect.allocs_per_item(), "count"),
        Metric::new(
            "core.fingerprint.fits",
            l.counter("core.fingerprint.fits") as f64,
            "count",
        ),
        Metric::new("op_tail_ms", op_tail, "ms"),
        Metric::new("time_to_detect_ops", w.time_to_detect_ops(), "ops"),
        Metric::new(
            "alloc_bytes_per_trace",
            ratio(op_bytes as f64, lp.traces),
            "B",
        ),
        Metric::new("trace.reconciled_pct", reconciled, "%"),
        Metric::new("trace.overhead_pct", overhead, "%"),
    ];
    let mut ledger = Vec::new();
    for (name, s) in l.spans() {
        ledger.push(Metric::new(
            format!("span.{name}.calls"),
            s.calls as f64,
            "count",
        ));
        ledger.push(Metric::new(
            format!("span.{name}.items"),
            s.items as f64,
            "count",
        ));
        ledger.push(Metric::new(
            format!("span.{name}.ms"),
            s.ns as f64 / 1e6,
            "ms",
        ));
        ledger.push(Metric::new(
            format!("span.{name}.allocs"),
            s.allocs as f64,
            "count",
        ));
    }
    let named = [
        (
            "silicon.scope_ns_per_trace",
            l.get("silicon.scope").ns_per_item(),
            "ns",
        ),
        (
            "silicon.fabricate_ms",
            l.get_reference("silicon.fabricate").ms_per_call(),
            "ms",
        ),
        (
            "core.pipeline.ns_per_trace",
            l.get("core.pipeline").ns_per_item(),
            "ns",
        ),
        (
            "core.pipeline.allocs_per_trace",
            l.get("core.pipeline").allocs_per_item(),
            "count",
        ),
        (
            "core.fingerprint.fit_ms",
            l.get("core.fingerprint").ms_per_call(),
            "ms",
        ),
        (
            "core.attribution.ms_per_campaign",
            l.get("core.attribution").ms_per_call(),
            "ms",
        ),
        (
            "core.attribution.absorb_ns_per_trace",
            l.get("core.attribution.absorb").ns_per_item(),
            "ns",
        ),
    ];
    for (name, value, unit) in named {
        if value != 0.0 {
            ledger.push(Metric::new(name, value, unit));
        }
    }
    ledger.extend(tail_metrics("op_tail_ms", "ms", &op_ms));
    ledger.push(Metric::new(
        "trace.segment_ms",
        segment_ns as f64 / 1e6,
        "ms",
    ));
    ledger.extend(w.extras(Some(l)));
    Outcome {
        attempted: lp.ops,
        failed: lp.failed,
        failures: lp.failures,
        digest: w.digest(),
        metrics,
        ledger,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(wall_s: f64, traces: u64) -> Cycle {
        Cycle {
            wall_s,
            cpu_s: wall_s,
            traces,
            latencies_ms: vec![wall_s * 1e3],
            probe: QUIET,
        }
    }

    #[test]
    fn timing_takes_medians_over_every_cycle() {
        let cycles: Vec<Cycle> = [5.0, 1.0, 4.0, 2.0, 3.0]
            .iter()
            .map(|&s| cycle(s, 10))
            .collect();
        assert_eq!(timing(&cycles, true), [10.0 / 3.0, 3000.0, 3e5]);
        // Three slow cycles of five move every median.
        let slower: Vec<Cycle> = [5.0, 1.0, 8.0, 2.0, 6.0]
            .iter()
            .map(|&s| cycle(s, 10))
            .collect();
        assert_eq!(timing(&slower, true), [2.0, 5000.0, 5e5]);
        assert_eq!(timing(&[], true), [0.0; 3]);
    }

    #[test]
    fn timing_scales_each_cycle_by_its_probes() {
        // A host twice as slow doubles the cycle and its probes alike.
        let mut slow = cycle(8.0, 10);
        slow.probe = Sample {
            wall_s: 2.0 * probe::NOMINAL_S,
            cpu_s: 2.0 * probe::NOMINAL_S,
        };
        assert_eq!(timing(&[slow], true), timing(&[cycle(4.0, 10)], true));
        // A neighbour taking turns on the core lengthens wall time only.
        let mut shared = cycle(8.0, 10);
        shared.cpu_s = 4.0;
        shared.probe.wall_s = 2.0 * probe::NOMINAL_S;
        assert_eq!(timing(&[shared], true), timing(&[cycle(4.0, 10)], true));
        let mut raw = cycle(8.0, 10);
        raw.probe.wall_s = 2.0 * probe::NOMINAL_S;
        assert_eq!(timing(&[raw], false), timing(&[cycle(8.0, 10)], true));
    }
}
