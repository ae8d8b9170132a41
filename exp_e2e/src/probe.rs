//! A fixed reference kernel that measures how fast the host runs.
//!
//! The benchmark shares its cores with other tenants, and a busy
//! neighbour slows every instruction of this process, CPU time included,
//! by up to 1.5× for tens of seconds at a time. The run loop times this
//! kernel around each set-up, around each timed cycle and between the
//! ops of a cycle. It does the same work on every commit and calls
//! nothing in the repository, so its time against [`NOMINAL_S`] says how
//! much slower than nominal the host ran at that moment, and the run loop
//! scales the interval's wall and CPU times by that factor.
//!
//! The kernel is a dependent walk through a 256 KiB table, inside L2:
//! every step waits for the load before it, so its time follows the
//! core's clock and the share of the core a neighbour takes, not memory
//! bandwidth. Seven kernels were timed between the ops of `monitor`,
//! `spectral_watch` and `array_attribution`, ten runs each, on a 2-vCPU
//! x86-64 VM (Intel Xeon) with busy neighbours: this walk; the same walk
//! through 512 KiB, 2 MiB and 8 MiB; streaming multiply-adds over 1 MiB
//! and 8 MiB; and a register-only integer and float loop. Scaled by this
//! walk, the spread (interquartile range over median) of the runs' CPU
//! time per trace fell from 14–23 % to 4–5 %. No other kernel, alone or
//! summed with up to two others, kept all three workloads under 8 %.
//! Timing the walk only around each cycle, not between its ops, left
//! `spectral_watch`, whose cycles last about two seconds, at 13 %.
//!
//! The match is not exact: how much a workload slows for a given slowdown
//! of the walk changes from one busy spell to the next (fitted exponents
//! 0.4–1.6 over sets of ten runs). Over four later sets of ten runs per
//! workload on the same VM, the spread of the timing metrics was 4–31 %
//! measured and 4–13 % scaled.

use crate::procfs;
use std::time::Instant;

/// Words of the walked table: 256 KiB, inside the L2 of x86 server cores.
const TABLE_WORDS: usize = 1 << 16;
/// Dependent loads per probe, about a millisecond.
const STEPS: usize = 100_000;

/// Wall time of one probe on a quiet host: the median of 200 probes in a
/// release build on a 2-vCPU x86-64 VM (Intel Xeon) with no other load.
/// Only the unit of the scaled metrics depends on it: with it, they read
/// as the host's figures on a quiet host.
pub const NOMINAL_S: f64 = 0.85e-3;

/// What one probe took.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub wall_s: f64,
    /// CPU time of the calling thread.
    pub cpu_s: f64,
}

impl Sample {
    /// The mean of `samples`; `None` when empty.
    pub fn mean(samples: &[Sample]) -> Option<Sample> {
        let n = samples.len() as f64;
        (!samples.is_empty()).then(|| Sample {
            wall_s: samples.iter().map(|s| s.wall_s).sum::<f64>() / n,
            cpu_s: samples.iter().map(|s| s.cpu_s).sum::<f64>() / n,
        })
    }

    /// The factor that turns a wall time measured around this sample into
    /// quiet-host time (below 1 when the host ran slow).
    pub fn wall_scale(&self) -> f64 {
        scale(self.wall_s)
    }

    /// The same for a CPU time. A neighbour that only takes turns on the
    /// core lengthens wall time but not CPU time, so the two scale apart.
    pub fn cpu_scale(&self) -> f64 {
        scale(self.cpu_s)
    }
}

fn scale(probe_s: f64) -> f64 {
    if probe_s > 0.0 {
        NOMINAL_S / probe_s
    } else {
        1.0
    }
}

pub struct Probe {
    /// A single cycle through every index (Sattolo's shuffle), so the walk
    /// visits the whole table in an order the prefetchers cannot follow.
    table: Vec<u32>,
    /// Where the walk stopped.
    at: u32,
}

impl Probe {
    pub fn new() -> Self {
        let mut table: Vec<u32> = (0..TABLE_WORDS as u32).collect();
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for i in (1..TABLE_WORDS).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let j = (state % i as u64) as usize;
            table.swap(i, j);
        }
        Self { table, at: 0 }
    }

    /// Runs the kernel once and times it.
    pub fn run(&mut self) -> Result<Sample, String> {
        let cpu0 = procfs::thread_cpu_s()?;
        let t0 = Instant::now();
        let mut at = self.at;
        for _ in 0..STEPS {
            at = self.table[at as usize];
        }
        self.at = std::hint::black_box(at);
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = procfs::thread_cpu_s()? - cpu0;
        Ok(Sample { wall_s, cpu_s })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_table_is_one_cycle() {
        let p = Probe::new();
        let mut at = 0u32;
        for step in 1..=TABLE_WORDS {
            at = p.table[at as usize];
            if at == 0 {
                assert_eq!(step, TABLE_WORDS);
            }
        }
        assert_eq!(at, 0);
    }

    #[test]
    fn a_slow_probe_shrinks_the_interval_it_brackets() {
        let quiet = Sample {
            wall_s: NOMINAL_S,
            cpu_s: NOMINAL_S,
        };
        assert_eq!(quiet.wall_scale(), 1.0);
        let busy = Sample {
            wall_s: 2.0 * NOMINAL_S,
            cpu_s: NOMINAL_S,
        };
        let both = Sample::mean(&[quiet, busy]).unwrap();
        assert!((both.wall_scale() - 1.0 / 1.5).abs() < 1e-12);
        assert_eq!(both.cpu_scale(), 1.0);
        assert_eq!(Sample::mean(&[]), None);
        assert!(Probe::new().run().unwrap().wall_s > 0.0);
    }
}
