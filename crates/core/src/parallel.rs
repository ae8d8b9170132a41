//! Parallel execution policy for the acquisition → fingerprint → alarm
//! hot paths.
//!
//! The paper's monitor "works in parallel with the circuit's normal
//! execution"; this module lets the *reproduction* fan its batch work
//! across cores when a caller asks for it. Everything runs serially by
//! default: a [`ParallelConfig`] names only a worker count, and threads
//! start only where a caller sets one above 1. A pool fans out **whole
//! traces** (measurement, features, projections, scoring) and nothing
//! below them: a campaign's lanes and a scan's rows run on the calling
//! thread, where no workload gained 1.3× from a second worker
//! (EXPERIMENTS.md, "Which thread paths pay"). Its work is cut into
//! **fixed chunks whose layout never depends on the worker count**, so
//! results are bit-identical for every worker count — serial
//! (`workers = 1`) and 8-wide runs produce the same
//! traces, the same distances, and the same alarms in the same order.
//! Randomness is never drawn from worker identity: every trace's noise
//! seed is derived from the campaign seed and the trace index alone.

use emtrust_dsp::parallel as substrate;

/// Items per work chunk: small enough to load balance trace collection,
/// large enough to amortize dispatch. Chunk boundaries are a pure
/// function of this value, never of the worker count, which is what
/// keeps parallel runs bit-identical to serial ones.
const CHUNK: usize = 4;

/// Worker-pool configuration shared by the parallel hot paths: it fans
/// out whole traces and nothing below them (see the module docs). The
/// default is [`Self::serial`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Number of worker threads. `1` runs inline on the caller's thread
    /// (the degenerate pool — no threads are spawned at all).
    pub workers: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self::serial()
    }
}

impl ParallelConfig {
    /// A configuration that runs everything inline on one thread.
    pub fn serial() -> Self {
        Self { workers: 1 }
    }

    /// Sets the worker count (clamped to at least 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Maps every index of `0..n_items` with `f` across the pool,
    /// preserving index order in the output.
    ///
    /// # Errors
    ///
    /// Forwards the error of the lowest-indexed failing chunk.
    pub fn try_map<R, E, F>(&self, n_items: usize, f: F) -> Result<Vec<R>, E>
    where
        R: Send,
        E: Send,
        F: Fn(usize) -> Result<R, E> + Sync,
    {
        substrate::chunked_try_map(n_items, CHUNK, self.workers, |range| {
            range.map(&f).collect()
        })
    }

    /// Maps every index of `0..n_items` with an infallible `f` across the
    /// pool, preserving index order in the output. The per-trace stages
    /// of the detection pipeline (featurize, score) report their failures
    /// as values, so this is their natural fan-out primitive.
    pub fn map<R, F>(&self, n_items: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        substrate::chunked_map(n_items, CHUNK, self.workers, |range| {
            range.map(&f).collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_serial_and_builder_clamps_to_one() {
        assert_eq!(ParallelConfig::default(), ParallelConfig::serial());
        assert_eq!(ParallelConfig::serial().workers, 1);
        assert_eq!(ParallelConfig::serial().with_workers(0).workers, 1);
    }

    #[test]
    fn indexed_map_preserves_order() {
        let cfg = ParallelConfig::serial().with_workers(4);
        let got: Vec<usize> = cfg.try_map::<_, (), _>(20, |i| Ok(i * 2)).unwrap();
        assert_eq!(got, (0..20).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn infallible_map_matches_serial() {
        let cfg = ParallelConfig::serial().with_workers(4);
        let got = cfg.map(15, |i| i * i);
        assert_eq!(got, (0..15).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn errors_pick_the_lowest_chunk() {
        let cfg = ParallelConfig::serial().with_workers(8);
        let got: Result<Vec<usize>, usize> =
            cfg.try_map(50, |i| if i >= 11 { Err(i) } else { Ok(i) });
        // Chunk [8, 12) is the lowest failing chunk; within a chunk the
        // scan is sequential, so index 11 is the reported error.
        assert_eq!(got.unwrap_err(), 11);
    }
}
