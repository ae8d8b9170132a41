//! Deterministic chunked parallel execution on scoped threads.
//!
//! The substrate of the workspace's worker pools: `emtrust`'s
//! `ParallelConfig`, which fans out whole traces, and the cycle chunks of
//! `ChargeTable::bin_trace`.
//! Work is split into **fixed-size chunks whose boundaries depend only on
//! the chunk size, never on the worker count**; workers pull chunks from a
//! shared atomic cursor and results are merged back in chunk order. Any
//! stage whose per-chunk computation is a pure function of the chunk
//! therefore produces **bit-identical output for every worker count** —
//! the property the trust monitor's determinism guarantee rests on.
//!
//! Scoped `std::thread` workers are used rather than an external pool
//! crate: the build environment is offline, and the chunk granularity
//! here (whole EM traces, blocks of cycles) makes pool reuse overhead
//! irrelevant.

use emtrust_telemetry as telemetry;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Number of hardware threads the host offers, detected once and cached.
///
/// Every pool clamps its effective worker count to this value: running
/// more compute-bound workers than cores only adds time-slicing overhead
/// (the `BENCH_parallel.json` scaling cliff), and because chunk layout —
/// and therefore every result bit — is independent of the worker count,
/// the clamp is always safe to apply.
pub fn host_parallelism() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// Splits `n_items` into contiguous chunks of at most `chunk_size`, maps
/// every chunk with `f` on up to `workers` threads, and returns the
/// per-chunk outputs concatenated in chunk order.
///
/// `f` receives the half-open item range of its chunk. The chunk layout is
/// a pure function of `(n_items, chunk_size)`, so for a chunk-pure `f` the
/// result is identical for every `workers` value, including 1 (which runs
/// inline on the caller's thread, with no spawn at all).
///
/// # Errors
///
/// If any chunk returns an error, the error from the **lowest-indexed**
/// failing chunk is returned — again independent of the worker count.
pub fn chunked_try_map<R, E, F>(
    n_items: usize,
    chunk_size: usize,
    workers: usize,
    f: F,
) -> Result<Vec<R>, E>
where
    R: Send,
    E: Send,
    F: Fn(std::ops::Range<usize>) -> Result<Vec<R>, E> + Sync,
{
    let chunk_size = chunk_size.max(1);
    // Oversubscription clamp: requesting more workers than the host has
    // hardware threads can only slow a compute-bound pool down, and the
    // worker count never affects results, so the cap is applied here —
    // beneath every call site — rather than trusting each caller.
    let workers = workers.max(1).min(host_parallelism());
    let n_chunks = n_items.div_ceil(chunk_size);
    if n_items == 0 {
        return Ok(Vec::new());
    }
    // Per-worker chunk timing: when a recorder is installed, every chunk
    // records its wall time under `pool.worker.<w>.chunk_ns` (the inline
    // degenerate pool is worker 0). Disabled cost: one atomic load.
    let run_chunk = |worker: usize, lo: usize, hi: usize| {
        if telemetry::is_enabled() {
            telemetry::counter("pool.chunks", 1);
            telemetry::time(&format!("pool.worker.{worker}.chunk_ns"), || f(lo..hi))
        } else {
            f(lo..hi)
        }
    };
    if workers == 1 || n_chunks == 1 {
        // Degenerate pool: run inline, chunk by chunk, same chunk layout.
        let mut out = Vec::with_capacity(n_items);
        for c in 0..n_chunks {
            let lo = c * chunk_size;
            let hi = (lo + chunk_size).min(n_items);
            out.extend(run_chunk(0, lo, hi)?);
        }
        return Ok(out);
    }

    type ChunkSlot<R, E> = (usize, Result<Vec<R>, E>);
    let cursor = AtomicUsize::new(0);
    // (chunk index, chunk output) pairs, pushed in completion order.
    let done: Mutex<Vec<ChunkSlot<R, E>>> = Mutex::new(Vec::with_capacity(n_chunks));
    let n_threads = workers.min(n_chunks);
    std::thread::scope(|scope| {
        for w in 0..n_threads {
            let (run_chunk, cursor, done) = (&run_chunk, &cursor, &done);
            scope.spawn(move || loop {
                let c = cursor.fetch_add(1, Ordering::Relaxed);
                if c >= n_chunks {
                    break;
                }
                let lo = c * chunk_size;
                let hi = (lo + chunk_size).min(n_items);
                let result = run_chunk(w, lo, hi);
                // A poisoned lock only means another worker panicked after
                // pushing its chunk; the data inside is still consistent.
                done.lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .push((c, result));
            });
        }
    });

    let mut chunks = done
        .into_inner()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    chunks.sort_by_key(|(c, _)| *c);
    let mut out = Vec::with_capacity(n_items);
    for (_, result) in chunks {
        out.extend(result?);
    }
    Ok(out)
}

/// Infallible variant of [`chunked_try_map`].
pub fn chunked_map<R, F>(n_items: usize, chunk_size: usize, workers: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(std::ops::Range<usize>) -> Vec<R> + Sync,
{
    match chunked_try_map::<R, std::convert::Infallible, _>(n_items, chunk_size, workers, |r| {
        Ok(f(r))
    }) {
        Ok(v) => v,
        Err(e) => match e {},
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_item_order_for_any_worker_count() {
        let reference: Vec<usize> = (0..103).map(|i| i * i).collect();
        for workers in [1, 2, 3, 8, 64] {
            for chunk in [1, 4, 7, 103, 1000] {
                let got = chunked_map(103, chunk, workers, |r| {
                    r.map(|i| i * i).collect::<Vec<_>>()
                });
                assert_eq!(got, reference, "workers={workers} chunk={chunk}");
            }
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let got = chunked_map(0, 8, 4, |r| r.collect::<Vec<_>>());
        assert!(got.is_empty());
    }

    #[test]
    fn lowest_failing_chunk_wins_regardless_of_workers() {
        for workers in [1, 2, 8] {
            let got: Result<Vec<usize>, usize> = chunked_try_map(100, 10, workers, |r| {
                if r.start >= 30 {
                    Err(r.start)
                } else {
                    Ok(r.collect())
                }
            });
            assert_eq!(got.unwrap_err(), 30, "workers={workers}");
        }
    }

    #[test]
    fn oversubscribed_workers_are_harmless() {
        let got = chunked_map(5, 2, 100, |r| r.collect::<Vec<_>>());
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn host_parallelism_is_positive_and_stable() {
        let a = host_parallelism();
        assert!(a >= 1);
        assert_eq!(a, host_parallelism());
    }

    #[test]
    fn clamped_pool_is_bit_identical_to_unclamped_request() {
        // Requesting far more workers than the host has must produce the
        // same bits as a serial run — the clamp only changes scheduling.
        let values: Vec<f64> = (0..257).map(|i| (i as f64 * 0.7).sin()).collect();
        let serial: Vec<f64> = chunked_map(values.len(), 8, 1, |r| {
            r.map(|i| values[i] * values[i]).collect::<Vec<_>>()
        });
        let huge = chunked_map(values.len(), 8, 10_000, |r| {
            r.map(|i| values[i] * values[i]).collect::<Vec<_>>()
        });
        for (a, b) in serial.iter().zip(&huge) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
