//! Offline drop-in subset of the `criterion` benchmark harness.
//!
//! The build environment has no crates registry, so the real `criterion`
//! cannot be fetched. This shim keeps `cargo bench` working with the same
//! bench sources: it times each closure's samples in 10 equal
//! chunks and prints the median chunk's wall-clock time per iteration,
//! the chunks' quartiles and the mean. A slow host phase moves the mean
//! of one loop with it; it moves the median only if it covers half the
//! chunks. Passing `--test` (as CI does via `cargo bench -- --test`) runs
//! every benchmark body exactly once as a smoke test, without timing
//! loops.

#![deny(missing_docs)]

use std::fmt;
use std::time::Instant;

pub use std::hint::black_box;

/// Equal chunks a benchmark's samples are timed in. A sample size that
/// does not divide evenly is rounded up to the next multiple.
const CHUNKS: usize = 10;

/// Top-level harness state, handed to every benchmark function.
pub struct Criterion {
    test_mode: bool,
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        let mut test_mode = false;
        let mut filter = None;
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--test" => test_mode = true,
                // Flags cargo/criterion conventionally pass; ignored.
                "--bench" | "--nocapture" | "-q" | "--quiet" => {}
                other if !other.starts_with('-') && filter.is_none() => {
                    filter = Some(other.to_string());
                }
                _ => {}
            }
        }
        Self { test_mode, filter }
    }
}

impl Criterion {
    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
            sample_size: 20,
        }
    }

    /// Whether the command line's name filter selects the benchmark
    /// `id` (every benchmark when there is no filter).
    fn selects(&self, id: &str) -> bool {
        self.filter
            .as_deref()
            .is_none_or(|filter| id.contains(filter))
    }

    /// Runs one stand-alone benchmark.
    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.to_string();
        run_one(self, &id, 20, f);
        self
    }
}

/// A parameterized benchmark identifier.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// An identifier combining a function name and a parameter.
    pub fn new(name: impl fmt::Display, parameter: impl fmt::Display) -> Self {
        Self {
            label: format!("{name}/{parameter}"),
        }
    }

    /// An identifier naming only the parameter.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        Self {
            label: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label)
    }
}

/// Declared throughput of a benchmark, echoed alongside its timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// A group of benchmarks sharing a name prefix and sample size.
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Whether the command line's name filter selects this group's
    /// benchmark `id`: work done outside the timed bodies, such as a
    /// printed report, can skip what the filter leaves out.
    pub fn selects(&self, id: impl fmt::Display) -> bool {
        self.criterion.selects(&format!("{}/{}", self.name, id))
    }

    /// Declares the per-iteration throughput (echoed, not verified).
    pub fn throughput(&mut self, _t: Throughput) -> &mut Self {
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F>(&mut self, id: impl fmt::Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = format!("{}/{}", self.name, id);
        let n = self.sample_size;
        run_one(self.criterion, &id, n, f);
        self
    }

    /// Runs one benchmark with an input value.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let id = format!("{}/{}", self.name, id);
        let n = self.sample_size;
        run_one(self.criterion, &id, n, |b| f(b, input));
        self
    }

    /// Ends the group (upstream flushes reports here; the shim prints
    /// per-benchmark, so this is a no-op kept for API compatibility).
    pub fn finish(self) {}
}

/// Times the body passed to [`Bencher::iter`].
pub struct Bencher {
    samples: usize,
    test_mode: bool,
    /// Seconds per iteration of each timed chunk, in run order.
    chunks: Vec<f64>,
    iterations: u64,
}

impl Bencher {
    /// Runs `body` repeatedly and records its wall-clock time per
    /// iteration in [`CHUNKS`] equal chunks. In `--test` mode the body
    /// runs exactly once, untimed.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut body: F) {
        if self.test_mode {
            black_box(body());
            self.iterations = 1;
            return;
        }
        // One warm-up, then the timed chunks.
        black_box(body());
        let per_chunk = self.samples.div_ceil(CHUNKS);
        self.chunks.clear();
        for _ in 0..CHUNKS {
            let start = Instant::now();
            for _ in 0..per_chunk {
                black_box(body());
            }
            self.chunks
                .push(start.elapsed().as_secs_f64() / per_chunk as f64);
        }
        self.iterations = (per_chunk * CHUNKS) as u64;
    }
}

fn run_one<F: FnMut(&mut Bencher)>(criterion: &Criterion, id: &str, samples: usize, mut f: F) {
    if !criterion.selects(id) {
        return;
    }
    let mut b = Bencher {
        samples,
        test_mode: criterion.test_mode,
        chunks: Vec::with_capacity(CHUNKS),
        iterations: 0,
    };
    f(&mut b);
    if criterion.test_mode {
        println!("{id}: ok (smoke)");
    } else if b.iterations > 0 {
        // The chunks are equal, so the mean of their times is the mean.
        let mean = b.chunks.iter().sum::<f64>() / b.chunks.len() as f64;
        let [q1, median, q3] = quartiles(&mut b.chunks);
        println!(
            "{id}: {} per iter (median of {} chunks; quartiles {} – {}; mean {}; {} iters)",
            format_time(median),
            b.chunks.len(),
            format_time(q1),
            format_time(q3),
            format_time(mean),
            b.iterations
        );
    } else {
        println!("{id}: no iterations recorded");
    }
}

/// The first quartile, the median and the third quartile of `times`
/// (sorted in place), each interpolated linearly between the two
/// nearest ranks.
fn quartiles(times: &mut [f64]) -> [f64; 3] {
    times.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (times.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        times[lo] + (times[hi] - times[lo]) * (pos - lo as f64)
    };
    [at(0.25), at(0.5), at(0.75)]
}

fn format_time(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:.3} s")
    } else if seconds >= 1e-3 {
        format!("{:.3} ms", seconds * 1e3)
    } else if seconds >= 1e-6 {
        format!("{:.3} µs", seconds * 1e6)
    } else {
        format!("{:.1} ns", seconds * 1e9)
    }
}

/// Declares a benchmark group runner, mirroring upstream's simple form.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the bench binary's `main`, running each group in order.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_ids_format_like_upstream() {
        assert_eq!(BenchmarkId::new("fit", 8).to_string(), "fit/8");
        assert_eq!(BenchmarkId::from_parameter(64).to_string(), "64");
    }

    #[test]
    fn time_formatting_covers_scales() {
        assert_eq!(format_time(2.0), "2.000 s");
        assert_eq!(format_time(2.5e-3), "2.500 ms");
        assert_eq!(format_time(2.5e-6), "2.500 µs");
        assert_eq!(format_time(2.5e-9), "2.5 ns");
    }

    #[test]
    fn quartiles_interpolate_between_ranks() {
        let mut times = [10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0];
        assert_eq!(quartiles(&mut times), [3.25, 5.5, 7.75]);
        assert_eq!(quartiles(&mut [2.0]), [2.0, 2.0, 2.0]);
    }

    #[test]
    fn timed_samples_fill_equal_chunks() {
        for (samples, timed) in [(1, 10), (5, 10), (10, 10), (20, 20), (25, 30)] {
            let mut b = Bencher {
                samples,
                test_mode: false,
                chunks: Vec::new(),
                iterations: 0,
            };
            let mut calls = 0;
            b.iter(|| calls += 1);
            // One untimed warm-up call.
            assert_eq!(calls, timed + 1);
            assert_eq!(b.iterations, timed as u64);
            assert_eq!(b.chunks.len(), CHUNKS);
        }
    }

    #[test]
    fn groups_run_their_benchmarks() {
        let mut c = Criterion {
            test_mode: true,
            filter: None,
        };
        let mut ran = 0;
        {
            let mut g = c.benchmark_group("g");
            g.sample_size(10)
                .bench_function("one", |b| b.iter(|| ran += 1));
            g.finish();
        }
        assert_eq!(ran, 1);
    }

    #[test]
    fn groups_tell_which_benchmarks_the_filter_selects() {
        let mut c = Criterion {
            test_mode: true,
            filter: Some("g/on".into()),
        };
        let mut ran = Vec::new();
        {
            let mut g = c.benchmark_group("g");
            assert!(g.selects("one") && !g.selects("two"));
            for id in ["one", "two"] {
                g.bench_function(id, |b| b.iter(|| ran.push(id)));
            }
        }
        assert_eq!(ran, ["one"]);
        assert!(!c.benchmark_group("h").selects("one"));
        c.filter = None;
        assert!(c.benchmark_group("h").selects("one"));
    }
}
