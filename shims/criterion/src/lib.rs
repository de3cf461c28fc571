//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no network access, so the real `criterion`
//! cannot be fetched. This shim implements the API subset used by the
//! workspace's `harness = false` benches — `Criterion::bench_function`,
//! `benchmark_group`, `Bencher::iter`/`iter_batched`, `BatchSize`, and the
//! `criterion_group!`/`criterion_main!` macros — with a simple wall-clock
//! measurement loop. The time budget is split into ten timed samples;
//! each benchmark prints its mean ns/iter and the min / median / max of
//! the per-sample ns/iter beside it, so a difference can be set against
//! the spread. No outlier analysis, plots, or baselines; results are
//! indicative, not rigorous.

#![expect(
    clippy::disallowed_methods,
    reason = "timing real benchmark runs is this shim's entire purpose"
)]

use std::time::{Duration, Instant};

/// Target wall-clock time spent measuring each benchmark.
const MEASURE_BUDGET: Duration = Duration::from_millis(300);

/// Timed samples per `iter`/`iter_batched` call; the budget is split evenly.
const SAMPLES: usize = 10;

/// Iterations per sample that fill one sample's share of the budget, given
/// the duration of one untimed warm-up call.
fn iters_per_sample(once: Duration) -> u64 {
    let share = MEASURE_BUDGET.as_nanos() / SAMPLES as u128;
    (share / once.as_nanos().max(1)).clamp(1, 1_000) as u64
}

/// Re-export of `std::hint::black_box` under criterion's name.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Batch sizing hint for [`Bencher::iter_batched`]; the shim ignores it.
#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    /// Small per-iteration input.
    SmallInput,
    /// Larger per-iteration input.
    LargeInput,
    /// Input of unpredictable size.
    PerIteration,
}

/// The benchmark driver handed to `criterion_group!` targets.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Chainable no-op kept for `configure_from_args()` call sites.
    #[must_use]
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Runs `f` as a named benchmark and prints its timing summary.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        run_one(name, &mut f);
        self
    }

    /// Starts a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _parent: self,
            name: name.to_string(),
        }
    }
}

/// A named collection of benchmarks; the shim only uses it for prefixing.
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Sample-count hint; the shim's fixed time budget ignores it.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Measurement-time hint; the shim's fixed time budget ignores it.
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Runs `f` as `group/name` and prints its timing summary.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        run_one(&format!("{}/{}", self.name, name), &mut f);
        self
    }

    /// Ends the group (no-op).
    pub fn finish(self) {}
}

/// Passed to benchmark closures; collects the timed samples.
#[derive(Debug, Default)]
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
    /// ns/iter of each timed sample.
    samples: Vec<f64>,
}

/// Statistics of one benchmark's timed samples, in ns/iter.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Summary {
    /// Total elapsed time over total iterations.
    mean: f64,
    /// Fastest sample.
    min: f64,
    /// Median sample (mean of the middle two for an even count).
    median: f64,
    /// Slowest sample.
    max: f64,
    /// Number of timed samples.
    samples: usize,
    /// Total timed iterations.
    iters: u64,
}

impl Bencher {
    /// Times repeated calls of `routine`.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // One untimed warmup to page code in and size the samples.
        let start = Instant::now();
        black_box(routine());
        let per_sample = iters_per_sample(start.elapsed());
        for _ in 0..SAMPLES {
            let start = Instant::now();
            for _ in 0..per_sample {
                black_box(routine());
            }
            self.record(start.elapsed(), per_sample);
        }
    }

    /// Times `routine` over fresh inputs built by `setup` (setup untimed).
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let input = setup();
        let start = Instant::now();
        black_box(routine(input));
        let per_sample = iters_per_sample(start.elapsed());
        for _ in 0..SAMPLES {
            let inputs: Vec<I> = (0..per_sample).map(|_| setup()).collect();
            let start = Instant::now();
            for input in inputs {
                black_box(routine(input));
            }
            self.record(start.elapsed(), per_sample);
        }
    }

    fn record(&mut self, elapsed: Duration, iters: u64) {
        self.elapsed += elapsed;
        self.iters += iters;
        self.samples.push(elapsed.as_nanos() as f64 / iters as f64);
    }

    /// Statistics over the samples taken so far; `None` before any.
    fn summary(&self) -> Option<Summary> {
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        if n == 0 {
            return None;
        }
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        Some(Summary {
            mean: self.elapsed.as_nanos() as f64 / self.iters as f64,
            min: sorted[0],
            median,
            max: sorted[n - 1],
            samples: n,
            iters: self.iters,
        })
    }
}

fn run_one(name: &str, f: &mut dyn FnMut(&mut Bencher)) {
    let mut b = Bencher::default();
    f(&mut b);
    match b.summary() {
        None => println!("{name:<40} (no samples)"),
        Some(s) => println!(
            "{name:<40} {:>12.0} ns/iter  min {:.0} / median {:.0} / max {:.0} \
             ({} samples, {} iters)",
            s.mean, s.min, s.median, s.max, s.samples, s.iters
        ),
    }
}

/// Declares a function running each benchmark target in order.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default().configure_from_args();
            $($target(&mut c);)+
        }
    };
}

/// Declares `main` for a `harness = false` bench binary.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_closure() {
        let mut c = Criterion::default();
        let mut ran = false;
        c.bench_function("shim/self_test", |b| {
            b.iter(|| 1 + 1);
            ran = true;
        });
        assert!(ran);
    }

    #[test]
    fn summary_orders_min_median_max() {
        let mut b = Bencher::default();
        assert_eq!(b.summary(), None);
        b.iter(|| black_box(3u64).pow(2));
        let s = b.summary().unwrap();
        assert_eq!(s.samples, SAMPLES);
        assert!(s.iters >= SAMPLES as u64);
        assert!(s.min <= s.median && s.median <= s.max, "{s:?}");
        assert!(s.min <= s.mean && s.mean <= s.max, "{s:?}");
    }

    #[test]
    fn summary_statistics_of_known_samples() {
        let mut b = Bencher::default();
        for ns in [40, 10, 30, 20] {
            b.record(Duration::from_nanos(ns * 2), 2);
        }
        let s = b.summary().unwrap();
        assert_eq!((s.min, s.median, s.max), (10.0, 25.0, 40.0));
        assert_eq!((s.mean, s.samples, s.iters), (25.0, 4, 8));
        b.record(Duration::from_nanos(50), 1);
        assert_eq!(b.summary().unwrap().median, 30.0);
    }

    #[test]
    fn group_api_compiles_and_runs() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("g");
        group.sample_size(10);
        group.bench_function("batched", |b| {
            b.iter_batched(|| vec![1u8; 8], |v| v.len(), BatchSize::SmallInput);
        });
        group.finish();
    }
}
