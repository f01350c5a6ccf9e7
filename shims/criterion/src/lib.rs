//! Offline shim for the `criterion` crate.
//!
//! The build container cannot reach crates.io, so the workspace vendors
//! the benchmarking surface its `benches/` use: `Criterion`,
//! `benchmark_group`, `bench_function` / `bench_with_input`,
//! `Bencher::iter`, `Throughput`, `BenchmarkId`, `black_box` and the
//! `criterion_group!` / `criterion_main!` macros.
//!
//! Measurement is deliberately simple: warm up briefly, then split a
//! fixed wall-clock window into [`SAMPLES`] equal-length samples and
//! report the min, median and median absolute deviation (MAD) of their
//! ns/iter, plus throughput derived from the median, as plain text.  No
//! plots or baselines — the numbers are for quick relative comparisons,
//! with the MAD saying how far to trust them.  When
//! invoked with `--test` (as `cargo test --benches` does) each benchmark
//! body runs exactly once so CI verifies the code without paying for
//! measurement.

use std::fmt;
use std::time::{Duration, Instant};

/// Samples each measured benchmark's timed window is split into.
pub const SAMPLES: usize = 20;

/// Opaque value barrier preventing the optimizer from deleting work.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Units a benchmark processes per iteration, for derived rates.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Elements (trees, values, …) per iteration.
    Elements(u64),
    /// Bytes per iteration.
    Bytes(u64),
}

/// A benchmark's display identifier.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `function_name/parameter` form.
    pub fn new(function_name: impl Into<String>, parameter: impl fmt::Display) -> Self {
        Self {
            id: format!("{}/{parameter}", function_name.into()),
        }
    }

    /// Parameter-only form.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        Self {
            id: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.id)
    }
}

/// Times one closure; passed to benchmark bodies.
pub struct Bencher {
    mode: Mode,
    /// Captured by [`Bencher::iter`] / [`Bencher::iter_with_setup`].
    result: Option<Measurement>,
}

/// What one benchmark run captured.
struct Measurement {
    /// Iterations per sample.
    iters: u64,
    /// ns/iter of each sample; empty in test mode.
    samples: Vec<f64>,
}

impl Measurement {
    fn once() -> Self {
        Self { iters: 1, samples: Vec::new() }
    }
}

/// Iterations per sample so that [`SAMPLES`] samples of a body taking
/// `per_iter` fill `budget`, capped at `cap`.
fn iters_per_sample(budget: Duration, per_iter: Duration, cap: u64) -> u64 {
    let total = budget.as_nanos() / per_iter.as_nanos().max(1);
    ((total / SAMPLES as u128) as u64).clamp(1, cap)
}

fn ns_per_iter(elapsed: Duration, iters: u64) -> f64 {
    elapsed.as_nanos() as f64 / iters as f64
}

#[derive(Clone, Copy)]
enum Mode {
    /// Run the body once — compile/behavior check only.
    Test,
    /// Warm up then measure for roughly this long.
    Measure(Duration),
}

impl Bencher {
    /// Calls `routine` repeatedly and records time per call, per sample.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        match self.mode {
            Mode::Test => {
                black_box(routine());
                self.result = Some(Measurement::once());
            }
            Mode::Measure(budget) => {
                // Warm-up: run until ~10% of the budget is spent, counting
                // how many iterations fit so each sample can batch.
                let warm_budget = budget / 10 + Duration::from_millis(1);
                let warm_start = Instant::now();
                let mut warm_iters = 0u64;
                while warm_start.elapsed() < warm_budget {
                    black_box(routine());
                    warm_iters += 1;
                }
                let per_iter = warm_start.elapsed() / warm_iters.max(1) as u32;
                let iters = iters_per_sample(budget, per_iter, 1 << 20);
                let samples = (0..SAMPLES)
                    .map(|_| {
                        let start = Instant::now();
                        for _ in 0..iters {
                            black_box(routine());
                        }
                        ns_per_iter(start.elapsed(), iters)
                    })
                    .collect();
                self.result = Some(Measurement { iters, samples });
            }
        }
    }

    /// Like [`Bencher::iter`], but re-creates the input with `setup`
    /// before every call; only `routine` is timed.
    pub fn iter_with_setup<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
    ) {
        match self.mode {
            Mode::Test => {
                black_box(routine(setup()));
                self.result = Some(Measurement::once());
            }
            Mode::Measure(budget) => {
                // Warm up once to size the samples, then time only the
                // routine, excluding setup, accumulating across calls.
                let warm_start = Instant::now();
                black_box(routine(setup()));
                let iters = iters_per_sample(budget, warm_start.elapsed(), 1 << 12);
                let samples = (0..SAMPLES)
                    .map(|_| {
                        let mut total = Duration::ZERO;
                        for _ in 0..iters {
                            let input = setup();
                            let start = Instant::now();
                            black_box(routine(input));
                            total += start.elapsed();
                        }
                        ns_per_iter(total, iters)
                    })
                    .collect();
                self.result = Some(Measurement { iters, samples });
            }
        }
    }
}

/// Top-level benchmark driver.
pub struct Criterion {
    mode: Mode,
}

impl Default for Criterion {
    fn default() -> Self {
        let test_mode = std::env::args().any(|a| a == "--test")
            || std::env::var("CRITERION_QUICK").is_ok_and(|v| v == "1");
        Self {
            mode: if test_mode {
                Mode::Test
            } else {
                Mode::Measure(Duration::from_millis(300))
            },
        }
    }
}

impl Criterion {
    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            throughput: None,
        }
    }

    /// Runs one stand-alone benchmark.
    pub fn bench_function(&mut self, id: impl fmt::Display, f: impl FnMut(&mut Bencher)) -> &mut Self {
        run_one(self.mode, &id.to_string(), None, f);
        self
    }
}

/// A named set of benchmarks sharing throughput settings.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Accepted for compatibility; the shim sizes runs by wall clock.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Accepted for compatibility; the shim ignores it.
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Sets per-iteration units for derived rate reporting.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs a benchmark in this group.
    pub fn bench_function(
        &mut self,
        id: impl fmt::Display,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let label = format!("{}/{}", self.name, id);
        run_one(self.criterion.mode, &label, self.throughput, f);
        self
    }

    /// Runs a benchmark receiving an input by reference.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        let label = format!("{}/{}", self.name, id);
        run_one(self.criterion.mode, &label, self.throughput, |b| f(b, input));
        self
    }

    /// Ends the group (report lines are printed as benchmarks run).
    pub fn finish(self) {}
}

fn run_one(mode: Mode, label: &str, throughput: Option<Throughput>, mut f: impl FnMut(&mut Bencher)) {
    let mut bencher = Bencher { mode, result: None };
    f(&mut bencher);
    let Some(Measurement { iters, samples }) = bencher.result else {
        println!("{label:<50} (no iter() call)");
        return;
    };
    let Some(stats) = Stats::of(samples) else {
        println!("{label:<50} ok (test mode, 1 iteration)");
        return;
    };
    let ns = stats.median;
    let rate = throughput.map(|t| match t {
        Throughput::Elements(n) => format!("  {:>12.0} elem/s", n as f64 / (ns * 1e-9)),
        Throughput::Bytes(n) => {
            format!("  {:>12.1} MiB/s", n as f64 / (ns * 1e-9) / (1024.0 * 1024.0))
        }
    });
    println!(
        "{label:<50} min {:>12.1}  median {ns:>12.1}  MAD {:>9.1} ns/iter ({SAMPLES} x {iters} iters){}",
        stats.min,
        stats.mad,
        rate.unwrap_or_default()
    );
}

/// Summary statistics of per-sample ns/iter.
#[derive(Debug, PartialEq)]
struct Stats {
    min: f64,
    median: f64,
    /// Median absolute deviation from the median.
    mad: f64,
}

impl Stats {
    /// `None` for no samples (test mode).
    fn of(mut samples: Vec<f64>) -> Option<Self> {
        let min = samples.iter().copied().reduce(f64::min)?;
        let mid = median(&mut samples);
        let mut deviations: Vec<f64> = samples.iter().map(|s| (s - mid).abs()).collect();
        Some(Self { min, median: mid, mad: median(&mut deviations) })
    }
}

/// Median of a non-empty slice (mean of the middle two for even lengths).
fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Collects benchmark functions into one group runner.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Emits `main` running the listed groups.
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
    fn bencher_records_iterations() {
        let mut b = Bencher {
            mode: Mode::Measure(Duration::from_millis(5)),
            result: None,
        };
        let mut count = 0u64;
        b.iter(|| {
            count += 1;
            count
        });
        let m = b.result.expect("iter ran");
        assert!(m.iters >= 1);
        assert_eq!(m.samples.len(), SAMPLES);
        assert!(count >= m.iters * SAMPLES as u64);
        assert!(m.samples.iter().all(|&ns| ns >= 0.0));
    }

    #[test]
    fn test_mode_runs_the_body_once() {
        let mut b = Bencher {
            mode: Mode::Test,
            result: None,
        };
        let mut count = 0u64;
        b.iter(|| count += 1);
        b.iter_with_setup(|| 1u64, |x| count += x);
        assert_eq!(count, 2);
        let m = b.result.expect("iter ran");
        assert!(m.samples.is_empty());
        assert_eq!(Stats::of(m.samples), None);
    }

    #[test]
    fn stats_are_robust_to_one_outlier() {
        let s = Stats::of(vec![10.0, 12.0, 11.0, 1000.0, 9.0]).expect("samples");
        assert_eq!(s.min, 9.0);
        assert_eq!(s.median, 11.0);
        // Deviations {1, 1, 0, 989, 2} → median 1.
        assert_eq!(s.mad, 1.0);
        let even = Stats::of(vec![4.0, 1.0, 3.0, 2.0]).expect("samples");
        assert_eq!((even.min, even.median, even.mad), (1.0, 2.5, 1.0));
    }

    #[test]
    fn group_api_compiles_and_runs() {
        let mut c = Criterion {
            mode: Mode::Test,
        };
        let mut g = c.benchmark_group("g");
        g.sample_size(10);
        g.throughput(Throughput::Elements(4));
        g.bench_with_input(BenchmarkId::from_parameter(7), &7u64, |b, &x| {
            b.iter(|| x * 2)
        });
        g.bench_function("plain", |b| b.iter(|| 1 + 1));
        g.finish();
    }
}
