//! Offline, API-compatible subset of the `criterion` benchmark harness.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the slice of criterion's surface its benches use:
//! [`Criterion::bench_function`], [`Criterion::benchmark_group`],
//! [`Bencher::iter`], [`Bencher::iter_batched`], [`BatchSize`], and the
//! `criterion_group!` / `criterion_main!` macros.
//!
//! Instead of criterion's bootstrapped statistics, each benchmark is run
//! for a short wall-clock window and the mean iteration time is printed.
//! When invoked by `cargo test` (any CLI argument present, e.g. `--test`),
//! every routine runs exactly once so benches double as smoke tests.

use std::time::{Duration, Instant};

/// How batched inputs are grouped; accepted for API compatibility, the
/// subset times every batch size identically (one input per routine call).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One fresh input per routine call.
    PerIteration,
}

/// Opaque value blocker, mirroring `criterion::black_box`.
#[inline]
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Times a single benchmark routine.
pub struct Bencher {
    /// Smoke mode: run the routine once, skip timing.
    smoke: bool,
    /// (iterations, total time) recorded by the last `iter*` call.
    result: Option<(u64, Duration)>,
}

const TARGET_WINDOW: Duration = Duration::from_millis(300);
const MAX_ITERS: u64 = 10_000;

impl Bencher {
    /// Times `routine` repeatedly until the measurement window closes.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        if self.smoke {
            black_box(routine());
            return;
        }
        let start = Instant::now();
        let mut iters = 0u64;
        while iters < MAX_ITERS {
            black_box(routine());
            iters += 1;
            if start.elapsed() >= TARGET_WINDOW {
                break;
            }
        }
        self.result = Some((iters, start.elapsed()));
    }

    /// Times `routine` over inputs produced by `setup`; setup time is
    /// excluded from the measurement.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        if self.smoke {
            black_box(routine(setup()));
            return;
        }
        let mut iters = 0u64;
        let mut busy = Duration::ZERO;
        let window = Instant::now();
        while iters < MAX_ITERS {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            busy += start.elapsed();
            iters += 1;
            if window.elapsed() >= TARGET_WINDOW {
                break;
            }
        }
        self.result = Some((iters, busy));
    }
}

fn run_one(label: &str, smoke: bool, f: &mut dyn FnMut(&mut Bencher)) {
    let mut b = Bencher { smoke, result: None };
    f(&mut b);
    if smoke {
        println!("{label}: ok (smoke)");
    } else if let Some((iters, total)) = b.result {
        let per = total.as_secs_f64() / iters.max(1) as f64;
        println!("{label}: {:.3} µs/iter ({iters} iters)", per * 1e6);
    } else {
        println!("{label}: no measurement recorded");
    }
}

/// The benchmark manager handed to every `criterion_group!` target.
pub struct Criterion {
    smoke: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        // `cargo test` invokes bench targets with `--test`; `cargo bench`
        // passes `--bench`. Only the former is a smoke run.
        Criterion { smoke: std::env::args().any(|a| a == "--test") }
    }
}

impl Criterion {
    /// Accepted for API compatibility; CLI args are already consulted by
    /// [`Criterion::default`].
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Benchmarks a single function.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        run_one(id, self.smoke, &mut f);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup { parent: self, name: name.to_string() }
    }
}

/// A named collection of benchmarks sharing a prefix.
pub struct BenchmarkGroup<'a> {
    parent: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Benchmarks a function within the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        run_one(&format!("{}/{id}", self.name), self.parent.smoke, &mut f);
        self
    }

    /// Accepted for API compatibility.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Closes the group.
    pub fn finish(self) {}
}

/// Declares a group of benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the benchmark binary's `main`, running each group.
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
    fn bencher_records_iterations() {
        let mut b = Bencher { smoke: false, result: None };
        b.iter(|| 1 + 1);
        let (iters, _) = b.result.expect("measurement");
        assert!(iters >= 1);
    }

    #[test]
    fn batched_runs_setup_per_call() {
        let mut setups = 0u64;
        let mut b = Bencher { smoke: false, result: None };
        b.iter_batched(
            || {
                setups += 1;
                setups
            },
            |x| x * 2,
            BatchSize::SmallInput,
        );
        let (iters, _) = b.result.expect("measurement");
        assert_eq!(setups, iters);
    }

    #[test]
    fn smoke_mode_runs_once() {
        let mut calls = 0u64;
        let mut b = Bencher { smoke: true, result: None };
        b.iter(|| calls += 1);
        assert_eq!(calls, 1);
        assert!(b.result.is_none());
    }
}
