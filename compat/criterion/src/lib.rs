//! Offline API-subset stand-in for `criterion` (see `compat/README.md`).
//!
//! Implements `Criterion::bench_function`, `Bencher::iter`/`iter_batched`,
//! and the `criterion_group!`/`criterion_main!` macros with a simple
//! adaptive timer: each benchmark is warmed up, then measured in batches
//! until ~200 ms of wall time accumulates, and the mean ns/iter is
//! printed. No statistics, plots, or baselines.

use std::hint::black_box as std_black_box;
use std::time::{Duration, Instant};

/// Prevents the optimizer from eliding a benchmarked value.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// How `iter_batched` amortizes setup; the hint is accepted but all
/// variants behave identically here (setup always outside the timer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

const WARMUP: Duration = Duration::from_millis(50);
const MEASURE: Duration = Duration::from_millis(200);

/// Timing loop handed to each benchmark closure.
pub struct Bencher {
    ns_per_iter: f64,
    iters: u64,
}

impl Bencher {
    /// Times `routine` adaptively and records the mean ns/iter.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let warm_start = Instant::now();
        while warm_start.elapsed() < WARMUP {
            std_black_box(routine());
        }
        let mut iters = 0u64;
        let mut elapsed = Duration::ZERO;
        let mut batch = 1u64;
        while elapsed < MEASURE {
            let start = Instant::now();
            for _ in 0..batch {
                std_black_box(routine());
            }
            elapsed += start.elapsed();
            iters += batch;
            batch = batch.saturating_mul(2).min(1 << 20);
        }
        self.ns_per_iter = elapsed.as_nanos() as f64 / iters as f64;
        self.iters = iters;
    }

    /// Times `routine` on fresh inputs from `setup`; setup runs outside
    /// the timed region.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let warm_start = Instant::now();
        while warm_start.elapsed() < WARMUP {
            let input = setup();
            std_black_box(routine(input));
        }
        let mut iters = 0u64;
        let mut elapsed = Duration::ZERO;
        while elapsed < MEASURE {
            let input = setup();
            let start = Instant::now();
            std_black_box(routine(input));
            elapsed += start.elapsed();
            iters += 1;
        }
        self.ns_per_iter = elapsed.as_nanos() as f64 / iters as f64;
        self.iters = iters;
    }
}

/// Benchmark driver; collects and prints one line per benchmark.
#[derive(Default)]
pub struct Criterion {
    filter: Option<String>,
    /// `--exact`: the filter names one benchmark instead of a substring.
    exact: bool,
}

impl Criterion {
    /// Honours the positional filter `cargo bench -- <filter>` passes, and
    /// `--exact`.
    pub fn configure_from_args(mut self) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        self.exact = args.iter().any(|a| a == "--exact");
        self.filter = args
            .into_iter()
            .find(|a| !a.starts_with('-'))
            .filter(|a| !a.is_empty());
        self
    }

    /// Runs one benchmark and prints its timing.
    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        if let Some(filter) = &self.filter {
            let selected = if self.exact {
                id == filter
            } else {
                id.contains(filter.as_str())
            };
            if !selected {
                return self;
            }
        }
        let mut bencher = Bencher {
            ns_per_iter: 0.0,
            iters: 0,
        };
        f(&mut bencher);
        println!(
            "{id:<40} time: {:>14.1} ns/iter  ({} iterations)",
            bencher.ns_per_iter, bencher.iters
        );
        self
    }
}

/// Bundles benchmark functions into a group runner.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $($target(&mut criterion);)+
        }
    };
}

/// Emits `main` running the listed groups.
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
    fn bencher_measures_something() {
        let mut c = Criterion::default();
        let mut ran = false;
        c.bench_function("noop", |b| {
            b.iter(|| black_box(1 + 1));
            ran = true;
        });
        assert!(ran);
    }
}
