//! Offline shim for the `criterion` benchmark harness.
//!
//! Implements the subset of the criterion 0.5 API used by this workspace's
//! benches (`criterion_group!`/`criterion_main!`, `benchmark_group`,
//! `bench_function`, `Bencher::iter`/`iter_batched`, `BatchSize`) with a
//! simple wall-clock measurement loop. Numbers are medians over
//! `sample_size` samples after a warm-up/calibration phase; per-sample
//! iteration counts are auto-scaled to the configured measurement time.
//!
//! Output is one line per benchmark:
//! `group/id  time: <median>  (min <min>, n = <samples>)`.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Top-level harness configuration and entry point.
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 20,
            measurement_time: Duration::from_secs(2),
            warm_up_time: Duration::from_millis(300),
            filter: None,
        }
    }
}

impl Criterion {
    /// Sets the number of samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(2);
        self
    }

    /// Sets the total target measurement time per benchmark.
    pub fn measurement_time(mut self, t: Duration) -> Self {
        self.measurement_time = t;
        self
    }

    /// Sets the warm-up/calibration time per benchmark.
    pub fn warm_up_time(mut self, t: Duration) -> Self {
        self.warm_up_time = t;
        self
    }

    /// Applies command-line arguments (`cargo bench -- <filter>`).
    ///
    /// Flags (anything starting with `-`) are ignored; the first free
    /// argument becomes a substring filter on `group/id` names.
    pub fn configure_from_args(mut self) -> Self {
        if let Some(a) = std::env::args().skip(1).find(|a| !a.starts_with('-')) {
            self.filter = Some(a);
        }
        self
    }

    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup { criterion: self, name: name.to_string() }
    }

    /// Runs a benchmark outside any group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        let label = id.to_string();
        self.run_one(&label, f);
        self
    }

    fn run_one<F: FnMut(&mut Bencher)>(&mut self, label: &str, mut f: F) {
        if let Some(filter) = &self.filter {
            if !label.contains(filter.as_str()) {
                return;
            }
        }
        let mut bencher = Bencher {
            sample_size: self.sample_size,
            measurement_time: self.measurement_time,
            warm_up_time: self.warm_up_time,
            samples_ns: Vec::new(),
        };
        f(&mut bencher);
        bencher.report(label);
    }
}

/// A group of benchmarks sharing a name prefix.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Runs one benchmark within the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        let label = format!("{}/{}", self.name, id);
        self.criterion.run_one(&label, f);
        self
    }

    /// Finishes the group (no-op in the shim; kept for API parity).
    pub fn finish(self) {}
}

/// Controls how `iter_batched` amortises setup cost. The shim times each
/// routine call individually, so the variants only pick the sample count
/// heuristics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Inputs are cheap; many per batch in real criterion.
    SmallInput,
    /// Inputs are expensive to set up; one per measurement.
    LargeInput,
    /// Explicit number of inputs per batch.
    NumBatches(u64),
}

/// Timing context handed to each benchmark closure.
pub struct Bencher {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    samples_ns: Vec<f64>,
}

impl Bencher {
    /// Measures `routine` in a tight loop, auto-scaling iteration counts.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        // Calibrate: double the iteration count until a batch fills the
        // warm-up window or is long enough to time reliably.
        let mut iters: u64 = 1;
        let warm_start = Instant::now();
        let mut per_iter_ns;
        loop {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            let elapsed = t.elapsed();
            per_iter_ns = elapsed.as_nanos() as f64 / iters as f64;
            if warm_start.elapsed() >= self.warm_up_time || elapsed >= Duration::from_millis(50) {
                break;
            }
            iters = iters.saturating_mul(2);
        }
        // Choose a per-sample iteration count so all samples together
        // roughly fill the measurement window.
        let budget_ns = self.measurement_time.as_nanos() as f64 / self.sample_size as f64;
        let sample_iters = ((budget_ns / per_iter_ns.max(1.0)).ceil() as u64).max(1);
        self.samples_ns.clear();
        for _ in 0..self.sample_size {
            let t = Instant::now();
            for _ in 0..sample_iters {
                black_box(routine());
            }
            self.samples_ns.push(t.elapsed().as_nanos() as f64 / sample_iters as f64);
        }
    }

    /// Measures `routine` over inputs produced (untimed) by `setup`.
    pub fn iter_batched<I, R, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> R,
    {
        // Warm-up: a few untimed runs so code and caches are hot.
        let warm_start = Instant::now();
        loop {
            let input = setup();
            black_box(routine(input));
            if warm_start.elapsed() >= self.warm_up_time {
                break;
            }
        }
        self.samples_ns.clear();
        let deadline = Instant::now() + self.measurement_time;
        for _ in 0..self.sample_size {
            let input = setup();
            let t = Instant::now();
            black_box(routine(input));
            self.samples_ns.push(t.elapsed().as_nanos() as f64);
            if Instant::now() > deadline && self.samples_ns.len() >= 2 {
                break;
            }
        }
    }

    fn report(&self, label: &str) {
        if self.samples_ns.is_empty() {
            println!("{label:<44} (no samples — empty benchmark body)");
            return;
        }
        let mut sorted = self.samples_ns.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[sorted.len() / 2];
        let min = sorted[0];
        println!(
            "{label:<44} time: {:>12}  (min {:>12}, n = {})",
            fmt_ns(median),
            fmt_ns(min),
            sorted.len()
        );
    }

    /// Median time per iteration from the most recent measurement, in
    /// nanoseconds. Used by programmatic runners; not part of criterion's
    /// public API.
    pub fn median_ns(&self) -> f64 {
        if self.samples_ns.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples_ns.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        sorted[sorted.len() / 2]
    }
}

/// Formats a nanosecond quantity with an adaptive unit.
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// Declares a benchmark group function, mirroring criterion's macro forms.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)*) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config.configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)*) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares the benchmark binary's `main`, running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)*) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_produces_samples() {
        let mut c = Criterion::default()
            .sample_size(5)
            .measurement_time(Duration::from_millis(20))
            .warm_up_time(Duration::from_millis(5));
        let mut g = c.benchmark_group("shim");
        let mut ran = false;
        g.bench_function("add", |b| {
            b.iter(|| black_box(1u64) + black_box(2u64));
            ran = b.median_ns() > 0.0;
        });
        g.finish();
        assert!(ran);
    }

    #[test]
    fn iter_batched_times_routine_only() {
        let mut c = Criterion::default()
            .sample_size(4)
            .measurement_time(Duration::from_millis(20))
            .warm_up_time(Duration::from_millis(5));
        c.bench_function("batched", |b| {
            b.iter_batched(|| vec![1u8; 64], |v| v.iter().map(|&x| x as u64).sum::<u64>(), BatchSize::LargeInput);
            assert!(!b.samples_ns.is_empty());
        });
    }

    #[test]
    fn fmt_units() {
        assert!(fmt_ns(12.0).ends_with("ns"));
        assert!(fmt_ns(12_000.0).ends_with("µs"));
        assert!(fmt_ns(12_000_000.0).ends_with("ms"));
    }
}
