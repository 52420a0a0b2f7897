//! Offline shim for `criterion` (see `crates/shims/README.md`).
//!
//! Provides the benchmark-definition surface the workspace's benches
//! use (`Criterion`, benchmark groups, `criterion_group!` /
//! `criterion_main!`, `Bencher::iter`, `Bencher::iter_batched`,
//! `BatchSize`, `BenchmarkId`, `Throughput`) with a simple wall-clock
//! measurement loop and plain-text output. There is no statistical
//! analysis, HTML report, or baseline store.
//!
//! Set `MPGMRES_BENCH_FAST=1` to run each benchmark with two samples
//! (useful to smoke-test bench binaries in CI). As with criterion, a
//! positional argument (`cargo bench --bench kernels -- assembly`) runs
//! only the benchmarks whose id contains it.

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Top-level benchmark driver.
#[derive(Clone, Debug)]
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 30 }
    }
}

impl Criterion {
    /// Set the number of measured samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n >= 2, "sample_size must be at least 2");
        self.sample_size = n;
        self
    }

    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup {
        let name = name.into();
        println!("\n== group {name} ==");
        BenchmarkGroup {
            name,
            sample_size: self.sample_size,
            throughput: None,
        }
    }

    /// Benchmark a single function outside any group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        name: impl Into<String>,
        f: F,
    ) -> &mut Self {
        run_benchmark(&name.into(), self.sample_size, None, f);
        self
    }
}

/// Benchmark identifier with a function name and a parameter rendering.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `function_name/parameter`.
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// Parameter-only id.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id)
    }
}

/// Throughput annotation used to derive rate reporting.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// A group of related benchmarks sharing configuration.
pub struct BenchmarkGroup {
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup {
    /// Set the number of measured samples for subsequent benchmarks.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n >= 2, "sample_size must be at least 2");
        self.sample_size = n;
        self
    }

    /// Annotate subsequent benchmarks with a throughput.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Measure `f`.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<String>,
        f: F,
    ) -> &mut Self {
        let id = format!("{}/{}", self.name, id.into());
        run_benchmark(&id, self.sample_size, self.throughput, f);
        self
    }

    /// Measure `f` with an input value passed through.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let id = format!("{}/{}", self.name, id);
        run_benchmark(&id, self.sample_size, self.throughput, |b| f(b, input));
        self
    }

    /// End the group (printing is incremental; nothing further to do).
    pub fn finish(self) {}
}

/// Passed to benchmark closures; call [`Bencher::iter`] with the
/// routine under measurement.
pub struct Bencher {
    iters_per_sample: u64,
    samples: Vec<Duration>,
    target_samples: usize,
}

impl Bencher {
    /// Measure `routine`, running it enough times per sample to get
    /// above timer resolution.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up + calibration: aim for samples of roughly >= 1 ms.
        if self.iters_per_sample == 0 {
            let t0 = Instant::now();
            black_box(routine());
            let once = t0.elapsed().max(Duration::from_nanos(20));
            let per_sample = (Duration::from_millis(1).as_nanos() / once.as_nanos()).max(1);
            self.iters_per_sample = per_sample.min(1_000_000) as u64;
        }
        for _ in 0..self.target_samples {
            let t0 = Instant::now();
            for _ in 0..self.iters_per_sample {
                black_box(routine());
            }
            self.samples.push(t0.elapsed());
        }
    }
}

/// How many inputs [`Bencher::iter_batched`] prepares per batch in
/// criterion. The shim prepares one input per routine call whatever the
/// size; the variants exist so benches written for criterion compile.
#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    /// Inputs cheap to hold many of.
    SmallInput,
    /// Inputs too large to hold many of.
    LargeInput,
    /// One input per iteration.
    PerIteration,
}

impl Bencher {
    /// Measure `routine` on inputs made by `setup`, timing only
    /// `routine`: neither `setup` nor dropping the routine's output is
    /// counted.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let mut timed = |iters: u64| {
            let mut total = Duration::ZERO;
            for _ in 0..iters {
                let input = setup();
                let t0 = Instant::now();
                let out = black_box(routine(input));
                total += t0.elapsed();
                drop(out);
            }
            total
        };
        if self.iters_per_sample == 0 {
            let once = timed(1).max(Duration::from_nanos(20));
            let per_sample = (Duration::from_millis(1).as_nanos() / once.as_nanos()).max(1);
            self.iters_per_sample = per_sample.min(1_000_000) as u64;
        }
        for _ in 0..self.target_samples {
            let t = timed(self.iters_per_sample);
            self.samples.push(t);
        }
    }
}

fn fast_mode() -> bool {
    std::env::var("MPGMRES_BENCH_FAST")
        .map(|v| v != "0")
        .unwrap_or(false)
}

fn format_time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} µs", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

fn run_benchmark<F: FnMut(&mut Bencher)>(
    id: &str,
    sample_size: usize,
    throughput: Option<Throughput>,
    mut f: F,
) {
    // `cargo bench` passes flags such as `--bench`; the first argument
    // that is not a flag filters by id.
    if let Some(filter) = std::env::args().skip(1).find(|a| !a.starts_with('-')) {
        if !id.contains(&filter) {
            return;
        }
    }
    let target_samples = if fast_mode() { 2 } else { sample_size };
    let mut b = Bencher {
        iters_per_sample: 0,
        samples: Vec::new(),
        target_samples,
    };
    f(&mut b);
    if b.samples.is_empty() {
        println!("{id:<48} (no measurement: Bencher::iter never called)");
        return;
    }
    let per_iter: Vec<f64> = b
        .samples
        .iter()
        .map(|d| d.as_secs_f64() / b.iters_per_sample as f64)
        .collect();
    let mean = per_iter.iter().sum::<f64>() / per_iter.len() as f64;
    let min = per_iter.iter().copied().fold(f64::INFINITY, f64::min);
    let max = per_iter.iter().copied().fold(0.0f64, f64::max);
    let rate = match throughput {
        Some(Throughput::Elements(n)) if mean > 0.0 => {
            format!("  {:>10.2} Melem/s", n as f64 / mean / 1e6)
        }
        Some(Throughput::Bytes(n)) if mean > 0.0 => {
            format!("  {:>10.2} MiB/s", n as f64 / mean / (1024.0 * 1024.0))
        }
        _ => String::new(),
    };
    println!(
        "{id:<48} time: [{} {} {}]{rate}",
        format_time(min),
        format_time(mean),
        format_time(max)
    );
}

/// Define a benchmark group function from benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $cfg:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $cfg;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Define `main` running the given groups.
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
    fn bench_runs_and_reports() {
        std::env::set_var("MPGMRES_BENCH_FAST", "1");
        let mut c = Criterion::default().sample_size(3);
        let mut g = c.benchmark_group("shim-self-test");
        g.throughput(Throughput::Elements(100));
        let mut count = 0u64;
        g.bench_function("counting", |b| {
            b.iter(|| {
                count = count.wrapping_add(1);
                count
            })
        });
        g.bench_with_input(BenchmarkId::new("with-input", 7), &7u64, |b, &v| {
            b.iter(|| v * 2)
        });
        let (mut made, mut used) = (0u64, 0u64);
        g.bench_function("batched", |b| {
            b.iter_batched(
                || {
                    made += 1;
                    vec![made; 4]
                },
                |v| {
                    used += 1;
                    v.len()
                },
                BatchSize::LargeInput,
            )
        });
        g.finish();
        assert!(count > 0);
        assert!(used > 0 && made == used);
    }

    #[test]
    fn time_formatting() {
        assert_eq!(format_time(2.0), "2.000 s");
        assert_eq!(format_time(2.5e-3), "2.500 ms");
        assert_eq!(format_time(2.5e-6), "2.500 µs");
        assert_eq!(format_time(3.0e-9), "3.0 ns");
    }
}
