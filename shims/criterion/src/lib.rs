//! Offline stand-in for the [criterion](https://crates.io/crates/criterion)
//! benchmark harness.
//!
//! The build environment for this repository has no access to crates.io, so
//! this shim implements the *subset* of criterion's API that the `dstm-bench`
//! targets use — `criterion_group!`/`criterion_main!`, `Criterion`,
//! `BenchmarkGroup` (with `throughput`), `BenchmarkId`, `Bencher::iter` /
//! `iter_batched`, and `black_box` — with a simple but honest measurement
//! loop:
//!
//! * each benchmark is warmed up for a fixed wall-clock budget,
//! * then sampled `sample_size` times, each sample running enough iterations
//!   to exceed a minimum measurable duration,
//! * and the median / mean / min per-iteration times are reported on stdout
//!   in a `name  median  mean  min` table, plus machine-readable lines
//!   (`BENCH_JSON {...}`) that tooling (`scripts`, `BENCH_*.json` recorders)
//!   can scrape.
//!
//! It intentionally has **no** statistical regression machinery; numbers are
//! for tracking relative changes between commits of this repository. When the
//! real criterion crate is available the shim can be deleted and the
//! workspace dependency re-pointed without touching any bench source.

use std::hint;
use std::time::{Duration, Instant};

/// Re-export matching `criterion::black_box`.
pub fn black_box<T>(x: T) -> T {
    hint::black_box(x)
}

/// Measurement settings shared by `Criterion` and groups.
#[derive(Clone, Debug)]
struct Settings {
    sample_size: usize,
    warm_up: Duration,
    /// Minimum wall-clock time one sample must cover (iterations are batched
    /// until a sample takes at least this long).
    min_sample: Duration,
}

impl Default for Settings {
    fn default() -> Self {
        Settings {
            sample_size: 30,
            warm_up: Duration::from_millis(300),
            min_sample: Duration::from_millis(2),
        }
    }
}

/// Work done by one iteration, so a report can carry a rate next to the
/// time (subset of criterion's `Throughput`).
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    Bytes(u64),
    Elements(u64),
}

/// Accepted for API compatibility with `Bencher::iter_batched`; the shim
/// always builds one sample's inputs up front.
#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
}

/// Identifier of a parameterized benchmark, e.g. `binary-heap/10000`.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    pub fn new(function_name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }

    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { id: s }
    }
}

/// The per-benchmark measurement driver handed to closures.
pub struct Bencher<'a> {
    settings: &'a Settings,
    /// Collected per-iteration nanosecond estimates, one per sample.
    samples: Vec<f64>,
}

impl Bencher<'_> {
    /// Run `routine` repeatedly and record per-iteration wall time.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up: run until the warm-up budget is consumed, measuring how
        // many iterations fit so samples can be batched appropriately.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < self.settings.warm_up {
            black_box(routine());
            warm_iters += 1;
        }
        let per_iter = self.settings.warm_up.as_secs_f64() / warm_iters.max(1) as f64;
        // Batch enough iterations per sample to exceed the minimum sample
        // duration, bounding timer-resolution noise for nanosecond routines.
        let batch = ((self.settings.min_sample.as_secs_f64() / per_iter).ceil() as u64).max(1);

        self.samples.clear();
        for _ in 0..self.settings.sample_size {
            let t0 = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            let elapsed = t0.elapsed().as_secs_f64();
            self.samples.push(elapsed * 1e9 / batch as f64);
        }
    }

    /// Like [`Bencher::iter`] for a `routine` that consumes its input:
    /// `setup` builds each input outside the timed region.
    pub fn iter_batched<I, O, S: FnMut() -> I, R: FnMut(I) -> O>(
        &mut self,
        mut setup: S,
        mut routine: R,
        _size: BatchSize,
    ) {
        let mut timed = |n: u64| {
            let inputs: Vec<I> = (0..n).map(|_| setup()).collect();
            let t0 = Instant::now();
            for input in inputs {
                black_box(routine(input));
            }
            t0.elapsed()
        };
        let mut warm_iters: u64 = 0;
        let mut warm = Duration::ZERO;
        while warm < self.settings.warm_up {
            warm += timed(1);
            warm_iters += 1;
        }
        let per_iter = warm.as_secs_f64() / warm_iters as f64;
        let batch = ((self.settings.min_sample.as_secs_f64() / per_iter).ceil() as u64).max(1);

        self.samples.clear();
        for _ in 0..self.settings.sample_size {
            self.samples
                .push(timed(batch).as_secs_f64() * 1e9 / batch as f64);
        }
    }
}

/// One finished measurement.
#[derive(Clone, Debug)]
pub struct Report {
    pub name: String,
    pub median_ns: f64,
    pub mean_ns: f64,
    pub min_ns: f64,
    pub samples: usize,
}

impl Report {
    fn from_samples(name: String, samples: &[f64]) -> Self {
        let mut sorted: Vec<f64> = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let n = sorted.len().max(1);
        let median_ns = if sorted.is_empty() {
            0.0
        } else if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        let mean_ns = if sorted.is_empty() {
            0.0
        } else {
            sorted.iter().sum::<f64>() / n as f64
        };
        let min_ns = sorted.first().copied().unwrap_or(0.0);
        Report {
            name,
            median_ns,
            mean_ns,
            min_ns,
            samples: sorted.len(),
        }
    }

    fn print(&self, throughput: Option<Throughput>) {
        let rate = match throughput {
            Some(Throughput::Bytes(n)) => {
                format!("  {:>9.1} MB/s", n as f64 * 1e3 / self.median_ns)
            }
            Some(Throughput::Elements(n)) => {
                format!("  {:>9.1} ns/elem", self.median_ns / n as f64)
            }
            None => String::new(),
        };
        println!(
            "{:<48} median {:>12}  mean {:>12}  min {:>12}{rate}",
            self.name,
            fmt_ns(self.median_ns),
            fmt_ns(self.mean_ns),
            fmt_ns(self.min_ns)
        );
        // Machine-readable line for result recorders.
        println!(
            "BENCH_JSON {{\"name\":\"{}\",\"median_ns\":{:.2},\"mean_ns\":{:.2},\"min_ns\":{:.2},\"samples\":{}}}",
            self.name, self.median_ns, self.mean_ns, self.min_ns, self.samples
        );
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Top-level benchmark context (a subset of criterion's `Criterion`).
#[derive(Default)]
pub struct Criterion {
    settings: Settings,
    filter: Option<String>,
}

impl Criterion {
    /// Accept a benchmark-name substring filter from the command line
    /// (`cargo bench -p dstm-bench --bench micro -- <filter>`); flags that
    /// the real criterion accepts (e.g. `--bench`) are ignored.
    pub fn configure_from_args(mut self) -> Self {
        let arg = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        self.filter = arg;
        self
    }

    fn enabled(&self, name: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| name.contains(f))
    }

    fn run_one(&mut self, name: &str, f: &mut dyn FnMut(&mut Bencher<'_>)) {
        if !self.enabled(name) {
            return;
        }
        let mut b = Bencher {
            settings: &self.settings,
            samples: Vec::new(),
        };
        f(&mut b);
        Report::from_samples(name.to_string(), &b.samples).print(None);
    }

    pub fn bench_function<F: FnMut(&mut Bencher<'_>)>(
        &mut self,
        name: &str,
        mut f: F,
    ) -> &mut Self {
        self.run_one(name, &mut f);
        self
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            parent: self,
            name: name.into(),
            settings_override: None,
            throughput: None,
        }
    }
}

/// A named group of related benchmarks (subset of criterion's API).
pub struct BenchmarkGroup<'a> {
    parent: &'a mut Criterion,
    name: String,
    settings_override: Option<Settings>,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Work per iteration of the benchmarks registered after this call;
    /// their reports gain an MB/s (bytes) or ns/element column.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        let mut s = self
            .settings_override
            .clone()
            .unwrap_or_else(|| self.parent.settings.clone());
        s.sample_size = n.max(2);
        self.settings_override = Some(s);
        self
    }

    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        let mut s = self
            .settings_override
            .clone()
            .unwrap_or_else(|| self.parent.settings.clone());
        s.warm_up = d;
        self.settings_override = Some(s);
        self
    }

    fn run_one(&mut self, id: String, f: &mut dyn FnMut(&mut Bencher<'_>)) {
        let full = format!("{}/{}", self.name, id);
        if !self.parent.enabled(&full) {
            return;
        }
        let settings = self
            .settings_override
            .clone()
            .unwrap_or_else(|| self.parent.settings.clone());
        let mut b = Bencher {
            settings: &settings,
            samples: Vec::new(),
        };
        f(&mut b);
        Report::from_samples(full, &b.samples).print(self.throughput);
    }

    pub fn bench_function<F: FnMut(&mut Bencher<'_>)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        mut f: F,
    ) -> &mut Self {
        let id = id.into();
        self.run_one(id.id, &mut f);
        self
    }

    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher<'_>, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        self.run_one(id.id, &mut |b| f(b, input));
        self
    }

    pub fn finish(self) {}
}

/// Matches `criterion_group!(name, target1, target2, ...)`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
}

/// Matches `criterion_main!(group1, group2, ...)`.
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
    fn bencher_collects_samples() {
        let settings = Settings {
            sample_size: 5,
            warm_up: Duration::from_millis(5),
            min_sample: Duration::from_micros(200),
        };
        let mut b = Bencher {
            settings: &settings,
            samples: Vec::new(),
        };
        let mut acc = 0u64;
        b.iter(|| {
            acc = acc.wrapping_add(1);
            black_box(acc)
        });
        assert_eq!(b.samples.len(), 5);
        assert!(b.samples.iter().all(|&s| s > 0.0));
    }

    #[test]
    fn report_median_of_even_and_odd() {
        let r = Report::from_samples("t".into(), &[3.0, 1.0, 2.0]);
        assert_eq!(r.median_ns, 2.0);
        let r = Report::from_samples("t".into(), &[4.0, 1.0, 2.0, 3.0]);
        assert_eq!(r.median_ns, 2.5);
        assert_eq!(r.min_ns, 1.0);
    }

    #[test]
    fn benchmark_id_formats() {
        let id = BenchmarkId::new("heap", 1000);
        assert_eq!(id.id, "heap/1000");
        assert_eq!(BenchmarkId::from_parameter(7).id, "7");
    }
}
