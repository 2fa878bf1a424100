//! Offline drop-in subset of the `criterion` API.
//!
//! Provides the structural API the workspace's benches use —
//! `criterion_group!` / `criterion_main!`, `Criterion::benchmark_group`,
//! `sample_size`, `throughput`, `bench_function`, `Bencher::iter` /
//! `iter_batched` — with a deliberately simple measurement loop: a short
//! warm-up, then `sample_size` timed samples of an adaptively chosen
//! iteration count, reporting min/median/mean per iteration (and
//! throughput when set). No plotting, no saved baselines, no statistics
//! beyond that; this shim exists so `cargo bench` runs offline, not to
//! replace criterion's analysis.

use std::time::{Duration, Instant};

/// Throughput annotation for a benchmark group.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// How batched inputs are grouped (advisory in this shim: every batch is
/// one iteration, which matches `PerIteration` — the only variant the
/// workspace uses with setup costs worth isolating).
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// Small input: batching would be allowed.
    SmallInput,
    /// Large input: prefer fewer iterations per batch.
    LargeInput,
    /// Fresh setup for every iteration.
    PerIteration,
}

/// Prevent the optimizer from discarding a value.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Top-level benchmark driver.
pub struct Criterion {
    filter: Option<String>,
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        // `cargo bench -- <filter>` forwards extra args; ignore flags
        // (e.g. `--bench` which cargo itself appends).
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Criterion {
            filter,
            sample_size: 10,
        }
    }
}

impl Criterion {
    /// Re-read CLI configuration (already applied by `default`).
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            c: self,
            name: name.into(),
            sample_size: 10,
            throughput: None,
        }
    }

    /// Run a standalone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl Into<String>, f: F) {
        let id = id.into();
        let sample_size = self.sample_size;
        self.run_one(&id, sample_size, None, f);
    }

    fn run_one<F: FnMut(&mut Bencher)>(
        &mut self,
        id: &str,
        sample_size: usize,
        throughput: Option<Throughput>,
        mut f: F,
    ) {
        if let Some(filter) = &self.filter {
            if !id.contains(filter.as_str()) {
                return;
            }
        }
        let mut b = Bencher {
            samples: Vec::new(),
            sample_size,
        };
        f(&mut b);
        report(id, &b.samples, throughput);
    }
}

/// A named group sharing sample-size and throughput settings.
pub struct BenchmarkGroup<'a> {
    c: &'a mut Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Set the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Annotate per-iteration throughput for subsequent benchmarks.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Run one benchmark in the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl Into<String>, f: F) {
        let id = format!("{}/{}", self.name, id.into());
        let (n, t) = (self.sample_size, self.throughput);
        self.c.run_one(&id, n, t, f);
    }

    /// Close the group (no-op).
    pub fn finish(self) {}
}

/// Collects timing samples for one benchmark.
pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
}

impl Bencher {
    /// Time `routine` repeatedly.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm up and size the per-sample iteration count so one sample
        // costs ~2ms (bounds total runtime on slow benches).
        let start = Instant::now();
        black_box(routine());
        let once = start.elapsed().max(Duration::from_nanos(1));
        let iters = (Duration::from_millis(2).as_nanos() / once.as_nanos()).clamp(1, 10_000) as u32;

        self.samples.clear();
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            self.samples.push(start.elapsed() / iters);
        }
    }

    /// Time `routine` on inputs built by `setup`; setup time is excluded,
    /// and so is dropping the routine's output, as in criterion.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        self.samples.clear();
        for _ in 0..self.sample_size {
            let input = setup();
            let start = Instant::now();
            let output = black_box(routine(input));
            self.samples.push(start.elapsed());
            drop(output);
        }
    }

    /// [`Bencher::iter_batched`] with `routine` borrowing its input, so
    /// dropping the input is not timed either.
    pub fn iter_batched_ref<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(&mut I) -> O,
    {
        self.samples.clear();
        for _ in 0..self.sample_size {
            let mut input = setup();
            let start = Instant::now();
            let output = black_box(routine(&mut input));
            self.samples.push(start.elapsed());
            drop(output);
        }
    }
}

fn report(id: &str, samples: &[Duration], throughput: Option<Throughput>) {
    if samples.is_empty() {
        println!("{id:<50} (no samples)");
        return;
    }
    let mut sorted: Vec<Duration> = samples.to_vec();
    sorted.sort_unstable();
    let min = sorted[0];
    let median = sorted[sorted.len() / 2];
    let mean = sorted.iter().sum::<Duration>() / sorted.len() as u32;
    let rate = throughput.map(|t| match t {
        Throughput::Elements(n) => {
            format!("  {:.0} elem/s", n as f64 / median.as_secs_f64().max(1e-12))
        }
        Throughput::Bytes(n) => format!("  {:.0} B/s", n as f64 / median.as_secs_f64().max(1e-12)),
    });
    println!(
        "{id:<50} min {min:>10.3?}  median {median:>10.3?}  mean {mean:>10.3?}{}",
        rate.unwrap_or_default()
    );
}

/// Mirror of `criterion_group!`: defines a function running each target.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Mirror of `criterion_main!`: defines `main` running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:ident),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_collects_samples() {
        let mut c = Criterion {
            filter: None,
            sample_size: 3,
        };
        let mut ran = 0u64;
        c.bench_function("smoke", |b| {
            b.iter(|| {
                ran += 1;
                ran
            })
        });
        assert!(ran > 0);
    }

    #[test]
    fn group_applies_filter() {
        let mut c = Criterion {
            filter: Some("nomatch".into()),
            sample_size: 3,
        };
        let mut g = c.benchmark_group("g");
        let mut ran = false;
        g.sample_size(2).throughput(Throughput::Elements(1));
        g.bench_function("skipped", |b| b.iter(|| ran = true));
        g.finish();
        assert!(!ran);
    }
}
