//! Offline stand-in for `criterion`.
//!
//! The build environment has no network access to crates.io, so this crate
//! vendors the subset of the Criterion API the `laec-bench` targets use
//! (`criterion_group!`/`criterion_main!`, [`Criterion::benchmark_group`],
//! [`BenchmarkGroup::sample_size`], [`BenchmarkGroup::bench_function`],
//! [`Bencher::iter`], [`black_box`]) behind a small wall-clock harness:
//! each benchmark is warmed up and calibrated, timed for a fixed number of
//! samples, and reported as `name ... median time/iter`.  A sample runs
//! the routine as many times as it takes to fill [`MIN_SAMPLE`] (one call
//! when a call already takes that long), so sub-microsecond routines are
//! not swamped by the timer's own overhead.
//!
//! No statistical analysis, HTML reports or command-line filtering — the CI
//! gate is `cargo bench --no-run` (compile only), and local `cargo bench`
//! gives indicative numbers.
//!
//! When the `LAEC_BENCH_DIR` environment variable is set, each bench binary
//! additionally writes a machine-readable artifact
//! `$LAEC_BENCH_DIR/BENCH_<target>.json` on exit — one record per benchmark
//! with its median and min/max nanoseconds per iteration — so CI can upload
//! benchmark results without scraping stdout.

#![forbid(unsafe_code)]

use std::sync::Mutex;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Entry point handed to each benchmark target function.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("group {name}");
        BenchmarkGroup {
            _criterion: self,
            name: name.to_string(),
            sample_size: 20,
        }
    }

    /// Runs one stand-alone benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(&id.into(), 20, f);
        self
    }
}

/// A named group of benchmarks sharing configuration.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        self.sample_size = samples.max(1);
        self
    }

    /// Runs one benchmark inside this group.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = format!("{}/{}", self.name, id.into());
        run_benchmark(&label, self.sample_size, f);
        self
    }

    /// Ends the group (upstream flushes reports here; the stub needs no
    /// cleanup, the method exists for API compatibility).
    pub fn finish(self) {}
}

/// The shortest wall-clock time one sample may take: the batch of calls
/// per sample doubles until it lasts at least this long.
pub const MIN_SAMPLE: Duration = Duration::from_millis(1);

/// Timing driver passed to each benchmark closure.
#[derive(Debug, Default)]
pub struct Bencher {
    /// Nanoseconds per call, one entry per sample.
    samples: Vec<f64>,
    sample_size: usize,
    /// Calls per sample, found by calibration.
    batch: u32,
}

impl Bencher {
    /// Times `routine` over the configured number of samples and records
    /// nanoseconds per call.  Calibration doubles the calls per sample,
    /// starting from one (which doubles as the warm-up), until a batch
    /// takes at least [`MIN_SAMPLE`].  The routine's output is passed
    /// through [`black_box`] so the optimizer cannot delete the measured
    /// work.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        let mut timed_batch = |batch: u32| {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            start.elapsed()
        };
        let mut batch = 1;
        while timed_batch(batch) < MIN_SAMPLE {
            batch *= 2;
        }
        self.batch = batch;
        for _ in 0..self.sample_size {
            let elapsed = timed_batch(batch);
            self.samples
                .push(elapsed.as_nanos() as f64 / f64::from(batch));
        }
    }
}

/// One finished benchmark, as recorded for the `BENCH_*.json` artifact.
#[derive(Debug, Clone)]
struct BenchRecord {
    label: String,
    samples: usize,
    median_ns: u128,
    min_ns: u128,
    max_ns: u128,
}

/// Every benchmark the process has run, in execution order.  The artifact
/// writer drains it once, at the end of `criterion_main!`.
static RESULTS: Mutex<Vec<BenchRecord>> = Mutex::new(Vec::new());

fn run_benchmark<F>(label: &str, sample_size: usize, mut f: F)
where
    F: FnMut(&mut Bencher),
{
    let mut bencher = Bencher {
        samples: Vec::new(),
        sample_size,
        batch: 0,
    };
    f(&mut bencher);
    if bencher.samples.is_empty() {
        println!("  {label} ... no samples");
        return;
    }
    bencher.samples.sort_unstable_by(f64::total_cmp);
    let median = bencher.samples[bencher.samples.len() / 2];
    println!(
        "  {label} ... {median:.1} ns/iter (median of {sample_size} samples of {} calls)",
        bencher.batch
    );
    RESULTS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .push(BenchRecord {
            label: label.to_string(),
            samples: bencher.samples.len(),
            median_ns: median.round() as u128,
            min_ns: bencher.samples[0].round() as u128,
            max_ns: bencher.samples[bencher.samples.len() - 1].round() as u128,
        });
}

/// Writes the accumulated results as `$LAEC_BENCH_DIR/BENCH_<target>.json`
/// (no-op when the variable is unset).  Called by `criterion_main!` with
/// the bench target's crate name; not part of the upstream criterion API.
pub fn write_artifact(target: &str) {
    let Ok(dir) = std::env::var("LAEC_BENCH_DIR") else {
        return;
    };
    let results = RESULTS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut json = String::from("{\n  \"schema\": 1,\n");
    json.push_str(&format!("  \"target\": \"{}\",\n", escape(target)));
    json.push_str("  \"results\": [");
    for (index, record) in results.iter().enumerate() {
        if index > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "\n    {{\"label\": \"{}\", \"samples\": {}, \"median_ns\": {}, \
             \"min_ns\": {}, \"max_ns\": {}}}",
            escape(&record.label),
            record.samples,
            record.median_ns,
            record.min_ns,
            record.max_ns,
        ));
    }
    if !results.is_empty() {
        json.push('\n');
        json.push_str("  ");
    }
    json.push_str("]\n}\n");
    let path = std::path::Path::new(&dir).join(format!("BENCH_{target}.json"));
    if let Err(error) = std::fs::write(&path, json) {
        eprintln!("cannot write bench artifact {}: {error}", path.display());
    }
}

fn escape(text: &str) -> String {
    text.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Declares a benchmark group function, mirroring `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the benchmark binary's `main`, mirroring `criterion::criterion_main!`.
///
/// On exit the stub's `main` also writes the `BENCH_<target>.json` artifact
/// when `LAEC_BENCH_DIR` is set; `CARGO_CRATE_NAME` expands to the bench
/// target's own crate name because the macro body is expanded there.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
            $crate::write_artifact(env!("CARGO_CRATE_NAME"));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_and_bencher_drive_the_closure() {
        let mut criterion = Criterion::default();
        let mut group = criterion.benchmark_group("smoke");
        group.sample_size(3);
        let mut runs = 0u32;
        group.bench_function("count", |b| {
            b.iter(|| {
                // A call that fills a sample on its own is not batched.
                std::thread::sleep(MIN_SAMPLE);
                runs += 1;
                runs
            })
        });
        group.finish();
        // 1 warm-up + 3 samples.
        assert_eq!(runs, 4);
    }

    #[test]
    fn fast_routines_are_batched_and_reported_per_call() {
        let mut bencher = Bencher {
            sample_size: 3,
            ..Bencher::default()
        };
        let mut runs = 0u64;
        bencher.iter(|| {
            runs += 1;
            runs
        });
        assert!(bencher.batch > 1, "a trivial call is batched");
        // Calibration ran 1 + 2 + … + batch calls, then 3 full batches.
        let batch = u64::from(bencher.batch);
        assert_eq!(runs, 2 * batch - 1 + 3 * batch);
        assert_eq!(bencher.samples.len(), 3);
        // Per-call figures: a batch lasts at least `MIN_SAMPLE`, a call far
        // less.
        assert!(bencher
            .samples
            .iter()
            .all(|&ns| ns < MIN_SAMPLE.as_nanos() as f64));
    }
}
