//! Minimal in-tree stand-in for the
//! [`criterion`](https://crates.io/crates/criterion) benchmark harness.
//!
//! The build environment has no network access to a cargo registry, so the
//! workspace vendors the slice of the criterion API its benches use:
//! [`Criterion::bench_function`], [`Criterion::benchmark_group`] with
//! `sample_size` / `throughput` / `finish`, [`Bencher::iter`],
//! [`Throughput`], and the [`criterion_group!`] / [`criterion_main!`]
//! macros.
//!
//! Measurement is deliberately simple: each benchmark is warmed up, then
//! timed over enough iterations to fill a fixed measurement window, and the
//! mean time per iteration is printed as
//! `bench: <name> ... <time>/iter (<n> iters)`. There are no statistical
//! analyses, plots, or saved baselines — the numbers are for coarse
//! regression tracking in CHANGES.md and CI logs.
//!
//! Beyond the human-readable lines, a run with `BENCH_JSON_PATH` set
//! merges its results into that machine-readable **`BENCH.json`** file
//! (benchmark name → mean ns/iter), across the workspace's separate bench
//! binaries, so the performance trajectory can be tracked. Without the
//! variable a run writes no file and prints its results as JSON instead,
//! so a local `cargo bench` never rewrites the committed ledger. To
//! re-record the ledger, run from the workspace root (bench binaries run
//! in their package directory, so give an absolute path):
//!
//! ```text
//! BENCH_JSON_PATH="$PWD/crates/bench/BENCH.json" cargo bench -p paper_bench
//! ```

use std::collections::BTreeMap;
use std::ffi::OsString;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Work attributed to one pass of a benchmark, for derived rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    Bytes(u64),
    Elements(u64),
}

/// Batch sizing hint for [`Bencher::iter_batched`]. The shim times each
/// routine call individually, so the hint only exists for API parity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

/// Measurement settings shared by [`Criterion`] and [`BenchmarkGroup`].
#[derive(Debug, Clone, Copy)]
struct Settings {
    /// Nominal sample count; scales the measurement window like
    /// criterion's `sample_size` (smaller = faster, noisier).
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl Settings {
    fn measurement_window(&self) -> Duration {
        // 100 samples (criterion's default) maps to ~300 ms of measurement.
        Duration::from_micros(3_000 * self.sample_size as u64)
    }
}

/// Times a single benchmark body.
#[derive(Debug)]
pub struct Bencher {
    settings: Settings,
    /// Mean seconds per iteration, filled in by [`Bencher::iter`].
    per_iter_secs: f64,
    iters: u64,
}

impl Bencher {
    /// Runs `body` repeatedly and records the mean time per iteration.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut body: F) {
        // Warm-up: run for a tenth of the window to settle caches and
        // estimate per-iteration cost.
        let warmup = self.settings.measurement_window() / 10;
        let start = Instant::now();
        let mut warm_iters: u64 = 0;
        while start.elapsed() < warmup {
            black_box(body());
            warm_iters += 1;
        }
        // Divide by the time actually spent: one iteration of a slow body
        // can overshoot the warm-up window many times over.
        let est = start.elapsed().as_secs_f64() / warm_iters.max(1) as f64;

        let target = self.settings.measurement_window().as_secs_f64();
        let iters = ((target / est.max(1e-9)) as u64).clamp(1, 1_000_000_000);
        let start = Instant::now();
        for _ in 0..iters {
            black_box(body());
        }
        let elapsed = start.elapsed().as_secs_f64();
        self.per_iter_secs = elapsed / iters as f64;
        self.iters = iters;
    }

    /// Like [`Bencher::iter`], but rebuilds the input with `setup` before
    /// every call and excludes that setup from the measurement.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        // Warm-up and per-iteration estimate (setup excluded from timing).
        let warmup = self.settings.measurement_window() / 10;
        let mut warm_spent = Duration::ZERO;
        let mut warm_iters: u64 = 0;
        while warm_spent < warmup {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            warm_spent += start.elapsed();
            warm_iters += 1;
        }
        let est = warm_spent.as_secs_f64() / warm_iters.max(1) as f64;

        let target = self.settings.measurement_window().as_secs_f64();
        let iters = ((target / est.max(1e-9)) as u64).clamp(1, 1_000_000_000);
        let mut spent = Duration::ZERO;
        for _ in 0..iters {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            spent += start.elapsed();
        }
        self.per_iter_secs = spent.as_secs_f64() / iters as f64;
        self.iters = iters;
    }
}

/// Results of the current process's benchmarks, drained into `BENCH.json`
/// by [`write_bench_json`] (called from `criterion_main!`).
static RESULTS: Mutex<Vec<(String, f64)>> = Mutex::new(Vec::new());

/// Parses a previously emitted `BENCH.json` (the exact flat `{"name":
/// ns, ...}` shape [`write_bench_json`] produces — not a general JSON
/// parser). Public because `cargo xtask bench-diff` reads the same files;
/// a single owner keeps reader and writer in lockstep.
pub fn read_bench_json(path: &str) -> BTreeMap<String, f64> {
    let mut entries = BTreeMap::new();
    let Ok(text) = std::fs::read_to_string(path) else {
        return entries;
    };
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some((name, value)) = line.rsplit_once(':') else {
            continue;
        };
        let name = name.trim().trim_matches('"');
        if name.is_empty() {
            continue;
        }
        if let Ok(ns) = value.trim().parse::<f64>() {
            entries.insert(name.to_string(), ns);
        }
    }
    entries
}

/// Where a run's results are merged: the `BENCH_JSON_PATH` file when the
/// variable holds a non-empty path, nowhere otherwise.
fn bench_json_path(var: Option<OsString>) -> Option<PathBuf> {
    var.filter(|path| !path.is_empty()).map(PathBuf::from)
}

/// `entries` in the flat `BENCH.json` format [`read_bench_json`] parses.
fn render_bench_json(entries: &BTreeMap<String, f64>) -> String {
    let mut out = String::from("{\n");
    let last = entries.len().saturating_sub(1);
    for (i, (name, ns)) in entries.iter().enumerate() {
        // Bench names are plain identifiers plus '/'; no JSON escaping
        // needed.
        out.push_str(&format!(
            "  \"{name}\": {ns:.1}{}\n",
            if i == last { "" } else { "," }
        ));
    }
    out.push_str("}\n");
    out
}

/// Merges this run's results into the `BENCH.json` file named by
/// `BENCH_JSON_PATH` (entries from other bench binaries are preserved;
/// re-run benchmarks are overwritten). With the variable unset, prints
/// the run's results in the same format and writes nothing.
pub fn write_bench_json() {
    let recorded: BTreeMap<String, f64> = {
        let results = RESULTS.lock().unwrap_or_else(|e| e.into_inner());
        results.iter().cloned().collect()
    };
    if recorded.is_empty() {
        return;
    }
    let Some(path) = bench_json_path(std::env::var_os("BENCH_JSON_PATH")) else {
        println!("BENCH_JSON_PATH unset; results not recorded:");
        print!("{}", render_bench_json(&recorded));
        return;
    };
    let path = path.display().to_string();
    let mut entries = read_bench_json(&path);
    entries.extend(recorded);
    if let Err(e) = std::fs::write(&path, render_bench_json(&entries)) {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        println!("bench results written to {path}");
    }
}

fn format_time(secs: f64) -> String {
    if secs < 1e-6 {
        format!("{:.2} ns", secs * 1e9)
    } else if secs < 1e-3 {
        format!("{:.2} µs", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.2} ms", secs * 1e3)
    } else {
        format!("{secs:.3} s")
    }
}

fn run_one(full_name: &str, settings: Settings, body: &mut dyn FnMut(&mut Bencher)) {
    let mut bencher = Bencher {
        settings,
        per_iter_secs: 0.0,
        iters: 0,
    };
    body(&mut bencher);
    let mut line = format!(
        "bench: {full_name:<52} {:>12}/iter ({} iters)",
        format_time(bencher.per_iter_secs),
        bencher.iters,
    );
    if let Some(tp) = settings.throughput {
        let rate = match tp {
            Throughput::Bytes(b) => format!(
                "{:.1} MiB/s",
                b as f64 / bencher.per_iter_secs / (1 << 20) as f64
            ),
            Throughput::Elements(n) => format!("{:.0} elem/s", n as f64 / bencher.per_iter_secs),
        };
        line.push_str(&format!("  [{rate}]"));
    }
    println!("{line}");
    RESULTS
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push((full_name.to_string(), bencher.per_iter_secs * 1e9));
}

/// Entry point mirroring `criterion::Criterion`.
#[derive(Debug)]
pub struct Criterion {
    settings: Settings,
}

impl Default for Criterion {
    fn default() -> Self {
        Self {
            settings: Settings {
                sample_size: 100,
                throughput: None,
            },
        }
    }
}

impl Criterion {
    /// Benchmarks `body` under `name`.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        name: impl AsRef<str>,
        mut body: F,
    ) -> &mut Self {
        run_one(name.as_ref(), self.settings, &mut body);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.to_string(),
            settings: self.settings,
            _parent: self,
        }
    }
}

/// A named set of benchmarks with shared settings.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    name: String,
    settings: Settings,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Scales the measurement window (criterion's `sample_size` knob).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.settings.sample_size = n.max(1);
        self
    }

    /// Attributes per-iteration work so a rate is printed alongside time.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.settings.throughput = Some(throughput);
        self
    }

    /// Benchmarks `body` under `group/name`.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        name: impl AsRef<str>,
        mut body: F,
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, name.as_ref());
        run_one(&full, self.settings, &mut body);
        self
    }

    /// Ends the group (no-op beyond parity with criterion's API).
    pub fn finish(self) {}
}

/// Declares a benchmark group function, mirroring `criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the bench `main`, mirroring `criterion_main!`; additionally
/// records the run's results (see [`write_bench_json`]).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
            $crate::write_bench_json();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_json_round_trips() {
        let path = std::env::temp_dir().join("criterion_shim_bench_json_test.json");
        let path = path.to_str().expect("utf-8 temp path");
        let mut entries = BTreeMap::new();
        entries.insert("monte_carlo/mc_6t_100_samples".to_string(), 615_000_000.0);
        entries.insert("fig7".to_string(), 128_423_000.5);
        let mut out = String::from("{\n");
        let last = entries.len() - 1;
        for (i, (name, ns)) in entries.iter().enumerate() {
            out.push_str(&format!(
                "  \"{name}\": {ns:.1}{}\n",
                if i == last { "" } else { "," }
            ));
        }
        out.push_str("}\n");
        std::fs::write(path, out).expect("write temp file");
        let parsed = read_bench_json(path);
        std::fs::remove_file(path).ok();
        assert_eq!(parsed, entries);
    }

    #[test]
    fn results_are_recorded_only_where_bench_json_path_points() {
        assert_eq!(bench_json_path(None), None);
        assert_eq!(bench_json_path(Some(OsString::new())), None);
        assert_eq!(
            bench_json_path(Some(OsString::from("/tmp/BENCH.json"))),
            Some(PathBuf::from("/tmp/BENCH.json"))
        );
    }

    #[test]
    fn rendered_results_parse_back() {
        let path = std::env::temp_dir().join("criterion_shim_render_test.json");
        let mut entries = BTreeMap::new();
        entries.insert("chaos/scrub_sweep".to_string(), 26_434.7);
        entries.insert("mosfet_drain_current".to_string(), 60.8);
        std::fs::write(&path, render_bench_json(&entries)).expect("write temp file");
        let parsed = read_bench_json(path.to_str().expect("utf-8 temp path"));
        std::fs::remove_file(&path).ok();
        assert_eq!(parsed, entries);
    }

    #[test]
    fn missing_file_parses_empty() {
        assert!(read_bench_json("/nonexistent/BENCH.json").is_empty());
    }
}
