//! Repository automation tasks, invoked as `cargo xtask <task>`.
//!
//! * `bench-diff`: fails when a tracked kernel runs more than
//!   [`REGRESSION_FACTOR`]× slower than `crates/bench/BENCH.json`.
//! * `serve-report`: `serve_bench` at 1 and 4 workers; gates identical
//!   predictions, a positive read bandwidth, at most
//!   [`SERVE_SLOWDOWN_FACTOR`]× slowdown and `--min-speedup`.
//! * `scale-report`: `scale_bench` at 1/2/4 shards; gates identical images,
//!   at most [`SERVE_SLOWDOWN_FACTOR`]× slower loads and `--min-speedup`.
//! * `chaos-report`: `serve_bench --chaos` at 1 and 4 workers; gates
//!   identical resilience decisions, protected accuracy within
//!   [`CHAOS_ACCURACY_DROP`] and p99 within [`CHAOS_P99_FACTOR`]× of
//!   healthy, and an unprotected run that falls beyond the drop.
//! * `net-report`: `net_bench` at 2 and 8 connections plus a burst; gates
//!   identical digests, no shed/errors/timeouts, client ≡ server digest,
//!   sojourn p99 within `--slo-ms` ([`NET_SLO_MS`]), and a burst that sheds
//!   without errors and batches at least [`NET_MIN_BURST_BATCH`] requests
//!   per micro-batch.
//! * `gen-report`: `gen_report` at 1 and 4 threads; gates identical
//!   digests, every spec built, the paper fixture layout, a fully rejected
//!   corpus, [`GEN_RANDOM_SPECS`] clean random specs and zero failures.
//!
//! A report task is data, a [`Plan`]: the runs of one binary, the table
//! columns, and the gates over the records the runs print. One runner
//! ([`run_report`]) archives each raw record under `target/`, renders the
//! table to stdout and `--out`, and with `--gate` fails on any failed gate;
//! a gate whose key is missing fails.

use criterion::read_bench_json;
use sram_exec::report::parse;
use sram_exec::{fnv1a, Flags, FNV_OFFSET};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::path::PathBuf;
use std::process::{Command, ExitCode, ExitStatus, Stdio};

#[cfg(test)]
mod tests;

/// Committed baseline location, relative to the workspace root.
const BASELINE: &str = "crates/bench/BENCH.json";

/// Hot kernels whose regression fails CI. Everything else is reported but
/// informational (workload-dependent benches like the greedy optimizer move
/// when results shift within solver tolerance).
const TRACKED: &[&str] = &[
    "monte_carlo/mc_6t_100_samples",
    "rare/is_6t_tail",
    "rare/surrogate_6t_tail",
    "read_access_time_6t",
    "read_access_time_8t",
    "write_margin",
    "write_time",
    "read_snm",
    "fig7/fig7_accuracy_vs_vdd",
    "fig8/fig8_hybrid_sweep",
    "scale/load_1shard",
    "scale/load_2shard",
    "scale/load_4shard",
    "npe/mac_784",
    "infer/forward_row_path",
    "chaos/scrub_sweep",
];

/// A tracked kernel fails the diff when its machine-normalized ratio
/// exceeds this factor.
const REGRESSION_FACTOR: f64 = 2.0;

/// Machine-speed calibration kernel: ~50 ns of pure device-model floating
/// point, dominated by `exp`/`ln` throughput and untouched by solver
/// restructuring. The committed baseline was recorded on another machine,
/// so every per-bench ratio is divided by this kernel's ratio: a uniformly
/// slower machine cancels out, while a kernel regressing relative to the
/// machine still trips the gate.
const CALIBRATION: &str = "mosfet_drain_current";

/// `serve-report --gate` fails when the 4-worker serve run takes more than
/// this factor of the 1-worker wall time (a 2-core CI runner may not reach
/// a 2× speedup, but 4 workers must never make serving meaningfully
/// *slower* than 1); `scale-report` holds the 4-shard load to the same.
const SERVE_SLOWDOWN_FACTOR: f64 = 1.5;

/// `net-report --gate`'s default client-side sojourn p99 bound,
/// milliseconds, at the sub-saturation arrival rate. Sojourn is measured
/// from the *scheduled* open-loop arrival, so it includes every queueing
/// effect; the bound is deliberately loose against shared-runner noise —
/// it exists to catch the server falling off a latency cliff (seconds,
/// not milliseconds), and can be tightened per-run with `--slo-ms`.
const NET_SLO_MS: f64 = 250.0;

/// `net-report --gate`'s floor on the burst run's served requests per
/// micro-batch. A burst leaves a deep backlog, and one-tenant pops of a
/// deep backlog serve whole four-request sampler passes; a mean below 2
/// means the workers ran the burst about one request at a time.
const NET_MIN_BURST_BATCH: f64 = 2.0;

/// `chaos-report --gate` allows the protected run at most this absolute
/// accuracy drop below the healthy baseline — and requires the
/// *unprotected* run to exceed it, proving the injected degradation had
/// teeth.
const CHAOS_ACCURACY_DROP: f64 = 0.02;

/// `chaos-report --gate` allows the protected run's p99 latency at most
/// this factor of the healthy run's (scrub + repair overhead amortizes
/// across waves; a blowup here means maintenance is on the request path).
const CHAOS_P99_FACTOR: f64 = 2.0;

/// The resilience counters `chaos-report` requires to be bit-identical
/// across worker counts (everything the scrub/repair/governor loop
/// decides, plus each scenario's prediction digest).
const CHAOS_INVARIANT_KEYS: &[&str] = &[
    "healthy_digest",
    "protected_digest",
    "unprotected_digest",
    "healthy_accuracy",
    "protected_accuracy",
    "unprotected_accuracy",
    "bist_weak_words",
    "bist_weak_bits",
    "bist_digest",
    "scrub_sweeps",
    "corrected_words",
    "corrected_bits",
    "uncorrectable_words",
    "rows_repaired",
    "spare_rows_free",
    "governor_boosts",
];

/// Shard counts `scale-report` asks `scale_bench` for (ascending; the
/// scaling gates compare the last against the first).
const SCALE_SHARDS: [&str; 3] = ["1", "2", "4"];

/// Random specs per `gen-report` run, and the floor of clean ones.
const GEN_RANDOM_SPECS: usize = 8;

/// What a task does: the bench diff, or a report built from its [`Plan`].
enum Kind {
    BenchDiff,
    Report(fn(&Opts) -> Plan),
}

/// Every task: its name, its own flags as usage prints them, and what it
/// does. A report task also takes `--gate` and `--out <path>`, and accepts
/// exactly the flags named here.
const TASKS: &[(&str, &str, Kind)] = &[
    (
        "bench-diff",
        "[--no-run] [--current <path>]",
        Kind::BenchDiff,
    ),
    (
        "serve-report",
        "[--min-speedup X] [--requests N]",
        Kind::Report(serve_plan),
    ),
    (
        "scale-report",
        "[--min-speedup X]",
        Kind::Report(scale_plan),
    ),
    ("chaos-report", "[--requests N]", Kind::Report(chaos_plan)),
    (
        "net-report",
        "[--requests N] [--rate R] [--slo-ms X]",
        Kind::Report(net_plan),
    ),
    ("gen-report", "[--random N]", Kind::Report(gen_plan)),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let task = TASKS
        .iter()
        .find(|t| args.first().is_some_and(|a| a == t.0));
    let Some((name, flags, kind)) = task else {
        for (name, flags, kind) in TASKS {
            let common = match kind {
                Kind::BenchDiff => "",
                Kind::Report(_) => "[--gate] [--out <path>] ",
            };
            eprintln!("usage: cargo xtask {name} {common}{flags}");
        }
        return ExitCode::FAILURE;
    };
    let result = match kind {
        Kind::BenchDiff => bench_diff(&args[1..]),
        Kind::Report(plan) => {
            parse_opts(flags, &args[1..]).and_then(|opts| run_report(name, &plan(&opts), &opts))
        }
    };
    result.unwrap_or_else(|e| {
        eprintln!("{name}: {e}");
        ExitCode::FAILURE
    })
}

fn format_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// What a task returns: its exit code, or an error that ends it early.
type TaskResult = Result<ExitCode, String>;

fn bench_diff(args: &[String]) -> TaskResult {
    let mut no_run = false;
    let mut current_path = "target/bench-current.json".to_string();
    Flags::default()
        .switch("--no-run", &mut no_run)
        .value("--current", &mut current_path, |_| true)
        .parse(args.iter().cloned())?;

    // Absolutize: the bench binaries run with their package root as working
    // directory, so a relative BENCH_JSON_PATH would land in crates/bench/.
    let current_path: PathBuf = match std::env::current_dir() {
        Ok(cwd) => cwd.join(&current_path),
        Err(_) => current_path.into(),
    };
    if !no_run {
        // Start from a clean scratch file so stale entries never mask a
        // missing bench.
        let _ = std::fs::remove_file(&current_path);
        eprintln!(
            "running `cargo bench -p paper_bench` (BENCH_JSON_PATH={})...",
            current_path.display()
        );
        let status = Command::new(env!("CARGO"))
            .args(["bench", "-p", "paper_bench"])
            .env("BENCH_JSON_PATH", &current_path)
            .status()
            .map_err(|e| format!("could not launch cargo bench: {e}"))?;
        if !status.success() {
            return Err(format!("cargo bench failed: {status}"));
        }
    }

    let baseline = read_bench_json(BASELINE);
    let current = read_bench_json(&current_path.display().to_string());
    if baseline.is_empty() {
        return Err(format!(
            "no baseline at {BASELINE} (run from the workspace root)"
        ));
    }
    if current.is_empty() {
        return Err(format!("no fresh results at {}", current_path.display()));
    }

    // Machine-speed scale from the calibration microkernel; 1.0 (raw
    // ratios) when either side lacks it. Clamped so a corrupt calibration
    // sample cannot wave a real regression through.
    let machine_scale = match (baseline.get(CALIBRATION), current.get(CALIBRATION)) {
        (Some(&old_ns), Some(&new_ns)) if old_ns > 0.0 && new_ns > 0.0 => {
            (new_ns / old_ns).clamp(0.25, 4.0)
        }
        _ => {
            eprintln!("warning: calibration kernel `{CALIBRATION}` missing; using raw ratios");
            1.0
        }
    };
    println!("machine scale ({CALIBRATION}): {machine_scale:.2}x");

    let header = ["benchmark", "baseline", "current", "ratio", "status"];
    let mut rows = vec![header.map(String::from).to_vec()];
    let mut regressions = Vec::new();
    for (name, &new_ns) in &current {
        // Normalized: how much slower this kernel got relative to how much
        // slower the machine itself is.
        let old_ns = baseline.get(name);
        let ratio = old_ns.map(|old_ns| new_ns / old_ns / machine_scale);
        let tracked = TRACKED.contains(&name.as_str());
        let status = match ratio {
            None => "new",
            Some(r) if tracked && r > REGRESSION_FACTOR => {
                regressions.push((name.clone(), r));
                "REGRESSED"
            }
            _ if tracked => "tracked",
            _ => "",
        };
        let old = old_ns.map_or("-".to_string(), |&ns| format_ns(ns));
        let ratio = ratio.map_or("-".to_string(), |r| format!("{r:.2}x"));
        rows.push(vec![
            name.clone(),
            old,
            format_ns(new_ns),
            ratio,
            status.into(),
        ]);
    }
    for name in baseline.keys() {
        if !current.contains_key(name) && TRACKED.contains(&name.as_str()) {
            regressions.push((name.clone(), f64::INFINITY));
            let missing = "missing from the fresh run";
            rows.push(
                [name, "-", missing, "-", "REGRESSED"]
                    .map(String::from)
                    .to_vec(),
            );
        }
    }
    print!("{}", table(&rows));

    if regressions.is_empty() {
        println!("\nno tracked kernel regressed beyond {REGRESSION_FACTOR}x");
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("\ntracked kernels regressed beyond {REGRESSION_FACTOR}x:");
        for (name, ratio) in &regressions {
            eprintln!("  {name}: {ratio:.2}x");
        }
        Ok(ExitCode::FAILURE)
    }
}

/// A parsed record: key → value.
type Kv = BTreeMap<String, String>;

/// A report task's options, parsed from the flags its usage names; each
/// plan applies its own defaults.
#[derive(Default)]
struct Opts {
    gate: bool,
    out: Option<String>,
    min_speedup: Option<f64>,
    requests: Option<usize>,
    rate: Option<f64>,
    slo_ms: Option<f64>,
    random: Option<usize>,
}

/// Parses `args` for a report task, accepting `--gate`, `--out` and only
/// the other flags its `usage` names.
fn parse_opts(usage: &str, args: &[String]) -> Result<Opts, String> {
    let mut o = Opts::default();
    let takes = |flag: &str| usage.split(['[', ']', ' ']).any(|word| word == flag);
    let positive = |x: &f64| *x > 0.0 && x.is_finite();
    let mut flags =
        Flags::default()
            .switch("--gate", &mut o.gate)
            .optional("--out", &mut o.out, |_| true);
    if takes("--min-speedup") {
        flags = flags.optional("--min-speedup", &mut o.min_speedup, positive);
    }
    if takes("--requests") {
        flags = flags.optional("--requests", &mut o.requests, |&n| n > 0);
    }
    if takes("--rate") {
        flags = flags.optional("--rate", &mut o.rate, positive);
    }
    if takes("--slo-ms") {
        flags = flags.optional("--slo-ms", &mut o.slo_ms, positive);
    }
    if takes("--random") {
        flags = flags.optional("--random", &mut o.random, |&n| n > 0);
    }
    flags.parse(args.iter().cloned())?;
    Ok(o)
}

/// One run of a workspace binary, whose stdout is one record: its row
/// label, its `cargo run` arguments after `--release -q` (package, bin,
/// `--`, the binary's flags), and the file under `target/` its raw record
/// is archived as. A run that passes `--predictions PATH` also gets that
/// file's FNV-1a digest in its record, as `predictions_file`.
struct Run(String, String, String);

/// How a column shows its value.
#[derive(Clone, Copy)]
enum Show {
    Raw,
    Ns,
    /// The value times a scale, to so many decimals, then a unit.
    Num(f64, usize, &'static str),
}

/// A table column: header, record key (`*` stands for the row's tag), and
/// how the value shows.
struct Column(&'static str, &'static str, Show);

/// The table's rows.
enum Rows {
    /// One row per run.
    PerRun,
    /// One row per tag, read from the first record.
    Tags(&'static [&'static str]),
    /// One row per key of the first record ending in this suffix, tagged
    /// with the rest of the key.
    Suffix(&'static str),
}

/// A check over the records of a task's runs: `Some(true)` passes, and
/// `None` (a key missing) fails like `Some(false)`.
type Check = Box<dyn Fn(&[Kv]) -> Option<bool>>;

/// A gate: what it requires, and its check.
struct Gate(String, Check);

/// A gate requiring `message` of the records, checked by `check`.
fn gate(message: impl Into<String>, check: impl Fn(&[Kv]) -> Option<bool> + 'static) -> Gate {
    Gate(message.into(), Box::new(check))
}

/// A check that holds when `check` holds for every record of `runs`.
fn each(
    runs: Range<usize>,
    check: impl Fn(&Kv) -> Option<bool> + 'static,
) -> impl Fn(&[Kv]) -> Option<bool> {
    move |r| {
        r[runs.clone()]
            .iter()
            .try_fold(true, |ok, kv| Some(check(kv)? && ok))
    }
}

/// A line under the table, computed from the records.
type Note = Box<dyn Fn(&[Kv]) -> String>;

/// What a report task runs, shows and checks.
struct Plan {
    /// Title; each `{key}` is filled from the first record.
    title: &'static str,
    runs: Vec<Run>,
    /// Header of the row-label column, and the rows.
    rows: (&'static str, Rows),
    columns: Vec<Column>,
    notes: Vec<Note>,
    gates: Vec<Gate>,
}

impl Plan {
    /// The messages of the gates `records` fail.
    fn failures(&self, records: &[Kv]) -> Vec<&str> {
        let failed = self.gates.iter().filter(|g| g.1(records) != Some(true));
        failed.map(|g| g.0.as_str()).collect()
    }

    /// The report: title, table, notes, and every gate's verdict.
    fn render(&self, records: &[Kv]) -> String {
        let rows: Vec<(String, usize, &str)> = match &self.rows.1 {
            Rows::PerRun => (self.runs.iter().enumerate())
                .map(|(i, run)| (run.0.clone(), i, ""))
                .collect(),
            Rows::Tags(tags) => tags.iter().map(|&t| (t.to_string(), 0, t)).collect(),
            Rows::Suffix(suffix) => (records[0].keys().filter_map(|k| k.strip_suffix(suffix)))
                .map(|t| (t.to_string(), 0, t))
                .collect(),
        };
        let header = std::iter::once(self.rows.0).chain(self.columns.iter().map(|c| c.0));
        let mut grid = vec![header.map(str::to_string).collect::<Vec<_>>()];
        for (label, i, tag) in rows {
            let cells = self.columns.iter().map(|&Column(_, key, show)| {
                let value = records[i].get(&key.replace('*', tag));
                value.map_or("-".to_string(), |v| show_value(v, show))
            });
            grid.push(std::iter::once(label).chain(cells).collect());
        }
        let mut out = format!("{}\n\n{}\n", fill(self.title, &records[0]), table(&grid));
        for note in &self.notes {
            out += &format!("{}\n", note(records));
        }
        out += "\n";
        let failed = self.failures(records);
        for Gate(message, _) in &self.gates {
            let pass = !failed.contains(&message.as_str());
            out += &format!("{}  {message}\n", if pass { "pass" } else { "FAIL" });
        }
        out
    }
}

/// Lays `rows` out as aligned columns: the first left-aligned, the rest
/// right-aligned.
fn table(rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    for row in rows {
        for (c, cell) in row.iter().enumerate() {
            let w = rows.iter().map(|r| r[c].chars().count()).max().unwrap_or(0);
            out += &match c {
                0 => format!("{cell:<w$}"),
                _ => format!("  {cell:>w$}"),
            };
        }
        out += "\n";
    }
    out
}

/// Shows `value` as `show` says, or `-` when a number does not parse.
fn show_value(value: &str, show: Show) -> String {
    match (show, value.parse::<f64>()) {
        (Show::Raw, _) => value.to_string(),
        (Show::Ns, Ok(x)) => format_ns(x),
        (Show::Num(scale, digits, unit), Ok(x)) => format!("{:.digits$}{unit}", x * scale),
        _ => "-".to_string(),
    }
}

/// Executes `plan`'s runs, writes the report to stdout and `--out`, and
/// fails when a run exits unsuccessfully or, with `--gate`, when any gate
/// does.
fn run_report(name: &str, plan: &Plan, opts: &Opts) -> TaskResult {
    std::fs::create_dir_all("target").map_err(|e| format!("could not create target/: {e}"))?;
    let runs = plan
        .runs
        .iter()
        .map(execute)
        .collect::<Result<Vec<_>, _>>()?;
    let (records, statuses): (Vec<Kv>, Vec<ExitStatus>) = runs.into_iter().unzip();
    let report = plan.render(&records);
    print!("{report}");
    let out = opts.out.clone().unwrap_or(format!("target/{name}.txt"));
    std::fs::write(&out, &report).map_err(|e| format!("could not write {out}: {e}"))?;
    eprintln!("{name} written to {out}");
    // The report above shows what a failed run's record held.
    if let Some((Run(_, args, _), status)) =
        plan.runs.iter().zip(&statuses).find(|r| !r.1.success())
    {
        return Err(format!("{args} failed: {status}"));
    }
    let failed = plan.failures(&records);
    if !opts.gate {
        return Ok(ExitCode::SUCCESS);
    } else if failed.is_empty() {
        println!("{name} gate passed: all {} gates hold", plan.gates.len());
        return Ok(ExitCode::SUCCESS);
    }
    for message in &failed {
        eprintln!("GATE FAILED: {message}");
    }
    Ok(ExitCode::FAILURE)
}

/// Runs the release build of `run`'s binary, archives its stdout under
/// `target/`, and parses it.
fn execute(Run(_, args, archive): &Run) -> Result<(Kv, ExitStatus), String> {
    let predictions = args
        .split_whitespace()
        .skip_while(|&a| a != "--predictions")
        .nth(1);
    if let Some(path) = predictions {
        let _ = std::fs::remove_file(path);
    }
    eprintln!("running cargo run --release -q {args}...");
    let output = Command::new(env!("CARGO"))
        .args(["run", "--release", "-q"])
        .args(args.split_whitespace())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("could not launch {args}: {e}"))?;
    let archive = format!("target/{archive}");
    std::fs::write(&archive, &output.stdout)
        .map_err(|e| format!("could not write {archive}: {e}"))?;
    let mut kv = parse(&String::from_utf8_lossy(&output.stdout));
    if let Some(path) = predictions.filter(|_| output.status.success()) {
        let bytes = std::fs::read(path).map_err(|e| format!("no predictions at {path}: {e}"))?;
        let digest = fnv1a(FNV_OFFSET, &bytes);
        kv.insert("predictions_file".into(), format!("{digest:016x}"));
    }
    Ok((kv, output.status))
}

/// `template` with each `{key}` replaced by `kv`'s value (`?` if absent).
fn fill(template: &str, kv: &Kv) -> String {
    let (mut out, mut rest) = (String::new(), template);
    while let Some((head, tail)) = rest.split_once('{') {
        let (key, tail) = tail.split_once('}').unwrap_or((tail, ""));
        out += head;
        out += kv.get(key).map_or("?", String::as_str);
        rest = tail;
    }
    out + rest
}

/// A note: `template` filled from record `run`.
fn note(run: usize, template: &'static str) -> Note {
    Box::new(move |records| fill(template, &records[run]))
}

/// `key`'s value in `kv` as a number.
fn num(kv: &Kv, key: &str) -> Option<f64> {
    kv.get(key)?.parse().ok()
}

/// Whether `key`'s value in `kv` is `want`.
fn is(kv: &Kv, key: &str, want: &str) -> Option<bool> {
    Some(kv.get(key)? == want)
}

/// The one "same across runs" check: whether every record holds each of
/// `keys` with one value. `None` when any key is absent from any record,
/// or when there is no key to compare.
fn same<K: AsRef<str>>(records: &[Kv], keys: &[K]) -> Option<bool> {
    keys.first()?;
    keys.iter().try_fold(true, |ok, key| {
        let values = records.iter().map(|kv| kv.get(key.as_ref()));
        let values: Vec<&String> = values.collect::<Option<_>>()?;
        Some(ok && values.windows(2).all(|w| w[0] == w[1]))
    })
}

/// Every key ending in `suffix` that any record holds.
fn union_of(records: &[Kv], suffix: &str) -> Vec<String> {
    let keys = records
        .iter()
        .flat_map(Kv::keys)
        .filter(|k| k.ends_with(suffix));
    keys.cloned().collect::<BTreeSet<_>>().into_iter().collect()
}

/// `numerator / denominator` of two readings, when positive and finite.
fn ratio(numerator: Option<f64>, denominator: Option<f64>) -> Option<f64> {
    Some(numerator? / denominator?).filter(|r| r.is_finite() && *r > 0.0)
}

/// The speedup note and gates: `what` is at most
/// [`SERVE_SLOWDOWN_FACTOR`]× slower than its baseline, and with
/// `--min-speedup` at least that much faster.
fn scaling(
    what: &'static str,
    speedup: fn(&[Kv]) -> Option<f64>,
    floor: Option<f64>,
) -> (Note, Vec<Gate>) {
    let note: Note = Box::new(move |r| match speedup(r) {
        Some(x) => format!("{what} speedup: {x:.2}x"),
        None => format!("{what} speedup: -"),
    });
    let slowdown = format!("{what} at most {SERVE_SLOWDOWN_FACTOR}x slower than the baseline");
    let mut gates = vec![gate(slowdown, move |r| {
        Some(speedup(r)? >= 1.0 / SERVE_SLOWDOWN_FACTOR)
    })];
    if let Some(floor) = floor {
        let message = format!("{what} speedup at least {floor}x (--min-speedup)");
        gates.push(gate(message, move |r| Some(speedup(r)? >= floor)));
    }
    (note, gates)
}

fn serve_plan(o: &Opts) -> Plan {
    let requests = o.requests.unwrap_or(512);
    let runs = ["1", "4"].map(|w| {
        let preds = format!("--predictions target/serve-preds-{w}w.txt");
        let args = format!(
            "-p sram_serve --bin serve_bench -- --requests {requests} --threads {w} {preds}"
        );
        Run(w.into(), args, format!("serve-{w}w.txt"))
    });
    let wall = |r: &[Kv]| ratio(num(&r[0], "wall_ns"), num(&r[1], "wall_ns"));
    let (speedup, scaling_gates) = scaling("4-worker", wall, o.min_speedup);
    let mut gates = vec![
        gate("served predictions identical at 1 and 4 workers", |r| {
            same(r, &["digest", "predictions_file"])
        }),
        gate(
            "every run reports a positive words_per_sec",
            each(0..2, |kv| Some(num(kv, "words_per_sec")? > 0.0)),
        ),
    ];
    gates.extend(scaling_gates);
    Plan {
        title: "serve-report — {requests} requests through the hybrid 8T-6T serving layer, \
                {mac_kernel} MAC",
        runs: runs.into(),
        rows: ("workers", Rows::PerRun),
        columns: vec![
            Column("throughput", "throughput_rps", Show::Num(1.0, 1, " r/s")),
            Column("read bw", "words_per_sec", Show::Num(1e-6, 1, " Mw/s")),
            Column("p50", "p50_ns", Show::Ns),
            Column("p99", "p99_ns", Show::Ns),
            Column("queue p99", "queue_p99_ns", Show::Ns),
            Column("svc p99", "service_p99_ns", Show::Ns),
            Column(
                "energy/inf",
                "energy_per_inference_j",
                Show::Num(1e9, 3, " nJ"),
            ),
            Column("standby", "standby_leakage_w", Show::Num(1e6, 3, " µW")),
            Column("BER", "observed_ber", Show::Raw),
            Column("wall", "wall_ns", Show::Ns),
            Column("digest", "digest", Show::Raw),
        ],
        notes: vec![speedup],
        gates,
    }
}

fn scale_plan(o: &Opts) -> Plan {
    let load = |r: &[Kv]| {
        let [first, .., last] = SCALE_SHARDS;
        let load_ns = |shards| num(&r[0], &format!("load_ns_{shards}"));
        ratio(load_ns(first), load_ns(last))
    };
    let (speedup, scaling_gates) = scaling("4-shard load", load, o.min_speedup);
    let identical = format!("images identical at {} shards", SCALE_SHARDS.join("/"));
    let mut gates = vec![gate(
        identical,
        each(0..1, |kv| {
            let digests = SCALE_SHARDS.map(|s| kv.get(&format!("digest_{s}")));
            let digests: Vec<&String> = digests.into_iter().collect::<Option<_>>()?;
            Some(digests.windows(2).all(|w| w[0] == w[1]))
        }),
    )];
    gates.extend(scaling_gates);
    let args = format!(
        "-p sram_serve --bin scale_bench -- --shards {}",
        SCALE_SHARDS.join(",")
    );
    Plan {
        title: "scale-report — {words} synaptic words through the sharded store \
                ({threads} threads)",
        runs: vec![Run("scale".into(), args, "scale-bench.txt".into())],
        rows: ("shards", Rows::Tags(&SCALE_SHARDS)),
        columns: vec![
            Column("load", "load_ns_*", Show::Ns),
            Column("bulk read", "bulk_ns_*", Show::Ns),
            Column("snapshot", "snapshot_ns_*", Show::Ns),
            Column("digest", "digest_*", Show::Raw),
        ],
        notes: vec![speedup],
        gates,
    }
}

fn chaos_plan(o: &Opts) -> Plan {
    let requests = o.requests.unwrap_or(512);
    let runs = ["1", "4"].map(|w| {
        let args = format!(
            "-p sram_serve --bin serve_bench -- --chaos --requests {requests} --threads {w}"
        );
        Run(w.into(), args, format!("chaos-{w}w.txt"))
    });
    let acc = |kv: &Kv, scenario: &str| num(kv, &format!("{scenario}_accuracy"));
    let drop = CHAOS_ACCURACY_DROP;
    Plan {
        title: "chaos-report — {requests} requests, one shard degraded mid-load \
                over {waves} waves",
        runs: runs.into(),
        rows: ("scenario", Rows::Tags(&["healthy", "protected", "unprotected"])),
        columns: vec![
            Column("accuracy", "*_accuracy", Show::Num(1.0, 3, "")),
            Column("p99", "*_p99_ns", Show::Ns),
            Column("digest", "*_digest", Show::Raw),
        ],
        notes: vec![note(
            0,
            "bist: {bist_weak_words} weak words / {bist_weak_bits} weak bits (digest {bist_digest})\n\
             scrub: {scrub_sweeps} sweeps, {corrected_words} corrected words / {corrected_bits} \
             bits, {uncorrectable_words} uncorrectable\n\
             repair: {rows_repaired} rows remapped, {spare_rows_free} spares free; \
             governor boosts {governor_boosts}",
        )],
        gates: vec![
            gate("resilience decisions identical at 1 and 4 workers", |r| {
                same(r, CHAOS_INVARIANT_KEYS)
            }),
            gate(
                format!("protected accuracy within {drop} of healthy"),
                each(0..1, move |kv| Some(acc(kv, "protected")? >= acc(kv, "healthy")? - drop)),
            ),
            gate(
                format!("unprotected accuracy more than {drop} below healthy"),
                each(0..1, move |kv| Some(acc(kv, "unprotected")? < acc(kv, "healthy")? - drop)),
            ),
            gate(
                format!("protected p99 at most {CHAOS_P99_FACTOR}x healthy p99"),
                each(0..1, |kv| {
                    let healthy = num(kv, "healthy_p99_ns")?;
                    let protected = num(kv, "protected_p99_ns")?;
                    Some(healthy > 0.0 && protected <= healthy * CHAOS_P99_FACTOR)
                }),
            ),
        ],
    }
}

fn net_plan(o: &Opts) -> Plan {
    let requests = o.requests.unwrap_or(256);
    let low = format!("--rate {}", o.rate.unwrap_or(600.0));
    let burst = "--rate 0 --global-inflight 64 --soft-inflight 32";
    // Two sub-saturation runs at different connection counts (the
    // determinism probe), then a burst with tight in-flight caps (the
    // overload probe). The burst sends request `i` on connection `i % 3`
    // for tenant `i % 2`: an odd connection count interleaves both
    // tenants on every connection, so the batch-size gate sees mixed
    // arrivals.
    let runs = [
        ("low", "2", low.as_str()),
        ("low", "8", &low),
        ("burst", "3", burst),
    ]
    .map(|(load, connections, flags)| {
        let args = format!(
            "-p sram_net --bin net_bench -- --tenants 2 --requests {requests} \
                 --connections {connections} {flags}"
        );
        let label = format!("{load}/{connections}conn");
        Run(label, args, format!("net-{load}-{connections}conn.txt"))
    });
    let slo_ms = o.slo_ms.unwrap_or(NET_SLO_MS);
    Plan {
        title: "net-report — {requests} open-loop requests over real sockets, \
                {tenants} resident tenants, {mac_kernel} MAC",
        runs: runs.into(),
        rows: ("run", Rows::PerRun),
        columns: vec![
            Column("sent", "sent", Show::Raw),
            Column("ok", "ok", Show::Raw),
            Column("shed", "shed", Show::Raw),
            Column("err", "errors", Show::Raw),
            Column("sojourn p50", "sojourn_p50_ns", Show::Ns),
            Column("sojourn p99", "sojourn_p99_ns", Show::Ns),
            Column("service p99", "service_p99_ns", Show::Ns),
            Column("residual p50", "residual_p50_ns", Show::Ns),
            Column("mean batch", "mean_batch", Show::Num(1.0, 2, "")),
            Column("digest", "digest", Show::Raw),
        ],
        notes: vec![note(
            2,
            "burst probe: {shed} shed of {sent} sent ({degrade_events} degrade events, \
             {drowsy_served} served drowsy)",
        )],
        gates: vec![
            gate("response digests identical at 2 and 8 connections", |r| {
                same(&r[..2], &["digest"])
            }),
            gate(
                "low-rate runs shed nothing",
                each(0..2, |kv| Some(num(kv, "shed")? == 0.0)),
            ),
            gate(
                "low-rate runs have no errors",
                each(0..2, |kv| Some(num(kv, "errors")? == 0.0)),
            ),
            gate(
                "low-rate runs drain in time",
                each(0..2, |kv| is(kv, "timed_out", "false")),
            ),
            gate(
                "low-rate client and server digests agree (nothing lost or fabricated)",
                each(0..2, |kv| {
                    Some(kv.get("digest")? == kv.get("server_digest")?)
                }),
            ),
            gate(
                format!("low-rate sojourn p99 within the {slo_ms} ms SLO"),
                each(0..2, move |kv| {
                    let p99 = num(kv, "sojourn_p99_ns")?;
                    Some(p99 > 0.0 && p99 <= slo_ms * 1e6)
                }),
            ),
            gate(
                "burst run sheds",
                each(2..3, |kv| Some(num(kv, "shed")? > 0.0)),
            ),
            gate(
                "burst run has no errors",
                each(2..3, |kv| Some(num(kv, "errors")? == 0.0)),
            ),
            gate(
                format!("burst run serves at least {NET_MIN_BURST_BATCH} requests per micro-batch"),
                each(2..3, |kv| {
                    Some(num(kv, "mean_batch")? >= NET_MIN_BURST_BATCH)
                }),
            ),
        ],
    }
}

fn gen_plan(o: &Opts) -> Plan {
    let random = o.random.unwrap_or(GEN_RANDOM_SPECS);
    let runs = ["1", "4"].map(|t| {
        let args = format!(
            "-p sram_gen --bin gen_report -- --specs-dir crates/gen/specs \
             --corpus-dir crates/gen/corpus --random {random} --threads {t}"
        );
        Run(t.into(), args, format!("gen-report-{t}t.txt"))
    });
    let floor = GEN_RANDOM_SPECS.min(random) as f64;
    Plan {
        title: "gen-report — design-space sweep: {specs_total} committed specs, \
                {random_total} random specs, {corpus_total} corpus files",
        runs: runs.into(),
        rows: ("spec", Rows::Suffix("_report_digest")),
        columns: vec![
            Column("words", "*_words", Show::Raw),
            Column("banks", "*_banks", Show::Raw),
            Column("layout digest", "*_layout_digest", Show::Raw),
            Column("report digest", "*_report_digest", Show::Raw),
        ],
        notes: vec![note(
            0,
            "paper fixture layout match: {paper_fixture_match}\n\
             corpus: {corpus_rejected} of {corpus_total} rejected\nfailures: {failures}",
        )],
        gates: vec![
            gate("every digest identical at 1 and 4 worker threads", |r| {
                same(r, &union_of(r, "_digest"))
            }),
            gate(
                "every spec builds, characterizes and smokes",
                each(0..2, |kv| {
                    // `random_ok` is a count, gated below.
                    let oks = kv
                        .iter()
                        .filter(|(k, _)| k.ends_with("_ok") && *k != "random_ok");
                    let oks: Vec<bool> = oks.map(|(_, v)| v == "true").collect();
                    Some(*oks.first()? && oks.iter().all(|&ok| ok))
                }),
            ),
            gate(
                "generated digits layout matches the paper's hand-wired fixture",
                each(0..2, |kv| is(kv, "paper_fixture_match", "true")),
            ),
            gate(
                "malformed corpus fully rejected",
                each(0..2, |kv| {
                    Some(kv.get("corpus_rejected")? == kv.get("corpus_total")?)
                }),
            ),
            gate(
                format!("every random spec sweeps cleanly, at least {floor}"),
                each(0..2, move |kv| {
                    let ok = num(kv, "random_ok")?;
                    Some(ok == num(kv, "random_total")? && ok >= floor)
                }),
            ),
            gate(
                "zero failures counted",
                each(0..2, |kv| is(kv, "failures", "0")),
            ),
        ],
    }
}
