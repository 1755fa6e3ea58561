//! Repository automation tasks, invoked as `cargo xtask <task>`.
//!
//! Two tasks:
//!
//! * **`bench-diff`** — runs the workspace benches into a scratch
//!   `BENCH.json` (via the shim-criterion `BENCH_JSON_PATH` hook), compares
//!   the fresh numbers against the committed `crates/bench/BENCH.json`, and
//!   prints per-bench deltas. Exits non-zero only when a *tier-tracked
//!   kernel* regresses by more than [`REGRESSION_FACTOR`]× — coarse enough
//!   to ignore shared-runner noise, tight enough to catch a solver falling
//!   back to brute force. `--no-run` skips the bench run and diffs an
//!   existing file (`--current <path>`).
//!
//! * **`serve-report`** — runs the `serve_bench` load generator at 1 and 4
//!   workers and emits a throughput/latency/energy comparison table
//!   (written to `--out`, default `target/serve-report.txt`). With
//!   `--gate`, exits non-zero when the two runs' predictions differ
//!   (determinism under load broken), when either run fails to emit a
//!   positive `words_per_sec` read-bandwidth figure, or when the 4-worker
//!   run is slower than the 1-worker run by more than
//!   [`SERVE_SLOWDOWN_FACTOR`]×;
//!   `--min-speedup X` additionally requires a genuine ≥X× speedup (used
//!   by CI, whose runners are known multi-core — a single-core dev box
//!   should gate without it). Both runs execute back-to-back in one job
//!   on one machine, so the ratio is machine-normalized by construction.
//!
//! * **`scale-report`** — runs the `scale_bench` million-synapse workload
//!   (one process, shard counts 1/2/4 back-to-back) and renders the shard
//!   scaling table (written to `--out`, default `target/scale-report.txt`).
//!   With `--gate`, exits non-zero when the per-shard-count digests differ
//!   (the shard counts stored or read different bytes — a correctness
//!   failure, never acceptable) or when the widest shard
//!   count loads more than [`SERVE_SLOWDOWN_FACTOR`]× slower than one
//!   shard; `--min-speedup X` additionally requires a genuine ≥X× load
//!   speedup on known multi-core runners.
//!
//! * **`chaos-report`** — runs `serve_bench --chaos` (healthy / protected /
//!   unprotected over a seeded mid-load degradation schedule) at 1 and 4
//!   workers and renders the resilience comparison table (written to
//!   `--out`, default `target/chaos-report.txt`). With `--gate`, exits
//!   non-zero when any scenario's prediction digest or any resilience
//!   counter differs between the two worker counts, when the protected
//!   run's accuracy drops more than [`CHAOS_ACCURACY_DROP`] below healthy
//!   or its p99 exceeds [`CHAOS_P99_FACTOR`]× healthy, or when the
//!   *unprotected* run fails to violate the accuracy bound — the
//!   degradation must be strong enough that surviving it is evidence the
//!   scrub/repair loop works, not that the chaos was toothless.
//!
//! * **`net-report`** — spawns the `sram_net` evented TCP server via the
//!   `net_bench` open-loop load generator three times: twice at a
//!   sub-saturation arrival rate with different connection counts (the
//!   determinism probe) and once in burst mode with tight in-flight caps
//!   (the overload probe). Renders the arrival-rate/sojourn/shed table
//!   (written to `--out`, default `target/net-report.txt`). With
//!   `--gate`, exits non-zero when the two low-rate runs' response
//!   digests differ (determinism across connection interleavings is
//!   broken), when either low-rate run sheds, errors, or times out, when
//!   a low-rate run's client *or* server digest disagree (responses were
//!   lost or fabricated), when sojourn p99 exceeds `--slo-ms` (default
//!   [`NET_SLO_MS`]), or when the burst run fails to shed — overload
//!   must produce explicit `Overloaded` responses, not silence.
//!
//! * **`gen-report`** — runs the `sram_gen` design-space sweep
//!   (`gen_report`: every committed spec under `crates/gen/specs/`, a
//!   seeded random sample of the spec space, and the malformed corpus
//!   under `crates/gen/corpus/`) twice at different worker-thread counts
//!   and renders the per-spec digest table (written to `--out`, default
//!   `target/gen-report.txt`). With `--gate`, exits non-zero when any
//!   spec fails to build/characterize/smoke, when any digest differs
//!   across worker counts (sweep observables must be pure functions of
//!   the spec), when the generated `digits` layout stops matching the
//!   paper's hand-wired fixture, when any corpus file is *accepted*, or
//!   when fewer than the floor of random specs sweep cleanly.
//!
//! The committed baseline was recorded on a different machine than CI's
//! shared runners, so raw wall-clock ratios would gate hardware speed, not
//! code. Ratios are therefore normalized by the [`CALIBRATION`] kernel —
//! `mosfet_drain_current`, a pure scalar-FP microkernel untouched by
//! algorithmic changes — so a uniformly slower machine cancels out while a
//! kernel regressing *relative to the machine* still trips the gate.

use criterion::read_bench_json;
use sram_exec::Flags;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

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
    "serve/throughput_1w",
    "serve/throughput_4w",
    "serve/words_per_sec",
    "chaos/degraded_p99",
    "chaos/scrub_sweep",
    "net/conn_throughput",
    "net/open_loop_p99",
];

/// A tracked kernel fails the diff when its machine-normalized ratio
/// exceeds this factor.
const REGRESSION_FACTOR: f64 = 2.0;

/// Machine-speed calibration kernel: ~50 ns of pure device-model floating
/// point, dominated by `exp`/`ln` throughput and untouched by solver
/// restructuring. The per-bench ratios are divided by this kernel's ratio
/// before the regression check.
const CALIBRATION: &str = "mosfet_drain_current";

/// `serve-report --gate` fails when the 4-worker serve run takes more than
/// this factor of the 1-worker wall time (a 2-core CI runner may not reach
/// a 2× speedup, but 4 workers must never make serving meaningfully
/// *slower* than 1).
const SERVE_SLOWDOWN_FACTOR: f64 = 1.5;

/// `net-report --gate`'s default client-side sojourn p99 bound,
/// milliseconds, at the sub-saturation arrival rate. Sojourn is measured
/// from the *scheduled* open-loop arrival, so it includes every queueing
/// effect; the bound is deliberately loose against shared-runner noise —
/// it exists to catch the server falling off a latency cliff (seconds,
/// not milliseconds), and can be tightened per-run with `--slo-ms`.
const NET_SLO_MS: f64 = 250.0;

/// `chaos-report --gate` allows the protected run at most this absolute
/// accuracy drop below the healthy baseline — and requires the
/// *unprotected* run to exceed it, proving the injected degradation had
/// teeth.
const CHAOS_ACCURACY_DROP: f64 = 0.02;

/// `chaos-report --gate` allows the protected run's p99 latency at most
/// this factor of the healthy run's (scrub + repair overhead amortizes
/// across waves; a blowup here means maintenance is on the request path).
const CHAOS_P99_FACTOR: f64 = 2.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let task = match args.first().map(String::as_str) {
        Some("bench-diff") => bench_diff,
        Some("serve-report") => serve_report,
        Some("scale-report") => scale_report,
        Some("chaos-report") => chaos_report,
        Some("net-report") => net_report,
        Some("gen-report") => gen_report,
        _ => {
            eprintln!("usage: cargo xtask bench-diff [--no-run] [--current <path>]");
            eprintln!(
                "       cargo xtask serve-report [--gate] [--min-speedup X] [--requests N] [--out <path>]"
            );
            eprintln!("       cargo xtask scale-report [--gate] [--min-speedup X] [--out <path>]");
            eprintln!("       cargo xtask chaos-report [--gate] [--requests N] [--out <path>]");
            eprintln!(
                "       cargo xtask net-report [--gate] [--requests N] [--rate R] [--slo-ms X] [--out <path>]"
            );
            eprintln!("       cargo xtask gen-report [--gate] [--random N] [--out <path>]");
            return ExitCode::FAILURE;
        }
    };
    task(&args[1..]).unwrap_or_else(|e| {
        eprintln!("{}: {e}", args[0]);
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

    println!(
        "{:<48} {:>12} {:>12} {:>9}  status",
        "benchmark", "baseline", "current", "ratio"
    );
    let mut regressions = Vec::new();
    for (name, &new_ns) in &current {
        let Some(&old_ns) = baseline.get(name) else {
            println!(
                "{name:<48} {:>12} {:>12} {:>9}  new",
                "-",
                format_ns(new_ns),
                "-"
            );
            continue;
        };
        // Normalized: how much slower this kernel got relative to how much
        // slower the machine itself is.
        let ratio = new_ns / old_ns / machine_scale;
        let tracked = TRACKED.contains(&name.as_str());
        let status = if tracked && ratio > REGRESSION_FACTOR {
            regressions.push((name.clone(), ratio));
            "REGRESSED"
        } else if tracked {
            "tracked"
        } else {
            ""
        };
        println!(
            "{name:<48} {:>12} {:>12} {:>8.2}x  {status}",
            format_ns(old_ns),
            format_ns(new_ns),
            ratio
        );
    }
    for name in baseline.keys() {
        if !current.contains_key(name) && TRACKED.contains(&name.as_str()) {
            regressions.push((name.clone(), f64::INFINITY));
            println!("{name:<48} (tracked kernel missing from fresh run)  REGRESSED");
        }
    }

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

/// A parsed `key=value` report.
type Report = BTreeMap<String, String>;

/// The workspace `target/` directory (created if missing), where the
/// reports and the raw runs behind them are written.
fn target_dir() -> PathBuf {
    let target = std::env::current_dir().unwrap_or_default().join("target");
    let _ = std::fs::create_dir_all(&target);
    target
}

/// Runs the release build of workspace binary `bin` from `package` with
/// `args` plus `--report <report>`, and parses the `key=value` report it
/// writes there.
fn run_bin_report(
    package: &str,
    bin: &str,
    args: &[&str],
    report: &Path,
) -> Result<Report, String> {
    let _ = std::fs::remove_file(report);
    let status = Command::new(env!("CARGO"))
        .args(["run", "--release", "-q", "-p", package, "--bin", bin, "--"])
        .args(args)
        .arg("--report")
        .arg(report)
        .status()
        .map_err(|e| format!("could not launch {bin}: {e}"))?;
    if !status.success() {
        return Err(format!("{bin} {} failed: {status}", args.join(" ")));
    }
    let text = std::fs::read_to_string(report)
        .map_err(|e| format!("no report at {}: {e}", report.display()))?;
    Ok(text
        .lines()
        .filter_map(|line| line.split_once('='))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect())
}

/// Prints `table` and writes it to `out_path`.
fn emit_table(table: &str, out_path: &str, what: &str) -> Result<(), String> {
    print!("{table}");
    std::fs::write(out_path, table).map_err(|e| format!("could not write {out_path}: {e}"))?;
    eprintln!("{what} report written to {out_path}");
    Ok(())
}

/// Shard counts `scale-report` asks `scale_bench` for (ascending; the
/// scaling gate compares the last against the first).
const SCALE_SHARDS: &[usize] = &[1, 2, 4];

fn scale_report(args: &[String]) -> TaskResult {
    let mut gate = false;
    let mut out_path = "target/scale-report.txt".to_string();
    let mut min_speedup: Option<f64> = None;
    Flags::default()
        .switch("--gate", &mut gate)
        .optional("--min-speedup", &mut min_speedup, |&x| {
            x > 0.0 && x.is_finite()
        })
        .value("--out", &mut out_path, |_| true)
        .parse(args.iter().cloned())?;

    let shard_list = SCALE_SHARDS
        .iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join(",");
    eprintln!("running scale_bench (shards {shard_list})...");
    let kv = run_bin_report(
        "sram_serve",
        "scale_bench",
        &["--shards", &shard_list],
        &target_dir().join("scale-bench.txt"),
    )?;

    let get_ns = |key: &str| kv.get(key).and_then(|v| v.parse::<f64>().ok());
    let mut table = String::new();
    table.push_str(&format!(
        "scale-report — {} synaptic words through the sharded store ({} threads)\n\n",
        kv.get("words").map(String::as_str).unwrap_or("?"),
        kv.get("threads").map(String::as_str).unwrap_or("?"),
    ));
    table.push_str(&format!(
        "{:<8} {:>12} {:>12} {:>12}  digest\n",
        "shards", "load", "bulk read", "snapshot"
    ));
    for &shards in SCALE_SHARDS {
        table.push_str(&format!(
            "{shards:<8} {:>12} {:>12} {:>12}  {}\n",
            format_ns(get_ns(&format!("load_ns_{shards}")).unwrap_or(f64::NAN)),
            format_ns(get_ns(&format!("bulk_ns_{shards}")).unwrap_or(f64::NAN)),
            format_ns(get_ns(&format!("snapshot_ns_{shards}")).unwrap_or(f64::NAN)),
            kv.get(&format!("digest_{shards}"))
                .map(String::as_str)
                .unwrap_or("-"),
        ));
    }

    let first = SCALE_SHARDS[0];
    let last = SCALE_SHARDS[SCALE_SHARDS.len() - 1];
    let speedup = get_ns(&format!("load_ns_{first}")).unwrap_or(f64::NAN)
        / get_ns(&format!("load_ns_{last}")).unwrap_or(f64::NAN);
    let digests: Vec<Option<&String>> = SCALE_SHARDS
        .iter()
        .map(|s| kv.get(&format!("digest_{s}")))
        .collect();
    let identical = digests.iter().all(|d| d.is_some()) && digests.windows(2).all(|w| w[0] == w[1]);
    table.push_str(&format!(
        "\n{last}-shard load speedup: {speedup:.2}x\nimages across shard counts: {}\n",
        if identical { "IDENTICAL" } else { "DIVERGED" },
    ));

    emit_table(&table, &out_path, "scale")?;

    if gate {
        let mut failed = false;
        if !identical {
            eprintln!(
                "GATE FAILED: sharded images diverge across shard counts {SCALE_SHARDS:?} \
                 (sharding must never change a stored or read byte)"
            );
            failed = true;
        }
        if !(speedup.is_finite() && speedup > 0.0) {
            eprintln!("GATE FAILED: could not compute the {last}-shard load speedup");
            failed = true;
        } else if speedup < 1.0 / SERVE_SLOWDOWN_FACTOR {
            eprintln!(
                "GATE FAILED: {last} shards load {:.2}x slower than 1 shard \
                 (allowed: {SERVE_SLOWDOWN_FACTOR}x)",
                1.0 / speedup
            );
            failed = true;
        } else if let Some(floor) = min_speedup {
            if speedup < floor {
                eprintln!(
                    "GATE FAILED: {last}-shard load speedup {speedup:.2}x is below the \
                     required {floor:.2}x (--min-speedup)"
                );
                failed = true;
            }
        }
        if failed {
            return Ok(ExitCode::FAILURE);
        }
        println!("scale gate passed: images identical, {last}-shard load speedup {speedup:.2}x");
    }
    Ok(ExitCode::SUCCESS)
}

fn serve_report(args: &[String]) -> TaskResult {
    let mut gate = false;
    let mut requests = 512usize;
    let mut out_path = "target/serve-report.txt".to_string();
    let mut min_speedup: Option<f64> = None;
    Flags::default()
        .switch("--gate", &mut gate)
        .value("--requests", &mut requests, |&n| n > 0)
        .optional("--min-speedup", &mut min_speedup, |&x| {
            x > 0.0 && x.is_finite()
        })
        .value("--out", &mut out_path, |_| true)
        .parse(args.iter().cloned())?;

    let target = target_dir();
    let worker_counts = [1usize, 4];
    let mut reports = Vec::new();
    for &workers in &worker_counts {
        let preds_path = target.join(format!("serve-preds-{workers}w.txt"));
        let _ = std::fs::remove_file(&preds_path);
        eprintln!("running serve_bench at {workers} worker(s)...");
        let kv = run_bin_report(
            "sram_serve",
            "serve_bench",
            &[
                "--requests",
                &requests.to_string(),
                "--threads",
                &workers.to_string(),
                "--predictions",
                &preds_path.display().to_string(),
            ],
            &target.join(format!("serve-{workers}w.txt")),
        )?;
        let preds = std::fs::read(&preds_path)
            .map_err(|e| format!("no predictions at {}: {e}", preds_path.display()))?;
        reports.push((workers, kv, preds));
    }

    let get_f64 = |kv: &Report, key: &str| kv.get(key).and_then(|v| v.parse::<f64>().ok());
    let mut table = String::new();
    table.push_str(&format!(
        "serve-report — {requests} requests through the hybrid 8T-6T serving layer\n\n"
    ));
    table.push_str(&format!(
        "{:<8} {:>14} {:>15} {:>12} {:>12} {:>12} {:>12} {:>14} {:>14} {:>12}  digest\n",
        "workers",
        "throughput",
        "read bw",
        "p50",
        "p99",
        "queue p99",
        "svc p99",
        "energy/inf",
        "standby",
        "BER"
    ));
    for (workers, kv, _) in &reports {
        let row = format!(
            "{:<8} {:>10.1} r/s {:>9.3e} w/s {:>12} {:>12} {:>12} {:>12} {:>11.3} nJ {:>11.3} µW {:>12}  {}\n",
            workers,
            get_f64(kv, "throughput_rps").unwrap_or(0.0),
            get_f64(kv, "words_per_sec").unwrap_or(0.0),
            format_ns(get_f64(kv, "p50_ns").unwrap_or(0.0)),
            format_ns(get_f64(kv, "p99_ns").unwrap_or(0.0)),
            format_ns(get_f64(kv, "queue_p99_ns").unwrap_or(0.0)),
            format_ns(get_f64(kv, "service_p99_ns").unwrap_or(0.0)),
            get_f64(kv, "energy_per_inference_j").unwrap_or(0.0) * 1e9,
            get_f64(kv, "standby_leakage_w").unwrap_or(0.0) * 1e6,
            kv.get("observed_ber").map(String::as_str).unwrap_or("-"),
            kv.get("digest").map(String::as_str).unwrap_or("-"),
        );
        table.push_str(&row);
    }

    let wall_1 = get_f64(&reports[0].1, "wall_ns").unwrap_or(f64::NAN);
    let wall_4 = get_f64(&reports[1].1, "wall_ns").unwrap_or(f64::NAN);
    let speedup = wall_1 / wall_4;
    let identical = reports[0].2 == reports[1].2
        && reports[0].1.contains_key("digest")
        && reports[0].1.get("digest") == reports[1].1.get("digest");
    table.push_str(&format!(
        "\n4-worker speedup: {speedup:.2}x (wall {} -> {})\npredictions across worker counts: {}\n",
        format_ns(wall_1),
        format_ns(wall_4),
        if identical { "IDENTICAL" } else { "DIVERGED" },
    ));

    emit_table(&table, &out_path, "serve")?;

    if gate {
        let mut failed = false;
        if !identical {
            eprintln!(
                "GATE FAILED: served predictions differ between 1 and 4 workers \
                 (determinism under load is broken)"
            );
            failed = true;
        }
        // The bulk-read datapath's bandwidth figure must actually be
        // emitted (and be a positive rate) by every run.
        for (workers, kv, _) in &reports {
            match get_f64(kv, "words_per_sec") {
                Some(wps) if wps > 0.0 => {}
                _ => {
                    eprintln!(
                        "GATE FAILED: {workers}-worker report is missing a positive \
                         words_per_sec field"
                    );
                    failed = true;
                }
            }
        }
        if !(speedup.is_finite() && speedup > 0.0) {
            eprintln!("GATE FAILED: could not compute the 4-worker speedup");
            failed = true;
        } else if speedup < 1.0 / SERVE_SLOWDOWN_FACTOR {
            eprintln!(
                "GATE FAILED: 4 workers are {:.2}x slower than 1 worker \
                 (allowed: {SERVE_SLOWDOWN_FACTOR}x)",
                1.0 / speedup
            );
            failed = true;
        } else if let Some(floor) = min_speedup {
            // Opt-in scaling floor for known-multi-core runners: the
            // serving layer must actually get faster with workers, not
            // merely avoid getting slower.
            if speedup < floor {
                eprintln!(
                    "GATE FAILED: 4-worker speedup {speedup:.2}x is below the \
                     required {floor:.2}x (--min-speedup)"
                );
                failed = true;
            }
        }
        if failed {
            return Ok(ExitCode::FAILURE);
        }
        println!("serve-load gate passed: predictions identical, 4-worker speedup {speedup:.2}x");
    }
    Ok(ExitCode::SUCCESS)
}

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

fn chaos_report(args: &[String]) -> TaskResult {
    let mut gate = false;
    let mut requests = 512usize;
    let mut out_path = "target/chaos-report.txt".to_string();
    Flags::default()
        .switch("--gate", &mut gate)
        .value("--requests", &mut requests, |&n| n > 0)
        .value("--out", &mut out_path, |_| true)
        .parse(args.iter().cloned())?;

    let target = target_dir();
    let worker_counts = [1usize, 4];
    let mut reports = Vec::new();
    for &workers in &worker_counts {
        eprintln!("running serve_bench --chaos at {workers} worker(s)...");
        let kv = run_bin_report(
            "sram_serve",
            "serve_bench",
            &[
                "--chaos",
                "--requests",
                &requests.to_string(),
                "--threads",
                &workers.to_string(),
            ],
            &target.join(format!("chaos-{workers}w.txt")),
        )?;
        reports.push((workers, kv));
    }

    let kv = &reports[0].1;
    let get_f64 = |key: &str| kv.get(key).and_then(|v| v.parse::<f64>().ok());
    let get_str = |key: &str| kv.get(key).map(String::as_str).unwrap_or("-");
    let mut table = String::new();
    table.push_str(&format!(
        "chaos-report — {requests} requests, one shard degraded mid-load over {} waves\n\n",
        get_str("waves"),
    ));
    table.push_str(&format!(
        "{:<14} {:>9} {:>12}  digest\n",
        "scenario", "accuracy", "p99"
    ));
    for scenario in ["healthy", "protected", "unprotected"] {
        table.push_str(&format!(
            "{scenario:<14} {:>9.3} {:>12}  {}\n",
            get_f64(&format!("{scenario}_accuracy")).unwrap_or(f64::NAN),
            format_ns(get_f64(&format!("{scenario}_p99_ns")).unwrap_or(f64::NAN)),
            get_str(&format!("{scenario}_digest")),
        ));
    }
    table.push_str(&format!(
        "\nbist: {} weak words / {} weak bits (digest {})\n\
         scrub: {} sweeps, {} corrected words / {} bits, {} uncorrectable\n\
         repair: {} rows remapped, {} spares free; governor boosts {}\n",
        get_str("bist_weak_words"),
        get_str("bist_weak_bits"),
        get_str("bist_digest"),
        get_str("scrub_sweeps"),
        get_str("corrected_words"),
        get_str("corrected_bits"),
        get_str("uncorrectable_words"),
        get_str("rows_repaired"),
        get_str("spare_rows_free"),
        get_str("governor_boosts"),
    ));

    let diverged: Vec<&str> = CHAOS_INVARIANT_KEYS
        .iter()
        .copied()
        .filter(|key| reports[0].1.get(*key) != reports[1].1.get(*key))
        .collect();
    table.push_str(&format!(
        "\nresilience decisions across worker counts: {}\n",
        if diverged.is_empty() {
            "IDENTICAL".to_string()
        } else {
            format!("DIVERGED ({})", diverged.join(", "))
        },
    ));

    emit_table(&table, &out_path, "chaos")?;

    if gate {
        let mut failed = false;
        if !diverged.is_empty() {
            eprintln!(
                "GATE FAILED: resilience outcomes differ between 1 and 4 workers: {}",
                diverged.join(", ")
            );
            failed = true;
        }
        let healthy_acc = get_f64("healthy_accuracy");
        let protected_acc = get_f64("protected_accuracy");
        let unprotected_acc = get_f64("unprotected_accuracy");
        let healthy_p99 = get_f64("healthy_p99_ns");
        let protected_p99 = get_f64("protected_p99_ns");
        match (healthy_acc, protected_acc, unprotected_acc) {
            (Some(h), Some(p), Some(u)) => {
                if p < h - CHAOS_ACCURACY_DROP {
                    eprintln!(
                        "GATE FAILED: protected accuracy {p:.3} dropped more than \
                         {CHAOS_ACCURACY_DROP} below healthy {h:.3}"
                    );
                    failed = true;
                }
                if u >= h - CHAOS_ACCURACY_DROP {
                    eprintln!(
                        "GATE FAILED: unprotected accuracy {u:.3} survived within \
                         {CHAOS_ACCURACY_DROP} of healthy {h:.3} — the degradation \
                         schedule is too weak to exercise the resilience loop"
                    );
                    failed = true;
                }
            }
            _ => {
                eprintln!("GATE FAILED: report is missing scenario accuracies");
                failed = true;
            }
        }
        match (healthy_p99, protected_p99) {
            (Some(h), Some(p)) if h > 0.0 => {
                if p > h * CHAOS_P99_FACTOR {
                    eprintln!(
                        "GATE FAILED: protected p99 {} exceeds {CHAOS_P99_FACTOR}x \
                         healthy p99 {}",
                        format_ns(p),
                        format_ns(h)
                    );
                    failed = true;
                }
            }
            _ => {
                eprintln!("GATE FAILED: report is missing scenario p99 latencies");
                failed = true;
            }
        }
        if failed {
            return Ok(ExitCode::FAILURE);
        }
        println!(
            "chaos gate passed: decisions identical across workers, protected run held \
             the accuracy and p99 bounds, unprotected run measurably failed"
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// The three `net_bench` runs `net-report` drives: two sub-saturation
/// runs at different connection counts (the determinism probe) and one
/// burst run with tight in-flight caps (the overload probe).
struct NetRun {
    label: &'static str,
    connections: usize,
    /// `None` = the configured `--rate`; `Some(0.0)` = burst.
    rate: Option<f64>,
    /// Extra `net_bench` flags (in-flight caps for the burst probe).
    extra: &'static [&'static str],
}

const NET_RUNS: &[NetRun] = &[
    NetRun {
        label: "low/2conn",
        connections: 2,
        rate: None,
        extra: &[],
    },
    NetRun {
        label: "low/8conn",
        connections: 8,
        rate: None,
        extra: &[],
    },
    NetRun {
        label: "burst/4conn",
        connections: 4,
        rate: Some(0.0),
        extra: &["--global-inflight", "64", "--soft-inflight", "32"],
    },
];

fn net_report(args: &[String]) -> TaskResult {
    let mut gate = false;
    let mut requests = 256usize;
    let mut rate = 600.0f64;
    let mut slo_ms = NET_SLO_MS;
    let mut out_path = "target/net-report.txt".to_string();
    Flags::default()
        .switch("--gate", &mut gate)
        .value("--requests", &mut requests, |&n| n > 0)
        .value("--rate", &mut rate, |&r| r > 0.0 && r.is_finite())
        .value("--slo-ms", &mut slo_ms, |&x| x > 0.0 && x.is_finite())
        .value("--out", &mut out_path, |_| true)
        .parse(args.iter().cloned())?;

    let target = target_dir();
    let mut reports = Vec::new();
    for run in NET_RUNS {
        let run_rate = run.rate.unwrap_or(rate);
        eprintln!(
            "running net_bench {} ({} req, rate {}, {} connections)...",
            run.label,
            requests,
            if run_rate > 0.0 {
                format!("{run_rate:.0}/s")
            } else {
                "burst".to_string()
            },
            run.connections
        );
        let (requests_arg, rate_arg, connections_arg) = (
            requests.to_string(),
            run_rate.to_string(),
            run.connections.to_string(),
        );
        let mut bin_args = vec![
            "--tenants",
            "2",
            "--requests",
            &requests_arg,
            "--rate",
            &rate_arg,
            "--connections",
            &connections_arg,
        ];
        bin_args.extend(run.extra);
        let kv = run_bin_report(
            "sram_net",
            "net_bench",
            &bin_args,
            &target.join(format!("net-{}.txt", run.label.replace('/', "-"))),
        )?;
        reports.push((run, kv));
    }

    let get_f64 = |kv: &Report, key: &str| kv.get(key).and_then(|v| v.parse::<f64>().ok());
    fn get_str<'a>(kv: &'a Report, key: &str) -> &'a str {
        kv.get(key).map(String::as_str).unwrap_or("-")
    }
    let mut table = String::new();
    table.push_str(&format!(
        "net-report — {requests} open-loop requests over real sockets, 2 resident tenants\n\n"
    ));
    table.push_str(&format!(
        "{:<12} {:>6} {:>6} {:>6} {:>5} {:>12} {:>12} {:>12} {:>12}  digest\n",
        "run",
        "sent",
        "ok",
        "shed",
        "err",
        "sojourn p50",
        "sojourn p99",
        "service p99",
        "residual p50"
    ));
    for (run, kv) in &reports {
        table.push_str(&format!(
            "{:<12} {:>6} {:>6} {:>6} {:>5} {:>12} {:>12} {:>12} {:>12}  {}\n",
            run.label,
            get_str(kv, "sent"),
            get_str(kv, "ok"),
            get_str(kv, "shed"),
            get_str(kv, "errors"),
            format_ns(get_f64(kv, "sojourn_p50_ns").unwrap_or(f64::NAN)),
            format_ns(get_f64(kv, "sojourn_p99_ns").unwrap_or(f64::NAN)),
            format_ns(get_f64(kv, "service_p99_ns").unwrap_or(f64::NAN)),
            format_ns(get_f64(kv, "residual_p50_ns").unwrap_or(f64::NAN)),
            get_str(kv, "digest"),
        ));
    }

    let low = &reports[0];
    let low_alt = &reports[1];
    let burst = &reports[2];
    let digests_match =
        low.1.contains_key("digest") && low.1.get("digest") == low_alt.1.get("digest");
    table.push_str(&format!(
        "\ndigests across connection counts: {}\n",
        if digests_match {
            "IDENTICAL"
        } else {
            "DIVERGED"
        },
    ));
    table.push_str(&format!(
        "burst probe: {} shed of {} sent ({} degrade events, {} served drowsy)\n",
        get_str(&burst.1, "shed"),
        get_str(&burst.1, "sent"),
        get_str(&burst.1, "degrade_events"),
        get_str(&burst.1, "drowsy_served"),
    ));

    emit_table(&table, &out_path, "net")?;

    if gate {
        let mut failed = false;
        if !digests_match {
            eprintln!(
                "GATE FAILED: response digests differ between {} and {} \
                 (determinism across connection interleavings is broken)",
                low.0.label, low_alt.0.label
            );
            failed = true;
        }
        for (run, kv) in [low, low_alt] {
            // Sub-saturation runs must serve everything: any shed, error,
            // or timeout at this rate is a capacity/liveness regression —
            // and the digest comparison is only meaningful at zero shed.
            for key in ["shed", "errors"] {
                if get_f64(kv, key).unwrap_or(f64::NAN) != 0.0 {
                    eprintln!(
                        "GATE FAILED: {} run has nonzero {key} at the sub-saturation rate",
                        run.label
                    );
                    failed = true;
                }
            }
            if kv.get("timed_out").map(String::as_str) != Some("false") {
                eprintln!("GATE FAILED: {} run timed out draining", run.label);
                failed = true;
            }
            if kv.get("digest") != kv.get("server_digest") {
                eprintln!(
                    "GATE FAILED: {} run's client and server digests disagree \
                     (responses were lost or fabricated)",
                    run.label
                );
                failed = true;
            }
            match get_f64(kv, "sojourn_p99_ns") {
                Some(p99) if p99 > 0.0 => {
                    if p99 > slo_ms * 1e6 {
                        eprintln!(
                            "GATE FAILED: {} sojourn p99 {} exceeds the {slo_ms} ms SLO",
                            run.label,
                            format_ns(p99)
                        );
                        failed = true;
                    }
                }
                _ => {
                    eprintln!("GATE FAILED: {} run is missing sojourn_p99_ns", run.label);
                    failed = true;
                }
            }
        }
        // The burst probe must actually overload: explicit sheds prove the
        // admission path answers under pressure instead of hanging.
        if get_f64(&burst.1, "shed").unwrap_or(0.0) <= 0.0 {
            eprintln!(
                "GATE FAILED: burst run shed nothing — the overload probe no longer \
                 exercises admission control"
            );
            failed = true;
        }
        if get_f64(&burst.1, "errors").unwrap_or(f64::NAN) != 0.0 {
            eprintln!("GATE FAILED: burst run has errors (overload must shed, not break)");
            failed = true;
        }
        if failed {
            return Ok(ExitCode::FAILURE);
        }
        println!(
            "net gate passed: digests identical across connection counts, zero shed at \
             {rate:.0}/s, sojourn p99 within {slo_ms} ms, burst probe shed explicitly"
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// Worker counts `gen-report` sweeps the design space at; every digest in
/// the report must be identical across them (observables are functions of
/// the spec and seeds, never of scheduling).
const GEN_THREADS: &[usize] = &[1, 4];

/// Random specs per `gen-report` run (the issue's sweep floor).
const GEN_RANDOM_SPECS: usize = 8;

fn gen_report(args: &[String]) -> TaskResult {
    let mut gate = false;
    let mut out_path = "target/gen-report.txt".to_string();
    let mut random = GEN_RANDOM_SPECS;
    Flags::default()
        .switch("--gate", &mut gate)
        .value("--random", &mut random, |&n| n > 0)
        .value("--out", &mut out_path, |_| true)
        .parse(args.iter().cloned())?;

    let target = target_dir();
    let mut reports = Vec::new();
    for &threads in GEN_THREADS {
        eprintln!("sweeping the design space ({random} random specs, {threads} worker threads)...");
        let kv = run_bin_report(
            "sram_gen",
            "gen_report",
            &[
                "--specs-dir",
                "crates/gen/specs",
                "--corpus-dir",
                "crates/gen/corpus",
                "--random",
                &random.to_string(),
                "--threads",
                &threads.to_string(),
            ],
            &target.join(format!("gen-report-{threads}t.txt")),
        )?;
        reports.push((threads, kv));
    }

    let base = &reports[0].1;
    let get = |key: &str| base.get(key).map(String::as_str).unwrap_or("-");
    let mut table = String::new();
    table.push_str(&format!(
        "gen-report — design-space sweep: {} committed specs, {} random specs, \
         {} corpus files\n\n",
        get("specs_total"),
        get("random_total"),
        get("corpus_total"),
    ));
    table.push_str(&format!(
        "{:<18} {:>9} {:>7} {:>18} {:>18}\n",
        "spec", "words", "banks", "layout digest", "report digest"
    ));
    let mut spec_keys: Vec<String> = base
        .keys()
        .filter_map(|k| k.strip_suffix("_report_digest").map(str::to_string))
        .collect();
    spec_keys.sort();
    for prefix in &spec_keys {
        table.push_str(&format!(
            "{:<18} {:>9} {:>7} {:>18} {:>18}\n",
            prefix.strip_prefix("spec_").unwrap_or(prefix),
            get(&format!("{prefix}_words")),
            get(&format!("{prefix}_banks")),
            get(&format!("{prefix}_layout_digest")),
            get(&format!("{prefix}_report_digest")),
        ));
    }
    table.push_str(&format!(
        "\npaper fixture layout match: {}\ncorpus: {} of {} rejected\nfailures: {}\n",
        get("paper_fixture_match"),
        get("corpus_rejected"),
        get("corpus_total"),
        get("failures"),
    ));

    // Digest stability across worker counts.
    let digest_keys: Vec<&String> = base.keys().filter(|k| k.ends_with("_digest")).collect();
    let mut diverged: Vec<&str> = Vec::new();
    for (_, kv) in &reports[1..] {
        for key in &digest_keys {
            if kv.get(*key) != base.get(*key) {
                diverged.push(key);
            }
        }
    }
    table.push_str(&format!(
        "digests across {GEN_THREADS:?} worker threads: {}\n",
        if diverged.is_empty() {
            "IDENTICAL"
        } else {
            "DIVERGED"
        },
    ));

    emit_table(&table, &out_path, "gen")?;

    if gate {
        let mut failed = false;
        if !diverged.is_empty() {
            eprintln!(
                "GATE FAILED: {} digest(s) differ across worker counts (e.g. {}) — \
                 sweep observables depend on scheduling",
                diverged.len(),
                diverged[0]
            );
            failed = true;
        }
        for (threads, kv) in &reports {
            // `random_ok` is a count (gated below); every other `*_ok` is
            // a per-spec boolean.
            for key in kv
                .keys()
                .filter(|k| k.ends_with("_ok") && k.as_str() != "random_ok")
            {
                if kv.get(key).map(String::as_str) != Some("true") {
                    eprintln!("GATE FAILED: {key} is not true at {threads} threads");
                    failed = true;
                }
            }
            if kv.get("paper_fixture_match").map(String::as_str) != Some("true") {
                eprintln!(
                    "GATE FAILED: generated digits layout no longer matches the paper's \
                     hand-wired fixture ({threads} threads)"
                );
                failed = true;
            }
            if kv.get("corpus_total").is_none()
                || kv.get("corpus_rejected") != kv.get("corpus_total")
            {
                eprintln!(
                    "GATE FAILED: malformed corpus not fully rejected at {threads} threads \
                     ({} of {})",
                    kv.get("corpus_rejected").map(String::as_str).unwrap_or("-"),
                    kv.get("corpus_total").map(String::as_str).unwrap_or("-"),
                );
                failed = true;
            }
            let random_ok = kv.get("random_ok").and_then(|v| v.parse::<usize>().ok());
            if random_ok != kv.get("random_total").and_then(|v| v.parse().ok())
                || random_ok.unwrap_or(0) < GEN_RANDOM_SPECS.min(random)
            {
                eprintln!(
                    "GATE FAILED: only {} of {} random specs swept cleanly at {threads} threads",
                    kv.get("random_ok").map(String::as_str).unwrap_or("-"),
                    kv.get("random_total").map(String::as_str).unwrap_or("-"),
                );
                failed = true;
            }
            if kv.get("failures").map(String::as_str) != Some("0") {
                eprintln!(
                    "GATE FAILED: gen_report counted {} failure(s) at {threads} threads",
                    kv.get("failures").map(String::as_str).unwrap_or("-")
                );
                failed = true;
            }
        }
        if failed {
            return Ok(ExitCode::FAILURE);
        }
        println!(
            "design-space gate passed: every spec built and characterized, digests \
             identical across worker counts, paper fixture matched, corpus fully rejected"
        );
    }
    Ok(ExitCode::SUCCESS)
}
