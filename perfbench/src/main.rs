//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <net_open_loop|serve_fault_free|serve_maintain> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's fixture from source, measures for `--seconds`,
//! checks every served prediction, and prints one JSON result as its last
//! line: the end-to-end metrics with `--trace 0`, the per-layer metrics
//! (plus the tracing overhead) with `--trace 1`. See README.md.

mod fixture;
mod metrics;
mod net;
mod probes;
mod serve;
mod stats;

use fixture::{NetFixture, ServeFixture, ServeKind, SetupTimes};
use metrics::{Metrics, END_TO_END, PER_LAYER};
use sram_exec::derive_seed;
use sram_net::server::{self, NetServerOptions};
use stats::{median, quiet_high, quiet_low, residual_ns, windows, Sample, WINDOWS};
use std::process::Command;
use std::sync::Arc;
use std::time::Duration;

const WORKLOADS: &[&str] = &["net_open_loop", "serve_fault_free", "serve_maintain"];

/// Extra cold set-ups, each in a fresh process (the characterization
/// tables are memoized per process), for the `setup_s` median.
const SETUP_CHILDREN: usize = 4;

/// A generator that sends later than these bounds (median, p99) has
/// fallen behind its schedule: the run measured the client, not the
/// server, and fails instead of reporting. The p99 bound is loose because
/// the shared machine can stall a vCPU for ~10 ms at a time.
const LATE_P50_LIMIT_US: f64 = 1_000.0;
const LATE_P99_LIMIT_US: f64 = 50_000.0;

/// Share of `net_open_loop`'s time in the open-loop phase; the rest is
/// the closed-loop throughput phase.
const OPEN_SHARE: f64 = 0.5;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or("bad --seconds (1..=600)")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("bad --trace (0 or 1)".into()),
                }
            }
            "--setup-only" => args.setup_only = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

/// Worker threads for every server: one per core.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The seeds one workload seed fans out into.
fn memory_seed(seed: u64) -> u64 {
    derive_seed(seed, 0x3E30)
}

enum Fixture {
    Net(NetFixture),
    Serve(Box<ServeFixture>),
}

impl Fixture {
    fn build(workload: &str, seed: u64) -> Self {
        let kind = match workload {
            "net_open_loop" => return Fixture::Net(fixture::build_net(memory_seed(seed))),
            "serve_fault_free" => ServeKind::FaultFree,
            _ => ServeKind::Maintain,
        };
        Fixture::Serve(Box::new(fixture::build_serve(
            kind,
            memory_seed(seed),
            derive_seed(seed, 0xBA5E),
            nproc(),
        )))
    }

    fn setup(&self) -> &SetupTimes {
        match self {
            Fixture::Net(f) => &f.setup,
            Fixture::Serve(f) => &f.setup,
        }
    }
}

/// Cold set-up times of `SETUP_CHILDREN` fresh processes.
fn child_setups(args: &Args) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    (0..SETUP_CHILDREN)
        .map(|_| {
            let out = Command::new(&exe)
                .args(["--setup-only", "--workload", &args.workload])
                .args(["--seed", &args.seed.to_string()])
                .output()
                .map_err(|e| format!("set-up child: {e}"))?;
            if !out.status.success() {
                return Err(format!("set-up child failed: {}", out.status));
            }
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .find_map(|l| l.strip_prefix("setup_s=")?.trim().parse().ok())
                .ok_or_else(|| "set-up child printed no setup_s".to_string())
        })
        .collect()
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the checkout, when it is a git checkout; read straight
/// from `.git` so no process runs outside the benchmark.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown (not a git checkout)".into();
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => read(&format!(".git/{r}"))
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split(' ').next().map(str::to_string))
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

/// What a measured workload hands back.
#[derive(Default)]
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    /// Outputs disagreeing with the reference: the result is wrong.
    wrong: Vec<String>,
    /// The measurement itself is not valid; no number is reported.
    invalid: Vec<String>,
}

/// End-to-end timing figures of one measured pass, each from the raw
/// samples of that pass cut into `WINDOWS` windows.
#[derive(Clone, Copy)]
struct Headline {
    throughput_rps: f64,
    latency_p50_ms: f64,
}

/// Phase A gives the latency (sojourn from the scheduled arrival); phase
/// B the throughput (completions while the window was held open, so the
/// drain after it does not count). Both are taken per window of the
/// phase and reported for its quiet windows (`stats::quiet_low`).
fn net_headline(
    open: &net::PhaseReport,
    closed: &net::PhaseReport,
    closed_for: Duration,
) -> Headline {
    let sojourn_ms: Vec<f64> = open
        .stamps
        .iter()
        .filter(|s| s.ok)
        .map(|s| (s.done_ns - s.due_ns) as f64 / 1e6)
        .collect();
    let slice_s = closed_for.as_secs_f64() / WINDOWS as f64;
    Headline {
        throughput_rps: quiet_high(
            closed
                .ok_per_slice
                .iter()
                .map(|&n| n as f64 / slice_s)
                .collect(),
        ),
        latency_p50_ms: quiet_low(
            windows(&sojourn_ms)
                .map(|w| Sample::new(w.to_vec()).p50())
                .collect(),
        ),
    }
}

/// The p50 of the timed calls and the requests per second of a window's
/// median unit of `calls_per_unit` consecutive calls (a closed batch, or
/// a round of waves with its maintenance), per window, reported for the
/// quiet windows.
fn serve_headline(pass: &serve::ServePass, calls_per_unit: usize, per_call: usize) -> Headline {
    let units: Vec<u64> = pass
        .call_ns
        .chunks_exact(calls_per_unit)
        .map(|c| c.iter().sum())
        .collect();
    let per_unit = (calls_per_unit * per_call) as f64;
    Headline {
        throughput_rps: quiet_high(
            windows(&units)
                .map(|w| per_unit / (Sample::from_ns(w).p50() / 1e9))
                .collect(),
        ),
        latency_p50_ms: quiet_low(
            windows(&pass.call_ns)
                .map(|w| Sample::from_ns(w).p50() / 1e6)
                .collect(),
        ),
    }
}

fn overhead(out: &mut Outcome, plain: Headline, traced: Headline) {
    out.metrics.set(
        "trace.throughput_overhead_pct",
        100.0 * (plain.throughput_rps - traced.throughput_rps) / plain.throughput_rps,
    );
    out.metrics.set(
        "trace.latency_p50_overhead_pct",
        100.0 * (traced.latency_p50_ms - plain.latency_p50_ms) / plain.latency_p50_ms,
    );
}

fn set_setup_layers(m: &mut Metrics, s: &SetupTimes) {
    m.set("ann.train_ms", s.train_ms);
    m.set("bitcell.characterize_ms", s.characterize_ms);
    m.set("gen.tenant_ms", s.tenant_ms);
    m.set("array.load_ms", s.load_ms);
    m.set(
        "array.load_mwords_per_s",
        s.load_words as f64 / (s.load_ms / 1e3) / 1e6,
    );
    m.set("serve.boot_bist_ms", s.bist_ms);
}

/// Zeroes the still-unset metrics of a layer the workload does not
/// exercise.
fn zero(m: &mut Metrics, prefix: &str) {
    for &(name, _) in PER_LAYER {
        if name.starts_with(prefix) && m.get(name).is_none() {
            m.set(name, 0.0);
        }
    }
}

fn run_net(fx: &NetFixture, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let workers = nproc();
    let running = match server::spawn(
        Arc::clone(&fx.registry),
        NetServerOptions {
            workers,
            // Far above the 2 × 32 closed-loop window and the open-loop
            // backlog, so a scheduler hiccup never sheds or degrades.
            global_inflight: 1024,
            soft_inflight: 768,
            per_conn_inflight: 512,
            ..NetServerOptions::default()
        },
    ) {
        Ok(r) => r,
        Err(e) => {
            out.invalid.push(format!("bind failed: {e}"));
            return out;
        }
    };
    let addr = running.addr();
    let passes: Vec<(bool, f64)> = if args.trace {
        vec![
            (false, args.seconds as f64 / 2.0),
            (true, args.seconds as f64 / 2.0),
        ]
    } else {
        vec![(false, args.seconds as f64)]
    };
    let tenants = &fx.tenants;
    let mut next_id = 0u64;
    let mut phases = Vec::new();
    let mut heads = Vec::new();
    for (p, &(traced, secs)) in passes.iter().enumerate() {
        let requests = (net::OPEN_RATE * OPEN_SHARE * secs).round() as usize;
        let schedule = net::open_schedule(derive_seed(args.seed, p as u64), requests.max(1));
        let open = net::run_phase(
            addr,
            args.seed,
            tenants,
            next_id,
            net::Pacing::Open(&schedule),
        );
        let open = match open {
            Ok(r) => r,
            Err(e) => {
                out.invalid.push(format!("client connect failed: {e}"));
                break;
            }
        };
        next_id += open.sent;
        let closed_for = Duration::from_secs_f64(secs * (1.0 - OPEN_SHARE));
        let closed = net::run_phase(
            addr,
            args.seed,
            tenants,
            next_id,
            net::Pacing::Closed(closed_for),
        );
        let closed = match closed {
            Ok(r) => r,
            Err(e) => {
                out.invalid.push(format!("client connect failed: {e}"));
                break;
            }
        };
        next_id += closed.sent;
        heads.push(net_headline(&open, &closed, closed_for));
        phases.push((traced, open, closed));
    }
    let report = running.stop();
    out.metrics.set("peak_rss_mb", peak_rss_mb());
    if !out.invalid.is_empty() {
        return out;
    }

    // Validity and correctness over every phase of every pass.
    let all: Vec<&net::PhaseReport> = phases.iter().flat_map(|(_, a, b)| [a, b]).collect();
    let shed: u64 = all.iter().map(|p| p.shed).sum();
    let errors: u64 = all.iter().map(|p| p.errors).sum();
    out.attempted = all.iter().map(|p| p.sent).sum();
    out.failed = shed + errors;
    if out.failed > 0 || all.iter().any(|p| p.timed_out) || report.shed() > 0 {
        out.invalid.push(format!(
            "requests failed: {shed} shed, {errors} errors, server shed {}",
            report.shed()
        ));
    }
    let degrades: u64 = report.tenants.iter().map(|t| t.degrade_events).sum();
    if degrades > 0 {
        out.invalid.push(format!("{degrades} degrade events"));
    }
    if report.bad_frames > 0 {
        out.wrong.push(format!("{} bad frames", report.bad_frames));
    }
    let digest = all.iter().fold(0u64, |d, p| d.wrapping_add(p.digest));
    if digest != report.digest() {
        out.wrong.push(format!(
            "client digest {digest:016x} != server digest {:016x}",
            report.digest()
        ));
    }
    let checks: Vec<net::Check> = all.iter().flat_map(|p| p.checks.iter().copied()).collect();
    let bad = net::reference_mismatches(&fx.registry, args.seed, tenants, &checks);
    if bad > 0 {
        out.wrong
            .push(format!("{bad} replies differ from ModelRegistry::classify"));
    }

    // The pass whose numbers are reported: the untraced one on a plain
    // run, the traced one on a traced run.
    let (_, open, closed) = phases.last().expect("at least one pass");
    let served = report.served();
    let late: Vec<u64> = open
        .stamps
        .iter()
        .map(|s| s.sent_ns.saturating_sub(s.due_ns))
        .collect();
    let late = Sample::from_ns(&late);
    let late_p99_us = late.p99() / 1e3;
    println!(
        "generator lateness: p50 {:.1} µs, p99 {late_p99_us:.1} µs, max {:.1} µs over {} sends",
        late.p50() / 1e3,
        late.quantile(1.0) / 1e3,
        late.len()
    );
    if late.p50() / 1e3 > LATE_P50_LIMIT_US || late_p99_us > LATE_P99_LIMIT_US {
        out.invalid.push(format!(
            "generator ran late: p50 {:.0} µs, p99 {late_p99_us:.0} µs (limits \
             {LATE_P50_LIMIT_US} / {LATE_P99_LIMIT_US} µs)",
            late.p50() / 1e3
        ));
    }
    let ok: Vec<&net::Stamp> = open.stamps.iter().filter(|s| s.ok).collect();
    let sojourn = Sample::from_ns(&ok.iter().map(|s| s.done_ns - s.due_ns).collect::<Vec<_>>());
    let head = *heads.last().expect("at least one pass");
    let m = &mut out.metrics;
    m.set("throughput_rps", head.throughput_rps);
    m.set("latency_p50_ms", head.latency_p50_ms);
    m.set(
        "served_frac",
        all.iter().map(|p| p.ok).sum::<u64>() as f64 / out.attempted as f64,
    );
    m.set(
        "accuracy",
        all.iter().map(|p| p.correct).sum::<u64>() as f64 / served as f64,
    );
    m.set(
        "energy_nj_per_inf",
        report.tenants.iter().map(|t| t.energy_j).sum::<f64>() / served as f64 * 1e9,
    );
    println!(
        "latency sample: {} requests in the open-loop phase, {} beyond p90, {} beyond p99 \
         ({:.3} ms); throughput sample: {} replies in the closed-loop window, {} checked \
         against the reference",
        sojourn.len(),
        sojourn.len() / 10,
        sojourn.beyond_p99(),
        sojourn.p99() / 1e6,
        closed.ok_in_window,
        checks.len()
    );

    if args.trace {
        overhead(&mut out, heads[0], heads[1]);
        let m = &mut out.metrics;
        let queue = Sample::from_ns(&ok.iter().map(|s| s.queue_ns).collect::<Vec<_>>());
        let service = Sample::from_ns(&ok.iter().map(|s| s.service_ns).collect::<Vec<_>>());
        let residual = Sample::from_ns(
            &ok.iter()
                .map(|s| residual_ns(s.done_ns - s.due_ns, s.queue_ns, s.service_ns))
                .collect::<Vec<_>>(),
        );
        m.set("net.queue_p50_us", queue.p50() / 1e3);
        m.set("net.queue_p99_us", queue.p99() / 1e3);
        m.set("net.service_p50_us", service.p50() / 1e3);
        m.set("net.service_p99_us", service.p99() / 1e3);
        m.set("net.residual_p50_us", residual.p50() / 1e3);
        m.set("net.residual_p99_us", residual.p99() / 1e3);
        m.set("net.residual_share", residual.p50() / sojourn.p50());
        m.set("net.shed", report.shed() as f64);
        m.set("net.errors", errors as f64);
        m.set("net.degrade_events", degrades as f64);
        m.set("client.late_p99_us", late_p99_us);
        m.set("client.latency_p90_ms", sojourn.quantile(0.90) / 1e6);
        m.set("client.latency_p99_ms", sojourn.p99() / 1e6);
        m.set("client.latency_samples", sojourn.len() as f64);

        // Datapath probes on the same store and request stream.
        let reg = &fx.registry;
        for (t, name) in [
            (0usize, "system.classify_us.digits"),
            (1, "system.classify_us.spectra"),
        ] {
            let mut ctx = reg.make_context(t);
            let us = probes::classify_us(&tenants[t].features, |f, id| {
                reg.classify(t, f, id, &mut ctx).0
            });
            m.set(name, us);
        }
        let (ns, faults) = probes::read_row(reg.store(), args.seed);
        m.set("array.read_row_ns_per_word", ns);
        m.set("array.fault_bits_per_kword", faults);
        datapath_probes(m, &fx.digits, &tenants[0].features, fixture::NET_SHARDS);
        set_setup_layers(m, &fx.setup);
        zero(m, "serve.");
    }
    out
}

/// The probes every workload shares: the clean twin's row read and batch
/// path, the NPE, and the wire codec.
fn datapath_probes(
    m: &mut Metrics,
    network: &neural::quant::QuantizedMlp,
    features: &[Vec<f32>],
    shards: usize,
) {
    let clean = probes::clean_system(network, shards);
    m.set(
        "array.read_row_clean_ns_per_word",
        probes::read_row(clean.memory(), 1).0,
    );
    m.set(
        "system.batch_us_per_req",
        probes::batch_us_per_req(&clean, features),
    );
    m.set(
        "system.neuron_ns_per_mac",
        probes::neuron_ns_per_mac(network, &features[0]),
    );
    m.set(
        "net.codec_ns_per_req",
        probes::codec_ns_per_req(&features[0]),
    );
}

fn run_serve(fx: &ServeFixture, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let run = |budget: f64, traced: bool| {
        let budget = Duration::from_secs_f64(budget);
        match fx.kind {
            ServeKind::FaultFree => serve::run_fault_free(fx, args.seed, budget, traced),
            ServeKind::Maintain => serve::run_maintain(fx, args.seed, budget, traced),
        }
    };
    let secs = args.seconds as f64;
    let passes = if args.trace {
        vec![run(secs / 2.0, false), run(secs / 2.0, true)]
    } else {
        vec![run(secs, false)]
    };
    let (calls_per_unit, per_call) = match fx.kind {
        ServeKind::FaultFree => (1, serve::FAULT_FREE_BATCH),
        ServeKind::Maintain => (serve::WAVES_PER_ROUND, serve::WAVE),
    };
    let heads: Vec<Headline> = passes
        .iter()
        .map(|p| serve_headline(p, calls_per_unit, per_call))
        .collect();
    for p in &passes {
        out.attempted += p.requests;
        if p.mismatches > 0 {
            out.wrong.push(format!(
                "{} predictions differ from the sequential reference",
                p.mismatches
            ));
        }
        if fx.kind == ServeKind::FaultFree && !p.fault_free {
            out.wrong.push("store is not read-fault-free".into());
        }
    }
    out.metrics.set("peak_rss_mb", peak_rss_mb());
    let pass = passes.last().expect("at least one pass");
    let head = *heads.last().expect("at least one pass");
    let latency = pass.latency_ms();
    let m = &mut out.metrics;
    m.set("throughput_rps", head.throughput_rps);
    m.set("latency_p50_ms", head.latency_p50_ms);
    m.set(
        "served_frac",
        pass.requests as f64 / (pass.call_ns.len() * per_call) as f64,
    );
    m.set("accuracy", pass.correct as f64 / pass.requests as f64);
    m.set("energy_nj_per_inf", fx.energy.energy.total().joules() * 1e9);
    println!(
        "latency sample: {} timed calls of {per_call} requests, {} beyond p99 ({:.3} ms)",
        latency.len(),
        latency.beyond_p99(),
        latency.p99()
    );

    if args.trace {
        overhead(&mut out, heads[0], heads[1]);
        let m = &mut out.metrics;
        m.set(
            "serve.queue_wait_p50_us",
            pass.queue_wait.p50_ns() as f64 / 1e3,
        );
        m.set("serve.service_p50_us", pass.service.p50_ns() as f64 / 1e3);
        m.set("serve.service_p99_us", pass.service.p99_ns() as f64 / 1e3);
        m.set(
            "serve.words_per_s",
            pass.words_read as f64 / pass.measured_s(),
        );
        m.set(
            "serve.mean_batch",
            pass.requests as f64 / pass.batches as f64,
        );
        if !pass.maintain_ns.is_empty() {
            let maintain = Sample::from_ns(&pass.maintain_ns);
            m.set("serve.maintain_ms_p50", maintain.p50() / 1e6);
            m.set(
                "serve.maintain_share",
                maintain.sum() / 1e9 / pass.measured_s(),
            );
        }
        let c = pass.counters.clone().unwrap_or_default();
        m.set("serve.corrected_bits", c.corrected_bits as f64);
        m.set("serve.uncorrectable_words", c.uncorrectable_words as f64);
        m.set("serve.rows_repaired", c.rows_repaired as f64);
        m.set("serve.governor_boosts", c.governor_boosts as f64);
        let fixes = c.corrected_words + c.uncorrectable_words;
        m.set(
            "serve.scrub_fix_ratio",
            if fixes == 0 {
                0.0
            } else {
                c.corrected_words as f64 / fixes as f64
            },
        );
        m.set("client.late_p99_us", 0.0);
        m.set("client.latency_p90_ms", latency.quantile(0.90));
        m.set("client.latency_p99_ms", latency.p99());
        m.set("client.latency_samples", latency.len() as f64);

        let system = fx.server.system();
        let base = derive_seed(args.seed, 0xBA5E);
        let mut ctx = system.make_context(base, 0);
        let us = probes::classify_us(&fx.test.features, |f, id| {
            ctx.reset(base, id);
            system.classify_request(f, &mut ctx)
        });
        m.set("system.classify_us.digits", us);
        m.set("system.classify_us.spectra", 0.0);
        let (ns, faults) = probes::read_row(system.memory(), args.seed);
        m.set("array.read_row_ns_per_word", ns);
        m.set("array.fault_bits_per_kword", faults);
        if fx.kind == ServeKind::FaultFree && faults != 0.0 {
            out.wrong
                .push(format!("fault-free store injected {faults} bits/kword"));
        }
        let shards = system.memory().shard_count();
        datapath_probes(&mut out.metrics, &fx.network, &fx.test.features, shards);
        set_setup_layers(&mut out.metrics, &fx.setup);
        zero(&mut out.metrics, "net.");
        zero(&mut out.metrics, "serve.");
    }
    out
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    if args.setup_only {
        let fx = Fixture::build(&args.workload, args.seed);
        println!("setup_s={}", fx.setup().total_s);
        return;
    }

    let fx = Fixture::build(&args.workload, args.seed);
    let mut setups = vec![fx.setup().total_s];
    match child_setups(&args) {
        Ok(more) => setups.extend(more),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
    let workers = nproc();
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={} server_io_threads={} \
         server_workers={} client_threads=1 rustc=\"{}\" commit={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        u8::from(args.workload == "net_open_loop"),
        workers,
        env!("PERFBENCH_RUSTC_VERSION"),
        commit(),
    );

    let mut out = match &fx {
        Fixture::Net(f) => run_net(f, &args),
        Fixture::Serve(f) => run_serve(f, &args),
    };
    if !out.invalid.is_empty() {
        for e in &out.invalid {
            eprintln!("perfbench: invalid run: {e}");
        }
        std::process::exit(3);
    }
    out.metrics.set("setup_s", median(&setups));
    println!(
        "setup_s samples (cold processes): {:?}",
        setups.iter().map(|s| format!("{s:.3}")).collect::<Vec<_>>()
    );
    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    for &(name, unit) in declared {
        if let Some(v) = out.metrics.get(name) {
            println!("{name:<36} {v:>16.6} {unit}");
        }
    }
    for e in &out.wrong {
        eprintln!("perfbench: wrong output: {e}");
    }
    let correct = out.wrong.is_empty();
    println!(
        "{}",
        out.metrics
            .result_line(declared, correct, out.attempted.max(1), out.failed)
    );
    if !correct {
        std::process::exit(1);
    }
}
