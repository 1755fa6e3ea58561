//! Load generator for the inference serving layer.
//!
//! ```text
//! cargo run --release -p sram_serve --bin serve_bench -- \
//!     [--requests N] [--threads N] [--batch B] [--seed S] \
//!     [--predictions PATH] [--chaos] [--waves W] [--chaos-seed S]
//! ```
//!
//! Builds the standard serving fixture — a small trained digit classifier
//! stored in the paper's hybrid (3,5) memory at 0.65 V, characterized
//! through the memoized `characterize_paper_cells` cache — then fires
//! `--requests` classifications through the queue → micro-batcher → worker
//! pipeline, then prints its throughput/latency/energy record.
//!
//! `--chaos` switches to the resilience scenario instead: the request
//! stream is split into `--waves` waves and served **three times** over
//! identical fixtures — healthy (no degradation), protected (a seeded
//! [`ChaosSchedule`] degrades one canonical shard mid-load while the
//! resilience loop scrubs and repairs between waves), and unprotected
//! (same degradation, no maintenance). The record carries each scenario's
//! accuracy, tail latency, and digest plus the scrub/repair counters;
//! `cargo xtask chaos-report --gate` turns two thread counts of it into the
//! CI resilience gate.
//!
//! Determinism: predictions depend only on `--seed` (and in chaos mode
//! `--chaos-seed`) and the request index, never on `--threads` or
//! `--batch`. The `serve-load` CI job runs this binary at 1 and 4 workers
//! and fails if the prediction digests differ; the `resilience` job does
//! the same for all three chaos digests.
//!
//! Stdout is one [`Record`] of `key=value` lines (read by `cargo xtask
//! serve-report` / `chaos-report`); progress goes to stderr.
//! `--predictions` writes the raw prediction vector, one class index per
//! line, for byte-level diffing.

use fault_inject::chaos::ChaosSchedule;
use hybrid_sram::config::MemoryConfig;
use hybrid_sram::framework::Framework;
use neural::dataset::Dataset;
use neural::quant::QuantizedMlp;
use neuro_system::controller::NeuromorphicSystem;
use neuro_system::energy::{system_inference_energy, SystemEnergyModel};
use neuro_system::layout;
use neuro_system::npe::{mac_kernel, Npe};
use sram_array::power::PowerConvention;
use sram_bitcell::characterize::CharacterizationOptions;
use sram_device::process::Technology;
use sram_device::units::Volt;
use sram_exec::report::Record;
use sram_exec::Flags;
use sram_serve::fixture::{request_stream, trained_digit_network};
use sram_serve::{
    apply_chaos_event, drowsy_plan, prediction_digest, DrowsyPolicy, InferenceServer,
    LatencyHistogram, ResilienceConfig, ResilienceController, ServeOptions,
};
use std::time::Instant;

struct Args {
    requests: usize,
    max_batch: usize,
    seed: u64,
    predictions: Option<String>,
    chaos: bool,
    waves: usize,
    chaos_seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let raw = sram_exec::strip_threads_flag(std::env::args().skip(1).collect())?;
    let mut args = Args {
        requests: 512,
        max_batch: 16,
        seed: 0xBA7C_4ED0,
        predictions: None,
        chaos: false,
        waves: 4,
        chaos_seed: 0xC4A0_5EED,
    };
    Flags::default()
        .value("--requests", &mut args.requests, |&n| n > 0)
        .value("--batch", &mut args.max_batch, |&n| n > 0)
        .value("--seed", &mut args.seed, |_| true)
        .optional("--predictions", &mut args.predictions, |_| true)
        .switch("--chaos", &mut args.chaos)
        .value("--waves", &mut args.waves, |&n| n > 0)
        .value("--chaos-seed", &mut args.chaos_seed, |_| true)
        .parse(raw)?;
    Ok(args)
}

/// One chaos scenario's merged outcome across all request waves.
struct ScenarioOutcome {
    predictions: Vec<usize>,
    latency: LatencyHistogram,
    accuracy: f64,
    workers: usize,
    shards: usize,
    counters: Option<sram_serve::ResilienceCounters>,
}

/// Serves the request stream in waves over a freshly built fixture:
/// `schedule` events strike at their wave boundaries, and `protected`
/// scenarios run the resilience maintenance window (scrub → repair →
/// governor) before each wave is served. Healthy runs pass no schedule;
/// unprotected runs take the schedule without protection. All three use
/// identical wave splits and per-wave seed streams, so their predictions
/// are comparable request-for-request and deterministic at any worker
/// count.
#[allow(clippy::too_many_arguments)]
fn run_scenario(
    framework: &Framework,
    network: &QuantizedMlp,
    config: &MemoryConfig,
    test_set: &Dataset,
    requests: &[Vec<f32>],
    args: &Args,
    schedule: Option<&ChaosSchedule>,
    protected: bool,
) -> ScenarioOutcome {
    let memory = framework.build_memory(network, config, args.seed);
    let mut system = NeuromorphicSystem::new(network, memory, Npe::new(network.format));
    let controller = protected.then(|| {
        ResilienceController::new(
            system.memory_mut(),
            &layout::flatten(network),
            ResilienceConfig::default(),
        )
    });
    let mut server = InferenceServer::new(
        system,
        ServeOptions {
            workers: 0,
            max_batch: args.max_batch,
            base_seed: args.seed,
        },
    );
    if let Some(controller) = controller {
        server = server.with_resilience(controller);
    }

    let n = requests.len();
    let chunk = n.div_ceil(args.waves).max(1);
    let mut predictions = Vec::with_capacity(n);
    let mut latency = LatencyHistogram::new();
    let mut workers = 0usize;
    for wave in 0..args.waves {
        let lo = (wave * chunk).min(n);
        let hi = ((wave + 1) * chunk).min(n);
        if let Some(schedule) = schedule {
            for event in schedule.events_at(wave) {
                apply_chaos_event(server.system_mut().memory_mut(), event);
            }
        }
        if protected {
            server.maintain();
        }
        if lo == hi {
            continue;
        }
        let report = server.serve_configured(
            &requests[lo..hi],
            &ServeOptions {
                workers: 0,
                max_batch: args.max_batch,
                base_seed: sram_exec::derive_seed(args.seed, wave as u64),
            },
        );
        workers = report.workers;
        predictions.extend_from_slice(&report.predictions);
        latency.merge(&report.latency);
    }
    let correct = predictions
        .iter()
        .enumerate()
        .filter(|&(i, &p)| p == test_set.label(i % test_set.len()))
        .count();
    let accuracy = if n == 0 {
        0.0
    } else {
        correct as f64 / n as f64
    };
    ScenarioOutcome {
        predictions,
        latency,
        accuracy,
        workers,
        shards: server.system().memory().shard_count(),
        counters: server.resilience().map(|r| r.counters()),
    }
}

/// The serving fixture both modes share: characterization through the
/// process-wide memo cache and the paper's hybrid (3,5) layout at an
/// aggressively scaled 0.65 V supply.
fn serving_fixture() -> (Technology, Framework, MemoryConfig) {
    let tech = Technology::ptm_22nm();
    let char_options = CharacterizationOptions {
        vdds: vec![Volt::new(0.95), Volt::new(0.75), Volt::new(0.65)],
        mc_samples: 40,
        ..CharacterizationOptions::quick()
    };
    let framework = Framework::new(&tech, &char_options);
    let config = MemoryConfig::Hybrid {
        msb_8t: 3,
        vdd: Volt::new(0.65),
    };
    (tech, framework, config)
}

/// Writes `predictions` to the `--predictions` file, one class index per
/// line.
fn write_predictions<'p>(path: &str, predictions: impl IntoIterator<Item = &'p usize>) {
    let text: String = predictions.into_iter().map(|p| format!("{p}\n")).collect();
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("could not write predictions {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("predictions written to {path}");
}

/// The `--chaos` mode: healthy / protected / unprotected runs over the
/// degraded-shard schedule, compared side by side.
fn run_chaos(args: &Args) {
    eprintln!("== serve_bench --chaos — degraded-shard resilience scenario ==");
    let t0 = Instant::now();
    let (_, framework, config) = serving_fixture();
    let (network, test_set) = trained_digit_network();
    let requests = request_stream(&test_set, args.requests);
    let total_words: usize = layout::bank_words(&network).iter().sum();
    // Canonical 4-way partition, 16 stuck rows: the schedule names global
    // addresses only, so it is identical however the store is sharded.
    let probe = framework.build_memory(&network, &config, args.seed);
    let schedule = ChaosSchedule::degraded_shard(
        args.chaos_seed,
        total_words,
        4,
        args.waves,
        probe.words_per_row(),
        16,
    );
    eprintln!(
        "fixture ready in {:.1} s — {} requests over {} waves, {} chaos events, config {}",
        t0.elapsed().as_secs_f64(),
        args.requests,
        args.waves,
        schedule.events.len(),
        config,
    );

    let scenario = |schedule, protected| {
        run_scenario(
            &framework, &network, &config, &test_set, &requests, args, schedule, protected,
        )
    };
    let healthy = scenario(None, false);
    let protected = scenario(Some(&schedule), true);
    let unprotected = scenario(Some(&schedule), false);

    let c = protected
        .counters
        .clone()
        .expect("protected scenario carries counters");
    let mut record = Record::default();
    record
        .put("mode", "chaos")
        .put("workers", healthy.workers)
        .put("requests", args.requests)
        .put("waves", args.waves)
        .put("shards", healthy.shards);
    let scenarios = [
        ("healthy", &healthy),
        ("protected", &protected),
        ("unprotected", &unprotected),
    ];
    for (name, s) in scenarios {
        let digest = prediction_digest(&s.predictions);
        record
            .put(format!("{name}_accuracy"), format!("{:.6}", s.accuracy))
            .put(format!("{name}_p99_ns"), s.latency.p99_ns())
            .put(format!("{name}_digest"), format!("{digest:016x}"));
    }
    record
        .put("bist_weak_words", c.bist_weak_words)
        .put("bist_weak_bits", c.bist_weak_bits)
        .put("bist_digest", format!("{:016x}", c.bist_digest))
        .put("scrub_sweeps", c.scrub_sweeps)
        .put("corrected_words", c.corrected_words)
        .put("corrected_bits", c.corrected_bits)
        .put("uncorrectable_words", c.uncorrectable_words)
        .put("rows_repaired", c.rows_repaired)
        .put("spare_rows_free", c.spare_rows_free)
        .put("governor_boosts", c.governor_boosts);
    print!("{record}");
    if let Some(path) = &args.predictions {
        write_predictions(path, scenarios.iter().flat_map(|(_, s)| &s.predictions));
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!(
            "usage: serve_bench [--requests N] [--threads N] [--batch B] [--seed S] \
             [--predictions PATH] [--chaos] [--waves W] [--chaos-seed S]"
        );
        std::process::exit(2);
    });
    if args.chaos {
        run_chaos(&args);
        return;
    }

    eprintln!("== serve_bench — batched inference over the hybrid 8T-6T memory ==");
    let t0 = Instant::now();
    let (tech, framework, config) = serving_fixture();
    let (network, test_set) = trained_digit_network();

    let memory = framework.build_memory(&network, &config, args.seed);
    let system = NeuromorphicSystem::new(&network, memory, Npe::new(network.format));
    let power = framework.power_report(&network, &config, PowerConvention::IsoThroughput);
    let energy = system_inference_energy(
        &power,
        system.macs_per_inference(),
        &SystemEnergyModel::default(),
        config.vdd(),
    );
    let plan = drowsy_plan(&tech, &network, &config, &DrowsyPolicy::default());

    let server = InferenceServer::new(
        system,
        ServeOptions {
            workers: 0, // --threads / SRAM_REPRO_THREADS / autodetect
            max_batch: args.max_batch,
            base_seed: args.seed,
        },
    )
    .with_energy(energy)
    .with_drowsy(plan, power.leakage_power);

    // The request stream: test images cycled to the requested length.
    let requests = request_stream(&test_set, args.requests);
    eprintln!(
        "fixture ready in {:.1} s — {} requests, {} workers, batch ≤ {}, config {}",
        t0.elapsed().as_secs_f64(),
        args.requests,
        server.workers(),
        args.max_batch,
        config,
    );

    let report = server.serve(&requests);

    let energy_per_inf = report
        .energy_per_inference
        .as_ref()
        .map(|e| e.energy.total().joules())
        .unwrap_or(0.0);
    let standby = report.standby_leakage.map(|w| w.watts()).unwrap_or(0.0);
    let mut record = Record::default();
    record
        .put("workers", report.workers)
        .put("requests", report.requests())
        .put("wall_ns", report.wall.as_nanos())
        .put("throughput_rps", format!("{:.3}", report.throughput_rps()))
        .put("words_per_sec", format!("{:.3}", report.words_per_sec()))
        .put("p50_ns", report.latency.p50_ns())
        .put("p99_ns", report.latency.p99_ns())
        .put("queue_p50_ns", report.queue_wait.p50_ns())
        .put("queue_p99_ns", report.queue_wait.p99_ns())
        .put("service_p50_ns", report.service.p50_ns())
        .put("service_p99_ns", report.service.p99_ns())
        .put("energy_per_inference_j", format!("{energy_per_inf:.6e}"))
        .put("standby_leakage_w", format!("{standby:.6e}"))
        .put("fault_bits", report.fault_bits)
        .put("words_read", report.words_read)
        .put(
            "observed_ber",
            format!("{:.6e}", report.observed_bit_error_rate()),
        )
        .put("batches", report.batches)
        .put("max_batch_observed", report.max_batch_observed)
        .put("shards", server.system().memory().shard_count())
        .put("digest", format!("{:016x}", report.digest()))
        .put("mac_kernel", mac_kernel());
    // Per-shard drowsy accounting: shards the request stream touched stay
    // at the serving supply, idle shards retain at their own DRV-derived
    // voltages.
    if let Some(plan) = server.drowsy_plan() {
        let retention = plan.shard_retention(server.system().memory());
        let awake: Vec<bool> = report.shard_reads.iter().map(|&r| r > 0).collect();
        let scale = plan.partial_standby_scale(&retention, &awake);
        let watts = power.leakage_power.watts() * scale;
        record.put("hot_shard_standby_w", format!("{watts:.6e}"));
    }
    print!("{record}");
    if let Some(path) = &args.predictions {
        write_predictions(path, &report.predictions);
    }
}
