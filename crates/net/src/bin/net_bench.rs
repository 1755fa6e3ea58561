//! Open-loop load generator for the network serving tier.
//!
//! ```text
//! cargo run --release -p sram_net --bin net_bench -- \
//!     [--tenants N] [--requests N] [--rate R] [--connections C] \
//!     [--threads W] [--seed S] [--shards S] \
//!     [--global-inflight N] [--soft-inflight N] [--per-conn-inflight N]
//! ```
//!
//! Builds up to three resident tenants — the trained digit classifier,
//! the trained spectra classifier, and the untrained million-synapse
//! network — over one shared sharded store, each under its own
//! significance/voltage policy, spawns the evented TCP server on a
//! loopback port, and drives it with the open-loop generator: `--rate`
//! requests/second of seeded Poisson-ish arrivals (`--rate 0` = burst,
//! the overload probe) spread over `--connections` sockets. Stdout is one
//! [`Record`] of `key=value` lines (read by `cargo xtask net-report`);
//! progress goes to stderr.
//!
//! Determinism: the request stream is a pure function of `--seed`,
//! `--requests`, `--rate`, and `--tenants`; predictions and fault
//! accounting are pure functions of `(seed, tenant, request_id)`. The
//! `net-load` CI job runs this binary twice at different `--connections`
//! and fails when the response digests diverge.
//!
//! The digits and spectra tenants are built from the committed generator
//! specs (`crates/gen/specs/*.toml`) via [`TenantSpec::from_generated`]:
//! policy, serving voltage, characterized bit-error rates, and drowsy
//! scale all come from the spec file. The million-synapse tenant keeps
//! hand-set Fig.5-ballpark rates (its geometry has no committed spec).
//! Energy figures use a behavioral per-tenant model (MAC + read energy
//! scaled by the tenant's serving Vdd squared) so the bench stays fast;
//! the characterized path lives in `serve_bench`/the framework.

use fault_inject::model::{BitErrorRates, WORD_BITS};
use fault_inject::protection::ProtectionPolicy;
use neural::dataset::{spectra, Dataset};
use neural::network::Mlp;
use neural::quant::{Encoding, QuantizedMlp};
use neural::train::{train, TrainOptions};
use neuro_system::npe::mac_kernel;
use sram_exec::report::Record;
use sram_exec::Flags;
use sram_net::loadgen::{self, LoadOptions, TenantStream};
use sram_net::registry::{ModelRegistry, TenantSpec};
use sram_net::server::{self, NetServerOptions, TenantReport};
use sram_serve::fixture::{million_synapse_network, trained_digit_network};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    tenants: usize,
    requests: usize,
    rate: f64,
    connections: usize,
    seed: u64,
    shards: usize,
    global_inflight: usize,
    soft_inflight: usize,
    per_conn_inflight: usize,
}

fn parse_args() -> Result<Args, String> {
    let raw = sram_exec::strip_threads_flag(std::env::args().skip(1).collect())?;
    let mut args = Args {
        tenants: 2,
        requests: 256,
        rate: 500.0,
        connections: 2,
        seed: 0x0E7B_E2C4,
        shards: 4,
        global_inflight: 256,
        soft_inflight: 0,
        per_conn_inflight: 0,
    };
    Flags::default()
        .value("--tenants", &mut args.tenants, |n| (1..=3).contains(n))
        .value("--requests", &mut args.requests, |&n| n > 0)
        .value("--rate", &mut args.rate, |&r| r.is_finite() && r >= 0.0)
        .value("--connections", &mut args.connections, |&n| n > 0)
        .value("--seed", &mut args.seed, |_| true)
        .value("--shards", &mut args.shards, |&n| n > 0)
        .value("--global-inflight", &mut args.global_inflight, |&n| n > 0)
        .value("--soft-inflight", &mut args.soft_inflight, |_| true)
        .value("--per-conn-inflight", &mut args.per_conn_inflight, |_| true)
        .parse(raw)?;
    if args.soft_inflight == 0 {
        args.soft_inflight = args.global_inflight * 3 / 4;
    }
    if args.per_conn_inflight == 0 {
        args.per_conn_inflight = args.global_inflight;
    }
    Ok(args)
}

/// Monte-Carlo depth for the spec-characterized tenants: enough for
/// stable Fig.5-band rates, small enough that bench startup stays quick
/// (the tables are memoized process-wide anyway).
const TENANT_MC_SAMPLES: usize = 96;

/// Builds a tenant from a committed generator spec plus its trained
/// network — the one-line-spec path the generated design space uses.
fn generated_tenant(toml: &str, network: QuantizedMlp) -> TenantSpec {
    let spec = sram_gen::spec::SramSpec::from_toml_str(toml).expect("committed spec parses");
    let cfg = sram_gen::characterize::CharacterizeConfig {
        mc_samples: TENANT_MC_SAMPLES,
    };
    TenantSpec::from_generated(&spec, network, &cfg).expect("committed spec matches its network")
}

/// A tenant's serving contract with hand-set Fig.5-ballpark rates — kept
/// for the million-synapse tenant, whose geometry has no committed spec.
fn tenant_spec(
    name: &str,
    network: QuantizedMlp,
    msb_8t: usize,
    vdd: f64,
    read_6t: f64,
    drowsy_scale: f64,
) -> TenantSpec {
    let energy = sram_net::registry::behavioral_energy_j(&network, vdd);
    TenantSpec {
        name: name.to_string(),
        network,
        policy: ProtectionPolicy::MsbProtected { msb_8t },
        rates: BitErrorRates {
            read_6t,
            write_6t: read_6t / 5.0,
            read_8t: 0.0,
            write_8t: 0.0,
        },
        vdd,
        energy_per_inference_j: energy,
        drowsy_scale,
    }
}

fn trained_spectra_network() -> (QuantizedMlp, Dataset) {
    let data = spectra::generate_default(700, 0x59EC);
    let (train_set, test_set) = data.split(0.8, 4);
    let mut mlp = Mlp::new(&[spectra::SPECTRUM_BINS, 32, 16, spectra::NUM_CLASSES], 2);
    train(
        &mut mlp,
        &train_set,
        &TrainOptions {
            epochs: 8,
            ..TrainOptions::default()
        },
    );
    (
        QuantizedMlp::from_mlp(&mlp, Encoding::TwosComplement),
        test_set,
    )
}

/// Deterministic pseudo-features for the untrained million-synapse
/// tenant (what it classifies is irrelevant; that it is deterministic is
/// not).
fn synthetic_features(width: usize, variant: usize) -> Vec<f32> {
    (0..width)
        .map(|j| ((variant * 31 + j * 7) % 97) as f32 / 97.0)
        .collect()
}

/// Distinct feature vectors each tenant cycles through (bounds client
/// memory while keeping the stream varied).
const FEATURE_VARIANTS: usize = 64;

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("net_bench: {e}");
            std::process::exit(2);
        }
    };

    let t0 = Instant::now();
    let mut specs = Vec::new();
    let mut streams = Vec::new();
    // Tenant 0 — digits: aggressive voltage scaling, 3 MSBs protected.
    let (digits_q, digits_test) = trained_digit_network();
    streams.push(TenantStream {
        tenant: 0,
        features: (0..FEATURE_VARIANTS.min(digits_test.len()))
            .map(|i| digits_test.image(i).to_vec())
            .collect(),
    });
    specs.push(generated_tenant(
        include_str!("../../../gen/specs/digits.toml"),
        digits_q,
    ));
    // Tenant 1 — spectra: one more protected bit, milder voltage.
    if args.tenants >= 2 {
        let (spectra_q, spectra_test) = trained_spectra_network();
        streams.push(TenantStream {
            tenant: 1,
            features: (0..FEATURE_VARIANTS.min(spectra_test.len()))
                .map(|i| spectra_test.image(i).to_vec())
                .collect(),
        });
        specs.push(generated_tenant(
            include_str!("../../../gen/specs/spectra.toml"),
            spectra_q,
        ));
    }
    // Tenant 2 — million-synapse: near-nominal supply, cheap protection.
    if args.tenants >= 3 {
        let million_q = million_synapse_network();
        let width = million_q.layers[0].inputs;
        streams.push(TenantStream {
            tenant: 2,
            features: (0..FEATURE_VARIANTS)
                .map(|i| synthetic_features(width, i))
                .collect(),
        });
        specs.push(tenant_spec("million", million_q, 2, 0.90, 1e-5, 0.70));
    }

    let registry = Arc::new(ModelRegistry::new(specs, args.seed, args.shards));
    let server_options = NetServerOptions {
        global_inflight: args.global_inflight,
        soft_inflight: args.soft_inflight,
        per_conn_inflight: args.per_conn_inflight,
        ..NetServerOptions::default()
    };
    let running = match server::spawn(Arc::clone(&registry), server_options) {
        Ok(running) => running,
        Err(e) => {
            eprintln!("net_bench: bind failed: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "fixture ready in {:.1} s — {} tenants ({} total words, {} shards), serving on {}",
        t0.elapsed().as_secs_f64(),
        registry.len(),
        registry.store().map().total_words(),
        args.shards,
        running.addr(),
    );

    let load_options = LoadOptions {
        rate: args.rate,
        requests: args.requests,
        connections: args.connections,
        seed: args.seed ^ 0xA441_1A1D,
        drain_timeout: Duration::from_secs(30),
    };
    let load = match loadgen::run(running.addr(), &streams, &load_options) {
        Ok(load) => load,
        Err(e) => {
            eprintln!("net_bench: load generator failed: {e}");
            std::process::exit(1);
        }
    };
    let report = running.stop();

    let total = |field: fn(&TenantReport) -> u64| -> u64 { report.tenants.iter().map(field).sum() };
    let server_fault_bits = total(|t| t.fault_bits);
    let words_read = total(|t| t.words_read);
    let energy_j: f64 = report.tenants.iter().map(|t| t.energy_j).sum();
    let observed_ber = if words_read > 0 {
        server_fault_bits as f64 / (words_read * WORD_BITS as u64) as f64
    } else {
        0.0
    };
    let mut record = Record::default();
    record
        .put("rate", format!("{:.3}", args.rate))
        .put("requests", args.requests)
        .put("connections", args.connections)
        .put("tenants", registry.len())
        .put("seed", args.seed)
        .put("sent", load.sent)
        .put("ok", load.ok)
        .put("shed", load.shed)
        .put("errors", load.errors)
        .put("timed_out", load.timed_out)
        .put("throughput_rps", format!("{:.3}", load.throughput_rps()))
        .put("sojourn_p50_ns", load.sojourn.p50_ns())
        .put("sojourn_p99_ns", load.sojourn.p99_ns())
        .put("queue_p50_ns", load.queue.p50_ns())
        .put("queue_p99_ns", load.queue.p99_ns())
        .put("service_p50_ns", load.service.p50_ns())
        .put("service_p99_ns", load.service.p99_ns())
        .put("residual_p50_ns", load.residual.p50_ns())
        .put("residual_p99_ns", load.residual.p99_ns())
        .put("digest", format!("{:016x}", load.digest))
        .put("server_digest", format!("{:016x}", report.digest()))
        .put("server_served", report.served())
        .put("server_shed", report.shed())
        .put("mean_batch", format!("{:.3}", report.mean_batch()))
        .put("bad_frames", report.bad_frames)
        .put("pings", report.pings)
        .put("conns_accepted", report.conns_accepted)
        .put("conns_dropped", report.conns_dropped)
        .put("fault_bits", server_fault_bits)
        .put("words_read", words_read)
        .put("observed_ber", format!("{observed_ber:.6e}"))
        .put("energy_j", format!("{energy_j:.6e}"))
        .put("degrade_events", total(|t| t.degrade_events))
        .put("drowsy_served", total(|t| t.drowsy_served))
        .put("wall_ns", load.wall.as_nanos())
        .put("mac_kernel", mac_kernel());
    for (i, tenant) in report.tenants.iter().enumerate() {
        record
            .put(format!("tenant{i}_name"), &tenant.name)
            .put(format!("tenant{i}_served"), tenant.served)
            .put(
                format!("tenant{i}_mean_batch"),
                format!("{:.3}", tenant.mean_batch()),
            )
            .put(format!("tenant{i}_shed"), tenant.shed)
            .put(format!("tenant{i}_drowsy_served"), tenant.drowsy_served)
            .put(format!("tenant{i}_degrade_events"), tenant.degrade_events)
            .put(format!("tenant{i}_queue_p99_ns"), tenant.queue.p99_ns())
            .put(format!("tenant{i}_service_p99_ns"), tenant.service.p99_ns())
            .put(
                format!("tenant{i}_ber"),
                format!("{:.6e}", tenant.observed_bit_error_rate()),
            )
            .put(
                format!("tenant{i}_energy_j"),
                format!("{:.6e}", tenant.energy_j),
            )
            .put(
                format!("tenant{i}_digest"),
                format!("{:016x}", tenant.digest),
            );
    }
    print!("{record}");
    if load.timed_out {
        eprintln!("net_bench: drain timeout fired — server could not keep up");
        std::process::exit(1);
    }
}
