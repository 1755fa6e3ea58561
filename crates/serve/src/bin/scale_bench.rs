//! Scale workload: a synthetic **million-synapse** MLP through the sharded
//! synaptic store.
//!
//! ```text
//! cargo run --release -p sram_serve --bin scale_bench -- \
//!     [--shards LIST] [--serve N] [--threads N] [--seed S] [--report PATH]
//! ```
//!
//! The paper's network holds ~25k synapses; the ROADMAP's north star is a
//! store that scales orders of magnitude past that. This binary builds the
//! 784-1200-64-10 scale fixture (~1.02 M synaptic words), then for every
//! shard count in `--shards` (default `1,2,4`):
//!
//! * times the bulk **load** through the faulty write path (fans out per
//!   shard on the exec pool),
//! * times a full **bulk read** sweep through the faulty read path (fans
//!   out per bank),
//! * times a **snapshot** corruption pass (fans out per bank),
//! * digests the stored image, the bulk read-out, and the snapshot.
//!
//! The digests must match across shard counts — the sharded store is
//! bit-identical at every shard count, so sharding is a pure throughput
//! knob. `cargo xtask scale-report` runs this binary, renders
//! the scaling table, and (with `--gate`) fails on digest divergence or on
//! the largest shard count loading meaningfully slower than one shard;
//! multi-core CI additionally demands a real speedup (`--min-speedup`).
//!
//! With `--serve N` (default 4) the run finishes by serving N requests
//! through an `InferenceServer` on the million-synapse system at the
//! largest shard count — end-to-end proof that serving works at scale.

use neuro_system::controller::NeuromorphicSystem;
use neuro_system::layout;
use neuro_system::npe::Npe;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sram_exec::Flags;
use sram_serve::fixture::{million_synapse_network, scale_memory};
use sram_serve::{byte_digest, InferenceServer, ServeOptions};
use std::time::Instant;

struct Args {
    shards: Vec<usize>,
    serve: usize,
    seed: u64,
    report: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let raw = sram_exec::strip_threads_flag(std::env::args().skip(1).collect())?;
    let (mut shard_list, mut serve, mut seed, mut report) =
        (String::from("1,2,4"), 4, 0x5CA1_EB01, None);
    Flags::default()
        .value("--shards", &mut shard_list, |_| true)
        .value("--serve", &mut serve, |_| true)
        .value("--seed", &mut seed, |_| true)
        .optional("--report", &mut report, |_| true)
        .parse(raw)?;
    let shards = shard_list
        .split(',')
        .map(|s| s.trim().parse::<usize>())
        .collect::<Result<Vec<_>, _>>()
        .map_err(|_| "invalid --shards list (e.g. 1,2,4)".to_string())?;
    if shards.contains(&0) {
        return Err("--shards needs positive counts".into());
    }
    Ok(Args {
        shards,
        serve,
        seed,
        report,
    })
}

fn format_ms(ns: u128) -> String {
    format!("{:.1} ms", ns as f64 / 1e6)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!(
            "usage: scale_bench [--shards LIST] [--serve N] [--threads N] [--seed S] \
             [--report PATH]"
        );
        std::process::exit(2);
    });

    println!("== scale_bench — million-synapse sharded synaptic store ==");
    let network = million_synapse_network();
    let image = layout::flatten(&network);
    let words = image.len();
    println!(
        "fixture: 784-1200-64-10 MLP, {words} synaptic words, {} workers\n",
        sram_exec::effective_threads()
    );

    let mut kv = String::new();
    kv.push_str(&format!("words={words}\n"));
    kv.push_str(&format!(
        "threads={}\nshard_counts={}\n",
        sram_exec::effective_threads(),
        args.shards
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join(",")
    ));

    println!(
        "{:<8} {:>12} {:>12} {:>12}  digest",
        "shards", "load", "bulk read", "snapshot"
    );
    for &shards in &args.shards {
        let mut memory = scale_memory(&network, args.seed, shards);
        let t = Instant::now();
        memory.load(&image);
        let load_ns = t.elapsed().as_nanos();

        let t = Instant::now();
        let (bulk, fault_bits) = memory.read_bulk(args.seed ^ 0xB17);
        let bulk_ns = t.elapsed().as_nanos();

        let t = Instant::now();
        let (snapshot, stats) = memory.corrupt_snapshot(args.seed ^ 0x5A9);
        let snapshot_ns = t.elapsed().as_nanos();

        // One digest over everything observable: stored image, faulty
        // bulk read-out, snapshot corruption, fault accounting.
        let mut combined = memory.raw_image();
        combined.extend_from_slice(&bulk);
        combined.extend_from_slice(&snapshot);
        combined.extend_from_slice(&fault_bits.to_le_bytes());
        combined.extend_from_slice(&(stats.total() as u64).to_le_bytes());
        let digest = byte_digest(&combined);

        println!(
            "{shards:<8} {:>12} {:>12} {:>12}  {digest:016x}",
            format_ms(load_ns),
            format_ms(bulk_ns),
            format_ms(snapshot_ns),
        );
        kv.push_str(&format!(
            "load_ns_{shards}={load_ns}\nbulk_ns_{shards}={bulk_ns}\n\
             snapshot_ns_{shards}={snapshot_ns}\ndigest_{shards}={digest:016x}\n\
             fault_bits_{shards}={fault_bits}\n"
        ));
    }

    if args.serve > 0 {
        let &max_shards = args.shards.iter().max().expect("non-empty shard list");
        let memory = scale_memory(&network, args.seed, max_shards);
        let system = NeuromorphicSystem::new(&network, memory, Npe::new(network.format));
        let mut rng = StdRng::seed_from_u64(args.seed);
        let requests: Vec<Vec<f32>> = (0..args.serve)
            .map(|_| (0..784).map(|_| rng.gen::<f32>()).collect())
            .collect();
        let server = InferenceServer::new(system, ServeOptions::default());
        let t = Instant::now();
        let report = server.serve(&requests);
        let serve_ns = t.elapsed().as_nanos();
        println!(
            "\nserved {} requests through the {max_shards}-shard million-synapse system \
             in {} ({:.1} ms/inference, digest {:016x})",
            report.requests(),
            format_ms(serve_ns),
            serve_ns as f64 / 1e6 / report.requests().max(1) as f64,
            report.digest()
        );
        kv.push_str(&format!(
            "serve_requests={}\nserve_ns={serve_ns}\nserve_digest={:016x}\n",
            report.requests(),
            report.digest()
        ));
    }

    if let Some(path) = &args.report {
        if let Err(e) = std::fs::write(path, &kv) {
            eprintln!("could not write report {path}: {e}");
            std::process::exit(1);
        }
        println!("report written to {path}");
    }
}
