//! Scale workload: a synthetic **million-synapse** MLP through the sharded
//! synaptic store.
//!
//! ```text
//! cargo run --release -p sram_serve --bin scale_bench -- \
//!     [--shards LIST] [--serve N] [--threads N] [--seed S]
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
//! Stdout is one [`Record`] of `key=value` lines, the timings and digest
//! of each shard count under keys suffixed `_{shards}`; progress goes to
//! stderr.
//!
//! The digests must match across shard counts — the sharded store is
//! bit-identical at every shard count, so sharding is a pure throughput
//! knob. `cargo xtask scale-report` runs this binary, renders the scaling
//! table from its record, and (with `--gate`) fails on digest divergence
//! or on the largest shard count loading meaningfully slower than one shard;
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
use sram_exec::report::Record;
use sram_exec::Flags;
use sram_serve::fixture::{million_synapse_network, scale_memory};
use sram_serve::{byte_digest, InferenceServer, ServeOptions};
use std::time::Instant;

struct Args {
    shards: Vec<usize>,
    serve: usize,
    seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let raw = sram_exec::strip_threads_flag(std::env::args().skip(1).collect())?;
    let (mut shard_list, mut serve, mut seed) = (String::from("1,2,4"), 4, 0x5CA1_EB01);
    Flags::default()
        .value("--shards", &mut shard_list, |_| true)
        .value("--serve", &mut serve, |_| true)
        .value("--seed", &mut seed, |_| true)
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
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!("usage: scale_bench [--shards LIST] [--serve N] [--threads N] [--seed S]");
        std::process::exit(2);
    });

    eprintln!("== scale_bench — million-synapse sharded synaptic store ==");
    let network = million_synapse_network();
    let image = layout::flatten(&network);
    let shard_counts: Vec<String> = args.shards.iter().map(usize::to_string).collect();
    let mut record = Record::default();
    record
        .put("words", image.len())
        .put("threads", sram_exec::effective_threads())
        .put("shard_counts", shard_counts.join(","));
    for &shards in &args.shards {
        eprintln!("{shards} shard(s)...");
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

        record
            .put(format!("load_ns_{shards}"), load_ns)
            .put(format!("bulk_ns_{shards}"), bulk_ns)
            .put(format!("snapshot_ns_{shards}"), snapshot_ns)
            .put(format!("digest_{shards}"), format!("{digest:016x}"))
            .put(format!("fault_bits_{shards}"), fault_bits);
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
        record
            .put("serve_requests", report.requests())
            .put("serve_ns", t.elapsed().as_nanos())
            .put("serve_digest", format!("{:016x}", report.digest()));
    }
    print!("{record}");
}
