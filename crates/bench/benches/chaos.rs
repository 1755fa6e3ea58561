//! Resilience-path bench: `chaos/scrub_sweep` is one full ECC scrubber
//! sweep over a corrupted store, the between-batches maintenance quantum.
//! It lands in `BENCH.json` and is tier-tracked by `cargo xtask
//! bench-diff`. Serving over a degraded, repaired store is measured end to
//! end by `perfbench`'s `serve_maintain` workload.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fault_inject::model::WordFailureModel;
use fault_inject::protection::ProtectionPolicy;
use sram_array::organization::{SubArrayDims, SynapticMemoryMap};
use sram_array::scrub::{scrub_pass, EccSidecar};
use sram_array::sharded::ShardedMemory;

/// One observe-only scrubber sweep (decode every word, no write-back) over
/// a store carrying single- and double-bit upsets.
fn bench_scrub_sweep(c: &mut Criterion) {
    let n = 20_000usize;
    let map = SynapticMemoryMap::new(&[n], &ProtectionPolicy::Uniform6T, SubArrayDims::PAPER);
    let mut memory = ShardedMemory::new(map, vec![WordFailureModel::ideal()], 11, 4);
    memory.load(&vec![0x5Au8; n]);
    let mut sidecar = EccSidecar::protect(&memory);
    memory.corrupt_stored_range(0, n, 0xDA7A_5EED, 0.005);
    sidecar.corrupt_checks(0, n, 0xC3EC_5EED, 0.005);
    let mut group = c.benchmark_group("chaos");
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("scrub_sweep", |b| {
        b.iter(|| scrub_pass(&mut memory, &mut sidecar, false))
    });
    group.finish();
}

criterion_group!(benches, bench_scrub_sweep);
criterion_main!(benches);
