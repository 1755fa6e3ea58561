//! Inference-path bench: one classification through the batch datapath,
//! as a one-request batch, on the serving fixture `serve_bench` uses.
//! Serving throughput and multi-request batches are measured end to end by
//! `perfbench` (`serve_fault_free`, `serve_maintain`) under a paired
//! protocol.

use criterion::{criterion_group, criterion_main, Criterion};
use fault_inject::model::{BitErrorRates, WordFailureModel};
use fault_inject::protection::ProtectionPolicy;
use neuro_system::controller::NeuromorphicSystem;
use neuro_system::layout;
use neuro_system::npe::Npe;
use sram_array::organization::{SubArrayDims, SynapticMemoryMap};
use sram_array::sharded::ShardedMemory;
use sram_serve::fixture::trained_digit_network;

const BASE_SEED: u64 = 0xBE7C_4ED0;

/// The digits network on a write- and read-faulting hybrid (3,5) store.
fn build_system() -> (NeuromorphicSystem, Vec<f32>) {
    let (q, test_set) = trained_digit_network();
    let words = layout::bank_words(&q);
    let policy = ProtectionPolicy::MsbProtected { msb_8t: 3 };
    let map = SynapticMemoryMap::new(&words, &policy, SubArrayDims::PAPER);
    let rates = BitErrorRates {
        read_6t: 0.02,
        write_6t: 0.002,
        read_8t: 0.0,
        write_8t: 0.0,
    };
    let models: Vec<WordFailureModel> = (0..words.len())
        .map(|b| WordFailureModel::new(&rates, &policy.assignment(b)))
        .collect();
    let memory = ShardedMemory::new(map, models, 29, 2);
    let system = NeuromorphicSystem::new(&q, memory, Npe::new(q.format));
    (system, test_set.image(0).to_vec())
}

/// One end-to-end classification as a one-request `classify_batch` (one
/// bank fetch, the scalar span fault sampler, then the SIMD MAC on the
/// request's faulted image), warm context, faulting memory. The ledger key
/// keeps its historical name.
fn bench_infer(c: &mut Criterion) {
    let (system, features) = build_system();
    let mut ctx = system.make_context(BASE_SEED, 0);
    let mut group = c.benchmark_group("infer");
    group.bench_function("forward_row_path", |b| {
        b.iter(|| {
            ctx.reset(BASE_SEED, 7);
            system.classify_request(&features, &mut ctx)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_infer);
criterion_main!(benches);
