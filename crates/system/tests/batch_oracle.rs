//! The controller's batch datapath against the naive word-at-a-time
//! reference in [`oracle`]: random networks on random stores, served in
//! micro-batches of random sizes, must give every request the reference's
//! prediction, fault bits and read count, and bill every shard the
//! reference's reads.

mod oracle;

use fault_inject::model::{BitErrorRates, WordFailureModel};
use fault_inject::protection::ProtectionPolicy;
use neural::network::Mlp;
use neural::quant::{Encoding, QuantizedMlp};
use neuro_system::controller::{InferContext, NeuromorphicSystem};
use neuro_system::layout;
use neuro_system::npe::Npe;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sram_array::organization::{SubArrayDims, SynapticMemoryMap};
use sram_array::sharded::ShardedMemory;

/// The store kinds: read-fault-free, every bit exposed to read faults, and
/// the top `msb_8t` bits protected in 8T.
#[derive(Debug, Clone, Copy)]
enum Store {
    Clean,
    Uniform6T,
    MsbProtected { msb_8t: usize },
}

fn arb_store() -> impl Strategy<Value = Store> {
    (0u8..3, 1usize..8).prop_map(|(kind, msb_8t)| match kind {
        0 => Store::Clean,
        1 => Store::Uniform6T,
        _ => Store::MsbProtected { msb_8t },
    })
}

/// `network` loaded into a `store`-kind memory of `shards` shards; with
/// `overlays`, one stuck span in each bank and a spare row over the
/// start of the first.
fn system(
    network: &QuantizedMlp,
    store: Store,
    shards: usize,
    overlays: bool,
    seed: u64,
) -> NeuromorphicSystem {
    let words = layout::bank_words(network);
    let (policy, read_6t) = match store {
        Store::Clean => (ProtectionPolicy::Uniform6T, 0.0),
        Store::Uniform6T => (ProtectionPolicy::Uniform6T, 0.04),
        Store::MsbProtected { msb_8t } => (ProtectionPolicy::MsbProtected { msb_8t }, 0.15),
    };
    let rates = BitErrorRates {
        read_6t,
        write_6t: 0.01,
        read_8t: 0.0,
        write_8t: 0.0,
    };
    let map = SynapticMemoryMap::new(&words, &policy, SubArrayDims::PAPER);
    let models: Vec<WordFailureModel> = (0..words.len())
        .map(|b| WordFailureModel::new(&rates, &policy.assignment(b)))
        .collect();
    let memory = ShardedMemory::new(map, models, seed, shards);
    let mut system = NeuromorphicSystem::new(network, memory, Npe::new(network.format));
    if overlays {
        let memory = system.memory_mut();
        let mut bank_start = 0usize;
        for (bank, &len) in words.iter().enumerate() {
            let start = bank_start + (seed as usize + bank) % len;
            let span = (len / 3).max(1).min(bank_start + len - start);
            memory.inject_stuck_range(start, span, 0x81 >> bank, 0xF7);
            bank_start += len;
        }
        let (start, len) = memory.row_span(0);
        let spare: Vec<u8> = (0..len).map(|i| (i * 29) as u8).collect();
        memory.repair_row(start, &spare);
    }
    system
}

proptest! {
    /// `classify_batch` replays the word-at-a-time reference request for
    /// request, at any batch size and shard count, on every store kind,
    /// with and without stuck spans and spare rows.
    #[test]
    fn batch_path_matches_the_word_at_a_time_oracle(
        shape in (1usize..120, 1usize..24, 2usize..12),
        store in arb_store(),
        shards in 1usize..=4,
        overlays in any::<bool>(),
        seeds in (0u64..1000, any::<u64>(), any::<u64>()),
        first_id in 0u64..1_000_000,
        sizes in collection::vec(1usize..=17, 1..4),
    ) {
        let (store_seed, base_seed, feature_seed) = seeds;
        let network = QuantizedMlp::from_mlp(
            &Mlp::new(&[shape.0, shape.1, shape.2], store_seed),
            Encoding::TwosComplement,
        );
        let batch_sys = system(&network, store, shards, overlays, store_seed);
        let oracle_sys = system(&network, store, shards, overlays, store_seed);
        prop_assert_eq!(
            batch_sys.memory().read_fault_free(),
            matches!(store, Store::Clean)
        );
        let mut rng = StdRng::seed_from_u64(feature_seed);
        let mut next_id = first_id;
        // One context set across the batches, as a serving worker keeps it.
        let mut ctxs: Vec<InferContext> = Vec::new();
        for n in sizes {
            let features: Vec<Vec<f32>> = (0..n)
                .map(|_| (0..shape.0).map(|_| rng.gen_range(0.0..1.0f32)).collect())
                .collect();
            let batch: Vec<&[f32]> = features.iter().map(Vec::as_slice).collect();
            ctxs.resize_with(n, || batch_sys.make_context(base_seed, 0));
            for (id, ctx) in (next_id..).zip(ctxs.iter_mut()) {
                ctx.reset(base_seed, id);
            }
            let predictions = batch_sys.classify_batch(&batch, &mut ctxs);
            for (r, (id, features)) in (next_id..).zip(&features).enumerate() {
                let want = oracle::infer_request(&oracle_sys, &network, 0, features, base_seed, id);
                let at = format!("{store:?}, {shards} shards, overlays {overlays}, batch {n}, request {r}");
                prop_assert_eq!(predictions[r], want.prediction, "prediction at {}", at);
                prop_assert_eq!(ctxs[r].fault_bits(), want.fault_bits, "fault bits at {}", at);
                prop_assert_eq!(ctxs[r].reads(), want.reads, "reads at {}", at);
            }
            next_id += n as u64;
            prop_assert_eq!(
                batch_sys.memory().shard_counts(),
                oracle_sys.memory().shard_counts(),
                "shard counters after a batch of {}", n
            );
        }
    }
}
