//! The fused bulk-read serving datapath against golden scalar digests.
//!
//! The batch path (one physical fetch per layer bank feeding a whole
//! micro-batch) streams each weight row through four requests' MACs on
//! read-fault-free memories; these tests pin
//! it byte-identical to the scalar per-request datapath at every worker ×
//! shard × batch combination, and against a digest recorded from the
//! pre-fusion scalar implementation — any drift here means the fused
//! datapath changed observable predictions.

use fault_inject::model::{BitErrorRates, WordFailureModel};
use fault_inject::protection::ProtectionPolicy;
use neuro_system::controller::NeuromorphicSystem;
use neuro_system::layout;
use neuro_system::npe::Npe;
use sram_array::organization::{SubArrayDims, SynapticMemoryMap};
use sram_array::sharded::ShardedMemory;
use sram_serve::fixture::{request_stream, trained_digit_network};
use sram_serve::{InferenceServer, ServeOptions};

const BASE_SEED: u64 = 0xD16E_57AB;
const REQUESTS: usize = 48;

/// FNV-1a digest of the 48-request prediction vector produced by the
/// pre-fusion scalar datapath (recorded by running this fixture on the
/// commit preceding the bulk-read path, with only the lowest-index argmax
/// tie-break applied — the one sanctioned semantic change in that PR).
const GOLDEN_DIGEST: u64 = 11269891199950094092;

/// A server over a write-faulty but *read-fault-free* hybrid memory — the
/// regime where every request of a batch sees the same bytes. Write
/// faults still exercise the address-keyed corruption streams at load.
fn server(shards: usize, workers: usize, max_batch: usize) -> (InferenceServer, Vec<Vec<f32>>) {
    let (q, test_set) = trained_digit_network();
    let words = layout::bank_words(&q);
    let policy = ProtectionPolicy::MsbProtected { msb_8t: 3 };
    let map = SynapticMemoryMap::new(&words, &policy, SubArrayDims::PAPER);
    let rates = BitErrorRates {
        read_6t: 0.0,
        write_6t: 0.004,
        read_8t: 0.0,
        write_8t: 0.0,
    };
    let models: Vec<WordFailureModel> = (0..words.len())
        .map(|b| WordFailureModel::new(&rates, &policy.assignment(b)))
        .collect();
    let memory = ShardedMemory::new(map, models, 29, shards);
    let system = NeuromorphicSystem::new(&q, memory, Npe::new(q.format));
    let requests = request_stream(&test_set, REQUESTS);
    let server = InferenceServer::new(
        system,
        ServeOptions {
            workers,
            max_batch,
            base_seed: BASE_SEED,
        },
    );
    (server, requests)
}

#[test]
fn fused_serve_matches_the_golden_scalar_digest_everywhere() {
    for shards in [1usize, 2, 4] {
        for workers in [1usize, 2, 4] {
            for max_batch in [1usize, 4, 16] {
                let (server, requests) = server(shards, workers, max_batch);
                let report = server.serve(&requests);
                assert_eq!(
                    report.digest(),
                    GOLDEN_DIGEST,
                    "digest drifted at {shards} shards / {workers} workers / batch {max_batch}"
                );
                assert_eq!(
                    report.predictions,
                    server.reference_predictions(&requests),
                    "serve diverged from the per-request reference at \
                     {shards} shards / {workers} workers / batch {max_batch}"
                );
            }
        }
    }
}

#[test]
fn batch_amortization_preserves_the_scalar_read_accounting() {
    let (server, requests) = server(2, 2, 16);
    assert!(server.system().memory().read_fault_free());
    let report = server.serve(&requests);
    let expected = (REQUESTS * server.system().reads_per_inference()) as u64;
    assert_eq!(
        report.words_read, expected,
        "amortized rows must bill every logical copy"
    );
    assert_eq!(report.shard_reads.iter().sum::<u64>(), expected);
    assert_eq!(
        report.fault_bits, 0,
        "read-fault-free memory injected faults"
    );
    assert!(report.max_batch_observed > 1, "batch path never engaged");
    assert!(report.words_per_sec() > 0.0);
}
