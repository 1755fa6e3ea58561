//! Per-layer datapath probes: direct single-thread calls into one layer's
//! public functions on the workload's own fixture, timed from outside.

use crate::stats::Sample;
use fault_inject::model::WordFailureModel;
use fault_inject::protection::ProtectionPolicy;
use neural::quant::QuantizedMlp;
use neuro_system::controller::{InferContext, NeuromorphicSystem};
use neuro_system::layout;
use neuro_system::npe::{encode_activation, Npe};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sram_array::organization::{SubArrayDims, SynapticMemoryMap};
use sram_array::sharded::ShardedMemory;
use sram_net::proto::{
    decode_request, decode_response, encode_request, encode_response, ClassifyReply, Request,
    RequestBody, Response, Status,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Wall time each probe spends repeating its call.
const PROBE_TIME: Duration = Duration::from_millis(150);

/// Repeats `f` for at least `PROBE_TIME` (and at least `min_reps` times);
/// returns the per-call times in ns.
fn repeat(min_reps: usize, mut f: impl FnMut()) -> Vec<u64> {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < min_reps || start.elapsed() < PROBE_TIME {
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_nanos() as u64);
    }
    times
}

/// Median µs of `classify` over the given features, warm context.
pub fn classify_us(features: &[Vec<f32>], mut classify: impl FnMut(&[f32], u64) -> usize) -> f64 {
    let mut k = 0u64;
    let times = repeat(64, || {
        let f = &features[k as usize % features.len()];
        black_box(classify(black_box(f), k));
        k += 1;
    });
    Sample::from_ns(&times).p50() / 1e3
}

/// A whole-image `read_row_shared` pass over `memory`: median ns per word
/// and injected fault bits per thousand words read.
pub fn read_row(memory: &ShardedMemory, seed: u64) -> (f64, f64) {
    let len = memory.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut words, mut masks) = (Vec::with_capacity(len), Vec::with_capacity(len));
    let mut fault_bits = 0u64;
    let mut reads = 0u64;
    let times = repeat(8, || {
        fault_bits += memory.read_row_shared(0, len, &mut rng, &mut words, &mut masks);
        reads += len as u64;
        black_box(&words);
    });
    (
        Sample::from_ns(&times).p50() / len as f64,
        fault_bits as f64 * 1e3 / reads as f64,
    )
}

/// The digits network on an ideal (never faulting) hybrid store — the
/// clean twin the batch-amortized datapath needs.
pub fn clean_system(network: &QuantizedMlp, shards: usize) -> NeuromorphicSystem {
    let words = layout::bank_words(network);
    let map = SynapticMemoryMap::new(
        &words,
        &ProtectionPolicy::MsbProtected { msb_8t: 3 },
        SubArrayDims::PAPER,
    );
    let models = vec![WordFailureModel::ideal(); words.len()];
    let memory = ShardedMemory::new(map, models, 1, shards);
    NeuromorphicSystem::new(network, memory, Npe::new(network.format))
}

/// `classify_batch` over micro-batches of 16: median µs per request.
pub fn batch_us_per_req(system: &NeuromorphicSystem, features: &[Vec<f32>]) -> f64 {
    const BATCH: usize = 16;
    let mut ctxs: Vec<InferContext> = (0..BATCH)
        .map(|i| system.make_context(9, i as u64))
        .collect();
    let mut k = 0usize;
    let times = repeat(16, || {
        let batch: Vec<&[f32]> = (0..BATCH)
            .map(|j| features[(k + j) % features.len()].as_slice())
            .collect();
        black_box(system.classify_batch(&batch, &mut ctxs));
        k += BATCH;
    });
    Sample::from_ns(&times).p50() / 1e3 / BATCH as f64
}

/// `Npe::neuron` on the widest digits row: median ns per multiply-
/// accumulate.
pub fn neuron_ns_per_mac(network: &QuantizedMlp, features: &[f32]) -> f64 {
    let npe = Npe::new(network.format);
    let layer = &network.layers[0];
    let image = layout::flatten(network);
    let weights = &image[..layer.inputs];
    let bias = image[layout::bias_offset(layer.inputs, layer.outputs, 0)];
    let acts: Vec<u8> = features.iter().map(|&f| encode_activation(f)).collect();
    // One call is sub-microsecond; time blocks of calls.
    const BLOCK: usize = 256;
    let times = repeat(64, || {
        for _ in 0..BLOCK {
            black_box(npe.neuron(black_box(weights), bias, black_box(&acts)));
        }
    });
    Sample::from_ns(&times).p50() / (BLOCK * layer.inputs) as f64
}

/// One full codec round trip of a digits classify request: encode and
/// decode the request, encode and decode its reply. Median ns.
pub fn codec_ns_per_req(features: &[f32]) -> f64 {
    const BLOCK: usize = 64;
    let request = Request {
        tenant: 0,
        request_id: 42,
        body: RequestBody::Classify(features.to_vec()),
    };
    let response = Response {
        status: Status::Ok,
        request_id: 42,
        reply: Some(ClassifyReply {
            prediction: 3,
            fault_bits: 1,
            queue_ns: 1000,
            service_ns: 2000,
        }),
    };
    let times = repeat(64, || {
        for _ in 0..BLOCK {
            let frame = encode_request(black_box(&request));
            black_box(decode_request(&frame[4..]).expect("round trip"));
            let frame = encode_response(black_box(&response));
            black_box(decode_response(&frame[4..]).expect("round trip"));
        }
    });
    Sample::from_ns(&times).p50() / BLOCK as f64
}
