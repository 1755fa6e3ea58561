//! A deliberately naive per-request reference for the controller's batch
//! datapath.
//!
//! It runs one request the way the paper's controller walks the network
//! (Fig. 2): layer by layer, neuron by neuron, one word at a time — each
//! weight of neuron `n`'s row in address order, then its bias. Every word
//! is read with [`ShardedMemory::read_raw`], its fault mask drawn with the
//! scalar `fault_inject::injector::sample_read_mask` against the word's
//! bank model (found with `SynapticMemoryMap::locate`), and its read
//! billed with a one-word [`ShardedMemory::charge_reads`]. It has no bank
//! fetch, no span sampler, no four-lane kernel and no shared-image MAC
//! pass, so it shares no fetch or sampler code with
//! `NeuromorphicSystem::classify_batch`.
//!
//! Integration tests include it with `mod oracle;`; the crate's unit tests
//! include the same file through the crate's own name.

#![allow(dead_code)]

use fault_inject::injector::sample_read_mask;
use neural::quant::QuantizedMlp;
use neuro_system::controller::NeuromorphicSystem;
use neuro_system::layout;
use neuro_system::npe::{encode_activation, Npe};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sram_array::sharded::ShardedMemory;
use sram_exec::derive_seed;

/// What one request produced on the reference path.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    /// Output-layer activation codes.
    pub outputs: Vec<u8>,
    /// Index of the largest output code, ties to the lowest index.
    pub prediction: usize,
    /// Read-fault bits injected.
    pub fault_bits: u64,
    /// Memory words read.
    pub reads: u64,
    /// The request's fault RNG after its last draw.
    pub rng: StdRng,
}

/// One word read: the observed byte XOR a fresh scalar fault mask, billed
/// to its shard. Returns `(value, mask)`.
fn read_word(memory: &ShardedMemory, index: usize, rng: &mut StdRng) -> (u8, u8) {
    let bank = memory.map().locate(index).bank;
    let mask = sample_read_mask(&memory.models()[bank], rng);
    memory.charge_reads(index, 1, 1);
    (memory.read_raw(index) ^ mask, mask)
}

/// Request `request_id` of the stream rooted at `base_seed`, classified by
/// `network`, whose banks start at bank `first_bank` of `system`'s store
/// (0 for a single-tenant system), and whose NPE is `Npe::new(network.format)`.
pub fn infer_request(
    system: &NeuromorphicSystem,
    network: &QuantizedMlp,
    first_bank: usize,
    features: &[f32],
    base_seed: u64,
    request_id: u64,
) -> Reference {
    let memory = system.memory();
    let npe = Npe::new(network.format);
    let mut rng = StdRng::seed_from_u64(derive_seed(base_seed, request_id));
    let (mut fault_bits, mut reads) = (0u64, 0u64);
    let mut bank_base: usize = memory.map().banks()[..first_bank]
        .iter()
        .map(|b| b.words)
        .sum();
    let mut activations: Vec<u8> = features.iter().map(|&f| encode_activation(f)).collect();
    for layer in &network.layers {
        let (inputs, outputs) = (layer.inputs, layer.outputs);
        let mut next = Vec::with_capacity(outputs);
        for neuron in 0..outputs {
            let mut row = Vec::with_capacity(inputs);
            for input in 0..inputs {
                let index = bank_base + layout::weight_offset(inputs, neuron, input);
                let (value, mask) = read_word(memory, index, &mut rng);
                fault_bits += u64::from(mask.count_ones());
                row.push(value);
            }
            let index = bank_base + layout::bias_offset(inputs, outputs, neuron);
            let (bias, mask) = read_word(memory, index, &mut rng);
            fault_bits += u64::from(mask.count_ones());
            reads += inputs as u64 + 1;
            next.push(npe.neuron(&row, bias, &activations));
        }
        bank_base += inputs * outputs + outputs;
        activations = next;
    }
    let mut prediction = 0usize;
    for (i, &code) in activations.iter().enumerate() {
        if code > activations[prediction] {
            prediction = i;
        }
    }
    Reference {
        outputs: activations,
        prediction,
        fault_bits,
        reads,
        rng,
    }
}
