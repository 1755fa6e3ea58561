//! System controller: sequences NPE computations against the synaptic memory.
//!
//! This is the digital ASIC of paper Fig. 2 in behavioral form: the
//! controller walks the network layer by layer, streams each neuron's weight
//! words out of the (possibly faulty, voltage-scaled) synaptic memory, feeds
//! the NPE MAC, and latches the activations for the next layer. Every weight
//! read goes through the behavioral memory, so per-access read faults land
//! exactly where the hardware would see them.
//!
//! # Shared-state inference
//!
//! The weight image and the NPE are **read-only** once the network is
//! loaded, so inference takes `&self`: any number of workers can classify
//! through one [`NeuromorphicSystem`] concurrently. Everything mutable —
//! the per-request fault RNG and the layer scratch buffers — lives in an
//! [`InferContext`] the caller threads through. A context is seeded as
//! `derive_seed(base_seed, request_id)`, so the fault bits a request sees
//! are a pure function of `(base_seed, request_id)`: serving the same
//! request stream at any worker count, in any order, in any batching,
//! replays bit-identical predictions. The serving layer (`sram_serve`)
//! builds directly on this contract.

use crate::layout;
use crate::npe::{encode_activation, Npe};
use neural::quant::QuantizedMlp;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sram_array::sharded::ShardedMemory;
use sram_exec::derive_seed;
use std::sync::Arc;

/// Index of the largest code, ties broken to the **lowest** index (a plain
/// `max_by_key` keeps the *last* maximum, which would make serving
/// tie-breaks disagree with the float evaluator's argmax).
fn argmax_lowest(codes: &[u8]) -> Option<usize> {
    let mut best = 0usize;
    for (i, &code) in codes.iter().enumerate().skip(1) {
        if code > codes[best] {
            best = i;
        }
    }
    (!codes.is_empty()).then_some(best)
}

/// Requests per pass of the batch datapath: per pass over a weight row on
/// a read-fault-free store, per pass of the four-lane fault sampler on a
/// read-faulty one.
pub const REQUESTS_PER_PASS: usize = 4;

/// Requests per micro-batch of [`NeuromorphicSystem::classify_all`]: four
/// full passes.
const FOLD_BATCH: usize = 4 * REQUESTS_PER_PASS;

/// Shape of one layer as seen by the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LayerShape {
    inputs: usize,
    outputs: usize,
}

impl LayerShape {
    /// Words in the layer's bank: the weights, then one bias per neuron.
    fn bank_words(self) -> usize {
        self.inputs * self.outputs + self.outputs
    }

    /// The weights (neuron-major) and biases of the bank `bank` starts
    /// with.
    fn split_bank(self, bank: &[u8]) -> (&[u8], &[u8]) {
        bank[..self.bank_words()].split_at(self.inputs * self.outputs)
    }
}

/// Per-request mutable state: the fault RNG plus the controller's scratch
/// buffers, hoisted out of [`NeuromorphicSystem`] so inference can run on
/// shared `&self`.
///
/// Reusing one context across requests (re-seeding with
/// [`reset`](Self::reset)) keeps the scratch allocations warm — that is
/// what the serving layer's micro-batches amortize — without ever leaking
/// randomness between requests: the RNG is rebuilt from the request's seed,
/// never resumed.
#[derive(Debug, Clone)]
pub struct InferContext {
    rng: StdRng,
    /// The observed banks of a batch; only a batch's first context holds it.
    banks: Vec<u8>,
    /// A batch's fault-mask lanes, held like `banks`.
    lanes: Vec<u8>,
    activations: Vec<u8>,
    next: Vec<u8>,
    fault_bits: u64,
    reads: u64,
}

impl InferContext {
    /// A context for request `request_id` of the stream rooted at
    /// `base_seed`; the fault randomness is `derive_seed(base_seed,
    /// request_id)` — independent of worker, order, and batch placement.
    ///
    /// Scratch buffers start empty and grow on first use; prefer
    /// [`NeuromorphicSystem::make_context`], which pre-sizes the layer
    /// scratch from the layer shapes.
    pub fn for_request(base_seed: u64, request_id: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(derive_seed(base_seed, request_id)),
            banks: Vec::new(),
            lanes: Vec::new(),
            activations: Vec::new(),
            next: Vec::new(),
            fault_bits: 0,
            reads: 0,
        }
    }

    /// Re-arms the context for another request, keeping the scratch buffers
    /// but replacing the RNG and clearing the per-request counters. After
    /// `ctx.reset(b, r)` the context behaves exactly like
    /// `InferContext::for_request(b, r)`.
    pub fn reset(&mut self, base_seed: u64, request_id: u64) {
        self.rng = StdRng::seed_from_u64(derive_seed(base_seed, request_id));
        self.fault_bits = 0;
        self.reads = 0;
    }

    /// Read-fault bits injected during the requests since the last reset.
    pub fn fault_bits(&self) -> u64 {
        self.fault_bits
    }

    /// Memory words read since the last reset.
    pub fn reads(&self) -> u64 {
        self.reads
    }
}

/// The neuromorphic system: NPE bank + controller + synaptic memory.
///
/// The weight store is the bank-parallel [`ShardedMemory`]; since the
/// sharded store is bit-identical at every shard count, the shard count
/// is a pure throughput knob — predictions never depend on it.
///
/// The store is held behind an [`Arc`] so several resident systems
/// (tenants) can share one physical memory, each addressing its own bank
/// window via [`new_resident`](Self::new_resident). A single-tenant system
/// built with [`new`](Self::new) owns its `Arc` uniquely, so the
/// maintenance port ([`memory_mut`](Self::memory_mut)) still works there.
#[derive(Debug)]
pub struct NeuromorphicSystem {
    npe: Npe,
    memory: Arc<ShardedMemory>,
    shapes: Vec<LayerShape>,
    /// Global word index of this system's first weight word inside the
    /// (possibly shared) store; `0` for a single-tenant store.
    base_addr: usize,
}

impl NeuromorphicSystem {
    /// Builds the system by loading a quantized network into the given
    /// memory (through its faulty write path).
    ///
    /// # Panics
    ///
    /// Panics if the memory's bank layout does not match the network
    /// (`layout::bank_words`).
    pub fn new(network: &QuantizedMlp, mut memory: ShardedMemory, npe: Npe) -> Self {
        let words = layout::bank_words(network);
        let map_words: Vec<usize> = memory.map().banks().iter().map(|b| b.words).collect();
        assert_eq!(
            words, map_words,
            "memory bank layout does not match the network"
        );
        memory.load(&layout::flatten(network));
        Self {
            npe,
            memory: Arc::new(memory),
            shapes: Self::shapes_of(network),
            base_addr: 0,
        }
    }

    /// Builds a **resident** system over a shared store: the network's
    /// weights are assumed to already be loaded into the store's banks
    /// starting at `first_bank` (the multi-tenant registry loads one
    /// concatenated image before sharing the `Arc`). No write traffic is
    /// issued; the system only validates the bank window and computes its
    /// base address.
    ///
    /// # Panics
    ///
    /// Panics if the store's banks at `first_bank..` do not match the
    /// network's `layout::bank_words`.
    pub fn new_resident(
        network: &QuantizedMlp,
        store: Arc<ShardedMemory>,
        first_bank: usize,
        npe: Npe,
    ) -> Self {
        let words = layout::bank_words(network);
        let banks = store.map().banks();
        assert!(
            first_bank + words.len() <= banks.len(),
            "bank window {first_bank}..{} beyond the store's {} banks",
            first_bank + words.len(),
            banks.len()
        );
        let window: Vec<usize> = banks[first_bank..first_bank + words.len()]
            .iter()
            .map(|b| b.words)
            .collect();
        assert_eq!(
            words, window,
            "memory bank layout does not match the network"
        );
        let base_addr = banks[..first_bank].iter().map(|b| b.words).sum();
        Self {
            npe,
            memory: store,
            shapes: Self::shapes_of(network),
            base_addr,
        }
    }

    fn shapes_of(network: &QuantizedMlp) -> Vec<LayerShape> {
        network
            .layers
            .iter()
            .map(|l| LayerShape {
                inputs: l.inputs,
                outputs: l.outputs,
            })
            .collect()
    }

    /// Access to the underlying sharded memory (e.g. for energy accounting
    /// or per-shard traffic attribution).
    pub fn memory(&self) -> &ShardedMemory {
        &self.memory
    }

    /// Mutable access to the underlying sharded memory — the maintenance
    /// port the resilience layer scrubs, repairs, and degrades through.
    /// Serving itself never needs this: all request-path reads go through
    /// `&self`.
    ///
    /// # Panics
    ///
    /// Panics if the store is shared with other resident systems (built
    /// via [`new_resident`](Self::new_resident) off a still-live `Arc`):
    /// maintenance on a multi-tenant store goes through the registry,
    /// which owns the unique handle.
    pub fn memory_mut(&mut self) -> &mut ShardedMemory {
        Arc::get_mut(&mut self.memory)
            .expect("memory_mut on a store shared with other resident systems")
    }

    /// Feature width of the input layer (what `classify_request` expects).
    pub fn input_width(&self) -> usize {
        self.shapes.first().map_or(0, |s| s.inputs)
    }

    /// Width of the output layer (number of classes).
    pub fn output_classes(&self) -> usize {
        self.shapes.last().map_or(0, |s| s.outputs)
    }

    /// A context for request `request_id` of the stream rooted at
    /// `base_seed`, with its layer scratch pre-sized from this system's
    /// layer shapes. The bank scratch of
    /// [`classify_batch`](Self::classify_batch) is grown once, in the first
    /// context of a worker's batches, not in every context. Behaviorally
    /// identical to [`InferContext::for_request`].
    pub fn make_context(&self, base_seed: u64, request_id: u64) -> InferContext {
        let mut ctx = InferContext::for_request(base_seed, request_id);
        let width = self
            .shapes
            .iter()
            .map(|s| s.inputs.max(s.outputs))
            .max()
            .unwrap_or(0);
        ctx.activations.reserve_exact(width);
        ctx.next.reserve_exact(width);
        ctx
    }

    /// Weight + bias words one full forward pass reads.
    pub fn reads_per_inference(&self) -> usize {
        self.shapes.iter().map(|s| s.bank_words()).sum()
    }

    /// Multiply-accumulates per inference (for energy accounting).
    pub fn macs_per_inference(&self) -> usize {
        self.shapes.iter().map(|s| s.inputs * s.outputs).sum()
    }

    /// Classifies one input sample on shared state: a one-request
    /// [`classify_batch`](Self::classify_batch). Returns the predicted
    /// class index; ties break to the **lowest** class index, matching the
    /// float evaluator's argmax.
    ///
    /// # Panics
    ///
    /// Panics if the feature count does not match the input layer.
    pub fn classify_request(&self, features: &[f32], ctx: &mut InferContext) -> usize {
        self.classify_batch(&[features], std::slice::from_mut(ctx))[0]
    }

    /// Classifies a micro-batch on shared state, fetching each layer bank
    /// once for the whole batch — the datapath the serving layer runs
    /// every micro-batch through, on any store.
    ///
    /// The system's banks (each weights neuron-major, then biases; see
    /// [`layout`]) are read once through
    /// [`observe_range`](ShardedMemory::observe_range) into a bank scratch
    /// borrowed from the first context, and billed once per request via
    /// [`charge_reads`](ShardedMemory::charge_reads). Then:
    ///
    /// * **Read-fault-free store:** every request sees the same bytes, so
    ///   the controller walks the neurons feeding requests to the NPE in
    ///   blocks of four ([`Npe::neurons`]): each weight row is streamed
    ///   once per four requests, and the last one to three requests one
    ///   at a time. No randomness is drawn.
    /// * **Read-faulty store:** requests go in blocks of four through
    ///   [`sample_read_masks_x4`](ShardedMemory::sample_read_masks_x4),
    ///   which runs the four requests' fault streams side by side over
    ///   the whole request, in each request's own draw order (row `n`,
    ///   then bias `n`, layer by layer — masks never depend on
    ///   activations, so sampling them up front reorders nothing); a block
    ///   of two or three fills the spare lanes with throwaway streams, and
    ///   a lone leftover request takes the scalar
    ///   [`sample_read_masks`](ShardedMemory::sample_read_masks). Each
    ///   request's MAC then runs on its own `bank ^ mask` image.
    ///
    /// Either way every request's output codes, prediction, fault bits,
    /// read count and end RNG state, and every shard counter, are those of
    /// reading the request's words one at a time in its draw order, each
    /// with a fresh scalar fault mask — whatever the batch's size and the
    /// request's place in it. The tests pin this against a naive
    /// word-at-a-time reference in `tests/oracle`.
    ///
    /// # Panics
    ///
    /// Panics if `batch` and `ctxs` lengths differ, or on a feature-width
    /// mismatch.
    pub fn classify_batch(&self, batch: &[&[f32]], ctxs: &mut [InferContext]) -> Vec<usize> {
        assert_eq!(batch.len(), ctxs.len(), "one context per request");
        if batch.is_empty() {
            return Vec::new();
        }
        for (features, ctx) in batch.iter().zip(ctxs.iter_mut()) {
            assert_eq!(
                features.len(),
                self.shapes[0].inputs,
                "input width mismatch"
            );
            ctx.activations.clear();
            ctx.activations
                .extend(features.iter().map(|&f| encode_activation(f)));
        }
        let words = self.reads_per_inference();
        // The bank scratch (the observed banks, and four requests' masks
        // on a faulty store) is borrowed from the first context and handed
        // back at the end: a worker that keeps its contexts grows it once.
        let mut banks = std::mem::take(&mut ctxs[0].banks);
        let mut lanes = std::mem::take(&mut ctxs[0].lanes);
        self.memory.observe_range(self.base_addr, words, &mut banks);
        self.memory.charge_reads(self.base_addr, words, batch.len());
        if self.memory.read_fault_free() {
            self.forward_shared(&banks, ctxs);
        } else {
            // Four mask lanes per block (spare lanes included); a lone
            // request needs one. Never shrunk: a worker alternating
            // tenants keeps the widest.
            let needed = if batch.len() == 1 {
                1
            } else {
                REQUESTS_PER_PASS
            } * words;
            if lanes.len() < needed {
                lanes.resize(needed, 0);
            }
            for quad in ctxs.chunks_mut(REQUESTS_PER_PASS) {
                self.forward_faulty(&banks, &mut lanes, quad);
            }
        }
        ctxs[0].banks = banks;
        ctxs[0].lanes = lanes;
        ctxs.iter_mut()
            .map(|ctx| {
                ctx.reads += words as u64;
                argmax_lowest(&ctx.activations).expect("non-empty output layer")
            })
            .collect()
    }

    /// The spans of one request's reads relative to `base_addr`, in draw
    /// order: per layer, row `n` then bias `n` for every neuron.
    fn draw_spans(&self) -> impl Iterator<Item = (usize, usize)> + Clone + '_ {
        self.layers().flat_map(|(bank, shape)| {
            (0..shape.outputs).flat_map(move |n| {
                [
                    (
                        bank + layout::weight_offset(shape.inputs, n, 0),
                        shape.inputs,
                    ),
                    (
                        bank + layout::bias_offset(shape.inputs, shape.outputs, n),
                        1,
                    ),
                ]
            })
        })
    }

    /// Each layer's bank offset relative to `base_addr`, with its shape.
    fn layers(&self) -> impl Iterator<Item = (usize, LayerShape)> + Clone + '_ {
        self.shapes.iter().scan(0usize, |bank, &shape| {
            let at = *bank;
            *bank += shape.bank_words();
            Some((at, shape))
        })
    }

    /// The forward pass of every request over one shared, fault-free image
    /// of the banks: four requests per pass over each weight row.
    fn forward_shared(&self, banks: &[u8], ctxs: &mut [InferContext]) {
        for (at, shape) in self.layers() {
            let (weights, biases) = shape.split_bank(&banks[at..]);
            for ctx in ctxs.iter_mut() {
                ctx.next.clear();
            }
            for (row, &bias) in weights.chunks_exact(shape.inputs).zip(biases) {
                let mut quads = ctxs.chunks_exact_mut(REQUESTS_PER_PASS);
                for quad in &mut quads {
                    let acts: [&[u8]; REQUESTS_PER_PASS] =
                        std::array::from_fn(|r| quad[r].activations.as_slice());
                    let outs = self.npe.neurons(row, bias, acts);
                    for (ctx, out) in quad.iter_mut().zip(outs) {
                        ctx.next.push(out);
                    }
                }
                for ctx in quads.into_remainder() {
                    ctx.next.push(self.npe.neuron(row, bias, &ctx.activations));
                }
            }
            for ctx in ctxs.iter_mut() {
                std::mem::swap(&mut ctx.activations, &mut ctx.next);
            }
        }
    }

    /// The forward pass of up to four requests on a read-faulty store:
    /// their masks drawn side by side into `lanes` (one `banks`-sized lane
    /// per request), each lane turned into its request's faulted image,
    /// then each request's MAC run on its own image.
    fn forward_faulty(&self, banks: &[u8], lanes: &mut [u8], quad: &mut [InferContext]) {
        let words = banks.len();
        if let [ctx] = quad {
            ctx.fault_bits += self.memory.sample_read_masks(
                self.base_addr,
                self.draw_spans(),
                &mut ctx.rng,
                &mut lanes[..words],
            );
        } else {
            let last = quad.len() - 1;
            let mut rngs: [StdRng; REQUESTS_PER_PASS] =
                std::array::from_fn(|r| quad[r.min(last)].rng.clone());
            let mut lane_iter = lanes.chunks_exact_mut(words);
            let masks = std::array::from_fn(|_| lane_iter.next().expect("four lanes"));
            let fault_bits = self.memory.sample_read_masks_x4(
                self.base_addr,
                self.draw_spans(),
                &mut rngs,
                masks,
            );
            for ((ctx, rng), bits) in quad.iter_mut().zip(rngs).zip(fault_bits) {
                ctx.rng = rng;
                ctx.fault_bits += bits;
            }
        }
        for (ctx, lane) in quad.iter_mut().zip(lanes.chunks_exact_mut(words)) {
            for (mask, &word) in lane.iter_mut().zip(banks) {
                *mask ^= word;
            }
            for (at, shape) in self.layers() {
                let (weights, biases) = shape.split_bank(&lane[at..]);
                ctx.next.clear();
                for (row, &bias) in weights.chunks_exact(shape.inputs).zip(biases) {
                    ctx.next.push(self.npe.neuron(row, bias, &ctx.activations));
                }
                std::mem::swap(&mut ctx.activations, &mut ctx.next);
            }
        }
    }

    /// Classifies requests `0..n` of the stream rooted at `base_seed`,
    /// request `i` carrying `features(i)`: input-ordered micro-batches of
    /// sixteen through [`classify_batch`](Self::classify_batch),
    /// fanned out on the `sram_exec` pool. Returns the predictions in
    /// request order, bit-identical at any worker count.
    ///
    /// # Panics
    ///
    /// Panics on a feature-width mismatch.
    pub fn classify_all<'a>(
        &self,
        n: usize,
        base_seed: u64,
        features: impl Fn(usize) -> &'a [f32] + Sync,
    ) -> Vec<usize> {
        let per_batch = sram_exec::par_map_indexed(n.div_ceil(FOLD_BATCH), |b| {
            let ids = b * FOLD_BATCH..n.min((b + 1) * FOLD_BATCH);
            let batch: Vec<&[f32]> = ids.clone().map(&features).collect();
            let mut ctxs: Vec<InferContext> = ids
                .map(|id| self.make_context(base_seed, id as u64))
                .collect();
            self.classify_batch(&batch, &mut ctxs)
        });
        per_batch.concat()
    }

    /// Classification accuracy over a dataset, running every sample through
    /// the full memory-faulting datapath: sample `i` is request `i` of the
    /// stream rooted at `base_seed` in one
    /// [`classify_all`](Self::classify_all) pass.
    ///
    /// # Panics
    ///
    /// Panics on an empty dataset or feature-width mismatch.
    pub fn accuracy(&self, data: &neural::dataset::Dataset, base_seed: u64) -> f64 {
        assert!(!data.is_empty(), "empty dataset");
        let predictions = self.classify_all(data.len(), base_seed, |i| data.image(i));
        let correct = predictions
            .iter()
            .enumerate()
            .filter(|&(i, &p)| p == data.label(i))
            .count();
        correct as f64 / data.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use fault_inject::model::{BitErrorRates, WordFailureModel};
    use fault_inject::protection::ProtectionPolicy;
    use neural::dataset::synth;
    use neural::eval::accuracy;
    use neural::network::Mlp;
    use neural::quant::{Encoding, QuantizedMlp};
    use neural::train::{train, TrainOptions};
    use sram_array::organization::{SubArrayDims, SynapticMemoryMap};

    fn sharded(
        words: &[usize],
        policy: &ProtectionPolicy,
        rates: &BitErrorRates,
        seed: u64,
        shards: usize,
    ) -> ShardedMemory {
        let map = SynapticMemoryMap::new(words, policy, SubArrayDims::PAPER);
        let models: Vec<WordFailureModel> = (0..words.len())
            .map(|b| WordFailureModel::new(rates, &policy.assignment(b)))
            .collect();
        ShardedMemory::new(map, models, seed, shards)
    }

    fn trained_small_net() -> (QuantizedMlp, neural::dataset::Dataset) {
        let data = synth::generate_default(400, 21);
        let (train_set, test_set) = data.split(0.75, 3);
        let mut mlp = Mlp::new(&[784, 24, 10], 5);
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

    fn ideal_memory_for(q: &QuantizedMlp) -> ShardedMemory {
        let words = layout::bank_words(q);
        let map = SynapticMemoryMap::new(&words, &ProtectionPolicy::Uniform6T, SubArrayDims::PAPER);
        let models = vec![WordFailureModel::ideal(); words.len()];
        ShardedMemory::new(map, models, 17, 3)
    }

    #[test]
    fn system_matches_float_network_on_clean_memory() {
        let (q, test_set) = trained_small_net();
        let npe = Npe::new(q.format);
        let system = NeuromorphicSystem::new(&q, ideal_memory_for(&q), npe);
        let fixed_acc = system.accuracy(&test_set, 11);
        let float_acc = accuracy(&q.to_mlp(), &test_set);
        assert!(
            (fixed_acc - float_acc).abs() < 0.1,
            "fixed-point {fixed_acc} vs float {float_acc}"
        );
        // The datapath must actually have read the memory.
        assert!(system.memory().counts().reads > 0);
        assert_eq!(
            system.memory().counts().reads,
            test_set.len() * system.reads_per_inference()
        );
    }

    #[test]
    fn predictions_are_shard_count_invariant() {
        let (q, test_set) = trained_small_net();
        let test_set = test_set.take(40);
        let words = layout::bank_words(&q);
        let policy = ProtectionPolicy::MsbProtected { msb_8t: 3 };
        let rates = BitErrorRates {
            read_6t: 0.1,
            write_6t: 0.02,
            read_8t: 0.0,
            write_8t: 0.0,
        };
        let mut reference: Option<Vec<usize>> = None;
        for shards in [1usize, 2, 4, 7] {
            let memory = sharded(&words, &policy, &rates, 5, shards);
            assert_eq!(
                memory.shard_count(),
                shards,
                "network must span {shards} shards"
            );
            let system = NeuromorphicSystem::new(&q, memory, Npe::new(q.format));
            let predictions: Vec<usize> = (0..test_set.len())
                .map(|i| {
                    let mut ctx = InferContext::for_request(77, i as u64);
                    system.classify_request(test_set.image(i), &mut ctx)
                })
                .collect();
            match &reference {
                None => reference = Some(predictions),
                Some(r) => assert_eq!(
                    &predictions, r,
                    "{shards}-shard predictions diverged from 1-shard"
                ),
            }
        }
    }

    #[test]
    fn parallel_accuracy_is_bit_identical_to_the_sequential_fold() {
        let (q, test_set) = trained_small_net();
        let test_set = test_set.take(60);
        let words = layout::bank_words(&q);
        let policy = ProtectionPolicy::MsbProtected { msb_8t: 4 };
        let rates = BitErrorRates {
            read_6t: 0.08,
            write_6t: 0.01,
            read_8t: 0.0,
            write_8t: 0.0,
        };
        let build = || {
            NeuromorphicSystem::new(
                &q,
                sharded(&words, &policy, &rates, 5, 2),
                Npe::new(q.format),
            )
        };
        // The sequential fold: the word-at-a-time reference, samples in
        // order.
        let twin = build();
        let correct = (0..test_set.len())
            .filter(|&i| {
                let r = oracle::infer_request(&twin, &q, 0, test_set.image(i), 77, i as u64);
                r.prediction == test_set.label(i)
            })
            .count();
        let reference = correct as f64 / test_set.len() as f64;
        let system = build();
        for threads in [1usize, 2, 4] {
            sram_exec::set_threads(threads);
            let parallel = system.accuracy(&test_set, 77);
            assert!(
                parallel == reference,
                "accuracy at {threads} workers ({parallel}) != sequential ({reference})"
            );
        }
        sram_exec::clear_threads();
    }

    #[test]
    fn request_context_is_a_pure_function_of_its_seed() {
        let (q, test_set) = trained_small_net();
        let words = layout::bank_words(&q);
        let policy = ProtectionPolicy::Uniform6T;
        let rates = BitErrorRates {
            read_6t: 0.2,
            write_6t: 0.0,
            read_8t: 0.0,
            write_8t: 0.0,
        };
        let system = NeuromorphicSystem::new(
            &q,
            sharded(&words, &policy, &rates, 9, 4),
            Npe::new(q.format),
        );
        let img = test_set.image(0);

        // Fresh context vs a context warmed on other requests then reset:
        // identical outputs, fault accounting and RNG end state.
        let mut fresh = InferContext::for_request(3, 8);
        system.classify_request(img, &mut fresh);
        let (fresh_faults, fresh_reads) = (fresh.fault_bits(), fresh.reads());

        let mut warm = InferContext::for_request(3, 0);
        for id in 0..4 {
            warm.reset(3, id);
            system.classify_request(img, &mut warm);
        }
        warm.reset(3, 8);
        system.classify_request(img, &mut warm);
        assert_eq!(fresh.activations, warm.activations);
        assert_eq!(fresh_faults, warm.fault_bits());
        assert_eq!(fresh_reads, warm.reads());
        assert_eq!(fresh.rng, warm.rng);
        assert_eq!(fresh_reads, system.reads_per_inference() as u64);
        assert!(fresh_faults > 0, "20% read faults must show up");

        // Both are the word-at-a-time reference's request 8.
        let reference = oracle::infer_request(&system, &q, 0, img, 3, 8);
        assert_eq!(fresh.activations, reference.outputs);
        assert_eq!(fresh_faults, reference.fault_bits);
        assert_eq!(fresh_reads, reference.reads);
        assert_eq!(fresh.rng, reference.rng);

        // Replaying the same request id is exact; a different id draws an
        // independent fault stream (the *number* of faulted bits may
        // coincide, so compare a replay instead of a neighbor).
        let mut replay = InferContext::for_request(3, 8);
        system.classify_request(img, &mut replay);
        assert_eq!(fresh.activations, replay.activations);
        assert_eq!(replay.fault_bits(), fresh_faults);
    }

    #[test]
    fn heavy_lsb_faults_barely_hurt_but_msb_faults_kill() {
        let (q, test_set) = trained_small_net();
        let test_set = test_set.take(40);
        let npe = Npe::new(q.format);

        let clean_acc = {
            let s = NeuromorphicSystem::new(&q, ideal_memory_for(&q), npe.clone());
            s.accuracy(&test_set, 3)
        };

        let words = layout::bank_words(&q);
        // LSB-only faults (hybrid with every bit but bit0 protected).
        let policy = ProtectionPolicy::MsbProtected { msb_8t: 7 };
        let rates = BitErrorRates {
            read_6t: 0.3,
            write_6t: 0.0,
            read_8t: 0.0,
            write_8t: 0.0,
        };
        let lsb_system =
            NeuromorphicSystem::new(&q, sharded(&words, &policy, &rates, 3, 2), npe.clone());
        let lsb_acc = lsb_system.accuracy(&test_set, 3);

        // Uniform faults at the same rate (MSBs exposed).
        let policy = ProtectionPolicy::Uniform6T;
        let uniform_system =
            NeuromorphicSystem::new(&q, sharded(&words, &policy, &rates, 3, 2), npe);
        let uniform_acc = uniform_system.accuracy(&test_set, 3);

        assert!(
            lsb_acc > clean_acc - 0.15,
            "LSB faults must be benign: clean {clean_acc}, lsb {lsb_acc}"
        );
        assert!(
            uniform_acc < lsb_acc,
            "MSB exposure must hurt more: uniform {uniform_acc} vs lsb {lsb_acc}"
        );
    }

    #[test]
    fn argmax_ties_break_to_the_lowest_index() {
        assert_eq!(argmax_lowest(&[3, 7, 7, 2]), Some(1));
        assert_eq!(argmax_lowest(&[9]), Some(0));
        assert_eq!(argmax_lowest(&[0, 0, 0]), Some(0));
        assert_eq!(argmax_lowest(&[1, 2, 3, 3]), Some(2));
        assert_eq!(argmax_lowest(&[255, 255]), Some(0));
        assert_eq!(argmax_lowest(&[]), None);
    }

    #[test]
    fn make_context_pre_sizes_all_scratch() {
        // All the per-request scratch, that is: the bank scratch is a
        // worker's, grown once by the first request it lends.
        let (q, test_set) = trained_small_net();
        let system = NeuromorphicSystem::new(&q, ideal_memory_for(&q), Npe::new(q.format));
        let capacities = |c: &InferContext| {
            [
                c.banks.capacity(),
                c.lanes.capacity(),
                c.activations.capacity(),
                c.next.capacity(),
            ]
        };
        let mut warm = system.make_context(7, 0);
        let [_, _, activations, next] = capacities(&warm);
        assert!(
            activations >= 784,
            "activation scratch {activations} < widest layer"
        );
        assert!(next >= 784, "next scratch {next} < widest layer");
        system.classify_request(test_set.image(0), &mut warm);
        let caps = capacities(&warm);
        assert!(
            caps[0] >= system.reads_per_inference(),
            "bank scratch {}",
            caps[0]
        );
        assert_eq!(caps[2..], [activations, next], "layer scratch grew");
        for id in 1..4u64 {
            warm.reset(7, id);
            system.classify_request(test_set.image(id as usize), &mut warm);
        }
        assert_eq!(
            capacities(&warm),
            caps,
            "warm requests must never grow the scratch"
        );

        // A pre-sized context behaves exactly like a fresh unsized one.
        let mut fresh = InferContext::for_request(7, 5);
        system.classify_request(test_set.image(5), &mut fresh);
        warm.reset(7, 5);
        system.classify_request(test_set.image(5), &mut warm);
        assert_eq!(fresh.activations, warm.activations);
        assert_eq!(fresh.reads(), warm.reads());
        assert_eq!(fresh.rng, warm.rng);
    }

    #[test]
    fn batch_path_is_byte_identical_to_scalar_requests() {
        let (q, test_set) = trained_small_net();
        let batch_sys = NeuromorphicSystem::new(&q, ideal_memory_for(&q), Npe::new(q.format));
        let scalar_sys = NeuromorphicSystem::new(&q, ideal_memory_for(&q), Npe::new(q.format));
        assert!(batch_sys.memory().read_fault_free());
        let n = 8usize;
        let batch: Vec<&[f32]> = (0..n).map(|i| test_set.image(i)).collect();
        let mut ctxs: Vec<InferContext> = (0..n)
            .map(|i| batch_sys.make_context(5, i as u64))
            .collect();
        let predictions = batch_sys.classify_batch(&batch, &mut ctxs);
        for i in 0..n {
            let scalar = oracle::infer_request(&scalar_sys, &q, 0, test_set.image(i), 5, i as u64);
            assert_eq!(predictions[i], scalar.prediction, "request {i}");
            assert_eq!(ctxs[i].activations, scalar.outputs, "request {i} outputs");
            assert_eq!(ctxs[i].reads(), scalar.reads, "request {i} read accounting");
            assert_eq!(ctxs[i].fault_bits(), 0);
            assert_eq!(ctxs[i].rng, scalar.rng, "request {i} stream was perturbed");
        }
        assert_eq!(
            batch_sys.memory().shard_counts(),
            scalar_sys.memory().shard_counts(),
            "shared fetches must bill identical shard traffic"
        );
    }

    /// The stores the batch path is checked on: read-fault-free, every
    /// bit exposed to read faults, and the three MSBs protected in 8T.
    #[derive(Debug, Clone, Copy)]
    enum Store {
        Clean,
        Uniform6T,
        MsbProtected,
    }

    /// A random-weight network on a `store`-kind memory, and the network;
    /// the 100-input layer exercises full 16-byte MAC steps plus a ragged
    /// tail.
    fn random_system(
        shards: usize,
        store: Store,
        overlays: bool,
    ) -> (NeuromorphicSystem, QuantizedMlp) {
        let q = QuantizedMlp::from_mlp(&Mlp::new(&[100, 23, 10], 7), Encoding::TwosComplement);
        let words = layout::bank_words(&q);
        let (policy, read_6t) = match store {
            Store::Clean => (ProtectionPolicy::Uniform6T, 0.0),
            Store::Uniform6T => (ProtectionPolicy::Uniform6T, 0.04),
            Store::MsbProtected => (ProtectionPolicy::MsbProtected { msb_8t: 3 }, 0.15),
        };
        let rates = BitErrorRates {
            read_6t,
            write_6t: 0.01,
            read_8t: 0.0,
            write_8t: 0.0,
        };
        let memory = sharded(&words, &policy, &rates, 3, shards);
        assert_eq!(memory.shard_count(), shards);
        assert_eq!(memory.read_fault_free(), matches!(store, Store::Clean));
        let mut system = NeuromorphicSystem::new(&q, memory, Npe::new(q.format));
        if overlays {
            let memory = system.memory_mut();
            // Stuck spans across neuron rows of the first bank, over the
            // first bank's biases, and inside the second bank.
            memory.inject_stuck_range(37, 150, 0x41, 0xF7);
            memory.inject_stuck_range(2305, 30, 0x80, 0xFF);
            memory.inject_stuck_range(2400, 9, 0x00, 0x3C);
            // Spare rows in both banks, one over a stuck span.
            for index in [90, 1200, 2330] {
                let (start, len) = memory.row_span(index);
                let spare: Vec<u8> = (0..len).map(|i| (i * 29 + index) as u8).collect();
                memory.repair_row(start, &spare);
            }
        }
        (system, q)
    }

    #[test]
    fn batch_path_matches_scalar_requests_at_every_batch_size() {
        let cases = [
            (1, Store::Clean, false),
            (2, Store::Clean, false),
            (4, Store::Clean, false),
            (2, Store::Clean, true),
            (4, Store::Clean, true),
            (1, Store::Uniform6T, false),
            (2, Store::Uniform6T, true),
            (4, Store::Uniform6T, true),
            (1, Store::MsbProtected, true),
            (2, Store::MsbProtected, false),
            (4, Store::MsbProtected, true),
        ];
        for (shards, store, overlays) in cases {
            let (batch_sys, q) = random_system(shards, store, overlays);
            let (scalar_sys, _) = random_system(shards, store, overlays);
            let (plain_sys, _) = random_system(shards, store, false);
            let mut overlay_changed_outputs = false;
            let mut faults_seen = 0u64;
            let mut next_id = 0u64;
            // One context set across all batch sizes, as a serving worker
            // keeps it: the bank scratch is reused at every size.
            let mut ctxs: Vec<InferContext> = Vec::new();
            for n in 1..=17usize {
                let features: Vec<Vec<f32>> = (0..n)
                    .map(|r| {
                        (0..100)
                            .map(|i| ((i * 37 + r * 11 + n * 5) % 101) as f32 / 100.0)
                            .collect()
                    })
                    .collect();
                let batch: Vec<&[f32]> = features.iter().map(Vec::as_slice).collect();
                let ids: Vec<u64> = (next_id..next_id + n as u64).collect();
                next_id += n as u64;
                ctxs.resize_with(n, || batch_sys.make_context(5, 0));
                for (ctx, &id) in ctxs.iter_mut().zip(&ids) {
                    ctx.reset(5, id);
                }
                let predictions = batch_sys.classify_batch(&batch, &mut ctxs);
                for (r, (&id, features)) in ids.iter().zip(&features).enumerate() {
                    let at = format!(
                        "{store:?}, {shards} shards, overlays {overlays}, batch {n}, request {r}"
                    );
                    let scalar = oracle::infer_request(&scalar_sys, &q, 0, features, 5, id);
                    assert_eq!(ctxs[r].activations, scalar.outputs, "output codes at {at}");
                    assert_eq!(predictions[r], scalar.prediction, "prediction at {at}");
                    assert_eq!(ctxs[r].reads(), scalar.reads, "reads at {at}");
                    assert_eq!(ctxs[r].fault_bits(), scalar.fault_bits, "faults at {at}");
                    assert_eq!(ctxs[r].rng, scalar.rng, "RNG end state at {at}");
                    faults_seen += scalar.fault_bits;
                    let plain = oracle::infer_request(&plain_sys, &q, 0, features, 5, id);
                    overlay_changed_outputs |= plain.outputs != scalar.outputs;
                }
                assert_eq!(
                    batch_sys.memory().counts().reads,
                    scalar_sys.memory().counts().reads,
                    "billed reads at {store:?}, {shards} shards, overlays {overlays}, batch {n}"
                );
            }
            assert_eq!(
                batch_sys.memory().shard_counts(),
                scalar_sys.memory().shard_counts(),
                "shard traffic at {store:?}, {shards} shards, overlays {overlays}"
            );
            assert_eq!(
                overlay_changed_outputs, overlays,
                "the overlays must reach the outputs, and only with overlays"
            );
            assert_eq!(
                faults_seen > 0,
                !matches!(store, Store::Clean),
                "read faults at {store:?}, {shards} shards, overlays {overlays}"
            );
        }
    }

    #[test]
    fn warm_batches_never_grow_the_scratch() {
        for store in [Store::Clean, Store::Uniform6T, Store::MsbProtected] {
            let (system, _) = random_system(2, store, true);
            let features: Vec<Vec<f32>> = (0..7)
                .map(|r| (0..100).map(|i| ((i + r) % 10) as f32 / 10.0).collect())
                .collect();
            let batch: Vec<&[f32]> = features.iter().map(Vec::as_slice).collect();
            let mut ctxs: Vec<InferContext> = (0..7).map(|id| system.make_context(1, id)).collect();
            let capacities = |ctxs: &[InferContext]| -> Vec<[usize; 4]> {
                ctxs.iter()
                    .map(|c| {
                        [
                            c.banks.capacity(),
                            c.lanes.capacity(),
                            c.activations.capacity(),
                            c.next.capacity(),
                        ]
                    })
                    .collect()
            };
            let fresh = capacities(&ctxs);
            let _ = system.classify_batch(&batch, &mut ctxs);
            let before = capacities(&ctxs);
            // Only the first context lends the bank scratch: every other
            // context keeps its empty make_context bank buffers.
            assert_eq!(
                before[1..],
                fresh[1..],
                "{store:?}: a context grew past its rows"
            );
            let words = system.reads_per_inference();
            assert!(
                before[0][0] >= words,
                "{store:?}: bank scratch {}",
                before[0][0]
            );
            if !matches!(store, Store::Clean) {
                assert!(
                    before[0][1] >= 4 * words,
                    "{store:?}: mask lanes {}",
                    before[0][1]
                );
            }
            for round in 0..3u64 {
                for (id, ctx) in ctxs.iter_mut().enumerate() {
                    ctx.reset(1, round * 7 + id as u64);
                }
                let _ = system.classify_batch(
                    &batch[..7 - round as usize],
                    &mut ctxs[..7 - round as usize],
                );
                assert_eq!(
                    capacities(&ctxs),
                    before,
                    "{store:?}: batch round {round} grew the scratch"
                );
            }
        }
    }

    /// Two tenants laid out back-to-back in one shared store, the way the
    /// serving registry builds it: concatenated maps, concatenated
    /// per-bank failure models, one concatenated image load.
    fn shared_two_tenant_store(
        qa: &QuantizedMlp,
        pol_a: &ProtectionPolicy,
        rates_a: &BitErrorRates,
        qb: &QuantizedMlp,
        pol_b: &ProtectionPolicy,
        rates_b: &BitErrorRates,
        seed: u64,
    ) -> Arc<ShardedMemory> {
        let words_a = layout::bank_words(qa);
        let words_b = layout::bank_words(qb);
        let map = SynapticMemoryMap::concat([
            SynapticMemoryMap::new(&words_a, pol_a, SubArrayDims::PAPER),
            SynapticMemoryMap::new(&words_b, pol_b, SubArrayDims::PAPER),
        ]);
        let mut models: Vec<WordFailureModel> = (0..words_a.len())
            .map(|b| WordFailureModel::new(rates_a, &pol_a.assignment(b)))
            .collect();
        models.extend(
            (0..words_b.len()).map(|b| WordFailureModel::new(rates_b, &pol_b.assignment(b))),
        );
        let mut store = ShardedMemory::new(map, models, seed, 3);
        let mut image = layout::flatten(qa);
        image.extend(layout::flatten(qb));
        store.load(&image);
        Arc::new(store)
    }

    #[test]
    fn resident_tenants_match_their_standalone_systems() {
        let qa = QuantizedMlp::from_mlp(&Mlp::new(&[12, 8, 4], 11), Encoding::TwosComplement);
        let qb = QuantizedMlp::from_mlp(&Mlp::new(&[9, 6, 3], 12), Encoding::TwosComplement);
        let pol_a = ProtectionPolicy::MsbProtected { msb_8t: 3 };
        let pol_b = ProtectionPolicy::MsbProtected { msb_8t: 5 };
        // Write-fault-free rates: the stored image is then exact in both
        // layouts, and read faults are drawn from the request context's
        // RNG (a pure function of the walk, not of global addresses), so
        // a resident system at a bank offset must replay its standalone
        // twin bit for bit.
        let rates_a = BitErrorRates {
            read_6t: 0.1,
            write_6t: 0.0,
            read_8t: 0.0,
            write_8t: 0.0,
        };
        let rates_b = BitErrorRates {
            read_6t: 0.25,
            write_6t: 0.0,
            read_8t: 0.0,
            write_8t: 0.0,
        };
        let standalone_a = NeuromorphicSystem::new(
            &qa,
            sharded(&layout::bank_words(&qa), &pol_a, &rates_a, 31, 3),
            Npe::new(qa.format),
        );
        let standalone_b = NeuromorphicSystem::new(
            &qb,
            sharded(&layout::bank_words(&qb), &pol_b, &rates_b, 31, 3),
            Npe::new(qb.format),
        );
        let store = shared_two_tenant_store(&qa, &pol_a, &rates_a, &qb, &pol_b, &rates_b, 31);
        let first_bank_b = layout::bank_words(&qa).len();
        let res_a =
            NeuromorphicSystem::new_resident(&qa, Arc::clone(&store), 0, Npe::new(qa.format));
        let res_b = NeuromorphicSystem::new_resident(&qb, store, first_bank_b, Npe::new(qb.format));
        assert_eq!(res_a.input_width(), 12);
        assert_eq!(res_b.output_classes(), 3);
        for id in 0..6u64 {
            let feat_a: Vec<f32> = (0..12)
                .map(|i| ((i * 37 + id as usize) % 100) as f32 / 100.0)
                .collect();
            let feat_b: Vec<f32> = (0..9)
                .map(|i| ((i * 53 + id as usize) % 100) as f32 / 100.0)
                .collect();
            let mut ctx_s = InferContext::for_request(7, id);
            let mut ctx_r = InferContext::for_request(7, id);
            assert_eq!(
                standalone_a.classify_request(&feat_a, &mut ctx_s),
                res_a.classify_request(&feat_a, &mut ctx_r),
                "tenant A request {id}"
            );
            assert_eq!(
                ctx_s.fault_bits(),
                ctx_r.fault_bits(),
                "tenant A faults {id}"
            );
            let mut ctx_s = InferContext::for_request(9, id);
            let mut ctx_r = InferContext::for_request(9, id);
            let prediction = res_b.classify_request(&feat_b, &mut ctx_r);
            assert_eq!(
                standalone_b.classify_request(&feat_b, &mut ctx_s),
                prediction,
                "tenant B request {id}"
            );
            let reference = oracle::infer_request(&res_b, &qb, first_bank_b, &feat_b, 9, id);
            assert_eq!(
                (prediction, &ctx_r.activations, ctx_r.rng.clone()),
                (reference.prediction, &reference.outputs, reference.rng),
                "tenant B request {id} against the reference"
            );
            assert_eq!(
                ctx_s.fault_bits(),
                ctx_r.fault_bits(),
                "tenant B faults {id}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "shared with other resident")]
    fn memory_mut_refuses_shared_stores() {
        let qa = QuantizedMlp::from_mlp(&Mlp::new(&[6, 4, 2], 1), Encoding::TwosComplement);
        let qb = QuantizedMlp::from_mlp(&Mlp::new(&[5, 3, 2], 2), Encoding::TwosComplement);
        let pol = ProtectionPolicy::Uniform6T;
        let rates = BitErrorRates {
            read_6t: 0.0,
            write_6t: 0.0,
            read_8t: 0.0,
            write_8t: 0.0,
        };
        let store = shared_two_tenant_store(&qa, &pol, &rates, &qb, &pol, &rates, 1);
        let mut res_a =
            NeuromorphicSystem::new_resident(&qa, Arc::clone(&store), 0, Npe::new(qa.format));
        let _res_b = NeuromorphicSystem::new_resident(
            &qb,
            store,
            layout::bank_words(&qa).len(),
            Npe::new(qb.format),
        );
        let _ = res_a.memory_mut();
    }

    #[test]
    #[should_panic(expected = "does not match the network")]
    fn mismatched_memory_panics() {
        let (q, _) = trained_small_net();
        let map = SynapticMemoryMap::new(&[10], &ProtectionPolicy::Uniform6T, SubArrayDims::PAPER);
        let memory = ShardedMemory::new(map, vec![WordFailureModel::ideal()], 0, 2);
        let _ = NeuromorphicSystem::new(&q, memory, Npe::new(q.format));
    }
}
