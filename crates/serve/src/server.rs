//! The closed-batch inference server over `sram_serve`'s
//! [`scheduler`](crate::scheduler), the one the net tier runs on too.
//!
//! ```text
//!  requests ──▶ BatchQueue ──pop_batch──▶ worker 0..W ──▶ classify_micro_batch
//!  (id 0..n,    (filled,      (adaptive                    └─ classify_batch
//!   at t=0)      then closed)  micro-batch)                   (one bank fetch)
//! ```
//!
//! Every request is queued as one tenant. A pop admits
//! `queue_len / (2·workers)` requests, clamped to `[1, max_batch]` and,
//! once the queue holds four, rounded down to whole four-request passes
//! (at least one): a deep queue amortizes lock traffic, a draining one
//! shrinks to single passes and keeps the stragglers balanced. A batch
//! shares one bank fetch per layer on any store; on a read-faulty one its
//! requests' fault streams are sampled four at a time, with no lane idle.
//!
//! # Determinism
//!
//! Request `id` draws its fault randomness from `derive_seed(base_seed,
//! id)` (via [`InferContext::reset`]) and results are slotted by `id`, so
//! predictions are **bit-identical at any worker count and any micro-batch
//! size** — the property the `serve-load` CI job pins. Latencies are wall
//! clock; only their aggregation (histogram merge) is order-invariant.

use crate::metrics::{prediction_digest, LatencyHistogram};
use crate::policy::DrowsyPlan;
use crate::resilience::{ResilienceController, ResilienceCounters};
use crate::scheduler::{classify_micro_batch, BatchQueue, DEFAULT_MAX_BATCH};
use fault_inject::model::WORD_BITS;
use neuro_system::controller::{InferContext, NeuromorphicSystem};
use neuro_system::energy::SystemEnergyReport;
use sram_device::units::Watt;
use std::time::{Duration, Instant};

/// Serving knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOptions {
    /// Worker threads; 0 = the exec pool default. [`sram_exec::resolve_workers`]
    /// resolves and clamps the count.
    pub workers: usize,
    /// Micro-batch ceiling per queue pop.
    pub max_batch: usize,
    /// Root of the per-request seed streams.
    pub base_seed: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            workers: 0,
            max_batch: DEFAULT_MAX_BATCH,
            base_seed: 0x5E2F_E5EE_D000_0001,
        }
    }
}

/// Everything one `serve` call produced.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Predicted class per request, in request order.
    pub predictions: Vec<usize>,
    /// End-to-end (admission → completion) latency distribution.
    pub latency: LatencyHistogram,
    /// Queue-wait distribution: admission (t=0 for this closed-batch
    /// server) → the moment a worker starts processing the request. Kept
    /// separate from [`service`](Self::service) so backlog and datapath
    /// cost are not conflated in one histogram.
    pub queue_wait: LatencyHistogram,
    /// Service-time distribution: processing start → completion. A pop's
    /// members share one fetch, so they record the batch's service span
    /// each.
    pub service: LatencyHistogram,
    /// Wall time of the whole run.
    pub wall: Duration,
    /// Worker threads used.
    pub workers: usize,
    /// Micro-batches popped.
    pub batches: usize,
    /// Largest micro-batch observed.
    pub max_batch_observed: usize,
    /// Read-fault bits injected across all requests.
    pub fault_bits: u64,
    /// Memory words read across all requests.
    pub words_read: u64,
    /// Words read per memory shard during the run (counter deltas; assumes
    /// no concurrent `serve` call shares the system).
    pub shard_reads: Vec<u64>,
    /// Per-inference energy/latency model, when configured.
    pub energy_per_inference: Option<SystemEnergyReport>,
    /// Drowsy standby leakage (memory leakage × plan scale), when both the
    /// energy model and a drowsy plan are configured.
    pub standby_leakage: Option<Watt>,
    /// Resilience-loop counters (BIST/scrub/repair/governor), when a
    /// [`ResilienceController`] is attached. Snapshot at report time.
    pub resilience: Option<ResilienceCounters>,
}

impl ServeReport {
    /// Requests served.
    pub fn requests(&self) -> usize {
        self.predictions.len()
    }

    /// Served requests per second of wall time.
    pub fn throughput_rps(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.requests() as f64 / secs
    }

    /// Memory words delivered per second of wall time — the bulk-read
    /// datapath's bandwidth figure. Batch-amortized rows still bill every
    /// logical copy, so this tracks the scalar path's accounting exactly.
    pub fn words_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.words_read as f64 / secs
    }

    /// Injected read-fault bits per bit read — the serving-Vdd bit-error
    /// rate actually observed by the request stream.
    pub fn observed_bit_error_rate(&self) -> f64 {
        let bits = self.words_read.saturating_mul(WORD_BITS as u64);
        if bits == 0 {
            return 0.0;
        }
        self.fault_bits as f64 / bits as f64
    }

    /// FNV-1a fingerprint of the prediction vector.
    pub fn digest(&self) -> u64 {
        prediction_digest(&self.predictions)
    }
}

/// One worker's share of a run, folded into the report after the join.
#[derive(Default)]
struct Tally {
    /// `(request id, prediction)` in completion order.
    results: Vec<(usize, usize)>,
    latency: LatencyHistogram,
    queue_wait: LatencyHistogram,
    service: LatencyHistogram,
    fault_bits: u64,
    words_read: u64,
    batches: usize,
    max_batch_observed: usize,
}

/// A shared-state inference server over one loaded [`NeuromorphicSystem`].
#[derive(Debug)]
pub struct InferenceServer {
    system: NeuromorphicSystem,
    options: ServeOptions,
    energy: Option<SystemEnergyReport>,
    drowsy: Option<DrowsyPlan>,
    /// Memory leakage power at the serving voltage (for drowsy standby
    /// reporting), from the array power rollup.
    memory_leakage: Option<Watt>,
    /// The resilience loop (BIST map, ECC sidecar, spare budget, BER
    /// governor), when attached.
    resilience: Option<ResilienceController>,
}

impl InferenceServer {
    /// Wraps a loaded system.
    pub fn new(system: NeuromorphicSystem, options: ServeOptions) -> Self {
        assert!(options.max_batch > 0, "max_batch must be at least 1");
        Self {
            system,
            options,
            energy: None,
            drowsy: None,
            memory_leakage: None,
            resilience: None,
        }
    }

    /// Attaches a per-inference energy/latency model (builder style).
    pub fn with_energy(mut self, report: SystemEnergyReport) -> Self {
        self.energy = Some(report);
        self
    }

    /// Attaches a drowsy voltage plan plus the memory leakage power it
    /// scales (builder style).
    pub fn with_drowsy(mut self, plan: DrowsyPlan, memory_leakage: Watt) -> Self {
        self.drowsy = Some(plan);
        self.memory_leakage = Some(memory_leakage);
        self
    }

    /// Attaches a booted resilience controller (builder style). The
    /// controller must have been built over this server's memory (after
    /// [`NeuromorphicSystem::new`] loaded it).
    pub fn with_resilience(mut self, controller: ResilienceController) -> Self {
        self.resilience = Some(controller);
        self
    }

    /// The wrapped system.
    pub fn system(&self) -> &NeuromorphicSystem {
        &self.system
    }

    /// Mutable access to the wrapped system — the maintenance port chaos
    /// injection degrades the store through.
    pub fn system_mut(&mut self) -> &mut NeuromorphicSystem {
        &mut self.system
    }

    /// The attached resilience controller, when any.
    pub fn resilience(&self) -> Option<&ResilienceController> {
        self.resilience.as_ref()
    }

    /// Runs one maintenance window (scrub sweep → spare-row repair → BER
    /// governor update) when a resilience controller is attached. Call
    /// between serving batches; the request path itself never mutates the
    /// store.
    pub fn maintain(&mut self) {
        if let Some(controller) = self.resilience.as_mut() {
            controller.maintain(self.system.memory_mut());
        }
    }

    /// The drowsy plan, when configured.
    pub fn drowsy_plan(&self) -> Option<&DrowsyPlan> {
        self.drowsy.as_ref()
    }

    /// Worker threads the next [`serve`](Self::serve) call will use.
    pub fn workers(&self) -> usize {
        sram_exec::resolve_workers(self.options.workers)
    }

    /// Words read so far per memory shard.
    fn shard_reads(&self) -> Vec<u64> {
        let counts = self.system.memory().shard_counts();
        counts.iter().map(|c| c.reads as u64).collect()
    }

    /// The reference prediction vector: request `i` classified on the
    /// `sram_exec` pool, no queue, no batching. [`serve`](Self::serve) must
    /// match this bit-for-bit — tests pin the two against each other.
    pub fn reference_predictions<S: AsRef<[f32]> + Sync>(&self, requests: &[S]) -> Vec<usize> {
        sram_exec::par_map_indexed(requests.len(), |i| {
            let mut ctx = InferContext::for_request(self.options.base_seed, i as u64);
            self.system.classify_request(requests[i].as_ref(), &mut ctx)
        })
    }

    /// Serves a closed batch of requests (request `i` has id `i`, all
    /// admitted at t=0) through the queue → micro-batcher → worker
    /// pipeline; blocks until the queue drains and returns the merged
    /// report.
    ///
    /// # Panics
    ///
    /// Propagates the first worker panic.
    pub fn serve<S: AsRef<[f32]> + Sync>(&self, requests: &[S]) -> ServeReport {
        self.serve_configured(requests, &self.options)
    }

    /// [`serve`](Self::serve) with per-call options — worker count, batch
    /// ceiling, and seed stream can be tuned without rebuilding the server
    /// (the loaded memory image is the expensive part).
    ///
    /// # Examples
    ///
    /// Predictions are bit-identical at any worker count and batch size;
    /// only throughput changes:
    ///
    /// ```
    /// use fault_inject::model::WordFailureModel;
    /// use fault_inject::protection::ProtectionPolicy;
    /// use neural::network::Mlp;
    /// use neural::quant::{Encoding, QuantizedMlp};
    /// use neuro_system::controller::NeuromorphicSystem;
    /// use neuro_system::layout;
    /// use neuro_system::npe::Npe;
    /// use sram_array::organization::{SubArrayDims, SynapticMemoryMap};
    /// use sram_array::sharded::ShardedMemory;
    /// use sram_serve::{InferenceServer, ServeOptions};
    ///
    /// let q = QuantizedMlp::from_mlp(&Mlp::new(&[8, 6, 3], 1), Encoding::TwosComplement);
    /// let words = layout::bank_words(&q);
    /// let map = SynapticMemoryMap::new(&words, &ProtectionPolicy::Uniform6T, SubArrayDims::PAPER);
    /// let memory = ShardedMemory::new(map, vec![WordFailureModel::ideal(); 2], 5, 2);
    /// let system = NeuromorphicSystem::new(&q, memory, Npe::new(q.format));
    /// let server = InferenceServer::new(system, ServeOptions::default());
    ///
    /// let requests: Vec<Vec<f32>> = (0..6).map(|i| vec![i as f32 / 6.0; 8]).collect();
    /// let one = server.serve_configured(
    ///     &requests,
    ///     &ServeOptions { workers: 1, max_batch: 1, base_seed: 42 },
    /// );
    /// let four = server.serve_configured(
    ///     &requests,
    ///     &ServeOptions { workers: 4, max_batch: 3, base_seed: 42 },
    /// );
    /// assert_eq!(one.predictions, four.predictions);
    /// assert_eq!(one.words_read, four.words_read);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `options.max_batch` is zero; propagates the first worker
    /// panic.
    pub fn serve_configured<S: AsRef<[f32]> + Sync>(
        &self,
        requests: &[S],
        options: &ServeOptions,
    ) -> ServeReport {
        assert!(options.max_batch > 0, "max_batch must be at least 1");
        let n = requests.len();
        let workers = sram_exec::resolve_workers(options.workers).min(n.max(1));
        let queue = BatchQueue::new(workers, options.max_batch);
        queue.push(0, (0..).zip(requests.iter().map(AsRef::as_ref)));
        queue.close();
        let shard_reads_before = self.shard_reads();
        let start = Instant::now();

        let tallies = sram_exec::run_workers(workers, |_| {
            let mut tally = Tally::default();
            let mut ctxs = Vec::new();
            let mut batch = Vec::with_capacity(options.max_batch);
            while queue.pop_batch(&mut batch) {
                tally.batches += 1;
                tally.max_batch_observed = tally.max_batch_observed.max(batch.len());
                classify_micro_batch(
                    &self.system,
                    options.base_seed,
                    &batch,
                    |&request| request,
                    &mut ctxs,
                    |&(id, _), done| {
                        let begun_ns = done.started.duration_since(start).as_nanos() as u64;
                        let done_ns = done.finished.duration_since(start).as_nanos() as u64;
                        tally.latency.record(done_ns);
                        tally.queue_wait.record(begun_ns);
                        tally.service.record(done_ns - begun_ns);
                        tally.fault_bits += done.fault_bits;
                        tally.words_read += done.words_read;
                        tally.results.push((id as usize, done.prediction));
                    },
                );
            }
            tally
        });
        let wall = start.elapsed();

        let mut total = Tally::default();
        for tally in tallies {
            total.results.extend(tally.results);
            total.latency.merge(&tally.latency);
            total.queue_wait.merge(&tally.queue_wait);
            total.service.merge(&tally.service);
            total.fault_bits += tally.fault_bits;
            total.words_read += tally.words_read;
            total.batches += tally.batches;
            total.max_batch_observed = total.max_batch_observed.max(tally.max_batch_observed);
        }
        let mut predictions = vec![usize::MAX; n];
        for (id, prediction) in total.results {
            predictions[id] = prediction;
        }
        debug_assert!(predictions.iter().all(|&p| p != usize::MAX));
        let shard_reads = (self.shard_reads().iter().zip(&shard_reads_before))
            .map(|(after, before)| after - before)
            .collect();

        let standby_leakage = match (&self.drowsy, self.memory_leakage) {
            (Some(plan), Some(leak)) => {
                Some(Watt::new(leak.watts() * plan.standby_leakage_scale()))
            }
            _ => None,
        };
        ServeReport {
            predictions,
            latency: total.latency,
            queue_wait: total.queue_wait,
            service: total.service,
            wall,
            workers,
            batches: total.batches,
            max_batch_observed: total.max_batch_observed,
            fault_bits: total.fault_bits,
            words_read: total.words_read,
            shard_reads,
            energy_per_inference: self.energy,
            standby_leakage,
            resilience: self.resilience.as_ref().map(|r| r.counters()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fault_inject::model::WordFailureModel;
    use fault_inject::protection::ProtectionPolicy;
    use neural::network::Mlp;
    use neural::quant::{Encoding, QuantizedMlp};
    use neuro_system::layout;
    use neuro_system::npe::Npe;
    use sram_array::organization::{SubArrayDims, SynapticMemoryMap};
    use sram_array::sharded::ShardedMemory;

    #[test]
    fn workers_reports_the_clamped_count() {
        let q = QuantizedMlp::from_mlp(&Mlp::new(&[4, 3, 2], 1), Encoding::TwosComplement);
        let map = SynapticMemoryMap::new(
            &layout::bank_words(&q),
            &ProtectionPolicy::Uniform6T,
            SubArrayDims::PAPER,
        );
        let memory = ShardedMemory::new(map, vec![WordFailureModel::ideal(); 2], 5, 1);
        let system = NeuromorphicSystem::new(&q, memory, Npe::new(q.format));
        let options = ServeOptions {
            workers: 100_000,
            ..ServeOptions::default()
        };
        assert_eq!(InferenceServer::new(system, options).workers(), 256);
    }
}
