//! `serve_fault_free` and `serve_maintain`: the closed-batch
//! `InferenceServer`, timed call by call from outside.

use crate::fixture::{ServeFixture, ServeKind};
use crate::stats::Sample;
use fault_inject::chaos::ChaosSchedule;
use neuro_system::controller::InferContext;
use sram_exec::derive_seed;
use sram_serve::{apply_chaos_event, LatencyHistogram, ResilienceCounters, ServeOptions};
use std::time::{Duration, Instant};

/// Requests per `serve` call on `serve_fault_free`.
pub const FAULT_FREE_BATCH: usize = 1024;
/// Distinct request batches `serve_fault_free` cycles through.
const FAULT_FREE_POOL: usize = 8;
/// Requests per wave on `serve_maintain`.
pub const WAVE: usize = 64;
/// Waves per round on `serve_maintain`; the chaos schedule strikes in
/// waves 1-3 of every round.
pub const WAVES_PER_ROUND: usize = 8;
/// Canonical partition the chaos schedule degrades one quarter of.
const CHAOS_SHARDS: usize = 4;
/// Stuck rows the chaos schedule injects.
const CHAOS_STUCK_ROWS: usize = 16;
/// Every `VERIFY_STRIDE`-th request of a `serve_maintain` wave is replayed
/// against the sequential reference.
const VERIFY_STRIDE: usize = 4;

/// What one measured pass of a serve workload observed.
#[derive(Debug, Default)]
pub struct ServePass {
    /// Requests served.
    pub requests: u64,
    /// Requests whose prediction disagreed with the sequential reference.
    pub mismatches: u64,
    /// Served predictions equal to the label.
    pub correct: u64,
    /// Wall time of each timed call (a closed batch, or a wave with its
    /// maintenance window), ns.
    pub call_ns: Vec<u64>,
    /// Maintenance windows alone, ns (traced `serve_maintain` only).
    pub maintain_ns: Vec<u64>,
    /// Merged server histograms (traced only).
    pub queue_wait: LatencyHistogram,
    pub service: LatencyHistogram,
    pub batches: u64,
    pub words_read: u64,
    /// Resilience counters after one full round (`serve_maintain`).
    pub counters: Option<ResilienceCounters>,
    /// Whether the store stayed read-fault-free (`serve_fault_free`).
    pub fault_free: bool,
}

impl ServePass {
    /// Timed seconds.
    pub fn measured_s(&self) -> f64 {
        self.call_ns.iter().sum::<u64>() as f64 / 1e9
    }

    pub fn latency_ms(&self) -> Sample {
        Sample::new(self.call_ns.iter().map(|&ns| ns as f64 / 1e6).collect())
    }
}

/// The image index of request `j` of batch `b`, seeded.
fn pick(seed: u64, b: usize, j: usize, n: usize, width: usize) -> usize {
    (derive_seed(seed, (b * width + j) as u64) % n as u64) as usize
}

/// `serve_fault_free`: closed batches of `FAULT_FREE_BATCH` through the
/// fixture's server until `budget` of timed serving has accumulated.
pub fn run_fault_free(fx: &ServeFixture, seed: u64, budget: Duration, trace: bool) -> ServePass {
    assert_eq!(fx.kind, ServeKind::FaultFree);
    let n = fx.test.features.len();
    let pool: Vec<Vec<usize>> = (0..FAULT_FREE_POOL)
        .map(|b| {
            (0..FAULT_FREE_BATCH)
                .map(|j| pick(seed, b, j, n, FAULT_FREE_BATCH))
                .collect()
        })
        .collect();
    let batches: Vec<Vec<&[f32]>> = pool
        .iter()
        .map(|idx| {
            idx.iter()
                .map(|&i| fx.test.features[i].as_slice())
                .collect()
        })
        .collect();
    let expected: Vec<Vec<usize>> = batches
        .iter()
        .map(|b| fx.server.reference_predictions(b))
        .collect();
    let mut pass = ServePass {
        fault_free: fx.server.system().memory().read_fault_free(),
        ..ServePass::default()
    };
    let mut k = 0usize;
    while pass.measured_s() < budget.as_secs_f64() {
        let b = k % FAULT_FREE_POOL;
        let t = Instant::now();
        let report = fx.server.serve(&batches[b]);
        pass.call_ns.push(t.elapsed().as_nanos() as u64);
        pass.requests += report.predictions.len() as u64;
        pass.mismatches += mismatches(&report.predictions, &expected[b]);
        pass.correct += pool[b]
            .iter()
            .zip(&report.predictions)
            .filter(|&(&i, &p)| fx.test.labels[i] == p)
            .count() as u64;
        if trace {
            absorb(&mut pass, &report);
        }
        k += 1;
    }
    pass
}

fn mismatches(got: &[usize], want: &[usize]) -> u64 {
    if got.len() != want.len() {
        return got.len().max(want.len()) as u64;
    }
    got.iter().zip(want).filter(|(g, w)| g != w).count() as u64
}

fn absorb(pass: &mut ServePass, report: &sram_serve::ServeReport) {
    pass.queue_wait.merge(&report.queue_wait);
    pass.service.merge(&report.service);
    pass.batches += report.batches as u64;
    pass.words_read += report.words_read;
}

/// `serve_maintain`: rounds, each on a freshly loaded and BIST-booted
/// store. A round serves `WAVES_PER_ROUND` waves of `WAVE` requests; its
/// chaos schedule strikes before waves 1-3 (untimed), and every wave times
/// `maintain()` plus its `serve` call. Each round draws its own store
/// write faults, chaos schedule and request picks from `(seed, round)`, so
/// one run averages the repair and scrub work over many store states.
/// Every `VERIFY_STRIDE`-th request of each wave is checked against the
/// sequential reference on the same store state.
pub fn run_maintain(fx: &ServeFixture, seed: u64, budget: Duration, trace: bool) -> ServePass {
    assert_eq!(fx.kind, ServeKind::Maintain);
    let n = fx.test.features.len();
    let total_words = fx.server.system().memory().len();
    let words_per_row = fx.server.system().memory().words_per_row();
    let mut pass = ServePass::default();
    let mut round = 0u64;
    while round == 0 || pass.measured_s() < budget.as_secs_f64() {
        let round_seed = derive_seed(seed, round);
        let picks = derive_seed(round_seed, 0x91C5);
        let schedule = ChaosSchedule::degraded_shard(
            derive_seed(round_seed, 0xC4A0),
            total_words,
            CHAOS_SHARDS,
            WAVES_PER_ROUND,
            words_per_row,
            CHAOS_STUCK_ROWS,
        );
        let (mut server, _, _) = fx.fresh_server(derive_seed(round_seed, 0x3E30), seed);
        for w in 0..WAVES_PER_ROUND {
            let idx: Vec<usize> = (0..WAVE).map(|j| pick(picks, w, j, n, WAVE)).collect();
            let wave: Vec<&[f32]> = idx
                .iter()
                .map(|&i| fx.test.features[i].as_slice())
                .collect();
            for event in schedule.events_at(w) {
                apply_chaos_event(server.system_mut().memory_mut(), event);
            }
            let options = ServeOptions {
                workers: fx.workers,
                max_batch: crate::fixture::MAX_BATCH,
                base_seed: derive_seed(seed, 0x5EED_0000 + w as u64),
            };
            let t = Instant::now();
            server.maintain();
            let maintained = t.elapsed();
            let report = server.serve_configured(&wave, &options);
            pass.call_ns.push(t.elapsed().as_nanos() as u64);
            pass.requests += report.predictions.len() as u64;
            if trace {
                pass.maintain_ns.push(maintained.as_nanos() as u64);
                absorb(&mut pass, &report);
            }
            let system = server.system();
            let checked: Vec<usize> = (0..wave.len()).step_by(VERIFY_STRIDE).collect();
            let reference = sram_exec::par_map_indexed(checked.len(), |k| {
                let mut ctx = InferContext::for_request(options.base_seed, checked[k] as u64);
                system.classify_request(wave[checked[k]], &mut ctx)
            });
            pass.mismatches += checked
                .iter()
                .zip(&reference)
                .filter(|&(&i, &r)| report.predictions[i] != r)
                .count() as u64;
            pass.correct += idx
                .iter()
                .zip(&report.predictions)
                .filter(|&(&i, &p)| fx.test.labels[i] == p)
                .count() as u64;
        }
        if pass.counters.is_none() {
            pass.counters = server.resilience().map(|r| r.counters());
        }
        round += 1;
    }
    pass
}
