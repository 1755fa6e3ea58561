//! The one scheduler both serving tiers run on: [`BatchQueue`] hands
//! workers adaptive micro-batches, and [`classify_micro_batch`] runs each
//! batch through the one batch datapath,
//! [`NeuromorphicSystem::classify_batch`], on any store — read-faulty
//! stores included, where four requests' fault streams are sampled per
//! AVX2 pass. A request's randomness is
//! `derive_seed(seed, request_id)`, so its prediction and fault bits do
//! not depend on which worker popped it or which batch it landed in.
//!
//! Every pop holds the jobs of one tenant, in whole sampler passes where
//! the backlog allows: the queue keeps one FIFO per tenant, a pop serves
//! the tenant whose head job was queued first (admission order, so no
//! tenant starves), and its size, `adaptive_batch` of that tenant's
//! backlog, is rounded down to a multiple of [`REQUESTS_PER_PASS`] (at
//! least one pass) once the backlog holds a pass. A pop costs one scan
//! over the tenants, never over the jobs.

use neuro_system::controller::{InferContext, NeuromorphicSystem, REQUESTS_PER_PASS};
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// Default micro-batch ceiling, shared by `ServeOptions` and the net tier.
pub const DEFAULT_MAX_BATCH: usize = 16;

/// Micro-batch size for a tenant's backlog: split it so every worker gets
/// roughly two more turns, clamped to `[1, max_batch]`. A deep backlog
/// amortizes lock traffic; a draining one shrinks the pops and keeps the
/// stragglers balanced (tail imbalance ≤ ~half a batch). [`pop_size`]
/// then aligns it to whole sampler passes.
pub(crate) fn adaptive_batch(queue_len: usize, workers: usize, max_batch: usize) -> usize {
    (queue_len / (2 * workers.max(1))).clamp(1, max_batch.max(1))
}

/// Jobs one pop takes from a tenant with `backlog ≥ 1` queued:
/// [`adaptive_batch`] rounded down to a multiple of [`REQUESTS_PER_PASS`],
/// and at least one pass, when the backlog and `max_batch` both hold a
/// pass; otherwise `adaptive_batch` as is. A batch of whole passes leaves
/// no fault-sampler lane idle on a read-faulty store.
pub(crate) fn pop_size(backlog: usize, workers: usize, max_batch: usize) -> usize {
    let size = adaptive_batch(backlog, workers, max_batch).min(backlog);
    if backlog >= REQUESTS_PER_PASS && max_batch >= REQUESTS_PER_PASS {
        (size - size % REQUESTS_PER_PASS).max(REQUESTS_PER_PASS)
    } else {
        size
    }
}

/// Per-tenant FIFOs of jobs that workers pop in one-tenant adaptive
/// micro-batches.
#[derive(Debug)]
pub struct BatchQueue<J> {
    state: Mutex<QueueState<J>>,
    ready: Condvar,
    workers: usize,
    max_batch: usize,
}

#[derive(Debug)]
struct QueueState<J> {
    /// One FIFO per tenant index, of `(admission number, job)`.
    tenants: Vec<VecDeque<(u64, J)>>,
    /// Jobs pushed so far: the admission number of the latest.
    admitted: u64,
    closed: bool,
}

impl<J> BatchQueue<J> {
    /// An open, empty queue drained by `workers` workers in batches of at
    /// most `max_batch` (see [`pop_batch`](Self::pop_batch)).
    pub fn new(workers: usize, max_batch: usize) -> Self {
        Self {
            state: Mutex::new(QueueState {
                tenants: Vec::new(),
                admitted: 0,
                closed: false,
            }),
            ready: Condvar::new(),
            workers,
            max_batch,
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueState<J>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Appends `jobs`, in order, to `tenant`'s FIFO and wakes one blocked
    /// popper. Pushing a closed batch in one call costs one wake-up, not
    /// one per job.
    pub fn push(&self, tenant: usize, jobs: impl IntoIterator<Item = J>) {
        let mut guard = self.lock();
        let state = &mut *guard;
        if state.tenants.len() <= tenant {
            state.tenants.resize_with(tenant + 1, VecDeque::new);
        }
        let admitted = &mut state.admitted;
        state.tenants[tenant].extend(jobs.into_iter().map(|job| {
            *admitted += 1;
            (*admitted, job)
        }));
        drop(guard);
        self.ready.notify_one();
    }

    /// Marks the queue closed and wakes every blocked popper. Jobs already
    /// queued are still handed out.
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Blocks until a job is queued or the queue is closed, then moves the
    /// oldest `pop_size` jobs of the tenant whose head job was queued
    /// first into `batch` (cleared first). `false` once closed and empty.
    pub fn pop_batch(&self, batch: &mut Vec<J>) -> bool {
        batch.clear();
        let mut state = self.lock();
        loop {
            let heads = state.tenants.iter().enumerate();
            let oldest = heads
                .filter_map(|(t, fifo)| Some((fifo.front()?.0, t)))
                .min();
            if let Some((_, tenant)) = oldest {
                let fifo = &mut state.tenants[tenant];
                let take = pop_size(fifo.len(), self.workers, self.max_batch);
                batch.extend(fifo.drain(..take).map(|(_, job)| job));
                return true;
            }
            if state.closed {
                return false;
            }
            state = self.ready.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// What one request's classify produced.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    /// Predicted class.
    pub prediction: usize,
    /// Read-fault bits injected into the request.
    pub fault_bits: u64,
    /// Memory words the request read.
    pub words_read: u64,
    /// Compute start. Members of one micro-batch share one span.
    pub started: Instant,
    /// Compute end.
    pub finished: Instant,
}

/// Classifies one micro-batch on `system` and calls `done` for each job.
/// `request` names a job's request id in the seed stream rooted at
/// `seed`, and its input features. The whole batch runs through
/// [`NeuromorphicSystem::classify_batch`] on any store: one bank fetch per
/// layer feeds every request, and on a read-faulty store the requests'
/// fault streams are sampled four at a time. Predictions and accounting
/// depend only on each job's request id and features, never on the batch
/// it rides in.
///
/// `ctxs` is the caller's scratch. It grows to the largest batch seen and
/// may serve any system, since every request re-arms its context; its
/// first context holds the batch path's bank scratch.
pub fn classify_micro_batch<J>(
    system: &NeuromorphicSystem,
    seed: u64,
    batch: &[J],
    request: impl Fn(&J) -> (u64, &[f32]),
    ctxs: &mut Vec<InferContext>,
    mut done: impl FnMut(&J, Completion),
) {
    while ctxs.len() < batch.len() {
        ctxs.push(system.make_context(seed, 0));
    }
    let ctxs = &mut ctxs[..batch.len()];
    for (job, ctx) in batch.iter().zip(ctxs.iter_mut()) {
        ctx.reset(seed, request(job).0);
    }
    let features: Vec<&[f32]> = batch.iter().map(|job| request(job).1).collect();
    let started = Instant::now();
    let predictions = system.classify_batch(&features, ctxs);
    let finished = Instant::now();
    for ((job, ctx), prediction) in batch.iter().zip(ctxs.iter()).zip(predictions) {
        let completion = Completion {
            prediction,
            fault_bits: ctx.fault_bits(),
            words_read: ctx.reads(),
            started,
            finished,
        };
        done(job, completion);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn adaptive_batch_tracks_backlog() {
        // Deep queue: full batches. Draining queue: singles.
        assert_eq!(adaptive_batch(1024, 4, 16), 16);
        assert_eq!(adaptive_batch(64, 4, 16), 8);
        assert_eq!(adaptive_batch(7, 4, 16), 1);
        assert_eq!(adaptive_batch(0, 4, 16), 1);
        // Degenerate knobs stay sane.
        assert_eq!(adaptive_batch(100, 0, 16), 16);
        assert_eq!(adaptive_batch(100, 4, 0), 1);
    }

    #[test]
    fn empty_closed_queue_pops_nothing() {
        let queue: BatchQueue<u32> = BatchQueue::new(2, 16);
        queue.close();
        let mut batch = vec![7];
        assert!(!queue.pop_batch(&mut batch));
        assert!(batch.is_empty());
    }

    /// Pops every job of a closed queue; the sizes of the pops.
    fn drain_sizes<J: Copy>(queue: &BatchQueue<J>, popped: &mut Vec<J>) -> Vec<usize> {
        let mut sizes = Vec::new();
        let mut batch = Vec::new();
        while queue.pop_batch(&mut batch) {
            sizes.push(batch.len());
            popped.extend_from_slice(&batch);
        }
        sizes
    }

    #[test]
    fn pops_are_fifo_and_sized_by_backlog() {
        let queue = BatchQueue::new(2, 16);
        queue.push(0, 0..100u32);
        queue.close();
        let mut popped = Vec::new();
        let sizes = drain_sizes(&queue, &mut popped);
        assert_eq!(popped, (0..100).collect::<Vec<_>>());
        // Backlog / 4, clamped to 16, rounded down to whole passes.
        assert_eq!(sizes, [16, 16, 16, 12, 8, 8, 4, 4, 4, 4, 4, 4]);
    }

    #[test]
    fn a_wave_runs_as_whole_sampler_passes() {
        // 64 requests at 2 workers: 16 full four-request passes, where
        // plain backlog sizing pops 16, 12, 9, 6, 5, 4, 3, 2 and 7 singles.
        let queue = BatchQueue::new(2, 16);
        queue.push(0, 0..64u32);
        queue.close();
        let sizes = drain_sizes(&queue, &mut Vec::new());
        assert_eq!(sizes, [16, 12, 8, 4, 4, 4, 4, 4, 4, 4]);
        // Fewer jobs than a pass, or a ceiling below one, pop as before.
        assert_eq!(pop_size(3, 1, 16), 1);
        assert_eq!(pop_size(64, 2, 3), 3);
        assert_eq!(pop_size(7, 4, 16), 4);
    }

    #[test]
    fn pops_hold_one_tenant_in_admission_order() {
        let queue = BatchQueue::new(1, 16);
        // Alternating tenants, as a two-tenant request stream arrives.
        for id in 0..16u32 {
            queue.push((id % 2) as usize, [id]);
        }
        queue.close();
        let mut batch = Vec::new();
        let mut pops = Vec::new();
        while queue.pop_batch(&mut batch) {
            pops.push(batch.clone());
        }
        assert_eq!(
            pops,
            [
                vec![0, 2, 4, 6],
                vec![1, 3, 5, 7],
                vec![8, 10, 12, 14],
                vec![9, 11, 13, 15]
            ]
        );
    }

    /// Checks one pop of `(tenant, job id)` pairs against the model of
    /// what is queued per tenant, and moves the popped ids to `popped`.
    fn check_pop(
        batch: &[(usize, u32)],
        max_batch: usize,
        queued: &mut [VecDeque<u32>],
        popped: &mut [Vec<u32>],
    ) {
        let live = (0..queued.len()).filter(|&t| !queued[t].is_empty());
        let oldest = live.min_by_key(|&t| queued[t][0]).expect("a job is queued");
        let backlog = queued[oldest].len();
        assert!(!batch.is_empty() && batch.len() <= max_batch, "{batch:?}");
        assert!(
            batch.iter().all(|&(t, _)| t == oldest),
            "{batch:?} not all tenant {oldest}"
        );
        if backlog >= REQUESTS_PER_PASS && max_batch >= REQUESTS_PER_PASS {
            assert_eq!(
                batch.len() % REQUESTS_PER_PASS,
                0,
                "backlog {backlog}: {batch:?}"
            );
        }
        queued[oldest].drain(..batch.len().min(backlog));
        popped[oldest].extend(batch.iter().map(|&(_, id)| id));
    }

    proptest! {
        /// Random pushes and pops over 1-3 tenants: every pop is one
        /// tenant's, from the tenant with the oldest queued job, at most
        /// `max_batch`, whole passes when the backlog and ceiling allow;
        /// each tenant's pops replay its pushes; `close` still drains.
        #[test]
        fn pops_are_one_tenant_oldest_first_and_lane_aligned(
            tenants in 1usize..=3,
            workers in 1usize..=4,
            max_batch in (0usize..6).prop_map(|i| [1, 2, 3, 4, 6, 16][i]),
            ops in proptest::collection::vec((0usize..3, 0usize..3, 1usize..10), 1..40),
        ) {
            let queue = BatchQueue::new(workers, max_batch);
            let mut queued = vec![VecDeque::new(); tenants];
            let mut pushed = vec![Vec::new(); tenants];
            let mut popped = vec![Vec::new(); tenants];
            let mut next_id = 0u32;
            let mut batch = Vec::new();
            for (kind, tenant, count) in ops {
                if kind < 2 {
                    let tenant = tenant % tenants;
                    let ids: Vec<u32> = (next_id..next_id + count as u32).collect();
                    next_id += count as u32;
                    queue.push(tenant, ids.iter().map(|&id| (tenant, id)));
                    queued[tenant].extend(&ids);
                    pushed[tenant].extend(ids);
                } else if queued.iter().any(|q| !q.is_empty()) {
                    prop_assert!(queue.pop_batch(&mut batch));
                    check_pop(&batch, max_batch, &mut queued, &mut popped);
                }
            }
            queue.close();
            while queued.iter().any(|q| !q.is_empty()) {
                prop_assert!(queue.pop_batch(&mut batch));
                check_pop(&batch, max_batch, &mut queued, &mut popped);
            }
            prop_assert!(!queue.pop_batch(&mut batch));
            prop_assert!(batch.is_empty());
            prop_assert_eq!(popped, pushed);
        }
    }

    #[test]
    fn push_wakes_a_blocked_popper() {
        let queue = BatchQueue::new(1, 4);
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|scope| {
            let queue = &queue;
            scope.spawn(move || {
                let mut batch = Vec::new();
                while queue.pop_batch(&mut batch) {
                    let _ = tx.send(batch.clone());
                }
            });
            // Let the popper block on the empty queue; only the push can
            // hand it the job before the close below.
            std::thread::sleep(Duration::from_millis(20));
            queue.push(0, [1u32]);
            let got = rx.recv_timeout(Duration::from_secs(5));
            queue.close();
            assert_eq!(got, Ok(vec![1]));
        });
    }

    #[test]
    fn close_wakes_every_blocked_popper() {
        let queue: BatchQueue<u32> = BatchQueue::new(3, 4);
        std::thread::scope(|scope| {
            let poppers: Vec<_> = (0..3)
                .map(|_| scope.spawn(|| queue.pop_batch(&mut Vec::new())))
                .collect();
            std::thread::sleep(Duration::from_millis(20));
            queue.close();
            for popper in poppers {
                assert!(!popper.join().expect("popper"));
            }
        });
    }
}
