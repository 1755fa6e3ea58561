//! The one scheduler both serving tiers run on: [`BatchQueue`] hands
//! workers adaptive micro-batches, and [`classify_micro_batch`] runs each
//! batch through the one batch datapath,
//! [`NeuromorphicSystem::classify_batch`], on any store — read-faulty
//! stores included, where four requests' fault streams are sampled per
//! AVX2 pass. A request's randomness is
//! `derive_seed(seed, request_id)`, so its prediction and fault bits do
//! not depend on which worker popped it or which batch it landed in.

use neuro_system::controller::{InferContext, NeuromorphicSystem};
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// Default micro-batch ceiling, shared by `ServeOptions` and the net tier.
pub const DEFAULT_MAX_BATCH: usize = 16;

/// Micro-batch size for the current backlog: split the queue so every
/// worker gets roughly two more turns, clamped to `[1, max_batch]`. A deep
/// queue amortizes lock traffic; a draining one falls back to single jobs
/// and keeps the stragglers balanced (tail imbalance ≤ ~half a batch).
pub(crate) fn adaptive_batch(queue_len: usize, workers: usize, max_batch: usize) -> usize {
    (queue_len / (2 * workers.max(1))).clamp(1, max_batch.max(1))
}

/// A FIFO of jobs that workers pop in adaptive micro-batches.
#[derive(Debug)]
pub struct BatchQueue<J> {
    state: Mutex<QueueState<J>>,
    ready: Condvar,
    workers: usize,
    max_batch: usize,
}

#[derive(Debug)]
struct QueueState<J> {
    jobs: VecDeque<J>,
    closed: bool,
}

impl<J> BatchQueue<J> {
    /// An open, empty queue drained by `workers` workers in batches of at
    /// most `max_batch` (see [`pop_batch`](Self::pop_batch)).
    pub fn new(workers: usize, max_batch: usize) -> Self {
        Self {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
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

    /// Appends `jobs` in order and wakes one blocked popper. Pushing a
    /// closed batch in one call costs one wake-up, not one per job.
    pub fn push(&self, jobs: impl IntoIterator<Item = J>) {
        self.lock().jobs.extend(jobs);
        self.ready.notify_one();
    }

    /// Marks the queue closed and wakes every blocked popper. Jobs already
    /// queued are still handed out.
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Blocks until a job is queued or the queue is closed, then moves the
    /// oldest `queue_len / (2·workers)` jobs, clamped to `[1, max_batch]`,
    /// into `batch` (cleared first). `false` once closed and empty.
    pub fn pop_batch(&self, batch: &mut Vec<J>) -> bool {
        batch.clear();
        let mut state = self.lock();
        loop {
            let queued = state.jobs.len();
            if queued > 0 {
                let take = adaptive_batch(queued, self.workers, self.max_batch).min(queued);
                batch.extend(state.jobs.drain(..take));
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
/// are bit-identical to [`NeuromorphicSystem::classify_request`] per
/// request.
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

    #[test]
    fn pops_are_fifo_and_sized_by_backlog() {
        let queue = BatchQueue::new(2, 16);
        queue.push(0..100u32);
        queue.close();
        let mut popped = Vec::new();
        let mut sizes = Vec::new();
        let mut batch = Vec::new();
        let mut queued = 100;
        while queue.pop_batch(&mut batch) {
            assert_eq!(batch.len(), adaptive_batch(queued, 2, 16).min(queued));
            queued -= batch.len();
            sizes.push(batch.len());
            popped.extend_from_slice(&batch);
        }
        assert_eq!(popped, (0..100).collect::<Vec<_>>());
        assert_eq!(sizes[..3], [16, 16, 16]);
        assert_eq!(sizes.last(), Some(&1));
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
            queue.push([1u32]);
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
