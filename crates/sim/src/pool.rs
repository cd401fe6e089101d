//! A hand-rolled spawn-once worker pool for run-level sweeps.
//!
//! One simulation is sequential by construction (its fair-share network
//! has zero lookahead), so the only parallelism in this workspace is
//! across independent runs: figure grids and barometer sweeps hand each
//! run to this pool. It is deliberately small:
//!
//! - **Spawn-once.** Workers are OS threads created in [`WorkerPool::new`]
//!   and reused for every batch.
//! - **Batch barrier.** [`WorkerPool::run_batch`] returns only when every
//!   job of the batch has finished.
//! - **Deterministic results.** Results come back in submission order
//!   regardless of which worker ran which job or in what order they
//!   finished.
//! - **Panic propagation.** A panicking job does not wedge the pool: the
//!   batch completes, the panic payload is re-raised on the caller's
//!   thread, and the pool remains usable for further batches.
//!
//! With `threads == 1` no worker threads exist at all and jobs run inline
//! on the caller's thread, in order — the sequential path is untouched by
//! construction, not by testing.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// A unit of work accepted by the pool's shared injector.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// A spawn-once thread pool executing batches of jobs with a barrier.
pub struct WorkerPool {
    /// Shared injector; `None` after shutdown begins (in `Drop`).
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Create a pool of `threads` workers. `threads <= 1` creates no OS
    /// threads: every batch runs inline on the caller's thread.
    pub fn new(threads: usize) -> WorkerPool {
        let threads = threads.max(1);
        if threads == 1 {
            return WorkerPool {
                tx: None,
                workers: Vec::new(),
            };
        }
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..threads)
            .map(|i| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("adapt-worker-{i}"))
                    .spawn(move || worker_loop(rx))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            tx: Some(tx),
            workers,
        }
    }

    /// The host's available hardware parallelism (fallback 1).
    pub fn host_threads() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// Run a batch of jobs to completion and return their results in
    /// submission order. This is a barrier: no job of a later batch can
    /// start before every job of this one has finished. If any job
    /// panicked, the panic of the earliest such job (by submission index)
    /// is re-raised here after the whole batch has drained, and the pool
    /// stays usable.
    pub fn run_batch<T: Send + 'static>(
        &self,
        jobs: Vec<Box<dyn FnOnce() -> T + Send + 'static>>,
    ) -> Vec<T> {
        let tx = match &self.tx {
            // Inline path: run in order on the caller's thread; a panic
            // propagates directly.
            None => return jobs.into_iter().map(|j| j()).collect(),
            Some(tx) => tx,
        };
        let n = jobs.len();
        let (res_tx, res_rx) = channel::<(usize, std::thread::Result<T>)>();
        for (idx, job) in jobs.into_iter().enumerate() {
            let res_tx = res_tx.clone();
            let wrapped: Job = Box::new(move || {
                let out = catch_unwind(AssertUnwindSafe(job));
                // The batch owner may have abandoned collection after an
                // earlier panic; a closed channel is not an error here.
                let _ = res_tx.send((idx, out));
            });
            tx.send(wrapped).expect("pool workers alive");
        }
        drop(res_tx);
        let mut slots: Vec<Option<std::thread::Result<T>>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            let (idx, out) = res_rx.recv().expect("every job reports exactly once");
            slots[idx] = Some(out);
        }
        // Whole batch drained (the barrier); now surface the earliest
        // panic, if any, on the caller's thread.
        let mut results = Vec::with_capacity(n);
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for slot in slots {
            match slot.expect("slot filled") {
                Ok(v) => results.push(v),
                Err(p) => {
                    if panic.is_none() {
                        panic = Some(p);
                    }
                }
            }
        }
        if let Some(p) = panic {
            resume_unwind(p);
        }
        results
    }

    /// Convenience: apply `f` to every item, in parallel, preserving item
    /// order in the result. The pool-of-one runs inline and in order.
    pub fn map<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send + 'static,
        T: Send + 'static,
        F: Fn(I) -> T + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let jobs: Vec<Box<dyn FnOnce() -> T + Send + 'static>> = items
            .into_iter()
            .map(|item| {
                let f = Arc::clone(&f);
                Box::new(move || f(item)) as Box<dyn FnOnce() -> T + Send + 'static>
            })
            .collect();
        self.run_batch(jobs)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the injector ends every worker's recv loop.
        self.tx = None;
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(rx: Arc<Mutex<Receiver<Job>>>) {
    loop {
        // Hold the lock only while drawing the next job, never while
        // running it.
        let job = match rx.lock() {
            Ok(guard) => guard.recv(),
            Err(_) => return, // a sibling worker panicked mid-recv; bail
        };
        match job {
            Ok(job) => job(),
            Err(_) => return, // injector closed: shutdown
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn boxed<T: Send + 'static>(
        f: impl FnOnce() -> T + Send + 'static,
    ) -> Box<dyn FnOnce() -> T + Send + 'static> {
        Box::new(f)
    }

    #[test]
    fn results_come_back_in_submission_order() {
        for threads in [1, 2, 4, 8] {
            let pool = WorkerPool::new(threads);
            let jobs = (0..32u64)
                .map(|i| {
                    boxed(move || {
                        // Stagger finish order so late-submitted jobs finish
                        // first on multi-threaded pools.
                        if threads > 1 {
                            std::thread::sleep(std::time::Duration::from_micros((32 - i) * 50));
                        }
                        i * i
                    })
                })
                .collect();
            let out = pool.run_batch(jobs);
            assert_eq!(out, (0..32u64).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn batches_are_barriers() {
        let pool = WorkerPool::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        for round in 1..=5usize {
            let jobs = (0..8)
                .map(|_| {
                    let c = Arc::clone(&counter);
                    boxed(move || c.fetch_add(1, Ordering::SeqCst))
                })
                .collect::<Vec<_>>();
            pool.run_batch(jobs);
            // Every job of the round has run before run_batch returned.
            assert_eq!(counter.load(Ordering::SeqCst), round * 8);
        }
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        assert!(pool.workers.is_empty(), "threads=1 must spawn nothing");
        let caller = std::thread::current().id();
        let out = pool.run_batch(vec![boxed(move || std::thread::current().id() == caller)]);
        assert_eq!(out, vec![true]);
    }

    #[test]
    fn panic_propagates_and_pool_survives() {
        let pool = WorkerPool::new(3);
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> =
            vec![boxed(|| 1), boxed(|| panic!("job 1 exploded")), boxed(|| 3)];
        let err = catch_unwind(AssertUnwindSafe(|| pool.run_batch(jobs)))
            .expect_err("panic must propagate to the caller");
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert!(msg.contains("job 1 exploded"), "{msg}");
        // The pool is still fully usable afterwards.
        let out = pool.map((0..16u32).collect(), |i| i + 1);
        assert_eq!(out, (1..=16u32).collect::<Vec<_>>());
    }

    #[test]
    fn earliest_panic_wins() {
        let pool = WorkerPool::new(4);
        let jobs: Vec<Box<dyn FnOnce() + Send>> = (0..8)
            .map(|i| {
                boxed(move || {
                    if i >= 2 {
                        panic!("job {i} failed")
                    }
                })
            })
            .collect();
        let err = catch_unwind(AssertUnwindSafe(|| pool.run_batch(jobs))).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert_eq!(msg, "job 2 failed");
    }

    #[test]
    fn map_preserves_order_across_widths() {
        let items: Vec<u64> = (0..100).collect();
        let expect: Vec<u64> = items.iter().map(|i| i * 3 + 1).collect();
        for threads in [1, 2, 4, 8] {
            let pool = WorkerPool::new(threads);
            assert_eq!(pool.map(items.clone(), |i| i * 3 + 1), expect);
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let pool = WorkerPool::new(2);
        let out: Vec<u8> = pool.run_batch(Vec::new());
        assert!(out.is_empty());
    }
}
