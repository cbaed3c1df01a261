//! Bounded slice pool for fleet scheduling: one FIFO queue, `N` workers.
//!
//! The fleet used to spawn one OS thread per crawl job — at 1k+ sources
//! that is ~8 MB of stack per job and a coordinator drowning in context
//! switches. This module multiplexes any number of queued *slices* (one
//! budget grant for one job) onto `N` persistent worker threads:
//!
//! * the coordinator [`Pool::submit`]s tasks into one
//!   [`crossbeam::channel`] — the MPMC channel that also carries the
//!   serving tier's jobs;
//! * every worker `recv`s from that queue until the pool drops its sending
//!   end, so an idle worker blocks in `recv` and a slow slice holds only
//!   the worker running it while the others drain the rest;
//! * results flow back over a single `mpsc` channel ([`Pool::recv`]) — one
//!   task queue + one result channel total, not a channel pair per job.
//!
//! With one worker the queue drains strictly in submission order, which is
//! what makes `workers = 1` fleet runs bit-for-bit deterministic.
//!
//! The pool is deliberately oblivious to crawling: it moves `T`s through a
//! `Fn(TaskCtx, T) -> R` handler. Budget accounting, dispatch priority,
//! supervision, and breaker policy all stay in [`crate::fleet`], which also
//! re-submits a job's next slice only after folding the previous one — a job
//! is never in flight on two workers at once.

use crossbeam::channel::{self, Sender};
use std::sync::mpsc;
use std::thread::JoinHandle;

/// Where a task ran, passed to the pool handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskCtx {
    /// Index of the worker thread executing the task (`0..workers`).
    pub worker: u32,
}

/// Scheduler-level counters for a whole fleet run, derived from
/// [`crate::events::CrawlEvent::SliceScheduled`] /
/// [`crate::events::CrawlEvent::SliceCompleted`] streams by
/// [`crate::metrics::MetricsRegistry::scheduler_stats`] and surfaced as
/// [`crate::fleet::FleetReport`]`::scheduler`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SchedulerStats {
    /// Worker threads the pool ran with.
    pub workers: u32,
    /// Budget slices handed to the pool by the coordinator.
    pub slices_scheduled: u64,
    /// Slices that came back from a worker without panicking.
    pub slices_completed: u64,
    /// Rounds granted across all scheduled slices.
    pub rounds_granted: u64,
    /// Elapsed rounds actually billed across all completed slices.
    pub rounds_executed: u64,
    /// Always 0: workers share one queue and never steal from each other.
    /// Kept only because existing benchmark readers still report it.
    pub steals: u64,
    /// Completed slices per worker, indexed by worker id.
    pub per_worker_slices: Vec<u64>,
}

/// A bounded pool of persistent worker threads draining one FIFO queue.
///
/// Submit with [`Pool::submit`], collect with [`Pool::recv`] (results
/// arrive in completion order, each tagged however the handler tags them),
/// and tear down with [`Pool::join`] once every submitted task has been
/// received. The handler must not panic — wrap fallible work in
/// `catch_unwind` and encode the failure in `R`, as the fleet does.
/// Dropping the pool without joining detaches its workers: each exits once
/// the queue is drained or nobody is left to receive its result.
pub struct Pool<T, R> {
    tasks: Sender<T>,
    results: mpsc::Receiver<R>,
    handles: Vec<JoinHandle<()>>,
}

impl<T: Send + 'static, R: Send + 'static> Pool<T, R> {
    /// Spawns `workers` threads (clamped to at least 1) running `handler`
    /// over submitted tasks.
    pub fn new<F>(workers: usize, handler: F) -> Pool<T, R>
    where
        F: Fn(TaskCtx, T) -> R + Send + Clone + 'static,
    {
        let (tasks, queue) = channel::unbounded::<T>();
        let (result_tx, results) = mpsc::channel::<R>();
        let handles = (0..workers.max(1) as u32)
            .map(|worker| {
                let queue = queue.clone();
                let handler = handler.clone();
                let result_tx = result_tx.clone();
                std::thread::spawn(move || {
                    while let Ok(task) = queue.recv() {
                        if result_tx.send(handler(TaskCtx { worker }, task)).is_err() {
                            break; // coordinator gone; nothing left to report to
                        }
                    }
                })
            })
            .collect();
        Pool { tasks, results, handles }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Appends a task to the queue; the next idle worker picks it up.
    pub fn submit(&self, task: T) {
        // The queue is unbounded, so this fails only if every worker is gone.
        assert!(self.tasks.try_send(task).is_ok(), "pool workers alive");
    }

    /// Blocks until the next result arrives. Call exactly once per
    /// submitted task; calling with nothing in flight deadlocks by design
    /// (the workers are still alive waiting for work).
    pub fn recv(&self) -> R {
        self.results.recv().expect("pool workers alive")
    }

    /// Closes the queue and waits for every worker to exit. Call only after
    /// every submitted task has been [`Pool::recv`]'d.
    pub fn join(self) {
        let Pool { tasks, handles, .. } = self;
        drop(tasks);
        for handle in handles {
            handle.join().expect("pool worker panicked");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn pool_runs_every_task_exactly_once() {
        let pool = Pool::new(4, |ctx: TaskCtx, x: u64| (ctx.worker, x * x));
        assert_eq!(pool.workers(), 4);
        for x in 0..100u64 {
            pool.submit(x);
        }
        let mut sum = 0u64;
        for _ in 0..100 {
            let (worker, square) = pool.recv();
            assert!(worker < 4);
            sum += square;
        }
        assert_eq!(sum, (0..100u64).map(|x| x * x).sum());
        pool.join();
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let pool = Pool::new(0, |_ctx: TaskCtx, x: u32| x + 1);
        assert_eq!(pool.workers(), 1);
        pool.submit(41);
        assert_eq!(pool.recv(), 42);
        pool.join();
    }

    #[test]
    fn single_worker_preserves_submission_order() {
        let pool = Pool::new(1, |_ctx: TaskCtx, x: u32| x);
        for x in 0..50u32 {
            pool.submit(x);
        }
        let got: Vec<u32> = (0..50).map(|_| pool.recv()).collect();
        assert_eq!(got, (0..50).collect::<Vec<_>>(), "one worker drains FIFO in order");
        pool.join();
    }

    #[test]
    fn slow_task_does_not_strand_queued_work() {
        // Two workers, one long task submitted first: the second worker
        // must drain the rest of the queue while the first sleeps.
        let pool = Pool::new(2, |_ctx: TaskCtx, ms: u64| {
            std::thread::sleep(Duration::from_millis(ms));
            ms
        });
        pool.submit(60);
        for _ in 0..8 {
            pool.submit(0);
        }
        let start = std::time::Instant::now();
        let mut got = Vec::new();
        for _ in 0..9 {
            got.push(pool.recv());
        }
        got.sort_unstable();
        assert_eq!(got, vec![0, 0, 0, 0, 0, 0, 0, 0, 60]);
        assert!(
            start.elapsed() < Duration::from_millis(400),
            "quick tasks must not serialize behind the sleeper"
        );
        pool.join();
    }

    #[test]
    fn handler_sees_worker_ids_within_range() {
        let pool = Pool::new(3, |ctx: TaskCtx, _x: u8| ctx.worker);
        for _ in 0..30 {
            pool.submit(0);
        }
        for _ in 0..30 {
            assert!(pool.recv() < 3);
        }
        pool.join();
    }
}
