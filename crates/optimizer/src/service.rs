//! [`OptService`]: a bounded hot-candidate queue drained by a worker
//! pool.
//!
//! The execution thread submits jobs and never blocks: a full queue
//! rejects the submission (the candidate stays profiled and can
//! re-trigger later), and completed results are collected with a
//! non-blocking [`OptService::drain`] at a point of the submitter's
//! choosing — which is what makes the installation *atomic from the
//! engine's perspective*: results are applied between guest blocks,
//! never mid-execution. [`OptService::flush`] blocks until the pipeline
//! is empty, used once at end of run so every enqueued candidate is
//! accounted for (installed or discarded, nothing silently lost).
//!
//! With a single worker the service completes jobs in FIFO submission
//! order — tests rely on this for deterministic install/discard
//! schedules.
//!
//! Jobs run outside the state lock and every critical section leaves
//! the state consistent, so a panic under the lock cannot tear it: a
//! poisoned lock is recovered with its contents kept, and counted in
//! [`ServiceStats::poisoned`].

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Exact lifetime counters for a service; see [`OptService::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Jobs accepted into the queue.
    pub enqueued: u64,
    /// Jobs whose worker function has finished.
    pub completed: u64,
    /// Submissions rejected because the queue was full.
    pub rejected: u64,
    /// Highest observed queue depth (queued + in flight).
    pub peak_depth: u64,
    /// Poisoned-lock recoveries.
    pub poisoned: u64,
}

struct State<J, R> {
    queue: VecDeque<J>,
    done: Vec<R>,
    in_flight: usize,
    shutdown: bool,
    stats: ServiceStats,
}

struct Shared<J, R> {
    state: Mutex<State<J, R>>,
    /// Signalled when work arrives or shutdown begins.
    work: Condvar,
    /// Signalled when the pipeline drains (queue empty, nothing in flight).
    idle: Condvar,
}

type Guard<'a, J, R> = MutexGuard<'a, State<J, R>>;

impl<J, R> Shared<J, R> {
    fn lock(&self) -> Guard<'_, J, R> {
        self.state.lock().unwrap_or_else(|p| self.recover(p))
    }

    fn wait<'a>(&self, cv: &Condvar, st: Guard<'a, J, R>) -> Guard<'a, J, R> {
        cv.wait(st).unwrap_or_else(|p| self.recover(p))
    }

    fn recover<'a>(&self, poisoned: PoisonError<Guard<'a, J, R>>) -> Guard<'a, J, R> {
        let mut st = poisoned.into_inner();
        st.stats.poisoned += 1;
        self.state.clear_poison();
        st
    }
}

/// A worker pool consuming jobs `J` and producing results `R` via a
/// caller-supplied function.
pub struct OptService<J, R> {
    shared: Arc<Shared<J, R>>,
    capacity: usize,
    workers: Vec<JoinHandle<()>>,
}

impl<J: Send + 'static, R: Send + 'static> OptService<J, R> {
    /// Starts `workers` threads (minimum 1) serving a queue bounded at
    /// `capacity` jobs. `run` is invoked once per job on a worker
    /// thread and must not panic.
    pub fn new<F>(workers: usize, capacity: usize, run: F) -> Self
    where
        F: Fn(J) -> R + Send + Sync + 'static,
    {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                done: Vec::new(),
                in_flight: 0,
                shutdown: false,
                stats: ServiceStats::default(),
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
        });
        let run = Arc::new(run);
        let handles = (0..workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                let run = Arc::clone(&run);
                std::thread::spawn(move || worker_loop(&shared, &*run))
            })
            .collect();
        OptService {
            shared,
            capacity: capacity.max(1),
            workers: handles,
        }
    }
}

impl<J, R> OptService<J, R> {
    /// Offers a job to the queue. Returns `false` (job dropped) when
    /// the queue is at capacity; never blocks.
    pub fn submit(&self, job: J) -> bool {
        let mut st = self.shared.lock();
        if st.queue.len() >= self.capacity {
            st.stats.rejected += 1;
            return false;
        }
        st.queue.push_back(job);
        st.stats.enqueued += 1;
        let depth = st.queue.len() + st.in_flight;
        st.stats.peak_depth = st.stats.peak_depth.max(depth as u64);
        drop(st);
        self.shared.work.notify_one();
        true
    }

    /// Collects every finished result without blocking, in completion
    /// order.
    #[must_use]
    pub fn drain(&self) -> Vec<R> {
        std::mem::take(&mut self.shared.lock().done)
    }

    /// Blocks until the queue is empty and no job is in flight, then
    /// collects every finished result.
    #[must_use]
    pub fn flush(&self) -> Vec<R> {
        let mut st = self.shared.lock();
        while !(st.queue.is_empty() && st.in_flight == 0) {
            st = self.shared.wait(&self.shared.idle, st);
        }
        std::mem::take(&mut st.done)
    }

    /// Jobs currently queued or in flight.
    #[must_use]
    pub fn depth(&self) -> usize {
        let st = self.shared.lock();
        st.queue.len() + st.in_flight
    }

    /// Exact lifetime counters.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        self.shared.lock().stats
    }
}

fn worker_loop<J, R>(shared: &Shared<J, R>, run: &(impl Fn(J) -> R + ?Sized)) {
    loop {
        let job = {
            let mut st = shared.lock();
            loop {
                if let Some(job) = st.queue.pop_front() {
                    st.in_flight += 1;
                    break job;
                }
                if st.shutdown {
                    return;
                }
                st = shared.wait(&shared.work, st);
            }
        };
        let result = run(job);
        let mut st = shared.lock();
        st.done.push(result);
        st.in_flight -= 1;
        st.stats.completed += 1;
        if st.queue.is_empty() && st.in_flight == 0 {
            shared.idle.notify_all();
        }
    }
}

impl<J, R> Drop for OptService<J, R> {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.work.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl<J, R> std::fmt::Debug for OptService<J, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OptService")
            .field("workers", &self.workers.len())
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_worker_completes_in_fifo_order() {
        let svc = OptService::new(1, 64, |x: u64| x * 2);
        for i in 0..10 {
            assert!(svc.submit(i));
        }
        let results = svc.flush();
        assert_eq!(results, (0..10).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(
            svc.stats(),
            ServiceStats {
                enqueued: 10,
                completed: 10,
                rejected: 0,
                peak_depth: svc.stats().peak_depth,
                poisoned: 0,
            }
        );
        assert!(svc.stats().peak_depth >= 1);
    }

    #[test]
    fn full_queue_rejects_without_blocking() {
        // A job that blocks until released keeps the single worker busy
        // so the queue genuinely fills.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = Arc::clone(&gate);
        let svc = OptService::new(1, 2, move |x: u64| {
            let (lock, cv) = &*g;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
            x
        });
        // First job may be picked up immediately; submit until the
        // 2-slot queue itself is full.
        let mut accepted = 0;
        while svc.submit(accepted) {
            accepted += 1;
            assert!(accepted < 16, "queue never filled");
        }
        assert!(accepted >= 2);
        let stats = svc.stats();
        assert_eq!(stats.enqueued, accepted);
        assert_eq!(stats.rejected, 1);
        // Release the workers and drain everything.
        *gate.0.lock().unwrap() = true;
        gate.1.notify_all();
        let results = svc.flush();
        assert_eq!(results.len() as u64, accepted);
        assert_eq!(svc.stats().completed, accepted);
    }

    #[test]
    fn drain_is_nonblocking_and_flush_collects_the_rest() {
        let svc = OptService::new(2, 64, |x: u64| x + 1);
        let _ = svc.drain(); // empty, returns immediately
        for i in 0..50 {
            assert!(svc.submit(i));
        }
        let mut got = svc.drain();
        got.extend(svc.flush());
        got.sort_unstable();
        assert_eq!(got, (1..=50).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_submitters_counters_stay_exact() {
        let svc = Arc::new(OptService::new(4, 8, |x: u64| x));
        let attempts = 4 * 500;
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let svc = Arc::clone(&svc);
                s.spawn(move || {
                    for i in 0..500 {
                        let _ = svc.submit(t * 1000 + i);
                    }
                });
            }
        });
        let results = svc.flush();
        let stats = svc.stats();
        assert_eq!(stats.enqueued + stats.rejected, attempts);
        assert_eq!(stats.completed, stats.enqueued);
        assert_eq!(results.len() as u64, stats.enqueued);
        assert!(stats.peak_depth <= 8 + 4, "bounded by capacity + workers");
    }

    #[test]
    fn poisoned_lock_recovers_and_counts() {
        let svc = OptService::new(1, 64, |x: u64| x + 1);
        assert!(svc.submit(1));
        assert_eq!(svc.flush(), vec![2]);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = svc.shared.state.lock().unwrap();
            panic!("holder panics under the service lock");
        }));
        // Whichever thread locks next — this one submitting, or the
        // idle worker re-entering its loop — recovers the lock; the
        // submission, the worker's pickup and completion, and the
        // blocking flush all go through it.
        assert!(svc.submit(2));
        assert_eq!(svc.flush(), vec![3]);
        let stats = svc.stats();
        assert_eq!((stats.enqueued, stats.completed), (2, 2));
        assert_eq!(stats.poisoned, 1, "recovered exactly once");
    }

    #[test]
    fn drop_joins_workers_with_jobs_outstanding() {
        let svc = OptService::new(2, 64, |x: u64| x);
        for i in 0..20 {
            let _ = svc.submit(i);
        }
        drop(svc); // must not hang or panic
    }
}
