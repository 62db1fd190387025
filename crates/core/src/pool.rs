//! A persistent worker pool for query-serving fan-out.
//!
//! The paper notes the τ RDB-trees parallelize "with little synchronization"
//! (§5.2.8, §6), but spawning OS threads per query throws the win away on
//! thread start-up latency. This pool is created once and reused: workers
//! park on a condition variable when idle, each has a *home* queue (the
//! serving engine maps shards onto queues so a shard's work tends to stay on
//! one worker and its warm state), and an idle worker steals from the other
//! queues before parking — work-stealing-ish, without the lock-free deques a
//! full implementation would need (no crates.io access; see `vendor/`).
//!
//! [`WorkerPool::run_scoped`] is the primary entry point: it executes a set
//! of borrowing closures and blocks until all complete, like
//! `std::thread::scope` but on pooled threads. [`global`] hands out one
//! process-wide pool so library code without a pool of its own (the
//! HD-Index build's per-tree stages) never spawns threads per call.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

/// A unit of pooled work.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

struct Shared {
    /// One FIFO per worker. Owners pop the front; thieves pop the back.
    queues: Vec<Mutex<VecDeque<Job>>>,
    /// Wake-up sequence number. Every submit bumps it *under this lock*
    /// after pushing, so a worker that re-checks the queues while holding
    /// the gate either sees the job or sees the sequence advance — no lost
    /// wake-ups.
    gate: Mutex<u64>,
    cv: Condvar,
    shutdown: AtomicBool,
}

impl Shared {
    fn pop(&self, home: usize) -> Option<Job> {
        if let Some(job) = self.queues[home].lock().pop_front() {
            return Some(job);
        }
        let n = self.queues.len();
        for off in 1..n {
            let victim = (home + off) % n;
            if let Some(job) = self.queues[victim].lock().pop_back() {
                return Some(job);
            }
        }
        None
    }

    fn has_work(&self) -> bool {
        self.queues.iter().any(|q| !q.lock().is_empty())
    }
}

/// A fixed-size pool of persistent worker threads with per-worker queues
/// and stealing. See the module docs for the design.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.handles.len())
            .finish()
    }
}

fn worker_loop(shared: Arc<Shared>, home: usize) {
    loop {
        if let Some(job) = shared.pop(home) {
            // Contain panics so one bad fire-and-forget job cannot kill the
            // worker (run_scoped layers its own capture on top of this and
            // re-raises on the caller).
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
            continue;
        }
        let guard = shared.gate.lock();
        if shared.shutdown.load(Ordering::Acquire) {
            // Queues were empty just above; drain stragglers and exit.
            drop(guard);
            while let Some(job) = shared.pop(home) {
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
            }
            return;
        }
        if shared.has_work() {
            continue;
        }
        let seen = *guard;
        drop(shared.cv.wait_while(guard, |seq| *seq == seen));
    }
}

impl WorkerPool {
    /// Spawns a pool of `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queues: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            gate: Mutex::new(0),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..threads)
            .map(|home| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("hd-pool-{home}"))
                    .spawn(move || worker_loop(shared, home))
                    .expect("spawn pool worker")
            })
            .collect();
        Self { shared, handles }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.handles.len()
    }

    /// Enqueues a fire-and-forget job. `hint` selects the home queue
    /// (`hint % threads`); callers with shard or tree affinity pass the
    /// shard/tree number so related work lands on the same worker.
    pub fn submit(&self, hint: usize, job: Job) {
        let q = hint % self.shared.queues.len();
        self.shared.queues[q].lock().push_back(job);
        let mut seq = self.shared.gate.lock();
        *seq += 1;
        // One job, one wake-up: every submit carries its own notification,
        // so notify_one cannot lose a sleeper (waiters wait on the sequence
        // number, which this bump already advanced under the gate).
        self.shared.cv.notify_one();
    }

    /// Runs every task on the pool and blocks until all have finished —
    /// `std::thread::scope` semantics on pooled threads. Tasks may borrow
    /// from the caller's stack. A panicking task does not poison the pool;
    /// the first captured panic is resumed on the caller after the whole
    /// set has completed.
    ///
    /// Must not be called from inside a job running on the *same* pool: the
    /// caller blocks its worker, and enough nested calls would park every
    /// worker on a latch nobody can open.
    pub fn run_scoped<'scope>(
        &self,
        tasks: impl IntoIterator<Item = (usize, Box<dyn FnOnce() + Send + 'scope>)>,
    ) {
        struct Latch {
            remaining: Mutex<usize>,
            cv: Condvar,
            panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
        }
        let tasks: Vec<(usize, Box<dyn FnOnce() + Send + 'scope>)> = tasks.into_iter().collect();
        let latch = Arc::new(Latch {
            remaining: Mutex::new(tasks.len()),
            cv: Condvar::new(),
            panic: Mutex::new(None),
        });
        for (hint, task) in tasks {
            // SAFETY: the transmute only erases the `'scope` lifetime of the
            // boxed closure (identical layout). Soundness rests on the wait
            // below: this function does not return until every task has run
            // to completion (or unwound), so all captured borrows are dead
            // before the caller's frame can be left.
            let task: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(task) };
            let latch = Arc::clone(&latch);
            self.submit(
                hint,
                Box::new(move || {
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task));
                    if let Err(payload) = result {
                        let mut slot = latch.panic.lock();
                        if slot.is_none() {
                            *slot = Some(payload);
                        }
                    }
                    let mut remaining = latch.remaining.lock();
                    *remaining -= 1;
                    if *remaining == 0 {
                        latch.cv.notify_all();
                    }
                }),
            );
        }
        let guard = latch.remaining.lock();
        drop(latch.cv.wait_while(guard, |remaining| *remaining > 0));
        let payload = latch.panic.lock().take();
        if let Some(payload) = payload {
            std::panic::resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let mut seq = self.shared.gate.lock();
            *seq += 1;
            self.shared.cv.notify_all();
        }
        for handle in self.handles.drain(..) {
            // Job panics are contained in worker_loop; a join error here
            // would mean a harness bug, and panicking inside Drop (possibly
            // mid-unwind) would abort — so swallow it.
            let _ = handle.join();
        }
    }
}

/// The process-wide pool, sized to the hardware, created on first use.
/// Library code without its own pool (the HD-Index build's per-tree
/// stages) runs here instead of spawning threads per call.
pub fn global() -> &'static WorkerPool {
    static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4);
        WorkerPool::new(threads)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn runs_every_task_exactly_once() {
        let pool = WorkerPool::new(4);
        let counter = AtomicUsize::new(0);
        let tasks: Vec<(usize, Box<dyn FnOnce() + Send + '_>)> = (0..64)
            .map(|i| {
                let c = &counter;
                let t: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    c.fetch_add(i, Ordering::Relaxed);
                });
                (i, t)
            })
            .collect();
        pool.run_scoped(tasks);
        assert_eq!(counter.load(Ordering::Relaxed), (0..64).sum());
    }

    #[test]
    fn scoped_tasks_can_write_disjoint_borrows() {
        let pool = WorkerPool::new(3);
        let mut slots = vec![0usize; 10];
        pool.run_scoped(slots.iter_mut().enumerate().map(|(i, slot)| {
            let t: Box<dyn FnOnce() + Send + '_> = Box::new(move || *slot = i * i);
            (i, t)
        }));
        let expect: Vec<usize> = (0..10).map(|i| i * i).collect();
        assert_eq!(slots, expect);
    }

    #[test]
    fn empty_task_set_returns_immediately() {
        let pool = WorkerPool::new(2);
        pool.run_scoped(Vec::<(usize, Box<dyn FnOnce() + Send>)>::new());
    }

    #[test]
    fn panic_in_task_propagates_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_scoped([(
                0usize,
                Box::new(|| panic!("task boom")) as Box<dyn FnOnce() + Send>,
            )]);
        }));
        assert!(result.is_err(), "panic must reach the caller");
        // The pool is still serviceable afterwards.
        let done = AtomicUsize::new(0);
        pool.run_scoped([(
            0usize,
            Box::new(|| {
                done.fetch_add(1, Ordering::Relaxed);
            }) as Box<dyn FnOnce() + Send>,
        )]);
        assert_eq!(done.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn concurrent_scopes_share_one_pool() {
        let pool = WorkerPool::new(4);
        let total = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let pool = &pool;
                let total = &total;
                s.spawn(move || {
                    pool.run_scoped((0..16).map(|i| {
                        let t: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                            total.fetch_add(1, Ordering::Relaxed);
                        });
                        (i, t)
                    }));
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 8 * 16);
    }

    #[test]
    fn stealing_drains_a_single_hot_queue() {
        // All jobs hint at queue 0; with 4 workers the others must steal for
        // the barrier to open promptly. Completion is the assertion.
        let pool = WorkerPool::new(4);
        let done = AtomicUsize::new(0);
        pool.run_scoped((0..32).map(|_| {
            let done = &done;
            let t: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                std::thread::sleep(std::time::Duration::from_millis(1));
                done.fetch_add(1, Ordering::Relaxed);
            });
            (0usize, t)
        }));
        assert_eq!(done.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn fire_and_forget_submit_runs() {
        let pool = WorkerPool::new(2);
        let flag = Arc::new(AtomicBool::new(false));
        let f = Arc::clone(&flag);
        pool.submit(
            1,
            Box::new(move || {
                f.store(true, Ordering::Release);
            }),
        );
        for _ in 0..500 {
            if flag.load(Ordering::Acquire) {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        panic!("submitted job never ran");
    }

    #[test]
    fn panicking_submit_job_does_not_kill_its_worker() {
        // One worker: if the panic escaped, the lone thread would die and
        // the run_scoped below would never open its latch.
        let pool = WorkerPool::new(1);
        pool.submit(0, Box::new(|| panic!("fire-and-forget boom")));
        let done = AtomicUsize::new(0);
        pool.run_scoped([(
            0usize,
            Box::new(|| {
                done.fetch_add(1, Ordering::Relaxed);
            }) as Box<dyn FnOnce() + Send>,
        )]);
        assert_eq!(done.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn global_pool_is_a_singleton() {
        let a = global() as *const WorkerPool;
        let b = global() as *const WorkerPool;
        assert_eq!(a, b);
        assert!(global().threads() >= 1);
    }
}
