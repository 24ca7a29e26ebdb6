//! Persistent worker pool for the sharded tick.
//!
//! [`TickPool`] replaces the per-tick `std::thread::scope` the farm used
//! through PR 2–4: workers are spawned **once** (per [`Simulation`], via
//! the farm that owns the pool) and parked on a condvar between ticks,
//! so the steady-state handoff cost of a parallel tick is one mutex
//! publish, one `notify_all`, and one completion wait — instead of
//! `threads` thread spawns and joins every 60 simulated seconds.
//!
//! # Execution model
//!
//! A caller hands [`TickPool::run`] a task count and a `Fn(usize)`
//! closure; the pool's workers *and the calling thread* claim task
//! indices from a shared atomic counter and run them. Which thread runs
//! a task is scheduling noise — determinism therefore requires (and the
//! farm's sweep guarantees) that tasks write only disjoint state and
//! that any floating-point reduction over task outputs is folded by the
//! caller in task order afterwards. The pool itself never touches task
//! outputs.
//!
//! The farm publishes one task per participant: a contiguous shard
//! range in the departure drain and the physics sweep, and one thermal
//! group's placement stream in between. At two participants the ranges
//! split at the hot/cold edge, and the calling thread, which publishes
//! and then claims first, normally takes task 0 — the hot group — in
//! every section, so each group's lanes stay in one core's cache across
//! the tick. With more participants the claim order is arbitrary and
//! the ranges are equal.
//!
//! The claim counter also makes the pool degrade gracefully on
//! oversubscribed or single-core hosts: if workers are never scheduled,
//! the calling thread simply claims every task itself and the only
//! parallel overhead left is one wake/wait round-trip.
//!
//! # Lifetime safety
//!
//! `run` publishes a raw pointer to the caller's borrowed closure and
//! does not return until every worker has finished the generation and
//! checked back in, so no worker can hold the closure (or the state it
//! borrows) after `run` returns. Shutdown joins every worker in
//! [`Drop`], so a pool owner never leaks threads.
//!
//! # Panics
//!
//! A task that panics ends its participant's claims for the
//! generation, never the wait. Workers run each generation under
//! `catch_unwind`, always check in, and keep the first panic payload;
//! the caller waits for every check-in through a guard that holds even
//! while its own task unwinds, and then resumes the kept panic on its
//! own thread. So a panic anywhere reaches the caller of `run`, after
//! every worker has let go of the closure, and the pool stays usable.
//!
//! [`Simulation`]: crate::Simulation

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

/// A persistent pool of parked worker threads for sharded tick work.
pub struct TickPool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

/// The state a worker parks on.
struct Handoff {
    /// Bumped once per published batch; a worker runs each generation
    /// exactly once.
    generation: u64,
    /// The current batch, `None` between batches.
    job: Option<Job>,
    /// Workers still running the current generation.
    active: usize,
    /// The first panic a worker caught in the current generation.
    panic: Option<Box<dyn Any + Send>>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<Handoff>,
    /// Wakes workers when a batch is published (or on shutdown).
    work_ready: Condvar,
    /// Wakes the caller when the last worker checks in.
    work_done: Condvar,
    /// Next unclaimed task index of the current batch.
    next: AtomicUsize,
    /// Per-worker busy nanoseconds of the current batch; written only
    /// for timed batches, read by the caller after the completion wait.
    busy_ns: Vec<AtomicU64>,
}

/// A published batch: a type-erased pointer to the caller's closure.
/// Sound because `run` blocks until every worker finished the batch.
#[derive(Clone, Copy)]
struct Job {
    task: *const (dyn Fn(usize) + Sync),
    count: usize,
    timed: bool,
}

// SAFETY: the pointee is a `Sync` closure the publishing thread keeps
// alive (and borrowed) for the entire batch; see the module docs.
unsafe impl Send for Job {}

impl TickPool {
    /// Spawns `workers` parked worker threads (the calling thread of
    /// [`TickPool::run`] participates too, so total parallelism is
    /// `workers + 1`).
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(Handoff {
                generation: 0,
                job: None,
                active: 0,
                panic: None,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            work_done: Condvar::new(),
            next: AtomicUsize::new(0),
            busy_ns: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        });
        let handles = (0..workers)
            .map(|slot| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("vmt-tick-{slot}"))
                    .spawn(move || worker_loop(&shared, slot))
                    .expect("spawn tick worker")
            })
            .collect();
        Self { shared, handles }
    }

    /// Number of pool worker threads (excluding the calling thread).
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Runs `task(i)` for every `i in 0..count`, distributing indices
    /// over the pool workers and the calling thread, and returns when
    /// all tasks finished. Tasks must touch only disjoint state (the
    /// caller's responsibility; the farm's shard views enforce it by
    /// construction).
    ///
    /// # Panics
    ///
    /// Resumes a task's panic on the calling thread once every worker
    /// has checked back in: the caller's own first, else the first a
    /// worker caught. Tasks left unclaimed by a panicking participant
    /// run on the others.
    pub fn run(&self, count: usize, task: &(dyn Fn(usize) + Sync)) {
        self.dispatch(count, task, None);
    }

    /// [`TickPool::run`] that also measures per-participant busy
    /// nanoseconds into `busy_out` (len `workers() + 1`; the last slot
    /// is the calling thread). Only telemetry-enabled sweeps call this —
    /// the untimed path takes no timestamps anywhere.
    pub fn run_timed(&self, count: usize, task: &(dyn Fn(usize) + Sync), busy_out: &mut [u64]) {
        debug_assert_eq!(busy_out.len(), self.workers() + 1);
        self.dispatch(count, task, Some(busy_out));
    }

    fn dispatch(&self, count: usize, task: &(dyn Fn(usize) + Sync), busy_out: Option<&mut [u64]>) {
        if count == 0 {
            if let Some(out) = busy_out {
                out.fill(0);
            }
            return;
        }
        let timed = busy_out.is_some();
        if timed {
            for slot in &self.shared.busy_ns {
                slot.store(0, Ordering::Relaxed);
            }
        }
        self.shared.next.store(0, Ordering::Relaxed);
        // SAFETY: erases the closure's borrow lifetime for the raw
        // pointer in `Job`. Sound because this function neither returns
        // nor unwinds until every worker checked back in for this
        // generation (the `Completion` guard below), so no worker holds
        // the pointer after the borrow ends.
        let erased: *const (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(task) };
        {
            let mut state = self.shared.state.lock().unwrap();
            state.generation += 1;
            state.active = self.handles.len();
            state.job = Some(Job {
                task: erased,
                count,
                timed,
            });
        }
        self.shared.work_ready.notify_all();

        // Participate: claim tasks alongside the workers. The guard's
        // completion wait runs on every way out of this block, unwinding
        // included, so no worker holds `erased` once `dispatch` is left.
        let mut worker_panic = None;
        let caller_busy = {
            let _completion = Completion {
                shared: &self.shared,
                panic: &mut worker_panic,
            };
            let started = timed.then(Instant::now);
            claim_tasks(&self.shared.next, count, task);
            started.map_or(0, |t0| t0.elapsed().as_nanos() as u64)
        };
        if let Some(payload) = worker_panic {
            resume_unwind(payload);
        }
        if let Some(out) = busy_out {
            for (dst, slot) in out.iter_mut().zip(&self.shared.busy_ns) {
                *dst = slot.load(Ordering::Relaxed);
            }
            out[self.handles.len()] = caller_busy;
        }
    }

    /// Weak handle to the pool's shared state; used by tests to prove
    /// the workers released it (i.e. actually exited) after drop.
    #[cfg(test)]
    fn shared_weak(&self) -> std::sync::Weak<Shared> {
        Arc::downgrade(&self.shared)
    }
}

/// The caller's completion barrier for one generation: dropping it waits
/// until every worker checked in, clears the published job and hands
/// over the first panic a worker caught. The mutex hand-back is also the
/// happens-before edge that publishes worker writes (shard state, busy
/// slots) to the caller.
struct Completion<'a> {
    shared: &'a Shared,
    panic: &'a mut Option<Box<dyn Any + Send>>,
}

impl Drop for Completion<'_> {
    fn drop(&mut self) {
        // This drop may run while the caller unwinds, where a panic
        // would abort. Every update under the lock leaves the handoff
        // valid, so a poisoned lock is taken as is.
        let mut state = self
            .shared
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while state.active > 0 {
            state = self
                .shared
                .work_done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.job = None;
        *self.panic = state.panic.take();
    }
}

/// Claims task indices from `next` and runs them until the batch's
/// `count` runs out.
fn claim_tasks(next: &AtomicUsize, count: usize, task: &(dyn Fn(usize) + Sync)) {
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= count {
            break;
        }
        task(i);
    }
}

impl Drop for TickPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().unwrap();
            state.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for TickPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TickPool")
            .field("workers", &self.handles.len())
            .finish()
    }
}

fn worker_loop(shared: &Shared, slot: usize) {
    let mut seen_generation = 0u64;
    loop {
        let job = {
            let mut state = shared.state.lock().unwrap();
            loop {
                if state.shutdown {
                    return;
                }
                if state.generation > seen_generation {
                    break;
                }
                state = shared.work_ready.wait(state).unwrap();
            }
            seen_generation = state.generation;
            state.job.expect("published generation carries a job")
        };
        let started = job.timed.then(Instant::now);
        // SAFETY: the publisher blocks in `dispatch` until this worker
        // checks back in below, so the closure outlives this use.
        let task = unsafe { &*job.task };
        // A panicking task must not skip the check-in: the caller waits
        // for it, and resumes the payload.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            claim_tasks(&shared.next, job.count, task);
        }));
        if let Some(t0) = started {
            shared.busy_ns[slot].store(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        let mut state = shared.state.lock().unwrap();
        if let Err(payload) = outcome {
            state.panic.get_or_insert(payload);
        }
        state.active -= 1;
        if state.active == 0 {
            shared.work_done.notify_one();
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::sync::Barrier;
    use std::time::Duration;

    /// Where a test injects its panic.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) enum Victim {
        /// The thread that called into the pool.
        Caller,
        /// Every pool worker that holds a task.
        Worker,
    }

    /// Runs `section` on a fresh pool of `participants` threads (the
    /// caller and `participants − 1` workers) and asserts that the
    /// panic injected on `victim` reaches the caller, that the pool then
    /// still runs every task, and that it drops cleanly. Every task of
    /// the section calls `hold`, which waits on a barrier of `holders`
    /// before the victim panics, so each participant holds one task when
    /// the panic fires.
    ///
    /// It all runs on a helper thread the test waits for with a
    /// timeout, so a pool that hangs fails the test instead of stalling
    /// the suite.
    pub(crate) fn assert_panic_reaches_caller(
        participants: usize,
        holders: usize,
        victim: Victim,
        section: fn(&TickPool, &(dyn Fn() + Sync)),
    ) {
        let (tx, rx) = mpsc::channel();
        let helper = std::thread::spawn(move || {
            let pool = TickPool::new(participants - 1);
            let caller = std::thread::current().id();
            // With fewer holders than participants the caller may claim
            // no task, and then nothing panics on it; run again.
            let message = (0..1000)
                .find_map(|_| {
                    let barrier = Barrier::new(holders);
                    let hold = || {
                        barrier.wait();
                        let on_caller = std::thread::current().id() == caller;
                        if on_caller == (victim == Victim::Caller) {
                            panic!("injected on {victim:?}");
                        }
                    };
                    let payload = catch_unwind(AssertUnwindSafe(|| section(&pool, &hold))).err()?;
                    let message = payload.downcast_ref::<String>().cloned();
                    Some(message.unwrap_or_else(|| "a payload that is not a String".into()))
                })
                .expect("the caller never held a task");
            let hits: Vec<AtomicU32> = (0..64).map(|_| AtomicU32::new(0)).collect();
            pool.run(hits.len(), &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            let weak = pool.shared_weak();
            drop(pool);
            let _ = tx.send((
                message,
                hits.iter().all(|hit| hit.load(Ordering::Relaxed) == 1),
                weak.upgrade().is_none(),
            ));
        });
        let label = format!("{participants} participants, panic on {victim:?}");
        match rx.recv_timeout(Duration::from_secs(30)) {
            Ok((message, reran, dropped)) => {
                helper.join().expect("the helper thread finished");
                assert_eq!(message, format!("injected on {victim:?}"), "{label}");
                assert!(reran, "{label}: the pool did not rerun every task");
                assert!(dropped, "{label}: a worker outlived the pool");
            }
            Err(RecvTimeoutError::Timeout) => panic!("{label}: the pool hung"),
            Err(RecvTimeoutError::Disconnected) => panic!("{label}: the helper thread failed"),
        }
    }

    #[test]
    fn a_panicking_task_reaches_the_caller_of_run() {
        for participants in [2, 3, 5] {
            for victim in [Victim::Worker, Victim::Caller] {
                assert_panic_reaches_caller(participants, participants, victim, |pool, hold| {
                    pool.run(pool.workers() + 1, &|_| hold());
                });
            }
        }
    }

    #[test]
    fn a_panicking_task_reaches_the_caller_of_run_timed() {
        for participants in [2, 3, 5] {
            for victim in [Victim::Worker, Victim::Caller] {
                assert_panic_reaches_caller(participants, participants, victim, |pool, hold| {
                    let mut busy = vec![0; pool.workers() + 1];
                    pool.run_timed(pool.workers() + 1, &|_| hold(), &mut busy);
                });
            }
        }
    }

    #[test]
    fn runs_every_task_exactly_once() {
        let pool = TickPool::new(3);
        let hits: Vec<AtomicU32> = (0..100).map(|_| AtomicU32::new(0)).collect();
        for _ in 0..50 {
            pool.run(hits.len(), &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        }
        for (i, hit) in hits.iter().enumerate() {
            assert_eq!(hit.load(Ordering::Relaxed), 50, "task {i}");
        }
    }

    #[test]
    fn zero_tasks_is_a_no_op() {
        let pool = TickPool::new(2);
        pool.run(0, &|_| panic!("no task should run"));
        let mut busy = vec![7u64; 3];
        pool.run_timed(0, &|_| panic!("no task should run"), &mut busy);
        assert_eq!(busy, vec![0, 0, 0]);
    }

    #[test]
    fn timed_run_reports_caller_participation() {
        let pool = TickPool::new(2);
        let mut busy = vec![0u64; 3];
        pool.run_timed(
            64,
            &|_| {
                std::hint::black_box((0..500).sum::<u64>());
            },
            &mut busy,
        );
        // The caller always participates (it claims until the counter
        // runs out), so its slot — the last — must be non-zero.
        assert!(busy[2] > 0, "caller busy time missing: {busy:?}");
    }

    #[test]
    fn drop_joins_all_workers() {
        let pool = TickPool::new(4);
        let weak = pool.shared_weak();
        pool.run(16, &|_| {});
        drop(pool);
        // Every worker held an Arc to the shared state; if any thread
        // leaked, the weak handle would still upgrade.
        assert!(
            weak.upgrade().is_none(),
            "a worker thread outlived the pool"
        );
    }

    #[test]
    fn reusable_across_many_generations_with_disjoint_writes() {
        use std::cell::UnsafeCell;
        /// Test-only disjoint-write helper mirroring how the farm hands
        /// shard views to the pool.
        struct SliceCells<'a>(&'a [UnsafeCell<u64>]);
        unsafe impl Sync for SliceCells<'_> {}
        impl SliceCells<'_> {
            /// SAFETY: each index must be presented by one thread only.
            unsafe fn add(&self, i: usize, v: u64) {
                unsafe { *self.0[i].get() += v }
            }
        }

        let pool = TickPool::new(2);
        let data: Vec<UnsafeCell<u64>> = (0..257).map(|_| UnsafeCell::new(0)).collect();
        for round in 1..=20u64 {
            let cells = SliceCells(&data);
            pool.run(data.len(), &move |i| {
                // SAFETY: each index is claimed by exactly one thread.
                unsafe { cells.add(i, round) };
            });
        }
        let expected: u64 = (1..=20).sum();
        for cell in &data {
            assert_eq!(unsafe { *cell.get() }, expected);
        }
    }
}
