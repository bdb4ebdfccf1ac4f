//! Persistent worker pool for level-parallel wave propagation.
//!
//! The evaluator (`drain_levels` in `runtime.rs`) drains the inconsistent
//! set one height level at a time. The paper's Section 4.5 observation
//! that height-order draining visits nodes "in a topological order with
//! respect to the graph" is what makes a level parallelizable: all dirty
//! nodes at the current minimum height are mutually independent (an edge
//! between them would force a height difference), so their executors may
//! run concurrently. Every level with eager executions goes through this
//! module's one seam, [`Runtime::run_level`], which supplies the threads.
//!
//! A level is executed by *claiming*. The driver books the level's
//! executions into `Inner::level`; every executing thread then runs the
//! same claim loop (`Runtime::run_claims`): take the next index from the
//! level's atomic claim counter, swap frames under one runtime-lock
//! acquisition (pop the finished execution's frame and compare its value,
//! push the claimed one's), run the executor, repeat until the index
//! passes the level's width. The driver claims beside
//! `min(n, width) − 1` helpers, each fed one *ticket* through the pool
//! queue; with none (`set_parallelism` 0 or 1, or a level of one
//! execution) it runs the level alone and no pool is built. Either way
//! the driver commits the results in batch order after the level. The
//! level's shared block is reused, so a steady-state level allocates
//! nothing of its own.
//!
//! The barrier counts executions, not threads: the driver waits until every
//! *claimed* execution has reported (a `Mutex` + `Condvar` pending count).
//! A ticket that reaches a worker after the level's indices are used up
//! exits without taking the runtime lock — it must, because once the
//! driver closes the window `Runtime::lock` treats contention as
//! re-entrancy and panics.
//!
//! The pool is deliberately minimal — std threads and one shared `mpsc`
//! job queue, no external dependencies:
//!
//! * Workers are **persistent**: spawned once when a runtime first needs
//!   them and reused across levels, waves and propagations, so steady-state
//!   parallel draining spawns nothing.
//! * Each worker stamps a thread-local identity `(pool id, slot)` at
//!   startup, where worker `k` has slot `k + 1` (slot 0 is every thread
//!   outside the pool, the driver included). The runtime routes execution
//!   frames through this slot (`Inner::stacks`), giving every worker its
//!   own call stack for dependence recording while all other node state
//!   stays behind the runtime's single lock; the worker gauges use the same
//!   slots.
//!
//! Panics: the claim loop catches a body's panic and leaves its outcome in
//! the slot for the driver to roll back in batch order, so a level always
//! runs to completion. Only a fail-stop panic the runtime raises outside a
//! body (a cycle found while a log is reconciled) unwinds out of a claim
//! loop: a helper's drop guard then marks the level failed and wakes the
//! driver, which panics in turn, and a job that panics is caught so the
//! worker survives.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use crate::metrics::RuntimeMetrics;
use crate::runtime::Inner;
use crate::Runtime;
use alphonse_mem as mem;

static NEXT_POOL_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// `(pool id, slot)` of the current thread, set once at worker startup
    /// (worker `k` has slot `k + 1`); `None` on every non-pool thread. The
    /// pool id keeps a worker of one runtime from being mistaken for a
    /// worker of another (a body running on runtime A's pool may legally
    /// touch runtime B).
    static WORKER_IDENTITY: Cell<Option<(u64, usize)>> = const { Cell::new(None) };
}

/// The `(pool id, slot)` identity of the current thread, if it is an
/// executor-pool worker.
pub(crate) fn worker_identity() -> Option<(u64, usize)> {
    WORKER_IDENTITY.with(Cell::get)
}

/// A fixed-size set of persistent executor threads owned by one runtime.
pub(crate) struct ExecPool {
    id: u64,
    workers: usize,
    /// Dropping the sender is the shutdown signal: `recv` errors out and
    /// every worker exits its loop.
    tx: Option<Sender<Ticket>>,
    handles: Vec<JoinHandle<()>>,
    /// The shared block of the current (or last) pooled level, re-armed in
    /// place for each level ([`ExecPool::arm`]).
    level: Arc<Level>,
}

impl ExecPool {
    /// Spawns `workers` (>= 1) persistent threads, all draining one shared
    /// ticket queue. Worker `k` takes slot `k + 1`, its stack slot and its
    /// gauge slot in the owning runtime's `metrics` (slot 0 is the
    /// propagation driver).
    pub(crate) fn new(workers: usize, metrics: Arc<RuntimeMetrics>) -> ExecPool {
        assert!(workers >= 1, "a worker pool needs at least one thread");
        let _mem = alphonse_mem::scope(alphonse_mem::Tag::ExecPool);
        let id = NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = channel::<Ticket>();
        let rx: Arc<Mutex<Receiver<Ticket>>> = Arc::new(Mutex::new(rx));
        let mut handles = Vec::with_capacity(workers);
        for slot in 1..=workers {
            let rx = Arc::clone(&rx);
            let metrics = Arc::clone(&metrics);
            let handle = std::thread::Builder::new()
                .name(format!("alphonse-exec-{id}-{slot}"))
                .spawn(move || {
                    WORKER_IDENTITY.with(|c| c.set(Some((id, slot))));
                    loop {
                        // The clock read is skipped while recording is off.
                        let wait_t0 = crate::metrics::enabled().then(std::time::Instant::now);
                        // Take the next ticket while holding the queue
                        // mutex, then release it before running, so other
                        // workers keep draining while this one executes.
                        let ticket = {
                            let guard = rx.lock().unwrap_or_else(|e| e.into_inner());
                            guard.recv()
                        };
                        let Ok(ticket) = ticket else { break };
                        // The wait is this thread's idle time; the ticket
                        // records its own busy time and executions before
                        // it reports to the level barrier.
                        if let Some(t0) = wait_t0 {
                            metrics.record_worker(slot, 0, t0.elapsed().as_nanos() as u64, 0);
                        }
                        let _ = catch_unwind(AssertUnwindSafe(move || {
                            ticket.level.help(&ticket.rt, slot);
                        }));
                    }
                })
                .expect("spawning executor worker thread");
            handles.push(handle);
        }
        ExecPool {
            id,
            workers,
            tx: Some(tx),
            handles,
            level: Arc::new(Level::new(0)),
        }
    }

    /// This pool's globally unique id (matches worker identities).
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// Number of worker threads.
    pub(crate) fn workers(&self) -> usize {
        self.workers
    }

    /// Arms the level block for `width` executions and returns it. The
    /// block is reset in place unless a ticket of an earlier level still
    /// holds it (a helper that has not returned yet), so steady-state
    /// levels allocate no block.
    fn arm(&mut self, width: usize) -> Arc<Level> {
        match Arc::get_mut(&mut self.level) {
            Some(level) => *level = Level::new(width),
            None => {
                self.level = mem::with(mem::Tag::ExecPool, || Arc::new(Level::new(width)));
            }
        }
        Arc::clone(&self.level)
    }

    /// Enqueues one ticket. Never blocks (the queue is unbounded); the
    /// ticket starts as soon as a worker frees up.
    fn submit(&self, ticket: Ticket) {
        // Bills the channel's internal queue blocks.
        let _mem = alphonse_mem::scope(alphonse_mem::Tag::ExecPool);
        self.tx
            .as_ref()
            .expect("pool alive until dropped")
            .send(ticket)
            .expect("workers outlive the pool handle");
    }
}

/// The shared block of one pooled level: the claim index every executing
/// thread draws from, and the barrier the driver waits at. The booked
/// executions themselves sit in `Inner::level`, where a claimant takes its
/// job in the same lock acquisition that pushes its frame.
struct Level {
    width: usize,
    next: AtomicUsize,
    barrier: Mutex<Barrier>,
    all_in: Condvar,
}

struct Barrier {
    /// Executions not yet reported finished.
    pending: usize,
    /// A helper's claim loop unwound with a fail-stop panic: `pending` will
    /// never reach zero.
    failed: bool,
}

/// One helper's share of a pooled level, sent through the pool queue by
/// value: claim beside the driver until the level's index is used up.
struct Ticket {
    rt: Runtime,
    level: Arc<Level>,
}

impl Level {
    fn new(width: usize) -> Level {
        Level {
            width,
            next: AtomicUsize::new(0),
            barrier: Mutex::new(Barrier {
                pending: width,
                failed: false,
            }),
            all_in: Condvar::new(),
        }
    }

    fn barrier(&self) -> MutexGuard<'_, Barrier> {
        self.barrier.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// One helper ticket, run by the worker with gauge slot `slot`: claim
    /// beside the driver, then report. A ticket that claimed nothing
    /// touches neither lock.
    fn help(&self, rt: &Runtime, slot: usize) {
        let _failed = FailOnUnwind(self);
        let t0 = crate::metrics::enabled().then(std::time::Instant::now);
        let (ran, guard) = rt.run_claims(None, &self.next, self.width);
        // Released before reporting: once the barrier opens, the driver
        // relocks with contention treated as re-entrancy again.
        drop(guard);
        if ran == 0 {
            return;
        }
        // Gauges first: once the barrier opens the driver may snapshot.
        if let Some(t0) = t0 {
            rt.metrics
                .record_worker(slot, t0.elapsed().as_nanos() as u64, 0, ran);
        }
        let mut b = self.barrier();
        b.pending -= ran as usize;
        if b.pending == 0 {
            self.all_in.notify_one();
        }
    }

    /// The driver's side of the barrier: report its own `ran` executions,
    /// then wait for the rest. `false` if a helper's claim loop unwound.
    fn wait(&self, ran: u64) -> bool {
        let mut b = self.barrier();
        b.pending -= ran as usize;
        while b.pending > 0 && !b.failed {
            b = self.all_in.wait(b).unwrap_or_else(|e| e.into_inner());
        }
        !b.failed
    }
}

/// Marks a level failed and wakes its driver when a helper's claim loop
/// unwinds with one of the runtime's fail-stop panics, so the barrier is
/// not left waiting.
struct FailOnUnwind<'a>(&'a Level);

impl Drop for FailOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.barrier().failed = true;
            self.0.all_in.notify_one();
        }
    }
}

/// Holds `Runtime::par_active` raised for one pooled level and lowers it
/// on every exit, including a panic in an execution the driver claimed.
struct ParWindow<'a>(&'a AtomicU32);

impl Drop for ParWindow<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Release);
    }
}

impl Runtime {
    /// Executes the level booked in `Inner::level` on the driver plus
    /// `min(parallelism, width) − 1` helpers from a pool of
    /// `parallelism − 1` threads (created lazily, rebuilt when the knob
    /// changes size). Returns, holding the runtime lock again, once every
    /// execution has reported, with each slot `Done` for the driver's
    /// batch-order commit.
    ///
    /// The driver enters its claim loop with the guard it booked the level
    /// under. With no helpers it runs the level alone and keeps the guard
    /// of its last pop, so a level of `k` executions costs `k` lock
    /// acquisitions and the pool is never built. Otherwise it releases
    /// that guard to wait at the barrier, and while helpers run,
    /// `par_active` makes lock contention block instead of tripping the
    /// re-entrancy panic.
    pub(crate) fn run_level<'a>(
        &'a self,
        mut guard: MutexGuard<'a, Inner>,
    ) -> MutexGuard<'a, Inner> {
        let inner = &mut *guard;
        let width = inner.level.len();
        let helpers = inner.parallelism.min(width).saturating_sub(1);
        if helpers == 0 {
            let (_, guard) = self.run_claims(Some(guard), &AtomicUsize::new(0), width);
            return guard.expect("the driver claims holding its guard");
        }
        let pool_size = inner.parallelism - 1;
        if inner
            .exec_pool
            .as_ref()
            .is_none_or(|p| p.workers() != pool_size)
        {
            inner.exec_pool = Some(ExecPool::new(pool_size, Arc::clone(&self.metrics)));
        }
        if inner.stacks.len() <= pool_size {
            inner.stacks.resize_with(pool_size + 1, Vec::new);
        }
        inner.stats.parallel_levels += 1;
        inner.stats.parallel_executions += width as u64;
        // Helpers may contend for the lock from here on: open the
        // blocking-lock window before the first ticket can start (tickets
        // are submitted below while the guard is still held, so no helper
        // can observe the flag too early).
        self.par_active.fetch_add(1, Ordering::Release);
        let window = ParWindow(&self.par_active);
        let level_t0 = crate::metrics::enabled().then(std::time::Instant::now);
        let pool = inner.exec_pool.as_mut().expect("created above");
        let level = pool.arm(width);
        for _ in 0..helpers {
            pool.submit(Ticket {
                rt: self.clone(),
                level: Arc::clone(&level),
            });
        }
        let (ran, guard) = self.run_claims(Some(guard), &level.next, width);
        drop(guard);
        let wait_t0 = level_t0.map(|_| std::time::Instant::now());
        let ok = level.wait(ran);
        drop(window);
        if let (Some(t0), Some(w0)) = (level_t0, wait_t0) {
            self.metrics.record_worker(
                0,
                (w0 - t0).as_nanos() as u64,
                w0.elapsed().as_nanos() as u64,
                ran,
            );
            self.metrics
                .level_latency_ns
                .record(t0.elapsed().as_nanos() as u64);
        }
        assert!(
            ok,
            "a runtime check failed on a pool worker (see its panic message above)"
        );
        self.lock()
    }
}

impl Drop for ExecPool {
    fn drop(&mut self) {
        drop(self.tx.take());
        // A helper ticket holds a runtime handle, so the last handle can
        // drop on a worker (a late ticket of a runtime the program already
        // dropped); that worker cannot join itself, and exits on its own
        // once it returns to the closed queue.
        let me = std::thread::current().id();
        for handle in self.handles.drain(..) {
            if handle.thread().id() != me {
                let _ = handle.join();
            }
        }
    }
}

impl std::fmt::Debug for ExecPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecPool")
            .field("id", &self.id)
            .field("workers", &self.workers)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Memo, Strategy, Var};
    use std::collections::HashSet;
    use std::sync::atomic::AtomicBool;
    use std::time::{Duration, Instant};

    /// `width` vars feeding one eager cell each, at `parallelism`; every
    /// cell runs `body` on its var's value.
    fn row(
        parallelism: usize,
        width: usize,
        body: impl Fn(i64) -> i64 + Send + Sync + Clone + 'static,
    ) -> (Runtime, Vec<Var<i64>>, Vec<Memo<(), i64>>) {
        let rt = Runtime::new();
        rt.set_parallelism(parallelism);
        let vars: Vec<Var<i64>> = (0..width).map(|i| rt.var(i as i64)).collect();
        let cells = vars
            .iter()
            .map(|&v| {
                let body = body.clone();
                rt.memo_with("cell", Strategy::Eager, move |rt, &(): &()| body(v.get(rt)))
            })
            .collect::<Vec<Memo<(), i64>>>();
        for c in &cells {
            c.call(&rt, ());
        }
        (rt, vars, cells)
    }

    /// Records the thread identity of each cell body once armed. An armed
    /// body also waits until `threads` bodies are in flight at once (or a
    /// generous timeout passes), so every executing thread of the level
    /// must claim one cell.
    #[derive(Default)]
    struct Rendezvous {
        armed: AtomicBool,
        arrived: AtomicUsize,
        seen: Mutex<HashSet<Option<(u64, usize)>>>,
    }

    impl Rendezvous {
        fn visit(&self, threads: usize) {
            if !self.armed.load(Ordering::SeqCst) {
                return;
            }
            self.arrived.fetch_add(1, Ordering::SeqCst);
            let t0 = Instant::now();
            while self.arrived.load(Ordering::SeqCst) < threads
                && t0.elapsed() < Duration::from_secs(10)
            {
                std::thread::yield_now();
            }
            self.seen.lock().unwrap().insert(worker_identity());
        }
    }

    #[test]
    fn claimed_values_come_back_in_batch_order() {
        let (rt, vars, cells) = row(3, 32, |x| x * 2);
        for (i, v) in vars.iter().enumerate() {
            v.set(&rt, 100 + i as i64);
        }
        rt.propagate();
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.call(&rt, ()), 2 * (100 + i as i64));
        }
        assert_eq!(rt.stats().parallel_executions, 32);
        rt.check_invariants();
    }

    #[test]
    fn workers_have_distinct_identities() {
        let meet = Arc::new(Rendezvous::default());
        let m = Arc::clone(&meet);
        let (rt, vars, _cells) = row(3, 3, move |x| {
            m.visit(3);
            x
        });
        meet.armed.store(true, Ordering::SeqCst);
        for v in &vars {
            v.set(&rt, -1);
        }
        rt.propagate();
        let pool = rt.lock().exec_pool.as_ref().expect("pool built").id();
        let want: HashSet<_> = [None, Some((pool, 1)), Some((pool, 2))].into();
        assert_eq!(
            *meet.seen.lock().unwrap(),
            want,
            "the driver and both helpers each ran one cell"
        );
        assert_eq!(worker_identity(), None, "the test thread has no identity");
    }

    #[test]
    fn a_panicking_ticket_fails_its_level_and_the_worker_survives() {
        let meet = Arc::new(Rendezvous::default());
        let m = Arc::clone(&meet);
        let (rt, vars, cells) = row(2, 2, move |x| {
            m.visit(2);
            x + 1
        });
        let mut pool = ExecPool::new(1, Arc::clone(&rt.metrics));
        let pool_id = pool.id();
        // A width-1 level with nothing booked in `Inner::level`: the
        // helper's claim indexes past the empty slot list and panics.
        let broken = pool.arm(1);
        pool.submit(Ticket {
            rt: rt.clone(),
            level: Arc::clone(&broken),
        });
        assert!(!broken.wait(0), "the driver is woken, not left waiting");
        // The same worker still claims its share of a real level.
        rt.lock().exec_pool = Some(pool);
        meet.armed.store(true, Ordering::SeqCst);
        for v in &vars {
            v.set(&rt, 50);
        }
        rt.propagate();
        assert!(cells.iter().all(|c| c.call(&rt, ()) == 51));
        let want: HashSet<_> = [None, Some((pool_id, 1))].into();
        assert_eq!(*meet.seen.lock().unwrap(), want);
    }
}
