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
//! executions into `Core::level`, the one store of a level's bookings,
//! which no claimant writes. The driver claims beside `min(n, width) − 1`
//! helpers, each fed one *ticket* through the pool queue; with none
//! (`set_parallelism` 0 or 1, or a level of one execution) it runs the
//! level alone under its exclusive guard, in batch order
//! (`Runtime::run_alone`), and no pool is built: for the narrow levels of
//! single-thread runs one lock per execution costs less than a view per
//! level (DESIGN.md, "Parallel waves", gives the measurement). With
//! helpers every
//! claimant runs the same claim loop (`Runtime::run_pooled`): claim a
//! *run* of executions from the pool's [`Level`] block — the driver from
//! the front of the level, helpers from the back, each run a share of
//! what is left, so a level costs each claimant a few claims on the
//! shared cursor rather than one per execution — then push each one's
//! frame, run it, pop it and leave its outcome in the thread's own slot.
//! The block is re-armed in place, so a steady-state level allocates
//! nothing of its own (a fresh block only when a helper ticket of an
//! earlier level still holds it). Either way the driver commits the
//! results in batch order after the level, under exclusive access.
//!
//! For a pooled level the driver moves the runtime state into an `Arc`.
//! Each claimant takes a *view* of it after its first successful claim —
//! a clone of that `Arc` plus its own thread slot, taken out of the state
//! — and keeps it in a thread-local until its claim loop ends. Reads,
//! cache hits, frame pushes and the pop of a re-execution that read what
//! its previous run read (no edge changes) all go through the view: they
//! touch no lock word and write only the claimant's own slot, its node's
//! on-stack bit and nothing else. What changes shared state *pauses* the
//! level — a pop whose edges change, a memo miss, a write, a node
//! allocation, a read that merges partitions, a call to a node with an
//! execution booked or running, a `stats()` call: the claimant drops its
//! view, takes the lock exclusively and raises the pause flag, and waits
//! until every other claimant has dropped its view (which puts its slot
//! back) at its next runtime operation or claim. It then changes what it
//! must alone, and every claimant takes a fresh view at its next
//! operation. After the barrier the driver takes the state back out of
//! the `Arc`, so outside pooled levels exclusive access pays no refcount.
//!
//! The barrier counts executions, not threads: the driver waits until every
//! *claimed* execution has reported (a `Mutex` + `Condvar` pending count).
//! Each claimant drops its view before it reports. A ticket that reaches a
//! worker after the level's executions are all claimed exits without
//! touching the runtime state — it must, because once the barrier opens
//! the driver takes the state back and `Runtime::lock` treats contention
//! as re-entrancy again.
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
//!   frames through this slot, giving every worker its own call stack for
//!   dependence recording; the worker gauges use the same slots.
//!
//! Panics: the claim loop catches a body's panic and leaves its outcome in
//! its slot for the driver to roll back in batch order, so a level always
//! runs to completion. Only a fail-stop panic the runtime raises outside a
//! body (a cycle found while a log is reconciled) unwinds out of a claim
//! loop: a helper's drop guard then marks the level failed and wakes the
//! driver, which panics in turn, and a job that panics is caught so the
//! worker survives.

use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use crate::metrics::RuntimeMetrics;
use crate::runtime::Guard;
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
    /// The shared block of the current (or last) pooled level
    /// ([`ExecPool::arm`]).
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
            level: Arc::default(),
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

    /// Arms the level block for `width` executions claimed by `claimants`
    /// threads and returns it. The block is reset in place unless a ticket
    /// of an earlier level still holds it (a helper that has not returned
    /// yet), so steady-state levels allocate no block.
    fn arm(&mut self, width: usize, claimants: usize) -> Arc<Level> {
        let level = Level::new(width, claimants);
        match Arc::get_mut(&mut self.level) {
            Some(armed) => *armed = level,
            None => self.level = mem::with(mem::Tag::ExecPool, || Arc::new(level)),
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

/// The shared block of one pooled level: the claim cursor every executing
/// thread draws runs of executions from, and the barrier the driver waits
/// at. The booked executions themselves sit in `Core::level`, which the
/// claimants read through their views.
#[derive(Default)]
pub(crate) struct Level {
    /// Threads that claim in the level: the driver and its helpers.
    claimants: u32,
    /// The unclaimed executions `front..back`, packed as `back << 32 |
    /// front`: the driver claims from the front, helpers from the back.
    cursor: AtomicU64,
    barrier: Mutex<Barrier>,
    all_in: Condvar,
}

#[derive(Default)]
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
    fn new(width: usize, claimants: usize) -> Level {
        let width = u32::try_from(width).expect("a level fits the claim cursor");
        Level {
            claimants: claimants as u32,
            cursor: AtomicU64::new(u64::from(width) << 32),
            barrier: Mutex::new(Barrier {
                pending: width as usize,
                failed: false,
            }),
            all_in: Condvar::new(),
        }
    }

    /// Claims the next run of executions, from the front of the level
    /// (the driver) or from its back (a helper), or `None` once every
    /// execution is claimed. A run is a share of what is left, so a level
    /// costs each claimant a few claims, not one per execution, while the
    /// last executions still go one at a time to whoever is free. Drawn
    /// relaxed and without the runtime lock: runs only have to be
    /// disjoint, and a ticket that finds the level used up must not touch
    /// the runtime state.
    pub(crate) fn claim(&self, front: bool) -> Option<Range<usize>> {
        let mut cursor = self.cursor.load(Ordering::Relaxed);
        loop {
            let (lo, hi) = (cursor as u32, (cursor >> 32) as u32);
            if lo >= hi {
                return None;
            }
            let run = ((hi - lo) / (2 * self.claimants)).max(1);
            let (next, claimed) = if front {
                (cursor + u64::from(run), lo..lo + run)
            } else {
                (cursor - (u64::from(run) << 32), hi - run..hi)
            };
            match (self.cursor).compare_exchange_weak(
                cursor,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(claimed.start as usize..claimed.end as usize),
                Err(now) => cursor = now,
            }
        }
    }

    fn barrier(&self) -> MutexGuard<'_, Barrier> {
        self.barrier.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// One helper ticket, run by the worker with gauge slot `slot`: claim
    /// from the back of the level beside the driver, then report. The claim
    /// loop drops the helper's view before it returns: once the barrier
    /// opens, the driver takes the runtime state back. A ticket that
    /// claimed nothing touches neither the runtime state nor the barrier.
    fn help(&self, rt: &Runtime, slot: usize) {
        let _failed = FailOnUnwind(self);
        let t0 = crate::metrics::enabled().then(std::time::Instant::now);
        let ran = rt.run_pooled(self, false);
        if ran == 0 {
            return;
        }
        // Gauges first: once the barrier opens the driver may snapshot.
        if let Some(t0) = t0 {
            rt.root
                .metrics
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
    /// Executes the level booked in `Core::level` on the driver plus
    /// `min(parallelism, width) − 1` helpers from a pool of
    /// `parallelism − 1` threads (created lazily, rebuilt when the knob
    /// changes size). Returns, holding exclusive access again, once every
    /// execution has reported, with each one's outcome left in the slot of
    /// the thread that ran it for the driver's batch-order commit.
    ///
    /// With no helpers the driver runs the level alone under the guard it
    /// booked the level with ([`Runtime::run_alone`]), so the pool is never
    /// built. Otherwise it moves the runtime state into an `Arc`, opens the
    /// window (`par_active`) in which runtime operations go through the
    /// claimants' views and exclusive access pauses the level, and releases
    /// the lock; it claims beside the helpers, waits at the barrier, closes
    /// the window and takes the state back.
    pub(crate) fn run_level<'a>(&'a self, mut guard: Guard<'a>) -> Guard<'a> {
        let inner = &mut *guard;
        let width = inner.level.len();
        let helpers = inner.parallelism.min(width).saturating_sub(1);
        if helpers == 0 {
            return self.run_alone(guard);
        }
        let pool_size = inner.parallelism - 1;
        if inner
            .exec_pool
            .as_ref()
            .is_none_or(|p| p.workers() != pool_size)
        {
            inner.exec_pool = Some(ExecPool::new(pool_size, Arc::clone(&self.root.metrics)));
        }
        if inner.slots.len() <= pool_size {
            inner.slots.resize_with(pool_size + 1, Mutex::default);
        }
        inner.stats.parallel_levels += 1;
        inner.stats.parallel_executions += width as u64;
        let level_t0 = crate::metrics::enabled().then(std::time::Instant::now);
        let pool = inner.exec_pool.as_mut().expect("created above");
        let level = pool.arm(width, helpers + 1);
        // Tickets are submitted while the lock is still held, so no helper
        // can take a view before the state is shared and the window open.
        for _ in 0..helpers {
            pool.submit(Ticket {
                rt: self.clone(),
                level: Arc::clone(&level),
            });
        }
        guard.share();
        self.root.par_active.fetch_add(1, Ordering::Release);
        let window = ParWindow(&self.root.par_active);
        drop(guard);
        let ran = self.run_pooled(&level, true);
        let wait_t0 = level_t0.map(|_| std::time::Instant::now());
        let ok = level.wait(ran);
        drop(window);
        if let (Some(t0), Some(w0)) = (level_t0, wait_t0) {
            self.root.metrics.record_worker(
                0,
                (w0 - t0).as_nanos() as u64,
                w0.elapsed().as_nanos() as u64,
                ran,
            );
            self.root
                .metrics
                .level_latency_ns
                .record(t0.elapsed().as_nanos() as u64);
        }
        assert!(
            ok,
            "a runtime check failed on a pool worker (see its panic message above)"
        );
        let mut guard = self.lock();
        guard.own();
        guard
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
    use std::sync::atomic::{AtomicBool, AtomicUsize};
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
        let pool = ExecPool::new(1, Arc::clone(&rt.root.metrics));
        let pool_id = pool.id();
        // A width-1 level with nothing booked in `Core::level`: the
        // helper's claim indexes past the empty booking list and panics.
        let broken = Arc::new(Level::new(1, 2));
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
