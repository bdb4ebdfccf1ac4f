//! Persistent worker pool for level-parallel wave propagation.
//!
//! The paper's evaluator is sequential; its Section 4.5 observation that
//! height-order draining visits nodes "in a topological order with respect
//! to the graph" is also what makes one step of that order parallelizable:
//! all dirty nodes at the current minimum height are mutually independent
//! (an edge between them would force a height difference), so their
//! executors may run concurrently. This module supplies the threads and
//! the one seam through which the level drain (`drain_levels` in
//! `runtime.rs`) executes a booked level: [`Runtime::run_level`] runs it
//! inline or on the pool.
//!
//! The pool is deliberately minimal — std threads and one shared `mpsc`
//! job queue, no external dependencies:
//!
//! * Workers are **persistent**: spawned once when a runtime first needs
//!   them and reused across levels, waves and propagations, so steady-state
//!   parallel draining spawns nothing.
//! * Jobs are drained from a single shared queue (receiver behind a mutex),
//!   so a level whose executors have uneven costs load-balances dynamically
//!   instead of committing to a static per-worker split.
//! * Each worker stamps a thread-local identity `(pool id, slot)` at
//!   startup. The runtime routes execution frames through this identity
//!   (`Inner::worker_stacks`), giving every worker its own call stack for
//!   dependence recording while all other node state stays behind the
//!   runtime's single lock.
//!
//! A job that panics is caught so the worker survives; the level scheduler
//! notices the missing result and propagates the failure on the driver
//! thread (the runtime is documented as unspecified-but-memory-safe after a
//! panic unwinds out of an executor).

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

use crate::metrics::RuntimeMetrics;
use crate::runtime::{Executor, Frame, Inner};
use crate::{Runtime, Value};
use alphonse_mem as mem;

/// One booked execution of a level: the executor and the call frame
/// `exec_book` prepared for it (the frame names the node).
pub(crate) type LevelJob = (Executor, Frame);

/// A unit of work for one worker: runs on the worker thread, communicates
/// its result through whatever channel the submitter captured in it.
pub(crate) type Job = Box<dyn FnOnce() + Send>;

static NEXT_POOL_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// `(pool id, worker slot)` of the current thread, set once at worker
    /// startup; `None` on every non-pool thread. The pool id keeps a worker
    /// of one runtime from being mistaken for a worker of another (a body
    /// running on runtime A's pool may legally touch runtime B).
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
    tx: Option<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
    /// The owning runtime's telemetry registry: workers tally busy/idle
    /// time and job counts into its per-slot gauges, `submit` maintains the
    /// queue-depth gauge. Recording is compiled in by the `metrics`
    /// feature; the handle itself is always carried so the constructor
    /// signature is feature-independent.
    #[cfg_attr(not(feature = "metrics"), allow(dead_code))]
    metrics: Arc<RuntimeMetrics>,
}

impl ExecPool {
    /// Spawns `workers` (>= 1) persistent threads, all draining one shared
    /// job queue.
    pub(crate) fn new(workers: usize, metrics: Arc<RuntimeMetrics>) -> ExecPool {
        assert!(workers >= 1, "a worker pool needs at least one thread");
        let _mem = alphonse_mem::scope(alphonse_mem::Tag::ExecPool);
        let id = NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = channel::<Job>();
        let rx: Arc<Mutex<Receiver<Job>>> = Arc::new(Mutex::new(rx));
        let mut handles = Vec::with_capacity(workers);
        for slot in 0..workers {
            let rx = Arc::clone(&rx);
            #[cfg_attr(not(feature = "metrics"), allow(unused_variables))]
            let metrics = Arc::clone(&metrics);
            let handle = std::thread::Builder::new()
                .name(format!("alphonse-exec-{id}-{slot}"))
                .spawn(move || {
                    WORKER_IDENTITY.with(|c| c.set(Some((id, slot))));
                    loop {
                        // Clock reads bracket the queue wait and the job
                        // run; both are skipped while recording is off.
                        #[cfg(feature = "metrics")]
                        let wait_t0 = crate::metrics::enabled().then(std::time::Instant::now);
                        // Take the next job while holding the queue mutex,
                        // then release it before running, so other workers
                        // keep draining while this one executes.
                        let job = {
                            let guard = rx.lock().unwrap_or_else(|e| e.into_inner());
                            guard.recv()
                        };
                        let Ok(job) = job else { break };
                        #[cfg(feature = "metrics")]
                        let (idle_ns, run_t0) = match wait_t0 {
                            Some(t0) => {
                                metrics.queue_pop();
                                (
                                    t0.elapsed().as_nanos() as u64,
                                    Some(std::time::Instant::now()),
                                )
                            }
                            None => (0, None),
                        };
                        let _ = catch_unwind(AssertUnwindSafe(job));
                        #[cfg(feature = "metrics")]
                        if let Some(t0) = run_t0 {
                            metrics.record_worker_job(
                                slot,
                                t0.elapsed().as_nanos() as u64,
                                idle_ns,
                            );
                        }
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
            metrics,
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

    /// Enqueues one job. Never blocks (the queue is unbounded); the job
    /// starts as soon as a worker frees up.
    pub(crate) fn submit(&self, job: Job) {
        // The job box itself was billed at the caller's `Box::new`; this
        // covers the channel's internal queue blocks.
        let _mem = alphonse_mem::scope(alphonse_mem::Tag::ExecPool);
        #[cfg(feature = "metrics")]
        if crate::metrics::enabled() {
            self.metrics.queue_push();
        }
        self.tx
            .as_ref()
            .expect("pool alive until dropped")
            .send(job)
            .expect("workers outlive the pool handle");
    }
}

impl Runtime {
    /// Executes one booked level and returns the values in batch order.
    /// This is the only place that chooses between inline and pooled
    /// execution: the level runs inline on the driver when `parallelism <=
    /// 1` or fewer than two eager nodes were booked, and on the `n`-worker
    /// pool otherwise (created lazily, rebuilt when the knob changes size).
    ///
    /// Takes the driver's booking guard and releases it for the execution
    /// window. Inline, each execution pushes and pops its frame under its
    /// own short lock; pooled, workers do the same on their per-worker
    /// stacks while `par_active` makes lock contention block instead of
    /// tripping the re-entrancy panic. `jobs` is drained, capacity kept.
    pub(crate) fn run_level(
        &self,
        mut guard: MutexGuard<'_, Inner>,
        jobs: &mut Vec<LevelJob>,
    ) -> Vec<Box<dyn Value>> {
        let workers = guard.parallelism;
        if workers <= 1 || jobs.len() < 2 {
            drop(guard);
            return jobs.drain(..).map(|job| self.run_booked(job)).collect();
        }
        let inner = &mut *guard;
        if inner
            .exec_pool
            .as_ref()
            .is_none_or(|p| p.workers() != workers)
        {
            inner.exec_pool = Some(ExecPool::new(workers, Arc::clone(&self.metrics)));
        }
        if inner.worker_stacks.len() < workers {
            inner.worker_stacks.resize_with(workers, Vec::new);
        }
        let width = jobs.len();
        inner.stats.parallel_levels += 1;
        inner.stats.parallel_executions += width as u64;
        // Workers may contend for the lock from here on: flip the
        // blocking-lock mode before the first job can start (jobs are
        // submitted below while the guard is still held, so no worker can
        // observe the flag too early).
        self.par_active.fetch_add(1, Ordering::Release);
        #[cfg(feature = "metrics")]
        let level_t0 = crate::metrics::enabled().then(std::time::Instant::now);
        let (tx, rx) = channel::<(usize, Box<dyn Value>)>();
        let pool = inner.exec_pool.as_ref().expect("created above");
        for (idx, job) in jobs.drain(..).enumerate() {
            let rt = self.clone();
            let tx = tx.clone();
            pool.submit(mem::with(mem::Tag::ExecPool, || {
                Box::new(move || {
                    let _ = tx.send((idx, rt.run_booked(job)));
                })
            }));
        }
        drop(tx);
        drop(guard);
        // Level barrier: wait for every executor. A worker whose job
        // panicked drops its sender without sending; surface that as the
        // driver-side panic the sequential path would have had.
        let mut results: Vec<Option<Box<dyn Value>>> = (0..width).map(|_| None).collect();
        for (idx, value) in rx {
            results[idx] = Some(value);
        }
        self.par_active.fetch_sub(1, Ordering::Release);
        #[cfg(feature = "metrics")]
        if let Some(t0) = level_t0 {
            self.metrics
                .level_latency_ns
                .record(t0.elapsed().as_nanos() as u64);
        }
        results
            .into_iter()
            .map(|v| v.expect("an executor panicked on a worker; runtime state unspecified"))
            .collect()
    }
}

impl Drop for ExecPool {
    fn drop(&mut self) {
        drop(self.tx.take());
        for handle in self.handles.drain(..) {
            let _ = handle.join();
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
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc::channel;

    #[test]
    fn jobs_run_and_results_come_back() {
        let pool = ExecPool::new(3, Arc::new(RuntimeMetrics::new()));
        let (tx, rx) = channel();
        for i in 0..32usize {
            let tx = tx.clone();
            pool.submit(Box::new(move || {
                tx.send(i * 2).unwrap();
            }));
        }
        drop(tx);
        let mut got: Vec<usize> = rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got, (0..32).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn workers_have_distinct_identities() {
        let pool = ExecPool::new(2, Arc::new(RuntimeMetrics::new()));
        let (tx, rx) = channel();
        // Hold both workers long enough that each runs at least one job.
        for _ in 0..8 {
            let tx = tx.clone();
            pool.submit(Box::new(move || {
                std::thread::sleep(std::time::Duration::from_millis(2));
                tx.send(worker_identity().expect("on a pool thread"))
                    .unwrap();
            }));
        }
        drop(tx);
        let ids: std::collections::HashSet<(u64, usize)> = rx.iter().collect();
        assert!(!ids.is_empty());
        for &(pool_id, slot) in &ids {
            assert_eq!(pool_id, pool.id());
            assert!(slot < pool.workers());
        }
        assert_eq!(worker_identity(), None, "driver thread has no identity");
    }

    #[test]
    fn a_panicking_job_does_not_kill_the_worker() {
        let pool = ExecPool::new(1, Arc::new(RuntimeMetrics::new()));
        let (tx, rx) = channel();
        pool.submit(Box::new(|| panic!("boom")));
        let tx2 = tx.clone();
        pool.submit(Box::new(move || tx2.send(7u32).unwrap()));
        drop(tx);
        assert_eq!(rx.iter().collect::<Vec<_>>(), vec![7]);
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        pool.submit(Box::new(move || {
            d.fetch_add(1, Ordering::SeqCst);
        }));
        drop(pool); // joins: the job above must have run
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }
}
