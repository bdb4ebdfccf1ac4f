//! Sharded multi-session serving for Alphonse runtimes.
//!
//! A [`Runtime`] is a `Send` value: independent sessions share nothing, so
//! cross-session parallelism needs no locks, no coordination and no changes
//! to the propagation machinery. [`SessionPool`] packages that observation
//! as a serving layer: `N` worker threads, each owning a disjoint set of
//! sessions, with tenants routed to shards by id. Inside a shard everything
//! stays exactly as fast as one runtime used from one thread — the pool's
//! only job is to move whole sessions onto worker threads and keep them
//! there. It is built on the runtime's public API alone.
//!
//! A "session" here is any `Send + 'static` value the caller defines —
//! typically a struct bundling a [`Runtime`] with the `Var`/`Memo` handles
//! of one tenant's dependency graph. The pool never looks inside it; work
//! arrives as closures ([`SessionPool::submit`]) and answers come back from
//! blocking closures ([`SessionPool::query`]).
//!
//! # Example
//!
//! ```
//! use alphonse::{Memo, Runtime, Var};
//! use alphonse_serve::SessionPool;
//!
//! struct Tenant {
//!     rt: Runtime,
//!     input: Var<i64>,
//!     double: Memo<(), i64>,
//! }
//!
//! let pool = SessionPool::new(2);
//! for tenant in 0..4u64 {
//!     // Sessions are built wherever convenient (here: the main thread)
//!     // and then *moved* into their shard — Runtime is Send.
//!     let rt = Runtime::new();
//!     let input = rt.var(tenant as i64);
//!     let double = rt.memo("double", move |rt, &(): &()| input.get(rt) * 2);
//!     pool.insert(tenant, Tenant { rt, input, double });
//! }
//! pool.submit(3, |s: &mut Tenant| s.input.set(&s.rt, 100));
//! assert_eq!(pool.query(3, |s: &mut Tenant| s.double.call(&s.rt, ())), 200);
//! assert_eq!(pool.query(0, |s: &mut Tenant| s.double.call(&s.rt, ())), 0);
//! ```
//!
//! [`Runtime`]: alphonse::Runtime

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::thread::JoinHandle;

use alphonse::mem;

/// One unit of shard-worker input.
enum Msg<S> {
    /// Install a session under a tenant id (replacing any previous one).
    Insert(u64, S),
    /// Remove a session, sending it back to the caller.
    Remove(u64, SyncSender<Option<S>>),
    /// Run a closure against a tenant's session.
    Work(u64, Box<dyn FnOnce(&mut S) + Send>),
    /// Reply on the channel once every message queued before this one has
    /// been processed.
    Barrier(SyncSender<()>),
}

struct Shard<S> {
    tx: Sender<Msg<S>>,
    handle: Option<JoinHandle<()>>,
}

/// A fixed pool of worker threads, each serving the sessions of a disjoint
/// set of tenants. See the [crate docs](crate) for the design.
///
/// Routing is static: tenant `t` always lands on shard `t % n_shards`, so
/// all work for one tenant is serialized on one thread (per-tenant ordering
/// is preserved) while different shards proceed in parallel.
pub struct SessionPool<S: Send + 'static> {
    shards: Vec<Shard<S>>,
}

impl<S: Send + 'static> SessionPool<S> {
    /// Spawns a pool of `n_shards` worker threads (at least one).
    ///
    /// # Panics
    ///
    /// Panics if `n_shards` is zero.
    #[must_use]
    pub fn new(n_shards: usize) -> SessionPool<S> {
        assert!(n_shards > 0, "a session pool needs at least one shard");
        let _mem = mem::scope(mem::Tag::SessionPool);
        let shards = (0..n_shards)
            .map(|i| {
                let (tx, rx) = mpsc::channel::<Msg<S>>();
                let handle = std::thread::Builder::new()
                    .name(format!("alphonse-shard-{i}"))
                    .spawn(move || shard_main(&rx))
                    .expect("spawning a pool shard thread");
                Shard {
                    tx,
                    handle: Some(handle),
                }
            })
            .collect();
        SessionPool { shards }
    }

    fn shard(&self, tenant: u64) -> &Shard<S> {
        &self.shards[(tenant % self.shards.len() as u64) as usize]
    }

    fn send(&self, tenant: u64, msg: Msg<S>) {
        self.shard(tenant)
            .tx
            .send(msg)
            .expect("pool shard worker terminated (a submitted closure panicked?)");
    }

    /// Installs `session` for `tenant`, replacing any existing session with
    /// that id. The session value is *moved* onto the shard thread.
    pub fn insert(&self, tenant: u64, session: S) {
        self.send(tenant, Msg::Insert(tenant, session));
    }

    /// Removes and returns `tenant`'s session (blocking), or `None` if the
    /// tenant has no session. The session moves back to the calling thread.
    pub fn remove(&self, tenant: u64) -> Option<S> {
        let (reply, rx) = mpsc::sync_channel(1);
        self.send(tenant, Msg::Remove(tenant, reply));
        rx.recv().expect("pool shard worker terminated")
    }

    /// Queues `work` to run against `tenant`'s session and returns
    /// immediately. Work for one tenant runs in submission order; work for
    /// tenants on different shards runs in parallel.
    ///
    /// Submissions against a tenant with no installed session are dropped
    /// (serving semantics: an evicted tenant's queued edits are void).
    pub fn submit(&self, tenant: u64, work: impl FnOnce(&mut S) + Send + 'static) {
        let _mem = mem::scope(mem::Tag::SessionPool);
        self.send(tenant, Msg::Work(tenant, Box::new(work)));
    }

    /// Runs `f` against `tenant`'s session and blocks for its result,
    /// after all previously submitted work for that tenant.
    ///
    /// # Panics
    ///
    /// Panics if the tenant has no installed session.
    pub fn query<R: Send + 'static>(
        &self,
        tenant: u64,
        f: impl FnOnce(&mut S) -> R + Send + 'static,
    ) -> R {
        let (reply, rx) = mpsc::sync_channel(1);
        self.submit(tenant, move |s| {
            // A dropped `reply` (session missing) surfaces as a recv error
            // below rather than a hang.
            let _ = reply.send(f(s));
        });
        rx.recv()
            .expect("query against a tenant with no installed session")
    }

    /// Blocks until every shard has drained all work queued before this
    /// call — the pool-wide quiescence point benches measure around.
    pub fn flush(&self) {
        let (reply, rx) = mpsc::sync_channel(self.shards.len());
        for shard in &self.shards {
            shard
                .tx
                .send(Msg::Barrier(reply.clone()))
                .expect("pool shard worker terminated");
        }
        drop(reply);
        // One ack per live shard; a dead shard's clone is dropped unused.
        for _ in &self.shards {
            rx.recv().expect("pool shard worker terminated");
        }
    }
}

impl<S: Send + 'static> Drop for SessionPool<S> {
    /// Closes every shard's queue and joins the workers, re-raising any
    /// worker panic so a failed closure can't pass silently.
    fn drop(&mut self) {
        for shard in &mut self.shards {
            // Replace the sender with a dummy so the worker's recv loop
            // sees disconnection and exits.
            let (dummy, _) = mpsc::channel();
            drop(std::mem::replace(&mut shard.tx, dummy));
            if let Some(handle) = shard.handle.take() {
                if let Err(panic) = handle.join() {
                    if !std::thread::panicking() {
                        std::panic::resume_unwind(panic);
                    }
                }
            }
        }
    }
}

/// Shard worker loop: owns this shard's sessions until the queue closes.
fn shard_main<S>(rx: &Receiver<Msg<S>>) {
    let mut sessions: HashMap<u64, S> = HashMap::new();
    while let Ok(msg) = rx.recv() {
        match msg {
            Msg::Insert(tenant, session) => {
                let _mem = mem::scope(mem::Tag::SessionPool);
                sessions.insert(tenant, session);
            }
            Msg::Remove(tenant, reply) => {
                let _ = reply.send(sessions.remove(&tenant));
            }
            Msg::Work(tenant, work) => {
                if let Some(session) = sessions.get_mut(&tenant) {
                    work(session);
                }
            }
            Msg::Barrier(reply) => {
                let _ = reply.send(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alphonse::{Memo, Runtime, Var};
    use std::sync::Arc;

    struct Sess {
        rt: Runtime,
        x: Var<i64>,
        y: Memo<(), i64>,
    }

    fn sess(seed: i64) -> Sess {
        let rt = Runtime::new();
        let x = rt.var(seed);
        let y = rt.memo("y", move |rt, &(): &()| x.get(rt) + 1);
        Sess { rt, x, y }
    }

    /// A server can own one pool from any control thread.
    #[test]
    fn session_pool_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<SessionPool<Runtime>>();
    }

    #[test]
    fn routes_and_serves_many_tenants() {
        let pool = SessionPool::new(3);
        for t in 0..10u64 {
            pool.insert(t, sess(t as i64));
        }
        for t in 0..10u64 {
            assert_eq!(
                pool.query(t, |s: &mut Sess| s.y.call(&s.rt, ())),
                t as i64 + 1
            );
        }
    }

    #[test]
    fn per_tenant_order_is_submission_order() {
        let pool = SessionPool::new(2);
        pool.insert(7, sess(0));
        for i in 1..=100 {
            pool.submit(7, move |s: &mut Sess| s.x.set(&s.rt, i));
        }
        assert_eq!(pool.query(7, |s: &mut Sess| s.y.call(&s.rt, ())), 101);
    }

    #[test]
    fn flush_is_a_barrier_across_all_shards() {
        let pool = SessionPool::new(4);
        for t in 0..8u64 {
            pool.insert(t, sess(0));
            pool.submit(t, move |s: &mut Sess| s.x.set(&s.rt, t as i64 * 10));
        }
        pool.flush();
        for t in 0..8u64 {
            assert_eq!(
                pool.query(t, |s: &mut Sess| s.x.get_untracked(&s.rt)),
                t as i64 * 10
            );
        }
    }

    #[test]
    fn remove_moves_the_session_back() {
        let pool = SessionPool::new(2);
        pool.insert(1, sess(41));
        let s = pool.remove(1).expect("installed above");
        // The session keeps working on the calling thread after the move.
        assert_eq!(s.y.call(&s.rt, ()), 42);
        assert!(pool.remove(1).is_none(), "already removed");
    }

    #[test]
    fn work_for_missing_tenant_is_dropped() {
        let pool = SessionPool::new(1);
        pool.submit(9, |s: &mut Sess| s.x.set(&s.rt, 1));
        pool.flush(); // closure was discarded, no hang, no panic
    }

    #[test]
    #[should_panic(expected = "no installed session")]
    fn query_for_missing_tenant_panics() {
        let pool = SessionPool::<Sess>::new(1);
        let _ = pool.query(3, |s| s.x.get_untracked(&s.rt));
    }

    #[test]
    fn shards_actually_run_in_parallel() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Barrier;
        // Two tenants on two shards each block on a shared rendezvous that
        // can only be passed if both closures are in flight at once.
        let pool = SessionPool::new(2);
        pool.insert(0, sess(0));
        pool.insert(1, sess(0));
        let barrier = Arc::new(Barrier::new(2));
        let met = Arc::new(AtomicUsize::new(0));
        for t in 0..2u64 {
            let (b, m) = (Arc::clone(&barrier), Arc::clone(&met));
            pool.submit(t, move |_s: &mut Sess| {
                b.wait();
                m.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.flush();
        assert_eq!(met.load(Ordering::Relaxed), 2);
    }
}
