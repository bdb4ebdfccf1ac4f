//! Incremental procedures: cached functions and maintained methods.

use crate::fxhash::FxHashMap;
use crate::runtime::{Executor, Instance, Runtime, Strategy};
use crate::value::{downcast_ref, Value};
use alphonse_graph::NodeId;
use alphonse_mem as mem;
use std::fmt;
use std::hash::Hash;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Bound required of memo argument vectors: they key the *argument table*
/// of Section 4.2, so they must be hashable, comparable and clonable —
/// plus `Send + Sync`, because the argument vector is held by the
/// instance's executor and sessions move across threads.
pub trait MemoArgs: Eq + Hash + Clone + Send + Sync + 'static {}
impl<T: Eq + Hash + Clone + Send + Sync + 'static> MemoArgs for T {}

/// Bound required of memo results: cached values participate in quiescence
/// cutoff, so they must be comparable, and are handed out by clone.
pub trait MemoResult: Value + PartialEq + Clone {}
impl<T: Value + PartialEq + Clone> MemoResult for T {}

pub(crate) struct MemoInner<A, R> {
    name: Arc<str>,
    strategy: Strategy,
    rt_id: u64,
    /// Maximum number of instance *values* kept live (paper Section 3.3:
    /// "additional pragma arguments allow the specification of … cache
    /// size, and the replacement algorithm"). `None` = unbounded.
    capacity: Option<usize>,
    /// The body. It receives the procedure's own handle, which a recursive
    /// procedure calls and every other procedure ignores.
    f: Body<A, R>,
    /// The paper's *argument table* (Section 4.2): one dependency-graph node
    /// per distinct argument vector. FxHash-keyed: probed on every call.
    /// A reader-writer lock: a probe — a bounded table's LRU stamp
    /// included, the stamps and clock being atomics — is a shared read, so
    /// the claimants of a pooled level probe side by side; only a miss
    /// takes it exclusively, to insert the new instance. Callers use a
    /// session from one thread at a time (the runtime's fail-stop lock
    /// enforces it), so it is uncontended outside pooled levels. It is
    /// scoped tightly in `settle` so body re-execution — which may
    /// recursively call back into this memo — never holds it.
    table: RwLock<Table<A>>,
    /// The logical clock of a bounded table's LRU stamps.
    clock: AtomicU64,
    /// Single-instance shortcut for zero-sized argument types: an inhabited
    /// ZST has exactly one value, so the argument table holds at most one
    /// entry. Its node is published here by the first call; every later
    /// call is one atomic load instead of a table lock.
    single: OnceLock<NodeId>,
    /// Values dropped by the replacement policy so far.
    evictions: AtomicU64,
    /// Static-stratum seed applied to fresh instance nodes (see
    /// [`Memo::set_height_hint`]). Zero means "no hint". Atomic because
    /// the hint is set after construction through a shared handle.
    height_hint: AtomicU32,
}

/// The boxed body of an incremental procedure.
type Body<A, R> = Box<dyn Fn(&Runtime, &Memo<A, R>, &A) -> R + Send + Sync>;

/// The guarded argument-table state. An unbounded memo maps
/// each argument vector to its instance node and nothing else; only a
/// bounded one (`memo_bounded`) stamps its entries from the procedure's
/// logical clock for LRU replacement, advanced by the probe that uses it.
/// Stamps and clock are atomics, so a probe needs only shared access.
enum Table<A> {
    Unbounded(FxHashMap<A, NodeId>),
    /// Instance node and last-use stamp per argument vector.
    Lru(FxHashMap<A, (NodeId, AtomicU64)>),
}

impl<A> Table<A> {
    fn len(&self) -> usize {
        match self {
            Table::Unbounded(map) => map.len(),
            Table::Lru(map) => map.len(),
        }
    }
}

impl<A: Eq + Hash> Table<A> {
    /// The instance node for `args`, without touching recency.
    fn get(&self, args: &A) -> Option<NodeId> {
        match self {
            Table::Unbounded(map) => map.get(args).copied(),
            Table::Lru(map) => map.get(args).map(|&(node, _)| node),
        }
    }

    /// The instance node for `args` as a call sees it: a bounded table
    /// stamps the hit as most recently used on `clock`.
    fn probe(&self, args: &A, clock: &AtomicU64) -> Option<NodeId> {
        match self {
            Table::Unbounded(map) => map.get(args).copied(),
            Table::Lru(map) => {
                let (node, last_use) = map.get(args)?;
                last_use.store(clock.fetch_add(1, Ordering::Relaxed) + 1, Ordering::Relaxed);
                Some(*node)
            }
        }
    }

    /// Enters a just-created instance, most recently used on `clock` in a
    /// bounded table.
    fn insert(&mut self, args: A, node: NodeId, clock: &AtomicU64) {
        match self {
            Table::Unbounded(map) => {
                map.insert(args, node);
            }
            Table::Lru(map) => {
                let stamp = clock.fetch_add(1, Ordering::Relaxed) + 1;
                map.insert(args, (node, AtomicU64::new(stamp)));
            }
        }
    }
}

/// The executor of one memo instance: its procedure and the argument
/// vector it was created for — the instance's whole footprint outside the
/// graph node and the argument-table key.
struct MemoInstance<A, R> {
    memo: Memo<A, R>,
    args: A,
}

impl<A: MemoArgs, R: MemoResult> Instance for MemoInstance<A, R> {
    fn run(&self, rt: &Runtime) -> Box<dyn Value> {
        // Run the user body untagged (its allocations are workload
        // memory), then bill the result box to the value slab.
        let result = (self.memo.inner.f)(rt, &self.memo, &self.args);
        mem::with(mem::Tag::ValueSlab, || Box::new(result) as Box<dyn Value>)
    }

    fn name(&self) -> &Arc<str> {
        &self.memo.inner.name
    }
}

impl<A, R> MemoInner<A, R> {
    /// A procedure with an empty argument table: an LRU one when
    /// `capacity` bounds it.
    fn new(
        name: Arc<str>,
        strategy: Strategy,
        rt_id: u64,
        capacity: Option<usize>,
        f: Body<A, R>,
    ) -> Self {
        MemoInner {
            name,
            strategy,
            rt_id,
            capacity,
            f,
            table: RwLock::new(match capacity {
                None => Table::Unbounded(FxHashMap::default()),
                Some(_) => Table::Lru(FxHashMap::default()),
            }),
            clock: AtomicU64::new(0),
            single: OnceLock::new(),
            evictions: AtomicU64::new(0),
            height_hint: AtomicU32::new(0),
        }
    }

    /// Shared access to the argument table. No body runs while it is
    /// held, so only a fail-stop runtime panic can poison it; a poisoned
    /// lock is entered anyway, as the runtime's own lock is.
    fn table(&self) -> RwLockReadGuard<'_, Table<A>> {
        self.table.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Exclusive access to the argument table, to insert an instance.
    fn table_mut(&self) -> RwLockWriteGuard<'_, Table<A>> {
        self.table.write().unwrap_or_else(PoisonError::into_inner)
    }
}

/// An incremental procedure: a function whose calls are cached per argument
/// vector and kept consistent under mutation of everything it read.
///
/// `Memo` unifies the paper's two pragmas. A `(*CACHED*)` procedure and a
/// `(*MAINTAINED*)` method are both *incremental procedure instances*
/// (Section 3.3): each distinct argument vector gets a dependency-graph node
/// whose cached value is reused until some read location or callee result
/// changes. Unlike classical function caching, the body may freely read
/// tracked global state ([`Var`](crate::Var)s) — the paper's lifting of the
/// *combinator* restriction (Section 4.2) — and may even write tracked
/// state, as the AVL `balance` method of Section 7.3 does.
///
/// # Example
///
/// ```
/// use alphonse::Runtime;
/// let rt = Runtime::new();
/// let base = rt.var(100i64);
/// let scaled = rt.memo("scaled", move |rt, k: &i64| base.get(rt) * k);
/// assert_eq!(scaled.call(&rt, 3), 300);
/// assert_eq!(scaled.call(&rt, 3), 300); // cache hit
/// base.set(&rt, 1);
/// assert_eq!(scaled.call(&rt, 3), 3); // recomputed
/// ```
pub struct Memo<A, R> {
    inner: Arc<MemoInner<A, R>>,
}

impl<A, R> Clone for Memo<A, R> {
    fn clone(&self) -> Self {
        Memo {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<A, R> fmt::Debug for Memo<A, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Memo")
            .field("name", &self.inner.name)
            .field("strategy", &self.inner.strategy)
            .field("instances", &self.inner.table().len())
            .finish()
    }
}

impl Runtime {
    /// Defines a demand-evaluated incremental procedure — the library form
    /// of the `(*CACHED*)` / `(*MAINTAINED*)` pragmas.
    ///
    /// `name` is used in diagnostics. The body must satisfy the paper's DET
    /// restriction: same arguments and same tracked reads must yield the
    /// same result.
    pub fn memo<A: MemoArgs, R: MemoResult>(
        &self,
        name: &str,
        f: impl Fn(&Runtime, &A) -> R + Send + Sync + 'static,
    ) -> Memo<A, R> {
        self.memo_with(name, Strategy::Demand, f)
    }

    /// Defines an incremental procedure with an explicit evaluation
    /// [`Strategy`].
    pub fn memo_with<A: MemoArgs, R: MemoResult>(
        &self,
        name: &str,
        strategy: Strategy,
        f: impl Fn(&Runtime, &A) -> R + Send + Sync + 'static,
    ) -> Memo<A, R> {
        let _mem = mem::scope(mem::Tag::Memo);
        Memo {
            inner: Arc::new(MemoInner::new(
                name.into(),
                strategy,
                self.id,
                None,
                Box::new(move |rt, _me, a| f(rt, a)),
            )),
        }
    }

    /// Defines an incremental procedure whose cache keeps at most
    /// `capacity` instance values live, with least-recently-used
    /// replacement — the paper's cache-size / replacement-algorithm pragma
    /// arguments (Section 3.3).
    ///
    /// Eviction only drops the cached *value* (forcing recomputation on the
    /// next call); the instance's dependency edges remain so that change
    /// propagation through it stays sound.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn memo_bounded<A: MemoArgs, R: MemoResult>(
        &self,
        name: &str,
        strategy: Strategy,
        capacity: usize,
        f: impl Fn(&Runtime, &A) -> R + Send + Sync + 'static,
    ) -> Memo<A, R> {
        assert!(capacity > 0, "memo cache capacity must be positive");
        let _mem = mem::scope(mem::Tag::Memo);
        Memo {
            inner: Arc::new(MemoInner::new(
                name.into(),
                strategy,
                self.id,
                Some(capacity),
                Box::new(move |rt, _me, a| f(rt, a)),
            )),
        }
    }

    /// Defines a demand-evaluated incremental procedure whose body can call
    /// itself — the shape of every recursive maintained method in the paper
    /// (`height`, `balance`, attribute equations).
    ///
    /// The body receives its own [`Memo`] handle as second parameter.
    ///
    /// # Example
    ///
    /// ```
    /// use alphonse::Runtime;
    /// let rt = Runtime::new();
    /// let fib = rt.memo_recursive("fib", |rt, fib, &n: &u64| -> u64 {
    ///     if n < 2 { n } else { fib.call(rt, n - 1) + fib.call(rt, n - 2) }
    /// });
    /// assert_eq!(fib.call(&rt, 20), 6765);
    /// ```
    pub fn memo_recursive<A: MemoArgs, R: MemoResult>(
        &self,
        name: &str,
        f: impl Fn(&Runtime, &Memo<A, R>, &A) -> R + Send + Sync + 'static,
    ) -> Memo<A, R> {
        self.memo_recursive_with(name, Strategy::Demand, f)
    }

    /// [`Runtime::memo_recursive`] with an explicit evaluation strategy.
    pub fn memo_recursive_with<A: MemoArgs, R: MemoResult>(
        &self,
        name: &str,
        strategy: Strategy,
        f: impl Fn(&Runtime, &Memo<A, R>, &A) -> R + Send + Sync + 'static,
    ) -> Memo<A, R> {
        let _mem = mem::scope(mem::Tag::Memo);
        Memo {
            inner: Arc::new(MemoInner::new(
                name.into(),
                strategy,
                self.id,
                None,
                Box::new(f),
            )),
        }
    }
}

impl<A: MemoArgs, R: MemoResult> Memo<A, R> {
    /// Number of distinct argument vectors instantiated so far.
    pub fn instance_count(&self) -> usize {
        self.inner.table().len()
    }

    /// Calls the procedure — the paper's instrumented `call` operation
    /// (Algorithm 5):
    ///
    /// 1. look the argument vector up in the argument table, creating the
    ///    instance node on a miss;
    /// 2. on a hit, run pending change propagation first (with partitioning,
    ///    only this instance's partition);
    /// 3. record the caller's dependence on this instance;
    /// 4. return the cached value if the instance is consistent, otherwise
    ///    drop its stale dependencies and re-execute the body.
    ///
    /// # Panics
    ///
    /// Panics if `rt` is not the runtime the memo was defined in, or if the
    /// computation turns out to be cyclic (paper restriction DET). A panic
    /// of the body reaches the caller after the executions it unwound
    /// through are rolled back (see [`Runtime`]'s panic contract).
    pub fn call(&self, rt: &Runtime, args: A) -> R {
        let (node, begun) = self.settle(rt, args);
        self.finish(rt, node, begun)
    }

    /// Steps 1–2 of Algorithm 5: argument-table lookup (instantiating on a
    /// miss). Returns the instance node plus, for a just-created instance,
    /// its already-booked first execution (a fresh instance cannot be a
    /// cache hit and has no pending changes to settle, so
    /// [`Runtime::alloc_comp_begun`] books the execution inside the
    /// allocation's own lock and [`Memo::finish`] skips the cache probe).
    /// The call/probe counters are tallied inside the allocation /
    /// pre-call paths, sharing their existing lock acquisitions.
    fn settle(&self, rt: &Runtime, args: A) -> (NodeId, Option<(Executor, u64)>) {
        assert_eq!(
            self.inner.rt_id, rt.id,
            "Memo {:?} used with a different Runtime than it was defined in",
            self.inner.name
        );
        // Single-instance fast path: once the sole instance of a
        // zero-sized argument type is published, the whole settle step is
        // one atomic load (an LRU stamp is pointless with one entry).
        if std::mem::size_of::<A>() == 0 {
            if let Some(&node) = self.inner.single.get() {
                return (node, None);
            }
        }
        // A call from a closure run under the runtime's lock fails stop
        // here, before it could wait for the table behind a miss that waits
        // for that lock.
        rt.assert_unlocked();
        let mut begun = None;
        // Claimants of a pooled level probe under shared access first;
        // elsewhere one thread calls, and exclusive access costs the same.
        let clock = &self.inner.clock;
        let probed = if rt.pooled() {
            self.probe_shared(&args)
        } else {
            None
        };
        let node = match probed {
            Some(node) => node,
            None => {
                // A claimant that missed probes again: another may have
                // created the instance since.
                let mut table = self.inner.table_mut();
                match table.probe(&args, clock) {
                    Some(node) => node,
                    None => {
                        let _mem = mem::scope(mem::Tag::Memo);
                        let executor: Executor = Arc::new(MemoInstance {
                            memo: self.clone(),
                            args: args.clone(),
                        });
                        let (n, executor, my_gen) = rt.alloc_comp_begun(
                            self.inner.strategy,
                            executor,
                            self.inner.height_hint.load(Ordering::Relaxed),
                        );
                        begun = Some((executor, my_gen));
                        table.insert(args, n, clock);
                        n
                    }
                }
            }
        };
        if begun.is_some() {
            self.enforce_capacity(rt, node);
        }
        if std::mem::size_of::<A>() == 0 {
            let _ = self.inner.single.set(node);
        }
        (node, begun)
    }

    /// A pooled claimant's argument-table probe, under shared access to
    /// the table. Out of line, so the exclusive call path keeps the size it
    /// had without it.
    #[inline(never)]
    fn probe_shared(&self, args: &A) -> Option<NodeId> {
        self.inner.table().probe(args, &self.inner.clock)
    }

    /// Steps 3–4 of Algorithm 5: consult the cache, re-execute on a miss,
    /// record the caller's dependence, and clone the typed result out.
    fn finish(&self, rt: &Runtime, node: NodeId, begun: Option<(Executor, u64)>) -> R {
        let read = |v: &dyn Value| downcast_ref::<R>(v, &self.inner.name).clone();
        let (executor, my_gen) = match begun {
            // A just-created instance cannot hit and its execution is
            // already booked ([`Memo::settle`]): run it to completion.
            Some(begun) => begun,
            None => {
                // Note: the paper's Algorithm 5 records the caller's
                // dependence edge before checking consistency. We record it
                // after the callee has settled (cache hit or completed
                // re-execution) instead — the resulting edge set is
                // identical, but re-entrant patterns like the AVL balance
                // method (Section 7.3) would otherwise transiently pair a
                // stale caller→callee edge with the fresh callee→caller one
                // and trip cycle detection.
                if let Some(out) = rt.precall_cached(node, read) {
                    return out;
                }
                rt.exec_begin(&mut rt.lock(), node)
            }
        };
        rt.finish_exec_recording(node, &executor, my_gen, read)
    }

    /// The dependency-graph node for a given argument vector, if that
    /// instance exists.
    pub fn instance_node(&self, args: &A) -> Option<NodeId> {
        self.inner.table().get(args)
    }

    /// Cache capacity, if bounded.
    pub fn capacity(&self) -> Option<usize> {
        self.inner.capacity
    }

    /// Number of values dropped by the replacement policy so far.
    pub fn evictions(&self) -> u64 {
        self.inner.evictions.load(Ordering::Relaxed)
    }

    /// Seeds the minimum height of instance nodes created *after* this call
    /// from a static stratification (the compiler's SCC condensation of the
    /// abstract dependency graph). A node born at its final height never
    /// triggers the online height-raise cascade when its read edges are
    /// recorded, so a good hint turns O(edges) height adjustments into
    /// none. Overestimates are harmless: heights only order propagation,
    /// and the wave queue tolerates stale priorities. Zero clears the hint.
    /// Already-created instances are unaffected.
    pub fn set_height_hint(&self, h: u32) {
        self.inner.height_hint.store(h, Ordering::Relaxed);
    }

    /// Drops least-recently-used cached values until at most `capacity`
    /// remain live. Instances that are currently executing are never
    /// evicted. Dependency edges are kept — eviction forgets results, not
    /// dependence (otherwise propagation through the instance would lose
    /// soundness).
    fn enforce_capacity(&self, rt: &Runtime, just_created: NodeId) {
        let Some(capacity) = self.inner.capacity else {
            return;
        };
        // One slot stays free for the instance just created: with at most
        // `capacity - 1` others nothing can be over.
        let table = self.inner.table();
        let Table::Lru(map) = &*table else {
            unreachable!("a bounded memo keeps an LRU table");
        };
        if map.len() <= capacity {
            return;
        }
        let entries: Vec<(u64, NodeId)> = (map.values())
            .filter(|(node, _)| *node != just_created)
            .map(|(node, last_use)| (last_use.load(Ordering::Relaxed), *node))
            .collect();
        drop(table);
        let evicted = rt.evict_lru(entries, capacity - 1);
        self.inner
            .evictions
            .fetch_add(evicted as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn caches_per_argument_vector() {
        let rt = Runtime::new();
        let runs = Arc::new(AtomicU32::new(0));
        let r2 = Arc::clone(&runs);
        let double = rt.memo("double", move |_rt, x: &i64| {
            r2.fetch_add(1, Ordering::Relaxed);
            x * 2
        });
        assert_eq!(double.call(&rt, 4), 8);
        assert_eq!(double.call(&rt, 4), 8);
        assert_eq!(double.call(&rt, 5), 10);
        assert_eq!(
            runs.load(Ordering::Relaxed),
            2,
            "one execution per distinct argument"
        );
        assert_eq!(double.instance_count(), 2);
    }

    #[test]
    fn invalidates_on_tracked_read_change() {
        let rt = Runtime::new();
        let base = rt.var(1i64);
        let plus = rt.memo("plus", move |rt, x: &i64| base.get(rt) + x);
        assert_eq!(plus.call(&rt, 10), 11);
        base.set(&rt, 5);
        assert_eq!(plus.call(&rt, 10), 15);
    }

    #[test]
    fn unchanged_write_is_cutoff() {
        let rt = Runtime::new();
        let base = rt.var(1i64);
        let runs = Arc::new(AtomicU32::new(0));
        let r2 = Arc::clone(&runs);
        let probe = rt.memo("probe", move |rt, &(): &()| {
            r2.fetch_add(1, Ordering::Relaxed);
            base.get(rt)
        });
        probe.call(&rt, ());
        base.set(&rt, 1); // same value: no dirtying
        probe.call(&rt, ());
        assert_eq!(runs.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn recursive_memo_works() {
        let rt = Runtime::new();
        let fact = rt.memo_recursive("fact", |rt, me, &n: &u64| -> u64 {
            if n == 0 {
                1
            } else {
                n * me.call(rt, n - 1)
            }
        });
        assert_eq!(fact.call(&rt, 10), 3_628_800);
        // All 11 instances cached.
        assert_eq!(fact.instance_count(), 11);
        let before = rt.stats();
        assert_eq!(fact.call(&rt, 10), 3_628_800);
        let d = rt.stats().delta_since(&before);
        assert_eq!(d.executions, 0, "fully cached");
    }

    #[test]
    fn memo_reads_memo_dependencies() {
        let rt = Runtime::new();
        let a = rt.var(1i64);
        let mid = rt.memo("mid", move |rt, &(): &()| a.get(rt) * 10);
        let mid2 = mid.clone();
        let top = rt.memo("top", move |rt, &(): &()| mid2.call(rt, ()) + 1);
        assert_eq!(top.call(&rt, ()), 11);
        a.set(&rt, 2);
        assert_eq!(top.call(&rt, ()), 21);
    }

    #[test]
    #[should_panic(expected = "different Runtime")]
    fn cross_runtime_memo_panics() {
        let a = Runtime::new();
        let b = Runtime::new();
        let m = a.memo("m", |_rt, x: &i64| *x);
        let _ = m.call(&b, 1);
    }

    #[test]
    fn debug_shows_name() {
        let rt = Runtime::new();
        let m = rt.memo("shown", |_rt, x: &i64| *x);
        assert!(format!("{m:?}").contains("shown"));
    }
}
