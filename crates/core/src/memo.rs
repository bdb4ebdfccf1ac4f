//! Incremental procedures: cached functions and maintained methods.

use crate::fxhash::FxHashMap;
use crate::runtime::{Core, Executor, Inner, Instance, Root, Runtime, Strategy};
use crate::value::{downcast_ref, Value};
use alphonse_graph::NodeId;
use alphonse_mem as mem;
use std::fmt;
use std::hash::Hash;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

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
    /// The runtime the procedure was defined in: a call checks it is
    /// handed the same one, and [`Memo::instance_node`], which takes no
    /// runtime argument, reads the argument table through it. Weak: the
    /// runtime owns the procedure's instances, and through them the
    /// procedure.
    rt: Weak<Root>,
    /// Maximum number of instance *values* kept live (paper Section 3.3:
    /// "additional pragma arguments allow the specification of … cache
    /// size, and the replacement algorithm"). `None` = unbounded.
    capacity: Option<NonZeroUsize>,
    /// The body. It receives the procedure's own handle, which a recursive
    /// procedure calls and every other procedure ignores.
    f: Body<A, R>,
    /// Entries of the argument table: the table never drops one, so
    /// [`Memo::instance_count`] and `Debug` read this count instead of
    /// the table, without the runtime's lock.
    instances: AtomicUsize,
    /// Id of the paper's *argument table* (Section 4.2) among the runtime
    /// core's tables: one dependency-graph node per distinct argument
    /// vector, a [`Table<A>`]. It lives in the core, so a call probes it
    /// under the access it already holds — through its view in a pooled
    /// level, under its one exclusive guard otherwise.
    table: usize,
    /// The logical clock of a bounded table's LRU stamps.
    clock: AtomicU64,
    /// Values dropped by the replacement policy so far.
    evictions: AtomicU64,
    /// Static-stratum seed applied to fresh instance nodes (see
    /// [`Memo::set_height_hint`]). Zero means "no hint". Atomic because
    /// the hint is set after construction through a shared handle.
    height_hint: AtomicU32,
}

/// The boxed body of an incremental procedure.
type Body<A, R> = Box<dyn Fn(&Runtime, &Memo<A, R>, &A) -> R + Send + Sync>;

/// A procedure's argument table, kept in the runtime core. An unbounded
/// memo maps each argument vector to its instance node and nothing else;
/// only a bounded one (`memo_bounded`) stamps its entries from the
/// procedure's logical clock for LRU replacement, advanced by the probe
/// that uses it. Stamps and clock are atomics, so a probe through a view
/// writes nothing but them.
enum Table<A> {
    Unbounded(FxHashMap<A, NodeId>),
    /// Instance node and last-use stamp per argument vector.
    Lru(FxHashMap<A, (NodeId, AtomicU64)>),
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

impl<A: MemoArgs, R> MemoInner<A, R> {
    /// A procedure of `rt` with an empty argument table, entered in its
    /// core: an LRU one when `capacity` bounds it.
    fn new(
        rt: &Runtime,
        name: &str,
        strategy: Strategy,
        capacity: Option<NonZeroUsize>,
        f: Body<A, R>,
    ) -> Self {
        let table: Table<A> = match capacity {
            None => Table::Unbounded(FxHashMap::default()),
            Some(_) => Table::Lru(FxHashMap::default()),
        };
        MemoInner {
            name: name.into(),
            strategy,
            rt: Arc::downgrade(&rt.root),
            capacity,
            f,
            instances: AtomicUsize::new(0),
            table: rt.lock().add_table(Box::new(table)),
            clock: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            height_hint: AtomicU32::new(0),
        }
    }

    /// The argument table, in the core it lives in.
    fn table<'c>(&self, core: &'c Core) -> &'c Table<A> {
        core.table(self.table)
    }
}

impl<A, R> MemoInner<A, R> {
    /// `f` on the runtime core, outside a call, or `None` once the runtime
    /// has been dropped.
    fn read_core<T>(&self, f: impl FnOnce(&Core) -> T) -> Option<T> {
        let root = self.rt.upgrade()?;
        Some(Runtime { root }.read_core(f))
    }

    /// Number of distinct argument vectors instantiated so far.
    fn instance_count(&self) -> usize {
        self.instances.load(Ordering::Relaxed)
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
/// The procedure's *argument table* (Section 4.2), which maps argument
/// vectors to instance nodes, lives in the runtime it was defined in,
/// beside the graph: a call probes it under the same access as the cache.
/// The handle itself holds the body, a count of the table's entries and a
/// weak reference to that runtime; once the runtime is dropped,
/// [`Memo::instance_node`] reads `None`. The runtime keeps the table as
/// long as it lives, also that of a procedure whose handles were all
/// dropped before its first call (an empty table: a few dozen bytes).
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
            .field("instances", &self.inner.instance_count())
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
                self,
                name,
                strategy,
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
        let capacity = NonZeroUsize::new(capacity).expect("memo cache capacity must be positive");
        let _mem = mem::scope(mem::Tag::Memo);
        Memo {
            inner: Arc::new(MemoInner::new(
                self,
                name,
                strategy,
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
            inner: Arc::new(MemoInner::new(self, name, strategy, None, Box::new(f))),
        }
    }
}

impl<A: MemoArgs, R: MemoResult> Memo<A, R> {
    /// Number of distinct argument vectors instantiated so far.
    pub fn instance_count(&self) -> usize {
        self.inner.instance_count()
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
    /// Steps 1–3 share one access to the runtime: the caller's view in a
    /// pooled level when the call is a cache hit, one exclusive guard
    /// otherwise, under which a miss also books the execution. The body
    /// runs unlocked, and one more guard commits it.
    ///
    /// # Panics
    ///
    /// Panics if `rt` is not the runtime the memo was defined in, or if the
    /// computation turns out to be cyclic (paper restriction DET). A panic
    /// of the body reaches the caller after the executions it unwound
    /// through are rolled back (see [`Runtime`]'s panic contract).
    pub fn call(&self, rt: &Runtime, args: A) -> R {
        assert!(
            std::ptr::eq(self.inner.rt.as_ptr(), Arc::as_ptr(&rt.root)),
            "Memo {:?} used with a different Runtime than it was defined in",
            self.inner.name
        );
        let read = |v: &dyn Value| downcast_ref::<R>(v, &self.inner.name).clone();
        let read = if rt.pooled() {
            match rt.hit_viewed(|core| self.probe(core, &args), read) {
                Ok(out) => return out,
                Err(read) => read,
            }
        } else {
            read
        };
        let mut guard = rt.lock();
        let (node, executor, my_gen, read) = match self.probe(&guard, &args) {
            // Note: the paper's Algorithm 5 records the caller's dependence
            // edge before checking consistency. We record it after the
            // callee has settled (cache hit or completed re-execution)
            // instead — the resulting edge set is identical, but
            // re-entrant patterns like the AVL balance method (Section 7.3)
            // would otherwise transiently pair a stale caller→callee edge
            // with the fresh callee→caller one and trip cycle detection.
            Some(node) => match rt.precall(guard, node, read) {
                Ok(out) => return out,
                Err((g, read)) => {
                    guard = g;
                    let (executor, my_gen) = rt.exec_begin(&mut guard, node);
                    (node, executor, my_gen, read)
                }
            },
            None => {
                let (node, executor, my_gen) = self.instantiate(rt, &mut guard, args);
                (node, executor, my_gen, read)
            }
        };
        drop(guard);
        rt.finish_exec_recording(node, &executor, my_gen, read)
    }

    /// The instance node for `args` as a call sees it (a bounded table
    /// stamps it most recently used).
    fn probe(&self, core: &Core, args: &A) -> Option<NodeId> {
        self.inner.table(core).probe(args, &self.inner.clock)
    }

    /// Step 1's miss: creates the instance for `args` and books its first
    /// execution under the caller's guard ([`Runtime::alloc_comp_begun`]),
    /// enters it in the argument table, and lets a bounded table drop the
    /// least recently used values beyond its capacity. Out of line, so a
    /// call that finds its instance carries none of it.
    #[inline(never)]
    fn instantiate(&self, rt: &Runtime, inner: &mut Inner, args: A) -> (NodeId, Executor, u64) {
        let _mem = mem::scope(mem::Tag::Memo);
        let executor: Executor = Arc::new(MemoInstance {
            memo: self.clone(),
            args: args.clone(),
        });
        let (node, executor, my_gen) = rt.alloc_comp_begun(
            inner,
            self.inner.strategy,
            executor,
            self.inner.height_hint.load(Ordering::Relaxed),
        );
        (inner.table_mut::<Table<A>>(self.inner.table)).insert(args, node, &self.inner.clock);
        self.inner.instances.fetch_add(1, Ordering::Relaxed);
        self.enforce_capacity(inner, node);
        (node, executor, my_gen)
    }

    /// The dependency-graph node for a given argument vector, if that
    /// instance exists.
    ///
    /// # Panics
    ///
    /// The argument table lives in the runtime, so this takes the
    /// runtime's internal lock outside a pooled level: like every runtime
    /// operation, it fails stop when called from a closure run under that
    /// lock (a `Var::with` body, a trace sink) or from a second thread
    /// while the runtime is in use.
    pub fn instance_node(&self, args: &A) -> Option<NodeId> {
        (self
            .inner
            .read_core(|core| self.inner.table(core).get(args)))
        .flatten()
    }

    /// Cache capacity, if bounded.
    pub fn capacity(&self) -> Option<usize> {
        self.inner.capacity.map(NonZeroUsize::get)
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
    /// remain live, under the guard that created `just_created`. Instances
    /// that are currently executing are never evicted. Dependency edges are
    /// kept — eviction forgets results, not dependence (otherwise
    /// propagation through the instance would lose soundness).
    fn enforce_capacity(&self, inner: &mut Inner, just_created: NodeId) {
        let Some(capacity) = self.capacity() else {
            return;
        };
        // One slot stays free for the instance just created: with at most
        // `capacity - 1` others nothing can be over.
        let Table::Lru(map) = self.inner.table(inner) else {
            unreachable!("a bounded memo keeps an LRU table");
        };
        if map.len() <= capacity {
            return;
        }
        let entries: Vec<(u64, NodeId)> = (map.values())
            .filter(|(node, _)| *node != just_created)
            .map(|(node, last_use)| (last_use.load(Ordering::Relaxed), *node))
            .collect();
        let evicted = inner.evict_lru(entries, capacity - 1);
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

    /// The count and `Debug` read the handle, not the table in the
    /// runtime: they work under the runtime's lock and after the runtime
    /// is gone, where `instance_node` fails stop or reads `None`.
    #[test]
    fn instance_count_and_debug_take_no_runtime_lock() {
        let rt = Runtime::new();
        let x = rt.var(1i64);
        let m = rt.memo("counted", move |rt, k: &i64| x.get(rt) + k);
        m.call(&rt, 1);
        m.call(&rt, 2);
        let (count, shown) = x.with(&rt, |_| (m.instance_count(), format!("{m:?}")));
        assert_eq!(count, 2);
        assert!(shown.contains("instances: 2"), "{shown}");
        let reentered = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            x.with(&rt, |_| m.instance_node(&1))
        }));
        assert!(reentered.is_err(), "instance_node takes the runtime lock");
        drop(rt);
        assert_eq!(m.instance_count(), 2);
        assert_eq!(m.instance_node(&1), None);
    }
}
