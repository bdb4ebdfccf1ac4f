//! The Alphonse runtime: dynamic dependence analysis and incremental
//! evaluation.
//!
//! This module implements the paper's Sections 4 and 5 as a library instead
//! of a source transformation: the three instrumented operations
//! `access` / `modify` / `call` (Algorithms 3, 4 and 5) are the methods
//! [`Runtime::with_value`], [`Runtime::raw_write`] and
//! [`Memo::call`](crate::Memo::call), and the evaluation routine of
//! Section 4.5 is [`Runtime::propagate`] plus the internal evaluation that
//! runs before incremental calls.
//!
//! # Dependence recording
//!
//! The paper's `call` drops a computation's predecessor edges before it
//! re-executes and `access` records each one again. Here an execution
//! leaves the graph alone while it runs: each tracked access appends the
//! node to the execution's frame log, and the lock acquisition that pops
//! the frame reconciles the log with the retained edges
//! (`Inner::reconcile`) — unchanged edges stay, stale ones go, new ones
//! are added. The edge set is R(p) of the latest execution, as in the
//! paper; a re-execution that reads what its previous run read costs no
//! graph work. See DESIGN.md ("Retained dependence edges").
//!
//! # Memory layout
//!
//! Per-node state is stored struct-of-arrays: the evaluator's hot loop only
//! touches the dense `values` / `flags` / `gens` / `executors` vectors (all
//! indexed by `NodeId::index()`), while cold bookkeeping — explicit
//! diagnostic labels — lives in an out-of-line side table that
//! propagation never reads. A memo
//! instance's executor is the instance object itself (procedure plus
//! argument vector), which also names it, so unlabeled instances take no
//! side-table entry. See DESIGN.md ("Memory layout") for the full picture.

use crate::fxhash::FxHashMap;
use crate::stats::Stats;
use crate::trace::{DirtyReason, TraceEvent, TraceSink};
use crate::value::Value;
use alphonse_graph::{DepGraph, HeightQueue, NodeId, UnionFind};
use alphonse_mem as mem;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};

static NEXT_RUNTIME_ID: AtomicU64 = AtomicU64::new(1);

/// Delivers an event to the installed trace sink, if any.
///
/// The event expression is only evaluated inside the sink-present branch, so
/// with no sink each site costs a single untaken, well-predicted branch. The
/// sink is cloned out of the slot first (an `Arc` bump) so the event may
/// borrow the same `Inner` the slot lives in.
macro_rules! emit {
    ($inner:expr, $ev:expr) => {
        if let Some(sink) = $inner.sink.as_ref().map(Arc::clone) {
            sink.event(&$ev);
        }
    };
}

/// What an incremental procedure instance holds besides its graph node:
/// its procedure and argument vector. It re-executes the body and names
/// the procedure, so an unlabeled instance's diagnostic label costs no
/// per-node entry. `Send + Sync` so a session owning it can move between
/// threads.
pub(crate) trait Instance: Send + Sync {
    /// Runs the body against the runtime and returns the fresh cached value.
    fn run(&self, rt: &Runtime) -> Box<dyn Value>;
    /// The procedure's diagnostic name.
    fn name(&self) -> &Arc<str>;
}

/// The instance object of a computation node, shared between its column
/// slot and the executions booked from it.
pub(crate) type Executor = Arc<dyn Instance>;

/// An execution booked by [`Inner::exec_book`]: its executor and
/// generation, and the call frame the executing thread pushes.
pub(crate) struct Booking {
    executor: Executor,
    my_gen: u64,
    frame: Frame,
}

/// What running an executor's body produced: its value, or the payload of
/// the panic that unwound out of it.
pub(crate) type Outcome = std::thread::Result<Box<dyn Value>>;

/// One execution of a level, as the claim loop moves it along.
pub(crate) enum LevelSlot {
    /// Booked by the driver when it opened the level.
    Booked(Booking),
    /// Claimed: the frame is on the claiming thread's stack.
    Running,
    /// Finished: the execution's generation, its outcome awaiting the
    /// driver's in-order commit, and whether its value differs from the
    /// cached one.
    Done(u64, Outcome, bool),
}

/// Evaluation strategy of an incremental procedure (paper Section 3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Update lazily, upon calls to the procedure (the `DEMAND` pragma
    /// argument). This is the default.
    #[default]
    Demand,
    /// Re-execute during change propagation, before the next call request
    /// (the `EAGER` pragma argument). Requires the procedure to satisfy the
    /// paper's OBS restriction: spurious executions must not be observable.
    Eager,
}

/// What kind of entity a dependency-graph node stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A storage location (top-level variable, object field, …).
    Location,
    /// An incremental procedure instance — one (procedure, argument-vector)
    /// pair of a cached procedure or maintained method.
    Computation,
}

// Packed per-node flag bits, one byte per node in `Inner::flags`. The
// evaluator's decision per dirty node ("location or computation? demand or
// eager? consistent? mid-execution?") reads exactly one byte instead of
// walking an `Option<CompState>` indirection.

/// Set iff the node is an incremental procedure instance (else: location).
const F_COMP: u8 = 1 << 0;
/// The paper's consistency bit (computations only; locations are always
/// consistent by definition).
const F_CONSISTENT: u8 = 1 << 1;
/// Strategy bit: set = `Strategy::Eager`, clear = `Strategy::Demand`.
const F_EAGER: u8 = 1 << 2;
/// The evaluator wanted to re-execute this eager node while it was still
/// running; it is re-queued when the execution finishes.
const F_REQUEUE: u8 = 1 << 3;
/// At least one execution of this node is booked or on a call stack. A
/// re-entrant execution (the paper's AVL `balance`, Section 7.3) leaves the
/// bit to its outermost frame ([`Frame::reentrant`]).
const F_ON_STACK: u8 = 1 << 4;
/// Scratch mark of log deduplication and reconciliation: set on the nodes
/// of one dependence log and cleared again within the same lock hold, so
/// the frames of a pooled level, which share the flag bytes, never see
/// each other's marks.
const F_MARK: u8 = 1 << 5;

/// A dependence log is first compacted in place when it reaches this
/// length, then each time it doubles past its last compacted length: short
/// logs cost less to carry than to deduplicate, and a long one stays
/// within twice its distinct entries at amortized O(1) per access.
const LOG_COMPACT_MIN: usize = 32;

/// Buffered batch writes: one `(location, final value)` entry per distinct
/// written location, in first-write order.
pub(crate) type PendingWrites = Vec<(NodeId, Box<dyn Value>)>;

pub(crate) struct Frame {
    node: NodeId,
    /// The dependence log: every node this execution read (or wrote, or
    /// called) so far, in first-access order. An access equal to the last
    /// entry is dropped at once; other repeats stay until the log is
    /// compacted ([`LOG_COMPACT_MIN`]) or reconciled. The frame pop
    /// reconciles the log with the node's retained predecessor edges
    /// ([`Inner::reconcile`]); the buffer then returns to
    /// `Inner::spare_logs`, so starting a frame allocates nothing.
    log: Vec<NodeId>,
    /// Length of `log` after its last compaction: the log is compacted
    /// again when it has doubled past it.
    compacted: usize,
    /// Depth of nested `untracked` regions active in this frame
    /// (the `(*UNCHECKED*)` pragma of Section 6.4).
    suppress: u32,
    /// Set when a fresher execution of the same node started while this one
    /// was still running. A stale execution's result will be discarded, so
    /// it logs nothing further and its log is dropped unreconciled: the
    /// fresher execution's log decides the node's edges.
    stale: bool,
    /// Booked while an older execution of the same node was on a stack.
    /// Frames of one node nest LIFO on one stack, so only the outermost
    /// frame, the one without this bit, clears [`F_ON_STACK`] when it pops.
    reentrant: bool,
}

/// The inconsistent set(s). Both schedulings queue dirt in a
/// [`HeightQueue`]; [`Scheduling`] only picks the key it is drained by.
enum DirtyStore {
    Global(HeightQueue),
    /// One inconsistent set per dependency-graph partition, keyed by the
    /// partition's current root in `uf` (Section 6.3).
    Partitioned {
        uf: UnionFind,
        sets: FxHashMap<NodeId, HeightQueue>,
    },
}

pub(crate) struct Inner {
    graph: DepGraph,
    // ------------------------------------------------------------------
    // Hot struct-of-arrays node state, all indexed by `NodeId::index()`.
    // These are the only per-node columns propagation touches.
    // ------------------------------------------------------------------
    /// Dense value slab: the cached value of each location / computation.
    values: Vec<Option<Box<dyn Value>>>,
    /// Packed per-node flag bits (`F_*` constants above).
    flags: Vec<u8>,
    /// Generation stamp of the most recently *started* execution of each
    /// computation node. An execution only commits its value to the cache
    /// if it is still the latest when it finishes; superseded (outer,
    /// stale) executions hand their value to their caller but leave the
    /// cache to the fresher run.
    gens: Vec<u64>,
    /// Instance object of each computation node (`None` for variables):
    /// it re-executes the body and names the procedure. A dense column
    /// rather than a side table: the executor is fetched on *every*
    /// execution, and at graph sizes past the cache a hash probe per
    /// execution is a guaranteed random miss.
    executors: Vec<Option<Executor>>,
    // ------------------------------------------------------------------
    // Cold out-of-line side tables, keyed by `NodeId::index()` as u32.
    // ------------------------------------------------------------------
    /// Explicit diagnostic labels (`var_named`, `set_label`). An unlabeled
    /// computation is named by its executor's procedure instead.
    names: FxHashMap<u32, Arc<str>>,
    /// The call stacks, one per thread slot ([`Inner::slot`]): slot 0 for
    /// every thread outside this runtime's executor pool, slot `k + 1` for
    /// pool worker `k` — the numbering of the worker gauges. Level-parallel
    /// draining gives each concurrently running executor its own frame
    /// stack (dependence recording targets the innermost frame of the
    /// recording thread's slot), while everything else (values, flags, the
    /// graph) stays shared behind the runtime lock. Worker slots are empty
    /// between levels.
    pub(crate) stacks: Vec<Vec<Frame>>,
    /// Emptied dependence logs of popped frames, handed to the next
    /// bookings so steady-state executions log into warm buffers.
    spare_logs: Vec<Vec<NodeId>>,
    /// The `set_parallelism` knob: `0` or `1` = the driver runs each level
    /// alone (default `0`), `n >= 2` = a level of `w` executions runs on
    /// `min(n, w)` threads, the driver plus helpers of an `n − 1`-worker
    /// pool.
    pub(crate) parallelism: usize,
    /// Lazily created persistent worker pool of `parallelism − 1` threads
    /// (first level with helpers). Rebuilt if the knob
    /// changes size.
    pub(crate) exec_pool: Option<crate::exec_pool::ExecPool>,
    /// The executions of the level being drained, indexed by claim
    /// order (= batch order). Empty between levels; capacity is kept.
    pub(crate) level: Vec<LevelSlot>,
    /// Slot-0 stack depth when the open level started. Frames below
    /// it belong to callers suspended until the level finishes.
    level_base: usize,
    dirty: DirtyStore,
    scheduling: Scheduling,
    /// Fifo scheduling's queue key: a per-runtime insertion counter. It
    /// may wrap; a Fifo level is one node, so a wrapped key can only
    /// reorder the drain, never merge two nodes into one level.
    fifo_clock: u32,
    evaluating: bool,
    /// Monotone propagation-wave counter: incremented every time the
    /// evaluation routine starts a (non-nested) run. Never reset — unlike
    /// [`Stats::waves`] — so trace wave ids stay unique across
    /// [`Runtime::reset_stats`].
    wave: u64,
    exec_gen: u64,
    /// Reusable buffer for successor fan-out during propagation. Taken and
    /// returned around each use so steady-state drains allocate nothing;
    /// its capacity high-water mark is tracked in `stats.scratch_hwm`.
    succ_scratch: Vec<NodeId>,
    /// Reusable buffer for the level the drain has open: its batch, then
    /// its eager executions. Taken and returned around each drain, like
    /// `succ_scratch`.
    level_scratch: Vec<NodeId>,
    /// Reusable buffers for [`Runtime::batch`]: the pending-write list and
    /// the `NodeId`-indexed coalescing slot map (`slot + 1`, `0` = none).
    /// Taken at batch start and returned cleared (capacity kept) at commit,
    /// so steady-state batches allocate nothing for their bookkeeping.
    batch_pending: PendingWrites,
    batch_slots: Vec<usize>,
    /// Installed trace sink ([`crate::trace`]). `None` — the default — keeps
    /// every emission site down to one untaken branch.
    sink: Option<Arc<dyn TraceSink>>,
    pub(crate) stats: Stats,
}

/// Order in which the evaluator drains the inconsistent set.
///
/// Section 4.5 of the paper: "The amount of computation is minimized when
/// done in a topological order with respect to the graph". [`HeightOrder`]
/// approximates that order by longest-path height (the scheme of Hoover's
/// incremental graph evaluation work cited there); [`Fifo`] is the naive
/// alternative, kept as an ablation knob for experiment E9. Both queue
/// dirt in the same height queue; the scheduling picks its key.
///
/// [`HeightOrder`]: Scheduling::HeightOrder
/// [`Fifo`]: Scheduling::Fifo
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduling {
    /// Drain dirty nodes in ascending dependency height (default).
    #[default]
    HeightOrder,
    /// Drain dirty nodes in first-in first-out order, one per level.
    Fifo,
}

/// Configures and builds a [`Runtime`].
///
/// # Example
///
/// ```
/// use alphonse::{Runtime, Scheduling};
/// let rt = Runtime::builder()
///     .partitioning(true)
///     .scheduling(Scheduling::HeightOrder)
///     .build();
/// assert!(rt.is_partitioned());
/// ```
#[derive(Debug, Clone, Default)]
pub struct RuntimeBuilder {
    partitioning: bool,
    scheduling: Scheduling,
}

impl RuntimeBuilder {
    /// Enables dependency-graph partitioning with per-partition inconsistent
    /// sets (paper Section 6.3). Off by default.
    pub fn partitioning(mut self, on: bool) -> Self {
        self.partitioning = on;
        self
    }

    /// Chooses the order in which dirty nodes are processed
    /// (paper Section 4.5). Height order by default.
    pub fn scheduling(mut self, mode: Scheduling) -> Self {
        self.scheduling = mode;
        self
    }

    /// Builds the runtime.
    pub fn build(self) -> Runtime {
        let dirty = if self.partitioning {
            DirtyStore::Partitioned {
                uf: UnionFind::new(),
                sets: FxHashMap::default(),
            }
        } else {
            DirtyStore::Global(HeightQueue::new())
        };
        Runtime {
            inner: Arc::new(Mutex::new(Inner {
                graph: DepGraph::new(),
                values: Vec::new(),
                flags: Vec::new(),
                gens: Vec::new(),
                executors: Vec::new(),
                names: FxHashMap::default(),
                stacks: vec![Vec::new()],
                spare_logs: Vec::new(),
                parallelism: 0,
                exec_pool: None,
                level: Vec::new(),
                level_base: 0,
                dirty,
                scheduling: self.scheduling,
                fifo_clock: 0,
                evaluating: false,
                wave: 0,
                exec_gen: 0,
                succ_scratch: Vec::new(),
                level_scratch: Vec::new(),
                batch_pending: Vec::new(),
                batch_slots: Vec::new(),
                sink: crate::trace::default_sink(),
                stats: Stats::default(),
            })),
            exec_depth: Arc::new(AtomicU32::new(0)),
            par_active: Arc::new(AtomicU32::new(0)),
            metrics: Arc::new(crate::metrics::RuntimeMetrics::new()),
            id: NEXT_RUNTIME_ID.fetch_add(1, Ordering::Relaxed),
        }
    }
}

/// The Alphonse incremental-computation runtime.
///
/// A `Runtime` owns the dependency graph, the call stack of executing
/// incremental procedure instances, the inconsistent set(s), and all cached
/// values. It is a cheap handle (`Clone` shares the same underlying state).
///
/// A session is a `Send` value: a whole runtime — including every handle
/// cloned from it — may be *moved* to another thread, which is what the
/// session pool of the `alphonse_serve` crate does to spread tenants over
/// a fixed set of worker threads. The supported concurrency model for
/// callers is **one thread at a time**: invoking operations on one runtime
/// from two threads at once is a program error and trips the same
/// fail-stop re-entrancy check as a sink calling back into the runtime.
/// Threads *inside* one graph are the runtime's own business: with
/// [`set_parallelism`](Runtime::set_parallelism) of 2 or more, the
/// executions of one height level run on a worker pool beside the driver,
/// and while such a level is active the internal lock blocks instead of
/// failing (DESIGN.md, "Parallel waves"). Cross-session parallelism needs
/// no such machinery because independent runtimes share nothing.
///
/// # Example
///
/// ```
/// use alphonse::Runtime;
/// let rt = Runtime::new();
/// let a = rt.var(2i64);
/// let b = rt.var(3i64);
/// let product = rt.memo("product", move |rt, &(): &()| a.get(rt) * b.get(rt));
/// assert_eq!(product.call(&rt, ()), 6);
/// a.set(&rt, 10);
/// assert_eq!(product.call(&rt, ()), 30); // recomputed
/// assert_eq!(product.call(&rt, ()), 30); // cached
/// ```
///
/// # Panics
///
/// A panic unwinding out of an incremental procedure body rolls that
/// execution back: nothing is committed and the instance is left out of
/// date, so the next demand re-executes it. The panic then reaches the
/// caller, through every calling execution (each rolled back alike) or out
/// of [`propagate`](Runtime::propagate), and the runtime stays usable. A
/// body must not catch a callee's panic and return normally: the failed
/// run logged no dependences, so no repair would invalidate the caller.
///
/// The runtime's own panics are fail-stop, after which it is memory-safe
/// but not guaranteed consistent: a dependency cycle (which breaks the
/// paper's DET restriction, Section 3.5) is reported as soon as it is
/// detected, and so is re-entrant use from a closure run under its lock.
#[derive(Clone)]
pub struct Runtime {
    pub(crate) inner: Arc<Mutex<Inner>>,
    /// Incremental call-stack depth, shadowed outside the lock so
    /// [`Runtime::in_tracked_context`] — the gate embedded hosts consult on
    /// *every* untracked location read (Section 6.1) — costs one atomic
    /// load instead of a lock round-trip. Updated only while the lock is
    /// held (at frame push/pop), and callers use a runtime from one thread
    /// at a time (the fail-stop lock enforces it, though the type is
    /// `Sync`), so a relaxed load observes the calling thread's latest
    /// update.
    exec_depth: Arc<AtomicU32>,
    /// Nonzero while a level of executors is running on the worker pool.
    /// [`Runtime::lock`] consults it on contention: during a parallel level
    /// the lock is legitimately shared between the driver and the workers,
    /// so contention means *wait*; at any other time it means *re-entrancy
    /// bug*, and the fail-stop panic is kept.
    pub(crate) par_active: Arc<AtomicU32>,
    /// Lock-free telemetry registry ([`crate::metrics`]): wave/level
    /// histograms and worker gauges, recorded outside the runtime lock.
    pub(crate) metrics: Arc<crate::metrics::RuntimeMetrics>,
    pub(crate) id: u64,
}

impl fmt::Debug for Runtime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.lock();
        f.debug_struct("Runtime")
            .field("id", &self.id)
            .field("nodes", &inner.values.len())
            .field("edges", &inner.graph.edge_count())
            .field("dirty", &inner.dirty_len())
            .finish()
    }
}

impl Default for Runtime {
    fn default() -> Self {
        Self::new()
    }
}

impl Inner {
    fn dirty_len(&self) -> usize {
        match &self.dirty {
            DirtyStore::Global(q) => q.len(),
            DirtyStore::Partitioned { sets, .. } => sets.values().map(HeightQueue::len).sum(),
        }
    }

    /// Pops the next level of at most `max` dirty nodes into `out` and
    /// returns its height (see [`HeightQueue::pop_level`]). A partitioned
    /// store pops from `origin`'s partition — its root re-found per level,
    /// since partitions merge as executions read — or, with no origin,
    /// from the first partition holding dirt. A Fifo level is the single
    /// oldest node, reported as height 0: its key is an insertion stamp.
    fn pop_level(
        &mut self,
        origin: Option<NodeId>,
        out: &mut Vec<NodeId>,
        max: usize,
    ) -> Option<u32> {
        let fifo = self.scheduling == Scheduling::Fifo;
        let max = if fifo { max.min(1) } else { max };
        let height = match &mut self.dirty {
            DirtyStore::Global(q) => q.pop_level(out, max),
            DirtyStore::Partitioned { uf, sets } => match origin {
                Some(o) => sets.get_mut(&uf.find(o))?.pop_level(out, max),
                None => sets.values_mut().find_map(|q| q.pop_level(out, max)),
            },
        }?;
        Some(if fifo { 0 } else { height })
    }

    /// The diagnostic label of `n`: its explicit label, else — for a
    /// computation — its procedure's name.
    fn label_of(&self, n: NodeId) -> Option<&Arc<str>> {
        self.names
            .get(&(n.index() as u32))
            .or_else(|| self.executors[n.index()].as_ref().map(|e| e.name()))
    }

    /// The diagnostic label of `n`, for error messages.
    fn name_of(&self, n: NodeId) -> &str {
        self.label_of(n).map_or("<unnamed>", |s| &**s)
    }

    /// The stack slot of the current thread: `k + 1` on worker `k` of this
    /// runtime's executor pool (concurrent executors must not see each
    /// other's frames), 0 on every other thread — the propagation driver
    /// included. A runtime that never built a pool skips the thread-local
    /// identity read.
    fn slot(&self) -> usize {
        let Some(pool) = &self.exec_pool else {
            return 0;
        };
        match crate::exec_pool::worker_identity() {
            Some((pool_id, slot)) if pool_id == pool.id() => slot,
            _ => 0,
        }
    }

    /// The call stack of the current thread.
    fn active_stack(&mut self) -> &mut Vec<Frame> {
        let slot = self.slot();
        &mut self.stacks[slot]
    }

    /// Whether an execution of `n` runs on another thread of a pooled
    /// level: a frame of it sits on a stack other than the current
    /// thread's, above the level's suspended callers on slot 0. A booked
    /// but unclaimed level member has no frame yet, and frames on the
    /// caller's own stack are Section 7.3 re-entrancy; neither counts.
    fn executing_elsewhere(&self, n: NodeId) -> bool {
        if self.flags[n.index()] & F_ON_STACK == 0 {
            return false;
        }
        let own = self.slot();
        (self.stacks.iter().enumerate()).any(|(slot, stack)| {
            let base = if slot == 0 { self.level_base } else { 0 };
            slot != own && stack[base..].iter().any(|f| f.node == n)
        })
    }

    /// Marks every live frame of node `n` stale, on every stack. A stale
    /// execution's result will be discarded (generation supersession), so
    /// it must stop logging dependences.
    fn mark_stale_frames(&mut self, n: NodeId) {
        for frame in self.stacks.iter_mut().flatten() {
            if frame.node == n {
                frame.stale = true;
            }
        }
    }

    /// Inserts `n` into the inconsistent set of its partition, keyed by its
    /// height or, under Fifo scheduling, by the insertion clock. `cause` is
    /// the predecessor that fanned dirt here ([`DirtyReason::Fanout`]),
    /// `None` when `n` itself originates the dirt.
    fn insert_dirty(&mut self, n: NodeId, reason: DirtyReason, cause: Option<NodeId>) {
        let key = match self.scheduling {
            Scheduling::HeightOrder => self.graph.height(n),
            Scheduling::Fifo => {
                self.fifo_clock = self.fifo_clock.wrapping_add(1);
                self.fifo_clock
            }
        };
        let fresh = match &mut self.dirty {
            DirtyStore::Global(q) => q.insert(n, key),
            DirtyStore::Partitioned { uf, sets } => {
                sets.entry(uf.find(n)).or_default().insert(n, key)
            }
        };
        if fresh {
            self.stats.dirtied += 1;
            emit!(
                self,
                TraceEvent::Dirtied {
                    node: n,
                    reason,
                    cause,
                }
            );
        }
    }

    /// Logs the dependence of the executing incremental procedure (the top
    /// frame of this thread's stack) on `n` — paper Algorithm 3's
    /// `CreateEdge` step, deferred: the edge itself is reconciled into the
    /// graph when the frame pops. Returns `true` when the frame records
    /// (the log holds `n`), `false` when no frame is executing, it is
    /// stale or its recording is suppressed.
    ///
    /// With partitioning, the partitions of `n` and the reader merge here
    /// (Section 6.3), at the read, so a nested call's pending-change check
    /// sees the partition eager recording would have built.
    fn record_dependence(&mut self, n: NodeId) -> bool {
        let slot = self.slot();
        let Some(frame) = self.stacks[slot].last_mut() else {
            return false;
        };
        if frame.stale {
            return false;
        }
        if frame.suppress > 0 {
            self.stats.untracked_reads += 1;
            return false;
        }
        if frame.log.last() == Some(&n) {
            self.stats.dedup_hits += 1;
            return true;
        }
        if frame.log.len() == frame.log.capacity() {
            let _mem = mem::scope(mem::Tag::GraphCore);
            frame.log.push(n);
        } else {
            frame.log.push(n);
        }
        if frame.log.len() >= LOG_COMPACT_MIN.max(2 * frame.compacted) {
            self.stats.dedup_hits += dedup_marked(&mut frame.log, &mut self.flags);
            for &u in &frame.log {
                self.flags[u.index()] &= !F_MARK;
            }
            frame.compacted = frame.log.len();
        }
        let v = frame.node;
        if let DirtyStore::Partitioned { uf, sets } = &mut self.dirty {
            uf.ensure(n);
            uf.ensure(v);
            if let Some((win, lose)) = uf.union(n, v) {
                if let Some(mut lost) = sets.remove(&lose) {
                    sets.entry(win).or_default().absorb(&mut lost);
                }
            }
        }
        true
    }

    /// Reconciles the retained predecessor edges of `v` with `log`, what
    /// its execution accessed: an edge from a logged node stays untouched,
    /// an edge from any other node is removed, and a logged node with no
    /// edge yet gets one. The result is exactly the edge set eager
    /// recording builds (Algorithm 5 drops every predecessor edge, then
    /// Algorithm 3 records each access again), at no graph cost for the
    /// edges an execution reads again. `log` is left deduplicated.
    fn reconcile(&mut self, v: NodeId, log: &mut Vec<NodeId>) {
        self.stats.dedup_hits += dedup_marked(log, &mut self.flags);
        // Every logged node is marked now; a retained edge from a marked
        // node consumes its mark, so the marks left over are the new edges.
        let flags = &mut self.flags;
        let sink = self.sink.clone();
        self.stats.edges_removed += self.graph.retain_preds(v, |u| {
            let f = &mut flags[u.index()];
            if *f & F_MARK != 0 {
                *f &= !F_MARK;
                return true;
            }
            if let Some(sink) = &sink {
                sink.event(&TraceEvent::EdgeRemoved { from: u, to: v });
            }
            false
        });
        for &u in log.iter() {
            if self.flags[u.index()] & F_MARK != 0 {
                self.flags[u.index()] &= !F_MARK;
                self.add_dependence(u, v);
            }
        }
    }

    /// Adds the edge `u -> v`, raising heights, and fails stop on a
    /// dependency cycle.
    fn add_dependence(&mut self, u: NodeId, v: NodeId) {
        self.stats.height_raises += self.graph.add_edge(u, v);
        self.stats.edges_created += 1;
        emit!(self, TraceEvent::EdgeAdded { from: u, to: v });
        assert!(
            !self.graph.cycle_suspected(),
            "dependency cycle detected at {} -> {} ({}): incremental procedures must be \
             deterministic and acyclic (paper restriction DET)",
            u,
            v,
            self.name_of(v),
        );
    }

    /// Reconciles every live frame on this thread's stack with its log so
    /// far. Run before an evaluation starts under executing procedures (a
    /// memo call that finds pending changes, `propagate` from a body), so
    /// the nested propagation sees the graph eager recording would have
    /// built — including the removal of last run's edges this run has not
    /// read yet.
    fn reconcile_live(&mut self) {
        let slot = self.slot();
        let mut stack = std::mem::take(&mut self.stacks[slot]);
        for frame in stack.iter_mut().filter(|f| !f.stale) {
            self.reconcile(frame.node, &mut frame.log);
            frame.compacted = frame.log.len();
        }
        self.stacks[slot] = stack;
    }

    /// Whether a changed write to location `x` must queue it: some
    /// computation depends on `x` in the graph eager recording would have
    /// built. While executions are live, their nodes' retained edges
    /// stand for their previous runs, so for those nodes the live frame's
    /// log decides instead.
    fn has_readers(&self, x: NodeId) -> bool {
        let live = || {
            let booked = self.level.iter().filter_map(|slot| match slot {
                LevelSlot::Booked(booking) => Some(&booking.frame),
                _ => None,
            });
            (self.stacks.iter().flatten())
                .chain(booked)
                .filter(|f| !f.stale)
        };
        if live().next().is_none() {
            return self.graph.has_succs(x);
        }
        live().any(|f| f.log.contains(&x))
            || self
                .graph
                .succs(x)
                .any(|y| self.flags[y.index()] & F_ON_STACK == 0 || !live().any(|f| f.node == y))
    }

    /// Marks every successor of `u` dirty — the fan-out step of the
    /// Section 4.5 marking rule. Successors are staged through the
    /// runtime-owned scratch buffer (the graph borrow must end before
    /// `insert_dirty` can mutate heights/partitions), so at steady state
    /// this performs zero heap allocations; `stats.scratch_hwm` records the
    /// buffer's capacity high-water mark as evidence.
    fn dirty_succs_of(&mut self, u: NodeId) {
        let mut scratch = std::mem::take(&mut self.succ_scratch);
        self.graph.succs_into(u, &mut scratch);
        self.stats.scratch_hwm = self.stats.scratch_hwm.max(scratch.capacity() as u64);
        for &s in &scratch {
            self.insert_dirty(s, DirtyReason::Fanout, Some(u));
        }
        self.succ_scratch = scratch;
    }

    /// Stores `value` into location `n` — the shared tail of `modify`
    /// (Algorithm 4) used by both `raw_write` and batch commit: record the
    /// writer's dependence, compare against the stored value (the cutoff
    /// comparison is only charged when a prior value exists), and dirty the
    /// location's readers when the value actually changed.
    fn write_location(&mut self, n: NodeId, value: Box<dyn Value>) {
        let recorded = self.record_dependence(n);
        let i = n.index();
        debug_assert!(self.flags[i] & F_COMP == 0, "write on a computation node");
        let (changed, compared) = match &self.values[i] {
            Some(old) => (!old.dyn_eq(&*value), true),
            None => (true, false),
        };
        self.values[i] = Some(value);
        if compared {
            self.stats.comparisons += 1;
        }
        emit!(self, TraceEvent::Write { node: n, changed });
        if compared && !changed {
            emit!(self, TraceEvent::CutoffStop { node: n });
        }
        if changed {
            self.stats.changes += 1;
            // Only locations some incremental instance has actually read
            // need propagation — the paper's Algorithm 4 guards with
            // `nodeptr(l) # NIL` for the same reason. Skipping reader-less
            // locations is not merely an optimization: dirt queued before
            // the first reader exists would be processed *after* that
            // reader consumed the post-write value, spuriously marking it
            // mid-construction and breaking the frontier invariant of the
            // Section 4.5 marking rule. A recording writer is a reader of
            // its own write.
            if recorded || self.has_readers(n) {
                self.insert_dirty(n, DirtyReason::WriteChanged, None);
            }
        }
    }

    /// Appends one node to every SoA column (and the side tables it needs).
    fn alloc_node(
        &mut self,
        value: Option<Box<dyn Value>>,
        comp: Option<(Strategy, Executor)>,
    ) -> NodeId {
        let n = self.graph.add_node();
        debug_assert_eq!(n.index(), self.values.len());
        let kind = if comp.is_some() {
            NodeKind::Computation
        } else {
            NodeKind::Location
        };
        let flags = match &comp {
            None => 0,
            Some((Strategy::Demand, _)) => F_COMP,
            Some((Strategy::Eager, _)) => F_COMP | F_EAGER,
        };
        // SoA column growth is graph-core memory; the boxed value itself
        // was billed to ValueSlab at the caller's `Box::new`.
        let _mem = mem::scope(mem::Tag::GraphCore);
        self.values.push(value);
        self.flags.push(flags);
        self.gens.push(0);
        self.executors.push(comp.map(|(_, executor)| executor));
        if let DirtyStore::Partitioned { uf, .. } = &mut self.dirty {
            uf.ensure(n);
        }
        self.stats.nodes_created += 1;
        emit!(
            self,
            TraceEvent::NodeCreated {
                node: n,
                kind,
                label: self.label_of(n).cloned(),
            }
        );
        n
    }
}

impl Runtime {
    /// Acquires the internal state lock. It is tried first. Contention
    /// while a level of executors runs on the worker pool (`par_active >
    /// 0`) is legitimate — the driver and the helpers share the lock for
    /// short frame, read and commit sections — so the call then blocks.
    /// At any other time a session is used from one thread, so contention
    /// means a runtime operation was re-entered — by a closure that runs
    /// under the lock (a `Var::with` body, a trace sink) or by a second
    /// thread misusing one session concurrently — and the call panics
    /// (fail-stop) instead of deadlocking. A poisoned lock is entered
    /// anyway: a panic raised while it was held came either from a closure
    /// run under it (a `Var::with` body, rolled back with its execution
    /// like any body panic) or from a fail-stop check.
    ///
    /// Every acquisition is tallied in [`Stats::lock_acquisitions`].
    #[inline]
    pub(crate) fn lock(&self) -> MutexGuard<'_, Inner> {
        let mut guard = match self.inner.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
            Err(TryLockError::WouldBlock) => {
                // While a level of executors runs on the worker pool the
                // lock is legitimately contended — the driver and every
                // helper take it for short frame/commit/read sections — so
                // block instead of treating contention as re-entrancy.
                if self.par_active.load(Ordering::Acquire) == 0 {
                    panic!(
                        "runtime re-entered while internally locked: closures run by Var::with, \
                         with_value and trace sinks must not call back into runtime operations"
                    )
                }
                self.inner.lock().unwrap_or_else(|e| e.into_inner())
            }
        };
        guard.stats.lock_acquisitions += 1;
        guard
    }

    /// Creates a runtime with default configuration (no partitioning,
    /// height-order scheduling).
    pub fn new() -> Self {
        RuntimeBuilder::default().build()
    }

    /// Starts configuring a runtime.
    pub fn builder() -> RuntimeBuilder {
        RuntimeBuilder::default()
    }

    /// Returns `true` if this runtime maintains per-partition inconsistent
    /// sets (Section 6.3).
    pub fn is_partitioned(&self) -> bool {
        matches!(self.lock().dirty, DirtyStore::Partitioned { .. })
    }

    /// The dirty-node draining order in use.
    pub fn scheduling(&self) -> Scheduling {
        self.lock().scheduling
    }

    /// Sets the wave-propagation parallelism. The evaluator always drains
    /// the inconsistent set one height level at a time (Section 4.5) and
    /// commits a level's results in batch order after its last execution;
    /// this knob only decides how many threads execute a level:
    ///
    /// * `0` (the default) or `1` — the propagating thread runs each level
    ///   alone.
    /// * `n >= 2` — a level of `w` eager executions runs on `min(n, w)`
    ///   threads: the propagating thread itself plus helpers from a
    ///   persistent pool of `n − 1` workers, all claiming executions from
    ///   the level in turn.
    ///
    /// Values, work counters and the dirt every level leaves are the same
    /// at every setting. Every scheduling and partitioning configuration
    /// drains through the same levels; under Fifo scheduling every level
    /// is a single node. See DESIGN.md ("Parallel waves") for the
    /// execution model.
    pub fn set_parallelism(&self, n: usize) {
        let mut inner = self.lock();
        if inner.parallelism != n {
            inner.parallelism = n;
            // A pool of the wrong size is rebuilt lazily on the next
            // multi-node level; dropping it here joins its (idle) workers.
            if inner
                .exec_pool
                .as_ref()
                .is_some_and(|p| p.workers() + 1 != n)
            {
                inner.exec_pool = None;
            }
        }
    }

    /// The current wave-propagation parallelism (see
    /// [`Runtime::set_parallelism`]).
    pub fn parallelism(&self) -> usize {
        self.lock().parallelism
    }

    /// A snapshot of the work counters.
    pub fn stats(&self) -> Stats {
        self.lock().stats
    }

    /// Resets all work counters to zero.
    pub fn reset_stats(&self) {
        self.lock().stats = Stats::default();
    }

    /// A complete telemetry snapshot: every [`Stats`] counter plus the
    /// always-on wave/level latency histograms and executor-pool worker
    /// gauges maintained by [`crate::metrics`]. The histograms are
    /// maintained lock-free outside the runtime lock and are **not**
    /// cleared by [`Runtime::reset_stats`]; isolate a phase with
    /// [`MetricsSnapshot::delta_since`](crate::metrics::MetricsSnapshot::delta_since).
    ///
    /// While recording is switched off ([`crate::metrics::set_enabled`]) the
    /// counters still advance but the histograms and gauges do not.
    pub fn metrics_snapshot(&self) -> crate::metrics::MetricsSnapshot {
        let m = &*self.metrics;
        let _mem = mem::scope(mem::Tag::Metrics);
        crate::metrics::MetricsSnapshot {
            counters: self.stats().fields(),
            wave_latency_ns: m.wave_latency_ns.snapshot(),
            wave_executed: m.wave_executed.snapshot(),
            wave_wasted: m.wave_wasted.snapshot(),
            level_width: m.level_width.snapshot(),
            level_latency_ns: m.level_latency_ns.snapshot(),
            workers: m.worker_snapshots(),
            mem: mem::snapshot(),
        }
    }

    /// Total propagation waves run since the runtime was built. Unlike
    /// [`Stats::waves`] this is never reset, so it matches the `wave` ids
    /// stamped on [`crate::trace::TraceEvent::PropagateBegin`] events.
    pub fn waves(&self) -> u64 {
        self.lock().wave
    }

    // ------------------------------------------------------------------
    // Observability (see `crate::trace` for the event taxonomy).
    // ------------------------------------------------------------------

    /// Installs `sink` as this runtime's trace sink, returning the previous
    /// one; pass `None` to detach. Events are delivered synchronously while
    /// the runtime is internally locked — see [`crate::trace`] for the
    /// sink contract (in short: a sink must never re-enter runtime
    /// operations).
    pub fn set_sink(&self, sink: Option<Arc<dyn TraceSink>>) -> Option<Arc<dyn TraceSink>> {
        std::mem::replace(&mut self.lock().sink, sink)
    }

    /// Runs `f` with `sink` installed, then restores the previously
    /// installed sink (a scoped form of [`Runtime::set_sink`]).
    ///
    /// # Example
    ///
    /// ```
    /// use alphonse::trace::Recorder;
    /// use alphonse::Runtime;
    /// use std::sync::Arc;
    ///
    /// let rt = Runtime::new();
    /// let x = rt.var(1i64);
    /// let rec = Arc::new(Recorder::new(64));
    /// rt.with_trace(rec.clone(), || x.set(&rt, 2));
    /// assert!(!rec.is_empty());
    /// ```
    pub fn with_trace<R>(&self, sink: Arc<dyn TraceSink>, f: impl FnOnce() -> R) -> R {
        let prev = self.set_sink(Some(sink));
        let out = f();
        self.set_sink(prev);
        out
    }

    /// Returns `true` if a trace sink is currently installed. Substrates
    /// consult this before allocating diagnostic labels on hot construction
    /// paths, keeping the no-observer configuration allocation-free.
    pub fn tracing(&self) -> bool {
        self.lock().sink.is_some()
    }

    /// Assigns a diagnostic label to node `n`, visible in
    /// [`Runtime::explain`], [`Runtime::dump_graph`], graph snapshots and
    /// the trace stream ([`crate::trace::TraceEvent::Labeled`]).
    ///
    /// # Panics
    ///
    /// Panics if `n` does not belong to this runtime.
    pub fn set_label(&self, n: NodeId, label: &str) {
        let mut inner = self.lock();
        assert!(n.index() < inner.values.len(), "unknown node {n}");
        let label: Arc<str> = Arc::from(label);
        inner.names.insert(n.index() as u32, Arc::clone(&label));
        emit!(inner, TraceEvent::Labeled { node: n, label });
    }

    /// The diagnostic label of node `n`, if it has one: the label given by
    /// [`Runtime::var_named`] or [`Runtime::set_label`], else — for a memo
    /// instance — its procedure's name.
    ///
    /// # Panics
    ///
    /// Panics if `n` does not belong to this runtime.
    pub fn node_label(&self, n: NodeId) -> Option<String> {
        let inner = self.lock();
        assert!(n.index() < inner.values.len(), "unknown node {n}");
        inner.label_of(n).map(|s| s.to_string())
    }

    /// Verifies the runtime's internal data-structure invariants. Debug
    /// builds only — release builds compile this to a no-op, so harnesses
    /// (like the E11 differential tests) can call it unconditionally.
    ///
    /// Checked invariants:
    ///
    /// * the call stack is empty (only call this between top-level
    ///   operations) and no node is flagged on-stack;
    /// * edge symmetry: the graph's successor and predecessor lists agree
    ///   as edge multisets;
    /// * every queued dirty node is a node of this runtime, and with
    ///   partitioning on it is queued under its own partition root;
    /// * at quiescence (no dirty nodes anywhere), the Section 4.5 marking
    ///   frontier invariant: every computation that depends on an
    ///   inconsistent computation is itself inconsistent.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) describing the first violated invariant.
    pub fn check_invariants(&self) {
        #[cfg(debug_assertions)]
        {
            let mut guard = self.lock();
            let inner = &mut *guard;
            for (slot, stack) in inner.stacks.iter().enumerate() {
                assert!(
                    stack.is_empty(),
                    "check_invariants: {} execution frame(s) still active on stack slot \
                     {slot}; only call between top-level operations",
                    stack.len()
                );
            }
            let n_nodes = inner.values.len();
            for (i, &f) in inner.flags.iter().enumerate() {
                assert!(
                    f & F_ON_STACK == 0,
                    "check_invariants: node {i} is flagged on-stack with an empty call stack"
                );
                assert!(
                    f & F_MARK == 0,
                    "check_invariants: node {i} kept a dependence-log mark past its lock hold"
                );
            }
            // Edge symmetry: every succ edge must have a matching pred edge
            // and vice versa, as multisets.
            let mut balance: FxHashMap<(NodeId, NodeId), i64> = FxHashMap::default();
            for i in 0..n_nodes {
                let u = NodeId::from_index(i);
                for v in inner.graph.succs(u) {
                    *balance.entry((u, v)).or_insert(0) += 1;
                }
                for p in inner.graph.preds(u) {
                    *balance.entry((p, u)).or_insert(0) -= 1;
                }
            }
            for ((u, v), count) in balance {
                assert_eq!(
                    count, 0,
                    "check_invariants: edge {u} -> {v} appears {count:+} more time(s) in the \
                     successor lists than in the predecessor lists"
                );
            }
            // Dirty-set sanity.
            let mut dirty_total = 0usize;
            match &mut inner.dirty {
                DirtyStore::Global(s) => s.for_each_member(|m| {
                    assert!(
                        m.index() < n_nodes,
                        "check_invariants: dirty set contains unknown node {m}"
                    );
                    dirty_total += 1;
                }),
                DirtyStore::Partitioned { uf, sets } => {
                    for (&root, s) in sets.iter() {
                        s.for_each_member(|m| {
                            assert!(
                                m.index() < n_nodes,
                                "check_invariants: dirty set contains unknown node {m}"
                            );
                            assert_eq!(
                                uf.find(m),
                                root,
                                "check_invariants: node {m} queued under stale partition root \
                                 {root}"
                            );
                            dirty_total += 1;
                        });
                    }
                }
            }
            // Marking frontier (Section 4.5): once all dirt has drained,
            // nothing consistent may sit downstream of anything inconsistent.
            if dirty_total == 0 {
                for i in 0..n_nodes {
                    let u = NodeId::from_index(i);
                    let f = inner.flags[i];
                    let stale = f & F_COMP != 0 && f & F_CONSISTENT == 0;
                    if !stale {
                        continue;
                    }
                    for v in inner.graph.succs(u) {
                        let g = inner.flags[v.index()];
                        if g & F_COMP != 0 {
                            assert!(
                                g & F_CONSISTENT == 0,
                                "check_invariants: marking frontier violated — consistent \
                                 node {v} depends on inconsistent node {u}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Number of dependency-graph nodes (locations + procedure instances).
    pub fn node_count(&self) -> usize {
        self.lock().graph.node_count()
    }

    /// Number of live dependency edges.
    pub fn edge_count(&self) -> usize {
        self.lock().graph.edge_count()
    }

    /// Number of nodes currently awaiting propagation.
    pub fn dirty_count(&self) -> usize {
        self.lock().dirty_len()
    }

    /// Returns `true` while an incremental procedure is executing — i.e.
    /// reads and writes performed now will be recorded as its dependencies.
    pub fn in_tracked_context(&self) -> bool {
        self.exec_depth.load(Ordering::Relaxed) > 0
    }

    /// Returns `true` if a read performed right now would actually record a
    /// dependence edge: an incremental procedure is executing, its frame is
    /// not stale, and no `(*UNCHECKED*)` suppression is active. Useful for
    /// asserting that statically pruned accesses really are irrelevant.
    pub fn recording_context(&self) -> bool {
        let mut inner = self.lock();
        matches!(inner.active_stack().last(), Some(f) if !f.stale && f.suppress == 0)
    }

    /// What kind of entity node `n` represents.
    ///
    /// # Panics
    ///
    /// Panics if `n` does not belong to this runtime.
    pub fn node_kind(&self, n: NodeId) -> NodeKind {
        if self.lock().flags[n.index()] & F_COMP != 0 {
            NodeKind::Computation
        } else {
            NodeKind::Location
        }
    }

    /// Runs `f` with dependence recording suppressed for the *current*
    /// incremental procedure — the `(*UNCHECKED*)` pragma of Section 6.4.
    ///
    /// Nested incremental procedures called inside `f` still track their own
    /// dependencies normally; only edges into the procedure executing at the
    /// time of this call are suppressed. Outside any incremental procedure
    /// this is a no-op wrapper.
    pub fn untracked<T>(&self, f: impl FnOnce() -> T) -> T {
        struct Guard<'a> {
            rt: &'a Runtime,
            depth: usize,
        }
        impl Drop for Guard<'_> {
            fn drop(&mut self) {
                let mut inner = self.rt.lock();
                let stack = inner.active_stack();
                if stack.len() == self.depth {
                    if let Some(frame) = stack.last_mut() {
                        frame.suppress -= 1;
                    }
                }
            }
        }
        let depth = {
            let mut inner = self.lock();
            let stack = inner.active_stack();
            if let Some(frame) = stack.last_mut() {
                frame.suppress += 1;
            }
            stack.len()
        };
        let _guard = Guard { rt: self, depth };
        f()
    }

    // ------------------------------------------------------------------
    // Low-level location API (the paper's `access`/`modify` operations).
    // ------------------------------------------------------------------

    /// Allocates a tracked storage location holding `initial`.
    ///
    /// This is the low-level API used by [`Var`](crate::Var) and by language
    /// front ends that manage their own storage; prefer
    /// [`Runtime::var`](crate::Runtime::var) in application code.
    pub fn raw_alloc(&self, initial: Box<dyn Value>) -> NodeId {
        self.lock().alloc_node(Some(initial), None)
    }

    /// Allocates a location holding `initial` *and* records the executing
    /// incremental procedure's dependence on it, under one guard — the
    /// lazy-promotion `access` of Algorithm 3, where a location read for
    /// the first time inside a tracked context gets its graph node and its
    /// first dependence edge together. Equivalent to [`Runtime::raw_alloc`]
    /// followed by a read, minus the second lock round-trip.
    pub(crate) fn alloc_accessed(&self, initial: Box<dyn Value>) -> NodeId {
        let mut inner = self.lock();
        inner.stats.reads += 1;
        let node = inner.alloc_node(Some(initial), None);
        emit!(inner, TraceEvent::Read { node });
        inner.record_dependence(node);
        node
    }

    /// Reads a location in place — the paper's `access` (Algorithm 3):
    /// records the dependence of the currently executing incremental
    /// procedure (if any) on it, then hands the cached value to `f` by
    /// reference, without boxing or cloning it. [`Var::get`](crate::Var::get)
    /// and [`Var::with`](crate::Var::with) are built on it; `f` clones the
    /// value when it must outlive the read.
    ///
    /// The runtime is locked for the duration of `f`: the closure must not
    /// re-enter runtime operations (writes, memo calls, propagation, even
    /// reads) or the fail-stop re-entrancy check panics.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a location of this runtime.
    pub fn with_value<R>(&self, n: NodeId, f: impl FnOnce(&dyn Value) -> R) -> R {
        let mut inner = self.lock();
        inner.stats.reads += 1;
        emit!(inner, TraceEvent::Read { node: n });
        inner.record_dependence(n);
        let i = n.index();
        debug_assert!(
            inner.flags[i] & F_COMP == 0,
            "with_value on a computation node"
        );
        f(&**inner.values[i]
            .as_ref()
            .expect("location always holds a value"))
    }

    /// Writes a location — the paper's `modify` (Algorithm 4): the write
    /// first records a dependence (a procedure depends on storage it writes,
    /// Section 4.3), then stores the value, and dirties the node if the
    /// value actually changed.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a location of this runtime.
    pub fn raw_write(&self, n: NodeId, value: Box<dyn Value>) {
        let mut inner = self.lock();
        inner.stats.writes += 1;
        inner.write_location(n, value);
    }

    /// Hands out the runtime-owned batch buffers (empty, warm capacity) for
    /// a new transaction. A nested batch simply gets fresh empty buffers.
    pub(crate) fn take_batch_buffers(&self) -> (PendingWrites, Vec<usize>) {
        let mut inner = self.lock();
        (
            std::mem::take(&mut inner.batch_pending),
            std::mem::take(&mut inner.batch_slots),
        )
    }

    /// Commits a coalesced write transaction: one lock of the runtime for
    /// the whole set of writes, each applied with the same `modify`
    /// semantics as [`Runtime::raw_write`]. `pending` holds one entry per
    /// distinct written location (last write wins); `submitted` and
    /// `coalesced` are the transaction's raw tallies for the stats. The
    /// drained buffers are stowed back on the runtime for the next batch.
    pub(crate) fn commit_batch(
        &self,
        mut pending: PendingWrites,
        mut slots: Vec<usize>,
        submitted: u64,
        coalesced: u64,
    ) {
        let mut inner = self.lock();
        inner.stats.batches += 1;
        inner.stats.batched_writes += submitted;
        inner.stats.coalesced_writes += coalesced;
        emit!(
            inner,
            TraceEvent::BatchCommit {
                writes: submitted,
                coalesced,
                // The wave that will drain the queued dirt: the current one
                // when committing mid-propagation, otherwise the next to
                // begin.
                wave: if inner.evaluating {
                    inner.wave
                } else {
                    inner.wave + 1
                },
            }
        );
        for (n, value) in pending.drain(..) {
            slots[n.index()] = 0; // reset only the touched slots
            inner.stats.writes += 1;
            inner.write_location(n, value);
        }
        inner.batch_pending = pending;
        inner.batch_slots = slots;
    }

    // ------------------------------------------------------------------
    // Computation nodes (used by Memo; crate-internal).
    // ------------------------------------------------------------------

    /// Allocates a computation node for a new memo instance *and* books its
    /// first execution, all under one guard: the call and probe counters,
    /// node allocation and [`Runtime::exec_begin`] share the
    /// instance-creation path's single runtime lock. A fresh instance is
    /// about to execute unconditionally (it cannot be a cache hit and has
    /// no pending changes to settle first), so fusing the two halves saves
    /// a lock round-trip per instance created. The caller runs the
    /// returned executor unlocked and completes with
    /// [`Runtime::finish_exec_recording`].
    /// `height_hint` seeds the fresh node's evaluation priority from a
    /// statically computed stratum (see `Memo::set_height_hint`): the node
    /// starts at that height instead of 0, so the online raise step of
    /// later edge insertions usually has nothing to do. A hint of 0 is a
    /// no-op; an overestimate is harmless (the height queue tolerates
    /// conservative priorities — heights only order processing).
    pub(crate) fn alloc_comp_begun(
        &self,
        strategy: Strategy,
        executor: Executor,
        height_hint: u32,
    ) -> (NodeId, Executor, u64) {
        let mut guard = self.lock();
        let inner = &mut *guard;
        inner.stats.calls += 1;
        inner.stats.memo_probes += 1;
        let n = inner.alloc_node(None, Some((strategy, executor)));
        if height_hint > 0 && inner.graph.set_min_height(n, height_hint) {
            inner.stats.height_seeded += 1;
        }
        let (executor, my_gen) = self.exec_begin(inner, n);
        (n, executor, my_gen)
    }

    /// Pre-call settling plus cache consultation in (usually) one lock
    /// round-trip: tallies the call/probe counters, checks for pending
    /// changes that could affect `n` (the `Evaluate(Inconsistent)` step of
    /// Algorithm 5 — with partitioning, only `n`'s component), runs the
    /// evaluation routine if so, then probes the cache. On a hit the
    /// caller's dependence on `n` is recorded under the same guard and `f`
    /// runs on the cached value in place. `None` means a miss: the caller
    /// must execute the node.
    ///
    /// Only the rare pending case pays more than one lock: the evaluation
    /// routine must run unlocked (it re-enters the runtime), so that path
    /// re-locks for the probe afterwards. So does a call to a node another
    /// pool claimant is executing, which yields until that execution's
    /// frame pops.
    pub(crate) fn precall_cached<R>(
        &self,
        n: NodeId,
        f: impl FnOnce(&dyn Value) -> R,
    ) -> Option<R> {
        let mut guard = self.lock();
        let inner = &mut *guard;
        inner.stats.calls += 1;
        inner.stats.memo_probes += 1;
        let pending = if inner.evaluating {
            false
        } else {
            match &mut inner.dirty {
                DirtyStore::Global(q) => !q.is_empty(),
                DirtyStore::Partitioned { uf, sets } => {
                    sets.get(&uf.find(n)).is_some_and(|q| !q.is_empty())
                }
            }
        };
        if pending {
            drop(guard);
            self.evaluate(Some(n));
            guard = self.lock();
        }
        // Another claimant of a pooled level is executing `n`: wait until
        // its frame pops. A memo call commits there; a level member commits
        // after the level, and re-dirties this caller if its value changed.
        while guard.executing_elsewhere(n) {
            drop(guard);
            std::thread::yield_now();
            guard = self.lock();
        }
        self.try_hit(&mut guard, n, f)
    }

    /// Cache probe under the caller's guard: runs `f` on the cached value if
    /// the computation node is consistent, without cloning it out of the
    /// cache, and — on that hit — records the caller's dependence on `n`.
    /// Returns `None` (without calling `f` or recording anything) on a miss:
    /// inconsistent, or consistent but evicted.
    fn try_hit<R>(
        &self,
        inner: &mut Inner,
        n: NodeId,
        f: impl FnOnce(&dyn Value) -> R,
    ) -> Option<R> {
        let i = n.index();
        debug_assert!(inner.flags[i] & F_COMP != 0, "computation node expected");
        if inner.flags[i] & F_CONSISTENT == 0 {
            return None;
        }
        if inner.values[i].is_some() {
            inner.stats.cache_hits += 1;
            emit!(inner, TraceEvent::CacheHit { node: n });
            inner.record_dependence(n);
            let v = inner.values[i].as_ref().expect("checked above");
            return Some(f(&**v));
        }
        // Consistent but value-less: either a self-recursive first
        // execution (DET violation — diagnose) or an evicted value
        // (recompute by reporting a miss).
        if inner.flags[i] & F_ON_STACK != 0 {
            panic!(
                "incremental procedure {} recursively depends on its own first execution \
                 (violates paper restriction DET)",
                inner.name_of(n)
            );
        }
        None
    }

    /// The tail of a memo call that executes `n`, booked by
    /// [`Runtime::exec_begin`] (or, for a fresh instance, inside
    /// [`Runtime::alloc_comp_begun`]'s guard): runs the executor unlocked,
    /// then pops and commits the execution, records the caller's dependence
    /// on `n` and runs `f` on the result, all under one final guard. `f`
    /// sees the committed value in the common case, or the superseded
    /// execution's uncommitted result when a nested re-execution won the
    /// generation race (Section 7.3 re-entrancy). A failed execution is
    /// rolled back and its panic resumes once the guard is released.
    pub(crate) fn finish_exec_recording<R>(
        &self,
        n: NodeId,
        executor: &Executor,
        my_gen: u64,
        f: impl FnOnce(&dyn Value) -> R,
    ) -> R {
        let outcome = self.run_body(executor);
        let mut guard = self.lock();
        let inner = &mut *guard;
        let changed = self.exec_pop(inner, n, my_gen, &outcome);
        let uncommitted = match inner.exec_store(n, my_gen, outcome, changed) {
            Ok((uncommitted, _)) => uncommitted,
            Err(payload) => {
                drop(guard);
                resume_unwind(payload)
            }
        };
        inner.record_dependence(n);
        match uncommitted {
            Some(v) => f(&*v),
            None => {
                let v = inner.values[n.index()]
                    .as_ref()
                    .expect("execution just committed a value");
                f(&**v)
            }
        }
    }

    /// Books an execution of computation node `n` per Algorithm 5 and
    /// pushes its call frame onto the current thread's stack, handing back
    /// the executor to run *outside* the lock. Takes the caller's guard so
    /// booking can share a lock round-trip with whatever precedes it.
    ///
    /// Re-entrant executions (an instance re-executing while an older
    /// execution of the same instance is still on the stack, as the AVL
    /// `balance` method of Section 7.3 provokes after rotations) are
    /// resolved by generation stamps: only the latest-started execution
    /// commits to the cache; a superseded outer execution still returns its
    /// computed value to its caller but leaves cache, consistency flag and
    /// dependency edges to the fresher run.
    pub(crate) fn exec_begin(&self, inner: &mut Inner, n: NodeId) -> (Executor, u64) {
        let Booking {
            executor,
            my_gen,
            frame,
        } = inner.exec_book(n);
        self.push_frame(inner, frame);
        (executor, my_gen)
    }

    /// The stack half of [`Runtime::exec_begin`], run by the executing
    /// thread: pushes `frame` onto that thread's stack and opens the
    /// execution's trace span. A level's claimant pushes the frame the
    /// driver booked for it.
    fn push_frame(&self, inner: &mut Inner, frame: Frame) {
        let n = frame.node;
        inner.active_stack().push(frame);
        self.exec_depth.fetch_add(1, Ordering::Relaxed);
        emit!(inner, TraceEvent::ExecuteBegin { node: n });
    }

    /// Runs an executor's body unlocked, catching a panic that unwinds out
    /// of it so the caller can roll the execution back before passing the
    /// payload on.
    fn run_body(&self, executor: &Executor) -> Outcome {
        catch_unwind(AssertUnwindSafe(|| executor.run(self)))
    }

    /// The frame half of finishing an execution, run by the thread that
    /// executed `n` as soon as its executor returns: pops that thread's
    /// innermost frame, reconciles its dependence log with the node's
    /// retained edges (a superseded or failed execution's log is dropped
    /// instead), clears the node's on-stack bit unless the frame is
    /// re-entrant, and compares the value against the still-cached old one
    /// (the cutoff comparison). Closes the execution's trace span and
    /// returns whether the value changed (`false` when superseded or
    /// failed); [`Inner::exec_store`] commits it.
    fn exec_pop(&self, inner: &mut Inner, n: NodeId, my_gen: u64, outcome: &Outcome) -> bool {
        let value = outcome.as_deref().ok();
        let mut frame = inner.active_stack().pop().expect("frame pushed above");
        self.exec_depth.fetch_sub(1, Ordering::Relaxed);
        debug_assert_eq!(frame.node, n, "call stack imbalance");
        debug_assert_eq!(frame.stale, inner.gens[n.index()] != my_gen);
        if !frame.stale && value.is_some() {
            inner.reconcile(n, &mut frame.log);
        }
        frame.log.clear();
        inner.spare_logs.push(frame.log);
        let i = n.index();
        if !frame.reentrant {
            inner.flags[i] &= !F_ON_STACK;
        }
        let (changed, compared) = match (value, &inner.values[i]) {
            // A failed execution has no value, and a superseded one's is
            // handed back, never compared: the fresher run owns the cache.
            (None, _) => (false, false),
            _ if inner.gens[i] != my_gen => (false, false),
            // A first execution has no previous value: it counts as changed
            // without charging a cutoff comparison.
            (Some(_), None) => (true, false),
            (Some(value), Some(old)) => (!old.dyn_eq(value), true),
        };
        if compared {
            inner.stats.comparisons += 1;
            if !changed {
                // The body ran and reproduced the cached value: real work,
                // no downstream effect. Waves report this share through the
                // `wave_wasted` metrics histogram.
                inner.stats.wasted_executions += 1;
            }
        }
        emit!(inner, TraceEvent::ExecuteEnd { node: n, changed });
        if compared && !changed {
            emit!(inner, TraceEvent::CutoffStop { node: n });
        }
        changed
    }
    /// Explains why a node has its current value: lists its recorded
    /// dependencies (the paper's referenced-argument set `R(p)`), one line
    /// per predecessor with kind, diagnostic name and cached value.
    ///
    /// This realizes the "sophisticated debugging" benefit the paper's
    /// introduction attributes to the maintained dependency information.
    ///
    /// # Panics
    ///
    /// Panics if `n` does not belong to this runtime.
    pub fn explain(&self, n: NodeId) -> String {
        use std::fmt::Write;
        let mut guard = self.lock();
        let inner = &mut *guard;
        let describe = |inner: &Inner, id: NodeId| -> String {
            let i = id.index();
            let f = inner.flags[i];
            let kind = if f & F_COMP == 0 {
                "location".to_string()
            } else {
                format!(
                    "instance of {} ({})",
                    inner.name_of(id),
                    if f & F_CONSISTENT != 0 {
                        "consistent"
                    } else {
                        "stale"
                    }
                )
            };
            let value = inner.values[i]
                .as_ref()
                .map(|v| format!("{v:?}"))
                .unwrap_or_else(|| "<never computed>".to_string());
            format!("{id}: {kind} = {value}")
        };
        let mut out = describe(inner, n);
        out.push('\n');
        // Predecessors are staged through the runtime-owned scratch buffer
        // (same pattern as `dirty_succs_of`), so this diagnostic allocates
        // nothing beyond the output string at steady state.
        let mut preds = std::mem::take(&mut inner.succ_scratch);
        inner.graph.preds_into(n, &mut preds);
        preds.sort_unstable();
        preds.dedup();
        if preds.is_empty() {
            out.push_str("  (no recorded dependencies)\n");
        }
        for &p in &preds {
            let _ = writeln!(out, "  depends on {}", describe(inner, p));
        }
        inner.succ_scratch = preds;
        out
    }

    /// Renders the dependency graph in a human-readable form: one line per
    /// node with its kind, diagnostic name, height, consistency and
    /// successors. Intended for debugging and tests.
    pub fn dump_graph(&self) -> String {
        use std::fmt::Write;
        let mut guard = self.lock();
        let inner = &mut *guard;
        let mut out = String::new();
        // Successors are staged through the reusable scratch buffer and
        // written straight into the output, instead of collecting a fresh
        // `Vec<String>` per node.
        let mut succs = std::mem::take(&mut inner.succ_scratch);
        for i in 0..inner.values.len() {
            let n = NodeId::from_index(i);
            let f = inner.flags[i];
            let kind = if f & F_COMP == 0 {
                "loc ".to_string()
            } else {
                format!(
                    "comp({}{})",
                    if f & F_CONSISTENT != 0 { "ok" } else { "dirty" },
                    if f & F_EAGER != 0 { ",eager" } else { "" }
                )
            };
            let name = inner.label_of(n).map_or("-", |s| &**s);
            inner.graph.succs_into(n, &mut succs);
            let _ = write!(
                out,
                "{n} {kind} {name} h={} v={:?} -> [",
                inner.graph.height(n),
                inner.values[i].as_ref().map(|v| format!("{v:?}")),
            );
            for (k, s) in succs.iter().enumerate() {
                if k > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{s}");
            }
            out.push_str("]\n");
        }
        inner.succ_scratch = succs;
        out
    }

    /// Runs quiescence propagation until every inconsistent set is empty —
    /// the paper's evaluation routine, intended to be "called whenever
    /// cycles are available" (Section 4.5). Eager procedures re-execute
    /// here; demand procedures are only marked out-of-date.
    /// If an eager body panics, the rest of its level still runs, then the
    /// wave closes and the first failure's panic resumes, leaving the
    /// remaining dirt queued (see [`Runtime`]'s panic contract).
    pub fn propagate(&self) {
        self.evaluate_bounded(None, u64::MAX);
    }

    /// Runs at most `max_steps` propagation steps, then yields — the
    /// preemptible form of the evaluation routine (Section 4.5: "can be
    /// preempted when necessary"). Returns `true` if the inconsistent sets
    /// are fully drained, `false` if work remains for a later slice.
    ///
    /// # Example
    ///
    /// ```
    /// use alphonse::{Runtime, Strategy};
    /// let rt = Runtime::new();
    /// let v = rt.var(0i64);
    /// let m = rt.memo_with("watch", Strategy::Eager, move |rt, &(): &()| v.get(rt));
    /// m.call(&rt, ());
    /// v.set(&rt, 1);
    /// while !rt.propagate_steps(1) {
    ///     // interleave other work here
    /// }
    /// assert_eq!(rt.dirty_count(), 0);
    /// ```
    pub fn propagate_steps(&self, max_steps: u64) -> bool {
        self.evaluate_bounded(None, max_steps);
        self.dirty_count() == 0
    }

    // Capacity / eviction support (used by bounded memos).

    pub(crate) fn node_has_value(&self, n: NodeId) -> bool {
        self.lock().values[n.index()].is_some()
    }

    pub(crate) fn node_on_stack(&self, n: NodeId) -> bool {
        self.lock().flags[n.index()] & F_ON_STACK != 0
    }

    /// Drops the cached value of a computation node, forcing recomputation
    /// on its next call. The consistency flag and dependency edges are
    /// deliberately untouched: flipping the flag without queueing the
    /// node's successors would violate the marking frontier invariant
    /// ("successors of an inconsistent node are already inconsistent"), and
    /// the edges are what keeps change propagation through the evicted
    /// instance sound. An evicted node is thus "consistent but value-less":
    /// its dependents' cached results are still valid, only *its* result
    /// must be recomputed when next demanded.
    pub(crate) fn evict_value(&self, n: NodeId) {
        let mut inner = self.lock();
        let i = n.index();
        debug_assert!(
            inner.flags[i] & F_COMP != 0 && inner.flags[i] & F_ON_STACK == 0,
            "cannot evict an executing instance"
        );
        inner.values[i] = None;
    }

    fn evaluate(&self, origin: Option<NodeId>) {
        self.evaluate_bounded(origin, u64::MAX);
    }

    /// The evaluation routine (Section 4.5). `origin`: with partitioning,
    /// evaluate only the partition containing this node; `None`: evaluate
    /// everything. `max_steps` bounds the number of dirty nodes processed
    /// (preemption). The wave opens and closes under the drain's first and
    /// last guards.
    fn evaluate_bounded(&self, origin: Option<NodeId>, max_steps: u64) {
        let mut inner = self.lock();
        if inner.evaluating {
            return;
        }
        if !inner.active_stack().is_empty() {
            inner.reconcile_live();
        }
        inner.evaluating = true;
        inner.wave += 1;
        inner.stats.waves += 1;
        let steps_before = inner.stats.propagation_steps;
        let (execs_before, wasted_before) = (inner.stats.executions, inner.stats.wasted_executions);
        emit!(inner, TraceEvent::PropagateBegin { wave: inner.wave });
        // Wave clock: stamped after the nested-wave early return, so only
        // real (outermost) waves are timed and a disabled switch skips the
        // clock read entirely.
        let wave_t0 = crate::metrics::enabled().then(std::time::Instant::now);
        let (mut inner, failure) = self.drain_levels(inner, origin, max_steps);
        inner.evaluating = false;
        emit!(
            inner,
            TraceEvent::PropagateEnd {
                wave: inner.wave,
                steps: inner.stats.propagation_steps - steps_before,
            }
        );
        // Per-wave work deltas come from the counters while the guard is
        // still held; the histogram writes happen after it drops — metric
        // recording itself never holds the runtime lock.
        let executed = inner.stats.executions - execs_before;
        let wasted = inner.stats.wasted_executions - wasted_before;
        drop(inner);
        if let Some(t0) = wave_t0 {
            self.metrics
                .record_wave(t0.elapsed().as_nanos() as u64, executed, wasted);
        }
        if let Some(payload) = failure {
            resume_unwind(payload);
        }
    }

    /// The drain: processes the inconsistent set one *height level* at a
    /// time, for every scheduling, partitioning and parallelism setting.
    /// All dirty nodes at the current minimum height are mutually
    /// independent (an edge between two nodes forces a height difference),
    /// so a level's eager executions may run in any order, or at once.
    ///
    /// Each level is popped (at most the remaining step budget of it, from
    /// `origin`'s partition when partitioned) and its mutation-only nodes —
    /// locations, demand marking, on-stack re-queues — are handled at once;
    /// its eager nodes become the level's executions. Those are booked into
    /// `Inner::level` and handed to [`Runtime::run_level`], which runs them
    /// on the driver, beside pool helpers at `parallelism >= 2`. Their
    /// results then commit in batch order, each changed one dirtying its
    /// successors, under the guard that closes the level and opens the
    /// next.
    ///
    /// A level with a failed execution still runs to completion; the drain
    /// then stops and returns the first failure's payload in batch order.
    /// Takes the guard that opened the wave and returns the one that
    /// closes it.
    fn drain_levels<'a>(
        &'a self,
        mut guard: MutexGuard<'a, Inner>,
        origin: Option<NodeId>,
        max_steps: u64,
    ) -> (MutexGuard<'a, Inner>, Option<Box<dyn std::any::Any + Send>>) {
        let mut steps = 0u64;
        // The open level's nodes in batch order, then its eager executions.
        let mut execs = std::mem::take(&mut guard.level_scratch);
        let mut failure = None;
        loop {
            let inner = &mut *guard;
            execs.clear();
            let budget = usize::try_from(max_steps - steps).unwrap_or(usize::MAX);
            let popped = failure
                .is_none()
                .then(|| inner.pop_level(origin, &mut execs, budget));
            let Some(height) = popped.flatten() else {
                inner.level_scratch = execs;
                return (guard, failure);
            };
            let width = execs.len() as u64;
            steps += width;
            inner.stats.level_width_hwm = inner.stats.level_width_hwm.max(width);
            // Only a runtime that may pool pays the per-level histogram
            // write: the widths are the parallelism its pool had to use.
            if inner.parallelism >= 2 {
                self.metrics.level_width.record(width);
            }
            emit!(
                inner,
                TraceEvent::LevelBegin {
                    wave: inner.wave,
                    height,
                    width,
                }
            );
            // Successors of a location or demand node sit at strictly
            // greater heights, so they join later levels, never this one.
            execs.retain(|&u| inner.step_popped(u));
            if !execs.is_empty() {
                // Book every execution before any claimant starts: the
                // claim locks are the contended ones, so they only swap
                // frames.
                for &u in &execs {
                    let booking = inner.exec_book(u);
                    inner.level.push(LevelSlot::Booked(booking));
                }
                inner.level_base = inner.stacks[0].len();
                guard = self.run_level(guard);
                let inner = &mut *guard;
                let mut level = std::mem::take(&mut inner.level);
                for (&u, slot) in execs.iter().zip(level.drain(..)) {
                    let LevelSlot::Done(my_gen, outcome, changed) = slot else {
                        unreachable!("level finished with an unfinished execution");
                    };
                    match inner.exec_store(u, my_gen, outcome, changed) {
                        Ok((None, true)) => inner.dirty_succs_of(u),
                        Ok(_) => {}
                        Err(payload) => failure = failure.or(Some(payload)),
                    }
                }
                inner.level = level;
            }
            emit!(
                guard,
                TraceEvent::LevelEnd {
                    wave: guard.wave,
                    height,
                    executed: execs.len() as u64,
                }
            );
        }
    }

    /// The claim loop of a level, run by the driver and by each helper
    /// ticket: claim the next index from `next`, push that booked
    /// execution's frame onto this thread's stack (its tracked reads and
    /// nested memo calls record against that frame), run it, and repeat
    /// until the index passes `width`. Each lock acquisition pops the
    /// previous frame, compares its value and leaves its outcome for the
    /// driver's batch-order commit, and pushes the next claim's frame.
    ///
    /// A claimant may enter holding `guard` (the driver does) and leaves
    /// with the guard of its last pop, so `k` executions cost `k`
    /// acquisitions, plus one for a claimant that entered without a guard.
    /// One that finds the index exhausted before it ran anything returns
    /// without locking. Returns the number of executions run and the guard
    /// held, if any.
    pub(crate) fn run_claims<'a>(
        &'a self,
        mut guard: Option<MutexGuard<'a, Inner>>,
        next: &AtomicUsize,
        width: usize,
    ) -> (u64, Option<MutexGuard<'a, Inner>>) {
        let mut ran = 0;
        loop {
            // Relaxed: the index only has to be unique. The slot it names
            // is read and written under the runtime lock, which orders it.
            let idx = next.fetch_add(1, Ordering::Relaxed);
            if idx >= width {
                return (ran, guard);
            }
            let mut claim = guard.take().unwrap_or_else(|| self.lock());
            let inner = &mut *claim;
            let LevelSlot::Booked(Booking {
                executor,
                my_gen,
                frame,
            }) = std::mem::replace(&mut inner.level[idx], LevelSlot::Running)
            else {
                unreachable!("each level index is claimed once");
            };
            let n = frame.node;
            self.push_frame(inner, frame);
            drop(claim);
            let outcome = self.run_body(&executor);
            ran += 1;
            let mut done = self.lock();
            let changed = self.exec_pop(&mut done, n, my_gen, &outcome);
            done.level[idx] = LevelSlot::Done(my_gen, outcome, changed);
            guard = Some(done);
        }
    }
}

/// Drops the repeats of `log` in place, keeping each node's first entry in
/// order, and leaves every kept node marked with [`F_MARK`] (the caller
/// clears the marks before releasing the lock). Returns the number of
/// entries dropped.
fn dedup_marked(log: &mut Vec<NodeId>, flags: &mut [u8]) -> u64 {
    let before = log.len();
    log.retain(|&u| {
        let f = &mut flags[u.index()];
        let first = *f & F_MARK == 0;
        *f |= F_MARK;
        first
    });
    (before - log.len()) as u64
}

impl Inner {
    /// The bookkeeping half of [`Runtime::exec_begin`]: everything but
    /// pushing the frame. A level books all its executions under the
    /// driver's guard before any claimant starts.
    ///
    /// Booking keeps the node's predecessor edges: they stand for the
    /// previous execution until this one's frame pops and reconciles them
    /// with its dependence log.
    fn exec_book(&mut self, n: NodeId) -> Booking {
        self.stats.executions += 1;
        self.exec_gen += 1;
        let my_gen = self.exec_gen;
        let i = n.index();
        debug_assert!(self.flags[i] & F_COMP != 0, "execute on a location");
        // If an older execution of `n` is still running it is now
        // superseded: its result will be discarded, so stop it from
        // logging any further dependences.
        let reentrant = self.flags[i] & F_ON_STACK != 0;
        if reentrant {
            self.mark_stale_frames(n);
        }
        self.flags[i] |= F_CONSISTENT | F_ON_STACK;
        self.gens[i] = my_gen;
        let executor = Arc::clone(
            self.executors[i]
                .as_ref()
                .expect("computation node has an executor"),
        );
        Booking {
            executor,
            my_gen,
            frame: Frame {
                node: n,
                log: self.spare_logs.pop().unwrap_or_default(),
                compacted: 0,
                suppress: 0,
                stale: false,
                reentrant,
            },
        }
    }

    /// The commit half of finishing an execution: unless a fresher
    /// execution of `n` superseded this one (the value is then handed back,
    /// the `Some` case), stores `value` in the cache and re-queues a node
    /// the evaluator wanted to re-execute while it ran. `changed` is
    /// [`Runtime::exec_pop`]'s comparison; it is returned for committed
    /// values. A failed execution is rolled back: nothing is stored and,
    /// unless superseded, `n` is left inconsistent with its successors
    /// dirtied, so the marking frontier holds and the next demand
    /// re-executes it. A level commits its results in batch order after
    /// its last execution; a memo call commits right after the pop.
    fn exec_store(
        &mut self,
        n: NodeId,
        my_gen: u64,
        outcome: Outcome,
        changed: bool,
    ) -> std::thread::Result<(Option<Box<dyn Value>>, bool)> {
        let i = n.index();
        if self.gens[i] != my_gen {
            return outcome.map(|value| (Some(value), false));
        }
        let value = match outcome {
            Ok(value) => value,
            Err(payload) => {
                self.flags[i] &= !(F_CONSISTENT | F_REQUEUE);
                self.dirty_succs_of(n);
                return Err(payload);
            }
        };
        self.values[i] = Some(value);
        if self.flags[i] & F_REQUEUE != 0 {
            self.flags[i] &= !F_REQUEUE;
            self.insert_dirty(n, DirtyReason::Requeue, None);
        }
        Ok((None, changed))
    }

    /// One propagation step on a node just popped from an inconsistent set
    /// (Section 4.5). Mutation-only cases are handled here; returns `true`
    /// when `u` is an eager instance the caller must re-execute (and, if
    /// its value changes, dirty its successors). The whole decision reads
    /// one flag byte.
    fn step_popped(&mut self, u: NodeId) -> bool {
        self.stats.propagation_steps += 1;
        let i = u.index();
        let f = self.flags[i];
        if f & F_COMP == 0 {
            // Storage location: forward the change to everything computed
            // from it.
            self.dirty_succs_of(u);
            false
        } else if f & F_EAGER == 0 {
            // Demand: just mark out-of-date and propagate (Section 4.5).
            if f & F_CONSISTENT != 0 {
                self.flags[i] &= !F_CONSISTENT;
                self.dirty_succs_of(u);
            }
            false
        } else if f & F_ON_STACK != 0 {
            // Cannot re-execute a node that is mid-execution; mark it stale
            // and have it re-queued on completion.
            self.flags[i] &= !F_CONSISTENT;
            self.flags[i] |= F_REQUEUE;
            self.dirty_succs_of(u);
            false
        } else {
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_locations_read_back_written_values() {
        let rt = Runtime::new();
        let n = rt.raw_alloc(Box::new(5i64));
        assert_eq!(rt.node_kind(n), NodeKind::Location);
        assert!(rt.with_value(n, |v| v.dyn_eq(&5i64)));
        rt.raw_write(n, Box::new(9i64));
        assert!(rt.with_value(n, |v| v.dyn_eq(&9i64)));
    }

    #[test]
    fn writes_outside_procedures_do_not_create_edges() {
        let rt = Runtime::new();
        let n = rt.raw_alloc(Box::new(1i64));
        rt.raw_write(n, Box::new(2i64));
        rt.with_value(n, |_| ());
        assert_eq!(rt.edge_count(), 0);
        assert_eq!(rt.stats().reads, 1);
        assert_eq!(rt.stats().writes, 1);
    }

    #[test]
    fn unchanged_write_does_not_dirty() {
        let rt = Runtime::new();
        let n = rt.raw_alloc(Box::new(1i64));
        // Give the location a reader so writes are propagation-relevant.
        let probe = rt.memo("probe", move |rt, &(): &()| {
            rt.with_value(n, |v| crate::value::downcast_value::<i64>(v, "probe"))
        });
        probe.call(&rt, ());
        rt.raw_write(n, Box::new(1i64));
        assert_eq!(rt.dirty_count(), 0, "unchanged value: no propagation");
        rt.raw_write(n, Box::new(2i64));
        assert_eq!(rt.dirty_count(), 1);
        assert_eq!(rt.stats().changes, 1);
    }

    #[test]
    fn readerless_writes_never_dirty() {
        // Algorithm 4 guards with `nodeptr(l) # NIL`: a location no
        // incremental instance has read needs no propagation.
        let rt = Runtime::new();
        let n = rt.raw_alloc(Box::new(1i64));
        rt.raw_write(n, Box::new(2i64));
        rt.raw_write(n, Box::new(3i64));
        assert_eq!(rt.dirty_count(), 0);
        assert_eq!(rt.stats().changes, 2);
    }

    #[test]
    fn untracked_outside_procedure_is_noop() {
        let rt = Runtime::new();
        let n = rt.raw_alloc(Box::new(1i64));
        assert!(rt.untracked(|| rt.with_value(n, |v| v.dyn_eq(&1i64))));
        assert!(!rt.in_tracked_context());
    }

    #[test]
    fn runtime_debug_is_nonempty() {
        let rt = Runtime::new();
        assert!(format!("{rt:?}").contains("Runtime"));
    }

    #[test]
    fn builder_configures_partitioning_and_scheduling() {
        let rt = Runtime::builder()
            .partitioning(true)
            .scheduling(Scheduling::Fifo)
            .build();
        assert!(rt.is_partitioned());
        assert_eq!(rt.scheduling(), Scheduling::Fifo);
    }

    #[test]
    fn distinct_runtimes_have_distinct_ids() {
        let a = Runtime::new();
        let b = Runtime::new();
        assert_ne!(a.id, b.id);
        assert_eq!(a.clone().id, a.id);
    }

    #[test]
    fn propagate_on_clean_runtime_is_noop() {
        let rt = Runtime::new();
        rt.propagate();
        assert_eq!(rt.stats().propagation_steps, 0);
    }

    #[test]
    fn memo_instances_take_no_name_entries() {
        let rt = Runtime::new();
        rt.set_sink(None);
        let x = rt.var_named("x", 1i64);
        let m = rt.memo("scaled", move |rt, &k: &u32| x.get(rt) * i64::from(k));
        for k in 0..8 {
            m.call(&rt, k);
        }
        let inner = rt.lock();
        assert_eq!(inner.names.len(), 1, "only the explicit label");
        assert_eq!(inner.label_of(x.node()).map(|s| &**s), Some("x"));
        let n = m.instance_node(&3).unwrap();
        assert_eq!(inner.label_of(n).map(|s| &**s), Some("scaled"));
    }

    #[test]
    fn runtime_and_handles_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Runtime>();
        assert_send::<crate::Var<i64>>();
    }

    /// `Sync` too, so a shared reference may cross threads; the contract
    /// stays one caller thread at a time, enforced by the fail-stop lock.
    #[test]
    fn runtime_and_handles_are_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<Runtime>();
        assert_sync::<crate::Var<i64>>();
        assert_sync::<crate::Memo<u32, i64>>();
    }

    #[test]
    fn runtime_moves_across_threads() {
        let rt = Runtime::new();
        let x = rt.var(1i64);
        let m = rt.memo("double", move |rt, &(): &()| x.get(rt) * 2);
        assert_eq!(m.call(&rt, ()), 2);
        let handle = std::thread::spawn(move || {
            x.set(&rt, 21);
            m.call(&rt, ())
        });
        assert_eq!(handle.join().unwrap(), 42);
    }
}
