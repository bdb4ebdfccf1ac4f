//! The Alphonse runtime: dynamic dependence analysis and incremental
//! evaluation.
//!
//! This module implements the paper's Sections 4 and 5 as a library instead
//! of a source transformation: the three instrumented operations
//! `access` / `modify` / `call` (Algorithms 3, 4 and 5) are
//! `Runtime::with_value` and `Runtime::raw_write` (the untyped layer under
//! [`Var`](crate::Var)) and [`Memo::call`](crate::Memo::call), and the
//! evaluation routine of Section 4.5 is [`Runtime::propagate`] plus the
//! internal evaluation that runs before incremental calls.
//!
//! # Dependence recording
//!
//! The paper's `call` drops a computation's predecessor edges before it
//! re-executes and `access` records each one again. Here an execution
//! leaves the graph alone while it runs: each tracked access appends the
//! node to the execution's frame log, and the lock acquisition that pops
//! the frame reconciles the log with the retained edges
//! (`Core::reconcile`) — unchanged edges stay, stale ones go, new ones
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

use crate::exec_pool::Level;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::stats::Stats;
use crate::trace::{DirtyReason, TraceEvent, TraceSink};
use crate::value::Value;
use alphonse_graph::{DepGraph, HeightQueue, NodeId, UnionFind};
use alphonse_mem as mem;
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockWriteGuard, TryLockError};

static NEXT_RUNTIME_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Id of the runtime whose exclusive access the current thread holds
    /// in a pooled level; 0 for none. A runtime operation entered while
    /// it is held — from a trace sink — fails stop on it instead of
    /// deadlocking.
    static HELD: Cell<u64> = const { Cell::new(0) };
    /// This thread's views of the pooled levels it claims in, at most one
    /// per runtime ([`View`]). Borrowed for the length of one runtime
    /// operation, so an operation entered from a closure that runs under
    /// it (a `Var::with` body, a trace sink) finds it borrowed and fails
    /// stop.
    static VIEWS: RefCell<Vec<View>> = const { RefCell::new(Vec::new()) };
}

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

/// An execution booked by [`Inner::exec_book`]: its node, its generation
/// and whether an older execution of the node was on a stack when it was
/// booked. The executing thread builds the call frame from it with a log
/// of its own slot's spares and fetches the executor itself
/// ([`Runtime::push_frame`]), so a pooled level's driver never touches the
/// instance objects or log buffers its claimants use.
#[derive(Clone, Copy)]
pub(crate) struct Booking {
    node: NodeId,
    my_gen: u64,
    reentrant: bool,
}

/// What running an executor's body produced: its value, or the payload of
/// the panic that unwound out of it.
pub(crate) type Outcome = std::thread::Result<Box<dyn Value>>;

/// A finished execution of a level, left in the slot of the thread that
/// ran it for the driver's batch-order commit: its index in the level,
/// its generation, its outcome and whether its value differs from the
/// cached one.
struct Done {
    idx: usize,
    my_gen: u64,
    outcome: Outcome,
    changed: bool,
}

/// The payload of a panic that unwound out of a body.
pub(crate) type Panic = Box<dyn std::any::Any + Send>;

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

// Packed per-node flag bits, one byte per node in `Core::flags`. The
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
/// Scratch mark of reconciliation: set on the nodes of one dependence log
/// and cleared again within the same exclusive lock hold. Logs are
/// deduplicated without it ([`dedup_private`]), so the claimants of a
/// pooled level, which share the flag bytes, never set it.
const F_MARK: u8 = 1 << 5;
/// The node is queued in an inconsistent set (Section 4.4): the set's
/// membership, kept in the node's own flag byte so a repeated dirtying
/// costs one bit test and the height queue needs no member set.
const F_QUEUED: u8 = 1 << 6;

/// A dependence log is first compacted in place when it reaches this
/// length, then each time it doubles past its last compacted length: short
/// logs cost less to carry than to deduplicate, and a long one stays
/// within twice its distinct entries at amortized O(1) per access.
const LOG_COMPACT_MIN: usize = 32;

/// Logs at most this long are deduplicated and compared by linear scans;
/// longer ones through the slot's hash set ([`dedup_private`]).
const SHORT_LOG: usize = 8;

/// How an operation that may run through a view compacts a dependence
/// log: with the [`F_MARK`] bits of the flag bytes under exclusive access
/// ([`dedup_marked`]), privately through a view ([`dedup_private`]), where
/// the claimants share the flag bytes.
#[derive(Clone, Copy)]
enum Dedup<'a> {
    Marks(&'a [AtomicU8]),
    Private,
}

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
    /// ([`Core::reconcile`]); the buffer then returns to the popping
    /// thread's [`Slot::spare_logs`], so starting a frame allocates
    /// nothing.
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

/// The runtime state behind [`Runtime`]'s lock. Between pooled levels the
/// lock owns it, and exclusive access reaches it with no refcount. For a
/// pooled level the driver moves it into an `Arc` that the claimants'
/// [`View`]s share, and takes it back once the level's barrier has
/// passed ([`Guard::share`], [`Guard::own`]).
pub(crate) struct State {
    /// The state between pooled levels.
    owned: Option<Inner>,
    /// The state during a pooled level.
    pooled: Option<Arc<Inner>>,
}

/// The runtime state: the [`Core`] and one [`Slot`] per thread slot.
/// Exclusive access reaches every slot with `get_mut`, with no extra lock
/// ([`Inner::split`]); a claimant's view takes its own slot out for as
/// long as it lives.
pub(crate) struct Inner {
    core: Core,
    /// The thread slots ([`Core::slot`]): slot 0 for every thread outside
    /// this runtime's executor pool, slot `k + 1` for pool worker `k` —
    /// the numbering of the worker gauges. Worker slots hold no frames
    /// between levels.
    pub(crate) slots: Vec<Mutex<Slot>>,
}

impl Deref for Inner {
    type Target = Core;
    fn deref(&self) -> &Core {
        &self.core
    }
}

impl DerefMut for Inner {
    fn deref_mut(&mut self) -> &mut Core {
        &mut self.core
    }
}

/// What one thread slot owns: its call stack (dependence recording targets
/// the innermost frame of the recording thread's slot, so concurrent
/// claimants never see each other's frames), the emptied logs its pops
/// return, the executions it finished in the open level, the tallies of
/// the operations that may run through a view, and a scratch set for
/// private log deduplication. Aligned to its own cache lines, so two
/// claimants' slots never share one.
#[derive(Default)]
#[repr(align(128))]
pub(crate) struct Slot {
    stack: Vec<Frame>,
    /// Emptied dependence logs of popped frames, handed to the frames this
    /// thread pushes next, so steady-state executions log into warm
    /// buffers and a buffer stays with the thread that allocated it.
    spare_logs: Vec<Vec<NodeId>>,
    /// Executions of the open level this thread finished, awaiting the
    /// driver's batch-order commit ([`Inner::take_done`]).
    done: Vec<Done>,
    stats: Stats,
    seen: FxHashSet<NodeId>,
}

/// The slot behind `m`, reached under exclusive access. A poisoned slot
/// is entered anyway, as the runtime lock is: only a fail-stop panic can
/// unwind while a slot is locked.
fn slot_mut(m: &mut Mutex<Slot>) -> &mut Slot {
    m.get_mut().unwrap_or_else(PoisonError::into_inner)
}

/// The slot behind `m`, locked by a view that takes it out or puts it
/// back; no other thread locks it meanwhile.
fn slot_lock(m: &Mutex<Slot>) -> MutexGuard<'_, Slot> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A claimant's view of a pooled level ([`Runtime::viewed`]): the shared
/// runtime state, taken once after the claimant's first claim, and the
/// thread's own slot, taken out of it for as long as the view lives. Reads,
/// cache hits, frame pushes and pops go through it without touching a
/// lock word. A claimant that must change shared state pauses the level
/// ([`Runtime::pause`]): every view is dropped, which puts its slot back,
/// before exclusive access is granted.
struct View {
    id: u64,
    inner: Arc<Inner>,
    /// Index of `slot` in `inner.slots`.
    k: usize,
    slot: Slot,
}

impl Drop for View {
    fn drop(&mut self) {
        *slot_lock(&self.inner.slots[self.k]) = std::mem::take(&mut self.slot);
    }
}

/// The shared runtime state: the graph, the node columns, the dirty sets
/// and everything else but the thread slots.
pub(crate) struct Core {
    graph: DepGraph,
    // ------------------------------------------------------------------
    // Hot struct-of-arrays node state, all indexed by `NodeId::index()`.
    // These are the only per-node columns propagation touches.
    // ------------------------------------------------------------------
    /// Dense value slab: the cached value of each location / computation.
    values: Vec<Option<Box<dyn Value>>>,
    /// Packed per-node flag bits (`F_*` constants above). Atomic bytes, so
    /// a pooled level's pop clears its node's on-stack bit through a
    /// view; exclusive code reaches them with `get_mut`.
    flags: Vec<AtomicU8>,
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
    /// The `set_parallelism` knob: `0` or `1` = the driver runs each level
    /// alone (default `0`), `n >= 2` = a level of `w` executions runs on
    /// `min(n, w)` threads, the driver plus helpers of an `n − 1`-worker
    /// pool.
    pub(crate) parallelism: usize,
    /// Lazily created persistent worker pool of `parallelism − 1` threads
    /// (first level with helpers). Rebuilt if the knob
    /// changes size.
    pub(crate) exec_pool: Option<crate::exec_pool::ExecPool>,
    /// The executions of the level being drained, in batch order: the one
    /// store of a level's bookings, whether the driver claims alone or
    /// beside pool helpers. Only read while the level runs; empty between
    /// levels, capacity kept.
    pub(crate) level: Vec<Booking>,
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
    /// Tallies of the operations that only run under exclusive access;
    /// the rest go to the thread slots ([`Slot::stats`]).
    pub(crate) stats: Stats,
    /// The memo argument tables (Section 4.2), one per procedure, indexed
    /// by the procedure's table id: each a `Table<A>` of its argument type
    /// ([`crate::memo`]), probed under the access a call already holds.
    tables: Vec<Box<dyn Any + Send + Sync>>,
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
/// let x = rt.var(1i64);
/// let double = rt.memo("double", move |rt, &(): &()| x.get(rt) * 2);
/// assert_eq!(double.call(&rt, ()), 2);
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
            root: Arc::new(Root {
                state: RwLock::new(State {
                    owned: Some(Inner {
                        core: Core {
                            graph: DepGraph::new(),
                            values: Vec::new(),
                            flags: Vec::new(),
                            gens: Vec::new(),
                            executors: Vec::new(),
                            names: FxHashMap::default(),
                            parallelism: 0,
                            exec_pool: None,
                            level: Vec::new(),
                            level_base: 0,
                            dirty,
                            scheduling: self.scheduling,
                            fifo_clock: 0,
                            evaluating: false,
                            exec_gen: 0,
                            succ_scratch: Vec::new(),
                            level_scratch: Vec::new(),
                            batch_pending: Vec::new(),
                            batch_slots: Vec::new(),
                            sink: crate::trace::default_sink(),
                            stats: Stats::default(),
                            tables: Vec::new(),
                        },
                        slots: vec![Mutex::default()],
                    }),
                    pooled: None,
                }),
                exec_depth: AtomicU32::new(0),
                par_active: AtomicU32::new(0),
                paused: AtomicBool::new(false),
                metrics: Arc::new(crate::metrics::RuntimeMetrics::new()),
                id: NEXT_RUNTIME_ID.fetch_add(1, Ordering::Relaxed),
            }),
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
/// executions of one height level run on a worker pool beside the driver.
/// While such a level is active its claimants take no lock at all for
/// reads, cache hits, frame pushes and pops: each goes through a *view*
/// of the runtime state it took once, writing only its own thread slot.
/// What changes shared state pauses the level — every view is dropped,
/// then one claimant takes the internal lock exclusively, which then
/// blocks instead of failing (DESIGN.md, "Parallel waves"). Cross-session
/// parallelism needs no such machinery because independent runtimes share
/// nothing.
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
    pub(crate) root: Arc<Root>,
}

/// What every handle of one runtime shares: the locked state and the
/// words its operations consult before they lock anything.
pub(crate) struct Root {
    state: RwLock<State>,
    /// Incremental call-stack depth outside pooled levels, shadowed
    /// outside the lock so [`Runtime::in_tracked_context`] — the gate
    /// embedded hosts consult on *every* untracked location read (Section
    /// 6.1) — costs one atomic load instead of a lock round-trip. Updated
    /// only under exclusive access (at frame push/pop), and callers use a
    /// runtime from one thread at a time (the fail-stop lock enforces it,
    /// though the type is `Sync`), so a relaxed load observes the calling
    /// thread's latest update. Frames of a pooled level leave it alone:
    /// every thread running there is inside a body.
    exec_depth: AtomicU32,
    /// Nonzero while a level of executors is running on the worker pool
    /// ([`Runtime::pooled`]). Runtime operations then run through the
    /// calling claimant's view where they can, and exclusive access
    /// pauses the level ([`Runtime::pause`]).
    pub(crate) par_active: AtomicU32,
    /// Set while a claimant holds exclusive access in a pooled level: the
    /// other claimants drop their views at their next operation.
    paused: AtomicBool,
    /// Lock-free telemetry registry ([`crate::metrics`]): wave/level
    /// histograms and worker gauges, recorded outside the runtime lock.
    pub(crate) metrics: Arc<crate::metrics::RuntimeMetrics>,
    pub(crate) id: u64,
}

impl fmt::Debug for Runtime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.lock();
        f.debug_struct("Runtime")
            .field("id", &self.root.id)
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

/// The fail-stop message of a runtime operation entered while its
/// runtime's lock is held.
const REENTERED: &str = "runtime re-entered while internally locked: closures run by Var::with \
                         and trace sinks must not call back into runtime operations";

/// The fail-stop panic of a re-entered runtime, out of line so the lock
/// paths that check for it stay small.
#[cold]
#[inline(never)]
fn reentered() -> ! {
    panic!("{REENTERED}")
}

/// Marks the current thread as holding one runtime's exclusive access in
/// a pooled level, for as long as it lives; restores the previous mark on
/// drop, so a closure run under runtime A's lock may still use runtime B.
struct Held(u64);

impl Held {
    /// Marks the thread as holding runtime `id`'s lock, failing stop if it
    /// already does: waiting would deadlock on itself.
    fn enter(id: u64) -> Held {
        let prev = HELD.with(|h| h.replace(id));
        if prev == id {
            reentered()
        }
        Held(prev)
    }
}

impl Drop for Held {
    fn drop(&mut self) {
        HELD.with(|h| h.set(self.0));
    }
}

/// Exclusive access to the runtime state ([`Runtime::lock`]).
pub(crate) struct Guard<'a> {
    guard: RwLockWriteGuard<'a, State>,
    /// In a pooled level: this thread's mark as the holder, and the flag
    /// that asked the other claimants to drop their views, cleared when
    /// the pause ends.
    pause: Option<(Held, &'a AtomicBool)>,
}

impl Deref for Guard<'_> {
    type Target = Inner;
    #[inline]
    fn deref(&self) -> &Inner {
        match &self.guard.owned {
            Some(inner) => inner,
            None => paused(&self.guard),
        }
    }
}

impl DerefMut for Guard<'_> {
    #[inline]
    fn deref_mut(&mut self) -> &mut Inner {
        match &mut *self.guard {
            State {
                owned: Some(inner), ..
            } => inner,
            state => paused_mut(state),
        }
    }
}

/// The state of a paused pooled level ([`Runtime::pause`]), out of line:
/// every other guard derefs to the owned state.
#[cold]
#[inline(never)]
fn paused(state: &State) -> &Inner {
    state.pooled.as_deref().expect("owned or pooled")
}

/// [`paused`], for exclusive access: the pause waited until every view
/// was dropped, so the `Arc` is unique.
#[cold]
#[inline(never)]
fn paused_mut(state: &mut State) -> &mut Inner {
    (state.pooled.as_mut().and_then(Arc::get_mut)).expect("a paused level's views are all dropped")
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some((_, paused)) = &self.pause {
            paused.store(false, Ordering::Relaxed);
        }
    }
}

impl Guard<'_> {
    /// Moves the owned state into an `Arc` the claimants of a pooled level
    /// take their views from.
    pub(crate) fn share(&mut self) {
        let inner = self
            .guard
            .owned
            .take()
            .expect("only an owned state is shared");
        self.guard.pooled = Some(mem::with(mem::Tag::ExecPool, || Arc::new(inner)));
    }

    /// Takes the state back from a pooled level whose barrier has passed:
    /// every claimant dropped its view before it counted itself in.
    pub(crate) fn own(&mut self) {
        let inner = self
            .guard
            .pooled
            .take()
            .expect("only a pooled state is taken back");
        let inner = Arc::try_unwrap(inner)
            .unwrap_or_else(|_| unreachable!("a view outlived its pooled level"));
        self.guard.owned = Some(inner);
    }
}

impl Core {
    fn dirty_len(&self) -> usize {
        match &self.dirty {
            DirtyStore::Global(q) => q.len(),
            DirtyStore::Partitioned { sets, .. } => sets.values().map(HeightQueue::len).sum(),
        }
    }

    /// The flag byte of node `i`.
    #[inline]
    fn flag(&self, i: usize) -> u8 {
        self.flags[i].load(Ordering::Relaxed)
    }

    /// The flag byte of node `i`, under exclusive access.
    #[inline]
    fn flag_mut(&mut self, i: usize) -> &mut u8 {
        self.flags[i].get_mut()
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
        let start = out.len();
        let height = match &mut self.dirty {
            DirtyStore::Global(q) => q.pop_level(out, max),
            DirtyStore::Partitioned { uf, sets } => match origin {
                Some(o) => sets.get_mut(&uf.find(o))?.pop_level(out, max),
                None => sets.values_mut().find_map(|q| q.pop_level(out, max)),
            },
        }?;
        for &n in &out[start..] {
            *self.flag_mut(n.index()) &= !F_QUEUED;
        }
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

    /// The thread slot of the current thread: `k + 1` on worker `k` of this
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

    /// Inserts `n` into the inconsistent set of its partition, keyed by its
    /// height or, under Fifo scheduling, by the insertion clock, unless it
    /// is already queued ([`F_QUEUED`]). `cause` is
    /// the predecessor that fanned dirt here ([`DirtyReason::Fanout`]),
    /// `None` when `n` itself originates the dirt.
    fn insert_dirty(&mut self, n: NodeId, reason: DirtyReason, cause: Option<NodeId>) {
        let flags = self.flag_mut(n.index());
        if *flags & F_QUEUED != 0 {
            return;
        }
        *flags |= F_QUEUED;
        let key = match self.scheduling {
            Scheduling::HeightOrder => self.graph.height(n),
            Scheduling::Fifo => {
                self.fifo_clock = self.fifo_clock.wrapping_add(1);
                self.fifo_clock
            }
        };
        match &mut self.dirty {
            DirtyStore::Global(q) => q.insert(n, key),
            DirtyStore::Partitioned { uf, sets } => {
                sets.entry(uf.find(n)).or_default().insert(n, key)
            }
        }
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

    /// The read half of `access` (Algorithm 3), through a view or under
    /// exclusive access: tallies and emits the read of `n` and logs it in the
    /// executing frame of `slot` ([`Slot::record`]). Returns the node of
    /// the frame that recorded it.
    fn access(&self, slot: &mut Slot, n: NodeId, dedup: Dedup<'_>) -> Option<NodeId> {
        slot.stats.reads += 1;
        emit!(self, TraceEvent::Read { node: n });
        slot.record(n, dedup)
    }

    /// Whether logging a read of `n` in `slot`'s executing frame would
    /// merge two partitions (Section 6.3) — a change of shared state that
    /// needs exclusive access. Always `false` without partitioning.
    fn merges(&self, slot: &Slot, n: NodeId) -> bool {
        let DirtyStore::Partitioned { uf, .. } = &self.dirty else {
            return false;
        };
        slot.recorder().is_some_and(|v| !uf.same_set(n, v))
    }

    /// With partitioning, merges the partitions of `n` and `v`, its reader
    /// (Section 6.3), at the read, so a nested call's pending-change check
    /// sees the partition eager recording would have built.
    fn merge_partitions(&mut self, n: NodeId, v: NodeId) {
        if let DirtyStore::Partitioned { uf, sets } = &mut self.dirty {
            uf.ensure(n);
            uf.ensure(v);
            if let Some((win, lose)) = uf.union(n, v) {
                if let Some(mut lost) = sets.remove(&lose) {
                    sets.entry(win).or_default().absorb(&mut lost);
                }
            }
        }
    }

    /// The value of location `n`.
    fn location(&self, n: NodeId) -> &dyn Value {
        let i = n.index();
        debug_assert!(
            self.flag(i) & F_COMP == 0,
            "with_value on a computation node"
        );
        &**self.values[i]
            .as_ref()
            .expect("location always holds a value")
    }

    /// The cache probe of a memo call, through a view or under exclusive
    /// access:
    /// on a hit — `n` consistent and holding a value — tallies and emits
    /// it, logs the caller's dependence on `n` in `slot` and returns `f`'s
    /// result on the cached value in place, with the node of the frame
    /// that recorded it. `Err(f)` back on a miss: inconsistent, or
    /// consistent but evicted.
    fn probe<R, F: FnOnce(&dyn Value) -> R>(
        &self,
        slot: &mut Slot,
        n: NodeId,
        f: F,
        dedup: Dedup<'_>,
    ) -> Result<(R, Option<NodeId>), F> {
        let i = n.index();
        debug_assert!(self.flag(i) & F_COMP != 0, "computation node expected");
        match &self.values[i] {
            Some(v) if self.flag(i) & F_CONSISTENT != 0 => {
                slot.stats.cache_hits += 1;
                emit!(self, TraceEvent::CacheHit { node: n });
                let recorder = slot.record(n, dedup);
                Ok((f(&**v), recorder))
            }
            _ => Err(f),
        }
    }

    /// Reconciles the retained predecessor edges of `v` with `log`, what
    /// its execution accessed: an edge from a logged node stays untouched,
    /// an edge from any other node is removed, and a logged node with no
    /// edge yet gets one. The result is exactly the edge set eager
    /// recording builds (Algorithm 5 drops every predecessor edge, then
    /// Algorithm 3 records each access again), at no graph cost for the
    /// edges an execution reads again. `log` is left deduplicated.
    fn reconcile(&mut self, v: NodeId, log: &mut Vec<NodeId>) {
        self.stats.dedup_hits += dedup_marked(log, &self.flags);
        // Every logged node is marked now; a retained edge from a marked
        // node consumes its mark, so the marks left over are the new edges.
        let flags = &mut self.flags;
        let sink = self.sink.clone();
        self.stats.edges_removed += self.graph.retain_preds(v, |u| {
            let f = flags[u.index()].get_mut();
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
            let f = self.flag_mut(u.index());
            if *f & F_MARK != 0 {
                *f &= !F_MARK;
                self.add_dependence(u, v);
            }
        }
    }

    /// Whether `log`, deduplicated, names exactly the retained predecessors
    /// of `v`, so reconciling it would change no edge. A log longer than
    /// [`SHORT_LOG`] is looked up in `seen`, which [`dedup_private`] left
    /// holding its entries.
    fn log_matches_preds(&self, v: NodeId, log: &[NodeId], seen: &FxHashSet<NodeId>) -> bool {
        let mut preds = 0;
        for u in self.graph.preds(v) {
            let logged = if log.len() <= SHORT_LOG {
                log.contains(&u)
            } else {
                seen.contains(&u)
            };
            if !logged {
                return false;
            }
            preds += 1;
        }
        preds == log.len()
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
        self.flags.push(AtomicU8::new(flags));
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

impl Slot {
    /// The node of the executing frame, if it records accesses: not stale
    /// and not suppressed.
    fn recorder(&self) -> Option<NodeId> {
        match self.stack.last() {
            Some(f) if !f.stale && f.suppress == 0 => Some(f.node),
            _ => None,
        }
    }

    /// Logs the dependence of the executing incremental procedure (the top
    /// frame of this slot's stack) on `n` — paper Algorithm 3's
    /// `CreateEdge` step, deferred: the edge itself is reconciled into the
    /// graph when the frame pops. Returns the frame's node when it records
    /// (the log holds `n`), `None` when no frame is executing, it is stale
    /// or its recording is suppressed. Touches nothing but this slot and,
    /// under exclusive access, the marks `dedup` names, so it runs through
    /// a view too.
    fn record(&mut self, n: NodeId, dedup: Dedup<'_>) -> Option<NodeId> {
        let Slot {
            stack, stats, seen, ..
        } = self;
        let frame = stack.last_mut()?;
        if frame.stale {
            return None;
        }
        if frame.suppress > 0 {
            stats.untracked_reads += 1;
            return None;
        }
        if frame.log.last() == Some(&n) {
            stats.dedup_hits += 1;
            return Some(frame.node);
        }
        if frame.log.len() == frame.log.capacity() {
            let _mem = mem::scope(mem::Tag::GraphCore);
            frame.log.push(n);
        } else {
            frame.log.push(n);
        }
        if frame.log.len() >= LOG_COMPACT_MIN.max(2 * frame.compacted) {
            stats.dedup_hits += match dedup {
                Dedup::Marks(flags) => {
                    let dropped = dedup_marked(&mut frame.log, flags);
                    for &u in &frame.log {
                        let f = &flags[u.index()];
                        f.store(f.load(Ordering::Relaxed) & !F_MARK, Ordering::Relaxed);
                    }
                    dropped
                }
                Dedup::Private => dedup_private(&mut frame.log, seen),
            };
            frame.compacted = frame.log.len();
        }
        Some(frame.node)
    }
}

impl Inner {
    /// The shared core and the current thread's slot, under exclusive
    /// access.
    #[inline]
    fn split(&mut self) -> (&mut Core, &mut Slot) {
        let k = self.core.slot();
        (&mut self.core, slot_mut(&mut self.slots[k]))
    }

    /// The current thread's slot, under exclusive access.
    fn own_slot(&mut self) -> &mut Slot {
        self.split().1
    }

    /// The executions the open level finished, in batch order: slot 0's
    /// list, with every helper's appended and sorted in when a pool ran
    /// the level. Hand the emptied list back to slot 0 with
    /// [`Inner::return_done`] so its capacity is reused.
    fn take_done(&mut self) -> Vec<Done> {
        let (first, rest) = self.slots.split_at_mut(1);
        let mut done = std::mem::take(&mut slot_mut(&mut first[0]).done);
        let driver_alone = done.len();
        for slot in rest {
            done.append(&mut slot_mut(slot).done);
        }
        if done.len() > driver_alone {
            done.sort_unstable_by_key(|d| d.idx);
        }
        done
    }

    /// Hands the level's emptied [`Inner::take_done`] list back to slot 0.
    fn return_done(&mut self, done: Vec<Done>) {
        debug_assert!(done.is_empty());
        slot_mut(&mut self.slots[0]).done = done;
    }

    /// [`Stats::wasted_executions`] so far: the pops tally it in their
    /// slots.
    fn wasted_executions(&mut self) -> u64 {
        (self.slots.iter_mut())
            .map(|slot| slot_mut(slot).stats.wasted_executions)
            .sum()
    }

    /// Every counter: the core's tally plus every slot's.
    fn tally(&mut self) -> Stats {
        let mut stats = self.core.stats;
        for slot in &mut self.slots {
            stats.merge(&slot_mut(slot).stats);
        }
        stats
    }

    /// Whether an execution of `n` runs on another thread of a pooled
    /// level: a frame of it sits on a stack other than the current
    /// thread's, above the level's suspended callers on slot 0. A booked
    /// but unclaimed level member has no frame yet, and frames on the
    /// caller's own stack are Section 7.3 re-entrancy; neither counts.
    fn executing_elsewhere(&mut self, n: NodeId) -> bool {
        if self.flag(n.index()) & F_ON_STACK == 0 {
            return false;
        }
        let own = self.slot();
        let base0 = self.level_base;
        (self.slots.iter_mut().enumerate()).any(|(k, slot)| {
            let base = if k == 0 { base0 } else { 0 };
            k != own && slot_mut(slot).stack[base..].iter().any(|f| f.node == n)
        })
    }

    /// Marks every live frame of node `n` stale, on every stack. A stale
    /// execution's result will be discarded (generation supersession), so
    /// it must stop logging dependences.
    fn mark_stale_frames(&mut self, n: NodeId) {
        for slot in &mut self.slots {
            for frame in &mut slot_mut(slot).stack {
                if frame.node == n {
                    frame.stale = true;
                }
            }
        }
    }

    /// Logs the current thread's executing frame's dependence on `n`
    /// ([`Slot::record`]) and, with partitioning, merges their partitions
    /// ([`Core::merge_partitions`]). Returns `true` when the frame records.
    fn record_dependence(&mut self, n: NodeId) -> bool {
        let (core, slot) = self.split();
        let Some(v) = slot.record(n, Dedup::Marks(&core.flags)) else {
            return false;
        };
        core.merge_partitions(n, v);
        true
    }

    /// Reconciles every live frame on this thread's stack with its log so
    /// far. Run before an evaluation starts under executing procedures (a
    /// memo call that finds pending changes, `propagate` from a body), so
    /// the nested propagation sees the graph eager recording would have
    /// built — including the removal of last run's edges this run has not
    /// read yet.
    fn reconcile_live(&mut self) {
        let (core, slot) = self.split();
        for frame in slot.stack.iter_mut().filter(|f| !f.stale) {
            core.reconcile(frame.node, &mut frame.log);
            frame.compacted = frame.log.len();
        }
    }

    /// Whether a changed write to location `x` must queue it: some
    /// computation depends on `x` in the graph eager recording would have
    /// built. While executions are live, their nodes' retained edges
    /// stand for their previous runs, so for those nodes the live frame's
    /// log decides instead; a level member booked but not started yet has
    /// read nothing, and its coming run reads the new value. Either way
    /// the node is flagged on-stack.
    fn has_readers(&mut self, x: NodeId) -> bool {
        let Inner { core, slots } = self;
        if core.level.is_empty() && slot_mut(&mut slots[0]).stack.is_empty() {
            return core.graph.has_succs(x);
        }
        let logged = (slots.iter_mut())
            .flat_map(|s| slot_mut(s).stack.iter())
            .any(|f| !f.stale && f.log.contains(&x));
        logged
            || core
                .graph
                .succs(x)
                .any(|y| core.flag(y.index()) & F_ON_STACK == 0)
    }

    /// Stores `value` into location `n` — the shared tail of `modify`
    /// (Algorithm 4) used by both `raw_write` and batch commit: record the
    /// writer's dependence, compare against the stored value (the cutoff
    /// comparison is only charged when a prior value exists), and dirty the
    /// location's readers when the value actually changed.
    fn write_location(&mut self, n: NodeId, value: Box<dyn Value>) {
        let recorded = self.record_dependence(n);
        let i = n.index();
        debug_assert!(self.flag(i) & F_COMP == 0, "write on a computation node");
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
}

impl Runtime {
    /// Acquires exclusive access to the internal state. Outside pooled
    /// levels a session is used from one thread, so contention means a
    /// runtime operation was re-entered — by a closure that runs under the
    /// lock (a `Var::with` body, a trace sink) or by a second thread
    /// misusing one session concurrently — and the call panics (fail-stop)
    /// instead of deadlocking. In a pooled level ([`Runtime::pooled`]) it
    /// pauses the level instead ([`Runtime::pause`]). A poisoned lock is
    /// entered anyway: a panic raised while it was held came either from a
    /// closure run under it (a `Var::with` body, rolled back with its
    /// execution like any body panic) or from a fail-stop check.
    ///
    /// Every acquisition is tallied in [`Stats::lock_acquisitions`].
    #[inline]
    pub(crate) fn lock(&self) -> Guard<'_> {
        if self.pooled() {
            return self.pause();
        }
        let state = match self.root.state.try_write() {
            Ok(state) => state,
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
            Err(TryLockError::WouldBlock) => reentered(),
        };
        let mut guard = Guard {
            guard: state,
            pause: None,
        };
        guard.core.stats.lock_acquisitions += 1;
        guard
    }

    /// Exclusive access in a pooled level, for what changes shared state:
    /// the caller drops its own view, takes the lock and raises the pause
    /// flag, then waits until every other claimant has dropped its view at
    /// its next runtime operation or claim. The guard lowers the flag when
    /// it drops, and each claimant takes a fresh view at its next
    /// operation. A thread that holds the pause already, or calls from a
    /// closure run under its own view, fails stop.
    #[cold]
    #[inline(never)]
    fn pause(&self) -> Guard<'_> {
        self.drop_view();
        let held = Held::enter(self.root.id);
        let state = self
            .root
            .state
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        self.root.paused.store(true, Ordering::Relaxed);
        let mut guard = Guard {
            guard: state,
            pause: Some((held, &self.root.paused)),
        };
        if let Some(inner) = &guard.guard.pooled {
            while Arc::strong_count(inner) > 1 {
                std::thread::yield_now();
            }
        }
        guard.core.stats.lock_acquisitions += 1;
        guard
    }

    /// Runs `op` on the core and the current thread's slot through the
    /// thread's view of this runtime's pooled level ([`View`]), touching no
    /// lock word. The view is taken first if the thread holds none, and
    /// taken afresh if a pause asked for the one it holds. An operation
    /// entered from a closure that `op` runs (a `Var::with` body, a trace
    /// sink) finds the views borrowed and fails stop.
    /// Out of line, so the exclusive paths that branch here keep the code
    /// size they have without it.
    #[inline(never)]
    fn viewed<R>(&self, op: impl FnOnce(&Core, &mut Slot) -> R) -> R {
        VIEWS.with(|views| {
            let mut views = views.try_borrow_mut().unwrap_or_else(|_| reentered());
            let view = self.view(&mut views);
            op(&view.inner.core, &mut view.slot)
        })
    }

    /// This runtime's view among `views`, fresh if a pause is asking for
    /// the held one.
    #[inline]
    fn view<'v>(&self, views: &'v mut Vec<View>) -> &'v mut View {
        let id = self.root.id;
        match views.iter().rposition(|v| v.id == id) {
            Some(i) if !self.root.paused.load(Ordering::Relaxed) => &mut views[i],
            held => self.take_view(views, held),
        }
    }

    /// Drops the view at `held`, if any, and takes a fresh one: waits out a
    /// pause on the lock, clones the shared state and takes the thread's
    /// slot out of it. The one place a claimant's view is counted, in
    /// [`Stats::shared_acquisitions`].
    #[cold]
    #[inline(never)]
    fn take_view<'v>(&self, views: &'v mut Vec<View>, held: Option<usize>) -> &'v mut View {
        if let Some(i) = held {
            views.remove(i);
        }
        self.assert_unlocked();
        let state = self
            .root
            .state
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        // Only a pooled level's claimants take views: any other thread
        // calling in now misuses the session.
        let Some(inner) = &state.pooled else {
            reentered()
        };
        let inner = Arc::clone(inner);
        drop(state);
        let k = inner.slot();
        let mut slot = std::mem::take(&mut *slot_lock(&inner.slots[k]));
        slot.stats.shared_acquisitions += 1;
        views.push(View {
            id: self.root.id,
            inner,
            k,
            slot,
        });
        views.last_mut().expect("pushed above")
    }

    /// Drops the current thread's view of this runtime, if it holds one,
    /// failing stop when called back from under it.
    fn drop_view(&self) {
        self.try_drop_view().unwrap_or_else(|_| reentered());
    }

    /// [`Runtime::drop_view`], or `Err` when the thread's views are
    /// borrowed by an operation it is called back from.
    fn try_drop_view(&self) -> Result<(), std::cell::BorrowMutError> {
        VIEWS.with(|views| {
            let mut views = views.try_borrow_mut()?;
            if let Some(i) = views.iter().rposition(|v| v.id == self.root.id) {
                views.remove(i);
            }
            Ok(())
        })
    }

    /// Fails stop, as [`Runtime::lock`] would, if the current thread holds
    /// this runtime's exclusive access in a pooled level: for calls that
    /// would wait for it.
    pub(crate) fn assert_unlocked(&self) {
        if HELD.with(Cell::get) == self.root.id {
            reentered()
        }
    }

    /// Whether a level of executors is running on the worker pool. Every
    /// thread that calls into the runtime then is one of its claimants,
    /// inside a body, and runs what it can through its view.
    #[inline]
    pub(crate) fn pooled(&self) -> bool {
        self.root.par_active.load(Ordering::Acquire) > 0
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
    ///
    /// In a level run by two or more threads, an operation that changes
    /// shared state — a memo miss, a write, a re-execution whose
    /// dependences changed, a `stats()` call — *pauses* the level: it
    /// waits until every other thread of the level has reached its next
    /// runtime operation or finished its body. A body that blocks outside
    /// the runtime (a sleep, I/O) therefore delays every pause of its
    /// level by the rest of its block, and the bodies of one level must
    /// not wait on each other: one that pauses the level while another
    /// waits for it never resumes. (At `0` or `1` they run one after the
    /// other, so such a wait never ends either.)
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
        self.lock().tally()
    }

    /// A complete telemetry snapshot: every [`Stats`] counter plus the
    /// always-on wave/level latency histograms and executor-pool worker
    /// gauges maintained by [`crate::metrics`]. The histograms are
    /// maintained lock-free outside the runtime lock; like the counters
    /// they cover the runtime's whole life, so isolate a phase with
    /// [`MetricsSnapshot::delta_since`](crate::metrics::MetricsSnapshot::delta_since).
    ///
    /// While recording is switched off ([`crate::metrics::set_enabled`]) the
    /// counters still advance but the histograms and gauges do not.
    pub fn metrics_snapshot(&self) -> crate::metrics::MetricsSnapshot {
        let m = &*self.root.metrics;
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

    /// Returns `true` if a trace sink is currently installed. Substrates
    /// consult this before allocating diagnostic labels on hot construction
    /// paths, keeping the no-observer configuration allocation-free.
    pub fn tracing(&self) -> bool {
        self.lock().sink.is_some()
    }

    /// Assigns a diagnostic label to node `n`, visible in
    /// [`Runtime::node_label`], error messages and the trace stream
    /// ([`crate::trace::TraceEvent::Labeled`]), from which
    /// `alphonse-trace why|dot` name the node.
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
    /// * as many nodes are flagged queued as the inconsistent sets hold, so
    ///   no node is queued twice;
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
            let Inner { core: inner, slots } = &mut *guard;
            for (slot, stack) in slots.iter_mut().map(|s| &slot_mut(s).stack).enumerate() {
                assert!(
                    stack.is_empty(),
                    "check_invariants: {} execution frame(s) still active on stack slot \
                     {slot}; only call between top-level operations",
                    stack.len()
                );
            }
            let n_nodes = inner.values.len();
            for (i, f) in inner.flags.iter_mut().map(|f| *f.get_mut()).enumerate() {
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
            let flagged = (0..n_nodes)
                .filter(|&i| inner.flag(i) & F_QUEUED != 0)
                .count();
            assert_eq!(
                flagged, dirty_total,
                "check_invariants: {flagged} node(s) flagged queued, {dirty_total} queued"
            );
            // Marking frontier (Section 4.5): once all dirt has drained,
            // nothing consistent may sit downstream of anything inconsistent.
            if dirty_total == 0 {
                for i in 0..n_nodes {
                    let u = NodeId::from_index(i);
                    let f = inner.flag(i);
                    let stale = f & F_COMP != 0 && f & F_CONSISTENT == 0;
                    if !stale {
                        continue;
                    }
                    for v in inner.graph.succs(u) {
                        let g = inner.flag(v.index());
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
        self.root.exec_depth.load(Ordering::Relaxed) > 0 || self.pooled()
    }

    /// Returns `true` if a read performed right now would actually record a
    /// dependence edge: an incremental procedure is executing, its frame is
    /// not stale, and no `(*UNCHECKED*)` suppression is active. Useful for
    /// asserting that statically pruned accesses really are irrelevant.
    pub fn recording_context(&self) -> bool {
        self.on_slot(|_, slot| slot.recorder().is_some())
    }

    /// Runs `f` on the core and the current thread's slot: through the
    /// thread's view in a pooled level, else under exclusive access.
    fn on_slot<R>(&self, f: impl FnOnce(&Core, &mut Slot) -> R) -> R {
        if self.pooled() {
            return self.viewed(f);
        }
        let mut guard = self.lock();
        let (core, slot) = guard.split();
        f(core, slot)
    }

    /// Runs `f` on the core, through the thread's view in a pooled level,
    /// else under exclusive access: for the memo read-back that takes no
    /// runtime argument ([`crate::Memo::instance_node`]).
    pub(crate) fn read_core<R>(&self, f: impl FnOnce(&Core) -> R) -> R {
        self.on_slot(|core, _| f(core))
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
                self.rt.on_slot(|_, slot| {
                    if slot.stack.len() == self.depth {
                        if let Some(frame) = slot.stack.last_mut() {
                            frame.suppress -= 1;
                        }
                    }
                });
            }
        }
        let depth = self.on_slot(|_, slot| {
            if let Some(frame) = slot.stack.last_mut() {
                frame.suppress += 1;
            }
            slot.stack.len()
        });
        let _guard = Guard { rt: self, depth };
        f()
    }

    // ------------------------------------------------------------------
    // Low-level location API (the paper's `access`/`modify` operations).
    // ------------------------------------------------------------------

    /// Allocates a tracked storage location holding `initial`: the untyped
    /// layer under [`Runtime::var`](crate::Runtime::var).
    pub(crate) fn raw_alloc(&self, initial: Box<dyn Value>) -> NodeId {
        self.lock().alloc_node(Some(initial), None)
    }

    /// Allocates a location holding `initial` *and* records the executing
    /// incremental procedure's dependence on it, under one guard — the
    /// lazy-promotion `access` of Algorithm 3, where a location read for
    /// the first time inside a tracked context gets its graph node and its
    /// first dependence edge together. Equivalent to `raw_alloc`
    /// followed by a read, minus the second lock round-trip.
    pub(crate) fn alloc_accessed(&self, initial: Box<dyn Value>) -> NodeId {
        let mut guard = self.lock();
        let (core, slot) = guard.split();
        let node = core.alloc_node(Some(initial), None);
        if let Some(v) = core.access(slot, node, Dedup::Marks(&core.flags)) {
            core.merge_partitions(node, v);
        }
        node
    }

    /// Reads a location in place — the paper's `access` (Algorithm 3):
    /// records the dependence of the currently executing incremental
    /// procedure (if any) on it, then hands the cached value to `f` by
    /// reference, without boxing or cloning it. [`Var::get`](crate::Var::get)
    /// and [`Var::with`](crate::Var::with) are built on it; `f` clones the
    /// value when it must outlive the read.
    ///
    /// The runtime is held for the duration of `f` — through the thread's
    /// view in a pooled level, locked exclusively otherwise: the closure
    /// must not re-enter runtime operations (writes, memo calls,
    /// propagation, even reads) or the fail-stop re-entrancy check panics.
    /// Both paths run the same [`Core::access`]; only a read that merges
    /// partitions leaves the view.
    pub(crate) fn with_value<R>(&self, n: NodeId, f: impl FnOnce(&dyn Value) -> R) -> R {
        let f = if self.pooled() {
            match self.viewed(|core, slot| {
                if core.merges(slot, n) {
                    return Err(f);
                }
                core.access(slot, n, Dedup::Private);
                Ok(f(core.location(n)))
            }) {
                Ok(out) => return out,
                Err(f) => f,
            }
        } else {
            f
        };
        let mut guard = self.lock();
        let (core, slot) = guard.split();
        if let Some(v) = core.access(slot, n, Dedup::Marks(&core.flags)) {
            core.merge_partitions(n, v);
        }
        f(core.location(n))
    }

    /// Writes a location — the paper's `modify` (Algorithm 4): the write
    /// first records a dependence (a procedure depends on storage it writes,
    /// Section 4.3), then stores the value, and dirties the node if the
    /// value actually changed. [`Var::set`](crate::Var::set) is built on it.
    pub(crate) fn raw_write(&self, n: NodeId, value: Box<dyn Value>) {
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
    /// semantics as `raw_write`. `pending` holds one entry per
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
                    inner.stats.waves
                } else {
                    inner.stats.waves + 1
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
    /// first execution, under the guard its argument-table miss was found
    /// under: the call and probe counters, node allocation and
    /// [`Runtime::exec_begin`] share the instance-creation path's single
    /// runtime lock. A fresh instance is about to execute unconditionally
    /// (it cannot be a cache hit and has no pending changes to settle
    /// first). The caller enters the instance in its table, runs the
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
        inner: &mut Inner,
        strategy: Strategy,
        executor: Executor,
        height_hint: u32,
    ) -> (NodeId, Executor, u64) {
        inner.stats.calls += 1;
        inner.stats.memo_probes += 1;
        let n = inner.alloc_node(None, Some((strategy, executor)));
        if height_hint > 0 && inner.graph.set_min_height(n, height_hint) {
            inner.stats.height_seeded += 1;
        }
        let (executor, my_gen) = self.exec_begin(inner, n);
        (n, executor, my_gen)
    }

    /// A memo call through the caller's view in a pooled level: `lookup`
    /// finds the instance in its argument table and, on a cache hit, the
    /// call is tallied, the caller's dependence on the instance logged and
    /// `f` run on the cached value in place. `Err(f)` back, with nothing
    /// tallied, when the call needs exclusive access: no instance yet, no
    /// hit (inconsistent or evicted), an execution of it booked or on a
    /// stack (it may run on another claimant, or be this thread's own
    /// first execution), or a hit that would merge partitions.
    pub(crate) fn hit_viewed<R, F: FnOnce(&dyn Value) -> R>(
        &self,
        lookup: impl FnOnce(&Core) -> Option<NodeId>,
        f: F,
    ) -> Result<R, F> {
        self.viewed(|core, slot| {
            debug_assert!(core.evaluating, "pooled levels run inside a wave");
            let Some(n) = lookup(core) else {
                return Err(f);
            };
            if core.flag(n.index()) & F_ON_STACK != 0 || core.merges(slot, n) {
                return Err(f);
            }
            let (out, _) = core.probe(slot, n, f, Dedup::Private)?;
            slot.stats.calls += 1;
            slot.stats.memo_probes += 1;
            Ok(out)
        })
    }

    /// Pre-call settling plus cache consultation for instance `n`, under
    /// the guard its argument-table lookup was made under: tallies the
    /// call/probe counters, checks for pending changes that could affect
    /// `n` (the `Evaluate(Inconsistent)` step of Algorithm 5 — with
    /// partitioning, only `n`'s component), runs the evaluation routine if
    /// so, then probes the cache. On a hit the caller's dependence on `n`
    /// is recorded under the same guard and `f` runs on the cached value
    /// in place. `Err` hands the guard and `f` back on a miss: the caller
    /// books the execution under that guard.
    ///
    /// Only the rare pending case pays more than one lock: the evaluation
    /// routine must run unlocked (it re-enters the runtime), so that path
    /// re-locks for the probe afterwards. So does a call to a node another
    /// pool claimant is executing, which yields until that execution's
    /// frame pops.
    pub(crate) fn precall<'a, R, F: FnOnce(&dyn Value) -> R>(
        &'a self,
        mut guard: Guard<'a>,
        n: NodeId,
        f: F,
    ) -> Result<R, (Guard<'a>, F)> {
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
        let (core, slot) = guard.split();
        match core.probe(slot, n, f, Dedup::Marks(&core.flags)) {
            Ok((out, recorder)) => {
                if let Some(v) = recorder {
                    core.merge_partitions(n, v);
                }
                Ok(out)
            }
            // Consistent but value-less: either a self-recursive first
            // execution (DET violation — diagnose) or an evicted value
            // (recompute by reporting a miss).
            Err(_)
                if core.flag(n.index()) & (F_CONSISTENT | F_ON_STACK)
                    == F_CONSISTENT | F_ON_STACK =>
            {
                panic!(
                    "incremental procedure {} recursively depends on its own first execution \
                     (violates paper restriction DET)",
                    core.name_of(n)
                )
            }
            Err(f) => Err((guard, f)),
        }
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
        let booking = inner.exec_book(n);
        let (core, slot) = inner.split();
        (self.push_frame(core, slot, booking), booking.my_gen)
    }

    /// The stack half of [`Runtime::exec_begin`], run by the executing
    /// thread through its view or under exclusive access: pushes the
    /// booked execution's frame onto that thread's stack, logging into one
    /// of its slot's spare buffers, opens the execution's trace span and
    /// returns the executor to run. A level's claimant pushes the frames
    /// of the bookings it claimed.
    fn push_frame(&self, core: &Core, slot: &mut Slot, booking: Booking) -> Executor {
        let n = booking.node;
        slot.stack.push(Frame {
            node: n,
            log: slot.spare_logs.pop().unwrap_or_default(),
            compacted: 0,
            suppress: 0,
            stale: false,
            reentrant: booking.reentrant,
        });
        if !self.pooled() {
            self.root.exec_depth.fetch_add(1, Ordering::Relaxed);
        }
        emit!(core, TraceEvent::ExecuteBegin { node: n });
        Arc::clone(
            core.executors[n.index()]
                .as_ref()
                .expect("computation node has an executor"),
        )
    }

    /// Runs an executor's body unlocked, catching a panic that unwinds out
    /// of it so the caller can roll the execution back before passing the
    /// payload on.
    fn run_body(&self, executor: &Executor) -> Outcome {
        catch_unwind(AssertUnwindSafe(|| executor.run(self)))
    }

    /// The frame half of finishing an execution, run under exclusive
    /// access by the thread that executed `n` as soon as its executor
    /// returns: pops that thread's innermost frame, reconciles its
    /// dependence log with the node's retained edges (a superseded or
    /// failed execution's log is dropped instead) and finishes the pop
    /// ([`Runtime::pop_tail`]). Returns whether the value changed;
    /// [`Core::exec_store`] commits it.
    fn exec_pop(&self, inner: &mut Inner, n: NodeId, my_gen: u64, outcome: &Outcome) -> bool {
        let (core, slot) = inner.split();
        let mut frame = slot.stack.pop().expect("frame pushed above");
        if !frame.stale && outcome.is_ok() {
            core.reconcile(n, &mut frame.log);
        }
        if !frame.reentrant {
            *core.flag_mut(n.index()) &= !F_ON_STACK;
        }
        self.pop_tail(core, slot, frame, n, my_gen, outcome)
    }

    /// [`Runtime::exec_pop`] through a view, for the claimant of a pooled
    /// level: the log is deduplicated privately, and when it names
    /// exactly the node's retained predecessors — a re-execution that read
    /// what its previous run read — no edge changes and the pop finishes
    /// here. `None`, with the frame left on the stack, when the edges must
    /// change: the caller escalates to exclusive access and
    /// [`Runtime::exec_pop`].
    fn exec_pop_viewed(
        &self,
        core: &Core,
        slot: &mut Slot,
        n: NodeId,
        my_gen: u64,
        outcome: &Outcome,
    ) -> Option<bool> {
        let Slot {
            stack, stats, seen, ..
        } = &mut *slot;
        let frame = stack.last_mut().expect("frame pushed above");
        if !frame.stale && outcome.is_ok() {
            stats.dedup_hits += dedup_private(&mut frame.log, seen);
            frame.compacted = frame.log.len();
            if !core.log_matches_preds(n, &frame.log, seen) {
                return None;
            }
        }
        let frame = stack.pop().expect("frame pushed above");
        if !frame.reentrant {
            core.flags[n.index()].fetch_and(!F_ON_STACK, Ordering::Relaxed);
        }
        Some(self.pop_tail(core, slot, frame, n, my_gen, outcome))
    }

    /// What every pop ends with, through a view or under exclusive access, once
    /// the caller has cleared the node's on-stack bit (unless the frame is
    /// re-entrant): returns the frame's log to the slot's spares and
    /// compares the value against the still-cached old one (the cutoff
    /// comparison). Closes the execution's
    /// trace span and returns whether the value changed (`false` when
    /// superseded or failed).
    fn pop_tail(
        &self,
        core: &Core,
        slot: &mut Slot,
        mut frame: Frame,
        n: NodeId,
        my_gen: u64,
        outcome: &Outcome,
    ) -> bool {
        if !self.pooled() {
            self.root.exec_depth.fetch_sub(1, Ordering::Relaxed);
        }
        debug_assert_eq!(frame.node, n, "call stack imbalance");
        debug_assert_eq!(frame.stale, core.gens[n.index()] != my_gen);
        frame.log.clear();
        slot.spare_logs.push(frame.log);
        let i = n.index();
        let (changed, compared) = match (outcome.as_deref().ok(), &core.values[i]) {
            // A failed execution has no value, and a superseded one's is
            // handed back, never compared: the fresher run owns the cache.
            (None, _) => (false, false),
            _ if core.gens[i] != my_gen => (false, false),
            // A first execution has no previous value: it counts as changed
            // without charging a cutoff comparison.
            (Some(_), None) => (true, false),
            (Some(value), Some(old)) => (!old.dyn_eq(value), true),
        };
        if compared {
            slot.stats.comparisons += 1;
            if !changed {
                // The body ran and reproduced the cached value: real work,
                // no downstream effect. Waves report this share through the
                // `wave_wasted` metrics histogram.
                slot.stats.wasted_executions += 1;
            }
        }
        emit!(core, TraceEvent::ExecuteEnd { node: n, changed });
        if compared && !changed {
            emit!(core, TraceEvent::CutoffStop { node: n });
        }
        changed
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
        if !inner.own_slot().stack.is_empty() {
            inner.reconcile_live();
        }
        inner.evaluating = true;
        inner.stats.waves += 1;
        let wave = inner.stats.waves;
        let steps_before = inner.stats.propagation_steps;
        let execs_before = inner.stats.executions;
        let wasted_before = inner.wasted_executions();
        emit!(inner, TraceEvent::PropagateBegin { wave });
        // Wave clock: stamped after the nested-wave early return, so only
        // real (outermost) waves are timed and a disabled switch skips the
        // clock read entirely.
        let wave_t0 = crate::metrics::enabled().then(std::time::Instant::now);
        let (mut inner, failure) = self.drain_levels(inner, origin, max_steps);
        inner.evaluating = false;
        emit!(
            inner,
            TraceEvent::PropagateEnd {
                wave,
                steps: inner.stats.propagation_steps - steps_before,
            }
        );
        // Per-wave work deltas come from the counters while the guard is
        // still held; the histogram writes happen after it drops — metric
        // recording itself never holds the runtime lock.
        let executed = inner.stats.executions - execs_before;
        let wasted = inner.wasted_executions() - wasted_before;
        drop(inner);
        if let Some(t0) = wave_t0 {
            self.root
                .metrics
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
    /// `Core::level` and handed to [`Runtime::run_level`], which runs them
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
        mut guard: Guard<'a>,
        origin: Option<NodeId>,
        max_steps: u64,
    ) -> (Guard<'a>, Option<Panic>) {
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
                self.root.metrics.level_width.record(width);
            }
            emit!(
                inner,
                TraceEvent::LevelBegin {
                    wave: inner.stats.waves,
                    height,
                    width,
                }
            );
            // Successors of a location or demand node sit at strictly
            // greater heights, so they join later levels, never this one.
            execs.retain(|&u| inner.step_popped(u));
            if !execs.is_empty() {
                // Book every execution before any claimant starts: the
                // claimants then only read their bookings and swap frames.
                for &u in &execs {
                    let booking = inner.exec_book(u);
                    inner.level.push(booking);
                }
                inner.level_base = slot_mut(&mut inner.slots[0]).stack.len();
                guard = self.run_level(guard);
                let inner = &mut *guard;
                let mut done = inner.take_done();
                debug_assert_eq!(done.len(), execs.len(), "every booking finished");
                for (&u, d) in execs.iter().zip(done.drain(..)) {
                    debug_assert_eq!(inner.level[d.idx].node, u, "batch order");
                    match inner.exec_store(u, d.my_gen, d.outcome, d.changed) {
                        Ok((None, true)) => inner.dirty_succs_of(u),
                        Ok(_) => {}
                        Err(payload) => failure = failure.or(Some(payload)),
                    }
                }
                inner.return_done(done);
                inner.level.clear();
            }
            emit!(
                guard,
                TraceEvent::LevelEnd {
                    wave: guard.stats.waves,
                    height,
                    executed: execs.len() as u64,
                }
            );
        }
    }

    /// The claim loop of a level the driver runs alone: in batch order,
    /// under exclusive access. It enters holding the guard that booked the
    /// level; each acquisition pops the previous execution's frame,
    /// compares its value and leaves its outcome in the driver's slot for
    /// the batch-order commit, then pushes the next booking's frame, so `k`
    /// executions cost `k` acquisitions. Returns the guard of the last pop.
    /// Kept beside [`Runtime::run_pooled`] because a level without helpers
    /// costs less this way than through a view (DESIGN.md, "Parallel
    /// waves").
    pub(crate) fn run_alone<'a>(&'a self, mut guard: Guard<'a>) -> Guard<'a> {
        for idx in 0..guard.level.len() {
            let booking = guard.level[idx];
            let (core, slot) = guard.split();
            let executor = self.push_frame(core, slot, booking);
            drop(guard);
            let outcome = self.run_body(&executor);
            guard = self.lock();
            self.finish_claim(&mut guard, idx, booking, outcome);
        }
        guard
    }

    /// Pops claimed execution `idx` of the open level under exclusive
    /// access ([`Runtime::exec_pop`]) and leaves its outcome in the current
    /// thread's slot for the batch-order commit.
    fn finish_claim(&self, inner: &mut Inner, idx: usize, booking: Booking, outcome: Outcome) {
        let Booking { node, my_gen, .. } = booking;
        let changed = self.exec_pop(inner, node, my_gen, &outcome);
        inner.own_slot().done.push(Done {
            idx,
            my_gen,
            outcome,
            changed,
        });
    }

    /// The claim loop of a pooled level's claimant, the driver (`front`,
    /// claiming runs from the front of the level) or a helper ticket
    /// (claiming from the back): claim a run of executions, then for each
    /// push its frame onto this thread's stack (its tracked reads and
    /// nested memo calls record against that frame), run it, pop it and
    /// leave its outcome in the thread's slot for the driver's batch-order
    /// commit, and repeat until the level's executions are used up.
    ///
    /// Pushes and pops go through the thread's view, taken after its first
    /// claim; a pop whose edges change pauses the level
    /// ([`Runtime::exec_pop_viewed`]). The view is dropped before the loop
    /// returns, so a claimant that ran nothing never takes one and the
    /// driver can take the state back once the barrier has passed. Returns
    /// the number of executions run.
    pub(crate) fn run_pooled(&self, level: &Level, front: bool) -> u64 {
        /// Drops the thread's view when the loop ends, by return or by a
        /// fail-stop panic.
        struct Release<'a>(&'a Runtime);
        impl Drop for Release<'_> {
            fn drop(&mut self) {
                let _ = self.0.try_drop_view();
            }
        }
        let _release = Release(self);
        let mut ran = 0;
        let mut run = 0..0;
        loop {
            let Some(idx) = run.next().or_else(|| {
                run = level.claim(front)?;
                run.next()
            }) else {
                return ran;
            };
            let (booking, executor) = self.viewed(|core, slot| {
                let booking = core.level[idx];
                (booking, self.push_frame(core, slot, booking))
            });
            let outcome = self.run_body(&executor);
            drop(executor);
            ran += 1;
            let Booking { node, my_gen, .. } = booking;
            let escalated = self.viewed(|core, slot| {
                match self.exec_pop_viewed(core, slot, node, my_gen, &outcome) {
                    Some(changed) => {
                        slot.done.push(Done {
                            idx,
                            my_gen,
                            outcome,
                            changed,
                        });
                        None
                    }
                    None => Some(outcome),
                }
            });
            if let Some(outcome) = escalated {
                self.finish_claim(&mut self.lock(), idx, booking, outcome);
            }
        }
    }
}

/// Drops the repeats of `log` in place, keeping each node's first entry in
/// order, and leaves every kept node marked with [`F_MARK`] (the caller
/// clears the marks before releasing exclusive access). Returns the number
/// of entries dropped. Only under exclusive access: the flag bytes are
/// read and written by plain loads and stores.
fn dedup_marked(log: &mut Vec<NodeId>, flags: &[AtomicU8]) -> u64 {
    let before = log.len();
    log.retain(|&u| {
        let f = &flags[u.index()];
        let bits = f.load(Ordering::Relaxed);
        f.store(bits | F_MARK, Ordering::Relaxed);
        bits & F_MARK == 0
    });
    (before - log.len()) as u64
}

/// Drops the repeats of `log` in place, keeping each node's first entry in
/// order, without touching shared state: a short log ([`SHORT_LOG`]) by
/// linear scans, a longer one through `seen`, which it leaves holding the
/// log's entries. Returns the number of entries dropped.
fn dedup_private(log: &mut Vec<NodeId>, seen: &mut FxHashSet<NodeId>) -> u64 {
    let before = log.len();
    if before <= SHORT_LOG {
        let mut kept = 0;
        for j in 0..before {
            let u = log[j];
            if !log[..kept].contains(&u) {
                log[kept] = u;
                kept += 1;
            }
        }
        log.truncate(kept);
    } else {
        seen.clear();
        log.retain(|&u| seen.insert(u));
    }
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
        debug_assert!(self.flag(i) & F_COMP != 0, "execute on a location");
        // If an older execution of `n` is still running it is now
        // superseded: its result will be discarded, so stop it from
        // logging any further dependences.
        let reentrant = self.flag(i) & F_ON_STACK != 0;
        if reentrant {
            self.mark_stale_frames(n);
        }
        *self.flag_mut(i) |= F_CONSISTENT | F_ON_STACK;
        self.gens[i] = my_gen;
        debug_assert!(
            self.executors[i].is_some(),
            "computation node has an executor"
        );
        Booking {
            node: n,
            my_gen,
            reentrant,
        }
    }
}

impl Core {
    /// Enters a procedure's argument table and returns its id.
    pub(crate) fn add_table(&mut self, table: Box<dyn Any + Send + Sync>) -> usize {
        self.tables.push(table);
        self.tables.len() - 1
    }

    /// The argument table with id `id`, of type `T`.
    pub(crate) fn table<T: Any>(&self, id: usize) -> &T {
        (self.tables[id].downcast_ref()).expect("a memo's table has its argument type")
    }

    /// The argument table with id `id`, of type `T`, under exclusive access.
    pub(crate) fn table_mut<T: Any>(&mut self, id: usize) -> &mut T {
        (self.tables[id].downcast_mut()).expect("a memo's table has its argument type")
    }

    /// Bounded-memo replacement (Section 3.3), under the guard that
    /// created the instance. `entries` are `(last use, instance)` pairs of
    /// one memo's argument table; of those that hold a value and are not
    /// executing, the least recently used lose their cached values until at
    /// most `keep` remain. Returns the number of values dropped.
    ///
    /// The consistency flag and dependency edges are deliberately
    /// untouched: flipping the flag without queueing the node's successors
    /// would violate the marking frontier invariant ("successors of an
    /// inconsistent node are already inconsistent"), and the edges are what
    /// keeps change propagation through the evicted instance sound. An
    /// evicted node is thus "consistent but value-less": its dependents'
    /// cached results are still valid, only *its* result must be recomputed
    /// when next demanded.
    pub(crate) fn evict_lru(&mut self, mut entries: Vec<(u64, NodeId)>, keep: usize) -> usize {
        entries.retain(|&(_, n)| {
            self.values[n.index()].is_some() && self.flag(n.index()) & F_ON_STACK == 0
        });
        let over = entries.len().saturating_sub(keep);
        if over > 0 {
            // The `over` oldest stamps, in no particular order: stamps are
            // unique, so they are the entries a full sort would put first.
            entries.select_nth_unstable(over - 1);
            for &(_, n) in &entries[..over] {
                self.values[n.index()] = None;
            }
        }
        over
    }

    /// The commit half of finishing an execution: unless a fresher
    /// execution of `n` superseded this one (the value is then handed back,
    /// the `Some` case), stores `value` in the cache and re-queues a node
    /// the evaluator wanted to re-execute while it ran. `changed` is
    /// [`Runtime::pop_tail`]'s comparison; it is returned for committed
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
                *self.flag_mut(i) &= !(F_CONSISTENT | F_REQUEUE);
                self.dirty_succs_of(n);
                return Err(payload);
            }
        };
        self.values[i] = Some(value);
        if self.flag(i) & F_REQUEUE != 0 {
            *self.flag_mut(i) &= !F_REQUEUE;
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
        let f = self.flag(i);
        if f & F_COMP == 0 {
            // Storage location: forward the change to everything computed
            // from it.
            self.dirty_succs_of(u);
            false
        } else if f & F_EAGER == 0 {
            // Demand: just mark out-of-date and propagate (Section 4.5).
            if f & F_CONSISTENT != 0 {
                *self.flag_mut(i) &= !F_CONSISTENT;
                self.dirty_succs_of(u);
            }
            false
        } else if f & F_ON_STACK != 0 {
            // Cannot re-execute a node that is mid-execution; mark it stale
            // and have it re-queued on completion.
            *self.flag_mut(i) = (f & !F_CONSISTENT) | F_REQUEUE;
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

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "on a computation node")]
    fn with_value_rejects_computation_nodes() {
        let rt = Runtime::new();
        let m = rt.memo("m", |_rt, &(): &()| 1i64);
        m.call(&rt, ());
        let n = m.instance_node(&()).expect("instance exists");
        rt.with_value(n, |_| ());
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
    fn distinct_runtimes_have_distinct_ids() {
        let a = Runtime::new();
        let b = Runtime::new();
        assert_ne!(a.root.id, b.root.id);
        assert_eq!(a.clone().root.id, a.root.id);
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
        let n = m.instance_node(&3).unwrap();
        let inner = rt.lock();
        assert_eq!(inner.names.len(), 1, "only the explicit label");
        assert_eq!(inner.label_of(x.node()).map(|s| &**s), Some("x"));
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
