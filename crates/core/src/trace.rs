//! Runtime observability: a pluggable trace-event stream and its consumers.
//!
//! The aggregate counters of [`crate::Stats`] answer *how much* work the
//! runtime did; this module answers *which* node did it and *why*. Every
//! instrumented operation of the paper — `access`, `modify`, `call`
//! (Algorithms 3–5) and the Section 4.5 evaluation routine — emits a
//! [`TraceEvent`] to the sink installed with
//! [`Runtime::set_sink`](crate::Runtime::set_sink) (or
//! [`Runtime::with_trace`](crate::Runtime::with_trace)).
//!
//! # Zero-cost when disabled
//!
//! With no sink installed, every emission site costs exactly one untaken,
//! well-predicted branch (`Option::is_some` on the sink slot); no event
//! value is ever constructed. Compiling `alphonse` with
//! `--no-default-features` (dropping the `trace` feature) removes the sites
//! entirely. Experiment E2's instrumentation-overhead ratio is the
//! regression gate for this claim.
//!
//! # Sink contract
//!
//! Events are delivered synchronously, **while the runtime's internal state
//! is borrowed**. A sink must therefore never call back into the runtime
//! that is tracing it (no reads, writes, memo calls, or propagation) — doing
//! so trips the runtime's fail-stop re-entrancy check. Sinks use interior
//! mutability (events arrive through `&self`) and are `Send + Sync`:
//! sessions are movable across threads, so a sink installed on one thread
//! may observe events from wherever the runtime lives now.
//!
//! # Consumers
//!
//! | Consumer | Question it answers |
//! |---|---|
//! | [`Recorder`] | "what exactly happened, in order?" — bounded ring buffer with per-node timelines |
//! | [`ChromeTrace`] | "where does wall-clock time go?" — `chrome://tracing` / [Perfetto](https://ui.perfetto.dev)-loadable spans |
//! | [`GraphSink`] + [`render_dot`] | "what does the dependency graph look like?" — live DOT export |
//! | [`Profiler`] | "which nodes are hot?" — per-node execution counts and self/cumulative time |
//! | [`JsonlSink`] | "keep everything for later" — streams every event as one JSON line (replayed by the `alphonse-trace` CLI) |
//! | [`provenance::Provenance`] | "why did this node recompute?" — live causal `why(node)` chains |
//!
//! # Causality
//!
//! Beyond the flat event stream, three fields make the trace *causal*:
//!
//! * [`TraceEvent::Dirtied`] carries `cause` — the predecessor whose change
//!   fanned dirt to this node (`None` when the node itself is the origin:
//!   a changed write, or a re-queue after supersession);
//! * [`TraceEvent::PropagateBegin`] / [`TraceEvent::PropagateEnd`] carry a
//!   monotone `wave` id — every event delivered between the pair belongs to
//!   that propagation wave;
//! * [`TraceEvent::BatchCommit`] carries the id of the wave that will drain
//!   the dirt it queued (the next wave to begin, or the current one when the
//!   batch commits mid-propagation).
//!
//! Chaining `Write → Dirtied(cause=…) → … → ExecuteEnd` answers the question
//! every incremental-computation user asks first: *why did this node
//! recompute, and was the work wasted?* See [`provenance`] for the live
//! query and the `alphonse-trace` CLI (`crates/trace-tools`) for offline
//! reports.
//!
//! # Example
//!
//! ```
//! use alphonse::trace::{Recorder, TraceEvent};
//! use alphonse::Runtime;
//! use std::sync::Arc;
//!
//! let rt = Runtime::new();
//! let v = rt.var_named("v", 1i64);
//! let double = rt.memo("double", move |rt, &(): &()| v.get(rt) * 2);
//! double.call(&rt, ());
//!
//! let rec = Arc::new(Recorder::new(128));
//! rt.set_sink(Some(rec.clone()));
//! v.set(&rt, 3);
//! rt.set_sink(None);
//!
//! assert!(matches!(
//!     rec.events().first(),
//!     Some(TraceEvent::Write { changed: true, .. })
//! ));
//! ```

use crate::runtime::NodeKind;
use alphonse_graph::{NodeId, UnionFind};
use alphonse_mem as memacct;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::Write as IoWrite;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

pub mod provenance;
pub mod session;

pub use provenance::Provenance;
pub use session::{ActiveTrace, TraceConfig};

/// Locks a sink-internal mutex, ignoring poison: tracing is diagnostic and
/// keeps working even after a panic elsewhere left a guard poisoned.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Event taxonomy
// ---------------------------------------------------------------------------

/// Why a node was inserted into an inconsistent set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirtyReason {
    /// A write changed the stored value of the location (`modify`,
    /// Algorithm 4).
    WriteChanged,
    /// A predecessor's value changed and the marking rule of Section 4.5
    /// fanned the dirt out to this successor.
    Fanout,
    /// An eager node was superseded while executing and re-queued itself on
    /// completion.
    Requeue,
}

/// One observable step of the runtime.
///
/// Node-bearing events carry the dense [`NodeId`]; labels arrive separately
/// through [`TraceEvent::NodeCreated`] / [`TraceEvent::Labeled`], so a sink
/// can maintain its own id→label map and outlive the runtime.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TraceEvent {
    /// A dependency-graph node was allocated.
    NodeCreated {
        /// The new node.
        node: NodeId,
        /// Location or computation.
        kind: NodeKind,
        /// Diagnostic name, when known at allocation (memo name).
        label: Option<Arc<str>>,
    },
    /// A node was given (or re-given) a diagnostic label after allocation.
    Labeled {
        /// The labeled node.
        node: NodeId,
        /// The new label.
        label: Arc<str>,
    },
    /// A tracked read of a location (`access`, Algorithm 3).
    Read {
        /// The location read.
        node: NodeId,
    },
    /// A tracked write to a location (`modify`, Algorithm 4).
    Write {
        /// The location written.
        node: NodeId,
        /// Whether the stored value actually changed.
        changed: bool,
    },
    /// A node entered an inconsistent set.
    Dirtied {
        /// The dirtied node.
        node: NodeId,
        /// Why it was dirtied.
        reason: DirtyReason,
        /// The predecessor whose change fanned dirt to this node
        /// ([`DirtyReason::Fanout`]). `None` when the node itself is the
        /// origin of the dirt: a changed write
        /// ([`DirtyReason::WriteChanged`] — the written location *is* this
        /// node) or a re-queue after supersession.
        cause: Option<NodeId>,
    },
    /// The Section 4.5 evaluation routine started draining dirty nodes.
    PropagateBegin {
        /// Monotone id of this propagation wave (1 for the runtime's first
        /// run). Every event delivered before the matching
        /// [`TraceEvent::PropagateEnd`] belongs to this wave.
        wave: u64,
    },
    /// The evaluation routine finished (drained, or hit its step bound).
    PropagateEnd {
        /// The wave id of the matching [`TraceEvent::PropagateBegin`].
        wave: u64,
        /// Dirty nodes processed during this run.
        steps: u64,
    },
    /// The level-drain scheduler
    /// ([`Runtime::set_parallelism`](crate::Runtime::set_parallelism)) pulled
    /// the full batch of dirty nodes at one height and is about to process
    /// it. Every [`TraceEvent::ExecuteBegin`]/[`TraceEvent::ExecuteEnd`]
    /// pair until the matching [`TraceEvent::LevelEnd`] belongs to this
    /// level; executions within a level may overlap in time.
    LevelBegin {
        /// The propagation wave this level belongs to.
        wave: u64,
        /// Dependency height shared by every node in the batch.
        height: u32,
        /// Number of dirty nodes drained at this height (mutation-only
        /// steps included, not just eager re-executions).
        width: u64,
    },
    /// All results of the level opened by the matching
    /// [`TraceEvent::LevelBegin`] were committed and their dirt fanned out.
    LevelEnd {
        /// The propagation wave this level belongs to.
        wave: u64,
        /// Dependency height of the completed level.
        height: u32,
        /// Eager executors actually run for this level (`<=` the level's
        /// width; the rest were mutation-only or demand-marking steps).
        executed: u64,
    },
    /// An incremental procedure instance began (re-)executing its body.
    ExecuteBegin {
        /// The computation node.
        node: NodeId,
    },
    /// The execution begun by the matching [`TraceEvent::ExecuteBegin`]
    /// finished.
    ExecuteEnd {
        /// The computation node.
        node: NodeId,
        /// Whether the committed value differs from the previous one
        /// (always `false` for superseded re-entrant executions).
        changed: bool,
    },
    /// A call was answered from the cache without running the body.
    CacheHit {
        /// The consistent computation node.
        node: NodeId,
    },
    /// A cutoff comparison found the recomputed (or rewritten) value equal
    /// to the stored one: change propagation stops here.
    CutoffStop {
        /// The node whose value did not change.
        node: NodeId,
    },
    /// A dependence edge was recorded (`CreateEdge`, Algorithm 3).
    EdgeAdded {
        /// The node depended upon (predecessor).
        from: NodeId,
        /// The depending computation (successor, top of the call stack).
        to: NodeId,
    },
    /// `RemovePredEdges` dropped a node's incoming edges before
    /// re-execution (Algorithm 5).
    EdgesRemoved {
        /// The computation whose dependencies were discarded.
        node: NodeId,
        /// Number of edges dropped.
        count: u64,
    },
    /// A write transaction committed ([`Runtime::batch`](crate::Runtime::batch)).
    BatchCommit {
        /// Writes submitted through the transaction (before coalescing).
        writes: u64,
        /// Writes absorbed by last-write-wins coalescing.
        coalesced: u64,
        /// The propagation wave that will drain the dirt this commit
        /// queued: the next wave to begin — or the current wave, when the
        /// batch commits from inside a propagation run.
        wave: u64,
    },
}

impl TraceEvent {
    /// The node this event is about, if any.
    ///
    /// [`TraceEvent::EdgeAdded`] is attributed to the depending successor
    /// `to` — the edge is a fact about the executing computation's
    /// dependency set, not about the storage it read. (The predecessor
    /// endpoint still appears in [`Recorder::timeline`] views of both
    /// nodes.)
    pub fn node(&self) -> Option<NodeId> {
        match self {
            TraceEvent::NodeCreated { node, .. }
            | TraceEvent::Labeled { node, .. }
            | TraceEvent::Read { node }
            | TraceEvent::Write { node, .. }
            | TraceEvent::Dirtied { node, .. }
            | TraceEvent::ExecuteBegin { node }
            | TraceEvent::ExecuteEnd { node, .. }
            | TraceEvent::CacheHit { node }
            | TraceEvent::CutoffStop { node }
            | TraceEvent::EdgesRemoved { node, .. } => Some(*node),
            TraceEvent::EdgeAdded { to, .. } => Some(*to),
            TraceEvent::PropagateBegin { .. }
            | TraceEvent::PropagateEnd { .. }
            | TraceEvent::LevelBegin { .. }
            | TraceEvent::LevelEnd { .. }
            | TraceEvent::BatchCommit { .. } => None,
        }
    }
}

/// Receives the runtime's trace events.
///
/// Implementations must obey the sink contract described in the
/// [module docs](self): events arrive synchronously while the runtime is
/// internally locked, so the sink must never re-enter runtime operations.
/// Sinks are `Send + Sync` so a traced session stays movable across threads.
pub trait TraceSink: Send + Sync {
    /// Called once per observable runtime step, in program order.
    fn event(&self, ev: &TraceEvent);
}

// ---------------------------------------------------------------------------
// Default sink (process-wide hook for harnesses)
// ---------------------------------------------------------------------------

thread_local! {
    static DEFAULT_SINK: RefCell<Option<Arc<dyn TraceSink>>> = const { RefCell::new(None) };
}

/// Installs a sink that every [`Runtime`] *built after this call* (on this
/// thread) starts with, and returns the previous default. Pass `None` to
/// clear.
///
/// This is the hook benchmark harnesses use to trace workloads that
/// construct their runtimes internally; prefer
/// [`Runtime::set_sink`](crate::Runtime::set_sink) when you hold the
/// runtime.
pub fn set_default_sink(sink: Option<Arc<dyn TraceSink>>) -> Option<Arc<dyn TraceSink>> {
    DEFAULT_SINK.with(|s| std::mem::replace(&mut *s.borrow_mut(), sink))
}

#[cfg_attr(not(feature = "trace"), allow(dead_code))]
pub(crate) fn default_sink() -> Option<Arc<dyn TraceSink>> {
    DEFAULT_SINK.with(|s| s.borrow().clone())
}

// ---------------------------------------------------------------------------
// Recorder: bounded in-memory ring buffer
// ---------------------------------------------------------------------------

/// A bounded in-memory event recorder with queryable per-node timelines.
///
/// Keeps the most recent `capacity` events (older ones are dropped and
/// counted in [`Recorder::dropped`]); each record carries a microsecond
/// timestamp relative to the recorder's creation.
pub struct Recorder {
    start: Instant,
    capacity: usize,
    buf: Mutex<VecDeque<(u64, TraceEvent)>>,
    dropped: AtomicU64,
}

impl Recorder {
    /// Creates a recorder keeping at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Recorder {
        assert!(capacity > 0, "recorder capacity must be positive");
        let _mem = memacct::scope(memacct::Tag::Trace);
        Recorder {
            start: Instant::now(),
            capacity,
            buf: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            dropped: AtomicU64::new(0),
        }
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        lock(&self.buf).len()
    }

    /// Returns `true` if no events are held.
    pub fn is_empty(&self) -> bool {
        lock(&self.buf).is_empty()
    }

    /// Events evicted by the ring bound so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Discards all held events (the drop counter is kept).
    pub fn clear(&self) {
        lock(&self.buf).clear();
    }

    /// All held events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        lock(&self.buf).iter().map(|(_, e)| e.clone()).collect()
    }

    /// All held events with their timestamps (µs since recorder creation).
    pub fn records(&self) -> Vec<(u64, TraceEvent)> {
        lock(&self.buf).iter().cloned().collect()
    }

    /// The timeline of one node: every held event about `n`, oldest first,
    /// with timestamps (µs since recorder creation). Edge events appear in
    /// the timeline of **both** endpoints ([`TraceEvent::node`] attributes
    /// them to the successor; the predecessor view is added here).
    pub fn timeline(&self, n: NodeId) -> Vec<(u64, TraceEvent)> {
        lock(&self.buf)
            .iter()
            .filter(|(_, e)| {
                e.node() == Some(n) || matches!(e, TraceEvent::EdgeAdded { from, .. } if *from == n)
            })
            .cloned()
            .collect()
    }

    /// Renders the held events as a human-readable report, one line per
    /// event with its timestamp and resolved labels. When the ring bound
    /// evicted events, the report is prefixed with a
    /// `N events dropped (ring capacity K)` warning so a truncated recording
    /// is never mistaken for a complete one.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        if self.dropped.load(Ordering::Relaxed) > 0 {
            let _ = writeln!(
                out,
                "warning: {} events dropped (ring capacity {}) — the recording is truncated",
                self.dropped.load(Ordering::Relaxed),
                self.capacity
            );
        }
        let labels = Labels::default();
        for (ts, ev) in lock(&self.buf).iter() {
            labels.observe(ev);
            let _ = writeln!(out, "{ts:>10} us  {}", describe_event(ev, &labels));
        }
        out
    }

    /// Exports the held events as a JSONL trace document (the same format
    /// [`JsonlSink`] streams), prefixed with a meta line recording how many
    /// events the ring bound evicted — consumers such as `alphonse-trace`
    /// use it to refuse causal queries over truncated recordings.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            r#"{{"meta":{{"format":"{JSONL_FORMAT}","version":{JSONL_VERSION},"dropped":{},"capacity":{}}}}}"#,
            self.dropped.load(Ordering::Relaxed),
            self.capacity
        );
        let labels = Labels::default();
        let mut wave = None;
        for (ts, ev) in lock(&self.buf).iter() {
            labels.observe(ev);
            out.push_str(&jsonl_line(*ts, &mut wave, ev, &labels));
            out.push('\n');
        }
        out
    }
}

/// One human-readable line for `ev`, with labels resolved through `labels`.
fn describe_event(ev: &TraceEvent, labels: &Labels) -> String {
    match ev {
        TraceEvent::NodeCreated { node, kind, label } => format!(
            "create {kind:?} {}{}",
            node,
            label
                .as_deref()
                .map(|l| format!(" \"{l}\""))
                .unwrap_or_default()
        ),
        TraceEvent::Labeled { node, label } => format!("label {node} \"{label}\""),
        TraceEvent::Read { node } => format!("read {}", labels.of(*node)),
        TraceEvent::Write { node, changed } => {
            format!("write {} changed={changed}", labels.of(*node))
        }
        TraceEvent::Dirtied {
            node,
            reason,
            cause,
        } => match cause {
            Some(c) => format!(
                "dirty {} [{reason:?} <- {}]",
                labels.of(*node),
                labels.of(*c)
            ),
            None => format!("dirty {} [{reason:?}]", labels.of(*node)),
        },
        TraceEvent::PropagateBegin { wave } => format!("propagate begin (wave {wave})"),
        TraceEvent::PropagateEnd { wave, steps } => {
            format!("propagate end (wave {wave}, {steps} steps)")
        }
        TraceEvent::LevelBegin {
            wave,
            height,
            width,
        } => format!("level begin (wave {wave}, height {height}, width {width})"),
        TraceEvent::LevelEnd {
            wave,
            height,
            executed,
        } => format!("level end (wave {wave}, height {height}, {executed} executed)"),
        TraceEvent::ExecuteBegin { node } => format!("exec begin {}", labels.of(*node)),
        TraceEvent::ExecuteEnd { node, changed } => {
            format!("exec end {} changed={changed}", labels.of(*node))
        }
        TraceEvent::CacheHit { node } => format!("cache hit {}", labels.of(*node)),
        TraceEvent::CutoffStop { node } => format!("cutoff {}", labels.of(*node)),
        TraceEvent::EdgeAdded { from, to } => {
            format!("edge {} -> {}", labels.of(*from), labels.of(*to))
        }
        TraceEvent::EdgesRemoved { node, count } => {
            format!("edges removed {} ({count})", labels.of(*node))
        }
        TraceEvent::BatchCommit {
            writes,
            coalesced,
            wave,
        } => format!("batch commit ({writes} writes, {coalesced} coalesced, -> wave {wave})"),
    }
}

impl TraceSink for Recorder {
    fn event(&self, ev: &TraceEvent) {
        let _mem = memacct::scope(memacct::Tag::Trace);
        let ts = self.start.elapsed().as_micros() as u64;
        let mut buf = lock(&self.buf);
        if buf.len() == self.capacity {
            buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        buf.push_back((ts, ev.clone()));
    }
}

// ---------------------------------------------------------------------------
// JSONL trace documents (persistent machine-readable traces)
// ---------------------------------------------------------------------------

/// Format tag written in the meta line of every JSONL trace document.
pub const JSONL_FORMAT: &str = "alphonse-trace";

/// Version of the JSONL line layout.
pub const JSONL_VERSION: u32 = 1;

/// The variant name a JSONL record carries in its `ev` field.
fn variant_name(ev: &TraceEvent) -> &'static str {
    match ev {
        TraceEvent::NodeCreated { .. } => "NodeCreated",
        TraceEvent::Labeled { .. } => "Labeled",
        TraceEvent::Read { .. } => "Read",
        TraceEvent::Write { .. } => "Write",
        TraceEvent::Dirtied { .. } => "Dirtied",
        TraceEvent::PropagateBegin { .. } => "PropagateBegin",
        TraceEvent::PropagateEnd { .. } => "PropagateEnd",
        TraceEvent::LevelBegin { .. } => "LevelBegin",
        TraceEvent::LevelEnd { .. } => "LevelEnd",
        TraceEvent::ExecuteBegin { .. } => "ExecuteBegin",
        TraceEvent::ExecuteEnd { .. } => "ExecuteEnd",
        TraceEvent::CacheHit { .. } => "CacheHit",
        TraceEvent::CutoffStop { .. } => "CutoffStop",
        TraceEvent::EdgeAdded { .. } => "EdgeAdded",
        TraceEvent::EdgesRemoved { .. } => "EdgesRemoved",
        TraceEvent::BatchCommit { .. } => "BatchCommit",
    }
}

/// Encodes one event as a JSONL record (no trailing newline).
///
/// `wave` is the stamping slot tracking the currently open propagation wave:
/// [`TraceEvent::PropagateBegin`] opens it, [`TraceEvent::PropagateEnd`]
/// closes it, and every event in between is stamped `"wave":N`. The
/// propagation brackets and [`TraceEvent::BatchCommit`] carry their own wave
/// fields instead. Node-bearing events carry the node's resolved `"label"`
/// when one is known, so a trace file stays self-contained; node ids
/// serialize as their dense indices.
fn jsonl_line(ts: u64, wave: &mut Option<u64>, ev: &TraceEvent, labels: &Labels) -> String {
    let stamped = match ev {
        TraceEvent::PropagateBegin { wave: w } => {
            *wave = Some(*w);
            Some(*w)
        }
        TraceEvent::PropagateEnd { wave: w, .. } => {
            *wave = None;
            Some(*w)
        }
        TraceEvent::BatchCommit { wave: w, .. } => Some(*w),
        _ => *wave,
    };
    let mut out = String::with_capacity(64);
    let _ = write!(out, r#"{{"ts":{ts}"#);
    if let Some(w) = stamped {
        let _ = write!(out, r#","wave":{w}"#);
    }
    let _ = write!(out, r#","ev":"{}""#, variant_name(ev));
    match ev {
        TraceEvent::NodeCreated { node, kind, .. } => {
            let _ = write!(out, r#","node":{},"kind":"{kind:?}""#, node.index());
        }
        TraceEvent::Labeled { node, .. } => {
            let _ = write!(out, r#","node":{}"#, node.index());
        }
        TraceEvent::Read { node }
        | TraceEvent::ExecuteBegin { node }
        | TraceEvent::CacheHit { node }
        | TraceEvent::CutoffStop { node } => {
            let _ = write!(out, r#","node":{}"#, node.index());
        }
        TraceEvent::Write { node, changed } | TraceEvent::ExecuteEnd { node, changed } => {
            let _ = write!(out, r#","node":{},"changed":{changed}"#, node.index());
        }
        TraceEvent::Dirtied {
            node,
            reason,
            cause,
        } => {
            let _ = write!(out, r#","node":{},"reason":"{reason:?}""#, node.index());
            if let Some(c) = cause {
                let _ = write!(out, r#","cause":{}"#, c.index());
            }
        }
        TraceEvent::PropagateBegin { .. } => {}
        TraceEvent::PropagateEnd { steps, .. } => {
            let _ = write!(out, r#","steps":{steps}"#);
        }
        TraceEvent::LevelBegin { height, width, .. } => {
            let _ = write!(out, r#","height":{height},"width":{width}"#);
        }
        TraceEvent::LevelEnd {
            height, executed, ..
        } => {
            let _ = write!(out, r#","height":{height},"executed":{executed}"#);
        }
        TraceEvent::EdgeAdded { from, to } => {
            let _ = write!(out, r#","from":{},"to":{}"#, from.index(), to.index());
        }
        TraceEvent::EdgesRemoved { node, count } => {
            let _ = write!(out, r#","node":{},"count":{count}"#, node.index());
        }
        TraceEvent::BatchCommit {
            writes, coalesced, ..
        } => {
            let _ = write!(out, r#","writes":{writes},"coalesced":{coalesced}"#);
        }
    }
    if let Some(n) = ev.node() {
        if let Some(l) = labels.raw(n) {
            let _ = write!(out, r#","label":"{}""#, json_escape(&l));
        }
    }
    out.push('}');
    out
}

/// Streams every event as one JSON line to a writer (the machine-readable
/// trace the `alphonse-trace` CLI replays).
///
/// The document begins with a meta line
/// (`{"meta":{"format":…,"version":…,"dropped":0}}`); each subsequent line
/// is one event with a microsecond timestamp, the propagation-wave stamp,
/// and resolved node labels (see [`Recorder::to_jsonl`] for the same format
/// produced from a bounded in-memory recording — there `dropped` can be
/// non-zero). Write errors after construction are ignored: tracing must
/// never take down the traced program.
pub struct JsonlSink {
    start: Instant,
    labels: Labels,
    state: Mutex<JsonlState>,
}

/// Writer state behind one lock, so the wave stamp and the output stream
/// stay consistent with each other under concurrent events.
struct JsonlState {
    wave: Option<u64>,
    out: Box<dyn IoWrite + Send>,
}

impl JsonlSink {
    /// Wraps a writer and emits the meta line.
    pub fn new(out: impl IoWrite + Send + 'static) -> std::io::Result<JsonlSink> {
        let mut out: Box<dyn IoWrite + Send> = Box::new(out);
        writeln!(
            out,
            r#"{{"meta":{{"format":"{JSONL_FORMAT}","version":{JSONL_VERSION},"dropped":0}}}}"#
        )?;
        Ok(JsonlSink {
            start: Instant::now(),
            labels: Labels::default(),
            state: Mutex::new(JsonlState { wave: None, out }),
        })
    }

    /// Creates (truncating) `path` and streams the trace to it, buffered.
    pub fn create(path: impl AsRef<std::path::Path>) -> std::io::Result<JsonlSink> {
        JsonlSink::new(std::io::BufWriter::new(std::fs::File::create(path)?))
    }

    /// Flushes the underlying writer.
    pub fn flush(&self) -> std::io::Result<()> {
        lock(&self.state).out.flush()
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self
            .state
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .out
            .flush();
    }
}

impl TraceSink for JsonlSink {
    fn event(&self, ev: &TraceEvent) {
        let _mem = memacct::scope(memacct::Tag::Trace);
        self.labels.observe(ev);
        let ts = self.start.elapsed().as_micros() as u64;
        let state = &mut *lock(&self.state);
        let line = jsonl_line(ts, &mut state.wave, ev, &self.labels);
        let _ = state.out.write_all(line.as_bytes());
        let _ = state.out.write_all(b"\n");
    }
}

// ---------------------------------------------------------------------------
// Tee: fan one event stream out to several sinks
// ---------------------------------------------------------------------------

/// Delivers every event to each of its sinks, in order.
///
/// [`session::ActiveTrace`] uses it to run the live [`Provenance`] index
/// alongside whichever consumer the user asked for.
pub struct Tee {
    sinks: Vec<Arc<dyn TraceSink>>,
}

impl Tee {
    /// Builds a tee over `sinks` (delivery order = vector order).
    pub fn new(sinks: Vec<Arc<dyn TraceSink>>) -> Tee {
        Tee { sinks }
    }
}

impl TraceSink for Tee {
    fn event(&self, ev: &TraceEvent) {
        for s in &self.sinks {
            s.event(ev);
        }
    }
}

// ---------------------------------------------------------------------------
// Label map shared by the self-contained sinks
// ---------------------------------------------------------------------------

/// Dense id→label map maintained from `NodeCreated` / `Labeled` events.
#[derive(Default)]
struct Labels {
    names: Mutex<Vec<Option<Arc<str>>>>,
}

impl Labels {
    fn observe(&self, ev: &TraceEvent) {
        match ev {
            TraceEvent::NodeCreated { node, label, .. } => {
                let mut names = lock(&self.names);
                let i = node.index();
                if names.len() <= i {
                    names.resize(i + 1, None);
                }
                names[i] = label.clone();
            }
            TraceEvent::Labeled { node, label } => {
                let mut names = lock(&self.names);
                let i = node.index();
                if names.len() <= i {
                    names.resize(i + 1, None);
                }
                names[i] = Some(Arc::clone(label));
            }
            _ => {}
        }
    }

    fn clear(&self) {
        lock(&self.names).clear();
    }

    fn of(&self, n: NodeId) -> String {
        match lock(&self.names).get(n.index()) {
            Some(Some(name)) => format!("{name} ({n})"),
            _ => n.to_string(),
        }
    }

    fn raw(&self, n: NodeId) -> Option<String> {
        lock(&self.names)
            .get(n.index())
            .and_then(|o| o.as_deref().map(str::to_owned))
    }
}

// ---------------------------------------------------------------------------
// Chrome trace-event exporter
// ---------------------------------------------------------------------------

/// Exports the event stream in the Chrome trace-event JSON format, loadable
/// in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).
///
/// Executions and propagation runs become duration (`B`/`E`) spans; writes,
/// dirtyings, cache hits, cutoffs and batch commits become instant (`i`)
/// events. Per-node names come from the label events in the stream, so the
/// exporter stays valid after the traced runtime is dropped.
///
/// Very hot per-read events ([`TraceEvent::Read`], [`TraceEvent::EdgeAdded`],
/// [`TraceEvent::EdgesRemoved`]) are tallied into span arguments instead of
/// emitted individually, keeping traces loadable for large runs.
pub struct ChromeTrace {
    start: Instant,
    labels: Labels,
    records: Mutex<Vec<String>>,
    /// Reads and new edges observed since the current innermost span began
    /// (attached to that span's `args` at its end).
    reads_in_span: AtomicU64,
    edges_in_span: AtomicU64,
}

impl Default for ChromeTrace {
    fn default() -> Self {
        Self::new()
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl ChromeTrace {
    /// Creates an empty exporter; timestamps are relative to this call.
    pub fn new() -> ChromeTrace {
        ChromeTrace {
            start: Instant::now(),
            labels: Labels::default(),
            records: Mutex::new(Vec::new()),
            reads_in_span: AtomicU64::new(0),
            edges_in_span: AtomicU64::new(0),
        }
    }

    fn ts(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1e6
    }

    fn push(&self, record: String) {
        let _mem = memacct::scope(memacct::Tag::Trace);
        lock(&self.records).push(record);
    }

    fn span_begin(&self, name: &str, cat: &str) {
        let rec = format!(
            r#"{{"name":"{}","cat":"{cat}","ph":"B","ts":{:.3},"pid":1,"tid":1}}"#,
            json_escape(name),
            self.ts()
        );
        self.push(rec);
    }

    fn span_end(&self, args: String) {
        let rec = format!(
            r#"{{"ph":"E","ts":{:.3},"pid":1,"tid":1,"args":{{{args}}}}}"#,
            self.ts()
        );
        self.push(rec);
    }

    fn instant(&self, name: &str, cat: &str, args: String) {
        let rec = format!(
            r#"{{"name":"{}","cat":"{cat}","ph":"i","s":"t","ts":{:.3},"pid":1,"tid":1,"args":{{{args}}}}}"#,
            json_escape(name),
            self.ts()
        );
        self.push(rec);
    }

    /// Number of JSON records accumulated so far.
    pub fn len(&self) -> usize {
        lock(&self.records).len()
    }

    /// Returns `true` if no records were accumulated.
    pub fn is_empty(&self) -> bool {
        lock(&self.records).is_empty()
    }

    /// Renders the accumulated records as a complete Chrome trace JSON
    /// document (a JSON array of event objects).
    pub fn to_json(&self) -> String {
        let records = lock(&self.records);
        let mut out = String::with_capacity(records.iter().map(|r| r.len() + 2).sum::<usize>() + 2);
        out.push_str("[\n");
        for (i, r) in records.iter().enumerate() {
            out.push_str(r);
            if i + 1 < records.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push(']');
        out
    }
}

impl TraceSink for ChromeTrace {
    fn event(&self, ev: &TraceEvent) {
        self.labels.observe(ev);
        match ev {
            TraceEvent::NodeCreated { .. } | TraceEvent::Labeled { .. } => {}
            TraceEvent::Read { .. } => {
                self.reads_in_span.fetch_add(1, Ordering::Relaxed);
            }
            TraceEvent::EdgeAdded { .. } => {
                self.edges_in_span.fetch_add(1, Ordering::Relaxed);
            }
            TraceEvent::EdgesRemoved { .. } => {}
            TraceEvent::Write { node, changed } => self.instant(
                &format!("write {}", self.labels.of(*node)),
                "write",
                format!(r#""changed":{changed}"#),
            ),
            TraceEvent::Dirtied {
                node,
                reason,
                cause,
            } => self.instant(
                &format!("dirty {}", self.labels.of(*node)),
                "dirty",
                match cause {
                    Some(c) => format!(r#""reason":"{reason:?}","cause":"{c}""#),
                    None => format!(r#""reason":"{reason:?}""#),
                },
            ),
            TraceEvent::PropagateBegin { .. } => {
                self.span_begin("propagate", "propagate");
            }
            TraceEvent::PropagateEnd { wave, steps } => {
                self.span_end(format!(r#""wave":{wave},"steps":{steps}"#));
            }
            // Level brackets surround executions that may overlap in time,
            // which the single-track B/E span pairing cannot represent;
            // levels export as instants so exec spans keep pairing up.
            TraceEvent::LevelBegin {
                wave,
                height,
                width,
            } => self.instant(
                &format!("level h{height}"),
                "level",
                format!(r#""wave":{wave},"height":{height},"width":{width}"#),
            ),
            TraceEvent::LevelEnd { .. } => {}
            TraceEvent::ExecuteBegin { node } => {
                self.reads_in_span.store(0, Ordering::Relaxed);
                self.edges_in_span.store(0, Ordering::Relaxed);
                self.span_begin(&format!("exec {}", self.labels.of(*node)), "execute");
            }
            TraceEvent::ExecuteEnd { changed, .. } => {
                self.span_end(format!(
                    r#""changed":{changed},"reads":{},"edges":{}"#,
                    self.reads_in_span.load(Ordering::Relaxed),
                    self.edges_in_span.load(Ordering::Relaxed)
                ));
            }
            TraceEvent::CacheHit { node } => self.instant(
                &format!("hit {}", self.labels.of(*node)),
                "cache",
                String::new(),
            ),
            TraceEvent::CutoffStop { node } => self.instant(
                &format!("cutoff {}", self.labels.of(*node)),
                "cutoff",
                String::new(),
            ),
            TraceEvent::BatchCommit {
                writes,
                coalesced,
                wave,
            } => self.instant(
                "batch commit",
                "batch",
                format!(r#""writes":{writes},"coalesced":{coalesced},"wave":{wave}"#),
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// Dependency-graph snapshots and the DOT exporter
// ---------------------------------------------------------------------------

/// One node of a [`GraphSnapshot`].
#[derive(Debug, Clone)]
pub struct SnapshotNode {
    /// The dependency-graph node.
    pub id: NodeId,
    /// Location or computation.
    pub kind: NodeKind,
    /// Diagnostic label, when one was assigned.
    pub label: Option<String>,
    /// For computations: the consistency flag (`true` for locations).
    pub consistent: bool,
    /// Whether the node currently sits in an inconsistent set.
    pub queued: bool,
    /// Canonical partition root (Section 6.3), when partitioning is on.
    pub partition: Option<NodeId>,
    /// Ordinal of the node's most recent execution start (0 = never
    /// executed). The node with the highest ordinal executed last.
    pub last_exec: u64,
    /// Total executions observed (only populated by event-driven mirrors
    /// such as [`GraphSink`]; a live [`Runtime::graph_snapshot`] reports 0).
    pub execs: u64,
}

/// A point-in-time copy of the dependency graph, renderable with
/// [`render_dot`]. Obtained from a live runtime
/// ([`Runtime::graph_snapshot`](crate::Runtime::graph_snapshot)) or from an
/// event-stream mirror ([`GraphSink::snapshot`]).
#[derive(Debug, Clone, Default)]
pub struct GraphSnapshot {
    /// All nodes, in id order.
    pub nodes: Vec<SnapshotNode>,
    /// All dependence edges, `(predecessor, successor)`.
    pub edges: Vec<(NodeId, NodeId)>,
}

/// Renders a [`GraphSnapshot`] as a Graphviz DOT document.
///
/// Visual encoding:
/// * **kind** — locations are grey boxes, computations are ellipses;
/// * **dirty state** — consistent computations are green, stale ones
///   salmon; nodes queued in an inconsistent set get a bold red border;
/// * **last execution** — the most recently executed node is drawn with a
///   double outline, and every executed node shows its execution ordinal
///   (`#k`);
/// * **partitions** — with partitioning on, each component becomes a
///   `subgraph cluster`.
pub fn render_dot(snap: &GraphSnapshot) -> String {
    let mut out = String::new();
    out.push_str("digraph alphonse {\n");
    out.push_str("  rankdir=BT;\n");
    out.push_str("  node [fontname=\"Helvetica\" fontsize=10];\n");
    let latest = snap.nodes.iter().map(|n| n.last_exec).max().unwrap_or(0);

    let node_line = |n: &SnapshotNode| -> String {
        let mut label = match &n.label {
            Some(l) => format!("{}\\n{}", l.replace('"', "'"), n.id),
            None => n.id.to_string(),
        };
        if n.last_exec > 0 {
            let _ = write!(label, " #{}", n.last_exec);
        }
        if n.execs > 0 {
            let _ = write!(label, "\\nexecs={}", n.execs);
        }
        let (shape, fill) = match n.kind {
            NodeKind::Location => ("box", "lightsteelblue"),
            NodeKind::Computation if n.consistent => ("ellipse", "palegreen"),
            NodeKind::Computation => ("ellipse", "salmon"),
        };
        let mut attrs = format!("label=\"{label}\" shape={shape} style=filled fillcolor={fill}");
        if n.queued {
            attrs.push_str(" color=red penwidth=2");
        }
        if n.last_exec > 0 && n.last_exec == latest {
            attrs.push_str(" peripheries=2");
        }
        format!("  {} [{attrs}];\n", n.id)
    };

    // Group by partition when any node carries one.
    if snap.nodes.iter().any(|n| n.partition.is_some()) {
        let mut roots: Vec<NodeId> = snap.nodes.iter().filter_map(|n| n.partition).collect();
        roots.sort();
        roots.dedup();
        for root in roots {
            let _ = writeln!(out, "  subgraph cluster_{} {{", root.index());
            let _ = writeln!(out, "    label=\"partition {root}\";");
            for n in snap.nodes.iter().filter(|n| n.partition == Some(root)) {
                out.push_str("  ");
                out.push_str(&node_line(n));
            }
            out.push_str("  }\n");
        }
        for n in snap.nodes.iter().filter(|n| n.partition.is_none()) {
            out.push_str(&node_line(n));
        }
    } else {
        for n in &snap.nodes {
            out.push_str(&node_line(n));
        }
    }

    let mut edges = snap.edges.clone();
    edges.sort();
    for (u, v) in edges {
        let _ = writeln!(out, "  {u} -> {v};");
    }
    out.push_str("}\n");
    out
}

/// An event-driven mirror of the dependency graph.
///
/// Maintains nodes, labels, edges, dirty flags, execution ordinals and a
/// union-find partition mirror purely from the trace stream, so a DOT
/// rendering stays available after the traced runtime is gone. Node ids are
/// per-runtime: when several runtimes share one sink (e.g. via
/// [`set_default_sink`]), the mirror resets each time a fresh runtime's
/// first node arrives, so it reflects the most recently started runtime.
/// For a live runtime prefer
/// [`Runtime::graph_snapshot`](crate::Runtime::graph_snapshot), which reads
/// the authoritative state.
#[derive(Default)]
pub struct GraphSink {
    labels: Labels,
    kinds: Mutex<Vec<NodeKind>>,
    /// Incoming-edge lists, indexed by successor — mirrors the direction
    /// `RemovePredEdges` clears in bulk.
    preds: Mutex<Vec<Vec<NodeId>>>,
    dirty: Mutex<Vec<bool>>,
    execs: Mutex<Vec<(u64, u64)>>, // (count, last ordinal)
    uf: Mutex<UnionFind>,
    exec_clock: AtomicU64,
}

impl GraphSink {
    /// Creates an empty mirror.
    pub fn new() -> GraphSink {
        GraphSink::default()
    }

    fn ensure(&self, n: NodeId) {
        let i = n.index();
        let mut kinds = lock(&self.kinds);
        if kinds.len() <= i {
            kinds.resize(i + 1, NodeKind::Location);
            lock(&self.preds).resize(i + 1, Vec::new());
            lock(&self.dirty).resize(i + 1, false);
            lock(&self.execs).resize(i + 1, (0, 0));
        }
        lock(&self.uf).ensure(n);
    }

    /// Number of nodes mirrored so far.
    pub fn node_count(&self) -> usize {
        lock(&self.kinds).len()
    }

    /// A renderable snapshot of the mirrored graph.
    pub fn snapshot(&self) -> GraphSnapshot {
        let kinds = lock(&self.kinds);
        let preds = lock(&self.preds);
        let dirty = lock(&self.dirty);
        let execs = lock(&self.execs);
        let mut uf = lock(&self.uf);
        let partitioned = kinds.len() > 1;
        let mut nodes = Vec::with_capacity(kinds.len());
        let mut edges = Vec::new();
        for i in 0..kinds.len() {
            let id = NodeId::from_index(i);
            let (count, last) = execs[i];
            nodes.push(SnapshotNode {
                id,
                kind: kinds[i],
                label: self.labels.raw(id),
                consistent: !dirty[i],
                queued: dirty[i],
                partition: partitioned.then(|| uf.find(id)),
                last_exec: last,
                execs: count,
            });
            for &p in &preds[i] {
                edges.push((p, id));
            }
        }
        GraphSnapshot { nodes, edges }
    }

    /// Convenience: render the current snapshot as DOT.
    pub fn to_dot(&self) -> String {
        render_dot(&self.snapshot())
    }
}

impl TraceSink for GraphSink {
    fn event(&self, ev: &TraceEvent) {
        if let TraceEvent::NodeCreated { node, .. } = ev {
            if node.index() == 0 && self.node_count() > 0 {
                // A fresh runtime started mirroring into this sink; its ids
                // restart from zero, so drop the previous runtime's graph.
                self.labels.clear();
                lock(&self.kinds).clear();
                lock(&self.preds).clear();
                lock(&self.dirty).clear();
                lock(&self.execs).clear();
                *lock(&self.uf) = UnionFind::new();
                self.exec_clock.store(0, Ordering::Relaxed);
            }
        }
        self.labels.observe(ev);
        match ev {
            TraceEvent::NodeCreated { node, kind, .. } => {
                self.ensure(*node);
                lock(&self.kinds)[node.index()] = *kind;
            }
            TraceEvent::EdgeAdded { from, to } => {
                self.ensure(*from);
                self.ensure(*to);
                lock(&self.preds)[to.index()].push(*from);
                lock(&self.uf).union(*from, *to);
            }
            TraceEvent::EdgesRemoved { node, .. } => {
                self.ensure(*node);
                lock(&self.preds)[node.index()].clear();
            }
            TraceEvent::Dirtied { node, .. } => {
                self.ensure(*node);
                lock(&self.dirty)[node.index()] = true;
            }
            TraceEvent::ExecuteBegin { node } => {
                self.ensure(*node);
                let clock = self.exec_clock.fetch_add(1, Ordering::Relaxed) + 1;
                let mut execs = lock(&self.execs);
                let (count, _) = execs[node.index()];
                execs[node.index()] = (count + 1, clock);
            }
            TraceEvent::ExecuteEnd { node, .. } => {
                self.ensure(*node);
                lock(&self.dirty)[node.index()] = false;
            }
            TraceEvent::Write { node, .. } => {
                // A location settles once written; dirt on it drains at the
                // next propagation, which pops it immediately.
                self.ensure(*node);
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Per-node profiler
// ---------------------------------------------------------------------------

#[derive(Default, Clone, Copy)]
struct NodeProfile {
    execs: u64,
    cache_hits: u64,
    dirtied: u64,
    cumulative: Duration,
    self_time: Duration,
}

struct ProfFrame {
    node: NodeId,
    start: Instant,
    child_time: Duration,
}

/// Aggregates per-node execution statistics from the event stream:
/// execution count, cumulative and self wall-clock time, cache hits and
/// dirtyings. [`Profiler::report`] prints the top-K hot nodes as a table.
#[derive(Default)]
pub struct Profiler {
    labels: Labels,
    per_node: Mutex<Vec<NodeProfile>>,
    stack: Mutex<Vec<ProfFrame>>,
    propagations: AtomicU64,
    propagate_time: Mutex<Duration>,
    propagate_start: Mutex<Vec<Instant>>,
    /// `ExecuteEnd` events whose `ExecuteBegin` was never observed (the
    /// profiler was attached mid-execution): those executions are missing
    /// from every aggregate, so reports warn about them.
    dropped: AtomicU64,
}

impl Profiler {
    /// Creates an empty profiler.
    pub fn new() -> Profiler {
        Profiler::default()
    }

    fn slot(&self, n: NodeId) -> MutexGuard<'_, Vec<NodeProfile>> {
        let mut per = lock(&self.per_node);
        if per.len() <= n.index() {
            per.resize(n.index() + 1, NodeProfile::default());
        }
        per
    }

    /// Propagation runs observed.
    pub fn propagations(&self) -> u64 {
        self.propagations.load(Ordering::Relaxed)
    }

    /// Total wall-clock time spent inside propagation runs.
    pub fn propagate_time(&self) -> Duration {
        *lock(&self.propagate_time)
    }

    /// Total executions observed across all nodes.
    pub fn total_execs(&self) -> u64 {
        lock(&self.per_node).iter().map(|p| p.execs).sum()
    }

    /// Executions whose begin was never observed (attachment mid-execution)
    /// and which are therefore missing from the aggregates.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// The `top_k` hottest nodes by self time, as an aligned table.
    pub fn report(&self, top_k: usize) -> String {
        let per = lock(&self.per_node);
        let mut rows: Vec<(NodeId, NodeProfile)> = per
            .iter()
            .enumerate()
            .filter(|(_, p)| p.execs > 0 || p.cache_hits > 0 || p.dirtied > 0)
            .map(|(i, p)| (NodeId::from_index(i), *p))
            .collect();
        rows.sort_by(|a, b| {
            b.1.self_time
                .cmp(&a.1.self_time)
                .then(b.1.execs.cmp(&a.1.execs))
                .then(a.0.cmp(&b.0))
        });
        rows.truncate(top_k);

        let header = ["node", "execs", "hits", "dirtied", "self_us", "cum_us"];
        let mut cells: Vec<[String; 6]> = Vec::with_capacity(rows.len());
        for (id, p) in &rows {
            cells.push([
                self.labels.of(*id),
                p.execs.to_string(),
                p.cache_hits.to_string(),
                p.dirtied.to_string(),
                format!("{:.1}", p.self_time.as_secs_f64() * 1e6),
                format!("{:.1}", p.cumulative.as_secs_f64() * 1e6),
            ]);
        }
        let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
        for row in &cells {
            for (w, c) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        if self.dropped.load(Ordering::Relaxed) > 0 {
            let _ = writeln!(
                out,
                "warning: {} events dropped (profiler attached mid-execution) — aggregates undercount",
                self.dropped.load(Ordering::Relaxed)
            );
        }
        let _ = writeln!(
            out,
            "hot nodes (top {} by self time; {} propagations, {:.1} us propagating)",
            rows.len(),
            self.propagations.load(Ordering::Relaxed),
            lock(&self.propagate_time).as_secs_f64() * 1e6,
        );
        let fmt_row = |cols: &[String]| -> String {
            let mut line = String::new();
            for (i, (c, w)) in cols.iter().zip(&widths).enumerate() {
                if i == 0 {
                    let _ = write!(line, "{c:<w$}");
                } else {
                    let _ = write!(line, "  {c:>w$}");
                }
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(
            &header.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        ));
        for row in &cells {
            out.push_str(&fmt_row(row.as_slice()));
        }
        out
    }
}

impl TraceSink for Profiler {
    fn event(&self, ev: &TraceEvent) {
        self.labels.observe(ev);
        match ev {
            TraceEvent::ExecuteBegin { node } => {
                lock(&self.stack).push(ProfFrame {
                    node: *node,
                    start: Instant::now(),
                    child_time: Duration::ZERO,
                });
            }
            TraceEvent::ExecuteEnd { node, .. } => {
                let Some(frame) = lock(&self.stack).pop() else {
                    // Sink attached mid-execution: this execution is lost.
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                    return;
                };
                debug_assert_eq!(frame.node, *node, "profiler stack imbalance");
                let elapsed = frame.start.elapsed();
                {
                    let mut per = self.slot(*node);
                    let p = &mut per[node.index()];
                    p.execs += 1;
                    p.cumulative += elapsed;
                    p.self_time += elapsed.saturating_sub(frame.child_time);
                }
                if let Some(parent) = lock(&self.stack).last_mut() {
                    parent.child_time += elapsed;
                }
            }
            TraceEvent::CacheHit { node } => {
                self.slot(*node)[node.index()].cache_hits += 1;
            }
            TraceEvent::Dirtied { node, .. } => {
                self.slot(*node)[node.index()].dirtied += 1;
            }
            TraceEvent::PropagateBegin { .. } => {
                lock(&self.propagate_start).push(Instant::now());
            }
            TraceEvent::PropagateEnd { .. } => {
                if let Some(start) = lock(&self.propagate_start).pop() {
                    self.propagations.fetch_add(1, Ordering::Relaxed);
                    *lock(&self.propagate_time) += start.elapsed();
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_ring_drops_oldest() {
        let rec = Recorder::new(2);
        for i in 0..3 {
            rec.event(&TraceEvent::Read {
                node: NodeId::from_index(i),
            });
        }
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.dropped(), 1);
        let evs = rec.events();
        assert_eq!(evs[0].node(), Some(NodeId::from_index(1)));
        assert_eq!(evs[1].node(), Some(NodeId::from_index(2)));
    }

    #[test]
    fn chrome_json_is_balanced_and_named() {
        let c = ChromeTrace::new();
        let n = NodeId::from_index(0);
        c.event(&TraceEvent::NodeCreated {
            node: n,
            kind: NodeKind::Computation,
            label: Some(Arc::from("he\"llo")),
        });
        c.event(&TraceEvent::ExecuteBegin { node: n });
        c.event(&TraceEvent::Read { node: n });
        c.event(&TraceEvent::ExecuteEnd {
            node: n,
            changed: true,
        });
        let json = c.to_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains(r#"exec he\"llo"#), "{json}");
        assert!(json.contains(r#""reads":1"#), "{json}");
    }

    #[test]
    fn json_escape_handles_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\u000ad");
    }

    #[test]
    fn graph_sink_mirrors_edges_and_removals() {
        let g = GraphSink::new();
        let a = NodeId::from_index(0);
        let b = NodeId::from_index(1);
        for (n, kind) in [(a, NodeKind::Location), (b, NodeKind::Computation)] {
            g.event(&TraceEvent::NodeCreated {
                node: n,
                kind,
                label: None,
            });
        }
        g.event(&TraceEvent::EdgeAdded { from: a, to: b });
        assert_eq!(g.snapshot().edges, vec![(a, b)]);
        g.event(&TraceEvent::EdgesRemoved { node: b, count: 1 });
        assert!(g.snapshot().edges.is_empty());
        let dot = g.to_dot();
        assert!(dot.contains("digraph alphonse"));
    }

    #[test]
    fn profiler_attributes_self_time_to_frames() {
        let p = Profiler::new();
        let outer = NodeId::from_index(0);
        let inner = NodeId::from_index(1);
        p.event(&TraceEvent::ExecuteBegin { node: outer });
        p.event(&TraceEvent::ExecuteBegin { node: inner });
        p.event(&TraceEvent::ExecuteEnd {
            node: inner,
            changed: true,
        });
        p.event(&TraceEvent::ExecuteEnd {
            node: outer,
            changed: true,
        });
        assert_eq!(p.total_execs(), 2);
        let report = p.report(10);
        assert!(report.contains("execs"), "{report}");
    }

    #[test]
    fn render_dot_is_deterministic() {
        let snap = GraphSnapshot {
            nodes: vec![
                SnapshotNode {
                    id: NodeId::from_index(0),
                    kind: NodeKind::Location,
                    label: Some("x".into()),
                    consistent: true,
                    queued: false,
                    partition: None,
                    last_exec: 0,
                    execs: 0,
                },
                SnapshotNode {
                    id: NodeId::from_index(1),
                    kind: NodeKind::Computation,
                    label: Some("f".into()),
                    consistent: false,
                    queued: true,
                    partition: None,
                    last_exec: 3,
                    execs: 2,
                },
            ],
            edges: vec![(NodeId::from_index(0), NodeId::from_index(1))],
        };
        let a = render_dot(&snap);
        let b = render_dot(&snap);
        assert_eq!(a, b);
        assert!(a.contains("salmon"));
        assert!(a.contains("penwidth=2"));
        assert!(a.contains("peripheries=2"));
    }
}
