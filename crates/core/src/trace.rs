//! Runtime observability: a pluggable trace-event stream and its consumers.
//!
//! The aggregate counters of [`crate::Stats`] answer *how much* work the
//! runtime did; this module answers *which* node did it and *why*. Every
//! instrumented operation of the paper — `access`, `modify`, `call`
//! (Algorithms 3–5) and the Section 4.5 evaluation routine — emits a
//! [`TraceEvent`] to the sink installed with
//! [`Runtime::set_sink`](crate::Runtime::set_sink), which hands back the
//! previous sink for a caller that wants to restore it.
//!
//! The stream is the runtime's one debugging path (the paper's Section 1
//! "sophisticated debugging"): the runtime renders no graph view of its
//! own. It carries the dependence edges, dirtying with its causes,
//! executions, cutoffs and levels. It does not carry cached values or
//! node heights, and they are not added back: a `why` chain names what
//! changed and what re-ran, not what the values were.
//!
//! # Zero-cost when disabled
//!
//! With no sink installed, every emission site costs exactly one untaken,
//! well-predicted branch (`Option::is_some` on the sink slot); no event
//! value is ever constructed. Experiment E2's instrumentation-overhead ratio
//! is the regression gate for this claim.
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
//! In a level that runs on the executor pool
//! ([`Runtime::set_parallelism`](crate::Runtime::set_parallelism) of 2 or
//! more) the claimants emit reads, cache hits and their executions' begin
//! and end events under *shared* access, so a sink receives those events
//! concurrently from several threads, interleaved across them; each
//! thread's events still arrive in its own program order. A sink must
//! therefore synchronise internally, as [`Recorder`] and [`JsonlSink`] do
//! with one lock each.
//!
//! # Consumers
//!
//! | Consumer | Question it answers |
//! |---|---|
//! | [`Recorder`] | "what exactly happened, in order?" — every event, in memory |
//! | [`JsonlSink`] | "keep everything for later" — streams every event as one JSON line, the one persisted trace format |
//! | [`provenance::Provenance`] | "why did this node recompute?" — live causal `why(node)` chains |
//!
//! Every other view renders offline from a JSONL trace with the
//! `alphonse-trace` CLI (`crates/trace-tools`): `chrome` (Chrome /
//! [Perfetto](https://ui.perfetto.dev) spans: where wall-clock time goes),
//! `dot` (the dependency graph with dirty state and partitions), `hot`
//! (per-node execution counts and self/cumulative time), plus `why`,
//! `waves` and `waste`.
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
//! let rec = Arc::new(Recorder::new());
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
use alphonse_graph::NodeId;
use alphonse_mem as memacct;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::io::Write as IoWrite;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

pub mod provenance;
pub mod session;

pub use provenance::Provenance;
pub use session::ActiveTrace;

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
    /// The evaluator pulled the batch of dirty nodes at one height (all
    /// of them, unless a `propagate_steps` budget capped it) and is about
    /// to process it. Every [`TraceEvent::ExecuteBegin`]/
    /// [`TraceEvent::ExecuteEnd`] pair until the matching
    /// [`TraceEvent::LevelEnd`] belongs to this level. Executions within a
    /// level overlap in time only when it runs on a pool
    /// ([`Runtime::set_parallelism`](crate::Runtime::set_parallelism) of 2
    /// or more); each thread's spans still nest.
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
        /// Whether the new value differs from the cached one (always
        /// `false` for superseded re-entrant executions).
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
    /// A dependence edge entered the graph (`CreateEdge`, Algorithm 3):
    /// the finishing execution of `to` accessed `from`, which its previous
    /// execution did not. Emitted when the execution's frame pops and its
    /// dependence log is reconciled, before its
    /// [`ExecuteEnd`](TraceEvent::ExecuteEnd); an edge the execution reads
    /// again stays in place and emits nothing.
    EdgeAdded {
        /// The node depended upon (predecessor).
        from: NodeId,
        /// The depending computation (successor).
        to: NodeId,
    },
    /// A dependence edge left the graph (Algorithm 5's `RemovePredEdges`,
    /// per edge): the finishing execution of `to` no longer accessed
    /// `from`. Emitted by the same reconciliation as
    /// [`EdgeAdded`](TraceEvent::EdgeAdded), removals first.
    EdgeRemoved {
        /// The node no longer depended upon (predecessor).
        from: NodeId,
        /// The computation whose dependency was dropped (successor).
        to: NodeId,
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
    /// [`TraceEvent::EdgeAdded`] and [`TraceEvent::EdgeRemoved`] are
    /// attributed to the depending successor `to` — an edge is a fact
    /// about the executing computation's dependency set, not about the
    /// storage it read.
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
            | TraceEvent::CutoffStop { node } => Some(*node),
            TraceEvent::EdgeAdded { to, .. } | TraceEvent::EdgeRemoved { to, .. } => Some(*to),
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
/// Sinks are `Send + Sync` so a traced session stays movable across threads,
/// and in a pooled level several threads call [`TraceSink::event`] at once.
pub trait TraceSink: Send + Sync {
    /// Called once per observable runtime step, in the program order of the
    /// thread that took the step; a pooled level's claimants call it
    /// concurrently, their events interleaved.
    fn event(&self, ev: &TraceEvent);
}

// ---------------------------------------------------------------------------
// Default sink (process-wide hook for harnesses)
// ---------------------------------------------------------------------------

thread_local! {
    static DEFAULT_SINK: RefCell<Option<Arc<dyn TraceSink>>> = const { RefCell::new(None) };
}

/// Installs a sink that every [`Runtime`](crate::Runtime) *built after
/// this call* (on this thread) starts with, and returns the previous
/// default. Pass `None` to clear.
///
/// This is the hook benchmark harnesses use to trace workloads that
/// construct their runtimes internally; prefer
/// [`Runtime::set_sink`](crate::Runtime::set_sink) when you hold the
/// runtime.
pub fn set_default_sink(sink: Option<Arc<dyn TraceSink>>) -> Option<Arc<dyn TraceSink>> {
    DEFAULT_SINK.with(|s| std::mem::replace(&mut *s.borrow_mut(), sink))
}

pub(crate) fn default_sink() -> Option<Arc<dyn TraceSink>> {
    DEFAULT_SINK.with(|s| s.borrow().clone())
}

// ---------------------------------------------------------------------------
// Recorder: in-memory event log
// ---------------------------------------------------------------------------

/// An in-memory log of every event, oldest first — the live counterpart
/// of a JSONL trace, for tests and tools that inspect a run in process.
/// It keeps everything, so record bounded runs; stream long ones to a
/// [`JsonlSink`] instead.
#[derive(Default)]
pub struct Recorder {
    events: Mutex<Vec<TraceEvent>>,
}

impl Recorder {
    /// Creates an empty recorder.
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        lock(&self.events).len()
    }

    /// Returns `true` if no events were recorded.
    pub fn is_empty(&self) -> bool {
        lock(&self.events).is_empty()
    }

    /// Every recorded event, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        lock(&self.events).clone()
    }
}

impl TraceSink for Recorder {
    fn event(&self, ev: &TraceEvent) {
        let _mem = memacct::scope(memacct::Tag::Trace);
        lock(&self.events).push(ev.clone());
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
        TraceEvent::EdgeRemoved { .. } => "EdgeRemoved",
        TraceEvent::BatchCommit { .. } => "BatchCommit",
    }
}

/// Encodes one event as a JSONL record (no trailing newline).
///
/// `wave` is the stamping slot tracking the currently open propagation wave:
/// [`TraceEvent::PropagateBegin`] opens it, [`TraceEvent::PropagateEnd`]
/// closes it, and every event in between is stamped `"wave":N`. The
/// propagation and level brackets and [`TraceEvent::BatchCommit`] are
/// stamped with their own wave fields instead, so each line names its
/// wave without the lines before it. Node-bearing events carry the node's
/// resolved `"label"` when one is known, so a trace file stays
/// self-contained; node ids serialize as their dense indices.
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
        TraceEvent::BatchCommit { wave: w, .. }
        | TraceEvent::LevelBegin { wave: w, .. }
        | TraceEvent::LevelEnd { wave: w, .. } => Some(*w),
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
        TraceEvent::EdgeAdded { from, to } | TraceEvent::EdgeRemoved { from, to } => {
            let _ = write!(out, r#","from":{},"to":{}"#, from.index(), to.index());
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
/// (`{"meta":{"format":"alphonse-trace","version":1}}`); each subsequent
/// line is one event with a microsecond timestamp, the propagation-wave
/// stamp, and resolved node labels. Write errors after construction are
/// ignored: tracing must never take down the traced program.
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
            r#"{{"meta":{{"format":"{JSONL_FORMAT}","version":{JSONL_VERSION}}}}}"#
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
/// [`ActiveTrace`] uses it to run the live [`Provenance`] index alongside
/// the JSONL file.
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

    fn raw(&self, n: NodeId) -> Option<String> {
        lock(&self.names)
            .get(n.index())
            .and_then(|o| o.as_deref().map(str::to_owned))
    }
}

/// Escapes `s` for embedding in a JSON string literal: quotes, backslashes
/// and control characters (`\n`, `\r` and `\t` in their short forms, the
/// rest as `\u00XX`). The one JSON string escaper of the workspace: every
/// JSON writer (traces, metrics snapshots, bench tables, `alphonse-check`
/// reports) goes through it.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_keeps_every_event_in_order() {
        let rec = Recorder::new();
        for i in 0..3 {
            rec.event(&TraceEvent::Read {
                node: NodeId::from_index(i),
            });
        }
        assert_eq!(rec.len(), 3);
        let nodes: Vec<_> = rec.events().iter().map(TraceEvent::node).collect();
        assert_eq!(
            nodes,
            (0..3)
                .map(|i| Some(NodeId::from_index(i)))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn json_escape_handles_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\r\t\u{1}é"), "\\r\\t\\u0001é");
    }
}
