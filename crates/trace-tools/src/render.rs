//! Offline views of a parsed trace: Chrome trace-event JSON, the dependency
//! graph as Graphviz DOT, and the hot-node table.
//!
//! Each view is one single-threaded fold over [`TraceFile::records`].
//! Executions pair by node: an `ExecuteEnd` closes the most recent open
//! `ExecuteBegin` of the same node, not whatever began last. A pooled level
//! emits all of its begins and then all of its ends, and its overlapping
//! executions still pair up.

use crate::model::{Record, TraceFile};
use crate::report::Names;
use alphonse::trace::{json_escape, TraceEvent};
use alphonse::{NodeId, NodeKind};
use alphonse_graph::UnionFind;
use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// Chrome trace-event JSON
// ---------------------------------------------------------------------------

/// An execution span still waiting for its `ExecuteEnd`.
struct OpenSpan {
    node: NodeId,
    /// Index of the span's record in the output, filled in when it ends.
    slot: usize,
    name: String,
    ts: u64,
    reads: u64,
    edges: u64,
}

/// Renders the trace in the Chrome trace-event format, loadable in
/// `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).
///
/// Executions and propagation runs become complete (`"ph":"X"`) events with
/// a `dur`, placed where they began. Writes, dirtyings, level starts, cache
/// hits, cutoffs and batch commits become instant (`"ph":"i"`) events.
/// Timestamps are the trace's microseconds.
///
/// Reads and new edges are tallied into the execution's `args` instead of
/// emitted one by one, which keeps large traces loadable. A new edge counts
/// toward its depending node's span. A read counts toward the innermost open
/// span, which is exact when one thread runs the wave. In a pooled level
/// the executions of different threads overlap, so a read lands on the
/// last-begun one.
/// Spans the trace never closes end at its last timestamp and carry
/// `"unfinished":true`.
pub fn chrome(tf: &TraceFile) -> String {
    let mut names = Names::default();
    let mut records: Vec<String> = Vec::new();
    let mut execs: Vec<OpenSpan> = Vec::new();
    let mut propagations: Vec<(usize, u64)> = Vec::new();
    let complete = |name: &str, cat: &str, ts: u64, end: u64, args: &str| {
        format!(
            r#"{{"name":"{}","cat":"{cat}","ph":"X","ts":{ts},"dur":{},"pid":1,"tid":1,"args":{{{args}}}}}"#,
            json_escape(name),
            end.saturating_sub(ts)
        )
    };
    let instant = |name: &str, cat: &str, ts: u64, args: &str| {
        format!(
            r#"{{"name":"{}","cat":"{cat}","ph":"i","s":"t","ts":{ts},"pid":1,"tid":1,"args":{{{args}}}}}"#,
            json_escape(name)
        )
    };
    for rec in &tf.records {
        names.observe(rec);
        let ts = rec.ts;
        let record = match &rec.event {
            TraceEvent::Read { .. } => {
                if let Some(span) = execs.last_mut() {
                    span.reads += 1;
                }
                continue;
            }
            TraceEvent::EdgeAdded { to, .. } => {
                if let Some(span) = execs.iter_mut().rev().find(|s| s.node == *to) {
                    span.edges += 1;
                }
                continue;
            }
            TraceEvent::ExecuteBegin { node } => {
                execs.push(OpenSpan {
                    node: *node,
                    slot: records.len(),
                    name: format!("exec {}", names.display(*node)),
                    ts,
                    reads: 0,
                    edges: 0,
                });
                String::new()
            }
            TraceEvent::ExecuteEnd { node, changed } => {
                if let Some(i) = execs.iter().rposition(|s| s.node == *node) {
                    let span = execs.remove(i);
                    records[span.slot] = complete(
                        &span.name,
                        "execute",
                        span.ts,
                        ts,
                        &format!(
                            r#""changed":{changed},"reads":{},"edges":{}"#,
                            span.reads, span.edges
                        ),
                    );
                }
                continue;
            }
            TraceEvent::PropagateBegin { .. } => {
                propagations.push((records.len(), ts));
                String::new()
            }
            TraceEvent::PropagateEnd { wave, steps } => {
                if let Some((slot, begin)) = propagations.pop() {
                    records[slot] = complete(
                        "propagate",
                        "propagate",
                        begin,
                        ts,
                        &format!(r#""wave":{wave},"steps":{steps}"#),
                    );
                }
                continue;
            }
            TraceEvent::Write { node, changed } => instant(
                &format!("write {}", names.display(*node)),
                "write",
                ts,
                &format!(r#""changed":{changed}"#),
            ),
            TraceEvent::Dirtied {
                node,
                reason,
                cause,
            } => instant(
                &format!("dirty {}", names.display(*node)),
                "dirty",
                ts,
                &match cause {
                    Some(c) => format!(r#""reason":"{reason:?}","cause":"{c}""#),
                    None => format!(r#""reason":"{reason:?}""#),
                },
            ),
            TraceEvent::LevelBegin {
                wave,
                height,
                width,
            } => instant(
                &format!("level h{height}"),
                "level",
                ts,
                &format!(r#""wave":{wave},"height":{height},"width":{width}"#),
            ),
            TraceEvent::CacheHit { node } => {
                instant(&format!("hit {}", names.display(*node)), "cache", ts, "")
            }
            TraceEvent::CutoffStop { node } => instant(
                &format!("cutoff {}", names.display(*node)),
                "cutoff",
                ts,
                "",
            ),
            TraceEvent::BatchCommit {
                writes,
                coalesced,
                wave,
            } => instant(
                "batch commit",
                "batch",
                ts,
                &format!(r#""writes":{writes},"coalesced":{coalesced},"wave":{wave}"#),
            ),
            _ => continue,
        };
        records.push(record);
    }
    let last = tf.records.last().map_or(0, |r| r.ts);
    for span in execs {
        records[span.slot] = complete(&span.name, "execute", span.ts, last, r#""unfinished":true"#);
    }
    for (slot, begin) in propagations {
        records[slot] = complete(
            "propagate",
            "propagate",
            begin,
            last,
            r#""unfinished":true"#,
        );
    }
    let mut out = String::from("[\n");
    out.push_str(&records.join(",\n"));
    out.push_str("\n]\n");
    out
}

// ---------------------------------------------------------------------------
// Dependency graph as DOT
// ---------------------------------------------------------------------------

/// Per-node state of the replayed graph.
#[derive(Clone)]
struct GraphNode {
    kind: NodeKind,
    /// Incoming edges, as `EdgeAdded` / `EdgeRemoved` maintain them.
    preds: Vec<NodeId>,
    dirty: bool,
    execs: u64,
    /// Ordinal of the node's latest execution start (0 = never executed).
    last_exec: u64,
}

/// The dependency graph a trace describes, replayed from its events.
#[derive(Default)]
struct Graph {
    names: Names,
    nodes: Vec<GraphNode>,
    partitions: UnionFind,
    exec_clock: u64,
}

impl Graph {
    /// Replays every record. Node ids are per runtime: when one trace holds
    /// several runtimes (a thread-default sink), the replay restarts each
    /// time a node 0 arrives, so it ends with the last runtime's graph.
    fn replay(tf: &TraceFile) -> Graph {
        let mut g = Graph::default();
        for rec in &tf.records {
            g.record(rec);
        }
        g
    }

    fn node(&mut self, n: NodeId) -> &mut GraphNode {
        if self.nodes.len() <= n.index() {
            self.nodes.resize(
                n.index() + 1,
                GraphNode {
                    kind: NodeKind::Location,
                    preds: Vec::new(),
                    dirty: false,
                    execs: 0,
                    last_exec: 0,
                },
            );
        }
        self.partitions.ensure(n);
        &mut self.nodes[n.index()]
    }

    fn record(&mut self, rec: &Record) {
        if let TraceEvent::NodeCreated { node, .. } = rec.event {
            if node.index() == 0 && !self.nodes.is_empty() {
                *self = Graph::default();
            }
        }
        self.names.observe(rec);
        match rec.event {
            TraceEvent::NodeCreated { node, kind, .. } => self.node(node).kind = kind,
            TraceEvent::EdgeAdded { from, to } => {
                self.node(from);
                self.node(to).preds.push(from);
                self.partitions.union(from, to);
            }
            TraceEvent::EdgeRemoved { from, to } => {
                let preds = &mut self.node(to).preds;
                if let Some(i) = preds.iter().position(|&p| p == from) {
                    preds.remove(i);
                }
            }
            TraceEvent::Dirtied { node, .. } => self.node(node).dirty = true,
            TraceEvent::ExecuteBegin { node } => {
                self.exec_clock += 1;
                let clock = self.exec_clock;
                let n = self.node(node);
                n.execs += 1;
                n.last_exec = clock;
            }
            TraceEvent::ExecuteEnd { node, .. } => self.node(node).dirty = false,
            TraceEvent::Write { node, .. } => {
                self.node(node);
            }
            _ => {}
        }
    }

    fn edge_count(&self) -> usize {
        self.nodes.iter().map(|n| n.preds.len()).sum()
    }

    fn node_line(&self, i: usize, latest: u64) -> String {
        let (id, n) = (NodeId::from_index(i), &self.nodes[i]);
        let mut label = match self.names.raw(id) {
            Some(l) => format!("{}\\n{id}", l.replace('"', "'")),
            None => id.to_string(),
        };
        if n.last_exec > 0 {
            let _ = write!(label, " #{}", n.last_exec);
        }
        if n.execs > 0 {
            let _ = write!(label, "\\nexecs={}", n.execs);
        }
        let (shape, fill) = match n.kind {
            NodeKind::Location => ("box", "lightsteelblue"),
            NodeKind::Computation if !n.dirty => ("ellipse", "palegreen"),
            NodeKind::Computation => ("ellipse", "salmon"),
        };
        let mut attrs = format!("label=\"{label}\" shape={shape} style=filled fillcolor={fill}");
        if n.dirty {
            attrs.push_str(" color=red penwidth=2");
        }
        if n.last_exec > 0 && n.last_exec == latest {
            attrs.push_str(" peripheries=2");
        }
        format!("  {id} [{attrs}];\n")
    }
}

/// Replays the trace into the dependency graph it describes and renders it
/// as a Graphviz DOT document.
///
/// Visual encoding:
/// * **kind**: locations are grey-blue boxes, computations are ellipses;
/// * **dirty state**: a node dirtied and not yet re-executed is drawn with
///   a bold red border, and such computations are filled salmon rather
///   than green;
/// * **executions**: every executed node shows the ordinal of its latest
///   execution (`#k`) and its count (`execs=`); the node that executed last
///   gets a double outline;
/// * **partitions**: union-find components of the edges seen (Section 6.3)
///   become `subgraph cluster`s.
///
/// When the trace holds several runtimes, the drawing shows the last one.
pub fn dot(tf: &TraceFile) -> String {
    let mut g = Graph::replay(tf);
    let mut out = String::new();
    out.push_str("digraph alphonse {\n");
    out.push_str("  rankdir=BT;\n");
    out.push_str("  node [fontname=\"Helvetica\" fontsize=10];\n");
    let latest = g.nodes.iter().map(|n| n.last_exec).max().unwrap_or(0);
    let n_nodes = g.nodes.len();
    // A lone node forms no partition worth a cluster.
    if n_nodes > 1 {
        let roots: Vec<NodeId> = (0..n_nodes)
            .map(|i| g.partitions.find(NodeId::from_index(i)))
            .collect();
        let mut clusters = roots.clone();
        clusters.sort();
        clusters.dedup();
        for root in clusters {
            let _ = writeln!(out, "  subgraph cluster_{} {{", root.index());
            let _ = writeln!(out, "    label=\"partition {root}\";");
            for i in (0..n_nodes).filter(|&i| roots[i] == root) {
                out.push_str("  ");
                out.push_str(&g.node_line(i, latest));
            }
            out.push_str("  }\n");
        }
    } else {
        for i in 0..n_nodes {
            out.push_str(&g.node_line(i, latest));
        }
    }
    let mut edges: Vec<(NodeId, NodeId)> = g
        .nodes
        .iter()
        .enumerate()
        .flat_map(|(i, n)| n.preds.iter().map(move |&p| (p, NodeId::from_index(i))))
        .collect();
    edges.sort();
    for (u, v) in edges {
        let _ = writeln!(out, "  {u} -> {v};");
    }
    out.push_str("}\n");
    out
}

/// Node and edge counts of the graph [`dot`] draws.
pub fn graph_size(tf: &TraceFile) -> (usize, usize) {
    let g = Graph::replay(tf);
    (g.nodes.len(), g.edge_count())
}

// ---------------------------------------------------------------------------
// Hot nodes
// ---------------------------------------------------------------------------

/// Per-node execution accounting of [`hot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotRow {
    /// The node.
    pub node: NodeId,
    /// `label (nI)`, or `nI` for unlabeled nodes.
    pub label: String,
    /// Executions whose begin and end are both in the trace.
    pub execs: u64,
    /// Calls answered from cache.
    pub hits: u64,
    /// Times the node was dirtied.
    pub dirtied: u64,
    /// Time inside the node's executions minus time inside the executions
    /// they called, in µs.
    pub self_us: u64,
    /// Time inside the node's executions, in µs.
    pub cum_us: u64,
}

/// Per-node execution counts and times, hottest first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotReport {
    /// Every node that executed, hit the cache or was dirtied, sorted by
    /// self time, then executions (both descending), then id.
    pub rows: Vec<HotRow>,
    /// Propagation runs with both brackets in the trace.
    pub propagations: u64,
    /// Time inside those runs, in µs.
    pub propagate_us: u64,
    /// `ExecuteEnd`s with no open begin of the same node (the recording
    /// started mid-execution). They are missing from every row.
    pub unmatched: u64,
}

/// The row of node `n`, growing the dense table to reach it.
fn hot_row(rows: &mut Vec<HotRow>, n: NodeId) -> &mut HotRow {
    let start = rows.len();
    if start <= n.index() {
        rows.extend((start..=n.index()).map(|i| HotRow {
            node: NodeId::from_index(i),
            label: String::new(),
            execs: 0,
            hits: 0,
            dirtied: 0,
            self_us: 0,
            cum_us: 0,
        }));
    }
    &mut rows[n.index()]
}

/// An execution still waiting for its `ExecuteEnd`.
struct Frame {
    id: usize,
    node: NodeId,
    ts: u64,
    /// Time spent in the executions this one called.
    child_us: u64,
    /// The frame that was innermost when this one began: its caller.
    caller: Option<usize>,
}

/// Aggregates per-node execution statistics (see [`HotReport`]).
///
/// A finished execution's time counts toward its caller's child time while
/// the caller is still open. Executions of one pooled level begin in a row
/// and end in the same order, so each has already ended by the time the
/// next one, which recorded it as caller, ends: siblings never charge each
/// other.
pub fn hot(tf: &TraceFile) -> HotReport {
    let mut names = Names::default();
    let mut rows: Vec<HotRow> = Vec::new();
    let mut frames: Vec<Frame> = Vec::new();
    let mut next_frame = 0usize;
    let mut propagate_begins: Vec<u64> = Vec::new();
    let (mut propagations, mut propagate_us, mut unmatched) = (0, 0, 0);
    for rec in &tf.records {
        names.observe(rec);
        match rec.event {
            TraceEvent::ExecuteBegin { node } => {
                frames.push(Frame {
                    id: next_frame,
                    node,
                    ts: rec.ts,
                    child_us: 0,
                    caller: frames.last().map(|f| f.id),
                });
                next_frame += 1;
            }
            TraceEvent::ExecuteEnd { node, .. } => {
                let Some(i) = frames.iter().rposition(|f| f.node == node) else {
                    unmatched += 1;
                    continue;
                };
                let frame = frames.remove(i);
                let elapsed = rec.ts.saturating_sub(frame.ts);
                let r = hot_row(&mut rows, node);
                r.execs += 1;
                r.cum_us += elapsed;
                r.self_us += elapsed.saturating_sub(frame.child_us);
                if let Some(caller) = frames.iter_mut().find(|f| Some(f.id) == frame.caller) {
                    caller.child_us += elapsed;
                }
            }
            TraceEvent::CacheHit { node } => hot_row(&mut rows, node).hits += 1,
            TraceEvent::Dirtied { node, .. } => hot_row(&mut rows, node).dirtied += 1,
            TraceEvent::PropagateBegin { .. } => propagate_begins.push(rec.ts),
            TraceEvent::PropagateEnd { .. } => {
                if let Some(begin) = propagate_begins.pop() {
                    propagations += 1;
                    propagate_us += rec.ts.saturating_sub(begin);
                }
            }
            _ => {}
        }
    }
    rows.retain(|r| r.execs > 0 || r.hits > 0 || r.dirtied > 0);
    for r in &mut rows {
        r.label = names.display(r.node);
    }
    rows.sort_by(|a, b| {
        b.self_us
            .cmp(&a.self_us)
            .then(b.execs.cmp(&a.execs))
            .then(a.node.cmp(&b.node))
    });
    HotReport {
        rows,
        propagations,
        propagate_us,
        unmatched,
    }
}

impl HotReport {
    /// The `top_k` hottest rows as an aligned table under a one-line
    /// summary.
    pub fn render(&self, top_k: usize) -> String {
        let rows = &self.rows[..self.rows.len().min(top_k)];
        let header = ["node", "execs", "hits", "dirtied", "self_us", "cum_us"].map(String::from);
        let cells: Vec<[String; 6]> = rows
            .iter()
            .map(|r| {
                [
                    r.label.clone(),
                    r.execs.to_string(),
                    r.hits.to_string(),
                    r.dirtied.to_string(),
                    format!("{:.1}", r.self_us as f64),
                    format!("{:.1}", r.cum_us as f64),
                ]
            })
            .collect();
        let mut widths = header.clone().map(|h| h.len());
        for row in &cells {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        if self.unmatched > 0 {
            let _ = writeln!(
                out,
                "warning: {} executions ended without a recorded begin (trace started \
                 mid-execution) — aggregates undercount",
                self.unmatched
            );
        }
        let _ = writeln!(
            out,
            "hot nodes (top {} by self time; {} propagations, {:.1} us propagating)",
            rows.len(),
            self.propagations,
            self.propagate_us as f64,
        );
        for row in std::iter::once(&header).chain(&cells) {
            for (i, (c, w)) in row.iter().zip(&widths).enumerate() {
                if i == 0 {
                    let _ = write!(out, "{c:<w$}");
                } else {
                    let _ = write!(out, "  {c:>w$}");
                }
            }
            out.push('\n');
        }
        out
    }
}
