//! The `alphonse-staticgraph` document model and the dynamic-vs-static
//! coverage check behind `alphonse-trace check-static`.
//!
//! `alphonse-check graph` serializes the compiler's whole-program abstract
//! dependency graph: abstract locations (`g:<name>` globals, `f:<offset>`
//! per-class field summaries, the `arr` array summary) and incremental
//! procedures, connected by `read` (loc → proc), `write` (proc → loc) and
//! `call` (callee → caller) edges. Because the abstraction is a
//! conservative over-approximation of everything the runtime can record,
//! every *dynamic* dependence edge must be covered by a static one:
//!
//! * a dynamic `location → computation` edge is covered when the static
//!   graph reads that location from that procedure, **or** writes it from
//!   that procedure — the runtime's `modify` records a dependence on the
//!   written location *before* storing (read-before-write), so a tracked
//!   write also manifests as a location → writer edge;
//! * a dynamic `computation → computation` edge is covered when the static
//!   graph has a `call` edge from the callee's procedure to the caller's.
//!
//! [`check`] replays a JSONL trace against a parsed graph and reports every
//! uncovered edge; an empty violation list is the machine-checked proof
//! that dynamic ⊆ static held for that run.

use crate::json::Json;
use crate::model::TraceFile;
use alphonse::trace::TraceEvent;
use alphonse::NodeKind;
use std::collections::{BTreeMap, BTreeSet};

/// A parsed `alphonse-staticgraph` JSON document, projected down to the
/// label-keyed edge sets the coverage check needs.
#[derive(Debug, Clone)]
pub struct StaticGraphFile {
    /// Document version (currently always 1).
    pub version: u64,
    /// Source file the graph was computed from.
    pub file: String,
    /// Labels of abstract-location nodes.
    pub locs: BTreeSet<String>,
    /// Labels of procedure nodes.
    pub procs: BTreeSet<String>,
    /// `read` edges: (location label, reading procedure label).
    pub reads: BTreeSet<(String, String)>,
    /// `write` edges: (writing procedure label, location label).
    pub writes: BTreeSet<(String, String)>,
    /// `call` edges: (callee procedure label, caller procedure label).
    pub calls: BTreeSet<(String, String)>,
}

impl StaticGraphFile {
    /// Parses a document produced by `alphonse-check graph`.
    pub fn parse(text: &str) -> Result<StaticGraphFile, String> {
        let doc = Json::parse(text)?;
        let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
        if schema != "alphonse-staticgraph" {
            return Err(format!("not a static graph document (schema `{schema}`)"));
        }
        let version = doc
            .get("version")
            .and_then(Json::as_u64)
            .ok_or("missing `version`")?;
        if version != 1 {
            return Err(format!(
                "unsupported static graph version {version} (this tool reads version 1)"
            ));
        }
        let file = doc
            .get("file")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();

        let mut locs = BTreeSet::new();
        let mut procs = BTreeSet::new();
        for node in doc
            .get("nodes")
            .and_then(Json::as_arr)
            .ok_or("missing `nodes`")?
        {
            let label = node
                .get("label")
                .and_then(Json::as_str)
                .ok_or("node without `label`")?
                .to_string();
            match node.get("kind").and_then(Json::as_str) {
                Some("loc") => locs.insert(label),
                Some("proc") => procs.insert(label),
                other => return Err(format!("node with unknown kind {other:?}")),
            };
        }

        let mut reads = BTreeSet::new();
        let mut writes = BTreeSet::new();
        let mut calls = BTreeSet::new();
        for edge in doc
            .get("edges")
            .and_then(Json::as_arr)
            .ok_or("missing `edges`")?
        {
            let from = edge
                .get("from")
                .and_then(Json::as_str)
                .ok_or("edge without `from`")?
                .to_string();
            let to = edge
                .get("to")
                .and_then(Json::as_str)
                .ok_or("edge without `to`")?
                .to_string();
            match edge.get("kind").and_then(Json::as_str) {
                Some("read") => reads.insert((from, to)),
                Some("write") => writes.insert((from, to)),
                Some("call") => calls.insert((from, to)),
                other => return Err(format!("edge with unknown kind {other:?}")),
            };
        }

        Ok(StaticGraphFile {
            version,
            file,
            locs,
            procs,
            reads,
            writes,
            calls,
        })
    }

    /// Is a dynamic `location → computation` edge covered? True when the
    /// static graph has the read edge, or the write edge in the opposite
    /// orientation (read-before-write: a tracked write records dependence
    /// on its own target).
    pub fn covers_loc_edge(&self, loc: &str, proc: &str) -> bool {
        self.reads.contains(&(loc.to_string(), proc.to_string()))
            || self.writes.contains(&(proc.to_string(), loc.to_string()))
    }

    /// Is a dynamic `computation → computation` (callee → caller) edge
    /// covered by a static call edge?
    pub fn covers_call_edge(&self, callee: &str, caller: &str) -> bool {
        self.calls
            .contains(&(callee.to_string(), caller.to_string()))
    }
}

/// One dynamic edge the static graph failed to cover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Label of the edge source (the dependency), or a `n<id>` placeholder
    /// when the node was never labeled.
    pub from: String,
    /// Label of the edge target (the dependent), or a placeholder.
    pub to: String,
    /// Why this edge is a violation.
    pub reason: String,
}

/// The result of replaying one trace against one static graph.
#[derive(Debug, Clone)]
pub struct CoverageReport {
    /// Total `EdgeAdded` events in the trace (an edge removed and added
    /// again counts each time it is added).
    pub dynamic_edges: usize,
    /// Distinct (from-label, to-label) dependence pairs observed.
    pub distinct_pairs: usize,
    /// Every distinct pair the static graph does not cover.
    pub violations: Vec<Violation>,
}

impl CoverageReport {
    /// Did every dynamic edge have static cover?
    pub fn is_covered(&self) -> bool {
        self.violations.is_empty()
    }

    /// Human-readable summary (one line per violation).
    pub fn render(&self) -> String {
        let mut out = format!(
            "check-static: {} dynamic edge event(s), {} distinct pair(s), {} violation(s)\n",
            self.dynamic_edges,
            self.distinct_pairs,
            self.violations.len()
        );
        for v in &self.violations {
            out.push_str(&format!("  {} -> {}: {}\n", v.from, v.to, v.reason));
        }
        out
    }
}

/// Replays `trace`, resolving every `EdgeAdded` endpoint to its node kind
/// and label, and checks each distinct dependence pair against `graph`.
///
/// Nodes are labeled by the interpreter: memo instances carry their
/// procedure's name, promoted locations carry `g:<name>` / `f:<offset>` /
/// `arr` (labels require the trace to have been recorded with a sink
/// attached, which is exactly when `EdgeAdded` events exist at all). An
/// unlabeled endpoint is reported as a violation rather than skipped — a
/// cross-validation that silently ignores edges proves nothing.
pub fn check(trace: &TraceFile, graph: &StaticGraphFile) -> CoverageReport {
    let mut kinds: BTreeMap<usize, NodeKind> = BTreeMap::new();
    let mut labels: BTreeMap<usize, String> = BTreeMap::new();
    let mut dynamic_edges = 0usize;
    let mut pairs: BTreeSet<(usize, usize)> = BTreeSet::new();

    for rec in &trace.records {
        match &rec.event {
            TraceEvent::NodeCreated { node, kind, label } => {
                kinds.insert(node.index(), *kind);
                if let Some(l) = label {
                    labels.insert(node.index(), l.to_string());
                }
            }
            TraceEvent::Labeled { node, label } => {
                labels.insert(node.index(), label.to_string());
            }
            TraceEvent::EdgeAdded { from, to } => {
                dynamic_edges += 1;
                pairs.insert((from.index(), to.index()));
            }
            _ => {}
        }
    }

    let name = |n: usize| -> String { labels.get(&n).cloned().unwrap_or_else(|| format!("n{n}")) };
    let mut violations = Vec::new();
    for &(from, to) in &pairs {
        let (from_label, to_label) = (name(from), name(to));
        let violation = |reason: String| Violation {
            from: from_label.clone(),
            to: to_label.clone(),
            reason,
        };
        let (Some(lf), Some(lt)) = (labels.get(&from), labels.get(&to)) else {
            violations.push(violation("endpoint was never labeled".to_string()));
            continue;
        };
        match (kinds.get(&from).copied(), kinds.get(&to).copied()) {
            (Some(NodeKind::Location), Some(NodeKind::Computation)) => {
                if !graph.covers_loc_edge(lf, lt) {
                    violations.push(violation(format!(
                        "no static read({lf}, {lt}) or write({lt}, {lf}) edge"
                    )));
                }
            }
            (Some(NodeKind::Computation), Some(NodeKind::Computation)) => {
                if !graph.covers_call_edge(lf, lt) {
                    violations.push(violation(format!("no static call({lf}, {lt}) edge")));
                }
            }
            (fk, tk) => {
                violations.push(violation(format!(
                    "impossible dependence shape {fk:?} -> {tk:?}"
                )));
            }
        }
    }

    CoverageReport {
        dynamic_edges,
        distinct_pairs: pairs.len(),
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GRAPH: &str = r#"{"schema":"alphonse-staticgraph","version":1,
        "tool":"alphonse-check 0.0.0","file":"t.alf",
        "nodes":[
            {"id":0,"kind":"loc","label":"g:base","desc":"global `base`","height":0},
            {"id":1,"kind":"loc","label":"g:log","desc":"global `log`","height":0},
            {"id":2,"kind":"proc","label":"F","incremental":"cached","height":1},
            {"id":3,"kind":"proc","label":"Top","incremental":"cached","height":2}],
        "edges":[
            {"from":"g:base","to":"F","kind":"read"},
            {"from":"F","to":"g:log","kind":"write"},
            {"from":"F","to":"Top","kind":"call"}],
        "strata":[["g:base","g:log"],["F"],["Top"]],
        "cycles":[]}"#;

    fn trace(lines: &str) -> TraceFile {
        let text = format!(
            "{}\n{}",
            r#"{"meta":{"format":"alphonse-trace","version":1,"dropped":0}}"#, lines
        );
        TraceFile::parse(&text).unwrap()
    }

    #[test]
    fn parses_nodes_and_edge_orientations() {
        let g = StaticGraphFile::parse(GRAPH).unwrap();
        assert_eq!(g.version, 1);
        assert_eq!(g.file, "t.alf");
        assert!(g.locs.contains("g:base") && g.locs.contains("g:log"));
        assert!(g.procs.contains("F") && g.procs.contains("Top"));
        assert!(g.covers_loc_edge("g:base", "F"), "read edge");
        assert!(g.covers_loc_edge("g:log", "F"), "write edge, flipped");
        assert!(!g.covers_loc_edge("g:log", "Top"));
        assert!(g.covers_call_edge("F", "Top"));
        assert!(!g.covers_call_edge("Top", "F"), "calls are directional");
    }

    #[test]
    fn rejects_foreign_and_future_documents() {
        assert!(StaticGraphFile::parse(r#"{"schema":"other","version":1}"#).is_err());
        assert!(StaticGraphFile::parse(
            r#"{"schema":"alphonse-staticgraph","version":2,"nodes":[],"edges":[]}"#
        )
        .is_err());
    }

    #[test]
    fn covered_trace_passes_and_uncovered_edge_is_reported() {
        let g = StaticGraphFile::parse(GRAPH).unwrap();
        // base → F (read), log → F (write-manifested), F → Top (call).
        let tf = trace(
            r#"{"ts":0,"ev":"NodeCreated","node":0,"kind":"Location","label":"g:base"}
{"ts":1,"ev":"NodeCreated","node":1,"kind":"Computation","label":"F"}
{"ts":2,"ev":"NodeCreated","node":2,"kind":"Computation","label":"Top"}
{"ts":3,"ev":"NodeCreated","node":3,"kind":"Location"}
{"ts":4,"ev":"Labeled","node":3,"label":"g:log"}
{"ts":5,"ev":"EdgeAdded","from":0,"to":1}
{"ts":6,"ev":"EdgeAdded","from":3,"to":1}
{"ts":7,"ev":"EdgeAdded","from":1,"to":2}
{"ts":8,"ev":"EdgeAdded","from":0,"to":1}"#,
        );
        let report = check(&tf, &g);
        assert_eq!(report.dynamic_edges, 4, "re-recorded edges counted");
        assert_eq!(report.distinct_pairs, 3);
        assert!(report.is_covered(), "{}", report.render());

        // Top reading g:base directly has no static cover.
        let bad = trace(
            r#"{"ts":0,"ev":"NodeCreated","node":0,"kind":"Location","label":"g:base"}
{"ts":1,"ev":"NodeCreated","node":1,"kind":"Computation","label":"Top"}
{"ts":2,"ev":"EdgeAdded","from":0,"to":1}"#,
        );
        let report = check(&bad, &g);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].from, "g:base");
        assert_eq!(report.violations[0].to, "Top");
    }

    #[test]
    fn unlabeled_endpoints_are_violations_not_skips() {
        let g = StaticGraphFile::parse(GRAPH).unwrap();
        let tf = trace(
            r#"{"ts":0,"ev":"NodeCreated","node":0,"kind":"Location"}
{"ts":1,"ev":"NodeCreated","node":1,"kind":"Computation","label":"F"}
{"ts":2,"ev":"EdgeAdded","from":0,"to":1}"#,
        );
        let report = check(&tf, &g);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].from, "n0");
        assert!(report.violations[0].reason.contains("never labeled"));
    }
}
