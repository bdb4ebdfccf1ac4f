//! A live causal index over the trace stream: *why did this node recompute?*
//!
//! [`Provenance`] is a [`TraceSink`] that keeps, per node, the most recent
//! dirtying (with its [`DirtyReason`], causal predecessor, and propagation
//! wave), the most recent write, and the most recent execution. From those
//! it reconstructs the causal chain the paper's Section 4.5 marking rule
//! produced: the input write, the fan-out path the dirt travelled, and the
//! re-execution (or its absence — a cutoff) at the queried node.
//!
//! The index is O(nodes) in memory and O(1) per event, so it can stay
//! attached for a whole program run — the lang interpreter tees it next to
//! whatever sink the user asked for and quotes [`Provenance::why_report`] in
//! runtime error messages. The `alphonse-trace` CLI replays a JSONL file
//! into the same index for offline `why` queries.

use super::{lock, DirtyReason, Labels, TraceEvent, TraceSink};
use alphonse_graph::NodeId;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

#[derive(Clone, Copy)]
struct DirtyRecord {
    seq: u64,
    wave: Option<u64>,
    reason: DirtyReason,
    cause: Option<NodeId>,
}

#[derive(Clone, Copy)]
struct WriteRecord {
    changed: bool,
}

#[derive(Clone, Copy)]
struct ExecRecord {
    seq: u64,
    changed: bool,
}

#[derive(Default, Clone, Copy)]
struct NodeProv {
    dirtied: Option<DirtyRecord>,
    write: Option<WriteRecord>,
    exec: Option<ExecRecord>,
}

/// One hop of a [`WhyChain`]: a node being dirtied, and by whom.
#[derive(Debug, Clone, PartialEq)]
pub struct WhyStep {
    /// The dirtied node.
    pub node: NodeId,
    /// Its label, when known.
    pub label: Option<String>,
    /// Why it entered the inconsistent set.
    pub reason: DirtyReason,
    /// The predecessor that fanned dirt here (`None` at the origin).
    pub cause: Option<NodeId>,
}

/// The causal answer to `why(node)`: origin-first dirtying chain, the
/// originating write (when the chain roots in one), and the node's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct WhyChain {
    /// The queried node.
    pub node: NodeId,
    /// The propagation wave the node was dirtied in (`None` when it was
    /// dirtied outside any wave — e.g. the seed write itself).
    pub wave: Option<u64>,
    /// The write that originated the chain: `(location, changed)`.
    pub write: Option<(NodeId, bool)>,
    /// Dirtying hops, origin first, ending at [`WhyChain::node`].
    pub steps: Vec<WhyStep>,
    /// `Some(changed)` when the node re-executed after this dirtying;
    /// `None` when it has not (yet) re-executed — for a computation that
    /// usually means a cutoff upstream spared it.
    pub exec: Option<bool>,
}

/// Live causal index; see the [module docs](self).
#[derive(Default)]
pub struct Provenance {
    labels: Labels,
    per_node: Mutex<Vec<NodeProv>>,
    seq: AtomicU64,
    wave: Mutex<Option<u64>>,
}

impl Provenance {
    /// Creates an empty index.
    pub fn new() -> Provenance {
        Provenance::default()
    }

    fn slot(&self, n: NodeId) -> MutexGuard<'_, Vec<NodeProv>> {
        let mut per = lock(&self.per_node);
        if per.len() <= n.index() {
            per.resize(n.index() + 1, NodeProv::default());
        }
        per
    }

    fn get(&self, n: NodeId) -> NodeProv {
        lock(&self.per_node)
            .get(n.index())
            .copied()
            .unwrap_or_default()
    }

    /// The label of `n`, when the stream carried one.
    pub fn label(&self, n: NodeId) -> Option<String> {
        self.labels.raw(n)
    }

    /// Label plus id, e.g. `top (n1)`, or just `n1` when unlabeled.
    pub fn display(&self, n: NodeId) -> String {
        match self.labels.raw(n) {
            Some(name) => format!("{name} ({n})"),
            None => n.to_string(),
        }
    }

    /// The most recently created node carrying `label` (instances shadow
    /// older runtimes' nodes when several share the sink).
    pub fn node_by_label(&self, label: &str) -> Option<NodeId> {
        let names = lock(&self.labels.names);
        names
            .iter()
            .enumerate()
            .rev()
            .find(|(_, l)| l.as_deref() == Some(label))
            .map(|(i, _)| NodeId::from_index(i))
    }

    /// The causal chain that last dirtied `n`, or `None` if `n` was never
    /// observed being dirtied.
    ///
    /// Walks the per-node `cause` links backwards from `n` to the origin
    /// (cycle-guarded; each node contributes its *most recent* dirtying,
    /// which is the one that fed `n`'s wave in a quiesced run), then reports
    /// the chain origin-first. When the origin's reason is
    /// [`DirtyReason::WriteChanged`], the originating write is attached.
    pub fn why(&self, n: NodeId) -> Option<WhyChain> {
        let target = self.get(n);
        let head = target.dirtied?;
        let mut rev: Vec<WhyStep> = Vec::new();
        let mut visited: Vec<NodeId> = Vec::new();
        let mut cur = n;
        let mut rec = head;
        loop {
            visited.push(cur);
            rev.push(WhyStep {
                node: cur,
                label: self.labels.raw(cur),
                reason: rec.reason,
                cause: rec.cause,
            });
            let Some(c) = rec.cause else { break };
            if visited.contains(&c) {
                break; // defensive: causal links never cycle in a real trace
            }
            let Some(prev) = self.get(c).dirtied else {
                break;
            };
            cur = c;
            rec = prev;
        }
        rev.reverse();
        let origin = &rev[0];
        let write = match origin.reason {
            DirtyReason::WriteChanged => self
                .get(origin.node)
                .write
                .map(|w| (origin.node, w.changed)),
            _ => None,
        };
        let exec = target.exec.filter(|e| e.seq > head.seq).map(|e| e.changed);
        Some(WhyChain {
            node: n,
            wave: head.wave,
            write,
            steps: rev,
            exec,
        })
    }

    /// [`Provenance::why`] rendered as a deterministic multi-line report
    /// (no timestamps, so it is golden-testable):
    ///
    /// ```text
    /// why top (n1): wave 1
    ///   write a (n0) changed=true
    ///   -> dirtied a (n0) [WriteChanged]
    ///   -> dirtied right (n3) [Fanout <- a (n0)]
    ///   -> dirtied top (n1) [Fanout <- right (n3)]
    ///   -> executed top (n1) changed=true
    /// ```
    pub fn why_report(&self, n: NodeId) -> Option<String> {
        let chain = self.why(n)?;
        let mut out = String::new();
        let _ = write!(out, "why {}", self.display(n));
        match chain.wave {
            Some(w) => {
                let _ = writeln!(out, ": wave {w}");
            }
            None => {
                let _ = writeln!(out, ": outside any wave");
            }
        }
        if let Some((loc, changed)) = chain.write {
            let _ = writeln!(out, "  write {} changed={changed}", self.display(loc));
        }
        for step in &chain.steps {
            match step.cause {
                Some(c) => {
                    let _ = writeln!(
                        out,
                        "  -> dirtied {} [{:?} <- {}]",
                        self.display(step.node),
                        step.reason,
                        self.display(c)
                    );
                }
                None => {
                    let _ = writeln!(
                        out,
                        "  -> dirtied {} [{:?}]",
                        self.display(step.node),
                        step.reason
                    );
                }
            }
        }
        match chain.exec {
            Some(changed) => {
                let _ = writeln!(out, "  -> executed {} changed={changed}", self.display(n));
            }
            None => {
                let _ = writeln!(out, "  (no re-execution after this dirtying)");
            }
        }
        Some(out)
    }

    /// The causal chain as a Graphviz DOT digraph (origin at the left).
    pub fn why_dot(&self, n: NodeId) -> Option<String> {
        let chain = self.why(n)?;
        let mut out = String::new();
        out.push_str("digraph why {\n  rankdir=LR;\n");
        out.push_str("  node [fontname=\"Helvetica\" fontsize=10];\n");
        if let Some((loc, changed)) = chain.write {
            let _ = writeln!(
                out,
                "  w [label=\"write {}\\nchanged={changed}\" shape=note style=filled fillcolor=khaki];",
                self.display(loc).replace('"', "'")
            );
            let _ = writeln!(out, "  w -> {};", chain.steps[0].node);
        }
        for step in &chain.steps {
            let mut label = self.display(step.node).replace('"', "'");
            let _ = write!(label, "\\n{:?}", step.reason);
            let shape = if step.node == n {
                "doubleoctagon"
            } else {
                "ellipse"
            };
            let _ = writeln!(out, "  {} [label=\"{label}\" shape={shape}];", step.node);
        }
        for pair in chain.steps.windows(2) {
            let _ = writeln!(out, "  {} -> {};", pair[0].node, pair[1].node);
        }
        if let Some(changed) = chain.exec {
            let _ = writeln!(
                out,
                "  x [label=\"executed\\nchanged={changed}\" shape=note style=filled fillcolor=palegreen];"
            );
            let _ = writeln!(out, "  {n} -> x;");
        }
        out.push_str("}\n");
        Some(out)
    }
}

impl TraceSink for Provenance {
    fn event(&self, ev: &TraceEvent) {
        self.labels.observe(ev);
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        match ev {
            TraceEvent::Dirtied {
                node,
                reason,
                cause,
            } => {
                let wave = *lock(&self.wave);
                self.slot(*node)[node.index()].dirtied = Some(DirtyRecord {
                    seq,
                    wave,
                    reason: *reason,
                    cause: *cause,
                });
            }
            TraceEvent::Write { node, changed } => {
                self.slot(*node)[node.index()].write = Some(WriteRecord { changed: *changed });
            }
            TraceEvent::ExecuteEnd { node, changed } => {
                self.slot(*node)[node.index()].exec = Some(ExecRecord {
                    seq,
                    changed: *changed,
                });
            }
            TraceEvent::PropagateBegin { wave } => *lock(&self.wave) = Some(*wave),
            TraceEvent::PropagateEnd { .. } => *lock(&self.wave) = None,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Runtime, Strategy};
    use std::sync::Arc;

    /// The canonical diamond from `tests/trace_events.rs`: `a` feeds
    /// `left = a/100` (cutoff arm) and `right = a*2`, which feed `top`.
    fn traced_diamond() -> (Arc<Provenance>, [NodeId; 4]) {
        let rt = Runtime::new();
        let prov = Arc::new(Provenance::new());
        rt.set_sink(Some(prov.clone()));
        let a = rt.var_named("a", 10i64);
        let left = rt.memo_with("left", Strategy::Eager, move |rt, &(): &()| a.get(rt) / 100);
        let right = rt.memo_with("right", Strategy::Eager, move |rt, &(): &()| a.get(rt) * 2);
        let (l, r) = (left.clone(), right.clone());
        let top = rt.memo_with("top", Strategy::Eager, move |rt, &(): &()| {
            l.call(rt, ()) + r.call(rt, ())
        });
        assert_eq!(top.call(&rt, ()), 20);
        let nodes = [
            a.node(),
            top.instance_node(&()).unwrap(),
            left.instance_node(&()).unwrap(),
            right.instance_node(&()).unwrap(),
        ];
        a.set(&rt, 20);
        rt.propagate();
        rt.set_sink(None);
        (prov, nodes)
    }

    #[test]
    fn why_reconstructs_write_fanout_execute_chain() {
        let (prov, [na, ntop, _nleft, nright]) = traced_diamond();
        let chain = prov.why(ntop).expect("top was dirtied");
        assert_eq!(chain.write, Some((na, true)));
        assert_eq!(chain.wave, Some(1));
        assert_eq!(chain.exec, Some(true));
        let path: Vec<NodeId> = chain.steps.iter().map(|s| s.node).collect();
        assert_eq!(path, vec![na, nright, ntop]);
        assert_eq!(chain.steps[0].reason, DirtyReason::WriteChanged);
        assert_eq!(chain.steps[1].cause, Some(na));
        assert_eq!(chain.steps[2].cause, Some(nright));
    }

    #[test]
    fn why_report_matches_golden() {
        let (prov, [_, ntop, _, _]) = traced_diamond();
        let report = prov.why_report(ntop).unwrap();
        let golden = "\
why top (n1): wave 1
  write a (n0) changed=true
  -> dirtied a (n0) [WriteChanged]
  -> dirtied right (n3) [Fanout <- a (n0)]
  -> dirtied top (n1) [Fanout <- right (n3)]
  -> executed top (n1) changed=true
";
        assert_eq!(report, golden, "why report diverged:\n{report}");
    }

    #[test]
    fn cutoff_arm_shows_no_downstream_execution_of_unaffected_chain() {
        let (prov, [na, _, nleft, _]) = traced_diamond();
        let chain = prov.why(nleft).expect("left was dirtied");
        // left did re-execute (to discover the cutoff) but did not change.
        assert_eq!(chain.exec, Some(false));
        assert_eq!(chain.steps.last().unwrap().cause, Some(na));
    }

    #[test]
    fn node_by_label_resolves_latest_instance() {
        let (prov, [na, ntop, ..]) = traced_diamond();
        assert_eq!(prov.node_by_label("a"), Some(na));
        assert_eq!(prov.node_by_label("top"), Some(ntop));
        assert_eq!(prov.node_by_label("nope"), None);
    }

    #[test]
    fn why_dot_mentions_every_hop() {
        let (prov, [_, ntop, _, _]) = traced_diamond();
        let dot = prov.why_dot(ntop).unwrap();
        assert!(dot.contains("digraph why"));
        assert!(dot.contains("write a (n0)"), "{dot}");
        assert!(dot.contains("doubleoctagon"), "{dot}");
        assert!(dot.contains("executed"), "{dot}");
    }

    #[test]
    fn why_is_none_for_never_dirtied_nodes() {
        let prov = Provenance::new();
        assert!(prov.why(NodeId::from_index(0)).is_none());
        assert!(prov.why_report(NodeId::from_index(5)).is_none());
    }
}
