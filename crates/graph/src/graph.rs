//! The dependency graph arena.

use alphonse_mem as mem;
use std::fmt;

/// Identifies a node of a [`DepGraph`].
///
/// Node ids are small dense indices; they are never reused within one graph.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Returns the dense index of this node, suitable for indexing
    /// caller-side side tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a node id back from an index produced by [`NodeId::index`].
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in 32 bits.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index exceeds u32"))
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Sentinel index meaning "no edge".
const NIL: u32 = u32::MAX;

/// One bidirectional dependency edge `src -> dst` ("dst depends on src").
///
/// Edges live simultaneously on two intrusive lists: the doubly-linked
/// successor (out) list of `src` and the singly-linked predecessor (in)
/// list of `dst`. The out list is the Rust equivalent of the paper's
/// "doubly linked list of bidirectional edges" (Section 9.2): an edge
/// leaves it in O(1) from anywhere. The in list needs no back link,
/// because an edge only ever leaves it during a walk of that same list
/// ([`DepGraph::retain_preds`]), which carries the predecessor along.
#[derive(Clone, Copy)]
struct Edge {
    src: u32,
    dst: u32,
    prev_out: u32,
    next_out: u32,
    next_in: u32,
}

#[derive(Clone, Copy)]
struct NodeRec {
    first_out: u32,
    first_in: u32,
    /// Longest-path height from source nodes; used as evaluation priority.
    height: u32,
}

/// A directed dependency graph with O(1) edge removal and online
/// longest-path heights.
///
/// An edge `u -> v` states that the value represented by `v` was computed
/// from the value represented by `u`: change to `u` must be propagated to
/// `v`. The graph itself is policy-free; the Alphonse runtime decides what
/// nodes mean (storage locations vs. incremental procedure instances).
///
/// # Example
///
/// ```
/// use alphonse_graph::DepGraph;
/// let mut g = DepGraph::new();
/// let (a, b, c) = (g.add_node(), g.add_node(), g.add_node());
/// g.add_edge(a, b);
/// g.add_edge(b, c);
/// assert_eq!(g.preds(c).collect::<Vec<_>>(), vec![b]);
/// g.retain_preds(c, |_| false);
/// assert_eq!(g.preds(c).count(), 0);
/// assert_eq!(g.succs(b).count(), 0);
/// ```
pub struct DepGraph {
    nodes: Vec<NodeRec>,
    edges: Vec<Edge>,
    /// Head of the free list threaded through `edges[i].next_out`.
    free_edge: u32,
    edges_live: usize,
    /// Set when height propagation exceeds its budget, which can only
    /// happen if the dependency relation is cyclic (a violation of the
    /// paper's DET/termination assumptions).
    cycle_suspected: bool,
    /// Scratch work-list reused by height propagation.
    scratch: Vec<u32>,
}

impl fmt::Debug for DepGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DepGraph")
            .field("nodes", &self.nodes.len())
            .field("edges", &self.edges_live)
            .finish()
    }
}

impl Default for DepGraph {
    fn default() -> Self {
        DepGraph {
            nodes: Vec::new(),
            edges: Vec::new(),
            free_edge: NIL,
            edges_live: 0,
            cycle_suspected: false,
            scratch: Vec::new(),
        }
    }
}

impl DepGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a fresh node with no edges and height 0.
    pub fn add_node(&mut self) -> NodeId {
        let _mem = mem::scope(mem::Tag::GraphCore);
        let id = u32::try_from(self.nodes.len()).expect("too many graph nodes");
        self.nodes.push(NodeRec {
            first_out: NIL,
            first_in: NIL,
            height: 0,
        });
        NodeId(id)
    }

    /// Number of nodes ever created.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of live (not removed) edges.
    pub fn edge_count(&self) -> usize {
        self.edges_live
    }

    /// Evaluation priority of `n`: the length of the longest known
    /// dependency path ending at `n`.
    pub fn height(&self, n: NodeId) -> u32 {
        self.nodes[n.index()].height
    }

    /// Lifts `n`'s height to at least `h`, returning `true` if it rose.
    ///
    /// This seeds a *fresh* node with a statically computed stratum so the
    /// online raise step has nothing left to do when its dependence edges
    /// arrive. It performs no forward propagation, so the caller must only
    /// use it on nodes that have no successors yet — lifting a node other
    /// nodes already depend on would break the height invariant.
    pub fn set_min_height(&mut self, n: NodeId, h: u32) -> bool {
        debug_assert!(
            self.nodes[n.index()].first_out == NIL,
            "set_min_height on a node with successors"
        );
        let rec = &mut self.nodes[n.index()];
        if rec.height >= h {
            return false;
        }
        rec.height = h;
        true
    }

    /// Returns `true` if height propagation ever blew its budget, which
    /// indicates a dependency cycle (illegal per the paper's DET
    /// restriction, Section 3.5).
    pub fn cycle_suspected(&self) -> bool {
        self.cycle_suspected
    }

    fn alloc_edge(&mut self, e: Edge) -> u32 {
        self.edges_live += 1;
        if self.free_edge != NIL {
            let id = self.free_edge;
            self.free_edge = self.edges[id as usize].next_out;
            self.edges[id as usize] = e;
            id
        } else {
            let _mem = mem::scope(mem::Tag::GraphCore);
            let id = u32::try_from(self.edges.len()).expect("too many graph edges");
            self.edges.push(e);
            id
        }
    }

    /// Adds the dependency edge `u -> v` ("v depends on u") and raises `v`'s
    /// height above `u`'s if needed, propagating to `v`'s transitive
    /// successors. Returns the number of height raises that took (each
    /// node whose height rose counts once per rise); static height seeding
    /// ([`DepGraph::set_min_height`]) exists to shrink this number.
    ///
    /// Duplicate edges are permitted (the runtime deduplicates per
    /// execution); each call creates a distinct edge record.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> u64 {
        let e = self.alloc_edge(Edge {
            src: u.0,
            dst: v.0,
            prev_out: NIL,
            next_out: self.nodes[u.index()].first_out,
            next_in: self.nodes[v.index()].first_in,
        });
        let old_out = self.nodes[u.index()].first_out;
        if old_out != NIL {
            self.edges[old_out as usize].prev_out = e;
        }
        self.nodes[u.index()].first_out = e;
        self.nodes[v.index()].first_in = e;
        self.raise_height(u, v)
    }

    /// Ensures `height(v) > height(u)`, propagating increases forward.
    /// Returns the number of raises.
    fn raise_height(&mut self, u: NodeId, v: NodeId) -> u64 {
        let hu = self.nodes[u.index()].height;
        if self.nodes[v.index()].height > hu {
            return 0;
        }
        // Budget: in a DAG a single edge insertion can raise each node's
        // height at most once per level; a generous budget distinguishes
        // legal propagation from a cycle-induced infinite loop.
        let budget = (self.nodes.len() as u64 + 8) * 4;
        let mut steps = 0u64;
        let _mem = mem::scope(mem::Tag::GraphCore);
        let mut work = std::mem::take(&mut self.scratch);
        work.clear();
        self.nodes[v.index()].height = hu + 1;
        let mut raises = 1;
        work.push(v.0);
        while let Some(x) = work.pop() {
            steps += 1;
            if steps > budget {
                self.cycle_suspected = true;
                break;
            }
            let hx = self.nodes[x as usize].height;
            let mut e = self.nodes[x as usize].first_out;
            while e != NIL {
                let edge = self.edges[e as usize];
                if self.nodes[edge.dst as usize].height <= hx {
                    self.nodes[edge.dst as usize].height = hx + 1;
                    raises += 1;
                    work.push(edge.dst);
                }
                e = edge.next_out;
            }
        }
        self.scratch = work;
        raises
    }

    /// Unlinks edge `e` from its source's out list and frees its slot. The
    /// caller has already spliced it out of its target's in list.
    fn unlink_out(&mut self, e: u32) {
        let edge = self.edges[e as usize];
        if edge.prev_out != NIL {
            self.edges[edge.prev_out as usize].next_out = edge.next_out;
        } else {
            self.nodes[edge.src as usize].first_out = edge.next_out;
        }
        if edge.next_out != NIL {
            self.edges[edge.next_out as usize].prev_out = edge.prev_out;
        }
        // Return to free list.
        self.edges[e as usize].next_out = self.free_edge;
        self.free_edge = e;
        self.edges_live -= 1;
    }

    /// Walks the incoming edges of `v` once and removes each edge whose
    /// source `keep` rejects, leaving the others in place — how a
    /// re-executed incremental procedure's retained dependencies are
    /// reconciled with what its latest execution read (the runtime's
    /// form of Algorithm 5's `RemovePredEdges`). `keep` sees every
    /// predecessor once per edge, in in-list order. Returns the number of
    /// edges removed.
    ///
    /// Cost is O(1) per visited edge.
    pub fn retain_preds(&mut self, v: NodeId, mut keep: impl FnMut(NodeId) -> bool) -> u64 {
        let mut removed = 0;
        let mut prev = NIL;
        let mut e = self.nodes[v.index()].first_in;
        while e != NIL {
            let edge = self.edges[e as usize];
            if keep(NodeId(edge.src)) {
                prev = e;
            } else {
                if prev == NIL {
                    self.nodes[v.index()].first_in = edge.next_in;
                } else {
                    self.edges[prev as usize].next_in = edge.next_in;
                }
                self.unlink_out(e);
                removed += 1;
            }
            e = edge.next_in;
        }
        removed
    }

    /// Returns `true` if `u` has at least one successor (some node depends
    /// on it).
    pub fn has_succs(&self, u: NodeId) -> bool {
        self.nodes[u.index()].first_out != NIL
    }

    /// Iterates over the successors of `u` (nodes depending on `u`),
    /// including duplicates if parallel edges exist.
    pub fn succs(&self, u: NodeId) -> Succs<'_> {
        Succs {
            graph: self,
            edge: self.nodes[u.index()].first_out,
        }
    }

    /// Iterates over the predecessors of `v` (nodes `v` depends on),
    /// including duplicates if parallel edges exist.
    pub fn preds(&self, v: NodeId) -> Preds<'_> {
        Preds {
            graph: self,
            edge: self.nodes[v.index()].first_in,
        }
    }

    /// Clears `out` and fills it with the successors of `u` (duplicates
    /// included) — the fan-out primitive of the propagation drain loop,
    /// for callers that must release a borrow of the graph before acting
    /// on the successors. Reusing one caller-owned buffer across calls
    /// makes the steady-state fan-out allocation-free: once the buffer's
    /// capacity covers the widest fan-out seen, no further heap traffic
    /// occurs.
    #[inline]
    pub fn succs_into(&self, u: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend(self.succs(u));
    }
}

/// Iterator over successor nodes, created by [`DepGraph::succs`].
pub struct Succs<'g> {
    graph: &'g DepGraph,
    edge: u32,
}

impl Iterator for Succs<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if self.edge == NIL {
            return None;
        }
        let e = self.graph.edges[self.edge as usize];
        self.edge = e.next_out;
        Some(NodeId(e.dst))
    }
}

/// Iterator over predecessor nodes, created by [`DepGraph::preds`].
pub struct Preds<'g> {
    graph: &'g DepGraph,
    edge: u32,
}

impl Iterator for Preds<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if self.edge == NIL {
            return None;
        }
        let e = self.graph.edges[self.edge as usize];
        self.edge = e.next_in;
        Some(NodeId(e.src))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = DepGraph::new();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert!(!g.cycle_suspected());
    }

    #[test]
    fn add_nodes_and_edges() {
        let mut g = DepGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        g.add_edge(a, b);
        g.add_edge(a, c);
        g.add_edge(b, c);
        assert_eq!(g.edge_count(), 3);
        let mut s: Vec<_> = g.succs(a).collect();
        s.sort();
        assert_eq!(s, vec![b, c]);
        let mut p: Vec<_> = g.preds(c).collect();
        p.sort();
        assert_eq!(p, vec![a, b]);
    }

    #[test]
    fn heights_follow_longest_path() {
        let mut g = DepGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        let d = g.add_node();
        g.add_edge(a, b);
        g.add_edge(b, c);
        g.add_edge(a, d);
        g.add_edge(d, c); // c: max(a->b->c, a->d->c) = 2
        assert_eq!(g.height(a), 0);
        assert_eq!(g.height(b), 1);
        assert_eq!(g.height(d), 1);
        assert_eq!(g.height(c), 2);
    }

    #[test]
    fn height_raises_propagate_through_chain() {
        let mut g = DepGraph::new();
        let chain: Vec<_> = (0..5).map(|_| g.add_node()).collect();
        for w in chain.windows(2) {
            g.add_edge(w[0], w[1]);
        }
        // New deep predecessor of the chain head raises the whole chain.
        let deep: Vec<_> = (0..4).map(|_| g.add_node()).collect();
        for w in deep.windows(2) {
            g.add_edge(w[0], w[1]);
        }
        assert_eq!(g.add_edge(deep[3], chain[0]), 5, "one raise per chain node");
        assert_eq!(g.height(chain[0]), 4);
        assert_eq!(g.height(chain[4]), 8);
        assert!(!g.cycle_suspected());
    }

    #[test]
    fn retain_preds_rejecting_all_clears_both_directions() {
        let mut g = DepGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        g.add_edge(a, c);
        g.add_edge(b, c);
        g.add_edge(a, b);
        assert_eq!(g.retain_preds(c, |_| false), 2);
        assert_eq!(g.preds(c).count(), 0);
        assert_eq!(g.succs(a).collect::<Vec<_>>(), vec![b]);
        assert_eq!(g.succs(b).count(), 0);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn edge_slots_are_reused_after_removal() {
        let mut g = DepGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        for _ in 0..10 {
            g.add_edge(a, b);
            g.retain_preds(b, |_| false);
        }
        assert_eq!(g.edges.len(), 1, "freelist should recycle the single slot");
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn parallel_edges_are_allowed() {
        let mut g = DepGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(a, b);
        g.add_edge(a, b);
        assert_eq!(g.succs(a).count(), 2);
        g.retain_preds(b, |_| false);
        assert_eq!(g.succs(a).count(), 0);
    }

    #[test]
    fn cycle_is_detected_by_height_budget() {
        let mut g = DepGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(a, b);
        g.add_edge(b, a);
        assert!(g.cycle_suspected());
    }

    #[test]
    fn succs_into_reuses_buffer_capacity() {
        let mut g = DepGraph::new();
        let a = g.add_node();
        let targets: Vec<_> = (0..8).map(|_| g.add_node()).collect();
        for &t in &targets {
            g.add_edge(a, t);
        }
        let mut buf = Vec::new();
        g.succs_into(a, &mut buf);
        assert_eq!(buf.len(), 8);
        let cap = buf.capacity();
        g.succs_into(a, &mut buf);
        assert_eq!(buf.len(), 8);
        assert_eq!(buf.capacity(), cap, "refill must not reallocate");
        g.succs_into(targets[0], &mut buf);
        assert!(buf.is_empty(), "clears stale contents for leaf nodes");
    }

    #[test]
    fn node_id_round_trips_through_index() {
        let mut g = DepGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        assert_eq!(NodeId::from_index(a.index()), a);
        assert_eq!(NodeId::from_index(b.index()), b);
        assert_ne!(a, b);
    }

    #[test]
    fn debug_formats_are_nonempty() {
        let mut g = DepGraph::new();
        let a = g.add_node();
        assert_eq!(format!("{a:?}"), "n0");
        assert!(format!("{g:?}").contains("DepGraph"));
    }

    #[test]
    fn seeded_heights_preempt_online_raises() {
        // Unseeded: building loc -> a -> b raises a once and b twice
        // (b first rises above a at height 1, then again when a rises).
        let mut g = DepGraph::new();
        let (loc, a, b) = (g.add_node(), g.add_node(), g.add_node());
        assert_eq!(g.add_edge(a, b), 1);
        assert_eq!(g.add_edge(loc, a), 2);

        // Seeded at their static strata, the same insertion order does no
        // raise work at all.
        let mut g = DepGraph::new();
        let (loc, a, b) = (g.add_node(), g.add_node(), g.add_node());
        assert!(g.set_min_height(a, 1));
        assert!(g.set_min_height(b, 2));
        assert!(!g.set_min_height(b, 2), "second lift is a no-op");
        assert_eq!(g.add_edge(a, b), 0);
        assert_eq!(g.add_edge(loc, a), 0);
        assert_eq!(g.height(b), 2);
        assert_eq!(g.height(loc), 0);
    }

    #[test]
    fn remove_middle_edge_keeps_lists_consistent() {
        // Exercise unlink of an edge that is in the middle of both lists.
        let mut g = DepGraph::new();
        let s1 = g.add_node();
        let s2 = g.add_node();
        let s3 = g.add_node();
        let t = g.add_node();
        g.add_edge(s1, t);
        g.add_edge(s2, t);
        g.add_edge(s3, t);
        // t's in-list: s3, s2, s1 (head insertion). Remove all; then rebuild.
        g.retain_preds(t, |_| false);
        g.add_edge(s2, t);
        assert_eq!(g.preds(t).collect::<Vec<_>>(), vec![s2]);
        assert_eq!(g.succs(s1).count(), 0);
        assert_eq!(g.succs(s3).count(), 0);
    }

    #[test]
    fn retain_preds_removes_only_rejected_edges() {
        // Rejecting the middle, head and tail of an in-list in turn keeps
        // both lists of every survivor intact.
        let mut g = DepGraph::new();
        let s: Vec<_> = (0..4).map(|_| g.add_node()).collect();
        let t = g.add_node();
        for &x in &s {
            g.add_edge(x, t);
            g.add_edge(x, s[0]); // a second out edge on every source
        }
        // t's in-list: s3, s2, s1, s0 (head insertion).
        let mut seen = Vec::new();
        let removed = g.retain_preds(t, |p| {
            seen.push(p);
            p != s[2]
        });
        assert_eq!(removed, 1);
        assert_eq!(seen, vec![s[3], s[2], s[1], s[0]]);
        assert_eq!(g.preds(t).collect::<Vec<_>>(), vec![s[3], s[1], s[0]]);
        assert_eq!(g.succs(s[2]).collect::<Vec<_>>(), vec![s[0]]);
        g.retain_preds(t, |p| p != s[3] && p != s[0]);
        assert_eq!(g.preds(t).collect::<Vec<_>>(), vec![s[1]]);
        assert_eq!(g.succs(s[3]).collect::<Vec<_>>(), vec![s[0]]);
        assert_eq!(g.succs(s[1]).count(), 2);
        assert_eq!(g.edge_count(), 5);
        g.add_edge(s[2], t);
        assert_eq!(g.preds(t).collect::<Vec<_>>(), vec![s[2], s[1]]);
    }

    #[test]
    fn edges_are_twenty_bytes() {
        assert_eq!(std::mem::size_of::<Edge>(), 20);
    }
}
