//! Property-based testing of the dependency-graph substrate against a
//! naive model.

use alphonse_graph::{DepGraph, HeightQueue, NodeId, UnionFind};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

#[derive(Debug, Clone)]
enum GraphOp {
    AddNode,
    /// Add edge between existing nodes (indices mod node count).
    AddEdge(usize, usize),
    /// Remove the pred edges of a node whose source index is a multiple
    /// of the divisor (1 removes them all).
    RetainPreds(usize, usize),
}

fn op_strategy() -> impl Strategy<Value = GraphOp> {
    prop_oneof![
        2 => Just(GraphOp::AddNode),
        4 => (any::<usize>(), any::<usize>()).prop_map(|(a, b)| GraphOp::AddEdge(a, b)),
        2 => (any::<usize>(), 1usize..4).prop_map(|(v, d)| GraphOp::RetainPreds(v, d)),
    ]
}

/// Naive reference model: multiset of edges.
#[derive(Default)]
struct Model {
    nodes: usize,
    edges: Vec<(usize, usize)>,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The intrusive edge lists agree with a simple edge-multiset model
    /// under arbitrary interleavings of insertion and partial pred-removal.
    #[test]
    fn graph_matches_model(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        let mut g = DepGraph::new();
        let mut m = Model::default();
        // Seed with one node so index arithmetic is defined.
        g.add_node();
        m.nodes = 1;
        for op in ops {
            match op {
                GraphOp::AddNode => {
                    g.add_node();
                    m.nodes += 1;
                }
                GraphOp::AddEdge(a, b) => {
                    let (a, b) = (a % m.nodes, b % m.nodes);
                    // Only add forward edges (a < b) to keep the graph
                    // acyclic, as the runtime guarantees.
                    if a < b {
                        g.add_edge(NodeId::from_index(a), NodeId::from_index(b));
                        m.edges.push((a, b));
                    }
                }
                GraphOp::RetainPreds(v, d) => {
                    let v = v % m.nodes;
                    let before = m.edges.len();
                    m.edges.retain(|&(src, dst)| dst != v || src % d != 0);
                    let removed = g.retain_preds(NodeId::from_index(v), |p| p.index() % d != 0);
                    prop_assert_eq!(removed as usize, before - m.edges.len());
                }
            }
            prop_assert_eq!(g.edge_count(), m.edges.len());
            prop_assert!(!g.cycle_suspected());
        }
        // Full adjacency audit.
        let mut model_succs: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        let mut model_preds: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for &(a, b) in &m.edges {
            model_succs.entry(a).or_default().push(b);
            model_preds.entry(b).or_default().push(a);
        }
        for i in 0..m.nodes {
            let n = NodeId::from_index(i);
            let mut got_s: Vec<usize> = g.succs(n).map(|x| x.index()).collect();
            let mut want_s = model_succs.get(&i).cloned().unwrap_or_default();
            got_s.sort_unstable();
            want_s.sort_unstable();
            prop_assert_eq!(got_s, want_s, "succs of {}", i);
            let mut got_p: Vec<usize> = g.preds(n).map(|x| x.index()).collect();
            let mut want_p = model_preds.get(&i).cloned().unwrap_or_default();
            got_p.sort_unstable();
            want_p.sort_unstable();
            prop_assert_eq!(got_p, want_p, "preds of {}", i);
        }
        // Heights respect every edge (topological consistency).
        for &(a, b) in &m.edges {
            prop_assert!(
                g.height(NodeId::from_index(a)) < g.height(NodeId::from_index(b)),
                "height({a}) must be below height({b})"
            );
        }
    }

    /// The height queue drains exactly the set of inserted nodes, in
    /// non-decreasing height order.
    #[test]
    fn height_queue_is_an_ordered_set(
        items in proptest::collection::vec((0usize..64, 0u32..16), 1..60)
    ) {
        let mut g = DepGraph::new();
        for _ in 0..64 {
            g.add_node();
        }
        let mut q = HeightQueue::new();
        let mut expected = BTreeSet::new();
        let mut height_of = BTreeMap::new();
        for (n, h) in items {
            // The caller keeps set semantics: a queued node is not
            // inserted again.
            if expected.insert(n) {
                q.insert(NodeId::from_index(n), h);
                height_of.insert(n, h);
            }
        }
        prop_assert_eq!(q.len(), expected.len());
        let mut drained = Vec::new();
        let mut last_h = 0;
        while let Some(n) = q.pop() {
            let h = height_of[&n.index()];
            prop_assert!(h >= last_h, "heights must be non-decreasing");
            last_h = h;
            drained.push(n.index());
        }
        let drained_set: BTreeSet<usize> = drained.iter().copied().collect();
        prop_assert_eq!(drained_set, expected);
    }

    /// Union-find partitions match a naive connected-components model.
    #[test]
    fn union_find_matches_components(
        unions in proptest::collection::vec((0usize..40, 0usize..40), 0..60)
    ) {
        let mut g = DepGraph::new();
        let nodes: Vec<NodeId> = (0..40).map(|_| g.add_node()).collect();
        let mut uf = UnionFind::new();
        for &n in &nodes {
            uf.ensure(n);
        }
        // Naive model: component label per node.
        let mut label: Vec<usize> = (0..40).collect();
        for (a, b) in unions {
            uf.union(nodes[a], nodes[b]);
            let (la, lb) = (label[a], label[b]);
            if la != lb {
                for l in label.iter_mut() {
                    if *l == lb {
                        *l = la;
                    }
                }
            }
        }
        for i in 0..40 {
            for j in 0..40 {
                let same_model = label[i] == label[j];
                let same_uf = uf.find(nodes[i]) == uf.find(nodes[j]);
                prop_assert_eq!(same_model, same_uf, "nodes {} and {}", i, j);
            }
        }
    }
}
