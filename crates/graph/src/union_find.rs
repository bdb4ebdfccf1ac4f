//! Disjoint-set forest used for dynamic dependency-graph partitioning.

use crate::NodeId;

/// Union-find with union by size and path halving.
///
/// Section 6.3 of the paper refines static graph partitioning with a dynamic
/// analysis: "we keep disjoint sets of unconnected nodes using the
/// union/find algorithm. New dependency graph nodes are placed in their own
/// unique set. Upon adding an edge from x to y, we perform a union between
/// the sets that contain x and y." Each resulting component carries its own
/// inconsistent set, so a demand for a value in one component is never
/// blocked on changes pending in another. Section 9.2 notes the cost: the
/// translation bound becomes O(T · α(M)) where α is the inverse Ackermann
/// function.
///
/// # Example
///
/// ```
/// use alphonse_graph::{DepGraph, UnionFind};
/// let mut g = DepGraph::new();
/// let a = g.add_node();
/// let b = g.add_node();
/// let c = g.add_node();
/// let mut uf = UnionFind::new();
/// for n in [a, b, c] { uf.ensure(n); }
/// assert_ne!(uf.find(a), uf.find(b));
/// uf.union(a, b);
/// assert_eq!(uf.find(a), uf.find(b));
/// assert_ne!(uf.find(a), uf.find(c));
/// ```
#[derive(Debug, Default)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    /// Creates an empty forest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Makes sure `n` has a singleton set (no-op if already present).
    pub fn ensure(&mut self, n: NodeId) {
        let i = n.index();
        while self.parent.len() <= i {
            let next = u32::try_from(self.parent.len()).expect("too many nodes");
            self.parent.push(next);
            self.size.push(1);
        }
    }

    /// Returns the canonical representative of `n`'s component.
    ///
    /// # Panics
    ///
    /// Panics if `n` was never passed to [`UnionFind::ensure`].
    pub fn find(&mut self, n: NodeId) -> NodeId {
        let mut x = n.index();
        assert!(x < self.parent.len(), "find on unknown node {n:?}");
        while self.parent[x] as usize != x {
            let gp = self.parent[self.parent[x] as usize];
            self.parent[x] = gp; // path halving
            x = gp as usize;
        }
        NodeId::from_index(x)
    }

    /// Whether `a` and `b` are in one component. Unlike [`UnionFind::find`]
    /// it compresses no path, so it reads the forest through a shared
    /// reference.
    ///
    /// # Panics
    ///
    /// Panics if either node was never passed to [`UnionFind::ensure`].
    pub fn same_set(&self, a: NodeId, b: NodeId) -> bool {
        let root = |n: NodeId| {
            let mut x = n.index();
            assert!(x < self.parent.len(), "same_set on unknown node {n:?}");
            while self.parent[x] as usize != x {
                x = self.parent[x] as usize;
            }
            x
        };
        root(a) == root(b)
    }

    /// Merges the components of `a` and `b`.
    ///
    /// Returns `Some((winner, loser))` — the surviving root and the root
    /// absorbed into it — so callers can merge per-component auxiliary data
    /// (e.g. inconsistent sets). Returns `None` if they were already in the
    /// same component.
    pub fn union(&mut self, a: NodeId, b: NodeId) -> Option<(NodeId, NodeId)> {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return None;
        }
        let (win, lose) = if self.size[ra.index()] >= self.size[rb.index()] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lose.index()] = u32::try_from(win.index()).expect("node index exceeds u32");
        self.size[win.index()] += self.size[lose.index()];
        Some((win, lose))
    }

    /// Size of the component containing `n`.
    pub fn component_size(&mut self, n: NodeId) -> usize {
        let r = self.find(n);
        self.size[r.index()] as usize
    }

    /// Number of nodes known to the forest.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Returns `true` if the forest has no nodes.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DepGraph;

    fn nodes(n: usize) -> Vec<NodeId> {
        let mut g = DepGraph::new();
        (0..n).map(|_| g.add_node()).collect()
    }

    #[test]
    fn singletons_start_separate() {
        let ns = nodes(3);
        let mut uf = UnionFind::new();
        for &n in &ns {
            uf.ensure(n);
        }
        assert_ne!(uf.find(ns[0]), uf.find(ns[1]));
        assert_eq!(uf.component_size(ns[0]), 1);
    }

    #[test]
    fn union_merges_and_reports_roots() {
        let ns = nodes(4);
        let mut uf = UnionFind::new();
        for &n in &ns {
            uf.ensure(n);
        }
        let (w1, l1) = uf.union(ns[0], ns[1]).unwrap();
        assert_ne!(w1, l1);
        assert_eq!(uf.find(ns[0]), uf.find(ns[1]));
        // Second union of same sets is a no-op.
        assert!(uf.union(ns[0], ns[1]).is_none());
        // Union by size: the pair should absorb the singleton.
        let (w2, _) = uf.union(ns[2], ns[0]).unwrap();
        assert_eq!(w2, uf.find(ns[0]));
        assert_eq!(uf.component_size(ns[2]), 3);
        assert_eq!(uf.component_size(ns[3]), 1);
        assert!(uf.same_set(ns[1], ns[2]));
        assert!(!uf.same_set(ns[0], ns[3]));
    }

    #[test]
    fn ensure_is_idempotent_and_sparse() {
        let ns = nodes(10);
        let mut uf = UnionFind::new();
        uf.ensure(ns[7]); // fills 0..=7
        uf.ensure(ns[3]);
        assert_eq!(uf.len(), 8);
        assert_eq!(uf.find(ns[3]), ns[3]);
    }

    #[test]
    fn long_chain_compresses() {
        let ns = nodes(100);
        let mut uf = UnionFind::new();
        for &n in &ns {
            uf.ensure(n);
        }
        for w in ns.windows(2) {
            uf.union(w[0], w[1]);
        }
        let root = uf.find(ns[0]);
        for &n in &ns {
            assert_eq!(uf.find(n), root);
        }
        assert_eq!(uf.component_size(ns[50]), 100);
    }
}
