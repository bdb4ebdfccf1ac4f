//! Strongly-connected components and condensation.
//!
//! The static-analysis layers of the workspace need the *shape* of a
//! dependency relation before any value flows through it: the effect
//! fixpoint iterates the call graph callee-first, and the static
//! dependency graph reports cycle candidates and strata (compile-time
//! shadows of the runtime's `F_ON_STACK` cycle error and online heights).
//! Both reduce to one primitive — Tarjan's strongly-connected-components
//! algorithm plus the condensation DAG it induces — so it lives here in
//! the graph crate, next to the runtime graph it approximates.
//!
//! The API is deliberately untied to [`DepGraph`](crate::DepGraph): callers
//! pass a node count and a successor enumerator, so call graphs keyed by
//! arbitrary dense indices condense without building an arena first.
//!
//! # Example
//!
//! ```
//! use alphonse_graph::scc::condense;
//!
//! // 0 -> 1 <-> 2, 3 isolated with a self-loop.
//! let adj: Vec<Vec<usize>> = vec![vec![1], vec![2], vec![1], vec![3]];
//! let c = condense(4, |v, f| adj[v].iter().for_each(|&w| f(w)));
//! assert_eq!(c.components.len(), 3);
//! assert!(c.is_cyclic(c.comp_of(1)));
//! assert!(!c.is_cyclic(c.comp_of(0)));
//! assert!(c.is_cyclic(c.comp_of(3))); // self-loop counts
//! assert!(c.comp_of(0) < c.comp_of(1)); // ids are topologically sorted
//! ```

/// The strongly-connected components of a directed graph, with component
/// ids numbered in **topological order** of the condensation DAG: for
/// every edge `u -> v` with `comp_of(u) != comp_of(v)`,
/// `comp_of(u) < comp_of(v)`.
///
/// Produced by [`condense`].
#[derive(Debug, Clone)]
pub struct Condensation {
    /// Maps each node index to its component id.
    comp: Vec<u32>,
    /// Component members, indexed by component id. Members keep the order
    /// in which Tarjan's stack popped them (reversed, so DFS-ish order).
    pub components: Vec<Vec<usize>>,
    /// Per-component flag: `true` if the component contains a cycle — it
    /// has more than one member, or its single member has a self-edge.
    cyclic: Vec<bool>,
}

impl Condensation {
    /// Component id of node `v`.
    #[inline]
    pub fn comp_of(&self, v: usize) -> usize {
        self.comp[v] as usize
    }

    /// Number of components.
    #[inline]
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// `true` when the underlying graph had no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// `true` if component `c` contains a cycle (size > 1, or a self-loop).
    #[inline]
    pub fn is_cyclic(&self, c: usize) -> bool {
        self.cyclic[c]
    }

    /// `true` if any component contains a cycle, i.e. the graph is not a DAG.
    pub fn has_cycle(&self) -> bool {
        self.cyclic.iter().any(|&c| c)
    }

    /// Longest-path height of every component in the condensation DAG,
    /// counting each edge as length 1 and every member of a source
    /// component as height 0 — the static analogue of the runtime graph's
    /// online node heights. Cyclic components collapse to a single height
    /// (the runtime would reject them anyway).
    ///
    /// `succs` re-enumerates the original graph's successor relation.
    pub fn heights(&self, mut succs: impl FnMut(usize, &mut dyn FnMut(usize))) -> Vec<u32> {
        let mut h = vec![0u32; self.components.len()];
        // Component ids are topologically sorted, so one forward pass
        // relaxes every condensation edge after its source is final.
        for (c, members) in self.components.iter().enumerate() {
            for &v in members {
                succs(v, &mut |w| {
                    let cw = self.comp[w] as usize;
                    if cw != c && h[cw] < h[c] + 1 {
                        h[cw] = h[c] + 1;
                    }
                });
            }
        }
        h
    }
}

/// Tarjan frame state, kept in flat arrays indexed by node.
const UNVISITED: u32 = u32::MAX;

/// Computes the strongly-connected components of the graph with nodes
/// `0..n` and the successor relation enumerated by `succs` (called as
/// `succs(v, &mut |w| ...)` for each node `v`; duplicate edges are fine).
///
/// Runs Tarjan's algorithm iteratively (no recursion, so deep graphs are
/// safe) and renumbers components so ids are topologically sorted —
/// sources first, sinks last. See [`Condensation`].
pub fn condense(n: usize, mut succs: impl FnMut(usize, &mut dyn FnMut(usize))) -> Condensation {
    // Materialize adjacency once: the iterative DFS needs to pause halfway
    // through a node's successor list, which a callback enumerator cannot.
    let mut adj_heads = vec![0u32; n + 1];
    let mut self_loop = vec![false; n];
    for v in 0..n {
        let mut deg = 0u32;
        succs(v, &mut |w| {
            debug_assert!(w < n, "successor {w} out of range 0..{n}");
            if w == v {
                self_loop[v] = true;
            }
            deg += 1;
        });
        adj_heads[v + 1] = adj_heads[v] + deg;
    }
    let mut adj = vec![0u32; adj_heads[n] as usize];
    let mut fill = adj_heads.clone();
    for v in 0..n {
        succs(v, &mut |w| {
            adj[fill[v] as usize] = w as u32;
            fill[v] += 1;
        });
    }

    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut comp = vec![UNVISITED; n];
    let mut stack: Vec<u32> = Vec::new();
    // DFS frames: (node, next successor offset into `adj`).
    let mut frames: Vec<(u32, u32)> = Vec::new();
    let mut next_index = 0u32;
    let mut components: Vec<Vec<usize>> = Vec::new();

    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        frames.push((root as u32, adj_heads[root]));
        index[root] = next_index;
        lowlink[root] = next_index;
        next_index += 1;
        stack.push(root as u32);
        on_stack[root] = true;
        while let Some(&mut (v, ref mut cursor)) = frames.last_mut() {
            let v = v as usize;
            if (*cursor as usize) < adj_heads[v + 1] as usize {
                let w = adj[*cursor as usize] as usize;
                *cursor += 1;
                if index[w] == UNVISITED {
                    index[w] = next_index;
                    lowlink[w] = next_index;
                    next_index += 1;
                    stack.push(w as u32);
                    on_stack[w] = true;
                    frames.push((w as u32, adj_heads[w]));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    let p = parent as usize;
                    lowlink[p] = lowlink[p].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    // v roots a component: pop the stack down to it.
                    let cid = components.len() as u32;
                    let mut members = Vec::new();
                    loop {
                        let w = stack.pop().expect("Tarjan stack underflow") as usize;
                        on_stack[w] = false;
                        comp[w] = cid;
                        members.push(w);
                        if w == v {
                            break;
                        }
                    }
                    components.push(members);
                }
            }
        }
    }

    // Tarjan emits components in reverse topological order (a component is
    // finished only after everything it reaches); flip the numbering so
    // ids read sources-first.
    let total = components.len();
    components.reverse();
    for c in comp.iter_mut() {
        debug_assert_ne!(*c, UNVISITED);
        *c = (total as u32 - 1) - *c;
    }
    let cyclic = components
        .iter()
        .map(|members| members.len() > 1 || self_loop[members[0]])
        .collect();
    Condensation {
        comp,
        components,
        cyclic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn condense_adj(adj: &[Vec<usize>]) -> Condensation {
        condense(adj.len(), |v, f| adj[v].iter().for_each(|&w| f(w)))
    }

    #[test]
    fn empty_graph() {
        let c = condense_adj(&[]);
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
        assert!(!c.has_cycle());
    }

    #[test]
    fn dag_is_all_singletons_in_topo_order() {
        // 0 -> 1 -> 3, 0 -> 2 -> 3 (diamond)
        let adj = vec![vec![1, 2], vec![3], vec![3], vec![]];
        let c = condense_adj(&adj);
        assert_eq!(c.len(), 4);
        assert!(!c.has_cycle());
        for (v, tos) in adj.iter().enumerate() {
            for &w in tos {
                assert!(
                    c.comp_of(v) < c.comp_of(w),
                    "edge {v}->{w} must respect topological ids"
                );
            }
        }
    }

    #[test]
    fn cycle_collapses_to_one_component() {
        // 0 -> 1 -> 2 -> 1, 2 -> 3
        let adj = vec![vec![1], vec![2], vec![1, 3], vec![]];
        let c = condense_adj(&adj);
        assert_eq!(c.len(), 3);
        assert_eq!(c.comp_of(1), c.comp_of(2));
        assert!(c.is_cyclic(c.comp_of(1)));
        assert!(!c.is_cyclic(c.comp_of(0)));
        assert!(!c.is_cyclic(c.comp_of(3)));
        assert!(c.comp_of(0) < c.comp_of(1));
        assert!(c.comp_of(1) < c.comp_of(3));
        assert!(c.has_cycle());
    }

    #[test]
    fn self_loop_is_cyclic_singleton() {
        let adj = vec![vec![0], vec![]];
        let c = condense_adj(&adj);
        assert_eq!(c.len(), 2);
        assert!(c.is_cyclic(c.comp_of(0)));
        assert!(!c.is_cyclic(c.comp_of(1)));
    }

    #[test]
    fn two_independent_cycles() {
        // {0,1} and {2,3} disjoint cycles.
        let adj = vec![vec![1], vec![0], vec![3], vec![2]];
        let c = condense_adj(&adj);
        assert_eq!(c.len(), 2);
        assert_ne!(c.comp_of(0), c.comp_of(2));
        assert!(c.is_cyclic(c.comp_of(0)));
        assert!(c.is_cyclic(c.comp_of(2)));
    }

    #[test]
    fn members_cover_all_nodes_exactly_once() {
        let adj = vec![vec![1], vec![2, 4], vec![0], vec![2], vec![]];
        let c = condense_adj(&adj);
        let mut seen = vec![false; adj.len()];
        for (cid, members) in c.components.iter().enumerate() {
            for &v in members {
                assert!(!seen[v]);
                seen[v] = true;
                assert_eq!(c.comp_of(v), cid);
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn heights_follow_condensation_longest_path() {
        // 0 -> 1 -> 2, 0 -> 2: heights 0,1,2. Plus a cycle {3,4} fed by 2.
        let adj = vec![vec![1, 2], vec![2], vec![3], vec![4], vec![3]];
        let c = condense_adj(&adj);
        let h = c.heights(|v, f| adj[v].iter().for_each(|&w| f(w)));
        assert_eq!(h[c.comp_of(0)], 0);
        assert_eq!(h[c.comp_of(1)], 1);
        assert_eq!(h[c.comp_of(2)], 2);
        assert_eq!(h[c.comp_of(3)], 3);
        assert_eq!(h[c.comp_of(3)], h[c.comp_of(4)], "cycle shares a height");
    }

    #[test]
    fn deep_chain_needs_no_recursion() {
        // 100k-node path: recursion would blow the thread stack.
        let n = 100_000;
        let c = condense(n, |v, f| {
            if v + 1 < n {
                f(v + 1)
            }
        });
        assert_eq!(c.len(), n);
        assert!(!c.has_cycle());
        assert_eq!(c.comp_of(0), 0);
        assert_eq!(c.comp_of(n - 1), n - 1);
    }

    #[test]
    fn parallel_edges_are_tolerated() {
        let adj = vec![vec![1, 1, 1], vec![]];
        let c = condense_adj(&adj);
        assert_eq!(c.len(), 2);
        assert!(!c.has_cycle());
    }
}
