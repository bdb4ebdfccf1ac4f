//! The inconsistent set: a height-ordered priority queue of dirty nodes.

use crate::NodeId;
use alphonse_mem as mem;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Dirty dependency-graph nodes drained in ascending height order.
///
/// This realizes the paper's *inconsistent set* (Section 4.4) together with
/// the topological-order selection policy of Section 4.5: draining nodes in
/// ascending longest-path height approximates a topological order of the
/// dependency DAG, which minimizes redundant re-executions during quiescence
/// propagation.
///
/// The queue keeps no member set: a node inserted twice is popped twice.
/// Set semantics belong to the caller, which keeps whether a node is queued
/// in one flag bit and inserts a node only while it is not queued. Heights
/// are captured at insertion time; if a node's height changes while queued
/// the stale priority is tolerated (correctness of quiescence propagation
/// does not depend on the order, only its efficiency does).
///
/// # Example
///
/// ```
/// use alphonse_graph::{DepGraph, HeightQueue};
/// let mut g = DepGraph::new();
/// let a = g.add_node();
/// let b = g.add_node();
/// g.add_edge(a, b);
/// let mut q = HeightQueue::new();
/// q.insert(b, g.height(b));
/// q.insert(a, g.height(a));
/// assert_eq!(q.pop(), Some(a));
/// assert_eq!(q.pop(), Some(b));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Default)]
pub struct HeightQueue {
    heap: BinaryHeap<(Reverse<u32>, NodeId)>,
}

impl HeightQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues `n` with priority `height`. The caller queues a node only
    /// while it is not already queued.
    pub fn insert(&mut self, n: NodeId, height: u32) {
        let _mem = mem::scope(mem::Tag::Queues);
        self.heap.push((Reverse(height), n));
    }

    /// Removes and returns the queued node with the smallest height.
    pub fn pop(&mut self) -> Option<NodeId> {
        self.heap.pop().map(|(_, n)| n)
    }

    /// Drains the queued nodes at the current minimum height into `out`, at
    /// most `max` of them, returning that height (or `None` if the queue is
    /// empty or `max` is 0). Nodes of the level beyond `max` stay queued.
    ///
    /// The batch is removed from the queue *before* the caller sees it, so a
    /// node re-inserted at the drained height while the batch is being
    /// processed lands in a subsequent level, never in the in-flight one.
    /// Within the level, nodes come out in the same order repeated [`pop`]
    /// calls would produce (descending `NodeId` — the heap's tie order),
    /// which keeps a level-at-a-time drain a stable reordering of the
    /// one-at-a-time drain.
    ///
    /// [`pop`]: HeightQueue::pop
    pub fn pop_level(&mut self, out: &mut Vec<NodeId>, max: usize) -> Option<u32> {
        let _mem = mem::scope(mem::Tag::Queues);
        let mut level: Option<u32> = None;
        let mut taken = 0;
        while taken < max {
            let Some(&(Reverse(h), n)) = self.heap.peek() else {
                break;
            };
            if level.is_some_and(|l| l != h) {
                break;
            }
            self.heap.pop();
            level = Some(h);
            out.push(n);
            taken += 1;
        }
        level
    }

    /// Visits every queued node, in no particular order.
    pub fn for_each_member(&self, mut f: impl FnMut(NodeId)) {
        for &(_, n) in &self.heap {
            f(n);
        }
    }

    /// Number of queued nodes.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no nodes are queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Moves every element of `other` into `self` (used when two graph
    /// partitions are unioned, Section 6.3). The two queues hold disjoint
    /// nodes.
    pub fn absorb(&mut self, other: &mut HeightQueue) {
        let _mem = mem::scope(mem::Tag::Queues);
        self.heap.append(&mut other.heap);
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
    fn pops_in_height_order() {
        let ns = nodes(4);
        let mut q = HeightQueue::new();
        q.insert(ns[0], 7);
        q.insert(ns[1], 1);
        q.insert(ns[2], 4);
        q.insert(ns[3], 0);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![ns[3], ns[1], ns[2], ns[0]]);
    }

    #[test]
    fn absorb_merges_and_empties_other() {
        let ns = nodes(4);
        let mut a = HeightQueue::new();
        let mut b = HeightQueue::new();
        a.insert(ns[0], 2);
        b.insert(ns[1], 0);
        b.insert(ns[2], 1);
        a.absorb(&mut b);
        assert!(b.is_empty());
        assert_eq!(a.len(), 3);
        assert_eq!(a.pop(), Some(ns[1]));
        assert_eq!(a.pop(), Some(ns[2]));
        assert_eq!(a.pop(), Some(ns[0]));
    }

    #[test]
    fn pop_level_drains_one_height_at_a_time() {
        let ns = nodes(5);
        let mut q = HeightQueue::new();
        q.insert(ns[0], 1);
        q.insert(ns[1], 0);
        q.insert(ns[2], 1);
        q.insert(ns[3], 0);
        q.insert(ns[4], 2);
        let mut batch = Vec::new();
        assert_eq!(q.pop_level(&mut batch, usize::MAX), Some(0));
        batch.sort();
        assert_eq!(batch, vec![ns[1], ns[3]]);
        batch.clear();
        assert_eq!(q.pop_level(&mut batch, usize::MAX), Some(1));
        batch.sort();
        assert_eq!(batch, vec![ns[0], ns[2]]);
        batch.clear();
        assert_eq!(q.pop_level(&mut batch, usize::MAX), Some(2));
        assert_eq!(batch, vec![ns[4]]);
        batch.clear();
        assert_eq!(q.pop_level(&mut batch, usize::MAX), None);
        assert!(batch.is_empty());
    }

    #[test]
    fn pop_level_matches_pop_order_within_a_level() {
        // The level drain must be a stable reordering of the one-at-a-time
        // drain: same nodes, same within-level sequence.
        let ns = nodes(6);
        let mut a = HeightQueue::new();
        let mut b = HeightQueue::new();
        for (i, &n) in ns.iter().enumerate() {
            a.insert(n, (i % 2) as u32);
            b.insert(n, (i % 2) as u32);
        }
        let mut level_order = Vec::new();
        while a.pop_level(&mut level_order, usize::MAX).is_some() {}
        let pop_order: Vec<_> = std::iter::from_fn(|| b.pop()).collect();
        assert_eq!(level_order, pop_order);
    }

    #[test]
    fn same_height_reinsert_during_drain_joins_next_level() {
        // A node re-queued at the height currently being drained must NOT
        // join the in-flight batch: pop_level removed the batch from the
        // queue before the caller processes it.
        let ns = nodes(3);
        let mut q = HeightQueue::new();
        q.insert(ns[0], 4);
        q.insert(ns[1], 4);
        let mut batch = Vec::new();
        assert_eq!(q.pop_level(&mut batch, usize::MAX), Some(4));
        assert_eq!(batch.len(), 2);
        // "While the batch executes", ns[2] and a batch member are dirtied
        // at the very height just drained.
        q.insert(ns[2], 4);
        q.insert(ns[0], 4);
        let mut next = Vec::new();
        assert_eq!(q.pop_level(&mut next, usize::MAX), Some(4));
        next.sort();
        assert_eq!(next, vec![ns[0], ns[2]]);
        assert!(q.is_empty());
    }

    #[test]
    fn pop_level_respects_its_cap() {
        let ns = nodes(3);
        let mut q = HeightQueue::new();
        for &n in &ns {
            q.insert(n, 2);
        }
        let mut batch = Vec::new();
        assert_eq!(q.pop_level(&mut batch, 0), None);
        assert_eq!(q.pop_level(&mut batch, 2), Some(2));
        assert_eq!(batch, vec![ns[2], ns[1]]);
        batch.clear();
        // The rest of the level stays queued for the next call.
        assert_eq!(q.pop_level(&mut batch, 2), Some(2));
        assert_eq!(batch, vec![ns[0]]);
        assert!(q.is_empty());
    }

    #[test]
    fn reinsert_after_pop_works() {
        let ns = nodes(1);
        let mut q = HeightQueue::new();
        q.insert(ns[0], 1);
        assert_eq!(q.pop(), Some(ns[0]));
        q.insert(ns[0], 2);
        assert_eq!(q.pop(), Some(ns[0]));
    }
}
