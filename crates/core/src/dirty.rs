//! Inconsistent-set containers with pluggable draining order.

use crate::fxhash::FxHashSet;
use alphonse_graph::{HeightQueue, NodeId};
use alphonse_mem as mem;
use std::collections::VecDeque;

/// Order in which the evaluator drains the inconsistent set.
///
/// Section 4.5 of the paper: "The amount of computation is minimized when
/// done in a topological order with respect to the graph". [`HeightOrder`]
/// approximates that order by longest-path height (the scheme of Hoover's
/// incremental graph evaluation work cited there); [`Fifo`] is the naive
/// alternative, kept as an ablation knob for experiment E9.
///
/// [`HeightOrder`]: Scheduling::HeightOrder
/// [`Fifo`]: Scheduling::Fifo
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduling {
    /// Drain dirty nodes in ascending dependency height (default).
    #[default]
    HeightOrder,
    /// Drain dirty nodes in first-in first-out order.
    Fifo,
}

/// A set of dirty nodes with the draining policy chosen at construction.
#[derive(Debug)]
pub(crate) enum DirtySet {
    Height(HeightQueue),
    Fifo {
        queue: VecDeque<NodeId>,
        members: FxHashSet<NodeId>,
    },
}

impl DirtySet {
    pub(crate) fn new(mode: Scheduling) -> Self {
        match mode {
            Scheduling::HeightOrder => DirtySet::Height(HeightQueue::new()),
            Scheduling::Fifo => DirtySet::Fifo {
                queue: VecDeque::new(),
                members: FxHashSet::default(),
            },
        }
    }

    /// Inserts `n` (with its current `height`) unless already present.
    /// Returns `true` on a fresh insertion.
    pub(crate) fn insert(&mut self, n: NodeId, height: u32) -> bool {
        let _mem = mem::scope(mem::Tag::Queues);
        match self {
            DirtySet::Height(q) => q.insert(n, height),
            DirtySet::Fifo { queue, members } => {
                if members.insert(n) {
                    queue.push_back(n);
                    true
                } else {
                    false
                }
            }
        }
    }

    pub(crate) fn pop(&mut self) -> Option<NodeId> {
        match self {
            DirtySet::Height(q) => q.pop(),
            DirtySet::Fifo { queue, members } => {
                let n = queue.pop_front()?;
                members.remove(&n);
                Some(n)
            }
        }
    }

    /// Drains the whole batch of dirty nodes at the current minimum height
    /// into `out`, returning that height. Nodes re-inserted while the batch
    /// is in flight join a later level, never the current one.
    ///
    /// Fifo scheduling has no height levels; it degrades to a singleton
    /// batch (the front node, reported as height 0) so a level-at-a-time
    /// caller behaves exactly like repeated [`pop`] calls.
    ///
    /// [`pop`]: DirtySet::pop
    pub(crate) fn pop_level(&mut self, out: &mut Vec<NodeId>) -> Option<u32> {
        let _mem = mem::scope(mem::Tag::Queues);
        match self {
            DirtySet::Height(q) => q.pop_level(out),
            DirtySet::Fifo { queue, members } => {
                let n = queue.pop_front()?;
                members.remove(&n);
                out.push(n);
                Some(0)
            }
        }
    }

    /// Visits every queued node, in no particular order.
    pub(crate) fn for_each_member(&self, mut f: impl FnMut(NodeId)) {
        match self {
            DirtySet::Height(q) => q.for_each_member(f),
            DirtySet::Fifo { members, .. } => {
                for &n in members {
                    f(n);
                }
            }
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        match self {
            DirtySet::Height(q) => q.is_empty(),
            DirtySet::Fifo { members, .. } => members.is_empty(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            DirtySet::Height(q) => q.len(),
            DirtySet::Fifo { members, .. } => members.len(),
        }
    }

    /// Approximate heap bytes held by the set's containers, from their
    /// capacities. Folded into the runtime's `mem_bytes_hwm` gauge so the
    /// memory-per-node metric covers propagation state, not just the graph.
    pub(crate) fn approx_bytes(&self) -> u64 {
        match self {
            DirtySet::Height(q) => q.approx_bytes(),
            DirtySet::Fifo { queue, members } => {
                let q = queue.capacity() * std::mem::size_of::<NodeId>();
                let m = members.capacity() * std::mem::size_of::<NodeId>();
                (q + m) as u64
            }
        }
    }

    /// Moves all members of `other` into `self` (partition union).
    pub(crate) fn absorb(&mut self, other: &mut DirtySet) {
        let _mem = mem::scope(mem::Tag::Queues);
        match (self, other) {
            (DirtySet::Height(a), DirtySet::Height(b)) => a.absorb(b),
            (
                DirtySet::Fifo { queue, members },
                DirtySet::Fifo {
                    queue: oq,
                    members: om,
                },
            ) => {
                for n in oq.drain(..) {
                    if members.insert(n) {
                        queue.push_back(n);
                    }
                }
                om.clear();
            }
            _ => unreachable!("all dirty sets of a runtime share one scheduling mode"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alphonse_graph::DepGraph;

    fn nodes(n: usize) -> Vec<NodeId> {
        let mut g = DepGraph::new();
        (0..n).map(|_| g.add_node()).collect()
    }

    #[test]
    fn fifo_preserves_insertion_order() {
        let ns = nodes(3);
        let mut s = DirtySet::new(Scheduling::Fifo);
        s.insert(ns[2], 9);
        s.insert(ns[0], 0);
        s.insert(ns[1], 5);
        assert_eq!(s.pop(), Some(ns[2]));
        assert_eq!(s.pop(), Some(ns[0]));
        assert_eq!(s.pop(), Some(ns[1]));
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn height_order_ignores_insertion_order() {
        let ns = nodes(3);
        let mut s = DirtySet::new(Scheduling::HeightOrder);
        s.insert(ns[2], 9);
        s.insert(ns[0], 0);
        s.insert(ns[1], 5);
        assert_eq!(s.pop(), Some(ns[0]));
        assert_eq!(s.pop(), Some(ns[1]));
        assert_eq!(s.pop(), Some(ns[2]));
    }

    #[test]
    fn fifo_dedupes() {
        let ns = nodes(1);
        let mut s = DirtySet::new(Scheduling::Fifo);
        assert!(s.insert(ns[0], 0));
        assert!(!s.insert(ns[0], 0));
        assert_eq!(s.len(), 1);
        s.pop();
        assert!(s.is_empty());
    }

    #[test]
    fn height_pop_level_batches_by_height() {
        let ns = nodes(4);
        let mut s = DirtySet::new(Scheduling::HeightOrder);
        s.insert(ns[0], 1);
        s.insert(ns[1], 0);
        s.insert(ns[2], 1);
        s.insert(ns[3], 0);
        let mut batch = Vec::new();
        assert_eq!(s.pop_level(&mut batch), Some(0));
        batch.sort();
        assert_eq!(batch, vec![ns[1], ns[3]]);
        batch.clear();
        // Same-height re-insertion during the "in-flight" window goes to
        // the next level, not the drained batch.
        s.insert(ns[1], 1);
        assert_eq!(s.pop_level(&mut batch), Some(1));
        batch.sort();
        assert_eq!(batch, vec![ns[0], ns[1], ns[2]]);
        batch.clear();
        assert_eq!(s.pop_level(&mut batch), None);
    }

    #[test]
    fn fifo_pop_level_is_a_singleton() {
        let ns = nodes(3);
        let mut s = DirtySet::new(Scheduling::Fifo);
        s.insert(ns[2], 9);
        s.insert(ns[0], 0);
        let mut batch = Vec::new();
        assert_eq!(s.pop_level(&mut batch), Some(0));
        assert_eq!(batch, vec![ns[2]]);
        batch.clear();
        assert_eq!(s.pop_level(&mut batch), Some(0));
        assert_eq!(batch, vec![ns[0]]);
        batch.clear();
        assert_eq!(s.pop_level(&mut batch), None);
        assert!(s.is_empty());
    }

    #[test]
    fn fifo_absorb() {
        let ns = nodes(3);
        let mut a = DirtySet::new(Scheduling::Fifo);
        let mut b = DirtySet::new(Scheduling::Fifo);
        a.insert(ns[0], 0);
        b.insert(ns[1], 0);
        b.insert(ns[0], 0);
        b.insert(ns[2], 0);
        a.absorb(&mut b);
        assert!(b.is_empty());
        assert_eq!(a.len(), 3);
    }
}
