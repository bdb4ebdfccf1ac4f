//! Dependency-graph substrate for the Alphonse incremental-computation
//! runtime.
//!
//! This crate implements the low-level machinery described in Sections 4.1
//! and 9.2 of *Alphonse: Incremental Computation as a Programming
//! Abstraction* (Hoover, PLDI 1992):
//!
//! * [`DepGraph`] — an arena of dependency nodes connected by bidirectional
//!   edges stored in intrusive lists, so that removing a node's stale
//!   predecessor edges while walking its in-list (the `RemovePredEdges`
//!   step of the paper's Algorithm 5, [`DepGraph::retain_preds`]) costs
//!   O(1) per edge, which Section 9.2 relies on for the overall O(T)
//!   translation bound.
//! * Longest-path **heights** maintained online per node, used to process the
//!   inconsistent set in (approximate) topological order as suggested in
//!   Section 4.5.
//! * [`UnionFind`] — the disjoint-set structure used by the dynamic graph
//!   partitioning optimization of Section 6.3.
//! * [`HeightQueue`] — the *inconsistent set*: a priority queue of dirty
//!   nodes ordered by height. Membership is the caller's: the runtime keeps
//!   it in one flag bit per node and never queues a node twice.
//! * [`scc`] — Tarjan strongly-connected components and condensation, the
//!   compile-time counterpart of the online heights: static strata, cycle
//!   candidates, and callee-first scheduling for the effect fixpoint.
//!
//! The graph stores topology only. Cached values, consistency flags and
//! evaluation strategies live in the `alphonse` runtime crate layered on
//! top.
//!
//! # Example
//!
//! ```
//! use alphonse_graph::DepGraph;
//!
//! let mut g = DepGraph::new();
//! let a = g.add_node();
//! let b = g.add_node();
//! g.add_edge(a, b); // b depends on a
//! assert_eq!(g.succs(b).count(), 0);
//! assert_eq!(g.succs(a).collect::<Vec<_>>(), vec![b]);
//! assert!(g.height(b) > g.height(a));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod graph;
mod queue;
pub mod scc;
mod union_find;

pub use graph::{DepGraph, NodeId, Preds, Succs};
pub use queue::HeightQueue;
pub use scc::{condense, Condensation};
pub use union_find::UnionFind;
