//! Attributed derivation trees with tracked structure.
//!
//! A node is a production instance (the paper's dynamically allocated
//! object). Parent pointers, child links and terminal values are all
//! Alphonse variables, so the incremental evaluator's equations
//! automatically depend on exactly the structure they traverse, and
//! editing the tree (subtree replacement, terminal edits) invalidates
//! precisely the affected attribute instances.

use crate::grammar::{Grammar, ProdId};
use crate::value::AttrVal;
use alphonse::{Runtime, Var};
use alphonse_mem as mem;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

/// Locks the node table, blocking on contention: executor-pool workers
/// evaluate equations of one tree concurrently. Every guard covers a single
/// index or push and is never held across a runtime call, so no worker can
/// wait on the table while holding the runtime lock (or the reverse).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A production instance in the attributed tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AgNodeId(u32);

impl AgNodeId {
    /// Dense index of the node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for AgNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ag{}", self.0)
    }
}

#[derive(Clone)]
struct NodeData {
    prod: ProdId,
    parent: Var<Option<AgNodeId>>,
    children: Vec<Var<Option<AgNodeId>>>,
    terminals: Vec<Var<AttrVal>>,
}

/// The attributed tree: an arena of production instances.
pub struct AgTree {
    rt: Runtime,
    grammar: Arc<Grammar>,
    nodes: Mutex<Vec<NodeData>>,
}

impl fmt::Debug for AgTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AgTree")
            .field("nodes", &lock(&self.nodes).len())
            .finish()
    }
}

impl AgTree {
    /// Creates an empty tree over `grammar`, tracked in `rt`.
    pub fn new(rt: &Runtime, grammar: Arc<Grammar>) -> Arc<AgTree> {
        let _mem = mem::scope(mem::Tag::Substrate);
        Arc::new(AgTree {
            rt: rt.clone(),
            grammar,
            nodes: Mutex::new(Vec::new()),
        })
    }

    /// The runtime structure edits are tracked in.
    pub fn runtime(&self) -> &Runtime {
        &self.rt
    }

    /// The grammar this tree instantiates.
    pub fn grammar(&self) -> &Arc<Grammar> {
        &self.grammar
    }

    /// Number of production instances.
    pub fn len(&self) -> usize {
        lock(&self.nodes).len()
    }

    /// Returns `true` if no nodes exist.
    pub fn is_empty(&self) -> bool {
        lock(&self.nodes).is_empty()
    }

    /// Allocates an instance of production `prod` with the given terminal
    /// values and no children attached.
    ///
    /// # Panics
    ///
    /// Panics if the terminal count does not match the production.
    pub fn new_node(&self, prod: ProdId, terminals: Vec<AttrVal>) -> AgNodeId {
        let spec_arity = self.grammar.arity(prod);
        let spec_terms = self.grammar.prods[prod].terminals;
        assert_eq!(
            terminals.len(),
            spec_terms,
            "production {} takes {spec_terms} terminal(s)",
            self.grammar.prod_name(prod)
        );
        let _mem = mem::scope(mem::Tag::Substrate);
        let data = NodeData {
            prod,
            parent: self.rt.var(None),
            children: (0..spec_arity).map(|_| self.rt.var(None)).collect(),
            terminals: terminals.into_iter().map(|v| self.rt.var(v)).collect(),
        };
        let traced = self.rt.tracing().then(|| data.clone());
        let id = {
            let mut nodes = lock(&self.nodes);
            let id = AgNodeId(u32::try_from(nodes.len()).expect("too many AG nodes"));
            nodes.push(data);
            id
        };
        if let Some(data) = traced {
            self.label(id, &data);
        }
        id
    }

    /// Names each structural var of node `id` after the production and slot
    /// ("Plus#4.child0") so graph exports stay readable. Only traced
    /// runtimes pay for the labels.
    fn label(&self, id: AgNodeId, data: &NodeData) {
        let base = format!("{}#{}", self.grammar.prod_name(data.prod), id.0);
        self.rt
            .set_label(data.parent.node(), &format!("{base}.parent"));
        for (i, v) in data.children.iter().enumerate() {
            self.rt.set_label(v.node(), &format!("{base}.child{i}"));
        }
        for (i, v) in data.terminals.iter().enumerate() {
            self.rt.set_label(v.node(), &format!("{base}.term{i}"));
        }
    }

    /// Builds a node and attaches children in one step.
    pub fn build(&self, prod: ProdId, terminals: Vec<AttrVal>, children: &[AgNodeId]) -> AgNodeId {
        let n = self.new_node(prod, terminals);
        for (i, &c) in children.iter().enumerate() {
            self.set_child(n, i, Some(c));
        }
        n
    }

    /// Production of a node.
    pub fn prod(&self, n: AgNodeId) -> ProdId {
        lock(&self.nodes)[n.index()].prod
    }

    /// Parent of a node (tracked read).
    pub fn parent(&self, n: AgNodeId) -> Option<AgNodeId> {
        let var = lock(&self.nodes)[n.index()].parent;
        // Borrow-based read: attribute rules chase these links constantly.
        var.with(&self.rt, |&p| p)
    }

    /// Child `i` of a node (tracked read).
    pub fn child(&self, n: AgNodeId, i: usize) -> Option<AgNodeId> {
        let var = lock(&self.nodes)[n.index()].children[i];
        var.with(&self.rt, |&c| c)
    }

    /// Terminal value `i` of a node (tracked read).
    pub fn terminal(&self, n: AgNodeId, i: usize) -> AttrVal {
        let var = lock(&self.nodes)[n.index()].terminals[i];
        var.get(&self.rt)
    }

    /// Attaches (or detaches with `None`) child `i` of `n`, maintaining the
    /// parent pointer — the tree edit that drives incremental re-attribution.
    pub fn set_child(&self, n: AgNodeId, i: usize, child: Option<AgNodeId>) {
        let child_var = lock(&self.nodes)[n.index()].children[i];
        let old = child_var.get(&self.rt);
        if let Some(old) = old {
            let pvar = lock(&self.nodes)[old.index()].parent;
            // Only sever the back pointer if it still points here: the old
            // child may have been re-parented first (e.g. grafting a node
            // into a wider structure before swapping it in).
            if pvar.with(&self.rt, |&p| p == Some(n)) {
                pvar.set(&self.rt, None);
            }
        }
        child_var.set(&self.rt, child);
        if let Some(c) = child {
            let pvar = lock(&self.nodes)[c.index()].parent;
            pvar.set(&self.rt, Some(n));
        }
    }

    /// Overwrites terminal `i` of `n` (e.g. editing a literal in place).
    pub fn set_terminal(&self, n: AgNodeId, i: usize, v: AttrVal) {
        let var = lock(&self.nodes)[n.index()].terminals[i];
        var.set(&self.rt, v);
    }

    /// Index of `n` among the children of its parent, if attached.
    pub fn child_index(&self, n: AgNodeId) -> Option<(AgNodeId, usize)> {
        let p = self.parent(n)?;
        let arity = self.grammar.arity(self.prod(p));
        // The paper's context dispatch: `IF c = o.expl THEN …` — comparing
        // the asking child against each child link (tracked reads).
        (0..arity).find_map(|i| (self.child(p, i) == Some(n)).then_some((p, i)))
    }

    /// Number of nodes in the subtree rooted at `n`.
    pub fn subtree_size(&self, n: AgNodeId) -> usize {
        let arity = self.grammar.arity(self.prod(n));
        1 + (0..arity)
            .filter_map(|i| self.child(n, i))
            .map(|c| self.subtree_size(c))
            .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::Grammar;

    fn toy() -> (Runtime, Arc<AgTree>, ProdId, ProdId) {
        let mut g = Grammar::builder();
        let _v = g.synthesized("value");
        let leaf = g.production("Leaf", 0, 1);
        let pair = g.production("Pair", 2, 0);
        let rt = Runtime::new();
        let tree = AgTree::new(&rt, Arc::new(g.build()));
        (rt, tree, leaf, pair)
    }

    #[test]
    fn build_links_children_and_parents() {
        let (_rt, tree, leaf, pair) = toy();
        let a = tree.new_node(leaf, vec![AttrVal::Int(1)]);
        let b = tree.new_node(leaf, vec![AttrVal::Int(2)]);
        let p = tree.build(pair, vec![], &[a, b]);
        assert_eq!(tree.child(p, 0), Some(a));
        assert_eq!(tree.child(p, 1), Some(b));
        assert_eq!(tree.parent(a), Some(p));
        assert_eq!(tree.child_index(b), Some((p, 1)));
        assert_eq!(tree.subtree_size(p), 3);
        assert_eq!(tree.len(), 3);
    }

    #[test]
    fn set_child_detaches_old_child() {
        let (_rt, tree, leaf, pair) = toy();
        let a = tree.new_node(leaf, vec![AttrVal::Int(1)]);
        let b = tree.new_node(leaf, vec![AttrVal::Int(2)]);
        let p = tree.build(pair, vec![], &[a, b]);
        let c = tree.new_node(leaf, vec![AttrVal::Int(3)]);
        tree.set_child(p, 0, Some(c));
        assert_eq!(tree.parent(a), None, "old child detached");
        assert_eq!(tree.parent(c), Some(p));
        tree.set_child(p, 1, None);
        assert_eq!(tree.parent(b), None);
        assert_eq!(tree.child(p, 1), None);
    }

    #[test]
    fn reparent_before_swap_keeps_new_parent() {
        // Grafting a child into a new structure and then replacing it at
        // its old position must not clobber the fresh parent pointer.
        let (_rt, tree, leaf, pair) = toy();
        let a = tree.new_node(leaf, vec![AttrVal::Int(1)]);
        let b = tree.new_node(leaf, vec![AttrVal::Int(2)]);
        let old_parent = tree.build(pair, vec![], &[a, b]);
        // Re-parent `a` under a wider pair first…
        let c = tree.new_node(leaf, vec![AttrVal::Int(3)]);
        let wider = tree.build(pair, vec![], &[a, c]);
        assert_eq!(tree.parent(a), Some(wider));
        // …then install the wider pair where `a` used to be.
        tree.set_child(old_parent, 0, Some(wider));
        assert_eq!(tree.parent(a), Some(wider), "not clobbered by the swap");
        assert_eq!(tree.parent(wider), Some(old_parent));
        assert_eq!(tree.child_index(a), Some((wider, 0)));
    }

    #[test]
    fn terminals_read_back() {
        let (_rt, tree, leaf, _) = toy();
        let a = tree.new_node(leaf, vec![AttrVal::Int(7)]);
        assert_eq!(tree.terminal(a, 0), AttrVal::Int(7));
        tree.set_terminal(a, 0, AttrVal::Int(9));
        assert_eq!(tree.terminal(a, 0), AttrVal::Int(9));
    }

    #[test]
    #[should_panic(expected = "takes 1 terminal")]
    fn terminal_count_is_checked() {
        let (_rt, tree, leaf, _) = toy();
        tree.new_node(leaf, vec![]);
    }
}
