//! Attribute evaluators: incremental (Alphonse) and exhaustive baseline.

use crate::grammar::{AttrBackend, Grammar, InhCtx, InhId, SynCtx, SynId};
use crate::tree::{AgNodeId, AgTree};
use crate::value::AttrVal;
use alphonse::{Memo, Runtime, Strategy};
use std::cell::Cell;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Incremental attribute evaluator — the Section 7.1 translation running on
/// the Alphonse runtime.
///
/// Synthesized attributes are maintained methods keyed by `(node, attr)`;
/// inherited attributes are maintained methods keyed by `(child, attr)`
/// whose body performs the paper's context dispatch at the parent. After a
/// tree edit, re-querying an attribute re-executes only the instances whose
/// dependencies changed.
///
/// # Example
///
/// ```
/// use alphonse::Runtime;
/// use alphonse_agkit::{AgEvaluator, AgTree, AttrVal, Grammar};
/// use std::sync::Arc;
///
/// let mut g = Grammar::builder();
/// let value = g.synthesized("value");
/// let num = g.production("Num", 0, 1);
/// let add = g.production("Add", 2, 0);
/// g.syn_eq(num, value, |ctx| ctx.terminal(0));
/// g.syn_eq(add, value, move |ctx| {
///     AttrVal::Int(ctx.child_syn(0, value).as_int() + ctx.child_syn(1, value).as_int())
/// });
/// let rt = Runtime::new();
/// let tree = AgTree::new(&rt, Arc::new(g.build()));
/// let one = tree.new_node(num, vec![AttrVal::Int(1)]);
/// let two = tree.new_node(num, vec![AttrVal::Int(2)]);
/// let sum = tree.build(add, vec![], &[one, two]);
/// let eval = AgEvaluator::new(&rt, Arc::clone(&tree));
/// assert_eq!(eval.syn(sum, value), AttrVal::Int(3));
/// tree.set_terminal(one, 0, AttrVal::Int(10));
/// assert_eq!(eval.syn(sum, value), AttrVal::Int(12));
/// ```
pub struct AgEvaluator {
    rt: Runtime,
    tree: Arc<AgTree>,
    syn: Memo<(AgNodeId, SynId), AttrVal>,
    inh: Memo<(AgNodeId, InhId), AttrVal>,
}

impl fmt::Debug for AgEvaluator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AgEvaluator")
            .field("syn_instances", &self.syn.instance_count())
            .field("inh_instances", &self.inh.instance_count())
            .finish()
    }
}

/// What an attribute equation reaches during one execution: borrowed
/// from the executing memo and its closure, so running a body touches no
/// reference count.
struct Backend<'a> {
    tree: &'a AgTree,
    syn: &'a Memo<(AgNodeId, SynId), AttrVal>,
    inh: &'a Memo<(AgNodeId, InhId), AttrVal>,
    rt: &'a Runtime,
}

impl AttrBackend for Backend<'_> {
    fn syn(&self, node: AgNodeId, attr: SynId) -> AttrVal {
        self.syn.call(self.rt, (node, attr))
    }

    fn inh(&self, node: AgNodeId, attr: InhId) -> AttrVal {
        self.inh.call(self.rt, (node, attr))
    }

    fn tree(&self) -> &AgTree {
        self.tree
    }
}

impl AgEvaluator {
    /// Creates a demand-evaluated evaluator for `tree` (see
    /// [`AgEvaluator::with_strategy`]).
    ///
    /// # Panics
    ///
    /// Panics if `rt` is not the runtime `tree` was created in.
    pub fn new(rt: &Runtime, tree: Arc<AgTree>) -> AgEvaluator {
        Self::with_strategy(rt, tree, Strategy::Demand)
    }

    /// Creates the evaluator with an explicit evaluation strategy for the
    /// attribute methods. [`Strategy::Eager`] gives quiescence cutoff during
    /// propagation — an edit that leaves an attribute's value unchanged
    /// stops there instead of conservatively invalidating all dependents.
    ///
    /// # Panics
    ///
    /// Panics if `rt` is not the runtime `tree` was created in.
    pub fn with_strategy(rt: &Runtime, tree: Arc<AgTree>, strategy: Strategy) -> AgEvaluator {
        // The two memos are mutually recursive: each body gets its own
        // handle from the runtime and the other one from a cell filled once
        // both exist.
        let syn_cell: Arc<OnceLock<Memo<(AgNodeId, SynId), AttrVal>>> = Arc::default();
        let inh_cell: Arc<OnceLock<Memo<(AgNodeId, InhId), AttrVal>>> = Arc::default();
        const UNTIED: &str = "evaluator fully constructed";

        let grammar: Arc<Grammar> = Arc::clone(tree.grammar());
        let t = Arc::clone(&tree);
        let ic = Arc::clone(&inh_cell);
        let g = Arc::clone(&grammar);
        let syn = rt.memo_recursive_with(
            "ag_syn",
            strategy,
            move |rt, me, &(node, attr): &(AgNodeId, SynId)| {
                let backend = Backend {
                    tree: &t,
                    syn: me,
                    inh: ic.get().expect(UNTIED),
                    rt,
                };
                let prod = t.prod(node);
                let eq = Arc::clone(g.syn_eq(prod, attr));
                eq(&SynCtx {
                    backend: &backend,
                    node,
                })
            },
        );
        let t = Arc::clone(&tree);
        let sc = Arc::clone(&syn_cell);
        let g = Arc::clone(&grammar);
        let inh = rt.memo_recursive_with(
            "ag_inh",
            strategy,
            move |rt, me, &(node, attr): &(AgNodeId, InhId)| {
                let backend = Backend {
                    tree: &t,
                    syn: sc.get().expect(UNTIED),
                    inh: me,
                    rt,
                };
                // Context dispatch at the parent (paper Section 7.1).
                let (parent, child_index) = t.child_index(node).unwrap_or_else(|| {
                    panic!(
                        "inherited attribute {} demanded at detached node {node}",
                        t.grammar().inh_names[attr]
                    )
                });
                let prod = t.prod(parent);
                let eq = Arc::clone(g.inh_eq(prod, child_index, attr));
                eq(&InhCtx {
                    backend: &backend,
                    parent,
                    child_index,
                })
            },
        );
        let _ = syn_cell.set(syn.clone());
        let _ = inh_cell.set(inh.clone());
        AgEvaluator {
            rt: rt.clone(),
            tree,
            syn,
            inh,
        }
    }

    /// The attributed tree.
    pub fn tree(&self) -> &Arc<AgTree> {
        &self.tree
    }

    /// Demands synthesized attribute `attr` at `node`.
    pub fn syn(&self, node: AgNodeId, attr: SynId) -> AttrVal {
        self.syn.call(&self.rt, (node, attr))
    }

    /// Demands inherited attribute `attr` at `node`.
    pub fn inh(&self, node: AgNodeId, attr: InhId) -> AttrVal {
        self.inh.call(&self.rt, (node, attr))
    }

    /// Number of attribute instances materialized so far.
    pub fn instance_count(&self) -> usize {
        self.syn.instance_count() + self.inh.instance_count()
    }
}

/// Exhaustive baseline evaluator: every attribute demand re-evaluates the
/// full equation tree below/above it, with no caching — the conventional
/// execution an attribute-grammar system replaces.
pub struct ExhaustiveAg {
    tree: Arc<AgTree>,
    evaluations: Cell<u64>,
}

impl fmt::Debug for ExhaustiveAg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExhaustiveAg")
            .field("evaluations", &self.evaluations.get())
            .finish()
    }
}

impl AttrBackend for ExhaustiveAg {
    fn syn(&self, node: AgNodeId, attr: SynId) -> AttrVal {
        self.evaluations.set(self.evaluations.get() + 1);
        let prod = self.tree.prod(node);
        let eq = Arc::clone(self.tree.grammar().syn_eq(prod, attr));
        eq(&SynCtx {
            backend: self,
            node,
        })
    }

    fn inh(&self, node: AgNodeId, attr: InhId) -> AttrVal {
        self.evaluations.set(self.evaluations.get() + 1);
        let (parent, child_index) = self
            .tree
            .child_index(node)
            .unwrap_or_else(|| panic!("inherited attribute demanded at detached node {node}"));
        let prod = self.tree.prod(parent);
        let eq = Arc::clone(self.tree.grammar().inh_eq(prod, child_index, attr));
        eq(&InhCtx {
            backend: self,
            parent,
            child_index,
        })
    }

    fn tree(&self) -> &AgTree {
        &self.tree
    }
}

impl ExhaustiveAg {
    /// Creates the baseline evaluator over `tree`.
    pub fn new(tree: Arc<AgTree>) -> ExhaustiveAg {
        ExhaustiveAg {
            tree,
            evaluations: Cell::new(0),
        }
    }

    /// Evaluates synthesized attribute `attr` at `node` from scratch.
    pub fn syn(&self, node: AgNodeId, attr: SynId) -> AttrVal {
        AttrBackend::syn(self, node, attr)
    }

    /// Evaluates inherited attribute `attr` at `node` from scratch.
    pub fn inh(&self, node: AgNodeId, attr: InhId) -> AttrVal {
        AttrBackend::inh(self, node, attr)
    }

    /// Total equation evaluations performed (work counter).
    pub fn evaluations(&self) -> u64 {
        self.evaluations.get()
    }

    /// Resets the work counter.
    pub fn reset_counters(&self) {
        self.evaluations.set(0);
    }
}
