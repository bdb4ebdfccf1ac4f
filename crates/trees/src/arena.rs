//! Shared tree storage: an arena of nodes whose fields are tracked
//! variables.
//!
//! The paper's tree examples (Algorithms 1 and 11) use heap objects with
//! `left`/`right` pointer fields and a single shared `TreeNil` object for
//! missing children. [`TreeStore`] reproduces that: node 0 is the nil
//! sentinel, and every field of every node is an Alphonse [`Var`], so reads
//! performed inside maintained methods are recorded as dependencies and
//! writes seed change propagation.

use alphonse::{Batch, Runtime, Var};
use alphonse_mem as mem;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

/// Reference to a tree node — the paper's `Tree` pointer. `NodeRef::NIL`
/// plays the role of the shared `TreeNil` object.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeRef(u32);

impl NodeRef {
    /// The shared nil sentinel (the paper's `TreeNil` object).
    pub const NIL: NodeRef = NodeRef(0);

    /// Returns `true` for the nil sentinel.
    #[inline]
    pub fn is_nil(self) -> bool {
        self.0 == 0
    }

    /// Dense index of this node within its store.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Locks the node arena, blocking on contention: executor-pool workers
/// read fields of one store concurrently. Every guard covers a single
/// index or push and is never held across a runtime call, so no worker can
/// wait on the arena while holding the runtime lock (or the reverse).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl fmt::Debug for NodeRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_nil() {
            write!(f, "nil")
        } else {
            write!(f, "t{}", self.0)
        }
    }
}

struct Fields {
    key: Var<i64>,
    left: Var<NodeRef>,
    right: Var<NodeRef>,
}

/// An arena of binary-tree nodes with tracked fields, shared by the
/// maintained-height tree and the maintained AVL tree.
pub struct TreeStore {
    rt: Runtime,
    nodes: Mutex<Vec<Fields>>,
}

impl fmt::Debug for TreeStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TreeStore")
            .field("nodes", &(lock(&self.nodes).len().saturating_sub(1)))
            .finish()
    }
}

impl TreeStore {
    /// Creates an empty store bound to `rt`. Slot 0 is reserved for the nil
    /// sentinel.
    pub fn new(rt: &Runtime) -> Arc<Self> {
        let _mem = mem::scope(mem::Tag::Substrate);
        let sentinel = Fields {
            key: rt.var(0),
            left: rt.var(NodeRef::NIL),
            right: rt.var(NodeRef::NIL),
        };
        Arc::new(TreeStore {
            rt: rt.clone(),
            nodes: Mutex::new(vec![sentinel]),
        })
    }

    /// The runtime this store tracks its fields in.
    pub fn runtime(&self) -> &Runtime {
        &self.rt
    }

    /// Number of allocated nodes (excluding the nil sentinel).
    pub fn len(&self) -> usize {
        lock(&self.nodes).len() - 1
    }

    /// Returns `true` if no nodes have been allocated.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Allocates a node with the given key and children.
    pub fn new_node(&self, key: i64, left: NodeRef, right: NodeRef) -> NodeRef {
        let _mem = mem::scope(mem::Tag::Substrate);
        let fields = Fields {
            key: self.rt.var(key),
            left: self.rt.var(left),
            right: self.rt.var(right),
        };
        let (key, left, right) = (fields.key, fields.left, fields.right);
        let id = {
            let mut nodes = lock(&self.nodes);
            let id = u32::try_from(nodes.len()).expect("too many tree nodes");
            nodes.push(fields);
            id
        };
        if self.rt.tracing() {
            // Trace labels name each field var after its tree slot so graph
            // exports read "t3.key" instead of a bare node id. Skipped
            // entirely on untraced runtimes — allocation stays label-free.
            self.rt.set_label(key.node(), &format!("t{id}.key"));
            self.rt.set_label(left.node(), &format!("t{id}.left"));
            self.rt.set_label(right.node(), &format!("t{id}.right"));
        }
        NodeRef(id)
    }

    /// Allocates a leaf node.
    pub fn new_leaf(&self, key: i64) -> NodeRef {
        self.new_node(key, NodeRef::NIL, NodeRef::NIL)
    }

    fn field<F: Copy, G: Fn(&Fields) -> F>(&self, n: NodeRef, what: &str, get: G) -> F {
        assert!(!n.is_nil(), "{what} of nil");
        get(&lock(&self.nodes)[n.index()])
    }

    /// Reads `n.key` (tracked when inside a maintained method).
    pub fn key(&self, n: NodeRef) -> i64 {
        // Borrow-based read: these field loads are the hottest operation in
        // every tree experiment, so copy the scalar out in place.
        self.field(n, "key", |f| f.key).with(&self.rt, |&k| k)
    }

    /// Reads `n.left` (tracked when inside a maintained method).
    pub fn left(&self, n: NodeRef) -> NodeRef {
        self.field(n, "left", |f| f.left).with(&self.rt, |&c| c)
    }

    /// Reads `n.right` (tracked when inside a maintained method).
    pub fn right(&self, n: NodeRef) -> NodeRef {
        self.field(n, "right", |f| f.right).with(&self.rt, |&c| c)
    }

    /// Writes `n.left`.
    pub fn set_left(&self, n: NodeRef, child: NodeRef) {
        self.field(n, "left", |f| f.left).set(&self.rt, child);
    }

    /// Writes `n.right`.
    pub fn set_right(&self, n: NodeRef, child: NodeRef) {
        self.field(n, "right", |f| f.right).set(&self.rt, child);
    }

    /// Writes `n.key`.
    pub fn set_key(&self, n: NodeRef, key: i64) {
        self.field(n, "key", |f| f.key).set(&self.rt, key);
    }

    /// Reads `n.key` through a write transaction: the pending value if the
    /// batch wrote it, the stored value otherwise.
    pub fn key_in(&self, tx: &Batch<'_>, n: NodeRef) -> i64 {
        self.field(n, "key", |f| f.key).get_in(tx)
    }

    /// Reads `n.left` through a write transaction (read-your-writes).
    pub fn left_in(&self, tx: &Batch<'_>, n: NodeRef) -> NodeRef {
        self.field(n, "left", |f| f.left).get_in(tx)
    }

    /// Reads `n.right` through a write transaction (read-your-writes).
    pub fn right_in(&self, tx: &Batch<'_>, n: NodeRef) -> NodeRef {
        self.field(n, "right", |f| f.right).get_in(tx)
    }

    /// Writes `n.left` through a write transaction — the batched form of
    /// [`TreeStore::set_left`] for multi-link restructurings (rotations,
    /// bulk rebuilds) that should commit as one dirty frontier.
    pub fn set_left_in(&self, tx: &mut Batch<'_>, n: NodeRef, child: NodeRef) {
        self.field(n, "left", |f| f.left).set_in(tx, child);
    }

    /// Writes `n.right` through a write transaction.
    pub fn set_right_in(&self, tx: &mut Batch<'_>, n: NodeRef, child: NodeRef) {
        self.field(n, "right", |f| f.right).set_in(tx, child);
    }

    /// Writes `n.key` through a write transaction.
    pub fn set_key_in(&self, tx: &mut Batch<'_>, n: NodeRef, key: i64) {
        self.field(n, "key", |f| f.key).set_in(tx, key);
    }

    /// In-order keys of the subtree rooted at `root` (plain reads; call from
    /// mutator code only).
    pub fn inorder(&self, root: NodeRef) -> Vec<i64> {
        let mut out = Vec::new();
        self.inorder_into(root, &mut out);
        out
    }

    fn inorder_into(&self, n: NodeRef, out: &mut Vec<i64>) {
        if n.is_nil() {
            return;
        }
        self.inorder_into(self.left(n), out);
        out.push(self.key(n));
        self.inorder_into(self.right(n), out);
    }

    /// Exhaustively computed height of the subtree at `n` (no caching; the
    /// "conventional execution" of Algorithm 1).
    pub fn height_exhaustive(&self, n: NodeRef) -> i64 {
        if n.is_nil() {
            0
        } else {
            1 + self
                .height_exhaustive(self.left(n))
                .max(self.height_exhaustive(self.right(n)))
        }
    }

    /// Builds a perfectly balanced tree over `keys` (must be sorted for BST
    /// uses) and returns its root.
    pub fn build_balanced(&self, keys: &[i64]) -> NodeRef {
        if keys.is_empty() {
            return NodeRef::NIL;
        }
        let mid = keys.len() / 2;
        let left = self.build_balanced(&keys[..mid]);
        let right = self.build_balanced(&keys[mid + 1..]);
        self.new_node(keys[mid], left, right)
    }

    /// Builds a maximally unbalanced left chain over `keys` (given in
    /// ascending order the root gets the last key).
    pub fn build_left_chain(&self, keys: &[i64]) -> NodeRef {
        let mut root = NodeRef::NIL;
        for &k in keys {
            root = self.new_node(k, root, NodeRef::NIL);
        }
        root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alphonse::Runtime;

    #[test]
    fn nil_is_nil() {
        assert!(NodeRef::NIL.is_nil());
        assert_eq!(format!("{:?}", NodeRef::NIL), "nil");
    }

    #[test]
    fn new_node_links_children() {
        let rt = Runtime::new();
        let store = TreeStore::new(&rt);
        let l = store.new_leaf(1);
        let r = store.new_leaf(3);
        let root = store.new_node(2, l, r);
        assert_eq!(store.key(root), 2);
        assert_eq!(store.left(root), l);
        assert_eq!(store.right(root), r);
        assert_eq!(store.len(), 3);
        assert!(!store.is_empty());
    }

    #[test]
    fn inorder_visits_sorted() {
        let rt = Runtime::new();
        let store = TreeStore::new(&rt);
        let root = store.build_balanced(&[1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(store.inorder(root), vec![1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(store.height_exhaustive(root), 3);
    }

    #[test]
    fn left_chain_has_linear_height() {
        let rt = Runtime::new();
        let store = TreeStore::new(&rt);
        let root = store.build_left_chain(&[1, 2, 3, 4, 5]);
        assert_eq!(store.height_exhaustive(root), 5);
        assert_eq!(store.inorder(root), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn set_children_relinks() {
        let rt = Runtime::new();
        let store = TreeStore::new(&rt);
        let a = store.new_leaf(1);
        let b = store.new_leaf(2);
        store.set_right(a, b);
        assert_eq!(store.right(a), b);
        store.set_right(a, NodeRef::NIL);
        assert_eq!(store.right(a), NodeRef::NIL);
        store.set_key(b, 99);
        assert_eq!(store.key(b), 99);
    }

    #[test]
    fn batched_relink_commits_one_frontier() {
        let rt = Runtime::new();
        let store = TreeStore::new(&rt);
        let a = store.new_leaf(1);
        let b = store.new_leaf(2);
        let c = store.new_leaf(3);
        // Swap b and c between a's child slots in one transaction.
        store.set_left(a, b);
        store.set_right(a, c);
        rt.batch(|tx| {
            store.set_left_in(tx, a, c);
            store.set_right_in(tx, a, b);
            store.set_key_in(tx, a, 10);
        });
        assert_eq!(store.left(a), c);
        assert_eq!(store.right(a), b);
        assert_eq!(store.key(a), 10);
        assert_eq!(rt.stats().batches, 1);
        assert_eq!(rt.stats().batched_writes, 3);
    }

    #[test]
    #[should_panic(expected = "of nil")]
    fn reading_nil_fields_panics() {
        let rt = Runtime::new();
        let store = TreeStore::new(&rt);
        let _ = store.left(NodeRef::NIL);
    }
}
