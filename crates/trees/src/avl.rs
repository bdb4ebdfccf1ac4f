//! Algorithm 11: self-balancing AVL trees as an Alphonse program.
//!
//! Section 7.3 of the paper shows a striking use of maintained methods with
//! side effects: `balance` recursively balances both children, then performs
//! AVL rotations *by writing the tracked child pointers*, and returns the
//! (possibly new) subtree root. Because the method is maintained, re-calling
//! `balance` on the root after a batch of BST mutations only re-executes the
//! instances whose subtrees actually changed — insertion/lookup/deletion
//! remain the plain unbalanced-BST algorithms, and the tree is both an
//! on-line and an off-line balancer.

use crate::arena::{NodeRef, TreeStore};
use alphonse::{Memo, Runtime};
use std::fmt;
use std::sync::Arc;

/// A self-balancing binary search tree in the style of the paper's
/// Algorithm 11.
///
/// The mutator performs ordinary BST insertions and deletions; calling
/// [`MaintainedAvl::rebalance`] (the paper says "prior to performing a
/// search operation") restores the AVL shape incrementally.
///
/// # Example
///
/// ```
/// use alphonse::Runtime;
/// use alphonse_trees::MaintainedAvl;
///
/// let rt = Runtime::new();
/// let mut avl = MaintainedAvl::new(&rt);
/// for k in 0..100 {
///     avl.insert(k); // sorted insertion: worst case for a plain BST
/// }
/// avl.rebalance();
/// assert!(avl.is_avl());
/// assert!(avl.contains(42));
/// assert!(!avl.contains(1000));
/// ```
pub struct MaintainedAvl {
    store: Arc<TreeStore>,
    height: Memo<NodeRef, i64>,
    balance: Memo<NodeRef, NodeRef>,
    root: NodeRef,
    len: usize,
}

impl fmt::Debug for MaintainedAvl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MaintainedAvl")
            .field("len", &self.len)
            .field("root", &self.root)
            .finish()
    }
}

impl MaintainedAvl {
    /// Creates an empty tree bound to `rt`.
    pub fn new(rt: &Runtime) -> Self {
        let store = TreeStore::new(rt);
        let s = Arc::clone(&store);
        let height = rt.memo_recursive("avl_height", move |rt, me, &t: &NodeRef| {
            if t.is_nil() {
                return 0i64;
            }
            let l = me.call(rt, s.left(t));
            let r = me.call(rt, s.right(t));
            l.max(r) + 1
        });
        let s = Arc::clone(&store);
        let h = height.clone();
        let balance = rt.memo_recursive("avl_balance", move |rt, me, &t: &NodeRef| {
            if t.is_nil() {
                return t; // BalanceNil
            }
            // Balance both subtrees first (cached if untouched).
            let bl = me.call(rt, s.left(t));
            s.set_left(t, bl);
            let br = me.call(rt, s.right(t));
            s.set_right(t, br);
            let diff = |rt: &Runtime, n: NodeRef| -> i64 {
                h.call(rt, s.left(n)) - h.call(rt, s.right(n))
            };
            let d = diff(rt, t);
            if d > 1 {
                // Left-heavy. A left-right shape needs the inner rotation
                // first (the paper's `RotateLeft(t.left)` arm).
                if diff(rt, s.left(t)) < 0 {
                    let new_l = rotate_left(&s, s.left(t));
                    s.set_left(t, new_l);
                }
                let new_t = rotate_right(&s, t);
                // `RotateRight(t).balance()`: the rotation may leave the
                // demoted node (now a child) unbalanced when changes were
                // batched, so balance the new root recursively.
                me.call(rt, new_t)
            } else if d < -1 {
                if diff(rt, s.right(t)) > 0 {
                    let new_r = rotate_right(&s, s.right(t));
                    s.set_right(t, new_r);
                }
                let new_t = rotate_left(&s, t);
                me.call(rt, new_t)
            } else {
                t
            }
        });
        MaintainedAvl {
            store,
            height,
            balance,
            root: NodeRef::NIL,
            len: 0,
        }
    }

    /// The underlying node storage.
    pub fn store(&self) -> &Arc<TreeStore> {
        &self.store
    }

    /// Current root (valid after the last mutation or rebalance).
    pub fn root(&self) -> NodeRef {
        self.root
    }

    /// Number of keys in the tree.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the tree holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maintained height of the current root.
    pub fn height(&self) -> i64 {
        self.height.call(self.store.runtime(), self.root)
    }

    /// Plain BST insertion (the mutator side — unchanged from an unbalanced
    /// tree, as the paper emphasizes). Duplicate keys are ignored.
    /// Returns `true` if the key was inserted.
    pub fn insert(&mut self, key: i64) -> bool {
        if self.root.is_nil() {
            self.root = self.store.new_leaf(key);
            self.len = 1;
            return true;
        }
        let mut cur = self.root;
        loop {
            let k = self.store.key(cur);
            if key == k {
                return false;
            }
            if key < k {
                let l = self.store.left(cur);
                if l.is_nil() {
                    let leaf = self.store.new_leaf(key);
                    self.store.set_left(cur, leaf);
                    self.len += 1;
                    return true;
                }
                cur = l;
            } else {
                let r = self.store.right(cur);
                if r.is_nil() {
                    let leaf = self.store.new_leaf(key);
                    self.store.set_right(cur, leaf);
                    self.len += 1;
                    return true;
                }
                cur = r;
            }
        }
    }

    /// Inserts many keys in one write transaction — the batched form of
    /// [`MaintainedAvl::insert`]. The BST descent reads child links through
    /// the transaction (read-your-writes), so later keys see the leaves
    /// linked by earlier ones, but the tracked link writes commit as a
    /// single deduplicated dirty frontier. Returns the number of keys
    /// actually inserted (duplicates are ignored, as in `insert`).
    pub fn insert_all(&mut self, keys: impl IntoIterator<Item = i64>) -> usize {
        let store = Arc::clone(&self.store);
        let rt = store.runtime().clone();
        let mut inserted = 0usize;
        let mut root = self.root;
        rt.batch(|tx| {
            'keys: for key in keys {
                if root.is_nil() {
                    root = store.new_leaf(key);
                    inserted += 1;
                    continue;
                }
                let mut cur = root;
                loop {
                    let k = store.key_in(tx, cur);
                    if key == k {
                        continue 'keys;
                    }
                    if key < k {
                        let l = store.left_in(tx, cur);
                        if l.is_nil() {
                            let leaf = store.new_leaf(key);
                            store.set_left_in(tx, cur, leaf);
                            inserted += 1;
                            continue 'keys;
                        }
                        cur = l;
                    } else {
                        let r = store.right_in(tx, cur);
                        if r.is_nil() {
                            let leaf = store.new_leaf(key);
                            store.set_right_in(tx, cur, leaf);
                            inserted += 1;
                            continue 'keys;
                        }
                        cur = r;
                    }
                }
            }
        });
        self.root = root;
        self.len += inserted;
        inserted
    }

    /// Plain BST deletion. Returns `true` if the key was present.
    pub fn remove(&mut self, key: i64) -> bool {
        let (removed, new_root) = remove_rec(&self.store, self.root, key);
        self.root = new_root;
        if removed {
            self.len -= 1;
        }
        removed
    }

    /// Re-establishes the AVL property incrementally by calling the
    /// maintained `balance` method on the root, exactly as the paper
    /// prescribes before search operations.
    pub fn rebalance(&mut self) {
        self.root = self.balance.call(self.store.runtime(), self.root);
    }

    /// Rebalances, then performs a plain BST search — O(log n) thanks to the
    /// maintained balance.
    pub fn contains(&mut self, key: i64) -> bool {
        self.rebalance();
        let mut cur = self.root;
        while !cur.is_nil() {
            let k = self.store.key(cur);
            if key == k {
                return true;
            }
            cur = if key < k {
                self.store.left(cur)
            } else {
                self.store.right(cur)
            };
        }
        false
    }

    /// Sorted key sequence (for validation).
    pub fn keys(&self) -> Vec<i64> {
        self.store.inorder(self.root)
    }

    /// Checks the AVL balance property exhaustively (validation only).
    pub fn is_avl(&self) -> bool {
        fn check(store: &TreeStore, n: NodeRef) -> Option<i64> {
            if n.is_nil() {
                return Some(0);
            }
            let l = check(store, store.left(n))?;
            let r = check(store, store.right(n))?;
            ((l - r).abs() <= 1).then_some(l.max(r) + 1)
        }
        check(&self.store, self.root).is_some()
    }

    /// Checks the binary-search-tree ordering property (validation only).
    pub fn is_bst(&self) -> bool {
        let keys = self.keys();
        keys.windows(2).all(|w| w[0] < w[1])
    }

    /// The balance memo, exposed for work-accounting benchmarks.
    pub fn balance_memo(&self) -> &Memo<NodeRef, NodeRef> {
        &self.balance
    }
}

/// `RotateRight` from Algorithm 11: `s := t.left; b := s.right;
/// s.right := t; t.left := b; RETURN s`.
fn rotate_right(store: &TreeStore, t: NodeRef) -> NodeRef {
    let s = store.left(t);
    let b = store.right(s);
    store.set_right(s, t);
    store.set_left(t, b);
    s
}

/// `RotateLeft` from Algorithm 11 (mirror image).
fn rotate_left(store: &TreeStore, t: NodeRef) -> NodeRef {
    let s = store.right(t);
    let b = store.left(s);
    store.set_left(s, t);
    store.set_right(t, b);
    s
}

/// Standard BST removal returning (removed?, new subtree root).
fn remove_rec(store: &TreeStore, n: NodeRef, key: i64) -> (bool, NodeRef) {
    if n.is_nil() {
        return (false, n);
    }
    let k = store.key(n);
    if key < k {
        let (removed, nl) = remove_rec(store, store.left(n), key);
        if removed {
            store.set_left(n, nl);
        }
        (removed, n)
    } else if key > k {
        let (removed, nr) = remove_rec(store, store.right(n), key);
        if removed {
            store.set_right(n, nr);
        }
        (removed, n)
    } else {
        let l = store.left(n);
        let r = store.right(n);
        if l.is_nil() {
            (true, r)
        } else if r.is_nil() {
            (true, l)
        } else {
            // Replace with the in-order successor's key, then delete it from
            // the right subtree.
            let mut succ = r;
            while !store.left(succ).is_nil() {
                succ = store.left(succ);
            }
            let sk = store.key(succ);
            store.set_key(n, sk);
            let (_, nr) = remove_rec(store, r, sk);
            store.set_right(n, nr);
            (true, n)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tree_properties() {
        let rt = Runtime::new();
        let mut avl = MaintainedAvl::new(&rt);
        assert!(avl.is_empty());
        assert_eq!(avl.len(), 0);
        assert!(avl.is_avl());
        assert!(!avl.contains(1));
        avl.rebalance();
        assert_eq!(avl.root(), NodeRef::NIL);
    }

    #[test]
    fn sorted_insertions_balance() {
        let rt = Runtime::new();
        let mut avl = MaintainedAvl::new(&rt);
        for k in 0..64 {
            assert!(avl.insert(k));
        }
        assert!(!avl.insert(10), "duplicate rejected");
        avl.rebalance();
        assert!(avl.is_avl(), "AVL property holds");
        assert!(avl.is_bst(), "ordering preserved by rotations");
        assert_eq!(avl.keys(), (0..64).collect::<Vec<_>>());
        assert!(avl.height() <= 8, "height {} for 64 keys", avl.height());
    }

    #[test]
    fn rebalance_after_each_insert_is_incremental() {
        let rt = Runtime::new();
        let mut avl = MaintainedAvl::new(&rt);
        for k in 0..128 {
            avl.insert(k);
            avl.rebalance();
            assert!(avl.is_avl());
        }
        // The final per-insert rebalance touches O(log n) instances, not
        // O(n): measure the last one.
        avl.insert(1000);
        let before = rt.stats();
        avl.rebalance();
        let d = rt.stats().delta_since(&before);
        assert!(
            d.executions <= 64,
            "single-insert rebalance re-ran {} instances",
            d.executions
        );
        assert!(avl.is_avl());
    }

    #[test]
    fn reverse_sorted_insertions_balance() {
        let rt = Runtime::new();
        let mut avl = MaintainedAvl::new(&rt);
        for k in (0..64).rev() {
            avl.insert(k);
            avl.rebalance();
        }
        assert!(avl.is_avl());
        assert!(avl.is_bst());
        assert_eq!(avl.len(), 64);
    }

    #[test]
    fn batched_inserts_then_one_rebalance() {
        // The off-line usage: build a degenerate chain in one write
        // transaction, balance once.
        let rt = Runtime::new();
        let mut avl = MaintainedAvl::new(&rt);
        assert_eq!(avl.insert_all(0..256), 256);
        assert_eq!(rt.stats().batches, 1);
        avl.rebalance();
        assert!(avl.is_avl());
        assert!(avl.is_bst());
        assert_eq!(avl.keys().len(), 256);
        assert!(avl.height() <= 10);
    }

    #[test]
    fn insert_all_matches_sequential_inserts() {
        let keys = [13i64, 5, 21, 13, 8, 1, 34, 2, 5, 55, 3];
        let rt_seq = Runtime::new();
        let mut seq = MaintainedAvl::new(&rt_seq);
        let mut n_seq = 0;
        for &k in &keys {
            n_seq += usize::from(seq.insert(k));
        }
        let rt_bulk = Runtime::new();
        let mut bulk = MaintainedAvl::new(&rt_bulk);
        let n_bulk = bulk.insert_all(keys);
        assert_eq!(n_bulk, n_seq);
        assert_eq!(bulk.len(), seq.len());
        seq.rebalance();
        bulk.rebalance();
        assert_eq!(bulk.keys(), seq.keys());
        assert!(bulk.is_avl() && bulk.is_bst());
    }

    #[test]
    fn contains_finds_inserted_keys() {
        let rt = Runtime::new();
        let mut avl = MaintainedAvl::new(&rt);
        for k in [5, 1, 9, 3, 7, 2, 8] {
            avl.insert(k);
        }
        for k in [5, 1, 9, 3, 7, 2, 8] {
            assert!(avl.contains(k));
        }
        assert!(!avl.contains(4));
        assert!(!avl.contains(0));
    }

    #[test]
    fn remove_leaf_and_internal_nodes() {
        let rt = Runtime::new();
        let mut avl = MaintainedAvl::new(&rt);
        for k in 0..32 {
            avl.insert(k);
        }
        avl.rebalance();
        assert!(avl.remove(0), "leaf");
        assert!(avl.remove(16), "internal");
        assert!(!avl.remove(99), "absent");
        avl.rebalance();
        assert!(avl.is_avl());
        assert!(avl.is_bst());
        assert_eq!(avl.len(), 30);
        assert!(!avl.contains(0));
        assert!(!avl.contains(16));
        assert!(avl.contains(17));
    }

    #[test]
    fn interleaved_inserts_removes_stay_consistent() {
        let rt = Runtime::new();
        let mut avl = MaintainedAvl::new(&rt);
        let mut expected = std::collections::BTreeSet::new();
        // Deterministic pseudo-random walk.
        let mut x: u64 = 0x243F_6A88_85A3_08D3;
        for _ in 0..400 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (x >> 33) as i64 % 64;
            if x & 4 == 0 {
                assert_eq!(avl.insert(key), expected.insert(key));
            } else {
                assert_eq!(avl.remove(key), expected.remove(&key));
            }
            if x & 3 == 0 {
                avl.rebalance();
                assert!(avl.is_avl());
            }
        }
        avl.rebalance();
        assert!(avl.is_avl());
        assert_eq!(avl.keys(), expected.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn reentrant_balance_keeps_edge_dedup_sound() {
        // `avl_balance` re-enters itself after a rotation (it calls the memo
        // on the rotated root while the original execution is still on the
        // stack): the inner frame logs nodes the superseded outer frame
        // already logged, the outer frame's log is dropped unreconciled and
        // the inner one decides the node's edges. If that broke, the
        // enclosing frames would either drop edges (stale results after
        // mutations) or duplicate them. Sorted insertion maximizes
        // rotations.
        let rt = Runtime::new();
        let mut avl = MaintainedAvl::new(&rt);
        for k in 0..128 {
            avl.insert(k);
            avl.rebalance();
            assert!(avl.is_avl());
        }
        assert!(rt.stats().dedup_hits > 0, "rotations revisit fields");
        // Edges recorded across re-entrant executions must still trigger
        // recomputation: mutate a deep key and check the tree heals.
        assert!(avl.remove(0));
        assert!(avl.remove(1));
        avl.rebalance();
        assert!(avl.is_avl());
        assert!(avl.is_bst());
        assert_eq!(avl.keys(), (2..128).collect::<Vec<_>>());
    }
}
