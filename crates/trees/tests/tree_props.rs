//! Property-based testing of the paper's tree examples against oracles.

use alphonse::Runtime;
use alphonse_trees::{ClassicAvl, MaintainedAvl, MaintainedTree, NodeRef};
use proptest::prelude::*;
use std::collections::BTreeSet;

#[derive(Debug, Clone, Copy)]
enum TreeOp {
    Insert(i64),
    Remove(i64),
    Rebalance,
    Contains(i64),
}

fn op_strategy() -> impl Strategy<Value = TreeOp> {
    prop_oneof![
        3 => (-50i64..50).prop_map(TreeOp::Insert),
        2 => (-50i64..50).prop_map(TreeOp::Remove),
        1 => Just(TreeOp::Rebalance),
        2 => (-50i64..50).prop_map(TreeOp::Contains),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The maintained AVL agrees with a BTreeSet oracle and with the
    /// textbook AVL under arbitrary operation sequences, and its invariants
    /// hold at every rebalance point.
    #[test]
    fn maintained_avl_matches_oracle(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let rt = Runtime::new();
        let mut avl = MaintainedAvl::new(&rt);
        let mut classic = ClassicAvl::new();
        let mut oracle = BTreeSet::new();
        for op in ops {
            match op {
                TreeOp::Insert(k) => {
                    let expect = oracle.insert(k);
                    prop_assert_eq!(avl.insert(k), expect);
                    prop_assert_eq!(classic.insert(k), expect);
                }
                TreeOp::Remove(k) => {
                    let expect = oracle.remove(&k);
                    prop_assert_eq!(avl.remove(k), expect);
                    prop_assert_eq!(classic.remove(k), expect);
                }
                TreeOp::Rebalance => {
                    avl.rebalance();
                    prop_assert!(avl.is_avl());
                    prop_assert!(avl.is_bst() || avl.len() < 2);
                }
                TreeOp::Contains(k) => {
                    prop_assert_eq!(avl.contains(k), oracle.contains(&k));
                    prop_assert_eq!(classic.contains(k), oracle.contains(&k));
                }
            }
            prop_assert_eq!(avl.len(), oracle.len());
        }
        avl.rebalance();
        prop_assert!(avl.is_avl());
        let expect_keys: Vec<i64> = oracle.into_iter().collect();
        prop_assert_eq!(avl.keys(), expect_keys.clone());
        prop_assert_eq!(classic.keys(), expect_keys);
    }

    /// Maintained heights always agree with the exhaustive recomputation,
    /// across arbitrary subtree relinks.
    #[test]
    fn maintained_height_matches_exhaustive(
        sizes in proptest::collection::vec(1usize..40, 1..6),
        relinks in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<bool>()), 0..20),
    ) {
        let rt = Runtime::new();
        let tree = MaintainedTree::new(&rt);
        let store = tree.store();
        // A forest of balanced trees whose roots we relink among each other.
        let mut roots: Vec<NodeRef> = sizes
            .iter()
            .map(|&n| store.build_balanced(&(0..n as i64).collect::<Vec<_>>()))
            .collect();
        prop_assert_eq!(tree.height(roots[0]), store.height_exhaustive(roots[0]));
        for (a, b, left_side) in relinks {
            let target = roots[a as usize % roots.len()];
            let donor = roots[b as usize % roots.len()];
            if target == donor || target.is_nil() {
                continue;
            }
            // Graft donor under target (may create shared structure between
            // forest entries, which is fine for height computation as long
            // as no cycle forms: grafting an *earlier-created* root under a
            // later one can cycle, so only graft strictly newer trees).
            if donor.index() <= target.index() {
                continue;
            }
            if left_side {
                store.set_left(target, donor);
            } else {
                store.set_right(target, donor);
            }
            roots.retain(|r| *r != donor);
            for &r in &roots {
                prop_assert_eq!(tree.height(r), store.height_exhaustive(r));
            }
        }
    }
}

/// Work counters of a fixed AVL session: sorted inserts (rotations make
/// `balance` re-enter itself, Section 7.3), removals, and the field writes
/// `balance` makes after reading them. Pinned to the figures of the
/// drop-and-re-record edge scheme: retaining edges across executions must
/// not change how much is dirtied or executed.
#[test]
fn reentrant_balance_work_matches_eager_edge_recording() {
    let rt = Runtime::new();
    let mut avl = MaintainedAvl::new(&rt);
    for k in 0..96 {
        avl.insert(k);
        avl.rebalance();
    }
    for k in (0..96).step_by(3) {
        avl.remove(k);
        avl.rebalance();
    }
    avl.insert_all([200, 150, 175, 160, 170]);
    avl.rebalance();
    assert!(avl.is_avl() && avl.is_bst());
    let s = rt.stats();
    assert_eq!((s.executions, s.dirtied, s.comparisons), (1822, 2339, 4056));
}
