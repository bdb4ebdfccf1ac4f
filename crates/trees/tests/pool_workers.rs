//! An eager maintained-height tree on two executor-pool workers: the
//! `height` instances of one level run concurrently and both read child
//! links from the shared `TreeStore`, so the store must admit concurrent
//! readers. Every wave is checked against a plain-Rust mirror.

use alphonse::{Runtime, Strategy};
use alphonse_trees::{MaintainedTree, NodeRef};
use std::collections::HashMap;

/// Deterministic xorshift64 stream, so failures reproduce.
fn rng(mut state: u64) -> impl FnMut(u64) -> u64 {
    move |bound| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % bound
    }
}

/// Mirror of the tree's links: node -> (left, right).
type Links = HashMap<NodeRef, (NodeRef, NodeRef)>;

fn mirror_height(links: &Links, n: NodeRef) -> i64 {
    if n.is_nil() {
        return 0;
    }
    let (l, r) = links[&n];
    1 + mirror_height(links, l).max(mirror_height(links, r))
}

#[test]
fn eager_heights_on_two_workers_match_mirror() {
    let rt = Runtime::new();
    rt.set_parallelism(2);
    let tree = MaintainedTree::with_strategy(&rt, Strategy::Eager);
    let store = tree.store().clone();
    let root = store.build_balanced(&(0..1023).collect::<Vec<_>>());
    let mut links = Links::new();
    let mut stack = vec![root];
    while let Some(n) = stack.pop() {
        if !n.is_nil() {
            let (l, r) = (store.left(n), store.right(n));
            links.insert(n, (l, r));
            stack.extend([l, r]);
        }
    }
    let leaves: Vec<NodeRef> = links
        .iter()
        .filter(|(_, &(l, r))| l.is_nil() && r.is_nil())
        .map(|(&n, _)| n)
        .collect();
    let check = |links: &Links| {
        for &n in links.keys() {
            assert_eq!(tree.height(n), mirror_height(links, n), "{n:?}");
        }
    };
    check(&links);

    let mut next = rng(0x2545_f491_4f6c_dd1d);
    for _ in 0..40 {
        // Grow or prune up to 32 of the original leaves per wave; the height
        // instances above them form wide levels.
        for _ in 0..1 + next(32) {
            let leaf = leaves[next(leaves.len() as u64) as usize];
            let (l, _) = links[&leaf];
            let new_left = if l.is_nil() {
                let fresh = store.new_leaf(-1);
                links.insert(fresh, (NodeRef::NIL, NodeRef::NIL));
                fresh
            } else {
                NodeRef::NIL
            };
            store.set_left(leaf, new_left);
            links.get_mut(&leaf).expect("leaf mirrored").0 = new_left;
        }
        rt.propagate();
        check(&links);
    }
    let stats = rt.stats();
    assert!(stats.parallel_levels > 0, "no level ran on the pool");
    assert!(stats.parallel_executions > stats.parallel_levels);
}
