//! An eager attributed tree on two executor-pool workers: the equations of
//! one height level run concurrently and both read the tree's node table,
//! so the table must admit concurrent readers. Every wave is checked
//! against a plain-Rust mirror of the tree.

use alphonse::{Runtime, Strategy};
use alphonse_agkit::{AgEvaluator, AgNodeId, AgTree, AttrVal, Grammar};
use std::sync::Arc;

/// Deterministic xorshift64 stream, so failures reproduce.
fn rng(mut state: u64) -> impl FnMut(u64) -> u64 {
    move |bound| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % bound
    }
}

#[test]
fn eager_sum_tree_on_two_workers_matches_mirror() {
    const LEAVES: usize = 256;
    let rt = Runtime::new();
    rt.set_parallelism(2);
    let mut g = Grammar::builder();
    let value = g.synthesized("value");
    let leaf = g.production("Leaf", 0, 1);
    let plus = g.production("Plus", 2, 0);
    g.syn_eq(leaf, value, |ctx| ctx.terminal(0));
    g.syn_eq(plus, value, move |ctx| {
        AttrVal::Int(ctx.child_syn(0, value).as_int() + ctx.child_syn(1, value).as_int())
    });
    let tree = AgTree::new(&rt, Arc::new(g.build()));

    // The mirror: leaf values, and the Plus nodes with their children as
    // indices into `sums` (leaves first, then Plus nodes bottom-up).
    let mut mirror: Vec<i64> = (0..LEAVES as i64).collect();
    let leaves: Vec<AgNodeId> = mirror
        .iter()
        .map(|&v| tree.new_node(leaf, vec![AttrVal::Int(v)]))
        .collect();
    let mut nodes = leaves.clone();
    let mut plus_nodes: Vec<(AgNodeId, usize, usize)> = Vec::new();
    let mut level: Vec<usize> = (0..LEAVES).collect();
    while level.len() > 1 {
        level = level
            .chunks(2)
            .map(|pair| {
                let n = tree.build(plus, vec![], &[nodes[pair[0]], nodes[pair[1]]]);
                plus_nodes.push((n, pair[0], pair[1]));
                nodes.push(n);
                nodes.len() - 1
            })
            .collect();
    }
    let eval = AgEvaluator::with_strategy(&rt, Arc::clone(&tree), Strategy::Eager);
    let check = |mirror: &[i64]| {
        let mut sums: Vec<i64> = mirror.to_vec();
        for &(n, l, r) in &plus_nodes {
            sums.push(sums[l] + sums[r]);
            assert_eq!(eval.syn(n, value).as_int(), sums[sums.len() - 1], "{n}");
        }
    };
    check(&mirror);

    let mut next = rng(0x9e37_79b9_7f4a_7c15);
    for wave in 0..40 {
        // Up to 32 leaf edits per wave: the Plus nodes above them form wide
        // levels. Odd waves move `d` from one leaf to another, so the root
        // sum is unchanged and cutoff stops that part of the wave early.
        for _ in 0..1 + next(32) {
            let a = next(LEAVES as u64) as usize;
            let d = next(100) as i64 - 50;
            mirror[a] += d;
            if wave % 2 == 1 {
                let b = next(LEAVES as u64) as usize;
                mirror[b] -= d;
                tree.set_terminal(leaves[b], 0, AttrVal::Int(mirror[b]));
            }
            tree.set_terminal(leaves[a], 0, AttrVal::Int(mirror[a]));
        }
        rt.propagate();
        check(&mirror);
    }
    let stats = rt.stats();
    assert!(stats.parallel_levels > 0, "no level ran on the pool");
    assert!(stats.parallel_executions > stats.parallel_levels);
}
