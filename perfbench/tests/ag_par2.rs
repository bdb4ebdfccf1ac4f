//! Why `ag_eager_par1` drains its levels inline: the same eager sum tree on
//! two pool workers panics, because `AgTree` locks its node table fail-stop
//! ("attributed tree re-entered while locked") and two workers evaluate
//! attribute equations at once. Ignored until agkit runs on pool workers;
//! `cargo test --manifest-path perfbench/Cargo.toml -- --ignored` shows the
//! failure. When it passes, the workload should move to two workers.

use alphonse::{Runtime, Strategy};
use alphonse_agkit::{AgEvaluator, AgTree, AttrVal, Grammar};
use std::sync::Arc;

#[test]
#[ignore = "agkit: AgTree panics when two pool workers evaluate equations"]
fn eager_sum_tree_on_two_workers() {
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
    let leaves: Vec<_> = (0..256)
        .map(|i| tree.new_node(leaf, vec![AttrVal::Int(i)]))
        .collect();
    let mut level = leaves.clone();
    while level.len() > 1 {
        level = level
            .chunks(2)
            .map(|pair| tree.build(plus, vec![], pair))
            .collect();
    }
    let eval = AgEvaluator::with_strategy(&rt, Arc::clone(&tree), Strategy::Eager);
    assert_eq!(eval.syn(level[0], value).as_int(), (0..256).sum::<i64>());
    for &l in &leaves {
        tree.set_terminal(l, 0, AttrVal::Int(1));
    }
    rt.propagate();
    assert_eq!(eval.syn(level[0], value).as_int(), 256);
}
