//! `ag_eager_par1`: an attribute-grammar sum tree evaluated eagerly with
//! level-at-a-time draining (`set_parallelism(1)`), edited in waves of leaf
//! changes.

use crate::harness::{phase, Checker, Setup, Workload};
use crate::oracle::leaf_sum;
use crate::spans::Tracer;
use alphonse::{Runtime, Strategy};
use alphonse_agkit::{AgEvaluator, AgNodeId, AgTree, AttrVal, ExhaustiveAg, Grammar, SynId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Single-leaf edits per wave.
const WAVE_SINGLES: usize = 32;
/// Sibling pairs per wave edited by +d/-d, leaving their parent's sum
/// unchanged so cutoff stops propagation there.
const WAVE_PAIRS: usize = 16;
/// Whole height levels drained at a time, executed inline. Two or more
/// workers would run attribute equations on pool threads, which `AgTree`
/// does not support: it locks its node table fail-stop.
const PARALLELISM: usize = 1;

pub struct Inputs {
    /// A power of two; leaves `2i` and `2i + 1` are siblings.
    leaves: Vec<i64>,
    seed: u64,
}

struct Built {
    tree: Arc<AgTree>,
    value: SynId,
    root: AgNodeId,
    leaf_ids: Vec<AgNodeId>,
}

/// The sum grammar and a balanced tree over `leaves`.
fn build_tree(rt: &Runtime, leaves: &[i64]) -> Built {
    let mut g = Grammar::builder();
    let value = g.synthesized("value");
    let leaf = g.production("Leaf", 0, 1);
    let plus = g.production("Plus", 2, 0);
    g.syn_eq(leaf, value, |ctx| ctx.terminal(0));
    g.syn_eq(plus, value, move |ctx| {
        AttrVal::Int(ctx.child_syn(0, value).as_int() + ctx.child_syn(1, value).as_int())
    });
    let tree = AgTree::new(rt, Arc::new(g.build()));
    let leaf_ids: Vec<AgNodeId> = leaves
        .iter()
        .map(|&v| tree.new_node(leaf, vec![AttrVal::Int(v)]))
        .collect();
    let mut level = leaf_ids.clone();
    while level.len() > 1 {
        level = level
            .chunks(2)
            .map(|pair| tree.build(plus, vec![], pair))
            .collect();
    }
    Built {
        tree,
        value,
        root: level[0],
        leaf_ids,
    }
}

pub struct AgEagerPar1 {
    rt: Runtime,
    ag: Built,
    eval: AgEvaluator,
    mirror: Vec<i64>,
    rng: SmallRng,
}

impl Workload for AgEagerPar1 {
    type Inputs = Inputs;

    fn inputs(seed: u64, small: bool) -> Inputs {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = if small { 256 } else { 4_096 };
        Inputs {
            leaves: (0..n).map(|_| rng.gen_range(0..100)).collect(),
            seed,
        }
    }

    fn setup(inp: &Inputs, tr: &mut Tracer, ck: &mut Checker) -> (AgEagerPar1, Setup) {
        let (rt, construct) = phase(tr, "setup.construct", |_| {
            let rt = Runtime::new();
            rt.set_parallelism(PARALLELISM);
            rt
        });
        let ((ag, eval), build) = phase(tr, "setup.build", |tr| {
            let ag = tr.span("agkit.build", || build_tree(&rt, &inp.leaves));
            let eval = tr.span("agkit.evaluator_new", || {
                AgEvaluator::with_strategy(&rt, Arc::clone(&ag.tree), Strategy::Eager)
            });
            (ag, eval)
        });
        let (sum, first_query) = phase(tr, "setup.first_query", |tr| {
            tr.span("agkit.syn", || eval.syn(ag.root, ag.value))
        });
        ck.check(sum.as_int(), leaf_sum(&inp.leaves));
        let w = AgEagerPar1 {
            rt,
            ag,
            eval,
            mirror: inp.leaves.clone(),
            rng: SmallRng::seed_from_u64(inp.seed ^ 0x5EED_0004),
        };
        (
            w,
            Setup {
                construct,
                build,
                first_query,
            },
        )
    }

    fn conventional(inp: &Inputs, tr: &mut Tracer, ck: &mut Checker) -> f64 {
        // The same tree, evaluated by the exhaustive baseline evaluator.
        let (sum, secs) = phase(tr, "setup.conventional", |_| {
            let rt = Runtime::new();
            let ag = build_tree(&rt, &inp.leaves);
            ExhaustiveAg::new(ag.tree).syn(ag.root, ag.value)
        });
        ck.check(sum.as_int(), leaf_sum(&inp.leaves));
        secs
    }

    fn runtime(&self) -> &Runtime {
        &self.rt
    }

    fn update(&mut self, tr: &mut Tracer, ck: &mut Checker) -> Duration {
        let n = self.mirror.len();
        let mut edits: Vec<(usize, i64)> = Vec::with_capacity(WAVE_SINGLES + 2 * WAVE_PAIRS);
        for _ in 0..WAVE_SINGLES {
            let i = self.rng.gen_range(0..n);
            self.mirror[i] = self.rng.gen_range(0..100);
            edits.push((i, self.mirror[i]));
        }
        for _ in 0..WAVE_PAIRS {
            let l = 2 * self.rng.gen_range(0..n / 2);
            let d: i64 = self.rng.gen_range(1..50);
            self.mirror[l] += d;
            self.mirror[l + 1] -= d;
            edits.push((l, self.mirror[l]));
            edits.push((l + 1, self.mirror[l + 1]));
        }
        let want = leaf_sum(&self.mirror);
        let ag = &self.ag;

        let t = Instant::now();
        tr.begin("update");
        for &(i, v) in &edits {
            let leaf = ag.leaf_ids[i];
            tr.span("agkit.set_terminal", || {
                ag.tree.set_terminal(leaf, 0, AttrVal::Int(v))
            });
        }
        tr.span("core.propagate", || self.rt.propagate());
        let sum = tr.span("agkit.syn", || self.eval.syn(ag.root, ag.value));
        tr.end();
        let dt = t.elapsed();

        ck.check(sum.as_int(), want);
        dt
    }
}
