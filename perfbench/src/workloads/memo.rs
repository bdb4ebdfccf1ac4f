//! `memo_eager_par2`: a sum tree of eager core memos over leaf variables,
//! on `set_parallelism(2)`, edited in batched waves of leaf changes. Wide
//! low levels run on the two-worker executor pool; narrow upper levels run
//! inline.

use crate::harness::{phase, Checker, Setup, Workload};
use crate::oracle::leaf_sum;
use crate::spans::Tracer;
use alphonse::{Memo, Runtime, Strategy, Var};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Single-leaf edits per wave.
const WAVE_SINGLES: usize = 64;
/// Sibling pairs per wave edited by +d/-d, leaving their parent's sum
/// unchanged so cutoff stops propagation there.
const WAVE_PAIRS: usize = 32;
/// Executor-pool workers: multi-node levels run on this many threads.
const PARALLELISM: usize = 2;

pub struct Inputs {
    /// A power of two; leaves `2i` and `2i + 1` are siblings.
    leaves: Vec<i64>,
    seed: u64,
}

/// Node `i` of a complete binary tree in heap order: children `2i + 1` and
/// `2i + 2`; the last `n` of the `2n - 1` nodes are the leaves.
type Node = u32;

pub struct MemoEagerPar2 {
    rt: Runtime,
    vars: Vec<Var<i64>>,
    sum: Memo<Node, i64>,
    mirror: Vec<i64>,
    rng: SmallRng,
}

/// The eager sum memo over `vars`, one instance per tree node.
fn sum_tree(rt: &Runtime, vars: &[Var<i64>]) -> Memo<Node, i64> {
    let vars = vars.to_vec();
    let first_leaf = (vars.len() - 1) as Node;
    rt.memo_recursive_with("sum", Strategy::Eager, move |rt, sum, &i: &Node| {
        if i >= first_leaf {
            vars[(i - first_leaf) as usize].get(rt)
        } else {
            sum.call(rt, 2 * i + 1) + sum.call(rt, 2 * i + 2)
        }
    })
}

/// The conventional counterpart: every node's sum from scratch, bottom-up,
/// with the root's two subtrees summed on two threads of their own, as the
/// runtime's two pool workers share the wide levels.
fn sum_from_scratch(leaves: &[i64]) -> i64 {
    fn subtree(leaves: &[i64]) -> i64 {
        // Heap order over this half: node `i` has children `2i + 1` and
        // `2i + 2`, and the last `leaves.len()` nodes are the leaves.
        let n = leaves.len();
        let mut node = vec![0i64; 2 * n - 1];
        node[n - 1..].copy_from_slice(leaves);
        for i in (0..n - 1).rev() {
            node[i] = node[2 * i + 1] + node[2 * i + 2];
        }
        node[0]
    }
    let (left, right) = leaves.split_at(leaves.len() / 2);
    std::thread::scope(|s| {
        let l = s.spawn(|| subtree(left));
        let r = s.spawn(|| subtree(right));
        l.join().expect("left half") + r.join().expect("right half")
    })
}

impl Workload for MemoEagerPar2 {
    type Inputs = Inputs;

    fn inputs(seed: u64, small: bool) -> Inputs {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = if small { 256 } else { 8_192 };
        Inputs {
            leaves: (0..n).map(|_| rng.gen_range(0..100)).collect(),
            seed,
        }
    }

    fn setup(inp: &Inputs, tr: &mut Tracer, ck: &mut Checker) -> (MemoEagerPar2, Setup) {
        let (rt, construct) = phase(tr, "setup.construct", |_| {
            let rt = Runtime::new();
            rt.set_parallelism(PARALLELISM);
            rt
        });
        let ((vars, sum), build) = phase(tr, "setup.build", |tr| {
            let vars: Vec<Var<i64>> = tr.span("core.var", || {
                inp.leaves.iter().map(|&v| rt.var(v)).collect()
            });
            let sum = tr.span("core.memo", || sum_tree(&rt, &vars));
            (vars, sum)
        });
        let (total, first_query) = phase(tr, "setup.first_query", |tr| {
            tr.span("core.call", || sum.call(&rt, 0))
        });
        ck.check(total, leaf_sum(&inp.leaves));
        let w = MemoEagerPar2 {
            rt,
            vars,
            sum,
            mirror: inp.leaves.clone(),
            rng: SmallRng::seed_from_u64(inp.seed ^ 0x5EED_0005),
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
        let (total, secs) = phase(tr, "setup.conventional", |_| sum_from_scratch(&inp.leaves));
        ck.check(total, leaf_sum(&inp.leaves));
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
        let vars = &self.vars;

        let t = Instant::now();
        tr.begin("update");
        tr.span("core.batch", || {
            self.rt.batch(|tx| {
                for &(i, v) in &edits {
                    vars[i].set_in(tx, v);
                }
            })
        });
        tr.span("core.propagate", || self.rt.propagate());
        let total = tr.span("core.call", || self.sum.call(&self.rt, 0));
        tr.end();
        let dt = t.elapsed();

        ck.check(total, want);
        dt
    }
}
