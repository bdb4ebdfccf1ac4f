//! `avl_churn`: a `MaintainedAvl` (Algorithm 11) under a mixed stream of
//! single inserts, sorted runs through `insert_all`, and removes, each
//! followed by `rebalance` and a `contains` probe.

use crate::harness::{phase, Checker, Setup, Workload};
use crate::spans::Tracer;
use alphonse::Runtime;
use alphonse_trees::{ClassicAvl, MaintainedAvl};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Keys in one sorted `insert_all` run.
const RUN_LEN: i64 = 16;

pub struct Inputs {
    universe: i64,
    keys: Vec<i64>,
    probe: i64,
    seed: u64,
}

pub struct AvlChurn {
    rt: Runtime,
    avl: MaintainedAvl,
    mirror: BTreeSet<i64>,
    universe: i64,
    rng: SmallRng,
}

impl Workload for AvlChurn {
    type Inputs = Inputs;

    fn inputs(seed: u64, small: bool) -> Inputs {
        let mut rng = SmallRng::seed_from_u64(seed);
        // The op mix below holds the tree near 5/7 of the universe; start
        // there so its size is steady from the first update.
        let universe: i64 = if small { 280 } else { 5_600 };
        let target = (universe * 5 / 7) as usize;
        let mut seen = BTreeSet::new();
        let mut keys = Vec::with_capacity(target);
        while keys.len() < target {
            let k = rng.gen_range(0..universe);
            if seen.insert(k) {
                keys.push(k);
            }
        }
        Inputs {
            universe,
            keys,
            probe: rng.gen_range(0..universe),
            seed,
        }
    }

    fn setup(inp: &Inputs, tr: &mut Tracer, ck: &mut Checker) -> (AvlChurn, Setup) {
        let keys = inp.keys.clone();
        let (rt, construct) = phase(tr, "setup.construct", |_| Runtime::new());
        let (mut avl, build) = phase(tr, "setup.build", |tr| {
            let mut avl = tr.span("trees.new", || MaintainedAvl::new(&rt));
            tr.span("trees.insert_all", || avl.insert_all(keys));
            avl
        });
        let (found, first_query) = phase(tr, "setup.first_query", |tr| {
            tr.span("trees.rebalance", || avl.rebalance());
            tr.span("trees.contains", || avl.contains(inp.probe))
        });
        let mirror: BTreeSet<i64> = inp.keys.iter().copied().collect();
        ck.check(found as i64, mirror.contains(&inp.probe) as i64);
        let mut w = AvlChurn {
            rt,
            avl,
            mirror,
            universe: inp.universe,
            rng: SmallRng::seed_from_u64(inp.seed ^ 0x5EED_0002),
        };
        w.deep_check(ck);
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
        let (found, secs) = phase(tr, "setup.conventional", |_| {
            let mut t = ClassicAvl::new();
            for &k in &inp.keys {
                t.insert(k);
            }
            t.contains(inp.probe)
        });
        ck.check(found as i64, inp.keys.contains(&inp.probe) as i64);
        secs
    }

    fn runtime(&self) -> &Runtime {
        &self.rt
    }

    fn update(&mut self, tr: &mut Tracer, ck: &mut Checker) -> Duration {
        enum Op {
            Insert(i64),
            Run(i64),
            Remove(i64),
        }
        let u = self.universe;
        let op = match self.rng.gen_range(0..100) {
            0..=44 => Op::Insert(self.rng.gen_range(0..u)),
            45..=49 => Op::Run(self.rng.gen_range(0..u - RUN_LEN)),
            _ => Op::Remove(self.rng.gen_range(0..u)),
        };
        let probe = self.rng.gen_range(0..u);
        let want = match op {
            Op::Insert(k) => self.mirror.insert(k) as i64,
            Op::Run(a) => (a..a + RUN_LEN).filter(|&k| self.mirror.insert(k)).count() as i64,
            Op::Remove(k) => self.mirror.remove(&k) as i64,
        };
        let want_found = self.mirror.contains(&probe) as i64;

        let avl = &mut self.avl;
        let t = Instant::now();
        tr.begin("update");
        let got = match op {
            Op::Insert(k) => tr.span("trees.insert", || avl.insert(k)) as i64,
            Op::Run(a) => tr.span("trees.insert_all", || avl.insert_all(a..a + RUN_LEN)) as i64,
            Op::Remove(k) => tr.span("trees.remove", || avl.remove(k)) as i64,
        };
        tr.span("core.propagate", || self.rt.propagate());
        tr.span("trees.rebalance", || avl.rebalance());
        let found = tr.span("trees.contains", || avl.contains(probe));
        tr.end();
        let dt = t.elapsed();

        ck.check(got, want);
        ck.check(found as i64, want_found);
        dt
    }

    fn deep_check(&mut self, ck: &mut Checker) {
        let keys = self.avl.keys();
        ck.check(
            (keys.len() == self.mirror.len() && keys.iter().eq(self.mirror.iter())) as i64,
            1,
        );
        ck.check(self.avl.is_avl() as i64, 1);
        ck.check(self.avl.is_bst() as i64, 1);
    }
}
