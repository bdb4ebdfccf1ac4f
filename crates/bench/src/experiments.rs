//! The experiments reproducing the paper's quantitative claims.
//!
//! Every function returns a [`Table`] of machine-independent work counters;
//! the `all_experiments` binary prints them and EXPERIMENTS.md records the comparison
//! against the paper's claims. Wall-clock columns (`*_us`, `*_ms`) sit beside
//! the counters they explain.

use crate::table::{percentile_cells, Table};
use crate::workloads::{self, HEIGHT_PROGRAM};
use alphonse::mem::MemSnapshot;
use alphonse::{
    Histogram, HistogramSnapshot, Memo, MetricsSnapshot, Runtime, Scheduling, Strategy, Var,
};
use alphonse_agkit::{
    parse_let, AgEvaluator, AgNodeId, AgTree, AttrVal, ExhaustiveAg, Grammar, LetLang,
};
use alphonse_lang::{compile, parse, transform, Interp, Mode, TransformOptions, Val};
use alphonse_serve::SessionPool;
use alphonse_sheet::{Addr, Formula, Op, RecalcSheet, Sheet};
use alphonse_trees::{ClassicAvl, ExhaustiveTree, HandcodedTree, MaintainedAvl, NodeRef};
use rand::Rng;
use std::sync::Arc;
use std::time::Instant;

/// The subsystem tags a runtime and its substrate bill their memory to;
/// their summed live bytes are a session's measured footprint (E14, E17).
const FOOTPRINT_TAGS: [&str; 7] = [
    "graph_core",
    "value_slab",
    "memo",
    "queues",
    "substrate",
    "exec_pool",
    "metrics",
];

/// Growth of `tag`'s live bytes from `before` to `after` (zero unless the
/// driving binary installs [`alphonse::mem::TrackingAlloc`]).
fn live_growth(tag: &str, after: &MemSnapshot, before: &MemSnapshot) -> u64 {
    let b = before.get(tag).map_or(0, |s| s.live_bytes);
    after.get(tag).map_or(0, |s| s.live_bytes).saturating_sub(b)
}

/// Wall-clock microseconds since `start`.
fn us_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

/// Mean wall-clock microseconds per call of `f` over `reps` calls.
fn us_per<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    us_since(start) / reps as f64
}

/// E1 (§3.4): maintained heights — first call O(n), repeats O(1), one
/// pointer change O(height), batched changes O(|AFFECTED|).
pub fn e1_height_tree(sizes: &[usize]) -> Table {
    let mut t = Table::new(
        "E1 — maintained height tree (§3.4): work per operation",
        &[
            "n",
            "first_query_exec",
            "repeat_exec",
            "relink_exec",
            "tree_depth",
            "batch16_exec",
            "16x_separate_exec",
            "exhaustive_visits/query",
            "handcoded_updates/relink",
            "repeat_query_us",
            "relink_query_us",
            "exhaustive_query_us",
        ],
    );
    for &n in sizes {
        let (rt, tree, root) = workloads::warmed_tree(n, 42);
        let store = tree.store().clone();
        let first = rt.stats().executions;
        // Repeat queries.
        let before = rt.stats();
        for _ in 0..10 {
            tree.height(root);
        }
        let repeat = rt.stats().delta_since(&before).executions;
        // Single leaf relink.
        let mut r = workloads::rng(7);
        let ls = workloads::leaves(&store, root);
        let leaf = ls[r.gen_range(0..ls.len())];
        let depth = workloads::depth_of(&store, root, leaf).unwrap();
        let before = rt.stats();
        store.set_left(leaf, store.new_leaf(0));
        tree.height(root);
        let relink = rt.stats().delta_since(&before).executions;
        // Batch of 16 relinks, one query…
        let before = rt.stats();
        for i in 0..16usize.min(ls.len() - 1) {
            let l = ls[(i * 37 + 1) % ls.len()];
            if l == leaf {
                continue;
            }
            store.set_right(l, store.new_leaf(1));
        }
        tree.height(root);
        let batch = rt.stats().delta_since(&before).executions;
        // …vs 16 separate change+query rounds (fresh tree for fairness).
        let (rt2, tree2, root2) = workloads::warmed_tree(n, 42);
        let store2 = tree2.store().clone();
        let ls2 = workloads::leaves(&store2, root2);
        let before = rt2.stats();
        for i in 0..16usize.min(ls2.len()) {
            let l = ls2[(i * 37 + 1) % ls2.len()];
            store2.set_right(l, store2.new_leaf(1));
            tree2.height(root2);
        }
        let separate = rt2.stats().delta_since(&before).executions;
        // Baselines.
        let mut ex = ExhaustiveTree::new();
        let ex_root = ex.build_balanced(n);
        ex.reset_counters();
        ex.height(ex_root);
        let ex_visits = ex.visits();
        let mut hc = HandcodedTree::new();
        let hc_root = hc.build_balanced(n);
        let mut hc_leaf = hc_root;
        for _ in 0..4 {
            hc_leaf = hc_root; // walk a short fixed path
        }
        hc.reset_counters();
        let fresh = hc.new_leaf();
        hc.set_left(hc_leaf, fresh);
        let hc_updates = hc.updates();
        // Wall-clock, after the counters: a repeat query, a leaf relink plus
        // query (undone by a second relink plus query), an exhaustive query.
        let repeat_us = us_per(1000, || tree.height(root));
        let mut i = 0usize;
        let relink_us = us_per(100, || {
            let l = ls[i % ls.len()];
            i += 1;
            store.set_left(l, store.new_leaf(0));
            let h = tree.height(root);
            store.set_left(l, NodeRef::NIL);
            tree.height(root);
            h
        });
        let ex_us = us_per(100, || ex.height(ex_root));
        t.row_strings(vec![
            n.to_string(),
            first.to_string(),
            repeat.to_string(),
            relink.to_string(),
            depth.to_string(),
            batch.to_string(),
            separate.to_string(),
            ex_visits.to_string(),
            hc_updates.to_string(),
            format!("{repeat_us:.2}"),
            format!("{relink_us:.1}"),
            format!("{ex_us:.1}"),
        ]);
    }
    t
}

/// E2 (§9.2): dynamic dependence analysis is O(T) — constant-factor
/// instrumentation overhead on a from-scratch run, repaid by incremental
/// updates; §6.1 reduces the number of instrumented sites.
///
/// Besides the machine-independent step counts, this reports wall-clock
/// time for the from-scratch run and the 100-round update loop (the
/// instrumented/conventional overhead ratio the paper claims is a
/// constant factor), plus the runtime's hot-path counters: dependence-log
/// dedup hits and memo-table probes.
pub fn e2_overhead(depths: &[i64]) -> Table {
    let mut t = Table::new(
        "E2 — instrumentation overhead (§9.2): steps, wall-clock, hot-path counters, §6.1 sites",
        &[
            "tree_depth",
            "conv_steps_initial",
            "alph_steps_initial",
            "conv_steps_100_updates",
            "alph_exec_100_updates",
            "conv_init_us",
            "alph_init_us",
            "init_overhead",
            "conv_upd_us",
            "alph_upd_us",
            "upd_speedup",
            "dedup_hits",
            "memo_probes",
            "sites_uniform",
            "sites_optimized",
        ],
    );
    let module = parse(HEIGHT_PROGRAM).expect("program parses");
    let program = compile(HEIGHT_PROGRAM).expect("program compiles");
    let (_, uniform) = transform(&module, &program, TransformOptions { optimize: false });
    let (_, optimized) = transform(&module, &program, TransformOptions { optimize: true });
    for &depth in depths {
        let run = |mode: Mode| -> (Interp, Val) {
            let interp = Interp::new(Arc::clone(&program), mode).unwrap();
            interp.call("Init", vec![]).unwrap();
            let root = interp.call("BuildBalanced", vec![Val::Int(depth)]).unwrap();
            interp.call_method(root.clone(), "height", vec![]).unwrap();
            (interp, root)
        };
        // Wall-clock for the from-scratch run: one untimed warmup, then best
        // of seven fresh runs per mode — at tree depth 4 the whole run is
        // tens of microseconds, so a single scheduling hiccup would
        // otherwise skew the ratio badly.
        let time_initial = |mode: Mode| -> f64 {
            let _ = run(mode);
            let mut best = f64::INFINITY;
            for _ in 0..7 {
                let start = Instant::now();
                let _ = run(mode);
                best = best.min(start.elapsed().as_secs_f64() * 1e6);
            }
            best
        };
        let conv_init_us = time_initial(Mode::Conventional);
        let alph_init_us = time_initial(Mode::Alphonse);
        let (conv, conv_root) = run(Mode::Conventional);
        let conv_initial = conv.steps();
        let (alph, alph_root) = run(Mode::Alphonse);
        let alph_initial = alph.steps();
        // 100 mutate+query rounds: flip a subtree off and back on.
        let nil_c = conv.global("nil").unwrap();
        let sub_c = conv.field(&conv_root, "left").unwrap();
        let s0 = conv.steps();
        let upd_start = Instant::now();
        for i in 0..100 {
            let v = if i % 2 == 0 {
                nil_c.clone()
            } else {
                sub_c.clone()
            };
            conv.set_field(&conv_root, "left", v).unwrap();
            conv.call_method(conv_root.clone(), "height", vec![])
                .unwrap();
        }
        let conv_upd_us = upd_start.elapsed().as_secs_f64() * 1e6;
        let conv_updates = conv.steps() - s0;
        let nil_a = alph.global("nil").unwrap();
        let sub_a = alph.field(&alph_root, "left").unwrap();
        let rt = alph.runtime().unwrap().clone();
        let before = rt.stats();
        let upd_start = Instant::now();
        for i in 0..100 {
            let v = if i % 2 == 0 {
                nil_a.clone()
            } else {
                sub_a.clone()
            };
            alph.set_field(&alph_root, "left", v).unwrap();
            alph.call_method(alph_root.clone(), "height", vec![])
                .unwrap();
        }
        let alph_upd_us = upd_start.elapsed().as_secs_f64() * 1e6;
        let hot = rt.stats().delta_since(&before);
        let alph_exec = hot.executions;
        t.row_strings(vec![
            depth.to_string(),
            conv_initial.to_string(),
            alph_initial.to_string(),
            conv_updates.to_string(),
            alph_exec.to_string(),
            format!("{conv_init_us:.1}"),
            format!("{alph_init_us:.1}"),
            format!("{:.2}", alph_init_us / conv_init_us),
            format!("{conv_upd_us:.1}"),
            format!("{alph_upd_us:.1}"),
            format!("{:.2}", conv_upd_us / alph_upd_us),
            hot.dedup_hits.to_string(),
            hot.memo_probes.to_string(),
            uniform.instrumented().to_string(),
            optimized.instrumented().to_string(),
        ]);
    }
    t
}

/// E3 (§9.1): space — nodes and edges grow linearly for sparse dependence
/// (trees) and quadratically for the dense adversarial case.
pub fn e3_space(sizes: &[usize]) -> Table {
    let mut t = Table::new(
        "E3 — dependency graph space (§9.1): sparse O(M) vs dense O(M^2)",
        &[
            "n",
            "tree_nodes",
            "tree_edges",
            "tree_edges/n",
            "dense_nodes",
            "dense_edges",
            "dense_edges/n^2",
            "tree_build_us",
            "dense_build_us",
        ],
    );
    for &n in sizes {
        let start = Instant::now();
        let (rt, _tree, _root) = workloads::warmed_tree(n, 11);
        let tree_us = us_since(start);
        let (t_nodes, t_edges) = (rt.node_count(), rt.edge_count());
        // Dense: n outputs each reading all n inputs.
        let start = Instant::now();
        let rt2 = Runtime::new();
        let vars: Vec<_> = (0..n).map(|i| rt2.var(i as i64)).collect();
        let vs = vars.clone();
        let all = rt2.memo("dense", move |rt, &k: &usize| {
            let mut acc = 0i64;
            for v in &vs {
                acc = acc.wrapping_add(v.get(rt));
            }
            acc.wrapping_mul(k as i64)
        });
        for k in 0..n {
            all.call(&rt2, k);
        }
        let dense_us = us_since(start);
        let (d_nodes, d_edges) = (rt2.node_count(), rt2.edge_count());
        t.row_strings(vec![
            n.to_string(),
            t_nodes.to_string(),
            t_edges.to_string(),
            format!("{:.2}", t_edges as f64 / n as f64),
            d_nodes.to_string(),
            d_edges.to_string(),
            format!("{:.2}", d_edges as f64 / (n * n) as f64),
            format!("{tree_us:.0}"),
            format!("{dense_us:.0}"),
        ]);
    }
    t
}

/// E4 (§6.3): partitioning keeps irrelevant changes batched; a demand in
/// one component does not force eager work in others.
pub fn e4_partition(component_counts: &[usize]) -> Table {
    let mut t = Table::new(
        "E4 — graph partitioning (§6.3): forced executions at an unrelated query",
        &[
            "components",
            "forced_exec_unpartitioned",
            "forced_exec_partitioned",
            "pending_after_query_partitioned",
            "query_us_unpartitioned",
            "query_us_partitioned",
        ],
    );
    for &k in component_counts {
        let run = |partitioning: bool| -> (u64, usize, f64) {
            let rt = Runtime::builder().partitioning(partitioning).build();
            let mut memos = Vec::new();
            let mut vars = Vec::new();
            for i in 0..k {
                let v = rt.var(i as i64);
                let m = rt.memo_with(&format!("comp{i}"), Strategy::Eager, move |rt, &(): &()| {
                    v.get(rt) * 2
                });
                m.call(&rt, ());
                vars.push(v);
                memos.push(m);
            }
            // Change every component except the last…
            for v in vars.iter().take(k - 1) {
                v.set(&rt, v.get(&rt) + 1);
            }
            // …then query only the last (unchanged) component.
            let before = rt.stats();
            let start = Instant::now();
            memos[k - 1].call(&rt, ());
            let us = us_since(start);
            let forced = rt.stats().delta_since(&before).executions;
            (forced, rt.dirty_count(), us)
        };
        let (un, _, un_us) = run(false);
        let (part, pending, part_us) = run(true);
        t.row_strings(vec![
            k.to_string(),
            un.to_string(),
            part.to_string(),
            pending.to_string(),
            format!("{un_us:.1}"),
            format!("{part_us:.1}"),
        ]);
    }
    t
}

/// E5 (§6.4): UNCHECKED reduces per-lookup dependence from O(log n) to
/// O(1), cutting total space from O(M log M) to O(M).
pub fn e5_unchecked(sizes: &[usize]) -> Table {
    let mut t = Table::new(
        "E5 — UNCHECKED lookups (§6.4): dependence edges per maintained lookup",
        &[
            "n",
            "lookups",
            "edges_tracked",
            "edges_unchecked",
            "invalidated_tracked",
            "invalidated_unchecked",
            "lookups_us_tracked",
            "lookups_us_unchecked",
        ],
    );
    for &n in sizes {
        let build = |unchecked: bool| -> (Runtime, u64, u64, f64) {
            let rt = Runtime::new();
            let tree = alphonse_trees::MaintainedTree::new(&rt);
            let store = Arc::clone(tree.store());
            let keys: Vec<i64> = (0..n as i64).collect();
            let root = store.build_balanced(&keys);
            let s = Arc::clone(&store);
            let contains = rt.memo(
                if unchecked { "find_unchecked" } else { "find" },
                move |rt, &key: &i64| -> bool {
                    let descend = |s: &alphonse_trees::TreeStore| -> NodeRef {
                        let mut cur = root;
                        while !cur.is_nil() {
                            let k = s.key(cur);
                            if key == k {
                                return cur;
                            }
                            cur = if key < k { s.left(cur) } else { s.right(cur) };
                        }
                        NodeRef::NIL
                    };
                    let found = if unchecked {
                        // Programmer-asserted: the lookup depends on the
                        // found item, not the path used to locate it.
                        rt.untracked(|| descend(&s))
                    } else {
                        descend(&s)
                    };
                    if found.is_nil() {
                        false
                    } else {
                        s.key(found) == key // tracked read of the found item
                    }
                },
            );
            let before = rt.stats();
            let m = n as i64;
            let start = Instant::now();
            for key in 0..m {
                contains.call(&rt, key);
            }
            let lookups_us = us_since(start);
            let edges = rt.stats().delta_since(&before).edges_created;
            // An edit near the root of the search path: relink a subtree
            // high in the tree and count invalidated lookups on re-query.
            let l = store.left(root);
            store.set_left(root, l); // same value: no-op write first
            let ll = store.left(l);
            store.set_left(l, ll); // still same
                                   // A real (value-changing) edit: swap root's grandchildren.
            let lr = store.right(l);
            store.set_left(l, lr);
            store.set_right(l, ll);
            let before = rt.stats();
            for key in 0..m {
                contains.call(&rt, key);
            }
            let invalidated = rt.stats().delta_since(&before).executions;
            (rt, edges, invalidated, lookups_us)
        };
        let (_rt_t, e_t, i_t, us_t) = build(false);
        let (_rt_u, e_u, i_u, us_u) = build(true);
        t.row_strings(vec![
            n.to_string(),
            n.to_string(),
            e_t.to_string(),
            e_u.to_string(),
            i_t.to_string(),
            i_u.to_string(),
            format!("{us_t:.0}"),
            format!("{us_u:.0}"),
        ]);
    }
    t
}

/// E6 (§7.2): spreadsheet — one edit costs work proportional to the
/// affected cells, while full recalculation pays the whole cone every time.
pub fn e6_sheet(sizes: &[u32]) -> Table {
    let mut t = Table::new(
        "E6 — spreadsheet (§7.2): single-edit update vs full recalculation",
        &[
            "rows",
            "pattern",
            "initial_exec",
            "edit_exec_incremental",
            "recalc_evals_per_query",
            "speedup",
            "edit_us_incremental",
            "edit_us_recalc",
        ],
    );
    for &rows in sizes {
        for pattern in ["chain", "fan"] {
            let rt = Runtime::new();
            let inc = Sheet::new(&rt, 3, rows);
            let base = RecalcSheet::new(3, rows);
            match pattern {
                "chain" => {
                    inc.set("A1", "1").unwrap();
                    base.set("A1", "1").unwrap();
                    for r in 2..=rows {
                        let f = format!("=A{}+1", r - 1);
                        inc.set(&format!("A{r}"), &f).unwrap();
                        base.set(&format!("A{r}"), &f).unwrap();
                    }
                }
                _ => {
                    for r in 1..=rows {
                        let v = r.to_string();
                        inc.set(&format!("A{r}"), &v).unwrap();
                        base.set(&format!("A{r}"), &v).unwrap();
                    }
                    let f = format!("=SUM(A1:A{rows})");
                    inc.set("B1", &f).unwrap();
                    base.set("B1", &f).unwrap();
                }
            }
            let probe = if pattern == "chain" {
                format!("A{rows}")
            } else {
                "B1".to_string()
            };
            let before = rt.stats();
            inc.value(&probe).unwrap();
            let initial = rt.stats().delta_since(&before).executions;
            // Edit the middle source cell.
            let edit_cell = format!("A{}", rows / 2);
            let before = rt.stats();
            let start = Instant::now();
            inc.set(&edit_cell, "500").unwrap();
            inc.value(&probe).unwrap();
            let inc_us = us_since(start);
            let edit_exec = rt.stats().delta_since(&before).executions;
            base.reset_counters();
            let start = Instant::now();
            base.set(&edit_cell, "500").unwrap();
            base.value(&probe).unwrap();
            let recalc_us = us_since(start);
            let recalc = base.evaluations();
            assert_eq!(
                inc.value(&probe).unwrap(),
                base.value(&probe).unwrap(),
                "sheet evaluators diverged"
            );
            t.row_strings(vec![
                rows.to_string(),
                pattern.to_string(),
                initial.to_string(),
                edit_exec.to_string(),
                recalc.to_string(),
                format!("{:.1}x", recalc as f64 / edit_exec.max(1) as f64),
                format!("{inc_us:.1}"),
                format!("{recalc_us:.1}"),
            ]);
        }
    }
    t
}

/// E7 (§7.3): maintained AVL — incremental rebalance work per insert is
/// O(log n)-ish; classic AVL is the hand-coded comparator; exhaustive
/// rebalancing would pay O(n).
pub fn e7_avl(sizes: &[usize]) -> Table {
    let mut t = Table::new(
        "E7 — self-balancing AVL (§7.3): work per insert+rebalance",
        &[
            "n",
            "order",
            "maintained_exec/insert",
            "classic_visits/insert",
            "exhaustive_cost/insert",
            "final_height",
            "avl_ok",
            "maintained_us/insert",
            "classic_us/insert",
        ],
    );
    for &n in sizes {
        for order in ["sorted", "random"] {
            let keys: Vec<i64> = match order {
                "sorted" => (0..n as i64).collect(),
                _ => {
                    let mut r = workloads::rng(5);
                    let mut keys: Vec<i64> = (0..n as i64).collect();
                    for i in (1..keys.len()).rev() {
                        keys.swap(i, r.gen_range(0..=i));
                    }
                    keys
                }
            };
            let rt = Runtime::new();
            let mut avl = MaintainedAvl::new(&rt);
            // Warm up on the first half, measure the second half.
            let half = n / 2;
            for &k in &keys[..half] {
                avl.insert(k);
                avl.rebalance();
            }
            let before = rt.stats();
            let start = Instant::now();
            for &k in &keys[half..] {
                avl.insert(k);
                avl.rebalance();
            }
            let maintained_us = us_since(start) / (n - half) as f64;
            let maintained = rt.stats().delta_since(&before).executions as f64 / (n - half) as f64;
            let mut classic = ClassicAvl::new();
            for &k in &keys[..half] {
                classic.insert(k);
            }
            classic.reset_counters();
            let start = Instant::now();
            for &k in &keys[half..] {
                classic.insert(k);
            }
            let classic_us = us_since(start) / (n - half) as f64;
            let classic_per = classic.visits() as f64 / (n - half) as f64;
            t.row_strings(vec![
                n.to_string(),
                order.to_string(),
                format!("{maintained:.1}"),
                format!("{classic_per:.1}"),
                format!("{}", 3 * n / 4), // rebuilding a balanced tree touches ~n nodes
                avl.height().to_string(),
                avl.is_avl().to_string(),
                format!("{maintained_us:.2}"),
                format!("{classic_us:.3}"),
            ]);
        }
    }
    t
}

/// E8 (§4.2): function caching for non-combinators — cached procedures
/// reading global state stay correct under mutation, at the cost of
/// re-execution only when that state changes.
pub fn e8_noncombinator(table_sizes: &[usize]) -> Table {
    let mut t = Table::new(
        "E8 — non-combinator caching (§4.2): hits vs forced re-executions",
        &[
            "distinct_args",
            "calls",
            "executions",
            "cache_hits",
            "execs_after_global_change",
            "hits_us",
            "refill_us",
        ],
    );
    for &k in table_sizes {
        let rt = Runtime::new();
        let factor = rt.var(3i64);
        let f = rt.memo("scaled", move |rt, &x: &i64| x * factor.get(rt));
        // 4 rounds over k distinct arguments.
        for _ in 0..4 {
            for x in 0..k as i64 {
                f.call(&rt, x);
            }
        }
        let s = rt.stats();
        let (calls, execs, hits) = (s.calls, s.executions, s.cache_hits);
        // One round of k hits, timed after the counters are read.
        let start = Instant::now();
        for x in 0..k as i64 {
            f.call(&rt, x);
        }
        let hits_us = us_since(start);
        factor.set(&rt, 5);
        let before = rt.stats();
        let start = Instant::now();
        for x in 0..k as i64 {
            assert_eq!(f.call(&rt, x), x * 5, "stale cache after global change");
        }
        let refill_us = us_since(start);
        let after = rt.stats().delta_since(&before).executions;
        t.row_strings(vec![
            k.to_string(),
            calls.to_string(),
            execs.to_string(),
            hits.to_string(),
            after.to_string(),
            format!("{hits_us:.1}"),
            format!("{refill_us:.1}"),
        ]);
    }
    t
}

/// E9 (§4.5): topological-order propagation minimizes re-executions;
/// FIFO order re-runs join nodes with stale inputs.
pub fn e9_schedule(depths: &[usize]) -> Table {
    let mut t = Table::new(
        "E9 — propagation order (§4.5): eager re-executions per change wave",
        &[
            "ladder_depth",
            "height_order_exec",
            "fifo_exec",
            "ratio",
            "height_us/wave",
            "fifo_us/wave",
        ],
    );
    let mut metrics = MetricsSnapshot::default();
    for &d in depths {
        let mut run = |mode: Scheduling| -> (u64, f64) {
            let rt = Runtime::builder().scheduling(mode).build();
            let src = rt.var(1i64);
            // Ladder: level i reads level i-1 AND the source directly, with
            // the source edge added last so FIFO pops the join first.
            let mut prev = rt.memo_with("lvl0", Strategy::Eager, move |rt, &(): &()| src.get(rt));
            prev.call(&rt, ());
            for i in 1..d {
                let below = prev.clone();
                let m = rt.memo_with(&format!("lvl{i}"), Strategy::Eager, move |rt, &(): &()| {
                    below.call(rt, ()) + src.get(rt)
                });
                m.call(&rt, ());
                prev = m;
            }
            let before = rt.stats();
            let start = Instant::now();
            src.set(&rt, 2);
            rt.propagate();
            let us = start.elapsed().as_secs_f64() * 1e6;
            metrics.merge(&rt.metrics_snapshot());
            (rt.stats().delta_since(&before).executions, us)
        };
        let (h, h_us) = run(Scheduling::HeightOrder);
        let (f, f_us) = run(Scheduling::Fifo);
        t.row_strings(vec![
            d.to_string(),
            h.to_string(),
            f.to_string(),
            format!("{:.2}x", f as f64 / h.max(1) as f64),
            format!("{h_us:.1}"),
            format!("{f_us:.1}"),
        ]);
    }
    t.metrics = Some(metrics.to_json());
    t
}

/// E10 (§3.3): eager evaluation moves work before the query; demand defers
/// it — query-time latency vs background work.
pub fn e10_strategy(chain_lengths: &[usize]) -> Table {
    let mut t = Table::new(
        "E10 — DEMAND vs EAGER (§3.3): where the update work happens",
        &[
            "chain",
            "strategy",
            "exec_at_change+propagate",
            "exec_at_query",
            "change+propagate_us",
            "query_us",
        ],
    );
    for &d in chain_lengths {
        for strategy in [Strategy::Demand, Strategy::Eager] {
            let rt = Runtime::new();
            let src = rt.var(1i64);
            let mut prev = rt.memo_with("c0", strategy, move |rt, &(): &()| src.get(rt));
            prev.call(&rt, ());
            for i in 1..d {
                let below = prev.clone();
                let m = rt.memo_with(&format!("c{i}"), strategy, move |rt, &(): &()| {
                    below.call(rt, ()) + 1
                });
                m.call(&rt, ());
                prev = m;
            }
            let before = rt.stats();
            let start = Instant::now();
            src.set(&rt, 10);
            rt.propagate(); // the "cycles available" hook of §4.5
            let change_us = us_since(start);
            let at_change = rt.stats().delta_since(&before).executions;
            let before = rt.stats();
            let start = Instant::now();
            let top = prev.call(&rt, ());
            let query_us = us_since(start);
            assert_eq!(top, 10 + d as i64 - 1);
            let at_query = rt.stats().delta_since(&before).executions;
            t.row_strings(vec![
                d.to_string(),
                format!("{strategy:?}"),
                at_change.to_string(),
                at_query.to_string(),
                format!("{change_us:.1}"),
                format!("{query_us:.1}"),
            ]);
        }
    }
    t
}

/// E6-companion: attribute-grammar re-attribution vs exhaustive (the
/// Section 7.1 half of the spreadsheet/AG claim).
///
/// Note the workload: `k` *nested* lets whose bindings reference the
/// previous binder. Exhaustive evaluation (no caching) is **exponential**
/// in `k` here — every `env` recomputes its binder's value, which re-walks
/// the whole chain — so keep `k ≲ 20`. Function caching collapses the same
/// attribution to O(k) instances, which is exactly the redundancy the
/// paper's incremental evaluation removes.
pub fn e6_ag(sizes: &[usize]) -> Table {
    let mut t = Table::new(
        "E6b — let-language attribute grammar (§7.1): edit vs exhaustive (exponential baseline)",
        &[
            "lets",
            "initial_exec",
            "edit_exec_incremental",
            "exhaustive_evals",
            "speedup",
        ],
    );
    for &k in sizes {
        // Nested lets: let x0 = 1 in ... let xk = x(k-1)+1 in sum ni...
        let mut src = String::from("x0");
        for i in (1..k).rev() {
            src = format!("let x{i} = x{} + 1 in {src} + x{i} ni", i - 1);
        }
        src = format!("let x0 = 1 in {src} ni");
        let expr = parse_let(&src).expect("generated program parses");

        let rt = Runtime::new();
        let (tree, lang) = LetLang::tree(&rt);
        let (root, outer_let) = expr.instantiate(&tree, &lang);
        let eval = AgEvaluator::new(&rt, Arc::clone(&tree));
        let before = rt.stats();
        let v1 = eval.syn(root, lang.value);
        let initial = rt.stats().delta_since(&before).executions;
        // Edit the innermost literal (x0's binding).
        let bound = tree.child(outer_let, 0).unwrap();
        let before = rt.stats();
        tree.set_terminal(bound, 0, AttrVal::Int(2));
        let v2 = eval.syn(root, lang.value);
        let edit = rt.stats().delta_since(&before).executions;
        assert_ne!(v1, v2);

        let ex = ExhaustiveAg::new(Arc::clone(&tree));
        ex.reset_counters();
        let v3 = ex.syn(root, lang.value);
        assert_eq!(v2, v3, "evaluators diverged");
        let exhaustive = ex.evaluations();
        t.row_strings(vec![
            k.to_string(),
            initial.to_string(),
            edit.to_string(),
            exhaustive.to_string(),
            format!("{:.1}x", exhaustive as f64 / edit.max(1) as f64),
        ]);
    }
    t
}

/// E12 (§3.3): bounded caches — the cache-size/replacement pragma
/// arguments trade recomputation for memory. Sweep capacity over a
/// working set with a skewed (80/20) access pattern.
pub fn e12_cache_capacity(capacities: &[usize]) -> Table {
    let mut t = Table::new(
        "E12 — LRU cache capacity (§3.3): recomputation vs bounded values",
        &[
            "capacity",
            "distinct_args",
            "calls",
            "executions",
            "evictions",
            "hit_rate",
        ],
    );
    let distinct = 256usize;
    let rounds = 20usize;
    for &capacity in capacities {
        let rt = Runtime::new();
        let base = rt.var(1i64);
        let f = rt.memo_bounded(
            "bounded",
            Strategy::Demand,
            capacity,
            move |rt, &x: &i64| base.get(rt) * x,
        );
        let mut r = workloads::rng(3);
        for _ in 0..rounds * distinct {
            // 80% of calls hit the hot 20% of the key space.
            let x = if r.gen_range(0..10) < 8 {
                r.gen_range(0..distinct as i64 / 5)
            } else {
                r.gen_range(0..distinct as i64)
            };
            f.call(&rt, x);
        }
        let s = rt.stats();
        t.row_strings(vec![
            capacity.to_string(),
            distinct.to_string(),
            s.calls.to_string(),
            s.executions.to_string(),
            f.evictions().to_string(),
            format!("{:.1}%", 100.0 * s.cache_hits as f64 / s.calls as f64),
        ]);
    }
    t
}

/// E13: bulk edits — k random leaf writes per wave over a 64-leaf
/// reduction grid, issued one `Var::set` at a time vs one `Runtime::batch`
/// transaction, under both drain orders. Both arms propagate once per
/// wave, so their propagation work is identical by construction and the
/// write-phase timing (`*_wr_us`) isolates what the transaction buys:
/// one runtime borrow per wave and, once k exceeds the location count
/// (the bulk-edit regime batching exists for — repeated pastes, counters,
/// accumulation loops), heavy coalescing — each multiply-written location
/// gets a single cutoff comparison instead of one per write. The scratch columns show the
/// propagation fan-out buffer reaching steady state after the first wave
/// (equal `scratch_w1`/`scratch_final` ⇒ zero fan-out allocations after
/// warm-up).
pub fn e13_bulk_edits(ks: &[usize]) -> Table {
    let mut t = Table::new(
        "E13 — bulk edits: k random writes per wave, Var::set vs Runtime::batch",
        &[
            "k",
            "sched",
            "set_wr_us",
            "batch_wr_us",
            "wr_speedup",
            "set_us/wave",
            "batch_us/wave",
            "speedup",
            "coalesced",
            "set_dirtied",
            "batch_dirtied",
            "scratch_w1",
            "scratch_final",
        ],
    );
    const LEAVES: usize = 64;
    const GROUP: usize = 8;
    for &k in ks {
        let waves_n = (4096 / k.max(1)).clamp(4, 64);
        for sched in [Scheduling::HeightOrder, Scheduling::Fifo] {
            // Pre-generate the edit stream once so both arms replay the
            // identical writes.
            let mut r = workloads::rng(13 + k as u64);
            let edit_waves: Vec<Vec<(usize, i64)>> = (0..waves_n)
                .map(|_| {
                    (0..k)
                        .map(|_| (r.gen_range(0..LEAVES), r.gen_range(0..16i64)))
                        .collect()
                })
                .collect();
            // Runs one arm once: returns (write-phase us/wave, total
            // us/wave, stats delta, scratch hwm after wave 1, scratch hwm at
            // the end).
            let run_once = |batched: bool| {
                let rt = Runtime::builder().scheduling(sched).build();
                let vars: Vec<_> = (0..LEAVES).map(|i| rt.var(i as i64)).collect();
                let groups: Vec<_> = vars
                    .chunks(GROUP)
                    .enumerate()
                    .map(|(g, chunk)| {
                        let chunk = chunk.to_vec();
                        rt.memo_with(
                            &format!("group{g}"),
                            Strategy::Eager,
                            move |rt, &(): &()| chunk.iter().map(|v| v.get(rt)).sum::<i64>(),
                        )
                    })
                    .collect();
                let gs = groups.clone();
                let total = rt.memo_with("total", Strategy::Eager, move |rt, &(): &()| {
                    gs.iter().map(|g| g.call(rt, ())).sum::<i64>()
                });
                total.call(&rt, ());
                rt.propagate();
                let before = rt.stats();
                let mut scratch_w1 = 0u64;
                let mut write_secs = 0.0f64;
                let start = Instant::now();
                for (w, wave) in edit_waves.iter().enumerate() {
                    let wr = Instant::now();
                    if batched {
                        rt.batch(|tx| {
                            for &(i, v) in wave {
                                vars[i].set_in(tx, v);
                            }
                        });
                    } else {
                        for &(i, v) in wave {
                            vars[i].set(&rt, v);
                        }
                    }
                    write_secs += wr.elapsed().as_secs_f64();
                    rt.propagate();
                    if w == 0 {
                        scratch_w1 = rt.stats().scratch_hwm;
                    }
                }
                let us = start.elapsed().as_secs_f64() * 1e6 / waves_n as f64;
                let wr_us = write_secs * 1e6 / waves_n as f64;
                (
                    wr_us,
                    us,
                    rt.stats().delta_since(&before),
                    scratch_w1,
                    rt.stats().scratch_hwm,
                )
            };
            // Min-of-reps on a fresh fixture each time, to damp timer and
            // allocator noise; counters are deterministic, so any rep's
            // stats delta is representative.
            let run = |batched: bool| {
                let mut best = run_once(batched);
                for _ in 1..4 {
                    let r = run_once(batched);
                    best.0 = if r.0 < best.0 { r.0 } else { best.0 };
                    best.1 = if r.1 < best.1 { r.1 } else { best.1 };
                }
                best
            };
            let (set_wr_us, set_us, set_d, _, _) = run(false);
            let (batch_wr_us, batch_us, batch_d, scratch_w1, scratch_final) = run(true);
            // Coalescing can only shrink the propagation work (a location
            // restored to its pre-batch value within one wave never
            // dirties), never grow it.
            assert!(
                batch_d.executions <= set_d.executions,
                "batch re-executed more than sequential: {} > {}",
                batch_d.executions,
                set_d.executions
            );
            t.row_strings(vec![
                k.to_string(),
                format!("{sched:?}"),
                format!("{set_wr_us:.1}"),
                format!("{batch_wr_us:.1}"),
                format!("{:.2}x", set_wr_us / batch_wr_us.max(1e-9)),
                format!("{set_us:.1}"),
                format!("{batch_us:.1}"),
                format!("{:.2}x", set_us / batch_us.max(1e-9)),
                batch_d.coalesced_writes.to_string(),
                set_d.dirtied.to_string(),
                batch_d.dirtied.to_string(),
                scratch_w1.to_string(),
                scratch_final.to_string(),
            ]);
        }
    }
    t
}

/// One tenant's serving session for E14: an E13-style reduction grid (64
/// tracked leaves summed through 8 eager group memos into one eager total)
/// plus the per-wave serve-latency histogram its waves record (µs samples
/// on the shared [`Histogram`] type — no per-sample allocation, and the
/// shard can snapshot it without handing the samples back).
struct ServeSession {
    rt: Runtime,
    vars: Vec<Var<i64>>,
    total: Memo<(), i64>,
    lat_us: Histogram,
}

fn serve_session(seed: u64) -> ServeSession {
    const LEAVES: usize = 64;
    const GROUP: usize = 8;
    let rt = Runtime::new();
    let mut r = workloads::rng(seed);
    let vars: Vec<_> = (0..LEAVES)
        .map(|_| rt.var(r.gen_range(0..1024i64)))
        .collect();
    let groups: Vec<_> = vars
        .chunks(GROUP)
        .enumerate()
        .map(|(g, chunk)| {
            let chunk = chunk.to_vec();
            rt.memo_with(
                &format!("group{g}"),
                Strategy::Eager,
                move |rt, &(): &()| chunk.iter().map(|v| v.get(rt)).sum::<i64>(),
            )
        })
        .collect();
    let total = rt.memo_with("total", Strategy::Eager, move |rt, &(): &()| {
        groups.iter().map(|g| g.call(rt, ())).sum::<i64>()
    });
    total.call(&rt, ());
    rt.propagate();
    ServeSession {
        rt,
        vars,
        total,
        lat_us: Histogram::new(),
    }
}

/// E14: sharded multi-session serving — `sessions` independent tenants on a
/// [`SessionPool`] of 1→N worker threads, each work unit one batched
/// 16-write edit wave followed by propagation. Sessions are built on the
/// driving thread and *moved* into their shard (the `Runtime: Send`
/// property the struct-of-arrays core makes cheap), and shards share
/// nothing, so aggregate throughput is bounded only by cores and by any
/// per-wave blocking the server does.
///
/// Two workloads per thread count: `stall_us = 0` is pure CPU (on a
/// single-core host this row is flat by construction — use it on multicore
/// machines), and `stall_us = 200` adds a fixed simulated per-tenant
/// blocking stall to each wave (write-ahead persistence, a downstream
/// call…). Shards overlap stalls of different tenants, which is the
/// scaling a sharded serving layer buys on any host. `scaling` is
/// throughput relative to the 1-thread row of the same workload;
/// `bytes_node` is the tagged live bytes (`alphonse::mem`) that building
/// session 0 adds, divided by its `node_count()` — measured, so it is zero
/// unless the driving binary installs [`alphonse::mem::TrackingAlloc`]
/// (`all_experiments` does).
pub fn e14_serving(threads: &[usize], sessions: usize, waves: usize) -> Table {
    const LEAVES: usize = 64;
    const K: usize = 16;
    let mut t = Table::new(
        "E14 — sharded serving: sessions x batched edit waves on a SessionPool",
        &[
            "threads",
            "stall_us",
            "sessions",
            "writes",
            "elapsed_ms",
            "kwrites_s",
            "scaling",
            "p50_us",
            "p95_us",
            "p99_us",
            "bytes_node",
        ],
    );
    // One edit stream per tenant, replayed identically at every thread
    // count so rows are comparable.
    type EditStream = Vec<Vec<(usize, i64)>>;
    let streams: Vec<Arc<EditStream>> = (0..sessions)
        .map(|s| {
            let mut r = workloads::rng(1400 + s as u64);
            Arc::new(
                (0..waves)
                    .map(|_| {
                        (0..K)
                            .map(|_| (r.gen_range(0..LEAVES), r.gen_range(0..1024i64)))
                            .collect()
                    })
                    .collect(),
            )
        })
        .collect();
    for stall_us in [0u64, 200] {
        let mut base_kwps = 0.0f64;
        for &n in threads {
            let pool = SessionPool::new(n);
            let mem0 = alphonse::mem::snapshot();
            let first = serve_session(1400);
            let mem1 = alphonse::mem::snapshot();
            let bytes: u64 = FOOTPRINT_TAGS
                .iter()
                .map(|&tag| live_growth(tag, &mem1, &mem0))
                .sum();
            let bytes_node = bytes / first.rt.node_count().max(1) as u64;
            pool.insert(0, first);
            for s in 1..sessions as u64 {
                pool.insert(s, serve_session(1400 + s));
            }
            pool.flush();
            let start = Instant::now();
            for w in 0..waves {
                for (s, stream) in streams.iter().enumerate() {
                    let stream = Arc::clone(stream);
                    pool.submit(s as u64, move |sess: &mut ServeSession| {
                        let t0 = Instant::now();
                        let vars = &sess.vars;
                        sess.rt.batch(|tx| {
                            for &(i, v) in &stream[w] {
                                vars[i].set_in(tx, v);
                            }
                        });
                        sess.rt.propagate();
                        if stall_us > 0 {
                            std::thread::sleep(std::time::Duration::from_micros(stall_us));
                        }
                        sess.lat_us.record(t0.elapsed().as_micros() as u64);
                    });
                }
            }
            pool.flush();
            let elapsed = start.elapsed().as_secs_f64();
            // Harvest latency histograms, then verify every session
            // converged to its replayed edit stream.
            let mut lat = HistogramSnapshot::empty();
            for s in 0..sessions as u64 {
                let samples = pool.query(s, |sess: &mut ServeSession| sess.lat_us.snapshot());
                assert_eq!(samples.count(), waves as u64, "every wave served");
                lat.merge(&samples);
                let expect: i64 = {
                    let mut leaves = vec![0i64; LEAVES];
                    let mut r = workloads::rng(1400 + s);
                    for l in leaves.iter_mut() {
                        *l = r.gen_range(0..1024i64);
                    }
                    for wave in streams[s as usize].iter() {
                        for &(i, v) in wave {
                            leaves[i] = v;
                        }
                    }
                    leaves.iter().sum()
                };
                let got = pool.query(s, |sess: &mut ServeSession| sess.total.call(&sess.rt, ()));
                assert_eq!(got, expect, "session {s} diverged under the pool");
            }
            let pct = percentile_cells(&lat, &[0.50, 0.95, 0.99], 1.0);
            let writes = sessions * waves * K;
            let kwps = writes as f64 / elapsed / 1e3;
            if base_kwps == 0.0 {
                base_kwps = kwps;
            }
            let mut row = vec![
                n.to_string(),
                stall_us.to_string(),
                sessions.to_string(),
                writes.to_string(),
                format!("{:.1}", elapsed * 1e3),
                format!("{kwps:.0}"),
                format!("{:.2}x", kwps / base_kwps),
            ];
            row.extend(pct);
            row.push(bytes_node.to_string());
            t.row_strings(row);
        }
    }
    t
}

/// E15: level-parallel wave propagation inside a single graph — one wide
/// "spreadsheet row" (every cell depends on one input var, one total sums
/// the cells), update loop re-timed at each parallelism setting.
///
/// Each cell's executor stalls for `stall_us` before producing its value,
/// modeling the I/O-bound recompute (an external lookup, a service call per
/// cell) that level parallelism is for: the cells of one height level are
/// mutually independent, so `n` workers overlap `n` stalls. On a multicore
/// host a CPU-bound body scales the same way; on a single-core host — like
/// CI — only the stall workload can show wall-clock speedup, which is why
/// it is the measured one (same methodology as E14's stall rows).
///
/// `workers`: `1` = the propagating thread runs each level alone (the
/// baseline for the speedup column: no worker threads), `n >= 2` = wide
/// levels run on `n` threads, that thread plus an `n − 1`-worker pool.
/// `speedup` is relative to the 1-worker row.
pub fn e15_parallel(workers: &[usize], width: usize, waves: usize, stall_us: u64) -> Table {
    let mut t = Table::new(
        "E15 — level-parallel waves: wide row graph, stall-bound cells",
        &[
            "mode",
            "width",
            "waves",
            "stall_us",
            "elapsed_ms",
            "waves_s",
            "speedup",
            "par_levels",
            "par_execs",
            "level_hwm",
            "execs",
        ],
    );
    struct Row {
        mode: String,
        elapsed: f64,
        stats: alphonse::Stats,
    }
    let mut rows: Vec<Row> = Vec::new();
    let mut metrics = MetricsSnapshot::default();
    for &n in workers {
        let rt = Runtime::new();
        rt.set_parallelism(n);
        let vars: Vec<Var<i64>> = (0..width).map(|i| rt.var(i as i64)).collect();
        let cells: Vec<Memo<(), i64>> = vars
            .iter()
            .map(|v| {
                let v = *v;
                rt.memo_with("cell", Strategy::Eager, move |rt, &(): &()| {
                    let x = v.get(rt);
                    if stall_us > 0 {
                        std::thread::sleep(std::time::Duration::from_micros(stall_us));
                    }
                    x + 1
                })
            })
            .collect();
        let total = {
            let cells = cells.clone();
            rt.memo_with("total", Strategy::Eager, move |rt, &(): &()| {
                cells.iter().map(|c| c.call(rt, ())).sum::<i64>()
            })
        };
        total.call(&rt, ());
        rt.propagate();
        rt.reset_stats();
        let start = Instant::now();
        for w in 0..waves {
            rt.batch(|tx| {
                for (i, v) in vars.iter().enumerate() {
                    // `+ 1` keeps wave 0 distinct from the warmup values, so
                    // every wave really recomputes all `width` cells.
                    v.set_in(tx, (w * width + i) as i64 + 1);
                }
            });
            rt.propagate();
        }
        let elapsed = start.elapsed().as_secs_f64();
        let last = waves - 1;
        let expect: i64 = (0..width).map(|i| (last * width + i) as i64 + 2).sum();
        assert_eq!(total.call(&rt, ()), expect, "parallel run diverged");
        rt.check_invariants();
        metrics.merge(&rt.metrics_snapshot());
        rows.push(Row {
            mode: format!("par{n}"),
            elapsed,
            stats: rt.stats(),
        });
    }
    // Speedup is measured against the one-thread row; fall back to the
    // first row if absent.
    let base = rows
        .iter()
        .find(|r| r.mode == "par1")
        .map(|r| r.elapsed)
        .unwrap_or_else(|| rows.first().map(|r| r.elapsed).unwrap_or(1.0));
    for r in &rows {
        t.row_strings(vec![
            r.mode.clone(),
            width.to_string(),
            waves.to_string(),
            stall_us.to_string(),
            format!("{:.1}", r.elapsed * 1e3),
            format!("{:.1}", waves as f64 / r.elapsed),
            format!("{:.2}x", base / r.elapsed),
            r.stats.parallel_levels.to_string(),
            r.stats.parallel_executions.to_string(),
            r.stats.level_width_hwm.to_string(),
            r.stats.executions.to_string(),
        ]);
    }
    t.metrics = Some(metrics.to_json());
    t
}

/// E16: the metrics layer's own cost. The ROADMAP judges the scale-stress
/// work on wave-latency percentiles — which only pay off if collecting
/// them is close to free. Two update loops (the E9 height ladder and the
/// E15 wide row, both pure CPU so instrumentation cannot hide inside
/// stalls) run with recording enabled vs the
/// [`alphonse::metrics::set_enabled`] kill-switch, which leaves one
/// relaxed atomic load per site. Both arms share **one** runtime and one
/// long update loop, interleaved in short paired chunks whose within-pair
/// order is (seeded-)randomly flipped, so co-tenant noise bursts,
/// frequency ramps and allocator-layout luck land on both arms equally;
/// `overhead_pct` compares the arms' median per-chunk times, which drops
/// burst outliers from both arms entirely. The acceptance bar
/// is overhead ≤2%. The on-arm chunks supply the first recorded
/// wave-latency p50/p99 trajectory.
///
/// The same interleaved methodology then measures the subsystem-tagged
/// memory accounting (`mem_*` columns): both arms run with the metrics
/// recording left in its ambient state and toggle
/// [`alphonse::mem::set_enabled`] instead. When the driving binary
/// installs [`alphonse::mem::TrackingAlloc`] (`all_experiments` does), both arms pay the allocator's header stamping, so
/// `mem_overhead_pct` isolates the per-allocation relaxed counter updates
/// the kill-switch gates — the same ≤2% bar applies. Without the
/// allocator installed (plain `cargo test`), the toggle gates nothing and
/// the arms are identical by construction.
pub fn e16_metrics_overhead(quick: bool) -> Table {
    let mut t = Table::new(
        "E16 — metrics overhead: update-loop cost, recording on vs off",
        &[
            "workload",
            "size",
            "chunks",
            "waves_arm",
            "off_ms",
            "on_ms",
            "overhead_pct",
            "mem_off_ms",
            "mem_on_ms",
            "mem_overhead_pct",
            "wave_p50_us",
            "wave_p99_us",
        ],
    );
    /// Drives `wave` for `chunks` timed chunks of `waves_per_chunk` waves.
    /// Chunks come in pairs — one `toggle(false)`, one `toggle(true)`, with
    /// the within-pair order flipped by a seeded coin so no periodic
    /// machine effect can alias onto one arm. Returns each arm's median
    /// per-chunk seconds plus the run's wave-latency delta; medians (rather
    /// than sums) drop co-tenant noise bursts from both arms entirely.
    fn measure(
        rt: &Runtime,
        wave: &mut dyn FnMut(usize),
        waves_per_chunk: usize,
        chunks: usize,
        seed: u64,
        toggle: &dyn Fn(bool),
    ) -> (f64, f64, HistogramSnapshot) {
        let before = rt.metrics_snapshot();
        let mut times = [Vec::new(), Vec::new()];
        let mut r = workloads::rng(seed);
        let mut w = 0;
        let mut chunk = |on: bool, w: &mut usize, times: &mut [Vec<f64>; 2]| {
            toggle(on);
            let t0 = Instant::now();
            for _ in 0..waves_per_chunk {
                wave(*w);
                *w += 1;
            }
            times[on as usize].push(t0.elapsed().as_secs_f64());
        };
        for _ in 0..chunks / 2 {
            let on_first = r.gen_range(0..2) == 1;
            chunk(on_first, &mut w, &mut times);
            chunk(!on_first, &mut w, &mut times);
        }
        toggle(true);
        let median = |v: &mut Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        let (off, on) = (median(&mut times[0]), median(&mut times[1]));
        let delta = rt.metrics_snapshot().delta_since(&before);
        (off, on, delta.wave_latency_ns)
    }
    /// Runs the metrics-toggle arms, then the mem-accounting-toggle arms,
    /// on the same warmed runtime and wave body. Each pass restores its
    /// kill-switch to the pre-pass state.
    fn measure_both(
        rt: &Runtime,
        mut wave: impl FnMut(usize),
        waves_per_chunk: usize,
        chunks: usize,
    ) -> (f64, f64, HistogramSnapshot, f64, f64) {
        let metrics_was_on = alphonse::metrics::enabled();
        let (off, on, hist) = measure(rt, &mut wave, waves_per_chunk, chunks, 1600, &|on| {
            alphonse::metrics::set_enabled(on)
        });
        alphonse::metrics::set_enabled(metrics_was_on);
        let mem_was_on = alphonse::mem::enabled();
        let (mem_off, mem_on, _) = measure(rt, &mut wave, waves_per_chunk, chunks, 1601, &|on| {
            alphonse::mem::set_enabled(on)
        });
        alphonse::mem::set_enabled(mem_was_on);
        (off, on, hist, mem_off, mem_on)
    }
    // Each workload builds its warmed runtime, then hands the per-wave body
    // to `measure_both`.
    type Run = Box<dyn Fn(usize, usize, usize) -> (f64, f64, HistogramSnapshot, f64, f64)>;
    let ladder: Run = Box::new(|size, wpc, chunks| {
        let rt = Runtime::new();
        let src = rt.var(1i64);
        let mut prev = rt.memo_with("lvl0", Strategy::Eager, move |rt, &(): &()| src.get(rt));
        prev.call(&rt, ());
        for i in 1..size {
            let below = prev.clone();
            let m = rt.memo_with(&format!("lvl{i}"), Strategy::Eager, move |rt, &(): &()| {
                below.call(rt, ()) + src.get(rt)
            });
            m.call(&rt, ());
            prev = m;
        }
        rt.propagate();
        // Warm the loop (and spin the CPU up out of its idle frequency)
        // before the arms start.
        for w in 0..64 {
            src.set(&rt, w + 2);
            rt.propagate();
        }
        measure_both(
            &rt,
            |w| {
                src.set(&rt, w as i64 + 100);
                rt.propagate();
            },
            wpc,
            chunks,
        )
    });
    let wide: Run = Box::new(|size, wpc, chunks| {
        let rt = Runtime::new();
        let vars: Vec<Var<i64>> = (0..size).map(|i| rt.var(i as i64)).collect();
        let cells: Vec<Memo<(), i64>> = vars
            .iter()
            .map(|v| {
                let v = *v;
                rt.memo_with("cell", Strategy::Eager, move |rt, &(): &()| v.get(rt) + 1)
            })
            .collect();
        let total = {
            let cells = cells.clone();
            rt.memo_with("total", Strategy::Eager, move |rt, &(): &()| {
                cells.iter().map(|c| c.call(rt, ())).sum::<i64>()
            })
        };
        total.call(&rt, ());
        rt.propagate();
        let wave = |w: usize| {
            rt.batch(|tx| {
                for (i, v) in vars.iter().enumerate() {
                    v.set_in(tx, (w * size + i) as i64 + 1);
                }
            });
            rt.propagate();
        };
        for w in 0..64 {
            wave(w);
        }
        measure_both(&rt, wave, wpc, chunks)
    });
    let runs: [(&str, usize, usize, usize, Run); 2] = if quick {
        [
            ("e9_ladder", 64, 2, 160, ladder),
            ("e15_wide", 64, 2, 160, wide),
        ]
    } else {
        [
            ("e9_ladder", 256, 2, 640, ladder),
            ("e15_wide", 256, 2, 320, wide),
        ]
    };
    for (name, size, wpc, chunks, run) in runs {
        let (off_chunk, on_chunk, hist, mem_off, mem_on) = run(size, wpc, chunks);
        let overhead = (on_chunk - off_chunk) / off_chunk * 100.0;
        let mem_overhead = (mem_on - mem_off) / mem_off * 100.0;
        let per_arm = (chunks / 2) as f64;
        let mut row = vec![
            name.to_string(),
            size.to_string(),
            chunks.to_string(),
            (wpc * chunks / 2).to_string(),
            format!("{:.2}", off_chunk * per_arm * 1e3),
            format!("{:.2}", on_chunk * per_arm * 1e3),
            format!("{overhead:.2}"),
            format!("{:.2}", mem_off * per_arm * 1e3),
            format!("{:.2}", mem_on * per_arm * 1e3),
            format!("{mem_overhead:.2}"),
        ];
        row.extend(percentile_cells(&hist, &[0.5, 0.99], 1e3));
        t.row_strings(row);
    }
    t
}

/// E17 — million-node scale stress: how the runtime's cost model holds up
/// three orders of magnitude past the paper's examples.
///
/// Two substrates are pushed to ~10^6 runtime nodes each, sequentially and
/// with the level-parallel scheduler at n=4:
///
/// * **sheet** — a `rows × cols` spreadsheet whose columns are add-one
///   chains, populated through `Sheet::set_formulas` (the bulk-edit path:
///   one overlay-validated write transaction for every cell) and then fully
///   demanded, so every cell holds both its formula var and its
///   materialized value instance.
/// * **ag** — a balanced binary sum tree over `leaves` attributed leaves
///   (`AgTree::build` per node: parent/child/terminal vars), fully
///   attributed by one `AgEvaluator::syn` at the root.
///
/// After the build, an update loop bulk-edits random inputs (sheet: base
/// row via `set_formulas`; ag: leaf terminals) and re-queries, yielding the
/// wave p50/p99 under steady-state incremental load.
///
/// The memory columns come from the subsystem-tagged allocator
/// (`alphonse::mem`): each run reports the growth of per-tag live bytes
/// from its start to full materialization — its own high-water mark, since
/// the structure only grows — divided by the node count. They are all zero
/// unless the driving binary installs [`alphonse::mem::TrackingAlloc`]
/// (`all_experiments` does).
pub fn e17_scale(quick: bool) -> Table {
    let mut t = Table::new(
        "E17 — million-node scale stress: bulk build throughput, wave latency, bytes/node",
        &[
            "workload",
            "mode",
            "nodes",
            "cells",
            "build_ms",
            "knodes/s",
            "wave_p50_us",
            "wave_p99_us",
            "live_mib",
            "b/node",
            "graph_b/n",
            "slab_b/n",
            "memo_b/n",
            "substrate_b/n",
        ],
    );
    // One finished run, substrate-agnostic.
    struct Run {
        nodes: u64,
        cells: u64,
        build_s: f64,
        waves: HistogramSnapshot,
        tag_bytes: Vec<(&'static str, u64)>,
        snapshot: MetricsSnapshot,
    }
    let mut sidecar = MetricsSnapshot::default();
    let emit = |t: &mut Table, workload: &str, mode: &str, r: Run| {
        let total: u64 = r.tag_bytes.iter().map(|(_, b)| b).sum();
        let per = |tag: &str| {
            let b = r
                .tag_bytes
                .iter()
                .find(|(n, _)| *n == tag)
                .map_or(0, |(_, b)| *b);
            format!("{:.1}", b as f64 / r.nodes.max(1) as f64)
        };
        let mut row = vec![
            workload.to_string(),
            mode.to_string(),
            r.nodes.to_string(),
            r.cells.to_string(),
            format!("{:.1}", r.build_s * 1e3),
            format!("{:.1}", r.nodes as f64 / r.build_s / 1e3),
        ];
        row.extend(percentile_cells(&r.waves, &[0.5, 0.99], 1e3));
        row.push(format!("{:.1}", total as f64 / (1 << 20) as f64));
        row.push(format!("{:.1}", total as f64 / r.nodes.max(1) as f64));
        row.push(per("graph_core"));
        row.push(per("value_slab"));
        row.push(per("memo"));
        row.push(per("substrate"));
        t.row_strings(row);
    };
    let (cols, rows, leaves, waves_n) = if quick {
        (512u32, 16u32, 2048usize, 8usize)
    } else {
        (31_250u32, 32u32, 150_000usize, 32usize)
    };
    let edits_per_wave = 16u32;

    let sheet_run = |workers: usize| -> Run {
        let mem0 = alphonse::mem::snapshot();
        let rt = Runtime::new();
        rt.set_parallelism(workers);
        let t0 = Instant::now();
        let sheet = Sheet::new(&rt, cols, rows);
        let mut edits = Vec::with_capacity(cols as usize * rows as usize);
        for c in 0..cols {
            edits.push((Addr::new(c, 0), Formula::Num(c as i64)));
            for r in 1..rows {
                edits.push((
                    Addr::new(c, r),
                    Formula::Bin {
                        op: Op::Add,
                        lhs: Arc::new(Formula::Ref(Addr::new(c, r - 1))),
                        rhs: Arc::new(Formula::Num(1)),
                    },
                ));
            }
        }
        sheet.set_formulas(edits).expect("bulk populate");
        // Demand every column's bottom cell: materializes the whole chain.
        for c in 0..cols {
            let got = sheet.value_at(Addr::new(c, rows - 1)).num();
            assert_eq!(got, Some(c as i64 + rows as i64 - 1), "column {c}");
        }
        let build_s = t0.elapsed().as_secs_f64();
        let nodes = rt.node_count() as u64;
        let mem1 = alphonse::mem::snapshot();
        let m0 = rt.metrics_snapshot();
        let mut r = workloads::rng(1700 + workers as u64);
        for w in 0..waves_n {
            let batch: Vec<(Addr, Formula)> = (0..edits_per_wave.min(cols))
                .map(|i| {
                    let c = r.gen_range(0..cols);
                    (
                        Addr::new(c, 0),
                        Formula::Num((w as i64 + 1) * 1000 + i as i64),
                    )
                })
                .collect();
            let probes: Vec<(u32, i64)> = batch
                .iter()
                .map(|(a, f)| match f {
                    Formula::Num(v) => (a.col, *v),
                    _ => unreachable!(),
                })
                .collect();
            sheet.set_formulas(batch).expect("wave edit");
            rt.propagate();
            // Last write wins within the batch, so probe in reverse and
            // only check each column's final value.
            let mut seen = std::collections::HashSet::new();
            for &(c, v) in probes.iter().rev() {
                if seen.insert(c) {
                    let got = sheet.value_at(Addr::new(c, rows - 1)).num();
                    assert_eq!(got, Some(v + rows as i64 - 1), "column {c} after wave {w}");
                }
            }
        }
        let snapshot = rt.metrics_snapshot();
        let delta = snapshot.delta_since(&m0);
        Run {
            nodes,
            cells: cols as u64 * rows as u64,
            build_s,
            waves: delta.wave_latency_ns,
            tag_bytes: FOOTPRINT_TAGS
                .iter()
                .map(|&n| (n, live_growth(n, &mem1, &mem0)))
                .collect(),
            snapshot,
        }
    };

    let ag_run = |workers: usize| -> Run {
        let mem0 = alphonse::mem::snapshot();
        let rt = Runtime::new();
        rt.set_parallelism(workers);
        let mut g = Grammar::builder();
        let value = g.synthesized("value");
        let leaf = g.production("Leaf", 0, 1);
        let plus = g.production("Plus", 2, 0);
        g.syn_eq(leaf, value, |ctx| ctx.terminal(0));
        g.syn_eq(plus, value, move |ctx| {
            AttrVal::Int(ctx.child_syn(0, value).as_int() + ctx.child_syn(1, value).as_int())
        });
        let tree = AgTree::new(&rt, Arc::new(g.build()));
        let t0 = Instant::now();
        let mut mirror: Vec<i64> = (0..leaves).map(|i| i as i64 % 7).collect();
        let leaf_ids: Vec<AgNodeId> = mirror
            .iter()
            .map(|&v| tree.new_node(leaf, vec![AttrVal::Int(v)]))
            .collect();
        let mut level = leaf_ids.clone();
        while level.len() > 1 {
            level = level
                .chunks(2)
                .map(|pair| match pair {
                    [a, b] => tree.build(plus, vec![], &[*a, *b]),
                    [a] => *a,
                    _ => unreachable!(),
                })
                .collect();
        }
        let root = level[0];
        let eval = AgEvaluator::new(&rt, Arc::clone(&tree));
        let expect: i64 = mirror.iter().sum();
        assert_eq!(eval.syn(root, value).as_int(), expect);
        let build_s = t0.elapsed().as_secs_f64();
        let nodes = rt.node_count() as u64;
        let mem1 = alphonse::mem::snapshot();
        let m0 = rt.metrics_snapshot();
        let mut r = workloads::rng(1750 + workers as u64);
        for w in 0..waves_n {
            for i in 0..edits_per_wave as usize {
                let li = r.gen_range(0..leaves);
                let v = (w as i64 + 1) * 100 + i as i64;
                mirror[li] = v;
                tree.set_terminal(leaf_ids[li], 0, AttrVal::Int(v));
            }
            rt.propagate();
            let expect: i64 = mirror.iter().sum();
            assert_eq!(eval.syn(root, value).as_int(), expect, "wave {w}");
        }
        let snapshot = rt.metrics_snapshot();
        let delta = snapshot.delta_since(&m0);
        Run {
            nodes,
            cells: tree.len() as u64,
            build_s,
            waves: delta.wave_latency_ns,
            tag_bytes: FOOTPRINT_TAGS
                .iter()
                .map(|&n| (n, live_growth(n, &mem1, &mem0)))
                .collect(),
            snapshot,
        }
    };

    for workers in [0usize, 4] {
        let mode = if workers == 0 { "seq" } else { "par4" };
        let run = sheet_run(workers);
        sidecar.merge(&run.snapshot);
        emit(&mut t, "sheet_chain", mode, run);
    }
    for workers in [0usize, 4] {
        let mode = if workers == 0 { "seq" } else { "par4" };
        let run = ag_run(workers);
        sidecar.merge(&run.snapshot);
        emit(&mut t, "ag_sumtree", mode, run);
    }
    t.metrics = Some(sidecar.to_json());
    t
}
