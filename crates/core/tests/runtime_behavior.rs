//! Integration tests for the Alphonse runtime semantics: evaluation
//! strategies, quiescence cutoff, partitioning, UNCHECKED regions, and the
//! paper's fixpoint behaviour for procedures that write tracked state.

use alphonse::trace::{Recorder, TraceEvent};
use alphonse::{NodeId, Runtime, Scheduling, Strategy, Var};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Counts executions of a memo body.
#[derive(Clone)]
struct ExecCount(Arc<AtomicU32>);

impl ExecCount {
    fn get(&self) -> u32 {
        self.0.load(Ordering::Relaxed)
    }
}

fn counter() -> (ExecCount, impl Fn() + Send + Sync) {
    let c = ExecCount(Arc::new(AtomicU32::new(0)));
    let c2 = c.clone();
    (c, move || {
        c2.0.fetch_add(1, Ordering::Relaxed);
    })
}

#[test]
fn demand_chain_recomputes_only_when_queried() {
    let rt = Runtime::new();
    let a = rt.var(1i64);
    let (n1, bump1) = counter();
    let m1 = rt.memo("m1", move |rt, &(): &()| {
        bump1();
        a.get(rt) * 2
    });
    let m1c = m1.clone();
    let (n2, bump2) = counter();
    let m2 = rt.memo("m2", move |rt, &(): &()| {
        bump2();
        m1c.call(rt, ()) + 1
    });
    assert_eq!(m2.call(&rt, ()), 3);
    assert_eq!((n1.get(), n2.get()), (1, 1));

    a.set(&rt, 5);
    // Nothing recomputes until the next call.
    assert_eq!((n1.get(), n2.get()), (1, 1));
    assert_eq!(m2.call(&rt, ()), 11);
    assert_eq!((n1.get(), n2.get()), (2, 2));
}

#[test]
fn eager_updates_during_propagate_without_a_call() {
    let rt = Runtime::new();
    let a = rt.var(1i64);
    let (n, bump) = counter();
    let m = rt.memo_with("eager", Strategy::Eager, move |rt, &(): &()| {
        bump();
        a.get(rt) * 10
    });
    assert_eq!(m.call(&rt, ()), 10);
    a.set(&rt, 2);
    rt.propagate();
    assert_eq!(n.get(), 2, "eager node re-ran inside propagate");
    let before = rt.stats();
    assert_eq!(m.call(&rt, ()), 20);
    let d = rt.stats().delta_since(&before);
    assert_eq!(d.executions, 0, "the call itself was a pure cache hit");
}

#[test]
fn eager_cutoff_stops_propagation_at_equal_values() {
    // a -> abs -> downstream. Changing a from 3 to -3 re-runs abs but the
    // result (3) is unchanged, so downstream must NOT re-run (quiescence).
    let rt = Runtime::new();
    let a = rt.var(3i64);
    let (n_abs, bump_abs) = counter();
    let abs = rt.memo_with("abs", Strategy::Eager, move |rt, &(): &()| {
        bump_abs();
        a.get(rt).abs()
    });
    let absc = abs.clone();
    let (n_down, bump_down) = counter();
    let down = rt.memo_with("down", Strategy::Eager, move |rt, &(): &()| {
        bump_down();
        absc.call(rt, ()) + 100
    });
    assert_eq!(down.call(&rt, ()), 103);
    assert_eq!((n_abs.get(), n_down.get()), (1, 1));

    a.set(&rt, -3);
    rt.propagate();
    assert_eq!(n_abs.get(), 2, "abs re-ran");
    assert_eq!(n_down.get(), 1, "downstream cut off: abs value unchanged");
    assert_eq!(down.call(&rt, ()), 103);
    assert_eq!(n_down.get(), 1);
}

#[test]
fn demand_dirtying_is_transitively_conservative() {
    // With demand evaluation the dirtying phase does not compare values, so
    // downstream re-executes even when the intermediate value is unchanged
    // (paper Section 4.5 semantics).
    let rt = Runtime::new();
    let a = rt.var(3i64);
    let abs = rt.memo("abs", move |rt, &(): &()| a.get(rt).abs());
    let absc = abs.clone();
    let (n_down, bump_down) = counter();
    let down = rt.memo("down", move |rt, &(): &()| {
        bump_down();
        absc.call(rt, ()) + 100
    });
    assert_eq!(down.call(&rt, ()), 103);
    a.set(&rt, -3);
    assert_eq!(down.call(&rt, ()), 103);
    assert_eq!(n_down.get(), 2, "demand node re-ran conservatively");
}

#[test]
fn partitioning_isolates_independent_components() {
    let rt = Runtime::builder().partitioning(true).build();
    let a = rt.var(1i64);
    let b = rt.var(100i64);
    let (n_a, bump_a) = counter();
    let ma = rt.memo_with("comp_a", Strategy::Eager, move |rt, &(): &()| {
        bump_a();
        a.get(rt) + 1
    });
    let mb = rt.memo("comp_b", move |rt, &(): &()| b.get(rt) + 1);
    assert_eq!(ma.call(&rt, ()), 2);
    assert_eq!(mb.call(&rt, ()), 101);
    assert_eq!(n_a.get(), 1);

    // Change component A, then query component B: A's eager node must not
    // be forced (Section 6.3 — irrelevant changes stay batched).
    a.set(&rt, 5);
    assert_eq!(mb.call(&rt, ()), 101);
    assert_eq!(n_a.get(), 1, "query of B did not force A's partition");
    assert!(rt.dirty_count() > 0, "A's change is still pending");

    // A global propagate settles everything.
    rt.propagate();
    assert_eq!(n_a.get(), 2);
    assert_eq!(ma.call(&rt, ()), 6);
}

#[test]
fn without_partitioning_any_call_forces_all_pending_changes() {
    let rt = Runtime::new(); // global inconsistent set
    let a = rt.var(1i64);
    let b = rt.var(100i64);
    let (n_a, bump_a) = counter();
    let ma = rt.memo_with("comp_a", Strategy::Eager, move |rt, &(): &()| {
        bump_a();
        a.get(rt) + 1
    });
    let mb = rt.memo("comp_b", move |rt, &(): &()| b.get(rt) + 1);
    ma.call(&rt, ());
    mb.call(&rt, ());
    a.set(&rt, 5);
    // Calling the unrelated B evaluates the single global set, forcing A.
    mb.call(&rt, ());
    assert_eq!(n_a.get(), 2, "global set forced A's eager node");
    assert_eq!(rt.dirty_count(), 0);
}

#[test]
fn untracked_reads_do_not_invalidate() {
    let rt = Runtime::new();
    let tracked = rt.var(1i64);
    let peeked = rt.var(100i64);
    let (n, bump) = counter();
    let m = rt.memo("m", move |rt, &(): &()| {
        bump();
        tracked.get(rt) + peeked.get_untracked(rt)
    });
    assert_eq!(m.call(&rt, ()), 101);
    peeked.set(&rt, 999);
    assert_eq!(m.call(&rt, ()), 101, "stale by design: untracked read");
    assert_eq!(n.get(), 1);
    tracked.set(&rt, 2);
    assert_eq!(
        m.call(&rt, ()),
        1001,
        "tracked change picks up new peek too"
    );
    assert_eq!(n.get(), 2);
}

#[test]
fn untracked_scope_does_not_leak_into_nested_procedures() {
    let rt = Runtime::new();
    let inner_dep = rt.var(1i64);
    let inner = rt.memo("inner", move |rt, &(): &()| inner_dep.get(rt) * 2);
    let innerc = inner.clone();
    let outer = rt.memo("outer", move |rt, &(): &()| {
        // The *call edge* to `inner` is suppressed, but inner's own
        // dependency on inner_dep must still be recorded.
        rt.untracked(|| innerc.call(rt, ()))
    });
    assert_eq!(outer.call(&rt, ()), 2);
    inner_dep.set(&rt, 5);
    // inner recomputes correctly when asked directly…
    assert_eq!(inner.call(&rt, ()), 10);
    // …while outer (which opted out of the dependence) stays stale.
    assert_eq!(outer.call(&rt, ()), 2);
}

#[test]
fn procedure_writing_tracked_state_converges() {
    // A "normalize" procedure that clamps a variable into [0, 10] by
    // writing it back — the Section 7.3 pattern (balance performs
    // rotations). Writes inside the procedure re-dirty it; determinism
    // guarantees convergence.
    let rt = Runtime::new();
    let x = rt.var(42i64);
    let norm = rt.memo("normalize", move |rt, &(): &()| {
        let v = x.get(rt);
        let clamped = v.clamp(0, 10);
        if clamped != v {
            x.set(rt, clamped);
        }
        clamped
    });
    assert_eq!(norm.call(&rt, ()), 10);
    assert_eq!(x.get(&rt), 10);
    // Re-calling settles to a consistent fixpoint.
    assert_eq!(norm.call(&rt, ()), 10);
    x.set(&rt, -5);
    assert_eq!(norm.call(&rt, ()), 0);
    assert_eq!(x.get(&rt), 0);
    x.set(&rt, 7);
    assert_eq!(norm.call(&rt, ()), 7);
    assert_eq!(x.get(&rt), 7, "in-range value untouched");
}

#[test]
#[should_panic(expected = "DET")]
fn self_recursive_same_arguments_panics() {
    let rt = Runtime::new();
    let bad = rt.memo_recursive("bad", |rt, me, &n: &i64| -> i64 { me.call(rt, n) });
    let _ = bad.call(&rt, 1);
}

#[test]
fn height_order_executes_diamond_layers_once() {
    let (h_execs, _) = schedule_experiment(Scheduling::HeightOrder);
    assert_eq!(h_execs, 2, "c1 and j execute exactly once each");
}

#[test]
fn fifo_order_can_duplicate_work() {
    let (f_execs, j_execs) = schedule_experiment(Scheduling::Fifo);
    assert!(f_execs >= 2);
    assert_eq!(
        j_execs, 2,
        "FIFO pops the join node before its chain is settled"
    );
}

/// Builds a two-level eager graph where the join node `j` reads the source
/// `a` *before* the intermediate `c1`, so a FIFO drain processes `j` with a
/// stale `c1` and must re-run it. Returns (total executions after the
/// change, executions of j alone).
fn schedule_experiment(mode: Scheduling) -> (u64, u32) {
    let rt = Runtime::builder().scheduling(mode).build();
    let a = rt.var(1i64);
    let c1 = rt.memo_with("c1", Strategy::Eager, move |rt, &(): &()| a.get(rt) * 2);
    let c1c = c1.clone();
    let (nj, bumpj) = counter();
    let j = rt.memo_with("j", Strategy::Eager, move |rt, &(): &()| {
        bumpj();
        // Call c1 first, read a last: successor lists are head-inserted, so
        // a's succ list becomes [j, c1] and a FIFO drain pops j while c1 is
        // still stale.
        c1c.call(rt, ()) + a.get(rt)
    });
    assert_eq!(j.call(&rt, ()), 3);
    let before_j = nj.get();
    let before = rt.stats();
    a.set(&rt, 10);
    rt.propagate();
    assert_eq!(j.call(&rt, ()), 30);
    let d = rt.stats().delta_since(&before);
    (d.executions, nj.get() - before_j)
}

/// An eager fan under Fifo scheduling: one variable per eager cell, each
/// cell reading only its own variable. Returns the variables and the
/// cells' node ids.
fn fifo_fan(rt: &Runtime, width: usize) -> (Vec<Var<i64>>, Vec<NodeId>) {
    let vars: Vec<Var<i64>> = (0..width).map(|i| rt.var(i as i64)).collect();
    let cells = vars
        .iter()
        .map(|&v| {
            let cell = rt.memo_with("cell", Strategy::Eager, move |rt, &(): &()| v.get(rt) * 10);
            cell.call(rt, ());
            cell.instance_node(&()).unwrap()
        })
        .collect();
    (vars, cells)
}

/// Runs `f` under a recorder and returns the indices into `cells` of the
/// executions it began, in order.
fn execution_order(rt: &Runtime, cells: &[NodeId], f: impl FnOnce()) -> Vec<usize> {
    let rec = Arc::new(Recorder::new());
    let prev = rt.set_sink(Some(rec.clone()));
    f();
    rt.set_sink(prev);
    (rec.events().into_iter())
        .filter_map(|e| match e {
            TraceEvent::ExecuteBegin { node } => cells.iter().position(|&c| c == node),
            _ => None,
        })
        .collect()
}

#[test]
fn fifo_drains_in_insertion_order() {
    let rt = Runtime::builder().scheduling(Scheduling::Fifo).build();
    let (vars, cells) = fifo_fan(&rt, 4);
    let order = execution_order(&rt, &cells, || {
        for i in [2, 0, 3, 1] {
            vars[i].set(&rt, 100);
        }
        rt.propagate();
    });
    assert_eq!(
        order,
        vec![2, 0, 3, 1],
        "cells run in the order their inputs were written"
    );
    // Height order ignores the write order: every cell sits one level up.
    let rt = Runtime::new();
    let (vars, cells) = fifo_fan(&rt, 4);
    let order = execution_order(&rt, &cells, || {
        for i in [2, 0, 3, 1] {
            vars[i].set(&rt, 100);
        }
        rt.propagate();
    });
    assert_eq!(order, vec![3, 2, 1, 0]);
}

#[test]
fn fifo_requeues_a_redirtied_node_at_the_back() {
    let rt = Runtime::builder().scheduling(Scheduling::Fifo).build();
    let (vars, cells) = fifo_fan(&rt, 2);
    let order = execution_order(&rt, &cells, || {
        vars[0].set(&rt, 5);
        vars[1].set(&rt, 6);
        // Pops the first write; its cell joins the queue behind the second.
        assert!(!rt.propagate_steps(1));
        // Written again after its pop, the first variable queues last.
        vars[0].set(&rt, 7);
        rt.propagate();
    });
    assert_eq!(order, vec![0, 1, 0]);
    rt.check_invariants();
}

#[test]
fn fifo_queues_a_repeatedly_dirtied_node_once() {
    let rt = Runtime::builder().scheduling(Scheduling::Fifo).build();
    let (vars, cells) = fifo_fan(&rt, 2);
    let order = execution_order(&rt, &cells, || {
        vars[0].set(&rt, 1);
        vars[1].set(&rt, 2);
        // Re-dirtying a queued node keeps its place and adds no entry.
        vars[0].set(&rt, 3);
        vars[0].set(&rt, 4);
        assert_eq!(rt.dirty_count(), 2);
        rt.propagate();
    });
    assert_eq!(order, vec![0, 1]);
    assert_eq!(rt.dirty_count(), 0);
}

#[test]
fn partitioned_fifo_merge_keeps_every_queued_node() {
    let rt = Runtime::builder()
        .partitioning(true)
        .scheduling(Scheduling::Fifo)
        .build();
    let (vars, cells) = fifo_fan(&rt, 3);
    let order = execution_order(&rt, &cells, || {
        // Three partitions, each with queued dirt.
        for i in [1, 2, 0] {
            vars[i].set(&rt, 50 + i as i64);
        }
        assert_eq!(rt.dirty_count(), 3);
        // A fresh instance reading all three merges their partitions.
        let (x, y, z) = (vars[0], vars[1], vars[2]);
        let join = rt.memo("join", move |rt, &(): &()| {
            x.get(rt) + y.get(rt) + z.get(rt)
        });
        assert_eq!(join.call(&rt, ()), 153);
        assert_eq!(rt.dirty_count(), 3, "the merged queue lost nothing");
        rt.propagate();
    });
    // The merged queue drains in write order across the old partitions.
    assert_eq!(order, vec![1, 2, 0]);
    assert_eq!(rt.dirty_count(), 0);
    rt.check_invariants();
}

#[test]
fn stats_account_for_cache_behaviour() {
    let rt = Runtime::new();
    let a = rt.var(1i64);
    let m = rt.memo("m", move |rt, k: &i64| a.get(rt) + k);
    for _ in 0..5 {
        m.call(&rt, 7);
    }
    let s = rt.stats();
    assert_eq!(s.calls, 5);
    assert_eq!(s.executions, 1);
    assert_eq!(s.cache_hits, 4);
    assert_eq!(s.nodes_created, 2); // the var + one instance
    assert!(s.edges_created >= 1);
}

#[test]
fn edges_are_deduplicated_per_execution_by_default() {
    let rt = Runtime::new();
    let a = rt.var(1i64);
    let m = rt.memo("m", move |rt, &(): &()| a.get(rt) + a.get(rt) + a.get(rt));
    m.call(&rt, ());
    assert_eq!(rt.stats().edges_created, 1);
}

#[test]
fn log_dedup_survives_nested_frames() {
    // Nested calls: outer reads `a`, calls inner (which reads `a` itself),
    // then reads `a` again. Each frame logs into its own dependence log, so
    // the nested frame's read of `a` neither hides nor duplicates outer's:
    // the second outer read is recognized as already logged.
    let rt = Runtime::new();
    let a = rt.var(1i64);
    let inner = rt.memo("inner", move |rt, &(): &()| a.get(rt) * 2);
    let ic = inner.clone();
    let outer = rt.memo("outer", move |rt, &(): &()| {
        let x = a.get(rt); // logs a for outer
        let y = ic.call(rt, ()); // nested frame: logs a for inner
        let z = a.get(rt); // a repeat of outer's first read
        x + y + z
    });
    assert_eq!(outer.call(&rt, ()), 4);
    let s = rt.stats();
    assert_eq!(s.edges_created, 3, "exactly a→outer, a→inner, inner→outer");
    assert_eq!(s.dedup_hits, 1, "outer's second read of a deduped");
}

#[test]
fn log_dedup_does_not_leak_between_executions() {
    // Logs are per execution: consecutive executions of different
    // instances reading the same var each record their own edge.
    let rt = Runtime::new();
    let a = rt.var(1i64);
    let m1 = rt.memo("m1", move |rt, &(): &()| a.get(rt));
    let m2 = rt.memo("m2", move |rt, &(): &()| a.get(rt));
    m1.call(&rt, ());
    m2.call(&rt, ());
    let s = rt.stats();
    assert_eq!(s.edges_created, 2, "one edge per instance");
    assert_eq!(s.dedup_hits, 0, "no false dedup across executions");
}

#[test]
fn re_execution_reading_the_same_nodes_moves_no_edges() {
    // The retained edges of the previous execution are the reconciled
    // log of the next one: nothing is unlinked or linked again.
    let rt = Runtime::new();
    let a = rt.var(1i64);
    let b = rt.var(2i64);
    let sum = rt.memo_with("sum", Strategy::Eager, move |rt, &(): &()| {
        a.get(rt) + b.get(rt)
    });
    let twice = sum.clone();
    let top = rt.memo_with("top", Strategy::Eager, move |rt, &(): &()| {
        twice.call(rt, ()) * 2
    });
    assert_eq!(top.call(&rt, ()), 6);
    let edges = rt.edge_count();
    let before = rt.stats();
    for k in 0..10 {
        a.set(&rt, k);
        rt.propagate();
    }
    assert_eq!(top.call(&rt, ()), 2 * (9 + 2));
    let d = rt.stats().delta_since(&before);
    assert_eq!(d.executions, 20, "both instances re-ran every wave");
    assert_eq!((d.edges_created, d.edges_removed), (0, 0));
    assert_eq!(rt.edge_count(), edges);
    rt.check_invariants();
}

#[test]
fn swapping_one_dependency_moves_exactly_that_edge() {
    let rt = Runtime::new();
    let pick_b = rt.var(true);
    let a = rt.var(1i64);
    let b = rt.var(10i64);
    let c = rt.var(100i64);
    let m = rt.memo("pick", move |rt, &(): &()| {
        a.get(rt) + if pick_b.get(rt) { b.get(rt) } else { c.get(rt) }
    });
    assert_eq!(m.call(&rt, ()), 11);
    let n = m.instance_node(&()).unwrap();
    let rec = Arc::new(Recorder::new());
    rt.set_sink(Some(rec.clone()));
    let before = rt.stats();
    pick_b.set(&rt, false);
    assert_eq!(m.call(&rt, ()), 101);
    rt.set_sink(None);
    let d = rt.stats().delta_since(&before);
    assert_eq!((d.edges_created, d.edges_removed), (1, 1));
    // The reconcile reports the removal, then the addition, and both
    // before the execution's end.
    let edge_or_end: Vec<_> = (rec.events().into_iter())
        .filter(|e| {
            matches!(
                e,
                TraceEvent::EdgeAdded { .. }
                    | TraceEvent::EdgeRemoved { .. }
                    | TraceEvent::ExecuteEnd { .. }
            )
        })
        .collect();
    assert_eq!(
        edge_or_end,
        vec![
            TraceEvent::EdgeRemoved {
                from: b.node(),
                to: n
            },
            TraceEvent::EdgeAdded {
                from: c.node(),
                to: n
            },
            TraceEvent::ExecuteEnd {
                node: n,
                changed: true
            },
        ]
    );
    // The dropped dependency no longer reaches the instance.
    b.set(&rt, 0);
    assert_eq!(rt.dirty_count(), 0, "b has no reader left");
    rt.check_invariants();
}

/// A memo whose first run reads `y` and whose later runs (after `flag`
/// turns false) write `y` untracked instead — the write-after-read shape
/// of the Section 7.3 `balance` method. `propagate_inside` makes the
/// later runs propagate from inside the body.
fn writer_of_its_old_read(
    propagate_inside: bool,
) -> (
    Runtime,
    alphonse::Var<bool>,
    alphonse::Var<i64>,
    alphonse::Memo<(), i64>,
    ExecCount,
) {
    let rt = Runtime::new();
    let flag = rt.var(true);
    let y = rt.var(0i64);
    let (runs, bump) = counter();
    let m = rt.memo("m", move |rt, &(): &()| {
        bump();
        if flag.get(rt) {
            return y.get(rt);
        }
        rt.untracked(|| y.set(rt, 7));
        if propagate_inside {
            rt.propagate();
        }
        -1
    });
    assert_eq!(m.call(&rt, ()), 0);
    (rt, flag, y, m, runs)
}

#[test]
fn a_write_to_what_only_the_live_executions_last_run_read_queues_nothing() {
    // The edge y -> m stands for m's previous run; the live run has not
    // read y, so y has no reader and its change needs no propagation.
    let (rt, flag, _y, m, runs) = writer_of_its_old_read(false);
    let before = rt.stats();
    flag.set(&rt, false);
    assert_eq!(m.call(&rt, ()), -1);
    let d = rt.stats().delta_since(&before);
    assert_eq!((d.executions, d.dirtied), (1, 2), "flag and m, never y");
    assert_eq!(rt.dirty_count(), 0);
    assert_eq!(m.call(&rt, ()), -1);
    assert_eq!(runs.get(), 2);
    rt.check_invariants();
}

#[test]
fn nested_evaluation_does_not_reach_a_live_frame_through_its_previous_reads() {
    // A second reader keeps y's write relevant. The body then propagates
    // while its frame is live: the nested wave drains y, and the retained
    // edge y -> m — from the previous run only — must be gone by then, or
    // the live execution would be invalidated and run a third time.
    let (rt, flag, y, m, runs) = writer_of_its_old_read(true);
    let r = rt.memo("r", move |rt, &(): &()| y.get(rt));
    assert_eq!(r.call(&rt, ()), 0);
    let before = rt.stats();
    flag.set(&rt, false);
    assert_eq!(m.call(&rt, ()), -1);
    let d = rt.stats().delta_since(&before);
    assert_eq!((d.executions, d.dirtied), (1, 4), "flag, m, y and r");
    assert_eq!(m.call(&rt, ()), -1);
    assert_eq!(runs.get(), 2, "the live execution stayed valid");
    assert_eq!(r.call(&rt, ()), 7);
    rt.check_invariants();
}

#[test]
fn a_long_repetitive_log_dedups_to_its_distinct_reads() {
    // Alternating reads defeat the last-entry check; the log's in-place
    // compaction and the reconcile drop every repeat.
    let rt = Runtime::new();
    let a = rt.var(1i64);
    let b = rt.var(2i64);
    let m = rt.memo("pingpong", move |rt, &(): &()| {
        (0..100_000).map(|_| a.get(rt) + b.get(rt)).sum::<i64>()
    });
    assert_eq!(m.call(&rt, ()), 300_000);
    let s = rt.stats();
    assert_eq!(s.edges_created, 2);
    assert_eq!(s.dedup_hits, 199_998);
    rt.check_invariants();
}

#[test]
fn read_counter_counts_every_read_form() {
    let rt = Runtime::new();
    let v = rt.var(7i64);
    assert_eq!(v.get(&rt), 7); // typed read
    assert_eq!(v.with(&rt, |&x| x * 2), 14); // in-place typed read
    assert_eq!(rt.batch(|tx| v.get_in(tx)), 7); // read through a batch
    assert_eq!(rt.stats().reads, 3);
}

#[test]
fn memo_probes_count_argument_table_lookups() {
    let rt = Runtime::new();
    let m = rt.memo("m", |_rt, &k: &i64| k * 2);
    for _ in 0..3 {
        m.call(&rt, 1);
    }
    assert_eq!(m.call(&rt, 2), 4);
    assert_eq!(rt.stats().memo_probes, 4, "one probe per call");
}

#[test]
fn stale_dependencies_are_dropped_on_reexecution() {
    // m reads `sel`, then one of a/b. After switching sel, the edge from the
    // unused branch must be gone: changing the now-unused var must not
    // invalidate m.
    let rt = Runtime::new();
    let sel = rt.var(false);
    let a = rt.var(10i64);
    let b = rt.var(20i64);
    let (n, bump) = counter();
    let m = rt.memo("select", move |rt, &(): &()| {
        bump();
        if sel.get(rt) {
            a.get(rt)
        } else {
            b.get(rt)
        }
    });
    assert_eq!(m.call(&rt, ()), 20);
    sel.set(&rt, true);
    assert_eq!(m.call(&rt, ()), 10);
    assert_eq!(n.get(), 2);
    // b is no longer a dependency.
    b.set(&rt, 999);
    assert_eq!(m.call(&rt, ()), 10);
    assert_eq!(n.get(), 2, "change to unused branch did not re-execute");
    // a still is.
    a.set(&rt, 11);
    assert_eq!(m.call(&rt, ()), 11);
    assert_eq!(n.get(), 3);
}

#[test]
fn many_instances_invalidate_independently() {
    let rt = Runtime::new();
    let vars: Vec<_> = (0..10).map(|i| rt.var(i as i64)).collect();
    let vs = vars.clone();
    let (n, bump) = counter();
    let pick = rt.memo("pick", move |rt, &i: &usize| {
        bump();
        vs[i].get(rt)
    });
    for i in 0..10 {
        assert_eq!(pick.call(&rt, i), i as i64);
    }
    assert_eq!(n.get(), 10);
    vars[3].set(&rt, 333);
    for i in 0..10 {
        let expect = if i == 3 { 333 } else { i as i64 };
        assert_eq!(pick.call(&rt, i), expect);
    }
    assert_eq!(n.get(), 11, "only instance 3 re-executed");
}

#[test]
fn batched_changes_coalesce() {
    // Many writes between queries are batched: one query pays once.
    let rt = Runtime::new();
    let a = rt.var(0i64);
    let (n, bump) = counter();
    let m = rt.memo("m", move |rt, &(): &()| {
        bump();
        a.get(rt)
    });
    m.call(&rt, ());
    for i in 1..=100 {
        a.set(&rt, i);
    }
    assert_eq!(m.call(&rt, ()), 100);
    assert_eq!(n.get(), 2, "100 writes, one recomputation");
}

/// The Section 1 debugging question "what does this instance depend on?"
/// is answered by the event stream: the recorded `EdgeAdded` events are
/// exactly R(p) of each execution.
#[test]
fn recorded_edges_list_dependencies() {
    let rt = Runtime::new();
    let rec = Arc::new(Recorder::new());
    rt.set_sink(Some(rec.clone()));
    let a = rt.var(2i64);
    let b = rt.var(3i64);
    let mid = rt.memo("mid", move |rt, &(): &()| a.get(rt) + b.get(rt));
    let midc = mid.clone();
    let top = rt.memo("top", move |rt, &(): &()| midc.call(rt, ()) * 10);
    assert_eq!(top.call(&rt, ()), 50);
    rt.set_sink(None);
    let mid_node = mid.instance_node(&()).unwrap();
    let top_node = top.instance_node(&()).unwrap();
    let mut edges: Vec<(NodeId, NodeId)> = (rec.events().into_iter())
        .filter_map(|e| match e {
            TraceEvent::EdgeAdded { from, to } => Some((from, to)),
            _ => None,
        })
        .collect();
    edges.sort();
    let mut expected = vec![
        (a.node(), mid_node),
        (b.node(), mid_node),
        (mid_node, top_node),
    ];
    expected.sort();
    assert_eq!(edges, expected);
}

#[test]
fn untraced_instances_are_named_by_their_memo() {
    let rt = Runtime::new();
    rt.set_sink(None);
    assert!(!rt.tracing());
    let a = rt.var(1i64);
    let sq = rt.memo("square", move |rt, &k: &i64| a.get(rt) * k * k);
    let sqc = sq.clone();
    let top = rt.memo("top", move |rt, &(): &()| sqc.call(rt, 3) + 1);
    assert_eq!(top.call(&rt, ()), 10);
    let node = sq.instance_node(&3).unwrap();
    assert_eq!(rt.node_label(node).as_deref(), Some("square"));
    assert_eq!(rt.node_label(a.node()), None, "unlabeled variable");
    let top_node = top.instance_node(&()).unwrap();
    assert_eq!(rt.node_label(top_node).as_deref(), Some("top"));
}

#[test]
fn set_label_overrides_the_memo_name() {
    let rt = Runtime::new();
    let m = rt.memo("generic", |_rt, &k: &i64| k);
    m.call(&rt, 7);
    let node = m.instance_node(&7).unwrap();
    rt.set_label(node, "seven");
    assert_eq!(rt.node_label(node).as_deref(), Some("seven"));
    m.call(&rt, 8);
    let other = m.instance_node(&8).unwrap();
    assert_eq!(rt.node_label(other).as_deref(), Some("generic"));
}

#[test]
#[should_panic(
    expected = "incremental procedure narcissus recursively depends on its own first execution"
)]
fn det_panic_names_the_memo() {
    let rt = Runtime::new();
    rt.set_sink(None);
    let bad = rt.memo_recursive("narcissus", |rt, me, &n: &u32| -> u32 { me.call(rt, n) });
    bad.call(&rt, 1);
}

#[test]
fn bounded_memo_hit_refreshes_recency() {
    let rt = Runtime::new();
    let (n, bump) = counter();
    let m = rt.memo_bounded("recent", Strategy::Demand, 3, move |_rt, &k: &i64| {
        bump();
        k * 10
    });
    for k in 1..=3 {
        assert_eq!(m.call(&rt, k), k * 10);
    }
    // The hit makes 1 more recent than 2 and 3 ...
    assert_eq!(m.call(&rt, 1), 10);
    assert_eq!(n.get(), 3);
    // ... so the fourth instance evicts 2, the least recently used.
    assert_eq!(m.call(&rt, 4), 40);
    assert_eq!(m.evictions(), 1);
    assert_eq!(m.call(&rt, 1), 10);
    assert_eq!(m.call(&rt, 3), 30);
    assert_eq!(n.get(), 4, "1 and 3 kept their values");
    assert_eq!(m.call(&rt, 2), 20);
    assert_eq!(n.get(), 5, "2 was evicted and recomputes");
}

#[test]
fn bounded_memo_evicts_lru_values() {
    let rt = Runtime::new();
    let base = rt.var(1i64);
    let (n, bump) = counter();
    let m = rt.memo_bounded("bounded", Strategy::Demand, 3, move |rt, &k: &i64| {
        bump();
        base.get(rt) * k
    });
    for k in 1..=3 {
        assert_eq!(m.call(&rt, k), k);
    }
    assert_eq!(n.get(), 3);
    assert_eq!(m.evictions(), 0);
    // A fourth instance evicts the least recently used (k=1).
    assert_eq!(m.call(&rt, 4), 4);
    assert_eq!(m.evictions(), 1);
    // k=2 and k=3 are still live values (pure hits)…
    assert_eq!(m.call(&rt, 2), 2);
    assert_eq!(m.call(&rt, 3), 3);
    assert_eq!(n.get(), 4);
    // …but k=1 was evicted and recomputes (evicting the next LRU victim).
    assert_eq!(m.call(&rt, 1), 1);
    assert_eq!(n.get(), 5);
    assert_eq!(m.capacity(), Some(3));
    assert_eq!(m.instance_count(), 4, "argument table keeps all instances");
}

#[test]
fn evicted_instances_still_propagate_changes() {
    // Eviction must not break dependence: a dependent computed through an
    // evicted instance still invalidates when the underlying var changes.
    let rt = Runtime::new();
    let base = rt.var(10i64);
    let small = rt.memo_bounded("small", Strategy::Demand, 1, move |rt, &k: &i64| {
        base.get(rt) + k
    });
    let sc = small.clone();
    let top = rt.memo("top", move |rt, &(): &()| sc.call(rt, 1) * 100);
    assert_eq!(top.call(&rt, ()), 1100);
    // Evict instance k=1 by touching k=2.
    small.call(&rt, 2);
    assert!(small.evictions() >= 1);
    // The change must still reach `top` through the evicted instance.
    base.set(&rt, 20);
    assert_eq!(top.call(&rt, ()), 2100, "propagation survived eviction");
}

/// A bounded memo's miss costs a constant number of runtime locks however
/// many instances its argument table keeps: the replacement policy checks
/// and evicts every candidate under one guard.
#[test]
fn bounded_memo_miss_locks_stay_constant() {
    let rt = Runtime::new();
    let m = rt.memo_bounded("bounded", Strategy::Demand, 4, |_rt, &k: &u32| k * 2);
    let mut locks_per_miss = Vec::new();
    let mut next = 0u32;
    for size in [100u32, 1_000] {
        while next < size {
            m.call(&rt, next);
            next += 1;
        }
        let before = rt.stats();
        assert_eq!(m.call(&rt, next), next * 2);
        next += 1;
        locks_per_miss.push(rt.stats().delta_since(&before).lock_acquisitions);
    }
    assert!(locks_per_miss[1] <= 4, "locks per miss: {locks_per_miss:?}");
    assert_eq!(locks_per_miss[0], locks_per_miss[1], "{locks_per_miss:?}");
    assert_eq!(m.evictions(), u64::from(next) - 4);
}

#[test]
fn propagate_steps_preempts_and_resumes() {
    let rt = Runtime::new();
    let src = rt.var(1i64);
    let mut prev = rt.memo_with("p0", Strategy::Eager, move |rt, &(): &()| src.get(rt));
    prev.call(&rt, ());
    for i in 1..20 {
        let below = prev.clone();
        let m = rt.memo_with(&format!("p{i}"), Strategy::Eager, move |rt, &(): &()| {
            below.call(rt, ()) + 1
        });
        m.call(&rt, ());
        prev = m;
    }
    src.set(&rt, 5);
    // One step at a time: must take several slices, then finish.
    let mut slices = 0;
    while !rt.propagate_steps(3) {
        slices += 1;
        assert!(slices < 100, "propagation must terminate");
    }
    assert!(slices >= 2, "a 20-deep chain needs multiple 3-step slices");
    assert_eq!(rt.dirty_count(), 0);
    let before = rt.stats();
    assert_eq!(prev.call(&rt, ()), 24);
    assert_eq!(rt.stats().delta_since(&before).executions, 0);
}

/// Builds the diamond Total(Left(base), Right(rate)) and returns the runtime
/// plus the stats after the first full evaluation, optionally pre-seeding
/// each memo's node height from the static strata (Left/Right at 1, Total
/// at 2) as the compiler's SCC condensation would.
fn diamond_with_hints(seed: bool) -> alphonse::Stats {
    let rt = Runtime::new();
    let base = rt.var(10i64);
    let rate = rt.var(3i64);
    let left = rt.memo("Left", move |rt, &(): &()| base.get(rt) * 2);
    let right = rt.memo("Right", move |rt, &(): &()| rate.get(rt) + 1);
    let (lc, rc) = (left.clone(), right.clone());
    let total = rt.memo("Total", move |rt, &(): &()| {
        lc.call(rt, ()) + rc.call(rt, ())
    });
    if seed {
        left.set_height_hint(1);
        right.set_height_hint(1);
        total.set_height_hint(2);
    }
    assert_eq!(total.call(&rt, ()), 24);
    rt.stats()
}

#[test]
fn static_height_seeding_eliminates_online_raises() {
    let unseeded = diamond_with_hints(false);
    assert_eq!(unseeded.height_seeded, 0);
    assert!(
        unseeded.height_raises > 0,
        "the diamond built bottom-up must raise heights online: {unseeded:?}"
    );

    let seeded = diamond_with_hints(true);
    assert_eq!(
        seeded.height_seeded, 3,
        "all three instances took their hint"
    );
    assert_eq!(
        seeded.height_raises, 0,
        "nodes born at their static stratum never cascade: {seeded:?}"
    );
}

#[test]
fn overestimated_height_hints_stay_correct() {
    let rt = Runtime::new();
    let a = rt.var(1i64);
    let m = rt.memo("wide", move |rt, &(): &()| a.get(rt) * 7);
    // A wildly overestimated stratum: heights only order processing.
    m.set_height_hint(1000);
    assert_eq!(m.call(&rt, ()), 7);
    a.set(&rt, 3);
    assert_eq!(m.call(&rt, ()), 21);
    assert_eq!(rt.stats().height_seeded, 1);
}
