//! Behavioral tests for level-parallel wave propagation: correctness of
//! the level scheduler at 0/1/N workers, the parallel stats counters, and
//! the configuration gates that keep every non-default setup on the
//! sequential evaluator.

use alphonse::{Runtime, Scheduling, Strategy, Var};

/// A wide two-layer fan: `width` vars, one eager memo per var (height 1),
/// one eager sum over all of them (height 2). Every update wave is one
/// `width`-node level followed by a single-node level.
fn fan(rt: &Runtime, width: usize) -> (Vec<Var<i64>>, alphonse::Memo<(), i64>) {
    let vars: Vec<Var<i64>> = (0..width).map(|i| rt.var(i as i64)).collect();
    let cells: Vec<alphonse::Memo<(), i64>> = vars
        .iter()
        .map(|v| {
            let v = *v;
            rt.memo_with("cell", Strategy::Eager, move |rt, &(): &()| v.get(rt) * 10)
        })
        .collect();
    let total = {
        let cells = cells.clone();
        rt.memo_with("total", Strategy::Eager, move |rt, &(): &()| {
            cells.iter().map(|c| c.call(rt, ())).sum()
        })
    };
    total.call(rt, ());
    (vars, total)
}

#[test]
fn parallel_wave_matches_sequential_values() {
    for workers in [0usize, 1, 2, 4] {
        let rt = Runtime::new();
        rt.set_parallelism(workers);
        assert_eq!(rt.parallelism(), workers);
        let (vars, total) = fan(&rt, 8);
        assert_eq!(total.call(&rt, ()), (0..8).sum::<i64>() * 10);
        for (i, v) in vars.iter().enumerate() {
            v.set(&rt, (i as i64) + 100);
        }
        rt.propagate();
        assert_eq!(rt.dirty_count(), 0);
        assert_eq!(
            total.call(&rt, ()),
            (0..8).map(|i| i + 100).sum::<i64>() * 10,
            "wrong total at parallelism {workers}"
        );
        rt.check_invariants();
    }
}

#[test]
fn pool_levels_are_counted_and_bounded() {
    let rt = Runtime::new();
    rt.set_parallelism(4);
    let (vars, _) = fan(&rt, 8);
    rt.reset_stats();
    for v in &vars {
        v.set(&rt, 999);
    }
    rt.propagate();
    let s = rt.stats();
    // The 8-cell level runs on the pool; the single-node total level is
    // inline and therefore not a "parallel level".
    assert_eq!(s.parallel_levels, 1);
    assert_eq!(s.parallel_executions, 8);
    assert!(s.parallel_executions <= s.executions);
    assert_eq!(s.level_width_hwm, 8);
    // 8 vars + 8 cells + 1 total processed.
    assert_eq!(s.propagation_steps, 17);
}

#[test]
fn single_worker_control_counts_levels_but_spawns_no_pool_work() {
    let rt = Runtime::new();
    rt.set_parallelism(1);
    let (vars, _) = fan(&rt, 4);
    rt.reset_stats();
    vars[0].set(&rt, 50);
    vars[1].set(&rt, 51);
    rt.propagate();
    let s = rt.stats();
    assert_eq!(s.parallel_levels, 0, "inline levels are not pool levels");
    assert_eq!(s.parallel_executions, 0);
    assert_eq!(s.level_width_hwm, 2, "level drain still batches by height");
}

#[test]
fn sequential_default_keeps_parallel_counters_at_zero() {
    let rt = Runtime::new();
    let (vars, _) = fan(&rt, 4);
    rt.reset_stats();
    for v in &vars {
        v.set(&rt, 7);
    }
    rt.propagate();
    let s = rt.stats();
    assert_eq!(s.parallel_levels, 0);
    assert_eq!(s.parallel_executions, 0);
    assert_eq!(s.level_width_hwm, 0, "sequential drain never batches");
}

#[test]
fn fifo_scheduling_stays_sequential_despite_the_knob() {
    let rt = Runtime::builder().scheduling(Scheduling::Fifo).build();
    rt.set_parallelism(4);
    let (vars, total) = fan(&rt, 4);
    rt.reset_stats();
    for v in &vars {
        v.set(&rt, 3);
    }
    rt.propagate();
    let s = rt.stats();
    assert_eq!(s.parallel_levels, 0);
    assert_eq!(s.level_width_hwm, 0);
    assert_eq!(total.call(&rt, ()), 4 * 3 * 10);
}

#[test]
fn partitioned_runtimes_stay_sequential_despite_the_knob() {
    let rt = Runtime::builder().partitioning(true).build();
    rt.set_parallelism(4);
    let (vars, total) = fan(&rt, 4);
    rt.reset_stats();
    for v in &vars {
        v.set(&rt, 5);
    }
    rt.propagate();
    let s = rt.stats();
    assert_eq!(s.parallel_levels, 0);
    assert_eq!(s.level_width_hwm, 0);
    assert_eq!(total.call(&rt, ()), 4 * 5 * 10);
}

#[test]
fn nested_memo_calls_from_workers_record_dependencies() {
    // Each eager `outer` calls a shared demand memo from its worker thread:
    // cache hits, fresh nested executions and edge recording all happen
    // under worker-held locks.
    let rt = Runtime::new();
    rt.set_parallelism(2);
    let base = rt.var(2i64);
    let shared = rt.memo("shared", move |rt, &(): &()| base.get(rt) * 100);
    let outers: Vec<alphonse::Memo<(), i64>> = (0..4)
        .map(|i| {
            let shared = shared.clone();
            let v = rt.var(i as i64);
            rt.memo_with("outer", Strategy::Eager, move |rt, &(): &()| {
                v.get(rt) + shared.call(rt, ())
            })
        })
        .collect();
    let sum = {
        let outers = outers.clone();
        rt.memo_with("sum", Strategy::Eager, move |rt, &(): &()| {
            outers.iter().map(|m| m.call(rt, ())).sum::<i64>()
        })
    };
    assert_eq!(sum.call(&rt, ()), 6 + 4 * 200);
    base.set(&rt, 3);
    rt.propagate();
    assert_eq!(sum.call(&rt, ()), 6 + 4 * 300);
    rt.check_invariants();
}

#[test]
fn bounded_drains_are_level_granular_and_resume() {
    let rt = Runtime::new();
    rt.set_parallelism(2);
    let (vars, total) = fan(&rt, 6);
    for v in &vars {
        v.set(&rt, 1000);
    }
    // One step only: the first level (the 6 dirty vars) is never split,
    // so one bounded call drains at least that level; the cells and the
    // total still owe work.
    let done = rt.propagate_steps(1);
    assert!(!done, "work must remain after a one-step slice");
    assert!(rt.dirty_count() > 0);
    while !rt.propagate_steps(1) {}
    assert_eq!(rt.dirty_count(), 0);
    assert_eq!(total.call(&rt, ()), 6 * 1000 * 10);
}

#[test]
fn parallelism_knob_survives_resizing() {
    let rt = Runtime::new();
    let (vars, total) = fan(&rt, 6);
    for workers in [2usize, 4, 3, 0, 2] {
        rt.set_parallelism(workers);
        for (i, v) in vars.iter().enumerate() {
            v.set(&rt, (workers * 10 + i) as i64);
        }
        rt.propagate();
        assert_eq!(
            total.call(&rt, ()),
            (0..6).map(|i| (workers * 10 + i) as i64).sum::<i64>() * 10
        );
    }
    rt.check_invariants();
}

#[cfg(feature = "trace")]
#[test]
fn level_brackets_appear_in_the_trace() {
    use alphonse::trace::{Recorder, TraceEvent};
    use std::sync::Arc;
    let rt = Runtime::new();
    rt.set_parallelism(2);
    let (vars, _) = fan(&rt, 4);
    let rec = Arc::new(Recorder::new(1 << 12));
    rt.with_trace(rec.clone(), || {
        for v in &vars {
            v.set(&rt, -1);
        }
        rt.propagate();
    });
    let events = rec.events();
    let mut begins = 0;
    let mut executed_in_levels = 0;
    for e in &events {
        match e {
            TraceEvent::LevelBegin { width, .. } => {
                begins += 1;
                assert!(*width >= 1);
            }
            TraceEvent::LevelEnd { executed, .. } => executed_in_levels += *executed,
            _ => {}
        }
    }
    // Three levels: vars (width 4, 0 executed), cells (4 executed),
    // total (1 executed).
    assert_eq!(begins, 3);
    assert_eq!(executed_in_levels, 5);
}

/// Worker busy/idle gauges come from the executor pool, so they populate
/// only when a pool actually runs — `set_parallelism(n >= 2)` with a
/// multi-node level — never under sequential or inline (n = 1) draining.
#[cfg(feature = "metrics")]
#[test]
fn worker_gauges_populate_only_under_pooled_draining() {
    use std::time::Duration;

    // A wide row of stall-bound eager cells, so pooled workers accumulate
    // measurable busy time.
    let stall_fan = |rt: &Runtime, width: usize| {
        let vars: Vec<Var<i64>> = (0..width).map(|i| rt.var(i as i64)).collect();
        let cells: Vec<alphonse::Memo<(), i64>> = vars
            .iter()
            .map(|v| {
                let v = *v;
                rt.memo_with("cell", Strategy::Eager, move |rt, &(): &()| {
                    std::thread::sleep(Duration::from_micros(200));
                    v.get(rt) + 1
                })
            })
            .collect();
        for c in &cells {
            c.call(rt, ());
        }
        vars
    };

    for workers in [0usize, 1] {
        let rt = Runtime::new();
        rt.set_parallelism(workers);
        let vars = stall_fan(&rt, 6);
        for v in &vars {
            v.set(&rt, 50);
        }
        rt.propagate();
        let snap = rt.metrics_snapshot();
        assert!(
            snap.workers.is_empty(),
            "no pool ran at parallelism {workers}, yet worker gauges appeared"
        );
        assert_eq!(snap.queue_depth_hwm, 0);
        // The wave itself is still observed, pool or not.
        assert!(snap.wave_latency_ns.count() > 0);
    }

    let rt = Runtime::new();
    rt.set_parallelism(4);
    let vars = stall_fan(&rt, 6);
    for v in &vars {
        v.set(&rt, 50);
    }
    rt.propagate();
    let snap = rt.metrics_snapshot();
    assert!(
        !snap.workers.is_empty(),
        "pooled draining must populate worker gauges"
    );
    let jobs: u64 = snap.workers.iter().map(|w| w.jobs).sum();
    assert_eq!(jobs, 6, "one pool job per stalled cell");
    assert!(
        snap.workers.iter().any(|w| w.busy_ns >= 200_000),
        "at least one worker sat in a 200µs stall: {:?}",
        snap.workers
    );
    for w in &snap.workers {
        assert!(w.slot < 4);
        assert!(w.utilization() <= 1.0);
    }
    assert!(snap.queue_depth_hwm >= 1, "jobs passed through the queue");
    assert_eq!(snap.queue_depth, 0, "queue drained at quiescence");
    assert_eq!(snap.level_width.max, 6, "widest level was the cell row");
    assert!(snap.level_latency_ns.count() >= 1, "one pooled level timed");
}
