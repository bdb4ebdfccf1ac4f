//! Behavioral tests for level-parallel wave propagation: correctness of
//! the level drain at 0/1/N workers under every scheduling and
//! partitioning setting, the parallel stats counters, and the lock
//! acquisitions a level the driver runs alone costs.

use alphonse::trace::{Recorder, TraceEvent};
use alphonse::{Runtime, Scheduling, Strategy, Var};
use std::sync::Arc;

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
    // The 8-cell level runs on the pool; the driver runs the single-node
    // total level alone, so it is not a "parallel level".
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
    assert_eq!(s.parallel_levels, 0, "levels run alone are not pool levels");
    assert_eq!(s.parallel_executions, 0);
    assert_eq!(s.level_width_hwm, 2, "level drain still batches by height");
}

#[test]
fn fifo_levels_are_single_nodes() {
    let rt = Runtime::builder().scheduling(Scheduling::Fifo).build();
    rt.set_parallelism(4);
    let (vars, total) = fan(&rt, 4);
    rt.reset_stats();
    for v in &vars {
        v.set(&rt, 3);
    }
    rt.propagate();
    let s = rt.stats();
    // Fifo order gives no independence guarantee between queue
    // neighbours, so every level is one node and none reaches the pool.
    assert_eq!(s.parallel_levels, 0);
    assert_eq!(s.level_width_hwm, 1);
    assert_eq!(total.call(&rt, ()), 4 * 3 * 10);
}

#[test]
fn partitioned_runtimes_pool_their_levels() {
    let rt = Runtime::builder().partitioning(true).build();
    rt.set_parallelism(4);
    let (vars, total) = fan(&rt, 4);
    rt.reset_stats();
    for v in &vars {
        v.set(&rt, 5);
    }
    // A query drains only its own partition — here, the whole fan.
    assert_eq!(total.call(&rt, ()), 4 * 5 * 10);
    let s = rt.stats();
    assert_eq!(s.parallel_levels, 1, "the cell level ran on the pool");
    assert_eq!(s.parallel_executions, 4);
    assert_eq!(s.level_width_hwm, 4);
    rt.check_invariants();
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

/// Two claimants of one pooled level call the same out-of-date demand
/// memo. The first to enter executes it, and its body holds on until the
/// second is about to call, then lingers a few ms, so the second call
/// lands while the execution runs on the other thread. That call must
/// wait for the commit, not hit the pre-wave value.
#[test]
fn a_call_to_a_memo_executing_on_another_thread_waits_for_its_commit() {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    let rt = Runtime::new();
    rt.set_parallelism(2);
    let armed = Arc::new(AtomicBool::new(false));
    let entered = Arc::new(AtomicUsize::new(0));
    let second_calls = Arc::new(AtomicBool::new(false));
    let base = rt.var(2i64);
    let shared = {
        let (armed, second_calls) = (armed.clone(), second_calls.clone());
        rt.memo("shared", move |rt, &(): &()| {
            if armed.load(Ordering::SeqCst) {
                // The second outer can only start on the other thread
                // while this one is parked here.
                let deadline = Instant::now() + Duration::from_secs(10);
                while !second_calls.load(Ordering::SeqCst) {
                    assert!(Instant::now() < deadline, "second claimant never started");
                    std::thread::yield_now();
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            base.get(rt) * 100
        })
    };
    let outers: Vec<alphonse::Memo<(), i64>> = (0..2)
        .map(|i| {
            let (shared, armed) = (shared.clone(), armed.clone());
            let (entered, second_calls) = (entered.clone(), second_calls.clone());
            let v = rt.var(i as i64);
            rt.memo_with("outer", Strategy::Eager, move |rt, &(): &()| {
                if armed.load(Ordering::SeqCst) && entered.fetch_add(1, Ordering::SeqCst) == 1 {
                    second_calls.store(true, Ordering::SeqCst);
                }
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
    assert_eq!(sum.call(&rt, ()), 1 + 2 * 200);
    armed.store(true, Ordering::SeqCst);
    base.set(&rt, 3);
    rt.propagate();
    assert_eq!(
        entered.load(Ordering::SeqCst),
        2,
        "both outers ran in the wave"
    );
    assert_eq!(sum.call(&rt, ()), 1 + 2 * 300);
    rt.check_invariants();
}

/// A first execution of `x(5)` finds dirt pending when it calls `y` and
/// drains it from inside its body, on the pool. The first `z` of that
/// level to enter holds its thread until the second has entered, so the
/// second (usually the pool helper) is the one that calls `x(5)` back.
/// That call reads an execution suspended until the level ends: waiting
/// for its commit would never return, so it must fail as the same DET
/// violation a level the driver runs alone reports.
#[test]
fn a_level_calling_back_into_its_suspended_caller_fails_instead_of_waiting() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Arc};
    use std::time::{Duration, Instant};

    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let rt = Runtime::new();
        rt.set_parallelism(2);
        let k = rt.var(0i64);
        let y = rt.memo("y", |_, &(): &()| 1i64);
        y.call(&rt, ());
        let x = rt.memo("x", move |rt, &a: &i64| a + y.call(rt, ()));
        let entered = Arc::new(AtomicUsize::new(0));
        for i in 0..2 {
            let (x, entered) = (x.clone(), entered.clone());
            let z = rt.memo_with("z", Strategy::Eager, move |rt, &(): &()| {
                let k = k.get(rt);
                if k == 0 {
                    return i;
                }
                if entered.fetch_add(1, Ordering::SeqCst) == 0 {
                    let deadline = Instant::now() + Duration::from_secs(5);
                    while entered.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
                        std::thread::yield_now();
                    }
                    return i;
                }
                x.call(rt, k)
            });
            z.call(&rt, ());
        }
        k.set(&rt, 5);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            x.call(&rt, 5);
        }));
        tx.send(outcome.is_err()).unwrap();
    });
    let panicked = rx
        .recv_timeout(Duration::from_secs(20))
        .expect("the call back into the suspended caller never returned");
    assert!(panicked, "the DET violation was not reported");
}

#[test]
fn bounded_drains_take_at_most_k_steps_and_resume() {
    let rt = Runtime::new();
    rt.set_parallelism(2);
    let (vars, total) = fan(&rt, 6);
    for v in &vars {
        v.set(&rt, 1000);
    }
    // One step only: the level of 6 dirty vars is capped to one of them,
    // and the rest stays queued for the next slice.
    rt.reset_stats();
    let done = rt.propagate_steps(1);
    assert!(!done, "work must remain after a one-step slice");
    assert_eq!(rt.stats().propagation_steps, 1);
    assert_eq!(rt.dirty_count(), 5 + 1, "5 vars and the fanned-out cell");
    // Four-step slices split the 6-cell level too, and it still reaches
    // the pool in parts of two or more.
    while !rt.propagate_steps(4) {}
    assert_eq!(rt.dirty_count(), 0);
    assert_eq!(total.call(&rt, ()), 6 * 1000 * 10);
    let s = rt.stats();
    assert_eq!(s.propagation_steps, 6 + 6 + 1);
    assert!(s.level_width_hwm <= 4);
    rt.check_invariants();
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
/// level of two or more executions — never when the driver runs every
/// level alone (n = 0 or 1).
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
    assert_eq!(snap.level_width.max, 6, "widest level was the cell row");
    assert!(snap.level_latency_ns.count() >= 1, "one pooled level timed");
}

/// A panicking executor must surface as its own panic out of `propagate`,
/// never as a hang at the level barrier — whether the driver or a pool
/// helper claimed the failing execution — and the rolled-back execution
/// must leave the runtime usable. The failing cell moves across the level
/// from one repetition to the next and every cell stalls briefly, so over
/// the repetitions the failure lands on both.
#[test]
fn executor_panics_in_pooled_levels_reach_the_caller() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    const WIDTH: usize = 16;
    const BOOM: i64 = -1;
    for workers in [2usize, 4] {
        for rep in 0..50 {
            let rt = Runtime::new();
            rt.set_parallelism(workers);
            let vars: Vec<Var<i64>> = (0..WIDTH).map(|i| rt.var(i as i64)).collect();
            let cells: Vec<alphonse::Memo<(), i64>> = vars
                .iter()
                .map(|v| {
                    let v = *v;
                    rt.memo_with("cell", Strategy::Eager, move |rt, &(): &()| {
                        // A short stall keeps the driver from claiming the
                        // whole level before a helper wakes up.
                        std::thread::sleep(std::time::Duration::from_micros(50));
                        let x = v.get(rt);
                        assert_ne!(x, BOOM, "cell saw the poisoned value");
                        x * 10
                    })
                })
                .collect();
            for c in &cells {
                c.call(&rt, ());
            }
            let bad = rep % WIDTH;
            for (i, v) in vars.iter().enumerate() {
                v.set(&rt, if i == bad { BOOM } else { 100 + i as i64 });
            }
            let payload = catch_unwind(AssertUnwindSafe(|| rt.propagate()))
                .expect_err("the executor's panic was swallowed");
            // The cell's own panic, whichever thread claimed it.
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(
                message.contains("poisoned value"),
                "parallelism {workers}, rep {rep}: unexpected panic {message:?}"
            );
            rt.check_invariants();
            // Repair the var: the rolled-back cell re-executes and the
            // runtime is consistent again.
            vars[bad].set(&rt, 100 + bad as i64);
            rt.propagate();
            for (i, c) in cells.iter().enumerate() {
                assert_eq!(
                    c.call(&rt, ()),
                    10 * (100 + i as i64),
                    "parallelism {workers}, rep {rep}: cell {i}"
                );
            }
            rt.check_invariants();
        }
    }
}

/// `Stats::lock_acquisitions` pins the fused frame swap: between two
/// executions of a level it runs alone the driver takes the lock once, to
/// pop the one that finished and push the next; the last pop's guard
/// commits the level and opens the next one.
#[test]
fn a_level_run_alone_takes_one_lock_per_execution() {
    const W: u64 = 8;
    let rt = Runtime::new();
    rt.set_parallelism(1);
    let vars: Vec<Var<i64>> = (0..W).map(|i| rt.var(i as i64)).collect();
    let cells: Vec<alphonse::Memo<(), i64>> = vars
        .iter()
        .map(|v| {
            let v = *v;
            rt.memo_with("cell", Strategy::Eager, move |rt, &(): &()| v.get(rt) + 1)
        })
        .collect();
    for c in &cells {
        c.call(&rt, ());
    }
    for v in &vars {
        v.set(&rt, 1000);
    }
    let before = rt.stats();
    rt.propagate();
    let taken = rt.stats().delta_since(&before).lock_acquisitions;
    // Opening the wave, draining the var level, booking the cells and
    // pushing the first share one acquisition. Then, per cell, one tracked
    // read and one swap; the last swap's guard commits the cells, finds no
    // level left and closes the wave. The closing `stats()` call counts
    // itself: 1.
    assert_eq!(taken, 1 + 2 * W + 1);
}

/// `Stats::lock_acquisitions` for one write and one `propagate` at the
/// default parallelism: the acquisitions of `n` executions are the write,
/// one to open the wave and start the first execution, one per tracked
/// read or call in the bodies, one per execution to pop it and start the
/// next, and the counting `stats()` call itself: `2n + 3`.
fn locks_per_wave(rt: &Runtime, write: impl FnOnce(), n: u64) {
    let before = rt.stats();
    write();
    rt.propagate();
    let taken = rt.stats().delta_since(&before).lock_acquisitions;
    assert_eq!(taken, 2 * n + 3);
}

#[test]
fn a_chain_of_eager_memos_takes_two_locks_per_execution() {
    // Every level is one node: the swap lock spans the level boundary.
    let rt = Runtime::new();
    let v = rt.var(0i64);
    let mut link = rt.memo_with("link", Strategy::Eager, move |rt, &(): &()| v.get(rt) + 1);
    for _ in 1..64 {
        let prev = link.clone();
        link = rt.memo_with("link", Strategy::Eager, move |rt, &(): &()| {
            prev.call(rt, ()) + 1
        });
    }
    assert_eq!(link.call(&rt, ()), 64);
    locks_per_wave(&rt, || v.set(&rt, 1), 64);
    assert_eq!(link.call(&rt, ()), 65);
}

#[test]
fn a_level_of_one_read_cells_takes_two_locks_per_execution() {
    let rt = Runtime::new();
    let v = rt.var(0i64);
    let cells: Vec<alphonse::Memo<(), i64>> = (0..64)
        .map(|_| rt.memo_with("cell", Strategy::Eager, move |rt, &(): &()| v.get(rt) + 1))
        .collect();
    for c in &cells {
        c.call(&rt, ());
    }
    locks_per_wave(&rt, || v.set(&rt, 1), 64);
    assert_eq!(rt.stats().level_width_hwm, 64);
    assert!(cells.iter().all(|c| c.call(&rt, ()) == 2));
}

/// Eager `b` (defined first) calls eager `a` of its own height once `y` is
/// set, and one batch changes both inputs. Members of one level are
/// independent (Section 4.5), so `b`'s first run reads `a`'s pre-wave
/// value, and `a`'s batch-order commit sends `b` round again at its raised
/// height: three executions whether the driver runs the level alone or
/// beside a pool helper, with the same levels and the same dirt.
#[test]
fn a_same_level_call_costs_the_same_at_every_parallelism() {
    let run = |parallelism: usize| {
        let rt = Runtime::new();
        rt.set_parallelism(parallelism);
        let x = rt.var(0i64);
        let y = rt.var(0i64);
        let a_slot: Arc<std::sync::OnceLock<alphonse::Memo<(), i64>>> = Arc::default();
        let a_ref = Arc::clone(&a_slot);
        let b = rt.memo_with("b", Strategy::Eager, move |rt, &(): &()| {
            let y = y.get(rt);
            if y == 0 {
                0
            } else {
                a_ref.get().expect("a is defined").call(rt, ()) + y
            }
        });
        assert_eq!(b.call(&rt, ()), 0);
        let a = rt.memo_with("a", Strategy::Eager, move |rt, &(): &()| x.get(rt) + 1);
        assert_eq!(a.call(&rt, ()), 1);
        assert!(a_slot.set(a).is_ok());
        let rec = Arc::new(Recorder::new(1024));
        rt.set_sink(Some(rec.clone()));
        let before = rt.stats();
        rt.batch(|tx| {
            x.set_in(tx, 10);
            y.set_in(tx, 10);
        });
        rt.propagate();
        let executions = rt.stats().delta_since(&before).executions;
        rt.set_sink(None);
        assert_eq!(b.call(&rt, ()), 21, "parallelism {parallelism}");
        rt.check_invariants();
        let outside_executions: Vec<TraceEvent> = rec
            .events()
            .into_iter()
            .filter(|ev| {
                matches!(
                    ev,
                    TraceEvent::LevelBegin { .. }
                        | TraceEvent::LevelEnd { .. }
                        | TraceEvent::Dirtied { .. }
                        | TraceEvent::PropagateBegin { .. }
                        | TraceEvent::PropagateEnd { .. }
                )
            })
            .collect();
        (executions, outside_executions)
    };
    let (alone, alone_events) = run(1);
    let (pooled, pooled_events) = run(2);
    assert_eq!((alone, pooled), (3, 3), "executions at parallelism 1 and 2");
    assert_eq!(alone_events, pooled_events);
}
