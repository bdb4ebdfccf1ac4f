//! Sharded serving must be invisible to any single tenant: a session served
//! through a [`SessionPool`] (moved to a worker thread, interleaved with
//! other tenants' sessions on other shards) must produce exactly the values
//! — and exactly the propagation behavior — of the same session run
//! sequentially on the calling thread.
//!
//! Values are compared directly. Propagation behavior is compared through
//! the `waves` analytics of this crate: each runtime records its full event
//! stream with a JSONL sink, the document is parsed back with
//! [`TraceFile::parse`], and the per-wave statistics (dirtied / executed /
//! changed / cutoffs / cache hits, causal depth, critical path) must be
//! *identical* between the pooled and the sequential run. The reports are
//! deterministic functions of the event sequence — no timestamps — so this
//! is an exact structural equality, not a fuzzy comparison.

mod common;

use alphonse::{Memo, Runtime, Scheduling, Strategy, Var};
use alphonse_serve::SessionPool;
use alphonse_trace_tools::model::TraceFile;
use alphonse_trace_tools::report::{waves, WavesReport};
use common::Capture;
use proptest::collection::vec;
use proptest::prelude::*;

const VARS: usize = 8;
const GROUP: usize = 4;

/// One tenant's dependency graph: vars feed group memos feed one total —
/// the same shape as the `batch_props` equivalence fixture, with an
/// always-on trace so the propagation waves can be replayed offline.
struct Session {
    rt: Runtime,
    trace: Capture,
    vars: Vec<Var<i64>>,
    total: Memo<(), i64>,
}

fn session(seed: i64, fifo: bool) -> Session {
    let rt = Runtime::builder()
        .scheduling(if fifo {
            Scheduling::Fifo
        } else {
            Scheduling::HeightOrder
        })
        .build();
    let trace = Capture::new();
    rt.set_sink(Some(trace.sink()));
    let vars: Vec<_> = (0..VARS).map(|i| rt.var(seed + i as i64)).collect();
    let groups: Vec<Memo<(), i64>> = vars
        .chunks(GROUP)
        .enumerate()
        .map(|(g, chunk)| {
            let chunk = chunk.to_vec();
            rt.memo_with(
                &format!("group{g}"),
                Strategy::Eager,
                move |rt, &(): &()| chunk.iter().map(|v| v.get(rt)).sum(),
            )
        })
        .collect();
    let gs = groups;
    let total = rt.memo_with("total", Strategy::Eager, move |rt, &(): &()| {
        gs.iter().map(|g| g.call(rt, ())).sum()
    });
    total.call(&rt, ());
    rt.propagate();
    Session {
        rt,
        trace,
        vars,
        total,
    }
}

/// Replays the edit script: one propagation wave per script entry. `offset`
/// varies the written values per tenant so sessions are not carbon copies.
fn apply(s: &Session, script: &[Vec<(usize, i64)>], offset: i64) {
    for wave in script {
        for &(i, v) in wave {
            s.vars[i % VARS].set(&s.rt, v + offset);
        }
        s.rt.propagate();
    }
}

/// Offline wave analytics of everything the session's trace has seen.
fn analytics(trace: &Capture) -> WavesReport {
    let tf = TraceFile::parse(&trace.text()).expect("the sink writes parseable JSONL");
    waves(&tf)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn pooled_schedule_matches_sequential(
        n_sessions in 1usize..=4,
        threads in 1usize..=3,
        fifo in any::<bool>(),
        script in vec(vec((0usize..VARS, -16i64..16), 1..6), 1..5),
    ) {
        // Sequential references: every tenant's session run to completion
        // on this thread. Analytics are captured right at quiescence, so
        // the later value reads cannot perturb the comparison.
        let mut reference = Vec::new();
        for t in 0..n_sessions {
            let s = session(t as i64, fifo);
            apply(&s, &script, t as i64);
            prop_assert_eq!(s.rt.dirty_count(), 0);
            let report = analytics(&s.trace);
            let vals: Vec<i64> = s.vars.iter().map(|v| v.get_untracked(&s.rt)).collect();
            let total = s.total.call(&s.rt, ());
            reference.push((total, vals, report));
        }

        // The same tenants served through a sharded pool: sessions are
        // built here, *moved* onto worker threads, and edited via
        // submitted closures. Shard count deliberately does not divide the
        // tenant count evenly, so shards serve interleaved tenant mixes.
        let pool = SessionPool::new(threads);
        let mut recs = Vec::new();
        for t in 0..n_sessions {
            let s = session(t as i64, fifo);
            recs.push(s.trace.clone());
            pool.insert(t as u64, s);
        }
        for t in 0..n_sessions {
            let script = script.clone();
            pool.submit(t as u64, move |s: &mut Session| apply(s, &script, t as i64));
        }
        pool.flush();

        for (t, (want_total, want_vals, want_waves)) in reference.into_iter().enumerate() {
            // Wave-by-wave propagation analytics must match exactly.
            prop_assert_eq!(analytics(&recs[t]), want_waves);
            let got_vals = pool.query(t as u64, |s: &mut Session| {
                s.vars.iter().map(|v| v.get_untracked(&s.rt)).collect::<Vec<i64>>()
            });
            prop_assert_eq!(got_vals, want_vals);
            let got_total = pool.query(t as u64, |s: &mut Session| s.total.call(&s.rt, ()));
            prop_assert_eq!(got_total, want_total);
        }
    }
}
