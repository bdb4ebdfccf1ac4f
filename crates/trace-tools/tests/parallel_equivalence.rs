//! Pooled level execution must be a legal linearization of the one-thread
//! schedule: same final values, same work counters, same per-wave
//! propagation analytics.
//!
//! Each run records its full event stream with a JSONL sink, the document
//! is parsed back with [`TraceFile::parse`], and the per-wave statistics
//! (dirtied / executed / changed / cutoffs / cache hits, causal depth,
//! critical path, and the level counts and widths) must be *identical*
//! between `set_parallelism(1)`, where the driver runs every level alone,
//! and `set_parallelism(2..=4)`, where wide levels run on a pool. Within a
//! wave the pool commits a level's executions in batch order — the order
//! the driver alone runs them in — so even the causal critical path must
//! agree event-for-event, not just in aggregate.

mod common;

use alphonse::{Memo, Runtime, Strategy, Var};
use alphonse_trace_tools::model::TraceFile;
use alphonse_trace_tools::render::graph_size;
use alphonse_trace_tools::report::{waves, WavesReport};
use common::Capture;
use proptest::collection::vec;
use proptest::prelude::*;

const VARS: usize = 8;
const GROUP: usize = 4;

/// The `pool_equivalence` fixture shape: vars feed eager group memos feed
/// one eager total, with an always-on trace.
struct Session {
    rt: Runtime,
    trace: Capture,
    vars: Vec<Var<i64>>,
    total: Memo<(), i64>,
}

fn session(seed: i64, parallelism: usize) -> Session {
    let rt = Runtime::new();
    rt.set_parallelism(parallelism);
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

/// Replays the edit script: one propagation wave per script entry.
fn apply(s: &Session, script: &[Vec<(usize, i64)>]) {
    for wave in script {
        for &(i, v) in wave {
            s.vars[i % VARS].set(&s.rt, v);
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
    fn parallel_schedule_matches_sequential(
        workers in 2usize..=4,
        script in vec(vec((0usize..VARS, -16i64..16), 1..6), 1..5),
    ) {
        // One-thread reference.
        let seq = session(3, 1);
        apply(&seq, &script);
        prop_assert_eq!(seq.rt.dirty_count(), 0);
        let seq_waves = analytics(&seq.trace);
        let seq_stats = seq.rt.stats();
        let seq_vals: Vec<i64> = seq.vars.iter().map(|v| v.get_untracked(&seq.rt)).collect();
        let seq_total = seq.total.call(&seq.rt, ());

        // The same session with pooled levels.
        let par = session(3, workers);
        apply(&par, &script);
        prop_assert_eq!(par.rt.dirty_count(), 0);
        let par_waves = analytics(&par.trace);
        let par_stats = par.rt.stats();

        // Exact same values...
        let par_vals: Vec<i64> = par.vars.iter().map(|v| v.get_untracked(&par.rt)).collect();
        prop_assert_eq!(par_vals, seq_vals);
        prop_assert_eq!(par.total.call(&par.rt, ()), seq_total);

        // ...the same work, counter for counter...
        prop_assert_eq!(par_stats.executions, seq_stats.executions);
        prop_assert_eq!(par_stats.propagation_steps, seq_stats.propagation_steps);
        prop_assert_eq!(par_stats.dirtied, seq_stats.dirtied);
        prop_assert_eq!(par_stats.changes, seq_stats.changes);
        prop_assert_eq!(par_stats.comparisons, seq_stats.comparisons);
        prop_assert_eq!(par_stats.cache_hits, seq_stats.cache_hits);
        prop_assert_eq!(par_stats.edges_created, seq_stats.edges_created);
        prop_assert_eq!(par_stats.waves, seq_stats.waves);

        // The offline graph replay ends with the runtime's own topology.
        for s in [&seq, &par] {
            let tf = TraceFile::parse(&s.trace.text()).unwrap();
            prop_assert_eq!(graph_size(&tf), (s.rt.node_count(), s.rt.edge_count()));
        }

        // ...and the same per-wave analytics, level brackets included.
        prop_assert_eq!(&par_waves, &seq_waves);

        // Legality of the level schedule itself.
        for w in &par_waves.waves {
            if w.executed > 0 {
                prop_assert!(
                    w.levels > 0,
                    "wave {} executed {} nodes outside any level",
                    w.wave,
                    w.executed
                );
            }
            // Groups execute before the total's cache hits, so every
            // execution of this fixture happens inside its level.
            prop_assert_eq!(w.level_executed as usize, w.executed);
        }
        prop_assert!(par_stats.parallel_executions <= par_stats.executions);
        prop_assert_eq!(par_stats.level_width_hwm, seq_stats.level_width_hwm);
    }
}
