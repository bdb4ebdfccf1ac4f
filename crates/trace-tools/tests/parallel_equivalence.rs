//! Level-parallel wave propagation must be a legal linearization of the
//! sequential schedule: same final values, same work counters, same
//! per-wave propagation analytics — the only permitted difference is the
//! level brackets themselves.
//!
//! Each run records its full event stream with a `Recorder`, the JSONL dump
//! is parsed back with [`TraceFile::parse`], and the per-wave statistics
//! (dirtied / executed / changed / cutoffs / cache hits, causal depth,
//! critical path) must be *identical* between the parallel and sequential
//! runs once the parallel report's level fields (`levels`,
//! `level_width_max`, `level_executed` — zero by construction in sequential
//! traces) are normalized away. Within a wave the runtime books and commits
//! a level's executions in batch order — the exact order the sequential
//! evaluator would have popped them — so even the causal critical path must
//! agree event-for-event, not just in aggregate.

use alphonse::trace::{Recorder, TraceSink};
use alphonse::{Memo, Runtime, Strategy, Var};
use alphonse_trace_tools::model::TraceFile;
use alphonse_trace_tools::report::{waves, WavesReport};
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::Arc;

const VARS: usize = 8;
const GROUP: usize = 4;

/// The `pool_equivalence` fixture shape: vars feed eager group memos feed
/// one eager total, with an always-on recorder.
struct Session {
    rt: Runtime,
    rec: Arc<Recorder>,
    vars: Vec<Var<i64>>,
    total: Memo<(), i64>,
}

fn session(seed: i64, parallelism: usize) -> Session {
    let rt = Runtime::new();
    rt.set_parallelism(parallelism);
    let rec = Arc::new(Recorder::new(1 << 16));
    rt.set_sink(Some(Arc::clone(&rec) as Arc<dyn TraceSink>));
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
        rec,
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

/// Offline wave analytics of everything the session's recorder has seen.
fn analytics(rec: &Recorder) -> WavesReport {
    let tf = TraceFile::parse(&rec.to_jsonl()).expect("recorder emits parseable JSONL");
    waves(&tf)
}

/// Strips the level brackets' footprint from a report, leaving only the
/// schedule-independent propagation statistics.
fn without_levels(mut report: WavesReport) -> WavesReport {
    for w in &mut report.waves {
        w.levels = 0;
        w.level_width_max = 0;
        w.level_executed = 0;
    }
    report
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn parallel_schedule_matches_sequential(
        workers in 1usize..=4,
        script in vec(vec((0usize..VARS, -16i64..16), 1..6), 1..5),
    ) {
        // Sequential reference.
        let seq = session(3, 0);
        apply(&seq, &script);
        prop_assert_eq!(seq.rt.dirty_count(), 0);
        let seq_waves = analytics(&seq.rec);
        let seq_stats = seq.rt.stats();
        let seq_vals: Vec<i64> = seq.vars.iter().map(|v| v.get_untracked(&seq.rt)).collect();
        let seq_total = seq.total.call(&seq.rt, ());

        // The same session driven through the level scheduler.
        let par = session(3, workers);
        apply(&par, &script);
        prop_assert_eq!(par.rt.dirty_count(), 0);
        let par_waves = analytics(&par.rec);
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

        // ...and the same per-wave analytics once the level brackets —
        // absent by construction from sequential traces — are normalized.
        prop_assert_eq!(without_levels(par_waves.clone()), without_levels(seq_waves));

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
        if workers >= 2 {
            prop_assert!(par_stats.parallel_executions <= par_stats.executions);
            prop_assert!(par_stats.level_width_hwm >= 1);
        }
    }
}
