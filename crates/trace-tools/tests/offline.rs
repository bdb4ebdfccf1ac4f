//! End-to-end tests over real runtime traces: record the canonical diamond
//! through the live sinks, then replay the JSONL through the offline
//! tooling and check the two sides agree.

mod common;

use alphonse::trace::{Recorder, Tee, TraceSink};
use alphonse::{Runtime, Strategy};
use alphonse_trace_tools::json::Json;
use alphonse_trace_tools::model::TraceFile;
use alphonse_trace_tools::{render, report};
use common::Capture;
use std::sync::Arc;

/// Runs the canonical diamond (`a` feeds `left = a/100` and `right = a*2`,
/// both feed `top`) under `sink` at `parallelism`: initial call, then a
/// changed write and a propagation wave.
fn run_diamond(sink: Arc<dyn TraceSink>, parallelism: usize) {
    let rt = Runtime::new();
    rt.set_parallelism(parallelism);
    rt.set_sink(Some(sink));
    let a = rt.var_named("a", 10i64);
    let left = rt.memo_with("left", Strategy::Eager, move |rt, &(): &()| a.get(rt) / 100);
    let right = rt.memo_with("right", Strategy::Eager, move |rt, &(): &()| a.get(rt) * 2);
    let (l, r) = (left.clone(), right.clone());
    let top = rt.memo_with("top", Strategy::Eager, move |rt, &(): &()| {
        l.call(rt, ()) + r.call(rt, ())
    });
    assert_eq!(top.call(&rt, ()), 20);
    a.set(&rt, 20);
    rt.propagate();
    rt.set_sink(None);
}

/// Records the diamond simultaneously into a [`Recorder`] (live truth) and
/// a JSONL sink (the on-disk format), returning both views.
fn record_diamond() -> (Arc<Recorder>, String) {
    record_diamond_at(0)
}

/// [`record_diamond`] at a given parallelism.
fn record_diamond_at(parallelism: usize) -> (Arc<Recorder>, String) {
    let jsonl = Capture::new();
    let rec = Arc::new(Recorder::new());
    run_diamond(
        Arc::new(Tee::new(vec![rec.clone(), jsonl.sink()])),
        parallelism,
    );
    (rec, jsonl.text())
}

#[test]
fn jsonl_round_trip_preserves_the_event_sequence() {
    let (rec, text) = record_diamond();
    assert_eq!(
        text.lines().next(),
        Some(r#"{"meta":{"format":"alphonse-trace","version":1}}"#)
    );
    let tf = TraceFile::parse(&text).expect("the streamed document parses");
    let replayed: Vec<_> = tf.records.iter().map(|r| r.event.clone()).collect();
    assert_eq!(
        replayed,
        rec.events(),
        "replaying the JSONL yields the exact live event sequence"
    );
}

#[test]
fn offline_why_matches_the_live_golden() {
    let (_, text) = record_diamond();
    let tf = TraceFile::parse(&text).unwrap();
    let prov = tf.replay_provenance();
    let top = prov.node_by_label("top").expect("top is labeled");
    let report = prov.why_report(top).expect("top was dirtied");
    // Same golden as the live-index test in alphonse::trace::provenance.
    let golden = "\
why top (n1): wave 1
  write a (n0) changed=true
  -> dirtied a (n0) [WriteChanged]
  -> dirtied right (n3) [Fanout <- a (n0)]
  -> dirtied top (n1) [Fanout <- right (n3)]
  -> executed top (n1) changed=true
";
    assert_eq!(report, golden, "offline why diverged:\n{report}");
}

#[test]
fn waste_accounts_for_every_execution() {
    let (_, text) = record_diamond();
    let tf = TraceFile::parse(&text).unwrap();
    let w = report::waste(&tf);
    assert_eq!(w.total, tf.executions());
    assert_eq!(w.productive + w.wasted, w.total);
    // Initial run: left, right, top execute (3 productive). The wave:
    // left recomputes to an equal value (wasted), right and top change.
    assert_eq!(w.productive, 5);
    assert_eq!(w.wasted, 1);
    let left = w.rows.iter().find(|r| r.label == "left").unwrap();
    assert_eq!((left.productive, left.wasted), (1, 1));
}

#[test]
fn waves_summarizes_the_propagation() {
    let (_, text) = record_diamond();
    let tf = TraceFile::parse(&text).unwrap();
    let r = report::waves(&tf);
    assert_eq!(r.initial_executions, 3);
    assert_eq!(r.waves.len(), 1);
    let w = &r.waves[0];
    assert_eq!(w.wave, 1);
    assert_eq!(w.executed, 3);
    assert_eq!(w.changed, 2);
    assert_eq!(w.steps, Some(4));
    // Longest causal chain: a -> right -> top (left's arm cuts off).
    assert_eq!(w.depth, 3);
    assert_eq!(w.critical_path, vec!["a (n0)", "right (n3)", "top (n1)"]);
}

#[test]
fn chrome_spans_nest_in_a_sequential_trace() {
    let (_, text) = record_diamond();
    let tf = TraceFile::parse(&text).unwrap();
    let doc = Json::parse(&render::chrome(&tf)).expect("Chrome trace is valid JSON");
    let spans: Vec<(u64, u64)> = doc
        .as_arr()
        .expect("top level is an array")
        .iter()
        .filter(|ev| ev.get("ph").and_then(Json::as_str) == Some("X"))
        .map(|ev| {
            let ts = ev.get("ts").and_then(Json::as_u64).unwrap();
            (ts, ts + ev.get("dur").and_then(Json::as_u64).unwrap())
        })
        .collect();
    assert_eq!(spans.len(), 7);
    // One thread runs the diamond, so any two spans are disjoint or one
    // contains the other.
    for (i, a) in spans.iter().enumerate() {
        for b in &spans[i + 1..] {
            let disjoint = a.1 <= b.0 || b.1 <= a.0;
            let nested = (a.0 <= b.0 && b.1 <= a.1) || (b.0 <= a.0 && a.1 <= b.1);
            assert!(disjoint || nested, "spans {a:?} and {b:?} overlap");
        }
    }
}

#[test]
fn chrome_spans_nest_at_parallelism_one() {
    // Parallelism 0 and 1 are the same drain: the same events, in the same
    // order.
    let (seq, _) = record_diamond();
    let (one, text) = record_diamond_at(1);
    assert_eq!(one.events(), seq.events());
    // The driver opens each span when it pushes the frame and closes it
    // when it pops the frame, so the one-thread spans nest.
    let tf = TraceFile::parse(&text).unwrap();
    let doc = Json::parse(&render::chrome(&tf)).expect("Chrome trace is valid JSON");
    let spans: Vec<(u64, u64)> = doc
        .as_arr()
        .expect("top level is an array")
        .iter()
        .filter(|ev| ev.get("ph").and_then(Json::as_str) == Some("X"))
        .map(|ev| {
            let ts = ev.get("ts").and_then(Json::as_u64).unwrap();
            (ts, ts + ev.get("dur").and_then(Json::as_u64).unwrap())
        })
        .collect();
    assert_eq!(spans.len(), 7);
    for (i, a) in spans.iter().enumerate() {
        for b in &spans[i + 1..] {
            let disjoint = a.1 <= b.0 || b.1 <= a.0;
            let nested = (a.0 <= b.0 && b.1 <= a.1) || (b.0 <= a.0 && a.1 <= b.1);
            assert!(disjoint || nested, "spans {a:?} and {b:?} overlap");
        }
    }
}
