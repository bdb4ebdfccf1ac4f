//! Event-stream correctness: the trace a canonical diamond graph produces
//! and sink management. The offline renderers' goldens over the same
//! diamond live in `crates/trace-tools/tests/renderers.rs`.

use alphonse::trace::{DirtyReason, Recorder, TraceEvent, TraceSink};
use alphonse::{NodeId, Runtime, Strategy, Var};
use std::sync::Arc;

/// Builds the canonical diamond over variable `a`:
///
/// ```text
///        top = left + right
///       /                  \
///   left = a / 100      right = a * 2     (both arms EAGER)
///       \                  /
///              a
/// ```
///
/// With `a: 10 -> 20`, `left` recomputes to the same value (0) — the cutoff
/// arm — while `right` changes and forces exactly one re-execution of `top`.
///
/// Allocation order (instances materialize on first call): `a` = n0,
/// `top` = n1, `left` = n2, `right` = n3.
fn diamond(rt: &Runtime) -> (Var<i64>, [NodeId; 4]) {
    let a = rt.var_named("a", 10i64);
    let left = rt.memo_with("left", Strategy::Eager, move |rt, &(): &()| a.get(rt) / 100);
    let right = rt.memo_with("right", Strategy::Eager, move |rt, &(): &()| a.get(rt) * 2);
    let (l, r) = (left.clone(), right.clone());
    let top = rt.memo_with("top", Strategy::Eager, move |rt, &(): &()| {
        l.call(rt, ()) + r.call(rt, ())
    });
    assert_eq!(top.call(rt, ()), 20);
    let nodes = [
        a.node(),
        left.instance_node(&()).unwrap(),
        right.instance_node(&()).unwrap(),
        top.instance_node(&()).unwrap(),
    ];
    (a, nodes)
}

#[test]
fn diamond_write_produces_exact_event_sequence() {
    let rt = Runtime::new();
    let (a, [na, nleft, nright, ntop]) = diamond(&rt);

    let rec = Arc::new(Recorder::new(1024));
    rt.set_sink(Some(rec.clone()));
    a.set(&rt, 20);
    rt.propagate();
    rt.set_sink(None);

    let got = rec.events();
    let expected = vec![
        // The write changes `a` and seeds propagation.
        TraceEvent::Write {
            node: na,
            changed: true,
        },
        TraceEvent::Dirtied {
            node: na,
            reason: DirtyReason::WriteChanged,
            cause: None,
        },
        TraceEvent::PropagateBegin { wave: 1 },
        // The evaluator drains one height level at a time; `a` alone is
        // level 0.
        TraceEvent::LevelBegin {
            wave: 1,
            height: 0,
            width: 1,
        },
        // Draining `a` fans the dirt out to both arms, in `a`'s
        // successor-list order; each carries `a` as its cause.
        TraceEvent::Dirtied {
            node: nright,
            reason: DirtyReason::Fanout,
            cause: Some(na),
        },
        TraceEvent::Dirtied {
            node: nleft,
            reason: DirtyReason::Fanout,
            cause: Some(na),
        },
        TraceEvent::LevelEnd {
            wave: 1,
            height: 0,
            executed: 0,
        },
        // Both arms sit at height 1; the height queue breaks the tie
        // toward the higher node id, so `right` re-executes first.
        TraceEvent::LevelBegin {
            wave: 1,
            height: 1,
            width: 2,
        },
        TraceEvent::ExecuteBegin { node: nright },
        TraceEvent::Read { node: na },
        TraceEvent::ExecuteEnd {
            node: nright,
            changed: true,
        },
        // The cutoff arm: 20/100 == 10/100, so change stops here.
        TraceEvent::ExecuteBegin { node: nleft },
        TraceEvent::Read { node: na },
        TraceEvent::ExecuteEnd {
            node: nleft,
            changed: false,
        },
        TraceEvent::CutoffStop { node: nleft },
        // The level commits in batch order after its last execution, and
        // only the changed arm dirties `top`.
        TraceEvent::Dirtied {
            node: ntop,
            reason: DirtyReason::Fanout,
            cause: Some(nright),
        },
        TraceEvent::LevelEnd {
            wave: 1,
            height: 1,
            executed: 2,
        },
        // The single re-execution above the fan-in: both arms answer from
        // cache, and only the changed sum commits. Every execution of the
        // wave reads what its previous run read, so its retained edges
        // stay and no edge event appears.
        TraceEvent::LevelBegin {
            wave: 1,
            height: 2,
            width: 1,
        },
        TraceEvent::ExecuteBegin { node: ntop },
        TraceEvent::CacheHit { node: nleft },
        TraceEvent::CacheHit { node: nright },
        TraceEvent::ExecuteEnd {
            node: ntop,
            changed: true,
        },
        TraceEvent::LevelEnd {
            wave: 1,
            height: 2,
            executed: 1,
        },
        // Four dirty nodes processed: a, right, left, top.
        TraceEvent::PropagateEnd { wave: 1, steps: 4 },
    ];
    assert_eq!(
        got, expected,
        "diamond trace diverged.\ngot:\n{got:#?}\nexpected:\n{expected:#?}"
    );
}

#[test]
fn with_trace_restores_previous_sink() {
    let rt = Runtime::new();
    let x = rt.var(1i64);
    let outer = Arc::new(Recorder::new(64));
    let inner = Arc::new(Recorder::new(64));
    rt.set_sink(Some(outer.clone()));
    x.set(&rt, 2); // seen by outer
    rt.with_trace(inner.clone(), || x.set(&rt, 3)); // seen by inner only
    x.set(&rt, 4); // seen by outer
    rt.set_sink(None);
    assert_eq!(outer.events().len(), 2);
    assert_eq!(inner.events().len(), 1);
}

#[test]
fn edge_added_is_attributed_to_the_successor() {
    // Regression: `node()` used to return the predecessor `from`, filing
    // edge events under the storage that was read instead of the depending
    // computation whose dependency set changed.
    let from = NodeId::from_index(0);
    let to = NodeId::from_index(1);
    assert_eq!(TraceEvent::EdgeAdded { from, to }.node(), Some(to));
    assert_eq!(TraceEvent::EdgeRemoved { from, to }.node(), Some(to));

    // Per-node timelines still show the edge from both endpoints. The
    // edges enter the graph as the diamond is built.
    let rt = Runtime::new();
    let rec = Arc::new(Recorder::new(1024));
    rt.set_sink(Some(rec.clone()));
    let (_, [na, _, nright, _]) = diamond(&rt);
    rt.set_sink(None);
    let has_edge = |n: NodeId| {
        rec.timeline(n)
            .iter()
            .any(|(_, e)| matches!(e, TraceEvent::EdgeAdded { from, to } if *from == na && *to == nright))
    };
    assert!(has_edge(nright), "successor timeline must carry the edge");
    assert!(has_edge(na), "predecessor timeline must carry the edge");
}

#[test]
fn recorder_timeline_filters_per_node() {
    let rt = Runtime::new();
    let (a, [na, nleft, ..]) = diamond(&rt);
    let rec = Arc::new(Recorder::new(1024));
    rt.set_sink(Some(rec.clone()));
    a.set(&rt, 20);
    rt.propagate();
    rt.set_sink(None);

    let a_line = rec.timeline(na);
    assert!(a_line
        .iter()
        .all(|(_, e)| e.node() == Some(na) || matches!(e, TraceEvent::EdgeAdded { .. })));
    assert!(a_line
        .iter()
        .any(|(_, e)| matches!(e, TraceEvent::Write { .. })));
    let left_line = rec.timeline(nleft);
    assert!(left_line
        .iter()
        .any(|(_, e)| matches!(e, TraceEvent::CutoffStop { .. })));
    // Timestamps are monotone.
    assert!(a_line.windows(2).all(|w| w[0].0 <= w[1].0));
}

#[test]
fn default_sink_attaches_to_runtimes_built_after_install() {
    let rec = Arc::new(Recorder::new(64));
    let prev = alphonse::trace::set_default_sink(Some(rec.clone()));
    assert!(prev.is_none());
    let rt = Runtime::new();
    let _ = rt.var(7i64);
    alphonse::trace::set_default_sink(None);
    assert!(
        rec.events()
            .iter()
            .any(|e| matches!(e, TraceEvent::NodeCreated { .. })),
        "builder did not consult the thread-local default sink"
    );
    // Runtimes built after clearing stay silent.
    let before = rec.len();
    let rt2 = Runtime::new();
    rt2.var(1i64);
    assert_eq!(rec.len(), before);
}

#[test]
fn tracing_reflects_sink_presence() {
    let rt = Runtime::new();
    assert!(!rt.tracing());
    rt.set_sink(Some(Arc::new(Recorder::new(8))));
    assert!(rt.tracing());
    rt.set_sink(None);
    assert!(!rt.tracing());
}

#[test]
fn check_invariants_passes_through_diamond_lifecycle() {
    let rt = Runtime::new();
    rt.check_invariants();
    let (a, _) = diamond(&rt);
    rt.check_invariants();
    a.set(&rt, 20);
    rt.check_invariants(); // dirty queued, pre-propagation
    rt.propagate();
    rt.check_invariants();

    let part = Runtime::builder().partitioning(true).build();
    let (b, _) = diamond(&part);
    b.set(&part, 20);
    part.propagate();
    part.check_invariants();
}

/// A sink that fails the test if it ever receives an event.
struct PanicSink;
impl TraceSink for PanicSink {
    fn event(&self, ev: &TraceEvent) {
        panic!("detached sink received {ev:?}");
    }
}

#[test]
fn detached_sink_receives_nothing() {
    let rt = Runtime::new();
    let prev = rt.set_sink(Some(Arc::new(PanicSink)));
    assert!(prev.is_none());
    let restored = rt.set_sink(None);
    assert!(restored.is_some());
    let x = rt.var(1i64);
    x.set(&rt, 2); // must not reach PanicSink
}

/// A body that panics during a wave is rolled back: its span closes with
/// `ExecuteEnd { changed: false }` and no edge or cutoff event, the rest
/// of its level still runs, and the wave closes with the dirt above the
/// level left queued before the panic reaches the caller.
#[test]
fn a_panicking_body_rolls_back_and_ends_the_wave_after_its_level() {
    let rt = Runtime::new();
    let a = rt.var_named("a", 10i64);
    let left = rt.memo_with("left", Strategy::Eager, move |rt, &(): &()| {
        let x = a.get(rt);
        assert_ne!(x, 20, "left failed");
        x / 100
    });
    let right = rt.memo_with("right", Strategy::Eager, move |rt, &(): &()| a.get(rt) * 2);
    let (l, r) = (left.clone(), right.clone());
    let top = rt.memo_with("top", Strategy::Eager, move |rt, &(): &()| {
        l.call(rt, ()) + r.call(rt, ())
    });
    assert_eq!(top.call(&rt, ()), 20);
    let [na, nleft, nright, ntop] = [
        a.node(),
        left.instance_node(&()).unwrap(),
        right.instance_node(&()).unwrap(),
        top.instance_node(&()).unwrap(),
    ];
    let edges = rt.edge_count();

    let rec = Arc::new(Recorder::new(1024));
    rt.set_sink(Some(rec.clone()));
    a.set(&rt, 20);
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rt.propagate()))
        .expect_err("the body's panic reaches the caller");
    rt.set_sink(None);
    let message = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(message.contains("left failed"), "{message}");

    let expected = vec![
        TraceEvent::Write {
            node: na,
            changed: true,
        },
        TraceEvent::Dirtied {
            node: na,
            reason: DirtyReason::WriteChanged,
            cause: None,
        },
        TraceEvent::PropagateBegin { wave: 1 },
        TraceEvent::LevelBegin {
            wave: 1,
            height: 0,
            width: 1,
        },
        TraceEvent::Dirtied {
            node: nright,
            reason: DirtyReason::Fanout,
            cause: Some(na),
        },
        TraceEvent::Dirtied {
            node: nleft,
            reason: DirtyReason::Fanout,
            cause: Some(na),
        },
        TraceEvent::LevelEnd {
            wave: 1,
            height: 0,
            executed: 0,
        },
        TraceEvent::LevelBegin {
            wave: 1,
            height: 1,
            width: 2,
        },
        TraceEvent::ExecuteBegin { node: nright },
        TraceEvent::Read { node: na },
        TraceEvent::ExecuteEnd {
            node: nright,
            changed: true,
        },
        // The failing execution: nothing compared, its log dropped.
        TraceEvent::ExecuteBegin { node: nleft },
        TraceEvent::Read { node: na },
        TraceEvent::ExecuteEnd {
            node: nleft,
            changed: false,
        },
        // The batch-order commit after the level: `right` dirties `top`,
        // and the rolled-back `left` commits nothing and finds `top`
        // already queued.
        TraceEvent::Dirtied {
            node: ntop,
            reason: DirtyReason::Fanout,
            cause: Some(nright),
        },
        TraceEvent::LevelEnd {
            wave: 1,
            height: 1,
            executed: 2,
        },
        // The wave stops after the failing level: `top` stays queued.
        TraceEvent::PropagateEnd { wave: 1, steps: 3 },
    ];
    let got = rec.events();
    assert_eq!(
        got, expected,
        "rollback trace diverged.\ngot:\n{got:#?}\nexpected:\n{expected:#?}"
    );
    assert_eq!(rt.dirty_count(), 1, "top is still queued");
    assert_eq!(rt.edge_count(), edges, "the retained edges are untouched");
    rt.check_invariants();

    a.set(&rt, 30);
    rt.propagate();
    assert_eq!(top.call(&rt, ()), 60);
    assert_eq!(rt.dirty_count(), 0);
    rt.check_invariants();
}
