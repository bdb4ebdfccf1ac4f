//! The offline `chrome`, `dot` and `hot` renderers.
//!
//! `tests/golden/` pins them to the in-process sinks they replaced: one
//! recording of the canonical diamond was streamed through a JSONL sink and,
//! in the same run, through the live Chrome exporter, graph mirror and
//! profiler. `diamond.jsonl` is that stream; `diamond.dot`,
//! `diamond.chrome.json` and `diamond.hot.txt` are what the live sinks
//! printed. The renderers replay the JSONL and must agree with them.

mod common;

use alphonse::{NodeId, Runtime, Strategy, Var};
use alphonse_trace_tools::json::Json;
use alphonse_trace_tools::model::{Meta, Record, TraceFile};
use alphonse_trace_tools::render::{self, graph_size};
use common::Capture;
use std::sync::Arc;

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

fn golden_trace() -> TraceFile {
    TraceFile::parse(&golden("diamond.jsonl")).unwrap()
}

/// Builds the canonical diamond (`a` feeds `left = a/100` and
/// `right = a*2`, both eager, both feed `top`), then writes `a: 10 -> 20`
/// and propagates. Node ids: `a` = n0, `top` = n1, `left` = n2,
/// `right` = n3.
fn diamond(rt: &Runtime) -> Var<i64> {
    let a = rt.var_named("a", 10i64);
    let left = rt.memo_with("left", Strategy::Eager, move |rt, &(): &()| a.get(rt) / 100);
    let right = rt.memo_with("right", Strategy::Eager, move |rt, &(): &()| a.get(rt) * 2);
    let (l, r) = (left.clone(), right.clone());
    let top = rt.memo_with("top", Strategy::Eager, move |rt, &(): &()| {
        l.call(rt, ()) + r.call(rt, ())
    });
    assert_eq!(top.call(rt, ()), 20);
    a.set(rt, 20);
    rt.propagate();
    a
}

/// Records the diamond live and returns the runtime with its parsed trace.
fn recorded_diamond() -> (Runtime, TraceFile) {
    let rt = Runtime::new();
    let trace = Capture::new();
    rt.set_sink(Some(trace.sink()));
    diamond(&rt);
    rt.set_sink(None);
    let tf = TraceFile::parse(&trace.text()).unwrap();
    (rt, tf)
}

/// A trace document from hand-written `(ts, event)` pairs.
fn synthetic(events: Vec<(u64, alphonse::trace::TraceEvent)>) -> TraceFile {
    TraceFile {
        meta: Meta {
            format: alphonse::trace::JSONL_FORMAT.into(),
            version: alphonse::trace::JSONL_VERSION.into(),
        },
        records: events
            .into_iter()
            .map(|(ts, event)| Record {
                ts,
                wave: None,
                event,
                label: None,
            })
            .collect(),
    }
}

/// `(name, cat, args)` of each span and instant of a Chrome document, in
/// document order. A `B`/`E` pair (the live exporter's spans) becomes one
/// entry at the `B` position carrying the `E`'s args; `X` spans and `i`
/// instants map one to one.
fn chrome_entries(doc: &str) -> Vec<(String, String, Json)> {
    let doc = Json::parse(doc).expect("Chrome trace is valid JSON");
    let mut out: Vec<(String, String, Json)> = Vec::new();
    let mut open: Vec<usize> = Vec::new();
    let field = |ev: &Json, key: &str| ev.get(key).and_then(Json::as_str).unwrap().to_string();
    for ev in doc.as_arr().expect("top level is an array") {
        match ev
            .get("ph")
            .and_then(Json::as_str)
            .expect("every record has ph")
        {
            "B" => {
                open.push(out.len());
                out.push((field(ev, "name"), field(ev, "cat"), Json::Obj(Vec::new())));
            }
            "E" => {
                let i = open.pop().expect("span end without a begin");
                out[i].2 = ev.get("args").unwrap().clone();
            }
            "X" | "i" => out.push((
                field(ev, "name"),
                field(ev, "cat"),
                ev.get("args").unwrap().clone(),
            )),
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert!(open.is_empty(), "every begun span ends");
    out
}

// ---------------------------------------------------------------------------
// Pinned to the live sinks
// ---------------------------------------------------------------------------

#[test]
fn dot_is_byte_identical_to_the_live_graph_mirror() {
    assert_eq!(render::dot(&golden_trace()), golden("diamond.dot"));
}

#[test]
fn hot_rows_match_the_live_profiler() {
    // Rows of the profiler table: label, execs, hits, dirtied (the time
    // columns and the row order follow wall-clock time, so they differ).
    fn rows(table: &str) -> Vec<(String, String, String, String)> {
        let mut rows: Vec<_> = table
            .lines()
            .skip(2)
            .map(|line| {
                let cols: Vec<&str> = line.split_whitespace().collect();
                let n = cols.len();
                (
                    cols[..n - 5].join(" "),
                    cols[n - 5].to_string(),
                    cols[n - 4].to_string(),
                    cols[n - 3].to_string(),
                )
            })
            .collect();
        rows.sort();
        rows
    }
    let live = golden("diamond.hot.txt");
    let offline = render::hot(&golden_trace()).render(20);
    assert_eq!(rows(&offline), rows(&live), "{offline}");
    let propagations = |t: &str| {
        t.lines()
            .next()
            .unwrap()
            .split(';')
            .nth(1)
            .unwrap()
            .split(',')
            .next()
            .unwrap()
            .trim()
            .to_string()
    };
    assert_eq!(propagations(&offline), "1 propagations");
    assert_eq!(propagations(&offline), propagations(&live));
}

#[test]
fn chrome_matches_the_live_exporter_spans_and_instants() {
    let live = chrome_entries(&golden("diamond.chrome.json"));
    let mut offline = chrome_entries(&render::chrome(&golden_trace()));
    assert_eq!(offline.len(), live.len());
    // One deliberate difference. The live exporter counted reads since the
    // most recent ExecuteBegin of any node, so `top`'s first span, which
    // ran `left` and `right` inside it, was charged `right`'s read of `a`.
    // The renderer charges a read to the innermost open span only; `top`
    // reads no location itself.
    let top_first = &mut offline[0];
    assert_eq!(top_first.0, "exec top (n1)");
    let reads = match &mut top_first.2 {
        Json::Obj(fields) => &mut fields.iter_mut().find(|(k, _)| k == "reads").unwrap().1,
        other => panic!("args is not an object: {other:?}"),
    };
    assert_eq!(*reads, Json::Num(0.0));
    *reads = Json::Num(1.0);
    assert_eq!(offline, live);
}

// ---------------------------------------------------------------------------
// Over a live recording of the diamond
// ---------------------------------------------------------------------------

#[test]
fn dot_export_matches_golden() {
    let (_, tf) = recorded_diamond();
    // Execution ordinals: the initial build is top=1, left=2, right=3; the
    // update re-executes right=4, left=5, top=6, so `top` executed last and
    // has a double outline. Every edge links one partition. `a` keeps the
    // red border of its last dirtying: locations never execute.
    let golden = "\
digraph alphonse {
  rankdir=BT;
  node [fontname=\"Helvetica\" fontsize=10];
  subgraph cluster_0 {
    label=\"partition n0\";
    n0 [label=\"a\\nn0\" shape=box style=filled fillcolor=lightsteelblue color=red penwidth=2];
    n1 [label=\"top\\nn1 #6\\nexecs=2\" shape=ellipse style=filled fillcolor=palegreen peripheries=2];
    n2 [label=\"left\\nn2 #5\\nexecs=2\" shape=ellipse style=filled fillcolor=palegreen];
    n3 [label=\"right\\nn3 #4\\nexecs=2\" shape=ellipse style=filled fillcolor=palegreen];
  }
  n0 -> n2;
  n0 -> n3;
  n2 -> n1;
  n3 -> n1;
}
";
    let dot = render::dot(&tf);
    assert_eq!(dot, golden, "DOT output diverged:\n{dot}");
}

#[test]
fn offline_graph_matches_live_topology() {
    let (rt, tf) = recorded_diamond();
    assert_eq!(graph_size(&tf), (rt.node_count(), rt.edge_count()));
    assert_eq!(graph_size(&tf), (4, 4));
}

#[test]
fn chrome_trace_from_diamond_is_valid_json_shape() {
    let (_, tf) = recorded_diamond();
    let json = render::chrome(&tf);
    let doc = Json::parse(&json).expect("valid JSON");
    let events = doc.as_arr().unwrap();
    let phase = |ph: &str| {
        events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some(ph))
            .count()
    };
    // 3 initial executions + 3 re-executions + 1 propagation run, each one
    // complete event; no B/E pairs for a viewer to mismatch.
    assert_eq!(phase("X"), 7, "{json}");
    assert_eq!(phase("B") + phase("E"), 0);
    assert!(events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .all(|e| e.get("dur").and_then(Json::as_u64).is_some()));
    assert!(json.contains(r#""name":"exec top (n1)""#), "{json}");
    assert!(json.contains(r#""name":"cutoff left (n2)""#), "{json}");
}

#[test]
fn profiler_counts_diamond_executions() {
    let (_, tf) = recorded_diamond();
    let hot = render::hot(&tf);
    // 3 initial executions + 3 re-executions; only the explicit
    // propagate() is a propagation run.
    assert_eq!(hot.rows.iter().map(|r| r.execs).sum::<u64>(), 6);
    assert_eq!(hot.propagations, 1);
    assert_eq!(hot.unmatched, 0);
    let report = hot.render(3);
    assert!(report.contains("top (n1)"), "{report}");
    assert_eq!(
        report.lines().count(),
        2 + 3,
        "top-k not applied:\n{report}"
    );
}

// ---------------------------------------------------------------------------
// Hand-written streams
// ---------------------------------------------------------------------------

mod synthetic_streams {
    use super::*;
    use alphonse::trace::TraceEvent;
    use alphonse::NodeKind;

    fn node(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn chrome_json_is_balanced_and_named() {
        let tf = synthetic(vec![
            (
                0,
                TraceEvent::NodeCreated {
                    node: node(0),
                    kind: NodeKind::Computation,
                    label: Some(Arc::from("he\"llo")),
                },
            ),
            (1, TraceEvent::ExecuteBegin { node: node(0) }),
            (2, TraceEvent::Read { node: node(0) }),
            (
                5,
                TraceEvent::ExecuteEnd {
                    node: node(0),
                    changed: true,
                },
            ),
        ]);
        // The record's label stamp names the span, as a JSONL writer
        // stamps it.
        let mut tf = tf;
        for rec in &mut tf.records {
            rec.label = Some("he\"llo".into());
        }
        let json = render::chrome(&tf);
        assert!(json.starts_with('[') && json.trim_end().ends_with(']'));
        assert!(json.contains(r#"exec he\"llo"#), "{json}");
        assert!(json.contains(r#""reads":1"#), "{json}");
        assert!(json.contains(r#""ts":1,"dur":4"#), "{json}");
        Json::parse(&json).expect("valid JSON");
    }

    #[test]
    fn chrome_closes_spans_the_trace_leaves_open() {
        let tf = synthetic(vec![
            (3, TraceEvent::PropagateBegin { wave: 1 }),
            (4, TraceEvent::ExecuteBegin { node: node(0) }),
            (9, TraceEvent::Read { node: node(1) }),
        ]);
        let json = render::chrome(&tf);
        Json::parse(&json).expect("valid JSON");
        assert!(
            json.contains(r#""name":"propagate","cat":"propagate","ph":"X","ts":3,"dur":6"#),
            "{json}"
        );
        assert!(
            json.contains(r#""name":"exec n0","cat":"execute","ph":"X","ts":4,"dur":5"#),
            "{json}"
        );
        assert_eq!(json.matches(r#""unfinished":true"#).count(), 2, "{json}");
    }

    #[test]
    fn dot_mirrors_edges_and_removals() {
        let mut events = vec![
            (
                0,
                TraceEvent::NodeCreated {
                    node: node(0),
                    kind: NodeKind::Location,
                    label: None,
                },
            ),
            (
                1,
                TraceEvent::NodeCreated {
                    node: node(1),
                    kind: NodeKind::Computation,
                    label: None,
                },
            ),
            (
                2,
                TraceEvent::EdgeAdded {
                    from: node(0),
                    to: node(1),
                },
            ),
        ];
        assert_eq!(graph_size(&synthetic(events.clone())), (2, 1));
        assert!(render::dot(&synthetic(events.clone())).contains("  n0 -> n1;\n"));
        // A second dependency of n1, then the first one goes: only that
        // edge leaves the picture.
        events.push((
            3,
            TraceEvent::NodeCreated {
                node: node(2),
                kind: NodeKind::Location,
                label: None,
            },
        ));
        events.push((
            4,
            TraceEvent::EdgeAdded {
                from: node(2),
                to: node(1),
            },
        ));
        events.push((
            5,
            TraceEvent::EdgeRemoved {
                from: node(0),
                to: node(1),
            },
        ));
        assert_eq!(graph_size(&synthetic(events.clone())), (3, 1));
        let dot = render::dot(&synthetic(events.clone()));
        assert!(dot.contains("  n2 -> n1;\n"), "{dot}");
        assert!(!dot.contains("n0 -> n1"), "{dot}");
        events.push((
            6,
            TraceEvent::EdgeRemoved {
                from: node(2),
                to: node(1),
            },
        ));
        assert_eq!(graph_size(&synthetic(events.clone())), (3, 0));
        let dot = render::dot(&synthetic(events));
        assert!(dot.starts_with("digraph alphonse {\n"));
        assert!(!dot.contains("->"), "{dot}");
    }

    #[test]
    fn dot_restarts_when_a_new_runtime_begins() {
        let created = |node, label: &str| TraceEvent::NodeCreated {
            node,
            kind: NodeKind::Location,
            label: Some(Arc::from(label)),
        };
        let tf = synthetic(vec![
            (0, created(node(0), "old0")),
            (1, created(node(1), "old1")),
            (2, created(node(0), "new0")),
        ]);
        let dot = render::dot(&tf);
        assert_eq!(graph_size(&tf), (1, 0));
        assert!(dot.contains("new0") && !dot.contains("old"), "{dot}");
    }

    #[test]
    fn hot_attributes_self_time_to_frames() {
        let tf = synthetic(vec![
            (0, TraceEvent::ExecuteBegin { node: node(0) }),
            (10, TraceEvent::ExecuteBegin { node: node(1) }),
            (
                30,
                TraceEvent::ExecuteEnd {
                    node: node(1),
                    changed: true,
                },
            ),
            (
                50,
                TraceEvent::ExecuteEnd {
                    node: node(0),
                    changed: true,
                },
            ),
        ]);
        let hot = render::hot(&tf);
        let row = |n: NodeId| hot.rows.iter().find(|r| r.node == n).unwrap();
        assert_eq!((row(node(1)).self_us, row(node(1)).cum_us), (20, 20));
        assert_eq!((row(node(0)).self_us, row(node(0)).cum_us), (30, 50));
        assert_eq!(hot.rows[0].node, node(0), "sorted by self time");
        assert!(hot.render(10).contains("execs"));
    }

    #[test]
    fn hot_counts_ends_without_a_begin() {
        let tf = synthetic(vec![(
            0,
            TraceEvent::ExecuteEnd {
                node: node(0),
                changed: true,
            },
        )]);
        let hot = render::hot(&tf);
        assert_eq!(hot.unmatched, 1);
        assert!(hot.rows.is_empty());
        assert!(hot
            .render(5)
            .starts_with("warning: 1 executions ended without"));
    }

    #[test]
    fn dot_marks_dirty_and_latest_nodes() {
        let tf = synthetic(vec![
            (
                0,
                TraceEvent::NodeCreated {
                    node: node(0),
                    kind: NodeKind::Location,
                    label: Some(Arc::from("x")),
                },
            ),
            (
                1,
                TraceEvent::NodeCreated {
                    node: node(1),
                    kind: NodeKind::Computation,
                    label: Some(Arc::from("f")),
                },
            ),
            (2, TraceEvent::ExecuteBegin { node: node(1) }),
            (
                3,
                TraceEvent::EdgeAdded {
                    from: node(0),
                    to: node(1),
                },
            ),
            (
                4,
                TraceEvent::ExecuteEnd {
                    node: node(1),
                    changed: true,
                },
            ),
            (
                5,
                TraceEvent::Dirtied {
                    node: node(1),
                    reason: alphonse::trace::DirtyReason::Fanout,
                    cause: Some(node(0)),
                },
            ),
        ]);
        let a = render::dot(&tf);
        assert_eq!(a, render::dot(&tf));
        assert!(a.contains("salmon"), "{a}");
        assert!(a.contains("penwidth=2"), "{a}");
        assert!(a.contains("peripheries=2"), "{a}");
        assert!(a.contains(r#"label="f\nn1 #1\nexecs=1""#), "{a}");
    }
}

// ---------------------------------------------------------------------------
// Pooled levels
// ---------------------------------------------------------------------------

/// The eager fan of `crates/core/tests/parallel.rs`, on two threads: 8
/// vars, one eager `cell` memo per var, one eager `total` over the cells.
/// Updating every var makes one 8-wide pooled level of cells. Each thread
/// emits `ExecuteBegin` when it claims a cell and `ExecuteEnd` when that
/// cell returns; the first two cells wait for each other, so the driver's
/// and the helper's spans overlap and only pairing by node matches them.
#[test]
fn pooled_level_pairs_each_end_with_its_own_begin() {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::time::{Duration, Instant};
    let rt = Runtime::new();
    rt.set_parallelism(2);
    let trace = Capture::new();
    rt.set_sink(Some(trace.sink()));
    let armed = Arc::new(AtomicBool::new(false));
    let arrived = Arc::new(AtomicUsize::new(0));
    let vars: Vec<Var<i64>> = (0..8).map(|i| rt.var(i as i64)).collect();
    let cells: Vec<alphonse::Memo<(), i64>> = vars
        .iter()
        .map(|v| {
            let v = *v;
            let (armed, arrived) = (Arc::clone(&armed), Arc::clone(&arrived));
            rt.memo_with("cell", Strategy::Eager, move |rt, &(): &()| {
                if armed.load(Ordering::SeqCst) {
                    // Hold until both threads are inside a cell (or a
                    // generous timeout passes).
                    arrived.fetch_add(1, Ordering::SeqCst);
                    let t0 = Instant::now();
                    while arrived.load(Ordering::SeqCst) < 2
                        && t0.elapsed() < Duration::from_secs(10)
                    {
                        std::thread::yield_now();
                    }
                }
                v.get(rt) * 10
            })
        })
        .collect();
    let total = rt.memo_with("total", Strategy::Eager, move |rt, &(): &()| {
        cells.iter().map(|c| c.call(rt, ())).sum::<i64>()
    });
    total.call(&rt, ());
    armed.store(true, Ordering::SeqCst);
    for (i, v) in vars.iter().enumerate() {
        v.set(&rt, i as i64 + 100);
    }
    rt.propagate();
    rt.set_sink(None);
    assert!(rt.stats().parallel_executions > 0, "the level ran pooled");

    let tf = TraceFile::parse(&trace.text()).unwrap();
    let wave = TraceFile {
        meta: tf.meta.clone(),
        records: tf
            .records
            .iter()
            .filter(|r| r.wave.is_some())
            .cloned()
            .collect(),
    };
    // The wave's begins really interleave: a second cell begins before the
    // first one ends.
    let kinds: Vec<&str> = wave
        .records
        .iter()
        .filter_map(|r| match r.event {
            alphonse::trace::TraceEvent::ExecuteBegin { .. } => Some("B"),
            alphonse::trace::TraceEvent::ExecuteEnd { .. } => Some("E"),
            _ => None,
        })
        .collect();
    assert_eq!(&kinds[..2], ["B", "B"], "{kinds:?}");

    // hot: one execution per cell in the wave, none unmatched.
    let hot = render::hot(&wave);
    assert_eq!(hot.unmatched, 0);
    let cell_rows: Vec<_> = hot
        .rows
        .iter()
        .filter(|r| r.label.starts_with("cell ("))
        .collect();
    assert_eq!(cell_rows.len(), 8, "{}", hot.render(20));
    assert_eq!(cell_rows.iter().map(|r| r.execs).sum::<u64>(), 8);
    // Each cell's time runs from its own begin to its own end.
    let ts_of = |node: NodeId, begin: bool| {
        wave.records
            .iter()
            .find(|r| match r.event {
                alphonse::trace::TraceEvent::ExecuteBegin { node: n } => begin && n == node,
                alphonse::trace::TraceEvent::ExecuteEnd { node: n, .. } => !begin && n == node,
                _ => false,
            })
            .unwrap()
            .ts
    };
    for r in &cell_rows {
        assert_eq!(r.execs, 1);
        assert_eq!(
            r.cum_us,
            ts_of(r.node, false) - ts_of(r.node, true),
            "{r:?}"
        );
    }
    let total_row = hot
        .rows
        .iter()
        .find(|r| r.label.starts_with("total ("))
        .unwrap();
    assert_eq!(total_row.execs, 1);

    // chrome: every exec span is named for its own node and ends at that
    // node's ExecuteEnd.
    let doc = Json::parse(&render::chrome(&wave)).unwrap();
    let mut spans: Vec<(String, u64)> = doc
        .as_arr()
        .unwrap()
        .iter()
        .filter(|e| e.get("cat").and_then(Json::as_str) == Some("execute"))
        .map(|e| {
            let name = e.get("name").and_then(Json::as_str).unwrap().to_string();
            let ts = e.get("ts").and_then(Json::as_u64).unwrap();
            let dur = e.get("dur").and_then(Json::as_u64).unwrap();
            (name, ts + dur)
        })
        .collect();
    let mut ends: Vec<(String, u64)> = wave
        .records
        .iter()
        .filter_map(|r| match r.event {
            alphonse::trace::TraceEvent::ExecuteEnd { node, .. } => Some((
                format!("exec {} ({node})", r.label.as_deref().unwrap()),
                r.ts,
            )),
            _ => None,
        })
        .collect();
    spans.sort();
    ends.sort();
    assert_eq!(spans.len(), 9);
    assert_eq!(spans, ends);
}
