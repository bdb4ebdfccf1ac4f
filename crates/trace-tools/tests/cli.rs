//! Smoke tests of the `alphonse-trace` binary: the why/waves/waste commands
//! and the chrome/dot/hot renderers over a real recorded trace, also one
//! cut short.

use alphonse::trace::{ActiveTrace, JsonlSink};
use alphonse::{Runtime, Strategy};
use alphonse_sheet::{CellValue, Sheet};
use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_alphonse-trace"))
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("alphonse-trace-test-{}-{name}", std::process::id()))
}

/// Records the diamond at `parallelism` into a JSONL trace file and
/// returns its path.
fn recorded_diamond(name: &str, parallelism: usize) -> PathBuf {
    let path = temp_path(name);
    let rt = Runtime::new();
    rt.set_parallelism(parallelism);
    let sink = Arc::new(JsonlSink::create(&path).unwrap());
    rt.set_sink(Some(sink.clone()));
    let a = rt.var_named("a", 10i64);
    let left = rt.memo_with("left", Strategy::Eager, move |rt, &(): &()| a.get(rt) / 100);
    let right = rt.memo_with("right", Strategy::Eager, move |rt, &(): &()| a.get(rt) * 2);
    let (l, r) = (left.clone(), right.clone());
    let top = rt.memo_with("top", Strategy::Eager, move |rt, &(): &()| {
        l.call(rt, ()) + r.call(rt, ())
    });
    top.call(&rt, ());
    a.set(&rt, 20);
    rt.propagate();
    rt.set_sink(None);
    sink.flush().unwrap();
    path
}

/// Records the scripted demo of `examples/spreadsheet_repl.rs` (its
/// cell entries, the `A2 = 1000` edit and the reads after it) through a
/// JSONL trace session and returns the trace path.
fn recorded_sheet_demo(name: &str) -> PathBuf {
    let path = temp_path(name);
    let trace = ActiveTrace::create(&path).unwrap();
    let rt = Runtime::new();
    rt.set_sink(Some(trace.sink()));
    let sheet = Sheet::new(&rt, 8, 12);
    for (addr, src) in [
        ("A1", "100"),
        ("A2", "250"),
        ("A3", "400"),
        ("B1", "=A1+A2+A3"),
        ("B2", "=SUM(A1:A3)"),
        ("B3", "=B1-B2"),
        ("C1", "=B2*2"),
    ] {
        sheet.set(addr, src).unwrap();
    }
    for addr in ["B1", "B2", "B3", "C1"] {
        sheet.value(addr).unwrap();
    }
    sheet.set("A2", "1000").unwrap();
    assert_eq!(sheet.value("B2").unwrap(), CellValue::Num(1500));
    assert_eq!(sheet.value("C1").unwrap(), CellValue::Num(3000));
    rt.set_sink(None);
    trace.finish().unwrap()
}

#[test]
fn why_names_a_spreadsheet_cell_by_its_address() {
    let path = recorded_sheet_demo("sheet.jsonl");
    let why = bin().args(["why", "B2"]).arg(&path).output().unwrap();
    let out = String::from_utf8_lossy(&why.stdout);
    assert!(
        why.status.success(),
        "{out}{}",
        String::from_utf8_lossy(&why.stderr)
    );
    assert!(out.starts_with("why B2 (n"), "{out}");
    assert!(out.contains("write A2.formula"), "{out}");
    assert!(out.contains("-> executed B2"), "{out}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn why_waves_waste_run_over_a_recorded_trace() {
    let path = recorded_diamond("full.jsonl", 0);

    let why = bin().args(["why", "top"]).arg(&path).output().unwrap();
    assert!(
        why.status.success(),
        "{}",
        String::from_utf8_lossy(&why.stderr)
    );
    let out = String::from_utf8_lossy(&why.stdout);
    assert!(out.contains("why top"), "{out}");
    assert!(out.contains("write a (n0) changed=true"), "{out}");

    let dot = bin()
        .args(["why", "top", "--dot"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(dot.status.success());
    assert!(String::from_utf8_lossy(&dot.stdout).contains("digraph why"));

    let waves = bin().arg("waves").arg(&path).output().unwrap();
    assert!(waves.status.success());
    let out = String::from_utf8_lossy(&waves.stdout);
    assert!(out.contains("wave 1:"), "{out}");
    assert!(out.contains("critical path:"), "{out}");

    let waste = bin().arg("waste").arg(&path).output().unwrap();
    assert!(waste.status.success());
    let out = String::from_utf8_lossy(&waste.stdout);
    assert!(out.contains("productive"), "{out}");

    std::fs::remove_file(&path).ok();
}

#[test]
fn chrome_dot_hot_render_a_recorded_trace() {
    let path = recorded_diamond("render.jsonl", 0);
    let first_line = |args: &[&str]| -> String {
        let out = bin().args(args).arg(&path).output().unwrap();
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap_or_default()
            .to_string()
    };
    assert_eq!(first_line(&["chrome"]), "[");
    assert_eq!(first_line(&["dot"]), "digraph alphonse {");
    assert!(first_line(&["hot"]).starts_with("hot nodes (top 4 by self time; 1 propagations"));
    assert!(first_line(&["hot", "--top", "2"]).starts_with("hot nodes (top 2 by self time"));

    let bad_top = bin()
        .args(["hot", "--top", "x"])
        .arg(&path)
        .output()
        .unwrap();
    assert_eq!(bad_top.status.code(), Some(2));

    std::fs::remove_file(&path).ok();
}

#[test]
fn a_trace_cut_short_stays_readable() {
    // A run stopped mid-wave leaves a trace without its closing lines:
    // keep the diamond's wave only up to the line before its last level
    // begins, so the wave is still open and `top` never re-executes.
    let full = recorded_diamond("cut-full.jsonl", 1);
    let text = std::fs::read_to_string(&full).unwrap();
    let last_level = text
        .rfind(r#""ev":"LevelBegin""#)
        .expect("the wave drains by level");
    let cut = &text[..=text[..last_level].rfind('\n').unwrap()];
    assert!(cut.contains(r#""ev":"PropagateBegin""#), "{cut}");
    assert!(!cut.contains(r#""ev":"PropagateEnd""#), "{cut}");
    let path = temp_path("cut.jsonl");
    std::fs::write(&path, cut).unwrap();

    let waves = bin().arg("waves").arg(&path).output().unwrap();
    let err = String::from_utf8_lossy(&waves.stderr);
    assert!(waves.status.success(), "{err}");

    // The first level's commit already dirtied `top`: the chain from the
    // write is in the part that was kept.
    let why = bin().args(["why", "top"]).arg(&path).output().unwrap();
    let out = String::from_utf8_lossy(&why.stdout);
    assert!(
        why.status.success(),
        "{out}{}",
        String::from_utf8_lossy(&why.stderr)
    );
    assert!(out.contains("write a (n0) changed=true"), "{out}");

    std::fs::remove_file(&full).ok();
    std::fs::remove_file(&path).ok();
}

#[test]
fn metrics_prints_and_diffs_snapshots() {
    // Two snapshots of the same runtime, a few waves apart.
    let rt = Runtime::new();
    let v = rt.var(0i64);
    let m = rt.memo_with("double", Strategy::Eager, move |rt, &(): &()| v.get(rt) * 2);
    m.call(&rt, ());
    for i in 1..=3 {
        v.set(&rt, i);
        rt.propagate();
    }
    let before = temp_path("metrics-before.json");
    std::fs::write(&before, rt.metrics_snapshot().to_json()).unwrap();
    for i in 4..=8 {
        v.set(&rt, i);
        rt.propagate();
    }
    let after = temp_path("metrics-after.json");
    std::fs::write(&after, rt.metrics_snapshot().to_json()).unwrap();

    let print = bin().arg("metrics").arg(&after).output().unwrap();
    assert!(
        print.status.success(),
        "{}",
        String::from_utf8_lossy(&print.stderr)
    );
    let out = String::from_utf8_lossy(&print.stdout);
    assert!(out.contains("waves"), "{out}");
    assert!(out.contains("wave_latency_ns"), "{out}");
    assert!(out.contains("p99="), "{out}");

    // Diff mode subtracts: 8 total waves − 3 at baseline = 5.
    let diff = bin()
        .arg("metrics")
        .arg(&after)
        .arg(&before)
        .output()
        .unwrap();
    assert!(
        diff.status.success(),
        "{}",
        String::from_utf8_lossy(&diff.stderr)
    );
    let out = String::from_utf8_lossy(&diff.stdout);
    assert!(out.contains("metrics delta"), "{out}");
    let wave_line = out
        .lines()
        .find(|l| l.trim_start().starts_with("waves "))
        .unwrap_or_else(|| panic!("no waves counter line in:\n{out}"));
    assert!(wave_line.trim_end().ends_with('5'), "{wave_line}");

    let refused = bin()
        .arg("metrics")
        .arg("/no/such/metrics.json")
        .output()
        .unwrap();
    assert_eq!(refused.status.code(), Some(2));

    std::fs::remove_file(&before).ok();
    std::fs::remove_file(&after).ok();
}

#[test]
fn bad_usage_exits_nonzero_with_usage() {
    let none = bin().output().unwrap();
    assert_eq!(none.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&none.stderr).contains("usage:"));

    let unknown = bin().arg("explode").output().unwrap();
    assert_eq!(unknown.status.code(), Some(2));

    let missing = bin()
        .args(["why", "top", "/no/such/file.jsonl"])
        .output()
        .unwrap();
    assert_eq!(missing.status.code(), Some(2));
}
