//! The benchmark's own tests: oracle self-test, determinism, the held-out
//! seed, and agreement between the metric registry and `BENCHMARK.json`.
//! Each runs the built binary on small inputs.

#[path = "../src/metrics.rs"]
#[allow(dead_code)]
mod metrics;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

/// Seed for development runs; claims are re-checked on [`HELD_OUT_SEED`].
const DEV_SEED: u64 = 1;
/// The held-out seed README.md names: not used while tuning a change.
const HELD_OUT_SEED: u64 = 2;

struct Run {
    code: i32,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// Pulls the number after `"key": ` out of the result line.
fn field(line: &str, key: &str) -> String {
    let at = line
        .find(&format!("\"{key}\": "))
        .unwrap_or_else(|| panic!("no {key} in {line}"));
    line[at + key.len() + 4..]
        .chars()
        .take_while(|c| !matches!(c, ',' | '}'))
        .collect()
}

fn run(workload: &str, seed: u64, trace: bool, extra: &[&str]) -> Run {
    let spans: PathBuf = [
        env!("CARGO_TARGET_TMPDIR"),
        &format!("spans-{workload}-{seed}.jsonl"),
    ]
    .iter()
    .collect();
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "60",
        ])
        .args([
            "--trace",
            if trace { "1" } else { "0" },
            "--small",
            "--updates",
            "120",
        ])
        .arg("--spans-out")
        .arg(&spans)
        .args(extra)
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let line = stdout.lines().last().expect("a result line");
    // Metrics: `"name": {"value": v, "unit": "u"}` pairs.
    let mut metrics = BTreeMap::new();
    let body = &line[line.find("\"metrics\": {").expect("metrics") + 12..];
    for part in body.split("}, ") {
        let name = part.split('"').nth(1).expect("metric name").to_string();
        let value = field(part, "value").parse().expect("numeric value");
        metrics.insert(name, value);
    }
    Run {
        code: out.status.code().expect("exited"),
        correct: field(line, "correct") == "true",
        attempted: field(line, "attempted").parse().expect("attempted"),
        failed: field(line, "failed").parse().expect("failed"),
        metrics,
    }
}

#[test]
fn injected_wrong_answers_raise_error_ratio_and_fail_the_run() {
    for &w in metrics::WORKLOADS {
        let clean = run(w, DEV_SEED, false, &[]);
        assert_eq!(
            (clean.code, clean.failed),
            (0, 0),
            "{w} fails without injection"
        );
        assert!(clean.correct && clean.attempted > 0);
        let bad = run(w, DEV_SEED, false, &["--inject-wrong-answer"]);
        assert_eq!(bad.code, 1, "{w}: wrong answers must fail the run");
        assert!(!bad.correct);
        let ratio = bad.failed as f64 / bad.attempted as f64;
        assert!(ratio > 0.05, "{w}: error_ratio {ratio} did not rise");
    }
}

#[test]
fn oracles_never_call_into_the_runtime() {
    // Expected answers come from `oracle.rs` and std collections; the only
    // runtime-backed reference is the conventional interpreter that
    // `lang_height` cross-checks, which lives in its workload file.
    let oracle = include_str!("../src/oracle.rs");
    for path in ["alphonse::", "alphonse_"] {
        assert!(
            !oracle.contains(path),
            "oracle.rs must not use the system under test"
        );
    }
    let avl = include_str!("../src/workloads/avl.rs");
    assert!(avl.contains("mirror: BTreeSet<i64>"));
}

/// Per-update work counts and graph sizes: deterministic for a seed.
fn counts(r: &Run) -> BTreeMap<String, f64> {
    r.metrics
        .iter()
        .filter(|(k, _)| {
            (k.starts_with("core.") || k.starts_with("graph.") || k.starts_with("exec_pool."))
                && !k.ends_with("_us")
                && *k != "exec_pool.worker_busy_share"
        })
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

#[test]
fn same_seed_repeats_every_count() {
    for &w in metrics::WORKLOADS {
        let a = run(w, DEV_SEED, true, &[]);
        let b = run(w, DEV_SEED, true, &[]);
        assert_eq!((a.code, b.code), (0, 0), "{w}");
        assert!(counts(&a).contains_key("graph.nodes"));
        assert_eq!(
            counts(&a),
            counts(&b),
            "{w}: counts differ between identical runs"
        );
    }
}

#[test]
fn held_out_seed_changes_inputs_and_passes() {
    for &w in metrics::WORKLOADS {
        let dev = run(w, DEV_SEED, true, &[]);
        let held = run(w, HELD_OUT_SEED, true, &[]);
        assert_eq!(
            (held.code, held.failed),
            (0, 0),
            "{w} fails on the held-out seed"
        );
        assert_ne!(
            counts(&dev),
            counts(&held),
            "{w}: the seed does not reach the inputs"
        );
    }
}

#[test]
fn registry_matches_benchmark_json() {
    let json = include_str!("../../BENCHMARK.json");
    let names_in = |list: &[(&str, &str)]| {
        for (name, unit) in list {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    };
    names_in(metrics::END_TO_END);
    names_in(metrics::PER_LAYER);
    let units = json.matches("\"unit\":").count();
    assert_eq!(units, metrics::END_TO_END.len() + metrics::PER_LAYER.len());
    for w in metrics::WORKLOADS {
        assert!(
            json.contains(&format!("\"name\": \"{w}\", \"why\"")),
            "{w} missing"
        );
    }
    assert_eq!(json.matches("\"why\":").count(), metrics::WORKLOADS.len());
}
