//! `alphonse-trace` — replay and analyze Alphonse JSONL trace files.
//!
//! ```text
//! alphonse-trace why <node|label> <trace.jsonl> [--dot] [--allow-truncated]
//! alphonse-trace waves <trace.jsonl>
//! alphonse-trace waste <trace.jsonl>
//! alphonse-trace chrome <trace.jsonl>
//! alphonse-trace dot <trace.jsonl>
//! alphonse-trace hot <trace.jsonl> [--top K]
//! alphonse-trace metrics <snapshot.json> [<baseline.json>]
//! alphonse-trace bench-diff <baseline.json> <candidate.json> [--threshold <pct>]
//! alphonse-trace check-static <trace.jsonl> <staticgraph.json>
//! ```
//!
//! Record a trace with `--trace-out run.jsonl` on any bench binary, or
//! `ALPHONSE_TRACE=run.jsonl` on a bench binary, the lang interpreter or
//! the spreadsheet REPL example, then ask why a node
//! recomputed, how each propagation wave went, and which executions were
//! wasted, or render the run as Chrome spans, a DOT graph, or a hot-node
//! table.

use alphonse::NodeId;
use alphonse_trace_tools::metrics::MetricsDoc;
use alphonse_trace_tools::model::TraceFile;
use alphonse_trace_tools::{render, report, staticgraph};
use std::process::ExitCode;

const USAGE: &str = "\
usage: alphonse-trace <command> ...

commands:
  why <node|label> <trace.jsonl> [--dot] [--allow-truncated]
      Print the causal chain that last dirtied the node: the originating
      write, the dirtying fan-out path, and the re-execution (or its
      absence). <node> is a label (`top`), an id (`n3`), or a bare index
      (`3`). --dot emits a Graphviz digraph instead of text. Traces whose
      recorder dropped events are refused unless --allow-truncated is given.
  waves <trace.jsonl>
      Per-propagation-wave statistics: dirtied/executed/cutoffs/cache hits,
      causal depth, and the critical (longest) dirtying path.
  waste <trace.jsonl>
      Classify every execution as productive (value changed) or wasted
      (equal value recomputed), aggregated per memo label.
  chrome <trace.jsonl>
      Render the trace as Chrome trace-event JSON (load it in Perfetto or
      chrome://tracing): executions and propagation runs as complete spans
      with their reads/edges tallies, writes, dirtyings, levels, cache hits,
      cutoffs and batch commits as instants.
  dot <trace.jsonl>
      Replay the dependency graph and print it as Graphviz DOT: partition
      clusters, dirty nodes in red, each node's latest execution ordinal
      and execution count, the last-executed node double-outlined.
  hot <trace.jsonl> [--top K]
      Per-node execution counts, cache hits, dirtyings, and self/cumulative
      time; prints the K (default 20) nodes with the most self time.
  metrics <snapshot.json> [<baseline.json>]
      Pretty-print a runtime metrics snapshot (`MetricsSnapshot::to_json`
      output, e.g. a bench METRICS_<id>.json sidecar): counter totals,
      p50/p90/p99/max per latency histogram, worker utilization, and
      per-subsystem memory gauges with derived bytes/node when
      the producing binary installed the tracking allocator. With a second
      file, report the change from <baseline.json> to <snapshot.json>
      instead (counters and histograms subtract).
  bench-diff <baseline.json> <candidate.json> [--threshold <pct>]
      Compare two bench result tables (BENCH_<id>.json): rows match by
      their descriptive string cells, every shared numeric column reports
      its percent change, and changes in the bad direction (latency up,
      throughput down) beyond the threshold (default 5%) are flagged.
      Exit 0 when nothing regressed past the threshold, 1 otherwise.
  check-static <trace.jsonl> <staticgraph.json>
      Cross-validate a dynamic trace against the compiler's abstract
      dependency graph (`alphonse-check graph` output): every runtime
      dependence edge must be covered by a static read/write/call edge.
      Exit 0 when the over-approximation holds, 1 with one line per
      uncovered edge otherwise.
";

/// Rows `hot` prints without `--top`.
const DEFAULT_TOP_K: usize = 20;

fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::from(2)
}

/// Prints to stdout, tolerating a closed pipe (`alphonse-trace waves … | head`).
fn emit(text: &str) {
    use std::io::Write as _;
    let _ = std::io::stdout().write_all(text.as_bytes());
}

fn load(path: &str) -> Result<TraceFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    TraceFile::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Takes a boolean `--flag` out of `args`; returns whether it was present.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

fn cmd_why(mut args: Vec<String>) -> ExitCode {
    let dot = take_flag(&mut args, "--dot");
    let allow_truncated = take_flag(&mut args, "--allow-truncated");
    let [target, path] = args.as_slice() else {
        return fail("why takes exactly <node|label> <trace.jsonl>\n\n— see alphonse-trace --help");
    };
    let tf = match load(path) {
        Ok(tf) => tf,
        Err(e) => return fail(&e),
    };
    if tf.meta.dropped > 0 && !allow_truncated {
        let cap = tf
            .meta
            .capacity
            .map(|c| format!(" (ring capacity {c})"))
            .unwrap_or_default();
        return fail(&format!(
            "{path} is truncated: {} events were dropped{cap}, so causal chains may be \
             incomplete or wrong. Re-record with a JSONL sink (unbounded) or pass \
             --allow-truncated to query anyway.",
            tf.meta.dropped
        ));
    }
    let prov = tf.replay_provenance();
    // `n3` / `3` select by id; anything else resolves as a label.
    let node = target
        .strip_prefix('n')
        .unwrap_or(target)
        .parse::<usize>()
        .ok()
        .map(NodeId::from_index)
        .or_else(|| prov.node_by_label(target));
    let Some(node) = node else {
        return fail(&format!("no node labeled `{target}` in {path}"));
    };
    let rendered = if dot {
        prov.why_dot(node)
    } else {
        prov.why_report(node)
    };
    match rendered {
        Some(text) => {
            emit(&text);
            ExitCode::SUCCESS
        }
        None => fail(&format!(
            "{} was never dirtied in this trace — nothing to explain",
            prov.display(node)
        )),
    }
}

fn warn_truncated(tf: &TraceFile) {
    if tf.meta.dropped > 0 {
        eprintln!(
            "warning: trace is truncated ({} events dropped) — counts undercount",
            tf.meta.dropped
        );
    }
}

fn cmd_report(args: Vec<String>, render: impl Fn(&TraceFile) -> String) -> ExitCode {
    let [path] = args.as_slice() else {
        return fail("expected exactly one <trace.jsonl> argument");
    };
    match load(path) {
        Ok(tf) => {
            warn_truncated(&tf);
            emit(&render(&tf));
            ExitCode::SUCCESS
        }
        Err(e) => fail(&e),
    }
}

fn cmd_hot(mut args: Vec<String>) -> ExitCode {
    let top_k = match take_opt(&mut args, "--top") {
        None => DEFAULT_TOP_K,
        Some(Ok(v)) => match v.parse::<usize>() {
            Ok(k) => k,
            Err(_) => return fail(&format!("--top wants a count, got `{v}`")),
        },
        Some(Err(e)) => return fail(&e),
    };
    cmd_report(args, |tf| render::hot(tf).render(top_k))
}

fn cmd_metrics(args: Vec<String>) -> ExitCode {
    let load = |path: &str| -> Result<MetricsDoc, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        MetricsDoc::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    match args.as_slice() {
        [snap] => match load(snap) {
            Ok(doc) => {
                emit(&doc.render(&format!("metrics: {snap}")));
                ExitCode::SUCCESS
            }
            Err(e) => fail(&e),
        },
        [snap, baseline] => match (load(snap), load(baseline)) {
            (Ok(after), Ok(before)) => {
                emit(
                    &after
                        .delta_since(&before)
                        .render(&format!("metrics delta: {baseline} → {snap}")),
                );
                ExitCode::SUCCESS
            }
            (Err(e), _) | (_, Err(e)) => fail(&e),
        },
        _ => fail("metrics takes <snapshot.json> [<baseline.json>]\n\n— see alphonse-trace --help"),
    }
}

/// Takes a `--flag <value>` pair out of `args`; `None` when absent,
/// `Some(Err)` when present but malformed.
fn take_opt(args: &mut Vec<String>, flag: &str) -> Option<Result<String, String>> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        args.remove(i);
        return Some(Err(format!("{flag} needs a value")));
    }
    let v = args.remove(i + 1);
    args.remove(i);
    Some(Ok(v))
}

fn cmd_bench_diff(mut args: Vec<String>) -> ExitCode {
    let threshold = match take_opt(&mut args, "--threshold") {
        None => 5.0,
        Some(Ok(v)) => match v.parse::<f64>() {
            Ok(t) if t >= 0.0 => t,
            _ => {
                return fail(&format!(
                    "--threshold wants a non-negative percent, got `{v}`"
                ))
            }
        },
        Some(Err(e)) => return fail(&e),
    };
    let [baseline, candidate] = args.as_slice() else {
        return fail(
            "bench-diff takes <baseline.json> <candidate.json> [--threshold <pct>]\n\n\
             — see alphonse-trace --help",
        );
    };
    let load = |path: &str| -> Result<alphonse_trace_tools::benchdiff::BenchTable, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        alphonse_trace_tools::benchdiff::BenchTable::parse(&text)
            .map_err(|e| format!("{path}: {e}"))
    };
    match (load(baseline), load(candidate)) {
        (Ok(before), Ok(after)) => {
            let report = alphonse_trace_tools::benchdiff::diff(&before, &after);
            emit(&report.render(threshold));
            if report.worst_regression_pct() > threshold {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        (Err(e), _) | (_, Err(e)) => fail(&e),
    }
}

fn cmd_check_static(args: Vec<String>) -> ExitCode {
    let [trace_path, graph_path] = args.as_slice() else {
        return fail(
            "check-static takes exactly <trace.jsonl> <staticgraph.json>\n\n\
             — see alphonse-trace --help",
        );
    };
    let tf = match load(trace_path) {
        Ok(tf) => tf,
        Err(e) => return fail(&e),
    };
    warn_truncated(&tf);
    let graph = match std::fs::read_to_string(graph_path)
        .map_err(|e| format!("cannot read {graph_path}: {e}"))
        .and_then(|text| {
            staticgraph::StaticGraphFile::parse(&text).map_err(|e| format!("{graph_path}: {e}"))
        }) {
        Ok(g) => g,
        Err(e) => return fail(&e),
    };
    let report = staticgraph::check(&tf, &graph);
    emit(&report.render());
    if report.is_covered() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        emit(USAGE);
        return ExitCode::SUCCESS;
    }
    if args.is_empty() {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    }
    let cmd = args.remove(0);
    match cmd.as_str() {
        "why" => cmd_why(args),
        "waves" => cmd_report(args, report::waves_report),
        "waste" => cmd_report(args, report::waste_report),
        "chrome" => cmd_report(args, render::chrome),
        "dot" => cmd_report(args, render::dot),
        "hot" => cmd_hot(args),
        "metrics" => cmd_metrics(args),
        "bench-diff" => cmd_bench_diff(args),
        "check-static" => cmd_check_static(args),
        other => fail(&format!("unknown command `{other}`\n\n{USAGE}")),
    }
}
