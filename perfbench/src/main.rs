//! Closed-loop benchmark of the Alphonse runtime and its substrates.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--updates <n>] [--small] [--inject-wrong-answer] [--spans-out <path>]
//! ```
//!
//! Prints a readable report on stderr and, as the last line of stdout, one
//! JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.
//! `--trace 0` reports the end-to-end metrics with span recording off;
//! `--trace 1` reports the per-layer metrics from a run that records spans
//! in alternate chunks of updates and writes them to `--spans-out`
//! (default `perfbench/out/spans-<workload>-<seed>.jsonl`). Exits with 1
//! when any answer fails its oracle, 2 on bad arguments.

mod harness;
mod metrics;
mod oracle;
mod spans;
mod workloads;

use alphonse::mem::TrackingAlloc;
use harness::{Config, Outcome, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

// Bills every allocation to a subsystem tag; the memory metrics read it.
#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

/// The benchmark thread's stack: deep reference chains and interpreted
/// recursion evaluate depth-first.
const STACK_BYTES: usize = 256 << 20;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--updates <n>] [--small] [--inject-wrong-answer] [--spans-out <path>]",
        metrics::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut updates = None;
    let mut small = false;
    let mut inject = false;
    let mut spans_out = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    t => return Err(format!("--trace takes 0 or 1, not {t}")),
                })
            }
            "--updates" => {
                updates = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--updates: {e}"))?,
                )
            }
            "--small" => small = true,
            "--inject-wrong-answer" => inject = true,
            "--spans-out" => spans_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !metrics::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seed = seed.ok_or("--seed is required")?;
    let spans_out = spans_out
        .unwrap_or_else(|| PathBuf::from(format!("perfbench/out/spans-{workload}-{seed}.jsonl")));
    Ok(Config {
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        updates,
        small,
        inject_wrong_answer: inject,
        spans_out,
    })
}

fn run(cfg: &Config) -> Outcome {
    use workloads::*;
    fn go<W: Workload>(cfg: &Config) -> Outcome {
        harness::run::<W>(cfg)
    }
    match cfg.workload.as_str() {
        "sheet_bulk" => go::<sheet::SheetBulk>(cfg),
        "avl_churn" => go::<avl::AvlChurn>(cfg),
        "lang_height" => go::<lang::LangHeight>(cfg),
        "ag_eager_par1" => go::<ag::AgEagerPar1>(cfg),
        "memo_eager_par2" => go::<memo::MemoEagerPar2>(cfg),
        _ => unreachable!("validated in parse"),
    }
}

/// Formats a metric value as a JSON number with all its digits.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not a number");
    format!("{v}")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(c) => c,
        Err(e) => return usage(&e),
    };
    let out = {
        let cfg_ref = &cfg;
        std::thread::scope(|s| {
            std::thread::Builder::new()
                .name("perfbench".into())
                .stack_size(STACK_BYTES)
                .spawn_scoped(s, move || run(cfg_ref))
                .expect("spawn the benchmark thread")
                .join()
                .expect("the benchmark thread panicked")
        })
    };

    let registry = if cfg.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    let error_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    eprintln!(
        "perfbench {} seed={} trace={} cpus={cpus}: {} timed updates ({} traced), \
         {} answers checked, {} failed, error_ratio={error_ratio}",
        cfg.workload,
        cfg.seed,
        u8::from(cfg.trace),
        out.updates,
        out.traced_updates,
        out.attempted,
        out.failed
    );
    for (name, unit) in registry {
        eprintln!("  {name:<40} {:>16.4} {unit}", out.metrics[name]);
    }
    if cfg.trace {
        eprintln!("  self time per call in the kept setup (span, calls, mean self ms):");
        for (name, t) in &out.setup_spans {
            eprintln!(
                "  {:<40} {:>10} {:>16.3}",
                format!("{name}_ms"),
                t.count,
                t.self_ns as f64 / t.count as f64 / 1e6
            );
        }
        eprintln!("  self time per call over the traced updates (span, calls, mean self us):");
        for (name, t) in &out.span_totals {
            eprintln!(
                "  {:<40} {:>10} {:>16.3}",
                format!("{name}_us"),
                t.count,
                t.self_ns as f64 / t.count as f64 / 1e3
            );
        }
    }

    let metrics: Vec<String> = registry
        .iter()
        .map(|(name, unit)| {
            let v = out
                .metrics
                .get(name)
                .copied()
                .expect("every registered metric is computed");
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
