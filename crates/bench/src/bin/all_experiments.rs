//! Prints every experiment table in order (regenerates EXPERIMENTS.md data).
//!
//! Usage:
//! `all_experiments [--json] [--quick] [--trace-out <path>] [e2 e7 ...]`
//!
//! With `--json`, each table is additionally written to `BENCH_<ID>.json`
//! in the current directory so future changes have a machine-readable perf
//! trajectory to diff against; E9, E15 and E17 also write their merged
//! metrics snapshot to `METRICS_<ID>.json` beside it. Without `--json`
//! nothing is written. With `--quick`, every experiment runs on a
//! reduced parameter set (CI smoke mode — same columns, smaller sizes).
//! With `--trace-out <path>` (or `ALPHONSE_TRACE=<path>`), every runtime
//! the experiments build streams its events to that JSONL file (see
//! `alphonse_bench::trace_support`); `alphonse-trace chrome|dot|hot`
//! renders the other views from it. Positional arguments select a
//! subset of experiments by id (case-insensitive), e.g.
//! `all_experiments --json e2`.
use alphonse_bench::experiments as ex;
use alphonse_bench::table::Table;
use alphonse_bench::trace_support::TraceSession;

/// Subsystem-tagged memory accounting: E17's bytes/node columns and every
/// METRICS_<ID>.json `mem` section need the counting allocator installed
/// at the binary root (the library cannot install it).
#[global_allocator]
static ALLOC: alphonse::mem::TrackingAlloc = alphonse::mem::TrackingAlloc;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Must come first: removes `--trace-out <path>` so
    // the value token is not mistaken for an experiment-id filter below.
    let trace = TraceSession::from_args(&mut args);
    let json = args.iter().any(|a| a == "--json");
    let quick = args.iter().any(|a| a == "--quick");
    let unknown: Vec<String> = (args.iter())
        .filter(|a| a.starts_with("--") && *a != "--json" && *a != "--quick")
        .cloned()
        .collect();
    alphonse_bench::reject_unknown_flags(
        &unknown,
        "all_experiments [--json] [--quick] [--trace-out <path>] [e2 e7 ...]",
    );
    let filter: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|a| a.to_ascii_lowercase())
        .collect();

    // Each entry takes the quick flag and picks its parameter set.
    type Entry = (&'static str, fn(bool) -> Table);
    let experiments: &[Entry] = &[
        ("E1", |q| {
            ex::e1_height_tree(if q {
                &[64, 256]
            } else {
                &[64, 256, 1024, 4096]
            })
        }),
        ("E2", |q| {
            ex::e2_overhead(if q { &[4, 6] } else { &[4, 6, 8] })
        }),
        ("E3", |q| {
            ex::e3_space(if q { &[16, 64] } else { &[16, 64, 256, 1024] })
        }),
        ("E4", |q| {
            ex::e4_partition(if q { &[8, 64] } else { &[8, 64, 512] })
        }),
        ("E5", |q| {
            ex::e5_unchecked(if q { &[255] } else { &[255, 1023, 4095] })
        }),
        ("E6_SHEET", |q| {
            ex::e6_sheet(if q { &[16, 64] } else { &[16, 64, 256] })
        }),
        ("E6_AG", |q| {
            ex::e6_ag(if q { &[8, 12] } else { &[8, 12, 16, 20] })
        }),
        ("E7", |q| {
            ex::e7_avl(if q { &[256] } else { &[256, 1024, 4096] })
        }),
        ("E8", |q| {
            ex::e8_noncombinator(if q { &[16, 128] } else { &[16, 128, 1024] })
        }),
        ("E9", |q| {
            ex::e9_schedule(if q { &[8, 32] } else { &[8, 32, 128, 512] })
        }),
        ("E10", |q| {
            ex::e10_strategy(if q { &[16, 64] } else { &[16, 64, 256] })
        }),
        ("E12", |q| {
            ex::e12_cache_capacity(if q { &[8, 32] } else { &[8, 32, 128, 256] })
        }),
        ("E13", |q| {
            ex::e13_bulk_edits(if q {
                &[1, 16, 256]
            } else {
                &[1, 16, 256, 4096]
            })
        }),
        ("E14", |q| {
            if q {
                ex::e14_serving(&[1, 2], 8, 16)
            } else {
                ex::e14_serving(&[1, 2, 4], 16, 64)
            }
        }),
        ("E15", |q| {
            if q {
                ex::e15_parallel(&[1, 2, 4], 16, 6, 200)
            } else {
                ex::e15_parallel(&[1, 2, 4], 32, 20, 200)
            }
        }),
        ("E16", ex::e16_metrics_overhead),
        ("E17", ex::e17_scale),
    ];

    let mut first = true;
    let mut matched = false;
    for (id, build) in experiments {
        if !filter.is_empty() && !filter.contains(&id.to_ascii_lowercase()) {
            continue;
        }
        matched = true;
        let table = build(quick);
        if !first {
            println!();
        }
        first = false;
        print!("{table}");
        if json {
            table.write_files(id);
        }
    }
    if !matched {
        eprintln!("no experiment matches {filter:?}");
        std::process::exit(2);
    }
    if let Some(session) = trace {
        session.finish();
    }
}
