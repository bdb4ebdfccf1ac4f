//! Drive the canonical diamond through a burst of updates and expose the
//! always-on runtime metrics.
//!
//! Run with `cargo run --example metrics_snapshot [-- <out.json>]`. It
//! prints a typed readout to stderr and the JSON snapshot to stdout, and
//! when an output path is given also writes the JSON there so it can be
//! inspected offline:
//!
//! ```text
//! cargo run --example metrics_snapshot -- METRICS_diamond.json
//! alphonse-trace metrics METRICS_diamond.json
//! ```
//!
//! The diamond: `a` feeds `left = a/100` (a cutoff arm) and `right = a*2`;
//! both feed `top`. Each write to `a` runs one propagation wave, so the
//! wave-latency histogram fills and the executed/wasted counters separate
//! productive work from cutoff-stopped recomputation.
//!
//! The example also installs the subsystem-tagged counting allocator, so
//! both readouts carry the `mem` section: per-tag live/HWM bytes and the
//! derived bytes-per-node figure README walks through.

use alphonse::{mem, Runtime, Strategy};

#[global_allocator]
static ALLOC: mem::TrackingAlloc = mem::TrackingAlloc;

fn main() {
    let rt = Runtime::new();

    let a = rt.var_named("a", 10i64);
    let left = rt.memo_with("left", Strategy::Eager, move |rt, &(): &()| a.get(rt) / 100);
    let right = rt.memo_with("right", Strategy::Eager, move |rt, &(): &()| a.get(rt) * 2);
    let (l, r) = (left.clone(), right.clone());
    let top = rt.memo_with("top", Strategy::Eager, move |rt, &(): &()| {
        l.call(rt, ()) + r.call(rt, ())
    });

    let mut value = top.call(&rt, ());
    for i in 1..=32i64 {
        a.set(&rt, 10 + i);
        rt.propagate();
        value = top.call(&rt, ());
    }
    eprintln!("final: top = {value}");

    // One snapshot, two surfaces: the typed struct for assertions in
    // code, JSON for `alphonse-trace metrics`.
    let snap = rt.metrics_snapshot();
    let waves = snap
        .counters
        .iter()
        .find(|(n, _)| *n == "waves")
        .map(|&(_, v)| v)
        .unwrap_or(0);
    eprintln!(
        "typed: waves={waves} wave_latency p50={}ns p99={}ns",
        snap.wave_latency_ns.percentile(0.50),
        snap.wave_latency_ns.percentile(0.99)
    );

    let nodes = snap
        .counters
        .iter()
        .find(|(n, _)| *n == "nodes_created")
        .map(|&(_, v)| v)
        .unwrap_or(0);
    eprintln!("memory (live bytes by subsystem, {nodes} nodes):");
    for tag in &snap.mem.tags {
        if tag.total_allocs == 0 {
            continue;
        }
        eprintln!(
            "  {:<12} live={}B (hwm {}B, {} allocs ever)",
            tag.tag, tag.live_bytes, tag.hwm_bytes, tag.total_allocs
        );
    }
    if nodes > 0 {
        eprintln!(
            "  bytes/node: {:.0}",
            snap.mem.live_bytes_total() as f64 / nodes as f64
        );
    }

    let json = snap.to_json();
    println!("{json}");
    if let Some(out) = std::env::args().nth(1) {
        std::fs::write(&out, json).expect("write snapshot");
        eprintln!("wrote {out}");
    }
}
