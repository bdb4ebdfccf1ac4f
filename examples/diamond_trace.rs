//! Record a causal trace of the canonical diamond and query it live.
//!
//! Run with `cargo run --example diamond_trace [-- <out.jsonl>]` (default
//! output `TRACE_diamond.jsonl`). The written file replays through the
//! `alphonse-trace` CLI:
//!
//! ```text
//! alphonse-trace why top TRACE_diamond.jsonl
//! alphonse-trace waves   TRACE_diamond.jsonl
//! alphonse-trace waste   TRACE_diamond.jsonl
//! alphonse-trace chrome  TRACE_diamond.jsonl > TRACE_diamond.json
//! alphonse-trace dot     TRACE_diamond.jsonl > TRACE_diamond.dot
//! alphonse-trace hot     TRACE_diamond.jsonl --top 3
//! ```
//!
//! The diamond: `a` feeds `left = a/100` (a cutoff arm — its value rarely
//! changes) and `right = a*2`; both feed `top`. One write to `a` then shows
//! every causal ingredient: the originating write, fan-out dirtying with
//! cause links, a wasted re-execution stopped by cutoff on the left arm,
//! and the productive re-executions on the right.

use alphonse::trace::ActiveTrace;
use alphonse::{Runtime, Strategy};

fn main() -> std::io::Result<()> {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "TRACE_diamond.jsonl".to_string());
    let active = ActiveTrace::create(out)?;

    let rt = Runtime::new();
    rt.set_sink(Some(active.sink()));

    let a = rt.var_named("a", 10i64);
    let left = rt.memo_with("left", Strategy::Eager, move |rt, &(): &()| a.get(rt) / 100);
    let right = rt.memo_with("right", Strategy::Eager, move |rt, &(): &()| a.get(rt) * 2);
    let (l, r) = (left.clone(), right.clone());
    let top = rt.memo_with("top", Strategy::Eager, move |rt, &(): &()| {
        l.call(rt, ()) + r.call(rt, ())
    });

    println!("initial: top = {}", top.call(&rt, ()));
    a.set(&rt, 20);
    rt.propagate();
    println!("after a = 20: top = {}", top.call(&rt, ()));

    // The provenance index rides along with every trace session; ask it
    // live before the file is even flushed.
    let prov = active.provenance().clone();
    let n = top.instance_node(&()).expect("top has been called");
    print!("\n{}", prov.why_report(n).expect("top was dirtied"));

    rt.set_sink(None);
    println!("\ntrace: wrote {}", active.finish()?.display());
    Ok(())
}
