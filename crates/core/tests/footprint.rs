//! Per-instance memory of an unbounded memo: an instance costs its graph
//! node, its argument-table entry and its executor, and nothing else — no
//! per-instance name entry, no LRU stamp, no edge-dedup stamp — and an
//! execution's dependence log stays small however often it repeats reads.
//!
//! Installs the tagged counting allocator and measures `graph_core` +
//! `memo` live-byte deltas around the calls. The counters are
//! process-global, so the measurement serializes on a lock (other test
//! threads in this binary only allocate untagged).

use alphonse::mem::{snapshot, TrackingAlloc};
use alphonse::Runtime;
use std::sync::{Mutex, MutexGuard};

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

/// Serializes tests that assert on tagged counter deltas.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Live bytes billed to the graph core and to memo tables.
fn instance_bytes() -> u64 {
    let snap = snapshot();
    ["graph_core", "memo"]
        .iter()
        .map(|t| snap.get(t).expect("tag present").live_bytes)
        .sum()
}

const INSTANCES: u32 = 4096;

/// Ceiling on `graph_core` + `memo` live bytes per instance: the measured
/// figure plus 5%. Measured: 193 with a name entry and an LRU stamp per
/// instance, 111 without, 103 without the per-node edge-dedup stamp.
const MAX_BYTES_PER_INSTANCE: u64 = 108;

#[test]
fn unbounded_memo_instance_footprint() {
    let _l = lock();
    let rt = Runtime::new();
    rt.set_sink(None);
    let id = rt.memo("id", |_rt, &k: &u32| k);
    let before = instance_bytes();
    for k in 0..INSTANCES {
        assert_eq!(id.call(&rt, k), k);
    }
    let per_instance = (instance_bytes() - before) / u64::from(INSTANCES);
    assert_eq!(id.instance_count(), INSTANCES as usize);
    assert!(
        per_instance <= MAX_BYTES_PER_INSTANCE,
        "{per_instance} B per instance exceeds {MAX_BYTES_PER_INSTANCE} B"
    );
}

#[test]
fn a_long_repetitive_log_stays_bounded() {
    // 200,000 alternating reads of two vars: the dependence log is
    // compacted in place whenever it doubles, so the buffer it leaves
    // behind for the next execution stays small.
    let _l = lock();
    let rt = Runtime::new();
    rt.set_sink(None);
    let a = rt.var(1i64);
    let b = rt.var(2i64);
    let m = rt.memo("pingpong", move |rt, &(): &()| {
        (0..100_000).map(|_| a.get(rt) + b.get(rt)).sum::<i64>()
    });
    let before = snapshot()
        .get("graph_core")
        .expect("tag present")
        .live_bytes;
    assert_eq!(m.call(&rt, ()), 300_000);
    let grown = snapshot()
        .get("graph_core")
        .expect("tag present")
        .live_bytes
        - before;
    // One instance node, two edges and a short log; an unbounded log
    // would hold 800,000 bytes.
    assert!(grown < 1024, "{grown} B of graph core for one execution");
}
