//! Per-instance memory of an unbounded memo: an instance costs its graph
//! node, its argument-table entry and its executor, and nothing else — no
//! per-instance name entry, no LRU stamp.
//!
//! Installs the tagged counting allocator and measures `graph_core` +
//! `memo` live-byte deltas around the calls. The counters are
//! process-global, so the measurement serializes on a lock (other test
//! threads in this binary only allocate untagged).
#![cfg(feature = "metrics")]

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

/// Ceiling on `graph_core` + `memo` live bytes per instance. Measured: 193
/// with a name entry and an LRU stamp per instance, 111 without.
const MAX_BYTES_PER_INSTANCE: u64 = 130;

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
