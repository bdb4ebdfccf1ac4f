//! Accounting-balance properties for the tagged counting allocator.
//!
//! Every test measures *deltas* around its own allocations and serializes
//! on a shared mutex: the counters are process-global and the test harness
//! runs tests on multiple threads, so absolute values are meaningless but
//! deltas under the lock are exact (other test threads in this binary only
//! allocate Untagged, and we never assert on Untagged).

use alphonse_mem::{scope, set_enabled, snapshot, with, Tag, ALL_TAGS};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

#[global_allocator]
static ALLOC: alphonse_mem::TrackingAlloc = alphonse_mem::TrackingAlloc;

/// Serializes tests that assert on tagged counter deltas.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Live (bytes, allocs) per tag, excluding Untagged (polluted by the
/// concurrent test harness).
fn live() -> Vec<(u64, u64)> {
    snapshot()
        .tags
        .iter()
        .filter(|t| t.tag != "untagged")
        .map(|t| (t.live_bytes, t.live_allocs))
        .collect()
}

#[test]
fn alloc_free_returns_tag_to_baseline() {
    let _l = lock();
    let before = live();
    {
        let _g = scope(Tag::GraphCore);
        let v: Vec<u64> = (0..1000).collect();
        assert_eq!(v.len(), 1000);
        let mid = live();
        let gc = Tag::GraphCore as usize;
        assert!(
            mid[gc].0 >= before[gc].0 + 8000,
            "graph_core live bytes did not grow: {} -> {}",
            before[gc].0,
            mid[gc].0
        );
    }
    assert_eq!(live(), before, "tags did not return to baseline");
}

#[test]
fn hwm_is_monotone_and_covers_peak() {
    let _l = lock();
    let peak: usize = 64 * 1024;
    let hwm_before = snapshot().get("queues").unwrap().hwm_bytes;
    with(Tag::Queues, || {
        let v = vec![0u8; peak];
        std::hint::black_box(&v);
    });
    let after = snapshot().get("queues").unwrap().hwm_bytes;
    assert!(
        after >= hwm_before.max(peak as u64),
        "hwm {after} below peak {peak}"
    );
}

#[test]
fn disabled_allocations_are_not_counted_but_free_safely() {
    let _l = lock();
    let before = live();
    set_enabled(false);
    let v: Vec<u8>;
    {
        let _g = scope(Tag::Memo);
        v = vec![7u8; 4096];
    }
    set_enabled(true);
    assert_eq!(live(), before, "disabled allocation was counted");
    drop(v); // freed after re-enable: header says NOT_COUNTED, no debit
    assert_eq!(live(), before, "free of uncounted block changed counters");
}

#[test]
fn enabled_allocation_freed_while_disabled_still_debits() {
    let _l = lock();
    let before = live();
    let v = with(Tag::Trace, || vec![1u8; 2048]);
    set_enabled(false);
    drop(v); // header carries the tag; the debit must not be gated
    set_enabled(true);
    assert_eq!(live(), before, "counted block leaked across kill switch");
}

#[test]
fn realloc_rebills_original_tag() {
    let _l = lock();
    let before = live();
    let mut v: Vec<u8> = with(Tag::Substrate, || Vec::with_capacity(16));
    // Grow far past the original capacity *outside* the scope: the
    // reallocations must keep billing Substrate (header tag), not Untagged.
    for i in 0..100_000u32 {
        v.push(i as u8);
    }
    let sub = Tag::Substrate as usize;
    let mid = live();
    assert!(
        mid[sub].0 >= before[sub].0 + 100_000,
        "realloc did not rebill substrate: {} -> {}",
        before[sub].0,
        mid[sub].0
    );
    drop(v);
    assert_eq!(live(), before, "realloc unbalanced the tag");
}

#[test]
fn cross_thread_free_debits_allocating_tag() {
    let _l = lock();
    let before = live();
    let v = with(Tag::ExecPool, || vec![0u64; 512]);
    std::thread::spawn(move || drop(v)).join().unwrap();
    assert_eq!(live(), before, "cross-thread free lost the tag");
}

#[test]
fn overaligned_allocations_balance() {
    let _l = lock();
    #[repr(align(64))]
    struct Cacheline([u8; 64]);
    #[repr(align(256))]
    struct Page([u8; 256]);
    let before = live();
    {
        let _g = scope(Tag::Metrics);
        let a = Box::new(Cacheline([1; 64]));
        let b = Box::new(Page([2; 256]));
        assert_eq!(a.0[0], 1);
        assert_eq!(b.0[0], 2);
        assert_eq!((&*a as *const Cacheline as usize) % 64, 0);
        assert_eq!((&*b as *const Page as usize) % 256, 0);
    }
    assert_eq!(live(), before, "over-aligned blocks unbalanced");
}

fn tag_strategy() -> impl Strategy<Value = Tag> {
    (0..ALL_TAGS.len()).prop_map(|i| ALL_TAGS[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary nested scopes with interleaved allocations, drops in
    /// reverse order: every non-Untagged tag returns exactly to its
    /// pre-scope live count.
    #[test]
    fn nested_scopes_balance(ops in proptest::collection::vec((tag_strategy(), 1usize..4096), 1..12)) {
        let _l = lock();
        let before = live();
        {
            let mut guards = Vec::new();
            let mut blocks: Vec<Vec<u8>> = Vec::new();
            for (tag, size) in &ops {
                guards.push(scope(*tag));
                blocks.push(vec![0u8; *size]);
            }
            // Drop some blocks while scopes are still nested (free-time
            // scope must not matter), the rest after all guards unwind.
            // Guards restore-by-swap, so they must unwind LIFO.
            let half = blocks.len() / 2;
            blocks.truncate(half);
            while let Some(g) = guards.pop() {
                drop(g);
            }
            drop(blocks);
        }
        prop_assert_eq!(live(), before);
    }

    /// Blocks allocated under a tag on one thread and freed on another —
    /// possibly inside a *different* scope — still debit the allocating tag.
    #[test]
    fn cross_thread_scoped_frees_balance(
        sizes in proptest::collection::vec(1usize..8192, 1..8),
        alloc_tag in tag_strategy(),
        free_tag in tag_strategy(),
    ) {
        let _l = lock();
        let before = live();
        let blocks: Vec<Vec<u8>> = sizes
            .iter()
            .map(|&s| with(alloc_tag, || vec![0u8; s]))
            .collect();
        std::thread::spawn(move || {
            let _g = scope(free_tag);
            drop(blocks);
        })
        .join()
        .unwrap();
        prop_assert_eq!(live(), before);
    }

    /// Toggling the kill switch mid-lifetime never unbalances a tag: blocks
    /// are debited iff they were credited, per the header.
    #[test]
    fn kill_switch_interleaving_balances(
        plan in proptest::collection::vec((tag_strategy(), any::<bool>(), 1usize..2048), 1..10)
    ) {
        let _l = lock();
        let before = live();
        let mut held = Vec::new();
        for (tag, on, size) in &plan {
            set_enabled(*on);
            held.push(with(*tag, || vec![0u8; *size]));
        }
        for (i, block) in held.into_iter().enumerate() {
            set_enabled(i % 2 == 0);
            drop(block);
        }
        set_enabled(true);
        prop_assert_eq!(live(), before);
    }
}
