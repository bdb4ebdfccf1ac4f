//! Subsystem-tagged memory accounting for the Alphonse runtime.
//!
//! This crate is the runtime's one memory view: it *measures* footprint
//! rather than estimating it. [`TrackingAlloc`] is a
//! [`GlobalAlloc`](std::alloc::GlobalAlloc) wrapper over the system
//! allocator that bills every allocation to a subsystem [`Tag`] — whichever
//! tag the allocating thread's innermost [`scope`] guard names — and keeps
//! per-tag live bytes, live allocation counts, high-water marks, and
//! cumulative allocation totals in per-thread counter shards summed at
//! snapshot time.
//!
//! # Design
//!
//! * **Per-allocation header.** Each block is allocated with a small prefix
//!   recording the tag it was billed to (or a *not counted* sentinel), so a
//!   deallocation always debits the tag that was credited — regardless of
//!   which thread frees the block, what scope is active at free time, or
//!   whether the kill switch has flipped in between. This is what makes the
//!   per-tag live gauges balance exactly (see the proptests in
//!   `tests/balance.rs`).
//! * **Sharded counters.** Each thread owns a registered counter shard it
//!   updates with plain load/store pairs — no lock-prefixed read-modify-
//!   write on the allocation hot path, which is what keeps the measured
//!   E16 `mem_overhead_pct` within the ≤2% budget. [`snapshot`] sums the
//!   shards (plus a cold fallback bank used only while a shard is being
//!   constructed): exact once writer threads are quiescent, approximate
//!   while they run. High-water marks sum per-thread peaks — an upper
//!   bound on the true process peak, exact for single-threaded workloads.
//! * **Kill switch.** [`set_enabled`]`(false)` stops counter updates (new
//!   blocks are stamped *not counted*); headers are still written so frees
//!   of blocks allocated while enabled stay correct. Same discipline as the
//!   runtime's `metrics::set_enabled`.
//! * **Process-global counters.** Gauges aggregate over every runtime in
//!   the process (the allocator is global); per-runtime attribution would
//!   need a scope per runtime id and is out of scope here.
//!
//! Allocations made outside any scope — user closures, test harness,
//! formatting machinery — land on [`Tag::Untagged`]; a large untagged share
//! in a report means the workload itself, not the runtime, owns the bytes.

#![warn(missing_docs)]

/// Subsystem a block of memory is billed to.
///
/// The taxonomy mirrors the crate layout: each tag names one allocation
/// domain that DESIGN.md's "Memory accounting" section documents. Discriminants
/// are stable (they index the counter arrays and appear in snapshots by
/// name, never by number).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Tag {
    /// Dependency-graph adjacency + the runtime's SoA node columns.
    GraphCore = 0,
    /// Boxed values: the value slab, write boxes, executor results.
    ValueSlab = 1,
    /// Memo tables: per-memo argument→entry maps and memo closures.
    Memo = 2,
    /// Dirty sets and height-bucketed propagation queues.
    Queues = 3,
    /// Trace recorders, JSONL sinks, event rendering.
    Trace = 4,
    /// Metrics snapshots, histogram rendering, exposition strings.
    Metrics = 5,
    /// Level-parallel executor pool: worker stacks, job boxes.
    ExecPool = 6,
    /// Session pool: shard queues, tenant tables, work envelopes.
    SessionPool = 7,
    /// Substrate overlays: sheet formula/cell maps, tree arenas, AG trees.
    Substrate = 8,
    /// No scope active on the allocating thread (user/harness memory).
    Untagged = 9,
}

/// Number of tags (length of the counter arrays).
pub const TAG_COUNT: usize = 10;

/// Every tag, in discriminant order (snapshot/report order).
pub const ALL_TAGS: [Tag; TAG_COUNT] = [
    Tag::GraphCore,
    Tag::ValueSlab,
    Tag::Memo,
    Tag::Queues,
    Tag::Trace,
    Tag::Metrics,
    Tag::ExecPool,
    Tag::SessionPool,
    Tag::Substrate,
    Tag::Untagged,
];

impl Tag {
    /// Stable snake_case name used in snapshots and their JSON.
    pub fn name(self) -> &'static str {
        match self {
            Tag::GraphCore => "graph_core",
            Tag::ValueSlab => "value_slab",
            Tag::Memo => "memo",
            Tag::Queues => "queues",
            Tag::Trace => "trace",
            Tag::Metrics => "metrics",
            Tag::ExecPool => "exec_pool",
            Tag::SessionPool => "session_pool",
            Tag::Substrate => "substrate",
            Tag::Untagged => "untagged",
        }
    }
}

/// Point-in-time accounting for one tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TagStats {
    /// Stable tag name (see [`Tag::name`]).
    pub tag: &'static str,
    /// Bytes currently allocated under this tag.
    pub live_bytes: u64,
    /// Blocks currently allocated under this tag.
    pub live_allocs: u64,
    /// High-water mark of `live_bytes` since process start. Summed from
    /// per-thread peaks: an upper bound on the true process peak, exact
    /// when one thread does the allocating.
    pub hwm_bytes: u64,
    /// Cumulative allocations billed to this tag since process start.
    pub total_allocs: u64,
}

/// Per-tag accounting report; all zero when the tracking allocator is not
/// installed as the binary's `#[global_allocator]`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MemSnapshot {
    /// One entry per [`Tag`], in [`ALL_TAGS`] order.
    pub tags: Vec<TagStats>,
}

impl MemSnapshot {
    /// True when no accounting data is present (a default report, or the
    /// allocator not installed so every counter is zero).
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty() || self.tags.iter().all(|t| t.total_allocs == 0)
    }

    /// Looks up one tag's stats by stable name.
    pub fn get(&self, name: &str) -> Option<&TagStats> {
        self.tags.iter().find(|t| t.tag == name)
    }

    /// Sum of live bytes across all tags.
    pub fn live_bytes_total(&self) -> u64 {
        self.tags.iter().map(|t| t.live_bytes).sum()
    }

    /// Merges another snapshot of the *same process* taken at a different
    /// time: counters are process-global gauges, so merge takes the
    /// pointwise max (never the sum, which would double-count).
    pub fn merge_max(&mut self, other: &MemSnapshot) {
        if self.tags.is_empty() {
            self.tags = other.tags.clone();
            return;
        }
        for (a, b) in self.tags.iter_mut().zip(&other.tags) {
            a.live_bytes = a.live_bytes.max(b.live_bytes);
            a.live_allocs = a.live_allocs.max(b.live_allocs);
            a.hwm_bytes = a.hwm_bytes.max(b.hwm_bytes);
            a.total_allocs = a.total_allocs.max(b.total_allocs);
        }
    }
}

mod imp {
    use super::{MemSnapshot, Tag, TagStats, ALL_TAGS, TAG_COUNT};
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;
    use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};
    use std::sync::Mutex;

    // `AtomicU64`/`AtomicI64` cannot be copied, so the const items work
    // around array-repeat initialization.
    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO_U: AtomicU64 = AtomicU64::new(0);
    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO_I: AtomicI64 = AtomicI64::new(0);

    // Fallback counters (lock-prefixed RMW, cold): only touched in the
    // short window while a thread's slab is being constructed, where the
    // construction's own allocations would otherwise recurse forever.
    static BASE_LIVE_BYTES: [AtomicI64; TAG_COUNT] = [ZERO_I; TAG_COUNT];
    static BASE_LIVE_ALLOCS: [AtomicI64; TAG_COUNT] = [ZERO_I; TAG_COUNT];
    static BASE_HWM_BYTES: [AtomicI64; TAG_COUNT] = [ZERO_I; TAG_COUNT];
    static BASE_TOTAL_ALLOCS: [AtomicU64; TAG_COUNT] = [ZERO_U; TAG_COUNT];

    static ENABLED: AtomicBool = AtomicBool::new(true);

    /// Per-thread counter shard. Written only by its owning thread with
    /// plain load/store pairs (no lock-prefixed RMW — this is what keeps
    /// the E16 `mem_overhead_pct` within budget); read by [`snapshot`] on
    /// any thread via the registry. Atomics make the cross-thread reads
    /// defined; single-writer discipline makes them accurate.
    struct ThreadSlab {
        live_bytes: [AtomicI64; TAG_COUNT],
        live_allocs: [AtomicI64; TAG_COUNT],
        /// Peak of this thread's *own* `live_bytes` contribution; the
        /// snapshot sums peaks across threads, an upper bound on the true
        /// process peak (exact when one thread does the allocating).
        hwm_bytes: [AtomicI64; TAG_COUNT],
        total_allocs: [AtomicU64; TAG_COUNT],
    }

    impl ThreadSlab {
        const fn new() -> Self {
            ThreadSlab {
                live_bytes: [ZERO_I; TAG_COUNT],
                live_allocs: [ZERO_I; TAG_COUNT],
                hwm_bytes: [ZERO_I; TAG_COUNT],
                total_allocs: [ZERO_U; TAG_COUNT],
            }
        }

        /// Owner-thread-only: bill a fresh block.
        #[inline]
        fn credit(&self, tag: usize, size: usize) {
            let live = self.live_bytes[tag].load(Relaxed) + size as i64;
            self.live_bytes[tag].store(live, Relaxed);
            if live > self.hwm_bytes[tag].load(Relaxed) {
                self.hwm_bytes[tag].store(live, Relaxed);
            }
            let allocs = self.live_allocs[tag].load(Relaxed);
            self.live_allocs[tag].store(allocs + 1, Relaxed);
            let total = self.total_allocs[tag].load(Relaxed);
            self.total_allocs[tag].store(total + 1, Relaxed);
        }

        /// Owner-thread-only: release a block (may drive this shard's
        /// counters negative when it frees blocks another thread credited;
        /// the snapshot sum stays balanced).
        #[inline]
        fn debit(&self, tag: usize, size: usize) {
            let live = self.live_bytes[tag].load(Relaxed);
            self.live_bytes[tag].store(live - size as i64, Relaxed);
            let allocs = self.live_allocs[tag].load(Relaxed);
            self.live_allocs[tag].store(allocs - 1, Relaxed);
        }

        /// Owner-thread-only: rebill a realloc size delta.
        #[inline]
        fn adjust(&self, tag: usize, delta: i64) {
            let live = self.live_bytes[tag].load(Relaxed) + delta;
            self.live_bytes[tag].store(live, Relaxed);
            if live > self.hwm_bytes[tag].load(Relaxed) {
                self.hwm_bytes[tag].store(live, Relaxed);
            }
        }
    }

    /// Every thread's slab, alive for the whole process (slabs are leaked
    /// on purpose — ~320 bytes per thread ever created — so counts from
    /// exited threads keep contributing to the sums; no TLS destructor
    /// means no allocator re-entry during thread teardown).
    static REGISTRY: Mutex<Vec<&'static ThreadSlab>> = Mutex::new(Vec::new());

    /// `TlsState::slab` sentinel: no slab yet.
    const SLAB_UNINIT: usize = 0;
    /// `TlsState::slab` sentinel: slab construction in progress on this
    /// thread — its own allocations must take the base-counter fallback.
    const SLAB_PENDING: usize = 1;

    struct TlsState {
        tag: Cell<u8>,
        slab: Cell<usize>,
    }

    thread_local! {
        // Const-initialized, no Drop: no lazy-init allocation and no
        // destructor registration, so reading it from inside the allocator
        // cannot recurse (same pattern as the exec pool's WORKER_IDENTITY).
        static TLS: TlsState = const {
            TlsState {
                tag: Cell::new(Tag::Untagged as u8),
                slab: Cell::new(SLAB_UNINIT),
            }
        };
    }

    /// This thread's slab, constructing and registering it on first use.
    /// `None` only during that construction (the recursion guard).
    #[inline]
    fn slab(tls: &TlsState) -> Option<&'static ThreadSlab> {
        match tls.slab.get() {
            SLAB_PENDING => None,
            SLAB_UNINIT => {
                tls.slab.set(SLAB_PENDING);
                let slab: &'static ThreadSlab = Box::leak(Box::new(ThreadSlab::new()));
                REGISTRY
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(slab);
                tls.slab.set(slab as *const ThreadSlab as usize);
                Some(slab)
            }
            p => Some(unsafe { &*(p as *const ThreadSlab) }),
        }
    }

    /// Cold fallback: credit straight to the shared base counters.
    #[cold]
    fn credit_base(tag: usize, size: usize) {
        let now = BASE_LIVE_BYTES[tag].fetch_add(size as i64, Relaxed) + size as i64;
        BASE_HWM_BYTES[tag].fetch_max(now, Relaxed);
        BASE_LIVE_ALLOCS[tag].fetch_add(1, Relaxed);
        BASE_TOTAL_ALLOCS[tag].fetch_add(1, Relaxed);
    }

    /// Cold fallback: debit straight to the shared base counters.
    #[cold]
    fn debit_base(tag: usize, size: usize) {
        BASE_LIVE_BYTES[tag].fetch_sub(size as i64, Relaxed);
        BASE_LIVE_ALLOCS[tag].fetch_sub(1, Relaxed);
    }

    /// Header word stamped on blocks allocated while accounting is disabled.
    const NOT_COUNTED: usize = usize::MAX;

    /// Enables or disables counter updates. Headers are still written while
    /// disabled (as `NOT_COUNTED`), so blocks allocated under either setting
    /// deallocate correctly. Process-global; used by the E16 overhead arm.
    pub fn set_enabled(enabled: bool) {
        ENABLED.store(enabled, Relaxed);
    }

    /// True when allocations are currently being billed to tags.
    pub fn enabled() -> bool {
        ENABLED.load(Relaxed)
    }

    /// RAII guard restoring the previous thread-local tag on drop.
    #[must_use = "the tag scope ends when the guard drops"]
    pub struct ScopeGuard {
        prev: u8,
    }

    impl Drop for ScopeGuard {
        fn drop(&mut self) {
            let _ = TLS.try_with(|t| t.tag.set(self.prev));
        }
    }

    /// Bills allocations on this thread to `tag` until the guard drops;
    /// nests (the previous tag is restored, not cleared). Guards restore by
    /// swap, so they must drop in LIFO order — stack them (the natural
    /// `let _g = scope(..)` shape), never collect them into a `Vec` that
    /// drops front-to-back.
    #[inline]
    pub fn scope(tag: Tag) -> ScopeGuard {
        let prev = TLS
            .try_with(|t| t.tag.replace(tag as u8))
            .unwrap_or(Tag::Untagged as u8);
        ScopeGuard { prev }
    }

    /// Snapshot of every tag's counters: base counters plus the sum over
    /// every thread's slab. Exact once writer threads are quiescent (e.g.
    /// joined); relaxed loads make values from a concurrently-allocating
    /// process approximate, but they never drift. `hwm_bytes` sums
    /// per-thread peaks — an upper bound on the true process peak, exact
    /// for single-threaded workloads.
    pub fn snapshot() -> MemSnapshot {
        // Reserve before taking the registry lock: if this is the calling
        // thread's first counted allocation it would register a slab, and
        // slab registration takes the same lock.
        let mut tags = Vec::with_capacity(TAG_COUNT);
        let registry = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
        for &t in ALL_TAGS.iter() {
            let i = t as usize;
            let mut live = BASE_LIVE_BYTES[i].load(Relaxed);
            let mut allocs = BASE_LIVE_ALLOCS[i].load(Relaxed);
            let mut hwm = BASE_HWM_BYTES[i].load(Relaxed);
            let mut total = BASE_TOTAL_ALLOCS[i].load(Relaxed);
            for s in registry.iter() {
                live += s.live_bytes[i].load(Relaxed);
                allocs += s.live_allocs[i].load(Relaxed);
                hwm += s.hwm_bytes[i].load(Relaxed);
                total += s.total_allocs[i].load(Relaxed);
            }
            tags.push(TagStats {
                tag: t.name(),
                live_bytes: live.max(0) as u64,
                live_allocs: allocs.max(0) as u64,
                hwm_bytes: hwm.max(0) as u64,
                total_allocs: total,
            });
        }
        MemSnapshot { tags }
    }

    /// Counting allocator. Install in a binary with
    /// `#[global_allocator] static A: TrackingAlloc = TrackingAlloc;`.
    ///
    /// Each block carries a `prefix(layout)`-byte header holding the tag it
    /// was billed to; the user pointer is `base + prefix`, so alignment is
    /// preserved (the prefix is a multiple of the layout's alignment) and
    /// the header is recoverable from the user pointer alone at free time.
    pub struct TrackingAlloc;

    /// Header prefix: at least 16 bytes (≥ `size_of::<usize>()`, and a
    /// multiple of any alignment ≤ 16), growing to the layout's alignment
    /// for over-aligned types so `base + prefix` stays aligned.
    #[inline]
    fn prefix(layout: Layout) -> usize {
        layout.align().max(16)
    }

    /// Full (header-extended) layout for a user layout, or `None` on
    /// overflow. The alignment is raised to the prefix so the header word
    /// (stored in the last `usize` of the prefix) is itself aligned.
    #[inline]
    fn full_layout(layout: Layout) -> Option<Layout> {
        let pad = prefix(layout);
        let size = layout.size().checked_add(pad)?;
        Layout::from_size_align(size, pad).ok()
    }

    /// Bills `size` fresh bytes to the calling thread's current scope tag
    /// and returns that tag for the header stamp.
    #[inline]
    fn credit(size: usize) -> usize {
        match TLS.try_with(|tls| {
            let t = tls.tag.get() as usize;
            match slab(tls) {
                Some(s) => s.credit(t, size),
                None => credit_base(t, size),
            }
            t
        }) {
            Ok(t) => t,
            Err(_) => {
                let t = Tag::Untagged as usize;
                credit_base(t, size);
                t
            }
        }
    }

    /// Debits `size` bytes from `tag` on the calling thread's shard.
    #[inline]
    fn debit(tag: usize, size: usize) {
        let done = TLS
            .try_with(|tls| match slab(tls) {
                Some(s) => {
                    s.debit(tag, size);
                    true
                }
                None => false,
            })
            .unwrap_or(false);
        if !done {
            debit_base(tag, size);
        }
    }

    /// Stamps the header and updates counters for a fresh block at `base`.
    ///
    /// # Safety
    /// `base` must point to at least `pad` writable bytes.
    #[inline]
    unsafe fn stamp(base: *mut u8, pad: usize, size: usize) {
        let tag = if ENABLED.load(Relaxed) {
            credit(size)
        } else {
            NOT_COUNTED
        };
        // The header lives in the last word of the prefix; the prefix (and
        // the base pointer) are ≥ 16-aligned, so this write is aligned.
        (base.add(pad - std::mem::size_of::<usize>()) as *mut usize).write(tag);
    }

    unsafe impl GlobalAlloc for TrackingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let Some(full) = full_layout(layout) else {
                return std::ptr::null_mut();
            };
            let base = System.alloc(full);
            if base.is_null() {
                return base;
            }
            let pad = prefix(layout);
            stamp(base, pad, layout.size());
            base.add(pad)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            let Some(full) = full_layout(layout) else {
                return std::ptr::null_mut();
            };
            let base = System.alloc_zeroed(full);
            if base.is_null() {
                return base;
            }
            let pad = prefix(layout);
            stamp(base, pad, layout.size());
            base.add(pad)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            let pad = prefix(layout);
            let base = ptr.sub(pad);
            let tag = (base.add(pad - std::mem::size_of::<usize>()) as *const usize).read();
            if tag != NOT_COUNTED {
                debit(tag, layout.size());
            }
            // full_layout succeeded at alloc time, so it succeeds here too.
            let full = Layout::from_size_align_unchecked(layout.size() + pad, pad);
            System.dealloc(base, full);
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            // Same alignment → same prefix; grow/shrink the full block in
            // place when the system allocator can, keeping the header (the
            // prefix is within the preserved bytes of both sizes).
            let pad = prefix(layout);
            let base = ptr.sub(pad);
            let Some(full_new_size) = new_size.checked_add(pad) else {
                return std::ptr::null_mut();
            };
            let full_old = Layout::from_size_align_unchecked(layout.size() + pad, pad);
            let new_base = System.realloc(base, full_old, full_new_size);
            if new_base.is_null() {
                return new_base;
            }
            let hdr = new_base.add(pad - std::mem::size_of::<usize>()) as *const usize;
            let tag = hdr.read();
            if tag != NOT_COUNTED {
                // Rebill the size delta to the tag the block was credited
                // to (not the current scope), so the eventual dealloc —
                // which debits `new_size` — balances.
                let delta = new_size as i64 - layout.size() as i64;
                let done = TLS
                    .try_with(|tls| match slab(tls) {
                        Some(s) => {
                            s.adjust(tag, delta);
                            true
                        }
                        None => false,
                    })
                    .unwrap_or(false);
                if !done {
                    let now = BASE_LIVE_BYTES[tag].fetch_add(delta, Relaxed) + delta;
                    BASE_HWM_BYTES[tag].fetch_max(now, Relaxed);
                }
            }
            new_base.add(pad)
        }
    }
}

pub use imp::{enabled, scope, set_enabled, snapshot, ScopeGuard, TrackingAlloc};

/// Runs `f` with allocations billed to `tag` (sugar over [`scope`]).
#[inline]
pub fn with<T>(tag: Tag, f: impl FnOnce() -> T) -> T {
    let _guard = scope(tag);
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_names_are_stable_and_distinct() {
        let names: Vec<&str> = ALL_TAGS.iter().map(|t| t.name()).collect();
        assert_eq!(names.len(), TAG_COUNT);
        for (i, n) in names.iter().enumerate() {
            assert!(!n.is_empty());
            assert!(!names[..i].contains(n), "duplicate tag name {n}");
        }
        assert_eq!(Tag::GraphCore.name(), "graph_core");
        assert_eq!(Tag::Untagged.name(), "untagged");
    }

    #[test]
    fn discriminants_match_all_tags_order() {
        for (i, &t) in ALL_TAGS.iter().enumerate() {
            assert_eq!(t as usize, i);
        }
    }

    #[test]
    fn scope_guard_and_with_pass_values_through() {
        // Billing is exercised in tests/balance.rs, which installs the
        // allocator; here the guards run over the system allocator.
        let _g = scope(Tag::GraphCore);
        let v = with(Tag::ValueSlab, || vec![1u8, 2, 3]);
        assert_eq!(v.len(), 3);
        drop(_g);
    }

    #[test]
    fn merge_max_is_pointwise() {
        let mut a = MemSnapshot {
            tags: vec![TagStats {
                tag: "graph_core",
                live_bytes: 10,
                live_allocs: 1,
                hwm_bytes: 20,
                total_allocs: 5,
            }],
        };
        let b = MemSnapshot {
            tags: vec![TagStats {
                tag: "graph_core",
                live_bytes: 7,
                live_allocs: 3,
                hwm_bytes: 15,
                total_allocs: 9,
            }],
        };
        a.merge_max(&b);
        assert_eq!(a.tags[0].live_bytes, 10);
        assert_eq!(a.tags[0].live_allocs, 3);
        assert_eq!(a.tags[0].hwm_bytes, 20);
        assert_eq!(a.tags[0].total_allocs, 9);

        let mut empty = MemSnapshot::default();
        empty.merge_max(&b);
        assert_eq!(empty.tags, b.tags);
    }

    #[test]
    fn snapshot_reports_every_tag() {
        assert_eq!(snapshot().tags.len(), TAG_COUNT);
    }
}
