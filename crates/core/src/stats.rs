//! Machine-independent work counters.
//!
//! The paper's evaluation (Section 9) is asymptotic, not empirical, so the
//! reproduction measures *work* — executions avoided, edges maintained,
//! propagation steps — in addition to wall-clock time. Every counter is a
//! simple monotone tally maintained by the runtime.
//!
//! Counters answer *how much*; for *which node* and *why* — per-event
//! observability, timelines, flame traces and hot-node profiles — see the
//! [`crate::trace`] module, which streams the individual operations these
//! tallies aggregate.

/// Applies a macro to the complete list of [`Stats`] counter fields.
///
/// This is the single source of truth for the field list: `delta_since`
/// builds an exhaustive struct literal from it (so a newly added counter
/// that is missing here fails to compile rather than silently skipping
/// delta math), and [`Stats::fields`] renders from it.
macro_rules! for_each_counter {
    ($m:ident) => {
        $m!(
            executions,
            wasted_executions,
            cache_hits,
            calls,
            reads,
            writes,
            changes,
            edges_created,
            edges_removed,
            dirtied,
            height_seeded,
            height_raises,
            waves,
            propagation_steps,
            comparisons,
            nodes_created,
            untracked_reads,
            dedup_hits,
            memo_probes,
            batches,
            batched_writes,
            coalesced_writes,
            scratch_hwm,
            parallel_levels,
            parallel_executions,
            level_width_hwm,
            lock_acquisitions,
            shared_acquisitions
        )
    };
}

/// Whether the counter `name` is a high-water mark (its name ends in
/// `_hwm`) rather than a tally: a delta carries its later value instead of
/// subtracting, and a merge takes the maximum instead of summing.
pub(crate) fn is_high_water_mark(name: &str) -> bool {
    name.ends_with("_hwm")
}

/// A snapshot of runtime work counters.
///
/// Obtain one with [`Runtime::stats`](crate::Runtime::stats). Counters
/// live as long as their runtime; subtracting two snapshots (via
/// [`Stats::delta_since`]) isolates the work done by one phase of a
/// program. [`Stats::fields`] lists every counter by name.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct Stats {
    /// Incremental procedure bodies actually run (paper: executions not
    /// avoided by caching).
    pub executions: u64,
    /// Executions whose recomputed value compared equal to the cached one —
    /// work that cutoff then stopped from propagating. The per-wave share
    /// of these feeds the `wave_wasted` histogram in [`crate::metrics`];
    /// the trace layer's `waste` report classifies the same runs per node.
    pub wasted_executions: u64,
    /// Calls answered from the cache without running the body.
    pub cache_hits: u64,
    /// Total calls to incremental procedures (hits + executions + stale
    /// self-reads).
    pub calls: u64,
    /// Tracked reads of storage locations.
    pub reads: u64,
    /// Tracked writes to storage locations.
    pub writes: u64,
    /// Writes whose new value differed from the stored one (the changes that
    /// seed quiescence propagation).
    pub changes: u64,
    /// Dependency edges added to the graph: an execution's reconcile adds
    /// one per node it accessed that its previous execution did not.
    pub edges_created: u64,
    /// Dependency edges removed from the graph: an execution's reconcile
    /// removes one per node its previous execution accessed and it did
    /// not (the part of `RemovePredEdges` that changes the graph).
    pub edges_removed: u64,
    /// Nodes inserted into an inconsistent set.
    pub dirtied: u64,
    /// Fresh computation nodes whose height was lifted by a static-strata
    /// seed before any edge arrived (see `Memo::set_height_hint`).
    pub height_seeded: u64,
    /// Node-height increases performed by the online raise step of edge
    /// insertion. Static height seeding exists to shrink this number; E2
    /// compares it with seeding on and off.
    pub height_raises: u64,
    /// Propagation waves: non-nested entries into the Section 4.5
    /// evaluation routine. The count is the id of the latest wave, as
    /// stamped on its trace events.
    pub waves: u64,
    /// Nodes processed by the evaluator.
    pub propagation_steps: u64,
    /// Value-equality comparisons performed for cutoff decisions.
    pub comparisons: u64,
    /// Dependency-graph nodes created.
    pub nodes_created: u64,
    /// Reads performed inside `untracked` regions (Section 6.4 UNCHECKED).
    pub untracked_reads: u64,
    /// Repeated accesses within one execution dropped from its dependence
    /// log: at the access (a repeat of the log's last entry), at a
    /// compaction or at the reconcile.
    pub dedup_hits: u64,
    /// Memo argument-table lookups (hash probes on the call path).
    pub memo_probes: u64,
    /// Write transactions committed (`Runtime::batch` calls).
    pub batches: u64,
    /// Writes submitted through a transaction handle (before coalescing).
    pub batched_writes: u64,
    /// Batched writes absorbed by last-write-wins coalescing: repeated
    /// writes to the same location within one transaction, all but the
    /// final of which never reach storage.
    pub coalesced_writes: u64,
    /// High-water mark (in nodes of capacity) of the runtime's reusable
    /// successor scratch buffer. Once propagation reaches steady state this
    /// stops growing: fan-out performs zero heap allocations.
    pub scratch_hwm: u64,
    /// Height levels drained with worker-pool helpers claiming executions
    /// beside the driver ([`Runtime::set_parallelism`] of 2 or more).
    /// Levels of one execution run on the driver alone and are not counted.
    ///
    /// [`Runtime::set_parallelism`]: crate::Runtime::set_parallelism
    pub parallel_levels: u64,
    /// Executor runs in those levels, whichever thread claimed them (the
    /// per-node share of `parallel_levels`; always `<= executions`).
    pub parallel_executions: u64,
    /// Widest dirty batch drained at a single height level — the available
    /// parallelism high-water mark. Maintained by every drain, at any
    /// parallelism.
    pub level_width_hwm: u64,
    /// Exclusive acquisitions of the runtime's internal lock, from any
    /// thread — the round-trips that frame pushes, reads, writes, commits
    /// and every operation outside a pooled level cost, and the pauses of
    /// a pooled level. Tallied under the acquired guard, so the count is
    /// exact; a [`Runtime::stats`](crate::Runtime::stats) call counts its
    /// own.
    pub lock_acquisitions: u64,
    /// Views of a pooled level's runtime state taken by its claimants:
    /// one per claimant that claimed an execution of the level, plus one
    /// each time a claimant takes a fresh view after a pause. The reads,
    /// cache hits, frame pushes and pops in between take no lock. Zero at
    /// parallelism 0 or 1.
    pub shared_acquisitions: u64,
}

impl Stats {
    /// Returns the per-field difference `self - earlier`. The high-water
    /// marks (`scratch_hwm`, `level_width_hwm`) are not differences: they
    /// carry `self`'s value.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any counter of `earlier` exceeds the
    /// corresponding counter of `self` (snapshots out of order).
    #[must_use]
    pub fn delta_since(&self, earlier: &Stats) -> Stats {
        // Exhaustive struct literal: a counter missing from
        // `for_each_counter!` is a compile error here, not a silent zero.
        macro_rules! sub {
            ($($f:ident),* $(,)?) => {
                Stats { $($f: {
                    debug_assert!(self.$f >= earlier.$f, concat!("stats went backwards: ", stringify!($f)));
                    if is_high_water_mark(stringify!($f)) {
                        self.$f
                    } else {
                        self.$f - earlier.$f
                    }
                }),* }
            };
        }
        for_each_counter!(sub)
    }

    /// Adds `other`'s tallies into `self`; a high-water mark takes the
    /// larger value. [`Runtime::stats`](crate::Runtime::stats) sums the
    /// runtime's own tally and those of its thread slots this way.
    pub(crate) fn merge(&mut self, other: &Stats) {
        macro_rules! add {
            ($($f:ident),* $(,)?) => {{
                $(if is_high_water_mark(stringify!($f)) {
                    self.$f = self.$f.max(other.$f);
                } else {
                    self.$f += other.$f;
                })*
            }};
        }
        for_each_counter!(add)
    }

    /// Every counter as a `(name, value)` pair, in declaration order.
    #[must_use]
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        macro_rules! list {
            ($($f:ident),* $(,)?) => { vec![$((stringify!($f), self.$f)),*] };
        }
        for_each_counter!(list)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Writes `value(i)` into the i-th counter, in declaration order.
    fn set_all(s: &mut Stats, value: impl Fn(u64) -> u64) {
        macro_rules! assign {
            ($($f:ident),* $(,)?) => {{
                let mut i = 0u64;
                $(s.$f = value(i); i += 1;)*
                let _ = i;
            }};
        }
        for_each_counter!(assign)
    }

    #[test]
    fn default_is_zero() {
        let s = Stats::default();
        assert_eq!(s.executions, 0);
        assert!(s.fields().iter().all(|&(_, v)| v == 0));
    }

    #[test]
    fn delta_subtracts_fieldwise() {
        let early = Stats {
            executions: 2,
            cache_hits: 1,
            ..Stats::default()
        };
        let late = Stats {
            executions: 5,
            cache_hits: 4,
            edges_created: 7,
            ..Stats::default()
        };
        let d = late.delta_since(&early);
        assert_eq!(d.executions, 3);
        assert_eq!(d.cache_hits, 3);
        assert_eq!(d.edges_created, 7);
    }

    #[test]
    fn delta_round_trips_every_counter() {
        // Every counter gets a distinct nonzero value on both sides; the
        // delta must differ per field too. Because `set_all`, `fields` and
        // `delta_since` are all generated from `for_each_counter!`, a new
        // counter is covered here automatically — and a counter missing
        // from the macro list breaks `delta_since`'s struct literal at
        // compile time. A high-water mark carries the later value.
        let mut early = Stats::default();
        let mut late = Stats::default();
        set_all(&mut early, |i| i + 1);
        set_all(&mut late, |i| (i + 1) * 10);
        let d = late.delta_since(&early);
        for (i, (name, v)) in d.fields().into_iter().enumerate() {
            let i = i as u64;
            let want = if is_high_water_mark(name) {
                (i + 1) * 10
            } else {
                (i + 1) * 9
            };
            assert_eq!(v, want, "delta miscomputed for counter `{name}`");
        }
        // And the delta against zero recovers `late` exactly.
        assert_eq!(late.delta_since(&Stats::default()), late);
    }

    #[test]
    fn high_water_marks_are_the_hwm_counters() {
        let marks: Vec<&str> = Stats::default()
            .fields()
            .into_iter()
            .map(|(name, _)| name)
            .filter(|name| is_high_water_mark(name))
            .collect();
        assert_eq!(marks, ["scratch_hwm", "level_width_hwm"]);
    }

    #[test]
    #[should_panic(expected = "stats went backwards")]
    #[cfg(debug_assertions)]
    fn delta_backwards_panics_in_debug() {
        let early = Stats {
            executions: 5,
            ..Stats::default()
        };
        let late = Stats::default();
        let _ = late.delta_since(&early);
    }
}
