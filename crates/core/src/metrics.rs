//! Always-on runtime telemetry: lock-free counters, latency histograms and
//! worker gauges.
//!
//! The [`Stats`](crate::Stats) counters answer *how much work* the runtime
//! did; the [`crate::trace`] layer answers *which node and why*, but is
//! forensic and off by default. This module fills the gap a production incremental
//! service needs: cheap, always-on **distributions** — wave-latency
//! percentiles, per-wave executed/wasted work, level widths and worker
//! utilization — recorded on the hot paths *without taking the runtime
//! lock*.
//!
//! # Design
//!
//! * **Histogram** — HDR-style log-bucketed counts: values below 8 get one
//!   bucket each, every power-of-two octave above that is split into 3
//!   sub-buckets, so the relative quantization error is bounded by 1/3
//!   (bucket boundaries grow by a factor of ~1.26). Recording is one
//!   relaxed `fetch_add` per bucket plus sum/max maintenance; no locks, no
//!   allocation, wait-free.
//! * **Snapshots** — [`Histogram::snapshot`] copies the buckets into a
//!   plain [`HistogramSnapshot`] that supports merge, delta, percentile
//!   readout and a sparse wire form (only nonzero buckets).
//! * **Gating** — [`set_enabled`] is a global run-time kill-switch for the
//!   recording sites in `runtime`/`exec_pool` (one relaxed atomic load per
//!   site), so a single binary can measure its own instrumentation cost —
//!   experiment E16 uses exactly this to bound the overhead.
//!
//! # Reading metrics
//!
//! ```
//! use alphonse::Runtime;
//! let rt = Runtime::new();
//! let v = rt.var(1i64);
//! let m = rt.memo("double", move |rt, &(): &()| v.get(rt) * 2);
//! m.call(&rt, ());
//! v.set(&rt, 3);
//! rt.propagate();
//! let snap = rt.metrics_snapshot();
//! assert!(snap.wave_latency_ns.count() > 0);
//! println!("p99 wave latency: {} ns", snap.wave_latency_ns.percentile(0.99));
//! println!("{}", snap.to_json());
//! ```
//!
//! [`Runtime::metrics_snapshot`]: crate::Runtime::metrics_snapshot

use alphonse_mem as memacct;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Sub-buckets per power-of-two octave above the linear range. Boundaries
/// then grow by a factor of `(k+1)/k` per bucket, i.e. at most 4/3 ≈ 1.33
/// and asymptotically 2^(1/3) ≈ 1.26 — the "power-of-~1.25" resolution.
const SUBS_PER_OCTAVE: u64 = 3;

/// Values below this get exact one-per-value buckets.
const LINEAR_MAX: u64 = 8;

/// Total bucket count: 8 linear buckets for `0..8`, then 3 sub-buckets for
/// each octave `2^e ..= 2^(e+1)-1`, `e` in `3..=62` (values with the top
/// bit set clamp into the last bucket).
pub const N_BUCKETS: usize = LINEAR_MAX as usize + (62 - 3 + 1) * SUBS_PER_OCTAVE as usize;

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Globally enables or disables metric recording (default: enabled).
///
/// This is the runtime kill-switch: with recording disabled every
/// instrumentation site reduces to one relaxed atomic load (and skips its
/// clock reads), which is what lets one binary measure its own overhead.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether metric recording is currently enabled (see [`set_enabled`]).
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The bucket index a value lands in.
#[must_use]
pub fn bucket_index(v: u64) -> usize {
    if v < LINEAR_MAX {
        return v as usize;
    }
    let e = 63 - v.leading_zeros() as usize; // 3..=63
    if e >= 63 {
        return N_BUCKETS - 1;
    }
    // Which third of the octave `2^e..2^(e+1)` the value falls in:
    // floor(3v / 2^e) is in 3..=5 for v in that range. Widened to u128 so
    // the multiply stays exact near u64::MAX.
    let sub = ((SUBS_PER_OCTAVE as u128 * v as u128) >> e) as usize - SUBS_PER_OCTAVE as usize;
    LINEAR_MAX as usize + (e - 3) * SUBS_PER_OCTAVE as usize + sub
}

/// The largest value that lands in bucket `i` (inclusive upper bound).
///
/// # Panics
///
/// Panics if `i >= N_BUCKETS`.
#[must_use]
pub fn bucket_upper_bound(i: usize) -> u64 {
    assert!(i < N_BUCKETS, "bucket index out of range");
    if i < LINEAR_MAX as usize {
        return i as u64;
    }
    let e = 3 + (i - LINEAR_MAX as usize) / SUBS_PER_OCTAVE as usize;
    let sub = ((i - LINEAR_MAX as usize) % SUBS_PER_OCTAVE as usize) as u128;
    if i == N_BUCKETS - 1 {
        return u64::MAX;
    }
    // Exclusive boundary is ceil(2^e * (sub+4)/3); the inclusive bound is
    // one less. u128 keeps 2^62 * 6 exact.
    let excl =
        ((1u128 << e) * (sub + SUBS_PER_OCTAVE as u128 + 1)).div_ceil(SUBS_PER_OCTAVE as u128);
    (excl - 1) as u64
}

/// A lock-free log-bucketed histogram of `u64` samples (latencies in
/// nanoseconds, batch widths, …). See the [module docs](self) for the
/// bucket scheme. All operations are wait-free; concurrent recorders never
/// block each other.
pub struct Histogram {
    buckets: [AtomicU64; N_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub const fn new() -> Histogram {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; N_BUCKETS],
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample. A no-op while recording is disabled
    /// ([`set_enabled`]).
    pub fn record(&self, v: u64) {
        if !enabled() {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Copies the current counts into a plain snapshot. Concurrent
    /// recording may tear across buckets (each bucket is individually
    /// consistent); quiescent reads are exact.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = [0u64; N_BUCKETS];
        for (c, b) in counts.iter_mut().zip(&self.buckets) {
            *c = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            counts,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &s.count())
            .field("sum", &s.sum)
            .field("max", &s.max)
            .finish()
    }
}

/// A point-in-time copy of a [`Histogram`]: mergeable, subtractable, with
/// percentile readout and a sparse wire form.
#[derive(Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: [u64; N_BUCKETS],
    /// Sum of all recorded samples.
    pub sum: u64,
    /// Largest sample ever recorded (not subtracted by [`delta_since`];
    /// a maximum has no meaningful difference).
    ///
    /// [`delta_since`]: HistogramSnapshot::delta_since
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot::empty()
    }
}

impl std::fmt::Debug for HistogramSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistogramSnapshot")
            .field("count", &self.count())
            .field("sum", &self.sum)
            .field("max", &self.max)
            .field("p50", &self.percentile(0.50))
            .field("p99", &self.percentile(0.99))
            .finish()
    }
}

impl HistogramSnapshot {
    /// A snapshot with no samples.
    #[must_use]
    pub const fn empty() -> HistogramSnapshot {
        HistogramSnapshot {
            counts: [0; N_BUCKETS],
            sum: 0,
            max: 0,
        }
    }

    /// Total number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Arithmetic mean of the recorded samples (`0.0` when empty). Exact —
    /// computed from the true sum, not from bucket midpoints.
    #[must_use]
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// The value at quantile `q` (`0.0..=1.0`): an upper bound within one
    /// bucket (relative error ≤ 1/3), clamped by the exact maximum so
    /// `percentile(1.0) == max`. Returns `0` when empty.
    #[must_use]
    pub fn percentile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Adds `other`'s samples into `self` (bucket-wise; `max` takes the
    /// larger). Merging session or run snapshots yields the same percentiles
    /// as one histogram that saw every sample.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Returns the samples recorded between `earlier` and `self`
    /// (bucket-wise difference). `max` is carried from `self` — a maximum
    /// cannot be subtracted.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any bucket of `earlier` exceeds the
    /// corresponding bucket of `self` (snapshots out of order).
    #[must_use]
    pub fn delta_since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::empty();
        for (i, (o, (&a, &b))) in out
            .counts
            .iter_mut()
            .zip(self.counts.iter().zip(&earlier.counts))
            .enumerate()
        {
            debug_assert!(a >= b, "histogram went backwards in bucket {i}");
            *o = a.saturating_sub(b);
        }
        debug_assert!(self.sum >= earlier.sum, "histogram sum went backwards");
        out.sum = self.sum.saturating_sub(earlier.sum);
        out.max = self.max;
        out
    }

    /// The nonzero buckets as `(bucket_index, count)` pairs — the wire form
    /// used by the JSON dump (most of the 188 buckets are empty in
    /// practice).
    #[must_use]
    pub fn to_sparse(&self) -> Vec<(usize, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c != 0)
            .map(|(i, &c)| (i, c))
            .collect()
    }

    /// Rebuilds a snapshot from its sparse wire form. Returns `None` if any
    /// bucket index is out of range (a malformed or future-format file).
    #[must_use]
    pub fn from_sparse(buckets: &[(usize, u64)], sum: u64, max: u64) -> Option<HistogramSnapshot> {
        let mut out = HistogramSnapshot::empty();
        for &(i, c) in buckets {
            *out.counts.get_mut(i)? += c;
        }
        out.sum = sum;
        out.max = max;
        Some(out)
    }
}

/// Maximum executor-pool worker slots tracked per runtime. Gauges for
/// workers beyond this fold into the last slot (parallelism this wide is
/// far past the level widths the scheduler produces).
pub const MAX_WORKER_SLOTS: usize = 64;

#[derive(Debug)]
pub(crate) struct WorkerGauges {
    pub(crate) busy_ns: AtomicU64,
    pub(crate) idle_ns: AtomicU64,
    pub(crate) jobs: AtomicU64,
}

impl WorkerGauges {
    const fn new() -> WorkerGauges {
        WorkerGauges {
            busy_ns: AtomicU64::new(0),
            idle_ns: AtomicU64::new(0),
            jobs: AtomicU64::new(0),
        }
    }
}

/// The live metric registry owned by one [`Runtime`](crate::Runtime):
/// wave/level histograms plus executor-pool worker gauges. All fields are
/// atomics — recording never takes the runtime lock.
#[derive(Debug)]
pub struct RuntimeMetrics {
    pub(crate) wave_latency_ns: Histogram,
    pub(crate) wave_executed: Histogram,
    pub(crate) wave_wasted: Histogram,
    pub(crate) level_width: Histogram,
    pub(crate) level_latency_ns: Histogram,
    pub(crate) workers: [WorkerGauges; MAX_WORKER_SLOTS],
    /// One past the highest slot that has ever reported (gauge readout
    /// stops here).
    pub(crate) workers_hwm: AtomicU64,
}

impl RuntimeMetrics {
    pub(crate) const fn new() -> RuntimeMetrics {
        RuntimeMetrics {
            wave_latency_ns: Histogram::new(),
            wave_executed: Histogram::new(),
            wave_wasted: Histogram::new(),
            level_width: Histogram::new(),
            level_latency_ns: Histogram::new(),
            workers: [const { WorkerGauges::new() }; MAX_WORKER_SLOTS],
            workers_hwm: AtomicU64::new(0),
        }
    }

    /// One finished propagation wave: end-to-end latency plus how much of
    /// the work was productive.
    pub(crate) fn record_wave(&self, latency_ns: u64, executed: u64, wasted: u64) {
        self.wave_latency_ns.record(latency_ns);
        self.wave_executed.record(executed);
        self.wave_wasted.record(wasted);
    }

    /// Folds a worker slot index into the tracked range.
    pub(crate) fn slot(idx: usize) -> usize {
        idx.min(MAX_WORKER_SLOTS - 1)
    }

    /// Adds to the gauges of executing thread `slot` of pooled levels
    /// (slot 0 is the driver, 1.. the pool's workers): `jobs` executions
    /// run in `busy_ns`, and `idle_ns` spent waiting (a worker for its
    /// ticket, the driver at the level barrier).
    pub(crate) fn record_worker(&self, slot: usize, busy_ns: u64, idle_ns: u64, jobs: u64) {
        let w = &self.workers[Self::slot(slot)];
        w.busy_ns.fetch_add(busy_ns, Ordering::Relaxed);
        w.idle_ns.fetch_add(idle_ns, Ordering::Relaxed);
        w.jobs.fetch_add(jobs, Ordering::Relaxed);
        self.workers_hwm
            .fetch_max(Self::slot(slot) as u64 + 1, Ordering::Relaxed);
    }

    /// Snapshot of the per-worker gauges, one entry per slot that has run
    /// at least one job.
    pub(crate) fn worker_snapshots(&self) -> Vec<WorkerSnapshot> {
        let hwm = self.workers_hwm.load(Ordering::Relaxed) as usize;
        self.workers[..hwm.min(MAX_WORKER_SLOTS)]
            .iter()
            .enumerate()
            .map(|(slot, w)| WorkerSnapshot {
                slot,
                busy_ns: w.busy_ns.load(Ordering::Relaxed),
                idle_ns: w.idle_ns.load(Ordering::Relaxed),
                jobs: w.jobs.load(Ordering::Relaxed),
            })
            .collect()
    }
}

impl Default for RuntimeMetrics {
    fn default() -> Self {
        RuntimeMetrics::new()
    }
}

/// Gauges for one thread that executes pooled levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerSnapshot {
    /// Executing-thread slot: 0 is the propagation driver, `1..n` the
    /// pool's workers at [`set_parallelism(n)`](crate::Runtime::set_parallelism).
    pub slot: usize,
    /// Nanoseconds spent claiming and running executions.
    pub busy_ns: u64,
    /// Nanoseconds spent waiting: a worker for its next ticket, the driver
    /// at the level barrier.
    pub idle_ns: u64,
    /// Executions run on this thread.
    pub jobs: u64,
}

impl WorkerSnapshot {
    /// Fraction of observed time this worker spent running jobs
    /// (`0.0..=1.0`; `0.0` before the first job).
    #[must_use]
    pub fn utilization(&self) -> f64 {
        let total = self.busy_ns + self.idle_ns;
        if total == 0 {
            0.0
        } else {
            self.busy_ns as f64 / total as f64
        }
    }
}

/// A complete point-in-time metrics snapshot: the [`Stats`](crate::Stats)
/// counters plus every histogram and gauge. Produced by
/// [`Runtime::metrics_snapshot`](crate::Runtime::metrics_snapshot); render
/// with [`to_json`](MetricsSnapshot::to_json).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Every [`Stats`](crate::Stats) counter as `(name, value)`, in
    /// declaration order (the `for_each_counter!` single source).
    pub counters: Vec<(&'static str, u64)>,
    /// End-to-end propagation-wave latency, nanoseconds.
    pub wave_latency_ns: HistogramSnapshot,
    /// Executor runs per wave.
    pub wave_executed: HistogramSnapshot,
    /// Cutoff-stopped (value-unchanged) executor runs per wave.
    pub wave_wasted: HistogramSnapshot,
    /// Dirty-batch width per height level, recorded at
    /// `set_parallelism(n >= 2)` only (`Stats::level_width_hwm` covers
    /// every drain).
    pub level_width: HistogramSnapshot,
    /// Per-level drain latency, nanoseconds (pooled levels only).
    pub level_latency_ns: HistogramSnapshot,
    /// Per-thread gauges of pooled levels, one per slot up to the highest
    /// that has reported (slot 0 is the driver).
    pub workers: Vec<WorkerSnapshot>,
    /// Subsystem-tagged allocator gauges: per-[`Tag`](alphonse_mem::Tag)
    /// live/HWM bytes and allocation counts, captured from the
    /// process-global counting allocator. Empty unless the binary installs
    /// [`mem::TrackingAlloc`](alphonse_mem::TrackingAlloc) as its
    /// `#[global_allocator]`. Note these gauges are **process-wide**, not
    /// per-runtime: in a multi-runtime process every snapshot sees the same
    /// totals.
    pub mem: memacct::MemSnapshot,
}

/// Appends one quoted, escaped JSON string.
fn json_str(out: &mut String, s: &str) {
    out.push('"');
    out.push_str(&crate::trace::json_escape(s));
    out.push('"');
}

fn json_hist(out: &mut String, h: &HistogramSnapshot) {
    use std::fmt::Write;
    let _ = write!(
        out,
        "{{\"count\":{},\"sum\":{},\"max\":{},\"buckets\":[",
        h.count(),
        h.sum,
        h.max
    );
    for (k, (i, c)) in h.to_sparse().into_iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{i},{c}]");
    }
    out.push_str("]}");
}

impl MetricsSnapshot {
    /// Merges `other` into `self`: counters and histograms add, worker
    /// entries merge by slot, memory gauges take the maximum. Used to aggregate
    /// snapshots across independent runtimes or bench repetitions.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, v) in &other.counters {
            match self.counters.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => *mine += v,
                None => self.counters.push((name, *v)),
            }
        }
        self.wave_latency_ns.merge(&other.wave_latency_ns);
        self.wave_executed.merge(&other.wave_executed);
        self.wave_wasted.merge(&other.wave_wasted);
        self.level_width.merge(&other.level_width);
        self.level_latency_ns.merge(&other.level_latency_ns);
        for w in &other.workers {
            match self.workers.iter_mut().find(|m| m.slot == w.slot) {
                Some(mine) => {
                    mine.busy_ns += w.busy_ns;
                    mine.idle_ns += w.idle_ns;
                    mine.jobs += w.jobs;
                }
                None => self.workers.push(*w),
            }
        }
        self.workers.sort_by_key(|w| w.slot);
        // Mem gauges are process-global: two snapshots of the same process
        // must take the pointwise max, never sum (that would double-count).
        self.mem.merge_max(&other.mem);
    }

    /// Everything recorded between `earlier` and `self`. Counters and
    /// histograms subtract; point-in-time gauges (worker totals, memory)
    /// are carried from `self`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is not actually earlier.
    #[must_use]
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .map(|&(name, v)| {
                let before = earlier
                    .counters
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0, |&(_, b)| b);
                debug_assert!(v >= before, "counter `{name}` went backwards");
                (name, v.saturating_sub(before))
            })
            .collect();
        MetricsSnapshot {
            counters,
            wave_latency_ns: self.wave_latency_ns.delta_since(&earlier.wave_latency_ns),
            wave_executed: self.wave_executed.delta_since(&earlier.wave_executed),
            wave_wasted: self.wave_wasted.delta_since(&earlier.wave_wasted),
            level_width: self.level_width.delta_since(&earlier.level_width),
            level_latency_ns: self.level_latency_ns.delta_since(&earlier.level_latency_ns),
            workers: self.workers.clone(),
            // Point-in-time gauges: carried, not subtracted.
            mem: self.mem.clone(),
        }
    }

    /// Renders the snapshot as one JSON document (the format
    /// `alphonse-trace metrics` reads): counters as an object, histograms
    /// in sparse `[[bucket, count], …]` form.
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let _mem = memacct::scope(memacct::Tag::Metrics);
        let mut out = String::from("{\"schema\":\"alphonse-metrics-v1\",\"counters\":{");
        for (k, (name, v)) in self.counters.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            json_str(&mut out, name);
            let _ = write!(out, ":{v}");
        }
        out.push_str("},\"histograms\":{");
        let hists: [(&str, &HistogramSnapshot); 5] = [
            ("wave_latency_ns", &self.wave_latency_ns),
            ("wave_executed", &self.wave_executed),
            ("wave_wasted", &self.wave_wasted),
            ("level_width", &self.level_width),
            ("level_latency_ns", &self.level_latency_ns),
        ];
        for (k, (name, h)) in hists.into_iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            json_str(&mut out, name);
            out.push(':');
            json_hist(&mut out, h);
        }
        out.push_str("},\"workers\":[");
        for (k, w) in self.workers.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"slot\":{},\"busy_ns\":{},\"idle_ns\":{},\"jobs\":{}}}",
                w.slot, w.busy_ns, w.idle_ns, w.jobs
            );
        }
        out.push(']');
        if !self.mem.is_empty() {
            out.push_str(",\"mem\":{");
            for (k, t) in self.mem.tags.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                json_str(&mut out, t.tag);
                let _ = write!(
                    out,
                    ":{{\"live_bytes\":{},\"live_allocs\":{},\"hwm_bytes\":{},\"total_allocs\":{}}}",
                    t.live_bytes, t.live_allocs, t.hwm_bytes, t.total_allocs
                );
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that record samples against the one that flips the
    /// global [`set_enabled`] switch (unit tests share one process).
    static GLOBAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        GLOBAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn linear_buckets_are_exact() {
        for v in 0..8u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_upper_bound(v as usize), v);
        }
    }

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        let mut last = 0usize;
        let mut v = 0u64;
        while v < 1 << 40 {
            let i = bucket_index(v);
            assert!(i < N_BUCKETS, "index out of range for {v}");
            assert!(i >= last, "bucket index not monotone at {v}");
            last = i;
            v = v * 2 + 1;
        }
        assert_eq!(bucket_index(u64::MAX), N_BUCKETS - 1);
    }

    #[test]
    fn every_value_is_at_most_its_buckets_upper_bound() {
        let probes: Vec<u64> = (0..64)
            .flat_map(|e| {
                let b = 1u64 << e.min(63);
                [b.saturating_sub(1), b, b.saturating_add(1), b / 3 * 2]
            })
            .collect();
        for v in probes {
            let i = bucket_index(v);
            assert!(
                v <= bucket_upper_bound(i),
                "{v} exceeds upper bound {} of its bucket {i}",
                bucket_upper_bound(i)
            );
            if i > 0 {
                assert!(
                    v > bucket_upper_bound(i - 1),
                    "{v} not above previous bucket's bound"
                );
            }
        }
    }

    #[test]
    fn upper_bounds_have_bounded_relative_error() {
        // The bound is < 4/3 of the bucket's smallest member, so a reported
        // percentile overstates the true value by at most ~33%.
        for i in 8..N_BUCKETS - 1 {
            let hi = bucket_upper_bound(i) as f64;
            let lo = bucket_upper_bound(i - 1) as f64 + 1.0;
            assert!(hi / lo < 4.0 / 3.0 + 1e-9, "bucket {i}: {lo}..={hi}");
        }
    }

    #[test]
    fn record_and_percentiles() {
        let _g = serial();
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 1000);
        assert_eq!(s.sum, 500_500);
        assert_eq!(s.max, 1000);
        let p50 = s.percentile(0.50);
        assert!((450..=667).contains(&p50), "p50 = {p50}");
        assert_eq!(s.percentile(1.0), 1000, "p100 is the exact max");
        assert!(s.percentile(0.99) >= p50);
        assert!((s.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn single_sample_percentiles_are_exact() {
        let _g = serial();
        let h = Histogram::new();
        h.record(12_345);
        let s = h.snapshot();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(s.percentile(q), 12_345);
        }
    }

    #[test]
    fn merge_equals_one_big_histogram() {
        let _g = serial();
        let (a, b, all) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in 0..500u64 {
            let x = v * v % 9973;
            if v % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
            all.record(x);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, all.snapshot());
    }

    #[test]
    fn sparse_round_trip() {
        let _g = serial();
        let h = Histogram::new();
        for v in [0, 1, 7, 8, 100, 1_000_000, u64::MAX] {
            h.record(v);
        }
        let s = h.snapshot();
        let back = HistogramSnapshot::from_sparse(&s.to_sparse(), s.sum, s.max).unwrap();
        assert_eq!(back, s);
        assert!(HistogramSnapshot::from_sparse(&[(N_BUCKETS, 1)], 0, 0).is_none());
    }

    #[test]
    fn disabled_recording_is_a_no_op() {
        let _g = serial();
        let h = Histogram::new();
        set_enabled(false);
        h.record(42);
        set_enabled(true);
        h.record(43);
        let s = h.snapshot();
        assert_eq!(s.count(), 1);
        assert_eq!(s.max, 43);
    }

    #[test]
    fn snapshot_renders_json() {
        let _g = serial();
        let h = Histogram::new();
        h.record(10);
        h.record(2000);
        let snap = MetricsSnapshot {
            counters: vec![("executions", 5), ("waves", 2)],
            wave_latency_ns: h.snapshot(),
            workers: vec![WorkerSnapshot {
                slot: 0,
                busy_ns: 100,
                idle_ns: 50,
                jobs: 3,
            }],
            ..MetricsSnapshot::default()
        };
        let json = snap.to_json();
        assert!(json.starts_with("{\"schema\":\"alphonse-metrics-v1\""));
        assert!(json.contains("\"executions\":5"));
        assert!(json.contains("\"wave_latency_ns\":{\"count\":2"));
        assert!(json.contains("\"workers\":[{\"slot\":0,\"busy_ns\":100,"));
    }

    #[test]
    fn snapshot_merge_and_delta() {
        let _g = serial();
        let mk = |n: u64| {
            let h = Histogram::new();
            for v in 0..n {
                h.record(v * 100);
            }
            MetricsSnapshot {
                counters: vec![("executions", n)],
                wave_latency_ns: h.snapshot(),
                ..MetricsSnapshot::default()
            }
        };
        let mut merged = mk(3);
        merged.merge(&mk(5));
        assert_eq!(merged.counters, vec![("executions", 8)]);
        assert_eq!(merged.wave_latency_ns.count(), 8);
        let d = mk(5).delta_since(&mk(3));
        assert_eq!(d.counters, vec![("executions", 2)]);
        assert_eq!(d.wave_latency_ns.count(), 2);
    }

    #[test]
    fn worker_utilization() {
        let w = WorkerSnapshot {
            slot: 0,
            busy_ns: 75,
            idle_ns: 25,
            jobs: 1,
        };
        assert!((w.utilization() - 0.75).abs() < 1e-12);
        assert_eq!(WorkerSnapshot::default().utilization(), 0.0);
    }
}
