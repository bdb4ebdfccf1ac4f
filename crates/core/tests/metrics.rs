//! The always-on metrics layer: histogram laws (record/merge/percentile
//! monotonicity), snapshot-delta round-trips mirroring the `Stats` delta
//! test, and the runtime wiring — wave latency and executed/wasted work
//! flowing into `Runtime::metrics_snapshot`.

use alphonse::metrics::{bucket_index, bucket_upper_bound, N_BUCKETS};
use alphonse::{Histogram, HistogramSnapshot, Runtime, Strategy, Var};
use proptest::prelude::*;

fn hist_of(samples: &[u64]) -> HistogramSnapshot {
    let h = Histogram::new();
    for &v in samples {
        h.record(v);
    }
    h.snapshot()
}

/// The exact quantile-`q` order statistic of `samples` (the value the
/// histogram's bucketed readout approximates from above).
fn exact_percentile(samples: &mut [u64], q: f64) -> u64 {
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

proptest! {
    #[test]
    fn merge_matches_concatenation(
        a in proptest::collection::vec(0u64..2_000_000, 0..120),
        b in proptest::collection::vec(0u64..2_000_000, 0..120),
    ) {
        let mut merged = hist_of(&a);
        merged.merge(&hist_of(&b));
        let all: Vec<u64> = a.iter().chain(&b).copied().collect();
        prop_assert_eq!(merged, hist_of(&all));
    }

    #[test]
    fn percentiles_are_monotone_in_q(
        samples in proptest::collection::vec(0u64..10_000_000, 1..150),
    ) {
        let s = hist_of(&samples);
        let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0];
        for w in qs.windows(2) {
            prop_assert!(
                s.percentile(w[0]) <= s.percentile(w[1]),
                "percentile not monotone: p{} = {} > p{} = {}",
                w[0], s.percentile(w[0]), w[1], s.percentile(w[1]),
            );
        }
        prop_assert_eq!(s.percentile(1.0), *samples.iter().max().unwrap());
    }

    #[test]
    fn percentile_error_is_within_one_bucket(
        mut samples in proptest::collection::vec(0u64..50_000_000, 1..150),
        qi in 0usize..5,
    ) {
        let q = [0.5, 0.9, 0.95, 0.99, 1.0][qi];
        let reported = hist_of(&samples).percentile(q);
        let truth = exact_percentile(&mut samples, q);
        prop_assert!(reported >= truth, "reported {reported} below exact {truth}");
        prop_assert!(
            reported <= truth + truth / 3 + 1,
            "reported {reported} exceeds the 4/3 bound on exact {truth}"
        );
    }

    #[test]
    fn recording_is_monotone(
        samples in proptest::collection::vec(0u64..1_000_000, 1..100),
    ) {
        // Every record grows count and sum and never shrinks max — snapshot
        // after each sample and compare with its predecessor.
        let h = Histogram::new();
        let mut prev = h.snapshot();
        for &v in &samples {
            h.record(v);
            let cur = h.snapshot();
            prop_assert_eq!(cur.count(), prev.count() + 1);
            prop_assert_eq!(cur.sum, prev.sum + v);
            prop_assert!(cur.max >= prev.max);
            // And the delta from the predecessor is exactly this sample.
            let d = cur.delta_since(&prev);
            prop_assert_eq!(d.count(), 1);
            prop_assert_eq!(d.sum, v);
            prev = cur;
        }
    }

    #[test]
    fn snapshot_delta_round_trips(
        early in proptest::collection::vec(0u64..3_000_000, 0..100),
        late in proptest::collection::vec(0u64..3_000_000, 0..100),
    ) {
        // Mirrors the Stats delta round-trip: record `early`, snapshot,
        // record `late` on top; the delta must equal a histogram that saw
        // only `late` (bucket-wise; `max` is carried from the later
        // snapshot since maxima cannot be subtracted).
        let h = Histogram::new();
        for &v in &early {
            h.record(v);
        }
        let s1 = h.snapshot();
        for &v in &late {
            h.record(v);
        }
        let s2 = h.snapshot();
        let d = s2.delta_since(&s1);
        let late_only = hist_of(&late);
        prop_assert_eq!(d.to_sparse(), late_only.to_sparse());
        prop_assert_eq!(d.sum, late_only.sum);
        prop_assert_eq!(d.count(), late.len() as u64);
        prop_assert_eq!(d.max, s2.max);
        // Delta against the empty snapshot recovers the full histogram.
        prop_assert_eq!(s2.delta_since(&HistogramSnapshot::empty()), s2);
    }

    #[test]
    fn sparse_form_round_trips(
        samples in proptest::collection::vec(0u64..u64::MAX, 0..100),
    ) {
        let s = hist_of(&samples);
        let back = HistogramSnapshot::from_sparse(&s.to_sparse(), s.sum, s.max)
            .expect("own sparse form is valid");
        prop_assert_eq!(back, s);
    }

    #[test]
    fn bucket_index_brackets_every_value(v in 0u64..u64::MAX) {
        let i = bucket_index(v);
        prop_assert!(i < N_BUCKETS);
        prop_assert!(v <= bucket_upper_bound(i));
        if i > 0 {
            prop_assert!(v > bucket_upper_bound(i - 1));
        }
    }
}

/// A diamond with a cutoff arm: one write recomputes `coarse` to the same
/// value (wasted) and `double` to a new one (productive).
fn diamond(rt: &Runtime) -> Var<i64> {
    let a = rt.var_named("a", 10i64);
    let coarse = rt.memo_with("coarse", Strategy::Eager, move |rt, &(): &()| {
        a.get(rt) / 100
    });
    let double = rt.memo_with("double", Strategy::Eager, move |rt, &(): &()| a.get(rt) * 2);
    let (c, d) = (coarse.clone(), double.clone());
    let top = rt.memo_with("top", Strategy::Eager, move |rt, &(): &()| {
        c.call(rt, ()) + d.call(rt, ())
    });
    top.call(rt, ());
    a
}

#[test]
fn wasted_executions_counts_cutoff_stopped_work() {
    let rt = Runtime::new();
    let a = diamond(&rt);
    rt.reset_stats();
    a.set(&rt, 20); // coarse: 0 -> 0 (wasted), double: 20 -> 40 (productive)
    rt.propagate();
    let s = rt.stats();
    assert_eq!(s.wasted_executions, 1, "exactly the cutoff arm is wasted");
    assert!(s.executions > s.wasted_executions);
}

mod wired {
    use super::*;
    use alphonse::MetricsSnapshot;

    #[test]
    fn waves_flow_into_the_snapshot() {
        let rt = Runtime::new();
        let a = diamond(&rt);
        let before = rt.metrics_snapshot();
        a.set(&rt, 20);
        rt.propagate();
        a.set(&rt, 30);
        rt.propagate();
        let after = rt.metrics_snapshot();
        let d = after.delta_since(&before);
        assert_eq!(d.wave_latency_ns.count(), 2, "one sample per wave");
        assert!(d.wave_latency_ns.sum > 0, "waves take nonzero time");
        assert_eq!(d.wave_executed.count(), 2);
        assert!(
            d.wave_executed.max >= 2,
            "each wave re-executed both arms and the top"
        );
        assert_eq!(d.wave_wasted.max, 1, "the cutoff arm per wave");
        // The counters ride along, driven by the same Stats single source.
        let waves = d.counters.iter().find(|(n, _)| *n == "waves").unwrap().1;
        assert_eq!(waves, 2);
    }

    #[test]
    fn snapshot_renders_json() {
        let rt = Runtime::new();
        let a = diamond(&rt);
        a.set(&rt, 20);
        rt.propagate();
        let json = rt.metrics_snapshot().to_json();
        assert!(json.starts_with("{\"schema\":\"alphonse-metrics-v1\""));
        for needle in [
            "\"executions\":",
            "\"lock_acquisitions\":",
            "\"wave_latency_ns\":{\"count\":1,",
            "\"workers\":[]",
        ] {
            assert!(json.contains(needle), "missing `{needle}` in:\n{json}");
        }
    }

    #[test]
    fn merged_sessions_aggregate_their_waves() {
        let snap_of = |writes: i64| {
            let rt = Runtime::new();
            let a = diamond(&rt);
            let before = rt.metrics_snapshot();
            for i in 1..=writes {
                a.set(&rt, 200 * i);
                rt.propagate();
            }
            rt.metrics_snapshot().delta_since(&before)
        };
        let mut merged = snap_of(2);
        merged.merge(&snap_of(3));
        assert_eq!(merged.wave_latency_ns.count(), 5);
    }

    #[test]
    fn runtime_and_pool_snapshots_merge_into_one() {
        let rt = Runtime::new();
        let a = diamond(&rt);
        a.set(&rt, 20);
        rt.propagate();
        let other = Runtime::new();
        let b = diamond(&other);
        b.set(&other, 30);
        other.propagate();
        let mut full = rt.metrics_snapshot();
        full.merge(&other.metrics_snapshot());
        assert!(full.wave_latency_ns.count() > 0);
        assert_eq!(
            full.wave_latency_ns.count(),
            rt.metrics_snapshot().wave_latency_ns.count()
                + other.metrics_snapshot().wave_latency_ns.count()
        );
        let d = MetricsSnapshot::default();
        let round = full.delta_since(&d);
        assert_eq!(round.wave_latency_ns, full.wave_latency_ns);
    }
}
