//! The run-time metrics switch (`metrics::set_enabled`), the one way to
//! turn telemetry recording off. The switch is process-global, so this
//! file is its own test binary holding a single test: no other test can
//! record while the switch is flipped.

use alphonse::metrics::{self, MetricsSnapshot};
use alphonse::{Runtime, Strategy, Var};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `width` vars, one eager memo per var (height 1) and one eager sum over
/// them (height 2): every update wave drains a `width`-wide eager level.
///
/// The first two cell executions after [`Rendezvous::arm`] each wait for
/// the other, so on a pooled level a helper thread is sure to claim one.
fn fan(rt: &Runtime, width: usize, meet: &Rendezvous) -> Vec<Var<i64>> {
    let vars: Vec<Var<i64>> = (0..width).map(|i| rt.var(i as i64)).collect();
    let cells: Vec<alphonse::Memo<(), i64>> = vars
        .iter()
        .map(|v| {
            let (v, meet) = (*v, meet.clone());
            rt.memo_with("cell", Strategy::Eager, move |rt, &(): &()| {
                meet.arrive();
                v.get(rt) * 10
            })
        })
        .collect();
    let total = rt.memo_with("total", Strategy::Eager, move |rt, &(): &()| {
        cells.iter().map(|c| c.call(rt, ())).sum::<i64>()
    });
    total.call(rt, ());
    vars
}

/// A one-shot meeting point for two executions. Starts (and stays) open
/// until armed, so inline waves never wait.
#[derive(Clone)]
struct Rendezvous(Arc<AtomicUsize>);

impl Rendezvous {
    fn new() -> Self {
        Rendezvous(Arc::new(AtomicUsize::new(2)))
    }

    fn arm(&self) {
        self.0.store(0, Ordering::SeqCst);
    }

    fn arrive(&self) {
        if self.0.fetch_add(1, Ordering::SeqCst) >= 2 {
            return;
        }
        let t0 = Instant::now();
        while self.0.load(Ordering::SeqCst) < 2 {
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "no second thread claimed an execution"
            );
            std::thread::yield_now();
        }
    }
}

/// One update wave: every var changes, so the whole fan re-executes.
fn wave(rt: &Runtime, vars: &[Var<i64>], to: i64) {
    for v in vars {
        v.set(rt, to);
    }
    rt.propagate();
}

/// What the switch gates: the wave and level histograms' sample counts and
/// the worker gauges.
fn recorded(s: &MetricsSnapshot) -> (u64, u64, u64, Vec<metrics::WorkerSnapshot>) {
    (
        s.wave_latency_ns.count(),
        s.level_width.count(),
        s.level_latency_ns.count(),
        s.workers.clone(),
    )
}

#[test]
fn disabled_switch_stops_recording_and_enabling_resumes_it() {
    metrics::set_enabled(false);
    for parallelism in [0usize, 2] {
        let rt = Runtime::new();
        rt.set_parallelism(parallelism);
        let meet = Rendezvous::new();
        let vars = fan(&rt, 4, &meet);
        let (stats0, snap0) = (rt.stats(), rt.metrics_snapshot());
        if parallelism >= 2 {
            meet.arm();
        }
        wave(&rt, &vars, 100);
        let (stats1, snap1) = (rt.stats(), rt.metrics_snapshot());
        assert_eq!(
            recorded(&snap1),
            recorded(&snap0),
            "a wave at parallelism {parallelism} recorded while disabled"
        );
        assert!(snap1.workers.is_empty(), "no gauge may have reported");
        assert_eq!(snap1.queue_depth_hwm, 0);
        // The work counters are not telemetry: they still advance.
        assert_eq!(stats1.waves, stats0.waves + 1);
        assert_eq!(stats1.executions, stats0.executions + 5);
        if parallelism >= 2 {
            assert_eq!(stats1.parallel_levels, stats0.parallel_levels + 1);
        }
    }

    metrics::set_enabled(true);
    let rt = Runtime::new();
    rt.set_parallelism(2);
    let meet = Rendezvous::new();
    let vars = fan(&rt, 4, &meet);
    metrics::set_enabled(false);
    meet.arm();
    wave(&rt, &vars, 100);
    let before = rt.metrics_snapshot();
    metrics::set_enabled(true);
    meet.arm();
    wave(&rt, &vars, 200);
    let d = rt.metrics_snapshot().delta_since(&before);
    assert_eq!(d.wave_latency_ns.count(), 1, "the re-enabled wave records");
    assert_eq!(d.level_width.count(), 3, "vars, cells and total levels");
    assert_eq!(d.level_latency_ns.count(), 1, "one pooled level");
    let jobs: u64 = d.workers.iter().map(|w| w.jobs).sum();
    assert_eq!(jobs, 4, "the pooled level's executions are all counted");
    assert!(
        d.workers.iter().any(|w| w.slot == 1 && w.jobs >= 1),
        "the helper's executions are counted: {:?}",
        d.workers
    );
}
