//! The closed loop shared by every workload: set up several times from
//! scratch, warm up, then issue one update at a time for the measured
//! window, each followed by its verified answer.

use crate::metrics::{PROPAGATE_SPANS, READ_SPANS, WRITE_SPANS};
use crate::spans::{Total, Tracer};
use alphonse::mem::{self, MemSnapshot};
use alphonse::{Runtime, Stats};
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Fresh builds before the measured window. More are spread over the
/// window, one at the opening of every few slices, so that the setup median
/// spans the host's drift over the whole run rather than one moment of it.
const SETUPS_BEFORE: usize = 5;
/// At most this many setups in the window, taking at most about this share
/// of it.
const WINDOW_SETUPS: (usize, f64) = (15, 0.2);
/// The measured window is cut into this many slices. Latency statistics
/// are medians over slices, so a burst of host noise moves one slice only.
const SLICES: usize = 30;
/// Conventional runs opening each slice; the slice keeps their median.
const CONV_PER_SLICE: usize = 5;
/// Verified but untimed updates between setup and the measured window.
const WARMUP_UPDATES: u64 = 64;
/// The traced run alternates traced and untraced chunks of this many
/// updates, so both see the same drift.
const TRACE_CHUNK: u64 = 32;
/// Updates between whole-structure checks (run outside the timed region).
const DEEP_CHECK_EVERY: u64 = 256;

pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Run exactly this many timed updates instead of `seconds`.
    pub updates: Option<u64>,
    /// Small inputs, one setup, for the benchmark's own tests.
    pub small: bool,
    /// Corrupt every 16th answer before its check (oracle self-test).
    pub inject_wrong_answer: bool,
    pub spans_out: PathBuf,
}

/// Counts answers against the oracle.
pub struct Checker {
    inject: bool,
    pub attempted: u64,
    pub failed: u64,
}

impl Checker {
    fn new(inject: bool) -> Checker {
        Checker {
            inject,
            attempted: 0,
            failed: 0,
        }
    }

    /// Compares one answer with the oracle's.
    pub fn check(&mut self, got: i64, want: i64) {
        self.attempted += 1;
        let got = if self.inject && self.attempted % 16 == 1 {
            got.wrapping_add(1)
        } else {
            got
        };
        if got != want {
            self.failed += 1;
        }
    }

    /// Counts an answer that never arrived: the call returned an error.
    pub fn fail(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }
}

/// Wall times of the three setup phases, in seconds.
#[derive(Clone, Copy, Default)]
pub struct Setup {
    /// Runtime creation, plus compilation for `lang_height`.
    pub construct: f64,
    /// Substrate construction and the bulk build.
    pub build: f64,
    /// The first full query, verified.
    pub first_query: f64,
}

/// Times `f` as one setup phase, inside a span named `name`.
pub fn phase<R>(tr: &mut Tracer, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
    let t = Instant::now();
    tr.begin(name);
    let r = f(tr);
    tr.end();
    (r, t.elapsed().as_secs_f64())
}

pub trait Workload: Sized {
    type Inputs;
    /// Generates every input from the seed. Not timed.
    fn inputs(seed: u64, small: bool) -> Self::Inputs;
    /// Builds the system from scratch and checks its first full answer.
    fn setup(inp: &Self::Inputs, tr: &mut Tracer, ck: &mut Checker) -> (Self, Setup);
    /// The same from-scratch build and first query on the substrate's
    /// conventional, non-incremental counterpart, checked; returns its wall
    /// time in seconds (the denominator of `init_overhead_x`).
    fn conventional(inp: &Self::Inputs, tr: &mut Tracer, ck: &mut Checker) -> f64;
    fn runtime(&self) -> &Runtime;
    /// One update: prepares the writes and the oracle's answers, then times
    /// the span from the first write to the last answer, then checks.
    fn update(&mut self, tr: &mut Tracer, ck: &mut Checker) -> Duration;
    /// Whole-structure checks too slow for every update.
    fn deep_check(&mut self, _ck: &mut Checker) {}
}

/// Everything a run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: HashMap<&'static str, f64>,
    /// Per-span totals over the first conventional run and the kept setup
    /// (traced run only).
    pub setup_spans: Vec<(&'static str, Total)>,
    /// Per-span totals over the measured window (traced run only).
    pub span_totals: Vec<(&'static str, Total)>,
    pub traced_updates: u64,
    pub updates: u64,
}

/// One slice of the measured window.
struct Slice {
    /// Seconds taken by the conventional run that opened the slice.
    conv: f64,
    /// Untraced update latencies, in nanoseconds.
    latencies: Vec<u64>,
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of raw samples, in microseconds.
fn percentile_us(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64 / 1e3
}

fn total_setup_s(s: &Setup) -> f64 {
    s.construct + s.build + s.first_query
}

/// A setup's build and first query over the mean of the conventional runs
/// just before and just after it: times taken moments apart see the same
/// host speed.
fn init_overhead(s: &Setup, bracket: &[f64]) -> f64 {
    (s.build + s.first_query) / ((bracket[0] + bracket[1]) / 2.0)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn live(s: &MemSnapshot, tag: &str) -> i64 {
    s.get(tag).map_or(0, |t| t.live_bytes as i64)
}

fn total_allocs(s: &MemSnapshot) -> u64 {
    s.tags.iter().map(|t| t.total_allocs).sum()
}

fn allocs_since(before: &MemSnapshot) -> u64 {
    total_allocs(&mem::snapshot()) - total_allocs(before)
}

/// Live bytes billed to the runtime's and substrates' tags. `untagged`
/// is left out: it holds the benchmark's own growing sample vectors.
fn tagged_live(s: &MemSnapshot) -> i64 {
    s.tags
        .iter()
        .filter(|t| t.tag != "untagged")
        .map(|t| t.live_bytes as i64)
        .sum()
}

fn tagged_live_since(before: &MemSnapshot) -> i64 {
    tagged_live(&mem::snapshot()) - tagged_live(before)
}

/// Runtime counters by name, summed over the parts of the window that
/// count.
type Counters = HashMap<&'static str, u64>;

fn add_counts(into: &mut Counters, delta: &Stats) {
    for (name, v) in delta.fields() {
        *into.entry(name).or_default() += v;
    }
}

/// Busy and idle nanoseconds summed over the executor-pool workers.
fn worker_times(rt: &Runtime) -> (u64, u64) {
    rt.metrics_snapshot()
        .workers
        .iter()
        .fold((0, 0), |(b, i), w| (b + w.busy_ns, i + w.idle_ns))
}

pub fn run<W: Workload>(cfg: &Config) -> Outcome {
    let inputs = W::inputs(cfg.seed, cfg.small);
    let mut tr = Tracer::new(cfg.trace);
    let mut ck = Checker::new(cfg.inject_wrong_answer);

    // Setup, several times from scratch, each build bracketed by
    // conventional runs before and after it. The first build is the one kept,
    // and memory is read around it before anything else is built: dropping
    // a substrate does not always free its runtime (memo closures that
    // capture the substrate keep the runtime alive), so later builds would
    // show in every memory figure. Spans are recorded for the first
    // conventional run and the kept setup only; the repeats are still timed.
    let mut convs = vec![W::conventional(&inputs, &mut tr, &mut ck)];
    let mem_before = mem::snapshot();
    let (mut w, first) = W::setup(&inputs, &mut tr, &mut ck);
    let mem_after = mem::snapshot();
    tr.set_recording(false);
    convs.push(W::conventional(&inputs, &mut tr, &mut ck));
    let peak_bytes: u64 = mem_after.tags.iter().map(|t| t.hwm_bytes).sum();
    let mut setups = vec![first];
    let mut overheads = vec![init_overhead(&first, &convs)];
    let rt = w.runtime().clone();
    let nodes = rt.node_count() as u64;
    let edges = rt.edge_count() as u64;
    // Each further setup is bracketed by conventional runs of its own, and
    // its substrate dropped at once.
    let mut another_setup = |tr: &mut Tracer, ck: &mut Checker| {
        let c0 = W::conventional(&inputs, tr, ck);
        let s = W::setup(&inputs, tr, ck).1;
        let c1 = W::conventional(&inputs, tr, ck);
        convs.extend([c0, c1]);
        setups.push(s);
        overheads.push(init_overhead(&s, &[c0, c1]));
    };
    let (before, in_window) = if cfg.small {
        (1, 0)
    } else {
        let planned = WINDOW_SETUPS.1 * cfg.seconds / total_setup_s(&first);
        (SETUPS_BEFORE, (planned as usize).min(WINDOW_SETUPS.0))
    };
    for _ in 1..before {
        another_setup(&mut tr, &mut ck);
    }
    // Slices that open with a setup: every `stride`-th, `in_window` times.
    let stride = SLICES.div_ceil(in_window.max(1));

    for _ in 0..WARMUP_UPDATES {
        w.update(&mut tr, &mut ck);
    }

    // The measured window is cut into slices, each opened by conventional
    // from-scratch runs. Update latencies are compared with the
    // conventional time of their own slice, taken under the same host
    // speed; the runtime's counters never see the conventional runs. The
    // periodic whole-structure checks read the runtime too: their counts,
    // allocations and live bytes are taken out of the window's.
    let setup_totals = tr.totals().clone();
    let mut counts = Counters::new();
    let mut seg_start = rt.stats();
    let workers0 = worker_times(&rt);
    let mem0 = mem::snapshot();
    let mut side_allocs = 0u64;
    let mut side_live = 0i64;
    let mut slices: Vec<Slice> = Vec::with_capacity(SLICES);
    let mut traced: Vec<u64> = Vec::new();
    let slice_len = Duration::from_secs_f64(cfg.seconds / SLICES as f64);
    let start = Instant::now();
    let mut i = 0u64;
    loop {
        let opened = slices.len() as u64;
        let (done, open_next) = match cfg.updates {
            Some(n) => (i >= n, i * SLICES as u64 >= n * opened),
            None => {
                let t = start.elapsed();
                (
                    t >= slice_len * SLICES as u32,
                    t >= slice_len * opened as u32,
                )
            }
        };
        if done {
            break;
        }
        if open_next {
            tr.set_recording(false);
            let before = mem::snapshot();
            if in_window > 0 && (opened as usize).is_multiple_of(stride) {
                another_setup(&mut tr, &mut ck);
            }
            let conv = median(
                (0..CONV_PER_SLICE)
                    .map(|_| W::conventional(&inputs, &mut tr, &mut ck))
                    .collect(),
            );
            side_allocs += allocs_since(&before);
            side_live += tagged_live_since(&before);
            slices.push(Slice {
                conv,
                latencies: Vec::new(),
            });
        }
        let trace_this = cfg.trace && (i / TRACE_CHUNK).is_multiple_of(2);
        tr.set_recording(trace_this);
        tr.set_update(i + 1);
        let dt = w.update(&mut tr, &mut ck).as_nanos() as u64;
        if trace_this {
            traced.push(dt);
        } else {
            slices
                .last_mut()
                .expect("a slice is open")
                .latencies
                .push(dt);
        }
        i += 1;
        if i.is_multiple_of(DEEP_CHECK_EVERY) {
            add_counts(&mut counts, &rt.stats().delta_since(&seg_start));
            let before = mem::snapshot();
            w.deep_check(&mut ck);
            side_allocs += allocs_since(&before);
            side_live += tagged_live_since(&before);
            seg_start = rt.stats();
        }
    }
    tr.set_recording(false);
    let end_stats = rt.stats();
    add_counts(&mut counts, &end_stats.delta_since(&seg_start));
    let workers1 = worker_times(&rt);
    let mem1 = mem::snapshot();
    w.deep_check(&mut ck);
    let c = |name: &str| counts.get(name).copied().unwrap_or(0);
    let updates = i;
    for s in &mut slices {
        s.latencies.sort_unstable();
    }
    slices.retain(|s| !s.latencies.is_empty());

    let mut m: HashMap<&'static str, f64> = HashMap::new();

    // End to end.
    m.insert(
        "setup_s",
        median(setups.iter().map(total_setup_s).collect()),
    );
    let over_slices = |f: &dyn Fn(&Slice) -> f64| median(slices.iter().map(f).collect());
    m.insert(
        "update_overhead_x",
        over_slices(&|s| percentile_us(&s.latencies, 0.50) / 1e6 / s.conv),
    );
    m.insert(
        "loop.update_p50_us",
        over_slices(&|s| percentile_us(&s.latencies, 0.50)),
    );
    m.insert(
        "loop.update_p99_us",
        over_slices(&|s| percentile_us(&s.latencies, 0.99)),
    );
    m.insert(
        "loop.updates_per_s",
        over_slices(&|s| s.latencies.len() as f64 / (s.latencies.iter().sum::<u64>() as f64 / 1e9)),
    );
    let grown =
        |tag: &str| (live(&mem_after, tag) - live(&mem_before, tag)) as f64 / nodes.max(1) as f64;
    let live_total = mem_after.live_bytes_total() as i64 - mem_before.live_bytes_total() as i64;
    m.insert(
        "live_bytes_per_node",
        live_total as f64 / nodes.max(1) as f64,
    );
    m.insert("peak_live_mib", peak_bytes as f64 / (1u64 << 20) as f64);
    m.insert("init_overhead_x", median(overheads));

    // Per layer: call self times from the traced chunks.
    let span_totals = window_totals(tr.totals(), &setup_totals);
    let per_traced = |names: &[&str]| {
        let ns: u64 = span_totals
            .iter()
            .filter(|(n, _)| names.contains(n))
            .map(|(_, t)| t.self_ns)
            .sum();
        ratio(ns, traced.len() as u64) / 1e3
    };
    m.insert("api.write_us", per_traced(WRITE_SPANS));
    m.insert("api.read_us", per_traced(READ_SPANS));
    m.insert("core.propagate_us", per_traced(PROPAGATE_SPANS));
    m.insert(
        "setup.construct_s",
        median(setups.iter().map(|s| s.construct).collect()),
    );
    m.insert(
        "setup.build_s",
        median(setups.iter().map(|s| s.build).collect()),
    );
    m.insert(
        "setup.first_query_s",
        median(setups.iter().map(|s| s.first_query).collect()),
    );
    m.insert("setup.conventional_s", median(convs));

    // Per layer: work counts per update, from the runtime's counters.
    let per = |name: &str| ratio(c(name), updates);
    for (metric, counter) in [
        ("core.executions_per_update", "executions"),
        ("core.calls_per_update", "calls"),
        ("core.reads_per_update", "reads"),
        ("core.writes_per_update", "writes"),
        ("core.comparisons_per_update", "comparisons"),
        ("core.dirtied_per_update", "dirtied"),
        ("core.propagation_steps_per_update", "propagation_steps"),
        ("core.memo_probes_per_update", "memo_probes"),
        ("core.height_raises_per_update", "height_raises"),
        ("graph.edges_created_per_update", "edges_created"),
        ("graph.edges_removed_per_update", "edges_removed"),
        ("exec_pool.parallel_levels_per_update", "parallel_levels"),
    ] {
        m.insert(metric, per(counter));
    }
    m.insert(
        "core.wasted_share",
        ratio(c("wasted_executions"), c("executions")),
    );
    m.insert("core.cache_hit_share", ratio(c("cache_hits"), c("calls")));
    m.insert("core.change_share", ratio(c("changes"), c("writes")));
    m.insert(
        "core.dedup_share",
        ratio(c("dedup_hits"), c("dedup_hits") + c("edges_created")),
    );
    m.insert(
        "core.coalesced_share",
        ratio(c("coalesced_writes"), c("batched_writes")),
    );
    m.insert("graph.nodes", nodes as f64);
    m.insert("graph.edges", edges as f64);

    // Per layer: the executor pool, over the window.
    m.insert(
        "exec_pool.parallel_exec_share",
        ratio(c("parallel_executions"), c("executions")),
    );
    let (busy, idle) = (workers1.0 - workers0.0, workers1.1 - workers0.1);
    m.insert("exec_pool.worker_busy_share", ratio(busy, busy + idle));
    m.insert(
        "exec_pool.level_width_hwm",
        end_stats.level_width_hwm as f64,
    );

    // Per layer: memory, billed by subsystem tag.
    m.insert("mem.graph_core_bytes_per_node", grown("graph_core"));
    m.insert("mem.value_slab_bytes_per_node", grown("value_slab"));
    m.insert("mem.memo_bytes_per_node", grown("memo"));
    m.insert("mem.queues_bytes_per_node", grown("queues"));
    m.insert("mem.substrate_bytes_per_node", grown("substrate"));
    m.insert(
        "mem.allocs_per_update",
        ratio(
            total_allocs(&mem1) - total_allocs(&mem0) - side_allocs,
            updates,
        ),
    );
    m.insert(
        "mem.live_growth_bytes_per_update",
        (tagged_live(&mem1) - tagged_live(&mem0) - side_live) as f64 / updates.max(1) as f64,
    );
    m.insert(
        "mem.build_allocs_per_node",
        ratio(total_allocs(&mem_after) - total_allocs(&mem_before), nodes),
    );

    // Tracing overhead: median update latency, traced over untraced chunks.
    let mut plain: Vec<u64> = slices
        .iter()
        .flat_map(|s| s.latencies.iter().copied())
        .collect();
    plain.sort_unstable();
    traced.sort_unstable();
    let (t50, p50) = (percentile_us(&traced, 0.5), percentile_us(&plain, 0.5));
    m.insert(
        "trace.overhead_pct",
        if traced.is_empty() || p50 == 0.0 {
            0.0
        } else {
            (t50 / p50 - 1.0) * 100.0
        },
    );

    if cfg.trace {
        if let Err(e) = tr.write_jsonl(&cfg.spans_out) {
            eprintln!(
                "perfbench: cannot write spans to {}: {e}",
                cfg.spans_out.display()
            );
        }
    }
    Outcome {
        attempted: ck.attempted,
        failed: ck.failed,
        metrics: m,
        setup_spans: setup_totals.into_iter().collect(),
        span_totals,
        traced_updates: traced.len() as u64,
        updates,
    }
}

/// Span totals accrued after `before` was taken (the measured window).
fn window_totals(
    now: &BTreeMap<&'static str, Total>,
    before: &BTreeMap<&'static str, Total>,
) -> Vec<(&'static str, Total)> {
    now.iter()
        .map(|(&name, t)| {
            let b = before.get(name).copied().unwrap_or_default();
            let d = Total {
                count: t.count - b.count,
                total_ns: t.total_ns - b.total_ns,
                self_ns: t.self_ns - b.self_ns,
            };
            (name, d)
        })
        .filter(|(_, t)| t.count > 0)
        .collect()
}
