//! Offline reader for `alphonse-metrics-v1` snapshot files.
//!
//! The runtime's [`MetricsSnapshot::to_json`] (and the bench harness's
//! `METRICS_<id>.json` sidecars) serialize histograms in sparse bucket
//! form. This module parses them back — counters, the five runtime
//! histograms, worker and memory gauges — and renders either one snapshot
//! (percentile readout per histogram, utilization per worker) or the
//! change between two (counters subtract, histograms bucket-subtract via
//! [`HistogramSnapshot::delta_since`]).
//!
//! [`MetricsSnapshot::to_json`]: alphonse::MetricsSnapshot::to_json

use crate::json::Json;
use alphonse::HistogramSnapshot;
use std::fmt::Write as _;

/// One parsed worker row (`workers` array of the snapshot document).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerRow {
    /// Worker slot index within the execution pool.
    pub slot: u64,
    /// Nanoseconds spent running jobs.
    pub busy_ns: u64,
    /// Nanoseconds spent waiting for jobs.
    pub idle_ns: u64,
    /// Jobs completed.
    pub jobs: u64,
}

/// One parsed memory-accounting row (`mem` object of the snapshot
/// document), present when the producing binary installed the tracking
/// allocator (`alphonse::mem::TrackingAlloc`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemRow {
    /// Subsystem tag name (`graph_core`, `value_slab`, …).
    pub tag: String,
    /// Bytes currently live under this tag.
    pub live_bytes: u64,
    /// Blocks currently live under this tag.
    pub live_allocs: u64,
    /// High-water mark of `live_bytes`.
    pub hwm_bytes: u64,
    /// Allocations ever made under this tag.
    pub total_allocs: u64,
}

/// A parsed `alphonse-metrics-v1` document.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsDoc {
    /// Monotone counters, in document order (the `Stats` field set).
    pub counters: Vec<(String, u64)>,
    /// Named histograms, in document order. Names ending in `_ns` hold
    /// nanosecond latencies; the rest hold dimensionless per-wave counts.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Per-worker busy/idle gauges (empty unless a worker pool ran).
    pub workers: Vec<WorkerRow>,
    /// Per-subsystem memory gauges (empty unless the producing binary
    /// installed the tracking allocator).
    pub mem: Vec<MemRow>,
}

fn field_u64(obj: &Json, key: &str, ctx: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{ctx}: missing or non-integer `{key}`"))
}

fn parse_hist(v: &Json, name: &str) -> Result<HistogramSnapshot, String> {
    let sum = field_u64(v, "sum", name)?;
    let max = field_u64(v, "max", name)?;
    let mut buckets = Vec::new();
    for pair in v
        .get("buckets")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{name}: missing `buckets` array"))?
    {
        match pair.as_arr() {
            Some([i, c]) => buckets.push((
                i.as_u64()
                    .ok_or_else(|| format!("{name}: non-integer bucket index"))?
                    as usize,
                c.as_u64()
                    .ok_or_else(|| format!("{name}: non-integer bucket count"))?,
            )),
            _ => return Err(format!("{name}: bucket entries must be [index, count]")),
        }
    }
    let h = HistogramSnapshot::from_sparse(&buckets, sum, max)
        .ok_or_else(|| format!("{name}: bucket index out of range"))?;
    let declared = field_u64(v, "count", name)?;
    if h.count() != declared {
        return Err(format!(
            "{name}: declared count {declared} != bucket total {}",
            h.count()
        ));
    }
    Ok(h)
}

impl MetricsDoc {
    /// Parses one snapshot document, verifying the schema marker.
    pub fn parse(text: &str) -> Result<MetricsDoc, String> {
        let doc = Json::parse(text)?;
        match doc.get("schema").and_then(Json::as_str) {
            Some("alphonse-metrics-v1") => {}
            Some(other) => return Err(format!("unsupported schema `{other}`")),
            None => return Err("not a metrics snapshot (no `schema` field)".into()),
        }
        let mut counters = Vec::new();
        if let Some(Json::Obj(fields)) = doc.get("counters") {
            for (name, v) in fields {
                counters.push((
                    name.clone(),
                    v.as_u64()
                        .ok_or_else(|| format!("counter `{name}` is not an integer"))?,
                ));
            }
        }
        let mut histograms = Vec::new();
        if let Some(Json::Obj(fields)) = doc.get("histograms") {
            for (name, v) in fields {
                histograms.push((name.clone(), parse_hist(v, name)?));
            }
        }
        let mut workers = Vec::new();
        for w in doc.get("workers").and_then(Json::as_arr).unwrap_or(&[]) {
            workers.push(WorkerRow {
                slot: field_u64(w, "slot", "worker")?,
                busy_ns: field_u64(w, "busy_ns", "worker")?,
                idle_ns: field_u64(w, "idle_ns", "worker")?,
                jobs: field_u64(w, "jobs", "worker")?,
            });
        }
        let mut mem = Vec::new();
        if let Some(Json::Obj(tags)) = doc.get("mem") {
            for (tag, v) in tags {
                let ctx = format!("mem.{tag}");
                mem.push(MemRow {
                    tag: tag.clone(),
                    live_bytes: field_u64(v, "live_bytes", &ctx)?,
                    live_allocs: field_u64(v, "live_allocs", &ctx)?,
                    hwm_bytes: field_u64(v, "hwm_bytes", &ctx)?,
                    total_allocs: field_u64(v, "total_allocs", &ctx)?,
                });
            }
        }
        Ok(MetricsDoc {
            counters,
            histograms,
            workers,
            mem,
        })
    }

    /// The change from `before` to `self`: counters and histogram buckets
    /// subtract (entries absent from `before` pass through); high-water
    /// marks (`*_hwm` counters), worker and memory rows are level
    /// readings, so the later snapshot's values are reported as-is.
    pub fn delta_since(&self, before: &MetricsDoc) -> MetricsDoc {
        let mut d = self.clone();
        for (name, v) in &mut d.counters {
            if name.ends_with("_hwm") {
                continue;
            }
            if let Some((_, b)) = before.counters.iter().find(|(n, _)| n == name) {
                *v = v.saturating_sub(*b);
            }
        }
        for (name, h) in &mut d.histograms {
            if let Some((_, b)) = before.histograms.iter().find(|(n, _)| n == name) {
                *h = h.delta_since(b);
            }
        }
        d
    }

    /// Renders the human-readable report (see `alphonse-trace metrics`).
    pub fn render(&self, title: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {title}");
        let _ = writeln!(out, "\n## counters");
        for (name, v) in &self.counters {
            let _ = writeln!(out, "{name:<24} {v}");
        }
        let _ = writeln!(out, "\n## histograms");
        for (name, h) in &self.histograms {
            if h.count() == 0 {
                let _ = writeln!(out, "{name:<18} (no samples)");
                continue;
            }
            let ns = name.ends_with("_ns");
            let cell = |v: u64| if ns { fmt_ns(v) } else { v.to_string() };
            let _ = writeln!(
                out,
                "{name:<18} n={:<7} mean={:<9} p50={:<9} p90={:<9} p99={:<9} max={}",
                h.count(),
                cell(h.mean().round() as u64),
                cell(h.percentile(0.50)),
                cell(h.percentile(0.90)),
                cell(h.percentile(0.99)),
                cell(h.max),
            );
        }
        if !self.workers.is_empty() {
            let _ = writeln!(out, "\n## executor");
        }
        for w in &self.workers {
            let total = w.busy_ns + w.idle_ns;
            let util = if total == 0 {
                0.0
            } else {
                w.busy_ns as f64 / total as f64 * 100.0
            };
            let _ = writeln!(
                out,
                "worker {}: busy {} idle {} jobs {} utilization {util:.0}%",
                w.slot,
                fmt_ns(w.busy_ns),
                fmt_ns(w.idle_ns),
                w.jobs,
            );
        }
        if !self.mem.is_empty() {
            let _ = writeln!(out, "\n## memory");
            for r in &self.mem {
                let _ = writeln!(
                    out,
                    "{:<14} live {:>10} ({} allocs)  hwm {:>10}  total allocs {}",
                    r.tag,
                    fmt_bytes(r.live_bytes),
                    r.live_allocs,
                    fmt_bytes(r.hwm_bytes),
                    r.total_allocs,
                );
            }
            let live_total: u64 = self.mem.iter().map(|r| r.live_bytes).sum();
            let _ = write!(out, "{:<14} live {:>10}", "total", fmt_bytes(live_total));
            // Derived footprint per graph node, when the snapshot carries
            // the node counter.
            if let Some((_, nodes)) = self
                .counters
                .iter()
                .find(|(n, _)| n == "nodes_created")
                .filter(|(_, n)| *n > 0)
            {
                let _ = write!(
                    out,
                    "  ({:.0} bytes/node over {nodes} nodes)",
                    live_total as f64 / *nodes as f64
                );
            }
            let _ = writeln!(out);
        }
        out
    }
}

/// Formats a byte quantity at a human scale (`B`, `KiB`, `MiB`, `GiB`).
fn fmt_bytes(b: u64) -> String {
    const KIB: u64 = 1 << 10;
    const MIB: u64 = 1 << 20;
    const GIB: u64 = 1 << 30;
    match b {
        0..=1023 => format!("{b} B"),
        KIB..=1048575 => format!("{:.1} KiB", b as f64 / KIB as f64),
        MIB..=1073741823 => format!("{:.1} MiB", b as f64 / MIB as f64),
        _ => format!("{:.2} GiB", b as f64 / GIB as f64),
    }
}

/// Formats a nanosecond quantity at a human scale (`ns`, `µs`, `ms`, `s`).
fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{:.1}µs", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.1}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alphonse::{Runtime, Strategy};

    fn sample_doc() -> String {
        let rt = Runtime::new();
        let v = rt.var(1i64);
        let m = rt.memo_with("m", Strategy::Eager, move |rt, &(): &()| v.get(rt) + 1);
        m.call(&rt, ());
        for i in 0..5 {
            v.set(&rt, i);
            rt.propagate();
        }
        rt.metrics_snapshot().to_json()
    }

    #[test]
    fn round_trips_a_runtime_snapshot() {
        let text = sample_doc();
        let doc = MetricsDoc::parse(&text).expect("parses");
        assert!(doc.counters.iter().any(|(n, _)| n == "waves"));
        let rendered = doc.render("snapshot");
        assert!(rendered.contains("## counters"));
        assert!(rendered.contains("waves"));
        // Metrics recording is on by default, so the snapshot carries real
        // waves.
        let (_, waves) = doc.counters.iter().find(|(n, _)| n == "waves").unwrap();
        assert!(*waves >= 5);
        let (_, h) = doc
            .histograms
            .iter()
            .find(|(n, _)| n == "wave_latency_ns")
            .unwrap();
        assert!(h.count() >= 5);
        assert!(rendered.contains("p99="));
    }

    #[test]
    fn delta_subtracts_counters_and_buckets() {
        let a = MetricsDoc::parse(&sample_doc()).unwrap();
        let b = MetricsDoc::parse(&sample_doc()).unwrap();
        let mut twice = b.clone();
        // Fake a strictly-later snapshot by doubling everything monotone.
        for (i, (_, v)) in twice.counters.iter_mut().enumerate() {
            *v += a.counters[i].1;
        }
        for (i, (_, h)) in twice.histograms.iter_mut().enumerate() {
            h.merge(&a.histograms[i].1);
        }
        let d = twice.delta_since(&b);
        for (i, (name, v)) in d.counters.iter().enumerate() {
            // A high-water mark is a level reading: the later one stands.
            let want = if name.ends_with("_hwm") {
                twice.counters[i].1
            } else {
                a.counters[i].1
            };
            assert_eq!(*v, want, "{name}");
        }
        for (i, (_, h)) in d.histograms.iter().enumerate() {
            assert_eq!(h.count(), a.histograms[i].1.count());
        }
    }

    #[test]
    fn rejects_wrong_schema_and_bad_counts() {
        assert!(MetricsDoc::parse("{\"schema\":\"other\"}").is_err());
        assert!(MetricsDoc::parse("{}").is_err());
        let bad = "{\"schema\":\"alphonse-metrics-v1\",\"counters\":{},\"histograms\":{\
                   \"h\":{\"count\":2,\"sum\":1,\"max\":1,\"buckets\":[[1,1]]}},\
                   \"workers\":[]}";
        let err = MetricsDoc::parse(bad).unwrap_err();
        assert!(err.contains("declared count"), "got: {err}");
    }

    #[test]
    fn parses_and_renders_mem_section() {
        let text = "{\"schema\":\"alphonse-metrics-v1\",\
                    \"counters\":{\"nodes_created\":4},\"histograms\":{},\"workers\":[],\
                    \"mem\":{\"graph_core\":{\"live_bytes\":4096,\"live_allocs\":3,\
                    \"hwm_bytes\":8192,\"total_allocs\":10},\
                    \"value_slab\":{\"live_bytes\":64,\"live_allocs\":4,\
                    \"hwm_bytes\":64,\"total_allocs\":4}}}";
        let doc = MetricsDoc::parse(text).expect("parses");
        assert_eq!(doc.mem.len(), 2);
        assert_eq!(doc.mem[0].tag, "graph_core");
        assert_eq!(doc.mem[0].hwm_bytes, 8192);
        let rendered = doc.render("snapshot");
        assert!(rendered.contains("## memory"));
        assert!(rendered.contains("graph_core"));
        assert!(rendered.contains("4.0 KiB"));
        // 4160 live bytes over 4 nodes.
        assert!(
            rendered.contains("1040 bytes/node over 4 nodes"),
            "got:\n{rendered}"
        );
        // A snapshot without a `mem` object renders no memory section.
        let plain = MetricsDoc::parse(&sample_doc()).unwrap();
        assert!(plain.mem.is_empty());
        assert!(!plain.render("snapshot").contains("## memory"));
        // Nor, without a worker pool, an executor section.
        assert!(!plain.render("snapshot").contains("## executor"));
        // Legacy documents (older committed sidecars, archived artifacts)
        // carry `gauges` and `pool` objects and the `mem_*` estimate
        // counters: all still parse, the counters render as counters,
        // `gauges` and `pool` are ignored.
        let legacy = "{\"schema\":\"alphonse-metrics-v1\",\
                      \"counters\":{\"nodes_created\":4,\"mem_nodes\":4,\
                      \"mem_edges_hwm\":3,\"mem_bytes_hwm\":900},\"histograms\":{},\
                      \"gauges\":{\"queue_depth\":0,\"queue_depth_hwm\":0},\"workers\":[],\
                      \"mem\":{\"graph_core\":{\"live_bytes\":400,\"live_allocs\":2,\
                      \"hwm_bytes\":400,\"total_allocs\":2}},\
                      \"pool\":{\"submit_sojourn_ns\":{\"count\":1,\"sum\":5,\"max\":5,\
                      \"buckets\":[[5,1]]},\"flush_latency_ns\":{\"count\":0,\"sum\":0,\
                      \"max\":0,\"buckets\":[]},\"shards\":[{\"shard\":0,\"tenants\":1,\
                      \"jobs\":1}]}}";
        let doc = MetricsDoc::parse(legacy).expect("legacy document parses");
        assert_eq!(doc.counters.len(), 4);
        let rendered = doc.render("legacy");
        assert!(rendered.contains("mem_bytes_hwm"), "got:\n{rendered}");
        assert!(
            rendered.contains("100 bytes/node over 4 nodes"),
            "got:\n{rendered}"
        );
        assert!(!rendered.contains("shard"), "got:\n{rendered}");
        assert!(!rendered.contains("queue_depth"), "got:\n{rendered}");
    }

    #[test]
    fn formats_scales() {
        assert_eq!(fmt_ns(12), "12ns");
        assert_eq!(fmt_ns(87_400), "87.4µs");
        assert_eq!(fmt_ns(3_200_000), "3.2ms");
        assert_eq!(fmt_ns(2_500_000_000), "2.50s");
    }
}
