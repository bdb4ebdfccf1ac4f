//! Offline analysis of Alphonse JSONL traces.
//!
//! The runtime's `JsonlSink` (activated with `--trace-out <path>` on the
//! bench binaries or `ALPHONSE_TRACE=<path>` in the lang interpreter)
//! streams every [`TraceEvent`](alphonse::trace::TraceEvent) as one JSON
//! line. This crate reads those documents back and answers the questions an
//! incremental-computation user asks after a run:
//!
//! * **why** did this node recompute? — [`model::TraceFile::replay_provenance`]
//!   rebuilds the same causal index the runtime feeds live and renders the
//!   write → dirtying-fanout → execution chain;
//! * **waves** — [`report::waves`] summarizes each propagation wave (dirtied /
//!   executed / cutoffs / cache hits, causal depth, critical path);
//! * **waste** — [`report::waste`] classifies every execution as productive
//!   (value changed) or wasted (equal value recomputed), per memo label.
//!
//! JSONL is the one persisted trace format, and [`render`] draws the other
//! views from it: **chrome** ([`render::chrome`], Chrome trace-event JSON
//! for Perfetto), **dot** ([`render::dot`], the replayed dependency graph),
//! and **hot** ([`render::hot`], per-node execution counts and self time).
//!
//! Beyond traces, [`metrics`] reads the runtime's `alphonse-metrics-v1`
//! snapshot files (wave-latency histograms, worker gauges,
//! per-subsystem memory gauges) and renders percentile reports or the
//! delta between two snapshots, [`benchdiff`] compares two bench result
//! tables (`BENCH_<id>.json`) and flags bad-direction changes, and
//! [`staticgraph`] reads the compiler's `alphonse-staticgraph` documents
//! (`alphonse-check graph`) and cross-validates a dynamic trace against
//! them: every runtime dependence edge must be covered by a static one.
//!
//! The `alphonse-trace` binary wraps all of these; see `src/main.rs` for
//! the CLI surface. Parsing is serde-free ([`json`]) because the build
//! environment is offline.

pub mod benchdiff;
pub mod json;
pub mod metrics;
pub mod model;
pub mod render;
pub mod report;
pub mod staticgraph;
