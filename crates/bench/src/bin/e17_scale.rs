//! Prints the E17 table (million-node scale stress: build throughput,
//! wave latency, per-subsystem bytes/node).
//!
//! Usage: `e17_scale [--quick]`
//!
//! Writes `BENCH_E17.json` and the run's merged metrics snapshot,
//! `METRICS_E17.json`, into the current directory.
//!
//! Installs the subsystem-tagged tracking allocator so the bytes/node
//! columns (and the `mem` section of `METRICS_E17.json`) carry real
//! measurements; without it every memory column reads zero.
#[global_allocator]
static ALLOC: alphonse::mem::TrackingAlloc = alphonse::mem::TrackingAlloc;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let table = alphonse_bench::experiments::e17_scale(quick);
    print!("{table}");
    table.write_files("E17");
}
