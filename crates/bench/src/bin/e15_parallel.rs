//! Prints the E15 table (level-parallel wave propagation).
//!
//! Usage: `e15_parallel [--quick]`
//!
//! Writes `BENCH_E15.json` and the run's merged metrics snapshot,
//! `METRICS_E15.json`, into the current directory.
//!
//! On a single-core host the speedup column comes from overlapping the
//! cells' sleeping stalls, not from CPU parallelism.
fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let table = if quick {
        alphonse_bench::experiments::e15_parallel(&[1, 2, 4], 16, 6, 200)
    } else {
        alphonse_bench::experiments::e15_parallel(&[1, 2, 4], 32, 20, 200)
    };
    print!("{table}");
    table.write_files("E15");
}
