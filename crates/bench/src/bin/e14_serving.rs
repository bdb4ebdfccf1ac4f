//! Prints the E14 table (sharded multi-session serving on a `SessionPool`).
//!
//! Usage: `e14_serving [--quick]`
//!
//! Installs the subsystem-tagged tracking allocator so the `bytes_node`
//! column carries a real measurement; without it the column reads zero.
#[global_allocator]
static ALLOC: alphonse::mem::TrackingAlloc = alphonse::mem::TrackingAlloc;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let table = if quick {
        alphonse_bench::experiments::e14_serving(&[1, 2], 8, 16)
    } else {
        alphonse_bench::experiments::e14_serving(&[1, 2, 4], 16, 64)
    };
    print!("{table}");
    std::fs::write("BENCH_E14.json", table.to_json())
        .unwrap_or_else(|e| panic!("failed to write BENCH_E14.json: {e}"));
    eprintln!("wrote BENCH_E14.json");
}
