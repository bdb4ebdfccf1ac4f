//! Prints the E13 table (bulk edits: `Var::set` vs `Runtime::batch`).
//!
//! Usage: `e13_bulk_edits [--trace-out <path>]`
use alphonse_bench::trace_support::TraceSession;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let trace = TraceSession::from_args(&mut args);
    alphonse_bench::reject_unknown_flags(&args, "e13_bulk_edits [--trace-out <path>]");
    print!(
        "{}",
        alphonse_bench::experiments::e13_bulk_edits(&[1, 16, 256, 4096])
    );
    if let Some(session) = trace {
        session.finish();
    }
}
