//! Prints the E2 table (instrumentation overhead, §9.2 + §6.1).
//!
//! Usage: `e2_overhead [--trace-out <path>]`
use alphonse_bench::trace_support::TraceSession;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let trace = TraceSession::from_args(&mut args);
    alphonse_bench::reject_unknown_flags(&args, "e2_overhead [--trace-out <path>]");
    print!("{}", alphonse_bench::experiments::e2_overhead(&[4, 6, 8]));
    if let Some(session) = trace {
        session.finish();
    }
}
