//! Prints the E6 tables (spreadsheet §7.2 and attribute grammar §7.1).
//!
//! Usage: `e6_sheet [--trace-out <path>]`
use alphonse_bench::trace_support::TraceSession;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let trace = TraceSession::from_args(&mut args);
    alphonse_bench::reject_unknown_flags(&args, "e6_sheet [--trace-out <path>]");
    print!("{}", alphonse_bench::experiments::e6_sheet(&[16, 64, 256]));
    println!();
    print!("{}", alphonse_bench::experiments::e6_ag(&[8, 12, 16, 20]));
    if let Some(session) = trace {
        session.finish();
    }
}
