//! Experiment harness for the Alphonse reproduction.
//!
//! The paper (PLDI 1992) contains no empirical tables or figures — its
//! evaluation is the asymptotic analysis of Section 9 plus per-example cost
//! claims. Each claim is reproduced here as an experiment (see DESIGN.md's
//! experiment index): a workload generator plus machine-independent work
//! counters, printed as tables by the `all_experiments` binary (one table
//! per experiment id, wall-clock columns beside the counters).
//! EXPERIMENTS.md records paper-claim vs. measured shape for each one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod table;
pub mod trace_support;
pub mod workloads;

pub use table::Table;

/// Rejects the arguments a binary did not consume: when `leftover` is not
/// empty, prints `unknown flag: <first>` and `usage` to stderr and exits
/// with status 2, so a typo or a retired flag never runs silently.
pub fn reject_unknown_flags(leftover: &[String], usage: &str) {
    if let Some(unknown) = leftover.first() {
        eprintln!("unknown flag: {unknown}");
        eprintln!("usage: {usage}");
        std::process::exit(2);
    }
}
