//! `--trace-out <path>` plumbing shared by the benchmark binaries.
//!
//! The bench bins construct their runtimes internally, so a sink cannot be
//! attached by hand; instead this module installs a thread-local *default*
//! sink ([`alphonse::trace::set_default_sink`]) before the experiments run,
//! which every runtime built afterwards picks up. The events stream to
//! `<path>` as JSONL through [`alphonse::trace::ActiveTrace`].
//!
//! Without the flag, the `ALPHONSE_TRACE` environment variable names the
//! path, so `ALPHONSE_TRACE=trace.jsonl cargo run --bin e2_overhead` works
//! the same as it does for the interpreter. The JSONL artifact is the one
//! persisted trace; the `alphonse-trace` CLI renders every other view from
//! it:
//!
//! ```text
//! cargo run --release -p alphonse-bench --bin e6_sheet -- --trace-out run.jsonl
//! alphonse-trace chrome run.jsonl > run.json   # Perfetto / chrome://tracing
//! alphonse-trace dot run.jsonl > run.dot       # dependency graph
//! alphonse-trace hot run.jsonl --top 10        # hottest nodes by self time
//! ```
//!
//! `why`, `waves` and `waste` answer causal questions from the same file.
//! When a binary runs several experiments the stream aggregates across all
//! of them; `dot` draws the most recently constructed runtime.

use alphonse::trace::{self, ActiveTrace};

/// Extracts `--trace-out <path>` or `--trace-out=<path>` from `args`,
/// removing the consumed tokens so downstream positional parsing never
/// sees them.
///
/// # Errors
///
/// Returns a usage message if the flag is present but the path is missing
/// or empty.
pub fn take_trace_out_flag(args: &mut Vec<String>) -> Result<Option<String>, String> {
    const FLAG: &str = "--trace-out";
    const INLINE: &str = "--trace-out=";
    let Some(i) = args.iter().position(|a| a == FLAG || a.starts_with(INLINE)) else {
        return Ok(None);
    };
    let tok = args.remove(i);
    let path = match tok.strip_prefix(INLINE) {
        Some(p) => p.to_string(),
        None if i < args.len() => args.remove(i),
        None => return Err(format!("{FLAG} requires a path")),
    };
    if path.is_empty() {
        return Err(format!("{FLAG} requires a non-empty path"));
    }
    Ok(Some(path))
}

/// An installed trace session: the JSONL file teed with a live
/// provenance index, installed as the thread-default sink.
///
/// Construct with [`TraceSession::from_args`] *before* any runtime is
/// built and call [`TraceSession::finish`] after the workload completes.
pub struct TraceSession {
    active: ActiveTrace,
}

impl TraceSession {
    /// Takes `--trace-out <path>` out of `args` (falling back to the
    /// `ALPHONSE_TRACE` environment variable when it is absent) and starts
    /// a session if tracing was requested. A bad flag or an uncreatable
    /// `--trace-out` file exits the process with a message (bench binaries
    /// have no fancier error channel).
    pub fn from_args(args: &mut Vec<String>) -> Option<TraceSession> {
        let fail = |msg: String| -> ! {
            eprintln!("error: {msg}");
            std::process::exit(2);
        };
        let active = match take_trace_out_flag(args).unwrap_or_else(|e| fail(e)) {
            Some(path) => ActiveTrace::create(&path)
                .unwrap_or_else(|e| fail(format!("failed to start trace {path}: {e}"))),
            None => ActiveTrace::from_env()?,
        };
        active.install_default();
        Some(TraceSession { active })
    }

    /// Uninstalls the default sink and flushes the JSONL file.
    pub fn finish(self) {
        trace::set_default_sink(None);
        match self.active.finish() {
            Ok(path) => eprintln!("trace: wrote {}", path.display()),
            Err(e) => eprintln!("warning: failed to flush trace: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_separate_and_inline_forms() {
        let mut a = args(&["--quick", "--trace-out", "out/run.jsonl", "e2"]);
        assert_eq!(
            take_trace_out_flag(&mut a).unwrap().as_deref(),
            Some("out/run.jsonl")
        );
        assert_eq!(a, args(&["--quick", "e2"]));

        let mut b = args(&["--trace-out=run.jsonl"]);
        assert_eq!(
            take_trace_out_flag(&mut b).unwrap().as_deref(),
            Some("run.jsonl")
        );
        assert!(b.is_empty());
    }

    #[test]
    fn absent_flag_is_none_and_args_untouched() {
        // The retired `--trace <spec>` is left for the unknown-flag check.
        let mut a = args(&["--json", "--trace", "1", "e6"]);
        assert_eq!(take_trace_out_flag(&mut a).unwrap(), None);
        assert_eq!(a, args(&["--json", "--trace", "1", "e6"]));
    }

    #[test]
    fn rejects_missing_or_empty_value() {
        assert!(take_trace_out_flag(&mut args(&["--trace-out"])).is_err());
        assert!(take_trace_out_flag(&mut args(&["--trace-out="])).is_err());
    }
}
