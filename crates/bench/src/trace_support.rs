//! `--trace` / `--trace-out` plumbing shared by the benchmark binaries.
//!
//! The bench bins construct their runtimes internally, so a sink cannot be
//! attached by hand; instead this module installs a thread-local *default*
//! sink ([`alphonse::trace::set_default_sink`]) before the experiments run,
//! which every runtime built afterwards picks up. The spec grammar and the
//! consumers are shared with the lang interpreter's `ALPHONSE_TRACE`
//! environment variable — both funnel through
//! [`alphonse::trace::TraceConfig`]:
//!
//! | flag                  | consumer                         | artifact               |
//! |-----------------------|----------------------------------|------------------------|
//! | `--trace 1`           | [`alphonse::trace::Recorder`]    | event dump on stderr   |
//! | `--trace jsonl`       | [`alphonse::trace::JsonlSink`]   | `TRACE_<stem>.jsonl`   |
//! | `--trace-out <path>`  | [`alphonse::trace::JsonlSink`]   | `<path>`               |
//!
//! With neither flag given, `ALPHONSE_TRACE` is consulted as a fallback, so
//! `ALPHONSE_TRACE=trace.jsonl cargo run --bin e2_overhead` works the same
//! as it does for the interpreter. The JSONL artifact is the one persisted
//! trace; the `alphonse-trace` CLI renders every other view from it:
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

use alphonse::trace::{self, ActiveTrace, Provenance, TraceConfig};
use std::sync::Arc;

/// Extracts `--<name> <value>` or `--<name>=<value>` from `args`, removing
/// the consumed tokens so downstream positional parsing never sees them.
///
/// # Errors
///
/// Returns a usage message if the flag is present but the value is missing
/// or empty.
fn take_value_flag(args: &mut Vec<String>, name: &str) -> Result<Option<String>, String> {
    let flag = format!("--{name}");
    let inline = format!("--{name}=");
    let Some(i) = args
        .iter()
        .position(|a| *a == flag || a.starts_with(&inline))
    else {
        return Ok(None);
    };
    let tok = args.remove(i);
    let value = if let Some(v) = tok.strip_prefix(&inline) {
        v.to_string()
    } else {
        if i >= args.len() {
            return Err(format!("{flag} requires a value"));
        }
        args.remove(i)
    };
    if value.is_empty() {
        return Err(format!("{flag} requires a non-empty value"));
    }
    Ok(Some(value))
}

/// Extracts a `--trace <spec>` flag (spec grammar of
/// [`TraceConfig::parse`]). The spec itself is validated later, when the
/// session starts.
pub fn take_trace_flag(args: &mut Vec<String>) -> Result<Option<String>, String> {
    take_value_flag(args, "trace")
}

/// Extracts a `--trace-out <path>` flag: shorthand for `--trace jsonl:<path>`.
pub fn take_trace_out_flag(args: &mut Vec<String>) -> Result<Option<String>, String> {
    take_value_flag(args, "trace-out")
}

/// An installed trace session: the chosen consumer teed with a live
/// [`Provenance`] index, installed as the thread-default sink.
///
/// Construct with [`TraceSession::from_args`] (or [`TraceSession::start`])
/// *before* any runtime is built and call [`TraceSession::finish`] after the
/// workload completes.
pub struct TraceSession {
    active: ActiveTrace,
}

impl TraceSession {
    /// Starts `config` and installs its sink as the thread-local default.
    pub fn start(config: TraceConfig) -> std::io::Result<TraceSession> {
        let active = config.start()?;
        active.install_default();
        Ok(TraceSession { active })
    }

    /// Parses `--trace` / `--trace-out` out of `args` (falling back to the
    /// `ALPHONSE_TRACE` environment variable when neither is given) and
    /// starts a session if tracing was requested. Exits the process with a
    /// usage message on a malformed or conflicting request (bench binaries
    /// have no fancier error channel).
    pub fn from_args(args: &mut Vec<String>, stem: &str) -> Option<TraceSession> {
        let fail = |msg: String| -> ! {
            eprintln!("error: {msg}");
            std::process::exit(2);
        };
        let spec = take_trace_flag(args).unwrap_or_else(|e| fail(e));
        let out = take_trace_out_flag(args).unwrap_or_else(|e| fail(e));
        let config = match (spec, out) {
            (Some(_), Some(_)) => fail("--trace and --trace-out are mutually exclusive".into()),
            (Some(spec), None) => TraceConfig::parse(&spec, stem).unwrap_or_else(|e| fail(e)),
            (None, Some(path)) => TraceConfig::Jsonl(path.into()),
            (None, None) => match TraceConfig::from_env(stem) {
                Some(Ok(c)) => c,
                Some(Err(e)) => fail(e),
                None => return None,
            },
        };
        match TraceSession::start(config) {
            Ok(s) => Some(s),
            Err(e) => fail(format!("failed to start trace: {e}")),
        }
    }

    /// The live causal index fed by this session.
    pub fn provenance(&self) -> &Arc<Provenance> {
        self.active.provenance()
    }

    /// Uninstalls the default sink and flushes the artifact: the JSONL
    /// file (by default `TRACE_<stem>.jsonl` in the current directory, next
    /// to the `BENCH_*.json` files), or the recorder dump on stderr.
    pub fn finish(self) {
        trace::set_default_sink(None);
        match self.active.finish() {
            Ok(Some(msg)) => eprintln!("{msg}"),
            Ok(None) => {}
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
        let mut a = args(&["--quick", "--trace", "jsonl", "e2"]);
        assert_eq!(take_trace_flag(&mut a).unwrap().as_deref(), Some("jsonl"));
        assert_eq!(a, args(&["--quick", "e2"]));

        let mut b = args(&["--trace=1"]);
        assert_eq!(take_trace_flag(&mut b).unwrap().as_deref(), Some("1"));
        assert!(b.is_empty());
    }

    #[test]
    fn absent_flag_is_none_and_args_untouched() {
        let mut a = args(&["--json", "e6"]);
        assert_eq!(take_trace_flag(&mut a).unwrap(), None);
        assert_eq!(a, args(&["--json", "e6"]));
    }

    #[test]
    fn rejects_missing_or_empty_value() {
        assert!(take_trace_flag(&mut args(&["--trace"])).is_err());
        assert!(take_trace_flag(&mut args(&["--trace="])).is_err());
        assert!(take_trace_out_flag(&mut args(&["--trace-out"])).is_err());
    }

    #[test]
    fn trace_out_consumes_path() {
        let mut a = args(&["--trace-out", "out/run.jsonl", "e2"]);
        assert_eq!(
            take_trace_out_flag(&mut a).unwrap().as_deref(),
            Some("out/run.jsonl")
        );
        assert_eq!(a, args(&["e2"]));
    }

    #[test]
    fn bad_spec_is_deferred_to_config_parse() {
        // The flag parser accepts any non-empty spec; validation lives in
        // the shared TraceConfig grammar.
        let mut a = args(&["--trace", "flame"]);
        let spec = take_trace_flag(&mut a).unwrap().unwrap();
        assert!(TraceConfig::parse(&spec, "x").is_err());
    }

    #[test]
    fn removed_render_specs_name_the_offline_command() {
        for (spec, cmd) in [
            ("chrome", "alphonse-trace chrome run.jsonl"),
            ("dot", "alphonse-trace dot run.jsonl"),
            ("hot:3", "alphonse-trace hot run.jsonl --top 3"),
        ] {
            let mut a = args(&["--trace", spec]);
            let spec = take_trace_flag(&mut a).unwrap().unwrap();
            let err = TraceConfig::parse(&spec, "x").unwrap_err();
            assert!(err.contains("--trace-out run.jsonl"), "{err}");
            assert!(err.contains(cmd), "{err}");
        }
    }
}
