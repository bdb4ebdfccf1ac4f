//! Shared trace activation: one spec grammar for every entry point.
//!
//! The bench bins (`--trace <mode>`, `--trace-out <path>`) and the lang
//! interpreter (`ALPHONSE_TRACE=<spec>`) used to grow divergent activation
//! code; both now funnel through [`TraceConfig`]. The spec grammar:
//!
//! | spec | consumer |
//! |---|---|
//! | `1` | stderr event dump via a bounded [`Recorder`] |
//! | `jsonl[:path]`, or any path-like value | JSONL event stream ([`JsonlSink`], default `TRACE_<stem>.jsonl`) |
//!
//! JSONL is the one persisted format. Chrome spans, the DOT graph and the
//! hot-node table render offline from it: record with
//! `--trace-out run.jsonl` (or `ALPHONSE_TRACE=run.jsonl`), then run
//! `alphonse-trace chrome|dot|hot run.jsonl`.
//!
//! [`TraceConfig::start`] yields an [`ActiveTrace`]: the requested consumer
//! teed with a live [`Provenance`] index, so causal `why(node)` queries are
//! always available while tracing — the lang interpreter quotes them in
//! runtime error messages.

use super::provenance::Provenance;
use super::{JsonlSink, Recorder, Tee, TraceSink};
use std::io;
use std::path::PathBuf;
use std::sync::Arc;

/// Capacity of the stderr recorder (spec `1`). Large enough for small
/// programs to be complete; the dump warns when the ring dropped events.
const STDERR_RING: usize = 8192;

/// A parsed trace spec: which consumer to attach and where its output goes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceConfig {
    /// Record everything and dump human-readable lines to stderr at the end.
    Stderr,
    /// Stream every event as JSON lines to this file.
    Jsonl(PathBuf),
}

impl TraceConfig {
    /// Parses a trace spec (see the [module docs](self) for the grammar).
    /// `stem` names the default output file, `TRACE_<stem>.jsonl`.
    pub fn parse(spec: &str, stem: &str) -> Result<TraceConfig, String> {
        let (head, arg) = match spec.split_once(':') {
            Some((h, a)) => (h, Some(a)),
            None => (spec, None),
        };
        match head {
            "1" if arg.is_none() => Ok(TraceConfig::Stderr),
            "chrome" | "dot" | "hot" => {
                let top = match (head, arg) {
                    ("hot", Some(k)) => format!(" --top {k}"),
                    _ => String::new(),
                };
                Err(format!(
                    "trace spec `{spec}` is gone: record with `--trace-out run.jsonl` \
                     (or `ALPHONSE_TRACE=run.jsonl`), then run \
                     `alphonse-trace {head} run.jsonl{top}`"
                ))
            }
            "jsonl" => Ok(TraceConfig::Jsonl(
                arg.map(PathBuf::from)
                    .unwrap_or_else(|| PathBuf::from(format!("TRACE_{stem}.jsonl"))),
            )),
            // Any path-like value is shorthand for `jsonl:<path>` — the
            // common `ALPHONSE_TRACE=trace.jsonl` case.
            _ if spec.contains('.') || spec.contains('/') => {
                Ok(TraceConfig::Jsonl(PathBuf::from(spec)))
            }
            _ => Err(format!(
                "unrecognized trace spec `{spec}` (expected 1, jsonl[:path], or a file path)"
            )),
        }
    }

    /// Reads the `ALPHONSE_TRACE` environment variable. `None` when unset
    /// or empty; `Some(Err(…))` when set but malformed.
    pub fn from_env(stem: &str) -> Option<Result<TraceConfig, String>> {
        match std::env::var("ALPHONSE_TRACE") {
            Ok(v) if !v.is_empty() => Some(TraceConfig::parse(&v, stem)),
            _ => None,
        }
    }

    /// Builds the consumer (creating output files where needed) and tees it
    /// with a live [`Provenance`] index.
    pub fn start(self) -> io::Result<ActiveTrace> {
        let provenance = Arc::new(Provenance::new());
        let (consumer, consumer_sink): (Consumer, Arc<dyn TraceSink>) = match self {
            TraceConfig::Stderr => {
                let rec = Arc::new(Recorder::new(STDERR_RING));
                (Consumer::Stderr(rec.clone()), rec)
            }
            TraceConfig::Jsonl(path) => {
                let sink = Arc::new(JsonlSink::create(&path)?);
                (
                    Consumer::Jsonl {
                        sink: sink.clone(),
                        path,
                    },
                    sink,
                )
            }
        };
        let sink = Arc::new(Tee::new(vec![
            provenance.clone() as Arc<dyn TraceSink>,
            consumer_sink,
        ]));
        Ok(ActiveTrace {
            consumer,
            provenance,
            sink,
        })
    }
}

enum Consumer {
    Stderr(Arc<Recorder>),
    Jsonl { sink: Arc<JsonlSink>, path: PathBuf },
}

/// A started trace: hand [`ActiveTrace::sink`] to the runtime (or install
/// it as the thread default), then call [`ActiveTrace::finish`] once the
/// workload is done to flush/write/print the consumer's output.
pub struct ActiveTrace {
    consumer: Consumer,
    provenance: Arc<Provenance>,
    sink: Arc<Tee>,
}

impl ActiveTrace {
    /// The sink to attach (tee of the consumer and the provenance index).
    pub fn sink(&self) -> Arc<dyn TraceSink> {
        self.sink.clone() as Arc<dyn TraceSink>
    }

    /// The live causal index fed by this trace.
    pub fn provenance(&self) -> &Arc<Provenance> {
        &self.provenance
    }

    /// Installs [`ActiveTrace::sink`] as the thread-default sink (picked up
    /// by runtimes built afterwards); returns the previous default.
    pub fn install_default(&self) -> Option<Arc<dyn TraceSink>> {
        super::set_default_sink(Some(self.sink()))
    }

    /// Finalizes the consumer: dump the stderr recording or flush the
    /// JSONL file. Returns a one-line completion message naming the file
    /// the JSONL consumer wrote (the stderr dump is printed directly).
    pub fn finish(self) -> io::Result<Option<String>> {
        match self.consumer {
            Consumer::Stderr(rec) => {
                eprint!("{}", rec.dump());
                Ok(None)
            }
            Consumer::Jsonl { sink, path } => {
                sink.flush()?;
                Ok(Some(format!("trace: wrote {}", path.display())))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Runtime;

    #[test]
    fn parse_covers_the_grammar() {
        let p = |s: &str| TraceConfig::parse(s, "bin");
        assert_eq!(p("1"), Ok(TraceConfig::Stderr));
        assert_eq!(p("jsonl"), Ok(TraceConfig::Jsonl("TRACE_bin.jsonl".into())));
        assert_eq!(p("jsonl:x.jsonl"), Ok(TraceConfig::Jsonl("x.jsonl".into())));
        assert_eq!(
            p("out/t.jsonl"),
            Ok(TraceConfig::Jsonl("out/t.jsonl".into()))
        );
        // The renderers moved offline; their old specs name the replacement.
        for (spec, cmd) in [
            ("chrome", "alphonse-trace chrome run.jsonl`"),
            ("chrome:x.json", "alphonse-trace chrome run.jsonl`"),
            ("dot", "alphonse-trace dot run.jsonl`"),
            ("hot", "alphonse-trace hot run.jsonl`"),
            ("hot:5", "alphonse-trace hot run.jsonl --top 5`"),
        ] {
            let err = p(spec).unwrap_err();
            assert!(err.contains("--trace-out run.jsonl"), "{spec}: {err}");
            assert!(err.contains(cmd), "{spec}: {err}");
        }
        assert!(p("bogus").is_err());
    }

    #[test]
    fn stderr_session_feeds_provenance() {
        let active = TraceConfig::Stderr.start().unwrap();
        let rt = Runtime::new();
        rt.set_sink(Some(active.sink()));
        let v = rt.var_named("v", 1i64);
        let double = rt.memo("double", move |rt, &(): &()| v.get(rt) * 2);
        double.call(&rt, ());
        v.set(&rt, 2);
        rt.propagate();
        rt.set_sink(None);
        let prov = active.provenance().clone();
        let n = double.instance_node(&()).unwrap();
        let chain = prov.why(n).expect("double was dirtied by the write");
        assert_eq!(chain.write, Some((v.node(), true)));
        // finish() dumps to stderr and returns no message.
        assert_eq!(active.finish().unwrap(), None);
    }
}
