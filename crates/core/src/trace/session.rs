//! Trace activation: one switch, an output path.
//!
//! Every entry point that records a trace — the bench bins'
//! `--trace-out <path>`, the lang interpreter and the examples — starts
//! it the same way: [`ActiveTrace::create`] on a path, or
//! [`ActiveTrace::from_env`], which reads that path from the
//! `ALPHONSE_TRACE` environment variable. The events stream to the file
//! as JSONL, the one persisted format; Chrome spans, the DOT graph and the
//! hot-node table render offline from it with
//! `alphonse-trace chrome|dot|hot run.jsonl`.
//!
//! The [`JsonlSink`] is teed with a live [`Provenance`] index, so causal
//! `why(node)` queries are available while tracing — the lang interpreter
//! quotes them in runtime error messages.

use super::provenance::Provenance;
use super::{JsonlSink, Tee, TraceSink};
use std::io;
use std::path::PathBuf;
use std::sync::Arc;

/// A started trace: hand [`ActiveTrace::sink`] to the runtime (or install
/// it as the thread default), then call [`ActiveTrace::finish`] once the
/// workload is done to flush the file.
pub struct ActiveTrace {
    path: PathBuf,
    jsonl: Arc<JsonlSink>,
    provenance: Arc<Provenance>,
    sink: Arc<Tee>,
}

impl ActiveTrace {
    /// Creates (truncating) `path` and streams the trace to it as JSONL,
    /// teed with a live [`Provenance`] index.
    pub fn create(path: impl Into<PathBuf>) -> io::Result<ActiveTrace> {
        let path = path.into();
        let jsonl = Arc::new(JsonlSink::create(&path)?);
        let provenance = Arc::new(Provenance::new());
        let sink = Arc::new(Tee::new(vec![
            provenance.clone() as Arc<dyn TraceSink>,
            jsonl.clone(),
        ]));
        Ok(ActiveTrace {
            path,
            jsonl,
            provenance,
            sink,
        })
    }

    /// Starts a trace to the path named by `ALPHONSE_TRACE`. `None` when
    /// the variable is unset or empty, and also when the file cannot be
    /// created: that is reported on stderr, and the program runs on
    /// untraced — an observability knob must never turn a working program
    /// into a failing one.
    pub fn from_env() -> Option<ActiveTrace> {
        let path = std::env::var_os("ALPHONSE_TRACE").filter(|p| !p.is_empty())?;
        match ActiveTrace::create(&path) {
            Ok(active) => Some(active),
            Err(e) => {
                eprintln!(
                    "ALPHONSE_TRACE={}: {e}; tracing disabled",
                    path.to_string_lossy()
                );
                None
            }
        }
    }

    /// The sink to attach (tee of the JSONL file and the provenance index).
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

    /// Flushes the JSONL file and returns its path.
    pub fn finish(self) -> io::Result<PathBuf> {
        self.jsonl.flush()?;
        Ok(self.path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Runtime;

    #[test]
    fn jsonl_session_feeds_file_and_provenance() {
        let path =
            std::env::temp_dir().join(format!("alphonse-session-{}.jsonl", std::process::id()));
        let active = ActiveTrace::create(&path).unwrap();
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
        assert_eq!(active.finish().unwrap(), path);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let mut lines = text.lines();
        assert!(lines
            .next()
            .unwrap()
            .starts_with(r#"{"meta":{"format":"alphonse-trace""#));
        let events: Vec<&str> = lines.collect();
        for ev in ["Write", "Dirtied", "PropagateBegin", "ExecuteEnd"] {
            let tag = format!(r#""ev":"{ev}""#);
            assert!(events.iter().any(|l| l.contains(&tag)), "no {ev} event");
        }
        assert!(events.iter().any(|l| l.contains(r#""label":"double""#)));
    }

    #[test]
    fn create_on_an_unwritable_path_is_an_error() {
        let path = std::env::temp_dir()
            .join(format!("alphonse-no-such-dir-{}", std::process::id()))
            .join("t.jsonl");
        assert!(ActiveTrace::create(path).is_err());
    }
}
