//! In-memory spans recorded around every public call the benchmark makes.
//!
//! A span has a name, a start, an end and the span that encloses it; all
//! spans of one update share the update's id (setup spans use id 0). Self
//! time — a span's duration minus the part its child spans cover — is summed
//! per name as spans end, and the spans themselves are kept in memory (up to
//! a cap) and written as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Spans kept for the output file; later ones still count in the totals.
const KEEP_SPANS: usize = 1 << 16;

/// One finished span, times in nanoseconds since the tracer was created.
struct Span {
    id: u64,
    parent: u64,
    update: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

struct Open {
    id: u64,
    name: &'static str,
    start: Instant,
    child_ns: u64,
}

/// Per-name aggregate over every finished span.
#[derive(Debug, Default, Clone, Copy)]
pub struct Total {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    update: u64,
    next_id: u64,
    open: Vec<Open>,
    spans: Vec<Span>,
    dropped: u64,
    totals: BTreeMap<&'static str, Total>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            update: 0,
            next_id: 1,
            open: Vec::new(),
            spans: Vec::new(),
            dropped: 0,
            totals: BTreeMap::new(),
        }
    }

    /// Turns recording on or off between updates (the traced run alternates
    /// traced and untraced chunks to measure its own overhead).
    pub fn set_recording(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "toggled inside a span");
        self.on = on;
    }

    /// Sets the id shared by every span until the next call.
    pub fn set_update(&mut self, update: u64) {
        self.update = update;
    }

    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.open.push(Open {
            id,
            name,
            start: Instant::now(),
            child_ns: 0,
        });
    }

    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let end = Instant::now();
        let o = self.open.pop().expect("end without begin");
        let dur = (end - o.start).as_nanos() as u64;
        let parent = match self.open.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.id
            }
            None => 0,
        };
        let t = self.totals.entry(o.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(o.child_ns);
        if self.spans.len() < KEEP_SPANS {
            self.spans.push(Span {
                id: o.id,
                parent,
                update: self.update,
                name: o.name,
                start_ns: (o.start - self.epoch).as_nanos() as u64,
                end_ns: (end - self.epoch).as_nanos() as u64,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let r = f();
        self.end();
        r
    }

    pub fn totals(&self) -> &BTreeMap<&'static str, Total> {
        &self.totals
    }

    /// Writes the kept spans as JSON lines, after a meta line giving the
    /// number of spans dropped past the cap.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "{{\"meta\":\"perfbench-spans-v1\",\"kept\":{},\"dropped\":{}}}",
            self.spans.len(),
            self.dropped
        )?;
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"update\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.update, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new(true);
        tr.set_update(7);
        tr.begin("update");
        tr.span("child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tr.end();
        let t = tr.totals();
        let (u, c) = (t["update"], t["child"]);
        assert_eq!((u.count, c.count), (1, 1));
        assert_eq!(u.self_ns, u.total_ns - c.total_ns);
        assert_eq!(tr.spans[0].parent, tr.spans[1].id);
        assert!(tr.spans.iter().all(|s| s.update == 7));
    }

    #[test]
    fn off_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("x", || 3), 3);
        assert!(tr.totals().is_empty() && tr.spans.is_empty());
    }
}
