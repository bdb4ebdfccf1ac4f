//! A JSONL trace recorded into memory, shared by the integration tests.

use alphonse::trace::{JsonlSink, TraceSink};
use std::io;
use std::sync::{Arc, Mutex};

/// An `io::Write` that appends into a shared buffer, so the document the
/// sink (which owns its writer) writes can be read back.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A [`JsonlSink`] streaming into memory: install [`Capture::sink`] on a
/// runtime, run, then read the document written so far with
/// [`Capture::text`].
#[derive(Clone)]
pub struct Capture {
    buf: SharedBuf,
    sink: Arc<JsonlSink>,
}

impl Capture {
    pub fn new() -> Capture {
        let buf = SharedBuf::default();
        let sink = Arc::new(JsonlSink::new(buf.clone()).expect("an in-memory sink writes"));
        Capture { buf, sink }
    }

    pub fn sink(&self) -> Arc<dyn TraceSink> {
        self.sink.clone()
    }

    /// The JSONL document written so far.
    pub fn text(&self) -> String {
        self.sink.flush().unwrap();
        String::from_utf8(self.buf.0.lock().unwrap().clone()).expect("utf8 trace")
    }
}
