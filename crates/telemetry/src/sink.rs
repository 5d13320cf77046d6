//! Event sinks: where dispatched [`Event`]s go.
//!
//! Three built-ins cover the workspace's needs: a human-readable stderr
//! printer (`--trace`), a JSON Lines file writer (machine-readable event
//! streams next to `results/`), and an in-memory collector for tests.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

use crate::{Event, Level};

/// A destination for telemetry events. Implementations must be
/// `Send + Sync`: events may be emitted from any thread.
pub trait Sink: Send + Sync {
    /// Receives one event (already level-filtered by the dispatcher).
    fn emit(&self, event: &Event);

    /// Flushes buffered output; called by [`crate::flush`].
    ///
    /// # Errors
    ///
    /// Returns the first error the sink met writing, or the flush's own.
    fn flush(&self) -> io::Result<()> {
        Ok(())
    }
}

/// Pretty-prints events to stderr, one line each, with its own minimum
/// level on top of the global one (so a JSONL sink can record debug
/// events while stderr stays at info).
#[derive(Debug, Clone, Copy)]
pub struct StderrSink {
    min_level: Level,
}

impl StderrSink {
    /// Creates a stderr sink printing events at or above `min_level`.
    pub fn new(min_level: Level) -> Self {
        Self { min_level }
    }
}

impl Sink for StderrSink {
    fn emit(&self, event: &Event) {
        if event.level >= self.min_level {
            eprintln!("{}", event.pretty());
        }
    }
}

/// Writes each event as one JSON object per line (JSON Lines).
///
/// The schema per line is
/// `{"ts_ms":…,"level":…,"kind":…,"name":…,"elapsed_ns":…,"fields":{…}}`;
/// see [`Event::to_json`]. The first failed write stops the log, and
/// every later [`Sink::flush`] returns that error.
pub struct JsonlSink {
    log: Mutex<JsonlLog>,
}

/// A JSON Lines file and the first error writing it met.
struct JsonlLog {
    /// `None` once a write failed: a log with a hole in it is no log.
    writer: Option<BufWriter<File>>,
    error: Option<io::Error>,
}

impl JsonlLog {
    /// Runs `op` on the file unless an earlier write failed, keeping the
    /// first error.
    fn write(&mut self, op: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>) {
        let Some(writer) = &mut self.writer else {
            return;
        };
        if let Err(e) = op(writer) {
            self.writer = None;
            self.error = Some(e);
        }
    }
}

impl JsonlSink {
    /// Creates (truncating) the file at `path`.
    ///
    /// # Errors
    ///
    /// Returns any filesystem error from creating the file.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self {
            log: Mutex::new(JsonlLog {
                writer: Some(BufWriter::new(file)),
                error: None,
            }),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, JsonlLog> {
        // Every update leaves the log valid, so a poisoned lock is
        // still usable.
        self.log.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl Sink for JsonlSink {
    fn emit(&self, event: &Event) {
        self.lock().write(|w| writeln!(w, "{}", event.to_json()));
    }

    fn flush(&self) -> io::Result<()> {
        let mut log = self.lock();
        log.write(Write::flush);
        match &log.error {
            Some(e) => Err(io::Error::new(e.kind(), e.to_string())),
            None => Ok(()),
        }
    }
}

impl Drop for JsonlSink {
    /// Flushes what is buffered; a failure here is lost, so call
    /// [`Sink::flush`] first to see it.
    fn drop(&mut self) {
        let _ = Sink::flush(self);
    }
}

/// Collects events in memory; the sink of choice for tests.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of every event received so far.
    pub fn events(&self) -> Vec<Event> {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Removes and returns every collected event.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Number of events received.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.events.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether no events have been received.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Sink for MemorySink {
    fn emit(&self, event: &Event) {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::EventKind;

    fn event(name: &str, level: Level) -> Event {
        Event {
            level,
            kind: EventKind::Instant,
            name: name.to_string(),
            fields: vec![("k".to_string(), crate::Value::from(1u64))],
            unix_ms: 123,
            elapsed_ns: None,
        }
    }

    #[test]
    fn memory_sink_collects_and_takes() {
        let sink = MemorySink::new();
        assert!(sink.is_empty());
        sink.emit(&event("a", Level::Info));
        sink.emit(&event("b", Level::Debug));
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.events()[0].name, "a");
        let taken = sink.take();
        assert_eq!(taken.len(), 2);
        assert!(sink.is_empty());
    }

    #[test]
    fn jsonl_sink_writes_one_valid_line_per_event() {
        let path = std::env::temp_dir().join(format!(
            "telemetry_jsonl_test_{}_{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        {
            let sink = JsonlSink::create(&path).expect("create jsonl file");
            sink.emit(&event("one", Level::Info));
            sink.emit(&event("two", Level::Debug));
            Sink::flush(&sink).expect("the log flushes");
        }
        let text = std::fs::read_to_string(&path).expect("read back");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for (line, name) in lines.iter().zip(["one", "two"]) {
            let doc = crate::json::parse(line).expect("each line is one JSON document");
            assert_eq!(doc.get("ts_ms").and_then(Json::as_u64), Some(123));
            assert_eq!(doc.get("name").and_then(Json::as_str), Some(name));
            let k = doc.get("fields").and_then(|f| f.get("k"));
            assert_eq!(k.and_then(Json::as_u64), Some(1));
        }
        let _ = std::fs::remove_file(&path);
    }

    /// A log that cannot be written is an error at every flush, not a
    /// silent loss.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_failed_jsonl_write_is_reported_at_flush() {
        let sink = JsonlSink::create("/dev/full").expect("/dev/full opens");
        // More than the buffer holds, so a write itself fails.
        for _ in 0..200 {
            sink.emit(&event("one", Level::Info));
        }
        for _ in 0..2 {
            let err = Sink::flush(&sink).expect_err("/dev/full takes no bytes");
            assert_eq!(err.kind(), io::ErrorKind::StorageFull, "{err}");
        }
        let unflushed = JsonlSink::create("/dev/full").expect("/dev/full opens");
        unflushed.emit(&event("one", Level::Info));
        assert!(Sink::flush(&unflushed).is_err(), "the flush's own error");
    }

    #[test]
    fn stderr_sink_respects_its_own_level() {
        // Only checks the filter logic does not panic; output goes to the
        // test harness's captured stderr.
        let sink = StderrSink::new(Level::Warn);
        sink.emit(&event("below-threshold", Level::Debug));
        sink.emit(&event("at-threshold", Level::Warn));
    }
}
