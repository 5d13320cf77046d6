//! Zero-dependency structured tracing, metrics, and run manifests.
//!
//! The whole evaluation of this workspace is model-driven, so its
//! credibility rests on being able to see *how* every figure and table
//! was produced: which model paths ran, with what parameters, in how much
//! time, and with which RNG seeds. This crate is the workspace-wide
//! substrate for that:
//!
//! * **Spans** ([`Span`], [`span!`]) — named regions with wall-clock and
//!   monotonic timing, emitted as `span_start`/`span_end` events.
//! * **Events** ([`Event`], [`debug`]/[`info`]/[`warn`]/[`error`]) —
//!   structured key/value records dispatched to every installed sink.
//! * **Sinks** ([`sink::Sink`]) — a pretty stderr printer, a JSON Lines
//!   file writer, and an in-memory collector for tests.
//! * **Metrics** ([`metrics::Metrics`]) — counters, gauges, and
//!   log-bucketed histograms that `simkit::stats` collectors export into.
//! * **Run manifests** ([`manifest::RunManifest`]) — seed, version,
//!   experiment list, and timing for a reproduction run, written next to
//!   its artifacts in `results/`.
//!
//! The workspace builds from std alone, so everything here is
//! hand-rolled on `std`. When no sink is installed the entire layer is
//! disabled and every emit path reduces to one relaxed atomic load.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use telemetry::sink::MemorySink;
//! use telemetry::{EventKind, Level};
//!
//! let sink = Arc::new(MemorySink::new());
//! telemetry::install(sink.clone());
//! telemetry::set_min_level(Level::Debug);
//!
//! {
//!     let mut span = telemetry::span!("fig8", grid = 160u64);
//!     span.record("rows", 160u64);
//! } // dropping the span emits a span_end event with its duration
//!
//! let events = sink.events();
//! let end = events
//!     .iter()
//!     .find(|e| e.kind == EventKind::SpanEnd && e.name == "fig8")
//!     .expect("span end was recorded");
//! assert!(end.elapsed_ns.is_some());
//! telemetry::reset();
//! ```

pub mod json;
pub mod manifest;
pub mod metrics;
pub mod sink;
pub mod trace;

pub use manifest::RunManifest;
pub use metrics::{Histogram, Metric, MetricKind, Metrics};
pub use sink::Sink;

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Event severity, ordered `Debug < Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Level {
    /// Fine-grained diagnostics (span starts, per-call model events).
    Debug = 0,
    /// Run milestones (span ends, artifacts written).
    Info = 1,
    /// Something surprising but recoverable.
    Warn = 2,
    /// A failure worth surfacing even in `--quiet` runs.
    Error = 3,
}

impl Level {
    /// Lower-case name (`"debug"`, `"info"`, ...).
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A dynamically typed field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Boolean.
    Bool(bool),
    /// Signed integer.
    I64(i64),
    /// Unsigned integer.
    U64(u64),
    /// Float.
    F64(f64),
    /// String.
    Str(String),
}

impl Value {
    /// Renders the value as JSON.
    pub fn to_json(&self) -> String {
        match self {
            Value::Bool(b) => b.to_string(),
            Value::I64(v) => v.to_string(),
            Value::U64(v) => v.to_string(),
            Value::F64(v) => json::number(*v),
            Value::Str(s) => json::string(s),
        }
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::U64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Str(s) => f.write_str(s),
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::I64(i64::from(v))
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// What kind of record an [`Event`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A point-in-time structured record.
    Instant,
    /// A [`Span`] was entered.
    SpanStart,
    /// A [`Span`] finished (carries `elapsed_ns`).
    SpanEnd,
}

impl EventKind {
    /// Snake-case name used in the JSONL schema.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Instant => "event",
            EventKind::SpanStart => "span_start",
            EventKind::SpanEnd => "span_end",
        }
    }
}

/// One structured telemetry record.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Severity.
    pub level: Level,
    /// Record kind.
    pub kind: EventKind,
    /// Event or span name (e.g. `"experiment"`, `"sim.scheduler"`).
    pub name: String,
    /// Key/value payload.
    pub fields: Vec<(String, Value)>,
    /// Wall-clock timestamp, milliseconds since the Unix epoch.
    pub unix_ms: u64,
    /// Monotonic duration for `span_end` records, nanoseconds.
    pub elapsed_ns: Option<u64>,
}

impl Event {
    /// Looks up a field by key.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Renders the event as one JSON object (the JSONL schema: `ts_ms`,
    /// `level`, `kind`, `name`, optional `elapsed_ns`, `fields`).
    pub fn to_json(&self) -> String {
        let mut o = json::JsonObject::new();
        o.field_u64("ts_ms", self.unix_ms)
            .field_str("level", self.level.as_str())
            .field_str("kind", self.kind.as_str())
            .field_str("name", &self.name);
        if let Some(ns) = self.elapsed_ns {
            o.field_u64("elapsed_ns", ns);
        }
        let mut fields = json::JsonObject::new();
        for (k, v) in &self.fields {
            fields.field_raw(k, &v.to_json());
        }
        o.field_raw("fields", &fields.finish());
        o.finish()
    }

    /// Renders a single human-readable line (the stderr sink format).
    pub fn pretty(&self) -> String {
        let mut out = format!("[{:5}] {} {}", self.level, self.kind.as_str(), self.name);
        if let Some(ns) = self.elapsed_ns {
            out.push_str(&format!(" ({:.3} ms)", ns as f64 / 1e6));
        }
        for (k, v) in &self.fields {
            out.push_str(&format!(" {k}={v}"));
        }
        out
    }
}

/// Milliseconds since the Unix epoch right now.
pub fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Global dispatcher.

static ENABLED: AtomicBool = AtomicBool::new(false);
static MIN_LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);
static SINKS: OnceLock<RwLock<Vec<Arc<dyn Sink>>>> = OnceLock::new();

fn sinks() -> &'static RwLock<Vec<Arc<dyn Sink>>> {
    SINKS.get_or_init(|| RwLock::new(Vec::new()))
}

/// Installs a sink; telemetry is enabled once at least one sink is
/// installed.
pub fn install(sink: Arc<dyn Sink>) {
    sinks()
        .write()
        .unwrap_or_else(|e| e.into_inner())
        .push(sink);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Removes every sink and restores the disabled, `Info`-level state
/// (used by tests and at process end).
pub fn reset() {
    ENABLED.store(false, Ordering::Relaxed);
    MIN_LEVEL.store(Level::Info as u8, Ordering::Relaxed);
    sinks().write().unwrap_or_else(|e| e.into_inner()).clear();
}

/// Sets the minimum level dispatched to sinks.
pub fn set_min_level(level: Level) {
    MIN_LEVEL.store(level as u8, Ordering::Relaxed);
}

/// Whether any sink is installed. One relaxed atomic load — the fast
/// path every instrumentation site checks first.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Whether events at `level` would currently be dispatched. Call this
/// before building an expensive field list.
#[inline]
pub fn level_enabled(level: Level) -> bool {
    enabled() && level as u8 >= MIN_LEVEL.load(Ordering::Relaxed)
}

/// Dispatches a fully formed event to every installed sink (no level
/// filtering beyond [`level_enabled`]).
pub fn dispatch(event: &Event) {
    if !level_enabled(event.level) {
        return;
    }
    let guard = sinks().read().unwrap_or_else(|e| e.into_inner());
    for sink in guard.iter() {
        sink.emit(event);
    }
}

/// Flushes every installed sink (call before process exit so buffered
/// JSONL output reaches disk).
///
/// # Errors
///
/// Returns the first sink's error, after flushing every sink.
pub fn flush() -> std::io::Result<()> {
    let guard = sinks().read().unwrap_or_else(|e| e.into_inner());
    guard
        .iter()
        .map(|sink| sink.flush())
        .fold(Ok(()), Result::and)
}

/// Emits a point-in-time event.
pub fn emit(level: Level, name: &str, fields: Vec<(String, Value)>) {
    if !level_enabled(level) {
        return;
    }
    dispatch(&Event {
        level,
        kind: EventKind::Instant,
        name: name.to_string(),
        fields,
        unix_ms: unix_ms(),
        elapsed_ns: None,
    });
}

/// Emits a [`Level::Debug`] event.
pub fn debug(name: &str, fields: Vec<(String, Value)>) {
    emit(Level::Debug, name, fields);
}

/// Emits a [`Level::Info`] event.
pub fn info(name: &str, fields: Vec<(String, Value)>) {
    emit(Level::Info, name, fields);
}

/// Emits a [`Level::Warn`] event.
#[cfg(test)]
pub fn warn(name: &str, fields: Vec<(String, Value)>) {
    emit(Level::Warn, name, fields);
}

/// Emits a [`Level::Error`] event.
pub fn error(name: &str, fields: Vec<(String, Value)>) {
    emit(Level::Error, name, fields);
}

// ---------------------------------------------------------------------------
// Spans.

/// A timed region. Entering emits a `span_start` (at debug level);
/// dropping (or [`Span::exit`]) emits a `span_end` at info level with
/// the recorded fields plus wall-clock and monotonic timing.
#[derive(Debug)]
pub struct Span {
    name: String,
    fields: Vec<(String, Value)>,
    start: Instant,
    closed: bool,
}

impl Span {
    /// Enters a named span.
    pub fn enter(name: &str) -> Span {
        let span = Span {
            name: name.to_string(),
            fields: Vec::new(),
            start: Instant::now(),
            closed: false,
        };
        if level_enabled(Level::Debug) {
            dispatch(&Event {
                level: Level::Debug,
                kind: EventKind::SpanStart,
                name: span.name.clone(),
                fields: Vec::new(),
                unix_ms: unix_ms(),
                elapsed_ns: None,
            });
        }
        span
    }

    /// Attaches a field, reported on the `span_end` event.
    pub fn record(&mut self, key: &str, value: impl Into<Value>) {
        self.fields.push((key.to_string(), value.into()));
    }

    /// Ends the span explicitly, returning its duration.
    pub fn exit(mut self) -> Duration {
        self.finish();
        self.start.elapsed()
    }

    fn finish(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        if level_enabled(Level::Info) {
            dispatch(&Event {
                level: Level::Info,
                kind: EventKind::SpanEnd,
                name: self.name.clone(),
                fields: std::mem::take(&mut self.fields),
                unix_ms: unix_ms(),
                elapsed_ns: Some(self.start.elapsed().as_nanos() as u64),
            });
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Enters a [`Span`], optionally recording initial fields:
/// `span!("fig8")` or `span!("experiment", id = "fig8", rows = 160u64)`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::Span::enter($name)
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {{
        let mut span = $crate::Span::enter($name);
        $(span.record(stringify!($key), $value);)+
        span
    }};
}

#[cfg(test)]
mod tests {
    use super::sink::MemorySink;
    use super::*;
    use std::sync::Mutex;

    // The dispatcher is global; serialize tests that install sinks.
    static GLOBAL: Mutex<()> = Mutex::new(());

    fn with_memory_sink(f: impl FnOnce(&MemorySink)) {
        let _guard = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        let sink = Arc::new(MemorySink::new());
        install(sink.clone());
        set_min_level(Level::Debug);
        f(&sink);
        reset();
    }

    #[test]
    fn disabled_by_default_and_after_reset() {
        let _guard = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        assert!(!enabled());
        assert!(!level_enabled(Level::Error));
        // Emitting while disabled is a no-op, not a panic.
        info("nobody-listens", vec![]);
        let span = Span::enter("quiet");
        drop(span);
    }

    #[test]
    fn events_reach_installed_sinks_with_fields() {
        with_memory_sink(|sink| {
            info(
                "artifact.written",
                vec![("path".to_string(), Value::from("results/fig8.txt"))],
            );
            let events = sink.events();
            assert_eq!(events.len(), 1);
            assert_eq!(events[0].name, "artifact.written");
            assert_eq!(
                events[0].field("path"),
                Some(&Value::Str("results/fig8.txt".to_string()))
            );
        });
    }

    #[test]
    fn min_level_filters() {
        with_memory_sink(|sink| {
            set_min_level(Level::Warn);
            debug("d", vec![]);
            info("i", vec![]);
            warn("w", vec![]);
            error("e", vec![]);
            let names: Vec<String> = sink.events().into_iter().map(|e| e.name).collect();
            assert_eq!(names, vec!["w", "e"]);
        });
    }

    #[test]
    fn span_emits_start_and_end_with_elapsed() {
        with_memory_sink(|sink| {
            {
                let mut span = span!("fig8", grid = 160u64);
                span.record("rows", 160u64);
            }
            let events = sink.events();
            assert_eq!(events.len(), 2);
            assert_eq!(events[0].kind, EventKind::SpanStart);
            let end = &events[1];
            assert_eq!(end.kind, EventKind::SpanEnd);
            assert_eq!(end.name, "fig8");
            assert_eq!(end.field("grid"), Some(&Value::U64(160)));
            assert_eq!(end.field("rows"), Some(&Value::U64(160)));
            assert!(end.elapsed_ns.is_some());
        });
    }

    #[test]
    fn span_exit_is_idempotent_with_drop() {
        with_memory_sink(|sink| {
            let span = Span::enter("once");
            let dur = span.exit();
            assert!(dur.as_nanos() > 0);
            let ends = sink
                .events()
                .into_iter()
                .filter(|e| e.kind == EventKind::SpanEnd)
                .count();
            assert_eq!(ends, 1, "exit + drop must emit exactly one span_end");
        });
    }

    #[test]
    fn event_json_schema_is_stable() {
        let ev = Event {
            level: Level::Info,
            kind: EventKind::SpanEnd,
            name: "experiment".to_string(),
            fields: vec![
                ("id".to_string(), Value::from("fig8")),
                ("rows".to_string(), Value::from(160u64)),
            ],
            unix_ms: 1700000000000,
            elapsed_ns: Some(1_500_000),
        };
        assert_eq!(
            ev.to_json(),
            r#"{"ts_ms":1700000000000,"level":"info","kind":"span_end","name":"experiment","elapsed_ns":1500000,"fields":{"id":"fig8","rows":160}}"#
        );
        assert!(ev.pretty().contains("experiment"));
        assert!(ev.pretty().contains("id=fig8"));
    }

    #[test]
    fn value_conversions_and_json() {
        assert_eq!(Value::from(3usize), Value::U64(3));
        assert_eq!(Value::from(-2i32), Value::I64(-2));
        assert_eq!(Value::from(true).to_json(), "true");
        assert_eq!(Value::from("a\"b").to_json(), "\"a\\\"b\"");
        assert_eq!(Value::from(f64::NAN).to_json(), "null");
    }
}
