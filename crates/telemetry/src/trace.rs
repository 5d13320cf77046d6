//! Deterministic flight recorder: sim-time-stamped causal trace events.
//!
//! The simulator's end-of-run aggregates (`SimReport`, `FaultSummary`)
//! cannot answer *where* a frame spent its latency or *why* it was
//! lost. This module is the observability substrate for that: the sim
//! engine records one [`TraceEvent`] per lifecycle step — sensed, hop,
//! retry, reroute, enqueued, served, shed, lost — each stamped with
//! **simulation time** (never the host clock), linked to its causal
//! parent event, and tagged with a machine-readable [`TraceCause`].
//!
//! A [`Recorder`] keeps the most recent events in a bounded ring and
//! optionally writes every event to a JSONL file, which turns a run
//! into a replayable flight log. The recorder draws no
//! randomness and stamps no wall clock, so two same-seed recorded runs
//! produce byte-identical logs — and a run with recording off is
//! bit-for-bit the run that never knew the recorder existed.
//!
//! [`TraceLog`] parses a recorded JSONL file back into events and
//! answers the analysis questions behind `repro trace <path>`: per-hop
//! latency breakdown, critical-path extraction, loss attribution by
//! cause, and the top-k slowest frames. Its counts come from a
//! [`TraceTally`], the same tally the engine folds its report from.
//!
//! ```
//! use telemetry::trace::{Recorder, TraceEvent, TraceKind, TraceRecord};
//!
//! let rec = Recorder::new(1024);
//! let sensed = rec.record(TraceRecord::at(0.25, TraceKind::Sensed).frame(1).unit(3));
//! rec.record(
//!     TraceRecord::at(0.75, TraceKind::Served)
//!         .frame(1)
//!         .unit(0)
//!         .parent(sensed)
//!         .value(0.5),
//! );
//! assert_eq!(rec.len(), 2);
//! let mut line = Vec::new();
//! rec.events()[1].write_jsonl(&mut line).unwrap();
//! let back = TraceEvent::parse_line(std::str::from_utf8(&line).unwrap().trim_end()).unwrap();
//! assert_eq!(back.kind, TraceKind::Served);
//! ```

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

use crate::json::{self, Json};

/// Name prefix of trace events in the shared JSONL schema
/// (`"name":"trace.<kind>"`), keeping them distinguishable from
/// ordinary telemetry when both share a file.
pub const EVENT_PREFIX: &str = "trace.";

/// One step of a frame's lifecycle (or a timeline snapshot).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceKind {
    /// A satellite imaged a frame (every generated frame starts here).
    Sensed,
    /// The discard policy dropped the frame at the source. Sense and
    /// drop happen at the same sim instant, so this is the frame's
    /// *only* event (no separate [`Sensed`](Self::Sensed) root) — the
    /// dominant ~95%-of-frames path stays one record, not two.
    Discarded,
    /// Backlog-triggered load shedding dropped the frame at the source.
    Shed,
    /// The frame crossed one ISL; `value` is the full per-hop latency
    /// (queue wait + transmission + propagation), `unit` the sender.
    Hop,
    /// An outage-blocked transmission backs off; `value` is the delay.
    Retry,
    /// The frame fell back to another route (dead link or dead SµDC).
    Reroute,
    /// Every route died: the frame was dropped in the network.
    Undeliverable,
    /// The frame entered a SµDC compute queue; `value` is queue wait
    /// plus service time, `unit` the cluster.
    Enqueued,
    /// The SµDC produced good output; `value` is end-to-end latency.
    Served,
    /// The SµDC's output was silently ruined by an SEU; `value` is
    /// end-to-end latency.
    Corrupted,
    /// The frame (in flight or in queue) died with a failed cluster.
    LostCluster,
    /// Timeline: total in-flight backlog, bits (`value`).
    SnapshotNet,
    /// Timeline: ISL links currently up (`value`) of `unit` modelled.
    SnapshotLinks,
    /// Timeline: cluster `unit`'s queue depth in seconds of work
    /// (`value`); `cause` is `ClusterDown` while the unit is out.
    SnapshotCluster,
    /// A tenant's inference request arrived at its ground-entry
    /// satellite (`unit`); every serving-layer lifecycle starts here.
    ReqArrived,
    /// The per-tenant admission controller accepted the request.
    ReqAdmitted,
    /// Admission refused the request (token bucket empty or
    /// backlog-triggered class shedding); a terminal loss.
    ReqRejected,
    /// The request joined a dispatched batch at a SµDC (`unit` is the
    /// cluster, `value` the batch size it rode in).
    ReqBatched,
    /// The SµDC finished the request inside its SLO deadline; `value`
    /// is end-to-end latency.
    ReqCompleted,
    /// The request finished but blew its SLO deadline (or was ruined
    /// by an SEU); `value` is end-to-end latency.
    SloViolated,
}

/// Every kind, in declaration order (schema iteration for tests and
/// reports).
pub const KINDS: &[TraceKind] = &[
    TraceKind::Sensed,
    TraceKind::Discarded,
    TraceKind::Shed,
    TraceKind::Hop,
    TraceKind::Retry,
    TraceKind::Reroute,
    TraceKind::Undeliverable,
    TraceKind::Enqueued,
    TraceKind::Served,
    TraceKind::Corrupted,
    TraceKind::LostCluster,
    TraceKind::SnapshotNet,
    TraceKind::SnapshotLinks,
    TraceKind::SnapshotCluster,
    TraceKind::ReqArrived,
    TraceKind::ReqAdmitted,
    TraceKind::ReqRejected,
    TraceKind::ReqBatched,
    TraceKind::ReqCompleted,
    TraceKind::SloViolated,
];

impl TraceKind {
    /// Snake-case name used in the JSONL schema.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceKind::Sensed => "sensed",
            TraceKind::Discarded => "discarded",
            TraceKind::Shed => "shed",
            TraceKind::Hop => "hop",
            TraceKind::Retry => "retry",
            TraceKind::Reroute => "reroute",
            TraceKind::Undeliverable => "undeliverable",
            TraceKind::Enqueued => "enqueued",
            TraceKind::Served => "served",
            TraceKind::Corrupted => "corrupted",
            TraceKind::LostCluster => "lost_cluster",
            TraceKind::SnapshotNet => "snapshot_net",
            TraceKind::SnapshotLinks => "snapshot_links",
            TraceKind::SnapshotCluster => "snapshot_cluster",
            TraceKind::ReqArrived => "req_arrived",
            TraceKind::ReqAdmitted => "req_admitted",
            TraceKind::ReqRejected => "req_rejected",
            TraceKind::ReqBatched => "req_batched",
            TraceKind::ReqCompleted => "req_completed",
            TraceKind::SloViolated => "slo_violated",
        }
    }

    /// Inverse of [`as_str`](Self::as_str).
    pub fn from_name(name: &str) -> Option<TraceKind> {
        KINDS.iter().copied().find(|k| k.as_str() == name)
    }

    /// Whether this kind ends a frame's lifecycle.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            TraceKind::Discarded
                | TraceKind::Shed
                | TraceKind::Undeliverable
                | TraceKind::Served
                | TraceKind::Corrupted
                | TraceKind::LostCluster
                | TraceKind::ReqRejected
                | TraceKind::ReqCompleted
                | TraceKind::SloViolated
        )
    }

    /// Whether this kind is a *loss* terminal — a kept frame that never
    /// produced good output (discards are policy, not loss).
    pub fn is_loss(self) -> bool {
        matches!(
            self,
            TraceKind::Shed
                | TraceKind::Undeliverable
                | TraceKind::Corrupted
                | TraceKind::LostCluster
                | TraceKind::ReqRejected
        )
    }
}

/// Machine-readable reason attached to retries, reroutes, and losses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceCause {
    /// The early-discard coin at the configured rate.
    Policy,
    /// Backlog crossed the graceful-degradation shedding threshold.
    Backlog,
    /// An ISL outage window.
    LinkDown,
    /// A SµDC outage (stochastic window or injected failure).
    ClusterDown,
    /// The retry budget ran out in both routing directions.
    RetriesExhausted,
    /// A rerouted frame exceeded the ring-walk hop bound.
    HopLimit,
    /// A single-event upset silently corrupted the output.
    Seu,
    /// A tenant's admission token bucket ran dry (rate throttling).
    Throttled,
}

/// Every cause, in declaration order.
pub const CAUSES: &[TraceCause] = &[
    TraceCause::Policy,
    TraceCause::Backlog,
    TraceCause::LinkDown,
    TraceCause::ClusterDown,
    TraceCause::RetriesExhausted,
    TraceCause::HopLimit,
    TraceCause::Seu,
    TraceCause::Throttled,
];

impl TraceKind {
    /// Dense code for the packed [`TraceRecord`] representation.
    #[inline]
    fn code(self) -> u8 {
        // Fieldless enum in `KINDS` declaration order.
        self as u8
    }

    #[inline]
    fn from_code(code: u8) -> TraceKind {
        KINDS
            .get(code as usize)
            .copied()
            .unwrap_or(TraceKind::Sensed)
    }
}

impl TraceCause {
    /// Snake-case name used in the JSONL schema.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceCause::Policy => "policy",
            TraceCause::Backlog => "backlog",
            TraceCause::LinkDown => "link_down",
            TraceCause::ClusterDown => "cluster_down",
            TraceCause::RetriesExhausted => "retries_exhausted",
            TraceCause::HopLimit => "hop_limit",
            TraceCause::Seu => "seu",
            TraceCause::Throttled => "throttled",
        }
    }

    /// Inverse of [`as_str`](Self::as_str).
    pub fn from_name(name: &str) -> Option<TraceCause> {
        CAUSES.iter().copied().find(|c| c.as_str() == name)
    }

    /// Dense code for the packed forms: 0 is reserved for "no cause",
    /// so a cause's code is its `CAUSES` index plus one.
    #[inline]
    fn code(self) -> u8 {
        self as u8 + 1
    }
}

/// One recorded flight-recorder event. `seq` is assigned by the
/// [`Recorder`] and doubles as the causal address other events point
/// at through `parent`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Recorder-assigned sequence number (1-based; 0 = unassigned).
    pub seq: u64,
    /// Simulation time, seconds.
    pub t_s: f64,
    /// Lifecycle step or snapshot kind.
    pub kind: TraceKind,
    /// Frame id (the engine's generation counter), absent on snapshots.
    pub frame: Option<u64>,
    /// Satellite or cluster index, depending on `kind`.
    pub unit: Option<u64>,
    /// Why it happened, where a reason exists.
    pub cause: Option<TraceCause>,
    /// `seq` of the causally preceding event for the same frame.
    pub parent: Option<u64>,
    /// Kind-specific measurement (latency, delay, depth, backlog).
    pub value: Option<f64>,
}

impl TraceEvent {
    /// Writes the event as one line of the telemetry JSONL schema,
    /// newline included:
    /// `{"ts_ms":…,"level":"debug","kind":"event","name":"trace.<kind>","fields":{…}}`.
    /// `ts_ms` carries **sim-time milliseconds** (derived from `t_s`),
    /// never the host clock, so recorded logs are seed-deterministic.
    /// `fields` holds `seq` and `t_s`, then each present optional field
    /// in declaration order; floats go through [`json::write_number`].
    ///
    /// # Errors
    ///
    /// Returns any error from writing to `w`.
    pub fn write_jsonl(&self, w: &mut impl Write) -> io::Result<()> {
        write!(
            w,
            "{{\"ts_ms\":{},\"level\":\"debug\",\"kind\":\"event\",\"name\":\"{EVENT_PREFIX}{}\",\"fields\":{{\"seq\":{},\"t_s\":",
            (self.t_s * 1e3) as u64,
            self.kind.as_str(),
            self.seq,
        )?;
        json::write_number(w, self.t_s)?;
        if let Some(frame) = self.frame {
            write!(w, ",\"frame\":{frame}")?;
        }
        if let Some(unit) = self.unit {
            write!(w, ",\"unit\":{unit}")?;
        }
        if let Some(cause) = self.cause {
            // Cause names are plain snake case: nothing to escape.
            write!(w, ",\"cause\":\"{}\"", cause.as_str())?;
        }
        if let Some(parent) = self.parent {
            write!(w, ",\"parent\":{parent}")?;
        }
        if let Some(value) = self.value {
            w.write_all(b",\"value\":")?;
            json::write_number(w, value)?;
        }
        w.write_all(b"}}\n")
    }

    /// Parses one JSONL line that [`write_jsonl`](Self::write_jsonl)
    /// wrote. Returns `None` for lines that are not trace events (other
    /// telemetry sharing the file is skipped, not an error) and for
    /// malformed ones.
    pub fn parse_line(line: &str) -> Option<TraceEvent> {
        let root = json::parse(line).ok()?;
        let kind = TraceKind::from_name(root.get("name")?.as_str()?.strip_prefix(EVENT_PREFIX)?)?;
        let fields = root.get("fields")?;
        // An absent id is `None`; a present one must be a u64.
        let id = |key: &str| fields.get(key).map_or(Some(None), |v| v.as_u64().map(Some));
        Some(TraceEvent {
            seq: fields.get("seq")?.as_u64()?,
            t_s: fields.get("t_s").map_or(Some(0.0), Json::as_f64)?,
            kind,
            frame: id("frame")?,
            unit: id("unit")?,
            cause: fields
                .get("cause")
                .and_then(Json::as_str)
                .and_then(TraceCause::from_name),
            parent: id("parent")?,
            value: fields.get("value").and_then(Json::as_f64),
        })
    }
}

/// The packed, in-flight form of a trace event — what producers build
/// and what the [`Recorder`] ring stores. 32 bytes instead of
/// [`TraceEvent`]'s Option-heavy ~96, and no `seq` field at all: a
/// record's sequence number is its position in the recorder's stream
/// (batch base + offset), so the hot path never writes one.
///
/// Producers build records with the builder methods below;
/// [`expand`](Self::expand) produces the rich analysis form. Absent fields use in-band
/// sentinels (`u32::MAX` frame, `u16::MAX` unit, `parent == 0`, NaN
/// value), which [`expand`](Self::expand) maps back to `None`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    t_s: f64,
    /// NaN = absent; the sim only ever records finite measurements.
    value: f64,
    parent: u64,
    frame: u32,
    unit: u16,
    kind_code: u8,
    /// 0 = none, else index into [`CAUSES`] plus one.
    cause_code: u8,
}

const NO_FRAME: u32 = u32::MAX;
const NO_UNIT: u16 = u16::MAX;

impl TraceRecord {
    /// Starts a record at sim time `t_s` with every payload field
    /// empty; chain the builder methods to fill them in.
    #[inline]
    pub fn at(t_s: f64, kind: TraceKind) -> TraceRecord {
        TraceRecord {
            t_s,
            value: f64::NAN,
            parent: 0,
            frame: NO_FRAME,
            unit: NO_UNIT,
            kind_code: kind.code(),
            cause_code: 0,
        }
    }

    /// Attaches the frame id (ids above `u32::MAX - 1` saturate into
    /// the "absent" sentinel; the engine's counters stay far below it).
    #[inline]
    pub fn frame(mut self, id: u64) -> TraceRecord {
        self.frame = id.min(u64::from(NO_FRAME)) as u32;
        self
    }

    /// Attaches the satellite/cluster index (indices above
    /// `u16::MAX - 1` saturate into the "absent" sentinel; constellation
    /// sizes stay far below it).
    #[inline]
    pub fn unit(mut self, unit: usize) -> TraceRecord {
        self.unit = (unit as u64).min(u64::from(NO_UNIT)) as u16;
        self
    }

    /// Attaches the cause.
    #[inline]
    pub fn cause(mut self, cause: TraceCause) -> TraceRecord {
        self.cause_code = cause.code();
        self
    }

    /// Links the causal parent (`seq` of the preceding event; 0 — the
    /// never-assigned seq — means no parent).
    #[inline]
    pub fn parent(mut self, seq: u64) -> TraceRecord {
        self.parent = seq;
        self
    }

    /// Attaches the kind-specific measurement (must be finite — NaN is
    /// the in-band "absent" sentinel, and the sim has no NaN metrics).
    #[inline]
    pub fn value(mut self, v: f64) -> TraceRecord {
        debug_assert!(!v.is_nan(), "NaN is the absent-value sentinel");
        self.value = v;
        self
    }

    /// Expands into the rich analysis form under sequence number `seq`.
    pub fn expand(&self, seq: u64) -> TraceEvent {
        TraceEvent {
            seq,
            t_s: self.t_s,
            kind: TraceKind::from_code(self.kind_code),
            frame: (self.frame != NO_FRAME).then(|| u64::from(self.frame)),
            unit: (self.unit != NO_UNIT).then(|| u64::from(self.unit)),
            cause: self
                .cause_code
                .checked_sub(1)
                .and_then(|i| CAUSES.get(i as usize).copied()),
            parent: (self.parent != 0).then_some(self.parent),
            value: (!self.value.is_nan()).then_some(self.value),
        }
    }
}

/// Lifecycle records counted by kind and cause: the one accounting the
/// simulator and the log analysis share. The sim engine tallies every
/// record it emits, recording on or off, and reads its report counters
/// out of the tally; [`TraceLog`] runs the same tally over a parsed
/// log. A log's loss table therefore equals the run's fault summary by
/// construction.
#[derive(Debug, Clone, Default)]
pub struct TraceTally {
    /// Records by kind code.
    kinds: [u64; KINDS.len()],
    /// Loss records by cause code; code 0 is "no cause".
    losses: [u64; CAUSES.len() + 1],
}

impl TraceTally {
    /// Counts one record.
    #[inline(always)]
    pub fn add(&mut self, rec: &TraceRecord) {
        self.add_codes(rec.kind_code, rec.cause_code);
    }

    fn add_event(&mut self, ev: &TraceEvent) {
        self.add_codes(ev.kind.code(), ev.cause.map_or(0, TraceCause::code));
    }

    #[inline(always)]
    fn add_codes(&mut self, kind: u8, cause: u8) {
        self.kinds[kind as usize] += 1;
        if TraceKind::from_code(kind).is_loss() {
            self.losses[cause as usize] += 1;
        }
    }

    /// Records of one kind.
    pub fn count(&self, kind: TraceKind) -> u64 {
        self.kinds[kind.code() as usize]
    }

    /// Loss records ([`TraceKind::is_loss`]) grouped by cause label;
    /// losses without a cause count as `"unattributed"`. Causes with no
    /// loss are absent.
    pub fn losses(&self) -> BTreeMap<&'static str, u64> {
        let labels = std::iter::once("unattributed").chain(CAUSES.iter().map(|c| c.as_str()));
        labels.zip(self.losses).filter(|&(_, n)| n > 0).collect()
    }

    /// Adds `other`'s counts to this tally.
    pub fn merge(&mut self, other: &TraceTally) {
        for (n, m) in self.kinds.iter_mut().zip(other.kinds) {
            *n += m;
        }
        for (n, m) in self.losses.iter_mut().zip(other.losses) {
            *n += m;
        }
    }
}

struct Inner {
    /// Flat circular storage: grows lazily to `capacity`, then `head`
    /// wraps and new records overwrite the oldest in place. No
    /// per-record allocation, ever — after the first wrap the ring's
    /// memory is fixed and warm.
    buf: Vec<TraceRecord>,
    /// Next write position once `buf` has reached capacity; during the
    /// grow phase it trails `buf.len()`.
    head: usize,
    next_seq: u64,
    /// The JSONL flight log every record is written to, if any. Written
    /// under the ring's lock, so the file holds records in `seq` order.
    log: Option<BufWriter<File>>,
    /// The first write error; the log stops there and
    /// [`Recorder::flush`] reports it.
    log_error: Option<io::Error>,
}

impl Inner {
    /// Appends `events` in order, overwriting the oldest records past
    /// `cap`. Bulk slice copies — the cost per record is one 32-byte
    /// memcpy, which is what keeps batched recording cheap.
    fn push_slice(&mut self, cap: usize, events: &[TraceRecord]) {
        self.next_seq += events.len() as u64;
        // A chunk larger than the whole ring keeps only its tail.
        let mut src = if events.len() > cap {
            &events[events.len() - cap..]
        } else {
            events
        };
        if self.buf.len() < cap {
            let take = src.len().min(cap - self.buf.len());
            self.buf.extend_from_slice(&src[..take]);
            src = &src[take..];
            self.head = self.buf.len() % cap;
        }
        if src.is_empty() {
            return;
        }
        let first = src.len().min(cap - self.head);
        self.buf[self.head..self.head + first].copy_from_slice(&src[..first]);
        let rest = src.len() - first;
        self.buf[..rest].copy_from_slice(&src[first..]);
        self.head = (self.head + src.len()) % cap;
    }

    /// Writes `events`, numbered from `base`, to the log (if any).
    fn write_log(&mut self, base: u64, events: &[TraceRecord]) {
        let Some(w) = &mut self.log else { return };
        let written = events
            .iter()
            .zip(base..)
            .try_for_each(|(ev, seq)| ev.expand(seq).write_jsonl(w));
        if let Err(e) = written {
            // A log with a hole in it replays nothing: stop writing.
            self.log = None;
            self.log_error = Some(e);
        }
    }

    /// Records evicted so far: everything numbered minus everything
    /// retained.
    fn dropped(&self) -> u64 {
        self.next_seq - 1 - self.buf.len() as u64
    }
}

/// A bounded, thread-safe flight recorder. Keeps the most recent
/// `capacity` events in a ring (drop-oldest) and, when built with
/// [`to_file`](Self::to_file), writes every event to a JSONL flight log
/// as it is recorded, so the log is complete even when the ring wraps.
///
/// The recorder is deliberately *not* wired into the global telemetry
/// dispatcher: a flight log must stay pure trace (no interleaved
/// harness events) and must not be gated by the global min-level.
pub struct Recorder {
    capacity: usize,
    cadence_s: Option<f64>,
    inner: Mutex<Inner>,
}

impl Recorder {
    /// An in-memory recorder keeping the last `capacity` events
    /// (minimum 1).
    pub fn new(capacity: usize) -> Recorder {
        Recorder {
            capacity: capacity.max(1),
            cadence_s: None,
            inner: Mutex::new(Inner {
                buf: Vec::new(),
                head: 0,
                next_seq: 1,
                log: None,
                log_error: None,
            }),
        }
    }

    /// A recorder that additionally writes every event to a JSONL
    /// flight log at `path` (created, or truncated). The log is
    /// buffered: call [`flush`](Self::flush) before reading it back
    /// (dropping the recorder flushes too, but drops any error).
    ///
    /// # Errors
    ///
    /// Returns any filesystem error from creating the file.
    pub fn to_file(capacity: usize, path: &Path) -> io::Result<Recorder> {
        let log = BufWriter::new(File::create(path)?);
        let rec = Recorder::new(capacity);
        rec.lock().log = Some(log);
        Ok(rec)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enables the metrics timeline at a sim-time cadence in seconds
    /// (builder style; non-positive or non-finite cadences disable it).
    pub fn timeline(mut self, cadence_s: f64) -> Recorder {
        self.cadence_s = (cadence_s > 0.0 && cadence_s.is_finite()).then_some(cadence_s);
        self
    }

    /// The configured timeline cadence, if any.
    pub fn timeline_cadence_s(&self) -> Option<f64> {
        self.cadence_s
    }

    /// Records one event: assigns its `seq`, appends it to the ring
    /// (dropping the oldest past capacity), writes it to the log, and
    /// returns the assigned `seq` for parent linkage.
    pub fn record(&self, ev: TraceRecord) -> u64 {
        let mut inner = self.lock();
        let seq = inner.next_seq;
        inner.write_log(seq, std::slice::from_ref(&ev));
        inner.push_slice(self.capacity, std::slice::from_ref(&ev));
        seq
    }

    /// `seq` of the most recently recorded event (0 when none yet).
    /// A single producer batching locally can predict its events'
    /// numbers — `last_seq() + 1`, `+ 2`, … — and hand them over later
    /// via [`Recorder::record_batch`].
    pub fn last_seq(&self) -> u64 {
        self.lock().next_seq - 1
    }

    /// Appends a whole producer batch under one lock, then clears
    /// `events` (its capacity survives, so a producer's scratch buffer
    /// stays allocation-free and cache-warm run after run). The log, if
    /// any, gets every record first; a batch of exactly the ring's size
    /// then replaces the ring by a pointer swap, any other by bulk slice
    /// copies. Events are numbered consecutively from the recorder's
    /// current sequence, matching what a single producer predicted from
    /// [`Recorder::last_seq`].
    pub fn record_batch(&self, events: &mut Vec<TraceRecord>) {
        if events.is_empty() {
            return;
        }
        let mut inner = self.lock();
        let base = inner.next_seq;
        inner.write_log(base, events);
        if events.len() == self.capacity {
            // Zero-copy fast path: a batch exactly the ring's size
            // evicts every retained record anyway, so the ring takes
            // the producer's Vec wholesale and hands its old storage
            // back as the producer's next scratch buffer.
            inner.next_seq += events.len() as u64;
            std::mem::swap(&mut inner.buf, events);
            inner.head = 0;
        } else {
            inner.push_slice(self.capacity, events);
        }
        drop(inner);
        events.clear();
    }

    /// The batch size a producer should buffer before calling
    /// [`record_batch`](Self::record_batch): the ring's capacity (so a
    /// full batch takes the zero-copy path), clamped to keep producer
    /// scratch buffers reasonable against tiny or enormous rings.
    pub fn batch_hint(&self) -> usize {
        self.capacity.clamp(64, 8192)
    }

    /// Snapshot of the ring, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        let inner = self.lock();
        let n = inner.buf.len();
        if n == 0 {
            return Vec::new();
        }
        // During the grow phase `head == n`, so `start` is 0; once the
        // ring has wrapped, the oldest retained record sits at `head`.
        let start = inner.head % n;
        let oldest = inner.next_seq - n as u64;
        (0..n)
            .map(|i| inner.buf[(start + i) % n].expand(oldest + i as u64))
            .collect()
    }

    /// Events currently held in the ring.
    pub fn len(&self) -> usize {
        self.lock().buf.len()
    }

    /// Whether nothing has been recorded (or everything was dropped).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted from the ring so far (still in the log, if any).
    pub fn dropped(&self) -> u64 {
        self.lock().dropped()
    }

    /// Flushes the log (call before reading it back).
    ///
    /// # Errors
    ///
    /// Returns the first error writing the log met, or the flush's own.
    pub fn flush(&self) -> io::Result<()> {
        let mut inner = self.lock();
        if let Some(e) = inner.log_error.take() {
            return Err(e);
        }
        inner.log.as_mut().map_or(Ok(()), Write::flush)
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("capacity", &self.capacity)
            .field("cadence_s", &self.cadence_s)
            .field("len", &self.len())
            .finish()
    }
}

/// Aggregate statistics for one lifecycle transition (e.g.
/// `sensed→hop`), accumulated over every frame's critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// `<from>→<to>` label of the transition.
    pub label: String,
    /// Transitions observed.
    pub count: u64,
    /// Total sim-time spent in this transition, seconds.
    pub total_s: f64,
    /// Largest single transition, seconds.
    pub max_s: f64,
}

impl Segment {
    /// Mean time per transition.
    pub fn mean_s(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_s / self.count as f64
        }
    }
}

/// A parsed flight log plus the analyses `repro trace` runs on it.
///
/// Construction makes one pass over the events: it runs the
/// [`TraceTally`] the engine keeps and builds a frame index. Every
/// analysis then reads the tally or the index, and a parent lookup is a
/// binary search over the `seq`-sorted events, so analysing a whole log
/// costs O(n log n).
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    /// Every trace event, sorted by `seq`.
    events: Vec<TraceEvent>,
    tally: TraceTally,
    /// `(frame, index into events)` for every event that carries a
    /// frame, sorted: each frame's events form one run in `seq` order.
    by_frame: Vec<(u64, usize)>,
}

impl TraceLog {
    /// Builds a log from in-memory events (a recorder ring snapshot).
    pub fn from_events(mut events: Vec<TraceEvent>) -> TraceLog {
        events.sort_by_key(|e| e.seq);
        let mut tally = TraceTally::default();
        let mut by_frame = Vec::new();
        for (i, ev) in events.iter().enumerate() {
            tally.add_event(ev);
            if let Some(frame) = ev.frame {
                by_frame.push((frame, i));
            }
        }
        by_frame.sort_unstable();
        TraceLog {
            events,
            tally,
            by_frame,
        }
    }

    /// Parses JSONL text, skipping lines that are not trace events.
    pub fn parse(text: &str) -> TraceLog {
        TraceLog::from_events(text.lines().filter_map(TraceEvent::parse_line).collect())
    }

    /// Reads and parses a JSONL flight log from disk, one line at a
    /// time, so only the parsed events are ever held in memory.
    ///
    /// # Errors
    ///
    /// Returns any filesystem error from reading the file, and an
    /// `InvalidData` error for a line that is not UTF-8.
    pub fn read_path(path: &Path) -> io::Result<TraceLog> {
        let mut events = Vec::new();
        for line in BufReader::new(File::open(path)?).lines() {
            events.extend(TraceEvent::parse_line(&line?));
        }
        Ok(TraceLog::from_events(events))
    }

    /// Total events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Every frame id in the log, ascending.
    pub fn frame_ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.by_frame
            .chunk_by(|a, b| a.0 == b.0)
            .map(|run| run[0].0)
    }

    /// Frame-indexed view: frame id → its events in `seq` order.
    pub fn frames(&self) -> BTreeMap<u64, Vec<&TraceEvent>> {
        let mut out: BTreeMap<u64, Vec<&TraceEvent>> = BTreeMap::new();
        for &(frame, i) in &self.by_frame {
            out.entry(frame).or_default().push(&self.events[i]);
        }
        out
    }

    /// One frame's events in `seq` order.
    fn frame_events(&self, frame: u64) -> impl DoubleEndedIterator<Item = &TraceEvent> {
        let lo = self.by_frame.partition_point(|&(f, _)| f < frame);
        let hi = self.by_frame.partition_point(|&(f, _)| f <= frame);
        self.by_frame[lo..hi].iter().map(|&(_, i)| &self.events[i])
    }

    /// The event numbered `seq` (the last one, should a log repeat a
    /// number).
    fn by_seq(&self, seq: u64) -> Option<&TraceEvent> {
        let end = self.events.partition_point(|e| e.seq <= seq);
        end.checked_sub(1)
            .map(|i| &self.events[i])
            .filter(|e| e.seq == seq)
    }

    /// The frame's terminal event, if it reached one.
    pub fn terminal(&self, frame: u64) -> Option<&TraceEvent> {
        self.frame_events(frame)
            .rev()
            .find(|e| e.kind.is_terminal())
    }

    /// Walks `parent` links backwards from the frame's terminal event
    /// and returns the causal chain oldest-first. The chain stops
    /// early if an ancestor was evicted from a ring-only log, or at a
    /// link that does not point to an earlier event (the recorder only
    /// writes backward links, so a malformed log cannot loop).
    pub fn critical_path(&self, frame: u64) -> Vec<&TraceEvent> {
        let mut chain = Vec::new();
        let mut cursor = self.terminal(frame);
        while let Some(ev) = cursor {
            chain.push(ev);
            cursor = ev
                .parent
                .filter(|&p| p < ev.seq)
                .and_then(|p| self.by_seq(p));
        }
        chain.reverse();
        chain
    }

    /// Whether the frame's causal lifecycle is fully reconstructible:
    /// the parent chain runs unbroken from a terminal event back to its
    /// `Sensed` (or, for serving-layer requests, `ReqArrived`) origin.
    /// A policy discard is a complete single-event lifecycle — sense
    /// and drop share one record by design.
    pub fn is_complete(&self, frame: u64) -> bool {
        let path = self.critical_path(frame);
        match (path.first(), path.last()) {
            (Some(first), Some(last)) => {
                matches!(
                    first.kind,
                    TraceKind::Sensed | TraceKind::Discarded | TraceKind::ReqArrived
                ) && last.kind.is_terminal()
            }
            _ => false,
        }
    }

    /// Loss terminals grouped by cause label (frames that were kept
    /// but never produced good output; discards are excluded).
    pub fn loss_attribution(&self) -> BTreeMap<&'static str, u64> {
        self.tally.losses()
    }

    /// Events of one kind.
    pub fn count_kind(&self, kind: TraceKind) -> u64 {
        self.tally.count(kind)
    }

    /// The `k` slowest completed frames or requests (served, corrupted,
    /// request completed, or SLO-violated) as `(frame, end-to-end
    /// latency seconds)`, slowest first; ties break toward the lower
    /// frame id.
    pub fn slowest_frames(&self, k: usize) -> Vec<(u64, f64)> {
        let mut done: Vec<(u64, f64)> = self
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    TraceKind::Served
                        | TraceKind::Corrupted
                        | TraceKind::ReqCompleted
                        | TraceKind::SloViolated
                )
            })
            .filter_map(|e| Some((e.frame?, e.value?)))
            .collect();
        done.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        done.truncate(k);
        done
    }

    /// Per-transition latency breakdown over every frame's critical
    /// path, sorted by label.
    pub fn hop_breakdown(&self) -> Vec<Segment> {
        let mut segs: BTreeMap<(TraceKind, TraceKind), Segment> = BTreeMap::new();
        for frame in self.frame_ids() {
            for pair in self.critical_path(frame).windows(2) {
                let dt = (pair[1].t_s - pair[0].t_s).max(0.0);
                let seg = segs
                    .entry((pair[0].kind, pair[1].kind))
                    .or_insert_with(|| Segment {
                        label: format!("{}→{}", pair[0].kind.as_str(), pair[1].kind.as_str()),
                        count: 0,
                        total_s: 0.0,
                        max_s: 0.0,
                    });
                seg.count += 1;
                seg.total_s += dt;
                seg.max_s = seg.max_s.max(dt);
            }
        }
        let mut out: Vec<Segment> = segs.into_values().collect();
        out.sort_by(|a, b| a.label.cmp(&b.label));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn full_event(seq: u64) -> TraceEvent {
        TraceRecord::at(12.625, TraceKind::Retry)
            .frame(42)
            .unit(7)
            .cause(TraceCause::LinkDown)
            .parent(9)
            .value(0.05)
            .expand(seq)
    }

    fn jsonl(ev: &TraceEvent) -> String {
        let mut out = Vec::new();
        ev.write_jsonl(&mut out).expect("a Vec takes every write");
        String::from_utf8(out).expect("JSONL is UTF-8")
    }

    fn temp_log(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "telemetry_trace_{name}_{}.jsonl",
            std::process::id()
        ))
    }

    /// Flight-log lines pinned byte for byte: every kind, every cause,
    /// each optional field absent and present, a `t_s` whose
    /// millisecond stamp truncates, shortest-round-trip and zero
    /// values, and a serve request id above 2^30.
    #[test]
    fn jsonl_lines_match_the_golden_bytes() {
        const REQ: u64 = 0x4000_0000 + 7;
        let golden: [(TraceRecord, u64, &str); 23] = [
            (
                TraceRecord::at(0.0, TraceKind::Sensed),
                1,
                r#"{"ts_ms":0,"level":"debug","kind":"event","name":"trace.sensed","fields":{"seq":1,"t_s":0}}"#,
            ),
            (
                TraceRecord::at(0.25, TraceKind::Sensed).frame(1).unit(3),
                2,
                r#"{"ts_ms":250,"level":"debug","kind":"event","name":"trace.sensed","fields":{"seq":2,"t_s":0.25,"frame":1,"unit":3}}"#,
            ),
            (
                TraceRecord::at(0.0225, TraceKind::Discarded)
                    .frame(2)
                    .unit(4)
                    .cause(TraceCause::Policy),
                3,
                r#"{"ts_ms":22,"level":"debug","kind":"event","name":"trace.discarded","fields":{"seq":3,"t_s":0.0225,"frame":2,"unit":4,"cause":"policy"}}"#,
            ),
            (
                TraceRecord::at(1.0, TraceKind::Shed)
                    .frame(3)
                    .unit(5)
                    .cause(TraceCause::Backlog)
                    .parent(2),
                4,
                r#"{"ts_ms":1000,"level":"debug","kind":"event","name":"trace.shed","fields":{"seq":4,"t_s":1,"frame":3,"unit":5,"cause":"backlog","parent":2}}"#,
            ),
            (
                TraceRecord::at(1.5, TraceKind::Hop)
                    .frame(3)
                    .unit(5)
                    .parent(4)
                    .value(0.1 + 0.2),
                5,
                r#"{"ts_ms":1500,"level":"debug","kind":"event","name":"trace.hop","fields":{"seq":5,"t_s":1.5,"frame":3,"unit":5,"parent":4,"value":0.30000000000000004}}"#,
            ),
            (
                TraceRecord::at(2.0, TraceKind::Retry)
                    .frame(3)
                    .unit(6)
                    .cause(TraceCause::LinkDown)
                    .parent(5)
                    .value(0.05),
                6,
                r#"{"ts_ms":2000,"level":"debug","kind":"event","name":"trace.retry","fields":{"seq":6,"t_s":2,"frame":3,"unit":6,"cause":"link_down","parent":5,"value":0.05}}"#,
            ),
            (
                TraceRecord::at(2.5, TraceKind::Reroute)
                    .frame(3)
                    .cause(TraceCause::ClusterDown)
                    .parent(6),
                7,
                r#"{"ts_ms":2500,"level":"debug","kind":"event","name":"trace.reroute","fields":{"seq":7,"t_s":2.5,"frame":3,"cause":"cluster_down","parent":6}}"#,
            ),
            (
                TraceRecord::at(2.75, TraceKind::Reroute)
                    .frame(8)
                    .cause(TraceCause::HopLimit),
                8,
                r#"{"ts_ms":2750,"level":"debug","kind":"event","name":"trace.reroute","fields":{"seq":8,"t_s":2.75,"frame":8,"cause":"hop_limit"}}"#,
            ),
            (
                TraceRecord::at(3.0, TraceKind::Undeliverable)
                    .frame(3)
                    .cause(TraceCause::RetriesExhausted)
                    .parent(7),
                9,
                r#"{"ts_ms":3000,"level":"debug","kind":"event","name":"trace.undeliverable","fields":{"seq":9,"t_s":3,"frame":3,"cause":"retries_exhausted","parent":7}}"#,
            ),
            (
                TraceRecord::at(3.5, TraceKind::Enqueued)
                    .frame(4)
                    .unit(0)
                    .parent(1)
                    .value(0.0),
                10,
                r#"{"ts_ms":3500,"level":"debug","kind":"event","name":"trace.enqueued","fields":{"seq":10,"t_s":3.5,"frame":4,"unit":0,"parent":1,"value":0}}"#,
            ),
            (
                TraceRecord::at(4.0, TraceKind::Served)
                    .frame(4)
                    .unit(0)
                    .parent(10)
                    .value(12.625),
                11,
                r#"{"ts_ms":4000,"level":"debug","kind":"event","name":"trace.served","fields":{"seq":11,"t_s":4,"frame":4,"unit":0,"parent":10,"value":12.625}}"#,
            ),
            (
                TraceRecord::at(4.5, TraceKind::Corrupted)
                    .frame(5)
                    .unit(1)
                    .cause(TraceCause::Seu)
                    .value(1e-7),
                12,
                r#"{"ts_ms":4500,"level":"debug","kind":"event","name":"trace.corrupted","fields":{"seq":12,"t_s":4.5,"frame":5,"unit":1,"cause":"seu","value":0.0000001}}"#,
            ),
            (
                TraceRecord::at(5.0, TraceKind::LostCluster)
                    .frame(6)
                    .unit(2)
                    .cause(TraceCause::ClusterDown),
                13,
                r#"{"ts_ms":5000,"level":"debug","kind":"event","name":"trace.lost_cluster","fields":{"seq":13,"t_s":5,"frame":6,"unit":2,"cause":"cluster_down"}}"#,
            ),
            (
                TraceRecord::at(5.0, TraceKind::SnapshotNet).value(1.5e9),
                14,
                r#"{"ts_ms":5000,"level":"debug","kind":"event","name":"trace.snapshot_net","fields":{"seq":14,"t_s":5,"value":1500000000}}"#,
            ),
            (
                TraceRecord::at(5.0, TraceKind::SnapshotLinks)
                    .unit(12)
                    .value(10.0),
                15,
                r#"{"ts_ms":5000,"level":"debug","kind":"event","name":"trace.snapshot_links","fields":{"seq":15,"t_s":5,"unit":12,"value":10}}"#,
            ),
            (
                TraceRecord::at(5.0, TraceKind::SnapshotCluster)
                    .unit(2)
                    .cause(TraceCause::ClusterDown)
                    .value(0.0),
                16,
                r#"{"ts_ms":5000,"level":"debug","kind":"event","name":"trace.snapshot_cluster","fields":{"seq":16,"t_s":5,"unit":2,"cause":"cluster_down","value":0}}"#,
            ),
            (
                TraceRecord::at(6.125, TraceKind::ReqArrived)
                    .frame(REQ)
                    .unit(3),
                17,
                r#"{"ts_ms":6125,"level":"debug","kind":"event","name":"trace.req_arrived","fields":{"seq":17,"t_s":6.125,"frame":1073741831,"unit":3}}"#,
            ),
            (
                TraceRecord::at(6.125, TraceKind::ReqAdmitted)
                    .frame(REQ)
                    .parent(17),
                18,
                r#"{"ts_ms":6125,"level":"debug","kind":"event","name":"trace.req_admitted","fields":{"seq":18,"t_s":6.125,"frame":1073741831,"parent":17}}"#,
            ),
            (
                TraceRecord::at(6.5, TraceKind::ReqBatched)
                    .frame(REQ)
                    .unit(0)
                    .parent(18)
                    .value(4.0),
                19,
                r#"{"ts_ms":6500,"level":"debug","kind":"event","name":"trace.req_batched","fields":{"seq":19,"t_s":6.5,"frame":1073741831,"unit":0,"parent":18,"value":4}}"#,
            ),
            (
                TraceRecord::at(7.0, TraceKind::ReqCompleted)
                    .frame(REQ)
                    .unit(0)
                    .parent(19)
                    .value(0.875),
                20,
                r#"{"ts_ms":7000,"level":"debug","kind":"event","name":"trace.req_completed","fields":{"seq":20,"t_s":7,"frame":1073741831,"unit":0,"parent":19,"value":0.875}}"#,
            ),
            (
                TraceRecord::at(7.25, TraceKind::ReqRejected)
                    .frame(REQ + 1)
                    .unit(5)
                    .cause(TraceCause::Throttled)
                    .parent(17),
                21,
                r#"{"ts_ms":7250,"level":"debug","kind":"event","name":"trace.req_rejected","fields":{"seq":21,"t_s":7.25,"frame":1073741832,"unit":5,"cause":"throttled","parent":17}}"#,
            ),
            (
                TraceRecord::at(7199.9996, TraceKind::SloViolated)
                    .frame(REQ + 2)
                    .unit(2)
                    .cause(TraceCause::Seu)
                    .parent(19)
                    .value(2.5),
                1 << 40,
                r#"{"ts_ms":7199999,"level":"debug","kind":"event","name":"trace.slo_violated","fields":{"seq":1099511627776,"t_s":7199.9996,"frame":1073741833,"unit":2,"cause":"seu","parent":19,"value":2.5}}"#,
            ),
            (
                TraceRecord::at(8.0, TraceKind::Hop).frame(9).value(-0.5),
                23,
                r#"{"ts_ms":8000,"level":"debug","kind":"event","name":"trace.hop","fields":{"seq":23,"t_s":8,"frame":9,"value":-0.5}}"#,
            ),
        ];
        for (rec, seq, want) in golden {
            let ev = rec.expand(seq);
            assert_eq!(jsonl(&ev), format!("{want}\n"), "{ev:?}");
            assert_eq!(TraceEvent::parse_line(want), Some(ev), "{want}");
        }
        let kinds: std::collections::BTreeSet<TraceKind> =
            golden.iter().map(|(r, ..)| r.expand(0).kind).collect();
        let causes: std::collections::BTreeSet<TraceCause> = golden
            .iter()
            .filter_map(|(r, ..)| r.expand(0).cause)
            .collect();
        assert_eq!(kinds.len(), KINDS.len(), "every kind is pinned");
        assert_eq!(causes.len(), CAUSES.len(), "every cause is pinned");
    }

    #[test]
    fn jsonl_round_trip_preserves_every_field() {
        let ev = full_event(10);
        let back = TraceEvent::parse_line(&jsonl(&ev)).expect("parses");
        assert_eq!(back, ev);
    }

    #[test]
    fn sparse_events_round_trip_with_fields_absent() {
        let ev = TraceRecord::at(0.0, TraceKind::SnapshotNet)
            .value(1.5e9)
            .expand(1);
        let back = TraceEvent::parse_line(&jsonl(&ev)).expect("parses");
        assert_eq!(back, ev);
        assert_eq!(back.frame, None);
        assert_eq!(back.cause, None);
    }

    #[test]
    fn every_kind_and_cause_survives_the_name_round_trip() {
        for kind in KINDS {
            assert_eq!(TraceKind::from_name(kind.as_str()), Some(*kind));
        }
        for cause in CAUSES {
            assert_eq!(TraceCause::from_name(cause.as_str()), Some(*cause));
        }
        assert_eq!(TraceKind::from_name("no-such"), None);
        assert_eq!(TraceCause::from_name("no-such"), None);
    }

    #[test]
    fn timestamps_are_sim_time_not_wall_time() {
        let line = jsonl(&TraceRecord::at(3.25, TraceKind::Sensed).expand(1));
        let doc = json::parse(&line).expect("one JSON document");
        let ts_ms = doc.get("ts_ms").and_then(Json::as_u64);
        assert_eq!(ts_ms, Some(3250), "ts_ms must be sim-time ms");
        let name = doc.get("name").and_then(Json::as_str);
        assert!(name.is_some_and(|n| n.starts_with(EVENT_PREFIX)));
    }

    #[test]
    fn parse_line_skips_non_trace_telemetry() {
        let other = r#"{"ts_ms":1,"level":"info","kind":"event","name":"repro.done","fields":{"failed":false}}"#;
        assert_eq!(TraceEvent::parse_line(other), None);
        assert_eq!(TraceEvent::parse_line("not json at all"), None);
        assert_eq!(TraceEvent::parse_line(""), None);
        let line = jsonl(&full_event(3));
        let line = line.trim_end();
        let bad_frame = line.replace("\"frame\":42", "\"frame\":-42");
        assert_eq!(TraceEvent::parse_line(&bad_frame), None);
        assert_eq!(TraceEvent::parse_line(&line[..line.len() - 1]), None);
    }

    #[test]
    fn log_parse_skips_a_deeply_nested_line() {
        let line = jsonl(&full_event(1));
        let text = format!("{line}{}\n{line}", "[".repeat(1_000_000));
        assert_eq!(TraceLog::parse(&text).len(), 2);
    }

    #[test]
    fn recorder_assigns_monotonic_seqs_and_drops_oldest() {
        let rec = Recorder::new(2);
        let a = rec.record(TraceRecord::at(0.0, TraceKind::Sensed).frame(1));
        let b = rec.record(TraceRecord::at(1.0, TraceKind::Hop).frame(1).parent(a));
        let c = rec.record(TraceRecord::at(2.0, TraceKind::Served).frame(1).parent(b));
        assert_eq!((a, b, c), (1, 2, 3));
        assert_eq!(rec.len(), 2, "capacity bounds the ring");
        assert_eq!(rec.dropped(), 1);
        let kept: Vec<u64> = rec.events().iter().map(|e| e.seq).collect();
        assert_eq!(kept, vec![2, 3], "oldest event evicted first");
    }

    #[test]
    fn recorder_writes_every_event_to_its_log() {
        let path = temp_log("every_event");
        let rec = Recorder::to_file(1, &path).expect("create log");
        rec.record(TraceRecord::at(0.0, TraceKind::Sensed).frame(1));
        rec.record(
            TraceRecord::at(1.0, TraceKind::Shed)
                .frame(1)
                .cause(TraceCause::Backlog),
        );
        assert_eq!(rec.len(), 1, "ring wrapped");
        rec.flush().expect("flush log");
        let log = TraceLog::read_path(&path).expect("read log");
        let _ = std::fs::remove_file(&path);
        assert_eq!(log.len(), 2, "the log holds every event");
        assert_eq!(log.events[1].kind, TraceKind::Shed);
        assert_eq!(log.events[1].cause, Some(TraceCause::Backlog));
    }

    /// A batch exactly the ring's size takes the pointer-swap path; the
    /// log must still get all of it, numbered on from `last_seq()`.
    #[test]
    fn a_full_batch_reaches_the_log() {
        let path = temp_log("full_batch");
        let rec = Recorder::to_file(4, &path).expect("create log");
        rec.record(TraceRecord::at(0.0, TraceKind::Sensed).frame(1));
        let base = rec.last_seq();
        let mut batch: Vec<TraceRecord> = (0..4u32)
            .map(|i| {
                TraceRecord::at(1.0 + f64::from(i), TraceKind::Hop)
                    .frame(1)
                    .parent(base + u64::from(i))
            })
            .collect();
        rec.record_batch(&mut batch);
        assert!(batch.is_empty(), "the producer's buffer comes back empty");
        assert_eq!(rec.last_seq(), base + 4);
        rec.flush().expect("flush log");
        let log = TraceLog::read_path(&path).expect("read log");
        let _ = std::fs::remove_file(&path);
        let seqs: Vec<u64> = log.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5], "every record is logged");
        assert_eq!(log.events[1..], rec.events()[..], "log and ring agree");
    }

    /// A log that cannot be written is an error at `flush`, not a
    /// silently short file; the ring keeps recording.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_failed_log_write_is_reported_at_flush() {
        let rec = Recorder::to_file(8, Path::new("/dev/full")).expect("open /dev/full");
        // More than one buffer's worth, so the writer hits the device.
        for i in 0..1000 {
            rec.record(TraceRecord::at(f64::from(i), TraceKind::Sensed).frame(1));
        }
        assert_eq!(rec.last_seq(), 1000);
        assert!(rec.flush().is_err(), "the full device must surface");
    }

    #[test]
    fn request_lifecycle_survives_the_flight_recorder_round_trip() {
        // A served request, an SLO violation, and a throttled reject
        // pushed through the packed ring, re-expanded, serialized to
        // JSONL, and parsed back: every serve kind and the new cause
        // must survive, and the analyses must see them.
        let rec = Recorder::new(64);
        let a1 = rec.record(
            TraceRecord::at(0.0, TraceKind::ReqArrived)
                .frame(100)
                .unit(3),
        );
        let d1 = rec.record(
            TraceRecord::at(0.0, TraceKind::ReqAdmitted)
                .frame(100)
                .parent(a1),
        );
        let b1 = rec.record(
            TraceRecord::at(0.4, TraceKind::ReqBatched)
                .frame(100)
                .unit(0)
                .parent(d1)
                .value(4.0),
        );
        rec.record(
            TraceRecord::at(0.9, TraceKind::ReqCompleted)
                .frame(100)
                .unit(0)
                .parent(b1)
                .value(0.9),
        );
        let a2 = rec.record(
            TraceRecord::at(1.0, TraceKind::ReqArrived)
                .frame(101)
                .unit(5),
        );
        rec.record(
            TraceRecord::at(1.0, TraceKind::ReqRejected)
                .frame(101)
                .unit(5)
                .cause(TraceCause::Throttled)
                .parent(a2),
        );
        let a3 = rec.record(
            TraceRecord::at(2.0, TraceKind::ReqArrived)
                .frame(102)
                .unit(1),
        );
        let d3 = rec.record(
            TraceRecord::at(2.0, TraceKind::ReqAdmitted)
                .frame(102)
                .parent(a3),
        );
        rec.record(
            TraceRecord::at(4.5, TraceKind::SloViolated)
                .frame(102)
                .unit(2)
                .parent(d3)
                .value(2.5),
        );

        let text: String = rec.events().iter().map(jsonl).collect();
        let log = TraceLog::parse(&text);
        assert_eq!(log.len(), 9, "every record survives the JSONL round trip");
        for frame in [100, 101, 102] {
            assert!(
                log.is_complete(frame),
                "request {frame} lifecycle reconstructs"
            );
        }
        assert_eq!(log.loss_attribution().get("throttled"), Some(&1));
        let slowest = log.slowest_frames(2);
        assert_eq!(
            slowest,
            vec![(102, 2.5), (100, 0.9)],
            "tail latency attribution sees completed and violated requests"
        );
    }

    #[test]
    fn timeline_cadence_rejects_nonsense() {
        assert_eq!(
            Recorder::new(8).timeline(5.0).timeline_cadence_s(),
            Some(5.0)
        );
        assert_eq!(Recorder::new(8).timeline(0.0).timeline_cadence_s(), None);
        assert_eq!(Recorder::new(8).timeline(-1.0).timeline_cadence_s(), None);
        assert_eq!(Recorder::new(8).timeline_cadence_s(), None);
    }

    /// A two-frame log: frame 1 served after two hops with a retry,
    /// frame 2 shed at the source.
    fn sample_log() -> TraceLog {
        let rec = Recorder::new(64);
        let s1 = rec.record(TraceRecord::at(0.0, TraceKind::Sensed).frame(1).unit(0));
        let r1 = rec.record(
            TraceRecord::at(0.1, TraceKind::Retry)
                .frame(1)
                .unit(0)
                .cause(TraceCause::LinkDown)
                .parent(s1)
                .value(0.1),
        );
        let h1 = rec.record(
            TraceRecord::at(0.3, TraceKind::Hop)
                .frame(1)
                .unit(0)
                .parent(r1)
                .value(0.2),
        );
        let h2 = rec.record(
            TraceRecord::at(0.6, TraceKind::Hop)
                .frame(1)
                .unit(1)
                .parent(h1)
                .value(0.3),
        );
        let q1 = rec.record(
            TraceRecord::at(0.7, TraceKind::Enqueued)
                .frame(1)
                .unit(0)
                .parent(h2)
                .value(0.1),
        );
        rec.record(
            TraceRecord::at(0.8, TraceKind::Served)
                .frame(1)
                .unit(0)
                .parent(q1)
                .value(0.8),
        );
        let s2 = rec.record(TraceRecord::at(1.0, TraceKind::Sensed).frame(2).unit(3));
        rec.record(
            TraceRecord::at(1.0, TraceKind::Shed)
                .frame(2)
                .unit(3)
                .cause(TraceCause::Backlog)
                .parent(s2),
        );
        rec.record(TraceRecord::at(5.0, TraceKind::SnapshotNet).value(0.0));
        TraceLog::from_events(rec.events())
    }

    #[test]
    fn lifecycles_reconstruct_and_complete() {
        let log = sample_log();
        assert_eq!(log.frames().len(), 2, "snapshots carry no frame");
        assert!(log.is_complete(1));
        assert!(log.is_complete(2));
        assert!(!log.is_complete(99), "unknown frame is not complete");
        let path = log.critical_path(1);
        let kinds: Vec<TraceKind> = path.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                TraceKind::Sensed,
                TraceKind::Retry,
                TraceKind::Hop,
                TraceKind::Hop,
                TraceKind::Enqueued,
                TraceKind::Served,
            ]
        );
    }

    #[test]
    fn loss_attribution_counts_loss_terminals_by_cause() {
        let log = sample_log();
        let losses = log.loss_attribution();
        assert_eq!(losses.get("backlog"), Some(&1));
        assert_eq!(losses.len(), 1, "the served frame is not a loss");
        assert_eq!(log.count_kind(TraceKind::Shed), 1);
    }

    #[test]
    fn slowest_frames_rank_by_latency() {
        let log = sample_log();
        let top = log.slowest_frames(10);
        assert_eq!(top, vec![(1, 0.8)], "only frame 1 completed");
        assert!(log.slowest_frames(0).is_empty());
    }

    #[test]
    fn hop_breakdown_aggregates_critical_path_transitions() {
        let log = sample_log();
        let segs = log.hop_breakdown();
        let seg = |label: &str| segs.iter().find(|s| s.label == label);
        let hops = seg("hop→hop").expect("two consecutive hops");
        assert_eq!(hops.count, 1);
        assert!((hops.total_s - 0.3).abs() < 1e-12);
        assert!((seg("sensed→retry").expect("retry first").mean_s() - 0.1).abs() < 1e-12);
        assert!(seg("sensed→shed").is_some(), "shed path appears too");
    }

    #[test]
    fn parse_round_trips_a_whole_log() {
        let rec = Recorder::new(64);
        let s = rec.record(TraceRecord::at(0.5, TraceKind::Sensed).frame(7).unit(2));
        rec.record(
            TraceRecord::at(0.9, TraceKind::Undeliverable)
                .frame(7)
                .unit(2)
                .cause(TraceCause::RetriesExhausted)
                .parent(s),
        );
        let text: String = rec.events().iter().map(jsonl).collect();
        let log = TraceLog::parse(&text);
        assert_eq!(log.events, rec.events());
        assert!(log.is_complete(7));
        assert_eq!(log.loss_attribution().get("retries_exhausted"), Some(&1));
    }
}
