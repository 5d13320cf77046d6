//! The sim engine's event loop and frame handlers: composes the
//! topology, transport, and service layers into the frame-level
//! discrete-event simulation.
//!
//! The loop owns only the things no single layer can: the event
//! calendar, the [`Ledger`] every lifecycle transition goes through,
//! the in-flight backlog, the early-discard draw, and report assembly.
//! Routing questions go to [`super::topology`], link timing and outages
//! to [`super::transport`], compute and SEU/shedding to
//! [`super::service`]. Serve events go to [`super::serve::handlers`],
//! with the run's [`ServeState`], which lives beside [`State`] rather
//! than inside it. Because every RNG draw comes from a stateless
//! stream keyed exactly as in the pre-refactor monolith, seeded runs —
//! fault-free and faulted alike — replay byte-identically.

use std::sync::Arc;

use imagery::FrameSpec;
use simkit::rng::{coin, RngFactory};
use simkit::stats::Tally;
use simkit::Scheduler;
use telemetry::trace::{Recorder, TraceCause, TraceKind, TraceRecord, TraceTally};
use units::{DataSize, Time};

use crate::sim::faults::{FaultSummary, RETRY_BACKOFF};
use crate::sim::model::{SimConfig, SimReport};
use crate::sim::policy::{LinkObs, Policy, RetryDecision, ShedDecision, ShedObs};
use crate::sim::serve::{self, Request, ServeState};
use crate::sim::service::Service;
use crate::sim::topology::{self, Topology};
use crate::sim::transport::Transport;

/// The frame model every satellite images to: the paper's 4K RGB frame
/// every 1.5 s.
const FRAME: FrameSpec = FrameSpec::paper();

/// A frame moving through the network. Deliberately slim — every frame
/// in a run carries the same payload, so the per-frame bit/pixel sizes
/// live once in [`State`] (`frame_bits` / `frame_pixels`) instead of
/// riding along in every queued event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct FrameInFlight {
    /// Frame id for the flight recorder and the discard stream:
    /// `k·n + sat + 1` for satellite `sat`'s `k`-th frame of `n`, which
    /// is the frame's rank among all imaging events (see
    /// [`on_generate`]); ids start at 1.
    id: u64,
    created: Time,
    /// ISL hops taken so far (bounds rerouted frames).
    hops: u32,
    /// Routing direction: `true` once the frame fell back to
    /// reverse-direction (away-from-home-SµDC) routing around a fault.
    reversed: bool,
    /// Which way a reversed frame walks the global ring: `true` for
    /// `+stride`, `false` for `-stride` (chosen opposite to the frame's
    /// forward direction at the point of rerouting).
    rev_up: bool,
    /// `seq` of the frame's most recent trace event (0 when recording
    /// is off), so the next event can link its causal parent.
    last_seq: u64,
}

/// Simulation events. `pub(super)` so the sharded runner in
/// [`super::parallel`] can seed them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) enum Ev {
    /// Satellite `sat` images its `k`-th frame (from 0).
    Generate { sat: usize, k: u64 },
    /// A frame finishes crossing the ISL out of `from` and arrives at the
    /// next node toward the SµDC.
    Hop { frame: FrameInFlight, from: usize },
    /// A transmission blocked by a link outage retries from `from` after
    /// exponential backoff (`attempt` retries already spent).
    Retry {
        frame: FrameInFlight,
        from: usize,
        attempt: u32,
    },
    /// The SµDC of `cluster` finishes processing a frame; `corrupted`
    /// marks outputs silently ruined by an SEU.
    Done {
        frame: FrameInFlight,
        cluster: usize,
        corrupted: bool,
    },
    /// Flight-recorder timeline tick (scheduled only in recorded runs
    /// with a cadence; never present otherwise).
    Snapshot,
    /// Tenant `tenant`'s load generator produces a request (closed-loop
    /// submissions carry their concurrency `slot`; open-loop arrivals
    /// carry [`OPEN_SLOT`](serve::OPEN_SLOT)). Never scheduled in non-serve runs.
    ServeArrival { tenant: u32, slot: u32 },
    /// A request finishes crossing the ISL out of `from`.
    ServeHop { req: Request, from: usize },
    /// An outage-blocked request transmission retries from `from` after
    /// exponential backoff (`attempt` retries already spent).
    ServeRetry {
        req: Request,
        from: usize,
        attempt: u32,
    },
    /// Flush-timer deadline for the (cluster, tenant) batch queue; the
    /// `epoch` invalidates timers armed before a dispatch.
    ServeBatchTimer {
        cluster: u32,
        tenant: u32,
        epoch: u64,
    },
    /// SµDC `cluster` finishes its oldest in-service batch, of `size`
    /// requests (a SµDC's pipeline finishes batches in dispatch order).
    ServeBatchDone {
        size: u32,
        cluster: u32,
        corrupted: bool,
    },
}

/// Names of the calendar streams [`Ev::stream`] files events on, by
/// stream index (for the `sim.scheduler` debug event).
const STREAM_NAMES: [&str; simkit::STREAMS] = [
    "serve_retry.1",
    "serve_retry.2",
    "serve_retry.3",
    "serve_retry.4",
    "serve_retry.5",
    "serve_retry.6",
    "serve_retry.7",
    "serve_retry.8+",
    "retry",
    "serve_arrival.0",
    "serve_arrival.1+",
    "serve_batch_done.0",
    "serve_batch_done.1",
    "serve_batch_done.2",
    "serve_batch_done.3",
    "serve_batch_timer",
];

impl Ev {
    /// The calendar stream this event rides ([`Scheduler::schedule_on`]),
    /// or `None` for the lane and heap. A stream suits a class whose
    /// pushes come in time order: a retry's backoff is a constant delay
    /// per attempt (`attempt` counts the retries spent, so from 1), an
    /// open-loop tenant's next arrival follows its last, a SµDC's
    /// pipeline finishes its work first in first out, and flush deadlines
    /// are a fixed wait past a queue's head. Tenants past the first share
    /// a stream, as do SµDCs with equal `cluster % 4`. A push out of
    /// order falls back to the lane or heap, so this table decides speed,
    /// never the pop order. `Generate` rides the lane; `Hop`, `Done`,
    /// `ServeHop` and `Snapshot` are a short, varying time ahead.
    #[inline(always)]
    fn stream(&self) -> Option<usize> {
        match *self {
            Ev::ServeRetry { attempt, .. } => Some(attempt.clamp(1, 8) as usize - 1),
            Ev::Retry { .. } => Some(8),
            Ev::ServeArrival { tenant, .. } => Some(9 + tenant.min(1) as usize),
            Ev::ServeBatchDone { cluster, .. } => Some(11 + cluster as usize % 4),
            Ev::ServeBatchTimer { .. } => Some(15),
            Ev::Generate { .. }
            | Ev::Hop { .. }
            | Ev::Done { .. }
            | Ev::Snapshot
            | Ev::ServeHop { .. } => None,
        }
    }
}

/// Schedules `ev` at `at` on the calendar stream [`Ev::stream`] names.
/// Inlined into each call site, where the event's kind is known, so the
/// choice of path folds away. Callers build a frame or request whole
/// (`FrameInFlight { last_seq, ..frame }`) instead of storing its new
/// `last_seq` into the old one: the event's copy into the calendar right
/// after such a store waits for it (no store forwarding), which held
/// ≈9 % of the dense ring's sampled CPU on one instruction.
#[inline(always)]
pub(super) fn schedule(sched: &mut Scheduler<Ev>, at: Time, ev: Ev) {
    match ev.stream() {
        Some(stream) => sched.schedule_on(stream, at, ev),
        None => sched.schedule_at(at, ev),
    }
}

/// The run's one accounting path. Each lifecycle transition is one call
/// here: the record's kind and cause are tallied whether or not a
/// recorder is attached, and the record is buffered for the recorder
/// only when one is. [`report`] reads `SimReport` and `FaultSummary`
/// out of the tallies, so a recorded log's loss table equals the fault
/// summary by construction.
pub(super) struct Ledger {
    /// Frame lifecycle and timeline records.
    frames: TraceTally,
    /// Request lifecycle records, apart so that request retries and
    /// hops never land in `FaultSummary`.
    requests: TraceTally,
    /// End-to-end latency of frames served with good output.
    latency: Tally,
    /// Flight recorder; `None` keeps every record out of the buffer.
    recorder: Option<Arc<Recorder>>,
    /// Locally buffered trace events: the ledger numbers events itself
    /// and hands whole batches to the recorder, paying one lock (and,
    /// on the recorder's fast path, zero copies) per `tbatch` events
    /// instead of per event.
    tbuf: Vec<TraceRecord>,
    /// Batch size before a hand-off ([`Recorder::batch_hint`]).
    tbatch: usize,
    /// Next `seq` continues the recorder's numbering ([`Recorder::last_seq`]).
    tseq: u64,
}

impl Ledger {
    fn new(recorder: Option<Arc<Recorder>>) -> Ledger {
        Ledger {
            frames: TraceTally::default(),
            requests: TraceTally::default(),
            latency: Tally::default(),
            tbuf: Vec::with_capacity(recorder.as_ref().map_or(0, |r| r.batch_hint())),
            tbatch: recorder.as_ref().map_or(usize::MAX, |r| r.batch_hint()),
            tseq: recorder.as_ref().map_or(0, |r| r.last_seq()),
            recorder,
        }
    }

    /// Tallies a frame or timeline record and returns its `seq` for
    /// parent linkage (0 when recording is off).
    #[inline(always)]
    fn note(&mut self, rec: TraceRecord) -> u64 {
        self.frames.add(&rec);
        self.buffer(rec)
    }

    /// A frame served with good output: its end-to-end latency joins
    /// the latency tally and becomes the record's value.
    #[inline(always)]
    fn served(&mut self, rec: TraceRecord, latency_s: f64) -> u64 {
        self.latency.record(latency_s);
        self.note(rec.value(latency_s))
    }

    /// Tallies a request record and returns its `seq`.
    #[inline(always)]
    pub(super) fn note_request(&mut self, rec: TraceRecord) -> u64 {
        self.requests.add(&rec);
        self.buffer(rec)
    }

    /// Buffers a record under an engine-assigned `seq` when recording;
    /// a single branch and no work otherwise. Observer only: never
    /// draws RNG or touches sim state, so recorded and unrecorded runs
    /// replay identically.
    #[inline(always)]
    fn buffer(&mut self, rec: TraceRecord) -> u64 {
        if self.recorder.is_none() {
            return 0;
        }
        self.tseq += 1;
        self.tbuf.push(rec);
        if self.tbuf.len() >= self.tbatch {
            self.drain();
        }
        self.tseq
    }

    /// Hands the buffered batch to the recorder (one lock, bulk slice
    /// copy, events numbered exactly as `tseq` predicted) and gets the
    /// cleared buffer back with its capacity — and cache warmth —
    /// intact.
    #[cold]
    #[inline(never)]
    fn drain(&mut self) {
        if let Some(rec) = &self.recorder {
            rec.record_batch(&mut self.tbuf);
        }
    }

    /// The recorder's timeline cadence, when recording with one.
    fn cadence_s(&self) -> Option<f64> {
        self.recorder.as_ref().and_then(|r| r.timeline_cadence_s())
    }

    /// Adds a finished shard's tallies. Every tally is a sum of
    /// integers, so shards merge in any order. Shards record nothing.
    fn absorb(&mut self, other: &Ledger) {
        self.frames.merge(&other.frames);
        self.requests.merge(&other.requests);
        self.latency.merge(&other.latency);
    }
}

/// Per-run mutable state: the three layers plus the engine's own frame
/// bookkeeping. The serve handlers read and drive the layers too, so
/// those fields are visible across `sim`.
pub(super) struct State {
    pub(super) cfg: SimConfig,
    pub(super) topo: Box<dyn Topology>,
    pub(super) transport: Transport,
    pub(super) service: Service,
    /// Frames in flight (accepted but not yet at a SµDC). A count, so
    /// shards add it exactly; [`State::queued_bits`] scales it.
    queued_frames: u64,
    /// Per-frame payload constants for this configuration.
    frame_bits: f64,
    frame_pixels: f64,
    /// Lifecycle tallies, latency and the recorder buffer.
    pub(super) ledger: Ledger,
    pub(super) rng_factory: RngFactory,
    /// The run's control-plane controller. Every decision site asks it
    /// with plain-value telemetry; the engine alone executes decisions
    /// (and performs every RNG draw).
    pub(super) policy: Box<dyn Policy>,
}

impl State {
    /// Builds the full layer state. `pixel_capacity` is the validated
    /// per-unit service rate — callers obtain it from
    /// [`SimConfig::unit_pixel_capacity`] after `validate()`, so
    /// construction itself cannot fail.
    pub(super) fn new(
        cfg: &SimConfig,
        recorder: Option<Arc<Recorder>>,
        pixel_capacity: f64,
    ) -> Self {
        let n = cfg.plane.satellite_count();
        let rng_factory = RngFactory::new(cfg.seed);
        let topo = topology::from_config(cfg);
        let transport = Transport::new(
            n,
            cfg.isl_capacity,
            topo.hop_distance(&cfg.plane),
            cfg.faults.link_outages,
            rng_factory,
        );
        let service = Service::new(cfg, topo.units(), pixel_capacity, rng_factory);
        Self {
            cfg: cfg.clone(),
            topo,
            transport,
            service,
            queued_frames: 0,
            frame_bits: FRAME.frame_size(cfg.resolution).as_bits(),
            frame_pixels: FRAME.pixels_at(cfg.resolution),
            ledger: Ledger::new(recorder),
            rng_factory,
            policy: cfg.policy.build(cfg),
        }
    }

    /// Folds the finished shard `other`, which ran service unit
    /// `unit`'s satellites, into `self`: the ledgers merge, and the
    /// per-index transport/service state `other` owned moves over — so
    /// the merged state folds its report exactly like a sequential run
    /// over the same indices. Each shard must be absorbed under the unit
    /// it ran, since that unit's indices are the ones it adopts; the
    /// order of the shards does not matter, as no fold here depends on
    /// it.
    pub(super) fn absorb_shard(&mut self, mut other: State, unit: usize) {
        for s in 0..self.cfg.plane.satellite_count() {
            if self.topo.home_cluster(s) == unit {
                self.transport.adopt(&mut other.transport, s);
            }
        }
        self.service.adopt(&mut other.service, unit);
        self.queued_frames += other.queued_frames;
        self.ledger.absorb(&other.ledger);
    }

    /// Bits in flight.
    fn queued_bits(&self) -> f64 {
        self.queued_frames as f64 * self.frame_bits
    }

    /// Draws frame `id`'s early-discard coin at the configured rate.
    fn keep_frame(&self, sat: usize, id: u64) -> bool {
        let mut rng = self
            .rng_factory
            .stream("discard", ((sat as u64) << 32) | (id & 0xFFFF_FFFF));
        !coin(&mut rng, self.cfg.discard)
    }
}

/// A lifecycle record of frame or request `id` at satellite or cluster
/// `unit`, linked to the lifecycle's previous record `parent` (0 for
/// none). Inlined into the serve handlers' module too.
#[inline]
pub(super) fn lifecycle(
    now: Time,
    kind: TraceKind,
    id: u64,
    unit: usize,
    parent: u64,
) -> TraceRecord {
    TraceRecord::at(now.as_secs(), kind)
        .frame(id)
        .unit(unit)
        .parent(parent)
}

/// The reroute rule for a frame that cannot proceed forward: `true`
/// sends it onto the reverse ring, `false` drops it. A frame whose
/// retries ran out reverses unless it already walks the reverse ring;
/// one that found its home SµDC down (`cluster_down`) reverses only
/// while faults are active. Both need a topology with a reverse ring.
fn reroutes(
    cluster_down: bool,
    reversed: bool,
    supports_reverse: bool,
    faults_active: bool,
) -> bool {
    let wanted = if cluster_down {
        faults_active
    } else {
        !reversed
    };
    supports_reverse && wanted
}

/// Routes a frame out of `sat`, honouring link outages: an up link
/// transmits; a down link retries with exponential backoff, then falls
/// back to reverse-direction routing, and a frame whose both directions
/// are dead is dropped as undeliverable. With no outage model this is
/// exactly the transmit path.
fn dispatch(
    st: &mut State,
    sched: &mut Scheduler<Ev>,
    mut frame: FrameInFlight,
    sat: usize,
    now: Time,
    attempt: u32,
) {
    if st.transport.outages_modelled() {
        let start = st.transport.next_start(sat, now);
        if !st.transport.link_up(sat, frame.reversed, start) {
            let obs = LinkObs {
                now_s: now.as_secs(),
                attempt,
                baseline_delay_s: RETRY_BACKOFF.delay_s(attempt),
            };
            match st.policy.decide_retry(&obs) {
                RetryDecision::Retry { delay_s: delay } => {
                    let last_seq = st.ledger.note(
                        lifecycle(now, TraceKind::Retry, frame.id, sat, frame.last_seq)
                            .cause(TraceCause::LinkDown)
                            .value(delay),
                    );
                    let frame = FrameInFlight { last_seq, ..frame };
                    schedule(
                        sched,
                        now + Time::from_secs(delay),
                        Ev::Retry {
                            frame,
                            from: sat,
                            attempt: attempt + 1,
                        },
                    );
                }
                RetryDecision::Escalate => {
                    if reroutes(
                        false,
                        frame.reversed,
                        st.topo.supports_reverse(),
                        st.cfg.faults.active(),
                    ) {
                        // Forward path dead: fall back to the reverse
                        // ring.
                        frame.reversed = true;
                        frame.rev_up = st.topo.reverse_direction_up(sat);
                        frame.last_seq = st.ledger.note(
                            lifecycle(now, TraceKind::Reroute, frame.id, sat, frame.last_seq)
                                .cause(TraceCause::LinkDown),
                        );
                        dispatch(st, sched, frame, sat, now, 0);
                    } else {
                        // Both directions exhausted their retries (or
                        // there is no ring to fall back to): the frame
                        // dies.
                        st.queued_frames -= 1;
                        st.ledger.note(
                            lifecycle(now, TraceKind::Undeliverable, frame.id, sat, frame.last_seq)
                                .cause(TraceCause::RetriesExhausted),
                        );
                    }
                }
            }
            return;
        }
    }
    let arrival = st.transport.transmit(sat, now, st.frame_bits);
    let last_seq = st.ledger.note(
        lifecycle(now, TraceKind::Hop, frame.id, sat, frame.last_seq)
            .value((arrival - now).as_secs()),
    );
    let frame = FrameInFlight { last_seq, ..frame };
    schedule(sched, arrival, Ev::Hop { frame, from: sat });
}

/// Hands a frame that reached its SµDC to the service layer and
/// schedules its completion.
fn enqueue(
    st: &mut State,
    sched: &mut Scheduler<Ev>,
    frame: FrameInFlight,
    cluster: usize,
    now: Time,
) {
    let (done, corrupted) = st.service.admit(st.frame_pixels, cluster, now);
    let last_seq = st.ledger.note(
        lifecycle(now, TraceKind::Enqueued, frame.id, cluster, frame.last_seq)
            .value((done - now).as_secs()),
    );
    let frame = FrameInFlight { last_seq, ..frame };
    schedule(
        sched,
        done,
        Ev::Done {
            frame,
            cluster,
            corrupted,
        },
    );
}

/// Satellite `sat` images its `k`-th frame: draw the discard (and
/// possibly shed) coins, launch survivors into the network, and
/// schedule the next imaging period.
fn on_generate(st: &mut State, sched: &mut Scheduler<Ev>, sat: usize, k: u64, now: Time) {
    // The staggered generate schedule never reorders satellites, so
    // satellite `sat`'s k-th frame is the (k·n + sat + 1)-th imaging
    // event of the run. A shard, which sees only its own satellites,
    // numbers its frames exactly as the sequential loop does.
    let id = k * st.cfg.plane.satellite_count() as u64 + sat as u64 + 1;
    if st.keep_frame(sat, id) {
        let sensed = st
            .ledger
            .note(lifecycle(now, TraceKind::Sensed, id, sat, 0));
        let obs = ShedObs {
            unit: sat,
            now_s: now.as_secs(),
            queued_bits: st.queued_bits(),
            threshold_bits: st.service.shed_threshold_bits(),
        };
        let shed = match st.policy.decide_shed(&obs) {
            ShedDecision::Baseline => st.service.should_shed(sat, st.queued_bits()),
            ShedDecision::Coin { probability } => st.service.shed_coin(sat, probability),
        };
        if shed {
            // Backlog-triggered graceful degradation: drop at the source
            // rather than swamp the ring.
            st.ledger
                .note(lifecycle(now, TraceKind::Shed, id, sat, sensed).cause(TraceCause::Backlog));
        } else {
            st.queued_frames += 1;
            let frame = FrameInFlight {
                id,
                created: now,
                hops: 0,
                reversed: false,
                rev_up: false,
                last_seq: sensed,
            };
            dispatch(st, sched, frame, sat, now, 0);
        }
    } else {
        // Policy discards fold sense + drop into one event: both happen
        // at the same sim instant, and ~95% of frames end here, so the
        // fold halves the trace cost of the paper's dominant path.
        st.ledger
            .note(lifecycle(now, TraceKind::Discarded, id, sat, 0).cause(TraceCause::Policy));
    }
    schedule(sched, now + FRAME.period, Ev::Generate { sat, k: k + 1 });
}

/// A reverse-routed frame walks the global ring until it passes a live
/// SµDC's ingest window (or runs out of hops).
fn on_reverse_hop(
    st: &mut State,
    sched: &mut Scheduler<Ev>,
    frame: FrameInFlight,
    from: usize,
    now: Time,
) {
    let p = st.topo.reverse_next(from, frame.rev_up);
    let delivery = match st.topo.reverse_window(p) {
        Some(c) if !st.service.cluster_failed(c, now) => Some(c),
        _ => None,
    };
    if let Some(cluster) = delivery {
        st.queued_frames -= 1;
        enqueue(st, sched, frame, cluster, now);
    } else if frame.hops as usize > 2 * st.cfg.plane.satellite_count() {
        st.queued_frames -= 1;
        st.ledger.note(
            lifecycle(now, TraceKind::Undeliverable, frame.id, p, frame.last_seq)
                .cause(TraceCause::HopLimit),
        );
    } else {
        let mut f = frame;
        f.hops += 1;
        dispatch(st, sched, f, p, now, 0);
    }
}

/// A forward-routed frame arrives at the next node: relay onward, or
/// enter the home SµDC's compute queue — unless that SµDC has failed, in
/// which case the frame is rerouted (ring + active faults) or lost.
fn on_forward_hop(
    st: &mut State,
    sched: &mut Scheduler<Ev>,
    frame: FrameInFlight,
    from: usize,
    now: Time,
) {
    match st.topo.next_hop(from) {
        Some(next) => {
            let mut f = frame;
            f.hops += 1;
            dispatch(st, sched, f, next, now, 0);
        }
        None => {
            let cluster = st.topo.home_cluster(from);
            if st.service.cluster_failed(cluster, now) {
                if reroutes(
                    true,
                    frame.reversed,
                    st.topo.supports_reverse(),
                    st.cfg.faults.active(),
                ) {
                    let mut f = frame;
                    f.reversed = true;
                    f.rev_up = st.topo.reverse_direction_up(from);
                    f.hops += 1;
                    f.last_seq = st.ledger.note(
                        lifecycle(now, TraceKind::Reroute, f.id, from, f.last_seq)
                            .cause(TraceCause::ClusterDown),
                    );
                    dispatch(st, sched, f, from, now, 0);
                } else {
                    st.queued_frames -= 1;
                    st.ledger.note(
                        lifecycle(
                            now,
                            TraceKind::LostCluster,
                            frame.id,
                            cluster,
                            frame.last_seq,
                        )
                        .cause(TraceCause::ClusterDown),
                    );
                }
                return;
            }
            st.queued_frames -= 1;
            enqueue(st, sched, frame, cluster, now);
        }
    }
}

/// A SµDC finishes a frame. Work completing on a cluster that died in
/// the meantime dies with it instead of being credited as processed.
fn on_done(st: &mut State, frame: FrameInFlight, cluster: usize, corrupted: bool, now: Time) {
    let latency = (now - frame.created).as_secs();
    let record = |kind| lifecycle(now, kind, frame.id, cluster, frame.last_seq);
    if st.service.cluster_failed(cluster, now) {
        st.ledger
            .note(record(TraceKind::LostCluster).cause(TraceCause::ClusterDown));
    } else if corrupted {
        st.ledger.note(
            record(TraceKind::Corrupted)
                .cause(TraceCause::Seu)
                .value(latency),
        );
    } else {
        st.ledger.served(record(TraceKind::Served), latency);
    }
}

/// Flight-recorder timeline tick: snapshots the backlog, modelled link
/// state, and per-cluster queue depth at the configured sim-time
/// cadence, then reschedules itself. Pure observer — the outage-process
/// queries it makes are lazy advancements the in-order event loop would
/// perform anyway, so recorded runs replay byte-identically.
fn on_snapshot(st: &mut State, sched: &mut Scheduler<Ev>, now: Time) {
    let t = now.as_secs();
    st.ledger
        .note(TraceRecord::at(t, TraceKind::SnapshotNet).value(st.queued_bits()));
    if let Some((up, total)) = st.transport.link_states(now) {
        st.ledger.note(
            TraceRecord::at(t, TraceKind::SnapshotLinks)
                .unit(total as usize)
                .value(up as f64),
        );
    }
    for c in 0..st.topo.units() {
        let mut ev = TraceRecord::at(t, TraceKind::SnapshotCluster)
            .unit(c)
            .value(st.service.queue_depth_s(c, now));
        if st.service.cluster_failed(c, now) {
            ev = ev.cause(TraceCause::ClusterDown);
        }
        st.ledger.note(ev);
    }
    if let Some(cadence) = st.ledger.cadence_s() {
        schedule(sched, now + Time::from_secs(cadence), Ev::Snapshot);
    }
}

/// Handles one popped event — the complete event-loop dispatch table,
/// shared verbatim by the sequential loop and every shard of
/// [`super::parallel::try_run_threads`] through [`run_to_horizon`], so
/// the two runners cannot drift apart behaviourally. Serve events go to
/// [`serve::handlers::step`] with the run's [`ServeState`]; a run without one
/// schedules none.
#[inline(always)] // the sequential loop had this match inlined at the pop site; keep it there
fn step(
    (st, serve): &mut (State, Option<ServeState>),
    sched: &mut Scheduler<Ev>,
    ev: simkit::Event<Ev>,
) {
    let now = ev.time;
    match ev.payload {
        Ev::Generate { sat, k } => on_generate(st, sched, sat, k, now),
        Ev::Hop { frame, from } if frame.reversed => on_reverse_hop(st, sched, frame, from, now),
        Ev::Hop { frame, from } => on_forward_hop(st, sched, frame, from, now),
        Ev::Retry {
            frame,
            from,
            attempt,
        } => dispatch(st, sched, frame, from, now, attempt),
        Ev::Done {
            frame,
            cluster,
            corrupted,
        } => on_done(st, frame, cluster, corrupted, now),
        Ev::Snapshot => on_snapshot(st, sched, now),
        ev => {
            if let Some(serve) = serve {
                serve::handlers::step(st, serve, sched, ev, now);
            }
        }
    }
}

/// Builds a run's state and runs it to the horizon: seeds the imaging
/// of `sats` (ascending), then the timeline tick when `recorder` has a
/// cadence, then the serve load generators when `cfg` has a serving
/// layer, and drains the ledger into the recorder at the end. The
/// sequential loop runs every satellite; a shard of
/// [`super::parallel::try_run_threads`] runs its unit's, seeded in the
/// same order, so each shard replays the sequential loop's events for
/// its satellites.
pub(super) fn run_to_horizon(
    cfg: &SimConfig,
    recorder: Option<Arc<Recorder>>,
    pixel_capacity: f64,
    sats: impl Iterator<Item = usize>,
) -> (State, Option<ServeState>, Scheduler<Ev>) {
    let mut st = State::new(cfg, recorder, pixel_capacity);
    let n = cfg.plane.satellite_count();
    let mut sched: Scheduler<Ev> = Scheduler::new();
    for sat in sats {
        // Staggered uniformly over one period to avoid a thundering
        // herd at t = 0.
        let offset = FRAME.period * (sat as f64 / n as f64);
        schedule(&mut sched, offset, Ev::Generate { sat, k: 0 });
    }
    if let Some(cadence) = st.ledger.cadence_s() {
        schedule(&mut sched, Time::from_secs(cadence), Ev::Snapshot);
    }
    let mut serve = cfg
        .serve
        .as_ref()
        .map(|sc| ServeState::new(sc, st.topo.units(), pixel_capacity));
    if let Some(serve) = &mut serve {
        serve::handlers::serve_start(&mut st, serve, &mut sched);
    }
    let mut run = (st, serve);
    simkit::run_until(&mut sched, &mut run, cfg.duration, step);
    let (mut st, serve) = run;
    st.ledger.drain();
    (st, serve, sched)
}

/// Assembles the report: utilisation from the layers' busy-time
/// high-water marks, stability from goodput and residual backlog, and
/// the fault summary folded out of the outage processes.
pub(super) fn report(
    mut st: State,
    serve: Option<ServeState>,
    sched: &Scheduler<Ev>,
    cfg: &SimConfig,
) -> SimReport {
    let units = st.topo.units();
    // Utilisation: scheduled busy time of ingest links and SµDC pipelines
    // relative to the horizon (values beyond the horizon mean saturation).
    let horizon = cfg.duration.as_secs();
    let ingest: Vec<f64> = (0..cfg.plane.satellite_count())
        .filter(|&s| st.topo.next_hop(s).is_none())
        .map(|s| (st.transport.busy_s(s) / horizon).min(1.0))
        .collect();
    let ingest_utilization = ingest.iter().sum::<f64>() / ingest.len().max(1) as f64;
    let compute_utilization = (0..units)
        .map(|c| (st.service.busy_s(c) / horizon).min(1.0))
        .sum::<f64>()
        / units as f64;

    let frames = &st.ledger.frames;
    let kept = frames.count(TraceKind::Sensed);
    let generated = kept + frames.count(TraceKind::Discarded);
    let processed = frames.count(TraceKind::Served);
    let goodput = if kept == 0 {
        1.0
    } else {
        processed as f64 / kept as f64
    };
    // Stable if goodput is near 1 and residual backlog is within a few
    // seconds of ingest work.
    let residual = DataSize::from_bits(st.queued_bits());
    let per_cluster_ingest = cfg.ingest_links as f64 * cfg.isl_capacity.as_bps();
    let stable = goodput > 0.9 && residual.as_bits() < per_cluster_ingest * units as f64 * 3.0;

    // Fold the fault processes into the summary: count outage windows
    // that began within the horizon and average availability over every
    // modelled process (1.0 when nothing is modelled).
    let mut fault_summary = FaultSummary {
        retries: frames.count(TraceKind::Retry),
        reroutes: frames.count(TraceKind::Reroute),
        undeliverable: frames.count(TraceKind::Undeliverable),
        frames_shed: frames.count(TraceKind::Shed),
        frames_corrupted: frames.count(TraceKind::Corrupted),
        ..FaultSummary::default()
    };
    let mut avail = (0.0, 0usize);
    st.transport
        .fold_outages(horizon, &mut fault_summary, &mut avail);
    st.service
        .fold_outages(horizon, &mut fault_summary, &mut avail);
    if avail.1 > 0 {
        fault_summary.availability = avail.0 / avail.1 as f64;
    }

    if telemetry::level_enabled(telemetry::Level::Debug) {
        let counters = sched.counters();
        let paths = sched.paths();
        let mut fields = vec![
            ("scheduled".into(), counters.scheduled.into()),
            ("processed".into(), counters.processed.into()),
            ("peak_queue_depth".into(), counters.peak_queue_depth.into()),
            ("sim_time_s".into(), sched.now().as_secs().into()),
            ("heap_pops".into(), paths.heap_pops.into()),
            ("lane_pops".into(), paths.lane_pops.into()),
            ("stream_pops".into(), paths.stream_pops.into()),
        ];
        // Per named stream: pushes naming it, and those that fell back
        // to the lane or heap because they were below its tail.
        for (j, name) in STREAM_NAMES.iter().enumerate() {
            if paths.named[j] > 0 {
                fields.push((format!("{name}.named"), paths.named[j].into()));
                fields.push((format!("{name}.fell_back"), paths.fell_back[j].into()));
            }
        }
        telemetry::debug("sim.scheduler", fields);
        if cfg.faults.active() {
            telemetry::debug(
                "sim.faults",
                vec![
                    ("link_outages".into(), fault_summary.link_outages.into()),
                    (
                        "cluster_outages".into(),
                        fault_summary.cluster_outages.into(),
                    ),
                    ("retries".into(), fault_summary.retries.into()),
                    ("reroutes".into(), fault_summary.reroutes.into()),
                    (
                        "frames_corrupted".into(),
                        fault_summary.frames_corrupted.into(),
                    ),
                    ("frames_shed".into(), fault_summary.frames_shed.into()),
                    ("availability".into(), fault_summary.availability.into()),
                ],
            );
        }
    }

    SimReport {
        generated,
        kept,
        processed,
        discard_rate: if generated == 0 {
            0.0
        } else {
            1.0 - kept as f64 / generated as f64
        },
        mean_latency_s: st.ledger.latency.mean(),
        max_latency_s: st.ledger.latency.max().unwrap_or(0.0),
        ingest_utilization,
        compute_utilization,
        residual_backlog: residual,
        lost_to_failures: frames.count(TraceKind::LostCluster),
        goodput,
        stable,
        scheduler: sched.counters(),
        faults: fault_summary,
        serve: serve.map(|s| s.report(horizon, st.ledger.requests.count(TraceKind::Retry))),
    }
}

/// The sequential loop over every satellite of a validated `cfg`,
/// recording into `recorder` when one is given (see
/// [`super::parallel::try_run_recorded`]).
pub(super) fn run_sequential(
    cfg: &SimConfig,
    recorder: Option<Arc<Recorder>>,
    pixel_capacity: f64,
) -> SimReport {
    let sats = 0..cfg.plane.satellite_count();
    let (st, serve, sched) = run_to_horizon(cfg, recorder, pixel_capacity, sats);
    report(st, serve, &sched, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::model::SimTopology;
    use crate::sim::serve::OPEN_SLOT;
    use crate::sim::{run, try_run, try_run_recorded};
    use crate::sizing::SudcSpec;
    use units::{DataRate, Length};
    use workloads::{Application, Device};

    /// Every event class that names a stream names one whose label
    /// says so, and the frame-path classes name none.
    #[test]
    fn stream_names_match_the_event_classes() {
        let frame = FrameInFlight {
            id: 1,
            created: Time::ZERO,
            hops: 0,
            reversed: false,
            rev_up: false,
            last_seq: 0,
        };
        let req = Request {
            id: 1,
            tenant: 3,
            created: Time::ZERO,
            bits: 1.0,
            pixels: 1.0,
            slot: OPEN_SLOT,
            last_seq: 0,
        };
        let named = |ev: Ev| ev.stream().map(|j| STREAM_NAMES[j]);
        for attempt in 1..=12 {
            let name = named(Ev::ServeRetry {
                req,
                from: 0,
                attempt,
            });
            assert!(name.is_some_and(|n| n.starts_with("serve_retry.")));
            let retry = Ev::Retry {
                frame,
                from: 0,
                attempt,
            };
            assert_eq!(named(retry), Some("retry"));
        }
        for tenant in 0..4 {
            let name = named(Ev::ServeArrival { tenant, slot: 0 });
            assert!(name.is_some_and(|n| n.starts_with("serve_arrival.")));
        }
        for cluster in 0..32 {
            let done = Ev::ServeBatchDone {
                size: 1,
                cluster,
                corrupted: false,
            };
            assert!(named(done).is_some_and(|n| n.starts_with("serve_batch_done.")));
            let timer = Ev::ServeBatchTimer {
                cluster,
                tenant: 1,
                epoch: 0,
            };
            assert_eq!(named(timer), Some("serve_batch_timer"));
        }
        for ev in [
            Ev::Generate { sat: 0, k: 0 },
            Ev::Hop { frame, from: 0 },
            Ev::Done {
                frame,
                cluster: 0,
                corrupted: false,
            },
            Ev::Snapshot,
            Ev::ServeHop { req, from: 0 },
        ] {
            assert_eq!(ev.stream(), None);
        }
    }

    #[test]
    fn reroute_rule_reverses_only_where_a_reverse_ring_can_help() {
        // (cluster_down, reversed, supports_reverse, faults_active) → reverse?
        let table = [
            // Retries exhausted: reverse only from an un-reversed frame
            // on a reverse-capable topology.
            ((false, false, true, true), true),
            ((false, true, true, true), false),
            ((false, false, false, true), false),
            // Cluster down: reverse needs both a ring and active faults.
            ((true, false, true, true), true),
            ((true, false, true, false), false),
        ];
        for ((down, reversed, ring, faults), want) in table {
            assert_eq!(
                reroutes(down, reversed, ring, faults),
                want,
                "cluster_down={down} reversed={reversed} ring={ring} faults={faults}"
            );
        }
    }

    fn quick(app: Application, res_m: f64, discard: f64, clusters: usize) -> SimReport {
        let mut cfg = SimConfig::paper_reference(app, Length::from_m(res_m), discard);
        cfg.clusters = clusters;
        cfg.duration = Time::from_minutes(2.0);
        run(&cfg)
    }

    #[test]
    fn generation_count_matches_schedule() {
        let r = quick(Application::AirPollution, 3.0, 0.0, 1);
        // 64 satellites × (120 s / 1.5 s) = 5120 frames, plus satellite
        // 0's frame landing exactly on the closed horizon boundary.
        assert_eq!(r.generated, 64 * 80 + 1);
        assert_eq!(r.kept, r.generated);
        assert_eq!(r.discard_rate, 0.0);
    }

    #[test]
    fn uniform_discard_rate_is_achieved() {
        let r = quick(Application::AirPollution, 3.0, 0.95, 1);
        assert!(
            (r.discard_rate - 0.95).abs() < 0.02,
            "achieved {}",
            r.discard_rate
        );
    }

    #[test]
    fn easy_configuration_is_stable_with_low_latency() {
        // 3 m, 95% discard, 10 Gbit/s, APP on a 4 kW 3090: trivially
        // sustainable.
        let r = quick(Application::AirPollution, 3.0, 0.95, 1);
        assert!(r.stable, "{r:?}");
        assert!(r.goodput > 0.95);
        assert!(r.mean_latency_s < 5.0, "mean latency {}", r.mean_latency_s);
    }

    #[test]
    fn isl_overload_is_detected() {
        // 30 cm no discard: per-sat rate ≈ 20 Gbit/s ≫ 2 × 10 Gbit/s
        // ingest. Backlog must explode even though TM compute is cheap.
        let r = quick(Application::TrafficMonitoring, 0.3, 0.0, 1);
        assert!(!r.stable, "{r:?}");
        assert!(r.goodput < 0.5);
        assert!(r.ingest_utilization > 0.95);
    }

    #[test]
    fn compute_overload_is_detected() {
        // 1 m, 50% discard: ingest is 64 × 1.8 Gbit/s × 0.5 ≈ 58 Gbit/s
        // split over many relay chains — but FD compute (307 kpx/s/W ×
        // 4 kW ≈ 1.23 Gpx/s) is under the 64 × 75.5 Mpx/s × 0.5 ≈
        // 2.4 Gpx/s demand.
        let r = quick(Application::FloodDetection, 1.0, 0.5, 1);
        assert!(!r.stable, "{r:?}");
        assert!(r.compute_utilization > 0.95);
    }

    #[test]
    fn splitting_into_clusters_restores_stability() {
        let one = quick(Application::FloodDetection, 1.0, 0.5, 1);
        let four = quick(Application::FloodDetection, 1.0, 0.5, 4);
        assert!(!one.stable);
        assert!(four.stable, "{four:?}");
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let a = quick(Application::UrbanEmergency, 1.0, 0.5, 2);
        let b = quick(Application::UrbanEmergency, 1.0, 0.5, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn scheduler_counters_are_populated_and_reproducible() {
        let a = quick(Application::AirPollution, 3.0, 0.5, 1);
        let b = quick(Application::AirPollution, 3.0, 0.5, 1);
        assert!(a.scheduler.scheduled > 0, "{:?}", a.scheduler);
        assert!(a.scheduler.processed > 0);
        assert!(a.scheduler.peak_queue_depth > 0);
        // Horizon cutoff: some scheduled events go unprocessed.
        assert!(a.scheduler.processed <= a.scheduler.scheduled);
        assert_eq!(
            a.scheduler, b.scheduler,
            "counters must be seed-deterministic"
        );
    }

    #[test]
    fn different_seed_changes_discard_draws() {
        let mut cfg =
            SimConfig::paper_reference(Application::UrbanEmergency, Length::from_m(1.0), 0.5);
        cfg.duration = Time::from_minutes(1.0);
        let a = run(&cfg);
        cfg.seed ^= 0xDEAD_BEEF;
        let b = run(&cfg);
        assert_ne!(a.kept, b.kept, "seed should perturb the discard coin");
    }

    #[test]
    fn ai100_sudc_processes_more() {
        let mut cfg = SimConfig::paper_reference(Application::OilSpill, Length::from_m(1.0), 0.5);
        cfg.duration = Time::from_minutes(2.0);
        let gpu = run(&cfg);
        cfg.sudc = SudcSpec::paper_4kw(Device::CloudAi100);
        let acc = run(&cfg);
        assert!(acc.processed >= gpu.processed);
        assert!(acc.compute_utilization < gpu.compute_utilization);
    }

    #[test]
    fn klist_ingest_relieves_the_isl_bottleneck() {
        // TM at 1 m / no discard: 64 × 1.81 Gbit/s of frames against a
        // single SµDC. A plain ring (2 × 10 Gbit/s ingest) drowns; a
        // 16-list (16 × 10 Gbit/s) carries it, and TM compute
        // (10.4 Gpx/s at 4 kW) absorbs the 4.8 Gpx/s demand.
        let mut cfg =
            SimConfig::paper_reference(Application::TrafficMonitoring, Length::from_m(1.0), 0.0);
        cfg.duration = Time::from_minutes(2.0);
        let ring = run(&cfg);
        assert!(!ring.stable, "{ring:?}");

        cfg.ingest_links = 16;
        let klist = run(&cfg);
        assert!(klist.stable, "{klist:?}");
        assert!(klist.goodput > ring.goodput + 0.3);
    }

    #[test]
    fn klist_scaling_matches_sec8_factor() {
        // Sec. 8: "the number of EO satellites supported by a k-list
        // topology cluster is k/2 times those shown in Table 8". At a
        // capacity where a ring supports 10 of 16 satellites per
        // cluster, a 4-list supports 20 ≥ 16.
        let mut cfg =
            SimConfig::paper_reference(Application::TrafficMonitoring, Length::from_m(1.0), 0.0);
        cfg.clusters = 4; // 16 satellites each
        cfg.duration = Time::from_minutes(2.0);
        let ring = run(&cfg);
        assert!(!ring.stable, "ring supports only 10 of 16: {ring:?}");
        cfg.ingest_links = 4;
        let four = run(&cfg);
        assert!(four.stable, "4-list supports 20 ≥ 16: {four:?}");
    }

    #[test]
    fn geo_star_carries_what_a_ring_cannot() {
        // 30 cm imagery without discard generates ~20 Gbit/s per
        // satellite: no LEO ring arc can relay 64 of those through two
        // (or even sixteen) 10 Gbit/s ingest links. With dedicated
        // 25 Gbit/s LEO→GEO uplinks and three large GEO SµDCs, the
        // network side clears — exactly the Sec. 9 argument for the star.
        let mut cfg =
            SimConfig::paper_reference(Application::TrafficMonitoring, Length::from_cm(30.0), 0.0);
        cfg.duration = Time::from_minutes(1.5);
        cfg.ingest_links = 16;
        let ring = run(&cfg);
        assert!(!ring.stable, "{ring:?}");

        cfg.topology = SimTopology::GeoStar;
        cfg.clusters = 3;
        cfg.isl_capacity = DataRate::from_gbps(25.0);
        cfg.sudc = SudcSpec::station_256kw(Device::Rtx3090);
        let star = run(&cfg);
        assert!(star.stable, "{star:?}");
        // GEO adds ~0.13 s of propagation to every frame.
        assert!(
            star.mean_latency_s > 0.12,
            "latency {}",
            star.mean_latency_s
        );
    }

    #[test]
    fn single_sudc_failure_loses_everything_after_it() {
        // One SµDC, fails at the midpoint: roughly half the frames are
        // lost — the all-eggs-in-one-basket case of Sec. 9.
        let mut cfg =
            SimConfig::paper_reference(Application::AirPollution, Length::from_m(3.0), 0.95);
        cfg.duration = Time::from_minutes(2.0);
        cfg.failures = vec![(0, Time::from_minutes(1.0))];
        let r = run(&cfg);
        let lost_frac = r.lost_to_failures as f64 / r.kept as f64;
        assert!(
            (0.35..0.65).contains(&lost_frac),
            "lost fraction {lost_frac}"
        );
        assert!(!r.stable);
    }

    #[test]
    fn split_fleet_degrades_gracefully_under_one_failure() {
        // Four SµDCs, one fails: ~1/4 of frames lost, the rest keep
        // flowing — the resilience payoff of splitting/disaggregation.
        let mut cfg =
            SimConfig::paper_reference(Application::AirPollution, Length::from_m(3.0), 0.95);
        cfg.clusters = 4;
        cfg.duration = Time::from_minutes(2.0);
        cfg.failures = vec![(2, Time::ZERO)];
        let r = run(&cfg);
        let lost_frac = r.lost_to_failures as f64 / r.kept as f64;
        assert!(
            (0.15..0.35).contains(&lost_frac),
            "lost fraction {lost_frac}"
        );
        assert!(
            r.processed as f64 / r.kept as f64 > 0.6,
            "surviving clusters keep processing: {r:?}"
        );
    }

    #[test]
    fn no_failures_means_no_losses() {
        let r = quick(Application::AirPollution, 3.0, 0.95, 2);
        assert_eq!(r.lost_to_failures, 0);
        assert_eq!(r.faults, crate::sim::FaultSummary::default());
        assert_eq!(r.faults.availability, 1.0);
    }

    #[test]
    fn queued_work_dies_with_the_cluster() {
        // Regression: frames already *inside* a SµDC's compute queue when
        // it fails must not be credited as processed. With one cluster
        // failing at T, the processed count must equal a fault-free run
        // truncated at T — everything completing after T died with the
        // SµDC. (Previously the failure check ran only at frame arrival,
        // so in-queue frames kept completing on dead hardware.)
        let t_fail = Time::from_secs(61.3);
        let mut cfg =
            SimConfig::paper_reference(Application::AirPollution, Length::from_m(3.0), 0.95);
        cfg.duration = Time::from_minutes(2.0);
        cfg.failures = vec![(0, t_fail)];
        let failed = run(&cfg);

        let mut truncated = cfg.clone();
        truncated.failures.clear();
        truncated.duration = t_fail;
        let baseline = run(&truncated);

        assert_eq!(
            failed.processed, baseline.processed,
            "no frame may finish on a dead SµDC: {failed:?}"
        );
        assert!(failed.lost_to_failures > 0);
    }

    fn with_scenario(app: Application, res_m: f64, discard: f64, scenario: &str) -> SimConfig {
        let mut cfg = SimConfig::paper_reference(app, Length::from_m(res_m), discard);
        cfg.duration = Time::from_minutes(2.0);
        cfg.faults = crate::sim::FaultModel::scenario(scenario).expect("known scenario");
        cfg
    }

    #[test]
    fn flaky_links_retry_reroute_and_degrade() {
        let cfg = with_scenario(Application::AirPollution, 3.0, 0.95, "flaky_links");
        let r = run(&cfg);
        assert_eq!(r, run(&cfg), "same seed, same faults, same report");
        assert!(r.faults.link_outages > 0, "{:?}", r.faults);
        assert!(r.faults.retries > 0, "{:?}", r.faults);
        assert!(r.faults.reroutes > 0, "{:?}", r.faults);
        assert!(r.faults.availability < 1.0 && r.faults.availability > 0.5);

        let mut clean = cfg.clone();
        clean.faults = crate::sim::FaultModel::none();
        let baseline = run(&clean);
        assert!(
            r.goodput <= baseline.goodput,
            "{} vs {}",
            r.goodput,
            baseline.goodput
        );
        // Every kept frame is accounted for: processed, corrupted, lost,
        // or still somewhere in flight at the horizon.
        assert!(r.processed + r.faults.undeliverable + r.lost_to_failures <= r.kept);
    }

    #[test]
    fn seu_storm_corrupts_output_and_slows_compute() {
        let cfg = with_scenario(Application::AirPollution, 3.0, 0.95, "seu_storm");
        let r = run(&cfg);
        let mut clean = cfg.clone();
        clean.faults = crate::sim::FaultModel::none();
        let baseline = run(&clean);
        assert!(r.faults.frames_corrupted > 0, "{:?}", r.faults);
        assert!(r.processed < baseline.processed);
        assert!(r.goodput < baseline.goodput);
        // Corruption is silent: the work was still done, only wasted.
        assert_eq!(r.kept, baseline.kept, "SEUs do not change the discard draw");
    }

    #[test]
    fn cluster_outages_reroute_to_live_sudcs() {
        let mut cfg = with_scenario(Application::AirPollution, 3.0, 0.95, "cluster_loss");
        cfg.clusters = 4;
        let r = run(&cfg);
        assert!(r.faults.cluster_outages > 0, "{:?}", r.faults);
        assert!(r.faults.reroutes > 0, "{:?}", r.faults);
        // Rerouting keeps goodput well above the availability floor a
        // lose-everything policy would imply.
        let mut clean = cfg.clone();
        clean.faults = crate::sim::FaultModel::none();
        let baseline = run(&clean);
        assert!(r.goodput <= baseline.goodput);
        assert!(
            r.processed as f64 > 0.5 * baseline.processed as f64,
            "rerouting should preserve most throughput: {r:?}"
        );
    }

    #[test]
    fn combined_scenario_sheds_load_under_backlog() {
        // TM at 1 m with no discard swamps a plain ring: the backlog
        // crosses the combined scenario's shedding threshold and sources
        // start dropping frames instead of feeding the pile-up.
        let cfg = with_scenario(Application::TrafficMonitoring, 1.0, 0.0, "combined");
        let r = run(&cfg);
        assert_eq!(r, run(&cfg), "combined scenario stays deterministic");
        assert!(r.faults.frames_shed > 0, "{:?}", r.faults);
        assert!(r.faults.link_outages > 0);
        assert!(r.kept > r.processed);
    }

    #[test]
    fn fault_free_runs_ignore_fault_plumbing() {
        // A FaultModel::none() run never meets a down link, so the retry
        // site is never asked: the reactive controller, whose only lever
        // is the retry backoff, reports exactly what the static one does.
        let mut a = SimConfig::paper_reference(Application::OilSpill, Length::from_m(1.0), 0.5);
        a.duration = Time::from_minutes(1.0);
        let mut b = a.clone();
        b.policy = crate::sim::PolicyKind::Reactive;
        assert_eq!(
            run(&a),
            run(&b),
            "the retry policy is inert without outages"
        );
    }

    #[test]
    fn geo_star_does_not_require_divisible_clusters() {
        // 64 satellites over 3 GEO nodes: fine for a star, illegal for a
        // ring.
        let mut cfg =
            SimConfig::paper_reference(Application::AirPollution, Length::from_m(3.0), 0.95);
        cfg.topology = SimTopology::GeoStar;
        cfg.clusters = 3;
        cfg.duration = Time::from_minutes(1.0);
        let r = run(&cfg);
        assert!(r.stable, "{r:?}");
    }

    #[test]
    #[should_panic(expected = "even ingest_links")]
    fn odd_klist_panics() {
        let mut cfg =
            SimConfig::paper_reference(Application::AirPollution, Length::from_m(3.0), 0.0);
        cfg.ingest_links = 3;
        let _ = run(&cfg);
    }

    #[test]
    #[should_panic(expected = "divide the ring")]
    fn invalid_cluster_count_panics() {
        let mut cfg =
            SimConfig::paper_reference(Application::AirPollution, Length::from_m(3.0), 0.0);
        cfg.clusters = 7; // 64 % 7 != 0
        let _ = run(&cfg);
    }

    #[test]
    fn try_run_reports_bad_configs_as_errors() {
        let mut cfg =
            SimConfig::paper_reference(Application::AirPollution, Length::from_m(3.0), 0.0);
        cfg.ingest_links = 3;
        assert!(try_run(&cfg).is_err());
        cfg.ingest_links = 2;
        cfg.clusters = 7;
        assert!(try_run(&cfg).is_err());
        cfg.clusters = 4;
        assert!(try_run(&cfg).is_ok());
    }

    #[test]
    fn split_factor_one_matches_the_plain_ring_exactly() {
        let mut ring =
            SimConfig::paper_reference(Application::FloodDetection, Length::from_m(1.0), 0.5);
        ring.clusters = 4;
        ring.duration = Time::from_minutes(2.0);
        let mut split = ring.clone();
        split.topology = SimTopology::SplitRing { factor: 1 };
        assert_eq!(run(&ring), run(&split), "factor 1 is the identity split");
    }

    #[test]
    fn split_ring_relieves_the_isl_bottleneck() {
        // TM at 1 m / no discard over one arc drowns a plain ring (the
        // klist test above); splitting the arc into 8 sub-SµDCs shortens
        // every relay chain 8×, which clears the network side while TM
        // compute is cheap enough that power/8 per sub-SµDC still keeps
        // up — the paper's Sec. 8 splitting argument.
        let mut cfg =
            SimConfig::paper_reference(Application::TrafficMonitoring, Length::from_m(1.0), 0.0);
        cfg.duration = Time::from_minutes(2.0);
        let ring = run(&cfg);
        assert!(!ring.stable, "{ring:?}");

        cfg.topology = SimTopology::SplitRing { factor: 8 };
        let split = run(&cfg);
        assert!(split.stable, "{split:?}");
        assert!(split.goodput > ring.goodput + 0.3);
    }

    #[test]
    fn split_ring_divides_compute_not_multiplies_it() {
        // FD at 1 m / 50% discard is compute-bound: splitting divides
        // each sub-SµDC's capacity by the factor, so total compute is
        // unchanged and the configuration must stay overloaded (unlike
        // adding whole clusters, which multiplies compute).
        let mut cfg =
            SimConfig::paper_reference(Application::FloodDetection, Length::from_m(1.0), 0.5);
        cfg.duration = Time::from_minutes(2.0);
        let whole = run(&cfg);
        assert!(!whole.stable, "{whole:?}");

        cfg.topology = SimTopology::SplitRing { factor: 4 };
        let split = run(&cfg);
        assert!(!split.stable, "splitting adds no compute: {split:?}");
        assert!(split.compute_utilization > 0.95);
    }

    #[test]
    fn recording_does_not_perturb_the_simulation() {
        let cfg = with_scenario(Application::AirPollution, 3.0, 0.95, "combined");
        let plain = run(&cfg);
        let rec = Arc::new(Recorder::new(1 << 20).timeline(5.0));
        let mut recorded = try_run_recorded(&cfg, rec.clone()).expect("valid config");
        // Timeline ticks are scheduled events, so only the scheduler
        // counters may differ; every simulation outcome must match.
        recorded.scheduler = plain.scheduler;
        assert_eq!(recorded, plain);
        assert!(!rec.is_empty(), "the recorder saw the run");
    }

    #[test]
    fn recorded_run_emits_sensed_and_terminal_events() {
        let mut cfg =
            SimConfig::paper_reference(Application::AirPollution, Length::from_m(3.0), 0.95);
        cfg.duration = Time::from_minutes(1.0);
        let rec = Arc::new(Recorder::new(1 << 20));
        let r = try_run_recorded(&cfg, rec.clone()).expect("valid config");
        let log = telemetry::trace::TraceLog::from_events(rec.events());
        assert_eq!(
            log.count_kind(TraceKind::Sensed),
            r.kept,
            "kept frames root at Sensed; policy discards are single-event"
        );
        assert_eq!(log.count_kind(TraceKind::Served), r.processed);
        assert_eq!(
            log.count_kind(TraceKind::Discarded),
            r.generated - r.kept,
            "every policy discard is traced"
        );
        assert_eq!(
            rec.timeline_cadence_s(),
            None,
            "no cadence, no snapshot ticks"
        );
        assert_eq!(log.count_kind(TraceKind::SnapshotNet), 0);
    }

    #[test]
    fn serve_overlay_does_not_change_non_serve_reports() {
        // Belt and braces for the byte-identity gate: a config with
        // `serve: None` must produce the exact report it did before the
        // serving layer existed — same seed, same counters, bit for bit.
        let mut cfg =
            SimConfig::paper_reference(Application::AirPollution, Length::from_m(3.0), 0.95);
        cfg.duration = Time::from_minutes(2.0);
        let plain = run(&cfg);
        assert_eq!(plain.serve, None);
        assert_eq!(plain, run(&cfg));
    }

    #[test]
    fn split_ring_is_seed_deterministic() {
        let mut cfg =
            SimConfig::paper_reference(Application::AirPollution, Length::from_m(3.0), 0.95);
        cfg.clusters = 2;
        cfg.topology = SimTopology::SplitRing { factor: 4 };
        cfg.duration = Time::from_minutes(2.0);
        assert_eq!(run(&cfg), run(&cfg));
    }
}
