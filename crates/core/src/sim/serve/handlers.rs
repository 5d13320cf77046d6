//! The serving layer's event handlers: load generation, admission,
//! request transport, batching and completion.
//!
//! `engine::step` matches the run's `Option<ServeState>` once per
//! serve event and hands [`step`] the frame engine's [`State`] and the
//! [`ServeState`] beside it, so no handler here asks again whether the
//! run serves. Requests ride the frame engine's transport
//! and service layers, record through its ledger and ask its
//! controller; every serve draw comes from a dedicated stream
//! (`serve_arrival`, `serve_think`, `serve_source`, `serve_seu`), so a
//! run without a serving layer draws exactly what it did before one
//! existed.

use simkit::rng::exponential;
use simkit::Scheduler;
use telemetry::trace::{TraceCause, TraceKind};
use units::Time;

use crate::sim::engine::{lifecycle, schedule, Ev, State};
use crate::sim::faults::RETRY_BACKOFF;
use crate::sim::policy::{LinkObs, RetryDecision};
use crate::sim::serve::{admit, Admission, LoadModel, Request, ServeState, OPEN_SLOT};

/// Handles one popped serve event; frame events belong to
/// `engine::step`, which never passes them here.
#[inline(always)]
pub(in crate::sim) fn step(
    st: &mut State,
    serve: &mut ServeState,
    sched: &mut Scheduler<Ev>,
    ev: Ev,
    now: Time,
) {
    let mut cx = Ctx {
        st,
        serve,
        sched,
        now,
    };
    match ev {
        Ev::ServeArrival { tenant, slot } => cx.on_serve_arrival(tenant, slot),
        Ev::ServeHop { req, from } => cx.on_serve_hop(req, from),
        Ev::ServeRetry { req, from, attempt } => cx.serve_dispatch(req, from, attempt),
        Ev::ServeBatchTimer {
            cluster,
            tenant,
            epoch,
        } => {
            let (cluster, tenant) = (cluster as usize, tenant as usize);
            if cx.serve.batcher.timer_fired(cluster, tenant, epoch) {
                cx.serve_drain_queue(cluster, tenant, true);
            }
        }
        Ev::ServeBatchDone {
            size,
            cluster,
            corrupted,
        } => cx.on_serve_batch_done(size, cluster as usize, corrupted),
        Ev::Generate { .. }
        | Ev::Hop { .. }
        | Ev::Retry { .. }
        | Ev::Done { .. }
        | Ev::Snapshot => {}
    }
}

/// Seeds the serve load generators at t = 0: every open-loop tenant
/// draws its first Poisson gap, every closed-loop slot draws an initial
/// think time (staggering the slots' first submissions).
pub(in crate::sim) fn serve_start(
    st: &mut State,
    serve: &mut ServeState,
    sched: &mut Scheduler<Ev>,
) {
    let mut cx = Ctx {
        st,
        serve,
        sched,
        now: Time::ZERO,
    };
    for t in 0..cx.serve.tenants.len() {
        cx.serve_next_arrival(t as u32);
        if let LoadModel::Closed { concurrency, .. } = cx.serve.tenants[t].spec.load {
            for slot in 0..concurrency {
                cx.serve_requeue_slot(t as u32, slot as u32);
            }
        }
    }
}

/// What a serve handler works on: the frame engine's state, the
/// serving layer's beside it, the calendar, and the event's time.
struct Ctx<'a> {
    st: &'a mut State,
    serve: &'a mut ServeState,
    sched: &'a mut Scheduler<Ev>,
    now: Time,
}

impl Ctx<'_> {
    /// Schedules open-loop tenant `tenant`'s next arrival, a Poisson
    /// gap drawn from the dedicated `serve_arrival` stream, keyed by
    /// tenant and draw ordinal in the same `(id << 32) | ordinal` style
    /// as the frame-side streams. Closed-loop tenants draw nothing.
    fn serve_next_arrival(&mut self, tenant: u32) {
        let tr = &mut self.serve.tenants[tenant as usize];
        let LoadModel::Open { rate_rps } = tr.spec.load else {
            return;
        };
        tr.arrival_draws += 1;
        let key = (u64::from(tenant) << 32) | (tr.arrival_draws & 0xFFFF_FFFF);
        let mut rng = self.st.rng_factory.stream("serve_arrival", key);
        let at = self.now + Time::from_secs(exponential(&mut rng, 1.0 / rate_rps));
        let slot = OPEN_SLOT;
        schedule(self.sched, at, Ev::ServeArrival { tenant, slot });
    }

    /// Hands a request slot back to its load generator: for closed-loop
    /// tenants, schedules the slot's next submission after a think time
    /// drawn from the dedicated `serve_think` stream (no draw for a zero
    /// mean) — so outstanding requests can never exceed the configured
    /// concurrency. Open-loop slots are exogenous and need nothing.
    fn serve_requeue_slot(&mut self, tenant: u32, slot: u32) {
        if slot == OPEN_SLOT {
            return;
        }
        let tr = &mut self.serve.tenants[tenant as usize];
        let think = match tr.spec.load {
            LoadModel::Closed { think_s, .. } if think_s > 0.0 => {
                tr.think_draws += 1;
                let key = (u64::from(tenant) << 32) | (tr.think_draws & 0xFFFF_FFFF);
                let mut rng = self.st.rng_factory.stream("serve_think", key);
                exponential(&mut rng, think_s)
            }
            _ => 0.0,
        };
        let at = self.now + Time::from_secs(think);
        schedule(self.sched, at, Ev::ServeArrival { tenant, slot });
    }

    /// Closes out an *admitted* request: decrements the tenant's
    /// in-flight gauge and requeues the slot. Rejected requests never
    /// entered the gauge (see [`ServeState::begin_request`]) and use
    /// [`Ctx::serve_requeue_slot`] directly.
    fn serve_finish_slot(&mut self, req: &Request) {
        let tr = &mut self.serve.tenants[req.tenant as usize];
        tr.inflight = tr.inflight.saturating_sub(1);
        self.serve_requeue_slot(req.tenant, req.slot);
    }

    /// An admitted request dies in the network or on dead hardware:
    /// counted against its tenant, traced as a rejection, and its slot
    /// handed back.
    fn serve_lose(&mut self, req: &Request, unit: usize, cause: TraceCause) {
        self.serve.tenants[req.tenant as usize].lost += 1;
        let rec = lifecycle(self.now, TraceKind::ReqRejected, req.id, unit, req.last_seq);
        self.st.ledger.note_request(rec.cause(cause));
        self.serve_finish_slot(req);
    }

    /// A load generator produces a request: pick its entry satellite
    /// from the `serve_source` stream, run admission against the
    /// destination SµDC's compute backlog, and launch admitted requests
    /// into the network. Open-loop generators reschedule themselves
    /// unconditionally — arrivals are exogenous, rejections included.
    fn on_serve_arrival(&mut self, tenant: u32, slot: u32) {
        let (t, now) = (tenant as usize, self.now);
        if slot == OPEN_SLOT {
            self.serve_next_arrival(tenant);
        }
        let id = self.serve.begin_request(t);
        let mut rng = self
            .st
            .rng_factory
            .stream("serve_source", self.serve.arrivals);
        let sat = rng.next_below(self.st.cfg.plane.satellite_count() as u64) as usize;
        let arrived =
            self.st
                .ledger
                .note_request(lifecycle(now, TraceKind::ReqArrived, id, sat, 0));
        let rejected =
            |cause| lifecycle(now, TraceKind::ReqRejected, id, sat, arrived).cause(cause);
        match self.serve_admission_verdict(t, sat) {
            Admission::Admit => {
                let admitted = lifecycle(now, TraceKind::ReqAdmitted, id, sat, arrived);
                let spec = &self.serve.tenants[t].spec;
                let req = Request {
                    id,
                    tenant,
                    created: now,
                    bits: spec.request_bits,
                    pixels: spec.request_pixels,
                    slot,
                    last_seq: self.st.ledger.note_request(admitted),
                };
                self.serve_dispatch(req, sat, 0);
            }
            Admission::Throttled => {
                self.st.ledger.note_request(rejected(TraceCause::Throttled));
                self.serve_requeue_slot(tenant, slot);
            }
            Admission::Shed => {
                self.st.ledger.note_request(rejected(TraceCause::Backlog));
                self.serve_requeue_slot(tenant, slot);
            }
        }
    }

    /// Runs one request entering at `sat` through the admission gate of
    /// its home SµDC, where its relay chain ends (chains never leave
    /// the home cluster): the token-bucket admission decides against
    /// that SµDC's compute backlog and the per-tenant counters record
    /// the verdict.
    fn serve_admission_verdict(&mut self, t: usize, sat: usize) -> Admission {
        let cluster = self.st.topo.home_cluster(sat);
        let backlog_s = self.st.service.queue_depth_s(cluster, self.now);
        let serve = &mut *self.serve;
        let tr = &mut serve.tenants[t];
        let class = tr.spec.class;
        let verdict = admit(&mut tr.bucket, class, backlog_s, self.now);
        match verdict {
            // Only admitted requests enter the inflight gauge; rejected
            // ones bounce at the gate without ever being outstanding.
            Admission::Admit => serve.note_admitted(t),
            Admission::Throttled => serve.tenants[t].throttled += 1,
            Admission::Shed => serve.tenants[t].shed += 1,
        }
        verdict
    }

    /// Routes a request out of `sat` over the same ISLs the frame
    /// workload rides, honouring link outages: a down link retries with
    /// the frames' backoff schedule, but requests never fall back to
    /// reverse routing — a request whose forward path exhausts its
    /// retries is lost (and reported per tenant), since re-serving from
    /// the ground beats a multi-second detour for interactive traffic.
    fn serve_dispatch(&mut self, req: Request, sat: usize, attempt: u32) {
        let (st, now) = (&mut *self.st, self.now);
        if st.transport.outages_modelled() {
            let start = st.transport.next_start(sat, now);
            if !st.transport.link_up(sat, false, start) {
                let obs = LinkObs {
                    now_s: now.as_secs(),
                    attempt,
                    baseline_delay_s: RETRY_BACKOFF.delay_s(attempt),
                };
                if let RetryDecision::Retry { delay_s: delay } = st.policy.decide_retry(&obs) {
                    let last_seq = st.ledger.note_request(
                        lifecycle(now, TraceKind::Retry, req.id, sat, req.last_seq)
                            .cause(TraceCause::LinkDown)
                            .value(delay),
                    );
                    let req = Request { last_seq, ..req };
                    let attempt = attempt + 1;
                    let retry = Ev::ServeRetry {
                        req,
                        from: sat,
                        attempt,
                    };
                    schedule(self.sched, now + Time::from_secs(delay), retry);
                } else {
                    self.serve_lose(&req, sat, TraceCause::LinkDown);
                }
                return;
            }
        }
        let arrival = st.transport.transmit(sat, now, req.bits);
        let last_seq = st.ledger.note_request(
            lifecycle(now, TraceKind::Hop, req.id, sat, req.last_seq)
                .value((arrival - now).as_secs()),
        );
        let req = Request { last_seq, ..req };
        schedule(self.sched, arrival, Ev::ServeHop { req, from: sat });
    }

    /// A request arrives at the next node: relay onward, or enter its
    /// home SµDC's batch queue — dying if that SµDC is down (requests
    /// have no reverse fallback).
    fn on_serve_hop(&mut self, req: Request, from: usize) {
        if let Some(next) = self.st.topo.next_hop(from) {
            return self.serve_dispatch(req, next, 0);
        }
        let cluster = self.st.topo.home_cluster(from);
        if self.st.service.cluster_failed(cluster, self.now) {
            return self.serve_lose(&req, cluster, TraceCause::ClusterDown);
        }
        self.serve.batcher.push(cluster, req);
        self.serve_drain_queue(cluster, req.tenant as usize, false);
    }

    /// Dispatches every batch the configured batcher says is ready on
    /// the (cluster, tenant) queue — `force` flushes regardless, for
    /// fired deadline timers — then arms the straggler flush timer for
    /// any remainder.
    fn serve_drain_queue(&mut self, cluster: usize, tenant: usize, force: bool) {
        while self.serve.batcher.len(cluster, tenant) > 0 {
            let depth_s = self.st.service.queue_depth_s(cluster, self.now);
            let ready = force || self.serve.batcher.ready(cluster, tenant, depth_s);
            if !ready {
                break;
            }
            self.serve_dispatch_batch(cluster, tenant);
        }
        // The batcher never hands back a deadline in the past (leftover
        // heads re-anchor at `now`), so the deadline schedules as-is.
        let now_s = self.now.as_secs();
        if let Some((deadline_s, epoch)) = self.serve.batcher.arm_timer(cluster, tenant, now_s) {
            let (cluster, tenant) = (cluster as u32, tenant as u32);
            let timer = Ev::ServeBatchTimer {
                cluster,
                tenant,
                epoch,
            };
            schedule(self.sched, Time::from_secs(deadline_s), timer);
        }
    }

    /// Moves one batch off a non-empty queue into the SµDC compute
    /// pipeline: the saturating throughput model prices the batch, the
    /// shared pipeline (frames included) runs it FIFO, and an active SEU
    /// window can silently corrupt the whole batch's outputs.
    fn serve_dispatch_batch(&mut self, cluster: usize, tenant: usize) {
        let batch = self.serve.batcher.dispatch(cluster, tenant);
        let size = batch.len();
        for req in batch {
            let rec = lifecycle(
                self.now,
                TraceKind::ReqBatched,
                req.id,
                cluster,
                req.last_seq,
            );
            req.last_seq = self.st.ledger.note_request(rec.value(size as f64));
        }
        let service_s = self.serve.service_seconds(tenant, size);
        let (done, corrupted) = self.st.service.admit_batch(service_s, cluster, self.now);
        let (size, cluster) = (size as u32, cluster as u32);
        let done_ev = Ev::ServeBatchDone {
            size,
            cluster,
            corrupted,
        };
        schedule(self.sched, done, done_ev);
    }

    /// SµDC `cluster` finishes its oldest in-service batch, of `size`
    /// requests: score every request against its tenant's SLO deadline
    /// (work completing on a cluster that died mid-service dies with
    /// it), hand closed-loop slots back, then re-examine the cluster's
    /// queues — the pipeline just freed capacity an adaptive policy may
    /// want to use.
    fn on_serve_batch_done(&mut self, size: u32, cluster: usize, corrupted: bool) {
        let now = self.now;
        let dead = self.st.service.cluster_failed(cluster, now);
        for _ in 0..size {
            let Some(req) = self.serve.batcher.complete(cluster) else {
                break;
            };
            if dead {
                self.serve_lose(&req, cluster, TraceCause::ClusterDown);
                continue;
            }
            let latency = (now - req.created).as_secs();
            let tr = &mut self.serve.tenants[req.tenant as usize];
            let record = |kind| lifecycle(now, kind, req.id, cluster, req.last_seq);
            let record = if corrupted {
                // The output is silently wrong: an SLO violation even
                // when it would have been on time.
                tr.violations += 1;
                record(TraceKind::SloViolated).cause(TraceCause::Seu)
            } else {
                tr.completed += 1;
                tr.latency_ms.record(latency * 1e3);
                if latency <= tr.spec.slo_deadline_s {
                    tr.on_time += 1;
                    record(TraceKind::ReqCompleted)
                } else {
                    tr.violations += 1;
                    record(TraceKind::SloViolated).cause(TraceCause::Backlog)
                }
            };
            self.st.ledger.note_request(record.value(latency));
            self.serve_finish_slot(&req);
        }
        for t in 0..self.serve.tenants.len() {
            self.serve_drain_queue(cluster, t, false);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;
    use std::sync::Arc;

    use telemetry::trace::Recorder;
    use units::Length;
    use workloads::Application;

    use super::*;
    use crate::sim::faults::FaultModel;
    use crate::sim::model::SimConfig;
    use crate::sim::{run, try_run_recorded};

    /// Frames and batches of two tenants share SµDC pipelines with the
    /// SEU stretch on: every completion event pops, from its SµDC's
    /// in-service FIFO, exactly the requests of the batch dispatched
    /// there earliest and not yet done.
    #[test]
    fn batches_complete_in_dispatch_order_through_a_shared_pipeline() {
        let mut cfg = serve_cfg("steady");
        cfg.faults = FaultModel::scenario("seu_storm").expect("registered scenario");
        let capacity = cfg.unit_pixel_capacity().expect("measured workload");
        let mut st = State::new(&cfg, None, capacity);
        let sc = cfg.serve.as_ref().expect("serve cfg");
        let mut serve = ServeState::new(sc, st.topo.units(), capacity);
        let mut sched = Scheduler::new();
        let mut expected = vec![VecDeque::new(); st.topo.units()];
        let mut id = 0;
        for round in 0..12u32 {
            let now = Time::from_secs(f64::from(round) * 1e-3);
            let cluster = (round % 2) as usize;
            // A frame takes the pipeline between batches.
            st.service.admit(2.0e7, cluster, now);
            for tenant in 0..2 {
                let mut ids = Vec::new();
                for _ in 0..=round % 3 {
                    id += 1;
                    ids.push(id);
                    let req = Request {
                        id,
                        tenant,
                        created: now,
                        bits: 1.0e6,
                        pixels: sc.tenants[tenant as usize].request_pixels,
                        slot: OPEN_SLOT,
                        last_seq: 0,
                    };
                    serve.batcher.push(cluster, req);
                }
                expected[cluster].push_back(ids);
                let mut cx = Ctx {
                    st: &mut st,
                    serve: &mut serve,
                    sched: &mut sched,
                    now,
                };
                cx.serve_dispatch_batch(cluster, tenant as usize);
            }
        }
        let mut last = Time::ZERO;
        let mut batches = 0;
        while let Some(ev) = sched.pop() {
            let Ev::ServeBatchDone { size, cluster, .. } = ev.payload else {
                panic!("only completions were scheduled: {:?}", ev.payload);
            };
            assert!(ev.time >= last, "completions pop in time order");
            last = ev.time;
            let c = cluster as usize;
            let ids: Vec<u64> = (0..size)
                .filter_map(|_| serve.batcher.complete(c))
                .map(|req| req.id)
                .collect();
            assert_eq!(
                Some(ids),
                expected[c].pop_front(),
                "batch {batches} on SµDC {c}"
            );
            batches += 1;
        }
        assert_eq!(batches, 24);
        for c in 0..st.topo.units() {
            assert_eq!(serve.batcher.complete(c), None, "SµDC {c} drained");
        }
    }

    fn serve_cfg(scenario: &str) -> SimConfig {
        let mut cfg =
            SimConfig::paper_reference(Application::AirPollution, Length::from_m(3.0), 0.95);
        cfg.clusters = 4;
        cfg.duration = Time::from_minutes(2.0);
        let sc = crate::sim::ServeScenario::scenario(scenario).expect("registered scenario");
        cfg.serve = Some(sc.serve);
        cfg.faults = sc.faults;
        cfg
    }

    #[test]
    fn steady_scenario_serves_within_slo_alongside_frames() {
        let r = run(&serve_cfg("steady"));
        let serve = r.serve.expect("serve runs embed a ServeReport");
        assert!(serve.offered() > 0);
        assert!(serve.completed() > 0);
        assert!(serve.requests_per_sec > 0.0);
        assert!(serve.batch_efficiency > 0.0 && serve.batch_efficiency <= 1.0);
        let premium = &serve.tenants[0];
        assert!(premium.slo_attainment > 0.9, "{premium:?}");
        assert!(premium.p99_ms >= premium.p50_ms);
        assert!(premium.goodput_rps > 0.0);
        // The frame workload keeps flowing alongside the serving traffic.
        assert!(r.processed > 0);
    }

    #[test]
    fn surge_scenario_sheds_or_throttles_excess_load() {
        let r = run(&serve_cfg("surge"));
        let serve = r.serve.expect("serve report");
        assert!(serve.shed_rate > 0.0, "{serve:?}");
        let turned_away: u64 = serve.tenants.iter().map(|t| t.throttled + t.shed).sum();
        assert!(turned_away > 0, "{serve:?}");
        // Class shedding sacrifices best-effort traffic first: premium
        // loses a smaller fraction of its offered load to the backlog
        // threshold than the best-effort survey flood does.
        let premium = &serve.tenants[0];
        let best_effort = &serve.tenants[2];
        let shed_frac = |t: &crate::sim::serve::TenantReport| t.shed as f64 / t.offered as f64;
        assert!(
            shed_frac(premium) < shed_frac(best_effort),
            "premium shed {} vs best-effort shed {}",
            shed_frac(premium),
            shed_frac(best_effort)
        );
    }

    #[test]
    fn closed_loop_peak_inflight_respects_concurrency() {
        let cfg = serve_cfg("closed_loop");
        let specs = cfg.serve.clone().expect("serve cfg").tenants;
        let r = run(&cfg);
        let serve = r.serve.expect("serve report");
        for (tr, spec) in serve.tenants.iter().zip(&specs) {
            let crate::sim::LoadModel::Closed { concurrency, .. } = spec.load else {
                panic!("closed_loop tenants are closed-loop")
            };
            assert!(
                tr.peak_inflight <= concurrency as u64,
                "{}: peak {} > concurrency {}",
                tr.name,
                tr.peak_inflight,
                concurrency
            );
            assert!(tr.completed > 0, "{tr:?}");
        }
    }

    #[test]
    fn throttled_requests_stay_off_the_inflight_gauge() {
        // A starved token bucket (zero refill, burst 1) admits exactly
        // one request; every later arrival bounces at the gate. Before
        // the accounting fix, rejected requests transited the inflight
        // gauge between begin_request and the verdict, inflating
        // peak_inflight past the number of requests ever admitted.
        use crate::sim::serve::{ServeConfig, TenantClass, TenantSpec};
        let mut cfg =
            SimConfig::paper_reference(Application::AirPollution, Length::from_m(3.0), 0.95);
        cfg.clusters = 4;
        cfg.duration = Time::from_minutes(1.0);
        let mut tenant = TenantSpec::interactive("starved", TenantClass::Standard, 50.0);
        tenant.rate_limit_rps = 0.0;
        tenant.burst = 1.0;
        cfg.serve = Some(ServeConfig {
            tenants: vec![tenant],
            ..ServeConfig::defaults()
        });
        let r = run(&cfg);
        let serve = r.serve.expect("serve report");
        let tr = &serve.tenants[0];
        assert_eq!(tr.admitted, 1, "burst-1 bucket admits exactly once: {tr:?}");
        assert!(tr.throttled > 0, "the rest must bounce: {tr:?}");
        assert_eq!(
            tr.peak_inflight, 1,
            "peak inflight counts admitted requests only: {tr:?}"
        );
    }

    #[test]
    fn every_serve_scenario_is_seed_deterministic() {
        for name in crate::sim::ServeScenario::scenario_names() {
            let cfg = serve_cfg(name);
            assert_eq!(run(&cfg), run(&cfg), "{name}");
        }
    }

    /// Every admitted request ends on time, late or lost, or is still
    /// outstanding at the horizon, and a report that miscounts one
    /// tenant's losses by one fails the check.
    #[test]
    fn request_conservation_catches_a_tampered_report() {
        let r = run(&serve_cfg("under_faults"));
        assert_eq!(r.check_invariants(), Ok(()));
        let serve = r.serve.as_ref().expect("serve report");
        assert!(serve.tenants.iter().any(|t| t.lost > 0), "{serve:?}");
        assert!(serve.tenants.iter().any(|t| t.outstanding > 0), "{serve:?}");
        for delta in [1, -1] {
            let mut tampered = r.clone();
            let tr = &mut tampered.serve.as_mut().expect("serve report").tenants[1];
            tr.lost = tr.lost.saturating_add_signed(delta);
            let err = tampered
                .check_invariants()
                .expect_err("one request unaccounted");
            assert!(err.contains("outstanding"), "{err}");
        }
    }

    #[test]
    fn faulted_serve_runs_lose_or_violate_but_stay_accounted() {
        let r = run(&serve_cfg("under_faults"));
        let serve = r.serve.expect("serve report");
        let lost: u64 = serve.tenants.iter().map(|t| t.lost).sum();
        let violations: u64 = serve.tenants.iter().map(|t| t.violations).sum();
        assert!(
            lost + violations > 0,
            "the combined fault scenario must bite the serving layer: {serve:?}"
        );
        for tr in &serve.tenants {
            assert_eq!(
                tr.offered,
                tr.admitted + tr.throttled + tr.shed,
                "every offered request gets a verdict: {tr:?}"
            );
            assert!(
                tr.completed + tr.lost <= tr.admitted,
                "completions and losses come out of admissions: {tr:?}"
            );
        }
    }

    #[test]
    fn recorded_serve_run_traces_the_request_lifecycle() {
        let cfg = serve_cfg("steady");
        let plain = run(&cfg);
        let rec = Arc::new(Recorder::new(1 << 20));
        let mut recorded = try_run_recorded(&cfg, rec.clone()).expect("valid config");
        recorded.scheduler = plain.scheduler.clone();
        assert_eq!(recorded, plain, "recording must not perturb serving");
        let log = telemetry::trace::TraceLog::from_events(rec.events());
        let serve = plain.serve.expect("serve report");
        assert_eq!(log.count_kind(TraceKind::ReqArrived), serve.offered());
        let on_time: u64 = serve.tenants.iter().map(|t| t.on_time).sum();
        assert_eq!(log.count_kind(TraceKind::ReqCompleted), on_time);
        let violations: u64 = serve.tenants.iter().map(|t| t.violations).sum();
        assert_eq!(log.count_kind(TraceKind::SloViolated), violations);
        assert!(log.count_kind(TraceKind::ReqBatched) > 0);
    }
}
