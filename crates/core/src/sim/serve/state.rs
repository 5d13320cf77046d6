//! Runtime state of the serving layer: per-tenant load-generator and
//! admission bookkeeping, the batcher, latency histograms, and report
//! assembly. The engine owns the event loop; this module owns every
//! serve-side counter so [`SimReport`](crate::sim::model::SimReport)
//! can embed a [`ServeReport`] at the end of the run.

use telemetry::Histogram;
use units::Time;
use workloads::batch::BatchProfile;

use crate::sim::serve::admission::TokenBucket;
use crate::sim::serve::batcher::Batcher;
use crate::sim::serve::config::{ServeConfig, TenantSpec, SATURATION_BATCH};
use crate::sim::serve::report::{ServeReport, TenantReport};

/// Slot marker for open-loop requests (no bounded-concurrency slot to
/// hand back on completion).
pub const OPEN_SLOT: u32 = u32::MAX;

/// Flight-recorder ids for requests start here, far above any frame id
/// the generation counter can reach in a simulated run, so request and
/// frame lifecycles never collide in one trace log.
pub const REQ_ID_BASE: u64 = 0x4000_0000;

/// A user request moving through the network toward its SµDC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Trace id (`REQ_ID_BASE` + arrival ordinal).
    pub id: u64,
    /// Index into the configured tenants.
    pub tenant: u32,
    /// Arrival time at the entry satellite.
    pub created: Time,
    /// Network payload, bits.
    pub bits: f64,
    /// Inference work, pixels.
    pub pixels: f64,
    /// Closed-loop slot that submitted it, or [`OPEN_SLOT`].
    pub slot: u32,
    /// `seq` of the request's most recent trace event (0 when
    /// recording is off).
    pub last_seq: u64,
}

/// Per-tenant runtime: the spec, its token bucket, RNG draw counters
/// (stream keying), and outcome statistics.
#[derive(Debug)]
pub struct TenantRuntime {
    /// The tenant's configuration.
    pub spec: TenantSpec,
    /// Admission token bucket.
    pub bucket: TokenBucket,
    /// Interarrival draws so far (keys the `serve_arrival` stream).
    pub arrival_draws: u64,
    /// Think-time draws so far (keys the `serve_think` stream).
    pub think_draws: u64,
    /// Requests the load generator produced.
    pub offered: u64,
    /// Requests past admission.
    pub admitted: u64,
    /// Token-bucket rejections.
    pub throttled: u64,
    /// Backlog-shedding rejections.
    pub shed: u64,
    /// Admitted requests lost in the network or to a dead SµDC.
    pub lost: u64,
    /// Correct completions (on time or late).
    pub completed: u64,
    /// Completions inside the SLO deadline.
    pub on_time: u64,
    /// Late completions plus corrupted outputs.
    pub violations: u64,
    /// Outstanding requests right now.
    pub inflight: u64,
    /// High-water mark of `inflight`.
    pub peak_inflight: u64,
    /// End-to-end latency of completions, milliseconds.
    pub latency_ms: Histogram,
}

impl TenantRuntime {
    fn new(spec: &TenantSpec) -> TenantRuntime {
        TenantRuntime {
            bucket: TokenBucket::new(spec.rate_limit_rps, spec.burst),
            spec: spec.clone(),
            arrival_draws: 0,
            think_draws: 0,
            offered: 0,
            admitted: 0,
            throttled: 0,
            shed: 0,
            lost: 0,
            completed: 0,
            on_time: 0,
            violations: 0,
            inflight: 0,
            peak_inflight: 0,
            latency_ms: Histogram::new(),
        }
    }
}

/// The serving layer's mutable state for one run.
#[derive(Debug)]
pub struct ServeState {
    /// Saturating batch-throughput model shared by every SµDC (base
    /// rate set so a knee-sized batch runs at the unit's full pixel
    /// capacity).
    pub profile: BatchProfile,
    /// Per-tenant runtime, in configuration order.
    pub tenants: Vec<TenantRuntime>,
    /// The dynamic batcher.
    pub batcher: Batcher,
    /// Total arrivals so far (request ids and `serve_source` keying).
    pub arrivals: u64,
}

impl ServeState {
    /// Builds the serve runtime for `units` SµDCs whose pipelines
    /// sustain `pixel_capacity` px/s at the saturation knee.
    pub fn new(cfg: &ServeConfig, units: usize, pixel_capacity: f64) -> ServeState {
        ServeState {
            profile: BatchProfile {
                base_pixels_per_sec: pixel_capacity / SATURATION_BATCH,
                saturation_batch: SATURATION_BATCH,
            },
            tenants: cfg.tenants.iter().map(TenantRuntime::new).collect(),
            batcher: Batcher::new(cfg.batch, cfg.tenants.len(), units),
            arrivals: 0,
        }
    }

    /// Registers a new arrival for `tenant`: bumps the generators'
    /// counters and returns the request's trace id. The inflight gauge
    /// is *not* touched here — requests the admission gate turns away
    /// never enter the system, so only [`ServeState::note_admitted`]
    /// counts them.
    pub fn begin_request(&mut self, tenant: usize) -> u64 {
        self.arrivals += 1;
        let t = &mut self.tenants[tenant];
        t.offered += 1;
        REQ_ID_BASE + self.arrivals
    }

    /// Counts an admitted request into the inflight gauge (and its
    /// high-water mark). Pairs with the decrement when the request
    /// completes or is lost.
    pub fn note_admitted(&mut self, tenant: usize) {
        let t = &mut self.tenants[tenant];
        t.admitted += 1;
        t.inflight += 1;
        t.peak_inflight = t.peak_inflight.max(t.inflight);
    }

    /// Service time of a `batch_len`-request batch for `tenant` on one
    /// SµDC pipeline, seconds — the saturating-throughput model makes
    /// small batches pay a per-request premium.
    pub fn service_seconds(&self, tenant: usize, batch_len: usize) -> f64 {
        let pixels = batch_len as f64 * self.tenants[tenant].spec.request_pixels;
        pixels / self.profile.throughput(batch_len as u32)
    }

    /// Folds the run into the embedded report; `retries` is the
    /// link-outage retries the engine's ledger counted on request hops.
    pub fn report(&self, horizon_s: f64, retries: u64) -> ServeReport {
        let horizon = horizon_s.max(f64::MIN_POSITIVE);
        let tenants: Vec<TenantReport> = self
            .tenants
            .iter()
            .map(|t| TenantReport {
                name: t.spec.name.clone(),
                class: t.spec.class,
                offered: t.offered,
                admitted: t.admitted,
                throttled: t.throttled,
                shed: t.shed,
                lost: t.lost,
                completed: t.completed,
                on_time: t.on_time,
                violations: t.violations,
                outstanding: t.inflight,
                peak_inflight: t.peak_inflight,
                mean_latency_ms: t.latency_ms.mean(),
                p50_ms: t.latency_ms.quantile(0.5),
                p99_ms: t.latency_ms.quantile(0.99),
                p999_ms: t.latency_ms.quantile(0.999),
                slo_attainment: if t.offered == 0 {
                    1.0
                } else {
                    t.on_time as f64 / t.offered as f64
                },
                goodput_rps: t.on_time as f64 / horizon,
            })
            .collect();
        let offered: u64 = tenants.iter().map(|t| t.offered).sum();
        let completed: u64 = tenants.iter().map(|t| t.completed).sum();
        let turned_away: u64 = tenants.iter().map(|t| t.throttled + t.shed + t.lost).sum();
        ServeReport {
            requests_per_sec: completed as f64 / horizon,
            batch_efficiency: self.batcher.mean_efficiency(),
            shed_rate: if offered == 0 {
                0.0
            } else {
                turned_away as f64 / offered as f64
            },
            batches: self.batcher.batches_dispatched,
            mean_batch: self.batcher.mean_batch(),
            retries,
            tenants,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::serve::config::{ServeScenario, TenantClass};

    fn state() -> ServeState {
        let sc = ServeScenario::scenario("steady").expect("registered");
        ServeState::new(&sc.serve, 4, 8.0e8)
    }

    #[test]
    fn request_ids_start_above_the_frame_id_range() {
        let mut st = state();
        assert_eq!(st.begin_request(0), REQ_ID_BASE + 1);
        assert_eq!(st.begin_request(1), REQ_ID_BASE + 2);
        assert_eq!(st.tenants[0].offered, 1);
        assert_eq!(
            st.tenants[0].peak_inflight, 0,
            "offered-but-not-admitted requests stay off the inflight gauge"
        );
        st.note_admitted(0);
        assert_eq!(st.tenants[0].admitted, 1);
        assert_eq!(st.tenants[0].inflight, 1);
        assert_eq!(st.tenants[0].peak_inflight, 1);
    }

    #[test]
    fn small_batches_pay_the_saturation_premium() {
        let st = state();
        let single = st.service_seconds(0, 1);
        let knee = SATURATION_BATCH as usize;
        let saturated = st.service_seconds(0, knee);
        // Per-request time at the knee is `knee`× better than batch-1.
        let per_req = saturated / knee as f64;
        assert!((single / per_req - knee as f64).abs() < 1e-9);
    }

    #[test]
    fn report_attainment_and_shed_rate_come_out_of_the_counters() {
        let mut st = state();
        for _ in 0..10 {
            st.begin_request(0);
        }
        let t = &mut st.tenants[0];
        t.admitted = 8;
        t.throttled = 1;
        t.shed = 1;
        t.completed = 8;
        t.on_time = 6;
        t.violations = 2;
        for _ in 0..8 {
            t.latency_ms.record(100.0);
        }
        let rep = st.report(10.0, 0);
        let tr = &rep.tenants[0];
        assert_eq!(tr.class, TenantClass::Premium);
        assert!((tr.slo_attainment - 0.6).abs() < 1e-12);
        assert!((tr.goodput_rps - 0.6).abs() < 1e-12);
        assert!((rep.requests_per_sec - 0.8).abs() < 1e-12);
        assert!((rep.shed_rate - 0.2).abs() < 1e-12);
        assert!(tr.p99_ms >= tr.p50_ms);
    }
}
