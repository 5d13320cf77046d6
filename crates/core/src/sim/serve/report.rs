//! Per-tenant SLO attainment and aggregate serving statistics, embedded
//! in [`SimReport`](crate::sim::model::SimReport) for serve runs.

use crate::sim::serve::config::TenantClass;

/// One tenant's serving outcome over the run.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// Tenant name from its [`TenantSpec`](super::TenantSpec).
    pub name: String,
    /// Priority class.
    pub class: TenantClass,
    /// Requests the load generator produced.
    pub offered: u64,
    /// Requests past admission control.
    pub admitted: u64,
    /// Requests rejected by the token bucket.
    pub throttled: u64,
    /// Requests rejected by backlog-triggered class shedding.
    pub shed: u64,
    /// Admitted requests lost in the network or to a dead SµDC.
    pub lost: u64,
    /// Requests that finished with correct output (on time or late).
    pub completed: u64,
    /// Completions inside the SLO deadline.
    pub on_time: u64,
    /// SLO violations: late completions plus SEU-corrupted outputs.
    pub violations: u64,
    /// Admitted requests still outstanding at the horizon: in the
    /// network, queued or in service.
    pub outstanding: u64,
    /// Peak outstanding requests (bounds the closed-loop generator at
    /// its configured concurrency).
    pub peak_inflight: u64,
    /// Mean end-to-end latency over completions, milliseconds.
    pub mean_latency_ms: f64,
    /// Median latency, milliseconds (log2-bucket histogram estimate).
    pub p50_ms: f64,
    /// 99th-percentile latency, milliseconds.
    pub p99_ms: f64,
    /// 99.9th-percentile latency, milliseconds.
    pub p999_ms: f64,
    /// SLO attainment: on-time completions over offered requests (1
    /// when nothing was offered).
    pub slo_attainment: f64,
    /// On-time completions per simulated second.
    pub goodput_rps: f64,
}

/// Aggregated serving-layer results of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Per-tenant outcomes, in configuration order.
    pub tenants: Vec<TenantReport>,
    /// Completed requests per simulated second, all tenants.
    pub requests_per_sec: f64,
    /// Request-weighted mean batch efficiency: achieved batch
    /// throughput over the saturated knee throughput.
    pub batch_efficiency: f64,
    /// Requests turned away (throttled + shed + lost) over offered.
    pub shed_rate: f64,
    /// Batches dispatched into the compute pipelines.
    pub batches: u64,
    /// Mean dispatched batch size.
    pub mean_batch: f64,
    /// Link-outage retries spent on request hops.
    pub retries: u64,
}

impl ServeReport {
    /// Offered requests across every tenant.
    pub fn offered(&self) -> u64 {
        self.tenants.iter().map(|t| t.offered).sum()
    }

    /// Completed requests across every tenant.
    pub fn completed(&self) -> u64 {
        self.tenants.iter().map(|t| t.completed).sum()
    }
}
