//! Serve-layer configuration: tenant specs, load models, batching
//! policies, and the named scenario registry (`steady`, `surge`,
//! `closed_loop`, `under_faults`) mirroring
//! [`FaultModel::scenario`](crate::sim::faults::FaultModel::scenario).

use crate::sim::faults::FaultModel;
use crate::sim::model::ConfigError;

/// Priority class of a tenant: decides how early backlog-triggered
/// shedding sacrifices its requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantClass {
    /// Paying interactive traffic: shed last.
    Premium,
    /// Ordinary traffic.
    Standard,
    /// Batch/background traffic: shed first.
    BestEffort,
}

impl TenantClass {
    /// Human-readable label used in reports and artifacts.
    pub fn as_str(self) -> &'static str {
        match self {
            TenantClass::Premium => "premium",
            TenantClass::Standard => "standard",
            TenantClass::BestEffort => "best_effort",
        }
    }

    /// Multiplier on the shared backlog shedding threshold: a class
    /// with more headroom tolerates a deeper compute backlog before
    /// admission starts rejecting its requests.
    pub fn shed_headroom(self) -> f64 {
        match self {
            TenantClass::Premium => 2.0,
            TenantClass::Standard => 1.0,
            TenantClass::BestEffort => 0.5,
        }
    }
}

/// How a tenant's ground users generate requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadModel {
    /// Open loop: a Poisson process at `rate_rps` requests per second
    /// (interarrivals drawn from the dedicated `serve_arrival` stream),
    /// independent of how the system responds.
    Open {
        /// Mean aggregate arrival rate, requests per second.
        rate_rps: f64,
    },
    /// Closed loop: `concurrency` user slots, each submitting one
    /// request, waiting for its terminal outcome, thinking for an
    /// exponential `think_s`, then submitting the next. Outstanding
    /// requests never exceed `concurrency` by construction.
    Closed {
        /// Maximum outstanding requests.
        concurrency: usize,
        /// Mean think time between a response and the next request.
        think_s: f64,
    },
}

/// One tenant sharing the constellation: a workload class, a load
/// model, a per-request cost, an SLO, and admission limits.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Stable name used in reports, artifacts, and metrics keys.
    pub name: String,
    /// Priority class for backlog-triggered shedding.
    pub class: TenantClass,
    /// Open- or closed-loop request generation.
    pub load: LoadModel,
    /// Inference work per request, pixels (drives batch service time
    /// through the saturating [`workloads::batch::BatchProfile`]).
    pub request_pixels: f64,
    /// Network payload per request, bits (rides the shared ISLs).
    pub request_bits: f64,
    /// End-to-end latency SLO, seconds; completions beyond it count as
    /// violations.
    pub slo_deadline_s: f64,
    /// Token-bucket refill rate, requests per second.
    pub rate_limit_rps: f64,
    /// Token-bucket depth (burst tolerance), requests.
    pub burst: f64,
}

/// Hard cap on a dispatched batch's size.
pub const MAX_BATCH: usize = 16;

/// Straggler flush, seconds: a non-empty queue never waits longer than
/// this before dispatching (the `Deadline` policy uses
/// [`DEADLINE_WAIT_S`]).
pub const FLUSH_WAIT_S: f64 = 0.1;

/// Compute-backlog depth (seconds of queued service time) at which
/// admission starts shedding, scaled per class by
/// [`TenantClass::shed_headroom`].
pub const SHED_THRESHOLD_S: f64 = 2.0;

/// Batch size at which the device's batch-throughput curve saturates
/// (the knee of the saturating [`workloads::batch::BatchProfile`]).
pub const SATURATION_BATCH: f64 = 8.0;

/// Queue length that fires a [`BatchPolicy::Fixed`] batch.
pub const FIXED_BATCH: usize = 8;

/// Longest a [`BatchPolicy::Deadline`] queue's oldest request waits
/// before dispatch, seconds.
pub const DEADLINE_WAIT_S: f64 = 0.05;

/// When the dynamic batcher fires a queued batch into the SµDC
/// pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchPolicy {
    /// Dispatch whenever [`FIXED_BATCH`] requests are queued
    /// (stragglers flush after [`FLUSH_WAIT_S`]).
    Fixed,
    /// Dispatch when the oldest queued request has waited
    /// [`DEADLINE_WAIT_S`], or earlier when the queue reaches
    /// [`MAX_BATCH`].
    Deadline,
    /// Backlog-aware: dispatch immediately while the pipeline is idle
    /// (latency first), accumulate toward the saturation knee while it
    /// is busy (throughput first), with the straggler flush as a
    /// backstop.
    Adaptive,
}

impl BatchPolicy {
    /// Label used in artifacts and sweep rows.
    pub fn as_str(self) -> &'static str {
        match self {
            BatchPolicy::Fixed => "fixed",
            BatchPolicy::Deadline => "deadline",
            BatchPolicy::Adaptive => "adaptive",
        }
    }

    /// Integer code for sweep axes and cache keys.
    #[cfg(test)]
    pub fn code(self) -> usize {
        match self {
            BatchPolicy::Fixed => 0,
            BatchPolicy::Deadline => 1,
            BatchPolicy::Adaptive => 2,
        }
    }

    /// Inverse of [`code`](Self::code).
    pub fn from_code(code: usize) -> Option<BatchPolicy> {
        match code {
            0 => Some(BatchPolicy::Fixed),
            1 => Some(BatchPolicy::Deadline),
            2 => Some(BatchPolicy::Adaptive),
            _ => None,
        }
    }
}

/// Configuration of the user-traffic serving layer. `None` in
/// [`SimConfig`](crate::sim::model::SimConfig) — the default — leaves the
/// simulation byte-identical to the serve-unaware engine: no serve events are
/// scheduled and no serve RNG streams are drawn.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// The tenants sharing the constellation.
    pub tenants: Vec<TenantSpec>,
    /// Batching policy shared by every (SµDC, tenant) queue.
    pub batch: BatchPolicy,
}

impl ServeConfig {
    /// Checks the serve layer is simulatable; surfaced through
    /// [`SimConfig::validate`](crate::sim::model::SimConfig::validate)
    /// so the CLI prints a diagnostic instead of panicking.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.tenants.is_empty() {
            return Err(ConfigError::NoTenants);
        }
        for (i, t) in self.tenants.iter().enumerate() {
            match t.load {
                LoadModel::Open { rate_rps } if rate_rps <= 0.0 => {
                    return Err(ConfigError::ZeroArrivalRate { tenant: i });
                }
                LoadModel::Closed { concurrency, .. } if concurrency == 0 => {
                    return Err(ConfigError::ZeroServeConcurrency { tenant: i });
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// The tenants' summed open-loop arrival rate (requests/s) and
    /// closed-loop concurrency slots.
    pub fn offered_load(&self) -> (f64, usize) {
        let mut load = (0.0, 0usize);
        for t in &self.tenants {
            match t.load {
                LoadModel::Open { rate_rps } => load.0 += rate_rps,
                LoadModel::Closed { concurrency, .. } => {
                    load.1 = load.1.saturating_add(concurrency);
                }
            }
        }
        load
    }
}

/// A named serving scenario: the serve config plus the fault model it
/// runs under.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeScenario {
    /// The serving layer.
    pub serve: ServeConfig,
    /// Faults active during the run (`none` for fault-free scenarios).
    pub faults: FaultModel,
}

impl ServeScenario {
    /// Names accepted by [`ServeScenario::scenario`], in registry
    /// order.
    pub fn scenario_names() -> &'static [&'static str] {
        &["steady", "surge", "closed_loop", "under_faults"]
    }

    /// Looks up a named scenario; `None` for unknown names.
    pub fn scenario(name: &str) -> Option<ServeScenario> {
        let serve = match name {
            // A sustainable premium + best-effort mix: the frontier's
            // comfortable interior.
            "steady" => ServeConfig {
                tenants: vec![
                    TenantSpec::interactive("maps_premium", TenantClass::Premium, 120.0),
                    TenantSpec::analytics("survey_batch", 60.0),
                ],
                batch: BatchPolicy::Adaptive,
            },
            // Offered load past the compute knee (the best-effort
            // survey flood alone outruns four reference SµDCs):
            // admission control and class shedding carry the run.
            "surge" => ServeConfig {
                tenants: vec![
                    TenantSpec::interactive("maps_premium", TenantClass::Premium, 600.0),
                    TenantSpec::interactive("ad_hoc", TenantClass::Standard, 400.0),
                    TenantSpec::analytics("survey_batch", 3000.0),
                ],
                batch: BatchPolicy::Deadline,
            },
            // Bounded-concurrency users with think time: throughput is
            // set by the interactive loop, not an arrival process.
            "closed_loop" => ServeConfig {
                tenants: vec![
                    TenantSpec::closed("field_terminals", TenantClass::Premium, 48, 0.5),
                    TenantSpec::closed("dashboards", TenantClass::Standard, 24, 2.0),
                ],
                batch: BatchPolicy::Fixed,
            },
            // The `steady` mix under the combined fault scenario: link
            // outages delay request hops, cluster outages kill queued
            // batches, SEUs corrupt outputs.
            "under_faults" => ServeConfig {
                tenants: vec![
                    TenantSpec::interactive("maps_premium", TenantClass::Premium, 120.0),
                    TenantSpec::analytics("survey_batch", 60.0),
                ],
                batch: BatchPolicy::Adaptive,
            },
            _ => return None,
        };
        let faults = if name == "under_faults" {
            // lint:allow(unwrap-in-lib) registry name is a compile-time constant
            FaultModel::scenario("combined").expect("combined is a registered fault scenario")
        } else {
            FaultModel::none()
        };
        Some(ServeScenario { serve, faults })
    }
}

impl ServeConfig {
    /// No tenants, adaptive batching.
    pub fn defaults() -> ServeConfig {
        ServeConfig {
            tenants: Vec::new(),
            batch: BatchPolicy::Adaptive,
        }
    }
}

impl TenantSpec {
    /// A latency-sensitive interactive tenant offering `rate_rps` of
    /// open-loop traffic.
    pub fn interactive(name: &str, class: TenantClass, rate_rps: f64) -> TenantSpec {
        TenantSpec {
            name: name.to_string(),
            class,
            load: LoadModel::Open { rate_rps },
            request_pixels: 2.0e6,
            request_bits: 2.0e6,
            slo_deadline_s: 0.5,
            rate_limit_rps: rate_rps * 1.5,
            burst: rate_rps.mul_add(0.25, 8.0),
        }
    }

    /// A throughput-oriented best-effort tenant with a loose SLO.
    pub fn analytics(name: &str, rate_rps: f64) -> TenantSpec {
        TenantSpec {
            name: name.to_string(),
            class: TenantClass::BestEffort,
            load: LoadModel::Open { rate_rps },
            request_pixels: 8.0e6,
            request_bits: 6.0e6,
            slo_deadline_s: 3.0,
            rate_limit_rps: rate_rps * 1.5,
            burst: rate_rps.mul_add(0.25, 8.0),
        }
    }

    /// A closed-loop tenant: `concurrency` user slots thinking for
    /// `think_s` between requests.
    pub fn closed(name: &str, class: TenantClass, concurrency: usize, think_s: f64) -> TenantSpec {
        TenantSpec {
            name: name.to_string(),
            class,
            load: LoadModel::Closed {
                concurrency,
                think_s,
            },
            request_pixels: 2.0e6,
            request_bits: 2.0e6,
            slo_deadline_s: 0.5,
            rate_limit_rps: concurrency as f64 * 4.0,
            burst: concurrency as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_named_scenario_resolves_and_validates() {
        for name in ServeScenario::scenario_names() {
            let sc = ServeScenario::scenario(name).expect(name);
            assert_eq!(sc.serve.validate(), Ok(()), "{name}");
            assert!(!sc.serve.tenants.is_empty(), "{name}");
        }
        assert!(ServeScenario::scenario("no-such").is_none());
    }

    #[test]
    fn only_under_faults_activates_the_fault_model() {
        for name in ServeScenario::scenario_names() {
            let sc = ServeScenario::scenario(name).expect(name);
            assert_eq!(sc.faults.active(), *name == "under_faults", "{name}");
        }
    }

    #[test]
    fn validation_rejects_each_degenerate_config() {
        let mut empty = ServeConfig::defaults();
        assert_eq!(empty.validate(), Err(ConfigError::NoTenants));

        empty.tenants = vec![TenantSpec::interactive("t", TenantClass::Standard, 0.0)];
        assert_eq!(
            empty.validate(),
            Err(ConfigError::ZeroArrivalRate { tenant: 0 })
        );

        let mut closed = ServeConfig {
            tenants: vec![TenantSpec::closed("t", TenantClass::Standard, 0, 1.0)],
            ..ServeConfig::defaults()
        };
        assert_eq!(
            closed.validate(),
            Err(ConfigError::ZeroServeConcurrency { tenant: 0 })
        );

        closed.tenants = vec![TenantSpec::closed("t", TenantClass::Standard, 4, 1.0)];
        assert_eq!(closed.validate(), Ok(()));
    }

    #[test]
    fn policy_codes_round_trip() {
        for code in 0..3 {
            let p = BatchPolicy::from_code(code).expect("valid code");
            assert_eq!(p.code(), code);
        }
        assert_eq!(BatchPolicy::from_code(3), None);
    }

    #[test]
    fn shed_headroom_orders_the_classes() {
        assert!(TenantClass::Premium.shed_headroom() > TenantClass::Standard.shed_headroom());
        assert!(TenantClass::Standard.shed_headroom() > TenantClass::BestEffort.shed_headroom());
    }
}
