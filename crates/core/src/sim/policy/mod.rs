//! The sim's control plane: a unified `Policy` layer extracted from
//! the decision sites that used to be hard-coded across
//! `transport.rs`, `engine.rs`, and `serve/`.
//!
//! The contract is observe → decide → act. At each decision point the
//! engine assembles a small, plain-value observation (per-unit,
//! sim-time telemetry: queue depths, link state, retry counts — plus
//! whatever the controller derived at build time from `orbit::eclipse`
//! and the SµDC thermal design) and asks the run's [`Policy`] for a
//! typed decision. The engine alone executes decisions; controllers
//! never touch sim state and never draw RNG, so every stochastic draw
//! stays on the engine's dedicated stateless streams with unchanged
//! keying.
//!
//! Byte-identity argument: every decision enum carries a variant whose
//! execution path in the engine is the exact pre-refactor code, and the
//! trait's default methods reproduce the pre-refactor conditions from
//! observation fields alone. [`StaticPolicy`] overrides nothing, so a
//! `--policy static` run (or one that omits the flag) performs the
//! same draws on the same streams in the same order as the
//! pre-policy-layer engine. Only static runs are sharded
//! ([`super::parallel`]); adaptive controllers always run on the
//! sequential engine, so their state is never split across shards.
//!
//! Where a frame goes when it cannot proceed forward is not a decision
//! site: no controller shaped it, so the engine applies the static
//! reroute rule itself.

mod baseline;
mod predictive;
mod reactive;

pub use baseline::StaticPolicy;
pub use predictive::PredictivePolicy;
pub use reactive::ReactivePolicy;

use crate::sim::model::SimConfig;

/// Which controller a run races. `Static` is the default and
/// reproduces the pre-policy engine byte-for-byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PolicyKind {
    /// Fixed behavior: config-driven backoff, threshold shedding,
    /// token-bucket admission, configured batching. No adaptation.
    #[default]
    Static,
    /// Threshold-driven feedback: widens backoff on observed outage
    /// bursts and equalizes shed across tenants on shed-count skew.
    Reactive,
    /// Eclipse/thermal-aware feedforward: pre-sheds, pre-migrates, and
    /// flushes batches ahead of predicted capacity dips.
    Predictive,
}

impl PolicyKind {
    /// Every controller name, in leaderboard order.
    pub fn names() -> &'static [&'static str] {
        &["static", "reactive", "predictive"]
    }

    /// Parses a CLI/sweep controller name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "static" => Some(Self::Static),
            "reactive" => Some(Self::Reactive),
            "predictive" => Some(Self::Predictive),
            _ => None,
        }
    }

    /// The controller's canonical (CLI and artifact-slug) name.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Static => "static",
            Self::Reactive => "reactive",
            Self::Predictive => "predictive",
        }
    }

    /// Builds the controller for a validated config. Controllers that
    /// precompute orbital/thermal context (predictive) derive it here,
    /// once, from the config alone — keeping `decide_*` pure functions
    /// of (controller state, observation).
    pub fn build(self, cfg: &SimConfig) -> Box<dyn Policy> {
        match self {
            Self::Static => Box::new(StaticPolicy),
            Self::Reactive => Box::new(ReactivePolicy::new(cfg)),
            Self::Predictive => Box::new(PredictivePolicy::new(cfg)),
        }
    }
}

/// Telemetry at a blocked-link retry decision (frame or request side).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkObs {
    /// Satellite whose outbound link is down.
    pub unit: usize,
    /// Sim time, seconds.
    pub now_s: f64,
    /// Retries already spent on this transmission.
    pub attempt: u32,
    /// What the configured backoff schedule would do: `Some(delay)`
    /// to retry after `delay` seconds, `None` once the budget is spent.
    pub baseline_delay_s: Option<f64>,
    /// Whether the frame is already on the reverse ring.
    pub reversed: bool,
    /// `true` for serve-request transmissions (which never reroute).
    pub serve: bool,
}

/// Telemetry at a source-shed decision (one per kept frame).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShedObs {
    /// Imaging satellite.
    pub unit: usize,
    /// Sim time, seconds.
    pub now_s: f64,
    /// Bits in flight (accepted but not yet at a SµDC).
    pub queued_bits: f64,
    /// Configured degradation threshold, when degradation is on.
    pub threshold_bits: Option<f64>,
}

/// Telemetry at a serve-admission decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionObs {
    /// Tenant index.
    pub tenant: usize,
    /// Destination SµDC.
    pub unit: usize,
    /// Sim time, seconds.
    pub now_s: f64,
    /// Destination compute backlog, seconds.
    pub backlog_s: f64,
    /// Requests this tenant has had shed so far.
    pub tenant_shed: u64,
    /// Mean shed count across tenants (skew signal).
    pub mean_shed: f64,
}

/// Telemetry at a batch-readiness decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchObs {
    /// SµDC owning the queue.
    pub unit: usize,
    /// Tenant owning the queue.
    pub tenant: usize,
    /// Sim time, seconds.
    pub now_s: f64,
    /// Requests waiting in the (cluster, tenant) queue.
    pub queue_len: usize,
    /// The SµDC's compute backlog, seconds.
    pub depth_s: f64,
}

/// Telemetry at a delivery-point migration decision (frame arrived at
/// a live home SµDC; should it enter here or migrate along the ring?).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationObs {
    /// Node the frame arrived at.
    pub unit: usize,
    /// The home SµDC it would enter.
    pub cluster: usize,
    /// Sim time, seconds.
    pub now_s: f64,
    /// That SµDC's compute backlog, seconds.
    pub queue_depth_s: f64,
    /// ISL hops the frame has already taken.
    pub hops: u32,
    /// The topology's preferred reverse walk direction from `unit`.
    pub reverse_up: bool,
}

/// Retry decision for a transmission blocked by a link outage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RetryDecision {
    /// Retry the transmission after `delay_s` seconds.
    Retry { delay_s: f64 },
    /// Give up retrying; escalate to the reroute decision (frames) or
    /// loss accounting (requests).
    Escalate,
}

/// Source-shed decision for a newly kept frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShedDecision {
    /// Defer to the configured degradation model verbatim.
    Baseline,
    /// Shed with this probability, drawn on the engine's `shed` stream
    /// with unchanged keying.
    Coin { probability: f64 },
}

/// Admission decision for an arriving serve request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionDecision {
    /// Token bucket + configured shed threshold, verbatim.
    Baseline,
    /// Same gate with the backlog shed threshold scaled by this factor
    /// (>1 sheds less, <1 sheds more).
    ScaleShedThreshold(f64),
}

/// Batch-readiness decision for a (cluster, tenant) queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BatchDecision {
    /// Defer to the configured batcher verbatim.
    Baseline,
    /// Dispatch now regardless of the configured trigger.
    Flush,
}

/// Migration decision for a frame at a live home SµDC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MigrationDecision {
    /// Enter the home SµDC's queue (the only pre-policy behavior).
    Stay,
    /// Walk the reverse ring toward another sub-arc, direction `up`.
    Migrate { up: bool },
}

/// A run's controller. The trait's default methods ARE the static
/// policy: each reproduces the pre-refactor condition from observation
/// fields alone, without touching controller state or RNG. Adaptive
/// controllers override the subset of decisions they shape.
///
/// `Send` because sharded runs build each shard's state (controller
/// included) on a worker thread and hand it back to the caller.
pub trait Policy: std::fmt::Debug + Send {
    /// Retry a blocked transmission, or give up?
    fn decide_retry(&mut self, obs: &LinkObs) -> RetryDecision {
        match obs.baseline_delay_s {
            Some(delay_s) => RetryDecision::Retry { delay_s },
            None => RetryDecision::Escalate,
        }
    }

    /// Shed a newly kept frame at the source?
    fn decide_shed(&mut self, _obs: &ShedObs) -> ShedDecision {
        ShedDecision::Baseline
    }

    /// Admit, throttle, or shed an arriving request?
    fn decide_admission(&mut self, _obs: &AdmissionObs) -> AdmissionDecision {
        AdmissionDecision::Baseline
    }

    /// Is the (cluster, tenant) batch queue ready to dispatch?
    fn decide_batch(&mut self, _obs: &BatchObs) -> BatchDecision {
        BatchDecision::Baseline
    }

    /// Migrate an arriving frame away from its (live) home SµDC?
    fn decide_migration(&mut self, _obs: &MigrationObs) -> MigrationDecision {
        MigrationDecision::Stay
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_round_trips_names() {
        for &name in PolicyKind::names() {
            let k = PolicyKind::parse(name).expect("known name parses");
            assert_eq!(k.as_str(), name);
        }
        assert_eq!(PolicyKind::parse("greedy"), None);
        assert_eq!(PolicyKind::default(), PolicyKind::Static);
    }

    #[test]
    fn default_methods_reproduce_the_static_conditions() {
        let mut p = StaticPolicy;
        let obs = LinkObs {
            unit: 3,
            now_s: 1.0,
            attempt: 2,
            baseline_delay_s: Some(0.2),
            reversed: false,
            serve: false,
        };
        assert_eq!(p.decide_retry(&obs), RetryDecision::Retry { delay_s: 0.2 });
        assert_eq!(
            p.decide_retry(&LinkObs {
                baseline_delay_s: None,
                ..obs
            }),
            RetryDecision::Escalate
        );

        let shed = ShedObs {
            unit: 0,
            now_s: 0.0,
            queued_bits: 1e9,
            threshold_bits: Some(2e9),
        };
        assert_eq!(p.decide_shed(&shed), ShedDecision::Baseline);
        assert_eq!(
            p.decide_admission(&AdmissionObs {
                tenant: 0,
                unit: 0,
                now_s: 0.0,
                backlog_s: 9.0,
                tenant_shed: 4,
                mean_shed: 1.0,
            }),
            AdmissionDecision::Baseline
        );
        assert_eq!(
            p.decide_batch(&BatchObs {
                unit: 0,
                tenant: 0,
                now_s: 0.0,
                queue_len: 7,
                depth_s: 3.0,
            }),
            BatchDecision::Baseline
        );
        assert_eq!(
            p.decide_migration(&MigrationObs {
                unit: 1,
                cluster: 0,
                now_s: 0.0,
                queue_depth_s: 30.0,
                hops: 2,
                reverse_up: false,
            }),
            MigrationDecision::Stay
        );
    }
}
