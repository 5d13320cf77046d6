//! The sim's control plane: a `Policy` layer for the two decision
//! sites a controller shapes, the retry of a transmission blocked by a
//! link outage (frames in `engine.rs`, requests in `serve/`) and the
//! source shed of a newly kept frame (`engine.rs`).
//!
//! The contract is observe → decide → act. At each decision point the
//! engine assembles a small, plain-value observation (sim-time
//! telemetry: retry counts, the baseline backoff, the backlog and
//! degradation threshold — plus whatever the controller derived at
//! build time from `orbit::eclipse`) and asks the run's [`Policy`] for
//! a typed decision. The engine alone executes decisions; controllers
//! never touch sim state and never draw RNG, so every stochastic draw
//! stays on the engine's dedicated stateless streams with unchanged
//! keying.
//!
//! Byte-identity argument: each decision enum carries a variant whose
//! execution path in the engine is the exact pre-refactor code, and the
//! trait's default methods reproduce the pre-refactor conditions from
//! observation fields alone. [`StaticPolicy`] overrides nothing, so a
//! `--policy static` run (or one that omits the flag) performs the
//! same draws on the same streams in the same order as the
//! pre-policy-layer engine. Only static runs are sharded
//! ([`super::parallel`]); adaptive controllers always run on the
//! sequential engine, so their state is never split across shards.
//!
//! Everything else is fixed behaviour the engine applies itself: where
//! a frame goes when it cannot proceed forward (the static reroute
//! rule), whether a frame enters its live home SµDC (always), serve
//! admission (token bucket and class shed threshold) and batch
//! readiness (the configured batcher). Each was once a decision site
//! that no controller ever moved off its baseline on a committed run.

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
    /// Fixed behavior: config-driven backoff and threshold shedding.
    /// No adaptation.
    #[default]
    Static,
    /// Threshold-driven feedback: widens and extends the retry backoff
    /// on observed outage bursts.
    Reactive,
    /// Eclipse-aware feedforward: pre-sheds frames imaged ahead of a
    /// predicted capacity dip.
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
    /// precompute orbital context (predictive) derive it here,
    /// once, from the config alone — keeping `decide_*` pure functions
    /// of (controller state, observation).
    pub fn build(self, cfg: &SimConfig) -> Box<dyn Policy> {
        match self {
            Self::Static => Box::new(StaticPolicy),
            Self::Reactive => Box::new(ReactivePolicy::new()),
            Self::Predictive => Box::new(PredictivePolicy::new(cfg)),
        }
    }
}

/// Telemetry at a blocked-link retry decision (frame or request side).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkObs {
    /// Sim time, seconds.
    pub now_s: f64,
    /// Retries already spent on this transmission.
    pub attempt: u32,
    /// What the baseline backoff schedule would do: `Some(delay)`
    /// to retry after `delay` seconds, `None` once the budget is spent.
    pub baseline_delay_s: Option<f64>,
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
            now_s: 1.0,
            attempt: 2,
            baseline_delay_s: Some(0.2),
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
    }
}
