//! Fault-injection configuration for the ring simulator (Sec. 9).
//!
//! A [`FaultModel`] switches on seeded stochastic failure processes in
//! [`super::run`]: transient ISL outages with MTBF/MTTR repair, SEU-driven
//! compute degradation and silent frame corruption tied to the orbit's
//! radiation environment, stochastic SµDC cluster outages generalising the
//! deterministic `SimConfig::failures` list, bounded retry with
//! exponential backoff, and load shedding once the in-flight backlog
//! crosses a threshold. [`FaultModel::none`] (the default) injects
//! nothing: fault-free runs remain byte-identical to the pre-fault
//! simulator because no fault RNG stream is ever drawn.

use simkit::faults::Backoff;
use units::{DataSize, Time};

/// Transient ISL link outages: each satellite's outgoing link alternates
/// exponentially-distributed up (`mtbf`) and down (`mttr`) periods,
/// independently per satellite (its own RNG stream).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkOutageSpec {
    /// Mean time between failures (mean up-time).
    pub mtbf: Time,
    /// Mean time to repair (mean down-time).
    pub mttr: Time,
}

/// Single-event-upset compute degradation. `upsets_per_frame` is the raw
/// bit-flip rate per processed frame; the simulator folds it through
/// [`workloads::hardening::silent_error_rate`] (silent output corruption)
/// and [`workloads::hardening::detected_error_rate`] (detected errors that
/// cost a recompute, stretching mean service time) for the configured
/// `SudcSpec` hardening strategy and application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeuSpec {
    /// Raw radiation-induced bit flips per processed frame.
    pub upsets_per_frame: f64,
}

/// Stochastic whole-SµDC outages (alternating renewal, like
/// [`LinkOutageSpec`] but per cluster). Generalises the deterministic
/// `SimConfig::failures` list: a down SµDC serves nothing, frames arriving
/// at it are rerouted (or lost), and work finishing during an outage dies
/// with the cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterOutageSpec {
    /// Mean time between cluster failures.
    pub mtbf: Time,
    /// Mean time to recover a failed cluster.
    pub mttr: Time,
}

/// Graceful degradation: once the in-flight backlog exceeds
/// `backlog_threshold`, newly kept frames are shed (dropped at the source)
/// with a probability that escalates linearly from `shed_probability` at
/// the threshold to 1.0 at twice the threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationSpec {
    /// Backlog level at which shedding starts.
    pub backlog_threshold: DataSize,
    /// Shed probability right at the threshold (escalates beyond it).
    pub shed_probability: f64,
}

/// Bounded retry with exponential backoff for transmissions that find
/// their link down: up to 4 retries with delays `0.05 s · 2^attempt`,
/// then a fall back to reverse-direction rerouting (and finally a drop
/// if both directions are dead). Every run uses this one schedule.
pub const RETRY_BACKOFF: Backoff = Backoff {
    base_s: 0.05,
    factor: 2.0,
    max_retries: 4,
};

/// The full fault-injection model. All processes are optional and
/// independent; [`FaultModel::none`] (also `Default`) disables everything.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultModel {
    /// Transient ISL outages.
    pub link_outages: Option<LinkOutageSpec>,
    /// SEU compute degradation and frame corruption.
    pub seu: Option<SeuSpec>,
    /// Stochastic SµDC cluster outages.
    pub cluster_outages: Option<ClusterOutageSpec>,
    /// Backlog-triggered load shedding.
    pub degradation: Option<DegradationSpec>,
}

impl FaultModel {
    /// No faults: the simulator behaves exactly as without a fault model
    /// (byte-identical reports for the same config and seed).
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether any fault process is enabled.
    pub fn active(&self) -> bool {
        self.link_outages.is_some()
            || self.seu.is_some()
            || self.cluster_outages.is_some()
            || self.degradation.is_some()
    }

    /// Names of the built-in scenarios accepted by [`FaultModel::scenario`].
    pub fn scenario_names() -> &'static [&'static str] {
        &[
            "none",
            "flaky_links",
            "seu_storm",
            "cluster_loss",
            "combined",
        ]
    }

    /// Looks up a named fault scenario:
    ///
    /// - `none` — no faults (byte-identical baseline);
    /// - `flaky_links` — ISL outages (MTBF 45 s, MTTR 6 s) exercising
    ///   retry and reverse-direction rerouting;
    /// - `seu_storm` — an elevated upset rate (0.8 flips/frame, the SAA /
    ///   solar-storm regime) degrading and corrupting compute;
    /// - `cluster_loss` — whole-SµDC outages (MTBF 90 s, MTTR 30 s);
    /// - `combined` — all of the above, milder, plus backlog shedding.
    pub fn scenario(name: &str) -> Option<Self> {
        let model = match name {
            "none" => Self::none(),
            "flaky_links" => Self {
                link_outages: Some(LinkOutageSpec {
                    mtbf: Time::from_secs(45.0),
                    mttr: Time::from_secs(6.0),
                }),
                ..Self::none()
            },
            "seu_storm" => Self {
                seu: Some(SeuSpec {
                    upsets_per_frame: 0.8,
                }),
                ..Self::none()
            },
            "cluster_loss" => Self {
                cluster_outages: Some(ClusterOutageSpec {
                    mtbf: Time::from_secs(90.0),
                    mttr: Time::from_secs(30.0),
                }),
                ..Self::none()
            },
            "combined" => Self {
                link_outages: Some(LinkOutageSpec {
                    mtbf: Time::from_secs(60.0),
                    mttr: Time::from_secs(5.0),
                }),
                seu: Some(SeuSpec {
                    upsets_per_frame: 0.3,
                }),
                cluster_outages: Some(ClusterOutageSpec {
                    mtbf: Time::from_secs(150.0),
                    mttr: Time::from_secs(20.0),
                }),
                degradation: Some(DegradationSpec {
                    backlog_threshold: DataSize::from_gigabytes(0.25),
                    shed_probability: 0.5,
                }),
                ..Self::none()
            },
            _ => return None,
        };
        Some(model)
    }
}

/// Per-run fault statistics, all zero (and `availability = 1`) for
/// fault-free runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSummary {
    /// ISL outage windows that began within the horizon, summed over links.
    pub link_outages: u64,
    /// SµDC outage windows that began within the horizon.
    pub cluster_outages: u64,
    /// Transmissions retried after finding their link down.
    pub retries: u64,
    /// Frames switched to reverse-direction routing (dead link after
    /// exhausted retries, or arrival at a dead SµDC).
    pub reroutes: u64,
    /// Frames dropped because no route delivered them (both directions
    /// dead or the hop budget ran out).
    pub undeliverable: u64,
    /// Frames shed at the source by backlog-triggered degradation.
    pub frames_shed: u64,
    /// Processed frames whose output was silently corrupted by an SEU.
    pub frames_corrupted: u64,
    /// Mean availability of the modelled outage processes over the
    /// horizon (1.0 when no outage process is configured).
    pub availability: f64,
}

impl Default for FaultSummary {
    fn default() -> Self {
        Self {
            link_outages: 0,
            cluster_outages: 0,
            retries: 0,
            reroutes: 0,
            undeliverable: 0,
            frames_shed: 0,
            frames_corrupted: 0,
            availability: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inactive_and_default() {
        assert!(!FaultModel::none().active());
        assert_eq!(FaultModel::none(), FaultModel::default());
    }

    #[test]
    fn every_named_scenario_resolves() {
        for name in FaultModel::scenario_names() {
            let m = FaultModel::scenario(name)
                .unwrap_or_else(|| panic!("scenario {name} must resolve"));
            assert_eq!(m.active(), *name != "none", "{name}");
        }
        assert!(FaultModel::scenario("not_a_scenario").is_none());
    }

    #[test]
    fn default_summary_is_clean() {
        let s = FaultSummary::default();
        assert_eq!(s.retries + s.reroutes + s.frames_corrupted, 0);
        assert_eq!(s.availability, 1.0);
    }
}
