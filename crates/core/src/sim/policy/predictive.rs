//! The `Predictive` controller: eclipse-aware feedforward.
//!
//! At build time it derives, once, the plane's **eclipse geometry** from
//! the run's config via `orbit::eclipse` — orbit normal from
//! inclination/RAAN, beta angle against a deterministic sun vector,
//! eclipse fraction and orbital period. A satellite at ring phase `s/n`
//! is modelled as entering the Earth's shadow when its orbit-phase
//! position falls in the trailing `fraction` of the period — the
//! standard cylindrical-shadow picture, phase-shifted per satellite.
//!
//! During the run it acts *before* the predicted capacity dip rather
//! than after the backlog builds, at one decision site: it **pre-sheds**.
//! Frames imaged by a satellite inside (or within the lead window of)
//! eclipse are shed with a small probability once the backlog passes
//! half the configured degradation threshold — trimming load before the
//! threshold trips, instead of the static policy's
//! escalate-at-threshold coin.
//!
//! Every decision is a pure function of (build-time constants, the
//! observation); the controller holds no mutable state and draws no
//! RNG, so runs are trivially repeatable.

use orbit::eclipse;

use super::{Policy, ShedDecision, ShedObs};
use crate::sim::model::SimConfig;

/// Seconds of lead time before predicted eclipse entry during which
/// the controller already acts.
const ECLIPSE_LEAD_S: f64 = 60.0;
/// Pre-shed probability inside the dip window.
const PRE_SHED_P: f64 = 0.15;
/// Backlog fraction of the degradation threshold at which pre-shedding
/// starts.
const PRE_SHED_BACKLOG_FRAC: f64 = 0.5;

/// Eclipse-aware feedforward controller.
#[derive(Debug)]
pub struct PredictivePolicy {
    /// Satellites in the ring (phase denominator).
    n: usize,
    /// Orbital period, seconds.
    period_s: f64,
    /// Eclipse fraction of the orbit (0 when the shadow is missed).
    eclipse_fraction: f64,
}

impl PredictivePolicy {
    /// Derives the orbital context from the config.
    pub fn new(cfg: &SimConfig) -> Self {
        let orbit = cfg.plane.orbit();
        let normal = eclipse::orbit_normal(cfg.plane.inclination(), cfg.plane.raan());
        // Deterministic epoch: the sim has no calendar, so the sun sits
        // at year fraction 0 — a conservative (near-maximal) eclipse
        // fraction for the paper's 53° plane.
        let beta = eclipse::beta_angle(normal, eclipse::sun_direction(0.0));
        Self {
            n: cfg.plane.satellite_count(),
            period_s: orbit.period().as_secs(),
            eclipse_fraction: eclipse::eclipse_fraction(orbit, beta),
        }
    }

    /// Whether satellite `sat`, at ring phase `sat/n`, sits inside the
    /// eclipse window (or within [`ECLIPSE_LEAD_S`] of entering it) at
    /// `now_s`.
    fn in_dip_window(&self, sat: usize, now_s: f64) -> bool {
        if self.eclipse_fraction <= 0.0 {
            return false;
        }
        let phase = (now_s / self.period_s + sat as f64 / self.n as f64).rem_euclid(1.0);
        let entry = 1.0 - self.eclipse_fraction;
        let lead = ECLIPSE_LEAD_S / self.period_s;
        phase >= entry - lead
    }
}

impl Policy for PredictivePolicy {
    fn decide_shed(&mut self, obs: &ShedObs) -> ShedDecision {
        let Some(threshold) = obs.threshold_bits else {
            // No degradation model configured: nothing to pre-empt.
            return ShedDecision::Baseline;
        };
        if !self.in_dip_window(obs.unit, obs.now_s) {
            return ShedDecision::Baseline;
        }
        if obs.queued_bits > threshold {
            // Past the threshold the configured escalation is already
            // at least as aggressive as the pre-shed coin.
            return ShedDecision::Baseline;
        }
        if obs.queued_bits > threshold * PRE_SHED_BACKLOG_FRAC {
            ShedDecision::Coin {
                probability: PRE_SHED_P,
            }
        } else {
            ShedDecision::Baseline
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use units::Length;
    use workloads::Application;

    fn policy() -> PredictivePolicy {
        PredictivePolicy::new(&SimConfig::paper_reference(
            Application::AirPollution,
            Length::from_m(3.0),
            0.95,
        ))
    }

    #[test]
    fn build_derives_a_plausible_eclipse_geometry() {
        let p = policy();
        assert!(p.period_s > 5000.0 && p.period_s < 6500.0, "LEO period");
        assert!(
            p.eclipse_fraction > 0.2 && p.eclipse_fraction < 0.5,
            "550 km eclipse fraction, got {}",
            p.eclipse_fraction
        );
    }

    #[test]
    fn the_dip_window_is_the_trailing_arc_plus_lead() {
        let p = policy();
        // Phase 0 (ring start, t=0) is sunlit; the trailing arc is dark.
        assert_eq!(p.n, 64);
        assert!(!p.in_dip_window(0, 0.0));
        assert!(p.in_dip_window(63, 0.0));
        // The same satellite leaves the window as the orbit advances.
        let half = p.period_s / 2.0;
        assert!(!p.in_dip_window(63, half));
    }

    #[test]
    fn shed_pre_empts_only_inside_the_window_with_real_backlog() {
        let mut p = policy();
        let dark = ShedObs {
            unit: 63,
            now_s: 0.0,
            queued_bits: 6e9,
            threshold_bits: Some(8e9),
        };
        assert_eq!(
            p.decide_shed(&dark),
            ShedDecision::Coin {
                probability: PRE_SHED_P
            }
        );
        // Sunlit satellite, same backlog: baseline.
        assert_eq!(
            p.decide_shed(&ShedObs { unit: 0, ..dark }),
            ShedDecision::Baseline
        );
        // Low backlog: nothing to trim yet.
        assert_eq!(
            p.decide_shed(&ShedObs {
                queued_bits: 1e9,
                ..dark
            }),
            ShedDecision::Baseline
        );
        // Past the threshold the configured escalation takes over.
        assert_eq!(
            p.decide_shed(&ShedObs {
                queued_bits: 9e9,
                ..dark
            }),
            ShedDecision::Baseline
        );
        // No degradation model: never invents shedding.
        assert_eq!(
            p.decide_shed(&ShedObs {
                threshold_bits: None,
                ..dark
            }),
            ShedDecision::Baseline
        );
    }
}
