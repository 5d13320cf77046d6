//! Optical inter-satellite link models.
//!
//! Sec. 8's co-design analysis relies on three optical-ISL facts:
//!
//! 1. transmit power grows **quadratically with link distance** at fixed
//!    rate (beam divergence spreads the power over an area ∝ d²),
//! 2. optical bandwidth is effectively unregulated, so a SµDC can add
//!    receivers (k-lists scale linearly in aggregate rate), and
//! 3. links that graze the atmosphere suffer turbulence-induced fading,
//!    and pointing a narrow optical beam takes seconds to minutes —
//!    which is why fixed ring topologies matter for LEO and why RF
//!    beamforming is attractive for cross-altitude links.

use units::{DataRate, Length, Power, Time};

/// An optical ISL terminal design point.
///
/// The power model is calibrated by a reference design: `ref_power` closes
/// a `ref_rate` link at `ref_distance`. Scaling follows
/// `P ∝ rate · (distance / ref_distance)²`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpticalTerminal {
    /// Power consumed to close the reference link.
    pub ref_power: Power,
    /// Reference data rate.
    pub ref_rate: DataRate,
    /// Reference link distance.
    pub ref_distance: Length,
    /// Time to acquire and point at a new partner.
    pub pointing_time: Time,
}

impl OpticalTerminal {
    /// A LEO-class terminal: 10 Gbit/s over ~700 km neighbour spacing for
    /// ~50 W — representative of deployed LEO laser crosslinks.
    pub fn leo_class() -> Self {
        Self {
            ref_power: Power::from_watts(50.0),
            ref_rate: DataRate::from_gbps(10.0),
            ref_distance: Length::from_km(700.0),
            pointing_time: Time::from_secs(30.0),
        }
    }

    /// A LEO↔GEO-class terminal: 1.8 Gbit/s over ~45 000 km for ~160 W —
    /// representative of EDRS/Alphasat-heritage links cited by the paper.
    pub fn leo_geo_class() -> Self {
        Self {
            ref_power: Power::from_watts(160.0),
            ref_rate: DataRate::from_gbps(1.8),
            ref_distance: Length::from_km(45_000.0),
            pointing_time: Time::from_minutes(2.0),
        }
    }

    /// Transmit power required to close a link of the given rate and
    /// distance: `P = P_ref · (rate/rate_ref) · (d/d_ref)²`.
    pub fn power_for(&self, rate: DataRate, distance: Length) -> Power {
        let rate_factor = rate.ratio(self.ref_rate);
        let dist_factor = distance.ratio(self.ref_distance);
        self.ref_power * (rate_factor * dist_factor * dist_factor)
    }

    /// Achievable rate with a given power budget at a given distance
    /// (inverse of [`OpticalTerminal::power_for`]).
    #[cfg(test)]
    pub fn rate_for(&self, power: Power, distance: Length) -> DataRate {
        let dist_factor = distance.ratio(self.ref_distance);
        self.ref_rate * (power.ratio(self.ref_power) / (dist_factor * dist_factor))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::prop;

    #[test]
    fn power_scales_quadratically_with_distance() {
        // Sec. 8: "a 4-list's ISLs consume 4× the power of a 2-list
        // (while also transmitting 2× the data)" — doubling distance at
        // the same rate quadruples power.
        let t = OpticalTerminal::leo_class();
        let p1 = t.power_for(DataRate::from_gbps(10.0), Length::from_km(700.0));
        let p2 = t.power_for(DataRate::from_gbps(10.0), Length::from_km(1400.0));
        assert!((p2.ratio(p1) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn four_list_power_math_from_paper() {
        // A 4-list link spans 2× the ring distance and carries 2× the
        // data of a 2-list link → 2·(2²)/… per-link power is 8× per link,
        // but per *unit data* it is 4×. The paper's "4× the power while
        // transmitting 2× the data" counts the doubled distance only:
        // same-rate comparison at 2× distance = 4×.
        let t = OpticalTerminal::leo_class();
        let two_list = t.power_for(DataRate::from_gbps(10.0), Length::from_km(700.0));
        let four_list_same_rate = t.power_for(DataRate::from_gbps(10.0), Length::from_km(1400.0));
        assert!((four_list_same_rate.ratio(two_list) - 4.0).abs() < 1e-9);
        let four_list_double_rate = t.power_for(DataRate::from_gbps(20.0), Length::from_km(1400.0));
        assert!((four_list_double_rate.ratio(two_list) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn rate_and_power_are_inverse() {
        let t = OpticalTerminal::leo_class();
        let d = Length::from_km(950.0);
        let p = t.power_for(DataRate::from_gbps(7.0), d);
        let r = t.rate_for(p, d);
        assert!((r.as_gbps() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn reference_point_is_fixed_point() {
        let t = OpticalTerminal::leo_geo_class();
        let p = t.power_for(t.ref_rate, t.ref_distance);
        assert!((p.ratio(t.ref_power) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn leo_geo_link_power_is_practical() {
        // Sec. 9: "numerous works demonstrate high capacity, low power
        // LEO-GEO ISLs" — 10 Gbit/s to GEO should stay under ~1 kW.
        let t = OpticalTerminal::leo_geo_class();
        let p = t.power_for(DataRate::from_gbps(10.0), Length::from_km(40_000.0));
        assert!(p.as_watts() < 1_000.0, "got {}", p.as_watts());
    }

    #[test]
    fn power_monotone_in_rate_and_distance() {
        prop::check("power_monotone_in_rate_and_distance", 256, |g| {
            let r = g.draw(0.1f64..100.0);
            let d = g.draw(100.0f64..50_000.0);

            let t = OpticalTerminal::leo_class();
            let p = t.power_for(DataRate::from_gbps(r), Length::from_km(d));
            let pr = t.power_for(DataRate::from_gbps(r * 1.1), Length::from_km(d));
            let pd = t.power_for(DataRate::from_gbps(r), Length::from_km(d * 1.1));
            assert!(pr > p);
            assert!(pd > p);
        });
    }
}
