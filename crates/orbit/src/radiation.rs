//! Radiation environment: dose rates by orbit regime, the South Atlantic
//! Anomaly's dose boost at LEO, and Van Allen belt classification.
//!
//! Sec. 9 of the paper argues COTS hardware is viable in LEO (~1 krad/yr)
//! but needs mitigation in the SAA and serious hardening in GEO (outer Van
//! Allen belt). This module encodes that environment so the hardening
//! experiments (Fig. 16) and placement analysis can query it.

use units::Length;

use crate::circular::CircularOrbit;

/// Orbit regimes with qualitatively different radiation environments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RadiationRegime {
    /// Low Earth orbit below the inner belt: benign, ~1 krad/yr.
    Leo,
    /// Inner Van Allen belt (~1 000–6 000 km): intense proton flux.
    InnerBelt,
    /// Slot region between the belts (~6 000–13 000 km).
    Slot,
    /// Outer Van Allen belt (~13 000–40 000 km): relativistic electrons;
    /// GEO sits in its outer reaches.
    OuterBelt,
    /// Beyond the outer belt.
    Interplanetary,
}

impl RadiationRegime {
    /// Classifies an altitude above the mean Earth surface.
    pub fn from_altitude(altitude: Length) -> Self {
        let km = altitude.as_km();
        if km < 1_000.0 {
            Self::Leo
        } else if km < 6_000.0 {
            Self::InnerBelt
        } else if km < 13_000.0 {
            Self::Slot
        } else if km < 45_000.0 {
            Self::OuterBelt
        } else {
            Self::Interplanetary
        }
    }

    /// Representative total ionising dose rate behind nominal (~3 mm Al)
    /// shielding, krad per year. LEO value matches the paper's cited
    /// 1 krad/yr; belt values are order-of-magnitude representative.
    pub fn dose_rate_krad_per_year(self) -> f64 {
        match self {
            Self::Leo => 1.0,
            Self::InnerBelt => 100.0,
            Self::Slot => 10.0,
            Self::OuterBelt => 20.0,
            Self::Interplanetary => 5.0,
        }
    }
}

impl std::fmt::Display for RadiationRegime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Self::Leo => "LEO",
            Self::InnerBelt => "inner Van Allen belt",
            Self::Slot => "slot region",
            Self::OuterBelt => "outer Van Allen belt",
            Self::Interplanetary => "interplanetary",
        };
        f.write_str(s)
    }
}

/// Annual total ionising dose accumulated in a circular orbit, accounting
/// for the SAA boost at LEO (SAA transits dominate LEO dose).
pub fn annual_dose_krad(orbit: CircularOrbit, saa_fraction: f64) -> f64 {
    let regime = RadiationRegime::from_altitude(orbit.altitude());
    let base = regime.dose_rate_krad_per_year();
    match regime {
        // SAA transits expose LEO satellites to inner-belt-like flux for
        // the transit fraction of the time.
        RadiationRegime::Leo => {
            base * (1.0 - saa_fraction)
                + RadiationRegime::InnerBelt.dose_rate_krad_per_year() * 0.1 * saa_fraction
        }
        _ => base,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regime_classification_boundaries() {
        assert_eq!(
            RadiationRegime::from_altitude(Length::from_km(550.0)),
            RadiationRegime::Leo
        );
        assert_eq!(
            RadiationRegime::from_altitude(Length::from_km(3_000.0)),
            RadiationRegime::InnerBelt
        );
        assert_eq!(
            RadiationRegime::from_altitude(Length::from_km(8_000.0)),
            RadiationRegime::Slot
        );
        assert_eq!(
            RadiationRegime::from_altitude(Length::from_km(35_786.0)),
            RadiationRegime::OuterBelt
        );
        assert_eq!(
            RadiationRegime::from_altitude(Length::from_km(60_000.0)),
            RadiationRegime::Interplanetary
        );
    }

    #[test]
    fn geo_sits_in_outer_belt() {
        let geo = CircularOrbit::geostationary();
        assert_eq!(
            RadiationRegime::from_altitude(geo.altitude()),
            RadiationRegime::OuterBelt
        );
        // GEO dose must exceed LEO dose — the paper's hardening argument.
        assert!(
            RadiationRegime::OuterBelt.dose_rate_krad_per_year()
                > RadiationRegime::Leo.dose_rate_krad_per_year()
        );
    }

    #[test]
    fn annual_dose_increases_with_saa_exposure() {
        let leo = CircularOrbit::from_altitude(Length::from_km(550.0));
        let none = annual_dose_krad(leo, 0.0);
        let some = annual_dose_krad(leo, 0.05);
        assert!(some > none);
        assert!((none - 1.0).abs() < 1e-9, "clean LEO is ~1 krad/yr");
    }

    #[test]
    fn rad750_tolerance_is_overdesign_for_leo() {
        // Paper: a 300 krad-hardened part is "significant overdesign" for
        // LEO. Even 15 years in LEO with 5% SAA accumulates far less.
        let leo = CircularOrbit::from_altitude(Length::from_km(550.0));
        let fifteen_years = annual_dose_krad(leo, 0.05) * 15.0;
        assert!(fifteen_years < 300.0 / 10.0);
    }
}
