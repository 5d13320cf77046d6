//! Physical and astronomical constants used across the workspace.
//!
//! Values are the standard WGS-84 / CODATA figures at the fidelity the
//! paper's models require. Each constant notes where it enters the
//! reproduction.

/// Speed of light in vacuum, m/s (link budgets, ISL latency).
pub const SPEED_OF_LIGHT_M_PER_S: f64 = 299_792_458.0;

/// Boltzmann constant, J/K (thermal-noise floor in RF link budgets).
pub const BOLTZMANN_J_PER_K: f64 = 1.380_649e-23;

/// Standard gravitational parameter of Earth, m³/s² (orbit propagation).
pub const EARTH_MU_M3_PER_S2: f64 = 3.986_004_418e14;

/// Mean Earth radius, m (ground tracks, coverage area, occlusion).
pub const EARTH_RADIUS_M: f64 = 6_371_000.0;

/// Earth's sidereal rotation rate, rad/s (GEO matching, ground tracks).
pub const EARTH_ROTATION_RAD_PER_S: f64 = 7.292_115_9e-5;

/// Sidereal day, s.
#[cfg(test)]
pub const SIDEREAL_DAY_S: f64 = 86_164.0905;

/// Geostationary orbit radius from Earth's centre, m
/// (≈35 786 km altitude; Sec. 9 GEO placement analysis).
pub const GEO_RADIUS_M: f64 = 42_164_000.0;

/// Total surface area of Earth, m² (Fig. 4a data-generation model:
/// `surface area / spatial-res² / temporal-res`).
pub const EARTH_SURFACE_AREA_M2: f64 = 5.100_656e14;

/// Fraction of Earth's surface covered by ocean (Table 3 early discard).
pub const EARTH_OCEAN_FRACTION: f64 = 0.7;

/// Mean global cloud-cover fraction (Table 3 early discard, MODIS-derived).
pub const EARTH_CLOUD_FRACTION: f64 = 0.67;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Length, Time, Velocity};

    fn geo_radius() -> Length {
        Length::from_m(GEO_RADIUS_M)
    }

    /// `T = 2π·sqrt(r³/mu)`.
    fn circular_period(radius: Length) -> Time {
        let r = radius.as_m();
        Time::from_secs(std::f64::consts::TAU * (r * r * r / EARTH_MU_M3_PER_S2).sqrt())
    }

    /// `v = sqrt(mu/r)`.
    fn circular_velocity(radius: Length) -> Velocity {
        Velocity::from_m_per_s((EARTH_MU_M3_PER_S2 / radius.as_m()).sqrt())
    }

    #[test]
    fn leo_velocity_near_8_km_per_s() {
        // The paper quotes ~8 km/s orbiter motion for LEO imagers.
        let v = circular_velocity(Length::from_km(6371.0 + 250.0));
        assert!(v.as_km_per_s() > 7.5 && v.as_km_per_s() < 8.0);
    }

    #[test]
    fn iss_orbit_period_is_about_92_minutes() {
        let t = circular_period(Length::from_km(6371.0 + 420.0));
        assert!(
            t.as_minutes() > 90.0 && t.as_minutes() < 94.0,
            "got {} min",
            t.as_minutes()
        );
    }

    #[test]
    fn geo_period_matches_sidereal_day() {
        let t = circular_period(geo_radius());
        assert!(
            (t.as_secs() - SIDEREAL_DAY_S).abs() < 60.0,
            "GEO period {} s should be within a minute of the sidereal day",
            t.as_secs()
        );
    }

    #[test]
    fn surface_area_consistent_with_radius() {
        let computed = 4.0 * std::f64::consts::PI * EARTH_RADIUS_M * EARTH_RADIUS_M;
        let rel = (computed - EARTH_SURFACE_AREA_M2).abs() / EARTH_SURFACE_AREA_M2;
        assert!(rel < 0.01, "relative error {rel}");
    }
}
