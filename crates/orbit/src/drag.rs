//! Atmospheric drag and station-keeping (boost) budgets.
//!
//! Sec. 9 of the paper weighs SµDC placement partly on boosting needs:
//! "satellites need significant boosting at lower altitude to prevent
//! atmospheric drag from causing them to crash into Earth", while "GEO
//! requires less boosting than LEO". This module quantifies that with a
//! piecewise-exponential atmosphere and first-order boost formulas.

use units::constants::EARTH_MU_M3_PER_S2;
use units::{Length, Mass, Power, Time, Velocity};

use crate::circular::CircularOrbit;

/// Piecewise-exponential atmosphere table: (base altitude km, density
/// kg/m³ at base, scale height km). Condensed from the US Standard
/// Atmosphere / Vallado tables over the LEO-relevant range.
const ATMOSPHERE: &[(f64, f64, f64)] = &[
    (0.0, 1.225, 7.249),
    (100.0, 5.297e-7, 5.877),
    (150.0, 2.070e-9, 22.523),
    (200.0, 2.789e-10, 37.105),
    (250.0, 7.248e-11, 45.546),
    (300.0, 2.418e-11, 53.628),
    (350.0, 9.518e-12, 53.298),
    (400.0, 3.725e-12, 58.515),
    (450.0, 1.585e-12, 60.828),
    (500.0, 6.967e-13, 63.822),
    (600.0, 1.454e-13, 71.835),
    (700.0, 3.614e-14, 88.667),
    (800.0, 1.170e-14, 124.64),
    (900.0, 5.245e-15, 181.05),
    (1000.0, 3.019e-15, 268.00),
];

/// Atmospheric density at the given altitude (kg/m³).
///
/// Above 1000 km the last exponential segment is extrapolated; densities
/// there are negligible for decay purposes.
pub fn atmospheric_density(altitude: Length) -> f64 {
    let h = altitude.as_km().max(0.0);
    let seg = ATMOSPHERE
        .iter()
        .rev()
        .find(|(base, _, _)| h >= *base)
        .unwrap_or(&ATMOSPHERE[0]);
    let (base, rho0, scale) = *seg;
    rho0 * (-(h - base) / scale).exp()
}

/// Ballistic properties of a spacecraft for drag purposes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spacecraft {
    /// Spacecraft mass.
    pub mass: Mass,
    /// Drag-facing cross-sectional area, m².
    pub drag_area_m2: f64,
    /// Drag coefficient (≈2.2 for typical satellites).
    pub drag_coefficient: f64,
}

impl Spacecraft {
    /// A rack-scale SµDC: big solar arrays mean big drag area.
    pub fn sudc_4kw() -> Self {
        Self {
            mass: Mass::from_kg(2_500.0),
            drag_area_m2: 40.0,
            drag_coefficient: 2.2,
        }
    }
}

/// Drag force magnitude on the spacecraft, N.
pub fn drag_force_n(orbit: CircularOrbit, sc: &Spacecraft) -> f64 {
    let rho = atmospheric_density(orbit.altitude());
    let v = orbit.velocity().as_m_per_s();
    0.5 * rho * v * v * sc.drag_coefficient * sc.drag_area_m2
}

/// Continuous thrust power an ideal electric thruster with the given
/// exhaust velocity must supply to exactly cancel drag:
/// `P = F · v_e / 2` (jet power of a thrust-matched plume).
pub fn stationkeeping_power(orbit: CircularOrbit, sc: &Spacecraft, exhaust: Velocity) -> Power {
    Power::from_watts(drag_force_n(orbit, sc) * exhaust.as_m_per_s() / 2.0)
}

/// Delta-v per year required to hold the orbit against drag:
/// `Δv/yr = F/m · seconds-per-year`.
pub fn annual_stationkeeping_delta_v(orbit: CircularOrbit, sc: &Spacecraft) -> Velocity {
    let accel = drag_force_n(orbit, sc) / sc.mass.as_kg();
    Velocity::from_m_per_s(accel * Time::from_years(1.0).as_secs())
}

/// Delta-v of a Hohmann transfer between two circular orbits (both burns).
pub fn hohmann_delta_v(from: CircularOrbit, to: CircularOrbit) -> Velocity {
    let mu = EARTH_MU_M3_PER_S2;
    let r1 = from.radius().as_m();
    let r2 = to.radius().as_m();
    let v1 = (mu / r1).sqrt();
    let v2 = (mu / r2).sqrt();
    let a_t = (r1 + r2) / 2.0;
    let v_peri = (mu * (2.0 / r1 - 1.0 / a_t)).sqrt();
    let v_apo = (mu * (2.0 / r2 - 1.0 / a_t)).sqrt();
    Velocity::from_m_per_s((v_peri - v1).abs() + (v2 - v_apo).abs())
}

/// Delta-v to retire a satellite: LEO disposal lowers perigee to ~50 km
/// below; GEO graveyard raises the orbit ~300 km (Sec. 9 contrast).
pub fn disposal_delta_v(orbit: CircularOrbit) -> Velocity {
    let geo = CircularOrbit::geostationary();
    if orbit.radius() >= geo.radius() * 0.98 {
        // Graveyard: +300 km.
        hohmann_delta_v(
            orbit,
            CircularOrbit::from_radius(orbit.radius() + Length::from_km(300.0)),
        )
    } else {
        // Disposal: drop perigee into the atmosphere; approximate with a
        // Hohmann to a 100 km-lower circular orbit repeated until 200 km.
        hohmann_delta_v(orbit, CircularOrbit::from_altitude(Length::from_km(200.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_decreases_with_altitude() {
        let mut prev = f64::INFINITY;
        for km in [0.0, 100.0, 200.0, 400.0, 600.0, 800.0, 1000.0, 1500.0] {
            let rho = atmospheric_density(Length::from_km(km));
            assert!(rho < prev, "density must fall with altitude at {km} km");
            assert!(rho > 0.0);
            prev = rho;
        }
    }

    #[test]
    fn sea_level_density_is_standard() {
        assert!((atmospheric_density(Length::ZERO) - 1.225).abs() < 1e-6);
    }

    #[test]
    fn sudc_needs_more_boost_in_low_leo_than_high_leo() {
        let sc = Spacecraft::sudc_4kw();
        let low = annual_stationkeeping_delta_v(
            CircularOrbit::from_altitude(Length::from_km(400.0)),
            &sc,
        );
        let high = annual_stationkeeping_delta_v(
            CircularOrbit::from_altitude(Length::from_km(800.0)),
            &sc,
        );
        assert!(low.as_m_per_s() > 10.0 * high.as_m_per_s());
    }

    #[test]
    fn geo_stationkeeping_drag_is_negligible() {
        let sc = Spacecraft::sudc_4kw();
        let dv = annual_stationkeeping_delta_v(CircularOrbit::geostationary(), &sc);
        assert!(dv.as_m_per_s() < 1e-3, "GEO drag dv {}", dv.as_m_per_s());
    }

    #[test]
    fn hohmann_leo_to_geo_near_3_9_km_per_s() {
        let dv = hohmann_delta_v(
            CircularOrbit::from_altitude(Length::from_km(300.0)),
            CircularOrbit::geostationary(),
        );
        assert!(
            dv.as_km_per_s() > 3.7 && dv.as_km_per_s() < 4.1,
            "got {}",
            dv.as_km_per_s()
        );
    }

    #[test]
    fn hohmann_is_symmetric_in_magnitude() {
        let a = CircularOrbit::from_altitude(Length::from_km(400.0));
        let b = CircularOrbit::from_altitude(Length::from_km(800.0));
        let up = hohmann_delta_v(a, b);
        let down = hohmann_delta_v(b, a);
        assert!((up.as_m_per_s() - down.as_m_per_s()).abs() < 1e-6);
    }

    #[test]
    fn geo_disposal_cheaper_than_leo_disposal() {
        let geo = disposal_delta_v(CircularOrbit::geostationary());
        let leo = disposal_delta_v(CircularOrbit::from_altitude(Length::from_km(550.0)));
        assert!(
            geo.as_m_per_s() < leo.as_m_per_s(),
            "graveyard boost ({}) should cost less than deorbit ({})",
            geo.as_m_per_s(),
            leo.as_m_per_s()
        );
    }

    #[test]
    fn stationkeeping_power_modest_for_sudc_at_550km() {
        // Sanity for the paper's claim that bus overhead (incl. propulsion)
        // stays within ~1 kW for a 4 kW SµDC at typical LEO altitudes.
        let sc = Spacecraft::sudc_4kw();
        let p = stationkeeping_power(
            CircularOrbit::from_altitude(Length::from_km(550.0)),
            &sc,
            Velocity::from_km_per_s(20.0), // ion thruster
        );
        assert!(p.as_watts() < 500.0, "got {} W", p.as_watts());
    }
}
