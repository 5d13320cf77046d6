//! Circular-orbit helpers.
//!
//! The paper's constellations are near-circular LEO rings plus GEO
//! placements, so a dedicated circular-orbit type keeps the common case
//! ergonomic: period, velocity, in-plane chord distances between ring
//! neighbours (the ISL link lengths of Secs. 7–8), and coverage geometry.

use units::constants::{EARTH_MU_M3_PER_S2, EARTH_RADIUS_M, GEO_RADIUS_M};
use units::{Angle, Length, Time, Velocity};

use crate::kepler::KeplerError;

/// A circular Earth orbit characterised by its radius (and optionally an
/// inclination when converted to full elements).
///
/// ```
/// use orbit::CircularOrbit;
/// use units::Length;
///
/// let orbit = CircularOrbit::from_altitude(Length::from_km(500.0));
/// assert!(orbit.velocity().as_km_per_s() > 7.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CircularOrbit {
    radius: Length,
}

impl CircularOrbit {
    /// Creates an orbit from its radius measured from Earth's centre.
    ///
    /// # Panics
    ///
    /// Panics if the radius is below Earth's surface; use
    /// [`CircularOrbit::try_from_radius`] for fallible construction.
    pub fn from_radius(radius: Length) -> Self {
        // lint:allow(unwrap-in-lib) documented # Panics contract; every caller passes a fixed LEO/GEO altitude and the fallible twin is try_from_radius
        Self::try_from_radius(radius).expect("circular orbit radius below Earth's surface")
    }

    /// Fallible constructor: radius must be at or above Earth's surface.
    ///
    /// # Errors
    ///
    /// Returns [`KeplerError::InvalidSemiMajorAxis`] if the radius is below
    /// the surface.
    pub fn try_from_radius(radius: Length) -> Result<Self, KeplerError> {
        if radius.as_m() < EARTH_RADIUS_M {
            return Err(KeplerError::InvalidSemiMajorAxis(radius.as_m()));
        }
        Ok(Self { radius })
    }

    /// Creates an orbit from altitude above the mean Earth surface.
    ///
    /// # Panics
    ///
    /// Panics on negative altitude.
    pub fn from_altitude(altitude: Length) -> Self {
        Self::from_radius(Length::from_m(EARTH_RADIUS_M) + altitude)
    }

    /// The geostationary orbit.
    pub fn geostationary() -> Self {
        Self {
            radius: Length::from_m(GEO_RADIUS_M),
        }
    }

    /// Orbit radius from Earth's centre.
    pub fn radius(&self) -> Length {
        self.radius
    }

    /// Altitude above the mean Earth surface.
    pub fn altitude(&self) -> Length {
        self.radius - Length::from_m(EARTH_RADIUS_M)
    }

    /// Orbital period.
    pub fn period(&self) -> Time {
        let r = self.radius.as_m();
        Time::from_secs(std::f64::consts::TAU * (r * r * r / EARTH_MU_M3_PER_S2).sqrt())
    }

    /// Orbital speed.
    pub fn velocity(&self) -> Velocity {
        Velocity::from_m_per_s((EARTH_MU_M3_PER_S2 / self.radius.as_m()).sqrt())
    }

    /// Straight-line (chord) distance between two satellites separated by
    /// `separation` of central angle in the same circular orbit.
    ///
    /// This is the ISL link length between ring neighbours: for `n` evenly
    /// spaced satellites, neighbours are `2π/n` apart.
    pub fn chord_distance(&self, separation: Angle) -> Length {
        let half = separation.normalized_signed().as_radians().abs() / 2.0;
        self.radius * (2.0 * half.sin())
    }

    /// Central-angle separation of evenly spaced satellites in a ring of
    /// `n` satellites.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn even_spacing(n: usize) -> Angle {
        assert!(n > 0, "ring must contain at least one satellite");
        Angle::from_revolutions(1.0 / n as f64)
    }

    /// Maximum central angle over which two satellites in this orbit still
    /// have line of sight, given a grazing altitude below which the ray is
    /// considered blocked (0 for the solid Earth, ~80 km to avoid deep
    /// atmosphere for optical ISLs).
    ///
    /// Geometry: the chord between the two satellites is tangent to the
    /// blocking sphere when the central half-angle is
    /// `acos(r_block / r_orbit)`.
    pub fn max_los_separation(&self, grazing_altitude: Length) -> Angle {
        let r_block = EARTH_RADIUS_M + grazing_altitude.as_m();
        let ratio = (r_block / self.radius.as_m()).clamp(-1.0, 1.0);
        Angle::from_radians(2.0 * ratio.acos())
    }
}

impl std::fmt::Display for CircularOrbit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "circular orbit at {} altitude", self.altitude())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn altitude_round_trip() {
        let o = CircularOrbit::from_altitude(Length::from_km(550.0));
        assert!((o.altitude().as_km() - 550.0).abs() < 1e-9);
        assert!((o.radius().as_km() - 6921.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_subsurface_radius() {
        assert!(CircularOrbit::try_from_radius(Length::from_km(6000.0)).is_err());
    }

    #[test]
    fn geo_altitude_is_35786_km() {
        let geo = CircularOrbit::geostationary();
        assert!((geo.altitude().as_km() - 35_793.0).abs() < 20.0);
    }

    #[test]
    fn leo_period_under_128_minutes() {
        // The paper defines LEO as orbital period < 128 min (altitude < 2000 km).
        let o = CircularOrbit::from_altitude(Length::from_km(2000.0));
        assert!(o.period().as_minutes() < 128.0);
    }

    #[test]
    fn chord_distance_of_opposite_satellites_is_diameter() {
        let o = CircularOrbit::from_altitude(Length::from_km(500.0));
        let d = o.chord_distance(Angle::from_degrees(180.0));
        assert!((d.as_m() - 2.0 * o.radius().as_m()).abs() < 1e-3);
    }

    #[test]
    fn chord_distance_for_64_ring() {
        // 64 evenly spaced satellites at 550 km: neighbours ~679 km apart.
        let o = CircularOrbit::from_altitude(Length::from_km(550.0));
        let d = o.chord_distance(CircularOrbit::even_spacing(64));
        assert!(d.as_km() > 600.0 && d.as_km() < 700.0, "got {}", d.as_km());
    }

    #[test]
    fn los_separation_shrinks_with_grazing_altitude() {
        let o = CircularOrbit::from_altitude(Length::from_km(550.0));
        let solid = o.max_los_separation(Length::ZERO);
        let atmo = o.max_los_separation(Length::from_km(80.0));
        assert!(atmo < solid);
        assert!(solid.as_degrees() > 40.0 && solid.as_degrees() < 60.0);
    }

    #[test]
    fn even_spacing_of_four_is_90_degrees() {
        assert!((CircularOrbit::even_spacing(4).as_degrees() - 90.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one satellite")]
    fn even_spacing_zero_panics() {
        let _ = CircularOrbit::even_spacing(0);
    }
}
