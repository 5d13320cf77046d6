//! Ground tracks and sub-satellite points: ECI→geodetic conversion with
//! Earth rotation, so the Earth model can look up what lies under each
//! satellite.

use units::constants::EARTH_ROTATION_RAD_PER_S;
use units::{Angle, Time};

use crate::vec3::Vec3;

/// A geodetic point on the (spherical) Earth model.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct GeoPoint {
    /// Latitude, positive north.
    pub latitude: Angle,
    /// Longitude, positive east, normalised to `(-180°, 180°]`.
    pub longitude: Angle,
}

impl GeoPoint {
    /// Creates a point from degrees latitude/longitude.
    pub fn from_degrees(lat: f64, lon: f64) -> Self {
        Self {
            latitude: Angle::from_degrees(lat),
            longitude: Angle::from_degrees(lon).normalized_signed(),
        }
    }

    /// ECEF position of this point on the spherical Earth surface.
    #[cfg(test)]
    pub fn to_ecef(&self) -> Vec3 {
        let lat = self.latitude.as_radians();
        let lon = self.longitude.as_radians();
        Vec3::new(
            units::constants::EARTH_RADIUS_M * lat.cos() * lon.cos(),
            units::constants::EARTH_RADIUS_M * lat.cos() * lon.sin(),
            units::constants::EARTH_RADIUS_M * lat.sin(),
        )
    }
}

impl std::fmt::Display for GeoPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "({:.3}°, {:.3}°)",
            self.latitude.as_degrees(),
            self.longitude.as_degrees()
        )
    }
}

/// Converts an ECI position at elapsed time `t` (since the epoch at which
/// ECI and ECEF were aligned) to the sub-satellite geodetic point,
/// accounting for Earth's rotation.
pub fn subsatellite_point(position_eci: Vec3, elapsed: Time) -> GeoPoint {
    let theta = EARTH_ROTATION_RAD_PER_S * elapsed.as_secs();
    let ecef = position_eci.rotated_z(-theta);
    let r = ecef.norm();
    GeoPoint {
        latitude: Angle::from_radians((ecef.z / r).clamp(-1.0, 1.0).asin()),
        longitude: Angle::from_radians(ecef.y.atan2(ecef.x)).normalized_signed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kepler::{KeplerError, OrbitalElements};
    use units::Length;

    /// Sub-satellite points at `samples` uniform steps over `span`.
    fn ground_track(
        elements: &OrbitalElements,
        span: Time,
        samples: usize,
    ) -> Result<Vec<GeoPoint>, KeplerError> {
        assert!(samples > 0, "must request at least one sample");
        let step = span.as_secs() / samples as f64;
        (0..samples)
            .map(|i| {
                let t = Time::from_secs(i as f64 * step);
                Ok(subsatellite_point(elements.position_at(t)?, t))
            })
            .collect()
    }

    #[test]
    fn subsatellite_point_of_equatorial_orbit_stays_on_equator() {
        let elements = OrbitalElements::circular(Length::from_km(6_921.0), Angle::ZERO).unwrap();
        for i in 0..10 {
            let t = Time::from_secs(i as f64 * 500.0);
            let p = subsatellite_point(elements.position_at(t).unwrap(), t);
            assert!(p.latitude.as_degrees().abs() < 1e-6);
        }
    }

    #[test]
    fn polar_orbit_reaches_high_latitudes() {
        let elements =
            OrbitalElements::circular(Length::from_km(6_921.0), Angle::from_degrees(90.0)).unwrap();
        let track = ground_track(&elements, elements.period(), 100).unwrap();
        let max_lat = track
            .iter()
            .map(|p| p.latitude.as_degrees())
            .fold(f64::MIN, f64::max);
        assert!(max_lat > 89.0, "polar orbit peaked at {max_lat}°");
    }

    #[test]
    fn ground_track_drifts_west_between_revolutions() {
        // Earth rotates under the orbit: successive equator crossings move
        // westward by ~period × rotation rate.
        let elements =
            OrbitalElements::circular(Length::from_km(6_921.0), Angle::from_degrees(51.6)).unwrap();
        let t0 = Time::ZERO;
        let t1 = elements.period();
        let p0 = subsatellite_point(elements.position_at(t0).unwrap(), t0);
        let p1 = subsatellite_point(elements.position_at(t1).unwrap(), t1);
        let dlon = (p1.longitude - p0.longitude)
            .normalized_signed()
            .as_degrees();
        let expected = -(elements.period().as_secs() * EARTH_ROTATION_RAD_PER_S).to_degrees();
        assert!(
            (dlon - expected).abs() < 0.5,
            "drift {dlon}°, expected {expected}°"
        );
    }

    #[test]
    fn ecef_round_trips_through_subsatellite_point() {
        let p = GeoPoint::from_degrees(35.0, -120.0);
        let back = subsatellite_point(p.to_ecef(), Time::ZERO);
        assert!((back.latitude.as_degrees() - 35.0).abs() < 1e-9);
        assert!((back.longitude.as_degrees() + 120.0).abs() < 1e-9);
    }
}
