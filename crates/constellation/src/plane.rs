//! An orbital plane carrying a ring of evenly spaced satellites — the
//! formation of Fig. 10, where SµDCs fly in the same ring as the EO
//! satellites so optical ISLs can stay fixed.

use orbit::circular::CircularOrbit;
use orbit::kepler::{KeplerError, OrbitalElements};
use orbit::vec3::Vec3;
use units::{Angle, Length, Time};

/// A circular orbital plane with `n` satellites spaced evenly in phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrbitalPlane {
    orbit: CircularOrbit,
    inclination: Angle,
    raan: Angle,
    satellite_count: usize,
}

impl OrbitalPlane {
    /// Creates a plane.
    ///
    /// # Panics
    ///
    /// Panics if `satellite_count == 0`.
    pub fn new(
        orbit: CircularOrbit,
        inclination: Angle,
        raan: Angle,
        satellite_count: usize,
    ) -> Self {
        assert!(satellite_count > 0, "plane needs at least one satellite");
        Self {
            orbit,
            inclination,
            raan,
            satellite_count,
        }
    }

    /// The paper's reference constellation: 64 EO satellites in one ring
    /// at 550 km, 53° inclination.
    pub fn paper_reference() -> Self {
        Self::new(
            CircularOrbit::from_altitude(Length::from_km(550.0)),
            Angle::from_degrees(53.0),
            Angle::ZERO,
            64,
        )
    }

    /// The circular orbit shared by the plane.
    pub fn orbit(&self) -> CircularOrbit {
        self.orbit
    }

    /// Plane inclination (needed by eclipse-geometry consumers that
    /// rebuild the orbit normal, e.g. the sim's predictive policy).
    pub fn inclination(&self) -> Angle {
        self.inclination
    }

    /// Right ascension of the ascending node.
    pub fn raan(&self) -> Angle {
        self.raan
    }

    /// Number of satellites in the ring.
    pub fn satellite_count(&self) -> usize {
        self.satellite_count
    }

    /// Phase angle of satellite `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= satellite_count`.
    pub fn phase(&self, index: usize) -> Angle {
        assert!(index < self.satellite_count, "satellite index out of range");
        Angle::from_revolutions(index as f64 / self.satellite_count as f64)
    }

    /// Central-angle separation between ring neighbours.
    pub fn neighbor_separation(&self) -> Angle {
        CircularOrbit::even_spacing(self.satellite_count)
    }

    /// Chord (straight-line ISL) distance between satellites `hops` apart
    /// in the ring.
    pub fn link_distance(&self, hops: usize) -> Length {
        self.orbit
            .chord_distance(self.neighbor_separation() * hops as f64)
    }

    /// Whether two satellites `hops` apart have optical line of sight
    /// (clearing the 80 km grazing altitude).
    #[cfg(test)]
    pub fn hops_have_los(&self, hops: usize) -> bool {
        let sep = self.neighbor_separation() * hops as f64;
        sep.normalized().as_radians()
            <= self
                .orbit
                .max_los_separation(orbit::visibility::optical_grazing_altitude())
                .as_radians()
    }

    /// The largest neighbour offset with optical line of sight.
    #[cfg(test)]
    pub fn max_los_hops(&self) -> usize {
        (1..=self.satellite_count / 2)
            .take_while(|&h| self.hops_have_los(h))
            .last()
            .unwrap_or(0)
    }

    /// Orbital elements of satellite `index` (for propagation).
    ///
    /// # Errors
    ///
    /// Propagates [`KeplerError`] (cannot fail for a valid plane).
    pub fn elements(&self, index: usize) -> Result<OrbitalElements, KeplerError> {
        Ok(
            OrbitalElements::circular(self.orbit.radius(), self.inclination)?
                .with_raan(self.raan)
                .with_mean_anomaly(self.phase(index)),
        )
    }

    /// ECI position of satellite `index` at time `t` from epoch.
    ///
    /// # Errors
    ///
    /// Propagates [`KeplerError`] from the propagation.
    pub fn position(&self, index: usize, t: Time) -> Result<Vec3, KeplerError> {
        self.elements(index)?.position_at(t)
    }
}

impl std::fmt::Display for OrbitalPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} satellites at {} altitude, {} inclination",
            self.satellite_count,
            self.orbit.altitude(),
            self.inclination
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_reference_geometry() {
        let p = OrbitalPlane::paper_reference();
        assert_eq!(p.satellite_count(), 64);
        let d = p.link_distance(1);
        assert!(d.as_km() > 600.0 && d.as_km() < 700.0, "got {}", d.as_km());
    }

    #[test]
    fn link_distance_grows_with_hops_up_to_half_ring() {
        let p = OrbitalPlane::paper_reference();
        let mut prev = Length::ZERO;
        for hops in 1..=32 {
            let d = p.link_distance(hops);
            assert!(d > prev, "distance must grow through hop {hops}");
            prev = d;
        }
    }

    #[test]
    fn neighbours_have_los_but_far_satellites_do_not() {
        let p = OrbitalPlane::paper_reference();
        assert!(p.hops_have_los(1));
        assert!(p.hops_have_los(2));
        assert!(!p.hops_have_los(32), "opposite side is Earth-blocked");
        let max = p.max_los_hops();
        assert!(max >= 4 && max < 32, "max LOS hops {max}");
    }

    #[test]
    fn positions_form_a_ring() {
        let p = OrbitalPlane::paper_reference();
        let t = Time::from_secs(100.0);
        let r = p.orbit().radius().as_m();
        for i in (0..64).step_by(8) {
            let pos = p.position(i, t).unwrap();
            assert!((pos.norm() - r).abs() < 1.0);
        }
        // Adjacent satellites are one chord apart.
        let d01 = p
            .position(0, t)
            .unwrap()
            .distance(p.position(1, t).unwrap());
        assert!((d01 - p.link_distance(1).as_m()).abs() < 1.0);
    }

    #[test]
    fn phases_evenly_spaced() {
        let p = OrbitalPlane::new(
            CircularOrbit::from_altitude(Length::from_km(550.0)),
            Angle::from_degrees(53.0),
            Angle::ZERO,
            8,
        );
        for i in 0..8 {
            assert!((p.phase(i).as_degrees() - 45.0 * i as f64).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn phase_out_of_range_panics() {
        let _ = OrbitalPlane::paper_reference().phase(64);
    }
}
