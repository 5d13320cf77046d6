//! Propagators: pure two-body and two-body with secular J2 drift.
//!
//! The J2 zonal harmonic makes the ascending node and argument of perigee
//! precess. Sun-synchronous EO orbits exploit exactly this effect, and the
//! GEO star-topology analysis (Sec. 9) needs consistent multi-day
//! propagation, so the propagator applies the first-order secular rates.

use units::constants::{EARTH_EQUATORIAL_RADIUS_M, EARTH_J2};
use units::{Angle, Time};

use crate::kepler::{KeplerError, OrbitalElements};
use crate::vec3::Vec3;

/// Secular J2 drift rates for a given orbit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct J2Rates {
    /// Nodal precession rate (RAAN drift), rad/s.
    pub raan_rate: f64,
    /// Apsidal precession rate (argument-of-perigee drift), rad/s.
    pub arg_perigee_rate: f64,
    /// Correction to mean motion, rad/s.
    pub mean_motion_correction: f64,
}

/// Computes first-order secular J2 rates for the given elements.
pub fn j2_rates(elements: &OrbitalElements) -> J2Rates {
    let a = elements.semi_major_axis().as_m();
    let e = elements.eccentricity();
    let i = elements.inclination().as_radians();
    let n = elements.mean_motion_rad_per_s();
    let p = a * (1.0 - e * e);
    let factor = 1.5 * EARTH_J2 * (EARTH_EQUATORIAL_RADIUS_M / p).powi(2) * n;

    J2Rates {
        raan_rate: -factor * i.cos(),
        arg_perigee_rate: factor * (2.0 - 2.5 * i.sin().powi(2)),
        mean_motion_correction: factor * (1.0 - 1.5 * i.sin().powi(2)) * (1.0 - e * e).sqrt(),
    }
}

/// A propagator that advances orbital elements under two-body dynamics plus
/// secular J2 precession.
///
/// ```
/// use orbit::propagate::J2Propagator;
/// use orbit::OrbitalElements;
/// use units::{Angle, Length, Time};
///
/// let elements = OrbitalElements::circular(
///     Length::from_km(7_171.0),
///     Angle::from_degrees(98.6),
/// )?;
/// let prop = J2Propagator::new(elements);
/// let pos = prop.position_at(Time::from_hours(3.0))?;
/// assert!(pos.norm() > 7.0e6);
/// # Ok::<(), orbit::KeplerError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct J2Propagator {
    epoch_elements: OrbitalElements,
    rates: J2Rates,
}

impl J2Propagator {
    /// Creates a propagator from elements at epoch.
    pub fn new(epoch_elements: OrbitalElements) -> Self {
        let rates = j2_rates(&epoch_elements);
        Self {
            epoch_elements,
            rates,
        }
    }

    /// The epoch elements this propagator was built from.
    pub fn epoch_elements(&self) -> &OrbitalElements {
        &self.epoch_elements
    }

    /// Elements drifted to time `dt` after epoch.
    ///
    /// # Errors
    ///
    /// Propagates element-validation errors (cannot occur for valid epoch
    /// elements, since J2 drift does not change `a` or `e`).
    pub fn elements_at(&self, dt: Time) -> Result<OrbitalElements, KeplerError> {
        let t = dt.as_secs();
        let e = &self.epoch_elements;
        OrbitalElements::new(
            e.semi_major_axis(),
            e.eccentricity(),
            e.inclination(),
            Angle::from_radians(e.raan().as_radians() + self.rates.raan_rate * t).normalized(),
            Angle::from_radians(e.arg_perigee().as_radians() + self.rates.arg_perigee_rate * t)
                .normalized(),
            Angle::from_radians(
                e.mean_anomaly_epoch().as_radians()
                    + (e.mean_motion_rad_per_s() + self.rates.mean_motion_correction) * t,
            )
            .normalized(),
        )
    }

    /// ECI position and velocity at time `dt` after epoch.
    ///
    /// # Errors
    ///
    /// Returns [`KeplerError::NoConvergence`] if the Kepler solver fails.
    pub fn state_at(&self, dt: Time) -> Result<(Vec3, Vec3), KeplerError> {
        self.elements_at(dt)?.state_at(Time::ZERO)
    }

    /// ECI position at time `dt` after epoch.
    ///
    /// # Errors
    ///
    /// Returns [`KeplerError::NoConvergence`] if the Kepler solver fails.
    pub fn position_at(&self, dt: Time) -> Result<Vec3, KeplerError> {
        Ok(self.state_at(dt)?.0)
    }
}

/// Pure two-body propagation helper: samples positions along an orbit at a
/// fixed time step. Returns `samples` positions covering `[0, span)`.
///
/// # Errors
///
/// Propagates [`KeplerError`] from the underlying solver.
///
/// # Panics
///
/// Panics if `samples == 0`.
pub fn sample_positions(
    elements: &OrbitalElements,
    span: Time,
    samples: usize,
) -> Result<Vec<Vec3>, KeplerError> {
    assert!(samples > 0, "must request at least one sample");
    let step = span.as_secs() / samples as f64;
    (0..samples)
        .map(|i| elements.position_at(Time::from_secs(i as f64 * step)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use units::Length;

    fn sso() -> OrbitalElements {
        OrbitalElements::circular(Length::from_km(7_171.0), Angle::from_degrees(98.6)).unwrap()
    }

    #[test]
    fn sso_raan_precesses_eastward_about_one_degree_per_day() {
        // Sun-synchronous design point: ≈ +0.9856°/day nodal precession.
        let rates = j2_rates(&sso());
        let deg_per_day = rates.raan_rate.to_degrees() * 86_400.0;
        assert!(
            deg_per_day > 0.9 && deg_per_day < 1.1,
            "got {deg_per_day} deg/day"
        );
    }

    #[test]
    fn equatorial_prograde_orbit_regresses() {
        let elements =
            OrbitalElements::circular(Length::from_km(6_921.0), Angle::from_degrees(10.0)).unwrap();
        let rates = j2_rates(&elements);
        assert!(rates.raan_rate < 0.0, "prograde orbits regress westward");
    }

    #[test]
    fn polar_orbit_has_no_nodal_precession() {
        let elements =
            OrbitalElements::circular(Length::from_km(6_921.0), Angle::from_degrees(90.0)).unwrap();
        let rates = j2_rates(&elements);
        assert!(rates.raan_rate.abs() < 1e-12);
    }

    #[test]
    fn propagated_elements_keep_shape() {
        let prop = J2Propagator::new(sso());
        let later = prop.elements_at(Time::from_days(10.0)).unwrap();
        assert_eq!(later.semi_major_axis(), sso().semi_major_axis());
        assert_eq!(later.eccentricity(), sso().eccentricity());
        assert_eq!(later.inclination(), sso().inclination());
        assert!(later.raan() != sso().raan(), "RAAN should have drifted");
    }

    #[test]
    fn j2_and_two_body_agree_at_epoch() {
        let prop = J2Propagator::new(sso());
        let p_j2 = prop.position_at(Time::ZERO).unwrap();
        let p_tb = sso().position_at(Time::ZERO).unwrap();
        assert!(p_j2.distance(p_tb) < 1e-6);
    }

    #[test]
    fn sample_positions_returns_requested_count() {
        let samples = sample_positions(&sso(), Time::from_hours(2.0), 16).unwrap();
        assert_eq!(samples.len(), 16);
        for p in &samples {
            assert!((p.norm() - 7_171_000.0).abs() < 1_000.0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn sample_positions_zero_panics() {
        let _ = sample_positions(&sso(), Time::from_hours(1.0), 0);
    }
}
