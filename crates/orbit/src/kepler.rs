//! Classical orbital elements, Kepler's equation, and conversion to and
//! from Cartesian state vectors.
//!
//! This is the propagation core used by everything that needs actual
//! satellite positions: line-of-sight checks, ground tracks, the
//! discrete-event constellation simulation, and the GEO star-topology
//! analysis.

use units::constants::EARTH_MU_M3_PER_S2;
use units::{Angle, Length, Time};

use crate::vec3::Vec3;

/// Error produced by orbital-element constructors and solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum KeplerError {
    /// Eccentricity outside `[0, 1)`; only closed orbits are supported.
    UnsupportedEccentricity(f64),
    /// Semi-major axis not strictly positive, or below Earth's surface.
    InvalidSemiMajorAxis(f64),
    /// The Kepler-equation solver failed to converge (should not happen for
    /// valid closed orbits; reported rather than silently returning junk).
    NoConvergence {
        /// Mean anomaly that failed, radians.
        mean_anomaly: f64,
        /// Orbit eccentricity.
        eccentricity: f64,
    },
}

impl std::fmt::Display for KeplerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnsupportedEccentricity(e) => {
                write!(f, "eccentricity {e} outside supported range [0, 1)")
            }
            Self::InvalidSemiMajorAxis(a) => {
                write!(f, "semi-major axis {a} m is not a valid closed orbit")
            }
            Self::NoConvergence {
                mean_anomaly,
                eccentricity,
            } => write!(
                f,
                "kepler solver failed to converge (M = {mean_anomaly}, e = {eccentricity})"
            ),
        }
    }
}

impl std::error::Error for KeplerError {}

/// The three anomalies describing position along an orbit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Anomaly {
    /// Mean anomaly: linear in time.
    Mean(Angle),
    /// Eccentric anomaly: the geometric auxiliary angle.
    Eccentric(Angle),
    /// True anomaly: the actual polar angle from perigee.
    True(Angle),
}

/// Classical (Keplerian) orbital elements for a closed Earth orbit.
///
/// ```
/// use orbit::OrbitalElements;
/// use units::{Angle, Length};
///
/// let orbit = OrbitalElements::circular(
///     Length::from_km(6_371.0 + 550.0),
///     Angle::from_degrees(53.0),
/// )?;
/// assert!(orbit.period().as_minutes() < 100.0);
/// # Ok::<(), orbit::KeplerError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrbitalElements {
    semi_major_axis: Length,
    eccentricity: f64,
    inclination: Angle,
    raan: Angle,
    arg_perigee: Angle,
    mean_anomaly_epoch: Angle,
}

impl OrbitalElements {
    /// Creates a full set of elements.
    ///
    /// # Errors
    ///
    /// Returns [`KeplerError::UnsupportedEccentricity`] for `e ∉ [0, 1)` and
    /// [`KeplerError::InvalidSemiMajorAxis`] for non-positive semi-major
    /// axes.
    pub fn new(
        semi_major_axis: Length,
        eccentricity: f64,
        inclination: Angle,
        raan: Angle,
        arg_perigee: Angle,
        mean_anomaly_epoch: Angle,
    ) -> Result<Self, KeplerError> {
        if !(0.0..1.0).contains(&eccentricity) || !eccentricity.is_finite() {
            return Err(KeplerError::UnsupportedEccentricity(eccentricity));
        }
        if semi_major_axis.as_m() <= 0.0 || !semi_major_axis.is_finite() {
            return Err(KeplerError::InvalidSemiMajorAxis(semi_major_axis.as_m()));
        }
        Ok(Self {
            semi_major_axis,
            eccentricity,
            inclination,
            raan,
            arg_perigee,
            mean_anomaly_epoch,
        })
    }

    /// Convenience constructor for a circular orbit of the given radius and
    /// inclination, with RAAN, argument of perigee, and epoch anomaly zero.
    ///
    /// # Errors
    ///
    /// Returns [`KeplerError::InvalidSemiMajorAxis`] if `radius` is not
    /// positive.
    pub fn circular(radius: Length, inclination: Angle) -> Result<Self, KeplerError> {
        Self::new(
            radius,
            0.0,
            inclination,
            Angle::ZERO,
            Angle::ZERO,
            Angle::ZERO,
        )
    }

    /// Returns a copy with a different mean anomaly at epoch (used to phase
    /// satellites around a shared orbit).
    pub fn with_mean_anomaly(mut self, anomaly: Angle) -> Self {
        self.mean_anomaly_epoch = anomaly;
        self
    }

    /// Returns a copy with a different RAAN (used to spread orbital planes).
    pub fn with_raan(mut self, raan: Angle) -> Self {
        self.raan = raan;
        self
    }

    /// Orbital period `T = 2π sqrt(a³/µ)`.
    pub fn period(&self) -> Time {
        let a = self.semi_major_axis.as_m();
        Time::from_secs(std::f64::consts::TAU * (a * a * a / EARTH_MU_M3_PER_S2).sqrt())
    }

    /// Mean motion `n = sqrt(µ/a³)` in radians per second.
    pub fn mean_motion_rad_per_s(&self) -> f64 {
        let a = self.semi_major_axis.as_m();
        (EARTH_MU_M3_PER_S2 / (a * a * a)).sqrt()
    }

    /// Perigee radius `a(1-e)`.
    #[cfg(test)]
    pub fn perigee_radius(&self) -> Length {
        self.semi_major_axis * (1.0 - self.eccentricity)
    }

    /// Apogee radius `a(1+e)`.
    #[cfg(test)]
    pub fn apogee_radius(&self) -> Length {
        self.semi_major_axis * (1.0 + self.eccentricity)
    }

    /// Mean anomaly after coasting `dt` from epoch.
    pub fn mean_anomaly_at(&self, dt: Time) -> Angle {
        Angle::from_radians(
            self.mean_anomaly_epoch.as_radians() + self.mean_motion_rad_per_s() * dt.as_secs(),
        )
        .normalized()
    }

    /// Converts an anomaly of any kind to all three kinds.
    ///
    /// # Errors
    ///
    /// Returns [`KeplerError::NoConvergence`] if the Kepler-equation solver
    /// fails (not expected for valid elements).
    pub fn resolve_anomaly(&self, anomaly: Anomaly) -> Result<ResolvedAnomaly, KeplerError> {
        let e = self.eccentricity;
        let (mean, ecc, true_) = match anomaly {
            Anomaly::Mean(m) => {
                let m = m.normalized();
                let ea = solve_kepler(m.as_radians(), e)?;
                (
                    m,
                    Angle::from_radians(ea).normalized(),
                    eccentric_to_true(ea, e),
                )
            }
            Anomaly::Eccentric(ea) => {
                let ea_rad = ea.normalized().as_radians();
                (
                    Angle::from_radians(ea_rad - e * ea_rad.sin()).normalized(),
                    ea.normalized(),
                    eccentric_to_true(ea_rad, e),
                )
            }
            Anomaly::True(nu) => {
                let nu_rad = nu.normalized().as_radians();
                let ea = true_to_eccentric(nu_rad, e);
                (
                    Angle::from_radians(ea - e * ea.sin()).normalized(),
                    Angle::from_radians(ea).normalized(),
                    nu.normalized(),
                )
            }
        };
        Ok(ResolvedAnomaly {
            mean,
            eccentric: ecc,
            true_anomaly: true_,
        })
    }

    /// ECI position and velocity at a time offset `dt` from epoch.
    ///
    /// This is pure two-body motion.
    ///
    /// # Errors
    ///
    /// Returns [`KeplerError::NoConvergence`] if the Kepler solver fails.
    pub fn state_at(&self, dt: Time) -> Result<(Vec3, Vec3), KeplerError> {
        let resolved = self.resolve_anomaly(Anomaly::Mean(self.mean_anomaly_at(dt)))?;
        Ok(self.state_at_true_anomaly(resolved.true_anomaly))
    }

    /// ECI position at a time offset `dt` from epoch.
    ///
    /// # Errors
    ///
    /// Returns [`KeplerError::NoConvergence`] if the Kepler solver fails.
    pub fn position_at(&self, dt: Time) -> Result<Vec3, KeplerError> {
        Ok(self.state_at(dt)?.0)
    }

    /// ECI position and velocity at a given true anomaly.
    pub fn state_at_true_anomaly(&self, nu: Angle) -> (Vec3, Vec3) {
        let e = self.eccentricity;
        let a = self.semi_major_axis.as_m();
        let p = a * (1.0 - e * e);
        let r = p / (1.0 + e * nu.cos());

        // Perifocal frame: x toward perigee, z along angular momentum.
        let (sin_nu, cos_nu) = (nu.sin(), nu.cos());
        let r_pf = Vec3::new(r * cos_nu, r * sin_nu, 0.0);
        let vf = (EARTH_MU_M3_PER_S2 / p).sqrt();
        let v_pf = Vec3::new(-vf * sin_nu, vf * (e + cos_nu), 0.0);

        (self.perifocal_to_eci(r_pf), self.perifocal_to_eci(v_pf))
    }

    /// Rotates a perifocal-frame vector into ECI via the 3-1-3 rotation
    /// (RAAN, inclination, argument of perigee).
    fn perifocal_to_eci(&self, v: Vec3) -> Vec3 {
        v.rotated_z(self.arg_perigee.as_radians())
            .rotated_x(self.inclination.as_radians())
            .rotated_z(self.raan.as_radians())
    }
}

/// The same orbital position expressed as all three anomalies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResolvedAnomaly {
    /// Mean anomaly.
    pub mean: Angle,
    /// Eccentric anomaly.
    pub eccentric: Angle,
    /// True anomaly.
    pub true_anomaly: Angle,
}

/// Solves Kepler's equation `M = E - e sin E` for the eccentric anomaly `E`
/// (radians), given mean anomaly `m` (radians) and eccentricity `e`.
///
/// Uses Newton–Raphson with a third-order starter, falling back to
/// bisection if Newton stalls (very high eccentricities).
///
/// # Errors
///
/// Returns [`KeplerError::NoConvergence`] if 64 Newton iterations plus the
/// bisection fallback both fail to reach `1e-12` residual.
pub fn solve_kepler(m: f64, e: f64) -> Result<f64, KeplerError> {
    if !(0.0..1.0).contains(&e) {
        return Err(KeplerError::UnsupportedEccentricity(e));
    }
    let m = m.rem_euclid(std::f64::consts::TAU);
    // `e` is validated non-negative above, so this is the exact
    // circular-orbit case without a float equality.
    if e <= 0.0 {
        return Ok(m);
    }

    // Starter from Danby: E0 = M + 0.85 e sign(sin M).
    let mut ea = m + 0.85 * e * m.sin().signum();
    for _ in 0..64 {
        let f = ea - e * ea.sin() - m;
        if f.abs() < 1e-13 {
            return Ok(ea.rem_euclid(std::f64::consts::TAU));
        }
        let fp = 1.0 - e * ea.cos();
        ea -= f / fp;
    }

    // Bisection fallback on [M - e, M + e] which always brackets the root.
    let (mut lo, mut hi) = (m - e - 1e-9, m + e + 1e-9);
    let g = |x: f64| x - e * x.sin() - m;
    if g(lo) * g(hi) > 0.0 {
        return Err(KeplerError::NoConvergence {
            mean_anomaly: m,
            eccentricity: e,
        });
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if g(mid).abs() < 1e-12 {
            return Ok(mid.rem_euclid(std::f64::consts::TAU));
        }
        if g(lo) * g(mid) <= 0.0 {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Err(KeplerError::NoConvergence {
        mean_anomaly: m,
        eccentricity: e,
    })
}

/// Converts eccentric anomaly (radians) to true anomaly.
fn eccentric_to_true(ea: f64, e: f64) -> Angle {
    let beta = e / (1.0 + (1.0 - e * e).sqrt());
    Angle::from_radians(ea + 2.0 * (beta * ea.sin() / (1.0 - beta * ea.cos())).atan()).normalized()
}

/// Converts true anomaly (radians) to eccentric anomaly (radians).
fn true_to_eccentric(nu: f64, e: f64) -> f64 {
    let ea = 2.0 * ((nu / 2.0).tan() * ((1.0 - e) / (1.0 + e)).sqrt()).atan();
    ea.rem_euclid(std::f64::consts::TAU)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::prop;

    fn leo() -> OrbitalElements {
        OrbitalElements::new(
            Length::from_km(6_921.0),
            0.001,
            Angle::from_degrees(53.0),
            Angle::from_degrees(30.0),
            Angle::from_degrees(40.0),
            Angle::from_degrees(10.0),
        )
        .unwrap()
    }

    #[test]
    fn circular_boundary_returns_mean_anomaly_exactly() {
        // e == 0.0 takes the restructured `e <= 0.0` fast path and must
        // stay bit-exact; the smallest positive e must converge to
        // essentially the same answer, so the guard has no seam.
        for m in [0.0, 0.5, 1.0, 3.0, std::f64::consts::TAU - 1e-9] {
            let exact = solve_kepler(m, 0.0).unwrap();
            assert_eq!(exact.to_bits(), m.to_bits(), "m={m}");
            let near = solve_kepler(m, f64::MIN_POSITIVE).unwrap();
            assert!((near - m).abs() < 1e-12, "m={m} near={near}");
        }
        let tiny = solve_kepler(1.0, 1e-15).unwrap();
        assert!((tiny - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_invalid_eccentricity() {
        let err = OrbitalElements::new(
            Length::from_km(7000.0),
            1.2,
            Angle::ZERO,
            Angle::ZERO,
            Angle::ZERO,
            Angle::ZERO,
        )
        .unwrap_err();
        assert!(matches!(err, KeplerError::UnsupportedEccentricity(_)));
        assert!(err.to_string().contains("eccentricity"));
    }

    #[test]
    fn rejects_nonpositive_axis() {
        let err = OrbitalElements::circular(Length::from_m(-1.0), Angle::ZERO).unwrap_err();
        assert!(matches!(err, KeplerError::InvalidSemiMajorAxis(_)));
    }

    #[test]
    fn kepler_solver_identity_for_circular() {
        for m in [0.0, 0.5, 3.0, 6.0] {
            assert!((solve_kepler(m, 0.0).unwrap() - m).abs() < 1e-12);
        }
    }

    #[test]
    fn kepler_solver_satisfies_equation() {
        for &e in &[0.01, 0.3, 0.7, 0.95, 0.999] {
            for i in 0..32 {
                let m = i as f64 * std::f64::consts::TAU / 32.0;
                let ea = solve_kepler(m, e).unwrap();
                let back = (ea - e * ea.sin()).rem_euclid(std::f64::consts::TAU);
                let diff = (back - m)
                    .abs()
                    .min(std::f64::consts::TAU - (back - m).abs());
                assert!(diff < 1e-9, "e={e} m={m} ea={ea} back={back}");
            }
        }
    }

    #[test]
    fn anomaly_round_trips() {
        let orbit = leo();
        let m = Angle::from_degrees(123.0);
        let r = orbit.resolve_anomaly(Anomaly::Mean(m)).unwrap();
        let r2 = orbit
            .resolve_anomaly(Anomaly::True(r.true_anomaly))
            .unwrap();
        assert!((r2.mean.as_degrees() - 123.0).abs() < 1e-8);
        let r3 = orbit
            .resolve_anomaly(Anomaly::Eccentric(r.eccentric))
            .unwrap();
        assert!((r3.mean.as_degrees() - 123.0).abs() < 1e-8);
    }

    #[test]
    fn position_radius_matches_conic_equation() {
        let orbit = leo();
        let (pos, _) = orbit.state_at(Time::from_secs(1234.0)).unwrap();
        let r = pos.norm_length();
        assert!(r >= orbit.perigee_radius() * 0.999_999);
        assert!(r <= orbit.apogee_radius() * 1.000_001);
    }

    #[test]
    fn state_after_full_period_repeats() {
        let orbit = leo();
        let (p0, v0) = orbit.state_at(Time::ZERO).unwrap();
        let (p1, v1) = orbit.state_at(orbit.period()).unwrap();
        assert!(p0.distance(p1) < 1.0, "position drift {}", p0.distance(p1));
        assert!((v0 - v1).norm() < 0.01);
    }

    #[test]
    fn energy_is_conserved_along_orbit() {
        let orbit = leo();
        let mu = EARTH_MU_M3_PER_S2;
        let mut first = None;
        for i in 0..20 {
            let dt = Time::from_secs(i as f64 * 300.0);
            let (p, v) = orbit.state_at(dt).unwrap();
            let energy = v.norm_squared() / 2.0 - mu / p.norm();
            let f = *first.get_or_insert(energy);
            assert!(
                ((energy - f) / f).abs() < 1e-9,
                "energy drifted at step {i}"
            );
        }
    }

    #[test]
    fn circular_orbit_speed_is_constant() {
        let orbit =
            OrbitalElements::circular(Length::from_km(7000.0), Angle::from_degrees(98.0)).unwrap();
        let (_, v0) = orbit.state_at(Time::ZERO).unwrap();
        let (_, v1) = orbit.state_at(Time::from_secs(2000.0)).unwrap();
        assert!((v0.norm() - v1.norm()).abs() < 1e-6);
    }

    #[test]
    fn angular_momentum_direction_matches_inclination() {
        let orbit = leo();
        let (p, v) = orbit.state_at(Time::from_secs(50.0)).unwrap();
        let h = p.cross(v);
        let inc = (h.z / h.norm()).acos().to_degrees();
        assert!((inc - 53.0).abs() < 1e-6);
    }

    #[test]
    fn solver_converges_everywhere() {
        prop::check("solver_converges_everywhere", 256, |g| {
            let m = g.draw(0.0..std::f64::consts::TAU);
            let e = g.draw(0.0f64..0.99);

            let ea = solve_kepler(m, e).unwrap();
            let back = (ea - e * ea.sin()).rem_euclid(std::f64::consts::TAU);
            let diff = (back - m).abs();
            let diff = diff.min(std::f64::consts::TAU - diff);
            assert!(diff < 1e-8);
        });
    }
}
