//! Eclipse (Earth-shadow) modelling.
//!
//! SµDC power systems must be sized for eclipse: the paper notes LEO
//! satellites spend ~1/3 of each orbit in shadow while GEO satellites are
//! eclipsed only briefly around the equinoxes (Sec. 9). This module
//! provides the orbit-plane beta angle and closed-form cylindrical-shadow
//! eclipse fractions for circular orbits.

use units::constants::EARTH_RADIUS_M;
use units::Angle;

#[cfg(test)]
use units::Length;

use crate::circular::CircularOrbit;
use crate::vec3::Vec3;

/// Mean obliquity of the ecliptic (axial tilt), radians.
const OBLIQUITY_RAD: f64 = 23.439_f64 * std::f64::consts::PI / 180.0;

/// Unit vector from Earth toward the Sun for a given fraction of the year
/// (0 = March equinox), using a circular ecliptic.
///
/// The ECI frame here has +X toward the March-equinox sun direction and +Z
/// along Earth's rotation axis.
pub fn sun_direction(year_fraction: f64) -> Vec3 {
    let lon = year_fraction * std::f64::consts::TAU; // ecliptic longitude
    let (s, c) = lon.sin_cos();
    // Ecliptic-plane vector rotated by obliquity about +X.
    Vec3::new(c, s, 0.0).rotated_x(OBLIQUITY_RAD)
}

/// Beta angle: the angle between the sun vector and the orbital plane.
///
/// `beta = asin(sun · h_hat)` where `h_hat` is the orbit-normal unit
/// vector. High |beta| orbits (e.g. dawn/dusk SSO) see little or no
/// eclipse.
pub fn beta_angle(orbit_normal: Vec3, sun: Vec3) -> Angle {
    let s = orbit_normal
        .normalized()
        .dot(sun.normalized())
        .clamp(-1.0, 1.0);
    Angle::from_radians(s.asin())
}

/// Fraction of a circular orbit spent in Earth's cylindrical shadow, for a
/// given orbit radius and beta angle.
///
/// Standard result: with `sin(rho) = R_e / r` the shadow half-angle seen
/// along the orbit satisfies
/// `cos(phi) = sqrt(1 - (R_e/r)^2) / cos(beta)`; the eclipsed fraction is
/// `phi / pi`, zero when `cos(beta)` is too small for any shadow crossing.
pub fn eclipse_fraction(orbit: CircularOrbit, beta: Angle) -> f64 {
    let ratio = EARTH_RADIUS_M / orbit.radius().as_m();
    let horizon = (1.0 - ratio * ratio).sqrt();
    let cos_beta = beta.cos().abs();
    if cos_beta <= horizon {
        return 0.0; // orbit plane tilted enough that shadow is missed
    }
    let phi = (horizon / cos_beta).clamp(-1.0, 1.0).acos();
    phi / std::f64::consts::PI
}

/// Summary of a year of eclipse exposure for a circular orbit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnualEclipse {
    /// Mean eclipsed fraction of each orbit over the year.
    pub mean_fraction: f64,
    /// Worst (longest) single-orbit eclipse fraction over the year.
    pub max_fraction: f64,
    /// Number of sampled days with any eclipse at all.
    pub eclipse_days: usize,
    /// Days sampled.
    pub days_sampled: usize,
}

/// Samples one year of sun geometry (daily) for a circular orbit whose
/// plane is described by its inertially fixed normal vector, and summarises
/// eclipse exposure.
///
/// For LEO this confirms the paper's "~1/3 of time eclipsed"; for GEO it
/// reproduces the short equinox eclipse seasons.
pub fn annual_eclipse(orbit: CircularOrbit, orbit_normal: Vec3) -> AnnualEclipse {
    let days = 365usize;
    let mut sum = 0.0;
    let mut max = 0.0f64;
    let mut eclipse_days = 0usize;
    for d in 0..days {
        let sun = sun_direction(d as f64 / days as f64);
        let beta = beta_angle(orbit_normal, sun);
        let f = eclipse_fraction(orbit, beta);
        sum += f;
        max = max.max(f);
        if f > 0.0 {
            eclipse_days += 1;
        }
    }
    AnnualEclipse {
        mean_fraction: sum / days as f64,
        max_fraction: max,
        eclipse_days,
        days_sampled: days,
    }
}

/// Extra power-generation margin required to deliver `continuous_load`
/// through eclipse, as a multiplier on the solar-array size.
///
/// Energy balance over one orbit: the array must collect in the sunlit
/// fraction `(1 - f)` the energy spent over the whole orbit, so the array
/// must be oversized by `1 / (1 - f)` (battery losses ignored, as the paper
/// does).
///
/// # Panics
///
/// Panics if `eclipse_fraction >= 1`, which cannot occur for real orbits.
pub fn array_oversize_factor(eclipse_fraction: f64) -> f64 {
    assert!(
        (0.0..1.0).contains(&eclipse_fraction),
        "eclipse fraction must be in [0, 1)"
    );
    1.0 / (1.0 - eclipse_fraction)
}

/// Convenience: the orbit-normal unit vector for a circular orbit with the
/// given inclination and RAAN.
pub fn orbit_normal(inclination: Angle, raan: Angle) -> Vec3 {
    Vec3::Z
        .rotated_x(inclination.as_radians())
        .rotated_z(raan.as_radians())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sun_direction_is_unit_and_tilted() {
        for f in [0.0, 0.25, 0.5, 0.75] {
            let s = sun_direction(f);
            assert!((s.norm() - 1.0).abs() < 1e-12);
        }
        // Summer solstice: sun has max +Z component equal to sin(obliquity).
        let solstice = sun_direction(0.25);
        assert!((solstice.z - OBLIQUITY_RAD.sin()).abs() < 1e-9);
        // Equinox: sun in equatorial plane.
        assert!(sun_direction(0.0).z.abs() < 1e-12);
    }

    #[test]
    fn leo_eclipse_fraction_near_one_third_at_zero_beta() {
        let orbit = CircularOrbit::from_altitude(Length::from_km(550.0));
        let f = eclipse_fraction(orbit, Angle::ZERO);
        assert!(f > 0.3 && f < 0.42, "got {f}");
    }

    #[test]
    fn geo_eclipse_fraction_small_even_at_zero_beta() {
        let geo = CircularOrbit::geostationary();
        let f = eclipse_fraction(geo, Angle::ZERO);
        // Max GEO eclipse ~72 min of a 24 h day ≈ 5%.
        assert!(f > 0.02 && f < 0.06, "got {f}");
    }

    #[test]
    fn high_beta_eliminates_eclipse() {
        let orbit = CircularOrbit::from_altitude(Length::from_km(550.0));
        assert_eq!(eclipse_fraction(orbit, Angle::from_degrees(89.0)), 0.0);
    }

    #[test]
    fn eclipse_fraction_monotone_in_beta() {
        let orbit = CircularOrbit::from_altitude(Length::from_km(550.0));
        let mut prev = f64::INFINITY;
        for deg in 0..90 {
            let f = eclipse_fraction(orbit, Angle::from_degrees(deg as f64));
            assert!(f <= prev + 1e-12, "fraction should not grow with beta");
            prev = f;
        }
    }

    #[test]
    fn annual_leo_mean_near_one_third_for_equatorialish_plane() {
        let orbit = CircularOrbit::from_altitude(Length::from_km(550.0));
        let normal = orbit_normal(Angle::from_degrees(10.0), Angle::ZERO);
        let a = annual_eclipse(orbit, normal);
        assert!(
            a.mean_fraction > 0.25 && a.mean_fraction < 0.40,
            "mean {}",
            a.mean_fraction
        );
        assert_eq!(a.eclipse_days, a.days_sampled);
    }

    #[test]
    fn annual_geo_has_short_equinox_seasons() {
        let geo = CircularOrbit::geostationary();
        let normal = orbit_normal(Angle::ZERO, Angle::ZERO); // equatorial
        let a = annual_eclipse(geo, normal);
        // GEO: eclipse seasons total ~90 days/year (two ~45-day windows).
        assert!(
            a.eclipse_days > 40 && a.eclipse_days < 130,
            "eclipse days {}",
            a.eclipse_days
        );
        assert!(a.mean_fraction < 0.02);
        // Max daily eclipse < 80 min.
        let max_minutes = a.max_fraction * geo.period().as_minutes();
        assert!(max_minutes < 80.0, "max daily eclipse {max_minutes} min");
    }

    #[test]
    fn dawn_dusk_sso_sees_little_eclipse() {
        // Dawn/dusk orbit: plane normal near the sun line at equinox.
        let orbit = CircularOrbit::from_altitude(Length::from_km(800.0));
        let normal = Vec3::X; // pointing at the equinox sun
        let sun = sun_direction(0.0);
        let beta = beta_angle(normal, sun);
        assert!(beta.as_degrees() > 85.0);
        assert_eq!(eclipse_fraction(orbit, beta), 0.0);
    }

    #[test]
    fn oversize_factor_for_one_third_eclipse_is_1_5() {
        assert!((array_oversize_factor(1.0 / 3.0) - 1.5).abs() < 1e-12);
        assert_eq!(array_oversize_factor(0.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "eclipse fraction")]
    fn oversize_factor_rejects_full_eclipse() {
        let _ = array_oversize_factor(1.0);
    }
}
