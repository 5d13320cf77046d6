//! Line-of-sight and ground-station visibility.
//!
//! Three geometric questions drive the paper's communication analysis:
//!
//! 1. Can two satellites see each other (ISL feasibility)? — Earth (plus a
//!    grazing-altitude margin for optical links that must avoid deep
//!    atmosphere) may block the ray ([`has_line_of_sight`]).
//! 2. How long does a ground-station pass last and how many passes per day
//!    does a LEO satellite get ([`PassGeometry`])? — this sets the number of
//!    downlink channels per revolution in Fig. 5.
//! 3. Does a LEO satellite always see one of three GEO SµDCs spaced 120°
//!    apart (Sec. 9, Fig. 15)? — checked by sampling LOS against the
//!    blocking sphere ([`geo_star_coverage`]).

use units::constants::EARTH_RADIUS_M;
use units::{Angle, Length, Time};

use crate::circular::CircularOrbit;
use crate::vec3::Vec3;

/// Grazing altitude conventionally used for optical inter-satellite links:
/// rays passing below ~80 km suffer severe atmospheric turbulence and
/// absorption (Sec. 8 discusses turbulence-induced fading).
pub fn optical_grazing_altitude() -> Length {
    Length::from_km(80.0)
}

/// Returns `true` if the straight segment between `a` and `b` (ECI metres)
/// clears a blocking sphere of radius `R_e + grazing_altitude`.
///
/// Uses the closest-approach point of the segment to Earth's centre; the
/// endpoints themselves are assumed to be above the blocking sphere.
pub fn has_line_of_sight(a: Vec3, b: Vec3, grazing_altitude: Length) -> bool {
    let r_block = EARTH_RADIUS_M + grazing_altitude.as_m();
    let ab = b - a;
    let len2 = ab.norm_squared();
    // A squared norm is non-negative, so `<= 0.0` is exactly the
    // degenerate coincident-endpoint case.
    if len2 <= 0.0 {
        return a.norm() >= r_block;
    }
    // Parameter of closest approach of the infinite line to the origin.
    let t = (-a.dot(ab) / len2).clamp(0.0, 1.0);
    let closest = a + ab * t;
    closest.norm() >= r_block
}

/// Geometry of ground-station passes for a circular LEO orbit and a
/// station elevation mask.
///
/// Closed-form single-pass model for an overhead pass (station in the
/// orbit plane), which is the upper bound the paper's per-revolution
/// downlink-time model needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PassGeometry {
    /// Central half-angle of the visibility cone, at the elevation mask.
    pub max_central_angle: Angle,
    /// Maximum (overhead) pass duration.
    pub max_pass_duration: Time,
    /// Fraction of the orbit during which the station is visible on an
    /// overhead pass.
    pub pass_fraction: f64,
    /// Slant range at the edge of visibility (lowest elevation).
    pub max_slant_range: Length,
}

/// Computes [`PassGeometry`] for a circular orbit and an elevation mask.
///
/// Geometry: with `R` the Earth radius, `r` the orbit radius, and `el` the
/// mask elevation, the Earth-central angle `lambda` from station to
/// satellite at the visibility edge satisfies
/// `lambda = acos(R/r · cos(el)) - el`.
pub fn pass_geometry(orbit: CircularOrbit, elevation_mask: Angle) -> PassGeometry {
    let re = EARTH_RADIUS_M;
    let r = orbit.radius().as_m();
    let el = elevation_mask.as_radians();
    let lambda = ((re / r) * el.cos()).clamp(-1.0, 1.0).acos() - el;
    let pass_fraction = lambda / std::f64::consts::PI;

    // Law of cosines for the slant range at the visibility edge.
    let slant = (re * re + r * r - 2.0 * re * r * lambda.cos()).sqrt();

    PassGeometry {
        max_central_angle: Angle::from_radians(lambda),
        max_pass_duration: orbit.period() * pass_fraction,
        pass_fraction,
        max_slant_range: Length::from_m(slant),
    }
}

/// Result of checking continuous GEO coverage for a LEO orbit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoStarCoverage {
    /// Fraction of sampled LEO positions that saw at least one GEO node.
    pub covered_fraction: f64,
    /// Minimum number of GEO nodes simultaneously visible over the samples.
    pub min_visible: usize,
    /// Maximum LEO→GEO slant range observed while connected to the nearest
    /// visible node.
    pub max_range_to_nearest: Length,
}

/// Samples a LEO circular orbit (given inclination) against `k` GEO nodes
/// spaced evenly around the equator, and reports coverage statistics.
///
/// Reproduces the Sec. 9 claim that *three* SµDCs in GEO spaced 120° apart
/// give every LEO EO satellite line of sight to at least one SµDC at all
/// times.
///
/// # Panics
///
/// Panics if `geo_nodes == 0` or `samples == 0`.
pub fn geo_star_coverage(
    leo: CircularOrbit,
    inclination: Angle,
    geo_nodes: usize,
    samples: usize,
) -> GeoStarCoverage {
    assert!(geo_nodes > 0, "need at least one GEO node");
    assert!(samples > 0, "need at least one sample");

    let geo_r = CircularOrbit::geostationary().radius().as_m();
    let geo_positions: Vec<Vec3> = (0..geo_nodes)
        .map(|i| {
            let phase = i as f64 / geo_nodes as f64 * std::f64::consts::TAU;
            Vec3::new(geo_r * phase.cos(), geo_r * phase.sin(), 0.0)
        })
        .collect();

    let mut covered = 0usize;
    let mut min_visible = usize::MAX;
    let mut max_range: f64 = 0.0;

    // Sample LEO positions over anomaly × a few RAAN values to cover the
    // relative geometry (GEO nodes are fixed in the rotating frame, but for
    // LOS-vs-solid-Earth only relative geometry matters).
    let raan_steps = 8usize;
    let anomaly_steps = samples.div_ceil(raan_steps).max(1);
    for ri in 0..raan_steps {
        let raan = ri as f64 / raan_steps as f64 * std::f64::consts::TAU;
        for ai in 0..anomaly_steps {
            let anomaly = ai as f64 / anomaly_steps as f64 * std::f64::consts::TAU;
            let leo_pos = Vec3::new(
                leo.radius().as_m() * anomaly.cos(),
                leo.radius().as_m() * anomaly.sin(),
                0.0,
            )
            .rotated_x(inclination.as_radians())
            .rotated_z(raan);

            let mut visible = 0usize;
            let mut nearest = f64::INFINITY;
            for gp in &geo_positions {
                if has_line_of_sight(leo_pos, *gp, Length::ZERO) {
                    visible += 1;
                    nearest = nearest.min(leo_pos.distance(*gp));
                }
            }
            if visible > 0 {
                covered += 1;
                max_range = max_range.max(nearest);
            }
            min_visible = min_visible.min(visible);
        }
    }

    let total = raan_steps * anomaly_steps;
    GeoStarCoverage {
        covered_fraction: covered as f64 / total as f64,
        min_visible,
        max_range_to_nearest: Length::from_m(max_range),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degenerate_zero_length_segment_uses_endpoint_altitude() {
        // a == b makes len2 exactly 0.0: the restructured `<= 0.0`
        // guard must take the degenerate branch, not divide by zero.
        let above = Vec3::new(7_000_000.0, 0.0, 0.0);
        assert!(has_line_of_sight(above, above, Length::ZERO));
        let below = Vec3::new(1_000.0, 0.0, 0.0);
        assert!(!has_line_of_sight(below, below, Length::ZERO));
    }

    #[test]
    fn opposite_leo_satellites_are_occluded() {
        let r = 6_921_000.0;
        let a = Vec3::new(r, 0.0, 0.0);
        let b = Vec3::new(-r, 0.0, 0.0);
        assert!(!has_line_of_sight(a, b, Length::ZERO));
    }

    #[test]
    fn neighbours_in_ring_have_los() {
        let orbit = CircularOrbit::from_altitude(Length::from_km(550.0));
        let r = orbit.radius().as_m();
        let sep = CircularOrbit::even_spacing(64).as_radians();
        let a = Vec3::new(r, 0.0, 0.0);
        let b = Vec3::new(r * sep.cos(), r * sep.sin(), 0.0);
        assert!(has_line_of_sight(a, b, optical_grazing_altitude()));
    }

    #[test]
    fn los_limit_matches_circular_orbit_formula() {
        let orbit = CircularOrbit::from_altitude(Length::from_km(550.0));
        let limit = orbit.max_los_separation(Length::ZERO).as_radians();
        let r = orbit.radius().as_m();
        let just_inside = limit * 0.999;
        let just_outside = limit * 1.001;
        let at = |ang: f64| Vec3::new(r * ang.cos(), r * ang.sin(), 0.0);
        assert!(has_line_of_sight(at(0.0), at(just_inside), Length::ZERO));
        assert!(!has_line_of_sight(at(0.0), at(just_outside), Length::ZERO));
    }

    #[test]
    fn zero_length_segment_above_surface_has_los() {
        assert!(has_line_of_sight(
            Vec3::new(7e6, 0.0, 0.0),
            Vec3::new(7e6, 0.0, 0.0),
            Length::ZERO
        ));
    }

    #[test]
    fn pass_duration_for_dove_like_orbit_is_about_10_minutes() {
        // ~500 km SSO with a 5° mask: max pass ≈ 8–12 min, matching
        // operational experience for Dove downlinks.
        let orbit = CircularOrbit::from_altitude(Length::from_km(500.0));
        let pass = pass_geometry(orbit, Angle::from_degrees(5.0));
        let minutes = pass.max_pass_duration.as_minutes();
        assert!(minutes > 6.0 && minutes < 13.0, "got {minutes} min");
    }

    #[test]
    fn higher_mask_shortens_pass() {
        let orbit = CircularOrbit::from_altitude(Length::from_km(500.0));
        let low = pass_geometry(orbit, Angle::from_degrees(0.0));
        let high = pass_geometry(orbit, Angle::from_degrees(20.0));
        assert!(high.max_pass_duration < low.max_pass_duration);
        assert!(high.max_slant_range < low.max_slant_range);
    }

    #[test]
    fn slant_range_at_zero_elevation_matches_horizon_distance() {
        let orbit = CircularOrbit::from_altitude(Length::from_km(500.0));
        let pass = pass_geometry(orbit, Angle::ZERO);
        let expected = ((orbit.radius().as_m().powi(2)) - EARTH_RADIUS_M.powi(2)).sqrt();
        assert!((pass.max_slant_range.as_m() - expected).abs() < 1.0);
    }

    #[test]
    fn three_geo_nodes_cover_leo_continuously() {
        let leo = CircularOrbit::from_altitude(Length::from_km(550.0));
        let cov = geo_star_coverage(leo, Angle::from_degrees(53.0), 3, 512);
        assert_eq!(cov.covered_fraction, 1.0);
        assert!(cov.min_visible >= 1, "some sample saw no GEO node");
    }

    #[test]
    fn one_geo_node_cannot_cover_leo_continuously() {
        let leo = CircularOrbit::from_altitude(Length::from_km(550.0));
        let cov = geo_star_coverage(leo, Angle::from_degrees(53.0), 1, 512);
        assert!(cov.covered_fraction < 1.0);
        assert_eq!(cov.min_visible, 0);
    }

    #[test]
    fn geo_range_bounded_by_geometry() {
        let leo = CircularOrbit::from_altitude(Length::from_km(550.0));
        let cov = geo_star_coverage(leo, Angle::from_degrees(97.0), 3, 512);
        // LEO→GEO range can never exceed r_geo + r_leo.
        let bound = CircularOrbit::geostationary().radius() + leo.radius();
        assert!(cov.max_range_to_nearest < bound);
        assert!(cov.max_range_to_nearest.as_km() > 30_000.0);
    }
}
