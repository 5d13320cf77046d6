//! A procedural Earth-surface model mapping geodetic points to scene
//! statistics.
//!
//! The constellation simulator needs each frame's ground truth — ocean or
//! land, built-up or not, cloudy or clear, day or night — distributed in
//! the paper's gross proportions (Table 3: 70% ocean, 2% built-up, 2/3
//! cloud, 50% night). Continents and cloud decks are deterministic noise
//! fields so runs are reproducible.

use orbit::groundtrack::GeoPoint;

use crate::noise::ValueNoise;
use crate::synth::SceneKind;

/// Ground-truth description of one imaged frame location.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroundTruth {
    /// Whether the point is ocean.
    pub ocean: bool,
    /// Whether the point is built-up (implies land).
    pub built_up: bool,
    /// Whether the point is currently cloud-covered.
    pub cloudy: bool,
    /// Whether the point is on the night side.
    pub night: bool,
}

impl GroundTruth {
    /// The synthetic scene family to render for this ground truth
    /// (optical instrument).
    pub fn scene_kind(&self) -> SceneKind {
        if self.night {
            SceneKind::NightRgb
        } else if self.cloudy {
            SceneKind::CloudyRgb
        } else if self.ocean {
            SceneKind::OceanRgb
        } else if self.built_up {
            SceneKind::UrbanRgb
        } else {
            SceneKind::RuralRgb
        }
    }
}

/// The procedural Earth model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EarthModel {
    seed: u64,
    /// Target ocean fraction (paper: 0.7).
    pub ocean_fraction: f64,
    /// Target built-up fraction of all frames (paper: 0.02).
    pub built_up_fraction: f64,
    /// Target cloud fraction (paper: 2/3).
    pub cloud_fraction: f64,
    /// Calibrated ocean-field threshold (computed at construction).
    ocean_threshold: f64,
    /// Calibrated cloud-field threshold (computed at construction).
    cloud_threshold: f64,
}

impl EarthModel {
    /// Creates the model with the paper's Table 3 proportions.
    pub fn paper(seed: u64) -> Self {
        Self::with_fractions(
            seed,
            units::constants::EARTH_OCEAN_FRACTION,
            0.02,
            units::constants::EARTH_CLOUD_FRACTION,
        )
    }

    /// Creates a model with custom surface-class fractions; thresholds are
    /// calibrated against the noise fields once, here.
    pub fn with_fractions(
        seed: u64,
        ocean_fraction: f64,
        built_up_fraction: f64,
        cloud_fraction: f64,
    ) -> Self {
        let mut model = Self {
            seed,
            ocean_fraction,
            built_up_fraction,
            cloud_fraction,
            ocean_threshold: 0.5,
            cloud_threshold: 0.5,
        };
        model.ocean_threshold = model.calibrate_ocean_threshold();
        model.cloud_threshold = model.calibrate_cloud_threshold();
        model
    }

    /// Evaluates ground truth at a point, given the solar time expressed
    /// as the sun's sub-solar longitude in degrees (the night side is the
    /// hemisphere facing away).
    pub fn ground_truth(&self, point: &GeoPoint, subsolar_longitude_deg: f64) -> GroundTruth {
        let lat = point.latitude.as_degrees();
        let lon = point.longitude.as_degrees();

        // Continents: large-scale fBm threshold calibrated to the ocean
        // fraction.
        let land_field = ValueNoise::new(self.seed);
        let land_v = land_field.fbm(lon / 55.0 + 10.0, lat / 40.0 + 10.0, 4, 0.55);
        let ocean = land_v < self.ocean_threshold;

        // Built-up: fine-scale hotspots on land only.
        let city_field = ValueNoise::new(self.seed ^ 0xC171);
        let city_v = city_field.sample(lon / 3.0 + 40.0, lat / 3.0 + 40.0);
        // Rescale so that built_up_fraction of *all* area is built up.
        let city_threshold = 1.0 - self.built_up_fraction / (1.0 - self.ocean_fraction).max(1e-9);
        let built_up = !ocean && city_v > city_threshold;

        // Clouds: independent mid-scale field.
        let cloud_field = ValueNoise::new(self.seed ^ 0xC10D);
        let cloud_v = cloud_field.fbm(lon / 25.0 - 5.0, lat / 20.0 - 5.0, 3, 0.6);
        let cloudy = cloud_v < self.cloud_threshold;

        // Night: more than 90° of longitude from the sub-solar point
        // (ignoring seasonal tilt, as the paper's 50% number does).
        let mut dlon = (lon - subsolar_longitude_deg).abs() % 360.0;
        if dlon > 180.0 {
            dlon = 360.0 - dlon;
        }
        let night = dlon > 90.0;

        GroundTruth {
            ocean,
            built_up,
            cloudy,
            night,
        }
    }

    /// Empirical quantile of a noise field over an area-weighted global
    /// grid: the threshold below which `fraction` of the field's mass
    /// falls. fBm values concentrate around 0.5 (sum of octaves), so
    /// thresholds must be calibrated from the field's own distribution
    /// rather than assumed uniform.
    fn field_quantile(values: &mut Vec<f64>, fraction: f64) -> f64 {
        values.sort_by(f64::total_cmp);
        let idx = ((values.len() as f64 - 1.0) * fraction.clamp(0.0, 1.0)).round() as usize;
        values[idx]
    }

    fn sample_field(field: &ValueNoise, fx: impl Fn(f64, f64) -> (f64, f64)) -> Vec<f64> {
        let mut out = Vec::with_capacity(48 * 96);
        for i in 0..48 {
            // Uniform in sin(lat) for area weighting.
            let s = -1.0 + 2.0 * (i as f64 + 0.5) / 48.0;
            let lat = s.asin().to_degrees();
            for j in 0..96 {
                let lon = -180.0 + 360.0 * (j as f64 + 0.5) / 96.0;
                let (x, y) = fx(lon, lat);
                out.push(field.fbm(x, y, 4, 0.55));
            }
        }
        out
    }

    fn calibrate_ocean_threshold(&self) -> f64 {
        let field = ValueNoise::new(self.seed);
        let mut vals =
            Self::sample_field(&field, |lon, lat| (lon / 55.0 + 10.0, lat / 40.0 + 10.0));
        Self::field_quantile(&mut vals, self.ocean_fraction)
    }

    fn calibrate_cloud_threshold(&self) -> f64 {
        let field = ValueNoise::new(self.seed ^ 0xC10D);
        // Note: cloud field uses 3 octaves/0.6 gain in ground_truth; the
        // calibration must sample the same field shape.
        let mut out = Vec::with_capacity(48 * 96);
        for i in 0..48 {
            let s = -1.0 + 2.0 * (i as f64 + 0.5) / 48.0;
            let lat = s.asin().to_degrees();
            for j in 0..96 {
                let lon = -180.0 + 360.0 * (j as f64 + 0.5) / 96.0;
                out.push(field.fbm(lon / 25.0 - 5.0, lat / 20.0 - 5.0, 3, 0.6));
            }
        }
        Self::field_quantile(&mut out, self.cloud_fraction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_grid(model: &EarthModel) -> Vec<GroundTruth> {
        let mut out = Vec::new();
        for i in 0..60 {
            for j in 0..120 {
                // Area-weighted sampling: uniform in sin(lat).
                let s = -1.0 + 2.0 * (i as f64 + 0.5) / 60.0;
                let lat = s.asin().to_degrees();
                let lon = -180.0 + 360.0 * (j as f64 + 0.5) / 120.0;
                out.push(model.ground_truth(&GeoPoint::from_degrees(lat, lon), 0.0));
            }
        }
        out
    }

    #[test]
    fn ocean_fraction_near_target() {
        let model = EarthModel::paper(1234);
        let samples = sample_grid(&model);
        let ocean = samples.iter().filter(|g| g.ocean).count() as f64 / samples.len() as f64;
        assert!(
            (ocean - 0.7).abs() < 0.12,
            "ocean fraction {ocean}, target 0.7"
        );
    }

    #[test]
    fn cloud_fraction_near_target() {
        let model = EarthModel::paper(99);
        let samples = sample_grid(&model);
        let cloudy = samples.iter().filter(|g| g.cloudy).count() as f64 / samples.len() as f64;
        assert!(
            (cloudy - 0.667).abs() < 0.12,
            "cloud fraction {cloudy}, target 0.67"
        );
    }

    #[test]
    fn night_fraction_is_half() {
        let model = EarthModel::paper(7);
        let samples = sample_grid(&model);
        let night = samples.iter().filter(|g| g.night).count() as f64 / samples.len() as f64;
        assert!((night - 0.5).abs() < 0.03, "night fraction {night}");
    }

    #[test]
    fn built_up_is_rare_and_on_land() {
        let model = EarthModel::paper(55);
        let samples = sample_grid(&model);
        let built = samples.iter().filter(|g| g.built_up).count() as f64 / samples.len() as f64;
        assert!(built < 0.1, "built-up fraction {built}");
        assert!(
            samples.iter().all(|g| !g.built_up || !g.ocean),
            "built-up implies land"
        );
    }

    #[test]
    fn ground_truth_is_deterministic() {
        let model = EarthModel::paper(42);
        let p = GeoPoint::from_degrees(40.0, -75.0);
        assert_eq!(model.ground_truth(&p, 10.0), model.ground_truth(&p, 10.0));
    }

    #[test]
    fn scene_kind_priority() {
        let night = GroundTruth {
            ocean: true,
            built_up: false,
            cloudy: true,
            night: true,
        };
        assert_eq!(night.scene_kind(), SceneKind::NightRgb);
        let cloudy_city = GroundTruth {
            ocean: false,
            built_up: true,
            cloudy: true,
            night: false,
        };
        assert_eq!(cloudy_city.scene_kind(), SceneKind::CloudyRgb);
        let clear_city = GroundTruth {
            ocean: false,
            built_up: true,
            cloudy: false,
            night: false,
        };
        assert_eq!(clear_city.scene_kind(), SceneKind::UrbanRgb);
    }

    #[test]
    fn subsolar_longitude_moves_night_side() {
        let model = EarthModel::paper(3);
        let p = GeoPoint::from_degrees(0.0, 0.0);
        let noon = model.ground_truth(&p, 0.0);
        let midnight = model.ground_truth(&p, 180.0);
        assert!(!noon.night);
        assert!(midnight.night);
    }
}
