//! Hyperspectral scene synthesis.
//!
//! Three of the paper's applications (CM, OSM, LSC — Table 5) consume
//! hyperspectral imagery. A hyperspectral cube has tens of narrow
//! spectral bands per pixel, with two structures a codec or classifier
//! can exploit: spatial correlation within each band and strong
//! *spectral* correlation across bands (each surface material has a
//! smooth reflectance spectrum).

use compress::Raster;

use crate::noise::{PixelRng, ValueNoise};

/// A hyperspectral scene generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HyperspectralScene {
    seed: u64,
    bands: usize,
}

impl HyperspectralScene {
    /// Creates a generator with the given band count (e.g. 32 for a
    /// VNIR imager).
    ///
    /// # Panics
    ///
    /// Panics if `bands` is zero or above 16 (the raster codecs' channel
    /// cap) — wider cubes should be rendered as multiple rasters.
    pub fn new(seed: u64, bands: usize) -> Self {
        assert!(bands > 0 && bands <= 16, "bands must be in 1..=16");
        Self { seed, bands }
    }

    /// Renders a `width × height` cube as a channel-interleaved raster.
    ///
    /// The scene is a patchwork of a few surface materials (via a
    /// low-frequency class field), each with its own smooth reflectance
    /// spectrum; per-pixel illumination varies smoothly and sensor noise
    /// is small.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn render(&self, width: usize, height: usize) -> Raster {
        assert!(width > 0 && height > 0, "dimensions must be positive");
        let class_field = ValueNoise::new(self.seed);
        let illum_field = ValueNoise::new(self.seed ^ 0x11_22);
        let mut rng = PixelRng::new(self.seed);

        // Four materials with distinct smooth spectra over [0, 1).
        let spectrum = |material: usize, band: usize| -> f64 {
            let t = band as f64 / self.bands as f64;
            match material {
                // Vegetation: low visible, strong NIR edge.
                0 => 0.15 + 0.6 / (1.0 + (-12.0 * (t - 0.55)).exp()),
                // Soil: gently rising.
                1 => 0.2 + 0.4 * t,
                // Water: fading with wavelength.
                2 => 0.25 * (1.0 - t).powi(2) + 0.02,
                // Built surface: flat grey.
                _ => 0.45 + 0.05 * (6.0 * t).sin(),
            }
        };

        let mut img = Raster::zeroed(width, height, self.bands);
        for y in 0..height {
            for x in 0..width {
                let c = class_field.fbm(x as f64 / 30.0, y as f64 / 30.0, 3, 0.5);
                let material = (c * 4.0).min(3.999) as usize;
                let illum = 0.7 + 0.5 * illum_field.sample(x as f64 / 50.0, y as f64 / 50.0);
                for b in 0..self.bands {
                    let noise = 0.01 * rng.next_f64();
                    let v = (spectrum(material, b) * illum + noise) * 255.0;
                    img.set(x, y, b, v.clamp(0.0, 255.0) as u8);
                }
            }
        }
        img
    }

    /// Mean absolute correlation between adjacent bands over the cube —
    /// the spectral redundancy a hyperspectral compressor exploits.
    pub fn adjacent_band_correlation(img: &Raster) -> f64 {
        let c = img.channels();
        if c < 2 {
            return 1.0;
        }
        let n = img.width() * img.height();
        let mut total = 0.0;
        for b in 0..c - 1 {
            let (mut sx, mut sy, mut sxx, mut syy, mut sxy) = (0.0, 0.0, 0.0, 0.0, 0.0);
            for i in 0..n {
                let a = f64::from(img.data()[i * c + b]);
                let bb = f64::from(img.data()[i * c + b + 1]);
                sx += a;
                sy += bb;
                sxx += a * a;
                syy += bb * bb;
                sxy += a * bb;
            }
            let nf = n as f64;
            let cov = sxy / nf - sx / nf * (sy / nf);
            let var_a = sxx / nf - (sx / nf).powi(2);
            let var_b = syy / nf - (sy / nf).powi(2);
            let denom = (var_a * var_b).sqrt();
            total += if denom > 0.0 {
                (cov / denom).abs()
            } else {
                1.0
            };
        }
        total / (c - 1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cube_geometry() {
        let cube = HyperspectralScene::new(3, 8).render(32, 32);
        assert_eq!(cube.channels(), 8);
        assert_eq!(cube.data().len(), 32 * 32 * 8);
    }

    #[test]
    fn rendering_is_deterministic() {
        let a = HyperspectralScene::new(5, 8).render(48, 48);
        let b = HyperspectralScene::new(5, 8).render(48, 48);
        assert_eq!(a, b);
        assert_ne!(HyperspectralScene::new(6, 8).render(48, 48), a);
    }

    #[test]
    fn adjacent_bands_are_highly_correlated() {
        let cube = HyperspectralScene::new(7, 12).render(64, 64);
        let r = HyperspectralScene::adjacent_band_correlation(&cube);
        assert!(r > 0.8, "spectral correlation {r}");
    }

    #[test]
    fn channel_aware_prediction_exploits_spectral_redundancy() {
        // The CCSDS codec predicts each band from itself; the cube's
        // smooth spatial structure should still give solid ratios, and
        // round-trip must be exact.
        let cube = HyperspectralScene::new(9, 8).render(64, 64);
        let codec = compress::CodecKind::CcsdsLike.raster_codec();
        let packed = codec.compress_raster(&cube);
        let ratio = cube.data().len() as f64 / packed.len() as f64;
        assert!(ratio > 2.0, "hyperspectral CCSDS ratio {ratio}");
        let back = codec.decompress_raster(&packed, 64, 64, 8).unwrap();
        assert_eq!(back, cube);
    }

    #[test]
    fn vegetation_shows_nir_edge() {
        // Band 0 (visible) vs last band (NIR): vegetated pixels brighten.
        let cube = HyperspectralScene::new(11, 16).render(96, 96);
        let n = 96 * 96;
        let c = cube.channels();
        let mut nir_brighter = 0usize;
        let mut veg_pixels = 0usize;
        for i in 0..n {
            let vis = cube.data()[i * c];
            let nir = cube.data()[i * c + c - 1];
            // Vegetation heuristic: dark visible.
            if vis < 60 {
                veg_pixels += 1;
                if nir > vis {
                    nir_brighter += 1;
                }
            }
        }
        if veg_pixels > 50 {
            let frac = nir_brighter as f64 / veg_pixels as f64;
            assert!(frac > 0.7, "NIR edge fraction {frac}");
        }
    }

    #[test]
    #[should_panic(expected = "bands must be in")]
    fn too_many_bands_panics() {
        let _ = HyperspectralScene::new(1, 32);
    }
}
