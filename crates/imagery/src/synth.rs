//! Procedural satellite-scene synthesis.
//!
//! Each [`SceneKind`] is tuned to the first-order statistics that drive
//! compression behaviour in Table 4:
//!
//! * **UrbanRgb** — blocky built-up structure with streets and roof
//!   texture: moderate entropy, strong 2-D correlation (the Crowd AI
//!   regime, lossless ratios ~2–4×).
//! * **RuralRgb** — smooth fBm fields: low entropy, very compressible.
//! * **OceanRgb / CloudyRgb / NightRgb** — the early-discard classes.
//! * **SarOcean** — near-zero background with exponential speckle and a
//!   handful of bright ship targets: the xView3 regime where generic
//!   codecs reach 100–1000s× but Rice-based CCSDS saturates near 10×.
//! * **SarLand** — fully speckled terrain: nearly incompressible.

use compress::Raster;

use crate::noise::{PixelRng, ValueNoise};

/// Scene families with distinct compression statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SceneKind {
    /// Built-up area in visible light (3 channels).
    UrbanRgb,
    /// Vegetated/rural area in visible light (3 channels).
    RuralRgb,
    /// Open ocean in visible light (3 channels).
    OceanRgb,
    /// Cloud deck over terrain (3 channels).
    CloudyRgb,
    /// Night-side imagery with sparse lights (3 channels).
    NightRgb,
    /// Single-look SAR amplitude over ocean (1 channel).
    SarOcean,
    /// Single-look SAR amplitude over land (1 channel).
    SarLand,
}

impl SceneKind {
    /// All scene kinds.
    pub const ALL: [Self; 7] = [
        Self::UrbanRgb,
        Self::RuralRgb,
        Self::OceanRgb,
        Self::CloudyRgb,
        Self::NightRgb,
        Self::SarOcean,
        Self::SarLand,
    ];

    /// Channel count for this scene family.
    #[cfg(test)]
    pub fn channels(self) -> usize {
        match self {
            Self::SarOcean | Self::SarLand => 1,
            _ => 3,
        }
    }
}

impl std::fmt::Display for SceneKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Self::UrbanRgb => "urban RGB",
            Self::RuralRgb => "rural RGB",
            Self::OceanRgb => "ocean RGB",
            Self::CloudyRgb => "cloudy RGB",
            Self::NightRgb => "night RGB",
            Self::SarOcean => "SAR ocean",
            Self::SarLand => "SAR land",
        };
        f.write_str(s)
    }
}

/// A seeded scene generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scene {
    kind: SceneKind,
    seed: u64,
}

impl Scene {
    /// Creates a scene of the given kind and random seed.
    pub fn new(kind: SceneKind, seed: u64) -> Self {
        Self { kind, seed }
    }

    /// Renders the scene at the given pixel dimensions.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn render(&self, width: usize, height: usize) -> Raster {
        assert!(width > 0 && height > 0, "scene dimensions must be positive");
        match self.kind {
            SceneKind::UrbanRgb => self.render_urban(width, height),
            SceneKind::RuralRgb => self.render_rural(width, height),
            SceneKind::OceanRgb => self.render_ocean(width, height),
            SceneKind::CloudyRgb => self.render_cloudy(width, height),
            SceneKind::NightRgb => self.render_night(width, height),
            SceneKind::SarOcean => self.render_sar_ocean(width, height),
            SceneKind::SarLand => self.render_sar_land(width, height),
        }
    }

    fn render_urban(&self, w: usize, h: usize) -> Raster {
        let mut img = Raster::zeroed(w, h, 3);
        let block = ValueNoise::new(self.seed);
        let texture = ValueNoise::new(self.seed ^ 0xABCD);
        let mut rng = PixelRng::new(self.seed);
        // Street grid period in pixels.
        let period = 24usize;
        for y in 0..h {
            for x in 0..w {
                let on_street = x % period < 3 || y % period < 3;
                if on_street {
                    // Asphalt: dark grey with slight jitter.
                    let v = 40.0 + 20.0 * rng.next_f64();
                    for c in 0..3 {
                        img.set(x, y, c, v as u8);
                    }
                } else {
                    // Building roof: per-block base colour + fine texture.
                    let bx = (x / period) as f64;
                    let by = (y / period) as f64;
                    let base = 90.0 + 120.0 * block.sample(bx * 0.9, by * 0.9);
                    // Roof detail is spatially correlated at these ground
                    // sample distances; per-pixel sensor noise is small.
                    let tex = 20.0 * texture.sample(x as f64 / 5.0, y as f64 / 5.0);
                    let jitter = 2.0 * rng.next_f64();
                    let v = base + tex + jitter;
                    img.set(x, y, 0, (v * 1.00).clamp(0.0, 255.0) as u8);
                    img.set(x, y, 1, (v * 0.96).clamp(0.0, 255.0) as u8);
                    img.set(x, y, 2, (v * 0.90).clamp(0.0, 255.0) as u8);
                }
            }
        }
        img
    }

    fn render_rural(&self, w: usize, h: usize) -> Raster {
        let mut img = Raster::zeroed(w, h, 3);
        let field = ValueNoise::new(self.seed);
        let mut rng = PixelRng::new(self.seed);
        for y in 0..h {
            for x in 0..w {
                let n = field.fbm(x as f64 / 40.0, y as f64 / 40.0, 4, 0.5);
                let jitter = 4.0 * rng.next_f64();
                let g = 70.0 + 110.0 * n + jitter;
                img.set(x, y, 0, (g * 0.55).clamp(0.0, 255.0) as u8);
                img.set(x, y, 1, g.clamp(0.0, 255.0) as u8);
                img.set(x, y, 2, (g * 0.45).clamp(0.0, 255.0) as u8);
            }
        }
        img
    }

    fn render_ocean(&self, w: usize, h: usize) -> Raster {
        let mut img = Raster::zeroed(w, h, 3);
        let swell = ValueNoise::new(self.seed);
        let mut rng = PixelRng::new(self.seed);
        for y in 0..h {
            for x in 0..w {
                let n = swell.sample(x as f64 / 25.0, y as f64 / 25.0);
                let jitter = 3.0 * rng.next_f64();
                img.set(x, y, 0, (12.0 + 8.0 * n + jitter) as u8);
                img.set(x, y, 1, (35.0 + 12.0 * n + jitter) as u8);
                img.set(x, y, 2, (70.0 + 18.0 * n + jitter) as u8);
            }
        }
        img
    }

    fn render_cloudy(&self, w: usize, h: usize) -> Raster {
        // Terrain underneath, clouds on top where the deck is thick.
        let mut img = self.render_rural(w, h);
        let deck = ValueNoise::new(self.seed ^ 0x1234_5678);
        for y in 0..h {
            for x in 0..w {
                let d = deck.fbm(x as f64 / 60.0, y as f64 / 60.0, 4, 0.55);
                if d > 0.45 {
                    let brightness = (170.0 + 85.0 * (d - 0.45) / 0.55).clamp(0.0, 255.0);
                    let alpha = ((d - 0.45) / 0.15).clamp(0.0, 1.0);
                    for c in 0..3 {
                        let under = f64::from(img.get(x, y, c));
                        let v = under * (1.0 - alpha) + brightness * alpha;
                        img.set(x, y, c, v as u8);
                    }
                }
            }
        }
        img
    }

    fn render_night(&self, w: usize, h: usize) -> Raster {
        let mut img = Raster::zeroed(w, h, 3);
        let mut rng = PixelRng::new(self.seed);
        // Faint sensor noise floor plus sparse city lights.
        for y in 0..h {
            for x in 0..w {
                let floor = (2.0 * rng.next_f64()) as u8;
                for c in 0..3 {
                    img.set(x, y, c, floor);
                }
            }
        }
        let lights = (w * h) / 2000 + 1;
        for _ in 0..lights {
            let cx = (rng.next_f64() * w as f64) as usize;
            let cy = (rng.next_f64() * h as f64) as usize;
            for dy in 0..3usize {
                for dx in 0..3usize {
                    let (x, y) = (
                        cx.saturating_add(dx).min(w - 1),
                        cy.saturating_add(dy).min(h - 1),
                    );
                    img.set(x, y, 0, 230);
                    img.set(x, y, 1, 210);
                    img.set(x, y, 2, 150);
                }
            }
        }
        img
    }

    fn render_sar_ocean(&self, w: usize, h: usize) -> Raster {
        let mut img = Raster::zeroed(w, h, 1);
        let mut rng = PixelRng::new(self.seed);
        // Calm ocean backscatter: very low mean with exponential speckle,
        // quantised so the vast majority of pixels are exactly zero (the
        // xView3 regime where zip-family codecs reach 100s–1000s×).
        for y in 0..h {
            for x in 0..w {
                let v = 0.15 * rng.next_exponential();
                img.set(x, y, 0, v.min(255.0) as u8);
            }
        }
        // Sparse bright ship targets.
        let ships = (w * h) / 16_384 + 1;
        for _ in 0..ships {
            let cx = (rng.next_f64() * w as f64) as usize;
            let cy = (rng.next_f64() * h as f64) as usize;
            let len = 4 + (rng.next_f64() * 8.0) as usize;
            for d in 0..len {
                let (x, y) = ((cx + d).min(w - 1), cy.min(h - 1));
                img.set(x, y, 0, 255);
                if cy + 1 < h {
                    img.set(x, cy + 1, 0, 200);
                }
            }
        }
        img
    }

    fn render_sar_land(&self, w: usize, h: usize) -> Raster {
        let mut img = Raster::zeroed(w, h, 1);
        let terrain = ValueNoise::new(self.seed);
        let mut rng = PixelRng::new(self.seed);
        for y in 0..h {
            for x in 0..w {
                let sigma = 40.0 + 120.0 * terrain.fbm(x as f64 / 30.0, y as f64 / 30.0, 3, 0.5);
                let v = sigma * rng.next_exponential();
                img.set(x, y, 0, v.min(255.0) as u8);
            }
        }
        img
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenes_are_deterministic() {
        for kind in SceneKind::ALL {
            let a = Scene::new(kind, 11).render(64, 64);
            let b = Scene::new(kind, 11).render(64, 64);
            assert_eq!(a, b, "{kind}");
            let c = Scene::new(kind, 12).render(64, 64);
            assert_ne!(a, c, "{kind} seeds should differ");
        }
    }

    #[test]
    fn channel_counts() {
        assert_eq!(
            Scene::new(SceneKind::UrbanRgb, 1).render(8, 8).channels(),
            3
        );
        assert_eq!(
            Scene::new(SceneKind::SarOcean, 1).render(8, 8).channels(),
            1
        );
    }

    #[test]
    fn night_scenes_are_dark_and_sparse() {
        let img = Scene::new(SceneKind::NightRgb, 3).render(128, 128);
        assert!(img.mean() < 10.0, "mean {}", img.mean());
        // But not completely empty: some lights exist.
        assert!(img.data().iter().any(|&b| b > 200));
    }

    #[test]
    fn sar_ocean_is_mostly_zero() {
        let img = Scene::new(SceneKind::SarOcean, 5).render(256, 256);
        let zeros = img.data().iter().filter(|&&b| b == 0).count();
        let frac = zeros as f64 / img.data().len() as f64;
        assert!(frac > 0.35, "zero fraction {frac}");
        assert!(img.entropy_bits() < 3.0, "entropy {}", img.entropy_bits());
    }

    #[test]
    fn sar_land_has_high_entropy() {
        let img = Scene::new(SceneKind::SarLand, 5).render(128, 128);
        assert!(img.entropy_bits() > 5.0, "entropy {}", img.entropy_bits());
    }

    #[test]
    fn urban_brighter_and_busier_than_ocean() {
        let urban = Scene::new(SceneKind::UrbanRgb, 9).render(128, 128);
        let ocean = Scene::new(SceneKind::OceanRgb, 9).render(128, 128);
        assert!(urban.mean() > ocean.mean());
        assert!(urban.entropy_bits() > ocean.entropy_bits());
    }

    #[test]
    fn cloudy_is_brighter_than_clear_rural() {
        let cloudy = Scene::new(SceneKind::CloudyRgb, 21).render(128, 128);
        let rural = Scene::new(SceneKind::RuralRgb, 21).render(128, 128);
        assert!(cloudy.mean() > rural.mean());
    }

    #[test]
    fn rgb_scenes_compress_like_table4_rgb() {
        // Lossless ratios for natural RGB imagery land in the 1.5–5 range
        // (Table 4 row: 1.9–3.9) — not huge, not none.
        let img = Scene::new(SceneKind::UrbanRgb, 33).render(256, 256);
        let zip = compress::CodecKind::ZipLike.raster_codec();
        let r = zip.raster_ratio(&img);
        assert!(r > 1.3 && r < 6.0, "urban zip ratio {r}");
    }

    #[test]
    fn sar_ocean_compresses_orders_of_magnitude_better_than_rgb() {
        let sar = Scene::new(SceneKind::SarOcean, 37).render(256, 256);
        let rgb = Scene::new(SceneKind::UrbanRgb, 37).render(256, 256);
        let zip = compress::CodecKind::ZipLike.raster_codec();
        let sar_ratio = zip.raster_ratio(&sar);
        let rgb_ratio = zip.raster_ratio(&rgb);
        assert!(
            sar_ratio > 10.0 * rgb_ratio,
            "sar {sar_ratio} vs rgb {rgb_ratio}"
        );
    }
}
