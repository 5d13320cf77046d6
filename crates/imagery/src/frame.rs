//! The paper's frame model.
//!
//! One "ground frame" is a 4K image at the 3 m base resolution, generated
//! every 1.5 s by each EO satellite. As spatial resolution improves the
//! *ground footprint stays constant*, so pixel count scales with
//! `(3 m / res)²`. This model feeds Figs. 4, 5, 8, 9 and Table 8.
//!
//! Frame geometry: reverse-engineering the Table 8 integers shows the
//! paper's "4K image" is 4096 × 3072 pixels (4:3 sensor format) — that
//! geometry gives a per-satellite rate of exactly 201.33 Mbit/s at 3 m,
//! which regenerates the published table cell-for-cell; a 3840 × 2160
//! UHD frame would be ~1.5× off every entry.

use units::{DataRate, DataSize, Length, Time};

/// The frame model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameSpec {
    /// Base frame width, pixels (at base resolution).
    pub base_width: u32,
    /// Base frame height, pixels (at base resolution).
    pub base_height: u32,
    /// Ground sample distance at which the base frame applies.
    pub base_resolution: Length,
    /// Bytes per pixel (3 for RGB).
    pub bytes_per_pixel: f64,
    /// Frame period: one frame per satellite per this interval.
    pub period: Time,
}

impl FrameSpec {
    /// The paper's model: 4K (4096 × 3072) RGB at 3 m, every 1.5 s.
    pub const fn paper() -> Self {
        Self {
            base_width: 4096,
            base_height: 3072,
            base_resolution: Length::from_m(3.0),
            bytes_per_pixel: 3.0,
            period: Time::from_secs(1.5),
        }
    }

    /// Pixels per frame at the given resolution (footprint constant).
    ///
    /// # Panics
    ///
    /// Panics if `resolution` is not positive.
    pub fn pixels_at(&self, resolution: Length) -> f64 {
        assert!(resolution.as_m() > 0.0, "resolution must be positive");
        let scale = self.base_resolution.as_m() / resolution.as_m();
        f64::from(self.base_width) * f64::from(self.base_height) * scale * scale
    }

    /// Frame size in bits at the given resolution.
    pub fn frame_size(&self, resolution: Length) -> DataSize {
        DataSize::from_bytes(self.pixels_at(resolution) * self.bytes_per_pixel)
    }

    /// Raw per-satellite data generation rate at the given resolution
    /// (before discard/compression).
    pub fn data_rate(&self, resolution: Length) -> DataRate {
        self.frame_size(resolution) / self.period
    }

    /// Per-satellite data rate after applying an early-discard rate in
    /// `[0, 1)` (discard removes whole frames uniformly).
    ///
    /// # Panics
    ///
    /// Panics if `discard_rate` is outside `[0, 1]`.
    pub fn data_rate_with_discard(&self, resolution: Length, discard_rate: f64) -> DataRate {
        assert!(
            (0.0..=1.0).contains(&discard_rate),
            "discard rate must be a probability"
        );
        self.data_rate(resolution) * (1.0 - discard_rate)
    }

    /// Pixel-processing rate demanded per satellite at a resolution and
    /// discard rate (pixels per second entering the application).
    pub fn pixel_rate(&self, resolution: Length, discard_rate: f64) -> f64 {
        self.pixels_at(resolution) * (1.0 - discard_rate) / self.period.as_secs()
    }

    /// The resolutions swept in the paper's figures: 3 m, 1 m, 30 cm,
    /// 10 cm.
    pub fn paper_resolutions() -> [Length; 4] {
        [
            Length::from_m(3.0),
            Length::from_m(1.0),
            Length::from_cm(30.0),
            Length::from_cm(10.0),
        ]
    }

    /// The early-discard rates swept in the paper's figures.
    pub fn paper_discard_rates() -> [f64; 4] {
        [0.0, 0.5, 0.95, 0.99]
    }
}

impl Default for FrameSpec {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_frame_is_4k() {
        let f = FrameSpec::paper();
        assert_eq!(f.pixels_at(Length::from_m(3.0)), 4096.0 * 3072.0);
        // ~37.7 MB per frame.
        let mb = f.frame_size(Length::from_m(3.0)).as_megabytes();
        assert!((mb - 37.75).abs() < 0.1, "got {mb} MB");
    }

    #[test]
    fn pixel_count_scales_quadratically() {
        let f = FrameSpec::paper();
        let base = f.pixels_at(Length::from_m(3.0));
        assert!((f.pixels_at(Length::from_m(1.0)) / base - 9.0).abs() < 1e-9);
        assert!((f.pixels_at(Length::from_cm(30.0)) / base - 100.0).abs() < 1e-9);
        assert!((f.pixels_at(Length::from_cm(10.0)) / base - 900.0).abs() < 1e-9);
    }

    #[test]
    fn base_rate_matches_table8_reasoning() {
        // Table 8: at 3 m and 1 Gbit/s, "each ISL can support transmitting
        // over four images every 1.5 s" → frame rate ≈ 132.7 Mbit/s, and
        // 1 Gbit/s / rate ≈ 7.5 > 4.
        let f = FrameSpec::paper();
        let rate = f.data_rate(Length::from_m(3.0));
        assert!(
            (rate.as_mbps() - 201.33).abs() < 0.1,
            "got {rate}, Table 8 implies 201.33 Mbit/s"
        );
        let per_isl = 1e9 / rate.as_bps();
        assert!(
            per_isl > 4.0 && per_isl < 5.0,
            "1 Gbit/s carries {per_isl} sats' frames (paper: 'over four')"
        );
    }

    #[test]
    fn discard_scales_rate_linearly() {
        let f = FrameSpec::paper();
        let full = f.data_rate_with_discard(Length::from_m(1.0), 0.0);
        let nf = f.data_rate_with_discard(Length::from_m(1.0), 0.95);
        assert!((full.as_bps() * 0.05 - nf.as_bps()).abs() < 1.0);
    }

    #[test]
    fn pixel_rate_at_10cm_is_enormous() {
        // 900 × 4K pixels / 1.5 s ≈ 7.5 Gpixel/s per satellite: the
        // Sec. 5 "cannot run on smallsats" regime.
        let f = FrameSpec::paper();
        let r = f.pixel_rate(Length::from_cm(10.0), 0.0);
        assert!(r > 7.0e9 && r < 8.0e9, "got {r}");
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn bad_discard_rate_panics() {
        let _ = FrameSpec::paper().data_rate_with_discard(Length::from_m(3.0), 1.5);
    }
}
