//! Compute devices and the paper's measured performance/power data
//! (Table 6), plus the MLPerf-derived efficiency ratios of Sec. 9.
//!
//! Substitution note (see DESIGN.md): the paper measured real GPUs; we
//! embed those published measurements as model constants. The derived
//! quantity every experiment consumes is pixels·s⁻¹·W⁻¹, so using the
//! paper's own numbers reproduces its downstream analysis exactly.

use units::{Power, Time};

use crate::apps::Application;

/// Compute devices considered by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Device {
    /// NVIDIA Jetson AGX Xavier (32 GB): the on-EO-satellite candidate.
    JetsonAgxXavier,
    /// NVIDIA RTX 3090: the SµDC workhorse of Sec. 6.
    Rtx3090,
    /// Qualcomm Cloud AI 100: the energy-efficiency accelerator of Sec. 9.
    CloudAi100,
    /// NVIDIA A100 (MLPerf v3.0 reference point).
    A100,
    /// NVIDIA H100 (MLPerf v3.0 reference point).
    H100,
}

impl Device {
    /// Marketing name.
    pub fn name(self) -> &'static str {
        match self {
            Self::JetsonAgxXavier => "Jetson AGX Xavier",
            Self::Rtx3090 => "RTX 3090",
            Self::CloudAi100 => "Qualcomm Cloud AI 100",
            Self::A100 => "NVIDIA A100",
            Self::H100 => "NVIDIA H100",
        }
    }

    /// Energy-efficiency multiplier relative to the RTX 3090 on image
    /// inference (Sec. 9): the AI 100 is 18.25× better than the 3090, and
    /// MLPerf v3.0 places it >2.5× above the A100 and ~2× above the H100.
    pub fn efficiency_vs_rtx3090(self) -> f64 {
        match self {
            Self::JetsonAgxXavier => 1.0, // app-dependent; see Table 6 data
            Self::Rtx3090 => 1.0,
            Self::CloudAi100 => 18.25,
            Self::A100 => 18.25 / 2.5,
            Self::H100 => 18.25 / 2.0,
        }
    }

    /// Whether the paper reports per-application measurements for this
    /// device (Table 6 covers only the Xavier and the 3090).
    pub fn has_table6_measurements(self) -> bool {
        matches!(self, Self::JetsonAgxXavier | Self::Rtx3090)
    }
}

impl std::fmt::Display for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One Table 6 measurement: an application running at its
/// energy-efficiency-optimal batch size on a device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Application measured.
    pub app: Application,
    /// Device measured on.
    pub device: Device,
    /// Average GPU power during inference.
    pub power: Power,
    /// Average GPU utilisation, percent.
    pub utilization_pct: f64,
    /// Batch inference time.
    pub inference_time: Time,
    /// Headline efficiency: thousands of pixels per second per watt.
    pub kpixels_per_sec_per_watt: f64,
}

impl Measurement {
    /// Power needed to sustain `pixels_per_sec` at this efficiency,
    /// assuming (as the paper does) linear scaling of compute with pixel
    /// count.
    pub fn power_for_pixel_rate(&self, pixels_per_sec: f64) -> Power {
        Power::from_watts(pixels_per_sec / (self.kpixels_per_sec_per_watt * 1e3))
    }

    /// Pixel rate sustainable within a power budget at this efficiency.
    #[cfg(test)]
    pub fn pixel_rate_for_power(&self, budget: Power) -> f64 {
        self.kpixels_per_sec_per_watt * 1e3 * budget.as_watts()
    }
}

/// Table 6 row data: `(power W, util %, inference s, kpixel/s/W)`.
type Row = (f64, f64, f64, f64);

fn rtx3090_row(app: Application) -> Option<Row> {
    use Application::*;
    Some(match app {
        AirPollution => (119.0, 25.0, 0.59, 1168.0),
        CropMonitoring => (222.0, 42.0, 1.57, 395.0),
        FloodDetection => (325.0, 88.0, 5.53, 307.0),
        AircraftDetection => (124.0, 6.0, 0.26, 74.0),
        ForageQuality => (129.0, 27.0, 0.56, 843.0),
        UrbanEmergency => (266.0, 72.0, 2.04, 569.0),
        OilSpill => (347.0, 98.0, 3.84, 231.0),
        TrafficMonitoring => (19.0, 0.5, 2.72, 2597.0),
        LandSurfaceClustering => (108.0, 2.0, 0.35, 2175.0),
        PanopticSegmentation => (160.0, 80.0, 7.81, 20.0),
    })
}

fn xavier_row(app: Application) -> Option<Row> {
    use Application::*;
    Some(match app {
        AirPollution => (4.04, 27.0, 3.07, 825.0),
        CropMonitoring => (12.5, 84.0, 16.0, 86.0),
        FloodDetection => (13.8, 92.0, 78.4, 64.0),
        AircraftDetection => (2.62, 18.0, 17.5, 39.0),
        ForageQuality => (5.13, 34.0, 3.29, 449.0),
        UrbanEmergency => (12.6, 17.0, 17.4, 177.0),
        OilSpill => (14.6, 97.0, 80.2, 33.0),
        TrafficMonitoring => (1.00, 0.5, 0.05, 9630.0),
        LandSurfaceClustering => (2.21, 1.0, 0.6, 5792.0),
        // PS could not be mapped to the Xavier (Table 6 "X").
        PanopticSegmentation => return None,
    })
}

/// Returns the Table 6 measurement for an (application, device) pair.
///
/// For the AI 100, A100, and H100 — which the paper characterises only by
/// their efficiency ratio to the RTX 3090 — the 3090 measurement is
/// scaled by [`Device::efficiency_vs_rtx3090`], exactly as the paper does
/// for Fig. 14.
///
/// Returns `None` for Panoptic Segmentation on the Xavier (the paper
/// could not map it) and its efficiency-scaled derivatives.
pub fn measurement(app: Application, device: Device) -> Option<Measurement> {
    let (base_row, device_for_row) = match device {
        Device::JetsonAgxXavier => (xavier_row(app)?, device),
        Device::Rtx3090 => (rtx3090_row(app)?, device),
        // Accelerators: 3090 numbers scaled by the efficiency ratio.
        Device::CloudAi100 | Device::A100 | Device::H100 => (rtx3090_row(app)?, device),
    };
    let (power, util, time, mut kppw) = base_row;
    if !device.has_table6_measurements() {
        kppw *= device.efficiency_vs_rtx3090();
    }
    Some(Measurement {
        app,
        device: device_for_row,
        power: Power::from_watts(power),
        utilization_pct: util,
        inference_time: Time::from_secs(time),
        kpixels_per_sec_per_watt: kppw,
    })
}

/// All Table 6 measurements for a device, in Table 5 application order.
pub fn all_measurements(device: Device) -> Vec<Measurement> {
    Application::ALL
        .iter()
        .filter_map(|&a| measurement(a, device))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table6_rtx3090_spot_values() {
        let m = measurement(Application::OilSpill, Device::Rtx3090).unwrap();
        assert_eq!(m.power.as_watts(), 347.0);
        assert_eq!(m.kpixels_per_sec_per_watt, 231.0);
        let tm = measurement(Application::TrafficMonitoring, Device::Rtx3090).unwrap();
        assert_eq!(tm.kpixels_per_sec_per_watt, 2597.0);
    }

    #[test]
    fn table6_xavier_spot_values() {
        let m = measurement(Application::FloodDetection, Device::JetsonAgxXavier).unwrap();
        assert_eq!(m.power.as_watts(), 13.8);
        assert_eq!(m.kpixels_per_sec_per_watt, 64.0);
    }

    #[test]
    fn ps_unmappable_on_xavier() {
        assert!(measurement(Application::PanopticSegmentation, Device::JetsonAgxXavier).is_none());
        assert!(measurement(Application::PanopticSegmentation, Device::Rtx3090).is_some());
        assert_eq!(all_measurements(Device::JetsonAgxXavier).len(), 9);
        assert_eq!(all_measurements(Device::Rtx3090).len(), 10);
    }

    #[test]
    fn ai100_is_18_25x_rtx3090() {
        let gpu = measurement(Application::CropMonitoring, Device::Rtx3090).unwrap();
        let acc = measurement(Application::CropMonitoring, Device::CloudAi100).unwrap();
        let ratio = acc.kpixels_per_sec_per_watt / gpu.kpixels_per_sec_per_watt;
        assert!((ratio - 18.25).abs() < 1e-9);
    }

    #[test]
    fn mlperf_ordering_ai100_h100_a100() {
        let eff = |d: Device| d.efficiency_vs_rtx3090();
        assert!(eff(Device::CloudAi100) > eff(Device::H100));
        assert!(eff(Device::H100) > eff(Device::A100));
        assert!((eff(Device::CloudAi100) / eff(Device::A100) - 2.5).abs() < 1e-9);
        assert!((eff(Device::CloudAi100) / eff(Device::H100) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn power_for_pixel_rate_inverts_pixel_rate_for_power() {
        let m = measurement(Application::AirPollution, Device::Rtx3090).unwrap();
        let budget = Power::from_watts(4_000.0);
        let rate = m.pixel_rate_for_power(budget);
        let back = m.power_for_pixel_rate(rate);
        assert!((back.as_watts() - 4_000.0).abs() < 1e-6);
    }

    #[test]
    fn pixels_per_sec_consistent_with_measured_power() {
        let m = measurement(Application::ForageQuality, Device::Rtx3090).unwrap();
        let expected = 843.0 * 1e3 * 129.0;
        assert!((m.pixel_rate_for_power(m.power) - expected).abs() < 1.0);
    }

    #[test]
    fn effective_gflops_is_plausible_for_a_3090() {
        // FD on the 3090: 307 kpx/s/W × 325 W × 178 969 FLOP/px ≈ 18 TFLOPs
        // — under the card's ~36 TFLOPs FP32 peak. The model is coherent.
        let m = measurement(Application::FloodDetection, Device::Rtx3090).unwrap();
        let gf = m.pixel_rate_for_power(m.power) * m.app.flops_per_pixel() / 1e9;
        assert!(gf > 1_000.0 && gf < 40_000.0, "got {gf} GFLOPs");
    }

    #[test]
    fn xavier_beats_3090_on_lightweight_apps_only() {
        // TM and LSC run *more* efficiently on the Xavier (Table 6): tiny
        // kernels waste a big GPU.
        for app in [
            Application::TrafficMonitoring,
            Application::LandSurfaceClustering,
        ] {
            let x = measurement(app, Device::JetsonAgxXavier).unwrap();
            let g = measurement(app, Device::Rtx3090).unwrap();
            assert!(
                x.kpixels_per_sec_per_watt > g.kpixels_per_sec_per_watt,
                "{app}"
            );
        }
        // Heavy DNNs favour the 3090.
        for app in [Application::FloodDetection, Application::CropMonitoring] {
            let x = measurement(app, Device::JetsonAgxXavier).unwrap();
            let g = measurement(app, Device::Rtx3090).unwrap();
            assert!(
                g.kpixels_per_sec_per_watt > x.kpixels_per_sec_per_watt,
                "{app}"
            );
        }
    }
}
