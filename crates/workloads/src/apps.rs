//! The ten EO applications of Table 5.

/// Imagery type an application consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ImageryKind {
    /// Standard 3-channel visible imagery.
    Rgb,
    /// Many-band hyperspectral imagery.
    Hyperspectral,
}

impl std::fmt::Display for ImageryKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::Rgb => "RGB",
            Self::Hyperspectral => "Hyperspectral",
        })
    }
}

/// Compute-kernel family behind an application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Inception-ResNet CNN.
    InceptionResnet,
    /// Inception v3 CNN.
    InceptionV3,
    /// DenseNet CNN.
    DenseNet,
    /// Small custom CNN (4 layers).
    CustomCnn,
    /// EfficientNet-based CNN.
    EfficientNet,
    /// MobileNet v3 CNN.
    MobileNetV3,
    /// Mask R-CNN instance/panoptic segmentation.
    MaskRcnn,
    /// VGG-19 CNN.
    Vgg19,
    /// Custom DSP algorithm on channel ratios.
    CustomDsp,
    /// K-means clustering (K = 4).
    KMeans,
}

impl std::fmt::Display for KernelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::InceptionResnet => "Inception-ResNet",
            Self::InceptionV3 => "Inception v3",
            Self::DenseNet => "DenseNet",
            Self::CustomCnn => "Custom 4-layer CNN",
            Self::EfficientNet => "EfficientNet based",
            Self::MobileNetV3 => "MobileNet v3",
            Self::MaskRcnn => "Mask RCNN",
            Self::Vgg19 => "VGG19",
            Self::CustomDsp => "Custom DSP (channel ratios)",
            Self::KMeans => "K-Means (K = 4)",
        })
    }
}

/// The ten non-longitudinal EO applications analysed by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Application {
    /// Air Pollution Prediction.
    AirPollution,
    /// Crop Monitoring.
    CropMonitoring,
    /// Flood Detection.
    FloodDetection,
    /// Aircraft Detection.
    AircraftDetection,
    /// Forage Quality Estimation.
    ForageQuality,
    /// Urban Emergency Detection.
    UrbanEmergency,
    /// Panoptic Segmentation.
    PanopticSegmentation,
    /// Oil Spill Monitoring.
    OilSpill,
    /// Traffic Monitoring.
    TrafficMonitoring,
    /// Land Surface Clustering.
    LandSurfaceClustering,
}

impl Application {
    /// All ten applications, in Table 5 order.
    pub const ALL: [Self; 10] = [
        Self::AirPollution,
        Self::CropMonitoring,
        Self::FloodDetection,
        Self::AircraftDetection,
        Self::ForageQuality,
        Self::UrbanEmergency,
        Self::PanopticSegmentation,
        Self::OilSpill,
        Self::TrafficMonitoring,
        Self::LandSurfaceClustering,
    ];

    /// Short paper abbreviation (APP, CM, FD, ...).
    pub fn abbreviation(self) -> &'static str {
        match self {
            Self::AirPollution => "APP",
            Self::CropMonitoring => "CM",
            Self::FloodDetection => "FD",
            Self::AircraftDetection => "AD",
            Self::ForageQuality => "FQE",
            Self::UrbanEmergency => "UED",
            Self::PanopticSegmentation => "PS",
            Self::OilSpill => "OSM",
            Self::TrafficMonitoring => "TM",
            Self::LandSurfaceClustering => "LSC",
        }
    }

    /// Full name as it appears in Table 5.
    pub fn full_name(self) -> &'static str {
        match self {
            Self::AirPollution => "Air Pollution Prediction",
            Self::CropMonitoring => "Crop Monitoring",
            Self::FloodDetection => "Flood Detection",
            Self::AircraftDetection => "Aircraft Detection",
            Self::ForageQuality => "Forage Quality Estimation",
            Self::UrbanEmergency => "Urban Emergency Detection",
            Self::PanopticSegmentation => "Panoptic Segmentation",
            Self::OilSpill => "Oil Spill Monitoring",
            Self::TrafficMonitoring => "Traffic Monitoring",
            Self::LandSurfaceClustering => "Land Surface Clustering",
        }
    }

    /// Imagery type consumed (Table 5 column 3).
    pub fn imagery(self) -> ImageryKind {
        match self {
            Self::CropMonitoring | Self::OilSpill | Self::LandSurfaceClustering => {
                ImageryKind::Hyperspectral
            }
            _ => ImageryKind::Rgb,
        }
    }

    /// Kernel family (Table 5 column 4).
    pub fn kernel(self) -> KernelKind {
        match self {
            Self::AirPollution => KernelKind::InceptionResnet,
            Self::CropMonitoring => KernelKind::InceptionV3,
            Self::FloodDetection => KernelKind::DenseNet,
            Self::AircraftDetection => KernelKind::CustomCnn,
            Self::ForageQuality => KernelKind::EfficientNet,
            Self::UrbanEmergency => KernelKind::MobileNetV3,
            Self::PanopticSegmentation => KernelKind::MaskRcnn,
            Self::OilSpill => KernelKind::Vgg19,
            Self::TrafficMonitoring => KernelKind::CustomDsp,
            Self::LandSurfaceClustering => KernelKind::KMeans,
        }
    }

    /// Floating-point operations per pixel (Table 5 column 5).
    pub fn flops_per_pixel(self) -> f64 {
        match self {
            Self::AirPollution => 3_317.0,
            Self::CropMonitoring => 67_113.0,
            Self::FloodDetection => 178_969.0,
            Self::AircraftDetection => 7_387_714.0,
            Self::ForageQuality => 8_491.0,
            Self::UrbanEmergency => 4_484.0,
            Self::PanopticSegmentation => 6_874_279.0,
            Self::OilSpill => 390_625.0,
            Self::TrafficMonitoring => 51.0,
            Self::LandSurfaceClustering => 15_984.0,
        }
    }

    /// Whether the kernel is deep-learning based (everything except the
    /// custom DSP traffic monitor and k-means clustering).
    pub fn is_deep_learning(self) -> bool {
        !matches!(self.kernel(), KernelKind::CustomDsp | KernelKind::KMeans)
    }

    /// Example users/providers (Table 5 last column, abridged).
    pub fn users(self) -> &'static str {
        match self {
            Self::AirPollution => "NASA, CARB",
            Self::CropMonitoring => "Ministry of Agriculture of China, ESA",
            Self::FloodDetection => "GDACS, NASA",
            Self::AircraftDetection => "Orbital Insights, militaries",
            Self::ForageQuality => "USDA, UN",
            Self::UrbanEmergency => "NASA, USDA",
            Self::PanopticSegmentation => "crop monitoring, urban classification",
            Self::OilSpill => "KSAT, NOAA, ESA",
            Self::TrafficMonitoring => "DoT, ESA",
            Self::LandSurfaceClustering => "NASA, ESA",
        }
    }
}

impl std::fmt::Display for Application {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.abbreviation())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_applications() {
        assert_eq!(Application::ALL.len(), 10);
        let mut abbrs: Vec<_> = Application::ALL.iter().map(|a| a.abbreviation()).collect();
        abbrs.sort_unstable();
        abbrs.dedup();
        assert_eq!(abbrs.len(), 10, "abbreviations must be unique");
    }

    #[test]
    fn flops_span_exceeds_1e5() {
        // The paper: "over 10^5× difference in floating point operations
        // per pixel between aircraft detection and traffic monitoring".
        let ad = Application::AircraftDetection.flops_per_pixel();
        let tm = Application::TrafficMonitoring.flops_per_pixel();
        assert!(ad / tm > 1e5, "ratio {}", ad / tm);
    }

    #[test]
    fn hyperspectral_apps_are_cm_osm_lsc() {
        let hyper: Vec<_> = Application::ALL
            .iter()
            .filter(|a| a.imagery() == ImageryKind::Hyperspectral)
            .map(|a| a.abbreviation())
            .collect();
        assert_eq!(hyper, vec!["CM", "OSM", "LSC"]);
    }

    #[test]
    fn majority_is_deep_learning() {
        let dl = Application::ALL
            .iter()
            .filter(|a| a.is_deep_learning())
            .count();
        assert_eq!(dl, 8, "8 of 10 kernels are DNNs");
    }

    #[test]
    fn table5_spot_checks() {
        assert_eq!(Application::OilSpill.kernel(), KernelKind::Vgg19);
        assert_eq!(Application::OilSpill.flops_per_pixel(), 390_625.0);
        assert_eq!(
            Application::LandSurfaceClustering.kernel(),
            KernelKind::KMeans
        );
        assert_eq!(Application::TrafficMonitoring.flops_per_pixel(), 51.0);
        assert_eq!(
            Application::PanopticSegmentation.kernel(),
            KernelKind::MaskRcnn
        );
    }

    #[test]
    fn display_uses_abbreviation() {
        assert_eq!(Application::AirPollution.to_string(), "APP");
        assert_eq!(KernelKind::KMeans.to_string(), "K-Means (K = 4)");
        assert_eq!(ImageryKind::Rgb.to_string(), "RGB");
    }
}
