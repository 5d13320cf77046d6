//! Satellite weight classes (Table 7) and the LEO EO constellation survey
//! (Table 1).

use units::{Length, Power, Time};

/// Satellite classes by mass, with the power-generation ranges the paper
/// tabulates in Table 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SatelliteClass {
    /// < 1 kg-class picosatellites (Swarm Technologies).
    Picosat,
    /// 1–10 kg cubesats (Dove, REC, Stork, Gemini).
    Cubesat,
    /// 10–100 kg microsatellites (SkySat, BlackSky).
    Microsat,
    /// 100–1000 kg small satellites (Vivid-i, EarthNow, Jilin-1).
    SmallSat,
    /// Station-scale platforms (ISS).
    Station,
}

impl SatelliteClass {
    /// All classes in Table 7 row order.
    pub const ALL: [Self; 5] = [
        Self::Picosat,
        Self::Cubesat,
        Self::Microsat,
        Self::SmallSat,
        Self::Station,
    ];

    /// Table 7 row label.
    pub fn label(self) -> &'static str {
        match self {
            Self::Picosat => "Picosat",
            Self::Cubesat => "Cubesat",
            Self::Microsat => "Microsat",
            Self::SmallSat => "Small satellite",
            Self::Station => "Station",
        }
    }

    /// Example spacecraft from Table 7.
    pub fn examples(self) -> &'static str {
        match self {
            Self::Picosat => "Swarm Technologies",
            Self::Cubesat => "Dove, REC, Stork, Gemini",
            Self::Microsat => "SkySat, BlackSky",
            Self::SmallSat => "Vivid-i, EarthNow, ADASPACE, Jilin-1, Spacety",
            Self::Station => "ISS",
        }
    }

    /// Power-generation range (min, max) from Table 7.
    pub fn power_range(self) -> (Power, Power) {
        match self {
            Self::Picosat => (Power::from_watts(1.0), Power::from_watts(10.0)),
            Self::Cubesat => (Power::from_watts(10.0), Power::from_watts(30.0)),
            Self::Microsat => (Power::from_watts(55.0), Power::from_watts(210.0)),
            Self::SmallSat => (Power::from_watts(200.0), Power::from_watts(6_600.0)),
            Self::Station => (Power::from_kilowatts(240.0), Power::from_kilowatts(240.0)),
        }
    }

    /// The maximum power a satellite of this class can devote to payload
    /// compute (upper end of the generation range).
    pub fn max_power(self) -> Power {
        self.power_range().1
    }
}

impl std::fmt::Display for SatelliteClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One row of Table 1: a current or planned LEO EO constellation.
#[derive(Debug, Clone, PartialEq)]
pub struct ConstellationEntry {
    /// Operating company.
    pub company: &'static str,
    /// Constellation name.
    pub name: &'static str,
    /// Number of satellites (current or planned).
    pub satellites: u32,
    /// Form factor / mass description.
    pub form_factor: &'static str,
    /// Imaging modality.
    pub imaging: &'static str,
    /// Finest advertised spatial resolution.
    pub spatial_resolution: Length,
    /// Advertised temporal resolution (revisit), if bounded.
    pub temporal_resolution: Option<Time>,
    /// Mission summary.
    pub mission: &'static str,
}

/// The Table 1 survey: the imaging-first half
/// ([`survey_rows_satrev_to_jilin`]) followed by the video-heavy half
/// ([`survey_rows_adaspace_to_vividi`]), in the paper's row order.
pub fn table1_constellations() -> Vec<ConstellationEntry> {
    let mut rows = survey_rows_satrev_to_jilin();
    rows.extend(survey_rows_adaspace_to_vividi());
    rows
}

/// Survey rows SatRev Stork through Chang Guang Jilin-1.
fn survey_rows_satrev_to_jilin() -> Vec<ConstellationEntry> {
    vec![
        ConstellationEntry {
            company: "SatRev",
            name: "Stork",
            satellites: 14,
            form_factor: "3U",
            imaging: "RGB+Near Infrared",
            spatial_resolution: Length::from_m(5.0),
            temporal_resolution: Some(Time::from_hours(6.0)),
            mission: "Hosted payload missions",
        },
        ConstellationEntry {
            company: "SatRev",
            name: "REC",
            satellites: 1024,
            form_factor: "6U",
            imaging: "RGB",
            spatial_resolution: Length::from_cm(50.0),
            temporal_resolution: Some(Time::from_minutes(30.0)),
            mission:
                "Insurance, land survey, precision farming, smart cities, imagery intelligence",
        },
        ConstellationEntry {
            company: "Planet",
            name: "Dove",
            satellites: 159,
            form_factor: "3U",
            imaging: "RGB+Hyperspectral",
            spatial_resolution: Length::from_m(3.0),
            temporal_resolution: Some(Time::from_hours(24.0)),
            mission: "Daily imaging of Earth's land",
        },
        ConstellationEntry {
            company: "Planet",
            name: "SkySat",
            satellites: 21,
            form_factor: "100 kg",
            imaging: "RGB+Hyperspectral",
            spatial_resolution: Length::from_cm(50.0),
            temporal_resolution: Some(Time::from_hours(24.0)),
            mission: "Sub-daily high resolution imaging, stereo video up to 90 s",
        },
        ConstellationEntry {
            company: "Spacety",
            name: "Spacety SAR",
            satellites: 56,
            form_factor: "185 kg",
            imaging: "C-Band SAR",
            spatial_resolution: Length::from_m(1.0),
            temporal_resolution: None,
            mission: "Real-time SAR imagery of every point on Earth, day and night",
        },
        ConstellationEntry {
            company: "Chang Guang",
            name: "Jilin-1",
            satellites: 300,
            form_factor: "225 kg",
            imaging: "Color Video, PAN, MSI",
            spatial_resolution: Length::from_cm(75.0),
            temporal_resolution: Some(Time::from_days(2.0)),
            mission: "Video/PAN/MSI constellation",
        },
    ]
}

/// Survey rows Spacety ADASPACE through Earth-i Vivid-i.
fn survey_rows_adaspace_to_vividi() -> Vec<ConstellationEntry> {
    vec![
        ConstellationEntry {
            company: "Spacety",
            name: "ADASPACE",
            satellites: 192,
            form_factor: "185 kg",
            imaging: "RGB, hyperspectral",
            spatial_resolution: Length::from_m(1.0),
            temporal_resolution: Some(Time::from_hours(24.0)),
            mission: "A global, minute-level updated Earth image data network",
        },
        ConstellationEntry {
            company: "Space JLTZ",
            name: "Gemini",
            satellites: 378,
            form_factor: "6U",
            imaging: "Multispectral",
            spatial_resolution: Length::from_m(4.0),
            temporal_resolution: Some(Time::from_minutes(10.0)),
            mission: "Multispectral constellation",
        },
        ConstellationEntry {
            company: "Planet",
            name: "Pelican",
            satellites: 32,
            form_factor: "150-200 kg",
            imaging: "RGB",
            spatial_resolution: Length::from_cm(29.0),
            temporal_resolution: Some(Time::from_minutes(30.0)),
            mission: "Responsive, rapid, very-high resolution imagery",
        },
        ConstellationEntry {
            company: "Airbus",
            name: "EarthNow",
            satellites: 300,
            form_factor: "230 kg",
            imaging: "Color Video",
            spatial_resolution: Length::from_m(1.0),
            temporal_resolution: Some(Time::ZERO), // continuous
            mission: "Hurricane monitoring, fisheries, forest fire, crop health, conflict zones",
        },
        ConstellationEntry {
            company: "LeoStella",
            name: "BlackSky",
            satellites: 18,
            form_factor: "50 kg",
            imaging: "RGB Imagery",
            spatial_resolution: Length::from_m(1.0),
            temporal_resolution: Some(Time::from_hours(1.0)),
            mission: "Hourly revisit time for most major cities",
        },
        ConstellationEntry {
            company: "Earth-i",
            name: "Vivid-i",
            satellites: 15,
            form_factor: "100 kg",
            imaging: "RGB Color Video",
            spatial_resolution: Length::from_cm(60.0),
            temporal_resolution: Some(Time::from_hours(12.0)),
            mission: "First constellation to provide full-color video",
        },
    ]
}

/// Classifies a Table 1 form factor into a [`SatelliteClass`].
#[cfg(test)]
pub fn classify_form_factor(form_factor: &str) -> SatelliteClass {
    let ff = form_factor.to_ascii_lowercase();
    if ff.contains('u') && (ff.starts_with('3') || ff.starts_with('6') || ff.starts_with("12")) {
        return SatelliteClass::Cubesat;
    }
    // Parse a leading mass number if present.
    let mass: Option<f64> = ff
        .split(|c: char| !c.is_ascii_digit() && c != '.')
        .find(|s| !s.is_empty())
        .and_then(|s| s.parse().ok());
    match mass {
        Some(kg) if kg < 1.0 => SatelliteClass::Picosat,
        Some(kg) if kg <= 10.0 => SatelliteClass::Cubesat,
        Some(kg) if kg <= 100.0 => SatelliteClass::Microsat,
        Some(_) => SatelliteClass::SmallSat,
        None => SatelliteClass::Cubesat,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn survey_has_twelve_constellations() {
        assert_eq!(table1_constellations().len(), 12);
    }

    #[test]
    fn submeter_resolution_is_now_routine() {
        // The paper's point: "spatial resolution targets are now routinely
        // sub-meter".
        let submeter = table1_constellations()
            .iter()
            .filter(|c| c.spatial_resolution.as_m() < 1.0)
            .count();
        assert!(submeter >= 5, "only {submeter} sub-metre constellations");
    }

    #[test]
    fn largest_constellations_are_small_satellites() {
        // "the largest current and planned EO constellations" are
        // cubesat/microsat class.
        let mut entries = table1_constellations();
        entries.sort_by_key(|e| std::cmp::Reverse(e.satellites));
        for e in entries.iter().take(3) {
            let class = classify_form_factor(e.form_factor);
            assert!(
                matches!(
                    class,
                    SatelliteClass::Cubesat | SatelliteClass::Microsat | SatelliteClass::SmallSat
                ),
                "{} is {class}",
                e.name
            );
        }
    }

    #[test]
    fn power_ranges_are_ordered_and_disjointish() {
        let mut prev_max = Power::ZERO;
        for class in SatelliteClass::ALL {
            let (lo, hi) = class.power_range();
            assert!(lo <= hi, "{class}");
            assert!(lo >= prev_max * 0.5, "{class} overlaps too much");
            prev_max = hi;
        }
    }

    #[test]
    fn form_factor_classification() {
        assert_eq!(classify_form_factor("3U"), SatelliteClass::Cubesat);
        assert_eq!(classify_form_factor("6U"), SatelliteClass::Cubesat);
        assert_eq!(classify_form_factor("100 kg"), SatelliteClass::Microsat);
        assert_eq!(classify_form_factor("225 kg"), SatelliteClass::SmallSat);
        assert_eq!(classify_form_factor("50 kg"), SatelliteClass::Microsat);
    }

    #[test]
    fn cubesat_cannot_power_a_gpu() {
        // Table 7 logic: a 30 W cubesat cannot host even one RTX 3090.
        let cubesat_max = SatelliteClass::Cubesat.max_power();
        assert!(cubesat_max.as_watts() < 350.0);
    }

    #[test]
    fn earthnow_is_continuous() {
        let earthnow = table1_constellations()
            .into_iter()
            .find(|c| c.name == "EarthNow")
            .unwrap();
        assert_eq!(earthnow.temporal_resolution, Some(Time::ZERO));
    }
}
