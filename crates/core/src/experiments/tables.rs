//! Table-reproduction generators.

use compress::CodecKind;
use explore::ExecOptions;
use imagery::synth::{Scene, SceneKind};
use units::fmt_si::trim_float;
use workloads::hardware::all_measurements;
use workloads::{Application, Device};

use super::ExperimentResult;

/// Table 1: the LEO EO constellation survey.
pub fn table1() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "table1",
        "Current and planned LEO EO constellations (Table 1)",
        &[
            "company",
            "constellation",
            "# sats",
            "form factor",
            "imaging",
            "spatial res",
            "temporal res",
        ],
    );
    for c in constellation::classes::table1_constellations() {
        r.push_row([
            c.company.to_string(),
            c.name.to_string(),
            c.satellites.to_string(),
            c.form_factor.to_string(),
            c.imaging.to_string(),
            c.spatial_resolution.to_string(),
            match c.temporal_resolution {
                // lint:allow(float-eq) exact sentinel: Some(0 s) encodes "continuous" in Table 1
                Some(t) if t.as_secs() == 0.0 => "continuous".to_string(),
                Some(t) => format!("{t}"),
                None => "high-frequency".to_string(),
            },
        ]);
    }
    r
}

/// Table 2: GSaaS ground stations by region.
pub fn table2() -> ExperimentResult {
    use comms::Region;
    let net = comms::GroundStationNetwork::paper_2023();
    let mut cols: Vec<&str> = vec!["service"];
    let region_names: Vec<String> = Region::ALL.iter().map(|r| r.to_string()).collect();
    cols.extend(region_names.iter().map(|s| s.as_str()));
    cols.push("total");
    let mut r = ExperimentResult::new(
        "table2",
        "Ground-Station-as-a-Service providers (Table 2)",
        &cols,
    );
    for p in net.providers() {
        let mut row = vec![p.name.to_string()];
        row.extend(p.stations.iter().map(|n| n.to_string()));
        row.push(p.total().to_string());
        r.push_row(row);
    }
    let mut totals = vec!["TOTAL".to_string()];
    totals.extend(net.stations_by_region().iter().map(|n| n.to_string()));
    totals.push(net.total_stations().to_string());
    r.push_row(totals);
    r.note(format!(
        "aggregate capacity with ~10 channels/station at 220 Mbit/s: {}",
        net.aggregate_capacity()
    ));
    r
}

/// Table 3: early-discard rates and ECRs.
pub fn table3() -> ExperimentResult {
    use imagery::DiscardClass;
    let mut r = ExperimentResult::new(
        "table3",
        "Achievable early-discard rates and their ECRs (Table 3)",
        &["metric", "discard rate", "ECR (computed)", "ECR (paper)"],
    );
    for c in DiscardClass::ALL {
        r.push_row([
            c.label().to_string(),
            trim_float(c.discard_rate()),
            format!("{:.2}", c.ecr()),
            trim_float(c.paper_ecr()),
        ]);
    }
    r.note("combining classes is capped near 100x by conditional dependencies (Sec. 4)");
    r
}

/// Table 4: compression ratios on synthetic imagery.
pub fn table4() -> ExperimentResult {
    table4_on(&ExecOptions::auto())
}

/// [`table4`] with its (scene, codec) cells measured on `opts`' threads.
/// The six scenes are rendered first, then every codec runs on every
/// scene; each codec's ratios are summed in seed order, as a sequential
/// pass over the scenes would.
fn table4_on(opts: &ExecOptions) -> ExperimentResult {
    let mut cols: Vec<&str> = vec!["imagery"];
    let labels: Vec<String> = CodecKind::ALL
        .iter()
        .map(|c| c.label().to_string())
        .collect();
    cols.extend(labels.iter().map(|s| s.as_str()));
    let mut r = ExperimentResult::new(
        "table4",
        "Lossless compression ratios, synthetic RGB (urban) and SAR (ocean) imagery (Table 4)",
        &cols,
    );

    const SEEDS: [u64; 3] = [11, 23, 47];
    let rows = [("RGB", SceneKind::UrbanRgb), ("SAR", SceneKind::SarOcean)];
    let scenes: Vec<(SceneKind, u64)> = rows
        .iter()
        .flat_map(|&(_, kind)| SEEDS.map(|seed| (kind, seed)))
        .collect();
    let images = explore::map(&scenes, opts, |&(kind, seed)| {
        Scene::new(kind, seed).render(192, 192)
    });
    let cells: Vec<(usize, CodecKind)> = (0..images.len())
        .flat_map(|scene| CodecKind::ALL.map(|ck| (scene, ck)))
        .collect();
    let ratios = explore::map(&cells, opts, |&(scene, ck)| {
        ck.raster_codec().raster_ratio(&images[scene])
    });

    // `ratios` holds each row's scenes in seed order, and each scene's
    // codecs in `ALL` order.
    let per_row = SEEDS.len() * CodecKind::ALL.len();
    for ((label, _), row) in rows.iter().zip(ratios.chunks(per_row)) {
        let mut sums = [0.0f64; CodecKind::ALL.len()];
        for scene in row.chunks(CodecKind::ALL.len()) {
            for (sum, ratio) in sums.iter_mut().zip(scene) {
                *sum += ratio;
            }
        }
        let mut out = vec![label.to_string()];
        out.extend(sums.map(|sum| format!("{:.2}", sum / SEEDS.len() as f64)));
        r.push_row(out);
    }
    r.note("paper used Crowd AI Mapping Challenge (RGB) and xView3 (SAR); we substitute statistic-matched synthetic scenes — see DESIGN.md");
    r.note("expected shape: RGB ratios < 4x; SAR orders of magnitude higher except CCSDS (Rice 1 bit/sample floor)");
    r
}

/// Table 5: application survey.
pub fn table5() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "table5",
        "Applications consuming satellite imagery (Table 5)",
        &[
            "application",
            "abbrev",
            "imagery",
            "kernel",
            "FLOPs/pixel",
            "users",
        ],
    );
    for a in Application::ALL {
        r.push_row([
            a.full_name().to_string(),
            a.abbreviation().to_string(),
            a.imagery().to_string(),
            a.kernel().to_string(),
            trim_float(a.flops_per_pixel()),
            a.users().to_string(),
        ]);
    }
    r
}

/// Table 6: per-application device measurements.
pub fn table6() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "table6",
        "Application results on the RTX 3090 and Jetson AGX Xavier (Table 6)",
        &[
            "app",
            "device",
            "power (W)",
            "util (%)",
            "inference (s)",
            "kpixel/s/W",
        ],
    );
    for device in [Device::Rtx3090, Device::JetsonAgxXavier] {
        for m in all_measurements(device) {
            r.push_row([
                m.app.to_string(),
                device.name().to_string(),
                trim_float(m.power.as_watts()),
                trim_float(m.utilization_pct),
                trim_float(m.inference_time.as_secs()),
                trim_float(m.kpixels_per_sec_per_watt),
            ]);
        }
    }
    r.note("values are the paper's published measurements (hardware substitution; DESIGN.md)");
    r.note("PS could not be mapped to the Xavier");
    r
}

/// Table 7: satellite classes and app support at 10 cm.
pub fn table7() -> ExperimentResult {
    use constellation::SatelliteClass;
    let mut r = ExperimentResult::new(
        "table7",
        "Satellite capabilities by weight class; apps supported at 10 cm (Table 7)",
        &[
            "class",
            "examples",
            "power",
            "apps @ 0% ED",
            "apps @ 95% ED",
        ],
    );
    for class in SatelliteClass::ALL {
        let (lo, hi) = class.power_range();
        let fmt_apps = |ed: f64| {
            let apps = crate::onboard::apps_supported_at_10cm(class, ed);
            if apps.is_empty() {
                "-".to_string()
            } else {
                apps.iter()
                    .map(|a| a.abbreviation())
                    .collect::<Vec<_>>()
                    .join(", ")
            }
        };
        r.push_row([
            class.label().to_string(),
            class.examples().to_string(),
            format!("{lo} to {hi}"),
            fmt_apps(0.0),
            fmt_apps(0.95),
        ]);
    }
    r.note("computed with our consistent Xavier-efficiency model; the paper's own cells mix resolutions (caption vs header) — see EXPERIMENTS.md");
    r
}

/// Table 8: satellites supportable by one ring SµDC.
pub fn table8() -> ExperimentResult {
    use comms::IslClass;
    let mut r = ExperimentResult::new(
        "table8",
        "EO satellites supportable by a single ring SµDC (Table 8)",
        &[
            "resolution",
            "early discard",
            "1 Gbit/s",
            "10 Gbit/s",
            "100 Gbit/s",
        ],
    );
    for resolution in imagery::FrameSpec::paper_resolutions() {
        for ed in imagery::FrameSpec::paper_discard_rates() {
            let cells: Vec<String> = IslClass::ALL
                .iter()
                .map(|isl| {
                    crate::bottleneck::ring_supportable(isl.capacity(), resolution, ed).to_string()
                })
                .collect();
            r.push_row([
                if resolution.as_m() >= 1.0 {
                    format!("{} m", trim_float(resolution.as_m()))
                } else {
                    format!("{} cm", trim_float(resolution.as_cm()))
                },
                trim_float(ed),
                cells[0].clone(),
                cells[1].clone(),
                cells[2].clone(),
            ]);
        }
    }
    r.note("m = 2·floor(link / (201.33 Mbit/s × (3 m/res)² × (1−ED))); matches the paper in 46/48 cells (two paper-rounding anomalies, EXPERIMENTS.md)");
    r
}

/// Table 9: strategy comparison.
pub fn table9() -> ExperimentResult {
    use crate::codesign::Strategy;
    let mut cols: Vec<&str> = vec!["property"];
    let labels: Vec<String> = Strategy::ALL
        .iter()
        .map(|s| s.label().to_string())
        .collect();
    cols.extend(labels.iter().map(|s| s.as_str()));
    let mut r = ExperimentResult::new(
        "table9",
        "Downlink-deficit mitigation strategies (Table 9)",
        &cols,
    );
    let yn = |b: bool| if b { "Yes" } else { "No" };
    let rows: [(&str, fn(Strategy) -> bool); 4] = [
        (
            "Scales to future resolution targets",
            Strategy::scales_to_future_targets,
        ),
        ("High power", Strategy::high_power),
        ("Requires ISLs", Strategy::requires_isls),
        (
            "Adaptive to mission changes",
            Strategy::adaptive_to_mission_changes,
        ),
    ];
    for (name, f) in rows {
        let mut row = vec![name.to_string()];
        row.extend(Strategy::ALL.iter().map(|&s| yn(f(s)).to_string()));
        r.push_row(row);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_is_identical_at_any_thread_count() {
        // The pretty JSON artifact is a function of the result's fields,
        // so equal results write equal JSON as well.
        let seq = table4_on(&ExecOptions::sequential());
        let par = table4_on(&ExecOptions::threads(4));
        assert_eq!(par.to_text_table(), seq.to_text_table());
        assert_eq!(par.to_csv(), seq.to_csv());
        assert_eq!(par, seq);
    }

    #[test]
    fn table2_total_row_is_160() {
        let r = table2();
        let total_row = r.rows.last().unwrap();
        assert_eq!(total_row.last().unwrap(), "160");
    }

    #[test]
    fn table4_rgb_ratios_are_moderate_and_sar_ratios_huge() {
        let r = table4();
        let (rgb, sar) = (0, 1);
        let cell = |row: usize, idx: usize| -> f64 { r.cell(row, idx).expect("table4 ratio") };
        // RGB row: all lossless ratios in [1, 8].
        for i in 1..r.rows[rgb].len() {
            let v = cell(rgb, i);
            assert!((1.0..8.0).contains(&v), "RGB {} = {v}", r.columns[i]);
        }
        // SAR: zip-family ≥ 10× RGB; CCSDS stuck near its Rice floor.
        let col = |name: &str| r.columns.iter().position(|c| c == name).unwrap();
        assert!(cell(sar, col("Zip")) > 10.0 * cell(rgb, col("Zip")));
        assert!(cell(sar, col("CCSDS")) < 16.0);
        assert!(cell(sar, col("RLE")) > 5.0);
    }

    #[test]
    fn table8_shape() {
        let r = table8();
        assert_eq!(r.rows.len(), 16);
        // 3 m / ED 0 / 10 Gbit/s cell is 98.
        let row = &r.rows[0];
        assert_eq!(row[3], "98");
    }

    #[test]
    fn table7_station_row_is_rich() {
        let r = table7();
        let station = r.rows.last().unwrap();
        assert!(station[4].split(", ").count() >= 8);
    }

    #[test]
    fn table9_matches_shape() {
        let r = table9();
        assert_eq!(r.rows.len(), 4);
        assert_eq!(r.columns.len(), 5);
        // SµDCs column is all-Yes except nothing (first data column).
        for row in &r.rows {
            assert_eq!(row[1], "Yes");
        }
    }
}
