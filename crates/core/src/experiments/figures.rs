//! Figure-reproduction generators.

use units::fmt_si::trim_float;
use units::{Angle, Length, Power, Time};
use workloads::{Device, Hardening};

use super::ExperimentResult;
use crate::data::{downlinks, missions};
use crate::sizing::{sizing_sweep, SudcSpec, PAPER_CONSTELLATION};

pub(crate) fn res_label(r: Length) -> String {
    if r.as_m() >= 1.0 {
        format!("{} m", trim_float(r.as_m()))
    } else {
        format!("{} cm", trim_float(r.as_cm()))
    }
}

pub(crate) fn ed_label(ed: f64) -> String {
    format!("{}%", trim_float(ed * 100.0))
}

/// Fig. 2: spatial resolution of EO missions over the decades.
pub fn fig2() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "fig2",
        "EO satellite spatial resolution vs launch year (Fig. 2)",
        &["mission", "year", "resolution (m)", "series"],
    );
    let mut ms = missions::missions();
    ms.sort_by_key(|m| m.year);
    for m in ms {
        r.push_row([
            m.name.to_string(),
            m.year.to_string(),
            format!("{:.3}", m.resolution.as_m()),
            format!("{:?}", m.line),
        ]);
    }
    let (_, kh_slope) = missions::log_trend(missions::MissionLine::KeyHole);
    let (_, civ_slope) = missions::log_trend(missions::MissionLine::CivilCommercial);
    r.note(format!(
        "log10 trend slopes (per year): Key Hole {kh_slope:.4}, civil/commercial {civ_slope:.4} — both improving"
    ));
    r
}

/// Fig. 3: downlink capacity over time.
pub fn fig3() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "fig3",
        "Satellite downlink capacity vs year (Fig. 3)",
        &["system", "year", "band", "rate"],
    );
    let mut ds = downlinks::downlink_systems();
    ds.sort_by_key(|d| d.year);
    for d in ds {
        r.push_row([
            d.name.to_string(),
            d.year.to_string(),
            d.band.to_string(),
            d.rate.to_string(),
        ]);
    }
    r.note("RF capacity is bandwidth-capped; only optical escapes the ceiling (Sec. 2)");
    r
}

/// Fig. 4a: constellation data-generation rates.
pub fn fig4a() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "fig4a",
        "Global-coverage data generation rate (Fig. 4a)",
        &["spatial", "temporal", "rate"],
    );
    for req in crate::datareq::paper_requirements() {
        r.push_row([
            res_label(req.spatial),
            format!("{}", req.temporal),
            req.rate.to_string(),
        ]);
    }
    r.note("rate = Earth surface area / res² × 24 bit/px / revisit");
    r
}

/// Fig. 4b: concurrent Dove-like channels needed.
pub fn fig4b() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "fig4b",
        "Concurrent 220 Mbit/s channels required (Fig. 4b)",
        &["spatial", "temporal", "channels"],
    );
    for req in crate::datareq::paper_requirements() {
        r.push_row([
            res_label(req.spatial),
            format!("{}", req.temporal),
            format!("{:.3e}", req.channels),
        ]);
    }
    r.note("Earth's whole 2023 GSaaS segment serves ~1.6e3 channels (Table 2)");
    r
}

/// Fig. 5a: downlink deficit vs channels per revolution.
pub fn fig5a() -> ExperimentResult {
    let scenario = crate::deficit::DeficitScenario::paper();
    let channels = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];
    let mut r = ExperimentResult::new(
        "fig5a",
        "Downlink deficit vs channels/revolution at 95% early discard (Fig. 5a)",
        &["resolution", "channels/rev", "deficit"],
    );
    for res in imagery::FrameSpec::paper_resolutions() {
        for &ch in &channels {
            r.push_row([
                res_label(res),
                trim_float(ch),
                format!("{:.4}", scenario.downlink_deficit(res, ch)),
            ]);
        }
    }
    r.note("220 Mbit/s channels; contact bounded by a 550 km pass at a 5° mask");
    r
}

/// Fig. 5b: downlink time per satellite per revolution.
pub fn fig5b() -> ExperimentResult {
    let scenario = crate::deficit::DeficitScenario::paper();
    let channels = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];
    let mut r = ExperimentResult::new(
        "fig5b",
        "Downlink time per satellite per revolution (Fig. 5b)",
        &["resolution", "channels/rev", "minutes downlinking"],
    );
    for res in imagery::FrameSpec::paper_resolutions() {
        for &ch in &channels {
            r.push_row([
                res_label(res),
                trim_float(ch),
                format!("{:.2}", scenario.downlink_time(res, ch).as_minutes()),
            ]);
        }
    }
    r.note("downlink minutes drive the $3/min GSaaS bill (Sec. 3)");
    r
}

/// Fig. 6: required effective compression ratio.
pub fn fig6() -> ExperimentResult {
    let baseline = crate::ecr::Baseline::paper();
    let temporals = [
        ("1 day", Time::from_days(1.0)),
        ("1 hour", Time::from_hours(1.0)),
        ("30 min", Time::from_minutes(30.0)),
        ("10 min", Time::from_minutes(10.0)),
    ];
    let mut r = ExperimentResult::new(
        "fig6",
        "ECR required vs target resolution, baseline 3 m / 1 day (Fig. 6)",
        &[
            "spatial",
            "temporal",
            "required ECR",
            "shortfall vs 400 (orders)",
        ],
    );
    for res in imagery::FrameSpec::paper_resolutions() {
        for (label, t) in temporals {
            let f = crate::ecr::feasibility(baseline, res, t);
            r.push_row([
                res_label(res),
                label.to_string(),
                format!("{:.1}", f.required),
                format!("{:.2}", f.shortfall_orders),
            ]);
        }
    }
    r.note("best-case achievable ECR = 4x lossless x 100x discard = 400 (Sec. 4)");
    r
}

/// Fig. 7: antenna power and size scaling.
pub fn fig7() -> ExperimentResult {
    use comms::DownlinkBudget;
    let dove = DownlinkBudget::dove_baseline();
    let mut r = ExperimentResult::new(
        "fig7",
        "Channel capacity vs antenna input power and dish size (Fig. 7)",
        &["sweep", "value", "achieved rate", "x Dove"],
    );
    let base_rate = dove.achieved_rate().as_bps();
    for watts in [1.25, 5.0, 20.0, 80.0, 320.0, 1_280.0, 2_000.0] {
        let b = dove.with_tx_power(Power::from_watts(watts));
        let rate = b.achieved_rate();
        r.push_row([
            "tx power".to_string(),
            format!("{} W", trim_float(watts)),
            rate.to_string(),
            format!("{:.2}", rate.as_bps() / base_rate),
        ]);
    }
    for dish_m in [0.1, 0.3, 1.0, 3.0, 10.0, 30.0] {
        let b = dove.with_tx_dish(Length::from_m(dish_m));
        let rate = b.achieved_rate();
        r.push_row([
            "dish diameter".to_string(),
            format!("{} m", trim_float(dish_m)),
            rate.to_string(),
            format!("{:.2}", rate.as_bps() / base_rate),
        ]);
    }
    // The 1 m-resolution requirement for one satellite for contrast.
    let need = imagery::FrameSpec::paper().data_rate(Length::from_m(1.0));
    r.note(format!(
        "a single EO satellite at 1 m generates {need}; even 2 kW or a 30 m dish falls far short (bandwidth-limited regime)"
    ));
    r
}

/// Fig. 8: on-satellite power requirements.
pub fn fig8() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "fig8",
        "Power to run each application on the EO satellite, Xavier efficiency (Fig. 8)",
        &[
            "app",
            "resolution",
            "early discard",
            "pixel rate (px/s)",
            "power",
        ],
    );
    for row in crate::onboard::fig8_sweep() {
        r.push_row([
            row.app.to_string(),
            res_label(row.resolution),
            ed_label(row.discard_rate),
            format!("{:.3e}", row.pixel_rate),
            row.power
                .map(|p| p.to_string())
                .unwrap_or_else(|| "unmappable".to_string()),
        ]);
    }
    r.note(
        "horizontal bars of Fig. 8 = pixel rate; curves = power at Jetson AGX Xavier pixels/s/W",
    );
    r
}

fn sizing_result(id: &str, title: &str, spec: &SudcSpec) -> ExperimentResult {
    let mut r = ExperimentResult::new(
        id,
        title,
        &["app", "resolution", "early discard", "SµDCs needed"],
    );
    for row in sizing_sweep(spec, PAPER_CONSTELLATION) {
        r.push_row([
            row.app.to_string(),
            res_label(row.resolution),
            ed_label(row.discard_rate),
            row.sudcs
                .map(|n| n.to_string())
                .unwrap_or_else(|| "unmappable".to_string()),
        ]);
    }
    r.note(format!("{spec}, 64-satellite constellation"));
    r
}

/// Fig. 9: 4 kW RTX 3090 SµDCs needed.
pub fn fig9() -> ExperimentResult {
    sizing_result(
        "fig9",
        "4 kW RTX 3090 SµDCs needed per application (Fig. 9)",
        &SudcSpec::paper_4kw(Device::Rtx3090),
    )
}

/// Fig. 11: cluster counts under ISL bottlenecks.
pub fn fig11() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "fig11",
        "Ring clusters needed vs ISL capacity, 4 kW (left) and 256 kW (right) SµDCs (Fig. 11)",
        &[
            "SµDC",
            "app",
            "resolution",
            "ED",
            "ISL",
            "compute clusters",
            "ISL clusters",
            "clusters",
            "binding",
        ],
    );
    for row in crate::bottleneck::fig11_sweep() {
        let Some(a) = row.analysis else { continue };
        let fmt_clusters = |c: usize| {
            if c == usize::MAX {
                "infeasible".to_string()
            } else {
                c.to_string()
            }
        };
        r.push_row([
            format!("{} kW", trim_float(row.sudc_kw)),
            row.app.to_string(),
            res_label(row.resolution),
            ed_label(row.discard_rate),
            row.isl.to_string(),
            a.compute_clusters.to_string(),
            fmt_clusters(a.isl_clusters),
            fmt_clusters(a.clusters),
            a.binding.to_string(),
        ]);
    }
    r.note("ISL-bottlenecked cells launch more SµDCs than compute needs (Sec. 7)");
    r.note(geo_note());
    r
}

/// Fig. 13: k-list × splitting normalised capacity and power.
pub fn fig13() -> ExperimentResult {
    let (ks, splits) = crate::codesign::paper_fig13_axes();
    let codesign = crate::sweeps::codesign();
    let mut r = ExperimentResult::new(
        "fig13",
        "Aggregate ISL capacity and transmit power vs k-list and splitting, normalised to an unsplit ring (Fig. 13)",
        codesign.columns,
    );
    for p in crate::codesign::fig13_sweep(&ks, &splits) {
        r.push_row((codesign.row)(&p));
    }
    r.note("frame-spaced constellation; optical power ∝ distance² (Sec. 8)");
    r
}

/// Fig. 14: SµDC counts with the Qualcomm Cloud AI 100.
pub fn fig14() -> ExperimentResult {
    sizing_result(
        "fig14",
        "4 kW Qualcomm Cloud AI 100 SµDCs needed (Fig. 14)",
        &SudcSpec::paper_4kw(Device::CloudAi100),
    )
}

/// Fig. 16: hardening-overhead impact.
pub fn fig16() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "fig16",
        "SµDCs needed under radiation-hardening overheads (Fig. 16)",
        &["hardening", "app", "resolution", "ED", "SµDCs"],
    );
    let strategies = [
        Hardening::Software,
        Hardening::DualRedundancy,
        Hardening::TripleRedundancy,
    ];
    for h in strategies {
        let spec = SudcSpec::paper_4kw(Device::Rtx3090).with_hardening(h);
        for row in sizing_sweep(&spec, PAPER_CONSTELLATION) {
            r.push_row([
                h.to_string(),
                row.app.to_string(),
                res_label(row.resolution),
                ed_label(row.discard_rate),
                row.sudcs
                    .map(|n| n.to_string())
                    .unwrap_or_else(|| "unmappable".to_string()),
            ]);
        }
    }
    r.note("software hardening 1.2x, DMR 2x, TMR 3x compute overhead (Sec. 9)");
    r
}

/// GEO star-topology coverage summary appended to the Fig. 11 notes
/// (the Sec. 9 escape from the LEO ring bottleneck).
pub(crate) fn geo_note() -> String {
    let leo = orbit::circular::CircularOrbit::from_altitude(Length::from_km(550.0));
    let cov = orbit::visibility::geo_star_coverage(leo, Angle::from_degrees(53.0), 3, 512);
    format!(
        "3 GEO SµDCs spaced 120°: LEO coverage fraction {:.3}, min visible {}",
        cov.covered_fraction, cov.min_visible
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_rows_sorted_by_year() {
        let r = fig2();
        let years: Vec<i64> = (0..r.rows.len())
            .map(|i| r.cell(i, 1).expect("fig2 year column"))
            .collect();
        assert!(years.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn fig4a_contains_pbps_entries() {
        let r = fig4a();
        assert!(r.rows.iter().any(|row| row[2].contains("Pbit/s")));
    }

    #[test]
    fn fig7_shows_sublinear_capacity_gain() {
        let r = fig7();
        // The 2 kW row's ×Dove factor must be far below 2000/1.25 = 1600.
        let idx = r
            .rows
            .iter()
            .position(|row| row[1] == "2000 W")
            .expect("2 kW sweep point");
        let factor: f64 = r.cell(idx, 3).expect("fig7 ×Dove column");
        assert!(factor < 20.0, "bandwidth-limited: got {factor}x");
    }

    #[test]
    fn fig9_and_fig14_have_full_grids() {
        assert_eq!(fig9().rows.len(), 160);
        assert_eq!(fig14().rows.len(), 160);
        assert_eq!(fig16().rows.len(), 480);
    }

    #[test]
    fn fig11_reports_both_bindings() {
        let r = fig11();
        let bindings: Vec<&str> = r.rows.iter().map(|row| row[8].as_str()).collect();
        assert!(bindings.contains(&"ISL-bottlenecked"));
        assert!(bindings.contains(&"compute-bound"));
    }

    #[test]
    fn geo_note_reports_full_coverage() {
        assert!(geo_note().contains("1.000"));
    }
}
