//! SµDC sizing (Figs. 9, 14, 16).
//!
//! Given a constellation of EO satellites each demanding a pixel rate,
//! how many SµDCs of a given power budget, chip architecture, and
//! hardening level are needed per application?

use explore::{Axis, Space};
use imagery::FrameSpec;
use units::{Length, Power};
use workloads::{measurement, Application, Device, Hardening};

/// A SµDC design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SudcSpec {
    /// Compute power budget (excludes bus overhead; the paper budgets
    /// ≤1 kW extra for ISLs, attitude control, thermal, etc.).
    pub compute_power: Power,
    /// Compute device populating the rack.
    pub device: Device,
    /// Radiation-hardening strategy.
    pub hardening: Hardening,
}

impl SudcSpec {
    /// The paper's 4 kW SµDC (19-inch SATFRAME-class rack) with the given
    /// device and no hardening overhead.
    pub fn paper_4kw(device: Device) -> Self {
        Self {
            compute_power: Power::from_kilowatts(4.0),
            device,
            hardening: Hardening::None,
        }
    }

    /// The paper's 256 kW "Space Station class" SµDC.
    #[cfg(test)]
    pub fn station_256kw(device: Device) -> Self {
        Self {
            compute_power: Power::from_kilowatts(256.0),
            device,
            hardening: Hardening::None,
        }
    }

    /// Returns a copy with a hardening strategy (Fig. 16 sweeps).
    pub fn with_hardening(mut self, hardening: Hardening) -> Self {
        self.hardening = hardening;
        self
    }

    /// Pixel rate one SµDC sustains for an application, after hardening
    /// derating. `None` when the (app, device) pair is unmeasured.
    pub fn pixel_capacity(&self, app: Application) -> Option<f64> {
        let m = measurement(app, self.device)?;
        let effective = self.hardening.derate_efficiency(m.kpixels_per_sec_per_watt);
        Some(effective * 1e3 * self.compute_power.as_watts())
    }

    /// Estimated bus-overhead power (ISLs, flight computer, thermal,
    /// attitude): the paper budgets "up to 1 kW more" for the 4 kW
    /// design, scaling roughly with the rack.
    pub fn bus_overhead(&self) -> Power {
        (self.compute_power * 0.25).min(Power::from_kilowatts(16.0))
    }

    /// Total electrical power the SµDC's arrays must generate while
    /// sunlit, given an eclipse fraction (arrays recharge batteries for
    /// eclipse operation).
    pub fn array_power(&self, eclipse_fraction: f64) -> Power {
        let load = self.compute_power + self.bus_overhead();
        load * orbit::eclipse::array_oversize_factor(eclipse_fraction)
    }
}

impl std::fmt::Display for SudcSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} SµDC ({}, {})",
            self.compute_power,
            self.device.name(),
            self.hardening
        )
    }
}

/// Number of SµDCs of `spec` needed so `satellites` EO satellites can run
/// `app` at `resolution` with `discard_rate` (Fig. 9 with the RTX 3090,
/// Fig. 14 with the AI 100, Fig. 16 with hardening).
///
/// Returns `None` when the (app, device) pair is unmeasured.
///
/// # Panics
///
/// Panics if `discard_rate` is outside `[0, 1]`.
pub fn sudcs_needed(
    spec: &SudcSpec,
    app: Application,
    resolution: Length,
    discard_rate: f64,
    satellites: usize,
) -> Option<usize> {
    let frame = FrameSpec::paper();
    let demand = frame.pixel_rate(resolution, discard_rate) * satellites as f64;
    let capacity = spec.pixel_capacity(app)?;
    Some((demand / capacity).ceil() as usize)
}

/// A full Fig. 9/14/16-style sweep row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizingRow {
    /// Application.
    pub app: Application,
    /// Spatial resolution.
    pub resolution: Length,
    /// Early-discard rate.
    pub discard_rate: f64,
    /// SµDCs needed (None if the device cannot run the app).
    pub sudcs: Option<usize>,
}

/// The Fig. 9/14/16 parameter space: every application × the paper's
/// resolutions × the paper's early-discard rates (app outermost,
/// matching the figures' grouping).
///
/// # Panics
///
/// Panics if any axis is empty.
pub fn sizing_space(
    resolutions: &[Length],
    discard_rates: &[f64],
) -> Space<(Application, Length, f64)> {
    Space::grid3(
        "sizing",
        Axis::new("app", Application::ALL.to_vec()),
        Axis::new("res", resolutions.to_vec()),
        Axis::new("ed", discard_rates.to_vec()),
    )
}

/// Evaluates one sizing point for a spec.
pub fn sizing_point(
    spec: &SudcSpec,
    satellites: usize,
    &(app, resolution, discard_rate): &(Application, Length, f64),
) -> SizingRow {
    SizingRow {
        app,
        resolution,
        discard_rate,
        sudcs: sudcs_needed(spec, app, resolution, discard_rate, satellites),
    }
}

/// Evaluates the sizing sweep for a spec over the paper's grid (via the
/// `explore` engine, sequentially).
pub fn sizing_sweep(spec: &SudcSpec, satellites: usize) -> Vec<SizingRow> {
    let space = sizing_space(
        &FrameSpec::paper_resolutions(),
        &FrameSpec::paper_discard_rates(),
    );
    explore::sweep(&space, &explore::ExecOptions::sequential(), |p| {
        sizing_point(spec, satellites, p)
    })
    .results
}

impl explore::Cacheable for SizingRow {
    fn encode(&self) -> String {
        explore::Enc::new()
            .u64(app_index(self.app))
            .f64(self.resolution.as_m())
            .f64(self.discard_rate)
            .opt_u64(self.sudcs.map(|n| n as u64))
            .finish()
    }

    fn decode(s: &str) -> Option<Self> {
        let mut d = explore::Dec::new(s);
        Some(Self {
            app: app_from_index(d.u64()?)?,
            resolution: Length::from_m(d.f64()?),
            discard_rate: d.f64()?,
            sudcs: d.opt_u64()?.map(|n| n as usize),
        })
    }
}

/// Stable index of an application in Table 5 order (cache encoding).
/// Exhaustive match in `Application::ALL` order, so adding an
/// application is a compile error here rather than a runtime lookup
/// that could miss.
pub(crate) fn app_index(app: Application) -> u64 {
    match app {
        Application::AirPollution => 0,
        Application::CropMonitoring => 1,
        Application::FloodDetection => 2,
        Application::AircraftDetection => 3,
        Application::ForageQuality => 4,
        Application::UrbanEmergency => 5,
        Application::PanopticSegmentation => 6,
        Application::OilSpill => 7,
        Application::TrafficMonitoring => 8,
        Application::LandSurfaceClustering => 9,
    }
}

/// Inverse of [`app_index`].
pub(crate) fn app_from_index(i: u64) -> Option<Application> {
    Application::ALL.get(i as usize).copied()
}

/// The paper's reference constellation size.
pub const PAPER_CONSTELLATION: usize = 64;

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SudcSpec {
        SudcSpec::paper_4kw(Device::Rtx3090)
    }

    #[test]
    fn one_sudc_supports_all_but_one_app_at_1m_95ed() {
        // Paper: "only a single 4 kW SµDC is needed to support all but
        // one application at 1 m with 95% early discard rate".
        let over_one: Vec<_> = Application::ALL
            .into_iter()
            .filter(|&a| {
                sudcs_needed(&spec(), a, Length::from_m(1.0), 0.95, PAPER_CONSTELLATION)
                    .map(|n| n > 1)
                    .unwrap_or(false)
            })
            .collect();
        assert!(
            over_one.len() <= 1,
            "apps needing >1 SµDC at 1 m/95%: {over_one:?}"
        );
    }

    #[test]
    fn majority_supported_by_one_sudc_at_3m_no_discard() {
        let single: usize = Application::ALL
            .into_iter()
            .filter(|&a| {
                sudcs_needed(&spec(), a, Length::from_m(3.0), 0.0, PAPER_CONSTELLATION) == Some(1)
            })
            .count();
        assert!(single >= 6, "only {single} apps fit one SµDC at 3 m");
    }

    #[test]
    fn fine_resolution_low_discard_needs_many_sudcs() {
        // At 10 cm with no discard, heavy DNNs need dozens-to-hundreds.
        let n = sudcs_needed(
            &spec(),
            Application::FloodDetection,
            Length::from_cm(10.0),
            0.0,
            PAPER_CONSTELLATION,
        )
        .unwrap();
        assert!(n > 50, "got {n}");
        // A 256 kW station-class SµDC collapses that.
        let station = SudcSpec::station_256kw(Device::Rtx3090);
        let n_station = sudcs_needed(
            &station,
            Application::FloodDetection,
            Length::from_cm(10.0),
            0.0,
            PAPER_CONSTELLATION,
        )
        .unwrap();
        assert!(n_station <= n / 32, "station-class got {n_station}");
    }

    #[test]
    fn ai100_reduces_sudc_count_by_its_efficiency_ratio() {
        // Fig. 14 vs Fig. 9: 18.25× efficiency → ~18× fewer SµDCs (up to
        // ceiling effects).
        let gpu = sudcs_needed(
            &spec(),
            Application::OilSpill,
            Length::from_cm(10.0),
            0.0,
            PAPER_CONSTELLATION,
        )
        .unwrap();
        let acc = sudcs_needed(
            &SudcSpec::paper_4kw(Device::CloudAi100),
            Application::OilSpill,
            Length::from_cm(10.0),
            0.0,
            PAPER_CONSTELLATION,
        )
        .unwrap();
        let ratio = gpu as f64 / acc as f64;
        assert!(ratio > 15.0 && ratio < 20.0, "ratio {ratio}");
    }

    #[test]
    fn hardening_matches_fig16_example() {
        // Paper (Fig. 16 discussion): at 30 cm and 50% early discard an
        // application needing 3 SµDCs unhardened needs 3 with software
        // hardening, 5 with 2×, and 8 with 3× redundancy. Check the
        // multiplicative structure: counts scale by the overhead factor
        // before ceiling.
        let base = sudcs_needed(
            &spec(),
            Application::CropMonitoring,
            Length::from_cm(30.0),
            0.5,
            PAPER_CONSTELLATION,
        )
        .unwrap();
        let sw = sudcs_needed(
            &spec().with_hardening(Hardening::Software),
            Application::CropMonitoring,
            Length::from_cm(30.0),
            0.5,
            PAPER_CONSTELLATION,
        )
        .unwrap();
        let tmr = sudcs_needed(
            &spec().with_hardening(Hardening::TripleRedundancy),
            Application::CropMonitoring,
            Length::from_cm(30.0),
            0.5,
            PAPER_CONSTELLATION,
        )
        .unwrap();
        assert!(sw >= base && sw <= base * 2, "software: {base} → {sw}");
        assert!(
            (tmr as f64 / base as f64 - 3.0).abs() <= 1.0,
            "TMR: {base} → {tmr}"
        );
    }

    #[test]
    fn ps_is_unmeasured_on_xavier_but_fine_on_3090() {
        let x = SudcSpec {
            compute_power: Power::from_kilowatts(4.0),
            device: Device::JetsonAgxXavier,
            hardening: Hardening::None,
        };
        assert!(sudcs_needed(
            &x,
            Application::PanopticSegmentation,
            Length::from_m(3.0),
            0.0,
            64
        )
        .is_none());
        assert!(sudcs_needed(
            &spec(),
            Application::PanopticSegmentation,
            Length::from_m(3.0),
            0.0,
            64
        )
        .is_some());
    }

    #[test]
    fn array_power_covers_eclipse() {
        let s = spec();
        let sunlit_only = s.array_power(0.0);
        let leo = s.array_power(1.0 / 3.0);
        assert!((leo.as_watts() / sunlit_only.as_watts() - 1.5).abs() < 1e-9);
        assert!(sunlit_only.as_kilowatts() <= 5.0, "4 kW + ≤1 kW bus");
    }

    mod properties {
        use super::*;
        use simkit::prop;

        #[test]
        fn sudc_count_monotone_in_discard() {
            prop::check("sudc_count_monotone_in_discard", 256, |g| {
                let ed = g.draw(0.0f64..0.9);
                let res_m = g.draw(0.05f64..5.0);

                let s = SudcSpec::paper_4kw(Device::Rtx3090);
                let app = Application::CropMonitoring;
                let base = sudcs_needed(&s, app, Length::from_m(res_m), ed, 64).unwrap();
                let fewer = sudcs_needed(&s, app, Length::from_m(res_m), ed + 0.05, 64).unwrap();
                assert!(fewer <= base);
            });
        }

        #[test]
        fn sudc_count_monotone_in_power() {
            prop::check("sudc_count_monotone_in_power", 256, |g| {
                let kw = g.draw(1.0f64..64.0);
                let res_m = g.draw(0.05f64..5.0);
                let ed = g.draw(0.0f64..0.99);

                let small = SudcSpec {
                    compute_power: Power::from_kilowatts(kw),
                    device: Device::Rtx3090,
                    hardening: workloads::Hardening::None,
                };
                let big = SudcSpec {
                    compute_power: Power::from_kilowatts(kw * 2.0),
                    ..small
                };
                let app = Application::OilSpill;
                let n_small = sudcs_needed(&small, app, Length::from_m(res_m), ed, 64).unwrap();
                let n_big = sudcs_needed(&big, app, Length::from_m(res_m), ed, 64).unwrap();
                assert!(n_big <= n_small);
                // And never better than halving (ceilings aside).
                assert!(n_big * 2 + 1 >= n_small);
            });
        }

        #[test]
        fn hardening_never_reduces_count() {
            prop::check("hardening_never_reduces_count", 256, |g| {
                let res_m = g.draw(0.05f64..5.0);
                let ed = g.draw(0.0f64..0.99);

                let base = SudcSpec::paper_4kw(Device::Rtx3090);
                let app = Application::UrbanEmergency;
                let n0 = sudcs_needed(&base, app, Length::from_m(res_m), ed, 64).unwrap();
                for h in workloads::Hardening::ALL {
                    let n =
                        sudcs_needed(&base.with_hardening(h), app, Length::from_m(res_m), ed, 64)
                            .unwrap();
                    assert!(n >= n0, "{h}: {n} < {n0}");
                }
            });
        }
    }

    #[test]
    fn sweep_covers_grid() {
        let rows = sizing_sweep(&spec(), PAPER_CONSTELLATION);
        assert_eq!(rows.len(), 160);
        assert!(rows.iter().all(|r| r.sudcs.is_some()));
    }

    #[test]
    fn engine_sweep_keeps_app_outer_order() {
        let rows = sizing_sweep(&spec(), PAPER_CONSTELLATION);
        let mut i = 0;
        for app in Application::ALL {
            for resolution in FrameSpec::paper_resolutions() {
                for discard_rate in FrameSpec::paper_discard_rates() {
                    assert_eq!(rows[i].app, app, "row {i}");
                    assert_eq!(rows[i].resolution, resolution, "row {i}");
                    assert_eq!(rows[i].discard_rate, discard_rate, "row {i}");
                    i += 1;
                }
            }
        }
    }

    #[test]
    fn sizing_row_cache_round_trips() {
        use explore::Cacheable;
        for row in sizing_sweep(&spec(), PAPER_CONSTELLATION)
            .into_iter()
            .take(8)
        {
            let back = SizingRow::decode(&row.encode()).unwrap();
            assert_eq!(back, row);
        }
        // An unmeasured (None) count round-trips too.
        let none = SizingRow {
            app: Application::PanopticSegmentation,
            resolution: Length::from_m(3.0),
            discard_rate: 0.0,
            sudcs: None,
        };
        assert_eq!(SizingRow::decode(&none.encode()), Some(none));
    }

    #[test]
    fn app_indices_are_a_bijection() {
        for app in Application::ALL {
            assert_eq!(app_from_index(app_index(app)), Some(app));
        }
        assert_eq!(app_from_index(Application::ALL.len() as u64), None);
    }
}
