//! The ISL bottleneck (Table 8, Fig. 11).
//!
//! A ring-topology cluster can only ingest what its two SµDC-adjacent
//! ISLs carry. If that is fewer satellites than the SµDC's compute could
//! serve, the constellation is *ISL-bottlenecked* and more clusters (and
//! SµDCs) must be launched than compute alone requires.

use comms::IslClass;
use explore::{Axis, Space};
use imagery::FrameSpec;
use units::{DataRate, Length, Power};
use workloads::{Application, Device};

use crate::sizing::{app_from_index, app_index, SudcSpec};
use constellation::topology::{ClusterTopology, Formation};

/// Table 8: EO satellites one ring SµDC can ingest from at a resolution
/// and discard rate, for a given per-link ISL capacity.
///
/// The count is `2 · floor(link / (rate · (1 − ED)))` — each of the two
/// ingest links saturates at a whole number of satellites' streams. (The
/// paper's published table matches this formula in 46 of 48 cells; see
/// EXPERIMENTS.md for the two cells where the paper's own prose rounds
/// the other way.)
pub fn ring_supportable(capacity: DataRate, resolution: Length, discard_rate: f64) -> usize {
    let rate = FrameSpec::paper().data_rate_with_discard(resolution, discard_rate);
    ClusterTopology::ring(Formation::OrbitSpaced).supportable_satellites(capacity, rate)
}

/// Per-satellite supportable counts for the full Table 8 grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table8Cell {
    /// Early-discard rate.
    pub discard_rate: f64,
    /// Spatial resolution.
    pub resolution: Length,
    /// ISL capacity class.
    pub isl: IslClass,
    /// EO satellites supportable by one ring SµDC.
    pub supportable: usize,
}

/// The Table 8 parameter space in the paper's layout order (resolution
/// outermost, then discard rate, then ISL class).
///
/// # Panics
///
/// Panics if any axis is empty.
pub fn table8_space(
    resolutions: &[Length],
    discard_rates: &[f64],
) -> Space<(Length, f64, IslClass)> {
    Space::grid3(
        "table8",
        Axis::new("res", resolutions.to_vec()),
        Axis::new("ed", discard_rates.to_vec()),
        Axis::new("isl", IslClass::ALL.to_vec()),
    )
}

/// Evaluates one Table 8 cell.
pub fn table8_cell(&(resolution, discard_rate, isl): &(Length, f64, IslClass)) -> Table8Cell {
    Table8Cell {
        discard_rate,
        resolution,
        isl,
        supportable: ring_supportable(isl.capacity(), resolution, discard_rate),
    }
}

impl explore::Cacheable for Table8Cell {
    fn encode(&self) -> String {
        explore::Enc::new()
            .f64(self.discard_rate)
            .f64(self.resolution.as_m())
            .u64(isl_index(self.isl))
            .usize(self.supportable)
            .finish()
    }

    fn decode(s: &str) -> Option<Self> {
        let mut d = explore::Dec::new(s);
        Some(Self {
            discard_rate: d.f64()?,
            resolution: Length::from_m(d.f64()?),
            isl: isl_from_index(d.u64()?)?,
            supportable: d.usize()?,
        })
    }
}

/// Stable index of an ISL class (cache encoding). Exhaustive match in
/// `IslClass::ALL` order, so adding a class is a compile error here
/// rather than a runtime lookup that could miss.
pub(crate) fn isl_index(isl: IslClass) -> u64 {
    match isl {
        IslClass::Gbps1 => 0,
        IslClass::Gbps10 => 1,
        IslClass::Gbps100 => 2,
    }
}

/// Inverse of [`isl_index`].
pub(crate) fn isl_from_index(i: u64) -> Option<IslClass> {
    IslClass::ALL.get(i as usize).copied()
}

/// Why a cluster count came out the way it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BindingConstraint {
    /// Compute capacity limits the cluster count (ISL-unconstrained).
    Compute,
    /// ISL ingest capacity limits the cluster count (ISL-bottlenecked).
    Isl,
}

impl std::fmt::Display for BindingConstraint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::Compute => "compute-bound",
            Self::Isl => "ISL-bottlenecked",
        })
    }
}

/// The Fig. 11 cluster analysis for one configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterAnalysis {
    /// Clusters needed by compute alone (Fig. 9 number).
    pub compute_clusters: usize,
    /// Clusters needed by ISL ingest alone.
    pub isl_clusters: usize,
    /// Actual clusters to launch: the max of the two.
    pub clusters: usize,
    /// Which constraint binds.
    pub binding: BindingConstraint,
}

/// Computes the Fig. 11 cluster count: the number of ring clusters (and
/// thus SµDCs) needed for `satellites` EO satellites to run `app`, given
/// both the SµDC's compute and its two ingest ISLs of `isl` capacity.
///
/// Returns `None` when the (app, device) pair is unmeasured.
pub fn clusters_needed(
    spec: &SudcSpec,
    app: Application,
    resolution: Length,
    discard_rate: f64,
    satellites: usize,
    isl: IslClass,
) -> Option<ClusterAnalysis> {
    let compute_clusters =
        crate::sizing::sudcs_needed(spec, app, resolution, discard_rate, satellites)?;
    let per_cluster = ring_supportable(isl.capacity(), resolution, discard_rate);
    let isl_clusters = if per_cluster == 0 {
        // No ring cluster can ingest even one satellite: the ring
        // topology is infeasible; report the satellite count as a
        // sentinel "one SµDC per satellite still does not ingest".
        usize::MAX
    } else {
        satellites.div_ceil(per_cluster)
    };
    let clusters = compute_clusters.max(isl_clusters);
    Some(ClusterAnalysis {
        compute_clusters,
        isl_clusters,
        clusters,
        binding: if isl_clusters > compute_clusters {
            BindingConstraint::Isl
        } else {
            BindingConstraint::Compute
        },
    })
}

/// One Fig. 11 row: the cluster analysis for a SµDC power class, a
/// workload case, and an ISL capacity class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig11Row {
    /// SµDC compute power (kW) — 4 for the rack, 256 for station class.
    pub sudc_kw: f64,
    /// Application.
    pub app: Application,
    /// Spatial resolution.
    pub resolution: Length,
    /// Early-discard rate.
    pub discard_rate: f64,
    /// ISL capacity class.
    pub isl: IslClass,
    /// Cluster analysis (`None` when the (app, device) pair is
    /// unmeasured).
    pub analysis: Option<ClusterAnalysis>,
}

/// The five workload cases plotted in Fig. 11.
pub fn fig11_cases() -> [(Application, Length, f64); 5] {
    [
        (Application::TrafficMonitoring, Length::from_m(1.0), 0.0),
        (Application::AirPollution, Length::from_m(1.0), 0.0),
        (Application::UrbanEmergency, Length::from_cm(30.0), 0.95),
        (Application::FloodDetection, Length::from_m(1.0), 0.5),
        (Application::CropMonitoring, Length::from_cm(30.0), 0.5),
    ]
}

/// The Fig. 11 parameter space: SµDC power classes × the figure's five
/// workload cases × ISL classes (power outermost, matching the figure's
/// left/right panels). Built as an explicit point list because the
/// workload cases are (app, resolution, ED) triples, not a grid.
pub fn fig11_space(kws: &[f64]) -> Space<(f64, Application, Length, f64, IslClass)> {
    let mut points = Vec::new();
    for &kw in kws {
        for (app, res, ed) in fig11_cases() {
            for isl in IslClass::ALL {
                points.push((kw, app, res, ed, isl));
            }
        }
    }
    Space::from_points("fig11", points, |&(kw, app, res, ed, isl)| {
        format!("kw={kw};app={app};res={res};ed={ed};isl={isl}")
    })
}

/// Evaluates one Fig. 11 point on an RTX 3090 SµDC of the given power.
pub fn fig11_row(
    satellites: usize,
    &(kw, app, resolution, discard_rate, isl): &(f64, Application, Length, f64, IslClass),
) -> Fig11Row {
    let spec = SudcSpec {
        compute_power: Power::from_kilowatts(kw),
        device: Device::Rtx3090,
        hardening: workloads::Hardening::None,
    };
    Fig11Row {
        sudc_kw: kw,
        app,
        resolution,
        discard_rate,
        isl,
        analysis: clusters_needed(&spec, app, resolution, discard_rate, satellites, isl),
    }
}

/// Evaluates the Fig. 11 sweep — 4 kW and 256 kW RTX 3090 SµDCs over
/// the figure's workload cases and all ISL classes, for the 64-satellite
/// reference constellation (via the `explore` engine, sequentially).
pub fn fig11_sweep() -> Vec<Fig11Row> {
    let space = fig11_space(&[4.0, 256.0]);
    explore::sweep(&space, &explore::ExecOptions::sequential(), |p| {
        fig11_row(crate::sizing::PAPER_CONSTELLATION, p)
    })
    .results
}

impl explore::Cacheable for Fig11Row {
    fn encode(&self) -> String {
        let mut e = explore::Enc::new()
            .f64(self.sudc_kw)
            .u64(app_index(self.app))
            .f64(self.resolution.as_m())
            .f64(self.discard_rate)
            .u64(isl_index(self.isl))
            .bool(self.analysis.is_some());
        if let Some(a) = &self.analysis {
            e = e
                .usize(a.compute_clusters)
                .usize(a.isl_clusters)
                .usize(a.clusters)
                .bool(a.binding == BindingConstraint::Isl);
        }
        e.finish()
    }

    fn decode(s: &str) -> Option<Self> {
        let mut d = explore::Dec::new(s);
        let sudc_kw = d.f64()?;
        let app = app_from_index(d.u64()?)?;
        let resolution = Length::from_m(d.f64()?);
        let discard_rate = d.f64()?;
        let isl = isl_from_index(d.u64()?)?;
        let analysis = if d.bool()? {
            Some(ClusterAnalysis {
                compute_clusters: d.usize()?,
                isl_clusters: d.usize()?,
                clusters: d.usize()?,
                binding: if d.bool()? {
                    BindingConstraint::Isl
                } else {
                    BindingConstraint::Compute
                },
            })
        } else {
            None
        };
        Some(Self {
            sudc_kw,
            app,
            resolution,
            discard_rate,
            isl,
            analysis,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use units::Time;
    use workloads::Device;

    /// The paper's published Table 8 (rows: ED ∈ {0, .5, .95, .99};
    /// left block 3 m / 30 cm, right block 1 m / 10 cm).
    fn paper_table8(resolution_m: f64, ed: f64, gbps: f64) -> usize {
        match (resolution_m, ed, gbps as u32) {
            (3.0, 0.0, 1) => 9, // paper rounds its own formula up here
            (3.0, 0.0, 10) => 98,
            (3.0, 0.0, 100) => 992,
            (3.0, 0.5, 1) => 18,
            (3.0, 0.5, 10) => 198,
            (3.0, 0.5, 100) => 1986,
            (3.0, 0.95, 1) => 198,
            (3.0, 0.95, 10) => 1986,
            (3.0, 0.95, 100) => 19868,
            (3.0, 0.99, 1) => 992,
            (3.0, 0.99, 10) => 9934,
            (3.0, 0.99, 100) => 99340,
            (1.0, 0.0, 1) => 1, // second paper-rounding anomaly
            (1.0, 0.0, 10) => 10,
            (1.0, 0.0, 100) => 110,
            (1.0, 0.5, 1) => 2,
            (1.0, 0.5, 10) => 22,
            (1.0, 0.5, 100) => 220,
            (1.0, 0.95, 1) => 22,
            (1.0, 0.95, 10) => 220,
            (1.0, 0.95, 100) => 2206,
            (1.0, 0.99, 1) => 110,
            (1.0, 0.99, 10) => 1102,
            (1.0, 0.99, 100) => 11036,
            (0.3, 0.0, 100) => 8,
            (0.3, 0.5, 100) => 18,
            (0.3, 0.95, 10) => 18,
            (0.3, 0.95, 100) => 198,
            (0.3, 0.99, 1) => 8,
            (0.3, 0.99, 10) => 98,
            (0.3, 0.99, 100) => 992,
            (0.3, _, _) => 0,
            (0.1, 0.95, 10) => 2,
            (0.1, 0.95, 100) => 22,
            (0.1, 0.99, 10) => 10,
            (0.1, 0.99, 100) => 110,
            (0.1, _, _) => 0,
            _ => panic!("unlisted cell"),
        }
    }

    #[test]
    fn reproduces_paper_table8_within_rounding() {
        let mut exact = 0usize;
        let mut total = 0usize;
        for res_m in [3.0, 1.0, 0.3, 0.1] {
            for ed in [0.0, 0.5, 0.95, 0.99] {
                for gbps in [1.0, 10.0, 100.0] {
                    let ours =
                        ring_supportable(DataRate::from_gbps(gbps), Length::from_m(res_m), ed);
                    let paper = paper_table8(res_m, ed, gbps);
                    total += 1;
                    if ours == paper {
                        exact += 1;
                    } else {
                        // The two known paper-rounding anomalies differ by
                        // exactly 1.
                        assert!(
                            (ours as i64 - paper as i64).abs() <= 2,
                            "cell ({res_m} m, {ed}, {gbps} Gb/s): ours {ours}, paper {paper}"
                        );
                    }
                }
            }
        }
        assert!(
            exact >= 44,
            "expected ≥44/48 exact Table 8 matches, got {exact}/{total}"
        );
    }

    #[test]
    fn sub_100gbps_insufficient_at_high_rates() {
        // Paper: "<100 Gbit/s ISLs are often insufficient to support even
        // a single EO satellite for high data rates. Even 100 Gbit/s ISLs
        // fail at 10 cm".
        assert_eq!(
            ring_supportable(DataRate::from_gbps(10.0), Length::from_cm(30.0), 0.0),
            0
        );
        assert_eq!(
            ring_supportable(DataRate::from_gbps(100.0), Length::from_cm(10.0), 0.0),
            0
        );
    }

    #[test]
    fn low_rates_support_more_than_a_plane_holds() {
        // Paper: "a single SµDC can support a large number of EO
        // satellites at low data generation rates — more than what would
        // realistically be placed into a single orbital plane".
        let n = ring_supportable(DataRate::from_gbps(100.0), Length::from_m(3.0), 0.99);
        assert!(n > 10_000, "got {n}");
    }

    #[test]
    fn fig11_sweep_covers_both_power_classes() {
        let rows = fig11_sweep();
        assert_eq!(rows.len(), 2 * 5 * 3);
        assert!(rows[..15].iter().all(|r| r.sudc_kw == 4.0));
        assert!(rows[15..].iter().all(|r| r.sudc_kw == 256.0));
        // Every Fig. 11 case runs on the RTX 3090.
        assert!(rows.iter().all(|r| r.analysis.is_some()));
    }

    #[test]
    fn fig11_sweep_matches_clusters_needed() {
        for row in fig11_sweep() {
            let spec = SudcSpec {
                compute_power: units::Power::from_kilowatts(row.sudc_kw),
                device: Device::Rtx3090,
                hardening: workloads::Hardening::None,
            };
            let direct = clusters_needed(
                &spec,
                row.app,
                row.resolution,
                row.discard_rate,
                crate::sizing::PAPER_CONSTELLATION,
                row.isl,
            );
            assert_eq!(row.analysis, direct);
        }
    }

    #[test]
    fn bottleneck_rows_cache_round_trip() {
        use explore::Cacheable;
        let space = table8_space(
            &FrameSpec::paper_resolutions(),
            &FrameSpec::paper_discard_rates(),
        );
        for cell in space.points().iter().take(6).map(table8_cell) {
            assert_eq!(Table8Cell::decode(&cell.encode()), Some(cell));
        }
        for row in fig11_sweep() {
            assert_eq!(Fig11Row::decode(&row.encode()), Some(row));
        }
        // A missing analysis round-trips as None.
        let unmeasured = Fig11Row {
            sudc_kw: 4.0,
            app: Application::TrafficMonitoring,
            resolution: Length::from_m(1.0),
            discard_rate: 0.0,
            isl: IslClass::Gbps1,
            analysis: None,
        };
        assert_eq!(Fig11Row::decode(&unmeasured.encode()), Some(unmeasured));
    }

    #[test]
    fn fig11_lightweight_apps_are_isl_bottlenecked() {
        // TM at 4 kW computes far more pixels than two 1 Gbit/s ISLs can
        // feed: ISL binds.
        let spec = SudcSpec::paper_4kw(Device::Rtx3090);
        let a = clusters_needed(
            &spec,
            Application::TrafficMonitoring,
            Length::from_m(1.0),
            0.0,
            64,
            IslClass::Gbps1,
        )
        .unwrap();
        assert_eq!(a.binding, BindingConstraint::Isl);
        assert!(a.clusters > a.compute_clusters);
    }

    #[test]
    fn fig11_bottleneck_vanishes_with_fast_isls() {
        // Paper: "As ISL capacity increases, the bottleneck goes away,
        // and the number of clusters required matches the number of
        // SµDCs needed to support the computation".
        let spec = SudcSpec::paper_4kw(Device::Rtx3090);
        let a = clusters_needed(
            &spec,
            Application::FloodDetection,
            Length::from_m(1.0),
            0.5,
            64,
            IslClass::Gbps100,
        )
        .unwrap();
        assert_eq!(a.binding, BindingConstraint::Compute);
        assert_eq!(a.clusters, a.compute_clusters);
    }

    #[test]
    fn fig11_high_power_sudcs_more_likely_bottlenecked() {
        // Paper: "high power SµDCs are more likely to be ISL-bottlenecked
        // than low power SµDCs".
        let small = SudcSpec::paper_4kw(Device::Rtx3090);
        let big = SudcSpec::station_256kw(Device::Rtx3090);
        let cfg = (
            Application::UrbanEmergency,
            Length::from_cm(30.0),
            0.95,
            64usize,
            IslClass::Gbps10,
        );
        let a_small = clusters_needed(&small, cfg.0, cfg.1, cfg.2, cfg.3, cfg.4).unwrap();
        let a_big = clusters_needed(&big, cfg.0, cfg.1, cfg.2, cfg.3, cfg.4).unwrap();
        // The big SµDC needs fewer compute clusters but the same ISL
        // clusters, so ISL binds for it.
        assert!(a_big.compute_clusters <= a_small.compute_clusters);
        assert_eq!(a_big.isl_clusters, a_small.isl_clusters);
        assert_eq!(a_big.binding, BindingConstraint::Isl);
    }

    #[test]
    fn infeasible_ring_reports_sentinel() {
        let spec = SudcSpec::paper_4kw(Device::Rtx3090);
        let a = clusters_needed(
            &spec,
            Application::FloodDetection,
            Length::from_cm(10.0),
            0.0,
            64,
            IslClass::Gbps1,
        )
        .unwrap();
        assert_eq!(a.isl_clusters, usize::MAX);
        assert_eq!(a.binding, BindingConstraint::Isl);
    }

    mod properties {
        use super::*;
        use simkit::prop;

        #[test]
        fn supportable_monotone_in_capacity() {
            prop::check("supportable_monotone_in_capacity", 256, |g| {
                let gbps = g.draw(0.1f64..200.0);
                let res_m = g.draw(0.05f64..5.0);
                let ed = g.draw(0.0f64..0.995);

                let lo = ring_supportable(DataRate::from_gbps(gbps), Length::from_m(res_m), ed);
                let hi =
                    ring_supportable(DataRate::from_gbps(gbps * 2.0), Length::from_m(res_m), ed);
                assert!(hi >= lo);
                // Doubling capacity roughly doubles supportable count.
                assert!(hi <= 2 * lo + 2);
            });
        }

        #[test]
        fn supportable_monotone_in_discard() {
            prop::check("supportable_monotone_in_discard", 256, |g| {
                let gbps = g.draw(0.1f64..200.0);
                let res_m = g.draw(0.05f64..5.0);
                let ed = g.draw(0.0f64..0.9);

                let base = ring_supportable(DataRate::from_gbps(gbps), Length::from_m(res_m), ed);
                let more =
                    ring_supportable(DataRate::from_gbps(gbps), Length::from_m(res_m), ed + 0.05);
                assert!(more >= base);
            });
        }

        #[test]
        fn finer_resolution_never_helps() {
            prop::check("finer_resolution_never_helps", 256, |g| {
                let gbps = g.draw(0.1f64..200.0);
                let res_m = g.draw(0.2f64..5.0);
                let ed = g.draw(0.0f64..0.99);

                let coarse = ring_supportable(DataRate::from_gbps(gbps), Length::from_m(res_m), ed);
                let fine =
                    ring_supportable(DataRate::from_gbps(gbps), Length::from_m(res_m / 2.0), ed);
                assert!(fine <= coarse);
            });
        }
    }

    #[test]
    fn prose_example_over_four_images_per_link() {
        // Sec. 7 prose: at 3 m and 1 Gbit/s, each ISL carries >4 images
        // per 1.5 s.
        let per_link = DataRate::from_gbps(1.0) * Time::from_secs(1.5)
            / FrameSpec::paper().frame_size(Length::from_m(3.0));
        assert!(per_link > 4.0 && per_link < 5.0, "got {per_link}");
    }
}
