//! Cross-crate integration tests: flows that span the orbital, imaging,
//! compression, communication, and sizing layers.

use compress::CodecKind;
use imagery::synth::{Scene, SceneKind};
use orbit::circular::CircularOrbit;
use sudc::sizing::SudcSpec;
use units::{Angle, DataRate, Length};
use workloads::{Application, Device};

/// A full design loop: pick a mission, check the downlink fails, check
/// the satellites cannot compute it, and verify the SµDC answer is
/// self-consistent with the ISL bottleneck model.
#[test]
fn design_loop_is_internally_consistent() {
    let resolution = Length::from_cm(30.0);
    let discard = 0.5;
    let satellites = 64;
    let app = Application::CropMonitoring;

    // 1. Downlink deficit is severe with realistic contact counts.
    let scenario = sudc::deficit::DeficitScenario {
        early_discard: discard,
        ..sudc::deficit::DeficitScenario::paper()
    };
    assert!(scenario.downlink_deficit(resolution, 8.0) > 0.5);

    // 2. No small satellite can host the compute.
    let frame = imagery::FrameSpec::paper();
    let p = sudc::onboard::power_needed(app, Device::JetsonAgxXavier, resolution, discard, &frame)
        .unwrap();
    assert!(p.as_kilowatts() > 1.0, "needs {p} on board");

    // 3. A SµDC fleet exists and the bottleneck analysis agrees with the
    // per-piece models it is built from.
    let spec = SudcSpec::paper_4kw(Device::Rtx3090);
    let compute = sudc::sizing::sudcs_needed(&spec, app, resolution, discard, satellites).unwrap();
    for isl in comms::IslClass::ALL {
        let a = sudc::bottleneck::clusters_needed(&spec, app, resolution, discard, satellites, isl)
            .unwrap();
        assert_eq!(a.compute_clusters, compute);
        assert!(a.clusters >= compute);
        let per_cluster = sudc::bottleneck::ring_supportable(isl.capacity(), resolution, discard);
        if per_cluster > 0 {
            assert_eq!(a.isl_clusters, satellites.div_ceil(per_cluster));
        }
    }
}

/// The optical-ISL power model, ring geometry, and k-list topology agree
/// about the Sec. 8 power story.
#[test]
fn klist_power_story_is_consistent_across_crates() {
    let plane = constellation::OrbitalPlane::paper_reference();
    let terminal = comms::optical::OpticalTerminal::leo_class();
    let rate = DataRate::from_gbps(10.0);

    let ring_power = terminal.power_for(rate, plane.link_distance(1));
    for k in [4usize, 6, 8] {
        let topo = constellation::topology::ClusterTopology::k_list(
            k,
            constellation::topology::Formation::OrbitSpaced,
        );
        let link_power = terminal.power_for(rate, topo.link_distance(plane.link_distance(1)));
        let expected = ring_power * topo.link_distance_multiplier().powi(2);
        assert!(
            (link_power.as_watts() - expected.as_watts()).abs() < 1e-6,
            "k = {k}"
        );
    }
}

/// GEO placement trade: less eclipse and less boost, more radiation —
/// quantified consistently across the orbit crate's modules.
#[test]
fn geo_vs_leo_placement_tradeoffs() {
    use orbit::drag::{annual_stationkeeping_delta_v, Spacecraft};
    use orbit::eclipse::{annual_eclipse, orbit_normal};
    use orbit::radiation::RadiationRegime;

    let leo = CircularOrbit::from_altitude(Length::from_km(550.0));
    let geo = CircularOrbit::geostationary();
    let sc = Spacecraft::sudc_4kw();

    // Eclipse: LEO ~1/3, GEO ~tiny.
    let leo_ecl = annual_eclipse(leo, orbit_normal(Angle::from_degrees(53.0), Angle::ZERO));
    let geo_ecl = annual_eclipse(geo, orbit_normal(Angle::ZERO, Angle::ZERO));
    assert!(leo_ecl.mean_fraction > 5.0 * geo_ecl.mean_fraction);

    // Boost: LEO pays drag make-up, GEO effectively none.
    assert!(
        annual_stationkeeping_delta_v(leo, &sc).as_m_per_s()
            > 100.0 * annual_stationkeeping_delta_v(geo, &sc).as_m_per_s()
    );

    // Radiation: GEO sits in the outer belt.
    assert_eq!(
        RadiationRegime::from_altitude(geo.altitude()),
        RadiationRegime::OuterBelt
    );
    assert_eq!(
        RadiationRegime::from_altitude(leo.altitude()),
        RadiationRegime::Leo
    );

    // Consequence: the SµDC array sizing differs accordingly.
    let spec = SudcSpec::paper_4kw(Device::Rtx3090);
    assert!(spec.array_power(leo_ecl.mean_fraction) > spec.array_power(geo_ecl.mean_fraction));
}

/// Compression ratios measured through the full imagery + codec stack
/// reproduce the Table 4 ordering on both scene families.
#[test]
fn compression_ordering_matches_table4_shape() {
    let rgb = Scene::new(SceneKind::UrbanRgb, 5).render(160, 160);
    let sar = Scene::new(SceneKind::SarOcean, 5).render(160, 160);

    let ratio = |kind: CodecKind, img: &compress::Raster| kind.raster_codec().raster_ratio(img);

    // RGB: every lossless codec lands in the 1–8× band; RLE is worst.
    let rgb_rle = ratio(CodecKind::Rle, &rgb);
    for kind in CodecKind::ALL {
        let r = ratio(kind, &rgb);
        assert!(r >= 0.9 && r < 8.0, "{kind} on RGB: {r}");
        assert!(r >= rgb_rle * 0.9, "{kind} should not lose badly to RLE");
    }

    // SAR: zip and PNG explode; CCSDS pinned near the Rice floor.
    let sar_zip = ratio(CodecKind::ZipLike, &sar);
    let sar_ccsds = ratio(CodecKind::CcsdsLike, &sar);
    assert!(sar_zip > 30.0, "zip on SAR: {sar_zip}");
    assert!(sar_ccsds < 16.0, "CCSDS on SAR: {sar_ccsds}");
    assert!(sar_zip > 5.0 * sar_ccsds);
}
