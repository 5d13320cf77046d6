//! Cross-validation of the closed-form Table 8 / Fig. 11 models against
//! the discrete-event simulator, beyond the cases baked into the simval
//! experiment.

use sudc::sim::{run, FaultModel, SimConfig, SimTopology};
use sudc::sizing::SudcSpec;
use units::{DataRate, Length, Time};
use workloads::{Application, Device};

fn config(
    app: Application,
    res: Length,
    discard: f64,
    isl_gbps: f64,
    clusters: usize,
) -> SimConfig {
    let mut cfg = SimConfig::paper_reference(app, res, discard);
    cfg.isl_capacity = DataRate::from_gbps(isl_gbps);
    cfg.clusters = clusters;
    cfg.duration = Time::from_minutes(2.0);
    cfg
}

fn simulate(
    app: Application,
    res: Length,
    discard: f64,
    isl_gbps: f64,
    clusters: usize,
) -> sudc::sim::SimReport {
    run(&config(app, res, discard, isl_gbps, clusters))
}

/// Table 8 predicts each ring cluster of 16 satellites needs ≥16
/// supportable satellites per SµDC. Sweep ISL capacity across the
/// boundary and check the simulator flips from overloaded to stable
/// where the model says.
#[test]
fn isl_capacity_boundary_matches_table8() {
    // 1 m, 50% discard: per-sat rate = 906 Mbit/s. A cluster of 16 needs
    // 8 streams per ingest link → needs ≥ 7.25 Gbit/s links.
    let res = Length::from_m(1.0);
    let discard = 0.5;
    let clusters = 4; // 16 satellites each

    let under = sudc::bottleneck::ring_supportable(DataRate::from_gbps(5.0), res, discard);
    assert!(under < 16, "model: 5 Gbit/s supports only {under}");
    let over = sudc::bottleneck::ring_supportable(DataRate::from_gbps(10.0), res, discard);
    assert!(over >= 16, "model: 10 Gbit/s supports {over}");

    // Light app so compute never binds.
    let slow = simulate(Application::TrafficMonitoring, res, discard, 5.0, clusters);
    let fast = simulate(Application::TrafficMonitoring, res, discard, 10.0, clusters);
    assert!(!slow.stable, "5 Gbit/s should overload: {slow:?}");
    assert!(fast.stable, "10 Gbit/s should sustain: {fast:?}");
}

/// Fig. 9 compute sizing: the simulator agrees with `sudcs_needed` about
/// how many clusters a heavy DNN needs.
#[test]
fn compute_cluster_count_matches_sizing_model() {
    let app = Application::OilSpill; // 231 kpx/s/W → 0.924 Gpx/s per SµDC
    let res = Length::from_m(1.0);
    let discard = 0.5;
    let spec = SudcSpec::paper_4kw(Device::Rtx3090);
    let needed = sudc::sizing::sudcs_needed(&spec, app, res, discard, 64).unwrap();
    assert!(needed > 1, "pick a case where one SµDC is not enough");

    // Round the model's answer up to a divisor of 64 for the ring split.
    let feasible_clusters = [1usize, 2, 4, 8, 16, 32, 64];
    let chosen = *feasible_clusters
        .iter()
        .find(|&&c| c >= needed)
        .expect("some divisor suffices");

    let under = simulate(app, res, discard, 100.0, (chosen / 2).max(1));
    let over = simulate(app, res, discard, 100.0, chosen);
    assert!(
        !under.stable,
        "half the model's clusters should overload: {under:?}"
    );
    assert!(
        over.stable,
        "the model's cluster count should sustain: {over:?}"
    );
}

/// Goodput degrades monotonically as the SµDC count drops below the
/// requirement.
#[test]
fn goodput_degrades_gracefully_with_fewer_sudcs() {
    let app = Application::FloodDetection;
    let res = Length::from_m(1.0);
    let discard = 0.0;
    let g8 = simulate(app, res, discard, 100.0, 8).goodput;
    let g4 = simulate(app, res, discard, 100.0, 4).goodput;
    let g2 = simulate(app, res, discard, 100.0, 2).goodput;
    assert!(g8 >= g4 - 0.05, "8 clusters {g8} vs 4 {g4}");
    assert!(g4 >= g2 - 0.05, "4 clusters {g4} vs 2 {g2}");
    assert!(g8 > 0.9, "8 clusters should nearly keep up: {g8}");
    assert!(g2 < 0.7, "2 clusters should visibly drop frames: {g2}");
}

/// Latency stays near the service floor when unloaded and blows up at
/// saturation.
#[test]
fn latency_reflects_load() {
    let light = simulate(
        Application::AirPollution,
        Length::from_m(3.0),
        0.95,
        10.0,
        4,
    );
    let heavy = simulate(Application::AirPollution, Length::from_m(1.0), 0.0, 1.0, 1);
    assert!(
        light.mean_latency_s < 2.0,
        "unloaded latency {}",
        light.mean_latency_s
    );
    assert!(
        heavy.mean_latency_s > 5.0 * light.mean_latency_s,
        "saturated latency {} vs {}",
        heavy.mean_latency_s,
        light.mean_latency_s
    );
}

/// Sec. 8 k-lists: striping each arc side into `k/2` relay chains
/// multiplies the Table 8 ingest bound by `k/2`. Pick an ISL capacity
/// where the plain ring (k = 2) cannot feed its 16-satellite arcs but
/// the generalised closed-form bound says k = 4 can, and check the
/// simulator flips to stable exactly there (and stays stable at k = 8).
#[test]
fn klist_relieves_the_isl_bound_where_the_model_says() {
    let res = Length::from_m(1.0);
    let discard = 0.5;
    let clusters = 4; // 16-satellite arcs
    let per_cluster = sudc::bottleneck::ring_supportable(DataRate::from_gbps(5.0), res, discard);
    assert!(per_cluster < 16, "ring bound must bind: {per_cluster}");
    assert!(2 * per_cluster >= 16, "k=4 bound must clear 16");

    // The Fig. 13 codesign model prices the same scaling: aggregate
    // capacity grows as k/2 while ISL power grows as (k/2)².
    let c2 = sudc::codesign::fig13_point(2, 1);
    let c4 = sudc::codesign::fig13_point(4, 1);
    let c8 = sudc::codesign::fig13_point(8, 1);
    assert!((c4.capacity_norm / c2.capacity_norm - 2.0).abs() < 1e-9);
    assert!((c8.capacity_norm / c2.capacity_norm - 4.0).abs() < 1e-9);
    assert!(
        c4.power_norm > 2.0 * c2.power_norm,
        "k-lists buy capacity with power"
    );

    let mut cfg = config(Application::TrafficMonitoring, res, discard, 5.0, clusters);
    let ring = run(&cfg);
    assert!(!ring.stable, "k=2 should overload at 5 Gbit/s: {ring:?}");
    for k in [4usize, 8] {
        cfg.ingest_links = k;
        let report = run(&cfg);
        assert!(
            report.stable,
            "k={k} should sustain at 5 Gbit/s: {report:?}"
        );
        assert!(
            report.goodput > ring.goodput,
            "k={k} goodput {} vs ring {}",
            report.goodput,
            ring.goodput
        );
    }
}

/// Fig. 15 GEO star: direct uplinks remove the relay bottleneck
/// entirely (the same 5 Gbit/s links that overload the ring carry one
/// satellite's stream each), at the price of ~0.13 s of LEO→GEO
/// propagation — but the compute sizing model still binds.
#[test]
fn geo_star_trades_relay_bound_for_uplink_latency() {
    let res = Length::from_m(1.0);
    let discard = 0.5;

    // ISL-bound case: the ring overloads, the star does not.
    let mut cfg = config(Application::TrafficMonitoring, res, discard, 5.0, 4);
    let ring = run(&cfg);
    assert!(!ring.stable, "ring should overload at 5 Gbit/s: {ring:?}");
    cfg.topology = SimTopology::GeoStar;
    let star = run(&cfg);
    assert!(star.stable, "direct uplinks should sustain: {star:?}");
    let uplink_s = 38_000e3 / 299_792_458.0;
    assert!(
        star.mean_latency_s > uplink_s,
        "GEO latency {} must include the {uplink_s:.3} s uplink",
        star.mean_latency_s
    );

    // Compute-bound case: no topology rescues an undersized SµDC fleet,
    // exactly as the Fig. 9 sizing model prescribes.
    let app = Application::OilSpill;
    let spec = SudcSpec::paper_4kw(Device::Rtx3090);
    let needed = sudc::sizing::sudcs_needed(&spec, app, res, discard, 64).unwrap();
    let mut cfg = config(app, res, discard, 100.0, (needed / 2).max(1));
    cfg.topology = SimTopology::GeoStar;
    let starved = run(&cfg);
    assert!(
        !starved.stable,
        "half the sizing model's SµDCs should overload even in GEO: {starved:?}"
    );
}

/// Sec. 8 SµDC splitting: a split ring multiplies ingest capacity (the
/// Fig. 13 model says linearly in the factor) because each sub-arc is
/// shorter — but it divides per-unit compute, so it cannot rescue a
/// compute-bound configuration.
#[test]
fn split_ring_relieves_isl_but_not_compute_per_the_models() {
    let res = Length::from_m(1.0);
    let discard = 0.5;

    // Closed-form anchor: splitting scales capacity and power linearly.
    let base = sudc::codesign::fig13_point(2, 1);
    let split4 = sudc::codesign::fig13_point(2, 4);
    assert!((split4.capacity_norm / base.capacity_norm - 4.0).abs() < 1e-9);
    assert!((split4.power_norm / base.power_norm - 4.0).abs() < 1e-9);

    // ISL-bound case: factor 4 shrinks 16-satellite arcs to 4, under
    // the Table 8 bound for 5 Gbit/s links, so the sim goes stable.
    let per_cluster = sudc::bottleneck::ring_supportable(DataRate::from_gbps(5.0), res, discard);
    assert!(per_cluster >= 4, "sub-arc of 4 must fit the bound");
    let mut cfg = config(Application::TrafficMonitoring, res, discard, 5.0, 4);
    let ring = run(&cfg);
    assert!(!ring.stable, "unsplit ring should overload: {ring:?}");
    cfg.topology = SimTopology::SplitRing { factor: 4 };
    let split = run(&cfg);
    assert!(split.stable, "factor 4 should sustain: {split:?}");

    // Compute-bound case: splitting leaves total compute unchanged, so
    // an undersized fleet stays undersized at any factor.
    let app = Application::OilSpill;
    let spec = SudcSpec::paper_4kw(Device::Rtx3090);
    let needed = sudc::sizing::sudcs_needed(&spec, app, res, discard, 64).unwrap();
    let starved_clusters = (needed / 2).max(1);
    let mut cfg = config(app, res, discard, 100.0, starved_clusters);
    let whole = run(&cfg);
    assert!(!whole.stable, "undersized fleet should overload: {whole:?}");
    cfg.topology = SimTopology::SplitRing { factor: 2 };
    let split = run(&cfg);
    assert!(!split.stable, "splitting must not mint compute: {split:?}");
}

/// Every topology replays byte-for-byte under the same seed — the
/// refactored engine's determinism contract, checked across the whole
/// shape matrix, with and without fault injection.
#[test]
fn topology_matrix_is_deterministic_under_the_same_seed() {
    let shapes: [(&str, SimTopology, usize); 4] = [
        ("ring", SimTopology::Ring, 2),
        ("klist4", SimTopology::Ring, 4),
        ("geo", SimTopology::GeoStar, 2),
        ("split4", SimTopology::SplitRing { factor: 4 }, 2),
    ];
    for (name, topology, ingest_links) in shapes {
        let mut cfg = config(
            Application::AirPollution,
            Length::from_m(3.0),
            0.95,
            10.0,
            4,
        );
        cfg.topology = topology;
        cfg.ingest_links = ingest_links;
        cfg.duration = Time::from_minutes(1.0);
        assert_eq!(run(&cfg), run(&cfg), "{name}: fault-free replay diverged");
        cfg.faults = FaultModel::scenario("combined").expect("combined scenario");
        assert_eq!(run(&cfg), run(&cfg), "{name}: faulted replay diverged");
    }
}

/// The simval experiment's own agreement note reports full agreement.
#[test]
fn simval_experiment_agrees() {
    let r = sudc::experiments::run("simval").unwrap();
    let note = r.notes.first().expect("agreement note");
    let expected = format!("{}/{} configurations agree", r.rows.len(), r.rows.len());
    assert_eq!(note, &expected, "rows: {:?}", r.rows);
}
