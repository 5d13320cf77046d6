//! Integration tests of the user-traffic serving layer: the closed-loop
//! load generator's concurrency bound (property-tested across generator
//! shapes and seeds) and double-run determinism of every named serve
//! scenario across the gates' topology matrix (ring, klist:4, geo,
//! split:4).

use simkit::prop;
use sudc::sim::serve::{ServeConfig, TenantClass, TenantSpec};
use sudc::sim::{try_run, ServeScenario, SimConfig, SimTopology};
use units::{Length, Time};
use workloads::Application;

fn reference(minutes: f64) -> SimConfig {
    let mut cfg = SimConfig::paper_reference(Application::AirPollution, Length::from_m(3.0), 0.95);
    cfg.clusters = 4;
    cfg.duration = Time::from_minutes(minutes);
    cfg
}

/// The gates' topology matrix, as config edits.
fn topology_matrix() -> Vec<(&'static str, SimConfig)> {
    let mut klist = reference(1.0);
    klist.ingest_links = 4;
    let mut geo = reference(1.0);
    geo.topology = SimTopology::GeoStar;
    let mut split = reference(1.0);
    split.topology = SimTopology::SplitRing { factor: 4 };
    vec![
        ("ring", reference(1.0)),
        ("klist:4", klist),
        ("geo", geo),
        ("split:4", split),
    ]
}

/// Overlays the named serve scenario (tenants, batching, and its fault
/// model) onto a base config.
fn scenario_config(name: &str, base: &SimConfig) -> SimConfig {
    let sc = ServeScenario::scenario(name).expect("named scenario exists");
    let mut cfg = base.clone();
    cfg.serve = Some(sc.serve);
    cfg.faults = sc.faults;
    cfg
}

/// Same seed + same scenario must reproduce the full report — the SLO
/// tables the CLI writes are byte-derived from it — on every topology
/// the `repro sim --serve` double runs in `crates/bench/tests/gates.rs`
/// exercise.
#[test]
fn every_serve_scenario_is_double_run_identical_across_topologies() {
    for (label, base) in topology_matrix() {
        for name in ServeScenario::scenario_names() {
            let cfg = scenario_config(name, &base);
            let first = try_run(&cfg).expect("serve scenario config is valid");
            let second = try_run(&cfg).expect("serve scenario config is valid");
            assert_eq!(first, second, "'{name}' on {label} diverged across reruns");
            let serve = first.serve.expect("serve runs carry a serve report");
            assert!(serve.offered() > 0, "'{name}' on {label} offered nothing");
        }
    }
}

/// The serving overlay must not perturb the frame pipeline's RNG
/// draws: a non-serve report is identical whether or not the serve
/// module exists in the build that produced it, so the committed
/// simval artifacts stay valid.
#[test]
fn non_serve_reports_ignore_the_serving_layer() {
    for (label, base) in topology_matrix() {
        let plain = try_run(&base).expect("reference config is valid");
        assert!(plain.serve.is_none(), "{label}: no serve config, no report");
        let again = try_run(&base).expect("reference config is valid");
        assert_eq!(plain, again, "{label}: non-serve run not deterministic");
    }
}

/// A closed-loop tenant models `concurrency` users who each wait
/// for their response (then think) before sending again, so the
/// generator can never have more requests outstanding than users —
/// whatever the think time, seed, or pacing.
#[test]
fn closed_loop_inflight_never_exceeds_concurrency() {
    prop::check("closed_loop_inflight_never_exceeds_concurrency", 12, |g| {
        let concurrency = g.draw(1usize..10);
        let think_s = g.draw(0.0f64..1.5);
        let seed = g.draw(0u64..1_000);

        let mut cfg = reference(0.5);
        cfg.seed = seed;
        let mut serve = ServeConfig::defaults();
        serve.tenants = vec![TenantSpec::closed(
            "sessions",
            TenantClass::Standard,
            concurrency,
            think_s,
        )];
        cfg.serve = Some(serve);
        let report = try_run(&cfg).expect("closed-loop config is valid");
        let serve = report.serve.expect("serve config set");
        let t = &serve.tenants[0];
        assert!(
            t.peak_inflight <= concurrency as u64,
            "peak inflight {} exceeds concurrency {concurrency}",
            t.peak_inflight,
        );
        assert!(t.offered > 0, "closed loop never issued a request");
        assert_eq!(
            t.offered,
            t.admitted + t.throttled + t.shed,
            "admission must account for every offered request"
        );
    });
}
