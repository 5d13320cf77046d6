//! End-to-end tests of the adaptive control plane (`sim/policy`).
//!
//! The load-bearing contract: the `Static` controller (the default) is
//! the pre-policy engine, byte for byte — same reports sequentially and
//! under the sharded loop, across every topology × fault scenario the
//! committed artifacts cover. The adaptive controllers (`reactive`,
//! `predictive`) are allowed to change outcomes, but must replay
//! exactly under the same seed, and reactive must actually earn its
//! keep on the leaderboard: strictly better goodput at equal
//! availability under `flaky_links`.

use sudc::sim::{run, try_run_threads, FaultModel, PolicyKind, SimConfig, SimReport, SimTopology};
use units::{Length, Time};
use workloads::Application;

/// Asserts the report's conservation invariants and passes it on.
fn checked(report: SimReport) -> SimReport {
    if let Err(e) = report.check_invariants() {
        panic!("report breaks an invariant: {e}\n{report:?}");
    }
    report
}

/// Asserts a sharded report matches the sequential one under the
/// sharding contract (same one `crates/core/src/sim/parallel.rs` pins):
/// every artifact-visible field exact, except the scheduler's peak
/// queue depth (merged per-shard peaks are an aggregate bound, not the
/// global sequential peak) and `mean_latency_s`, whose ascending absorb
/// is ULP-exact only to ~1e-9 (artifacts render it at 4 decimals).
fn assert_matches_sequential(par: &SimReport, seq: &SimReport, ctx: &str) {
    let view = |r: &SimReport| {
        let mut r = r.clone();
        r.scheduler.peak_queue_depth = 0;
        r.mean_latency_s = 0.0;
        r
    };
    assert!(
        (par.mean_latency_s - seq.mean_latency_s).abs() < 1e-9,
        "mean latency diverged on {ctx}"
    );
    assert_eq!(view(par), view(seq), "4-thread static diverged on {ctx}");
}

/// The paper-reference 2-minute run, 4 clusters, with a topology and
/// fault scenario applied — mirroring `repro sim`'s config builder.
fn reference(topology: SimTopology, ingest_links: Option<usize>, scenario: &str) -> SimConfig {
    let mut cfg = SimConfig::paper_reference(Application::AirPollution, Length::from_m(3.0), 0.95);
    cfg.topology = topology;
    if let Some(k) = ingest_links {
        cfg.ingest_links = k;
    }
    cfg.clusters = 4;
    cfg.duration = Time::from_minutes(2.0);
    cfg.faults = FaultModel::scenario(scenario).expect("registered scenario");
    cfg
}

/// The topology matrix `crates/bench/tests/gates.rs` byte-diffs: ring,
/// 4-list ring, GEO star, split ring.
fn topology_matrix() -> Vec<(SimTopology, Option<usize>, &'static str)> {
    vec![
        (SimTopology::Ring, None, "ring"),
        (SimTopology::Ring, Some(4), "klist:4"),
        (SimTopology::GeoStar, None, "geo"),
        (SimTopology::SplitRing { factor: 4 }, None, "split:4"),
    ]
}

/// A config that never mentions `policy` and one that names `static`
/// produce the same report, field for field, on every topology × fault
/// scenario — sequentially and under the 4-way sharded loop. This is
/// what keeps every committed `simval`/`faults_*`/`serve_*` artifact
/// byte-identical across the control-plane refactor.
#[test]
fn static_policy_is_the_pre_policy_engine_everywhere() {
    for (topology, ingest, topo_name) in topology_matrix() {
        for scenario in FaultModel::scenario_names() {
            let implicit = reference(topology, ingest, scenario);
            assert_eq!(implicit.policy, PolicyKind::Static, "default is static");
            let mut explicit = implicit.clone();
            explicit.policy = PolicyKind::Static;
            let sequential = checked(run(&implicit));
            assert_eq!(
                sequential,
                checked(run(&explicit)),
                "explicit static diverged on {topo_name}/{scenario}"
            );
            let sharded = checked(try_run_threads(&explicit, 4).expect("valid config"));
            assert_matches_sequential(&sharded, &sequential, &format!("{topo_name}/{scenario}"));
        }
    }
}

/// Every adaptive controller replays exactly under the same seed on
/// every topology: all policy state is derived from the seeded config
/// and its observations, never from wall clock or ambient RNG.
#[test]
fn adaptive_controllers_replay_byte_for_byte() {
    for (topology, ingest, topo_name) in topology_matrix() {
        for kind in [PolicyKind::Reactive, PolicyKind::Predictive] {
            let mut cfg = reference(topology, ingest, "flaky_links");
            cfg.policy = kind;
            assert_eq!(
                checked(run(&cfg)),
                checked(run(&cfg)),
                "{kind:?} must replay on {topo_name}"
            );
        }
    }
}

/// `try_run_threads` never shards an adaptive run: one controller
/// instance sees the whole run, so a 4-thread run replays exactly and
/// equals the sequential engine's report.
#[test]
fn adaptive_controllers_replay_under_sharding() {
    for kind in [PolicyKind::Reactive, PolicyKind::Predictive] {
        let mut cfg = reference(SimTopology::SplitRing { factor: 4 }, None, "combined");
        cfg.policy = kind;
        let a = checked(try_run_threads(&cfg, 4).expect("valid config"));
        let b = checked(try_run_threads(&cfg, 4).expect("valid config"));
        assert_eq!(a, b, "{kind:?} must replay under 4 threads");
        assert_eq!(
            a,
            checked(run(&cfg)),
            "{kind:?} must run on the sequential engine"
        );
    }
}

/// Serve-overlay runs (admission + batching decision points active)
/// replay exactly under adaptive controllers too.
#[test]
fn adaptive_serve_runs_replay_byte_for_byte() {
    let sc = sudc::sim::ServeScenario::scenario("under_faults").expect("registered scenario");
    for kind in [PolicyKind::Reactive, PolicyKind::Predictive] {
        let mut cfg = reference(SimTopology::Ring, None, "none");
        cfg.serve = Some(sc.serve.clone());
        cfg.faults = sc.faults.clone();
        cfg.policy = kind;
        assert_eq!(
            checked(run(&cfg)),
            checked(run(&cfg)),
            "{kind:?} serve run must replay"
        );
    }
}

/// The leaderboard claim behind `results/explore_policy*`: under
/// `flaky_links` the reactive controller waits out the short outages
/// (widened, extended backoff) instead of burning retries into reroutes
/// and drops — strictly better goodput at identical availability, i.e.
/// strict dominance on the goodput × availability plane.
#[test]
fn reactive_strictly_dominates_static_under_flaky_links() {
    let cfg = reference(SimTopology::Ring, None, "flaky_links");
    let static_report = checked(run(&cfg));
    let mut adaptive = cfg.clone();
    adaptive.policy = PolicyKind::Reactive;
    let reactive_report = checked(run(&adaptive));
    // Availability is policy-independent: the same seeded outage
    // processes drive it no matter what the controller decides.
    assert_eq!(
        reactive_report.faults.availability, static_report.faults.availability,
        "availability must not depend on the controller"
    );
    assert!(
        reactive_report.goodput > static_report.goodput,
        "reactive must strictly beat static goodput under flaky_links \
         ({} vs {})",
        reactive_report.goodput,
        static_report.goodput
    );
    assert!(
        reactive_report.faults.undeliverable < static_report.faults.undeliverable,
        "fewer frames must die of exhausted retries under reactive"
    );
}

/// `--policy` names round-trip through the registry, and unknown names
/// are rejected (the CLI leans on this for its diagnostic).
#[test]
fn policy_registry_round_trips() {
    for name in PolicyKind::names() {
        let kind = PolicyKind::parse(name).expect("listed name parses");
        assert_eq!(kind.as_str(), *name);
    }
    assert_eq!(PolicyKind::parse("greedy"), None);
}
