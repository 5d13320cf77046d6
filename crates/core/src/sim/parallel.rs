//! The simulator's entry points, and the sharded event loop they run
//! whenever no event can cross between shards.
//!
//! The layered engine's state partitions along service-unit lines:
//! every forward relay chain stays inside its home arc, and the
//! transport/service/RNG state an event touches is indexed by the
//! satellite or unit it happens at. Only a reverse-routed frame, which
//! walks the global ring around a fault, crosses an arc boundary, and only a serving layer, backlog-triggered
//! degradation or an adaptive controller reads state that spans arcs.
//! A run with none of these splits into independent shards, one per
//! unit: each shard runs the *same* event loop ([`super::engine::step`])
//! over its own satellites to the horizon, on its own calendar, and
//! [`explore::map`] runs the shards on the worker threads.
//!
//! ## The report contract
//!
//! Every unrecorded entry point shards every shardable config, at any
//! thread count, one thread included; every other run takes the
//! sequential loop. So [`try_run`], [`run`] and [`try_run_threads`]
//! give the same report at every thread count.
//!
//! A shard processes exactly the sequential loop's event subsequence
//! for its satellites, and frames are numbered by the same formula in
//! both loops. Every fold of the merged report is a per-index move or a
//! sum of integers, so a sharded report equals the sequential loop's in
//! every field except `scheduler`: its peak queue depth is the sum of
//! the shard peaks, an upper bound on the sequential peak. Recorded
//! runs, which take the sequential loop, differ from unrecorded ones in
//! that field too, by their timeline ticks.

use std::sync::Arc;

use explore::ExecOptions;
use telemetry::trace::Recorder;

use crate::sim::engine;
use crate::sim::model::{ConfigError, SimConfig, SimReport};
use crate::sim::policy::PolicyKind;
use crate::sim::topology;

/// Runs the simulation, reporting invalid configurations (including an
/// unmeasured application/device pair) as a diagnostic instead of
/// panicking. The same as [`try_run_threads`] on one thread.
pub fn try_run(cfg: &SimConfig) -> Result<SimReport, ConfigError> {
    try_run_threads(cfg, 1)
}

/// Runs the simulation on up to `threads` worker threads. The report
/// is the same at every thread count (see the module docs).
///
/// # Panics
///
/// Panics if a worker thread panics mid-run.
pub fn try_run_threads(cfg: &SimConfig, threads: usize) -> Result<SimReport, ConfigError> {
    run_with(cfg, threads, None)
}

/// Runs the simulation on the sequential loop with the flight recorder
/// attached: every frame lifecycle step is recorded as a sim-time-stamped
/// trace event, and, when the recorder has a timeline cadence,
/// per-cluster queue depth, link state, and backlog are snapshotted on
/// that cadence. The report is identical to [`try_run`]'s except for
/// the scheduler counters (timeline ticks are scheduled events, and a
/// sharded run's peak depth is a sum of shard peaks).
pub fn try_run_recorded(
    cfg: &SimConfig,
    recorder: Arc<Recorder>,
) -> Result<SimReport, ConfigError> {
    run_with(cfg, 1, Some(recorder))
}

/// Runs the simulation and returns its report.
///
/// # Panics
///
/// Panics on invalid configurations (zero clusters, cluster size not
/// dividing the ring) and if the (application, device) pair has no
/// measurement.
pub fn run(cfg: &SimConfig) -> SimReport {
    // lint:allow(unwrap-in-lib) legacy panicking wrapper; the fallible path is try_run
    try_run(cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// Validates `cfg` once and picks the loop: sharded for an unrecorded
/// shardable run, sequential for every other. Builds with debug
/// assertions (every test) check the report's frame and request
/// conservation ([`SimReport::check_invariants`]) on every run.
fn run_with(
    cfg: &SimConfig,
    threads: usize,
    recorder: Option<Arc<Recorder>>,
) -> Result<SimReport, ConfigError> {
    cfg.validate()?;
    let pixel_capacity = cfg
        .unit_pixel_capacity()
        .ok_or(ConfigError::UnmeasuredWorkload)?;
    let report = match recorder {
        None if shardable(cfg) => run_sharded(cfg, threads, pixel_capacity),
        recorder => engine::run_sequential(cfg, recorder, pixel_capacity),
    };
    debug_assert_eq!(report.check_invariants(), Ok(()), "{cfg:?}");
    Ok(report)
}

/// Runs one shard per service unit of a validated, shardable `cfg` on
/// up to `threads` workers and merges them into one report.
fn run_sharded(cfg: &SimConfig, threads: usize, pixel_capacity: f64) -> SimReport {
    let topo = topology::from_config(cfg);
    let home: Vec<usize> = (0..cfg.plane.satellite_count())
        .map(|s| topo.home_cluster(s))
        .collect();
    let units: Vec<usize> = (0..topo.units()).collect();
    let opts = ExecOptions::threads(threads);

    let shards = explore::map(&units, &opts, |&unit| {
        let sats = (0..home.len()).filter(|&s| home[s] == unit);
        let (st, _, sched) = engine::run_to_horizon(cfg, None, pixel_capacity, sats);
        (st, sched)
    });

    let mut shards = units.iter().zip(shards);
    let Some((_, (mut st, mut sched))) = shards.next() else {
        return engine::run_sequential(cfg, None, pixel_capacity);
    };
    for (&unit, (other, other_sched)) in shards {
        st.absorb_shard(other, unit);
        sched.absorb(&other_sched);
    }
    if telemetry::level_enabled(telemetry::Level::Debug) {
        telemetry::debug(
            "sim.parallel",
            vec![
                ("shards".to_string(), (units.len() as u64).into()),
                (
                    "threads".to_string(),
                    (opts.threads.min(units.len()) as u64).into(),
                ),
            ],
        );
    }
    engine::report(st, None, &sched, cfg)
}

/// Whether no event can cross between the per-unit shards: the static
/// controller, no serving layer, no degradation, at least two units,
/// and no reverse ring that active faults could route onto. The
/// forward-chain containment check is true for every shipped topology
/// (arcs own their relay chains); it is verified rather than assumed so
/// a future shape that breaks it runs sequentially instead of
/// corrupting state.
fn shardable(cfg: &SimConfig) -> bool {
    if cfg.policy != PolicyKind::Static || cfg.serve.is_some() || cfg.faults.degradation.is_some() {
        return false;
    }
    let topo = topology::from_config(cfg);
    if topo.units() < 2 || (topo.supports_reverse() && cfg.faults.active()) {
        return false;
    }
    let n = cfg.plane.satellite_count();
    (0..n).all(|s| match topo.next_hop(s) {
        Some(next) => topo.home_cluster(next) == topo.home_cluster(s),
        None => true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::faults::FaultModel;
    use crate::sim::model::SimTopology;
    use units::{Length, Time};
    use workloads::Application;

    fn base_cfg(clusters: usize) -> SimConfig {
        let mut cfg =
            SimConfig::paper_reference(Application::AirPollution, Length::from_m(3.0), 0.95);
        cfg.clusters = clusters;
        cfg.duration = Time::from_minutes(2.0);
        cfg
    }

    /// The sequential loop's report, the reference every entry point is
    /// held to.
    fn sequential(cfg: &SimConfig) -> SimReport {
        cfg.validate().expect("valid config");
        let capacity = cfg.unit_pixel_capacity().expect("measured workload");
        engine::run_sequential(cfg, None, capacity)
    }

    /// The report contract: at 1, 2 and 4 threads, and through
    /// `try_run`, the report equals the sequential loop's bit for bit in
    /// every field but the peak queue depth, which a sharded run sums
    /// over its shards.
    fn assert_matches_sequential(cfg: &SimConfig, name: &str) {
        let seq = sequential(cfg);
        assert_eq!(seq.check_invariants(), Ok(()), "{name}");
        let one = try_run_threads(cfg, 1).expect("valid config");
        assert_eq!(try_run(cfg).expect("valid config"), one, "{name}: try_run");
        for threads in [1, 2, 4] {
            let mut par = try_run_threads(cfg, threads).expect("valid config");
            assert_eq!(
                par.mean_latency_s.to_bits(),
                seq.mean_latency_s.to_bits(),
                "{name} at {threads} threads"
            );
            let peak = seq.scheduler.peak_queue_depth;
            if shardable(cfg) {
                assert!(par.scheduler.peak_queue_depth >= peak, "{name}");
                par.scheduler.peak_queue_depth = peak;
            }
            assert_eq!(par, seq, "{name} at {threads} threads");
        }
    }

    #[test]
    fn fault_free_sharded_run_matches_the_sequential_engine() {
        let cfg = base_cfg(4);
        assert!(shardable(&cfg));
        assert_matches_sequential(&cfg, "ring, 4 clusters");
    }

    /// Topology × fault scenario × seed, at a frame size of a whole
    /// number of bits (3 m) and, with a backlog left at the horizon, of
    /// a fraction (0.7 m), which the in-flight backlog must sum exactly
    /// across shards.
    #[test]
    fn thread_counts_are_byte_identical_across_the_matrix() {
        for (topology, ingest) in [
            (SimTopology::Ring, 2),
            (SimTopology::Ring, 4),
            (SimTopology::GeoStar, 2),
            (SimTopology::SplitRing { factor: 2 }, 2),
            (SimTopology::SplitRing { factor: 4 }, 2),
        ] {
            for scenario in ["none", "flaky_links", "seu_storm"] {
                for (seed, res, ed) in [
                    (1, 3.0, 0.95),
                    (2, 3.0, 0.95),
                    (3, 3.0, 0.95),
                    (1, 0.7, 0.5),
                ] {
                    let mut cfg = base_cfg(4);
                    cfg.resolution = Length::from_m(res);
                    cfg.discard = ed;
                    cfg.topology = topology;
                    cfg.ingest_links = ingest;
                    cfg.faults = FaultModel::scenario(scenario).expect("registered scenario");
                    cfg.seed = seed;
                    if topology == SimTopology::GeoStar {
                        cfg.clusters = 3;
                    }
                    let name =
                        format!("{topology:?} klist:{ingest} {scenario} seed {seed} {res} m");
                    assert_matches_sequential(&cfg, &name);
                }
            }
        }
    }

    #[test]
    fn ineligible_configurations_fall_back_to_the_sequential_engine() {
        // Single unit: nothing to shard.
        let one_cluster = base_cfg(1);

        // Global-backlog degradation reads state no shard owns.
        let mut degraded = base_cfg(4);
        degraded.faults = FaultModel::scenario("combined").expect("registered scenario");

        // Outages on a reverse-capable ring reroute frames across arcs.
        let mut flaky = base_cfg(4);
        flaky.faults = FaultModel::scenario("flaky_links").expect("registered scenario");

        // Fault-free, but adaptive: every adaptive run takes the
        // sequential loop, because reactive's burst window and
        // predictive's global-backlog shed read state across arcs.
        let mut adaptive =
            SimConfig::paper_reference(Application::FloodDetection, Length::from_m(1.0), 0.5);
        adaptive.topology = SimTopology::SplitRing { factor: 2 };
        adaptive.clusters = 2;
        adaptive.duration = Time::from_minutes(2.0);
        adaptive.policy = PolicyKind::Predictive;

        for (name, cfg) in [
            ("one cluster", &one_cluster),
            ("degraded", &degraded),
            ("flaky ring", &flaky),
            ("predictive split:2", &adaptive),
        ] {
            assert!(!shardable(cfg), "{name}");
            assert_matches_sequential(cfg, name);
        }
    }
}
