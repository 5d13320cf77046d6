//! Sharded parallel event loop for runs whose shards never exchange an
//! event.
//!
//! The layered engine's state partitions along service-unit lines:
//! every forward relay chain stays inside its home arc, and the
//! transport/service/RNG state an event touches is indexed by the
//! satellite or unit it happens at. Only a reverse-routed frame, which
//! walks the global ring around a fault or migrates to another sub-arc,
//! crosses an arc boundary, and only a serving layer, backlog-triggered
//! degradation or an adaptive controller reads state that spans arcs.
//! A run with none of these splits into independent shards, one per
//! unit: each shard runs the *same* event loop ([`super::engine::step`])
//! over its own satellites to the horizon, on its own calendar, and
//! [`explore::map`] runs the shards on the worker threads.
//!
//! ## The report contract
//!
//! A shard processes exactly the sequential loop's event subsequence
//! for its satellites, and frames are numbered by the same formula in
//! both loops, so every counter and per-index fold of the merged report
//! equals the sequential one. Shards merge in ascending unit order
//! whatever the thread count, so every thread count gives the same
//! bytes. Two fields differ from [`super::engine::try_run`]'s report:
//! the peak queue depth is the sum of the shard peaks (an upper bound
//! on the sequential peak), and the mean latency merges per-shard
//! tallies, within 1e-9 s of the sequential mean.
//!
//! Every other run — serve scenarios, degradation, adaptive
//! controllers, single-unit topologies, and faulted runs on a topology
//! with a reverse ring — runs on the sequential engine at every thread
//! count, so its report equals `try_run`'s exactly.

use explore::ExecOptions;
use simkit::Scheduler;

use crate::sim::engine::{self, State};
use crate::sim::model::{ConfigError, SimConfig, SimReport};
use crate::sim::policy::PolicyKind;
use crate::sim::topology;

/// Runs the simulation on up to `threads` worker threads by sharding
/// the event loop per service unit where no event can cross shards (see
/// the module docs for the rule and the report contract), and on the
/// sequential engine otherwise.
///
/// # Panics
///
/// Panics if a worker thread panics mid-run.
pub fn try_run_threads(cfg: &SimConfig, threads: usize) -> Result<SimReport, ConfigError> {
    cfg.validate()?;
    if !shardable(cfg) {
        return engine::try_run(cfg);
    }
    let pixel_capacity = cfg
        .unit_pixel_capacity()
        .ok_or(ConfigError::UnmeasuredWorkload)?;
    let topo = topology::from_config(cfg);
    let home: Vec<usize> = (0..cfg.plane.satellite_count())
        .map(|s| topo.home_cluster(s))
        .collect();
    let units: Vec<usize> = (0..topo.units()).collect();
    let opts = ExecOptions::threads(threads);

    let shards = explore::map(&units, &opts, |&unit| {
        let mut st = State::new(cfg, None, pixel_capacity);
        let mut sched = Scheduler::new();
        // Ascending satellite order: per-shard insertion order (the
        // calendar's tie-breaker) matches the sequential seeding.
        for sat in (0..home.len()).filter(|&s| home[s] == unit) {
            engine::seed_generate(&mut sched, cfg, sat);
        }
        simkit::run_until(&mut sched, &mut st, cfg.duration, engine::step);
        (st, sched)
    });

    // Merge in ascending unit order: f64 merge order is part of the
    // thread-count identity contract.
    let mut shards = shards.into_iter();
    let Some((mut st, mut sched)) = shards.next() else {
        return engine::try_run(cfg);
    };
    for (unit, (other, other_sched)) in (1..).zip(shards) {
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
    Ok(engine::report(st, &sched, cfg))
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
    use crate::sim::model::{DiscardPolicy, SimTopology};
    use units::{Length, Time};
    use workloads::Application;

    fn base_cfg(clusters: usize) -> SimConfig {
        let mut cfg =
            SimConfig::paper_reference(Application::AirPollution, Length::from_m(3.0), 0.95);
        cfg.clusters = clusters;
        cfg.duration = Time::from_minutes(2.0);
        cfg
    }

    /// The report contract: every field equal except the merged peak
    /// queue depth (an upper bound) and the mean latency (within 1e-9 s).
    #[test]
    fn fault_free_sharded_run_matches_the_sequential_engine() {
        let cfg = base_cfg(4);
        let seq = engine::try_run(&cfg).expect("valid config");
        let mut par = try_run_threads(&cfg, 4).expect("valid config");
        assert!(par.scheduler.peak_queue_depth >= seq.scheduler.peak_queue_depth);
        assert!((par.mean_latency_s - seq.mean_latency_s).abs() < 1e-9);
        par.scheduler.peak_queue_depth = seq.scheduler.peak_queue_depth;
        par.mean_latency_s = seq.mean_latency_s;
        assert_eq!(par, seq);
    }

    #[test]
    fn thread_counts_are_byte_identical_across_the_matrix() {
        for (topology, ingest) in [
            (SimTopology::Ring, 2),
            (SimTopology::Ring, 4),
            (SimTopology::GeoStar, 2),
            (SimTopology::SplitRing { factor: 4 }, 2),
        ] {
            for scenario in ["none", "flaky_links", "seu_storm"] {
                let mut cfg = base_cfg(4);
                cfg.topology = topology;
                cfg.ingest_links = ingest;
                cfg.faults = FaultModel::scenario(scenario).expect("registered scenario");
                if topology == SimTopology::GeoStar {
                    cfg.clusters = 3;
                }
                let one = try_run_threads(&cfg, 1).expect("valid config");
                let four = try_run_threads(&cfg, 4).expect("valid config");
                assert_eq!(one, four, "{topology:?} {scenario} t1 vs t4");
                assert_eq!(one.check_invariants(), Ok(()), "{topology:?} {scenario}");
            }
        }
    }

    /// The Earth-model discard rule, which only its own runs build,
    /// shards like the uniform one: each shard builds its own model from
    /// the run seed and keeps the same frames.
    #[test]
    fn clear_land_only_discard_is_identical_at_one_and_four_threads() {
        let mut cfg = base_cfg(4);
        cfg.discard = DiscardPolicy::ClearLandOnly;
        let one = try_run_threads(&cfg, 1).expect("valid config");
        let four = try_run_threads(&cfg, 4).expect("valid config");
        assert_eq!(one, four);
        assert!(
            one.generated > one.kept && one.kept > 0,
            "generated {} kept {}",
            one.generated,
            one.kept
        );
        assert_eq!(one.check_invariants(), Ok(()));
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

        // Fault-free, but the predictive controller migrates frames
        // from one sub-arc to the other.
        let mut migrating =
            SimConfig::paper_reference(Application::FloodDetection, Length::from_m(1.0), 0.5);
        migrating.topology = SimTopology::SplitRing { factor: 2 };
        migrating.clusters = 2;
        migrating.duration = Time::from_minutes(2.0);
        migrating.policy = PolicyKind::Predictive;

        for (name, cfg) in [
            ("one cluster", &one_cluster),
            ("degraded", &degraded),
            ("flaky ring", &flaky),
            ("predictive split:2", &migrating),
        ] {
            let seq = engine::try_run(cfg).expect("valid config");
            assert_eq!(seq.check_invariants(), Ok(()), "{name}");
            for threads in [1, 2, 4] {
                let par = try_run_threads(cfg, threads).expect("valid config");
                assert_eq!(par, seq, "{name} at {threads} threads");
            }
        }
        let seq = engine::try_run(&migrating).expect("valid config");
        assert_eq!(seq.faults.reroutes, 10, "migrations must cross arcs");
    }
}
