//! End-to-end tests of the flight recorder: recorder-off reports equal
//! plain runs, recorder-on determinism across the topology matrix, and
//! the causal-lifecycle / loss-attribution contract `repro trace` is
//! built on. `crates/bench/tests/gates.rs` holds the committed-artifact
//! and CLI double-run checks.

use std::sync::Arc;

use sudc::sim::{run, try_run_recorded, FaultModel, SimConfig, SimTopology};
use telemetry::trace::{Recorder, TraceKind, TraceLog};
use units::{Length, Time};
use workloads::Application;

fn reference(clusters: usize) -> SimConfig {
    let mut cfg = SimConfig::paper_reference(Application::AirPollution, Length::from_m(3.0), 0.95);
    cfg.clusters = clusters;
    cfg.duration = Time::from_minutes(2.0);
    cfg
}

/// The gates' topology matrix (ring, klist:4, geo, split:4), as config
/// edits.
fn topology_matrix() -> Vec<(&'static str, SimConfig)> {
    let mut klist = reference(4);
    klist.ingest_links = 4;
    let mut geo = reference(4);
    geo.topology = SimTopology::GeoStar;
    let mut split = reference(4);
    split.topology = SimTopology::SplitRing { factor: 4 };
    vec![
        ("ring", reference(4)),
        ("klist:4", klist),
        ("geo", geo),
        ("split:4", split),
    ]
}

fn recorded(
    cfg: &SimConfig,
    cadence: Option<f64>,
) -> (sudc::sim::SimReport, Vec<telemetry::trace::TraceEvent>) {
    let mut rec = Recorder::new(1 << 20);
    if let Some(c) = cadence {
        rec = rec.timeline(c);
    }
    let rec = Arc::new(rec);
    let report = try_run_recorded(cfg, rec.clone()).expect("reference config is valid");
    assert_eq!(
        rec.dropped(),
        0,
        "ring must be large enough for the whole run"
    );
    (report, rec.events())
}

/// Serializes a trace the way `repro sim --record` writes it, so string
/// equality here is the byte equality the `repro sim --record` double
/// runs in `crates/bench/tests/gates.rs` check.
fn to_jsonl(events: &[telemetry::trace::TraceEvent]) -> String {
    let mut out = Vec::new();
    for e in events {
        e.write_jsonl(&mut out).expect("a Vec takes every write");
    }
    String::from_utf8(out).expect("JSONL is UTF-8")
}

/// Recording off: the simulation is the pre-recorder simulation, field
/// for field, for every scenario. This is the "zero-cost when off"
/// contract at the report level.
#[test]
fn recorder_off_reports_match_plain_runs_for_every_scenario() {
    for name in FaultModel::scenario_names() {
        let mut cfg = reference(4);
        cfg.faults = FaultModel::scenario(name).expect("registered scenario");
        let plain = run(&cfg);
        let again = run(&cfg);
        assert_eq!(plain, again, "scenario '{name}' must replay byte-for-byte");
    }
}

/// Recorder-on double runs emit byte-identical JSONL across the whole
/// topology matrix — every trace timestamp is sim-time, so there is
/// nothing wall-clock-shaped to drift.
#[test]
fn recorded_traces_are_byte_identical_across_the_topology_matrix() {
    for (label, mut cfg) in topology_matrix() {
        cfg.faults = FaultModel::scenario("flaky_links").expect("registered scenario");
        let (report_a, events_a) = recorded(&cfg, Some(5.0));
        let (report_b, events_b) = recorded(&cfg, Some(5.0));
        assert_eq!(report_a, report_b, "topology '{label}' report must replay");
        assert_eq!(report_a.check_invariants(), Ok(()), "topology '{label}'");
        assert_eq!(
            to_jsonl(&events_a),
            to_jsonl(&events_b),
            "topology '{label}' trace must byte-diff clean"
        );
        assert!(!events_a.is_empty(), "topology '{label}' recorded nothing");
    }
}

/// The `repro trace` contract on a `combined` run: every frame that
/// reached a terminal has a complete causal lifecycle (Sensed first,
/// terminal last, parent links intact), and loss attribution sums
/// exactly to the FaultSummary counters.
#[test]
fn combined_run_lifecycles_and_loss_attribution_match_fault_summary() {
    let mut cfg = reference(4);
    cfg.faults = FaultModel::scenario("combined").expect("registered scenario");
    let (report, events) = recorded(&cfg, None);
    let log = TraceLog::from_events(events);

    // Kind-for-counter accounting against the engine's own summary.
    // Kept frames root at Sensed; policy discards fold sense + drop
    // into a single Discarded event.
    assert_eq!(log.count_kind(TraceKind::Sensed), report.kept);
    assert_eq!(
        log.count_kind(TraceKind::Discarded),
        report.generated - report.kept
    );
    assert_eq!(log.count_kind(TraceKind::Served), report.processed);
    assert_eq!(log.count_kind(TraceKind::Shed), report.faults.frames_shed);
    assert_eq!(
        log.count_kind(TraceKind::Undeliverable),
        report.faults.undeliverable
    );
    assert_eq!(
        log.count_kind(TraceKind::Corrupted),
        report.faults.frames_corrupted
    );
    assert_eq!(
        log.count_kind(TraceKind::LostCluster),
        report.lost_to_failures
    );
    assert_eq!(log.count_kind(TraceKind::Retry), report.faults.retries);
    assert_eq!(log.count_kind(TraceKind::Reroute), report.faults.reroutes);

    // Attribution by cause sums exactly to the lost-frame total.
    let losses = log.loss_attribution();
    let attributed: u64 = losses.values().sum();
    assert_eq!(
        attributed,
        report.faults.frames_shed
            + report.faults.undeliverable
            + report.faults.frames_corrupted
            + report.lost_to_failures,
        "loss attribution must account for every lost frame: {losses:?}"
    );
    assert!(
        !losses.contains_key("unattributed"),
        "every loss event must carry a cause: {losses:?}"
    );

    // Every frame that reached a terminal reconstructs end to end.
    let frames = log.frames();
    let mut complete = 0u64;
    for &frame in frames.keys() {
        if log.terminal(frame).is_some() {
            assert!(
                log.is_complete(frame),
                "frame {frame} has a terminal but a broken causal chain"
            );
            complete += 1;
        }
    }
    assert!(complete > 0, "combined run terminated no frames");
    // Frames still in flight at the horizon are the only incomplete ones.
    assert!(
        complete <= frames.len() as u64,
        "terminal count exceeds frame count"
    );
}

/// Round trip through the JSONL wire format loses nothing the analyzer
/// needs: the parsed log reproduces the in-memory analysis.
#[test]
fn jsonl_round_trip_preserves_the_analysis() {
    let mut cfg = reference(4);
    cfg.faults = FaultModel::scenario("combined").expect("registered scenario");
    let (_, events) = recorded(&cfg, Some(10.0));
    let direct = TraceLog::from_events(events.clone());
    let parsed = TraceLog::parse(&to_jsonl(&events));
    assert_eq!(parsed.len(), direct.len());
    assert_eq!(parsed.loss_attribution(), direct.loss_attribution());
    assert_eq!(parsed.slowest_frames(10), direct.slowest_frames(10));
    assert_eq!(
        parsed.frames().len(),
        direct.frames().len(),
        "frame index must survive the wire format"
    );
}

/// The sim-time timeline: with a cadence set, snapshot events appear at
/// exact cadence multiples and carry per-cluster depth plus link state.
#[test]
fn timeline_snapshots_land_on_the_sim_time_cadence() {
    let mut cfg = reference(4);
    cfg.faults = FaultModel::scenario("flaky_links").expect("registered scenario");
    let (_, events) = recorded(&cfg, Some(7.5));
    let nets: Vec<&telemetry::trace::TraceEvent> = events
        .iter()
        .filter(|e| e.kind == TraceKind::SnapshotNet)
        .collect();
    assert!(!nets.is_empty(), "cadence 7.5s over 120s must snapshot");
    for (i, ev) in nets.iter().enumerate() {
        let expected = 7.5 * (i as f64 + 1.0);
        assert!(
            (ev.t_s - expected).abs() < 1e-9,
            "snapshot {i} at t={} expected {expected}",
            ev.t_s
        );
    }
    let clusters = events
        .iter()
        .filter(|e| e.kind == TraceKind::SnapshotCluster && (e.t_s - 7.5).abs() < 1e-9)
        .count();
    assert_eq!(clusters, 4, "one cluster snapshot per SµDC per tick");
    assert!(
        events.iter().any(|e| e.kind == TraceKind::SnapshotLinks),
        "flaky_links models outages, so link state must be snapshotted"
    );
}

/// Today's-algorithm reference for the indexed `TraceLog` analyses: a
/// linear scan per frame for the terminal and a whole-log `seq` map
/// per critical path.
mod naive {
    use std::collections::BTreeMap;

    use telemetry::trace::{TraceEvent, TraceKind};

    pub fn frames(events: &[TraceEvent]) -> Vec<u64> {
        let mut ids: Vec<u64> = events.iter().filter_map(|e| e.frame).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    pub fn critical_path(events: &[TraceEvent], frame: u64) -> Vec<TraceEvent> {
        let by_seq: BTreeMap<u64, &TraceEvent> = events.iter().map(|e| (e.seq, e)).collect();
        let mut chain = Vec::new();
        let mut cursor = events
            .iter()
            .rev()
            .find(|e| e.frame == Some(frame) && e.kind.is_terminal());
        while let Some(ev) = cursor {
            chain.push(*ev);
            cursor = ev.parent.and_then(|p| by_seq.get(&p).copied());
        }
        chain.reverse();
        chain
    }

    pub fn is_complete(events: &[TraceEvent], frame: u64) -> bool {
        let path = critical_path(events, frame);
        match (path.first(), path.last()) {
            (Some(first), Some(last)) => {
                matches!(
                    first.kind,
                    TraceKind::Sensed | TraceKind::Discarded | TraceKind::ReqArrived
                ) && last.kind.is_terminal()
            }
            _ => false,
        }
    }

    /// `(label, count, total_s, max_s)` sorted by label.
    pub fn hop_breakdown(events: &[TraceEvent], frames: &[u64]) -> Vec<(String, u64, f64, f64)> {
        let mut segs: BTreeMap<String, (u64, f64, f64)> = BTreeMap::new();
        for &frame in frames {
            for pair in critical_path(events, frame).windows(2) {
                let dt = (pair[1].t_s - pair[0].t_s).max(0.0);
                let label = format!("{}→{}", pair[0].kind.as_str(), pair[1].kind.as_str());
                let seg = segs.entry(label).or_insert((0, 0.0, 0.0));
                seg.0 += 1;
                seg.1 += dt;
                seg.2 = seg.2.max(dt);
            }
        }
        segs.into_iter()
            .map(|(l, (n, t, m))| (l, n, t, m))
            .collect()
    }

    pub fn loss_attribution(events: &[TraceEvent]) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for ev in events.iter().filter(|e| e.kind.is_loss()) {
            let label = ev.cause.map_or("unattributed", |c| c.as_str());
            *out.entry(label).or_insert(0) += 1;
        }
        out
    }

    pub fn slowest_frames(events: &[TraceEvent], k: usize) -> Vec<(u64, f64)> {
        let mut done: Vec<(u64, f64)> = events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    TraceKind::Served
                        | TraceKind::Corrupted
                        | TraceKind::ReqCompleted
                        | TraceKind::SloViolated
                )
            })
            .filter_map(|e| Some((e.frame?, e.value?)))
            .collect();
        done.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        done.truncate(k);
        done
    }
}

/// The indexed analyses agree with the per-frame reference on random
/// logs: interleaved frame and request (`≥ REQ_ID_BASE`) lifecycles,
/// timeline snapshots, frames that never reach a terminal or reach
/// several, unattributed losses, and events evicted from the middle of
/// the log so that parent chains break.
#[test]
fn indexed_trace_analysis_matches_the_per_frame_reference() {
    use simkit::prop::{self, any};
    use sudc::sim::serve::REQ_ID_BASE;
    use telemetry::trace::{TraceEvent, CAUSES, KINDS};

    prop::check(
        "indexed_trace_analysis_matches_the_per_frame_reference",
        128,
        |g| {
            let ids: Vec<u64> = (0..g.draw(1usize..10))
                .map(|i| {
                    if g.draw(any::<bool>()) {
                        REQ_ID_BASE + i as u64
                    } else {
                        1 + i as u64
                    }
                })
                .collect();
            let mut last_seq = vec![0u64; ids.len()];
            let mut events = Vec::new();
            let mut t_s = 0.0;
            for seq in 1..=g.draw(0u64..120) {
                t_s += g.draw(0.0f64..2.0);
                let kind = KINDS[g.draw(0usize..KINDS.len())];
                let cause = g
                    .draw(any::<bool>())
                    .then(|| CAUSES[g.draw(0usize..CAUSES.len())]);
                let value = g.draw(any::<bool>()).then(|| g.draw(0.0f64..10.0));
                let (frame, parent) = if kind.as_str().starts_with("snapshot") {
                    (None, None)
                } else {
                    let i = g.draw(0usize..ids.len());
                    let parent = (last_seq[i] != 0).then_some(last_seq[i]);
                    last_seq[i] = seq;
                    (Some(ids[i]), parent)
                };
                events.push(TraceEvent {
                    seq,
                    t_s,
                    kind,
                    frame,
                    unit: None,
                    cause,
                    parent,
                    value,
                });
            }
            // Evict a random subset, as a wrapped ring drops events
            // other events still point at.
            events.retain(|_| g.draw(0u32..8) != 0);

            // Hand the log over out of order; it sorts by seq.
            let mut shuffled = events.clone();
            shuffled.reverse();
            let log = TraceLog::from_events(shuffled);
            let frames = naive::frames(&events);
            assert_eq!(log.frame_ids().collect::<Vec<_>>(), frames);
            assert_eq!(log.frames().keys().copied().collect::<Vec<_>>(), frames);
            for &frame in frames.iter().chain(&[0, u64::MAX]) {
                let path: Vec<TraceEvent> = log.critical_path(frame).into_iter().copied().collect();
                assert_eq!(path, naive::critical_path(&events, frame), "frame {frame}");
                assert_eq!(
                    log.is_complete(frame),
                    naive::is_complete(&events, frame),
                    "frame {frame}"
                );
            }
            let segs: Vec<(String, u64, f64, f64)> = log
                .hop_breakdown()
                .into_iter()
                .map(|s| (s.label, s.count, s.total_s, s.max_s))
                .collect();
            assert_eq!(segs, naive::hop_breakdown(&events, &frames));
            assert_eq!(log.loss_attribution(), naive::loss_attribution(&events));
            for kind in KINDS {
                let want = events.iter().filter(|e| e.kind == *kind).count() as u64;
                assert_eq!(log.count_kind(*kind), want, "{kind:?}");
            }
            for k in [0, 3, 1000] {
                assert_eq!(log.slowest_frames(k), naive::slowest_frames(&events, k));
            }
        },
    );
}
