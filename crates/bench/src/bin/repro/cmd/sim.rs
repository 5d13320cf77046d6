//! `repro sim [--faults <scenario>] [--serve <scenario>] [--topology
//! <shape>] [--record <path>]` — run the constellation simulator on the
//! paper-reference plane and write one report artifact and its run
//! manifest.
//!
//! Without `--serve`, a named fault scenario runs next to its fault-free
//! baseline (same config, same seed) and the artifact compares their
//! availability and goodput (`faults_<scenario>[_<topology>]`). With
//! `--serve`, the multi-tenant user-traffic serving layer runs under the
//! scenario's own fault model (unless `--faults` overrides it) and the
//! artifact is a per-tenant SLO report (`serve_<scenario>[_<topology>]`).
//! With `--record`, the faulted or serving run also streams a
//! sim-time-stamped JSONL flight log (analyze with `repro trace`);
//! recording never perturbs the simulation.

use std::sync::Arc;

use sudc::experiments::ExperimentResult;
use sudc::sim::{
    try_run_recorded, try_run_threads, FaultModel, PolicyKind, ServeReport, ServeScenario,
    SimConfig, SimReport, SimTopology,
};
use telemetry::trace::Recorder;
use telemetry::{RunManifest, Value};

use super::{Out, Outcome, Publisher};
use crate::Cli;

/// Ring capacity of the in-process flight recorder. The JSONL log gets
/// every event regardless; the ring only backs in-memory inspection.
/// It equals the engine's batch size (`Recorder::batch_hint`), so every
/// full batch reaches the ring by a pointer swap after it is logged.
const RECORDER_RING: usize = 4096;

/// One parsed `--topology` argument: the shape, the ingest-link
/// override it implies, and how it appears in artifact ids and notes.
struct TopologyChoice {
    topology: SimTopology,
    ingest_links: Option<usize>,
    /// Artifact-id suffix; empty for the default ring so existing
    /// `faults_<scenario>` artifacts keep their byte-identical names.
    slug: String,
    /// Human label for the report note.
    label: String,
}

/// Parses `ring`, `klist:<k>`, `geo`, or `split:<factor>`.
fn parse_topology(arg: &str) -> Result<TopologyChoice, String> {
    if let Some(k) = arg.strip_prefix("klist:") {
        let k: usize = k
            .parse()
            .map_err(|_| format!("--topology klist wants an integer k, got '{arg}'"))?;
        return Ok(TopologyChoice {
            topology: SimTopology::Ring,
            ingest_links: Some(k),
            slug: format!("_klist{k}"),
            label: format!("{k}-list ring"),
        });
    }
    if let Some(factor) = arg.strip_prefix("split:") {
        let factor: usize = factor
            .parse()
            .map_err(|_| format!("--topology split wants an integer factor, got '{arg}'"))?;
        return Ok(TopologyChoice {
            topology: SimTopology::SplitRing { factor },
            ingest_links: None,
            slug: format!("_split{factor}"),
            label: format!("split ring (factor {factor})"),
        });
    }
    match arg {
        "ring" => Ok(TopologyChoice {
            topology: SimTopology::Ring,
            ingest_links: None,
            slug: String::new(),
            label: "ring".to_string(),
        }),
        "geo" => Ok(TopologyChoice {
            topology: SimTopology::GeoStar,
            ingest_links: None,
            slug: "_geo".to_string(),
            label: "GEO star".to_string(),
        }),
        _ => Err(format!(
            "unknown topology '{arg}' (want ring, klist:<k>, geo, or split:<factor>)"
        )),
    }
}

/// The simulator flags — `--seed`, `--minutes`, `--clusters`,
/// `--topology`, `--policy` — parsed once with their defaults.
struct SimParams {
    seed: u64,
    minutes: f64,
    clusters: usize,
    choice: TopologyChoice,
    policy: PolicyKind,
}

impl SimParams {
    fn from_cli(cli: &Cli) -> Result<SimParams, String> {
        let policy = match cli.policy.as_deref() {
            None => PolicyKind::Static,
            Some(name) => PolicyKind::parse(name).ok_or_else(|| {
                format!("unknown policy '{name}' (want static, reactive, or predictive)")
            })?,
        };
        Ok(SimParams {
            seed: cli.seed.unwrap_or(sudc::sim::PAPER_SEED),
            minutes: cli.minutes.unwrap_or(2.0),
            clusters: cli.clusters.unwrap_or(4),
            choice: parse_topology(cli.topology.as_deref().unwrap_or("ring"))?,
            policy,
        })
    }

    /// Artifact-id suffix for the controller: empty for `static` so
    /// every pre-policy artifact keeps its byte-identical name,
    /// `_<policy>` for adaptive runs (which must never clobber the
    /// committed static copies).
    fn policy_slug(&self) -> String {
        match self.policy {
            PolicyKind::Static => String::new(),
            other => format!("_{}", other.as_str()),
        }
    }

    /// The paper-reference plane (Table 8 regime) under these
    /// parameters, split into clusters so that cluster outages have
    /// somewhere to reroute to.
    fn reference_config(&self) -> SimConfig {
        let mut cfg = SimConfig::paper_reference(
            workloads::Application::AirPollution,
            units::Length::from_m(3.0),
            0.95,
        );
        cfg.topology = self.choice.topology;
        if let Some(k) = self.choice.ingest_links {
            cfg.ingest_links = k;
        }
        cfg.clusters = self.clusters;
        cfg.duration = units::Time::from_minutes(self.minutes);
        cfg.seed = self.seed;
        cfg.policy = self.policy;
        cfg
    }

    /// The report note naming the plane the run simulated.
    fn plane_note(&self) -> String {
        format!(
            "paper-reference {}, {} clusters, {} simulated minutes, seed {}",
            self.choice.label, self.clusters, self.minutes, self.seed
        )
    }

    /// The notes every report ends with: the controller of an adaptive
    /// run, then the replay promise.
    fn closing_notes(&self, result: &mut ExperimentResult) {
        if self.policy != PolicyKind::Static {
            result.note(format!(
                "adaptive control plane: --policy {} (static runs keep the unsuffixed artifact)",
                self.policy.as_str()
            ));
        }
        result.note(
            "same seed + same scenario reproduces this file byte-for-byte \
             (see scripts/verify.sh determinism gate)",
        );
    }
}

/// `repro sim list` — every fault and serve scenario.
fn list(out: &mut Out) {
    writeln!(out, "available fault scenarios (--faults):");
    for name in FaultModel::scenario_names() {
        writeln!(out, "  {name}");
    }
    writeln!(out, "available serve scenarios (--serve):");
    for name in ServeScenario::scenario_names() {
        writeln!(out, "  {name}");
    }
}

/// Builds the JSONL-backed flight recorder when `--record` was given.
fn make_recorder(cli: &Cli) -> Result<Option<Arc<Recorder>>, String> {
    let Some(path) = cli.record.as_deref() else {
        return Ok(None);
    };
    let rec = Recorder::to_file(RECORDER_RING, path)
        .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    Ok(Some(Arc::new(rec.timeline(cli.cadence.unwrap_or(5.0)))))
}

/// Flushes the flight log `--record` asked for, if any, and names it.
fn finish_recording(
    cli: &Cli,
    out: &mut Out,
    recorder: Option<&Arc<Recorder>>,
) -> Result<(), String> {
    let (Some(path), Some(rec)) = (cli.record.as_deref(), recorder) else {
        return Ok(());
    };
    rec.flush()
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    if !cli.quiet {
        writeln!(out, "wrote {}", path.display());
    }
    Ok(())
}

/// Runs one simulation the way the flags ask and checks the report's
/// invariants. A recorded run takes the sequential loop (the recorder
/// needs its total event order, so `--threads` is ignored there); every
/// other run goes through `try_run_threads` on `--threads` workers
/// (default 1), which shards every run whose shards never exchange an
/// event, so the report is the same with or without the flag. Serve
/// runs never shard (tenant state spans clusters). A report that breaks
/// an invariant is an error, so no command writes one.
fn simulate(
    cli: &Cli,
    cfg: &SimConfig,
    recorder: Option<&Arc<Recorder>>,
) -> Result<SimReport, String> {
    let report = match recorder {
        Some(rec) => try_run_recorded(cfg, rec.clone()),
        None => try_run_threads(cfg, cli.threads.unwrap_or(1)),
    }
    .map_err(|e| format!("invalid sim configuration: {e}"))?;
    report
        .check_invariants()
        .map_err(|e| format!("sim report breaks an invariant: {e}"))?;
    Ok(report)
}

pub fn exec(cli: &Cli, out: &mut Out) -> Outcome {
    match cli.ids.get(1).map(String::as_str) {
        Some("list") => {
            list(out);
            return Ok(false);
        }
        Some(op) => {
            return Err(format!(
                "unexpected operand '{op}' (usage: repro sim [list] [--faults <scenario>] \
                 [--serve <scenario>] [--topology <shape>])"
            ))
        }
        None => {}
    }
    let serve = match cli.serve.as_deref() {
        Some(name) => Some(
            ServeScenario::scenario(name)
                .ok_or_else(|| format!("unknown serve scenario '{name}' (try `repro sim list`)"))?,
        ),
        None => None,
    };
    let faults = match (cli.faults.as_deref(), &serve) {
        (None, Some(sc)) => sc.faults.clone(),
        (name, _) => {
            let name = name.unwrap_or("none");
            FaultModel::scenario(name)
                .ok_or_else(|| format!("unknown fault scenario '{name}' (try `repro sim list`)"))?
        }
    };
    // The artifact and the manifest name the serve scenario of a serve
    // run and the fault scenario of any other.
    let scenario = cli
        .serve
        .clone()
        .or_else(|| cli.faults.clone())
        .unwrap_or_else(|| "none".to_string());
    let params = SimParams::from_cli(cli)?;

    let mut cfg = params.reference_config();
    // A fault run's fault-free baseline runs first, so bad
    // --clusters/--topology combinations produce a diagnostic before a
    // flight log is opened.
    let baseline = match serve {
        Some(_) => None,
        None => Some(simulate(cli, &cfg, None)?),
    };
    cfg.faults = faults;
    cfg.serve = serve.map(|sc| sc.serve);
    let recorder = make_recorder(cli)?;
    let report = simulate(cli, &cfg, recorder.as_ref())?;
    finish_recording(cli, out, recorder.as_ref())?;

    // Only the report differs between the two: what it compares, and
    // the headline figures its `*.done` event carries.
    let (tool, done, result, headline): (_, _, _, [(&str, Value); 3]) = match &baseline {
        Some(baseline) => (
            "sim",
            "sim.done",
            comparison_result(&scenario, &params, baseline, &report),
            [
                ("availability", report.faults.availability.into()),
                ("goodput", report.goodput.into()),
                ("reroutes", report.faults.reroutes.into()),
            ],
        ),
        None => {
            let serve = report
                .serve
                .as_ref()
                .ok_or("serve run produced no serve report")?;
            (
                "sim_serve",
                "serve.done",
                serve_result(&scenario, &params, &report, serve),
                [
                    ("requests_per_sec", serve.requests_per_sec.into()),
                    ("batch_efficiency", serve.batch_efficiency.into()),
                    ("shed_rate", serve.shed_rate.into()),
                ],
            )
        }
    };
    let mut manifest = RunManifest::new(tool, params.seed);
    manifest.param("scenario", scenario.as_str());
    manifest.param("topology", params.choice.label.as_str());
    manifest.param("minutes", params.minutes);
    manifest.param("clusters", params.clusters as u64);
    // Static runs keep the pre-policy manifest bytes; adaptive runs
    // declare their controller.
    if params.policy != PolicyKind::Static {
        manifest.param("policy", params.policy.as_str());
    }
    let mut publisher = Publisher::new(cli, out, manifest, false);
    publisher.publish(&result, &[&result]);
    let failed = publisher.finish();

    let mut fields = vec![("scenario".to_string(), scenario.as_str().into())];
    fields.extend(headline.map(|(key, value)| (key.to_string(), value)));
    fields.push(("failed".to_string(), failed.into()));
    telemetry::info(done, fields);
    Ok(failed)
}

/// Builds the baseline-vs-faulted comparison artifact
/// (`faults_<scenario>[_<topology>]`), one metric per row.
fn comparison_result(
    scenario: &str,
    params: &SimParams,
    baseline: &SimReport,
    faulted: &SimReport,
) -> ExperimentResult {
    let id = format!(
        "faults_{scenario}{}{}",
        params.choice.slug,
        params.policy_slug()
    );
    let mut result = ExperimentResult::new(
        &id,
        &format!(
            "Fault injection: '{scenario}' vs fault-free baseline (seed {})",
            params.seed
        ),
        &["metric", "baseline", "faulted"],
    );
    let fmt4 = |v: f64| format!("{v:.4}");
    let pairs: Vec<(&str, String, String)> = vec![
        (
            "generated",
            baseline.generated.to_string(),
            faulted.generated.to_string(),
        ),
        ("kept", baseline.kept.to_string(), faulted.kept.to_string()),
        (
            "processed",
            baseline.processed.to_string(),
            faulted.processed.to_string(),
        ),
        ("goodput", fmt4(baseline.goodput), fmt4(faulted.goodput)),
        (
            "mean_latency_s",
            fmt4(baseline.mean_latency_s),
            fmt4(faulted.mean_latency_s),
        ),
        (
            "availability",
            fmt4(baseline.faults.availability),
            fmt4(faulted.faults.availability),
        ),
        (
            "link_outages",
            baseline.faults.link_outages.to_string(),
            faulted.faults.link_outages.to_string(),
        ),
        (
            "cluster_outages",
            baseline.faults.cluster_outages.to_string(),
            faulted.faults.cluster_outages.to_string(),
        ),
        (
            "retries",
            baseline.faults.retries.to_string(),
            faulted.faults.retries.to_string(),
        ),
        (
            "reroutes",
            baseline.faults.reroutes.to_string(),
            faulted.faults.reroutes.to_string(),
        ),
        (
            "undeliverable",
            baseline.faults.undeliverable.to_string(),
            faulted.faults.undeliverable.to_string(),
        ),
        (
            "frames_shed",
            baseline.faults.frames_shed.to_string(),
            faulted.faults.frames_shed.to_string(),
        ),
        (
            "frames_corrupted",
            baseline.faults.frames_corrupted.to_string(),
            faulted.faults.frames_corrupted.to_string(),
        ),
        (
            "lost_to_failures",
            baseline.lost_to_failures.to_string(),
            faulted.lost_to_failures.to_string(),
        ),
        (
            "stable",
            baseline.stable.to_string(),
            faulted.stable.to_string(),
        ),
    ];
    for (name, a, b) in pairs {
        result.push_row([name.to_string(), a, b]);
    }
    result.note(params.plane_note());
    params.closing_notes(&mut result);
    result
}

/// The serve artifact's trailing `(all)` row: tenant counters summed,
/// the latency percentiles dashed out (they don't aggregate), and the
/// offered-weighted attainment.
fn serve_aggregate_row(serve: &ServeReport) -> [String; 15] {
    let sum = |f: fn(&sudc::sim::serve::TenantReport) -> u64| {
        serve.tenants.iter().map(f).sum::<u64>().to_string()
    };
    let on_time: u64 = serve.tenants.iter().map(|t| t.on_time).sum();
    [
        "(all)".to_string(),
        "-".to_string(),
        serve.offered().to_string(),
        sum(|t| t.admitted),
        sum(|t| t.throttled),
        sum(|t| t.shed),
        sum(|t| t.lost),
        serve.completed().to_string(),
        on_time.to_string(),
        sum(|t| t.violations),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
        if serve.offered() == 0 {
            "1.0000".to_string()
        } else {
            format!("{:.4}", on_time as f64 / serve.offered() as f64)
        },
        format!("{:.1}", serve.requests_per_sec),
    ]
}

/// Builds the per-tenant SLO artifact (`serve_<scenario>[_<topology>]`),
/// one tenant per row plus an aggregate row.
fn serve_result(
    scenario: &str,
    params: &SimParams,
    report: &SimReport,
    serve: &ServeReport,
) -> ExperimentResult {
    let id = format!(
        "serve_{scenario}{}{}",
        params.choice.slug,
        params.policy_slug()
    );
    let mut result = ExperimentResult::new(
        &id,
        &format!(
            "User-traffic serving: '{scenario}' per-tenant SLO attainment (seed {})",
            params.seed
        ),
        &[
            "tenant",
            "class",
            "offered",
            "admitted",
            "throttled",
            "shed",
            "lost",
            "completed",
            "on_time",
            "violations",
            "p50_ms",
            "p99_ms",
            "p999_ms",
            "attainment",
            "goodput_rps",
        ],
    );
    let fmt1 = |v: f64| format!("{v:.1}");
    let fmt4 = |v: f64| format!("{v:.4}");
    for t in &serve.tenants {
        result.push_row([
            t.name.clone(),
            t.class.as_str().to_string(),
            t.offered.to_string(),
            t.admitted.to_string(),
            t.throttled.to_string(),
            t.shed.to_string(),
            t.lost.to_string(),
            t.completed.to_string(),
            t.on_time.to_string(),
            t.violations.to_string(),
            fmt1(t.p50_ms),
            fmt1(t.p99_ms),
            fmt1(t.p999_ms),
            fmt4(t.slo_attainment),
            fmt1(t.goodput_rps),
        ]);
    }
    result.push_row(serve_aggregate_row(serve));
    result.note(params.plane_note());
    result.note(format!(
        "aggregate: {:.1} req/s, batch efficiency {:.3}, mean batch {:.2}, shed rate {:.4}, \
         {} batches, {} link retries",
        serve.requests_per_sec,
        serve.batch_efficiency,
        serve.mean_batch,
        serve.shed_rate,
        serve.batches,
        serve.retries
    ));
    result.note(format!(
        "frame workload alongside: {} processed, goodput {:.4}, stable {}",
        report.processed, report.goodput, report.stable
    ));
    params.closing_notes(&mut result);
    result
}
