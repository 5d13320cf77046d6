//! `repro` subcommands, one module each, plus the plumbing they share:
//! telemetry installation and the txt/csv/json artifact-triplet writer.

pub mod explore;
pub mod lint;
pub mod run;
pub mod serve;
pub mod sim;
pub mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use sudc::sim::{try_run_recorded, try_run_threads, PolicyKind, SimConfig, SimReport, SimTopology};
use telemetry::trace::Recorder;
use telemetry::Level;

use crate::Cli;

/// Ring capacity of the in-process flight recorder. The JSONL log gets
/// every event regardless; the ring only backs in-memory inspection.
/// It equals the engine's batch size (`Recorder::batch_hint`), so every
/// full batch reaches the ring by a pointer swap after it is logged.
const RECORDER_RING: usize = 4096;

/// One parsed `--topology` argument: the shape, the ingest-link
/// override it implies, and how it appears in artifact ids and notes.
pub struct TopologyChoice {
    pub topology: SimTopology,
    pub ingest_links: Option<usize>,
    /// Artifact-id suffix; empty for the default ring so existing
    /// `faults_<scenario>` artifacts keep their byte-identical names.
    pub slug: String,
    /// Human label for the report note.
    pub label: String,
}

/// Parses `ring`, `klist:<k>`, `geo`, or `split:<factor>`.
pub fn parse_topology(arg: &str) -> Result<TopologyChoice, String> {
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

/// The simulator flags `repro sim` and the serve path share —
/// `--seed`, `--minutes`, `--clusters`, `--topology`, `--out-dir` —
/// parsed once with identical defaults so both command paths name and
/// place their artifacts the same way.
pub struct SimParams {
    pub seed: u64,
    pub minutes: f64,
    pub clusters: usize,
    pub choice: TopologyChoice,
    pub policy: PolicyKind,
    pub out_dir: PathBuf,
}

impl SimParams {
    pub fn from_cli(cli: &Cli) -> Result<SimParams, String> {
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
            out_dir: cli.out_dir.clone().unwrap_or_else(::bench::results_dir),
        })
    }

    /// Artifact-id suffix for the controller: empty for `static` so
    /// every pre-policy artifact keeps its byte-identical name,
    /// `_<policy>` for adaptive runs (which must never clobber the
    /// committed static copies).
    pub fn policy_slug(&self) -> String {
        match self.policy {
            PolicyKind::Static => String::new(),
            other => format!("_{}", other.as_str()),
        }
    }

    /// The paper-reference plane (Table 8 regime) under these
    /// parameters, split into clusters so that cluster outages have
    /// somewhere to reroute to.
    pub fn reference_config(&self) -> SimConfig {
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
}

/// Builds the JSONL-backed flight recorder when `--record` was given.
pub fn make_recorder(cli: &Cli) -> Result<Option<Arc<Recorder>>, String> {
    let Some(path) = cli.record.as_deref() else {
        return Ok(None);
    };
    let rec = Recorder::to_file(RECORDER_RING, path)
        .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    Ok(Some(Arc::new(rec.timeline(cli.cadence.unwrap_or(5.0)))))
}

/// Flushes the flight log `--record` asked for, if any, and names it.
pub fn finish_recording(cli: &Cli, recorder: Option<&Arc<Recorder>>) -> Result<(), String> {
    let (Some(path), Some(rec)) = (cli.record.as_deref(), recorder) else {
        return Ok(());
    };
    rec.flush()
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    if !cli.quiet {
        println!("wrote {}", path.display());
    }
    Ok(())
}

/// Runs one simulation the way the flags ask and checks the report's
/// invariants. A recorded run takes the sequential loop (the recorder
/// needs its total event order, so `--threads` is ignored there); every
/// other run goes through `try_run_threads` on `--threads` workers
/// (default 1), which shards every run whose shards never exchange an
/// event, so the report is the same with or without the flag. A report
/// that breaks an invariant is an error, so no command writes one.
pub fn simulate(
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

/// Installs the stderr telemetry pretty-printer at the verbosity the
/// flags ask for, plus an optional JSONL event log.
pub fn install_telemetry(cli: &Cli) -> Result<(), String> {
    let stderr_level = if cli.trace {
        Level::Debug
    } else if cli.quiet {
        Level::Warn
    } else {
        Level::Info
    };
    telemetry::set_min_level(if cli.trace { Level::Debug } else { Level::Info });
    telemetry::install(Arc::new(telemetry::sink::StderrSink::new(stderr_level)));
    if let Some(path) = &cli.jsonl {
        match telemetry::sink::JsonlSink::create(path) {
            Ok(sink) => telemetry::install(Arc::new(sink)),
            Err(e) => return Err(format!("cannot open {}: {e}", path.display())),
        }
    }
    Ok(())
}

/// Flushes the telemetry sinks and gives the run's exit status. A
/// `--jsonl` log that could not be written fails the run, naming the
/// path, as an unwritable `--record` log does.
pub fn exit_status(cli: &Cli, failed: bool) -> ExitCode {
    let flushed = telemetry::flush();
    if let Err(e) = &flushed {
        let log = cli.jsonl.as_deref().map_or_else(
            || "the telemetry log".to_string(),
            |p| p.display().to_string(),
        );
        eprintln!("error: cannot write {log}: {e}");
    }
    if failed || flushed.is_err() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Writes one result's txt/csv/json artifact triplet into `dir`,
/// printing the path (unless `quiet`) and the error on failure.
/// Returns `false` when the write failed, so callers can fold it into
/// their exit status.
pub fn emit_artifacts(
    dir: &Path,
    result: &sudc::experiments::ExperimentResult,
    quiet: bool,
) -> bool {
    match bench::write_artifacts_to(dir, result) {
        Ok(path) => {
            if !quiet {
                println!("wrote {}", path.display());
            }
            true
        }
        Err(e) => {
            telemetry::error(
                "repro.write_failed",
                vec![
                    ("id".to_string(), result.id.as_str().into()),
                    ("error".to_string(), e.to_string().into()),
                ],
            );
            eprintln!("error writing artifacts for {}: {e}", result.id);
            false
        }
    }
}
