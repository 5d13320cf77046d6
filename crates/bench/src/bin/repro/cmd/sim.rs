//! `repro sim [--faults <scenario>] [--topology <shape>] [--record
//! <path>]` — run the constellation simulator under a named fault
//! scenario next to its fault-free baseline (same config, same seed)
//! and write an availability/goodput comparison artifact
//! (`results/faults_<scenario>[_<topology>].{txt,csv,json}`) and its
//! run manifest. With `--record`, the faulted run also streams a
//! sim-time-stamped JSONL flight log (analyze with `repro trace`);
//! recording never perturbs the simulation.

use std::process::ExitCode;

use sudc::sim::{FaultModel, ServeScenario};
use telemetry::RunManifest;

use super::{SimParams, TopologyChoice};
use crate::Cli;

/// Handles `repro sim list` and rejects stray operands; `None` means
/// proceed into the run.
fn handle_operands(cli: &Cli) -> Option<ExitCode> {
    let operands = &cli.ids[1..];
    if operands.first().map(String::as_str) == Some("list") {
        println!("available fault scenarios (--faults):");
        for name in FaultModel::scenario_names() {
            println!("  {name}");
        }
        println!("available serve scenarios (--serve):");
        for name in ServeScenario::scenario_names() {
            println!("  {name}");
        }
        return Some(ExitCode::SUCCESS);
    }
    if let Some(op) = operands.first() {
        eprintln!(
            "error: unexpected operand '{op}' (usage: repro sim [list] [--faults <scenario>] \
             [--serve <scenario>] [--topology <shape>])"
        );
        return Some(ExitCode::FAILURE);
    }
    None
}

/// Writes the comparison artifact and the run manifest; returns `true`
/// when every write succeeded.
fn emit_outputs(
    cli: &Cli,
    params: &SimParams,
    manifest: &RunManifest,
    result: &sudc::experiments::ExperimentResult,
) -> bool {
    if !cli.quiet {
        println!("{}", result.to_text_table());
    }
    let mut ok = super::emit_artifacts(&params.out_dir, result, cli.quiet);
    if let Err(e) = manifest.write_to(&params.out_dir) {
        eprintln!("error writing run manifest: {e}");
        ok = false;
    }
    ok
}

pub fn exec(cli: &Cli) -> ExitCode {
    if let Some(code) = handle_operands(cli) {
        return code;
    }
    if cli.serve.is_some() {
        return super::serve::exec(cli);
    }

    let scenario = cli.faults.clone().unwrap_or_else(|| "none".to_string());
    let Some(model) = FaultModel::scenario(&scenario) else {
        eprintln!("error: unknown fault scenario '{scenario}' (try `repro sim list`)");
        return ExitCode::FAILURE;
    };
    let params = match SimParams::from_cli(cli) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    if let Err(e) = super::install_telemetry(cli) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }

    let mut cfg = params.reference_config();
    // The fault-free baseline runs first, so bad --clusters/--topology
    // combinations produce a diagnostic before a flight log is opened.
    let baseline = match super::simulate(cli, &cfg, None) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    cfg.faults = model;
    let recorder = match super::make_recorder(cli) {
        Ok(rec) => rec,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let faulted = match super::simulate(cli, &cfg, recorder.as_ref()) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = super::finish_recording(cli, recorder.as_ref()) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }

    let mut manifest = RunManifest::new("sim", params.seed);
    manifest.param("scenario", scenario.as_str());
    manifest.param("topology", params.choice.label.as_str());
    manifest.param("minutes", params.minutes);
    manifest.param("clusters", params.clusters as u64);
    // Static runs keep the pre-policy manifest bytes; adaptive runs
    // declare their controller.
    if params.policy != sudc::sim::PolicyKind::Static {
        manifest.param("policy", params.policy.as_str());
    }
    let result = comparison_result(&scenario, &params, &baseline, &faulted);
    manifest.record_experiment(&result.id);
    let failed = !emit_outputs(cli, &params, &manifest, &result);

    telemetry::info(
        "sim.done",
        vec![
            ("scenario".to_string(), scenario.as_str().into()),
            (
                "availability".to_string(),
                faulted.faults.availability.into(),
            ),
            ("goodput".to_string(), faulted.goodput.into()),
            ("reroutes".to_string(), faulted.faults.reroutes.into()),
            ("failed".to_string(), failed.into()),
        ],
    );
    super::exit_status(cli, failed)
}

/// Builds the baseline-vs-faulted comparison artifact
/// (`faults_<scenario>[_<topology>]`), one metric per row.
fn comparison_result(
    scenario: &str,
    params: &SimParams,
    baseline: &sudc::sim::SimReport,
    faulted: &sudc::sim::SimReport,
) -> sudc::experiments::ExperimentResult {
    let TopologyChoice { slug, label, .. } = &params.choice;
    let (seed, minutes, clusters) = (params.seed, params.minutes, params.clusters);
    let id = format!("faults_{scenario}{slug}{}", params.policy_slug());
    let mut result = sudc::experiments::ExperimentResult::new(
        &id,
        &format!("Fault injection: '{scenario}' vs fault-free baseline (seed {seed})"),
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
    result.note(format!(
        "paper-reference {label}, {clusters} clusters, {minutes} simulated minutes, seed {seed}"
    ));
    if params.policy != sudc::sim::PolicyKind::Static {
        result.note(format!(
            "adaptive control plane: --policy {} (static runs keep the unsuffixed artifact)",
            params.policy.as_str()
        ));
    }
    result.note(
        "same seed + same scenario reproduces this file byte-for-byte \
         (see scripts/verify.sh determinism gate)",
    );
    result
}
