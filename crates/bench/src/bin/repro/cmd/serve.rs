//! `repro sim --serve <scenario>` — run the multi-tenant user-traffic
//! serving layer on the paper-reference constellation and write a
//! per-tenant SLO report (`results/serve_<scenario>[_<topology>].{txt,
//! csv,json}`) and its run manifest. The scenario's own fault model
//! applies unless `--faults` overrides it; `--record` streams the
//! request lifecycle (arrived/admitted/rejected/batched/completed/
//! violated) into a JSONL flight log for `repro trace`.

use std::process::ExitCode;

use sudc::sim::{FaultModel, ServeReport, ServeScenario};
use telemetry::RunManifest;

use super::SimParams;
use crate::Cli;

pub fn exec(cli: &Cli) -> ExitCode {
    let scenario = cli.serve.clone().unwrap_or_default();
    let Some(sc) = ServeScenario::scenario(&scenario) else {
        eprintln!("error: unknown serve scenario '{scenario}' (try `repro sim list`)");
        return ExitCode::FAILURE;
    };
    let faults = match &cli.faults {
        Some(name) => match FaultModel::scenario(name) {
            Some(model) => model,
            None => {
                eprintln!("error: unknown fault scenario '{name}' (try `repro sim list`)");
                return ExitCode::FAILURE;
            }
        },
        None => sc.faults,
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
    cfg.serve = Some(sc.serve);
    cfg.faults = faults;

    let recorder = match super::make_recorder(cli) {
        Ok(rec) => rec,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Serve scenarios are ineligible for sharding (tenant state spans
    // clusters), so try_run_threads runs them on the sequential loop
    // whatever --threads says; the flag is accepted so it is uniform
    // across `repro sim` modes.
    let report = match super::simulate(cli, &cfg, recorder.as_ref()) {
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
    let Some(serve) = report.serve.as_ref() else {
        eprintln!("error: serve run produced no serve report");
        return ExitCode::FAILURE;
    };

    let ok = emit_outputs(cli, &params, &scenario, &report, serve);

    telemetry::info(
        "serve.done",
        vec![
            ("scenario".to_string(), scenario.as_str().into()),
            (
                "requests_per_sec".to_string(),
                serve.requests_per_sec.into(),
            ),
            (
                "batch_efficiency".to_string(),
                serve.batch_efficiency.into(),
            ),
            ("shed_rate".to_string(), serve.shed_rate.into()),
            ("failed".to_string(), (!ok).into()),
        ],
    );
    super::exit_status(cli, !ok)
}

/// Writes the run manifest and the per-tenant SLO artifact; returns
/// false if any write failed.
fn emit_outputs(
    cli: &Cli,
    params: &SimParams,
    scenario: &str,
    report: &sudc::sim::SimReport,
    serve: &ServeReport,
) -> bool {
    let mut manifest = RunManifest::new("sim_serve", params.seed);
    manifest.param("scenario", scenario);
    manifest.param("topology", params.choice.label.as_str());
    manifest.param("minutes", params.minutes);
    manifest.param("clusters", params.clusters as u64);
    // Static runs keep the committed manifest bytes; adaptive runs
    // declare their controller.
    if params.policy != sudc::sim::PolicyKind::Static {
        manifest.param("policy", params.policy.as_str());
    }
    let result = serve_result(scenario, params, report, serve);
    manifest.record_experiment(&result.id);

    if !cli.quiet {
        println!("{}", result.to_text_table());
    }
    let mut ok = super::emit_artifacts(&params.out_dir, &result, cli.quiet);
    if let Err(e) = manifest.write_to(&params.out_dir) {
        eprintln!("error writing run manifest: {e}");
        ok = false;
    }
    ok
}

/// The artifact's trailing `(all)` row: tenant counters summed, the
/// latency percentiles dashed out (they don't aggregate), and the
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
    report: &sudc::sim::SimReport,
    serve: &ServeReport,
) -> sudc::experiments::ExperimentResult {
    let id = format!(
        "serve_{scenario}{}{}",
        params.choice.slug,
        params.policy_slug()
    );
    let mut result = sudc::experiments::ExperimentResult::new(
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
    result.note(format!(
        "paper-reference {}, {} clusters, {} simulated minutes, seed {}",
        params.choice.label, params.clusters, params.minutes, params.seed
    ));
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
