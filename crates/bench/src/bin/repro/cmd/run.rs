//! `repro <id>... | all` — run experiments and write their artifacts.

use std::process::ExitCode;

use sudc::experiments;
use telemetry::RunManifest;

use crate::Cli;

pub fn exec(cli: &Cli) -> ExitCode {
    if let Err(e) = super::install_telemetry(cli) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }

    let ids: Vec<String> = if cli.ids.first().map(String::as_str) == Some("all") {
        experiments::all()
            .iter()
            .map(|e| e.id.to_string())
            .collect()
    } else {
        cli.ids.clone()
    };
    if ids.is_empty() {
        eprintln!("error: no experiment ids given (try `repro list`)");
        return ExitCode::FAILURE;
    }

    let results_dir = cli.out_dir.clone().unwrap_or_else(bench::results_dir);
    let mut manifest = RunManifest::new("repro", sudc::sim::PAPER_SEED);
    manifest.param("trace", cli.trace);
    manifest.param("quiet", cli.quiet);
    manifest.param("experiment_count", ids.len() as u64);

    let mut failed = false;
    for id in &ids {
        match experiments::run(id) {
            Some(result) => {
                manifest.record_experiment(id);
                if !cli.quiet {
                    println!("{}", result.to_text_table());
                }
                if super::emit_artifacts(&results_dir, &result, cli.quiet) {
                    if !cli.quiet {
                        println!();
                    }
                } else {
                    failed = true;
                }
            }
            None => {
                eprintln!("unknown experiment id: {id} (try `repro list`)");
                failed = true;
            }
        }
    }

    match manifest.write_to(&results_dir) {
        Ok(path) => telemetry::info(
            "repro.manifest",
            vec![("path".to_string(), path.display().to_string().into())],
        ),
        Err(e) => {
            eprintln!("error writing run manifest: {e}");
            failed = true;
        }
    }

    telemetry::info(
        "repro.done",
        vec![
            ("experiments".to_string(), manifest.experiments.len().into()),
            ("failed".to_string(), failed.into()),
        ],
    );
    super::exit_status(cli, failed)
}
