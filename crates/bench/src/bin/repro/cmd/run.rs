//! `repro <id>... | all` — run experiments and write their artifacts;
//! `repro list` — list them.

use sudc::experiments;
use telemetry::RunManifest;

use super::{Out, Outcome, Publisher};
use crate::Cli;

/// `repro list` — every experiment with its paper reference.
pub fn list(out: &mut Out) -> Outcome {
    writeln!(out, "available experiments:");
    for e in experiments::all() {
        writeln!(out, "  {:9}  {:9}  {}", e.id, e.paper_ref, e.description);
    }
    Ok(false)
}

pub fn exec(cli: &Cli, out: &mut Out) -> Outcome {
    let ids: Vec<String> = if cli.ids.first().map(String::as_str) == Some("all") {
        experiments::all()
            .iter()
            .map(|e| e.id.to_string())
            .collect()
    } else {
        cli.ids.clone()
    };
    if ids.is_empty() {
        return Err("no experiment ids given (try `repro list`)".to_string());
    }

    let mut manifest = RunManifest::new("repro", sudc::sim::PAPER_SEED);
    manifest.param("trace", cli.trace);
    manifest.param("quiet", cli.quiet);
    manifest.param("experiment_count", ids.len() as u64);

    let mut publisher = Publisher::new(cli, out, manifest, true);
    for id in &ids {
        match experiments::run(id) {
            Some(result) => publisher.publish(&result, &[&result]),
            None => publisher.fail(&format!("unknown experiment id: {id} (try `repro list`)")),
        }
    }
    let experiments = publisher.published();
    let failed = publisher.finish();

    telemetry::info(
        "repro.done",
        vec![
            ("experiments".to_string(), experiments.into()),
            ("failed".to_string(), failed.into()),
        ],
    );
    Ok(failed)
}
