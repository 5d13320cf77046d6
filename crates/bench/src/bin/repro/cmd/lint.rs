//! `repro lint [rules] [--rule <id>] [--format text|json] [--audit
//! determinism]` — run the workspace static-analysis engine
//! (`sudc-lint`). Any finding that no reasoned `lint:allow` suppresses
//! fails the run, with or without `--rule`.
//!
//! `--audit determinism` additionally writes the committed
//! `results/lint_audit.json` artifact, which is byte-identical across
//! runs.

use std::path::PathBuf;
use std::process::ExitCode;

use sudc_lint::{report, rule_by_id};

use crate::Cli;

/// Handles `repro lint rules` and rejects stray operands; `None` means
/// proceed into the scan.
fn handle_operands(cli: &Cli) -> Option<ExitCode> {
    let operands = &cli.ids[1..];
    if operands.first().map(String::as_str) == Some("rules") {
        println!("lint rules:");
        for r in sudc_lint::RULES {
            println!("  {:28} {}", r.id, r.summary);
            println!("  {:28} fix: {}", "", r.hint);
        }
        return Some(ExitCode::SUCCESS);
    }
    if let Some(op) = operands.first() {
        eprintln!(
            "error: unexpected operand '{op}' (usage: repro lint [rules] [--rule <id>] \
             [--format text|json] [--audit determinism])"
        );
        return Some(ExitCode::FAILURE);
    }
    None
}

/// Validates the flag combination: `--rule` must name a known rule,
/// `--audit` covers all rules (no `--rule`), and the only audit is
/// `determinism`. Returns the `--rule` restriction.
fn validate_flags(cli: &Cli) -> Result<Option<&'static str>, ExitCode> {
    let only = match &cli.rule {
        Some(id) => match rule_by_id(id) {
            Some(r) => Some(r.id),
            None => {
                eprintln!("error: unknown rule '{id}' (try `repro lint rules`)");
                return Err(ExitCode::FAILURE);
            }
        },
        None => None,
    };
    match cli.audit.as_deref() {
        None | Some("determinism") => {}
        Some(other) => {
            eprintln!("error: unknown audit '{other}' (only 'determinism' exists)");
            return Err(ExitCode::FAILURE);
        }
    }
    if cli.audit.is_some() && only.is_some() {
        eprintln!("error: --audit covers all rules; drop --rule");
        return Err(ExitCode::FAILURE);
    }
    Ok(only)
}

/// `--audit`: writes the committed audit artifact (default
/// `results/lint_audit.json`, or into `--out-dir`). Returns `false` on
/// an IO failure.
fn write_audit(cli: &Cli, doc: &str, results_dir: &std::path::Path, format: &str) -> bool {
    let audit_dir = cli
        .out_dir
        .clone()
        .unwrap_or_else(|| results_dir.to_path_buf());
    let audit_path = audit_dir.join("lint_audit.json");
    if let Err(e) = std::fs::create_dir_all(&audit_dir)
        .and_then(|()| std::fs::write(&audit_path, doc.as_bytes()))
    {
        eprintln!("error writing {}: {e}", audit_path.display());
        return false;
    }
    if !cli.quiet && format != "json" {
        println!("wrote {}", audit_path.display());
    }
    true
}

pub fn exec(cli: &Cli) -> ExitCode {
    if let Some(code) = handle_operands(cli) {
        return code;
    }
    let only = match validate_flags(cli) {
        Ok(only) => only,
        Err(code) => return code,
    };
    let format = cli.format.as_deref().unwrap_or("text");

    if let Err(e) = super::install_telemetry(cli) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }

    let results_dir = bench::results_dir();
    let root = results_dir
        .parent()
        .map_or_else(|| PathBuf::from("."), std::path::Path::to_path_buf);

    let run = match sudc_lint::lint_workspace(&root, only) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    match format {
        "json" => print!("{}", report::render_json(&run)),
        _ if cli.quiet => print!("{}", report::render_findings(&run)),
        _ => print!("{}", report::render_text(&run)),
    }

    let mut failed = !run.diagnostics.is_empty();
    if cli.audit.is_some() {
        let doc = report::render_audit(&run);
        failed |= !write_audit(cli, &doc, &results_dir, format);
    }

    telemetry::info(
        "lint.done",
        vec![
            ("files".to_string(), (run.files as u64).into()),
            (
                "findings".to_string(),
                (run.diagnostics.len() as u64).into(),
            ),
        ],
    );
    super::exit_status(cli, failed)
}
