//! `repro lint [rules] [--rule <id>] [--format text|json] [--audit
//! determinism]` — run the workspace static-analysis engine
//! (`sudc-lint`). Any finding that no reasoned `lint:allow` suppresses
//! fails the run, with or without `--rule`.
//!
//! `--audit determinism` additionally writes the committed
//! `results/lint_audit.json` artifact, which is byte-identical across
//! runs.

use std::path::{Path, PathBuf};

use sudc_lint::{report, rule_by_id};

use super::{Out, Outcome};
use crate::Cli;

/// `repro lint rules` — every rule with its fix hint.
fn list(out: &mut Out) {
    writeln!(out, "lint rules:");
    for r in sudc_lint::RULES {
        writeln!(out, "  {:28} {}", r.id, r.summary);
        writeln!(out, "  {:28} fix: {}", "", r.hint);
    }
}

/// Validates the flag combination: `--rule` must name a known rule,
/// `--audit` covers all rules (no `--rule`), and the only audit is
/// `determinism`. Returns the `--rule` restriction.
fn validate_flags(cli: &Cli) -> Result<Option<&'static str>, String> {
    let only = match &cli.rule {
        Some(id) => Some(
            rule_by_id(id)
                .ok_or_else(|| format!("unknown rule '{id}' (try `repro lint rules`)"))?
                .id,
        ),
        None => None,
    };
    match cli.audit.as_deref() {
        None | Some("determinism") => {}
        Some(other) => {
            return Err(format!(
                "unknown audit '{other}' (only 'determinism' exists)"
            ))
        }
    }
    if cli.audit.is_some() && only.is_some() {
        return Err("--audit covers all rules; drop --rule".to_string());
    }
    Ok(only)
}

/// `--audit`: writes the committed audit artifact (default
/// `results/lint_audit.json`, or into `--out-dir`). Returns `false` on
/// an IO failure.
fn write_audit(cli: &Cli, out: &mut Out, doc: &str, results_dir: &Path, format: &str) -> bool {
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
        writeln!(out, "wrote {}", audit_path.display());
    }
    true
}

pub fn exec(cli: &Cli, out: &mut Out) -> Outcome {
    match cli.ids.get(1).map(String::as_str) {
        Some("rules") => {
            list(out);
            return Ok(false);
        }
        Some(op) => {
            return Err(format!(
                "unexpected operand '{op}' (usage: repro lint [rules] [--rule <id>] \
                 [--format text|json] [--audit determinism])"
            ))
        }
        None => {}
    }
    let only = validate_flags(cli)?;
    let format = cli.format.as_deref().unwrap_or("text");

    let results_dir = bench::results_dir();
    let root = results_dir
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf);

    let run = sudc_lint::lint_workspace(&root, only)?;

    match format {
        "json" => write!(out, "{}", report::render_json(&run)),
        _ if cli.quiet => write!(out, "{}", report::render_findings(&run)),
        _ => write!(out, "{}", report::render_text(&run)),
    }

    let mut failed = !run.diagnostics.is_empty();
    if cli.audit.is_some() {
        let doc = report::render_audit(&run);
        failed |= !write_audit(cli, out, &doc, &results_dir, format);
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
    Ok(failed)
}
