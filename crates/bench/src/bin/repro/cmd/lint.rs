//! `repro lint [--rule <id>] [--format text|json] [--update-baseline]
//! [--audit determinism]` — run the workspace static-analysis engine
//! (`sudc-lint`) and gate against the ratcheting baseline in
//! `results/lint_baseline.json`: grandfathered violations pass, new
//! ones fail, and per rule the baseline may only shrink (a rule absent
//! from the committed baseline may grandfather its offenders once, so
//! new rules can land ratcheted).
//!
//! `--audit determinism` additionally writes the committed
//! `results/lint_audit.json` artifact, which is byte-identical across
//! runs.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use sudc_lint::{ratchet, report, rule_by_id, Baseline};

use crate::Cli;

/// Sums a baseline's grandfathered violations per rule id (entry keys
/// are `<file>:<rule>`; paths never contain `:`).
fn totals_by_rule(baseline: &Baseline) -> BTreeMap<String, u64> {
    let mut totals: BTreeMap<String, u64> = BTreeMap::new();
    for (key, prints) in &baseline.entries {
        let rule = key.rsplit_once(':').map_or(key.as_str(), |(_, r)| r);
        *totals.entry(rule.to_string()).or_default() += prints.values().sum::<u64>();
    }
    totals
}

/// The ratchet check behind `--update-baseline`: per rule already in
/// the committed baseline the count may only shrink; rules the
/// committed baseline has never seen may grandfather offenders once.
/// Returns the offending `(rule, committed, next)` on refusal.
fn baseline_growth(committed: &Baseline, next: &Baseline) -> Option<(String, u64, u64)> {
    if committed.is_empty() {
        return None;
    }
    let before = totals_by_rule(committed);
    for (rule, &after) in &totals_by_rule(next) {
        match before.get(rule) {
            Some(&b) if after > b => return Some((rule.clone(), b, after)),
            _ => {}
        }
    }
    None
}

/// `--update-baseline`: regenerate the committed baseline from this
/// scan, subject to [`baseline_growth`]'s one-way ratchet.
fn update_baseline(
    cli: &Cli,
    committed: &Baseline,
    diags: &[sudc_lint::Diagnostic],
    baseline_path: &std::path::Path,
) -> ExitCode {
    let next = Baseline::from_diags(diags);
    if let Some((rule, before, after)) = baseline_growth(committed, &next) {
        eprintln!(
            "error: refusing to grow the baseline for rule '{rule}' \
             ({before} -> {after} violations); the ratchet only turns one \
             way — fix the new violations or suppress them with \
             `// lint:allow({rule}) <reason>`"
        );
        return ExitCode::FAILURE;
    }
    if let Err(e) = next.save(baseline_path) {
        eprintln!("error writing {}: {e}", baseline_path.display());
        return ExitCode::FAILURE;
    }
    if !cli.quiet {
        println!(
            "wrote {} ({} grandfathered violations in {} file:rule entries, was {})",
            baseline_path.display(),
            next.total(),
            next.len(),
            committed.total()
        );
    }
    telemetry::flush();
    ExitCode::SUCCESS
}

/// Handles `repro lint rules` and rejects stray operands; `None` means
/// proceed into the scan.
fn handle_operands(cli: &Cli) -> Option<ExitCode> {
    let operands = &cli.ids[1..];
    if operands.first().map(String::as_str) == Some("rules") {
        println!("lint rules:");
        for r in sudc_lint::RULES {
            println!("  {:28} [{}]  {}", r.id, r.severity.label(), r.summary);
            println!("  {:28}        fix: {}", "", r.hint);
        }
        return Some(ExitCode::SUCCESS);
    }
    if let Some(op) = operands.first() {
        eprintln!(
            "error: unexpected operand '{op}' (usage: repro lint [rules] [--rule <id>] \
             [--format text|json] [--update-baseline])"
        );
        return Some(ExitCode::FAILURE);
    }
    None
}

/// Validates the flag combination: `--rule` must name a known rule,
/// `--update-baseline` and `--audit` cover all rules (no `--rule`), and
/// the only audit is `determinism`. Returns the `--rule` restriction.
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
    if cli.update_baseline && only.is_some() {
        eprintln!("error: --update-baseline covers all rules; drop --rule");
        return Err(ExitCode::FAILURE);
    }
    match cli.audit.as_deref() {
        None | Some("determinism") => {}
        Some(other) => {
            eprintln!("error: unknown audit '{other}' (only 'determinism' exists)");
            return Err(ExitCode::FAILURE);
        }
    }
    if cli.audit.is_some() && (only.is_some() || cli.update_baseline) {
        eprintln!("error: --audit covers all rules; drop --rule/--update-baseline");
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
    let baseline_path = results_dir.join("lint_baseline.json");

    let ws = match sudc_lint::Workspace::load(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (run, analysis) = ws.scan(only);

    let committed = match Baseline::load(&baseline_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    if cli.update_baseline {
        return update_baseline(cli, &committed, &run.diagnostics, &baseline_path);
    }

    // A --rule scan only sees that rule's diagnostics, so compare
    // against the matching slice of the baseline.
    let baseline = match only {
        Some(id) => committed.for_rule(id),
        None => committed,
    };
    let outcome = ratchet(&baseline, &run.diagnostics);

    match format {
        "json" => print!("{}", report::render_json(&run, &outcome)),
        _ => print!("{}", report::render_text(&run, &outcome, cli.verbose)),
    }

    let mut failed = !outcome.new.is_empty();
    if cli.audit.is_some() {
        let doc = report::render_audit(&run, &outcome, &analysis);
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
            ("new".to_string(), (outcome.new.len() as u64).into()),
            ("fixed".to_string(), outcome.fixed.into()),
        ],
    );
    telemetry::flush();

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
