//! Report rendering for `repro lint`.
//!
//! Three formats: a human `text` report (per-diagnostic lines with
//! snippets and fix hints, then a per-rule summary and the verdict;
//! `--quiet` prints the diagnostic lines alone, [`render_findings`]),
//! a machine `json` report (one document with the same
//! content, encoded with `telemetry::json`), and the committed
//! determinism `audit` artifact ([`render_audit`]) — byte-identical
//! across runs by construction (no wall-clock fields, sorted keys,
//! deterministic diagnostic order).

use telemetry::json::{JsonArray, JsonObject};

use crate::{Diagnostic, LintRun};

/// Renders the human-readable report: the findings, then the rule
/// counts and the verdict.
pub fn render_text(run: &LintRun) -> String {
    let mut out = render_findings(run);
    if !run.diagnostics.is_empty() {
        out.push('\n');
    }
    out.push_str("rule counts:\n");
    for (id, n) in run.counts_by_rule() {
        out.push_str(&format!("  {id:<28} {n}\n"));
    }
    out.push_str(&format!(
        "\nscanned {} files, {} lines, {} tokens: {} finding(s)\n",
        run.files,
        run.lines,
        run.tokens,
        run.diagnostics.len()
    ));
    out.push_str(if run.diagnostics.is_empty() {
        "lint: PASS\n"
    } else {
        "lint: FAIL (fix each finding or add `// lint:allow(<rule>) <reason>`)\n"
    });
    out
}

/// Renders each finding with its snippet and fix hint, and nothing
/// else: the whole text report under `--quiet`, empty on a clean run.
pub fn render_findings(run: &LintRun) -> String {
    let mut out = String::new();
    for d in &run.diagnostics {
        out.push_str(&format!(
            "{}:{}:{}: [{}]: {}\n    {}\n    fix: {}\n",
            d.file, d.line, d.col, d.rule, d.message, d.snippet, d.hint
        ));
    }
    out
}

/// Renders the machine-readable report.
pub fn render_json(run: &LintRun) -> String {
    let mut rules = JsonArray::new();
    for (id, n) in run.counts_by_rule() {
        let mut obj = JsonObject::new();
        obj.field_str("id", id).field_u64("count", n as u64);
        rules.push_raw(&obj.finish());
    }
    let mut diagnostics = JsonArray::new();
    for d in &run.diagnostics {
        diagnostics.push_raw(&diag_json(d));
    }
    let mut root = JsonObject::new();
    root.field_str("tool", "sudc-lint")
        .field_u64("files", run.files as u64)
        .field_u64("lines", run.lines)
        .field_u64("findings", run.diagnostics.len() as u64)
        .field_bool("pass", run.diagnostics.is_empty())
        .field_raw("rules", &rules.finish())
        .field_raw("diagnostics", &diagnostics.finish());
    root.finish() + "\n"
}

/// Renders the committed determinism-audit artifact
/// (`results/lint_audit.json`): the scan's size, per-rule counts over
/// the full registry, and the verdict. Every field is a pure function
/// of the source tree, so a fresh run must equal the committed file
/// byte for byte — the results gate in `crates/bench/tests/gates.rs`
/// checks exactly that.
pub fn render_audit(run: &LintRun) -> String {
    let mut rules = JsonArray::new();
    for (id, n) in run.counts_by_rule() {
        let mut obj = JsonObject::new();
        obj.field_str("id", id).field_u64("count", n as u64);
        rules.push_raw(&obj.finish());
    }
    let mut root = JsonObject::new();
    root.field_str("tool", "sudc-lint")
        .field_str("audit", "determinism")
        .field_u64("version", 2)
        .field_u64("files", run.files as u64)
        .field_u64("lines", run.lines)
        .field_u64("code_lines", run.code_lines)
        .field_raw("rules", &rules.finish())
        .field_bool("pass", run.diagnostics.is_empty());
    root.finish() + "\n"
}

fn diag_json(d: &Diagnostic) -> String {
    let mut obj = JsonObject::new();
    obj.field_str("file", &d.file)
        .field_u64("line", u64::from(d.line))
        .field_u64("col", u64::from(d.col))
        .field_str("rule", d.rule)
        .field_str("message", &d.message)
        .field_str("snippet", &d.snippet);
    obj.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint_source;
    use telemetry::json::{self, Json};

    fn sample() -> LintRun {
        let diags = lint_source(
            "crates/core/src/m.rs",
            "fn f(x: f64) -> bool { x == 0.5 }\n",
            None,
        );
        LintRun {
            files: 1,
            lines: 1,
            code_lines: 1,
            tokens: 0,
            diagnostics: diags,
        }
    }

    #[test]
    fn text_report_shows_new_findings_and_verdict() {
        let text = render_text(&sample());
        assert!(text.contains("crates/core/src/m.rs:1:"), "{text}");
        assert!(text.contains("[float-eq]"));
        assert!(text.contains("fix:"));
        assert!(text.contains("lint: FAIL"));
        assert!(text.contains(": 1 finding(s)"), "{text}");
    }

    #[test]
    fn clean_text_report_passes() {
        let run = LintRun {
            diagnostics: Vec::new(),
            ..sample()
        };
        let text = render_text(&run);
        assert!(text.contains("lint: PASS"));
        assert!(!text.contains("fix:"), "no finding, no fix hint");
    }

    #[test]
    fn findings_report_is_the_findings_alone() {
        let run = sample();
        let findings = render_findings(&run);
        assert!(findings.contains("crates/core/src/m.rs:1:"), "{findings}");
        assert!(findings.contains("fix:"));
        assert!(!findings.contains("rule counts"), "{findings}");
        assert!(!findings.contains("lint: FAIL"), "{findings}");
        assert!(render_text(&run).starts_with(&findings));
        let clean = LintRun {
            diagnostics: Vec::new(),
            ..run
        };
        assert_eq!(render_findings(&clean), "");
    }

    #[test]
    fn json_report_parses_and_carries_the_verdict() {
        let doc = json::parse(&render_json(&sample())).expect("valid json");
        assert_eq!(doc.get("pass"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("findings").and_then(Json::as_u64), Some(1));
        let diags = doc
            .get("diagnostics")
            .and_then(Json::as_arr)
            .expect("array");
        assert_eq!(diags.len(), 1);
        assert_eq!(
            diags[0].get("rule").and_then(Json::as_str),
            Some("float-eq")
        );
        let rules = doc.get("rules").and_then(Json::as_arr).expect("rules");
        assert_eq!(rules.len(), crate::RULES.len());
    }

    #[test]
    fn audit_report_is_byte_identical_and_carries_analysis_shape() {
        let run = crate::LintRun::from_sources(&[
            (
                "crates/core/src/sim/engine.rs",
                "pub fn step(x: u32) -> u32 { helper(x) }\npub fn helper(x: u32) -> u32 { x }\n\
                 #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {}\n}\n",
            ),
            ("crates/core/tests/it.rs", "fn main() {}\n"),
        ]);
        let a = render_audit(&run);
        assert_eq!(a, render_audit(&run));
        let doc = json::parse(&a).expect("valid json");
        assert_eq!(doc.get("audit").and_then(Json::as_str), Some("determinism"));
        assert_eq!(doc.get("version").and_then(Json::as_u64), Some(2));
        assert_eq!(doc.get("pass"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("lines").and_then(Json::as_u64), Some(8));
        assert_eq!(
            doc.get("code_lines").and_then(Json::as_u64),
            Some(2),
            "only the src file's two non-test lines count"
        );
        let rules = doc.get("rules").and_then(Json::as_arr).expect("rules");
        assert_eq!(rules.len(), crate::RULES.len());
    }
}
