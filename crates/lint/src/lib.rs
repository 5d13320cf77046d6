//! `sudc-lint` — workspace static analysis for determinism.
//!
//! The reproduction's headline guarantee is bit-exact determinism:
//! fault-free runs must stay byte-identical to `results/simval.*`,
//! same-seed sweeps must replay exactly, and N-worker sharded runs must
//! match sequential byte for byte. This crate is the *static* half of
//! that guarantee: a zero-dependency, string/char/comment-aware
//! [`lexer`] feeding per-file token [`rules`] that catch the usual ways
//! determinism rots (any `HashMap`/`HashSet`, wall-clock reads in model
//! and recorder code, ad-hoc RNG streams and stream labels, float `==`,
//! stray `unwrap()`/`expect()`/panicking macros in library paths,
//! leftover to-do markers, and shared statics or thread identity in the
//! code shard workers run).
//!
//! The verdict is one rule: any finding fails. The only way to let one
//! through is an inline `// lint:allow(rule-id) reason` on or above its
//! line, with a non-empty reason.
//!
//! ```
//! let diags = sudc_lint::lint_source(
//!     "crates/core/src/model.rs",
//!     "fn f(x: f64) -> bool { x == 0.25 }",
//!     None,
//! );
//! assert_eq!(diags.len(), 1);
//! assert_eq!(diags[0].rule, "float-eq");
//! ```

use std::fs;
use std::path::{Path, PathBuf};

pub mod baseline;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod source;

pub use baseline::Baseline;
pub use rules::{rule_by_id, RuleInfo, RULES};
pub use source::SourceFile;

/// One lint finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Rule id.
    pub rule: &'static str,
    /// What fired, with the offending token in backticks.
    pub message: String,
    /// Fix guidance from the rule.
    pub hint: &'static str,
    /// The violating source line, trimmed.
    pub snippet: String,
}

impl Diagnostic {
    /// Builds a diagnostic at a token position, taking the snippet from
    /// the source line.
    pub fn new(
        rule: &RuleInfo,
        file: &SourceFile,
        line: u32,
        col: u32,
        message: String,
    ) -> Diagnostic {
        Diagnostic {
            file: file.path.clone(),
            line,
            col,
            rule: rule.id,
            message,
            hint: rule.hint,
            snippet: file.line_text(line).trim().to_string(),
        }
    }
}

/// Lints one in-memory source file. `only` restricts to a single rule id (unknown ids yield no
/// diagnostics — validate with [`rule_by_id`] first).
pub fn lint_source(rel_path: &str, src: &str, only: Option<&str>) -> Vec<Diagnostic> {
    let file = SourceFile::parse(rel_path, src);
    let mut out = Vec::new();
    for rule in RULES {
        if only.is_some_and(|id| id != rule.id) {
            continue;
        }
        rule.check(&file, &mut out);
    }
    out.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    out
}

/// The loaded workspace: every lintable file, lexed once.
#[derive(Debug)]
pub struct Workspace {
    /// Parsed files in sorted path order.
    pub files: Vec<SourceFile>,
    /// Total source lines across `files`.
    pub lines: u64,
    /// Lines of `crates/*/src` outside test items
    /// ([`SourceFile::code_lines`]).
    pub code_lines: u64,
}

impl Workspace {
    /// Builds a workspace from in-memory `(path, source)` pairs.
    #[cfg(test)]
    pub(crate) fn from_sources(sources: &[(&str, &str)]) -> Workspace {
        Workspace::from_files(
            sources
                .iter()
                .map(|(path, src)| SourceFile::parse(path, src))
                .collect(),
        )
    }

    fn from_files(files: Vec<SourceFile>) -> Workspace {
        let lines = files.iter().map(|f| f.line_count() as u64).sum();
        let code_lines = files
            .iter()
            .filter(|f| f.path.starts_with("crates/") && f.path.split('/').nth(2) == Some("src"))
            .map(|f| f.code_lines() as u64)
            .sum();
        Workspace {
            files,
            lines,
            code_lines,
        }
    }

    /// Loads every lintable file under `root` (sorted, deterministic).
    ///
    /// # Errors
    ///
    /// Returns a message when the tree cannot be walked, a file cannot
    /// be read or is too long for the lexer, or no lintable sources
    /// exist.
    pub fn load(root: &Path) -> Result<Workspace, String> {
        let listing =
            collect_files(root).map_err(|e| format!("walking {}: {e}", root.display()))?;
        if listing.is_empty() {
            return Err(format!(
                "no lintable sources under {} (expected crates/, tests/, examples/)",
                root.display()
            ));
        }
        let mut files = Vec::with_capacity(listing.len());
        for (rel, path) in &listing {
            let src =
                fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
            check_source_len(rel, src.len())?;
            files.push(SourceFile::from_string(rel, src));
        }
        Ok(Workspace::from_files(files))
    }

    /// Tokens lexed across `files`, comments included.
    pub fn tokens(&self) -> u64 {
        self.files.iter().map(|f| f.tokens.len() as u64).sum()
    }

    /// Runs every rule over every file and sorts the findings.
    pub fn scan(&self, only: Option<&str>) -> LintRun {
        let mut diagnostics = lexical_pass(self, only);
        diagnostics.sort_by(|a, b| {
            (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule))
        });
        LintRun {
            files: self.files.len(),
            lines: self.lines,
            code_lines: self.code_lines,
            tokens: self.tokens(),
            diagnostics,
        }
    }
}

/// Rejects a source of `len` bytes that token offsets (`u32`) cannot
/// address.
fn check_source_len(rel: &str, len: usize) -> Result<(), String> {
    if len > lexer::MAX_SOURCE_BYTES {
        return Err(format!(
            "{rel} is {len} bytes; the lexer reads files of at most {} bytes",
            lexer::MAX_SOURCE_BYTES
        ));
    }
    Ok(())
}

/// Runs every rule over the workspace, unsorted.
pub fn lexical_pass(ws: &Workspace, only: Option<&str>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in &ws.files {
        for rule in RULES {
            if only.is_some_and(|id| id != rule.id) {
                continue;
            }
            rule.check(file, &mut out);
        }
    }
    out
}

/// No-op kept for the benchmark's `lint.semantic_ms` probe
/// (`perfbench/src/layers.rs`), its only caller, which times
/// `semantic_pass(&analyze(&ws.files), None)`.
pub fn analyze(_files: &[SourceFile]) {}

/// No-op for the same probe as [`analyze`]: finds nothing.
pub fn semantic_pass(_analysis: &(), _only: Option<&str>) -> Vec<Diagnostic> {
    Vec::new()
}

/// A completed workspace scan.
#[derive(Debug)]
pub struct LintRun {
    /// Files scanned.
    pub files: usize,
    /// Total source lines scanned.
    pub lines: u64,
    /// Non-test lines of `crates/*/src` ([`Workspace::code_lines`]).
    pub code_lines: u64,
    /// Tokens lexed, comments included.
    pub tokens: u64,
    /// All diagnostics, sorted by (file, line, col, rule).
    pub diagnostics: Vec<Diagnostic>,
}

impl LintRun {
    /// Diagnostic count per rule id, in registry order (zero-count
    /// rules included, so reports always show the full registry).
    pub fn counts_by_rule(&self) -> Vec<(&'static str, usize)> {
        RULES
            .iter()
            .map(|r| {
                (
                    r.id,
                    self.diagnostics.iter().filter(|d| d.rule == r.id).count(),
                )
            })
            .collect()
    }
}

/// The source roots a workspace scan covers, relative to the workspace
/// root. Fixture directories (`crates/lint/fixtures/`) are deliberately
/// outside these roots.
const SCAN_ROOTS: &[&str] = &["crates", "tests", "examples"];

/// Whether a workspace-relative path is lintable source: `src/` trees,
/// bench harnesses, each crate's integration tests, and the
/// workspace-level `tests/` and `examples/`.
fn lintable(rel: &str) -> bool {
    if !rel.ends_with(".rs") {
        return false;
    }
    if rel.starts_with("tests/") || rel.starts_with("examples/") {
        return true;
    }
    rel.starts_with("crates/")
        && (rel.contains("/src/") || rel.contains("/benches/") || rel.contains("/tests/"))
}

/// Recursively collects lintable files under `root`, sorted by
/// workspace-relative path so scans are deterministic.
fn collect_files(root: &Path) -> std::io::Result<Vec<(String, PathBuf)>> {
    fn walk(dir: &Path, root: &Path, out: &mut Vec<(String, PathBuf)>) -> std::io::Result<()> {
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with('.') || name == "target" {
                continue;
            }
            if path.is_dir() {
                walk(&path, root, out)?;
            } else {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .replace('\\', "/");
                if lintable(&rel) {
                    out.push((rel, path));
                }
            }
        }
        Ok(())
    }
    let mut out = Vec::new();
    for scan_root in SCAN_ROOTS {
        let dir = root.join(scan_root);
        if dir.is_dir() {
            walk(&dir, root, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

/// Lints every Rust source file in the workspace rooted at `root`.
/// Emits telemetry (`lint.scan` span with `files`, `lines`, `tokens`
/// and `findings` fields) when a sink is installed.
///
/// # Errors
///
/// Returns a message when the tree cannot be walked or a file cannot
/// be read.
pub fn lint_workspace(root: &Path, only: Option<&str>) -> Result<LintRun, String> {
    let mut span = telemetry::span!("lint.scan");
    let ws = Workspace::load(root)?;
    let run = ws.scan(only);
    span.record("files", run.files as u64);
    span.record("lines", run.lines);
    span.record("tokens", run.tokens);
    span.record("findings", run.diagnostics.len() as u64);
    span.exit();
    Ok(run)
}

/// Locates the workspace root: two levels above this crate's manifest
/// directory (`crates/lint`).
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The workspace-relative path of the committed, empty baseline. The
/// lint never reads it; the benchmark's `lint_audit` set-up does (see
/// [`baseline`]).
pub const BASELINE_REL_PATH: &str = "results/lint_baseline.json";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_source_sorts_and_filters() {
        let src = "fn f(x: f64) -> bool {\n    let _ = x == 0.0;\n    Some(1).unwrap() == 1\n}\n";
        let all = lint_source("crates/core/src/m.rs", src, None);
        assert_eq!(all.len(), 2);
        assert!(all[0].line <= all[1].line);
        let only = lint_source("crates/core/src/m.rs", src, Some("float-eq"));
        assert_eq!(only.len(), 1);
        assert_eq!(only[0].rule, "float-eq");
    }

    #[test]
    fn oversized_sources_are_refused_by_name() {
        assert!(check_source_len("crates/a/src/ok.rs", lexer::MAX_SOURCE_BYTES).is_ok());
        let err = check_source_len("crates/a/src/huge.rs", lexer::MAX_SOURCE_BYTES + 1)
            .expect_err("one byte over the limit");
        assert!(err.contains("crates/a/src/huge.rs"), "{err}");
    }

    #[test]
    fn workspace_counts_lines_and_tokens() {
        let ws = Workspace::from_sources(&[
            ("crates/a/src/a.rs", "fn a() {}\n// note\n"),
            ("crates/a/src/b.rs", "let x = 1;"),
        ]);
        assert_eq!(ws.lines, 3);
        assert_eq!(ws.tokens(), 6 + 1 + 5);
    }

    #[test]
    fn lintable_path_filter() {
        assert!(lintable("crates/core/src/lib.rs"));
        assert!(lintable("crates/bench/benches/sim_bench.rs"));
        assert!(lintable("crates/bench/tests/gates.rs"));
        assert!(lintable("crates/compress/tests/heap_budget.rs"));
        assert!(lintable("tests/integration.rs"));
        assert!(lintable("examples/quickstart.rs"));
        assert!(
            !lintable("crates/lint/fixtures/dirty.rs"),
            "fixtures excluded"
        );
        assert!(!lintable("crates/core/Cargo.toml"));
        assert!(!lintable("results/simval.txt"));
    }

    #[test]
    fn registry_ids_are_unique_and_kebab_case() {
        let mut seen = std::collections::BTreeSet::new();
        for r in RULES {
            assert!(seen.insert(r.id), "duplicate id {}", r.id);
            assert!(
                r.id.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "{} not kebab-case",
                r.id
            );
            assert!(rule_by_id(r.id).is_some());
        }
        assert!(rule_by_id("no-such-rule").is_none());
    }

    #[test]
    fn counts_by_rule_covers_the_registry() {
        let run = LintRun {
            files: 1,
            lines: 1,
            code_lines: 1,
            tokens: 0,
            diagnostics: lint_source(
                "crates/core/src/m.rs",
                "fn f(x: f64) -> bool { x == 0.5 }\n",
                None,
            ),
        };
        let counts = run.counts_by_rule();
        assert_eq!(counts.len(), RULES.len());
        assert_eq!(
            counts
                .iter()
                .find(|(id, _)| *id == "float-eq")
                .map(|(_, n)| *n),
            Some(1)
        );
    }

    /// The real gate: no finding in the workspace survives its
    /// `lint:allow` suppressions.
    #[test]
    fn workspace_has_no_unsuppressed_findings() {
        let run = lint_workspace(&workspace_root(), None).expect("workspace scans");
        assert!(run.files > 0);
        assert!(
            run.diagnostics.is_empty(),
            "lint findings (run `repro lint` for details):\n{}",
            run.diagnostics
                .iter()
                .map(|d| format!("  {}:{}: {}: {}", d.file, d.line, d.rule, d.message))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
