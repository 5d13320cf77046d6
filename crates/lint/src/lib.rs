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
//! code shard workers run). All nine rules run in one walk over a
//! file's code tokens and one over its comments.
//!
//! The verdict is one rule: any finding fails. The only way to let one
//! through is an inline `// lint:allow(rule-id) reason` on or above its
//! line, with a non-empty reason.
//!
//! Every rule reads one file, so [`lint_workspace`] streams: after a
//! serial directory walk, one `explore::map` task per file reads, lexes
//! and checks it, and keeps only its counts and findings. The merged
//! run does not depend on the thread count, and the whole workspace is
//! never held at once ([`Workspace::load`] still holds it, for the
//! benchmark's per-phase probes).
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

use explore::ExecOptions;

pub mod baseline;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod source;

pub use baseline::Baseline;
use rules::check_file;
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
    let mut out = check_file(&SourceFile::parse(rel_path, src), only);
    sort_diagnostics(&mut out);
    out
}

/// Sorts findings by (file, line, col, rule), the order every report
/// prints.
fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
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
    /// Loads every lintable file under `root` (sorted, deterministic)
    /// and holds them all. [`lint_workspace`] streams the same files
    /// one at a time instead.
    ///
    /// # Errors
    ///
    /// Returns a message when the tree cannot be walked, a file cannot
    /// be read or is too long for the lexer, or no lintable sources
    /// exist.
    pub fn load(root: &Path) -> Result<Workspace, String> {
        let files: Vec<SourceFile> = list_files(root)?
            .iter()
            .map(|(rel, path)| load_file(rel, path))
            .collect::<Result<_, _>>()?;
        Ok(Workspace {
            lines: files.iter().map(|f| f.line_count() as u64).sum(),
            code_lines: files.iter().map(src_code_lines).sum(),
            files,
        })
    }
}

/// Lines of `file` that count as library code: its non-test lines when
/// it lies under `crates/*/src`, else none.
fn src_code_lines(file: &SourceFile) -> u64 {
    if file.path.starts_with("crates/") && file.path.split('/').nth(2) == Some("src") {
        file.code_lines() as u64
    } else {
        0
    }
}

/// Reads and lexes one listed file.
fn load_file(rel: &str, path: &Path) -> Result<SourceFile, String> {
    let src = fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    check_source_len(rel, src.len())?;
    Ok(SourceFile::from_string(rel, src))
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
    ws.files.iter().flat_map(|f| check_file(f, only)).collect()
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
#[derive(Debug, PartialEq)]
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
    /// One file's share of a scan: its counts and its findings.
    fn of_file(file: &SourceFile, only: Option<&str>) -> LintRun {
        LintRun {
            files: 1,
            lines: file.line_count() as u64,
            code_lines: src_code_lines(file),
            tokens: (file.code().len() + file.comments().len()) as u64,
            diagnostics: check_file(file, only),
        }
    }

    /// Lints in-memory `(path, source)` pairs as one scan.
    #[cfg(test)]
    pub(crate) fn from_sources(sources: &[(&str, &str)]) -> LintRun {
        LintRun::merge(
            sources
                .iter()
                .map(|(path, src)| Ok(LintRun::of_file(&SourceFile::parse(path, src), None))),
        )
        .expect("in-memory sources read without error")
    }

    /// Sums one-file runs given in path order into one sorted run. The
    /// first error in that order is the scan's error.
    fn merge(runs: impl IntoIterator<Item = Result<LintRun, String>>) -> Result<LintRun, String> {
        let mut total = LintRun {
            files: 0,
            lines: 0,
            code_lines: 0,
            tokens: 0,
            diagnostics: Vec::new(),
        };
        for run in runs {
            let run = run?;
            total.files += run.files;
            total.lines += run.lines;
            total.code_lines += run.code_lines;
            total.tokens += run.tokens;
            total.diagnostics.extend(run.diagnostics);
        }
        sort_diagnostics(&mut total.diagnostics);
        Ok(total)
    }

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
            // A symlink resolves through `fs::metadata`, so a linked
            // directory is walked; other entries cost no extra `stat`.
            let file_type = entry.file_type()?;
            if file_type.is_dir() || (file_type.is_symlink() && path.is_dir()) {
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

/// [`collect_files`], refusing a tree with nothing to lint.
fn list_files(root: &Path) -> Result<Vec<(String, PathBuf)>, String> {
    let listing = collect_files(root).map_err(|e| format!("walking {}: {e}", root.display()))?;
    if listing.is_empty() {
        return Err(format!(
            "no lintable sources under {} (expected crates/, tests/, examples/)",
            root.display()
        ));
    }
    Ok(listing)
}

/// Lints every Rust source file in the workspace rooted at `root`, one
/// file per task on every core. Each task reads, lexes and checks its
/// file and keeps only the counts and findings, so the workspace is
/// never held at once. Emits telemetry (`lint.scan` span with `files`,
/// `lines`, `tokens` and `findings` fields) when a sink is installed.
///
/// # Errors
///
/// Returns a message when the tree cannot be walked, or names the
/// first file in path order that cannot be read or is too long for the
/// lexer.
pub fn lint_workspace(root: &Path, only: Option<&str>) -> Result<LintRun, String> {
    lint_workspace_on(root, only, &ExecOptions::auto())
}

/// [`lint_workspace`] on `opts`' threads; the result does not depend on
/// them.
fn lint_workspace_on(
    root: &Path,
    only: Option<&str>,
    opts: &ExecOptions,
) -> Result<LintRun, String> {
    let mut span = telemetry::span!("lint.scan");
    let listing = list_files(root)?;
    let run = LintRun::merge(explore::map(&listing, opts, |(rel, path)| {
        load_file(rel, path).map(|file| LintRun::of_file(&file, only))
    }))?;
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
        let run = LintRun::from_sources(&[
            ("crates/a/src/a.rs", "fn a() {}\n// note\n"),
            ("crates/a/src/b.rs", "let x = 1;"),
        ]);
        assert_eq!(run.files, 2);
        assert_eq!(run.lines, 3);
        assert_eq!(run.tokens, 6 + 1 + 5);
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

    /// A fresh tree under the system temp dir holding `files`.
    fn temp_tree(tag: &str, files: &[(&str, &[u8])]) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sudc_lint_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        for (rel, bytes) in files {
            let path = dir.join(rel);
            fs::create_dir_all(path.parent().expect("a file has a parent")).expect("mkdir");
            fs::write(&path, bytes).expect("write");
        }
        dir
    }

    /// `dirty.rs` planted at two linted paths, one clean file between
    /// them, and the findings `lint_source` gives for it there, in path
    /// order.
    fn planted_tree(tag: &str) -> (PathBuf, Vec<Diagnostic>) {
        let dirty = fs::read_to_string(workspace_root().join("crates/lint/fixtures/dirty.rs"))
            .expect("fixture reads");
        let planted = ["crates/core/src/sim/dirty.rs", "tests/dirty.rs"];
        let dir = temp_tree(
            tag,
            &[
                (planted[0], dirty.as_bytes()),
                ("crates/core/src/sim/mod.rs", b"pub fn ok() {}\n"),
                (planted[1], dirty.as_bytes()),
            ],
        );
        let want: Vec<Diagnostic> = planted
            .iter()
            .flat_map(|rel| lint_source(rel, &dirty, None))
            .collect();
        (dir, want)
    }

    /// `lint_workspace_on` at 1 and 4 threads gives the same run: on the
    /// workspace, and on a tree whose findings are known.
    #[test]
    fn scans_are_identical_at_one_and_four_threads() {
        let root = workspace_root();
        let one = lint_workspace_on(&root, None, &ExecOptions::sequential()).expect("scans");
        let four = lint_workspace_on(&root, None, &ExecOptions::threads(4)).expect("scans");
        assert_eq!(one, four);

        let (dir, want) = planted_tree("threads");
        assert!(want.iter().any(|d| d.file.starts_with("tests/")));
        for opts in [ExecOptions::sequential(), ExecOptions::threads(4)] {
            let run = lint_workspace_on(&dir, None, &opts).expect("planted tree scans");
            assert_eq!(run.files, 3, "{opts:?}");
            assert_eq!(run.diagnostics, want, "{opts:?}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Of two unreadable files, the scan names the first in path order,
    /// whichever thread reads it first.
    #[test]
    fn scan_error_names_the_first_bad_file_in_path_order() {
        let not_utf8: &[u8] = &[b'/', b'/', 0xff, 0xfe, b'\n'];
        let dir = temp_tree(
            "bad_utf8",
            &[
                ("tests/late.rs", not_utf8),
                ("crates/a/src/ok.rs", b"pub fn ok() {}\n"),
                ("crates/a/src/early.rs", not_utf8),
            ],
        );
        let first = dir.join("crates/a/src/early.rs");
        let io = fs::read_to_string(&first).expect_err("not UTF-8");
        let want = format!("reading {}: {io}", first.display());
        for opts in [ExecOptions::sequential(), ExecOptions::threads(4)] {
            let err = lint_workspace_on(&dir, None, &opts).expect_err("a file is not UTF-8");
            assert_eq!(err, want, "{opts:?}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// The streaming scan and the held workspace agree: the same counts,
    /// and the same findings as `lexical_pass` once sorted.
    #[test]
    fn streaming_scan_equals_load_plus_lexical_pass() {
        let (planted, _) = planted_tree("agree");
        for root in [workspace_root(), planted.clone()] {
            let run = lint_workspace(&root, None).expect("scans");
            let ws = Workspace::load(&root).expect("loads");
            let mut lexical = lexical_pass(&ws, None);
            sort_diagnostics(&mut lexical);
            assert_eq!(run.diagnostics, lexical, "{}", root.display());
            let tokens = ws.files.iter().map(|f| f.code().len() + f.comments().len());
            let tokens = tokens.sum::<usize>() as u64;
            assert_eq!(
                (run.files, run.lines, run.code_lines, run.tokens),
                (ws.files.len(), ws.lines, ws.code_lines, tokens),
                "{}",
                root.display()
            );
        }
        let _ = fs::remove_dir_all(&planted);
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
