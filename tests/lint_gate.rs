//! Golden-fixture gate for the `sudc-lint` engine.
//!
//! The fixtures under `crates/lint/fixtures/` annotate expected
//! diagnostics rustc-UI-style: a `//~ <rule-id>` marker on the
//! violating line. This harness lints each fixture (under a synthetic
//! `crates/core/src/...` path so every path-scoped rule applies) and
//! requires the diagnostic set to match the markers exactly — no
//! misses, no extras. For `dirty.rs` and the boundary cases of
//! `edges.rs` it also pins every diagnostic's column, message and
//! snippet against the `.diagnostics` golden file next to it, so a
//! token span that drifts inside a line cannot pass. Every `lint:allow` in the workspace must name a registered
//! rule, so deleting a rule cannot leave stale suppressions behind.

use std::collections::BTreeSet;
use std::fs;

use sudc_lint::{lint_source, rule_by_id, workspace_root, Diagnostic, Workspace, RULES};

/// Synthetic scan path placing fixtures in library sim code, which is
/// also flight-recorder territory, so every path-scoped rule —
/// `wall-clock-in-model`'s `unix_ms()` clause and
/// `rng-stream-discipline` included — is in scope.
const FIXTURE_SCAN_PREFIX: &str = "crates/core/src/sim/fixtures/";

fn fixture(name: &str) -> (String, String) {
    let path = workspace_root().join("crates/lint/fixtures").join(name);
    let src = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
    (format!("{FIXTURE_SCAN_PREFIX}{name}"), src)
}

/// Parses `//~ rule-id [rule-id ...]` markers into (line, rule) pairs.
fn expected_markers(src: &str) -> BTreeSet<(u32, String)> {
    let mut out = BTreeSet::new();
    for (idx, line) in src.lines().enumerate() {
        let Some(pos) = line.find("//~") else {
            continue;
        };
        for rule in line[pos + 3..].split_whitespace() {
            assert!(
                rule_by_id(rule).is_some(),
                "marker names unknown rule `{rule}`"
            );
            out.insert((idx as u32 + 1, rule.to_string()));
        }
    }
    out
}

/// Requires `diags` to match the golden `crates/lint/fixtures/<name>`
/// file: one diagnostic a line, `line:col`, rule, message and snippet
/// separated by tabs.
fn assert_golden(name: &str, diags: &[Diagnostic]) {
    let got: String = diags
        .iter()
        .map(|d| {
            format!(
                "{}:{}\t{}\t{}\t{}\n",
                d.line, d.col, d.rule, d.message, d.snippet
            )
        })
        .collect();
    let (_, want) = fixture(name);
    assert!(
        got == want,
        "diagnostics differ from crates/lint/fixtures/{name}; the engine now gives:\n{got}"
    );
}

fn actual(path: &str, src: &str) -> BTreeSet<(u32, String)> {
    lint_source(path, src, None)
        .into_iter()
        .map(|d| (d.line, d.rule.to_string()))
        .collect()
}

#[test]
fn dirty_fixture_matches_golden_markers_exactly() {
    let (path, src) = fixture("dirty.rs");
    let expected = expected_markers(&src);
    let got = actual(&path, &src);
    assert_eq!(
        got, expected,
        "diagnostics must match //~ markers (missing = rule regressed, extra = rule over-fires)"
    );
    let diags = lint_source(&path, &src, None);
    assert_golden("dirty.diagnostics", &diags);
    let fired: BTreeSet<&str> = diags.iter().map(|d| d.rule).collect();
    for rule in RULES {
        assert!(
            fired.contains(rule.id),
            "rule {} never fires in dirty.rs",
            rule.id
        );
    }
    assert!(
        lint_source(
            "crates/workloads/src/fixtures/dirty.rs",
            &src,
            Some("shared-state-across-shards")
        )
        .is_empty(),
        "shared statics and thread identity outside the shard scope are fine"
    );
}

/// The boundary fixture: a pattern in a file's first tokens, columns
/// after non-ASCII text, patterns inside nested block comments and raw
/// strings, and near-miss markers fire exactly as marked, at the pinned
/// columns. A pattern cut off by the end of the file (`Instant::` with
/// no member, `.stream(` with no close paren, a final `static`) adds no
/// finding and disturbs none before it.
#[test]
fn edge_fixture_matches_golden_markers_exactly() {
    let (path, src) = fixture("edges.rs");
    assert_eq!(actual(&path, &src), expected_markers(&src));
    let diags = lint_source(&path, &src, None);
    assert_golden("edges.diagnostics", &diags);
    assert!(
        src.trim_end().ends_with("static"),
        "the fixture ends in `static`"
    );
    for tail in ["Instant::", "rng.stream(", "static"] {
        let cut = format!("{src}{tail}");
        assert_eq!(lint_source(&path, &cut, None), diags, "tail `{tail}`");
    }
}

/// `repro lint --rule <id>` scans with `only`: for every rule, its
/// findings must be exactly the full scan's findings of that rule, on
/// every fixture and every workspace file.
#[test]
fn rule_filter_agrees_with_the_full_scan() {
    let mut sources: Vec<(String, String)> = ["clean.rs", "dirty.rs", "suppressed.rs", "edges.rs"]
        .into_iter()
        .map(fixture)
        .collect();
    let ws = Workspace::load(&workspace_root()).expect("workspace loads");
    sources.extend(
        ws.files
            .iter()
            .map(|f| (f.path.clone(), f.src().to_string())),
    );
    let mut compared = 0;
    for (path, src) in &sources {
        let all = lint_source(path, src, None);
        for rule in RULES {
            let want: Vec<&Diagnostic> = all.iter().filter(|d| d.rule == rule.id).collect();
            let got = lint_source(path, src, Some(rule.id));
            assert_eq!(
                got.iter().collect::<Vec<_>>(),
                want,
                "{path}: --rule {}",
                rule.id
            );
            compared += got.len();
        }
    }
    assert!(
        compared > 0,
        "no finding compared; the check would pass vacuously"
    );
}

/// An unordered float merge outside the sim crates is flagged where its
/// hash collection is declared: a parameter folded by `.values().sum()`,
/// a local folded by a `for` loop, and a struct field, and nothing else
/// fires.
#[test]
fn float_merges_anywhere_are_flagged_at_their_declarations() {
    let src = "use std::collections::{HashMap, HashSet};\n\
               \n\
               pub struct Seen {\n\
               \x20   ids: HashSet<u32>,\n\
               }\n\
               \n\
               pub fn merge(parts: &HashMap<u32, f64>) -> f64 {\n\
               \x20   let direct: f64 = parts.values().sum();\n\
               \x20   let copy: HashMap<u32, f64> = parts.clone();\n\
               \x20   let mut total = 0.0;\n\
               \x20   for (_k, v) in &copy {\n\
               \x20       total += v;\n\
               \x20   }\n\
               \x20   direct + total\n\
               }\n";
    let diags = lint_source("crates/telemetry/src/merge.rs", src, None);
    let got: Vec<(u32, &str)> = diags.iter().map(|d| (d.line, d.rule)).collect();
    let flagged = "nondeterministic-iteration";
    assert_eq!(
        got,
        [(1, flagged), (4, flagged), (7, flagged), (9, flagged)],
        "the use, the field, the parameter and the local"
    );
}

/// Loads the workspace and rereads each file's source from disk.
fn workspace_with_sources() -> (Workspace, Vec<String>) {
    let root = workspace_root();
    let ws = Workspace::load(&root).expect("workspace loads");
    assert!(!ws.files.is_empty());
    let sources = ws
        .files
        .iter()
        .map(|file| {
            fs::read_to_string(root.join(&file.path))
                .unwrap_or_else(|e| panic!("rereading {}: {e}", file.path))
        })
        .collect();
    (ws, sources)
}

/// The lexer's token spans must exactly partition every workspace file:
/// sorted by byte offset, non-overlapping, each span on char boundaries
/// and reading back the source slice it claims. Everything downstream —
/// suppression binding, test regions, every rule — indexes into these
/// spans, so a drifted offset would corrupt all of it silently.
#[test]
fn token_spans_partition_every_workspace_file() {
    let (ws, sources) = workspace_with_sources();
    for (file, src) in ws.files.iter().zip(&sources) {
        assert_eq!(file.src(), src, "{}: held source differs", file.path);
        let mut tokens: Vec<_> = file.code().iter().chain(file.comments()).collect();
        tokens.sort_by_key(|t| t.pos);
        let mut prev_end = 0usize;
        for tok in tokens {
            let span = tok.span();
            assert!(
                span.start >= prev_end,
                "{}: token `{}` at byte {} overlaps the previous token (ends {})",
                file.path,
                file.text(tok),
                span.start,
                prev_end
            );
            assert!(
                src.is_char_boundary(span.start) && src.is_char_boundary(span.end),
                "{}: span {span:?} splits a char",
                file.path
            );
            assert!(!span.is_empty(), "{}: empty token at {span:?}", file.path);
            assert_eq!(
                file.text(tok),
                &src[span.clone()],
                "{}: token text diverges from source at byte {}",
                file.path,
                span.start
            );
            assert!(
                src[prev_end..span.start].chars().all(char::is_whitespace),
                "{}: non-whitespace bytes {}..{} fell between tokens",
                file.path,
                prev_end,
                span.start
            );
            prev_end = span.end;
        }
        assert!(
            src[prev_end..].chars().all(char::is_whitespace),
            "{}: non-whitespace trailing bytes after the last token",
            file.path
        );
    }
}

/// `line_text` (diagnostic snippets come from it) must agree with
/// `str::lines` on every line of every workspace file, and read empty
/// past the end.
#[test]
fn line_text_matches_str_lines_on_every_workspace_line() {
    let (ws, sources) = workspace_with_sources();
    let mut total = 0u64;
    for (file, src) in ws.files.iter().zip(&sources) {
        let mut n = 0u32;
        for (i, line) in src.lines().enumerate() {
            n = i as u32 + 1;
            assert_eq!(file.line_text(n), line, "{}:{n}", file.path);
        }
        assert_eq!(file.line_count(), n as usize, "{}", file.path);
        assert_eq!(file.line_text(n + 1), "", "{}: past the end", file.path);
        total += u64::from(n);
    }
    assert_eq!(total, ws.lines);
}

#[test]
fn clean_fixture_is_silent() {
    let (path, src) = fixture("clean.rs");
    assert!(
        expected_markers(&src).is_empty(),
        "clean.rs must carry no markers"
    );
    let got = lint_source(&path, &src, None);
    assert!(
        got.is_empty(),
        "clean fixture fired: {:?}",
        got.iter().map(|d| (d.line, d.rule)).collect::<Vec<_>>()
    );
}

#[test]
fn suppressed_fixture_is_silent() {
    let (path, src) = fixture("suppressed.rs");
    let got = lint_source(&path, &src, None);
    assert!(
        got.is_empty(),
        "suppressions ignored: {:?}",
        got.iter().map(|d| (d.line, d.rule)).collect::<Vec<_>>()
    );
    // The same code with suppressions stripped must fire — otherwise
    // this fixture would pass vacuously.
    let stripped: String = src
        .lines()
        .map(|l| match l.find("// lint:allow") {
            Some(pos) => format!("{}\n", &l[..pos]),
            None => format!("{l}\n"),
        })
        .collect();
    assert!(
        !lint_source(&path, &stripped, None).is_empty(),
        "stripping lint:allow must re-arm the rules"
    );
}

#[test]
fn rule_filter_restricts_fixture_scan() {
    let (path, src) = fixture("dirty.rs");
    let only = lint_source(&path, &src, Some("float-eq"));
    assert!(!only.is_empty());
    assert!(only.iter().all(|d| d.rule == "float-eq"));
}

/// Every `lint:allow` suppression outside the lint crate names a
/// registered rule or `all`: one naming a deleted or misspelt rule
/// would silence nothing and only look like it does.
#[test]
fn every_workspace_suppression_names_a_registered_rule() {
    let ws = Workspace::load(&workspace_root()).expect("workspace loads");
    let mut stale = Vec::new();
    let mut seen = 0;
    for file in ws
        .files
        .iter()
        .filter(|f| !f.path.starts_with("crates/lint/"))
    {
        for allow in &file.allows {
            for rule in &allow.rules {
                seen += 1;
                if rule != "all" && rule_by_id(rule).is_none() {
                    stale.push(format!("{}:{}: `{rule}`", file.path, allow.line));
                }
            }
        }
    }
    assert!(
        seen > 0,
        "no suppression found; the check would pass vacuously"
    );
    assert!(
        stale.is_empty(),
        "suppressions name unknown rules:\n  {}",
        stale.join("\n  ")
    );
}

#[test]
fn fixtures_stay_outside_the_workspace_scan() {
    let root = workspace_root();
    let run = sudc_lint::lint_workspace(&root, None).expect("workspace scans");
    assert!(
        run.diagnostics
            .iter()
            .all(|d| !d.file.contains("fixtures/")),
        "fixture violations leaked into the workspace scan"
    );
}
