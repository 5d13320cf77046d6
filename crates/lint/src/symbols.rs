//! Workspace symbol table: every function and static in the scanned
//! tree, with qualified paths derived from file layout plus
//! the inline `mod`/`impl` structure recovered by [`crate::parse`].

use std::collections::BTreeMap;

use crate::parse::{self, FnItem, StaticItem};
use crate::source::SourceFile;

/// All items in the workspace, indexed for resolution. Names borrow
/// from the parsed files.
#[derive(Debug, Default)]
pub struct Symbols<'a> {
    /// Every function item, file-qualified, in (file, source) order.
    pub fns: Vec<FnItem<'a>>,
    /// Every module-level static, file-qualified.
    pub statics: Vec<StaticItem<'a>>,
    /// Function indices by bare name (sorted keys → deterministic walks).
    pub by_name: BTreeMap<&'a str, Vec<usize>>,
    /// `test_code[f]`: whether function `f` is test code — declared in an
    /// integration-test file or inside `#[test]` / `#[cfg(test)]` items.
    pub test_code: Vec<bool>,
}

/// Whether `path` is an integration-test file: `tests/*.rs` or
/// `crates/*/tests/*.rs`.
fn is_test_file(path: &str) -> bool {
    path.starts_with("tests/")
        || path
            .strip_prefix("crates/")
            .and_then(|rest| rest.split_once('/'))
            .is_some_and(|(_, tail)| tail.starts_with("tests/"))
}

/// Module path segments implied by a file's workspace-relative path:
/// `crates/core/src/sim/engine.rs` → `["sim", "engine"]`,
/// `crates/lint/src/lib.rs` → `[]`, `tests/lint_gate.rs` and
/// `crates/bench/tests/lint_gate.rs` → `["lint_gate"]`.
pub fn module_segments(path: &str) -> Vec<&str> {
    let rel = if let Some(rest) = path.strip_prefix("crates/") {
        // Drop the crate name and the src/benches/tests layer.
        match rest.split_once('/') {
            Some((_, tail)) => tail
                .strip_prefix("src/")
                .or_else(|| tail.strip_prefix("benches/"))
                .or_else(|| tail.strip_prefix("tests/"))
                .unwrap_or(tail),
            None => rest,
        }
    } else {
        path.strip_prefix("tests/")
            .or_else(|| path.strip_prefix("examples/"))
            .unwrap_or(path)
    };
    let rel = rel.strip_suffix(".rs").unwrap_or(rel);
    rel.split('/')
        .filter(|s| !s.is_empty() && *s != "lib" && *s != "main" && *s != "mod")
        .collect()
}

impl<'a> Symbols<'a> {
    /// Builds the table by parsing every file.
    pub fn build(files: &'a [SourceFile]) -> Self {
        let mut sym = Symbols::default();
        for (fi, file) in files.iter().enumerate() {
            let parsed = parse::parse_file(file);
            let prefix = module_segments(&file.path);
            let test_file = is_test_file(&file.path);
            for mut f in parsed.fns {
                f.file = fi;
                sym.test_code.push(test_file || file.in_test_code(f.line));
                let mut qual = prefix.clone();
                qual.extend(f.qual);
                f.qual = qual;
                sym.fns.push(f);
            }
            for mut s in parsed.statics {
                s.file = fi;
                sym.statics.push(s);
            }
        }
        for (i, f) in sym.fns.iter().enumerate() {
            sym.by_name.entry(f.name).or_default().push(i);
        }
        sym
    }

    /// Resolves a root spec like `"engine::step"`: functions whose name
    /// matches the last segment and whose qualified path contains every
    /// leading segment (in order). Matches both free functions and impl
    /// methods, wherever the module lives.
    pub fn resolve_root(&self, spec: &str) -> Vec<usize> {
        let parts: Vec<&str> = spec.split("::").collect();
        let Some((name, lead)) = parts.split_last() else {
            return Vec::new();
        };
        let Some(candidates) = self.by_name.get(*name) else {
            return Vec::new();
        };
        candidates
            .iter()
            .copied()
            .filter(|&i| {
                let qual = &self.fns[i].qual;
                let mut pos = 0usize;
                lead.iter().all(|seg| {
                    match qual[pos..qual.len().saturating_sub(1)]
                        .iter()
                        .position(|q| q == seg)
                    {
                        Some(p) => {
                            pos += p + 1;
                            true
                        }
                        None => false,
                    }
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn module_segments_strip_crate_layout() {
        assert_eq!(
            module_segments("crates/core/src/sim/engine.rs"),
            vec!["sim", "engine"]
        );
        assert!(module_segments("crates/lint/src/lib.rs").is_empty());
        assert_eq!(module_segments("tests/lint_gate.rs"), vec!["lint_gate"]);
        assert_eq!(
            module_segments("crates/bench/tests/gates.rs"),
            vec!["gates"]
        );
        assert_eq!(module_segments("crates/core/src/sim/mod.rs"), vec!["sim"]);
    }

    #[test]
    fn build_qualifies_and_indexes() {
        let files = vec![
            SourceFile::parse(
                "crates/core/src/sim/engine.rs",
                "pub fn step(st: &mut State) {}\npub fn report() {}\n",
            ),
            SourceFile::parse(
                "crates/core/src/sim/parallel.rs",
                "pub fn try_run_threads() {\n    step_all();\n}\n",
            ),
        ];
        let sym = Symbols::build(&files);
        assert_eq!(sym.fns.len(), 3);
        assert_eq!(sym.fns[0].qual, vec!["sim", "engine", "step"]);
        assert_eq!(sym.fns[0].file, 0);
        assert_eq!(sym.fns[2].file, 1);
        assert_eq!(sym.by_name["step"], vec![0]);
    }

    #[test]
    fn resolve_root_matches_modules_and_impls() {
        let files = vec![
            SourceFile::parse(
                "crates/core/src/sim/engine.rs",
                "impl State {\n    pub fn step(&mut self) {}\n}\npub fn step() {}\n",
            ),
            SourceFile::parse("crates/serve/src/lib.rs", "pub fn step() {}\n"),
        ];
        let sym = Symbols::build(&files);
        let hits = sym.resolve_root("engine::step");
        assert_eq!(hits.len(), 2, "both engine step fns, not serve's");
        assert!(hits.iter().all(|&i| sym.fns[i].file == 0));
        assert!(sym.resolve_root("engine::missing").is_empty());
    }
}
