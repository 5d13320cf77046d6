//! Per-file analysis context: tokens, test-code regions, and inline
//! suppressions.

use crate::lexer::{lexable_len, tokenize, Tok, TokKind};

/// One inline suppression comment: `// lint:allow(rule-id) reason`.
///
/// A suppression applies to its own line and the next code line (so it
/// can trail the violating expression or sit on the line above it) and
/// is only honored when a non-empty reason follows the closing paren —
/// unexplained suppressions are ignored. When the next code line is an
/// attribute (`#[derive(...)]`, `#[serde(...)]`, ...), the suppression
/// binds to the decorated item, not the attribute — otherwise an allow
/// above a derived struct would silently miss its target.
#[derive(Debug, Clone, PartialEq)]
pub struct Allow {
    /// Rule ids listed in the parens (`all` matches every rule).
    pub rules: Vec<String>,
    /// 1-based line of the comment.
    pub line: u32,
    /// 1-based line the suppression binds to besides its own: the first
    /// following code line, skipping attribute lines. `None` when the
    /// comment is the last code in the file.
    pub target: Option<u32>,
    /// Justification text after the closing paren.
    pub reason: String,
}

/// A lexed source file plus the derived facts rules need.
///
/// The file owns its source text once; tokens are spans into it, read
/// back through [`SourceFile::text`] and [`SourceFile::bytes`]. The
/// lexer splits them into code and comments, each contiguous and in
/// source order, so the rules' walk reads a code token with one load.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// The source text.
    src: String,
    /// Byte offset of each line's first character (line `n` starts at
    /// `line_starts[n - 1]`); one entry past the last line when the
    /// source ends in a newline.
    line_starts: Vec<u32>,
    /// The non-comment tokens.
    code: Vec<Tok>,
    /// The comment tokens.
    comments: Vec<Tok>,
    /// Inclusive 1-based line ranges of `#[test]` / `#[cfg(test)]`
    /// items.
    test_ranges: Vec<(u32, u32)>,
    /// Parsed suppression comments (reasonless ones excluded).
    pub allows: Vec<Allow>,
}

impl SourceFile {
    /// Lexes `src` and derives test regions and suppressions.
    pub fn parse(path: &str, src: &str) -> SourceFile {
        SourceFile::from_string(path, src.to_string())
    }

    /// [`SourceFile::parse`], taking ownership of the source. A source
    /// longer than [`crate::lexer::MAX_SOURCE_BYTES`] is cut to the
    /// prefix the lexer reads ([`crate::Workspace::load`] rejects such
    /// files instead).
    pub(crate) fn from_string(path: &str, mut src: String) -> SourceFile {
        src.truncate(lexable_len(&src));
        let (mut code, mut comments) = (Vec::new(), Vec::new());
        tokenize(&src, |t| {
            if t.is_comment() {
                comments.push(t);
            } else {
                code.push(t);
            }
        });
        let test_ranges = test_ranges(&src, &code);
        let allows = parse_allows(&src, &code, &comments);
        SourceFile {
            path: path.to_string(),
            line_starts: line_starts(&src),
            src,
            code,
            comments,
            test_ranges,
            allows,
        }
    }

    /// The whole source text.
    pub fn src(&self) -> &str {
        &self.src
    }

    /// The text of a token of this file.
    pub fn text(&self, tok: &Tok) -> &str {
        tok.text(&self.src)
    }

    /// The bytes of a token of this file, without [`SourceFile::text`]'s
    /// char-boundary checks (empty when the span does not lie in the
    /// source).
    pub fn bytes(&self, tok: &Tok) -> &[u8] {
        self.src.as_bytes().get(tok.span()).unwrap_or_default()
    }

    /// The non-comment tokens, in source order.
    pub fn code(&self) -> &[Tok] {
        &self.code
    }

    /// The comment tokens, in source order.
    pub fn comments(&self) -> &[Tok] {
        &self.comments
    }

    /// Number of source lines, counted as [`str::lines`] counts them.
    pub fn line_count(&self) -> usize {
        let ends_in_newline = self.line_starts.last() == Some(&(self.src.len() as u32));
        self.line_starts.len() - usize::from(ends_in_newline)
    }

    /// Whether `line` falls inside a `#[test]` / `#[cfg(test)]` item.
    pub fn in_test_code(&self, line: u32) -> bool {
        self.test_ranges
            .iter()
            .any(|&(lo, hi)| (lo..=hi).contains(&line))
    }

    /// Lines outside every `#[test]` / `#[cfg(test)]` item. Nested
    /// test items (a `#[test]` fn inside a `#[cfg(test)]` module) count
    /// once.
    pub fn code_lines(&self) -> usize {
        let total = self.line_count() as u32;
        let mut covered = 0;
        let mut end = 0;
        // Ranges come in order of their first line, nested ones after
        // the item that holds them.
        for &(lo, hi) in &self.test_ranges {
            let hi = hi.min(total);
            let lo = lo.max(end + 1);
            if hi >= lo {
                covered += hi - lo + 1;
                end = hi;
            }
        }
        (total - covered) as usize
    }

    /// Whether `rule` is suppressed at `line` by an adjacent
    /// `lint:allow` comment (same line, or a comment whose binding
    /// target — the next code line, skipping attributes — is `line`).
    pub fn allowed(&self, rule: &str, line: u32) -> bool {
        self.allows.iter().any(|a| {
            (a.line == line || a.target == Some(line))
                && a.rules.iter().any(|r| r == rule || r == "all")
        })
    }

    /// The source text of a 1-based line without its line ending, as
    /// [`str::lines`] yields it (empty for out-of-range).
    pub fn line_text(&self, line: u32) -> &str {
        let n = line as usize;
        if n == 0 || n > self.line_count() {
            return "";
        }
        let start = self.line_starts[n - 1] as usize;
        match self.line_starts.get(n) {
            Some(&next) => {
                let text = &self.src[start..next as usize - 1];
                text.strip_suffix('\r').unwrap_or(text)
            }
            None => &self.src[start..],
        }
    }
}

/// Byte offsets at which each line of `src` starts: 0, then one past
/// every `\n`. `src` is at most [`crate::lexer::MAX_SOURCE_BYTES`]
/// long, so each fits in `u32`.
fn line_starts(src: &str) -> Vec<u32> {
    let mut starts = vec![0];
    starts.extend(src.match_indices('\n').map(|(i, _)| i as u32 + 1));
    starts
}

/// Whether the attribute token span (between `[` and `]`) marks test
/// code: `#[test]`, `#[cfg(test)]`, `#[cfg(all(test, …))]`, but not
/// `#[cfg(not(test))]`.
fn is_test_attr(attr_idents: &[&str]) -> bool {
    match attr_idents.first() {
        Some(&"test") => true,
        Some(&"cfg") => attr_idents.contains(&"test") && !attr_idents.contains(&"not"),
        _ => false,
    }
}

/// Finds the inclusive line ranges covered by test-gated items.
fn test_ranges(src: &str, code: &[Tok]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let is_punct = |i: usize, s: &str| {
        code.get(i)
            .is_some_and(|t| t.kind == TokKind::Punct && t.text(src) == s)
    };
    let mut i = 0usize;
    while i < code.len() {
        if !(is_punct(i, "#") && is_punct(i + 1, "[")) {
            i += 1;
            continue;
        }
        let attr_start_line = code[i].line;
        // Collect idents until the matching `]`.
        let mut depth = 0i32;
        let mut j = i + 1;
        let mut idents: Vec<&str> = Vec::new();
        while j < code.len() {
            match (&code[j].kind, code[j].text(src)) {
                (TokKind::Punct, "[") => depth += 1,
                (TokKind::Punct, "]") => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                (TokKind::Ident, id) => idents.push(id),
                _ => {}
            }
            j += 1;
        }
        if !is_test_attr(&idents) {
            i = j + 1;
            continue;
        }
        // Skip any further attributes on the same item.
        let mut k = j + 1;
        while is_punct(k, "#") && is_punct(k + 1, "[") {
            let mut d = 0i32;
            k += 1;
            while k < code.len() {
                if is_punct(k, "[") {
                    d += 1;
                } else if is_punct(k, "]") {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                k += 1;
            }
            k += 1;
        }
        // The item body is the first `{ … }` group at nesting depth 0
        // (a `;` first means a body-less item, e.g. a gated `use`).
        let mut nest = 0i32;
        let mut end_line = attr_start_line;
        while k < code.len() {
            let t = &code[k];
            if t.kind == TokKind::Punct {
                match t.text(src) {
                    "(" | "[" => nest += 1,
                    ")" | "]" => nest -= 1,
                    "{" => {
                        nest += 1;
                        if nest == 1 {
                            // Consume to the matching close brace.
                            k += 1;
                            while k < code.len() && nest > 0 {
                                let t = &code[k];
                                if t.kind == TokKind::Punct {
                                    match t.text(src) {
                                        "{" => nest += 1,
                                        "}" => nest -= 1,
                                        _ => {}
                                    }
                                }
                                end_line = t.line;
                                k += 1;
                            }
                            break;
                        }
                    }
                    ";" if nest == 0 => {
                        end_line = t.line;
                        k += 1;
                        break;
                    }
                    _ => {}
                }
            }
            end_line = t.line;
            k += 1;
        }
        ranges.push((attr_start_line, end_line));
        i = k;
    }
    ranges
}

/// Extracts `lint:allow(...)` suppressions from comment tokens.
///
/// A comment that *leads* its line (no code before it) binds to the
/// first following code line, skipping attribute lines so the
/// suppression lands on the decorated item; a comment *trailing* code
/// binds to that line only.
fn parse_allows(src: &str, code: &[Tok], comments: &[Tok]) -> Vec<Allow> {
    const MARKER: &str = "lint:allow(";
    let mut allows = Vec::new();
    for t in comments {
        let text = t.text(src);
        let Some(start) = text.find(MARKER) else {
            continue;
        };
        let after = &text[start + MARKER.len()..];
        let Some(close) = after.find(')') else {
            continue;
        };
        let rules: Vec<String> = after[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        let reason = after[close + 1..]
            .trim_end_matches("*/")
            .trim()
            .trim_start_matches(['-', ':', '—'])
            .trim()
            .to_string();
        if rules.is_empty() || reason.is_empty() {
            continue;
        }
        // The comment leads its line when no code token starts on that
        // line before it.
        let next = code.partition_point(|c| c.pos < t.pos);
        let leading = next == 0 || code[next - 1].line != t.line;
        let target = if leading {
            allow_target(src, code, next)
        } else {
            None
        };
        allows.push(Allow {
            rules,
            line: t.line,
            target,
            reason,
        });
    }
    allows
}

/// The line a line-leading `lint:allow` comment binds to, given the
/// index of the first code token after it: that token's line, skipping
/// whole attribute spans (`#[...]` / `#![...]`) so the suppression
/// applies to the decorated item rather than its attributes.
fn allow_target(src: &str, code: &[Tok], mut c: usize) -> Option<u32> {
    let is = |c: usize, s: &str| {
        code.get(c)
            .is_some_and(|t| t.kind == TokKind::Punct && t.text(src) == s)
    };
    loop {
        let hash = c;
        let open = if is(hash, "#") && is(hash + 1, "[") {
            hash + 1
        } else if is(hash, "#") && is(hash + 1, "!") && is(hash + 2, "[") {
            hash + 2
        } else {
            return code.get(c).map(|t| t.line);
        };
        let mut depth = 0i32;
        c = open;
        while c < code.len() {
            if is(c, "[") {
                depth += 1;
            } else if is(c, "]") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            c += 1;
        }
        c += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_module_lines_are_test_code() {
        let src = "pub fn lib() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n    fn helper() {}\n}\n\
                   pub fn lib2() {}\n";
        let f = SourceFile::parse("crates/x/src/a.rs", src);
        assert!(!f.in_test_code(1));
        assert!(f.in_test_code(2));
        assert!(f.in_test_code(4));
        assert!(f.in_test_code(5));
        assert!(!f.in_test_code(6));
    }

    #[test]
    fn test_fn_with_extra_attrs_is_covered() {
        let src = "#[test]\n#[should_panic(expected = \"boom\")]\n\
                   fn explodes() {\n    boom();\n}\nfn lib() {}\n";
        let f = SourceFile::parse("crates/x/src/a.rs", src);
        assert!(f.in_test_code(4));
        assert!(!f.in_test_code(6));
    }

    #[test]
    fn code_lines_count_nested_test_items_once() {
        let src = "pub fn lib() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n    #[test]\n    fn t() {\n        x();\n    }\n}\n\
                   pub fn lib2() {}\n\
                   #[test]\nfn u() {}\n";
        let f = SourceFile::parse("crates/x/src/a.rs", src);
        assert_eq!(f.line_count(), 11);
        assert_eq!(f.code_lines(), 2, "lines 1 and 9");
    }

    #[test]
    fn cfg_not_test_is_not_test_code() {
        let src = "#[cfg(not(test))]\nfn real() {\n    body();\n}\n";
        let f = SourceFile::parse("crates/x/src/a.rs", src);
        assert!(!f.in_test_code(3));
    }

    #[test]
    fn gated_use_ends_at_semicolon() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\nfn lib() {\n    x();\n}\n";
        let f = SourceFile::parse("crates/x/src/a.rs", src);
        assert!(f.in_test_code(2));
        assert!(!f.in_test_code(4));
    }

    #[test]
    fn allow_requires_a_reason() {
        let src = "// lint:allow(float-eq) exact sentinel comparison\n\
                   let a = x == 0.0;\n\
                   // lint:allow(float-eq)\n\
                   let b = y == 0.0;\n";
        let f = SourceFile::parse("crates/x/src/a.rs", src);
        assert!(f.allowed("float-eq", 2), "reasoned allow applies below");
        assert!(f.allowed("float-eq", 1), "and on its own line");
        assert!(!f.allowed("float-eq", 4), "reasonless allow is ignored");
        assert!(!f.allowed("unwrap-in-lib", 2), "other rules unaffected");
    }

    #[test]
    fn trailing_allow_covers_its_own_line() {
        let src = "let a = x == 0.0; // lint:allow(float-eq, unwrap-in-lib) boundary sentinel\n";
        let f = SourceFile::parse("crates/x/src/a.rs", src);
        assert!(f.allowed("float-eq", 1));
        assert!(f.allowed("unwrap-in-lib", 1));
        assert!(!f.allowed("todo-marker", 1));
    }

    #[test]
    fn allow_all_matches_every_rule() {
        let src = "// lint:allow(all) generated code\nlet a = m.unwrap();\n";
        let f = SourceFile::parse("crates/x/src/a.rs", src);
        assert!(f.allowed("unwrap-in-lib", 2));
        assert!(f.allowed("float-eq", 2));
    }

    #[test]
    fn allow_above_derive_binds_to_the_item() {
        let src = "// lint:allow(nondeterministic-iteration) size query only\n\
                   #[derive(Clone, Debug)]\n\
                   pub struct Keys {\n    pub set: HashSet<u32>,\n}\n";
        let f = SourceFile::parse("crates/x/src/a.rs", src);
        assert!(
            f.allowed("nondeterministic-iteration", 3),
            "binds past the attribute to the struct line"
        );
        assert!(
            !f.allowed("nondeterministic-iteration", 2),
            "the attribute line itself is not the target"
        );
        assert!(
            !f.allowed("nondeterministic-iteration", 4),
            "single-line scope"
        );
    }

    #[test]
    fn allow_skips_stacked_and_inner_attributes() {
        let src = "// lint:allow(float-eq) sentinel dispatch\n\
                   #[derive(Clone)]\n\
                   #[repr(C)]\n\
                   fn f(x: f64) -> bool { x == 0.0 }\n";
        let f = SourceFile::parse("crates/x/src/a.rs", src);
        assert!(f.allowed("float-eq", 4), "skips every stacked attribute");

        let inner = "// lint:allow(float-eq) sentinel dispatch\n\
                     #![allow(dead_code)]\n\
                     fn f(x: f64) -> bool { x == 0.0 }\n";
        let g = SourceFile::parse("crates/x/src/a.rs", inner);
        assert!(g.allowed("float-eq", 3), "inner attributes are skipped too");
    }

    #[test]
    fn trailing_allow_does_not_leak_to_the_next_line() {
        let src = "let a = x == 0.0; // lint:allow(float-eq) boundary sentinel\n\
                   let b = y == 0.0;\n";
        let f = SourceFile::parse("crates/x/src/a.rs", src);
        assert!(f.allowed("float-eq", 1));
        assert!(
            !f.allowed("float-eq", 2),
            "a trailing allow covers its own line only"
        );
    }

    #[test]
    fn allow_inside_string_literal_is_inert() {
        let src = "let s = \"lint:allow(float-eq) nope\";\nlet a = x == 0.0;\n";
        let f = SourceFile::parse("crates/x/src/a.rs", src);
        assert!(!f.allowed("float-eq", 2));
    }
}
