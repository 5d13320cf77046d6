//! Item-level Rust parser over the [`crate::lexer`] token stream.
//!
//! The semantic analysis needs *items* — functions with their bodies
//! and whether they take `self`, statics with their types — and the
//! call expressions inside bodies, not a full expression grammar. This
//! parser recovers exactly that in one linear pass with a scope stack:
//! `mod`/`impl`/`fn` frames contribute path segments, every other brace
//! is an anonymous frame, and calls encountered inside a body attach to
//! the innermost enclosing function. Like the lexer it
//! never fails: unparseable stretches are skipped token by token, so a
//! work-in-progress tree still yields a (partial) item set.

use crate::lexer::TokKind;
use crate::source::SourceFile;

/// One call expression inside a function body. Names borrow from the
/// parsed [`SourceFile`], as in every item below.
#[derive(Debug, Clone, PartialEq)]
pub struct Call<'a> {
    /// Path segments as written, callee name last: `engine::step(` is
    /// `["engine", "step"]`, `.merge(` is `["merge"]`.
    pub segments: Vec<&'a str>,
    /// Whether the call is a method call (`recv.name(...)`).
    pub method: bool,
    /// 1-based line of the callee name.
    pub line: u32,
}

/// One function item with a body.
#[derive(Debug, Clone)]
pub struct FnItem<'a> {
    /// Bare function name.
    pub name: &'a str,
    /// Qualified path segments: file module path (filled by
    /// [`crate::symbols`]), inline `mod`s, `impl` type, then the name.
    pub qual: Vec<&'a str>,
    /// Index of the declaring file in the workspace file list (filled
    /// by [`crate::symbols`]; 0 within a single parsed file).
    pub file: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Code-token index range of the body, `[open brace, close brace]`.
    pub body: (usize, usize),
    /// Whether the first parameter is a `self` receiver (a method).
    pub receiver: bool,
    /// Call expressions in the body (nested closures included).
    pub calls: Vec<Call<'a>>,
}

/// One module-level `static` item.
#[derive(Debug, Clone, PartialEq)]
pub struct StaticItem<'a> {
    /// Static name.
    pub name: &'a str,
    /// Declaring file index (filled by [`crate::symbols`]).
    pub file: usize,
    /// 1-based line of the `static` keyword.
    pub line: u32,
    /// 1-based column of the `static` keyword.
    pub col: u32,
    /// Whether declared `static mut`.
    pub mutable: bool,
    /// Space-joined type text (`Mutex < Vec < u64 > >`).
    pub ty: String,
}

/// Everything recovered from one file.
#[derive(Debug, Default)]
pub struct ParsedFile<'a> {
    /// Function items, in source order.
    pub fns: Vec<FnItem<'a>>,
    /// Module-level statics.
    pub statics: Vec<StaticItem<'a>>,
}

/// Keywords that look like `name(` call heads but are not calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "let", "else", "unsafe", "move", "in", "as",
    "fn", "where", "ref", "mut", "box", "yield", "await", "dyn", "impl", "pub", "use", "crate",
];

struct Scope<'a> {
    /// Path segment this frame contributes (`mod` name or `impl` type).
    seg: Option<&'a str>,
    /// Index into `ParsedFile::fns` when this frame is a function body.
    fn_idx: Option<usize>,
}

struct Parser<'a> {
    file: &'a SourceFile,
    out: ParsedFile<'a>,
    scopes: Vec<Scope<'a>>,
}

impl<'a> Parser<'a> {
    fn text(&self, i: usize) -> &'a str {
        self.file.code_text(i)
    }

    fn is_ident(&self, i: usize) -> bool {
        self.file
            .code_tok(i)
            .is_some_and(|t| t.kind == TokKind::Ident)
    }

    fn is_punct(&self, i: usize, s: &str) -> bool {
        self.file
            .code_tok(i)
            .is_some_and(|t| t.kind == TokKind::Punct && self.file.text(t) == s)
    }

    /// Skips a balanced `<...>` generic group starting at `i` (which
    /// must be `<`); returns the index past the closing `>`.
    fn skip_generics(&self, mut i: usize) -> usize {
        let mut depth = 0i32;
        while i < self.file.code.len() {
            match self.text(i) {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        return i + 1;
                    }
                }
                // A `(`/`{` at generic depth means the `<` was a
                // comparison, not generics — bail rather than swallow.
                "(" | "{" | ";" => return i,
                _ => {}
            }
            i += 1;
        }
        i
    }

    /// Skips a balanced bracket group starting at `i` (on the opener);
    /// returns the index past the closer. Counts all three bracket
    /// kinds so nested mixes stay balanced.
    fn skip_balanced(&self, mut i: usize) -> usize {
        let mut depth = 0i32;
        while i < self.file.code.len() {
            match self.text(i) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return i + 1;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        i
    }

    /// Space-joined token texts in `lo..hi`.
    fn join(&self, lo: usize, hi: usize) -> String {
        let mut s = String::new();
        for j in lo..hi.min(self.file.code.len()) {
            if !s.is_empty() {
                s.push(' ');
            }
            s.push_str(self.text(j));
        }
        s
    }

    /// Whether the parameter list opening at `i` (on `(`) starts with
    /// a `self` receiver: `self`, `&self`, `&'a mut self`, `mut self`,
    /// `self: Box<Self>`.
    fn takes_self(&self, mut i: usize) -> bool {
        i += 1;
        while matches!(self.text(i), "&" | "&&" | "mut")
            || self
                .file
                .code_tok(i)
                .is_some_and(|t| t.kind == TokKind::Lifetime)
        {
            i += 1;
        }
        self.text(i) == "self"
    }

    /// Parses an `impl` header starting at `i` (on `impl`); returns
    /// `(self type name, index of the body '{')` when a body exists.
    fn parse_impl(&self, i: usize) -> Option<(&'a str, usize)> {
        let mut j = i + 1;
        if self.is_punct(j, "<") {
            j = self.skip_generics(j);
        }
        let mut ty = self.parse_type_path(&mut j)?;
        if self.text(j) == "for" {
            j += 1;
            ty = self.parse_type_path(&mut j)?;
        }
        // Skip the rest of the header (where clauses) to the body.
        while j < self.file.code.len() {
            match self.text(j) {
                "{" => return Some((ty, j)),
                ";" => return None,
                "<" => j = self.skip_generics(j).max(j + 1),
                "(" | "[" => j = self.skip_balanced(j),
                _ => j += 1,
            }
        }
        None
    }

    /// Parses `a::b::Name` at `*j`, advancing past it (and a trailing
    /// generic group); returns the final path segment.
    fn parse_type_path(&self, j: &mut usize) -> Option<&'a str> {
        // Leading `&`/`&&`/`mut`/lifetimes before the path proper.
        while matches!(self.text(*j), "&" | "&&" | "mut" | "dyn")
            || self
                .file
                .code_tok(*j)
                .is_some_and(|t| t.kind == TokKind::Lifetime)
        {
            *j += 1;
        }
        if !self.is_ident(*j) {
            return None;
        }
        let mut last = self.text(*j);
        *j += 1;
        while self.is_punct(*j, "::") && self.is_ident(*j + 1) {
            last = self.text(*j + 1);
            *j += 2;
        }
        if self.is_punct(*j, "<") {
            *j = self.skip_generics(*j);
        }
        Some(last)
    }

    /// Records a call at ident `i` (known to be followed by `(`).
    fn record_call(&mut self, i: usize) {
        let name = self.text(i);
        if NON_CALL_KEYWORDS.contains(&name) {
            return;
        }
        let Some(fn_idx) = self.scopes.iter().rev().find_map(|s| s.fn_idx) else {
            return;
        };
        let method = i > 0 && self.is_punct(i - 1, ".");
        let mut segments = vec![name];
        if !method {
            let mut k = i;
            while k >= 2 && self.is_punct(k - 1, "::") && self.is_ident(k - 2) {
                segments.insert(0, self.text(k - 2));
                k -= 2;
            }
            // Drop path qualifiers that carry no resolution signal.
            while segments.len() > 1
                && matches!(segments[0], "crate" | "super" | "self" | "Self" | "std")
            {
                segments.remove(0);
            }
        }
        let line = self.file.code_tok(i).map_or(0, |t| t.line);
        self.out.fns[fn_idx].calls.push(Call {
            segments,
            method,
            line,
        });
    }

    /// The qualified path of the current scope stack plus `name`.
    fn qual_with(&self, name: &'a str) -> Vec<&'a str> {
        let mut q: Vec<&'a str> = self.scopes.iter().filter_map(|s| s.seg).collect();
        q.push(name);
        q
    }

    /// Index past a `name: Type` segment starting its type at `from`
    /// (stops at the top-level `=` or `;`).
    fn type_end(&self, from: usize) -> usize {
        let mut k = from;
        let mut depth = 0i32;
        while k < self.file.code.len() {
            match self.text(k) {
                "(" | "[" | "{" | "<" => depth += 1,
                ")" | "]" | "}" | ">" => depth -= 1,
                "=" | ";" if depth == 0 => break,
                _ => {}
            }
            k += 1;
        }
        k
    }

    /// Handles `fn name …` at `i`; returns the next scan index.
    fn handle_fn(&mut self, i: usize) -> usize {
        let name = self.text(i + 1);
        let line = self.file.code_tok(i).map_or(0, |t| t.line);
        let mut j = i + 2;
        if self.is_punct(j, "<") {
            j = self.skip_generics(j);
        }
        if !self.is_punct(j, "(") {
            return i + 1;
        }
        let receiver = self.takes_self(j);
        let after = self.skip_balanced(j);
        // Find the body `{` (or `;` for a declaration), skipping return
        // types and where clauses.
        let mut k = after;
        let mut body = None;
        let mut depth = 0i32;
        while k < self.file.code.len() {
            match self.text(k) {
                "(" | "[" => depth += 1,
                ")" | "]" if depth > 0 => depth -= 1,
                ")" | "]" | ";" | "," | "}" if depth == 0 => break,
                "{" if depth == 0 => {
                    body = Some(k);
                    break;
                }
                "<" if depth == 0 => {
                    k = self.skip_generics(k).max(k + 1) - 1;
                }
                _ => {}
            }
            k += 1;
        }
        let Some(open) = body else { return k + 1 };
        let qual = self.qual_with(name);
        self.out.fns.push(FnItem {
            name,
            qual,
            file: 0,
            line,
            body: (open, open),
            receiver,
            calls: Vec::new(),
        });
        let fn_idx = self.out.fns.len() - 1;
        self.scopes.push(Scope {
            seg: Some(name),
            fn_idx: Some(fn_idx),
        });
        open + 1
    }

    /// Handles `static [mut] NAME: Type …` at `i`; returns the next
    /// scan index.
    fn handle_static(&mut self, i: usize) -> usize {
        let mut j = i + 1;
        let mutable = self.text(j) == "mut";
        if mutable {
            j += 1;
        }
        if !(self.is_ident(j) && self.is_punct(j + 1, ":")) {
            return i + 1;
        }
        let name = self.text(j);
        let (line, col) = self.file.code_tok(i).map_or((0, 0), |t| (t.line, t.col));
        let k = self.type_end(j + 2);
        self.out.statics.push(StaticItem {
            name,
            file: 0,
            line,
            col,
            mutable,
            ty: self.join(j + 2, k),
        });
        k
    }

    fn run(mut self) -> ParsedFile<'a> {
        let mut i = 0usize;
        while i < self.file.code.len() {
            let in_fn = self.scopes.iter().rev().any(|s| s.fn_idx.is_some());
            match self.text(i) {
                "mod" if self.is_ident(i + 1) && self.is_punct(i + 2, "{") => {
                    self.scopes.push(Scope {
                        seg: Some(self.text(i + 1)),
                        fn_idx: None,
                    });
                    i += 3;
                }
                "impl" if !in_fn => match self.parse_impl(i) {
                    Some((ty, open)) => {
                        self.scopes.push(Scope {
                            seg: Some(ty),
                            fn_idx: None,
                        });
                        i = open + 1;
                    }
                    None => i += 1,
                },
                "fn" if self.is_ident(i + 1) => i = self.handle_fn(i),
                "static" if !in_fn => i = self.handle_static(i),
                "{" => {
                    self.scopes.push(Scope {
                        seg: None,
                        fn_idx: None,
                    });
                    i += 1;
                }
                "}" => {
                    if let Some(scope) = self.scopes.pop() {
                        if let Some(fn_idx) = scope.fn_idx {
                            self.out.fns[fn_idx].body.1 = i;
                        }
                    }
                    i += 1;
                }
                _ => {
                    if self.is_ident(i) && self.is_punct(i + 1, "(") {
                        self.record_call(i);
                    }
                    i += 1;
                }
            }
        }
        // Close any function left open by an unbalanced tree.
        while let Some(scope) = self.scopes.pop() {
            if let Some(fn_idx) = scope.fn_idx {
                self.out.fns[fn_idx].body.1 = self.file.code.len().saturating_sub(1);
            }
        }
        self.out
    }
}

/// Parses one file's items (see module docs).
pub fn parse_file(file: &SourceFile) -> ParsedFile<'_> {
    Parser {
        file,
        out: ParsedFile::default(),
        scopes: Vec::new(),
    }
    .run()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses `src`; the file is leaked so the items can borrow it.
    fn parsed(src: &str) -> ParsedFile<'static> {
        parse_file(Box::leak(Box::new(SourceFile::parse(
            "crates/core/src/sim/x.rs",
            src,
        ))))
    }

    #[test]
    fn fn_items_carry_signature_and_body() {
        let p = parsed(
            "pub fn relay(sat: usize, queue: &mut Vec<u64>) -> u64 {\n    queue.pop().unwrap_or(sat as u64)\n}\n",
        );
        assert_eq!(p.fns.len(), 1);
        let f = &p.fns[0];
        assert_eq!(f.name, "relay");
        assert_eq!(f.qual, vec!["relay"]);
        assert_eq!(f.line, 1);
        assert!(!f.receiver, "a free fn takes no self");
        assert_eq!(f.calls.len(), 2, "pop and unwrap_or: {:?}", f.calls);
    }

    #[test]
    fn mods_and_impls_qualify_names() {
        let p = parsed(
            "mod engine {\n    pub struct State;\n    impl State {\n        pub fn step(&mut self) {}\n    }\n    pub fn report() {}\n}\n",
        );
        let quals: Vec<Vec<&str>> = p.fns.iter().map(|f| f.qual.clone()).collect();
        assert!(quals.contains(&vec!["engine", "State", "step"]));
        assert!(quals.contains(&vec!["engine", "report"]));
        assert!(p.fns[0].receiver);
        assert!(!p.fns[1].receiver);
    }

    #[test]
    fn impl_trait_for_type_uses_the_type() {
        let p = parsed("impl simkit::Handler for State {\n    fn on_event(&mut self) {}\n}\n");
        assert_eq!(p.fns[0].qual, vec!["State", "on_event"]);
    }

    #[test]
    fn calls_record_paths_and_methods() {
        let p = parsed(
            "fn outer(st: &mut State) {\n    engine::step(st);\n    st.absorb_shard(1);\n    helper();\n    let v = Vec::new();\n}\n",
        );
        let calls = &p.fns[0].calls;
        assert!(calls.contains(&Call {
            segments: vec!["engine", "step"],
            method: false,
            line: 2
        }));
        assert!(calls
            .iter()
            .any(|c| c.method && c.segments == ["absorb_shard"]));
        assert!(calls.iter().any(|c| !c.method && c.segments == ["helper"]));
        assert!(calls.iter().any(|c| c.segments == ["Vec", "new"]));
        assert!(
            !calls.iter().any(|c| c.segments.last() == Some(&"outer")),
            "the definition itself is not a call"
        );
    }

    #[test]
    fn keywords_are_not_calls() {
        let p = parsed("fn f(x: u32) -> u32 {\n    if (x > 0) { x } else { 0 }\n}\n");
        assert!(p.fns[0].calls.is_empty(), "{:?}", p.fns[0].calls);
    }

    #[test]
    fn statics_capture_mutability_and_type() {
        let p = parsed(
            "static COUNTER: AtomicU64 = AtomicU64::new(0);\nstatic mut RAW: u64 = 0;\nstatic NAME: &str = \"x\";\n",
        );
        assert_eq!(p.statics.len(), 3);
        assert_eq!(p.statics[0].ty, "AtomicU64");
        assert!(!p.statics[0].mutable);
        assert!(p.statics[1].mutable);
        assert_eq!(p.statics[2].ty, "& str");
    }

    #[test]
    fn nested_fns_and_closures_are_handled() {
        let p = parsed(
            "fn outer() {\n    fn inner(x: u32) -> u32 { helper(x) }\n    let c = |y: u32| inner(y);\n    c(1);\n}\n",
        );
        let names: Vec<&str> = p.fns.iter().map(|f| f.name).collect();
        assert_eq!(names, vec!["outer", "inner"]);
        assert!(p.fns[1].calls.iter().any(|c| c.segments == ["helper"]));
        assert!(
            p.fns[0].calls.iter().any(|c| c.segments == ["inner"]),
            "closure-body calls attach to the enclosing fn"
        );
    }

    #[test]
    fn body_ranges_nest_correctly() {
        let src = "fn a() {\n    one();\n}\nfn b() {\n    two();\n}\n";
        let p = parsed(src);
        assert_eq!(p.fns.len(), 2);
        assert!(p.fns[0].body.1 < p.fns[1].body.0, "bodies do not overlap");
        assert_eq!(p.fns[0].calls.len(), 1);
        assert_eq!(p.fns[1].calls.len(), 1);
    }
}
