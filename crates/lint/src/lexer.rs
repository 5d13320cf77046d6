//! A small string/char/comment-aware Rust lexer.
//!
//! The lint rules are token-pattern matchers, so the lexer's job is to
//! make sure patterns inside string literals, char literals, and
//! comments never fire, and to classify number literals well enough to
//! tell a float from an integer. It is not a full Rust lexer: it keeps
//! exactly the distinctions the rules need and treats everything else
//! as punctuation.

/// Token classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Lifetime (`'a`, `'static`).
    Lifetime,
    /// Integer literal (including `0x`/`0o`/`0b` forms).
    Int,
    /// Float literal (`1.0`, `1e3`, `2f64`, …).
    Float,
    /// String literal (`"…"`, `r#"…"#`, `b"…"`).
    Str,
    /// Char or byte literal (`'x'`, `b'\n'`).
    Char,
    /// `// …` comment (text includes the slashes).
    LineComment,
    /// `/* … */` comment (text includes the delimiters).
    BlockComment,
    /// Operator / punctuation. Multi-char operators the rules care
    /// about (`==`, `!=`, `::`, `..`, `<=`, `>=`, `&&`, `||`, `->`,
    /// `=>`, `..=`) are single tokens.
    Punct,
}

/// The longest source the lexer accepts, in bytes: token offsets and
/// lengths are `u32`. [`crate::Workspace::load`] rejects larger files.
pub const MAX_SOURCE_BYTES: usize = u32::MAX as usize;

/// One lexed token: a span of the source plus its 1-based position.
///
/// A token owns no text; [`Tok::text`] slices it out of the source it
/// was lexed from (see [`crate::SourceFile::text`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tok {
    /// Classification.
    pub kind: TokKind,
    /// 1-based line of the token's first character.
    pub line: u32,
    /// 1-based column (in chars) of the token's first character.
    pub col: u32,
    /// Byte offset of the token's first character. Spans
    /// `pos..pos + len` partition the source (gaps are whitespace
    /// only), which `tests/lint_gate.rs` asserts over every workspace
    /// file.
    pub pos: u32,
    /// Length of the token in bytes.
    pub len: u32,
}

impl Tok {
    /// Whether this token is a comment.
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokKind::LineComment | TokKind::BlockComment)
    }

    /// The token's byte range in its source.
    pub fn span(&self) -> std::ops::Range<usize> {
        let pos = self.pos as usize;
        pos..pos + self.len as usize
    }

    /// The token's text in `src`, the source it was lexed from (empty
    /// when the span does not lie in `src`).
    pub fn text<'s>(&self, src: &'s str) -> &'s str {
        src.get(self.span()).unwrap_or("")
    }
}

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek_at(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else if b & 0xc0 != 0x80 {
            // Count one column per character, not per UTF-8 byte.
            self.col += 1;
        }
        Some(b)
    }

    fn eat_while(&mut self, pred: impl Fn(u8) -> bool) {
        while self.peek().is_some_and(&pred) {
            self.bump();
        }
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Tokenizes Rust source, handing each token to `push` in source order.
/// Unterminated literals and comments are tolerated (the token simply
/// runs to end of input), so the lexer never fails — important because
/// it runs over work-in-progress trees. Only the first
/// [`MAX_SOURCE_BYTES`] bytes, cut back to a char boundary, are lexed.
pub fn tokenize(src: &str, mut push: impl FnMut(Tok)) {
    let mut c = Cursor {
        src: &src.as_bytes()[..lexable_len(src)],
        pos: 0,
        line: 1,
        col: 1,
    };
    while let Some(b) = c.peek() {
        let (line, col, start) = (c.line, c.col, c.pos);
        // Offsets fit in `u32`: the cursor stops at `MAX_SOURCE_BYTES`.
        let tok = |c: &Cursor, kind: TokKind| Tok {
            kind,
            line,
            col,
            pos: start as u32,
            len: (c.pos - start) as u32,
        };
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                c.bump();
            }
            b'/' if c.peek_at(1) == Some(b'/') => {
                c.eat_while(|b| b != b'\n');
                push(tok(&c, TokKind::LineComment));
            }
            b'/' if c.peek_at(1) == Some(b'*') => {
                c.bump();
                c.bump();
                let mut depth = 1usize;
                while depth > 0 {
                    match (c.peek(), c.peek_at(1)) {
                        (Some(b'/'), Some(b'*')) => {
                            depth += 1;
                            c.bump();
                            c.bump();
                        }
                        (Some(b'*'), Some(b'/')) => {
                            depth -= 1;
                            c.bump();
                            c.bump();
                        }
                        (Some(_), _) => {
                            c.bump();
                        }
                        (None, _) => break,
                    }
                }
                push(tok(&c, TokKind::BlockComment));
            }
            b'"' => {
                lex_string(&mut c);
                push(tok(&c, TokKind::Str));
            }
            b'r' | b'b' if starts_raw_or_byte_literal(&c) => {
                let kind = lex_prefixed_literal(&mut c);
                push(tok(&c, kind));
            }
            b'\'' => {
                if lex_char_or_lifetime(&mut c) {
                    push(tok(&c, TokKind::Char));
                } else {
                    push(tok(&c, TokKind::Lifetime));
                }
            }
            b if is_ident_start(b) => {
                c.eat_while(is_ident_continue);
                push(tok(&c, TokKind::Ident));
            }
            b if b.is_ascii_digit() => {
                let kind = lex_number(&mut c);
                push(tok(&c, kind));
            }
            _ => {
                c.bump();
                // Fuse the multi-char operators the rules pattern-match.
                let two = [b, c.peek().unwrap_or(0)];
                match &two {
                    b"==" | b"!=" | b"<=" | b">=" | b"::" | b"&&" | b"||" | b"->" | b"=>" => {
                        c.bump();
                    }
                    b".." => {
                        c.bump();
                        if c.peek() == Some(b'=') || c.peek() == Some(b'.') {
                            c.bump();
                        }
                    }
                    _ => {}
                }
                push(tok(&c, TokKind::Punct));
            }
        }
    }
}

/// The length of the prefix of `src` the lexer reads: all of it, or
/// the first [`MAX_SOURCE_BYTES`] cut back to a char boundary.
pub(crate) fn lexable_len(src: &str) -> usize {
    let mut end = src.len().min(MAX_SOURCE_BYTES);
    while !src.is_char_boundary(end) {
        end -= 1;
    }
    end
}

/// Consumes a `"…"` string body (cursor on the opening quote).
fn lex_string(c: &mut Cursor) {
    c.bump();
    while let Some(b) = c.peek() {
        match b {
            b'\\' => {
                c.bump();
                c.bump();
            }
            b'"' => {
                c.bump();
                return;
            }
            _ => {
                c.bump();
            }
        }
    }
}

/// Whether the cursor sits on a raw/byte literal opener: `r"`, `r#…"`,
/// `b"`, `b'`, `br"`, or `br#…"` — as opposed to an identifier that
/// merely starts with `r`/`b`, or a raw identifier like `r#type`.
fn starts_raw_or_byte_literal(c: &Cursor) -> bool {
    // `#`s between an `r` and the quote belong to a raw string; an
    // ident char after them means a raw identifier instead.
    let raw_quote_at = |c: &Cursor, mut i: usize| {
        while c.peek_at(i) == Some(b'#') {
            i += 1;
        }
        c.peek_at(i) == Some(b'"')
    };
    match (c.peek(), c.peek_at(1)) {
        (Some(b'r'), Some(b'"' | b'#')) => raw_quote_at(c, 1),
        (Some(b'b'), Some(b'"' | b'\'')) => true,
        (Some(b'b'), Some(b'r')) => matches!(c.peek_at(2), Some(b'"' | b'#')) && raw_quote_at(c, 2),
        _ => false,
    }
}

/// Lexes `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, or `b'…'` and returns
/// its kind.
fn lex_prefixed_literal(c: &mut Cursor) -> TokKind {
    let mut raw = false;
    if c.peek() == Some(b'b') {
        c.bump();
    }
    if c.peek() == Some(b'r') {
        raw = true;
        c.bump();
    }
    if c.peek() == Some(b'\'') {
        // Byte literal b'…'.
        lex_char_or_lifetime(c);
        TokKind::Char
    } else if raw {
        let mut hashes = 0usize;
        while c.peek() == Some(b'#') {
            hashes += 1;
            c.bump();
        }
        c.bump(); // opening quote
        'body: while let Some(b) = c.bump() {
            if b == b'"' {
                for i in 0..hashes {
                    if c.peek_at(i) != Some(b'#') {
                        continue 'body;
                    }
                }
                for _ in 0..hashes {
                    c.bump();
                }
                break;
            }
        }
        TokKind::Str
    } else {
        lex_string(c);
        TokKind::Str
    }
}

/// Disambiguates `'a'` (char) from `'a` (lifetime); cursor on the `'`.
/// Returns `true` for a char literal.
fn lex_char_or_lifetime(c: &mut Cursor) -> bool {
    c.bump(); // opening quote
    match c.peek() {
        Some(b'\\') => {
            // Escaped char literal.
            c.bump();
            c.bump();
            c.eat_while(|b| b != b'\'');
            c.bump();
            true
        }
        Some(b) if is_ident_start(b) => {
            // `'x'` is a char; `'x` followed by anything else is a
            // lifetime (or the loop label in `'outer: loop`).
            c.eat_while(is_ident_continue);
            if c.peek() == Some(b'\'') {
                c.bump();
                true
            } else {
                false
            }
        }
        _ => {
            // Punctuation char literal like '(' or ' '.
            c.bump();
            if c.peek() == Some(b'\'') {
                c.bump();
            }
            true
        }
    }
}

/// Lexes a number; cursor on the first digit. Classifies as
/// [`TokKind::Float`] when the literal has a fractional part, an
/// exponent, or an `f32`/`f64` suffix.
fn lex_number(c: &mut Cursor) -> TokKind {
    let radix_prefix = c.peek() == Some(b'0')
        && matches!(c.peek_at(1), Some(b'x' | b'o' | b'b' | b'X' | b'O' | b'B'));
    if radix_prefix {
        c.bump();
        c.bump();
        c.eat_while(|b| b.is_ascii_alphanumeric() || b == b'_');
        return TokKind::Int;
    }
    let mut float = false;
    c.eat_while(|b| b.is_ascii_digit() || b == b'_');
    // A `.` begins a fraction only when not `..` (range) and not a
    // method/field access like `1.max(2)` or tuple index.
    if c.peek() == Some(b'.') {
        match c.peek_at(1) {
            Some(b'.') => {}
            Some(b) if is_ident_start(b) => {}
            _ => {
                float = true;
                c.bump();
                c.eat_while(|b| b.is_ascii_digit() || b == b'_');
            }
        }
    }
    if matches!(c.peek(), Some(b'e' | b'E')) {
        let (sign, digit) = (c.peek_at(1), c.peek_at(2));
        let exp = match sign {
            Some(b'+' | b'-') => digit.is_some_and(|b| b.is_ascii_digit()),
            Some(b) => b.is_ascii_digit(),
            None => false,
        };
        if exp {
            float = true;
            c.bump();
            if matches!(c.peek(), Some(b'+' | b'-')) {
                c.bump();
            }
            c.eat_while(|b| b.is_ascii_digit() || b == b'_');
        }
    }
    // Type suffix (`f64`, `u32`, …).
    let suffix_start = c.pos;
    c.eat_while(is_ident_continue);
    let suffix = &c.src[suffix_start..c.pos];
    if suffix == b"f32" || suffix == b"f64" {
        float = true;
    }
    if float {
        TokKind::Float
    } else {
        TokKind::Int
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokens(src: &str) -> Vec<Tok> {
        let mut toks = Vec::new();
        tokenize(src, |t| toks.push(t));
        toks
    }

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        tokens(src)
            .into_iter()
            .map(|t| (t.kind, t.text(src).to_string()))
            .collect()
    }

    #[test]
    fn idents_and_puncts() {
        let toks = kinds("let x == y != z;");
        assert_eq!(
            toks,
            vec![
                (TokKind::Ident, "let".into()),
                (TokKind::Ident, "x".into()),
                (TokKind::Punct, "==".into()),
                (TokKind::Ident, "y".into()),
                (TokKind::Punct, "!=".into()),
                (TokKind::Ident, "z".into()),
                (TokKind::Punct, ";".into()),
            ]
        );
    }

    #[test]
    fn float_vs_int_vs_range() {
        assert_eq!(
            kinds("1.0 2 0x1F 1..4 1e5 2f64 3u32 x.0"),
            vec![
                (TokKind::Float, "1.0".into()),
                (TokKind::Int, "2".into()),
                (TokKind::Int, "0x1F".into()),
                (TokKind::Int, "1".into()),
                (TokKind::Punct, "..".into()),
                (TokKind::Int, "4".into()),
                (TokKind::Float, "1e5".into()),
                (TokKind::Float, "2f64".into()),
                (TokKind::Int, "3u32".into()),
                (TokKind::Ident, "x".into()),
                (TokKind::Punct, ".".into()),
                (TokKind::Int, "0".into()),
            ]
        );
    }

    #[test]
    fn method_on_int_is_not_a_float() {
        assert_eq!(
            kinds("1.max(2)")[0],
            (TokKind::Int, "1".into()),
            "1.max(2) starts with an integer receiver"
        );
    }

    #[test]
    fn strings_hide_their_contents() {
        let toks = kinds(r#"let s = "HashMap == unwrap() // no";"#);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Str && t.contains("HashMap")));
        assert_eq!(
            toks.iter().filter(|(k, _)| *k == TokKind::Ident).count(),
            2,
            "only `let` and `s` are idents"
        );
    }

    #[test]
    fn raw_strings_with_hashes() {
        let toks = kinds(r###"r#"a "quoted" b"# x"###);
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[0].0, TokKind::Str);
        assert_eq!(toks[1], (TokKind::Ident, "x".into()));
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        let toks = kinds(r#"b"bytes" b'x' br"raw""#);
        assert_eq!(
            toks.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![TokKind::Str, TokKind::Char, TokKind::Str]
        );
    }

    #[test]
    fn char_vs_lifetime() {
        let toks = kinds(r"'a' 'x: &'static str '\n'");
        assert_eq!(toks[0].0, TokKind::Char);
        assert_eq!(toks[1], (TokKind::Lifetime, "'x".into()));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Lifetime && t == "'static"));
        assert_eq!(toks.last().unwrap().0, TokKind::Char);
    }

    #[test]
    fn comments_capture_text_and_nesting() {
        let toks = kinds("code /* outer /* inner */ still */ after // tail\nnext");
        assert_eq!(toks[0], (TokKind::Ident, "code".into()));
        assert_eq!(toks[1].0, TokKind::BlockComment);
        assert!(toks[1].1.contains("inner"));
        assert!(toks[1].1.ends_with("still */"));
        assert_eq!(toks[2], (TokKind::Ident, "after".into()));
        assert_eq!(toks[3].0, TokKind::LineComment);
        assert_eq!(toks[4], (TokKind::Ident, "next".into()));
    }

    #[test]
    fn positions_are_one_based_lines_and_cols() {
        let toks = tokens("a\n  b == 1.5");
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
        assert_eq!((toks[2].line, toks[2].col), (2, 5));
        assert_eq!((toks[3].line, toks[3].col), (2, 8));
    }

    #[test]
    fn unterminated_literals_do_not_hang() {
        assert_eq!(kinds("\"open").len(), 1);
        assert_eq!(kinds("/* open").len(), 1);
        assert_eq!(kinds("r#\"open").len(), 1);
    }

    #[test]
    fn escaped_quotes_stay_inside_the_string() {
        let toks = kinds(r#""a\"b" c"#);
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[1], (TokKind::Ident, "c".into()));
    }

    #[test]
    fn non_ascii_columns_count_chars_and_spans_count_bytes() {
        // `é` is 2 bytes, `→` 3, `🛰` 4.
        let src = "let é = \"→\"; // 🛰 up\n  naïve == 1.5";
        let toks = tokens(src);
        let got: Vec<(&str, u32, u32, u32, u32)> = toks
            .iter()
            .map(|t| (t.text(src), t.line, t.col, t.pos, t.len))
            .collect();
        assert_eq!(
            got,
            vec![
                ("let", 1, 1, 0, 3),
                ("é", 1, 5, 4, 2),
                ("=", 1, 7, 7, 1),
                ("\"→\"", 1, 9, 9, 5),
                (";", 1, 12, 14, 1),
                ("// 🛰 up", 1, 14, 16, 10),
                ("naïve", 2, 3, 29, 6),
                ("==", 2, 9, 36, 2),
                ("1.5", 2, 12, 39, 3),
            ]
        );
        for t in &toks {
            assert!(src.is_char_boundary(t.span().start), "{t:?}");
            assert!(src.is_char_boundary(t.span().end), "{t:?}");
            assert_eq!(t.text(src), &src[t.span()]);
        }
    }

    #[test]
    fn multibyte_chars_and_lifetimes_stay_whole() {
        let src = "'é' 'ß: x /* ✓ */ b'\\xff'";
        let toks = kinds(src);
        assert_eq!(
            toks,
            vec![
                (TokKind::Char, "'é'".into()),
                (TokKind::Lifetime, "'ß".into()),
                (TokKind::Punct, ":".into()),
                (TokKind::Ident, "x".into()),
                (TokKind::BlockComment, "/* ✓ */".into()),
                (TokKind::Char, "b'\\xff'".into()),
            ]
        );
    }

    #[test]
    fn a_span_outside_the_source_reads_empty() {
        let t = tokens("abc")[0];
        assert_eq!(t.text("abc"), "abc");
        assert_eq!(t.text("ab"), "", "short source");
        assert_eq!(t.text("é"), "", "not a char boundary");
    }

    #[test]
    fn tokens_are_small_copyable_spans() {
        assert_eq!(std::mem::size_of::<Tok>(), 20);
    }
}
