//! The rule registry and the individual determinism rules.
//!
//! Every rule is a token-pattern matcher over a [`SourceFile`]; the
//! lexer guarantees matches inside strings and comments never fire.
//! Rules respect inline suppressions ([`SourceFile::allowed`]) and,
//! where noted, skip `#[cfg(test)]` / `#[test]` regions.

use crate::lexer::{Tok, TokKind};
use crate::source::SourceFile;
use crate::Diagnostic;

/// Static description of one lint rule.
pub struct RuleInfo {
    /// Stable rule id, as used in `lint:allow(...)` and `--rule`.
    pub id: &'static str,
    /// One-line description of what the rule catches.
    pub summary: &'static str,
    /// How to fix a violation.
    pub hint: &'static str,
    check: fn(&RuleInfo, &SourceFile, &mut Vec<Diagnostic>),
}

impl std::fmt::Debug for RuleInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuleInfo").field("id", &self.id).finish()
    }
}

impl RuleInfo {
    /// Runs the rule over one file, appending diagnostics.
    pub fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        (self.check)(self, file, out);
    }
}

/// All rules, in presentation order.
pub static RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "nondeterministic-iteration",
        summary: "HashMap/HashSet in linted code (iteration order varies run to run)",
        hint: "use BTreeMap/BTreeSet, or collect and sort before iterating",
        check: check_nondeterministic_iteration,
    },
    RuleInfo {
        id: "wall-clock-in-model",
        summary: "Instant::now/SystemTime::now outside the telemetry and simkit timing shims, \
                  or a unix_ms() call in the flight-recorder path",
        hint: "model code and trace stamps must take time from the simulation clock \
               (derive unix_ms from t_s); route wall-clock measurement through \
               telemetry spans or simkit's scheduler probe",
        check: check_wall_clock,
    },
    RuleInfo {
        id: "unseeded-rng",
        summary: "RNG constructed outside simkit::rng::RngFactory streams",
        hint: "derive per-entity streams with RngFactory::stream(label, index) so draws \
               replay under the run seed",
        check: check_unseeded_rng,
    },
    RuleInfo {
        id: "rng-stream-discipline",
        summary: "RngFactory::stream call in sim code with a dynamic label or a constant \
                  (entity-independent) index",
        hint: "use a string-literal stream label and derive the index from the entity \
               (sat/link/tenant) id so shards never share a stream",
        check: check_rng_stream_discipline,
    },
    RuleInfo {
        id: "float-eq",
        summary: "`==`/`!=` against a float literal",
        hint: "compare with an explicit epsilon, or restructure the guard \
               (e.g. `x <= 0.0` for a non-negative quantity)",
        check: check_float_eq,
    },
    RuleInfo {
        id: "unwrap-in-lib",
        summary: "unwrap()/expect()/panic!/unreachable!/todo!/unimplemented! in non-test \
                  library code",
        hint: "return Result with a contextual error (see the CellError pattern in \
               sudc::experiments), or restructure so the failure case cannot occur",
        check: check_unwrap_in_lib,
    },
    RuleInfo {
        id: "long-function",
        summary: "function spans more than 120 lines",
        hint: "extract helpers or split the function along its phases (see the sim \
               engine's topology/transport/service layering)",
        check: check_long_function,
    },
    RuleInfo {
        id: "todo-marker",
        summary: "to-do/fix-me marker left in a comment",
        hint: "resolve the marker or file it as a tracked issue",
        check: check_todo_marker,
    },
    RuleInfo {
        id: "shared-state-across-shards",
        summary: "`static mut`, a static of an interior-mutable type, or thread identity \
                  (`ThreadId`, `thread::current`) in non-test sim or simkit code",
        hint: "move the state into per-shard State fields and merge it in the \
               absorb pass (see sim::parallel); derive per-shard values from the \
               shard index, never from the worker thread",
        check: check_shared_state,
    },
];

/// Looks a rule up by id.
pub fn rule_by_id(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// Library code proper: `crates/*/src/**` (integration tests, examples,
/// and benches are harness code).
fn is_lib_code(path: &str) -> bool {
    path.starts_with("crates/") && path.contains("/src/") && !path.contains("/benches/")
}

fn emit(rule: &RuleInfo, file: &SourceFile, tok: &Tok, message: String, out: &mut Vec<Diagnostic>) {
    if file.allowed(rule.id, tok.line) {
        return;
    }
    out.push(Diagnostic::new(rule, file, tok.line, tok.col, message));
}

/// Matches `recv`, `"::"`, `member` at code position `i`.
fn path_seq(file: &SourceFile, i: usize, recv: &[&str], member: &[&str]) -> bool {
    let id = |i: usize, names: &[&str]| {
        file.code_tok(i)
            .is_some_and(|t| t.kind == TokKind::Ident && names.contains(&file.text(t)))
    };
    let sep = file
        .code_tok(i + 1)
        .is_some_and(|t| t.kind == TokKind::Punct && file.text(t) == "::");
    id(i, recv) && sep && id(i + 2, member)
}

/// Matches the punctuation `s` at code position `i`.
fn punct_at(file: &SourceFile, i: usize, s: &str) -> bool {
    file.code_tok(i)
        .is_some_and(|t| t.kind == TokKind::Punct && file.text(t) == s)
}

/// Every file the scan lints, test code included: a fold over a hash
/// collection needs a parameter, local or field declared with the
/// type, and that declaration is a flagged line.
fn check_nondeterministic_iteration(rule: &RuleInfo, file: &SourceFile, out: &mut Vec<Diagnostic>) {
    // One diagnostic per line: a single declaration usually mentions
    // the type several times (`let m: HashMap<..> = HashMap::new()`).
    let mut last_line = 0u32;
    for i in 0..file.code.len() {
        let Some(t) = file.code_tok(i) else { break };
        let text = file.text(t);
        if t.kind == TokKind::Ident
            && (text == "HashMap" || text == "HashSet")
            && t.line != last_line
        {
            last_line = t.line;
            emit(
                rule,
                file,
                t,
                format!("`{text}`: iteration order varies run to run"),
                out,
            );
        }
    }
}

/// The flight recorder's source, which sits in the telemetry crate but
/// is no timing shim.
const TRACE_PATH: &str = "crates/telemetry/src/trace.rs";

/// The flight-recorder path: everything recorded there must be
/// timestamped in sim-time so double runs byte-diff clean.
fn in_trace_path(path: &str) -> bool {
    path.starts_with("crates/core/src/sim/") || path == TRACE_PATH
}

fn check_wall_clock(rule: &RuleInfo, file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let shim = file.path.starts_with("crates/simkit/")
        || (file.path.starts_with("crates/telemetry/") && file.path != TRACE_PATH);
    if shim {
        return;
    }
    let recorder = in_trace_path(&file.path);
    for i in 0..file.code.len() {
        let Some(t) = file.code_tok(i) else { break };
        // On the recorder path, `unix_ms(` as a call: a bare `unix_ms`
        // field write stays legal (a sim-time stamp derived from `t_s`
        // may carry the name).
        let message = if path_seq(file, i, &["Instant", "SystemTime"], &["now"]) {
            format!(
                "`{}::now()` outside the telemetry/simkit timing shims",
                file.text(t)
            )
        } else if recorder
            && t.kind == TokKind::Ident
            && file.text(t) == "unix_ms"
            && punct_at(file, i + 1, "(")
        {
            "`unix_ms()`: wall-clock source in the flight-recorder path".to_string()
        } else {
            continue;
        };
        if file.in_test_code(t.line) {
            continue;
        }
        emit(rule, file, t, message, out);
    }
}

fn check_unseeded_rng(rule: &RuleInfo, file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if file.path.starts_with("crates/simkit/") {
        return;
    }
    for i in 0..file.code.len() {
        let Some(t) = file.code_tok(i) else { break };
        let hit = (t.kind == TokKind::Ident
            && matches!(file.text(t), "thread_rng" | "from_entropy"))
            || path_seq(file, i, &["Rng64"], &["seed_from_u64"]);
        if !hit || file.in_test_code(t.line) {
            continue;
        }
        emit(
            rule,
            file,
            t,
            format!(
                "`{}`: RNG constructed outside RngFactory streams",
                file.text(t)
            ),
            out,
        );
    }
}

/// `rng-stream-discipline`: every `.stream(label, index)` derivation in
/// `sim/` must use a string-literal label (auditable stream namespace)
/// and an index derived from an entity identifier — a bare constant
/// index is one stream reused across entities, which the sharded run
/// then draws from in nondeterministic interleaving.
fn check_rng_stream_discipline(rule: &RuleInfo, file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !file.path.starts_with("crates/core/src/sim/") {
        return;
    }
    let text = |i: usize| file.code_text(i);
    let is_kind = |i: usize, kind: TokKind| file.code_tok(i).is_some_and(|t| t.kind == kind);
    for i in 0..file.code.len() {
        if text(i) != "." || text(i + 1) != "stream" || text(i + 2) != "(" {
            continue;
        }
        let Some(site) = file.code_tok(i + 1) else {
            continue;
        };
        if file.in_test_code(site.line) {
            continue;
        }
        // Walk the argument list: first arg to the top-level comma,
        // second to the matching close.
        let mut depth = 0i32;
        let mut comma = None;
        let mut close = None;
        for j in i + 2..file.code.len() {
            match text(j) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth == 0 {
                        close = Some(j);
                        break;
                    }
                }
                "," if depth == 1 && comma.is_none() => comma = Some(j),
                _ => {}
            }
        }
        let (Some(comma), Some(close)) = (comma, close) else {
            continue; // not a two-argument call — not a stream derivation
        };
        if !(comma == i + 4 && is_kind(i + 3, TokKind::Str)) {
            emit(
                rule,
                file,
                site,
                "stream label must be a single string literal so the stream \
                 namespace is statically auditable"
                    .to_string(),
                out,
            );
        }
        if !(comma + 1..close).any(|k| is_kind(k, TokKind::Ident) && text(k) != "as") {
            emit(
                rule,
                file,
                site,
                "stream index is a bare constant — derive it from the entity \
                 index so parallel shards never share a stream"
                    .to_string(),
                out,
            );
        }
    }
}

/// Float-literal detection around a comparison operator, including
/// `f64::NAN`-style constant paths.
fn is_floaty_at(file: &SourceFile, i: usize) -> bool {
    const FLOAT_CONSTS: &[&str] = &["NAN", "INFINITY", "NEG_INFINITY", "EPSILON"];
    let Some(t) = file.code_tok(i) else {
        return false;
    };
    t.kind == TokKind::Float
        || (t.kind == TokKind::Ident
            && matches!(file.text(t), "f32" | "f64")
            && path_seq(file, i, &["f32", "f64"], FLOAT_CONSTS))
}

/// Like [`is_floaty_at`] but looking backwards from the operator: the
/// token before it is either a float literal or the constant at the end
/// of an `f64::NAN` path.
fn is_floaty_before(file: &SourceFile, op: usize) -> bool {
    if op == 0 {
        return false;
    }
    if file
        .code_tok(op - 1)
        .is_some_and(|t| t.kind == TokKind::Float)
    {
        return true;
    }
    op >= 3
        && path_seq(
            file,
            op - 3,
            &["f32", "f64"],
            &["NAN", "INFINITY", "NEG_INFINITY", "EPSILON"],
        )
}

fn check_float_eq(rule: &RuleInfo, file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !is_lib_code(&file.path) {
        return;
    }
    for i in 0..file.code.len() {
        let Some(t) = file.code_tok(i) else { break };
        let op = file.text(t);
        if t.kind != TokKind::Punct || (op != "==" && op != "!=") {
            continue;
        }
        if !(is_floaty_at(file, i + 1) || is_floaty_before(file, i)) {
            continue;
        }
        if file.in_test_code(t.line) {
            continue;
        }
        emit(
            rule,
            file,
            t,
            format!("`{op}` against a float literal"),
            out,
        );
    }
}

fn check_unwrap_in_lib(rule: &RuleInfo, file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !is_lib_code(&file.path) {
        return;
    }
    let punct = |i: usize, s: &str| punct_at(file, i, s);
    for i in 0..file.code.len() {
        let Some(t) = file.code_tok(i) else { break };
        if t.kind != TokKind::Ident {
            continue;
        }
        let call = match file.text(t) {
            // `.unwrap()` / `.expect(` as method calls only.
            name @ ("unwrap" | "expect") if i > 0 && punct(i - 1, ".") && punct(i + 1, "(") => {
                format!(".{name}()")
            }
            name @ ("panic" | "unreachable" | "todo" | "unimplemented") if punct(i + 1, "!") => {
                format!("{name}!")
            }
            _ => continue,
        };
        if file.in_test_code(t.line) {
            continue;
        }
        emit(
            rule,
            file,
            t,
            format!("`{call}` in non-test library code"),
            out,
        );
    }
}

/// Lines a function may span (`fn` keyword through closing brace)
/// before `long-function` fires.
const MAX_FN_LINES: u32 = 120;

/// Finds the token index of a function body's opening `{`, scanning
/// forward from the token after `fn`. Returns `None` for bodiless
/// items: trait method declarations (`;`) and `fn(...)` pointer types
/// (ended by `,`, `}`, or an enclosing closing bracket).
fn fn_body_start(file: &SourceFile, mut j: usize) -> Option<usize> {
    let mut depth = 0i32;
    loop {
        let t = file.code_tok(j)?;
        if t.kind == TokKind::Punct {
            match file.text(t) {
                "(" | "[" => depth += 1,
                ")" | "]" => {
                    depth -= 1;
                    if depth < 0 {
                        return None;
                    }
                }
                "{" if depth == 0 => return Some(j),
                ";" | "," | "}" if depth == 0 => return None,
                _ => {}
            }
        }
        j += 1;
    }
}

/// The line of the `}` closing the brace block opened at token `start`.
fn block_end_line(file: &SourceFile, start: usize) -> Option<u32> {
    let mut depth = 0i32;
    let mut k = start;
    while let Some(t) = file.code_tok(k) {
        if t.kind == TokKind::Punct {
            let text = file.text(t);
            if text == "{" {
                depth += 1;
            } else if text == "}" {
                depth -= 1;
                if depth == 0 {
                    return Some(t.line);
                }
            }
        }
        k += 1;
    }
    None
}

fn check_long_function(rule: &RuleInfo, file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !is_lib_code(&file.path) {
        return;
    }
    for i in 0..file.code.len() {
        let Some(t) = file.code_tok(i) else { break };
        if t.kind != TokKind::Ident || file.text(t) != "fn" || file.in_test_code(t.line) {
            continue;
        }
        let Some(start) = fn_body_start(file, i + 1) else {
            continue;
        };
        let Some(end_line) = block_end_line(file, start) else {
            continue;
        };
        let lines = end_line.saturating_sub(t.line) + 1;
        if lines <= MAX_FN_LINES {
            continue;
        }
        let name = file
            .code_tok(i + 1)
            .filter(|n| n.kind == TokKind::Ident)
            .map_or("<fn>", |n| file.text(n));
        emit(
            rule,
            file,
            t,
            format!("`{name}` spans {lines} lines (max {MAX_FN_LINES})"),
            out,
        );
    }
}

fn check_todo_marker(rule: &RuleInfo, file: &SourceFile, out: &mut Vec<Diagnostic>) {
    const MARKERS: &[&str] = &["TODO", "FIXME", "XXX", "HACK"];
    for t in file.tokens.iter().filter(|t| t.is_comment()) {
        let Some(marker) = MARKERS.iter().find(|m| contains_word(file.text(t), m)) else {
            continue;
        };
        emit(
            rule,
            file,
            t,
            format!("`{marker}` marker in a comment"),
            out,
        );
    }
}

/// Case-sensitive whole-word containment (neighbors must not be
/// alphanumeric).
fn contains_word(haystack: &str, word: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = haystack[from..].find(word) {
        let start = from + pos;
        let end = start + word.len();
        let pre = haystack[..start].chars().next_back();
        let post = haystack[end..].chars().next();
        let boundary = |c: Option<char>| c.is_none_or(|c| !c.is_alphanumeric() && c != '_');
        if boundary(pre) && boundary(post) {
            return true;
        }
        from = end;
    }
    false
}

/// Files whose statics and thread identity `shared-state-across-shards`
/// covers: the sim engine and simkit, which hold the shards' state.
fn in_shard_scope(path: &str) -> bool {
    path.starts_with("crates/core/src/sim/") || path.starts_with("crates/simkit/src/")
}

/// Interior-mutability / shared-mutability type heads.
fn is_shared_mut_ty(head: &str) -> bool {
    head.starts_with("Atomic")
        || matches!(
            head,
            "Mutex"
                | "RwLock"
                | "RefCell"
                | "Cell"
                | "UnsafeCell"
                | "OnceLock"
                | "OnceCell"
                | "LazyLock"
        )
}

/// Describes the `static` item whose keyword is code token `i` when
/// shard workers would share its state: a `static mut`, or a
/// `static NAME: Type` whose type names an interior-mutable head.
fn shared_static(file: &SourceFile, i: usize) -> Option<String> {
    let text = |j: usize| file.code_text(j);
    if text(i + 1) == "mut" {
        return Some(format!("`static mut {}`", text(i + 2)));
    }
    let name = file.code_tok(i + 1).filter(|t| t.kind == TokKind::Ident)?;
    if text(i + 2) != ":" {
        return None;
    }
    // The type runs to the `=` or `;` at bracket depth 0.
    let mut depth = 0i32;
    for j in i + 3..file.code.len() {
        match text(j) {
            "(" | "[" | "{" | "<" => depth += 1,
            ")" | "]" | "}" | ">" => depth -= 1,
            "=" | ";" if depth == 0 => break,
            head if is_shared_mut_ty(head) => {
                return Some(format!(
                    "static `{}` has interior-mutable `{head}` in its type",
                    file.text(name)
                ));
            }
            _ => {}
        }
    }
    None
}

/// `shared-state-across-shards`: in the code shard workers run, a
/// static they would all share (module-level, fn-local or inside
/// `thread_local!`) makes writes race and reads observe scheduling
/// order, and thread identity differs from worker to worker; either
/// breaks byte-identity across thread counts.
fn check_shared_state(rule: &RuleInfo, file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !in_shard_scope(&file.path) {
        return;
    }
    for i in 0..file.code.len() {
        let Some(t) = file.code_tok(i) else { break };
        if t.kind != TokKind::Ident {
            continue;
        }
        let message = match file.text(t) {
            "static" => match shared_static(file, i) {
                Some(item) => format!("{item}: state shared by every shard worker"),
                None => continue,
            },
            "ThreadId" => "`ThreadId`: thread identity differs between shard workers".to_string(),
            "thread" if path_seq(file, i, &["thread"], &["current"]) => {
                "`thread::current()`: thread identity differs between shard workers".to_string()
            }
            _ => continue,
        };
        if file.in_test_code(t.line) {
            continue;
        }
        emit(rule, file, t, message, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diags(path: &str, src: &str) -> Vec<Diagnostic> {
        let file = SourceFile::parse(path, src);
        let mut out = Vec::new();
        for rule in RULES {
            rule.check(&file, &mut out);
        }
        out
    }

    fn rule_ids(path: &str, src: &str) -> Vec<&'static str> {
        diags(path, src).iter().map(|d| d.rule).collect()
    }

    const LIB: &str = "crates/core/src/model.rs";

    #[test]
    fn hashmap_fires_only_in_sim_result_paths() {
        let src = "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }\n";
        // Every linted path, lookup-only crates included: no file may
        // hold a hash collection unflagged.
        for path in [
            LIB,
            "crates/compress/src/lzw.rs",
            "crates/telemetry/src/merge.rs",
            "crates/lint/src/rules.rs",
            "examples/quickstart.rs",
        ] {
            let hits = rule_ids(path, src);
            assert_eq!(
                hits.iter()
                    .filter(|r| **r == "nondeterministic-iteration")
                    .count(),
                2,
                "one per line in {path}: {hits:?}"
            );
        }
    }

    #[test]
    fn hashset_in_test_code_still_fires_in_result_paths() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashSet;\n}\n";
        assert!(rule_ids(LIB, src).contains(&"nondeterministic-iteration"));
    }

    #[test]
    fn wall_clock_respects_shim_crates_and_tests() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert!(rule_ids(LIB, src).contains(&"wall-clock-in-model"));
        assert!(rule_ids("crates/telemetry/src/lib.rs", src).is_empty());
        assert!(rule_ids("crates/simkit/src/lib.rs", src).is_empty());
        let test_src = "#[test]\nfn t() { let t = SystemTime::now(); }\n";
        assert!(!rule_ids(LIB, test_src).contains(&"wall-clock-in-model"));
    }

    #[test]
    fn trace_wall_clock_is_scoped_to_the_recorder_path() {
        const SIM: &str = "crates/core/src/sim/engine.rs";
        const TRACE: &str = "crates/telemetry/src/trace.rs";
        let call = "fn f() -> u64 { unix_ms() }\n";
        assert_eq!(rule_ids(SIM, call), ["wall-clock-in-model"]);
        assert_eq!(rule_ids(TRACE, call), ["wall-clock-in-model"]);
        assert!(
            rule_ids(LIB, call).is_empty(),
            "a unix_ms() call outside the recorder path stamps no trace"
        );
        let now = "fn f() { let t = Instant::now(); }\n";
        assert_eq!(
            rule_ids(SIM, now),
            ["wall-clock-in-model"],
            "one finding per read on the recorder path"
        );
        assert_eq!(
            rule_ids(TRACE, now),
            ["wall-clock-in-model"],
            "the telemetry shim exemption does not extend to trace.rs"
        );
    }

    #[test]
    fn trace_wall_clock_allows_field_writes_and_test_code() {
        const TRACE: &str = "crates/telemetry/src/trace.rs";
        let field = "fn f(t_s: f64) -> Event { Event { unix_ms: (t_s * 1e3) as u64 } }\n";
        assert!(
            !rule_ids(TRACE, field).contains(&"wall-clock-in-model"),
            "a struct-literal field named unix_ms is the sanctioned sim-time derivation"
        );
        let test_src = "#[test]\nfn t() { let _ = unix_ms(); }\n";
        assert!(!rule_ids(TRACE, test_src).contains(&"wall-clock-in-model"));
    }

    #[test]
    fn unseeded_rng_flags_adhoc_streams() {
        let src = "fn f() { let r = Rng64::seed_from_u64(1); }\n";
        assert!(rule_ids(LIB, src).contains(&"unseeded-rng"));
        assert!(rule_ids("crates/simkit/src/rng.rs", src).is_empty());
        let ok = "fn f(fac: &RngFactory) { let r = fac.stream(\"sat\", 0); }\n";
        assert!(!rule_ids(LIB, ok).contains(&"unseeded-rng"));
    }

    #[test]
    fn stream_discipline_flags_dynamic_labels_and_constant_indices() {
        let src = "fn wire(rng: &RngFactory, label: &str, sat: u64) {\n    let _a = rng.stream(\"isl\", sat);\n    let _b = rng.stream(label, sat);\n    let _c = rng.stream(\"ingest\", 0);\n}\n";
        let out: Vec<Diagnostic> = diags("crates/core/src/sim/transport.rs", src)
            .into_iter()
            .filter(|d| d.rule == "rng-stream-discipline")
            .collect();
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out[0].message.contains("string literal"));
        assert!(out[1].message.contains("bare constant"));
        // Outside sim/, no jurisdiction.
        assert!(!rule_ids("crates/workloads/src/apps.rs", src).contains(&"rng-stream-discipline"));
    }

    #[test]
    fn float_eq_catches_literals_on_either_side() {
        assert!(rule_ids(LIB, "fn f(x: f64) -> bool { x == 0.0 }\n").contains(&"float-eq"));
        assert!(rule_ids(LIB, "fn f(x: f64) -> bool { 1.5 != x }\n").contains(&"float-eq"));
        assert!(
            rule_ids(LIB, "fn f(x: f64) -> bool { x == f64::INFINITY }\n").contains(&"float-eq")
        );
        assert!(!rule_ids(LIB, "fn f(x: u32) -> bool { x == 0 }\n").contains(&"float-eq"));
        assert!(
            !rule_ids(LIB, "fn f(x: f64) -> bool { x <= 0.0 }\n").contains(&"float-eq"),
            "ordered comparisons are the sanctioned restructure"
        );
    }

    #[test]
    fn unwrap_rule_covers_methods_and_panic_bang() {
        let src = "fn f(o: Option<u32>) -> u32 { o.unwrap() }\n";
        assert!(rule_ids(LIB, src).contains(&"unwrap-in-lib"));
        for mac in [
            "panic!(\"boom\")",
            "unreachable!()",
            "todo!()",
            "unimplemented!()",
        ] {
            let src = format!("fn f() {{ {mac}; }}\n");
            assert!(rule_ids(LIB, &src).contains(&"unwrap-in-lib"), "{mac}");
        }
        assert!(
            !rule_ids(LIB, "fn f(o: Option<u32>) -> u32 { o.unwrap_or(0) }\n")
                .contains(&"unwrap-in-lib"),
            "unwrap_or is fine"
        );
        let test_src = "#[cfg(test)]\nmod tests {\n    fn t() { Some(1).unwrap(); }\n}\n";
        assert!(!rule_ids(LIB, test_src).contains(&"unwrap-in-lib"));
        assert!(
            !rule_ids("tests/integration.rs", src).contains(&"unwrap-in-lib"),
            "integration tests are harness code"
        );
    }

    #[test]
    fn expect_needs_a_receiver() {
        // `expect` as a free identifier (e.g. a local named expect) is
        // not a method call.
        assert!(!rule_ids(LIB, "fn f() { let expect = 3; }\n").contains(&"unwrap-in-lib"));
    }

    /// A syntactically valid function whose `fn`-to-`}` span is
    /// exactly `lines` lines.
    fn fn_of_lines(lines: u32) -> String {
        let body: String = (0..lines - 2)
            .map(|i| format!("    let _x{i} = {i};\n"))
            .collect();
        format!("fn f() {{\n{body}}}\n")
    }

    #[test]
    fn long_functions_fire_past_the_line_budget() {
        assert!(!rule_ids(LIB, &fn_of_lines(120)).contains(&"long-function"));
        let hits = diags(LIB, &fn_of_lines(121));
        let d = hits
            .iter()
            .find(|d| d.rule == "long-function")
            .expect("121-line fn fires");
        assert_eq!(d.line, 1, "anchored at the fn keyword");
        assert!(d.message.contains("`f` spans 121 lines"), "{}", d.message);
    }

    #[test]
    fn long_function_skips_tests_and_bodiless_items() {
        let in_tests = format!("#[cfg(test)]\nmod tests {{\n{}}}\n", fn_of_lines(130));
        assert!(!rule_ids(LIB, &in_tests).contains(&"long-function"));
        let trait_decl = "trait T {\n    fn f(&self) -> u32;\n}\n";
        assert!(!rule_ids(LIB, trait_decl).contains(&"long-function"));
        let fn_ptr = "struct S {\n    hook: fn(&u32) -> bool,\n}\n";
        assert!(!rule_ids(LIB, fn_ptr).contains(&"long-function"));
    }

    #[test]
    fn long_function_respects_suppressions() {
        let src = format!(
            "// lint:allow(long-function) generated table\n{}",
            fn_of_lines(200)
        );
        assert!(!rule_ids(LIB, &src).contains(&"long-function"));
    }

    #[test]
    fn todo_markers_fire_in_comments_only() {
        assert!(rule_ids(LIB, "// T\u{4f}DO: finish this\nfn f() {}\n").contains(&"todo-marker"));
        assert!(!rule_ids(LIB, "fn f() { let s = \"T\u{4f}DO\"; }\n").contains(&"todo-marker"));
        assert!(
            !rule_ids(LIB, "// mastodon county\nfn f() {}\n").contains(&"todo-marker"),
            "word boundaries respected"
        );
    }

    #[test]
    fn suppressions_silence_exactly_the_named_rule() {
        let src =
            "fn f(x: f64) -> bool {\n    // lint:allow(float-eq) exact sentinel\n    x == 0.0\n}\n";
        assert!(!rule_ids(LIB, src).contains(&"float-eq"));
        let wrong = "fn f(x: f64) -> bool {\n    // lint:allow(unwrap-in-lib) wrong rule\n    x == 0.0\n}\n";
        assert!(rule_ids(LIB, wrong).contains(&"float-eq"));
    }

    #[test]
    fn diagnostics_carry_position_and_snippet() {
        let d = diags(LIB, "fn f(x: f64) -> bool {\n    x == 0.0\n}\n");
        let d = d.iter().find(|d| d.rule == "float-eq").expect("fires");
        assert_eq!(d.line, 2);
        assert_eq!(d.snippet, "x == 0.0");
    }

    #[test]
    fn strings_and_comments_never_fire_code_rules() {
        let src = "fn f() {\n    let s = \"x.unwrap() == 0.0 HashMap\";\n    // mentions Instant::now() in prose\n}\n";
        let hits = rule_ids(LIB, src);
        assert!(hits.is_empty(), "got {hits:?}");
    }
}
