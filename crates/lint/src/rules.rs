//! The rule registry and the individual determinism rules.
//!
//! Every rule is a token-pattern matcher over a [`SourceFile`]; the
//! lexer guarantees matches inside strings and comments never fire.
//! Rules respect inline suppressions ([`SourceFile::allowed`]) and,
//! where noted, skip `#[cfg(test)]` / `#[test]` regions.

use crate::lexer::{Tok, TokKind};
use crate::source::SourceFile;
use crate::taint::{self, Analysis};
use crate::{Diagnostic, Severity};

/// How a rule runs: per-file over tokens, or per-workspace over the
/// semantic [`Analysis`] (symbols, call graph, reachability).
pub enum Check {
    /// Lexical rule: one file at a time.
    File(fn(&RuleInfo, &SourceFile, &mut Vec<Diagnostic>)),
    /// Semantic rule: the whole workspace at once.
    Workspace(fn(&RuleInfo, &Analysis, &mut Vec<Diagnostic>)),
}

/// Static description of one lint rule.
pub struct RuleInfo {
    /// Stable rule id, as used in `lint:allow(...)` and `--rule`.
    pub id: &'static str,
    /// Severity class (presentation only — any finding fails the
    /// lint).
    pub severity: Severity,
    /// One-line description of what the rule catches.
    pub summary: &'static str,
    /// How to fix a violation.
    pub hint: &'static str,
    check: Check,
}

impl std::fmt::Debug for RuleInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuleInfo").field("id", &self.id).finish()
    }
}

impl RuleInfo {
    /// Runs a per-file rule over one file, appending diagnostics.
    /// No-op for workspace (semantic) rules.
    pub fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        if let Check::File(f) = self.check {
            f(self, file, out);
        }
    }

    /// Runs a workspace rule over the semantic analysis, appending
    /// diagnostics. No-op for per-file rules.
    pub fn check_workspace(&self, analysis: &Analysis, out: &mut Vec<Diagnostic>) {
        if let Check::Workspace(f) = self.check {
            f(self, analysis, out);
        }
    }

    /// Whether this rule needs the workspace [`Analysis`].
    pub fn is_semantic(&self) -> bool {
        matches!(self.check, Check::Workspace(_))
    }
}

/// All rules, in presentation order.
pub static RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "nondeterministic-iteration",
        severity: Severity::Deny,
        summary: "HashMap/HashSet in a sim/result/sweep path (iteration order varies run to run)",
        hint: "use BTreeMap/BTreeSet, or collect and sort before iterating",
        check: Check::File(check_nondeterministic_iteration),
    },
    RuleInfo {
        id: "wall-clock-in-model",
        severity: Severity::Deny,
        summary: "Instant::now/SystemTime::now outside the telemetry and simkit timing shims",
        hint: "model code must take time from the simulation clock; route wall-clock \
               measurement through telemetry spans or simkit's scheduler probe",
        check: Check::File(check_wall_clock),
    },
    RuleInfo {
        id: "wall-clock-in-trace",
        severity: Severity::Deny,
        summary: "wall-clock source (unix_ms()/Instant::now/SystemTime::now) inside the \
                  flight-recorder path",
        hint: "trace timestamps must be sim-time: stamp events from the scheduler clock \
               (t_s) and derive unix_ms as a pure function of it",
        check: Check::File(check_wall_clock_in_trace),
    },
    RuleInfo {
        id: "unseeded-rng",
        severity: Severity::Deny,
        summary: "RNG constructed outside simkit::rng::RngFactory streams",
        hint: "derive per-entity streams with RngFactory::stream(label, index) so draws \
               replay under the run seed",
        check: Check::File(check_unseeded_rng),
    },
    RuleInfo {
        id: "float-eq",
        severity: Severity::Deny,
        summary: "`==`/`!=` against a float literal",
        hint: "compare with an explicit epsilon, or restructure the guard \
               (e.g. `x <= 0.0` for a non-negative quantity)",
        check: Check::File(check_float_eq),
    },
    RuleInfo {
        id: "unwrap-in-lib",
        severity: Severity::Deny,
        summary: "unwrap()/expect()/panic!/unreachable!/todo!/unimplemented! in non-test \
                  library code",
        hint: "return Result with a contextual error (see the CellError pattern in \
               sudc::experiments), or restructure so the failure case cannot occur",
        check: Check::File(check_unwrap_in_lib),
    },
    RuleInfo {
        id: "long-function",
        severity: Severity::Warn,
        summary: "function spans more than 120 lines",
        hint: "extract helpers or split the function along its phases (see the sim \
               engine's topology/transport/service layering)",
        check: Check::File(check_long_function),
    },
    RuleInfo {
        id: "todo-marker",
        severity: Severity::Warn,
        summary: "to-do/fix-me marker left in a comment",
        hint: "resolve the marker or file it as a tracked issue",
        check: Check::File(check_todo_marker),
    },
    RuleInfo {
        id: "shared-state-across-shards",
        severity: Severity::Deny,
        summary: "mutable/interior-mutable static in sim code touched by shard-reachable \
                  functions",
        hint: "move the state into per-shard State fields and merge it in the \
               absorb pass (see sim::parallel)",
        check: Check::Workspace(taint::check_shared_state),
    },
    RuleInfo {
        id: "rng-stream-discipline",
        severity: Severity::Deny,
        summary: "RngFactory::stream call with a dynamic label or a constant (entity-\
                  independent) index",
        hint: "use a string-literal stream label and derive the index from the entity \
               (sat/link/tenant) id so shards never share a stream",
        check: Check::Workspace(taint::check_rng_stream_discipline),
    },
    RuleInfo {
        id: "float-merge-order",
        severity: Severity::Deny,
        summary: "order-sensitive accumulation (+=/sum/fold) over a HashMap/HashSet in \
                  merge-reachable code",
        hint: "iterate a BTreeMap or sort keys first",
        check: Check::Workspace(taint::check_float_merge_order),
    },
];

/// Looks a rule up by id.
pub fn rule_by_id(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// Paths whose iteration order feeds simulation results, sweep rows, or
/// report artifacts.
fn in_sim_result_path(path: &str) -> bool {
    [
        "crates/core/",
        "crates/simkit/",
        "crates/explore/",
        "crates/bench/",
    ]
    .iter()
    .any(|p| path.starts_with(p))
        || path.starts_with("tests/")
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

fn check_nondeterministic_iteration(rule: &RuleInfo, file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !in_sim_result_path(&file.path) {
        return;
    }
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
                format!("`{text}` in a sim/result/sweep path"),
                out,
            );
        }
    }
}

fn check_wall_clock(rule: &RuleInfo, file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if file.path.starts_with("crates/telemetry/") || file.path.starts_with("crates/simkit/") {
        return;
    }
    for i in 0..file.code.len() {
        if !path_seq(file, i, &["Instant", "SystemTime"], &["now"]) {
            continue;
        }
        let Some(t) = file.code_tok(i) else { continue };
        if file.in_test_code(t.line) {
            continue;
        }
        emit(
            rule,
            file,
            t,
            format!(
                "`{}::now()` outside the telemetry/simkit timing shims",
                file.text(t)
            ),
            out,
        );
    }
}

/// The flight-recorder path: everything recorded there must be
/// timestamped in sim-time so double runs byte-diff clean.
fn in_trace_path(path: &str) -> bool {
    path.starts_with("crates/core/src/sim/") || path == "crates/telemetry/src/trace.rs"
}

fn check_wall_clock_in_trace(rule: &RuleInfo, file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !in_trace_path(&file.path) {
        return;
    }
    let punct = |i: usize, s: &str| {
        file.code_tok(i)
            .is_some_and(|t| t.kind == TokKind::Punct && file.text(t) == s)
    };
    for i in 0..file.code.len() {
        let Some(t) = file.code_tok(i) else { break };
        // `unix_ms(` as a call — a bare `unix_ms` field write stays
        // legal (TraceEvent::to_event derives it from sim-time).
        let hit = (t.kind == TokKind::Ident && file.text(t) == "unix_ms" && punct(i + 1, "("))
            || path_seq(file, i, &["Instant", "SystemTime"], &["now"]);
        if !hit || file.in_test_code(t.line) {
            continue;
        }
        emit(
            rule,
            file,
            t,
            format!(
                "`{}`: wall-clock source in the flight-recorder path",
                file.text(t)
            ),
            out,
        );
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
    let punct = |i: usize, s: &str| {
        file.code_tok(i)
            .is_some_and(|t| t.kind == TokKind::Punct && file.text(t) == s)
    };
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
        let hits = rule_ids(LIB, src);
        assert_eq!(
            hits.iter()
                .filter(|r| **r == "nondeterministic-iteration")
                .count(),
            2,
            "one per line: {hits:?}"
        );
        assert!(
            !rule_ids("crates/compress/src/lzw.rs", src).contains(&"nondeterministic-iteration"),
            "lookup-only crates are out of scope"
        );
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
        assert!(rule_ids(SIM, call).contains(&"wall-clock-in-trace"));
        assert!(rule_ids(TRACE, call).contains(&"wall-clock-in-trace"));
        assert!(
            !rule_ids(LIB, call).contains(&"wall-clock-in-trace"),
            "model code outside the recorder path is wall-clock-in-model's business"
        );
        let now = "fn f() { let t = Instant::now(); }\n";
        assert!(rule_ids(SIM, now).contains(&"wall-clock-in-trace"));
        assert!(
            rule_ids(TRACE, now).contains(&"wall-clock-in-trace"),
            "the telemetry shim exemption does not extend to trace.rs"
        );
    }

    #[test]
    fn trace_wall_clock_allows_field_writes_and_test_code() {
        const TRACE: &str = "crates/telemetry/src/trace.rs";
        let field = "fn f(t_s: f64) -> Event { Event { unix_ms: (t_s * 1e3) as u64 } }\n";
        assert!(
            !rule_ids(TRACE, field).contains(&"wall-clock-in-trace"),
            "a struct-literal field named unix_ms is the sanctioned sim-time derivation"
        );
        let test_src = "#[test]\nfn t() { let _ = unix_ms(); }\n";
        assert!(!rule_ids(TRACE, test_src).contains(&"wall-clock-in-trace"));
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
