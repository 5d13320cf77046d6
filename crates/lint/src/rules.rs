//! The rule registry and the one walk that checks every rule.
//!
//! Every rule is a token-pattern matcher over a [`SourceFile`]; the
//! lexer guarantees matches inside strings and comments never fire.
//! `check_file` works out once per file which rules apply (each
//! rule's path scope and `--rule`), walks the file's code tokens once,
//! branching on a token's kind and then its bytes to the rule a token
//! can start a match for, and walks its comments once for
//! `todo-marker`. Rules respect inline suppressions
//! ([`SourceFile::allowed`]) and, where noted, skip `#[cfg(test)]` /
//! `#[test]` regions.

use crate::lexer::{Tok, TokKind};
use crate::source::SourceFile;
use crate::Diagnostic;

/// Static description of one lint rule.
#[derive(Debug)]
pub struct RuleInfo {
    /// Stable rule id, as used in `lint:allow(...)` and `--rule`.
    pub id: &'static str,
    /// One-line description of what the rule catches.
    pub summary: &'static str,
    /// How to fix a violation.
    pub hint: &'static str,
}

/// Every file the scan lints, test code included: a fold over a hash
/// collection needs a parameter, local or field declared with the
/// type, and that declaration is a flagged line.
const ITERATION: RuleInfo = RuleInfo {
    id: "nondeterministic-iteration",
    summary: "HashMap/HashSet in linted code (iteration order varies run to run)",
    hint: "use BTreeMap/BTreeSet, or collect and sort before iterating",
};

const WALL_CLOCK: RuleInfo = RuleInfo {
    id: "wall-clock-in-model",
    summary: "Instant::now/SystemTime::now outside the telemetry and simkit timing shims, \
              or a unix_ms() call in the flight-recorder path",
    hint: "model code and trace stamps must take time from the simulation clock \
           (derive unix_ms from t_s); route wall-clock measurement through \
           telemetry spans or simkit's scheduler probe",
};

const UNSEEDED_RNG: RuleInfo = RuleInfo {
    id: "unseeded-rng",
    summary: "RNG constructed outside simkit::rng::RngFactory streams",
    hint: "derive per-entity streams with RngFactory::stream(label, index) so draws \
           replay under the run seed",
};

/// Every `.stream(label, index)` derivation in `sim/` must use a
/// string-literal label (auditable stream namespace) and an index
/// derived from an entity identifier — a bare constant index is one
/// stream reused across entities, which the sharded run then draws from
/// in nondeterministic interleaving.
const STREAM: RuleInfo = RuleInfo {
    id: "rng-stream-discipline",
    summary: "RngFactory::stream call in sim code with a dynamic label or a constant \
              (entity-independent) index",
    hint: "use a string-literal stream label and derive the index from the entity \
           (sat/link/tenant) id so shards never share a stream",
};

const FLOAT_EQ: RuleInfo = RuleInfo {
    id: "float-eq",
    summary: "`==`/`!=` against a float literal",
    hint: "compare with an explicit epsilon, or restructure the guard \
           (e.g. `x <= 0.0` for a non-negative quantity)",
};

const UNWRAP: RuleInfo = RuleInfo {
    id: "unwrap-in-lib",
    summary: "unwrap()/expect()/panic!/unreachable!/todo!/unimplemented! in non-test \
              library code",
    hint: "return Result with a contextual error (see the CellError pattern in \
           sudc::experiments), or restructure so the failure case cannot occur",
};

const LONG_FN: RuleInfo = RuleInfo {
    id: "long-function",
    summary: "function spans more than 120 lines",
    hint: "extract helpers or split the function along its phases (see the sim \
           engine's topology/transport/service layering)",
};

const TODO_MARKER: RuleInfo = RuleInfo {
    id: "todo-marker",
    summary: "to-do/fix-me marker left in a comment",
    hint: "resolve the marker or file it as a tracked issue",
};

/// In the code shard workers run, a static they would all share
/// (module-level, fn-local or inside `thread_local!`) makes writes race
/// and reads observe scheduling order, and thread identity differs from
/// worker to worker; either breaks byte-identity across thread counts.
const SHARED_STATE: RuleInfo = RuleInfo {
    id: "shared-state-across-shards",
    summary: "`static mut`, a static of an interior-mutable type, or thread identity \
              (`ThreadId`, `thread::current`) in non-test sim or simkit code",
    hint: "move the state into per-shard State fields and merge it in the \
           absorb pass (see sim::parallel); derive per-shard values from the \
           shard index, never from the worker thread",
};

/// All rules, in presentation order.
pub static RULES: &[RuleInfo] = &[
    ITERATION,
    WALL_CLOCK,
    UNSEEDED_RNG,
    STREAM,
    FLOAT_EQ,
    UNWRAP,
    LONG_FN,
    TODO_MARKER,
    SHARED_STATE,
];

/// Looks a rule up by id.
pub fn rule_by_id(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// The flight recorder's source, which sits in the telemetry crate but
/// is no timing shim.
const TRACE_PATH: &str = "crates/telemetry/src/trace.rs";

/// The sim engine's sources.
const SIM_PATH: &str = "crates/core/src/sim/";

/// Library code proper: `crates/*/src/**` (integration tests, examples,
/// and benches are harness code).
fn is_lib_code(path: &str) -> bool {
    path.starts_with("crates/") && path.contains("/src/") && !path.contains("/benches/")
}

/// The rules that apply to one file, from its path and `--rule`.
#[derive(Clone, Copy)]
struct Scope {
    iteration: bool,
    /// `Instant::now`/`SystemTime::now`: everywhere but the timing shims.
    wall_clock: bool,
    /// `wall-clock-in-model`'s `unix_ms()` clause: the flight-recorder
    /// path, whose records must be stamped in sim time so double runs
    /// byte-diff clean.
    unix_ms: bool,
    unseeded_rng: bool,
    stream: bool,
    float_eq: bool,
    unwrap: bool,
    long_fn: bool,
    todo_marker: bool,
    /// The sim engine and simkit, which hold the shards' state.
    shared_state: bool,
}

impl Scope {
    fn of(path: &str, only: Option<&str>) -> Scope {
        let on = |rule: &RuleInfo| only.is_none_or(|id| id == rule.id);
        let lib = is_lib_code(path);
        let simkit = path.starts_with("crates/simkit/");
        let shim = simkit || (path.starts_with("crates/telemetry/") && path != TRACE_PATH);
        let wall_clock = on(&WALL_CLOCK) && !shim;
        let sim = path.starts_with(SIM_PATH);
        Scope {
            iteration: on(&ITERATION),
            wall_clock,
            unix_ms: wall_clock && (sim || path == TRACE_PATH),
            unseeded_rng: on(&UNSEEDED_RNG) && !simkit,
            stream: on(&STREAM) && sim,
            float_eq: on(&FLOAT_EQ) && lib,
            unwrap: on(&UNWRAP) && lib,
            long_fn: on(&LONG_FN) && lib,
            todo_marker: on(&TODO_MARKER),
            shared_state: on(&SHARED_STATE) && (sim || path.starts_with("crates/simkit/src/")),
        }
    }
}

/// Checks every rule (or only `only`) over one file: one walk over its
/// code tokens, then one over its comments. Findings come in token
/// order, unsorted.
pub(crate) fn check_file(file: &SourceFile, only: Option<&str>) -> Vec<Diagnostic> {
    let mut walk = Walk {
        file,
        code: file.code(),
        on: Scope::of(&file.path, only),
        out: Vec::new(),
        last_map_line: 0,
        pending_bodies: Vec::new(),
        open_bodies: Vec::new(),
        depth: 0,
    };
    for (i, t) in file.code().iter().enumerate() {
        match t.kind {
            TokKind::Ident => walk.ident(i, t),
            TokKind::Punct => walk.punct(i, t),
            _ => {}
        }
    }
    if walk.on.todo_marker {
        for t in file.comments() {
            if let Some(marker) = todo_marker(file.text(t)) {
                walk.emit(&TODO_MARKER, t, format!("`{marker}` marker in a comment"));
            }
        }
    }
    walk.out
}

/// Lines a function may span (`fn` keyword through closing brace)
/// before `long-function` fires.
const MAX_FN_LINES: u32 = 120;

/// `f32`/`f64` and the constants whose paths count as float literals.
const FLOAT_TYPES: &[&[u8]] = &[b"f32", b"f64"];
const FLOAT_CONSTS: &[&[u8]] = &[b"NAN", b"INFINITY", b"NEG_INFINITY", b"EPSILON"];

/// One file's walk: the rules in scope, the findings so far, and the
/// state the walk carries from token to token.
struct Walk<'f> {
    file: &'f SourceFile,
    code: &'f [Tok],
    on: Scope,
    out: Vec<Diagnostic>,
    /// Line of the last `nondeterministic-iteration` finding: a
    /// declaration usually names the type several times
    /// (`let m: HashMap<..> = HashMap::new()`), and it is one finding.
    last_map_line: u32,
    /// `long-function`: bodies not reached yet, as (code index of the
    /// body's `{`, code index of its `fn`).
    pending_bodies: Vec<(usize, usize)>,
    /// Bodies being walked, innermost last, as (brace depth outside the
    /// body, code index of its `fn`).
    open_bodies: Vec<(i32, usize)>,
    /// `{` minus `}` seen so far.
    depth: i32,
}

impl<'f> Walk<'f> {
    /// Reports `rule` at `tok` unless a `lint:allow` covers its line.
    fn emit(&mut self, rule: &RuleInfo, tok: &Tok, message: String) {
        if !self.file.allowed(rule.id, tok.line) {
            self.out
                .push(Diagnostic::new(rule, self.file, tok.line, tok.col, message));
        }
    }

    /// [`Walk::emit`] for a rule that skips test code.
    fn emit_outside_tests(&mut self, rule: &RuleInfo, tok: &Tok, message: impl FnOnce() -> String) {
        if !self.file.in_test_code(tok.line) {
            self.emit(rule, tok, message());
        }
    }

    /// Whether code token `i` is of `kind`.
    fn kind_at(&self, i: usize, kind: TokKind) -> bool {
        self.code.get(i).is_some_and(|t| t.kind == kind)
    }

    /// The bytes of code token `i` (empty past the end).
    fn bytes_at(&self, i: usize) -> &'f [u8] {
        let file = self.file;
        self.code.get(i).map_or(&[], |t| file.bytes(t))
    }

    /// Whether code token `i` is the punctuation `s`.
    fn punct_at(&self, i: usize, s: &[u8]) -> bool {
        self.kind_at(i, TokKind::Punct) && self.bytes_at(i) == s
    }

    /// Whether code token `i` is one of the identifiers `names`.
    fn ident_at(&self, i: usize, names: &[&[u8]]) -> bool {
        self.kind_at(i, TokKind::Ident) && names.contains(&self.bytes_at(i))
    }

    /// Whether the receiver at code token `i`, already matched, goes on
    /// `::` and one of `members`.
    fn path_to(&self, i: usize, members: &[&[u8]]) -> bool {
        self.punct_at(i + 1, b"::") && self.ident_at(i + 2, members)
    }

    /// Dispatches an identifier to the rule it can start a match for.
    fn ident(&mut self, i: usize, t: &Tok) {
        let (on, file) = (self.on, self.file);
        let text = || file.text(t);
        match file.bytes(t) {
            b"HashMap" | b"HashSet" if on.iteration && t.line != self.last_map_line => {
                self.last_map_line = t.line;
                let message = format!("`{}`: iteration order varies run to run", text());
                self.emit(&ITERATION, t, message);
            }
            b"Instant" | b"SystemTime" if on.wall_clock && self.path_to(i, &[b"now"]) => {
                self.emit_outside_tests(&WALL_CLOCK, t, || {
                    format!(
                        "`{}::now()` outside the telemetry/simkit timing shims",
                        text()
                    )
                });
            }
            // On the recorder path, `unix_ms(` as a call: a bare
            // `unix_ms` field write stays legal (a sim-time stamp
            // derived from `t_s` may carry the name).
            b"unix_ms" if on.unix_ms && self.punct_at(i + 1, b"(") => {
                self.emit_outside_tests(&WALL_CLOCK, t, || {
                    "`unix_ms()`: wall-clock source in the flight-recorder path".to_string()
                });
            }
            name @ (b"thread_rng" | b"from_entropy" | b"Rng64")
                if on.unseeded_rng
                    && (name != b"Rng64" || self.path_to(i, &[b"seed_from_u64"])) =>
            {
                self.emit_outside_tests(&UNSEEDED_RNG, t, || {
                    format!("`{}`: RNG constructed outside RngFactory streams", text())
                });
            }
            b"stream" if on.stream && i > 0 && self.punct_at(i - 1, b".") => {
                self.stream_call(i, t);
            }
            // `.unwrap()` / `.expect(` as method calls only.
            b"unwrap" | b"expect"
                if on.unwrap
                    && i > 0
                    && self.punct_at(i - 1, b".")
                    && self.punct_at(i + 1, b"(") =>
            {
                self.emit_outside_tests(&UNWRAP, t, || {
                    format!("`.{}()` in non-test library code", text())
                });
            }
            b"panic" | b"unreachable" | b"todo" | b"unimplemented"
                if on.unwrap && self.punct_at(i + 1, b"!") =>
            {
                self.emit_outside_tests(&UNWRAP, t, || {
                    format!("`{}!` in non-test library code", text())
                });
            }
            b"fn" if on.long_fn && !file.in_test_code(t.line) => {
                if let Some(start) = self.fn_body_start(i + 1) {
                    self.pending_bodies.push((start, i));
                }
            }
            b"static" if on.shared_state => {
                if let Some(item) = self.shared_static(i) {
                    self.emit_outside_tests(&SHARED_STATE, t, || {
                        format!("{item}: state shared by every shard worker")
                    });
                }
            }
            b"ThreadId" if on.shared_state => {
                self.emit_outside_tests(&SHARED_STATE, t, || {
                    "`ThreadId`: thread identity differs between shard workers".to_string()
                });
            }
            b"thread" if on.shared_state && self.path_to(i, &[b"current"]) => {
                self.emit_outside_tests(&SHARED_STATE, t, || {
                    "`thread::current()`: thread identity differs between shard workers".to_string()
                });
            }
            _ => {}
        }
    }

    /// Dispatches punctuation: float comparisons, and the braces that
    /// open and close function bodies.
    fn punct(&mut self, i: usize, t: &Tok) {
        let (on, file) = (self.on, self.file);
        match file.bytes(t) {
            b"==" | b"!=" if on.float_eq && (self.floaty_at(i + 1) || self.floaty_before(i)) => {
                self.emit_outside_tests(&FLOAT_EQ, t, || {
                    format!("`{}` against a float literal", file.text(t))
                });
            }
            b"{" if on.long_fn => {
                if !self.pending_bodies.is_empty() {
                    let (depth, open) = (self.depth, &mut self.open_bodies);
                    self.pending_bodies.retain(|&(start, f)| {
                        let reached = start == i;
                        if reached {
                            open.push((depth, f));
                        }
                        !reached
                    });
                }
                self.depth += 1;
            }
            b"}" if on.long_fn => {
                self.depth -= 1;
                while let Some(&(depth, f)) = self.open_bodies.last() {
                    if depth != self.depth {
                        break;
                    }
                    self.open_bodies.pop();
                    self.long_function(f, t.line);
                }
            }
            _ => {}
        }
    }

    /// `rng-stream-discipline` at a `stream` identifier (code token
    /// `i`) that follows a `.`.
    fn stream_call(&mut self, i: usize, site: &Tok) {
        if !self.punct_at(i + 1, b"(") || self.file.in_test_code(site.line) {
            return;
        }
        // Walk the argument list: first arg to the top-level comma,
        // second to the matching close.
        let mut depth = 0i32;
        let mut comma = None;
        let mut close = None;
        for j in i + 1..self.code.len() {
            match self.bytes_at(j) {
                b"(" | b"[" | b"{" => depth += 1,
                b")" | b"]" | b"}" => {
                    depth -= 1;
                    if depth == 0 {
                        close = Some(j);
                        break;
                    }
                }
                b"," if depth == 1 && comma.is_none() => comma = Some(j),
                _ => {}
            }
        }
        let (Some(comma), Some(close)) = (comma, close) else {
            return; // not a two-argument call — not a stream derivation
        };
        let literal_label = comma == i + 3 && self.kind_at(i + 2, TokKind::Str);
        // `as` and the cast type after it name no entity: `0 as u64` is
        // a constant index.
        let entity_index = (comma + 1..close).any(|k| {
            self.kind_at(k, TokKind::Ident)
                && self.bytes_at(k) != b"as"
                && self.bytes_at(k - 1) != b"as"
        });
        if !literal_label {
            self.emit(
                &STREAM,
                site,
                "stream label must be a single string literal so the stream \
                 namespace is statically auditable"
                    .to_string(),
            );
        }
        if !entity_index {
            self.emit(
                &STREAM,
                site,
                "stream index is a bare constant — derive it from the entity \
                 index so parallel shards never share a stream"
                    .to_string(),
            );
        }
    }

    /// Whether a float literal, or an `f64::NAN`-style constant path,
    /// starts at code token `i`, after an optional unary `-`.
    fn floaty_at(&self, mut i: usize) -> bool {
        if self.punct_at(i, b"-") {
            i += 1;
        }
        self.kind_at(i, TokKind::Float)
            || (self.ident_at(i, FLOAT_TYPES) && self.path_to(i, FLOAT_CONSTS))
    }

    /// Like [`Walk::floaty_at`] but looking backwards from the operator
    /// at `op`: the token before it is either a float literal or the
    /// constant at the end of an `f64::NAN` path.
    fn floaty_before(&self, op: usize) -> bool {
        if op == 0 {
            return false;
        }
        self.code[op - 1].kind == TokKind::Float
            || (op >= 3 && self.ident_at(op - 3, FLOAT_TYPES) && self.path_to(op - 3, FLOAT_CONSTS))
    }

    /// Finds the code index of a function body's opening `{`, scanning
    /// forward from the token after `fn`. Returns `None` for bodiless
    /// items: trait method declarations (`;`) and `fn(...)` pointer
    /// types (ended by `,`, `}`, or an enclosing closing bracket).
    fn fn_body_start(&self, mut j: usize) -> Option<usize> {
        let mut depth = 0i32;
        loop {
            let t = self.code.get(j)?;
            if t.kind == TokKind::Punct {
                match self.file.bytes(t) {
                    b"(" | b"[" => depth += 1,
                    b")" | b"]" => {
                        depth -= 1;
                        if depth < 0 {
                            return None;
                        }
                    }
                    b"{" if depth == 0 => return Some(j),
                    b";" | b"," | b"}" if depth == 0 => return None,
                    _ => {}
                }
            }
            j += 1;
        }
    }

    /// `long-function` for the `fn` at code index `f`, whose body's
    /// closing brace sits on `end_line`.
    fn long_function(&mut self, f: usize, end_line: u32) {
        let t = &self.code[f];
        let lines = end_line.saturating_sub(t.line) + 1;
        if lines <= MAX_FN_LINES {
            return;
        }
        let name = self
            .code
            .get(f + 1)
            .filter(|n| n.kind == TokKind::Ident)
            .map_or("<fn>", |n| self.file.text(n));
        let message = format!("`{name}` spans {lines} lines (max {MAX_FN_LINES})");
        self.emit(&LONG_FN, t, message);
    }

    /// Describes the `static` item whose keyword is code token `i` when
    /// shard workers would share its state: a `static mut`, or a
    /// `static NAME: Type` whose type names an interior-mutable head.
    fn shared_static(&self, i: usize) -> Option<String> {
        let text = |j: usize| self.code.get(j).map_or("", |t| self.file.text(t));
        if self.bytes_at(i + 1) == b"mut" {
            return Some(format!("`static mut {}`", text(i + 2)));
        }
        if !self.kind_at(i + 1, TokKind::Ident) || self.bytes_at(i + 2) != b":" {
            return None;
        }
        // The type runs to the `=` or `;` at bracket depth 0.
        let mut depth = 0i32;
        for j in i + 3..self.code.len() {
            match self.bytes_at(j) {
                b"(" | b"[" | b"{" | b"<" => depth += 1,
                b")" | b"]" | b"}" | b">" => depth -= 1,
                b"=" | b";" if depth == 0 => break,
                head if is_shared_mut_ty(head) => {
                    return Some(format!(
                        "static `{}` has interior-mutable `{}` in its type",
                        text(i + 1),
                        text(j)
                    ));
                }
                _ => {}
            }
        }
        None
    }
}

/// Interior-mutability / shared-mutability type heads.
fn is_shared_mut_ty(head: &[u8]) -> bool {
    head.starts_with(b"Atomic")
        || matches!(
            head,
            b"Mutex"
                | b"RwLock"
                | b"RefCell"
                | b"Cell"
                | b"UnsafeCell"
                | b"OnceLock"
                | b"OnceCell"
                | b"LazyLock"
        )
}

/// The to-do markers, each starting with a different letter.
const MARKERS: [&str; 4] = ["TODO", "FIXME", "XXX", "HACK"];

/// The first of [`MARKERS`], in list order, that `comment` holds as a
/// case-sensitive whole word (neighbors not alphanumeric or `_`), read
/// in one scan.
fn todo_marker(comment: &str) -> Option<&'static str> {
    let bytes = comment.as_bytes();
    let mut best: Option<usize> = None;
    for (at, &b) in bytes.iter().enumerate() {
        let k = match b {
            b'T' => 0,
            b'F' => 1,
            b'X' => 2,
            b'H' => 3,
            _ => continue,
        };
        if best.is_some_and(|found| found <= k) || !bytes[at..].starts_with(MARKERS[k].as_bytes()) {
            continue;
        }
        let end = at + MARKERS[k].len();
        let boundary = |c: Option<char>| c.is_none_or(|c| !c.is_alphanumeric() && c != '_');
        if boundary(comment[..at].chars().next_back()) && boundary(comment[end..].chars().next()) {
            best = Some(k);
            if k == 0 {
                break;
            }
        }
    }
    best.map(|k| MARKERS[k])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diags(path: &str, src: &str) -> Vec<Diagnostic> {
        check_file(&SourceFile::parse(path, src), None)
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
        let src = "fn wire(rng: &RngFactory, label: &str, sat: u64) {\n    let _a = rng.stream(\"isl\", sat);\n    let _b = rng.stream(label, sat);\n    let _c = rng.stream(\"ingest\", 0);\n    let _d = rng.stream(\"cast\", 0 as u64);\n    let _e = rng.stream(\"shift\", (sat as u64) << 32);\n}\n";
        let out: Vec<Diagnostic> = diags("crates/core/src/sim/transport.rs", src)
            .into_iter()
            .filter(|d| d.rule == "rng-stream-discipline")
            .collect();
        assert_eq!(out.len(), 3, "{out:?}");
        assert!(out[0].message.contains("string literal"));
        assert!(out[1].message.contains("bare constant"));
        assert_eq!(out[2].line, 5, "`0 as u64` is a constant");
        assert!(out[2].message.contains("bare constant"));
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
        assert!(rule_ids(LIB, "fn f(x: f64) -> bool { x == -0.5 }\n").contains(&"float-eq"));
        assert!(!rule_ids(LIB, "fn f(x: i32) -> bool { x == -1 }\n").contains(&"float-eq"));
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
