//! Interprocedural nondeterminism-taint analysis.
//!
//! The sharded engine's byte-identity contract (see DESIGN.md) says a
//! fault-free N-worker run must be byte-identical to the sequential
//! run. Statically, that decomposes into taint **sources** (wall clock,
//! unseeded RNG, `HashMap`/`HashSet` iteration order, thread identity)
//! that must never flow into report-affecting **sinks**: anything
//! reachable from the event-loop roots in [`DETERMINISM_ROOTS`]. This
//! module builds the [`Analysis`] (symbols + call graph +
//! reachability), counts the reachable source sites for the audit, and
//! implements the one rule that needs reachability,
//! `shared-state-across-shards`: a mutable or interior-mutable static
//! in sim code referenced from a shard-reachable function.
//!
//! The other sources need no reachability, so lexical rules in
//! [`crate::rules`] flag them wherever they appear: any hash
//! collection (`nondeterministic-iteration`), wall-clock reads
//! (`wall-clock-in-model`), ad-hoc RNGs and stream derivations
//! (`unseeded-rng`, `rng-stream-discipline`), and every
//! unwrap/expect/panicking macro in library code (`unwrap-in-lib`).

use std::collections::BTreeMap;

use crate::callgraph::{CallGraph, Reach};
use crate::rules::RuleInfo;
use crate::source::SourceFile;
use crate::symbols::Symbols;
use crate::Diagnostic;

/// Event-loop roots: every function matching one of these specs is a
/// determinism sink, and everything reachable from them inherits that.
/// `engine::step` is the event loop's dispatch, `parallel::try_run_threads`
/// the entry point every unrecorded run takes (whose reach covers both
/// loops, the shard workers and the shard merge), `engine::report` the
/// report fold. The five
/// `policy::decide_*` specs are the adaptive control plane's decision
/// entry points: controllers run inside the event loop, so any taint in
/// a `Policy` impl breaks byte-identity exactly like taint in the
/// engine proper.
pub const DETERMINISM_ROOTS: &[&str] = &[
    "engine::step",
    "parallel::try_run_threads",
    "engine::report",
    "policy::decide_retry",
    "policy::decide_shed",
];

/// Files whose statics/streams are subject to the sharding rules.
fn in_shard_scope(path: &str) -> bool {
    path.starts_with("crates/core/src/sim/") || path.starts_with("crates/simkit/src/")
}

/// The workspace-level semantic analysis: parsed symbols, the call
/// graph, and reachability from [`DETERMINISM_ROOTS`].
#[derive(Debug)]
pub struct Analysis<'a> {
    /// The parsed workspace files (same order as symbol file indices).
    pub files: &'a [SourceFile],
    /// Symbol table over `files`.
    pub symbols: Symbols<'a>,
    /// Approximate call graph over the symbol table.
    pub graph: CallGraph,
    /// Root fn indices (sorted, deduped).
    pub roots: Vec<usize>,
    /// Reachability (with predecessor chains) from `roots`.
    pub reach: Reach,
}

/// Builds the [`Analysis`] for a set of parsed files.
pub fn analyze(files: &[SourceFile]) -> Analysis<'_> {
    let symbols = Symbols::build(files);
    let graph = CallGraph::build(&symbols);
    let mut roots: Vec<usize> = DETERMINISM_ROOTS
        .iter()
        .flat_map(|spec| symbols.resolve_root(spec))
        .collect();
    roots.sort_unstable();
    roots.dedup();
    let reach = graph.reach(&roots);
    Analysis {
        files,
        symbols,
        graph,
        roots,
        reach,
    }
}

impl Analysis<'_> {
    /// Total call-graph edges (for the audit artifact).
    pub fn edge_count(&self) -> usize {
        self.graph.edges.iter().map(Vec::len).sum()
    }

    /// Counts of taint-source *sites* inside reachable function bodies,
    /// keyed by source family — context for the audit artifact (the
    /// rule families enforce; these only measure).
    pub fn source_counts(&self) -> BTreeMap<&'static str, u64> {
        let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
        for family in ["wall-clock", "unseeded-rng", "hash-iteration", "thread-id"] {
            counts.insert(family, 0);
        }
        for (fi, f) in self.symbols.fns.iter().enumerate() {
            if !self.reach.contains(fi) {
                continue;
            }
            let file = &self.files[f.file];
            let text = |i: usize| file.code_text(i);
            for i in f.body.0..=f.body.1.min(file.code.len().saturating_sub(1)) {
                let family = match text(i) {
                    "Instant" | "SystemTime" if text(i + 1) == "::" && text(i + 2) == "now" => {
                        Some("wall-clock")
                    }
                    "thread_rng" | "from_entropy" => Some("unseeded-rng"),
                    "HashMap" | "HashSet" => Some("hash-iteration"),
                    "ThreadId" => Some("thread-id"),
                    "thread" if text(i + 1) == "::" && text(i + 2) == "current" => {
                        Some("thread-id")
                    }
                    _ => None,
                };
                if let Some(family) = family {
                    *counts.entry(family).or_default() += 1;
                }
            }
        }
        counts
    }
}

/// Emits a semantic diagnostic unless suppressed or in test code.
fn emit(
    rule: &RuleInfo,
    file: &SourceFile,
    line: u32,
    col: u32,
    message: String,
    out: &mut Vec<Diagnostic>,
) {
    if file.in_test_code(line) || file.allowed(rule.id, line) {
        return;
    }
    out.push(Diagnostic::new(rule, file, line, col, message));
}

/// Interior-mutability / shared-mutability type heads.
fn is_shared_mut_ty(ty: &str) -> bool {
    ty.split(' ').any(|t| {
        t.starts_with("Atomic")
            || matches!(
                t,
                "Mutex"
                    | "RwLock"
                    | "RefCell"
                    | "Cell"
                    | "UnsafeCell"
                    | "OnceLock"
                    | "OnceCell"
                    | "LazyLock"
            )
    })
}

/// `shared-state-across-shards`: a mutable (or interior-mutable) static
/// in sim/simkit code that a shard-reachable function touches is state
/// shared across shard workers — writes race and reads observe
/// scheduling order, both of which break byte-identity.
pub fn check_shared_state(rule: &RuleInfo, a: &Analysis, out: &mut Vec<Diagnostic>) {
    for st in &a.symbols.statics {
        let file = &a.files[st.file];
        if !in_shard_scope(&file.path) {
            continue;
        }
        if !st.mutable && !is_shared_mut_ty(&st.ty) {
            continue;
        }
        // Find the first reachable function whose body names the static
        // (symbol-table order = file order = deterministic).
        let user = a.symbols.fns.iter().enumerate().find(|(fi, f)| {
            a.reach.contains(*fi) && {
                let ff = &a.files[f.file];
                (f.body.0..=f.body.1.min(ff.code.len().saturating_sub(1)))
                    .any(|i| ff.code_text(i) == st.name)
            }
        });
        if let Some((fi, _)) = user {
            emit(
                rule,
                file,
                st.line,
                st.col,
                format!(
                    "shared mutable static `{}` is touched by shard-reachable `{}` ({})",
                    st.name,
                    a.symbols.fns[fi].name,
                    a.reach.chain(&a.symbols, fi),
                ),
                out,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both passes over `sources`, restricted to rule `id`.
    fn run_rule(id: &str, sources: &[(&str, &str)]) -> Vec<Diagnostic> {
        crate::lint_files(sources, Some(id))
    }

    const LOOP_HEADER: &str = "mod engine {\n    pub fn step(st: u32) { crate::touch(st); }\n}\n";

    #[test]
    fn roots_resolve_and_reach() {
        let files = vec![SourceFile::parse(
            "crates/core/src/sim/engine.rs",
            "pub fn step() { helper(); }\npub fn report() {}\nfn helper() {}\nfn dead() {}\n",
        )];
        let a = analyze(&files);
        assert_eq!(a.roots.len(), 2, "step and report");
        assert_eq!(a.reach.count(), 3, "roots plus helper, not dead");
        assert!(a.edge_count() >= 1);
    }

    #[test]
    fn shared_static_reachable_from_step_fires() {
        let src = format!(
            "{LOOP_HEADER}static HITS: AtomicU64 = AtomicU64::new(0);\npub fn touch(_x: u32) {{\n    HITS.fetch_add(1, Ordering::Relaxed);\n}}\n"
        );
        let out = run_rule(
            "shared-state-across-shards",
            &[("crates/core/src/sim/engine.rs", &src)],
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("HITS"));
        assert!(out[0].message.contains("step"));
    }

    #[test]
    fn immutable_or_unreachable_statics_are_fine() {
        // Plain immutable static: no interior mutability, no finding.
        let src = format!(
            "{LOOP_HEADER}static NAME: &str = \"sudc\";\npub fn touch(_x: u32) {{ let _ = NAME; }}\n"
        );
        assert!(run_rule(
            "shared-state-across-shards",
            &[("crates/core/src/sim/engine.rs", &src)]
        )
        .is_empty());
        // Interior-mutable but only touched by dead code.
        let src = "static HITS: AtomicU64 = AtomicU64::new(0);\nfn dead() { HITS.fetch_add(1, Ordering::Relaxed); }\n";
        assert!(run_rule(
            "shared-state-across-shards",
            &[("crates/core/src/sim/engine.rs", src)]
        )
        .is_empty());
    }

    #[test]
    fn stream_discipline_flags_dynamic_labels_and_constant_indices() {
        let src = "fn wire(rng: &RngFactory, label: &str, sat: u64) {\n    let _a = rng.stream(\"isl\", sat);\n    let _b = rng.stream(label, sat);\n    let _c = rng.stream(\"ingest\", 0);\n}\n";
        let out = run_rule(
            "rng-stream-discipline",
            &[("crates/core/src/sim/transport.rs", src)],
        );
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out[0].message.contains("string literal"));
        assert!(out[1].message.contains("bare constant"));
        // Outside sim/, no jurisdiction.
        assert!(run_rule(
            "rng-stream-discipline",
            &[("crates/workloads/src/apps.rs", src)]
        )
        .is_empty());
    }

    #[test]
    fn source_counts_only_cover_reachable_code() {
        let src = format!(
            "{LOOP_HEADER}pub fn touch(_x: u32) {{\n    let _t = Instant::now();\n    let _m: HashMap<u32, u32> = HashMap::new();\n}}\nfn dead() {{ let _ = Instant::now(); }}\n"
        );
        let files = vec![SourceFile::parse("crates/core/src/sim/engine.rs", &src)];
        let a = analyze(&files);
        let counts = a.source_counts();
        assert_eq!(counts["wall-clock"], 1, "dead code not counted");
        assert_eq!(counts["hash-iteration"], 2, "type + constructor mention");
        assert_eq!(counts["thread-id"], 0);
    }
}
