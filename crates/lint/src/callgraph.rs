//! Approximate workspace call graph and reachability.
//!
//! Resolution is deliberately over-approximate — the taint rules must
//! not miss a path to the event loop because resolution was too clever:
//!
//! * a qualified call `a::b::f(...)` resolves to every workspace fn
//!   whose qualified path **ends with** those segments (so `engine::step`
//!   finds `sim::engine::step` but not `serve::step`); paths that match
//!   nothing are assumed external (`Vec::new`) and dropped;
//! * a method call `recv.f(...)` resolves to every workspace *method*
//!   (fn with a `self` receiver) of that name, and a bare call `f(...)`
//!   to every free fn of that name;
//! * a call from non-test code never resolves into test code (an
//!   integration-test file, or a `#[test]` / `#[cfg(test)]` item): no
//!   build links the two, so such a name match is always spurious.
//!
//! Edges and BFS order are fully deterministic (sorted, deduped), which
//! keeps diagnostic output byte-stable across runs.

use std::collections::VecDeque;

use crate::symbols::Symbols;

/// Call graph over [`Symbols::fns`] indices.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// `edges[caller]` = sorted, deduped callee indices.
    pub edges: Vec<Vec<usize>>,
}

/// Reachability result from a set of roots.
#[derive(Debug, Default)]
pub struct Reach {
    /// `via[f]` = predecessor of `f` on a shortest path from a root;
    /// `None` when unreachable, `Some(f)` (self) when `f` is a root.
    pub via: Vec<Option<usize>>,
}

impl CallGraph {
    /// Builds the graph from every call site in the symbol table.
    pub fn build(sym: &Symbols) -> Self {
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); sym.fns.len()];
        for (caller, f) in sym.fns.iter().enumerate() {
            let from_test = sym.test_code[caller];
            for call in &f.calls {
                let Some(candidates) = call.segments.last().and_then(|n| sym.by_name.get(n)) else {
                    continue;
                };
                let candidates = candidates
                    .iter()
                    .filter(|&&c| from_test || !sym.test_code[c]);
                if call.segments.len() > 1 {
                    // Qualified: require the path to suffix-match.
                    for &c in candidates {
                        let qual = &sym.fns[c].qual;
                        if qual.len() >= call.segments.len()
                            && qual[qual.len() - call.segments.len()..] == call.segments[..]
                        {
                            edges[caller].push(c);
                        }
                    }
                } else {
                    // Method calls resolve to methods, bare calls to
                    // free fns — cuts by-name noise without losing the
                    // over-approximation guarantee for either form.
                    for &c in candidates {
                        if sym.fns[c].receiver == call.method {
                            edges[caller].push(c);
                        }
                    }
                }
            }
        }
        for e in &mut edges {
            e.sort_unstable();
            e.dedup();
        }
        CallGraph { edges }
    }

    /// BFS from `roots`, recording a deterministic predecessor per
    /// reached function (roots point at themselves).
    pub fn reach(&self, roots: &[usize]) -> Reach {
        let mut via = vec![None; self.edges.len()];
        let mut queue = VecDeque::new();
        for &r in roots {
            if via[r].is_none() {
                via[r] = Some(r);
                queue.push_back(r);
            }
        }
        while let Some(f) = queue.pop_front() {
            for &callee in &self.edges[f] {
                if via[callee].is_none() {
                    via[callee] = Some(f);
                    queue.push_back(callee);
                }
            }
        }
        Reach { via }
    }
}

impl Reach {
    /// Whether `f` is reachable from any root.
    pub fn contains(&self, f: usize) -> bool {
        self.via.get(f).copied().flatten().is_some()
    }

    /// Number of reachable functions.
    pub fn count(&self) -> usize {
        self.via.iter().filter(|v| v.is_some()).count()
    }

    /// The call chain root → … → `f` as function names, e.g.
    /// `"try_run_threads → run_sharded → step"`. Long chains keep both
    /// ends and elide the middle.
    pub fn chain(&self, sym: &Symbols, f: usize) -> String {
        let mut rev = vec![f];
        let mut cur = f;
        while let Some(prev) = self.via[cur] {
            if prev == cur {
                break;
            }
            rev.push(prev);
            cur = prev;
        }
        rev.reverse();
        let name = |i: usize| sym.fns[i].name;
        if rev.len() > 5 {
            let head: Vec<&str> = rev[..2].iter().map(|&i| name(i)).collect();
            let tail: Vec<&str> = rev[rev.len() - 2..].iter().map(|&i| name(i)).collect();
            format!("{} → … → {}", head.join(" → "), tail.join(" → "))
        } else {
            rev.iter().map(|&i| name(i)).collect::<Vec<_>>().join(" → ")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    /// The symbols and graph of `src`; the file is leaked so the
    /// symbols can borrow it.
    fn graph(src: &str) -> (Symbols<'static>, CallGraph) {
        let files = Box::leak(Box::new([SourceFile::parse(
            "crates/core/src/sim/x.rs",
            src,
        )]));
        let sym = Symbols::build(files);
        let g = CallGraph::build(&sym);
        (sym, g)
    }

    #[test]
    fn qualified_calls_suffix_match() {
        let (sym, g) = graph(
            "mod engine {\n    pub fn step() { helper(); }\n}\nmod serve {\n    pub fn step() {}\n}\nfn helper() {}\nfn driver() { engine::step(); }\n",
        );
        let driver = sym.by_name["driver"][0];
        let engine_step = sym.resolve_root("engine::step").into_iter().next().unwrap();
        assert_eq!(g.edges[driver], vec![engine_step], "not serve::step");
    }

    #[test]
    fn external_paths_resolve_to_nothing() {
        let (sym, g) = graph("fn f() { let v = Vec::new(); String::from(\"x\"); }\n");
        assert!(g.edges[sym.by_name["f"][0]].is_empty());
    }

    #[test]
    fn bare_and_method_calls_match_by_kind() {
        let (sym, g) = graph(
            "impl S {\n    fn merge(&mut self) {}\n}\nfn merge() {}\nfn f(st: &mut S) { st.merge(); }\nfn g() { merge(); }\n",
        );
        let method = sym.resolve_root("S::merge")[0];
        let free: usize = *sym.by_name["merge"].iter().find(|&&i| i != method).unwrap();
        assert_eq!(g.edges[sym.by_name["f"][0]], vec![method]);
        assert_eq!(g.edges[sym.by_name["g"][0]], vec![free]);
    }

    #[test]
    fn non_test_calls_never_resolve_into_test_code() {
        let files = Box::leak(Box::new([
            SourceFile::parse(
                "crates/core/src/sim/engine.rs",
                "pub fn step() { note(); }\nfn note() { Digest::new(); add(); }\nfn add() {}\n#[cfg(test)]\nmod tests {\n    fn add() {}\n    #[test]\n    fn t() { super::step(); }\n}\n",
            ),
            SourceFile::parse(
                "crates/compress/tests/golden.rs",
                "struct Digest;\nimpl Digest {\n    fn new() -> Self { add(); Digest }\n}\nfn add() {}\n",
            ),
        ]));
        let sym = Symbols::build(files);
        let g = CallGraph::build(&sym);
        let named = |name: &str, test: bool| {
            sym.by_name[name]
                .iter()
                .copied()
                .find(|&i| sym.test_code[i] == test)
                .unwrap()
        };
        let note = named("note", false);
        // `Digest::new` lives only in an integration test, and the one
        // non-test `add` is the only candidate for the bare call.
        assert_eq!(g.edges[note], vec![named("add", false)]);
        let reach = g.reach(&sym.resolve_root("engine::step"));
        assert_eq!(reach.count(), 3, "step → note → add, nothing in tests");
        // Test code still calls into library code.
        assert_eq!(g.edges[named("t", true)], vec![named("step", false)]);
        // Within test code, calls resolve as before.
        let golden_new = named("new", true);
        assert_eq!(g.edges[golden_new].len(), 3, "every `add`, test or not");
    }

    #[test]
    fn reach_walks_transitively_with_chains() {
        let (sym, g) = graph(
            "mod engine {\n    pub fn step() { dispatch(); }\n}\nfn dispatch() { leaf(); }\nfn leaf() {}\nfn unrelated() {}\n",
        );
        let roots = sym.resolve_root("engine::step");
        let reach = g.reach(&roots);
        let leaf = sym.by_name["leaf"][0];
        assert!(reach.contains(roots[0]));
        assert!(reach.contains(leaf));
        assert!(!reach.contains(sym.by_name["unrelated"][0]));
        assert_eq!(reach.chain(&sym, leaf), "step → dispatch → leaf");
        assert_eq!(reach.count(), 3);
    }
}
