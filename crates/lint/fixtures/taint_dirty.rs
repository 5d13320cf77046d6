//! Golden fixture for both lint passes over shard-reachable code: a
//! shared mutable static for the semantic rule, and unordered float
//! folds (both the `for`-loop and the iterator-chain form), all
//! reachable from the fixture `engine::step` root (checked by
//! `tests/lint_gate.rs`). Each fold needs a hash collection declared in
//! a binding or parameter, and `nondeterministic-iteration` flags that
//! declaration; the event-loop-reachable unwrap is the lexical
//! `unwrap-in-lib` rule's. This file is never compiled, and
//! `crates/lint/fixtures/` sits outside the workspace scan roots.

mod engine {
    pub fn step(st: u32) {
        crate::count_hit(st);
        crate::merge_totals();
        crate::checksum();
        crate::first_frame();
    }
}

static HITS: AtomicU64 = AtomicU64::new(0); //~ shared-state-across-shards

pub fn count_hit(_st: u32) {
    HITS.fetch_add(1, Ordering::Relaxed);
}

pub fn merge_totals() -> f64 {
    let totals: HashMap<u32, f64> = HashMap::new(); //~ nondeterministic-iteration
    let mut sum = 0.0;
    for (_sat, t) in &totals {
        sum += t;
    }
    sum
}

pub fn checksum(weights: &HashMap<u32, f64>) -> f64 { //~ nondeterministic-iteration
    let folded: f64 = weights.values().sum();
    folded
}

pub fn first_frame(frames: &[u64]) -> u64 {
    *frames.first().unwrap() //~ unwrap-in-lib
}
