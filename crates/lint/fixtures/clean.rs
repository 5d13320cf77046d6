//! Golden fixture: determinism-conscious counterparts of `dirty.rs`.
//! No rule fires anywhere in this file (checked by
//! `tests/lint_gate.rs`), including the cases rules must *not* match:
//! ordered float comparisons, `unwrap_or`, a literal stream label with
//! an entity-derived index, tokens hidden inside strings, an immutable
//! static, `'static` lifetimes, per-shard state merged in order, and
//! unwraps and a shared static confined to `#[cfg(test)]` code.

use std::collections::BTreeMap;

pub fn order(m: &BTreeMap<String, u32>) -> usize {
    m.len()
}

pub fn is_zero(x: f64) -> bool {
    x.abs() <= 1e-12
}

pub fn near(a: f64, b: f64) -> bool {
    (a - b).abs() < f64::EPSILON
}

pub fn first(v: &[u32]) -> u32 {
    v.first().copied().unwrap_or(0)
}

pub fn reseed(rng: &RngFactory, sat: usize) -> Rng64 {
    rng.stream("reseed", sat as u64)
}

pub struct Stamp {
    pub unix_ms: u64,
}

pub fn sim_time_stamp(t_s: f64) -> Stamp {
    // A struct-literal `unix_ms` field derived from sim-time is the
    // sanctioned pattern; only `unix_ms()` calls are wall-clock.
    Stamp {
        unix_ms: (t_s * 1e3) as u64,
    }
}

static NAME: &str = "sudc";

pub fn label(tag: &'static str) -> &'static str {
    if tag.is_empty() {
        NAME
    } else {
        tag
    }
}

pub fn keep<T: Send + 'static>(t: T) -> Box<dyn Send + 'static> {
    Box::new(t)
}

pub struct Shard {
    hits: u64,
    totals: BTreeMap<u32, f64>,
}

pub fn count_hit(shard: &mut Shard) {
    shard.hits += 1;
}

pub fn merge_totals(shard: &Shard) -> f64 {
    let mut sum = 0.0;
    for (_sat, t) in &shard.totals {
        sum += *t;
    }
    sum
}

pub fn first_frame(frames: &[u64]) -> Result<u64, SimError> {
    frames.first().copied().ok_or(SimError::EmptyWindow)
}

pub const PROSE: &str = "HashMap Instant::now() thread_rng x == 0.0 .unwrap() unix_ms() static mut X: Cell";

#[cfg(test)]
mod tests {
    static CALLS: AtomicU64 = AtomicU64::new(0);

    #[test]
    fn unwraps_and_exact_floats_are_fine_in_tests() {
        let z: f64 = Some(0.0).unwrap();
        assert!(z == 0.0);
        CALLS.fetch_add(1, Ordering::Relaxed);
    }
}
