//! Golden fixture: determinism-conscious counterparts of `dirty.rs`.
//! No rule fires anywhere in this file (checked by
//! `tests/lint_gate.rs`), including the cases rules must *not* match:
//! ordered float comparisons, `unwrap_or`, a literal stream label with
//! an entity-derived index, tokens hidden inside strings, and unwraps
//! confined to `#[cfg(test)]` code.

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

pub const PROSE: &str = "HashMap Instant::now() thread_rng x == 0.0 .unwrap() unix_ms()";

#[cfg(test)]
mod tests {
    #[test]
    fn unwraps_and_exact_floats_are_fine_in_tests() {
        let z: f64 = Some(0.0).unwrap();
        assert!(z == 0.0);
    }
}
