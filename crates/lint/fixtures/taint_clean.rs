//! Golden fixture: the compliant counterparts of `taint_dirty.rs` —
//! the same shapes routed through per-shard struct state, ordered
//! (BTreeMap) merges, and typed errors instead of panics — must stay
//! completely silent under both lint passes (checked by
//! `tests/lint_gate.rs`).

mod engine {
    pub fn step(st: u32) {
        let mut shard = crate::Shard::default();
        crate::count_hit(&mut shard, st);
        crate::merge_totals(&shard);
        crate::first_frame(&[]);
    }
}

pub struct Shard {
    hits: u64,
    totals: BTreeMap<u32, f64>,
}

pub fn count_hit(shard: &mut Shard, _st: u32) {
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
