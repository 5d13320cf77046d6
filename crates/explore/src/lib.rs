//! Parallel, memoizing design-space exploration with Pareto extraction.
//!
//! The paper is a design-space study: every headline artifact is a sweep
//! over (application × resolution × early-discard × ISL capacity ×
//! k-list × split × hardware × hardening). This crate is the shared
//! substrate for those sweeps:
//!
//! * **Parameter spaces** ([`Axis`], [`Space`]) — typed axes combined
//!   into cartesian grids or explicit point lists.
//!   Every point carries a stable [`PointId`] derived from the canonical
//!   textual form of its coordinates, independent of enumeration order
//!   or thread count.
//! * **Deterministic parallel execution** ([`sweep`], [`map`],
//!   [`ExecOptions`]) — a `std::thread` executor that self-schedules
//!   chunks from a shared cursor (central work-stealing), with the
//!   calling thread as one of its workers. The merged output is written
//!   back in space (or item) order, so it is byte-identical to a
//!   sequential run for any thread count. [`map`] is the bare executor
//!   over a slice, for independent work that is not a design space.
//! * **Memoization** ([`Cache`], [`Cacheable`], [`sweep_cached`]) — a
//!   content-addressed result cache keyed by an FNV-1a hash of the
//!   canonicalised parameter bytes plus an evaluator version tag,
//!   persisted as one deterministic snapshot file per sweep (under
//!   `results/cache/` in this workspace). Re-running a reproduction
//!   only evaluates changed cells.
//! * **Selection** ([`pareto`]) — objective/constraint declarations,
//!   Pareto-frontier extraction, and top-k ranking over sweep results.
//!
//! Sweeps emit `explore.sweep` telemetry spans recording points
//! evaluated, cache hits, steal counts, and points/s.
//!
//! The workspace builds from std alone, so everything here is
//! hand-rolled on `std` plus the in-workspace `telemetry` crate.
//!
//! # Examples
//!
//! ```
//! use explore::{Axis, ExecOptions, Space};
//!
//! let space = Space::grid2("demo", Axis::new("k", vec![2u64, 4, 8]), Axis::new("split", vec![1u64, 2]));
//! let out = explore::sweep(&space, &ExecOptions::threads(2), |&(k, s)| k * s);
//! assert_eq!(out.results, vec![2, 4, 4, 8, 8, 16]);
//! assert_eq!(out.stats.evaluated, 6);
//! ```

mod cache;
mod codec;
mod exec;
pub mod pareto;
mod space;

pub use cache::{Cache, Cacheable};
pub use codec::{Dec, Enc};
pub use exec::{map, sweep, sweep_cached, ExecOptions, SweepOutcome, SweepStats};
pub use pareto::{pareto_indices, top_k_indices, Constraint, Direction, Objective};
pub use space::{Axis, AxisItem, PointId, Space};

/// FNV-1a 64-bit hash — the content address for canonicalised
/// parameter bytes and cache keys.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }
}
