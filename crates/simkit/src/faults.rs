//! Generic stochastic fault processes for discrete-event simulations.
//!
//! Domain-independent machinery behind the constellation simulator's
//! fault injection (ISSUE 3): renewal up/down processes for link and
//! node outages, and bounded exponential backoff for retrying failed
//! operations. Everything is driven by an explicit [`crate::rng::Rng64`]
//! stream, so fault schedules are a pure function of the run seed and
//! the entity's stream label — adding fault draws for one entity never
//! perturbs another's. Times are plain `f64` seconds.

use crate::rng::{exponential, Rng64};

/// An alternating up/down renewal process: exponentially distributed
/// up-times with mean `mtbf_s` and down-times with mean `mttr_s`.
///
/// Outage windows are generated lazily from the owned RNG stream and
/// cached, so queries may arrive in any time order; each window is drawn
/// exactly once regardless of query pattern, keeping runs reproducible.
/// A simulation's queries mostly follow its clock, so a cursor walks
/// forward with them; a query before the cursor binary-searches.
///
/// The process starts up at `t = 0` (a link is presumed healthy at
/// launch; the first outage arrives after an exponential up-time).
#[derive(Debug, Clone)]
pub struct OutageProcess {
    rng: Rng64,
    mtbf_s: f64,
    mttr_s: f64,
    /// Generated outage windows `[start, end)`, in increasing order.
    windows: Vec<(f64, f64)>,
    /// Time up to which the schedule has been materialised: every
    /// window starting before this is already in `windows`.
    horizon: f64,
    /// Number of windows starting at or before the latest query time
    /// seen so far; it never moves back.
    cursor: usize,
}

impl OutageProcess {
    /// Creates a process from its RNG stream and mean up/down times.
    ///
    /// # Panics
    ///
    /// Panics if either mean is not finite and positive.
    pub fn new(rng: Rng64, mtbf_s: f64, mttr_s: f64) -> Self {
        assert!(
            mtbf_s > 0.0 && mtbf_s.is_finite(),
            "MTBF must be positive and finite, got {mtbf_s}"
        );
        assert!(
            mttr_s > 0.0 && mttr_s.is_finite(),
            "MTTR must be positive and finite, got {mttr_s}"
        );
        Self {
            rng,
            mtbf_s,
            mttr_s,
            windows: Vec::new(),
            horizon: 0.0,
            cursor: 0,
        }
    }

    /// Extends the materialised schedule so every window starting at or
    /// before `t` exists.
    fn extend_to(&mut self, t: f64) {
        while self.horizon <= t {
            let up = exponential(&mut self.rng, self.mtbf_s);
            let down = exponential(&mut self.rng, self.mttr_s);
            let start = self.horizon + up;
            self.windows.push((start, start + down));
            self.horizon = start + down;
        }
    }

    /// The outage window containing `t`, if the process is down at `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is negative or not finite.
    pub fn outage_at(&mut self, t: f64) -> Option<(f64, f64)> {
        assert!(
            t >= 0.0 && t.is_finite(),
            "query time must be finite and >= 0"
        );
        self.extend_to(t);
        // Windows are sorted; find the number that start at or before t.
        let idx = match self.cursor.checked_sub(1) {
            Some(last) if self.windows[last].0 > t => {
                self.windows[..last].partition_point(|&(start, _)| start <= t)
            }
            _ => {
                while self
                    .windows
                    .get(self.cursor)
                    .is_some_and(|&(start, _)| start <= t)
                {
                    self.cursor += 1;
                }
                self.cursor
            }
        };
        if idx == 0 {
            return None;
        }
        let (start, end) = self.windows[idx - 1];
        (t < end).then_some((start, end))
    }

    /// Whether the process is up (healthy) at `t`.
    pub fn is_up(&mut self, t: f64) -> bool {
        self.outage_at(t).is_none()
    }

    /// The earliest time at or after `t` when the process is up: `t`
    /// itself if healthy, else the end of the covering outage window.
    #[cfg(test)]
    pub fn next_up_after(&mut self, t: f64) -> f64 {
        match self.outage_at(t) {
            Some((_, end)) => end,
            None => t,
        }
    }

    /// Number of outage windows that begin before `t` (for telemetry:
    /// how many times the entity went down during a run of length `t`).
    pub fn outages_before(&mut self, t: f64) -> usize {
        assert!(
            t >= 0.0 && t.is_finite(),
            "query time must be finite and >= 0"
        );
        self.extend_to(t);
        self.windows.partition_point(|&(start, _)| start < t)
    }

    /// Fraction of `[0, t)` the process spends up (its availability).
    pub fn availability_until(&mut self, t: f64) -> f64 {
        assert!(
            t > 0.0 && t.is_finite(),
            "horizon must be positive and finite"
        );
        self.extend_to(t);
        let down: f64 = self
            .windows
            .iter()
            .take_while(|&&(start, _)| start < t)
            .map(|&(start, end)| end.min(t) - start)
            .sum();
        (t - down) / t
    }
}

/// Bounded exponential backoff: delay `base_s · factor^attempt` for
/// attempts `0 .. max_retries`, then give up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Backoff {
    /// Delay before the first retry, seconds.
    pub base_s: f64,
    /// Multiplier applied per retry (≥ 1).
    pub factor: f64,
    /// Retries before giving up.
    pub max_retries: u32,
}

impl Backoff {
    /// Creates a policy.
    ///
    /// # Panics
    ///
    /// Panics if `base_s` is not positive/finite or `factor < 1`.
    pub fn new(base_s: f64, factor: f64, max_retries: u32) -> Self {
        assert!(
            base_s > 0.0 && base_s.is_finite(),
            "backoff base must be positive and finite, got {base_s}"
        );
        assert!(
            factor >= 1.0 && factor.is_finite(),
            "backoff factor must be >= 1, got {factor}"
        );
        Self {
            base_s,
            factor,
            max_retries,
        }
    }

    /// Delay before retry number `attempt` (0-based), or `None` once the
    /// retry budget is exhausted.
    pub fn delay_s(&self, attempt: u32) -> Option<f64> {
        (attempt < self.max_retries).then(|| self.base_s * self.factor.powi(attempt as i32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::RngFactory;

    fn process(seed: u64, mtbf: f64, mttr: f64) -> OutageProcess {
        OutageProcess::new(RngFactory::new(seed).stream("outage", 0), mtbf, mttr)
    }

    #[test]
    fn starts_up_and_alternates() {
        let mut p = process(1, 100.0, 10.0);
        assert!(p.is_up(0.0));
        // Somewhere in a long horizon the process must go down.
        let n = p.outages_before(10_000.0);
        assert!(n > 0, "no outages in 100 MTBFs");
    }

    #[test]
    fn outage_windows_cover_down_time() {
        let mut p = process(2, 50.0, 20.0);
        let mut t = 0.0;
        let (start, end) = loop {
            if let Some(w) = p.outage_at(t) {
                break w;
            }
            t += 1.0;
        };
        assert!(start < end);
        // Inside the window: down; at its end: up again.
        let mid = 0.5 * (start + end);
        assert!(p.outage_at(mid).is_some());
        assert_eq!(p.next_up_after(mid), end);
        assert!(p.is_up(end));
    }

    #[test]
    fn queries_in_any_order_are_consistent() {
        let mut a = process(3, 30.0, 5.0);
        let mut b = process(3, 30.0, 5.0);
        let times = [500.0, 3.0, 250.0, 0.1, 999.0, 42.0];
        let forward: Vec<bool> = times.iter().map(|&t| a.is_up(t)).collect();
        let mut reversed: Vec<bool> = times.iter().rev().map(|&t| b.is_up(t)).collect();
        reversed.reverse();
        assert_eq!(
            forward, reversed,
            "query order must not change the schedule"
        );
    }

    /// Forward steps (a step of zero repeats the last query) mixed with
    /// jumps back and forth: every answer equals a fresh process's
    /// answer at the same time, so the cursor never changes one.
    #[test]
    fn cursor_queries_match_a_fresh_process() {
        crate::prop::check("cursor_queries_match_a_fresh_process", 128, |g| {
            let seed = g.draw(0u64..1_000);
            let ops = g.draw(crate::prop::vec((0u8..3, 0u32..400), 1..200));
            let mut p = process(seed, 30.0, 5.0);
            let mut t = 0.0;
            for (op, x) in ops {
                t = match op {
                    0 => x as f64 * 5.0,
                    _ => t + x as f64 * 0.05,
                };
                let fresh = process(seed, 30.0, 5.0).outage_at(t);
                assert_eq!(p.outage_at(t), fresh, "t = {t}");
            }
        });
    }

    #[test]
    fn same_stream_same_schedule() {
        let mut a = process(7, 60.0, 6.0);
        let mut b = process(7, 60.0, 6.0);
        assert_eq!(a.outages_before(5_000.0), b.outages_before(5_000.0));
        assert_eq!(a.availability_until(5_000.0), b.availability_until(5_000.0));
    }

    #[test]
    fn availability_approaches_mtbf_ratio() {
        // Steady-state availability = MTBF / (MTBF + MTTR) = 10/11.
        let mut p = process(11, 100.0, 10.0);
        let a = p.availability_until(2_000_000.0);
        let expected = 100.0 / 110.0;
        assert!((a - expected).abs() < 0.02, "availability {a}");
    }

    #[test]
    fn short_mttr_means_high_availability() {
        let mut fragile = process(5, 10.0, 10.0);
        let mut robust = process(5, 10.0, 0.1);
        assert!(robust.availability_until(50_000.0) > fragile.availability_until(50_000.0));
    }

    #[test]
    #[should_panic(expected = "MTBF must be positive")]
    fn zero_mtbf_panics() {
        let _ = process(1, 0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "MTTR must be positive")]
    fn nan_mttr_panics() {
        let _ = process(1, 1.0, f64::NAN);
    }

    #[test]
    fn backoff_grows_then_gives_up() {
        let b = Backoff::new(0.5, 2.0, 3);
        assert_eq!(b.delay_s(0), Some(0.5));
        assert_eq!(b.delay_s(1), Some(1.0));
        assert_eq!(b.delay_s(2), Some(2.0));
        assert_eq!(b.delay_s(3), None);
        assert_eq!(b.delay_s(99), None);
    }

    #[test]
    fn zero_retry_budget_always_gives_up() {
        let b = Backoff::new(1.0, 2.0, 0);
        assert_eq!(b.delay_s(0), None);
    }

    #[test]
    #[should_panic(expected = "factor must be >= 1")]
    fn shrinking_backoff_panics() {
        let _ = Backoff::new(1.0, 0.5, 3);
    }
}
