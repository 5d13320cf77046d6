//! The `Reactive` controller: threshold-driven feedback on observed
//! telemetry, with no orbital model and no lookahead.
//!
//! It widens the backoff on outage bursts. Every retry decision is a
//! link-down observation; the controller keeps a sliding window of
//! them. Inside a burst it stretches the baseline backoff and extends
//! the retry budget with capped delays, so transmissions wait out an
//! outage (the paper's flaky-link MTTR is seconds) instead of
//! exhausting a sub-second schedule and taking the long reverse-ring
//! detour — or dying outright. The burst test only asks whether the
//! last [`BURST_THRESHOLD`] observations all fall inside
//! [`BURST_WINDOW_S`], so the window keeps just those timestamps and
//! costs O(1) per decision. That relies on observation times never
//! decreasing, which holds because each decision is taken at the sim
//! time of the event being handled.
//!
//! The controller draws no RNG and its state is plain counters, so
//! double runs of the same config are identical. Adaptive runs never
//! shard, so one instance sees every decision of the run.

use std::collections::VecDeque;

use super::{LinkObs, Policy, RetryDecision};
use crate::sim::faults::RETRY_BACKOFF;

/// Sliding window over link-down observations, seconds.
const BURST_WINDOW_S: f64 = 10.0;
/// Link-down observations within the window that declare a burst.
const BURST_THRESHOLD: usize = 6;
/// Backoff stretch applied inside a burst.
const BURST_BACKOFF_SCALE: f64 = 3.0;
/// Extra retries granted past the baseline budget inside a burst.
const BURST_EXTRA_RETRIES: u32 = 4;
/// Cap on any single widened/extended backoff delay, seconds.
const MAX_DELAY_S: f64 = 2.0;

/// Threshold-driven feedback controller.
#[derive(Debug)]
pub struct ReactivePolicy {
    /// The newest link-down observation times inside
    /// [`BURST_WINDOW_S`], oldest first, at most [`BURST_THRESHOLD`] of
    /// them: an older one can no longer change the burst test.
    recent_down_s: VecDeque<f64>,
}

impl ReactivePolicy {
    /// Builds the controller with an empty window.
    pub fn new() -> Self {
        Self {
            recent_down_s: VecDeque::with_capacity(BURST_THRESHOLD),
        }
    }

    /// Records a link-down observation and reports whether the window
    /// now holds a burst: [`BURST_THRESHOLD`] observations, this one
    /// included, at most [`BURST_WINDOW_S`] old.
    ///
    /// Because times never decrease, entries leave the window oldest
    /// first, and an entry that has aged out stays out; dropping the
    /// oldest once the deque is full only forgets an entry that can no
    /// longer decide the test.
    fn note_down(&mut self, now_s: f64) -> bool {
        if let Some(&last) = self.recent_down_s.back() {
            debug_assert!(
                now_s >= last,
                "link-down observations must come in non-decreasing sim time: \
                 {now_s} after {last}"
            );
        }
        while let Some(&oldest) = self.recent_down_s.front() {
            if now_s - oldest <= BURST_WINDOW_S && self.recent_down_s.len() < BURST_THRESHOLD {
                break;
            }
            self.recent_down_s.pop_front();
        }
        self.recent_down_s.push_back(now_s);
        self.recent_down_s.len() >= BURST_THRESHOLD
    }

    /// The widened/extended backoff delay for retry `attempt` during a
    /// burst: the baseline exponential schedule ([`RETRY_BACKOFF`]),
    /// stretched and capped, with [`BURST_EXTRA_RETRIES`] attempts past
    /// its budget.
    fn burst_delay_s(attempt: u32) -> Option<f64> {
        if attempt >= RETRY_BACKOFF.max_retries + BURST_EXTRA_RETRIES {
            return None;
        }
        let raw = RETRY_BACKOFF.base_s * RETRY_BACKOFF.factor.powi(attempt as i32);
        Some((raw * BURST_BACKOFF_SCALE).min(MAX_DELAY_S))
    }
}

impl Policy for ReactivePolicy {
    fn decide_retry(&mut self, obs: &LinkObs) -> RetryDecision {
        let burst = self.note_down(obs.now_s);
        if !burst {
            return match obs.baseline_delay_s {
                Some(delay_s) => RetryDecision::Retry { delay_s },
                None => RetryDecision::Escalate,
            };
        }
        match Self::burst_delay_s(obs.attempt) {
            Some(delay_s) => RetryDecision::Retry { delay_s },
            None => RetryDecision::Escalate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::policy::RetryDecision;
    use simkit::prop;

    fn obs(now_s: f64, attempt: u32, baseline: Option<f64>) -> LinkObs {
        LinkObs {
            now_s,
            attempt,
            baseline_delay_s: baseline,
        }
    }

    #[test]
    fn quiet_links_follow_the_configured_schedule() {
        let mut p = ReactivePolicy::new();
        assert_eq!(
            p.decide_retry(&obs(1.0, 0, Some(0.05))),
            RetryDecision::Retry { delay_s: 0.05 }
        );
        assert_eq!(
            p.decide_retry(&obs(100.0, 4, None)),
            RetryDecision::Escalate
        );
    }

    #[test]
    fn a_burst_widens_and_extends_the_backoff() {
        let mut p = ReactivePolicy::new();
        // Five quick observations arm the window; the sixth is a burst.
        for i in 0..5 {
            p.decide_retry(&obs(10.0 + i as f64 * 0.1, 0, Some(0.05)));
        }
        match p.decide_retry(&obs(10.6, 0, Some(0.05))) {
            RetryDecision::Retry { delay_s } => {
                assert!(
                    (delay_s - 0.15).abs() < 1e-12,
                    "widened delay, got {delay_s}"
                )
            }
            RetryDecision::Escalate => panic!("a burst must keep retrying"),
        }
        // Past the configured budget the burst schedule keeps retrying
        // at the capped delay instead of escalating.
        let d = p.decide_retry(&obs(10.7, 4, None));
        assert_eq!(d, RetryDecision::Retry { delay_s: 2.0 });
        // ...but not forever.
        assert_eq!(p.decide_retry(&obs(10.8, 8, None)), RetryDecision::Escalate);
    }

    #[test]
    fn the_window_forgets_old_outages() {
        let mut p = ReactivePolicy::new();
        for i in 0..6 {
            p.decide_retry(&obs(i as f64 * 0.1, 0, Some(0.05)));
        }
        // Far in the future the window is empty again: baseline rules.
        assert_eq!(
            p.decide_retry(&obs(500.0, 4, None)),
            RetryDecision::Escalate
        );
    }

    /// The detector this controller first shipped with: every
    /// observation inside the window kept in a `Vec` and pruned with
    /// `retain`, O(window) per decision. The bounded deque must decide
    /// exactly as it does.
    struct RetainReference {
        recent_down_s: Vec<f64>,
    }

    impl RetainReference {
        fn new() -> Self {
            Self {
                recent_down_s: Vec::new(),
            }
        }

        fn decide(&mut self, obs: &LinkObs) -> RetryDecision {
            let now_s = obs.now_s;
            self.recent_down_s.retain(|&t| now_s - t <= BURST_WINDOW_S);
            self.recent_down_s.push(now_s);
            let delay_s = if self.recent_down_s.len() >= BURST_THRESHOLD {
                ReactivePolicy::burst_delay_s(obs.attempt)
            } else {
                obs.baseline_delay_s
            };
            match delay_s {
                Some(delay_s) => RetryDecision::Retry { delay_s },
                None => RetryDecision::Escalate,
            }
        }
    }

    /// The gap to the next observation. Ties, exact window widths and
    /// the spacing that puts the threshold-th observation exactly on
    /// the window edge probe the boundary; the rest mix in-window and
    /// past-window gaps. `dense` draws a flaky-ring retry storm instead.
    fn gap_s(g: &mut prop::Gen, dense: bool) -> f64 {
        if dense {
            return match g.draw(0..8u64) {
                0 => 0.0,
                _ => g.draw(0.0f64..0.02),
            };
        }
        match g.draw(0..7u64) {
            0 => 0.0,
            1 => BURST_WINDOW_S,
            2 => BURST_WINDOW_S / (BURST_THRESHOLD - 1) as f64,
            3 => g.draw(0.0f64..0.5),
            4 => g.draw(0.0f64..3.0),
            5 => g.draw(1.5f64..2.5),
            _ => g.draw(BURST_WINDOW_S..3.0 * BURST_WINDOW_S),
        }
    }

    #[test]
    fn bounded_window_decides_like_the_retain_reference() {
        const BURST_OBSERVATIONS: usize = 100_000;
        let name = "bounded_window_decides_like_the_retain_reference";
        prop::check(name, 1_000, |g| {
            // Every 500th case is a 10^5-observation retry storm.
            let dense = g.case() % 500 == 0;
            let n = if dense {
                BURST_OBSERVATIONS
            } else {
                g.draw(1..401usize)
            };
            let mut fast = ReactivePolicy::new();
            let mut reference = RetainReference::new();
            // Large start times exercise rounding in `now - t`.
            let mut now_s = match g.draw(0..3u64) {
                0 => 0.0,
                1 => g.draw(0.0f64..100.0),
                _ => g.draw(1e4f64..1e6),
            };
            for i in 0..n {
                let baseline = match g.draw(0..4u64) {
                    0 => None,
                    _ => Some(g.draw(0.01f64..1.0)),
                };
                let o = obs(now_s, g.draw(0..10u32), baseline);
                let got = fast.decide_retry(&o);
                let want = reference.decide(&o);
                assert_eq!(
                    got, want,
                    "observation {i} at t={now_s}: deque and retain windows disagree"
                );
                now_s += gap_s(g, dense);
            }
        });
    }

    #[test]
    fn the_window_holds_at_most_the_threshold() {
        // 10^5 link-down observations 10 µs apart: all inside one
        // window, and a burst from the sixth on.
        let mut p = ReactivePolicy::new();
        for i in 0..100_000 {
            p.decide_retry(&obs(50.0 + i as f64 * 1e-5, 0, Some(0.05)));
            assert!(
                p.recent_down_s.len() <= BURST_THRESHOLD,
                "observation {i}: window holds {} timestamps",
                p.recent_down_s.len()
            );
        }
        assert_eq!(p.recent_down_s.len(), BURST_THRESHOLD);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-decreasing")]
    fn time_running_backwards_trips_the_precondition() {
        let mut p = ReactivePolicy::new();
        p.decide_retry(&obs(5.0, 0, Some(0.05)));
        p.decide_retry(&obs(4.0, 0, Some(0.05)));
    }
}
