//! A small deterministic discrete-event simulation engine.
//!
//! The constellation simulator in the `sudc` crate plays out frame
//! generation, ISL relaying, and SµDC compute queues at sub-second
//! granularity over hours of simulated time. This crate provides the
//! domain-independent machinery:
//!
//! * [`Scheduler`] — a binary-heap event calendar (ties broken by insertion
//!   order, so runs are exactly reproducible),
//! * [`rng`] — seeded, splittable random streams,
//! * [`faults`] — stochastic up/down outage processes and bounded
//!   exponential backoff for fault injection,
//! * [`stats`] — a streaming mean/variance tally, and
//! * [`prop`] — a seeded property-test runner on [`rng`].
//!
//! # Examples
//!
//! ```
//! use simkit::Scheduler;
//! use units::Time;
//!
//! let mut sched = Scheduler::new();
//! sched.schedule_in(Time::from_secs(2.0), "world");
//! sched.schedule_in(Time::from_secs(1.0), "hello");
//!
//! let mut order = Vec::new();
//! while let Some(ev) = sched.pop() {
//!     order.push(ev.payload);
//! }
//! assert_eq!(order, vec!["hello", "world"]);
//! ```

pub mod faults;
pub mod prop;
pub mod rng;
pub mod stats;

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use units::Time;

/// An event drawn from the calendar.
#[derive(Debug, Clone, PartialEq)]
pub struct Event<E> {
    /// Simulation time at which the event fires.
    pub time: Time,
    /// The caller's event payload.
    pub payload: E,
}

#[derive(Debug, Clone)]
struct Scheduled<E> {
    time_s: f64,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time_s == other.time_s && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Total order: time, then insertion sequence. Times are finite by
        // construction (schedule_* validates), so IEEE total order
        // agrees with the numeric order here.
        self.time_s
            .total_cmp(&other.time_s)
            .then(self.seq.cmp(&other.seq))
    }
}

/// Deterministic event-calendar counters. Everything here depends
/// only on the event stream, so two runs with the same seed produce
/// identical counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerCounters {
    /// Events pushed onto the calendar.
    pub scheduled: u64,
    /// Events popped off the calendar.
    pub processed: u64,
    /// High-water mark of pending events.
    pub peak_queue_depth: u64,
}

/// A discrete-event calendar with deterministic tie-breaking.
///
/// A binary heap ordered by (time, insertion sequence): events
/// scheduled for the same instant fire in insertion order, which makes
/// simulation runs bit-for-bit reproducible. The calendar counts
/// scheduled and processed events and the queue-depth high-water mark
/// as it goes ([`Scheduler::counters`]).
#[derive(Debug, Clone)]
pub struct Scheduler<E> {
    queue: BinaryHeap<Reverse<Scheduled<E>>>,
    now: Time,
    /// `scheduled` doubles as the next insertion sequence number.
    counters: SchedulerCounters,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// Creates an empty calendar at time zero.
    pub fn new() -> Self {
        Self {
            queue: BinaryHeap::new(),
            now: Time::ZERO,
            counters: SchedulerCounters::default(),
        }
    }

    /// The event counters so far.
    pub fn counters(&self) -> SchedulerCounters {
        self.counters
    }

    /// Adds a finished co-scheduler's counters into this one. Sharded
    /// runs merge their per-shard schedulers through this: scheduled
    /// and processed counts add exactly; the peak-depth high-water
    /// marks add too — the shard queues coexist in time, so the sum is
    /// the aggregate queue-depth bound (per-shard peaks need not
    /// coincide, making it an upper bound rather than the exact global
    /// peak). Merge only once every scheduler has stopped: `scheduled`
    /// is also this calendar's insertion sequence.
    pub fn absorb_counters(&mut self, other: &SchedulerCounters) {
        self.counters.scheduled += other.scheduled;
        self.counters.processed += other.processed;
        self.counters.peak_queue_depth += other.peak_queue_depth;
    }

    /// Current simulation time (time of the last popped event).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.counters.processed
    }

    /// Number of pending events.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the calendar is empty.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Schedules `payload` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current time or not finite.
    pub fn schedule_at(&mut self, at: Time, payload: E) {
        assert!(at.is_finite(), "event time must be finite");
        assert!(
            at >= self.now,
            "cannot schedule into the past ({} < {})",
            at,
            self.now
        );
        self.queue.push(Reverse(Scheduled {
            time_s: at.as_secs(),
            seq: self.counters.scheduled,
            payload,
        }));
        self.counters.scheduled += 1;
        self.counters.peak_queue_depth =
            self.counters.peak_queue_depth.max(self.queue.len() as u64);
    }

    /// Schedules `payload` after a delay from the current time.
    ///
    /// # Panics
    ///
    /// Panics if the delay is negative or not finite.
    pub fn schedule_in(&mut self, delay: Time, payload: E) {
        assert!(
            delay.as_secs() >= 0.0,
            "delay must be non-negative, got {delay}"
        );
        self.schedule_at(self.now + delay, payload);
    }

    /// Time of the next pending event.
    #[cfg(test)]
    pub fn peek_time(&self) -> Option<Time> {
        self.queue
            .peek()
            .map(|Reverse(s)| Time::from_secs(s.time_s))
    }

    /// Pops the next event, advancing the clock to its time.
    #[inline]
    pub fn pop(&mut self) -> Option<Event<E>> {
        let Reverse(s) = self.queue.pop()?;
        self.now = Time::from_secs(s.time_s);
        self.counters.processed += 1;
        Some(Event {
            time: self.now,
            payload: s.payload,
        })
    }

    /// Pops the next event only if it fires at or before `until`.
    #[inline]
    pub fn pop_until(&mut self, until: Time) -> Option<Event<E>> {
        match self.queue.peek() {
            Some(Reverse(s)) if s.time_s <= until.as_secs() => self.pop(),
            _ => None,
        }
    }

    /// Drains and drops all pending events (e.g. at simulation end).
    #[cfg(test)]
    pub fn clear(&mut self) {
        self.queue.clear();
    }
}

/// Runs a handler over every event up to `until`, in order.
///
/// The handler receives mutable access to both the caller's state and the
/// scheduler (to schedule follow-up events).
pub fn run_until<E, S>(
    scheduler: &mut Scheduler<E>,
    state: &mut S,
    until: Time,
    mut handler: impl FnMut(&mut S, &mut Scheduler<E>, Event<E>),
) {
    while let Some(ev) = scheduler.pop_until(until) {
        handler(state, scheduler, ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop;

    #[test]
    fn events_fire_in_time_order() {
        let mut s = Scheduler::new();
        s.schedule_at(Time::from_secs(3.0), 3);
        s.schedule_at(Time::from_secs(1.0), 1);
        s.schedule_at(Time::from_secs(2.0), 2);
        let order: Vec<i32> = std::iter::from_fn(|| s.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(s.processed(), 3);
    }

    #[test]
    fn simultaneous_events_fire_in_insertion_order() {
        let mut s = Scheduler::new();
        for i in 0..10 {
            s.schedule_at(Time::from_secs(5.0), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| s.pop().map(|e| e.payload)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut s = Scheduler::new();
        s.schedule_in(Time::from_secs(4.0), ());
        assert_eq!(s.now(), Time::ZERO);
        s.pop();
        assert_eq!(s.now(), Time::from_secs(4.0));
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut s = Scheduler::new();
        s.schedule_in(Time::from_secs(1.0), "a");
        s.pop();
        s.schedule_in(Time::from_secs(1.0), "b");
        assert_eq!(s.peek_time(), Some(Time::from_secs(2.0)));
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_in_the_past_panics() {
        let mut s = Scheduler::new();
        s.schedule_at(Time::from_secs(5.0), ());
        s.pop();
        s.schedule_at(Time::from_secs(1.0), ());
    }

    #[test]
    fn pop_until_respects_horizon() {
        let mut s = Scheduler::new();
        s.schedule_at(Time::from_secs(1.0), 1);
        s.schedule_at(Time::from_secs(10.0), 2);
        assert!(s.pop_until(Time::from_secs(5.0)).is_some());
        assert!(s.pop_until(Time::from_secs(5.0)).is_none());
        assert_eq!(s.len(), 1, "the later event is still pending");
    }

    #[test]
    fn run_until_drives_cascading_events() {
        // A self-rescheduling ticker: fires at 1, 2, 3, ... until horizon.
        let mut s = Scheduler::new();
        s.schedule_at(Time::from_secs(1.0), ());
        let mut ticks = 0u32;
        run_until(
            &mut s,
            &mut ticks,
            Time::from_secs(10.0),
            |t, sched, _ev| {
                *t += 1;
                sched.schedule_in(Time::from_secs(1.0), ());
            },
        );
        assert_eq!(ticks, 10);
        assert_eq!(s.len(), 1, "the 11th tick remains scheduled");
    }

    #[test]
    fn counters_track_schedules_pops_and_peak_depth() {
        let mut s: Scheduler<u32> = Scheduler::new();
        assert_eq!(s.counters(), SchedulerCounters::default());
        s.schedule_at(Time::from_secs(1.0), 1);
        s.schedule_at(Time::from_secs(2.0), 2);
        s.pop();
        let c = s.counters();
        assert_eq!(c.scheduled, 2);
        assert_eq!(c.processed, 1);
        assert_eq!(c.peak_queue_depth, 2);
        assert_eq!(s.processed(), 1);
    }

    #[test]
    fn probe_counters_are_reproducible_across_identical_runs() {
        let run = || {
            let mut s: Scheduler<usize> = Scheduler::new();
            // A cascading workload: every event schedules two children
            // until the horizon, so counters depend on the full dynamics.
            s.schedule_at(Time::ZERO, 0);
            let mut depth = 0usize;
            run_until(&mut s, &mut depth, Time::from_secs(6.0), |_, sched, ev| {
                if ev.payload < 5 {
                    sched.schedule_in(Time::from_secs(1.0), ev.payload + 1);
                    sched.schedule_in(Time::from_secs(2.0), ev.payload + 1);
                }
            });
            s.counters()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same workload must give identical counters");
        assert!(a.scheduled > 0 && a.processed > 0 && a.peak_queue_depth > 0);
    }

    #[test]
    #[should_panic(expected = "delay must be non-negative")]
    fn nan_delay_panics() {
        let mut s: Scheduler<()> = Scheduler::new();
        s.schedule_in(Time::from_secs(f64::NAN), ());
    }

    #[test]
    #[should_panic(expected = "event time must be finite")]
    fn infinite_delay_panics() {
        let mut s: Scheduler<()> = Scheduler::new();
        s.schedule_in(Time::from_secs(f64::INFINITY), ());
    }

    #[test]
    #[should_panic(expected = "event time must be finite")]
    fn nan_absolute_time_panics() {
        let mut s: Scheduler<()> = Scheduler::new();
        s.schedule_at(Time::from_secs(f64::NAN), ());
    }

    #[test]
    fn pop_until_pops_event_exactly_at_horizon() {
        let mut s = Scheduler::new();
        s.schedule_at(Time::from_secs(5.0), "on-the-line");
        let ev = s.pop_until(Time::from_secs(5.0));
        assert_eq!(ev.map(|e| e.payload), Some("on-the-line"));
        assert!(s.is_empty());
    }

    #[test]
    fn clear_empties_the_calendar_but_keeps_probe_counters() {
        let mut s: Scheduler<u32> = Scheduler::new();
        for i in 0..5 {
            s.schedule_at(Time::from_secs(i as f64), i);
        }
        s.pop();
        let before = s.counters();
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.counters(), before, "clear() must not rewrite history");
        // Scheduling after clear continues the same counters.
        s.schedule_at(Time::from_secs(9.0), 9);
        let after = s.counters();
        assert_eq!(after.scheduled, before.scheduled + 1);
        assert_eq!(after.processed, before.processed);
    }

    #[test]
    fn deep_calendar_pops_in_time_then_insertion_order() {
        // Wave 1 pushes strictly increasing times; wave 2 scatters
        // pushes across the same span; wave 3 lands on a coarse 16-slot
        // grid, so hundreds of events share each timestamp and only the
        // FIFO tie-break orders them. Together they hold the queue past
        // 4,000 pending events.
        let mut s = Scheduler::new();
        let mut expect = Vec::new();
        let mut id = 0u64;
        let mut push = |s: &mut Scheduler<u64>, expect: &mut Vec<(f64, u64)>, t: f64| {
            s.schedule_at(Time::from_secs(t), id);
            expect.push((t, id));
            id += 1;
        };
        for i in 0..1124u64 {
            push(&mut s, &mut expect, i as f64 * 0.25);
        }
        for i in 0..900u64 {
            push(&mut s, &mut expect, ((i * 7919) % 4001) as f64 * 0.25);
        }
        for i in 0..2500u64 {
            push(&mut s, &mut expect, (i % 16) as f64 * 8.0);
        }
        assert!(s.len() > 4000, "the calendar must run deep");
        assert_eq!(s.peek_time(), Some(Time::ZERO));
        // Drain 1,000 with `pop`, then push a fourth wave at and after
        // `now`, interleaved with the pending set.
        expect.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut got = Vec::new();
        for _ in 0..1000 {
            let ev = s.pop().expect("still pending");
            got.push(ev.payload);
        }
        let now = s.now().as_secs();
        for i in 0..1000u64 {
            push(&mut s, &mut expect, now + ((i * 104729) % 997) as f64 * 0.5);
        }
        expect.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        // Drain the rest through `pop_until` in 10 s steps: every pop
        // stays within its bound, and a refusal leaves the next event
        // strictly past it.
        let mut bound = now;
        while !s.is_empty() {
            while let Some(ev) = s.pop_until(Time::from_secs(bound)) {
                assert!(ev.time.as_secs() <= bound);
                got.push(ev.payload);
            }
            if let Some(next) = s.peek_time() {
                assert!(next.as_secs() > bound);
            }
            bound += 10.0;
        }
        let expect_ids: Vec<u64> = expect.into_iter().map(|(_, i)| i).collect();
        assert_eq!(got, expect_ids, "pops must follow (time, seq) order");
    }

    #[test]
    fn peek_time_reports_the_earliest_pending_event() {
        let mut s = Scheduler::new();
        assert_eq!(s.peek_time(), None);
        for i in 0..50 {
            s.schedule_at(Time::from_secs(1000.0 - i as f64), i);
        }
        assert_eq!(s.peek_time(), Some(Time::from_secs(951.0)));
        assert_eq!(s.pop().map(|e| e.payload), Some(49));
        assert_eq!(s.peek_time(), Some(Time::from_secs(952.0)));
    }

    /// Counters remain internally consistent across arbitrary
    /// schedule/pop/clear sequences: processed never exceeds
    /// scheduled, the peak queue depth is bounded by scheduled, and
    /// `clear()` never alters any counter.
    #[test]
    fn probe_counters_consistent_across_ops() {
        prop::check("probe_counters_consistent_across_ops", 256, |g| {
            let ops = g.draw(prop::vec(0u8..3, 1..100));

            let mut s: Scheduler<usize> = Scheduler::new();
            let mut expect_scheduled = 0u64;
            let mut expect_processed = 0u64;
            for (i, op) in ops.iter().enumerate() {
                match op {
                    0 => {
                        s.schedule_in(Time::from_secs(1.0), i);
                        expect_scheduled += 1;
                    }
                    1 => {
                        if s.pop().is_some() {
                            expect_processed += 1;
                        }
                    }
                    _ => {
                        let before = s.counters();
                        s.clear();
                        assert_eq!(s.counters(), before);
                        assert!(s.is_empty());
                    }
                }
                let c = s.counters();
                assert_eq!(c.scheduled, expect_scheduled);
                assert_eq!(c.processed, expect_processed);
                assert!(c.processed <= c.scheduled);
                assert!(c.peak_queue_depth <= c.scheduled);
                assert!(s.len() as u64 <= c.scheduled - c.processed);
            }
        });
    }

    /// `pop_until` at exactly an event's timestamp pops it, for any
    /// timestamp.
    #[test]
    fn pop_until_is_inclusive_at_any_timestamp() {
        prop::check("pop_until_is_inclusive_at_any_timestamp", 256, |g| {
            let t = g.draw(0.0f64..1e9);

            let mut s = Scheduler::new();
            s.schedule_at(Time::from_secs(t), ());
            assert!(s.pop_until(Time::from_secs(t)).is_some());
        });
    }

    #[test]
    fn pops_are_globally_sorted() {
        prop::check("pops_are_globally_sorted", 256, |g| {
            let times = g.draw(prop::vec(0.0f64..1e6, 1..200));

            let mut s = Scheduler::new();
            for (i, &t) in times.iter().enumerate() {
                s.schedule_at(Time::from_secs(t), i);
            }
            let mut last = -1.0f64;
            while let Some(ev) = s.pop() {
                assert!(ev.time.as_secs() >= last);
                last = ev.time.as_secs();
            }
        });
    }

    /// The calendar pops in exactly the (time, insertion seq) order
    /// of a reference binary heap over `(time, seq)` pairs —
    /// same-timestamp events stay FIFO — across random mixes of
    /// pushes and interleaved pops. Timestamps are drawn from a
    /// coarse grid so collisions are common and the FIFO tie-break
    /// is genuinely exercised.
    #[test]
    fn calendar_matches_binary_heap_order() {
        prop::check("calendar_matches_binary_heap_order", 256, |g| {
            let ops = g.draw(prop::vec((0u8..4, 0u16..500), 1..300));

            let mut cal = Scheduler::new();
            let mut reference: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
            let mut seq = 0u64;
            let mut floor = 0u64; // reference clock, integer grid ticks
            for (op, slot) in ops {
                if op == 0 {
                    // Pop from both and compare (time, payload-seq).
                    let got = cal.pop().map(|ev| (ev.time.as_secs(), ev.payload));
                    let want = reference.pop().map(|Reverse((t, q))| {
                        floor = t;
                        (t as f64 * 0.5, q)
                    });
                    assert_eq!(got, want);
                } else {
                    // Push on a 0.5 s grid at/after the current clock so
                    // schedule_at never panics; ~500 slots force ties.
                    let t = floor + slot as u64;
                    cal.schedule_at(Time::from_secs(t as f64 * 0.5), seq);
                    reference.push(Reverse((t, seq)));
                    seq += 1;
                }
            }
            // Drain what is left: full order must agree.
            while let Some(Reverse((t, q))) = reference.pop() {
                let got = cal.pop().map(|ev| (ev.time.as_secs(), ev.payload));
                assert_eq!(got, Some((t as f64 * 0.5, q)));
            }
            assert!(cal.is_empty());
        });
    }
}
