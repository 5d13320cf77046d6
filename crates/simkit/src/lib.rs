//! A small deterministic discrete-event simulation engine.
//!
//! The constellation simulator in the `sudc` crate plays out frame
//! generation, ISL relaying, and SµDC compute queues at sub-second
//! granularity over hours of simulated time. This crate provides the
//! domain-independent machinery:
//!
//! * [`Scheduler`] — a packed-key heap, a FIFO lane and named FIFO
//!   streams over a payload slab (ties broken by insertion order, so
//!   runs are exactly reproducible),
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
use std::collections::{BinaryHeap, VecDeque};

use units::Time;

/// An event drawn from the calendar.
#[derive(Debug, Clone, PartialEq)]
pub struct Event<E> {
    /// Simulation time at which the event fires.
    pub time: Time,
    /// The caller's event payload.
    pub payload: E,
}

/// Low bits of a heap key that hold the payload's slab slot.
const SLOT_BITS: u32 = 24;
/// Bits between the slot and the time that hold the insertion sequence.
const SEQ_BITS: u32 = 40;
const SIGN: u64 = 1 << 63;

/// Packs an event into one heap key: the time's [`f64::total_cmp`] bits
/// (sign bit flipped, so unsigned order is IEEE total order) in the top
/// 64 bits, the insertion sequence in the next 40 and the payload's slab
/// slot in the low 24. Integer order on keys is therefore (time, seq)
/// order; the slot never decides, because seqs are unique.
#[inline]
fn order_key(time_s: f64, seq: u64, slot: u32) -> u128 {
    let bits = time_s.to_bits();
    // As in `total_cmp`: a negative time's magnitude bits are flipped so
    // it orders below every smaller magnitude.
    let total = bits ^ ((((bits as i64) >> 63) as u64) >> 1) ^ SIGN;
    ((total as u128) << 64) | ((seq as u128) << SLOT_BITS) | slot as u128
}

/// The time packed into `key`, bit for bit.
#[inline]
fn time_of(key: u128) -> f64 {
    let total = ((key >> 64) as u64) ^ SIGN;
    f64::from_bits(total ^ ((((total as i64) >> 63) as u64) >> 1))
}

/// The slab slot packed into `key`.
#[inline]
fn slot_of(key: u128) -> u32 {
    (key as u32) & ((1 << SLOT_BITS) - 1)
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

/// Number of named FIFO streams a [`Scheduler`] offers
/// ([`Scheduler::schedule_on`]).
pub const STREAMS: usize = 16;

/// Which of a calendar's structures its pops came from, and how the
/// pushes that named a stream fared. Unlike [`SchedulerCounters`] these
/// depend on where the caller files its events, not on the event
/// stream alone, so they are a diagnostic and never part of a report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CalendarPaths {
    /// Pops from the heap.
    pub heap_pops: u64,
    /// Pops from the lane.
    pub lane_pops: u64,
    /// Pops from the named streams.
    pub stream_pops: u64,
    /// Pushes that named each stream.
    pub named: [u64; STREAMS],
    /// Of those, the ones below their stream's tail, which went to the
    /// lane or the heap instead.
    pub fell_back: [u64; STREAMS],
}

/// The named FIFO streams, boxed into a [`Scheduler`] on its first
/// named push.
#[derive(Debug, Clone)]
struct Streams {
    /// Each stream's keys, ascending: a key joins only at or above the
    /// stream's tail.
    fifo: [VecDeque<u128>; STREAMS],
    /// A winner tree over the stream fronts. Node `STREAMS + j` holds
    /// stream `j`'s front key (`u128::MAX` while it is empty; no finite
    /// time packs to that key), and node `i` below that the smaller of
    /// nodes `2i` and `2i + 1`, so node 1 holds the smallest front.
    key: [u128; 2 * STREAMS],
    /// The stream whose front each node of `key` holds.
    win: [u8; 2 * STREAMS],
    /// Pushes naming each stream ([`CalendarPaths::named`]).
    named: [u64; STREAMS],
    /// Of those, the ones that fell back ([`CalendarPaths::fell_back`]).
    fell_back: [u64; STREAMS],
}

impl Streams {
    fn new() -> Self {
        // A leaf names its own stream. An inner node's stream matters
        // only once a match wrote it: until then its key is `u128::MAX`,
        // which never wins.
        let mut win = [0; 2 * STREAMS];
        for (node, w) in win.iter_mut().enumerate().skip(STREAMS) {
            *w = (node - STREAMS) as u8;
        }
        Self {
            fifo: std::array::from_fn(|_| VecDeque::new()),
            key: [u128::MAX; 2 * STREAMS],
            win,
            named: [0; STREAMS],
            fell_back: [0; STREAMS],
        }
    }

    /// Sets stream `j`'s front to `front` and replays its matches up to
    /// the root; returns the new smallest front. Each match takes the
    /// sibling's stored winner, so the running winner stays in registers.
    #[inline]
    fn refront(&mut self, j: usize, front: u128) -> u128 {
        let mut node = STREAMS + j;
        let (mut key, mut win) = (front, j as u8);
        self.key[node] = key;
        while node > 1 {
            let sibling = node ^ 1;
            // A mask, not a branch: which side wins is a coin flip.
            let take = ((self.key[sibling] < key) as u128).wrapping_neg();
            key = (self.key[sibling] & take) | (key & !take);
            win = (self.win[sibling] & take as u8) | (win & !take as u8);
            node /= 2;
            self.key[node] = key;
            self.win[node] = win;
        }
        key
    }

    /// Appends `key` to stream `j` if it is no smaller than the tail;
    /// `None` means the caller files it elsewhere, `Some` carries the
    /// smallest front afterwards.
    #[inline(always)]
    fn push(&mut self, j: usize, key: u128) -> Option<u128> {
        self.named[j] += 1;
        let top = match self.fifo[j].back() {
            Some(&tail) if key < tail => {
                self.fell_back[j] += 1;
                return None;
            }
            Some(_) => self.key[1],
            None => self.refront(j, key),
        };
        self.fifo[j].push_back(key);
        Some(top)
    }

    /// Removes the smallest front; returns the next smallest.
    #[inline]
    fn pop(&mut self) -> u128 {
        let j = self.win[1] as usize;
        self.fifo[j].pop_front();
        let next = self.fifo[j].front().copied().unwrap_or(u128::MAX);
        self.refront(j, next)
    }
}

/// Which structure holds a calendar's next key.
#[derive(Debug, Clone, Copy)]
enum Source {
    Heap,
    Lane,
    Stream,
}

/// A discrete-event calendar with deterministic tie-breaking.
///
/// Each pending event is one 16-byte integer key, ordered by (time,
/// insertion sequence), in one of three kinds of place: a binary heap,
/// a FIFO lane, or one of [`STREAMS`] named FIFO streams. The payloads
/// sit still in a slab whose freed slots are reused last-in first-out,
/// and `pop` copies its payload out of the slot it frees (hence
/// `E: Copy`).
///
/// Every structure is kept sorted, so `pop` takes the smallest of the
/// heap's top, the lane's front and the streams' smallest front, which
/// a winner tree over the stream fronts keeps at hand. Keys are unique,
/// so the pop order is exactly the (time, seq) order whichever
/// structure holds a key: events scheduled for the same instant fire in
/// insertion order, which makes simulation runs bit-for-bit
/// reproducible, and where a caller files its events changes only the
/// speed.
///
/// * **The lane** takes a [`schedule_at`](Self::schedule_at) key no
///   smaller than its tail. A key below its next-to-last key is sifted
///   into the heap; a key between the two takes the tail's place and the
///   tail moves to the heap, so one far-future event (a timeline
///   snapshot, a long backoff) cannot shut a periodic stream out of the
///   lane. Either way a push costs at most one heap insertion. Periodic
///   self-rescheduling events (each satellite's next imaging event, one
///   period ahead) arrive in key order and never touch the heap.
/// * **A named stream** takes a [`schedule_on`](Self::schedule_on) key
///   no smaller than that stream's tail; a smaller key falls back to the
///   lane rule. A caller names a stream for a class of events it pushes
///   in time order, such as arrivals of one Poisson source or backoffs
///   of one constant delay, which would otherwise interleave with each
///   other and sift a deep heap: counted by kind, retry backoffs spread
///   over every unit were most of the 127 keys the serving simulation's
///   heap held on average. The streams are allocated on the first named
///   push, so a calendar that never names one pays one predictable
///   compare per pop.
///
/// The calendar counts scheduled and processed events and the high-water
/// mark of pending events in all three places ([`Scheduler::counters`]),
/// and, as a diagnostic, where its pops came from
/// ([`Scheduler::paths`]).
///
/// It holds at most 2²⁴ pending events and 2⁴⁰ insertions over its
/// life; [`Scheduler::schedule_at`] panics past either.
#[derive(Debug, Clone)]
pub struct Scheduler<E> {
    queue: BinaryHeap<Reverse<u128>>,
    /// Keys in ascending order: a key joins only at or above the
    /// next-to-last key, and a larger tail it displaces moves to `queue`.
    lane: VecDeque<u128>,
    /// The named streams; `None` until a push names one.
    streams: Option<Box<Streams>>,
    /// The streams' smallest front key, `u128::MAX` while they are empty.
    stream_front: u128,
    /// Payloads by slot; a slot is live while a key names it, so the
    /// pending events number `slab.len() - free.len()`.
    slab: Vec<E>,
    /// Slots of popped events, reused last-in first-out.
    free: Vec<u32>,
    now: Time,
    /// `scheduled` doubles as the next insertion sequence number.
    counters: SchedulerCounters,
    /// Pops by source; the stream counts live in `streams`.
    heap_pops: u64,
    lane_pops: u64,
    stream_pops: u64,
}

impl<E: Copy> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Copy> Scheduler<E> {
    /// Creates an empty calendar at time zero.
    pub fn new() -> Self {
        Self {
            queue: BinaryHeap::new(),
            lane: VecDeque::new(),
            streams: None,
            stream_front: u128::MAX,
            slab: Vec::new(),
            free: Vec::new(),
            now: Time::ZERO,
            counters: SchedulerCounters::default(),
            heap_pops: 0,
            lane_pops: 0,
            stream_pops: 0,
        }
    }

    /// The event counters so far.
    pub fn counters(&self) -> SchedulerCounters {
        self.counters
    }

    /// Where the pops so far came from, and how the named pushes fared.
    pub fn paths(&self) -> CalendarPaths {
        let mut paths = CalendarPaths {
            heap_pops: self.heap_pops,
            lane_pops: self.lane_pops,
            stream_pops: self.stream_pops,
            ..CalendarPaths::default()
        };
        if let Some(streams) = &self.streams {
            paths.named = streams.named;
            paths.fell_back = streams.fell_back;
        }
        paths
    }

    /// Adds a finished co-scheduler's counters and pop counts into this
    /// one. Sharded runs merge their per-shard schedulers through this:
    /// scheduled and processed counts add exactly; the peak-depth
    /// high-water marks add too — the shard queues coexist in time, so
    /// the sum is the aggregate queue-depth bound (per-shard peaks need
    /// not coincide, making it an upper bound rather than the exact
    /// global peak). Merge only once every scheduler has stopped:
    /// `scheduled` is also this calendar's insertion sequence.
    pub fn absorb(&mut self, other: &Self) {
        self.counters.scheduled += other.counters.scheduled;
        self.counters.processed += other.counters.processed;
        self.counters.peak_queue_depth += other.counters.peak_queue_depth;
        self.heap_pops += other.heap_pops;
        self.lane_pops += other.lane_pops;
        self.stream_pops += other.stream_pops;
        if let Some(theirs) = &other.streams {
            let ours = self.streams.get_or_insert_with(|| Box::new(Streams::new()));
            for j in 0..STREAMS {
                ours.named[j] += theirs.named[j];
                ours.fell_back[j] += theirs.fell_back[j];
            }
        }
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
        self.pending()
    }

    /// Whether the calendar is empty.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    /// Pending events, wherever their keys are.
    #[inline]
    fn pending(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    /// Schedules `payload` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current time or not finite, or if
    /// the calendar is full (2²⁴ pending events or 2⁴⁰ insertions).
    #[inline]
    pub fn schedule_at(&mut self, at: Time, payload: E) {
        self.push(at, payload, None);
    }

    /// Schedules `payload` at absolute time `at` on named stream
    /// `stream`: appended there if no earlier than the stream's last
    /// key, and filed as by [`schedule_at`](Self::schedule_at)
    /// otherwise. Either way it pops in (time, seq) order.
    ///
    /// # Panics
    ///
    /// As [`schedule_at`](Self::schedule_at), and if `stream` is not
    /// below [`STREAMS`].
    #[inline]
    pub fn schedule_on(&mut self, stream: usize, at: Time, payload: E) {
        self.push(at, payload, Some(stream));
    }

    #[inline(always)]
    fn push(&mut self, at: Time, payload: E, stream: Option<usize>) {
        let seq = self.counters.scheduled;
        if !(at.is_finite() && at >= self.now && seq < 1 << SEQ_BITS) {
            self.refuse(at);
        }
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = payload;
                slot
            }
            None => {
                let slot = self.slab.len();
                if slot >= 1 << SLOT_BITS {
                    self.refuse(at);
                }
                self.slab.push(payload);
                slot as u32
            }
        };
        let key = order_key(at.as_secs(), seq, slot);
        let streamed = match stream {
            Some(j) => self
                .streams
                .get_or_insert_with(|| Box::new(Streams::new()))
                .push(j, key),
            None => None,
        };
        if let Some(front) = streamed {
            self.stream_front = front;
        } else {
            let n = self.lane.len();
            if n >= 2 && key < self.lane[n - 2] {
                self.queue.push(Reverse(key));
            } else {
                // The key is no smaller than the lane's next-to-last key:
                // it joins the lane, and a larger tail moves to the heap.
                if let Some(&tail) = self.lane.back().filter(|&&tail| key < tail) {
                    self.lane.pop_back();
                    self.queue.push(Reverse(tail));
                }
                self.lane.push_back(key);
            }
        }
        self.counters.scheduled += 1;
        self.counters.peak_queue_depth = self.counters.peak_queue_depth.max(self.pending() as u64);
    }

    /// Panics with the reason a push of an event at `at` is refused;
    /// kept out of line so the push inlines without its messages.
    #[cold]
    #[inline(never)]
    fn refuse(&self, at: Time) {
        assert!(at.is_finite(), "event time must be finite");
        assert!(
            at >= self.now,
            "cannot schedule into the past ({} < {})",
            at,
            self.now
        );
        let seq = self.counters.scheduled;
        assert!(seq < 1 << SEQ_BITS, "event calendar full: {seq} insertions");
        let slot = self.slab.len();
        assert!(
            slot < 1 << SLOT_BITS,
            "event calendar full: {slot} pending events"
        );
    }

    /// Schedules `payload` after a delay from the current time.
    ///
    /// # Panics
    ///
    /// Panics if the delay is negative or not finite.
    #[inline]
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
        self.next_key()
            .map(|(key, _)| Time::from_secs(time_of(key)))
    }

    /// The smallest pending key, and which structure holds it.
    #[inline]
    fn next_key(&self) -> Option<(u128, Source)> {
        let next = match (self.lane.front(), self.queue.peek()) {
            (Some(&lane), Some(&Reverse(heap))) if heap < lane => Some((heap, Source::Heap)),
            (Some(&lane), _) => Some((lane, Source::Lane)),
            (None, heap) => heap.map(|&Reverse(heap)| (heap, Source::Heap)),
        };
        match next {
            // No stream holds an event.
            _ if self.stream_front == u128::MAX => next,
            Some((key, _)) if key < self.stream_front => next,
            _ => Some((self.stream_front, Source::Stream)),
        }
    }

    /// Removes `key`, the key [`Self::next_key`] just named, advances
    /// the clock to its time and copies its payload out.
    #[inline]
    fn take(&mut self, key: u128, source: Source) -> Event<E> {
        match source {
            Source::Lane => {
                self.lane.pop_front();
                self.lane_pops += 1;
            }
            Source::Heap => {
                self.queue.pop();
                self.heap_pops += 1;
            }
            Source::Stream => {
                if let Some(streams) = self.streams.as_mut() {
                    self.stream_front = streams.pop();
                }
                self.stream_pops += 1;
            }
        }
        let slot = slot_of(key);
        self.free.push(slot);
        self.now = Time::from_secs(time_of(key));
        self.counters.processed += 1;
        Event {
            time: self.now,
            payload: self.slab[slot as usize],
        }
    }

    /// Pops the next event, advancing the clock to its time.
    #[inline]
    pub fn pop(&mut self) -> Option<Event<E>> {
        let (key, source) = self.next_key()?;
        Some(self.take(key, source))
    }

    /// Pops the next event only if it fires at or before `until`.
    #[inline]
    pub fn pop_until(&mut self, until: Time) -> Option<Event<E>> {
        let (key, source) = self.next_key()?;
        (time_of(key) <= until.as_secs()).then(|| self.take(key, source))
    }

    /// Drains and drops all pending events (e.g. at simulation end).
    #[cfg(test)]
    pub fn clear(&mut self) {
        self.queue.clear();
        self.lane.clear();
        if let Some(streams) = self.streams.as_mut() {
            for j in 0..STREAMS {
                streams.fifo[j].clear();
                self.stream_front = streams.refront(j, u128::MAX);
            }
        }
        self.slab.clear();
        self.free.clear();
    }
}

/// Runs a handler over every event up to `until`, in order.
///
/// The handler receives mutable access to both the caller's state and the
/// scheduler (to schedule follow-up events).
pub fn run_until<E: Copy, S>(
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
    use crate::prop::{self, any};
    use crate::rng::Rng64;

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
    /// pushes and interleaved pops, and every pop returns the payload
    /// pushed with that event. Timestamps are drawn from a coarse grid
    /// so collisions are common and the FIFO tie-break is genuinely
    /// exercised; payloads are distinct, and interleaved pops free
    /// slots that later pushes reuse. A periodic ticker, which like a
    /// satellite's imaging event always schedules a fixed step past its
    /// previous firing, is mixed into the random pushes, so the lane and
    /// the heap both hold keys and the pops interleave them.
    #[test]
    fn calendar_matches_binary_heap_order() {
        let mut both_sides = 0u32;
        prop::check("calendar_matches_binary_heap_order", 256, |g| {
            let ops = g.draw(prop::vec((0u8..5, 0u16..500, any::<u32>()), 1..300));
            let period = g.draw(1u64..40);

            let mut cal = Scheduler::new();
            let mut reference: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::new();
            let mut seq = 0u64;
            let mut floor = 0u64; // reference clock, integer grid ticks
            let mut tick = 0u64; // the ticker's last firing, grid ticks
            let mut seen_both = false;
            for (op, slot, tag) in ops {
                if op == 0 {
                    // Pop from both and compare (time, payload).
                    let got = cal.pop().map(|ev| (ev.time.as_secs(), ev.payload));
                    let want = reference.pop().map(|Reverse((t, _, p))| {
                        floor = t;
                        (t as f64 * 0.5, p)
                    });
                    assert_eq!(got, want);
                } else {
                    // Push on a 0.5 s grid at/after the current clock so
                    // schedule_at never panics; ~500 slots force ties.
                    // The ticker's times never decrease. The payload's
                    // high half is random and its low half the insertion
                    // seq, so no two are equal.
                    let t = if op == 1 {
                        tick = tick.max(floor) + period;
                        tick
                    } else {
                        floor + slot as u64
                    };
                    let payload = (u64::from(tag) << 32) | seq;
                    cal.schedule_at(Time::from_secs(t as f64 * 0.5), payload);
                    reference.push(Reverse((t, seq, payload)));
                    seq += 1;
                }
                seen_both |= !cal.lane.is_empty() && !cal.queue.is_empty();
                assert_eq!(cal.len(), reference.len());
            }
            both_sides += u32::from(seen_both);
            // Freed slots are reused: the slab never outgrows the peak.
            assert!(cal.slab.len() as u64 <= cal.counters().peak_queue_depth);
            // Drain what is left: full order must agree.
            while let Some(Reverse((t, _, p))) = reference.pop() {
                let got = cal.pop().map(|ev| (ev.time.as_secs(), ev.payload));
                assert_eq!(got, Some((t as f64 * 0.5, p)));
            }
            assert!(cal.is_empty());
        });
        assert!(
            both_sides > 128,
            "lane and heap were both occupied in only {both_sides} of 256 cases"
        );
    }

    /// Named streams keep the pop order exactly that of a reference
    /// binary heap over `(time, seq)`. Each push names a random stream
    /// or none, at a time either past that stream's last one (so it
    /// appends) or anywhere at or after the clock (so it may fall below
    /// the stream's tail and fall back to the lane or heap). Pops,
    /// `pop_until` bounds that refuse or accept, and `clear` interleave
    /// with the pushes; after each step the pending count agrees, and a
    /// refusal changes nothing.
    #[test]
    fn streams_pop_in_binary_heap_order() {
        let (mut fell_back, mut streamed) = (0u64, 0u64);
        prop::check("streams_pop_in_binary_heap_order", 256, |g| {
            let ops = g.draw(prop::vec(
                (
                    (0u8..12, 0u16..300),
                    (0u8..(STREAMS as u8 + 2), any::<u32>()),
                ),
                1..300,
            ));
            let mut cal = Scheduler::new();
            let mut reference: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::new();
            let mut seq = 0u64;
            let mut floor = 0u64; // reference clock, grid ticks
            let mut tails = [0u64; STREAMS]; // each stream's last time
            for ((op, ticks), (stream, tag)) in ops {
                let half = |t: u64| t as f64 * 0.5;
                match op {
                    0 | 1 => {
                        let got = cal.pop().map(|ev| (ev.time.as_secs(), ev.payload));
                        let want = reference.pop().map(|Reverse((t, _, p))| {
                            floor = t;
                            (half(t), p)
                        });
                        assert_eq!(got, want);
                    }
                    2 | 3 => {
                        let bound = floor + u64::from(ticks % 8);
                        let before = (cal.len(), cal.now(), cal.counters(), cal.paths());
                        let got = cal
                            .pop_until(Time::from_secs(half(bound)))
                            .map(|ev| (ev.time.as_secs(), ev.payload));
                        let want = match reference.peek() {
                            Some(&Reverse((t, _, _))) if t <= bound => {
                                reference.pop().map(|Reverse((t, _, p))| {
                                    floor = t;
                                    (half(t), p)
                                })
                            }
                            _ => None,
                        };
                        assert_eq!(got, want);
                        if got.is_none() {
                            assert_eq!((cal.len(), cal.now(), cal.counters(), cal.paths()), before);
                        }
                    }
                    4 if ticks < 10 => {
                        cal.clear();
                        reference.clear();
                    }
                    _ => {
                        // `stream` past the last index names no stream.
                        let named = (stream as usize) < STREAMS;
                        let t = if named && op % 2 == 0 {
                            let j = stream as usize;
                            tails[j] = tails[j].max(floor) + u64::from(ticks % 20);
                            tails[j]
                        } else {
                            floor + u64::from(ticks)
                        };
                        let payload = (u64::from(tag) << 32) | seq;
                        let at = Time::from_secs(half(t));
                        if named {
                            cal.schedule_on(stream as usize, at, payload);
                        } else {
                            cal.schedule_at(at, payload);
                        }
                        reference.push(Reverse((t, seq, payload)));
                        seq += 1;
                    }
                }
                assert_eq!(cal.len(), reference.len());
            }
            let c = cal.counters();
            assert!(c.peak_queue_depth >= cal.len() as u64);
            while let Some(Reverse((t, _, p))) = reference.pop() {
                let got = cal.pop().map(|ev| (ev.time.as_secs(), ev.payload));
                assert_eq!(got, Some((t as f64 * 0.5, p)));
            }
            assert!(cal.is_empty() && cal.pop().is_none());
            let paths = cal.paths();
            assert_eq!(
                paths.heap_pops + paths.lane_pops + paths.stream_pops,
                cal.counters().processed
            );
            fell_back += paths.fell_back.iter().sum::<u64>();
            streamed += paths.stream_pops;
        });
        assert!(
            fell_back > 1000 && streamed > 10_000,
            "too few fallbacks ({fell_back}) or stream pops ({streamed})"
        );
    }

    /// A key below its stream's tail falls back to the lane rule (here
    /// the heap, below the lane's keys) and still pops in (time, seq)
    /// order; the stream, lane and heap pops and the fallback are
    /// counted where they happened.
    #[test]
    fn a_key_below_its_stream_tail_falls_back_and_pops_in_order() {
        let mut s = Scheduler::new();
        s.schedule_at(Time::from_secs(3.0), 'c');
        s.schedule_at(Time::from_secs(8.0), 'h');
        s.schedule_on(5, Time::from_secs(2.0), 'b');
        s.schedule_on(5, Time::from_secs(6.0), 'f');
        // Below stream 5's tail (6 s) and the lane's next-to-last key.
        s.schedule_on(5, Time::from_secs(1.0), 'a');
        // The same time as the tail but a later seq: the stream takes it.
        s.schedule_on(5, Time::from_secs(6.0), 'F');
        s.schedule_on(9, Time::from_secs(4.0), 'd');
        assert_eq!((s.lane.len(), s.queue.len(), s.len()), (2, 1, 7));
        assert_eq!(s.counters().peak_queue_depth, 7);
        let order: String = std::iter::from_fn(|| s.pop().map(|e| e.payload)).collect();
        assert_eq!(order, "abcdfFh");
        let paths = s.paths();
        assert_eq!(
            (paths.heap_pops, paths.lane_pops, paths.stream_pops),
            (1, 2, 4)
        );
        assert_eq!((paths.named[5], paths.fell_back[5]), (4, 1));
        assert_eq!((paths.named[9], paths.fell_back[9]), (1, 0));
    }

    /// A key below the lane's next-to-last key goes to the heap; one
    /// between the last two keys takes the tail's place and sends the
    /// tail to the heap. Pops still interleave the two in key order.
    #[test]
    fn keys_below_the_lane_tail_go_to_the_heap_or_displace_it() {
        let mut s = Scheduler::new();
        for (t, c) in [(1.0, 'a'), (4.0, 'e'), (6.0, 'g')] {
            s.schedule_at(Time::from_secs(t), c);
        }
        // Below the next-to-last key (4 s), above the front (1 s).
        s.schedule_at(Time::from_secs(2.0), 'b');
        assert_eq!((s.lane.len(), s.queue.len()), (3, 1));
        // Between 4 s and the tail's 6 s: the tail moves to the heap.
        s.schedule_at(Time::from_secs(5.0), 'f');
        assert_eq!((s.lane.len(), s.queue.len()), (3, 2));
        assert_eq!(s.lane.back().map(|&k| time_of(k)), Some(5.0));
        // Equal to the tail's time but a later seq: the lane takes it.
        s.schedule_at(Time::from_secs(5.0), 'F');
        // The same time as a lane key but a later seq, below the tail.
        s.schedule_at(Time::from_secs(4.0), 'E');
        assert_eq!((s.lane.len(), s.queue.len()), (4, 3));
        assert_eq!(s.counters().peak_queue_depth, 7);
        let order: String = std::iter::from_fn(|| s.pop().map(|e| e.payload)).collect();
        assert_eq!(order, "abeEfFg");
    }

    /// A refused `pop_until` changes nothing: not the lane, the heap,
    /// the clock nor the counters, whichever side holds the next key.
    #[test]
    fn refused_pop_until_leaves_lane_and_heap_untouched() {
        let mut s = Scheduler::new();
        s.schedule_at(Time::from_secs(5.0), 5);
        s.schedule_at(Time::from_secs(10.0), 10);
        s.schedule_at(Time::from_secs(7.0), 7);
        let snapshot = |s: &Scheduler<i32>| {
            let mut heap = s.queue.clone().into_sorted_vec();
            heap.reverse();
            (s.lane.clone(), heap, s.now(), s.counters())
        };
        // The lane holds the next key (5 s).
        let before = snapshot(&s);
        assert!(s.pop_until(Time::from_secs(4.0)).is_none());
        assert_eq!(snapshot(&s), before);
        assert_eq!(
            s.pop_until(Time::from_secs(6.0)).map(|e| e.payload),
            Some(5)
        );
        // Now the heap holds the next key (7 s), ahead of the lane's 10 s.
        let before = snapshot(&s);
        assert!(s.pop_until(Time::from_secs(6.5)).is_none());
        assert_eq!(snapshot(&s), before);
        assert_eq!((s.lane.len(), s.queue.len()), (1, 1));
        let order: Vec<i32> = std::iter::from_fn(|| s.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec![7, 10]);
    }

    /// Times that stress the key's sign flip and bit layout: both
    /// zeros, subnormals, exact ties, times near 10⁹ s, negatives and
    /// ordinary values.
    fn edge_time(r: &mut Rng64) -> f64 {
        const EDGES: [f64; 8] = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            1e9,
            f64::MAX,
            f64::MIN,
            1.0,
        ];
        match r.next_below(5) {
            0 => EDGES[r.next_below(EDGES.len() as u64) as usize],
            // A subnormal of either sign.
            1 => f64::from_bits(r.next_below(1 << 52) | (r.next_below(2) << 63)),
            2 => r.range_f64(1e9 - 1e3, 1e9 + 1e3),
            3 => r.range_f64(-1e3, 1e3),
            // Any finite bit pattern.
            _ => loop {
                let t = f64::from_bits(r.next_u64());
                if t.is_finite() {
                    break t;
                }
            },
        }
    }

    /// `order_key`'s integer order is `(total_cmp, seq)` order. A seq
    /// drawn from a small range makes equal seqs common, and an equal
    /// time is drawn a third of the time.
    #[test]
    fn order_key_orders_like_total_cmp_then_seq() {
        prop::check("order_key_orders_like_total_cmp_then_seq", 2048, |g| {
            let a = g.draw(edge_time);
            let b = match g.draw(0u8..3) {
                0 => a,
                _ => g.draw(edge_time),
            };
            let seq = |g: &mut prop::Gen| match g.draw(any::<bool>()) {
                true => g.draw(0u64..4),
                false => g.draw(0u64..1 << SEQ_BITS),
            };
            let (sa, sb) = (seq(g), seq(g));
            let slot = g.draw(0u32..1 << SLOT_BITS);
            let want = a.total_cmp(&b).then(sa.cmp(&sb));
            assert_eq!(
                order_key(a, sa, slot).cmp(&order_key(b, sb, slot)),
                want,
                "({a:e}, {sa}) vs ({b:e}, {sb})"
            );
        });
    }

    /// Unpacking a key gives back the time bit for bit and the slot.
    #[test]
    fn order_key_round_trips_time_and_slot() {
        prop::check("order_key_round_trips_time_and_slot", 2048, |g| {
            let t = g.draw(edge_time);
            let seq = g.draw(0u64..1 << SEQ_BITS);
            let slot = g.draw(0u32..1 << SLOT_BITS);
            let key = order_key(t, seq, slot);
            assert_eq!(time_of(key).to_bits(), t.to_bits(), "{t:e}");
            assert_eq!(slot_of(key), slot);
        });
    }

    /// The largest seq and slot fit their fields without spilling into
    /// the next one, and the order still breaks on time first.
    #[test]
    fn packing_keeps_fields_apart_at_their_limits() {
        let (max_seq, max_slot) = ((1u64 << SEQ_BITS) - 1, (1u32 << SLOT_BITS) - 1);
        let t = 1e9;
        let key = order_key(t, max_seq, max_slot);
        assert_eq!(time_of(key), t);
        assert_eq!(slot_of(key), max_slot);
        assert!(key < order_key(t.next_up(), 0, 0));
        assert!(order_key(t, max_seq - 1, max_slot) < order_key(t, max_seq, 0));
        assert_eq!(
            time_of(order_key(-0.0, max_seq, max_slot)).to_bits(),
            (-0.0f64).to_bits()
        );
    }

    #[test]
    #[should_panic(expected = "event calendar full")]
    fn scheduling_past_the_seq_limit_panics() {
        let mut s: Scheduler<()> = Scheduler::new();
        s.counters.scheduled = 1 << SEQ_BITS;
        s.schedule_at(Time::from_secs(1.0), ());
    }
}
