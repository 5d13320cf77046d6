//! The dynamic batcher: per-(SµDC, tenant) request queues that exploit
//! the saturating batch-throughput model, and each SµDC's in-service
//! FIFO. Three policies decide when a queue fires into the shared
//! compute pipeline: fixed-size, deadline-triggered, and adaptive
//! (backlog-aware). Dispatch order and timing are pure functions of
//! queue state and sim time — no RNG — and stale deadline timers are
//! invalidated by a per-queue epoch counter, so serve runs replay
//! byte-identically.
//!
//! A SµDC runs one compute pipeline first in first out
//! ([`Service::admit_batch`](crate::sim::service::Service::admit_batch)
//! starts a batch when the previous one is done), so its batches finish
//! in dispatch order: done times never decrease per SµDC, and the event
//! calendar breaks equal times by push order. A dispatched batch
//! therefore needs no id: [`Batcher::dispatch`] appends its requests to
//! the SµDC's in-service FIFO, and [`Batcher::complete`] pops them off
//! the front when the batch's completion event fires.

use std::collections::vec_deque::{IterMut, VecDeque};

use crate::sim::serve::config::{
    BatchPolicy, DEADLINE_WAIT_S, FIXED_BATCH, FLUSH_WAIT_S, MAX_BATCH, SATURATION_BATCH,
};
use crate::sim::serve::state::Request;

/// One (SµDC, tenant) queue.
#[derive(Debug, Clone, Default)]
struct Queue {
    reqs: Vec<Request>,
    /// Bumped on every dispatch; a timer event carrying an older epoch
    /// is stale and ignored.
    epoch: u64,
    /// Whether a flush timer is outstanding for the current epoch.
    timer_armed: bool,
}

/// All queues plus each SµDC's in-service requests.
#[derive(Debug)]
pub struct Batcher {
    policy: BatchPolicy,
    tenants: usize,
    queues: Vec<Queue>,
    /// Per SµDC, the requests of its dispatched batches that have not
    /// completed, in dispatch order. Each FIFO grows to the SµDC's
    /// largest in-service backlog and is reused, so dispatch allocates
    /// nothing per batch.
    pipelines: Vec<VecDeque<Request>>,
    /// Batches dispatched so far.
    pub batches_dispatched: u64,
    /// Requests dispatched inside those batches.
    pub requests_batched: u64,
    /// Σ over batches of `size × (min(size, knee) / knee)` — the
    /// request-weighted batch efficiency numerator.
    efficiency_weighted: f64,
}

impl Batcher {
    /// Empty queues for `units` SµDCs × `tenants` tenants, fired by
    /// `policy`.
    pub fn new(policy: BatchPolicy, tenants: usize, units: usize) -> Batcher {
        Batcher {
            policy,
            tenants,
            queues: (0..units * tenants).map(|_| Queue::default()).collect(),
            pipelines: (0..units).map(|_| VecDeque::new()).collect(),
            batches_dispatched: 0,
            requests_batched: 0,
            efficiency_weighted: 0.0,
        }
    }

    fn index(&self, cluster: usize, tenant: usize) -> usize {
        cluster * self.tenants + tenant
    }

    /// Queued requests for one (SµDC, tenant) queue.
    pub fn len(&self, cluster: usize, tenant: usize) -> usize {
        self.queues[self.index(cluster, tenant)].reqs.len()
    }

    /// Current timer epoch of one queue.
    #[cfg(test)]
    pub fn epoch(&self, cluster: usize, tenant: usize) -> u64 {
        self.queues[self.index(cluster, tenant)].epoch
    }

    /// Appends an arrived request to its queue (arrival order).
    pub fn push(&mut self, cluster: usize, req: Request) {
        let i = self.index(cluster, req.tenant as usize);
        self.queues[i].reqs.push(req);
    }

    /// Whether the queue should dispatch now, given the SµDC pipeline's
    /// backlog depth (`depth_s` seconds of queued service time).
    pub fn ready(&self, cluster: usize, tenant: usize, depth_s: f64) -> bool {
        let len = self.len(cluster, tenant);
        if len == 0 {
            return false;
        }
        match self.policy {
            BatchPolicy::Fixed => len >= FIXED_BATCH,
            BatchPolicy::Deadline => len >= MAX_BATCH,
            BatchPolicy::Adaptive => {
                if depth_s <= 0.0 {
                    // Pipeline idle: latency first, dispatch whatever
                    // is queued.
                    true
                } else {
                    // Pipeline busy: accumulate to the knee so the
                    // waiting costs buy saturated throughput.
                    len >= SATURATION_BATCH as usize
                }
            }
        }
    }

    /// Arms the flush timer for the queue's head request: returns the
    /// absolute deadline (seconds) and the epoch the timer must carry.
    /// `None` when the queue is empty or a timer is already armed for
    /// this epoch.
    ///
    /// The deadline anchors to the head's creation time, but never to a
    /// point already in the past: a head left over from a partial drain
    /// (more than [`MAX_BATCH`] requests queued) re-anchors at `now_s`,
    /// so the leftovers wait a full flush window instead of firing an
    /// immediate timer on every drain cycle.
    pub fn arm_timer(&mut self, cluster: usize, tenant: usize, now_s: f64) -> Option<(f64, u64)> {
        let wait = match self.policy {
            BatchPolicy::Deadline => DEADLINE_WAIT_S,
            _ => FLUSH_WAIT_S,
        };
        let i = self.index(cluster, tenant);
        let q = &mut self.queues[i];
        let head = q.reqs.first()?;
        if q.timer_armed {
            return None;
        }
        q.timer_armed = true;
        let anchored = head.created.as_secs() + wait;
        let deadline = if anchored < now_s {
            now_s + wait
        } else {
            anchored
        };
        Some((deadline, q.epoch))
    }

    /// Handles a fired timer: stale epochs are ignored; a live timer on
    /// a non-empty queue asks the engine to flush it.
    pub fn timer_fired(&mut self, cluster: usize, tenant: usize, epoch: u64) -> bool {
        let i = self.index(cluster, tenant);
        let q = &mut self.queues[i];
        if q.epoch != epoch {
            return false;
        }
        q.timer_armed = false;
        !q.reqs.is_empty()
    }

    /// Moves up to [`MAX_BATCH`] requests off the queue's head into the
    /// SµDC's in-service FIFO as one batch, bumping the epoch (stale
    /// timers die) and the dispatch statistics. Returns the batch's
    /// requests in arrival order, empty when the queue is.
    pub fn dispatch(&mut self, cluster: usize, tenant: usize) -> IterMut<'_, Request> {
        let i = self.index(cluster, tenant);
        let q = &mut self.queues[i];
        let n = q.reqs.len().min(MAX_BATCH);
        let fifo = &mut self.pipelines[cluster];
        let start = fifo.len();
        if n > 0 {
            fifo.extend(q.reqs.drain(..n));
            q.epoch += 1;
            q.timer_armed = false;
            self.batches_dispatched += 1;
            self.requests_batched += n as u64;
            self.efficiency_weighted +=
                n as f64 * ((n as f64).min(SATURATION_BATCH) / SATURATION_BATCH);
        }
        fifo.range_mut(start..)
    }

    /// Pops the oldest in-service request of SµDC `cluster`: a batch of
    /// `n` completes as `n` calls, in the order it was dispatched.
    pub fn complete(&mut self, cluster: usize) -> Option<Request> {
        self.pipelines[cluster].pop_front()
    }

    /// Request-weighted mean batch efficiency: `throughput(batch) /
    /// throughput(knee)` averaged over every dispatched request (1 when
    /// nothing was dispatched).
    pub fn mean_efficiency(&self) -> f64 {
        if self.requests_batched == 0 {
            1.0
        } else {
            self.efficiency_weighted / self.requests_batched as f64
        }
    }

    /// Mean dispatched batch size (0 when nothing was dispatched).
    pub fn mean_batch(&self) -> f64 {
        if self.batches_dispatched == 0 {
            0.0
        } else {
            self.requests_batched as f64 / self.batches_dispatched as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use units::Time;

    fn req(id: u64, tenant: u32, t_s: f64) -> Request {
        Request {
            id,
            tenant,
            created: Time::from_secs(t_s),
            bits: 1.0e6,
            pixels: 1.0e6,
            slot: crate::sim::serve::state::OPEN_SLOT,
            last_seq: 0,
        }
    }

    /// A batcher for two tenants over `units` SµDCs.
    fn batcher(policy: BatchPolicy, units: usize) -> Batcher {
        Batcher::new(policy, 2, units)
    }

    /// Pushes requests `ids` for tenant 0 of SµDC 0, created at `t_s`.
    fn fill(b: &mut Batcher, ids: std::ops::RangeInclusive<u64>, t_s: f64) {
        for i in ids {
            b.push(0, req(i, 0, t_s));
        }
    }

    #[test]
    fn fixed_fires_at_size_and_not_before() {
        let mut b = batcher(BatchPolicy::Fixed, 2);
        let size = FIXED_BATCH as u64;
        fill(&mut b, 1..=size - 1, 0.0);
        assert!(!b.ready(0, 0, 5.0));
        b.push(0, req(size, 0, 0.2));
        assert!(b.ready(0, 0, 5.0));
        let ids: Vec<u64> = b.dispatch(0, 0).map(|r| r.id).collect();
        assert_eq!(
            ids,
            (1..=size).collect::<Vec<_>>(),
            "arrival order preserved"
        );
        assert_eq!(b.len(0, 0), 0);
    }

    #[test]
    fn deadline_waits_for_the_timer_below_the_cap() {
        let mut b = batcher(BatchPolicy::Deadline, 1);
        b.push(0, req(1, 0, 1.0));
        assert!(!b.ready(0, 0, 0.0), "below MAX_BATCH: the timer decides");
        let (deadline, epoch) = b.arm_timer(0, 0, 1.0).expect("arms once");
        assert!((deadline - (1.0 + DEADLINE_WAIT_S)).abs() < 1e-12);
        assert_eq!(b.arm_timer(0, 0, 1.0), None, "one timer per epoch");
        assert!(b.timer_fired(0, 0, epoch), "live timer flushes");
        fill(&mut b, 2..=MAX_BATCH as u64, 1.0);
        assert!(b.ready(0, 0, 0.0), "the cap fires early");
    }

    #[test]
    fn adaptive_dispatches_immediately_when_idle_and_batches_when_busy() {
        let mut b = batcher(BatchPolicy::Adaptive, 1);
        b.push(0, req(1, 0, 0.0));
        assert!(b.ready(0, 0, 0.0), "idle pipeline: latency first");
        assert!(!b.ready(0, 0, 1.0), "busy pipeline: accumulate");
        fill(&mut b, 2..=SATURATION_BATCH as u64 - 1, 0.0);
        assert!(!b.ready(0, 0, 1.0), "one short of the knee");
        b.push(0, req(SATURATION_BATCH as u64, 0, 0.0));
        assert!(b.ready(0, 0, 1.0), "knee reached: saturated batch");
    }

    #[test]
    fn dispatch_bumps_the_epoch_and_invalidates_stale_timers() {
        let mut b = batcher(BatchPolicy::Deadline, 1);
        b.push(0, req(1, 0, 0.0));
        let (_, epoch) = b.arm_timer(0, 0, 0.0).expect("arms");
        assert_eq!(b.dispatch(0, 0).len(), 1);
        assert!(!b.timer_fired(0, 0, epoch), "stale epoch is ignored");
        assert_eq!(b.complete(0).map(|r| r.id), Some(1));
        assert_eq!(b.complete(0), None, "the batch left the pipeline");
    }

    #[test]
    fn leftover_heads_reanchor_their_timer_at_now() {
        // Two more than MAX_BATCH requests created at t=1.0: dispatch
        // drains MAX_BATCH, leaving a head whose created-anchored
        // deadline (1.05) is already past by the drain cycle at t=2.0.
        // The new timer must wait a full window from now, not fire
        // immediately.
        let mut b = batcher(BatchPolicy::Deadline, 1);
        fill(&mut b, 1..=MAX_BATCH as u64 + 2, 1.0);
        assert_eq!(b.dispatch(0, 0).len(), MAX_BATCH, "over the cap");
        assert_eq!(b.len(0, 0), 2, "partial drain leaves a tail");
        let (deadline, _) = b.arm_timer(0, 0, 2.0).expect("re-arms for the tail");
        assert!(
            (deadline - (2.0 + DEADLINE_WAIT_S)).abs() < 1e-12,
            "leftover head re-anchors at now + wait, got {deadline}"
        );
    }

    #[test]
    fn fresh_heads_keep_their_created_anchor() {
        let mut b = batcher(BatchPolicy::Deadline, 1);
        b.push(0, req(1, 0, 3.0));
        let (deadline, _) = b.arm_timer(0, 0, 3.0).expect("arms");
        assert!((deadline - (3.0 + DEADLINE_WAIT_S)).abs() < 1e-12);
        // The other policies flush stragglers after FLUSH_WAIT_S.
        let mut b = batcher(BatchPolicy::Adaptive, 1);
        b.push(0, req(1, 0, 3.0));
        let (deadline, _) = b.arm_timer(0, 0, 3.0).expect("arms");
        assert!((deadline - (3.0 + FLUSH_WAIT_S)).abs() < 1e-12);
    }

    #[test]
    fn efficiency_is_request_weighted_against_the_knee() {
        let mut b = batcher(BatchPolicy::Fixed, 1);
        // One batch of 1 (efficiency 1/8) and one of 8 (efficiency 1).
        b.push(0, req(1, 0, 0.0));
        assert_eq!(b.dispatch(0, 0).len(), 1);
        fill(&mut b, 2..=9, 0.0);
        assert_eq!(b.dispatch(0, 0).len(), 8);
        // (1 × 0.125 + 8 × 1.0) / 9
        assert!((b.mean_efficiency() - 8.125 / 9.0).abs() < 1e-12);
        assert!((b.mean_batch() - 4.5).abs() < 1e-12);
    }

    #[test]
    fn queues_are_isolated_per_cluster_and_tenant() {
        let mut b = batcher(BatchPolicy::Fixed, 2);
        b.push(0, req(1, 0, 0.0));
        b.push(1, req(2, 1, 0.0));
        assert_eq!(b.len(0, 0), 1);
        assert_eq!(b.len(0, 1), 0);
        assert_eq!(b.len(1, 1), 1);
    }
}
