//! Transport layer of the sim engine: when frames move.
//!
//! Owns the per-satellite ISL occupancy (`link_free` high-water marks)
//! and the forward/reverse link outage processes from `simkit::faults`.
//! The event loop asks this layer whether a link is up, reserves
//! transmission slots, and reads busy time back out for the utilisation
//! report — it never touches the outage processes directly, so a
//! `FaultModel::none()` run provably draws nothing from them.

use simkit::faults::OutageProcess;
use simkit::rng::RngFactory;
use units::{DataRate, Length, Time};

use crate::sim::faults::{FaultSummary, LinkOutageSpec};

/// ISL occupancy and outage state for every satellite's outgoing link.
pub struct Transport {
    /// Next free time of each satellite's outgoing ISL (toward its SµDC).
    link_free: Vec<Time>,
    /// Forward-direction ISL outage process per satellite (present only
    /// when the fault model configures link outages; never drawn
    /// otherwise).
    out_fwd: Option<Vec<OutageProcess>>,
    /// Reverse-direction ISL outage process per satellite — the fallback
    /// path is separate hardware with independent failures.
    out_rev: Option<Vec<OutageProcess>>,
    /// Per-ISL capacity, bit/s.
    capacity_bps: f64,
    /// One-hop propagation delay (ring hop or LEO→GEO slant range).
    hop_prop: Time,
}

impl Transport {
    /// Builds the transport layer for `n` satellites. Outage processes
    /// draw from the dedicated `link_outage` / `link_outage_rev` RNG
    /// streams so enabling them never perturbs discard/shed/SEU draws.
    pub fn new(
        n: usize,
        capacity: DataRate,
        hop_distance: Length,
        outages: Option<LinkOutageSpec>,
        rng: RngFactory,
    ) -> Self {
        let outage_ring = |label: &str, mtbf: Time, mttr: Time| {
            (0..n)
                .map(|i| {
                    // lint:allow(rng-stream-discipline) label is forwarded verbatim from the two literal call sites below
                    OutageProcess::new(rng.stream(label, i as u64), mtbf.as_secs(), mttr.as_secs())
                })
                .collect::<Vec<_>>()
        };
        Self {
            link_free: vec![Time::ZERO; n],
            out_fwd: outages.map(|s| outage_ring("link_outage", s.mtbf, s.mttr)),
            out_rev: outages.map(|s| outage_ring("link_outage_rev", s.mtbf, s.mttr)),
            capacity_bps: capacity.as_bps(),
            hop_prop: Time::from_secs(
                hop_distance.as_m() / units::constants::SPEED_OF_LIGHT_M_PER_S,
            ),
        }
    }

    /// Whether link outages are modelled at all. When `false` the event
    /// loop skips the outage/retry path entirely (the fault-free
    /// byte-identity contract).
    pub fn outages_modelled(&self) -> bool {
        self.out_fwd.is_some()
    }

    /// The earliest time `sat`'s outgoing link could start a new
    /// transmission at or after `now`.
    pub fn next_start(&self, sat: usize, now: Time) -> Time {
        self.link_free[sat].max(now)
    }

    /// Whether `sat`'s link in the frame's travel direction is up at `t`.
    /// Always `true` when no outage model is configured.
    pub fn link_up(&mut self, sat: usize, reversed: bool, t: Time) -> bool {
        let procs = if reversed {
            self.out_rev.as_mut()
        } else {
            self.out_fwd.as_mut()
        };
        match procs {
            Some(v) => v[sat].is_up(t.as_secs()),
            None => true,
        }
    }

    /// Reserves `sat`'s outgoing link for a `bits`-sized frame starting
    /// no earlier than `now` and returns the frame's arrival time at the
    /// next node (transmission + one-hop propagation).
    pub fn transmit(&mut self, sat: usize, now: Time, bits: f64) -> Time {
        let start = self.link_free[sat].max(now);
        let tx = Time::from_secs(bits / self.capacity_bps);
        let done = start + tx;
        self.link_free[sat] = done;
        done + self.hop_prop
    }

    /// Scheduled busy time of `sat`'s outgoing link, seconds. With
    /// back-to-back traffic the `link_free` high-water mark tracks total
    /// transmission time scheduled.
    pub fn busy_s(&self, sat: usize) -> f64 {
        self.link_free[sat].as_secs()
    }

    /// Takes satellite `sat`'s link state — the occupancy high-water
    /// mark and both directions' outage processes — from `donor`, the
    /// shard that owned `sat` in a sharded run. After every owned index
    /// is adopted, the merged transport folds its outage summary and
    /// reads busy time exactly like a sequential run's would.
    pub fn adopt(&mut self, donor: &mut Transport, sat: usize) {
        self.link_free[sat] = donor.link_free[sat];
        if let (Some(mine), Some(theirs)) = (self.out_fwd.as_mut(), donor.out_fwd.as_mut()) {
            std::mem::swap(&mut mine[sat], &mut theirs[sat]);
        }
        if let (Some(mine), Some(theirs)) = (self.out_rev.as_mut(), donor.out_rev.as_mut()) {
            std::mem::swap(&mut mine[sat], &mut theirs[sat]);
        }
    }

    /// Flight-recorder timeline snapshot of modelled link state at `t`:
    /// `(links up, links modelled)` across both ring directions, or
    /// `None` when no outage model is configured. Querying advances the
    /// lazy outage processes to `t`, which is idempotent for the
    /// in-order event loop — recorded runs stay byte-identical to
    /// unrecorded ones.
    pub fn link_states(&mut self, t: Time) -> Option<(u64, u64)> {
        if !self.outages_modelled() {
            return None;
        }
        let (mut up, mut total) = (0u64, 0u64);
        for procs in [self.out_fwd.as_mut(), self.out_rev.as_mut()]
            .into_iter()
            .flatten()
        {
            for p in procs.iter_mut() {
                total += 1;
                up += u64::from(p.is_up(t.as_secs()));
            }
        }
        Some((up, total))
    }

    /// Folds the link outage processes into the fault summary: counts
    /// outage windows that began within the horizon and accumulates
    /// availability into `(sum, count)` for the run-wide average.
    pub fn fold_outages(
        &mut self,
        horizon: f64,
        summary: &mut FaultSummary,
        avail: &mut (f64, usize),
    ) {
        for procs in [self.out_fwd.as_mut(), self.out_rev.as_mut()]
            .into_iter()
            .flatten()
        {
            for p in procs.iter_mut() {
                summary.link_outages += p.outages_before(horizon) as u64;
                avail.0 += p.availability_until(horizon);
                avail.1 += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet(n: usize) -> Transport {
        Transport::new(
            n,
            DataRate::from_gbps(10.0),
            Length::from_km(60.0),
            None,
            RngFactory::new(7),
        )
    }

    #[test]
    fn transmissions_serialize_on_one_link() {
        let mut t = quiet(2);
        let bits = 1e9; // 0.1 s at 10 Gbit/s
        let a = t.transmit(0, Time::ZERO, bits);
        let b = t.transmit(0, Time::ZERO, bits);
        // Second frame waits for the first: arrivals are one tx apart.
        assert!((b.as_secs() - a.as_secs() - 0.1).abs() < 1e-9);
        // Another satellite's link is independent.
        let c = t.transmit(1, Time::ZERO, bits);
        assert_eq!(c, a);
    }

    #[test]
    fn arrival_includes_propagation() {
        let mut t = quiet(1);
        let arrival = t.transmit(0, Time::ZERO, 1e9);
        let prop = 60_000.0 / units::constants::SPEED_OF_LIGHT_M_PER_S;
        assert!((arrival.as_secs() - (0.1 + prop)).abs() < 1e-9);
    }

    #[test]
    fn no_outage_model_means_links_always_up() {
        let mut t = quiet(4);
        assert!(!t.outages_modelled());
        for sat in 0..4 {
            assert!(t.link_up(sat, false, Time::from_secs(1e6)));
            assert!(t.link_up(sat, true, Time::from_secs(1e6)));
        }
        let mut summary = FaultSummary::default();
        let mut avail = (0.0, 0usize);
        t.fold_outages(1e6, &mut summary, &mut avail);
        assert_eq!(summary.link_outages, 0);
        assert_eq!(avail.1, 0);
    }

    #[test]
    fn link_states_snapshot_counts_both_directions() {
        let mut quiet = quiet(4);
        assert_eq!(quiet.link_states(Time::from_secs(10.0)), None);

        let spec = LinkOutageSpec {
            mtbf: Time::from_secs(100.0),
            mttr: Time::from_secs(10.0),
        };
        let mut t = Transport::new(
            8,
            DataRate::from_gbps(10.0),
            Length::from_km(60.0),
            Some(spec),
            RngFactory::new(42),
        );
        let (up, total) = t.link_states(Time::from_secs(50.0)).expect("modelled");
        assert_eq!(total, 16, "8 satellites × 2 directions");
        assert!(up <= total);
        // Idempotent: asking again at the same time changes nothing.
        assert_eq!(t.link_states(Time::from_secs(50.0)), Some((up, total)));
    }

    #[test]
    fn outage_processes_are_seed_deterministic() {
        let spec = LinkOutageSpec {
            mtbf: Time::from_secs(100.0),
            mttr: Time::from_secs(10.0),
        };
        let mk = || {
            Transport::new(
                8,
                DataRate::from_gbps(10.0),
                Length::from_km(60.0),
                Some(spec),
                RngFactory::new(42),
            )
        };
        let (mut a, mut b) = (mk(), mk());
        for sat in 0..8 {
            for step in 0..200 {
                let t = Time::from_secs(step as f64 * 5.0);
                assert_eq!(a.link_up(sat, false, t), b.link_up(sat, false, t));
                assert_eq!(a.link_up(sat, true, t), b.link_up(sat, true, t));
            }
        }
    }
}
