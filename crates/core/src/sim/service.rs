//! Service layer of the sim engine: what happens once frames arrive.
//!
//! Owns the per-SµDC compute pipeline (`sudc_free` high-water marks),
//! cluster liveness (deterministic `failures` entries plus stochastic
//! outage processes), the SEU service-time stretch and silent-corruption
//! coin, and backlog-triggered load shedding. Every stochastic draw uses
//! a dedicated RNG stream (`cluster_outage`, `seu`, `shed`) keyed the
//! same way as the pre-refactor simulator, so fault-free runs draw
//! nothing and faulted runs replay byte-identically.

use simkit::faults::OutageProcess;
use simkit::rng::{coin, RngFactory};
use units::Time;

use crate::sim::faults::{FaultSummary, SeuSpec};
use crate::sim::model::SimConfig;

/// SµDC compute queues, liveness, SEU, and shedding for every service
/// unit.
pub struct Service {
    /// Next free time of each SµDC's compute pipeline.
    sudc_free: Vec<Time>,
    /// Injected deterministic failures: `(unit, failure time)`.
    failures: Vec<(usize, Time)>,
    /// Stochastic SµDC outage process per unit.
    cluster_out: Option<Vec<OutageProcess>>,
    /// Pixels per second one service unit sustains (already divided by
    /// the split factor for `SplitRing`).
    pixel_capacity: f64,
    /// Whether the SEU process is enabled (gates all SEU draws).
    seu_active: bool,
    /// Probability a processed frame's output is silently corrupted.
    seu_p_corrupt: f64,
    /// Mean-service-time stretch from detected-and-recomputed errors.
    seu_service_factor: f64,
    /// SEU coin draws per unit (RNG stream keying).
    seu_draws: Vec<u64>,
    /// SEU coin draws per unit for serve-layer batches (separate stream
    /// keying so serving never perturbs the EO frame pipeline's draws).
    serve_seu_draws: Vec<u64>,
    /// Load shedding: `(backlog threshold bits, base shed probability)`.
    shed: Option<(f64, f64)>,
    /// Shed coin draws so far (RNG stream keying).
    shed_draws: u64,
    rng: RngFactory,
}

impl Service {
    /// Builds the service layer for `units` SµDCs of `pixel_capacity`
    /// px/s each, lifting the fault-model pieces it owns out of `cfg`.
    pub fn new(cfg: &SimConfig, units: usize, pixel_capacity: f64, rng: RngFactory) -> Self {
        let cluster_out = cfg.faults.cluster_outages.map(|s| {
            (0..units)
                .map(|i| {
                    OutageProcess::new(
                        rng.stream("cluster_outage", i as u64),
                        s.mtbf.as_secs(),
                        s.mttr.as_secs(),
                    )
                })
                .collect::<Vec<_>>()
        });
        let (seu_active, seu_p_corrupt, seu_service_factor) = seu_parameters(cfg, cfg.faults.seu);
        Self {
            sudc_free: vec![Time::ZERO; units],
            failures: cfg.failures.clone(),
            cluster_out,
            pixel_capacity,
            seu_active,
            seu_p_corrupt,
            seu_service_factor,
            seu_draws: vec![0; units],
            serve_seu_draws: vec![0; units],
            shed: cfg
                .faults
                .degradation
                .map(|d| (d.backlog_threshold.as_bits(), d.shed_probability)),
            shed_draws: 0,
            rng,
        }
    }

    /// Whether unit `c` is down at `now` — either past a deterministic
    /// `failures` entry or inside a stochastic outage window.
    pub fn cluster_failed(&mut self, c: usize, now: Time) -> bool {
        if self.failures.iter().any(|&(cc, at)| cc == c && now >= at) {
            return true;
        }
        match self.cluster_out.as_mut() {
            Some(procs) => !procs[c].is_up(now.as_secs()),
            None => false,
        }
    }

    /// Backlog-triggered load shedding: sheds a newly kept frame with a
    /// probability escalating from the configured base at the threshold
    /// to 1.0 at twice the threshold. `queued_bits` is the engine's
    /// current in-flight backlog.
    pub fn should_shed(&mut self, sat: usize, queued_bits: f64) -> bool {
        let Some((threshold, base)) = self.shed else {
            return false;
        };
        if queued_bits <= threshold {
            return false;
        }
        let over = (queued_bits - threshold) / threshold;
        let p = (base + (1.0 - base) * over).min(1.0);
        self.shed_coin(sat, p)
    }

    /// The configured degradation threshold in bits, if degradation is
    /// modelled — the policy layer's shed-decision telemetry.
    pub fn shed_threshold_bits(&self) -> Option<f64> {
        self.shed.map(|(threshold, _)| threshold)
    }

    /// Draws one shed coin of probability `p` for satellite `sat` on
    /// the dedicated `shed` stream. The keying and draw accounting are
    /// shared with [`Service::should_shed`] (which is this coin under
    /// the configured escalation), so a policy-driven coin advances the
    /// stream exactly as a baseline draw would.
    pub fn shed_coin(&mut self, sat: usize, p: f64) -> bool {
        self.shed_draws += 1;
        let mut rng = self.rng.stream(
            "shed",
            ((sat as u64) << 32) | (self.shed_draws & 0xFFFF_FFFF),
        );
        coin(&mut rng, p)
    }

    /// Enters a `pixels`-sized frame into unit `c`'s compute queue,
    /// applying the SEU service stretch and corruption coin when the SEU
    /// process is enabled (no draws otherwise). Returns the completion
    /// time and whether the output was silently corrupted.
    pub fn admit(&mut self, pixels: f64, c: usize, now: Time) -> (Time, bool) {
        let start = self.sudc_free[c].max(now);
        let mut service_s = pixels / self.pixel_capacity;
        let mut corrupted = false;
        if self.seu_active {
            service_s *= self.seu_service_factor;
            self.seu_draws[c] += 1;
            let mut rng = self.rng.stream(
                "seu",
                ((c as u64) << 32) | (self.seu_draws[c] & 0xFFFF_FFFF),
            );
            corrupted = coin(&mut rng, self.seu_p_corrupt);
        }
        let done = start + Time::from_secs(service_s);
        self.sudc_free[c] = done;
        (done, corrupted)
    }

    /// Enters `service_s` seconds of serve-layer batch-inference work
    /// into unit `c`'s compute pipeline — the *same* pipeline the EO
    /// frame queue uses, so user traffic and frame analysis genuinely
    /// contend — applying the SEU stretch and corruption coin from the
    /// serve-dedicated `serve_seu` stream (EO-frame `seu` draws are
    /// untouched, preserving non-serve byte-identity). Returns the
    /// completion time and whether the batch output was corrupted.
    pub fn admit_batch(&mut self, service_s: f64, c: usize, now: Time) -> (Time, bool) {
        let start = self.sudc_free[c].max(now);
        let mut service_s = service_s;
        let mut corrupted = false;
        if self.seu_active {
            service_s *= self.seu_service_factor;
            self.serve_seu_draws[c] += 1;
            let mut rng = self.rng.stream(
                "serve_seu",
                ((c as u64) << 32) | (self.serve_seu_draws[c] & 0xFFFF_FFFF),
            );
            corrupted = coin(&mut rng, self.seu_p_corrupt);
        }
        let done = start + Time::from_secs(service_s);
        self.sudc_free[c] = done;
        (done, corrupted)
    }

    /// Scheduled busy time of unit `c`'s compute pipeline, seconds.
    pub fn busy_s(&self, c: usize) -> f64 {
        self.sudc_free[c].as_secs()
    }

    /// Takes unit `c`'s compute state — pipeline high-water mark, SEU
    /// draw counters, and the stochastic outage process — from `donor`,
    /// the shard that owned `c` in a sharded run, mirroring
    /// [`super::transport::Transport::adopt`].
    pub fn adopt(&mut self, donor: &mut Service, c: usize) {
        self.sudc_free[c] = donor.sudc_free[c];
        self.seu_draws[c] = donor.seu_draws[c];
        self.serve_seu_draws[c] = donor.serve_seu_draws[c];
        if let (Some(mine), Some(theirs)) = (self.cluster_out.as_mut(), donor.cluster_out.as_mut())
        {
            std::mem::swap(&mut mine[c], &mut theirs[c]);
        }
    }

    /// Outstanding work in unit `c`'s compute queue at `now`, in
    /// seconds of service time (0 when the pipeline is idle): the
    /// flight recorder's timeline snapshot, and the backlog serve
    /// admission and the adaptive batcher read.
    pub fn queue_depth_s(&self, c: usize, now: Time) -> f64 {
        (self.sudc_free[c].as_secs() - now.as_secs()).max(0.0)
    }

    /// Folds the cluster outage processes into the fault summary,
    /// mirroring [`super::transport::Transport::fold_outages`].
    pub fn fold_outages(
        &mut self,
        horizon: f64,
        summary: &mut FaultSummary,
        avail: &mut (f64, usize),
    ) {
        if let Some(procs) = self.cluster_out.as_mut() {
            for p in procs.iter_mut() {
                summary.cluster_outages += p.outages_before(horizon) as u64;
                avail.0 += p.availability_until(horizon);
                avail.1 += 1;
            }
        }
    }
}

/// Derives the SEU coin probability and service stretch from the fault
/// model and the SµDC's hardening strategy: silent errors corrupt
/// output, detected errors cost a recompute.
fn seu_parameters(cfg: &SimConfig, seu: Option<SeuSpec>) -> (bool, f64, f64) {
    match seu {
        Some(seu) => {
            let h = cfg.sudc.hardening;
            let p = workloads::hardening::silent_error_rate(h, cfg.app, seu.upsets_per_frame)
                .clamp(0.0, 1.0);
            let stretch = 1.0
                + workloads::hardening::detected_error_rate(h, cfg.app, seu.upsets_per_frame)
                    .max(0.0);
            (true, p, stretch)
        }
        None => (false, 0.0, 1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use units::Length;
    use workloads::Application;

    fn cfg() -> SimConfig {
        SimConfig::paper_reference(Application::AirPollution, Length::from_m(3.0), 0.95)
    }

    #[test]
    fn service_times_queue_back_to_back() {
        let mut svc = Service::new(&cfg(), 1, 1000.0, RngFactory::new(1));
        let (a, ca) = svc.admit(500.0, 0, Time::ZERO);
        let (b, cb) = svc.admit(500.0, 0, Time::ZERO);
        assert!((a.as_secs() - 0.5).abs() < 1e-12);
        assert!((b.as_secs() - 1.0).abs() < 1e-12, "second frame queues");
        assert!(!ca && !cb, "no SEU model, no corruption");
    }

    #[test]
    fn deterministic_failures_kill_a_unit_from_their_time() {
        let mut c = cfg();
        c.failures = vec![(1, Time::from_secs(10.0))];
        let mut svc = Service::new(&c, 2, 1000.0, RngFactory::new(1));
        assert!(!svc.cluster_failed(0, Time::from_secs(20.0)));
        assert!(!svc.cluster_failed(1, Time::from_secs(9.9)));
        assert!(svc.cluster_failed(1, Time::from_secs(10.0)));
    }

    #[test]
    fn queue_depth_drains_with_time() {
        let mut svc = Service::new(&cfg(), 1, 1000.0, RngFactory::new(1));
        assert_eq!(svc.queue_depth_s(0, Time::ZERO), 0.0, "idle pipeline");
        let _ = svc.admit(500.0, 0, Time::ZERO); // 0.5 s of work
        assert!((svc.queue_depth_s(0, Time::ZERO) - 0.5).abs() < 1e-12);
        assert!((svc.queue_depth_s(0, Time::from_secs(0.3)) - 0.2).abs() < 1e-12);
        assert_eq!(svc.queue_depth_s(0, Time::from_secs(2.0)), 0.0, "drained");
    }

    #[test]
    fn shedding_requires_a_degradation_model() {
        let mut svc = Service::new(&cfg(), 1, 1000.0, RngFactory::new(1));
        assert!(!svc.should_shed(0, 1e18), "no model: never shed");
    }

    #[test]
    fn shedding_escalates_to_certainty_at_twice_the_threshold() {
        let mut c = cfg();
        c.faults = crate::sim::FaultModel::scenario("combined").unwrap();
        let threshold = c.faults.degradation.unwrap().backlog_threshold.as_bits();
        let mut svc = Service::new(&c, 1, 1000.0, RngFactory::new(1));
        assert!(!svc.should_shed(0, threshold * 0.5), "below threshold");
        // At ≥ 2× the threshold the shed probability clamps to 1.0.
        for i in 0..32 {
            assert!(svc.should_shed(i, threshold * 2.5), "draw {i}");
        }
    }

    #[test]
    fn seu_stretch_slows_service() {
        let mut c = cfg();
        c.faults = crate::sim::FaultModel::scenario("seu_storm").unwrap();
        // Software hardening detects (and recomputes) errors, stretching
        // mean service time; the default Hardening::None detects nothing.
        c.sudc.hardening = workloads::Hardening::Software;
        let mut faulted = Service::new(&c, 1, 1000.0, RngFactory::new(1));
        let mut clean = Service::new(&cfg(), 1, 1000.0, RngFactory::new(1));
        let (t_faulted, _) = faulted.admit(500.0, 0, Time::ZERO);
        let (t_clean, _) = clean.admit(500.0, 0, Time::ZERO);
        assert!(
            t_faulted > t_clean,
            "detected errors stretch service: {t_faulted:?} vs {t_clean:?}"
        );
    }
}
