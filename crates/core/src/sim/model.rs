//! Configuration and report types for the frame-level discrete-event
//! simulation of an EO constellation feeding SµDCs.
//!
//! Every 1.5 s each EO satellite images a frame
//! ([`imagery::FrameSpec::paper`]). Frames surviving early discard (a
//! uniform coin per frame, the paper's Table 3 model) are relayed
//! hop-by-hop along the ring toward the cluster's SµDC over
//! capacity-limited ISLs, then served by the SµDC's compute at
//! its application pixel rate. The simulation reports throughput,
//! end-to-end latency, link and compute utilisation, and backlog — and is
//! used to cross-validate the closed-form Table 8 / Fig. 11 model (see
//! `tests/sim_vs_model.rs`).
//!
//! The simulation itself lives in the layered engine next door:
//! [`super::topology`] (where frames go), [`super::transport`] (when
//! they move), [`super::service`] (what happens on arrival), and
//! [`super::engine`] (the event loop composing them).

use constellation::OrbitalPlane;
use units::{DataRate, DataSize, Length, Time};
use workloads::Application;

use crate::sim::faults::{FaultModel, FaultSummary};
use crate::sim::policy::PolicyKind;
use crate::sim::serve::{ServeConfig, ServeReport};
use crate::sizing::SudcSpec;

/// The workspace-wide default RNG seed used by the paper-reference
/// configuration and the repro CLI's run manifest.
pub const PAPER_SEED: u64 = 0xEC0_5A7;

/// Seconds of open-loop arrivals a serve run may hold as pending
/// events at once. Measured peaks stay under 0.73 s worth of the
/// open-loop rate on every serve sweep point tried, up to 2·10⁷ req/s,
/// and do not grow with the horizon. DESIGN §7 has the measurements.
pub const SERVE_PEAK_WINDOW_S: f64 = 1.0;

/// Most pending events a serve run may be estimated to hold (see
/// [`ConfigError::ServeOverload`]): three quarters of the event
/// calendar's 2²⁴. The last quarter is for the frame workload, whose
/// measured peak is 74 on the reference plane and about 4,200 on the
/// 4,096-satellite dense ring.
pub const MAX_SERVE_PENDING: f64 = (3u64 << 22) as f64;

/// The ingest network shape the simulation plays out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimTopology {
    /// LEO ring/k-list relaying: arcs of the ring forward frames inward
    /// to an in-plane SµDC (Figs. 10/12).
    Ring,
    /// GEO star (Fig. 15): every EO satellite uplinks directly to one of
    /// the GEO SµDCs (assigned round-robin as a stand-in for
    /// whichever-node-is-visible); no relaying, ~0.13 s of uplink
    /// propagation delay.
    GeoStar,
    /// SµDC splitting (Sec. 8): each of the `clusters` arcs is served by
    /// `factor` smaller SµDCs sized at `power/factor`, so the ring has
    /// `clusters × factor` service units over proportionally shorter
    /// arcs. `factor = 1` is exactly [`SimTopology::Ring`].
    SplitRing {
        /// How many sub-SµDCs share each original arc.
        factor: usize,
    },
}

/// Why a [`SimConfig`] cannot be simulated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// An imaging resolution that is not finite and positive.
    BadResolution {
        /// The rejected ground sample distance, metres.
        metres: f64,
    },
    /// An ISL capacity that is not finite and positive.
    BadIslCapacity {
        /// The rejected capacity, bit/s.
        bps: f64,
    },
    /// A simulated duration that is not finite and positive.
    BadDuration {
        /// The rejected duration, seconds.
        seconds: f64,
    },
    /// An early-discard rate outside [0, 1].
    BadDiscardRate {
        /// The rejected rate.
        rate: f64,
    },
    /// `clusters` is zero.
    NoClusters,
    /// `ingest_links` is odd or below 2 (k-lists stripe arc sides into
    /// `k/2` chains, so `k` must be even).
    OddIngestLinks {
        /// The rejected `ingest_links` value.
        ingest_links: usize,
    },
    /// A ring topology whose `clusters` does not divide the satellite
    /// count into equal arcs.
    IndivisibleRing {
        /// Satellites in the ring.
        satellites: usize,
        /// The rejected cluster count.
        clusters: usize,
    },
    /// A [`SimTopology::SplitRing`] with `factor == 0`.
    ZeroSplitFactor,
    /// A [`SimTopology::SplitRing`] whose `clusters × factor` service
    /// units do not divide the ring into equal sub-arcs.
    IndivisibleSplit {
        /// Satellites in the ring.
        satellites: usize,
        /// Configured cluster count.
        clusters: usize,
        /// The rejected split factor.
        factor: usize,
    },
    /// A serve layer configured with no tenants.
    NoTenants,
    /// An open-loop tenant with a non-positive arrival rate.
    ZeroArrivalRate {
        /// Index of the offending tenant.
        tenant: usize,
    },
    /// A closed-loop tenant with zero concurrency slots.
    ZeroServeConcurrency {
        /// Index of the offending tenant.
        tenant: usize,
    },
    /// The configured (application, device) pair has no pixel-capacity
    /// measurement, so no service rate can be derived.
    UnmeasuredWorkload,
    /// A serve load whose estimated pending events pass
    /// [`MAX_SERVE_PENDING`], which could overflow the event calendar.
    ServeOverload {
        /// Summed open-loop arrival rate, requests per second.
        rate_rps: f64,
        /// The pending-event estimate: the open-loop rate times
        /// [`SERVE_PEAK_WINDOW_S`], plus the closed-loop concurrency
        /// slots (each holds at most one request at a time).
        pending: f64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ConfigError::BadResolution { metres } => {
                write!(f, "resolution must be finite and positive (got {metres} m)")
            }
            ConfigError::BadIslCapacity { bps } => {
                write!(
                    f,
                    "ISL capacity must be finite and positive (got {bps} bit/s)"
                )
            }
            ConfigError::BadDuration { seconds } => {
                write!(f, "duration must be finite and positive (got {seconds} s)")
            }
            ConfigError::BadDiscardRate { rate } => {
                write!(f, "discard rate must lie in [0, 1] (got {rate})")
            }
            ConfigError::NoClusters => write!(f, "need at least one cluster"),
            ConfigError::OddIngestLinks { ingest_links } => {
                write!(
                    f,
                    "k-lists require even ingest_links >= 2 (got {ingest_links})"
                )
            }
            ConfigError::IndivisibleRing {
                satellites,
                clusters,
            } => write!(
                f,
                "clusters must divide the ring evenly ({satellites} % {clusters} != 0)"
            ),
            ConfigError::ZeroSplitFactor => write!(f, "split factor must be at least 1"),
            ConfigError::IndivisibleSplit {
                satellites,
                clusters,
                factor,
            } => write!(
                f,
                "split factor must divide the ring evenly ({satellites} % {clusters}*{factor} != 0)"
            ),
            ConfigError::NoTenants => write!(f, "serve layer needs at least one tenant"),
            ConfigError::ZeroArrivalRate { tenant } => {
                write!(f, "open-loop tenant {tenant} needs a positive arrival rate")
            }
            ConfigError::ZeroServeConcurrency { tenant } => {
                write!(
                    f,
                    "closed-loop tenant {tenant} needs at least one concurrency slot"
                )
            }
            ConfigError::UnmeasuredWorkload => {
                write!(
                    f,
                    "the (application, device) pair has no pixel-capacity measurement"
                )
            }
            ConfigError::ServeOverload { rate_rps, pending } => write!(
                f,
                "serve load of {rate_rps} req/s could hold {pending:.0} pending events, \
                 past the {MAX_SERVE_PENDING} the event calendar has for serving"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Simulation configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// The orbital plane (satellite count, altitude, inclination).
    pub plane: OrbitalPlane,
    /// Ingest network shape.
    pub topology: SimTopology,
    /// Number of SµDCs. For [`SimTopology::Ring`] each owns an equal arc
    /// of the ring; for [`SimTopology::GeoStar`] satellites are assigned
    /// round-robin; for [`SimTopology::SplitRing`] each arc is further
    /// split `factor` ways.
    pub clusters: usize,
    /// Ingest ISLs per SµDC (even, ≥ 2): the k of a k-list topology.
    /// `2` is the plain ring; larger k stripes each arc side into `k/2`
    /// interleaved relay chains (Sec. 8).
    pub ingest_links: usize,
    /// Per-ISL capacity.
    pub isl_capacity: DataRate,
    /// Imaging resolution.
    pub resolution: Length,
    /// Early-discard rate: each frame is dropped independently with this
    /// probability (the paper's uniform Table 3 model).
    pub discard: f64,
    /// The SµDC design point (device + power + hardening). A
    /// [`SimTopology::SplitRing`] divides this budget: each sub-SµDC
    /// serves at `pixel_capacity / factor`.
    pub sudc: SudcSpec,
    /// Application every frame is processed by.
    pub app: Application,
    /// Simulated duration.
    pub duration: Time,
    /// Injected SµDC failures: `(cluster index, failure time)`. From its
    /// failure time a SµDC stops serving; frames routed to it are lost.
    /// Used to quantify the Sec. 9 resilience argument for splitting and
    /// disaggregation.
    pub failures: Vec<(usize, Time)>,
    /// Stochastic fault-injection model (link outages, SEUs, cluster
    /// outages, load shedding). [`FaultModel::none`] — the default — leaves
    /// the simulation byte-identical to the fault-unaware simulator.
    pub faults: FaultModel,
    /// The user-traffic serving layer. `None` — the default — schedules no
    /// serve events and draws no serve RNG streams, leaving the simulation
    /// byte-identical to the serve-unaware engine.
    pub serve: Option<ServeConfig>,
    /// The control-plane policy racing this run. [`PolicyKind::Static`]
    /// — the default — reproduces the pre-policy-layer engine byte-identically.
    pub policy: PolicyKind,
    /// RNG seed.
    pub seed: u64,
}

impl SimConfig {
    /// A paper-reference configuration: 64 satellites at 550 km, one
    /// cluster, 10 Gbit/s ISLs, 4 kW RTX 3090 SµDC.
    pub fn paper_reference(app: Application, resolution: Length, discard: f64) -> Self {
        Self {
            plane: OrbitalPlane::paper_reference(),
            topology: SimTopology::Ring,
            clusters: 1,
            ingest_links: 2,
            isl_capacity: DataRate::from_gbps(10.0),
            resolution,
            discard,
            sudc: SudcSpec::paper_4kw(workloads::Device::Rtx3090),
            app,
            duration: Time::from_minutes(5.0),
            failures: Vec::new(),
            faults: FaultModel::none(),
            serve: None,
            policy: PolicyKind::Static,
            seed: PAPER_SEED,
        }
    }

    /// Checks the configuration is simulatable: a finite positive
    /// resolution, ISL capacity and duration, a discard rate in [0, 1],
    /// at least one cluster, an even `ingest_links ≥ 2`, (for ring shapes) service arcs that
    /// divide the ring evenly, a serve load within
    /// [`MAX_SERVE_PENDING`], and an (application, device) pair with a
    /// pixel-capacity measurement. Used by [`super::parallel::try_run`]
    /// and the CLI so bad `--clusters`/`--ingest-links`/workload values
    /// produce a diagnostic instead of a panic.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let positive = |x: f64| x.is_finite() && x > 0.0;
        let metres = self.resolution.as_m();
        if !positive(metres) {
            return Err(ConfigError::BadResolution { metres });
        }
        let bps = self.isl_capacity.as_bps();
        if !positive(bps) {
            return Err(ConfigError::BadIslCapacity { bps });
        }
        let seconds = self.duration.as_secs();
        if !positive(seconds) {
            return Err(ConfigError::BadDuration { seconds });
        }
        if !(0.0..=1.0).contains(&self.discard) {
            return Err(ConfigError::BadDiscardRate { rate: self.discard });
        }
        if self.clusters == 0 {
            return Err(ConfigError::NoClusters);
        }
        if self.ingest_links < 2 || self.ingest_links % 2 != 0 {
            return Err(ConfigError::OddIngestLinks {
                ingest_links: self.ingest_links,
            });
        }
        let n = self.plane.satellite_count();
        match self.topology {
            SimTopology::Ring => {
                if n % self.clusters != 0 {
                    return Err(ConfigError::IndivisibleRing {
                        satellites: n,
                        clusters: self.clusters,
                    });
                }
            }
            SimTopology::SplitRing { factor } => {
                if factor == 0 {
                    return Err(ConfigError::ZeroSplitFactor);
                }
                // A unit count past `usize` cannot divide the ring either.
                if self.clusters.checked_mul(factor).is_none_or(|u| n % u != 0) {
                    return Err(ConfigError::IndivisibleSplit {
                        satellites: n,
                        clusters: self.clusters,
                        factor,
                    });
                }
            }
            SimTopology::GeoStar => {}
        }
        if let Some(serve) = &self.serve {
            serve.validate()?;
            let (rate_rps, slots) = serve.offered_load();
            let pending = rate_rps.mul_add(SERVE_PEAK_WINDOW_S, slots as f64);
            // Written so that a NaN rate fails too.
            if !(pending <= MAX_SERVE_PENDING) {
                return Err(ConfigError::ServeOverload { rate_rps, pending });
            }
        }
        if self.unit_pixel_capacity().is_none() {
            return Err(ConfigError::UnmeasuredWorkload);
        }
        Ok(())
    }

    /// Number of SµDC service units frames can be delivered to:
    /// `clusters`, times the split factor for [`SimTopology::SplitRing`].
    pub fn units(&self) -> usize {
        match self.topology {
            SimTopology::SplitRing { factor } => self.clusters * factor,
            _ => self.clusters,
        }
    }

    /// Satellites per SµDC service arc. Meaningful only for
    /// configurations that pass [`SimConfig::validate`].
    #[cfg(test)]
    pub fn cluster_size(&self) -> usize {
        self.plane.satellite_count().div_ceil(self.units().max(1))
    }

    /// The pixel rate one service unit sustains: the SµDC design point's
    /// capacity, divided by the split factor for
    /// [`SimTopology::SplitRing`] (each sub-SµDC gets `power/factor`).
    ///
    /// `None` when the (application, device) pair has no measurement.
    pub fn unit_pixel_capacity(&self) -> Option<f64> {
        let capacity = self.sudc.pixel_capacity(self.app)?;
        Some(match self.topology {
            SimTopology::SplitRing { factor } => capacity / factor as f64,
            _ => capacity,
        })
    }
}

/// Aggregated results of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Frames imaged.
    pub generated: u64,
    /// Frames surviving early discard.
    pub kept: u64,
    /// Frames fully processed by a SµDC.
    pub processed: u64,
    /// Achieved discard rate.
    pub discard_rate: f64,
    /// Mean end-to-end latency (imaging → processing done), seconds.
    pub mean_latency_s: f64,
    /// Maximum latency observed, seconds.
    pub max_latency_s: f64,
    /// Mean utilisation of the SµDC-adjacent ingest ISLs.
    pub ingest_utilization: f64,
    /// Mean SµDC compute utilisation.
    pub compute_utilization: f64,
    /// Bits still queued in the network when the run ended.
    pub residual_backlog: DataSize,
    /// Frames lost to injected SµDC failures.
    pub lost_to_failures: u64,
    /// Throughput ratio over the run: processed / kept.
    pub goodput: f64,
    /// Whether the configuration kept up (backlog stayed bounded).
    pub stable: bool,
    /// Event-calendar counters (deterministic for a given config/seed).
    pub scheduler: simkit::SchedulerCounters,
    /// Fault-injection statistics (all zero with `availability = 1` for
    /// fault-free runs).
    pub faults: FaultSummary,
    /// Serving-layer outcomes: per-tenant SLO attainment and aggregate
    /// throughput. `None` for runs without a serve layer.
    pub serve: Option<ServeReport>,
}

impl SimReport {
    /// Checks conservation from the report's own counters: every
    /// generated frame was kept or discarded (at the reported discard
    /// rate); processed, shed, undeliverable, lost and corrupted frames
    /// are kept frames, each counted once, the gap being frames still
    /// in flight at the horizon; goodput lies in [0, 1]. In serve runs,
    /// each tenant's offered requests were admitted, throttled or shed,
    /// and each admitted one ended on time, late or lost, or was still
    /// outstanding at the horizon.
    ///
    /// # Errors
    ///
    /// Returns the first identity the report breaks.
    pub fn check_invariants(&self) -> Result<(), String> {
        let discarded = (self.discard_rate * self.generated as f64).round() as u64;
        if self.kept + discarded != self.generated {
            return Err(format!(
                "generated {} != kept {} + discarded {discarded} (discard rate {})",
                self.generated, self.kept, self.discard_rate
            ));
        }
        let f = &self.faults;
        let ended = self.processed
            + f.frames_shed
            + f.undeliverable
            + self.lost_to_failures
            + f.frames_corrupted;
        if ended > self.kept {
            return Err(format!(
                "{ended} frames ended (processed {}, shed {}, undeliverable {}, lost {}, \
                 corrupted {}) but only {} were kept",
                self.processed,
                f.frames_shed,
                f.undeliverable,
                self.lost_to_failures,
                f.frames_corrupted,
                self.kept
            ));
        }
        if !(0.0..=1.0).contains(&self.goodput) {
            return Err(format!("goodput {} outside [0, 1]", self.goodput));
        }
        for t in self.serve.iter().flat_map(|s| &s.tenants) {
            if t.admitted + t.throttled + t.shed != t.offered {
                return Err(format!(
                    "tenant {}: offered {} != admitted {} + throttled {} + shed {}",
                    t.name, t.offered, t.admitted, t.throttled, t.shed
                ));
            }
            if t.on_time + t.violations + t.lost + t.outstanding != t.admitted {
                return Err(format!(
                    "tenant {}: {} on time + {} violations + {} lost + {} outstanding != {} \
                     admitted",
                    t.name, t.on_time, t.violations, t.lost, t.outstanding, t.admitted
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SimConfig {
        SimConfig::paper_reference(Application::AirPollution, Length::from_m(3.0), 0.95)
    }

    #[test]
    fn paper_reference_validates() {
        assert_eq!(cfg().validate(), Ok(()));
    }

    #[test]
    fn zero_clusters_is_rejected() {
        let mut c = cfg();
        c.clusters = 0;
        assert_eq!(c.validate(), Err(ConfigError::NoClusters));
    }

    #[test]
    fn odd_ingest_links_are_rejected_with_a_diagnostic() {
        let mut c = cfg();
        c.ingest_links = 3;
        let err = c.validate().unwrap_err();
        assert_eq!(err, ConfigError::OddIngestLinks { ingest_links: 3 });
        // The legacy assert message survives for should_panic matchers.
        assert!(err.to_string().contains("even ingest_links"));
    }

    #[test]
    fn indivisible_ring_is_rejected_with_a_diagnostic() {
        let mut c = cfg();
        c.clusters = 7; // 64 % 7 != 0
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("divide the ring"), "{err}");
    }

    #[test]
    fn serve_validation_flows_through_the_sim_config() {
        use crate::sim::serve::{ServeConfig, ServeScenario};

        let mut c = cfg();
        c.serve = Some(ServeConfig::defaults()); // no tenants
        assert_eq!(c.validate(), Err(ConfigError::NoTenants));
        assert!(c.validate().unwrap_err().to_string().contains("tenant"));

        c.serve = Some(ServeScenario::scenario("steady").unwrap().serve);
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn geo_star_skips_the_divisibility_check() {
        let mut c = cfg();
        c.topology = SimTopology::GeoStar;
        c.clusters = 7;
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn split_ring_validation_and_units() {
        let mut c = cfg();
        c.clusters = 4;
        c.topology = SimTopology::SplitRing { factor: 4 };
        assert_eq!(c.validate(), Ok(()));
        assert_eq!(c.units(), 16);
        assert_eq!(c.cluster_size(), 4);
    }

    /// An input that [`SimConfig::validate`] refuses with `e`. The match
    /// has no wildcard arm, so a new variant without an input here, or
    /// one no input can produce, fails the build or the test below.
    fn input_producing(e: ConfigError) -> SimConfig {
        use crate::sim::serve::{ServeConfig, TenantClass, TenantSpec};

        let mut c = cfg();
        let serve = |tenants| {
            Some(ServeConfig {
                tenants,
                ..ServeConfig::defaults()
            })
        };
        match e {
            ConfigError::BadResolution { metres } => c.resolution = Length::from_m(metres),
            ConfigError::BadIslCapacity { bps } => c.isl_capacity = DataRate::from_bps(bps),
            ConfigError::BadDuration { seconds } => c.duration = Time::from_secs(seconds),
            ConfigError::BadDiscardRate { rate } => c.discard = rate,
            ConfigError::NoClusters => c.clusters = 0,
            ConfigError::OddIngestLinks { ingest_links } => c.ingest_links = ingest_links,
            ConfigError::IndivisibleRing { clusters, .. } => c.clusters = clusters,
            ConfigError::ZeroSplitFactor => c.topology = SimTopology::SplitRing { factor: 0 },
            ConfigError::IndivisibleSplit {
                clusters, factor, ..
            } => {
                c.clusters = clusters;
                c.topology = SimTopology::SplitRing { factor };
            }
            ConfigError::NoTenants => c.serve = serve(Vec::new()),
            ConfigError::ZeroArrivalRate { tenant } => {
                let mut tenants = vec![TenantSpec::analytics("ok", 10.0); tenant];
                tenants.push(TenantSpec::interactive("t", TenantClass::Standard, 0.0));
                c.serve = serve(tenants);
            }
            ConfigError::ZeroServeConcurrency { tenant } => {
                let mut tenants = vec![TenantSpec::analytics("ok", 10.0); tenant];
                tenants.push(TenantSpec::closed("t", TenantClass::Standard, 0, 1.0));
                c.serve = serve(tenants);
            }
            ConfigError::UnmeasuredWorkload => {
                // Table 6 has no Xavier mapping of panoptic segmentation.
                c.app = Application::PanopticSegmentation;
                c.sudc = SudcSpec::paper_4kw(workloads::Device::JetsonAgxXavier);
            }
            ConfigError::ServeOverload { rate_rps, .. } => {
                c.serve = serve(vec![TenantSpec::interactive(
                    "flood",
                    TenantClass::Premium,
                    rate_rps,
                )]);
            }
        }
        c
    }

    #[test]
    fn every_config_error_has_an_input_that_produces_it() {
        let errors = [
            ConfigError::BadResolution { metres: 0.0 },
            ConfigError::BadIslCapacity { bps: 0.0 },
            ConfigError::BadDuration { seconds: -60.0 },
            ConfigError::BadDiscardRate { rate: 1.5 },
            ConfigError::NoClusters,
            ConfigError::OddIngestLinks { ingest_links: 3 },
            ConfigError::IndivisibleRing {
                satellites: 64,
                clusters: 7,
            },
            ConfigError::ZeroSplitFactor,
            ConfigError::IndivisibleSplit {
                satellites: 64,
                clusters: 1,
                factor: 3,
            },
            ConfigError::NoTenants,
            ConfigError::ZeroArrivalRate { tenant: 1 },
            ConfigError::ZeroServeConcurrency { tenant: 0 },
            ConfigError::UnmeasuredWorkload,
            ConfigError::ServeOverload {
                rate_rps: 1e8,
                pending: 1e8,
            },
        ];
        for e in errors {
            let c = input_producing(e);
            let got = if e == ConfigError::UnmeasuredWorkload {
                crate::sim::try_run(&c).map(|_| ())
            } else {
                c.validate()
            };
            assert_eq!(got, Err(e), "{e}");
        }
        // The diagnostics `run`'s `should_panic` tests and the CLI match on.
        let odd = ConfigError::OddIngestLinks { ingest_links: 3 };
        assert!(odd.to_string().contains("even ingest_links"));
        for e in [errors[6], errors[8]] {
            assert!(e.to_string().contains("divide the ring"), "{e}");
        }
    }

    /// Each bad scalar is refused before it reaches the engine, where a
    /// zero resolution or ISL capacity panicked and a negative or NaN
    /// duration returned a report of nothing. (An infinite duration
    /// never ended.)
    #[test]
    fn bad_scalar_inputs_are_refused_by_try_run() {
        for e in [
            ConfigError::BadResolution { metres: 0.0 },
            ConfigError::BadResolution { metres: f64::NAN },
            ConfigError::BadIslCapacity { bps: 0.0 },
            ConfigError::BadIslCapacity { bps: f64::INFINITY },
            ConfigError::BadDuration { seconds: -60.0 },
            ConfigError::BadDuration { seconds: f64::NAN },
            ConfigError::BadDuration {
                seconds: f64::INFINITY,
            },
            ConfigError::BadDiscardRate { rate: -0.1 },
            ConfigError::BadDiscardRate { rate: f64::NAN },
        ] {
            let want = e.to_string();
            let got = crate::sim::try_run(&input_producing(e)).expect_err(&want);
            // Compared as text, which a NaN field equals.
            assert_eq!(got.to_string(), want);
        }
        // The rate's closed ends are valid.
        for rate in [0.0, 1.0] {
            let mut c = cfg();
            c.discard = rate;
            assert_eq!(c.validate(), Ok(()), "discard {rate}");
        }
    }

    #[test]
    fn serve_load_past_the_calendar_is_rejected() {
        use crate::sim::serve::{ServeScenario, TenantClass, TenantSpec};

        // The estimate does not grow with the horizon: every named
        // scenario fits over a day, and so does 10⁷ req/s (which runs,
        // peaking at 7.2·10⁶ pending events).
        for name in ServeScenario::scenario_names() {
            let mut c = cfg();
            c.serve = Some(ServeScenario::scenario(name).unwrap().serve);
            c.duration = Time::from_minutes(24.0 * 60.0);
            assert_eq!(c.validate(), Ok(()), "{name}");
        }
        let mut c = cfg();
        let mut serve = ServeScenario::scenario("steady").unwrap().serve;
        serve.tenants = vec![TenantSpec::interactive("flood", TenantClass::Premium, 1e7)];
        c.serve = Some(serve.clone());
        assert_eq!(c.validate(), Ok(()));
        for rate in [1e8, f64::INFINITY, f64::NAN] {
            serve.tenants = vec![TenantSpec::interactive("flood", TenantClass::Premium, rate)];
            c.serve = Some(serve.clone());
            let err = c.validate().unwrap_err();
            assert!(
                matches!(err, ConfigError::ServeOverload { .. }),
                "{rate}: {err}"
            );
            assert!(err.to_string().contains(&format!("{rate} req/s")), "{err}");
        }
        // Closed-loop slots count one pending event each.
        let crowd = TenantSpec::closed("crowd", TenantClass::Premium, 1 << 24, 1.0);
        serve.tenants = vec![crowd];
        c.serve = Some(serve);
        assert!(matches!(
            c.validate(),
            Err(ConfigError::ServeOverload { pending, .. }) if pending == (1u64 << 24) as f64
        ));
    }

    #[test]
    fn split_capacity_is_divided_per_unit() {
        let mut c = cfg();
        c.clusters = 4;
        let whole = c.unit_pixel_capacity().unwrap();
        c.topology = SimTopology::SplitRing { factor: 4 };
        let split = c.unit_pixel_capacity().unwrap();
        assert!((split - whole / 4.0).abs() < 1e-9);
    }
}
