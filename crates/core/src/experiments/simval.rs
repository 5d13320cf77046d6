//! Simulation-vs-model cross-validation (our addition beyond the paper).
//!
//! For a grid of (resolution, discard, ISL, cluster-count)
//! configurations, the closed-form model predicts whether a ring cluster
//! sustains its arc (Table 8 / Fig. 11 logic); the discrete-event
//! simulator then plays the configuration out and reports whether
//! backlog stayed bounded. Agreement across the grid is the validation.

use explore::ExecOptions;
use units::fmt_si::trim_float;
use units::{DataRate, Length, Time};
use workloads::{Application, Device};

use super::ExperimentResult;
use crate::sim::{run, SimConfig, SimReport};
use crate::sizing::SudcSpec;

/// One validation case.
struct Case {
    app: Application,
    resolution: Length,
    discard: f64,
    isl: DataRate,
    clusters: usize,
}

fn cases() -> Vec<Case> {
    vec![
        // Comfortably sustainable: coarse imagery, light app.
        Case {
            app: Application::AirPollution,
            resolution: Length::from_m(3.0),
            discard: 0.5,
            isl: DataRate::from_gbps(10.0),
            clusters: 1,
        },
        // ISL-bottlenecked: 30 cm without discard saturates ingest.
        Case {
            app: Application::TrafficMonitoring,
            resolution: Length::from_cm(30.0),
            discard: 0.0,
            isl: DataRate::from_gbps(10.0),
            clusters: 1,
        },
        // Compute-bound: heavy DNN at 1 m and 50% discard on one SµDC.
        Case {
            app: Application::FloodDetection,
            resolution: Length::from_m(1.0),
            discard: 0.5,
            isl: DataRate::from_gbps(100.0),
            clusters: 1,
        },
        // The same load split across four SµDCs: sustainable.
        Case {
            app: Application::FloodDetection,
            resolution: Length::from_m(1.0),
            discard: 0.5,
            isl: DataRate::from_gbps(100.0),
            clusters: 4,
        },
        // 1 m with aggressive discard: one SµDC suffices (Fig. 9 cell).
        Case {
            app: Application::OilSpill,
            resolution: Length::from_m(1.0),
            discard: 0.95,
            isl: DataRate::from_gbps(10.0),
            clusters: 1,
        },
        // Slow ISLs at 1 m: ring ingest cannot carry 64 satellites.
        Case {
            app: Application::AirPollution,
            resolution: Length::from_m(1.0),
            discard: 0.0,
            isl: DataRate::from_gbps(1.0),
            clusters: 2,
        },
    ]
}

/// Closed-form prediction of sustainability for a case.
fn model_predicts_stable(c: &Case) -> bool {
    let per_cluster = 64 / c.clusters;
    // ISL side: each cluster's two ingest links must carry the arc.
    let supportable = crate::bottleneck::ring_supportable(c.isl, c.resolution, c.discard);
    if supportable < per_cluster {
        return false;
    }
    // Compute side: aggregate demand within each cluster.
    let spec = SudcSpec::paper_4kw(Device::Rtx3090);
    let demand =
        imagery::FrameSpec::paper().pixel_rate(c.resolution, c.discard) * per_cluster as f64;
    // An unmeasured (application, device) pair has no service rate, so
    // the model cannot predict stability for it.
    spec.pixel_capacity(c.app)
        .is_some_and(|capacity| demand <= capacity)
}

/// Plays a case out in the discrete-event simulator.
fn simulate(c: &Case) -> SimReport {
    let mut cfg = SimConfig::paper_reference(c.app, c.resolution, c.discard);
    cfg.isl_capacity = c.isl;
    cfg.clusters = c.clusters;
    cfg.duration = Time::from_minutes(2.0);
    run(&cfg)
}

/// Runs the cross-validation grid.
pub fn simval() -> ExperimentResult {
    simval_on(&ExecOptions::auto())
}

/// [`simval`] with the cases simulated side by side on `opts`' threads;
/// rows follow in case order.
fn simval_on(opts: &ExecOptions) -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "simval",
        "Closed-form model vs discrete-event simulation (cross-validation)",
        &[
            "app",
            "resolution",
            "ED",
            "ISL",
            "clusters",
            "model",
            "simulated",
            "goodput",
            "agree",
        ],
    );
    let mut agreements = 0usize;
    let all = cases();
    let total = all.len();
    let reports = explore::map(&all, opts, simulate);
    for (c, report) in all.iter().zip(reports) {
        let predicted = model_predicts_stable(c);
        let agree = predicted == report.stable;
        if agree {
            agreements += 1;
        }
        r.push_row([
            c.app.to_string(),
            format!("{}", c.resolution),
            trim_float(c.discard),
            c.isl.to_string(),
            c.clusters.to_string(),
            if predicted { "stable" } else { "overloaded" }.to_string(),
            if report.stable {
                "stable"
            } else {
                "overloaded"
            }
            .to_string(),
            format!("{:.3}", report.goodput),
            if agree { "yes" } else { "NO" }.to_string(),
        ]);
    }
    r.note(format!("{agreements}/{total} configurations agree"));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_is_identical_at_any_thread_count() {
        // The pretty JSON artifact is a function of the result's fields,
        // so equal results write equal JSON as well.
        let seq = simval_on(&ExecOptions::sequential());
        let par = simval_on(&ExecOptions::threads(4));
        assert_eq!(par.to_text_table(), seq.to_text_table());
        assert_eq!(par.to_csv(), seq.to_csv());
        assert_eq!(par, seq);
    }

    #[test]
    fn model_and_simulation_agree_on_every_case() {
        let r = simval();
        for row in &r.rows {
            assert_eq!(
                row[8], "yes",
                "disagreement on {} {} ED {}: model {}, sim {}",
                row[0], row[1], row[2], row[5], row[6]
            );
        }
    }
}
