//! Named design-space sweeps for the `repro explore` CLI.
//!
//! Each sweep binds a parameter [`Space`] to an evaluator, a cache
//! version tag, objectives/constraints for Pareto extraction, and the
//! formatting that turns rows into [`ExperimentResult`] artifacts. The
//! CLI looks sweeps up by name, applies `--axis` overrides to the
//! numeric axes, and runs them through [`explore::sweep_cached`].

use std::path::{Path, PathBuf};

use comms::IslClass;
use explore::{Cache, Constraint, ExecOptions, Objective, Space, SweepStats};
use imagery::FrameSpec;
use units::fmt_si::trim_float;
use units::Length;
use workloads::Application;

use crate::bottleneck::{fig11_row, Fig11Row, Table8Cell};
use crate::codesign::{fig13_point, paper_fig13_axes, CodesignPoint};
use crate::experiments::figures::{ed_label, res_label};
use crate::experiments::ExperimentResult;
use crate::sim::serve::{BatchPolicy, ServeConfig, TenantClass, TenantSpec};
use crate::sizing::{sizing_point, SizingRow, SudcSpec, PAPER_CONSTELLATION};

/// One overridable numeric axis of a named sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct AxisSpec {
    /// Axis name as accepted by `--axis name=…`.
    pub name: &'static str,
    /// What the axis controls.
    pub help: &'static str,
    /// Default values (integers rendered without a decimal point).
    pub default: Vec<f64>,
    /// Whether only integral values are accepted.
    pub integer: bool,
}

/// A named sweep's description (for `repro explore --list`) and the
/// function that runs it.
#[derive(Debug, Clone)]
pub struct SweepDef {
    /// CLI name.
    pub name: &'static str,
    /// One-line description.
    pub title: &'static str,
    /// Overridable axes.
    pub axes: Vec<AxisSpec>,
    runner: Runner,
}

/// Runs one sweep from its def and validated axis overrides.
type Runner =
    fn(&SweepDef, &[(String, Vec<f64>)], &ExecOptions, Option<&Path>) -> Result<SweepRun, String>;

/// All named sweeps, in presentation order.
pub fn all() -> Vec<SweepDef> {
    let (ks, splits) = paper_fig13_axes();
    vec![
        SweepDef {
            name: "codesign",
            title: "Fig. 13 k-list × splitting capacity/power trade",
            axes: vec![
                AxisSpec {
                    name: "k",
                    help: "ingest links per SµDC (even, ≥ 2)",
                    default: ks.iter().map(|&k| k as f64).collect(),
                    integer: true,
                },
                AxisSpec {
                    name: "split",
                    help: "SµDC splitting factor (≥ 1)",
                    default: splits.iter().map(|&s| s as f64).collect(),
                    integer: true,
                },
            ],
            runner: run_codesign,
        },
        SweepDef {
            name: "split",
            title: "Sec. 8 SµDC splitting on the DES: goodput vs split factor",
            axes: vec![
                AxisSpec {
                    name: "factor",
                    help: "SµDC split factor (clusters × factor must divide the ring)",
                    default: vec![1.0, 2.0, 4.0, 8.0],
                    integer: true,
                },
                ed_axis(vec![0.0, 0.5, 0.95]),
            ],
            runner: run_split,
        },
        SweepDef {
            name: "serve",
            title: "User-traffic capacity frontier: rate × tenant mix × batching (DES)",
            axes: vec![
                AxisSpec {
                    name: "rate",
                    help: "total offered load (requests/s)",
                    default: vec![250.0, 1000.0, 2000.0, 4000.0],
                    integer: false,
                },
                AxisSpec {
                    name: "premium",
                    help: "premium share of the offered load, in (0, 1)",
                    default: vec![0.25, 0.5, 0.75],
                    integer: false,
                },
                AxisSpec {
                    name: "policy",
                    help: "batch policy: 0 fixed, 1 deadline, 2 adaptive",
                    default: vec![0.0, 1.0, 2.0],
                    integer: true,
                },
            ],
            runner: run_serve,
        },
        SweepDef {
            name: "sizing",
            title: "Fig. 9-style SµDC counts (RTX 3090), all applications",
            axes: vec![
                kw_axis(vec![4.0]),
                res_axis(),
                ed_axis(FrameSpec::paper_discard_rates().to_vec()),
            ],
            runner: run_sizing,
        },
        SweepDef {
            name: "table8",
            title: "Table 8 ring-supportable EO satellites per ISL class",
            axes: vec![
                res_axis(),
                ed_axis(FrameSpec::paper_discard_rates().to_vec()),
            ],
            runner: run_table8,
        },
        SweepDef {
            name: "bottleneck",
            title: "Fig. 11-style cluster counts across apps × ISLs (RTX 3090)",
            axes: vec![
                kw_axis(vec![4.0, 256.0]),
                res_axis(),
                ed_axis(FrameSpec::paper_discard_rates().to_vec()),
            ],
            runner: run_bottleneck,
        },
        SweepDef {
            name: "policy",
            title: "Controller race: static vs reactive vs predictive across fault × topology × load (DES)",
            axes: vec![
                AxisSpec {
                    name: "controller",
                    help: "control plane: 0 static, 1 reactive, 2 predictive",
                    default: vec![0.0, 1.0, 2.0],
                    integer: true,
                },
                AxisSpec {
                    name: "scenario",
                    help: "fault scenario: 0 flaky_links, 1 cluster_loss, 2 combined",
                    default: vec![0.0, 1.0, 2.0],
                    integer: true,
                },
                AxisSpec {
                    name: "topology",
                    help: "ring shape: 0 ring, 1 split:4",
                    default: vec![0.0, 1.0],
                    integer: true,
                },
                ed_axis(vec![0.5, 0.95]),
            ],
            runner: run_policy,
        },
    ]
}

fn kw_axis(default: Vec<f64>) -> AxisSpec {
    AxisSpec {
        name: "kw",
        help: "SµDC compute power (kW)",
        default,
        integer: false,
    }
}

fn res_axis() -> AxisSpec {
    AxisSpec {
        name: "res",
        help: "spatial resolution (m)",
        default: FrameSpec::paper_resolutions()
            .iter()
            .map(|r| r.as_m())
            .collect(),
        integer: false,
    }
}

fn ed_axis(default: Vec<f64>) -> AxisSpec {
    AxisSpec {
        name: "ed",
        help: "early-discard rate in [0, 1)",
        default,
        integer: false,
    }
}

/// A completed named sweep: artifacts plus executor statistics.
#[derive(Debug)]
pub struct SweepRun {
    /// The sweep's CLI name.
    pub name: &'static str,
    /// Full-grid artifact (`explore_<name>`).
    pub grid: ExperimentResult,
    /// Pareto-frontier artifact (`explore_<name>_frontier`).
    pub frontier: ExperimentResult,
    /// Executor statistics (points, evaluated, cache hits, steals, wall).
    pub stats: SweepStats,
    /// Cache snapshot written this run, if the cache was dirty.
    pub cache_written: Option<PathBuf>,
    /// Sweep-specific headline gauges (name → value) the CLI surfaces
    /// in machine-readable reports; empty for most sweeps.
    pub metrics: Vec<(&'static str, f64)>,
}

/// Runs the named sweep with numeric axis overrides.
///
/// `cache_dir` of `None` runs uncached (in-memory); otherwise the
/// per-sweep snapshot lives at `<cache_dir>/<name>.cache`.
///
/// # Errors
///
/// Returns a message for unknown sweep names, unknown axis names, and
/// non-integral values on integer axes.
pub fn run(
    name: &str,
    overrides: &[(String, Vec<f64>)],
    opts: &ExecOptions,
    cache_dir: Option<&Path>,
) -> Result<SweepRun, String> {
    let def = all().into_iter().find(|d| d.name == name).ok_or_else(|| {
        let names: Vec<&str> = all().iter().map(|d| d.name).collect();
        format!("unknown sweep '{name}' (available: {})", names.join(", "))
    })?;
    for (axis, _) in overrides {
        if !def.axes.iter().any(|a| a.name == axis) {
            let names: Vec<&str> = def.axes.iter().map(|a| a.name).collect();
            return Err(format!(
                "sweep '{name}' has no axis '{axis}' (axes: {})",
                names.join(", ")
            ));
        }
    }
    (def.runner)(&def, overrides, opts, cache_dir)
}

/// Axis values for `name`: the override if given, else the def's
/// declared default. An axis the def never declared yields no values —
/// the sweep comes out empty (and visibly wrong in the artifact) rather
/// than panicking mid-run.
fn axis_f64(def: &SweepDef, overrides: &[(String, Vec<f64>)], name: &str) -> Vec<f64> {
    overrides
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.clone())
        .or_else(|| {
            def.axes
                .iter()
                .find(|a| a.name == name)
                .map(|a| a.default.clone())
        })
        .unwrap_or_default()
}

fn axis_usize(
    def: &SweepDef,
    overrides: &[(String, Vec<f64>)],
    name: &str,
) -> Result<Vec<usize>, String> {
    axis_f64(def, overrides, name)
        .into_iter()
        .map(|v| {
            // fract() of the non-negative v is non-negative, so
            // `<= 0.0` is exactly the integer-valued check.
            if v >= 0.0 && v.fract() <= 0.0 && v <= usize::MAX as f64 {
                Ok(v as usize)
            } else {
                Err(format!(
                    "axis '{name}' needs non-negative integers, got {v}"
                ))
            }
        })
        .collect()
}

fn open_cache(cache_dir: Option<&Path>, sweep: &str, version: &str) -> Cache {
    match cache_dir {
        Some(dir) => Cache::open(dir, sweep, version),
        None => Cache::in_memory(version),
    }
}

fn frontier_note(objectives: &[String], constraints: &[String]) -> String {
    if constraints.is_empty() {
        format!("Pareto-nondominated under: {}", objectives.join(", "))
    } else {
        format!(
            "Pareto-nondominated under: {}; subject to: {}",
            objectives.join(", "),
            constraints.join(", ")
        )
    }
}

/// Assembles the grid + frontier artifact pair shared by every runner.
#[allow(clippy::too_many_arguments)]
fn artifacts<R>(
    name: &'static str,
    title: &str,
    columns: &[&str],
    rows: &[R],
    row_cells: impl Fn(&R) -> Vec<String>,
    objectives: &[Objective<R>],
    constraints: &[Constraint<R>],
    stats: SweepStats,
    cache_written: Option<PathBuf>,
) -> SweepRun {
    let mut grid = ExperimentResult::new(&format!("explore_{name}"), title, columns);
    for r in rows {
        grid.push_row(row_cells(r));
    }

    let front = explore::pareto_indices(rows, objectives, constraints);
    let mut frontier = ExperimentResult::new(
        &format!("explore_{name}_frontier"),
        &format!("{title} — Pareto frontier"),
        columns,
    );
    for &i in &front {
        frontier.push_row(row_cells(&rows[i]));
    }
    let names = |os: &[Objective<R>]| -> Vec<String> {
        os.iter()
            .map(|o| {
                let dir = match o.direction {
                    explore::Direction::Minimize => "min",
                    explore::Direction::Maximize => "max",
                };
                format!("{dir} {}", o.name)
            })
            .collect()
    };
    frontier.note(frontier_note(
        &names(objectives),
        &constraints
            .iter()
            .map(|c| c.name.clone())
            .collect::<Vec<_>>(),
    ));
    frontier.note(format!(
        "{} of {} feasible-and-nondominated points",
        front.len(),
        rows.len()
    ));

    SweepRun {
        name,
        grid,
        frontier,
        stats,
        cache_written,
        metrics: Vec::new(),
    }
}

fn run_codesign(
    def: &SweepDef,
    overrides: &[(String, Vec<f64>)],
    opts: &ExecOptions,
    cache_dir: Option<&Path>,
) -> Result<SweepRun, String> {
    let ks = axis_usize(def, overrides, "k")?;
    let splits = axis_usize(def, overrides, "split")?;
    for &k in &ks {
        if k < 2 || k % 2 != 0 {
            return Err(format!("axis 'k' needs even values ≥ 2, got {k}"));
        }
    }
    for &s in &splits {
        if s == 0 {
            return Err("axis 'split' needs values ≥ 1".to_string());
        }
    }
    let space = crate::codesign::fig13_space(&ks, &splits);
    let mut cache = open_cache(cache_dir, "codesign", "fig13-v1");
    let out = explore::sweep_cached(&space, opts, &mut cache, |&(k, split)| {
        fig13_point(k, split)
    });
    let cache_written = cache.save().map_err(|e| format!("cache save: {e}"))?;

    Ok(artifacts(
        "codesign",
        "k-list × splitting: normalised capacity vs ISL transmit power (Fig. 13 space)",
        &[
            "k",
            "split",
            "capacity (×ring)",
            "power (×ring)",
            "capacity/power",
        ],
        &out.results,
        |p: &CodesignPoint| {
            vec![
                p.k.to_string(),
                p.split.to_string(),
                trim_float(p.capacity_norm),
                trim_float(p.power_norm),
                format!("{:.3}", p.capacity_per_power),
            ]
        },
        &[
            Objective::maximize("capacity (×ring)", |p: &CodesignPoint| p.capacity_norm),
            Objective::minimize("power (×ring)", |p: &CodesignPoint| p.power_norm),
        ],
        &[],
        out.stats,
        cache_written,
    ))
}

/// Fixed SµDC count of the split sweep's reference ring: matches the
/// `repro sim` default so the factor-1 column reproduces that regime.
const SPLIT_SWEEP_CLUSTERS: usize = 4;

/// Builds the paper-reference [`crate::sim::SimConfig`] the split sweep
/// evaluates: 1 simulated minute of `AirPollution` at 3 m, the ring
/// served by [`SPLIT_SWEEP_CLUSTERS`] SµDCs each split `factor` ways.
fn split_sweep_config(factor: usize, ed: f64) -> crate::sim::SimConfig {
    let mut cfg =
        crate::sim::SimConfig::paper_reference(Application::AirPollution, Length::from_m(3.0), ed);
    cfg.topology = crate::sim::SimTopology::SplitRing { factor };
    cfg.clusters = SPLIT_SWEEP_CLUSTERS;
    cfg.duration = units::Time::from_minutes(1.0);
    cfg
}

fn run_split(
    def: &SweepDef,
    overrides: &[(String, Vec<f64>)],
    opts: &ExecOptions,
    cache_dir: Option<&Path>,
) -> Result<SweepRun, String> {
    let factors = axis_usize(def, overrides, "factor")?;
    let eds = axis_f64(def, overrides, "ed");
    for &f in &factors {
        split_sweep_config(f, 0.0)
            .validate()
            .map_err(|e| format!("axis 'factor': {e}"))?;
    }
    let mut points = Vec::new();
    for &factor in &factors {
        for &ed in &eds {
            points.push((factor, ed));
        }
    }
    let space = Space::from_points("split", points, |&(factor, ed)| {
        format!("factor={factor};ed={ed}")
    });
    let mut cache = open_cache(cache_dir, "split", "split-v2");
    let out = explore::sweep_cached(&space, opts, &mut cache, |&(factor, ed)| {
        let report = crate::sim::run(&split_sweep_config(factor, ed));
        SplitCell {
            factor,
            discard_rate: ed,
            goodput: report.goodput,
            mean_latency_s: report.mean_latency_s,
            compute_utilization: report.compute_utilization,
            stable: report.stable,
        }
    });
    let cache_written = cache.save().map_err(|e| format!("cache save: {e}"))?;

    Ok(artifacts(
        "split",
        "SµDC splitting under the DES: per-unit ISL relief vs split factor (Sec. 8)",
        &[
            "split",
            "ED",
            "goodput",
            "mean latency (s)",
            "compute util",
            "stable",
        ],
        &out.results,
        |c: &SplitCell| {
            vec![
                c.factor.to_string(),
                ed_label(c.discard_rate),
                format!("{:.4}", c.goodput),
                format!("{:.4}", c.mean_latency_s),
                format!("{:.4}", c.compute_utilization),
                c.stable.to_string(),
            ]
        },
        &[
            Objective::maximize("goodput", |c: &SplitCell| c.goodput),
            Objective::minimize("split factor", |c: &SplitCell| c.factor as f64),
            Objective::minimize("ED", |c: &SplitCell| c.discard_rate),
        ],
        &[],
        out.stats,
        cache_written,
    ))
}

/// Builds the paper-reference [`crate::sim::SimConfig`] the serve sweep
/// evaluates: 1 simulated minute of the reference frame plane
/// ([`SPLIT_SWEEP_CLUSTERS`] SµDCs, `AirPollution` at 3 m, 0.95 ED)
/// with a two-tenant serving overlay — a premium interactive tenant
/// carrying `premium` of the `rate` requests/s and a best-effort
/// analytics tenant carrying the rest — batched under `policy`.
fn serve_sweep_config(rate: f64, premium: f64, policy: BatchPolicy) -> crate::sim::SimConfig {
    let mut cfg = crate::sim::SimConfig::paper_reference(
        Application::AirPollution,
        Length::from_m(3.0),
        0.95,
    );
    cfg.clusters = SPLIT_SWEEP_CLUSTERS;
    cfg.duration = units::Time::from_minutes(1.0);
    let mut serve = ServeConfig::defaults();
    serve.batch = policy;
    serve.tenants = vec![
        TenantSpec::interactive("premium", TenantClass::Premium, rate * premium),
        TenantSpec::analytics("analytics", rate * (1.0 - premium)),
    ];
    cfg.serve = Some(serve);
    cfg
}

/// Evaluates one serve-sweep cell through the DES.
fn serve_cell(rate: f64, premium: f64, code: usize) -> ServeCell {
    let fallback = ServeCell {
        rate_rps: rate,
        premium_share: premium,
        policy: code,
        requests_per_sec: 0.0,
        attainment: 0.0,
        premium_attainment: 0.0,
        batch_efficiency: 0.0,
        shed_rate: 1.0,
        stable: false,
    };
    let Some(policy) = BatchPolicy::from_code(code) else {
        return fallback;
    };
    let report = crate::sim::run(&serve_sweep_config(rate, premium, policy));
    let Some(serve) = report.serve else {
        return fallback;
    };
    let offered = serve.offered();
    let on_time: u64 = serve.tenants.iter().map(|t| t.on_time).sum();
    ServeCell {
        rate_rps: rate,
        premium_share: premium,
        policy: code,
        requests_per_sec: serve.requests_per_sec,
        attainment: if offered == 0 {
            1.0
        } else {
            on_time as f64 / offered as f64
        },
        premium_attainment: serve.tenants.first().map_or(1.0, |t| t.slo_attainment),
        batch_efficiency: serve.batch_efficiency,
        shed_rate: serve.shed_rate,
        stable: report.stable,
    }
}

fn run_serve(
    def: &SweepDef,
    overrides: &[(String, Vec<f64>)],
    opts: &ExecOptions,
    cache_dir: Option<&Path>,
) -> Result<SweepRun, String> {
    let rates = axis_f64(def, overrides, "rate");
    let shares = axis_f64(def, overrides, "premium");
    let policies = axis_usize(def, overrides, "policy")?;
    for &r in &rates {
        if !(r > 0.0) || !r.is_finite() {
            return Err(format!("axis 'rate' needs positive requests/s, got {r}"));
        }
    }
    for &s in &shares {
        if !(s > 0.0 && s < 1.0) {
            return Err(format!("axis 'premium' needs values in (0, 1), got {s}"));
        }
    }
    for &p in &policies {
        if BatchPolicy::from_code(p).is_none() {
            return Err(format!(
                "axis 'policy' wants 0 (fixed), 1 (deadline), or 2 (adaptive), got {p}"
            ));
        }
    }
    let mut points = Vec::new();
    for &rate in &rates {
        for &share in &shares {
            for &policy in &policies {
                points.push((rate, share, policy));
            }
        }
    }
    let space = Space::from_points("serve", points, |&(rate, share, policy)| {
        format!("rate={rate};premium={share};policy={policy}")
    });
    // v2: serve-layer accounting fixes (inflight counted only on
    // admission; leftover batch timers re-anchored at `now`) changed
    // cell results, so v1 cache entries are stale.
    let mut cache = open_cache(cache_dir, "serve", "serve-v2");
    let out = explore::sweep_cached(&space, opts, &mut cache, |&(rate, share, policy)| {
        serve_cell(rate, share, policy)
    });
    let cache_written = cache.save().map_err(|e| format!("cache save: {e}"))?;

    // Headline capacity: the highest completed-request throughput among
    // stable operating points (any point if none were stable).
    let peak = out
        .results
        .iter()
        .filter(|c| c.stable)
        .chain(out.results.iter())
        .max_by(|a, b| a.requests_per_sec.total_cmp(&b.requests_per_sec))
        .copied();

    let policy_label = |code: usize| BatchPolicy::from_code(code).map_or("?", BatchPolicy::as_str);
    let mut sweep = artifacts(
        "serve",
        "User-traffic capacity frontier: completed req/s vs SLO attainment (DES)",
        &[
            "rate (rps)",
            "premium",
            "policy",
            "req/s",
            "attainment",
            "premium att",
            "batch eff",
            "shed rate",
            "stable",
        ],
        &out.results,
        |c: &ServeCell| {
            vec![
                trim_float(c.rate_rps),
                trim_float(c.premium_share),
                policy_label(c.policy).to_string(),
                format!("{:.1}", c.requests_per_sec),
                format!("{:.4}", c.attainment),
                format!("{:.4}", c.premium_attainment),
                format!("{:.4}", c.batch_efficiency),
                format!("{:.4}", c.shed_rate),
                c.stable.to_string(),
            ]
        },
        &[
            Objective::maximize("req/s", |c: &ServeCell| c.requests_per_sec),
            Objective::maximize("SLO attainment", |c: &ServeCell| c.attainment),
        ],
        &[Constraint::new("bounded backlog", |c: &ServeCell| c.stable)],
        out.stats,
        cache_written,
    );
    if let Some(p) = peak {
        sweep.metrics = vec![
            ("serve.requests_per_sec", p.requests_per_sec),
            ("serve.batch_efficiency", p.batch_efficiency),
            ("serve.shed_rate", p.shed_rate),
        ];
    }
    Ok(sweep)
}

/// Fault scenarios the policy race runs, indexed by the `scenario`
/// axis code. All three are faulted regimes — the race is about how
/// controllers absorb faults, so the fault-free baseline contributes
/// nothing here (`repro sim` already prints it per scenario).
const POLICY_SWEEP_SCENARIOS: [&str; 3] = ["flaky_links", "cluster_loss", "combined"];

/// Offered serving load riding along each policy-race cell so the
/// admission/batching decision points are exercised and SLO attainment
/// is measurable, requests/s split evenly across the two tenants.
const POLICY_SWEEP_RATE_RPS: f64 = 400.0;

/// Ring shape for a policy-race `topology` axis code.
fn policy_sweep_topology(code: usize) -> Option<(crate::sim::SimTopology, &'static str)> {
    match code {
        0 => Some((crate::sim::SimTopology::Ring, "ring")),
        1 => Some((crate::sim::SimTopology::SplitRing { factor: 4 }, "split:4")),
        _ => None,
    }
}

/// Builds the paper-reference [`crate::sim::SimConfig`] one policy-race
/// cell evaluates: 2 simulated minutes of `AirPollution` at 3 m under
/// the coded fault scenario and topology, `ed` early-discard standing
/// in for frame load, a two-tenant serving overlay, and the coded
/// controller driving the decision points.
fn policy_sweep_config(
    controller: crate::sim::PolicyKind,
    scenario: usize,
    topology: usize,
    ed: f64,
) -> crate::sim::SimConfig {
    let mut cfg =
        crate::sim::SimConfig::paper_reference(Application::AirPollution, Length::from_m(3.0), ed);
    cfg.clusters = SPLIT_SWEEP_CLUSTERS;
    cfg.duration = units::Time::from_minutes(2.0);
    // The axes were validated in `run_policy`; out-of-range codes (only
    // reachable through a stale cache key) keep the reference defaults
    // rather than panicking mid-sweep.
    if let Some((topo, _)) = policy_sweep_topology(topology) {
        cfg.topology = topo;
    }
    if let Some(model) = POLICY_SWEEP_SCENARIOS
        .get(scenario)
        .and_then(|name| crate::sim::FaultModel::scenario(name))
    {
        cfg.faults = model;
    }
    cfg.policy = controller;
    let mut serve = ServeConfig::defaults();
    serve.tenants = vec![
        TenantSpec::interactive("premium", TenantClass::Premium, POLICY_SWEEP_RATE_RPS * 0.5),
        TenantSpec::analytics("analytics", POLICY_SWEEP_RATE_RPS * 0.5),
    ];
    cfg.serve = Some(serve);
    cfg
}

/// Evaluates one policy-race cell through the DES.
fn policy_cell(controller: usize, scenario: usize, topology: usize, ed: f64) -> PolicyCell {
    let kind = crate::sim::PolicyKind::names()
        .get(controller)
        .and_then(|name| crate::sim::PolicyKind::parse(name))
        .unwrap_or_default();
    let report = crate::sim::run(&policy_sweep_config(kind, scenario, topology, ed));
    let (offered, on_time) = report.serve.as_ref().map_or((0, 0), |s| {
        (s.offered(), s.tenants.iter().map(|t| t.on_time).sum())
    });
    PolicyCell {
        controller,
        scenario,
        topology,
        ed,
        goodput: report.goodput,
        availability: report.faults.availability,
        attainment: if offered == 0 {
            1.0
        } else {
            on_time as f64 / offered as f64
        },
        undeliverable: report.faults.undeliverable,
        reroutes: report.faults.reroutes,
        frames_shed: report.faults.frames_shed,
        stable: report.stable,
    }
}

/// Whether adaptive cell `a` strictly Pareto-dominates static cell `s`
/// on the race's goodput × availability leaderboard axes.
fn policy_dominates(a: &PolicyCell, s: &PolicyCell) -> bool {
    a.goodput >= s.goodput
        && a.availability >= s.availability
        && (a.goodput > s.goodput || a.availability > s.availability)
}

/// Appends one leaderboard note per adaptive controller: at how many
/// (scenario, topology, ed) matrix points it strictly dominates the
/// static controller, and the widest-margin example.
fn policy_dominance_notes(grid: &mut ExperimentResult, cells: &[PolicyCell]) {
    let static_at = |c: &PolicyCell| {
        cells.iter().find(|s| {
            s.controller == 0
                && s.scenario == c.scenario
                && s.topology == c.topology
                && s.ed == c.ed
        })
    };
    for controller in [1usize, 2] {
        let name = crate::sim::PolicyKind::names()[controller];
        let mut total = 0usize;
        let mut wins: Vec<(&PolicyCell, &PolicyCell)> = Vec::new();
        for c in cells.iter().filter(|c| c.controller == controller) {
            let Some(s) = static_at(c) else { continue };
            total += 1;
            if policy_dominates(c, s) {
                wins.push((c, s));
            }
        }
        let Some(&(best, base)) = wins.iter().max_by(|(a, sa), (b, sb)| {
            (a.goodput - sa.goodput).total_cmp(&(b.goodput - sb.goodput))
        }) else {
            grid.note(format!(
                "leaderboard: {name} strictly dominates static at 0/{total} matrix points"
            ));
            continue;
        };
        let topo = policy_sweep_topology(best.topology).map_or("?", |(_, l)| l);
        grid.note(format!(
            "leaderboard: {name} strictly dominates static (goodput × availability) at {}/{total} \
             matrix points; widest margin at {}/{topo}/ed={}: goodput {:.4} vs {:.4} at \
             availability {:.4} vs {:.4}",
            wins.len(),
            POLICY_SWEEP_SCENARIOS[best.scenario],
            trim_float(best.ed),
            best.goodput,
            base.goodput,
            best.availability,
            base.availability,
        ));
    }
}

fn run_policy(
    def: &SweepDef,
    overrides: &[(String, Vec<f64>)],
    opts: &ExecOptions,
    cache_dir: Option<&Path>,
) -> Result<SweepRun, String> {
    let controllers = axis_usize(def, overrides, "controller")?;
    let scenarios = axis_usize(def, overrides, "scenario")?;
    let topologies = axis_usize(def, overrides, "topology")?;
    let eds = axis_f64(def, overrides, "ed");
    for &c in &controllers {
        if c >= crate::sim::PolicyKind::names().len() {
            return Err(format!(
                "axis 'controller' wants 0 (static), 1 (reactive), or 2 (predictive), got {c}"
            ));
        }
    }
    for &s in &scenarios {
        if s >= POLICY_SWEEP_SCENARIOS.len() {
            return Err(format!(
                "axis 'scenario' wants 0 (flaky_links), 1 (cluster_loss), or 2 (combined), got {s}"
            ));
        }
    }
    for &t in &topologies {
        if policy_sweep_topology(t).is_none() {
            return Err(format!(
                "axis 'topology' wants 0 (ring) or 1 (split:4), got {t}"
            ));
        }
    }
    for &ed in &eds {
        if !(ed > 0.0 && ed <= 1.0) {
            return Err(format!("axis 'ed' needs values in (0, 1], got {ed}"));
        }
    }
    let mut points = Vec::new();
    for &c in &controllers {
        for &s in &scenarios {
            for &t in &topologies {
                for &ed in &eds {
                    points.push((c, s, t, ed));
                }
            }
        }
    }
    let space = Space::from_points("policy", points, |&(c, s, t, ed)| {
        format!("controller={c};scenario={s};topology={t};ed={ed}")
    });
    let mut cache = open_cache(cache_dir, "policy", "policy-v1");
    let out = explore::sweep_cached(&space, opts, &mut cache, |&(c, s, t, ed)| {
        policy_cell(c, s, t, ed)
    });
    let cache_written = cache.save().map_err(|e| format!("cache save: {e}"))?;

    let controller_label = |code: usize| *crate::sim::PolicyKind::names().get(code).unwrap_or(&"?");
    let mut sweep = artifacts(
        "policy",
        "Controller race: static vs reactive vs predictive across fault × topology × load (DES)",
        &[
            "controller",
            "scenario",
            "topology",
            "ed",
            "goodput",
            "availability",
            "attainment",
            "undeliverable",
            "reroutes",
            "frames shed",
            "stable",
        ],
        &out.results,
        |c: &PolicyCell| {
            vec![
                controller_label(c.controller).to_string(),
                POLICY_SWEEP_SCENARIOS[c.scenario].to_string(),
                policy_sweep_topology(c.topology)
                    .map_or("?", |(_, l)| l)
                    .to_string(),
                trim_float(c.ed),
                format!("{:.4}", c.goodput),
                format!("{:.4}", c.availability),
                format!("{:.4}", c.attainment),
                c.undeliverable.to_string(),
                c.reroutes.to_string(),
                c.frames_shed.to_string(),
                c.stable.to_string(),
            ]
        },
        &[
            Objective::maximize("goodput", |c: &PolicyCell| c.goodput),
            Objective::maximize("availability", |c: &PolicyCell| c.availability),
            Objective::maximize("SLO attainment", |c: &PolicyCell| c.attainment),
        ],
        &[],
        out.stats,
        cache_written,
    );
    policy_dominance_notes(&mut sweep.grid, &out.results);
    Ok(sweep)
}

fn run_sizing(
    def: &SweepDef,
    overrides: &[(String, Vec<f64>)],
    opts: &ExecOptions,
    cache_dir: Option<&Path>,
) -> Result<SweepRun, String> {
    let kws = axis_f64(def, overrides, "kw");
    let space = sizing_cli_space(
        &kws,
        &lengths(&axis_f64(def, overrides, "res")),
        &axis_f64(def, overrides, "ed"),
    );
    let mut cache = open_cache(cache_dir, "sizing", "fig9-v1");
    let out = explore::sweep_cached(&space, opts, &mut cache, sizing_cell);
    let cache_written = cache.save().map_err(|e| format!("cache save: {e}"))?;

    Ok(artifacts(
        "sizing",
        "SµDCs needed per application (RTX 3090, Fig. 9 space)",
        &["SµDC kW", "app", "resolution", "ED", "SµDCs"],
        &out.results,
        |c: &SizingCell| {
            vec![
                trim_float(c.kw),
                c.row.app.to_string(),
                res_label(c.row.resolution),
                ed_label(c.row.discard_rate),
                c.row
                    .sudcs
                    .map(|n| n.to_string())
                    .unwrap_or_else(|| "unmappable".to_string()),
            ]
        },
        &[
            Objective::minimize("SµDCs", |c: &SizingCell| match c.row.sudcs {
                Some(n) => n as f64,
                None => f64::NAN,
            }),
            Objective::minimize("resolution (m)", |c: &SizingCell| c.row.resolution.as_m()),
            Objective::minimize("ED", |c: &SizingCell| c.row.discard_rate),
        ],
        &[Constraint::new("measured on device", |c: &SizingCell| {
            c.row.sudcs.is_some()
        })],
        out.stats,
        cache_written,
    ))
}

fn run_table8(
    def: &SweepDef,
    overrides: &[(String, Vec<f64>)],
    opts: &ExecOptions,
    cache_dir: Option<&Path>,
) -> Result<SweepRun, String> {
    let space = crate::bottleneck::table8_space(
        &lengths(&axis_f64(def, overrides, "res")),
        &axis_f64(def, overrides, "ed"),
    );
    let mut cache = open_cache(cache_dir, "table8", "table8-v1");
    let out = explore::sweep_cached(&space, opts, &mut cache, crate::bottleneck::table8_cell);
    let cache_written = cache.save().map_err(|e| format!("cache save: {e}"))?;

    Ok(artifacts(
        "table8",
        "EO satellites one ring SµDC can ingest from (Table 8 space)",
        &["resolution", "ED", "ISL", "supportable EO sats"],
        &out.results,
        |c: &Table8Cell| {
            vec![
                res_label(c.resolution),
                ed_label(c.discard_rate),
                c.isl.to_string(),
                c.supportable.to_string(),
            ]
        },
        &[
            Objective::maximize("supportable EO sats", |c: &Table8Cell| c.supportable as f64),
            Objective::minimize("ISL capacity (Gbit/s)", |c: &Table8Cell| {
                c.isl.capacity().as_bps() / 1e9
            }),
        ],
        &[Constraint::new(
            "supports ≥ 1 satellite",
            |c: &Table8Cell| c.supportable >= 1,
        )],
        out.stats,
        cache_written,
    ))
}

fn run_bottleneck(
    def: &SweepDef,
    overrides: &[(String, Vec<f64>)],
    opts: &ExecOptions,
    cache_dir: Option<&Path>,
) -> Result<SweepRun, String> {
    let space = bottleneck_cli_space(
        &axis_f64(def, overrides, "kw"),
        &lengths(&axis_f64(def, overrides, "res")),
        &axis_f64(def, overrides, "ed"),
    );
    let mut cache = open_cache(cache_dir, "bottleneck", "fig11-v1");
    let out = explore::sweep_cached(&space, opts, &mut cache, |p| {
        fig11_row(PAPER_CONSTELLATION, p)
    });
    let cache_written = cache.save().map_err(|e| format!("cache save: {e}"))?;

    let fmt_clusters = |c: usize| {
        if c == usize::MAX {
            "infeasible".to_string()
        } else {
            c.to_string()
        }
    };
    Ok(artifacts(
        "bottleneck",
        "Ring clusters needed vs ISL capacity across applications (Fig. 11 space)",
        &[
            "SµDC kW",
            "app",
            "resolution",
            "ED",
            "ISL",
            "compute clusters",
            "ISL clusters",
            "clusters",
            "binding",
        ],
        &out.results,
        move |r: &Fig11Row| {
            let (cc, ic, cl, binding) = match &r.analysis {
                Some(a) => (
                    a.compute_clusters.to_string(),
                    fmt_clusters(a.isl_clusters),
                    fmt_clusters(a.clusters),
                    a.binding.to_string(),
                ),
                None => (
                    "unmappable".to_string(),
                    "unmappable".to_string(),
                    "unmappable".to_string(),
                    "unmappable".to_string(),
                ),
            };
            vec![
                trim_float(r.sudc_kw),
                r.app.to_string(),
                res_label(r.resolution),
                ed_label(r.discard_rate),
                r.isl.to_string(),
                cc,
                ic,
                cl,
                binding,
            ]
        },
        &[
            Objective::minimize("clusters", |r: &Fig11Row| match &r.analysis {
                Some(a) if a.isl_clusters != usize::MAX => a.clusters as f64,
                _ => f64::NAN,
            }),
            Objective::minimize("resolution (m)", |r: &Fig11Row| r.resolution.as_m()),
            Objective::minimize("ED", |r: &Fig11Row| r.discard_rate),
        ],
        &[Constraint::new("feasible ring ingest", |r: &Fig11Row| {
            r.analysis
                .as_ref()
                .is_some_and(|a| a.isl_clusters != usize::MAX)
        })],
        out.stats,
        cache_written,
    ))
}

fn lengths(meters: &[f64]) -> Vec<Length> {
    meters.iter().map(|&m| Length::from_m(m)).collect()
}

/// One cell of the split sweep: the DES outcome of serving the
/// paper-reference ring with each SµDC split `factor` ways.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitCell {
    /// SµDC split factor (1 = the plain ring).
    pub factor: usize,
    /// Early-discard target the frames were generated under.
    pub discard_rate: f64,
    /// Processed / kept over the run.
    pub goodput: f64,
    /// Mean end-to-end latency, seconds.
    pub mean_latency_s: f64,
    /// Mean per-unit compute utilisation.
    pub compute_utilization: f64,
    /// Whether the backlog stayed bounded.
    pub stable: bool,
}

impl explore::Cacheable for SplitCell {
    fn encode(&self) -> String {
        explore::Enc::new()
            .usize(self.factor)
            .f64(self.discard_rate)
            .f64(self.goodput)
            .f64(self.mean_latency_s)
            .f64(self.compute_utilization)
            .bool(self.stable)
            .finish()
    }

    fn decode(s: &str) -> Option<Self> {
        let mut d = explore::Dec::new(s);
        Some(Self {
            factor: d.usize()?,
            discard_rate: d.f64()?,
            goodput: d.f64()?,
            mean_latency_s: d.f64()?,
            compute_utilization: d.f64()?,
            stable: d.bool()?,
        })
    }
}

/// One cell of the serve sweep: the DES serving outcome at one offered
/// rate, tenant mix, and batching policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeCell {
    /// Total offered load across both tenants, requests/s.
    pub rate_rps: f64,
    /// Premium tenant's share of the offered load, in (0, 1).
    pub premium_share: f64,
    /// Batch policy code ([`BatchPolicy::code`]).
    pub policy: usize,
    /// Completed requests per simulated second.
    pub requests_per_sec: f64,
    /// On-time completions over offered requests, both tenants.
    pub attainment: f64,
    /// The premium tenant's SLO attainment.
    pub premium_attainment: f64,
    /// Request-weighted mean batch efficiency.
    pub batch_efficiency: f64,
    /// Requests turned away (throttled + shed + lost) over offered.
    pub shed_rate: f64,
    /// Whether the run's backlog stayed bounded.
    pub stable: bool,
}

impl explore::Cacheable for ServeCell {
    fn encode(&self) -> String {
        explore::Enc::new()
            .f64(self.rate_rps)
            .f64(self.premium_share)
            .usize(self.policy)
            .f64(self.requests_per_sec)
            .f64(self.attainment)
            .f64(self.premium_attainment)
            .f64(self.batch_efficiency)
            .f64(self.shed_rate)
            .bool(self.stable)
            .finish()
    }

    fn decode(s: &str) -> Option<Self> {
        let mut d = explore::Dec::new(s);
        Some(Self {
            rate_rps: d.f64()?,
            premium_share: d.f64()?,
            policy: d.usize()?,
            requests_per_sec: d.f64()?,
            attainment: d.f64()?,
            premium_attainment: d.f64()?,
            batch_efficiency: d.f64()?,
            shed_rate: d.f64()?,
            stable: d.bool()?,
        })
    }
}

/// One cell of the policy race: the DES outcome of one controller on
/// one (fault scenario, topology, early-discard load) matrix point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyCell {
    /// Controller code ([`crate::sim::PolicyKind::names`] index).
    pub controller: usize,
    /// Fault scenario code ([`POLICY_SWEEP_SCENARIOS`] index).
    pub scenario: usize,
    /// Topology code (0 ring, 1 split:4).
    pub topology: usize,
    /// Early-discard keep rate, the sweep's load proxy.
    pub ed: f64,
    /// Frames processed over frames kept.
    pub goodput: f64,
    /// Constellation-time availability (policy-independent: the same
    /// outage streams drive it under every controller).
    pub availability: f64,
    /// On-time serve completions over offered requests.
    pub attainment: f64,
    /// Frames dropped after exhausting retries and reroutes.
    pub undeliverable: u64,
    /// Frames sent the long way round a dead link or SµDC.
    pub reroutes: u64,
    /// Frames shed by degradation (configured + policy pre-shed).
    pub frames_shed: u64,
    /// Whether the run's backlog stayed bounded.
    pub stable: bool,
}

impl explore::Cacheable for PolicyCell {
    fn encode(&self) -> String {
        explore::Enc::new()
            .usize(self.controller)
            .usize(self.scenario)
            .usize(self.topology)
            .f64(self.ed)
            .f64(self.goodput)
            .f64(self.availability)
            .f64(self.attainment)
            .u64(self.undeliverable)
            .u64(self.reroutes)
            .u64(self.frames_shed)
            .bool(self.stable)
            .finish()
    }

    fn decode(s: &str) -> Option<Self> {
        let mut d = explore::Dec::new(s);
        Some(Self {
            controller: d.usize()?,
            scenario: d.usize()?,
            topology: d.usize()?,
            ed: d.f64()?,
            goodput: d.f64()?,
            availability: d.f64()?,
            attainment: d.f64()?,
            undeliverable: d.u64()?,
            reroutes: d.u64()?,
            frames_shed: d.u64()?,
            stable: d.bool()?,
        })
    }
}

/// One cell of the CLI sizing sweep: a [`SizingRow`] tagged with the
/// SµDC power it was sized at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizingCell {
    /// SµDC compute power (kW).
    pub kw: f64,
    /// The sizing result.
    pub row: SizingRow,
}

fn sizing_cell(&(kw, app, res, ed): &(f64, Application, Length, f64)) -> SizingCell {
    let spec = SudcSpec {
        compute_power: units::Power::from_kilowatts(kw),
        device: workloads::Device::Rtx3090,
        hardening: workloads::Hardening::None,
    };
    SizingCell {
        kw,
        row: sizing_point(&spec, PAPER_CONSTELLATION, &(app, res, ed)),
    }
}

impl explore::Cacheable for SizingCell {
    fn encode(&self) -> String {
        explore::Enc::new().f64(self.kw).finish() + "|" + &self.row.encode()
    }

    fn decode(s: &str) -> Option<Self> {
        let (kw, rest) = s.split_once('|')?;
        let kw = explore::Dec::new(kw).f64()?;
        Some(Self {
            kw,
            row: SizingRow::decode(rest)?,
        })
    }
}

/// The CLI sizing space: SµDC power × application × resolution ×
/// early-discard (power outermost).
pub fn sizing_cli_space(
    kws: &[f64],
    resolutions: &[Length],
    discard_rates: &[f64],
) -> Space<(f64, Application, Length, f64)> {
    let mut points = Vec::new();
    for &kw in kws {
        for app in Application::ALL {
            for &res in resolutions {
                for &ed in discard_rates {
                    points.push((kw, app, res, ed));
                }
            }
        }
    }
    Space::from_points("sizing", points, |&(kw, app, res, ed)| {
        format!("kw={kw};app={app};res={res};ed={ed}")
    })
}

/// The CLI bottleneck space: SµDC power × application × resolution ×
/// early-discard × ISL class (power outermost). This is the full-grid
/// generalisation of [`crate::bottleneck::fig11_space`], whose points
/// hash identically at shared coordinates.
pub fn bottleneck_cli_space(
    kws: &[f64],
    resolutions: &[Length],
    discard_rates: &[f64],
) -> Space<(f64, Application, Length, f64, IslClass)> {
    let mut points = Vec::new();
    for &kw in kws {
        for app in Application::ALL {
            for &res in resolutions {
                for &ed in discard_rates {
                    for isl in IslClass::ALL {
                        points.push((kw, app, res, ed, isl));
                    }
                }
            }
        }
    }
    Space::from_points("fig11", points, |&(kw, app, res, ed, isl)| {
        format!("kw={kw};app={app};res={res};ed={ed};isl={isl}")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// Every named sweep run once sequentially and uncached, shared by the
    /// tests that need exactly that run so it is computed once per binary.
    fn sequential_runs() -> &'static [SweepRun] {
        static RUNS: OnceLock<Vec<SweepRun>> = OnceLock::new();
        RUNS.get_or_init(|| {
            all()
                .iter()
                .map(|def| {
                    run(def.name, &[], &ExecOptions::sequential(), None)
                        .unwrap_or_else(|e| panic!("{}: {e}", def.name))
                })
                .collect()
        })
    }

    #[test]
    fn every_named_sweep_runs_uncached() {
        for run in sequential_runs() {
            assert!(!run.grid.rows.is_empty(), "{} grid empty", run.name);
            assert!(!run.frontier.rows.is_empty(), "{} frontier empty", run.name);
            assert!(
                run.frontier.rows.len() <= run.grid.rows.len(),
                "{} frontier larger than grid",
                run.name
            );
            assert_eq!(run.stats.evaluated, run.stats.points);
            assert!(run.cache_written.is_none(), "{} wrote a cache", run.name);
        }
    }

    #[test]
    fn parallel_named_sweep_matches_sequential() {
        for seq in sequential_runs() {
            let par = run(seq.name, &[], &ExecOptions::threads(4), None).unwrap();
            assert_eq!(seq.grid.rows, par.grid.rows, "{} grid", seq.name);
            assert_eq!(
                seq.frontier.rows, par.frontier.rows,
                "{} frontier",
                seq.name
            );
        }
    }

    #[test]
    fn default_codesign_grid_matches_fig13() {
        let run = run("codesign", &[], &ExecOptions::sequential(), None).unwrap();
        let fig13 = crate::experiments::run("fig13").unwrap();
        assert_eq!(run.grid.rows, fig13.rows);
    }

    #[test]
    fn axis_overrides_reshape_the_space() {
        let overrides = vec![
            ("k".to_string(), vec![2.0, 4.0]),
            ("split".to_string(), vec![1.0, 2.0, 3.0]),
        ];
        let run = run("codesign", &overrides, &ExecOptions::sequential(), None).unwrap();
        assert_eq!(run.grid.rows.len(), 6);
        assert_eq!(run.grid.rows[5][0], "4");
        assert_eq!(run.grid.rows[5][1], "3");
    }

    #[test]
    fn unknown_names_are_rejected() {
        assert!(run("nope", &[], &ExecOptions::sequential(), None)
            .unwrap_err()
            .contains("unknown sweep"));
        let bad_axis = vec![("device".to_string(), vec![1.0])];
        assert!(run("sizing", &bad_axis, &ExecOptions::sequential(), None)
            .unwrap_err()
            .contains("no axis 'device'"));
        let odd_k = vec![("k".to_string(), vec![3.0])];
        assert!(run("codesign", &odd_k, &ExecOptions::sequential(), None)
            .unwrap_err()
            .contains("even values"));
        let frac = vec![("split".to_string(), vec![1.5])];
        assert!(run("codesign", &frac, &ExecOptions::sequential(), None)
            .unwrap_err()
            .contains("integers"));
    }

    #[test]
    fn codesign_frontier_is_the_efficient_mix() {
        // With capacity ↑ and power ↓, splitting (linear power) beats
        // k-growth (quadratic power) wherever both can reach a capacity,
        // so the whole k = 2 line survives; above the largest split the
        // only way to more capacity is more k, so the max-split points
        // of k > 2 survive too. Nothing else does.
        let run = run("codesign", &[], &ExecOptions::sequential(), None).unwrap();
        assert_eq!(run.frontier.rows.len(), 7, "rows: {:?}", run.frontier.rows);
        assert!(
            run.frontier
                .rows
                .iter()
                .all(|row| row[0] == "2" || row[1] == "8"),
            "frontier rows: {:?}",
            run.frontier.rows
        );
        assert_eq!(
            run.frontier.rows.iter().filter(|row| row[0] == "2").count(),
            4,
            "the full splitting line survives"
        );
    }

    #[test]
    fn persistent_cache_round_trips_across_runs() {
        let dir = std::env::temp_dir().join(format!("sudc_sweeps_cache_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cold = run("table8", &[], &ExecOptions::sequential(), Some(&dir)).unwrap();
        assert_eq!(cold.stats.cache_hits, 0);
        assert_eq!(cold.stats.evaluated, cold.stats.points);
        assert!(cold.cache_written.is_some());

        let warm = run("table8", &[], &ExecOptions::threads(2), Some(&dir)).unwrap();
        assert_eq!(warm.stats.evaluated, 0, "warm cache evaluates nothing");
        assert_eq!(warm.stats.cache_hits, warm.stats.points);
        assert!(warm.cache_written.is_none(), "clean cache not rewritten");
        assert_eq!(cold.grid.rows, warm.grid.rows);
        assert_eq!(cold.frontier.rows, warm.frontier.rows);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn split_sweep_rejects_indivisible_factors() {
        let bad = vec![("factor".to_string(), vec![3.0])];
        assert!(run("split", &bad, &ExecOptions::sequential(), None)
            .unwrap_err()
            .contains("divide the ring"));
    }

    #[test]
    fn split_sweep_caches_its_des_runs() {
        let dir = std::env::temp_dir().join(format!("sudc_split_cache_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let overrides = vec![
            ("factor".to_string(), vec![1.0, 4.0]),
            ("ed".to_string(), vec![0.95]),
        ];
        let cold = run("split", &overrides, &ExecOptions::sequential(), Some(&dir)).unwrap();
        assert_eq!(cold.stats.cache_hits, 0);
        assert_eq!(cold.stats.evaluated, 2);

        let warm = run("split", &overrides, &ExecOptions::sequential(), Some(&dir)).unwrap();
        assert_eq!(
            warm.stats.evaluated, 0,
            "warm split sweep replays the cache"
        );
        assert_eq!(warm.stats.cache_hits, warm.stats.points);
        assert_eq!(cold.grid.rows, warm.grid.rows);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_sweep_rejects_bad_axes() {
        let bad_share = vec![("premium".to_string(), vec![1.0])];
        assert!(run("serve", &bad_share, &ExecOptions::sequential(), None)
            .unwrap_err()
            .contains("(0, 1)"));
        let bad_rate = vec![("rate".to_string(), vec![0.0])];
        assert!(run("serve", &bad_rate, &ExecOptions::sequential(), None)
            .unwrap_err()
            .contains("positive requests/s"));
        let bad_policy = vec![("policy".to_string(), vec![5.0])];
        assert!(run("serve", &bad_policy, &ExecOptions::sequential(), None)
            .unwrap_err()
            .contains("adaptive"));
    }

    #[test]
    fn serve_sweep_surfaces_capacity_metrics() {
        let overrides = vec![
            ("rate".to_string(), vec![200.0]),
            ("premium".to_string(), vec![0.5]),
            ("policy".to_string(), vec![2.0]),
        ];
        let run = run("serve", &overrides, &ExecOptions::sequential(), None).unwrap();
        assert_eq!(run.grid.rows.len(), 1);
        let rps = run
            .metrics
            .iter()
            .find(|(k, _)| *k == "serve.requests_per_sec")
            .map(|&(_, v)| v)
            .unwrap();
        assert!(rps > 0.0, "peak throughput {rps} not positive");
        assert!(run
            .metrics
            .iter()
            .any(|(k, _)| *k == "serve.batch_efficiency"));
        assert!(run.metrics.iter().any(|(k, _)| *k == "serve.shed_rate"));
    }

    #[test]
    fn serve_cell_cache_round_trips() {
        use explore::Cacheable;
        let cell = serve_cell(200.0, 0.5, 2);
        assert!(cell.requests_per_sec > 0.0);
        assert_eq!(ServeCell::decode(&cell.encode()), Some(cell));
    }

    #[test]
    fn policy_cell_cache_round_trips() {
        use explore::Cacheable;
        let cell = PolicyCell {
            controller: 1,
            scenario: 0,
            topology: 1,
            ed: 0.95,
            goodput: 0.9634,
            availability: 0.8864,
            attainment: 0.97,
            undeliverable: 5,
            reroutes: 18,
            frames_shed: 2,
            stable: true,
        };
        assert_eq!(PolicyCell::decode(&cell.encode()), Some(cell));
    }

    #[test]
    fn policy_race_rejects_unknown_codes() {
        for (axis, bad) in [("controller", 3.0), ("scenario", 3.0), ("topology", 2.0)] {
            let overrides = vec![(axis.to_string(), vec![bad])];
            let err = run("policy", &overrides, &ExecOptions::sequential(), None).unwrap_err();
            assert!(err.contains(axis), "{err}");
        }
    }

    #[test]
    fn split_cell_cache_round_trips() {
        use explore::Cacheable;
        let cell = SplitCell {
            factor: 4,
            discard_rate: 0.95,
            goodput: 0.875,
            mean_latency_s: 1.5,
            compute_utilization: 0.25,
            stable: true,
        };
        assert_eq!(SplitCell::decode(&cell.encode()), Some(cell));
    }

    #[test]
    fn sizing_cell_cache_round_trips() {
        use explore::Cacheable;
        let cell = sizing_cell(&(4.0, Application::FloodDetection, Length::from_m(1.0), 0.5));
        assert_eq!(SizingCell::decode(&cell.encode()), Some(cell));
    }

    #[test]
    fn cli_fig11_points_hash_like_the_figure_space() {
        // Shared coordinates content-address identically, so a cache
        // warmed by the CLI grid serves the paper-figure subspace too.
        let figure = crate::bottleneck::fig11_space(&[4.0]);
        let cli = bottleneck_cli_space(
            &[4.0],
            &lengths(&[3.0, 1.0, 0.3, 0.1]),
            &[0.0, 0.5, 0.95, 0.99],
        );
        let cli_hashes: std::collections::BTreeSet<u64> =
            cli.ids().iter().map(|id| id.hash).collect();
        let shared = figure
            .ids()
            .iter()
            .filter(|id| cli_hashes.contains(&id.hash))
            .count();
        // Every Fig. 11 case uses paper resolutions and discard rates,
        // so all 15 figure points must be shared with the CLI grid.
        assert_eq!(shared, figure.len(), "figure points missing from CLI grid");
    }
}
