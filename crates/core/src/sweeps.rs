//! Named design-space sweeps for the `repro explore` CLI.
//!
//! Each sweep is data, a `Sweep` table entry: its axes with their
//! domains, a cache version tag, a space over the resolved axes, a cell
//! function, the columns and row function that render a cell, the
//! objectives and constraints of its Pareto frontier, and a finish hook.
//! One generic runner does the shared work for every sweep: [`run`]
//! looks the sweep up, resolves `--axis` overrides against the defaults
//! and checks every value against its axis's domain; the runner then
//! builds the space, validates each DES point's [`SimConfig`] before any
//! cell runs, evaluates the space through [`explore::sweep_cached`], and
//! turns the cells into grid and frontier [`ExperimentResult`]s.

use std::fmt;
use std::path::{Path, PathBuf};

use comms::IslClass;
use explore::{Cache, Cacheable, Constraint, Direction, ExecOptions, Objective, Space, SweepStats};
use imagery::FrameSpec;
use units::fmt_si::trim_float;
use units::Length;
use workloads::Application;

use crate::bottleneck::{fig11_row, table8_cell, table8_space, Fig11Row, Table8Cell};
use crate::codesign::{fig13_point, fig13_space, paper_fig13_axes, CodesignPoint};
use crate::experiments::figures::{ed_label, res_label};
use crate::experiments::ExperimentResult;
use crate::sim::serve::{BatchPolicy, ServeConfig, ServeReport, TenantClass, TenantSpec};
use crate::sim::{PolicyKind, SimConfig, SimTopology};
use crate::sizing::{sizing_point, SizingRow, SudcSpec, PAPER_CONSTELLATION};

/// The values an axis accepts. Every value must also be finite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Domain {
    /// Even integers ≥ 2.
    EvenFrom2,
    /// Integers ≥ 1.
    Count,
    /// Values > 0.
    Positive,
    /// Values in [0, 1).
    Rate,
    /// Values in (0, 1).
    Share,
    /// Integer codes, each indexing one of these names.
    Code(&'static [&'static str]),
}

impl Domain {
    /// Whether `v` is a finite value in the domain.
    fn contains(self, v: f64) -> bool {
        // fract() of a non-negative v is non-negative, so `<= 0.0` is
        // exactly the integer-valued check.
        let int_from = |lo: f64| v >= lo && v.fract() <= 0.0;
        v.is_finite()
            && match self {
                Domain::EvenFrom2 => int_from(2.0) && (v / 2.0).fract() <= 0.0,
                Domain::Count => int_from(1.0),
                Domain::Positive => v > 0.0,
                Domain::Rate => (0.0..1.0).contains(&v),
                Domain::Share => v > 0.0 && v < 1.0,
                Domain::Code(names) => int_from(0.0) && v < names.len() as f64,
            }
    }
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Domain::EvenFrom2 => f.write_str("even integers ≥ 2"),
            Domain::Count => f.write_str("integers ≥ 1"),
            Domain::Positive => f.write_str("finite values > 0"),
            Domain::Rate => f.write_str("values in [0, 1)"),
            Domain::Share => f.write_str("values in (0, 1)"),
            Domain::Code(names) => {
                let codes: Vec<String> = names
                    .iter()
                    .enumerate()
                    .map(|(i, name)| format!("{i} ({name})"))
                    .collect();
                write!(f, "one of the codes {}", codes.join(", "))
            }
        }
    }
}

/// One overridable numeric axis of a named sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct AxisSpec {
    /// Axis name as accepted by `--axis name=…`.
    pub name: &'static str,
    /// What the axis controls.
    pub help: &'static str,
    /// Default values.
    pub default: Vec<f64>,
    /// The values the axis accepts.
    pub domain: Domain,
}

fn axis(name: &'static str, help: &'static str, domain: Domain, default: Vec<f64>) -> AxisSpec {
    AxisSpec {
        name,
        help,
        default,
        domain,
    }
}

fn kw_axis(default: Vec<f64>) -> AxisSpec {
    axis("kw", "SµDC compute power (kW)", Domain::Positive, default)
}

fn res_axis() -> AxisSpec {
    let default = FrameSpec::paper_resolutions()
        .iter()
        .map(|r| r.as_m())
        .collect();
    axis("res", "spatial resolution (m)", Domain::Positive, default)
}

fn ed_axis(default: Vec<f64>) -> AxisSpec {
    axis("ed", "early-discard rate in [0, 1)", Domain::Rate, default)
}

/// A named sweep's description (for `repro explore --list`) and the
/// runner monomorphised for its `Sweep` entry.
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

/// Runs one sweep over its resolved, checked axis values.
type Runner = fn(&[Vec<f64>], &ExecOptions, Option<&Path>) -> Result<SweepRun, String>;

/// All named sweeps, in presentation order.
pub fn all() -> Vec<SweepDef> {
    fn def<P, C>(sweep: Sweep<P, C>, runner: Runner) -> SweepDef {
        SweepDef {
            name: sweep.name,
            title: sweep.summary,
            axes: sweep.axes,
            runner,
        }
    }
    vec![
        def(codesign(), |a, o, d| run_sweep(codesign(), a, o, d)),
        def(split(), |a, o, d| run_sweep(split(), a, o, d)),
        def(serve(), |a, o, d| run_sweep(serve(), a, o, d)),
        def(sizing(), |a, o, d| run_sweep(sizing(), a, o, d)),
        def(table8(), |a, o, d| run_sweep(table8(), a, o, d)),
        def(bottleneck(), |a, o, d| run_sweep(bottleneck(), a, o, d)),
        def(policy(), |a, o, d| run_sweep(policy(), a, o, d)),
    ]
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
/// Returns a message for unknown sweep names, unknown axis names, an
/// axis with no values or a value outside its axis's [`Domain`], and a
/// DES point whose configuration fails [`SimConfig::validate`].
pub fn run(
    name: &str,
    overrides: &[(String, Vec<f64>)],
    opts: &ExecOptions,
    cache_dir: Option<&Path>,
) -> Result<SweepRun, String> {
    let defs = all();
    let Some(def) = defs.iter().find(|d| d.name == name) else {
        let names: Vec<&str> = defs.iter().map(|d| d.name).collect();
        return Err(format!(
            "unknown sweep '{name}' (available: {})",
            names.join(", ")
        ));
    };
    for (axis, _) in overrides {
        if !def.axes.iter().any(|a| a.name == axis) {
            let names: Vec<&str> = def.axes.iter().map(|a| a.name).collect();
            return Err(format!(
                "sweep '{name}' has no axis '{axis}' (axes: {})",
                names.join(", ")
            ));
        }
    }
    let mut resolved = Vec::with_capacity(def.axes.len());
    for axis in &def.axes {
        let values = overrides
            .iter()
            .find(|(n, _)| n == axis.name)
            .map_or(&axis.default, |(_, v)| v);
        if values.is_empty() {
            return Err(format!("axis '{}' needs at least one value", axis.name));
        }
        if let Some(v) = values.iter().find(|&&v| !axis.domain.contains(v)) {
            return Err(format!(
                "axis '{}' needs {}, got {v}",
                axis.name, axis.domain
            ));
        }
        resolved.push(values.clone());
    }
    (def.runner)(&resolved, opts, cache_dir)
}

/// One named sweep declared as data over points `P` evaluating to
/// cells `C`; [`run_sweep`] does the rest.
pub(crate) struct Sweep<P, C> {
    /// CLI name, also the cache snapshot's name.
    name: &'static str,
    /// One-line description for `repro explore list`.
    summary: &'static str,
    /// Title of the grid artifact.
    title: &'static str,
    /// Cache version tag: bump it whenever a cell's value changes.
    tag: &'static str,
    /// Column headers, one per `row` entry.
    pub(crate) columns: &'static [&'static str],
    /// The overridable axes, in the order `space` reads them.
    axes: Vec<AxisSpec>,
    /// The space over the resolved axis values.
    space: fn(&[Vec<f64>]) -> Space<P>,
    /// The DES configuration a point simulates, validated before any
    /// cell runs; `None` for the closed-form sweeps.
    config: fn(&P) -> Option<SimConfig>,
    /// Evaluates one point.
    cell: fn(&P) -> C,
    /// Renders one cell as a grid row.
    pub(crate) row: fn(&C) -> Vec<String>,
    /// The frontier's objectives.
    objectives: Vec<Objective<C>>,
    /// The frontier's feasibility constraints.
    constraints: Vec<Constraint<C>>,
    /// Adds sweep-specific notes or metrics to the finished run.
    finish: fn(&mut SweepRun, &[C]),
}

/// The one runner behind every named sweep: builds the space over the
/// checked axes, validates its DES points, evaluates it through the
/// memo cache, and assembles the grid and Pareto-frontier artifacts.
fn run_sweep<P: Sync, C: Cacheable + Send>(
    sweep: Sweep<P, C>,
    axes: &[Vec<f64>],
    opts: &ExecOptions,
    cache_dir: Option<&Path>,
) -> Result<SweepRun, String> {
    let space = (sweep.space)(axes);
    for (i, point) in space.points().iter().enumerate() {
        if let Some(cfg) = (sweep.config)(point) {
            cfg.validate()
                .map_err(|e| format!("sweep '{}' point {}: {e}", sweep.name, space.coords(i)))?;
        }
    }
    let mut cache = match cache_dir {
        Some(dir) => Cache::open(dir, sweep.name, sweep.tag),
        None => Cache::in_memory(sweep.tag),
    };
    let out = explore::sweep_cached(&space, opts, &mut cache, sweep.cell);
    let cache_written = cache.save().map_err(|e| format!("cache save: {e}"))?;

    let cells = out.results;
    let grid_id = format!("explore_{}", sweep.name);
    let mut grid = ExperimentResult::new(&grid_id, sweep.title, sweep.columns);
    for c in &cells {
        grid.push_row((sweep.row)(c));
    }
    let front = explore::pareto_indices(&cells, &sweep.objectives, &sweep.constraints);
    let mut frontier = ExperimentResult::new(
        &format!("{grid_id}_frontier"),
        &format!("{} — Pareto frontier", sweep.title),
        sweep.columns,
    );
    for &i in &front {
        frontier.push_row((sweep.row)(&cells[i]));
    }
    let under: Vec<String> = sweep
        .objectives
        .iter()
        .map(|o| match o.direction {
            Direction::Minimize => format!("min {}", o.name),
            Direction::Maximize => format!("max {}", o.name),
        })
        .collect();
    let mut note = format!("Pareto-nondominated under: {}", under.join(", "));
    if !sweep.constraints.is_empty() {
        let names: Vec<&str> = sweep.constraints.iter().map(|c| c.name.as_str()).collect();
        note += &format!("; subject to: {}", names.join(", "));
    }
    frontier.note(note);
    frontier.note(format!(
        "{} of {} feasible-and-nondominated points",
        front.len(),
        cells.len()
    ));

    let mut run = SweepRun {
        name: sweep.name,
        grid,
        frontier,
        stats: out.stats,
        cache_written,
        metrics: Vec::new(),
    };
    (sweep.finish)(&mut run, &cells);
    Ok(run)
}

/// Every combination of the axes' values, first axis outermost, each
/// mapped to a point.
fn product<P>(axes: &[Vec<f64>], point: impl Fn(&[f64]) -> P) -> Vec<P> {
    let mut combos: Vec<Vec<f64>> = vec![Vec::new()];
    for axis in axes {
        combos = combos
            .iter()
            .flat_map(|c| axis.iter().map(move |&v| [c.as_slice(), &[v]].concat()))
            .collect();
    }
    combos.iter().map(|c| point(c)).collect()
}

/// Integer axis values as counts (their domains make them integral).
fn counts(values: &[f64]) -> Vec<usize> {
    values.iter().map(|&v| v as usize).collect()
}

fn lengths(meters: &[f64]) -> Vec<Length> {
    meters.iter().map(|&m| Length::from_m(m)).collect()
}

/// The name of a coded axis value, `?` for a code outside `names`.
fn label(names: &[&'static str], code: usize) -> &'static str {
    names.get(code).copied().unwrap_or("?")
}

/// Fig. 13's k-list × splitting capacity/power trade.
pub(crate) fn codesign() -> Sweep<(usize, usize), CodesignPoint> {
    let (ks, splits) = paper_fig13_axes();
    let floats = |v: Vec<usize>| v.into_iter().map(|n| n as f64).collect();
    Sweep {
        name: "codesign",
        summary: "Fig. 13 k-list × splitting capacity/power trade",
        title: "k-list × splitting: normalised capacity vs ISL transmit power (Fig. 13 space)",
        tag: "fig13-v1",
        columns: &[
            "k",
            "split",
            "capacity (×ring)",
            "power (×ring)",
            "capacity/power",
        ],
        axes: vec![
            axis(
                "k",
                "ingest links per SµDC (even, ≥ 2)",
                Domain::EvenFrom2,
                floats(ks),
            ),
            axis(
                "split",
                "SµDC splitting factor (≥ 1)",
                Domain::Count,
                floats(splits),
            ),
        ],
        space: |axes| fig13_space(&counts(&axes[0]), &counts(&axes[1])),
        config: |_| None,
        cell: |&(k, split)| fig13_point(k, split),
        row: |p| {
            vec![
                p.k.to_string(),
                p.split.to_string(),
                trim_float(p.capacity_norm),
                trim_float(p.power_norm),
                format!("{:.3}", p.capacity_per_power),
            ]
        },
        objectives: vec![
            Objective::maximize("capacity (×ring)", |p: &CodesignPoint| p.capacity_norm),
            Objective::minimize("power (×ring)", |p: &CodesignPoint| p.power_norm),
        ],
        constraints: Vec::new(),
        finish: |_, _| {},
    }
}

/// Fixed SµDC count of the DES sweeps' reference ring: matches the
/// `repro sim` default so the split sweep's factor-1 column reproduces
/// that regime.
const SPLIT_SWEEP_CLUSTERS: usize = 4;

/// The DES sweeps' paper-reference [`SimConfig`]: `minutes` simulated
/// minutes of `AirPollution` at 3 m under `ed` early discard, the ring
/// served by [`SPLIT_SWEEP_CLUSTERS`] SµDCs.
fn reference_config(ed: f64, minutes: f64) -> SimConfig {
    let mut cfg = SimConfig::paper_reference(Application::AirPollution, Length::from_m(3.0), ed);
    cfg.clusters = SPLIT_SWEEP_CLUSTERS;
    cfg.duration = units::Time::from_minutes(minutes);
    cfg
}

/// The DES sweeps' two-tenant serving overlay: a premium interactive
/// tenant and a best-effort analytics tenant, each at its requests/s.
fn two_tenants(premium_rps: f64, analytics_rps: f64) -> ServeConfig {
    let mut serve = ServeConfig::defaults();
    serve.tenants = vec![
        TenantSpec::interactive("premium", TenantClass::Premium, premium_rps),
        TenantSpec::analytics("analytics", analytics_rps),
    ];
    serve
}

/// On-time completions over offered requests, every tenant; 1 when
/// none were offered.
fn attainment(serve: &ServeReport) -> f64 {
    let offered = serve.offered();
    let on_time: u64 = serve.tenants.iter().map(|t| t.on_time).sum();
    if offered == 0 {
        1.0
    } else {
        on_time as f64 / offered as f64
    }
}

/// The split sweep's [`SimConfig`]: 1 simulated reference minute, each
/// SµDC split `factor` ways.
fn split_sweep_config(factor: usize, ed: f64) -> SimConfig {
    let mut cfg = reference_config(ed, 1.0);
    cfg.topology = SimTopology::SplitRing { factor };
    cfg
}

/// Sec. 8 SµDC splitting on the DES.
fn split() -> Sweep<(usize, f64), SplitCell> {
    Sweep {
        name: "split",
        summary: "Sec. 8 SµDC splitting on the DES: goodput vs split factor",
        title: "SµDC splitting under the DES: per-unit ISL relief vs split factor (Sec. 8)",
        tag: "split-v2",
        columns: &[
            "split",
            "ED",
            "goodput",
            "mean latency (s)",
            "compute util",
            "stable",
        ],
        axes: vec![
            axis(
                "factor",
                "SµDC split factor (clusters × factor must divide the ring)",
                Domain::Count,
                vec![1.0, 2.0, 4.0, 8.0],
            ),
            ed_axis(vec![0.0, 0.5, 0.95]),
        ],
        space: |axes| {
            let points = product(axes, |v| (v[0] as usize, v[1]));
            Space::from_points("split", points, |&(factor, ed)| {
                format!("factor={factor};ed={ed}")
            })
        },
        config: |&(factor, ed)| Some(split_sweep_config(factor, ed)),
        cell: |&(factor, ed)| {
            let report = crate::sim::run(&split_sweep_config(factor, ed));
            SplitCell {
                factor,
                discard_rate: ed,
                goodput: report.goodput,
                mean_latency_s: report.mean_latency_s,
                compute_utilization: report.compute_utilization,
                stable: report.stable,
            }
        },
        row: |c| {
            vec![
                c.factor.to_string(),
                ed_label(c.discard_rate),
                format!("{:.4}", c.goodput),
                format!("{:.4}", c.mean_latency_s),
                format!("{:.4}", c.compute_utilization),
                c.stable.to_string(),
            ]
        },
        objectives: vec![
            Objective::maximize("goodput", |c: &SplitCell| c.goodput),
            Objective::minimize("split factor", |c: &SplitCell| c.factor as f64),
            Objective::minimize("ED", |c: &SplitCell| c.discard_rate),
        ],
        constraints: Vec::new(),
        finish: |_, _| {},
    }
}

/// Serve-sweep batch policies, indexed by the `policy` axis code
/// ([`BatchPolicy::from_code`] order).
const SERVE_SWEEP_POLICIES: [&str; 3] = ["fixed", "deadline", "adaptive"];

/// The serve sweep's [`SimConfig`]: 1 simulated reference minute at
/// 0.95 ED with the two-tenant overlay, the premium tenant carrying
/// `premium` of the `rate` requests/s, batched under `policy`.
fn serve_sweep_config(rate: f64, premium: f64, policy: BatchPolicy) -> SimConfig {
    let mut cfg = reference_config(0.95, 1.0);
    cfg.serve = Some(ServeConfig {
        batch: policy,
        ..two_tenants(rate * premium, rate * (1.0 - premium))
    });
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
    ServeCell {
        requests_per_sec: serve.requests_per_sec,
        attainment: attainment(&serve),
        premium_attainment: serve.tenants.first().map_or(1.0, |t| t.slo_attainment),
        batch_efficiency: serve.batch_efficiency,
        shed_rate: serve.shed_rate,
        stable: report.stable,
        ..fallback
    }
}

/// The user-traffic capacity frontier on the DES.
fn serve() -> Sweep<(f64, f64, usize), ServeCell> {
    Sweep {
        name: "serve",
        summary: "User-traffic capacity frontier: rate × tenant mix × batching (DES)",
        title: "User-traffic capacity frontier: completed req/s vs SLO attainment (DES)",
        // v2: serve-layer accounting fixes (inflight counted only on
        // admission; leftover batch timers re-anchored at `now`) changed
        // cell results, so v1 cache entries are stale.
        tag: "serve-v2",
        columns: &[
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
        axes: vec![
            axis(
                "rate",
                "total offered load (requests/s)",
                Domain::Positive,
                vec![250.0, 1000.0, 2000.0, 4000.0],
            ),
            axis(
                "premium",
                "premium share of the offered load, in (0, 1)",
                Domain::Share,
                vec![0.25, 0.5, 0.75],
            ),
            axis(
                "policy",
                "batch policy: 0 fixed, 1 deadline, 2 adaptive",
                Domain::Code(&SERVE_SWEEP_POLICIES),
                vec![0.0, 1.0, 2.0],
            ),
        ],
        space: |axes| {
            let points = product(axes, |v| (v[0], v[1], v[2] as usize));
            Space::from_points("serve", points, |&(rate, share, policy)| {
                format!("rate={rate};premium={share};policy={policy}")
            })
        },
        config: |&(rate, share, code)| {
            BatchPolicy::from_code(code).map(|policy| serve_sweep_config(rate, share, policy))
        },
        cell: |&(rate, share, policy)| serve_cell(rate, share, policy),
        row: |c| {
            vec![
                trim_float(c.rate_rps),
                trim_float(c.premium_share),
                label(&SERVE_SWEEP_POLICIES, c.policy).to_string(),
                format!("{:.1}", c.requests_per_sec),
                format!("{:.4}", c.attainment),
                format!("{:.4}", c.premium_attainment),
                format!("{:.4}", c.batch_efficiency),
                format!("{:.4}", c.shed_rate),
                c.stable.to_string(),
            ]
        },
        objectives: vec![
            Objective::maximize("req/s", |c: &ServeCell| c.requests_per_sec),
            Objective::maximize("SLO attainment", |c: &ServeCell| c.attainment),
        ],
        constraints: vec![Constraint::new("bounded backlog", |c: &ServeCell| c.stable)],
        // Headline capacity: the highest completed-request throughput
        // among stable operating points (any point if none were stable).
        finish: |run, cells| {
            let peak = cells
                .iter()
                .filter(|c| c.stable)
                .chain(cells.iter())
                .max_by(|a, b| a.requests_per_sec.total_cmp(&b.requests_per_sec));
            if let Some(p) = peak {
                run.metrics = vec![
                    ("serve.requests_per_sec", p.requests_per_sec),
                    ("serve.batch_efficiency", p.batch_efficiency),
                    ("serve.shed_rate", p.shed_rate),
                ];
            }
        },
    }
}

/// Fault scenarios the policy race runs, indexed by the `scenario`
/// axis code. All three are faulted regimes — the race is about how
/// controllers absorb faults, so the fault-free baseline contributes
/// nothing here (`repro sim` already prints it per scenario).
const POLICY_SWEEP_SCENARIOS: [&str; 3] = ["flaky_links", "cluster_loss", "combined"];

/// Ring shapes the policy race runs, indexed by the `topology` axis
/// code.
const POLICY_SWEEP_TOPOLOGIES: [&str; 2] = ["ring", "split:4"];

/// Offered serving load riding along each policy-race cell so the
/// admission/batching decision points are exercised and SLO attainment
/// is measurable, requests/s split evenly across the two tenants.
const POLICY_SWEEP_RATE_RPS: f64 = 400.0;

/// The [`SimConfig`] one policy-race cell evaluates: 2 simulated
/// reference minutes under `ed` early discard (standing in for frame
/// load), the coded fault scenario and topology, the two-tenant
/// overlay, and the coded controller driving the decision points.
fn policy_sweep_config(controller: usize, scenario: usize, topology: usize, ed: f64) -> SimConfig {
    let mut cfg = reference_config(ed, 2.0);
    // The runner checked every code against its axis; codes outside
    // them keep the reference defaults rather than panicking mid-sweep.
    if label(&POLICY_SWEEP_TOPOLOGIES, topology) == "split:4" {
        cfg.topology = SimTopology::SplitRing { factor: 4 };
    }
    if let Some(model) = crate::sim::FaultModel::scenario(label(&POLICY_SWEEP_SCENARIOS, scenario))
    {
        cfg.faults = model;
    }
    cfg.policy = PolicyKind::parse(label(PolicyKind::names(), controller)).unwrap_or_default();
    cfg.serve = Some(two_tenants(
        POLICY_SWEEP_RATE_RPS * 0.5,
        POLICY_SWEEP_RATE_RPS * 0.5,
    ));
    cfg
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
fn policy_dominance_notes(run: &mut SweepRun, cells: &[PolicyCell]) {
    let static_at = |c: &PolicyCell| {
        cells.iter().find(|s| {
            s.controller == 0
                && s.scenario == c.scenario
                && s.topology == c.topology
                && s.ed == c.ed
        })
    };
    for controller in [1usize, 2] {
        let name = PolicyKind::names()[controller];
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
            run.grid.note(format!(
                "leaderboard: {name} strictly dominates static at 0/{total} matrix points"
            ));
            continue;
        };
        run.grid.note(format!(
            "leaderboard: {name} strictly dominates static (goodput × availability) at {}/{total} \
             matrix points; widest margin at {}/{}/ed={}: goodput {:.4} vs {:.4} at \
             availability {:.4} vs {:.4}",
            wins.len(),
            label(&POLICY_SWEEP_SCENARIOS, best.scenario),
            label(&POLICY_SWEEP_TOPOLOGIES, best.topology),
            trim_float(best.ed),
            best.goodput,
            base.goodput,
            best.availability,
            base.availability,
        ));
    }
}

/// The controller race on the DES.
fn policy() -> Sweep<(usize, usize, usize, f64), PolicyCell> {
    let title =
        "Controller race: static vs reactive vs predictive across fault × topology × load (DES)";
    Sweep {
        name: "policy",
        summary: title,
        title,
        tag: "policy-v1",
        columns: &[
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
        axes: vec![
            axis(
                "controller",
                "control plane: 0 static, 1 reactive, 2 predictive",
                Domain::Code(PolicyKind::names()),
                vec![0.0, 1.0, 2.0],
            ),
            axis(
                "scenario",
                "fault scenario: 0 flaky_links, 1 cluster_loss, 2 combined",
                Domain::Code(&POLICY_SWEEP_SCENARIOS),
                vec![0.0, 1.0, 2.0],
            ),
            axis(
                "topology",
                "ring shape: 0 ring, 1 split:4",
                Domain::Code(&POLICY_SWEEP_TOPOLOGIES),
                vec![0.0, 1.0],
            ),
            ed_axis(vec![0.5, 0.95]),
        ],
        space: |axes| {
            let points = product(axes, |v| {
                (v[0] as usize, v[1] as usize, v[2] as usize, v[3])
            });
            Space::from_points("policy", points, |&(c, s, t, ed)| {
                format!("controller={c};scenario={s};topology={t};ed={ed}")
            })
        },
        config: |&(c, s, t, ed)| Some(policy_sweep_config(c, s, t, ed)),
        cell: |&(controller, scenario, topology, ed)| {
            let report = crate::sim::run(&policy_sweep_config(controller, scenario, topology, ed));
            PolicyCell {
                controller,
                scenario,
                topology,
                ed,
                goodput: report.goodput,
                availability: report.faults.availability,
                attainment: report.serve.as_ref().map_or(1.0, attainment),
                undeliverable: report.faults.undeliverable,
                reroutes: report.faults.reroutes,
                frames_shed: report.faults.frames_shed,
                stable: report.stable,
            }
        },
        row: |c| {
            vec![
                label(PolicyKind::names(), c.controller).to_string(),
                label(&POLICY_SWEEP_SCENARIOS, c.scenario).to_string(),
                label(&POLICY_SWEEP_TOPOLOGIES, c.topology).to_string(),
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
        objectives: vec![
            Objective::maximize("goodput", |c: &PolicyCell| c.goodput),
            Objective::maximize("availability", |c: &PolicyCell| c.availability),
            Objective::maximize("SLO attainment", |c: &PolicyCell| c.attainment),
        ],
        constraints: Vec::new(),
        finish: policy_dominance_notes,
    }
}

/// Fig. 9-style SµDC counts on the RTX 3090.
fn sizing() -> Sweep<(f64, Application, Length, f64), SizingCell> {
    Sweep {
        name: "sizing",
        summary: "Fig. 9-style SµDC counts (RTX 3090), all applications",
        title: "SµDCs needed per application (RTX 3090, Fig. 9 space)",
        tag: "fig9-v1",
        columns: &["SµDC kW", "app", "resolution", "ED", "SµDCs"],
        axes: vec![
            kw_axis(vec![4.0]),
            res_axis(),
            ed_axis(FrameSpec::paper_discard_rates().to_vec()),
        ],
        space: |axes| sizing_cli_space(&axes[0], &lengths(&axes[1]), &axes[2]),
        config: |_| None,
        cell: sizing_cell,
        row: |c| {
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
        objectives: vec![
            Objective::minimize("SµDCs", |c: &SizingCell| match c.row.sudcs {
                Some(n) => n as f64,
                None => f64::NAN,
            }),
            Objective::minimize("resolution (m)", |c: &SizingCell| c.row.resolution.as_m()),
            Objective::minimize("ED", |c: &SizingCell| c.row.discard_rate),
        ],
        constraints: vec![Constraint::new("measured on device", |c: &SizingCell| {
            c.row.sudcs.is_some()
        })],
        finish: |_, _| {},
    }
}

/// Table 8's ring-supportable EO satellites per ISL class.
fn table8() -> Sweep<(Length, f64, IslClass), Table8Cell> {
    Sweep {
        name: "table8",
        summary: "Table 8 ring-supportable EO satellites per ISL class",
        title: "EO satellites one ring SµDC can ingest from (Table 8 space)",
        tag: "table8-v1",
        columns: &["resolution", "ED", "ISL", "supportable EO sats"],
        axes: vec![
            res_axis(),
            ed_axis(FrameSpec::paper_discard_rates().to_vec()),
        ],
        space: |axes| table8_space(&lengths(&axes[0]), &axes[1]),
        config: |_| None,
        cell: table8_cell,
        row: |c| {
            vec![
                res_label(c.resolution),
                ed_label(c.discard_rate),
                c.isl.to_string(),
                c.supportable.to_string(),
            ]
        },
        objectives: vec![
            Objective::maximize("supportable EO sats", |c: &Table8Cell| c.supportable as f64),
            Objective::minimize("ISL capacity (Gbit/s)", |c: &Table8Cell| {
                c.isl.capacity().as_bps() / 1e9
            }),
        ],
        constraints: vec![Constraint::new(
            "supports ≥ 1 satellite",
            |c: &Table8Cell| c.supportable >= 1,
        )],
        finish: |_, _| {},
    }
}

/// Fig. 11-style ring cluster counts across applications × ISLs.
fn bottleneck() -> Sweep<(f64, Application, Length, f64, IslClass), Fig11Row> {
    Sweep {
        name: "bottleneck",
        summary: "Fig. 11-style cluster counts across apps × ISLs (RTX 3090)",
        title: "Ring clusters needed vs ISL capacity across applications (Fig. 11 space)",
        tag: "fig11-v1",
        columns: &[
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
        axes: vec![
            kw_axis(vec![4.0, 256.0]),
            res_axis(),
            ed_axis(FrameSpec::paper_discard_rates().to_vec()),
        ],
        space: |axes| bottleneck_cli_space(&axes[0], &lengths(&axes[1]), &axes[2]),
        config: |_| None,
        cell: |p| fig11_row(PAPER_CONSTELLATION, p),
        row: |r| {
            let clusters = |c: usize| {
                if c == usize::MAX {
                    "infeasible".to_string()
                } else {
                    c.to_string()
                }
            };
            let analysis = match &r.analysis {
                Some(a) => [
                    a.compute_clusters.to_string(),
                    clusters(a.isl_clusters),
                    clusters(a.clusters),
                    a.binding.to_string(),
                ],
                None => std::array::from_fn(|_| "unmappable".to_string()),
            };
            let mut row = vec![
                trim_float(r.sudc_kw),
                r.app.to_string(),
                res_label(r.resolution),
                ed_label(r.discard_rate),
                r.isl.to_string(),
            ];
            row.extend(analysis);
            row
        },
        objectives: vec![
            Objective::minimize("clusters", |r: &Fig11Row| match &r.analysis {
                Some(a) if a.isl_clusters != usize::MAX => a.clusters as f64,
                _ => f64::NAN,
            }),
            Objective::minimize("resolution (m)", |r: &Fig11Row| r.resolution.as_m()),
            Objective::minimize("ED", |r: &Fig11Row| r.discard_rate),
        ],
        constraints: vec![Constraint::new("feasible ring ingest", |r: &Fig11Row| {
            r.analysis
                .as_ref()
                .is_some_and(|a| a.isl_clusters != usize::MAX)
        })],
        finish: |_, _| {},
    }
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
    /// Batch policy code (`SERVE_SWEEP_POLICIES` index).
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
    /// Fault scenario code (`POLICY_SWEEP_SCENARIOS` index).
    pub scenario: usize,
    /// Topology code (`POLICY_SWEEP_TOPOLOGIES` index).
    pub topology: usize,
    /// Early-discard rate, the sweep's load proxy.
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

    #[test]
    fn uncached_runs_evaluate_every_point_and_write_no_cache() {
        let run = run("table8", &[], &ExecOptions::threads(2), None).unwrap();
        assert!(!run.grid.rows.is_empty());
        assert_eq!(run.stats.evaluated, run.stats.points);
        assert_eq!(run.stats.cache_hits, 0);
        assert!(run.cache_written.is_none(), "wrote a cache");
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
    fn every_default_value_is_in_its_axis_domain() {
        for def in all() {
            for axis in &def.axes {
                assert!(!axis.default.is_empty(), "{}.{}", def.name, axis.name);
                for &v in &axis.default {
                    assert!(
                        axis.domain.contains(v),
                        "{}.{} default {v} outside {}",
                        def.name,
                        axis.name,
                        axis.domain
                    );
                }
            }
        }
    }

    /// Runs `sweep` with one override of `axis`, which must fail; the
    /// error names the axis and the last (offending) value. A value in
    /// its axis's domain can still make a DES point unsimulatable: then
    /// the error names the refused point, and its config error names
    /// the value.
    fn rejected(sweep: &str, axis: &str, values: &[f64]) -> String {
        let overrides = vec![(axis.to_string(), values.to_vec())];
        let err = match run(sweep, &overrides, &ExecOptions::sequential(), None) {
            Ok(_) => panic!("{sweep} accepted {axis}={values:?}"),
            Err(e) => e,
        };
        let refused_point = err.starts_with(&format!("sweep '{sweep}' point "));
        if !refused_point {
            assert!(err.contains(&format!("axis '{axis}'")), "{sweep}: {err}");
        }
        if let Some(bad) = values.last() {
            let named = if refused_point {
                format!(": serve load of {bad} ")
            } else {
                format!("got {bad}")
            };
            assert!(err.contains(&named), "{sweep}: {err}");
        }
        err
    }

    #[test]
    fn unknown_names_are_rejected() {
        let unknown = run("nope", &[], &ExecOptions::sequential(), None).unwrap_err();
        assert!(unknown.contains("unknown sweep 'nope'"), "{unknown}");
        let device = vec![("device".to_string(), vec![1.0])];
        let no_axis = run("sizing", &device, &ExecOptions::sequential(), None).unwrap_err();
        assert!(no_axis.contains("no axis 'device'"), "{no_axis}");
        let odd_k = rejected("codesign", "k", &[3.0]);
        assert!(odd_k.contains("even integers"), "{odd_k}");
        let frac = rejected("codesign", "split", &[1.5]);
        assert!(frac.contains("integers"), "{frac}");
    }

    #[test]
    fn serve_sweep_rejects_bad_axes() {
        let bad_share = rejected("serve", "premium", &[1.0]);
        assert!(bad_share.contains("(0, 1)"), "{bad_share}");
        let bad_rate = rejected("serve", "rate", &[0.0]);
        assert!(bad_rate.contains("values > 0"), "{bad_rate}");
        let bad_policy = rejected("serve", "policy", &[5.0]);
        assert!(bad_policy.contains("adaptive"), "{bad_policy}");
    }

    #[test]
    fn policy_race_rejects_unknown_codes() {
        for (axis, bad) in [("controller", 3.0), ("scenario", 3.0), ("topology", 2.0)] {
            rejected("policy", axis, &[bad]);
        }
    }

    /// Every other axis value outside its domain (non-finite values
    /// included) is an `Err` naming what was wrong, never a panic or a row.
    #[test]
    fn bad_names_and_axis_values_are_rejected() {
        let mut cases: Vec<(&str, &str, Vec<f64>)> = vec![
            ("codesign", "k", vec![0.0]),
            ("codesign", "k", vec![]),
            ("codesign", "split", vec![0.0]),
            ("split", "factor", vec![-1.0]),
            ("serve", "rate", vec![f64::INFINITY]),
            // In the axis's domain, but past the event calendar's reach.
            ("serve", "rate", vec![1e8]),
            ("policy", "topology", vec![0.5]),
        ];
        for sweep in ["sizing", "table8", "bottleneck"] {
            cases.push((sweep, "res", vec![0.0]));
            cases.push((sweep, "res", vec![3.0, -3.0]));
        }
        for sweep in ["sizing", "bottleneck"] {
            for kw in [0.0, f64::INFINITY, f64::NAN] {
                cases.push((sweep, "kw", vec![kw]));
            }
        }
        for sweep in ["split", "sizing", "table8", "bottleneck", "policy"] {
            cases.push((sweep, "ed", vec![1.0]));
            cases.push((sweep, "ed", vec![-0.5]));
        }
        for (sweep, axis, values) in cases {
            rejected(sweep, axis, &values);
        }
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
        // 2^62 SµDC units per cluster overflow `clusters × factor`.
        for factor in [3.0, 2f64.powi(62)] {
            let bad = vec![("factor".to_string(), vec![factor])];
            assert!(run("split", &bad, &ExecOptions::sequential(), None)
                .unwrap_err()
                .contains("divide the ring"));
        }
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
