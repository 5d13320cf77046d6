//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro list                     # list experiment ids
//! repro <id> [<id>...]           # run specific experiments
//! repro all                      # run everything (writes results/*.{txt,csv,json})
//!
//! flags:
//!   --trace                      # debug-level telemetry on stderr
//!   --quiet                      # suppress tables; warnings only
//!   --jsonl <path>               # structured event log (JSON lines)
//!   --out-dir <path>             # artifact directory (default results/)
//! ```
//!
//! `repro` writes results only: every artifact and every
//! `<tool>_manifest.json` (seed, build, flags, the experiment list) is a
//! pure function of code, seed and flags, so two same-seed runs
//! byte-diff clean. Timing lives in the `experiment` spans of
//! `--trace`/`--jsonl` and in perfbench.
//!
//! Each subcommand lives in its own module under [`cmd`]: `run`
//! (experiments), `explore` (design-space sweeps), `sim` (fault and
//! serve simulation), `trace` (flight-log analysis), and `lint` (static
//! analysis). Every command takes one path: `main` parses the flags and
//! installs telemetry, the command's `exec` writes its report through
//! the one stdout writer ([`cmd::Out`]) and its files through the one
//! publisher ([`cmd::Publisher`]), and hands back its outcome — a fatal
//! error, or whether any step failed. `main` then prints the fatal
//! `error: …` line, flushes the telemetry sinks and stdout, and picks
//! the exit code. A closed stdout drops the report, not the run.

use std::env;
use std::path::PathBuf;
use std::process::ExitCode;

mod cmd;

use cmd::{Out, Outcome};

/// Parsed command line, shared by every subcommand (each reads the
/// flags it understands).
pub struct Cli {
    pub ids: Vec<String>,
    pub trace: bool,
    pub quiet: bool,
    pub jsonl: Option<PathBuf>,
    pub axes: Vec<(String, Vec<f64>)>,
    /// `--threads <n>`: `None` means the flag was absent — explore
    /// defaults to 4 workers and `repro sim` to 1. Sim runs go through
    /// `try_run_threads`, which shards every run whose shards never
    /// exchange an event at any count, so its output is byte-identical
    /// with or without the flag.
    pub threads: Option<usize>,
    pub no_cache: bool,
    pub faults: Option<String>,
    pub serve: Option<String>,
    pub topology: Option<String>,
    /// `--policy <name>`: the control-plane controller racing the run
    /// (static | reactive | predictive). `None`/static is the
    /// pre-policy engine, byte-identical to committed artifacts;
    /// adaptive controllers write `_<policy>`-suffixed artifacts.
    pub policy: Option<String>,
    pub seed: Option<u64>,
    pub minutes: Option<f64>,
    pub clusters: Option<usize>,
    pub out_dir: Option<PathBuf>,
    pub rule: Option<String>,
    pub format: Option<String>,
    /// `--audit <name>`: run a named workspace audit after the scan and
    /// write its committed artifact (only `determinism` exists, writing
    /// `results/lint_audit.json` — byte-identical across runs).
    pub audit: Option<String>,
    pub record: Option<PathBuf>,
    pub cadence: Option<f64>,
}

/// Most values one `--axis` may expand to. Every committed sweep axis
/// has a few dozen; the cap stops a typo like `0..4000000000` or
/// `0:1:1e-12` from allocating gigabytes or looping for hours.
const MAX_AXIS_VALUES: usize = 10_000;

/// Why an `--axis name=SPEC` argument was rejected.
#[derive(Debug, Clone, PartialEq)]
enum AxisSpecError {
    /// No `name=` prefix, or an empty name.
    Malformed(String),
    /// A value or range bound that does not parse.
    BadValue {
        name: String,
        what: String,
        spec: String,
    },
    /// An integer range whose start exceeds its end.
    EmptyRange { name: String, lo: i64, hi: i64 },
    /// A float range with a non-positive step or a non-finite bound.
    BadRange { name: String, spec: String },
    /// A spec that expands to no values.
    NoValues { name: String, spec: String },
    /// A spec that expands to more than [`MAX_AXIS_VALUES`] values.
    TooMany { name: String, spec: String },
}

impl std::fmt::Display for AxisSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Malformed(arg) => write!(f, "--axis wants name=values, got '{arg}'"),
            Self::BadValue { name, what, spec } => {
                write!(f, "axis '{name}': cannot parse '{what}' in '{spec}'")
            }
            Self::EmptyRange { name, lo, hi } => {
                write!(f, "axis '{name}': empty range {lo}..{hi}")
            }
            Self::BadRange { name, spec } => {
                write!(f, "axis '{name}': bad range '{spec}' (need step > 0)")
            }
            Self::NoValues { name, spec } => write!(f, "axis '{name}': no values in '{spec}'"),
            Self::TooMany { name, spec } => write!(
                f,
                "axis '{name}': '{spec}' has more than {MAX_AXIS_VALUES} values"
            ),
        }
    }
}

/// Parses an `--axis name=SPEC` argument. SPEC is a comma list
/// (`2,4,8,16`), an inclusive integer range (`1..8`), or a
/// `start:stop:step` float range (`0:0.99:0.05`, stop inclusive up to
/// rounding). A spec is sized before it is expanded, so one past
/// [`MAX_AXIS_VALUES`] fails without allocating.
fn parse_axis_spec(arg: &str) -> Result<(String, Vec<f64>), AxisSpecError> {
    let (name, spec) = arg
        .split_once('=')
        .filter(|(name, _)| !name.is_empty())
        .ok_or_else(|| AxisSpecError::Malformed(arg.to_string()))?;
    let bad = |what: &str| AxisSpecError::BadValue {
        name: name.to_string(),
        what: what.to_string(),
        spec: spec.to_string(),
    };
    let too_many = || AxisSpecError::TooMany {
        name: name.to_string(),
        spec: spec.to_string(),
    };
    let values = if let Some((a, b)) = spec.split_once("..") {
        let lo: i64 = a.parse().map_err(|_| bad(a))?;
        let hi: i64 = b.parse().map_err(|_| bad(b))?;
        if lo > hi {
            return Err(AxisSpecError::EmptyRange {
                name: name.to_string(),
                lo,
                hi,
            });
        }
        if i128::from(hi) - i128::from(lo) >= MAX_AXIS_VALUES as i128 {
            return Err(too_many());
        }
        (lo..=hi).map(|v| v as f64).collect()
    } else if spec.matches(':').count() == 2 {
        let mut parts = spec.split(':');
        let mut next = || -> Result<f64, AxisSpecError> {
            let p = parts.next().unwrap_or_default();
            p.parse().map_err(|_| bad(p))
        };
        let (start, stop, step) = (next()?, next()?, next()?);
        if step.is_nan() || step <= 0.0 || !start.is_finite() || !stop.is_finite() {
            return Err(AxisSpecError::BadRange {
                name: name.to_string(),
                spec: spec.to_string(),
            });
        }
        // The loop below takes about this many steps past the first.
        if (stop - start) / step >= MAX_AXIS_VALUES as f64 {
            return Err(too_many());
        }
        let mut out = Vec::new();
        let mut i = 0u64;
        loop {
            let v = start + i as f64 * step;
            if v > stop + step * 1e-9 {
                break;
            }
            out.push(v);
            i += 1;
        }
        out
    } else {
        if spec.split(',').count() > MAX_AXIS_VALUES {
            return Err(too_many());
        }
        spec.split(',')
            .map(|p| p.trim().parse::<f64>().map_err(|_| bad(p)))
            .collect::<Result<Vec<f64>, AxisSpecError>>()?
    };
    if values.is_empty() {
        return Err(AxisSpecError::NoValues {
            name: name.to_string(),
            spec: spec.to_string(),
        });
    }
    if values.len() > MAX_AXIS_VALUES {
        return Err(too_many());
    }
    Ok((name.to_string(), values))
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        ids: Vec::new(),
        trace: false,
        quiet: false,
        jsonl: None,
        axes: Vec::new(),
        threads: None,
        no_cache: false,
        faults: None,
        serve: None,
        topology: None,
        policy: None,
        seed: None,
        minutes: None,
        clusters: None,
        out_dir: None,
        rule: None,
        format: None,
        audit: None,
        record: None,
        cadence: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--trace" => cli.trace = true,
            "--quiet" => cli.quiet = true,
            "--jsonl" => {
                let path = it.next().ok_or("--jsonl requires a path")?;
                cli.jsonl = Some(PathBuf::from(path));
            }
            "--axis" => {
                let spec = it.next().ok_or("--axis requires name=values")?;
                cli.axes
                    .push(parse_axis_spec(spec).map_err(|e| e.to_string())?);
            }
            "--threads" => {
                let n = it.next().ok_or("--threads requires a count")?;
                cli.threads = Some(
                    n.parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| format!("--threads wants a count >= 1, got '{n}'"))?,
                );
            }
            "--no-cache" => cli.no_cache = true,
            "--faults" => {
                let name = it.next().ok_or("--faults requires a scenario name")?;
                cli.faults = Some(name.clone());
            }
            "--serve" => {
                let name = it.next().ok_or("--serve requires a scenario name")?;
                cli.serve = Some(name.clone());
            }
            "--topology" => {
                let name = it
                    .next()
                    .ok_or("--topology requires ring|klist:<k>|geo|split:<factor>")?;
                cli.topology = Some(name.clone());
            }
            "--policy" => {
                let name = it
                    .next()
                    .ok_or("--policy requires static|reactive|predictive")?;
                cli.policy = Some(name.clone());
            }
            "--seed" => {
                let n = it.next().ok_or("--seed requires a number")?;
                cli.seed = Some(
                    n.parse::<u64>()
                        .map_err(|_| format!("--seed wants an integer, got '{n}'"))?,
                );
            }
            "--minutes" => {
                let n = it.next().ok_or("--minutes requires a duration")?;
                cli.minutes = Some(
                    n.parse::<f64>()
                        .ok()
                        .filter(|&m| m > 0.0 && m.is_finite())
                        .ok_or_else(|| format!("--minutes wants a positive number, got '{n}'"))?,
                );
            }
            "--clusters" => {
                let n = it.next().ok_or("--clusters requires a count")?;
                cli.clusters = Some(
                    n.parse::<usize>()
                        .ok()
                        .filter(|&c| c >= 1)
                        .ok_or_else(|| format!("--clusters wants a count >= 1, got '{n}'"))?,
                );
            }
            "--out-dir" => {
                let path = it.next().ok_or("--out-dir requires a path")?;
                cli.out_dir = Some(PathBuf::from(path));
            }
            "--rule" => {
                let id = it.next().ok_or("--rule requires a rule id")?;
                cli.rule = Some(id.clone());
            }
            "--format" => {
                let fmt = it.next().ok_or("--format requires text|json")?;
                if fmt != "text" && fmt != "json" {
                    return Err(format!("--format wants text or json, got '{fmt}'"));
                }
                cli.format = Some(fmt.clone());
            }
            "--audit" => {
                let name = it
                    .next()
                    .ok_or("--audit requires an audit name (determinism)")?;
                cli.audit = Some(name.clone());
            }
            "--record" => {
                let path = it.next().ok_or("--record requires a path")?;
                cli.record = Some(PathBuf::from(path));
            }
            "--cadence" => {
                let n = it.next().ok_or("--cadence requires sim-time seconds")?;
                cli.cadence = Some(
                    n.parse::<f64>()
                        .ok()
                        .filter(|&c| c > 0.0 && c.is_finite())
                        .ok_or_else(|| format!("--cadence wants positive seconds, got '{n}'"))?,
                );
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag {flag} (try `repro help`)"));
            }
            id => cli.ids.push(id.to_string()),
        }
    }
    if cli.trace && cli.quiet {
        return Err("--trace and --quiet are mutually exclusive".to_string());
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let mut out = Out::stdout();
    let outcome = run(&args, &mut out);
    let mut failed = false;
    for step in [outcome, out.finish().map(|()| false)] {
        match step {
            Ok(step_failed) => failed |= step_failed,
            Err(e) => {
                eprintln!("error: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Parses `args`, installs telemetry and runs the command they name,
/// flushing the telemetry sinks after it whatever its outcome. A
/// `--jsonl` log that could not be written fails the run, naming the
/// path, as an unwritable `--record` log does.
fn run(args: &[String], out: &mut Out) -> Outcome {
    if args.is_empty() || args[0] == "help" || args[0] == "--help" {
        writeln!(out, "{}", usage_text());
        return Ok(false);
    }
    let cli = parse_args(args)?;
    cmd::install_telemetry(&cli)?;
    let outcome = match cli.ids.first().map(String::as_str) {
        Some("list") => cmd::run::list(out),
        Some("explore") => cmd::explore::exec(&cli, out),
        Some("sim") => cmd::sim::exec(&cli, out),
        Some("trace") => cmd::trace::exec(&cli, out),
        Some("lint") => cmd::lint::exec(&cli, out),
        _ => cmd::run::exec(&cli, out),
    };
    let flushed = telemetry::flush().map_err(|e| {
        let log = cli.jsonl.as_deref().map_or_else(
            || "the telemetry log".to_string(),
            |p| p.display().to_string(),
        );
        format!("cannot write {log}: {e}")
    });
    let failed = outcome?;
    flushed?;
    Ok(failed)
}

/// The `repro help` text. Command and flag lines are indented two
/// spaces; wrapped descriptions line up under their description column.
fn usage_text() -> &'static str {
    "\
repro — regenerate the Space Microdatacenters paper's tables and figures

usage:
  repro list                 list experiment ids
  repro <id> [<id>...]       run specific experiments
  repro all                  run everything
  repro explore [sweep...]   run design-space sweeps through the
                             explore engine (default: all sweeps)
  repro explore list         list sweeps and their axes
  repro sim                  run the constellation simulator under
                             a fault scenario next to its fault-free
                             baseline (availability/goodput report)
  repro sim --serve <name>   run the multi-tenant user-traffic
                             serving layer on the reference plane
                             (per-tenant SLO attainment report)
  repro sim list             list fault and serve scenarios
  repro trace <path>         analyze a flight log recorded with
                             `repro sim --record` (per-hop latency
                             breakdown, critical paths, loss
                             attribution, top-k slowest frames)
  repro lint                 run workspace static analysis; any
                             finding not suppressed by a reasoned
                             `// lint:allow(<rule>) <reason>` fails
  repro lint rules           list lint rules and fix hints
  repro lint --audit determinism
                             scan, then write the determinism
                             audit (scan size and per-rule
                             counts) to
                             results/lint_audit.json — the
                             artifact is byte-identical across
                             runs and committed

flags:
  --trace                    debug-level telemetry on stderr
  --quiet                    suppress tables; warnings only
  --jsonl <path>             structured event log (JSON lines)
  --out-dir <path>           artifact directory (default results/;
                             honoured by every command that writes
                             artifacts)

explore flags:
  --axis name=VALUES         override one axis (one sweep only);
                             VALUES is 2,4,8 or 1..8 or 0:0.9:0.1
  --threads <n>              worker threads (default 4; 1 = sequential)
  --no-cache                 skip the results/cache/ memo store
                             (which stays under results/ whatever
                             --out-dir says)

sim flags:
  --faults <scenario>        fault scenario (default none;
                             see `repro sim list`)
  --serve <scenario>         serve a multi-tenant user-traffic
                             scenario instead of the fault
                             comparison (steady, surge,
                             closed_loop, under_faults); with
                             --faults, that fault model overrides
                             the scenario's own
  --topology <shape>         ingest topology: ring (default),
                             klist:<k>, geo, or split:<factor>
                             (Sec. 8 SµDC splitting)
  --policy <name>            control-plane controller: static
                             (default; byte-identical to the
                             pre-policy engine), reactive, or
                             predictive; adaptive runs write
                             _<policy>-suffixed artifacts
  --seed <n>                 RNG seed (default the paper seed)
  --minutes <m>              simulated minutes (default 2)
  --clusters <c>             SµDC count (default 4)
  --record <path>            write a JSONL flight log of the faulted
                             run (sim-time-stamped trace events;
                             analyze with `repro trace`)
  --cadence <s>              metrics-timeline snapshot cadence in
                             sim-time seconds (default 5; needs
                             --record)
  --threads <n>              workers for the event loop (default
                             1); runs shard per SµDC at every n
                             where no event crosses shards (static
                             policy, no serve or degradation, no
                             faults on a ring), other runs stay
                             sequential; byte-identical at every
                             n; ignored with --record

lint flags:
  --rule <id>                restrict the scan to one rule
  --format text|json         report format (default text)
  --audit <name>             also write the named audit artifact
                             (determinism -> lint_audit.json in
                             --out-dir, default results/)

artifacts are written to results/<id>.txt, .csv, and .json,
next to a <tool>_manifest.json of what ran; the same seed
and flags give the same bytes (no file records wall time)"
}

#[cfg(test)]
mod tests {
    use super::{parse_args, parse_axis_spec, usage_text, AxisSpecError, MAX_AXIS_VALUES};

    #[test]
    fn retired_lint_flags_are_unknown() {
        for flag in ["--update-baseline", "--verbose"] {
            let args = ["lint".to_string(), flag.to_string()];
            let err = parse_args(&args).err().expect("flag rejected");
            assert!(err.starts_with(&format!("unknown flag {flag}")), "{err}");
        }
    }

    #[test]
    fn axis_specs_parse_or_fail_with_a_typed_error() {
        let ok: &[(&str, &[f64])] = &[
            ("k=2,4,8", &[2.0, 4.0, 8.0]),
            ("k= 1 , 2", &[1.0, 2.0]),
            ("n=1..4", &[1.0, 2.0, 3.0, 4.0]),
            ("n=-2..-2", &[-2.0]),
            ("ed=0:1:0.25", &[0.0, 0.25, 0.5, 0.75, 1.0]),
            ("ed=0:0.99:0.33", &[0.0, 0.33, 0.66, 0.99]),
            ("ed=1:0.5:1", &[]),
        ];
        for &(arg, want) in ok {
            match parse_axis_spec(arg) {
                Ok((name, values)) => {
                    assert_eq!(name, arg.split('=').next().unwrap(), "{arg}");
                    assert_eq!(values.len(), want.len(), "{arg}: {values:?}");
                    for (v, w) in values.iter().zip(want) {
                        assert!((v - w).abs() < 1e-12, "{arg}: {values:?}");
                    }
                }
                // A range that starts past its stop has no values.
                Err(AxisSpecError::NoValues { .. }) if want.is_empty() => {}
                Err(e) => panic!("{arg}: {e}"),
            }
        }
        type Check = fn(&AxisSpecError) -> bool;
        let malformed: &[(&str, Check)] = &[
            ("k", |e| matches!(e, AxisSpecError::Malformed(_))),
            ("=1,2", |e| matches!(e, AxisSpecError::Malformed(_))),
            ("k=1,x", |e| matches!(e, AxisSpecError::BadValue { .. })),
            ("k=", |e| matches!(e, AxisSpecError::BadValue { .. })),
            ("n=1..x", |e| matches!(e, AxisSpecError::BadValue { .. })),
            ("n=5..1", |e| matches!(e, AxisSpecError::EmptyRange { .. })),
            ("ed=0:1:0", |e| matches!(e, AxisSpecError::BadRange { .. })),
            ("ed=0:1:-1", |e| matches!(e, AxisSpecError::BadRange { .. })),
            ("ed=0:inf:1", |e| {
                matches!(e, AxisSpecError::BadRange { .. })
            }),
            ("ed=0:1:NaN", |e| {
                matches!(e, AxisSpecError::BadRange { .. })
            }),
            ("ed=0:1", |e| matches!(e, AxisSpecError::BadValue { .. })),
        ];
        // Past the cap: each is sized, and rejected, before expansion.
        let long_list = format!("k={}", vec!["1"; MAX_AXIS_VALUES + 1].join(","));
        let over: Vec<String> = vec![
            "n=0..4000000000".into(),
            format!("n=0..{}", MAX_AXIS_VALUES),
            format!("n={}..{}", i64::MIN, i64::MAX),
            "ed=0:1:1e-12".into(),
            "ed=-1e300:1e300:1e-300".into(),
            long_list,
        ];
        let too_many = |e: &AxisSpecError| matches!(e, AxisSpecError::TooMany { .. });
        let cases = malformed
            .iter()
            .map(|&(arg, want)| (arg.to_string(), want))
            .chain(over.into_iter().map(|arg| (arg, too_many as Check)));
        for (arg, want) in cases {
            match parse_axis_spec(&arg) {
                Err(e) => assert!(want(&e), "{arg}: wrong error {e:?}"),
                Ok(v) => panic!("{arg}: parsed to {} values", v.1.len()),
            }
        }
        // The cap itself still parses.
        let at_cap = parse_axis_spec(&format!("n=1..{MAX_AXIS_VALUES}")).unwrap();
        assert_eq!(at_cap.1.len(), MAX_AXIS_VALUES);
    }

    /// Char column at which every command's description starts.
    const DESCRIPTION_COLUMN: usize = 29;

    #[test]
    fn help_entries_are_indented_and_wrapped_lines_align() {
        let (mut entries, mut wrapped) = (0, 0);
        let mut in_section = false;
        for (n, line) in usage_text().lines().enumerate() {
            let indent = line.chars().take_while(|&c| c == ' ').count();
            let text = line.trim_start();
            assert_eq!(line.trim_end(), line, "line {n} has trailing spaces");
            if text.is_empty() {
                in_section = false;
                continue;
            }
            if !in_section {
                assert_eq!(
                    indent, 0,
                    "line {n} outside a section is indented: {line:?}"
                );
                in_section = text.ends_with(':');
                continue;
            }
            match indent {
                2 => {
                    entries += 1;
                    assert!(
                        text.starts_with("repro ") || text.starts_with("--"),
                        "line {n} is not a command or flag: {line:?}"
                    );
                    // A description on the same line starts at the column too.
                    if let Some(gap) = text.find("  ") {
                        let desc = text[gap..].trim_start();
                        assert_eq!(
                            line.chars().count() - desc.chars().count(),
                            DESCRIPTION_COLUMN,
                            "line {n} description is off its column: {line:?}"
                        );
                    }
                }
                DESCRIPTION_COLUMN => wrapped += 1,
                _ => {
                    panic!("line {n} has indent {indent}, want 2 or {DESCRIPTION_COLUMN}: {line:?}")
                }
            }
        }
        assert!(entries >= 30, "only {entries} command/flag lines parsed");
        assert!(wrapped >= 20, "only {wrapped} wrapped lines parsed");
    }
}
