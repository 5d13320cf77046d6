//! The reproduction's gates, run against the real `repro` binary.
//!
//! Every committed file under `results/` must be what the code writes
//! today, byte for byte, and every `repro sim` mode must replay
//! byte-identically: same seed twice, 1 worker against 4, and
//! `--policy static` against the default engine. Each test drives the
//! binary cargo built for this test run and writes only under
//! `CARGO_TARGET_TMPDIR`, so `results/` stays untouched. Every `repro
//! sim` run also checks its report's invariants before writing.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// `--topology` argument and the artifact-id suffix it implies.
const MATRIX: [(&str, &str); 4] = [
    ("ring", ""),
    ("klist:4", "_klist4"),
    ("geo", "_geo"),
    ("split:4", "_split4"),
];

/// Files a run writes that `results/` does not commit: the run
/// manifests `.gitignore` lists.
const UNCOMMITTED: [&str; 3] = [
    "repro_manifest.json",
    "explore_manifest.json",
    "sim_manifest.json",
];

/// An empty scratch directory for one run.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("gates")
        .join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    dir
}

/// Runs `repro --quiet <args>` and returns its stdout; any failure to
/// start or a non-zero exit fails the test with the run's stderr.
fn repro(args: &[&str]) -> String {
    let bin = env!("CARGO_BIN_EXE_repro");
    let out = Command::new(bin)
        .arg("--quiet")
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot start {bin}: {e}"));
    assert!(
        out.status.success(),
        "`repro {}` failed ({}):\n{}",
        args.join(" "),
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("repro prints UTF-8")
}

/// Runs `repro sim <args> --out-dir <dir>`.
fn sim(dir: &Path, args: &[&str]) {
    let dir = dir.to_str().expect("UTF-8 scratch path");
    repro(&[&["sim"], args, &["--out-dir", dir]].concat());
}

/// Every file under `dir`, keyed by its path relative to `dir`.
fn tree(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<String, Vec<u8>>) {
        for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path.strip_prefix(root).expect("path under root");
                let rel = rel.to_str().expect("UTF-8 file name").to_string();
                let bytes = fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                out.insert(rel, bytes);
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(dir, dir, &mut out);
    out
}

/// Two run directories must hold the same files with the same bytes.
fn assert_same_tree(a: &Path, b: &Path, what: &str) {
    let (ta, tb) = (tree(a), tree(b));
    assert!(!ta.is_empty(), "{what}: the run wrote nothing");
    assert_eq!(
        ta.keys().collect::<Vec<_>>(),
        tb.keys().collect::<Vec<_>>(),
        "{what}: the runs wrote different files"
    );
    for (name, bytes) in &ta {
        assert!(bytes == &tb[name], "{what}: {name} differs between runs");
    }
}

/// Runs the same `repro sim` arguments into two fresh directories and
/// requires byte-identical output.
fn assert_replays(name: &str, args: &[&str]) {
    let dirs = [scratch(&format!("{name}_a")), scratch(&format!("{name}_b"))];
    for dir in &dirs {
        sim(dir, args);
    }
    assert_same_tree(&dirs[0], &dirs[1], &format!("repro sim {}", args.join(" ")));
}

/// Runs `repro sim <args> --record` into two fresh directories, each
/// with its flight log inside, and requires byte-identical directories
/// and the same `repro trace` analysis of both logs (bar the line
/// naming the log). Returns that analysis.
fn assert_recorded_replay(name: &str, args: &[&str]) -> String {
    let dirs = [scratch(&format!("{name}_a")), scratch(&format!("{name}_b"))];
    let analyses: Vec<String> = dirs
        .iter()
        .map(|dir| {
            let log = dir.join("trace.jsonl");
            let log = log.to_str().expect("UTF-8 scratch path");
            sim(dir, &[args, &["--record", log]].concat());
            repro(&["trace", log])
                .lines()
                .filter(|line| !line.starts_with("flight log "))
                .collect::<Vec<_>>()
                .join("\n")
        })
        .collect();
    let what = format!("repro sim {} --record", args.join(" "));
    assert_same_tree(&dirs[0], &dirs[1], &what);
    assert!(!analyses[0].is_empty(), "{what}: no repro trace output");
    assert_eq!(analyses[0], analyses[1], "{what}: repro trace differs");
    analyses[0].clone()
}

/// Same-seed `--faults flaky_links --record` runs of every topology
/// write the same reports and flight logs, and `repro trace` reads each
/// log back into the same analysis.
#[test]
fn faulted_runs_and_flight_logs_replay_across_the_topology_matrix() {
    for (topo, suffix) in MATRIX {
        let args = ["--faults", "flaky_links", "--topology", topo];
        assert_recorded_replay(&format!("record{suffix}"), &args);
    }
}

/// Same-seed recorded serve runs write the same flight logs, and those
/// logs carry request lifecycles that `repro trace` reads back.
#[test]
fn recorded_serve_runs_and_flight_logs_replay() {
    let args = ["--serve", "steady", "--minutes", "1"];
    let analysis = assert_recorded_replay("record_serve", &args);
    assert!(
        analysis.contains("req_arrived→req_admitted"),
        "the serve log holds no request lifecycle:\n{analysis}"
    );
}

/// Same-seed serve runs of every topology write the same SLO reports.
#[test]
fn serve_runs_replay_across_the_topology_matrix() {
    for (topo, suffix) in MATRIX {
        let args = ["--serve", "steady", "--minutes", "1", "--topology", topo];
        assert_replays(&format!("serve{suffix}"), &args);
    }
}

/// A run without `--threads`, a 1-worker and a 4-worker run of every
/// topology, fault-free, faulted and serving, write byte-identical
/// output directories.
#[test]
fn one_and_four_workers_write_the_same_bytes() {
    let variants: [&[&str]; 3] = [
        &["--faults", "none"],
        &["--faults", "flaky_links"],
        &["--serve", "steady", "--minutes", "1"],
    ];
    for (topo, suffix) in MATRIX {
        for (v, variant) in variants.iter().enumerate() {
            let dirs = [None, Some("1"), Some("4")].map(|n| {
                let dir = scratch(&format!("threads{suffix}_{v}_{}", n.unwrap_or("default")));
                let threads: &[&str] = match &n {
                    Some(n) => &["--threads", n],
                    None => &[],
                };
                sim(
                    &dir,
                    &[variant, &["--topology", topo][..], threads].concat(),
                );
                dir
            });
            for (dir, n) in [(&dirs[1], 1), (&dirs[2], 4)] {
                let what = format!("default vs {n} workers ({topo}, {})", variant.join(" "));
                assert_same_tree(&dirs[0], dir, &what);
            }
        }
    }
}

/// `--policy static` is the default engine: its fault and serve reports
/// equal, byte for byte, those of runs that name no policy.
#[test]
fn static_policy_writes_the_default_engines_bytes() {
    let variants: [&[&str]; 2] = [
        &["--faults", "flaky_links"],
        &["--serve", "steady", "--minutes", "1"],
    ];
    let (default, static_) = (scratch("policy_default"), scratch("policy_static"));
    for variant in variants {
        sim(&default, variant);
        sim(&static_, &[variant, &["--policy", "static"][..]].concat());
    }
    assert_same_tree(&default, &static_, "--policy static vs no --policy");
}

/// Reactive and predictive runs replay byte-identically on every
/// topology.
#[test]
fn adaptive_policies_replay_across_the_topology_matrix() {
    for policy in ["reactive", "predictive"] {
        for (topo, suffix) in MATRIX {
            let args = [
                "--faults",
                "flaky_links",
                "--topology",
                topo,
                "--policy",
                policy,
            ];
            assert_replays(&format!("{policy}{suffix}"), &args);
        }
    }
}

/// `repro --quiet lint` prints the findings alone, without the rule
/// counts and the verdict: nothing at all on the clean workspace.
#[test]
fn quiet_lint_prints_findings_only() {
    assert_eq!(repro(&["lint"]), "");
}

/// A `--jsonl` event log that cannot be written fails the run, naming
/// the path, as an unwritable `--record` flight log does; the same run
/// with a writable log succeeds.
#[cfg(target_os = "linux")]
#[test]
fn unwritable_jsonl_logs_fail_the_run() {
    let dir = scratch("jsonl_full");
    let out_dir = dir.to_str().expect("UTF-8 scratch path");
    let run = |log: &str| {
        Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["--trace", "--jsonl", log, "--out-dir", out_dir])
            .args(["simval", "placement"])
            .output()
            .expect("repro starts")
    };
    let full = run("/dev/full");
    let stderr = String::from_utf8_lossy(&full.stderr);
    assert_eq!(full.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("error: cannot write /dev/full"), "{stderr}");
    let log = dir.join("events.jsonl");
    let ok = run(log.to_str().expect("UTF-8 scratch path"));
    assert!(
        ok.status.success(),
        "{}",
        String::from_utf8_lossy(&ok.stderr)
    );
    let events = fs::read_to_string(&log).expect("the log was written");
    assert!(events.contains("\"span_end\""), "{events}");
}

/// A bad input is one clean error, not a panic: exit 1, exactly one
/// stderr line starting `error`, naming what was wrong, and no run
/// manifest (nor out-dir) when nothing was written. The runner refuses an axis value
/// outside its domain (`res=0`) before the frame model's
/// positive-resolution assert can see it, and a serve point whose load
/// could overflow the event calendar (`rate=1e8`) before any cell runs.
#[test]
fn out_of_domain_axis_values_fail_cleanly() {
    let dir = scratch("bad_input");
    let missing = dir.join("missing");
    let missing = missing.to_str().expect("UTF-8 scratch path");
    let log = dir.join("no_such.jsonl");
    let log = log.to_str().expect("UTF-8 scratch path");
    let cases: [(&[&str], &str); 10] = [
        (&["explore", "sizing", "--axis", "res=0"], "axis 'res'"),
        (
            &["explore", "split", "--axis", "factor=3"],
            "divide the ring",
        ),
        (&["nope"], "unknown experiment id: nope"),
        (&["explore", "nope"], "unknown sweep 'nope'"),
        (
            &[
                "explore",
                "serve",
                "--axis",
                "rate=1e8",
                "--axis",
                "premium=0.5",
                "--axis",
                "policy=0",
            ],
            "sweep 'serve' point rate=100000000;premium=0.5;policy=0: serve load of 100000000 req/s",
        ),
        (
            &["sim", "--faults", "nope"],
            "unknown fault scenario 'nope'",
        ),
        (&["sim", "--serve", "nope"], "unknown serve scenario 'nope'"),
        (&["sim", "--topology", "klist:x"], "--topology klist"),
        (&["trace", log], "cannot read"),
        (&["sim", "stray"], "unexpected operand 'stray'"),
    ];
    for (args, want) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .arg("--quiet")
            .args(args)
            .args(["--out-dir", missing])
            .output()
            .expect("repro starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let what = format!("repro {}", args.join(" "));
        assert_eq!(out.status.code(), Some(1), "{what}: {stderr}");
        let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error")).collect();
        assert!(
            errors.len() == 1 && errors[0].starts_with("error: ") && errors[0].contains(want),
            "{what}: want one `error: …{want}…` line:\n{stderr}"
        );
        assert!(!stderr.contains("panicked"), "{what}: {stderr}");
    }
    assert!(
        !Path::new(missing).exists(),
        "a failed run created its out-dir"
    );
}

/// A closed stdout drops the report, not the run: with stdout the write
/// end of a pipe whose read end is already gone (so every write meets
/// `EPIPE`), each listing and `repro trace` exits 0 without a panic, and
/// `repro all` still writes every artifact and its manifest, the bytes
/// an ordinary run writes.
#[test]
fn a_closed_stdout_never_panics() {
    let dir = scratch("closed_stdout");
    let log = dir.join("trace.jsonl");
    let log = log.to_str().expect("UTF-8 scratch path");
    let recorded = dir.join("recorded");
    sim(&recorded, &["--minutes", "0.5", "--record", log]);
    let (closed, open) = (dir.join("closed"), dir.join("open"));
    let (closed_dir, open_dir) = (
        closed.to_str().expect("UTF-8 scratch path"),
        open.to_str().expect("UTF-8 scratch path"),
    );
    let cases: [&[&str]; 6] = [
        &["list"],
        &["explore", "list"],
        &["sim", "list"],
        &["lint", "rules"],
        &["trace", log],
        &["all", "--out-dir", closed_dir],
    ];
    let run = |args: &[&str], stdout: Stdio| {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .stdout(stdout)
            .output()
            .expect("repro starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let what = format!("repro {}", args.join(" "));
        assert_eq!(out.status.code(), Some(0), "{what}: {stderr}");
        assert!(!stderr.contains("panicked"), "{what}: {stderr}");
    };
    for args in cases {
        let (reader, writer) = std::io::pipe().expect("a pipe");
        drop(reader);
        run(args, writer.into());
    }
    run(&["all", "--out-dir", open_dir], Stdio::null());
    assert_same_tree(&open, &closed, "repro all, stdout open vs closed");
}

/// Names listed in `repro <command> list` output under `header`: the
/// first word of each indented line up to the next unindented one,
/// skipping `--axis` help lines.
fn listed(command: &str, header: &str) -> Vec<String> {
    repro(&[command, "list"])
        .lines()
        .skip_while(|line| *line != header)
        .skip(1)
        .take_while(|line| line.starts_with(' '))
        .filter_map(|line| line.split_whitespace().next())
        .filter(|word| !word.starts_with("--"))
        .map(str::to_string)
        .collect()
}

/// The data rows of the CSV artifact `name` in a run's file tree.
fn csv_rows(files: &BTreeMap<String, Vec<u8>>, name: &str) -> BTreeSet<String> {
    let bytes = files
        .get(name)
        .unwrap_or_else(|| panic!("{name} was not written"));
    let text = std::str::from_utf8(bytes).expect("CSV is UTF-8");
    text.lines().skip(1).map(str::to_string).collect()
}

/// Every sweep run sequentially and cold (`--threads 1 --no-cache`)
/// writes the bytes `results/` commits, which the results test below
/// checks at the default four threads, so one thread and four agree.
/// Each sweep's grid and frontier are non-empty, and every frontier row
/// is a grid row.
#[test]
fn one_thread_sweeps_write_the_committed_files() {
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    for sweep in listed("explore", "available sweeps:") {
        let out = scratch(&format!("sweep_{sweep}"));
        let dir = out.to_str().expect("UTF-8 scratch path");
        repro(&[
            "explore",
            &sweep,
            "--threads",
            "1",
            "--no-cache",
            "--out-dir",
            dir,
        ]);
        let written = tree(&out);
        for (name, bytes) in &written {
            if UNCOMMITTED.contains(&name.as_str()) {
                continue;
            }
            let want = fs::read(committed.join(name))
                .unwrap_or_else(|e| panic!("results/{name} ({sweep} writes it): {e}"));
            assert!(
                *bytes == want,
                "{sweep} at 1 thread: {name} differs from results/{name}"
            );
        }
        let grid = csv_rows(&written, &format!("explore_{sweep}.csv"));
        let frontier = csv_rows(&written, &format!("explore_{sweep}_frontier.csv"));
        assert!(!grid.is_empty(), "{sweep}: empty grid");
        assert!(!frontier.is_empty(), "{sweep}: empty frontier");
        let strays: Vec<&String> = frontier.difference(&grid).collect();
        assert!(
            strays.is_empty(),
            "{sweep}: frontier rows not in the grid: {strays:?}"
        );
    }
}

/// Every committed file under `results/` is what the code writes today.
/// `repro all`, every `repro explore` sweep (cold: `--no-cache`), every
/// `repro sim --serve` scenario and `repro lint --audit determinism`
/// run into one scratch directory; each committed file must equal the
/// file of the same name there, byte for byte, a committed file no run
/// writes fails, and so does a written file `results/` lacks. Left out:
/// the memo cache, the `UNCOMMITTED` files, and `lint_baseline.json`,
/// which no run writes (only the benchmark reads it).
#[test]
fn results_dir_is_a_pure_function_of_code() {
    let out = scratch("results");
    let dir = out.to_str().expect("UTF-8 scratch path");
    repro(&["all", "--out-dir", dir]);
    // One sweep per run: `BENCH_serve.json` carries the manifest of the
    // run that wrote it, and the committed one names the serve sweep
    // alone.
    for sweep in listed("explore", "available sweeps:") {
        repro(&["explore", &sweep, "--no-cache", "--out-dir", dir]);
    }
    // Each serve run rewrites `sim_serve_manifest.json`; the committed
    // one is `under_faults`', the last scenario listed.
    let scenarios = listed("sim", "available serve scenarios (--serve):");
    assert_eq!(scenarios.last().map(String::as_str), Some("under_faults"));
    for scenario in &scenarios {
        sim(&out, &["--serve", scenario]);
    }
    repro(&["lint", "--audit", "determinism", "--out-dir", dir]);

    let bench = fs::read_to_string(out.join("BENCH_serve.json")).expect("BENCH_serve.json");
    for key in [
        "serve.requests_per_sec",
        "serve.batch_efficiency",
        "serve.shed_rate",
    ] {
        assert!(
            bench.contains(&format!("\"{key}\"")),
            "BENCH_serve.json lacks {key}"
        );
    }

    let written = tree(&out);
    let committed = tree(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results"));
    let names: BTreeSet<&String> = written.keys().chain(committed.keys()).collect();
    let mut stale = Vec::new();
    for name in names {
        if name.starts_with("cache/")
            || UNCOMMITTED.contains(&name.as_str())
            || name == "lint_baseline.json"
        {
            continue;
        }
        match (committed.get(name), written.get(name)) {
            (Some(_), None) => stale.push(format!(
                "results/{name}: no run writes it (untracked output of a run by hand? delete it)"
            )),
            (None, Some(_)) => stale.push(format!(
                "results/{name}: missing, but {dir}/{name} is written"
            )),
            (Some(old), Some(new)) if old != new => {
                stale.push(format!("results/{name}: differs from {dir}/{name}"));
            }
            _ => {}
        }
    }
    assert!(
        stale.is_empty(),
        "results/ is not what the code writes now:\n  {}",
        stale.join("\n  ")
    );
}
