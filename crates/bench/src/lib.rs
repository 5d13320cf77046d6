//! Support library for the `repro` experiment harness: result-directory
//! handling and artifact writing shared by the binary and `perfbench`.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use sudc::experiments::ExperimentResult;

/// Locates (and creates) the workspace `results/` directory: next to the
/// workspace root when run via cargo, else under the current directory.
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR of this crate is <root>/crates/bench.
    let base = option_env!("CARGO_MANIFEST_DIR")
        .map(|d| Path::new(d).join("../.."))
        .unwrap_or_else(|| PathBuf::from("."));
    let dir = base.join("results");
    let _ = fs::create_dir_all(&dir);
    dir.canonicalize().unwrap_or(dir)
}

/// Writes an experiment's text and CSV artifacts into `results/`,
/// returning the text path.
///
/// # Errors
///
/// Returns any filesystem error from writing.
pub fn write_artifacts(result: &ExperimentResult) -> io::Result<PathBuf> {
    write_artifacts_to(&results_dir(), result)
}

/// Like [`write_artifacts`], but into an explicit directory (created if
/// missing) — used by `repro sim --out-dir` and the determinism gate,
/// which diffs two same-seed runs written to separate directories.
///
/// # Errors
///
/// Returns any filesystem error from writing.
pub fn write_artifacts_to(dir: &Path, result: &ExperimentResult) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let txt = dir.join(format!("{}.txt", result.id));
    fs::write(&txt, result.to_text_table())?;
    fs::write(dir.join(format!("{}.csv", result.id)), result.to_csv())?;
    fs::write(
        dir.join(format!("{}.json", result.id)),
        result_to_pretty_json(result),
    )?;
    Ok(txt)
}

/// Serialises an [`ExperimentResult`] as pretty-printed JSON: 2-space
/// indent, one key per line, the layout of every committed `results/`
/// `.json` artifact.
pub fn result_to_pretty_json(result: &ExperimentResult) -> String {
    fn push_str_lit(out: &mut String, s: &str) {
        out.push('"');
        telemetry::json::escape_into(out, s);
        out.push('"');
    }
    fn push_str_array(out: &mut String, items: &[String], indent: &str) {
        if items.is_empty() {
            out.push_str("[]");
            return;
        }
        out.push_str("[\n");
        for (i, item) in items.iter().enumerate() {
            out.push_str(indent);
            out.push_str("  ");
            push_str_lit(out, item);
            out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
        }
        out.push_str(indent);
        out.push(']');
    }
    let mut out = String::new();
    out.push_str("{\n  \"id\": ");
    push_str_lit(&mut out, &result.id);
    out.push_str(",\n  \"title\": ");
    push_str_lit(&mut out, &result.title);
    out.push_str(",\n  \"columns\": ");
    push_str_array(&mut out, &result.columns, "  ");
    out.push_str(",\n  \"rows\": ");
    if result.rows.is_empty() {
        out.push_str("[]");
    } else {
        out.push_str("[\n");
        for (i, row) in result.rows.iter().enumerate() {
            out.push_str("    ");
            push_str_array(&mut out, row, "    ");
            out.push_str(if i + 1 < result.rows.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]");
    }
    out.push_str(",\n  \"notes\": ");
    push_str_array(&mut out, &result.notes, "  ");
    out.push_str("\n}");
    out
}

/// Wall-time record for one experiment, destined for
/// `results/BENCH_repro.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentTiming {
    /// Experiment id.
    pub id: String,
    /// Wall time of the generator, milliseconds.
    pub wall_ms: f64,
    /// Rows produced.
    pub rows: usize,
    /// Notes attached to the result.
    pub notes: usize,
}

impl ExperimentTiming {
    fn to_json(&self) -> String {
        let mut o = telemetry::json::JsonObject::new();
        o.field_str("id", &self.id)
            .field_f64("wall_ms", self.wall_ms)
            .field_u64("rows", self.rows as u64)
            .field_u64("notes", self.notes as u64);
        o.finish()
    }
}

/// Writes the machine-readable benchmark report
/// (`results/BENCH_repro.json`): the run manifest, per-experiment wall
/// timings, and the metrics snapshot. Returns the path written.
///
/// # Errors
///
/// Returns any filesystem error from writing.
pub fn write_bench_json(
    path: &Path,
    manifest: &telemetry::RunManifest,
    timings: &[ExperimentTiming],
    metrics: &telemetry::Metrics,
) -> io::Result<()> {
    let mut rows = telemetry::json::JsonArray::new();
    for t in timings {
        rows.push_raw(&t.to_json());
    }
    let mut o = telemetry::json::JsonObject::new();
    o.field_raw("manifest", &manifest.to_json())
        .field_raw("experiments", &rows.finish())
        .field_raw("metrics", &metrics.to_json());
    if let Some(parent) = path.parent() {
        let _ = fs::create_dir_all(parent);
    }
    fs::write(path, format!("{}\n", o.finish()))
}

/// One named sweep's execution record, destined for
/// `results/BENCH_explore.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReportRow {
    /// Sweep name.
    pub name: String,
    /// Points in the space.
    pub points: usize,
    /// Points actually evaluated.
    pub evaluated: usize,
    /// Points answered from the cache.
    pub cache_hits: usize,
    /// Cache hit rate in [0, 1] (1.0 on a fully warm re-run).
    pub hit_rate: f64,
    /// Chunks claimed beyond an even static split.
    pub steals: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Wall time, milliseconds.
    pub wall_ms: f64,
    /// Evaluated points per second.
    pub points_per_sec: f64,
    /// Pareto-frontier size.
    pub frontier: usize,
    /// Whether a cache snapshot was written this run.
    pub cache_written: bool,
}

impl SweepReportRow {
    /// Builds a row from a sweep's name, stats, and artifact sizes.
    pub fn from_stats(
        name: &str,
        stats: &explore::SweepStats,
        frontier: usize,
        cache_written: bool,
    ) -> Self {
        Self {
            name: name.to_string(),
            points: stats.points,
            evaluated: stats.evaluated,
            cache_hits: stats.cache_hits,
            hit_rate: if stats.points > 0 {
                stats.cache_hits as f64 / stats.points as f64
            } else {
                0.0
            },
            steals: stats.steals,
            threads: stats.threads,
            wall_ms: stats.wall.as_secs_f64() * 1e3,
            points_per_sec: stats.points_per_sec(),
            frontier,
            cache_written,
        }
    }

    fn to_json(&self) -> String {
        let mut o = telemetry::json::JsonObject::new();
        o.field_str("name", &self.name)
            .field_u64("points", self.points as u64)
            .field_u64("evaluated", self.evaluated as u64)
            .field_u64("cache_hits", self.cache_hits as u64)
            .field_f64("hit_rate", self.hit_rate)
            .field_u64("steals", self.steals as u64)
            .field_u64("threads", self.threads as u64)
            .field_f64("wall_ms", self.wall_ms)
            .field_f64("points_per_sec", self.points_per_sec)
            .field_u64("frontier", self.frontier as u64)
            .field_bool("cache_written", self.cache_written);
        o.finish()
    }
}

/// Sequential-vs-parallel throughput comparison on one dense space,
/// destined for `results/BENCH_explore.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreBenchRow {
    /// Space name.
    pub space: String,
    /// Points swept.
    pub points: usize,
    /// Best-of-reps sequential wall time, milliseconds.
    pub seq_ms: f64,
    /// Best-of-reps parallel wall time, milliseconds.
    pub par_ms: f64,
    /// Parallel worker threads.
    pub threads: usize,
    /// Hardware cores available (speedup is bounded by this: a 1-core
    /// host can never show one, however good the executor).
    pub cores: usize,
    /// `seq_ms / par_ms`.
    pub speedup: f64,
    /// Whether sequential and parallel results were identical.
    pub identical: bool,
    /// Steal count of the best parallel rep.
    pub steals: usize,
}

impl ExploreBenchRow {
    fn to_json(&self) -> String {
        let mut o = telemetry::json::JsonObject::new();
        o.field_str("space", &self.space)
            .field_u64("points", self.points as u64)
            .field_f64("seq_ms", self.seq_ms)
            .field_f64("par_ms", self.par_ms)
            .field_u64("threads", self.threads as u64)
            .field_u64("cores", self.cores as u64)
            .field_f64("speedup", self.speedup)
            .field_bool("identical", self.identical)
            .field_u64("steals", self.steals as u64);
        o.finish()
    }
}

/// Times one space sequentially and with `threads` workers (best of
/// `reps` runs each, uncached) and checks the outputs are identical.
fn bench_space<P, R, F>(
    name: &str,
    space: &explore::Space<P>,
    threads: usize,
    reps: usize,
    eval: F,
) -> ExploreBenchRow
where
    P: Sync,
    R: Send + PartialEq,
    F: Fn(&P) -> R + Sync,
{
    let reps = reps.max(1);
    let seq_opts = explore::ExecOptions::sequential();
    let par_opts = explore::ExecOptions::threads(threads);
    let reference = explore::sweep(space, &seq_opts, &eval);
    let mut seq_ms = reference.stats.wall.as_secs_f64() * 1e3;
    for _ in 1..reps {
        let run = explore::sweep(space, &seq_opts, &eval);
        seq_ms = seq_ms.min(run.stats.wall.as_secs_f64() * 1e3);
    }
    let mut identical = true;
    let mut par_ms = f64::INFINITY;
    let mut steals = 0;
    for _ in 0..reps {
        let run = explore::sweep(space, &par_opts, &eval);
        identical &= run.results == reference.results;
        let ms = run.stats.wall.as_secs_f64() * 1e3;
        if ms < par_ms {
            par_ms = ms;
            steals = run.stats.steals;
        }
    }
    ExploreBenchRow {
        space: name.to_string(),
        points: space.len(),
        seq_ms,
        par_ms,
        threads,
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        speedup: seq_ms / par_ms,
        identical,
        steals,
    }
}

/// Benchmarks the explore engine on dense versions of the paper's two
/// headline sweep spaces (Fig. 13 co-design, Fig. 11 bottleneck):
/// single-threaded vs `threads`-worker throughput, best of `reps` runs,
/// with a byte-identity check between the two schedules.
pub fn explore_bench(threads: usize, reps: usize) -> Vec<ExploreBenchRow> {
    // Fig. 13 space, densified: every even k up to 256 × splits 1..=512.
    let ks: Vec<usize> = (1..=128).map(|i| 2 * i).collect();
    let splits: Vec<usize> = (1..=512).collect();
    let codesign = sudc::codesign::fig13_space(&ks, &splits);

    // Fig. 11 space, densified along the early-discard axis.
    let eds: Vec<f64> = (0..200).map(|i| i as f64 * 0.005).collect();
    let resolutions: Vec<units::Length> = imagery::FrameSpec::paper_resolutions().to_vec();
    let bottleneck = sudc::sweeps::bottleneck_cli_space(&[4.0, 256.0], &resolutions, &eds);

    vec![
        bench_space("codesign_dense", &codesign, threads, reps, |&(k, s)| {
            sudc::codesign::fig13_point(k, s)
        }),
        bench_space("bottleneck_dense", &bottleneck, threads, reps, |p| {
            sudc::bottleneck::fig11_row(sudc::sizing::PAPER_CONSTELLATION, p)
        }),
    ]
}

/// Writes the explore benchmark report (`results/BENCH_explore.json`):
/// the run manifest, per-sweep execution records, the
/// sequential-vs-parallel bench rows, and the metrics snapshot.
///
/// # Errors
///
/// Returns any filesystem error from writing.
pub fn write_explore_json(
    path: &Path,
    manifest: &telemetry::RunManifest,
    sweeps: &[SweepReportRow],
    bench: &[ExploreBenchRow],
    metrics: &telemetry::Metrics,
) -> io::Result<()> {
    let mut sweep_rows = telemetry::json::JsonArray::new();
    for s in sweeps {
        sweep_rows.push_raw(&s.to_json());
    }
    let mut bench_rows = telemetry::json::JsonArray::new();
    for b in bench {
        bench_rows.push_raw(&b.to_json());
    }
    let mut o = telemetry::json::JsonObject::new();
    o.field_raw("manifest", &manifest.to_json())
        .field_raw("sweeps", &sweep_rows.finish())
        .field_raw("bench", &bench_rows.finish())
        .field_raw("metrics", &metrics.to_json());
    if let Some(parent) = path.parent() {
        let _ = fs::create_dir_all(parent);
    }
    fs::write(path, format!("{}\n", o.finish()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::json::{self, Json};

    #[test]
    fn artifacts_round_trip() {
        // A scratch directory, not `results/`, which
        // `committed_json_artifacts_parse` reads concurrently.
        let dir = std::env::temp_dir().join(format!("bench_artifacts_{}", std::process::id()));
        let mut r = ExperimentResult::new("zz_test_artifact", "test", &["a"]);
        r.push_row(["1"]);
        let path = write_artifacts_to(&dir, &r).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.contains("zz_test_artifact"));
        let json_text = fs::read_to_string(dir.join("zz_test_artifact.json")).unwrap();
        let doc = json::parse(&json_text).expect("valid JSON");
        assert_eq!(
            doc.get("id").and_then(Json::as_str),
            Some("zz_test_artifact")
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// Every committed `results/*.json` parses, and each experiment
    /// artifact (one with `columns`) names itself and has rows exactly
    /// as wide as its columns.
    #[test]
    fn committed_json_artifacts_parse() {
        let mut experiments = std::collections::BTreeSet::new();
        for entry in fs::read_dir(results_dir()).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            let name = path.display();
            let doc = json::parse(&fs::read_to_string(&path).unwrap())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let Some(columns) = doc.get("columns").and_then(Json::as_arr) else {
                continue;
            };
            let stem = path.file_stem().and_then(|s| s.to_str()).unwrap();
            assert_eq!(doc.get("id").and_then(Json::as_str), Some(stem), "{name}");
            let rows = doc.get("rows").and_then(Json::as_arr).expect("rows array");
            for (i, row) in rows.iter().enumerate() {
                let width = row.as_arr().map(<[Json]>::len);
                assert_eq!(width, Some(columns.len()), "{name} row {i}");
            }
            experiments.insert(stem.to_string());
        }
        for e in sudc::experiments::all() {
            assert!(experiments.contains(e.id), "results/{}.json missing", e.id);
        }
    }

    #[test]
    fn pretty_json_matches_the_committed_layout() {
        let mut r = ExperimentResult::new("demo", "a \"quoted\" title", &["x", "y"]);
        r.push_row(["1", "2"]);
        r.push_row(["3", "×4"]);
        r.note("line\nbreak");
        let expected = "{\n  \"id\": \"demo\",\n  \"title\": \"a \\\"quoted\\\" title\",\n  \
                        \"columns\": [\n    \"x\",\n    \"y\"\n  ],\n  \"rows\": [\n    [\n      \
                        \"1\",\n      \"2\"\n    ],\n    [\n      \"3\",\n      \"×4\"\n    ]\n  \
                        ],\n  \"notes\": [\n    \"line\\nbreak\"\n  ]\n}";
        assert_eq!(result_to_pretty_json(&r), expected);

        let empty = ExperimentResult::new("e", "t", &[]);
        let json = result_to_pretty_json(&empty);
        assert!(json.contains("\"columns\": []"), "{json}");
        assert!(json.contains("\"rows\": []"), "{json}");
    }

    #[test]
    fn explore_report_rows_serialise() {
        let stats = explore::SweepStats {
            points: 8,
            evaluated: 0,
            cache_hits: 8,
            steals: 0,
            threads: 4,
            wall: std::time::Duration::from_millis(2),
        };
        let row = SweepReportRow::from_stats("codesign", &stats, 3, false);
        assert_eq!(row.hit_rate, 1.0);
        let json = row.to_json();
        assert!(json.contains("\"cache_hits\":8"), "{json}");
        assert!(json.contains("\"frontier\":3"), "{json}");
    }

    #[test]
    fn bench_json_contains_manifest_timings_and_metrics() {
        let dir = std::env::temp_dir().join(format!("bench_json_test_{}", std::process::id()));
        let path = dir.join("BENCH_repro.json");
        let mut manifest = telemetry::RunManifest::new("repro", 42);
        manifest.record_experiment("fig2");
        manifest.finish();
        let metrics = telemetry::Metrics::new();
        metrics.inc("experiments.completed", 1);
        let timings = vec![ExperimentTiming {
            id: "fig2".to_string(),
            wall_ms: 1.25,
            rows: 10,
            notes: 0,
        }];
        write_bench_json(&path, &manifest, &timings, &metrics).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.contains(r#""run_id":"repro-0000002a""#), "{text}");
        assert!(text.contains(r#""id":"fig2""#));
        assert!(text.contains(r#""wall_ms":1.25"#));
        assert!(text.contains(r#""experiments.completed""#));
        let _ = fs::remove_dir_all(&dir);
    }
}
