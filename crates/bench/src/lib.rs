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

/// Writes an experiment's txt/csv/json artifact triplet into `dir`
/// (created if missing), returning the text path. `repro` passes
/// `results/` or its `--out-dir`; the determinism gates diff two
/// same-seed runs written to separate directories.
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

/// Writes a machine-readable gauge report (today only
/// `results/BENCH_serve.json`, the serve sweep's capacity frontier):
/// the run manifest and the metrics snapshot.
///
/// # Errors
///
/// Returns any filesystem error from writing.
pub fn write_bench_json(
    path: &Path,
    manifest: &telemetry::RunManifest,
    metrics: &telemetry::Metrics,
) -> io::Result<()> {
    let mut o = telemetry::json::JsonObject::new();
    o.field_raw("manifest", &manifest.to_json())
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

    /// A sweep's artifacts depend on neither the cache nor the thread
    /// count: a cold sequential run and a warm 4-thread run against the
    /// same cache directory write the same bytes.
    #[test]
    fn codesign_sweep_bytes_ignore_cache_and_threads() {
        let dir = std::env::temp_dir().join(format!("bench_sweep_cache_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let run = |opts: &explore::ExecOptions| {
            sudc::sweeps::run("codesign", &[], opts, Some(dir.as_path())).unwrap()
        };
        let cold = run(&explore::ExecOptions::sequential());
        let warm = run(&explore::ExecOptions::threads(4));
        let _ = fs::remove_dir_all(&dir);
        assert_eq!(cold.stats.cache_hits, 0);
        assert_eq!(warm.stats.cache_hits, warm.stats.points);
        for (a, b) in [(&cold.grid, &warm.grid), (&cold.frontier, &warm.frontier)] {
            assert_eq!(a.to_text_table(), b.to_text_table());
            assert_eq!(result_to_pretty_json(a), result_to_pretty_json(b));
        }
    }

    #[test]
    fn bench_json_contains_manifest_and_metrics() {
        let dir = std::env::temp_dir().join(format!("bench_json_test_{}", std::process::id()));
        let path = dir.join("BENCH_serve.json");
        let mut manifest = telemetry::RunManifest::new("explore", 42);
        manifest.record_experiment("explore_serve");
        let metrics = telemetry::Metrics::new();
        metrics.gauge("serve.requests_per_sec", 3999.5);
        write_bench_json(&path, &manifest, &metrics).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        let doc = json::parse(&text).expect("valid JSON");
        let Json::Obj(top) = &doc else {
            panic!("not an object: {text}")
        };
        assert_eq!(top.keys().collect::<Vec<_>>(), ["manifest", "metrics"]);
        let m = doc.get("manifest").unwrap();
        assert_eq!(
            m.get("run_id").and_then(Json::as_str),
            Some("explore-0000002a")
        );
        let rps = doc
            .get("metrics")
            .and_then(|m| m.get("serve.requests_per_sec"))
            .and_then(|g| g.get("value"))
            .and_then(Json::as_f64);
        assert_eq!(rps, Some(3999.5), "{text}");
        let _ = fs::remove_dir_all(&dir);
    }
}
