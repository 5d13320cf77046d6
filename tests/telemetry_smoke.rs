//! End-to-end telemetry smoke test: run a real experiment with the
//! JSONL and in-memory sinks installed, and check that the span stream
//! and the run manifest carry the fields the repro harness relies on.
//!
//! Kept as a single test function: telemetry's dispatcher is global, so
//! parallel tests in one binary would see each other's sinks.

use std::fs;
use std::sync::Arc;

use telemetry::json::{self, Json};
use telemetry::{Level, RunManifest};

#[test]
fn experiment_run_emits_spans_and_a_complete_manifest() {
    let dir = std::env::temp_dir().join(format!("telemetry_smoke_{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let jsonl_path = dir.join("events.jsonl");

    telemetry::reset();
    telemetry::set_min_level(Level::Debug);
    let memory = Arc::new(telemetry::sink::MemorySink::new());
    telemetry::install(memory.clone());
    telemetry::install(Arc::new(
        telemetry::sink::JsonlSink::create(&jsonl_path).unwrap(),
    ));

    let mut manifest = RunManifest::new("smoke", sudc::sim::PAPER_SEED);
    let result = sudc::experiments::run("placement").expect("known experiment id");
    manifest.record_experiment(&result.id);
    telemetry::flush().expect("the JSONL log flushes");
    telemetry::reset();

    // The experiment produced real rows and its span closed with timing.
    assert!(!result.rows.is_empty());
    let events = memory.take();
    let span_end = events
        .iter()
        .find(|e| e.kind == telemetry::EventKind::SpanEnd && e.name == "experiment")
        .expect("experiment span must close");
    assert!(span_end.elapsed_ns.unwrap() > 0);
    assert_eq!(
        span_end.field("id").map(|v| v.to_string()).as_deref(),
        Some("placement")
    );
    assert_eq!(
        span_end.field("rows").map(|v| v.to_string()),
        Some(result.rows.len().to_string())
    );
    // The debug instrumentation inside placement fired too.
    assert!(events.iter().any(|e| e.name == "placement.power"));

    // Every JSONL line is a self-contained JSON object.
    let log = fs::read_to_string(&jsonl_path).unwrap();
    assert_eq!(log.lines().count(), events.len());
    let mut names = Vec::new();
    for line in log.lines() {
        let doc = json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert!(doc.get("kind").and_then(Json::as_str).is_some(), "{line}");
        assert!(matches!(doc.get("fields"), Some(Json::Obj(_))), "{line}");
        names.push(
            doc.get("name")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
        );
    }
    let mut expected: Vec<String> = events.iter().map(|e| e.name.clone()).collect();
    names.sort();
    expected.sort();
    assert_eq!(names, expected, "the log holds the dispatched events");

    // The manifest carries the seed and the experiment id.
    let json = manifest.to_json();
    assert!(
        json.contains(&format!(r#""seed":{}"#, sudc::sim::PAPER_SEED)),
        "{json}"
    );
    assert!(json.contains(r#""experiments":["placement"]"#), "{json}");
    let path = manifest.write_to(&dir).unwrap();
    assert!(fs::read_to_string(&path)
        .unwrap()
        .contains(r#""tool":"smoke""#));

    let _ = fs::remove_dir_all(&dir);
}
