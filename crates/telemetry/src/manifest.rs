//! Per-run manifests: what ran, with which seed, in how long.
//!
//! Every reproduction run writes a [`RunManifest`] next to its artifacts
//! in `results/`, so a figure or table can always be traced back to the
//! seed, build, experiment list, and parameters that produced it. All
//! non-timing fields are deterministic: two runs with the same seed and
//! experiment list produce byte-identical manifests except for
//! `started_unix_ms` / `finished_unix_ms` / `duration_s`.

use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::{json, unix_ms, Value};

/// Build identity baked in at compile time: `GIT_DESCRIBE` when the
/// build sets it, else `"untagged"`.
pub fn git_describe() -> &'static str {
    option_env!("GIT_DESCRIBE").unwrap_or("untagged")
}

/// A per-run record of what was reproduced and how.
#[derive(Debug, Clone)]
pub struct RunManifest {
    /// Deterministic run id: `<tool>-<seed as hex>`.
    pub run_id: String,
    /// The producing tool (e.g. `"repro"`).
    pub tool: String,
    /// Workspace version (`CARGO_PKG_VERSION`).
    pub version: String,
    /// Build identity (see [`git_describe`]).
    pub git: String,
    /// The run's RNG seed.
    pub seed: u64,
    /// Experiment ids executed, in order.
    pub experiments: Vec<String>,
    /// Free-form key parameters (flags, overrides).
    pub params: Vec<(String, Value)>,
    started_unix_ms: u64,
    started: Instant,
    finished_unix_ms: Option<u64>,
    duration_s: Option<f64>,
}

impl RunManifest {
    /// Starts a manifest for `tool` under `seed`; the clock starts now.
    pub fn new(tool: &str, seed: u64) -> Self {
        Self {
            run_id: format!("{tool}-{seed:08x}"),
            tool: tool.to_string(),
            version: env!("CARGO_PKG_VERSION").to_string(),
            git: git_describe().to_string(),
            seed,
            experiments: Vec::new(),
            params: Vec::new(),
            started_unix_ms: unix_ms(),
            started: Instant::now(),
            finished_unix_ms: None,
            duration_s: None,
        }
    }

    /// Records that an experiment ran.
    pub fn record_experiment(&mut self, id: &str) {
        self.experiments.push(id.to_string());
    }

    /// Records a key parameter.
    pub fn param(&mut self, key: &str, value: impl Into<Value>) {
        self.params.push((key.to_string(), value.into()));
    }

    /// Marks the run finished (idempotent; freezes the duration).
    pub fn finish(&mut self) {
        if self.finished_unix_ms.is_none() {
            self.finished_unix_ms = Some(unix_ms());
            self.duration_s = Some(self.started.elapsed().as_secs_f64());
        }
    }

    /// Zeroes every wall-clock field (deterministic mode: `repro
    /// --no-timings` / `REPRO_DETERMINISTIC=1`), so two same-seed runs
    /// write byte-identical manifests. Call after
    /// [`finish`](Self::finish); a later `finish` will not re-stamp.
    pub fn strip_timings(&mut self) {
        self.started_unix_ms = 0;
        self.finished_unix_ms = Some(0);
        self.duration_s = Some(0.0);
    }

    /// Run duration in seconds: frozen if [`finish`](Self::finish) was
    /// called, else the elapsed time so far.
    pub fn duration_s(&self) -> f64 {
        self.duration_s
            .unwrap_or_else(|| self.started.elapsed().as_secs_f64())
    }

    /// Renders the manifest as a JSON object.
    pub fn to_json(&self) -> String {
        let mut o = json::JsonObject::new();
        o.field_str("run_id", &self.run_id)
            .field_str("tool", &self.tool)
            .field_str("version", &self.version)
            .field_str("git", &self.git)
            .field_u64("seed", self.seed);
        let mut ids = json::JsonArray::new();
        for id in &self.experiments {
            ids.push_str(id);
        }
        o.field_raw("experiments", &ids.finish());
        let mut params = json::JsonObject::new();
        for (k, v) in &self.params {
            params.field_raw(k, &v.to_json());
        }
        o.field_raw("params", &params.finish());
        o.field_u64("started_unix_ms", self.started_unix_ms);
        match self.finished_unix_ms {
            Some(ms) => o.field_u64("finished_unix_ms", ms),
            None => o.field_null("finished_unix_ms"),
        };
        o.field_f64("duration_s", self.duration_s());
        o.finish()
    }

    /// Writes `<tool>_manifest.json` into `dir`, returning the path.
    ///
    /// # Errors
    ///
    /// Returns any filesystem error from writing.
    pub fn write_to(&self, dir: &Path) -> io::Result<PathBuf> {
        let path = dir.join(format!("{}_manifest.json", self.tool));
        std::fs::write(&path, format!("{}\n", self.to_json()))?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn manifest_records_seed_experiments_and_duration() {
        let mut m = RunManifest::new("repro", 0xEC0_5A7);
        m.record_experiment("fig8");
        m.record_experiment("table8");
        m.param("trace", true);
        m.finish();
        let json = m.to_json();
        assert!(json.contains(r#""run_id":"repro-00ec05a7""#), "{json}");
        assert!(json.contains(r#""seed":15467943"#));
        assert!(json.contains(r#""experiments":["fig8","table8"]"#));
        assert!(json.contains(r#""trace":true"#));
        assert!(json.contains(r#""duration_s":"#));
        assert!(m.duration_s() >= 0.0);
    }

    #[test]
    fn finish_is_idempotent() {
        let mut m = RunManifest::new("t", 1);
        m.finish();
        let first = m.to_json();
        std::thread::sleep(std::time::Duration::from_millis(2));
        m.finish();
        assert_eq!(first, m.to_json(), "finish must freeze the timings");
    }

    #[test]
    fn nontiming_fields_are_deterministic_across_runs() {
        let strip = |m: &RunManifest| {
            let json = m.to_json();
            // Drop the three timing fields; the rest must be identical.
            let cut = json.find("\"started_unix_ms\"").unwrap();
            json[..cut].to_string()
        };
        let mk = || {
            let mut m = RunManifest::new("repro", 42);
            m.record_experiment("simval");
            m.param("quiet", false);
            m.finish();
            m
        };
        assert_eq!(strip(&mk()), strip(&mk()));
    }

    #[test]
    fn strip_timings_makes_whole_manifests_byte_identical() {
        let mk = || {
            let mut m = RunManifest::new("repro", 9);
            m.record_experiment("fig8");
            m.finish();
            m.strip_timings();
            m.to_json()
        };
        let first = mk();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert_eq!(first, mk(), "stripped manifests carry no wall clock");
        assert!(first.contains(r#""started_unix_ms":0"#), "{first}");
        assert!(first.contains(r#""finished_unix_ms":0"#));
        assert!(first.contains(r#""duration_s":0"#));
    }

    #[test]
    fn write_to_produces_the_named_file() {
        let dir =
            std::env::temp_dir().join(format!("telemetry_manifest_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut m = RunManifest::new("smoke", 7);
        m.finish();
        let path = m.write_to(&dir).unwrap();
        assert!(path.ends_with("smoke_manifest.json"));
        let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).expect("valid JSON");
        assert_eq!(doc.get("tool").and_then(Json::as_str), Some("smoke"));
        assert_eq!(doc.get("seed").and_then(Json::as_u64), Some(7));
        assert_eq!(
            doc.get("run_id").and_then(Json::as_str),
            Some(m.run_id.as_str())
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
