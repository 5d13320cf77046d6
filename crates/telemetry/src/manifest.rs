//! Per-run manifests: what ran, and with which seed.
//!
//! Every reproduction run writes a [`RunManifest`] next to its artifacts
//! in `results/`, so a figure or table can always be traced back to the
//! seed, build, experiment list, and parameters that produced it. A
//! manifest holds no wall clock: two runs with the same seed, flags and
//! experiment list write byte-identical manifests.

use std::io;
use std::path::{Path, PathBuf};

use crate::{json, Value};

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
}

impl RunManifest {
    /// Starts a manifest for `tool` under `seed`.
    pub fn new(tool: &str, seed: u64) -> Self {
        Self {
            run_id: format!("{tool}-{seed:08x}"),
            tool: tool.to_string(),
            version: env!("CARGO_PKG_VERSION").to_string(),
            git: git_describe().to_string(),
            seed,
            experiments: Vec::new(),
            params: Vec::new(),
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
    fn manifest_records_seed_experiments_and_params() {
        let mut m = RunManifest::new("repro", 0xEC0_5A7);
        m.record_experiment("fig8");
        m.record_experiment("table8");
        m.param("trace", true);
        let json = m.to_json();
        assert!(json.contains(r#""run_id":"repro-00ec05a7""#), "{json}");
        assert!(json.contains(r#""seed":15467943"#));
        assert!(json.contains(r#""experiments":["fig8","table8"]"#));
        assert!(json.contains(r#""trace":true"#));
    }

    #[test]
    fn nontiming_fields_are_deterministic_across_runs() {
        let mk = || {
            let mut m = RunManifest::new("repro", 42);
            m.record_experiment("simval");
            m.param("quiet", false);
            m
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.run_id, b.run_id);
        assert_eq!(a.experiments, b.experiments);
        assert_eq!(a.to_json(), b.to_json());
    }

    /// A manifest records what ran, not when: there are no timings to
    /// strip, so two built apart from the same inputs serialise to the
    /// same bytes and carry no clock.
    #[test]
    fn strip_timings_makes_whole_manifests_byte_identical() {
        let mk = || {
            let mut m = RunManifest::new("repro", 9);
            m.record_experiment("fig8");
            m.to_json()
        };
        let first = mk();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert_eq!(first, mk(), "manifests carry no wall clock");
        let Json::Obj(fields) = json::parse(&first).expect("valid JSON") else {
            panic!("not an object: {first}")
        };
        for key in fields.keys() {
            assert!(
                !key.ends_with("_unix_ms") && key != "duration_s",
                "wall-clock key {key} in {first}"
            );
        }
    }

    #[test]
    fn write_to_produces_the_named_file() {
        let dir =
            std::env::temp_dir().join(format!("telemetry_manifest_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let m = RunManifest::new("smoke", 7);
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
