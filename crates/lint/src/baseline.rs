//! The ratcheting violation baseline.
//!
//! Pre-existing violations are *grandfathered*: the committed baseline
//! (`results/lint_baseline.json`) records, per `file:rule`, a multiset
//! of content-addressed fingerprints — the FNV-1a hash of the rule id
//! plus the trimmed violating line. A scan then classifies every
//! diagnostic as grandfathered (its fingerprint is still available in
//! the baseline multiset) or **new** (it isn't), so moving a violation
//! to a different line does not churn the baseline, while introducing
//! an identical second copy of a grandfathered line does count as new.
//!
//! The ratchet only turns one way: `repro lint --update-baseline`
//! refuses to write a baseline with more total violations than the
//! committed one.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;

use telemetry::json::{self, Json, JsonArray, JsonObject};

use crate::Diagnostic;

/// Grandfathered violations, keyed `"<file>:<rule>"`, each a multiset
/// of line fingerprints (`fingerprint -> multiplicity`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Baseline {
    /// Per `file:rule` fingerprint multisets.
    pub entries: BTreeMap<String, BTreeMap<String, u64>>,
}

/// Outcome of comparing a scan against a [`Baseline`].
#[derive(Debug)]
pub struct Ratchet {
    /// Diagnostics not covered by the baseline — these fail the gate.
    pub new: Vec<Diagnostic>,
    /// Diagnostics absorbed by the baseline.
    pub grandfathered: usize,
    /// Baseline entries no longer present in the tree (burned down).
    pub fixed: u64,
}

impl Baseline {
    /// Builds a baseline that grandfathers exactly `diags`.
    pub fn from_diags(diags: &[Diagnostic]) -> Baseline {
        let mut entries: BTreeMap<String, BTreeMap<String, u64>> = BTreeMap::new();
        for d in diags {
            *entries
                .entry(format!("{}:{}", d.file, d.rule))
                .or_default()
                .entry(d.fingerprint.clone())
                .or_default() += 1;
        }
        Baseline { entries }
    }

    /// Total grandfathered violations (fingerprint multiplicities
    /// included).
    pub fn total(&self) -> u64 {
        self.entries.values().flat_map(BTreeMap::values).sum()
    }

    /// Number of `file:rule` entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the baseline grandfathers nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The subset of the baseline belonging to one rule (used when a
    /// scan is restricted with `--rule`).
    pub fn for_rule(&self, rule: &str) -> Baseline {
        let suffix = format!(":{rule}");
        Baseline {
            entries: self
                .entries
                .iter()
                .filter(|(k, _)| k.ends_with(&suffix))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }

    /// Renders the deterministic JSON snapshot (sorted keys, sorted
    /// fingerprints, multiplicities expanded).
    pub fn to_json(&self) -> String {
        let mut entries = JsonArray::new();
        for (key, prints) in &self.entries {
            let count: u64 = prints.values().sum();
            let mut fps = JsonArray::new();
            for (fp, &n) in prints {
                for _ in 0..n {
                    fps.push_str(fp);
                }
            }
            let mut obj = JsonObject::new();
            obj.field_str("key", key)
                .field_u64("count", count)
                .field_raw("fingerprints", &fps.finish());
            entries.push_raw(&obj.finish());
        }
        let mut root = JsonObject::new();
        root.field_u64("version", 1)
            .field_str("tool", "sudc-lint")
            .field_u64("total", self.total())
            .field_raw("entries", &entries.finish());
        // Pretty-ish: one entry per line keeps diffs reviewable.
        root.finish()
            .replace("},{", "},\n    {")
            .replace("\"entries\":[{", "\"entries\":[\n    {")
            .replace("}]}", "}\n]}")
            + "\n"
    }

    /// Parses a baseline snapshot.
    ///
    /// # Errors
    ///
    /// Returns a message for malformed JSON or a structure mismatch.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let root = json::parse(text)?;
        if root.get("version").and_then(Json::as_u64) != Some(1) {
            return Err("unsupported baseline version".to_string());
        }
        let entries = root
            .get("entries")
            .and_then(Json::as_arr)
            .ok_or("baseline missing 'entries' array")?;
        let mut baseline = Baseline::default();
        for e in entries {
            let key = e
                .get("key")
                .and_then(Json::as_str)
                .ok_or("entry missing 'key'")?;
            let fps = e
                .get("fingerprints")
                .and_then(Json::as_arr)
                .ok_or("entry missing 'fingerprints'")?;
            let multiset = baseline.entries.entry(key.to_string()).or_default();
            for fp in fps {
                let fp = fp.as_str().ok_or("non-string fingerprint")?;
                *multiset.entry(fp.to_string()).or_default() += 1;
            }
        }
        Ok(baseline)
    }

    /// Loads a baseline file; a missing file is an empty baseline (so a
    /// fresh tree fails until `--update-baseline` creates one).
    ///
    /// # Errors
    ///
    /// Returns a message for unreadable or malformed files.
    pub fn load(path: &Path) -> Result<Baseline, String> {
        match fs::read_to_string(path) {
            Ok(text) => Baseline::parse(&text),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Baseline::default()),
            Err(e) => Err(format!("cannot read {}: {e}", path.display())),
        }
    }

    /// Writes the snapshot.
    ///
    /// # Errors
    ///
    /// Returns any filesystem error.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(path, self.to_json())
    }
}

/// Classifies `diags` against `baseline` (see module docs).
pub fn ratchet(baseline: &Baseline, diags: &[Diagnostic]) -> Ratchet {
    let mut remaining = baseline.entries.clone();
    let mut new = Vec::new();
    let mut grandfathered = 0usize;
    for d in diags {
        let key = format!("{}:{}", d.file, d.rule);
        let available = remaining
            .get_mut(&key)
            .and_then(|m| m.get_mut(&d.fingerprint))
            .filter(|n| **n > 0);
        match available {
            Some(n) => {
                *n -= 1;
                grandfathered += 1;
            }
            None => new.push(d.clone()),
        }
    }
    let fixed = remaining.values().flat_map(BTreeMap::values).sum();
    Ratchet {
        new,
        grandfathered,
        fixed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lint_source, Diagnostic};

    fn scan(src: &str) -> Vec<Diagnostic> {
        lint_source("crates/core/src/model.rs", src, None)
    }

    const DIRTY: &str = "fn f(o: Option<u32>) -> u32 {\n    o.unwrap()\n}\n";

    #[test]
    fn deeply_nested_baseline_is_an_error() {
        let err = Baseline::parse(&"[".repeat(1_000_000)).expect_err("must not parse");
        assert!(err.contains("nesting"), "{err}");
    }

    #[test]
    fn baseline_round_trips_through_json() {
        let diags = scan(DIRTY);
        assert_eq!(diags.len(), 1);
        let base = Baseline::from_diags(&diags);
        let parsed = Baseline::parse(&base.to_json()).expect("round-trips");
        assert_eq!(parsed, base);
        assert_eq!(parsed.total(), 1);
    }

    #[test]
    fn grandfathered_violations_pass_new_ones_fail() {
        let base = Baseline::from_diags(&scan(DIRTY));
        let clean = ratchet(&base, &scan(DIRTY));
        assert!(clean.new.is_empty());
        assert_eq!(clean.grandfathered, 1);
        assert_eq!(clean.fixed, 0);

        let two = "fn f(o: Option<u32>) -> u32 {\n    o.unwrap()\n}\n\
                   fn g(o: Option<u32>) -> u32 {\n    o.expect(\"g\")\n}\n";
        let r = ratchet(&base, &scan(two));
        assert_eq!(r.new.len(), 1, "the added expect is new");
        assert_eq!(r.grandfathered, 1);
    }

    #[test]
    fn moving_a_violation_does_not_churn_the_ratchet() {
        let base = Baseline::from_diags(&scan(DIRTY));
        let moved = "// a new leading comment shifts every line\n\
                     fn f(o: Option<u32>) -> u32 {\n    o.unwrap()\n}\n";
        let r = ratchet(&base, &scan(moved));
        assert!(r.new.is_empty(), "same content on a new line is not new");
    }

    #[test]
    fn duplicating_a_grandfathered_line_counts_as_new() {
        let base = Baseline::from_diags(&scan(DIRTY));
        let dup = "fn f(o: Option<u32>) -> u32 {\n    o.unwrap()\n}\n\
                   fn g(o: Option<u32>) -> u32 {\n    o.unwrap()\n}\n";
        let r = ratchet(&base, &scan(dup));
        assert_eq!(r.new.len(), 1, "multiset multiplicity is enforced");
    }

    #[test]
    fn fixes_are_counted() {
        let two = "fn f(o: Option<u32>) -> u32 {\n    o.unwrap()\n}\n\
                   fn g(o: Option<u32>) -> u32 {\n    o.expect(\"g\")\n}\n";
        let base = Baseline::from_diags(&scan(two));
        let r = ratchet(&base, &scan(DIRTY));
        assert!(r.new.is_empty());
        assert_eq!(r.fixed, 1);
    }

    #[test]
    fn rule_subset_restricts_comparison() {
        let mixed = "fn f(o: Option<u32>) -> u32 {\n    o.unwrap()\n}\n\
                     fn g(x: f64) -> bool {\n    x == 0.0\n}\n";
        let base = Baseline::from_diags(&scan(mixed));
        let sub = base.for_rule("float-eq");
        assert_eq!(sub.total(), 1);
        let only_float = lint_source("crates/core/src/model.rs", mixed, Some("float-eq"));
        let r = ratchet(&sub, &only_float);
        assert!(r.new.is_empty());
        assert_eq!(r.fixed, 0);
    }

    #[test]
    fn missing_file_loads_as_empty() {
        let base =
            Baseline::load(Path::new("/nonexistent/lint_baseline.json")).expect("missing is empty");
        assert!(base.is_empty());
        let r = ratchet(&base, &scan(DIRTY));
        assert_eq!(r.new.len(), 1, "everything is new against empty");
    }

    #[test]
    fn snapshot_is_deterministic_and_line_oriented() {
        let two = "fn f(o: Option<u32>) -> u32 {\n    o.unwrap()\n}\n\
                   fn g(x: f64) -> bool {\n    x == 0.0\n}\n";
        let a = Baseline::from_diags(&scan(two)).to_json();
        let b = Baseline::from_diags(&scan(two)).to_json();
        assert_eq!(a, b);
        assert!(a.lines().count() > 1, "one entry per line for diffs");
        assert!(a.ends_with('\n'));
    }
}
