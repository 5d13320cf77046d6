//! The committed violation baseline, `results/lint_baseline.json`.
//!
//! The lint fails on every finding that no reasoned `lint:allow`
//! suppresses, so nothing reads this file to decide a verdict. It stays
//! committed, empty, for one reader: the benchmark's `lint_audit`
//! set-up parses it with [`Baseline::parse`] and refuses to run unless
//! [`Baseline::total`] is zero. A snapshot is a JSON object with
//! `version` 1 and an `entries` array, one entry per tolerated
//! violation.

use telemetry::json::{self, Json};

/// A parsed baseline snapshot: only its entry count is kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Baseline {
    total: u64,
}

impl Baseline {
    /// Tolerated violations the snapshot lists.
    pub fn total(&self) -> u64 {
        self.total
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
        Ok(Baseline {
            total: entries.len() as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deeply_nested_baseline_is_an_error() {
        let err = Baseline::parse(&"[".repeat(1_000_000)).expect_err("must not parse");
        assert!(err.contains("nesting"), "{err}");
    }

    #[test]
    fn parse_counts_entries_and_checks_the_shape() {
        let empty = r#"{"version":1,"tool":"sudc-lint","total":0,"entries":[]}"#;
        assert_eq!(Baseline::parse(empty).map(|b| b.total()), Ok(0));
        let two = r#"{"version":1,"entries":[{"key":"a"},{"key":"b"}]}"#;
        assert_eq!(Baseline::parse(two).map(|b| b.total()), Ok(2));
        for bad in [
            r#"{"version":2,"entries":[]}"#,
            r#"{"version":1}"#,
            r#"{"version":1,"entries":{}}"#,
        ] {
            assert!(Baseline::parse(bad).is_err(), "{bad}");
        }
    }
}
