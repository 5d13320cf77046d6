//! The experiment registry: one entry per table and figure in the
//! paper's evaluation, each regenerating the published rows/series from
//! this workspace's models (see DESIGN.md §4 for the index and
//! EXPERIMENTS.md for paper-vs-measured records).
//!
//! # Examples
//!
//! ```
//! let result = sudc::experiments::run("table3").expect("known id");
//! assert!(result.to_text_table().contains("Non-Built-Up"));
//! ```

pub(crate) mod figures;
mod lossy;
mod placement;
mod simval;
mod tables;

#[cfg(test)]
use std::{fmt, str::FromStr};

/// A contextual error from [`ExperimentResult::cell`]: names the
/// experiment, row, column, and offending raw text.
#[cfg(test)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellError(String);

#[cfg(test)]
impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

#[cfg(test)]
impl std::error::Error for CellError {}

/// A regenerated experiment artifact: a titled table of rows.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentResult {
    /// Experiment id (e.g. `fig9`, `table8`).
    pub id: String,
    /// Human-readable title with the paper reference.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Data rows (stringified cells).
    pub rows: Vec<Vec<String>>,
    /// Free-form notes (assumptions, substitutions, known paper
    /// discrepancies).
    pub notes: Vec<String>,
}

impl ExperimentResult {
    /// Creates an empty result shell.
    pub fn new(id: &str, title: &str, columns: &[&str]) -> Self {
        Self {
            id: id.to_string(),
            title: title.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row (stringifying each cell).
    pub fn push_row<I, S>(&mut self, cells: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        debug_assert_eq!(
            row.len(),
            self.columns.len(),
            "row width must match column count"
        );
        self.rows.push(row);
    }

    /// Appends a note.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Parses the cell at (`row`, `col`) as `T`, with a contextual
    /// error naming the experiment, position, and raw text — e.g.
    /// `"fig10 row 3 col 1: invalid f64 'x'"`.
    ///
    /// # Errors
    ///
    /// Returns [`CellError`] when the position is out of range or the
    /// cell text does not parse as `T`.
    #[cfg(test)]
    pub fn cell<T: FromStr>(&self, row: usize, col: usize) -> Result<T, CellError> {
        let type_name = std::any::type_name::<T>()
            .rsplit("::")
            .next()
            .unwrap_or("value");
        let r = self.rows.get(row).ok_or_else(|| {
            CellError(format!(
                "{} row {row}: out of range ({} rows)",
                self.id,
                self.rows.len()
            ))
        })?;
        let raw = r.get(col).ok_or_else(|| {
            CellError(format!(
                "{} row {row} col {col}: out of range ({} cols)",
                self.id,
                r.len()
            ))
        })?;
        raw.parse().map_err(|_| {
            CellError(format!(
                "{} row {row} col {col}: invalid {type_name} '{raw}'",
                self.id
            ))
        })
    }

    /// Renders an aligned plain-text table.
    pub fn to_text_table(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("# {} — {}\n", self.id, self.title));
        let header: Vec<String> = self
            .columns
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        out.push_str(&header.join(" | "));
        out.push('\n');
        out.push_str(
            &widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("-+-"),
        );
        out.push('\n');
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            out.push_str(&line.join(" | "));
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        out
    }

    /// Renders RFC-4180-ish CSV (cells containing commas or quotes are
    /// quoted).
    pub fn to_csv(&self) -> String {
        fn esc(s: &str) -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        out.push_str(
            &self
                .columns
                .iter()
                .map(|c| esc(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// A registered experiment.
pub struct Experiment {
    /// Stable id (`fig2` … `table9`, `simval`).
    pub id: &'static str,
    /// Paper artifact it reproduces.
    pub paper_ref: &'static str,
    /// Short description.
    pub description: &'static str,
    /// Generator function.
    pub run: fn() -> ExperimentResult,
}

/// All experiments in paper order: figures, then tables, then the
/// synthesis experiments that go beyond the paper's artifacts.
pub fn all() -> Vec<Experiment> {
    let mut list = figure_experiments();
    list.extend(table_experiments());
    list.extend(synthesis_experiments());
    list
}

/// The paper's figure reproductions (Fig. 2 through Fig. 16).
fn figure_experiments() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "fig2",
            paper_ref: "Fig. 2",
            description: "EO spatial resolution vs launch year",
            run: figures::fig2,
        },
        Experiment {
            id: "fig3",
            paper_ref: "Fig. 3",
            description: "Satellite downlink capacity vs year",
            run: figures::fig3,
        },
        Experiment {
            id: "fig4a",
            paper_ref: "Fig. 4a",
            description: "Constellation data generation rates",
            run: figures::fig4a,
        },
        Experiment {
            id: "fig4b",
            paper_ref: "Fig. 4b",
            description: "Dove-like downlink channels required",
            run: figures::fig4b,
        },
        Experiment {
            id: "fig5a",
            paper_ref: "Fig. 5a",
            description: "Downlink deficit vs channels per revolution",
            run: figures::fig5a,
        },
        Experiment {
            id: "fig5b",
            paper_ref: "Fig. 5b",
            description: "Downlink time per satellite per revolution",
            run: figures::fig5b,
        },
        Experiment {
            id: "fig6",
            paper_ref: "Fig. 6",
            description: "Required effective compression ratio",
            run: figures::fig6,
        },
        Experiment {
            id: "fig7",
            paper_ref: "Fig. 7",
            description: "Antenna power/size scaling of channel capacity",
            run: figures::fig7,
        },
        Experiment {
            id: "fig8",
            paper_ref: "Fig. 8",
            description: "On-satellite power needed per application",
            run: figures::fig8,
        },
        Experiment {
            id: "fig9",
            paper_ref: "Fig. 9",
            description: "4 kW RTX 3090 SµDCs needed",
            run: figures::fig9,
        },
        Experiment {
            id: "fig11",
            paper_ref: "Fig. 11",
            description: "Clusters needed vs ISL capacity (4 kW and 256 kW)",
            run: figures::fig11,
        },
        Experiment {
            id: "fig13",
            paper_ref: "Fig. 13",
            description: "k-list × splitting capacity and power",
            run: figures::fig13,
        },
        Experiment {
            id: "fig14",
            paper_ref: "Fig. 14",
            description: "SµDCs needed with Qualcomm Cloud AI 100",
            run: figures::fig14,
        },
        Experiment {
            id: "fig16",
            paper_ref: "Fig. 16",
            description: "Radiation-hardening overhead impact",
            run: figures::fig16,
        },
    ]
}

/// The paper's table reproductions (Table 1 through Table 9).
fn table_experiments() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "table1",
            paper_ref: "Table 1",
            description: "LEO EO constellation survey",
            run: tables::table1,
        },
        Experiment {
            id: "table2",
            paper_ref: "Table 2",
            description: "GSaaS ground stations by region",
            run: tables::table2,
        },
        Experiment {
            id: "table3",
            paper_ref: "Table 3",
            description: "Early-discard rates and ECRs",
            run: tables::table3,
        },
        Experiment {
            id: "table4",
            paper_ref: "Table 4",
            description: "Compression ratios on synthetic RGB and SAR imagery",
            run: tables::table4,
        },
        Experiment {
            id: "table5",
            paper_ref: "Table 5",
            description: "EO application survey",
            run: tables::table5,
        },
        Experiment {
            id: "table6",
            paper_ref: "Table 6",
            description: "Per-application device measurements",
            run: tables::table6,
        },
        Experiment {
            id: "table7",
            paper_ref: "Table 7",
            description: "Satellite classes and supported applications",
            run: tables::table7,
        },
        Experiment {
            id: "table8",
            paper_ref: "Table 8",
            description: "EO satellites supportable per ring SµDC",
            run: tables::table8,
        },
        Experiment {
            id: "table9",
            paper_ref: "Table 9",
            description: "Mitigation-strategy comparison",
            run: tables::table9,
        },
    ]
}

/// Experiments of ours that extend the paper: DES cross-validation,
/// placement synthesis, and the rate-distortion sweep.
fn synthesis_experiments() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "simval",
            paper_ref: "(ours)",
            description: "DES cross-validation of the closed-form models",
            run: simval::simval,
        },
        Experiment {
            id: "placement",
            paper_ref: "Sec. 9",
            description: "LEO vs GEO SµDC placement synthesis",
            run: placement::placement,
        },
        Experiment {
            id: "lossy",
            paper_ref: "Sec. 4",
            description: "Quasi-lossless compression rate-distortion sweep",
            run: lossy::lossy,
        },
    ]
}

/// Runs one experiment by id, emitting a telemetry span (`experiment`)
/// that records the id, row count, and note count alongside the
/// elapsed time.
pub fn run(id: &str) -> Option<ExperimentResult> {
    let e = all().into_iter().find(|e| e.id == id)?;
    let mut span = telemetry::span!("experiment", id = e.id);
    let result = (e.run)();
    span.record("rows", result.rows.len() as u64);
    span.record("notes", result.notes.len() as u64);
    Some(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_complete() {
        let exps = all();
        assert_eq!(exps.len(), 26);
        let mut ids: Vec<_> = exps.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 26, "duplicate experiment ids");
    }

    #[test]
    fn unknown_id_returns_none() {
        assert!(run("fig99").is_none());
    }

    #[test]
    fn text_table_renders_aligned() {
        let mut r = ExperimentResult::new("t", "test", &["a", "long-header"]);
        r.push_row(["1", "2"]);
        r.note("a note");
        let text = r.to_text_table();
        assert!(text.contains("long-header"));
        assert!(text.contains("note: a note"));
    }

    #[test]
    fn csv_escapes_commas() {
        let mut r = ExperimentResult::new("t", "test", &["x"]);
        r.push_row(["a,b"]);
        assert!(r.to_csv().contains("\"a,b\""));
    }

    #[test]
    fn cell_parses_typed_values() {
        let mut r = ExperimentResult::new("fig10", "test", &["name", "value"]);
        r.push_row(["a", "1.5"]);
        r.push_row(["b", "7"]);
        assert_eq!(r.cell::<f64>(0, 1).unwrap(), 1.5);
        assert_eq!(r.cell::<i64>(1, 1).unwrap(), 7);
        assert_eq!(r.cell::<String>(0, 0).unwrap(), "a");
    }

    #[test]
    fn cell_errors_name_the_position_and_raw_text() {
        let mut r = ExperimentResult::new("fig10", "test", &["name", "value"]);
        r.push_row(["a", "x"]);
        let err = r.cell::<f64>(0, 1).unwrap_err();
        assert_eq!(err.to_string(), "fig10 row 0 col 1: invalid f64 'x'");
        let err = r.cell::<f64>(3, 1).unwrap_err();
        assert_eq!(err.to_string(), "fig10 row 3: out of range (1 rows)");
        let err = r.cell::<f64>(0, 9).unwrap_err();
        assert_eq!(err.to_string(), "fig10 row 0 col 9: out of range (2 cols)");
    }
}
