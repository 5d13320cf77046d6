//! `repro` subcommands, one module each, plus the plumbing they share:
//! the stdout writer, telemetry installation, and the publisher that
//! prints tables and writes artifact triplets and run manifests.
//!
//! Every subcommand's `exec` takes the parsed [`Cli`] and the [`Out`]
//! writer and returns an [`Outcome`] to `main`, which prints a fatal
//! error, flushes stdout and the telemetry sinks, and picks the exit
//! code, once for every command.

pub mod explore;
pub mod lint;
pub mod run;
pub mod sim;
pub mod trace;

use std::fmt;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use sudc::experiments::ExperimentResult;
use telemetry::{Level, RunManifest};

use crate::Cli;

/// What a command hands back to `main`: `Err` is a fatal error (printed
/// as `error: …`), `Ok(failed)` says whether any step failed (each
/// failed step printed its own error already).
pub type Outcome = Result<bool, String>;

/// The one stdout writer: listings, reports, tables and `wrote …` lines
/// all go through it, with `write!`/`writeln!`, and no write can panic.
/// A closed stdout drops the rest of the report, not the run: the run
/// keeps writing its files and exits as it would have. Any other write
/// error drops the rest of the report too, and [`Out::finish`] returns
/// it, failing the run.
pub struct Out {
    stdout: io::Stdout,
    /// The first write error; nothing more is written after it.
    error: Option<io::Error>,
}

impl Out {
    pub fn stdout() -> Out {
        Out {
            stdout: io::stdout(),
            error: None,
        }
    }

    /// The target of `write!`/`writeln!`: a failed write is kept for
    /// [`Out::finish`] rather than returned, so no call site checks one.
    pub fn write_fmt(&mut self, args: fmt::Arguments<'_>) {
        if self.error.is_none() {
            self.error = self.stdout.write_fmt(args).err();
        }
    }

    /// Flushes stdout. Returns the first write error, unless stdout was
    /// merely closed (`EPIPE`).
    pub fn finish(&mut self) -> Result<(), String> {
        if self.error.is_none() {
            self.error = self.stdout.flush().err();
        }
        match self.error.take() {
            Some(e) if e.kind() != io::ErrorKind::BrokenPipe => {
                Err(format!("cannot write to stdout: {e}"))
            }
            _ => Ok(()),
        }
    }
}

/// Installs the stderr telemetry pretty-printer at the verbosity the
/// flags ask for, plus an optional JSONL event log.
pub fn install_telemetry(cli: &Cli) -> Result<(), String> {
    let stderr_level = if cli.trace {
        Level::Debug
    } else if cli.quiet {
        Level::Warn
    } else {
        Level::Info
    };
    telemetry::set_min_level(if cli.trace { Level::Debug } else { Level::Info });
    telemetry::install(Arc::new(telemetry::sink::StderrSink::new(stderr_level)));
    if let Some(path) = &cli.jsonl {
        match telemetry::sink::JsonlSink::create(path) {
            Ok(sink) => telemetry::install(Arc::new(sink)),
            Err(e) => return Err(format!("cannot open {}: {e}", path.display())),
        }
    }
    Ok(())
}

/// Publishes one run's results into the out-dir (`--out-dir`, default
/// `results/`): prints each table on stdout (unless `--quiet`), writes
/// each txt/csv/json triplet with a `wrote …` line, and last writes the
/// `<tool>_manifest.json` of what ran — unless nothing was written, so a
/// run that failed before its first artifact leaves no manifest behind.
pub struct Publisher<'a> {
    out: &'a mut Out,
    quiet: bool,
    /// Print a blank line after each published group.
    spaced: bool,
    dir: PathBuf,
    manifest: RunManifest,
    wrote: bool,
    failed: bool,
}

impl<'a> Publisher<'a> {
    /// A publisher for `manifest`'s tool; `spaced` separates the groups
    /// of a multi-result run with blank lines.
    pub fn new(cli: &Cli, out: &'a mut Out, manifest: RunManifest, spaced: bool) -> Self {
        Publisher {
            out,
            quiet: cli.quiet,
            spaced,
            dir: cli.out_dir.clone().unwrap_or_else(bench::results_dir),
            manifest,
            wrote: false,
            failed: false,
        }
    }

    /// A step failed before it could publish: prints `error: <why>` and
    /// fails the run, which carries on with its other steps.
    pub fn fail(&mut self, why: &str) {
        eprintln!("error: {why}");
        self.failed = true;
    }

    /// Publishes one group: lists it in the manifest under the first
    /// result's id, prints `table`, and writes each result's triplet.
    pub fn publish(&mut self, table: &ExperimentResult, results: &[&ExperimentResult]) {
        if let Some(first) = results.first() {
            self.manifest.record_experiment(&first.id);
        }
        if !self.quiet {
            writeln!(self.out, "{}", table.to_text_table());
        }
        for result in results {
            match bench::write_artifacts_to(&self.dir, result) {
                Ok(path) => self.wrote(&path),
                Err(e) => {
                    telemetry::error(
                        "repro.write_failed",
                        vec![
                            ("id".to_string(), result.id.as_str().into()),
                            ("error".to_string(), e.to_string().into()),
                        ],
                    );
                    eprintln!("error writing artifacts for {}: {e}", result.id);
                    self.failed = true;
                }
            }
        }
        if self.spaced && !self.quiet {
            writeln!(self.out);
        }
    }

    /// Writes one more file, `name` in the out-dir, from the manifest as
    /// it stands (today `BENCH_serve.json`).
    pub fn write_file(
        &mut self,
        name: &str,
        write: impl FnOnce(&Path, &RunManifest) -> io::Result<()>,
    ) {
        let path = self.dir.join(name);
        match write(&path, &self.manifest) {
            Ok(()) => self.wrote(&path),
            Err(e) => {
                eprintln!("error writing {}: {e}", path.display());
                self.failed = true;
            }
        }
    }

    fn wrote(&mut self, path: &Path) {
        self.wrote = true;
        if !self.quiet {
            writeln!(self.out, "wrote {}", path.display());
        }
    }

    /// How many groups the manifest lists.
    pub fn published(&self) -> usize {
        self.manifest.experiments.len()
    }

    /// Writes the manifest if anything was written; returns whether any
    /// step failed.
    pub fn finish(self) -> bool {
        if !self.wrote {
            return self.failed;
        }
        match self.manifest.write_to(&self.dir) {
            Ok(path) => {
                telemetry::info(
                    &format!("{}.manifest", self.manifest.tool),
                    vec![("path".to_string(), path.display().to_string().into())],
                );
                self.failed
            }
            Err(e) => {
                eprintln!("error writing run manifest: {e}");
                true
            }
        }
    }
}
