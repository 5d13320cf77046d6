//! `repro explore [sweep...]` — run named design-space sweeps through
//! the explore engine and write grid + Pareto-frontier artifacts (plus
//! `BENCH_serve.json` for the serve capacity frontier). Executor
//! statistics go to one `explore.stats` event per sweep on stderr.

use std::path::Path;
use std::process::ExitCode;

use telemetry::RunManifest;

use crate::Cli;

/// `repro explore list` — print every sweep with its axes and defaults.
fn print_sweep_list() {
    println!("available sweeps:");
    for def in sudc::sweeps::all() {
        println!("  {:10}  {}", def.name, def.title);
        for axis in &def.axes {
            let default: Vec<String> = axis.default.iter().map(f64::to_string).collect();
            println!(
                "              --axis {}=…  {} (default {})",
                axis.name,
                axis.help,
                default.join(",")
            );
        }
    }
}

/// Reports one finished sweep's executor statistics and writes its
/// grid + frontier artifacts into `out_dir`.
fn record_sweep(cli: &Cli, run: &sudc::sweeps::SweepRun, out_dir: &Path, failed: &mut bool) {
    let stats = &run.stats;
    telemetry::info(
        "explore.stats",
        vec![
            ("name".to_string(), run.name.into()),
            ("points".to_string(), stats.points.into()),
            ("evaluated".to_string(), stats.evaluated.into()),
            ("cache_hits".to_string(), stats.cache_hits.into()),
            ("steals".to_string(), stats.steals.into()),
            ("threads".to_string(), stats.threads.into()),
            ("points_per_sec".to_string(), stats.points_per_sec().into()),
        ],
    );
    if !cli.quiet {
        println!("{}", run.frontier.to_text_table());
    }
    for result in [&run.grid, &run.frontier] {
        if !super::emit_artifacts(out_dir, result, cli.quiet) {
            *failed = true;
        }
    }
    if !cli.quiet {
        println!();
    }
}

/// Writes a sweep's headline gauges (today: the serve capacity
/// frontier) to `BENCH_serve.json` in `out_dir`.
fn write_serve_bench(
    cli: &Cli,
    gauges: &[(&str, f64)],
    manifest: &RunManifest,
    out_dir: &Path,
    failed: &mut bool,
) {
    let metrics = telemetry::Metrics::new();
    for &(key, value) in gauges {
        metrics.gauge(key, value);
    }
    let path = out_dir.join("BENCH_serve.json");
    if let Err(e) = bench::write_bench_json(&path, manifest, &metrics) {
        eprintln!("error writing {}: {e}", path.display());
        *failed = true;
    } else if !cli.quiet {
        println!("wrote {}", path.display());
    }
}

pub fn exec(cli: &Cli) -> ExitCode {
    let names: Vec<String> = cli.ids[1..].to_vec();

    if names.first().map(String::as_str) == Some("list") {
        print_sweep_list();
        return ExitCode::SUCCESS;
    }

    let names: Vec<String> = if names.is_empty() {
        sudc::sweeps::all()
            .iter()
            .map(|d| d.name.to_string())
            .collect()
    } else {
        names
    };
    if !cli.axes.is_empty() && names.len() != 1 {
        eprintln!(
            "error: --axis needs exactly one sweep name (got {})",
            names.len()
        );
        return ExitCode::FAILURE;
    }
    if let Err(e) = super::install_telemetry(cli) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }

    let threads = cli.threads.unwrap_or(4);
    let opts = if threads <= 1 {
        explore::ExecOptions::sequential()
    } else {
        explore::ExecOptions::threads(threads)
    };
    let out_dir = cli.out_dir.clone().unwrap_or_else(bench::results_dir);
    // The memo store stays under results/ whatever --out-dir says.
    let cache_dir = (!cli.no_cache).then(|| bench::results_dir().join("cache"));

    let mut manifest = RunManifest::new("explore", sudc::sim::PAPER_SEED);
    // --threads and --no-cache are left out: neither can change a
    // byte the sweep writes.
    manifest.param("sweep_count", names.len() as u64);
    // Headline gauges from the sweeps that surface them (today: the
    // serve capacity frontier), written once the manifest is complete.
    let mut gauges = Vec::new();
    let mut failed = false;
    for name in &names {
        match sudc::sweeps::run(name, &cli.axes, &opts, cache_dir.as_deref()) {
            Ok(run) => {
                manifest.record_experiment(&run.grid.id);
                record_sweep(cli, &run, &out_dir, &mut failed);
                if !run.metrics.is_empty() {
                    gauges = run.metrics;
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                failed = true;
            }
        }
    }

    match manifest.write_to(&out_dir) {
        Ok(path) => telemetry::info(
            "explore.manifest",
            vec![("path".to_string(), path.display().to_string().into())],
        ),
        Err(e) => {
            eprintln!("error writing run manifest: {e}");
            failed = true;
        }
    }
    if !gauges.is_empty() {
        write_serve_bench(cli, &gauges, &manifest, &out_dir, &mut failed);
    }

    telemetry::info(
        "explore.done",
        vec![
            ("sweeps".to_string(), manifest.experiments.len().into()),
            ("failed".to_string(), failed.into()),
        ],
    );
    super::exit_status(cli, failed)
}
