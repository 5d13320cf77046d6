//! `repro explore [sweep...]` — run named design-space sweeps through
//! the explore engine and write grid + Pareto-frontier artifacts (plus
//! `BENCH_serve.json` for the serve capacity frontier). Executor
//! statistics go to one `explore.stats` event per sweep on stderr.

use telemetry::RunManifest;

use super::{Out, Outcome, Publisher};
use crate::Cli;

/// `repro explore list` — every sweep with its axes and defaults.
fn list(out: &mut Out) {
    writeln!(out, "available sweeps:");
    for def in sudc::sweeps::all() {
        writeln!(out, "  {:10}  {}", def.name, def.title);
        for axis in &def.axes {
            let default: Vec<String> = axis.default.iter().map(f64::to_string).collect();
            writeln!(
                out,
                "              --axis {}=…  {} (default {})",
                axis.name,
                axis.help,
                default.join(",")
            );
        }
    }
}

/// Reports one finished sweep's executor statistics.
fn report_stats(run: &sudc::sweeps::SweepRun) {
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
}

pub fn exec(cli: &Cli, out: &mut Out) -> Outcome {
    let names: Vec<String> = cli.ids[1..].to_vec();

    if names.first().map(String::as_str) == Some("list") {
        list(out);
        return Ok(false);
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
        return Err(format!(
            "--axis needs exactly one sweep name (got {})",
            names.len()
        ));
    }

    let threads = cli.threads.unwrap_or(4);
    let opts = if threads <= 1 {
        explore::ExecOptions::sequential()
    } else {
        explore::ExecOptions::threads(threads)
    };
    // The memo store stays under results/ whatever --out-dir says.
    let cache_dir = (!cli.no_cache).then(|| bench::results_dir().join("cache"));

    let mut manifest = RunManifest::new("explore", sudc::sim::PAPER_SEED);
    // --threads and --no-cache are left out: neither can change a
    // byte the sweep writes.
    manifest.param("sweep_count", names.len() as u64);
    let mut publisher = Publisher::new(cli, out, manifest, true);
    // Headline gauges from the sweeps that surface them (today: the
    // serve capacity frontier), written once the manifest is complete.
    let mut gauges = Vec::new();
    for name in &names {
        match sudc::sweeps::run(name, &cli.axes, &opts, cache_dir.as_deref()) {
            Ok(run) => {
                report_stats(&run);
                publisher.publish(&run.frontier, &[&run.grid, &run.frontier]);
                if !run.metrics.is_empty() {
                    gauges = run.metrics;
                }
            }
            Err(e) => publisher.fail(&e),
        }
    }
    if !gauges.is_empty() {
        publisher.write_file("BENCH_serve.json", |path, manifest| {
            let metrics = telemetry::Metrics::new();
            for &(key, value) in &gauges {
                metrics.gauge(key, value);
            }
            bench::write_bench_json(path, manifest, &metrics)
        });
    }
    let sweeps = publisher.published();
    let failed = publisher.finish();

    telemetry::info(
        "explore.done",
        vec![
            ("sweeps".to_string(), sweeps.into()),
            ("failed".to_string(), failed.into()),
        ],
    );
    Ok(failed)
}
