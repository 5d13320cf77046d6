//! `repro trace <path>` — analyze a JSONL flight log recorded with
//! `repro sim --record`: lifecycle completeness, per-hop latency
//! breakdown, loss attribution by cause, the top-k slowest frames, and
//! the slowest frame's critical path. All analysis lives in
//! `telemetry::trace::TraceLog`; this module only formats it.

use std::path::Path;

use telemetry::trace::{TraceKind, TraceLog};

use super::{Out, Outcome};
use crate::Cli;

/// How many of the slowest frames to list.
const TOP_K: usize = 10;

pub fn exec(cli: &Cli, out: &mut Out) -> Outcome {
    let operands = &cli.ids[1..];
    let [path] = operands else {
        return Err("usage: repro trace <trace.jsonl>".to_string());
    };
    let log =
        TraceLog::read_path(Path::new(path)).map_err(|e| format!("cannot read {path}: {e}"))?;
    if log.is_empty() {
        return Err(format!(
            "{path} holds no trace events (recorded with `repro sim --record`?)"
        ));
    }

    let (mut frames, mut complete) = (0, 0);
    for frame in log.frame_ids() {
        frames += 1;
        complete += usize::from(log.is_complete(frame));
    }
    let snapshots = log.count_kind(TraceKind::SnapshotNet)
        + log.count_kind(TraceKind::SnapshotLinks)
        + log.count_kind(TraceKind::SnapshotCluster);
    writeln!(out, "flight log {path}");
    writeln!(out,
        "  {} events, {frames} frames ({complete} with a complete causal lifecycle), {snapshots} timeline snapshots",
        log.len(),
    );

    let losses = log.loss_attribution();
    if losses.is_empty() {
        writeln!(out, "\nloss attribution: no frames lost");
    } else {
        writeln!(
            out,
            "\nloss attribution (kept frames that produced no good output):"
        );
        for (cause, count) in &losses {
            writeln!(out, "  {cause:<18} {count}");
        }
    }

    writeln!(
        out,
        "\nper-hop latency breakdown (critical-path transitions):"
    );
    writeln!(
        out,
        "  {:<22} {:>7} {:>12} {:>12} {:>12}",
        "transition", "count", "total s", "mean s", "max s"
    );
    for seg in log.hop_breakdown() {
        writeln!(
            out,
            "  {:<22} {:>7} {:>12.4} {:>12.6} {:>12.6}",
            seg.label,
            seg.count,
            seg.total_s,
            seg.mean_s(),
            seg.max_s
        );
    }

    let slowest = log.slowest_frames(TOP_K);
    writeln!(out, "\ntop {} slowest completed frames:", slowest.len());
    for (frame, latency) in &slowest {
        let path_kinds: Vec<&str> = log
            .critical_path(*frame)
            .iter()
            .map(|e| e.kind.as_str())
            .collect();
        writeln!(
            out,
            "  frame {frame:<8} {latency:>10.4} s  {}",
            path_kinds.join(" → ")
        );
    }

    if let Some((frame, latency)) = slowest.first() {
        writeln!(
            out,
            "\ncritical path of the slowest frame ({frame}, {latency:.4} s end-to-end):"
        );
        for ev in log.critical_path(*frame) {
            let unit = ev.unit.map_or(String::new(), |u| format!(" unit {u}"));
            let cause = ev
                .cause
                .map_or(String::new(), |c| format!(" cause {}", c.as_str()));
            let value = ev.value.map_or(String::new(), |v| format!(" value {v:.6}"));
            writeln!(
                out,
                "  t={:>10.4}s  {:<14}{unit}{cause}{value}",
                ev.t_s,
                ev.kind.as_str()
            );
        }
    }

    Ok(false)
}
