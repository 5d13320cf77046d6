//! Constellation simulation: play out five minutes of a 64-satellite
//! ring feeding SµDCs at frame level under the paper's uniform
//! early-discard assumption — at 95% discard, without discard, and
//! without discard but split into eight SµDCs.
//!
//! ```sh
//! cargo run --example constellation_sim
//! ```

use sudc::sim::{run, SimConfig};
use units::{Length, Time};
use workloads::Application;

fn print_report(label: &str, r: &sudc::sim::SimReport) {
    println!("--- {label} ---");
    println!(
        "  frames: {} generated, {} kept, {} processed",
        r.generated, r.kept, r.processed
    );
    println!("  achieved discard rate: {:.1}%", r.discard_rate * 100.0);
    println!(
        "  latency: mean {:.2} s, max {:.2} s",
        r.mean_latency_s, r.max_latency_s
    );
    println!(
        "  utilisation: ingest ISLs {:.0}%, SµDC compute {:.0}%",
        r.ingest_utilization * 100.0,
        r.compute_utilization * 100.0
    );
    println!(
        "  residual backlog: {}  → {}",
        r.residual_backlog,
        if r.stable { "STABLE" } else { "OVERLOADED" }
    );
    println!();
}

fn main() {
    let app = Application::CropMonitoring;
    let resolution = Length::from_m(1.0);

    // Uniform discard, one SµDC (the paper's Fig. 9 assumption).
    let mut cfg = SimConfig::paper_reference(app, resolution, 0.95);
    cfg.duration = Time::from_minutes(5.0);
    print_report("uniform 95% discard, 1 × 4 kW SµDC", &run(&cfg));

    // Same load without discard: watch it drown.
    let mut hot = cfg.clone();
    hot.discard = 0.0;
    print_report("no discard, 1 × 4 kW SµDC", &run(&hot));

    // Rescue it by splitting into 8 clusters (Sec. 8).
    let mut split = hot.clone();
    split.clusters = 8;
    print_report("no discard, split into 8 SµDCs", &run(&split));
}
