//! Frame-level discrete-event simulation of an EO constellation feeding
//! SµDCs, as a layered engine:
//!
//! ```text
//! topology  (where frames go: ring / k-list / geo star / split ring)
//!    ↓
//! transport (when they move: ISL occupancy, outages, retry/backoff)
//!    ↓
//! service   (what happens on arrival: compute queue, SEU, shedding)
//!    ↓
//! engine    (event loop + collectors → SimReport)
//! ```
//!
//! `model` holds the configuration and report types; `faults` the
//! fault-injection model; `serve` the multi-tenant user-traffic
//! serving layer riding the same links and pipelines; `policy` the
//! control plane deciding retries and source shedding at the engine's
//! two decision points. Seeded
//! runs replay byte-identically across the layer seams — see DESIGN.md
//! for the contract.
pub mod engine;
pub mod faults;
pub mod model;
pub mod parallel;
pub mod policy;
pub mod serve;
pub mod service;
pub mod topology;
pub mod transport;
pub use faults::{
    ClusterOutageSpec, DegradationSpec, FaultModel, FaultSummary, LinkOutageSpec, SeuSpec,
};
pub use model::*;
pub use parallel::{run, try_run, try_run_recorded, try_run_threads};
pub use policy::{Policy, PolicyKind};
pub use serve::{BatchPolicy, LoadModel, ServeConfig, ServeReport, ServeScenario, TenantClass};
pub use topology::Topology;
