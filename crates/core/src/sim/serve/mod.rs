//! Multi-tenant user-traffic serving on the constellation.
//!
//! The paper's pipeline analyzes sensor frames the constellation
//! produces itself; the north star is a fleet that *also* serves heavy
//! inference traffic from ground users. This module adds that serving
//! layer on the layered sim engine:
//!
//! - [`config`]: tenants (class, load model, per-request cost, SLO,
//!   rate limits), batching policies, and the named scenario registry
//!   (`steady`, `surge`, `closed_loop`, `under_faults`).
//! - Load generation (in `handlers`): deterministic open-loop Poisson
//!   arrivals and closed-loop bounded-concurrency generators with
//!   think time, each drawing from dedicated
//!   `serve_arrival` / `serve_think` / `serve_source` RNG streams —
//!   streams a non-serve run never touches, so fault-free non-serve
//!   runs stay byte-identical to `results/simval.*`.
//! - [`admission`]: per-tenant token buckets plus backlog-triggered
//!   shedding by tenant class, guarding the SµDC compute queues.
//! - [`batcher`]: per-(SµDC, tenant) dynamic batching — fixed-size,
//!   deadline-triggered, or adaptive backlog-aware — exploiting the
//!   saturating [`workloads::batch::BatchProfile`] throughput model,
//!   and each SµDC's in-service FIFO of dispatched requests.
//! - `handlers`: the serve event handlers. The engine's event loop
//!   calls them with the frame engine's state and the run's
//!   [`ServeState`], which lives beside it.
//! - [`report`]: per-tenant SLO attainment (p50/p99/p999 latency,
//!   goodput, shed/violation counts) embedded in the run's
//!   [`SimReport`](crate::sim::model::SimReport).
//!
//! Requests ride the *same* ISL transport and SµDC pipelines as the EO
//! frame workload, so serving and frame analysis genuinely contend for
//! links and compute — including under injected faults.

pub mod admission;
pub mod batcher;
pub mod config;
pub(in crate::sim) mod handlers;
pub mod report;
pub mod state;

pub use admission::{admit, Admission, TokenBucket};
pub use batcher::Batcher;
pub use config::{BatchPolicy, LoadModel, ServeConfig, ServeScenario, TenantClass, TenantSpec};
pub use report::{ServeReport, TenantReport};
pub use state::{Request, ServeState, OPEN_SLOT, REQ_ID_BASE};
