//! Space microdatacenters (SµDCs): the core design-space models of the
//! MICRO 2023 paper *"Space Microdatacenters"*, plus a frame-level
//! discrete-event constellation simulator that cross-validates them.
//!
//! The paper's argument proceeds in stages, each implemented as a module:
//!
//! 1. **Data requirements** ([`datareq`], Fig. 4) — high-resolution EO
//!    constellations generate Tbit/s–Pbit/s, orders of magnitude beyond
//!    ground-station capacity.
//! 2. **Downlink deficit** ([`deficit`], Fig. 5) — per-satellite downlink
//!    time and discarded-data fraction versus channel count.
//! 3. **Data-reduction limits** ([`ecr`], Fig. 6; `compress` + `imagery`
//!    crates, Tables 3–4) — compression and early discard fall 1000×
//!    short of the required effective compression ratios.
//! 4. **On-satellite compute** ([`onboard`], Fig. 8, Table 7) — the
//!    applications' power needs dwarf small-satellite power budgets.
//! 5. **SµDC sizing** ([`sizing`], Figs. 9/14/16) — how many 4 kW
//!    SµDCs a 64-satellite constellation needs, per application,
//!    resolution, discard rate, chip architecture, and hardening level.
//! 6. **ISL bottleneck** ([`bottleneck`], Table 8, Fig. 11) — when link
//!    capacity, not compute, dictates the cluster count.
//! 7. **Co-design** ([`codesign`], Figs. 12–13, Table 9) — k-lists,
//!    SµDC splitting, and GEO placement.
//! 8. **Economics** ([`costs`]) — downlink pricing versus launching
//!    compute.
//!
//! [`sim`] is the event-driven constellation simulator; [`experiments`]
//! regenerates every table and figure of the paper (see `DESIGN.md` for
//! the index and `EXPERIMENTS.md` for paper-vs-measured records).
//!
//! # Examples
//!
//! ```
//! use sudc::sizing::{SudcSpec, sudcs_needed};
//! use units::Length;
//! use workloads::{Application, Device};
//!
//! // How many 4 kW RTX 3090 SµDCs does flood detection need for the
//! // 64-satellite reference constellation at 1 m with 95% early discard?
//! let spec = SudcSpec::paper_4kw(Device::Rtx3090);
//! let n = sudcs_needed(
//!     &spec,
//!     Application::FloodDetection,
//!     Length::from_m(1.0),
//!     0.95,
//!     64,
//! )
//! .expect("FD runs on the 3090");
//! assert_eq!(n, 1, "Fig. 9: one SµDC suffices at 1 m / 95% ED");
//! ```

pub mod bottleneck;
pub mod codesign;
pub mod costs;
pub mod data;
pub mod datareq;
pub mod deficit;
pub mod ecr;
pub mod experiments;
pub mod onboard;
pub mod powersys;
pub mod sim;
pub mod sizing;
pub mod sweeps;
pub mod thermal;

pub use sizing::SudcSpec;
