//! Earth-observation constellation geometry and SµDC network topologies.
//!
//! * [`classes`] — the satellite weight classes of Table 7 and the LEO EO
//!   constellation survey of Table 1,
//! * [`plane`] — an orbital plane holding a ring of evenly spaced
//!   satellites (the formation of Fig. 10),
//! * [`topology`] — the SµDC ingest topologies of Secs. 7–8: ring
//!   (2-list), k-list, SµDC splitting, and the GEO star of Fig. 15, with
//!   their link-distance, capacity, and transmit-power consequences.
//!
//! # Examples
//!
//! ```
//! use constellation::topology::{ClusterTopology, Formation};
//!
//! // A 4-list doubles ingest links and doubles the paper's ring link
//! // distance in a frame-spaced formation.
//! let ring = ClusterTopology::k_list(2, Formation::FrameSpaced);
//! let four = ClusterTopology::k_list(4, Formation::FrameSpaced);
//! assert_eq!(four.ingest_links(), 2 * ring.ingest_links());
//! ```

pub mod classes;
pub mod plane;
pub mod topology;

pub use classes::{ConstellationEntry, SatelliteClass};
pub use plane::OrbitalPlane;
pub use topology::{ClusterTopology, Formation};
