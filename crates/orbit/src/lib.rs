//! Two-body orbital mechanics for the space-microdatacenter workspace.
//!
//! The paper's communication and placement analysis (Secs. 3, 7–9) needs:
//!
//! * orbital periods, velocities, and in-plane satellite geometry
//!   ([`circular`]),
//! * full Keplerian element propagation ([`kepler`]),
//! * eclipse fractions for power-system sizing ([`eclipse`]),
//! * line-of-sight between satellites and to ground stations, with Earth
//!   occlusion and atmospheric grazing ([`visibility`]),
//! * sub-satellite points under Earth rotation ([`groundtrack`]),
//! * drag make-up and disposal budgets for LEO vs GEO placement
//!   ([`drag`]), and
//! * the radiation environment (South Atlantic Anomaly, Van Allen belts)
//!   that drives the hardening analysis of Sec. 9 ([`radiation`]).
//!
//! Everything is two-body, which is the fidelity at which the paper
//! itself reasons. Positions use an Earth-centred inertial (ECI) frame;
//! [`Vec3`] is in metres.
//!
//! # Examples
//!
//! ```
//! use orbit::circular::CircularOrbit;
//! use units::Length;
//!
//! let leo = CircularOrbit::from_altitude(Length::from_km(550.0));
//! assert!(leo.period().as_minutes() > 90.0 && leo.period().as_minutes() < 100.0);
//! ```

pub mod circular;
pub mod drag;
pub mod eclipse;
pub mod groundtrack;
pub mod kepler;
pub mod radiation;
pub mod vec3;
pub mod visibility;

pub use circular::CircularOrbit;
pub use kepler::{Anomaly, KeplerError, OrbitalElements};
pub use vec3::Vec3;
