//! Communication-system models for the space-microdatacenter workspace.
//!
//! Sec. 4 of the paper asks whether the downlink deficit can be closed by
//! better communications, and Secs. 7–8 hinge on inter-satellite link
//! capacity. The models here cover both sides:
//!
//! * [`shannon`] — the Shannon–Hartley capacity law and the
//!   bandwidth-limited regime argument of Sec. 4,
//! * [`antenna`] — patch/helical/parabolic antenna gain and the
//!   power/aperture scaling behind Fig. 7,
//! * [`linkbudget`] — free-space path loss, noise floor, and an RF
//!   downlink budget calibrated to Planet Dove's 220 Mbit/s X-band
//!   channel,
//! * [`optical`] — optical ISL models with the distance-squared transmit
//!   power law of Sec. 8 and turbulence fading near the atmosphere,
//! * [`isl`] — the ISL capacity classes (RF and optical) used by Table 8,
//! * [`groundstation`] — the GSaaS network of Table 2 with its pricing.
//!
//! # Examples
//!
//! ```
//! use comms::shannon::capacity;
//! use units::Frequency;
//!
//! // Dove-like channel: 96 MHz of X-band at SNR 19 → ~415 Mbit/s Shannon
//! // bound; real modems get roughly half.
//! let c = capacity(Frequency::from_mhz(96.0), 19.0);
//! assert!(c.as_mbps() > 400.0 && c.as_mbps() < 430.0);
//! ```

pub mod antenna;
pub mod groundstation;
pub mod isl;
pub mod linkbudget;
pub mod optical;
pub mod shannon;

pub use antenna::Antenna;
pub use groundstation::{GroundStationNetwork, GsaasProvider, Region};
pub use isl::IslClass;
pub use linkbudget::DownlinkBudget;
