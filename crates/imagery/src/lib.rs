//! Synthetic satellite imagery, the paper's frame model, and early
//! discard.
//!
//! The paper's Table 4 measures compression on real satellite datasets
//! (Crowd AI Mapping Challenge RGB, xView3 SAR) that we cannot ship.
//! [`synth`] generates procedural scenes with matched first-order
//! statistics — urban block structure, smooth rural fields, near-empty
//! SAR ocean with speckle and sparse ships — so the compression-ratio
//! *shape* of Table 4 is reproducible with real codecs on real pixels.
//!
//! [`frame`] implements the paper's frame model (one 4K RGB frame per
//! 1.5 s whose ground footprint stays fixed as resolution scales), and
//! [`discard`] the Table 3 early-discard classes with their effective
//! compression ratios.
//!
//! # Examples
//!
//! ```
//! use imagery::synth::{Scene, SceneKind};
//!
//! let img = Scene::new(SceneKind::SarOcean, 7).render(128, 128);
//! assert!(img.mean() < 30.0, "SAR ocean scenes are nearly empty");
//! ```

pub mod discard;
pub mod frame;
pub mod noise;
pub mod synth;

pub use discard::DiscardClass;
pub use frame::FrameSpec;
pub use synth::{Scene, SceneKind};
