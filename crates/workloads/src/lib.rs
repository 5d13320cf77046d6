//! Earth-observation application workloads and compute-hardware models.
//!
//! Sec. 5 of the paper characterises ten non-longitudinal RGB and
//! hyperspectral EO applications (Table 5) and measures their performance
//! and power on a Jetson AGX Xavier and an RTX 3090 (Table 6). Everything
//! downstream — on-satellite power requirements (Fig. 8), SµDC sizing
//! (Figs. 9/14/16), Table 7 — consumes a single derived metric:
//! **pixels per second per watt** for each (application, device) pair.
//!
//! We cannot re-run the authors' GPUs, so the models here are
//! parameterised with the paper's published measurements (the same
//! constants their analysis uses); the analytical structure around them —
//! batch-size behaviour, utilisation-based power estimation, hardening
//! overheads — is implemented in full so the experiments exercise real
//! code paths rather than lookup tables alone.
//!
//! # Examples
//!
//! ```
//! use workloads::{Application, Device};
//!
//! let m = workloads::measurement(Application::FloodDetection, Device::Rtx3090)
//!     .expect("FD was measured on the 3090");
//! assert!(m.kpixels_per_sec_per_watt > 300.0);
//! ```

pub mod apps;
pub mod batch;
pub mod hardening;
pub mod hardware;

pub use apps::{Application, ImageryKind, KernelKind};
pub use batch::BatchProfile;
pub use hardening::Hardening;
pub use hardware::{measurement, Device, Measurement};
