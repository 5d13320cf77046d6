//! Radiation-hardening strategies and their compute overheads (Fig. 16).
//!
//! The paper compares software-based soft-error mitigation (~20%
//! overhead, per Abich et al.), dual-modular redundancy (2×), and
//! triple-modular redundancy (3×), noting ML workloads' inherent
//! resilience keeps software hardening cheap.

use crate::apps::Application;

/// A radiation-hardening strategy for SµDC compute.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Hardening {
    /// No hardening: accept the raw soft-error rate (viable in benign LEO
    /// outside the SAA).
    #[default]
    None,
    /// Software-based mitigation (selective duplication, checksums):
    /// ~20% compute overhead.
    Software,
    /// Dual modular redundancy: 2× compute (detection only).
    DualRedundancy,
    /// Triple modular redundancy: 3× compute (detection + correction).
    TripleRedundancy,
}

impl Hardening {
    /// All strategies in Fig. 16 order.
    pub const ALL: [Self; 4] = [
        Self::None,
        Self::Software,
        Self::DualRedundancy,
        Self::TripleRedundancy,
    ];

    /// Compute-overhead multiplier (≥ 1) on power-per-pixel.
    pub fn overhead_factor(self) -> f64 {
        match self {
            Self::None => 1.0,
            Self::Software => 1.2,
            Self::DualRedundancy => 2.0,
            Self::TripleRedundancy => 3.0,
        }
    }

    /// Effective pixels·s⁻¹·W⁻¹ after hardening, given the unhardened
    /// efficiency.
    pub fn derate_efficiency(self, kpixels_per_sec_per_watt: f64) -> f64 {
        kpixels_per_sec_per_watt / self.overhead_factor()
    }
}

impl std::fmt::Display for Hardening {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::None => "no hardening",
            Self::Software => "software hardening (20%)",
            Self::DualRedundancy => "2x redundancy",
            Self::TripleRedundancy => "3x redundancy",
        })
    }
}

/// Residual soft-error outcome model: probability that a radiation-induced
/// bit flip corrupts an application *result*, for a given strategy and the
/// workload's inherent ML resilience.
///
/// `raw_flip_rate` is upsets per inference; ML workloads mask most flips
/// (the paper cites dos Santos et al. on CNN reliability).
pub fn silent_error_rate(strategy: Hardening, app: Application, raw_flip_rate: f64) -> f64 {
    // Fraction of raw flips that would corrupt an unprotected result.
    let vulnerable = if app.is_deep_learning() { 0.1 } else { 0.4 };
    let unprotected = raw_flip_rate * vulnerable;
    match strategy {
        Hardening::None => unprotected,
        // Software hardening catches ~95% of consequential flips.
        Hardening::Software => unprotected * 0.05,
        // DMR detects (and recomputes) nearly everything; residual is
        // double-fault coincidence.
        Hardening::DualRedundancy => unprotected * unprotected,
        // TMR corrects single faults; residual is double-fault.
        Hardening::TripleRedundancy => 3.0 * unprotected * unprotected,
    }
}

/// Expected fraction of inferences a strategy *detects* as corrupted and
/// must recompute, per the same flip model as [`silent_error_rate`].
///
/// This drives the simulator's SEU compute-degradation: detected errors
/// cost a re-run, stretching mean service time by `1 + rate`. `None`
/// detects nothing; software hardening catches ~95% of consequential
/// flips; DMR detects essentially all of them (that is its whole
/// budget); TMR corrects by majority vote in-line, so no recompute.
pub fn detected_error_rate(strategy: Hardening, app: Application, raw_flip_rate: f64) -> f64 {
    let vulnerable = if app.is_deep_learning() { 0.1 } else { 0.4 };
    let unprotected = raw_flip_rate * vulnerable;
    match strategy {
        Hardening::None => 0.0,
        Hardening::Software => unprotected * 0.95,
        Hardening::DualRedundancy => unprotected,
        Hardening::TripleRedundancy => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_factors_match_paper() {
        assert_eq!(Hardening::None.overhead_factor(), 1.0);
        assert_eq!(Hardening::Software.overhead_factor(), 1.2);
        assert_eq!(Hardening::DualRedundancy.overhead_factor(), 2.0);
        assert_eq!(Hardening::TripleRedundancy.overhead_factor(), 3.0);
    }

    #[test]
    fn derating_divides_efficiency() {
        let eff = Hardening::TripleRedundancy.derate_efficiency(300.0);
        assert!((eff - 100.0).abs() < 1e-12);
    }

    #[test]
    fn stronger_strategies_have_lower_residual_error() {
        let raw = 1e-4;
        let app = Application::CropMonitoring;
        let none = silent_error_rate(Hardening::None, app, raw);
        let sw = silent_error_rate(Hardening::Software, app, raw);
        let tmr = silent_error_rate(Hardening::TripleRedundancy, app, raw);
        assert!(sw < none);
        assert!(tmr < sw);
    }

    #[test]
    fn ml_resilience_masks_most_flips() {
        let raw = 1e-3;
        let ml = silent_error_rate(Hardening::None, Application::OilSpill, raw);
        let dsp = silent_error_rate(Hardening::None, Application::TrafficMonitoring, raw);
        assert!(ml < dsp, "DNNs absorb flips better than exact DSP code");
    }

    #[test]
    fn detection_complements_silent_errors() {
        let raw = 1e-3;
        let app = Application::TrafficMonitoring;
        // No hardening: everything consequential slips through silently.
        assert_eq!(detected_error_rate(Hardening::None, app, raw), 0.0);
        // Detection + residual silent errors never exceed the unprotected
        // consequential-flip rate for detect-and-recompute strategies.
        let unprotected = raw * 0.4;
        for h in [Hardening::Software, Hardening::DualRedundancy] {
            let caught = detected_error_rate(h, app, raw);
            let slipped = silent_error_rate(h, app, raw);
            assert!(caught > 0.0, "{h} detects something");
            assert!(caught <= unprotected, "{h} cannot detect more than occurs");
            assert!(slipped < unprotected, "{h} must reduce silent errors");
        }
        // TMR votes errors away in-line: no recompute.
        assert_eq!(
            detected_error_rate(Hardening::TripleRedundancy, app, raw),
            0.0
        );
    }
}
