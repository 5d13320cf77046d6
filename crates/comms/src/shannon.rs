//! Shannon–Hartley channel capacity and the bandwidth-limited-regime
//! analysis of Sec. 4.
//!
//! `C = B · log2(1 + SNR)`. The paper observes that satellite downlinks sit
//! deep in the *bandwidth-limited* regime (SNR ≫ 1), where capacity grows
//! linearly with bandwidth but only logarithmically with SNR — so, with
//! spectrum fixed by regulators, exponential SNR (power/aperture) growth is
//! needed for linear capacity growth. These functions make that argument
//! quantitative for Fig. 7.

use units::{DataRate, Frequency};

/// Shannon capacity of an AWGN channel with bandwidth `b` and linear
/// signal-to-noise ratio `snr`.
///
/// # Panics
///
/// Panics if `snr` is negative.
pub fn capacity(b: Frequency, snr: f64) -> DataRate {
    assert!(snr >= 0.0, "SNR must be non-negative");
    DataRate::from_bps(b.as_hz() * (1.0 + snr).log2())
}

/// SNR multiplier needed to scale capacity by `factor` at fixed bandwidth,
/// starting from linear SNR `snr`. Shows the exponential blow-up: doubling
/// a bandwidth-limited link's capacity roughly squares its required SNR.
pub fn snr_multiplier_for_capacity_factor(snr: f64, factor: f64) -> f64 {
    let new_snr = (1.0 + snr).powf(factor) - 1.0;
    new_snr / snr
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::prop;

    #[test]
    fn dove_channel_capacity_matches_deployment() {
        // 96 MHz at SNR 19 → Shannon bound ≈ 415 Mbit/s; Dove's deployed
        // 220 Mbit/s runs at ~53% of the bound, a plausible coding margin.
        let c = capacity(Frequency::from_mhz(96.0), 19.0);
        assert!((c.as_mbps() - 414.9).abs() < 1.0, "got {}", c.as_mbps());
        let efficiency = 220e6 / c.as_bps();
        assert!(efficiency > 0.4 && efficiency < 0.7);
    }

    #[test]
    fn zero_snr_means_zero_capacity() {
        assert_eq!(capacity(Frequency::from_mhz(100.0), 0.0).as_bps(), 0.0);
    }

    #[test]
    #[should_panic(expected = "SNR must be non-negative")]
    fn negative_snr_panics() {
        let _ = capacity(Frequency::from_mhz(1.0), -0.5);
    }

    #[test]
    fn doubling_capacity_in_bw_limited_regime_squares_snr() {
        let snr = 19.0;
        let mult = snr_multiplier_for_capacity_factor(snr, 2.0);
        // (1+19)^2 - 1 = 399 → 21× the SNR for 2× the capacity.
        assert!((mult - 399.0 / 19.0).abs() < 1e-9);
        assert!(mult > 20.0);
    }

    #[test]
    fn capacity_monotone_in_both_arguments() {
        prop::check("capacity_monotone_in_both_arguments", 256, |g| {
            let b1 = g.draw(1e6f64..1e9);
            let snr = g.draw(0.1f64..1e4);
            let db = g.draw(1.0f64..1e6);
            let dsnr = g.draw(0.01f64..10.0);

            let c0 = capacity(Frequency::from_hz(b1), snr);
            let c1 = capacity(Frequency::from_hz(b1 + db), snr);
            let c2 = capacity(Frequency::from_hz(b1), snr + dsnr);
            assert!(c1 > c0);
            assert!(c2 > c0);
        });
    }
}
