//! RF link budgets: free-space path loss, thermal noise, SNR, and the
//! Dove-calibrated downlink used as the paper's unit of downlink capacity.
//!
//! Fig. 4b and Fig. 5 measure everything in "Dove-like 220 Mbit/s
//! channels"; Fig. 7 scales antenna power and size. Both come out of the
//! budget model here.

use units::constants::BOLTZMANN_J_PER_K;
use units::{DataRate, Frequency, Length, Power};

use crate::antenna::Antenna;
use crate::shannon;

/// Free-space path loss `(4πd/λ)²` as a linear power ratio (≥ 1).
pub fn free_space_path_loss(distance: Length, carrier: Frequency) -> f64 {
    let lambda = carrier.wavelength().as_m();
    (4.0 * std::f64::consts::PI * distance.as_m() / lambda).powi(2)
}

/// Thermal noise power `k·T·B` over a bandwidth at a system noise
/// temperature.
pub fn noise_power(system_temp_k: f64, bandwidth: Frequency) -> Power {
    Power::from_watts(BOLTZMANN_J_PER_K * system_temp_k * bandwidth.as_hz())
}

/// A complete satellite→ground RF downlink budget.
///
/// ```
/// use comms::DownlinkBudget;
///
/// let dove = DownlinkBudget::dove_baseline();
/// let snr = dove.snr();
/// assert!(snr > 15.0 && snr < 25.0); // paper quotes SNR ≈ 19
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DownlinkBudget {
    /// Transmit power fed to the spacecraft antenna.
    pub tx_power: Power,
    /// Spacecraft transmit antenna.
    pub tx_antenna: Antenna,
    /// Ground-station receive antenna.
    pub rx_antenna: Antenna,
    /// Carrier frequency.
    pub carrier: Frequency,
    /// Channel bandwidth.
    pub bandwidth: Frequency,
    /// Slant range.
    pub range: Length,
    /// Receive-system noise temperature, kelvin.
    pub system_temp_k: f64,
    /// Fraction of the Shannon bound a real modem achieves (coding and
    /// implementation margin), in `(0, 1]`.
    pub modem_efficiency: f64,
    /// Miscellaneous losses (pointing, atmosphere, polarisation) as a
    /// linear power ratio ≥ 1.
    pub misc_loss: f64,
}

impl DownlinkBudget {
    /// The Dove X-band downlink baseline from the paper: 96 MHz channel,
    /// SNR ≈ 19 (linear), deployed at 220 Mbit/s. Parameters chosen to
    /// reproduce those figures through the physics rather than assert
    /// them.
    pub fn dove_baseline() -> Self {
        Self {
            tx_power: Power::from_watts(1.25),
            tx_antenna: Antenna::Patch,
            rx_antenna: Antenna::dish(Length::from_m(4.5)),
            carrier: Frequency::from_ghz(8.2),
            bandwidth: Frequency::from_mhz(96.0),
            range: Length::from_km(1_000.0),
            system_temp_k: 150.0,
            modem_efficiency: 0.53,
            misc_loss: 1.0,
        }
    }

    /// Received signal power at the ground station.
    pub fn received_power(&self) -> Power {
        let eirp = self.tx_antenna.eirp(self.tx_power, self.carrier);
        let rx_gain = self.rx_antenna.gain(self.carrier);
        let fspl = free_space_path_loss(self.range, self.carrier);
        eirp * rx_gain / (fspl * self.misc_loss)
    }

    /// Linear SNR at the receiver.
    pub fn snr(&self) -> f64 {
        self.received_power()
            .ratio(noise_power(self.system_temp_k, self.bandwidth))
    }

    /// Shannon capacity of this link.
    pub fn shannon_capacity(&self) -> DataRate {
        shannon::capacity(self.bandwidth, self.snr())
    }

    /// Deployed (modem-limited) data rate.
    pub fn achieved_rate(&self) -> DataRate {
        self.shannon_capacity() * self.modem_efficiency
    }

    /// Returns a copy with scaled transmit power (Fig. 7 x-axis sweep).
    pub fn with_tx_power(mut self, tx_power: Power) -> Self {
        self.tx_power = tx_power;
        self
    }

    /// Returns a copy with a parabolic transmit dish of the given
    /// diameter (Fig. 7 antenna-size sweep).
    pub fn with_tx_dish(mut self, diameter: Length) -> Self {
        self.tx_antenna = Antenna::dish(diameter);
        self
    }

    /// Returns a copy at a different slant range.
    #[cfg(test)]
    pub fn with_range(mut self, range: Length) -> Self {
        self.range = range;
        self
    }
}

impl std::fmt::Display for DownlinkBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} via {} over {} ({} channel): {}",
            self.tx_power,
            self.tx_antenna,
            self.range,
            self.bandwidth,
            self.achieved_rate()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fspl_grows_with_square_of_distance() {
        let f = Frequency::from_ghz(8.2);
        let l1 = free_space_path_loss(Length::from_km(500.0), f);
        let l2 = free_space_path_loss(Length::from_km(1000.0), f);
        assert!((l2 / l1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn fspl_at_1000km_xband_about_170_db() {
        let l = free_space_path_loss(Length::from_km(1000.0), Frequency::from_ghz(8.2));
        let db = 10.0 * l.log10();
        assert!(db > 169.0 && db < 172.0, "got {db} dB");
    }

    #[test]
    fn noise_floor_matches_ktb() {
        let n = noise_power(150.0, Frequency::from_mhz(96.0));
        assert!((n.as_watts() - 1.988e-13).abs() / 1.988e-13 < 0.01);
    }

    #[test]
    fn dove_baseline_reproduces_paper_snr_and_rate() {
        let dove = DownlinkBudget::dove_baseline();
        let snr = dove.snr();
        assert!(snr > 15.0 && snr < 25.0, "SNR {snr}, paper says ≈19");
        let rate = dove.achieved_rate();
        assert!(
            rate.as_mbps() > 190.0 && rate.as_mbps() < 250.0,
            "rate {}, deployed Dove is 220 Mbit/s",
            rate.as_mbps()
        );
    }

    #[test]
    fn capacity_gain_from_power_is_logarithmic() {
        // Bandwidth-limited regime: 10× the power gives far less than 10×
        // the capacity — the crux of the Sec. 4 antenna-scaling argument.
        let dove = DownlinkBudget::dove_baseline();
        let base = dove.achieved_rate().as_bps();
        let boosted = dove
            .with_tx_power(Power::from_watts(12.5))
            .achieved_rate()
            .as_bps();
        let gain = boosted / base;
        assert!(
            gain > 1.2 && gain < 2.2,
            "10× power → only {gain}× capacity"
        );
    }

    #[test]
    fn capacity_gain_from_dish_is_also_logarithmic() {
        let dove = DownlinkBudget::dove_baseline();
        let base = dove.achieved_rate().as_bps();
        // Replace the patch with a 1 m dish: gain jumps ~30 dB...
        let dish = dove
            .with_tx_dish(Length::from_m(1.0))
            .achieved_rate()
            .as_bps();
        // ...but capacity grows far less than the power ratio.
        let gain = dish / base;
        assert!(gain > 2.0 && gain < 15.0, "got {gain}×");
    }

    #[test]
    fn longer_range_degrades_rate() {
        let dove = DownlinkBudget::dove_baseline();
        let near = dove.with_range(Length::from_km(600.0)).achieved_rate();
        let far = dove.with_range(Length::from_km(2_000.0)).achieved_rate();
        assert!(near > far);
    }

    #[test]
    fn misc_loss_reduces_received_power_proportionally() {
        let mut dove = DownlinkBudget::dove_baseline();
        let p0 = dove.received_power().as_watts();
        dove.misc_loss = 2.0;
        assert!((dove.received_power().as_watts() * 2.0 - p0).abs() / p0 < 1e-12);
    }
}
