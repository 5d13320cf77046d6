//! Antenna models: gain, aperture, and the power/size scaling of Fig. 7.
//!
//! The paper notes satellite designers can only raise RF channel capacity
//! by raising signal strength — more transmit power, or more antenna gain
//! (bigger aperture). Gain of an aperture antenna is
//! `G = η · (π·D/λ)²`; patch and helical antennas are modelled with
//! representative fixed gains.

use units::{Frequency, Length, Power};

/// Antenna archetypes used on smallsats and ground stations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Antenna {
    /// Microstrip patch: compact, low gain (~6 dBi), common on cubesats.
    Patch,
    /// Helical: medium gain (~12 dBi).
    Helical,
    /// Parabolic dish of the given diameter with the given aperture
    /// efficiency (0.55–0.70 typical).
    Parabolic {
        /// Dish diameter.
        diameter: Length,
        /// Aperture efficiency in `(0, 1]`.
        efficiency: f64,
    },
}

impl Antenna {
    /// A parabolic dish with typical 0.6 efficiency.
    pub fn dish(diameter: Length) -> Self {
        Self::Parabolic {
            diameter,
            efficiency: 0.6,
        }
    }

    /// Linear gain at the given carrier frequency.
    ///
    /// # Panics
    ///
    /// Panics if a parabolic antenna was constructed with a non-positive
    /// diameter or an efficiency outside `(0, 1]`.
    pub fn gain(&self, carrier: Frequency) -> f64 {
        match *self {
            Self::Patch => 4.0,    // ~6 dBi
            Self::Helical => 16.0, // ~12 dBi
            Self::Parabolic {
                diameter,
                efficiency,
            } => {
                assert!(diameter.as_m() > 0.0, "dish diameter must be positive");
                assert!(
                    efficiency > 0.0 && efficiency <= 1.0,
                    "aperture efficiency must be in (0, 1]"
                );
                let lambda = carrier.wavelength().as_m();
                efficiency * (std::f64::consts::PI * diameter.as_m() / lambda).powi(2)
            }
        }
    }

    /// Gain in dBi at the given carrier.
    #[cfg(test)]
    pub fn gain_dbi(&self, carrier: Frequency) -> f64 {
        10.0 * self.gain(carrier).log10()
    }

    /// Effective isotropic radiated power for a given transmit power.
    pub fn eirp(&self, tx_power: Power, carrier: Frequency) -> Power {
        tx_power * self.gain(carrier)
    }
}

impl std::fmt::Display for Antenna {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Patch => f.write_str("patch antenna"),
            Self::Helical => f.write_str("helical antenna"),
            Self::Parabolic { diameter, .. } => write!(f, "{diameter} parabolic dish"),
        }
    }
}

/// Dish diameter required to achieve a target linear gain at a carrier
/// frequency: inverse of the aperture-gain formula.
#[cfg(test)]
pub fn diameter_for_gain(gain: f64, carrier: Frequency, efficiency: f64) -> Length {
    let lambda = carrier.wavelength().as_m();
    Length::from_m(lambda / std::f64::consts::PI * (gain / efficiency).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xband() -> Frequency {
        Frequency::from_ghz(8.2)
    }

    #[test]
    fn dish_gain_grows_with_square_of_diameter() {
        let g1 = Antenna::dish(Length::from_m(1.0)).gain(xband());
        let g2 = Antenna::dish(Length::from_m(2.0)).gain(xband());
        assert!((g2 / g1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn one_meter_xband_dish_is_about_36_dbi() {
        let g = Antenna::dish(Length::from_m(1.0)).gain_dbi(xband());
        assert!(g > 34.0 && g < 38.0, "got {g} dBi");
    }

    #[test]
    fn patch_and_helical_fixed_gains() {
        assert!((Antenna::Patch.gain_dbi(xband()) - 6.02).abs() < 0.1);
        assert!((Antenna::Helical.gain_dbi(xband()) - 12.04).abs() < 0.1);
    }

    #[test]
    fn diameter_for_gain_inverts_gain() {
        let target = 1e4; // 40 dBi
        let d = diameter_for_gain(target, xband(), 0.6);
        let back = Antenna::Parabolic {
            diameter: d,
            efficiency: 0.6,
        }
        .gain(xband());
        assert!((back - target).abs() / target < 1e-9);
    }

    #[test]
    fn eirp_multiplies_gain() {
        let a = Antenna::dish(Length::from_m(1.0));
        let e = a.eirp(Power::from_watts(10.0), xband());
        assert!((e.as_watts() / 10.0 - a.gain(xband())).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "efficiency")]
    fn invalid_efficiency_panics() {
        let _ = Antenna::Parabolic {
            diameter: Length::from_m(1.0),
            efficiency: 1.5,
        }
        .gain(xband());
    }
}
