//! Thermal control for SµDCs (Sec. 9).
//!
//! "A SµDC will produce large amounts of heat waste. As such, dissipation
//! of heat is an important SµDC design consideration." In vacuum the only
//! rejection path is radiation, so the governing law is Stefan–Boltzmann:
//! `Q = ε·σ·A·(T⁴ − T_env⁴)`. This module sizes radiators, computes
//! equilibrium temperatures, and models the thermoelectric-recovery idea
//! the paper cites.

use units::{Area, Power};

/// Stefan–Boltzmann constant, W·m⁻²·K⁻⁴.
pub const STEFAN_BOLTZMANN: f64 = 5.670_374_419e-8;

/// Effective sink temperature seen by a LEO radiator (deep space plus
/// Earth IR and albedo loading), kelvin.
pub const LEO_SINK_TEMP_K: f64 = 255.0;

/// Effective sink temperature in GEO (mostly deep space), kelvin.
pub const GEO_SINK_TEMP_K: f64 = 190.0;

/// A radiator panel design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Radiator {
    /// Radiating area (both faces if double-sided).
    pub area: Area,
    /// Surface emissivity in `(0, 1]` (white paint / OSR ≈ 0.85–0.92).
    pub emissivity: f64,
    /// Effective sink temperature, kelvin.
    pub sink_temp_k: f64,
}

impl Radiator {
    /// A LEO radiator with optical solar reflector coating.
    pub fn leo(area: Area) -> Self {
        Self {
            area,
            emissivity: 0.88,
            sink_temp_k: LEO_SINK_TEMP_K,
        }
    }

    /// A GEO radiator (colder sink: less Earth IR).
    #[cfg(test)]
    pub fn geo(area: Area) -> Self {
        Self {
            area,
            emissivity: 0.88,
            sink_temp_k: GEO_SINK_TEMP_K,
        }
    }

    /// Heat rejected when the radiator surface runs at `surface_temp_k`.
    ///
    /// # Panics
    ///
    /// Panics if emissivity is outside `(0, 1]`.
    #[cfg(test)]
    pub fn rejected_power(&self, surface_temp_k: f64) -> Power {
        assert!(
            self.emissivity > 0.0 && self.emissivity <= 1.0,
            "emissivity must be in (0, 1]"
        );
        let t4 = surface_temp_k.powi(4) - self.sink_temp_k.powi(4);
        Power::from_watts(self.emissivity * STEFAN_BOLTZMANN * self.area.as_m2() * t4.max(0.0))
    }

    /// Equilibrium surface temperature when rejecting `load` of waste
    /// heat: inverse of [`Radiator::rejected_power`].
    pub fn equilibrium_temp_k(&self, load: Power) -> f64 {
        let t4 = load.as_watts() / (self.emissivity * STEFAN_BOLTZMANN * self.area.as_m2())
            + self.sink_temp_k.powi(4);
        t4.powf(0.25)
    }
}

/// Radiator area required to reject `load` at a maximum allowed surface
/// temperature (electronics typically cap coolant-loop radiators near
/// 320–340 K).
pub fn required_area(load: Power, surface_temp_k: f64, sink_temp_k: f64, emissivity: f64) -> Area {
    let per_m2 =
        emissivity * STEFAN_BOLTZMANN * (surface_temp_k.powi(4) - sink_temp_k.powi(4)).max(1e-9);
    Area::from_m2(load.as_watts() / per_m2)
}

/// Thermoelectric waste-heat recovery (the paper cites looped-heat-pipe +
/// TEG datacenter designs): electrical power recovered from a heat flow
/// across a temperature gradient at a fraction of Carnot efficiency.
pub fn teg_recovered(load: Power, hot_k: f64, cold_k: f64, fraction_of_carnot: f64) -> Power {
    if hot_k <= cold_k {
        return Power::ZERO;
    }
    let carnot = 1.0 - cold_k / hot_k;
    load * (carnot * fraction_of_carnot.clamp(0.0, 1.0))
}

/// A complete SµDC thermal design summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalDesign {
    /// Waste-heat load (≈ the full electrical load at steady state).
    pub load: Power,
    /// Radiator sized for the load.
    pub radiator_area: Area,
    /// Operating surface temperature, kelvin.
    pub surface_temp_k: f64,
    /// Power recovered by TEGs (if fitted).
    pub teg_recovery: Power,
}

/// Sizes the thermal subsystem for a SµDC electrical load in LEO at a
/// 330 K radiator with 3% of-Carnot TEG recovery.
pub fn design_leo(load: Power) -> ThermalDesign {
    let surface = 330.0;
    let area = required_area(load, surface, LEO_SINK_TEMP_K, 0.88);
    ThermalDesign {
        load,
        radiator_area: area,
        surface_temp_k: surface,
        teg_recovery: teg_recovered(load, surface, LEO_SINK_TEMP_K, 0.03),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejection_and_equilibrium_are_inverse() {
        let r = Radiator::leo(Area::from_m2(10.0));
        let load = Power::from_kilowatts(4.0);
        let t = r.equilibrium_temp_k(load);
        let back = r.rejected_power(t);
        assert!((back.as_watts() - 4_000.0).abs() < 1e-6, "got {back}");
    }

    #[test]
    fn a_4kw_sudc_needs_single_digit_square_metres() {
        // Sanity: a 19-inch-rack SµDC's radiator is a deployable panel,
        // not a football field.
        let d = design_leo(Power::from_kilowatts(4.0));
        assert!(
            d.radiator_area.as_m2() > 2.0 && d.radiator_area.as_m2() < 20.0,
            "got {} m²",
            d.radiator_area.as_m2()
        );
    }

    #[test]
    fn a_256kw_station_needs_large_radiators() {
        let d = design_leo(Power::from_kilowatts(256.0));
        // The ISS rejects ~70 kW with ~156 m² of active radiators; 256 kW
        // needs hundreds of m² — the paper's "Space Station class" SµDCs
        // carry station-scale thermal systems.
        assert!(
            d.radiator_area.as_m2() > 200.0,
            "got {}",
            d.radiator_area.as_m2()
        );
    }

    #[test]
    fn geo_radiators_are_smaller_for_the_same_load() {
        let load = Power::from_kilowatts(4.0);
        let leo = required_area(load, 330.0, LEO_SINK_TEMP_K, 0.88);
        let geo = required_area(load, 330.0, GEO_SINK_TEMP_K, 0.88);
        assert!(geo.as_m2() < leo.as_m2(), "colder sink → smaller radiator");
    }

    #[test]
    fn hotter_radiators_shrink() {
        let load = Power::from_kilowatts(4.0);
        let cool = required_area(load, 310.0, LEO_SINK_TEMP_K, 0.88);
        let hot = required_area(load, 350.0, LEO_SINK_TEMP_K, 0.88);
        assert!(hot.as_m2() < cool.as_m2());
    }

    #[test]
    fn teg_recovery_is_small_but_positive() {
        let rec = teg_recovered(Power::from_kilowatts(4.0), 330.0, 255.0, 0.03);
        assert!(rec.as_watts() > 5.0 && rec.as_watts() < 100.0, "got {rec}");
        assert_eq!(
            teg_recovered(Power::from_kilowatts(4.0), 250.0, 255.0, 0.03),
            Power::ZERO
        );
    }

    #[test]
    fn zero_load_zero_area() {
        let a = required_area(Power::ZERO, 330.0, LEO_SINK_TEMP_K, 0.88);
        assert_eq!(a.as_m2(), 0.0);
    }
}
