//! Electrical power subsystem sizing: solar arrays, batteries, and the
//! LEO/GEO difference the paper leans on in Sec. 9.
//!
//! "SµDCs in LEO must support greater power generation than SµDCs in GEO
//! in order to support the same computational workload" — because LEO
//! spends ~1/3 of each orbit in eclipse, the arrays must both run the
//! load and recharge the batteries that carry it through shadow.

use orbit::circular::CircularOrbit;
use orbit::eclipse;
use units::{Angle, Energy, Mass, Power, Time};

/// Solar-array technology assumptions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrayTech {
    /// End-of-life specific power, W/kg.
    pub specific_power_w_per_kg: f64,
    /// Areal power density at 1 AU, W/m².
    pub areal_power_w_per_m2: f64,
}

impl ArrayTech {
    /// Modern triple-junction rigid panels.
    #[cfg(test)]
    pub fn triple_junction() -> Self {
        Self {
            specific_power_w_per_kg: 80.0,
            areal_power_w_per_m2: 300.0,
        }
    }

    /// Flexible blanket arrays (ROSA-class).
    pub fn flexible_blanket() -> Self {
        Self {
            specific_power_w_per_kg: 150.0,
            areal_power_w_per_m2: 250.0,
        }
    }
}

/// Battery technology assumptions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatteryTech {
    /// Specific energy, Wh/kg.
    pub specific_energy_wh_per_kg: f64,
    /// Maximum depth of discharge for the required cycle life. LEO
    /// batteries cycle ~5 500 times/year and are held to shallow DoD;
    /// GEO batteries see only ~90 eclipse cycles/year and can go deep.
    pub max_depth_of_discharge: f64,
    /// Round-trip efficiency.
    pub round_trip_efficiency: f64,
}

impl BatteryTech {
    /// Li-ion sized for LEO cycle life (~30 000 cycles over 5+ years).
    pub fn li_ion_leo() -> Self {
        Self {
            specific_energy_wh_per_kg: 150.0,
            max_depth_of_discharge: 0.25,
            round_trip_efficiency: 0.92,
        }
    }

    /// Li-ion sized for GEO eclipse seasons (few hundred deep cycles).
    pub fn li_ion_geo() -> Self {
        Self {
            specific_energy_wh_per_kg: 150.0,
            max_depth_of_discharge: 0.8,
            round_trip_efficiency: 0.92,
        }
    }
}

/// A sized electrical power subsystem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSubsystem {
    /// Continuous electrical load served.
    pub load: Power,
    /// Worst-case eclipse duration per orbit.
    pub eclipse: Time,
    /// Array power that must be generated while sunlit.
    pub array_power: Power,
    /// Battery energy actually drawn per eclipse.
    pub eclipse_energy: Energy,
    /// Installed battery capacity after DoD derating.
    pub battery_capacity: Energy,
    /// Array mass.
    pub array_mass: Mass,
    /// Battery mass.
    pub battery_mass: Mass,
}

impl PowerSubsystem {
    /// Total power-subsystem mass.
    #[cfg(test)]
    pub fn total_mass(&self) -> Mass {
        self.array_mass + self.battery_mass
    }
}

/// Sizes arrays and batteries for a continuous load in the given orbit,
/// using the worst single-orbit eclipse over a year for the plane normal.
///
/// # Panics
///
/// Panics if the orbit is permanently eclipsed (cannot happen physically).
pub fn size_for_orbit(
    load: Power,
    orbit: CircularOrbit,
    inclination: Angle,
    array: &ArrayTech,
    battery: &BatteryTech,
) -> PowerSubsystem {
    let normal = eclipse::orbit_normal(inclination, Angle::ZERO);
    let annual = eclipse::annual_eclipse(orbit, normal);
    let worst_fraction = annual.max_fraction;
    assert!(worst_fraction < 1.0, "orbit cannot be permanently eclipsed");

    let eclipse_t = orbit.period() * worst_fraction;
    let sun_t = orbit.period() - eclipse_t;

    // Energy drawn in eclipse, paid back (with losses) while sunlit.
    let eclipse_energy = load * eclipse_t;
    let recharge_power = if sun_t.as_secs() > 0.0 {
        Power::from_watts(
            eclipse_energy.as_joules() / battery.round_trip_efficiency / sun_t.as_secs(),
        )
    } else {
        Power::ZERO
    };
    let array_power = load + recharge_power;

    let battery_capacity =
        Energy::from_joules(eclipse_energy.as_joules() / battery.max_depth_of_discharge);

    PowerSubsystem {
        load,
        eclipse: eclipse_t,
        array_power,
        eclipse_energy,
        battery_capacity,
        array_mass: Mass::from_kg(array_power.as_watts() / array.specific_power_w_per_kg),
        battery_mass: Mass::from_kg(
            battery_capacity.as_watt_hours() / battery.specific_energy_wh_per_kg,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use units::Length;

    fn leo() -> CircularOrbit {
        CircularOrbit::from_altitude(Length::from_km(550.0))
    }

    #[test]
    fn leo_4kw_sudc_power_subsystem_is_plausible() {
        let eps = size_for_orbit(
            Power::from_kilowatts(5.0), // 4 kW compute + 1 kW bus
            leo(),
            Angle::from_degrees(53.0),
            &ArrayTech::flexible_blanket(),
            &BatteryTech::li_ion_leo(),
        );
        // Array must oversize by roughly 1.5–1.7× for eclipse recharge.
        let ratio = eps.array_power.as_watts() / 5_000.0;
        assert!((1.3..2.0).contains(&ratio), "array oversize {ratio}");
        // Mass: tens to a few hundred kg — launchable on a rideshare.
        let kg = eps.total_mass().as_kg();
        assert!((50.0..600.0).contains(&kg), "EPS mass {kg} kg");
    }

    #[test]
    fn geo_needs_less_array_for_the_same_load() {
        let load = Power::from_kilowatts(5.0);
        let leo_eps = size_for_orbit(
            load,
            leo(),
            Angle::from_degrees(53.0),
            &ArrayTech::triple_junction(),
            &BatteryTech::li_ion_leo(),
        );
        let geo_eps = size_for_orbit(
            load,
            CircularOrbit::geostationary(),
            Angle::ZERO,
            &ArrayTech::triple_junction(),
            &BatteryTech::li_ion_geo(),
        );
        assert!(
            geo_eps.array_power < leo_eps.array_power,
            "GEO array {} vs LEO {}",
            geo_eps.array_power,
            leo_eps.array_power
        );
    }

    #[test]
    fn geo_battery_is_lighter_despite_longer_eclipse() {
        // GEO eclipse can reach ~70 min (vs ~36 min LEO) but the deep DoD
        // allowed by the tiny cycle count wins on mass.
        let load = Power::from_kilowatts(5.0);
        let leo_eps = size_for_orbit(
            load,
            leo(),
            Angle::from_degrees(53.0),
            &ArrayTech::triple_junction(),
            &BatteryTech::li_ion_leo(),
        );
        let geo_eps = size_for_orbit(
            load,
            CircularOrbit::geostationary(),
            Angle::ZERO,
            &ArrayTech::triple_junction(),
            &BatteryTech::li_ion_geo(),
        );
        assert!(
            geo_eps.eclipse > leo_eps.eclipse,
            "GEO worst eclipse is longer"
        );
        assert!(
            geo_eps.battery_mass < leo_eps.battery_mass,
            "GEO battery {} kg vs LEO {} kg",
            geo_eps.battery_mass.as_kg(),
            leo_eps.battery_mass.as_kg()
        );
    }

    #[test]
    fn dawn_dusk_orbit_nearly_eliminates_battery() {
        // A dawn/dusk SSO plane keeps high beta all year: tiny worst-case
        // eclipse, so the battery shrinks dramatically.
        let load = Power::from_kilowatts(5.0);
        let inclined = size_for_orbit(
            load,
            leo(),
            Angle::from_degrees(53.0),
            &ArrayTech::triple_junction(),
            &BatteryTech::li_ion_leo(),
        );
        // Dawn/dusk: normal pointing at the sun — approximate with an
        // equatorial normal 90° from the orbit plane via inclination 90°
        // and RAAN aligned: here we check via eclipse fractions directly.
        let dd_normal = orbit::Vec3::new(1.0, 0.0, 0.0);
        let dd = eclipse::annual_eclipse(leo(), dd_normal);
        assert!(dd.max_fraction < inclined.eclipse.as_secs() / leo().period().as_secs());
    }

    #[test]
    fn battery_capacity_respects_dod() {
        let eps = size_for_orbit(
            Power::from_kilowatts(1.0),
            leo(),
            Angle::from_degrees(53.0),
            &ArrayTech::triple_junction(),
            &BatteryTech::li_ion_leo(),
        );
        let dod = eps.eclipse_energy.as_joules() / eps.battery_capacity.as_joules();
        assert!((dod - 0.25).abs() < 1e-9, "actual DoD {dod}");
    }
}
