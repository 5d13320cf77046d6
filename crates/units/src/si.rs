//! Core SI quantities: length, area, time, mass, power, energy, frequency,
//! velocity.

use crate::fmt_si;
use crate::quantity::quantity;

quantity! {
    /// A length, stored in metres.
    ///
    /// ```
    /// use units::Length;
    /// let altitude = Length::from_km(550.0);
    /// assert_eq!(altitude.as_m(), 550_000.0);
    /// ```
    Length, base = "metres"
}

impl Length {
    /// Creates a length from metres.
    #[inline]
    pub const fn from_m(m: f64) -> Self {
        Self::from_base(m)
    }

    /// Creates a length from kilometres.
    #[inline]
    pub const fn from_km(km: f64) -> Self {
        Self::from_base(km * 1e3)
    }

    /// Creates a length from centimetres.
    #[inline]
    pub const fn from_cm(cm: f64) -> Self {
        Self::from_base(cm * 1e-2)
    }

    /// Length in metres.
    #[inline]
    pub const fn as_m(self) -> f64 {
        self.as_base()
    }

    /// Length in kilometres.
    #[inline]
    pub fn as_km(self) -> f64 {
        self.as_base() / 1e3
    }

    /// Length in centimetres.
    #[inline]
    pub fn as_cm(self) -> f64 {
        self.as_base() / 1e-2
    }

    /// Squares this length into an [`Area`].
    #[inline]
    pub fn squared(self) -> Area {
        Area::from_base(self.as_base() * self.as_base())
    }
}

impl std::fmt::Display for Length {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Lengths read naturally in km above 1000 m ("35786 km", never
        // "35.786 Mm"), so cap the SI prefix at kilo.
        let m = self.as_base();
        if m.abs() >= 1e3 {
            write!(f, "{} km", fmt_si::trim_float(m / 1e3))
        } else {
            f.write_str(&fmt_si::si(m, "m"))
        }
    }
}

quantity! {
    /// An area, stored in square metres.
    Area, base = "square metres"
}

impl Area {
    /// Creates an area from square metres.
    #[inline]
    pub const fn from_m2(m2: f64) -> Self {
        Self::from_base(m2)
    }

    /// Area in square metres.
    #[inline]
    pub const fn as_m2(self) -> f64 {
        self.as_base()
    }
}

impl std::fmt::Display for Area {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} m²", fmt_si::trim_float(self.as_m2()))
    }
}

/// `Area / Length = Length` (e.g. swath width from footprint).
impl std::ops::Div<Length> for Area {
    type Output = Length;
    #[inline]
    fn div(self, rhs: Length) -> Length {
        Length::from_base(self.as_base() / rhs.as_base())
    }
}

quantity! {
    /// A time span, stored in seconds.
    ///
    /// ```
    /// use units::Time;
    /// assert_eq!(Time::from_minutes(2.0).as_secs(), 120.0);
    /// ```
    Time, base = "seconds"
}

impl Time {
    /// Creates a time span from seconds.
    #[inline]
    pub const fn from_secs(s: f64) -> Self {
        Self::from_base(s)
    }

    /// Creates a time span from minutes.
    #[inline]
    pub const fn from_minutes(m: f64) -> Self {
        Self::from_base(m * 60.0)
    }

    /// Creates a time span from hours.
    #[inline]
    pub const fn from_hours(h: f64) -> Self {
        Self::from_base(h * 3600.0)
    }

    /// Creates a time span from days.
    #[inline]
    pub const fn from_days(d: f64) -> Self {
        Self::from_base(d * 86_400.0)
    }

    /// Creates a time span from years (Julian years of 365.25 days).
    #[inline]
    pub const fn from_years(y: f64) -> Self {
        Self::from_base(y * 365.25 * 86_400.0)
    }

    /// Time in seconds.
    #[inline]
    pub const fn as_secs(self) -> f64 {
        self.as_base()
    }

    /// Time in minutes.
    #[inline]
    pub fn as_minutes(self) -> f64 {
        self.as_base() / 60.0
    }

    /// Time in hours.
    #[inline]
    #[cfg(test)]
    pub fn as_hours(self) -> f64 {
        self.as_base() / 3600.0
    }

    /// Time in days.
    #[inline]
    pub fn as_days(self) -> f64 {
        self.as_base() / 86_400.0
    }

    /// Time in Julian years (365.25 days).
    #[inline]
    pub fn as_years(self) -> f64 {
        self.as_base() / (365.25 * 86_400.0)
    }
}

impl std::fmt::Display for Time {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&fmt_si::si(self.as_base(), "s"))
    }
}

quantity! {
    /// A mass, stored in kilograms.
    Mass, base = "kilograms"
}

impl Mass {
    /// Creates a mass from kilograms.
    #[inline]
    pub const fn from_kg(kg: f64) -> Self {
        Self::from_base(kg)
    }

    /// Mass in kilograms.
    #[inline]
    pub const fn as_kg(self) -> f64 {
        self.as_base()
    }
}

impl std::fmt::Display for Mass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} kg", fmt_si::trim_float(self.as_kg()))
    }
}

quantity! {
    /// Power, stored in watts.
    ///
    /// ```
    /// use units::Power;
    /// let sudc = Power::from_kilowatts(4.0);
    /// assert_eq!(sudc.to_string(), "4 kW");
    /// ```
    Power, base = "watts"
}

impl Power {
    /// Creates power from watts.
    #[inline]
    pub const fn from_watts(w: f64) -> Self {
        Self::from_base(w)
    }

    /// Creates power from kilowatts.
    #[inline]
    pub const fn from_kilowatts(kw: f64) -> Self {
        Self::from_base(kw * 1e3)
    }

    /// Power in watts.
    #[inline]
    pub const fn as_watts(self) -> f64 {
        self.as_base()
    }

    /// Power in kilowatts.
    #[inline]
    pub fn as_kilowatts(self) -> f64 {
        self.as_base() / 1e3
    }

    /// Power in decibel-watts (`10·log10(P/1W)`).
    ///
    /// Used by link-budget math in the `comms` crate.
    #[inline]
    #[cfg(test)]
    pub fn as_dbw(self) -> f64 {
        10.0 * self.as_base().log10()
    }

    /// Creates power from decibel-watts.
    #[inline]
    #[cfg(test)]
    pub fn from_dbw(dbw: f64) -> Self {
        Self::from_base(10f64.powf(dbw / 10.0))
    }
}

impl std::fmt::Display for Power {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&fmt_si::si(self.as_base(), "W"))
    }
}

quantity! {
    /// Energy, stored in joules.
    Energy, base = "joules"
}

impl Energy {
    /// Creates energy from joules.
    #[inline]
    pub const fn from_joules(j: f64) -> Self {
        Self::from_base(j)
    }

    /// Energy in joules.
    #[inline]
    pub const fn as_joules(self) -> f64 {
        self.as_base()
    }

    /// Energy in watt-hours.
    #[inline]
    pub fn as_watt_hours(self) -> f64 {
        self.as_base() / 3600.0
    }
}

impl std::fmt::Display for Energy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&fmt_si::si(self.as_base(), "J"))
    }
}

quantity! {
    /// Frequency, stored in hertz.
    Frequency, base = "hertz"
}

impl Frequency {
    /// Creates a frequency from hertz.
    #[inline]
    pub const fn from_hz(hz: f64) -> Self {
        Self::from_base(hz)
    }

    /// Creates a frequency from megahertz.
    #[inline]
    pub const fn from_mhz(mhz: f64) -> Self {
        Self::from_base(mhz * 1e6)
    }

    /// Creates a frequency from gigahertz.
    #[inline]
    pub const fn from_ghz(ghz: f64) -> Self {
        Self::from_base(ghz * 1e9)
    }

    /// Frequency in hertz.
    #[inline]
    pub const fn as_hz(self) -> f64 {
        self.as_base()
    }

    /// Wavelength of an electromagnetic wave at this frequency.
    #[inline]
    pub fn wavelength(self) -> Length {
        Length::from_m(crate::constants::SPEED_OF_LIGHT_M_PER_S / self.as_base())
    }
}

impl std::fmt::Display for Frequency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&fmt_si::si(self.as_base(), "Hz"))
    }
}

quantity! {
    /// Velocity, stored in metres per second.
    Velocity, base = "metres per second"
}

impl Velocity {
    /// Creates a velocity from metres per second.
    #[inline]
    pub const fn from_m_per_s(v: f64) -> Self {
        Self::from_base(v)
    }

    /// Creates a velocity from kilometres per second.
    #[inline]
    pub const fn from_km_per_s(v: f64) -> Self {
        Self::from_base(v * 1e3)
    }

    /// Velocity in metres per second.
    #[inline]
    pub const fn as_m_per_s(self) -> f64 {
        self.as_base()
    }

    /// Velocity in kilometres per second.
    #[inline]
    pub fn as_km_per_s(self) -> f64 {
        self.as_base() / 1e3
    }
}

impl std::fmt::Display for Velocity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&fmt_si::si(self.as_base(), "m/s"))
    }
}

// ---- cross-type arithmetic (the physics) ----

/// `Length / Time = Velocity`.
impl std::ops::Div<Time> for Length {
    type Output = Velocity;
    #[inline]
    fn div(self, rhs: Time) -> Velocity {
        Velocity::from_base(self.as_base() / rhs.as_base())
    }
}

/// `Velocity * Time = Length`.
impl std::ops::Mul<Time> for Velocity {
    type Output = Length;
    #[inline]
    fn mul(self, rhs: Time) -> Length {
        Length::from_base(self.as_base() * rhs.as_base())
    }
}

/// `Length / Velocity = Time`.
impl std::ops::Div<Velocity> for Length {
    type Output = Time;
    #[inline]
    fn div(self, rhs: Velocity) -> Time {
        Time::from_base(self.as_base() / rhs.as_base())
    }
}

/// `Power * Time = Energy`.
impl std::ops::Mul<Time> for Power {
    type Output = Energy;
    #[inline]
    fn mul(self, rhs: Time) -> Energy {
        Energy::from_base(self.as_base() * rhs.as_base())
    }
}

/// `Energy / Time = Power`.
impl std::ops::Div<Time> for Energy {
    type Output = Power;
    #[inline]
    fn div(self, rhs: Time) -> Power {
        Power::from_base(self.as_base() / rhs.as_base())
    }
}

/// `Energy / Power = Time`.
impl std::ops::Div<Power> for Energy {
    type Output = Time;
    #[inline]
    fn div(self, rhs: Power) -> Time {
        Time::from_base(self.as_base() / rhs.as_base())
    }
}

/// `Length * Length = Area`.
impl std::ops::Mul<Length> for Length {
    type Output = Area;
    #[inline]
    fn mul(self, rhs: Length) -> Area {
        Area::from_base(self.as_base() * rhs.as_base())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_conversions_round_trip() {
        let l = Length::from_km(550.0);
        assert_eq!(l.as_m(), 550_000.0);
        assert_eq!(l.as_km(), 550.0);
        assert_eq!(Length::from_cm(30.0).as_m(), 0.3);
    }

    #[test]
    fn time_conversions() {
        assert_eq!(Time::from_days(1.0).as_hours(), 24.0);
        assert_eq!(Time::from_hours(2.0).as_minutes(), 120.0);
        assert!((Time::from_years(1.0).as_days() - 365.25).abs() < 1e-9);
    }

    #[test]
    fn power_db_round_trip() {
        let p = Power::from_watts(2000.0);
        let db = p.as_dbw();
        assert!((Power::from_dbw(db).as_watts() - 2000.0).abs() < 1e-6);
        assert!((Power::from_watts(1.0).as_dbw()).abs() < 1e-12);
    }

    #[test]
    fn velocity_length_time_triangle() {
        let v = Velocity::from_km_per_s(7.8);
        let t = Time::from_secs(10.0);
        let d = v * t;
        assert!((d.as_km() - 78.0).abs() < 1e-9);
        assert!(((d / v).as_secs() - 10.0).abs() < 1e-9);
        assert!(((d / t).as_km_per_s() - 7.8).abs() < 1e-9);
    }

    #[test]
    fn area_from_length_square() {
        let a = Length::from_m(3.0) * Length::from_m(4.0);
        assert_eq!(a.as_m2(), 12.0);
        assert_eq!(Length::from_m(5.0).squared().as_m2(), 25.0);
        assert_eq!((a / Length::from_m(3.0)).as_m(), 4.0);
    }

    #[test]
    fn frequency_wavelength() {
        let f = Frequency::from_ghz(8.2); // X-band downlink
        let wl = f.wavelength();
        assert!(wl.as_cm() > 3.0 && wl.as_cm() < 4.0);
    }

    #[test]
    fn min_max_clamp_behave() {
        let a = Power::from_watts(5.0);
        let b = Power::from_watts(9.0);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert_eq!(
            Power::from_watts(20.0).clamp(a, b),
            b,
            "clamp should saturate at upper bound"
        );
    }

    #[test]
    fn sum_over_iterator() {
        let total: Power = (1..=4).map(|i| Power::from_watts(i as f64)).sum();
        assert_eq!(total.as_watts(), 10.0);
    }
}
