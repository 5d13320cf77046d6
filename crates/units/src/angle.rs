//! Angles, stored in radians, with degree and revolution helpers plus
//! normalisation utilities used by the orbital-mechanics crate.

use crate::quantity::quantity;

quantity! {
    /// An angle, stored in radians.
    ///
    /// ```
    /// use units::Angle;
    /// let a = Angle::from_degrees(180.0);
    /// assert!((a.as_radians() - std::f64::consts::PI).abs() < 1e-12);
    /// ```
    Angle, base = "radians"
}

impl Angle {
    /// A full revolution (2π).
    #[cfg(test)]
    pub const FULL_TURN: Self = Self::from_base(std::f64::consts::TAU);

    /// Creates an angle from radians.
    #[inline]
    pub const fn from_radians(rad: f64) -> Self {
        Self::from_base(rad)
    }

    /// Creates an angle from degrees.
    #[inline]
    pub fn from_degrees(deg: f64) -> Self {
        Self::from_base(deg.to_radians())
    }

    /// Creates an angle from whole revolutions.
    #[inline]
    pub const fn from_revolutions(rev: f64) -> Self {
        Self::from_base(rev * std::f64::consts::TAU)
    }

    /// Angle in radians.
    #[inline]
    pub const fn as_radians(self) -> f64 {
        self.as_base()
    }

    /// Angle in degrees.
    #[inline]
    pub fn as_degrees(self) -> f64 {
        self.as_base().to_degrees()
    }

    /// Normalises into `[0, 2π)`.
    #[inline]
    pub fn normalized(self) -> Self {
        let tau = std::f64::consts::TAU;
        let mut v = self.as_base() % tau;
        if v < 0.0 {
            v += tau;
        }
        Self::from_base(v)
    }

    /// Normalises into `(-π, π]`.
    #[inline]
    pub fn normalized_signed(self) -> Self {
        let pi = std::f64::consts::PI;
        let v = self.normalized().as_base();
        if v > pi {
            Self::from_base(v - std::f64::consts::TAU)
        } else {
            Self::from_base(v)
        }
    }

    /// Sine of the angle.
    #[inline]
    pub fn sin(self) -> f64 {
        self.as_base().sin()
    }

    /// Cosine of the angle.
    #[inline]
    pub fn cos(self) -> f64 {
        self.as_base().cos()
    }
}

impl std::fmt::Display for Angle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}°", crate::fmt_si::trim_float(self.as_degrees()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degree_radian_round_trip() {
        let a = Angle::from_degrees(120.0);
        assert!((a.as_degrees() - 120.0).abs() < 1e-12);
    }

    #[test]
    fn normalization_wraps_into_range() {
        let a = Angle::from_degrees(370.0).normalized();
        assert!((a.as_degrees() - 10.0).abs() < 1e-9);
        let b = Angle::from_degrees(-30.0).normalized();
        assert!((b.as_degrees() - 330.0).abs() < 1e-9);
    }

    #[test]
    fn signed_normalization() {
        let a = Angle::from_degrees(350.0).normalized_signed();
        assert!((a.as_degrees() + 10.0).abs() < 1e-9);
        let b = Angle::from_degrees(180.0).normalized_signed();
        assert!((b.as_degrees() - 180.0).abs() < 1e-9);
    }

    #[test]
    fn full_turn_constant() {
        assert!((Angle::FULL_TURN.as_degrees() - 360.0).abs() < 1e-9);
    }
}
