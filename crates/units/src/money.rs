//! Money, stored in US dollars.
//!
//! The paper quantifies downlink economics ("$3 per minute per channel",
//! "millions of dollars per minute"), so cost is a first-class quantity.

use crate::quantity::quantity;

quantity! {
    /// A monetary amount in US dollars.
    ///
    /// ```
    /// use units::Money;
    /// let per_min = Money::from_usd(3.0);
    /// assert_eq!((per_min * 60.0).as_usd(), 180.0);
    /// ```
    Money, base = "US dollars"
}

impl Money {
    /// Creates an amount from US dollars.
    #[inline]
    pub const fn from_usd(usd: f64) -> Self {
        Self::from_base(usd)
    }

    /// Creates an amount from millions of US dollars.
    #[inline]
    #[cfg(test)]
    pub const fn from_millions_usd(m: f64) -> Self {
        Self::from_base(m * 1e6)
    }

    /// Amount in US dollars.
    #[inline]
    pub const fn as_usd(self) -> f64 {
        self.as_base()
    }

    /// Amount in millions of US dollars.
    #[inline]
    pub fn as_millions_usd(self) -> f64 {
        self.as_base() / 1e6
    }
}

impl std::fmt::Display for Money {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let v = self.as_usd();
        if v.abs() >= 1e6 {
            write!(f, "${}M", crate::fmt_si::trim_float(v / 1e6))
        } else if v.abs() >= 1e3 {
            write!(f, "${}k", crate::fmt_si::trim_float(v / 1e3))
        } else {
            write!(f, "${}", crate::fmt_si::trim_float(v))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_and_display() {
        let c = Money::from_usd(3.0) * 1500.0;
        assert_eq!(c.to_string(), "$4.5k");
        assert_eq!(Money::from_millions_usd(2.0).to_string(), "$2M");
        assert_eq!(Money::from_usd(42.5).to_string(), "$42.5");
    }

    #[test]
    fn millions_round_trip() {
        assert_eq!(Money::from_millions_usd(1.5).as_usd(), 1_500_000.0);
        assert_eq!(Money::from_usd(250_000.0).as_millions_usd(), 0.25);
    }
}
