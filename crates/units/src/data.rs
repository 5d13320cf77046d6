//! Data quantities: sizes (bits) and rates (bits per second).
//!
//! The paper's central argument is a comparison between data *generation*
//! rates and downlink *capacity* rates, so these two types appear in nearly
//! every model in the workspace.

use crate::fmt_si;
use crate::quantity::quantity;
use crate::si::Time;

quantity! {
    /// An amount of data, stored in bits.
    ///
    /// ```
    /// use units::DataSize;
    /// let frame = DataSize::from_bytes(24e6);
    /// assert_eq!(frame.as_bits(), 24.0 * 8.0 * 1e6);
    /// ```
    DataSize, base = "bits"
}

impl DataSize {
    /// Creates a size from bits.
    #[inline]
    pub const fn from_bits(bits: f64) -> Self {
        Self::from_base(bits)
    }

    /// Creates a size from bytes (8 bits).
    #[inline]
    pub const fn from_bytes(bytes: f64) -> Self {
        Self::from_base(bytes * 8.0)
    }

    /// Creates a size from decimal gigabytes (10⁹ bytes).
    #[inline]
    pub const fn from_gigabytes(gb: f64) -> Self {
        Self::from_base(gb * 8e9)
    }

    /// Size in bits.
    #[inline]
    pub const fn as_bits(self) -> f64 {
        self.as_base()
    }

    /// Size in bytes.
    #[inline]
    pub fn as_bytes(self) -> f64 {
        self.as_base() / 8.0
    }

    /// Size in decimal megabytes.
    #[inline]
    pub fn as_megabytes(self) -> f64 {
        self.as_base() / 8e6
    }

    /// Size in decimal gigabytes.
    #[inline]
    #[cfg(test)]
    pub fn as_gigabytes(self) -> f64 {
        self.as_base() / 8e9
    }
}

impl std::fmt::Display for DataSize {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&fmt_si::si(self.as_base(), "bit"))
    }
}

quantity! {
    /// A data rate, stored in bits per second.
    ///
    /// ```
    /// use units::DataRate;
    /// let dove = DataRate::from_mbps(220.0); // Dove X-band downlink
    /// assert_eq!(dove.to_string(), "220 Mbit/s");
    /// ```
    DataRate, base = "bits per second"
}

impl DataRate {
    /// Creates a rate from bits per second.
    #[inline]
    pub const fn from_bps(bps: f64) -> Self {
        Self::from_base(bps)
    }

    /// Creates a rate from megabits per second.
    #[inline]
    pub const fn from_mbps(mbps: f64) -> Self {
        Self::from_base(mbps * 1e6)
    }

    /// Creates a rate from gigabits per second.
    #[inline]
    pub const fn from_gbps(gbps: f64) -> Self {
        Self::from_base(gbps * 1e9)
    }

    /// Creates a rate from terabits per second.
    #[inline]
    #[cfg(test)]
    pub const fn from_tbps(tbps: f64) -> Self {
        Self::from_base(tbps * 1e12)
    }

    /// Rate in bits per second.
    #[inline]
    pub const fn as_bps(self) -> f64 {
        self.as_base()
    }

    /// Rate in megabits per second.
    #[inline]
    pub fn as_mbps(self) -> f64 {
        self.as_base() / 1e6
    }

    /// Rate in gigabits per second.
    #[inline]
    pub fn as_gbps(self) -> f64 {
        self.as_base() / 1e9
    }

    /// Rate in terabits per second.
    #[inline]
    pub fn as_tbps(self) -> f64 {
        self.as_base() / 1e12
    }
}

impl std::fmt::Display for DataRate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&fmt_si::si(self.as_base(), "bit/s"))
    }
}

/// `DataSize / Time = DataRate`.
impl std::ops::Div<Time> for DataSize {
    type Output = DataRate;
    #[inline]
    fn div(self, rhs: Time) -> DataRate {
        DataRate::from_base(self.as_base() / rhs.as_base())
    }
}

/// `DataRate * Time = DataSize`.
impl std::ops::Mul<Time> for DataRate {
    type Output = DataSize;
    #[inline]
    fn mul(self, rhs: Time) -> DataSize {
        DataSize::from_base(self.as_base() * rhs.as_base())
    }
}

/// `DataSize / DataRate = Time` (transfer duration).
impl std::ops::Div<DataRate> for DataSize {
    type Output = Time;
    #[inline]
    fn div(self, rhs: DataRate) -> Time {
        Time::from_base(self.as_base() / rhs.as_base())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_bit_conversions() {
        let s = DataSize::from_bytes(1000.0);
        assert_eq!(s.as_bits(), 8000.0);
        assert_eq!(DataSize::from_gigabytes(2.0).as_megabytes(), 2000.0);
    }

    #[test]
    fn rate_size_time_triangle() {
        let rate = DataRate::from_mbps(220.0);
        let window = Time::from_minutes(10.0);
        let moved = rate * window;
        assert!((moved.as_gigabytes() - 16.5).abs() < 1e-9);
        assert!(((moved / rate).as_minutes() - 10.0).abs() < 1e-9);
        assert!(((moved / window).as_mbps() - 220.0).abs() < 1e-9);
    }

    #[test]
    fn downlink_of_4k_frame_duration() {
        // One 4K RGB frame over a Dove channel takes ~0.9 s, which is why a
        // 1.5 s frame period at 3 m is marginally downlinkable.
        let frame = DataSize::from_bytes(3840.0 * 2160.0 * 3.0);
        let t = frame / DataRate::from_mbps(220.0);
        assert!(t.as_secs() > 0.8 && t.as_secs() < 1.0, "got {t}");
    }

    #[test]
    fn display_uses_si_prefixes() {
        assert_eq!(DataRate::from_gbps(100.0).to_string(), "100 Gbit/s");
        assert_eq!(DataRate::from_tbps(2.5).to_string(), "2.5 Tbit/s");
        assert_eq!(DataSize::from_bits(1500.0).to_string(), "1.5 kbit");
    }
}
