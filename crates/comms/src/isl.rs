//! Inter-satellite link capacity classes.
//!
//! Table 8 and Fig. 11 sweep ISL capacity across 1, 10, and 100 Gbit/s —
//! spanning RF crosslinks (low end) through current and next-generation
//! optical terminals. [`IslClass`] names those sweep points.

use units::DataRate;

/// The ISL capacity classes swept by the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IslClass {
    /// 1 Gbit/s — high-end RF or entry optical crosslink.
    Gbps1,
    /// 10 Gbit/s — current LEO optical terminals.
    Gbps10,
    /// 100 Gbit/s — WDM optical terminals.
    Gbps100,
}

impl IslClass {
    /// All classes, in the order the paper's tables present them.
    pub const ALL: [Self; 3] = [Self::Gbps1, Self::Gbps10, Self::Gbps100];

    /// Link capacity of this class.
    pub fn capacity(self) -> DataRate {
        match self {
            Self::Gbps1 => DataRate::from_gbps(1.0),
            Self::Gbps10 => DataRate::from_gbps(10.0),
            Self::Gbps100 => DataRate::from_gbps(100.0),
        }
    }
}

impl std::fmt::Display for IslClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_capacities() {
        assert_eq!(IslClass::Gbps1.capacity().as_gbps(), 1.0);
        assert_eq!(IslClass::Gbps10.capacity().as_gbps(), 10.0);
        assert_eq!(IslClass::Gbps100.capacity().as_gbps(), 100.0);
    }
}
