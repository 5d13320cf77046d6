//! Ground-Station-as-a-Service network model (Table 2) and downlink
//! economics.
//!
//! The paper's Sec. 3 argument is that Earth's ground-segment capacity —
//! station count, antenna count, and S/X-band spectrum — is orders of
//! magnitude short of high-resolution EO needs, and that at ~$3 per
//! minute per channel the economics are prohibitive anyway. This module
//! embeds the Table 2 survey and provides the aggregate-capacity and cost
//! queries the experiments use.

use units::{DataRate, Money, Time};

/// Continental regions used in Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// North America.
    NorthAmerica,
    /// South America.
    SouthAmerica,
    /// Africa.
    Africa,
    /// Europe, Middle East, and North Africa.
    EuropeMena,
    /// Asia-Pacific.
    AsiaPacific,
    /// Antarctica.
    Antarctica,
}

impl Region {
    /// All regions in Table 2 column order.
    pub const ALL: [Self; 6] = [
        Self::NorthAmerica,
        Self::SouthAmerica,
        Self::Africa,
        Self::EuropeMena,
        Self::AsiaPacific,
        Self::Antarctica,
    ];
}

impl std::fmt::Display for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Self::NorthAmerica => "N. America",
            Self::SouthAmerica => "S. America",
            Self::Africa => "Africa",
            Self::EuropeMena => "Europe/MENA",
            Self::AsiaPacific => "Asia/Pacific",
            Self::Antarctica => "Antarctica",
        };
        f.write_str(s)
    }
}

/// One GSaaS provider's station counts by region (a row of Table 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GsaasProvider {
    /// Provider name as listed in the paper.
    pub name: &'static str,
    /// Station counts in [`Region::ALL`] order.
    pub stations: [u32; 6],
}

impl GsaasProvider {
    /// Total stations across all regions.
    pub fn total(&self) -> u32 {
        self.stations.iter().sum()
    }

    /// Stations in a region.
    #[cfg(test)]
    pub fn in_region(&self, region: Region) -> u32 {
        Region::ALL
            .iter()
            .zip(self.stations)
            .find(|(r, _)| **r == region)
            .map_or(0, |(_, count)| count)
    }
}

/// The Table 2 dataset: commercial GSaaS providers and their ground
/// stations as surveyed by the paper.
pub fn table2_providers() -> Vec<GsaasProvider> {
    vec![
        GsaasProvider {
            name: "AWS Ground Station",
            stations: [2, 1, 1, 3, 4, 0],
        },
        GsaasProvider {
            name: "Azure Ground Stations",
            stations: [4, 1, 3, 6, 5, 0],
        },
        GsaasProvider {
            name: "KSat Ground Network Services",
            stations: [4, 2, 4, 9, 6, 1],
        },
        GsaasProvider {
            name: "Viasat Real-Time Earth",
            stations: [4, 1, 2, 4, 3, 0],
        },
        GsaasProvider {
            name: "US Electrondynamics Inc",
            stations: [2, 0, 0, 0, 0, 0],
        },
        GsaasProvider {
            name: "Swedish Space Corporation",
            stations: [3, 2, 0, 2, 3, 0],
        },
        GsaasProvider {
            name: "Atlas Space Operations",
            stations: [4, 0, 1, 3, 5, 0],
        },
        GsaasProvider {
            name: "Leaf Space",
            stations: [1, 0, 1, 8, 4, 0],
        },
        GsaasProvider {
            name: "RBC Signals",
            stations: [12, 2, 3, 18, 16, 0],
        },
    ]
}

/// An aggregate model of Earth's commercial ground-station network.
#[derive(Debug, Clone, PartialEq)]
pub struct GroundStationNetwork {
    providers: Vec<GsaasProvider>,
    /// Average simultaneous channels (antennas) per station. KSat's 26
    /// stations host 270 antennas → ~10 antennas/station is
    /// representative.
    pub channels_per_station: f64,
    /// Price per channel-minute (the paper quotes $3/min for AWS, Azure,
    /// and KSat).
    pub price_per_channel_minute: Money,
    /// Per-channel data rate (Dove-like 220 Mbit/s baseline).
    pub channel_rate: DataRate,
}

impl Default for GroundStationNetwork {
    fn default() -> Self {
        Self::paper_2023()
    }
}

impl GroundStationNetwork {
    /// The 2023 network surveyed in Table 2 with the paper's pricing.
    pub fn paper_2023() -> Self {
        Self {
            providers: table2_providers(),
            channels_per_station: 10.0,
            price_per_channel_minute: Money::from_usd(3.0),
            channel_rate: DataRate::from_mbps(220.0),
        }
    }

    /// The providers in this network.
    pub fn providers(&self) -> &[GsaasProvider] {
        &self.providers
    }

    /// Total ground stations.
    pub fn total_stations(&self) -> u32 {
        self.providers.iter().map(GsaasProvider::total).sum()
    }

    /// Stations per region, in [`Region::ALL`] order.
    pub fn stations_by_region(&self) -> [u32; 6] {
        let mut out = [0u32; 6];
        for p in &self.providers {
            for (acc, n) in out.iter_mut().zip(p.stations.iter()) {
                *acc += n;
            }
        }
        out
    }

    /// Total simultaneous channels the network can serve.
    pub fn total_channels(&self) -> f64 {
        self.total_stations() as f64 * self.channels_per_station
    }

    /// Aggregate downlink capacity with every channel busy.
    pub fn aggregate_capacity(&self) -> DataRate {
        self.channel_rate * self.total_channels()
    }

    /// Cost of running `channels` channels continuously for `duration`.
    pub fn downlink_cost(&self, channels: f64, duration: Time) -> Money {
        self.price_per_channel_minute * (channels * duration.as_minutes())
    }

    /// A network scaled by a station-count factor (the paper considers a
    /// doubling of stations between 2021 and 2026).
    #[cfg(test)]
    pub fn scaled(&self, factor: f64) -> Self {
        let mut scaled = self.clone();
        scaled.channels_per_station *= factor;
        scaled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_row_totals_match_paper() {
        let providers = table2_providers();
        let expect = [
            ("AWS Ground Station", 11),
            ("Azure Ground Stations", 19),
            ("KSat Ground Network Services", 26),
            ("Viasat Real-Time Earth", 14),
            ("US Electrondynamics Inc", 2),
            ("Swedish Space Corporation", 10),
            ("Atlas Space Operations", 13),
            ("Leaf Space", 14),
            ("RBC Signals", 51),
        ];
        for (name, total) in expect {
            let p = providers.iter().find(|p| p.name == name).unwrap();
            assert_eq!(p.total(), total, "{name}");
        }
    }

    #[test]
    fn network_total_is_160_stations() {
        let net = GroundStationNetwork::paper_2023();
        assert_eq!(net.total_stations(), 160);
    }

    #[test]
    fn antarctica_has_exactly_one_station() {
        let net = GroundStationNetwork::paper_2023();
        let by_region = net.stations_by_region();
        assert_eq!(by_region[5], 1, "only KSat operates in Antarctica");
    }

    #[test]
    fn ksat_antarctica_entry() {
        let ksat = table2_providers()
            .into_iter()
            .find(|p| p.name.starts_with("KSat"))
            .unwrap();
        assert_eq!(ksat.in_region(Region::Antarctica), 1);
        assert_eq!(ksat.in_region(Region::EuropeMena), 9);
    }

    #[test]
    fn aggregate_capacity_is_sub_tbps() {
        // 160 stations × 10 channels × 220 Mbit/s ≈ 0.35 Tbit/s — versus
        // the tens of Pbit/s of Fig. 4a. The gap *is* the paper's thesis.
        let net = GroundStationNetwork::paper_2023();
        let cap = net.aggregate_capacity();
        assert!(cap.as_tbps() > 0.1 && cap.as_tbps() < 1.0, "got {cap}");
    }

    #[test]
    fn downlink_cost_at_paper_rates() {
        let net = GroundStationNetwork::paper_2023();
        // One channel for one hour: $180.
        let c = net.downlink_cost(1.0, Time::from_hours(1.0));
        assert_eq!(c.as_usd(), 180.0);
        // A million channels for a minute: $3M/min — the paper's
        // "millions of dollars per minute" scale.
        let big = net.downlink_cost(1e6, Time::from_minutes(1.0));
        assert_eq!(big.as_millions_usd(), 3.0);
    }

    #[test]
    fn doubling_stations_doubles_capacity_only() {
        let net = GroundStationNetwork::paper_2023();
        let doubled = net.scaled(2.0);
        assert!(
            (doubled.aggregate_capacity().as_bps() / net.aggregate_capacity().as_bps() - 2.0).abs()
                < 1e-9
        );
    }
}
