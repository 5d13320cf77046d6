//! SµDC ingest-network topologies and their co-design consequences
//! (Secs. 7–8, Figs. 10, 12, 13, 15).
//!
//! A cluster is a contiguous arc of EO satellites relaying frames inward
//! to one SµDC:
//!
//! * **Ring (2-list)** — the SµDC has two ingest ISLs, one per direction;
//!   relay links connect ring neighbours.
//! * **k-list** — the SµDC has `k` ingest ISLs; the arc is striped into
//!   `k/2` interleaved relay chains per direction, so relay links span
//!   `k/2` neighbour spacings. Optical power pays the square of that
//!   distance; the paper's normalisation ("a 4-list's ISLs consume 4× the
//!   power of a 2-list while also transmitting 2× the data") is
//!   reproduced by [`ClusterTopology::normalized_capacity`] and
//!   [`ClusterTopology::normalized_power`].
//! * **Splitting** — `s` smaller SµDCs replace one large one; clusters
//!   multiply, aggregate ingest scales by `s`, per-link geometry is
//!   unchanged.
//! * **GEO star** — three SµDCs in GEO, each LEO satellite uplinking to
//!   whichever is visible (Fig. 15).

use orbit::circular::CircularOrbit;
use units::{DataRate, Length};

/// How EO satellites are spaced around the orbit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Formation {
    /// Satellites packed one ground-frame apart along track (~9 km at the
    /// paper's footprint): link distances are tiny and large `k` is
    /// geometrically easy.
    FrameSpaced,
    /// Satellites spread evenly around the whole orbit: link distance is
    /// the ring chord, and Earth occlusion caps `k`.
    OrbitSpaced,
}

/// A SµDC cluster ingest topology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterTopology {
    /// Number of ingest ISLs on the SµDC (even, ≥ 2). `k = 2` is the
    /// ring.
    k: usize,
    /// Satellite spacing regime.
    formation: Formation,
}

impl ClusterTopology {
    /// Creates a `k`-list topology.
    ///
    /// # Panics
    ///
    /// Panics unless `k` is even and at least 2.
    pub fn k_list(k: usize, formation: Formation) -> Self {
        assert!(k >= 2 && k % 2 == 0, "k-lists require even k >= 2");
        Self { k, formation }
    }

    /// The ring topology (2-list).
    pub fn ring(formation: Formation) -> Self {
        Self::k_list(2, formation)
    }

    /// Number of ingest links on the SµDC.
    pub fn ingest_links(&self) -> usize {
        self.k
    }

    /// Relay-link distance multiplier relative to the ring's
    /// neighbour-spacing chord: chains stripe the arc, so links span
    /// `k/2` spacings.
    pub fn link_distance_multiplier(&self) -> f64 {
        self.k as f64 / 2.0
    }

    /// Relay-link distance for a given neighbour spacing.
    pub fn link_distance(&self, neighbor_spacing: Length) -> Length {
        neighbor_spacing * self.link_distance_multiplier()
    }

    /// Aggregate SµDC ingest rate normalised to a ring without splitting
    /// (Fig. 13 upper panel): `s · k/2`.
    pub fn normalized_capacity(&self, split_factor: usize) -> f64 {
        split_factor as f64 * self.k as f64 / 2.0
    }

    /// Total ISL transmit power normalised to a ring without splitting
    /// (Fig. 13 lower panel): each link spans `k/2`× the distance, costing
    /// `(k/2)²` the power per unit data while moving `k/2`× the aggregate
    /// data → `s · (k/2)²`.
    pub fn normalized_power(&self, split_factor: usize) -> f64 {
        let half_k = self.k as f64 / 2.0;
        split_factor as f64 * half_k * half_k
    }

    /// Maximum number of EO satellites one SµDC can ingest from, given
    /// per-ingest-link capacity and the per-satellite data rate.
    ///
    /// Each ingest link saturates at `floor(link_capacity / rate)`
    /// satellites, and the SµDC has `k` such links — the Table 8
    /// computation (`k = 2`), generalised as Sec. 8 prescribes ("the
    /// number of EO satellites supported by a k-list topology cluster is
    /// k/2 times those shown in Table 8").
    pub fn supportable_satellites(
        &self,
        link_capacity: DataRate,
        per_satellite_rate: DataRate,
    ) -> usize {
        if per_satellite_rate.as_bps() <= 0.0 {
            return usize::MAX;
        }
        let per_link = (link_capacity.as_bps() / per_satellite_rate.as_bps()).floor() as usize;
        self.k * per_link
    }

    /// The largest even `k` geometrically feasible for a plane: relay
    /// links must keep optical line of sight (orbit-spaced), or are
    /// unconstrained up to the satellite count (frame-spaced, where
    /// spacing is km-scale).
    #[cfg(test)]
    pub fn max_k(plane: &crate::plane::OrbitalPlane, formation: Formation) -> usize {
        match formation {
            Formation::FrameSpaced => plane.satellite_count() & !1,
            Formation::OrbitSpaced => {
                let hops = plane.max_los_hops();
                (2 * hops).min(plane.satellite_count() & !1)
            }
        }
    }
}

impl std::fmt::Display for ClusterTopology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.k == 2 {
            f.write_str("ring (2-list)")
        } else {
            write!(f, "{}-list", self.k)
        }
    }
}

/// The GEO star topology of Fig. 15: `nodes` SµDCs in GEO spaced evenly,
/// serving LEO satellites by direct LEO→GEO optical uplink.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoStar {
    /// Number of GEO SµDCs (the paper uses 3).
    pub nodes: usize,
}

impl GeoStar {
    /// The paper's three-node configuration.
    pub fn paper() -> Self {
        Self { nodes: 3 }
    }

    /// Whether every LEO satellite at the given orbit/inclination always
    /// sees at least one node (sampled LOS check).
    pub fn continuous_coverage(&self, leo: CircularOrbit, inclination: units::Angle) -> bool {
        let cov = orbit::visibility::geo_star_coverage(leo, inclination, self.nodes, 1024);
        cov.covered_fraction >= 1.0
    }

    /// Worst-case LEO→GEO slant range while connected to the nearest
    /// visible node.
    pub fn max_uplink_range(&self, leo: CircularOrbit, inclination: units::Angle) -> Length {
        orbit::visibility::geo_star_coverage(leo, inclination, self.nodes, 1024)
            .max_range_to_nearest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plane::OrbitalPlane;
    use units::Angle;

    #[test]
    fn ring_is_the_identity_topology() {
        let ring = ClusterTopology::ring(Formation::OrbitSpaced);
        assert_eq!(ring.ingest_links(), 2);
        assert_eq!(ring.link_distance_multiplier(), 1.0);
        assert_eq!(ring.normalized_capacity(1), 1.0);
        assert_eq!(ring.normalized_power(1), 1.0);
    }

    #[test]
    fn four_list_matches_paper_sentence() {
        // "a 4-list's ISLs consume 4× the power of a 2-list (while also
        // transmitting 2× the data)".
        let four = ClusterTopology::k_list(4, Formation::FrameSpaced);
        assert_eq!(four.normalized_capacity(1), 2.0);
        assert_eq!(four.normalized_power(1), 4.0);
    }

    #[test]
    fn splitting_scales_both_linearly() {
        let ring = ClusterTopology::ring(Formation::OrbitSpaced);
        assert_eq!(ring.normalized_capacity(4), 4.0);
        assert_eq!(ring.normalized_power(4), 4.0);
        // Combined: 4-list with 2 splits = 4× capacity, 8× power.
        let four = ClusterTopology::k_list(4, Formation::FrameSpaced);
        assert_eq!(four.normalized_capacity(2), 4.0);
        assert_eq!(four.normalized_power(2), 8.0);
    }

    #[test]
    #[should_panic(expected = "even k")]
    fn odd_k_panics() {
        let _ = ClusterTopology::k_list(3, Formation::OrbitSpaced);
    }

    #[test]
    fn table8_generalisation_scales_with_k() {
        // Sec. 8: a k-list supports k/2 × the Table 8 ring counts.
        let rate = DataRate::from_mbps(201.33);
        let cap = DataRate::from_gbps(10.0);
        let ring = ClusterTopology::ring(Formation::OrbitSpaced);
        let four = ClusterTopology::k_list(4, Formation::FrameSpaced);
        assert_eq!(
            four.supportable_satellites(cap, rate),
            2 * ring.supportable_satellites(cap, rate)
        );
    }

    #[test]
    fn table8_ring_value_at_3m_10gbps() {
        // Table 8: 10 Gbit/s at 3 m, no discard → 98 satellites.
        let rate = DataRate::from_bps(4096.0 * 3072.0 * 24.0 / 1.5);
        let ring = ClusterTopology::ring(Formation::OrbitSpaced);
        assert_eq!(
            ring.supportable_satellites(DataRate::from_gbps(10.0), rate),
            98
        );
    }

    #[test]
    fn zero_rate_is_unbounded() {
        let ring = ClusterTopology::ring(Formation::OrbitSpaced);
        assert_eq!(
            ring.supportable_satellites(DataRate::from_gbps(1.0), DataRate::ZERO),
            usize::MAX
        );
    }

    #[test]
    fn max_k_orbit_spaced_is_los_limited() {
        let plane = OrbitalPlane::paper_reference();
        let k_orbit = ClusterTopology::max_k(&plane, Formation::OrbitSpaced);
        let k_frame = ClusterTopology::max_k(&plane, Formation::FrameSpaced);
        assert!(
            k_orbit < k_frame,
            "orbit-spaced k ({k_orbit}) must be LOS-capped"
        );
        assert!(k_orbit >= 4, "at 550 km / 64 sats a 4-list is feasible");
        assert_eq!(k_frame, 64);
        assert_eq!(k_frame % 2, 0);
    }

    #[test]
    fn geo_star_three_nodes_cover_leo() {
        let star = GeoStar::paper();
        let leo = CircularOrbit::from_altitude(Length::from_km(550.0));
        assert!(star.continuous_coverage(leo, Angle::from_degrees(53.0)));
        let one = GeoStar { nodes: 1 };
        assert!(!one.continuous_coverage(leo, Angle::from_degrees(53.0)));
    }

    #[test]
    fn geo_uplink_range_within_physical_bound() {
        let star = GeoStar::paper();
        let leo = CircularOrbit::from_altitude(Length::from_km(550.0));
        let range = star.max_uplink_range(leo, Angle::from_degrees(53.0));
        assert!(range.as_km() > 35_000.0 && range.as_km() < 50_000.0);
    }

    #[test]
    fn display_names() {
        assert_eq!(
            ClusterTopology::ring(Formation::OrbitSpaced).to_string(),
            "ring (2-list)"
        );
        assert_eq!(
            ClusterTopology::k_list(6, Formation::FrameSpaced).to_string(),
            "6-list"
        );
    }
}
