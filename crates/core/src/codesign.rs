//! SµDC–communication co-design (Sec. 8: Figs. 12–13, Table 9).
//!
//! Three strategies relieve the ISL bottleneck: k-list topologies (more
//! ingest links per SµDC), SµDC splitting (more, smaller SµDCs), and GEO
//! placement (Fig. 15; modelled in `constellation::topology::GeoStar`).
//! This module evaluates their combined capacity/power trade (Fig. 13)
//! and encodes the paper's qualitative strategy comparison (Table 9).

use constellation::topology::{ClusterTopology, Formation};
use explore::{Axis, Space};

/// One point of the Fig. 13 sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodesignPoint {
    /// Ingest links per SµDC (k).
    pub k: usize,
    /// SµDC splitting factor.
    pub split: usize,
    /// Aggregate EO→SµDC capacity normalised to an unsplit ring.
    pub capacity_norm: f64,
    /// Total ISL transmit power normalised to an unsplit ring.
    pub power_norm: f64,
    /// Capacity per unit power (efficiency of the strategy mix).
    pub capacity_per_power: f64,
}

/// The Fig. 13 `k × split` parameter space (row-major: `k` outermost,
/// matching the paper's panel layout).
///
/// # Panics
///
/// Panics if either axis is empty.
pub fn fig13_space(ks: &[usize], splits: &[usize]) -> Space<(usize, usize)> {
    Space::grid2(
        "codesign",
        Axis::new("k", ks.to_vec()),
        Axis::new("split", splits.to_vec()),
    )
}

/// Evaluates one point of the Fig. 13 sweep in a frame-spaced
/// constellation.
pub fn fig13_point(k: usize, split: usize) -> CodesignPoint {
    let topo = ClusterTopology::k_list(k, Formation::FrameSpaced);
    let capacity_norm = topo.normalized_capacity(split);
    let power_norm = topo.normalized_power(split);
    CodesignPoint {
        k,
        split,
        capacity_norm,
        power_norm,
        capacity_per_power: capacity_norm / power_norm,
    }
}

/// Evaluates the Fig. 13 sweep over k-list sizes and splitting factors in
/// a frame-spaced constellation (via the `explore` engine, sequentially).
pub fn fig13_sweep(ks: &[usize], splits: &[usize]) -> Vec<CodesignPoint> {
    if ks.is_empty() || splits.is_empty() {
        return Vec::new();
    }
    explore::sweep(
        &fig13_space(ks, splits),
        &explore::ExecOptions::sequential(),
        |&(k, split)| fig13_point(k, split),
    )
    .results
}

impl explore::Cacheable for CodesignPoint {
    fn encode(&self) -> String {
        explore::Enc::new()
            .usize(self.k)
            .usize(self.split)
            .f64(self.capacity_norm)
            .f64(self.power_norm)
            .f64(self.capacity_per_power)
            .finish()
    }

    fn decode(s: &str) -> Option<Self> {
        let mut d = explore::Dec::new(s);
        Some(Self {
            k: d.usize()?,
            split: d.usize()?,
            capacity_norm: d.f64()?,
            power_norm: d.f64()?,
            capacity_per_power: d.f64()?,
        })
    }
}

/// The paper's Fig. 13 axes.
pub fn paper_fig13_axes() -> (Vec<usize>, Vec<usize>) {
    (vec![2, 4, 8, 16], vec![1, 2, 4, 8])
}

/// The downlink-deficit mitigation strategies compared in Table 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Space microdatacenters (this paper).
    Sudc,
    /// Homogeneous constellations of bigger EO satellites.
    HomogeneousCompute,
    /// Compression and early discard.
    Compression,
    /// Scaling RF downlink capacity.
    RfComms,
}

impl Strategy {
    /// All strategies in Table 9 column order.
    pub const ALL: [Self; 4] = [
        Self::Sudc,
        Self::HomogeneousCompute,
        Self::Compression,
        Self::RfComms,
    ];

    /// Table 9 column label.
    pub fn label(self) -> &'static str {
        match self {
            Self::Sudc => "SµDCs",
            Self::HomogeneousCompute => "Homogeneous Compute",
            Self::Compression => "Compression",
            Self::RfComms => "RF Comms",
        }
    }

    /// Scales to future resolution targets (Table 9 row 1).
    pub fn scales_to_future_targets(self) -> bool {
        matches!(self, Self::Sudc | Self::HomogeneousCompute)
    }

    /// Requires high power generation in space (row 2).
    pub fn high_power(self) -> bool {
        !matches!(self, Self::Compression)
    }

    /// Requires inter-satellite links (row 3).
    pub fn requires_isls(self) -> bool {
        matches!(self, Self::Sudc)
    }

    /// Adapts to mission/model changes after launch (row 4).
    pub fn adaptive_to_mission_changes(self) -> bool {
        matches!(self, Self::Sudc)
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig13_normalisations_multiply() {
        // Benefits are orthogonal: capacity scales multi-linearly with
        // split × k/2.
        let pts = fig13_sweep(&[2, 4, 8], &[1, 2, 4]);
        for p in &pts {
            assert!((p.capacity_norm - p.split as f64 * p.k as f64 / 2.0).abs() < 1e-12);
        }
        // 2-list unsplit is the unit point.
        let unit = pts.iter().find(|p| p.k == 2 && p.split == 1).unwrap();
        assert_eq!(unit.capacity_norm, 1.0);
        assert_eq!(unit.power_norm, 1.0);
    }

    #[test]
    fn splitting_is_power_proportional_klists_are_not() {
        // Splitting buys capacity at proportional power; k-lists pay
        // quadratically per link. So capacity_per_power degrades with k
        // but not with split.
        let pts = fig13_sweep(&[2, 4, 8, 16], &[1, 2, 4, 8]);
        let eff = |k: usize, s: usize| {
            pts.iter()
                .find(|p| p.k == k && p.split == s)
                .unwrap()
                .capacity_per_power
        };
        assert_eq!(eff(2, 1), eff(2, 8), "splitting preserves efficiency");
        assert!(eff(16, 1) < eff(4, 1), "big k-lists pay quadratic power");
    }

    #[test]
    fn paper_axes_cover_16_points() {
        let (ks, ss) = paper_fig13_axes();
        assert_eq!(fig13_sweep(&ks, &ss).len(), 16);
    }

    #[test]
    fn engine_sweep_matches_direct_loop_order() {
        // The explore-engine port must keep the original k-outer,
        // split-inner row order.
        let (ks, ss) = paper_fig13_axes();
        let rows = fig13_sweep(&ks, &ss);
        let mut i = 0;
        for &k in &ks {
            for &split in &ss {
                assert_eq!((rows[i].k, rows[i].split), (k, split), "row {i}");
                i += 1;
            }
        }
    }

    #[test]
    fn empty_axes_sweep_to_nothing() {
        assert!(fig13_sweep(&[], &[1]).is_empty());
        assert!(fig13_sweep(&[2], &[]).is_empty());
    }

    #[test]
    fn codesign_point_cache_round_trips() {
        use explore::Cacheable;
        let p = fig13_point(8, 4);
        let back = CodesignPoint::decode(&p.encode()).unwrap();
        assert_eq!(back, p);
        assert!(CodesignPoint::decode("3|garbage").is_none());
    }

    #[test]
    fn table9_matches_paper() {
        use Strategy::*;
        assert!(Sudc.scales_to_future_targets());
        assert!(HomogeneousCompute.scales_to_future_targets());
        assert!(!Compression.scales_to_future_targets());
        assert!(!RfComms.scales_to_future_targets());

        assert!(Sudc.high_power() && HomogeneousCompute.high_power() && RfComms.high_power());
        assert!(!Compression.high_power());

        assert!(Sudc.requires_isls());
        assert!(Strategy::ALL.iter().filter(|s| s.requires_isls()).count() == 1);

        assert!(Sudc.adaptive_to_mission_changes());
        assert!(!HomogeneousCompute.adaptive_to_mission_changes());
    }
}
