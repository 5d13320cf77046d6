//! Topology/routing layer of the sim engine: where frames go next.
//!
//! The [`Topology`] trait answers the purely geometric questions the
//! event loop asks — which SµDC a satellite belongs to, which node its
//! frames hop to next, and how reverse-direction rerouting walks the
//! ring — so new ingest shapes are data behind one seam instead of
//! edits to the event loop. All methods are integer arithmetic on ring
//! positions; the implementations reproduce the stride computations
//! that previously lived inline in `model.rs` bit-for-bit.

use constellation::OrbitalPlane;
use units::Length;

use crate::sim::model::{SimConfig, SimTopology};

/// Routing geometry for one ingest-network shape.
///
/// Positions are global ring indices `0..n`; service units (SµDCs) are
/// indexed `0..units()`. Implementations must be pure functions of the
/// configuration — all the stochastic machinery (outages, retries)
/// lives in the transport and service layers. `Send` so the sharded
/// parallel runner can hand each shard's state to a worker thread.
pub trait Topology: Send {
    /// Number of SµDC service units frames can be delivered to.
    fn units(&self) -> usize;

    /// Index of the SµDC service unit satellite `sat` belongs to.
    fn home_cluster(&self, sat: usize) -> usize;

    /// The next node on `sat`'s path to its SµDC: `Some(next_sat)` to
    /// keep relaying, or `None` when the hop lands on the SµDC.
    fn next_hop(&self, sat: usize) -> Option<usize>;

    /// Whether the shape has a reverse direction frames can fall back
    /// to when the forward path is dead (rings do; a star does not).
    fn supports_reverse(&self) -> bool;

    /// The global-ring direction *opposite* to `sat`'s forward routing
    /// direction (satellites below their arc centre forward `+stride`,
    /// so their reverse walk is `-stride`, and vice versa).
    fn reverse_direction_up(&self, sat: usize) -> bool {
        let _ = sat;
        false
    }

    /// Next position for a reverse-routed frame: a fixed `±stride` walk
    /// around the global ring, guaranteed to pass every SµDC's ingest
    /// window (which is `2·stride + 1 > stride` positions wide).
    fn reverse_next(&self, sat: usize, rev_up: bool) -> usize {
        let _ = rev_up;
        sat
    }

    /// If ring position `p` sits within one chain stride of a SµDC,
    /// returns that unit for ingest (liveness is the service layer's
    /// concern); reverse-routed frames keep walking otherwise.
    fn reverse_window(&self, p: usize) -> Option<usize> {
        let _ = p;
        None
    }

    /// Distance one transmitted frame propagates: a ring hop, or the
    /// LEO→GEO slant range.
    fn hop_distance(&self, plane: &OrbitalPlane) -> Length;
}

/// k-list striping (Fig. 12a): each arc side is striped into `k/2`
/// interleaved relay chains whose links stride `k/2` positions, so `k`
/// links land on the SµDC at the arc centre. `k == 2` (stride 1) is the
/// plain LEO ring of Fig. 10, where every satellite forwards to its
/// neighbour toward the arc centre. SµDC splitting (Sec. 8) is a
/// k-list over `clusters × factor` shorter arcs; the capacity division
/// (`power/factor`) is the service layer's side of the bargain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KList {
    /// Ring size (total satellites).
    n: usize,
    /// Satellites per service arc.
    arc: usize,
    /// Service units (`n / arc`).
    units: usize,
    /// Chain stride: `ingest_links / 2`.
    stride: usize,
}

impl KList {
    /// A k-list over `n` satellites split into `units` equal arcs with
    /// `ingest_links` ingest ISLs per SµDC.
    pub fn new(n: usize, units: usize, ingest_links: usize) -> Self {
        Self {
            n,
            arc: n.div_ceil(units),
            units,
            stride: ingest_links / 2,
        }
    }
}

impl Topology for KList {
    fn units(&self) -> usize {
        self.units
    }

    fn home_cluster(&self, sat: usize) -> usize {
        sat / self.arc
    }

    fn next_hop(&self, sat: usize) -> Option<usize> {
        let m = self.arc;
        let cluster = self.home_cluster(sat);
        let offset = sat - cluster * m;
        let center = m / 2;
        if offset == center || m == 1 {
            return None; // co-located with the SµDC: direct ingest
        }
        let stride = self.stride;
        let distance = offset.abs_diff(center);
        if distance <= stride {
            return None; // within one chain stride of the SµDC: ingest
        }
        let next = if offset < center {
            offset + stride
        } else {
            offset - stride
        };
        Some(cluster * m + next)
    }

    fn supports_reverse(&self) -> bool {
        true
    }

    fn reverse_direction_up(&self, sat: usize) -> bool {
        let m = self.arc;
        let offset = sat - (sat / m) * m;
        offset >= m / 2
    }

    fn reverse_next(&self, sat: usize, rev_up: bool) -> usize {
        let n = self.n;
        let stride = self.stride;
        if rev_up {
            (sat + stride) % n
        } else {
            (sat + n - stride % n) % n
        }
    }

    fn reverse_window(&self, p: usize) -> Option<usize> {
        let n = self.n;
        let m = self.arc;
        let stride = self.stride;
        let cluster = p / m;
        let center = cluster * m + m / 2;
        let d = p.abs_diff(center);
        let ring_distance = d.min(n - d);
        (ring_distance <= stride).then_some(cluster)
    }

    fn hop_distance(&self, plane: &OrbitalPlane) -> Length {
        plane.link_distance(1)
    }
}

/// GEO star (Fig. 15): every EO satellite uplinks directly to one of
/// the GEO SµDCs (assigned round-robin as a stand-in for
/// whichever-node-is-visible); no relaying, no reverse path, ~0.13 s of
/// uplink propagation delay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeoStar {
    units: usize,
}

impl GeoStar {
    /// A star over `units` GEO SµDCs.
    pub fn new(units: usize) -> Self {
        Self { units }
    }
}

impl Topology for GeoStar {
    fn units(&self) -> usize {
        self.units
    }

    fn home_cluster(&self, sat: usize) -> usize {
        sat % self.units
    }

    fn next_hop(&self, _sat: usize) -> Option<usize> {
        None // direct uplink, no relaying
    }

    fn supports_reverse(&self) -> bool {
        false
    }

    fn hop_distance(&self, _plane: &OrbitalPlane) -> Length {
        Length::from_km(38_000.0)
    }
}

/// Builds the routing geometry a validated configuration describes.
pub fn from_config(cfg: &SimConfig) -> Box<dyn Topology> {
    let n = cfg.plane.satellite_count();
    match cfg.topology {
        SimTopology::Ring => Box::new(KList::new(n, cfg.clusters, cfg.ingest_links)),
        SimTopology::GeoStar => Box::new(GeoStar::new(cfg.clusters)),
        SimTopology::SplitRing { factor } => {
            Box::new(KList::new(n, cfg.clusters * factor, cfg.ingest_links))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference configuration with `clusters` SµDCs, over the
    /// paper plane's ring and its satellite count.
    fn reference(clusters: usize) -> (SimConfig, usize) {
        let mut cfg = SimConfig::paper_reference(
            workloads::Application::FloodDetection,
            Length::from_m(1.0),
            0.5,
        );
        cfg.clusters = clusters;
        let n = cfg.plane.satellite_count();
        (cfg, n)
    }

    /// Both topologies route every satellite the same way.
    fn assert_same_routes(a: &dyn Topology, b: &dyn Topology, n: usize) {
        assert_eq!(a.units(), b.units());
        for sat in 0..n {
            assert_eq!(a.next_hop(sat), b.next_hop(sat), "sat {sat}");
            assert_eq!(a.home_cluster(sat), b.home_cluster(sat), "sat {sat}");
        }
    }

    #[test]
    fn ring_is_a_two_list() {
        let (cfg, n) = reference(4);
        assert_eq!(cfg.ingest_links, 2);
        assert_same_routes(&*from_config(&cfg), &KList::new(n, 4, 2), n);
    }

    #[test]
    fn ring_forwards_toward_the_arc_center() {
        let ring = KList::new(16, 1, 2);
        // Centre of the single arc is position 8.
        assert_eq!(ring.next_hop(8), None, "SµDC ingests its own frames");
        assert_eq!(ring.next_hop(7), None, "one hop away: ingest link");
        assert_eq!(ring.next_hop(9), None, "one hop away: ingest link");
        assert_eq!(ring.next_hop(5), Some(6));
        assert_eq!(ring.next_hop(11), Some(10));
        assert_eq!(ring.next_hop(0), Some(1));
    }

    #[test]
    fn klist_strides_by_half_k() {
        let k4 = KList::new(16, 1, 4);
        // stride 2: positions within 2 of the centre (8) ingest directly.
        for p in 6..=10 {
            assert_eq!(k4.next_hop(p), None, "position {p}");
        }
        assert_eq!(k4.next_hop(2), Some(4));
        assert_eq!(k4.next_hop(3), Some(5));
        assert_eq!(k4.next_hop(13), Some(11));
    }

    /// Every relay chain ends at an SµDC without leaving the home
    /// cluster of the satellite it starts from, on every shape. Serve
    /// admission and the sharded loop both rely on this.
    #[test]
    fn every_ring_walk_terminates_at_the_sudc() {
        let shapes: Vec<(&str, Box<dyn Topology>)> = vec![
            ("ring", Box::new(KList::new(64, 4, 2))),
            ("k-list 4", Box::new(KList::new(64, 4, 4))),
            ("k-list 8", Box::new(KList::new(64, 4, 8))),
            ("split 2", Box::new(KList::new(64, 4 * 2, 2))),
            ("split 2 k-list 4", Box::new(KList::new(64, 4 * 2, 4))),
            ("geo", Box::new(GeoStar::new(4))),
        ];
        for (name, topo) in &shapes {
            for sat in 0..64 {
                let home = topo.home_cluster(sat);
                let mut p = sat;
                let mut hops = 0;
                while let Some(next) = topo.next_hop(p) {
                    p = next;
                    hops += 1;
                    assert!(hops <= 64, "{name} sat={sat} loops");
                    assert_eq!(topo.home_cluster(p), home, "{name} sat={sat} leaves at {p}");
                }
            }
        }
    }

    #[test]
    fn reverse_walk_passes_every_ingest_window() {
        for k in [2usize, 4, 8] {
            let topo = KList::new(64, 4, k);
            for start in 0..64 {
                for rev_up in [false, true] {
                    let mut p = start;
                    let mut delivered = false;
                    for _ in 0..=128 {
                        if topo.reverse_window(p).is_some() {
                            delivered = true;
                            break;
                        }
                        p = topo.reverse_next(p, rev_up);
                    }
                    assert!(delivered, "k={k} start={start} rev_up={rev_up}");
                }
            }
        }
    }

    #[test]
    fn split_ring_multiplies_units_and_shrinks_arcs() {
        let (mut cfg, n) = reference(4);
        cfg.topology = SimTopology::SplitRing { factor: 4 };
        let split = from_config(&cfg);
        assert_eq!(split.units(), 16);
        // Sub-arcs are n/16 satellites wide: the first belong to unit 0.
        let arc = n / 16;
        assert_eq!(split.home_cluster(0), 0);
        assert_eq!(split.home_cluster(arc - 1), 0);
        assert_eq!(split.home_cluster(arc), 1);
        // Worst-case hop count shrinks with the arc.
        let plain = KList::new(n, 4, 2);
        let far = 0; // furthest from the arc centre
        let count_hops = |topo: &dyn Topology, mut p: usize| {
            let mut hops = 0;
            while let Some(next) = topo.next_hop(p) {
                p = next;
                hops += 1;
            }
            hops
        };
        assert!(count_hops(&*split, far) < count_hops(&plain, far));
    }

    #[test]
    fn split_factor_one_is_the_plain_ring() {
        let (ring, n) = reference(4);
        let mut split = ring.clone();
        split.topology = SimTopology::SplitRing { factor: 1 };
        assert_same_routes(&*from_config(&split), &*from_config(&ring), n);
    }

    #[test]
    fn geo_star_uplinks_directly() {
        let star = GeoStar::new(3);
        for sat in 0..64 {
            assert_eq!(star.next_hop(sat), None);
            assert_eq!(star.home_cluster(sat), sat % 3);
        }
        assert!(!star.supports_reverse());
    }
}
