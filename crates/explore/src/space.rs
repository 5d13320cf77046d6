//! Typed parameter spaces: axes, cartesian grids, and explicit point
//! lists, each point with a stable [`PointId`].

use crate::fnv1a;

/// A value that can sit on an [`Axis`]: cloneable, with a canonical
/// textual form used for [`PointId`] hashing and cache addressing.
///
/// Blanket-implemented for every `Clone + Display` type; the canonical
/// form is the `Display` rendering, which for Rust's `f64` is the
/// shortest round-trip representation (stable across runs and
/// platforms).
pub trait AxisItem: Clone {
    /// Canonical textual form of the value.
    fn canon(&self) -> String;
}

impl<T: Clone + std::fmt::Display> AxisItem for T {
    fn canon(&self) -> String {
        self.to_string()
    }
}

/// A named, ordered list of values for one parameter dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct Axis<T> {
    name: String,
    values: Vec<T>,
}

impl<T: AxisItem> Axis<T> {
    /// Creates an axis from a name and its sweep values.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty — a zero-length axis would silently
    /// erase the whole cartesian product.
    pub fn new(name: impl Into<String>, values: Vec<T>) -> Self {
        let name = name.into();
        assert!(!values.is_empty(), "axis '{name}' has no values");
        Self { name, values }
    }

    /// The axis name (used in canonical point coordinates and CLI
    /// overrides).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The sweep values, in order.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Number of values.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Always false (construction rejects empty axes).
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// A stable identity for one point of a [`Space`].
///
/// `index` is the position in the full enumeration order at
/// construction time; `hash` is the
/// FNV-1a content address of the canonical coordinate text, so it
/// survives re-ordering, subspacing, and axis extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PointId {
    /// Enumeration position at construction.
    pub index: u64,
    /// FNV-1a hash of `space|axis0=v0;axis1=v1;…`.
    pub hash: u64,
}

/// An enumerable parameter space over points of type `P`.
#[derive(Debug, Clone, PartialEq)]
pub struct Space<P> {
    name: String,
    ids: Vec<PointId>,
    /// Each point's canonical coordinate text, the input of its id.
    coords: Vec<String>,
    points: Vec<P>,
}

fn id_for(space: &str, canon: &str, index: u64) -> PointId {
    PointId {
        index,
        hash: fnv1a(format!("{space}|{canon}").as_bytes()),
    }
}

impl<P> Space<P> {
    /// Builds a space from an explicit point list; `canon` renders the
    /// canonical coordinate text (`axis0=v0;axis1=v1;…`) for a point.
    pub fn from_points(
        name: impl Into<String>,
        points: Vec<P>,
        canon: impl Fn(&P) -> String,
    ) -> Self {
        let name = name.into();
        let coords: Vec<String> = points.iter().map(canon).collect();
        let ids = coords
            .iter()
            .enumerate()
            .map(|(i, c)| id_for(&name, c, i as u64))
            .collect();
        Self {
            name,
            ids,
            coords,
            points,
        }
    }

    /// The space name (prefixes every canonical coordinate).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the space has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The point at enumeration position `i`.
    pub fn point(&self, i: usize) -> &P {
        &self.points[i]
    }

    /// The stable id of the point at position `i`.
    pub fn id(&self, i: usize) -> PointId {
        self.ids[i]
    }

    /// The canonical coordinate text (`axis0=v0;axis1=v1;…`) of the
    /// point at position `i`.
    pub fn coords(&self, i: usize) -> &str {
        &self.coords[i]
    }

    /// All points in order.
    pub fn points(&self) -> &[P] {
        &self.points
    }

    /// All ids in order.
    pub fn ids(&self) -> &[PointId] {
        &self.ids
    }

    /// Iterates `(id, point)` pairs in order.
    pub fn iter(&self) -> impl Iterator<Item = (PointId, &P)> {
        self.ids.iter().copied().zip(self.points.iter())
    }

    /// Restricts the space to points satisfying `keep`. Surviving
    /// points retain their construction-time [`PointId`]s, so caches
    /// and cross-run comparisons stay valid on the subspace.
    #[cfg(test)]
    pub fn filter(self, keep: impl Fn(&P) -> bool) -> Self {
        let ((ids, coords), points) = self
            .ids
            .into_iter()
            .zip(self.coords)
            .zip(self.points)
            .filter(|(_, p)| keep(p))
            .unzip();
        Self {
            name: self.name,
            ids,
            coords,
            points,
        }
    }
}

impl<A: AxisItem, B: AxisItem> Space<(A, B)> {
    /// Cartesian product of two axes, row-major (first axis outermost).
    pub fn grid2(name: impl Into<String>, a: Axis<A>, b: Axis<B>) -> Self {
        let mut points = Vec::new();
        for va in a.values() {
            for vb in b.values() {
                points.push((va.clone(), vb.clone()));
            }
        }
        Self::from_points(name, points, |(va, vb)| {
            format!("{}={};{}={}", a.name(), va.canon(), b.name(), vb.canon())
        })
    }
}

impl<A: AxisItem, B: AxisItem, C: AxisItem> Space<(A, B, C)> {
    /// Cartesian product of three axes, row-major.
    pub fn grid3(name: impl Into<String>, a: Axis<A>, b: Axis<B>, c: Axis<C>) -> Self {
        let mut points = Vec::new();
        for va in a.values() {
            for vb in b.values() {
                for vc in c.values() {
                    points.push((va.clone(), vb.clone(), vc.clone()));
                }
            }
        }
        Self::from_points(name, points, |(va, vb, vc)| {
            format!(
                "{}={};{}={};{}={}",
                a.name(),
                va.canon(),
                b.name(),
                vb.canon(),
                c.name(),
                vc.canon()
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid2_enumerates_row_major() {
        let s = Space::grid2(
            "t",
            Axis::new("k", vec![2u64, 4]),
            Axis::new("s", vec![1u64, 2, 3]),
        );
        assert_eq!(s.len(), 6);
        assert_eq!(*s.point(0), (2, 1));
        assert_eq!(*s.point(2), (2, 3));
        assert_eq!(*s.point(3), (4, 1));
        assert_eq!(s.id(5).index, 5);
    }

    #[test]
    fn point_hash_is_content_addressed() {
        let a = Space::grid2(
            "t",
            Axis::new("k", vec![2u64, 4]),
            Axis::new("s", vec![1u64]),
        );
        // Same coordinates in a bigger grid hash identically.
        let b = Space::grid2(
            "t",
            Axis::new("k", vec![2u64, 4, 8]),
            Axis::new("s", vec![1u64, 2]),
        );
        assert_eq!(a.id(0).hash, b.id(0).hash, "(2,1) in both");
        assert_eq!(a.id(1).hash, b.id(2).hash, "(4,1) in both");
        // Different space names address differently.
        let c = Space::grid2("u", Axis::new("k", vec![2u64]), Axis::new("s", vec![1u64]));
        assert_ne!(a.id(0).hash, c.id(0).hash);
    }

    #[test]
    fn filter_keeps_original_ids() {
        let s = Space::grid2(
            "t",
            Axis::new("k", vec![2u64, 4, 8]),
            Axis::new("s", vec![1u64]),
        );
        let odd_k_hash = s.id(1).hash;
        let f = s.filter(|&(k, _)| k == 4);
        assert_eq!(f.len(), 1);
        assert_eq!(f.id(0).index, 1);
        assert_eq!(f.id(0).hash, odd_k_hash);
    }

    #[test]
    fn explicit_point_lists_hash_by_canon() {
        let s = Space::from_points("t", vec![(2u64, 1u64), (4, 1)], |&(k, sp)| {
            format!("k={k};s={sp}")
        });
        let g = Space::grid2(
            "t",
            Axis::new("k", vec![2u64, 4]),
            Axis::new("s", vec![1u64]),
        );
        assert_eq!(s.id(0).hash, g.id(0).hash);
        assert_eq!(s.id(1).hash, g.id(1).hash);
        assert_eq!((s.coords(1), g.coords(1)), ("k=4;s=1", "k=4;s=1"));
    }

    #[test]
    fn float_axes_canonicalise_stably() {
        let a = Axis::new("ed", vec![0.0f64, 0.5, 0.95]);
        assert_eq!(a.values()[1].canon(), "0.5");
        let s = Space::grid2("t", a.clone(), Axis::new("r", vec![1.0f64]));
        let again = Space::grid2("t", a, Axis::new("r", vec![1.0f64]));
        assert_eq!(s.ids(), again.ids());
    }

    #[test]
    #[should_panic(expected = "axis 'k' has no values")]
    fn empty_axis_panics() {
        let _ = Axis::<u64>::new("k", vec![]);
    }
}
