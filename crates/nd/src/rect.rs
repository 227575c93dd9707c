//! Axis-parallel hyper-rectangles.

use crate::PointN;
use std::fmt;

/// An axis-parallel hyper-rectangle in `D` dimensions.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RectN<const D: usize> {
    /// Minimum corner.
    pub lo: PointN<D>,
    /// Maximum corner.
    pub hi: PointN<D>,
}

impl<const D: usize> RectN<D> {
    /// Creates a rectangle from its corners.
    ///
    /// # Panics
    /// Panics (in debug builds) if any `lo > hi` or a coordinate is
    /// non-finite.
    pub fn new(lo: PointN<D>, hi: PointN<D>) -> Self {
        debug_assert!(
            lo.coords().iter().zip(hi.coords()).all(|(a, b)| a <= b),
            "inverted rect"
        );
        debug_assert!(lo.is_finite() && hi.is_finite());
        RectN { lo, hi }
    }

    /// A degenerate rectangle covering one point.
    pub fn point(p: PointN<D>) -> Self {
        RectN { lo: p, hi: p }
    }

    /// Rectangle from a center and full side lengths per axis.
    pub fn centered(center: PointN<D>, sides: [f64; D]) -> Self {
        let mut lo = [0.0; D];
        let mut hi = [0.0; D];
        for i in 0..D {
            lo[i] = center.coord(i) - sides[i] / 2.0;
            hi[i] = center.coord(i) + sides[i] / 2.0;
        }
        RectN::new(PointN::new(lo), PointN::new(hi))
    }

    /// The unit hypercube `[0,1]^D`.
    pub fn unit() -> Self {
        RectN {
            lo: PointN::new([0.0; D]),
            hi: PointN::new([1.0; D]),
        }
    }

    /// Extent along `axis`.
    #[inline]
    pub fn extent(&self, axis: usize) -> f64 {
        self.hi.coord(axis) - self.lo.coord(axis)
    }

    /// Volume (the D-dimensional "area" of the access-probability model).
    pub fn volume(&self) -> f64 {
        (0..D).map(|i| self.extent(i)).product()
    }

    /// Sum of extents (the margin used by packing-quality metrics).
    pub fn margin(&self) -> f64 {
        (0..D).map(|i| self.extent(i)).sum()
    }

    /// Center point.
    pub fn center(&self) -> PointN<D> {
        let mut c = [0.0; D];
        for (i, v) in c.iter_mut().enumerate() {
            *v = (self.lo.coord(i) + self.hi.coord(i)) / 2.0;
        }
        PointN::new(c)
    }

    /// True if the closed rectangles intersect.
    pub fn intersects(&self, other: &Self) -> bool {
        (0..D)
            .all(|i| self.lo.coord(i) <= other.hi.coord(i) && other.lo.coord(i) <= self.hi.coord(i))
    }

    /// True if `self` contains `p`.
    pub fn contains_point(&self, p: &PointN<D>) -> bool {
        (0..D).all(|i| self.lo.coord(i) <= p.coord(i) && p.coord(i) <= self.hi.coord(i))
    }

    /// True if `self` fully contains `other`.
    pub fn contains_rect(&self, other: &Self) -> bool {
        (0..D)
            .all(|i| self.lo.coord(i) <= other.lo.coord(i) && self.hi.coord(i) >= other.hi.coord(i))
    }

    /// Smallest rectangle enclosing both.
    pub fn union(&self, other: &Self) -> Self {
        RectN {
            lo: self.lo.min(&other.lo),
            hi: self.hi.max(&other.hi),
        }
    }

    /// Intersection, or `None` if disjoint.
    pub fn intersection(&self, other: &Self) -> Option<Self> {
        if !self.intersects(other) {
            return None;
        }
        Some(RectN {
            lo: self.lo.max(&other.lo),
            hi: self.hi.min(&other.hi),
        })
    }

    /// Volume enlargement needed to include `other`.
    pub fn enlargement(&self, other: &Self) -> f64 {
        self.union(other).volume() - self.volume()
    }

    /// §3.2 generalized: grow each axis `i` by `q[i]` keeping the center
    /// fixed — a query of size `q` centered at `c` intersects `self` iff
    /// `c` lies inside the expansion.
    pub fn expand_centered(&self, q: &[f64; D]) -> Self {
        let mut lo = [0.0; D];
        let mut hi = [0.0; D];
        for i in 0..D {
            lo[i] = self.lo.coord(i) - q[i] / 2.0;
            hi[i] = self.hi.coord(i) + q[i] / 2.0;
        }
        RectN {
            lo: PointN::new(lo),
            hi: PointN::new(hi),
        }
    }

    /// True if all coordinates are finite and ordered.
    pub fn is_valid(&self) -> bool {
        self.lo.is_finite()
            && self.hi.is_finite()
            && (0..D).all(|i| self.lo.coord(i) <= self.hi.coord(i))
    }
}

impl<const D: usize> fmt::Display for RectN<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} - {}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cube(lo: f64, hi: f64) -> RectN<3> {
        RectN::new(PointN::new([lo; 3]), PointN::new([hi; 3]))
    }

    #[test]
    fn volume_margin_extents() {
        let r = RectN::new(PointN::new([0.0, 0.0, 0.0]), PointN::new([0.5, 0.2, 0.1]));
        assert!((r.volume() - 0.01).abs() < 1e-12);
        assert!((r.margin() - 0.8).abs() < 1e-12);
        assert_eq!(r.extent(0), 0.5);
    }

    #[test]
    fn unit_cube_volume_is_one() {
        assert_eq!(RectN::<4>::unit().volume(), 1.0);
        assert_eq!(RectN::<4>::unit().margin(), 4.0);
    }

    #[test]
    fn intersection_union_containment() {
        let a = cube(0.0, 0.5);
        let b = cube(0.25, 0.75);
        assert!(a.intersects(&b));
        let i = a.intersection(&b).unwrap();
        assert!((i.volume() - 0.25f64.powi(3)).abs() < 1e-12);
        let u = a.union(&b);
        assert!(u.contains_rect(&a) && u.contains_rect(&b));
        assert!(!a.contains_rect(&b));
        let far = cube(0.9, 1.0);
        assert!(!a.intersects(&far));
        assert!(a.intersection(&far).is_none());
    }

    #[test]
    fn expand_centered_matches_intersection_rule() {
        let r = cube(0.4, 0.6);
        let q = [0.2, 0.1, 0.3];
        let expanded = r.expand_centered(&q);
        // A query centered inside the expansion intersects; outside misses.
        let inside = PointN::new([0.31, 0.5, 0.5]);
        let outside = PointN::new([0.29, 0.5, 0.5]);
        let make = |c: PointN<3>| RectN::centered(c, q);
        assert_eq!(
            expanded.contains_point(&inside),
            r.intersects(&make(inside))
        );
        assert_eq!(
            expanded.contains_point(&outside),
            r.intersects(&make(outside))
        );
        assert!(expanded.contains_point(&inside));
        assert!(!expanded.contains_point(&outside));
    }

    #[test]
    fn enlargement() {
        let a = cube(0.0, 1.0);
        let b = cube(0.2, 0.3);
        assert_eq!(a.enlargement(&b), 0.0);
        assert!(b.enlargement(&a) > 0.0);
    }

    #[test]
    fn degenerate_point() {
        let p = RectN::point(PointN::new([0.5, 0.5]));
        assert_eq!(p.volume(), 0.0);
        assert!(p.is_valid());
        assert!(p.contains_point(&PointN::new([0.5, 0.5])));
    }
}
