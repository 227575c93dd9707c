//! The bounding box the tree is generic over.
//!
//! The paper works in 2-D "for notational simplicity"; nothing in the
//! R-tree itself depends on the dimension. [`Bounds`] is the handful of
//! box operations Guttman insertion, the packing loaders and region search
//! need. [`Rect`] implements it by delegating to its own methods, so every
//! 2-D float operation is the one the paper numbers were produced with;
//! `rtree-nd` implements it for its const-generic `RectN<D>`.

use rtree_geom::{HilbertCurve, MortonCurve, Rect};
use std::fmt::{Debug, Display};

/// An axis-aligned bounding box in [`Bounds::DIM`] dimensions.
pub trait Bounds: Copy + PartialEq + Debug + Display + 'static {
    /// Number of axes.
    const DIM: usize;

    /// Smallest box enclosing both.
    fn union(&self, other: &Self) -> Self;

    /// Area in 2-D, volume in general.
    fn volume(&self) -> f64;

    /// Growth in volume needed to include `other` (Guttman's ChooseLeaf
    /// criterion).
    fn enlargement(&self, other: &Self) -> f64;

    /// True if the closed boxes intersect (touching counts).
    fn intersects(&self, other: &Self) -> bool;

    /// True if all coordinates are finite and ordered.
    fn is_valid(&self) -> bool;

    /// Coordinate of the center along `axis` (`0..DIM`).
    fn center_coord(&self, axis: usize) -> f64;

    /// Position of the center along a Hilbert curve over the unit cube with
    /// `order` bits per axis (fewer where `DIM * order` would not fit the
    /// key).
    fn hilbert_key(&self, order: u32) -> u64;

    /// Position of the center along the Morton (Z-order) curve; `order` as
    /// for [`Bounds::hilbert_key`].
    fn morton_key(&self, order: u32) -> u64;

    /// Distance between the two centers (R* forced reinsertion).
    fn center_distance(&self, other: &Self) -> f64;

    /// Volume of the intersection, 0 if disjoint (R* ChooseSubtree).
    fn overlap(&self, other: &Self) -> f64;

    /// Bounding box of a non-empty slice.
    ///
    /// # Panics
    /// Panics if `boxes` is empty.
    fn mbr_of(boxes: &[Self]) -> Self {
        assert!(!boxes.is_empty(), "MBR of empty set is undefined");
        boxes[1..].iter().fold(boxes[0], |acc, b| acc.union(b))
    }
}

impl Bounds for Rect {
    const DIM: usize = 2;

    #[inline]
    fn union(&self, other: &Self) -> Self {
        Rect::union(self, other)
    }

    #[inline]
    fn volume(&self) -> f64 {
        self.area()
    }

    #[inline]
    fn enlargement(&self, other: &Self) -> f64 {
        Rect::enlargement(self, other)
    }

    #[inline]
    fn intersects(&self, other: &Self) -> bool {
        Rect::intersects(self, other)
    }

    #[inline]
    fn is_valid(&self) -> bool {
        Rect::is_valid(self)
    }

    #[inline]
    fn center_coord(&self, axis: usize) -> f64 {
        let c = self.center();
        [c.x, c.y][axis]
    }

    #[inline]
    fn hilbert_key(&self, order: u32) -> u64 {
        HilbertCurve::new(order).index_of(&self.center())
    }

    #[inline]
    fn morton_key(&self, order: u32) -> u64 {
        MortonCurve::new(order).index_of(&self.center())
    }

    #[inline]
    fn center_distance(&self, other: &Self) -> f64 {
        self.center().distance(&other.center())
    }

    #[inline]
    fn overlap(&self, other: &Self) -> f64 {
        self.intersection(other).map_or(0.0, |i| i.area())
    }
}
