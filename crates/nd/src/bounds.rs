//! [`RectN`] as the bounding box of `rtree-index`'s tree and loaders.

use crate::{HilbertCurveN, PointN, RectN};
use rtree_index::Bounds;

/// Bits per axis of a curve key: the requested order, or as many as fit a
/// `u64` key across `D` axes if that is fewer.
fn key_bits<const D: usize>(order: u32) -> u32 {
    order.min(64 / D as u32)
}

impl<const D: usize> Bounds for RectN<D> {
    const DIM: usize = D;

    fn union(&self, other: &Self) -> Self {
        RectN::union(self, other)
    }

    fn volume(&self) -> f64 {
        RectN::volume(self)
    }

    fn enlargement(&self, other: &Self) -> f64 {
        RectN::enlargement(self, other)
    }

    fn intersects(&self, other: &Self) -> bool {
        RectN::intersects(self, other)
    }

    fn is_valid(&self) -> bool {
        RectN::is_valid(self)
    }

    fn center_coord(&self, axis: usize) -> f64 {
        (self.lo.coord(axis) + self.hi.coord(axis)) / 2.0
    }

    /// Skilling's curve — the paper's HS loader in `D` dimensions.
    fn hilbert_key(&self, order: u32) -> u64 {
        HilbertCurveN::<D>::new(key_bits::<D>(order)).index_of(&self.center())
    }

    fn morton_key(&self, order: u32) -> u64 {
        morton_index_nd(&self.center(), key_bits::<D>(order))
    }

    fn center_distance(&self, other: &Self) -> f64 {
        self.center().distance(&other.center())
    }

    fn overlap(&self, other: &Self) -> f64 {
        self.intersection(other).map_or(0.0, |i| i.volume())
    }
}

/// Morton index of a point in the unit hypercube: interleaves the top
/// `bits` bits of each quantized coordinate, axis 0 most significant.
fn morton_index_nd<const D: usize>(p: &PointN<D>, bits: u32) -> u64 {
    let side = 1u64 << bits;
    let mut cells = [0u64; D];
    for (i, cell) in cells.iter_mut().enumerate() {
        let c = (p.coord(i).clamp(0.0, 1.0) * side as f64) as u64;
        *cell = c.min(side - 1);
    }
    let mut out = 0u64;
    for bit in (0..bits).rev() {
        for cell in &cells {
            out = (out << 1) | ((cell >> bit) & 1);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn morton_is_monotone_along_axis_prefix() {
        let a = morton_index_nd(&PointN::new([0.1, 0.5, 0.5]), 16);
        let b = morton_index_nd(&PointN::new([0.9, 0.5, 0.5]), 16);
        assert!(a < b);
    }

    #[test]
    fn curve_keys_fit_in_every_dimension() {
        // 16 bits per axis fit up to D = 4; beyond that the order clamps.
        assert_eq!(key_bits::<3>(16), 16);
        assert_eq!(key_bits::<5>(16), 12);
        let r = RectN::<5>::unit();
        let _ = (r.hilbert_key(16), r.morton_key(16));
    }

    #[test]
    fn trait_and_inherent_operations_agree() {
        let a = RectN::new(PointN::new([0.0; 3]), PointN::new([0.5; 3]));
        let b = RectN::new(PointN::new([0.25; 3]), PointN::new([0.75; 3]));
        let c = RectN::new(PointN::new([0.9; 3]), PointN::new([1.0; 3]));
        assert_eq!(Bounds::mbr_of(&[b, c, a]), RectN::unit());
        assert!((Bounds::overlap(&a, &b) - 0.25f64.powi(3)).abs() < 1e-12);
        assert_eq!(Bounds::center_coord(&b, 2), 0.5);
        assert_eq!(
            Bounds::center_distance(&a, &b),
            a.center().distance(&b.center())
        );
    }
}
