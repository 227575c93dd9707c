//! The Hilbert curve in N dimensions (Skilling's transpose algorithm).
//!
//! The 2-D rotate/reflect formulation of `rtree-geom` does not extend past
//! two axes; Skilling's algorithm ("Programming the Hilbert curve", AIP
//! CP 707, 2004) computes the curve in any dimension by a Gray-code
//! transform of the coordinate bits followed by bit interleaving. This
//! gives `RectN` a Hilbert sort key, completing the paper's loader roster
//! in higher dimensions.

use crate::PointN;

/// Transforms axis coordinates (each `bits` wide) into Skilling's
/// "transpose" form, in place. After the transform, interleaving the bits
/// of `x` (axis 0 carrying the most significant bit of each group) yields
/// the Hilbert index.
fn axes_to_transpose(x: &mut [u32], bits: u32) {
    let n = x.len();
    let m = 1u32 << (bits - 1);

    // Inverse undo.
    let mut q = m;
    while q > 1 {
        let p = q - 1;
        for i in 0..n {
            if x[i] & q != 0 {
                x[0] ^= p; // invert low bits of axis 0
            } else {
                let t = (x[0] ^ x[i]) & p;
                x[0] ^= t;
                x[i] ^= t;
            }
        }
        q >>= 1;
    }

    // Gray encode.
    for i in 1..n {
        x[i] ^= x[i - 1];
    }
    let mut t = 0u32;
    let mut q = m;
    while q > 1 {
        if x[n - 1] & q != 0 {
            t ^= q - 1;
        }
        q >>= 1;
    }
    for v in x.iter_mut() {
        *v ^= t;
    }
}

/// Hilbert index of the grid cell with coordinates `cell` (each `< 2^bits`)
/// on the order-`bits` curve in `D` dimensions. The result occupies
/// `D * bits` bits, so `D * bits` must be at most 64.
pub fn hilbert_index_nd<const D: usize>(cell: [u32; D], bits: u32) -> u64 {
    assert!(
        bits >= 1 && (D as u32) * bits <= 64,
        "index must fit in u64"
    );
    debug_assert!(cell.iter().all(|&c| c < (1u32 << bits)));
    let mut x = cell;
    axes_to_transpose(&mut x, bits);
    // Interleave: bit (bits-1-b) of every axis, axis 0 first.
    let mut out = 0u64;
    for b in (0..bits).rev() {
        for v in x.iter().take(D) {
            out = (out << 1) | u64::from((v >> b) & 1);
        }
    }
    out
}

/// A Hilbert curve over the unit hypercube.
#[derive(Clone, Copy, Debug)]
pub struct HilbertCurveN<const D: usize> {
    bits: u32,
}

impl<const D: usize> HilbertCurveN<D> {
    /// Creates a curve of a given order.
    ///
    /// # Panics
    /// Panics unless `1 <= bits` and `D * bits <= 64`.
    pub fn new(bits: u32) -> Self {
        assert!(bits >= 1 && (D as u32) * bits <= 64);
        HilbertCurveN { bits }
    }

    /// Hilbert index of the cell containing a point of the unit hypercube
    /// (out-of-range coordinates clamp to the boundary cells).
    pub fn index_of(&self, p: &PointN<D>) -> u64 {
        let side = 1u64 << self.bits;
        let mut cell = [0u32; D];
        for (i, c) in cell.iter_mut().enumerate() {
            let q = (p.coord(i).clamp(0.0, 1.0) * side as f64) as u64;
            *c = q.min(side - 1) as u32;
        }
        hilbert_index_nd(cell, self.bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Enumerates every cell of the `2^bits`-sided D-cube.
    fn all_cells<const D: usize>(bits: u32) -> Vec<[u32; D]> {
        let side = 1u32 << bits;
        let mut out = vec![[0u32; D]];
        for axis in 0..D {
            let mut next = Vec::with_capacity(out.len() * side as usize);
            for cell in &out {
                for v in 0..side {
                    let mut c = *cell;
                    c[axis] = v;
                    next.push(c);
                }
            }
            out = next;
        }
        out
    }

    fn check_space_filling<const D: usize>(bits: u32) {
        let cells = all_cells::<D>(bits);
        let mut keyed: Vec<(u64, [u32; D])> = cells
            .iter()
            .map(|&c| (hilbert_index_nd(c, bits), c))
            .collect();
        keyed.sort_unstable();
        // Bijective: indices are exactly 0..cells.
        for (expect, (idx, _)) in keyed.iter().enumerate() {
            assert_eq!(*idx, expect as u64, "{D}-D order-{bits} not bijective");
        }
        // Hilbert property: consecutive cells along the curve are grid
        // neighbors (Manhattan distance 1).
        for w in keyed.windows(2) {
            let d: u32 = (0..D).map(|i| w[0].1[i].abs_diff(w[1].1[i])).sum();
            assert_eq!(
                d, 1,
                "{D}-D order-{bits}: jump between {:?} and {:?}",
                w[0].1, w[1].1
            );
        }
    }

    #[test]
    fn two_d_space_filling() {
        check_space_filling::<2>(1);
        check_space_filling::<2>(3);
    }

    #[test]
    fn three_d_space_filling() {
        check_space_filling::<3>(1);
        check_space_filling::<3>(2);
        check_space_filling::<3>(3);
    }

    #[test]
    fn four_d_space_filling() {
        check_space_filling::<4>(1);
        check_space_filling::<4>(2);
    }

    #[test]
    fn five_d_space_filling() {
        check_space_filling::<5>(1);
    }

    #[test]
    fn curve_index_of_clamps_and_fits() {
        let c = HilbertCurveN::<3>::new(16);
        let a = c.index_of(&PointN::new([0.5, 0.5, 0.5]));
        let b = c.index_of(&PointN::new([2.0, -1.0, 0.5]));
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic]
    fn rejects_overflowing_order() {
        let _ = HilbertCurveN::<4>::new(17);
    }
}
