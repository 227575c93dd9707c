//! Rect-vs-many-rects kernels over a flat SoA layout.
//!
//! The traversal hot paths test one query rectangle (or point) against
//! every entry of a node page at once. Stored as a structure of arrays
//! (four parallel `f64` slices), each test is a handful of branch-free
//! comparisons per entry over contiguous memory — no pointer chase through
//! `(Rect, u64)` pairs and no per-entry gather when the page itself is
//! stored SoA (page format v3).
//!
//! Three kernels exist, each in four variants (scalar reference, portable
//! lane-chunked, AVX2, NEON — see [`crate::simd`] for dispatch and the
//! NaN/infinity policy):
//!
//! - [`RectSoA::intersecting`] — region queries and frontier expansion;
//! - [`RectSoA::containing_point`] — point/contains queries (a degenerate
//!   query rectangle, same comparisons with half the constants);
//! - [`RectSoA::min_dist2_within`] — kNN bound pruning: minimum squared
//!   distances with entries past the current bound discarded in-kernel.
//!
//! Intersection is closed on both ends, exactly like [`Rect::intersects`]:
//! rectangles that merely touch (shared edge or corner) intersect, and
//! degenerate (zero-extent) rectangles behave like points. The
//! `*_scalar` variants are the obviously-correct references the others are
//! property-tested against (`tests/simd_vs_scalar.rs`); they are the
//! differential oracle and are never deleted.

use crate::simd::{active_kernel, KernelKind};
use crate::{Point, Rect};

/// Block width for the portable kernel's bitmask accumulator: comparisons
/// are evaluated branch-free over blocks this wide and matches are
/// extracted from a `u64` mask per block.
const BLOCK: usize = 64;

/// A set of rectangles in structure-of-arrays layout.
///
/// # Examples
///
/// ```
/// use rtree_geom::{Rect, RectSoA};
///
/// let soa = RectSoA::from_rects(&[
///     Rect::new(0.0, 0.0, 0.2, 0.2),
///     Rect::new(0.5, 0.5, 0.7, 0.7),
///     Rect::new(0.2, 0.2, 0.4, 0.4), // touches the query corner
/// ]);
/// let mut out = Vec::new();
/// soa.intersecting(&Rect::new(0.1, 0.1, 0.2, 0.2), &mut out);
/// assert_eq!(out, vec![0, 2]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct RectSoA {
    lo_x: Vec<f64>,
    lo_y: Vec<f64>,
    hi_x: Vec<f64>,
    hi_y: Vec<f64>,
}

impl RectSoA {
    /// Creates an empty set.
    pub fn new() -> Self {
        RectSoA::default()
    }

    /// Creates an empty set with room for `n` rectangles.
    pub fn with_capacity(n: usize) -> Self {
        RectSoA {
            lo_x: Vec::with_capacity(n),
            lo_y: Vec::with_capacity(n),
            hi_x: Vec::with_capacity(n),
            hi_y: Vec::with_capacity(n),
        }
    }

    /// Builds the set from a slice of rectangles.
    pub fn from_rects(rects: &[Rect]) -> Self {
        let mut soa = RectSoA::with_capacity(rects.len());
        for r in rects {
            soa.push(r);
        }
        soa
    }

    /// Builds the set from four coordinate arrays (already SoA — the page
    /// decoder's constructor).
    ///
    /// # Panics
    /// Panics if the arrays differ in length.
    pub fn from_arrays(lo_x: Vec<f64>, lo_y: Vec<f64>, hi_x: Vec<f64>, hi_y: Vec<f64>) -> Self {
        assert!(
            lo_x.len() == lo_y.len() && lo_x.len() == hi_x.len() && lo_x.len() == hi_y.len(),
            "SoA arrays differ in length"
        );
        RectSoA {
            lo_x,
            lo_y,
            hi_x,
            hi_y,
        }
    }

    /// Appends one rectangle; its index is `len() - 1` afterwards.
    pub fn push(&mut self, r: &Rect) {
        self.lo_x.push(r.lo.x);
        self.lo_y.push(r.lo.y);
        self.hi_x.push(r.hi.x);
        self.hi_y.push(r.hi.y);
    }

    /// Removes every rectangle, keeping the allocations.
    pub fn clear(&mut self) {
        self.lo_x.clear();
        self.lo_y.clear();
        self.hi_x.clear();
        self.hi_y.clear();
    }

    /// Number of rectangles in the set.
    pub fn len(&self) -> usize {
        self.lo_x.len()
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.lo_x.is_empty()
    }

    /// The four coordinate arrays `(lo_x, lo_y, hi_x, hi_y)`.
    pub fn arrays(&self) -> (&[f64], &[f64], &[f64], &[f64]) {
        (&self.lo_x, &self.lo_y, &self.hi_x, &self.hi_y)
    }

    /// Mutable access to the four coordinate arrays — the page decoder's
    /// zero-gather fill seam (reuse the capacity, extend each array in one
    /// contiguous pass). The caller must leave all four the same length;
    /// the kernels `debug_assert` it.
    pub fn arrays_mut(&mut self) -> (&mut Vec<f64>, &mut Vec<f64>, &mut Vec<f64>, &mut Vec<f64>) {
        (
            &mut self.lo_x,
            &mut self.lo_y,
            &mut self.hi_x,
            &mut self.hi_y,
        )
    }

    #[inline]
    fn debug_assert_coherent(&self) {
        debug_assert!(
            self.lo_x.len() == self.lo_y.len()
                && self.lo_x.len() == self.hi_x.len()
                && self.lo_x.len() == self.hi_y.len(),
            "SoA arrays differ in length"
        );
    }

    /// The rectangle at `i`, reassembled. No validation is applied: the set
    /// may deliberately hold adversarial coordinates (the property suite
    /// feeds inverted and non-finite rectangles through every kernel), so
    /// this bypasses [`Rect::new`]'s debug validity assertion.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> Rect {
        Rect {
            lo: Point::new(self.lo_x[i], self.lo_y[i]),
            hi: Point::new(self.hi_x[i], self.hi_y[i]),
        }
    }

    /// The MBR of the set, or `None` if it is empty.
    pub fn mbr(&self) -> Option<Rect> {
        if self.is_empty() {
            return None;
        }
        let mut acc = self.get(0);
        for i in 1..self.len() {
            acc = acc.union(&self.get(i));
        }
        Some(acc)
    }

    // ---- Intersection -------------------------------------------------

    /// Appends the index of every rectangle intersecting `q` to `out`, in
    /// ascending order, through the dispatched kernel (see
    /// [`crate::simd::active_kernel`]).
    #[inline]
    pub fn intersecting(&self, q: &Rect, out: &mut Vec<u32>) {
        match active_kernel() {
            KernelKind::Scalar => self.intersecting_scalar(q, out),
            KernelKind::Portable => self.intersecting_portable(q, out),
            #[cfg(target_arch = "x86_64")]
            KernelKind::Avx2 => self.intersecting_avx2(q, out),
            #[cfg(target_arch = "aarch64")]
            KernelKind::Neon => self.intersecting_neon(q, out),
            // An unavailable kind cannot be selected; this arm is the
            // cross-compile fallback for the variants compiled out above.
            #[allow(unreachable_patterns)]
            _ => self.intersecting_portable(q, out),
        }
    }

    /// Scalar reference implementation of [`RectSoA::intersecting`]: one
    /// [`Rect::intersects`] call per entry. The property suite checks every
    /// other variant against this for arbitrary inputs.
    pub fn intersecting_scalar(&self, q: &Rect, out: &mut Vec<u32>) {
        self.debug_assert_coherent();
        for i in 0..self.len() {
            if self.get(i).intersects(q) {
                out.push(i as u32);
            }
        }
    }

    /// Portable lane-chunked variant: comparisons are evaluated branch-free
    /// into a per-block bitmask (a loop LLVM autovectorizes on any target),
    /// then set bits are drained.
    pub fn intersecting_portable(&self, q: &Rect, out: &mut Vec<u32>) {
        self.debug_assert_coherent();
        let n = self.len();
        let mut base = 0;
        while base < n {
            let end = (base + BLOCK).min(n);
            let (lo_x, lo_y) = (&self.lo_x[base..end], &self.lo_y[base..end]);
            let (hi_x, hi_y) = (&self.hi_x[base..end], &self.hi_y[base..end]);
            let mut mask = 0u64;
            for j in 0..lo_x.len() {
                // `&` (not `&&`): no short-circuit branches in the hot loop.
                let hit = (lo_x[j] <= q.hi.x)
                    & (q.lo.x <= hi_x[j])
                    & (lo_y[j] <= q.hi.y)
                    & (q.lo.y <= hi_y[j]);
                mask |= (hit as u64) << j;
            }
            while mask != 0 {
                let bit = mask.trailing_zeros() as usize;
                out.push((base + bit) as u32);
                mask &= mask - 1;
            }
            base = end;
        }
    }

    /// Explicit AVX2 variant: 4 `f64` lanes per step, ordered non-signaling
    /// compares (`NaN` never matches, exactly like scalar `<=`).
    ///
    /// # Panics
    /// Panics if the CPU lacks AVX2 — gate on
    /// [`crate::simd::KernelKind::is_available`].
    #[cfg(target_arch = "x86_64")]
    pub fn intersecting_avx2(&self, q: &Rect, out: &mut Vec<u32>) {
        assert!(
            KernelKind::Avx2.is_available(),
            "AVX2 kernel invoked without AVX2 support"
        );
        self.debug_assert_coherent();
        // SAFETY: AVX2 support was just verified; the shim reads only
        // in-bounds lanes (the loop stops 4 short of the end, the tail is
        // scalar).
        unsafe { self.intersecting_avx2_inner(q, out) }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn intersecting_avx2_inner(&self, q: &Rect, out: &mut Vec<u32>) {
        use std::arch::x86_64::*;
        let n = self.len();
        let q_lo_x = _mm256_set1_pd(q.lo.x);
        let q_lo_y = _mm256_set1_pd(q.lo.y);
        let q_hi_x = _mm256_set1_pd(q.hi.x);
        let q_hi_y = _mm256_set1_pd(q.hi.y);
        let mut i = 0usize;
        while i + 4 <= n {
            // SAFETY (caller + loop bound): i + 4 <= n, so all four loads
            // read in-bounds; loadu requires no alignment.
            let lo_x = _mm256_loadu_pd(self.lo_x.as_ptr().add(i));
            let lo_y = _mm256_loadu_pd(self.lo_y.as_ptr().add(i));
            let hi_x = _mm256_loadu_pd(self.hi_x.as_ptr().add(i));
            let hi_y = _mm256_loadu_pd(self.hi_y.as_ptr().add(i));
            let m = _mm256_and_pd(
                _mm256_and_pd(
                    _mm256_cmp_pd::<_CMP_LE_OQ>(lo_x, q_hi_x),
                    _mm256_cmp_pd::<_CMP_LE_OQ>(q_lo_x, hi_x),
                ),
                _mm256_and_pd(
                    _mm256_cmp_pd::<_CMP_LE_OQ>(lo_y, q_hi_y),
                    _mm256_cmp_pd::<_CMP_LE_OQ>(q_lo_y, hi_y),
                ),
            );
            let mut bits = _mm256_movemask_pd(m) as u32;
            while bits != 0 {
                out.push(i as u32 + bits.trailing_zeros());
                bits &= bits - 1;
            }
            i += 4;
        }
        for j in i..n {
            let hit = (self.lo_x[j] <= q.hi.x)
                & (q.lo.x <= self.hi_x[j])
                & (self.lo_y[j] <= q.hi.y)
                & (q.lo.y <= self.hi_y[j]);
            if hit {
                out.push(j as u32);
            }
        }
    }

    /// Explicit NEON variant: 2 `f64` lanes per step (aarch64 always has
    /// NEON, so no runtime check is needed).
    #[cfg(target_arch = "aarch64")]
    pub fn intersecting_neon(&self, q: &Rect, out: &mut Vec<u32>) {
        self.debug_assert_coherent();
        // SAFETY: NEON is baseline on aarch64; the shim reads only
        // in-bounds lanes (the loop stops 2 short of the end, the tail is
        // scalar).
        unsafe { self.intersecting_neon_inner(q, out) }
    }

    #[cfg(target_arch = "aarch64")]
    #[target_feature(enable = "neon")]
    unsafe fn intersecting_neon_inner(&self, q: &Rect, out: &mut Vec<u32>) {
        use std::arch::aarch64::*;
        let n = self.len();
        let q_lo_x = vdupq_n_f64(q.lo.x);
        let q_lo_y = vdupq_n_f64(q.lo.y);
        let q_hi_x = vdupq_n_f64(q.hi.x);
        let q_hi_y = vdupq_n_f64(q.hi.y);
        let mut i = 0usize;
        while i + 2 <= n {
            // SAFETY (caller + loop bound): i + 2 <= n, so all loads are
            // in-bounds.
            let lo_x = vld1q_f64(self.lo_x.as_ptr().add(i));
            let lo_y = vld1q_f64(self.lo_y.as_ptr().add(i));
            let hi_x = vld1q_f64(self.hi_x.as_ptr().add(i));
            let hi_y = vld1q_f64(self.hi_y.as_ptr().add(i));
            let m = vandq_u64(
                vandq_u64(vcleq_f64(lo_x, q_hi_x), vcleq_f64(q_lo_x, hi_x)),
                vandq_u64(vcleq_f64(lo_y, q_hi_y), vcleq_f64(q_lo_y, hi_y)),
            );
            if vgetq_lane_u64::<0>(m) != 0 {
                out.push(i as u32);
            }
            if vgetq_lane_u64::<1>(m) != 0 {
                out.push(i as u32 + 1);
            }
            i += 2;
        }
        for j in i..n {
            let hit = (self.lo_x[j] <= q.hi.x)
                & (q.lo.x <= self.hi_x[j])
                & (self.lo_y[j] <= q.hi.y)
                & (q.lo.y <= self.hi_y[j]);
            if hit {
                out.push(j as u32);
            }
        }
    }

    // ---- Point containment --------------------------------------------

    /// Appends the index of every rectangle containing `p` (boundary
    /// inclusive) to `out`, in ascending order, through the dispatched
    /// kernel. Identical to [`RectSoA::intersecting`] with the degenerate
    /// query `[p, p]` — the point/contains traversal path.
    #[inline]
    pub fn containing_point(&self, p: &Point, out: &mut Vec<u32>) {
        self.intersecting(&Rect { lo: *p, hi: *p }, out)
    }

    /// Scalar reference for [`RectSoA::containing_point`]: one
    /// [`Rect::contains_point`] call per entry.
    pub fn containing_point_scalar(&self, p: &Point, out: &mut Vec<u32>) {
        self.debug_assert_coherent();
        for i in 0..self.len() {
            if self.get(i).contains_point(p) {
                out.push(i as u32);
            }
        }
    }

    // ---- kNN bound pruning --------------------------------------------

    /// Appends `(index, min_dist²)` for every rectangle whose minimum
    /// squared Euclidean distance to `p` is `<= bound`, in ascending index
    /// order, through the dispatched kernel — the kNN bound-pruning path
    /// (entries farther than the current k-th best never leave the kernel).
    ///
    /// Distances use *select-max* semantics (see [`crate::simd`] for the
    /// NaN policy); for valid rectangles they equal the textbook
    /// `MINDIST`: 0 inside, squared axis gap outside.
    #[inline]
    pub fn min_dist2_within(&self, p: &Point, bound: f64, out: &mut Vec<(u32, f64)>) {
        match active_kernel() {
            KernelKind::Scalar => self.min_dist2_within_scalar(p, bound, out),
            KernelKind::Portable => self.min_dist2_within_portable(p, bound, out),
            #[cfg(target_arch = "x86_64")]
            KernelKind::Avx2 => self.min_dist2_within_avx2(p, bound, out),
            #[cfg(target_arch = "aarch64")]
            KernelKind::Neon => self.min_dist2_within_neon(p, bound, out),
            #[allow(unreachable_patterns)]
            _ => self.min_dist2_within_portable(p, bound, out),
        }
    }

    /// Scalar reference for [`RectSoA::min_dist2_within`].
    pub fn min_dist2_within_scalar(&self, p: &Point, bound: f64, out: &mut Vec<(u32, f64)>) {
        self.debug_assert_coherent();
        for i in 0..self.len() {
            let d2 = min_dist2_select(p, self.lo_x[i], self.lo_y[i], self.hi_x[i], self.hi_y[i]);
            if d2 <= bound {
                out.push((i as u32, d2));
            }
        }
    }

    /// Portable lane-chunked variant of [`RectSoA::min_dist2_within`].
    pub fn min_dist2_within_portable(&self, p: &Point, bound: f64, out: &mut Vec<(u32, f64)>) {
        self.debug_assert_coherent();
        let n = self.len();
        let mut d2s = [0.0f64; BLOCK];
        let mut base = 0;
        while base < n {
            let end = (base + BLOCK).min(n);
            let (lo_x, lo_y) = (&self.lo_x[base..end], &self.lo_y[base..end]);
            let (hi_x, hi_y) = (&self.hi_x[base..end], &self.hi_y[base..end]);
            let mut mask = 0u64;
            for j in 0..lo_x.len() {
                let dx = smax(smax(lo_x[j] - p.x, p.x - hi_x[j]), 0.0);
                let dy = smax(smax(lo_y[j] - p.y, p.y - hi_y[j]), 0.0);
                let d2 = dx * dx + dy * dy;
                d2s[j] = d2;
                mask |= ((d2 <= bound) as u64) << j;
            }
            while mask != 0 {
                let bit = mask.trailing_zeros() as usize;
                out.push(((base + bit) as u32, d2s[bit]));
                mask &= mask - 1;
            }
            base = end;
        }
    }

    /// Explicit AVX2 variant of [`RectSoA::min_dist2_within`].
    ///
    /// # Panics
    /// Panics if the CPU lacks AVX2 — gate on
    /// [`crate::simd::KernelKind::is_available`].
    #[cfg(target_arch = "x86_64")]
    pub fn min_dist2_within_avx2(&self, p: &Point, bound: f64, out: &mut Vec<(u32, f64)>) {
        assert!(
            KernelKind::Avx2.is_available(),
            "AVX2 kernel invoked without AVX2 support"
        );
        self.debug_assert_coherent();
        // SAFETY: AVX2 support was just verified; lanes are in-bounds as in
        // the intersection shim.
        unsafe { self.min_dist2_within_avx2_inner(p, bound, out) }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn min_dist2_within_avx2_inner(&self, p: &Point, bound: f64, out: &mut Vec<(u32, f64)>) {
        use std::arch::x86_64::*;
        let n = self.len();
        let px = _mm256_set1_pd(p.x);
        let py = _mm256_set1_pd(p.y);
        let zero = _mm256_setzero_pd();
        let bound_v = _mm256_set1_pd(bound);
        let mut lanes = [0.0f64; 4];
        let mut i = 0usize;
        while i + 4 <= n {
            // SAFETY (caller + loop bound): i + 4 <= n.
            let lo_x = _mm256_loadu_pd(self.lo_x.as_ptr().add(i));
            let lo_y = _mm256_loadu_pd(self.lo_y.as_ptr().add(i));
            let hi_x = _mm256_loadu_pd(self.hi_x.as_ptr().add(i));
            let hi_y = _mm256_loadu_pd(self.hi_y.as_ptr().add(i));
            // max(max(lo - p, p - hi), 0): MAXPD's "return the second
            // operand unless the first compares greater" is exactly smax.
            let dx = _mm256_max_pd(
                _mm256_max_pd(_mm256_sub_pd(lo_x, px), _mm256_sub_pd(px, hi_x)),
                zero,
            );
            let dy = _mm256_max_pd(
                _mm256_max_pd(_mm256_sub_pd(lo_y, py), _mm256_sub_pd(py, hi_y)),
                zero,
            );
            let d2 = _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy));
            let mut bits = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(d2, bound_v)) as u32;
            if bits != 0 {
                _mm256_storeu_pd(lanes.as_mut_ptr(), d2);
                while bits != 0 {
                    let b = bits.trailing_zeros();
                    out.push((i as u32 + b, lanes[b as usize]));
                    bits &= bits - 1;
                }
            }
            i += 4;
        }
        for j in i..n {
            let d2 = min_dist2_select(p, self.lo_x[j], self.lo_y[j], self.hi_x[j], self.hi_y[j]);
            if d2 <= bound {
                out.push((j as u32, d2));
            }
        }
    }

    /// Explicit NEON variant of [`RectSoA::min_dist2_within`]. Uses
    /// compare-and-bit-select rather than `vmaxq_f64` so the max chain has
    /// the same select semantics as the scalar and AVX2 variants (NEON's
    /// `FMAX` propagates NaN; `FCMGT` + `BSL` does not).
    #[cfg(target_arch = "aarch64")]
    pub fn min_dist2_within_neon(&self, p: &Point, bound: f64, out: &mut Vec<(u32, f64)>) {
        self.debug_assert_coherent();
        // SAFETY: NEON is baseline on aarch64; lanes are in-bounds as in
        // the intersection shim.
        unsafe { self.min_dist2_within_neon_inner(p, bound, out) }
    }

    #[cfg(target_arch = "aarch64")]
    #[target_feature(enable = "neon")]
    unsafe fn min_dist2_within_neon_inner(&self, p: &Point, bound: f64, out: &mut Vec<(u32, f64)>) {
        use std::arch::aarch64::*;
        /// `if a > b { a } else { b }` per lane — select semantics.
        #[inline(always)]
        unsafe fn smax2(a: float64x2_t, b: float64x2_t) -> float64x2_t {
            vbslq_f64(vcgtq_f64(a, b), a, b)
        }
        let n = self.len();
        let px = vdupq_n_f64(p.x);
        let py = vdupq_n_f64(p.y);
        let zero = vdupq_n_f64(0.0);
        let bound_v = vdupq_n_f64(bound);
        let mut i = 0usize;
        while i + 2 <= n {
            // SAFETY (caller + loop bound): i + 2 <= n.
            let lo_x = vld1q_f64(self.lo_x.as_ptr().add(i));
            let lo_y = vld1q_f64(self.lo_y.as_ptr().add(i));
            let hi_x = vld1q_f64(self.hi_x.as_ptr().add(i));
            let hi_y = vld1q_f64(self.hi_y.as_ptr().add(i));
            let dx = smax2(smax2(vsubq_f64(lo_x, px), vsubq_f64(px, hi_x)), zero);
            let dy = smax2(smax2(vsubq_f64(lo_y, py), vsubq_f64(py, hi_y)), zero);
            let d2 = vfmaq_f64(vmulq_f64(dx, dx), dy, dy);
            let keep = vcleq_f64(d2, bound_v);
            if vgetq_lane_u64::<0>(keep) != 0 {
                out.push((i as u32, vgetq_lane_f64::<0>(d2)));
            }
            if vgetq_lane_u64::<1>(keep) != 0 {
                out.push((i as u32 + 1, vgetq_lane_f64::<1>(d2)));
            }
            i += 2;
        }
        for j in i..n {
            let d2 = min_dist2_select(p, self.lo_x[j], self.lo_y[j], self.hi_x[j], self.hi_y[j]);
            if d2 <= bound {
                out.push((j as u32, d2));
            }
        }
    }
}

/// `if a > b { a } else { b }`: the *select-max* every kernel variant's max
/// chain uses, matching `MAXPD` exactly (returns the second operand when
/// the comparison is false or unordered) — unlike `f64::max`, whose maxNum
/// semantics suppress NaN.
#[inline(always)]
fn smax(a: f64, b: f64) -> f64 {
    if a > b {
        a
    } else {
        b
    }
}

/// Minimum squared distance from `p` to the rectangle, in select-max
/// semantics (the kernels' shared scalar tail).
#[inline(always)]
fn min_dist2_select(p: &Point, lo_x: f64, lo_y: f64, hi_x: f64, hi_y: f64) -> f64 {
    let dx = smax(smax(lo_x - p.x, p.x - hi_x), 0.0);
    let dy = smax(smax(lo_y - p.y, p.y - hi_y), 0.0);
    dx * dx + dy * dy
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(n: usize) -> RectSoA {
        let mut soa = RectSoA::new();
        for i in 0..n {
            let x = (i % 10) as f64 / 10.0;
            let y = (i / 10) as f64 / 10.0;
            soa.push(&Rect::new(x, y, x + 0.1, y + 0.1));
        }
        soa
    }

    type Runner = fn(&RectSoA, &Rect, &mut Vec<u32>);

    /// Every variant compiled into this build, as (name, runner) pairs.
    fn intersect_variants() -> Vec<(&'static str, Runner)> {
        let mut v: Vec<(&'static str, Runner)> = vec![
            ("portable", RectSoA::intersecting_portable),
            ("dispatch", RectSoA::intersecting),
        ];
        #[cfg(target_arch = "x86_64")]
        if KernelKind::Avx2.is_available() {
            v.push(("avx2", RectSoA::intersecting_avx2));
        }
        #[cfg(target_arch = "aarch64")]
        v.push(("neon", RectSoA::intersecting_neon));
        v
    }

    #[test]
    fn kernels_match_scalar_on_a_grid() {
        // 150 rects spans multiple mask blocks (and non-multiple-of-lane
        // tails).
        let soa = grid(150);
        let queries = [
            Rect::new(0.0, 0.0, 1.0, 1.0),
            Rect::new(0.25, 0.25, 0.55, 0.35),
            Rect::new(0.1, 0.1, 0.1, 0.1), // degenerate point on a corner
            Rect::new(2.0, 2.0, 3.0, 3.0), // disjoint from everything
        ];
        for q in &queries {
            let mut slow = Vec::new();
            soa.intersecting_scalar(q, &mut slow);
            for (name, run) in intersect_variants() {
                let mut fast = Vec::new();
                run(&soa, q, &mut fast);
                assert_eq!(fast, slow, "{name} vs scalar, query {q}");
            }
        }
    }

    #[test]
    fn touching_edges_count_as_intersecting() {
        let soa = RectSoA::from_rects(&[Rect::new(0.5, 0.0, 1.0, 1.0)]);
        let mut out = Vec::new();
        soa.intersecting(&Rect::new(0.0, 0.0, 0.5, 1.0), &mut out);
        assert_eq!(out, vec![0], "shared edge intersects (closed intervals)");
    }

    #[test]
    fn round_trips_and_clears() {
        let r = Rect::new(0.1, 0.2, 0.3, 0.4);
        let mut soa = RectSoA::new();
        assert!(soa.is_empty());
        soa.push(&r);
        assert_eq!(soa.len(), 1);
        assert_eq!(soa.get(0), r);
        soa.clear();
        assert!(soa.is_empty());
    }

    #[test]
    fn from_arrays_and_mbr() {
        let soa = RectSoA::from_arrays(
            vec![0.0, 0.5],
            vec![0.1, 0.6],
            vec![0.2, 0.9],
            vec![0.3, 0.8],
        );
        assert_eq!(soa.len(), 2);
        assert_eq!(soa.mbr(), Some(Rect::new(0.0, 0.1, 0.9, 0.8)));
        assert_eq!(RectSoA::new().mbr(), None);
    }

    #[test]
    #[should_panic]
    fn from_arrays_rejects_ragged_input() {
        let _ = RectSoA::from_arrays(vec![0.0], vec![], vec![0.0], vec![0.0]);
    }

    #[test]
    fn containing_point_equals_degenerate_intersection() {
        let soa = grid(73);
        for p in [
            Point::new(0.1, 0.1), // corner of several cells
            Point::new(0.45, 0.25),
            Point::new(3.0, 3.0), // outside everything
        ] {
            let (mut by_point, mut by_rect, mut scalar) = (Vec::new(), Vec::new(), Vec::new());
            soa.containing_point(&p, &mut by_point);
            soa.intersecting(&Rect::point(p), &mut by_rect);
            soa.containing_point_scalar(&p, &mut scalar);
            assert_eq!(by_point, by_rect);
            assert_eq!(by_point, scalar);
        }
    }

    #[test]
    fn min_dist2_matches_reference_and_prunes() {
        let soa = grid(97);
        let p = Point::new(0.42, 0.13);
        let mut all = Vec::new();
        soa.min_dist2_within_scalar(&p, f64::INFINITY, &mut all);
        assert_eq!(all.len(), soa.len(), "infinite bound keeps everything");
        // Textbook MINDIST agreement on valid rectangles.
        for &(i, d2) in &all {
            let r = soa.get(i as usize);
            let dx = (r.lo.x - p.x).max(0.0).max(p.x - r.hi.x);
            let dy = (r.lo.y - p.y).max(0.0).max(p.y - r.hi.y);
            assert_eq!(d2, dx * dx + dy * dy, "entry {i}");
        }
        // A finite bound is honored (closed: <=).
        let bound = 0.05;
        let mut kept = Vec::new();
        soa.min_dist2_within(&p, bound, &mut kept);
        let want: Vec<(u32, f64)> = all.iter().copied().filter(|&(_, d)| d <= bound).collect();
        assert_eq!(kept, want);
    }
}
