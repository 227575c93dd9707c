//! Rect-vs-many-rects kernels over a flat SoA layout.
//!
//! The traversal hot paths test one query rectangle (or point) against
//! every entry of a node page at once. Stored as a structure of arrays
//! (four parallel `f64` slices), each test is a handful of branch-free
//! comparisons per entry over contiguous memory — no pointer chase through
//! `(Rect, u64)` pairs and no per-entry gather when the page itself is
//! stored SoA (page format v3).
//!
//! Two kernels exist, each in three variants (scalar reference, portable
//! lane-chunked, AVX2 — see [`crate::simd`] for dispatch and the
//! NaN/infinity policy):
//!
//! - [`RectSoA::intersecting`] — region queries and frontier expansion (a
//!   point query is the degenerate rectangle `[p, p]`);
//! - [`RectSoA::min_dist2_within`] — kNN bound pruning: minimum squared
//!   distances with entries past the current bound discarded in-kernel.
//!
//! Each variant's loop is written once ([`scan`]) over where the lanes come
//! from ([`Plane`]: a decoded [`RectSoA`], or page bytes where they lie —
//! [`crate::planes`]) and what is asked of them ([`Test`]).
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

    /// Mutable access to the four coordinate arrays — the page decoder's
    /// zero-gather fill seam (reuse the capacity, extend each array in one
    /// contiguous pass). The caller must leave all four the same length;
    /// the kernels assert it.
    pub fn arrays_mut(&mut self) -> (&mut Vec<f64>, &mut Vec<f64>, &mut Vec<f64>, &mut Vec<f64>) {
        (
            &mut self.lo_x,
            &mut self.lo_y,
            &mut self.hi_x,
            &mut self.hi_y,
        )
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

    fn planes(&self) -> Planes<&[f64]> {
        [&self.lo_x, &self.lo_y, &self.hi_x, &self.hi_y]
    }

    /// Appends the index of every rectangle intersecting `q` to `out`, in
    /// ascending order, through the dispatched kernel (see
    /// [`crate::simd::active_kernel`]).
    #[inline]
    pub fn intersecting(&self, q: &Rect, out: &mut Vec<u32>) {
        self.intersecting_with(active_kernel(), q, out)
    }

    /// Scalar reference implementation of [`RectSoA::intersecting`]: one
    /// [`Rect::intersects`] call per entry. The property suite checks every
    /// other variant against this for arbitrary inputs.
    pub fn intersecting_scalar(&self, q: &Rect, out: &mut Vec<u32>) {
        self.intersecting_with(KernelKind::Scalar, q, out)
    }

    /// [`RectSoA::intersecting`] through one named variant (the
    /// differential suites pin each to the scalar one).
    ///
    /// # Panics
    /// Panics if this build or CPU cannot run `kind`.
    pub fn intersecting_with(&self, kind: KernelKind, q: &Rect, out: &mut Vec<u32>) {
        scan::<_, _, false>(kind, self.planes(), Intersects(*q), out);
    }

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
        self.min_dist2_within_with(active_kernel(), p, bound, out)
    }

    /// Scalar reference for [`RectSoA::min_dist2_within`].
    pub fn min_dist2_within_scalar(&self, p: &Point, bound: f64, out: &mut Vec<(u32, f64)>) {
        self.min_dist2_within_with(KernelKind::Scalar, p, bound, out)
    }

    /// [`RectSoA::min_dist2_within`] through one named variant.
    ///
    /// # Panics
    /// Panics if this build or CPU cannot run `kind`.
    pub fn min_dist2_within_with(
        &self,
        kind: KernelKind,
        p: &Point,
        bound: f64,
        out: &mut Vec<(u32, f64)>,
    ) {
        scan::<_, _, false>(kind, self.planes(), Within { p: *p, bound }, out);
    }
}

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::__m256d;

/// One coordinate plane as the kernels read it: lanes come from a decoded
/// `f64` slice or from page bytes where they lie ([`crate::planes`]), so
/// each loop below is written once for every source.
pub(crate) trait Plane: Copy {
    /// Number of lanes.
    fn len(self) -> usize;

    /// Lane `i`.
    fn get(self, i: usize) -> f64;

    /// Lanes `i..i + 4`.
    ///
    /// # Safety
    /// `i + 4 <= len()`, and the CPU supports AVX2.
    #[cfg(target_arch = "x86_64")]
    unsafe fn load4(self, i: usize) -> __m256d;
}

impl Plane for &[f64] {
    #[inline(always)]
    fn len(self) -> usize {
        <[f64]>::len(self)
    }

    #[inline(always)]
    fn get(self, i: usize) -> f64 {
        self[i]
    }

    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn load4(self, i: usize) -> __m256d {
        // SAFETY (caller): lanes i..i + 4 are in bounds; loadu needs no
        // alignment.
        std::arch::x86_64::_mm256_loadu_pd(self.as_ptr().add(i))
    }
}

/// The four planes `[lo_x, lo_y, hi_x, hi_y]` of a kernel's input.
pub(crate) type Planes<P> = [P; 4];

/// Entry `i`, reassembled without validation.
#[inline(always)]
pub(crate) fn rect_at<P: Plane>([lo_x, lo_y, hi_x, hi_y]: Planes<P>, i: usize) -> Rect {
    Rect {
        lo: Point::new(lo_x.get(i), lo_y.get(i)),
        hi: Point::new(hi_x.get(i), hi_y.get(i)),
    }
}

/// What a scan asks of every entry: which ones to keep, and what a kept one
/// appends to the output. The per-entry form is the reference; the vector
/// forms compute the same thing on one register of lanes.
pub(crate) trait Test: Copy {
    /// What a kept entry appends.
    type Hit;

    /// Whether to keep `r`, and the value its hit reports.
    fn one(self, r: &Rect) -> (bool, f64);

    /// The hit of kept entry `i`, whose test reported `value`.
    fn hit(i: usize, value: f64) -> Self::Hit;

    /// [`Test::one`] on four entries: a keep bit and a value per lane.
    ///
    /// # Safety
    /// The CPU supports AVX2.
    #[cfg(target_arch = "x86_64")]
    unsafe fn four(self, lanes: Planes<__m256d>) -> (i32, __m256d);
}

/// Keeps the entries intersecting the rectangle (closed on both ends); a
/// hit is the entry's index.
#[derive(Clone, Copy)]
pub(crate) struct Intersects(pub Rect);

impl Test for Intersects {
    type Hit = u32;

    #[inline(always)]
    fn one(self, r: &Rect) -> (bool, f64) {
        (r.intersects(&self.0), 0.0)
    }

    #[inline(always)]
    fn hit(i: usize, _: f64) -> u32 {
        i as u32
    }

    /// Ordered non-signaling compares: `NaN` never matches, exactly like
    /// scalar `<=`.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn four(self, [lo_x, lo_y, hi_x, hi_y]: Planes<__m256d>) -> (i32, __m256d) {
        use std::arch::x86_64::*;
        let q = self.0;
        let m = _mm256_and_pd(
            _mm256_and_pd(
                _mm256_cmp_pd::<_CMP_LE_OQ>(lo_x, _mm256_set1_pd(q.hi.x)),
                _mm256_cmp_pd::<_CMP_LE_OQ>(_mm256_set1_pd(q.lo.x), hi_x),
            ),
            _mm256_and_pd(
                _mm256_cmp_pd::<_CMP_LE_OQ>(lo_y, _mm256_set1_pd(q.hi.y)),
                _mm256_cmp_pd::<_CMP_LE_OQ>(_mm256_set1_pd(q.lo.y), hi_y),
            ),
        );
        (_mm256_movemask_pd(m), _mm256_setzero_pd())
    }
}

/// Keeps the entries whose minimum squared distance to `p` is `<= bound`; a
/// hit is the entry's index and that distance.
#[derive(Clone, Copy)]
pub(crate) struct Within {
    pub p: Point,
    pub bound: f64,
}

impl Test for Within {
    type Hit = (u32, f64);

    #[inline(always)]
    fn one(self, r: &Rect) -> (bool, f64) {
        let d2 = min_dist2_select(&self.p, r.lo.x, r.lo.y, r.hi.x, r.hi.y);
        (d2 <= self.bound, d2)
    }

    #[inline(always)]
    fn hit(i: usize, d2: f64) -> (u32, f64) {
        (i as u32, d2)
    }

    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn four(self, [lo_x, lo_y, hi_x, hi_y]: Planes<__m256d>) -> (i32, __m256d) {
        use std::arch::x86_64::*;
        let (px, py) = (_mm256_set1_pd(self.p.x), _mm256_set1_pd(self.p.y));
        let zero = _mm256_setzero_pd();
        // max(max(lo - p, p - hi), 0): MAXPD's "return the second operand
        // unless the first compares greater" is exactly smax.
        let dx = _mm256_max_pd(
            _mm256_max_pd(_mm256_sub_pd(lo_x, px), _mm256_sub_pd(px, hi_x)),
            zero,
        );
        let dy = _mm256_max_pd(
            _mm256_max_pd(_mm256_sub_pd(lo_y, py), _mm256_sub_pd(py, hi_y)),
            zero,
        );
        let d2 = _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy));
        let keep = _mm256_cmp_pd::<_CMP_LE_OQ>(d2, _mm256_set1_pd(self.bound));
        (_mm256_movemask_pd(keep), d2)
    }
}

/// Calls `f` with the position of every set bit, lowest first.
#[inline(always)]
pub(crate) fn for_each_bit(mut mask: u64, mut f: impl FnMut(usize)) {
    while mask != 0 {
        f(mask.trailing_zeros() as usize);
        mask &= mask - 1;
    }
}

/// Appends the hit of every entry `test` keeps to `out`, in ascending index
/// order, through variant `kind`. With `CHECK`, also returns whether every
/// entry is a valid rectangle ([`Rect::is_valid`]); `out` is unspecified
/// when one is not.
///
/// # Panics
/// Panics if the planes differ in length or `kind` cannot run here.
#[inline]
pub(crate) fn scan<P: Plane, T: Test, const CHECK: bool>(
    kind: KernelKind,
    planes: Planes<P>,
    test: T,
    out: &mut Vec<T::Hit>,
) -> bool {
    assert!(
        planes.iter().all(|p| p.len() == planes[0].len()),
        "SoA arrays differ in length"
    );
    assert!(kind.is_available(), "{kind:?} kernel is not available");
    match kind {
        KernelKind::Scalar => scan_from::<P, T, CHECK>(planes, 0, test, out),
        // SAFETY: the variant is available and the planes are one length,
        // of which the vector loops stop a register short.
        #[cfg(target_arch = "x86_64")]
        KernelKind::Avx2 => unsafe { scan_avx2::<P, T, CHECK>(planes, test, out) },
        // Portable, and the cross-compile fallback for a variant compiled
        // out above (which `is_available` never admits).
        _ => scan_portable::<P, T, CHECK>(planes, test, out),
    }
}

/// The scalar reference, one entry at a time from entry `from` on: the
/// whole `Scalar` variant, and the tail of the vector ones.
fn scan_from<P: Plane, T: Test, const CHECK: bool>(
    planes: Planes<P>,
    from: usize,
    test: T,
    out: &mut Vec<T::Hit>,
) -> bool {
    for i in from..planes[0].len() {
        let r = rect_at(planes, i);
        if CHECK && !r.is_valid() {
            return false;
        }
        let (keep, value) = test.one(&r);
        if keep {
            out.push(T::hit(i, value));
        }
    }
    true
}

/// Portable lane-chunked variant: the test is evaluated branch-free into a
/// per-block bitmask (a loop LLVM autovectorizes on any target), then set
/// bits are drained.
fn scan_portable<P: Plane, T: Test, const CHECK: bool>(
    planes: Planes<P>,
    test: T,
    out: &mut Vec<T::Hit>,
) -> bool {
    let n = planes[0].len();
    let mut ok = true;
    let mut values = [0.0f64; BLOCK];
    let mut base = 0;
    while base < n {
        let end = (base + BLOCK).min(n);
        let mut mask = 0u64;
        for (j, value) in values.iter_mut().enumerate().take(end - base) {
            let r = rect_at(planes, base + j);
            let (keep, v) = test.one(&r);
            *value = v;
            mask |= (keep as u64) << j;
            if CHECK {
                ok &= r.is_valid();
            }
        }
        for_each_bit(mask, |bit| out.push(T::hit(base + bit, values[bit])));
        base = end;
    }
    ok
}

/// Explicit AVX2 variant: 4 `f64` lanes per step.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn scan_avx2<P: Plane, T: Test, const CHECK: bool>(
    planes: Planes<P>,
    test: T,
    out: &mut Vec<T::Hit>,
) -> bool {
    use std::arch::x86_64::*;
    let [lo_x, lo_y, hi_x, hi_y] = planes;
    let n = lo_x.len();
    let mut values = [0.0f64; 4];
    let mut ok = 0xF;
    let mut i = 0usize;
    while i + 4 <= n {
        // SAFETY (caller + loop bound): i + 4 <= n, so all four loads read
        // in-bounds.
        let v = [lo_x.load4(i), lo_y.load4(i), hi_x.load4(i), hi_y.load4(i)];
        if CHECK {
            // `Rect::is_valid` per lane: `lo <= hi` on both axes, and all
            // four finite — `x - x` is 0 for a finite `x`, NaN otherwise.
            let ordered = _mm256_and_pd(
                _mm256_cmp_pd::<_CMP_LE_OQ>(v[0], v[2]),
                _mm256_cmp_pd::<_CMP_LE_OQ>(v[1], v[3]),
            );
            let poison = _mm256_add_pd(
                _mm256_add_pd(_mm256_sub_pd(v[0], v[0]), _mm256_sub_pd(v[1], v[1])),
                _mm256_add_pd(_mm256_sub_pd(v[2], v[2]), _mm256_sub_pd(v[3], v[3])),
            );
            let finite = _mm256_cmp_pd::<_CMP_EQ_OQ>(poison, _mm256_setzero_pd());
            ok &= _mm256_movemask_pd(_mm256_and_pd(ordered, finite));
        }
        let (keep, lanes) = test.four(v);
        if keep != 0 {
            _mm256_storeu_pd(values.as_mut_ptr(), lanes);
            for_each_bit(keep as u64, |b| out.push(T::hit(i + b, values[b])));
        }
        i += 4;
    }
    (ok == 0xF) & scan_from::<P, T, CHECK>(planes, i, test, out)
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
            for kind in crate::available_kernels() {
                let mut fast = Vec::new();
                soa.intersecting_with(kind, q, &mut fast);
                assert_eq!(fast, slow, "{kind:?} vs scalar, query {q}");
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
    fn mbr_is_the_union() {
        let soa =
            RectSoA::from_rects(&[Rect::new(0.0, 0.1, 0.2, 0.3), Rect::new(0.5, 0.6, 0.9, 0.8)]);
        assert_eq!(soa.mbr(), Some(Rect::new(0.0, 0.1, 0.9, 0.8)));
        assert_eq!(RectSoA::new().mbr(), None);
    }

    #[test]
    #[should_panic(expected = "differ in length")]
    fn kernels_reject_ragged_arrays() {
        let mut soa = RectSoA::from_rects(&[Rect::new(0.0, 0.0, 1.0, 1.0)]);
        soa.arrays_mut().2.push(0.5);
        soa.intersecting(&Rect::new(0.0, 0.0, 1.0, 1.0), &mut Vec::new());
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
