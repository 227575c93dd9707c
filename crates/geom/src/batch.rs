//! Rect-vs-many-rects kernels over the coordinate planes of a node page.
//!
//! The traversal hot paths test one query rectangle (or point) against
//! every entry of a node page at once. Stored as a structure of arrays
//! (four parallel coordinate planes), each test is a handful of branch-free
//! comparisons per entry over contiguous memory — no pointer chase through
//! `(Rect, u64)` pairs and no per-entry gather, because the pages
//! themselves store their entries as planes.
//!
//! Two kernels exist, each in three variants (scalar reference, portable
//! lane-chunked, AVX2 — see [`crate::simd`] for dispatch and the
//! NaN/infinity policy):
//!
//! - intersection ([`Intersects`]) — region queries and frontier expansion
//!   (a point query is the degenerate rectangle `[p, p]`);
//! - distance ([`Within`]) — kNN bound pruning: minimum squared distances
//!   with entries past the current bound discarded in-kernel.
//!
//! Each variant's loop is written once ([`scan`]) over how the lanes are
//! read ([`Plane`]: `f64` or dequantized `u16` page bytes where they lie —
//! [`crate::planes`]) and what is asked of them ([`Test`]).
//!
//! Intersection is closed on both ends, exactly like [`Rect::intersects`]:
//! rectangles that merely touch (shared edge or corner) intersect, and
//! degenerate (zero-extent) rectangles behave like points. The scalar
//! variant is the obviously-correct reference the others are
//! property-tested against (`tests/simd_vs_scalar.rs`, on page bytes of
//! every layout); it is the differential oracle and is never deleted.

use crate::simd::KernelKind;
use crate::{Point, Rect};

/// Block width for the portable kernel's bitmask accumulator: comparisons
/// are evaluated branch-free over blocks this wide and matches are
/// extracted from a `u64` mask per block.
const BLOCK: usize = 64;

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::__m256d;

/// One coordinate plane as the kernels read it: lanes read from page bytes
/// where they lie ([`crate::planes`]), so each loop below is written once
/// for every page layout.
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

    /// Whether `other` is this very plane (a point page passes its `x` and
    /// `y` planes as `hi` too): the AVX2 scan then loads each lane once.
    fn same(self, _other: Self) -> bool {
        false
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
        KernelKind::Avx2 if planes[0].same(planes[2]) && planes[1].same(planes[3]) => unsafe {
            scan_avx2::<P, T, CHECK, true>(planes, test, out)
        },
        #[cfg(target_arch = "x86_64")]
        KernelKind::Avx2 => unsafe { scan_avx2::<P, T, CHECK, false>(planes, test, out) },
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

/// Explicit AVX2 variant: 4 `f64` lanes per step. With `POINTS` the `hi`
/// planes are the `lo` ones ([`Plane::same`]), loaded once and handed to the
/// test as both, so the answers are the four-plane loop's by construction.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn scan_avx2<P: Plane, T: Test, const CHECK: bool, const POINTS: bool>(
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
        // SAFETY (caller + loop bound): i + 4 <= n, so all loads read
        // in-bounds.
        let (x, y) = (lo_x.load4(i), lo_y.load4(i));
        let v = match POINTS {
            true => [x, y, x, y],
            false => [x, y, hi_x.load4(i), hi_y.load4(i)],
        };
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
    use crate::{active_kernel, available_kernels, EntryPlanes, Point, Rect};

    /// `rects` as a page stores them: four planes of little-endian `f64`
    /// lanes, `[lo_x, lo_y, hi_x, hi_y]`, back to back.
    fn page_bytes(rects: &[Rect]) -> Vec<u8> {
        let coords: [fn(&Rect) -> f64; 4] = [|r| r.lo.x, |r| r.lo.y, |r| r.hi.x, |r| r.hi.y];
        let plane = |c: fn(&Rect) -> f64| rects.iter().flat_map(move |r| c(r).to_le_bytes());
        coords.into_iter().flat_map(plane).collect()
    }

    /// The entry planes of [`page_bytes`]' output, read in place.
    fn planes(bytes: &[u8]) -> EntryPlanes<'_> {
        let len = bytes.len() / 4;
        EntryPlanes::F64(std::array::from_fn(|k| &bytes[k * len..][..len]))
    }

    fn grid(n: usize) -> Vec<Rect> {
        (0..n)
            .map(|i| {
                let x = (i % 10) as f64 / 10.0;
                let y = (i / 10) as f64 / 10.0;
                Rect::new(x, y, x + 0.1, y + 0.1)
            })
            .collect()
    }

    #[test]
    fn kernels_match_scalar_on_a_grid() {
        // 150 rects spans multiple mask blocks (and non-multiple-of-lane
        // tails).
        let rects = grid(150);
        let bytes = page_bytes(&rects);
        let queries = [
            Rect::new(0.0, 0.0, 1.0, 1.0),
            Rect::new(0.25, 0.25, 0.55, 0.35),
            Rect::new(0.1, 0.1, 0.1, 0.1), // degenerate point on a corner
            Rect::new(2.0, 2.0, 3.0, 3.0), // disjoint from everything
        ];
        for q in &queries {
            let direct = (0..150).filter(|&i| rects[i as usize].intersects(q));
            let direct: Vec<u32> = direct.collect();
            // Scalar first: the reference is one `Rect::intersects` per entry.
            for kind in available_kernels() {
                let mut got = Vec::new();
                planes(&bytes).intersecting(kind, q, &mut got).unwrap();
                assert_eq!(got, direct, "{kind:?}, query {q}");
            }
        }
    }

    #[test]
    fn touching_edges_count_as_intersecting() {
        let bytes = page_bytes(&[Rect::new(0.5, 0.0, 1.0, 1.0)]);
        for kind in available_kernels() {
            let mut out = Vec::new();
            let q = Rect::new(0.0, 0.0, 0.5, 1.0);
            planes(&bytes).intersecting(kind, &q, &mut out).unwrap();
            assert_eq!(out, vec![0], "shared edge intersects (closed intervals)");
        }
    }

    #[test]
    fn round_trips_and_clears() {
        // An entry reads back from page bytes as the rectangle written;
        // planes cut to no entries hold nothing.
        let r = Rect::new(0.1, 0.2, 0.3, 0.4);
        assert_eq!(planes(&page_bytes(&[r])).get(0), r);
        let empty = planes(&[]);
        assert_eq!(empty.mbr(), Ok(None));
        let mut out = Vec::new();
        empty.intersecting(active_kernel(), &r, &mut out).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn mbr_is_the_union() {
        let rects = [Rect::new(0.0, 0.1, 0.2, 0.3), Rect::new(0.5, 0.6, 0.9, 0.8)];
        let bytes = page_bytes(&rects);
        assert_eq!(
            planes(&bytes).mbr(),
            Ok(Some(Rect::new(0.0, 0.1, 0.9, 0.8)))
        );
        assert_eq!(planes(&[]).mbr(), Ok(None));
    }

    #[test]
    #[should_panic(expected = "differ in length")]
    fn kernels_reject_ragged_arrays() {
        let bytes = page_bytes(&[Rect::new(0.0, 0.0, 1.0, 1.0)]);
        let hi_x = [&bytes[16..24], &0.5f64.to_le_bytes()[..]].concat();
        let ragged = EntryPlanes::F64([&bytes[..8], &bytes[8..16], &hi_x, &bytes[24..]]);
        let everything = Rect::new(0.0, 0.0, 1.0, 1.0);
        let _ = ragged.intersecting(active_kernel(), &everything, &mut Vec::new());
    }

    #[test]
    fn min_dist2_matches_reference_and_prunes() {
        let rects = grid(97);
        let bytes = page_bytes(&rects);
        let p = Point::new(0.42, 0.13);
        let within = |kind, bound| {
            let mut out = Vec::new();
            planes(&bytes)
                .min_dist2_within(kind, &p, bound, &mut out)
                .unwrap();
            out
        };
        let all = within(crate::KernelKind::Scalar, f64::INFINITY);
        assert_eq!(all.len(), rects.len(), "infinite bound keeps everything");
        // Textbook MINDIST agreement on valid rectangles.
        for &(i, d2) in &all {
            let r = rects[i as usize];
            let dx = (r.lo.x - p.x).max(0.0).max(p.x - r.hi.x);
            let dy = (r.lo.y - p.y).max(0.0).max(p.y - r.hi.y);
            assert_eq!(d2, dx * dx + dy * dy, "entry {i}");
        }
        // A finite bound is honored (closed: <=), in every variant.
        let bound = 0.05;
        let want: Vec<(u32, f64)> = all.iter().copied().filter(|&(_, d)| d <= bound).collect();
        for kind in available_kernels() {
            assert_eq!(within(kind, bound), want, "{kind:?}");
        }
    }
}
