//! SIMD-vs-scalar property suite: every kernel variant compiled into this
//! build (portable, AVX2, and the runtime dispatcher itself) must
//! agree bit-for-bit with the scalar reference over *adversarial* inputs —
//! not just the valid rectangles production pages hold.
//!
//! Adversarial means: degenerate (zero-area) rects, exactly-touching edges
//! (coarse-grid coordinates make them common), negative coordinates,
//! infinities, NaN, inverted (`min > max`) rectangles that would never
//! survive page-decode validation, and set lengths straddling the kernels'
//! chunk boundaries (0, 1, 63, 64, 65 for the 64-wide portable mask; the
//! 4-lane AVX2 tail falls out of the same lengths).
//!
//! The NaN policy pinned here (and documented in `rtree_geom::simd`):
//!
//! - **Intersection** uses IEEE ordered comparisons — any compare against
//!   NaN is false, so a NaN coordinate in either operand means *no match*.
//! - **Distance** max chains use select semantics
//!   (`if a > b { a } else { b }`), matching `_mm256_max_pd`; a NaN term
//!   drops out of the chain, and a NaN distance (possible via `∞ − ∞`)
//!   satisfies no bound.

use proptest::prelude::*;
use rtree_geom::quant::{dequant, quantum, QMAX};
use rtree_geom::{available_kernels, CorruptEntry, EntryPlanes, KernelKind, Point, Rect, RectSoA};

type IntersectFn = Box<dyn Fn(&RectSoA, &Rect, &mut Vec<u32>)>;
type DistFn = Box<dyn Fn(&RectSoA, &Point, f64, &mut Vec<(u32, f64)>)>;

/// Every intersection variant this build + CPU can run (scalar included:
/// `intersecting_with(Scalar)` must be `intersecting_scalar`). The
/// dispatcher is included so whatever the environment selected is covered
/// too.
fn intersect_variants() -> Vec<(&'static str, IntersectFn)> {
    let mut v: Vec<(&'static str, IntersectFn)> =
        vec![("dispatch", Box::new(|s, q, out| s.intersecting(q, out)))];
    for kind in available_kernels() {
        v.push((
            kind.name(),
            Box::new(move |s, q, out| s.intersecting_with(kind, q, out)),
        ));
    }
    v
}

fn dist_variants() -> Vec<(&'static str, DistFn)> {
    let mut v: Vec<(&'static str, DistFn)> = vec![(
        "dispatch",
        Box::new(|s, p, bound, out| s.min_dist2_within(p, bound, out)),
    )];
    for kind in available_kernels() {
        v.push((
            kind.name(),
            Box::new(move |s, p, bound, out| s.min_dist2_within_with(kind, p, bound, out)),
        ));
    }
    v
}

/// Compare (index, distance) lists with NaN treated as equal to itself —
/// the variants must agree on *which* entries yield NaN, not on NaN's
/// (non-)equality.
fn assert_dist_eq(name: &str, fast: &[(u32, f64)], slow: &[(u32, f64)]) {
    assert_eq!(fast.len(), slow.len(), "{name}: lengths differ");
    for (f, s) in fast.iter().zip(slow) {
        assert_eq!(f.0, s.0, "{name}: index mismatch");
        assert!(
            f.1 == s.1 || (f.1.is_nan() && s.1.is_nan()),
            "{name}: distance mismatch at {}: {} vs {}",
            f.0,
            f.1,
            s.1
        );
    }
}

/// Adversarial coordinates: a coarse grid (touching edges), negatives,
/// infinities, NaN, and a continuous range.
fn adversarial_coord() -> impl Strategy<Value = f64> {
    prop_oneof![
        (-8i8..=8).prop_map(|i| f64::from(i) / 8.0),
        (-8i8..=8).prop_map(|i| f64::from(i) / 8.0),
        (-8i8..=8).prop_map(|i| f64::from(i) / 8.0),
        (-8i8..=8).prop_map(|i| f64::from(i) / 8.0),
        -1.0f64..=1.0,
        -1.0f64..=1.0,
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::NAN),
        Just(-0.0f64),
        Just(1e300),
        Just(-1e300),
    ]
}

/// Fully adversarial rectangles: no ordering between lo and hi is imposed,
/// so inverted (`min > max`) and NaN rectangles are common.
fn adversarial_rect() -> impl Strategy<Value = Rect> {
    (
        adversarial_coord(),
        adversarial_coord(),
        adversarial_coord(),
        adversarial_coord(),
    )
        .prop_map(|(x0, y0, x1, y1)| Rect {
            lo: Point::new(x0, y0),
            hi: Point::new(x1, y1),
        })
}

fn adversarial_point() -> impl Strategy<Value = Point> {
    (adversarial_coord(), adversarial_coord()).prop_map(|(x, y)| Point::new(x, y))
}

/// Rect sets at sizes pinned to the chunk boundaries (0, 1, …, 63, 64, 65,
/// 127, 128) plus arbitrary fill lengths: a full-size set is generated and
/// truncated to the selected boundary.
fn adversarial_set() -> impl Strategy<Value = Vec<Rect>> {
    const LENS: [usize; 12] = [0, 1, 2, 3, 4, 5, 63, 64, 65, 102, 127, 128];
    (
        0usize..18,
        prop::collection::vec(adversarial_rect(), 130usize),
    )
        .prop_map(|(sel, mut v)| {
            let n = if sel < LENS.len() {
                LENS[sel]
            } else {
                6 + sel * 7
            };
            v.truncate(n.min(130));
            v
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Intersection: every variant == scalar reference, over adversarial
    /// rects and queries at chunk-boundary lengths.
    #[test]
    fn intersection_variants_match_scalar(
        rects in adversarial_set(),
        queries in prop::collection::vec(adversarial_rect(), 1..8),
    ) {
        let soa = RectSoA::from_rects(&rects);
        let mut slow = Vec::new();
        for q in &queries {
            slow.clear();
            soa.intersecting_scalar(q, &mut slow);
            for (name, run) in intersect_variants() {
                let mut fast = Vec::new();
                run(&soa, q, &mut fast);
                prop_assert_eq!(&fast, &slow, "{} vs scalar, query {:?}", name, q);
            }
        }
    }

    /// Point containment is the degenerate query `[p, p]`: every variant ==
    /// scalar `Rect::contains_point`, over adversarial rects and points
    /// (including NaN points, which are contained by nothing).
    #[test]
    fn containment_variants_match_scalar(
        rects in adversarial_set(),
        p in adversarial_point(),
    ) {
        let soa = RectSoA::from_rects(&rects);
        let slow: Vec<u32> = (0..rects.len() as u32)
            .filter(|&i| rects[i as usize].contains_point(&p))
            .collect();
        for (name, run) in intersect_variants() {
            let mut fast = Vec::new();
            run(&soa, &Rect { lo: p, hi: p }, &mut fast);
            prop_assert_eq!(&fast, &slow, "{} vs scalar, point {:?}", name, p);
        }
    }

    /// Distance pruning: every variant == scalar reference — same surviving
    /// indices, same distances (NaN agreeing with NaN) — over adversarial
    /// inputs and bounds (including infinite and NaN bounds).
    #[test]
    fn distance_variants_match_scalar(
        rects in adversarial_set(),
        p in adversarial_point(),
        bound in prop_oneof![
            0.0f64..=4.0,
            0.0f64..=4.0,
            0.0f64..=4.0,
            0.0f64..=4.0,
            Just(f64::INFINITY),
            Just(0.0f64),
            Just(f64::NAN),
        ],
    ) {
        let soa = RectSoA::from_rects(&rects);
        let mut slow = Vec::new();
        soa.min_dist2_within_scalar(&p, bound, &mut slow);
        for (name, run) in dist_variants() {
            let mut fast = Vec::new();
            run(&soa, &p, bound, &mut fast);
            assert_dist_eq(name, &fast, &slow);
        }
    }
}

// ---- Pinned, non-property regressions ---------------------------------

/// NaN policy, pinned: a NaN rectangle intersects nothing, and a NaN query
/// matches nothing — in every variant.
#[test]
fn nan_matches_nothing() {
    let nan_rect = Rect {
        lo: Point::new(f64::NAN, 0.0),
        hi: Point::new(1.0, 1.0),
    };
    let soa = RectSoA::from_rects(&[nan_rect, Rect::new(0.0, 0.0, 1.0, 1.0)]);
    let everything = Rect::new(-1e308, -1e308, 1e308, 1e308);
    let nan_query = Rect {
        lo: Point::new(f64::NAN, f64::NAN),
        hi: Point::new(f64::NAN, f64::NAN),
    };
    for (name, run) in intersect_variants() {
        let mut out = Vec::new();
        run(&soa, &everything, &mut out);
        assert_eq!(out, vec![1], "{name}: NaN rect must not match");
        out.clear();
        run(&soa, &nan_query, &mut out);
        assert!(out.is_empty(), "{name}: NaN query must match nothing");
    }
}

/// Inverted rectangles (satellite fix): `min > max` never survives decode
/// validation, but if one reaches the kernels anyway, every variant —
/// including the scalar reference, which used to trip `Rect::new`'s debug
/// validity assertion via `RectSoA::get` — must agree: the empty interval
/// intersects nothing that lies on the empty side.
#[test]
fn inverted_rects_agree_across_variants() {
    let inverted_x = Rect {
        lo: Point::new(0.8, 0.0),
        hi: Point::new(0.2, 1.0), // hi.x < lo.x
    };
    let inverted_both = Rect {
        lo: Point::new(0.9, 0.9),
        hi: Point::new(0.1, 0.1),
    };
    let valid = Rect::new(0.0, 0.0, 1.0, 1.0);
    let soa = RectSoA::from_rects(&[inverted_x, inverted_both, valid]);

    // An inverted rect r intersects q iff the closed-interval comparisons
    // hold: lo <= q.hi && q.lo <= hi. A query spanning [0,1]² satisfies
    // them even for inverted rects (0.8 <= 1 && 0 <= 0.2) — the kernels
    // compute the comparisons, they do not re-validate.
    let wide = Rect::new(0.0, 0.0, 1.0, 1.0);
    // A query strictly right of hi.x = 0.2 but left of lo.x = 0.8 misses
    // the inverted-x rect under the same comparisons (q.lo.x = 0.3 > 0.2).
    let gap = Rect::new(0.3, 0.0, 0.5, 1.0);

    let mut reference_wide = Vec::new();
    soa.intersecting_scalar(&wide, &mut reference_wide);
    assert_eq!(reference_wide, vec![0, 1, 2]);
    let mut reference_gap = Vec::new();
    soa.intersecting_scalar(&gap, &mut reference_gap);
    assert_eq!(reference_gap, vec![2]);

    for (name, run) in intersect_variants() {
        let mut out = Vec::new();
        run(&soa, &wide, &mut out);
        assert_eq!(out, reference_wide, "{name} on wide query");
        out.clear();
        run(&soa, &gap, &mut out);
        assert_eq!(out, reference_gap, "{name} on gap query");
    }

    // `get` reassembles the stored coordinates verbatim — no validation,
    // no panic (this is the regression: it used to assert in debug builds).
    assert_eq!(soa.get(0), inverted_x);
}

/// Exactly-touching edges and corners are hits in every variant (closed
/// intervals), including at negative coordinates.
#[test]
fn touching_edges_hit_in_every_variant() {
    let soa = RectSoA::from_rects(&[
        Rect::new(-1.0, -1.0, -0.5, -0.5), // shares corner (-0.5,-0.5)
        Rect::new(-0.5, -1.0, 0.0, -0.5),  // shares edge y = -0.5
        Rect::new(5.0, 5.0, 6.0, 6.0),     // disjoint
    ]);
    let q = Rect::new(-0.5, -0.5, 0.0, 0.0);
    for (name, run) in intersect_variants() {
        let mut out = Vec::new();
        run(&soa, &q, &mut out);
        assert_eq!(out, vec![0, 1], "{name}");
    }
}

/// Every chunk-boundary length agrees on a dense all-hit / all-miss set —
/// catches off-by-ones in the vector-loop tails directly.
#[test]
fn chunk_boundary_lengths_agree() {
    for n in [0usize, 1, 2, 3, 4, 5, 63, 64, 65, 102, 127, 128, 130] {
        let rects: Vec<Rect> = (0..n)
            .map(|i| {
                let x = i as f64 * 0.001;
                Rect::new(x, 0.0, x + 0.5, 0.5)
            })
            .collect();
        let soa = RectSoA::from_rects(&rects);
        let hit_all = Rect::new(0.0, 0.0, 1.0, 1.0);
        let hit_none = Rect::new(10.0, 10.0, 11.0, 11.0);
        let p = Point::new(0.25, 0.25);
        let mut slow = Vec::new();
        soa.intersecting_scalar(&hit_all, &mut slow);
        assert_eq!(slow.len(), n);
        let mut slow_d = Vec::new();
        soa.min_dist2_within_scalar(&p, 1.0, &mut slow_d);
        for (name, run) in intersect_variants() {
            let mut out = Vec::new();
            run(&soa, &hit_all, &mut out);
            assert_eq!(out, slow, "{name} all-hit at n={n}");
            out.clear();
            run(&soa, &hit_none, &mut out);
            assert!(out.is_empty(), "{name} all-miss at n={n}");
        }
        for (name, run) in dist_variants() {
            let mut out = Vec::new();
            run(&soa, &p, 1.0, &mut out);
            assert_dist_eq(name, &out, &slow_d);
        }
    }
}

/// Infinity handling, pinned: an infinite rectangle intersects every finite
/// query; distance to it is 0 from anywhere — even from a point at `∞`,
/// where the `∞ − ∞ = NaN` intermediate drops out of the select-max chain
/// and the final clamp against 0 leaves a well-defined gap of 0. Distances
/// are never NaN.
#[test]
fn infinities_are_total() {
    let everywhere = Rect {
        lo: Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        hi: Point::new(f64::INFINITY, f64::INFINITY),
    };
    let soa = RectSoA::from_rects(&[everywhere]);
    for (name, run) in intersect_variants() {
        let mut out = Vec::new();
        run(&soa, &Rect::new(0.0, 0.0, 0.1, 0.1), &mut out);
        assert_eq!(out, vec![0], "{name}");
    }
    let p = Point::new(0.5, 0.5);
    let mut slow = Vec::new();
    soa.min_dist2_within_scalar(&p, 0.0, &mut slow);
    assert_eq!(slow, vec![(0, 0.0)], "distance to the infinite rect is 0");
    // A point at +∞ produces ∞ − ∞ = NaN inside the chain; select-max
    // drops it and the clamp against 0 yields a gap of 0 — every variant,
    // including scalar, reports distance 0, never NaN.
    let far = Point::new(f64::INFINITY, 0.0);
    let mut slow_far = Vec::new();
    soa.min_dist2_within_scalar(&far, f64::INFINITY, &mut slow_far);
    assert_eq!(slow_far, vec![(0, 0.0)], "NaN drops out, gap clamps to 0");
    for (name, run) in dist_variants() {
        let mut out = Vec::new();
        run(&soa, &far, f64::INFINITY, &mut out);
        assert_dist_eq(name, &out, &slow_far);
    }
}

// ---- The same kernels on page bytes where they lie --------------------
//
// `EntryPlanes` (of either kind) must answer exactly what the scalar kernel
// answers on the planes decoded into a `RectSoA` — same ids, same order,
// bit-equal distances — in every variant, and must report `CorruptEntry`
// exactly when a decode would have rejected an entry.

/// Four planes of `width`-byte lanes laid out back to back behind a one-byte
/// pad, so every lane sits at an odd address (the loads must not assume
/// alignment).
struct Bytes {
    buf: Vec<u8>,
    plane_len: usize,
}

impl Bytes {
    fn new(lanes: [Vec<Vec<u8>>; 4]) -> Self {
        let plane_len = lanes[0].iter().map(Vec::len).sum();
        let mut buf = vec![0xA5u8];
        for plane in lanes {
            buf.extend(plane.into_iter().flatten());
        }
        Bytes { buf, plane_len }
    }

    fn of_rects(rects: &[Rect]) -> Self {
        let lane = |f: fn(&Rect) -> f64| rects.iter().map(move |r| f(r).to_le_bytes().to_vec());
        Bytes::new([
            lane(|r| r.lo.x).collect(),
            lane(|r| r.lo.y).collect(),
            lane(|r| r.hi.x).collect(),
            lane(|r| r.hi.y).collect(),
        ])
    }

    fn of_codes(codes: &[[u16; 4]]) -> Self {
        let lane = |k: usize| codes.iter().map(move |c| c[k].to_le_bytes().to_vec());
        Bytes::new([
            lane(0).collect(),
            lane(1).collect(),
            lane(2).collect(),
            lane(3).collect(),
        ])
    }

    fn planes(&self) -> [&[u8]; 4] {
        std::array::from_fn(|k| &self.buf[1 + k * self.plane_len..][..self.plane_len])
    }
}

/// The neighbouring float above or below `v` (`f64::next_up` postdates the
/// workspace's minimum toolchain).
fn step(v: f64, up: bool) -> f64 {
    if !v.is_finite() {
        v
    } else if v == 0.0 {
        f64::from_bits(1) * if up { 1.0 } else { -1.0 }
    } else if (v > 0.0) == up {
        f64::from_bits(v.to_bits() + 1)
    } else {
        f64::from_bits(v.to_bits() - 1)
    }
}

/// Finite, ordered rectangles on the coarse grid (touching edges are
/// common) or at extreme magnitudes.
fn valid_rect() -> impl Strategy<Value = Rect> {
    let coord = || {
        prop_oneof![
            (-8i8..=8).prop_map(|i| f64::from(i) / 8.0),
            (-8i8..=8).prop_map(|i| f64::from(i) / 8.0),
            -1.0f64..=1.0,
            Just(-0.0f64),
            Just(1e300),
            Just(-1e300),
            Just(f64::MAX),
            Just(f64::MIN),
        ]
    };
    (coord(), coord(), coord(), coord()).prop_map(|(a, b, c, d)| Rect {
        lo: Point::new(a.min(c), b.min(d)),
        hi: Point::new(a.max(c), b.max(d)),
    })
}

/// A set of valid rectangles at a chunk-boundary length, in one case out of
/// four with a single adversarial (inverted / non-finite) entry planted in
/// it — what a re-sealed corrupt page looks like.
fn page_like_set() -> impl Strategy<Value = Vec<Rect>> {
    const LENS: [usize; 12] = [0, 1, 2, 3, 4, 5, 63, 64, 65, 102, 127, 128];
    (
        0usize..LENS.len(),
        prop::collection::vec(valid_rect(), 128usize),
        prop_oneof![
            Just(None),
            Just(None),
            Just(None),
            (0usize..128, adversarial_rect()).prop_map(Some)
        ],
    )
        .prop_map(|(sel, mut v, planted)| {
            v.truncate(LENS[sel]);
            if let Some((at, bad)) = planted {
                if let Some(slot) = v.get_mut(at) {
                    *slot = bad;
                }
            }
            v
        })
}

/// One frame axis `(base, top)`: ordinary, zero-extent, one ulp wide, huge,
/// wide enough that `top - base` overflows, and denormal-narrow.
fn frame_axis() -> impl Strategy<Value = (f64, f64)> {
    prop_oneof![
        Just((0.0, 1.0)),
        (-8i8..=8, 0u8..=16).prop_map(|(a, w)| (f64::from(a) / 8.0, f64::from(a + w as i8) / 8.0)),
        (-1.0f64..1.0, 0.0f64..2.0).prop_map(|(b, w)| (b, b + w)),
        (-1.0f64..1.0).prop_map(|b| (b, b)),
        (-1.0f64..1.0).prop_map(|b| (b, step(b, true))),
        (-1e300f64..1e300, 0.0f64..1e300).prop_map(|(b, w)| (b, b + w)),
        Just((-1e300, 1e300)),
        Just((1e300, step(1e300, true))),
        Just((-1.7e308, 1.7e308)),
        Just((0.0, 5e-324)),
        Just((-0.0, 0.0)),
    ]
}

fn code() -> impl Strategy<Value = u16> {
    prop_oneof![
        any::<u16>(),
        any::<u16>(),
        Just(0),
        Just(QMAX),
        0u16..8,
        65_528u16..=QMAX
    ]
}

/// Code quadruples `[lo_x, lo_y, hi_x, hi_y]` with `lo <= hi` per axis (wide
/// and hair-thin entries both), at lengths straddling the 16-lane register
/// and the 64-entry block, sometimes with one inverted entry planted.
fn code_set() -> impl Strategy<Value = Vec<[u16; 4]>> {
    const LENS: [usize; 12] = [0, 1, 15, 16, 17, 31, 32, 33, 64, 65, 200, 253];
    let entry = (code(), code(), code(), code(), 0u16..4, any::<bool>()).prop_map(
        |(a, b, c, d, thin, wide)| {
            if wide {
                [a.min(c), b.min(d), a.max(c), b.max(d)]
            } else {
                [a, b, a.saturating_add(thin), b.saturating_add(thin)]
            }
        },
    );
    (
        0usize..LENS.len(),
        prop::collection::vec(entry, 253usize),
        prop_oneof![
            Just(None),
            Just(None),
            Just(None),
            (0usize..253, any::<bool>()).prop_map(Some)
        ],
    )
        .prop_map(|(sel, mut v, planted)| {
            v.truncate(LENS[sel]);
            if let Some((at, on_x)) = planted {
                if let Some(c) = v.get_mut(at) {
                    let k = usize::from(!on_x);
                    c.swap(k, k + 2);
                }
            }
            v
        })
}

/// A query coordinate placed where the threshold search can go wrong: on a
/// decoded grid value, one float either side of it, on and just outside the
/// frame ends, far outside, infinite, NaN, or anywhere inside.
fn edge() -> impl Strategy<Value = (u8, u16, f64)> {
    (0u8..14, code(), 0.0f64..=1.0)
}

fn place((sel, c, t): (u8, u16, f64), (base, top): (f64, f64)) -> f64 {
    let on_grid = dequant(c, base, quantum(base, top), top);
    match sel {
        0 => on_grid,
        1 => step(on_grid, true),
        2 => step(on_grid, false),
        3 => base,
        4 => top,
        5 => step(base, false),
        6 => step(top, true),
        7 => base - (top - base) - 1.0,
        8 => top + (top - base) + 1.0,
        9 => f64::NEG_INFINITY,
        10 => f64::INFINITY,
        11 => f64::NAN,
        _ => base + t * (top - base),
    }
}

fn kernel_bound() -> impl Strategy<Value = f64> {
    prop_oneof![
        0.0f64..=4.0,
        0.0f64..=4.0,
        Just(f64::INFINITY),
        Just(0.0f64),
        Just(1e300),
        Just(f64::NAN),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Borrowed `f64` byte planes == the decoded set under the scalar
    /// kernel, in every variant, and `CorruptEntry` iff some entry is not a
    /// valid rectangle — for `intersecting`, `min_dist2_within` and `mbr`.
    #[test]
    fn f64_planes_match_decoded_set(
        rects in page_like_set(),
        queries in prop::collection::vec(adversarial_rect(), 1..6),
        p in adversarial_point(),
        bound in kernel_bound(),
    ) {
        let bytes = Bytes::of_rects(&rects);
        let view = EntryPlanes::F64(bytes.planes());
        let soa = RectSoA::from_rects(&rects);
        let corrupt = rects.iter().any(|r| !r.is_valid());
        for (i, r) in rects.iter().enumerate().filter(|(_, r)| r.is_valid()) {
            prop_assert_eq!(view.get(i), *r);
        }
        match view.mbr() {
            Err(CorruptEntry) => prop_assert!(corrupt),
            Ok(mbr) => {
                prop_assert!(!corrupt);
                prop_assert_eq!(mbr, soa.mbr());
            }
        }
        let (mut slow, mut slow_d) = (Vec::new(), Vec::new());
        soa.min_dist2_within_scalar(&p, bound, &mut slow_d);
        for kind in available_kernels() {
            for q in &queries {
                slow.clear();
                soa.intersecting_scalar(q, &mut slow);
                let mut fast = Vec::new();
                let got = view.intersecting(kind, q, &mut fast);
                prop_assert_eq!(got.is_err(), corrupt, "{:?}", kind);
                if !corrupt {
                    prop_assert_eq!(&fast, &slow, "{:?}, query {:?}", kind, q);
                }
            }
            let mut fast_d = Vec::new();
            let got = view.min_dist2_within(kind, &p, bound, &mut fast_d);
            prop_assert_eq!(got.is_err(), corrupt, "{:?}", kind);
            if !corrupt {
                assert_dist_eq(kind.name(), &fast_d, &slow_d);
            }
        }
    }

    /// Code space ≡ dequantize-then-compare: on quantized planes every
    /// variant returns exactly what the scalar kernel returns on the
    /// entries decoded through `quant::dequant` — ids, order, bit-equal
    /// distances, the same MBR — over adversarial frames and query edges,
    /// and `CorruptEntry` iff some entry has `lo code > hi code`.
    #[test]
    fn code_planes_match_dequantized_set(
        axes in (frame_axis(), frame_axis()),
        codes in code_set(),
        queries in prop::collection::vec([edge(), edge(), edge(), edge()], 1..8),
        point in (edge(), edge()),
        bound in kernel_bound(),
    ) {
        let ((x, y), (px, py)) = (axes, point);
        let frame = Rect { lo: Point::new(x.0, y.0), hi: Point::new(x.1, y.1) };
        let bytes = Bytes::of_codes(&codes);
        let view = EntryPlanes::Codes { frame, planes: bytes.planes() };
        let (qx, qy) = (quantum(x.0, x.1), quantum(y.0, y.1));
        let decoded: Vec<Rect> = codes
            .iter()
            .map(|c| Rect {
                lo: Point::new(dequant(c[0], x.0, qx, x.1), dequant(c[1], y.0, qy, y.1)),
                hi: Point::new(dequant(c[2], x.0, qx, x.1), dequant(c[3], y.0, qy, y.1)),
            })
            .collect();
        let soa = RectSoA::from_rects(&decoded);
        let corrupt = codes.iter().any(|c| c[0] > c[2] || c[1] > c[3]);
        for (i, r) in decoded.iter().enumerate() {
            prop_assert_eq!(view.get(i), *r);
        }
        match view.mbr() {
            Err(CorruptEntry) => prop_assert!(corrupt),
            Ok(mbr) => {
                prop_assert!(!corrupt);
                prop_assert_eq!(mbr, soa.mbr());
            }
        }
        let p = Point::new(place(px, x), place(py, y));
        let (mut slow, mut slow_d) = (Vec::new(), Vec::new());
        soa.min_dist2_within_scalar(&p, bound, &mut slow_d);
        for kind in available_kernels() {
            for [lo_x, lo_y, hi_x, hi_y] in &queries {
                let q = Rect {
                    lo: Point::new(place(*lo_x, x), place(*lo_y, y)),
                    hi: Point::new(place(*hi_x, x), place(*hi_y, y)),
                };
                slow.clear();
                soa.intersecting_scalar(&q, &mut slow);
                let mut fast = Vec::new();
                let got = view.intersecting(kind, &q, &mut fast);
                prop_assert_eq!(got.is_err(), corrupt, "{:?}", kind);
                if !corrupt {
                    prop_assert_eq!(&fast, &slow, "{:?}, frame {:?}, query {:?}", kind, frame, q);
                }
            }
            let mut fast_d = Vec::new();
            let got = view.min_dist2_within(kind, &p, bound, &mut fast_d);
            prop_assert_eq!(got.is_err(), corrupt, "{:?}", kind);
            if !corrupt {
                assert_dist_eq(kind.name(), &fast_d, &slow_d);
            }
        }
    }
}

/// A query that misses the frame, or is NaN, matches nothing — and still
/// fails the visit when an entry is inverted, in every variant.
#[test]
fn code_planes_validate_even_when_nothing_can_match() {
    let frame = Rect::new(0.0, 0.0, 1.0, 1.0);
    let good = Bytes::of_codes(&[[0, 0, 9, 9], [100, 100, 200, 200]]);
    let bad = Bytes::of_codes(&[[0, 0, 9, 9], [300, 100, 200, 200]]);
    let nan = f64::NAN;
    let misses = [
        Rect::new(2.0, 2.0, 3.0, 3.0),
        Rect::new(-3.0, 0.0, -2.0, 1.0),
        Rect {
            lo: Point::new(nan, nan),
            hi: Point::new(nan, nan),
        },
    ];
    for kind in available_kernels() {
        for q in &misses {
            let mut out = Vec::new();
            let planes = good.planes();
            let view = EntryPlanes::Codes { frame, planes };
            assert_eq!(view.intersecting(kind, q, &mut out), Ok(()));
            assert!(out.is_empty(), "{kind:?}: {q:?} must match nothing");
            let planes = bad.planes();
            let view = EntryPlanes::Codes { frame, planes };
            assert_eq!(
                view.intersecting(kind, q, &mut out),
                Err(CorruptEntry),
                "{kind:?}: {q:?}"
            );
        }
    }
}

/// The end codes decode to exactly `base` / `top`, not to `base + c·q`: on
/// this frame `base + QMAX·q` lands one float *below* `top` (about one frame
/// in 10⁵ does that), and on a range too wide for `f64` the quantum is `∞`
/// and `0·∞` is NaN — the in-register dequantization must blend both ends
/// like `dequant` does, in every variant.
#[test]
fn end_codes_decode_to_the_frame_ends_in_registers() {
    let narrow = (-0.1868547502996043f64, 0.31313778796625114f64);
    assert!(narrow.0 + f64::from(QMAX) * quantum(narrow.0, narrow.1) < narrow.1);
    let overflowing = (-1.7e308, 1.7e308);
    assert_eq!(quantum(overflowing.0, overflowing.1), f64::INFINITY);
    let codes: Vec<[u16; 4]> = (0..9).map(|i| [0, i, QMAX, QMAX]).collect();
    let bytes = Bytes::of_codes(&codes);
    for (base, top) in [narrow, overflowing] {
        let frame = Rect::new(base, base, top, top);
        let planes = bytes.planes();
        let view = EntryPlanes::Codes { frame, planes };
        assert_eq!(view.get(3).lo.x, base);
        assert_eq!(view.get(3).hi, Point::new(top, top));
        // Inside the frame (distance 0 to an entry spanning it), and one
        // float outside each end (that one float's gap).
        for p in [
            Point::new(base / 2.0 + top / 2.0, top),
            Point::new(step(top, true), top),
            Point::new(step(base, false), top),
        ] {
            let mut slow = Vec::new();
            view.min_dist2_within(KernelKind::Scalar, &p, f64::INFINITY, &mut slow)
                .unwrap();
            assert_eq!(slow.len(), codes.len());
            for kind in available_kernels() {
                let mut fast = Vec::new();
                view.min_dist2_within(kind, &p, f64::INFINITY, &mut fast)
                    .unwrap();
                assert_dist_eq(kind.name(), &fast, &slow);
            }
        }
    }
}
