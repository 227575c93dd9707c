//! SIMD-vs-scalar property suite on page bytes: every kernel variant this
//! build and CPU can run must answer, through [`EntryPlanes`] over the
//! entry planes of every node-page layout — SoA, the point body and Packed
//! — exactly what the entry-at-a-time [`Rect`] oracle answers (same ids,
//! same order, bit-equal distances, the same MBR), and must fail the visit
//! with [`CorruptEntry`] exactly when a decode would reject an entry. The
//! page fixtures and the oracle live in `pages/mod.rs`.
//!
//! Adversarial means: degenerate (zero-area) rects, exactly-touching edges
//! (coarse-grid coordinates make them common), negative coordinates,
//! extreme magnitudes, infinities, NaN, inverted (`min > max`) entries
//! planted in otherwise valid pages, and page lengths straddling the
//! kernels' chunk boundaries (0–9 and 15–17 around the 4- and 16-lane
//! registers, 63–65 and 127–128 around the 64-wide portable mask, and the
//! full pages of each layout: 102, 203 and 253, besides 169–170 and 199,
//! a full point leaf at M = 100).
//!
//! The NaN policy pinned here (and documented in `rtree_geom::simd`):
//!
//! - **Intersection** uses IEEE ordered comparisons — any compare against
//!   NaN is false, so a NaN query coordinate means *no match*.
//! - **Distance** max chains use select semantics
//!   (`if a > b { a } else { b }`), matching `_mm256_max_pd`; a NaN term
//!   drops out of the chain, and a NaN bound satisfies nothing.
//! - **Entries** are validated in the scan: a NaN, infinite or inverted
//!   entry fails every variant, never an answer computed from it.

mod pages;

use pages::{assert_dist_eq, within, Page};
use proptest::prelude::*;
use rtree_geom::quant::{dequant, quantum, QMAX};
use rtree_geom::{available_kernels, CorruptEntry, EntryPlanes, KernelKind, Point, Rect};

/// Page lengths at and around every chunk boundary and full page.
const LENS: [usize; 24] = [
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 63, 64, 65, 102, 127, 128, 169, 170, 199, 203, 253,
];

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

/// Finite coordinates on the coarse grid (touching edges are common) or at
/// extreme magnitudes.
fn valid_coord() -> impl Strategy<Value = f64> {
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
}

/// Finite, ordered rectangles; degenerate ones fall out of the grid.
fn valid_rect() -> impl Strategy<Value = Rect> {
    (valid_coord(), valid_coord(), valid_coord(), valid_coord()).prop_map(|(a, b, c, d)| Rect {
        lo: Point::new(a.min(c), b.min(d)),
        hi: Point::new(a.max(c), b.max(d)),
    })
}

/// `valid` items at one of the [`LENS`], in one case out of four with a
/// single `planted` one — what a re-sealed corrupt page looks like.
fn page_like<T: std::fmt::Debug + Clone + 'static>(
    valid: impl Strategy<Value = T> + 'static,
    planted: impl Strategy<Value = T> + 'static,
) -> impl Strategy<Value = Vec<T>> {
    (
        0usize..LENS.len(),
        prop::collection::vec(valid, 253usize),
        prop_oneof![
            Just(None),
            Just(None),
            Just(None),
            (0usize..253, planted).prop_map(Some)
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

/// An SoA page's entries, sometimes with one adversarial rectangle.
fn rect_page() -> impl Strategy<Value = Vec<Rect>> {
    page_like(valid_rect(), adversarial_rect())
}

/// A point page's entries, sometimes with one adversarial point.
fn point_page() -> impl Strategy<Value = Vec<Point>> {
    let valid = (valid_coord(), valid_coord()).prop_map(|(x, y)| Point::new(x, y));
    page_like(valid, adversarial_point())
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

fn frame() -> impl Strategy<Value = Rect> {
    (frame_axis(), frame_axis()).prop_map(|(x, y)| Rect {
        lo: Point::new(x.0, y.0),
        hi: Point::new(x.1, y.1),
    })
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

/// A Packed page's code quadruples `[lo_x, lo_y, hi_x, hi_y]` with
/// `lo <= hi` per axis (wide and hair-thin entries both), sometimes with
/// one entry inverted on one axis.
fn code_page() -> impl Strategy<Value = Vec<[u16; 4]>> {
    let entry = || {
        (code(), code(), code(), code(), 0u16..4, any::<bool>()).prop_map(
            |(a, b, c, d, thin, wide)| {
                if wide {
                    [a.min(c), b.min(d), a.max(c), b.max(d)]
                } else {
                    [a, b, a.saturating_add(thin), b.saturating_add(thin)]
                }
            },
        )
    };
    let inverted = entry().prop_map(|mut c| {
        c.swap(0, 2);
        if c[0] == c[2] {
            c[0] = c[2].saturating_add(1).max(1);
            c[2] = c[0] - 1;
        }
        c
    });
    page_like(entry(), inverted)
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

/// The three pages of one case: the SoA page, the point page, and the
/// Packed page in `frame`.
fn three(rects: &[Rect], points: &[Point], frame: Rect, codes: &[[u16; 4]]) -> [Page; 3] {
    [
        Page::soa(rects),
        Page::points(points),
        Page::packed(frame, codes),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Intersection: every variant == the oracle on every layout, over
    /// adversarial queries at chunk-boundary lengths.
    #[test]
    fn intersection_variants_match_scalar(
        rects in rect_page(),
        points in point_page(),
        packed in (frame(), code_page()),
        queries in prop::collection::vec(adversarial_rect(), 1..8),
    ) {
        for page in three(&rects, &points, packed.0, &packed.1) {
            page.check(&queries, &[]);
        }
    }

    /// Point containment is the degenerate query `[p, p]`: every variant
    /// keeps exactly the entries `Rect::contains_point` keeps (NaN points
    /// are contained by nothing).
    #[test]
    fn containment_variants_match_scalar(
        rects in rect_page(),
        points in point_page(),
        packed in (frame(), code_page()),
        p in adversarial_point(),
    ) {
        for page in three(&rects, &points, packed.0, &packed.1) {
            page.check(&[Rect { lo: p, hi: p }], &[]);
            if !page.corrupt {
                let mut got = Vec::new();
                page.view().intersecting(KernelKind::Scalar, &Rect { lo: p, hi: p }, &mut got).unwrap();
                let want = (0..page.rects.len() as u32).filter(|&i| page.rects[i as usize].contains_point(&p));
                prop_assert_eq!(got, want.collect::<Vec<_>>());
            }
        }
    }

    /// Distance pruning: every variant == the oracle — same surviving
    /// indices, same distances — over adversarial points and bounds
    /// (infinite and NaN bounds included), on every layout.
    #[test]
    fn distance_variants_match_scalar(
        rects in rect_page(),
        points in point_page(),
        packed in (frame(), code_page()),
        near in prop::collection::vec((adversarial_point(), kernel_bound()), 1..4),
    ) {
        for page in three(&rects, &points, packed.0, &packed.1) {
            page.check(&[], &near);
        }
    }

    /// The `f64` layouts entry for entry: SoA and point pages read back
    /// their entries, and answer regions and distances like the oracle —
    /// or fail every scan when one entry is invalid.
    #[test]
    fn f64_planes_match_decoded_set(
        rects in rect_page(),
        points in point_page(),
        queries in prop::collection::vec(adversarial_rect(), 1..6),
        p in adversarial_point(),
        bound in kernel_bound(),
    ) {
        // The point page's entries as an SoA page must answer the same.
        let as_rects: Vec<Rect> = points.iter().map(|&p| Rect { lo: p, hi: p }).collect();
        for page in [Page::soa(&rects), Page::points(&points), Page::soa(&as_rects)] {
            page.check(&queries, &[(p, bound)]);
        }
    }

    /// Code space ≡ dequantize-then-compare: on quantized planes every
    /// variant returns exactly what the oracle returns on the entries
    /// decoded through `quant::dequant` — ids, order, bit-equal distances,
    /// the same MBR — over adversarial frames and query edges, and
    /// `CorruptEntry` iff some entry has `lo code > hi code`.
    #[test]
    fn code_planes_match_dequantized_set(
        axes in (frame_axis(), frame_axis()),
        codes in code_page(),
        queries in prop::collection::vec([edge(), edge(), edge(), edge()], 1..8),
        point in (edge(), edge()),
        bound in kernel_bound(),
    ) {
        let ((x, y), (px, py)) = (axes, point);
        let frame = Rect { lo: Point::new(x.0, y.0), hi: Point::new(x.1, y.1) };
        let page = Page::packed(frame, &codes);
        let queries: Vec<Rect> = queries
            .iter()
            .map(|[lo_x, lo_y, hi_x, hi_y]| Rect {
                lo: Point::new(place(*lo_x, x), place(*lo_y, y)),
                hi: Point::new(place(*hi_x, x), place(*hi_y, y)),
            })
            .collect();
        let p = Point::new(place(px, x), place(py, y));
        page.check(&queries, &[(p, bound)]);
    }
}

// ---- Pinned, non-property regressions ---------------------------------

/// Every scan of `page` fails with `CorruptEntry` in every variant.
fn assert_corrupt(page: &Page) {
    let view = page.view();
    assert_eq!(view.mbr(), Err(CorruptEntry));
    for kind in available_kernels() {
        let q = Rect::new(-1e308, -1e308, 1e308, 1e308);
        assert_eq!(
            view.intersecting(kind, &q, &mut Vec::new()),
            Err(CorruptEntry)
        );
        let p = Point::new(0.5, 0.5);
        let got = view.min_dist2_within(kind, &p, f64::INFINITY, &mut Vec::new());
        assert_eq!(got, Err(CorruptEntry), "{kind:?}");
    }
}

/// NaN policy, pinned: a NaN query matches nothing on any layout, and a
/// NaN entry is no answer at all — it fails the visit in every variant.
#[test]
fn nan_matches_nothing() {
    let nan = f64::NAN;
    let nan_query = Rect {
        lo: Point::new(nan, nan),
        hi: Point::new(nan, nan),
    };
    let frame = Rect::new(0.0, 0.0, 1.0, 1.0);
    let points = [Point::new(0.5, 0.5), Point::new(0.0, 1.0)];
    for page in three(&[frame], &points, frame, &[[0, 0, QMAX, QMAX]]) {
        for kind in available_kernels() {
            let mut out = Vec::new();
            page.view()
                .intersecting(kind, &nan_query, &mut out)
                .unwrap();
            assert!(out.is_empty(), "{kind:?}: NaN query must match nothing");
            page.view()
                .intersecting(
                    kind,
                    &Rect {
                        lo: nan_query.lo,
                        hi: frame.hi,
                    },
                    &mut out,
                )
                .unwrap();
            assert!(out.is_empty(), "{kind:?}: a NaN edge matches nothing");
        }
    }
    let nan_rect = Rect {
        lo: Point::new(nan, 0.0),
        hi: Point::new(1.0, 1.0),
    };
    assert_corrupt(&Page::soa(&[Rect::new(0.0, 0.0, 1.0, 1.0), nan_rect]));
    assert_corrupt(&Page::points(&[Point::new(0.5, 0.5), Point::new(0.5, nan)]));
}

/// Inverted rectangles (`min > max`) never survive decode validation, and
/// the in-place kernels validate as they scan: one inverted entry, on
/// either axis, fails every variant — on an SoA page as on a Packed one,
/// where the inversion is in the codes.
#[test]
fn inverted_rects_agree_across_variants() {
    let valid = Rect::new(0.0, 0.0, 1.0, 1.0);
    for inverted in [
        Rect {
            lo: Point::new(0.8, 0.0),
            hi: Point::new(0.2, 1.0), // hi.x < lo.x
        },
        Rect {
            lo: Point::new(0.9, 0.9),
            hi: Point::new(0.1, 0.1),
        },
    ] {
        // Before, on and after a 4-lane register boundary.
        for at in [0, 3, 4, 6] {
            let mut rects = vec![valid; 7];
            rects[at] = inverted;
            assert_corrupt(&Page::soa(&rects));
        }
    }
    let frame = Rect::new(0.0, 0.0, 1.0, 1.0);
    for at in [0, 15, 16, 40] {
        let mut codes = vec![[10, 10, 20, 20]; 41];
        codes[at] = [10, 21, 20, 20];
        assert_corrupt(&Page::packed(frame, &codes));
    }
}

/// Exactly-touching edges and corners are hits in every variant (closed
/// intervals), including at negative coordinates, on SoA and point pages.
#[test]
fn touching_edges_hit_in_every_variant() {
    let q = Rect::new(-0.5, -0.5, 0.0, 0.0);
    let rects = [
        Rect::new(-1.0, -1.0, -0.5, -0.5), // shares corner (-0.5,-0.5)
        Rect::new(-0.5, -1.0, 0.0, -0.5),  // shares edge y = -0.5
        Rect::new(5.0, 5.0, 6.0, 6.0),     // disjoint
    ];
    let points = [
        Point::new(-0.5, -0.5),
        Point::new(0.0, -0.25),
        Point::new(0.0, 0.01),
    ];
    for page in [Page::soa(&rects), Page::points(&points)] {
        for kind in available_kernels() {
            let mut out = Vec::new();
            page.view().intersecting(kind, &q, &mut out).unwrap();
            assert_eq!(out, vec![0, 1], "{kind:?}");
        }
    }
}

/// Every chunk-boundary length agrees on a dense all-hit / all-miss page of
/// every layout — catches off-by-ones in the vector-loop tails directly.
#[test]
fn chunk_boundary_lengths_agree() {
    let frame = Rect::new(0.0, 0.0, 1.0, 1.0);
    let hit_all = Rect::new(0.0, 0.0, 1.0, 1.0);
    let hit_none = Rect::new(10.0, 10.0, 11.0, 11.0);
    let near = [
        (Point::new(0.25, 0.25), 1.0),
        (Point::new(0.25, 0.25), 0.01),
    ];
    for n in LENS {
        let rects: Vec<Rect> = (0..n)
            .map(|i| {
                let x = i as f64 * 0.001;
                Rect::new(x, 0.0, x + 0.5, 0.5)
            })
            .collect();
        let points: Vec<Point> = rects.iter().map(|r| r.lo).collect();
        let codes: Vec<[u16; 4]> = (0..n as u16).map(|i| [i, 0, i + 30_000, 30_000]).collect();
        for page in three(&rects, &points, frame, &codes) {
            page.check(&[hit_all, hit_none], &near);
            for kind in available_kernels() {
                let mut out = Vec::new();
                page.view().intersecting(kind, &hit_all, &mut out).unwrap();
                assert_eq!(out.len(), n, "{kind:?} all-hit at n={n}");
                out.clear();
                page.view().intersecting(kind, &hit_none, &mut out).unwrap();
                assert!(out.is_empty(), "{kind:?} all-miss at n={n}");
            }
        }
    }
}

/// Infinity handling, pinned: an infinite entry is not a finite rectangle,
/// so it fails the visit in every variant; from a query point at `∞` a
/// finite entry is `∞` away and intersects no query at `∞`; and on the
/// widest frame, whose quantum is `∞`, distances are still never NaN.
#[test]
fn infinities_are_total() {
    let everywhere = Rect {
        lo: Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        hi: Point::new(f64::INFINITY, f64::INFINITY),
    };
    assert_corrupt(&Page::soa(&[Rect::new(0.0, 0.0, 1.0, 1.0), everywhere]));
    assert_corrupt(&Page::points(&[Point::new(f64::INFINITY, 0.0)]));
    let far = Point::new(f64::INFINITY, 0.0);
    let page = Page::soa(&[Rect::new(0.0, 0.0, 1.0, 1.0)]);
    assert_eq!(
        within(&page.rects, &far, f64::INFINITY),
        vec![(0, f64::INFINITY)]
    );
    page.check(&[Rect { lo: far, hi: far }], &[(far, f64::INFINITY)]);
    let wide = Rect::new(-1.7e308, -1.7e308, 1.7e308, 1.7e308);
    let codes = [[0, 0, QMAX, QMAX], [1, 1, 2, 2], [QMAX, QMAX, QMAX, QMAX]];
    let page = Page::packed(wide, &codes);
    for p in [
        far,
        Point::new(-1.7e308, 1.7e308),
        Point::new(0.0, f64::NAN),
    ] {
        let want = within(&page.rects, &p, f64::INFINITY);
        assert!(want.iter().all(|(_, d2)| !d2.is_nan()), "{p:?}: {want:?}");
        page.check(&[], &[(p, f64::INFINITY)]);
    }
}

/// A query that misses the frame, or is NaN, matches nothing — and still
/// fails the visit when an entry is inverted, in every variant.
#[test]
fn code_planes_validate_even_when_nothing_can_match() {
    let frame = Rect::new(0.0, 0.0, 1.0, 1.0);
    let good = Page::packed(frame, &[[0, 0, 9, 9], [100, 100, 200, 200]]);
    let bad = Page::packed(frame, &[[0, 0, 9, 9], [300, 100, 200, 200]]);
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
            assert_eq!(good.view().intersecting(kind, q, &mut out), Ok(()));
            assert!(out.is_empty(), "{kind:?}: {q:?} must match nothing");
            assert_eq!(
                bad.view().intersecting(kind, q, &mut out),
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
    for (base, top) in [narrow, overflowing] {
        let frame = Rect::new(base, base, top, top);
        let page = Page::packed(frame, &codes);
        let view: EntryPlanes<'_> = page.view();
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
            assert_dist_eq("oracle", &slow, &within(&page.rects, &p, f64::INFINITY));
            page.check(&[], &[(p, f64::INFINITY)]);
        }
    }
}
