//! Kernel equivalence: the intersection kernel, in every variant, must agree
//! with per-entry `Rect::intersects` on arbitrary entry sets laid out as an
//! SoA page and as a point page (`pages/mod.rs`), including degenerate
//! (zero-extent) rectangles and exactly-touching edges, which the coarse
//! coordinate grid below makes common rather than measure-zero.

mod pages;

use pages::Page;
use proptest::prelude::*;
use rtree_geom::{Point, Rect};

/// Coordinates snapped to a 1/8 grid: touching edges and shared corners
/// occur with high probability, exercising the closed-interval boundary.
fn grid_coord() -> impl Strategy<Value = f64> {
    (0u8..=8).prop_map(|i| f64::from(i) / 8.0)
}

/// Rectangles on the grid; `lo == hi` (degenerate) is allowed.
fn arb_grid_rect() -> impl Strategy<Value = Rect> {
    (grid_coord(), grid_coord(), grid_coord(), grid_coord())
        .prop_map(|(x0, y0, x1, y1)| Rect::new(x0.min(x1), y0.min(y1), x0.max(x1), y0.max(y1)))
}

/// Continuous rectangles, for coverage away from the grid.
fn arb_free_rect() -> impl Strategy<Value = Rect> {
    ((0.0f64..=1.0, 0.0f64..=1.0), (0.0f64..=0.3, 0.0f64..=0.3))
        .prop_map(|((x, y), (w, h))| Rect::new(x, y, x + w, y + h))
}

fn arb_rect() -> impl Strategy<Value = Rect> {
    prop_oneof![arb_grid_rect(), arb_grid_rect(), arb_free_rect()]
}

/// The same set as an SoA page, and its `lo` corners as a point page.
fn pages(rects: &[Rect]) -> [Page; 2] {
    let corners: Vec<Point> = rects.iter().map(|r| r.lo).collect();
    [Page::soa(rects), Page::points(&corners)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every variant == per-entry `Rect::intersects`, for pages spanning
    /// multiple 64-wide mask blocks.
    #[test]
    fn kernel_matches_scalar_reference(
        rects in prop::collection::vec(arb_rect(), 0..200),
        queries in prop::collection::vec(arb_rect(), 1..12),
    ) {
        for page in pages(&rects) {
            prop_assert_eq!(page.rects.len(), rects.len());
            page.check(&queries, &[]);
        }
    }

    /// Degenerate query rectangles (points) agree too — the closed-interval
    /// semantics make a point on a boundary a hit.
    #[test]
    fn point_queries_agree(
        rects in prop::collection::vec(arb_grid_rect(), 1..100),
        px in grid_coord(),
        py in grid_coord(),
    ) {
        for page in pages(&rects) {
            page.check(&[Rect::new(px, py, px, py)], &[]);
        }
    }
}
