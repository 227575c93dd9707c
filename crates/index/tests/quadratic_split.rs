//! `QuadraticSplit` keeps a cache of areas and enlargements; this suite
//! holds it to the textbook algorithm it replaced, copied below verbatim:
//! the same two groups, in the same order, over points, rectangles and
//! heavy ties, at the sizes a page split sees — `M + 1 = 101` entries, and
//! a full point leaf plus one entry: 200 at M = 100 (199 slots), and 171 —
//! with Guttman's `m = 40` and the larger min fill a rectangle entering a
//! full point leaf needs.

use proptest::prelude::*;
use rtree_geom::{Point, Rect};
use rtree_index::{QuadraticSplit, SplitPolicy};

/// Guttman's quadratic split as written before the cache: every PickNext
/// recomputes both enlargements of every remaining entry.
fn textbook(rects: &[Rect], min: usize) -> (Vec<usize>, Vec<usize>) {
    let n = rects.len();
    let (mut s1, mut s2) = (0usize, 1usize);
    let mut worst = f64::NEG_INFINITY;
    for i in 0..n {
        for j in (i + 1)..n {
            let d = rects[i].union(&rects[j]).area() - rects[i].area() - rects[j].area();
            if d > worst {
                worst = d;
                s1 = i;
                s2 = j;
            }
        }
    }
    let mut g1 = vec![s1];
    let mut g2 = vec![s2];
    let mut mbr1 = rects[s1];
    let mut mbr2 = rects[s2];
    let mut remaining: Vec<usize> = (0..n).filter(|&i| i != s1 && i != s2).collect();
    while !remaining.is_empty() {
        if g1.len() + remaining.len() == min {
            g1.append(&mut remaining);
            break;
        }
        if g2.len() + remaining.len() == min {
            g2.append(&mut remaining);
            break;
        }
        let (mut best_k, mut best_diff) = (0usize, f64::NEG_INFINITY);
        let mut best_d = (0.0, 0.0);
        for (k, &i) in remaining.iter().enumerate() {
            let d1 = mbr1.enlargement(&rects[i]);
            let d2 = mbr2.enlargement(&rects[i]);
            let diff = (d1 - d2).abs();
            if diff > best_diff {
                best_diff = diff;
                best_k = k;
                best_d = (d1, d2);
            }
        }
        let i = remaining.swap_remove(best_k);
        let (d1, d2) = best_d;
        let to_first = if d1 < d2 {
            true
        } else if d2 < d1 {
            false
        } else if mbr1.area() < mbr2.area() {
            true
        } else if mbr2.area() < mbr1.area() {
            false
        } else {
            g1.len() <= g2.len()
        };
        if to_first {
            mbr1 = mbr1.union(&rects[i]);
            g1.push(i);
        } else {
            mbr2 = mbr2.union(&rects[i]);
            g2.push(i);
        }
    }
    (g1, g2)
}

/// Coordinates on a coarse grid (ties in every enlargement and area are
/// common) or anywhere in the unit square.
fn coord() -> impl Strategy<Value = f64> {
    prop_oneof![(0u8..=4).prop_map(|i| f64::from(i) / 4.0), 0.0f64..=1.0]
}

fn point() -> impl Strategy<Value = Rect> {
    (coord(), coord()).prop_map(|(x, y)| Rect::point(Point::new(x, y)))
}

fn rect() -> impl Strategy<Value = Rect> {
    (coord(), coord(), coord(), coord())
        .prop_map(|(a, b, c, d)| Rect::new(a.min(c), b.min(d), a.max(c), b.max(d)))
}

/// `n` entries: all points, all rectangles, points with one rectangle
/// (what a rectangle entering a point leaf splits), or a handful of
/// distinct entries repeated.
fn entries(n: usize) -> impl Strategy<Value = Vec<Rect>> {
    (
        0u8..4,
        prop::collection::vec(point(), n),
        prop::collection::vec(rect(), n),
        0usize..n,
    )
        .prop_map(move |(kind, points, rects, at)| match kind {
            0 => points,
            1 => rects,
            2 => {
                let mut v = points;
                v[at] = rects[at];
                v
            }
            _ => (0..n).map(|i| points[i % 3]).collect(),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cached_split_is_the_textbook_split_at_m_plus_one(rects in entries(101)) {
        prop_assert_eq!(QuadraticSplit.split(&rects, 40), textbook(&rects, 40));
    }

    #[test]
    fn cached_split_is_the_textbook_split_at_171(rects in entries(171)) {
        for min in [40, 71] {
            let (g1, g2) = QuadraticSplit.split(&rects, min);
            prop_assert!(g1.len() >= min && g2.len() >= min);
            prop_assert_eq!((g1, g2), textbook(&rects, min));
        }
    }

    #[test]
    fn cached_split_is_the_textbook_split_at_200(rects in entries(200)) {
        for min in [40, 100] {
            let (g1, g2) = QuadraticSplit.split(&rects, min);
            prop_assert!(g1.len() >= min && g2.len() >= min);
            prop_assert_eq!((g1, g2), textbook(&rects, min));
        }
    }
}
