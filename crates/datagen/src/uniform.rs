//! The paper's exactly-specified synthetic data sets.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtree_geom::{Point, Rect};

/// Synthetic Region data (§5.1): squares whose centers are uniform in the
/// unit square and whose side length is uniform in `(0, ε)` with
/// `ε = 2·√(0.25/10000)` — fixed across data set sizes, so total covered
/// area scales linearly (≈0.25 at 10,000 rectangles, ≈2.5 at 100,000).
#[derive(Clone, Copy, Debug)]
pub struct SyntheticRegion {
    count: usize,
}

impl SyntheticRegion {
    /// The paper's ε.
    pub const EPSILON: f64 = 0.01; // 2 * sqrt(0.25 / 10_000)

    /// Creates a generator for `count` rectangles with the paper's ε.
    pub fn new(count: usize) -> Self {
        SyntheticRegion { count }
    }

    /// Generates the data set. Rectangles are clamped to the unit square
    /// (all data sets in the paper are normalized to it).
    pub fn generate(&self, seed: u64) -> Vec<Rect> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..self.count)
            .map(|_| {
                let cx: f64 = rng.gen_range(0.0..1.0);
                let cy: f64 = rng.gen_range(0.0..1.0);
                let side: f64 = rng.gen_range(0.0..Self::EPSILON);
                Rect::centered(Point::new(cx, cy), side, side)
                    .clamp_unit()
                    .expect("center is inside the unit square")
            })
            .collect()
    }
}

/// Synthetic Point data (§5.1): points "located with equal probability on
/// any location within the unit square", stored as degenerate rectangles.
#[derive(Clone, Copy, Debug)]
pub struct SyntheticPoint {
    count: usize,
}

impl SyntheticPoint {
    /// Creates a generator for `count` points.
    pub fn new(count: usize) -> Self {
        SyntheticPoint { count }
    }

    /// Generates the data set.
    pub fn generate(&self, seed: u64) -> Vec<Rect> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..self.count)
            .map(|_| Rect::point(Point::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0))))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtree_geom::UNIT;

    #[test]
    fn epsilon_matches_papers_formula() {
        assert!((SyntheticRegion::EPSILON - 2.0 * (0.25f64 / 10_000.0).sqrt()).abs() < 1e-15);
    }

    #[test]
    fn region_total_area_tracks_the_papers_calibration() {
        // E[side^2] = eps^2 / 3, so 10,000 rects cover eps^2/3 * 1e4 = 1/3
        // of the square in expectation — the paper rounds this to "roughly
        // 0.25" (it matches exactly if side^2 is read as E[side]^2).
        let rects = SyntheticRegion::new(10_000).generate(1);
        let total: f64 = rects.iter().map(Rect::area).sum();
        assert!((0.2..0.45).contains(&total), "total area {total}");
    }

    #[test]
    fn region_rects_stay_in_unit_square() {
        for r in SyntheticRegion::new(5_000).generate(2) {
            assert!(UNIT.contains_rect(&r), "{r} escapes the unit square");
            assert!(r.x_extent() <= SyntheticRegion::EPSILON);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = SyntheticRegion::new(100).generate(7);
        let b = SyntheticRegion::new(100).generate(7);
        let c = SyntheticRegion::new(100).generate(8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn points_are_degenerate_and_uniformish() {
        let pts = SyntheticPoint::new(10_000).generate(3);
        assert_eq!(pts.len(), 10_000);
        let mut left = 0usize;
        for r in &pts {
            assert_eq!(r.area(), 0.0);
            assert!(UNIT.contains_rect(r));
            if r.lo.x < 0.5 {
                left += 1;
            }
        }
        let share = left as f64 / pts.len() as f64;
        assert!((0.45..0.55).contains(&share), "skew: {share}");
    }
}
