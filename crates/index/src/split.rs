//! Guttman node-split heuristics.
//!
//! When a node overflows during tuple-at-a-time insertion its `M + 1`
//! entries must be partitioned into two groups. The paper's TAT loader uses
//! Guttman's *quadratic* heuristic; the *linear* heuristic is provided as an
//! ablation baseline (`ablation_splits` experiment).

use crate::bounds::Bounds;
use rtree_geom::Rect;

/// A node-split heuristic: partitions `rects` (of length `max_entries + 1`)
/// into two groups, each holding at least `min` entries.
///
/// Returns the entry indices of each group; together they must cover
/// `0..rects.len()` exactly once.
pub trait SplitPolicy<B = Rect>: Send + Sync {
    /// Partition `rects` into two groups of at least `min` entries each.
    fn split(&self, rects: &[B], min: usize) -> (Vec<usize>, Vec<usize>);

    /// Short name used in experiment output.
    fn name(&self) -> &'static str;
}

/// Guttman's quadratic split: pick the pair of seeds wasting the most area,
/// then repeatedly assign the entry with the greatest affinity difference to
/// the group whose MBR it enlarges least. The only split written for every
/// [`Bounds`]; the pager splits its pages with it too.
#[derive(Clone, Copy, Debug, Default)]
pub struct QuadraticSplit;

impl<B: Bounds> SplitPolicy<B> for QuadraticSplit {
    fn split(&self, rects: &[B], min: usize) -> (Vec<usize>, Vec<usize>) {
        let n = rects.len();
        assert!(
            n >= 2 && 2 * min <= n,
            "cannot split {n} entries with min {min}"
        );

        // PickSeeds: maximize d = area(union) - area(a) - area(b).
        let (mut s1, mut s2) = (0usize, 1usize);
        let mut worst = f64::NEG_INFINITY;
        for i in 0..n {
            for j in (i + 1)..n {
                let d = rects[i].union(&rects[j]).volume() - rects[i].volume() - rects[j].volume();
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
            // If one group must absorb everything to reach `min`, do so.
            if g1.len() + remaining.len() == min {
                g1.append(&mut remaining);
                break;
            }
            if g2.len() + remaining.len() == min {
                g2.append(&mut remaining);
                break;
            }

            // PickNext: entry with maximum |d1 - d2|.
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

            // Resolve ties by smaller area, then fewer entries (Guttman).
            let to_first = if d1 < d2 {
                true
            } else if d2 < d1 {
                false
            } else if mbr1.volume() < mbr2.volume() {
                true
            } else if mbr2.volume() < mbr1.volume() {
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

    fn name(&self) -> &'static str {
        "quadratic"
    }
}

/// Guttman's linear split: seeds with the greatest normalized separation,
/// remaining entries assigned in input order by least enlargement.
#[derive(Clone, Copy, Debug, Default)]
pub struct LinearSplit;

impl SplitPolicy for LinearSplit {
    fn split(&self, rects: &[Rect], min: usize) -> (Vec<usize>, Vec<usize>) {
        let n = rects.len();
        assert!(
            n >= 2 && 2 * min <= n,
            "cannot split {n} entries with min {min}"
        );

        // LinearPickSeeds: per dimension, the entry with the highest low side
        // and the one with the lowest high side; normalize the separation by
        // the total extent; take the dimension with the greatest value.
        let seed_pair = |lows: &dyn Fn(&Rect) -> f64, highs: &dyn Fn(&Rect) -> f64| {
            let mut max_low = 0usize;
            let mut min_high = 0usize;
            let mut lo_all = f64::INFINITY;
            let mut hi_all = f64::NEG_INFINITY;
            for (i, r) in rects.iter().enumerate() {
                if lows(r) > lows(&rects[max_low]) {
                    max_low = i;
                }
                if highs(r) < highs(&rects[min_high]) {
                    min_high = i;
                }
                lo_all = lo_all.min(lows(r));
                hi_all = hi_all.max(highs(r));
            }
            let width = (hi_all - lo_all).max(f64::MIN_POSITIVE);
            let sep = (lows(&rects[max_low]) - highs(&rects[min_high])) / width;
            (sep, max_low, min_high)
        };
        let (sep_x, ax, bx) = seed_pair(&|r: &Rect| r.lo.x, &|r: &Rect| r.hi.x);
        let (sep_y, ay, by) = seed_pair(&|r: &Rect| r.lo.y, &|r: &Rect| r.hi.y);
        let (mut s1, mut s2) = if sep_x >= sep_y { (ax, bx) } else { (ay, by) };
        if s1 == s2 {
            // Degenerate (e.g. identical rectangles): fall back to first two.
            s1 = 0;
            s2 = if s1 == 0 { 1 } else { 0 };
        }

        let mut g1 = vec![s1];
        let mut g2 = vec![s2];
        let mut mbr1 = rects[s1];
        let mut mbr2 = rects[s2];
        let mut remaining: Vec<usize> = (0..n).filter(|&i| i != s1 && i != s2).collect();

        while let Some(i) = remaining.pop() {
            if g1.len() + remaining.len() + 1 == min {
                g1.push(i);
                g1.append(&mut remaining);
                break;
            }
            if g2.len() + remaining.len() + 1 == min {
                g2.push(i);
                g2.append(&mut remaining);
                break;
            }
            if mbr1.enlargement(&rects[i]) <= mbr2.enlargement(&rects[i]) {
                mbr1 = mbr1.union(&rects[i]);
                g1.push(i);
            } else {
                mbr2 = mbr2.union(&rects[i]);
                g2.push(i);
            }
        }
        (g1, g2)
    }

    fn name(&self) -> &'static str {
        "linear"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_partition(policy: &dyn SplitPolicy, rects: &[Rect], min: usize) {
        let (g1, g2) = policy.split(rects, min);
        assert!(g1.len() >= min, "{}: group 1 too small", policy.name());
        assert!(g2.len() >= min, "{}: group 2 too small", policy.name());
        assert_eq!(g1.len() + g2.len(), rects.len());
        let mut all: Vec<usize> = g1.iter().chain(g2.iter()).copied().collect();
        all.sort_unstable();
        let expect: Vec<usize> = (0..rects.len()).collect();
        assert_eq!(all, expect, "{}: not a partition", policy.name());
    }

    fn clustered_rects() -> Vec<Rect> {
        // Two obvious clusters: bottom-left and top-right.
        vec![
            Rect::new(0.0, 0.0, 0.1, 0.1),
            Rect::new(0.05, 0.05, 0.15, 0.15),
            Rect::new(0.1, 0.0, 0.2, 0.1),
            Rect::new(0.8, 0.8, 0.9, 0.9),
            Rect::new(0.85, 0.85, 0.95, 0.95),
        ]
    }

    #[test]
    fn quadratic_is_a_partition() {
        check_partition(&QuadraticSplit, &clustered_rects(), 2);
    }

    #[test]
    fn linear_is_a_partition() {
        check_partition(&LinearSplit, &clustered_rects(), 2);
    }

    #[test]
    fn quadratic_separates_clusters() {
        let rects = clustered_rects();
        let (g1, g2) = QuadraticSplit.split(&rects, 2);
        // The two top-right rects (indices 3, 4) must land together.
        let together = (g1.contains(&3) && g1.contains(&4)) || (g2.contains(&3) && g2.contains(&4));
        assert!(together, "clusters split apart: {g1:?} {g2:?}");
    }

    #[test]
    fn identical_rects_still_split() {
        let rects = vec![Rect::new(0.4, 0.4, 0.6, 0.6); 6];
        check_partition(&QuadraticSplit, &rects, 3);
        check_partition(&LinearSplit, &rects, 3);
    }

    #[test]
    fn min_fill_is_respected_in_skewed_input() {
        // One far-away outlier: force-assignment must still fill both groups.
        let mut rects = vec![Rect::new(0.9, 0.9, 1.0, 1.0)];
        for i in 0..7 {
            let o = i as f64 * 0.01;
            rects.push(Rect::new(o, o, o + 0.005, o + 0.005));
        }
        check_partition(&QuadraticSplit, &rects, 4);
        check_partition(&LinearSplit, &rects, 4);
    }

    #[test]
    fn degenerate_point_rects() {
        let rects: Vec<Rect> = (0..5)
            .map(|i| {
                let v = i as f64 / 5.0;
                Rect::new(v, v, v, v)
            })
            .collect();
        check_partition(&QuadraticSplit, &rects, 2);
        check_partition(&LinearSplit, &rects, 2);
    }
}
