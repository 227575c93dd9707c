//! Zipf-skewed query-follows-data workloads (extension data set).
//!
//! The paper's data-driven workload (§3.2) draws query centers *uniformly*
//! from the data centers. Real query logs are rank-skewed: a few hot
//! objects draw most of the traffic. This module adds that axis while
//! keeping the analytic model exact: a Zipf draw over centers is
//! represented as a **weighted center multiset** — center of rank `k`
//! appears `∝ 1/k^θ` times — and a uniform draw from the multiset (which
//! is what both [`rtree_core::Workload::data_driven`] and the query
//! samplers do) reproduces the Zipf frequencies. No new model code is
//! needed; eq. 4 evaluates the multiset as-is.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtree_core::Workload;
use rtree_geom::{Point, Rect};

/// Normalized Zipf rank distribution: `P(rank k) ∝ 1/(k+1)^θ` for
/// `k = 0..n`. `θ = 0` is uniform; larger `θ` is more skewed.
#[derive(Clone, Debug)]
pub struct ZipfWeights {
    probs: Vec<f64>,
    cdf: Vec<f64>,
}

impl ZipfWeights {
    /// Creates the distribution over `n` ranks with exponent `theta`.
    ///
    /// # Panics
    /// Panics if `n` is 0 or `theta` is negative or non-finite.
    pub fn new(n: usize, theta: f64) -> Self {
        let probs = zipf_probs(n, theta);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for &p in &probs {
            acc += p;
            cdf.push(acc);
        }
        // Guard the tail against rounding so `sample(1.0)` stays in range.
        *cdf.last_mut().expect("n >= 1") = 1.0;
        ZipfWeights { probs, cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// True only for the (impossible by construction) empty distribution.
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// Probability of rank `k` (0 = hottest).
    ///
    /// # Panics
    /// Panics if `k` is out of range.
    pub fn probability(&self, k: usize) -> f64 {
        self.probs[k]
    }

    /// Inverse-CDF sample: maps `u ∈ [0, 1]` to a rank.
    pub fn sample(&self, u: f64) -> usize {
        let u = u.clamp(0.0, 1.0);
        self.cdf.partition_point(|&c| c < u).min(self.len() - 1)
    }

    /// Draws a rank from `rng`.
    pub fn draw(&self, rng: &mut StdRng) -> usize {
        self.sample(rng.gen())
    }
}

/// The normalized rank probabilities of [`ZipfWeights`]; see there.
fn zipf_probs(n: usize, theta: f64) -> Vec<f64> {
    assert!(n >= 1, "need at least one rank");
    assert!(theta >= 0.0 && theta.is_finite(), "theta must be >= 0");
    let mut probs: Vec<f64> = (0..n).map(|k| 1.0 / ((k + 1) as f64).powf(theta)).collect();
    let z: f64 = probs.iter().sum();
    for p in &mut probs {
        *p /= z;
    }
    probs
}

/// Builds the Zipf-weighted center multiset: ranks are assigned to the
/// centers by a seeded permutation (so "which object is hot" varies with
/// the seed, not with input order), and each center is replicated by
/// largest-remainder apportionment of `total · P(rank)`. A uniform draw
/// from the returned multiset is a Zipf(θ) draw over the input centers;
/// centers whose share rounds to zero copies are simply absent.
///
/// # Panics
/// Panics if `centers` is empty, `total` is 0, or `theta` is invalid.
pub fn zipf_center_multiset(centers: &[Point], theta: f64, total: usize, seed: u64) -> Vec<Point> {
    ZipfPool::new(centers.len(), theta, total, seed).expand(centers)
}

/// [`zipf_center_multiset`] without its copies: the center indices by
/// rank, the end of each rank's run of copies, and the rank of every 16th
/// slot, so finding slot `j` searches the runs of 16 slots only.
pub(crate) struct ZipfPool {
    order: Vec<usize>,
    ends: Vec<usize>,
    guide: Vec<usize>,
}

impl ZipfPool {
    /// The pool over `n` centers; see [`zipf_center_multiset`].
    pub(crate) fn new(n: usize, theta: f64, total: usize, seed: u64) -> Self {
        assert!(n >= 1, "need at least one center");
        assert!(total >= 1, "need at least one multiset slot");
        // Seeded rank assignment: a Fisher-Yates permutation of the centers.
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..n).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let mut ends = apportion(&zipf_probs(n, theta), total);
        let mut end = 0;
        for copies in &mut ends {
            end += *copies;
            *copies = end;
        }
        let rank = |slot: usize| ends.partition_point(|&end| end <= slot);
        let guide = (0..=end / 16 + 1).map(|b| rank(b * 16)).collect();
        ZipfPool { order, ends, guide }
    }

    /// Slots in the multiset.
    pub(crate) fn len(&self) -> usize {
        *self.ends.last().expect("at least one center")
    }

    /// The center index in slot `j < len` of the multiset: that of the
    /// first rank whose run ends past `j`.
    pub(crate) fn get(&self, j: usize) -> usize {
        let (lo, hi) = (self.guide[j / 16], self.guide[j / 16 + 1]);
        self.order[lo + self.ends[lo..hi].partition_point(|&end| end <= j)]
    }

    /// The multiset over `centers`, each repeated as often as its rank's
    /// share.
    pub(crate) fn expand(&self, centers: &[Point]) -> Vec<Point> {
        (0..self.len()).map(|j| centers[self.get(j)]).collect()
    }
}

/// Largest-remainder apportionment of `total` copies over the ranks of
/// `probs`: each rank gets the floor of its share, and the
/// `total - assigned` largest remainders (ties to the hotter rank) one
/// more. That order is total, so selecting them needs no full sort. The
/// comparison recomputes each remainder, so set-up holds only the
/// probabilities, the copies and the ranks.
fn apportion(probs: &[f64], total: usize) -> Vec<usize> {
    let share = |k: usize| probs[k] * total as f64;
    // A share is never negative, so its fraction is `share - floor(share)`.
    let remainder = |k: usize| share(k).fract();
    let mut copies: Vec<usize> = (0..probs.len())
        .map(|k| share(k).floor() as usize)
        .collect();
    let extra = (total - copies.iter().sum::<usize>()).min(copies.len());
    let mut order: Vec<usize> = (0..probs.len()).collect();
    order.select_nth_unstable_by(extra.saturating_sub(1), |&a, &b| {
        remainder(b).total_cmp(&remainder(a)).then(a.cmp(&b))
    });
    for &k in &order[..extra] {
        copies[k] += 1;
    }
    copies
}

/// Query-follows-data workload over a data set: query rectangles of size
/// `qx × qy` centered on the data centers, drawn uniformly (§3.2). The
/// degenerate `qx = qy = 0` case is the data-driven *point* workload.
pub fn data_driven_workload(rects: &[Rect], qx: f64, qy: f64) -> Workload {
    Workload::data_driven(qx, qy, crate::centers(rects))
}

/// Zipf-skewed query-follows-data workload: like
/// [`data_driven_workload`], but the centers are drawn Zipf(θ) — hot
/// objects attract most queries. `total` is the multiset resolution
/// (larger = finer approximation of the real-valued Zipf weights; a few
/// times `rects.len()` is plenty), `seed` picks which objects are hot.
pub fn zipf_workload(
    rects: &[Rect],
    qx: f64,
    qy: f64,
    theta: f64,
    total: usize,
    seed: u64,
) -> Workload {
    Workload::data_driven(
        qx,
        qy,
        zipf_center_multiset(&crate::centers(rects), theta, total, seed),
    )
}

/// Pearson chi-square statistic `Σ (O−E)²/E` over matched observed and
/// expected counts (cells with nonpositive expectation are skipped).
/// Shared by the skew sanity tests here and the workload-estimation tests
/// in `rtree-tune`.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn chi_square(observed: &[f64], expected: &[f64]) -> f64 {
    assert_eq!(observed.len(), expected.len(), "cell count mismatch");
    observed
        .iter()
        .zip(expected)
        .filter(|(_, &e)| e > 0.0)
        .map(|(&o, &e)| (o - e) * (o - e) / e)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_normalize_and_order() {
        let w = ZipfWeights::new(100, 1.1);
        let sum: f64 = (0..100).map(|k| w.probability(k)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        for k in 1..100 {
            assert!(w.probability(k) < w.probability(k - 1));
        }
        // theta = 0 is uniform.
        let u = ZipfWeights::new(10, 0.0);
        for k in 0..10 {
            assert!((u.probability(k) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn inverse_cdf_endpoints() {
        let w = ZipfWeights::new(5, 1.0);
        assert_eq!(w.sample(0.0), 0);
        assert_eq!(w.sample(1.0), 4);
        assert_eq!(w.sample(f64::NAN.clamp(0.0, 1.0)), 0);
    }

    /// The chi-square sanity test of the skew: sampled rank frequencies
    /// must fit Zipf(θ) and must *not* fit uniform.
    #[test]
    fn sampled_skew_passes_chi_square_against_zipf_not_uniform() {
        let n = 50usize;
        let draws = 100_000usize;
        let w = ZipfWeights::new(n, 1.2);
        let mut rng = StdRng::seed_from_u64(42);
        let mut observed = vec![0.0f64; n];
        for _ in 0..draws {
            observed[w.draw(&mut rng)] += 1.0;
        }
        let zipf_expected: Vec<f64> = (0..n).map(|k| w.probability(k) * draws as f64).collect();
        let uniform_expected = vec![draws as f64 / n as f64; n];
        let fit = chi_square(&observed, &zipf_expected);
        let misfit = chi_square(&observed, &uniform_expected);
        // 49 degrees of freedom: the 0.999 quantile is ~85.4. The uniform
        // misfit is astronomically larger — the skew is real.
        assert!(fit < 100.0, "chi-square vs Zipf too large: {fit}");
        assert!(misfit > 10_000.0, "uniform not rejected: {misfit}");
    }

    #[test]
    fn multiset_matches_weights_and_seed() {
        let centers: Vec<Point> = (0..40)
            .map(|i| Point::new(i as f64 / 40.0, (i % 7) as f64 / 7.0))
            .collect();
        let total = 4_000usize;
        let ms = zipf_center_multiset(&centers, 1.0, total, 7);
        assert_eq!(ms.len(), total);
        // Copy counts reproduce the Zipf weights to within one slot.
        let w = ZipfWeights::new(centers.len(), 1.0);
        let mut counts = std::collections::HashMap::new();
        for p in &ms {
            *counts
                .entry((p.x.to_bits(), p.y.to_bits()))
                .or_insert(0usize) += 1;
        }
        let mut by_count: Vec<usize> = counts.values().copied().collect();
        by_count.sort_unstable_by(|a, b| b.cmp(a));
        for (k, &c) in by_count.iter().enumerate() {
            let want = w.probability(k) * total as f64;
            assert!(
                (c as f64 - want).abs() <= 1.0,
                "rank {k}: {c} copies vs expected {want:.2}"
            );
        }
        // Deterministic per seed; a different seed heats different centers.
        assert_eq!(ms, zipf_center_multiset(&centers, 1.0, total, 7));
        assert_ne!(ms, zipf_center_multiset(&centers, 1.0, total, 8));
    }

    #[test]
    fn workload_builders_wire_through() {
        let rects: Vec<Rect> = (0..30)
            .map(|i| {
                let x = i as f64 / 30.0;
                Rect::new(x, 0.2, x + 0.01, 0.21)
            })
            .collect();
        let dd = data_driven_workload(&rects, 0.05, 0.05);
        assert!(dd.is_data_driven());
        assert_eq!(dd.centers().map(<[Point]>::len), Some(30));
        let z = zipf_workload(&rects, 0.05, 0.05, 1.5, 300, 3);
        assert!(z.is_data_driven());
        assert_eq!(z.centers().map(<[Point]>::len), Some(300));
        // Strong skew: the hottest center holds a large share of the slots.
        let centers = z.centers().expect("data driven");
        let mut counts = std::collections::HashMap::new();
        for p in centers {
            *counts
                .entry((p.x.to_bits(), p.y.to_bits()))
                .or_insert(0usize) += 1;
        }
        let max = counts.values().copied().max().expect("non-empty");
        assert!(max > 300 / 10, "hottest center only {max}/300 slots");
    }

    /// The pool a stream draws from, unexpanded, answers every slot as
    /// the expanded multiset does, whatever the skew, including ranks
    /// whose share rounds to no copy at all.
    #[test]
    fn every_slot_of_the_pool_is_the_multisets() {
        let centers: Vec<Point> = (0..97)
            .map(|i| Point::new(i as f64 / 97.0, (i % 11) as f64 / 11.0))
            .collect();
        for (theta, total) in [(0.0, 97), (0.99, 388), (1.5, 200), (3.0, 1_000)] {
            let pool = ZipfPool::new(centers.len(), theta, total, 5);
            let multiset = zipf_center_multiset(&centers, theta, total, 5);
            assert_eq!(pool.len(), multiset.len(), "θ {theta}");
            for (j, p) in multiset.iter().enumerate() {
                assert_eq!(centers[pool.get(j)], *p, "θ {theta}, slot {j}");
            }
        }
    }

    /// The pool's slots for one small case whose largest remainders
    /// decide copies, pinned: set-up may change how it computes, never
    /// what.
    #[test]
    fn pool_slots_are_pinned() {
        let pool = ZipfPool::new(12, 0.99, 40, 3);
        let slots: Vec<usize> = (0..pool.len()).map(|j| pool.get(j)).collect();
        assert_eq!(
            slots,
            [
                4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 9, 9, 9, 9, 9, 9, 6, 6, 6, 6, 2, 2, 2, 3, 3,
                3, 1, 1, 11, 11, 5, 5, 10, 10, 8, 7, 0
            ]
        );
    }

    #[test]
    #[should_panic]
    fn rejects_empty_centers() {
        let _ = zipf_center_multiset(&[], 1.0, 10, 0);
    }

    #[test]
    #[should_panic]
    fn rejects_negative_theta() {
        let _ = ZipfWeights::new(10, -0.5);
    }
}
