//! The LRU buffer model (§3.3) — the paper's primary contribution.
//!
//! Following Bhide, Dan & Dias, the steady-state buffer hit probability is
//! approximated by the hit probability at the moment the buffer first fills.
//! With per-node access probabilities `A^Q_ij`:
//!
//! * distinct nodes touched by `N` queries:
//!   `D(N) = M − Σ_ij (1 − A^Q_ij)^N`  (eq. 5),
//! * warm-up length: `N* = min{ N : D(N) ≥ B }` (binary search),
//! * steady-state expected disk accesses per query:
//!   `ED = Σ_ij A^Q_ij · (1 − A^Q_ij)^{N*}`  (eq. 6).
//!
//! Pinning the top `p` levels removes those pages from the model and charges
//! them against the buffer: the model runs on levels `p..` with capacity
//! `B − Σ_{i<p} M_i`.

use crate::{TreeDescription, Workload};
use std::fmt;

/// Upper bound for the warm-up search. If the buffer has not filled after
/// this many queries the workload can effectively never fill it and the
/// residual disk-access probability of the untouched nodes is negligible.
const MAX_WARMUP: u64 = 1 << 50;

/// The buffer model for one tree and one workload.
///
/// # Examples
///
/// ```
/// use rtree_core::{BufferModel, TreeDescription, Workload};
/// use rtree_geom::Rect;
///
/// // A 2-level toy tree: the root covers the square, two half-space children.
/// let desc = TreeDescription::from_levels(vec![
///     vec![Rect::new(0.0, 0.0, 1.0, 1.0)],
///     vec![Rect::new(0.0, 0.0, 0.5, 1.0), Rect::new(0.5, 0.0, 1.0, 1.0)],
/// ]);
/// let model = BufferModel::new(&desc, &Workload::uniform_point());
///
/// // A point query touches the root plus one child on average.
/// assert!((model.expected_node_accesses() - 2.0).abs() < 1e-12);
/// // A 3-page buffer holds the whole tree: steady state needs no disk.
/// assert_eq!(model.expected_disk_accesses(3), 0.0);
/// // A 1-page buffer keeps only the root hot: half a disk access per query.
/// assert!((model.expected_disk_accesses(1) - 0.5).abs() < 1e-12);
/// ```
#[derive(Clone, Debug)]
pub struct BufferModel {
    /// Access probabilities grouped by level (root level first).
    level_probs: Vec<Vec<f64>>,
    /// Nodes per level (cached).
    nodes_per_level: Vec<usize>,
}

impl BufferModel {
    /// Evaluates the workload's access probabilities over the tree.
    pub fn new(desc: &TreeDescription, workload: &Workload) -> Self {
        BufferModel {
            level_probs: workload.access_probabilities(desc),
            nodes_per_level: desc.nodes_per_level(),
        }
    }

    /// Builds a model from explicit per-level probabilities (root first).
    /// Useful for testing and for external MBR sources.
    ///
    /// # Panics
    /// Panics if any probability is outside `[0, 1]`.
    pub fn from_probabilities(level_probs: Vec<Vec<f64>>) -> Self {
        for p in level_probs.iter().flatten() {
            assert!((0.0..=1.0).contains(p), "probability {p} out of range");
        }
        let nodes_per_level = level_probs.iter().map(Vec::len).collect();
        BufferModel {
            level_probs,
            nodes_per_level,
        }
    }

    /// The per-level access probabilities the model was built from
    /// (root level first).
    pub fn level_probabilities(&self) -> &[Vec<f64>] {
        &self.level_probs
    }

    /// Total number of nodes `M` (unpinned model).
    pub fn total_nodes(&self) -> usize {
        self.nodes_per_level.iter().sum()
    }

    /// Expected nodes visited per query with no buffer: `Σ A^Q_ij`.
    pub fn expected_node_accesses(&self) -> f64 {
        self.probs(0).sum()
    }

    /// Probabilities of all nodes at levels `skip..` (flattened).
    fn probs(&self, skip_levels: usize) -> impl Iterator<Item = f64> + '_ {
        self.level_probs.iter().skip(skip_levels).flatten().copied()
    }

    /// Expected number of distinct nodes (levels `skip..`) accessed in `n`
    /// queries — eq. 5. `n` is real-valued so the warm-up search can
    /// interpolate; `D` is monotone increasing in `n`.
    fn distinct_nodes_skipped(&self, n: f64, skip_levels: usize) -> f64 {
        let mut d = 0.0;
        for p in self.probs(skip_levels) {
            // (1 - p)^n, with care at the endpoints: p = 0 never enters the
            // buffer, p = 1 enters on the first query.
            if p > 0.0 {
                d += 1.0 - (1.0 - p).powf(n);
            }
        }
        d
    }

    /// Expected number of distinct nodes accessed in `n` queries (eq. 5).
    pub fn distinct_nodes(&self, n: u64) -> f64 {
        self.distinct_nodes_skipped(n as f64, 0)
    }

    /// The warm-up length `N*`: the smallest number of queries after which
    /// the expected number of distinct nodes touched reaches the buffer
    /// size `B`. `None` if the buffer can hold every node the workload ever
    /// touches (the steady state then needs no disk reads at all).
    ///
    /// Prefer [`BufferModel::warmup`] in reporting paths: it distinguishes
    /// *why* there is no finite `N*`, so a `None` cannot silently disappear
    /// from a table.
    pub fn warmup_queries(&self, buffer: usize) -> Option<u64> {
        self.warmup_queries_skipped(buffer, 0)
    }

    /// The warm-up search as a typed outcome. Unlike
    /// [`BufferModel::warmup_queries`], a buffer that never fills is an
    /// explicit, printable case rather than a bare `None` — callers
    /// building reports must show *something* for every buffer size
    /// instead of skipping the row.
    pub fn warmup(&self, buffer: usize) -> WarmupOutcome {
        match self.warmup_queries_skipped(buffer, 0) {
            Some(n) => WarmupOutcome::FillsAfter(n),
            None => WarmupOutcome::NeverFills {
                reachable: self.probs(0).filter(|&p| p > 0.0).count(),
                buffer,
            },
        }
    }

    fn warmup_queries_skipped(&self, buffer: usize, skip_levels: usize) -> Option<u64> {
        let reachable = self.probs(skip_levels).filter(|&p| p > 0.0).count();
        if reachable <= buffer {
            return None;
        }
        // Binary search the smallest integer N with D(N) >= B.
        let b = buffer as f64;
        let mut lo: u64 = 1;
        if self.distinct_nodes_skipped(1.0, skip_levels) >= b {
            return Some(1);
        }
        let mut hi: u64 = 2;
        while self.distinct_nodes_skipped(hi as f64, skip_levels) < b {
            if hi >= MAX_WARMUP {
                // D(N) converges to `reachable` > B only asymptotically in
                // f64 terms; treat the buffer as effectively never filling.
                return None;
            }
            lo = hi;
            hi *= 2;
        }
        while lo + 1 < hi {
            let mid = lo + (hi - lo) / 2;
            if self.distinct_nodes_skipped(mid as f64, skip_levels) < b {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(hi)
    }

    /// Steady-state expected disk accesses per query with an LRU buffer of
    /// `B` pages — eq. 6. Returns 0 when the buffer holds everything the
    /// workload touches.
    ///
    /// # Panics
    /// Panics if `buffer` is 0.
    pub fn expected_disk_accesses(&self, buffer: usize) -> f64 {
        assert!(buffer > 0, "buffer must hold at least one page");
        self.expected_disk_accesses_skipped(buffer, 0)
    }

    fn expected_disk_accesses_skipped(&self, buffer: usize, skip_levels: usize) -> f64 {
        match self.warmup_queries_skipped(buffer, skip_levels) {
            None => 0.0,
            Some(n_star) => {
                let n = n_star as f64;
                self.probs(skip_levels).map(|p| p * (1.0 - p).powf(n)).sum()
            }
        }
    }

    /// Number of pages occupied by pinning the top `p` levels.
    pub fn pinned_pages(&self, pin_levels: usize) -> usize {
        self.nodes_per_level.iter().take(pin_levels).sum()
    }

    /// Steady-state expected disk accesses per query when the top
    /// `pin_levels` levels are pinned in a buffer of `B` pages: the pinned
    /// pages are subtracted from the buffer and their levels leave the
    /// model (§3.3, last paragraph).
    ///
    /// The paper's "pinning never hurts" observation holds for real R-trees,
    /// whose top levels are at least as hot as anything below them. For a
    /// hand-crafted description with *cold* top levels the model correctly
    /// reports that dedicating frames to them can cost more than it saves.
    pub fn expected_disk_accesses_pinned(
        &self,
        buffer: usize,
        pin_levels: usize,
    ) -> Result<f64, PinningError> {
        if pin_levels > self.nodes_per_level.len() {
            return Err(PinningError::TooManyLevels {
                levels: self.nodes_per_level.len(),
            });
        }
        let pinned = self.pinned_pages(pin_levels);
        if pinned >= buffer {
            return Err(PinningError::BufferExhausted { pinned, buffer });
        }
        if pin_levels == self.nodes_per_level.len() {
            // The whole tree is pinned.
            return Ok(0.0);
        }
        Ok(self.expected_disk_accesses_skipped(buffer - pinned, pin_levels))
    }

    /// Chooses the pinning depth with the lowest predicted disk accesses
    /// for a buffer of `B` pages. Returns `(levels, expected_disk_accesses)`;
    /// `(0, ed)` means "don't pin". Deeper is only preferred when it is a
    /// strict improvement, so the advisor never recommends pointless pins.
    pub fn best_pinning(&self, buffer: usize) -> (usize, f64) {
        let mut best = (0usize, self.expected_disk_accesses(buffer));
        for p in 1..=self.max_pinnable_levels(buffer) {
            if let Ok(ed) = self.expected_disk_accesses_pinned(buffer, p) {
                if ed < best.1 {
                    best = (p, ed);
                }
            }
        }
        best
    }

    /// The largest number of levels that can be pinned in a buffer of `B`
    /// pages (at least one frame must remain unless the whole tree fits).
    pub fn max_pinnable_levels(&self, buffer: usize) -> usize {
        let mut pinned = 0usize;
        for (i, &m) in self.nodes_per_level.iter().enumerate() {
            pinned += m;
            let whole_tree = i + 1 == self.nodes_per_level.len();
            if pinned > buffer || (!whole_tree && pinned >= buffer) {
                return i;
            }
        }
        self.nodes_per_level.len()
    }
}

/// Typed outcome of the warm-up search (see [`BufferModel::warmup`]).
///
/// `warmup_queries` collapses the "buffer never fills" case into `None`,
/// which report-building call sites historically dropped on the floor —
/// the row for a buffer big enough to hold the working set simply went
/// missing. This enum keeps the case explicit and printable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WarmupOutcome {
    /// The buffer fills after this many queries (`N*` of eq. 5/6).
    FillsAfter(u64),
    /// The buffer never fills: it can hold every node the workload ever
    /// touches (`reachable <= buffer`, or the residual fill probability is
    /// below f64 resolution). Steady state then needs no disk reads.
    NeverFills {
        /// Nodes with a nonzero access probability.
        reachable: usize,
        /// The buffer size the search ran with.
        buffer: usize,
    },
}

impl WarmupOutcome {
    /// The finite warm-up length, if there is one (mirrors the legacy
    /// `Option` shape).
    pub fn queries(&self) -> Option<u64> {
        match self {
            WarmupOutcome::FillsAfter(n) => Some(*n),
            WarmupOutcome::NeverFills { .. } => None,
        }
    }
}

impl fmt::Display for WarmupOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WarmupOutcome::FillsAfter(n) => write!(f, "{n}"),
            WarmupOutcome::NeverFills { reachable, buffer } => {
                write!(f, "never fills ({reachable} reachable, {buffer} frames)")
            }
        }
    }
}

/// Error from [`BufferModel::expected_disk_accesses_pinned`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PinningError {
    /// Asked to pin more levels than the tree has.
    TooManyLevels { levels: usize },
    /// The pinned pages do not leave any buffer space.
    BufferExhausted { pinned: usize, buffer: usize },
}

impl fmt::Display for PinningError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PinningError::TooManyLevels { levels } => {
                write!(f, "tree only has {levels} levels")
            }
            PinningError::BufferExhausted { pinned, buffer } => {
                write!(f, "pinning {pinned} pages exhausts a {buffer}-page buffer")
            }
        }
    }
}

impl std::error::Error for PinningError {}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two-level toy tree: root always accessed, two half-space children.
    fn toy() -> BufferModel {
        BufferModel::from_probabilities(vec![vec![1.0], vec![0.5, 0.5]])
    }

    #[test]
    fn distinct_nodes_monotone_and_bounded() {
        let m = toy();
        assert_eq!(m.total_nodes(), 3);
        let d1 = m.distinct_nodes(1);
        let d10 = m.distinct_nodes(10);
        let d1000 = m.distinct_nodes(1000);
        assert!(d1 < d10 && d10 < d1000);
        assert!(d1000 <= 3.0);
        // D(1) = expected nodes per query = 2.
        assert!((d1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn whole_tree_fits_means_zero_disk_accesses() {
        let m = toy();
        assert_eq!(m.warmup_queries(3), None);
        assert_eq!(m.expected_disk_accesses(3), 0.0);
        assert_eq!(m.expected_disk_accesses(100), 0.0);
    }

    #[test]
    fn tiny_buffer_costs_almost_full_query() {
        // B = 1: only the root stays hot. After warm-up (N*=1: D(1)=2 >= 1),
        // ED = 1*(1-1)^1 + 2 * 0.5*(0.5)^1 = 0.5.
        let m = toy();
        assert_eq!(m.warmup_queries(1), Some(1));
        assert!((m.expected_disk_accesses(1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn buffer_two_intermediate() {
        // D(N) = 3 - 2*0.5^N ; D(N) >= 2 <=> 0.5^N <= 0.5 <=> N >= 1.
        let m = toy();
        assert_eq!(m.warmup_queries(2), Some(1));
    }

    #[test]
    fn disk_accesses_decrease_with_buffer() {
        let probs: Vec<f64> = (0..200).map(|i| 0.002 + (i as f64 % 37.0) / 60.0).collect();
        let m = BufferModel::from_probabilities(vec![vec![1.0], probs]);
        let mut last = f64::INFINITY;
        for b in [1usize, 5, 20, 60, 120, 190] {
            let ed = m.expected_disk_accesses(b);
            assert!(ed <= last + 1e-12, "ED not monotone at B={b}");
            last = ed;
        }
        assert_eq!(m.expected_disk_accesses(201), 0.0);
    }

    #[test]
    fn never_accessed_nodes_never_fill_buffer() {
        // 10 nodes with p=0: reachable set is 1 node; a 2-page buffer holds
        // it, so steady state needs no disk.
        let m = BufferModel::from_probabilities(vec![vec![1.0], vec![0.0; 10]]);
        assert_eq!(m.warmup_queries(2), None);
        assert_eq!(m.expected_disk_accesses(2), 0.0);
    }

    #[test]
    fn hot_node_in_buffer_costs_nothing_at_steady_state() {
        // p = 1 nodes are resident from query 1 on; with B >= 1 they add
        // nothing to ED once warm.
        let m = BufferModel::from_probabilities(vec![vec![1.0], vec![1.0, 0.3, 0.3]]);
        let ed = m.expected_disk_accesses(2);
        // Both p=1 nodes want residency; B=2 holds them, N* from D(N)>=2:
        // D(1) = 2 + 2*0.3 = 2.6 >= 2 -> N*=1; ED = 2*0.3*0.7 = 0.42.
        assert!((ed - 0.42).abs() < 1e-12);
    }

    #[test]
    fn pinning_reduces_or_preserves_cost() {
        let leaf_probs: Vec<f64> = (0..50).map(|i| 0.01 + (i as f64 % 10.0) / 25.0).collect();
        let m = BufferModel::from_probabilities(vec![vec![1.0], vec![0.4, 0.5, 0.6], leaf_probs]);
        for b in [5usize, 10, 30] {
            let unpinned = m.expected_disk_accesses(b);
            for p in 1..=2 {
                let pinned = m.expected_disk_accesses_pinned(b, p).unwrap();
                assert!(
                    pinned <= unpinned + 1e-9,
                    "pinning {p} levels with B={b} hurt: {pinned} > {unpinned}"
                );
            }
        }
    }

    #[test]
    fn pinning_whole_tree_is_free() {
        let m = toy();
        assert_eq!(m.expected_disk_accesses_pinned(4, 2).unwrap(), 0.0);
    }

    #[test]
    fn pinning_errors() {
        let m = toy();
        assert_eq!(
            m.expected_disk_accesses_pinned(1, 1),
            Err(PinningError::BufferExhausted {
                pinned: 1,
                buffer: 1
            })
        );
        assert_eq!(
            m.expected_disk_accesses_pinned(10, 3),
            Err(PinningError::TooManyLevels { levels: 2 })
        );
    }

    #[test]
    fn max_pinnable_levels() {
        // Levels of 1, 3, 20 pages.
        let m = BufferModel::from_probabilities(vec![vec![1.0], vec![0.5; 3], vec![0.1; 20]]);
        assert_eq!(m.max_pinnable_levels(1), 0); // pinning the root leaves no frame
        assert_eq!(m.max_pinnable_levels(2), 1);
        assert_eq!(m.max_pinnable_levels(4), 1); // 1+3 = 4 >= B
        assert_eq!(m.max_pinnable_levels(5), 2);
        assert_eq!(m.max_pinnable_levels(24), 3); // whole tree fits exactly
        assert_eq!(m.max_pinnable_levels(23), 2);
    }

    #[test]
    fn best_pinning_picks_strict_improvements_only() {
        // Hot top levels, cold leaves: pinning both internal levels wins.
        let m = BufferModel::from_probabilities(vec![vec![1.0], vec![0.9; 3], vec![0.05; 40]]);
        let (levels, ed) = m.best_pinning(10);
        assert!(levels >= 1, "hot levels should be pinned");
        assert!(ed <= m.expected_disk_accesses(10) + 1e-12);

        // Whole tree fits: nothing to gain, recommend no pinning.
        let (levels, ed) = m.best_pinning(100);
        assert_eq!((levels, ed), (0, 0.0));
    }

    #[test]
    fn pinned_pages_counts() {
        let m = BufferModel::from_probabilities(vec![vec![1.0], vec![0.5; 3], vec![0.1; 20]]);
        assert_eq!(m.pinned_pages(0), 0);
        assert_eq!(m.pinned_pages(1), 1);
        assert_eq!(m.pinned_pages(2), 4);
        assert_eq!(m.pinned_pages(3), 24);
    }

    #[test]
    fn warmup_outcome_matches_option_shape() {
        let m = toy();
        assert_eq!(m.warmup(1), WarmupOutcome::FillsAfter(1));
        assert_eq!(m.warmup(1).queries(), m.warmup_queries(1));
        let w = m.warmup(3);
        assert_eq!(w.queries(), None);
        assert_eq!(
            w,
            WarmupOutcome::NeverFills {
                reachable: 3,
                buffer: 3
            }
        );
        // The typed outcome always renders to something printable.
        assert_eq!(m.warmup(1).to_string(), "1");
        assert!(w.to_string().contains("never fills"));
    }

    #[test]
    fn warmup_outcome_excludes_unreachable_nodes() {
        let m = BufferModel::from_probabilities(vec![vec![1.0], vec![0.0; 10]]);
        assert_eq!(
            m.warmup(2),
            WarmupOutcome::NeverFills {
                reachable: 1,
                buffer: 2
            }
        );
    }

    #[test]
    #[should_panic]
    fn zero_buffer_rejected() {
        let _ = toy().expected_disk_accesses(0);
    }

    #[test]
    #[should_panic]
    fn bad_probability_rejected() {
        let _ = BufferModel::from_probabilities(vec![vec![1.5]]);
    }
}
