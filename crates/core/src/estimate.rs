//! Steady-state residency (§3.3): the probability that each node is in an
//! LRU buffer of `B` pages once it has warmed up, and its miss probability.

use crate::BufferModel;

impl BufferModel {
    /// Steady-state residency probability of every node under a buffer of
    /// `B` pages: `1 − (1 − A^Q_ij)^{N*}`, or 1 for every reachable node if
    /// the buffer never fills. Grouped by level, root first.
    ///
    /// # Panics
    /// Panics if `buffer` is 0.
    pub fn residency_probabilities(&self, buffer: usize) -> Vec<Vec<f64>> {
        assert!(buffer > 0, "buffer must hold at least one page");
        match self.warmup_queries(buffer) {
            None => self
                .level_probabilities()
                .iter()
                .map(|level| {
                    level
                        .iter()
                        .map(|&p| f64::from(u8::from(p > 0.0)))
                        .collect()
                })
                .collect(),
            Some(n_star) => {
                let n = n_star as f64;
                self.level_probabilities()
                    .iter()
                    .map(|level| {
                        level
                            .iter()
                            .map(|&p| {
                                if p > 0.0 {
                                    1.0 - (1.0 - p).powf(n)
                                } else {
                                    0.0
                                }
                            })
                            .collect()
                    })
                    .collect()
            }
        }
    }

    /// Steady-state miss probability of every node (`1 − residency`).
    pub fn miss_probabilities(&self, buffer: usize) -> Vec<Vec<f64>> {
        self.residency_probabilities(buffer)
            .into_iter()
            .map(|level| level.into_iter().map(|r| 1.0 - r).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TreeDescription, Workload};
    use rtree_geom::Rect;

    fn toy_desc() -> TreeDescription {
        TreeDescription::from_levels(vec![
            vec![Rect::new(0.0, 0.0, 1.0, 1.0)],
            vec![Rect::new(0.0, 0.0, 0.5, 1.0), Rect::new(0.5, 0.0, 1.0, 1.0)],
        ])
    }

    #[test]
    fn residency_is_one_when_buffer_holds_everything() {
        let d = toy_desc();
        let m = BufferModel::new(&d, &Workload::uniform_point());
        let res = m.residency_probabilities(3);
        assert_eq!(res, vec![vec![1.0], vec![1.0, 1.0]]);
        assert_eq!(m.miss_probabilities(3), vec![vec![0.0], vec![0.0, 0.0]]);
    }

    #[test]
    fn hot_nodes_more_resident_than_cold() {
        let d = TreeDescription::from_levels(vec![
            vec![Rect::new(0.0, 0.0, 1.0, 1.0)],
            vec![
                Rect::new(0.0, 0.0, 0.9, 1.0), // hot: area 0.9
                Rect::new(0.9, 0.0, 1.0, 1.0), // cold: area 0.1
            ],
        ]);
        let m = BufferModel::new(&d, &Workload::uniform_point());
        let res = m.residency_probabilities(2);
        assert!(res[1][0] > res[1][1], "hot node must be more resident");
        assert_eq!(res[0][0], 1.0, "root (p=1) always resident after warmup");
    }

    #[test]
    fn estimator_averages_back_to_ed() {
        // The workload's access probabilities weight the miss probabilities
        // back to the model's ED: Σ_ij A_ij * miss_ij.
        let d = toy_desc();
        let w = Workload::uniform_point();
        let m = BufferModel::new(&d, &w);
        for b in [1usize, 2] {
            let miss = m.miss_probabilities(b);
            let probs = w.access_probabilities(&d);
            let avg: f64 = probs
                .iter()
                .flatten()
                .zip(miss.iter().flatten())
                .map(|(a, mm)| a * mm)
                .sum();
            let ed = m.expected_disk_accesses(b);
            assert!((avg - ed).abs() < 1e-12, "B={b}: {avg} vs {ed}");
        }
    }
}
