//! Batch-means statistics with Student-t confidence intervals.

/// Batch-means estimator: the simulation is split into `k` batches, each
/// batch yields one mean, and the batch means (approximately independent
/// for long batches) give a mean and a confidence interval. The paper uses
/// 20 batches and 90% confidence.
#[derive(Clone, Debug, Default)]
pub struct BatchMeans {
    batches: Vec<f64>,
}

/// Two-sided 90% critical values of the Student t distribution
/// (`t_{0.95, df}`) for df = 1..=30.
const T_095: [f64; 30] = [
    6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812, 1.796, 1.782, 1.771,
    1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725, 1.721, 1.717, 1.714, 1.711, 1.708, 1.706,
    1.703, 1.701, 1.699, 1.697,
];

impl BatchMeans {
    /// Creates an empty estimator.
    pub fn new() -> Self {
        BatchMeans::default()
    }

    /// Records the mean of one batch.
    pub fn push(&mut self, batch_mean: f64) {
        self.batches.push(batch_mean);
    }

    /// Number of batches recorded.
    pub fn len(&self) -> usize {
        self.batches.len()
    }

    /// True if no batches are recorded.
    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }

    /// Grand mean over batches.
    ///
    /// # Panics
    /// Panics if no batches were recorded.
    pub fn mean(&self) -> f64 {
        assert!(!self.batches.is_empty(), "no batches recorded");
        self.batches.iter().sum::<f64>() / self.batches.len() as f64
    }

    /// Sample standard deviation of the batch means.
    pub fn std_dev(&self) -> f64 {
        let k = self.batches.len();
        if k < 2 {
            return 0.0;
        }
        let mean = self.mean();
        let var = self
            .batches
            .iter()
            .map(|b| (b - mean) * (b - mean))
            .sum::<f64>()
            / (k - 1) as f64;
        var.sqrt()
    }

    /// Half-width of the two-sided 90% confidence interval
    /// (`t_{0.95, k-1} · s / √k`); 0 with fewer than two batches.
    pub fn ci_half_width_90(&self) -> f64 {
        let k = self.batches.len();
        if k < 2 {
            return 0.0;
        }
        let df = k - 1;
        let t = if df <= 30 {
            T_095[df - 1]
        } else {
            1.6449 // normal approximation
        };
        t * self.std_dev() / (k as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_constant_batches() {
        let mut b = BatchMeans::new();
        for _ in 0..20 {
            b.push(2.5);
        }
        assert_eq!(b.mean(), 2.5);
        assert_eq!(b.std_dev(), 0.0);
        assert_eq!(b.ci_half_width_90(), 0.0);
    }

    #[test]
    fn known_ci_for_two_batches() {
        let mut b = BatchMeans::new();
        b.push(1.0);
        b.push(3.0);
        assert_eq!(b.mean(), 2.0);
        // s = sqrt(2), df = 1, t = 6.314 -> ci = 6.314 * sqrt(2) / sqrt(2).
        assert!((b.ci_half_width_90() - 6.314).abs() < 1e-9);
    }

    #[test]
    fn twenty_batches_use_df_19() {
        let mut b = BatchMeans::new();
        for i in 0..20 {
            b.push(if i % 2 == 0 { 1.0 } else { 2.0 });
        }
        // s of alternating 1/2 is ~0.5129; t_{0.95,19} = 1.729.
        let expect = 1.729 * b.std_dev() / 20f64.sqrt();
        assert!((b.ci_half_width_90() - expect).abs() < 1e-12);
    }

    #[test]
    fn single_batch_has_zero_ci() {
        let mut b = BatchMeans::new();
        b.push(5.0);
        assert_eq!(b.ci_half_width_90(), 0.0);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn large_batch_count_falls_back_to_normal() {
        let mut b = BatchMeans::new();
        for i in 0..100 {
            b.push(i as f64 % 3.0);
        }
        let ci = b.ci_half_width_90();
        let expect = 1.6449 * b.std_dev() / 100f64.sqrt();
        assert!((ci - expect).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn mean_of_empty_panics() {
        let _ = BatchMeans::new().mean();
    }
}
