//! Sliding-window workload estimation.
//!
//! The controller sees each executed query's rectangle. This module turns
//! that stream into a [`Workload`] the analytic model accepts:
//!
//! * the query **size** is the mean extent of the windowed rectangles;
//! * the query **placement** is classified by a Pearson chi-square test of
//!   the query centers against a uniform grid — uniform placement refits
//!   as [`Workload::uniform_region`], anything skewed refits as
//!   [`Workload::data_driven`] over the observed centers themselves
//!   (which also captures Zipf-weighted query-follows-data mixes: hot
//!   centers appear in the window more often, so the fitted multiset *is*
//!   the skew).
//!
//! The window is bounded and recency-weighted by construction (old queries
//! fall off the back), so a mid-run workload shift re-estimates within one
//! window length.

use rtree_core::Workload;
use rtree_geom::{Point, Rect};
use std::collections::VecDeque;

/// Cells per axis of the uniformity test grid.
const GRID: usize = 4;

/// Chi-square rejection threshold for `GRID² − 1 = 15` degrees of freedom
/// at the 0.999 quantile — deliberately conservative, so the controller
/// only abandons the uniform fit on strong evidence of skew.
const UNIFORM_REJECT: f64 = 37.7;

/// Below this mean extent the workload is treated as point queries.
const POINT_EPS: f64 = 1e-9;

/// A bounded sliding window over observed queries.
#[derive(Clone, Debug)]
pub struct WorkloadWindow {
    cap: usize,
    queries: VecDeque<Rect>,
}

impl WorkloadWindow {
    /// Creates a window keeping the most recent `cap` queries.
    ///
    /// # Panics
    /// Panics if `cap` is 0.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "window must hold at least one query");
        WorkloadWindow {
            cap,
            queries: VecDeque::with_capacity(cap),
        }
    }

    /// Records one query rectangle (a point query has zero extent).
    pub fn record_query(&mut self, q: &Rect) {
        if self.queries.len() == self.cap {
            self.queries.pop_front();
        }
        self.queries.push_back(*q);
    }

    /// Queries currently in the window.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True before the first query arrives.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Fits the windowed observations to a [`Workload`]. Returns `None`
    /// while the window is empty.
    pub fn estimate(&self) -> Option<WorkloadEstimate> {
        if self.queries.is_empty() {
            return None;
        }
        let n = self.queries.len() as f64;
        let mut qx = 0.0;
        let mut qy = 0.0;
        let mut cells = [0.0f64; GRID * GRID];
        let mut centers = Vec::with_capacity(self.queries.len());
        for q in &self.queries {
            qx += q.hi.x - q.lo.x;
            qy += q.hi.y - q.lo.y;
            let cx = ((q.lo.x + q.hi.x) / 2.0).clamp(0.0, 1.0);
            let cy = ((q.lo.y + q.hi.y) / 2.0).clamp(0.0, 1.0);
            centers.push(Point::new(cx, cy));
            let gx = ((cx * GRID as f64) as usize).min(GRID - 1);
            let gy = ((cy * GRID as f64) as usize).min(GRID - 1);
            cells[gy * GRID + gx] += 1.0;
        }
        // Clamp into the model's domain: extents must stay below 1.
        let qx = (qx / n).clamp(0.0, 1.0 - 1e-9);
        let qy = (qy / n).clamp(0.0, 1.0 - 1e-9);
        let expected = n / (GRID * GRID) as f64;
        let chi_square: f64 = cells
            .iter()
            .map(|&o| (o - expected) * (o - expected) / expected)
            .sum();
        let uniform = chi_square <= UNIFORM_REJECT;
        let workload = if uniform {
            if qx < POINT_EPS && qy < POINT_EPS {
                Workload::uniform_point()
            } else {
                Workload::uniform_region(qx, qy)
            }
        } else {
            Workload::data_driven(qx, qy, centers)
        };
        Some(WorkloadEstimate {
            workload,
            chi_square,
            uniform,
            samples: self.queries.len(),
        })
    }
}

/// The fitted workload plus the evidence behind the fit.
#[derive(Clone, Debug)]
pub struct WorkloadEstimate {
    /// The refit model input.
    pub workload: Workload,
    /// Chi-square statistic of the query centers against the uniform grid.
    pub chi_square: f64,
    /// True when the uniform fit was kept (statistic under the threshold).
    pub uniform: bool,
    /// Queries in the window when the fit was made.
    pub samples: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_window_has_no_estimate() {
        assert!(WorkloadWindow::new(8).estimate().is_none());
    }

    #[test]
    fn uniform_stream_fits_uniform_region() {
        let mut w = WorkloadWindow::new(1024);
        // Low-discrepancy uniform centers, fixed 0.1 × 0.05 extent.
        for i in 0..1000 {
            let cx = (i as f64 * 0.618_033_988) % 1.0;
            let cy = (i as f64 * 0.414_213_562) % 1.0;
            w.record_query(&Rect::new(cx - 0.05, cy - 0.025, cx + 0.05, cy + 0.025));
        }
        let e = w.estimate().unwrap();
        assert!(e.uniform, "chi-square {} over threshold", e.chi_square);
        assert!(!e.workload.is_data_driven());
        assert!((e.workload.qx() - 0.1).abs() < 1e-9);
        assert!((e.workload.qy() - 0.05).abs() < 1e-9);
        assert_eq!(e.samples, 1000);
    }

    #[test]
    fn clustered_stream_fits_data_driven() {
        let mut w = WorkloadWindow::new(1024);
        // Everything lands in one corner cell.
        for i in 0..500 {
            let cx = 0.05 + (i as f64 * 0.618_033_988) % 0.1;
            let cy = 0.05 + (i as f64 * 0.414_213_562) % 0.1;
            w.record_query(&Rect::new(cx, cy, cx, cy));
        }
        let e = w.estimate().unwrap();
        assert!(!e.uniform);
        assert!(e.workload.is_data_driven());
        assert!(e.workload.is_point());
        assert_eq!(e.workload.centers().unwrap().len(), 500);
    }

    #[test]
    fn window_is_bounded_and_forgets() {
        let mut w = WorkloadWindow::new(100);
        // Phase one: clustered. Phase two: enough uniform to evict it.
        for _ in 0..100 {
            w.record_query(&Rect::new(0.1, 0.1, 0.1, 0.1));
        }
        assert!(!w.estimate().unwrap().uniform);
        for i in 0..100 {
            let cx = (i as f64 * 0.618_033_988) % 1.0;
            let cy = (i as f64 * 0.414_213_562) % 1.0;
            w.record_query(&Rect::new(cx, cy, cx, cy));
        }
        assert_eq!(w.len(), 100);
        let e = w.estimate().unwrap();
        assert!(e.uniform, "old phase must fall off the window");
    }
}
