//! The [`TuneObserver`] seam: how workload facts reach a tuner.
//!
//! The self-tuning controller (`rtree-tune`) needs to see what the live
//! workload looks like — query rectangle shapes and the read/write mix —
//! without this crate depending on geometry types or the pager depending
//! on the controller. The seam is therefore a dependency-free trait over
//! raw `f64` coordinates: callers that execute queries (engines, the
//! chaos harness, benches) feed each query rectangle and each write
//! through it, and the controller accumulates them into a sliding-window
//! estimate.
//!
//! `&T` / `Arc<T>` forward, so an observer can be shared across threads.

use std::sync::Arc;

/// Receives one call per executed query and per applied write.
///
/// Implementations must be cheap and non-blocking — these hooks sit on
/// the serving path. Coordinates are the query rectangle's corners in
/// data space (`lo_x <= hi_x`, `lo_y <= hi_y`); a point query has zero
/// extent.
pub trait TuneObserver: Send + Sync {
    /// A query over the rectangle `[lo_x, hi_x] × [lo_y, hi_y]` ran.
    fn observe_query(&self, lo_x: f64, lo_y: f64, hi_x: f64, hi_y: f64);

    /// A logical write (insert or delete) was applied.
    fn observe_write(&self) {}
}

impl<T: TuneObserver + ?Sized> TuneObserver for &T {
    fn observe_query(&self, lo_x: f64, lo_y: f64, hi_x: f64, hi_y: f64) {
        (**self).observe_query(lo_x, lo_y, hi_x, hi_y);
    }

    fn observe_write(&self) {
        (**self).observe_write();
    }
}

impl<T: TuneObserver + ?Sized> TuneObserver for Arc<T> {
    fn observe_query(&self, lo_x: f64, lo_y: f64, hi_x: f64, hi_y: f64) {
        (**self).observe_query(lo_x, lo_y, hi_x, hi_y);
    }

    fn observe_write(&self) {
        (**self).observe_write();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[derive(Default)]
    struct Tally {
        queries: AtomicU64,
        writes: AtomicU64,
    }

    impl TuneObserver for Tally {
        fn observe_query(&self, _: f64, _: f64, _: f64, _: f64) {
            self.queries.fetch_add(1, Ordering::Relaxed);
        }

        fn observe_write(&self) {
            self.writes.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn forwarding_impls_reach_the_observer() {
        let tally = Arc::new(Tally::default());
        let via_arc: &dyn TuneObserver = &tally;
        via_arc.observe_query(0.0, 0.0, 0.1, 0.1);
        let via_ref: &dyn TuneObserver = &&*tally;
        via_ref.observe_write();
        assert_eq!(tally.queries.load(Ordering::Relaxed), 1);
        assert_eq!(tally.writes.load(Ordering::Relaxed), 1);
    }
}
