//! Observability for the buffered R-tree stack: per-query I/O trace events,
//! a counting sink, fixed-bucket histograms and metric export.
//!
//! The paper's whole argument rests on *counting disk accesses precisely*;
//! an uncounted read (like the root-peek fixed in an earlier revision) is
//! invisible in end-of-run aggregates. This crate provides the event layer
//! that makes every physical page transfer attributable:
//!
//! * [`IoEvent`] / [`EventKind`] — one record per buffer-pool outcome or
//!   physical transfer, carrying the query id and tree level it happened
//!   for.
//! * [`TraceSink`] — where events go. [`CountingSink`] keeps per-kind
//!   totals and splits hits and misses by tree level.
//! * [`Histogram`] / [`AtomicHistogram`] — power-of-two-bucket histograms
//!   whose `merge` is associative and commutative, plus [`QueryMetrics`]
//!   bundling the three per-query distributions (latency, reads, pins).
//! * [`PromText`] — a Prometheus-style text exporter for counters and
//!   histograms.
//!
//! The crate itself is dependency-free. The *hooks* in `rtree-pager` are in
//! every build and cost one branch until a sink is attached: with no sink a
//! query opens no span (no id, no clock read, no atomics) and emits no
//! event.
//!
//! # Reconciliation invariants
//!
//! With tracing enabled, the event stream must reconcile *exactly* with the
//! aggregate counters (this is checked by the workspace's differential test
//! suite `facade/tests/trace_vs_stats.rs`):
//!
//! * `count(Miss) == IoStats::reads` — every physical read is a charged
//!   pool miss (miss fill, fully-pinned bypass, or pin load);
//! * `count(WriteBack) == IoStats::writes` — every physical write is a
//!   checkpoint writing a page back;
//! * `count(PeekRead) == IoStats::peek_reads` — the uncharged root-MBR
//!   peeks;
//! * `count(Hit) + count(Miss) == BufferStats::accesses` — the event stream
//!   covers every pool access, hit or miss.

#![warn(missing_docs)]

mod event;
mod export;
mod hist;

pub use event::{CountingSink, EventCounts, EventKind, IoEvent, LevelCounts, TraceSink};
pub use export::PromText;
pub use hist::{AtomicHistogram, Histogram, QueryMetrics, QueryMetricsSnapshot, BUCKETS};

use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Monotonic nanoseconds since the process first asked for the time.
///
/// Span latencies are differences of two readings, so a process-local
/// epoch avoids both wall-clock skew and the syscall cost of a real-time
/// clock.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn now_ns_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
