//! The trace seam. The buffer manager and both trees call [`Tracer`] and
//! [`Span`] unconditionally; what tracing costs is decided here, by whether
//! a sink is attached.
//!
//! A **span** is one read operation (region, point, kNN or batch walk). It
//! is *live* only while its tree has a sink: it then takes a fresh id from
//! its tree (from 1), its charged fetches label their buffer events with
//! that id and the page's level and are counted in it, and on drop it
//! records latency / reads / accesses into the tree's query metrics. With
//! no sink a span is the inert [`Span::default`] — id 0, no clock read, no
//! atomics — and no event is emitted. Everything else — a writer's traffic,
//! a pin, a write-back, the concurrent tree's once-only root peek — carries
//! span 0.

use crate::{BufferManager, ConcurrentDiskRTree, DiskRTree, PageStore, SharedPageStore};
use rtree_buffer::PageId;
pub(crate) use rtree_obs::EventKind;
use rtree_obs::{now_ns, IoEvent, QueryMetrics, QueryMetricsSnapshot, TraceSink};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Where a buffer manager's (or a tree's own) events go, and the span and
/// tree level they are attributed to.
pub(crate) struct Tracer {
    sink: Option<Arc<dyn TraceSink>>,
    /// Span (0 = none) and tree level (-1 = unknown) of the next event.
    span: u64,
    level: i16,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            sink: None,
            span: 0,
            level: -1,
        }
    }
}

impl Tracer {
    /// Attributes subsequent events to `span` and tree level `level`.
    #[inline]
    pub(crate) fn at_level(&mut self, span: &Span, level: i16) {
        (self.span, self.level) = (span.id, level);
    }

    /// Emits one event at the current level.
    #[inline]
    pub(crate) fn emit(&self, page: PageId, kind: EventKind) {
        self.emit_at(page, self.level, kind);
    }

    /// Emits one event at an explicit level (where the current one does not
    /// describe the page, e.g. an evicted victim).
    #[inline]
    pub(crate) fn emit_at(&self, page: PageId, level: i16, kind: EventKind) {
        if let Some(sink) = &self.sink {
            sink.record(IoEvent {
                query_id: self.span,
                page_id: page.0,
                level,
                kind,
                ns: now_ns(),
            });
        }
    }
}

/// A tree's trace state: the sink for its own events (latch waits, group
/// commits) — whose presence also makes its spans live — its span id
/// source and its query metrics.
#[derive(Default)]
pub(crate) struct TreeTrace {
    pub(crate) tracer: Tracer,
    ids: AtomicU64,
    metrics: QueryMetrics,
}

impl TreeTrace {
    /// Opens a span: live if a sink is attached, inert otherwise (see the
    /// module docs).
    #[inline]
    pub(crate) fn span(&self) -> Span<'_> {
        if self.tracer.sink.is_none() {
            return Span::default();
        }
        Span {
            metrics: Some(&self.metrics),
            id: self.ids.fetch_add(1, Ordering::Relaxed) + 1,
            start: now_ns(),
            ..Span::default()
        }
    }
}

/// One operation's span; a live one records into the tree's metrics on
/// drop. The default is the inert span: id 0, nothing recorded.
#[derive(Default)]
pub(crate) struct Span<'a> {
    metrics: Option<&'a QueryMetrics>,
    id: u64,
    start: u64,
    reads: u64,
    accesses: u64,
}

impl Span<'_> {
    /// Counts one charged access, `missed` if it went to the store.
    #[inline]
    pub(crate) fn charge(&mut self, missed: bool) {
        self.accesses += 1;
        self.reads += u64::from(missed);
    }
}

impl Drop for Span<'_> {
    #[inline]
    fn drop(&mut self) {
        if let Some(metrics) = self.metrics {
            metrics.record_query(now_ns() - self.start, self.reads, self.accesses);
        }
    }
}

impl<S: PageStore> BufferManager<S> {
    /// Routes every subsequent physical-I/O and pool-outcome event to `sink`
    /// (`None` stops tracing).
    pub fn set_trace_sink(&mut self, sink: Option<Arc<dyn TraceSink>>) {
        self.tracer.sink = sink;
    }
}

impl<S: PageStore> DiskRTree<S> {
    /// Routes every physical-I/O and pool-outcome event to `sink` (`None`
    /// stops tracing). While a sink is attached each read operation opens a
    /// span and is recorded in [`DiskRTree::query_metrics`].
    pub fn set_trace_sink(&mut self, sink: Option<Arc<dyn TraceSink>>) {
        self.trace.tracer.sink = sink.clone();
        self.mgr.set_trace_sink(sink);
    }

    /// Snapshot of the per-query latency / reads / pins histograms of the
    /// operations run while a sink was attached.
    pub fn query_metrics(&self) -> QueryMetricsSnapshot {
        self.trace.metrics.snapshot()
    }
}

impl<S: SharedPageStore> ConcurrentDiskRTree<S> {
    /// Routes every physical-I/O and pool-outcome event to `sink` (`None`
    /// stops tracing). Takes `&mut self`: install the sink before sharing
    /// the tree across threads. While a sink is attached each read
    /// operation opens a span and is recorded in
    /// [`ConcurrentDiskRTree::query_metrics`].
    pub fn set_trace_sink(&mut self, sink: Option<Arc<dyn TraceSink>>) {
        for shard in self.shards.iter_mut() {
            shard.get_mut().set_trace_sink(sink.clone());
        }
        self.trace.tracer.sink = sink;
    }

    /// Snapshot of the per-query latency / reads / pins histograms (all
    /// threads) of the operations run while a sink was attached.
    pub fn query_metrics(&self) -> QueryMetricsSnapshot {
        self.trace.metrics.snapshot()
    }
}
