//! Benchmark-owned timing wrappers around the library's public trait
//! seams: the page-store traits, `LogBackend` and `QueryEngine`. Each
//! forwards to the wrapped value inside a [`Recorder::span`], which is a
//! plain call while the recorder is disabled.

use crate::span::{Recorder, ENGINE_READ, ENGINE_WRITE};
use rtree_buffer::PageId;
use rtree_geom::Rect;
use rtree_pager::{ConcurrentPageStore, IoStats, PageStore, SharedPageStore};
use rtree_server::{QueryEngine, WriteOp, WriteStats};
use rtree_wal::LogBackend;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

pub struct TimedStore<S> {
    inner: S,
    rec: Arc<Recorder>,
}

impl<S> TimedStore<S> {
    pub fn new(inner: S, rec: Arc<Recorder>) -> Self {
        TimedStore { inner, rec }
    }
}

impl<S: PageStore> PageStore for TimedStore<S> {
    fn read_page(&mut self, id: PageId, buf: &mut [u8]) -> io::Result<()> {
        let inner = &mut self.inner;
        self.rec
            .span("store.read", None, 1, || inner.read_page(id, buf))
    }
    fn write_page(&mut self, id: PageId, buf: &[u8]) -> io::Result<()> {
        let inner = &mut self.inner;
        self.rec
            .span("store.write", None, 1, || inner.write_page(id, buf))
    }
    fn allocate(&mut self) -> io::Result<PageId> {
        let inner = &mut self.inner;
        self.rec.span("store.write", None, 1, || inner.allocate())
    }
    fn page_count(&self) -> u64 {
        self.inner.page_count()
    }
    fn flush(&mut self) -> io::Result<()> {
        let inner = &mut self.inner;
        self.rec.span("store.flush", None, 1, || inner.flush())
    }
}

impl<S: SharedPageStore> SharedPageStore for TimedStore<S> {
    fn read_page_shared(&self, id: PageId, buf: &mut [u8]) -> io::Result<()> {
        self.rec.span("store.read", None, 1, || {
            self.inner.read_page_shared(id, buf)
        })
    }
}

impl<S: ConcurrentPageStore> ConcurrentPageStore for TimedStore<S> {
    fn write_page_shared(&self, id: PageId, buf: &[u8]) -> io::Result<()> {
        self.rec.span("store.write", None, 1, || {
            self.inner.write_page_shared(id, buf)
        })
    }
    fn allocate_shared(&self) -> io::Result<PageId> {
        self.rec
            .span("store.write", None, 1, || self.inner.allocate_shared())
    }
    fn flush_shared(&self) -> io::Result<()> {
        self.rec
            .span("store.flush", None, 1, || self.inner.flush_shared())
    }
}

pub struct TimedLog<B> {
    inner: B,
    rec: Arc<Recorder>,
}

impl<B> TimedLog<B> {
    pub fn new(inner: B, rec: Arc<Recorder>) -> Self {
        TimedLog { inner, rec }
    }
}

impl<B: LogBackend> LogBackend for TimedLog<B> {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let inner = &mut self.inner;
        self.rec.span("wal.append", None, 1, || inner.append(bytes))
    }
    fn sync(&mut self) -> io::Result<()> {
        let inner = &mut self.inner;
        self.rec.span("wal.sync", None, 1, || inner.sync())
    }
    fn read_all(&self) -> io::Result<Vec<u8>> {
        self.inner.read_all()
    }
    fn truncate(&mut self) -> io::Result<()> {
        self.inner.truncate()
    }
    fn len(&self) -> u64 {
        self.inner.len()
    }
}

/// Times every batch an engine executes. The span's operation id is the
/// batch sequence number: the scheduler hands the engine rectangles, not
/// request identities.
pub struct TimedEngine<E> {
    inner: E,
    rec: Arc<Recorder>,
    batches: AtomicU64,
}

impl<E> TimedEngine<E> {
    pub fn new(inner: E, rec: Arc<Recorder>) -> Self {
        TimedEngine {
            inner,
            rec,
            batches: AtomicU64::new(0),
        }
    }

    pub fn inner(&self) -> &E {
        &self.inner
    }

    fn next_batch(&self) -> Option<u64> {
        Some(self.batches.fetch_add(1, Ordering::Relaxed) + 1)
    }
}

impl<E: QueryEngine> QueryEngine for TimedEngine<E> {
    fn execute(&self, queries: &[Rect]) -> io::Result<Vec<Vec<u64>>> {
        self.rec
            .span(ENGINE_READ, self.next_batch(), queries.len() as u32, || {
                self.inner.execute(queries)
            })
    }
    fn io_stats(&self) -> IoStats {
        self.inner.io_stats()
    }
    fn execute_writes(&self, ops: &[WriteOp]) -> Vec<io::Result<bool>> {
        self.rec
            .span(ENGINE_WRITE, self.next_batch(), ops.len() as u32, || {
                self.inner.execute_writes(ops)
            })
    }
    fn write_stats(&self) -> WriteStats {
        self.inner.write_stats()
    }
}
