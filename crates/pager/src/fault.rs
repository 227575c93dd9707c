//! Fault injection for the page store: torn writes, short appends, read
//! errors, and whole-process crash simulation coordinated with the WAL
//! through a shared [`CrashSwitch`].

use crate::store::SharedPageStore;
use crate::{PageStore, PAGE_SIZE};
use rtree_buffer::PageId;
use rtree_wal::CrashSwitch;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};

/// A [`PageStore`] wrapper that injects storage faults.
///
/// Fault triggers are counted per operation kind (1-based). When a trigger
/// fires, the shared [`CrashSwitch`] trips, and from then on *every* mutating
/// operation on this store — and on any [`rtree_wal::FaultLog`] sharing the
/// switch — fails, modelling a process crash rather than one flaky sector.
/// Reads stay allowed after the crash so recovery can inspect the surviving
/// bytes.
pub struct FaultStore<S: PageStore> {
    inner: S,
    switch: CrashSwitch,
    /// Crash on the n-th `write_page` (1-based).
    crash_at_write: Option<u64>,
    /// On the crashing write, persist only the first half of the page.
    torn_write: bool,
    /// Crash on the n-th `allocate` (1-based) — the "short append".
    crash_at_allocate: Option<u64>,
    /// Fail the n-th `read_page` (1-based) with an I/O error, *without*
    /// tripping the switch (a transient read fault, not a crash).
    fail_read_at: Option<u64>,
    /// Likewise for the n-th `write_page` (same count as `crash_at_write`).
    fail_write_at: Option<u64>,
    writes: u64,
    allocates: u64,
    /// Atomic so shared (`&self`) reads count too — the concurrent tree
    /// reads through [`SharedPageStore`], and a read-fault trigger must
    /// fire at the same global read ordinal either way.
    reads: AtomicU64,
}

impl<S: PageStore> FaultStore<S> {
    /// Wraps `inner`; no faults are scheduled until a `*_at` builder is used.
    pub fn new(inner: S, switch: CrashSwitch) -> Self {
        FaultStore {
            inner,
            switch,
            crash_at_write: None,
            torn_write: false,
            crash_at_allocate: None,
            fail_read_at: None,
            fail_write_at: None,
            writes: 0,
            allocates: 0,
            reads: AtomicU64::new(0),
        }
    }

    /// Crashes on the `n`-th page write; `torn` persists half the page first.
    pub fn crash_at_write(mut self, n: u64, torn: bool) -> Self {
        self.crash_at_write = Some(n);
        self.torn_write = torn;
        self
    }

    /// Crashes on the `n`-th allocation (a short append: the store ends up
    /// without the page the caller thinks it created).
    pub fn crash_at_allocate(mut self, n: u64) -> Self {
        self.crash_at_allocate = Some(n);
        self
    }

    /// Fails the `n`-th read with an I/O error (transient; not a crash).
    pub fn fail_read_at(mut self, n: u64) -> Self {
        self.fail_read_at = Some(n);
        self
    }

    /// Fails the `n`-th page write with an I/O error, leaving the page as
    /// it was (transient; not a crash).
    pub fn fail_write_at(mut self, n: u64) -> Self {
        self.fail_write_at = Some(n);
        self
    }

    /// The shared crash switch.
    pub fn switch(&self) -> &CrashSwitch {
        &self.switch
    }

    /// Unwraps the inner store (e.g. to recover its surviving contents).
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: PageStore> FaultStore<S> {
    /// Counts one read and fails it if the read-fault trigger fires on it
    /// (shared with the `SharedPageStore` path).
    fn count_read(&self) -> io::Result<()> {
        let n = self.reads.fetch_add(1, Ordering::Relaxed) + 1;
        if self.fail_read_at == Some(n) {
            return Err(transient("injected read fault"));
        }
        Ok(())
    }
}

/// The error of a transient fault (the switch is not tripped).
fn transient(what: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

impl<S: PageStore> PageStore for FaultStore<S> {
    fn read_page(&mut self, id: PageId, buf: &mut [u8]) -> io::Result<()> {
        self.count_read()?;
        self.inner.read_page(id, buf)
    }

    fn write_page(&mut self, id: PageId, buf: &[u8]) -> io::Result<()> {
        if self.switch.is_tripped() {
            return Err(CrashSwitch::error());
        }
        self.writes += 1;
        if self.fail_write_at == Some(self.writes) {
            return Err(transient("injected write fault"));
        }
        if self.crash_at_write == Some(self.writes) {
            if self.torn_write {
                // Persist the first half of the new image over the old page:
                // exactly what a power cut mid-sector-run leaves behind.
                let mut torn = vec![0u8; PAGE_SIZE];
                self.inner.read_page(id, &mut torn)?;
                torn[..PAGE_SIZE / 2].copy_from_slice(&buf[..PAGE_SIZE / 2]);
                self.inner.write_page(id, &torn)?;
            }
            self.switch.trip();
            return Err(CrashSwitch::error());
        }
        self.inner.write_page(id, buf)
    }

    fn allocate(&mut self) -> io::Result<PageId> {
        if self.switch.is_tripped() {
            return Err(CrashSwitch::error());
        }
        self.allocates += 1;
        if self.crash_at_allocate == Some(self.allocates) {
            self.switch.trip();
            return Err(CrashSwitch::error());
        }
        self.inner.allocate()
    }

    fn page_count(&self) -> u64 {
        self.inner.page_count()
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.switch.is_tripped() {
            return Err(CrashSwitch::error());
        }
        self.inner.flush()
    }
}

impl<S: SharedPageStore> SharedPageStore for FaultStore<S> {
    /// Shared reads go through the same fault counter as exclusive reads,
    /// so the chaos harness can aim a transient read fault at the
    /// concurrent tree too. Like exclusive reads, they stay allowed after
    /// a crash (recovery must be able to inspect the surviving bytes).
    fn read_page_shared(&self, id: PageId, buf: &mut [u8]) -> io::Result<()> {
        self.count_read()?;
        self.inner.read_page_shared(id, buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemStore;

    fn page(fill: u8) -> Vec<u8> {
        vec![fill; PAGE_SIZE]
    }

    #[test]
    fn torn_write_leaves_half_old_half_new() {
        let mut store = MemStore::new();
        let id = store.allocate().unwrap();
        store.write_page(id, &page(0xAA)).unwrap();

        let switch = CrashSwitch::new();
        let mut faulty = FaultStore::new(store, switch.clone()).crash_at_write(1, true);
        assert!(faulty.write_page(id, &page(0xBB)).is_err());
        assert!(switch.is_tripped());

        let mut out = page(0);
        let mut inner = faulty.into_inner();
        inner.read_page(id, &mut out).unwrap();
        assert!(out[..PAGE_SIZE / 2].iter().all(|&b| b == 0xBB));
        assert!(out[PAGE_SIZE / 2..].iter().all(|&b| b == 0xAA));
    }

    #[test]
    fn crash_blocks_all_later_mutations_but_not_reads() {
        let mut store = MemStore::new();
        let id = store.allocate().unwrap();
        store.write_page(id, &page(1)).unwrap();

        let switch = CrashSwitch::new();
        let mut faulty = FaultStore::new(store, switch.clone()).crash_at_write(1, false);
        assert!(faulty.write_page(id, &page(2)).is_err());
        assert!(faulty.write_page(id, &page(3)).is_err());
        assert!(faulty.allocate().is_err());
        assert!(faulty.flush().is_err());
        // Reads survive: recovery must be able to look at the store.
        let mut out = page(0);
        faulty.read_page(id, &mut out).unwrap();
        assert_eq!(out[0], 1, "untorn crash leaves the old image");
    }

    #[test]
    fn short_append_crashes_on_allocate() {
        let switch = CrashSwitch::new();
        let mut faulty = FaultStore::new(MemStore::new(), switch.clone()).crash_at_allocate(2);
        faulty.allocate().unwrap();
        assert!(faulty.allocate().is_err());
        assert_eq!(faulty.page_count(), 1, "second page never materialized");
        assert!(switch.is_tripped());
    }

    #[test]
    fn read_fault_is_transient() {
        let mut store = MemStore::new();
        let id = store.allocate().unwrap();
        store.write_page(id, &page(9)).unwrap();

        let switch = CrashSwitch::new();
        let mut faulty = FaultStore::new(store, switch.clone()).fail_read_at(1);
        let mut out = page(0);
        assert!(faulty.read_page(id, &mut out).is_err());
        assert!(!switch.is_tripped(), "a read fault is not a crash");
        faulty.read_page(id, &mut out).unwrap();
        assert_eq!(out[0], 9);
        faulty.write_page(id, &page(7)).unwrap();
    }

    #[test]
    fn external_trip_fails_this_store_too() {
        let switch = CrashSwitch::new();
        let mut faulty = FaultStore::new(MemStore::new(), switch.clone());
        faulty.allocate().unwrap();
        switch.trip();
        assert!(faulty.allocate().is_err());
    }
}
