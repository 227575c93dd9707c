//! Page stores: where pages physically live.

use crate::PAGE_SIZE;
use rtree_buffer::PageId;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{PoisonError, RwLock};

/// Backing storage addressed in whole pages.
pub trait PageStore {
    /// Reads page `id` into `buf` (`buf.len() == PAGE_SIZE`).
    fn read_page(&mut self, id: PageId, buf: &mut [u8]) -> io::Result<()>;
    /// Writes page `id` from `buf`.
    fn write_page(&mut self, id: PageId, buf: &[u8]) -> io::Result<()>;
    /// Appends a zeroed page and returns its id.
    fn allocate(&mut self) -> io::Result<PageId>;
    /// Number of allocated pages.
    fn page_count(&self) -> u64;
    /// Durability barrier: all writes so far survive a crash. In-memory
    /// stores are trivially durable and may no-op.
    fn flush(&mut self) -> io::Result<()>;
}

/// Page stores whose reads are safe from many threads at once (`&self`).
///
/// The sharded [`crate::ConcurrentDiskRTree`] keeps its shard latches
/// disjoint; this trait keeps the *store* off the critical path too, so a
/// miss in one shard never serializes against a miss in another. A shared
/// read must return the page as of some completed write — trivial here
/// because the concurrent tree never writes after materialization.
pub trait SharedPageStore: PageStore {
    /// Reads page `id` into `buf` (`buf.len() == PAGE_SIZE`) without
    /// exclusive access to the store.
    fn read_page_shared(&self, id: PageId, buf: &mut [u8]) -> io::Result<()>;
}

impl<S: SharedPageStore + ?Sized> SharedPageStore for &mut S {
    fn read_page_shared(&self, id: PageId, buf: &mut [u8]) -> io::Result<()> {
        (**self).read_page_shared(id, buf)
    }
}

/// Page stores that additionally accept *writes and allocations* from many
/// threads at once (`&self`) — the substrate the concurrent tree's writer
/// mode needs. Callers serialize conflicting writes to the *same* page
/// themselves (the tree does so with per-page latches); the store only has
/// to keep distinct pages independent and each page write atomic with
/// respect to shared reads of that page.
pub trait ConcurrentPageStore: SharedPageStore + Sync {
    /// Writes page `id` from `buf` without exclusive access to the store.
    fn write_page_shared(&self, id: PageId, buf: &[u8]) -> io::Result<()>;
    /// Appends a zeroed page and returns its id, without exclusive access.
    fn allocate_shared(&self) -> io::Result<PageId>;
    /// Durability barrier without exclusive access.
    fn flush_shared(&self) -> io::Result<()>;
}

impl<S: PageStore + ?Sized> PageStore for &mut S {
    fn read_page(&mut self, id: PageId, buf: &mut [u8]) -> io::Result<()> {
        (**self).read_page(id, buf)
    }
    fn write_page(&mut self, id: PageId, buf: &[u8]) -> io::Result<()> {
        (**self).write_page(id, buf)
    }
    fn allocate(&mut self) -> io::Result<PageId> {
        (**self).allocate()
    }
    fn page_count(&self) -> u64 {
        (**self).page_count()
    }
    fn flush(&mut self) -> io::Result<()> {
        (**self).flush()
    }
}

/// In-memory page store (the default substrate for simulations: the point
/// of the study is *counting* accesses, not waiting for a spindle).
///
/// The byte image sits behind a reader-writer lock so the store also has
/// the shared read *and write* paths the concurrent tree's writer mode
/// needs: distinct pages proceed in parallel up to the lock's reader-side
/// concurrency; a page write takes the write lock, so a shared read always
/// sees a whole page image. The exclusive (`&mut self`) paths go around the
/// lock, so a sequential [`crate::DiskRTree`] pays nothing for it.
#[derive(Default)]
pub struct MemStore {
    data: RwLock<Vec<u8>>,
}

impl MemStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        MemStore::default()
    }

    /// Rebuilds a store from a byte image previously taken with
    /// [`MemStore::snapshot`] (chaos durability oracles replay recovery
    /// against such base images).
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        MemStore {
            data: RwLock::new(bytes),
        }
    }

    /// A byte-for-byte copy of the current image.
    pub fn snapshot(&self) -> Vec<u8> {
        self.read().clone()
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, Vec<u8>> {
        self.data.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, Vec<u8>> {
        self.data.write().unwrap_or_else(PoisonError::into_inner)
    }

    fn exclusive(&mut self) -> &mut Vec<u8> {
        self.data.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The byte range of page `id` in an image of whole pages.
fn page_of(data: &[u8], id: PageId) -> io::Result<std::ops::Range<usize>> {
    let off = (id.0 as usize) * PAGE_SIZE;
    if off + PAGE_SIZE > data.len() {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("page {} out of bounds", id.0),
        ));
    }
    Ok(off..off + PAGE_SIZE)
}

fn read_from(data: &[u8], id: PageId, buf: &mut [u8]) -> io::Result<()> {
    assert_eq!(buf.len(), PAGE_SIZE);
    buf.copy_from_slice(&data[page_of(data, id)?]);
    Ok(())
}

fn write_to(data: &mut [u8], id: PageId, buf: &[u8]) -> io::Result<()> {
    assert_eq!(buf.len(), PAGE_SIZE);
    let page = page_of(data, id)?;
    data[page].copy_from_slice(buf);
    Ok(())
}

fn grow(data: &mut Vec<u8>) -> PageId {
    let id = PageId((data.len() / PAGE_SIZE) as u64);
    data.resize(data.len() + PAGE_SIZE, 0);
    id
}

impl PageStore for MemStore {
    fn read_page(&mut self, id: PageId, buf: &mut [u8]) -> io::Result<()> {
        read_from(self.exclusive(), id, buf)
    }

    fn write_page(&mut self, id: PageId, buf: &[u8]) -> io::Result<()> {
        write_to(self.exclusive(), id, buf)
    }

    fn allocate(&mut self) -> io::Result<PageId> {
        Ok(grow(self.exclusive()))
    }

    fn page_count(&self) -> u64 {
        (self.read().len() / PAGE_SIZE) as u64
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl SharedPageStore for MemStore {
    fn read_page_shared(&self, id: PageId, buf: &mut [u8]) -> io::Result<()> {
        read_from(&self.read(), id, buf)
    }
}

impl ConcurrentPageStore for MemStore {
    fn write_page_shared(&self, id: PageId, buf: &[u8]) -> io::Result<()> {
        write_to(&mut self.write(), id, buf)
    }

    fn allocate_shared(&self) -> io::Result<PageId> {
        Ok(grow(&mut self.write()))
    }

    fn flush_shared(&self) -> io::Result<()> {
        Ok(())
    }
}

/// File-backed page store. The page count is atomic so allocation and
/// bounds checks work from the shared (`&self`) paths too.
pub struct FileStore {
    file: File,
    pages: AtomicU64,
}

impl FileStore {
    /// Creates (truncating) a page file.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(FileStore {
            file,
            pages: AtomicU64::new(0),
        })
    }

    /// Opens an existing page file.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        if len % PAGE_SIZE as u64 != 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "file length is not a multiple of the page size",
            ));
        }
        Ok(FileStore {
            file,
            pages: AtomicU64::new(len / PAGE_SIZE as u64),
        })
    }

    fn check(&self, id: PageId) -> io::Result<u64> {
        if id.0 >= self.pages.load(Ordering::Acquire) {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("page {} out of bounds", id.0),
            ));
        }
        Ok(id.0 * PAGE_SIZE as u64)
    }

    fn seek_to(&mut self, id: PageId) -> io::Result<()> {
        let off = self.check(id)?;
        self.file.seek(SeekFrom::Start(off)).map(|_| ())
    }

    /// Positional write (`pwrite`/`seek_write`): shares the file without
    /// touching the descriptor's seek cursor.
    fn write_at(&self, buf: &[u8], off: u64) -> io::Result<()> {
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file.write_all_at(buf, off)
        }
        #[cfg(windows)]
        {
            use std::os::windows::fs::FileExt;
            let mut done = 0usize;
            while done < buf.len() {
                let n = self.file.seek_write(&buf[done..], off + done as u64)?;
                if n == 0 {
                    return Err(io::ErrorKind::WriteZero.into());
                }
                done += n;
            }
            Ok(())
        }
        #[cfg(not(any(unix, windows)))]
        {
            let _ = (buf, off);
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "no positional write primitive on this platform",
            ))
        }
    }
}

impl PageStore for FileStore {
    fn read_page(&mut self, id: PageId, buf: &mut [u8]) -> io::Result<()> {
        assert_eq!(buf.len(), PAGE_SIZE);
        self.seek_to(id)?;
        self.file.read_exact(buf)
    }

    fn write_page(&mut self, id: PageId, buf: &[u8]) -> io::Result<()> {
        assert_eq!(buf.len(), PAGE_SIZE);
        self.seek_to(id)?;
        self.file.write_all(buf)
    }

    fn allocate(&mut self) -> io::Result<PageId> {
        self.allocate_shared()
    }

    fn page_count(&self) -> u64 {
        self.pages.load(Ordering::Acquire)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }
}

impl ConcurrentPageStore for FileStore {
    fn write_page_shared(&self, id: PageId, buf: &[u8]) -> io::Result<()> {
        assert_eq!(buf.len(), PAGE_SIZE);
        let off = self.check(id)?;
        self.write_at(buf, off)
    }

    fn allocate_shared(&self) -> io::Result<PageId> {
        // Reserve the slot first so concurrent allocations never collide,
        // then extend the file by writing the zero page at its offset.
        let id = self.pages.fetch_add(1, Ordering::AcqRel);
        self.write_at(&[0u8; PAGE_SIZE], id * PAGE_SIZE as u64)?;
        Ok(PageId(id))
    }

    fn flush_shared(&self) -> io::Result<()> {
        self.file.sync_data()
    }
}

impl SharedPageStore for FileStore {
    /// Positional reads (`pread`/`seek_read`) share the file without
    /// touching the descriptor's seek cursor, so concurrent shard misses
    /// read in parallel.
    fn read_page_shared(&self, id: PageId, buf: &mut [u8]) -> io::Result<()> {
        assert_eq!(buf.len(), PAGE_SIZE);
        let off = self.check(id)?;
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file.read_exact_at(buf, off)
        }
        #[cfg(windows)]
        {
            use std::os::windows::fs::FileExt;
            let mut done = 0usize;
            while done < buf.len() {
                let n = self.file.seek_read(&mut buf[done..], off + done as u64)?;
                if n == 0 {
                    return Err(io::ErrorKind::UnexpectedEof.into());
                }
                done += n;
            }
            Ok(())
        }
        #[cfg(not(any(unix, windows)))]
        {
            let _ = off;
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "no positional read primitive on this platform",
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(store: &mut dyn PageStore) {
        let a = store.allocate().unwrap();
        let b = store.allocate().unwrap();
        assert_eq!(store.page_count(), 2);
        let mut page = vec![0u8; PAGE_SIZE];
        page[0] = 0xAA;
        page[PAGE_SIZE - 1] = 0xBB;
        store.write_page(b, &page).unwrap();
        let mut out = vec![0u8; PAGE_SIZE];
        store.read_page(b, &mut out).unwrap();
        assert_eq!(out, page);
        // Page `a` stays zeroed.
        store.read_page(a, &mut out).unwrap();
        assert!(out.iter().all(|&x| x == 0));
        // Out-of-bounds access errors.
        assert!(store.read_page(PageId(99), &mut out).is_err());
        assert!(store.write_page(PageId(99), &page).is_err());
        // The durability barrier is callable on every store.
        store.flush().unwrap();
    }

    #[test]
    fn mem_store_round_trip() {
        exercise(&mut MemStore::new());
    }

    #[test]
    fn file_store_round_trip_and_reopen() {
        let dir = std::env::temp_dir().join(format!("rtree-pager-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.pages");
        {
            let mut fs = FileStore::create(&path).unwrap();
            exercise(&mut fs);
        }
        {
            let mut fs = FileStore::open(&path).unwrap();
            assert_eq!(fs.page_count(), 2);
            let mut out = vec![0u8; PAGE_SIZE];
            fs.read_page(PageId(1), &mut out).unwrap();
            assert_eq!(out[0], 0xAA);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shared_reads_match_exclusive_reads() {
        let dir = std::env::temp_dir().join(format!("rtree-pager-shared-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.pages");

        let mut mem = MemStore::new();
        let mut file = FileStore::create(&path).unwrap();
        for store in [&mut mem as &mut dyn PageStore, &mut file] {
            for i in 0..3u8 {
                let id = store.allocate().unwrap();
                let mut page = vec![0u8; PAGE_SIZE];
                page[0] = i;
                store.write_page(id, &page).unwrap();
            }
        }
        let mut buf = vec![0u8; PAGE_SIZE];
        for store in [&mem as &dyn SharedPageStore, &file] {
            for i in 0..3u64 {
                store.read_page_shared(PageId(i), &mut buf).unwrap();
                assert_eq!(buf[0], i as u8);
            }
            assert!(store.read_page_shared(PageId(9), &mut buf).is_err());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_rejects_ragged_file() {
        let dir = std::env::temp_dir().join(format!("rtree-pager-rag-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ragged.pages");
        std::fs::write(&path, [0u8; 100]).unwrap();
        assert!(FileStore::open(&path).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shared_mem_store_round_trip_and_snapshot() {
        let mut store = MemStore::new();
        exercise(&mut store);
        assert_eq!(store.page_count(), 2);

        // Shared writes are visible to shared reads.
        let mut page = vec![0u8; PAGE_SIZE];
        page[7] = 0x5A;
        store.write_page_shared(PageId(0), &page).unwrap();
        let mut out = vec![0u8; PAGE_SIZE];
        store.read_page_shared(PageId(0), &mut out).unwrap();
        assert_eq!(out[7], 0x5A);
        assert!(store.write_page_shared(PageId(9), &page).is_err());

        // A snapshot rebuilds an identical store.
        let copy = MemStore::from_bytes(store.snapshot());
        copy.read_page_shared(PageId(0), &mut out).unwrap();
        assert_eq!(out[7], 0x5A);
        assert_eq!(copy.page_count(), 2);
    }

    #[test]
    fn concurrent_shared_allocations_get_unique_pages() {
        let dir = std::env::temp_dir().join(format!("rtree-pager-calloc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.pages");
        let file = FileStore::create(&path).unwrap();
        let mem = MemStore::new();

        for store in [&file as &(dyn ConcurrentPageStore + Send + Sync), &mem] {
            let ids: Vec<u64> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..4)
                    .map(|t| {
                        s.spawn(move || {
                            let mut mine = Vec::new();
                            for _ in 0..8 {
                                let id = store.allocate_shared().unwrap();
                                let mut page = vec![0u8; PAGE_SIZE];
                                page[0] = t as u8 + 1;
                                store.write_page_shared(id, &page).unwrap();
                                mine.push(id.0);
                            }
                            mine
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().unwrap())
                    .collect()
            });
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 32, "allocations must not collide");
            assert_eq!(store.page_count(), 32);
            // Every page carries exactly the byte its writer put there.
            let mut buf = vec![0u8; PAGE_SIZE];
            for id in ids {
                store.read_page_shared(PageId(id), &mut buf).unwrap();
                assert!((1..=4).contains(&buf[0]));
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
