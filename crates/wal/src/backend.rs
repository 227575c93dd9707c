//! Log storage backends and coordinated fault injection.

use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Append-only byte log. The write path only ever appends and syncs; recovery
/// reads the whole image back and re-frames it with [`crate::scan`].
///
/// `Send` is part of the contract so a WAL-attached tree can move across
/// threads (the query server executes batches on worker threads).
pub trait LogBackend: Send {
    /// Appends `bytes` at the end of the log.
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Durability barrier: everything appended so far survives a crash.
    fn sync(&mut self) -> io::Result<()>;
    /// Reads the entire log image (used by recovery and by `GroupWal::open`).
    fn read_all(&self) -> io::Result<Vec<u8>>;
    /// Discards the log contents (after a checkpoint made them redundant).
    fn truncate(&mut self) -> io::Result<()>;
    /// Current length in bytes.
    fn len(&self) -> u64;
    /// True when the log holds no bytes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Shared crash flag: once tripped, every participating component (log
/// backend, page store) fails closed, modelling a whole-process crash rather
/// than a single bad device.
#[derive(Clone, Debug, Default)]
pub struct CrashSwitch {
    tripped: Arc<AtomicBool>,
}

impl CrashSwitch {
    /// A switch in the un-tripped state.
    pub fn new() -> Self {
        CrashSwitch::default()
    }

    /// Trips the switch: all subsequent guarded operations fail.
    pub fn trip(&self) {
        self.tripped.store(true, Ordering::SeqCst);
    }

    /// Whether the crash has happened.
    pub fn is_tripped(&self) -> bool {
        self.tripped.load(Ordering::SeqCst)
    }

    /// Resets the switch (the "reboot" before recovery).
    pub fn reset(&self) {
        self.tripped.store(false, Ordering::SeqCst);
    }

    /// The error every guarded operation returns after the crash.
    pub fn error() -> io::Error {
        io::Error::other("simulated crash")
    }

    /// A guarded operation's gate: [`CrashSwitch::error`] once tripped.
    pub fn check(&self) -> io::Result<()> {
        match self.is_tripped() {
            true => Err(CrashSwitch::error()),
            false => Ok(()),
        }
    }
}

/// In-memory log. Cloning shares the underlying buffer, so a test can keep a
/// handle to the bytes while the log that owns the other clone "crashes".
#[derive(Clone, Default)]
pub struct MemLog {
    data: Arc<Mutex<Vec<u8>>>,
}

impl MemLog {
    /// Empty log.
    pub fn new() -> Self {
        MemLog::default()
    }

    /// Every critical section below leaves the byte buffer in a valid state
    /// (a `Vec` append/clear/clone cannot half-complete observably), so a
    /// panic on another handle never invalidates the data; recover from
    /// poisoning instead of cascading the panic into crash-test inspection
    /// paths that read the log *after* a simulated-crash unwind.
    fn bytes(&self) -> std::sync::MutexGuard<'_, Vec<u8>> {
        self.data
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl LogBackend for MemLog {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.bytes().extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn read_all(&self) -> io::Result<Vec<u8>> {
        Ok(self.bytes().clone())
    }

    fn truncate(&mut self) -> io::Result<()> {
        self.bytes().clear();
        Ok(())
    }

    fn len(&self) -> u64 {
        self.bytes().len() as u64
    }
}

/// File-backed log; appends with `write_all`, syncs with `sync_data`.
pub struct FileLog {
    file: std::fs::File,
    len: u64,
}

impl FileLog {
    /// Creates (truncating) a log file.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(FileLog { file, len: 0 })
    }

    /// Opens an existing log file, appending after its current contents.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)?;
        let len = file.metadata()?.len();
        Ok(FileLog { file, len })
    }
}

impl LogBackend for FileLog {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.file.seek(SeekFrom::Start(self.len))?;
        self.file.write_all(bytes)?;
        self.len += bytes.len() as u64;
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    fn read_all(&self) -> io::Result<Vec<u8>> {
        let mut file = self.file.try_clone()?;
        file.seek(SeekFrom::Start(0))?;
        let mut out = Vec::with_capacity(self.len as usize);
        file.take(self.len).read_to_end(&mut out)?;
        Ok(out)
    }

    fn truncate(&mut self) -> io::Result<()> {
        self.file.set_len(0)?;
        self.len = 0;
        Ok(())
    }

    fn len(&self) -> u64 {
        self.len
    }
}

/// Fault-injecting wrapper: crashes the log after a chosen number of appends,
/// optionally tearing the final append short, and fails every operation once
/// the shared [`CrashSwitch`] is tripped (by this wrapper or anyone else).
/// It can also fail one sync without a crash.
pub struct FaultLog<B: LogBackend> {
    inner: B,
    switch: CrashSwitch,
    /// Crash when the append counter reaches this value (`None` = never).
    crash_at_append: Option<u64>,
    /// On the crashing append, write roughly half the bytes first.
    torn_tail: bool,
    /// Fail the n-th `sync` (1-based) without tripping the switch.
    fail_sync_at: Option<u64>,
    appends: u64,
    syncs: u64,
}

impl<B: LogBackend> FaultLog<B> {
    /// Wraps `inner`, failing closed once `switch` trips.
    pub fn new(inner: B, switch: CrashSwitch) -> Self {
        FaultLog {
            inner,
            switch,
            crash_at_append: None,
            torn_tail: false,
            fail_sync_at: None,
            appends: 0,
            syncs: 0,
        }
    }

    /// Trips the switch on the `n`-th append (1-based); `torn` writes a
    /// partial record first, modelling a torn tail.
    pub fn crash_at_append(mut self, n: u64, torn: bool) -> Self {
        self.crash_at_append = Some(n);
        self.torn_tail = torn;
        self
    }

    /// Fails the `n`-th sync (1-based) with an I/O error, as an fsync that
    /// reports EIO does: the appended bytes stay, their durability unknown.
    /// Transient; not a crash.
    pub fn fail_sync_at(mut self, n: u64) -> Self {
        self.fail_sync_at = Some(n);
        self
    }

    /// The wrapped backend (e.g. to read the surviving bytes post-crash).
    pub fn into_inner(self) -> B {
        self.inner
    }
}

impl<B: LogBackend> LogBackend for FaultLog<B> {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.switch.check()?;
        self.appends += 1;
        if self.crash_at_append == Some(self.appends) {
            if self.torn_tail {
                self.inner.append(&bytes[..bytes.len() / 2])?;
            }
            self.switch.trip();
            return Err(CrashSwitch::error());
        }
        self.inner.append(bytes)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.switch.check()?;
        self.syncs += 1;
        if self.fail_sync_at == Some(self.syncs) {
            return Err(io::Error::other("injected fsync failure"));
        }
        self.inner.sync()
    }

    fn read_all(&self) -> io::Result<Vec<u8>> {
        // Reads stay allowed: recovery inspects the log after the crash.
        self.inner.read_all()
    }

    fn truncate(&mut self) -> io::Result<()> {
        self.switch.check()?;
        self.inner.truncate()
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }
}

/// A backend that models the volatile OS write cache explicitly: appends land
/// in a *staging* buffer and become part of the real log only on
/// [`LogBackend::sync`], which moves the staged bytes into the inner backend
/// and syncs it. Whatever is still staged when the wrapper goes is lost —
/// exactly what power loss does to appended-but-unsynced data — so a test
/// that reads the inner backend afterwards proves that recovery sees *none*
/// of an unsynced batch and *all* of a synced one.
pub struct StagedLog<B: LogBackend> {
    inner: B,
    staged: Vec<u8>,
}

impl<B: LogBackend> StagedLog<B> {
    /// Wraps `inner` with an empty staging buffer.
    pub fn new(inner: B) -> Self {
        StagedLog {
            inner,
            staged: Vec::new(),
        }
    }

    /// The wrapped backend (e.g. to read the durable bytes post-crash).
    pub fn into_inner(self) -> B {
        self.inner
    }
}

impl<B: LogBackend> LogBackend for StagedLog<B> {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.staged.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        if !self.staged.is_empty() {
            let staged = std::mem::take(&mut self.staged);
            self.inner.append(&staged)?;
        }
        self.inner.sync()
    }

    fn read_all(&self) -> io::Result<Vec<u8>> {
        // The durable image plus the staged tail: what a reader of the live
        // log would see pre-crash. Recovery sees only the inner bytes.
        let mut out = self.inner.read_all()?;
        out.extend_from_slice(&self.staged);
        Ok(out)
    }

    fn truncate(&mut self) -> io::Result<()> {
        self.staged.clear();
        self.inner.truncate()
    }

    fn len(&self) -> u64 {
        self.inner.len() + self.staged.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(log: &mut dyn LogBackend) {
        assert!(log.is_empty());
        log.append(b"hello ").unwrap();
        log.append(b"world").unwrap();
        log.sync().unwrap();
        assert_eq!(log.len(), 11);
        assert_eq!(log.read_all().unwrap(), b"hello world");
        log.truncate().unwrap();
        assert!(log.is_empty());
        log.append(b"again").unwrap();
        assert_eq!(log.read_all().unwrap(), b"again");
    }

    #[test]
    fn mem_log_round_trip() {
        exercise(&mut MemLog::new());
    }

    #[test]
    fn mem_log_clone_shares_bytes() {
        let mut a = MemLog::new();
        let b = a.clone();
        a.append(b"shared").unwrap();
        assert_eq!(b.read_all().unwrap(), b"shared");
    }

    #[test]
    fn file_log_round_trip_and_reopen() {
        let dir = std::env::temp_dir().join(format!("rtree-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.wal");
        {
            let mut log = FileLog::create(&path).unwrap();
            exercise(&mut log);
        }
        {
            let mut log = FileLog::open(&path).unwrap();
            assert_eq!(log.read_all().unwrap(), b"again");
            log.append(b"-and-again").unwrap();
            assert_eq!(log.read_all().unwrap(), b"again-and-again");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fault_log_crashes_on_schedule() {
        let switch = CrashSwitch::new();
        let mut log = FaultLog::new(MemLog::new(), switch.clone()).crash_at_append(3, true);
        log.append(b"aaaa").unwrap();
        log.append(b"bbbb").unwrap();
        assert!(!switch.is_tripped());
        let err = log.append(b"cccc").unwrap_err();
        assert_eq!(err.to_string(), "simulated crash");
        assert!(switch.is_tripped());
        // Torn tail: half of the crashing append made it to the log.
        assert_eq!(log.read_all().unwrap(), b"aaaabbbbcc");
        // Everything after the crash fails, including via a fresh trip check.
        assert!(log.append(b"dddd").is_err());
        assert!(log.sync().is_err());
        assert!(log.truncate().is_err());
    }

    #[test]
    fn staged_log_publishes_on_sync_and_discards_on_crash() {
        let durable = MemLog::new();
        let mut log = StagedLog::new(durable.clone());
        log.append(b"batch-a").unwrap();
        assert_eq!(log.read_all().unwrap(), b"batch-a", "live view sees staged");
        assert!(durable.is_empty(), "nothing durable before the sync");
        log.sync().unwrap();
        assert_eq!(durable.read_all().unwrap(), b"batch-a");
        log.append(b"batch-b").unwrap();
        // Crash: the unsynced batch vanishes entirely; the synced one survived.
        assert_eq!(log.into_inner().read_all().unwrap(), b"batch-a");
    }

    #[test]
    fn fault_log_fails_when_switch_tripped_externally() {
        let switch = CrashSwitch::new();
        let mut log = FaultLog::new(MemLog::new(), switch.clone());
        log.append(b"x").unwrap();
        switch.trip();
        assert!(log.append(b"y").is_err());
        switch.reset();
        log.append(b"z").unwrap();
        assert_eq!(log.read_all().unwrap(), b"xz");
    }
}
