//! The event taxonomy and the simple sinks.

use std::sync::atomic::{AtomicU64, Ordering};

/// What happened, physically, for one traced buffer interaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A pool access satisfied from a resident frame (no disk transfer).
    Hit,
    /// A pool access that required a physical page read: a miss fill, a
    /// bypass read against a fully pinned pool, a pin load, or the
    /// before-image read of a buffered write. Reconciles with
    /// `IoStats::reads`.
    Miss,
    /// A physical page read issued by the batch executor's readahead: the
    /// frame is filled (and held) ahead of the access that will consume it,
    /// so no `Miss` is charged to any query. Together with `Miss` events it
    /// reconciles with `IoStats::reads`
    /// (`misses + prefetches == reads`); the prefetch-only share is also
    /// surfaced in `IoStats::prefetch_reads`.
    Prefetch,
    /// A physical page write: dirty eviction, flush, or write-through.
    /// Reconciles with `IoStats::writes`.
    WriteBack,
    /// The uncharged root-MBR peek read. Reconciles with
    /// `IoStats::peek_reads`.
    PeekRead,
    /// A page-image record appended to the write-ahead log.
    WalAppend,
    /// A page-latch acquisition that had to wait for another holder
    /// (concurrent writer mode). `page_id` is the latch key (0 = the meta
    /// latch).
    LatchWait,
    /// A group-commit leader flushed the log: one fsync made every queued
    /// operation durable. `page_id` carries the batch size.
    GroupCommitFlush,
}

/// One traced event. `query_id` is 0 for work not attributable to a query
/// or mutation span (e.g. `pin_top_levels` pre-loading); `level` is the
/// on-page node level (leaves are 0, the root is `height - 1`) or -1 when
/// the level is unknown.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IoEvent {
    /// Query / operation span this event belongs to (0 = none).
    pub query_id: u64,
    /// The page involved.
    pub page_id: u64,
    /// On-page node level (leaf = 0), or -1 if unknown.
    pub level: i16,
    /// What happened.
    pub kind: EventKind,
    /// Timestamp from [`crate::now_ns`].
    pub ns: u64,
}

impl Default for IoEvent {
    fn default() -> Self {
        IoEvent {
            query_id: 0,
            page_id: 0,
            level: -1,
            kind: EventKind::Hit,
            ns: 0,
        }
    }
}

/// Where trace events go. Implementations must be cheap and thread-safe:
/// the concurrent query path records from many threads at once.
pub trait TraceSink: Send + Sync {
    /// Records one event.
    fn record(&self, event: IoEvent);
}

/// Per-kind event totals, as captured by a [`CountingSink`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// `EventKind::Hit` events.
    pub hits: u64,
    /// `EventKind::Miss` events.
    pub misses: u64,
    /// `EventKind::Prefetch` events.
    pub prefetches: u64,
    /// `EventKind::WriteBack` events.
    pub write_backs: u64,
    /// `EventKind::PeekRead` events.
    pub peek_reads: u64,
    /// `EventKind::WalAppend` events.
    pub wal_appends: u64,
    /// `EventKind::LatchWait` events.
    pub latch_waits: u64,
    /// `EventKind::GroupCommitFlush` events.
    pub group_commit_flushes: u64,
}

impl EventCounts {
    /// Pool accesses covered by the stream: hits + misses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Physical page reads covered by the stream: demand misses plus
    /// prefetch fills. Reconciles with `IoStats::reads`.
    pub fn reads(&self) -> u64 {
        self.misses + self.prefetches
    }

    /// Every event, of any kind.
    pub fn total(&self) -> u64 {
        self.hits
            + self.misses
            + self.prefetches
            + self.write_backs
            + self.peek_reads
            + self.wal_appends
            + self.latch_waits
            + self.group_commit_flushes
    }
}

/// A sink that keeps one relaxed atomic counter per [`EventKind`] — the
/// cheapest sink that still lets the differential suite reconcile a run
/// against its `IoStats`.
#[derive(Debug, Default)]
pub struct CountingSink {
    hits: AtomicU64,
    misses: AtomicU64,
    prefetches: AtomicU64,
    write_backs: AtomicU64,
    peek_reads: AtomicU64,
    wal_appends: AtomicU64,
    latch_waits: AtomicU64,
    group_commit_flushes: AtomicU64,
}

impl CountingSink {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        CountingSink::default()
    }

    /// Snapshot of the per-kind totals.
    pub fn counts(&self) -> EventCounts {
        EventCounts {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            prefetches: self.prefetches.load(Ordering::Relaxed),
            write_backs: self.write_backs.load(Ordering::Relaxed),
            peek_reads: self.peek_reads.load(Ordering::Relaxed),
            wal_appends: self.wal_appends.load(Ordering::Relaxed),
            latch_waits: self.latch_waits.load(Ordering::Relaxed),
            group_commit_flushes: self.group_commit_flushes.load(Ordering::Relaxed),
        }
    }
}

impl TraceSink for CountingSink {
    fn record(&self, event: IoEvent) {
        let counter = match event.kind {
            EventKind::Hit => &self.hits,
            EventKind::Miss => &self.misses,
            EventKind::Prefetch => &self.prefetches,
            EventKind::WriteBack => &self.write_backs,
            EventKind::PeekRead => &self.peek_reads,
            EventKind::WalAppend => &self.wal_appends,
            EventKind::LatchWait => &self.latch_waits,
            EventKind::GroupCommitFlush => &self.group_commit_flushes,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Hit/miss totals for one tree level, from a [`PerLevelSink`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LevelCounts {
    /// On-page node level (leaf = 0), or -1 for unattributed events.
    pub level: i16,
    /// Pool hits at this level.
    pub hits: u64,
    /// Pool misses (physical reads) at this level.
    pub misses: u64,
    /// Prefetch fills (physical reads not charged to a query) at this
    /// level.
    pub prefetches: u64,
}

impl LevelCounts {
    /// Fraction of accesses at this level served from the buffer.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Number of level slots a [`PerLevelSink`] tracks (far above any real
/// R-tree height); deeper levels and unknown levels land in the overflow
/// slot reported as level -1.
const LEVEL_SLOTS: usize = 32;

/// A sink that aggregates [`EventKind::Hit`] / [`EventKind::Miss`] events
/// per tree level with relaxed atomics — the per-level access breakdown the
/// paper derives analytically, measured from a real trace. Other event
/// kinds are counted in totals but not attributed to a level.
#[derive(Debug)]
pub struct PerLevelSink {
    hits: [AtomicU64; LEVEL_SLOTS + 1],
    misses: [AtomicU64; LEVEL_SLOTS + 1],
    prefetches: [AtomicU64; LEVEL_SLOTS + 1],
    peek_reads: AtomicU64,
    write_backs: AtomicU64,
    wal_appends: AtomicU64,
    latch_waits: AtomicU64,
    group_commit_flushes: AtomicU64,
}

impl Default for PerLevelSink {
    fn default() -> Self {
        PerLevelSink {
            hits: std::array::from_fn(|_| AtomicU64::new(0)),
            misses: std::array::from_fn(|_| AtomicU64::new(0)),
            prefetches: std::array::from_fn(|_| AtomicU64::new(0)),
            peek_reads: AtomicU64::new(0),
            write_backs: AtomicU64::new(0),
            wal_appends: AtomicU64::new(0),
            latch_waits: AtomicU64::new(0),
            group_commit_flushes: AtomicU64::new(0),
        }
    }
}

impl PerLevelSink {
    /// Creates a zeroed sink.
    pub fn new() -> Self {
        PerLevelSink::default()
    }

    fn slot(level: i16) -> usize {
        if (0..LEVEL_SLOTS as i16).contains(&level) {
            level as usize
        } else {
            LEVEL_SLOTS
        }
    }

    /// Per-level hit/miss counts for every level that saw traffic, deepest
    /// (leaf, level 0) first; the overflow/unattributed slot comes last as
    /// level -1.
    pub fn level_counts(&self) -> Vec<LevelCounts> {
        let mut out = Vec::new();
        for i in 0..=LEVEL_SLOTS {
            let hits = self.hits[i].load(Ordering::Relaxed);
            let misses = self.misses[i].load(Ordering::Relaxed);
            let prefetches = self.prefetches[i].load(Ordering::Relaxed);
            if hits + misses + prefetches > 0 {
                out.push(LevelCounts {
                    level: if i == LEVEL_SLOTS { -1 } else { i as i16 },
                    hits,
                    misses,
                    prefetches,
                });
            }
        }
        out
    }

    /// Totals across all levels (including unattributed), plus the
    /// non-level-attributed kinds.
    pub fn counts(&self) -> EventCounts {
        let mut c = EventCounts {
            peek_reads: self.peek_reads.load(Ordering::Relaxed),
            write_backs: self.write_backs.load(Ordering::Relaxed),
            wal_appends: self.wal_appends.load(Ordering::Relaxed),
            latch_waits: self.latch_waits.load(Ordering::Relaxed),
            group_commit_flushes: self.group_commit_flushes.load(Ordering::Relaxed),
            ..EventCounts::default()
        };
        for i in 0..=LEVEL_SLOTS {
            c.hits += self.hits[i].load(Ordering::Relaxed);
            c.misses += self.misses[i].load(Ordering::Relaxed);
            c.prefetches += self.prefetches[i].load(Ordering::Relaxed);
        }
        c
    }
}

impl TraceSink for PerLevelSink {
    fn record(&self, event: IoEvent) {
        match event.kind {
            EventKind::Hit => {
                self.hits[Self::slot(event.level)].fetch_add(1, Ordering::Relaxed);
            }
            EventKind::Miss => {
                self.misses[Self::slot(event.level)].fetch_add(1, Ordering::Relaxed);
            }
            EventKind::Prefetch => {
                self.prefetches[Self::slot(event.level)].fetch_add(1, Ordering::Relaxed);
            }
            EventKind::PeekRead => {
                self.peek_reads.fetch_add(1, Ordering::Relaxed);
            }
            EventKind::WriteBack => {
                self.write_backs.fetch_add(1, Ordering::Relaxed);
            }
            EventKind::WalAppend => {
                self.wal_appends.fetch_add(1, Ordering::Relaxed);
            }
            EventKind::LatchWait => {
                self.latch_waits.fetch_add(1, Ordering::Relaxed);
            }
            EventKind::GroupCommitFlush => {
                self.group_commit_flushes.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, level: i16) -> IoEvent {
        IoEvent {
            query_id: 1,
            page_id: 7,
            level,
            kind,
            ns: 0,
        }
    }

    #[test]
    fn counting_sink_counts_by_kind() {
        let sink = CountingSink::new();
        sink.record(ev(EventKind::Hit, 0));
        sink.record(ev(EventKind::Hit, 1));
        sink.record(ev(EventKind::Miss, 0));
        sink.record(ev(EventKind::Prefetch, 0));
        sink.record(ev(EventKind::WriteBack, -1));
        sink.record(ev(EventKind::PeekRead, 2));
        sink.record(ev(EventKind::WalAppend, -1));
        sink.record(ev(EventKind::LatchWait, -1));
        sink.record(ev(EventKind::GroupCommitFlush, -1));
        let c = sink.counts();
        assert_eq!(
            c,
            EventCounts {
                hits: 2,
                misses: 1,
                prefetches: 1,
                write_backs: 1,
                peek_reads: 1,
                wal_appends: 1,
                latch_waits: 1,
                group_commit_flushes: 1,
            }
        );
        assert_eq!(c.accesses(), 3, "prefetch is not a pool access");
        assert_eq!(c.reads(), 2, "demand miss + prefetch fill");
        assert_eq!(c.total(), 9);
    }

    #[test]
    fn per_level_sink_attributes_levels() {
        let sink = PerLevelSink::new();
        sink.record(ev(EventKind::Miss, 2)); // root
        sink.record(ev(EventKind::Hit, 1));
        sink.record(ev(EventKind::Miss, 0));
        sink.record(ev(EventKind::Miss, 0));
        sink.record(ev(EventKind::Hit, -1)); // unattributed
        sink.record(ev(EventKind::PeekRead, 2));
        sink.record(ev(EventKind::Prefetch, 0));
        let levels = sink.level_counts();
        assert_eq!(
            levels,
            vec![
                LevelCounts {
                    level: 0,
                    hits: 0,
                    misses: 2,
                    prefetches: 1
                },
                LevelCounts {
                    level: 1,
                    hits: 1,
                    misses: 0,
                    prefetches: 0
                },
                LevelCounts {
                    level: 2,
                    hits: 0,
                    misses: 1,
                    prefetches: 0
                },
                LevelCounts {
                    level: -1,
                    hits: 1,
                    misses: 0,
                    prefetches: 0
                },
            ]
        );
        let totals = sink.counts();
        assert_eq!((totals.hits, totals.misses, totals.peek_reads), (2, 3, 1));
        assert_eq!(totals.prefetches, 1);
        assert!((levels[1].hit_ratio() - 1.0).abs() < 1e-12);
        assert_eq!(levels[0].hit_ratio(), 0.0);
    }

    #[test]
    fn deep_levels_land_in_overflow_slot() {
        let sink = PerLevelSink::new();
        sink.record(ev(EventKind::Miss, 100));
        sink.record(ev(EventKind::Miss, i16::MAX));
        let levels = sink.level_counts();
        assert_eq!(levels.len(), 1);
        assert_eq!(levels[0].level, -1);
        assert_eq!(levels[0].misses, 2);
    }
}
