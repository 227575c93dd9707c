//! The measured loops an experiment and a CLI subcommand both run, written
//! once as functions of explicit parameters: the registry entry passes the
//! paper's constants, the subcommand passes its flags, and each formats
//! its own rows from what comes back.

use rtree_buffer::ReplacementPolicy;
use rtree_core::Workload;
use rtree_geom::Rect;
use rtree_index::RTree;
use rtree_obs::Histogram;
use rtree_pager::{ConcurrentDiskRTree, DiskRTree, MemStore};
use rtree_sim::QuerySampler;
use rtree_wal::{GroupWal, MemLog};
use std::io;
use std::time::{Duration, Instant};

/// What one batch size cost on the cold batch-size curve.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchPoint {
    /// Queries per executor batch.
    pub size: usize,
    /// Physical page reads per query.
    pub reads_per_query: f64,
    /// Buffer pool hit ratio.
    pub hit_ratio: f64,
    /// Fraction of page requests the cross-query dedup removed.
    pub dedup_saved: f64,
    /// Wall-clock throughput.
    pub queries_per_s: f64,
}

/// The cold batch-size curve: answers the identical `stream` through the
/// batched executor at every batch size in `sizes`, each against a fresh
/// (cold) image of `tree`, so the curve isolates what batching alone buys.
pub fn batch_curve(
    tree: &RTree,
    buffer: usize,
    policy: impl Fn() -> Box<dyn ReplacementPolicy>,
    stream: &[Rect],
    sizes: &[usize],
) -> io::Result<Vec<BatchPoint>> {
    sizes
        .iter()
        .map(|&size| {
            let disk = DiskRTree::create(MemStore::new(), tree, buffer, policy())?;
            let (mut work, mut requests) = (0u64, 0u64);
            let started = Instant::now();
            for chunk in stream.chunks(size) {
                let out = disk.query_batch(chunk, 1)?;
                work += out.stats.work_items;
                requests += out.stats.page_requests;
            }
            let elapsed = started.elapsed().as_secs_f64();
            Ok(BatchPoint {
                size,
                reads_per_query: disk.physical_reads() as f64 / stream.len() as f64,
                hit_ratio: disk.buffer_stats().hit_ratio(),
                dedup_saved: 1.0 - work as f64 / requests.max(1) as f64,
                queries_per_s: stream.len() as f64 / elapsed,
            })
        })
        .collect()
}

/// Warms a shared tree single-threaded with `queries` samples of
/// `workload`, then zeroes its counters so what follows is steady state.
pub fn warm_up(
    disk: &ConcurrentDiskRTree<MemStore>,
    workload: &Workload,
    seed: u64,
    queries: usize,
) -> io::Result<()> {
    let mut sampler = QuerySampler::new(workload, seed);
    for _ in 0..queries {
        disk.query(&sampler.sample())?;
    }
    disk.reset_counters();
    Ok(())
}

/// Time every Nth query; sparse sampling keeps the timing syscalls off the
/// throughput-critical path while still filling the latency histogram.
const LATENCY_SAMPLE_EVERY: usize = 8;

/// Drives `threads` client threads of `per_thread` queries each against a
/// shared tree (thread `t` samples `workload` with seed `seed + t`) and
/// returns the wall-clock time plus the merged sampled-latency histogram.
/// I/O and hit-ratio figures are read off the tree afterwards.
pub fn query_threads(
    disk: &ConcurrentDiskRTree<MemStore>,
    workload: &Workload,
    threads: usize,
    per_thread: usize,
    seed: u64,
) -> io::Result<(Duration, Histogram)> {
    let started = Instant::now();
    let latency = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || -> io::Result<Histogram> {
                    let mut sampler = QuerySampler::new(workload, seed + t as u64);
                    let mut hist = Histogram::new();
                    for i in 0..per_thread {
                        let t0 = (i % LATENCY_SAMPLE_EVERY == 0).then(Instant::now);
                        disk.query(&sampler.sample())?;
                        if let Some(t0) = t0 {
                            hist.record(t0.elapsed().as_nanos() as u64);
                        }
                    }
                    Ok(hist)
                })
            })
            .collect();
        let mut merged = Histogram::new();
        for worker in workers {
            merged.merge(&worker.join().expect("query worker panicked")?);
        }
        Ok::<_, io::Error>(merged)
    })?;
    Ok((started.elapsed(), latency))
}

/// The insert/checkpoint loop of the write-amplification measurements: an
/// empty WAL-attached disk tree that checkpoints every `every` mutations
/// (0 = never) and totals the log traffic — the op records and the
/// checkpoints' page images.
pub struct WalRun {
    /// The tree under test.
    pub disk: DiskRTree<MemStore>,
    /// Latency of each mutation, checkpoints excluded.
    pub latency: Histogram,
    every: usize,
    ops: usize,
}

impl WalRun {
    /// Creates the empty tree (Guttman capacity `cap`, minimum fill `min`)
    /// reading through a pool of `buffer` frames, with a fresh WAL.
    pub fn new(
        cap: usize,
        min: usize,
        buffer: usize,
        policy: Box<dyn ReplacementPolicy>,
        every: usize,
    ) -> io::Result<Self> {
        let mut disk = DiskRTree::create_empty(MemStore::new(), cap, min, buffer, policy)?;
        disk.attach_wal(GroupWal::open(MemLog::new())?);
        Ok(WalRun {
            disk,
            latency: Histogram::new(),
            every,
            ops: 0,
        })
    }

    /// Runs one mutation against the tree, then checkpoints if one is due.
    pub fn apply<T>(
        &mut self,
        op: impl FnOnce(&mut DiskRTree<MemStore>) -> io::Result<T>,
    ) -> io::Result<T> {
        let t0 = Instant::now();
        let done = op(&mut self.disk)?;
        self.latency.record(t0.elapsed().as_nanos() as u64);
        self.ops += 1;
        if self.every > 0 && self.ops.is_multiple_of(self.every) {
            self.disk.checkpoint()?;
        }
        Ok(done)
    }

    /// Total log bytes appended so far, across checkpoints.
    pub fn wal_bytes(&self) -> u64 {
        self.disk.group_commit_stats().map_or(0, |wal| wal.bytes)
    }
}
