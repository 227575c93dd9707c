//! What a workload looks like to the measuring code, and the two ways a
//! run measures it: untraced end-to-end passes (`--trace 0`) and the
//! reference + traced pass pair behind the per-layer numbers (`--trace 1`).

use crate::report::{median, quantile, Metrics, END_TO_END};
use rtree_datagen::trace::MixWeights;
use rtree_geom::Rect;
use rtree_server::Request;
use std::time::Duration;

/// How long one pass runs.
#[derive(Clone, Copy, Debug)]
pub enum Limit {
    /// A fixed operation count, so that count metrics repeat exactly.
    Ops(usize),
    /// A fixed duration.
    For(Duration),
}

/// What one closed-loop pass observed. Latencies are exact nanosecond
/// samples, one per completed operation and class.
#[derive(Debug, Default)]
pub struct Pass {
    /// Operations attempted.
    pub ops: u64,
    /// Operations that errored, were refused, or answered wrongly.
    pub failed: u64,
    pub elapsed_ns: u64,
    pub read_ns: Vec<u64>,
    pub write_ns: Vec<u64>,
    /// Results returned by the reads (ids, or the count a `Count` gave).
    pub results: u64,
}

impl Pass {
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 * 1e9 / self.elapsed_ns.max(1) as f64
    }

    pub fn mean_latency_us(&self) -> f64 {
        let n = self.read_ns.len() + self.write_ns.len();
        let sum: u64 = self.read_ns.iter().chain(&self.write_ns).sum();
        sum as f64 / 1e3 / n.max(1) as f64
    }

    /// Sorts the samples; call once before taking quantiles.
    pub fn sort(&mut self) {
        self.read_ns.sort_unstable();
        self.write_ns.sort_unstable();
    }
}

/// Cumulative counters of a workload's layers since it was opened. Layers a
/// workload does not have stay 0.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    /// `IoStats.reads`: demand + prefetch page-ins (the paper's metric).
    pub reads: u64,
    pub prefetch_reads: u64,
    pub accesses: u64,
    pub hits: u64,
    pub batches: u64,
    pub batched_jobs: u64,
    pub queue_wait_us: u64,
    pub rejected: u64,
    pub writes: u64,
    pub fsyncs: u64,
    pub commit_batches: u64,
    pub committed_ops: u64,
    pub latch_waits: u64,
    pub wal_bytes: u64,
}

impl Counters {
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            reads: self.reads - earlier.reads,
            prefetch_reads: self.prefetch_reads - earlier.prefetch_reads,
            accesses: self.accesses - earlier.accesses,
            hits: self.hits - earlier.hits,
            batches: self.batches - earlier.batches,
            batched_jobs: self.batched_jobs - earlier.batched_jobs,
            queue_wait_us: self.queue_wait_us - earlier.queue_wait_us,
            rejected: self.rejected - earlier.rejected,
            writes: self.writes - earlier.writes,
            fsyncs: self.fsyncs - earlier.fsyncs,
            commit_batches: self.commit_batches - earlier.commit_batches,
            committed_ops: self.committed_ops - earlier.committed_ops,
            latch_waits: self.latch_waits - earlier.latch_waits,
            wal_bytes: self.wal_bytes - earlier.wal_bytes,
        }
    }

    /// Pages evicted between two snapshots of an LRU pool of `frames`
    /// frames that was opened cold: once it is full, every page-in evicts
    /// exactly one page.
    pub fn evictions_since(&self, earlier: &Counters, frames: usize) -> u64 {
        let beyond = |reads: u64| reads.saturating_sub(frames as u64);
        beyond(self.reads) - beyond(earlier.reads)
    }
}

/// What closing a workload found.
#[derive(Clone, Copy, Debug, Default)]
pub struct Closing {
    /// Acknowledged writes that the reopened image does not reflect.
    pub lost: u64,
    /// Image plus log bytes on disk.
    pub stored_bytes: u64,
    pub live_items: u64,
}

/// The stream a workload replays, as the analytic model sees it: query
/// centres were drawn from the Zipf pool `center_pool(rects, ZIPF,
/// pool_seed)`, in the region : point proportion of `mix`.
pub struct ModelStream {
    pub rects: Vec<Rect>,
    pub pool_seed: u64,
    pub mix: MixWeights,
}

/// An opened, warmed-up workload.
pub trait Bench {
    /// Runs one closed-loop pass and checks the sampled results.
    fn pass(&mut self, limit: Limit) -> Pass;
    fn counters(&self) -> Counters;
    /// Frames of the buffer the workload reads through.
    fn frames(&self) -> usize;
    /// The first [`MESSAGES`] of the workload's own messages, as wire
    /// requests (what the embedded workloads would send if they were served).
    fn messages(&self) -> Vec<Request>;
    /// What the analytic model needs to describe the workload's reads.
    fn model_stream(&self) -> ModelStream;
    /// `(operations, page reads)` of the traced pass that the analytic
    /// model describes, when the workload can tell them apart; otherwise
    /// the model is set beside all of the pass.
    fn modelled(&self) -> Option<(u64, u64)> {
        None
    }
    /// Stops the workload and runs its closing checks.
    fn close(self: Box<Self>) -> Closing;
}

/// True when two id lists hold the same ids, in any order.
pub fn same_ids(mut a: Vec<u64>, mut b: Vec<u64>) -> bool {
    a.sort_unstable();
    b.sort_unstable();
    a == b
}

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Slices an untraced run's measuring time is cut into.
pub const SLICES: usize = 30;
/// Messages handed to the probes.
pub const MESSAGES: usize = 4096;

/// Sets `name` to the best of the per-slice values (the highest when
/// `higher` is better, else the lowest), with the distance from the best to
/// the median slice beside it: how disturbed the run was.
fn set_best(m: &mut Metrics, name: &str, per_slice: &[f64], higher: bool, n: u64) {
    let best = per_slice
        .iter()
        .copied()
        .reduce(|a, b| if (b > a) == higher { b } else { a })
        .expect("at least one slice");
    m.set_full(name, best, (median(per_slice) - best).abs() / best, n);
}

/// The end-to-end timings of an untraced run. The sandbox's speed swings by
/// tens of per cent over seconds to minutes (other tenants; see README), and
/// interference only ever slows a slice down, so each timing is computed
/// per slice from exact samples and the least-disturbed slice is reported.
pub fn end_to_end(slices: &mut [Pass]) -> Metrics {
    let mut m = Metrics::new(END_TO_END);
    for p in slices.iter_mut() {
        p.sort();
    }
    let per_slice = |f: &dyn Fn(&Pass) -> f64| -> Vec<f64> { slices.iter().map(f).collect() };
    let ops: u64 = slices.iter().map(|p| p.ops).sum();
    let reads: u64 = slices.iter().map(|p| p.read_ns.len() as u64).sum();
    set_best(
        &mut m,
        "ops_per_s",
        &per_slice(&|p| p.ops_per_s()),
        true,
        ops,
    );
    set_best(
        &mut m,
        "read_p50_us",
        &per_slice(&|p| quantile(&p.read_ns, 0.5) / 1e3),
        false,
        reads,
    );
    set_best(
        &mut m,
        "read_p99_us",
        &per_slice(&|p| quantile(&p.read_ns, 0.99) / 1e3),
        false,
        reads,
    );
    m
}
