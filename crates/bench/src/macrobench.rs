//! Trace-replayable effective-OPS macro-benchmark.
//!
//! The figure-level experiments measure *disk accesses per query* — the
//! paper's unit. This module measures what an application feels: effective
//! operations per second under a recorded, byte-replayable operation
//! trace ([`rtree_datagen::trace`]), with the buffer miss penalty made
//! explicit through a configurable miss-cost model:
//!
//! ```text
//! effective_ops = 1e9 / (hit_ns + demand_reads_per_op × miss_ns)
//! ```
//!
//! `hit_ns` is the *measured* mean in-memory op time (the replay runs on
//! a `MemStore`, so every buffer hit and miss costs only memcpy — the
//! measured time is the CPU side), and `demand_reads_per_op × miss_ns`
//! charges each demand miss the latency of one device read (default
//! ~1.9 µs, an NVMe 4 KiB random read). The split keeps the number
//! honest on a machine with a page cache: misses are counted, not timed.
//!
//! Alongside measurement, each configuration is scored by the paper's
//! analytic buffer model over the *actual on-disk tree* (walked from the
//! page image, so v4's repacked internal levels and conservative
//! quantized MBRs are what the model sees). The headline comparison: at
//! equal frame budgets, v4's higher internal fan-out (253 vs 102
//! entries/page) shrinks the tree's page footprint and height, so both
//! the model and the measurement must show fewer demand reads per
//! operation — see [`Gate`].

use std::io;
use std::time::Instant;

use crate::{f, pct, say, synthetic_region, Loader, Opts, Table};
use rtree_buffer::{PageId, PolicyKind, ReplacementPolicy};
use rtree_core::{BufferModel, TreeDescription, Workload};
use rtree_datagen::trace::{center_pool, generate, MixWeights, Skew, Trace, TraceOp, TraceSpec};
use rtree_geom::Rect;
use rtree_index::RTree;
use rtree_obs::Histogram;
use rtree_pager::{DiskRTree, MemStore, NodePage, PageStore, PAGE_SIZE};

/// The two on-disk page formats under comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PageFormat {
    /// Format v3: exact f64 SoA pages at every level (102 entries/page).
    V3,
    /// Format v4: leaves stay exact f64; internal levels are repacked into
    /// quantized pages (253 entries/page) with conservative rounding.
    V4,
}

impl PageFormat {
    /// Both formats, reporting order.
    pub const ALL: [PageFormat; 2] = [PageFormat::V3, PageFormat::V4];

    /// Display name used in tables.
    pub fn name(self) -> &'static str {
        match self {
            PageFormat::V3 => "v3",
            PageFormat::V4 => "v4",
        }
    }

    /// Materializes `tree` in this format over a fresh in-memory store.
    ///
    /// # Panics
    /// Panics if materialization fails (in-memory stores do not error).
    pub fn materialize(
        self,
        tree: &RTree,
        frames: usize,
        policy: Box<dyn ReplacementPolicy>,
    ) -> DiskRTree<MemStore> {
        match self {
            PageFormat::V3 => {
                DiskRTree::create(MemStore::new(), tree, frames, policy).expect("create v3")
            }
            PageFormat::V4 => DiskRTree::create_compressed(MemStore::new(), tree, frames, policy)
                .expect("create v4"),
        }
    }
}

/// Default miss latency: a 4 KiB random read on a datacenter NVMe device.
pub const DEFAULT_MISS_NS: f64 = 1_934.0;

/// The effective-OPS formula: throughput with each demand miss charged
/// `miss_ns` on top of the measured in-memory op time.
pub fn effective_ops(mean_op_ns: f64, demand_reads_per_op: f64, miss_ns: f64) -> f64 {
    1e9 / (mean_op_ns + demand_reads_per_op * miss_ns)
}

/// What one trace replay observed.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplayOutcome {
    /// Operations replayed.
    pub ops: usize,
    /// Wall-clock for the whole replay.
    pub elapsed_ns: u64,
    /// Physical I/O during the replay (counters reset at entry).
    pub io: rtree_pager::IoStats,
    /// Buffer hit ratio over the replay.
    pub hit_rate: f64,
    /// Median per-op latency (in-memory component).
    pub p50_ns: u64,
    /// 99th-percentile per-op latency.
    pub p99_ns: u64,
    /// Order-sensitive digest of every result id — two replays that
    /// return the same answers in the same order have equal digests.
    pub digest: u64,
}

impl ReplayOutcome {
    /// Demand (non-prefetch) physical reads per operation.
    pub fn demand_reads_per_op(&self) -> f64 {
        self.io.demand_reads() as f64 / self.ops as f64
    }

    /// Mean in-memory op latency.
    pub fn mean_op_ns(&self) -> f64 {
        self.elapsed_ns as f64 / self.ops as f64
    }

    /// Effective operations/second under a given miss latency.
    pub fn effective_ops(&self, miss_ns: f64) -> f64 {
        effective_ops(self.mean_op_ns(), self.demand_reads_per_op(), miss_ns)
    }
}

/// Replays a trace against a tree, measuring I/O, latency quantiles, and
/// a result digest. Counters are reset on entry, so the outcome covers
/// exactly this replay; the buffer content is whatever the caller left
/// (replay a warm-up prefix first for steady-state numbers, or nothing
/// for a cold run).
///
/// # Errors
/// Propagates the first I/O error from the underlying store.
pub fn replay<S: PageStore>(tree: &mut DiskRTree<S>, trace: &Trace) -> io::Result<ReplayOutcome> {
    assert!(!trace.ops.is_empty(), "empty trace");
    tree.reset_counters();
    let mut hist = Histogram::new();
    let mut digest = 0u64;
    let mut absorb =
        |id: u64| digest = digest.rotate_left(7) ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let start = Instant::now();
    for op in &trace.ops {
        let t0 = Instant::now();
        match op {
            TraceOp::Region(r) => {
                for id in tree.query(r)? {
                    absorb(id);
                }
            }
            TraceOp::Point(p) => {
                for id in tree.query_point(p)? {
                    absorb(id);
                }
            }
            TraceOp::Knn(p, k) => {
                // Absorb distances, not ids: when k cuts through a group
                // of equidistant items (common at distance 0 inside
                // overlapping rects), *which* tied item is returned is a
                // heap-order artifact, but the distance sequence is
                // unique — that is the format-independent answer.
                for n in tree.nearest_neighbors(p, *k as usize)? {
                    absorb(n.distance.to_bits());
                }
            }
            TraceOp::Insert(r, id) => tree.insert(*r, *id)?,
            TraceOp::Delete(r, id) => {
                absorb(u64::from(tree.delete(r, *id)?));
            }
        }
        hist.record(t0.elapsed().as_nanos() as u64);
    }
    let elapsed_ns = start.elapsed().as_nanos() as u64;
    Ok(ReplayOutcome {
        ops: trace.ops.len(),
        elapsed_ns,
        io: tree.io_stats(),
        hit_rate: tree.hit_ratio(),
        p50_ns: hist.quantile(0.5),
        p99_ns: hist.quantile(0.99),
        digest,
    })
}

/// Rebuilds the per-level MBR description from the *on-disk image* by
/// decoding every node page — so for v4 the model sees the repacked
/// internal levels and their conservatively rounded (slightly larger)
/// MBRs, exactly the rectangles traversal tests against.
///
/// # Errors
/// Propagates store read errors; corrupt pages surface as `InvalidData`.
///
/// # Panics
/// Panics if the meta's level table is stale (mutated tree).
pub fn describe_store<S: PageStore>(
    store: &mut S,
    meta: &rtree_pager::PageMeta,
) -> io::Result<TreeDescription> {
    assert!(
        !meta.level_starts.is_empty(),
        "level table is stale: describe before mutating"
    );
    let mut buf = vec![0u8; PAGE_SIZE];
    let mut levels: Vec<Vec<Rect>> = Vec::with_capacity(meta.level_starts.len());
    for (k, &start) in meta.level_starts.iter().enumerate() {
        let end = meta
            .level_starts
            .get(k + 1)
            .copied()
            .unwrap_or(meta.nodes + 1);
        let mut mbrs = Vec::with_capacity((end - start) as usize);
        for id in start..end {
            store.read_page(PageId(id), &mut buf)?;
            let node = NodePage::decode(&buf).map_err(io::Error::other)?;
            let rects: Vec<Rect> = node.entries.iter().map(|(r, _)| *r).collect();
            mbrs.push(Rect::mbr_of(&rects));
        }
        levels.push(mbrs);
    }
    Ok(TreeDescription::from_levels(levels))
}

/// The macro-benchmark's acceptance gate, evaluated on the Zipf read-only
/// leg at equal frame budgets:
///
/// 1. **Strict win** (every policy): v4 demand reads/op < v3.
/// 2. **Model band** (LRU, the policy the paper's steady-state analysis
///    describes): the measured v4/v3 read ratio is within
///    [`Gate::BAND`] of the model-predicted ratio.
#[derive(Clone, Debug, PartialEq)]
pub struct Gate {
    /// Policy this sample came from.
    pub policy: PolicyKind,
    /// Measured v3 demand reads per op.
    pub v3_reads_per_op: f64,
    /// Measured v4 demand reads per op.
    pub v4_reads_per_op: f64,
    /// Model-predicted v3 disk accesses per query.
    pub model_v3: f64,
    /// Model-predicted v4 disk accesses per query.
    pub model_v4: f64,
}

impl Gate {
    /// Maximum allowed |measured ratio − model ratio|. The model is exact
    /// for uniformly random reference strings; a Zipf trace's locality
    /// beats the model's steady-state assumption by a bounded margin, so
    /// the band is generous but still rejects a sign error or a broken
    /// repack (which would land far outside it).
    pub const BAND: f64 = 0.35;

    /// Measured v4/v3 demand-read ratio.
    pub fn measured_ratio(&self) -> f64 {
        self.v4_reads_per_op / self.v3_reads_per_op
    }

    /// Model-predicted v4/v3 ratio.
    pub fn model_ratio(&self) -> f64 {
        self.model_v4 / self.model_v3
    }

    /// Condition 1: strictly fewer demand reads per op on v4.
    pub fn strict_win(&self) -> bool {
        self.v4_reads_per_op < self.v3_reads_per_op
    }

    /// Condition 2: measured gap within the model band.
    pub fn within_band(&self) -> bool {
        (self.measured_ratio() - self.model_ratio()).abs() <= Self::BAND
    }
}

/// One macro-benchmark cell: materialize `tree` in `format`, walk the image
/// into the analytic model's description, reopen it at `frames` frames
/// under `policy`, replay the optional read-only `warm` prefix (none = a
/// cold run), then the measured `trace`. Returns the measured replay and
/// the model-predicted disk accesses per query over that image.
#[allow(clippy::too_many_arguments)]
pub fn run_cell(
    format: PageFormat,
    tree: &RTree,
    frames: usize,
    policy: PolicyKind,
    policy_seed: u64,
    warm: Option<&Trace>,
    trace: &Trace,
    workload: &Workload,
) -> io::Result<(ReplayOutcome, f64)> {
    let disk = format.materialize(tree, frames, policy.build(policy_seed));
    let meta = disk.meta().clone();
    let mut store = disk.into_store();
    let desc = describe_store(&mut store, &meta)?;
    let mut disk = DiskRTree::open(store, frames, policy.build(policy_seed))?;
    if let Some(warm) = warm {
        replay(&mut disk, warm)?;
    }
    let outcome = replay(&mut disk, trace)?;
    let model_rpq = BufferModel::new(&desc, workload).expected_disk_accesses(frames);
    Ok((outcome, model_rpq))
}

/// **Macro-benchmark** — effective OPS under replayable traces, across
/// {v3, v4} × {lru, fifo, clock, lru-2, random} × {uniform, zipf,
/// shifting}.
///
/// Each cell ([`run_cell`]): build the tree once, materialize it in both
/// page formats, walk the on-disk image into the analytic model's tree
/// description, warm the buffer with a read-only prefix, then replay the
/// recorded trace and report hit rate, demand reads/op, latency quantiles,
/// and effective OPS (misses charged [`Opts::miss_ns`], default ~1.9 µs
/// NVMe).
///
/// The run *gates* (fails) unless, on the Zipf read-only leg at equal
/// frame budgets:
/// 1. v4 does strictly fewer demand reads/op than v3 under **every**
///    policy, and
/// 2. under LRU the measured v4/v3 ratio lands within ±0.35 of the
///    model-predicted ratio (the band documented in [`Gate`]).
pub(crate) fn macrobench(opts: &Opts, out: &mut String) -> Result<(), String> {
    // Scale so v3 genuinely needs internal pages v4 can fold away: the
    // quick tree (134 leaves at cap 30) and the full tree (200 leaves at
    // the page-limit cap 100) both repack to a single 253-entry internal
    // level under v4 — one level shallower than v3. The frame budget is
    // starved relative to the leaf count so the buffer, not capacity,
    // shapes the reads.
    let (n, cap, ops, frames) = if opts.quick {
        (4_000, 30, 3_000, 12)
    } else {
        (20_000, 100, 20_000, 32)
    };
    let (qx, qy) = (0.05, 0.05);
    let miss = opts.miss_ns;
    let rects = synthetic_region(n);
    let tree = Loader::Hs.build(cap, &rects);

    // One trace per (skew, mix) leg, recorded once and replayed
    // byte-identically against every format × policy cell.
    let zipf = Skew::Zipf { theta: 1.0 };
    let legs = [
        (
            "uniform",
            Skew::Uniform,
            "90/9/1",
            MixWeights::read_mostly(),
        ),
        ("zipf", zipf, "90/9/1", MixWeights::read_mostly()),
        (
            "shifting",
            Skew::Shifting,
            "90/9/1",
            MixWeights::read_mostly(),
        ),
        ("zipf", zipf, "read-only", MixWeights::read_only()),
    ];

    let mut table = Table::new(
        format!("Effective OPS macro-benchmark (miss = {miss:.0} ns, {frames} frames)"),
        &[
            "format",
            "policy",
            "skew",
            "mix",
            "ops",
            "hit_rate",
            "reads_per_op",
            "model_rpq",
            "p50_us",
            "p99_us",
            "eff_ops",
        ],
    );
    let mut gates: Vec<Gate> = Vec::new();

    for (leg_idx, (skew_name, skew, mix_name, mix)) in legs.into_iter().enumerate() {
        let spec = TraceSpec {
            ops,
            qx,
            qy,
            skew,
            mix,
            seed: 0x7AC3 + leg_idx as u64,
        };
        // A read-only warm-up prefix with the same skew, so measured
        // replays start from a policy-shaped steady state instead of a
        // cold buffer.
        let warm = TraceSpec {
            ops: (ops / 4).max(1),
            mix: MixWeights::read_only(),
            seed: spec.seed ^ 0xFF,
            ..spec
        };
        let (warm_trace, trace) = (generate(&rects, &warm), generate(&rects, &spec));
        // The model workload draws from exactly the center pool the trace
        // generator used.
        let workload = Workload::data_driven(qx, qy, center_pool(&rects, skew, spec.seed));
        for policy in PolicyKind::ALL {
            let policy_name = policy.name().to_lowercase();
            let cells = PageFormat::ALL.map(|format| {
                run_cell(
                    format,
                    &tree,
                    frames,
                    policy,
                    0xD1CE,
                    Some(&warm_trace),
                    &trace,
                    &workload,
                )
                .expect("replay cell")
            });
            for (format, (o, model_rpq)) in PageFormat::ALL.iter().zip(&cells) {
                table.row(vec![
                    format.name().into(),
                    policy_name.clone(),
                    skew_name.into(),
                    mix_name.into(),
                    o.ops.to_string(),
                    pct(o.hit_rate),
                    f(o.demand_reads_per_op()),
                    f(*model_rpq),
                    f(o.p50_ns as f64 / 1e3),
                    f(o.p99_ns as f64 / 1e3),
                    format!("{:.0}", o.effective_ops(miss)),
                ]);
            }
            // On mutating legs the two formats evolve different tree
            // shapes (v4 internal pages split at 253, v3 at the f64
            // capacity), so result order and kNN tie-breaks legitimately
            // differ; answers are only required to be identical while the
            // images stay read-only. The differential test suite
            // (`tests/compress_vs_seed.rs`) covers mutation equivalence
            // set-wise.
            if mix_name == "read-only" {
                let [(v3, model_v3), (v4, model_v4)] = cells;
                assert_eq!(
                    v3.digest, v4.digest,
                    "{policy_name}/{skew_name}: v4 answers diverged from v3"
                );
                gates.push(Gate {
                    policy,
                    v3_reads_per_op: v3.demand_reads_per_op(),
                    v4_reads_per_op: v4.demand_reads_per_op(),
                    model_v3,
                    model_v4,
                });
            }
        }
    }

    table.emit("macrobench", opts, out)?;

    let mut pass = true;
    say!(out, "gate (zipf read-only, {frames} frames):");
    for g in &gates {
        let strict = g.strict_win();
        let band_checked = g.policy == PolicyKind::Lru;
        let band = !band_checked || g.within_band();
        say!(
            out,
            "  {:<7} v3 {:.4} -> v4 {:.4} reads/op (model {:.4} -> {:.4}; ratio {:.3} vs model {:.3}) {}{}",
            g.policy.name().to_lowercase(),
            g.v3_reads_per_op,
            g.v4_reads_per_op,
            g.model_v3,
            g.model_v4,
            g.measured_ratio(),
            g.model_ratio(),
            if strict { "WIN" } else { "FAIL: not fewer" },
            if band_checked {
                if band { ", in band" } else { ", FAIL: outside model band" }
            } else {
                ""
            },
        );
        pass &= strict && band;
    }
    if !pass {
        return Err("macrobench gate FAILED".to_string());
    }
    say!(
        out,
        "macrobench gate passed: v4 beats v3 on demand reads under every policy"
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtree_datagen::trace::{generate, MixWeights, Skew, TraceSpec};
    use rtree_index::BulkLoader;

    fn data(n: usize) -> Vec<Rect> {
        (0..n)
            .map(|i| {
                let x = (i as f64 * 0.618_033) % 0.95;
                let y = (i as f64 * 0.414_213) % 0.95;
                Rect::new(x, y, x + 0.01, y + 0.01)
            })
            .collect()
    }

    #[test]
    fn effective_ops_math() {
        // No misses: pure CPU throughput.
        assert!((effective_ops(1_000.0, 0.0, 2_000.0) - 1e6).abs() < 1e-6);
        // One 2µs miss per op on a 1µs op: 3µs per op total.
        let v = effective_ops(1_000.0, 1.0, 2_000.0);
        assert!((v - 1e9 / 3_000.0).abs() < 1e-6);
        // More misses, lower throughput — monotone.
        assert!(effective_ops(1_000.0, 2.0, 2_000.0) < v);
    }

    #[test]
    fn replay_digests_are_deterministic_and_format_independent() {
        let rects = data(900);
        let tree = BulkLoader::hilbert(16).load(&rects);
        let trace = generate(
            &rects,
            &TraceSpec {
                ops: 400,
                qx: 0.04,
                qy: 0.04,
                skew: Skew::Zipf { theta: 1.0 },
                mix: MixWeights::read_only(),
                seed: 42,
            },
        );
        let lru = || PolicyKind::Lru.build(0);
        let mut v3 = PageFormat::V3.materialize(&tree, 12, lru());
        let mut v3_again = PageFormat::V3.materialize(&tree, 12, lru());
        let mut v4 = PageFormat::V4.materialize(&tree, 12, lru());
        let a = replay(&mut v3, &trace).expect("replay v3");
        let b = replay(&mut v3_again, &trace).expect("replay v3 again");
        let c = replay(&mut v4, &trace).expect("replay v4");
        // Same trace, same image → identical I/O and answers.
        assert_eq!(a.io, b.io);
        assert_eq!(a.digest, b.digest);
        // Different format, same answers — and no more demand reads.
        assert_eq!(a.digest, c.digest, "v4 must answer exactly like v3");
        assert!(c.io.demand_reads() <= a.io.demand_reads());
    }

    #[test]
    fn described_store_matches_v4_repack() {
        let rects = data(1_200);
        let tree = BulkLoader::hilbert(16).load(&rects);
        let lru = || PolicyKind::Lru.build(0);
        let v3 = PageFormat::V3.materialize(&tree, 8, lru());
        let v4 = PageFormat::V4.materialize(&tree, 8, lru());
        let (meta3, meta4) = (v3.meta().clone(), v4.meta().clone());
        let mut s3 = v3.into_store();
        let mut s4 = v4.into_store();
        let d3 = describe_store(&mut s3, &meta3).expect("describe v3");
        let d4 = describe_store(&mut s4, &meta4).expect("describe v4");
        // Same leaf level, fewer (or equal) pages above it.
        assert_eq!(
            d3.level(d3.height() - 1).len(),
            d4.level(d4.height() - 1).len()
        );
        assert!(d4.total_nodes() < d3.total_nodes());
        // The smaller footprint must show up in the model at a starved
        // frame budget.
        let w = Workload::uniform_region(0.04, 0.04);
        let model = |d| BufferModel::new(d, &w).expected_disk_accesses(8);
        assert!(model(&d4) < model(&d3));
    }
}
