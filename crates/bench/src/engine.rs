//! Engine experiments: the durable write path, concurrency, batching, the
//! server, SIMD traversal and the adaptive controller. Page counts,
//! hit ratios and gate verdicts are deterministic; throughput and latency
//! columns are wall-clock.

use crate::measure::{batch_curve, query_threads, warm_up, WalRun};
use crate::{f, say, synthetic_point, synthetic_region, Loader, Opts, Table};
use rtree_buffer::LruPolicy;
use rtree_core::{BufferModel, TreeDescription, Workload};
use rtree_datagen::ClusteredPoints;
use rtree_geom::{active_kernel, available_kernels, set_kernel, Rect};
use rtree_index::RTree;
use rtree_pager::{ConcurrentDiskRTree, DiskRTree, MemStore};
use rtree_server::{
    loadgen, serve, BatchPolicy, LoadConfig, SequentialEngine, ServerConfig, WriterEngine,
};
use rtree_sim::QuerySampler;
use rtree_tune::{actuate, Controller, ControllerConfig, Setting};
use rtree_wal::{GroupWal, LogBackend, MemLog};
use std::io;
use std::time::{Duration, Instant};

/// **Extension** — write amplification of the durable write path.
///
/// The paper prices *reads* under a buffer; this experiment prices
/// *writes*. Every insert runs Guttman's algorithm through the one writer,
/// and the shared `IoStats` counts the physical page writes that actually
/// reach the store. The writer is no-steal: a dirty page stays in the
/// overlay, absorbing every rewrite, until the periodic checkpoint writes
/// it once. So physical writes per insert — the write amplification, in
/// 4 KiB pages — is set by the checkpoint interval (how many distinct pages
/// an interval dirties), not by the frame count; the frames cut only the
/// reads of the pages an insert descends through. The WAL column counts
/// every byte logged: one op record per insert plus the checkpoints' page
/// images.
pub(crate) fn write_amplification(opts: &Opts, out: &mut String) -> Result<(), String> {
    // Checkpoint interval in operations: bounds the log and models a
    // steady write-back cadence.
    const CHECKPOINT_EVERY: usize = 2_000;
    let n = if opts.quick { 4_000 } else { 20_000 };
    let rects = synthetic_region(n);
    let cap = 50;
    let min = cap * 2 / 5;

    let mut table = Table::new(
        format!(
            "Write amplification: physical page writes per insert \
             (synthetic region {n}, cap {cap}, checkpoint every {CHECKPOINT_EVERY} ops, LRU)"
        ),
        &[
            "buffer",
            "writes/insert",
            "reads/insert",
            "WAL KiB/insert",
            "nodes",
            "p50 us",
            "p99 us",
        ],
    );

    for buffer in [10, 50, 100, 200, 400] {
        let mut run = WalRun::new(
            cap,
            min,
            buffer,
            Box::new(LruPolicy::new()),
            CHECKPOINT_EVERY,
        )
        .expect("create");
        for (id, r) in rects.iter().enumerate() {
            run.apply(|disk| disk.insert(*r, id as u64))
                .expect("insert");
        }
        let stats = run.disk.io_stats();

        table.row(vec![
            buffer.to_string(),
            f(stats.writes as f64 / n as f64),
            f(stats.reads as f64 / n as f64),
            f(run.wal_bytes() as f64 / 1024.0 / n as f64),
            run.disk.meta().nodes.to_string(),
            format!("{:.1}", run.latency.quantile(0.50) as f64 / 1_000.0),
            format!("{:.1}", run.latency.quantile(0.99) as f64 / 1_000.0),
        ]);
    }

    table.emit("write_amplification", opts, out)?;
    say!(
        out,
        "No-steal: a dirty page absorbs every insert into it until the checkpoint writes\n\
         it once, so writes/insert follows the checkpoint interval, not the frame count;\n\
         more frames cut only the reads."
    );
    Ok(())
}

/// **Extension** — the batched-execution hit-ratio curve.
///
/// The paper's experiments cost queries one at a time; inter-query buffer
/// locality is whatever the replacement policy happens to retain. The
/// batched executor makes that locality deliberate: one batch traverses
/// level-synchronously, deduplicates page requests across its queries and
/// visits each level in `PageId` order. This experiment sweeps the batch size
/// 1 → 1024 over a clustered workload — the same fixed query stream against
/// an equally cold tree at every size — so the physical-reads-per-query
/// curve isolates what batching alone buys. Expect a monotone drop: at
/// batch 1 the executor degenerates to sequential traversal; by batch 256 a
/// page shared by k queries costs one read instead of up to k.
pub(crate) fn batch_throughput(opts: &Opts, out: &mut String) -> Result<(), String> {
    let cap = 50;
    let (n_rects, n_queries) = if opts.quick {
        (5_000, 512)
    } else {
        (50_000, 4_096)
    };
    let rects = ClusteredPoints::new(n_rects, 32, 0.02).generate(0xBA7C);
    let tree = Loader::Hs.build(cap, &rects);
    let nodes = tree.node_count();
    let buffer = (nodes / 50).max(16); // starved: the curve, not the cache

    // One fixed clustered query stream reused at every batch size.
    let workload = Workload::uniform_region(0.04, 0.04);
    let mut sampler = QuerySampler::new(&workload, 0x5EED);
    let stream: Vec<Rect> = (0..n_queries).map(|_| sampler.sample()).collect();

    let mut table = Table::new(
        format!(
            "Batched execution: {n_queries} region queries over clustered {n_rects} \
             (HS cap {cap}, {nodes} nodes, buffer {buffer}, cold per size)"
        ),
        &[
            "batch",
            "reads/query",
            "hit ratio",
            "dedup saved",
            "queries/s",
        ],
    );

    let curve = batch_curve(
        &tree,
        buffer,
        || Box::new(LruPolicy::new()),
        &stream,
        &[1, 4, 16, 64, 256, 1024],
    )
    .expect("batch");
    for p in curve {
        table.row(vec![
            p.size.to_string(),
            f(p.reads_per_query),
            f(p.hit_ratio),
            f(p.dedup_saved),
            format!("{:.0}", p.queries_per_s),
        ]);
    }
    table.emit("batch_throughput", opts, out)?;
    say!(
        out,
        "Every row answers the identical query stream from a cold tree; only the batch \
         size changes. reads/query falling with batch size is dedup + the shared \
         frontier turning inter-query locality into single fetches."
    );
    Ok(())
}

/// **Extension** — multi-client scaling of the shared buffer pool.
///
/// The paper's setting is a database buffer shared by concurrent clients.
/// This experiment drives the `ConcurrentDiskRTree` with 1–8 threads of
/// uniform region queries in three configurations:
///
/// - **single-shard**: one latch shard replays the paper's sequential LRU
///   decisions, so disk reads per query must stay at the model's
///   prediction whatever the client count — residency depends on the
///   reference stream, not on who issues it;
/// - **buffer-resident**: capacity holds the whole tree, so after warm-up
///   every access is a hit and the experiment isolates latch contention;
/// - **buffer-starved**: a small pool keeps the miss path (store read +
///   frame replacement) on the critical path.
///
/// The last two auto-size their shards (one per hardware thread, power of
/// two), so threads stop serializing on one latch. The speedup column is
/// relative to the 1-thread run of the same configuration; on a
/// multi-core box the buffer-resident speedup at 8 threads should approach
/// the core count.
pub(crate) fn concurrent_throughput(opts: &Opts, out: &mut String) -> Result<(), String> {
    let cap = 50;
    let rects = synthetic_region(50_000);
    let tree = Loader::Hs.build(cap, &rects);
    let desc = TreeDescription::from_tree(&tree);
    let workload = Workload::uniform_region(0.05, 0.05);
    let model = BufferModel::new(&desc, &workload);
    let nodes = tree.node_count();
    let queries_per_thread = if opts.quick { 2_000 } else { 25_000 };
    let warmup = if opts.quick { 2_000 } else { 20_000 };

    // (label, buffer, shards): 0 shards = one per hardware thread.
    let configs = [
        ("single-shard", 200, 1),
        ("buffer-resident", nodes + 1, 0),
        ("buffer-starved", (nodes / 50).max(16), 0),
    ];

    let mut table = Table::new(
        format!(
            "Shared pool throughput: {queries_per_thread} region queries/thread \
             (synthetic region 50k, HS cap 50, {nodes} nodes)"
        ),
        &[
            "config",
            "buffer",
            "threads",
            "shards",
            "queries/s",
            "speedup",
            "disk reads/query",
            "model",
            "hit ratio",
            "p50 us",
            "p99 us",
        ],
    );

    for (label, buffer, shards) in configs {
        let mut baseline_qps = 0.0;
        for threads in [1usize, 2, 4, 8] {
            let disk = ConcurrentDiskRTree::create_sharded(
                MemStore::new(),
                &tree,
                buffer,
                shards,
                LruPolicy::new,
            )
            .expect("create");
            warm_up(&disk, &workload, 0xACED, warmup).expect("warmup query");
            let (elapsed, latency) =
                query_threads(&disk, &workload, threads, queries_per_thread, 0xBEEF)
                    .expect("query");
            let total_queries = (threads * queries_per_thread) as f64;
            let qps = total_queries / elapsed.as_secs_f64();
            if threads == 1 {
                baseline_qps = qps;
            }
            table.row(vec![
                label.to_string(),
                buffer.to_string(),
                threads.to_string(),
                disk.shard_count().to_string(),
                format!("{qps:.0}"),
                format!("{:.2}", qps / baseline_qps),
                f(disk.physical_reads() as f64 / total_queries),
                f(model.expected_disk_accesses(buffer)),
                f(disk.buffer_stats().hit_ratio()),
                format!("{:.1}", latency.quantile(0.50) as f64 / 1_000.0),
                format!("{:.1}", latency.quantile(0.99) as f64 / 1_000.0),
            ]);
        }
    }
    table.emit("concurrent_throughput", opts, out)?;
    say!(
        out,
        "Single-shard disk reads/query should be flat across thread counts and near the \
         model. Buffer-resident isolates latch contention (all hits); buffer-starved keeps \
         the miss path hot. Speedup is vs the 1-thread run of the same config."
    );
    Ok(())
}

/// **Extension** — the SIMD-traversal speedup gate.
///
/// The paper holds CPU cost constant and varies buffering; this experiment
/// does the inverse. A buffer large enough to hold the whole tree removes
/// every disk access, so what remains of query latency is pure traversal
/// CPU: page decode plus rectangle filtering. The seed path gathers each
/// page into `(rect, pointer)` entries and tests one `Rect` at a time
/// ([`rtree_pager::ConcurrentDiskRTree::query_scalar`]); the SIMD path
/// decodes the same v3 pages plane by plane — the four coordinate planes
/// arrive contiguously, no per-entry gather — and filters with the
/// dispatched SIMD kernel ([`rtree_pager::ConcurrentDiskRTree::query`]).
/// Both answer the identical clustered query stream from a fully warmed
/// buffer over the same image; the speedup
/// column is the whole claim.
///
/// The run **fails** if the dispatched kernel's speedup over the seed path
/// is below 2.0× — relaxed to 1.2× under `--quick`, which shared CI runners
/// can hold. Additional rows pin each available kernel in turn so
/// regressions are attributable.
pub(crate) fn simd_traversal(opts: &Opts, out: &mut String) -> Result<(), String> {
    let cap = 50;
    let (n_rects, n_queries, repeats, gate) = if opts.quick {
        (8_000, 512, 2, 1.2)
    } else {
        (60_000, 4_096, 3, 2.0)
    };
    let rects = ClusteredPoints::new(n_rects, 32, 0.02).generate(0x51D7);
    let tree = Loader::Hs.build(cap, &rects);
    let nodes = tree.node_count();
    // Buffer-resident: every page fits, so after one warm pass no query
    // performs physical I/O and the timing isolates traversal CPU.
    let buffer = nodes + 8;

    let workload = Workload::uniform_region(0.04, 0.04);
    let mut sampler = QuerySampler::new(&workload, 0x5EED);
    let stream: Vec<Rect> = (0..n_queries).map(|_| sampler.sample()).collect();

    let create = || DiskRTree::create(MemStore::new(), &tree, buffer, LruPolicy::new());
    let seed = create().expect("create seed-path tree");
    let v3 = create().expect("create SIMD-path tree");

    // Warm both buffers and cross-check answers and I/O while doing it.
    let mut hits = 0u64;
    for q in &stream {
        let a = seed.query_scalar(q).expect("seed query");
        let b = v3.query(q).expect("simd query");
        assert_eq!(a, b, "seed and SIMD paths disagree on {q:?}");
        hits += a.len() as u64;
    }
    assert_eq!(seed.io_stats(), v3.io_stats(), "same image, same walk");
    let warm_reads = seed.physical_reads() + v3.physical_reads();

    let time = |run: &mut dyn FnMut()| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..repeats {
            let started = Instant::now();
            run();
            best = best.min(started.elapsed().as_secs_f64());
        }
        best
    };

    let scalar_secs = time(&mut || {
        for q in &stream {
            std::hint::black_box(seed.query_scalar(q).expect("seed query"));
        }
    });
    assert_eq!(
        seed.physical_reads() + v3.physical_reads(),
        warm_reads,
        "timed passes must be buffer-resident"
    );

    let dispatched = active_kernel();
    let mut table = Table::new(
        format!(
            "SIMD traversal: {n_queries} region queries over clustered {n_rects} \
             (HS cap {cap}, {nodes} nodes buffer-resident, {hits} total hits, \
             best of {repeats})"
        ),
        &["path", "kernel", "queries/s", "speedup", "gate"],
    );
    table.row(vec![
        "v3 SoA, scalar entry-at-a-time".into(),
        "scalar".into(),
        format!("{:.0}", n_queries as f64 / scalar_secs),
        f(1.0),
        "-".into(),
    ]);

    let mut dispatched_speedup = 0.0;
    for kernel in available_kernels() {
        if !kernel.is_available() {
            continue;
        }
        set_kernel(kernel).expect("kernel availability was just checked");
        let secs = time(&mut || {
            for q in &stream {
                std::hint::black_box(v3.query(q).expect("simd query"));
            }
        });
        let speedup = scalar_secs / secs;
        let gated = kernel == dispatched;
        if gated {
            dispatched_speedup = speedup;
        }
        table.row(vec![
            "v3 SoA".into(),
            if gated {
                format!("{} *", kernel.name())
            } else {
                kernel.name().into()
            },
            format!("{:.0}", n_queries as f64 / secs),
            f(speedup),
            if gated {
                format!(">= {gate}")
            } else {
                "-".into()
            },
        ]);
    }
    set_kernel(dispatched).expect("restoring the dispatched kernel");

    table.emit("simd_traversal", opts, out)?;
    say!(
        out,
        "Both paths answer the identical stream from a fully resident buffer; \
         the speedup is reading the planes in place (no CRC pass, no decode, \
         no gather) plus the dispatched filter kernel (*). KernelKind::{dispatched:?} was auto-selected for this host."
    );
    if dispatched_speedup < gate {
        return Err(format!(
            "GATE FAILED: dispatched kernel speedup {dispatched_speedup:.2}x \
             is below the required {gate}x"
        ));
    }
    say!(out, "gate passed: {dispatched_speedup:.2}x >= {gate}x");
    Ok(())
}

/// **Adaptive buffering** — does closing the loop on the paper's model pay?
///
/// One query stream, one frame budget, a mid-run workload shift:
///
/// * **Phase 1** — uniform region queries over the whole space. Each query
///   drags a fresh set of leaves through the pool, so plain LRU keeps
///   evicting the internal levels between their re-touches; pinning the
///   top levels is the paper's fix (fig. 11's window).
/// * **Phase 2** — clustered point queries confined to one hot patch.
///   Now the hot leaves *are* the working set and they fit in the budget;
///   frames wasted on pinned internals crowd them out, so pinning hurts.
///
/// No single static configuration wins both phases. The static rows hold
/// one pin depth for the whole run; the adaptive row runs the
/// `rtree-tune` controller (estimate → refit → actuate every `TICK`
/// queries) against the identical stream. The gate — exercised by CI via
/// `--quick --json` — is that the adaptive run finishes with strictly
/// fewer demand reads per query than every static row, actuation costs
/// included. Fails when it does not.
pub(crate) fn adaptive_buffer(opts: &Opts, out: &mut String) -> Result<(), String> {
    /// Frame budget every configuration gets: big enough to pin the
    /// internal levels with room to spare, small enough that LRU alone
    /// cannot hold them under the phase-1 leaf churn.
    const BUDGET: usize = 60;
    /// Controller cadence in queries.
    const TICK: usize = 50;

    /// The shared query stream: phase 1 is uniform 0.1-side region
    /// queries, phase 2 point queries inside one hot patch covering ~5% of
    /// the space. Both phases are low-discrepancy (golden-ratio) walks, so
    /// runs are deterministic and every configuration sees the identical
    /// stream.
    fn query(i: usize, per_phase: usize) -> Rect {
        let t = i as f64;
        if i < per_phase {
            let cx = (t * 0.618_033_988_749) % 0.9;
            let cy = (t * 0.414_213_562_373) % 0.9;
            Rect::new(cx, cy, cx + 0.1, cy + 0.1)
        } else {
            // Patch sized so its ~50 hot leaves fit the full budget but
            // not the budget minus the pinned internal levels — the regime
            // where holding on to phase 1's pinning costs real misses.
            let cx = 0.36 + (t * 0.618_033_988_749) % 0.28;
            let cy = 0.36 + (t * 0.414_213_562_373) % 0.28;
            Rect::new(cx, cy, cx, cy)
        }
    }

    /// Physical reads after the phase-1 and full streams for one static pin
    /// depth, pinning reads included (the cold start is part of the cost).
    fn run_static(tree: &RTree, stream: &[Rect], per_phase: usize, pin: usize) -> (u64, u64) {
        let disk = DiskRTree::create(MemStore::new(), tree, BUDGET, LruPolicy::new())
            .expect("create disk tree");
        if pin > 0 {
            disk.pin_top_levels(pin).expect("pin top levels");
        }
        let mut phase1 = 0;
        for (i, q) in stream.iter().enumerate() {
            disk.query(q).expect("query");
            if i + 1 == per_phase {
                phase1 = disk.io_stats().reads;
            }
        }
        (phase1, disk.io_stats().reads)
    }

    /// The adaptive run: same tree, same stream, the controller observing
    /// every query and actuating (unpin → resize → re-pin) on its tick.
    fn run_adaptive(
        tree: &RTree,
        desc: &TreeDescription,
        stream: &[Rect],
        per_phase: usize,
    ) -> (u64, u64, Controller) {
        let disk = DiskRTree::create(MemStore::new(), tree, BUDGET, LruPolicy::new())
            .expect("create disk tree");
        let cfg = ControllerConfig {
            min_samples: 48,
            min_interval: 2,
            // The gate compares miss totals, so the controller must not
            // trade misses for frames: keep the full budget, move only the
            // pinning.
            knee_tolerance: 0.0,
            ..ControllerConfig::new(BUDGET)
        };
        let controller = Controller::new(
            desc.clone(),
            Setting {
                buffer: BUDGET,
                pin_levels: 0,
            },
            cfg,
        );
        let mut phase1 = 0;
        for (i, q) in stream.iter().enumerate() {
            controller.observe_query(q);
            disk.query(q).expect("query");
            if (i + 1) % TICK == 0 {
                controller
                    .tick_with(|s| actuate(&disk, s))
                    .expect("actuate");
            }
            if i + 1 == per_phase {
                phase1 = disk.io_stats().reads;
            }
        }
        (phase1, disk.io_stats().reads, controller)
    }

    // The tree shape (and with it the pinning window) stays fixed;
    // --quick only shortens the phases.
    let items = 12_000;
    let per_phase = if opts.quick { 3_000 } else { 10_000 };
    let rects = synthetic_point(items);
    let tree = Loader::Hs.build(25, &rects);
    let desc = TreeDescription::from_tree(&tree);
    let stream: Vec<Rect> = (0..2 * per_phase).map(|i| query(i, per_phase)).collect();

    say!(
        out,
        "synthetic point {items}, HS cap 25, pages per level {:?}, budget {BUDGET} frames\n",
        desc.nodes_per_level()
    );

    // Every pin depth whose pages leave at least one replaceable frame.
    let max_pin = (0..=desc.height())
        .take_while(|&p| desc.pages_in_top_levels(p) < BUDGET)
        .last()
        .unwrap_or(0);

    let mut table = Table::new(
        format!(
            "adaptive buffering vs every static pin depth \
             ({} uniform-region then {} hot-patch queries, B={BUDGET})",
            per_phase, per_phase
        ),
        &[
            "config",
            "phase1 reads/q",
            "phase2 reads/q",
            "total reads/q",
        ],
    );
    let per_q = |n: u64| n as f64 / per_phase as f64;
    let mut static_totals: Vec<(usize, u64)> = Vec::new();
    for pin in 0..=max_pin {
        let (p1, total) = run_static(&tree, &stream, per_phase, pin);
        table.row(vec![
            format!("static pin {pin}"),
            f(per_q(p1)),
            f(per_q(total - p1)),
            f(total as f64 / stream.len() as f64),
        ]);
        static_totals.push((pin, total));
    }
    let (p1, total, controller) = run_adaptive(&tree, &desc, &stream, per_phase);
    table.row(vec![
        "adaptive".to_string(),
        f(per_q(p1)),
        f(per_q(total - p1)),
        f(total as f64 / stream.len() as f64),
    ]);
    table.emit("adaptive_buffer", opts, out)?;

    say!(
        out,
        "\ncontroller: {} ticks, {} decisions",
        controller.ticks(),
        controller.decisions().len()
    );
    for d in controller.decisions() {
        say!(out, "  {d}");
    }

    let losers: Vec<String> = static_totals
        .iter()
        .filter(|&&(_, s)| total >= s)
        .map(|&(pin, s)| format!("pin {pin} ({} <= {} adaptive)", s, total))
        .collect();
    if !losers.is_empty() {
        return Err(format!(
            "FAIL: adaptive did not strictly beat static {}",
            losers.join(", ")
        ));
    }
    say!(
        out,
        "\nPASS: adaptive beat every static configuration ({} demand reads vs best static {})",
        total,
        static_totals.iter().map(|&(_, s)| s).min().unwrap(),
    );
    Ok(())
}

/// An in-memory log whose durability barrier takes `delay` of wall time:
/// the cost model of a real fsync (hundreds of microseconds) without disk
/// noise, so the fsync-amortization ratio is the signal being measured.
struct SlowLog {
    inner: MemLog,
    delay: Duration,
}

impl LogBackend for SlowLog {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.inner.append(bytes)
    }

    fn sync(&mut self) -> io::Result<()> {
        std::thread::sleep(self.delay);
        self.inner.sync()
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

/// **Extension** — what micro-batching buys a network query server.
///
/// `batch_throughput` shows the batched executor turning inter-query page
/// locality into single fetches when a client hands it whole batches. A
/// network server does not get whole batches — it gets concurrent clients.
/// This experiment measures whether the micro-batching scheduler can
/// harvest that concurrency: the same closed-loop client fleet drives a
/// cold clustered tree (50 000 items, 20 frames) behind the framed-TCP
/// server at several batch windows, and physical reads per query and the
/// latency quantiles land in the same table.
///
/// Window 1 is the baseline: every query is its own batch, the server
/// degenerates to one-at-a-time serving. Wider windows let the scheduler
/// close batches on the count-or-deadline rule, so queries that arrived
/// together traverse together and share page fetches. With 16 connections
/// a window ≥ 64 closes batches of ≈ 15.6 queries and reads fall ≈ 9 %
/// (5.44 → 4.93 at full scale, 5.32 → 4.83 at `--quick`); batches of 8 save
/// nothing. The latency columns price up to one batch deadline of wait.
///
/// The run fails if a window ≥ 64 does not beat window 1 on physical
/// reads/query: that inversion would mean the scheduler shreds locality
/// instead of harvesting it.
///
/// The second table prices the *write* side of the same harvesting
/// argument: 8 closed-loop writer connections drive inserts through the
/// latch-crabbing tree against a WAL whose sync costs a realistic
/// ~200 µs (an in-memory log with a sleeping barrier — the fsync cost
/// without the filesystem noise). With group commit the concurrent
/// writers' commits coalesce behind one leader's sync; with per-op
/// commit every insert pays its own. The run fails unless group commit
/// cuts fsyncs/insert by at least 4x — the acceptance bar for the write
/// path.
pub(crate) fn server_throughput(opts: &Opts, out: &mut String) -> Result<(), String> {
    let cap = 50;
    let (n_rects, n_queries, windows): (usize, usize, &[usize]) = if opts.quick {
        (50_000, 2_000, &[1, 64])
    } else {
        (50_000, 20_000, &[1, 8, 64, 256])
    };
    let connections = 16; // ≥ 8 concurrent clients: the batching fuel
    let rects = ClusteredPoints::new(n_rects, 32, 0.02).generate(0xBA7C);
    let tree = Loader::Hs.build(cap, &rects);
    let nodes = tree.node_count();
    let buffer = (nodes / 50).max(16); // starved: the curve, not the cache
    let server_config = |max_batch: usize| ServerConfig {
        batch: BatchPolicy {
            max_batch,
            max_wait: Duration::from_micros(700),
            ..BatchPolicy::default()
        },
        read_timeout: Duration::from_millis(20),
    };
    // A closed-loop fleet; same seed every run, so each row of a table
    // answers (or commits) the identical stream.
    let closed_loop = |connections, queries, side: f64, write_fraction| LoadConfig {
        connections,
        queries,
        target_qps: 0.0,
        workload: Workload::uniform_region(side, side),
        count_fraction: 0.0,
        write_fraction,
        seed: 0x5EED,
        shutdown_after: false,
    };

    let mut table = Table::new(
        format!(
            "Server micro-batching: {n_queries} region queries from {connections} \
             closed-loop connections over clustered {n_rects} (HS cap {cap}, {nodes} \
             nodes, buffer {buffer}, cold per window)"
        ),
        &[
            "window",
            "mean batch",
            "queries/s",
            "reads/query",
            "p50 ms",
            "p99 ms",
            "p999 ms",
        ],
    );

    let mut reads = Vec::new();
    for &window in windows {
        // A fresh tree per window: every row starts cold, so the only
        // difference between rows is how the scheduler groups arrivals.
        let disk = DiskRTree::create(MemStore::new(), &tree, buffer, LruPolicy::new())
            .expect("create tree");
        let handle = serve(
            SequentialEngine::new(disk, 0),
            "127.0.0.1:0",
            server_config(window),
        )
        .expect("bind ephemeral port");

        let report = loadgen::run(
            handle.addr(),
            &closed_loop(connections, n_queries, 0.04, 0.0),
        )
        .expect("load run");
        let stats = handle.shutdown();
        assert_eq!(report.ok as usize, n_queries, "closed loop completes all");

        reads.push(report.reads_per_query());
        table.row(vec![
            window.to_string(),
            format!("{:.1}", stats.queries as f64 / stats.batches.max(1) as f64),
            format!("{:.0}", report.achieved_qps()),
            f(report.reads_per_query()),
            format!("{:.3}", report.latency_ms(0.50)),
            format!("{:.3}", report.latency_ms(0.99)),
            format!("{:.3}", report.latency_ms(0.999)),
        ]);
    }
    table.emit("server_throughput", opts, out)?;
    say!(
        out,
        "Every row answers the identical query stream from a cold tree; only the batch \
         window changes. reads/query falls (about 9 %, 5.44 -> 4.93 at full scale) only \
         once batches grow past 8 queries: the scheduler harvests client concurrency into \
         executor batches, and the latency columns price the wait."
    );

    // The acceptance gate: a window ≥ 64 must strictly beat one-at-a-time
    // serving on physical reads per query.
    let baseline = reads[0];
    for (&window, &r) in windows.iter().zip(&reads).skip(1) {
        if window >= 64 && r >= baseline {
            return Err(format!(
                "FAIL: window {window} reads/query {r:.4} not below window 1 baseline \
                 {baseline:.4}"
            ));
        }
    }

    // ---- Write side: group commit vs per-op commit under 8 writers ----
    let writer_connections = 8;
    let n_writes = if opts.quick { 800 } else { 4_000 };
    let fsync_delay = Duration::from_micros(200);

    let mut wtable = Table::new(
        format!(
            "WAL group commit: {n_writes} inserts from {writer_connections} closed-loop \
             writer connections into an empty crabbing tree (cap {cap}, ~200 µs per WAL \
             sync, write window 64)"
        ),
        &[
            "commit",
            "inserts/s",
            "fsyncs/insert",
            "mean commit batch",
            "write p50 ms",
            "write p99 ms",
        ],
    );

    // Row 0 is per-op commit (every insert syncs alone), row 1 group commit.
    let mut fsyncs_per_insert = Vec::new();
    for group in [false, true] {
        let wal = GroupWal::open(SlowLog {
            inner: MemLog::new(),
            delay: fsync_delay,
        })
        .expect("open wal");
        if group {
            // Hold each batch open briefly so a whole burst of writers
            // lands under one fsync (the commit_delay knob).
            wal.set_commit_delay(Duration::from_micros(150));
        }
        let disk = ConcurrentDiskRTree::create_writable(
            MemStore::new(),
            cap,
            cap / 4,
            buffer,
            LruPolicy::new(),
            wal,
        )
        .expect("create writable tree");
        let handle = serve(
            WriterEngine::new(disk, 2, writer_connections, group),
            "127.0.0.1:0",
            server_config(64),
        )
        .expect("bind ephemeral port");

        let report = loadgen::run(
            handle.addr(),
            &closed_loop(writer_connections, n_writes, 0.01, 1.0),
        )
        .expect("write load run");
        let stats = handle.shutdown();
        assert_eq!(report.writes_ok as usize, n_writes, "all inserts commit");
        assert_eq!(stats.writes as usize, n_writes, "server saw every insert");

        fsyncs_per_insert.push(report.fsyncs_per_write());
        wtable.row(vec![
            if group { "group" } else { "per-op" }.to_string(),
            format!(
                "{:.0}",
                report.writes_ok as f64 / report.elapsed.as_secs_f64()
            ),
            f(report.fsyncs_per_write()),
            format!(
                "{:.1}",
                stats.writes as f64 / stats.commit_batches.max(1) as f64
            ),
            format!("{:.3}", report.write_latency_ms(0.50)),
            format!("{:.3}", report.write_latency_ms(0.99)),
        ]);
    }
    wtable.emit("server_group_commit", opts, out)?;
    say!(
        out,
        "Both rows commit the identical insert stream durably; only the commit protocol \
         changes. Per-op commit pays one WAL sync per insert, group commit lets the \
         concurrent writers ride one leader's sync — fsyncs/insert is the amortization."
    );

    // The write-side acceptance gate: group commit must amortize syncs at
    // least 4x better than per-op commit under 8 concurrent writers.
    let (per_op, grouped) = (fsyncs_per_insert[0], fsyncs_per_insert[1]);
    if grouped * 4.0 > per_op {
        return Err(format!(
            "FAIL: group commit fsyncs/insert {grouped:.4} is not >=4x below per-op \
             {per_op:.4}"
        ));
    }
    Ok(())
}
