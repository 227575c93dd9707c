//! Runs against the disk engine with user-chosen parameters: `update`,
//! `batch`, `concurrent`, `trace`, `chaos`. Each measures through the same
//! `rtree_bench::measure` functions as the registry experiment of the same
//! shape.

use super::read_data;
use super::scenario::{Defaults, Scenario};
use crate::args::{err, Args, CliError};
use rtree_bench::measure::{batch_curve, query_threads, warm_up, WalRun};
use rtree_bench::Table;
use rtree_geom::Rect;
use rtree_obs::{CountingSink, PromText, TraceSink};
use rtree_pager::{ConcurrentDiskRTree, MemStore};
use rtree_sim::QuerySampler;
use std::fmt::Write as _;
use std::sync::Arc;

/// The default query workload of the disk runs.
const REGION: &str = "region:0.05:0.05";

pub(super) fn batch(args: &Args) -> Result<String, CliError> {
    args.allow_flags(&[
        "loader", "cap", "buffer", "queries", "workload", "policy", "seed", "sizes", "json",
    ])?;
    let sc = Scenario::parse(
        args,
        Defaults {
            seed: 0xBA7C,
            queries: 1_024,
            workload: REGION,
        },
    )?;
    let sizes = args.flag_list("sizes", &[1, 4, 16, 64, 256, 1024])?;
    if sizes.contains(&0) {
        return Err(err("--sizes entries must be positive"));
    }
    let tree = sc.tree(&read_data(&args.positional)?);

    // One fixed query stream: every batch size answers the identical
    // queries against an equally cold tree, so the curve isolates batching.
    let mut sampler = QuerySampler::new(&sc.workload, sc.seed);
    let stream: Vec<Rect> = (0..sc.queries).map(|_| sampler.sample()).collect();

    let mut table = Table::new(
        format!(
            "batched execution: {} queries, {} policy, buffer {}",
            sc.queries, sc.policy_name, sc.buffer,
        ),
        &["batch", "reads/query", "hit ratio", "dedup saved"],
    );
    let curve = batch_curve(&tree, sc.buffer, || sc.new_policy(), &stream, &sizes)
        .map_err(|e| err(format!("batch: {e}")))?;
    for p in curve {
        table.row(vec![
            p.size.to_string(),
            format!("{:.4}", p.reads_per_query),
            format!("{:.4}", p.hit_ratio),
            format!("{:.4}", p.dedup_saved),
        ]);
    }
    if args.flag_bool("json") {
        return Ok(table.to_json());
    }
    Ok(table.render())
}

/// What `concurrent` and `trace` share: the scenario plus `--threads /
/// --shards / --pin`, and the sharded tree built from them (pinned, not
/// yet queried). The trace sink goes in before the tree is pinned or shared
/// across threads.
fn shared_tree(
    args: &Args,
    defaults: Defaults,
    default_threads: usize,
    default_shards: usize,
    sink: Option<Arc<dyn TraceSink>>,
) -> Result<(Scenario, usize, ConcurrentDiskRTree<MemStore>), CliError> {
    let sc = Scenario::parse(args, defaults)?;
    let threads: usize = args.flag_or("threads", default_threads)?;
    if threads == 0 {
        return Err(err("--threads must be positive"));
    }
    let shards: usize = args.flag_or("shards", default_shards)?;
    let pin: usize = args.flag_or("pin", 0usize)?;
    let tree = sc.tree(&read_data(&args.positional)?);
    let (policy, seed) = (sc.policy, sc.seed);
    let mut disk =
        ConcurrentDiskRTree::create_sharded(MemStore::new(), &tree, sc.buffer, shards, move || {
            policy.build(seed)
        })
        .map_err(|e| err(format!("creating tree: {e}")))?;
    disk.set_trace_sink(sink);
    if pin > 0 {
        disk.pin_top_levels(pin)
            .map_err(|e| err(format!("pinning: {e}")))?;
    }
    Ok((sc, threads, disk))
}

pub(super) fn concurrent(args: &Args) -> Result<String, CliError> {
    args.allow_flags(&[
        "loader", "cap", "buffer", "threads", "shards", "pin", "queries", "workload", "policy",
        "seed",
    ])?;
    let defaults = Defaults {
        seed: 0xC0C,
        queries: 100_000,
        workload: REGION,
    };
    // 0 shards = one per hardware thread.
    let (sc, threads, disk) = shared_tree(args, defaults, 4, 0, None)?;
    let query_err = |e| err(format!("query: {e}"));

    // Warm up single-threaded, then measure the threaded steady state.
    warm_up(
        &disk,
        &sc.workload,
        sc.seed ^ 0xAAAA,
        (sc.queries / 4).max(1),
    )
    .map_err(query_err)?;
    let per_thread = sc.queries.div_ceil(threads);
    let (elapsed, _) =
        query_threads(&disk, &sc.workload, threads, per_thread, sc.seed + 1).map_err(query_err)?;

    let total = (threads * per_thread) as f64;
    Ok(format!(
        "concurrent run: {} queries on {threads} threads ({} policy, buffer {}, {} shards):\n\
         throughput:           {:.0} queries/s\n\
         disk reads/query:     {:.4}\n\
         hit ratio:            {:.4}\n\
         root peek reads:      {}\n",
        threads * per_thread,
        sc.policy_name,
        sc.buffer,
        disk.shard_count(),
        total / elapsed.as_secs_f64(),
        disk.physical_reads() as f64 / total,
        disk.buffer_stats().hit_ratio(),
        disk.io_stats().peek_reads,
    ))
}

pub(super) fn trace(args: &Args) -> Result<String, CliError> {
    args.allow_flags(&[
        "loader", "cap", "buffer", "threads", "shards", "pin", "queries", "workload", "policy",
        "seed", "json", "prom",
    ])?;
    if args.flag_bool("json") && args.flag_bool("prom") {
        return Err(err("--json and --prom are mutually exclusive"));
    }
    let defaults = Defaults {
        seed: 0x7ACE,
        queries: 10_000,
        workload: REGION,
    };
    // One shard by default: the paper's sequential accounting, so the trace
    // reconciles against a single pool's counters.
    let sink = Arc::new(CountingSink::new());
    let traced = Some(Arc::clone(&sink) as Arc<dyn TraceSink>);
    let (sc, threads, disk) = shared_tree(args, defaults, 1, 1, traced)?;
    let queries = sc.queries;

    query_threads(
        &disk,
        &sc.workload,
        threads,
        queries.div_ceil(threads),
        sc.seed + 1,
    )
    .map_err(|e| err(format!("query: {e}")))?;

    let height = disk.meta().height as i16;
    let stats = disk.io_stats();
    let pool = disk.buffer_stats();
    let counts = sink.counts();
    let metrics = disk.query_metrics();
    // All worker threads have been joined, so the counters are final: the
    // event stream must reconcile exactly with the I/O and pool statistics.
    let reconciled = counts.misses == stats.reads
        && counts.peek_reads == stats.peek_reads
        && counts.write_backs == stats.writes
        && counts.accesses() == pool.accesses;

    // Report levels in the paper's orientation: root = level 0.
    let mut levels = sink.level_counts();
    levels.reverse();
    let paper_level = |onpage: i16| {
        if onpage < 0 {
            "-".to_string()
        } else {
            (height - 1 - onpage).to_string()
        }
    };

    if args.flag_bool("prom") {
        let mut prom = PromText::new();
        for (kind, count) in [
            ("hit", counts.hits),
            ("miss", counts.misses),
            ("peek_read", counts.peek_reads),
        ] {
            prom.counter(
                "rtree_trace_events_total",
                "Trace events by kind",
                &[("kind", kind)],
                count,
            );
        }
        for lc in &levels {
            let l = paper_level(lc.level);
            prom.counter(
                "rtree_trace_level_hits_total",
                "Pool hits per tree level (root = 0)",
                &[("level", &l)],
                lc.hits,
            );
            prom.counter(
                "rtree_trace_level_misses_total",
                "Physical reads per tree level (root = 0)",
                &[("level", &l)],
                lc.misses,
            );
        }
        prom.histogram(
            "rtree_query_latency_ns",
            "Wall-clock query latency (ns)",
            &[],
            &metrics.latency_ns,
        );
        prom.histogram(
            "rtree_query_reads",
            "Physical reads per query",
            &[],
            &metrics.reads_per_query,
        );
        prom.histogram(
            "rtree_query_pins",
            "Pages accessed per query",
            &[],
            &metrics.pins_per_query,
        );
        return Ok(prom.into_string());
    }

    let mut table = Table::new(
        format!(
            "per-level buffer trace: {queries} queries, {} policy, buffer {}, {} shards",
            sc.policy_name,
            sc.buffer,
            disk.shard_count(),
        ),
        &["level", "accesses", "hits", "misses", "hit ratio"],
    );
    for lc in &levels {
        table.row(vec![
            paper_level(lc.level),
            (lc.hits + lc.misses).to_string(),
            lc.hits.to_string(),
            lc.misses.to_string(),
            format!("{:.4}", lc.hit_ratio()),
        ]);
    }
    if args.flag_bool("json") {
        return Ok(table.to_json());
    }

    let lat = &metrics.latency_ns;
    let mut out = table.render();
    let _ = writeln!(
        out,
        "totals: {} accesses, {} hits, {} misses, {} root peek reads",
        counts.accesses(),
        counts.hits,
        counts.misses,
        counts.peek_reads,
    );
    let _ = writeln!(
        out,
        "latency/query: p50 {:.1} us, p99 {:.1} us (upper bucket bounds, {} samples)",
        lat.quantile(0.50) as f64 / 1_000.0,
        lat.quantile(0.99) as f64 / 1_000.0,
        lat.count(),
    );
    let _ = writeln!(
        out,
        "reconciled with IoStats/BufferStats: {}",
        if reconciled { "yes" } else { "NO" },
    );
    Ok(out)
}

pub(super) fn update(args: &Args) -> Result<String, CliError> {
    args.allow_flags(&["cap", "buffer", "policy", "deletes", "checkpoint", "seed"])?;
    let sc = Scenario::parse(args, Defaults::seed(0xD15C))?;
    let (cap, buffer) = (sc.cap, sc.buffer);
    let rects = read_data(&args.positional)?;
    let deletes: f64 = args.flag_or("deletes", 0.25f64)?;
    if !(0.0..=1.0).contains(&deletes) {
        return Err(err("--deletes must be a fraction in [0, 1]"));
    }
    let checkpoint: usize = args.flag_or("checkpoint", 1000usize)?;
    let min = (cap * 2 / 5).max(2);
    let io = |e: std::io::Error| err(format!("write path: {e}"));

    // Inserts, with periodic checkpoints (overlay written back, log
    // truncated).
    let mut run = WalRun::new(cap, min, buffer, sc.new_policy(), checkpoint)
        .map_err(|e| err(format!("creating tree: {e}")))?;
    for (id, r) in rects.iter().enumerate() {
        run.apply(|disk| disk.insert(*r, id as u64)).map_err(io)?;
    }
    let insert_stats = run.disk.io_stats();
    run.disk.reset_counters();

    // Deletes: a deterministic pseudo-random fraction of the inserted ids.
    let n = rects.len();
    let n_delete = (n as f64 * deletes) as usize;
    let mut deleted = 0usize;
    let mut x = sc.seed | 1;
    for _ in 0..n_delete {
        // xorshift64* is plenty for picking victims.
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        let id = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) % n as u64) as usize;
        if run
            .apply(|disk| disk.delete(&rects[id], id as u64))
            .map_err(io)?
        {
            deleted += 1;
        }
    }
    let delete_stats = run.disk.io_stats();
    run.disk.flush().map_err(io)?;
    let wal_bytes = run.wal_bytes();

    let per = |count: u64, ops: usize| {
        if ops == 0 {
            "-".to_string()
        } else {
            format!("{:.3}", count as f64 / ops as f64)
        }
    };
    let meta = run.disk.meta();
    Ok(format!(
        "write workload over {n} items (cap {cap}, buffer {buffer}, checkpoint every {checkpoint} ops):\n\
         inserts: {n}   physical writes/op: {}   reads/op: {}\n\
         deletes: {deleted} (of {n_delete} tried)   physical writes/op: {}   reads/op: {}\n\
         final tree: {} items, {} nodes, height {}\n\
         WAL traffic: {:.1} KiB total ({:.2} KiB/op)\n",
        per(insert_stats.writes, n),
        per(insert_stats.reads, n),
        per(delete_stats.writes, n_delete),
        per(delete_stats.reads, n_delete),
        meta.items,
        meta.nodes,
        meta.height,
        wal_bytes as f64 / 1024.0,
        wal_bytes as f64 / 1024.0 / (n + n_delete) as f64,
    ))
}

/// Parses `A..B` (half-open) into the seed range.
fn parse_seed_range(spec: &str) -> Result<std::ops::Range<u64>, CliError> {
    let (lo, hi) = spec
        .split_once("..")
        .ok_or_else(|| err(format!("--seeds {spec:?}: expected A..B")))?;
    let lo: u64 = lo
        .parse()
        .map_err(|e| err(format!("--seeds start {lo:?}: {e}")))?;
    let hi: u64 = hi
        .parse()
        .map_err(|e| err(format!("--seeds end {hi:?}: {e}")))?;
    if lo >= hi {
        return Err(err(format!("--seeds {spec:?}: empty range")));
    }
    Ok(lo..hi)
}

pub(super) fn chaos(args: &Args) -> Result<String, CliError> {
    args.allow_flags(&["seed", "seeds", "ops", "plant"])?;
    let ops: usize = args.flag_or("ops", 400usize)?;
    if ops == 0 {
        return Err(err("--ops must be at least 1"));
    }
    let plant = args.flag_bool("plant");
    let seeds = match (args.flag("seeds"), args.flag("seed")) {
        (Some(_), Some(_)) => return Err(err("--seed and --seeds are mutually exclusive")),
        (Some(range), None) => parse_seed_range(range)?,
        (None, _) => {
            let seed = args.flag_or("seed", 0u64)?;
            seed..seed + 1
        }
    };
    let runs = seeds.end - seeds.start;

    let mut out = String::new();
    let mut failed = 0usize;
    for seed in seeds {
        let report = if plant {
            rtree_chaos::run_planted(seed, ops)
        } else {
            rtree_chaos::run(seed, ops)
        };
        let checkpoint = report
            .checkpoint_crash
            .map(|f| format!(" + checkpoint {f}"));
        let _ = writeln!(
            out,
            "seed {seed}: fault {}{}, {}/{} ops committed, {} items, {} queries checked — {}",
            report.fault,
            checkpoint.unwrap_or_default(),
            report.ops_executed,
            report.ops_requested,
            report.committed_items,
            report.queries_checked,
            if report.passed() { "ok" } else { "FAIL" },
        );
        if !report.passed() {
            failed += 1;
            for f in &report.failures {
                let _ = writeln!(out, "  [{}] {}", f.oracle, f.detail);
            }
            // The minimal reproducing prefix and the exact replay command.
            if let Some(k) = rtree_chaos::shrink(seed, ops, plant) {
                let _ = writeln!(
                    out,
                    "  shrunk to {k} ops — replay: rtrees chaos --seed {seed} --ops {k}{}",
                    if plant { " --plant" } else { "" },
                );
            }
        }
    }
    if failed > 0 {
        Err(CliError(format!(
            "{failed} of {runs} chaos run(s) failed an oracle\n{out}"
        )))
    } else {
        Ok(out)
    }
}
