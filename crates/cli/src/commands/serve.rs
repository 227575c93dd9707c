//! The network surface: `serve` (the framed-TCP server, optionally
//! self-tuning) and `loadgen` (the open/closed-loop load generator).

use super::scenario::{Defaults, Scenario};
use super::{parse_workload, read_data};
use crate::args::{err, Args, CliError};
use rtree_bench::Table;
use rtree_core::{TreeDescription, Workload};
use rtree_geom::Rect;
use std::fmt::Write as _;

/// Shared flag parsing for `serve`: the batch policy and server knobs.
fn parse_server_config(args: &Args) -> Result<rtree_server::ServerConfig, CliError> {
    use std::time::Duration;
    let batch: usize = args.flag_or("batch", 64usize)?;
    if batch == 0 {
        return Err(err("--batch must be at least 1"));
    }
    let wait_us: u64 = args.flag_or("wait-us", 500u64)?;
    let queue: usize = args.flag_or("queue", 4096usize)?;
    if queue == 0 {
        return Err(err("--queue must be at least 1"));
    }
    let workers: usize = args.flag_or("workers", 2usize)?;
    if workers == 0 {
        return Err(err("--workers must be at least 1"));
    }
    Ok(rtree_server::ServerConfig {
        batch: rtree_server::BatchPolicy {
            max_batch: batch,
            max_wait: Duration::from_micros(wait_us),
            queue_depth: queue,
            workers,
        },
        read_timeout: Duration::from_millis(50),
    })
}

/// Runs a bound server to completion: publishes the address, waits for a
/// `Shutdown` frame (or the `--duration` timer), drains, and reconciles the
/// batcher/ledger/trace counters into the final summary.
fn run_server<E: rtree_server::QueryEngine>(
    handle: rtree_server::ServerHandle<E>,
    duration_s: f64,
    port_file: Option<&str>,
    sink: std::sync::Arc<rtree_obs::CountingSink>,
) -> Result<String, CliError> {
    use std::time::{Duration, Instant};

    // The listener is live as soon as `serve` returns, so writing the port
    // file here lets scripts start a load generator against an ephemeral
    // port without racing the bind.
    if let Some(path) = port_file {
        std::fs::write(path, format!("{}\n", handle.addr()))
            .map_err(|e| err(format!("writing {path}: {e}")))?;
    }
    let start = Instant::now();
    while !handle.stopped() {
        if duration_s > 0.0 && start.elapsed().as_secs_f64() >= duration_s {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    let stats = handle.shutdown();
    let elapsed = start.elapsed();
    let bstats = handle.batcher().stats();
    let counts = sink.counts();

    // Three independent ledgers must agree once every worker is joined:
    // the batcher drained everything it accepted, the I/O split sums to the
    // physical total, and the trace event stream saw exactly those reads.
    let drained = bstats.completed == bstats.submitted;
    let ledger = stats.physical_reads == stats.demand_reads + stats.prefetch_reads;
    let traced = counts.misses == stats.demand_reads
        && counts.misses + counts.prefetches == stats.physical_reads;

    let per_query = |n: u64| {
        if stats.queries == 0 {
            0.0
        } else {
            n as f64 / stats.queries as f64
        }
    };
    let mut out = format!(
        "served {} for {:.2}s: {} queries in {} batches (max {}, mean {:.2}), rejected {}\n",
        handle.addr(),
        elapsed.as_secs_f64(),
        stats.queries,
        stats.batches,
        stats.max_batch,
        bstats.batch_sizes.mean(),
        stats.rejected,
    );
    let _ = writeln!(
        out,
        "reads/query: demand {:.4} prefetch {:.4} physical {:.4}",
        per_query(stats.demand_reads),
        per_query(stats.prefetch_reads),
        per_query(stats.physical_reads),
    );
    let _ = writeln!(
        out,
        "queue wait us: p50 <= {} p99 <= {}",
        bstats.queue_wait_us.quantile_bounds(0.50).1,
        bstats.queue_wait_us.quantile_bounds(0.99).1,
    );
    // Which rect kernel answered the queries (RTREE_KERNEL overrides the
    // CPU-detected default).
    let _ = writeln!(out, "kernel: {}", rtree_geom::simd::active_kernel().name());
    if stats.writes > 0 {
        let _ = writeln!(
            out,
            "writes: {} committed in {} wal batches ({:.4} fsyncs/write)",
            stats.writes,
            stats.commit_batches,
            stats.wal_fsyncs as f64 / stats.writes as f64,
        );
    }
    if drained && ledger && traced {
        let _ = writeln!(out, "reconciled: yes");
        Ok(out)
    } else {
        let _ = writeln!(
            out,
            "reconciled: NO (drained {drained}, ledger {ledger}, traced {traced})"
        );
        Err(CliError(out))
    }
}

/// How `serve --adaptive` reaches the live tree inside engine `E`: applies
/// a [`rtree_tune::Setting`] (unpin → resize → re-pin).
type Actuate<E> = fn(&E, rtree_tune::Setting) -> std::io::Result<()>;

/// Wraps an engine with the online controller: every served query feeds
/// the workload window, and when the background timer marks a tick due the
/// controller runs its estimate → refit → actuate loop on the serving path
/// (so actuation is always between batches, never racing one). Actuation
/// errors are swallowed — a failed resize must not fail the client batch;
/// the controller retries at the next tick.
struct AdaptiveEngine<E> {
    inner: E,
    actuate: Actuate<E>,
    controller: std::sync::Arc<rtree_tune::Controller>,
    tick_due: std::sync::Arc<std::sync::atomic::AtomicBool>,
}

impl<E: rtree_server::QueryEngine> rtree_server::QueryEngine for AdaptiveEngine<E> {
    fn execute(&self, queries: &[Rect]) -> std::io::Result<Vec<Vec<u64>>> {
        use rtree_obs::TuneObserver;
        for q in queries {
            self.controller
                .observe_query(q.lo.x, q.lo.y, q.hi.x, q.hi.y);
        }
        if self
            .tick_due
            .swap(false, std::sync::atomic::Ordering::Relaxed)
        {
            let _ = self
                .controller
                .tick_with(|s| (self.actuate)(&self.inner, s));
        }
        self.inner.execute(queries)
    }

    fn io_stats(&self) -> rtree_pager::IoStats {
        self.inner.io_stats()
    }

    fn execute_writes(&self, ops: &[rtree_server::WriteOp]) -> Vec<std::io::Result<bool>> {
        use rtree_obs::TuneObserver;
        for _ in ops {
            self.controller.observe_write();
        }
        self.inner.execute_writes(ops)
    }

    fn write_stats(&self) -> rtree_server::WriteStats {
        self.inner.write_stats()
    }
}

/// What the `serve` flags common to every engine resolve to.
struct ServeOptions<'a> {
    addr: &'a str,
    config: rtree_server::ServerConfig,
    duration: f64,
    port_file: Option<&'a str>,
    sink: std::sync::Arc<rtree_obs::CountingSink>,
}

impl ServeOptions<'_> {
    /// Binds the address and serves `engine` to completion.
    fn run<E: rtree_server::QueryEngine>(self, engine: E) -> Result<String, CliError> {
        let handle = rtree_server::serve(engine, self.addr, self.config)
            .map_err(|e| err(format!("binding {}: {e}", self.addr)))?;
        run_server(handle, self.duration, self.port_file, self.sink)
    }
}

/// Serves a read-only `engine` until shutdown. With `tuning` (`--adaptive`:
/// a controller and its tick interval in ms) the engine is wrapped in the
/// controller, a background thread marks a tuning tick due every interval,
/// and the controller's decision log is appended to the exit summary (on
/// both the success and the reconciliation-failure path).
fn serve_engine<E: rtree_server::QueryEngine>(
    engine: E,
    actuate: Actuate<E>,
    tuning: Option<(rtree_tune::Controller, u64)>,
    opts: ServeOptions<'_>,
) -> Result<String, CliError> {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    let Some((controller, tune_interval_ms)) = tuning else {
        return opts.run(engine);
    };
    let controller = Arc::new(controller);
    let tick_due = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));
    let ticker = {
        let tick_due = Arc::clone(&tick_due);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let interval = Duration::from_millis(tune_interval_ms);
            let mut next = Instant::now() + interval;
            while !stop.load(Ordering::Relaxed) {
                // Sleep in short slices so shutdown never waits out a
                // long interval.
                std::thread::sleep(Duration::from_millis(25).min(interval));
                if Instant::now() >= next {
                    tick_due.store(true, Ordering::Relaxed);
                    next += interval;
                }
            }
        })
    };
    let result = opts.run(AdaptiveEngine {
        inner: engine,
        actuate,
        controller: Arc::clone(&controller),
        tick_due,
    });
    stop.store(true, Ordering::Relaxed);
    let _ = ticker.join();

    let mut tail = format!(
        "tuning: {} ticks, {} decisions, final {}\n",
        controller.ticks(),
        controller.decisions().len(),
        controller.current(),
    );
    for d in controller.decisions() {
        let _ = writeln!(tail, "  {d}");
    }
    match result {
        Ok(mut out) => {
            out.push_str(&tail);
            Ok(out)
        }
        Err(CliError(mut out)) => {
            out.push_str(&tail);
            Err(CliError(out))
        }
    }
}

pub(super) fn serve(args: &Args) -> Result<String, CliError> {
    use rtree_obs::{CountingSink, TraceSink};
    use rtree_pager::{ConcurrentDiskRTree, DiskRTree, MemStore};
    use rtree_server::{SequentialEngine, WriterEngine};
    use std::sync::Arc;

    args.allow_flags(&[
        "loader",
        "cap",
        "buffer",
        "policy",
        "seed",
        "addr",
        "port-file",
        "duration",
        "engine",
        "shards",
        "batch",
        "wait-us",
        "queue",
        "workers",
        "window",
        "writers",
        "write-threads",
        "adaptive",
        "tune-interval",
        "budget",
    ])?;
    let sc = Scenario::parse(args, Defaults::seed(0x7ACE))?;
    let (cap, buffer) = (sc.cap, sc.buffer);
    let rects = read_data(&args.positional)?;
    let window: usize = args.flag_or("window", 8usize)?;
    let sink = Arc::new(CountingSink::new());
    let trace = Arc::clone(&sink) as Arc<dyn TraceSink>;
    let opts = ServeOptions {
        addr: args.flag("addr").unwrap_or("127.0.0.1:0"),
        config: parse_server_config(args)?,
        duration: args.flag_or("duration", 0.0f64)?,
        port_file: args.flag("port-file"),
        sink,
    };
    let workers = opts.config.batch.workers;
    let adaptive = args.flag_bool("adaptive");
    let tune_interval: u64 = args.flag_or("tune-interval", 250u64)?;
    if tune_interval == 0 {
        return Err(err("--tune-interval must be at least 1 ms"));
    }
    let budget: usize = args.flag_or("budget", buffer)?;
    if budget == 0 {
        return Err(err("--budget must be positive"));
    }

    if args.flag_bool("writers") {
        if adaptive {
            // The writer engine's tree mutates away from the bulk-load
            // layout the analytic model describes, so there is nothing
            // sound to refit against.
            return Err(err("--adaptive is not supported with --writers"));
        }
        // Writer mode: an empty writable tree seeded through the insert
        // path itself (every seed is WAL-logged and group-committed),
        // then served read-write through the latch-crabbing engine.
        let write_threads: usize = args.flag_or("write-threads", 8usize)?;
        if write_threads == 0 {
            return Err(err("--write-threads must be at least 1"));
        }
        let min_fill = (cap / 4).max(1);
        let wal = rtree_wal::GroupWal::open(rtree_wal::MemLog::new())
            .map_err(|e| err(format!("opening wal: {e}")))?;
        // Serving is batch-oriented anyway (the micro-batcher already
        // trades a sub-millisecond wait for locality), so hold commit
        // batches open briefly too: a burst of writers, one fsync.
        wal.set_commit_delay(std::time::Duration::from_micros(150));
        let mut disk = ConcurrentDiskRTree::create_writable(
            MemStore::new(),
            cap,
            min_fill,
            buffer,
            sc.new_policy(),
            wal,
        )
        .map_err(|e| err(format!("creating tree: {e}")))?;
        disk.set_trace_sink(Some(trace));
        for (i, r) in rects.iter().enumerate() {
            disk.insert(r, i as u64)
                .map_err(|e| err(format!("seeding item {i}: {e}")))?;
        }
        return opts.run(WriterEngine::new(disk, workers, write_threads, true));
    }

    let tree = sc.tree(&rects);
    use rtree_tune::{Actuator, Controller, ControllerConfig, DiskActuator, Setting};
    let tuning = adaptive.then(|| {
        let start = Setting {
            buffer,
            pin_levels: 0,
        };
        let config = ControllerConfig::new(budget);
        let desc = TreeDescription::from_tree(&tree);
        (Controller::new(desc, start, config), tune_interval)
    });
    match args.flag("engine").unwrap_or("seq") {
        "seq" => {
            let mut disk = DiskRTree::create(MemStore::new(), &tree, buffer, sc.new_policy())
                .map_err(|e| err(format!("creating tree: {e}")))?;
            disk.set_trace_sink(Some(trace));
            serve_engine(
                SequentialEngine::new(disk, window),
                |e, s| e.with_tree(|tree| DiskActuator(tree).apply(s)),
                tuning,
                opts,
            )
        }
        "sharded" => {
            let shards: usize = args.flag_or("shards", 1usize)?;
            let (policy, seed) = (sc.policy, sc.seed);
            let mut disk = ConcurrentDiskRTree::create_sharded(
                MemStore::new(),
                &tree,
                buffer,
                shards,
                move || policy.build(seed),
            )
            .map_err(|e| err(format!("creating tree: {e}")))?;
            disk.set_trace_sink(Some(trace));
            // Read-only tree: the write-side settings are never exercised.
            serve_engine(
                WriterEngine::new(disk, workers, 1, false),
                |e, s| DiskActuator(&mut e.tree()).apply(s),
                tuning,
                opts,
            )
        }
        other => Err(err(format!("unknown engine {other:?} (seq | sharded)"))),
    }
}

pub(super) fn loadgen(args: &Args) -> Result<String, CliError> {
    use rtree_server::LoadConfig;

    args.allow_flags(&[
        "connections",
        "qps",
        "queries",
        "workload",
        "zipf",
        "count-fraction",
        "write-fraction",
        "seed",
        "shutdown",
        "quick",
        "json",
    ])?;
    let quick = args.flag_bool("quick");
    let connections: usize = args.flag_or("connections", 8usize)?;
    if connections == 0 {
        return Err(err("--connections must be at least 1"));
    }
    let queries: usize = args.flag_or("queries", if quick { 200 } else { 5_000 })?;
    if queries == 0 {
        return Err(err("--queries must be at least 1"));
    }
    let count_fraction: f64 = args.flag_or("count-fraction", 0.0f64)?;
    if !(0.0..=1.0).contains(&count_fraction) {
        return Err(err("--count-fraction must be in [0, 1]"));
    }
    let write_fraction: f64 = args.flag_or("write-fraction", 0.0f64)?;
    if !(0.0..=1.0).contains(&write_fraction) {
        return Err(err("--write-fraction must be in [0, 1]"));
    }
    let seed: u64 = args.flag_or("seed", 42u64)?;
    let mut workload = parse_workload(args.flag("workload").unwrap_or("region:0.03:0.03"))?;
    let zipf: f64 = args.flag_or("zipf", 0.0f64)?;
    if zipf < 0.0 {
        return Err(err("--zipf must be non-negative"));
    }
    if zipf > 0.0 {
        // Zipf-by-rank as a center multiset: rank k gets copies in
        // proportion to 1/k^theta, so a uniform draw over the reweighted
        // centers reproduces the skew — same trick the analytic model's
        // data-driven workload uses, so the server-side controller can
        // still refit against what this generator sends.
        let Some(centers) = workload.centers().map(<[_]>::to_vec) else {
            return Err(err(
                "--zipf needs a data-driven workload (data:<QX>:<QY>:<DATA.csv>)",
            ));
        };
        let total = (centers.len() * 4).max(1024);
        workload = Workload::data_driven(
            workload.qx(),
            workload.qy(),
            rtree_datagen::zipf_center_multiset(&centers, zipf, total, seed),
        );
    }
    let config = LoadConfig {
        connections,
        queries,
        target_qps: args.flag_or("qps", 0.0f64)?,
        workload,
        count_fraction,
        write_fraction,
        seed,
        shutdown_after: args.flag_bool("shutdown"),
    };
    let addr = args.positional.as_str();
    let report = rtree_server::loadgen::run(addr, &config)
        .map_err(|e| err(format!("load run against {addr}: {e}")))?;

    let mut table = Table::new(
        format!(
            "loadgen {addr}: {} conns, {} loop",
            connections,
            if config.target_qps > 0.0 {
                "open"
            } else {
                "closed"
            }
        ),
        &[
            "sent",
            "ok",
            "writes_ok",
            "overloaded",
            "errors",
            "qps",
            "p50_ms",
            "p99_ms",
            "p999_ms",
            "mean_ms",
            "write_p99_ms",
            "fsyncs_per_write",
            "demand_reads_per_query",
        ],
    );
    table.row(vec![
        report.sent.to_string(),
        report.ok.to_string(),
        report.writes_ok.to_string(),
        report.overloaded.to_string(),
        report.errors.to_string(),
        format!("{:.0}", report.achieved_qps()),
        format!("{:.3}", report.latency_ms(0.50)),
        format!("{:.3}", report.latency_ms(0.99)),
        format!("{:.3}", report.latency_ms(0.999)),
        format!("{:.3}", report.mean_latency_ms()),
        format!("{:.3}", report.write_latency_ms(0.99)),
        format!("{:.4}", report.fsyncs_per_write()),
        format!("{:.4}", report.demand_reads_per_query()),
    ]);
    if args.flag_bool("json") {
        Ok(table.to_json())
    } else {
        Ok(table.render())
    }
}
