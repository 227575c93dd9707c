//! Open-loop load generation against a running server.
//!
//! With a target QPS the generator schedules send times up front
//! (`t_i = start + i·interval`) and charges each query's latency from its
//! *scheduled* time, not the actual send — the standard correction for
//! coordinated omission, so a stalled server inflates the tail instead of
//! silently slowing the offered load. With `target_qps == 0` it runs
//! closed-loop: each connection fires its next query the moment the
//! previous answer lands, which is the regime that exercises micro-batch
//! harvesting hardest.
//!
//! Reads-per-query accounting queries the server's [`Request::Stats`]
//! counters before and after the run, so the reported physical reads are
//! the server's own, not a client-side guess.

use crate::server::Client;
use crate::wire::{Request, Response, StatsReply};
use rtree_core::Workload;
use rtree_geom::Rect;
use rtree_obs::Histogram;
use rtree_sim::QuerySampler;
use std::io;
use std::net::ToSocketAddrs;
use std::sync::{Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// What load to offer and how.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Concurrent client connections.
    pub connections: usize,
    /// Total queries across all connections.
    pub queries: usize,
    /// Offered load in queries/second across all connections; 0 runs
    /// closed-loop (fire on completion).
    pub target_qps: f64,
    /// Query distribution (uniform or data-driven, point or region).
    pub workload: Workload,
    /// Fraction of queries sent as count-only requests.
    pub count_fraction: f64,
    /// Fraction of operations sent as inserts (spread evenly through
    /// each connection's schedule). Item ids are `(conn << 40) | i`, so
    /// connections never collide. Requires a write-capable server.
    pub write_fraction: f64,
    /// Base RNG seed; connection c uses `seed + c`.
    pub seed: u64,
    /// Send a shutdown request after the run completes.
    pub shutdown_after: bool,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            connections: 8,
            queries: 1000,
            target_qps: 0.0,
            workload: Workload::uniform_region(0.01, 0.01),
            count_fraction: 0.0,
            write_fraction: 0.0,
            seed: 42,
            shutdown_after: false,
        }
    }
}

/// What one run measured.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Queries sent.
    pub sent: u64,
    /// Queries answered with matches or a count.
    pub ok: u64,
    /// Writes acknowledged as durably committed.
    pub writes_ok: u64,
    /// Queries refused with `Overloaded`.
    pub overloaded: u64,
    /// Queries answered with an error or lost to a closed connection.
    pub errors: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Per-query latency in nanoseconds (scheduled-send to receive).
    pub latency_ns: Histogram,
    /// Per-write latency in nanoseconds (scheduled-send to durable ack).
    pub write_latency_ns: Histogram,
    /// Server counters when the run started.
    pub stats_before: StatsReply,
    /// Server counters when the run ended.
    pub stats_after: StatsReply,
}

impl LoadReport {
    /// Queries per second actually completed.
    pub fn achieved_qps(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.ok as f64 / self.elapsed.as_secs_f64()
    }

    /// Server-side physical reads per completed query over the run window.
    pub fn reads_per_query(&self) -> f64 {
        let queries = self
            .stats_after
            .queries
            .saturating_sub(self.stats_before.queries);
        if queries == 0 {
            return 0.0;
        }
        let reads = self
            .stats_after
            .physical_reads
            .saturating_sub(self.stats_before.physical_reads);
        reads as f64 / queries as f64
    }

    /// Latency quantile in milliseconds (conservative bucket upper bound).
    pub fn latency_ms(&self, q: f64) -> f64 {
        self.latency_ns.quantile(q) as f64 / 1e6
    }

    /// Mean latency in milliseconds.
    pub fn mean_latency_ms(&self) -> f64 {
        self.latency_ns.mean() / 1e6
    }

    /// Write-latency quantile in milliseconds.
    pub fn write_latency_ms(&self, q: f64) -> f64 {
        self.write_latency_ns.quantile(q) as f64 / 1e6
    }

    /// Server-side WAL fsyncs per acknowledged write over the run window
    /// — the number group commit exists to shrink below 1.
    pub fn fsyncs_per_write(&self) -> f64 {
        let writes = self
            .stats_after
            .writes
            .saturating_sub(self.stats_before.writes);
        if writes == 0 {
            return 0.0;
        }
        let fsyncs = self
            .stats_after
            .wal_fsyncs
            .saturating_sub(self.stats_before.wal_fsyncs);
        fsyncs as f64 / writes as f64
    }
}

struct Tally {
    ok: u64,
    writes_ok: u64,
    overloaded: u64,
    errors: u64,
    latency: Histogram,
    write_latency: Histogram,
}

impl Tally {
    fn new() -> Self {
        Tally {
            ok: 0,
            writes_ok: 0,
            overloaded: 0,
            errors: 0,
            latency: Histogram::new(),
            write_latency: Histogram::new(),
        }
    }
}

/// True when operation `i` of `n` should be a write so that writes land
/// evenly through the schedule (every `1/fraction`-th op), not bunched
/// at the front.
fn is_write_slot(i: usize, fraction: f64) -> bool {
    if fraction <= 0.0 {
        return false;
    }
    ((i + 1) as f64 * fraction).floor() > (i as f64 * fraction).floor()
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs the configured load against `addr` and reports.
pub fn run(
    addr: impl ToSocketAddrs + Clone + Send + Sync,
    config: &LoadConfig,
) -> io::Result<LoadReport> {
    let connections = config.connections.max(1);
    let per_conn = config.queries / connections;
    let remainder = config.queries % connections;
    // Offered inter-send interval per connection (open-loop only).
    let interval = if config.target_qps > 0.0 {
        Some(Duration::from_secs_f64(
            connections as f64 / config.target_qps,
        ))
    } else {
        None
    };

    let stats_before = fetch_stats(addr.clone())?;
    let tally = Mutex::new(Tally::new());
    let start = Instant::now();

    thread::scope(|scope| -> io::Result<()> {
        let mut handles = Vec::new();
        for c in 0..connections {
            let n = per_conn + usize::from(c < remainder);
            if n == 0 {
                continue;
            }
            let addr = addr.clone();
            let tally = &tally;
            let workload = &config.workload;
            let (seed, count_fraction) = (config.seed, config.count_fraction);
            let write_fraction = config.write_fraction;
            handles.push(scope.spawn(move || -> io::Result<()> {
                let mut client = Client::connect(addr)?;
                let mut sampler = QuerySampler::new(workload, seed.wrapping_add(c as u64));
                let mut local = Tally::new();
                for i in 0..n {
                    // Open loop: wait for the scheduled send time, then
                    // charge latency from it. Closed loop: now is the
                    // scheduled time.
                    let scheduled = match interval {
                        Some(iv) => {
                            let t = start + iv * i as u32 + iv / connections as u32 * c as u32;
                            if let Some(wait) = t.checked_duration_since(Instant::now()) {
                                thread::sleep(wait);
                            }
                            t
                        }
                        None => Instant::now(),
                    };
                    let rect = sampler.sample();
                    let req = if is_write_slot(i, write_fraction) {
                        // Disjoint id spaces per connection: 24 bits of
                        // connection, 40 bits of sequence.
                        Request::Insert(rect, ((c as u64) << 40) | i as u64)
                    } else if count_fraction > 0.0 && (i as f64 / n as f64) < count_fraction {
                        Request::Count(rect)
                    } else {
                        Request::Query(rect)
                    };
                    match client.call(&req)? {
                        Some(Response::Matches(_)) | Some(Response::Count(_)) => {
                            local.ok += 1;
                            local.latency.record(scheduled.elapsed().as_nanos() as u64);
                        }
                        Some(Response::Written(_)) => {
                            local.writes_ok += 1;
                            local
                                .write_latency
                                .record(scheduled.elapsed().as_nanos() as u64);
                        }
                        Some(Response::Overloaded) => local.overloaded += 1,
                        Some(Response::ShuttingDown) | None => {
                            local.errors += u64::try_from(n - i).unwrap_or(u64::MAX);
                            break;
                        }
                        Some(_) => local.errors += 1,
                    }
                }
                let mut t = lock(tally);
                t.ok += local.ok;
                t.writes_ok += local.writes_ok;
                t.overloaded += local.overloaded;
                t.errors += local.errors;
                t.latency.merge(&local.latency);
                t.write_latency.merge(&local.write_latency);
                Ok(())
            }));
        }
        for h in handles {
            match h.join() {
                Ok(r) => r?,
                Err(_) => {
                    return Err(io::Error::other("load generator thread panicked"));
                }
            }
        }
        Ok(())
    })?;

    let elapsed = start.elapsed();
    let stats_after = fetch_stats(addr.clone())?;
    if config.shutdown_after {
        let mut client = Client::connect(addr)?;
        let _ = client.call(&Request::Shutdown)?;
    }

    let t = tally.into_inner().unwrap_or_else(PoisonError::into_inner);
    Ok(LoadReport {
        sent: config.queries as u64,
        ok: t.ok,
        writes_ok: t.writes_ok,
        overloaded: t.overloaded,
        errors: t.errors,
        elapsed,
        latency_ns: t.latency,
        write_latency_ns: t.write_latency,
        stats_before,
        stats_after,
    })
}

fn fetch_stats(addr: impl ToSocketAddrs) -> io::Result<StatsReply> {
    let mut client = Client::connect(addr)?;
    match client.call(&Request::Stats)? {
        Some(Response::Stats(s)) => Ok(s),
        other => Err(io::Error::other(format!(
            "expected a stats reply, got {other:?}"
        ))),
    }
}

/// Replays an explicit list of rectangles over `connections` parallel
/// clients (rectangle `i` goes to connection `i % connections`), returning
/// the per-rectangle results in input order. Used by the chaos harness to
/// check the network path against its shadow oracle with a deterministic
/// query set.
pub fn replay(
    addr: impl ToSocketAddrs + Clone + Send + Sync,
    rects: &[Rect],
    connections: usize,
) -> io::Result<Vec<Vec<u64>>> {
    let connections = connections.clamp(1, rects.len().max(1));
    let mut results: Vec<Option<Vec<u64>>> = vec![None; rects.len()];
    let slots = Mutex::new(&mut results);
    thread::scope(|scope| -> io::Result<()> {
        let mut handles = Vec::new();
        for c in 0..connections {
            let addr = addr.clone();
            let slots = &slots;
            handles.push(scope.spawn(move || -> io::Result<()> {
                let mut client = Client::connect(addr)?;
                for (i, rect) in rects.iter().enumerate().skip(c).step_by(connections) {
                    match client.call(&Request::Query(*rect))? {
                        Some(Response::Matches(ids)) => {
                            lock(slots)[i] = Some(ids);
                        }
                        other => {
                            return Err(io::Error::other(format!(
                                "query {i}: expected matches, got {other:?}"
                            )));
                        }
                    }
                }
                Ok(())
            }));
        }
        for h in handles {
            match h.join() {
                Ok(r) => r?,
                Err(_) => return Err(io::Error::other("replay thread panicked")),
            }
        }
        Ok(())
    })?;
    Ok(results
        .into_iter()
        .map(|r| r.expect("every slot filled or an error returned"))
        .collect())
}
