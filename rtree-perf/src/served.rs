//! The served workloads: the real `rtree_server::serve` over loopback TCP,
//! driven by closed-loop connections (callers that wait for each reply)
//! with exact per-operation latency samples.

use crate::embedded::CHECK_EVERY;
use crate::harness::{same_ids, Bench, Closing, Counters, Limit, ModelStream, Pass, MESSAGES};
use crate::setup::{served_mixed_mix, served_read_mix, sub_seed, Env, Store};
use crate::span::Recorder;
use crate::timed::{TimedEngine, TimedLog};
use rtree_buffer::LruPolicy;
use rtree_datagen::trace::{MixWeights, TraceOp};
use rtree_geom::{Point, Rect};
use rtree_pager::{replay_committed, ConcurrentDiskRTree, FileStore};
use rtree_server::{
    serve, Client, QueryEngine, Request, Response, SequentialEngine, ServerConfig, ServerHandle,
    WriterEngine,
};
use rtree_wal::{FileLog, GroupWal, LogBackend, MemLog, StagedLog};
use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Readahead window of the sequential engine, as `rtrees serve` sets it.
const PREFETCH_WINDOW: usize = 8;
/// Commit delay of the group-commit log, as `rtrees serve --writers` sets it.
const COMMIT_DELAY: Duration = Duration::from_micros(150);

/// Engine-specific counters behind the common server front-end.
pub trait EngineCounters {
    fn add_to(&self, c: &mut Counters);
}

impl EngineCounters for SequentialEngine<Store> {
    fn add_to(&self, c: &mut Counters) {
        let (io, buf) = self.with_tree(|t| (t.io_stats(), t.buffer_stats()));
        c.reads = io.reads;
        c.prefetch_reads = io.prefetch_reads;
        c.accesses = buf.accesses;
        c.hits = buf.hits;
    }
}

impl EngineCounters for WriterEngine<Store> {
    fn add_to(&self, c: &mut Counters) {
        let tree = self.tree();
        let (io, buf) = (tree.io_stats(), tree.buffer_stats());
        let group = tree.group_commit_stats().unwrap_or_default();
        c.reads = io.reads;
        c.prefetch_reads = io.prefetch_reads;
        c.accesses = buf.accesses;
        c.hits = buf.hits;
        c.writes = tree.logical_writes();
        c.fsyncs = group.fsyncs;
        c.commit_batches = group.commit_batches;
        c.committed_ops = group.committed_ops;
        c.latch_waits = tree.latch_waits();
    }
}

/// The files of a read-write server: a private copy of the image and the
/// write-ahead log.
struct WriteFiles {
    pages: PathBuf,
    wal: PathBuf,
}

pub struct Served<E: QueryEngine> {
    env: Arc<Env>,
    handle: ServerHandle<TimedEngine<E>>,
    clients: Vec<Client>,
    /// One request stream per connection.
    streams: Vec<Vec<Request>>,
    cursors: Vec<usize>,
    frames: usize,
    rec: Arc<Recorder>,
    /// Acknowledged writes per connection, in order: `(insert?, rect, id)`.
    acked: Vec<Vec<(bool, Rect, u64)>>,
    files: Option<WriteFiles>,
    /// Seed and mix of connection 0's stream, for the analytic model.
    stream_seed: u64,
    mix: MixWeights,
}

/// Region queries with every fifth sent as `Count`; ids pass through
/// `map_id` (identity on the read-only workload).
pub fn to_requests(ops: &[TraceOp], map_id: impl Fn(u64) -> u64) -> Vec<Request> {
    let mut regions = 0usize;
    ops.iter()
        .map(|op| match *op {
            TraceOp::Region(r) => {
                regions += 1;
                if regions.is_multiple_of(5) {
                    Request::Count(r)
                } else {
                    Request::Query(r)
                }
            }
            TraceOp::Point(p) => Request::Point(p.x, p.y),
            TraceOp::Insert(r, id) => Request::Insert(r, map_id(id)),
            TraceOp::Delete(r, id) => Request::Delete(r, map_id(id)),
            TraceOp::Knn(..) => unreachable!("the served mixes have no kNN"),
        })
        .collect()
}

pub const CONNECTIONS: usize = 2;

impl Served<SequentialEngine<Store>> {
    /// `served_read`: the sequential engine over the starved image.
    pub fn open_read(
        env: Arc<Env>,
        frames: usize,
        ops_per_conn: usize,
        seed: u64,
        rec: &Arc<Recorder>,
    ) -> io::Result<Self> {
        let engine = SequentialEngine::new(env.open_tree(frames, rec)?, PREFETCH_WINDOW);
        let stream_seed = sub_seed(seed, 2);
        let ops = Env::stream(
            &env.rects,
            ops_per_conn * CONNECTIONS,
            served_read_mix(),
            stream_seed,
        );
        let streams = (0..CONNECTIONS)
            .map(|c| {
                let mine: Vec<TraceOp> = ops.iter().skip(c).step_by(CONNECTIONS).copied().collect();
                to_requests(&mine, |id| id)
            })
            .collect();
        let model = (stream_seed, served_read_mix());
        Self::start(env, engine, streams, frames, rec, None, model)
    }
}

impl Served<WriterEngine<Store>> {
    /// `served_mixed`: the writer engine over a private copy of the image
    /// with a group-commit log on a real file. Connection `c` owns the
    /// items with `id % CONNECTIONS == c` and inserts ids `(c+1)<<40 | k`,
    /// so no two connections ever touch the same item and every write must
    /// be answered `Written(true)`.
    pub fn open_mixed(
        env: Arc<Env>,
        frames: usize,
        ops_per_conn: usize,
        seed: u64,
        rec: &Arc<Recorder>,
    ) -> io::Result<Self> {
        let files = WriteFiles {
            pages: env.dir.join("mixed.pages"),
            wal: env.dir.join("mixed.wal"),
        };
        std::fs::copy(&env.image, &files.pages)?;
        let wal = GroupWal::open(TimedLog::new(
            StagedLog::new(FileLog::create(&files.wal)?),
            Arc::clone(rec),
        ))?;
        wal.set_commit_delay(COMMIT_DELAY);
        let tree = ConcurrentDiskRTree::open_writable(
            Env::open_store(&files.pages, rec)?,
            frames,
            LruPolicy::new(),
            wal,
        )?;
        let engine = WriterEngine::new(tree, CONNECTIONS, CONNECTIONS, true);
        let streams = (0..CONNECTIONS)
            .map(|c| {
                let owned: Vec<Rect> = env
                    .rects
                    .iter()
                    .skip(c)
                    .step_by(CONNECTIONS)
                    .copied()
                    .collect();
                let ops = Env::stream(
                    &owned,
                    ops_per_conn,
                    served_mixed_mix(),
                    sub_seed(seed, 3 + c as u64),
                );
                let n = owned.len() as u64;
                to_requests(&ops, |id| {
                    if id < n {
                        id * CONNECTIONS as u64 + c as u64
                    } else {
                        ((c as u64 + 1) << 40) | (id - n)
                    }
                })
            })
            .collect();
        let model = (sub_seed(seed, 3), served_mixed_mix());
        Self::start(env, engine, streams, frames, rec, Some(files), model)
    }
}

impl<E: QueryEngine + EngineCounters> Served<E> {
    fn start(
        env: Arc<Env>,
        engine: E,
        streams: Vec<Vec<Request>>,
        frames: usize,
        rec: &Arc<Recorder>,
        files: Option<WriteFiles>,
        (stream_seed, mix): (u64, MixWeights),
    ) -> io::Result<Self> {
        let handle = serve(
            TimedEngine::new(engine, Arc::clone(rec)),
            "127.0.0.1:0",
            ServerConfig::default(),
        )?;
        let clients = (0..streams.len())
            .map(|_| Client::connect(handle.addr()))
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Served {
            env,
            handle,
            clients,
            cursors: vec![0; streams.len()],
            acked: vec![Vec::new(); streams.len()],
            streams,
            frames,
            rec: Arc::clone(rec),
            files,
            stream_seed,
            mix,
        })
    }

    /// True when `response` is what the in-memory tree gives for `request`.
    fn matches_oracle(&self, request: &Request, response: Response) -> bool {
        match (request, response) {
            (Request::Query(r), Response::Matches(ids)) => same_ids(ids, self.env.oracle.search(r)),
            (Request::Point(x, y), Response::Matches(ids)) => {
                same_ids(ids, self.env.oracle.point_search(&Point::new(*x, *y)))
            }
            (Request::Count(r), Response::Count(n)) => n == self.env.oracle.search(r).len() as u64,
            _ => false,
        }
    }
}

/// What one connection's share of a pass observed.
struct ConnPass {
    start: Instant,
    end: Instant,
    pass: Pass,
    sampled: Vec<(usize, Response)>,
    acked: Vec<usize>,
    cursor: usize,
}

fn is_write(request: &Request) -> bool {
    matches!(request, Request::Insert(..) | Request::Delete(..))
}

#[allow(clippy::too_many_arguments)]
fn drive(
    conn: usize,
    client: &mut Client,
    stream: &[Request],
    mut cursor: usize,
    limit: Limit,
    cycle: bool,
    rec: &Recorder,
    barrier: &Barrier,
) -> ConnPass {
    let mut pass = Pass::default();
    let (mut sampled, mut acked) = (Vec::new(), Vec::new());
    barrier.wait();
    let start = Instant::now();
    let (max_ops, deadline) = match limit {
        Limit::Ops(n) => (n, None),
        Limit::For(d) => (usize::MAX, Some(start + d)),
    };
    let mut end = start;
    while (pass.ops as usize) < max_ops && (cycle || cursor < stream.len()) {
        let at = cursor % stream.len();
        let request = &stream[at];
        cursor += 1;
        let op_id = ((conn as u64) << 40) | cursor as u64;
        let t0 = Instant::now();
        let reply = rec.span("client.op", Some(op_id), 1, || client.call(request));
        end = Instant::now();
        let ns = (end - t0).as_nanos() as u64;
        pass.ops += 1;
        match reply {
            Ok(Some(Response::Written(true))) if is_write(request) => {
                pass.write_ns.push(ns);
                acked.push(at);
            }
            Ok(Some(response @ (Response::Matches(_) | Response::Count(_))))
                if !is_write(request) =>
            {
                pass.read_ns.push(ns);
                pass.results += match &response {
                    Response::Matches(ids) => ids.len() as u64,
                    Response::Count(n) => *n,
                    _ => 0,
                };
                if (pass.ops as usize).is_multiple_of(CHECK_EVERY) {
                    sampled.push((at, response));
                }
            }
            // An I/O error, a closed connection, `Overloaded`, `Error`, or
            // a delete that found nothing.
            _ => pass.failed += 1,
        }
        if deadline.is_some_and(|d| end >= d) {
            break;
        }
    }
    ConnPass {
        start,
        end,
        pass,
        sampled,
        acked,
        cursor,
    }
}

impl<E: QueryEngine + EngineCounters> Bench for Served<E> {
    fn pass(&mut self, limit: Limit) -> Pass {
        let conns = self.clients.len();
        let limit = match limit {
            Limit::Ops(n) => Limit::Ops(n / conns),
            timed => timed,
        };
        // A read-only stream may be replayed; a stream with writes may not
        // (an item can be inserted only once).
        let cycle = self.files.is_none();
        let barrier = Barrier::new(conns);
        let rec = &*self.rec;
        let parts: Vec<ConnPass> = std::thread::scope(|scope| {
            let workers: Vec<_> = self
                .clients
                .iter_mut()
                .zip(&self.streams)
                .zip(&self.cursors)
                .enumerate()
                .map(|(conn, ((client, stream), &cursor))| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        drive(conn, client, stream, cursor, limit, cycle, rec, barrier)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("connection driver panicked"))
                .collect()
        });
        let start = parts.iter().map(|p| p.start).min().expect("connections");
        let end = parts.iter().map(|p| p.end).max().expect("connections");
        let mut pass = Pass {
            elapsed_ns: (end - start).as_nanos() as u64,
            ..Pass::default()
        };
        for (conn, part) in parts.into_iter().enumerate() {
            self.cursors[conn] = part.cursor;
            pass.ops += part.pass.ops;
            pass.failed += part.pass.failed;
            pass.results += part.pass.results;
            pass.read_ns.extend(part.pass.read_ns);
            pass.write_ns.extend(part.pass.write_ns);
            for at in part.acked {
                match self.streams[conn][at] {
                    Request::Insert(r, id) => self.acked[conn].push((true, r, id)),
                    Request::Delete(r, id) => self.acked[conn].push((false, r, id)),
                    _ => unreachable!("only writes are acknowledged as written"),
                }
            }
            // The tree of a read-write server moves under the reads, so
            // only the read-only workload is checked against the oracle.
            if cycle {
                for (at, response) in part.sampled {
                    if !self.matches_oracle(&self.streams[conn][at], response) {
                        pass.failed += 1;
                    }
                }
            }
        }
        pass
    }

    fn counters(&self) -> Counters {
        let batcher = self.handle.batcher().stats();
        let mut c = Counters {
            batches: batcher.batches,
            batched_jobs: batcher.queue_wait_us.count(),
            queue_wait_us: batcher.queue_wait_us.sum(),
            rejected: batcher.rejected,
            wal_bytes: self
                .files
                .as_ref()
                .and_then(|f| std::fs::metadata(&f.wal).ok())
                .map_or(0, |m| m.len()),
            ..Counters::default()
        };
        self.handle.batcher().engine().inner().add_to(&mut c);
        c
    }

    fn frames(&self) -> usize {
        self.frames
    }

    fn messages(&self) -> Vec<Request> {
        self.streams[0].iter().take(MESSAGES).cloned().collect()
    }

    fn model_stream(&self) -> ModelStream {
        // A read-write server's connections each draw from the items they
        // own; the model is given connection 0's.
        let step = if self.files.is_some() { CONNECTIONS } else { 1 };
        ModelStream {
            rects: self.env.rects.iter().step_by(step).copied().collect(),
            pool_seed: self.stream_seed,
            mix: self.mix,
        }
    }

    fn close(self: Box<Self>) -> Closing {
        let this = *self;
        drop(this.clients);
        this.handle.shutdown();
        // Dropping the server drops its tree and log with it. The staged
        // log hands bytes to the file only on `sync`, so what the file holds
        // now is exactly what a crash at this point would leave
        // (`StagedLog::crash` followed by a restart); killing a process
        // instead would leave the operating system's cache intact.
        drop(this.handle);
        let image_bytes = this.env.image_bytes().unwrap_or(0);
        let Some(files) = this.files else {
            return Closing {
                lost: 0,
                stored_bytes: image_bytes,
                live_items: this.env.meta.items,
            };
        };
        let recovered = recover(&files, this.frames).expect("reopening the crashed image");
        // Final state each acknowledged write leaves: present or absent.
        let mut expect: BTreeMap<u64, (Rect, bool)> = BTreeMap::new();
        for (insert, rect, id) in this.acked.into_iter().flatten() {
            expect.insert(id, (rect, insert));
        }
        let lost = expect
            .iter()
            .filter(|(id, (rect, present))| {
                let found = recovered
                    .query(rect)
                    .map(|ids| ids.contains(id))
                    .unwrap_or(false);
                found != *present
            })
            .count() as u64;
        let wal_bytes = std::fs::metadata(&files.wal).map_or(0, |m| m.len());
        Closing {
            lost,
            stored_bytes: image_bytes + wal_bytes,
            live_items: recovered.live_items(),
        }
    }
}

/// Restart after a crash: reopens the image copy and replays the committed
/// part of the durable log onto it. The replayed operations are logged into
/// a memory log — this is a check, not a measurement.
fn recover(files: &WriteFiles, frames: usize) -> io::Result<ConcurrentDiskRTree<FileStore>> {
    let durable = FileLog::open(&files.wal)?.read_all()?;
    let tree = ConcurrentDiskRTree::open_writable(
        FileStore::open(&files.pages)?,
        frames,
        LruPolicy::new(),
        GroupWal::open(MemLog::new())?,
    )?;
    replay_committed(&durable, &tree)?;
    Ok(tree)
}
