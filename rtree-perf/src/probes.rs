//! Isolated probes: each times one public call of one layer on this run's
//! image, the same way under every workload, so a layer's unit cost can be
//! read beside the share it has in a workload's traced pass.

use crate::report::Metrics;
use crate::setup::{Env, Scale, QX};
use crate::span::{total_of, Recorder};
use crate::timed::TimedLog;
use crate::Run;
use rtree_buffer::{LruPolicy, PageId};
use rtree_exec::{BatchConfig, BatchExecutor};
use rtree_geom::{Point, Rect};
use rtree_pager::{
    replay_committed, BufferManager, ConcurrentDiskRTree, DiskRTree, FileStore, NodeSoA, PageStore,
    PAGE_SIZE,
};
use rtree_server::wire::{decode_frame, encode_frame};
use rtree_server::{serve, Client, Request, Response, SequentialEngine, ServerConfig};
use rtree_wal::{crc32, FileLog, GroupWal, LogBackend, StagedLog, Wal};
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Mean nanoseconds per call of `f` over `iters` calls.
fn mean_ns(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..iters {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / iters.max(1) as f64
}

/// A small deterministic generator for probe page ids (SplitMix64).
struct Ids(u64);

impl Ids {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = crate::setup::sub_seed(self.0, 1);
        self.0 % n
    }
}

/// What the probes work on: this run's image and the workload's own
/// messages.
struct ProbeInput<'a> {
    env: &'a Env,
    scale: Scale,
    seed: u64,
    requests: &'a [Request],
}

pub fn run(run: &Run, env: &Env, requests: &[Request], m: &mut Metrics) -> io::Result<()> {
    let input = &ProbeInput {
        env,
        scale: run.scale,
        seed: run.seed,
        requests,
    };
    let rec = &run.rec;
    wire(input, m);
    stats_rtt(input, rec, m)?;
    exec(input, m)?;
    let scratch = input.env.dir.join("probe.pages");
    std::fs::copy(&input.env.image, &scratch)?;
    bufmgr(input, &scratch, m)?;
    store(input, &scratch, m)?;
    pages_and_kernel(input, m)?;
    mutate(input, &scratch, m)?;
    std::fs::copy(&input.env.image, &scratch)?;
    concurrent(input, &scratch, rec, m)
}

/// The reply the server would give, from the in-memory tree.
fn reply_for(env: &Env, request: &Request) -> Response {
    match request {
        Request::Query(r) => Response::Matches(env.oracle.search(r)),
        Request::Point(x, y) => Response::Matches(env.oracle.point_search(&Point::new(*x, *y))),
        Request::Count(r) => Response::Count(env.oracle.search(r).len() as u64),
        _ => Response::Written(true),
    }
}

fn wire(input: &ProbeInput<'_>, m: &mut Metrics) {
    let requests = &input.requests[..input.requests.len().min(512)];
    let replies: Vec<Response> = requests.iter().map(|r| reply_for(input.env, r)).collect();
    let request_frames: Vec<Vec<u8>> = requests.iter().map(|r| encode_frame(&r.encode())).collect();
    let reply_frames: Vec<Vec<u8>> = replies.iter().map(|r| encode_frame(&r.encode())).collect();
    let n = requests.len();
    let iters = n * 40;
    m.set(
        "wire.encode_request_ns",
        mean_ns(iters, |i| {
            black_box(encode_frame(&black_box(&requests[i % n]).encode()));
        }),
    );
    m.set(
        "wire.decode_request_ns",
        mean_ns(iters, |i| {
            let (payload, _) = decode_frame(black_box(&request_frames[i % n]))
                .expect("own frame")
                .expect("whole frame");
            black_box(Request::decode(&payload).expect("own request"));
        }),
    );
    m.set(
        "wire.encode_response_ns",
        mean_ns(iters, |i| {
            black_box(encode_frame(&black_box(&replies[i % n]).encode()));
        }),
    );
    m.set(
        "wire.decode_response_ns",
        mean_ns(iters, |i| {
            let (payload, _) = decode_frame(black_box(&reply_frames[i % n]))
                .expect("own frame")
                .expect("whole frame");
            black_box(Response::decode(&payload).expect("own response"));
        }),
    );
    m.set(
        "wire.response_bytes_mean",
        reply_frames.iter().map(Vec::len).sum::<usize>() as f64 / n as f64,
    );
}

/// Round trip of a `Stats` request: frames, loopback TCP and the
/// connection pump, without the scheduler or the engine.
fn stats_rtt(input: &ProbeInput<'_>, rec: &Arc<Recorder>, m: &mut Metrics) -> io::Result<()> {
    let tree = input.env.open_tree(input.scale.starved_frames, rec)?;
    let handle = serve(
        SequentialEngine::new(tree, 0),
        "127.0.0.1:0",
        ServerConfig::default(),
    )?;
    let mut client = Client::connect(handle.addr())?;
    let mut call = || -> io::Result<()> {
        match client.call(&Request::Stats)? {
            Some(Response::Stats(_)) => Ok(()),
            other => Err(io::Error::other(format!("stats probe got {other:?}"))),
        }
    };
    for _ in 0..200 {
        call()?;
    }
    let iters = 2_000;
    let t = Instant::now();
    for _ in 0..iters {
        call()?;
    }
    m.set(
        "server.stats_rtt_us",
        t.elapsed().as_nanos() as f64 / 1e3 / iters as f64,
    );
    drop(client);
    handle.shutdown();
    Ok(())
}

fn exec(input: &ProbeInput<'_>, m: &mut Metrics) -> io::Result<()> {
    let regions: Vec<Rect> = input
        .requests
        .iter()
        .filter_map(|request| match request {
            Request::Query(r) | Request::Count(r) => Some(*r),
            _ => None,
        })
        .collect();
    for (batch, time_name, pages_name) in [
        (
            1usize,
            "exec.us_per_query_b1",
            Some("exec.pages_per_query_b1"),
        ),
        (2, "exec.us_per_query_b2", None),
        (
            64,
            "exec.us_per_query_b64",
            Some("exec.pages_per_query_b64"),
        ),
    ] {
        let mut tree = DiskRTree::open(
            FileStore::open(&input.env.image)?,
            input.scale.starved_frames,
            LruPolicy::new(),
        )?;
        let executor = BatchExecutor::with_config(BatchConfig::default());
        let chunks: Vec<&[Rect]> = regions.chunks_exact(batch).collect();
        let (warm, timed) = chunks.split_at(chunks.len() / 4);
        for chunk in warm {
            executor.execute(&mut tree, chunk)?;
        }
        let before = tree.io_stats().reads;
        let t = Instant::now();
        for chunk in timed {
            black_box(executor.execute(&mut tree, chunk)?);
        }
        let queries = (timed.len() * batch) as f64;
        m.set(time_name, t.elapsed().as_nanos() as f64 / 1e3 / queries);
        if let Some(name) = pages_name {
            m.set(name, (tree.io_stats().reads - before) as f64 / queries);
        }
    }
    Ok(())
}

/// Buffer-pool phases: resident fetch, cold fetch, and a cold fetch that
/// must first write a dirty victim back.
fn bufmgr(input: &ProbeInput<'_>, scratch: &Path, m: &mut Metrics) -> io::Result<()> {
    let pages = input.env.pages();
    let open = |frames: usize| -> io::Result<BufferManager<FileStore>> {
        let mut mgr = BufferManager::new(FileStore::open(scratch)?, frames, LruPolicy::new());
        mgr.set_verify_reads(true);
        Ok(mgr)
    };

    let hot = 200.min(pages - 1);
    let mut mgr = open(hot as usize + 8)?;
    for id in 1..=hot {
        mgr.fetch(PageId(id))?;
    }
    let mut failed = false;
    let hit = mean_ns(400_000, |i| {
        failed |= mgr.fetch(PageId(1 + i as u64 % hot)).is_err();
    });
    m.set("bufmgr.hit_ns", hit);

    let frames = 64usize;
    let mut mgr = open(frames)?;
    let mut ids = Ids(input.seed);
    let miss = mean_ns(20_000, |_| {
        failed |= mgr.fetch(PageId(1 + ids.below(pages - 1))).is_err();
    });
    m.set("bufmgr.miss_ns", miss);

    let mut mgr = open(frames)?;
    let rounds = 40usize;
    let mut evict_ns = 0u128;
    for round in 0..rounds {
        let base = 1 + ((round * 2 * frames) as u64 % (pages - 1 - 2 * frames as u64));
        for id in base..base + frames as u64 {
            let data = mgr.fetch(PageId(id))?.to_vec();
            mgr.write_buffered(PageId(id), &data)?;
        }
        let t = Instant::now();
        for id in base + frames as u64..base + 2 * frames as u64 {
            mgr.fetch(PageId(id))?;
        }
        evict_ns += t.elapsed().as_nanos();
    }
    m.set(
        "bufmgr.dirty_evict_ns",
        evict_ns as f64 / (rounds * frames) as f64,
    );
    if failed {
        return Err(io::Error::other("a buffer-manager probe fetch failed"));
    }
    Ok(())
}

/// The measured miss penalty: 4 KiB reads and writes on the actual file.
fn store(input: &ProbeInput<'_>, scratch: &Path, m: &mut Metrics) -> io::Result<()> {
    let pages = input.env.pages();
    let mut file = FileStore::open(&input.env.image)?;
    let mut buf = vec![0u8; PAGE_SIZE];
    let mut ids = Ids(input.seed ^ 0x5107);
    let mut failed = false;
    let iters = 40_000;
    let rand = mean_ns(iters, |_| {
        failed |= file.read_page(PageId(ids.below(pages)), &mut buf).is_err();
    });
    let seq = mean_ns(iters, |i| {
        failed |= file.read_page(PageId(i as u64 % pages), &mut buf).is_err();
    });
    m.set("store.read_rand_ns", rand);
    m.set("store.read_seq_ns", seq);

    let mut file = FileStore::open(scratch)?;
    let mut write_ns = 0u128;
    let writes = 5_000;
    for _ in 0..writes {
        let id = PageId(ids.below(pages));
        file.read_page(id, &mut buf)?;
        let t = Instant::now();
        file.write_page(id, &buf)?;
        write_ns += t.elapsed().as_nanos();
    }
    m.set("store.write_ns", write_ns as f64 / writes as f64);
    if failed {
        return Err(io::Error::other("a store probe read failed"));
    }
    Ok(())
}

/// Page decode (verified against trusted) on sampled leaf and internal
/// pages, the page checksum alone, and the rectangle kernel on the decoded
/// leaves.
fn pages_and_kernel(input: &ProbeInput<'_>, m: &mut Metrics) -> io::Result<()> {
    let meta = &input.env.meta;
    let leaf_start = *meta.level_starts.last().expect("a fresh image has levels");
    let mut file = FileStore::open(&input.env.image)?;
    let mut sample = |from: u64, to: u64| -> io::Result<Vec<Vec<u8>>> {
        let step = ((to - from) / 256).max(1);
        (from..to)
            .step_by(step as usize)
            .take(256)
            .map(|id| {
                let mut buf = vec![0u8; PAGE_SIZE];
                file.read_page(PageId(id), &mut buf)?;
                Ok(buf)
            })
            .collect()
    };
    let leaves = sample(leaf_start, meta.nodes + 1)?;
    // A one-level tree has no internal pages; its root leaf stands in.
    let internal = sample(1, leaf_start.max(2))?;
    let mut node = NodeSoA::new();
    let mut bad = false;
    for (pages, verified, trusted) in [
        (
            &leaves,
            "page.decode_verified_ns_leaf",
            "page.decode_trusted_ns_leaf",
        ),
        (
            &internal,
            "page.decode_verified_ns_internal",
            "page.decode_trusted_ns_internal",
        ),
    ] {
        let n = pages.len();
        let iters = n * (20_000 / n).max(1);
        m.set(
            verified,
            mean_ns(iters, |i| {
                bad |= node.decode_into(black_box(&pages[i % n])).is_err();
            }),
        );
        m.set(
            trusted,
            mean_ns(iters, |i| {
                bad |= node.decode_into_trusted(black_box(&pages[i % n])).is_err();
            }),
        );
    }
    let n = leaves.len();
    m.set(
        "page.crc_ns",
        mean_ns(20_000, |i| {
            black_box(crc32::checksum(black_box(&leaves[i % n])));
        }),
    );

    let nodes: Vec<NodeSoA> = leaves
        .iter()
        .map(|page| NodeSoA::decode(page).map_err(io::Error::other))
        .collect::<io::Result<_>>()?;
    // One query per node, centred on it, so every call has matches.
    let queries: Vec<Rect> = nodes
        .iter()
        .map(|node| Rect::centered(node.rects.mbr().expect("non-empty leaf").center(), QX, QX))
        .collect();
    let mut out = Vec::new();
    let iters = 200_000;
    m.set(
        "geom.intersect_ns_per_node_active",
        mean_ns(iters, |i| {
            out.clear();
            black_box(&nodes[i % n])
                .rects
                .intersecting(&queries[i % n], &mut out);
            black_box(&out);
        }),
    );
    m.set(
        "geom.intersect_ns_per_node_scalar",
        mean_ns(iters, |i| {
            out.clear();
            black_box(&nodes[i % n])
                .rects
                .intersecting_scalar(&queries[i % n], &mut out);
            black_box(&out);
        }),
    );
    if bad {
        return Err(io::Error::other("a sampled page failed to decode"));
    }
    Ok(())
}

/// New items for the write probes: small rectangles beside existing data,
/// with ids no workload uses.
fn new_items(input: &ProbeInput<'_>, n: usize) -> Vec<(Rect, u64)> {
    let step = (input.env.rects.len() / n).max(1);
    input
        .env
        .rects
        .iter()
        .step_by(step)
        .take(n)
        .enumerate()
        .map(|(k, r)| {
            let c = r.center();
            (
                Rect::centered(Point::new(c.x, c.y), QX * 0.2, QX * 0.2),
                (1u64 << 50) | k as u64,
            )
        })
        .collect()
}

/// The sequential write path: `DiskRTree` inserts and deletes under the
/// physical page-image log on a real file. No workload serves it; it is
/// here so a change to it shows.
fn mutate(input: &ProbeInput<'_>, scratch: &Path, m: &mut Metrics) -> io::Result<()> {
    let mut tree = DiskRTree::open(
        FileStore::open(scratch)?,
        input.scale.mixed_frames,
        LruPolicy::new(),
    )?;
    tree.attach_wal(Wal::open(FileLog::create(
        input.env.dir.join("probe-mutate.wal"),
    )?)?);
    let items = new_items(input, 300);
    let writes_before = tree.physical_writes();
    let t = Instant::now();
    for (rect, id) in &items {
        tree.insert(*rect, *id)?;
    }
    m.set(
        "mutate.insert_us",
        t.elapsed().as_nanos() as f64 / 1e3 / items.len() as f64,
    );
    tree.checkpoint()?;
    m.set(
        "mutate.page_writes_per_insert",
        (tree.physical_writes() - writes_before) as f64 / items.len() as f64,
    );
    let t = Instant::now();
    for (rect, id) in &items {
        if !tree.delete(rect, *id)? {
            return Err(io::Error::other("the mutate probe lost an insert"));
        }
    }
    m.set(
        "mutate.delete_us",
        t.elapsed().as_nanos() as f64 / 1e3 / items.len() as f64,
    );
    Ok(())
}

/// The concurrent write path in isolation (one thread, so every commit is
/// its own group): insert, delete, crash, restart + replay, checkpoint. The
/// log's own spans give the cost of one append and one `sync_data`.
fn concurrent(
    input: &ProbeInput<'_>,
    scratch: &Path,
    rec: &Arc<Recorder>,
    m: &mut Metrics,
) -> io::Result<()> {
    let wal_path = input.env.dir.join("probe-concurrent.wal");
    let open = |log: StagedLog<FileLog>| -> io::Result<ConcurrentDiskRTree<FileStore>> {
        ConcurrentDiskRTree::open_writable(
            FileStore::open(scratch)?,
            input.scale.mixed_frames,
            LruPolicy::new(),
            GroupWal::open(TimedLog::new(log, Arc::clone(rec)))?,
        )
    };
    let tree = open(StagedLog::new(FileLog::create(&wal_path)?))?;
    let items = new_items(input, 300);
    rec.drain();
    rec.set_enabled(true);
    let t = Instant::now();
    for (rect, id) in &items {
        tree.insert(rect, *id)?;
    }
    m.set(
        "concurrent.insert_us",
        t.elapsed().as_nanos() as f64 / 1e3 / items.len() as f64,
    );
    let deleted = &items[..items.len() / 2];
    let t = Instant::now();
    for (rect, id) in deleted {
        if !tree.delete(rect, *id)? {
            return Err(io::Error::other("the concurrent probe lost an insert"));
        }
    }
    m.set(
        "concurrent.delete_us",
        t.elapsed().as_nanos() as f64 / 1e3 / deleted.len() as f64,
    );
    rec.set_enabled(false);
    let spans = rec.drain();
    let (appends, append_ns) = total_of(&spans, "wal.append");
    let (syncs, sync_ns) = total_of(&spans, "wal.sync");
    m.set("wal.append_ns", append_ns as f64 / appends.max(1) as f64);
    m.set("wal.sync_us", sync_ns as f64 / 1e3 / syncs.max(1) as f64);

    // Crash (nothing was checkpointed, so the image is untouched and the
    // log holds every operation), then restart.
    drop(tree);
    let t = Instant::now();
    let durable = FileLog::open(&wal_path)?.read_all()?;
    let tree = open(StagedLog::new(FileLog::create(
        input.env.dir.join("probe-restart.wal"),
    )?))?;
    let replayed = replay_committed(&durable, &tree)?;
    m.set("recovery.replay_ms", t.elapsed().as_nanos() as f64 / 1e6);
    let ops = replayed.applied_inserts + replayed.applied_deletes;
    m.set("recovery.ops_replayed", ops as f64);
    if ops != (items.len() + deleted.len()) as u64 {
        return Err(io::Error::other(format!(
            "replay applied {ops} of {} committed operations",
            items.len() + deleted.len()
        )));
    }

    let writes_before = tree.io_stats().writes;
    let t = Instant::now();
    tree.checkpoint()?;
    m.set(
        "concurrent.checkpoint_ms",
        t.elapsed().as_nanos() as f64 / 1e6,
    );
    m.set(
        "concurrent.checkpoint_pages_per_write",
        (tree.io_stats().writes - writes_before) as f64 / ops as f64,
    );
    Ok(())
}
