//! End-to-end server tests over real loopback TCP: serve on an ephemeral
//! port, drive with clients and the load generator, and check the typed
//! backpressure, shutdown, and error paths the ISSUE calls out.

use rtree_buffer::LruPolicy;
use rtree_core::Workload;
use rtree_datagen::ClusteredPoints;
use rtree_geom::Rect;
use rtree_index::{BulkLoader, RTree};
use rtree_pager::{ConcurrentDiskRTree, DiskRTree, MemStore};
use rtree_server::{
    loadgen, serve, BatchPolicy, Client, LoadConfig, QueryEngine, Request, Response,
    SequentialEngine, ServerConfig, ServerHandle, WriterEngine,
};
use rtree_sim::QuerySampler;
use std::sync::Arc;
use std::sync::Mutex;
use std::time::Duration;

fn build_tree(n: usize) -> RTree {
    let rects = ClusteredPoints::new(n, 16, 0.03).generate(0xFEED);
    BulkLoader::hilbert(16).load(&rects)
}

fn start_server(tree: &RTree, batch: BatchPolicy) -> ServerHandle<SequentialEngine<MemStore>> {
    let disk = DiskRTree::create(MemStore::new(), tree, 128, LruPolicy::new()).expect("tree");
    serve(
        SequentialEngine::new(disk, 0),
        "127.0.0.1:0",
        ServerConfig {
            batch,
            read_timeout: Duration::from_millis(10),
        },
    )
    .expect("bind ephemeral port")
}

#[test]
fn queries_over_tcp_match_direct_queries() {
    let tree = build_tree(2_000);
    let handle = start_server(&tree, BatchPolicy::default());
    let reference = DiskRTree::create(MemStore::new(), &tree, 128, LruPolicy::new()).expect("tree");

    let mut sampler = QuerySampler::new(&Workload::uniform_region(0.04, 0.04), 7);
    let mut client = Client::connect(handle.addr()).expect("connect");
    for _ in 0..64 {
        let q = sampler.sample();
        let mut want = reference.query(&q).expect("direct");
        want.sort_unstable();
        match client.call(&Request::Query(q)).expect("call") {
            Some(Response::Matches(mut ids)) => {
                ids.sort_unstable();
                assert_eq!(ids, want);
            }
            other => panic!("expected matches, got {other:?}"),
        }
        // Count queries agree with the match count.
        match client.call(&Request::Count(q)).expect("call") {
            Some(Response::Count(n)) => assert_eq!(n, want.len() as u64),
            other => panic!("expected count, got {other:?}"),
        }
    }
    handle.shutdown();
}

#[test]
fn point_queries_work_and_malformed_payloads_keep_the_stream_aligned() {
    let tree = build_tree(500);
    let handle = start_server(&tree, BatchPolicy::default());
    let mut client = Client::connect(handle.addr()).expect("connect");

    // A malformed payload inside a well-formed frame gets a typed Error…
    match client.call_raw(&[99u8]).expect("call") {
        Some(Response::Error(msg)) => assert!(msg.contains("unknown"), "got: {msg}"),
        other => panic!("expected error, got {other:?}"),
    }
    // …and the connection still works afterwards.
    match client.call(&Request::Point(0.5, 0.5)).expect("call") {
        Some(Response::Matches(_)) => {}
        other => panic!("expected matches after error, got {other:?}"),
    }
    handle.shutdown();
}

/// Requests written back to back before any answer is read — one
/// `write_all`, so they arrive in one `read` on the server — are each
/// answered, in order: bytes of the next frame are not dropped with the
/// read buffer of the one before.
#[test]
fn pipelined_requests_are_all_answered_in_order() {
    use rtree_server::wire::{encode_frame, recv_response};
    use std::io::Write;
    use std::net::TcpStream;

    let tree = build_tree(500);
    let handle = start_server(&tree, BatchPolicy::default());
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .expect("timeout");
    let mut send = |reqs: &[Request]| {
        let bytes: Vec<u8> = reqs
            .iter()
            .flat_map(|r| encode_frame(&r.encode()))
            .collect();
        stream.write_all(&bytes).expect("write");
        reqs.iter()
            .map(|_| recv_response(&mut stream).expect("answered").expect("open"))
            .collect::<Vec<_>>()
    };

    let stats = send(&[Request::Stats, Request::Stats]);
    assert!(
        stats.iter().all(|r| matches!(r, Response::Stats(_))),
        "{stats:?}"
    );

    let q = Rect::new(0.0, 0.0, 1.0, 1.0);
    match send(&[Request::Query(q), Request::Count(q)]).as_slice() {
        [Response::Matches(ids), Response::Count(n)] => assert_eq!(ids.len() as u64, *n),
        other => panic!("expected matches then count, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn overload_returns_typed_response_not_oom() {
    let tree = build_tree(500);
    // A paused batcher (workers never started) with a tiny queue: the
    // fourth submission must be refused with Overloaded.
    let disk = DiskRTree::create(MemStore::new(), &tree, 64, LruPolicy::new()).expect("tree");
    let engine = SequentialEngine::new(disk, 0);
    let batcher = rtree_server::MicroBatcher::new_paused(
        engine,
        BatchPolicy {
            queue_depth: 3,
            ..BatchPolicy::default()
        },
    );
    for i in 0..3 {
        batcher
            .submit(Rect::new(0.1, 0.1, 0.2, 0.2), false)
            .unwrap_or_else(|e| panic!("submission {i} refused: {e:?}"));
    }
    assert_eq!(
        batcher.submit(Rect::new(0.1, 0.1, 0.2, 0.2), false).err(),
        Some(rtree_server::SubmitError::Overloaded)
    );
    assert_eq!(batcher.stats().rejected, 1);
    // Draining still answers the accepted three.
    batcher.start();
    batcher.shutdown();
    assert_eq!(batcher.stats().completed, 3);
}

#[test]
fn shutdown_frame_drains_and_stops_the_server() {
    let tree = build_tree(1_000);
    let handle = start_server(&tree, BatchPolicy::default());
    let addr = handle.addr();

    let mut client = Client::connect(addr).expect("connect");
    for _ in 0..8 {
        client
            .call(&Request::Query(Rect::new(0.2, 0.2, 0.4, 0.4)))
            .expect("query before shutdown");
    }
    match client.call(&Request::Shutdown).expect("shutdown call") {
        Some(Response::ShuttingDown) => {}
        other => panic!("expected shutting-down ack, got {other:?}"),
    }
    let stats = handle.shutdown();
    assert!(handle.stopped());
    assert_eq!(stats.queries, 8, "every accepted query drained");

    // The listener is gone: new connections fail (immediately or on
    // first use).
    std::thread::sleep(Duration::from_millis(20));
    let refused = match Client::connect(addr) {
        Err(_) => true,
        Ok(mut c) => c.call(&Request::Stats).is_err(),
    };
    assert!(refused, "server still answering after shutdown");
}

#[test]
fn handle_shutdown_is_idempotent_and_finishes_inflight_work() {
    let tree = build_tree(1_000);
    let handle = Arc::new(start_server(
        &tree,
        BatchPolicy {
            max_batch: 16,
            max_wait: Duration::from_millis(1),
            ..BatchPolicy::default()
        },
    ));
    let addr = handle.addr();

    // Clients hammer while another thread shuts the server down; every
    // response that arrives must still be well-formed.
    let answered = Arc::new(Mutex::new(0u64));
    std::thread::scope(|scope| {
        for c in 0..4 {
            let answered = Arc::clone(&answered);
            scope.spawn(move || {
                let mut client = match Client::connect(addr) {
                    Ok(c) => c,
                    Err(_) => return,
                };
                let mut sampler =
                    QuerySampler::new(&Workload::uniform_region(0.03, 0.03), c as u64);
                for _ in 0..200 {
                    match client.call(&Request::Query(sampler.sample())) {
                        Ok(Some(Response::Matches(_))) => {
                            *answered.lock().unwrap() += 1;
                        }
                        Ok(Some(Response::ShuttingDown)) | Ok(None) | Err(_) => return,
                        Ok(Some(other)) => panic!("unexpected reply {other:?}"),
                    }
                }
            });
        }
        let handle2 = Arc::clone(&handle);
        scope.spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            handle2.shutdown();
            handle2.shutdown(); // idempotent
        });
    });
    let stats = handle.stats();
    assert!(
        stats.queries >= *answered.lock().unwrap(),
        "server answered more than it completed"
    );
}

#[test]
fn loadgen_reports_reconciled_stats() {
    let tree = build_tree(3_000);
    let handle = start_server(&tree, BatchPolicy::default());

    let report = loadgen::run(
        handle.addr(),
        &LoadConfig {
            connections: 4,
            queries: 400,
            target_qps: 0.0,
            workload: Workload::uniform_region(0.03, 0.03),
            count_fraction: 0.25,
            write_fraction: 0.0,
            seed: 11,
            shutdown_after: false,
        },
    )
    .expect("load run");

    assert_eq!(report.ok, 400, "closed loop completes everything");
    assert_eq!(report.errors, 0);
    assert_eq!(report.overloaded, 0);
    assert_eq!(report.latency_ns.count(), report.ok);
    assert!(report.achieved_qps() > 0.0);

    // The server's own counters reconcile with the client's view.
    let delta = report.stats_after.queries - report.stats_before.queries;
    assert_eq!(delta, 400, "server completed exactly the offered queries");
    assert!(report.stats_after.batches > 0);
    assert!(report.reads_per_query() > 0.0, "a cold tree is read");

    let final_stats = handle.shutdown();
    assert_eq!(final_stats.queries, handle.batcher().stats().completed);
}

#[test]
fn loadgen_open_loop_paces_and_shutdown_after_stops_server() {
    let tree = build_tree(1_000);
    let handle = start_server(&tree, BatchPolicy::default());

    let report = loadgen::run(
        handle.addr(),
        &LoadConfig {
            connections: 2,
            queries: 50,
            target_qps: 2_000.0,
            workload: Workload::uniform_point(),
            count_fraction: 0.0,
            write_fraction: 0.0,
            seed: 3,
            shutdown_after: true,
        },
    )
    .expect("load run");
    assert_eq!(report.ok, 50);
    // Open loop at 2k qps: 50 queries take at least ~25ms of schedule.
    assert!(report.elapsed >= Duration::from_millis(20));
    assert!(handle.stopped(), "shutdown_after set the stop flag");
    handle.shutdown();
}

#[test]
fn sharded_read_only_tree_serves_identical_results() {
    let tree = build_tree(2_000);
    let concurrent =
        ConcurrentDiskRTree::create_sharded(MemStore::new(), &tree, 128, 4, LruPolicy::new)
            .expect("sharded tree");
    let handle = serve(
        WriterEngine::new(concurrent, 2, 2, true),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("serve sharded");

    let reference = DiskRTree::create(MemStore::new(), &tree, 128, LruPolicy::new()).expect("tree");
    let mut sampler = QuerySampler::new(&Workload::uniform_region(0.04, 0.04), 23);
    let mut client = Client::connect(handle.addr()).expect("connect");
    for _ in 0..32 {
        let q = sampler.sample();
        let mut want = reference.query(&q).expect("direct");
        want.sort_unstable();
        match client.call(&Request::Query(q)).expect("call") {
            Some(Response::Matches(mut ids)) => {
                ids.sort_unstable();
                assert_eq!(ids, want);
            }
            other => panic!("expected matches, got {other:?}"),
        }
    }
    let stats = handle.shutdown();
    assert_eq!(stats.queries, 32);
    let _ = handle.batcher().engine().io_stats();
}

#[test]
fn replay_partitions_across_connections_in_order() {
    let tree = build_tree(1_500);
    let handle = start_server(&tree, BatchPolicy::default());
    let reference = DiskRTree::create(MemStore::new(), &tree, 128, LruPolicy::new()).expect("tree");

    let mut sampler = QuerySampler::new(&Workload::uniform_region(0.05, 0.05), 99);
    let rects: Vec<Rect> = (0..40).map(|_| sampler.sample()).collect();
    let got = loadgen::replay(handle.addr(), &rects, 5).expect("replay");
    assert_eq!(got.len(), rects.len());
    for (q, mut ids) in rects.iter().zip(got) {
        let mut want = reference.query(q).expect("direct");
        want.sort_unstable();
        ids.sort_unstable();
        assert_eq!(ids, want);
    }
    handle.shutdown();
}

#[test]
fn writer_server_serves_reads_its_own_writes_durably() {
    use rtree_wal::{GroupWal, MemLog};

    let wal = GroupWal::open(MemLog::new()).expect("wal");
    let tree =
        ConcurrentDiskRTree::create_writable(MemStore::new(), 16, 4, 128, LruPolicy::new(), wal)
            .expect("writable tree");
    let handle = serve(
        WriterEngine::new(tree, 2, 4, true),
        "127.0.0.1:0",
        ServerConfig {
            batch: BatchPolicy::default(),
            read_timeout: Duration::from_millis(10),
        },
    )
    .expect("bind ephemeral port");

    // Read-your-writes over the wire: insert, query, delete, re-delete.
    let mut client = Client::connect(handle.addr()).expect("connect");
    let r = Rect::new(0.40, 0.40, 0.41, 0.41);
    match client.call(&Request::Insert(r, 777)).expect("call") {
        Some(Response::Written(true)) => {}
        other => panic!("expected Written(true), got {other:?}"),
    }
    match client.call(&Request::Query(r)).expect("call") {
        Some(Response::Matches(ids)) => assert!(ids.contains(&777), "insert is visible"),
        other => panic!("expected matches, got {other:?}"),
    }
    match client.call(&Request::Delete(r, 777)).expect("call") {
        Some(Response::Written(true)) => {}
        other => panic!("expected Written(true), got {other:?}"),
    }
    match client.call(&Request::Delete(r, 777)).expect("call") {
        Some(Response::Written(false)) => {}
        other => panic!("expected Written(false) for a gone entry, got {other:?}"),
    }

    // Mixed closed-loop load: every op answered, write counters reconcile.
    let report = loadgen::run(
        handle.addr(),
        &LoadConfig {
            connections: 4,
            queries: 200,
            target_qps: 0.0,
            workload: Workload::uniform_region(0.02, 0.02),
            count_fraction: 0.0,
            write_fraction: 0.3,
            seed: 9,
            shutdown_after: false,
        },
    )
    .expect("load run");
    assert_eq!(report.errors, 0);
    assert_eq!(report.overloaded, 0);
    assert_eq!(report.ok + report.writes_ok, 200, "every op answered");
    assert!(
        (55..=65).contains(&(report.writes_ok as i64)),
        "~30% of 200 ops are writes, got {}",
        report.writes_ok
    );
    let wrote = report.stats_after.writes - report.stats_before.writes;
    assert_eq!(wrote, report.writes_ok, "server write counter reconciles");
    assert!(report.stats_after.wal_fsyncs > 0, "writes hit the WAL");
    assert!(report.stats_after.commit_batches > 0);
    assert!(report.write_latency_ns.count() == report.writes_ok);

    let stats = handle.shutdown();
    assert_eq!(
        stats.writes, report.stats_after.writes,
        "no writes after the run"
    );
}

#[test]
fn read_only_server_answers_writes_with_a_typed_error() {
    let tree = build_tree(200);
    answers_writes_with_a_typed_error(start_server(&tree, BatchPolicy::default()));
    // The concurrent engine over a read-only tree refuses per op as well.
    let concurrent =
        ConcurrentDiskRTree::create_sharded(MemStore::new(), &tree, 64, 1, LruPolicy::new)
            .expect("tree");
    let engine = WriterEngine::new(concurrent, 2, 2, true);
    answers_writes_with_a_typed_error(
        serve(engine, "127.0.0.1:0", ServerConfig::default()).expect("serve"),
    );
}

fn answers_writes_with_a_typed_error<E: QueryEngine>(handle: ServerHandle<E>) {
    let mut client = Client::connect(handle.addr()).expect("connect");
    let r = Rect::new(0.1, 0.1, 0.2, 0.2);
    match client.call(&Request::Insert(r, 1)).expect("call") {
        Some(Response::Error(msg)) => assert!(msg.contains("read-only"), "got: {msg}"),
        other => panic!("expected a typed error, got {other:?}"),
    }
    // The stream stays aligned: a query still works.
    match client.call(&Request::Query(r)).expect("call") {
        Some(Response::Matches(_)) => {}
        other => panic!("expected matches, got {other:?}"),
    }
    handle.shutdown();
}
