//! The chaos engine: executes a [`ChaosPlan`] against the real disk tree
//! stack with faults armed, then checks the run against three oracles.
//!
//! * **Differential** — every query answered by the disk tree (before the
//!   crash, after recovery, from the concurrent reader, after the
//!   concurrent-mutator quiesce, and while the self-tuning controller
//!   resizes and re-pins the pool underneath) must equal the answer of an
//!   in-memory reference tree that applied exactly the committed
//!   operations.
//! * **Durability** — after the simulated reboot, `recover` must restore
//!   exactly the committed prefix: item counts and query results match the
//!   reference, nothing more and nothing less. The mutator phase then
//!   crashes a *writable* concurrent tree without a checkpoint and demands
//!   that logical replay restores every group-committed mutation.
//! * **Accounting** — the trace event stream must reconcile with the
//!   counters the buffer manager keeps anyway (`IoStats`, `BufferStats`),
//!   on both the sequential and the sharded concurrent path.
//!
//! Oracle violations are *recorded*, never panicked on: the report drives
//! shrinking and the CLI exit code.

use crate::plan::{ChaosOp, ChaosPlan, FaultPlan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtree_buffer::LruPolicy;
use rtree_buffer::PageId;
use rtree_core::TreeDescription;
use rtree_exec::{BatchConfig, BatchExecutor};
use rtree_geom::Rect;
use rtree_index::{RTree, RTreeBuilder};
use rtree_obs::{CountingSink, TraceSink, TuneObserver};
use rtree_pager::{
    recover, replay_committed, ConcurrentDiskRTree, DiskRTree, FaultStore, MemStore, PageStore,
    SharedMemStore, StepSchedule, StepStore, PAGE_SIZE,
};
use rtree_tune::{Actuator, Controller, ControllerConfig, DiskActuator, Setting};
use rtree_wal::{CrashSwitch, FaultLog, GroupWal, LogBackend, MemLog, StagedLog, Wal};
use std::fmt;
use std::sync::{Arc, Mutex};

/// Which oracle a failure came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Oracle {
    /// Disk tree and model tree disagreed on a query result.
    Differential,
    /// Recovery did not restore exactly the committed prefix.
    Durability,
    /// Trace events did not reconcile with the I/O / pool counters.
    Accounting,
}

impl fmt::Display for Oracle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Oracle::Differential => write!(f, "differential"),
            Oracle::Durability => write!(f, "durability"),
            Oracle::Accounting => write!(f, "accounting"),
        }
    }
}

/// One oracle violation.
#[derive(Clone, Debug)]
pub struct ChaosFailure {
    /// The oracle that fired.
    pub oracle: Oracle,
    /// Human-readable description of the violation.
    pub detail: String,
}

/// The outcome of one chaos run — everything the CLI prints and the
/// shrinker bisects on.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// The run seed.
    pub seed: u64,
    /// Operations requested (`--ops`).
    pub ops_requested: usize,
    /// Operations that fully committed before the fault (or all of them).
    pub ops_executed: usize,
    /// Whether the injected fault actually fired.
    pub crashed: bool,
    /// The fault schedule the seed generated.
    pub fault: FaultPlan,
    /// Items in the reference tree at the end of the committed prefix.
    pub committed_items: u64,
    /// Query results compared across all phases.
    pub queries_checked: usize,
    /// Oracle violations, in detection order.
    pub failures: Vec<ChaosFailure>,
}

impl ChaosReport {
    /// True when every oracle held.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// The exact command line that reproduces this run.
    pub fn replay_line(&self) -> String {
        format!(
            "rtrees chaos --seed {} --ops {}",
            self.seed, self.ops_requested
        )
    }
}

/// Runs the plan for `seed` with `ops` operations; all oracles, no planted
/// bug.
pub fn run(seed: u64, ops: usize) -> ChaosReport {
    run_plan(&ChaosPlan::generate(seed, ops), false)
}

/// Like [`run`] but with a deliberately planted differential bug (a phantom
/// id appended to disk query results once more than eight operations have
/// executed). Used to verify that the oracles catch real divergence and
/// that shrinking converges.
pub fn run_planted(seed: u64, ops: usize) -> ChaosReport {
    run_plan(&ChaosPlan::generate(seed, ops), true)
}

/// Operations a planted bug waits for before corrupting query results —
/// small, so planted failures shrink to short prefixes.
const PLANT_AFTER: usize = 8;

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

/// Byte-for-byte copy of a store's pages into a fresh [`MemStore`]
/// (`MemStore` is deliberately not `Clone`; the harness copies at the
/// `PageStore` level instead).
fn copy_store(src: &mut MemStore) -> std::io::Result<MemStore> {
    let mut dst = MemStore::new();
    let mut buf = vec![0u8; PAGE_SIZE];
    for id in 0..src.page_count() {
        dst.allocate()?;
        src.read_page(PageId(id), &mut buf)?;
        dst.write_page(PageId(id), &buf)?;
    }
    Ok(dst)
}

/// Executes `plan` end to end. See the module docs for the phase structure.
pub fn run_plan(plan: &ChaosPlan, plant: bool) -> ChaosReport {
    let mut report = ChaosReport {
        seed: plan.seed,
        ops_requested: plan.ops.len(),
        ops_executed: 0,
        crashed: false,
        fault: plan.fault,
        committed_items: 0,
        queries_checked: 0,
        failures: Vec::new(),
    };

    // ---- Phase 1: sequential workload with the fault armed. -------------
    let switch = CrashSwitch::new();
    let log = MemLog::new();
    let store = {
        let s = FaultStore::new(MemStore::new(), switch.clone());
        match plan.fault {
            FaultPlan::StoreCrash { at, torn } => s.crash_at_write(at, torn),
            FaultPlan::ShortAppend { at } => s.crash_at_allocate(at),
            FaultPlan::ReadFault { at } => s.fail_read_at(at),
            FaultPlan::None | FaultPlan::LogCrash { .. } => s,
        }
    };
    let mut disk = match DiskRTree::create_empty(
        store,
        plan.max_entries,
        plan.min_entries,
        plan.buffer_capacity,
        plan.policy.build(plan.policy_seed),
    ) {
        Ok(d) => d,
        Err(e) => {
            report.failures.push(ChaosFailure {
                oracle: Oracle::Durability,
                detail: format!("create_empty failed before any op: {e}"),
            });
            return report;
        }
    };
    let wal = match plan.fault {
        FaultPlan::LogCrash { at, torn } => {
            Wal::open(FaultLog::new(log.clone(), switch.clone()).crash_at_append(at, torn))
        }
        _ => Wal::open(log.clone()),
    };
    match wal {
        Ok(w) => disk.attach_wal(w),
        Err(e) => {
            report.failures.push(ChaosFailure {
                oracle: Oracle::Durability,
                detail: format!("WAL open failed: {e}"),
            });
            return report;
        }
    }

    let mut reference = RTreeBuilder::new(plan.max_entries)
        .min_entries(plan.min_entries)
        .build();
    let mut live: Vec<(Rect, u64)> = Vec::new();
    let mut next_id = 0u64;

    for op in &plan.ops {
        let result = match op {
            ChaosOp::Insert(rect) => {
                let id = next_id;
                match disk.insert(*rect, id) {
                    Ok(()) => {
                        next_id += 1;
                        live.push((*rect, id));
                        reference.insert(*rect, id);
                        Ok(())
                    }
                    Err(e) => Err(e),
                }
            }
            ChaosOp::Delete(pick) => {
                if live.is_empty() {
                    Ok(())
                } else {
                    let k = (*pick % live.len() as u64) as usize;
                    let (rect, id) = live[k];
                    match disk.delete(&rect, id) {
                        Ok(found) => {
                            if !found {
                                report.failures.push(ChaosFailure {
                                    oracle: Oracle::Differential,
                                    detail: format!(
                                        "live entry {id} missing from disk tree on delete"
                                    ),
                                });
                            }
                            live.swap_remove(k);
                            if !reference.delete(&rect, id) {
                                report.failures.push(ChaosFailure {
                                    oracle: Oracle::Differential,
                                    detail: format!("reference lost live entry {id}"),
                                });
                            }
                            Ok(())
                        }
                        Err(e) => Err(e),
                    }
                }
            }
            ChaosOp::Query(rect) => match disk.query(rect) {
                Ok(mut got) => {
                    if plant && report.ops_executed > PLANT_AFTER {
                        // The deliberately planted bug: a phantom id the
                        // reference tree never saw.
                        got.push(u64::MAX);
                    }
                    report.queries_checked += 1;
                    let want = sorted(reference.search(rect));
                    let got = sorted(got);
                    if got != want {
                        report.failures.push(ChaosFailure {
                            oracle: Oracle::Differential,
                            detail: format!(
                                "pre-crash query {rect}: disk {} ids vs reference {} ids",
                                got.len(),
                                want.len()
                            ),
                        });
                    }
                    Ok(())
                }
                Err(e) => Err(e),
            },
            ChaosOp::BatchQuery(rects) => {
                let exec = BatchExecutor::with_config(BatchConfig {
                    prefetch_window: plan.batch_window,
                });
                match exec.execute(&mut disk, rects) {
                    Ok(out) => {
                        report.queries_checked += rects.len();
                        for (i, rect) in rects.iter().enumerate() {
                            let got = sorted(out.results[i].clone());
                            let want = sorted(reference.search(rect));
                            if got != want {
                                report.failures.push(ChaosFailure {
                                    oracle: Oracle::Differential,
                                    detail: format!(
                                        "pre-crash batch query {rect} ({i} of {}): \
                                         disk {} ids vs reference {} ids",
                                        rects.len(),
                                        got.len(),
                                        want.len()
                                    ),
                                });
                            }
                        }
                        Ok(())
                    }
                    Err(e) => Err(e),
                }
            }
            ChaosOp::ServerQuery(rects) => {
                // The network replay happens post-recovery (phase 5); here
                // the same rectangles run directly so the sequential phase
                // sees the workload too and the committed prefix is what
                // the shadow oracle later expects.
                let mut r = Ok(());
                for rect in rects {
                    match disk.query(rect) {
                        Ok(got) => {
                            report.queries_checked += 1;
                            let got = sorted(got);
                            let want = sorted(reference.search(rect));
                            if got != want {
                                report.failures.push(ChaosFailure {
                                    oracle: Oracle::Differential,
                                    detail: format!(
                                        "pre-crash server-query {rect}: disk {} ids vs \
                                         reference {} ids",
                                        got.len(),
                                        want.len()
                                    ),
                                });
                            }
                        }
                        Err(e) => {
                            r = Err(e);
                            break;
                        }
                    }
                }
                r
            }
            ChaosOp::Checkpoint => disk.checkpoint(),
            ChaosOp::Flush => disk.flush(),
            ChaosOp::Resize(frames) => {
                disk.resize_buffer(*frames, plan.policy.build(plan.policy_seed))
            }
        };
        // The first injected fault aborts the run mid-operation; the
        // reference holds exactly the committed prefix.
        if result.is_err() {
            report.crashed = true;
            break;
        }
        report.ops_executed += 1;
    }
    report.committed_items = reference.len() as u64;

    // ---- Phase 2: reboot + durability oracle. ---------------------------
    // Buffered state (dirty frames included) is discarded, the switch is
    // reset (the machine came back up), and the log replays against the
    // surviving bytes.
    switch.reset();
    let mut store = disk.into_store().into_inner();
    let log_bytes = match log.read_all() {
        Ok(b) => b,
        Err(e) => {
            report.failures.push(ChaosFailure {
                oracle: Oracle::Durability,
                detail: format!("reading surviving log failed: {e}"),
            });
            return report;
        }
    };
    if let Err(e) = recover(&mut store, &log_bytes) {
        report.failures.push(ChaosFailure {
            oracle: Oracle::Durability,
            detail: format!("recover failed: {e}"),
        });
        return report;
    }
    let mut recovered = match DiskRTree::open(store, 64, LruPolicy::new()) {
        Ok(t) => t,
        Err(e) => {
            report.failures.push(ChaosFailure {
                oracle: Oracle::Durability,
                detail: format!("opening recovered tree failed: {e}"),
            });
            return report;
        }
    };

    if recovered.meta().items != reference.len() as u64 {
        report.failures.push(ChaosFailure {
            oracle: Oracle::Durability,
            detail: format!(
                "recovered item count {} != committed {}",
                recovered.meta().items,
                reference.len()
            ),
        });
    }
    let everything = Rect::new(0.0, 0.0, 1.0, 1.0);
    let mut recovered_queries: Vec<Rect> = vec![everything];
    recovered_queries.extend(plan.query_rects());
    // Extra sampled probes, from an RNG stream independent of the plan's.
    let mut probe_rng = StdRng::seed_from_u64(plan.seed ^ 0x5EED_D00D_CAFE_F00D);
    for _ in 0..8 {
        let x = probe_rng.gen_range(0.0..0.8);
        let y = probe_rng.gen_range(0.0..0.8);
        recovered_queries.push(Rect::new(
            x,
            y,
            x + probe_rng.gen_range(0.01..0.3),
            y + probe_rng.gen_range(0.01..0.3),
        ));
    }
    for rect in &recovered_queries {
        match recovered.query(rect) {
            Ok(got) => {
                report.queries_checked += 1;
                let got = sorted(got);
                let want = sorted(reference.search(rect));
                if got != want {
                    report.failures.push(ChaosFailure {
                        oracle: Oracle::Durability,
                        detail: format!(
                            "post-recovery query {rect}: disk {} ids vs reference {} ids",
                            got.len(),
                            want.len()
                        ),
                    });
                }
            }
            Err(e) => {
                report.failures.push(ChaosFailure {
                    oracle: Oracle::Durability,
                    detail: format!("post-recovery query {rect} failed: {e}"),
                });
            }
        }
    }

    let mut store = recovered.into_store();

    // ---- Phase 3: concurrent readers under a seeded schedule. -----------
    run_concurrent_phase(plan, &mut store, &reference, &mut report);

    // ---- Phase 4: the network path against the same shadow oracle. ------
    run_server_phase(plan, &mut store, &reference, &mut report);

    // ---- Phase 5: concurrent mutators + group-commit durability. --------
    run_mutator_phase(plan, &mut store, &reference, &mut report);

    // ---- Phase 6: the self-tuning controller under the same oracles. ----
    run_adaptive_phase(plan, &mut store, &reference, &mut report);

    // ---- Phase 7: sequential accounting oracle (consumes the store). ----
    run_accounting_phase(plan, store, &mut report);

    report
}

/// Replays the plan's `ServerQuery` rectangles through a loopback TCP
/// server wrapping a copy of the recovered store, from `plan.threads`
/// client connections, and checks every response against the reference
/// tree plus the server's own stats reconciliation. Seeded replays now
/// cover frame encode/decode, the micro-batching scheduler, and the
/// connection demux — the whole network path.
fn run_server_phase(
    plan: &ChaosPlan,
    store: &mut MemStore,
    reference: &RTree,
    report: &mut ChaosReport,
) {
    let rects = plan.server_query_rects();
    if rects.is_empty() {
        return;
    }
    let copy = match copy_store(store) {
        Ok(c) => c,
        Err(e) => {
            report.failures.push(ChaosFailure {
                oracle: Oracle::Differential,
                detail: format!("copying store for server phase failed: {e}"),
            });
            return;
        }
    };
    let disk = match DiskRTree::open(
        copy,
        plan.buffer_capacity,
        plan.policy.build(plan.policy_seed),
    ) {
        Ok(d) => d,
        Err(e) => {
            report.failures.push(ChaosFailure {
                oracle: Oracle::Differential,
                detail: format!("opening tree for server phase failed: {e}"),
            });
            return;
        }
    };
    let handle = match rtree_server::serve(
        rtree_server::SequentialEngine::new(disk, plan.batch_window),
        "127.0.0.1:0",
        rtree_server::ServerConfig {
            batch: rtree_server::BatchPolicy {
                // Window sized from the plan so seeds sweep both the
                // count-closed and deadline-closed regimes.
                max_batch: (plan.threads * 2).max(2),
                max_wait: std::time::Duration::from_micros(300),
                ..rtree_server::BatchPolicy::default()
            },
            read_timeout: std::time::Duration::from_millis(5),
        },
    ) {
        Ok(h) => h,
        Err(e) => {
            report.failures.push(ChaosFailure {
                oracle: Oracle::Differential,
                detail: format!("loopback server failed to start: {e}"),
            });
            return;
        }
    };

    match rtree_server::loadgen::replay(handle.addr(), &rects, plan.threads) {
        Ok(results) => {
            report.queries_checked += rects.len();
            for (i, (rect, got)) in rects.iter().zip(results).enumerate() {
                let got = sorted(got);
                let want = sorted(reference.search(rect));
                if got != want {
                    report.failures.push(ChaosFailure {
                        oracle: Oracle::Differential,
                        detail: format!(
                            "server query {rect} ({i} of {}): served {} ids vs \
                             reference {} ids",
                            rects.len(),
                            got.len(),
                            want.len()
                        ),
                    });
                }
            }
        }
        Err(e) => {
            report.failures.push(ChaosFailure {
                oracle: Oracle::Differential,
                detail: format!("server replay failed: {e}"),
            });
        }
    }

    // Shutdown must drain; afterwards the server's ledger has to
    // reconcile: every replayed query completed, and the I/O split holds.
    let stats = handle.shutdown();
    if stats.queries != rects.len() as u64 {
        report.failures.push(ChaosFailure {
            oracle: Oracle::Accounting,
            detail: format!(
                "server completed {} queries, replay sent {}",
                stats.queries,
                rects.len()
            ),
        });
    }
    if stats.physical_reads != stats.demand_reads + stats.prefetch_reads {
        report.failures.push(ChaosFailure {
            oracle: Oracle::Accounting,
            detail: format!(
                "server read ledger split broken: {} != {} + {}",
                stats.physical_reads, stats.demand_reads, stats.prefetch_reads
            ),
        });
    }
    if stats.rejected != 0 {
        report.failures.push(ChaosFailure {
            oracle: Oracle::Accounting,
            detail: format!(
                "closed-loop replay was rejected {} times by backpressure",
                stats.rejected
            ),
        });
    }
}

/// One pre-generated step of a mutator thread's program.
enum MutOp {
    Insert(Rect, u64),
    Delete(Rect, u64),
}

/// Opens the recovered image as a *writable* latch-crabbing tree over a
/// [`StagedLog`]-backed group-commit WAL and runs `plan.threads` mutator
/// threads (disjoint id spaces, delete-own-only) against `plan.threads`
/// concurrent reader threads. Two oracles follow the quiesce:
///
/// * **Differential** — because ids are disjoint and every delete targets
///   an id its own thread inserted earlier, the final item set is
///   order-independent: exactly the recovered reference plus each thread's
///   surviving inserts. Every probe query must agree with that set, from
///   the live tree and again after recovery.
/// * **Durability** — the tree is then dropped *without* a checkpoint (the
///   crash), and [`replay_committed`] rebuilds it from the recovered image
///   plus the bytes that reached the durable medium. Every mutation
///   acknowledged before the crash rode a group-committed batch whose
///   leader fsynced, so recovery must restore all of them.
fn run_mutator_phase(
    plan: &ChaosPlan,
    store: &mut MemStore,
    reference: &RTree,
    report: &mut ChaosReport,
) {
    let fail = |report: &mut ChaosReport, oracle: Oracle, detail: String| {
        report.failures.push(ChaosFailure { oracle, detail });
    };

    // The recovered image, byte for byte — both the mutation base and the
    // post-crash replay base.
    let mut image = Vec::new();
    let mut buf = vec![0u8; PAGE_SIZE];
    for id in 0..store.page_count() {
        if let Err(e) = store.read_page(PageId(id), &mut buf) {
            fail(
                report,
                Oracle::Differential,
                format!("imaging store for mutator phase failed: {e}"),
            );
            return;
        }
        image.extend_from_slice(&buf);
    }

    // Durable medium: bytes reach `durable` only on sync, exactly what a
    // crashed machine's disk keeps.
    let durable = MemLog::new();
    let wal = match GroupWal::open(StagedLog::new(durable.clone())) {
        Ok(w) => w,
        Err(e) => {
            fail(
                report,
                Oracle::Durability,
                format!("mutator-phase WAL open failed: {e}"),
            );
            return;
        }
    };
    let capacity = plan.buffer_capacity.max(8);
    let tree = match ConcurrentDiskRTree::open_writable(
        SharedMemStore::from_bytes(image.clone()),
        capacity,
        plan.policy.build(plan.policy_seed),
        wal.clone(),
    ) {
        Ok(t) => t,
        Err(e) => {
            fail(
                report,
                Oracle::Differential,
                format!("opening writable tree for mutator phase failed: {e}"),
            );
            return;
        }
    };

    // Pre-generate each thread's program. Id space: bit 41 set, thread in
    // the next byte — disjoint from phase-1 ids and from each other.
    let mut rng = StdRng::seed_from_u64(plan.seed ^ 0xC4AB_C0DE_5EED_D00Du64);
    let ops_per_thread = rng.gen_range(12..=28usize);
    let mut programs: Vec<Vec<MutOp>> = Vec::new();
    for t in 0..plan.threads as u64 {
        let mut program = Vec::new();
        let mut own_live: Vec<(Rect, u64)> = Vec::new();
        for i in 0..ops_per_thread as u64 {
            let delete_own = !own_live.is_empty() && rng.gen_bool(0.35);
            if delete_own {
                let k = rng.gen_range(0..own_live.len());
                let (r, id) = own_live.swap_remove(k);
                program.push(MutOp::Delete(r, id));
            } else {
                let x = rng.gen_range(0.0..0.9);
                let y = rng.gen_range(0.0..0.9);
                let r = Rect::new(
                    x,
                    y,
                    x + rng.gen_range(0.001..0.08),
                    y + rng.gen_range(0.001..0.08),
                );
                let id = (3u64 << 40) | (t << 32) | i;
                own_live.push((r, id));
                program.push(MutOp::Insert(r, id));
            }
        }
        programs.push(program);
    }
    let survivors: Vec<(Rect, u64)> = programs
        .iter()
        .flat_map(|program| {
            let mut live = std::collections::HashMap::new();
            for op in program {
                match op {
                    MutOp::Insert(r, id) => {
                        live.insert(*id, *r);
                    }
                    MutOp::Delete(_, id) => {
                        live.remove(id);
                    }
                }
            }
            live.into_iter().map(|(id, r)| (r, id))
        })
        .collect();
    let total_ops: usize = programs.iter().map(Vec::len).sum();

    // Mutators and readers interleave freely; errors are oracle failures,
    // reader *results* are unverifiable mid-mutation and only checked for
    // successful delivery.
    let probes = plan.query_rects();
    let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for program in &programs {
            let tree = &tree;
            let errors = &errors;
            scope.spawn(move || {
                for op in program {
                    let r = match op {
                        MutOp::Insert(rect, id) => tree.insert(rect, *id).map(|()| true),
                        MutOp::Delete(rect, id) => tree.delete(rect, *id),
                    };
                    match r {
                        Ok(true) => {}
                        Ok(false) => errors
                            .lock()
                            .unwrap()
                            .push("mutator delete missed its own insert".into()),
                        Err(e) => errors
                            .lock()
                            .unwrap()
                            .push(format!("mutator op failed: {e}")),
                    }
                }
            });
        }
        for t in 0..plan.threads {
            let tree = &tree;
            let errors = &errors;
            let probes = &probes;
            scope.spawn(move || {
                for q in probes.iter().skip(t % 2) {
                    if let Err(e) = tree.query(q) {
                        errors
                            .lock()
                            .unwrap()
                            .push(format!("reader query {q} during mutation failed: {e}"));
                    }
                }
            });
        }
    });
    for detail in errors.into_inner().unwrap() {
        fail(report, Oracle::Differential, detail);
    }

    // Quiesced: the final set is deterministic. Check the live tree...
    let expected = |q: &Rect| -> Vec<u64> {
        let mut want = reference.search(q);
        want.extend(
            survivors
                .iter()
                .filter(|(r, _)| r.intersects(q))
                .map(|(_, id)| *id),
        );
        sorted(want)
    };
    let want_items = reference.len() as u64 + survivors.len() as u64;
    if tree.live_items() != want_items {
        fail(
            report,
            Oracle::Differential,
            format!(
                "mutated tree holds {} items, expected {}",
                tree.live_items(),
                want_items
            ),
        );
    }
    let everything = Rect::new(0.0, 0.0, 1.0, 1.0);
    let mut check_rects = vec![everything];
    check_rects.extend(probes.iter().copied());
    for q in &check_rects {
        report.queries_checked += 1;
        match tree.query(q) {
            Ok(got) => {
                if sorted(got) != expected(q) {
                    fail(
                        report,
                        Oracle::Differential,
                        format!("post-mutation query {q} diverged from shadow oracle"),
                    );
                }
            }
            Err(e) => fail(
                report,
                Oracle::Differential,
                format!("post-mutation query {q} failed: {e}"),
            ),
        }
    }
    // Group-commit accounting: every op durable, never more fsyncs than ops.
    let gstats = tree.group_commit_stats().unwrap_or_default();
    if gstats.committed_ops != total_ops as u64 {
        fail(
            report,
            Oracle::Durability,
            format!(
                "group commit covered {} ops, mutators ran {}",
                gstats.committed_ops, total_ops
            ),
        );
    }
    if gstats.fsyncs > total_ops as u64 {
        fail(
            report,
            Oracle::Durability,
            format!(
                "{} fsyncs for {} ops — group commit amplified syncs",
                gstats.fsyncs, total_ops
            ),
        );
    }

    // ...then crash without a checkpoint and replay the committed log onto
    // the pre-mutation image.
    drop(tree);
    let survived = match durable.read_all() {
        Ok(b) => b,
        Err(e) => {
            fail(
                report,
                Oracle::Durability,
                format!("reading surviving mutator log failed: {e}"),
            );
            return;
        }
    };
    let recovered = match ConcurrentDiskRTree::open_writable(
        SharedMemStore::from_bytes(image),
        capacity,
        plan.policy.build(plan.policy_seed),
        match GroupWal::open(MemLog::new()) {
            Ok(w) => w,
            Err(e) => {
                fail(
                    report,
                    Oracle::Durability,
                    format!("post-crash WAL open failed: {e}"),
                );
                return;
            }
        },
    ) {
        Ok(t) => t,
        Err(e) => {
            fail(
                report,
                Oracle::Durability,
                format!("reopening crashed mutator store failed: {e}"),
            );
            return;
        }
    };
    match replay_committed(&survived, &recovered) {
        Ok(summary) => {
            if !summary.clean_log {
                fail(
                    report,
                    Oracle::Durability,
                    "mutator log scan stopped at a torn frame despite clean shutdown".into(),
                );
            }
            if summary.applied_inserts + summary.applied_deletes != total_ops as u64 {
                fail(
                    report,
                    Oracle::Durability,
                    format!(
                        "replay applied {} of {} acknowledged mutations",
                        summary.applied_inserts + summary.applied_deletes,
                        total_ops
                    ),
                );
            }
        }
        Err(e) => {
            fail(
                report,
                Oracle::Durability,
                format!("replaying committed mutator ops failed: {e}"),
            );
            return;
        }
    }
    if recovered.live_items() != want_items {
        fail(
            report,
            Oracle::Durability,
            format!(
                "recovered mutated tree holds {} items, expected {}",
                recovered.live_items(),
                want_items
            ),
        );
    }
    for q in &check_rects {
        report.queries_checked += 1;
        match recovered.query(q) {
            Ok(got) => {
                if sorted(got) != expected(q) {
                    fail(
                        report,
                        Oracle::Durability,
                        format!("post-crash query {q} lost a group-committed mutation"),
                    );
                }
            }
            Err(e) => fail(
                report,
                Oracle::Durability,
                format!("post-crash query {q} failed: {e}"),
            ),
        }
    }
}

/// Opens a copy of the recovered store behind a [`StepStore`] (which
/// perturbs thread timing per the plan's schedule seed), queries it from
/// `plan.threads` threads, and reconciles the trace events against the
/// shard counters after the threads join.
fn run_concurrent_phase(
    plan: &ChaosPlan,
    store: &mut MemStore,
    reference: &RTree,
    report: &mut ChaosReport,
) {
    let copy = match copy_store(store) {
        Ok(c) => c,
        Err(e) => {
            report.failures.push(ChaosFailure {
                oracle: Oracle::Differential,
                detail: format!("copying store for concurrent phase failed: {e}"),
            });
            return;
        }
    };
    let stepped = StepStore::new(copy, StepSchedule::from_seed(plan.sched_seed));
    let mut tree = match ConcurrentDiskRTree::open_sharded(
        stepped,
        plan.buffer_capacity,
        plan.shards,
        || -> Box<dyn rtree_buffer::ReplacementPolicy> { Box::new(LruPolicy::new()) },
    ) {
        Ok(t) => t,
        Err(e) => {
            report.failures.push(ChaosFailure {
                oracle: Oracle::Differential,
                detail: format!("opening concurrent tree failed: {e}"),
            });
            return;
        }
    };
    let sink = Arc::new(CountingSink::new());
    tree.set_trace_sink(Some(Arc::clone(&sink) as Arc<dyn TraceSink>));

    // Pinning: the level table survives only while the tree is unmutated,
    // so clamp to what the recovered meta still describes. A pin that runs
    // out of frames in some shard is a legal outcome with tiny pools, not
    // an oracle violation — but it is deterministic either way.
    let pinnable = plan.pin_levels.min(tree.meta().level_starts.len());
    let _ = tree.pin_top_levels(pinnable);
    // Out-of-range pinning must be rejected, never panic.
    if tree
        .pin_top_levels(tree.meta().level_starts.len() + 1)
        .is_ok()
    {
        report.failures.push(ChaosFailure {
            oracle: Oracle::Differential,
            detail: "out-of-range pin_top_levels unexpectedly succeeded".into(),
        });
    }

    let queries = plan.query_rects();
    let expected: Vec<Vec<u64>> = queries
        .iter()
        .map(|q| sorted(reference.search(q)))
        .collect();
    let tree = Arc::new(tree);
    // Keyed by query index so the report order is independent of which
    // thread detected a mismatch first.
    let mismatches: Mutex<Vec<(usize, ChaosFailure)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for t in 0..plan.threads {
            let tree = Arc::clone(&tree);
            let mismatches = &mismatches;
            let queries = &queries;
            let expected = &expected;
            scope.spawn(move || {
                for (i, q) in queries.iter().enumerate() {
                    if i % plan.threads != t {
                        continue;
                    }
                    match tree.query(q) {
                        Ok(got) => {
                            if sorted(got) != expected[i] {
                                mismatches.lock().unwrap().push((
                                    i,
                                    ChaosFailure {
                                        oracle: Oracle::Differential,
                                        detail: format!(
                                            "concurrent query {q} (thread {t}) diverged from reference"
                                        ),
                                    },
                                ));
                            }
                        }
                        Err(e) => {
                            mismatches.lock().unwrap().push((
                                i,
                                ChaosFailure {
                                    oracle: Oracle::Differential,
                                    detail: format!("concurrent query {q} failed: {e}"),
                                },
                            ));
                        }
                    }
                }
            });
        }
    });
    report.queries_checked += queries.len();
    let mut found = mismatches.into_inner().unwrap();
    found.sort_by_key(|(i, _)| *i);
    report.failures.extend(found.into_iter().map(|(_, f)| f));

    // The concurrent *batch* path answers the same workload once more —
    // sharded sub-batches, level-synchronous dedup — and must agree with
    // the reference query for query.
    if !queries.is_empty() {
        match tree.query_batch(&queries, plan.threads) {
            Ok(batch) => {
                report.queries_checked += queries.len();
                for (i, got) in batch.into_iter().enumerate() {
                    if sorted(got) != expected[i] {
                        report.failures.push(ChaosFailure {
                            oracle: Oracle::Differential,
                            detail: format!(
                                "concurrent batch query {} diverged from reference",
                                queries[i]
                            ),
                        });
                    }
                }
            }
            Err(e) => {
                report.failures.push(ChaosFailure {
                    oracle: Oracle::Differential,
                    detail: format!("concurrent batch execution failed: {e}"),
                });
            }
        }
    }

    // Quiescent now — the trace stream must reconcile exactly.
    let io = tree.io_stats();
    let pool = tree.buffer_stats();
    let c = sink.counts();
    let checks: [(&str, u64, u64); 5] = [
        ("concurrent misses vs physical reads", c.misses, io.reads),
        ("concurrent peek reads", c.peek_reads, io.peek_reads),
        ("concurrent write backs (read-only run)", c.write_backs, 0),
        ("concurrent accesses", c.accesses(), pool.accesses),
        ("concurrent hits", c.hits, pool.hits),
    ];
    for (what, lhs, rhs) in checks {
        if lhs != rhs {
            report.failures.push(ChaosFailure {
                oracle: Oracle::Accounting,
                detail: format!("{what}: trace {lhs} != stats {rhs}"),
            });
        }
    }
}

/// Opens a copy of the recovered store under the `rtree-tune` controller
/// and interleaves controller ticks — estimate, refit, actuate — with the
/// plan's query stream (three passes, ticking every `4 + seed % 5`
/// queries, so seeds sweep both the before-first-decision and the
/// post-actuation regimes). Two oracles:
///
/// * **Differential** — actuation only moves caching state (pool size,
///   pins), never tree contents, so every query answered while the
///   controller resizes and re-pins underneath must still equal the
///   reference.
/// * **Accounting** — the cumulative `IoStats` and the trace sink survive
///   every resize (only the pool's access/hit counters restart with the
///   fresh frames), so the counters defined *across* actuations must
///   reconcile: traced misses equal physical reads (read-only, no
///   prefetch), peek reads agree, and nothing is ever written back.
///   Afterwards the controller's belief must match the tree it steered.
fn run_adaptive_phase(
    plan: &ChaosPlan,
    store: &mut MemStore,
    reference: &RTree,
    report: &mut ChaosReport,
) {
    let queries = plan.query_rects();
    if queries.is_empty() || reference.is_empty() {
        return;
    }
    let fail = |report: &mut ChaosReport, oracle: Oracle, detail: String| {
        report.failures.push(ChaosFailure { oracle, detail });
    };
    let copy = match copy_store(store) {
        Ok(c) => c,
        Err(e) => {
            fail(
                report,
                Oracle::Differential,
                format!("copying store for adaptive phase failed: {e}"),
            );
            return;
        }
    };
    // The controller's budget: the plan's capacity, floored so even the
    // tiniest seeds leave the planner a few frames to move between.
    let budget = plan.buffer_capacity.max(4);
    let mut disk = match DiskRTree::open(copy, budget, LruPolicy::new()) {
        Ok(d) => d,
        Err(e) => {
            fail(
                report,
                Oracle::Differential,
                format!("opening tree for adaptive phase failed: {e}"),
            );
            return;
        }
    };
    let sink = Arc::new(CountingSink::new());
    disk.set_trace_sink(Some(Arc::clone(&sink) as Arc<dyn TraceSink>));

    // The controller plans against the reference's shape (built by the
    // same insert sequence); the actuator clamps pinning to whatever the
    // recovered meta actually describes.
    let desc = TreeDescription::from_tree(reference);
    let cfg = ControllerConfig {
        min_samples: 16,
        min_interval: 1,
        window: 256,
        ..ControllerConfig::new(budget)
    };
    let controller = Controller::new(
        desc,
        Setting {
            buffer: budget,
            pin_levels: 0,
        },
        cfg,
    );

    let tick_every = 4 + (plan.seed % 5) as usize;
    let mut since_tick = 0usize;
    for round in 0..3 {
        for q in &queries {
            controller.observe_query(q.lo.x, q.lo.y, q.hi.x, q.hi.y);
            report.queries_checked += 1;
            match disk.query(q) {
                Ok(got) => {
                    if sorted(got) != sorted(reference.search(q)) {
                        fail(
                            report,
                            Oracle::Differential,
                            format!(
                                "adaptive-phase query {q} (round {round}) diverged from \
                                 reference"
                            ),
                        );
                    }
                }
                Err(e) => fail(
                    report,
                    Oracle::Differential,
                    format!("adaptive-phase query {q} (round {round}) failed: {e}"),
                ),
            }
            since_tick += 1;
            if since_tick == tick_every {
                since_tick = 0;
                if let Err(e) = controller.tick_with(|s| DiskActuator(&mut disk).apply(s)) {
                    fail(
                        report,
                        Oracle::Differential,
                        format!("adaptive-phase actuation failed: {e}"),
                    );
                    return;
                }
            }
        }
    }

    // The tick ledger: one tick per `tick_every` queries, exactly.
    let want_ticks = (3 * queries.len() / tick_every) as u64;
    if controller.ticks() != want_ticks {
        fail(
            report,
            Oracle::Accounting,
            format!(
                "controller counted {} ticks, schedule ran {want_ticks}",
                controller.ticks()
            ),
        );
    }
    // The controller's belief must match the tree it steered.
    let believed = controller.current();
    if disk.buffer_capacity() != believed.buffer {
        fail(
            report,
            Oracle::Accounting,
            format!(
                "controller believes {} frames, pool holds {}",
                believed.buffer,
                disk.buffer_capacity()
            ),
        );
    }
    let applied_pin = believed.pin_levels.min(disk.meta().level_starts.len());
    if (disk.pinned_pages() > 0) != (applied_pin > 0) {
        fail(
            report,
            Oracle::Accounting,
            format!(
                "controller believes pin {} ({} levels applicable), tree pins {} pages",
                believed.pin_levels,
                applied_pin,
                disk.pinned_pages()
            ),
        );
    }
    // Counters that are defined across resizes must still reconcile.
    let io = disk.io_stats();
    let c = sink.counts();
    let checks: [(&str, u64, u64); 3] = [
        ("adaptive misses vs physical reads", c.misses, io.reads),
        ("adaptive peek reads", c.peek_reads, io.peek_reads),
        ("adaptive write backs (read-only run)", c.write_backs, 0),
    ];
    for (what, lhs, rhs) in checks {
        if lhs != rhs {
            fail(
                report,
                Oracle::Accounting,
                format!("{what}: trace {lhs} != stats {rhs}"),
            );
        }
    }
}

/// Reopens the recovered store sequentially with the plan's own pool
/// configuration, replays the plan's queries plus a small fault-free
/// write burst, and reconciles trace totals against `IoStats` and
/// `BufferStats` (the `trace_vs_stats` invariants, here under a
/// seed-chosen policy and capacity).
fn run_accounting_phase(plan: &ChaosPlan, store: MemStore, report: &mut ChaosReport) {
    let mut disk = match DiskRTree::open(
        store,
        plan.buffer_capacity,
        plan.policy.build(plan.policy_seed),
    ) {
        Ok(d) => d,
        Err(e) => {
            report.failures.push(ChaosFailure {
                oracle: Oracle::Accounting,
                detail: format!("reopening store for accounting phase failed: {e}"),
            });
            return;
        }
    };
    let sink = Arc::new(CountingSink::new());
    disk.set_trace_sink(Some(Arc::clone(&sink) as Arc<dyn TraceSink>));
    let wal_log = MemLog::new();
    match Wal::open(wal_log) {
        Ok(w) => disk.attach_wal(w),
        Err(e) => {
            report.failures.push(ChaosFailure {
                oracle: Oracle::Accounting,
                detail: format!("accounting-phase WAL open failed: {e}"),
            });
            return;
        }
    }

    let fail = |report: &mut ChaosReport, detail: String| {
        report.failures.push(ChaosFailure {
            oracle: Oracle::Accounting,
            detail,
        });
    };

    // Reads: the plan's own query mix, sequentially...
    let query_rects = plan.query_rects();
    for q in &query_rects {
        if let Err(e) = disk.query(q) {
            fail(report, format!("accounting-phase query failed: {e}"));
            return;
        }
    }
    // ...then once more through the batch executor, so the split ledger
    // (demand misses + prefetch fills = physical reads) is exercised under
    // the seed-chosen policy and capacity too.
    if !query_rects.is_empty() {
        let exec = BatchExecutor::with_config(BatchConfig {
            prefetch_window: plan.batch_window,
        });
        for chunk in query_rects.chunks(8) {
            if let Err(e) = exec.execute(&mut disk, chunk) {
                fail(report, format!("accounting-phase batch failed: {e}"));
                return;
            }
        }
    }
    // Writes: a deterministic fault-free burst, inserted then removed so
    // the store's logical contents are unchanged afterwards.
    let mut rng = StdRng::seed_from_u64(plan.seed ^ 0xACC0_0050_F00D_5EED);
    let mut burst: Vec<(Rect, u64)> = Vec::new();
    for i in 0..12u64 {
        let x = rng.gen_range(0.0..0.9);
        let y = rng.gen_range(0.0..0.9);
        let rect = Rect::new(x, y, x + 0.01, y + 0.01);
        let id = (1u64 << 40) + i;
        if let Err(e) = disk.insert(rect, id) {
            fail(report, format!("accounting-phase insert failed: {e}"));
            return;
        }
        burst.push((rect, id));
    }
    if let Err(e) = disk.checkpoint() {
        fail(report, format!("accounting-phase checkpoint failed: {e}"));
        return;
    }
    for (rect, id) in &burst {
        match disk.delete(rect, *id) {
            Ok(true) => {}
            Ok(false) => {
                fail(
                    report,
                    format!("accounting-phase burst entry {id} vanished"),
                );
                return;
            }
            Err(e) => {
                fail(report, format!("accounting-phase delete failed: {e}"));
                return;
            }
        }
    }
    if let Err(e) = disk.flush() {
        fail(report, format!("accounting-phase flush failed: {e}"));
        return;
    }

    let io = disk.io_stats();
    let pool = disk.buffer_stats();
    let c = sink.counts();
    let checks: [(&str, u64, u64); 7] = [
        (
            "sequential misses + prefetches vs physical reads",
            c.reads(),
            io.reads,
        ),
        ("sequential demand reads", c.misses, io.demand_reads()),
        ("sequential prefetch reads", c.prefetches, io.prefetch_reads),
        ("sequential write backs", c.write_backs, io.writes),
        ("sequential peek reads", c.peek_reads, io.peek_reads),
        ("sequential accesses", c.accesses(), pool.accesses),
        ("sequential hits", c.hits, pool.hits),
    ];
    for (what, lhs, rhs) in checks {
        if lhs != rhs {
            report.failures.push(ChaosFailure {
                oracle: Oracle::Accounting,
                detail: format!("{what}: trace {lhs} != stats {rhs}"),
            });
        }
    }
    if c.write_backs == 0 {
        report.failures.push(ChaosFailure {
            oracle: Oracle::Accounting,
            detail: "accounting-phase write burst produced no write-backs".into(),
        });
    }
    if c.wal_appends == 0 {
        report.failures.push(ChaosFailure {
            oracle: Oracle::Accounting,
            detail: "accounting-phase writes appended nothing to the WAL".into(),
        });
    }
}
