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
use rtree_core::TreeDescription;
use rtree_exec::{BatchConfig, BatchExecutor};
use rtree_geom::Rect;
use rtree_index::{RTree, RTreeBuilder};
use rtree_obs::{CountingSink, TraceSink, TuneObserver};
use rtree_pager::{
    recover, replay_committed, ConcurrentDiskRTree, DiskRTree, FaultStore, MemStore, StepSchedule,
    StepStore,
};
use rtree_tune::{Actuator, Controller, ControllerConfig, DiskActuator, Setting};
use rtree_wal::{CrashSwitch, FaultLog, GroupWal, LogBackend, MemLog, StagedLog, Wal};
use std::fmt;
use std::io;
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

/// How a phase ends: `Err` is the violation that made going on pointless
/// (the caller records it); every other violation is recorded as found.
type Phase = Result<(), ChaosFailure>;

/// A post-recovery phase: the plan, the recovered store, the reference
/// tree of the committed prefix, and the report it adds to.
type PhaseFn = fn(&ChaosPlan, &mut MemStore, &RTree, &mut ChaosReport) -> Phase;

/// A step no phase survives the failure of: its error becomes the phase's
/// verdict, worded `"{what}: {e}"`.
fn must<T>(result: io::Result<T>, oracle: Oracle, what: &str) -> Result<T, ChaosFailure> {
    result.map_err(|e| ChaosFailure {
        oracle,
        detail: format!("{what}: {e}"),
    })
}

impl ChaosReport {
    fn fail(&mut self, oracle: Oracle, detail: String) {
        self.failures.push(ChaosFailure { oracle, detail });
    }

    /// The shadow comparison: one checked query whose ids `got` must be
    /// exactly `want`, order aside. `detail` words a mismatch from the two
    /// counts.
    fn check_ids(
        &mut self,
        oracle: Oracle,
        got: Vec<u64>,
        want: Vec<u64>,
        detail: impl FnOnce(usize, usize) -> String,
    ) {
        self.queries_checked += 1;
        let counts = (got.len(), want.len());
        if sorted(got) != sorted(want) {
            self.fail(oracle, detail(counts.0, counts.1));
        }
    }

    /// The accounting comparison: each traced total equals its counter.
    fn reconcile(&mut self, checks: &[(&str, u64, u64)]) {
        for (what, trace, stats) in checks {
            if trace != stats {
                let detail = format!("{what}: trace {trace} != stats {stats}");
                self.fail(Oracle::Accounting, detail);
            }
        }
    }
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
    if let Err(failure) = run_phases(plan, plant, &mut report) {
        report.failures.push(failure);
    }
    report
}

fn run_phases(plan: &ChaosPlan, plant: bool, report: &mut ChaosReport) -> Phase {
    use Oracle::{Differential, Durability};

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
    let created = DiskRTree::create_empty(
        store,
        plan.max_entries,
        plan.min_entries,
        plan.buffer_capacity,
        plan.policy.build(plan.policy_seed),
    );
    let mut disk = must(created, Durability, "create_empty failed before any op")?;
    let wal = match plan.fault {
        FaultPlan::LogCrash { at, torn } => {
            Wal::open(FaultLog::new(log.clone(), switch.clone()).crash_at_append(at, torn))
        }
        _ => Wal::open(log.clone()),
    };
    disk.attach_wal(must(wal, Durability, "WAL open failed")?);

    let mut reference = RTreeBuilder::new(plan.max_entries)
        .min_entries(plan.min_entries)
        .build();
    let mut live: Vec<(Rect, u64)> = Vec::new();
    let mut next_id = 0u64;

    for op in &plan.ops {
        let mut step = || -> io::Result<()> {
            match op {
                ChaosOp::Insert(rect) => {
                    disk.insert(*rect, next_id)?;
                    live.push((*rect, next_id));
                    reference.insert(*rect, next_id);
                    next_id += 1;
                }
                ChaosOp::Delete(_) if live.is_empty() => {}
                ChaosOp::Delete(pick) => {
                    let k = (*pick % live.len() as u64) as usize;
                    let (rect, id) = live[k];
                    if !disk.delete(&rect, id)? {
                        let detail = format!("live entry {id} missing from disk tree on delete");
                        report.fail(Differential, detail);
                    }
                    live.swap_remove(k);
                    if !reference.delete(&rect, id) {
                        report.fail(Differential, format!("reference lost live entry {id}"));
                    }
                }
                ChaosOp::Query(rect) => {
                    let mut got = disk.query(rect)?;
                    if plant && report.ops_executed > PLANT_AFTER {
                        // The deliberately planted bug: a phantom id the
                        // reference tree never saw.
                        got.push(u64::MAX);
                    }
                    report.check_ids(Differential, got, reference.search(rect), |g, w| {
                        format!("pre-crash query {rect}: disk {g} ids vs reference {w} ids")
                    });
                }
                ChaosOp::BatchQuery(rects) => {
                    let exec = BatchExecutor::with_config(BatchConfig {
                        prefetch_window: plan.batch_window,
                    });
                    let out = exec.execute(&mut disk, rects)?;
                    for (i, (rect, got)) in rects.iter().zip(out.results).enumerate() {
                        report.check_ids(Differential, got, reference.search(rect), |g, w| {
                            format!(
                                "pre-crash batch query {rect} ({i} of {}): \
                                 disk {g} ids vs reference {w} ids",
                                rects.len()
                            )
                        });
                    }
                }
                ChaosOp::ServerQuery(rects) => {
                    // The network replay happens post-recovery (phase 4);
                    // here the same rectangles run directly so the
                    // sequential phase sees the workload too and the
                    // committed prefix is what the shadow oracle later
                    // expects.
                    for rect in rects {
                        let got = disk.query(rect)?;
                        report.check_ids(Differential, got, reference.search(rect), |g, w| {
                            format!(
                                "pre-crash server-query {rect}: disk {g} ids vs \
                                 reference {w} ids"
                            )
                        });
                    }
                }
                ChaosOp::Checkpoint => disk.checkpoint()?,
                ChaosOp::Flush => disk.flush()?,
                ChaosOp::Resize(frames) => {
                    disk.resize_buffer(*frames, plan.policy.build(plan.policy_seed))?
                }
            }
            Ok(())
        };
        // The first injected fault aborts the run mid-operation; the
        // reference holds exactly the committed prefix.
        if step().is_err() {
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
    let log_bytes = must(log.read_all(), Durability, "reading surviving log failed")?;
    must(
        recover(&mut store, &log_bytes),
        Durability,
        "recover failed",
    )?;
    let reopened = DiskRTree::open(store, 64, LruPolicy::new());
    let mut recovered = must(reopened, Durability, "opening recovered tree failed")?;

    if recovered.meta().items != reference.len() as u64 {
        let detail = format!(
            "recovered item count {} != committed {}",
            recovered.meta().items,
            reference.len()
        );
        report.fail(Durability, detail);
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
            Ok(got) => report.check_ids(Durability, got, reference.search(rect), |g, w| {
                format!("post-recovery query {rect}: disk {g} ids vs reference {w} ids")
            }),
            Err(e) => report.fail(
                Durability,
                format!("post-recovery query {rect} failed: {e}"),
            ),
        }
    }

    let mut store = recovered.into_store();

    // Phases 3–7, each against the recovered image and the same reference:
    // concurrent readers under a seeded schedule; the network path; the
    // concurrent mutators + group-commit durability; the self-tuning
    // controller; the sequential accounting oracle. A phase that gives up
    // does not stop the ones after it.
    let phases: [PhaseFn; 5] = [
        run_concurrent_phase,
        run_server_phase,
        run_mutator_phase,
        run_adaptive_phase,
        run_accounting_phase,
    ];
    for phase in phases {
        if let Err(failure) = phase(plan, &mut store, &reference, report) {
            report.failures.push(failure);
        }
    }
    Ok(())
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
) -> Phase {
    use Oracle::{Accounting, Differential};
    let rects = plan.server_query_rects();
    if rects.is_empty() {
        return Ok(());
    }
    let disk = DiskRTree::open(
        MemStore::from_bytes(store.snapshot()),
        plan.buffer_capacity,
        plan.policy.build(plan.policy_seed),
    );
    let disk = must(disk, Differential, "opening tree for server phase failed")?;
    let handle = rtree_server::serve(
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
    );
    let handle = must(handle, Differential, "loopback server failed to start")?;

    match rtree_server::loadgen::replay(handle.addr(), &rects, plan.threads) {
        Ok(results) => {
            for (i, (rect, got)) in rects.iter().zip(results).enumerate() {
                report.check_ids(Differential, got, reference.search(rect), |g, w| {
                    format!(
                        "server query {rect} ({i} of {}): served {g} ids vs \
                         reference {w} ids",
                        rects.len()
                    )
                });
            }
        }
        Err(e) => report.fail(Differential, format!("server replay failed: {e}")),
    }

    // Shutdown must drain; afterwards the server's ledger has to
    // reconcile: every replayed query completed, and the I/O split holds.
    let stats = handle.shutdown();
    if stats.queries != rects.len() as u64 {
        let detail = format!(
            "server completed {} queries, replay sent {}",
            stats.queries,
            rects.len()
        );
        report.fail(Accounting, detail);
    }
    if stats.physical_reads != stats.demand_reads + stats.prefetch_reads {
        let detail = format!(
            "server read ledger split broken: {} != {} + {}",
            stats.physical_reads, stats.demand_reads, stats.prefetch_reads
        );
        report.fail(Accounting, detail);
    }
    if stats.rejected != 0 {
        let detail = format!(
            "closed-loop replay was rejected {} times by backpressure",
            stats.rejected
        );
        report.fail(Accounting, detail);
    }
    Ok(())
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
) -> Phase {
    use Oracle::{Differential, Durability};

    // The recovered image, byte for byte — both the mutation base and the
    // post-crash replay base.
    let image = store.snapshot();

    // Durable medium: bytes reach `durable` only on sync, exactly what a
    // crashed machine's disk keeps.
    let durable = MemLog::new();
    let wal = GroupWal::open(StagedLog::new(durable.clone()));
    let wal = must(wal, Durability, "mutator-phase WAL open failed")?;
    let capacity = plan.buffer_capacity.max(8);
    let tree = ConcurrentDiskRTree::open_writable(
        MemStore::from_bytes(image.clone()),
        capacity,
        plan.policy.build(plan.policy_seed),
        wal.clone(),
    );
    let what = "opening writable tree for mutator phase failed";
    let tree = must(tree, Differential, what)?;

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
    let complain = |detail: String| errors.lock().unwrap().push(detail);
    std::thread::scope(|scope| {
        for program in &programs {
            let (tree, complain) = (&tree, &complain);
            scope.spawn(move || {
                for op in program {
                    let r = match op {
                        MutOp::Insert(rect, id) => tree.insert(rect, *id).map(|()| true),
                        MutOp::Delete(rect, id) => tree.delete(rect, *id),
                    };
                    match r {
                        Ok(true) => {}
                        Ok(false) => complain("mutator delete missed its own insert".into()),
                        Err(e) => complain(format!("mutator op failed: {e}")),
                    }
                }
            });
        }
        for t in 0..plan.threads {
            let (tree, complain, probes) = (&tree, &complain, &probes);
            scope.spawn(move || {
                for q in probes.iter().skip(t % 2) {
                    if let Err(e) = tree.query(q) {
                        complain(format!("reader query {q} during mutation failed: {e}"));
                    }
                }
            });
        }
    });
    for detail in errors.into_inner().unwrap() {
        report.fail(Differential, detail);
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
        want
    };
    let want_items = reference.len() as u64 + survivors.len() as u64;
    if tree.live_items() != want_items {
        let detail = format!(
            "mutated tree holds {} items, expected {}",
            tree.live_items(),
            want_items
        );
        report.fail(Differential, detail);
    }
    let everything = Rect::new(0.0, 0.0, 1.0, 1.0);
    let mut check_rects = vec![everything];
    check_rects.extend(probes.iter().copied());
    for q in &check_rects {
        match tree.query(q) {
            Ok(got) => report.check_ids(Differential, got, expected(q), |_, _| {
                format!("post-mutation query {q} diverged from shadow oracle")
            }),
            Err(e) => report.fail(Differential, format!("post-mutation query {q} failed: {e}")),
        }
    }
    // Group-commit accounting: every op durable, never more fsyncs than ops.
    let gstats = tree.group_commit_stats().unwrap_or_default();
    if gstats.committed_ops != total_ops as u64 {
        let detail = format!(
            "group commit covered {} ops, mutators ran {}",
            gstats.committed_ops, total_ops
        );
        report.fail(Durability, detail);
    }
    if gstats.fsyncs > total_ops as u64 {
        let detail = format!(
            "{} fsyncs for {} ops — group commit amplified syncs",
            gstats.fsyncs, total_ops
        );
        report.fail(Durability, detail);
    }

    // ...then crash without a checkpoint and replay the committed log onto
    // the pre-mutation image.
    drop(tree);
    let survived = durable.read_all();
    let survived = must(survived, Durability, "reading surviving mutator log failed")?;
    let wal = must(
        GroupWal::open(MemLog::new()),
        Durability,
        "post-crash WAL open failed",
    )?;
    let recovered = ConcurrentDiskRTree::open_writable(
        MemStore::from_bytes(image),
        capacity,
        plan.policy.build(plan.policy_seed),
        wal,
    );
    let recovered = must(
        recovered,
        Durability,
        "reopening crashed mutator store failed",
    )?;
    let replayed = replay_committed(&survived, &recovered);
    let summary = must(
        replayed,
        Durability,
        "replaying committed mutator ops failed",
    )?;
    if !summary.clean_log {
        let detail = "mutator log scan stopped at a torn frame despite clean shutdown";
        report.fail(Durability, detail.into());
    }
    if summary.applied_inserts + summary.applied_deletes != total_ops as u64 {
        let detail = format!(
            "replay applied {} of {} acknowledged mutations",
            summary.applied_inserts + summary.applied_deletes,
            total_ops
        );
        report.fail(Durability, detail);
    }
    if recovered.live_items() != want_items {
        let detail = format!(
            "recovered mutated tree holds {} items, expected {}",
            recovered.live_items(),
            want_items
        );
        report.fail(Durability, detail);
    }
    for q in &check_rects {
        match recovered.query(q) {
            Ok(got) => report.check_ids(Durability, got, expected(q), |_, _| {
                format!("post-crash query {q} lost a group-committed mutation")
            }),
            Err(e) => report.fail(Durability, format!("post-crash query {q} failed: {e}")),
        }
    }
    Ok(())
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
) -> Phase {
    use Oracle::Differential;
    let copy = MemStore::from_bytes(store.snapshot());
    let stepped = StepStore::new(copy, StepSchedule::from_seed(plan.sched_seed));
    let tree = ConcurrentDiskRTree::open_sharded(
        stepped,
        plan.buffer_capacity,
        plan.shards,
        || -> Box<dyn rtree_buffer::ReplacementPolicy> { Box::new(LruPolicy::new()) },
    );
    let mut tree = must(tree, Differential, "opening concurrent tree failed")?;
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
        let detail = "out-of-range pin_top_levels unexpectedly succeeded";
        report.fail(Differential, detail.into());
    }

    // Thread `t` answers the queries whose index is `t` modulo the thread
    // count; the answers are judged afterwards in query order, so the
    // report does not depend on which thread finished first.
    let queries = plan.query_rects();
    let tree = &tree;
    let answers: Vec<Vec<_>> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..plan.threads)
            .map(|t| {
                let mine = queries.iter().skip(t).step_by(plan.threads);
                scope.spawn(move || mine.map(|q| tree.query(q)).collect())
            })
            .collect();
        let join = |thread: std::thread::ScopedJoinHandle<'_, _>| thread.join().unwrap();
        threads.into_iter().map(join).collect()
    });
    let mut answers: Vec<_> = answers.into_iter().map(Vec::into_iter).collect();
    for (i, q) in queries.iter().enumerate() {
        let t = i % plan.threads;
        match answers[t].next().expect("one answer per query") {
            Ok(got) => report.check_ids(Differential, got, reference.search(q), |_, _| {
                format!("concurrent query {q} (thread {t}) diverged from reference")
            }),
            Err(e) => report.fail(Differential, format!("concurrent query {q} failed: {e}")),
        }
    }

    // The concurrent *batch* path answers the same workload once more —
    // sharded sub-batches, level-synchronous dedup — and must agree with
    // the reference query for query.
    if !queries.is_empty() {
        match tree.query_batch(&queries, plan.threads) {
            Ok(batch) => {
                for (q, got) in queries.iter().zip(batch) {
                    report.check_ids(Differential, got, reference.search(q), |_, _| {
                        format!("concurrent batch query {q} diverged from reference")
                    });
                }
            }
            Err(e) => report.fail(
                Differential,
                format!("concurrent batch execution failed: {e}"),
            ),
        }
    }

    // Quiescent now — the trace stream must reconcile exactly.
    let io = tree.io_stats();
    let pool = tree.buffer_stats();
    let c = sink.counts();
    report.reconcile(&[
        ("concurrent misses vs physical reads", c.misses, io.reads),
        ("concurrent peek reads", c.peek_reads, io.peek_reads),
        ("concurrent write backs (read-only run)", c.write_backs, 0),
        ("concurrent accesses", c.accesses(), pool.accesses),
        ("concurrent hits", c.hits, pool.hits),
    ]);
    Ok(())
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
) -> Phase {
    use Oracle::{Accounting, Differential};
    let queries = plan.query_rects();
    if queries.is_empty() || reference.is_empty() {
        return Ok(());
    }
    let copy = MemStore::from_bytes(store.snapshot());
    // The controller's budget: the plan's capacity, floored so even the
    // tiniest seeds leave the planner a few frames to move between.
    let budget = plan.buffer_capacity.max(4);
    let disk = DiskRTree::open(copy, budget, LruPolicy::new());
    let mut disk = must(disk, Differential, "opening tree for adaptive phase failed")?;
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
            let what = format!("adaptive-phase query {q} (round {round})");
            match disk.query(q) {
                Ok(got) => report.check_ids(Differential, got, reference.search(q), |_, _| {
                    format!("{what} diverged from reference")
                }),
                Err(e) => report.fail(Differential, format!("{what} failed: {e}")),
            }
            since_tick += 1;
            if since_tick == tick_every {
                since_tick = 0;
                let ticked = controller.tick_with(|s| DiskActuator(&mut disk).apply(s));
                must(ticked, Differential, "adaptive-phase actuation failed")?;
            }
        }
    }

    // The tick ledger: one tick per `tick_every` queries, exactly.
    let want_ticks = (3 * queries.len() / tick_every) as u64;
    if controller.ticks() != want_ticks {
        let detail = format!(
            "controller counted {} ticks, schedule ran {want_ticks}",
            controller.ticks()
        );
        report.fail(Accounting, detail);
    }
    // The controller's belief must match the tree it steered.
    let believed = controller.current();
    if disk.buffer_capacity() != believed.buffer {
        let detail = format!(
            "controller believes {} frames, pool holds {}",
            believed.buffer,
            disk.buffer_capacity()
        );
        report.fail(Accounting, detail);
    }
    let applied_pin = believed.pin_levels.min(disk.meta().level_starts.len());
    if (disk.pinned_pages() > 0) != (applied_pin > 0) {
        let detail = format!(
            "controller believes pin {} ({} levels applicable), tree pins {} pages",
            believed.pin_levels,
            applied_pin,
            disk.pinned_pages()
        );
        report.fail(Accounting, detail);
    }
    // Counters that are defined across resizes must still reconcile.
    let io = disk.io_stats();
    let c = sink.counts();
    report.reconcile(&[
        ("adaptive misses vs physical reads", c.misses, io.reads),
        ("adaptive peek reads", c.peek_reads, io.peek_reads),
        ("adaptive write backs (read-only run)", c.write_backs, 0),
    ]);
    Ok(())
}

/// Reopens the recovered store sequentially with the plan's own pool
/// configuration, replays the plan's queries plus a small fault-free
/// write burst, and reconciles trace totals against `IoStats` and
/// `BufferStats` (the `trace_vs_stats` invariants, here under a
/// seed-chosen policy and capacity). Runs last: the burst goes into the
/// recovered store itself.
fn run_accounting_phase(
    plan: &ChaosPlan,
    store: &mut MemStore,
    _reference: &RTree,
    report: &mut ChaosReport,
) -> Phase {
    use Oracle::Accounting;
    let disk = DiskRTree::open(
        store,
        plan.buffer_capacity,
        plan.policy.build(plan.policy_seed),
    );
    let mut disk = must(
        disk,
        Accounting,
        "reopening store for accounting phase failed",
    )?;
    let sink = Arc::new(CountingSink::new());
    disk.set_trace_sink(Some(Arc::clone(&sink) as Arc<dyn TraceSink>));
    let wal = must(
        Wal::open(MemLog::new()),
        Accounting,
        "accounting-phase WAL open failed",
    )?;
    disk.attach_wal(wal);

    // Reads: the plan's own query mix, sequentially...
    let query_rects = plan.query_rects();
    for q in &query_rects {
        must(
            disk.query(q).map(drop),
            Accounting,
            "accounting-phase query failed",
        )?;
    }
    // ...then once more through the batch executor, so the split ledger
    // (demand misses + prefetch fills = physical reads) is exercised under
    // the seed-chosen policy and capacity too.
    let exec = BatchExecutor::with_config(BatchConfig {
        prefetch_window: plan.batch_window,
    });
    for chunk in query_rects.chunks(8) {
        let batch = exec.execute(&mut disk, chunk);
        must(batch.map(drop), Accounting, "accounting-phase batch failed")?;
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
        must(
            disk.insert(rect, id),
            Accounting,
            "accounting-phase insert failed",
        )?;
        burst.push((rect, id));
    }
    must(
        disk.checkpoint(),
        Accounting,
        "accounting-phase checkpoint failed",
    )?;
    for (rect, id) in &burst {
        if !must(
            disk.delete(rect, *id),
            Accounting,
            "accounting-phase delete failed",
        )? {
            return Err(ChaosFailure {
                oracle: Accounting,
                detail: format!("accounting-phase burst entry {id} vanished"),
            });
        }
    }
    must(disk.flush(), Accounting, "accounting-phase flush failed")?;

    let io = disk.io_stats();
    let pool = disk.buffer_stats();
    let c = sink.counts();
    report.reconcile(&[
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
    ]);
    if c.write_backs == 0 {
        let detail = "accounting-phase write burst produced no write-backs";
        report.fail(Accounting, detail.into());
    }
    if c.wal_appends == 0 {
        let detail = "accounting-phase writes appended nothing to the WAL";
        report.fail(Accounting, detail.into());
    }
    Ok(())
}
