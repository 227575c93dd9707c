//! The micro-batching scheduler.
//!
//! Connections submit single queries; worker threads close them into
//! batches on whichever comes first of a **count threshold** or a **time
//! deadline**, execute the batch on a [`QueryEngine`], and route each
//! query's results back through its completion channel.
//!
//! State machine of a worker:
//!
//! ```text
//!          queue empty                  queue non-empty
//!   Idle ───────────────▶ wait ─────────────────────────▶ Collecting
//!     ▲                                                       │
//!     │           batch full  OR  deadline hit  OR  shutdown  │
//!     │                                                       ▼
//!     └────────────── send results ◀── execute ◀──── drain ≤ max_batch
//! ```
//!
//! The queue is bounded: when `queue_depth` jobs are waiting, `submit`
//! fails fast with [`SubmitError::Overloaded`] and the connection returns
//! a typed response instead of queueing unboundedly. After
//! [`MicroBatcher::shutdown`] begins, new submissions fail with
//! [`SubmitError::ShuttingDown`] while already-queued jobs are drained to
//! completion — no accepted query is ever dropped.

use crate::engine::{QueryEngine, WriteOp};
use rtree_geom::Rect;
use rtree_obs::{AtomicHistogram, Histogram};
use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// When and how batches close.
#[derive(Clone, Copy, Debug)]
pub struct BatchPolicy {
    /// A batch closes as soon as this many queries are collected.
    pub max_batch: usize,
    /// A non-empty batch closes when its oldest query has waited this
    /// long, even if under-full.
    pub max_wait: Duration,
    /// Most jobs that may wait in the queue before `submit` rejects with
    /// `Overloaded`.
    pub queue_depth: usize,
    /// Worker threads draining the queue.
    pub workers: usize,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_batch: 64,
            max_wait: Duration::from_micros(500),
            queue_depth: 4096,
            workers: 2,
        }
    }
}

/// Why a submission was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full; retry later.
    Overloaded,
    /// The batcher is draining; no new work is accepted.
    ShuttingDown,
}

/// What a completed job hands back.
#[derive(Clone, Debug, PartialEq)]
pub enum JobOutput {
    /// Matching ids, for result queries.
    Matches(Vec<u64>),
    /// Match count only, for count queries.
    Count(u64),
    /// A durably committed write (`false`: a delete found no entry).
    Written(bool),
}

enum JobKind {
    Query { rect: Rect, count_only: bool },
    Write(WriteOp),
}

struct Job {
    kind: JobKind,
    enqueued: Instant,
    done: mpsc::Sender<io::Result<JobOutput>>,
}

struct Queue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct Shared<E> {
    engine: E,
    policy: BatchPolicy,
    queue: Mutex<Queue>,
    /// Signalled on submit and on shutdown.
    nonempty: Condvar,
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    batches: AtomicU64,
    max_batch_seen: AtomicU64,
    batch_sizes: AtomicHistogram,
    queue_wait_us: AtomicHistogram,
}

/// Scheduler counters, all cumulative.
#[derive(Clone, Debug)]
pub struct BatcherStats {
    /// Jobs accepted into the queue.
    pub submitted: u64,
    /// Jobs executed and answered.
    pub completed: u64,
    /// Submissions refused with `Overloaded`.
    pub rejected: u64,
    /// Batches executed.
    pub batches: u64,
    /// Largest batch executed.
    pub max_batch: u64,
    /// Distribution of executed batch sizes.
    pub batch_sizes: Histogram,
    /// Distribution of queue wait (enqueue → batch close), microseconds.
    pub queue_wait_us: Histogram,
}

/// The micro-batching scheduler; see the module docs for the lifecycle.
pub struct MicroBatcher<E: QueryEngine> {
    shared: Arc<Shared<E>>,
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<E: QueryEngine> MicroBatcher<E> {
    /// Starts the scheduler: spawns `policy.workers` worker threads.
    pub fn new(engine: E, policy: BatchPolicy) -> Arc<Self> {
        let b = Self::new_paused(engine, policy);
        b.start();
        b
    }

    /// Builds the scheduler without spawning workers. Submissions queue
    /// up (and can overflow to `Overloaded`) until [`start`] runs —
    /// deterministic setup for tests that want to control batch
    /// composition exactly.
    ///
    /// [`start`]: MicroBatcher::start
    pub fn new_paused(engine: E, policy: BatchPolicy) -> Arc<Self> {
        let policy = BatchPolicy {
            max_batch: policy.max_batch.max(1),
            workers: policy.workers.max(1),
            queue_depth: policy.queue_depth.max(1),
            ..policy
        };
        Arc::new(MicroBatcher {
            shared: Arc::new(Shared {
                engine,
                policy,
                queue: Mutex::new(Queue {
                    jobs: VecDeque::new(),
                    shutdown: false,
                }),
                nonempty: Condvar::new(),
                submitted: AtomicU64::new(0),
                completed: AtomicU64::new(0),
                rejected: AtomicU64::new(0),
                batches: AtomicU64::new(0),
                max_batch_seen: AtomicU64::new(0),
                batch_sizes: AtomicHistogram::new(),
                queue_wait_us: AtomicHistogram::new(),
            }),
            workers: Mutex::new(Vec::new()),
        })
    }

    /// Spawns the worker threads of a [`new_paused`] batcher. Idempotent.
    ///
    /// [`new_paused`]: MicroBatcher::new_paused
    pub fn start(&self) {
        let mut workers = lock(&self.workers);
        if !workers.is_empty() {
            return;
        }
        for i in 0..self.shared.policy.workers {
            let shared = Arc::clone(&self.shared);
            workers.push(
                thread::Builder::new()
                    .name(format!("rtree-batch-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn batch worker"),
            );
        }
    }

    /// Submits one query. On success the receiver yields exactly one
    /// result once the job's batch executes.
    pub fn submit(
        &self,
        rect: Rect,
        count_only: bool,
    ) -> Result<mpsc::Receiver<io::Result<JobOutput>>, SubmitError> {
        self.submit_job(JobKind::Query { rect, count_only })
    }

    /// Submits one mutation. Writes share the queue, the batch window,
    /// and the overload bound with queries; a batch's writes fan out on
    /// the engine so their WAL commits coalesce (see
    /// [`crate::engine::QueryEngine::execute_writes`]).
    pub fn submit_write(
        &self,
        op: WriteOp,
    ) -> Result<mpsc::Receiver<io::Result<JobOutput>>, SubmitError> {
        self.submit_job(JobKind::Write(op))
    }

    fn submit_job(
        &self,
        kind: JobKind,
    ) -> Result<mpsc::Receiver<io::Result<JobOutput>>, SubmitError> {
        let (tx, rx) = mpsc::channel();
        {
            let mut q = lock(&self.shared.queue);
            if q.shutdown {
                return Err(SubmitError::ShuttingDown);
            }
            if q.jobs.len() >= self.shared.policy.queue_depth {
                self.shared.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::Overloaded);
            }
            q.jobs.push_back(Job {
                kind,
                enqueued: Instant::now(),
                done: tx,
            });
        }
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        self.shared.nonempty.notify_one();
        Ok(rx)
    }

    /// Stops accepting work, drains every queued job to completion, and
    /// joins the workers. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut q = lock(&self.shared.queue);
            q.shutdown = true;
        }
        self.shared.nonempty.notify_all();
        let mut workers = lock(&self.workers);
        for w in workers.drain(..) {
            let _ = w.join();
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> BatcherStats {
        BatcherStats {
            submitted: self.shared.submitted.load(Ordering::Relaxed),
            completed: self.shared.completed.load(Ordering::Relaxed),
            rejected: self.shared.rejected.load(Ordering::Relaxed),
            batches: self.shared.batches.load(Ordering::Relaxed),
            max_batch: self.shared.max_batch_seen.load(Ordering::Relaxed),
            batch_sizes: self.shared.batch_sizes.snapshot(),
            queue_wait_us: self.shared.queue_wait_us.snapshot(),
        }
    }

    /// The engine batches execute on.
    pub fn engine(&self) -> &E {
        &self.shared.engine
    }
}

fn worker_loop<E: QueryEngine>(shared: &Shared<E>) {
    loop {
        // Phase 1: wait for work (or shutdown with an empty queue).
        let mut q = lock(&shared.queue);
        while q.jobs.is_empty() {
            if q.shutdown {
                return;
            }
            q = shared
                .nonempty
                .wait(q)
                .unwrap_or_else(PoisonError::into_inner);
        }

        // Phase 2: collect until the batch fills, the oldest job's
        // deadline passes, or shutdown forces an immediate close.
        let deadline = q.jobs.front().expect("non-empty").enqueued + shared.policy.max_wait;
        loop {
            if q.jobs.len() >= shared.policy.max_batch || q.shutdown {
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (guard, timeout) = shared
                .nonempty
                .wait_timeout(q, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            q = guard;
            if timeout.timed_out() {
                break;
            }
        }

        // Phase 3: close the batch.
        let take = q.jobs.len().min(shared.policy.max_batch);
        let batch: Vec<Job> = q.jobs.drain(..take).collect();
        let leftover = !q.jobs.is_empty();
        drop(q);
        if leftover {
            // More work remains; wake a sibling so it can start its own
            // window concurrently with our execution.
            shared.nonempty.notify_one();
        }
        if batch.is_empty() {
            continue;
        }

        // Phase 4: execute and demux. A window can mix queries and
        // writes; they split into one engine call each, and every job is
        // answered through its own channel by position.
        let closed = Instant::now();
        for job in &batch {
            shared
                .queue_wait_us
                .record((closed - job.enqueued).as_micros() as u64);
        }
        let n = batch.len() as u64;
        shared.batches.fetch_add(1, Ordering::Relaxed);
        shared.max_batch_seen.fetch_max(n, Ordering::Relaxed);
        shared.batch_sizes.record(n);

        let mut rects: Vec<Rect> = Vec::new();
        let mut query_jobs = Vec::new();
        let mut ops: Vec<WriteOp> = Vec::new();
        let mut write_jobs = Vec::new();
        for job in batch {
            match job.kind {
                JobKind::Query { rect, count_only } => {
                    rects.push(rect);
                    query_jobs.push((count_only, job.done));
                }
                JobKind::Write(op) => {
                    ops.push(op);
                    write_jobs.push(job.done);
                }
            }
        }

        if !rects.is_empty() {
            match shared.engine.execute(&rects) {
                Ok(results) => {
                    debug_assert_eq!(results.len(), query_jobs.len(), "engine demux contract");
                    for ((count_only, done), ids) in query_jobs.into_iter().zip(results) {
                        let out = if count_only {
                            JobOutput::Count(ids.len() as u64)
                        } else {
                            JobOutput::Matches(ids)
                        };
                        // Counted before the send, so the receiver sees it
                        // counted. One that hung up (client vanished) is fine.
                        shared.completed.fetch_add(1, Ordering::Relaxed);
                        let _ = done.send(Ok(out));
                    }
                }
                Err(e) => {
                    // io::Error is not Clone: recreate it per job.
                    for (_, done) in query_jobs {
                        shared.completed.fetch_add(1, Ordering::Relaxed);
                        let _ = done.send(Err(io::Error::new(e.kind(), e.to_string())));
                    }
                }
            }
        }

        if !ops.is_empty() {
            let results = shared.engine.execute_writes(&ops);
            debug_assert_eq!(
                results.len(),
                write_jobs.len(),
                "engine write demux contract"
            );
            for (done, result) in write_jobs.into_iter().zip(results) {
                shared.completed.fetch_add(1, Ordering::Relaxed);
                let _ = done.send(result.map(JobOutput::Written));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtree_pager::IoStats;
    use std::sync::atomic::AtomicUsize;

    /// Engine double: echoes one id per query and records batch sizes.
    struct Echo {
        calls: Mutex<Vec<usize>>,
        delay: Duration,
        executed: AtomicUsize,
    }

    impl Echo {
        fn new(delay: Duration) -> Self {
            Echo {
                calls: Mutex::new(Vec::new()),
                delay,
                executed: AtomicUsize::new(0),
            }
        }
    }

    impl QueryEngine for Echo {
        fn execute(&self, queries: &[Rect]) -> io::Result<Vec<Vec<u64>>> {
            lock(&self.calls).push(queries.len());
            self.executed.fetch_add(queries.len(), Ordering::SeqCst);
            if !self.delay.is_zero() {
                thread::sleep(self.delay);
            }
            Ok(queries
                .iter()
                .map(|r| vec![(r.lo.x * 1000.0) as u64])
                .collect())
        }

        fn io_stats(&self) -> IoStats {
            IoStats::default()
        }
    }

    fn rect(i: usize) -> Rect {
        let x = i as f64 / 1000.0;
        Rect::new(x, 0.0, x + 0.001, 0.001)
    }

    #[test]
    fn every_job_gets_its_own_answer() {
        let b = MicroBatcher::new(
            Echo::new(Duration::ZERO),
            BatchPolicy {
                max_batch: 8,
                max_wait: Duration::from_millis(1),
                ..BatchPolicy::default()
            },
        );
        let rxs: Vec<_> = (0..50).map(|i| b.submit(rect(i), false).unwrap()).collect();
        for (i, rx) in rxs.into_iter().enumerate() {
            assert_eq!(
                rx.recv().unwrap().unwrap(),
                JobOutput::Matches(vec![i as u64])
            );
        }
        let s = b.stats();
        assert_eq!(s.completed, 50);
        assert!(s.max_batch <= 8, "count bound held: {}", s.max_batch);
        b.shutdown();
    }

    #[test]
    fn deadline_closes_an_underfull_batch() {
        let b = MicroBatcher::new(
            Echo::new(Duration::ZERO),
            BatchPolicy {
                max_batch: 1000,
                max_wait: Duration::from_millis(5),
                ..BatchPolicy::default()
            },
        );
        let rx = b.submit(rect(1), false).unwrap();
        // Only the deadline can close this batch of one.
        assert_eq!(rx.recv().unwrap().unwrap(), JobOutput::Matches(vec![1]));
        b.shutdown();
    }

    #[test]
    fn overload_rejects_without_queueing() {
        let b = MicroBatcher::new_paused(
            Echo::new(Duration::ZERO),
            BatchPolicy {
                max_batch: 4,
                queue_depth: 3,
                ..BatchPolicy::default()
            },
        );
        let _held: Vec<_> = (0..3).map(|i| b.submit(rect(i), false).unwrap()).collect();
        assert_eq!(
            b.submit(rect(9), false).err(),
            Some(SubmitError::Overloaded)
        );
        assert_eq!(b.stats().rejected, 1);
        // Workers drain the held jobs once started; shutdown then drains.
        b.start();
        b.shutdown();
        assert_eq!(b.stats().completed, 3);
    }

    #[test]
    fn shutdown_drains_queued_jobs_then_refuses_new_ones() {
        let b = MicroBatcher::new_paused(
            Echo::new(Duration::from_millis(1)),
            BatchPolicy {
                max_batch: 2,
                ..BatchPolicy::default()
            },
        );
        let rxs: Vec<_> = (0..10).map(|i| b.submit(rect(i), false).unwrap()).collect();
        b.start();
        b.shutdown();
        for (i, rx) in rxs.into_iter().enumerate() {
            assert_eq!(
                rx.recv().unwrap().unwrap(),
                JobOutput::Matches(vec![i as u64]),
                "job {i} drained"
            );
        }
        assert_eq!(
            b.submit(rect(0), false).err(),
            Some(SubmitError::ShuttingDown)
        );
        assert_eq!(b.stats().completed, 10);
    }

    #[test]
    fn count_only_jobs_get_counts() {
        let b = MicroBatcher::new(Echo::new(Duration::ZERO), BatchPolicy::default());
        match b.submit(rect(3), true).unwrap().recv().unwrap().unwrap() {
            JobOutput::Count(1) => {}
            other => panic!("expected Count(1), got {other:?}"),
        }
        b.shutdown();
    }

    /// Engine double that also accepts writes: inserts succeed, deletes
    /// report "found" only for even ids.
    struct WritableEcho {
        inner: Echo,
        ops: Mutex<Vec<WriteOp>>,
    }

    impl QueryEngine for WritableEcho {
        fn execute(&self, queries: &[Rect]) -> io::Result<Vec<Vec<u64>>> {
            self.inner.execute(queries)
        }

        fn io_stats(&self) -> IoStats {
            self.inner.io_stats()
        }

        fn execute_writes(&self, ops: &[WriteOp]) -> Vec<io::Result<bool>> {
            lock(&self.ops).extend_from_slice(ops);
            ops.iter()
                .map(|op| match op {
                    WriteOp::Insert(..) => Ok(true),
                    WriteOp::Delete(_, id) => Ok(id % 2 == 0),
                })
                .collect()
        }
    }

    #[test]
    fn mixed_batches_demux_writes_and_queries_by_position() {
        let b = MicroBatcher::new_paused(
            WritableEcho {
                inner: Echo::new(Duration::ZERO),
                ops: Mutex::new(Vec::new()),
            },
            BatchPolicy {
                max_batch: 6,
                workers: 1,
                ..BatchPolicy::default()
            },
        );
        let q1 = b.submit(rect(1), false).unwrap();
        let w1 = b.submit_write(WriteOp::Insert(rect(10), 100)).unwrap();
        let q2 = b.submit(rect(2), true).unwrap();
        let w2 = b.submit_write(WriteOp::Delete(rect(11), 101)).unwrap();
        let w3 = b.submit_write(WriteOp::Delete(rect(12), 102)).unwrap();
        b.start();
        assert_eq!(q1.recv().unwrap().unwrap(), JobOutput::Matches(vec![1]));
        assert_eq!(w1.recv().unwrap().unwrap(), JobOutput::Written(true));
        assert_eq!(q2.recv().unwrap().unwrap(), JobOutput::Count(1));
        assert_eq!(w2.recv().unwrap().unwrap(), JobOutput::Written(false));
        assert_eq!(w3.recv().unwrap().unwrap(), JobOutput::Written(true));
        assert_eq!(lock(&b.engine().ops).len(), 3, "all ops reached the engine");
        assert_eq!(b.stats().completed, 5);
        b.shutdown();
    }

    #[test]
    fn read_only_engines_answer_writes_with_typed_errors() {
        let b = MicroBatcher::new(Echo::new(Duration::ZERO), BatchPolicy::default());
        let rx = b.submit_write(WriteOp::Insert(rect(1), 1)).unwrap();
        let err = rx.recv().unwrap().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Unsupported);
        b.shutdown();
    }

    #[test]
    fn paused_batcher_executes_one_full_batch() {
        // Deterministic batch composition: queue 6 jobs with max_batch 6,
        // then start — the first worker must close exactly one batch of 6.
        let b = MicroBatcher::new_paused(
            Echo::new(Duration::ZERO),
            BatchPolicy {
                max_batch: 6,
                workers: 1,
                ..BatchPolicy::default()
            },
        );
        let rxs: Vec<_> = (0..6).map(|i| b.submit(rect(i), false).unwrap()).collect();
        b.start();
        for rx in rxs {
            rx.recv().unwrap().unwrap();
        }
        assert_eq!(lock(&b.engine().calls).as_slice(), &[6]);
        b.shutdown();
    }
}
