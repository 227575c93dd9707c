//! The embedded workloads: one thread calling `DiskRTree::{query,
//! query_point, nearest_neighbors}` on the image through a real
//! `FileStore`. `embedded_resident` and `embedded_starved` differ only in
//! the buffer size.

use crate::harness::{same_ids, Bench, Closing, Counters, Limit, ModelStream, Pass, MESSAGES};
use crate::served::to_requests;
use crate::setup::{sub_seed, Env, Store};
use crate::span::{Recorder, ENGINE_READ};
use rtree_datagen::trace::{MixWeights, TraceOp};
use rtree_geom::Rect;
use rtree_index::Neighbor;
use rtree_pager::DiskRTree;
use rtree_server::Request;
use std::io;
use std::sync::Arc;
use std::time::Instant;

/// Every `CHECK_EVERY`-th read is compared with the oracle.
pub const CHECK_EVERY: usize = 64;

enum Answer {
    Ids(Vec<u64>),
    Near(Vec<Neighbor>),
}

pub struct Embedded {
    env: Arc<Env>,
    tree: DiskRTree<Store>,
    frames: usize,
    stream: Vec<TraceOp>,
    stream_seed: u64,
    cursor: usize,
    rec: Arc<Recorder>,
    /// Region and point operations of the traced pass and the page reads
    /// they caused: what the analytic model describes (it has no kNN).
    modelled_ops: u64,
    modelled_reads: u64,
}

impl Embedded {
    /// Opens the image with `frames` buffer frames and generates a stream
    /// of `stream_ops` operations (cycled if a pass needs more).
    pub fn open(
        env: Arc<Env>,
        frames: usize,
        stream_ops: usize,
        seed: u64,
        rec: &Arc<Recorder>,
    ) -> io::Result<Self> {
        let mut tree = env.open_tree(frames, rec)?;
        if frames as u64 >= env.pages() {
            // The whole image fits: touch every page once, so that after
            // warm-up no operation reads from the store.
            tree.query(&Rect::new(0.0, 0.0, 1.0, 1.0))?;
        }
        let stream_seed = sub_seed(seed, 1);
        let stream = Env::stream(&env.rects, stream_ops, MixWeights::read_only(), stream_seed);
        Ok(Embedded {
            env,
            tree,
            frames,
            stream,
            stream_seed,
            cursor: 0,
            rec: Arc::clone(rec),
            modelled_ops: 0,
            modelled_reads: 0,
        })
    }

    fn execute(tree: &mut DiskRTree<Store>, op: &TraceOp) -> io::Result<Answer> {
        match op {
            TraceOp::Region(r) => tree.query(r).map(Answer::Ids),
            TraceOp::Point(p) => tree.query_point(p).map(Answer::Ids),
            TraceOp::Knn(p, k) => tree.nearest_neighbors(p, *k as usize).map(Answer::Near),
            TraceOp::Insert(..) | TraceOp::Delete(..) => {
                unreachable!("the embedded workloads replay a read-only stream")
            }
        }
    }

    /// True when `answer` is what the in-memory tree gives for `op`.
    fn matches_oracle(&self, op: &TraceOp, answer: Answer) -> bool {
        match (op, answer) {
            (TraceOp::Region(r), Answer::Ids(ids)) => same_ids(ids, self.env.oracle.search(r)),
            (TraceOp::Point(p), Answer::Ids(ids)) => same_ids(ids, self.env.oracle.point_search(p)),
            (TraceOp::Knn(p, k), Answer::Near(got)) => {
                // Which of several equidistant items is returned is a
                // heap-order artifact; the distance sequence is unique.
                let want = self.env.oracle.nearest_neighbors(p, *k as usize);
                got.len() == want.len()
                    && got
                        .iter()
                        .zip(&want)
                        .all(|(a, b)| (a.distance - b.distance).abs() <= 1e-12)
            }
            _ => false,
        }
    }
}

impl Bench for Embedded {
    fn pass(&mut self, limit: Limit) -> Pass {
        let mut pass = Pass::default();
        let mut sampled: Vec<(usize, Answer)> = Vec::new();
        let traced = self.rec.enabled();
        let start = Instant::now();
        let (max_ops, deadline) = match limit {
            Limit::Ops(n) => (n, None),
            Limit::For(d) => (usize::MAX, Some(start + d)),
        };
        while (pass.ops as usize) < max_ops {
            let at = self.cursor % self.stream.len();
            let op = self.stream[at];
            self.cursor += 1;
            let reads_before = self.tree.physical_reads();
            let t0 = Instant::now();
            let answer = self.rec.span(ENGINE_READ, Some(self.cursor as u64), 1, || {
                Self::execute(&mut self.tree, &op)
            });
            let t1 = Instant::now();
            pass.ops += 1;
            match answer {
                Err(_) => pass.failed += 1,
                Ok(answer) => {
                    pass.read_ns.push((t1 - t0).as_nanos() as u64);
                    pass.results += match &answer {
                        Answer::Ids(ids) => ids.len() as u64,
                        Answer::Near(near) => near.len() as u64,
                    };
                    if traced && !matches!(op, TraceOp::Knn(..)) {
                        self.modelled_ops += 1;
                        self.modelled_reads += self.tree.physical_reads() - reads_before;
                    }
                    if (pass.ops as usize).is_multiple_of(CHECK_EVERY) {
                        sampled.push((at, answer));
                    }
                }
            }
            if deadline.is_some_and(|d| t1 >= d) {
                break;
            }
        }
        pass.elapsed_ns = start.elapsed().as_nanos() as u64;
        // Outside the timed region.
        for (at, answer) in sampled {
            if !self.matches_oracle(&self.stream[at], answer) {
                pass.failed += 1;
            }
        }
        pass
    }

    fn counters(&self) -> Counters {
        let io = self.tree.io_stats();
        let buf = self.tree.buffer_stats();
        Counters {
            reads: io.reads,
            prefetch_reads: io.prefetch_reads,
            accesses: buf.accesses,
            hits: buf.hits,
            ..Counters::default()
        }
    }

    fn frames(&self) -> usize {
        self.frames
    }

    fn messages(&self) -> Vec<Request> {
        let reads: Vec<TraceOp> = self
            .stream
            .iter()
            .filter(|op| !matches!(op, TraceOp::Knn(..)))
            .take(MESSAGES)
            .copied()
            .collect();
        to_requests(&reads, |id| id)
    }

    fn model_stream(&self) -> ModelStream {
        ModelStream {
            rects: self.env.rects.clone(),
            pool_seed: self.stream_seed,
            mix: MixWeights::read_only(),
        }
    }

    fn modelled(&self) -> Option<(u64, u64)> {
        Some((self.modelled_ops, self.modelled_reads))
    }

    fn close(self: Box<Self>) -> Closing {
        Closing {
            lost: 0,
            stored_bytes: self.env.image_bytes().unwrap_or(0),
            live_items: self.env.meta.items,
        }
    }
}
