//! Seed → plan: everything a chaos run does is a pure function of one
//! `u64`.
//!
//! Generation order is fixed — configuration first, the fault schedule
//! second, the operation stream last — so truncating the operation stream
//! (what shrinking does via `--ops K`) never changes the tree shape, the
//! buffer policy or where the fault fires. That is what makes the
//! `rtrees chaos --seed N --ops K` replay line sufficient to reproduce a
//! failure bit for bit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtree_buffer::PolicyKind;
use rtree_geom::Rect;
use std::fmt;

/// One step of the sequential workload.
#[derive(Clone, Debug, PartialEq)]
pub enum ChaosOp {
    /// Insert this rectangle (the engine assigns the item id).
    Insert(Rect),
    /// Delete the live entry at `pick % live.len()`; a no-op when nothing
    /// is live yet.
    Delete(u64),
    /// Region (or point — zero-extent) query, checked against the model.
    Query(Rect),
    /// A batch of queries run through the batched executor (dedup); every
    /// per-query result set is checked against the model.
    BatchQuery(Vec<Rect>),
    /// Queries replayed through a loopback TCP server after recovery (the
    /// network phase); also executed directly in the sequential phase so
    /// both paths are differential-checked against the model.
    ServerQuery(Vec<Rect>),
    /// Write the dirty pages back, log a checkpoint, truncate the WAL.
    Checkpoint,
    /// `DiskRTree::flush`, which on a written tree is the same checkpoint.
    Flush,
    /// Swap the buffer pool for one with this many frames (flushes first).
    Resize(usize),
}

/// Where (and how) the injected fault fires, 1-based like the `FaultStore`
/// and `FaultLog` triggers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultPlan {
    /// No fault: the workload runs to completion.
    None,
    /// Crash on the n-th physical page write; `torn` persists half a page.
    StoreCrash {
        /// 1-based write ordinal.
        at: u64,
        /// Tear the crashing write.
        torn: bool,
    },
    /// Crash on the n-th page allocation (short append).
    ShortAppend {
        /// 1-based allocation ordinal.
        at: u64,
    },
    /// Crash on the n-th WAL append; `torn` leaves half a record behind.
    LogCrash {
        /// 1-based append ordinal.
        at: u64,
        /// Tear the crashing append.
        torn: bool,
    },
    /// Fail the n-th page read with an I/O error (transient, no crash).
    ReadFault {
        /// 1-based read ordinal.
        at: u64,
    },
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlan::None => write!(f, "none"),
            FaultPlan::StoreCrash { at, torn } => {
                write!(f, "store-crash@w{at}{}", if *torn { "+torn" } else { "" })
            }
            FaultPlan::ShortAppend { at } => write!(f, "short-append@a{at}"),
            FaultPlan::LogCrash { at, torn } => {
                write!(f, "log-crash@l{at}{}", if *torn { "+torn" } else { "" })
            }
            FaultPlan::ReadFault { at } => write!(f, "read-fault@r{at}"),
        }
    }
}

/// The full, deterministic description of one chaos run.
#[derive(Clone, Debug)]
pub struct ChaosPlan {
    /// The seed everything below derives from.
    pub seed: u64,
    /// Guttman node capacity `M` of the tree under test.
    pub max_entries: usize,
    /// Minimum fill `m`.
    pub min_entries: usize,
    /// Buffer frames — kept small so evictions (and the crash points that
    /// ride on them) happen constantly.
    pub buffer_capacity: usize,
    /// Replacement policy for the sequential phase.
    pub policy: PolicyKind,
    /// Seed for the randomized policy, so the whole plan stays a function
    /// of the run seed.
    pub policy_seed: u64,
    /// The injected fault, if any.
    pub fault: FaultPlan,
    /// The sequential operation stream.
    pub ops: Vec<ChaosOp>,
    /// Threads for the concurrent read phase.
    pub threads: usize,
    /// Latch shards for the concurrent read phase.
    pub shards: usize,
    /// Top levels to pin in the concurrent phase.
    pub pin_levels: usize,
    /// Seed for the step-controlled interleaving schedule.
    pub sched_seed: u64,
}

impl ChaosPlan {
    /// Generates the plan for `seed` with exactly `ops` workload steps.
    pub fn generate(seed: u64, ops: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);

        // 1. Configuration.
        let max_entries = rng.gen_range(4..=10usize);
        let min_entries = rng.gen_range(2..=(max_entries / 2).max(2));
        let buffer_capacity = rng.gen_range(2..=24usize);
        let (policy, policy_seed) = match rng.gen_range(0..5u32) {
            0 => (PolicyKind::Lru, 0),
            1 => (PolicyKind::Lru2, 0),
            2 => (PolicyKind::Fifo, 0),
            3 => (PolicyKind::Clock, 0),
            _ => (PolicyKind::Random, rng.gen()),
        };
        let threads = rng.gen_range(2..=4usize);
        let shards = 1usize << rng.gen_range(0..3u32);
        let pin_levels = rng.gen_range(0..=2usize);
        let sched_seed = rng.gen();
        // Drawn and unused (it was the readahead window): keeps every seed's plan.
        let _ = rng.gen_range(0..=8usize);

        // 2. Fault schedule (each `gen_range` draws one value, whatever
        // its range). The store is written only by checkpoints, after the
        // two bootstrap writes of `create_empty`, and read where a page
        // misses the pool: a 300-op run writes ≥ 48 pages and reads ≥ 38
        // (the least over seeds 0..400), so a store crash drawn from
        // `3..48` and a read fault from `1..38` fire in every such run.
        // The log appends once per commit and twice per checkpoint,
        // ≈ 230 times in a 300-op run: a log crash drawn from `1..400`
        // lands mid-run for most seeds.
        let fault = match rng.gen_range(0..8u32) {
            0 | 1 => FaultPlan::StoreCrash {
                at: rng.gen_range(3..48u64),
                torn: rng.gen_bool(0.5),
            },
            2 | 3 => FaultPlan::LogCrash {
                at: rng.gen_range(1..400u64),
                torn: rng.gen_bool(0.5),
            },
            4 => FaultPlan::ShortAppend {
                at: rng.gen_range(3..120u64),
            },
            5 => FaultPlan::ReadFault {
                at: rng.gen_range(1..38u64),
            },
            _ => FaultPlan::None,
        };

        // 3. Operation stream (config and fault above are untouched by the
        // number of ops requested).
        let ops = (0..ops).map(|_| Self::gen_op(&mut rng)).collect();

        ChaosPlan {
            seed,
            max_entries,
            min_entries,
            buffer_capacity,
            policy,
            policy_seed,
            fault,
            ops,
            threads,
            shards,
            pin_levels,
            sched_seed,
        }
    }

    fn gen_op(rng: &mut StdRng) -> ChaosOp {
        let roll = rng.gen_range(0..100u32);
        if roll < 45 {
            let x = rng.gen_range(0.0..0.9);
            let y = rng.gen_range(0.0..0.9);
            let w = rng.gen_range(0.001..0.08);
            let h = rng.gen_range(0.001..0.08);
            ChaosOp::Insert(Rect::new(x, y, x + w, y + h))
        } else if roll < 65 {
            ChaosOp::Delete(rng.gen())
        } else if roll < 83 {
            ChaosOp::Query(Self::gen_query(rng))
        } else if roll < 88 {
            let n = rng.gen_range(2..=6usize);
            ChaosOp::BatchQuery((0..n).map(|_| Self::gen_query(rng)).collect())
        } else if roll < 91 {
            let n = rng.gen_range(2..=8usize);
            ChaosOp::ServerQuery((0..n).map(|_| Self::gen_query(rng)).collect())
        } else if roll < 94 {
            ChaosOp::Checkpoint
        } else if roll < 97 {
            ChaosOp::Flush
        } else {
            ChaosOp::Resize(rng.gen_range(2..=32usize))
        }
    }

    /// Region (or point — zero-extent) query rectangle.
    fn gen_query(rng: &mut StdRng) -> Rect {
        let x = rng.gen_range(0.0..0.8);
        let y = rng.gen_range(0.0..0.8);
        if rng.gen_bool(0.3) {
            // Point query: zero-extent rectangle.
            Rect::new(x, y, x, y)
        } else {
            let w = rng.gen_range(0.01..0.3);
            let h = rng.gen_range(0.01..0.3);
            Rect::new(x, y, x + w, y + h)
        }
    }

    /// The rectangles of `ServerQuery` ops, in order — the workload the
    /// loopback-server phase replays over TCP.
    pub fn server_query_rects(&self) -> Vec<Rect> {
        self.ops
            .iter()
            .filter_map(|op| match op {
                ChaosOp::ServerQuery(rs) => Some(rs.as_slice()),
                _ => None,
            })
            .flatten()
            .copied()
            .collect()
    }

    /// The query rectangles of the plan — single and batched, in order
    /// (drives the concurrent read phase).
    pub fn query_rects(&self) -> Vec<Rect> {
        let mut out = Vec::new();
        for op in &self.ops {
            match op {
                ChaosOp::Query(r) => out.push(*r),
                ChaosOp::BatchQuery(rs) | ChaosOp::ServerQuery(rs) => out.extend_from_slice(rs),
                _ => {}
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan() {
        let a = ChaosPlan::generate(12345, 300);
        let b = ChaosPlan::generate(12345, 300);
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.fault, b.fault);
        assert_eq!(a.policy, b.policy);
        assert_eq!(
            (a.max_entries, a.min_entries, a.buffer_capacity),
            (b.max_entries, b.min_entries, b.buffer_capacity)
        );
        assert_eq!(
            (a.threads, a.shards, a.pin_levels, a.sched_seed),
            (b.threads, b.shards, b.pin_levels, b.sched_seed)
        );
    }

    #[test]
    fn truncation_is_a_prefix_and_preserves_config() {
        let long = ChaosPlan::generate(777, 500);
        let short = ChaosPlan::generate(777, 50);
        assert_eq!(short.ops[..], long.ops[..50]);
        assert_eq!(short.fault, long.fault);
        assert_eq!(short.policy, long.policy);
        assert_eq!(short.buffer_capacity, long.buffer_capacity);
    }

    #[test]
    fn different_seeds_differ() {
        let a = ChaosPlan::generate(1, 200);
        let b = ChaosPlan::generate(2, 200);
        assert_ne!(a.ops, b.ops);
    }

    #[test]
    fn seeds_cover_every_fault_kind() {
        let mut kinds = std::collections::HashSet::new();
        for seed in 0..64u64 {
            let p = ChaosPlan::generate(seed, 1);
            kinds.insert(std::mem::discriminant(&p.fault));
        }
        assert_eq!(kinds.len(), 5, "64 seeds should hit all five fault kinds");
    }

    #[test]
    fn seeds_cover_server_queries() {
        let mut with_server = 0;
        for seed in 0..32u64 {
            let p = ChaosPlan::generate(seed, 300);
            if !p.server_query_rects().is_empty() {
                with_server += 1;
            }
        }
        assert!(
            with_server >= 24,
            "only {with_server}/32 seeds exercise the server phase"
        );
    }

    #[test]
    fn min_entries_respects_guttman_bound() {
        for seed in 0..200u64 {
            let p = ChaosPlan::generate(seed, 1);
            assert!(p.min_entries >= 2);
            assert!(
                p.min_entries <= (p.max_entries / 2).max(2),
                "seed {seed}: m={} M={}",
                p.min_entries,
                p.max_entries
            );
        }
    }
}
