//! Deterministic simulation testing for the disk R-tree stack.
//!
//! One `u64` seed determines an entire chaos run: the tree and buffer-pool
//! configuration, a fault schedule (crash points on page writes, torn
//! writes, short appends, WAL-append crashes, transient read faults), a
//! mixed operation stream (inserts, deletes, point and region queries,
//! buffer resizes, checkpoints, flushes), and a logical thread-interleaving
//! schedule for the concurrent read phase. The run is replayed against
//! three oracles — differential, durability, accounting (see
//! [`engine`]) — and any violation shrinks, by prefix bisection, to a
//! minimal `rtrees chaos --seed N --ops K` replay line.
//!
//! The harness exists because the paper's buffered R-tree claims are
//! *quantitative*: a recovery bug that silently drops one committed insert,
//! or an accounting bug that miscounts one physical read, corrupts every
//! downstream measurement. Randomized, replayable adversarial workloads
//! are the cheapest way to keep both honest.
//!
//! ```
//! let report = rtree_chaos::run(42, 120);
//! assert!(report.passed(), "{:?}", report.failures);
//! // Bit-for-bit replayable: same seed, same verdict, same plan.
//! assert_eq!(rtree_chaos::run(42, 120).ops_executed, report.ops_executed);
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod plan;
pub mod shrink;

pub use engine::{run, run_plan, run_planted, ChaosFailure, ChaosReport, Oracle};
pub use plan::{ChaosOp, ChaosPlan, FaultPlan};
pub use shrink::shrink;

#[cfg(test)]
mod tests {
    use super::*;

    /// The tentpole acceptance criterion: same seed ⇒ same op plan, same
    /// fault schedule, same oracle verdicts.
    #[test]
    fn runs_are_bit_for_bit_replayable() {
        for seed in [0u64, 7, 1234, 0xDEAD_BEEF] {
            let a = run(seed, 150);
            let b = run(seed, 150);
            assert_eq!(a.ops_executed, b.ops_executed, "seed {seed}");
            assert_eq!(a.crashed, b.crashed, "seed {seed}");
            assert_eq!(a.fault, b.fault, "seed {seed}");
            assert_eq!(a.committed_items, b.committed_items, "seed {seed}");
            assert_eq!(a.queries_checked, b.queries_checked, "seed {seed}");
            assert_eq!(a.passed(), b.passed(), "seed {seed}");
            assert_eq!(a.failures.len(), b.failures.len(), "seed {seed}");
        }
    }

    /// A small fixed seed range must be green: `0..16 × 120`, the first
    /// 16 seeds of CI's `rtrees chaos --seeds 0..40 --ops 300` corpus, each
    /// cut to the first 120 ops of its stream (truncation keeps the plan).
    #[test]
    fn fixed_seed_corpus_is_green() {
        for seed in 0..16u64 {
            let report = run(seed, 120);
            assert!(
                report.passed(),
                "seed {seed} ({}): {:?}\nreplay: {}",
                report.fault,
                report.failures,
                report.replay_line()
            );
        }
    }

    /// The planted bug is *caught* (oracles are not vacuous).
    #[test]
    fn planted_bug_is_detected() {
        let caught = (0..32u64)
            .filter(|&s| !run_planted(s, 200).passed())
            .count();
        assert!(
            caught > 0,
            "no seed in 0..32 detected the planted phantom id"
        );
        // And an unplanted run of the same seeds stays green.
        for seed in 0..32u64 {
            let r = run(seed, 200);
            assert!(r.passed(), "unplanted seed {seed}: {:?}", r.failures);
        }
    }

    #[test]
    fn replay_line_round_trips_the_parameters() {
        let report = run(99, 77);
        assert_eq!(report.replay_line(), "rtrees chaos --seed 99 --ops 77");
    }
}
