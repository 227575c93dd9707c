//! Self-tuning buffer management: the paper's analytic model as an
//! **online controller**.
//!
//! Everything the workspace measured offline — the expected-disk-access
//! curve (eq. 6), its warm-up knee `N*`, the best pinning depth — is here
//! driven *live*:
//!
//! 1. **Estimate** ([`WorkloadWindow`]): query rectangles and writes
//!    arrive through the dependency-free [`rtree_obs::TuneObserver`] seam;
//!    a bounded sliding window fits them to a [`rtree_core::Workload`] —
//!    uniform when a chi-square test of the query centers cannot reject
//!    uniformity, data-driven over the observed centers when it can (which
//!    covers clustered and Zipf query-follows-data traffic: the window's
//!    center multiset *is* the observed skew).
//! 2. **Refit** ([`Controller`]): the fitted workload plus the tree's real
//!    [`rtree_core::TreeDescription`] rebuild the [`rtree_core::BufferModel`];
//!    the plan is the smallest buffer within the configured budget whose
//!    predicted cost sits at the curve's knee, plus that buffer's
//!    [`rtree_core::BufferModel::best_pinning`] depth.
//! 3. **Actuate** ([`Actuator`]): unpin → resize → re-pin, on either tree
//!    flavor (one [`DiskActuator`] over [`BufferControls`]). Guards: a
//!    hysteresis band (moves must buy a minimum *relative* predicted
//!    improvement) and a minimum interval between actuations, so a noisy
//!    window can never thrash the pool.
//!
//! Tuning is invisible to correctness by construction: actuators only
//! change *caching* state (pool size, pins), never tree contents, and the
//! property suite asserts adaptive query answers equal non-adaptive ones
//! while the chaos harness interleaves ticks with writes and crashes.

#![warn(missing_docs)]

mod actuate;
mod controller;
mod estimator;

pub use actuate::{Actuator, BufferControls, DiskActuator};
pub use controller::{Controller, ControllerConfig, DecisionRecord, Setting};
pub use estimator::{WorkloadEstimate, WorkloadWindow};
