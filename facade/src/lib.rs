//! # buffered-rtrees
//!
//! A faithful, production-quality reproduction of
//! **Leutenegger & López, "The Effect of Buffering on the Performance of
//! R-Trees" (ICDE 1998 / IEEE TKDE 12(1), 2000)**.
//!
//! Past R-tree studies measured query cost as the number of *nodes visited*.
//! Real database systems buffer part of the tree in memory, so the paper
//! argues — and this workspace demonstrates end-to-end — that the right
//! metric is the expected number of **disk accesses** per query, and derives
//! an analytic LRU buffer model that predicts it within ~2% of simulation.
//!
//! The workspace is organised as one crate per subsystem; this facade crate
//! re-exports them under stable module names:
//!
//! * [`geom`] — rectangles, points, Hilbert/Morton curves.
//! * [`index`] — the 2-D R-tree itself: Guttman insertion
//!   (quadratic/linear splits), deletion, and the packing loaders
//!   TAT/NX/HS/Morton/STR.
//! * [`buffer`] — buffer pool with LRU/FIFO/Clock/Random replacement and
//!   page pinning.
//! * [`pager`] — page file + buffer manager + disk-backed R-tree execution
//!   that counts physical reads.
//! * [`obs`] — observability: I/O trace events and sinks, power-of-two
//!   histograms, Prometheus-style export (a `pager` tree emits events to a
//!   sink attached at run time with `set_trace_sink`; without one it emits
//!   none).
//! * [`wal`] — the write-ahead log backing the durable write path.
//! * [`model`] — the paper's analytic models: node-access cost
//!   (Kamel–Faloutsos with the Pagel boundary correction), data-driven
//!   access probabilities, and the LRU buffer model with pinning.
//! * [`sim`] — the trace-driven LRU simulation used to validate the model
//!   (batch means, confidence intervals).
//! * [`datagen`] — deterministic synthetic data sets, including TIGER-like
//!   and CFD-like substitutes for the paper's proprietary inputs.
//!
//! ## Quick start
//!
//! ```
//! use buffered_rtrees::datagen::SyntheticRegion;
//! use buffered_rtrees::index::{BulkLoader, RTree};
//! use buffered_rtrees::model::{BufferModel, TreeDescription, Workload};
//!
//! // 1. Generate a data set and bulk-load an R-tree with Hilbert packing.
//! let rects = SyntheticRegion::new(10_000).generate(42);
//! let tree = BulkLoader::hilbert(100).load(&rects);
//!
//! // 2. Describe the tree by its per-level MBRs (the model's only input).
//! let desc = TreeDescription::from_tree(&tree);
//!
//! // 3. Predict expected disk accesses per 1%-region query with a
//! //    100-page LRU buffer.
//! let workload = Workload::uniform_region(0.1, 0.1);
//! let prediction = BufferModel::new(&desc, &workload).expected_disk_accesses(100);
//! assert!(prediction > 0.0);
//! ```

pub use rtree_buffer as buffer;
pub use rtree_core as model;
pub use rtree_datagen as datagen;
pub use rtree_geom as geom;
pub use rtree_index as index;
pub use rtree_obs as obs;
pub use rtree_pager as pager;
pub use rtree_sim as sim;
pub use rtree_wal as wal;
