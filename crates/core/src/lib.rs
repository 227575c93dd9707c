//! The analytic models of Leutenegger & López (ICDE 1998): node-access cost
//! and the LRU **buffer model** — the paper's primary contribution.
//!
//! The input of every model is a [`TreeDescription`]: the minimum bounding
//! rectangles of all R-tree nodes, grouped by level (level 0 = root, as in
//! the paper). The models are *hybrid*: trees are built by real loading
//! algorithms (see `rtree-index`), then described by their MBRs.
//!
//! Three layers:
//!
//! 1. [`Workload`] — turns a query distribution into per-node **access
//!    probabilities** `A^Q_ij`: uniform point queries (§3.1, probability =
//!    clamped area), uniform region queries (eq. 2 with the Pagel-style
//!    boundary correction), and data-driven queries (§3.2, eq. 4).
//! 2. [`NodeAccessModel`] — the bufferless expected *nodes visited* per
//!    query (the metric the paper argues is insufficient), both in the
//!    original Kamel–Faloutsos closed form `A + qx·Ly + qy·Lx + M·qx·qy`
//!    and in the corrected per-node form `Σ A^Q_ij`.
//! 3. [`BufferModel`] — the buffer model (§3.3): distinct nodes touched in
//!    `N` queries `D(N) = M − Σ (1−A^Q_ij)^N`, the warm-up length `N*`
//!    (smallest `N` with `D(N) ≥ B`), the steady-state expected **disk
//!    accesses** per query `ED = Σ A^Q_ij (1−A^Q_ij)^{N*}` (eq. 6), and the
//!    pinned-levels variant.

mod buffer_model;
mod desc_io;
mod estimate;
mod mixed;
mod node_model;
mod tree_desc;
mod workload;

pub use buffer_model::{BufferModel, PinningError, WarmupOutcome};
pub use mixed::MixedWorkload;
pub use node_model::NodeAccessModel;
pub use tree_desc::TreeDescription;
pub use workload::Workload;
