//! Names the stand-alone `rtree-perf` benchmark calls, kept as a thin
//! adapter over [`rtree_pager::ConcurrentDiskRTree::query_batch`].

use rtree_geom::Rect;
use rtree_pager::{BatchOutput, DiskRTree, PageStore};

/// Has no settings.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchConfig;

/// Runs a batch through the tree's batched walk.
#[doc(hidden)]
pub struct BatchExecutor;

impl BatchExecutor {
    /// An executor; the configuration is ignored.
    pub fn with_config(_config: BatchConfig) -> Self {
        BatchExecutor
    }

    /// `tree.query_batch(queries, 1)`.
    pub fn execute<S: PageStore>(
        &self,
        tree: &mut DiskRTree<S>,
        queries: &[Rect],
    ) -> std::io::Result<BatchOutput> {
        tree.query_batch(queries, 1)
    }
}
