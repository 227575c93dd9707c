//! The simulation loop: queries → traces → buffer pool → disk accesses.

use crate::{BatchMeans, MixedSampler, QuerySampler, SimTree};
use rtree_buffer::{BufferPool, PageId, PolicyKind};
use rtree_core::{MixedWorkload, Workload};

/// Configuration of one simulation run.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Buffer capacity in pages.
    pub buffer: usize,
    /// Number of top tree levels to pin (0 = plain LRU, as in most of the
    /// paper).
    pub pin_levels: usize,
    /// Number of batches (the paper uses 20).
    pub batches: usize,
    /// Queries per batch (the paper uses 1,000,000; smaller values already
    /// give sub-percent intervals for the tree sizes studied).
    pub queries_per_batch: usize,
    /// Warm-up cap: the run first executes queries until the buffer fills,
    /// but at most this many, before measurement starts.
    pub max_warmup_queries: usize,
    /// Replacement policy.
    pub policy: PolicyKind,
    /// RNG seed.
    pub seed: u64,
}

impl SimConfig {
    /// A reasonable default configuration for a given buffer size: 20
    /// batches of 20,000 queries, LRU, no pinning.
    pub fn new(buffer: usize) -> Self {
        SimConfig {
            buffer,
            pin_levels: 0,
            batches: 20,
            queries_per_batch: 20_000,
            max_warmup_queries: 200_000,
            policy: PolicyKind::Lru,
            seed: 0xB0FF_E21A,
        }
    }

    /// Sets the number of pinned levels.
    pub fn pin_levels(mut self, p: usize) -> Self {
        self.pin_levels = p;
        self
    }

    /// Sets the replacement policy.
    pub fn policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Sets batch shape.
    pub fn batches(mut self, batches: usize, queries_per_batch: usize) -> Self {
        self.batches = batches;
        self.queries_per_batch = queries_per_batch;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Outcome of a simulation run.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Mean disk accesses per query at steady state.
    pub disk_accesses_per_query: f64,
    /// Two-sided 90% confidence half-width.
    pub ci_half_width: f64,
    /// Mean nodes accessed per query (buffer-independent).
    pub nodes_accessed_per_query: f64,
    /// Buffer hit ratio over the measurement phase.
    pub hit_ratio: f64,
    /// Queries executed during warm-up.
    pub warmup_queries: usize,
}

/// A configured simulation.
///
/// # Examples
///
/// ```
/// use rtree_core::Workload;
/// use rtree_geom::Rect;
/// use rtree_index::BulkLoader;
/// use rtree_sim::{SimConfig, SimTree, Simulation};
///
/// let rects: Vec<Rect> = (0..400)
///     .map(|i| {
///         let x = (i as f64 * 0.618) % 0.99;
///         let y = (i as f64 * 0.414) % 0.99;
///         Rect::new(x, y, x + 0.005, y + 0.005)
///     })
///     .collect();
/// let tree = SimTree::from_tree(&BulkLoader::hilbert(16).load(&rects));
/// let cfg = SimConfig::new(8).batches(4, 1_000);
/// let result = Simulation::new(cfg).run(&tree, &Workload::uniform_point());
/// assert!(result.disk_accesses_per_query <= result.nodes_accessed_per_query);
/// ```
pub struct Simulation {
    config: SimConfig,
}

impl Simulation {
    /// Creates a simulation with the given configuration.
    pub fn new(config: SimConfig) -> Self {
        assert!(config.buffer > 0, "buffer must hold at least one page");
        assert!(config.batches > 0 && config.queries_per_batch > 0);
        Simulation { config }
    }

    /// Runs the simulation of `workload` against `tree`.
    ///
    /// # Panics
    /// Panics if `pin_levels` pins at least the whole buffer (mirroring the
    /// model's `PinningError`) or exceeds the tree height.
    pub fn run(&self, tree: &SimTree, workload: &Workload) -> SimResult {
        let mut sampler = QuerySampler::new(workload, self.config.seed);
        self.run_with(tree, &mut move || sampler.sample())
    }

    /// Runs the simulation of a workload mixture against `tree`.
    pub fn run_mixed(&self, tree: &SimTree, mix: &MixedWorkload) -> SimResult {
        let mut sampler = MixedSampler::new(mix, self.config.seed);
        self.run_with(tree, &mut move || sampler.sample())
    }

    /// Shared loop: warm-up until the pool fills, then batch-means
    /// measurement, drawing queries from `sample`.
    fn run_with(&self, tree: &SimTree, sample: &mut dyn FnMut() -> rtree_geom::Rect) -> SimResult {
        let cfg = &self.config;
        assert!(
            cfg.pin_levels <= tree.height(),
            "cannot pin {} levels of a {}-level tree",
            cfg.pin_levels,
            tree.height()
        );
        let pinned_pages = tree.pages_in_top_levels(cfg.pin_levels);
        let whole_tree_pinned = cfg.pin_levels == tree.height();
        assert!(
            pinned_pages < cfg.buffer || whole_tree_pinned,
            "pinning {pinned_pages} pages exhausts a {}-page buffer",
            cfg.buffer
        );

        let mut pool = BufferPool::new(cfg.buffer, cfg.policy.build(cfg.seed ^ 0x5EED));
        for page in 0..pinned_pages {
            pool.pin(PageId(page as u64))
                .expect("pin capacity checked above");
        }

        let mut trace: Vec<PageId> = Vec::with_capacity(64);

        // Warm-up: run until the buffer fills (or the cap is reached, for
        // workloads that can never fill it).
        let mut warmup = 0usize;
        while !pool.is_full() && warmup < cfg.max_warmup_queries {
            let q = sample();
            trace.clear();
            tree.trace_into(&q, &mut trace);
            for &page in &trace {
                pool.access(page);
            }
            warmup += 1;
        }
        pool.reset_stats();

        // Measurement: batch means over disk accesses per query.
        let mut batch_means = BatchMeans::new();
        let mut total_nodes = 0u64;
        let mut total_queries = 0u64;
        for _ in 0..cfg.batches {
            let mut batch_misses = 0u64;
            for _ in 0..cfg.queries_per_batch {
                let q = sample();
                trace.clear();
                tree.trace_into(&q, &mut trace);
                total_nodes += trace.len() as u64;
                for &page in &trace {
                    if pool.access(page).is_miss() {
                        batch_misses += 1;
                    }
                }
            }
            total_queries += cfg.queries_per_batch as u64;
            batch_means.push(batch_misses as f64 / cfg.queries_per_batch as f64);
        }

        SimResult {
            disk_accesses_per_query: batch_means.mean(),
            ci_half_width: batch_means.ci_half_width_90(),
            nodes_accessed_per_query: total_nodes as f64 / total_queries as f64,
            hit_ratio: pool.stats().hit_ratio(),
            warmup_queries: warmup,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtree_geom::{Point, Rect};
    use rtree_index::BulkLoader;

    fn small_tree() -> SimTree {
        let rects: Vec<Rect> = (0..800)
            .map(|i| {
                let x = (i as f64 * 0.618_033) % 0.98;
                let y = (i as f64 * 0.414_213) % 0.98;
                Rect::centered(Point::new(x + 0.01, y + 0.01), 0.008, 0.008)
            })
            .collect();
        SimTree::from_tree(&BulkLoader::hilbert(16).load(&rects))
    }

    fn quick(buffer: usize) -> SimConfig {
        SimConfig::new(buffer).batches(5, 2_000)
    }

    #[test]
    fn big_buffer_eliminates_disk_accesses() {
        let tree = small_tree();
        let cfg = quick(tree.page_count() + 10);
        let res = Simulation::new(cfg).run(&tree, &Workload::uniform_point());
        // Warm-up cap hit (buffer can never fill); steady state ~0 because
        // every touched page stays resident.
        assert!(res.disk_accesses_per_query < 0.05, "{res:?}");
    }

    #[test]
    fn tiny_buffer_costs_more_than_big_buffer() {
        let tree = small_tree();
        let w = Workload::uniform_point();
        let small = Simulation::new(quick(2)).run(&tree, &w);
        let big = Simulation::new(quick(40)).run(&tree, &w);
        assert!(
            small.disk_accesses_per_query > big.disk_accesses_per_query,
            "small {small:?} vs big {big:?}"
        );
    }

    #[test]
    fn disk_accesses_bounded_by_node_accesses() {
        let tree = small_tree();
        let res = Simulation::new(quick(10)).run(&tree, &Workload::uniform_region(0.1, 0.1));
        assert!(res.disk_accesses_per_query <= res.nodes_accessed_per_query);
        assert!(res.nodes_accessed_per_query > 1.0);
    }

    #[test]
    fn deterministic_for_seed() {
        let tree = small_tree();
        let w = Workload::uniform_point();
        let a = Simulation::new(quick(10).seed(7)).run(&tree, &w);
        let b = Simulation::new(quick(10).seed(7)).run(&tree, &w);
        assert_eq!(a.disk_accesses_per_query, b.disk_accesses_per_query);
    }

    #[test]
    fn pinning_never_hurts() {
        let tree = small_tree();
        let w = Workload::uniform_point();
        let unpinned = Simulation::new(quick(10)).run(&tree, &w);
        let pinned = Simulation::new(quick(10).pin_levels(1)).run(&tree, &w);
        assert!(
            pinned.disk_accesses_per_query <= unpinned.disk_accesses_per_query + 0.05,
            "pinning hurt: {pinned:?} vs {unpinned:?}"
        );
    }

    #[test]
    fn all_policies_run() {
        let tree = small_tree();
        let w = Workload::uniform_point();
        for p in [
            PolicyKind::Lru,
            PolicyKind::Fifo,
            PolicyKind::Clock,
            PolicyKind::Random,
            PolicyKind::Lru2,
        ] {
            let res = Simulation::new(quick(8).policy(p)).run(&tree, &w);
            assert!(res.disk_accesses_per_query >= 0.0, "{}", p.name());
        }
    }

    #[test]
    #[should_panic]
    fn over_pinning_panics() {
        let tree = small_tree();
        let cfg = quick(1).pin_levels(1); // root pin exhausts B=1
        let _ = Simulation::new(cfg).run(&tree, &Workload::uniform_point());
    }
}
