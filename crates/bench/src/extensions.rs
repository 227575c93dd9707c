//! Model-level extensions: validation against physical execution,
//! ablations, update quality, accuracy sweeps, mixtures and N-D — every
//! experiment here reports page counts only, so its output is
//! deterministic.

use crate::{f, pct, say, seeds, synthetic_region, tiger, write_result, Loader, Opts, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtree_buffer::{BufferPool, LruPolicy, PageId, PolicyKind};
use rtree_core::{BufferModel, MixedWorkload, TreeDescription, Workload};
use rtree_datagen::ClusteredPoints;
use rtree_index::{BulkLoader, LinearSplit, NodeId, RStarSplit, RTree, TupleAtATime};
use rtree_nd::{buffer_model, PointN, RectN, WorkloadN};
use rtree_pager::{DiskRTree, MemStore};
use rtree_sim::{QuerySampler, SimTree, Simulation};
use std::collections::HashMap;

/// **End-to-end physical validation** — the same workload measured three
/// ways:
///
/// 1. the analytic buffer model (eq. 6),
/// 2. the trace-driven LRU simulation (§4),
/// 3. actual execution against a page file through the buffer manager
///    (`rtree-pager`), counting real page reads.
///
/// All three must agree: that is the claim that "number of disk accesses"
/// as computed by the model is the physical quantity a database would pay.
pub(crate) fn validate_disk(opts: &Opts, out: &mut String) -> Result<(), String> {
    let cap = 50;
    let rects = synthetic_region(20_000);
    let tree = Loader::Hs.build(cap, &rects);
    let desc = TreeDescription::from_tree(&tree);
    let sim_tree = SimTree::from_tree(&tree);
    let workload = Workload::uniform_point();
    let model = BufferModel::new(&desc, &workload);

    let mut table = Table::new(
        "End-to-end: model vs trace simulation vs physical page reads \
         (synthetic region 20k, HS cap 50, point queries)",
        &[
            "buffer",
            "model",
            "trace sim",
            "physical",
            "physical hit ratio",
        ],
    );

    for b in [25usize, 100, 300] {
        // 1. Model.
        let predicted = model.expected_disk_accesses(b);

        // 2. Trace simulation.
        let cfg = opts.simulation(b);
        let queries = (cfg.batches * cfg.queries_per_batch / 4).max(10_000);
        let sim = Simulation::new(cfg).run(&sim_tree, &workload);

        // 3. Physical execution: serialize to pages, run real queries.
        let mut disk =
            DiskRTree::create(MemStore::new(), &tree, b, LruPolicy::new()).expect("create");
        let mut sampler = QuerySampler::new(&workload, seeds::SIM ^ 0xD15C);
        // Warm-up, then measure.
        for _ in 0..queries / 4 {
            disk.query(&sampler.sample()).expect("query");
        }
        disk.reset_counters();
        for _ in 0..queries {
            disk.query(&sampler.sample()).expect("query");
        }
        let physical = disk.physical_reads() as f64 / queries as f64;

        table.row(vec![
            b.to_string(),
            f(predicted),
            f(sim.disk_accesses_per_query),
            f(physical),
            f(disk.hit_ratio()),
        ]);
    }
    table.emit("validate_disk", opts, out)
}

/// **Ablation** — replacement policies. The analytic model is derived for
/// LRU (via the Bhide et al. warm-up argument); this experiment simulates
/// LRU, FIFO, Clock and Random buffers on the same tree and workload to
/// show how much the policy choice moves the disk-access count, and how
/// close each lands to the LRU model's prediction.
pub(crate) fn ablation_policies(opts: &Opts, out: &mut String) -> Result<(), String> {
    let cap = 100;
    let rects = tiger();
    let tree = Loader::Hs.build(cap, &rects);
    let desc = TreeDescription::from_tree(&tree);
    let sim_tree = SimTree::from_tree(&tree);
    let workload = Workload::uniform_point();
    let model = BufferModel::new(&desc, &workload);
    let policies = [
        PolicyKind::Lru,
        PolicyKind::Lru2,
        PolicyKind::Clock,
        PolicyKind::Fifo,
        PolicyKind::Random,
    ];
    let mut table = Table::new(
        "Ablation: replacement policy vs disk accesses (TIGER-like, HS cap 100, point queries)",
        &[
            "buffer",
            "model(LRU)",
            "LRU",
            "LRU-2",
            "CLOCK",
            "FIFO",
            "RANDOM",
        ],
    );
    for b in [10usize, 50, 200, 400] {
        let mut cells = vec![b.to_string(), f(model.expected_disk_accesses(b))];
        for p in policies {
            let res = Simulation::new(opts.simulation(b).policy(p)).run(&sim_tree, &workload);
            cells.push(f(res.disk_accesses_per_query));
        }
        table.row(cells);
    }
    table.emit("ablation_policies", opts, out)?;
    say!(
        out,
        "LRU and CLOCK track the model; FIFO/RANDOM pay for ignoring recency;\n\
         LRU-2's reference history beats plain LRU by keeping hot internal pages resident."
    );
    Ok(())
}

/// The two uniform workloads the ablations price: `(slug suffix, title
/// fragment, workload)`.
fn point_and_region() -> [(&'static str, &'static str, Workload); 2] {
    [
        ("point", "point queries", Workload::uniform_point()),
        (
            "region",
            "1% region queries",
            Workload::uniform_region(0.1, 0.1),
        ),
    ]
}

/// **Ablation** — the full loader roster. The paper studies TAT, NX and
/// HS; this experiment adds the Morton (Z-order) and STR packings to the
/// same buffered comparison, reporting the geometry aggregates the cost
/// model depends on (total MBR area and perimeter) alongside expected disk
/// accesses at several buffer sizes.
pub(crate) fn ablation_loaders(opts: &Opts, out: &mut String) -> Result<(), String> {
    let cap = 100;
    let rects = tiger();

    for (slug, queries, workload) in point_and_region() {
        let mut table = Table::new(
            format!("Ablation: all loaders, {queries} (TIGER-like, cap 100)"),
            &[
                "loader", "nodes", "area A", "Lx+Ly", "visits", "B=10", "B=50", "B=200",
            ],
        );
        for loader in Loader::ALL {
            let tree = loader.build(cap, &rects);
            let desc = TreeDescription::from_tree(&tree);
            let (a, lx, ly) = desc.aggregates();
            let model = BufferModel::new(&desc, &workload);
            table.row(vec![
                loader.name().to_string(),
                desc.total_nodes().to_string(),
                f(a),
                f(lx + ly),
                f(model.expected_node_accesses()),
                f(model.expected_disk_accesses(10)),
                f(model.expected_disk_accesses(50)),
                f(model.expected_disk_accesses(200)),
            ]);
        }
        table.emit(&format!("ablation_loaders_{slug}"), opts, out)?;
    }
    Ok(())
}

/// **Ablation** — Guttman split heuristics under buffering. The paper's
/// TAT loader uses the quadratic split; this experiment compares quadratic
/// vs linear splits through the buffer model, showing whether split quality
/// still matters once a buffer absorbs the hot top of the tree.
pub(crate) fn ablation_splits(opts: &Opts, out: &mut String) -> Result<(), String> {
    let cap = 50;
    let rects = synthetic_region(20_000);

    // Quadratic, linear, R*-split, full R* — the table's column order.
    let descs = [
        TupleAtATime::quadratic(cap).load(&rects),
        TupleAtATime::with_split(cap, LinearSplit).load(&rects),
        TupleAtATime::with_split(cap, RStarSplit).load(&rects),
        TupleAtATime::rstar(cap).load(&rects),
    ]
    .map(|tree| TreeDescription::from_tree(&tree));

    say!(
        out,
        "tree sizes: quadratic {} nodes, linear {} nodes, R*-split {} nodes, full R* {} nodes\n",
        descs[0].total_nodes(),
        descs[1].total_nodes(),
        descs[2].total_nodes(),
        descs[3].total_nodes()
    );

    for (slug, queries, workload) in point_and_region() {
        let models: Vec<BufferModel> = descs
            .iter()
            .map(|d| BufferModel::new(d, &workload))
            .collect();
        let mut table = Table::new(
            format!("Ablation: split heuristic, {queries} (synthetic region 20k, cap 50)"),
            &[
                "buffer",
                "quadratic",
                "linear",
                "rstar-split",
                "full R*",
                "full R*/quadratic",
            ],
        );
        // One row: a label, the four trees' costs, full R* over quadratic.
        let mut push = |label: String, costs: Vec<f64>, ratio: f64| {
            let mut cells = vec![label];
            cells.extend(costs.into_iter().map(f));
            cells.push(f(ratio));
            table.row(cells);
        };
        let visits: Vec<f64> = models.iter().map(|m| m.expected_node_accesses()).collect();
        let ratio = visits[3] / visits[0];
        push("(no buffer)".to_string(), visits, ratio);
        for b in [10usize, 50, 100, 200, 400] {
            let ed: Vec<f64> = models.iter().map(|m| m.expected_disk_accesses(b)).collect();
            let ratio = if ed[0] > 0.0 { ed[3] / ed[0] } else { f64::NAN };
            push(b.to_string(), ed, ratio);
        }
        table.emit(&format!("ablation_splits_{slug}"), opts, out)?;
    }
    Ok(())
}

/// **Extension** — using the buffer model to judge *update* operations.
///
/// The paper positions the model as a tool "to evaluate the quality of any
/// R-tree update operation, such as node splitting policies or loading
/// algorithms". This experiment does exactly that for churn: start from a
/// freshly Hilbert-packed tree, repeatedly delete a random batch of items
/// and reinsert them tuple-at-a-time (with the quadratic split), and watch
/// the predicted disk accesses per query degrade as the packed structure
/// erodes — quantified at several buffer sizes, not just as nodes visited.
pub(crate) fn update_quality(opts: &Opts, out: &mut String) -> Result<(), String> {
    let cap = 50;
    let rects = synthetic_region(20_000);
    let mut tree = Loader::Hs.build(cap, &rects);
    let mut rng = StdRng::seed_from_u64(0xC4A2);

    let churn_step = tree.len() / 10; // 10% of the data per round
    let workload = Workload::uniform_region(0.05, 0.05);

    let mut table = Table::new(
        "Update quality: Hilbert-packed tree under delete/reinsert churn \
         (synthetic region 20k, cap 50, 0.25% region queries)",
        &["churn rounds", "nodes", "visits", "B=50", "B=200", "B=400"],
    );

    for round in 0..=5 {
        let desc = TreeDescription::from_tree(&tree);
        let model = BufferModel::new(&desc, &workload);
        table.row(vec![
            round.to_string(),
            desc.total_nodes().to_string(),
            f(model.expected_node_accesses()),
            f(model.expected_disk_accesses(50)),
            f(model.expected_disk_accesses(200)),
            f(model.expected_disk_accesses(400)),
        ]);
        if round == 5 {
            break;
        }
        // One churn round: delete a random 10% and reinsert the same items.
        for _ in 0..churn_step {
            let id = rng.gen_range(0..rects.len()) as u64;
            let r = rects[id as usize];
            if tree.delete(&r, id) {
                tree.insert(r, id);
            }
        }
        tree.validate().expect("churned tree stays valid");
    }
    table.emit("update_quality", opts, out)?;
    say!(
        out,
        "Packed structure erodes under churn; the buffer model prices that erosion in disk\n\
         accesses — the \"evaluate any update operation\" use case the paper proposes."
    );
    Ok(())
}

/// **Extension** — where is the model accurate? A sweep over data skew and
/// relative buffer size, validating the model against simulation at each
/// grid point. The paper validates at a handful of configurations; this
/// maps the error surface: agreement is excellent once the buffer exceeds
/// the per-query footprint and degrades below it, independent of skew.
pub(crate) fn model_accuracy_sweep(opts: &Opts, out: &mut String) -> Result<(), String> {
    let cap = 25;
    let n = 20_000;
    let sigmas = [0.01f64, 0.05, 0.2];
    let buffers = [5usize, 20, 80, 320];
    let workload = Workload::uniform_point();

    let mut table = Table::new(
        "Model accuracy vs data skew and buffer size \
         (clustered points 20k, 6 clusters, HS cap 25, point queries)",
        &["sigma", "buffer", "visits/query", "sim", "model", "diff"],
    );

    for &sigma in &sigmas {
        let rects = ClusteredPoints::new(n, 6, sigma).generate(seeds::POINT ^ 0xC1);
        let tree = Loader::Hs.build(cap, &rects);
        let desc = TreeDescription::from_tree(&tree);
        let sim_tree = SimTree::from_tree(&tree);
        let model = BufferModel::new(&desc, &workload);
        for &b in &buffers {
            let sim = Simulation::new(opts.simulation(b)).run(&sim_tree, &workload);
            let predicted = model.expected_disk_accesses(b);
            let diff =
                (predicted - sim.disk_accesses_per_query) / sim.disk_accesses_per_query.max(1e-9);
            table.row(vec![
                format!("{sigma}"),
                b.to_string(),
                f(sim.nodes_accessed_per_query),
                f(sim.disk_accesses_per_query),
                f(predicted),
                pct(diff),
            ]);
        }
    }
    table.emit("model_accuracy_sweep", opts, out)?;
    say!(
        out,
        "Expect small diffs where B clearly exceeds visits/query, growing underestimates\n\
         as B sinks toward the per-query footprint (the warm-up approximation's regime edge)."
    );
    Ok(())
}

/// **Extension** — workload mixtures. Real query streams blend point
/// look-ups with pans of several sizes; the mixture model (per-node
/// probabilities are convex combinations) must track a simulation that
/// draws each query from the mixture. Sweeps the point/region blend from
/// all-points to all-regions.
pub(crate) fn mixed_workloads(opts: &Opts, out: &mut String) -> Result<(), String> {
    let cap = 100;
    let rects = tiger();
    let tree = Loader::Hs.build(cap, &rects);
    let desc = TreeDescription::from_tree(&tree);
    let sim_tree = SimTree::from_tree(&tree);
    let buffer = 100;

    let mut table = Table::new(
        format!("Mixed workloads: point/1%-region blends, B = {buffer} (TIGER-like, HS cap {cap})"),
        &["% region", "visits/query", "sim", "model", "diff"],
    );

    for region_share in [0usize, 10, 25, 50, 75, 100] {
        let mix = match region_share {
            0 => MixedWorkload::new(vec![(1.0, Workload::uniform_point())]),
            100 => MixedWorkload::new(vec![(1.0, Workload::uniform_region(0.1, 0.1))]),
            p => MixedWorkload::new(vec![
                (1.0 - p as f64 / 100.0, Workload::uniform_point()),
                (p as f64 / 100.0, Workload::uniform_region(0.1, 0.1)),
            ]),
        };
        let model = BufferModel::new_mixed(&desc, &mix);
        let sim = Simulation::new(opts.simulation(buffer)).run_mixed(&sim_tree, &mix);
        let predicted = model.expected_disk_accesses(buffer);
        let diff = (predicted - sim.disk_accesses_per_query) / sim.disk_accesses_per_query;
        table.row(vec![
            region_share.to_string(),
            f(sim.nodes_accessed_per_query),
            f(sim.disk_accesses_per_query),
            f(predicted),
            pct(diff),
        ]);
    }
    table.emit("mixed_workloads", opts, out)?;
    say!(
        out,
        "Per-node access probabilities mix linearly, so one model covers any blend."
    );
    Ok(())
}

/// **Extension** — the model in higher dimensions. The paper: "R-trees
/// generalize easily to dimensions higher than two... Generalizations to
/// higher dimensions are straightforward." This experiment makes that
/// claim measurable: uniform point queries over STR-packed trees of the
/// same cardinality in 2-D, 3-D and 4-D, model vs LRU simulation, plus the
/// dimensionality trend (higher D → leakier MBR volumes → more expensive
/// queries at every buffer size).
pub(crate) fn nd_generalization(opts: &Opts, out: &mut String) -> Result<(), String> {
    fn scattered<const D: usize>(n: usize, seed: u64) -> Vec<RectN<D>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut c = [0.0; D];
                for v in c.iter_mut() {
                    *v = rng.gen_range(0.02..0.98);
                }
                RectN::centered(PointN::new(c), [0.012; D])
            })
            .collect()
    }

    fn simulate<const D: usize>(tree: &RTree<RectN<D>>, buffer: usize, queries: usize) -> f64 {
        // Level order, root first: the model's page numbering.
        let pages: HashMap<NodeId, u64> = tree.node_ids().into_iter().zip(0..).collect();
        let mut pool = BufferPool::new(buffer, LruPolicy::new());
        let mut rng = StdRng::seed_from_u64(0xD1A6 + D as u64);
        let warmup = queries / 4;
        for i in 0..queries + warmup {
            let mut c = [0.0; D];
            for v in c.iter_mut() {
                *v = rng.gen_range(0.0..1.0);
            }
            if i == warmup {
                pool.reset_stats();
            }
            tree.search_with(
                &RectN::point(PointN::new(c)),
                |id, _| {
                    pool.access(PageId(pages[&id]));
                },
                |_| {},
            );
        }
        pool.stats().misses as f64 / queries as f64
    }

    fn row<const D: usize>(table: &mut Table, n: usize, cap: usize, buffer: usize, queries: usize) {
        let rects = scattered::<D>(n, 1_000 + D as u64);
        let tree = BulkLoader::str_pack(cap).load(&rects);
        let model = buffer_model(&tree, &WorkloadN::uniform_point());
        let predicted = model.expected_disk_accesses(buffer);
        let simulated = simulate(&tree, buffer, queries);
        let diff = (predicted - simulated) / simulated.max(1e-9);
        table.row(vec![
            D.to_string(),
            tree.node_count().to_string(),
            f(model.expected_node_accesses()),
            f(simulated),
            f(predicted),
            pct(diff),
        ]);
    }

    let n = 20_000;
    let cap = 16;
    let queries = if opts.quick { 20_000 } else { 120_000 };
    for buffer in [50usize, 400] {
        let mut table = Table::new(
            format!(
                "N-D generalization: model vs simulation, point queries, \
                 {n} items, cap {cap}, B = {buffer}"
            ),
            &["D", "nodes", "visits", "sim", "model", "diff"],
        );
        row::<2>(&mut table, n, cap, buffer, queries);
        row::<3>(&mut table, n, cap, buffer, queries);
        row::<4>(&mut table, n, cap, buffer, queries);
        table.emit(&format!("nd_generalization_b{buffer}"), opts, out)?;
    }
    say!(
        out,
        "The same dimension-free buffer model (eq. 5-6) prices every dimension;\n\
         only the access probabilities change, and agreement stays at the 2-D\n\
         level (~2%). At fixed cardinality, node-visit counts are nearly flat\n\
         across D while per-node probabilities grow more skewed, so the buffer\n\
         captures relatively more of the access mass in higher dimensions."
    );
    Ok(())
}

/// **Tooling** — dump the per-level MBR description of a loaded tree in the
/// interchange text format (`level x0 y0 x1 y1`, level 0 = root) to
/// `results/desc_tiger_HS_100.txt`: the TIGER-like data, Hilbert-packed at
/// the paper's node capacity 100.
///
/// This is the paper's hybrid workflow made concrete: build trees here,
/// run the model (or an external tool) on the dumps. `rtrees build` does
/// the same for any data set, loader and capacity.
pub(crate) fn describe_tree(_opts: &Opts, out: &mut String) -> Result<(), String> {
    let (cap, loader) = (100, Loader::Hs);
    let tree = loader.build(cap, &tiger());
    let desc = TreeDescription::from_tree(&tree);
    let name = format!("desc_tiger_{}_{cap}.txt", loader.name());
    let path = write_result(&name, &desc.to_text())?;
    say!(
        out,
        "{} items -> {} nodes over {} levels {:?}; wrote {path}",
        tree.len(),
        desc.total_nodes(),
        desc.height(),
        desc.nodes_per_level(),
    );
    Ok(())
}
