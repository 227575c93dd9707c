//! The paper's hybrid workflow: `generate → build → model / tune /
//! simulate` over CSV data sets and tree-description files.

use super::scenario::{Defaults, Scenario};
use super::{parse_dataset_spec, parse_workload, read_data, read_file, write_or_return};
use crate::args::{err, Args, CliError};
use rtree_bench::Loader;
use rtree_buffer::{BufferPool, LruPolicy};
use rtree_core::{BufferModel, TreeDescription, Workload};
use rtree_datagen::to_csv;
use rtree_geom::Rect;
use rtree_sim::{flat_trace, QuerySampler};
use std::fmt::Write as _;

pub(super) fn generate(args: &Args) -> Result<String, CliError> {
    args.allow_flags(&["seed", "out"])?;
    let seed: u64 = args.flag_or("seed", 42u64)?;
    let spec = args.positional.as_str();
    let rects = parse_dataset_spec(spec, seed)?;
    write_or_return(args, to_csv(&rects), &format!("{} rectangles", rects.len()))
}

pub(super) fn build(args: &Args) -> Result<String, CliError> {
    args.allow_flags(&["loader", "cap", "out"])?;
    let rects = read_data(&args.positional)?;
    let cap: usize = args.flag_or("cap", 100usize)?;
    let loader = args.flag("loader").unwrap_or("HS");
    let tree = loader
        .parse::<Loader>()
        .map_err(CliError)?
        .build(cap, &rects);
    let desc = TreeDescription::from_tree(&tree);
    let mut summary = format!(
        "# {} items, loader {}, cap {cap}: {} nodes over {} levels {:?}\n",
        tree.len(),
        loader.to_uppercase(),
        desc.total_nodes(),
        desc.height(),
        desc.nodes_per_level()
    );
    summary.push_str(&desc.to_text());
    write_or_return(args, summary, "tree description")
}

/// Reads a tree description written by `build`.
fn read_desc(path: &str) -> Result<TreeDescription, CliError> {
    TreeDescription::from_text(&read_file(path)?)
        .map_err(|e| err(format!("parsing description: {e}")))
}

pub(super) fn model(args: &Args) -> Result<String, CliError> {
    args.allow_flags(&["workload", "buffers", "pin"])?;
    let desc = read_desc(&args.positional)?;
    let workload = parse_workload(args.flag("workload").unwrap_or("point"))?;
    let buffers = args.flag_list("buffers", &[10, 50, 100, 200, 400])?;
    let pin: usize = args.flag_or("pin", 0usize)?;
    let model = BufferModel::new(&desc, &workload);

    let mut out = String::new();
    // `fmt::Write` into a `String` cannot fail; discard the Ok(()) rather
    // than `.expect()` so an (impossible) error can't panic a report path.
    let _ = writeln!(
        out,
        "tree: {} nodes {:?}; expected nodes visited/query (no buffer): {:.4}",
        desc.total_nodes(),
        desc.nodes_per_level(),
        model.expected_node_accesses()
    );
    let _ = writeln!(
        out,
        "{:>10}  {:>34}  {:>22}",
        "buffer", "warm-up N*", "disk accesses/query"
    );
    for b in buffers {
        // The warm-up column is typed: a buffer too large for the reachable
        // working set reports *why* there is no N* instead of a blank.
        let warm = if pin == 0 {
            model.warmup(b).to_string()
        } else {
            "-".to_string()
        };
        let ed = if pin == 0 {
            Ok(model.expected_disk_accesses(b))
        } else {
            model
                .expected_disk_accesses_pinned(b, pin)
                .map_err(|e| e.to_string())
        };
        match ed {
            Ok(v) => {
                let _ = writeln!(out, "{b:>10}  {warm:>34}  {v:>22.4}");
            }
            Err(e) => {
                let _ = writeln!(out, "{b:>10}  {warm:>34}  {e:>22}");
            }
        }
    }
    if pin > 0 {
        let _ = writeln!(
            out,
            "(top {pin} levels pinned: {} pages)",
            model.pinned_pages(pin)
        );
    }
    Ok(out)
}

/// The paper's literal simulator — every node MBR checked per query —
/// over a description: `warmup` unmeasured queries, then `queries` whose
/// accesses and misses are what `pool.stats()` holds afterwards.
fn flat_simulation(
    desc: &TreeDescription,
    pool: &mut BufferPool,
    workload: &Workload,
    seed: u64,
    warmup: usize,
    queries: usize,
) {
    let mbrs: Vec<Rect> = desc.iter().map(|(_, r)| *r).collect();
    let mut sampler = QuerySampler::new(workload, seed);
    for i in 0..warmup + queries {
        if i == warmup {
            pool.reset_stats();
        }
        for page in flat_trace(&mbrs, &sampler.sample()) {
            pool.access(page);
        }
    }
}

pub(super) fn tune(args: &Args) -> Result<String, CliError> {
    use rtree_tune::{Controller, ControllerConfig, Setting};

    args.allow_flags(&["workload", "buffers", "queries", "budget", "seed"])?;
    let desc = read_desc(&args.positional)?;
    let Scenario {
        workload,
        queries,
        seed,
        ..
    } = Scenario::parse(
        args,
        Defaults {
            seed: 0xC11,
            queries: 50_000,
            workload: "point",
        },
    )?;
    let buffers = args.flag_list("buffers", &[10, 50, 100, 200, 400])?;
    if buffers.contains(&0) {
        return Err(err("buffer sizes must be positive"));
    }
    let budget: usize = args.flag_or("budget", buffers.iter().copied().max().unwrap_or(100))?;
    if budget == 0 {
        return Err(err("--budget must be positive"));
    }

    let model = BufferModel::new(&desc, &workload);

    let mut out = format!(
        "tree: {} nodes {:?}; workload {}\n",
        desc.total_nodes(),
        desc.nodes_per_level(),
        args.flag("workload").unwrap_or("point"),
    );
    let _ = writeln!(
        out,
        "{:>10}  {:>34}  {:>10}  {:>10}  {:>8}",
        "buffer", "warm-up N*", "predicted", "measured", "error"
    );
    for &b in &buffers {
        // Measure: the paper's flat LRU simulation over the description,
        // warmed past the model's own N* (bounded for huge predictions).
        let warm_for = match model.warmup(b).queries() {
            Some(n) => ((n as usize).saturating_mul(4)).clamp(queries / 4, 4 * queries),
            None => queries / 4,
        };
        let mut pool = BufferPool::new(b, LruPolicy::new());
        flat_simulation(&desc, &mut pool, &workload, seed, warm_for.max(1), queries);
        let measured = pool.stats().misses as f64 / queries as f64;
        let predicted = model.expected_disk_accesses(b);
        let error = if measured > 0.0 {
            format!("{:>+7.1}%", (predicted - measured) / measured * 100.0)
        } else {
            "-".to_string()
        };
        let _ = writeln!(
            out,
            "{b:>10}  {:>34}  {predicted:>10.4}  {measured:>10.4}  {error:>8}",
            model.warmup(b).to_string(),
        );
    }

    // What the online controller would do with this workload: its knee
    // plan within the frame budget.
    let controller = Controller::new(
        desc,
        Setting {
            buffer: budget,
            pin_levels: 0,
        },
        ControllerConfig::new(budget),
    );
    let (plan, ed) = controller.plan(&model);
    let _ = writeln!(
        out,
        "controller plan within budget {budget}: {plan} (predicted {ed:.4} disk accesses/query)"
    );
    Ok(out)
}

pub(super) fn simulate(args: &Args) -> Result<String, CliError> {
    args.allow_flags(&["workload", "buffer", "queries", "policy", "seed"])?;
    let desc = read_desc(&args.positional)?;
    let sc = Scenario::parse(
        args,
        Defaults {
            seed: 0xC11,
            queries: 100_000,
            workload: "point",
        },
    )?;
    let (workload, buffer, queries) = (&sc.workload, sc.buffer, sc.queries);

    let mut pool = BufferPool::new(buffer, sc.new_policy());
    let warmup = (queries / 4).max(1);
    flat_simulation(&desc, &mut pool, workload, sc.seed, warmup, queries);
    let stats = pool.stats();

    let model = BufferModel::new(&desc, workload).expected_disk_accesses(buffer);
    Ok(format!(
        "simulated {queries} queries ({} policy, buffer {buffer}):\n\
         nodes accessed/query: {:.4}\n\
         disk accesses/query:  {:.4}   (LRU model predicts {model:.4})\n\
         hit ratio:            {:.4}\n",
        pool.policy_name(),
        stats.accesses as f64 / queries as f64,
        stats.misses as f64 / queries as f64,
        stats.hit_ratio(),
    ))
}
