//! The paper's own tables and figures (Table 1–2, Figs 5–11).

use crate::{
    cfd, cfd_fig5, f, pct, say, synthetic_point, synthetic_region, tiger, write_result, Loader,
    Opts, Table,
};
use rtree_core::{BufferModel, TreeDescription, Workload};
use rtree_datagen::{centers, to_csv};
use rtree_geom::Rect;
use rtree_sim::{SimTree, Simulation};

/// **Table 1** — model validation: average disk accesses per uniform point
/// query, analytic model vs LRU simulation, across loaders and buffer
/// sizes. The paper reports agreement within 2% (inside the simulation's
/// own confidence intervals).
///
/// The paper's trees hold 1,668 nodes each (TIGER/Long Beach data); with
/// our TIGER-like substitute and node capacity 33 the packed trees come out
/// within a few nodes of that.
pub(crate) fn table1_validation(opts: &Opts, out: &mut String) -> Result<(), String> {
    let cap = 33;
    let buffers = [2usize, 10, 50, 100, 200, 400];
    let rects = tiger();
    let workload = Workload::uniform_point();
    let mut table = Table::new(
        "Table 1: model vs simulation, disk accesses per point query (TIGER-like, cap 33)",
        &[
            "tree",
            "nodes",
            "buffer",
            "simulation",
            "ci90",
            "model",
            "diff",
        ],
    );

    for loader in Loader::PAPER {
        let tree = loader.build(cap, &rects);
        let desc = TreeDescription::from_tree(&tree);
        let sim_tree = SimTree::from_tree(&tree);
        let model = BufferModel::new(&desc, &workload);
        for &b in &buffers {
            let sim = Simulation::new(opts.simulation(b)).run(&sim_tree, &workload);
            let predicted = model.expected_disk_accesses(b);
            let diff = (predicted - sim.disk_accesses_per_query) / sim.disk_accesses_per_query;
            table.row(vec![
                loader.name().to_string(),
                desc.total_nodes().to_string(),
                b.to_string(),
                f(sim.disk_accesses_per_query),
                f(sim.ci_half_width),
                f(predicted),
                pct(diff),
            ]);
        }
    }
    table.emit("table1_validation", opts, out)?;
    say!(
        out,
        "Regime note: the warm-up approximation (Bhide et al.) assumes the buffer exceeds a\n\
         typical per-query footprint; rows with B below ~2x the nodes-visited-per-query\n\
         (B = 2, 10 here) sit outside that regime and the model underestimates there.\n\
         Within the regime, agreement is ~2% or better, as the paper reports."
    );
    Ok(())
}

/// **Table 2** — number of nodes per level for the synthetic point data
/// sets used in the pinning study (§5.5): 40,000–250,000 points, node size
/// 25, Hilbert-packed, giving 4-level trees.
pub(crate) fn table2_nodes_per_level(opts: &Opts, out: &mut String) -> Result<(), String> {
    let cap = 25;
    let sizes = [40_000usize, 80_000, 120_000, 160_000, 200_000, 250_000];

    let mut table = Table::new(
        "Table 2: nodes per level (synthetic point data, node size 25, HS)",
        &[
            "points",
            "level 0 (root)",
            "level 1",
            "level 2",
            "level 3 (leaf)",
            "total",
        ],
    );

    for &n in &sizes {
        let tree = Loader::Hs.build(cap, &synthetic_point(n));
        let stats = tree.stats();
        let per_level = stats.nodes_per_level();
        assert_eq!(per_level.len(), 4, "expected 4-level trees as in the paper");
        table.row(vec![
            n.to_string(),
            per_level[0].to_string(),
            per_level[1].to_string(),
            per_level[2].to_string(),
            per_level[3].to_string(),
            stats.total_nodes.to_string(),
        ]);
    }
    table.emit("table2_nodes_per_level", opts, out)
}

/// **Figure 5** — the CFD data set plots (full data set + center detail).
/// Dumps the point sets as CSV for plotting and prints summary statistics
/// demonstrating the skew the paper describes.
pub(crate) fn fig5_cfd_data(opts: &Opts, out: &mut String) -> Result<(), String> {
    fn density(rects: &[Rect], region: &Rect) -> f64 {
        let inside = rects
            .iter()
            .filter(|r| region.contains_point(&r.center()))
            .count();
        inside as f64 / rects.len() as f64 / region.area()
    }

    let sample = cfd_fig5();
    let full = cfd();
    for (name, points) in [
        ("fig5_cfd_sample.csv", &sample),
        ("fig5_cfd_full.csv", &full),
    ] {
        let path = write_result(name, &to_csv(points))?;
        say!(out, "[csv] wrote {path} ({} points)", points.len());
    }

    // Relative density (1.0 = uniform): near-wing boxes vs far corners.
    let mut table = Table::new(
        "Fig 5: CFD-like data summary (density relative to uniform)",
        &["region", "sample(5088)", "full(52510)"],
    );
    let regions = [
        ("wing neighborhood", Rect::new(0.25, 0.42, 0.75, 0.62)),
        ("center detail", Rect::new(0.4, 0.47, 0.55, 0.57)),
        ("far corner", Rect::new(0.0, 0.0, 0.2, 0.2)),
        ("far field top", Rect::new(0.3, 0.8, 0.7, 1.0)),
    ];
    for (name, region) in regions {
        table.row(vec![
            name.to_string(),
            format!("{:.2}", density(&sample, &region)),
            format!("{:.2}", density(&full, &region)),
        ]);
    }
    table.emit("fig5_cfd_density", opts, out)
}

/// **Figure 6** — sensitivity to buffer size on the TIGER-like data with
/// node capacity 100 (the paper's 532 leaf pages + 6 level-1 pages + root):
/// expected disk accesses per query vs buffer size for TAT, NX and HS,
/// for point queries (left plot) and 1% region queries (right plot).
///
/// The headline qualitative result: with a small buffer TAT can beat NX,
/// but the curves **cross** as the buffer grows — ignoring buffering gets
/// the loader ranking wrong.
pub(crate) fn fig6_buffer_sensitivity(opts: &Opts, out: &mut String) -> Result<(), String> {
    let cap = 100;
    let buffers = [2usize, 5, 10, 25, 50, 75, 100, 150, 200, 250, 300, 400, 500];
    let rects = tiger();

    let trees: Vec<(Loader, TreeDescription)> = Loader::PAPER
        .iter()
        .map(|&l| (l, TreeDescription::from_tree(&l.build(cap, &rects))))
        .collect();

    for (slug, title, workload) in [
        (
            "fig6_point",
            "Fig 6 (left): disk accesses vs buffer size, point queries (TIGER-like, cap 100)",
            Workload::uniform_point(),
        ),
        (
            "fig6_region",
            "Fig 6 (right): disk accesses vs buffer size, 1% region queries (TIGER-like, cap 100)",
            Workload::uniform_region(0.1, 0.1),
        ),
    ] {
        let models: Vec<(Loader, BufferModel)> = trees
            .iter()
            .map(|(l, d)| (*l, BufferModel::new(d, &workload)))
            .collect();

        let mut table = Table::new(title, &["buffer", "TAT", "NX", "HS"]);
        let mut crossover: Option<usize> = None;
        let mut prev_sign: Option<bool> = None;
        for &b in &buffers {
            let ed: Vec<f64> = models
                .iter()
                .map(|(_, m)| m.expected_disk_accesses(b))
                .collect();
            let sign = ed[0] < ed[1]; // TAT better than NX?
            if let Some(p) = prev_sign {
                if p != sign && crossover.is_none() {
                    crossover = Some(b);
                }
            }
            prev_sign = Some(sign);
            table.row(vec![b.to_string(), f(ed[0]), f(ed[1]), f(ed[2])]);
        }
        table.emit(slug, opts, out)?;
        match crossover {
            Some(b) => say!(out, "TAT/NX ordering flips by buffer size {b} — the paper's qualitative-change result.\n"),
            None => say!(out, "no TAT/NX crossover in this sweep.\n"),
        }
    }

    // Context the paper quotes: page counts per level at cap 100.
    let (_, hs) = &trees[2];
    say!(
        out,
        "HS tree pages per level (root first): {:?} (paper: 1 root, 6 level-1, 532 leaves)",
        hs.nodes_per_level()
    );
    Ok(())
}

/// The shared body of Figs 7 and 8: uniform vs data-driven point queries
/// over the HS tree (cap 100) of one data set. Left table: expected disk
/// accesses vs buffer size; right table: the speedup from growing the
/// buffer, `ED(B=10) / ED(B=N)`. Returns the (uniform, data-driven) models
/// for the figure's closing note.
fn datadriven_figure(
    fig: u32,
    data: &str,
    rects: &[Rect],
    opts: &Opts,
    out: &mut String,
) -> Result<(BufferModel, BufferModel), String> {
    let desc = TreeDescription::from_tree(&Loader::Hs.build(100, rects));
    let uniform = BufferModel::new(&desc, &Workload::uniform_point());
    let driven = BufferModel::new(&desc, &Workload::data_driven_point(centers(rects)));

    let buffers = [10usize, 25, 50, 75, 100, 150, 200, 300, 400, 500];

    let mut left = Table::new(
        format!("Fig {fig} (left): disk accesses vs buffer size ({data}, HS, point queries)"),
        &["buffer", "uniform", "data-driven"],
    );
    let mut right = Table::new(
        format!("Fig {fig} (right): improvement ratio ED(B=10)/ED(B=N)"),
        &["buffer", "uniform", "data-driven"],
    );

    let base_u = uniform.expected_disk_accesses(10);
    let base_d = driven.expected_disk_accesses(10);
    for &b in &buffers {
        let eu = uniform.expected_disk_accesses(b);
        let ed = driven.expected_disk_accesses(b);
        left.row(vec![b.to_string(), f(eu), f(ed)]);
        right.row(vec![
            b.to_string(),
            f(if eu > 0.0 { base_u / eu } else { f64::INFINITY }),
            f(if ed > 0.0 { base_d / ed } else { f64::INFINITY }),
        ]);
    }
    left.emit(&format!("fig{fig}_left_disk_accesses"), opts, out)?;
    right.emit(&format!("fig{fig}_right_improvement"), opts, out)?;
    Ok((uniform, driven))
}

/// **Figure 7** — uniform vs data-driven point queries on the TIGER-like
/// data. Left: expected disk accesses vs buffer size (data-driven on top —
/// uniform queries often land in empty space and are pruned at the root).
/// Right: the speedup from growing the buffer,
/// `ED(B=10) / ED(B=N)` — larger for the uniform model, which has "hot"
/// nodes that extra buffer captures (the paper reports 3.91× vs 2.86× at
/// B = 500).
pub(crate) fn fig7_tiger_datadriven(opts: &Opts, out: &mut String) -> Result<(), String> {
    let (uniform, driven) = datadriven_figure(7, "TIGER-like", &tiger(), opts, out)?;
    let speedup =
        |m: &BufferModel| m.expected_disk_accesses(10) / m.expected_disk_accesses(500).max(1e-12);
    say!(
        out,
        "B 10 -> 500 speedup: uniform {:.2}x vs data-driven {:.2}x (paper: 3.91x vs 2.86x)",
        speedup(&uniform),
        speedup(&driven)
    );
    Ok(())
}

/// **Figure 8** — uniform vs data-driven point queries on the CFD-like
/// data. The data is extremely skewed: under the uniform model a handful of
/// huge, sparse MBRs cover the empty far field, so a modest buffer drives
/// disk accesses toward zero and the improvement ratio explodes (the paper
/// notes 0.06 accesses at B = 100 and ratios beyond 20). Data-driven
/// queries hammer the dense wing region and improve far less.
pub(crate) fn fig8_cfd_datadriven(opts: &Opts, out: &mut String) -> Result<(), String> {
    let (uniform, _) = datadriven_figure(8, "CFD-like", &cfd(), opts, out)?;
    say!(
        out,
        "uniform disk accesses at B=100: {} (paper: 0.06)",
        f(uniform.expected_disk_accesses(100))
    );
    Ok(())
}

/// **Figure 9** — disk accesses vs data set size on synthetic region data,
/// NX and HS, point queries. Top-left of the figure ignores buffering
/// (nodes visited); the other panels use buffers of 10 and 300 pages.
///
/// The paper's point: without a buffer, cost appears to saturate with data
/// size (leaf MBRs tighten as density grows), which "could cause a query
/// optimizer to produce a poor query plan"; with a buffer the real cost of
/// larger trees is evident.
pub(crate) fn fig9_datasize(opts: &Opts, out: &mut String) -> Result<(), String> {
    let cap = 100;
    let sizes = [
        10_000usize,
        25_000,
        50_000,
        100_000,
        150_000,
        200_000,
        250_000,
        300_000,
    ];
    let workload = Workload::uniform_point();

    let mut table = Table::new(
        "Fig 9: nodes visited (no buffer) and disk accesses (B=10, B=300) vs data size \
         (synthetic region, cap 100, point queries)",
        &[
            "rects", "nodes", "visit NX", "visit HS", "B10 NX", "B10 HS", "B300 NX", "B300 HS",
        ],
    );

    for &n in &sizes {
        let rects = synthetic_region(n);
        let nx = TreeDescription::from_tree(&Loader::Nx.build(cap, &rects));
        let hs = TreeDescription::from_tree(&Loader::Hs.build(cap, &rects));
        let m_nx = BufferModel::new(&nx, &workload);
        let m_hs = BufferModel::new(&hs, &workload);
        table.row(vec![
            n.to_string(),
            nx.total_nodes().to_string(),
            f(m_nx.expected_node_accesses()),
            f(m_hs.expected_node_accesses()),
            f(m_nx.expected_disk_accesses(10)),
            f(m_hs.expected_disk_accesses(10)),
            f(m_nx.expected_disk_accesses(300)),
            f(m_hs.expected_disk_accesses(300)),
        ]);
    }
    table.emit("fig9_datasize", opts, out)
}

/// **Figure 10** — the effect of pinning the top levels: disk accesses vs
/// data size for HS trees on synthetic point data (node size 25, 4-level
/// trees, Table 2 shapes), buffers of 500 / 1,000 / 2,000 pages, point
/// queries.
///
/// The paper's finding: pinning 0, 1 or 2 levels is indistinguishable (LRU
/// already keeps those few pages hot); pinning 3 levels helps only once the
/// pinned page count is within roughly a factor of two of the buffer size
/// (417 pinned pages at 250k points: −53% for B = 500; 135 pages at 80k:
/// −4%).
pub(crate) fn fig10_pinning_datasize(opts: &Opts, out: &mut String) -> Result<(), String> {
    let cap = 25;
    let sizes = [40_000usize, 80_000, 120_000, 160_000, 200_000, 250_000];
    let buffers = [500usize, 1_000, 2_000];
    let workload = Workload::uniform_point();

    let models: Vec<(usize, BufferModel)> = sizes
        .iter()
        .map(|&n| {
            let tree = Loader::Hs.build(cap, &synthetic_point(n));
            (
                n,
                BufferModel::new(&TreeDescription::from_tree(&tree), &workload),
            )
        })
        .collect();

    for &b in &buffers {
        let mut table = Table::new(
            format!("Fig 10: disk accesses vs data size, buffer = {b} (HS, cap 25, point queries)"),
            &[
                "points",
                "pin 0",
                "pin 1",
                "pin 2",
                "pin 3",
                "pinned pages(3)",
                "pin-3 gain",
            ],
        );
        for (n, model) in &models {
            let mut ed = Vec::new();
            for pin in 0..=3usize {
                let v = if pin == 0 {
                    model.expected_disk_accesses(b)
                } else {
                    model
                        .expected_disk_accesses_pinned(b, pin)
                        .unwrap_or(f64::NAN)
                };
                ed.push(v);
            }
            let gain = if ed[3].is_nan() || ed[0] == 0.0 {
                "n/a".to_string()
            } else {
                pct((ed[0] - ed[3]) / ed[0])
            };
            table.row(vec![
                n.to_string(),
                f(ed[0]),
                f(ed[1]),
                f(ed[2]),
                f(ed[3]),
                model.pinned_pages(3).to_string(),
                gain,
            ]);
        }
        table.emit(&format!("fig10_buffer{b}"), opts, out)?;
    }
    Ok(())
}

/// **Figure 11** — when does pinning pay off?
///
/// Left: disk accesses vs buffer size on the TIGER-like data (HS, 25 keys
/// per node, point queries) for 0–3 pinned levels. Pinning ≤2 levels
/// changes nothing; pinning 3 helps only in a window of buffer sizes, and
/// becomes infeasible once the buffer is smaller than the top three levels.
///
/// Right: percent improvement of pinning vs region query side length `QX`
/// (synthetic point data, 250,000 points, B = 500). Bigger queries fetch
/// many leaves, drowning the benefit of pinned internal levels.
pub(crate) fn fig11_pinning(opts: &Opts, out: &mut String) -> Result<(), String> {
    let cap = 25;

    let desc = TreeDescription::from_tree(&Loader::Hs.build(cap, &tiger()));
    let model = BufferModel::new(&desc, &Workload::uniform_point());
    say!(
        out,
        "TIGER-like HS tree at cap 25, pages per level: {:?}\n",
        desc.nodes_per_level()
    );

    let buffers = [25usize, 50, 75, 100, 150, 200, 300, 500, 1_000, 2_000];
    let mut table = Table::new(
        "Fig 11 (left): disk accesses vs buffer size and pinned levels (TIGER-like, HS, cap 25)",
        &["buffer", "pin 0", "pin 1", "pin 2", "pin 3", "max pinnable"],
    );
    for &b in &buffers {
        let mut cells = vec![b.to_string()];
        cells.push(f(model.expected_disk_accesses(b)));
        for pin in 1..=3usize {
            match model.expected_disk_accesses_pinned(b, pin) {
                Ok(v) => cells.push(f(v)),
                Err(_) => cells.push("infeasible".to_string()),
            }
        }
        cells.push(model.max_pinnable_levels(b).to_string());
        table.row(cells);
    }
    table.emit("fig11_left", opts, out)?;

    let buffer = 500;
    let desc = TreeDescription::from_tree(&Loader::Hs.build(cap, &synthetic_point(250_000)));
    let mut table = Table::new(
        "Fig 11 (right): % improvement from pinning vs query size QX \
         (synthetic point 250k, HS cap 25, B=500)",
        &["QX", "pin 2 gain", "pin 3 gain"],
    );
    for step in 0..=6 {
        let qx = 0.025 * step as f64;
        let workload = if qx == 0.0 {
            Workload::uniform_point()
        } else {
            Workload::uniform_region(qx, qx)
        };
        let model = BufferModel::new(&desc, &workload);
        let base = model.expected_disk_accesses(buffer);
        let gain = |pin: usize| -> String {
            match model.expected_disk_accesses_pinned(buffer, pin) {
                Ok(v) if base > 0.0 => pct((base - v) / base),
                _ => "n/a".to_string(),
            }
        };
        table.row(vec![format!("{qx:.3}"), gain(2), gain(3)]);
    }
    table.emit("fig11_right", opts, out)
}
