//! **Adaptive buffering** — does closing the loop on the paper's model pay?
//!
//! One query stream, one frame budget, a mid-run workload shift:
//!
//! * **Phase 1** — uniform region queries over the whole space. Each query
//!   drags a fresh set of leaves through the pool, so plain LRU keeps
//!   evicting the internal levels between their re-touches; pinning the
//!   top levels is the paper's fix (fig. 11's window).
//! * **Phase 2** — clustered point queries confined to one hot patch.
//!   Now the hot leaves *are* the working set and they fit in the budget;
//!   frames wasted on pinned internals crowd them out, so pinning hurts.
//!
//! No single static configuration wins both phases. The static rows hold
//! one pin depth for the whole run; the adaptive row runs the
//! `rtree-tune` controller (estimate → refit → actuate every `TICK`
//! queries) against the identical stream. The gate — exercised by CI via
//! `--quick --json` — is that the adaptive run finishes with strictly
//! fewer demand reads per query than every static row, actuation costs
//! included. Exits non-zero when it does not.

use rtree_bench::{f, flag, synthetic_point, Loader, Table};
use rtree_buffer::LruPolicy;
use rtree_core::TreeDescription;
use rtree_geom::Rect;
use rtree_index::RTree;
use rtree_obs::TuneObserver;
use rtree_pager::{DiskRTree, MemStore};
use rtree_tune::{Actuator, Controller, ControllerConfig, DiskActuator, Setting};

/// Frame budget every configuration gets: big enough to pin the internal
/// levels with room to spare, small enough that LRU alone cannot hold
/// them under the phase-1 leaf churn.
const BUDGET: usize = 60;
/// Controller cadence in queries.
const TICK: usize = 50;

/// The shared query stream: phase 1 is uniform 0.1-side region queries,
/// phase 2 point queries inside one hot patch covering ~5% of the space.
/// Both phases are low-discrepancy (golden-ratio) walks, so runs are
/// deterministic and every configuration sees the identical stream.
fn query(i: usize, per_phase: usize) -> Rect {
    let t = i as f64;
    if i < per_phase {
        let cx = (t * 0.618_033_988_749) % 0.9;
        let cy = (t * 0.414_213_562_373) % 0.9;
        Rect::new(cx, cy, cx + 0.1, cy + 0.1)
    } else {
        // Patch sized so its ~50 hot leaves fit the full budget but not
        // the budget minus the pinned internal levels — the regime where
        // holding on to phase 1's pinning costs real misses.
        let cx = 0.36 + (t * 0.618_033_988_749) % 0.28;
        let cy = 0.36 + (t * 0.414_213_562_373) % 0.28;
        Rect::new(cx, cy, cx, cy)
    }
}

/// Demand reads after the phase-1 and full streams for one static pin
/// depth, pinning reads included (the cold start is part of the cost).
fn run_static(tree: &RTree, stream: &[Rect], per_phase: usize, pin: usize) -> (u64, u64) {
    let mut disk = DiskRTree::create(MemStore::new(), tree, BUDGET, LruPolicy::new())
        .expect("create disk tree");
    if pin > 0 {
        disk.pin_top_levels(pin).expect("pin top levels");
    }
    let mut phase1 = 0;
    for (i, q) in stream.iter().enumerate() {
        disk.query(q).expect("query");
        if i + 1 == per_phase {
            phase1 = disk.io_stats().demand_reads();
        }
    }
    (phase1, disk.io_stats().demand_reads())
}

/// The adaptive run: same tree, same stream, the controller observing
/// every query and actuating (unpin → resize → re-pin) on its tick.
fn run_adaptive(
    tree: &RTree,
    desc: &TreeDescription,
    stream: &[Rect],
    per_phase: usize,
) -> (u64, u64, Controller) {
    let mut disk = DiskRTree::create(MemStore::new(), tree, BUDGET, LruPolicy::new())
        .expect("create disk tree");
    let cfg = ControllerConfig {
        min_samples: 48,
        min_interval: 2,
        // The gate compares miss totals, so the controller must not trade
        // misses for frames: keep the full budget, move only the pinning.
        knee_tolerance: 0.0,
        ..ControllerConfig::new(BUDGET)
    };
    let controller = Controller::new(
        desc.clone(),
        Setting {
            buffer: BUDGET,
            pin_levels: 0,
        },
        cfg,
    );
    let mut phase1 = 0;
    for (i, q) in stream.iter().enumerate() {
        controller.observe_query(q.lo.x, q.lo.y, q.hi.x, q.hi.y);
        disk.query(q).expect("query");
        if (i + 1) % TICK == 0 {
            controller
                .tick_with(|s| DiskActuator(&mut disk).apply(s))
                .expect("actuate");
        }
        if i + 1 == per_phase {
            phase1 = disk.io_stats().demand_reads();
        }
    }
    (phase1, disk.io_stats().demand_reads(), controller)
}

fn main() {
    let quick = flag("--quick");
    // The tree shape (and with it the pinning window) stays fixed;
    // --quick only shortens the phases.
    let items = 12_000;
    let per_phase = if quick { 3_000 } else { 10_000 };
    let rects = synthetic_point(items);
    let tree = Loader::Hs.build(25, &rects);
    let desc = TreeDescription::from_tree(&tree);
    let stream: Vec<Rect> = (0..2 * per_phase).map(|i| query(i, per_phase)).collect();

    println!(
        "synthetic point {items}, HS cap 25, pages per level {:?}, budget {BUDGET} frames\n",
        desc.nodes_per_level()
    );

    // Every pin depth whose pages leave at least one replaceable frame.
    let max_pin = (0..=desc.height())
        .take_while(|&p| desc.pages_in_top_levels(p) < BUDGET)
        .last()
        .unwrap_or(0);

    let mut table = Table::new(
        format!(
            "adaptive buffering vs every static pin depth \
             ({} uniform-region then {} hot-patch queries, B={BUDGET})",
            per_phase, per_phase
        ),
        &[
            "config",
            "phase1 reads/q",
            "phase2 reads/q",
            "total reads/q",
        ],
    );
    let per_q = |n: u64| n as f64 / per_phase as f64;
    let mut static_totals: Vec<(usize, u64)> = Vec::new();
    for pin in 0..=max_pin {
        let (p1, total) = run_static(&tree, &stream, per_phase, pin);
        table.row(vec![
            format!("static pin {pin}"),
            f(per_q(p1)),
            f(per_q(total - p1)),
            f(total as f64 / stream.len() as f64),
        ]);
        static_totals.push((pin, total));
    }
    let (p1, total, controller) = run_adaptive(&tree, &desc, &stream, per_phase);
    table.row(vec![
        "adaptive".to_string(),
        f(per_q(p1)),
        f(per_q(total - p1)),
        f(total as f64 / stream.len() as f64),
    ]);
    table.emit("adaptive_buffer");

    println!(
        "\ncontroller: {} ticks, {} decisions",
        controller.ticks(),
        controller.decisions().len()
    );
    for d in controller.decisions() {
        println!("  {d}");
    }

    let losers: Vec<String> = static_totals
        .iter()
        .filter(|&&(_, s)| total >= s)
        .map(|&(pin, s)| format!("pin {pin} ({} <= {} adaptive)", s, total))
        .collect();
    if losers.is_empty() {
        println!(
            "\nPASS: adaptive beat every static configuration ({} demand reads vs best static {})",
            total,
            static_totals.iter().map(|&(_, s)| s).min().unwrap(),
        );
    } else {
        eprintln!(
            "\nFAIL: adaptive did not strictly beat static {}",
            losers.join(", ")
        );
        std::process::exit(1);
    }
}
