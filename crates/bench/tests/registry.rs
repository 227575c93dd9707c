//! The experiment registry: its names, its `bench all` order, and — for the
//! model-only experiments cheap enough for a debug build — its output,
//! against text captured from the pre-registry per-experiment binaries.

use rtree_bench::{Opts, EXPERIMENTS};
use std::collections::HashSet;

const QUICK: Opts = Opts {
    quick: true,
    csv: false,
    json: false,
};

#[test]
fn names_are_unique_and_described() {
    let mut seen = HashSet::new();
    for exp in EXPERIMENTS {
        assert!(!exp.name.is_empty() && !exp.about.is_empty());
        assert!(seen.insert(exp.name), "duplicate experiment {}", exp.name);
    }
    assert_eq!(EXPERIMENTS.len(), 23);
}

#[test]
fn all_starts_with_the_nineteen_repro_all_ran() {
    let repro_all = [
        "table1_validation",
        "table2_nodes_per_level",
        "fig5_cfd_data",
        "fig6_buffer_sensitivity",
        "fig7_tiger_datadriven",
        "fig8_cfd_datadriven",
        "fig9_datasize",
        "fig10_pinning_datasize",
        "fig11_pinning",
        "validate_disk",
        "ablation_policies",
        "ablation_loaders",
        "ablation_splits",
        "update_quality",
        "write_amplification",
        "model_accuracy_sweep",
        "mixed_workloads",
        // `concurrent_scaling` ran here; it is now the single-shard rows of
        // `concurrent_throughput`. The N-dimensional model experiment ran
        // last; it was deleted with the N-dimensional code.
    ];
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    assert_eq!(names[..repro_all.len()], repro_all);
}

/// Runs `name` under `--quick` and compares its text with `golden`.
fn assert_matches_golden(name: &str, golden: &str) {
    let exp = EXPERIMENTS
        .iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("{name} is not registered"));
    let mut out = String::new();
    (exp.run)(&QUICK, &mut out).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(out, golden, "{name} output drifted from the golden text");
}

/// One test per golden, so the slow tables run side by side.
macro_rules! golden {
    ($($name:ident),+ $(,)?) => {$(
        #[test]
        fn $name() {
            let golden = include_str!(concat!("golden/", stringify!($name), ".txt"));
            assert_matches_golden(stringify!($name), golden);
        }
    )+};
}

// Model-only experiments, against the parent binaries' text.
golden!(
    table2_nodes_per_level,
    fig6_buffer_sensitivity,
    fig7_tiger_datadriven,
    fig8_cfd_datadriven,
);

// Captured from the build before the tree was made generic over its
// bounding box, and held through that change and its undoing: these tables
// push STR, Morton, the linear and R* splits, forced reinsertion and
// delete/reinsert churn through the loader and insertion code.
golden!(ablation_loaders, ablation_splits, update_quality);
