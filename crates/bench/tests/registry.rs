//! The experiment registry: its names, its `bench all` order, and — for the
//! model-only experiments cheap enough for a debug build — its output,
//! against text captured from the pre-registry per-experiment binaries.

use rtree_bench::{Opts, EXPERIMENTS};
use std::collections::HashSet;

const QUICK: Opts = Opts {
    quick: true,
    csv: false,
    json: false,
    miss_ns: rtree_bench::macrobench::DEFAULT_MISS_NS,
};

#[test]
fn names_are_unique_and_described() {
    let mut seen = HashSet::new();
    for exp in EXPERIMENTS {
        assert!(!exp.name.is_empty() && !exp.about.is_empty());
        assert!(seen.insert(exp.name), "duplicate experiment {}", exp.name);
    }
    assert_eq!(EXPERIMENTS.len(), 27);
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
        "concurrent_scaling",
        "nd_generalization",
    ];
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    assert_eq!(names[..repro_all.len()], repro_all);
}

#[test]
fn model_only_experiments_match_the_parent_binaries() {
    for (name, golden) in [
        (
            "table2_nodes_per_level",
            include_str!("golden/table2_nodes_per_level.txt"),
        ),
        (
            "fig6_buffer_sensitivity",
            include_str!("golden/fig6_buffer_sensitivity.txt"),
        ),
        (
            "fig7_tiger_datadriven",
            include_str!("golden/fig7_tiger_datadriven.txt"),
        ),
        (
            "fig8_cfd_datadriven",
            include_str!("golden/fig8_cfd_datadriven.txt"),
        ),
    ] {
        let exp = EXPERIMENTS
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("{name} is not registered"));
        let mut out = String::new();
        (exp.run)(&QUICK, &mut out).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(out, golden, "{name} output drifted from the golden text");
    }
}
