//! Smoke test: `--quick` runs of every workload in both modes print
//! exactly the metrics `BENCHMARK.json` declares, with its units and
//! well-formed names, and the count metrics of the single-threaded
//! workloads are bit-identical between two runs of one seed.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Json;
use std::collections::BTreeMap;
use std::process::Command;

/// Metrics of the traced mode that are counts (or computed from counts
/// alone) on the embedded workloads.
const COUNT_METRICS: &[&str] = &[
    "page_reads_per_op",
    "results_per_op",
    "exec.prefetch_reads_per_op",
    "bufmgr.hit_ratio",
    "bufmgr.evictions_per_op",
    "store.reads_per_op",
    "core.model_reads_per_op",
    "wire.response_bytes_mean",
    "exec.pages_per_query_b1",
    "exec.pages_per_query_b64",
    "mutate.page_writes_per_insert",
    "concurrent.checkpoint_pages_per_write",
    "recovery.ops_replayed",
];

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

/// `name → unit` of one of the declared metric lists.
fn declared(doc: &Json, list: &str) -> BTreeMap<String, String> {
    doc.get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|entry| {
            let text = |key| entry.get(key).and_then(Json::as_str).expect("text field");
            (text("name").to_string(), text("unit").to_string())
        })
        .collect()
}

/// Runs one quick workload and returns the `metrics` of its result line as
/// `name → (value, unit)`.
fn run(workload: &str, trace: &str) -> BTreeMap<String, (f64, String)> {
    let out = Command::new(env!("CARGO_BIN_EXE_rtree-perf"))
        .args(["--workload", workload, "--trace", trace])
        .args(["--seed", "7", "--seconds", "1", "--quick"])
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let result = json::parse(stdout.lines().last().expect("a result line")).expect("result JSON");
    let Json::Obj(fields) = &result else {
        panic!("the result line is not an object");
    };
    let keys: Vec<&str> = fields.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert!(
        result
            .get("attempted")
            .and_then(Json::as_f64)
            .expect("attempted")
            >= 1.0
    );
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("metrics is not an object");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64).expect("value");
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            (name.clone(), (value, unit.to_string()))
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn quick_runs_report_exactly_the_declared_metrics() {
    let doc = benchmark_json();
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(
        workloads,
        [
            "embedded_resident",
            "embedded_starved",
            "served_read",
            "served_mixed"
        ]
    );
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = declared(&doc, list);
        for workload in &workloads {
            assert!(well_formed(workload));
            let got = run(workload, trace);
            let got_units: BTreeMap<String, String> = got
                .iter()
                .map(|(name, (_, unit))| (name.clone(), unit.clone()))
                .collect();
            assert_eq!(got_units, want, "{workload} --trace {trace}");
            for (name, (value, unit)) in &got {
                assert!(well_formed(name), "{name}");
                assert!(!unit.is_empty() && value.is_finite(), "{name}");
                if trace == "0" {
                    assert!(*value > 0.0, "{workload} {name} must never be 0");
                }
            }
            if trace == "1" && workload == "embedded_resident" {
                assert_eq!(got["page_reads_per_op"].0, 0.0);
                assert_eq!(got["store.read_us_per_op"].0, 0.0);
            }
        }
    }
}

#[test]
fn embedded_counts_repeat_exactly() {
    for workload in ["embedded_resident", "embedded_starved"] {
        let (a, b) = (run(workload, "1"), run(workload, "1"));
        for name in COUNT_METRICS {
            assert_eq!(
                a[*name].0.to_bits(),
                b[*name].0.to_bits(),
                "{workload} {name} differs between two runs of seed 7"
            );
        }
    }
}
