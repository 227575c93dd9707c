//! End-to-end test of the `rtrees` binary: spawn the real executable and
//! drive the full generate → build → model → simulate pipeline through a
//! temp directory.

use std::path::PathBuf;
use std::process::Command;

fn rtrees() -> Command {
    // Integration tests live next to the binary under target/<profile>/.
    let mut path = PathBuf::from(env!("CARGO_BIN_EXE_rtrees"));
    if !path.exists() {
        path = PathBuf::from("target/debug/rtrees");
    }
    Command::new(path)
}

#[test]
fn pipeline_through_the_real_binary() {
    let dir = std::env::temp_dir().join(format!("rtrees-bin-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let data = dir.join("data.csv");
    let desc = dir.join("tree.desc");

    let out = rtrees()
        .args(["generate", "region:1500", "--seed", "4", "--out"])
        .arg(&data)
        .output()
        .expect("spawn rtrees generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = rtrees()
        .args(["build"])
        .arg(&data)
        .args(["--loader", "STR", "--cap", "20", "--out"])
        .arg(&desc)
        .output()
        .expect("spawn rtrees build");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = rtrees()
        .args(["model"])
        .arg(&desc)
        .args(["--workload", "region:0.05:0.05", "--buffers", "10,40"])
        .output()
        .expect("spawn rtrees model");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("disk accesses/query"),
        "unexpected output: {text}"
    );

    let out = rtrees()
        .args(["simulate"])
        .arg(&desc)
        .args(["--buffer", "20", "--queries", "3000", "--policy", "CLOCK"])
        .output()
        .expect("spawn rtrees simulate");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("CLOCK policy"), "unexpected output: {text}");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn trace_through_the_real_binary() {
    let dir = std::env::temp_dir().join(format!("rtrees-bin-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let data = dir.join("data.csv");

    let out = rtrees()
        .args(["generate", "region:1200", "--seed", "13", "--out"])
        .arg(&data)
        .output()
        .expect("spawn rtrees generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = rtrees()
        .args(["trace"])
        .arg(&data)
        .args(["--cap", "10", "--buffer", "25", "--queries", "1000"])
        .output()
        .expect("spawn rtrees trace");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("per-level buffer trace"), "got: {text}");
    assert!(
        text.contains("reconciled with IoStats/BufferStats: yes"),
        "got: {text}"
    );

    let out = rtrees()
        .args(["trace"])
        .arg(&data)
        .args([
            "--cap",
            "10",
            "--buffer",
            "25",
            "--queries",
            "400",
            "--json",
        ])
        .output()
        .expect("spawn rtrees trace --json");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"rows\""), "got: {text}");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn macrobench_through_the_real_binary() {
    let dir = std::env::temp_dir().join(format!("rtrees-bin-macro-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let data = dir.join("data.csv");
    let trace = dir.join("workload.rtrc");

    let out = rtrees()
        .args(["generate", "region:2000", "--seed", "31", "--out"])
        .arg(&data)
        .output()
        .expect("spawn rtrees generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Record a small Zipf trace and report both formats as JSON.
    let out = rtrees()
        .args(["macrobench"])
        .arg(&data)
        .args([
            "--cap", "16", "--frames", "12", "--ops", "800", "--json", "--record",
        ])
        .arg(&trace)
        .output()
        .expect("spawn rtrees macrobench");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"rows\""), "got: {text}");
    assert!(
        text.contains("\"v3\"") && text.contains("\"v4\""),
        "got: {text}"
    );

    // Replaying the recorded file re-runs the identical workload.
    let out = rtrees()
        .args(["macrobench"])
        .arg(&data)
        .args(["--cap", "16", "--frames", "12", "--replay"])
        .arg(&trace)
        .output()
        .expect("spawn rtrees macrobench --replay");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("800 ops"), "got: {text}");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bench_through_the_real_binary() {
    let out = rtrees().args(["bench", "list"]).output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("fig6_buffer_sensitivity"), "got: {text}");
    assert!(text.contains("macrobench"), "got: {text}");

    // One experiment end to end: the table is printed and, with --json,
    // lands under results/ of the working directory.
    let dir = std::env::temp_dir().join(format!("rtrees-bin-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = rtrees()
        .current_dir(&dir)
        .args(["bench", "table2_nodes_per_level", "--quick", "--json"])
        .output()
        .expect("spawn rtrees bench");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("== Table 2: nodes per level"), "got: {text}");
    let json = std::fs::read_to_string(dir.join("results/table2_nodes_per_level.json"))
        .expect("--json writes results/table2_nodes_per_level.json");
    assert!(
        json.contains("\"title\": \"Table 2: nodes per level"),
        "got: {json}"
    );
    assert_eq!(json.matches("\"points\": ").count(), 6, "got: {json}");
    assert!(json.trim_end().ends_with('}'), "got: {json}");

    let out = rtrees().args(["bench", "nope"]).output().expect("spawn");
    assert!(!out.status.success());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn help_and_errors() {
    let out = rtrees().arg("--help").output().expect("spawn");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));

    let out = rtrees().args(["frobnicate", "x"]).output().expect("spawn");
    assert!(!out.status.success());

    let out = rtrees()
        .args(["model", "/definitely/not/a/file"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));
}
