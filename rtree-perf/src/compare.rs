//! Result files: `run` merges its child runs' output lines into one JSON
//! file, and `compare` sets two such files side by side under the bounds
//! `BENCHMARK.json` fixes.

use crate::json::{self, Json};
use crate::report::END_TO_END;
use crate::WORKLOADS;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

#[derive(Default)]
struct Section {
    attempted: u64,
    failed: u64,
    /// `(name, value, unit, spread, n)`, as text from the output lines.
    metrics: Vec<[String; 5]>,
}

/// One child run: the workload, the mode (0 = end to end, 1 = per layer)
/// and what the child printed.
pub struct ChildRun {
    pub workload: &'static str,
    pub mode: usize,
    pub stdout: String,
}

/// Merges the output of the child runs (`workload metric value unit
/// spread=… n=…` and `info key value…` lines) into one JSON document.
pub fn merge_runs(runs: &[ChildRun], seed: u64, seconds: f64, quick: bool) -> String {
    let mut info: BTreeMap<String, String> = BTreeMap::new();
    let mut sections: BTreeMap<&str, [Section; 2]> = BTreeMap::new();
    for run in runs {
        let section = &mut sections.entry(run.workload).or_default()[run.mode];
        for line in run.stdout.lines() {
            let fields: Vec<&str> = line.split_whitespace().collect();
            match fields.as_slice() {
                ["info", key, value @ ..] => {
                    info.entry((*key).to_string())
                        .or_insert_with(|| value.join(" "));
                }
                [workload, "attempted", count, _] if *workload == run.workload => {
                    section.attempted = count.parse().unwrap_or(0);
                }
                [workload, "failed", count, _] if *workload == run.workload => {
                    section.failed = count.parse().unwrap_or(0);
                }
                [workload, metric, value, unit, rest @ ..] if *workload == run.workload => {
                    let field = |prefix: &str| {
                        rest.iter()
                            .find_map(|f| f.strip_prefix(prefix))
                            .unwrap_or("0")
                            .to_string()
                    };
                    section.metrics.push([
                        (*metric).to_string(),
                        (*value).to_string(),
                        (*unit).to_string(),
                        field("spread="),
                        field("n="),
                    ]);
                }
                _ => {}
            }
        }
    }
    info.insert("seed".into(), seed.to_string());
    info.insert("seconds".into(), seconds.to_string());
    info.insert("quick".into(), quick.to_string());

    let mut out = String::from("{\n  \"info\": {\n");
    let lines: Vec<String> = info
        .iter()
        .map(|(k, v)| format!("    \"{}\": \"{}\"", json::escape(k), json::escape(v)))
        .collect();
    out.push_str(&lines.join(",\n"));
    out.push_str("\n  },\n  \"workloads\": {\n");
    let mut workloads = Vec::new();
    for workload in &WORKLOADS {
        let Some(both) = sections.get(workload.name) else {
            continue;
        };
        let mut text = format!("    \"{}\": {{\n", workload.name);
        let modes: Vec<String> = ["end_to_end", "per_layer"]
            .iter()
            .zip(both)
            .map(|(mode, section)| {
                let metrics: Vec<String> = section
                    .metrics
                    .iter()
                    .map(|[name, value, unit, spread, n]| {
                        format!(
                            "          \"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\", \"spread\": {spread}, \"n\": {n}}}"
                        )
                    })
                    .collect();
                format!(
                    "      \"{mode}\": {{\n        \"attempted\": {},\n        \"failed\": {},\n        \"metrics\": {{\n{}\n        }}\n      }}",
                    section.attempted,
                    section.failed,
                    metrics.join(",\n")
                )
            })
            .collect();
        text.push_str(&modes.join(",\n"));
        text.push_str("\n    }");
        workloads.push(text);
    }
    out.push_str(&workloads.join(",\n"));
    out.push_str("\n  }\n}\n");
    out
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `name → (better, bound)` from the `end_to_end` list of `BENCHMARK.json`.
fn bounds() -> Result<BTreeMap<String, (bool, f64)>, String> {
    let path = ["BENCHMARK.json", "../BENCHMARK.json"]
        .into_iter()
        .find(|p| Path::new(p).is_file())
        .ok_or("BENCHMARK.json not found in this directory or its parent")?;
    let doc = load(path)?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|entry| {
            let text = |key: &str| entry.get(key).and_then(Json::as_str);
            let name = text("name").ok_or("end_to_end entry without a name")?;
            let higher = match text("better") {
                Some("higher") => true,
                Some("lower") => false,
                _ => return Err(format!("{name}: better must be higher or lower")),
            };
            let bound = entry
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or(format!("{name}: no bound"))?;
            Ok((name.to_string(), (higher, bound)))
        })
        .collect()
}

/// `compare <a.json> <b.json>`: one row per (workload, end-to-end metric)
/// with both values, the ratio and its base. A pair is `unresolved` when
/// either side's own spread exceeds the bound, a `REGRESSION` when `b` is
/// worse than `a` by more than the bound. `Ok(false)` on a regression or on
/// failed operations.
pub fn run(args: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err("usage: rtree-perf compare <a.json> <b.json>".into());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let bounds = bounds()?;
    let mut table = String::new();
    writeln!(
        table,
        "{:<18} {:<15} {:>14} {:>14} {:>8}  {:>6}  verdict (ratio = b/a, base a = {a_path})",
        "workload", "metric", "a", "b", "ratio", "bound"
    )
    .expect("string write");
    let mut ok = true;
    for workload in &WORKLOADS {
        let section = |doc: &Json| {
            doc.get("workloads")?
                .get(workload.name)?
                .get("end_to_end")
                .cloned()
        };
        let (Some(sa), Some(sb)) = (section(&a), section(&b)) else {
            continue;
        };
        for (side, s) in [("a", &sa), ("b", &sb)] {
            let failed = s.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
            if failed > 0.0 {
                writeln!(
                    table,
                    "{:<18} {side}: {failed} operations failed",
                    workload.name
                )
                .expect("string write");
                ok = false;
            }
        }
        for (name, _) in END_TO_END {
            let read = |s: &Json, field: &str| s.get("metrics")?.get(name)?.get(field)?.as_f64();
            let (Some(va), Some(vb)) = (read(&sa, "value"), read(&sb, "value")) else {
                continue;
            };
            let Some(&(higher, bound)) = bounds.get(*name) else {
                continue;
            };
            let noise = read(&sa, "spread")
                .unwrap_or(0.0)
                .max(read(&sb, "spread").unwrap_or(0.0));
            let worse_by = if higher {
                (va - vb) / va
            } else {
                (vb - va) / va
            };
            let verdict = if noise > bound {
                format!("unresolved (spread {noise:.3} > bound)")
            } else if worse_by > bound {
                ok = false;
                format!("REGRESSION (worse by {worse_by:.3})")
            } else {
                "ok".to_string()
            };
            writeln!(
                table,
                "{:<18} {:<15} {:>14.4} {:>14.4} {:>8.4}  {:>6.2}  {verdict}",
                workload.name,
                name,
                va,
                vb,
                vb / va,
                bound
            )
            .expect("string write");
        }
    }
    print!("{table}");
    Ok(ok)
}
