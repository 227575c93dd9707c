//! The subcommands: dispatch, the parsers they share, and the tests.

mod bench;
mod disk;
mod pipeline;
mod scenario;
mod serve;

use crate::args::{err, Args, CliError};
use rtree_core::Workload;
use rtree_datagen::{
    centers, from_csv, CfdLike, ClusteredPoints, SyntheticPoint, SyntheticRegion, TigerLike,
};
use rtree_geom::Rect;

/// Executes a parsed command; returns the text to print. File writes happen
/// inside (`--out`); everything else is returned.
pub fn run(args: &Args) -> Result<String, CliError> {
    match args.command.as_str() {
        "generate" => pipeline::generate(args),
        "build" => pipeline::build(args),
        "model" => pipeline::model(args),
        "tune" => pipeline::tune(args),
        "simulate" => pipeline::simulate(args),
        "update" => disk::update(args),
        "batch" => disk::batch(args),
        "concurrent" => disk::concurrent(args),
        "trace" => disk::trace(args),
        "chaos" => disk::chaos(args),
        "bench" => bench::bench(args),
        "serve" => serve::serve(args),
        "loadgen" => serve::loadgen(args),
        other => Err(err(format!("unknown subcommand {other:?}"))),
    }
}

fn read_file(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| err(format!("reading {path}: {e}")))
}

fn write_or_return(args: &Args, content: String, what: &str) -> Result<String, CliError> {
    match args.flag("out") {
        Some(path) => {
            std::fs::write(path, &content).map_err(|e| err(format!("writing {path}: {e}")))?;
            Ok(format!("wrote {what} to {path}\n"))
        }
        None => Ok(content),
    }
}

/// Reads an `x0,y0,x1,y1` CSV data set; an empty one is an error.
fn read_data(path: &str) -> Result<Vec<Rect>, CliError> {
    let rects = from_csv(&read_file(path)?).map_err(CliError)?;
    if rects.is_empty() {
        return Err(err("data set is empty"));
    }
    Ok(rects)
}

/// Parses `tiger | cfd | region:N | point:N | clustered:N:K:SIGMA`.
fn parse_dataset_spec(spec: &str, seed: u64) -> Result<Vec<Rect>, CliError> {
    let parts: Vec<&str> = spec.split(':').collect();
    let n_of = |s: &str| -> Result<usize, CliError> {
        s.parse().map_err(|e| err(format!("bad count {s:?}: {e}")))
    };
    match parts.as_slice() {
        ["tiger"] => Ok(TigerLike::paper().generate(seed)),
        ["cfd"] => Ok(CfdLike::paper().generate(seed)),
        ["region", n] => Ok(SyntheticRegion::new(n_of(n)?).generate(seed)),
        ["point", n] => Ok(SyntheticPoint::new(n_of(n)?).generate(seed)),
        ["clustered", n, k, sigma] => {
            let sigma: f64 = sigma
                .parse()
                .map_err(|e| err(format!("bad sigma {sigma:?}: {e}")))?;
            Ok(ClusteredPoints::new(n_of(n)?, n_of(k)?, sigma).generate(seed))
        }
        _ => Err(err(format!("unknown data spec {spec:?}"))),
    }
}

fn parse_workload(spec: &str) -> Result<Workload, CliError> {
    let parts: Vec<&str> = spec.split(':').collect();
    let q_of = |s: &str| -> Result<f64, CliError> {
        let v: f64 = s
            .parse()
            .map_err(|e| err(format!("bad query size {s:?}: {e}")))?;
        if !(0.0..1.0).contains(&v) {
            return Err(err(format!("query size {v} must be in [0, 1)")));
        }
        Ok(v)
    };
    match parts.as_slice() {
        ["point"] => Ok(Workload::uniform_point()),
        ["region", qx, qy] => Ok(Workload::uniform_region(q_of(qx)?, q_of(qy)?)),
        ["data", qx, qy, path] => {
            let (qx, qy) = (q_of(qx)?, q_of(qy)?);
            let rects = read_data(path).map_err(|e| err(format!("data-driven workload: {e}")))?;
            Ok(Workload::data_driven(qx, qy, centers(&rects)))
        }
        _ => Err(err(format!("unknown workload {spec:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtree_buffer::{PolicyKind, ReplacementPolicy};

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    fn make_policy(name: &str, seed: u64) -> Result<Box<dyn ReplacementPolicy>, CliError> {
        Ok(name.parse::<PolicyKind>().map_err(CliError)?.build(seed))
    }

    #[test]
    fn chaos_single_seed_passes_and_is_replayable() {
        let a = run(&args("chaos --seed 3 --ops 80")).unwrap();
        let b = run(&args("chaos --seed 3 --ops 80")).unwrap();
        assert_eq!(a, b, "same seed must print the same report");
        assert!(a.contains("seed 3:"), "got: {a}");
        assert!(a.contains("ok"), "got: {a}");
    }

    #[test]
    fn chaos_seed_range_runs_every_seed() {
        let out = run(&args("chaos --seeds 0..4 --ops 40")).unwrap();
        for seed in 0..4 {
            assert!(out.contains(&format!("seed {seed}:")), "got: {out}");
        }
        assert!(run(&args("chaos --seeds 4..4")).is_err());
        assert!(run(&args("chaos --seeds nope")).is_err());
        assert!(run(&args("chaos --seed 1 --seeds 0..2")).is_err());
        assert!(run(&args("chaos --ops 0")).is_err());
    }

    #[test]
    fn chaos_planted_failure_shrinks_and_prints_replay_line() {
        // Some seed in a small range reaches the planted bug; its failure
        // must carry a shrunk `rtrees chaos` replay line.
        let e = (0..16u64)
            .find_map(|s| run(&args(&format!("chaos --seed {s} --ops 120 --plant"))).err())
            .expect("a planted seed in 0..16 must fail");
        assert!(e.0.contains("differential"), "got: {e}");
        assert!(e.0.contains("replay: rtrees chaos --seed"), "got: {e}");
        assert!(e.0.contains("--plant"), "got: {e}");
    }

    #[test]
    fn update_reports_write_stats() {
        let dir = std::env::temp_dir().join(format!("rtrees-cli-upd-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.csv");
        run(&args(&format!(
            "generate region:1500 --seed 9 --out {}",
            data.display()
        )))
        .unwrap();
        let out = run(&args(&format!(
            "update {} --cap 10 --buffer 20 --deletes 0.3 --checkpoint 400",
            data.display()
        )))
        .unwrap();
        assert!(out.contains("inserts: 1500"), "got: {out}");
        assert!(out.contains("physical writes/op"), "got: {out}");
        assert!(out.contains("WAL traffic"), "got: {out}");
        assert!(run(&args(&format!("update {} --buffer 0", data.display()))).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_reports_throughput() {
        let dir = std::env::temp_dir().join(format!("rtrees-cli-conc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.csv");
        run(&args(&format!(
            "generate region:2000 --seed 7 --out {}",
            data.display()
        )))
        .unwrap();
        let out = run(&args(&format!(
            "concurrent {} --cap 10 --buffer 40 --threads 4 --shards 4 --pin 1 --queries 2000",
            data.display()
        )))
        .unwrap();
        assert!(out.contains("4 shards"), "got: {out}");
        assert!(out.contains("queries/s"), "got: {out}");
        assert!(out.contains("hit ratio"), "got: {out}");
        // Bad configurations surface as errors, not panics.
        assert!(run(&args(&format!("concurrent {} --threads 0", data.display()))).is_err());
        assert!(run(&args(&format!("concurrent {} --pin 99", data.display()))).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batch_hit_curve_improves_with_batch_size() {
        let dir = std::env::temp_dir().join(format!("rtrees-cli-batch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.csv");
        run(&args(&format!(
            "generate clustered:4000:16:0.02 --seed 9 --out {}",
            data.display()
        )))
        .unwrap();
        let out = run(&args(&format!(
            "batch {} --cap 10 --buffer 16 --queries 512 --sizes 1,256 \
             --workload region:0.04:0.04 --seed 5",
            data.display()
        )))
        .unwrap();
        assert!(out.contains("batched execution"), "got: {out}");

        // The acceptance criterion: at batch 256 the clustered workload
        // must cost strictly fewer physical reads per query than at
        // batch 1 (dedup + the shared frontier do real work).
        let reads_at = |size: &str| -> f64 {
            out.lines()
                .find_map(|l| {
                    let mut cols = l.split_whitespace();
                    (cols.next() == Some(size)).then(|| cols.next().unwrap().parse().unwrap())
                })
                .unwrap_or_else(|| panic!("no row for batch {size} in: {out}"))
        };
        assert!(
            reads_at("256") < reads_at("1"),
            "batch 256 not cheaper: {out}"
        );

        let json = run(&args(&format!(
            "batch {} --cap 10 --buffer 16 --queries 128 --sizes 1,64 --json",
            data.display()
        )))
        .unwrap();
        assert!(json.contains("\"rows\""), "got: {json}");
        assert!(json.contains("\"reads/query\""), "got: {json}");

        // Bad configurations surface as errors, not panics.
        assert!(run(&args(&format!("batch {} --sizes 0,4", data.display()))).is_err());
        assert!(run(&args(&format!("batch {} --buffer 0", data.display()))).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trace_reports_per_level_hit_ratios() {
        let dir = std::env::temp_dir().join(format!("rtrees-cli-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.csv");
        run(&args(&format!(
            "generate region:2000 --seed 11 --out {}",
            data.display()
        )))
        .unwrap();
        let out = run(&args(&format!(
            "trace {} --cap 10 --buffer 30 --queries 1500",
            data.display()
        )))
        .unwrap();
        assert!(out.contains("per-level buffer trace"), "got: {out}");
        assert!(out.contains("hit ratio"), "got: {out}");
        assert!(
            out.contains("reconciled with IoStats/BufferStats: yes"),
            "got: {out}"
        );
        assert!(out.contains("p50"), "got: {out}");
        // The paper orientation puts the root at level 0.
        assert!(
            out.lines().any(|l| l.trim_start().starts_with("0 ")),
            "got: {out}"
        );

        let json = run(&args(&format!(
            "trace {} --cap 10 --buffer 30 --queries 500 --json",
            data.display()
        )))
        .unwrap();
        assert!(json.contains("\"rows\""), "got: {json}");
        assert!(json.contains("\"hit ratio\""), "got: {json}");

        let prom = run(&args(&format!(
            "trace {} --cap 10 --buffer 30 --queries 500 --prom --threads 2 --shards 2",
            data.display()
        )))
        .unwrap();
        assert!(
            prom.contains("# TYPE rtree_trace_events_total counter"),
            "got: {prom}"
        );
        assert!(prom.contains("rtree_query_latency_ns_count"), "got: {prom}");

        assert!(run(&args(&format!("trace {} --json --prom", data.display()))).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn generate_to_stdout() {
        let out = run(&args("generate region:500 --seed 3")).unwrap();
        assert!(out.starts_with("x0,y0,x1,y1\n"));
        assert_eq!(out.lines().count(), 501);
    }

    #[test]
    fn dataset_specs() {
        assert_eq!(parse_dataset_spec("point:100", 1).unwrap().len(), 100);
        assert_eq!(
            parse_dataset_spec("clustered:200:4:0.05", 1).unwrap().len(),
            200
        );
        assert!(parse_dataset_spec("bogus", 1).is_err());
        assert!(parse_dataset_spec("region:x", 1).is_err());
    }

    #[test]
    fn workload_specs() {
        assert!(parse_workload("point").unwrap().is_point());
        let w = parse_workload("region:0.1:0.2").unwrap();
        assert_eq!((w.qx(), w.qy()), (0.1, 0.2));
        assert!(parse_workload("region:2:0.1").is_err());
        assert!(parse_workload("wat").is_err());
    }

    #[test]
    fn full_pipeline_through_temp_files() {
        let dir = std::env::temp_dir().join(format!("rtrees-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.csv");
        let desc = dir.join("tree.desc");

        let msg = run(&args(&format!(
            "generate region:2000 --seed 5 --out {}",
            data.display()
        )))
        .unwrap();
        assert!(msg.contains("2000 rectangles"));

        let msg = run(&args(&format!(
            "build {} --loader STR --cap 25 --out {}",
            data.display(),
            desc.display()
        )))
        .unwrap();
        assert!(msg.contains("tree description"));

        let out = run(&args(&format!(
            "model {} --workload region:0.05:0.05 --buffers 5,20,80",
            desc.display()
        )))
        .unwrap();
        assert!(out.contains("disk accesses/query"));
        assert_eq!(
            out.lines()
                .filter(|l| l.trim_start().starts_with(['5', '2', '8']))
                .count(),
            3
        );

        let out = run(&args(&format!(
            "simulate {} --buffer 20 --queries 4000",
            desc.display()
        )))
        .unwrap();
        assert!(out.contains("hit ratio"));

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn model_with_pinning() {
        let dir = std::env::temp_dir().join(format!("rtrees-cli-pin-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("d.csv");
        let desc = dir.join("t.desc");
        run(&args(&format!(
            "generate point:3000 --out {}",
            data.display()
        )))
        .unwrap();
        run(&args(&format!(
            "build {} --cap 25 --out {}",
            data.display(),
            desc.display()
        )))
        .unwrap();
        let out = run(&args(&format!(
            "model {} --buffers 50 --pin 2",
            desc.display()
        )))
        .unwrap();
        assert!(out.contains("levels pinned"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zero_queries_is_an_error_not_nan() {
        let dir = std::env::temp_dir().join(format!("rtrees-cli-zeroq-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("d.csv");
        let desc = dir.join("t.desc");
        run(&args(&format!(
            "generate region:300 --out {}",
            data.display()
        )))
        .unwrap();
        run(&args(&format!(
            "build {} --cap 10 --out {}",
            data.display(),
            desc.display()
        )))
        .unwrap();
        for cmd in [
            format!("simulate {} --queries 0", desc.display()),
            format!("concurrent {} --queries 0", data.display()),
            format!("batch {} --queries 0", data.display()),
        ] {
            let e = run(&args(&cmd)).unwrap_err();
            assert!(e.0.contains("--queries must be positive"), "{cmd}: {e}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bench_lists_the_registry_and_rejects_bad_input() {
        let list = run(&args("bench list")).unwrap();
        assert!(list.contains("table1_validation"), "got: {list}");
        assert!(list.contains("describe_tree"), "got: {list}");
        assert_eq!(list.lines().count(), rtree_bench::EXPERIMENTS.len());
        assert!(run(&args("bench no_such_experiment")).is_err());
        assert!(run(&args("bench list --window 3")).is_err());
    }

    /// Every flag a subcommand admits through `allow_flags` is documented
    /// in that subcommand's `USAGE` block. The lists are read from the
    /// subcommands' source, where each `pub(super) fn` is named after its
    /// subcommand.
    #[test]
    fn usage_documents_every_allowed_flag() {
        let sources = [
            include_str!("commands/bench.rs"),
            include_str!("commands/disk.rs"),
            include_str!("commands/pipeline.rs"),
            include_str!("commands/serve.rs"),
        ];
        let mut checked = 0;
        for body in sources
            .iter()
            .flat_map(|s| s.split("pub(super) fn ").skip(1))
        {
            let name = &body[..body.find('(').expect("a signature")];
            let Some(start) = body.find("allow_flags(&[") else {
                continue;
            };
            let list = &body[start..start + body[start..].find("])").expect("a list")];
            let block = crate::USAGE
                .split("\n  rtrees ")
                .find(|b| b.starts_with(&format!("{name} ")))
                .unwrap_or_else(|| panic!("no USAGE block for {name}"));
            for flag in list.split('"').skip(1).step_by(2) {
                assert!(
                    block.contains(&format!("--{flag}")),
                    "USAGE for {name} omits --{flag}"
                );
                checked += 1;
            }
        }
        assert!(checked > 80, "only {checked} flags found");
    }

    #[test]
    fn unknown_subcommand() {
        assert!(run(&args("frobnicate x")).is_err());
    }

    #[test]
    fn sim_policies_parse() {
        for p in ["LRU", "LRU2", "FIFO", "CLOCK", "RANDOM"] {
            assert!(make_policy(p, 1).is_ok());
        }
        assert!(make_policy("MRU", 1).is_err());
    }

    /// Waits for `serve` to publish its ephemeral port, then returns it.
    fn wait_for_port(path: &std::path::Path) -> String {
        for _ in 0..400 {
            if let Ok(s) = std::fs::read_to_string(path) {
                let s = s.trim().to_string();
                if !s.is_empty() {
                    return s;
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        panic!("server never wrote its port file");
    }

    #[test]
    fn serve_and_loadgen_round_trip_over_loopback() {
        let dir = std::env::temp_dir().join(format!("rtrees-cli-serve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.csv");
        let port = dir.join("port");
        run(&args(&format!(
            "generate clustered:3000:12:0.03 --seed 5 --out {}",
            data.display()
        )))
        .unwrap();

        let serve_args = args(&format!(
            "serve {} --cap 10 --buffer 64 --batch 32 --wait-us 400 --duration 30 \
             --port-file {}",
            data.display(),
            port.display()
        ));
        let server = std::thread::spawn(move || run(&serve_args));
        let addr = wait_for_port(&port);

        let out = run(&args(&format!(
            "loadgen {addr} --quick --connections 4 --count-fraction 0.25 --seed 3 \
             --workload region:0.04:0.04 --shutdown --json"
        )))
        .unwrap();
        assert!(out.contains("\"ok\": 200"), "got: {out}");
        assert!(out.contains("\"errors\": 0"), "got: {out}");

        // --shutdown stops the server; its summary must reconcile.
        let summary = server.join().unwrap().unwrap();
        assert!(summary.contains("200 queries"), "got: {summary}");
        assert!(summary.contains("reconciled: yes"), "got: {summary}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_writers_round_trip_with_mixed_load() {
        let dir = std::env::temp_dir().join(format!("rtrees-cli-wrsrv-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.csv");
        let port = dir.join("port");
        run(&args(&format!(
            "generate region:800 --seed 4 --out {}",
            data.display()
        )))
        .unwrap();

        let serve_args = args(&format!(
            "serve {} --cap 16 --buffer 64 --writers --write-threads 4 --duration 30 \
             --port-file {}",
            data.display(),
            port.display()
        ));
        let server = std::thread::spawn(move || run(&serve_args));
        let addr = wait_for_port(&port);

        let out = run(&args(&format!(
            "loadgen {addr} --quick --connections 4 --write-fraction 0.25 --seed 6 \
             --workload region:0.04:0.04 --shutdown --json"
        )))
        .unwrap();
        // 4 connections x 50 ops at write fraction 0.25: 12 writes each.
        assert!(out.contains("\"writes_ok\": 48"), "got: {out}");
        assert!(out.contains("\"ok\": 152"), "got: {out}");
        assert!(out.contains("\"errors\": 0"), "got: {out}");

        let summary = server.join().unwrap().unwrap();
        assert!(summary.contains("writes:"), "got: {summary}");
        assert!(summary.contains("reconciled: yes"), "got: {summary}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_sharded_engine_round_trip() {
        let dir = std::env::temp_dir().join(format!("rtrees-cli-shsrv-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.csv");
        let port = dir.join("port");
        run(&args(&format!(
            "generate region:1500 --seed 8 --out {}",
            data.display()
        )))
        .unwrap();

        let serve_args = args(&format!(
            "serve {} --cap 10 --buffer 64 --shards 4 --workers 2 \
             --duration 30 --port-file {}",
            data.display(),
            port.display()
        ));
        let server = std::thread::spawn(move || run(&serve_args));
        let addr = wait_for_port(&port);

        let out = run(&args(&format!(
            "loadgen {addr} --queries 80 --connections 2 --seed 4 --shutdown"
        )))
        .unwrap();
        assert!(out.contains("loadgen"), "got: {out}");
        let summary = server.join().unwrap().unwrap();
        assert!(summary.contains("reconciled: yes"), "got: {summary}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tune_prints_predicted_vs_measured_and_plan() {
        let dir = std::env::temp_dir().join(format!("rtrees-cli-tune-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("d.csv");
        let desc = dir.join("t.desc");
        run(&args(&format!(
            "generate region:2000 --seed 5 --out {}",
            data.display()
        )))
        .unwrap();
        run(&args(&format!(
            "build {} --cap 25 --out {}",
            data.display(),
            desc.display()
        )))
        .unwrap();
        let out = run(&args(&format!(
            "tune {} --workload region:0.05:0.05 --buffers 10,80 --queries 3000 --seed 2",
            desc.display()
        )))
        .unwrap();
        assert!(out.contains("warm-up N*"), "got: {out}");
        assert!(out.contains("measured"), "got: {out}");
        // The warm-up column is typed: a huge buffer prints the explicit
        // "never fills" note instead of dropping the row.
        let rows: Vec<&str> = out
            .lines()
            .filter(|l| {
                let first = l.split_whitespace().next().unwrap_or("");
                first == "10" || first == "80"
            })
            .collect();
        assert_eq!(rows.len(), 2, "got: {out}");
        assert!(
            out.contains("controller plan within budget 80"),
            "got: {out}"
        );
        let big = run(&args(&format!(
            "tune {} --buffers 100000 --queries 500",
            desc.display()
        )))
        .unwrap();
        assert!(big.contains("never fills"), "got: {big}");
        assert!(run(&args(&format!("tune {} --queries 0", desc.display()))).is_err());
        assert!(run(&args(&format!("tune {} --buffers 0,5", desc.display()))).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_adaptive_round_trip_with_zipf_load() {
        let dir = std::env::temp_dir().join(format!("rtrees-cli-adsrv-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.csv");
        let port = dir.join("port");
        run(&args(&format!(
            "generate clustered:2500:10:0.03 --seed 5 --out {}",
            data.display()
        )))
        .unwrap();

        let serve_args = args(&format!(
            "serve {} --cap 10 --buffer 64 --adaptive --tune-interval 20 --budget 64 \
             --duration 30 --port-file {}",
            data.display(),
            port.display()
        ));
        let server = std::thread::spawn(move || run(&serve_args));
        let addr = wait_for_port(&port);

        // Rate-limit the load so the run spans several controller ticks,
        // and skew it so the estimator sees a non-uniform stream.
        let out = run(&args(&format!(
            "loadgen {addr} --queries 240 --qps 800 --connections 4 --seed 3 \
             --workload data:0.04:0.04:{} --zipf 0.9 --shutdown --json",
            data.display()
        )))
        .unwrap();
        assert!(out.contains("\"ok\": 240"), "got: {out}");
        assert!(out.contains("\"errors\": 0"), "got: {out}");

        // The summary must reconcile even across live resizes/re-pins,
        // and it must carry the tuning report.
        let summary = server.join().unwrap().unwrap();
        assert!(summary.contains("reconciled: yes"), "got: {summary}");
        assert!(summary.contains("tuning:"), "got: {summary}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn loadgen_zipf_needs_data_driven_workload() {
        // Rejected while building the config, before any connection.
        let e = run(&args(
            "loadgen 127.0.0.1:1 --zipf 0.8 --workload region:0.04:0.04",
        ))
        .unwrap_err();
        assert!(e.0.contains("data-driven"), "got: {e}");
        assert!(run(&args("loadgen 127.0.0.1:1 --zipf -0.5")).is_err());
    }

    #[test]
    fn serve_rejects_bad_flags() {
        let dir = std::env::temp_dir().join(format!("rtrees-cli-srvbad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.csv");
        run(&args(&format!(
            "generate point:200 --out {}",
            data.display()
        )))
        .unwrap();
        for bad in [
            format!("serve {} --batch 0", data.display()),
            format!("serve {} --queue 0", data.display()),
            format!("serve {} --workers 0", data.display()),
            format!("serve {} --writers --shards 4", data.display()),
            format!("serve {} --buffer 0", data.display()),
            format!("serve {} --adaptive --writers", data.display()),
            format!("serve {} --adaptive --tune-interval 0", data.display()),
            format!("serve {} --adaptive --budget 0", data.display()),
        ] {
            assert!(run(&args(&bad)).is_err(), "accepted: {bad}");
        }
        assert!(run(&args("loadgen 127.0.0.1:1 --connections 0")).is_err());
        assert!(run(&args("loadgen 127.0.0.1:1 --count-fraction 1.5")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
