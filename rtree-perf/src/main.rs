//! `rtree-perf`: a measured end-to-end + per-layer benchmark of the
//! buffered R-tree engine. See `README.md` beside this package for the
//! workload and metric definitions.
//!
//! ```text
//! rtree-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, one mode
//! rtree-perf run --seed <n> [--seconds <s>] [--quick] --out <file>      all workloads, both modes
//! rtree-perf compare <a.json> <b.json>                                  apply BENCHMARK.json's bounds
//! ```

mod compare;
mod embedded;
mod harness;
mod info;
mod json;
mod layers;
mod model;
mod probes;
mod report;
mod served;
mod setup;
mod span;
mod timed;

use embedded::Embedded;
use harness::{end_to_end, Bench, Limit, Pass, SETUPS, SLICES};
use report::{peak_rss_mb, Metrics};
use served::Served;
use setup::{Env, Scale};
use span::Recorder;
use std::io;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Opens a workload: `(env, buffer frames, stream operations, seed, recorder)`.
type Open = fn(Arc<Env>, usize, usize, u64, &Arc<Recorder>) -> io::Result<Box<dyn Bench>>;

/// A workload: its fixed name (why it exists is in `BENCHMARK.json` and
/// the README), its buffer, how it is opened, and the rate the seed runs it
/// at on a 2-core sandbox — used only to size the warm-up, the streams and
/// the fixed-count passes of the traced mode.
pub struct Workload {
    pub name: &'static str,
    nominal_ops_per_s: f64,
    frames: fn(Scale) -> usize,
    /// Stream length in units of `Run::pass_ops`. A read-only stream is
    /// cycled when it runs out; a stream with writes cannot be replayed, so
    /// it is generated long enough for a machine several times faster than
    /// the nominal rate.
    stream_passes: usize,
    open: Open,
}

fn boxed<B: Bench + 'static>(bench: io::Result<B>) -> io::Result<Box<dyn Bench>> {
    Ok(Box::new(bench?))
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "embedded_resident",
        nominal_ops_per_s: 80_000.0,
        frames: |s| s.resident_frames,
        stream_passes: 2,
        open: |env, frames, ops, seed, rec| boxed(Embedded::open(env, frames, ops, seed, rec)),
    },
    Workload {
        name: "embedded_starved",
        nominal_ops_per_s: 40_000.0,
        frames: |s| s.starved_frames,
        stream_passes: 2,
        open: |env, frames, ops, seed, rec| boxed(Embedded::open(env, frames, ops, seed, rec)),
    },
    Workload {
        name: "served_read",
        nominal_ops_per_s: 2_400.0,
        frames: |s| s.starved_frames,
        stream_passes: 2,
        open: |env, frames, ops, seed, rec| boxed(Served::open_read(env, frames, ops, seed, rec)),
    },
    Workload {
        name: "served_mixed",
        nominal_ops_per_s: 2_400.0,
        frames: |s| s.mixed_frames,
        stream_passes: 8,
        open: |env, frames, ops, seed, rec| boxed(Served::open_mixed(env, frames, ops, seed, rec)),
    },
];

/// What one invocation fixes for everything it does.
pub struct Run {
    pub workload: &'static Workload,
    pub seed: u64,
    pub scale: Scale,
    /// Operations of a third of the nominal run: sizes the warm-up, the
    /// streams and the two passes of the traced mode.
    pub pass_ops: usize,
    pub rec: Arc<Recorder>,
}

impl Run {
    fn open(&self, env: &Arc<Env>) -> io::Result<Box<dyn Bench>> {
        let w = self.workload;
        (w.open)(
            Arc::clone(env),
            (w.frames)(self.scale),
            self.pass_ops * w.stream_passes,
            self.seed,
            &self.rec,
        )
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: rtree-perf --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--quick]\n       rtree-perf run --seed <n> [--seconds <s>] [--quick] --out <file>\n       rtree-perf compare <a.json> <b.json>",
        names.join("|")
    )
}

/// `--name value` pairs and bare `--flag`s, in any order.
pub struct Flags(Vec<String>);

impl Flags {
    pub fn value(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    pub fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| v.parse().map_err(|_| format!("bad value for {name}: {v}")))
            .transpose()
    }

    pub fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }
}

fn parse_one(flags: &Flags) -> Result<Args, String> {
    let name = flags.value("--workload").ok_or_else(usage)?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name}\n{}", usage()))?;
    let seconds: f64 = flags.parsed("--seconds")?.ok_or_else(usage)?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], got {seconds}"));
    }
    let trace = match flags.value("--trace").ok_or_else(usage)? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got {other}")),
    };
    Ok(Args {
        workload,
        seed: flags.parsed("--seed")?.ok_or_else(usage)?,
        seconds,
        trace,
        quick: flags.has("--quick"),
    })
}

/// Where runs keep their files: `out/` of this package, found from the
/// working directory (the repository root or the package itself), so that
/// nothing is written outside the checkout.
pub fn out_dir() -> PathBuf {
    let package = PathBuf::from("rtree-perf");
    if package.is_dir() {
        package.join("out")
    } else {
        PathBuf::from("out")
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        metrics.json()
    )
}

fn run_one(args: &Args) -> io::Result<bool> {
    let scale = if args.quick {
        Scale::QUICK
    } else {
        Scale::FULL
    };
    let name = args.workload.name;
    // An untraced run sets up SETUPS times (for the median) and cuts its
    // measuring time into SLICES slices; `--quick` and the traced mode set
    // up once. The traced mode runs two fixed-count passes of a third of
    // the time each; `pass_ops` also sizes the warm-up and the streams.
    let setups = if args.quick || args.trace { 1 } else { SETUPS };
    let slices = if args.quick { SLICES / 5 } else { SLICES };
    let run = Run {
        workload: args.workload,
        seed: args.seed,
        scale,
        pass_ops: ((args.workload.nominal_ops_per_s * args.seconds / 3.0) as usize).max(2 * 64),
        rec: Arc::new(Recorder::new()),
    };

    let mut setup_s = Vec::new();
    let mut built: Option<(Arc<Env>, Box<dyn Bench>)> = None;
    for repeat in 0..setups {
        if let Some((_, discarded)) = built.take() {
            discarded.close();
        }
        let t = Instant::now();
        let dir = out_dir().join(format!("run-{}-{repeat}", std::process::id()));
        let env = Arc::new(Env::build(args.seed, scale, dir)?);
        let mut bench = run.open(&env)?;
        let warm_up = bench.pass(Limit::Ops(run.pass_ops / 10));
        setup_s.push(t.elapsed().as_secs_f64());
        if warm_up.failed > 0 {
            return Err(io::Error::other(format!(
                "{} of {} warm-up operations failed",
                warm_up.failed, warm_up.ops
            )));
        }
        built = Some((env, bench));
    }
    let (env, mut bench) = built.expect("at least one set-up");

    print!("{}", info::lines(&env, args.quick));
    let (attempted, failed, metrics) = if args.trace {
        layers::measure(&run, &env, bench)?
    } else {
        let slice = Duration::from_secs_f64(args.seconds / slices as f64);
        let mut passes: Vec<Pass> = (0..slices).map(|_| bench.pass(Limit::For(slice))).collect();
        let mut m = end_to_end(&mut passes);
        m.set_median("setup_s", &setup_s, setup_s.len() as u64);
        let closing = bench.close();
        m.set("peak_rss_mb", peak_rss_mb());
        m.set(
            "bytes_per_item",
            closing.stored_bytes as f64 / closing.live_items.max(1) as f64,
        );
        (
            passes.iter().map(|p| p.ops).sum::<u64>(),
            passes.iter().map(|p| p.failed).sum::<u64>() + closing.lost,
            m,
        )
    };
    drop(env);
    println!("{name} attempted {attempted} count");
    println!("{name} failed {failed} count");
    print!("{}", metrics.lines(name));
    println!("{}", result_line(attempted, failed, &metrics));
    Ok(failed == 0)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("run") => run_all(&Flags(argv[1..].to_vec())),
        Some("compare") => compare::run(&argv[1..]),
        _ => parse_one(&Flags(argv)).and_then(|args| run_one(&args).map_err(|e| e.to_string())),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("rtree-perf: {message}");
            ExitCode::from(2)
        }
    }
}

/// `run`: every workload in both modes, each in a child process of its own
/// (so `peak_rss_mb` is that workload's), merged into one JSON file.
fn run_all(flags: &Flags) -> Result<bool, String> {
    let seed: u64 = flags.parsed("--seed")?.unwrap_or(42);
    let quick = flags.has("--quick");
    let seconds: f64 = flags
        .parsed("--seconds")?
        .unwrap_or(if quick { 1.0 } else { 12.0 });
    let out = PathBuf::from(flags.value("--out").ok_or_else(usage)?);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    let mut runs = Vec::new();
    for workload in &WORKLOADS {
        for (mode, trace) in ["0", "1"].into_iter().enumerate() {
            let mut command = std::process::Command::new(&exe);
            command
                .args(["--workload", workload.name, "--trace", trace])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()]);
            if quick {
                command.arg("--quick");
            }
            let output = command
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("starting {}: {e}", workload.name))?;
            let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
            print!("{stdout}");
            ok &= output.status.success();
            runs.push(compare::ChildRun {
                workload: workload.name,
                mode,
                stdout,
            });
        }
    }
    let merged = compare::merge_runs(&runs, seed, seconds, quick);
    if let Some(parent) = out.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
    }
    std::fs::write(&out, merged).map_err(|e| format!("writing {}: {e}", out.display()))?;
    eprintln!("wrote {}", out.display());
    Ok(ok)
}
