//! `rtrees bench <name> | all | list`: the one runner of the experiment
//! registry in `rtree-bench`.

use crate::args::{err, Args, CliError};
use rtree_bench::macrobench::DEFAULT_MISS_NS;
use rtree_bench::{Experiment, Opts, EXPERIMENTS};
use std::fmt::Write as _;
use std::time::Instant;

/// Runs one experiment, printing what it produced even when its gate
/// failed; the error is the gate's verdict.
fn run_one(exp: &Experiment, opts: &Opts) -> Result<(), String> {
    let mut out = String::new();
    let verdict = (exp.run)(opts, &mut out);
    print!("{out}");
    verdict
}

pub(super) fn bench(args: &Args) -> Result<String, CliError> {
    args.allow_flags(&["quick", "csv", "json", "miss-ns"])?;
    let opts = Opts {
        quick: args.flag_bool("quick"),
        csv: args.flag_bool("csv"),
        json: args.flag_bool("json"),
        miss_ns: args.flag_or("miss-ns", DEFAULT_MISS_NS)?,
    };
    match args.positional.as_str() {
        "list" => {
            let mut out = String::new();
            for exp in EXPERIMENTS {
                let _ = writeln!(out, "{:<24} {}", exp.name, exp.about);
            }
            Ok(out)
        }
        "all" => {
            let started = Instant::now();
            let mut failures = Vec::new();
            for exp in EXPERIMENTS {
                println!("\n######## {} ########\n", exp.name);
                let t = Instant::now();
                if let Err(e) = run_one(exp, &opts) {
                    eprintln!("{e}");
                    failures.push(exp.name);
                }
                println!("[{}: {:.1}s]", exp.name, t.elapsed().as_secs_f64());
            }
            println!(
                "\n======== reproduction suite finished in {:.1}s ========",
                started.elapsed().as_secs_f64()
            );
            if failures.is_empty() {
                Ok(format!("all {} experiments completed\n", EXPERIMENTS.len()))
            } else {
                Err(err(format!("FAILED: {failures:?}")))
            }
        }
        name => {
            let exp = EXPERIMENTS.iter().find(|e| e.name == name).ok_or_else(|| {
                err(format!(
                    "unknown experiment {name:?} (see `rtrees bench list`)"
                ))
            })?;
            run_one(exp, &opts).map_err(CliError)?;
            Ok(String::new())
        }
    }
}
