//! The flag block most subcommands share — `--loader / --cap / --buffer /
//! --policy / --workload / --seed / --queries` — parsed and range-checked
//! in one place.

use super::parse_workload;
use crate::args::{err, Args, CliError};
use rtree_bench::Loader;
use rtree_buffer::{PolicyKind, ReplacementPolicy};
use rtree_core::Workload;
use rtree_geom::Rect;
use rtree_index::RTree;

/// The defaults that differ between subcommands (`--cap` is 50, `--buffer`
/// 100, `--loader` HS and `--policy` LRU everywhere).
pub(crate) struct Defaults {
    pub seed: u64,
    pub queries: usize,
    pub workload: &'static str,
}

impl Defaults {
    /// For subcommands that take neither `--queries` nor `--workload`.
    pub fn seed(seed: u64) -> Self {
        Defaults {
            seed,
            queries: 1,
            workload: "point",
        }
    }
}

/// A parsed, validated run description, one field per flag. A subcommand
/// reads the fields its `allow_flags` list admits; the rest hold their
/// defaults.
pub(crate) struct Scenario {
    pub loader: Loader,
    /// Node capacity, within what a page holds.
    pub cap: usize,
    /// Buffer frames, positive.
    pub buffer: usize,
    pub policy: PolicyKind,
    /// The policy as the user spelled it, upper-cased, for report titles.
    pub policy_name: String,
    pub workload: Workload,
    pub seed: u64,
    /// Positive.
    pub queries: usize,
}

impl Scenario {
    /// Parses the shared flags out of `args`.
    pub fn parse(args: &Args, defaults: Defaults) -> Result<Self, CliError> {
        let cap: usize = args.flag_or("cap", 50usize)?;
        if !(4..=rtree_pager::MAX_ENTRIES_PER_PAGE).contains(&cap) {
            return Err(err(format!(
                "--cap must be in 4..={}",
                rtree_pager::MAX_ENTRIES_PER_PAGE
            )));
        }
        let buffer: usize = args.flag_or("buffer", 100usize)?;
        if buffer == 0 {
            return Err(err("--buffer must be positive"));
        }
        let queries: usize = args.flag_or("queries", defaults.queries)?;
        if queries == 0 {
            return Err(err("--queries must be positive"));
        }
        let policy_name = args.flag("policy").unwrap_or("LRU").to_uppercase();
        Ok(Scenario {
            loader: args
                .flag("loader")
                .unwrap_or("HS")
                .parse()
                .map_err(CliError)?,
            cap,
            buffer,
            policy: policy_name.parse().map_err(CliError)?,
            policy_name,
            workload: parse_workload(args.flag("workload").unwrap_or(defaults.workload))?,
            seed: args.flag_or("seed", defaults.seed)?,
            queries,
        })
    }

    /// Bulk-loads `rects` with the chosen loader and capacity.
    pub fn tree(&self, rects: &[Rect]) -> RTree {
        self.loader.build(self.cap, rects)
    }

    /// A fresh instance of the chosen policy.
    pub fn new_policy(&self) -> Box<dyn ReplacementPolicy> {
        self.policy.build(self.seed)
    }
}
