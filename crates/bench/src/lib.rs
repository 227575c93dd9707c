//! The experiment registry: every table and figure of the paper, plus the
//! extension experiments, as a value in [`EXPERIMENTS`].
//!
//! An experiment is a function of explicit [`Opts`] that appends what it
//! prints to a `String`; `rtrees bench <name> | all | list` is the runner:
//! ```text
//! rtrees bench fig6_buffer_sensitivity --quick
//! ```
//! The flags every experiment understands are the fields of [`Opts`]:
//! `--csv` (also write `results/*.csv`), `--json` (also write
//! `results/*.json`), `--quick` (shrink simulation sizes for smoke runs)
//! and `--miss-ns` (the macro-benchmark's miss latency).
//!
//! This module also provides the common pieces — standard data sets (fixed
//! seeds), the loader roster, table formatting — and [`measure`] holds the
//! measured loops the experiments share with the CLI subcommands.

mod engine;
mod extensions;
pub mod macrobench;
pub mod measure;
mod paper;

use rtree_datagen::{CfdLike, SyntheticPoint, SyntheticRegion, TigerLike};
use rtree_geom::Rect;
use rtree_index::{BulkLoader, RTree, TupleAtATime};
use rtree_sim::SimConfig;
use std::fmt::Write as _;
use std::path::Path;
use std::str::FromStr;

/// Appends one formatted line to an experiment's output.
macro_rules! say {
    ($out:expr, $($arg:tt)*) => {{
        use std::fmt::Write as _;
        let _ = writeln!($out, $($arg)*);
    }};
}
pub(crate) use say;

/// What an experiment is run with: the flags of `rtrees bench`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Opts {
    /// `--quick`: shrink data and simulation sizes for smoke runs.
    pub quick: bool,
    /// `--csv`: also write each table to `results/<slug>.csv`.
    pub csv: bool,
    /// `--json`: also write each table to `results/<slug>.json`.
    pub json: bool,
    /// `--miss-ns`: latency charged per demand miss by `macrobench`.
    pub miss_ns: f64,
}

impl Opts {
    /// The simulation every model-vs-simulation row runs at buffer size
    /// `buffer`: the fixed seed, and a batch shape reduced by `--quick`.
    pub fn simulation(&self, buffer: usize) -> SimConfig {
        let (batches, queries_per_batch) = if self.quick { (5, 5_000) } else { (20, 50_000) };
        SimConfig::new(buffer)
            .batches(batches, queries_per_batch)
            .seed(seeds::SIM)
    }
}

/// One experiment: a table/figure of the paper or an extension.
pub struct Experiment {
    /// Registry name (`rtrees bench <name>`).
    pub name: &'static str,
    /// One-line description shown by `rtrees bench list`.
    pub about: &'static str,
    /// Runs the experiment, appending its stdout text to the string. An
    /// `Err` is a failed gate (or an I/O error writing `results/`); what
    /// was appended before it is still the experiment's output.
    pub run: fn(&Opts, &mut String) -> Result<(), String>,
}

/// Builds the registry from `module::function => "about"` rows; an
/// experiment's name is its function's name, spelled once.
macro_rules! experiments {
    ($($module:ident :: $name:ident => $about:literal,)*) => {
        &[$(Experiment {
            name: stringify!($name),
            about: $about,
            run: $module::$name,
        }),*]
    };
}

/// Every experiment, in `rtrees bench all` order: the nineteen the old
/// `repro_all` driver ran (the paper's tables and figures, then the
/// extensions, in the order it ran them), then the eight it never listed.
pub const EXPERIMENTS: &[Experiment] = experiments! {
    paper::table1_validation => "Table 1: model vs LRU simulation, point queries",
    paper::table2_nodes_per_level => "Table 2: nodes per level of the pinning-study trees",
    paper::fig5_cfd_data => "Fig 5: CFD data set dumps and density summary",
    paper::fig6_buffer_sensitivity => "Fig 6: disk accesses vs buffer size, TAT/NX/HS crossover",
    paper::fig7_tiger_datadriven => "Fig 7: uniform vs data-driven queries, TIGER-like data",
    paper::fig8_cfd_datadriven => "Fig 8: uniform vs data-driven queries, CFD-like data",
    paper::fig9_datasize => "Fig 9: disk accesses vs data set size",
    paper::fig10_pinning_datasize => "Fig 10: pinning the top levels vs data size",
    paper::fig11_pinning => "Fig 11: when pinning pays off",
    extensions::validate_disk => "model vs trace simulation vs physical page reads",
    extensions::ablation_policies => "replacement policies against the LRU model",
    extensions::ablation_loaders => "all six loaders through the buffer model",
    extensions::ablation_splits => "split heuristics under buffering",
    extensions::update_quality => "a packed tree under delete/reinsert churn",
    engine::write_amplification => "physical page writes per insert vs buffer size",
    extensions::model_accuracy_sweep => "model error over data skew and buffer size",
    extensions::mixed_workloads => "point/region query mixtures, model vs simulation",
    engine::concurrent_scaling => "disk accesses/query under 1-8 client threads",
    extensions::nd_generalization => "the buffer model in 2-D, 3-D and 4-D",
    engine::batch_throughput => "batched execution: reads/query vs batch size",
    engine::concurrent_throughput => "sharded buffer pool throughput scaling",
    engine::chaos_soak => "deterministic fault-injection soak over a seed block (gate)",
    engine::simd_traversal => "SIMD traversal speedup on buffer-resident trees (gate)",
    engine::adaptive_buffer => "self-tuning controller vs every static pin depth (gate)",
    macrobench::macrobench => "effective OPS, {v3,v4} x policies x skews (gate)",
    engine::server_throughput => "server micro-batching and WAL group commit (gates)",
    extensions::describe_tree => "dump the TIGER-like HS tree's per-level MBR description",
};

/// Seeds: one per data set, fixed so every experiment sees the same data.
pub mod seeds {
    /// TIGER-like street map.
    pub const TIGER: u64 = 0x7169_e201;
    /// CFD-like mesh.
    pub const CFD: u64 = 0xcfd0_0737;
    /// Synthetic region data.
    pub const REGION: u64 = 0x5e91_0a01;
    /// Synthetic point data.
    pub const POINT: u64 = 0x901_717;
    /// Simulation RNG.
    pub const SIM: u64 = 0x51u64 << 32 | 0x1aab;
}

/// The TIGER-like data set at the paper's cardinality (53,145 rectangles).
pub fn tiger() -> Vec<Rect> {
    TigerLike::paper().generate(seeds::TIGER)
}

/// The CFD-like data set at the paper's cardinality (52,510 points).
pub fn cfd() -> Vec<Rect> {
    CfdLike::paper().generate(seeds::CFD)
}

/// The CFD-like Fig. 5 sample (5,088 points).
pub fn cfd_fig5() -> Vec<Rect> {
    CfdLike::fig5().generate(seeds::CFD)
}

/// Synthetic region data (§5.1) of a given size.
pub fn synthetic_region(n: usize) -> Vec<Rect> {
    SyntheticRegion::new(n).generate(seeds::REGION)
}

/// Synthetic point data (§5.1) of a given size.
pub fn synthetic_point(n: usize) -> Vec<Rect> {
    SyntheticPoint::new(n).generate(seeds::POINT)
}

/// The loading algorithms under study.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Loader {
    /// Tuple-at-a-time Guttman insertion, quadratic split (§2.2 TAT).
    Tat,
    /// Nearest-X packing (§2.2 NX).
    Nx,
    /// Hilbert-sort packing (§2.2 HS).
    Hs,
    /// Morton/Z-order packing (extension).
    Morton,
    /// Sort-tile-recursive packing (extension).
    Str,
    /// Full R*-tree insertion: R* split + forced reinsertion (extension).
    Rstar,
}

impl Loader {
    /// The paper's three loaders, in its reporting order.
    pub const PAPER: [Loader; 3] = [Loader::Tat, Loader::Nx, Loader::Hs];
    /// All six loaders.
    pub const ALL: [Loader; 6] = [
        Loader::Tat,
        Loader::Rstar,
        Loader::Nx,
        Loader::Hs,
        Loader::Morton,
        Loader::Str,
    ];

    /// Display name used in tables.
    pub fn name(self) -> &'static str {
        match self {
            Loader::Tat => "TAT",
            Loader::Nx => "NX",
            Loader::Hs => "HS",
            Loader::Morton => "MORTON",
            Loader::Str => "STR",
            Loader::Rstar => "R*",
        }
    }

    /// Builds a tree with node capacity `cap` — the one place a loader
    /// name reaches a loading algorithm.
    pub fn build(self, cap: usize, rects: &[Rect]) -> RTree {
        match self {
            Loader::Tat => TupleAtATime::quadratic(cap).load(rects),
            Loader::Nx => BulkLoader::nearest_x(cap).load(rects),
            Loader::Hs => BulkLoader::hilbert(cap).load(rects),
            Loader::Morton => BulkLoader::morton(cap).load(rects),
            Loader::Str => BulkLoader::str_pack(cap).load(rects),
            Loader::Rstar => TupleAtATime::rstar(cap).load(rects),
        }
    }
}

impl FromStr for Loader {
    type Err = String;

    /// Case-insensitive table name; `RSTAR` is accepted for `R*`.
    fn from_str(s: &str) -> Result<Self, String> {
        let upper = s.to_uppercase();
        Loader::ALL
            .into_iter()
            .find(|l| l.name() == upper || (upper == "RSTAR" && *l == Loader::Rstar))
            .ok_or_else(|| format!("unknown loader {upper:?}"))
    }
}

/// A printable/exportable result table.
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        writeln!(out, "== {} ==", self.title).expect("string write");
        let line = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, (c, w)) in cells.iter().zip(widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let pad = w - c.len();
                // Right-align numeric-looking cells, left-align labels.
                if c.chars()
                    .next()
                    .is_some_and(|ch| ch.is_ascii_digit() || ch == '-' || ch == '.')
                {
                    out.push_str(&" ".repeat(pad));
                    out.push_str(c);
                } else {
                    out.push_str(c);
                    out.push_str(&" ".repeat(pad));
                }
            }
            out.push('\n');
        };
        line(&self.headers, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(row, &widths, &mut out);
        }
        out
    }

    /// Renders CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        writeln!(out, "{}", self.headers.join(",")).expect("string write");
        for row in &self.rows {
            writeln!(out, "{}", row.join(",")).expect("string write");
        }
        out
    }

    /// Renders JSON: `{"title": ..., "rows": [{header: cell, ...}, ...]}`.
    /// Cells that parse as finite numbers are emitted unquoted so the file
    /// plots without post-processing; everything else is a string.
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => {
                        write!(out, "\\u{:04x}", c as u32).expect("string write")
                    }
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        }
        fn cell(s: &str) -> String {
            // JSON has no NaN/inf literals, and leading zeros ("007") or a
            // leading '+' are not valid JSON numbers — quote those.
            match s.parse::<f64>() {
                Ok(v)
                    if v.is_finite()
                        && !s.starts_with('+')
                        && s != "."
                        && !(s.len() > 1
                            && (s.starts_with('0') || s.starts_with("-0"))
                            && !s.contains('.')) =>
                {
                    s.to_string()
                }
                _ => esc(s),
            }
        }
        let mut out = String::new();
        writeln!(out, "{{").expect("string write");
        writeln!(out, "  \"title\": {},", esc(&self.title)).expect("string write");
        writeln!(out, "  \"rows\": [").expect("string write");
        for (i, row) in self.rows.iter().enumerate() {
            let fields: Vec<String> = self
                .headers
                .iter()
                .zip(row)
                .map(|(h, c)| format!("{}: {}", esc(h), cell(c)))
                .collect();
            let comma = if i + 1 < self.rows.len() { "," } else { "" };
            writeln!(out, "    {{{}}}{}", fields.join(", "), comma).expect("string write");
        }
        writeln!(out, "  ]").expect("string write");
        writeln!(out, "}}").expect("string write");
        out
    }

    /// Appends the rendered table to `out`; with [`Opts::csv`] /
    /// [`Opts::json`] also writes `results/<slug>.csv` /
    /// `results/<slug>.json`.
    ///
    /// # Errors
    /// A `results/` file could not be written.
    pub fn emit(&self, slug: &str, opts: &Opts, out: &mut String) -> Result<(), String> {
        say!(out, "{}", self.render());
        if opts.csv {
            let path = write_result(&format!("{slug}.csv"), &self.to_csv())?;
            say!(out, "[csv] wrote {path}");
        }
        if opts.json {
            let path = write_result(&format!("{slug}.json"), &self.to_json())?;
            say!(out, "[json] wrote {path}");
        }
        Ok(())
    }
}

/// Writes `results/<name>` (creating the directory) and returns its path.
pub(crate) fn write_result(name: &str, content: &str) -> Result<String, String> {
    let dir = Path::new("results");
    let path = dir.join(name);
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, content))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

/// Formats a float with 4 significant decimals.
pub fn f(v: f64) -> String {
    format!("{v:.4}")
}

/// Formats a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.2}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datasets_have_paper_cardinalities() {
        assert_eq!(tiger().len(), 53_145);
        assert_eq!(cfd_fig5().len(), 5_088);
        assert_eq!(synthetic_region(1_000).len(), 1_000);
        assert_eq!(synthetic_point(1_000).len(), 1_000);
    }

    #[test]
    fn loaders_build_valid_trees() {
        let rects = synthetic_region(600);
        for loader in Loader::ALL {
            let t = loader.build(10, &rects);
            t.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", loader.name()));
            assert_eq!(t.len(), 600);
        }
    }

    #[test]
    fn table_render_and_csv() {
        let mut t = Table::new("Demo", &["loader", "value"]);
        t.row(vec!["HS".into(), "1.25".into()]);
        let text = t.render();
        assert!(text.contains("== Demo =="));
        assert!(text.contains("HS"));
        let csv = t.to_csv();
        assert_eq!(csv, "loader,value\nHS,1.25\n");
    }

    #[test]
    fn table_json_types_cells() {
        let mut t = Table::new("Demo \"quoted\"", &["loader", "qps", "note"]);
        t.row(vec!["HS".into(), "1.25".into(), "line\nbreak".into()]);
        t.row(vec!["NX".into(), "300".into(), "007".into()]);
        let json = t.to_json();
        assert!(json.contains("\"title\": \"Demo \\\"quoted\\\"\""));
        assert!(json.contains("\"qps\": 1.25"));
        assert!(json.contains("\"qps\": 300"));
        assert!(json.contains("\"loader\": \"HS\""));
        // Leading-zero and control-character cells stay quoted strings.
        assert!(json.contains("\"note\": \"007\""));
        assert!(json.contains("\"note\": \"line\\nbreak\""));
    }

    #[test]
    #[should_panic]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }
}
