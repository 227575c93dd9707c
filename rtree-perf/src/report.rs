//! The metric registry (names and units, mirrored by `BENCHMARK.json`),
//! exact sample statistics, and the output lines.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("peak_rss_mb", "MB"),
    ("bytes_per_item", "B"),
];

/// Per-layer metrics every workload reports with `--trace 1`. A layer that
/// is not on a workload's path reads 0 there; those metrics carry per-op
/// units. Bare time units are kept for isolated probes, which are measured
/// the same way under every workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    // What the workload's untraced reference pass saw (counts and the
    // write-side latencies that only `served_mixed` has).
    ("page_reads_per_op", "1/op"),
    ("write_p50_us", "us/write"),
    ("write_p99_us", "us/write"),
    ("fsyncs_per_write", "1/write"),
    ("wal_bytes_per_write", "B/write"),
    ("results_per_op", "1/op"),
    // Set-up phases.
    ("index.bulk_load_s", "s"),
    ("page.image_write_s", "s"),
    // Traced pass: server side.
    ("server.handoff_us_per_op", "us/op"),
    ("batcher.queue_wait_us_mean", "us/op"),
    ("batcher.batch_size_mean", "count"),
    ("batcher.rejected", "count"),
    ("engine.execute_us_per_op", "us/op"),
    ("engine.self_us_per_op", "us/op"),
    ("engine.write_execute_us_per_write", "us/write"),
    ("exec.prefetch_reads_per_op", "1/op"),
    ("bufmgr.hit_ratio", "ratio"),
    ("bufmgr.evictions_per_op", "1/op"),
    ("store.read_us_per_op", "us/op"),
    ("store.reads_per_op", "1/op"),
    ("concurrent.latch_waits_per_write", "1/write"),
    ("wal.sync_us_per_write", "us/write"),
    ("wal.commit_batch_mean", "count"),
    ("core.model_reads_per_op", "1/op"),
    ("core.model_rel_err", "ratio"),
    ("budget.sum_us", "us/op"),
    ("budget.e2e_mean_us", "us/op"),
    ("budget.residual_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    // Probes: one public call each, on this run's image.
    ("wire.encode_request_ns", "ns"),
    ("wire.decode_request_ns", "ns"),
    ("wire.encode_response_ns", "ns"),
    ("wire.decode_response_ns", "ns"),
    ("wire.response_bytes_mean", "B"),
    ("server.stats_rtt_us", "us"),
    ("exec.us_per_query_b1", "us"),
    ("exec.us_per_query_b2", "us"),
    ("exec.us_per_query_b64", "us"),
    ("exec.pages_per_query_b1", "count"),
    ("exec.pages_per_query_b64", "count"),
    ("bufmgr.hit_ns", "ns"),
    ("bufmgr.miss_ns", "ns"),
    ("bufmgr.dirty_evict_ns", "ns"),
    ("store.read_rand_ns", "ns"),
    ("store.read_seq_ns", "ns"),
    ("store.write_ns", "ns"),
    ("page.decode_verified_ns_leaf", "ns"),
    ("page.decode_verified_ns_internal", "ns"),
    ("page.decode_trusted_ns_leaf", "ns"),
    ("page.decode_trusted_ns_internal", "ns"),
    ("page.crc_ns", "ns"),
    ("geom.intersect_ns_per_node_active", "ns"),
    ("geom.intersect_ns_per_node_scalar", "ns"),
    ("concurrent.insert_us", "us"),
    ("concurrent.delete_us", "us"),
    ("concurrent.checkpoint_ms", "ms"),
    ("concurrent.checkpoint_pages_per_write", "count"),
    ("mutate.insert_us", "us"),
    ("mutate.delete_us", "us"),
    ("mutate.page_writes_per_insert", "count"),
    ("wal.append_ns", "ns"),
    ("wal.sync_us", "us"),
    ("recovery.replay_ms", "ms"),
    ("recovery.ops_replayed", "count"),
];

/// `q`-quantile of an ascending slice: the smallest sample with at least
/// `q` of the samples at or below it.
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metrics are finite"));
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `(max − min) / median`: how far repeated measurements disagree.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let (lo, hi) = values
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    (hi - lo) / m
}

#[derive(Clone, Copy, Debug)]
pub struct Value {
    pub value: f64,
    /// Disagreement between the repeated measurements behind `value`.
    pub spread: f64,
    /// Samples (or repetitions) behind `value`; 0 when not a sample
    /// statistic.
    pub n: u64,
}

/// The metrics of one run, checked against a registry list.
pub struct Metrics {
    registry: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, Value>,
}

impl Metrics {
    pub fn new(registry: &'static [(&'static str, &'static str)]) -> Self {
        Metrics {
            registry,
            values: BTreeMap::new(),
        }
    }

    fn key(&self, name: &str) -> &'static str {
        self.registry
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"))
            .0
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.set_full(name, value, 0.0, 0);
    }

    pub fn set_full(&mut self, name: &str, value: f64, spread: f64, n: u64) {
        assert!(value.is_finite(), "metric {name} is not finite");
        let key = self.key(name);
        self.values.insert(key, Value { value, spread, n });
    }

    /// Median of repeated measurements, with their spread beside it.
    pub fn set_median(&mut self, name: &str, repeats: &[f64], n: u64) {
        self.set_full(name, median(repeats), spread(repeats), n);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values[name].value
    }

    fn in_order(&self) -> impl Iterator<Item = (&'static str, &'static str, Value)> + '_ {
        self.registry.iter().map(|&(name, unit)| {
            let v = self
                .values
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            (name, unit, *v)
        })
    }

    /// One `workload metric value unit spread=… n=…` line per metric.
    pub fn lines(&self, workload: &str) -> String {
        let mut out = String::new();
        for (name, unit, v) in self.in_order() {
            writeln!(
                out,
                "{workload} {name} {} {unit} spread={:.4} n={}",
                v.value, v.spread, v.n
            )
            .expect("string write");
        }
        out
    }

    /// The `metrics` object of the result line.
    pub fn json(&self) -> String {
        let fields: Vec<String> = self
            .in_order()
            .map(|(name, unit, v)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    v.value
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_exact_order_statistics() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[7], 0.99), 7.0);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
        assert!((spread(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} declared twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }
}
