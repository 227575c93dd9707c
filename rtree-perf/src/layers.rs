//! The traced mode (`--trace 1`): where one operation's time goes.

use crate::harness::{Bench, Limit};
use crate::report::{quantile, Metrics, PER_LAYER};
use crate::setup::Env;
use crate::span::{self, engine_budget, total_of};
use crate::{model, out_dir, probes, Run};
use std::io;

/// The traced mode: an untraced reference pass and a traced pass of the
/// same fixed operation count (so count metrics repeat exactly for a
/// seed), then the isolated probes and the analytic model.
pub fn measure(run: &Run, env: &Env, mut bench: Box<dyn Bench>) -> io::Result<(u64, u64, Metrics)> {
    let (rec, pass_ops) = (&run.rec, run.pass_ops);
    let mut m = Metrics::new(PER_LAYER);
    let frames = bench.frames();

    let before = bench.counters();
    let mut reference = bench.pass(Limit::Ops(pass_ops));
    let mid = bench.counters();
    rec.drain();
    rec.set_enabled(true);
    let traced = bench.pass(Limit::Ops(pass_ops));
    rec.set_enabled(false);
    let after = bench.counters();
    let spans = rec.drain();
    std::fs::create_dir_all(out_dir())?;
    span::write_jsonl(
        &out_dir().join(format!("{}.trace.jsonl", run.workload.name)),
        &spans,
    )?;

    // What the untraced reference pass saw.
    reference.sort();
    let r = mid.since(&before);
    let per = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    m.set("page_reads_per_op", per(r.reads, reference.ops));
    let writes = reference.write_ns.len() as u64;
    m.set_full(
        "write_p50_us",
        quantile(&reference.write_ns, 0.5) / 1e3,
        0.0,
        writes,
    );
    m.set_full(
        "write_p99_us",
        quantile(&reference.write_ns, 0.99) / 1e3,
        0.0,
        writes,
    );
    m.set("fsyncs_per_write", per(r.fsyncs, writes));
    m.set("wal_bytes_per_write", per(r.wal_bytes, writes));
    m.set(
        "results_per_op",
        per(reference.results, reference.read_ns.len() as u64),
    );
    m.set("index.bulk_load_s", env.bulk_load_s);
    m.set("page.image_write_s", env.image_write_s);

    // The traced pass: counters and spans.
    let t = after.since(&mid);
    let ops = traced.ops;
    let traced_writes = traced.write_ns.len() as u64;
    m.set(
        "batcher.queue_wait_us_mean",
        per(t.queue_wait_us, t.batched_jobs),
    );
    m.set("batcher.batch_size_mean", per(t.batched_jobs, t.batches));
    m.set("batcher.rejected", t.rejected as f64);
    m.set("exec.prefetch_reads_per_op", per(t.prefetch_reads, ops));
    m.set("bufmgr.hit_ratio", per(t.hits, t.accesses));
    m.set(
        "bufmgr.evictions_per_op",
        per(after.evictions_since(&mid, frames), ops),
    );
    m.set(
        "concurrent.latch_waits_per_write",
        per(t.latch_waits, traced_writes),
    );
    m.set(
        "wal.commit_batch_mean",
        per(t.committed_ops, t.commit_batches),
    );
    let (store_reads, _) = total_of(&spans, "store.read");
    m.set("store.reads_per_op", per(store_reads, ops));
    let (_, sync_ns) = total_of(&spans, "wal.sync");
    m.set(
        "wal.sync_us_per_write",
        sync_ns as f64 / 1e3 / traced_writes.max(1) as f64,
    );

    // Means add, percentiles do not: the budget reconciles on means.
    let b = engine_budget(&spans);
    let us_per = |ns: u128, n: u64| ns as f64 / 1e3 / n.max(1) as f64;
    let execute_us = us_per(b.read_exec_ns + b.write_exec_ns, b.ops());
    let store_us = us_per(b.store_ns, b.ops());
    m.set("engine.execute_us_per_op", execute_us);
    m.set("engine.self_us_per_op", us_per(b.self_ns(), b.ops()));
    m.set(
        "engine.write_execute_us_per_write",
        us_per(b.write_exec_ns, b.write_ops),
    );
    m.set("store.read_us_per_op", store_us);
    let queue_us = m.get("batcher.queue_wait_us_mean");
    let served = t.batches > 0;
    let e2e_mean_us = if served {
        traced.mean_latency_us()
    } else {
        traced.elapsed_ns as f64 / 1e3 / ops.max(1) as f64
    };
    m.set(
        "server.handoff_us_per_op",
        if served {
            e2e_mean_us - queue_us - execute_us
        } else {
            0.0
        },
    );
    m.set(
        "trace.overhead_frac",
        1.0 - traced.ops_per_s() / reference.ops_per_s(),
    );

    let messages = bench.messages();
    let modelled = bench.modelled();
    let stream = bench.model_stream();
    let closing = bench.close();
    let failed = reference.failed + traced.failed + closing.lost;

    probes::run(run, env, &messages, &mut m)?;

    // The budget: every directly measured layer mean of one operation. On
    // the served workloads the connection's share is the `Stats` round
    // trip probe; what is left is the hand-off the spans cannot see.
    let handoff_probe_us = if served {
        m.get("server.stats_rtt_us")
    } else {
        0.0
    };
    let sum_us = handoff_probe_us + queue_us + execute_us;
    m.set("budget.sum_us", sum_us);
    m.set("budget.e2e_mean_us", e2e_mean_us);
    m.set("budget.residual_frac", (e2e_mean_us - sum_us) / e2e_mean_us);

    let predicted = model::reads_per_op(env, &stream, frames)?;
    let (model_ops, model_reads) = modelled.unwrap_or((ops, t.reads));
    let measured = per(model_reads, model_ops);
    m.set("core.model_reads_per_op", predicted);
    m.set(
        "core.model_rel_err",
        if measured > 0.0 {
            (predicted - measured) / measured
        } else {
            0.0
        },
    );
    Ok((reference.ops + traced.ops, failed, m))
}
