//! Library backing the `rtrees` command-line tool.
//!
//! The paper's hybrid workflow as shell commands:
//!
//! ```text
//! rtrees generate region:20000 --seed 7 --out data.csv
//! rtrees build data.csv --loader HS --cap 100 --out tree.desc
//! rtrees model tree.desc --workload region:0.1:0.1 --buffers 10,50,200
//! rtrees simulate tree.desc --workload region:0.1:0.1 --buffer 50 --queries 200000
//! ```
//!
//! Every command is a function from arguments + input files to an output
//! string, so the whole tool is unit-testable without spawning processes;
//! `rtrees bench <name>` runs the experiments of the `rtree-bench`
//! registry (and prints each one's output as it finishes).

mod args;
mod commands;

pub use args::{Args, CliError};
pub use commands::run;

/// Usage text printed on `--help` or argument errors.
pub const USAGE: &str = "\
rtrees — buffered R-tree cost modelling (Leutenegger & López, ICDE 1998)

USAGE:
  rtrees generate <SPEC> [--seed N] [--out FILE]
      SPEC: tiger | cfd | region:<N> | point:<N> | clustered:<N>:<K>:<SIGMA>
      Writes an x0,y0,x1,y1 CSV data set (stdout without --out).

  rtrees build <DATA.csv> [--loader TAT|NX|HS|MORTON|STR|RSTAR] [--cap N] [--out FILE]
      Builds an R-tree (default HS, cap 100) and writes its per-level MBR
      description (`level x0 y0 x1 y1`, level 0 = root).

  rtrees model <TREE.desc> [--workload W] [--buffers B1,B2,...] [--pin P]
      Predicts expected disk accesses per query for each buffer size.
      W: point | region:<QX>:<QY> | data:<QX>:<QY>:<DATA.csv>  (default point)

  rtrees simulate <TREE.desc> [--workload W] [--buffer B] [--queries N]
                  [--policy LRU|LRU2|FIFO|CLOCK|RANDOM] [--seed N]
      Runs the paper's flat LRU simulation over the description.

  rtrees tune <TREE.desc> [--workload W] [--buffers B1,B2,...] [--queries N]
              [--budget B] [--seed N]
      Predicted-vs-measured curves: for each buffer size, the model's
      warm-up point N* (or a typed \"never fills\" note), predicted disk
      accesses/query (eq. 6), the measured steady-state rate from the
      flat LRU simulation, and their relative error — then the knee-point
      plan the online controller would pick within --budget (default: the
      largest buffer listed).

  rtrees update <DATA.csv> [--cap N] [--buffer B] [--policy LRU|LRU2|FIFO|CLOCK|RANDOM]
                [--deletes F] [--checkpoint N] [--seed N]
      Replays the data set as a write workload (inserts, then deletes a
      fraction F) through the WAL-attached disk tree and reports physical
      reads/writes per operation — the write-amplification counterpart of
      the read-cost experiments.

  rtrees batch <DATA.csv> [--loader L] [--cap N] [--buffer B] [--queries N]
               [--workload W] [--policy LRU|LRU2|FIFO|CLOCK|RANDOM] [--seed N]
               [--window W] [--sizes S1,S2,...] [--json]
      Answers the same query stream from a cold tree at each batch size
      (default 1,4,16,64,256,1024) through the batched executor — page
      dedup, PageId-sorted level-synchronous traversal, readahead window W
      (default 8, 0 disables) — and reports the physical reads/query curve,
      pool hit ratio, the fraction of page requests dedup removed, and the
      prefetched-page count. --json emits the table as JSON.

  rtrees concurrent <DATA.csv> [--loader L] [--cap N] [--buffer B] [--threads T]
                    [--shards S] [--pin P] [--queries N] [--workload W]
                    [--policy LRU|LRU2|FIFO|CLOCK|RANDOM] [--seed N]
      Builds the tree, then serves the query workload from T threads over
      the sharded concurrent buffer pool (S latch shards; 0 = one per
      hardware thread, 1 = the paper's sequential accounting) and reports
      throughput, physical reads per query, and the pool hit ratio.

  rtrees trace <DATA.csv> [--loader L] [--cap N] [--buffer B] [--threads T]
               [--shards S] [--pin P] [--queries N] [--workload W]
               [--policy LRU|LRU2|FIFO|CLOCK|RANDOM] [--seed N] [--json | --prom]
      Runs the query workload with the I/O trace layer attached and prints
      the measured per-level hit-ratio table (root = level 0), totals,
      p50/p99 query latency, and whether the event stream reconciles
      exactly with the I/O counters. --json emits the table as JSON;
      --prom emits Prometheus-style text metrics instead.

  rtrees chaos [--seed N | --seeds A..B] [--ops K] [--plant]
      Deterministic simulation test: the seed generates a tree/buffer
      configuration, a fault schedule (crashes, torn writes, read faults),
      a mixed workload, and a thread-interleaving schedule, then replays
      them against differential, durability and accounting oracles. On
      failure the run shrinks to a minimal `--seed N --ops K` replay line.
      --plant injects a known bug (harness self-test).

  rtrees macrobench <DATA.csv> [--loader L] [--cap N] [--frames F] [--ops K]
               [--qx X] [--qy Y] [--skew uniform|zipf[:THETA]|shifting]
               [--mix read-mostly|read-only] [--policy P] [--miss-ns NS]
               [--seed N] [--record FILE] [--replay FILE] [--json]
      Replays one deterministic trace (Zipf-skewed, read/write mixed)
      against the page-format-v3 and compressed-v4 images of the same tree
      at an equal frame budget, reporting hit rate, demand reads/op, the
      buffer model's predicted reads/query, latency quantiles, and
      effective OPS (misses charged --miss-ns, default ~1.9 us). --record
      saves the generated trace; --replay re-runs a recorded one
      byte-identically (overriding --ops/--seed).

  rtrees bench <NAME>|all|list [--quick] [--csv] [--json] [--miss-ns NS]
      Runs an experiment of the registry: every table and figure of the
      paper plus the extension experiments. `list` names them; `all` runs
      them in paper order and exits non-zero if any experiment's gate
      failed. --quick shrinks sizes for smoke runs; --csv / --json also
      write each table under results/; --miss-ns is the miss latency the
      macrobench experiment charges (default ~1.9 us).

  rtrees serve <DATA.csv> [--addr HOST:PORT] [--port-file FILE] [--duration S]
               [--engine seq|sharded] [--shards S] [--loader L] [--cap N]
               [--buffer B] [--policy LRU|LRU2|FIFO|CLOCK|RANDOM] [--seed N]
               [--batch N] [--wait-us U] [--queue N] [--workers N] [--window W]
               [--adaptive] [--tune-interval MS] [--budget B]
      Builds the tree and serves it over framed TCP (default 127.0.0.1:0 =
      ephemeral; --port-file publishes the bound address). Queries funnel
      into the micro-batching scheduler: a batch closes at N queries
      (default 64) or after U microseconds (default 500), whichever comes
      first, and runs through the batched executor with readahead window W.
      Runs until a Shutdown frame arrives (or --duration seconds), drains,
      and prints queries/batches, reads per query, queue-wait quantiles,
      and whether the batcher, I/O ledger and trace counters reconcile.
      --adaptive runs the self-tuning controller (engines seq|sharded): a
      background tick every MS milliseconds (default 250) re-estimates the
      workload from served queries, refits the buffer model, and resizes /
      re-pins the pool within --budget frames (default --buffer); the
      tuning decisions are listed in the exit summary.

  rtrees loadgen <HOST:PORT> [--connections C] [--queries N] [--qps Q]
                 [--workload W] [--zipf THETA] [--count-fraction F] [--seed N]
                 [--shutdown] [--quick] [--json]
      Open-loop load generator: C connections offer N queries total at a
      target aggregate rate Q (0 = closed loop), a fraction F as count
      queries. Latency is charged from each query's scheduled send time,
      so coordinated omission is not hidden. Reports sent/ok/overloaded/
      errors, p50/p99/p999/mean latency, and server demand reads per query
      (from the server's stats delta). --zipf skews a data-driven workload
      by rank (Zipf exponent THETA: hot centers draw most queries).
      --shutdown stops the server after the run; --quick is a 200-query
      smoke preset.

Common: --help prints this text.
";
