//! In-memory span recorder for the traced pass.
//!
//! The wrappers in [`crate::timed`] and the closed-loop drivers record one
//! [`Span`] per call into a layer: name, start, end, the span that caused
//! it and the operation it belongs to. Spans stay in memory while the pass
//! runs and are written out (JSON lines) when it ends. The recorder is
//! always installed but *disabled* outside the traced pass, so every
//! end-to-end number comes from a run that took no span timestamps.

use std::cell::Cell;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Id of the enclosing span on the same thread; 0 when the call ran on
    /// a thread that had no open span (resolved by time containment later).
    pub parent: u32,
    /// Operation (or batch) the span belongs to; inherited from the
    /// enclosing span.
    pub op_id: u64,
    /// Operations the span serves: a batch execution serves `n` requests,
    /// and each of them waits for all of it.
    pub n: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// (open span id, its op id) on this thread.
    static CURRENT: Cell<(u32, u64)> = const { Cell::new((0, 0)) };
}

pub struct Recorder {
    epoch: Instant,
    enabled: AtomicBool,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span that starts a new operation (`op_id`) when
    /// `op_id` is `Some`, or inherits the enclosing span's operation.
    /// Pass-through when the recorder is disabled.
    pub fn span<R>(
        &self,
        name: &'static str,
        op_id: Option<u64>,
        n: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.enabled() {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (parent, parent_op) = CURRENT.get();
        let op_id = op_id.unwrap_or(parent_op);
        CURRENT.set((id, op_id));
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        CURRENT.set((parent, parent_op));
        self.spans
            .lock()
            .expect("no span is recorded while panicking")
            .push(Span {
                id,
                name,
                start_ns,
                end_ns,
                parent,
                op_id,
                n,
            });
        out
    }

    /// Takes every span recorded so far.
    pub fn drain(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("recorder mutex"))
    }
}

/// Writes spans as JSON lines: `name, start_ns, end_ns, parent, op_id`
/// (plus the span's own id and the number of operations it served).
pub fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut w = io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op_id\":{},\"n\":{}}}",
            s.id, s.name, s.start_ns, s.end_ns, s.parent, s.op_id, s.n
        )?;
    }
    w.flush()
}

/// Per-operation latency contributions of the engine layer and the layers
/// under it, from one traced pass. Every operation of a batch waits for the
/// whole batch, so a span serving `n` operations contributes `n × time`.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineBudget {
    /// Operations served by read executions.
    pub read_ops: u64,
    /// Operations served by write executions.
    pub write_ops: u64,
    /// Σ n × duration over read executions.
    pub read_exec_ns: u128,
    /// Σ n × duration over write executions.
    pub write_exec_ns: u128,
    /// Σ n × (time inside any execution covered by store spans).
    pub store_ns: u128,
    /// Σ n × (time covered by log spans and not by store spans).
    pub log_ns: u128,
}

impl EngineBudget {
    pub fn ops(&self) -> u64 {
        self.read_ops + self.write_ops
    }

    /// Σ n × self time: execution minus the part its child spans cover.
    pub fn self_ns(&self) -> u128 {
        self.read_exec_ns + self.write_exec_ns - self.store_ns - self.log_ns
    }
}

/// Length of the union of `intervals` (sorted in place by start).
fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut end) = (0u64, 0u64);
    for &(s, e) in intervals.iter() {
        let s = s.max(end);
        if e > s {
            total += e - s;
            end = e;
        }
    }
    total
}

pub const ENGINE_READ: &str = "engine.execute";
pub const ENGINE_WRITE: &str = "engine.execute_writes";

fn is_engine(name: &str) -> bool {
    name == ENGINE_READ || name == ENGINE_WRITE
}

fn is_store(name: &str) -> bool {
    name.starts_with("store.")
}

fn is_log(name: &str) -> bool {
    name.starts_with("wal.")
}

/// Splits every engine span into self / store / log time. A child is
/// attributed to the span it names as parent; a child recorded on a thread
/// with no open span (the engines fan work out over scoped threads) goes to
/// the latest-started engine span whose interval contains its start.
pub fn engine_budget(spans: &[Span]) -> EngineBudget {
    let mut engines: Vec<&Span> = spans.iter().filter(|s| is_engine(s.name)).collect();
    engines.sort_unstable_by_key(|s| s.start_ns);
    let index_of: std::collections::HashMap<u32, usize> =
        engines.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut store: Vec<Vec<(u64, u64)>> = vec![Vec::new(); engines.len()];
    let mut all: Vec<Vec<(u64, u64)>> = vec![Vec::new(); engines.len()];
    for child in spans.iter().filter(|s| is_store(s.name) || is_log(s.name)) {
        let slot = index_of.get(&child.parent).copied().or_else(|| {
            let upto = engines.partition_point(|e| e.start_ns <= child.start_ns);
            engines[..upto]
                .iter()
                .rposition(|e| e.end_ns >= child.start_ns)
        });
        let Some(i) = slot else { continue };
        let clipped = (
            child.start_ns.max(engines[i].start_ns),
            child.end_ns.min(engines[i].end_ns),
        );
        if clipped.1 > clipped.0 {
            all[i].push(clipped);
            if is_store(child.name) {
                store[i].push(clipped);
            }
        }
    }
    let mut b = EngineBudget::default();
    for (i, e) in engines.iter().enumerate() {
        let n = u128::from(e.n);
        let exec = u128::from(e.dur_ns()) * n;
        if e.name == ENGINE_READ {
            b.read_ops += u64::from(e.n);
            b.read_exec_ns += exec;
        } else {
            b.write_ops += u64::from(e.n);
            b.write_exec_ns += exec;
        }
        let store_len = union_len(&mut store[i]);
        let all_len = union_len(&mut all[i]);
        b.store_ns += u128::from(store_len) * n;
        b.log_ns += u128::from(all_len - store_len) * n;
    }
    b
}

/// `(count, total ns)` of the spans called `name`.
pub fn total_of(spans: &[Span], name: &str) -> (u64, u64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0), |(c, t), s| (c + 1, t + s.dur_ns()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, name: &'static str, start: u64, end: u64, parent: u32, n: u32) -> Span {
        Span {
            id,
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 0,
            n,
        }
    }

    #[test]
    fn budget_splits_a_batch_into_self_store_and_log() {
        let spans = [
            // A batch of 2 reads: 100 ns, of which two overlapping store
            // reads (on other threads, so parent 0) cover 30 ns.
            span(1, ENGINE_READ, 0, 100, 0, 2),
            span(2, "store.read", 10, 30, 0, 1),
            span(3, "store.read", 20, 40, 0, 1),
            // A write batch of 1: 50 ns with a 20 ns sync it names itself.
            span(4, ENGINE_WRITE, 200, 250, 0, 1),
            span(5, "wal.sync", 220, 240, 4, 1),
            // A store read outside any engine span is not attributed.
            span(6, "store.read", 300, 310, 0, 1),
        ];
        let b = engine_budget(&spans);
        assert_eq!((b.read_ops, b.write_ops), (2, 1));
        assert_eq!(b.read_exec_ns, 200);
        assert_eq!(b.write_exec_ns, 50);
        assert_eq!(b.store_ns, 60);
        assert_eq!(b.log_ns, 20);
        assert_eq!(b.self_ns(), 170);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = Recorder::new();
        assert_eq!(r.span("x", Some(1), 1, || 7), 7);
        assert!(r.drain().is_empty());
        r.set_enabled(true);
        r.span("outer", Some(9), 1, || r.span("inner", None, 1, || ()));
        let spans = r.drain();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.op_id, 9);
    }
}
