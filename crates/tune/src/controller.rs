//! The decision loop: refit the model, find the knee, guard against
//! thrashing, actuate.

use crate::estimator::{WorkloadEstimate, WorkloadWindow};
use rtree_core::{BufferModel, TreeDescription};
use rtree_geom::Rect;
use std::fmt;
use std::io;
use std::sync::Mutex;

/// One buffer configuration: total pool frames plus pinned level count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Setting {
    /// Buffer pool capacity in frames.
    pub buffer: usize,
    /// Top levels pinned inside that capacity.
    pub pin_levels: usize,
}

impl fmt::Display for Setting {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} frames / pin {}", self.buffer, self.pin_levels)
    }
}

/// Controller tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ControllerConfig {
    /// Largest pool the controller may ask for (frames).
    pub buffer_budget: usize,
    /// Smallest pool it may shrink to (frames); also clamped up so a
    /// chosen pinning always leaves at least one unpinned frame.
    pub min_buffer: usize,
    /// Sliding-window length in queries.
    pub window: usize,
    /// Minimum windowed queries before any decision is made.
    pub min_samples: usize,
    /// Minimum ticks between actuations.
    pub min_interval: u64,
    /// Minimum *relative* predicted improvement (e.g. `0.05` = 5% fewer
    /// expected disk accesses) before an actuation is worth a cold cache.
    pub hysteresis: f64,
    /// Minimum *absolute* predicted improvement in expected disk accesses
    /// per query. Near-zero costs make any difference a huge relative
    /// improvement, so without this floor the controller would chase
    /// estimator noise (and every actuation cold-starts the unpinned
    /// cache).
    pub min_gain: f64,
    /// Knee tolerance: the controller picks the smallest buffer whose
    /// predicted cost is within this fraction of the full-budget cost, so
    /// it does not hold frames past the curve's knee.
    pub knee_tolerance: f64,
}

impl ControllerConfig {
    /// Defaults for a given frame budget.
    ///
    /// # Panics
    /// Panics if `buffer_budget` is 0.
    pub fn new(buffer_budget: usize) -> Self {
        assert!(buffer_budget > 0, "budget must hold at least one frame");
        ControllerConfig {
            buffer_budget,
            min_buffer: 1,
            window: 512,
            min_samples: 64,
            min_interval: 4,
            hysteresis: 0.05,
            min_gain: 0.02,
            knee_tolerance: 0.10,
        }
    }
}

/// One committed tuning decision.
#[derive(Clone, Debug)]
pub struct DecisionRecord {
    /// Controller tick at which the decision was taken.
    pub tick: u64,
    /// Configuration before.
    pub from: Setting,
    /// Configuration after.
    pub to: Setting,
    /// Model-predicted expected disk accesses per query under `to`.
    pub predicted: f64,
    /// Model-predicted expected disk accesses per query under `from`
    /// (same refit model — the improvement the decision banked on).
    pub predicted_before: f64,
    /// Whether the workload fit was uniform (vs data-driven).
    pub uniform_fit: bool,
    /// Chi-square statistic behind the fit.
    pub chi_square: f64,
}

impl fmt::Display for DecisionRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tick {}: {} -> {} (predicted ED {:.3} -> {:.3}, {} fit, chi2 {:.1})",
            self.tick,
            self.from,
            self.to,
            self.predicted_before,
            self.predicted,
            if self.uniform_fit {
                "uniform"
            } else {
                "data-driven"
            },
            self.chi_square,
        )
    }
}

struct ControlState {
    tick: u64,
    last_actuation: Option<u64>,
    current: Setting,
    decisions: Vec<DecisionRecord>,
}

/// The online tuner: accumulates the executed queries
/// ([`Controller::observe_query`]), and on every [`Controller::tick_with`]
/// refits the paper's [`BufferModel`] against the tree's real
/// [`TreeDescription`], picks the knee-point buffer size and
/// [`BufferModel::best_pinning`] depth, and actuates through the supplied
/// closure — subject to a hysteresis band and a minimum actuation interval
/// so it never thrashes.
pub struct Controller {
    desc: TreeDescription,
    cfg: ControllerConfig,
    window: Mutex<WorkloadWindow>,
    state: Mutex<ControlState>,
}

impl Controller {
    /// Creates a controller for the tree described by `desc`, currently
    /// running at `initial`.
    pub fn new(desc: TreeDescription, initial: Setting, cfg: ControllerConfig) -> Self {
        Controller {
            desc,
            window: Mutex::new(WorkloadWindow::new(cfg.window)),
            state: Mutex::new(ControlState {
                tick: 0,
                last_actuation: None,
                current: initial,
                decisions: Vec::new(),
            }),
            cfg,
        }
    }

    /// The configuration the controller believes is live.
    pub fn current(&self) -> Setting {
        self.lock_state().current
    }

    /// Records one executed query's rectangle in the workload window.
    /// Cheap and non-blocking beyond one short lock: it sits on the
    /// serving path.
    pub fn observe_query(&self, q: &Rect) {
        self.window
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .record_query(q);
    }

    /// Ticks observed so far.
    pub fn ticks(&self) -> u64 {
        self.lock_state().tick
    }

    /// Every decision committed so far, in order.
    pub fn decisions(&self) -> Vec<DecisionRecord> {
        self.lock_state().decisions.clone()
    }

    /// The latest workload fit, if the window has data.
    pub fn estimate(&self) -> Option<WorkloadEstimate> {
        self.window
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .estimate()
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, ControlState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The knee-point plan under `model`: the smallest buffer (within
    /// `[min_buffer, buffer_budget]`) whose best-pinned predicted cost is
    /// within `knee_tolerance` of the full budget's, plus that buffer's
    /// best pinning. The chosen pinning always fits strictly inside the
    /// chosen buffer ([`BufferModel::best_pinning`] guarantees it).
    pub fn plan(&self, model: &BufferModel) -> (Setting, f64) {
        let budget = self.cfg.buffer_budget;
        let floor = self.cfg.min_buffer.clamp(1, budget);
        let (_, ed_budget) = model.best_pinning(budget);
        let threshold = ed_budget * (1.0 + self.cfg.knee_tolerance) + 1e-9;
        // Predicted cost is non-increasing in the buffer size (any
        // pinning feasible at B is feasible at B+1 with more spare
        // frames), so the knee is found by binary search.
        let (mut lo, mut hi) = (floor, budget);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if model.best_pinning(mid).1 <= threshold {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let (pin, ed) = model.best_pinning(lo);
        (
            Setting {
                buffer: lo,
                pin_levels: pin,
            },
            ed,
        )
    }

    /// One controller tick. Refits the workload and either returns
    /// `Ok(None)` (not enough samples, already at the plan, improvement
    /// under the hysteresis band, or inside the minimum interval) or calls
    /// `apply` with the new [`Setting`] at the caller's safe point and
    /// records the committed decision.
    ///
    /// The caller supplies `apply` because only it knows how to quiesce
    /// its tree; the expected actuation is [`crate::actuate`]: unpin,
    /// resize, re-pin.
    ///
    /// # Errors
    /// Propagates `apply`'s error; the decision is not recorded and the
    /// controller still believes the previous configuration.
    pub fn tick_with<F>(&self, apply: F) -> io::Result<Option<DecisionRecord>>
    where
        F: FnOnce(Setting) -> io::Result<()>,
    {
        let estimate = {
            let w = self
                .window
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            w.estimate()
        };
        let mut state = self.lock_state();
        state.tick += 1;
        let Some(est) = estimate else {
            return Ok(None);
        };
        if est.samples < self.cfg.min_samples {
            return Ok(None);
        }
        let model = BufferModel::new(&self.desc, &est.workload);
        let (plan, ed_plan) = self.plan(&model);
        if plan == state.current {
            return Ok(None);
        }
        let cur = state.current;
        let ed_cur = model
            .expected_disk_accesses_pinned(cur.buffer, cur.pin_levels)
            .unwrap_or_else(|_| model.expected_disk_accesses(cur.buffer.max(1)));
        // Hysteresis: a move must buy a real predicted improvement, both
        // relative (the band) and absolute (`min_gain` — at near-zero
        // cost any noise is a huge relative improvement). A shrink at
        // zero cost buys no misses at all, so it must free a substantial
        // share of the frames (>=10%) to be worth the cold cache.
        let improvement = if ed_cur > 0.0 {
            (ed_cur - ed_plan) / ed_cur
        } else if plan.buffer + plan.buffer / 10 < cur.buffer {
            // Already at zero misses; shrinking well past the knee keeps
            // zero cost and frees memory.
            self.cfg.hysteresis + 1.0
        } else {
            0.0
        };
        if improvement <= self.cfg.hysteresis {
            return Ok(None);
        }
        if ed_cur > 0.0 && ed_cur - ed_plan < self.cfg.min_gain {
            return Ok(None);
        }
        if let Some(last) = state.last_actuation {
            if state.tick - last < self.cfg.min_interval {
                return Ok(None);
            }
        }
        apply(plan)?;
        let record = DecisionRecord {
            tick: state.tick,
            from: cur,
            to: plan,
            predicted: ed_plan,
            predicted_before: ed_cur,
            uniform_fit: est.uniform,
            chi_square: est.chi_square,
        };
        state.last_actuation = Some(state.tick);
        state.current = plan;
        state.decisions.push(record.clone());
        Ok(Some(record))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A three-level description with a hot top: 1 root, 4 internals, 64
    /// leaves, all covering the unit square evenly.
    fn desc() -> TreeDescription {
        let unit = Rect::new(0.0, 0.0, 1.0, 1.0);
        let leaves: Vec<Rect> = (0..64)
            .map(|i| {
                let x = (i % 8) as f64 / 8.0;
                let y = (i / 8) as f64 / 8.0;
                Rect::new(x, y, x + 0.125, y + 0.125)
            })
            .collect();
        let internals: Vec<Rect> = (0..4)
            .map(|i| {
                let x = (i % 2) as f64 / 2.0;
                let y = (i / 2) as f64 / 2.0;
                Rect::new(x, y, x + 0.5, y + 0.5)
            })
            .collect();
        TreeDescription::from_levels(vec![vec![unit], internals, leaves])
    }

    fn feed_uniform_from(c: &Controller, start: usize, n: usize) {
        for i in start..start + n {
            let cx = (i as f64 * 0.618_033_988) % 0.9;
            let cy = (i as f64 * 0.414_213_562) % 0.9;
            c.observe_query(&Rect::new(cx, cy, cx + 0.1, cy + 0.1));
        }
    }

    fn feed_uniform(c: &Controller, n: usize) {
        feed_uniform_from(c, 0, n);
    }

    #[test]
    fn no_decision_without_samples() {
        let c = Controller::new(
            desc(),
            Setting {
                buffer: 8,
                pin_levels: 0,
            },
            ControllerConfig::new(32),
        );
        assert!(c.tick_with(|_| Ok(())).unwrap().is_none());
        feed_uniform(&c, 10);
        assert!(
            c.tick_with(|_| Ok(())).unwrap().is_none(),
            "under min_samples"
        );
        assert_eq!(c.ticks(), 2);
    }

    #[test]
    fn converges_on_stationary_workload() {
        let c = Controller::new(
            desc(),
            Setting {
                buffer: 2,
                pin_levels: 0,
            },
            ControllerConfig::new(32),
        );
        feed_uniform(&c, 512);
        let mut applied = 0;
        let mut fed = 512;
        for _ in 0..50 {
            if c.tick_with(|_| Ok(())).unwrap().is_some() {
                applied += 1;
            }
            // Keep drawing from the *same* distribution (the sequence
            // continues — restarting it would pile mass on a few spots).
            feed_uniform_from(&c, fed, 16);
            fed += 16;
        }
        assert_eq!(
            applied,
            1,
            "stationary workload: one actuation, then quiescent; got {:#?}",
            c.decisions()
        );
        let d = &c.decisions()[0];
        assert_eq!(d.to, c.current());
        assert!(d.predicted < d.predicted_before);
    }

    #[test]
    fn apply_failure_leaves_state_unchanged() {
        let c = Controller::new(
            desc(),
            Setting {
                buffer: 2,
                pin_levels: 0,
            },
            ControllerConfig::new(32),
        );
        feed_uniform(&c, 512);
        let before = c.current();
        let err = c.tick_with(|_| Err(io::Error::other("nope"))).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Other);
        assert_eq!(c.current(), before);
        assert!(c.decisions().is_empty());
        // The next tick retries the same move.
        assert!(c.tick_with(|_| Ok(())).unwrap().is_some());
    }

    #[test]
    fn plan_respects_floor_and_budget() {
        let cfg = ControllerConfig {
            min_buffer: 6,
            ..ControllerConfig::new(32)
        };
        let c = Controller::new(
            desc(),
            Setting {
                buffer: 32,
                pin_levels: 0,
            },
            cfg,
        );
        feed_uniform(&c, 512);
        let est = c.estimate().unwrap();
        let model = BufferModel::new(&desc(), &est.workload);
        let (plan, _) = c.plan(&model);
        assert!(plan.buffer >= 6 && plan.buffer <= 32);
        assert!(model.pinned_pages(plan.pin_levels) < plan.buffer);
    }
}
