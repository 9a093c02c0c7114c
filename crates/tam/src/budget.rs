//! Optimization budgets and graceful degradation.
//!
//! `TAM_Optimization` (Algorithm 2) is a chain of greedy improvement
//! loops — merge rounds, core reshuffles, wire rebalances — each of
//! which is *optional* for correctness: stopping early yields a valid
//! (merely less optimized) architecture. [`OptimizerBudget`] bounds the
//! work; when the budget runs out the optimizer stops improving,
//! finishes any feasibility-mandatory steps with cheap fallbacks, and
//! returns the best architecture found so far, flagged
//! [`degraded`](crate::OptimizedArchitecture::degraded).
//!
//! An iteration is one improvement round: one merge-loop pass, one
//! reshuffle pass, one rebalance pass or one wire-distribution step.
//! `max_iterations` is deterministic (same cut-off point on every run);
//! `deadline` is wall-clock and therefore machine-dependent — use it
//! for latency guarantees, not reproducibility. *Speculative* candidate
//! probes (costing a move that may not be committed) only read the
//! budget and never tick it, so the committed-move sequence — and the
//! result of an iteration-bounded run — is independent of the worker
//! count.

// The wall-clock deadline is the documented opt-in degradation escape
// hatch; iteration budgets stay deterministic.
#![allow(clippy::disallowed_methods)]

// soctam-analyze: allow-file(DET-10) -- Instant::now only evaluates when a deadline is configured; golden and CI runs never set one, so no clock value can reach a fingerprint or golden
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use soctam_exec::{CancelToken, Progress};

/// Work limits for a TAM optimization run. The default is unlimited.
///
/// # Example
///
/// ```
/// use std::time::Duration;
/// use soctam_tam::OptimizerBudget;
///
/// let budget = OptimizerBudget::default()
///     .with_deadline(Duration::from_millis(50))
///     .with_max_iterations(10_000);
/// assert!(!budget.is_unlimited());
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OptimizerBudget {
    /// Wall-clock limit for the whole run (including every restart of a
    /// multi-start optimization). `None` means no deadline.
    pub deadline: Option<Duration>,
    /// Maximum number of improvement iterations across the run. `None`
    /// means no limit.
    pub max_iterations: Option<u64>,
}

impl OptimizerBudget {
    /// An unlimited budget (same as `Default`).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Sets the wall-clock deadline (builder style).
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the iteration limit (builder style).
    #[must_use]
    pub fn with_max_iterations(mut self, max_iterations: u64) -> Self {
        self.max_iterations = Some(max_iterations);
        self
    }

    /// True when neither limit is set.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_iterations.is_none()
    }
}

/// Run-scoped budget bookkeeping, shared (by reference) across merge
/// loops, multi-start restarts and the parallel candidate sweeps.
/// Thread-safe: the counters are relaxed atomics, and the `exhausted`
/// flag is sticky — once the budget trips, every later check is an
/// immediate `false`.
#[derive(Debug)]
pub(crate) struct BudgetTracker {
    deadline: Option<Instant>,
    max_iterations: Option<u64>,
    iterations: AtomicU64,
    exhausted: AtomicBool,
    /// Cooperative cancellation: treated exactly like an exhausted
    /// budget — sticky, degrades to best-so-far.
    cancel: Option<CancelToken>,
    /// Optional sink receiving one `count_iteration` per tick, so job
    /// status can report checkpoint progress. Advisory only.
    progress: Option<Arc<Progress>>,
}

impl BudgetTracker {
    /// Starts tracking `budget`, anchoring the deadline at *now*.
    /// Production callers go through `start_with`; tests use this
    /// shorthand when neither cancellation nor progress matters.
    #[cfg(test)]
    pub(crate) fn start(budget: OptimizerBudget) -> Self {
        Self::start_with(budget, None, None)
    }

    /// Starts tracking `budget` with an optional cancellation token and
    /// an optional progress sink counting committed iterations.
    pub(crate) fn start_with(
        budget: OptimizerBudget,
        cancel: Option<CancelToken>,
        progress: Option<Arc<Progress>>,
    ) -> Self {
        BudgetTracker {
            deadline: budget.deadline.map(|d| Instant::now() + d),
            max_iterations: budget.max_iterations,
            iterations: AtomicU64::new(0),
            exhausted: AtomicBool::new(false),
            cancel,
            progress,
        }
    }

    fn unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_iterations.is_none() && self.cancel.is_none()
    }

    /// True when a cancellation request arrived; latches `exhausted` so
    /// the run degrades exactly like a tripped budget.
    fn cancelled(&self) -> bool {
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            self.exhausted.store(true, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// Records one improvement iteration and reports whether the run is
    /// still within budget. Free (no atomics, no clock read) when the
    /// budget is unlimited and nothing can cancel it.
    pub(crate) fn tick(&self) -> bool {
        if let Some(p) = &self.progress {
            p.count_iteration();
        }
        if self.unlimited() {
            return true;
        }
        if self.exhausted.load(Ordering::Relaxed) {
            return false;
        }
        if self.cancelled() {
            return false;
        }
        let n = self.iterations.fetch_add(1, Ordering::Relaxed) + 1;
        if self.max_iterations.is_some_and(|max| n > max)
            || self.deadline.is_some_and(|dl| Instant::now() >= dl)
        {
            self.exhausted.store(true, Ordering::Relaxed);
            return false;
        }
        true
    }

    /// Whether the run is still within budget, without counting an
    /// iteration. Used inside candidate sweeps to cut short speculative
    /// work once the budget trips.
    pub(crate) fn within(&self) -> bool {
        if self.unlimited() {
            return true;
        }
        if self.exhausted.load(Ordering::Relaxed) {
            return false;
        }
        if self.cancelled() {
            return false;
        }
        if self.deadline.is_some_and(|dl| Instant::now() >= dl) {
            self.exhausted.store(true, Ordering::Relaxed);
            return false;
        }
        true
    }

    /// True when any limit tripped during the run — the result should
    /// be flagged as degraded.
    pub(crate) fn exhausted(&self) -> bool {
        self.exhausted.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let tracker = BudgetTracker::start(OptimizerBudget::unlimited());
        for _ in 0..10_000 {
            assert!(tracker.tick());
        }
        assert!(tracker.within());
        assert!(!tracker.exhausted());
    }

    #[test]
    fn iteration_limit_is_deterministic_and_sticky() {
        let budget = OptimizerBudget::default().with_max_iterations(3);
        let tracker = BudgetTracker::start(budget);
        assert!(tracker.tick());
        assert!(tracker.tick());
        assert!(tracker.tick());
        assert!(!tracker.tick());
        assert!(!tracker.tick());
        assert!(!tracker.within());
        assert!(tracker.exhausted());
    }

    #[test]
    fn expired_deadline_trips_immediately() {
        let budget = OptimizerBudget::default().with_deadline(Duration::ZERO);
        let tracker = BudgetTracker::start(budget);
        assert!(!tracker.tick());
        assert!(tracker.exhausted());
    }

    #[test]
    fn cancellation_trips_like_an_exhausted_budget() {
        let token = CancelToken::new();
        let tracker =
            BudgetTracker::start_with(OptimizerBudget::unlimited(), Some(token.clone()), None);
        assert!(tracker.tick());
        assert!(tracker.within());
        assert!(!tracker.exhausted());
        token.cancel();
        assert!(!tracker.tick());
        assert!(!tracker.within());
        assert!(tracker.exhausted(), "cancel latches the degraded flag");
    }

    #[test]
    fn progress_sink_counts_ticks_even_when_unlimited() {
        let progress = Arc::new(Progress::new());
        let tracker = BudgetTracker::start_with(
            OptimizerBudget::unlimited(),
            None,
            Some(Arc::clone(&progress)),
        );
        assert!(tracker.tick());
        assert!(tracker.tick());
        assert_eq!(progress.iterations(), 2);
    }

    #[test]
    fn builder_flags_limits() {
        assert!(OptimizerBudget::unlimited().is_unlimited());
        assert!(!OptimizerBudget::default()
            .with_max_iterations(1)
            .is_unlimited());
        assert!(!OptimizerBudget::default()
            .with_deadline(Duration::from_secs(1))
            .is_unlimited());
    }
}
