//! `TAM_Optimization` — Algorithm 2 of the paper (Fig. 6), plus the
//! TR-Architect baseline as the [`Objective::InTestOnly`] special case.

use std::collections::BTreeSet;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use soctam_exec::{fault, fx_fingerprint128, CancelToken, FaultError, Pool, Progress};
use soctam_model::{CoreId, Soc};

use crate::budget::BudgetTracker;
use crate::{
    DeltaCost, EvalCache, Evaluation, Evaluator, OptimizerBudget, RailEval, SiGroupSpec, SwapState,
    TamError, TestRail, TestRailArchitecture,
};

/// What the optimizer minimizes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Objective {
    /// `T_soc = T_soc^in + T_soc^si` — the paper's `TAM_Optimization`.
    #[default]
    Total,
    /// `T_soc^in` only — the TR-Architect baseline. The SI tests are still
    /// *scheduled* on the resulting architecture when reporting the final
    /// evaluation (this is exactly how the paper computes `T_[8]`), they
    /// just do not steer the optimization.
    InTestOnly,
}

/// The result of a TAM optimization run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OptimizedArchitecture {
    architecture: TestRailArchitecture,
    evaluation: Evaluation,
    degraded: bool,
}

impl OptimizedArchitecture {
    /// The optimized TestRail architecture.
    pub fn architecture(&self) -> &TestRailArchitecture {
        &self.architecture
    }

    /// The full timing evaluation (always includes the SI schedule,
    /// regardless of the optimization objective).
    pub fn evaluation(&self) -> &Evaluation {
        &self.evaluation
    }

    /// True when the run hit its [`OptimizerBudget`] and returned the
    /// best-so-far architecture instead of a fully converged one. The
    /// architecture is still valid and feasible.
    pub fn degraded(&self) -> bool {
        self.degraded
    }
}

/// SI-aware TestRail architecture optimizer (Algorithm 2).
///
/// See the crate docs for an end-to-end example.
#[derive(Debug)]
pub struct TamOptimizer<'a> {
    evaluator: Evaluator<'a>,
    max_width: u32,
    objective: Objective,
    pool: Pool,
    probe_pool: Pool,
    budget: OptimizerBudget,
    shared_cache: Option<EvalCache>,
    progress: Option<Arc<Progress>>,
    cancel: Option<CancelToken>,
}

impl<'a> TamOptimizer<'a> {
    /// Creates an optimizer for `soc` with a TAM wire budget of
    /// `max_width` and the given compacted SI test groups.
    ///
    /// # Errors
    ///
    /// [`TamError::ZeroWidthBudget`] when `max_width == 0`;
    /// [`TamError::CoreOutOfRange`] for groups referencing unknown cores.
    pub fn new(soc: &'a Soc, max_width: u32, groups: Vec<SiGroupSpec>) -> Result<Self, TamError> {
        let pool = Pool::serial();
        let mut evaluator = Evaluator::new(soc, max_width, groups)?;
        evaluator.attach_metrics(pool.metrics());
        Ok(TamOptimizer {
            evaluator,
            max_width,
            objective: Objective::Total,
            pool,
            probe_pool: Pool::serial(),
            budget: OptimizerBudget::unlimited(),
            shared_cache: None,
            progress: None,
            cancel: None,
        })
    }

    /// Serves evaluation lookups from `cache`, a store shared across
    /// runs (and, in a service, across requests). Results are
    /// bit-identical with or without sharing; identical contexts get
    /// warm cross-run cache hits. Call after [`TamOptimizer::pool`] —
    /// attaching metrics leaves a shared store warm.
    pub fn eval_cache(mut self, cache: &EvalCache) -> Self {
        self.evaluator.attach_cache(cache);
        self.shared_cache = Some(cache.clone());
        self
    }

    /// Sets the optimization objective (builder style).
    pub fn objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Bounds the run's work (builder style). When the budget trips,
    /// the optimizer stops improving and returns the best valid
    /// architecture found so far, flagged
    /// [`OptimizedArchitecture::degraded`].
    pub fn budget(mut self, budget: OptimizerBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Runs candidate evaluations on `pool` (builder style). The result
    /// is identical for every pool size: candidates are evaluated
    /// speculatively in parallel but reduced in the serial visit order.
    /// Cache hits and misses are counted into the pool's metrics.
    pub fn pool(mut self, pool: Pool) -> Self {
        self.evaluator.attach_metrics(pool.metrics());
        self.pool = pool;
        self
    }

    /// Runs speculative candidate probes of the four move loops on
    /// `pool` (builder style). Probes are reduced in candidate order on
    /// the calling thread, so — like [`TamOptimizer::pool`] — the
    /// result is bit-identical for every probe-pool size.
    pub fn probe_pool(mut self, pool: Pool) -> Self {
        self.probe_pool = pool;
        self
    }

    /// Publishes phase, probe-count and best-objective progress into
    /// `progress` (builder style) for a live display such as the CLI
    /// `--progress` ticker. Purely advisory; never affects results.
    pub fn progress(mut self, progress: Arc<Progress>) -> Self {
        self.progress = Some(progress);
        self
    }

    /// Observes `cancel` at every budget checkpoint (builder style).
    /// Once the token trips the run stops improving and returns its
    /// best-so-far architecture flagged
    /// [`OptimizedArchitecture::degraded`] — the same graceful path an
    /// exhausted budget takes, never an error.
    pub fn cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// The evaluator (exposes the SOC, groups and time table).
    pub fn evaluator(&self) -> &Evaluator<'a> {
        &self.evaluator
    }

    fn soc(&self) -> &Soc {
        self.evaluator.soc()
    }

    // Invariant: every rails vector the optimizer builds keeps each core on
    // exactly one rail (checked in debug builds), so candidates evaluate
    // directly — no architecture construction per candidate.
    fn eval(&self, rails: &[TestRail]) -> Arc<Evaluation> {
        debug_assert!(TestRailArchitecture::new(self.soc(), rails.to_vec()).is_ok());
        self.evaluator.evaluate_rails_cached(rails)
    }

    /// The optimization objective from an architecture's two makespans.
    fn cost_of(&self, t_in: u64, t_si: u64) -> u64 {
        match self.objective {
            Objective::Total => t_in.saturating_add(t_si),
            Objective::InTestOnly => t_in,
        }
    }

    fn cost(&self, rails: &[TestRail]) -> u64 {
        let eval = self.eval(rails);
        self.cost_of(eval.t_in, eval.t_si)
    }

    /// Publishes the current optimizer phase to the progress sink.
    fn set_phase(&self, phase: &str) {
        if let Some(p) = &self.progress {
            p.set_phase(phase);
        }
    }

    /// Publishes a best-so-far objective value to the progress sink.
    /// Only the total objective is published — the InTest-only
    /// portfolio leg's costs are not `T_soc` values and would read as
    /// spurious improvements.
    fn publish_best(&self, cost: u64) {
        if self.objective == Objective::Total {
            if let Some(p) = &self.progress {
                p.record_best(cost);
            }
        }
    }

    /// Speculatively evaluates one batch of move candidates, returning
    /// per-candidate results in candidate order so callers can reduce
    /// deterministically (first minimum wins) regardless of how the
    /// probes were scheduled.
    ///
    /// Probes run on the probe pool, except `nested` batches (probes
    /// issued from inside another speculative candidate, like the
    /// mergeTAMs wire redistribution), which stay on the calling worker.
    ///
    /// A probe yields `None` — and counts as wasted — instead of a
    /// result when the budget tripped before it ran, or when the
    /// `tam.probe` failpoint fired (`Err` *or* panic: a panicking probe
    /// is caught and poisoned, proving one lost speculation cannot
    /// change what the step selects — dropping a non-winning candidate
    /// never changes the first minimum, and a lost winner degrades to
    /// the serial no-move outcome). Panics from any other site unwind
    /// normally.
    fn probe<T, R, F>(
        &self,
        tracker: &BudgetTracker,
        nested: bool,
        candidates: &[T],
        f: F,
    ) -> Vec<Option<R>>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        if candidates.is_empty() {
            return Vec::new();
        }
        let metrics = self.pool.metrics();
        metrics.count_probe_batch();
        metrics.add_speculative_probes(candidates.len() as u64);
        if let Some(p) = &self.progress {
            p.add_probed(candidates.len() as u64);
        }
        let task = |cand: &T| -> Option<R> {
            if !tracker.within() {
                metrics.count_probe_wasted();
                return None;
            }
            if !fault::any_active() {
                // No failpoint configured anywhere: `tam.probe` cannot
                // fire, and a panic from `f` itself would be resumed
                // verbatim below — so skip the unwind guard and its
                // inlining barrier on the hot path.
                return Some(f(cand));
            }
            match panic::catch_unwind(AssertUnwindSafe(|| {
                fault::check("tam.probe").map(|()| f(cand))
            })) {
                Ok(Ok(result)) => Some(result),
                Ok(Err(_)) => {
                    metrics.count_probe_wasted();
                    None
                }
                Err(payload) => match payload.downcast::<FaultError>() {
                    Ok(fault) if fault.site() == "tam.probe" => {
                        metrics.count_probe_wasted();
                        None
                    }
                    Ok(fault) => panic::resume_unwind(fault),
                    Err(payload) => panic::resume_unwind(payload),
                },
            }
        };
        if nested {
            candidates.iter().map(task).collect()
        } else {
            self.probe_pool.par_map(candidates, task)
        }
    }

    /// `distributeFreeWires`: spends `wires` free TAM wires on the rails
    /// of `st`, favouring bottleneck rails (Section 4.2).
    ///
    /// A rail's time is a non-increasing *staircase* in width: adding one
    /// wire frequently changes nothing (the longest wrapper chain is fixed
    /// by a scan-chain plateau), so a one-wire-at-a-time greedy stalls and
    /// dumps the whole budget on one rail. Instead each step jumps a rail
    /// directly to one of its strict drop points — a width at which its
    /// utilized time falls below every smaller width — and picks the
    /// steepest descent: lowest resulting cost first, then the highest
    /// time reduction per wire spent, then fewest wires. Among
    /// every drop point of every rail (not just the nearest one — a tiny
    /// SI gain at +1 must not mask a large InTest cliff at +6), the
    /// `(rail, jump)` candidates are enumerated serially, probed as one
    /// speculative batch of [`Evaluator::swap_cost`]s, and reduced in
    /// enumeration order, so the first-best tie-break is identical at
    /// every probe-pool size. The winner is applied to `st` in place.
    ///
    /// `lanes[j]` describes live rail `j` of `st` (`None` for holes).
    /// Rails are swept in label order, so the caller's labelling fixes
    /// the tie-break; every component a step can need is prefetched in
    /// the lanes, keeping all cache traffic out of the probe batch.
    ///
    /// The two kinds of caller differ only in the budget check and the
    /// tail. A `commit`ted pass is one serial optimizer step: each
    /// accepted jump ticks the iteration budget. A speculative pass —
    /// costing or materializing a mergeTAMs candidate — only checks the
    /// budget (probes racing the shared counter from pool workers would
    /// make iteration-budgeted runs thread-count-dependent) and probes
    /// on the calling worker. With `park` set, leftover wires no jump
    /// can use are parked one at a time on bottleneck rails (they may
    /// enable future merges), fetching components through `park`; this
    /// is purely cosmetic for feasibility, so it stops once the budget
    /// trips. A cost-only pass skips it: parking only starts when no
    /// rail has a strict drop within the remaining budget, so each +1
    /// leaves that rail's `time_used` flat — and since the InTest and SI
    /// staircases are individually non-increasing, a flat sum pins both
    /// addends and every group column, and therefore every makespan.
    #[allow(clippy::expect_used)]
    fn distribute_free_wires(
        &self,
        st: &mut SwapState,
        lanes: &[Option<Lane<'_>>],
        wires: u32,
        tracker: &BudgetTracker,
        commit: bool,
        park: Option<&dyn Fn(usize, u32) -> Arc<RailEval>>,
    ) {
        let mut remaining = wires;
        // A lane that accepted wires gets its drop list rebuilt relative
        // to its new width (rates change); every other lane reads its
        // initial list, truncated to the live budget below. Rebuilt
        // lists only target widths of the initial list (see
        // `staircase_drops`), so their components are already there.
        let mut rebuilt: Vec<Option<Drops>> = vec![None; lanes.len()];
        let mut candidates: Vec<(usize, usize, u32, u128)> = Vec::new();
        while remaining > 0
            && if commit {
                tracker.tick()
            } else {
                tracker.within()
            }
        {
            let list_of = |j: usize| -> &[(u32, u128, Arc<RailEval>)] {
                match (&rebuilt[j], &lanes[j]) {
                    (Some(list), _) => list,
                    (None, Some(lane)) => lane.drops,
                    (None, None) => &[],
                }
            };
            candidates.clear();
            for j in 0..lanes.len() {
                let Some(current) = st.component(j).map(|c| c.width) else {
                    continue;
                };
                for (k, &(target, neg_rate, _)) in list_of(j).iter().enumerate() {
                    let d = target - current;
                    if d > remaining {
                        break;
                    }
                    candidates.push((j, k, d, neg_rate));
                }
            }
            let view: &SwapState = st;
            let costed = self.probe(tracker, !commit, &candidates, |&(j, k, _, _)| {
                let cost = self.evaluator.swap_cost(view, j, &list_of(j)[k].2);
                self.cost_of(cost.t_in, cost.t_si)
            });
            let mut best: Option<((u64, u128, u32), usize, usize)> = None;
            for (&(j, k, d, neg_rate), cost) in candidates.iter().zip(costed) {
                let Some(cost) = cost else { continue };
                let key = (cost, neg_rate, d);
                if best.map_or(true, |(b, _, _)| key < b) {
                    best = Some((key, j, k));
                }
            }
            // No affordable jump improves any rail.
            let Some(((_, _, d), j, k)) = best else { break };
            let (width, _, comp) = list_of(j)[k].clone();
            self.evaluator.swap_apply(st, &[(j, Some(comp))]);
            remaining -= d;
            let lane = lanes[j].as_ref().expect("only live lanes yield candidates");
            rebuilt[j] = Some(
                staircase_drops(lane.stairs, width, remaining)
                    .into_iter()
                    .map(|(target, neg_rate)| {
                        let at = lane
                            .drops
                            .binary_search_by_key(&target, |&(w, _, _)| w)
                            .expect("rebuilt lists target prefetched widths");
                        (target, neg_rate, Arc::clone(&lane.drops[at].2))
                    })
                    .collect(),
            );
        }
        let Some(park) = park else { return };
        while remaining > 0 && tracker.within() {
            let target = st
                .bottlenecks(self.objective == Objective::Total)
                .into_iter()
                .chain(0..st.len())
                .find(|&j| st.component(j).is_some_and(|c| c.width < self.max_width));
            let Some(j) = target else { break };
            let width = st.component(j).expect("found live").width.saturating_add(1);
            self.evaluator.swap_apply(st, &[(j, Some(park(j, width)))]);
            remaining -= 1;
        }
    }

    /// The strict drops of `rail` within `budget` wires of its width,
    /// each with its memoized component.
    fn lane_drops(&self, rail: &TestRail, stairs: &[u64], budget: u32) -> Drops {
        staircase_drops(stairs, rail.width(), budget)
            .into_iter()
            .map(|(w, neg_rate)| {
                (
                    w,
                    neg_rate,
                    self.evaluator.rail_eval_cached(w, rail.cores()),
                )
            })
            .collect()
    }

    /// The committed `distributeFreeWires` call of the start solution:
    /// spends `wires` on `rails` and returns them widened.
    // Invariant: widths only ever grow here, so `with_width` cannot see 0.
    #[allow(clippy::expect_used)]
    fn spread_free_wires(
        &self,
        rails: Vec<TestRail>,
        wires: u32,
        tracker: &BudgetTracker,
    ) -> Vec<TestRail> {
        let mut st = self.evaluator.swap_state(&self.eval(&rails));
        let stairs: Vec<Arc<Vec<u64>>> = rails
            .iter()
            .map(|r| self.evaluator.rail_used_staircase(r.cores()))
            .collect();
        let drops: Vec<Drops> = rails
            .iter()
            .zip(&stairs)
            .map(|(rail, stairs)| self.lane_drops(rail, stairs, wires))
            .collect();
        let lanes: Vec<Option<Lane<'_>>> = stairs
            .iter()
            .zip(&drops)
            .map(|(stairs, drops)| Some(Lane { stairs, drops }))
            .collect();
        let park = |j: usize, w: u32| self.evaluator.rail_eval_cached(w, rails[j].cores());
        self.distribute_free_wires(&mut st, &lanes, wires, tracker, true, Some(&park));
        rails
            .iter()
            .enumerate()
            .map(|(j, rail)| {
                let width = st.component(j).expect("no rail is removed").width;
                rail.with_width(width).expect("width > 0")
            })
            .collect()
    }

    /// `mergeTAMs`: merges `rails[r1]` with the partner and merged width
    /// that minimize the objective (redistributing freed wires), or keeps
    /// the architecture when no merge improves it. Returns the new rails
    /// and whether an improvement was found.
    // Invariant: merged widths are `max(w1, wi)..=w1+wi` of two rails whose
    // widths are >= 1, so `merged` cannot see a zero width.
    #[allow(clippy::expect_used)]
    fn merge_tams(
        &self,
        rails: Vec<TestRail>,
        r1: usize,
        tracker: &BudgetTracker,
    ) -> (Vec<TestRail>, bool) {
        fault::hit("tam.merge");
        if !tracker.within() {
            return (rails, false);
        }
        let current_eval = self.eval(&rails);
        let current = self.cost_of(current_eval.t_in, current_eval.t_si);
        let n = rails.len();
        // Every (partner, merged-width) candidate is independent:
        // probe them speculatively, then reduce sequentially in the
        // original visit order so the winning tie-break — first
        // strictly-better candidate — is identical for any pool size.
        let mut candidates: Vec<(usize, u32)> = Vec::new();
        for i in 0..n {
            if i == r1 {
                continue;
            }
            let w1 = rails[r1].width();
            let wi = rails[i].width();
            for w in w1.max(wi)..=(w1 + wi) {
                candidates.push((i, w));
            }
        }
        // Redistribution costs are memoized under a canonical
        // (rails, unordered pair, merged width, objective) key:
        // `merged` sorts its cores, so probing the pair from either
        // end builds the identical candidate.
        let rails_fp = fx_fingerprint128(&rails);
        let tag = match self.objective {
            Objective::Total => 0u8,
            Objective::InTestOnly => 1u8,
        };
        let w_lo = |i: usize| rails[r1].width().max(rails[i].width());
        let parent_stairs: Vec<Arc<Vec<u64>>> = rails
            .iter()
            .map(|r| self.evaluator.rail_used_staircase(r.cores()))
            .collect();
        // Per partner, the merged rail's staircase and its memoized
        // components at every candidate width `max(w1, wi)..=w1 + wi`
        // (redistribution can only grow the merged rail within that
        // same range), indexed by `width - max(w1, wi)`. Widths never
        // exceed the budget: the architecture always holds
        // `Σ widths <= max_width`, so `w1 + wi` is in range.
        let mut partners = vec![None; n];
        for &(i, _) in &candidates {
            if partners[i].is_some() {
                continue;
            }
            let w_hi = rails[r1].width().saturating_add(rails[i].width());
            let merged = rails[r1]
                .merged(&rails[i], w_lo(i))
                .expect("merged width >= 1");
            let stairs = self.evaluator.rail_used_staircase(merged.cores());
            let comps: Vec<Arc<RailEval>> = (w_lo(i)..=w_hi)
                .map(|w| self.evaluator.rail_eval_cached(w, merged.cores()))
                .collect();
            partners[i] = Some((stairs, comps));
        }
        // Every candidate shares the parent's reduction state and each
        // survivor's lane, bounded by the largest leftover any candidate
        // can free; a probe patches a clone of the state.
        let parent_state = self.evaluator.swap_state(&current_eval);
        let l_max = candidates
            .iter()
            .map(|&(i, w)| rails[r1].width().saturating_add(rails[i].width()) - w)
            .max()
            .unwrap_or(0);
        let parent_drops: Vec<Drops> = rails
            .iter()
            .zip(&parent_stairs)
            .map(|(rail, stairs)| self.lane_drops(rail, stairs, l_max))
            .collect();
        // The state of merging `r1` with partner `i` at width `w`, with
        // `leftover` freed wires redistributed: both partners leave
        // holes and the merged rail is appended at label `n`, so label
        // order is the order the candidate's rails materialize in
        // (survivors, then the merged rail).
        let merged_state = |i: usize,
                            w: u32,
                            leftover: u32,
                            park: Option<&dyn Fn(usize, u32) -> Arc<RailEval>>|
         -> SwapState {
            let (stairs, comps) = partners[i].as_ref().expect("prefetched per partner");
            let comp_at = |w: u32| Arc::clone(&comps[(w - w_lo(i)) as usize]);
            let mut st = parent_state.clone();
            self.evaluator
                .swap_apply(&mut st, &[(r1, None), (i, None), (n, Some(comp_at(w)))]);
            if leftover > 0 {
                let merged_drops: Drops = staircase_drops(stairs, w, leftover)
                    .into_iter()
                    .map(|(target, neg_rate)| (target, neg_rate, comp_at(target)))
                    .collect();
                let lanes: Vec<Option<Lane<'_>>> = (0..=n)
                    .map(|j| {
                        if j == n {
                            Some(Lane {
                                stairs,
                                drops: &merged_drops,
                            })
                        } else if j == r1 || j == i {
                            None
                        } else {
                            Some(Lane {
                                stairs: &parent_stairs[j],
                                drops: &parent_drops[j],
                            })
                        }
                    })
                    .collect();
                self.distribute_free_wires(&mut st, &lanes, leftover, tracker, false, park);
            }
            st
        };
        let costed = self.probe(tracker, false, &candidates, |&(i, w)| {
            let leftover = rails[r1].width().saturating_add(rails[i].width()) - w;
            // Admissible prune (Total objective only): groups sharing a
            // rail are serialized (SCH-V02), so `T_soc >= time_used(j)`
            // for every rail j of the final architecture, and the used
            // staircase is non-increasing in width — rail j ends at
            // width at most `w_j + leftover`, so its staircase value
            // there lower-bounds the candidate's cost no matter how the
            // freed wires are spread. A candidate whose bound already
            // meets the incumbent cost loses the `cost < current` gate
            // whatever its exact cost is, so `u64::MAX` stands in and
            // the reduction outcome is bit-identical — without paying
            // for the nested redistribution. The bound only involves
            // the candidate and `current`, so the prune is
            // deterministic at every pool size.
            if self.objective == Objective::Total {
                let at = |stairs: &[u64], w: u32| stairs[(w.min(self.max_width) - 1) as usize];
                let (merged_stairs, _) = partners[i].as_ref().expect("prefetched per partner");
                let mut lb = at(merged_stairs, w + leftover);
                for (j, rail) in rails.iter().enumerate() {
                    if j != r1 && j != i {
                        lb = lb.max(at(&parent_stairs[j], rail.width().saturating_add(leftover)));
                    }
                }
                if lb >= current {
                    return u64::MAX;
                }
            }
            let dist_fp = (leftover > 0)
                .then(|| fx_fingerprint128(&(rails_fp, r1.min(i), r1.max(i), w, tag)));
            if let Some(fp) = dist_fp {
                if let Some(cost) = self.evaluator.dist_cost_cached(fp) {
                    return cost;
                }
            }
            let st = merged_state(i, w, leftover, None);
            let cost = self.cost_of(st.t_in(), st.t_si());
            if let Some(fp) = dist_fp {
                if tracker.within() {
                    self.evaluator.store_dist_cost(fp, cost);
                }
            }
            cost
        });
        let mut best: Option<(usize, u64)> = None;
        for (idx, probed) in costed.into_iter().enumerate() {
            // Budget-tripped or faulted probes are poisoned to `None`;
            // skipping them is equivalent to an explicit `u64::MAX`
            // poison because the `cost < current` gate below rejects
            // those candidates anyway.
            let Some(cost) = probed else { continue };
            if best.map_or(true, |(_, b)| cost < b) {
                best = Some((idx, cost));
            }
        }
        match best {
            Some((idx, cost)) if cost < current => {
                // Rebuild the winner's state — deterministic: the
                // redistribution is a pure function of the candidate
                // while the budget holds, and budget ticks never advance
                // inside a probe batch — this time parking leftover
                // wires, and read its rails off the state.
                let (i, w) = candidates[idx];
                let leftover = rails[r1].width().saturating_add(rails[i].width()) - w;
                let merged = rails[r1].merged(&rails[i], w).expect("merged width >= 1");
                let rail_of = |j: usize| if j == n { &merged } else { &rails[j] };
                let park =
                    |j: usize, w: u32| self.evaluator.rail_eval_cached(w, rail_of(j).cores());
                let st = merged_state(i, w, leftover, Some(&park));
                let cand = (0..st.len())
                    .filter_map(|j| {
                        let comp = st.component(j)?;
                        Some(rail_of(j).with_width(comp.width).expect("width > 0"))
                    })
                    .collect();
                (cand, true)
            }
            _ => (rails, false),
        }
    }

    /// Wire rebalancing (a polish pass beyond the paper): funds a Pareto
    /// jump of a slow rail by taxing one wire at a time from the donors
    /// whose *marginal* slowdown is smallest, accepting the move only when
    /// `(T_soc, Σ time_used)` strictly improves. This recovers allocations
    /// the one-directional `distributeFreeWires` cannot reach (e.g. a
    /// starved many-scan-chain core behind a long width plateau).
    // Invariant: donors keep width >= 1 (filtered on `width > 1`) and the
    // funded rail only grows, so `with_width` cannot see 0.
    #[allow(clippy::expect_used)]
    fn rebalance_wires(&self, mut rails: Vec<TestRail>, tracker: &BudgetTracker) -> Vec<TestRail> {
        for _ in 0..1_000 {
            if !tracker.tick() {
                break;
            }
            let st = self.evaluator.swap_state(&self.eval(&rails));
            let key_of = |cost: DeltaCost| (self.cost_of(cost.t_in, cost.t_si), cost.rail_used_sum);
            let key = key_of(st.cost());
            self.publish_best(key.0);
            // All donor selections read the same memoized staircases.
            let staircases: Vec<Arc<Vec<u64>>> = rails
                .iter()
                .map(|r| self.evaluator.rail_used_staircase(r.cores()))
                .collect();
            // Enumerate the (funded rail, jump) candidates serially,
            // probe them as one speculative batch, and reduce in
            // enumeration order (first strict improvement wins).
            let mut candidates: Vec<(usize, u32)> = Vec::new();
            for b in 0..rails.len() {
                let width = rails[b].width();
                let donor_budget: u32 =
                    rails.iter().map(|r| r.width() - 1).sum::<u32>() - (width - 1);
                for (target, _) in staircase_drops(&staircases[b], width, donor_budget) {
                    candidates.push((b, target - width));
                }
            }
            let costed = self.probe(tracker, false, &candidates, |&(b, delta)| {
                // Collect `delta` wires, one at a time, from the donors
                // whose marginal slowdown for giving up a wire is
                // smallest (zero on a width plateau). The greedy donor
                // walk is a pure function of the current rails, so the
                // probe is deterministic wherever it runs.
                let mut widths: Vec<u32> = rails.iter().map(TestRail::width).collect();
                let mut funded = 0;
                let mut touched = BTreeSet::new();
                while funded < delta {
                    let donor = (0..widths.len())
                        .filter(|&o| o != b && widths[o] > 1)
                        .min_by_key(|&o| {
                            let at = |w: u32| staircases[o][(w - 1) as usize];
                            at(widths[o] - 1) - at(widths[o])
                        });
                    let Some(o) = donor else { break };
                    widths[o] -= 1;
                    touched.insert(o);
                    funded += 1;
                }
                if funded < delta {
                    return None; // not enough donor wires
                }
                widths[b] = widths[b].saturating_add(delta);
                touched.insert(b);
                let swaps: Vec<(usize, Option<Arc<RailEval>>)> = touched
                    .into_iter()
                    .map(|j| {
                        let comp = self.evaluator.rail_eval_cached(widths[j], rails[j].cores());
                        (j, Some(comp))
                    })
                    .collect();
                let mut scratch = st.clone();
                self.evaluator.swap_apply(&mut scratch, &swaps);
                Some((widths, key_of(scratch.cost())))
            });
            let mut best: Option<(Vec<u32>, (u64, u64))> = None;
            for probed in costed {
                let Some(Some((widths, cand_key))) = probed else {
                    continue;
                };
                if cand_key < key && best.as_ref().map_or(true, |&(_, k)| cand_key < k) {
                    best = Some((widths, cand_key));
                }
            }
            let Some((widths, _)) = best else { break };
            for (rail, width) in rails.iter_mut().zip(widths) {
                if rail.width() != width {
                    *rail = rail.with_width(width).expect("width >= 1");
                }
            }
        }
        rails
    }

    /// Sorts rails by `time_used` in non-increasing order (the ordering
    /// Algorithm 2 uses throughout).
    fn sort_by_time_used(&self, rails: &mut Vec<TestRail>) {
        let eval = self.eval(rails);
        let used = eval.rail_time_used();
        let mut order: Vec<usize> = (0..rails.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(used[i]));
        let mut sorted = Vec::with_capacity(rails.len());
        for &i in &order {
            sorted.push(rails[i].clone());
        }
        *rails = sorted;
    }

    /// `coreReshuffle`: repeatedly moves one core off a bottleneck rail to
    /// whichever other rail minimizes the objective, while it improves.
    // Invariant: the source rail keeps >= 1 core (guarded by the len() < 2
    // check) and widths are untouched, so rail construction cannot fail.
    #[allow(clippy::expect_used)]
    fn core_reshuffle(&self, mut rails: Vec<TestRail>, tracker: &BudgetTracker) -> Vec<TestRail> {
        loop {
            if !tracker.tick() {
                return rails;
            }
            let st = self.evaluator.swap_state(&self.eval(&rails));
            let current = self.cost_of(st.t_in(), st.t_si());
            self.publish_best(current);
            // Enumerate the (source, core, target) moves serially, probe
            // them as one speculative batch, and reduce in enumeration
            // order (first lowest cost wins).
            let mut candidates: Vec<(usize, CoreId, usize)> = Vec::new();
            for b in st.bottlenecks(self.objective == Objective::Total) {
                if rails[b].cores().len() < 2 {
                    continue;
                }
                for &core in rails[b].cores() {
                    for t in 0..rails.len() {
                        if t != b {
                            candidates.push((b, core, t));
                        }
                    }
                }
            }
            // The two rails a move rebuilds, ascending by index.
            let moved = |b: usize, core: CoreId, t: usize| -> [(usize, TestRail); 2] {
                let source: Vec<CoreId> = rails[b]
                    .cores()
                    .iter()
                    .copied()
                    .filter(|&c| c != core)
                    .collect();
                let source = TestRail::new(source, rails[b].width())
                    .expect("source keeps at least one core");
                let mut target = rails[t].cores().to_vec();
                target.push(core);
                let target =
                    TestRail::new(target, rails[t].width()).expect("target keeps its width");
                let mut pair = [(b, source), (t, target)];
                pair.sort_unstable_by_key(|&(j, _)| j);
                pair
            };
            let costed = self.probe(tracker, false, &candidates, |&(b, core, t)| {
                let swaps = moved(b, core, t).map(|(j, rail)| {
                    (
                        j,
                        Some(self.evaluator.rail_eval_cached(rail.width(), rail.cores())),
                    )
                });
                let mut scratch = st.clone();
                self.evaluator.swap_apply(&mut scratch, &swaps);
                self.cost_of(scratch.t_in(), scratch.t_si())
            });
            let mut best: Option<(usize, u64)> = None;
            for (idx, probed) in costed.into_iter().enumerate() {
                let Some(cost) = probed else { continue };
                if best.map_or(true, |(_, c)| cost < c) {
                    best = Some((idx, cost));
                }
            }
            match best {
                Some((idx, cost)) if cost < current => {
                    let (b, core, t) = candidates[idx];
                    for (j, rail) in moved(b, core, t) {
                        rails[j] = rail;
                    }
                }
                _ => return rails,
            }
        }
    }

    /// Runs Algorithm 2 and returns the optimized architecture with its
    /// full evaluation.
    ///
    /// For the [`Objective::Total`] objective this runs a two-leg
    /// portfolio (beyond the paper): the SI-aware trajectory *and* the
    /// InTest-steered trajectory, judged on total time. The two greedy
    /// searches explore different basins and either can win; taking the
    /// better of the two on the true objective is strictly stronger than
    /// either alone.
    ///
    /// # Errors
    ///
    /// Currently infallible after construction; the signature matches the
    /// other fallible APIs. A tripped [`OptimizerBudget`] is *not* an
    /// error — the run returns its best-so-far architecture with
    /// [`OptimizedArchitecture::degraded`] set.
    pub fn optimize(&self) -> Result<OptimizedArchitecture, TamError> {
        let tracker = self.start_tracker();
        let mut result = self.optimize_tracked(&tracker)?;
        result.degraded = tracker.exhausted();
        Ok(result)
    }

    /// Builds the run's budget tracker, wiring in the cancellation
    /// token and the progress sink (for checkpoint iteration counts).
    fn start_tracker(&self) -> BudgetTracker {
        BudgetTracker::start_with(self.budget, self.cancel.clone(), self.progress.clone())
    }

    fn optimize_tracked(&self, tracker: &BudgetTracker) -> Result<OptimizedArchitecture, TamError> {
        let primary = self.optimize_perturbed(0, tracker)?;
        // The secondary portfolio leg is pure polish; skip it once the
        // budget has tripped.
        if self.objective != Objective::Total || !tracker.within() {
            return Ok(primary);
        }
        // The secondary leg forks the primary's evaluator: same context
        // fingerprint, shared memo store — every rail component and
        // schedule the primary leg computed is already warm, and
        // objective-dependent cost entries cannot alias because their
        // fingerprints carry the objective.
        let alt = TamOptimizer {
            evaluator: self.evaluator.fork(),
            max_width: self.max_width,
            objective: Objective::InTestOnly,
            pool: self.pool.clone(),
            probe_pool: self.probe_pool.clone(),
            budget: self.budget,
            shared_cache: self.shared_cache.clone(),
            progress: self.progress.clone(),
            cancel: self.cancel.clone(),
        };
        let secondary = alt.optimize_perturbed(0, tracker)?;
        let winner = if secondary.evaluation().t_total() < primary.evaluation().t_total() {
            secondary
        } else {
            primary
        };
        self.publish_best(winner.evaluation().t_total());
        Ok(winner)
    }

    /// Multi-start optimization: runs Algorithm 2 from `restarts`
    /// deterministically perturbed start solutions (the base order plus
    /// `restarts − 1` shuffles) and keeps the best result. Ties in the
    /// greedy merge loops break differently per start order, which is
    /// often enough to escape a bad local minimum.
    ///
    /// # Errors
    ///
    /// Same contract as [`TamOptimizer::optimize`].
    ///
    /// # Example
    ///
    /// ```
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// use soctam_model::Benchmark;
    /// use soctam_tam::{SiGroupSpec, TamOptimizer};
    ///
    /// let soc = Benchmark::D695.soc();
    /// let groups = vec![SiGroupSpec::new(soc.core_ids().collect(), 100)];
    /// let optimizer = TamOptimizer::new(&soc, 16, groups)?;
    /// let single = optimizer.optimize()?;
    /// let multi = optimizer.optimize_multi(4)?;
    /// assert!(multi.evaluation().t_total() <= single.evaluation().t_total());
    /// # Ok(())
    /// # }
    /// ```
    pub fn optimize_multi(&self, restarts: u32) -> Result<OptimizedArchitecture, TamError> {
        // One tracker for the whole multi-start run: the budget bounds the
        // total work, not each restart individually.
        let tracker = self.start_tracker();
        let mut best = self.optimize_tracked(&tracker)?;
        // Restarts are independent runs; farm them out and reduce in
        // perturbation order (ties keep the earlier start, exactly as
        // the serial loop did). Restarts dispatched after the budget trips
        // are skipped wholesale — the base run already produced a valid
        // architecture.
        let perturbations: Vec<u64> = (1..u64::from(restarts.max(1))).collect();
        // Restarts tick the shared iteration counter internally, so an
        // iteration-budgeted run must visit them serially — concurrent
        // restarts would race the counter and make the cut-off point
        // (and thus the result) depend on the pool size. Deadline-only
        // and unlimited budgets keep the parallel fan-out.
        let candidates: Vec<Result<Option<OptimizedArchitecture>, TamError>> =
            if self.budget.max_iterations.is_some() {
                perturbations
                    .iter()
                    .map(|&p| {
                        if !tracker.within() {
                            return Ok(None);
                        }
                        self.optimize_perturbed(p, &tracker).map(Some)
                    })
                    .collect()
            } else {
                self.pool.par_map(&perturbations, |&p| {
                    if !tracker.within() {
                        return Ok(None);
                    }
                    self.optimize_perturbed(p, &tracker).map(Some)
                })
            };
        for candidate in candidates {
            let Some(candidate) = candidate? else {
                continue;
            };
            let cost = |e: &Evaluation| self.cost_of(e.t_in, e.t_si);
            if cost(candidate.evaluation()) < cost(best.evaluation()) {
                best = candidate;
            }
        }
        best.degraded = tracker.exhausted();
        Ok(best)
    }

    /// One Algorithm 2 run. `perturbation == 0` uses the paper's start
    /// solution (one one-wire rail per core, lines 1-16); other values
    /// start from a structurally different architecture (a deterministic
    /// round-robin packing into `2..` rails) so multi-start explores
    /// different basins.
    // Invariant: merged widths and `max_width` are >= 1 (checked at
    // construction), and core assignments stay consistent throughout.
    #[allow(clippy::expect_used)]
    fn optimize_perturbed(
        &self,
        perturbation: u64,
        tracker: &BudgetTracker,
    ) -> Result<OptimizedArchitecture, TamError> {
        let n = self.soc().num_cores();
        let w_max = self.max_width as usize;

        // --- Create a start solution (lines 1-16). ---
        let mut rails: Vec<TestRail>;
        if perturbation == 0 {
            rails = TestRailArchitecture::one_rail_per_core(self.soc())
                .rails()
                .to_vec();
            if w_max < n {
                for _ in 0..(n - w_max) {
                    // These merges are feasibility-mandatory (the wire
                    // budget is short), so they run even after the
                    // optimization budget trips — just without the cost
                    // evaluations: fold into the first rail instead.
                    let within = tracker.tick();
                    if within {
                        self.sort_by_time_used(&mut rails);
                    }
                    // Merge r_{Wmax+1} with the first-Wmax rail minimizing
                    // the objective.
                    let victim = rails.remove(w_max);
                    let i = if within {
                        let mut best: Option<(usize, u64)> = None;
                        for i in 0..w_max.min(rails.len()) {
                            let mut cand = rails.clone();
                            let w = cand[i].width().max(victim.width());
                            cand[i] = cand[i].merged(&victim, w).expect("width >= 1");
                            let cost = self.cost(&cand);
                            if best.map_or(true, |(_, b)| cost < b) {
                                best = Some((i, cost));
                            }
                        }
                        best.map_or(0, |(i, _)| i)
                    } else {
                        0
                    };
                    let w = rails[i].width().max(victim.width());
                    rails[i] = rails[i].merged(&victim, w).expect("width >= 1");
                }
            } else if n < w_max {
                // soctam-analyze: allow(ARITH-01) -- w_max - n counts TAM wires, bounded by the u32 max_width
                rails = self.spread_free_wires(rails, (w_max - n) as u32, tracker);
            }
        } else {
            rails = self.packed_start(perturbation);
        }

        // --- Optimize bottom-up (lines 17-23): merge the least-used rail.
        self.set_phase("merge bottom-up");
        while rails.len() > 1 && tracker.tick() {
            let init = self.cost(&rails);
            self.publish_best(init);
            self.sort_by_time_used(&mut rails);
            let last = rails.len() - 1;
            let (new_rails, improved) = self.merge_tams(rails, last, tracker);
            rails = new_rails;
            if !improved || self.cost(&rails) == init {
                break;
            }
        }

        // --- Optimize top-down (lines 24-30): merge the most-used rail.
        self.set_phase("merge top-down");
        let mut skip: BTreeSet<u128> = BTreeSet::new();
        while rails.len() > 1 && tracker.tick() {
            let init = self.cost(&rails);
            self.publish_best(init);
            self.sort_by_time_used(&mut rails);
            let (new_rails, improved) = self.merge_tams(rails, 0, tracker);
            rails = new_rails;
            if !improved || self.cost(&rails) == init {
                skip.insert(rails_key(&rails, 0));
                break;
            }
        }

        // --- Merge the remaining rails (lines 31-36). ---
        self.set_phase("merge remaining");
        loop {
            if !tracker.tick() {
                break;
            }
            self.sort_by_time_used(&mut rails);
            let candidate = (0..rails.len()).find(|&i| !skip.contains(&rails_key(&rails, i)));
            let Some(r_star) = candidate else { break };
            if rails.len() < 2 {
                break;
            }
            let (new_rails, improved) = self.merge_tams(rails, r_star, tracker);
            rails = new_rails;
            if !improved {
                skip.insert(rails_key(&rails, r_star));
            }
        }

        // --- Reshuffle cores off bottleneck rails (line 37). ---
        self.set_phase("core reshuffle");
        rails = self.core_reshuffle(rails, tracker);

        // --- Wire rebalance polish (beyond the paper; see rebalance_wires).
        self.set_phase("wire rebalance");
        rails = self.rebalance_wires(rails, tracker);

        // Safety net beyond the paper: the trivial single-rail architecture
        // (every core daisy-chained on all W_max wires) is always feasible
        // and occasionally beats a stuck merge trajectory; never return
        // anything worse than it. Kept even under a tripped budget — it is
        // two cached evaluations and guards the degraded result's quality.
        let single = TestRailArchitecture::single_rail(self.soc(), self.max_width)
            .expect("max_width >= 1")
            .rails()
            .to_vec();
        if self.cost(&single) < self.cost(&rails) {
            rails = single;
        }

        let architecture = TestRailArchitecture::new(self.soc(), rails)
            .expect("optimizer maintains a consistent core assignment");
        debug_assert!(architecture.check_width(self.max_width).is_ok());
        let evaluation = (*self.evaluator.evaluate_cached(&architecture)).clone();
        self.publish_best(evaluation.t_total());
        Ok(OptimizedArchitecture {
            architecture,
            evaluation,
            degraded: tracker.exhausted(),
        })
    }

    /// An alternative start solution for multi-start runs: cores shuffled
    /// by `salt`, packed round-robin into `k` rails (with `k` varying per
    /// salt) and the width budget split evenly. Structurally different
    /// from the paper's start, so the merge loops explore another basin.
    // Invariant: round-robin packing into k <= n buckets leaves no bucket
    // empty, and the width is clamped to >= 1.
    #[allow(clippy::expect_used)]
    fn packed_start(&self, salt: u64) -> Vec<TestRail> {
        let n = self.soc().num_cores();
        let w_max = self.max_width;
        let max_rails = (w_max as usize).min(n);
        // k cycles through 2..=max_rails as the salt grows.
        let k = if max_rails <= 1 {
            1
        } else {
            2 + (salt as usize - 1) % (max_rails - 1)
        };

        let mut ids: Vec<CoreId> = self.soc().core_ids().collect();
        shuffle_cores(&mut ids, salt);

        let mut buckets: Vec<Vec<CoreId>> = vec![Vec::new(); k];
        for (i, core) in ids.into_iter().enumerate() {
            buckets[i % k].push(core);
        }
        // soctam-analyze: allow(ARITH-01) -- k is a rail count, bounded by the core count which fits u32
        let base = w_max / k as u32;
        // soctam-analyze: allow(ARITH-01) -- same bound as above; the remainder is below k
        let extra = (w_max % k as u32) as usize;
        buckets
            .into_iter()
            .enumerate()
            .map(|(i, cores)| {
                let width = base + u32::from(i < extra);
                TestRail::new(cores, width.max(1)).expect("bucket is non-empty")
            })
            .collect()
    }
}

/// Stable identity of a rail for the skip set: the fingerprint of its
/// (sorted) core list — no per-candidate `Vec<CoreId>` clone.
fn rails_key(rails: &[TestRail], i: usize) -> u128 {
    fx_fingerprint128(&rails[i].cores())
}

/// A rail's strict drops within a water-filling budget, each with the
/// memoized component at its target width: `(target width, neg_rate,
/// component)`, ascending by width (see [`staircase_drops`]).
type Drops = Vec<(u32, u128, Arc<RailEval>)>;

/// One live rail of a water-filling pass
/// ([`TamOptimizer::distribute_free_wires`]).
struct Lane<'a> {
    /// The rail's `time_used` staircase.
    stairs: &'a [u64],
    /// Its strict drops from the pass's starting width.
    drops: &'a [(u32, u128, Arc<RailEval>)],
}

/// The strict drop points of a rail's time staircase: `(target width,
/// neg_rate)` for every jump `d ≤ budget` (with `width + d ≤
/// max_width`) at which the utilized time falls below every smaller
/// width, ascending. `staircase[w - 1]` is the rail's `time_used` at
/// width `w` (see [`Evaluator::rail_used_staircase`]); `neg_rate` ranks
/// jumps by time gained per wire, as a negated fixed-point value so
/// smaller is better.
///
/// The walk is prefix-stable (each verdict depends only on earlier
/// staircase entries), so a list built under a larger budget truncated
/// to `target - width <= remaining` equals the list built under
/// `remaining` — and because every later strict drop is also a strict
/// drop from any drop point in between, a list rebuilt at an accepted
/// drop's width targets a subset of these widths (only its `neg_rate`s
/// change).
fn staircase_drops(staircase: &[u64], width: u32, budget: u32) -> Vec<(u32, u128)> {
    let before = staircase[(width - 1) as usize];
    // soctam-analyze: allow(ARITH-01) -- the staircase has max_width entries, and max_width is u32
    let limit = budget.min((staircase.len() as u32).saturating_sub(width));
    let mut best = before;
    let mut out = Vec::new();
    for d in 1..=limit {
        let after = staircase[(width + d - 1) as usize];
        if after < best {
            best = after;
            let gain = before - after;
            // Rate comparison without floats: gain/d as a scaled
            // fixed-point value.
            let neg_rate = u128::MAX - (u128::from(gain) << 32) / u128::from(d);
            out.push((width + d, neg_rate));
        }
    }
    out
}

/// Deterministic Fisher–Yates shuffle driven by a splitmix64 stream (the
/// crate has no RNG dependency; reproducibility matters more than
/// statistical quality here).
fn shuffle_cores(cores: &mut [CoreId], seed: u64) {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..cores.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        cores.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soctam_model::Benchmark;

    fn groups_for(soc: &Soc, patterns: u64) -> Vec<SiGroupSpec> {
        vec![SiGroupSpec::new(soc.core_ids().collect(), patterns)]
    }

    #[test]
    fn optimize_respects_width_budget() {
        let soc = Benchmark::D695.soc();
        for w in [4u32, 8, 16] {
            let result = TamOptimizer::new(&soc, w, groups_for(&soc, 100))
                .expect("valid")
                .optimize()
                .expect("optimizes");
            assert!(result.architecture().total_width() <= w);
            // Every core hosted exactly once is enforced by construction.
            assert_eq!(
                result
                    .architecture()
                    .rails()
                    .iter()
                    .map(|r| r.cores().len())
                    .sum::<usize>(),
                soc.num_cores()
            );
        }
    }

    #[test]
    fn wider_budget_never_hurts() {
        let soc = Benchmark::D695.soc();
        let t8 = TamOptimizer::new(&soc, 8, groups_for(&soc, 200))
            .expect("valid")
            .optimize()
            .expect("optimizes")
            .evaluation()
            .t_total();
        let t32 = TamOptimizer::new(&soc, 32, groups_for(&soc, 200))
            .expect("valid")
            .optimize()
            .expect("optimizes")
            .evaluation()
            .t_total();
        assert!(t32 <= t8, "t32={t32} > t8={t8}");
    }

    #[test]
    fn intest_only_matches_or_beats_total_on_t_in() {
        let soc = Benchmark::D695.soc();
        let groups = groups_for(&soc, 500);
        let baseline = TamOptimizer::new(&soc, 16, groups.clone())
            .expect("valid")
            .objective(Objective::InTestOnly)
            .optimize()
            .expect("optimizes");
        let si_aware = TamOptimizer::new(&soc, 16, groups)
            .expect("valid")
            .optimize()
            .expect("optimizes");
        // The baseline optimizes T_in, so its T_in should not be worse
        // (both are heuristics, so allow a small slack).
        let slack = baseline.evaluation().t_in / 10;
        assert!(
            baseline.evaluation().t_in <= si_aware.evaluation().t_in + slack,
            "baseline t_in {} vs si-aware {}",
            baseline.evaluation().t_in,
            si_aware.evaluation().t_in
        );
    }

    #[test]
    fn si_aware_beats_baseline_on_total_under_heavy_si_load() {
        let soc = Benchmark::D695.soc();
        // Heavy SI load: two groups with large pattern counts.
        let half: Vec<CoreId> = (0..5).map(CoreId::new).collect();
        let rest: Vec<CoreId> = (5..10).map(CoreId::new).collect();
        let groups = vec![
            SiGroupSpec::new(half, 3_000),
            SiGroupSpec::new(rest, 3_000),
            SiGroupSpec::new(soc.core_ids().collect(), 1_000),
        ];
        let baseline = TamOptimizer::new(&soc, 24, groups.clone())
            .expect("valid")
            .objective(Objective::InTestOnly)
            .optimize()
            .expect("optimizes");
        let si_aware = TamOptimizer::new(&soc, 24, groups)
            .expect("valid")
            .optimize()
            .expect("optimizes");
        assert!(
            si_aware.evaluation().t_total() <= baseline.evaluation().t_total(),
            "si-aware {} > baseline {}",
            si_aware.evaluation().t_total(),
            baseline.evaluation().t_total()
        );
    }

    #[test]
    fn single_core_soc_optimizes_trivially() {
        use soctam_model::CoreSpec;
        let soc = Soc::new(
            "one",
            vec![CoreSpec::new("c", 4, 4, 0, vec![16, 16], 10).expect("valid")],
        )
        .expect("valid");
        let result = TamOptimizer::new(&soc, 8, vec![])
            .expect("valid")
            .optimize()
            .expect("optimizes");
        assert_eq!(result.architecture().num_rails(), 1);
        assert!(result.architecture().total_width() <= 8);
        assert_eq!(result.evaluation().t_si, 0);
    }

    #[test]
    fn exhausted_budget_still_yields_valid_architecture() {
        let soc = Benchmark::P34392.soc(); // 19 cores, wire budget below that
        let make = || TamOptimizer::new(&soc, 8, groups_for(&soc, 50)).expect("valid");
        let strangled = make()
            .budget(OptimizerBudget::default().with_max_iterations(1))
            .optimize()
            .expect("degrades, does not fail");
        assert!(strangled.degraded());
        assert!(strangled.architecture().total_width() <= 8);
        assert_eq!(
            strangled
                .architecture()
                .rails()
                .iter()
                .map(|r| r.cores().len())
                .sum::<usize>(),
            soc.num_cores()
        );
        // The iteration cut-off is deterministic: a second strangled run
        // lands on the identical architecture.
        let again = make()
            .budget(OptimizerBudget::default().with_max_iterations(1))
            .optimize()
            .expect("degrades, does not fail");
        assert_eq!(strangled.architecture(), again.architecture());
        // The unbudgeted run is flagged clean and is at least as good.
        let full = make().optimize().expect("optimizes");
        assert!(!full.degraded());
        assert!(full.evaluation().t_total() <= strangled.evaluation().t_total());
    }

    #[test]
    fn expired_deadline_degrades_immediately_but_validly() {
        use std::time::Duration;
        let soc = Benchmark::D695.soc();
        let result = TamOptimizer::new(&soc, 16, groups_for(&soc, 100))
            .expect("valid")
            .budget(OptimizerBudget::default().with_deadline(Duration::ZERO))
            .optimize()
            .expect("degrades, does not fail");
        assert!(result.degraded());
        assert!(result.architecture().total_width() <= 16);
        assert!(result.evaluation().t_total() > 0);
    }

    #[test]
    fn multi_start_respects_budget() {
        let soc = Benchmark::D695.soc();
        let result = TamOptimizer::new(&soc, 16, groups_for(&soc, 100))
            .expect("valid")
            .budget(OptimizerBudget::default().with_max_iterations(2))
            .optimize_multi(4)
            .expect("degrades, does not fail");
        assert!(result.degraded());
        assert!(result.architecture().total_width() <= 16);
    }

    #[test]
    fn budget_below_core_count_forces_merging() {
        let soc = Benchmark::P34392.soc(); // 19 cores
        let result = TamOptimizer::new(&soc, 8, groups_for(&soc, 50))
            .expect("valid")
            .optimize()
            .expect("optimizes");
        assert!(result.architecture().total_width() <= 8);
        assert!(result.architecture().num_rails() <= 8);
    }
}

#[cfg(test)]
mod rebalance_tests {
    use super::*;
    use soctam_model::{Benchmark, CoreId};

    #[test]
    fn rebalance_rescues_starved_many_chain_core() {
        let soc = Benchmark::F2126.soc();
        let groups = vec![SiGroupSpec::new(soc.core_ids().collect(), 300)];
        let optimizer = TamOptimizer::new(&soc, 64, groups)
            .expect("valid")
            .objective(Objective::InTestOnly);
        // The allocation the one-directional distribution gets stuck in:
        // core 2 (18 scan chains) starved at 12 wires.
        let rails = vec![
            TestRail::new(vec![CoreId::new(2)], 12).expect("valid"),
            TestRail::new(vec![CoreId::new(1)], 18).expect("valid"),
            TestRail::new(vec![CoreId::new(3)], 17).expect("valid"),
            TestRail::new(vec![CoreId::new(0)], 17).expect("valid"),
        ];
        let before = optimizer.cost(&rails);
        let tracker = BudgetTracker::start(OptimizerBudget::unlimited());
        let rebalanced = optimizer.rebalance_wires(rails, &tracker);
        let after = optimizer.cost(&rebalanced);
        assert!(
            after < before * 7 / 10,
            "rebalance only improved {before} -> {after}"
        );
    }
}
