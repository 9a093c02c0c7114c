//! The one TAM-optimization entry point every front end calls.
//!
//! [`BackendCtx`] carries a whole TAM problem (SOC, wire budget,
//! compacted SI test groups, objective) together with its effort knobs
//! and execution resources, and [`TrArchitectBackend`] solves it with
//! the paper's bandwidth-matching `TAM_Optimization` ([`TamOptimizer`],
//! Algorithm 2). [`BackendKind`] names it for the `backend` parameter
//! of the CLI and the JSON API.
//!
//! # The Evaluator is the referee
//!
//! The optimizer constructs rails; the shared [`Evaluator`](crate::Evaluator)
//! computes the reported [`Evaluation`](crate::Evaluation). Whatever
//! move deltas the search uses, the `T_soc` it reports is the one the
//! referee assigns to its final architecture. The `backend_verify`
//! integration test re-evaluates the output under a fresh `Evaluator`
//! and asserts bit-identity.
//!
//! # Budget and cancellation
//!
//! Budget exhaustion and cancellation degrade to the best-so-far *valid*
//! architecture, flagged [`degraded`](OptimizedArchitecture::degraded) —
//! never an error.

use std::sync::Arc;

use soctam_exec::{CancelToken, Pool, Progress};
use soctam_model::Soc;

use crate::{
    EvalCache, Objective, OptimizedArchitecture, OptimizerBudget, SiGroupSpec, TamError,
    TamOptimizer,
};

/// Names the TAM optimizer for the `backend` parameter.
///
/// [`BackendKind::NAMES`] is the value set of the CLI `--backend` flag
/// and the JSON API enum schema.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BackendKind {
    /// Bandwidth-matching `TAM_Optimization` (Algorithm 2).
    #[default]
    TrArchitect,
}

impl BackendKind {
    /// Every kind, in canonical (schema) order.
    pub const ALL: [BackendKind; 1] = [BackendKind::TrArchitect];

    /// Canonical names, aligned with [`BackendKind::ALL`].
    pub const NAMES: &'static [&'static str] = &["tr-architect"];
}

/// Everything the optimizer may consume: the problem (SOC, width budget,
/// compacted SI groups, objective), the effort knobs (restarts, budget)
/// and the execution resources (pools, cache, progress, cancellation).
///
/// Construct with [`BackendCtx::new`] and override fields as needed;
/// the defaults reproduce a plain serial, unlimited run.
#[derive(Clone, Debug)]
pub struct BackendCtx<'a> {
    /// The SOC under test.
    pub soc: &'a Soc,
    /// Maximum total TAM width (`W_max`).
    pub max_width: u32,
    /// Compacted SI test groups.
    pub groups: &'a [SiGroupSpec],
    /// What the search minimizes.
    pub objective: Objective,
    /// Multi-start restarts (`1` = single run).
    pub restarts: u32,
    /// Worker pool for parallel phases; its metrics record the run.
    pub pool: Pool,
    /// Optional dedicated pool for speculative candidate probes.
    pub probe_pool: Option<Pool>,
    /// Work limits; exhaustion degrades to best-so-far, never an error.
    pub budget: OptimizerBudget,
    /// Optional shared evaluation cache (cheap handle clone).
    pub eval_cache: Option<EvalCache>,
    /// Optional live progress sink (phase, iterations, best-so-far).
    pub progress: Option<Arc<Progress>>,
    /// Optional cooperative cancellation; treated like budget exhaustion.
    pub cancel: Option<CancelToken>,
}

impl<'a> BackendCtx<'a> {
    /// A serial, unlimited-budget context for `soc` under `max_width`
    /// with the given compacted `groups`.
    pub fn new(soc: &'a Soc, max_width: u32, groups: &'a [SiGroupSpec]) -> Self {
        BackendCtx {
            soc,
            max_width,
            groups,
            objective: Objective::default(),
            restarts: 1,
            pool: Pool::serial(),
            probe_pool: None,
            budget: OptimizerBudget::unlimited(),
            eval_cache: None,
            progress: None,
            cancel: None,
        }
    }
}

/// Returns the optimizer `kind` names.
pub fn backend_for(kind: BackendKind) -> TrArchitectBackend {
    match kind {
        BackendKind::TrArchitect => TrArchitectBackend,
    }
}

/// The paper's bandwidth-matching `TAM_Optimization` (Algorithm 2) run
/// on a [`BackendCtx`].
#[derive(Clone, Copy, Debug, Default)]
pub struct TrArchitectBackend;

impl TrArchitectBackend {
    /// Produces an optimized architecture for `ctx`. The returned
    /// evaluation is the shared `Evaluator`'s verdict on the returned
    /// architecture, and the architecture respects `ctx.max_width`.
    ///
    /// # Errors
    ///
    /// [`TamError`] when the problem itself is infeasible (zero width
    /// budget, invalid groups). Budget exhaustion is *not* an error.
    pub fn optimize(&self, ctx: &BackendCtx<'_>) -> Result<OptimizedArchitecture, TamError> {
        let mut optimizer = TamOptimizer::new(ctx.soc, ctx.max_width, ctx.groups.to_vec())?
            .objective(ctx.objective)
            .budget(ctx.budget)
            .pool(ctx.pool.clone());
        if let Some(probe_pool) = &ctx.probe_pool {
            optimizer = optimizer.probe_pool(probe_pool.clone());
        }
        if let Some(progress) = &ctx.progress {
            optimizer = optimizer.progress(Arc::clone(progress));
        }
        if let Some(cache) = &ctx.eval_cache {
            optimizer = optimizer.eval_cache(cache);
        }
        if let Some(cancel) = &ctx.cancel {
            optimizer = optimizer.cancel(cancel.clone());
        }
        if ctx.restarts > 1 {
            optimizer.optimize_multi(ctx.restarts)
        } else {
            optimizer.optimize()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soctam_model::Benchmark;

    fn groups_for(soc: &Soc) -> Vec<SiGroupSpec> {
        vec![SiGroupSpec::new(soc.core_ids().collect(), 300)]
    }

    #[test]
    fn one_kind_named_tr_architect() {
        assert_eq!(BackendKind::ALL, [BackendKind::default()]);
        assert_eq!(BackendKind::NAMES, ["tr-architect"]);
    }

    #[test]
    fn backend_matches_direct_optimizer() {
        let soc = Benchmark::D695.soc();
        let groups = groups_for(&soc);
        let direct = TamOptimizer::new(&soc, 16, groups.clone())
            .and_then(|optimizer| optimizer.optimize())
            .expect("direct run");
        let via_backend = backend_for(BackendKind::TrArchitect)
            .optimize(&BackendCtx::new(&soc, 16, &groups))
            .expect("backend run");
        assert_eq!(direct, via_backend);
        assert!(via_backend.architecture().check_width(16).is_ok());
    }
}
