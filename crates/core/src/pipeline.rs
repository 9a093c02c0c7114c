//! The one-stop optimization pipeline.

use std::panic;
use std::sync::Arc;

use soctam_compaction::{compact_two_dimensional_with, CompactedSiTests, CompactionConfig};
use soctam_exec::{fault, CancelToken, Metrics, Pool, Progress};
use soctam_model::Soc;
use soctam_patterns::SiPatternSet;
use soctam_tam::{
    backend_for, BackendCtx, BackendKind, EvalCache, Evaluation, Objective, OptimizedArchitecture,
    OptimizerBudget, SiGroupSpec, TestRailArchitecture,
};

use crate::SoctamError;

/// Runs one pipeline stage with panic containment: a panicking worker
/// (or an injected `fault::hit`) surfaces as a structured
/// [`SoctamError::Internal`] naming the failpoint site instead of
/// unwinding into the caller. Sound because every stage either returns
/// a value or is discarded wholesale — no partially-mutated state
/// escapes the closure.
fn contain_panics<T>(
    stage: &'static str,
    f: impl FnOnce() -> Result<T, SoctamError>,
) -> Result<T, SoctamError> {
    match panic::catch_unwind(panic::AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => Err(SoctamError::Internal {
            site: fault::fault_from_panic(payload.as_ref())
                .map(|fault| fault.site().to_string())
                .unwrap_or_else(|| stage.to_string()),
            message: fault::panic_message(payload.as_ref()),
        }),
    }
}

/// The full Problem `P_SI_opt` pipeline: two-dimensional compaction of the
/// SI test set followed by SI-aware TAM optimization.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use soctam::{Benchmark, RandomPatternConfig, SiOptimizer, SiPatternSet};
///
/// let soc = Benchmark::D695.soc();
/// let patterns = SiPatternSet::random(&soc, &RandomPatternConfig::new(1_000))?;
/// let result = SiOptimizer::new(&soc)
///     .max_tam_width(24)
///     .partitions(2)
///     .optimize(&patterns)?;
/// assert!(result.architecture().total_width() <= 24);
/// assert_eq!(
///     result.total_time(),
///     result.intest_time() + result.si_time()
/// );
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct SiOptimizer<'a> {
    soc: &'a Soc,
    max_tam_width: u32,
    partitions: u32,
    seed: u64,
    objective: Objective,
    backend: BackendKind,
    restarts: u32,
    pool: Pool,
    probe_pool: Option<Pool>,
    progress: Option<Arc<Progress>>,
    budget: OptimizerBudget,
    eval_cache: Option<EvalCache>,
    cancel: Option<CancelToken>,
}

impl<'a> SiOptimizer<'a> {
    /// Creates a pipeline for `soc` with defaults matching the paper's
    /// setup: a 32-wire TAM, 4 SI partitions, seed 0, total-time objective.
    pub fn new(soc: &'a Soc) -> Self {
        SiOptimizer {
            soc,
            max_tam_width: 32,
            partitions: 4,
            seed: 0,
            objective: Objective::Total,
            backend: BackendKind::TrArchitect,
            restarts: 1,
            pool: Pool::serial(),
            probe_pool: None,
            progress: None,
            budget: OptimizerBudget::unlimited(),
            eval_cache: None,
            cancel: None,
        }
    }

    /// Serves TAM evaluation lookups from `cache`, a store that may be
    /// shared across pipeline runs (and, in `soctam-serve`, across
    /// requests): identical per-rail evaluations become warm cache
    /// hits. Results are bit-identical with or without sharing.
    pub fn eval_cache(mut self, cache: EvalCache) -> Self {
        self.eval_cache = Some(cache);
        self
    }

    /// Bounds the TAM optimization work. When the budget trips, the
    /// pipeline still returns a valid architecture — the best found so
    /// far — flagged [`SiOptimizationResult::degraded`].
    pub fn budget(mut self, budget: OptimizerBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Runs the pipeline on `pool` (shared across runs, metrics
    /// accumulate in the pool's [`Metrics`]). Results are bit-identical
    /// for every pool size; only wall-clock changes.
    pub fn pool(mut self, pool: Pool) -> Self {
        self.pool = pool;
        self
    }

    /// Probes optimizer move candidates on `pool`, independent of the
    /// compaction pool. When unset, candidate probing shares the
    /// pipeline's main pool. Results are bit-identical for every pool
    /// size; only wall-clock changes.
    pub fn probe_pool(mut self, pool: Pool) -> Self {
        self.probe_pool = Some(pool);
        self
    }

    /// Publishes optimizer phase / probe-count / best-objective updates
    /// into `progress` for a live display such as the CLI `--progress`
    /// stderr ticker. Purely advisory; never affects results.
    pub fn progress(mut self, progress: Arc<Progress>) -> Self {
        self.progress = Some(progress);
        self
    }

    /// Observes `cancel` at every optimizer budget checkpoint. A
    /// tripped token degrades the run to its best-so-far architecture
    /// ([`SiOptimizationResult::degraded`]) — never an error.
    pub fn cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// The metrics of the pipeline's pool: task/steal counters, cache
    /// hits and misses, per-phase wall-clock. Snapshot after
    /// [`SiOptimizer::optimize`] to report runtime statistics.
    pub fn metrics(&self) -> Arc<Metrics> {
        self.pool.metrics()
    }

    /// Sets the SOC-level TAM width budget `W_max`.
    pub fn max_tam_width(mut self, width: u32) -> Self {
        self.max_tam_width = width;
        self
    }

    /// Sets the SI partition count `i` (1 disables horizontal compaction).
    pub fn partitions(mut self, partitions: u32) -> Self {
        self.partitions = partitions;
        self
    }

    /// Sets the seed for the hypergraph partitioner.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the optimization objective ([`Objective::InTestOnly`]
    /// reproduces the TR-Architect / `T_[8]` baseline).
    pub fn objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Sets the number of multi-start restarts for the TAM optimizer
    /// (1 = the paper's single deterministic run).
    pub fn restarts(mut self, restarts: u32) -> Self {
        self.restarts = restarts.max(1);
        self
    }

    /// Selects the TAM-optimization backend. The default,
    /// [`BackendKind::TrArchitect`], is the paper's bandwidth-matching
    /// `TAM_Optimization`; every backend reports the shared
    /// `Evaluator`'s verdict on its architecture.
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Runs compaction and optimization on `patterns`, with strict
    /// validation at every stage boundary: the SOC and the pattern set
    /// are validated before compaction, and the final SI schedule is
    /// validated before the result is returned. Worker panics are
    /// contained and surface as [`SoctamError::Internal`].
    ///
    /// # Errors
    ///
    /// Forwards compaction and TAM errors ([`SoctamError`]);
    /// [`SoctamError::Validation`] when a stage boundary check fails.
    pub fn optimize(&self, patterns: &SiPatternSet) -> Result<SiOptimizationResult, SoctamError> {
        self.soc.validate().into_result()?;
        patterns.validate(self.soc).into_result()?;
        let compacted = contain_panics("pipeline.compact", || {
            self.pool
                .metrics()
                .time("compact", || {
                    compact_two_dimensional_with(
                        self.soc,
                        patterns,
                        &CompactionConfig::new(self.partitions).with_seed(self.seed),
                        &self.pool,
                    )
                })
                .map_err(SoctamError::from)
        })?;
        self.optimize_compacted(compacted)
    }

    /// Runs only the TAM-optimization half on already-compacted groups.
    ///
    /// # Errors
    ///
    /// Forwards TAM errors ([`SoctamError`]); [`SoctamError::Validation`]
    /// when the produced SI schedule fails its structural checks.
    pub fn optimize_compacted(
        &self,
        compacted: CompactedSiTests,
    ) -> Result<SiOptimizationResult, SoctamError> {
        let optimized = contain_panics("pipeline.optimize", || {
            let groups = SiGroupSpec::from_compacted(&compacted);
            let ctx = BackendCtx {
                soc: self.soc,
                max_width: self.max_tam_width,
                groups: &groups,
                objective: self.objective,
                restarts: self.restarts,
                pool: self.pool.clone(),
                probe_pool: self.probe_pool.clone(),
                budget: self.budget,
                eval_cache: self.eval_cache.clone(),
                progress: self.progress.as_ref().map(Arc::clone),
                cancel: self.cancel.clone(),
            };
            let optimized = self
                .pool
                .metrics()
                .time("optimize", || backend_for(self.backend).optimize(&ctx))?;
            Ok(optimized)
        })?;
        optimized.evaluation().schedule.validate().into_result()?;
        Ok(SiOptimizationResult {
            compacted,
            optimized,
        })
    }
}

/// The outcome of [`SiOptimizer::optimize`].
#[derive(Clone, Debug)]
pub struct SiOptimizationResult {
    compacted: CompactedSiTests,
    optimized: OptimizedArchitecture,
}

impl SiOptimizationResult {
    /// The compacted SI test set.
    pub fn compacted(&self) -> &CompactedSiTests {
        &self.compacted
    }

    /// The optimized TestRail architecture.
    pub fn architecture(&self) -> &TestRailArchitecture {
        self.optimized.architecture()
    }

    /// The full timing evaluation (rails, groups, schedule).
    pub fn evaluation(&self) -> &Evaluation {
        self.optimized.evaluation()
    }

    /// `T_soc = T_soc^in + T_soc^si` in clock cycles.
    pub fn total_time(&self) -> u64 {
        self.evaluation().t_total()
    }

    /// `T_soc^in` in clock cycles.
    pub fn intest_time(&self) -> u64 {
        self.evaluation().t_in
    }

    /// `T_soc^si` in clock cycles.
    pub fn si_time(&self) -> u64 {
        self.evaluation().t_si
    }

    /// True when the optimizer hit its [`OptimizerBudget`] and the
    /// architecture is best-so-far rather than fully converged.
    pub fn degraded(&self) -> bool {
        self.optimized.degraded()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soctam_model::Benchmark;
    use soctam_patterns::RandomPatternConfig;

    #[test]
    fn pipeline_runs_on_every_benchmark() {
        for bench in Benchmark::ALL {
            let soc = bench.soc();
            let patterns = SiPatternSet::random(&soc, &RandomPatternConfig::new(500).with_seed(1))
                .expect("valid");
            let result = SiOptimizer::new(&soc)
                .max_tam_width(16)
                .partitions(2)
                .optimize(&patterns)
                .expect("optimizes");
            assert!(result.total_time() > 0, "{bench}");
            assert!(result.architecture().total_width() <= 16);
        }
    }

    #[test]
    fn baseline_objective_reports_si_too() {
        let soc = Benchmark::D695.soc();
        let patterns = SiPatternSet::random(&soc, &RandomPatternConfig::new(400)).expect("valid");
        let result = SiOptimizer::new(&soc)
            .max_tam_width(8)
            .partitions(1)
            .objective(Objective::InTestOnly)
            .optimize(&patterns)
            .expect("optimizes");
        // Even the InTest-only baseline schedules the SI tests afterwards.
        assert!(result.si_time() > 0);
    }

    #[test]
    fn restarts_never_worsen_the_result() {
        let soc = Benchmark::D695.soc();
        let patterns =
            SiPatternSet::random(&soc, &RandomPatternConfig::new(800).with_seed(2)).expect("valid");
        let single = SiOptimizer::new(&soc)
            .max_tam_width(16)
            .optimize(&patterns)
            .expect("optimizes")
            .total_time();
        let multi = SiOptimizer::new(&soc)
            .max_tam_width(16)
            .restarts(4)
            .optimize(&patterns)
            .expect("optimizes")
            .total_time();
        assert!(multi <= single);
    }

    #[test]
    fn budget_degrades_but_schedule_stays_valid() {
        use std::time::Duration;
        let soc = Benchmark::P34392.soc();
        let patterns =
            SiPatternSet::random(&soc, &RandomPatternConfig::new(500).with_seed(3)).expect("valid");
        let result = SiOptimizer::new(&soc)
            .max_tam_width(16)
            .partitions(2)
            .budget(OptimizerBudget::default().with_deadline(Duration::from_millis(50)))
            .optimize(&patterns)
            .expect("degrades, does not fail");
        // Degraded or not (a fast machine may finish in time), the
        // schedule must pass the structural validator.
        assert!(result.evaluation().schedule.validate().is_ok());
        assert!(result.architecture().total_width() <= 16);
        // A budget that cannot possibly suffice must degrade.
        let strangled = SiOptimizer::new(&soc)
            .max_tam_width(16)
            .partitions(2)
            .budget(OptimizerBudget::default().with_max_iterations(1))
            .optimize(&patterns)
            .expect("degrades, does not fail");
        assert!(strangled.degraded());
        assert!(strangled.evaluation().schedule.validate().is_ok());
    }

    #[test]
    fn deterministic_end_to_end() {
        let soc = Benchmark::D695.soc();
        let patterns =
            SiPatternSet::random(&soc, &RandomPatternConfig::new(600).with_seed(5)).expect("valid");
        let run = || {
            SiOptimizer::new(&soc)
                .max_tam_width(16)
                .partitions(4)
                .seed(9)
                .optimize(&patterns)
                .expect("optimizes")
                .total_time()
        };
        assert_eq!(run(), run());
    }
}
