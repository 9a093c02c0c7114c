//! The experiment harness regenerating the paper's Tables 2 and 3.
//!
//! For one SOC and one raw pattern count `N_r`, the harness sweeps the
//! SOC-level TAM width `W_max` and, per width, reports:
//!
//! * `T_[8]` — total time when the architecture is optimized for InTest
//!   only (the TR-Architect baseline of reference \[8\]) and the
//!   1-D-compacted SI tests are merely scheduled on it afterwards;
//! * `T_gi` — total time from the proposed `TAM_Optimization` with the SI
//!   tests two-dimensionally compacted into `i` partitions;
//! * `T_min = min_i T_gi` and the paper's improvement metrics
//!   `ΔT_[8] = (T_[8] − T_min) / T_[8]` and `ΔT_g = (T_g1 − T_min) / T_g1`.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use soctam::experiment::{run_table, ExperimentConfig};
//! use soctam::Benchmark;
//!
//! let soc = Benchmark::D695.soc();
//! let config = ExperimentConfig {
//!     pattern_count: 500,
//!     widths: vec![8, 16],
//!     partitions: vec![1, 2],
//!     seed: 42,
//! };
//! let table = run_table(&soc, &config)?;
//! assert_eq!(table.rows.len(), 2);
//! println!("{table}");
//! # Ok(())
//! # }
//! ```

use std::fmt;
use std::sync::Arc;

use soctam_compaction::{compact_two_dimensional_with, CompactionConfig};
use soctam_exec::{CancelToken, Pool, Progress};
use soctam_model::Soc;
use soctam_patterns::{RandomPatternConfig, SiPatternSet};
use soctam_tam::{backend_for, BackendCtx, BackendKind, Objective, SiGroupSpec};

use crate::SoctamError;

/// Parameters of one table run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExperimentConfig {
    /// Raw SI pattern count `N_r`.
    pub pattern_count: usize,
    /// TAM widths to sweep (the paper uses `8, 16, …, 64`).
    pub widths: Vec<u32>,
    /// SI partition counts to sweep (the paper uses `1, 2, 4, 8`).
    pub partitions: Vec<u32>,
    /// Seed for pattern generation and partitioning.
    pub seed: u64,
}

impl ExperimentConfig {
    /// The paper's full sweep for the given `N_r`.
    pub fn paper_sweep(pattern_count: usize) -> Self {
        ExperimentConfig {
            pattern_count,
            widths: (1..=8).map(|i| i * 8).collect(),
            partitions: vec![1, 2, 4, 8],
            seed: 2007,
        }
    }
}

/// One row of a results table (one `W_max`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableRow {
    /// The SOC-level TAM width.
    pub w_max: u32,
    /// `T_[8]`: the SI-oblivious baseline's total time.
    pub t_baseline: u64,
    /// `(i, T_gi)` per partition count, in sweep order.
    pub t_partitioned: Vec<(u32, u64)>,
}

impl TableRow {
    /// `T_min = min_i T_gi`.
    pub fn t_min(&self) -> u64 {
        self.t_partitioned
            .iter()
            .map(|&(_, t)| t)
            .min()
            .unwrap_or(self.t_baseline)
    }

    /// `ΔT_[8] = (T_[8] − T_min) / T_[8]` in percent (negative when the
    /// baseline wins, which the paper also observes for small widths).
    pub fn delta_baseline_pct(&self) -> f64 {
        let t8 = self.t_baseline as f64;
        (t8 - self.t_min() as f64) / t8 * 100.0
    }

    /// `ΔT_g = (T_g1 − T_min) / T_g1` in percent: the benefit of 2-D over
    /// 1-D compaction.
    pub fn delta_g_pct(&self) -> f64 {
        let g1 = self
            .t_partitioned
            .iter()
            .find(|&&(i, _)| i == 1)
            .map(|&(_, t)| t as f64)
            .unwrap_or(self.t_baseline as f64);
        (g1 - self.t_min() as f64) / g1 * 100.0
    }
}

/// A full results table for one SOC and one `N_r`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExperimentTable {
    /// SOC name.
    pub soc_name: String,
    /// Raw pattern count `N_r`.
    pub pattern_count: usize,
    /// Compacted pattern count per partition count `(i, count)`.
    pub compacted_counts: Vec<(u32, u64)>,
    /// One row per swept width.
    pub rows: Vec<TableRow>,
}

impl fmt::Display for ExperimentTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "SOC {}  N_r = {}  (compacted: {})",
            self.soc_name,
            self.pattern_count,
            self.compacted_counts
                .iter()
                .map(|(i, c)| format!("g{i}={c}"))
                .collect::<Vec<_>>()
                .join(", ")
        )?;
        write!(f, "{:>5} {:>10}", "Wmax", "T_[8]")?;
        for &(i, _) in self.rows.first().map_or(&[][..], |r| &r.t_partitioned) {
            write!(f, " {:>10}", format!("T_g{i}"))?;
        }
        writeln!(f, " {:>10} {:>8} {:>7}", "T_min", "dT[8]%", "dTg%")?;
        for row in &self.rows {
            write!(f, "{:>5} {:>10}", row.w_max, row.t_baseline)?;
            for &(_, t) in &row.t_partitioned {
                write!(f, " {t:>10}")?;
            }
            writeln!(
                f,
                " {:>10} {:>8.2} {:>7.2}",
                row.t_min(),
                row.delta_baseline_pct(),
                row.delta_g_pct()
            )?;
        }
        Ok(())
    }
}

/// Runs the full sweep for one SOC: generates `N_r` random SI patterns
/// (the paper's recipe), compacts them once per partition count, then
/// optimizes the TAM for every width — SI-obliviously for `T_[8]` and
/// SI-aware for every `T_gi`.
///
/// # Errors
///
/// Forwards generation, compaction and optimization errors.
pub fn run_table(soc: &Soc, config: &ExperimentConfig) -> Result<ExperimentTable, SoctamError> {
    run_table_opts(soc, config, &Pool::serial(), &TableOpts::default())
}

/// Optional extras for a table run, all defaulting to off. None of them
/// changes results — the cache only skips recomputation, the probe pool
/// only reschedules speculative candidate probes (reduced in candidate
/// order either way) and the progress sink is purely advisory.
#[derive(Clone, Debug, Default)]
pub struct TableOpts {
    /// Shared evaluator cache, reused across the grid and across calls.
    /// It only skips recomputation: cache keys carry a per-context
    /// fingerprint, so entries from other SOCs or sweeps never alias.
    pub cache: Option<soctam_tam::EvalCache>,
    /// Pool for the optimizer's speculative candidate probing; `None`
    /// keeps probes on the calling worker.
    pub probe_pool: Option<Pool>,
    /// Progress sink for a live display (phase, probes, best `T_soc`).
    pub progress: Option<Arc<Progress>>,
    /// Cooperative cancellation: a tripped token makes every remaining
    /// grid cell degrade to its best-so-far architecture (the run still
    /// returns a complete, valid table).
    pub cancel: Option<CancelToken>,
    /// TAM-optimization backend used for every grid cell (baseline
    /// column included). Defaults to [`BackendKind::TrArchitect`].
    pub backend: BackendKind,
}

/// [`run_table`] with every stage on `pool` and the extras in `opts`:
/// pattern generation fans out per pattern, compaction per partition
/// count and the `widths × (baseline + partitions)` optimization grid
/// per cell. The grid is reduced in sweep order, so the table is
/// bit-identical to the serial run for any pool size.
///
/// # Errors
///
/// Same contract as [`run_table`].
pub fn run_table_opts(
    soc: &Soc,
    config: &ExperimentConfig,
    pool: &Pool,
    opts: &TableOpts,
) -> Result<ExperimentTable, SoctamError> {
    let cache = opts.cache.as_ref();
    let metrics = pool.metrics();
    let raw = metrics.time("generate", || {
        SiPatternSet::random_with(
            soc,
            &RandomPatternConfig::new(config.pattern_count).with_seed(config.seed),
            pool,
        )
    })?;

    // Compaction is width-independent: do it once per partition count.
    let compacted: Result<Vec<_>, _> = metrics.time("compact", || {
        pool.par_map(&config.partitions, |&parts| {
            compact_two_dimensional_with(
                soc,
                &raw,
                &CompactionConfig::new(parts).with_seed(config.seed),
                pool,
            )
            .map(|c| (parts, c.total_patterns(), SiGroupSpec::from_compacted(&c)))
        })
        .into_iter()
        .collect()
    });
    let compacted = compacted?;
    let compacted_counts: Vec<(u32, u64)> =
        compacted.iter().map(|&(i, count, _)| (i, count)).collect();
    let compacted_groups: Vec<(u32, Vec<SiGroupSpec>)> = compacted
        .into_iter()
        .map(|(i, _, groups)| (i, groups))
        .collect();
    // The baseline schedules the 1-D-compacted tests (or the first sweep
    // entry when 1 is not swept).
    let baseline_groups: Vec<SiGroupSpec> = compacted_groups
        .iter()
        .find(|&&(i, _)| i == 1)
        .or(compacted_groups.first())
        .map(|(_, g)| g.clone())
        .unwrap_or_default();

    // One grid point per (width, column): column 0 is the baseline,
    // column j > 0 the (j-1)-th partition sweep entry.
    let columns = 1 + compacted_groups.len();
    let grid: Vec<(u32, usize)> = config
        .widths
        .iter()
        .flat_map(|&w| (0..columns).map(move |col| (w, col)))
        .collect();
    let times: Result<Vec<u64>, SoctamError> = metrics.time("optimize", || {
        pool.par_map(&grid, |&(w_max, col)| {
            let (groups, objective) = if col == 0 {
                (&baseline_groups, Objective::InTestOnly)
            } else {
                (&compacted_groups[col - 1].1, Objective::Total)
            };
            let ctx = BackendCtx {
                soc,
                max_width: w_max,
                groups,
                objective,
                restarts: 1,
                pool: pool.clone(),
                probe_pool: opts.probe_pool.clone(),
                budget: Default::default(),
                eval_cache: cache.cloned(),
                progress: opts.progress.as_ref().map(Arc::clone),
                cancel: opts.cancel.clone(),
            };
            Ok(backend_for(opts.backend)
                .optimize(&ctx)?
                .evaluation()
                .t_total())
        })
        .into_iter()
        .collect()
    });
    let times = times?;

    let rows = config
        .widths
        .iter()
        .enumerate()
        .map(|(wi, &w_max)| {
            let cell = |col: usize| times[wi * columns + col];
            TableRow {
                w_max,
                t_baseline: cell(0),
                t_partitioned: compacted_groups
                    .iter()
                    .enumerate()
                    .map(|(j, (parts, _))| (*parts, cell(j + 1)))
                    .collect(),
            }
        })
        .collect();

    Ok(ExperimentTable {
        soc_name: soc.name().to_owned(),
        pattern_count: config.pattern_count,
        compacted_counts,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use soctam_model::Benchmark;

    #[test]
    fn small_sweep_produces_consistent_rows() {
        let soc = Benchmark::D695.soc();
        let config = ExperimentConfig {
            pattern_count: 300,
            widths: vec![8, 24],
            partitions: vec![1, 2],
            seed: 3,
        };
        let table = run_table(&soc, &config).expect("runs");
        assert_eq!(table.rows.len(), 2);
        for row in &table.rows {
            assert!(row.t_min() <= row.t_baseline.max(row.t_partitioned[0].1));
            assert!(row.t_partitioned.iter().all(|&(_, t)| t > 0));
        }
        // Wider TAM is never slower.
        assert!(table.rows[1].t_min() <= table.rows[0].t_min());
    }

    #[test]
    fn display_renders_all_columns() {
        let soc = Benchmark::D695.soc();
        let config = ExperimentConfig {
            pattern_count: 200,
            widths: vec![16],
            partitions: vec![1, 4],
            seed: 7,
        };
        let table = run_table(&soc, &config).expect("runs");
        let rendered = table.to_string();
        assert!(rendered.contains("T_[8]"));
        assert!(rendered.contains("T_g1"));
        assert!(rendered.contains("T_g4"));
        assert!(rendered.contains("T_min"));
    }

    #[test]
    fn delta_metrics_match_definitions() {
        let row = TableRow {
            w_max: 8,
            t_baseline: 200,
            t_partitioned: vec![(1, 150), (2, 100)],
        };
        assert_eq!(row.t_min(), 100);
        assert!((row.delta_baseline_pct() - 50.0).abs() < 1e-9);
        assert!((row.delta_g_pct() - 100.0 / 3.0).abs() < 1e-9);
    }
}
