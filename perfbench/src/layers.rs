//! The layered pipeline: each layer's public function called in pipeline
//! order from the benchmark, with one span per call, plus the referee
//! that checks every result.
//!
//! The *pipeline* part (generate, validate, one `compact_two_dimensional_with`
//! per partition count, one backend `optimize` per grid cell) is the work
//! the `optimize` and `table` tools do. The *referee* part then re-runs
//! each compaction one layer at a time (pack, group with its hypergraph
//! build and partition, per-bucket cover) so their times can be set
//! against `compaction.total`, and re-checks every architecture with a
//! fresh `Evaluator` and a fresh `ScheduleSITest` run.

use std::collections::{BTreeMap, HashSet};

use soctam::compaction::{
    build_core_hypergraph_packed, compact_two_dimensional_with, group_patterns_packed,
    CompactedSiTests, CompactionConfig,
};
use soctam::experiment::{ExperimentTable, TableRow};
use soctam::hypergraph::PartitionConfig;
use soctam::patterns::packed::words_for_terminals;
use soctam::patterns::{first_fit_cover, KernelStats, PackedLayout, PackedSet};
use soctam::tam::{
    backend_for, render_schedule, schedule_si_tests, BackendCtx, BackendKind, Evaluator, Objective,
    OptimizedArchitecture, SiGroupSpec, TestRailArchitecture,
};
use soctam::{Benchmark, MetricsSnapshot, Pool, RandomPatternConfig, SiPattern, SiPatternSet, Soc};

use crate::trace::{SpanId, Tracer};

/// One SOC at one raw pattern count, with the `(W_max, i)` grid cells
/// to optimize on it.
#[derive(Clone, Debug)]
pub struct Group {
    pub soc: Benchmark,
    pub patterns: usize,
    /// Pattern-generation and partitioner seed (the tools' `seed`).
    pub seed: u64,
    /// `(width, parts)` cells, SI-aware objective.
    pub cells: Vec<(u32, u32)>,
    /// Adds the Table 2/3 InTest-only baseline column for every width,
    /// scheduled on the 1-D (or first) compaction.
    pub baseline: bool,
}

impl Group {
    pub fn widths(&self) -> Vec<u32> {
        distinct(self.cells.iter().map(|c| c.0))
    }

    pub fn parts(&self) -> Vec<u32> {
        distinct(self.cells.iter().map(|c| c.1))
    }
}

fn distinct(values: impl Iterator<Item = u32>) -> Vec<u32> {
    let mut out: Vec<u32> = Vec::new();
    for v in values {
        if !out.contains(&v) {
            out.push(v);
        }
    }
    out
}

/// The SOCs a workload uses, built once in set-up.
pub struct Socs(Vec<(Benchmark, Soc)>);

impl Socs {
    pub fn build(groups: &[Group]) -> Socs {
        let mut socs: Vec<(Benchmark, Soc)> = Vec::new();
        for g in groups {
            if !socs.iter().any(|(b, _)| *b == g.soc) {
                socs.push((g.soc, g.soc.soc()));
            }
        }
        Socs(socs)
    }

    pub fn get(&self, bench: Benchmark) -> &Soc {
        &self
            .0
            .iter()
            .find(|(b, _)| *b == bench)
            .expect("every group's SOC is built in set-up")
            .1
    }
}

/// What the referee needs to link one SI-aware cell to the `optimize`
/// tool's report.
#[derive(Clone, Debug)]
pub struct CellReport {
    pub soc: Benchmark,
    pub patterns: usize,
    pub seed: u64,
    pub width: u32,
    pub parts: u32,
    pub compacted: u64,
    pub t_soc_cc: u64,
    pub architecture: String,
    pub schedule: String,
}

/// Everything one layered run produced.
#[derive(Default)]
pub struct Outcome {
    /// Sum of `T_soc` over every grid cell (baseline cells included).
    pub t_soc_cc: u64,
    /// Sum of compacted pattern counts over every compaction.
    pub compacted_patterns: u64,
    /// Referee failures; empty when every result checked out.
    pub errors: Vec<String>,
    /// Deterministic work counters and ratios, by metric name.
    pub counters: BTreeMap<&'static str, f64>,
    /// One `(seed, table)` per group that carries the baseline column.
    pub tables: Vec<(u64, ExperimentTable)>,
    /// One report per SI-aware cell, in group and cell order.
    pub cells: Vec<CellReport>,
}

struct Compaction {
    parts: u32,
    compacted: CompactedSiTests,
    specs: Vec<SiGroupSpec>,
}

struct GridCell {
    width: u32,
    parts: u32,
    /// Index into the group's compactions.
    compaction: usize,
    objective: Objective,
}

/// Runs every group of the workload layer by layer under `parent`.
pub fn run(tracer: &Tracer, parent: SpanId, socs: &Socs, groups: &[Group], pool: &Pool) -> Outcome {
    let mut out = Outcome::default();
    let metrics = pool.metrics();
    let mut tam_delta = Delta::default();
    let before = metrics.snapshot();
    // Raw patterns are kept for the traced replay only: an untraced run
    // over many large variants would otherwise hold every raw set at once.
    type Done = (
        Group,
        Option<SiPatternSet>,
        Vec<Compaction>,
        Vec<GridCell>,
        Vec<OptimizedArchitecture>,
    );
    let mut done: Vec<Done> = Vec::new();

    tracer.span(parent, "pipeline", |pid| {
        for group in groups {
            let (soc, seed) = (socs.get(group.soc), group.seed);
            let raw = tracer.span(pid, "patterns.generate", |_| {
                SiPatternSet::random_with(
                    soc,
                    &RandomPatternConfig::new(group.patterns).with_seed(seed),
                    pool,
                )
            });
            let raw = match raw {
                Ok(raw) => raw,
                Err(e) => {
                    out.errors
                        .push(format!("{}: generation failed: {e}", group.soc));
                    continue;
                }
            };
            let valid = tracer.span(pid, "patterns.validate", |_| {
                soc.validate().is_ok() && raw.validate(soc).is_ok() && raw.validate_for(soc).is_ok()
            });
            if !valid {
                out.errors
                    .push(format!("{}: SOC or pattern validation failed", group.soc));
                continue;
            }
            let mut compactions = Vec::new();
            for parts in group.parts() {
                let result = tracer.span(pid, "compaction.total", |_| {
                    compact_two_dimensional_with(
                        soc,
                        &raw,
                        &CompactionConfig::new(parts).with_seed(seed),
                        pool,
                    )
                });
                match result {
                    Ok(compacted) => {
                        let specs = SiGroupSpec::from_compacted(&compacted);
                        compactions.push(Compaction {
                            parts,
                            compacted,
                            specs,
                        });
                    }
                    Err(e) => out
                        .errors
                        .push(format!("{} i={parts}: compaction failed: {e}", group.soc)),
                }
            }
            if compactions.len() != group.parts().len() {
                continue;
            }
            let grid = grid(group, &compactions);
            let tam_before = metrics.snapshot();
            let results = pool.par_map(&grid, |cell| {
                let c = &compactions[cell.compaction];
                tracer.span(pid, "tam.optimize", |_| {
                    let ctx = BackendCtx {
                        objective: cell.objective,
                        pool: pool.clone(),
                        ..BackendCtx::new(soc, cell.width, &c.specs)
                    };
                    backend_for(BackendKind::TrArchitect).optimize(&ctx)
                })
            });
            tam_delta.add(&tam_before, &metrics.snapshot());
            let mut archs = Vec::new();
            for (cell, result) in grid.iter().zip(results) {
                match result {
                    Ok(arch) => archs.push(arch),
                    Err(e) => out.errors.push(format!(
                        "{} W={} i={}: optimization failed: {e}",
                        group.soc, cell.width, cell.parts
                    )),
                }
            }
            if archs.len() == grid.len() {
                let raw = tracer.enabled().then_some(raw);
                done.push((group.clone(), raw, compactions, grid, archs));
            }
        }
    });
    let pipeline_delta = Delta::between(&before, &metrics.snapshot());
    if done.len() != groups.len() {
        return out;
    }

    let mut counts = Counts::default();
    tracer.span(parent, "referee", |rid| {
        for (group, raw, compactions, grid, archs) in &done {
            let soc = socs.get(group.soc);
            for c in compactions {
                let stats = c.compacted.stats();
                out.compacted_patterns += c.compacted.total_patterns();
                counts.words += stats.kernel_words_compared;
                counts.rejects += stats.kernel_fast_rejects;
                counts.duplicates += stats.duplicate_patterns as u64;
                counts.remainder += stats.raw_remainder_patterns as u64;
                counts.raw += stats.raw_patterns as u64;
                // The layer-by-layer replay only serves the traced run's
                // time breakdown; untraced checks skip its cost.
                if let Some(raw) = raw {
                    match replay_compaction(tracer, rid, pool, soc, raw, c, group.seed) {
                        Ok((edges, cut)) => {
                            counts.edges += edges;
                            counts.cut += cut;
                        }
                        Err(e) => out.errors.push(format!("{} i={}: {e}", group.soc, c.parts)),
                    }
                }
            }
            let mut t_cells = Vec::new();
            for (cell, arch) in grid.iter().zip(archs) {
                let c = &compactions[cell.compaction];
                if let Err(e) = referee_cell(tracer, rid, soc, cell.width, &c.specs, arch) {
                    out.errors.push(format!(
                        "{} W={} i={}: {e}",
                        group.soc, cell.width, cell.parts
                    ));
                }
                let t = arch.evaluation().t_total();
                out.t_soc_cc += t;
                t_cells.push(t);
                if cell.objective == Objective::Total {
                    out.cells.push(CellReport {
                        soc: group.soc,
                        patterns: group.patterns,
                        seed: group.seed,
                        width: cell.width,
                        parts: cell.parts,
                        compacted: c.compacted.total_patterns(),
                        t_soc_cc: t,
                        architecture: arch.architecture().to_string(),
                        schedule: render_schedule(arch.architecture(), arch.evaluation()),
                    });
                }
            }
            if group.baseline {
                out.tables
                    .push((group.seed, table(group, compactions, grid, &t_cells)));
            }
        }
    });

    let c = &mut out.counters;
    c.insert("hypergraph.edges", counts.edges as f64);
    c.insert("hypergraph.cut_weight", counts.cut as f64);
    c.insert("compaction.kernel_words_compared", counts.words as f64);
    c.insert("compaction.fast_rejects", counts.rejects as f64);
    c.insert("compaction.duplicates_removed", counts.duplicates as f64);
    c.insert(
        "compaction.remainder_ratio",
        ratio(counts.remainder, counts.raw),
    );
    c.insert("tam.rail_eval_hits", tam_delta.rail_hits as f64);
    c.insert("tam.rail_eval_misses", tam_delta.rail_misses as f64);
    c.insert(
        "tam.rail_eval_hit_ratio",
        ratio(
            tam_delta.rail_hits,
            tam_delta.rail_hits + tam_delta.rail_misses,
        ),
    );
    c.insert("tam.probes", tam_delta.probes as f64);
    c.insert("tam.probe_batches", tam_delta.probe_batches as f64);
    c.insert("tam.probe_wasted", tam_delta.probe_wasted as f64);
    c.insert("tam.schedule_reuse", tam_delta.schedule_reuse as f64);
    c.insert("exec.tasks", pipeline_delta.tasks as f64);
    c.insert("exec.steals", pipeline_delta.steals as f64);
    c.insert(
        "exec.cache_hit_ratio",
        ratio(
            pipeline_delta.cache_hits,
            pipeline_delta.cache_hits + pipeline_delta.cache_misses,
        ),
    );
    c.insert(
        "exec.cache_evictions",
        pipeline_delta.cache_evictions as f64,
    );
    out
}

/// The counters [`run`] reports that must repeat exactly from run to run
/// (work steals depend on thread timing and are left out).
pub const DETERMINISTIC: &[&str] = &[
    "hypergraph.edges",
    "hypergraph.cut_weight",
    "compaction.kernel_words_compared",
    "compaction.fast_rejects",
    "compaction.duplicates_removed",
    "compaction.remainder_ratio",
    "tam.rail_eval_hits",
    "tam.rail_eval_misses",
    "tam.probes",
    "tam.probe_batches",
    "tam.probe_wasted",
    "tam.schedule_reuse",
    "exec.tasks",
];

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The grid in `run_table_opts` order: per width, the baseline column
/// (when asked for) and then every SI-aware cell of that width.
fn grid(group: &Group, compactions: &[Compaction]) -> Vec<GridCell> {
    let index = |parts: u32| {
        compactions
            .iter()
            .position(|c| c.parts == parts)
            .expect("one compaction per distinct partition count")
    };
    let baseline = compactions.iter().position(|c| c.parts == 1).unwrap_or(0);
    let mut cells = Vec::new();
    for width in group.widths() {
        if group.baseline {
            cells.push(GridCell {
                width,
                parts: compactions[baseline].parts,
                compaction: baseline,
                objective: Objective::InTestOnly,
            });
        }
        for &(w, parts) in group.cells.iter().filter(|c| c.0 == width) {
            cells.push(GridCell {
                width: w,
                parts,
                compaction: index(parts),
                objective: Objective::Total,
            });
        }
    }
    cells
}

/// The `ExperimentTable` the `table` tool must print for this group.
fn table(
    group: &Group,
    compactions: &[Compaction],
    grid: &[GridCell],
    times: &[u64],
) -> ExperimentTable {
    let rows = group
        .widths()
        .into_iter()
        .map(|w| {
            let mut cells = grid.iter().zip(times).filter(|(c, _)| c.width == w);
            let t_baseline = cells.next().map_or(0, |(_, &t)| t);
            TableRow {
                w_max: w,
                t_baseline,
                t_partitioned: cells.map(|(c, &t)| (c.parts, t)).collect(),
            }
        })
        .collect();
    ExperimentTable {
        soc_name: group.soc.name().to_owned(),
        pattern_count: group.patterns,
        compacted_counts: compactions
            .iter()
            .map(|c| (c.parts, c.compacted.total_patterns()))
            .collect(),
        rows,
    }
}

#[derive(Default)]
struct Counts {
    edges: u64,
    cut: u64,
    words: u64,
    rejects: u64,
    duplicates: u64,
    remainder: u64,
    raw: u64,
}

/// Re-runs one compaction layer by layer and checks that the layers
/// reproduce what `compact_two_dimensional_with` reported. Returns the
/// hypergraph's edge count and cut weight (0 at i = 1).
fn replay_compaction(
    tracer: &Tracer,
    parent: SpanId,
    pool: &Pool,
    soc: &Soc,
    raw: &SiPatternSet,
    c: &Compaction,
    seed: u64,
) -> Result<(u64, u64), String> {
    let stats = c.compacted.stats();
    let parts = c.parts;
    let set = tracer.span(parent, "patterns.pack", |_| {
        PackedSet::build(raw.as_slice())
    });
    let layout = PackedLayout::new(soc);
    let config = CompactionConfig::new(parts)
        .with_seed(seed)
        .partition_config;
    let grouping = tracer
        .span(parent, "compaction.group", |_| {
            group_patterns_packed(soc, &set, &layout, parts, &config)
        })
        .map_err(|e| format!("grouping failed: {e}"))?;
    let mut graph = (0, 0);
    if parts > 1 {
        let hg = tracer.span(parent, "hypergraph.build", |_| {
            build_core_hypergraph_packed(soc, &set, &layout)
        });
        let partition = tracer
            .span(parent, "hypergraph.partition", |_| {
                hg.partition(&PartitionConfig {
                    parts,
                    ..config.clone()
                })
            })
            .map_err(|e| format!("partitioning failed: {e}"))?;
        let cut = partition.cut_weight(&hg);
        if partition.assignment() != grouping.core_part.as_slice() || cut != grouping.cut_weight {
            return Err("hypergraph partition differs from the grouping's".to_owned());
        }
        graph = (hg.num_edges() as u64, cut);
    }

    // Exact-duplicate removal, keep-first, as the pipeline does it.
    let mut seen: HashSet<&SiPattern> = HashSet::new();
    let mut dedup = |indices: &[usize]| -> Vec<u32> {
        seen.clear();
        indices
            .iter()
            .filter(|&&i| seen.insert(&raw.as_slice()[i]))
            .map(|&i| i as u32)
            .collect()
    };
    let mut work: Vec<Vec<u32>> = grouping.buckets.iter().map(|b| dedup(b)).collect();
    let remainder = !grouping.remainder.is_empty();
    if remainder {
        work.push(dedup(&grouping.remainder));
    }
    let duplicates = raw.len() - work.iter().map(Vec::len).sum::<usize>();

    // Buckets are covered on the pool, as the pipeline does it, so the
    // cover span is comparable with `compaction.total`; one child span per
    // non-empty bucket holds its busy time.
    let terminal_words = words_for_terminals(soc.total_wocs() as usize);
    let covers = tracer.span(parent, "compaction.cover", |cid| {
        pool.par_map(&work, |visit| {
            if visit.is_empty() {
                return (0, KernelStats::default());
            }
            tracer.span(cid, "compaction.cover.bucket", |_| {
                let (cliques, stats) = first_fit_cover(&set, visit, terminal_words);
                (cliques.len(), stats)
            })
        })
    });
    let mut kernel = KernelStats::default();
    let mut cover_counts = Vec::new();
    for (count, stats) in covers {
        kernel.merge(stats);
        cover_counts.push(count);
    }
    let remainder_count = if remainder {
        cover_counts.pop().unwrap_or(0)
    } else {
        0
    };
    if cover_counts != stats.group_patterns
        || remainder_count != stats.remainder_patterns
        || kernel.words_compared != stats.kernel_words_compared
        || kernel.fast_rejects != stats.kernel_fast_rejects
        || duplicates != stats.duplicate_patterns
        || grouping.remainder.len() != stats.raw_remainder_patterns
    {
        return Err(
            "layer-by-layer compaction differs from compact_two_dimensional_with".to_owned(),
        );
    }
    Ok(graph)
}

/// The correctness gate for one architecture: it validates, respects
/// `W_max`, re-evaluates bit-identically under a fresh `Evaluator`, and
/// a fresh `ScheduleSITest` run reproduces its schedule.
fn referee_cell(
    tracer: &Tracer,
    parent: SpanId,
    soc: &Soc,
    width: u32,
    specs: &[SiGroupSpec],
    arch: &OptimizedArchitecture,
) -> Result<(), String> {
    if arch.degraded() {
        return Err("result is degraded".to_owned());
    }
    let eval = arch.evaluation();
    if !eval.schedule.validate().is_ok() {
        return Err("SI schedule fails validation".to_owned());
    }
    TestRailArchitecture::new(soc, arch.architecture().rails().to_vec())
        .map_err(|e| format!("architecture invalid: {e}"))?;
    if arch.architecture().check_width(width).is_err() || arch.architecture().total_width() > width
    {
        return Err(format!("architecture exceeds W_max={width}"));
    }
    let fresh = tracer.span(parent, "tam.evaluate", |_| {
        Evaluator::new(soc, width, specs.to_vec()).map(|r| r.evaluate(arch.architecture()))
    });
    match fresh {
        Ok(fresh) if &fresh == eval => {}
        Ok(_) => return Err("fresh Evaluator disagrees with the reported evaluation".to_owned()),
        Err(e) => return Err(format!("referee evaluator: {e}")),
    }
    let schedule = tracer.span(parent, "tam.schedule", |_| {
        schedule_si_tests(&eval.group_times)
    });
    if schedule != *eval.schedule {
        return Err("ScheduleSITest does not reproduce the reported schedule".to_owned());
    }
    Ok(())
}

/// Counter differences between two pool-metrics snapshots.
#[derive(Default)]
struct Delta {
    tasks: u64,
    steals: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    rail_hits: u64,
    rail_misses: u64,
    probes: u64,
    probe_batches: u64,
    probe_wasted: u64,
    schedule_reuse: u64,
}

impl Delta {
    fn between(a: &MetricsSnapshot, b: &MetricsSnapshot) -> Delta {
        let mut d = Delta::default();
        d.add(a, b);
        d
    }

    fn add(&mut self, a: &MetricsSnapshot, b: &MetricsSnapshot) {
        self.tasks += b.tasks_executed - a.tasks_executed;
        self.steals += b.steals - a.steals;
        self.cache_hits += b.cache_hits - a.cache_hits;
        self.cache_misses += b.cache_misses - a.cache_misses;
        self.cache_evictions += b.cache_evictions - a.cache_evictions;
        self.rail_hits += b.rail_eval_hits - a.rail_eval_hits;
        self.rail_misses += b.rail_eval_misses - a.rail_eval_misses;
        self.probes += b.speculative_probes - a.speculative_probes;
        self.probe_batches += b.probe_batches - a.probe_batches;
        self.probe_wasted += b.probe_wasted - a.probe_wasted;
        self.schedule_reuse += b.schedule_reuses - a.schedule_reuses;
    }
}
