//! Architecture evaluation: InTest times, SI test times
//! (`CalculateSITestTime`) and the combined objective.
//!
//! Evaluation is *compositional*: each rail contributes an independent
//! [`RailEval`] (its InTest time plus its per-group shift sums), and an
//! architecture evaluation is a cheap reduction over its rails'
//! components. Because the optimizer's moves change only one or two
//! rails at a time, components are memoized by rail fingerprint and the
//! one delta primitive, [`SwapState`], patches the reductions of an
//! evaluated architecture per swapped component — reusing the Algorithm
//! 1 makespan whenever no group row changed. Costs and readouts are
//! bit-identical to a from-scratch evaluation (see DESIGN.md §12).

use std::sync::Arc;

use soctam_exec::{fault, fx_fingerprint128, Fingerprinter, FpKey, MemoCache, Metrics};
use soctam_model::{CoreId, Soc};
use soctam_wrapper::TimeTable;

use crate::schedule::{schedule_si_tests, SiSchedule};
use crate::{TamError, TestRail, TestRailArchitecture};

/// Cache shard count; evaluation keys hash cheaply, contention is low.
const CACHE_SHARDS: usize = 16;

/// Cache namespace: per-rail components keyed by rail fingerprint.
const SPACE_RAIL: u8 = 0;
/// Cache namespace: assembled evaluations keyed by architecture
/// fingerprint.
const SPACE_ARCH: u8 = 1;
/// Cache namespace: Algorithm 1 schedules keyed by group-times
/// fingerprint.
const SPACE_SCHED: u8 = 2;
/// Cache namespace: `time_used` staircases keyed by core-set
/// fingerprint.
const SPACE_USED: u8 = 3;
/// Cache namespace: Algorithm 1 makespans keyed by group-times
/// fingerprint (the cost-only sibling of [`SPACE_SCHED`]).
const SPACE_MAKESPAN: u8 = 4;
/// Cache namespace: objective costs of speculative wire
/// redistributions, keyed by (candidate rails, freed wires, objective).
const SPACE_DIST: u8 = 5;

/// One value of the shared evaluation store. All six logical caches
/// (rail components, assembled architectures, schedules, staircases,
/// makespans, redistribution costs) live in a single sharded
/// [`MemoCache`], disambiguated by the [`FpKey`] namespace tag.
#[derive(Clone, Debug)]
enum Cached {
    Rail(Arc<RailEval>),
    Arch(Arc<Evaluation>),
    Sched(Arc<SiSchedule>),
    Used(Arc<Vec<u64>>),
    Makespan(u64),
    Cost(u64),
}

/// A shareable evaluation store, usable across many [`Evaluator`]s —
/// and, in `soctam-serve`, across many requests: every key an
/// evaluator issues is mixed with a fingerprint of its full evaluation
/// context (SOC, width budget, SI groups), so evaluators with
/// different contexts can share one warm store without aliasing while
/// identical contexts get cross-run cache hits.
///
/// Cheap to clone (an `Arc` handle). An optional capacity bound evicts
/// the oldest entries FIFO so a long-running service cannot grow
/// without limit; eviction only costs recomputation, never changes
/// results.
#[derive(Clone, Debug)]
pub struct EvalCache {
    store: Arc<MemoCache<FpKey, Cached>>,
}

impl Default for EvalCache {
    fn default() -> Self {
        Self::new()
    }
}

impl EvalCache {
    /// Shard count for shared stores: higher than the per-run default
    /// because many concurrent requests may hit one store.
    const SHARED_SHARDS: usize = 64;

    /// Creates an unbounded shared store.
    pub fn new() -> Self {
        EvalCache {
            store: Arc::new(MemoCache::new(Self::SHARED_SHARDS)),
        }
    }

    /// Creates a shared store holding at most `capacity` entries;
    /// beyond that the oldest entries are evicted (FIFO).
    pub fn with_capacity(capacity: usize) -> Self {
        EvalCache {
            store: Arc::new(MemoCache::bounded(Self::SHARED_SHARDS, capacity)),
        }
    }

    /// As [`EvalCache::with_capacity`], reporting hits, misses and
    /// evictions to `metrics`.
    pub fn with_capacity_and_metrics(capacity: usize, metrics: Arc<Metrics>) -> Self {
        EvalCache {
            store: Arc::new(MemoCache::bounded_with_metrics(
                Self::SHARED_SHARDS,
                capacity,
                metrics,
            )),
        }
    }

    /// Number of live entries across every namespace.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True when the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Entries evicted by the capacity bound over the store's lifetime.
    pub fn evictions(&self) -> u64 {
        self.store.evictions()
    }

    /// The configured capacity bound, when one was set.
    pub fn capacity(&self) -> Option<usize> {
        self.store.capacity()
    }

    /// Drops every cached entry.
    pub fn clear(&self) {
        self.store.clear();
    }
}

/// Fingerprint identifying a rail's evaluation-relevant content: its
/// width and hosted cores. Collision odds are the documented
/// ~N²/2¹²⁹ of [`fx_fingerprint128`] — negligible for any reachable
/// number of distinct rails.
/// The fingerprint is composed from the core list's own fingerprint so
/// width-only probes (the optimizer's hottest lookup) can key the rail
/// cache without rehashing the core list.
fn rail_fingerprint_fp(width: u32, cores_fp: u128) -> u128 {
    fx_fingerprint128(&(width, cores_fp))
}

/// Fingerprint identifying an architecture: the exact rail list (width
/// plus hosted cores, in rail order). Replaces the old `ArchKey`
/// full-key clone (`Vec<(u32, Vec<CoreId>)>` per candidate) with a hash
/// pass.
fn arch_fingerprint(rails: &[TestRail]) -> u128 {
    fx_fingerprint128(&rails)
}

/// Fingerprint of `base` with the sorted `(index, row)` substitutions
/// in `changed` applied — without building the patched vector. The
/// digest is slice-compatible: with `changed` empty it equals
/// `fx_fingerprint128(&base)` (length prefix, then rows element-wise),
/// so patched and owned group-times key the same schedule/makespan
/// cache entries.
fn group_times_fp(base: &[SiGroupTime], changed: &[(usize, SiGroupTime)]) -> u128 {
    debug_assert!(changed.windows(2).all(|w| w[0].0 < w[1].0));
    let mut fp = Fingerprinter::new();
    fp.write(&base.len());
    let mut pending = changed.iter().peekable();
    for (g, row) in base.iter().enumerate() {
        match pending.peek() {
            Some((cg, crow)) if *cg == g => {
                fp.write(crow);
                pending.next();
            }
            _ => fp.write(row),
        }
    }
    fp.finish()
}

/// A compacted SI test group as the TAM layer sees it: the involved cores
/// and the compacted pattern count (`C(s)` and `pattern(s)` of Fig. 4).
///
/// # Example
///
/// ```
/// use soctam_model::CoreId;
/// use soctam_tam::SiGroupSpec;
///
/// let spec = SiGroupSpec::new(vec![CoreId::new(1), CoreId::new(0)], 250);
/// assert_eq!(spec.cores(), &[CoreId::new(0), CoreId::new(1)]);
/// assert_eq!(spec.patterns(), 250);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SiGroupSpec {
    cores: Vec<CoreId>,
    patterns: u64,
}

impl SiGroupSpec {
    /// Creates a group spec; cores are sorted and deduplicated.
    pub fn new(mut cores: Vec<CoreId>, patterns: u64) -> Self {
        cores.sort_unstable();
        cores.dedup();
        SiGroupSpec { cores, patterns }
    }

    /// The involved cores, sorted.
    pub fn cores(&self) -> &[CoreId] {
        &self.cores
    }

    /// The compacted pattern count.
    pub fn patterns(&self) -> u64 {
        self.patterns
    }

    /// Builds the scheduling specs for every group of a compaction result,
    /// in group order (remainder last when present).
    pub fn from_compacted(compacted: &soctam_compaction::CompactedSiTests) -> Vec<SiGroupSpec> {
        compacted.groups().iter().map(SiGroupSpec::from).collect()
    }
}

impl From<&soctam_compaction::SiTestGroup> for SiGroupSpec {
    fn from(group: &soctam_compaction::SiTestGroup) -> Self {
        SiGroupSpec::new(group.cores().to_vec(), group.pattern_count())
    }
}

/// Timing of one SI test group under a concrete architecture (the output
/// of `CalculateSITestTime`).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SiGroupTime {
    /// `time_si(s)`: the bottleneck rail's total shift time.
    pub time: u64,
    /// Indices of the rails involved (`R_tam(s)`), sorted.
    pub rails: Vec<usize>,
    /// Index of the bottleneck rail (`r_btn(s)`), or `usize::MAX` when the
    /// group involves no rail (all cores have zero WOCs).
    pub bottleneck_rail: usize,
}

/// Per-rail evaluation component: everything one rail contributes to an
/// architecture evaluation, independent of the other rails. Memoized by
/// rail fingerprint, so a rail that survives an optimizer move (or
/// recurs across candidates and restarts) is never re-evaluated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RailEval {
    /// `time_in(r)`: the rail's InTest time.
    pub t_in: u64,
    /// The TAM width the component was computed at.
    pub width: u32,
    /// Fingerprint of the hosted core list ([`fx_fingerprint128`]);
    /// together with `width` this identifies the component.
    pub cores_fp: u128,
    /// Sparse per-group shift sums: `(group index, Σ cycles)` for every
    /// group in which this rail's cores shift a nonzero number of
    /// cycles, ascending by group index. This is the rail's column of
    /// the `CalculateSITestTime` table.
    pub group_shift: Vec<(u32, u64)>,
    /// `time_si(r)`: the saturating sum of `group_shift`'s cycles —
    /// precomputed so the probe hot path charges the rail's utilized SI
    /// time without re-folding the column.
    pub si_sum: u64,
}

/// Complete timing evaluation of one architecture.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Evaluation {
    /// Per-rail InTest time (`time_in(r)`).
    pub rail_time_in: Vec<u64>,
    /// Per-rail utilized SI time (`time_si(r)`: the rail's own shift work
    /// summed over all groups that involve it).
    pub rail_time_si: Vec<u64>,
    /// Per-group SI timing.
    pub group_times: Vec<SiGroupTime>,
    /// The SI schedule produced by Algorithm 1, shared by reference:
    /// evaluations that hit the schedule cache alias one allocation
    /// instead of deep-cloning it.
    pub schedule: Arc<SiSchedule>,
    /// `T_soc^in`: the maximum per-rail InTest time.
    pub t_in: u64,
    /// `T_soc^si`: the SI schedule makespan.
    pub t_si: u64,
    /// The per-rail components the evaluation was assembled from, in
    /// rail order. [`Evaluator::swap_state`] seeds a [`SwapState`] from
    /// them, so the rails an optimizer move does not touch are never
    /// re-evaluated.
    pub rail_evals: Vec<Arc<RailEval>>,
}

/// The cost summary of a [`SwapState`], or of one swap against it
/// ([`Evaluator::swap_cost`]), produced without materializing a full
/// [`Evaluation`]. Each field is bit-identical to the corresponding
/// quantity of the assembled evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeltaCost {
    /// `T_soc^in` of the candidate.
    pub t_in: u64,
    /// `T_soc^si` of the candidate.
    pub t_si: u64,
    /// `Σ_r time_used(r)`, saturating at `u64::MAX` — the secondary key
    /// wire rebalancing breaks ties with.
    pub rail_used_sum: u64,
}

/// `time_used(r) = time_in(r) + time_si(r)` of one component, widened
/// so a sum over rails is exact and can be patched by subtraction.
fn used_of(comp: &RailEval) -> u128 {
    u128::from(comp.t_in.saturating_add(comp.si_sum))
}

/// The single delta primitive of the evaluator: the reductions of one
/// architecture's per-rail components, patchable in place.
///
/// A state is seeded once from an [`Evaluation`]
/// ([`Evaluator::swap_state`]). [`Evaluator::swap_cost`] prices
/// replacing one rail's component without touching the state, so many
/// concurrent probes may share it; [`Evaluator::swap_apply`] accepts
/// any number of replacements in place, and [`Evaluator::readout`]
/// materializes the [`Evaluation`] — bit-identical to
/// [`Evaluator::evaluate`] on the state's rails.
///
/// Rails are addressed by *label*. A component may be removed, which
/// leaves a hole so every other rail keeps its label, and a label past
/// the end appends a rail; a merge removes both partners and appends
/// the merged rail. The rails in label order, holes skipped, are the
/// architecture the state describes. The quantities read out of the
/// state are invariant under any relabeling — the scheduler consumes
/// only group times and rail *sharing*, and the bottleneck tie-break
/// follows label order, which skipping holes preserves.
#[derive(Clone, Debug)]
pub struct SwapState {
    comps: Vec<Option<Arc<RailEval>>>,
    /// Top-two reduction of the live components' InTest times (so the
    /// maximum excluding any one rail is O(1)), with the first
    /// strict maximum as argmax.
    t_in_max: u64,
    t_in_argmax: usize,
    t_in_second: u64,
    /// Exact `Σ time_used` over the live components.
    used_sum: u128,
    /// Per-group transpose of the components' sparse shift columns,
    /// each row ascending by label.
    rows: Vec<Vec<(usize, u64)>>,
    /// Per-group `(max, argmax, second-max, second-argmax)` over the
    /// transpose row, with the first-strict-maximum tie-break of the
    /// row scan: lets [`Evaluator::swap_cost`] decide "did this group's
    /// time or bottleneck change?" in O(1) without rebuilding the row.
    tops: Vec<(u64, usize, u64, usize)>,
    group_times: Vec<SiGroupTime>,
    t_si: u64,
}

impl SwapState {
    /// `T_soc^in` of the state's architecture.
    pub fn t_in(&self) -> u64 {
        self.t_in_max
    }

    /// `T_soc^si` of the state's architecture.
    pub fn t_si(&self) -> u64 {
        self.t_si
    }

    /// The cost summary of the state's architecture.
    pub fn cost(&self) -> DeltaCost {
        DeltaCost {
            t_in: self.t_in_max,
            t_si: self.t_si,
            rail_used_sum: saturate(self.used_sum),
        }
    }

    /// The number of labels, holes included.
    pub(crate) fn len(&self) -> usize {
        self.comps.len()
    }

    /// The current component of rail `i`, or `None` for a hole.
    pub fn component(&self, i: usize) -> Option<&RailEval> {
        self.comps.get(i).and_then(Option::as_deref)
    }

    /// The rails whose time bounds the objective, ascending by label:
    /// every rail achieving `T_soc^in`, plus — when `with_si` — the
    /// bottleneck rail of every SI group.
    pub(crate) fn bottlenecks(&self, with_si: bool) -> Vec<usize> {
        let mut set = std::collections::BTreeSet::new();
        for (r, comp) in self.comps.iter().enumerate() {
            if comp.as_ref().is_some_and(|c| c.t_in == self.t_in_max) {
                set.insert(r);
            }
        }
        if with_si {
            for group in &self.group_times {
                if group.bottleneck_rail != usize::MAX {
                    set.insert(group.bottleneck_rail);
                }
            }
        }
        set.into_iter().collect()
    }

    /// Rebuilds the top-two InTest reduction after a component change.
    fn recompute_t_in(&mut self) {
        let (mut max, mut argmax, mut second) = (0u64, usize::MAX, 0u64);
        for (r, comp) in self.comps.iter().enumerate() {
            let Some(comp) = comp else { continue };
            if comp.t_in > max {
                second = max;
                max = comp.t_in;
                argmax = r;
            } else if comp.t_in > second {
                second = comp.t_in;
            }
        }
        self.t_in_max = max;
        self.t_in_argmax = argmax;
        self.t_in_second = second;
    }
}

/// The one saturating reading of an exact `Σ time_used`.
fn saturate(sum: u128) -> u64 {
    u64::try_from(sum).unwrap_or(u64::MAX)
}

/// One pass over a transpose row: its top-two reduction and its
/// [`SiGroupTime`], both with the first-strict-maximum tie-break of
/// [`Evaluator::group_times_of`].
fn row_reduction(row: &[(usize, u64)]) -> ((u64, usize, u64, usize), SiGroupTime) {
    let (mut m1, mut r1, mut m2, mut r2) = (0u64, usize::MAX, 0u64, usize::MAX);
    let mut rails = Vec::with_capacity(row.len());
    for &(r, cycles) in row {
        if cycles > m1 {
            (m2, r2) = (m1, r1);
            (m1, r1) = (cycles, r);
        } else if cycles > m2 {
            (m2, r2) = (cycles, r);
        }
        rails.push(r);
    }
    (
        (m1, r1, m2, r2),
        SiGroupTime {
            time: m1,
            rails,
            bottleneck_rail: r1,
        },
    )
}

/// Rebuilds one group's [`SiGroupTime`] row from its transpose row with
/// rail `i`'s cycles replaced by `new_c` (`None` removes the rail from
/// the group).
fn patched_row(row: &[(usize, u64)], i: usize, new_c: Option<u64>) -> SiGroupTime {
    let mut entries: Vec<(usize, u64)> = Vec::with_capacity(row.len() + 1);
    entries.extend(row.iter().copied().filter(|&(r, _)| r != i));
    if let Some(cycles) = new_c {
        let pos = entries.partition_point(|&(r, _)| r < i);
        entries.insert(pos, (i, cycles));
    }
    row_reduction(&entries).1
}

/// The group rows that differ from `st`'s after replacing rail `i`'s
/// sparse column `old_col` with `new_col`, ascending by group index;
/// empty means every row — and therefore the schedule — is unchanged.
/// Rows whose cycles change but whose time, membership and bottleneck
/// do not are *not* reported: the patched [`SiGroupTime`] would equal
/// the current one bit for bit.
fn changed_rows_for(
    st: &SwapState,
    i: usize,
    old_col: &[(u32, u64)],
    new_col: &[(u32, u64)],
) -> Vec<(usize, SiGroupTime)> {
    let mut changed_rows: Vec<(usize, SiGroupTime)> = Vec::new();
    let (mut a, mut b) = (0usize, 0usize);
    while a < old_col.len() || b < new_col.len() {
        let ga = old_col.get(a).map(|&(g, _)| g);
        let gb = new_col.get(b).map(|&(g, _)| g);
        let (g, old_c, new_c) = match (ga, gb) {
            (Some(x), Some(y)) if x == y => {
                let pair = (x, Some(old_col[a].1), Some(new_col[b].1));
                a += 1;
                b += 1;
                pair
            }
            (Some(x), gy) if gy.map_or(true, |y| x < y) => {
                let pair = (x, Some(old_col[a].1), None);
                a += 1;
                pair
            }
            (_, Some(y)) => {
                let pair = (y, None, Some(new_col[b].1));
                b += 1;
                pair
            }
            // Both cursors dead contradicts the loop condition, and
            // the second arm's guard caught a live `a` with a dead
            // `b` — only the checker can reach this arm.
            (_, None) => break,
        };
        if old_c == new_c {
            continue;
        }
        let g = g as usize;
        if let (Some(_), Some(new_cycles)) = (old_c, new_c) {
            // Membership unchanged: the patched row keeps the current
            // rail list, and its time/bottleneck follow in O(1) from
            // the top-two (max excluding rail `i`, then the candidate
            // cycles; ties resolve to the lowest label, matching the
            // row scan's first-strict-maximum).
            let (m1, r1, m2, r2) = st.tops[g];
            let (excl_max, excl_arg) = if r1 == i { (m2, r2) } else { (m1, r1) };
            let (time, bottleneck) = if new_cycles > excl_max {
                (new_cycles, i)
            } else if new_cycles == excl_max {
                (excl_max, excl_arg.min(i))
            } else {
                (excl_max, excl_arg)
            };
            let bg = &st.group_times[g];
            if time == bg.time && bottleneck == bg.bottleneck_rail {
                continue;
            }
        }
        // Otherwise rail i enters or leaves the group, or the row's
        // time or bottleneck moves: rebuild it.
        changed_rows.push((g, patched_row(&st.rows[g], i, new_c)));
    }
    changed_rows
}

impl Evaluation {
    /// The combined objective `T_soc = T_soc^in + T_soc^si`. Saturates at
    /// `u64::MAX` for degenerate inputs instead of overflowing.
    pub fn t_total(&self) -> u64 {
        self.t_in.saturating_add(self.t_si)
    }

    /// `time_used(r) = time_in(r) + time_si(r)` for every rail.
    pub fn rail_time_used(&self) -> Vec<u64> {
        self.rail_time_in
            .iter()
            .zip(&self.rail_time_si)
            .map(|(a, b)| a.saturating_add(*b))
            .collect()
    }
}

/// Evaluates TestRail architectures for one SOC and one fixed set of SI
/// test groups, with all wrapper designs memoized up front.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use soctam_model::Benchmark;
/// use soctam_tam::{Evaluator, SiGroupSpec, TestRailArchitecture};
///
/// let soc = Benchmark::D695.soc();
/// let groups = vec![SiGroupSpec::new(soc.core_ids().collect(), 100)];
/// let evaluator = Evaluator::new(&soc, 16, groups)?;
/// let arch = TestRailArchitecture::single_rail(&soc, 16)?;
/// let eval = evaluator.evaluate(&arch);
/// assert_eq!(eval.t_total(), eval.t_in + eval.t_si);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Evaluator<'a> {
    soc: &'a Soc,
    table: TimeTable,
    max_width: u32,
    groups: Vec<SiGroupSpec>,
    /// Per core: `Σ_{s ∋ c} patterns(s)` — the total SI pattern load the
    /// core's wrapper must shift across all groups.
    core_si_weight: Vec<u64>,
    /// Per core: the sorted indices of the groups involving it — the
    /// rail→groups index (built once on ingestion) that lets a rail
    /// component visit only the groups its cores participate in.
    core_groups: Vec<Vec<u32>>,
    /// Shared store for all four evaluation caches (rail components,
    /// assembled architectures, schedules, staircases), keyed by
    /// namespaced fingerprint. The optimizer revisits the same rails
    /// and candidate architectures constantly (merge sweeps, wire
    /// redistribution, sort passes); evaluation is pure, so results are
    /// shared. May be a private per-run store or a shared [`EvalCache`]
    /// serving many evaluators (see [`Evaluator::attach_cache`]).
    cache: Arc<MemoCache<FpKey, Cached>>,
    /// True when `cache` is a shared [`EvalCache`]; a shared store is
    /// never cleared by this evaluator's bookkeeping.
    cache_shared: bool,
    /// Fingerprint of the full evaluation context (SOC contents, width
    /// budget, SI groups), mixed into every cache key so evaluators
    /// with different contexts can share one store without aliasing.
    ctx_fp: u128,
    /// Optional sink for cache-hit/miss, rail-eval and schedule-reuse
    /// counters (the CLI `--stats` report).
    metrics: Option<Arc<Metrics>>,
}

impl<'a> Evaluator<'a> {
    /// Builds an evaluator for architectures of rail width up to
    /// `max_width`.
    ///
    /// # Errors
    ///
    /// [`TamError::ZeroWidthBudget`] when `max_width == 0`;
    /// [`TamError::CoreOutOfRange`] when a group references a core the SOC
    /// does not have.
    pub fn new(soc: &'a Soc, max_width: u32, groups: Vec<SiGroupSpec>) -> Result<Self, TamError> {
        if max_width == 0 {
            return Err(TamError::ZeroWidthBudget);
        }
        for group in &groups {
            for &core in group.cores() {
                if core.index() >= soc.num_cores() {
                    return Err(TamError::CoreOutOfRange {
                        core,
                        cores: soc.num_cores(),
                    });
                }
            }
        }
        let mut core_si_weight = vec![0u64; soc.num_cores()];
        let mut core_groups = vec![Vec::new(); soc.num_cores()];
        for (g, group) in groups.iter().enumerate() {
            for &core in group.cores() {
                let w = &mut core_si_weight[core.index()];
                *w = w.saturating_add(group.patterns());
                // Group cores are deduplicated and groups are visited
                // in ascending order, so each list stays sorted.
                // soctam-analyze: allow(ARITH-01) -- g enumerates SI groups, whose ids are u32 by construction
                core_groups[core.index()].push(g as u32);
            }
        }
        // The context fingerprint covers everything a cached value can
        // depend on: the SOC's full contents (via its canonical ITC'02
        // rendering), the width budget and the ordered SI group list.
        let ctx_fp = fx_fingerprint128(&(soctam_model::parser::write_soc(soc), max_width, &groups));
        Ok(Evaluator {
            soc,
            table: TimeTable::new(soc, max_width),
            max_width,
            groups,
            core_si_weight,
            core_groups,
            cache: Arc::new(MemoCache::new(CACHE_SHARDS)),
            cache_shared: false,
            ctx_fp,
            metrics: None,
        })
    }

    /// Counts cache hits, misses, rail-eval and schedule-reuse events
    /// into `metrics` (typically a pool's [`Metrics`]) from now on.
    /// Call before evaluating; a private per-run store is cleared so
    /// the counters cover the whole run, a shared [`EvalCache`] is left
    /// warm.
    pub fn attach_metrics(&mut self, metrics: Arc<Metrics>) {
        self.metrics = Some(metrics);
        if !self.cache_shared {
            self.cache.clear();
        }
    }

    /// Serves every cache lookup from `cache`, a store that may be
    /// shared with other evaluators (and, in a long-running service,
    /// with other requests). Keys are mixed with this evaluator's
    /// context fingerprint, so a shared store is safe across different
    /// SOCs, width budgets and group sets — and identical contexts get
    /// warm cross-run hits. Results stay bit-identical either way.
    pub fn attach_cache(&mut self, cache: &EvalCache) {
        self.cache = Arc::clone(&cache.store);
        self.cache_shared = true;
    }

    /// A second evaluator over the same context sharing this one's memo
    /// store. The fork skips the full construction pass (SOC
    /// fingerprinting, wrapper time table) by cloning the ingested
    /// state, and — because the context fingerprint is identical —
    /// every rail component, schedule and staircase either evaluator
    /// computes is immediately visible to the other. Objective-dependent
    /// entries carry the objective in their caller-side fingerprint, so
    /// forks running different objectives cannot alias.
    pub(crate) fn fork(&self) -> Evaluator<'a> {
        Evaluator {
            soc: self.soc,
            table: self.table.clone(),
            max_width: self.max_width,
            groups: self.groups.clone(),
            core_si_weight: self.core_si_weight.clone(),
            core_groups: self.core_groups.clone(),
            cache: Arc::clone(&self.cache),
            cache_shared: self.cache_shared,
            ctx_fp: self.ctx_fp,
            metrics: self.metrics.clone(),
        }
    }

    /// The cache key for `fp` in `space`, mixed with the context
    /// fingerprint. XOR keeps per-context collision odds identical to
    /// the raw fingerprint's while separating contexts from each other.
    fn cache_key(&self, space: u8, fp: u128) -> FpKey {
        FpKey::new(space, fp ^ self.ctx_fp)
    }

    /// [`Evaluator::evaluate`] through the memo cache: architectures
    /// with the same rail fingerprint share one evaluation. Safe for
    /// concurrent use; evaluation is a pure function of the
    /// architecture, so racing computations produce identical values.
    pub fn evaluate_cached(&self, arch: &TestRailArchitecture) -> Arc<Evaluation> {
        self.evaluate_rails_cached(arch.rails())
    }

    /// [`Evaluator::evaluate_cached`] on a bare rail list (the
    /// optimizer's candidate representation — no architecture needs to
    /// be constructed to probe the cache).
    pub(crate) fn evaluate_rails_cached(&self, rails: &[TestRail]) -> Arc<Evaluation> {
        let key = self.cache_key(SPACE_ARCH, arch_fingerprint(rails));
        if let Some(Cached::Arch(eval)) = self.cache.get(&key) {
            if let Some(m) = &self.metrics {
                m.count_cache_hit();
            }
            return eval;
        }
        if let Some(m) = &self.metrics {
            m.count_cache_miss();
        }
        let eval = Arc::new(self.evaluate_rails(rails));
        self.insert_arch(key, eval)
    }

    /// Seeds a [`SwapState`] from `base`: its components under labels
    /// `0..n`, their reductions, and its makespan.
    pub fn swap_state(&self, base: &Evaluation) -> SwapState {
        debug_assert_eq!(base.group_times.len(), self.groups.len());
        let mut rows: Vec<Vec<(usize, u64)>> = vec![Vec::new(); self.groups.len()];
        let mut used_sum = 0u128;
        for (r, comp) in base.rail_evals.iter().enumerate() {
            used_sum += used_of(comp);
            for &(g, cycles) in &comp.group_shift {
                rows[g as usize].push((r, cycles));
            }
        }
        let (tops, group_times) = rows.iter().map(|row| row_reduction(row)).unzip();
        let mut st = SwapState {
            comps: base.rail_evals.iter().cloned().map(Some).collect(),
            t_in_max: 0,
            t_in_argmax: usize::MAX,
            t_in_second: 0,
            used_sum,
            rows,
            tops,
            group_times,
            t_si: base.t_si,
        };
        st.recompute_t_in();
        st
    }

    /// The cost of replacing live rail `i`'s component with `comp` —
    /// bit-identical to [`SwapState::cost`] after the same swap is
    /// applied, but read-only, in ~O(groups touched by rail i): `T_soc^in`
    /// comes from the top-two reduction, and the makespan is reused
    /// whenever rail `i`'s patched group rows match the current ones
    /// (the common case on width plateaus).
    ///
    /// # Panics
    ///
    /// Panics if rail `i` is a hole.
    #[allow(clippy::expect_used)]
    pub fn swap_cost(&self, st: &SwapState, i: usize, comp: &RailEval) -> DeltaCost {
        let old = st.comps[i].as_deref().expect("swapped rail is live");
        let others_max = if st.t_in_argmax == i {
            st.t_in_second
        } else {
            st.t_in_max
        };
        let changed = if old.group_shift == comp.group_shift {
            Vec::new()
        } else {
            changed_rows_for(st, i, &old.group_shift, &comp.group_shift)
        };
        let t_si = if changed.is_empty() {
            if let Some(m) = &self.metrics {
                m.count_schedule_reuse();
            }
            st.t_si
        } else {
            self.makespan_patched(&st.group_times, &changed)
        };
        DeltaCost {
            t_in: comp.t_in.max(others_max),
            t_si,
            rail_used_sum: saturate(st.used_sum - used_of(old) + used_of(comp)),
        }
    }

    /// Applies `swaps` to `st` in place: each `(label, component)`
    /// replaces that rail's component, `None` removes it (leaving a
    /// hole), and a label past the end appends a rail. Every group row
    /// any old or new column touches is rebuilt once, and the makespan
    /// is recomputed only when some group time actually changed. Each
    /// label may appear at most once in `swaps`.
    pub fn swap_apply(&self, st: &mut SwapState, swaps: &[(usize, Option<Arc<RailEval>>)]) {
        debug_assert!(
            swaps
                .iter()
                .enumerate()
                .all(|(k, (i, _))| swaps[..k].iter().all(|(j, _)| j != i)),
            "each label is swapped at most once"
        );
        let mut affected: Vec<u32> = Vec::new();
        for (i, new) in swaps {
            if *i >= st.comps.len() {
                st.comps.resize(i + 1, None);
            }
            for comp in [st.comps[*i].as_deref(), new.as_deref()]
                .into_iter()
                .flatten()
            {
                affected.extend(comp.group_shift.iter().map(|&(g, _)| g));
            }
        }
        affected.sort_unstable();
        affected.dedup();
        let mut changed = false;
        for g in affected {
            let row = &mut st.rows[g as usize];
            row.retain(|&(r, _)| swaps.iter().all(|(i, _)| *i != r));
            for (i, new) in swaps {
                let col = new.as_deref().map_or(&[][..], |c| &c.group_shift[..]);
                if let Ok(k) = col.binary_search_by_key(&g, |&(cg, _)| cg) {
                    let pos = row.partition_point(|&(r, _)| r < *i);
                    row.insert(pos, (*i, col[k].1));
                }
            }
            let (tops, row_time) = row_reduction(row);
            st.tops[g as usize] = tops;
            if row_time != st.group_times[g as usize] {
                st.group_times[g as usize] = row_time;
                changed = true;
            }
        }
        for (i, new) in swaps {
            if let Some(old) = &st.comps[*i] {
                st.used_sum -= used_of(old);
            }
            if let Some(comp) = new {
                st.used_sum += used_of(comp);
            }
            st.comps[*i] = new.clone();
        }
        st.recompute_t_in();
        if changed {
            st.t_si = self.makespan_patched(&st.group_times, &[]);
        } else if let Some(m) = &self.metrics {
            m.count_schedule_reuse();
        }
    }

    /// Materializes the state's [`Evaluation`]: its rails in label
    /// order, holes skipped — bit-identical to [`Evaluator::evaluate`]
    /// on that rail list.
    pub fn readout(&self, st: &SwapState) -> Evaluation {
        self.assemble(st.comps.iter().flatten().cloned().collect())
    }

    /// Publishes an assembled evaluation under `key`, returning the
    /// store's copy (first insert wins under concurrency).
    fn insert_arch(&self, key: FpKey, eval: Arc<Evaluation>) -> Arc<Evaluation> {
        match self
            .cache
            .get_or_insert_with(key, || Cached::Arch(Arc::clone(&eval)))
        {
            Cached::Arch(stored) => stored,
            // Namespaces are disjoint: SPACE_ARCH only stores Arch.
            _ => eval,
        }
    }

    /// The memoized per-rail component for (`width`, `cores`) — what
    /// the optimizer swaps into a [`SwapState`].
    pub(crate) fn rail_eval_cached(&self, width: u32, cores: &[CoreId]) -> Arc<RailEval> {
        let key = self.cache_key(
            SPACE_RAIL,
            rail_fingerprint_fp(width, fx_fingerprint128(&cores)),
        );
        if let Some(Cached::Rail(rail_eval)) = self.cache.get(&key) {
            if let Some(m) = &self.metrics {
                m.count_rail_eval_hit();
            }
            return rail_eval;
        }
        if let Some(m) = &self.metrics {
            m.count_rail_eval_miss();
        }
        let rail_eval = Arc::new(self.compute_rail_eval(width, cores));
        match self
            .cache
            .get_or_insert_with(key, || Cached::Rail(Arc::clone(&rail_eval)))
        {
            Cached::Rail(stored) => stored,
            // Namespaces are disjoint: SPACE_RAIL only stores Rail.
            _ => rail_eval,
        }
    }

    /// Computes one rail's evaluation component from scratch.
    ///
    /// The per-group sums accumulate with the same saturating arithmetic
    /// as the monolithic `CalculateSITestTime` loop did; unsigned
    /// saturating addition of nonnegative terms is order-independent,
    /// so the component — and everything assembled from it — is
    /// bit-identical to the from-scratch result.
    fn compute_rail_eval(&self, width: u32, cores: &[CoreId]) -> RailEval {
        fault::hit("tam.rail_eval");
        let t_in = cores
            .iter()
            .map(|&c| self.table.intest(c, width))
            .fold(0u64, u64::saturating_add);
        let mut shift = vec![0u64; self.groups.len()];
        let mut touched: Vec<u32> = Vec::new();
        for &core in cores {
            let per_pattern = self.table.si_shift(core, width);
            if per_pattern == 0 {
                continue;
            }
            for &g in &self.core_groups[core.index()] {
                let cycles = self.groups[g as usize]
                    .patterns()
                    .saturating_mul(per_pattern);
                if cycles > 0 {
                    if shift[g as usize] == 0 {
                        touched.push(g);
                    }
                    shift[g as usize] = shift[g as usize].saturating_add(cycles);
                }
            }
        }
        touched.sort_unstable();
        let group_shift: Vec<(u32, u64)> =
            touched.iter().map(|&g| (g, shift[g as usize])).collect();
        let si_sum = group_shift
            .iter()
            .fold(0u64, |acc, &(_, cycles)| acc.saturating_add(cycles));
        RailEval {
            t_in,
            width,
            cores_fp: fx_fingerprint128(&cores),
            group_shift,
            si_sum,
        }
    }

    /// Reduces per-rail components into a full [`Evaluation`].
    ///
    /// Rails are visited in ascending index order within each group, so
    /// `SiGroupTime.rails` ordering and the first-strict-maximum
    /// bottleneck tie-break match the monolithic loop exactly. The
    /// Algorithm 1 schedule is served from the schedule cache or
    /// recomputed.
    fn assemble(&self, rail_evals: Vec<Arc<RailEval>>) -> Evaluation {
        let num_rails = rail_evals.len();
        let rail_time_in: Vec<u64> = rail_evals.iter().map(|r| r.t_in).collect();
        let t_in = rail_time_in.iter().copied().max().unwrap_or(0);

        let mut rail_time_si = vec![0u64; num_rails];
        let group_times = self.group_times_of(&rail_evals, &mut rail_time_si);
        let schedule = self.schedule_cached(&group_times);
        let t_si = schedule.makespan();
        Evaluation {
            rail_time_in,
            rail_time_si,
            group_times,
            schedule,
            t_in,
            t_si,
            rail_evals,
        }
    }

    /// Merges the per-rail sparse group columns into per-group
    /// [`SiGroupTime`] rows, accumulating each rail's utilized SI time
    /// into `rail_time_si`.
    ///
    /// Every component's `group_shift` ascends by group index, so one
    /// cursor per rail walks all columns in a single pass; visiting
    /// rails in ascending index order per group reproduces the
    /// monolithic loop's `rails` ordering and first-strict-maximum
    /// bottleneck tie-break exactly.
    fn group_times_of(
        &self,
        rail_evals: &[Arc<RailEval>],
        rail_time_si: &mut [u64],
    ) -> Vec<SiGroupTime> {
        let mut cursors = vec![0usize; rail_evals.len()];
        let mut group_times = Vec::with_capacity(self.groups.len());
        // soctam-analyze: allow(ARITH-01) -- group count fits u32: group ids are u32 throughout the crate
        for g in 0..self.groups.len() as u32 {
            let mut touched = Vec::new();
            let (mut best_rail, mut best_time) = (usize::MAX, 0u64);
            for (r, comp) in rail_evals.iter().enumerate() {
                let column = &comp.group_shift;
                if cursors[r] < column.len() && column[cursors[r]].0 == g {
                    let cycles = column[cursors[r]].1;
                    cursors[r] += 1;
                    rail_time_si[r] = rail_time_si[r].saturating_add(cycles);
                    if cycles > best_time {
                        best_time = cycles;
                        best_rail = r;
                    }
                    touched.push(r);
                }
            }
            group_times.push(SiGroupTime {
                time: best_time,
                rails: touched,
                bottleneck_rail: best_rail,
            });
        }
        group_times
    }

    /// The Algorithm 1 makespan of `base` with the sorted `changed`
    /// rows substituted, served from the makespan cache, the schedule
    /// cache (a full schedule is already known), or the makespan-only
    /// scheduler — never materializing a schedule on the candidate-
    /// costing path. The key is fingerprinted through the substitution,
    /// so the patched vector is only built when the makespan actually
    /// needs recomputing.
    fn makespan_patched(&self, base: &[SiGroupTime], changed: &[(usize, SiGroupTime)]) -> u64 {
        let fp = group_times_fp(base, changed);
        // Probe the cost-only namespace first: repeated probes of the
        // same patched rows land there, so the hot path pays a single
        // shard lookup. The schedule namespace is only consulted on a
        // makespan miss (e.g. the vector was first seen by a full
        // `schedule_cached` evaluation).
        let key = self.cache_key(SPACE_MAKESPAN, fp);
        if let Some(Cached::Makespan(makespan)) = self.cache.get(&key) {
            if let Some(m) = &self.metrics {
                m.count_schedule_reuse();
            }
            return makespan;
        }
        if let Some(Cached::Sched(schedule)) = self.cache.get(&self.cache_key(SPACE_SCHED, fp)) {
            if let Some(m) = &self.metrics {
                m.count_schedule_reuse();
            }
            return schedule.makespan();
        }
        let mut group_times = base.to_vec();
        for (g, row) in changed {
            group_times[*g] = row.clone();
        }
        let makespan = crate::schedule::si_makespan(&group_times);
        self.cache
            .get_or_insert_with(key, || Cached::Makespan(makespan));
        makespan
    }

    /// The memoized objective cost of a speculative wire
    /// redistribution (`SPACE_DIST`), or `None` when not yet computed.
    /// `fp` is the caller's fingerprint of everything the cost depends
    /// on (candidate rails, freed wire count, optimizer objective);
    /// like every cache key it is additionally mixed with this
    /// evaluator's context fingerprint.
    ///
    /// Merge probing hits this hard: the same (survivor rails, merged
    /// rail, leftover) candidate recurs across partner sweeps — every
    /// unordered rail pair is probed from both ends — and the nested
    /// water-filling pass is a pure function of the candidate and the
    /// wire count, so its final cost can be reused verbatim.
    pub(crate) fn dist_cost_cached(&self, fp: u128) -> Option<u64> {
        match self.cache.get(&self.cache_key(SPACE_DIST, fp)) {
            Some(Cached::Cost(cost)) => Some(cost),
            _ => None,
        }
    }

    /// Publishes a redistribution cost for [`Evaluator::dist_cost_cached`].
    ///
    /// Callers must only store costs of *completed* redistributions
    /// (the budget did not trip mid-pass), so a later lookup observes
    /// the same value a fresh computation would produce.
    pub(crate) fn store_dist_cost(&self, fp: u128, cost: u64) {
        self.cache
            .get_or_insert_with(self.cache_key(SPACE_DIST, fp), || Cached::Cost(cost));
    }

    /// Algorithm 1 through the schedule cache: group-times vectors that
    /// recur across candidates (very common — most moves shift work
    /// within a group without changing its bottleneck) schedule once.
    fn schedule_cached(&self, group_times: &[SiGroupTime]) -> Arc<SiSchedule> {
        let key = self.cache_key(SPACE_SCHED, group_times_fp(group_times, &[]));
        if let Some(Cached::Sched(schedule)) = self.cache.get(&key) {
            if let Some(m) = &self.metrics {
                m.count_schedule_reuse();
            }
            return schedule;
        }
        let schedule = Arc::new(schedule_si_tests(group_times));
        match self
            .cache
            .get_or_insert_with(key, || Cached::Sched(Arc::clone(&schedule)))
        {
            Cached::Sched(stored) => stored,
            // Namespaces are disjoint: SPACE_SCHED only stores Sched.
            _ => schedule,
        }
    }

    /// The `time_used(r)` staircase of a core set: the utilized time the
    /// rail would accumulate at every width `1..=max_width`, memoized by
    /// core-set fingerprint. The optimizer's wire distribution and
    /// rebalancing scan these arrays instead of recomputing point
    /// values.
    pub fn rail_used_staircase(&self, cores: &[CoreId]) -> Arc<Vec<u64>> {
        let key = self.cache_key(SPACE_USED, fx_fingerprint128(&cores));
        if let Some(Cached::Used(staircase)) = self.cache.get(&key) {
            return staircase;
        }
        let staircase = Arc::new(
            (1..=self.max_width)
                .map(|w| self.rail_time_used_at(cores, w))
                .collect::<Vec<u64>>(),
        );
        match self
            .cache
            .get_or_insert_with(key, || Cached::Used(Arc::clone(&staircase)))
        {
            Cached::Used(stored) => stored,
            // Namespaces are disjoint: SPACE_USED only stores Used.
            _ => staircase,
        }
    }

    /// The utilized time `time_in + time_si` a rail hosting `cores` would
    /// accumulate at `width` — without building an architecture. Used by
    /// the optimizer's wire distribution to find the next width at which a
    /// rail actually gets faster (its time is a non-increasing staircase
    /// in width, flat on long plateaus).
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds the evaluator's budget, or a
    /// core is out of range.
    pub fn rail_time_used_at(&self, cores: &[CoreId], width: u32) -> u64 {
        cores
            .iter()
            .map(|&c| {
                self.table.intest(c, width).saturating_add(
                    self.core_si_weight[c.index()].saturating_mul(self.table.si_shift(c, width)),
                )
            })
            .fold(0u64, u64::saturating_add)
    }

    /// The SOC under evaluation.
    pub fn soc(&self) -> &Soc {
        self.soc
    }

    /// The SI test groups.
    pub fn groups(&self) -> &[SiGroupSpec] {
        &self.groups
    }

    /// The width budget the evaluator was built for.
    pub fn max_width(&self) -> u32 {
        self.max_width
    }

    /// The memoized per-core time table.
    pub fn time_table(&self) -> &TimeTable {
        &self.table
    }

    /// `time_in(r)` for one rail.
    ///
    /// # Panics
    ///
    /// Panics if the rail's width exceeds the evaluator's budget.
    pub fn rail_intest_time(&self, rail: &crate::TestRail) -> u64 {
        rail.cores()
            .iter()
            .map(|&c| self.table.intest(c, rail.width()))
            .fold(0u64, u64::saturating_add)
    }

    /// Full evaluation of `arch`: per-rail times, per-group SI times
    /// (`CalculateSITestTime`), the Algorithm 1 schedule and the combined
    /// objective. Assembled from memoized per-rail components.
    ///
    /// # Panics
    ///
    /// Panics if a rail is wider than the evaluator's `max_width` or hosts
    /// a core outside the SOC.
    pub fn evaluate(&self, arch: &TestRailArchitecture) -> Evaluation {
        self.evaluate_rails(arch.rails())
    }

    /// Evaluates a bare rail list from memoized components.
    fn evaluate_rails(&self, rails: &[TestRail]) -> Evaluation {
        let rail_evals = rails
            .iter()
            .map(|rail| self.rail_eval_cached(rail.width(), rail.cores()))
            .collect();
        self.assemble(rail_evals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TestRail;
    use soctam_model::Benchmark;

    fn c(i: u32) -> CoreId {
        CoreId::new(i)
    }

    #[test]
    fn intest_time_is_max_over_rails() {
        let soc = Benchmark::D695.soc();
        let rails = vec![
            TestRail::new((0..5).map(c).collect(), 8).expect("valid"),
            TestRail::new((5..10).map(c).collect(), 8).expect("valid"),
        ];
        let arch = TestRailArchitecture::new(&soc, rails).expect("valid");
        let evaluator = Evaluator::new(&soc, 16, vec![]).expect("valid");
        let eval = evaluator.evaluate(&arch);
        assert_eq!(eval.t_in, *eval.rail_time_in.iter().max().unwrap());
        assert_eq!(eval.t_si, 0);
        assert_eq!(eval.t_total(), eval.t_in);
    }

    #[test]
    fn group_time_is_bottleneck_rail_sum() {
        let soc = Benchmark::D695.soc();
        let rails = vec![
            TestRail::new((0..5).map(c).collect(), 4).expect("valid"),
            TestRail::new((5..10).map(c).collect(), 4).expect("valid"),
        ];
        let arch = TestRailArchitecture::new(&soc, rails).expect("valid");
        let groups = vec![SiGroupSpec::new(soc.core_ids().collect(), 10)];
        let evaluator = Evaluator::new(&soc, 8, groups).expect("valid");
        let eval = evaluator.evaluate(&arch);

        // Recompute by hand.
        let table = evaluator.time_table();
        let rail_sum = |range: std::ops::Range<u32>| -> u64 {
            range.map(|i| 10 * table.si_shift(c(i), 4)).sum()
        };
        let expected = rail_sum(0..5).max(rail_sum(5..10));
        assert_eq!(eval.group_times[0].time, expected);
        assert_eq!(eval.group_times[0].rails, vec![0, 1]);
    }

    /// The cost summary an assembled evaluation implies.
    fn cost_of(eval: &Evaluation) -> DeltaCost {
        DeltaCost {
            t_in: eval.t_in,
            t_si: eval.t_si,
            rail_used_sum: eval
                .rail_time_used()
                .iter()
                .fold(0u64, |acc, &u| acc.saturating_add(u)),
        }
    }

    #[test]
    fn swap_state_merge_and_swaps_match_materialized_evaluations() {
        let soc = Benchmark::D695.soc();
        let rails = vec![
            TestRail::new((0..3).map(c).collect(), 6).expect("valid"),
            TestRail::new((3..6).map(c).collect(), 4).expect("valid"),
            TestRail::new((6..10).map(c).collect(), 5).expect("valid"),
        ];
        let groups = vec![
            SiGroupSpec::new(soc.core_ids().collect(), 25),
            SiGroupSpec::new((0..6).map(c).collect(), 40),
            SiGroupSpec::new((4..10).map(c).collect(), 15),
        ];
        let evaluator = Evaluator::new(&soc, 32, groups).expect("valid");
        let eval_of = |rails: Vec<TestRail>| {
            evaluator.evaluate(&TestRailArchitecture::new(&soc, rails).expect("valid"))
        };
        let base = eval_of(rails.clone());
        let parent = evaluator.swap_state(&base);
        assert_eq!(parent.cost(), cost_of(&base));
        assert_eq!(evaluator.readout(&parent), base);

        // Merge rails 0 and 1 into a rail appended at label 3: both
        // partners leave holes, and the readout lists the survivor
        // first — the order the optimizer materializes.
        let merged = rails[0].merged(&rails[1], 7).expect("valid");
        let merged_comp = evaluator.rail_eval_cached(7, merged.cores());
        let mut st = parent.clone();
        evaluator.swap_apply(
            &mut st,
            &[(0, None), (1, None), (3, Some(Arc::clone(&merged_comp)))],
        );
        let cand = eval_of(vec![rails[2].clone(), merged.clone()]);
        assert_eq!(st.cost(), cost_of(&cand));
        assert_eq!(evaluator.readout(&st), cand);

        // The same merge keeping label 0 for the merged rail reads out
        // in the other order, at the same cost.
        let mut kept = parent.clone();
        evaluator.swap_apply(&mut kept, &[(0, Some(merged_comp)), (1, None)]);
        assert_eq!(kept.cost(), st.cost());
        assert_eq!(
            evaluator.readout(&kept),
            eval_of(vec![merged.clone(), rails[2].clone()])
        );

        // Probing a survivor width swap must agree with evaluating the
        // swapped candidate, and accepting it must land on the probe.
        let wider = evaluator.rail_eval_cached(9, rails[2].cores());
        let probed = evaluator.swap_cost(&st, 2, &wider);
        let swapped = eval_of(vec![rails[2].with_width(9).expect("valid"), merged.clone()]);
        assert_eq!(probed, cost_of(&swapped));
        evaluator.swap_apply(&mut st, &[(2, Some(wider))]);
        assert_eq!(st.cost(), probed);
        assert_eq!(evaluator.readout(&st), swapped);

        // And the merged rail itself can widen.
        let merged_wide = evaluator.rail_eval_cached(8, merged.cores());
        let probed = evaluator.swap_cost(&st, 3, &merged_wide);
        let fin = eval_of(vec![
            rails[2].with_width(9).expect("valid"),
            rails[0].merged(&rails[1], 8).expect("valid"),
        ]);
        assert_eq!(probed, cost_of(&fin));
        evaluator.swap_apply(&mut st, &[(3, Some(merged_wide))]);
        assert_eq!(st.cost(), probed);
        assert_eq!(evaluator.readout(&st), fin);
        assert_eq!(st.component(1), None);
        assert_eq!(st.component(3).map(|comp| comp.width), Some(8));
    }

    #[test]
    fn evaluate_cached_matches_and_counts_hits() {
        let soc = Benchmark::D695.soc();
        let rails = vec![
            TestRail::new((0..5).map(c).collect(), 8).expect("valid"),
            TestRail::new((5..10).map(c).collect(), 8).expect("valid"),
        ];
        let arch = TestRailArchitecture::new(&soc, rails).expect("valid");
        let groups = vec![SiGroupSpec::new(soc.core_ids().collect(), 10)];
        let mut evaluator = Evaluator::new(&soc, 16, groups).expect("valid");
        let metrics = Arc::new(Metrics::new());
        evaluator.attach_metrics(Arc::clone(&metrics));

        let direct = evaluator.evaluate(&arch);
        let first = evaluator.evaluate_cached(&arch);
        let second = evaluator.evaluate_cached(&arch);
        assert_eq!(*first, direct);
        assert_eq!(*second, direct);

        let snapshot = metrics.snapshot();
        assert_eq!(snapshot.cache_misses, 1);
        assert_eq!(snapshot.cache_hits, 1);

        // A different architecture is a different key.
        let other = TestRailArchitecture::new(
            &soc,
            vec![TestRail::new(soc.core_ids().collect(), 16).expect("valid")],
        )
        .expect("valid");
        let third = evaluator.evaluate_cached(&other);
        assert_eq!(*third, evaluator.evaluate(&other));
        assert_eq!(metrics.snapshot().cache_misses, 2);
    }

    #[test]
    fn rail_time_si_sums_own_contributions() {
        // Example 1 semantics: time_si(r) for TAM3 = core 5's own shifts.
        let soc = Benchmark::D695.soc();
        let rails = vec![
            TestRail::new((0..9).map(c).collect(), 4).expect("valid"),
            TestRail::new(vec![c(9)], 4).expect("valid"),
        ];
        let arch = TestRailArchitecture::new(&soc, rails).expect("valid");
        let groups = vec![
            SiGroupSpec::new(soc.core_ids().collect(), 7),
            SiGroupSpec::new(vec![c(9)], 5),
        ];
        let evaluator = Evaluator::new(&soc, 8, groups).expect("valid");
        let eval = evaluator.evaluate(&arch);
        let table = evaluator.time_table();
        let expected = 7 * table.si_shift(c(9), 4) + 5 * table.si_shift(c(9), 4);
        assert_eq!(eval.rail_time_si[1], expected);
    }

    #[test]
    fn boundary_less_cores_do_not_occupy_rails() {
        use soctam_model::CoreSpec;
        let soc = Soc::new(
            "z",
            vec![
                CoreSpec::new("island", 0, 0, 0, vec![4], 5).expect("valid"),
                CoreSpec::new("drv", 2, 6, 0, vec![4], 5).expect("valid"),
            ],
        )
        .expect("valid");
        let rails = vec![
            TestRail::new(vec![c(0)], 1).expect("valid"),
            TestRail::new(vec![c(1)], 1).expect("valid"),
        ];
        let arch = TestRailArchitecture::new(&soc, rails).expect("valid");
        let groups = vec![SiGroupSpec::new(vec![c(0), c(1)], 3)];
        let evaluator = Evaluator::new(&soc, 2, groups).expect("valid");
        let eval = evaluator.evaluate(&arch);
        // A core with no functional terminals has nothing to shift during
        // SI test, so only rail 1 is involved.
        assert_eq!(eval.group_times[0].rails, vec![1]);
        assert_eq!(eval.rail_time_si[0], 0);
        // The driver rail pays the vector pair plus its own ILS readout.
        let table = evaluator.time_table();
        assert_eq!(table.si_shift(c(1), 1), 2 * 6 + 2);
    }

    #[test]
    fn sink_cores_pay_ils_flag_readout() {
        use soctam_model::CoreSpec;
        let soc = Soc::new(
            "z",
            vec![
                CoreSpec::new("sink", 8, 0, 0, vec![4], 5).expect("valid"),
                CoreSpec::new("drv", 2, 6, 0, vec![4], 5).expect("valid"),
            ],
        )
        .expect("valid");
        let rails = vec![
            TestRail::new(vec![c(0)], 1).expect("valid"),
            TestRail::new(vec![c(1)], 1).expect("valid"),
        ];
        let arch = TestRailArchitecture::new(&soc, rails).expect("valid");
        let groups = vec![SiGroupSpec::new(vec![c(0), c(1)], 3)];
        let evaluator = Evaluator::new(&soc, 2, groups).expect("valid");
        let eval = evaluator.evaluate(&arch);
        // The sink core loads no vectors but unloads 8 ILS flags per
        // pattern, so its rail participates.
        assert_eq!(eval.group_times[0].rails, vec![0, 1]);
        assert_eq!(eval.rail_time_si[0], 3 * 8);
    }

    #[test]
    fn group_with_out_of_range_core_rejected() {
        let soc = Benchmark::D695.soc();
        let groups = vec![SiGroupSpec::new(vec![c(10)], 1)];
        assert!(matches!(
            Evaluator::new(&soc, 8, groups),
            Err(TamError::CoreOutOfRange { .. })
        ));
    }

    #[test]
    fn zero_budget_rejected() {
        let soc = Benchmark::D695.soc();
        assert!(matches!(
            Evaluator::new(&soc, 0, vec![]),
            Err(TamError::ZeroWidthBudget)
        ));
    }

    /// Checks [`Evaluator::swap_cost`] and [`Evaluator::swap_apply`]
    /// against a fresh evaluation for every rail at every width.
    fn assert_width_swaps_match(
        soc: &Soc,
        max_width: u32,
        groups: Vec<SiGroupSpec>,
        rails: &[TestRail],
    ) {
        let evaluator = Evaluator::new(soc, max_width, groups).expect("valid");
        let eval_of = |rails: Vec<TestRail>| {
            evaluator.evaluate(&TestRailArchitecture::new(soc, rails).expect("valid"))
        };
        let st = evaluator.swap_state(&eval_of(rails.to_vec()));
        for i in 0..rails.len() {
            for w in 1..=max_width {
                let mut cand = rails.to_vec();
                cand[i] = rails[i].with_width(w).expect("valid");
                let expected = eval_of(cand);
                let comp = evaluator.rail_eval_cached(w, rails[i].cores());
                assert_eq!(
                    evaluator.swap_cost(&st, i, &comp),
                    cost_of(&expected),
                    "rail {i} at width {w}"
                );
                let mut applied = st.clone();
                evaluator.swap_apply(&mut applied, &[(i, Some(comp))]);
                assert_eq!(applied.cost(), cost_of(&expected), "rail {i} at width {w}");
                assert_eq!(
                    evaluator.readout(&applied),
                    expected,
                    "rail {i} at width {w}"
                );
            }
        }
    }

    #[test]
    fn swap_cost_matches_evaluate_at_every_width() {
        let soc = Benchmark::D695.soc();
        let rails = vec![
            TestRail::new((0..4).map(c).collect(), 6).expect("valid"),
            TestRail::new((4..7).map(c).collect(), 3).expect("valid"),
            TestRail::new((7..10).map(c).collect(), 5).expect("valid"),
        ];
        let groups = vec![
            SiGroupSpec::new(soc.core_ids().collect(), 40),
            SiGroupSpec::new((0..6).map(c).collect(), 15),
            SiGroupSpec::new(vec![c(8), c(9)], 9),
        ];
        assert_width_swaps_match(&soc, 16, groups, &rails);
    }

    #[test]
    fn swap_cost_matches_without_groups() {
        // The SI-free (InTestOnly baseline) configuration exercises the
        // empty-transpose path: every swap must reuse t_si = 0.
        let soc = Benchmark::D695.soc();
        let rails = vec![
            TestRail::new((0..5).map(c).collect(), 4).expect("valid"),
            TestRail::new((5..10).map(c).collect(), 4).expect("valid"),
        ];
        assert_width_swaps_match(&soc, 8, vec![], &rails);
    }

    #[test]
    fn swap_cost_single_rail_architecture() {
        // n = 1: the max-excluding-i reduction falls back to 0.
        let soc = Benchmark::D695.soc();
        let rails = vec![TestRail::new(soc.core_ids().collect(), 8).expect("valid")];
        let groups = vec![SiGroupSpec::new(soc.core_ids().collect(), 25)];
        assert_width_swaps_match(&soc, 16, groups, &rails);
    }

    #[test]
    fn time_used_adds_in_and_si() {
        let soc = Benchmark::D695.soc();
        let arch = TestRailArchitecture::single_rail(&soc, 8).expect("valid");
        let groups = vec![SiGroupSpec::new(soc.core_ids().collect(), 20)];
        let evaluator = Evaluator::new(&soc, 8, groups).expect("valid");
        let eval = evaluator.evaluate(&arch);
        assert_eq!(
            eval.rail_time_used()[0],
            eval.rail_time_in[0] + eval.rail_time_si[0]
        );
    }
}
