//! The full two-dimensional compaction pipeline.

use soctam_exec::Pool;
use soctam_hypergraph::PartitionConfig;
use soctam_model::Soc;
use soctam_patterns::{KernelStats, PackedLayout, PackedSet, SiPattern, SiPatternSet};

use crate::vertical::{assert_in_terminal_space, compact_packed_subset};
use crate::{
    group_patterns_packed, CompactedSiTests, CompactionError, CompactionStats, MergeOrder,
    SiTestGroup,
};

/// Configuration for [`compact_two_dimensional`].
///
/// # Example
///
/// ```
/// use soctam_compaction::CompactionConfig;
///
/// let config = CompactionConfig::new(4).with_seed(7);
/// assert_eq!(config.partitions, 4);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct CompactionConfig {
    /// Number of core partitions `i` (the paper sweeps 1, 2, 4, 8).
    pub partitions: u32,
    /// Hypergraph partitioner settings (imbalance, seed, FM effort).
    pub partition_config: PartitionConfig,
}

impl CompactionConfig {
    /// Creates a configuration for `partitions` core groups with default
    /// partitioner settings.
    pub fn new(partitions: u32) -> Self {
        CompactionConfig {
            partitions,
            partition_config: PartitionConfig::new(partitions.max(1)),
        }
    }

    /// Sets the partitioner RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.partition_config.seed = seed;
        self
    }
}

/// Runs two-dimensional compaction: partitions the cores into
/// `config.partitions` groups, buckets the raw patterns (patterns whose
/// care cores straddle groups go to the cross-partition remainder), and
/// vertically compacts **each bucket separately**.
///
/// The result contains at most `partitions + 1` [`SiTestGroup`]s: one per
/// non-empty part (involving that part's cores) plus, if any pattern was
/// cut, the remainder group involving *all* cores. With `partitions == 1`
/// this degenerates to the one-dimensional (count-only) compaction the
/// paper calls `T_g1`.
///
/// # Errors
///
/// * forwarded pattern validation errors;
/// * [`CompactionError::TooManyPartitions`] / partitioning failures.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use soctam_compaction::{compact_two_dimensional, CompactionConfig};
/// use soctam_model::Benchmark;
/// use soctam_patterns::{RandomPatternConfig, SiPatternSet};
///
/// let soc = Benchmark::D695.soc();
/// let raw = SiPatternSet::random(&soc, &RandomPatternConfig::new(1000).with_seed(2))?;
/// let one_dim = compact_two_dimensional(&soc, &raw, &CompactionConfig::new(1))?;
/// let two_dim = compact_two_dimensional(&soc, &raw, &CompactionConfig::new(4))?;
/// // 1-D compaction merges across everything, so it needs no remainder.
/// assert_eq!(one_dim.groups().len(), 1);
/// assert!(two_dim.groups().len() > 1);
/// # Ok(())
/// # }
/// ```
pub fn compact_two_dimensional(
    soc: &Soc,
    raw: &SiPatternSet,
    config: &CompactionConfig,
) -> Result<CompactedSiTests, CompactionError> {
    compact_two_dimensional_with(soc, raw, config, &Pool::serial())
}

/// [`compact_two_dimensional`] with the per-bucket vertical compactions
/// run on `pool`. Buckets never share patterns, so each greedy cover is
/// independent; results are collected in bucket order and are
/// bit-identical to the serial pipeline for any pool size.
///
/// # Errors
///
/// Same contract as [`compact_two_dimensional`].
pub fn compact_two_dimensional_with(
    soc: &Soc,
    raw: &SiPatternSet,
    config: &CompactionConfig,
    pool: &Pool,
) -> Result<CompactedSiTests, CompactionError> {
    raw.validate_for(soc)?;
    soctam_exec::fault::check("compaction.partition")?;
    // Pack once: grouping, duplicate removal and every per-bucket greedy
    // cover all run against the same bit-packed arena; patterns are only
    // expanded back to sparse form when the compacted cliques are emitted.
    let set = PackedSet::build(raw.as_slice());
    let terminal_words = assert_in_terminal_space(soc, &set);
    let layout = PackedLayout::new(soc);
    let grouping = group_patterns_packed(
        soc,
        &set,
        &layout,
        config.partitions,
        &config.partition_config,
    )?;

    let mut stats = CompactionStats {
        raw_patterns: raw.len(),
        partitions: config.partitions.max(1),
        cut_weight: grouping.cut_weight,
        raw_remainder_patterns: grouping.remainder.len(),
        ..CompactionStats::default()
    };

    // One work item per part bucket, plus the cross-partition remainder
    // (when any pattern was cut) as the final item. Exact duplicates are
    // dropped keep-first: a duplicate always lands in its first copy's
    // clique and absorbing it there is a no-op, so removal cannot change
    // the compacted output.
    // Insert/contains only, never iterated, so hash order cannot affect
    // the output.
    #[allow(clippy::disallowed_types)]
    let mut seen: std::collections::HashSet<&SiPattern> = std::collections::HashSet::new();
    let mut dedup = |indices: &[usize]| -> Vec<u32> {
        seen.clear();
        indices
            // soctam-analyze: allow(DET-10) -- iterates the index slice, not the HashSet; the set is insert-only (see the `disallowed_types` allow above)
            .iter()
            .filter(|&&i| seen.insert(&raw.as_slice()[i]))
            .map(|&i| i as u32)
            .collect()
    };
    let mut work: Vec<Vec<u32>> = grouping.buckets.iter().map(|b| dedup(b)).collect();
    let has_remainder = !grouping.remainder.is_empty();
    if has_remainder {
        work.push(dedup(&grouping.remainder));
    }
    stats.duplicate_patterns = raw.len() - work.iter().map(Vec::len).sum::<usize>();

    let compacted_buckets = pool.par_map(&work, |indices| {
        soctam_exec::fault::hit("compaction.bucket");
        if indices.is_empty() {
            (Vec::new(), KernelStats::default())
        } else {
            compact_packed_subset(&set, indices, terminal_words, MergeOrder::InputOrder)
        }
    });

    let mut groups = Vec::new();
    let mut kernel = KernelStats::default();
    let mut iter = compacted_buckets.into_iter();
    for part in 0..grouping.buckets.len() {
        // Invariant: `par_map` returns exactly one result per work item.
        #[allow(clippy::expect_used)]
        let (compacted, bucket_kernel) = iter.next().expect("one result per bucket");
        kernel.merge(bucket_kernel);
        if compacted.is_empty() {
            stats.group_patterns.push(0);
            continue;
        }
        stats.group_patterns.push(compacted.len());
        groups.push(SiTestGroup::new(
            grouping.part_cores(part as u32),
            compacted,
        ));
    }
    if has_remainder {
        // Invariant: the remainder was pushed as the final work item above.
        #[allow(clippy::expect_used)]
        let (compacted, remainder_kernel) = iter.next().expect("remainder result present");
        kernel.merge(remainder_kernel);
        stats.remainder_patterns = compacted.len();
        groups.push(SiTestGroup::new(soc.core_ids().collect(), compacted));
    }
    stats.kernel_words_compared = kernel.words_compared;
    stats.kernel_fast_rejects = kernel.fast_rejects;

    let metrics = pool.metrics();
    metrics.add_kernel_words_compared(kernel.words_compared);
    metrics.add_kernel_fast_rejects(kernel.fast_rejects);
    metrics.add_duplicates_removed(stats.duplicate_patterns as u64);

    Ok(CompactedSiTests::new(groups, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use soctam_model::Benchmark;
    use soctam_patterns::RandomPatternConfig;

    fn setup(n: usize) -> (Soc, SiPatternSet) {
        let soc = Benchmark::D695.soc();
        let set =
            SiPatternSet::random(&soc, &RandomPatternConfig::new(n).with_seed(17)).expect("valid");
        (soc, set)
    }

    #[test]
    fn one_dimensional_compaction_has_single_group_over_all_cores() {
        let (soc, raw) = setup(800);
        let result = compact_two_dimensional(&soc, &raw, &CompactionConfig::new(1)).expect("valid");
        assert_eq!(result.groups().len(), 1);
        assert_eq!(result.groups()[0].cores().len(), soc.num_cores());
        assert!(result.total_patterns() < 800);
    }

    #[test]
    fn group_count_bounded_by_partitions_plus_one() {
        let (soc, raw) = setup(600);
        for parts in [2u32, 4, 8] {
            let result =
                compact_two_dimensional(&soc, &raw, &CompactionConfig::new(parts)).expect("valid");
            assert!(result.groups().len() <= parts as usize + 1);
        }
    }

    #[test]
    fn pattern_counts_are_consistent_with_stats() {
        let (soc, raw) = setup(500);
        let result = compact_two_dimensional(&soc, &raw, &CompactionConfig::new(4)).expect("valid");
        let stats = result.stats();
        let from_stats: u64 =
            stats.group_patterns.iter().sum::<usize>() as u64 + stats.remainder_patterns as u64;
        assert_eq!(result.total_patterns(), from_stats);
        assert!(stats.compaction_ratio() > 1.0);
    }

    #[test]
    fn partitioning_reduces_data_volume() {
        // Large enough that the 2-D advantage dominates sampling noise:
        // at N_r = 2 000 a handful of seeds land within ±1 % of parity.
        let (soc, raw) = setup(4_000);
        let one = compact_two_dimensional(&soc, &raw, &CompactionConfig::new(1)).expect("valid");
        let four = compact_two_dimensional(&soc, &raw, &CompactionConfig::new(4)).expect("valid");
        // The whole point of horizontal compaction: shorter patterns,
        // smaller total volume (pattern *count* may grow).
        assert!(
            four.data_volume(&soc) < one.data_volume(&soc),
            "4-part volume {} !< 1-part volume {}",
            four.data_volume(&soc),
            one.data_volume(&soc)
        );
    }

    #[test]
    fn empty_input_produces_no_groups() {
        let soc = Benchmark::D695.soc();
        let result = compact_two_dimensional(&soc, &SiPatternSet::new(), &CompactionConfig::new(2))
            .expect("valid");
        assert!(result.groups().is_empty());
        assert_eq!(result.total_patterns(), 0);
        assert_eq!(result.data_volume(&soc), 0);
    }

    #[test]
    fn exact_duplicates_are_removed_without_changing_the_cover() {
        let (soc, raw) = setup(300);
        let mut doubled: Vec<SiPattern> = raw.as_slice().to_vec();
        doubled.extend(raw.as_slice().iter().cloned());
        let doubled = SiPatternSet::from_patterns(doubled);
        let config = CompactionConfig::new(4).with_seed(3);
        let base = compact_two_dimensional(&soc, &raw, &config).expect("valid");
        let deduped = compact_two_dimensional(&soc, &doubled, &config).expect("valid");
        assert_eq!(base.stats().duplicate_patterns, 0);
        assert_eq!(deduped.stats().duplicate_patterns, 300);
        assert_eq!(base.groups(), deduped.groups());
    }

    #[test]
    fn kernel_counters_are_populated() {
        let (soc, raw) = setup(200);
        let result = compact_two_dimensional(&soc, &raw, &CompactionConfig::new(1)).expect("valid");
        assert!(result.stats().kernel_words_compared > 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let (soc, raw) = setup(400);
        let a = compact_two_dimensional(&soc, &raw, &CompactionConfig::new(4).with_seed(3))
            .expect("valid");
        let b = compact_two_dimensional(&soc, &raw, &CompactionConfig::new(4).with_seed(3))
            .expect("valid");
        assert_eq!(a, b);
    }
}
