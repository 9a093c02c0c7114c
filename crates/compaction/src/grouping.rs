//! Horizontal compaction: core grouping via hypergraph partitioning
//! (Fig. 2 of the paper).

use soctam_exec::FxBuildHasher;
use soctam_hypergraph::{Hypergraph, HypergraphBuilder, Partition, PartitionConfig};
use soctam_model::{CoreId, Soc};
use soctam_patterns::{PackedLayout, PackedSet, SiPattern};

use crate::CompactionError;

/// Builds the core hypergraph of Section 3: one vertex per core (weight =
/// its wrapper output cell count), one hyperedge per *distinct care-core
/// set* occurring in `patterns` (weight = how many patterns share it).
///
/// Single-core care sets become single-pin edges, which the partitioner
/// ignores (they can never be cut).
///
/// # Panics
///
/// Panics if a pattern references a terminal outside `soc`.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use soctam_compaction::build_core_hypergraph;
/// use soctam_model::Benchmark;
/// use soctam_patterns::{RandomPatternConfig, SiPatternSet};
///
/// let soc = Benchmark::D695.soc();
/// let set = SiPatternSet::random(&soc, &RandomPatternConfig::new(200))?;
/// let hg = build_core_hypergraph(&soc, set.as_slice());
/// assert_eq!(hg.num_vertices(), soc.num_cores());
/// # Ok(())
/// # }
/// ```
pub fn build_core_hypergraph(soc: &Soc, patterns: &[SiPattern]) -> Hypergraph {
    let set = PackedSet::build(patterns);
    build_core_hypergraph_packed(soc, &set, &PackedLayout::new(soc))
}

/// [`build_core_hypergraph`] over an already-packed pattern set: care-core
/// extraction runs on the bit-packed words via `layout`, so the pipeline
/// packs once and reuses the set for grouping *and* vertical compaction.
///
/// # Panics
///
/// Panics if a pattern references a terminal outside `soc`.
pub fn build_core_hypergraph_packed(
    soc: &Soc,
    set: &PackedSet,
    layout: &PackedLayout,
) -> Hypergraph {
    build_with_edge_of(soc, set, layout).0
}

/// Pattern `i` with no care cores maps to no edge.
const NO_EDGE: u32 = u32::MAX;

/// [`build_core_hypergraph_packed`], also returning `edge_of[i]`: the
/// hyperedge of pattern `i`'s care-core set, or [`NO_EDGE`] when the
/// pattern has no care cores.
// Invariant: care cores come from the layout, so every pin indexes a declared vertex.
#[allow(clippy::expect_used)]
fn build_with_edge_of(soc: &Soc, set: &PackedSet, layout: &PackedLayout) -> (Hypergraph, Vec<u32>) {
    let mut builder = HypergraphBuilder::new();
    // soctam-analyze: allow(DET-10) -- the body's only hash iteration drains the edge table into a Vec sorted by pins before any edge is emitted
    builder.add_vertices(soc.iter().map(|(_, core)| u64::from(core.woc_count())));
    // Each distinct care-core set maps to (weight, first-seen id);
    // patterns record the first-seen id, remapped to the sorted edge id
    // once every set is known. Lookup only: the map is drained into a
    // Vec and sorted by pins before any edge is emitted, so hash order
    // cannot reach the hypergraph.
    #[allow(clippy::disallowed_types)]
    let mut edge_counts: std::collections::HashMap<Vec<u32>, (u64, u32), FxBuildHasher> =
        std::collections::HashMap::default();
    let mut edge_of: Vec<u32> = Vec::with_capacity(set.len());
    let mut cores: Vec<CoreId> = Vec::new();
    let mut raw: Vec<u32> = Vec::new();
    for i in 0..set.len() {
        layout.care_cores_into(set.get(i), &mut cores);
        raw.clear();
        raw.extend(cores.iter().map(|c| c.raw()));
        if raw.is_empty() {
            edge_of.push(NO_EDGE);
            continue;
        }
        // Borrow-keyed lookup first: the key `Vec` is only allocated for
        // care-core sets seen for the first time.
        let first_seen = edge_counts.len() as u32;
        match edge_counts.get_mut(raw.as_slice()) {
            Some((weight, id)) => {
                *weight += 1;
                edge_of.push(*id);
            }
            None => {
                edge_counts.insert(raw.clone(), (1, first_seen));
                edge_of.push(first_seen);
            }
        }
    }
    let mut edges: Vec<(Vec<u32>, (u64, u32))> = edge_counts.into_iter().collect();
    edges.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    let mut edge_id = vec![0u32; edges.len()];
    for (pins, (weight, first_seen)) in edges {
        edge_id[first_seen as usize] = builder
            .add_edge(weight, &pins)
            .expect("care cores are valid vertices");
    }
    for e in edge_of.iter_mut().filter(|e| **e != NO_EDGE) {
        *e = edge_id[*e as usize];
    }
    (builder.build(), edge_of)
}

/// The assignment of raw patterns to partition buckets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PatternGrouping {
    /// Core partition: `core_part[core] = part`.
    pub core_part: Vec<u32>,
    /// Number of parts.
    pub parts: u32,
    /// `bucket[i]` holds the indices of patterns whose care cores all lie
    /// in part `i`.
    pub buckets: Vec<Vec<usize>>,
    /// Indices of patterns whose care cores span multiple parts.
    pub remainder: Vec<usize>,
    /// Weight of cut hyperedges in the chosen partition.
    pub cut_weight: u64,
}

impl PatternGrouping {
    /// The cores assigned to part `p`.
    pub fn part_cores(&self, p: u32) -> Vec<CoreId> {
        self.core_part
            .iter()
            .enumerate()
            .filter_map(|(c, &q)| (q == p).then_some(CoreId::new(c as u32)))
            .collect()
    }
}

/// Partitions the cores into `parts` groups (minimizing the weighted
/// pattern cut) and buckets every pattern: patterns whose care cores all
/// fall into one part go to that part's bucket, the rest to the remainder.
///
/// With `parts == 1` everything lands in bucket 0 and the remainder is
/// empty.
///
/// # Errors
///
/// [`CompactionError::PartitionsOutOfRange`] when `parts` is 0 or
/// exceeds the core count, or a forwarded partitioning error.
///
/// # Panics
///
/// Panics if `parts > 1` and a pattern references a terminal outside
/// `soc`.
pub fn group_patterns(
    soc: &Soc,
    patterns: &[SiPattern],
    parts: u32,
    partition_config: &PartitionConfig,
) -> Result<PatternGrouping, CompactionError> {
    let set = PackedSet::build(patterns);
    group_patterns_packed(soc, &set, &PackedLayout::new(soc), parts, partition_config)
}

/// [`group_patterns`] over an already-packed pattern set (see
/// [`build_core_hypergraph_packed`]).
///
/// # Errors
///
/// Same contract as [`group_patterns`].
///
/// # Panics
///
/// Same contract as [`group_patterns`].
pub fn group_patterns_packed(
    soc: &Soc,
    set: &PackedSet,
    layout: &PackedLayout,
    parts: u32,
    partition_config: &PartitionConfig,
) -> Result<PatternGrouping, CompactionError> {
    if parts == 0 || parts as usize > soc.num_cores() {
        return Err(CompactionError::PartitionsOutOfRange {
            partitions: parts,
            cores: soc.num_cores(),
        });
    }
    if parts == 1 {
        return Ok(PatternGrouping {
            core_part: vec![0u32; soc.num_cores()],
            parts: 1,
            buckets: vec![(0..set.len()).collect()],
            remainder: Vec::new(),
            cut_weight: 0,
        });
    }
    let (hg, edge_of) = build_with_edge_of(soc, set, layout);
    let config = PartitionConfig {
        parts,
        ..partition_config.clone()
    };
    let partition: Partition = hg.partition(&config)?;
    let core_part = partition.assignment().to_vec();

    // A pattern's care cores are exactly its edge's pins, so it fits in one
    // part iff that edge is uncut; care-core-free patterns go to part 0.
    let edge_part: Vec<Option<u32>> = (0..hg.num_edges() as u32)
        .map(|e| (!partition.is_cut(&hg, e)).then(|| core_part[hg.pins(e)[0] as usize]))
        .collect();
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); parts as usize];
    let mut remainder = Vec::new();
    for (index, &e) in edge_of.iter().enumerate() {
        let part = if e == NO_EDGE {
            Some(0)
        } else {
            edge_part[e as usize]
        };
        match part {
            Some(part) => buckets[part as usize].push(index),
            None => remainder.push(index),
        }
    }
    let cut_weight = partition.cut_weight(&hg);

    Ok(PatternGrouping {
        core_part,
        parts,
        buckets,
        remainder,
        cut_weight,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use soctam_exec::Rng;
    use soctam_model::Benchmark;
    use soctam_patterns::{RandomPatternConfig, SiPatternSet};
    use std::collections::BTreeMap;

    /// The BTreeMap edge table `build_with_edge_of` replaced: the map
    /// keeps the care-core sets sorted, so edges are emitted in map order.
    fn build_with_edge_of_btree(
        soc: &Soc,
        set: &PackedSet,
        layout: &PackedLayout,
    ) -> (Hypergraph, Vec<u32>) {
        let mut builder = HypergraphBuilder::new();
        builder.add_vertices(soc.iter().map(|(_, core)| u64::from(core.woc_count())));
        let mut edge_counts: BTreeMap<Vec<u32>, (u64, u32)> = BTreeMap::new();
        let mut edge_of = Vec::with_capacity(set.len());
        let mut cores = Vec::new();
        for i in 0..set.len() {
            layout.care_cores_into(set.get(i), &mut cores);
            let raw: Vec<u32> = cores.iter().map(|c| c.raw()).collect();
            if raw.is_empty() {
                edge_of.push(NO_EDGE);
                continue;
            }
            let first_seen = edge_counts.len() as u32;
            let entry = edge_counts.entry(raw).or_insert((0, first_seen));
            entry.0 += 1;
            edge_of.push(entry.1);
        }
        let mut edge_id = vec![0u32; edge_counts.len()];
        for (pins, (weight, first_seen)) in edge_counts {
            edge_id[first_seen as usize] = builder.add_edge(weight, &pins).expect("valid pins");
        }
        for e in edge_of.iter_mut().filter(|e| **e != NO_EDGE) {
            *e = edge_id[*e as usize];
        }
        (builder.build(), edge_of)
    }

    fn edges(hg: &Hypergraph) -> Vec<(Vec<u32>, u64)> {
        (0..hg.num_edges() as u32)
            .map(|e| (hg.pins(e).to_vec(), hg.edge_weight(e)))
            .collect()
    }

    #[test]
    fn hashed_edge_table_matches_the_btree_reference() {
        for (benchmark, seed) in [
            (Benchmark::D695, 1),
            (Benchmark::P34392, 7),
            (Benchmark::P93791, 2007),
        ] {
            let soc = benchmark.soc();
            let mut patterns =
                SiPatternSet::random(&soc, &RandomPatternConfig::new(3_000).with_seed(seed))
                    .expect("valid")
                    .into_vec();
            // Sprinkle care-core-free patterns through the set.
            let mut rng = Rng::derive(seed, 15);
            for _ in 0..40 {
                let at = rng.index(patterns.len() + 1);
                patterns.insert(at, SiPattern::default());
            }
            let set = PackedSet::build(&patterns);
            let layout = PackedLayout::new(&soc);
            let (hg, edge_of) = build_with_edge_of(&soc, &set, &layout);
            let (reference, reference_edge_of) = build_with_edge_of_btree(&soc, &set, &layout);
            assert_eq!(edges(&hg), edges(&reference), "{benchmark:?}");
            assert_eq!(edge_of, reference_edge_of, "{benchmark:?}");
            assert_eq!(edge_of.iter().filter(|&&e| e == NO_EDGE).count(), 40);
        }
    }

    fn setup(n: usize) -> (Soc, SiPatternSet) {
        let soc = Benchmark::D695.soc();
        let set =
            SiPatternSet::random(&soc, &RandomPatternConfig::new(n).with_seed(6)).expect("valid");
        (soc, set)
    }

    #[test]
    fn hypergraph_vertices_are_cores() {
        let (soc, set) = setup(300);
        let hg = build_core_hypergraph(&soc, set.as_slice());
        assert_eq!(hg.num_vertices(), soc.num_cores());
        for (id, core) in soc.iter() {
            assert_eq!(hg.vertex_weight(id.raw()), u64::from(core.woc_count()));
        }
    }

    #[test]
    fn hyperedge_weights_sum_to_pattern_count() {
        let (soc, set) = setup(250);
        let hg = build_core_hypergraph(&soc, set.as_slice());
        assert_eq!(hg.total_edge_weight(), 250);
    }

    #[test]
    fn single_partition_buckets_everything_together() {
        let (soc, set) = setup(100);
        let grouping =
            group_patterns(&soc, set.as_slice(), 1, &PartitionConfig::new(1)).expect("valid");
        assert_eq!(grouping.buckets.len(), 1);
        assert_eq!(grouping.buckets[0].len(), 100);
        assert!(grouping.remainder.is_empty());
        assert_eq!(grouping.cut_weight, 0);
    }

    #[test]
    fn buckets_and_remainder_partition_the_indices() {
        let (soc, set) = setup(400);
        for parts in [2u32, 4] {
            let grouping =
                group_patterns(&soc, set.as_slice(), parts, &PartitionConfig::new(parts))
                    .expect("valid");
            let mut seen: Vec<usize> = grouping
                .buckets
                .iter()
                .flatten()
                .chain(&grouping.remainder)
                .copied()
                .collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..400).collect::<Vec<_>>());
        }
    }

    #[test]
    fn bucketed_patterns_stay_within_their_part() {
        let (soc, set) = setup(400);
        let grouping =
            group_patterns(&soc, set.as_slice(), 4, &PartitionConfig::new(4)).expect("valid");
        for (part, bucket) in grouping.buckets.iter().enumerate() {
            for &index in bucket {
                for core in set.as_slice()[index].care_cores(&soc) {
                    assert_eq!(grouping.core_part[core.index()], part as u32);
                }
            }
        }
    }

    #[test]
    fn remainder_matches_cut_weight() {
        let (soc, set) = setup(500);
        let grouping =
            group_patterns(&soc, set.as_slice(), 2, &PartitionConfig::new(2)).expect("valid");
        // Every remainder pattern's care-core set is a cut hyperedge; the
        // cut weight counts exactly those patterns.
        assert_eq!(grouping.cut_weight as usize, grouping.remainder.len());
    }

    #[test]
    fn too_many_partitions_rejected() {
        let (soc, set) = setup(10);
        for parts in [0, 11] {
            let err = group_patterns(&soc, set.as_slice(), parts, &PartitionConfig::new(parts))
                .unwrap_err();
            assert_eq!(
                err,
                CompactionError::PartitionsOutOfRange {
                    partitions: parts,
                    cores: 10,
                }
            );
            assert!(err.to_string().contains("valid range is 1..=10"), "{err}");
        }
    }

    #[test]
    fn part_cores_cover_all_cores() {
        let (soc, set) = setup(200);
        let grouping =
            group_patterns(&soc, set.as_slice(), 4, &PartitionConfig::new(4)).expect("valid");
        let total: usize = (0..4).map(|p| grouping.part_cores(p).len()).sum();
        assert_eq!(total, soc.num_cores());
    }
}
