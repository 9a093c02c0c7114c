//! Golden core partitions: the hypergraph grouping of Section 3 must stay
//! bit-identical for fixed seeds across partitioner rewrites.
//!
//! Each case generates N_r random SI patterns at seed 2007, partitions
//! the core hypergraph into `i` parts with partitioner seed 2007, and
//! pins the cut weight, an FNV-1a fingerprint of the core→part
//! assignment and the bucket and remainder sizes. The values were
//! recorded from the full-recompute FM gain update and must be
//! reproduced exactly by any faster formulation. A failure here means
//! the partitioner's output drifted — update the constants only for a
//! deliberate model change.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use soctam::compaction::{group_patterns_packed, CompactionConfig};
use soctam::patterns::{PackedLayout, PackedSet};
use soctam::{Benchmark, RandomPatternConfig, SiPatternSet};

/// 64-bit FNV-1a over the little-endian bytes of `values`.
fn fnv1a(values: &[u32]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for value in values {
        for byte in value.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// One pinned grouping: N_r patterns split into `parts` core groups.
struct Golden {
    patterns: usize,
    parts: u32,
    cut_weight: u64,
    fingerprint: u64,
    buckets: &'static [usize],
    remainder: usize,
}

fn check(benchmark: Benchmark, goldens: &[Golden]) {
    let soc = benchmark.soc();
    let layout = PackedLayout::new(&soc);
    for g in goldens {
        let raw = SiPatternSet::random(&soc, &RandomPatternConfig::new(g.patterns).with_seed(2007))
            .expect("valid set");
        let set = PackedSet::build(raw.as_slice());
        let config = CompactionConfig::new(g.parts)
            .with_seed(2007)
            .partition_config;
        let grouping =
            group_patterns_packed(&soc, &set, &layout, g.parts, &config).expect("valid grouping");
        let case = format!("{benchmark:?}/N_r={}/i={}", g.patterns, g.parts);
        assert_eq!(grouping.cut_weight, g.cut_weight, "{case} cut weight");
        assert_eq!(
            fnv1a(&grouping.core_part),
            g.fingerprint,
            "{case} core_part fingerprint"
        );
        let sizes: Vec<usize> = grouping.buckets.iter().map(Vec::len).collect();
        assert_eq!(sizes, g.buckets, "{case} bucket sizes");
        assert_eq!(
            grouping.remainder.len(),
            g.remainder,
            "{case} remainder size"
        );
    }
}

#[rustfmt::skip]
const D695: [Golden; 4] = [
    Golden { patterns: 10_000, parts: 2, cut_weight: 3020, fingerprint: 0x91d3_344d_3417_0095, buckets: &[6254, 726], remainder: 3020 },
    Golden { patterns: 10_000, parts: 3, cut_weight: 3229, fingerprint: 0x68cc_7f30_5a17_8dd7, buckets: &[665, 6024, 82], remainder: 3229 },
    Golden { patterns: 10_000, parts: 4, cut_weight: 4398, fingerprint: 0x3315_7cbd_9c88_34d4, buckets: &[386, 4571, 274, 371], remainder: 4398 },
    Golden { patterns: 10_000, parts: 8, cut_weight: 5699, fingerprint: 0x2b3f_a0d8_b7ea_f545, buckets: &[278, 97, 430, 2769, 274, 371, 82, 0], remainder: 5699 },
];

#[rustfmt::skip]
const P34392: [Golden; 4] = [
    Golden { patterns: 10_000, parts: 2, cut_weight: 3635, fingerprint: 0xd7f5_d4ad_73aa_56b5, buckets: &[5018, 1347], remainder: 3635 },
    Golden { patterns: 10_000, parts: 3, cut_weight: 4398, fingerprint: 0x524a_e6df_a729_0675, buckets: &[4139, 1044, 419], remainder: 4398 },
    Golden { patterns: 10_000, parts: 4, cut_weight: 5136, fingerprint: 0xb61d_252f_ff59_10f4, buckets: &[3035, 649, 276, 904], remainder: 5136 },
    Golden { patterns: 10_000, parts: 8, cut_weight: 5795, fingerprint: 0x9bb6_1a19_e861_c8a6, buckets: &[344, 2148, 49, 573, 200, 66, 192, 633], remainder: 5795 },
];

#[rustfmt::skip]
const P93791: [Golden; 4] = [
    Golden { patterns: 10_000, parts: 2, cut_weight: 3063, fingerprint: 0x8057_d998_94c9_9dd5, buckets: &[6010, 927], remainder: 3063 },
    Golden { patterns: 10_000, parts: 3, cut_weight: 3580, fingerprint: 0xd9db_fd1c_915c_8075, buckets: &[939, 5338, 143], remainder: 3580 },
    Golden { patterns: 10_000, parts: 4, cut_weight: 4613, fingerprint: 0x05bb_c98f_91e6_3ec5, buckets: &[616, 3936, 187, 648], remainder: 4613 },
    Golden { patterns: 10_000, parts: 8, cut_weight: 5293, fingerprint: 0x7182_32af_5747_1f97, buckets: &[35, 571, 305, 2994, 151, 25, 90, 536], remainder: 5293 },
];

#[test]
fn d695_10k_partitions_are_stable() {
    check(Benchmark::D695, &D695);
}

#[test]
fn p34392_10k_partitions_are_stable() {
    check(Benchmark::P34392, &P34392);
}

#[test]
fn p93791_10k_partitions_are_stable() {
    check(Benchmark::P93791, &P93791);
}

#[test]
fn p93791_100k_four_way_partition_is_stable() {
    #[rustfmt::skip]
    let golden = Golden { patterns: 100_000, parts: 4, cut_weight: 47188, fingerprint: 0xfbfd_361b_7146_6994, buckets: &[1142, 7552, 6360, 37758], remainder: 47188 };
    check(Benchmark::P93791, &[golden]);
}
