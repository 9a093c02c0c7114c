//! The Section 3 compaction claims, quantified:
//!
//! * vertical (count) compaction ratios over a sweep of `N_r`;
//! * two-dimensional volume reduction per partition count;
//! * greedy heuristic quality versus the exact clique cover on small sets
//!   (the paper: "similar compaction ratios as approximation algorithms
//!   ... with significantly less computation time").
//!
//! ```sh
//! cargo run --release -p soctam-bench --bin compaction_report
//! ```

// Wall-clock timing is this binary's job; it never feeds a table value.
#![allow(clippy::disallowed_methods)]

use soctam::compaction::{
    compact_greedy, compact_greedy_ordered, compact_optimal, compact_two_dimensional,
    CompactionConfig, MergeOrder,
};
use soctam::{Benchmark, RandomPatternConfig, SiPatternSet};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== vertical compaction ratio vs N_r ==");
    println!(
        "{:>8} {:>10} {:>12} {:>8} {:>12}",
        "N_r", "soc", "compacted", "ratio", "time"
    );
    for bench in [Benchmark::P34392, Benchmark::P93791] {
        let soc = bench.soc();
        for count in [1_000usize, 10_000, 100_000] {
            let raw = SiPatternSet::random(
                &soc,
                &RandomPatternConfig::new(count).with_seed(soctam_bench::TABLE_SEED),
            )?;
            let start = std::time::Instant::now();
            let compacted = compact_greedy(&soc, raw.as_slice());
            println!(
                "{:>8} {:>10} {:>12} {:>8.1} {:>12.1?}",
                count,
                soc.name(),
                compacted.len(),
                count as f64 / compacted.len() as f64,
                start.elapsed()
            );
        }
    }

    println!("\n== two-dimensional compaction: SI data volume per partition count ==");
    println!(
        "{:>10} {:>4} {:>12} {:>14} {:>10}",
        "soc", "i", "patterns", "volume(bits)", "groups"
    );
    for bench in [Benchmark::P34392, Benchmark::P93791] {
        let soc = bench.soc();
        let raw = SiPatternSet::random(
            &soc,
            &RandomPatternConfig::new(20_000).with_seed(soctam_bench::TABLE_SEED),
        )?;
        for parts in [1u32, 2, 4, 8] {
            let out = compact_two_dimensional(&soc, &raw, &CompactionConfig::new(parts))?;
            println!(
                "{:>10} {:>4} {:>12} {:>14} {:>10}",
                soc.name(),
                parts,
                out.total_patterns(),
                out.data_volume(&soc),
                out.groups().len()
            );
        }
    }

    println!("\n== merge-order heuristics (N_r = 20000) ==");
    println!(
        "{:>10} {:>14} {:>14} {:>14}",
        "soc", "input-order", "most-care-1st", "fewest-care-1st"
    );
    for bench in [Benchmark::P34392, Benchmark::P93791] {
        let soc = bench.soc();
        let raw = SiPatternSet::random(
            &soc,
            &RandomPatternConfig::new(20_000).with_seed(soctam_bench::TABLE_SEED),
        )?;
        let counts: Vec<usize> = [
            MergeOrder::InputOrder,
            MergeOrder::MostCareBitsFirst,
            MergeOrder::FewestCareBitsFirst,
        ]
        .into_iter()
        .map(|order| compact_greedy_ordered(&soc, raw.as_slice(), order).len())
        .collect();
        println!(
            "{:>10} {:>14} {:>14} {:>14}",
            soc.name(),
            counts[0],
            counts[1],
            counts[2]
        );
    }

    println!("\n== greedy vs exact clique cover (small sets) ==");
    println!(
        "{:>6} {:>8} {:>8} {:>14} {:>14}",
        "n", "greedy", "exact", "greedy time", "exact time"
    );
    let soc = Benchmark::D695.soc();
    for (seed, n) in [(1u64, 8usize), (2, 10), (3, 12), (4, 14), (5, 16)] {
        let raw = SiPatternSet::random(
            &soc,
            &RandomPatternConfig {
                max_aggressors: 3,
                ..RandomPatternConfig::new(n).with_seed(seed)
            },
        )?;
        let start = std::time::Instant::now();
        let greedy = compact_greedy(&soc, raw.as_slice());
        let greedy_time = start.elapsed();
        let start = std::time::Instant::now();
        let exact = compact_optimal(raw.as_slice())?;
        let exact_time = start.elapsed();
        println!(
            "{:>6} {:>8} {:>8} {:>14.1?} {:>14.1?}",
            n,
            greedy.len(),
            exact.len(),
            greedy_time,
            exact_time
        );
        assert!(greedy.len() >= exact.len());
    }
    Ok(())
}
