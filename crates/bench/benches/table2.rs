//! Timing bench for the Table 2 pipeline (p34392): one representative
//! cell of the sweep, scaled down so it iterates quickly. The full table
//! is `soctam table p34392`, regenerated in `EXPERIMENTS.md` by
//! `soctam report`.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use soctam::experiment::{run_table, ExperimentConfig};
use soctam::Benchmark;
use soctam_bench::harness::{bench, samples};

fn main() {
    let soc = Benchmark::P34392.soc();
    let samples = samples(10);
    for pattern_count in [1_000usize, 5_000] {
        let config = ExperimentConfig {
            pattern_count,
            widths: vec![32],
            partitions: vec![1, 4],
            seed: soctam_bench::TABLE_SEED,
        };
        bench(
            &format!("table2_p34392/cell_w32/{pattern_count}"),
            samples,
            || run_table(&soc, &config).expect("runs"),
        );
    }
}
