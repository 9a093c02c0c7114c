//! Timing bench for the Table 3 pipeline (p93791): one representative
//! cell of the sweep. The full table is `soctam table p93791`,
//! regenerated in `EXPERIMENTS.md` by `soctam report`.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use soctam::experiment::{run_table, ExperimentConfig};
use soctam::Benchmark;
use soctam_bench::harness::{bench, samples};

fn main() {
    let soc = Benchmark::P93791.soc();
    let samples = samples(10);
    for pattern_count in [1_000usize, 5_000] {
        let config = ExperimentConfig {
            pattern_count,
            widths: vec![32],
            partitions: vec![1, 4],
            seed: soctam_bench::TABLE_SEED,
        };
        bench(
            &format!("table3_p93791/cell_w32/{pattern_count}"),
            samples,
            || run_table(&soc, &config).expect("runs"),
        );
    }
}
