//! Regenerates every table of the paper and prints them as Markdown
//! (the format `EXPERIMENTS.md` records).
//!
//! ```sh
//! cargo run --release -p soctam-bench --bin all_tables > tables.md
//! ```

// Wall-clock timing is this binary's job; it never feeds a table value.
#![allow(clippy::disallowed_methods)]

use soctam::Benchmark;
use soctam_bench::{paper_table, to_markdown};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("# Regenerated paper tables\n");
    println!(
        "Seed {} — rerun with `cargo run --release -p soctam-bench --bin all_tables`.\n",
        soctam_bench::TABLE_SEED
    );
    for (bench, label) in [
        (Benchmark::P34392, "Table 2"),
        (Benchmark::P93791, "Table 3"),
    ] {
        println!("## {label} ({})\n", bench.name());
        for pattern_count in [10_000usize, 100_000] {
            let start = std::time::Instant::now();
            let table = paper_table(bench, pattern_count)?;
            println!("{}", to_markdown(&table));
            eprintln!(
                "[{label} {} N_r={pattern_count}] done in {:.1?}",
                bench.name(),
                start.elapsed()
            );
        }
    }
    Ok(())
}
