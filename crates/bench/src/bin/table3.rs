//! Regenerates **Table 3** of the paper: test application time comparison
//! for SOC p93791 over `W_max ∈ {8..64}`, `N_r ∈ {10 000, 100 000}` and SI
//! partition counts `i ∈ {1, 2, 4, 8}`.
//!
//! ```sh
//! cargo run --release -p soctam-bench --bin table3
//! ```

// Wall-clock timing is this binary's job; it never feeds a table value.
#![allow(clippy::disallowed_methods)]

use soctam::Benchmark;
use soctam_bench::paper_table;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    for pattern_count in [10_000usize, 100_000] {
        let start = std::time::Instant::now();
        let table = paper_table(Benchmark::P93791, pattern_count)?;
        println!("{table}");
        println!("(generated in {:.1?})\n", start.elapsed());
    }
    Ok(())
}
