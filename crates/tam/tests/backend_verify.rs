//! Referee check of the TAM optimizer.
//!
//! For every SOC × `W_max` × partition grid point, the optimized
//! architecture must:
//!
//! 1. **validate** — construct cleanly via `TestRailArchitecture::new`
//!    (every core hosted exactly once);
//! 2. **respect `W_max`** — `check_width` holds;
//! 3. **re-evaluate bit-identically** under a *fresh* shared
//!    [`Evaluator`] — the Evaluator-as-referee invariant: the
//!    evaluation the optimizer reports is exactly what the referee
//!    assigns to its architecture, with no search-private cost model
//!    leaking into the reported `T_soc`.
//!
//! The same grid run twice must also be bit-identical (the optimizer
//! is a deterministic function of the problem).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use soctam_compaction::{compact_two_dimensional, CompactionConfig};
use soctam_model::{Benchmark, Soc};
use soctam_patterns::{RandomPatternConfig, SiPatternSet};
use soctam_tam::{
    BackendCtx, Evaluator, OptimizedArchitecture, SiGroupSpec, TestRailArchitecture,
    TrArchitectBackend,
};

/// Compacts `patterns` random patterns into `parts` partitions.
fn groups_for(soc: &Soc, patterns: usize, parts: u32) -> Vec<SiGroupSpec> {
    let raw = SiPatternSet::random(soc, &RandomPatternConfig::new(patterns).with_seed(7))
        .expect("pattern generation");
    let compacted = compact_two_dimensional(soc, &raw, &CompactionConfig::new(parts).with_seed(7))
        .expect("compaction");
    SiGroupSpec::from_compacted(&compacted)
}

/// Runs one grid point and checks all three invariants.
fn verify_point(soc: &Soc, w_max: u32, groups: &[SiGroupSpec]) -> OptimizedArchitecture {
    let result = TrArchitectBackend
        .optimize(&BackendCtx::new(soc, w_max, groups))
        .unwrap_or_else(|e| panic!("fails on {} W_max={w_max}: {e}", soc.name()));

    // 1. The architecture validates: every core hosted exactly once.
    let rails = result.architecture().rails().to_vec();
    TestRailArchitecture::new(soc, rails)
        .unwrap_or_else(|e| panic!("architecture invalid on {}: {e}", soc.name()));

    // 2. The width budget is respected.
    result
        .architecture()
        .check_width(w_max)
        .unwrap_or_else(|e| panic!("exceeds W_max={w_max} on {}: {e}", soc.name()));

    // 3. Evaluator-as-referee: a fresh, cache-free evaluator assigns
    // exactly the evaluation the optimizer reported.
    let referee = Evaluator::new(soc, w_max, groups.to_vec()).expect("referee evaluator");
    let fresh = referee.evaluate(result.architecture());
    assert_eq!(
        &fresh,
        result.evaluation(),
        "reported an evaluation the referee disagrees with on {} W_max={w_max}",
        soc.name()
    );
    result
}

fn verify_grid(bench: Benchmark, patterns: usize, widths: &[u32], partitions: &[u32]) {
    let soc = bench.soc();
    for &parts in partitions {
        let groups = groups_for(&soc, patterns, parts);
        for &w_max in widths {
            let first = verify_point(&soc, w_max, &groups);
            // Determinism: the identical grid point reproduces the
            // identical result, bit for bit.
            let second = verify_point(&soc, w_max, &groups);
            assert_eq!(
                first,
                second,
                "not deterministic on {} W_max={w_max} parts={parts}",
                soc.name()
            );
        }
    }
}

#[test]
fn d695_grid_verifies_under_the_referee() {
    verify_grid(Benchmark::D695, 300, &[8, 16, 32], &[1, 2, 4]);
}

#[test]
fn p34392_grid_verifies_under_the_referee() {
    verify_grid(Benchmark::P34392, 200, &[16, 32], &[1, 2]);
}

#[test]
fn p93791_grid_verifies_under_the_referee() {
    verify_grid(Benchmark::P93791, 150, &[16, 32], &[2]);
}
